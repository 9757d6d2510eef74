(* End-to-end tests of the synthesis engine on the paper's §2 examples:
   the three-stage ALU machine (decoder-style control, pipelined) and the
   accumulator (FSM-style control with shared state-encoding holes).

   Correctness of a synthesized design is established two ways:
   1. the engine's own verification (CEGIS terminates only on UNSAT), and
   2. cycle-accurate co-simulation against the hand-written reference. *)

let bv = Alcotest.testable Bitvec.pp Bitvec.equal
let b w n = Bitvec.of_int ~width:w n

let solve ?options problem =
  match Synth.Engine.synthesize ?options problem with
  | Synth.Engine.Solved s -> s
  | Synth.Engine.Timeout _ -> Alcotest.fail "synthesis timed out"
  | Synth.Engine.Unrealizable { instr; _ } ->
      Alcotest.failf "unrealizable (%s)" (Option.value instr ~default:"?")
  | Synth.Engine.Union_failed { diagnostic; _ } ->
      Alcotest.failf "union failed: %s" diagnostic
  | Synth.Engine.Not_independent _ -> Alcotest.fail "not independent" 

(* {1 ALU} *)

let simulate_alu design ~cycles ~stimulus ~mem_image =
  let st =
    Oyster.Interp.init
      ~mem_init:(fun _ _ _ addr -> mem_image.(Bitvec.to_int_exn addr))
      design
  in
  for c = 0 to cycles - 1 do
    let op, dest, src1, src2 = stimulus c in
    ignore
      (Oyster.Interp.step
         ~inputs:(fun name _ ->
           match name with
           | "op" -> b 2 op
           | "dest" -> b 2 dest
           | "src1" -> b 2 src1
           | "src2" -> b 2 src2
           | _ -> assert false)
         st)
  done;
  Array.init 4 (fun i -> Oyster.Interp.read_mem st "regfile" (b 2 i))

let test_alu_synthesis () =
  let solved = solve (Designs.Alu.problem ()) in
  (* reg_we must be constant 1 across instructions; alu_sel mirrors op *)
  List.iter
    (fun (iname, holes) ->
      Alcotest.check bv (iname ^ " we") (b 1 1) (List.assoc "reg_we" holes);
      let expected_sel =
        match iname with "ADD" -> 1 | "SUB" -> 2 | "XOR" -> 3 | _ -> -1
      in
      Alcotest.check bv (iname ^ " sel") (b 2 expected_sel)
        (List.assoc "alu_sel" holes))
    solved.Synth.Engine.per_instr;
  (* co-simulate against the reference on random decodable stimulus *)
  let reference = Designs.Alu.reference_design () in
  let rng = Random.State.make [| 11 |] in
  for _trial = 1 to 10 do
    let stim =
      Array.init 16 (fun _ ->
          ( 1 + Random.State.int rng 3,
            Random.State.int rng 4,
            Random.State.int rng 4,
            Random.State.int rng 4 ))
    in
    let mem_image = Array.init 4 (fun _ -> b 8 (Random.State.int rng 256)) in
    let r1 =
      simulate_alu solved.Synth.Engine.completed ~cycles:16
        ~stimulus:(fun c -> stim.(c))
        ~mem_image
    in
    let r2 =
      simulate_alu reference ~cycles:16 ~stimulus:(fun c -> stim.(c)) ~mem_image
    in
    Array.iteri
      (fun i v -> Alcotest.check bv (Printf.sprintf "reg %d" i) v r1.(i))
      r2
  done

let test_alu_monolithic () =
  let options =
    Synth.Engine.(default_options |> with_mode Monolithic)
  in
  let solved = solve ~options (Designs.Alu.problem ()) in
  List.iter
    (fun (iname, holes) ->
      let expected_sel =
        match iname with "ADD" -> 1 | "SUB" -> 2 | "XOR" -> 3 | _ -> -1
      in
      Alcotest.check bv (iname ^ " sel mono") (b 2 expected_sel)
        (List.assoc "alu_sel" holes))
    solved.Synth.Engine.per_instr

let test_alu_timeout () =
  let options = Synth.Engine.(default_options |> with_conflict_budget 1) in
  match Synth.Engine.synthesize ~options (Designs.Alu.problem ()) with
  | Synth.Engine.Timeout _ -> ()
  | _ -> Alcotest.fail "expected timeout with conflict budget 1"

let test_alu_unrealizable () =
  (* an instruction the datapath cannot implement: regs[dest] := rs1 + 1 *)
  let s = Ila.Spec.create "alu_bad" in
  let op = Ila.Spec.new_bv_input s "op" 2 in
  let dest = Ila.Spec.new_bv_input s "dest" 2 in
  let src1 = Ila.Spec.new_bv_input s "src1" 2 in
  let _ = Ila.Spec.new_bv_input s "src2" 2 in
  let _ = Ila.Spec.new_mem_state s "regs" ~addr_width:2 ~data_width:8 in
  let open Ila.Expr in
  let i = Ila.Spec.new_instr s "INC" in
  Ila.Spec.set_decode i (op == of_int ~width:2 1);
  Ila.Spec.set_mem_update i "regs"
    [ (dest, load "regs" src1 + of_int ~width:8 1) ];
  let problem =
    { Synth.Engine.design = Designs.Alu.sketch (); spec = s;
      af = Designs.Alu.abstraction () }
  in
  match Synth.Engine.synthesize problem with
  | Synth.Engine.Unrealizable { instr = Some "INC"; _ } -> ()
  | Synth.Engine.Unrealizable { instr = None; _ } -> ()
  | Synth.Engine.Solved _ -> Alcotest.fail "expected unrealizable, got solved"
  | _ -> Alcotest.fail "expected unrealizable"

(* {1 Accumulator (FSM with shared holes)} *)

let test_accumulator_synthesis () =
  let solved = solve (Designs.Accumulator.problem ()) in
  (* the selector encodings are forced by the spec's state constants *)
  Alcotest.check bv "enc_reset" (b 2 Designs.Accumulator.reset_enc)
    (List.assoc "enc_reset" solved.Synth.Engine.shared);
  Alcotest.check bv "enc_go" (b 2 Designs.Accumulator.go_enc)
    (List.assoc "enc_go" solved.Synth.Engine.shared);
  (* per-instruction next-state values match the spec transitions *)
  List.iter
    (fun (iname, holes) ->
      let expected =
        match iname with
        | "reset_instr" -> Designs.Accumulator.reset_enc
        | "go_instr" -> Designs.Accumulator.go_enc
        | "stop_instr" -> Designs.Accumulator.stop_enc
        | _ -> -1
      in
      Alcotest.check bv (iname ^ " next") (b 2 expected)
        (List.assoc "next" holes))
    solved.Synth.Engine.per_instr;
  (* co-simulate a scripted run: reset, accumulate 3+2+1, stop *)
  let run design =
    let st = Oyster.Interp.init design in
    (* state register starts at 0 = STOP *)
    let feed (reset, go, stop, v) =
      ignore
        (Oyster.Interp.step
           ~inputs:(fun name _ ->
             match name with
             | "reset" -> b 1 reset
             | "go" -> b 1 go
             | "stop" -> b 1 stop
             | "val" -> b 2 v
             | _ -> assert false)
           st)
    in
    List.iter feed
      [ (1, 0, 0, 0);  (* STOP -reset-> RESET, acc := 0 *)
        (0, 1, 0, 3);  (* RESET -go-> GO, acc += 3 *)
        (0, 0, 0, 2);  (* GO -¬stop-> GO, acc += 2 *)
        (0, 0, 0, 1);  (* GO -¬stop-> GO, acc += 1 *)
        (0, 0, 1, 0)   (* GO -stop-> STOP, acc unchanged *)
      ];
    Oyster.Interp.get_register st "acc"
  in
  Alcotest.check bv "acc total" (b 8 6) (run solved.Synth.Engine.completed);
  Alcotest.check bv "reference acc total" (b 8 6)
    (run (Designs.Accumulator.reference_design ()))

(* {1 Independence checks} *)

let test_independence () =
  (match Synth.Engine.independence (Designs.Alu.problem ()) with
  | Some r ->
      Alcotest.(check (list (pair string string))) "no overlap" []
        r.Synth.Engine.overlapping;
      Alcotest.(check int) "no feedback through the assume cuts" 0
        (List.length r.Synth.Engine.feedback)
  | None -> Alcotest.fail "gate inconclusive");
  let fb =
    Synth.Independence.check_no_feedback
      (Designs.Alu.problem ()).Synth.Engine.design
  in
  Alcotest.(check int) "no feedback" 0
    (List.length fb.Synth.Independence.feedback_paths)

let test_feedback_detected () =
  (* a design where a hole's output feeds its own dependency wire *)
  let open Hdl.Builder in
  let c = create "fb" in
  let x = input c "x" 1 in
  let h = hole c "h" 1 ~deps:[ x ] in
  let y = wire c "y" (h &: x) in
  let h2 = hole c "h2" 1 ~deps:[ y ] in
  output c "o" (h2 |: y);
  let d = finalize c in
  let fb = Synth.Independence.check_no_feedback d in
  Alcotest.(check bool) "feedback found" true
    (List.length fb.Synth.Independence.feedback_paths > 0);
  (* whitelisting the cut wire silences it *)
  let fb' = Synth.Independence.check_no_feedback ~allowed_cuts:[ "y" ] d in
  Alcotest.(check int) "cut silences" 0 (List.length fb'.Synth.Independence.feedback_paths)

(* A two-instruction spec over the ALU sketch decoding A on op = 1 and
   B on [b_codes]. *)
let overlap_problem name b_codes =
  let s = Ila.Spec.create name in
  let op = Ila.Spec.new_bv_input s "op" 2 in
  let _ = Ila.Spec.new_bv_input s "dest" 2 in
  let _ = Ila.Spec.new_bv_input s "src1" 2 in
  let _ = Ila.Spec.new_bv_input s "src2" 2 in
  let _ = Ila.Spec.new_mem_state s "regs" ~addr_width:2 ~data_width:8 in
  let open Ila.Expr in
  let i1 = Ila.Spec.new_instr s "A" in
  Ila.Spec.set_decode i1 (op == of_int ~width:2 1);
  let i2 = Ila.Spec.new_instr s "B" in
  Ila.Spec.set_decode i2
    (match List.map (fun k -> op == of_int ~width:2 k) b_codes with
    | d :: ds -> List.fold_left ( || ) d ds
    | [] -> invalid_arg "overlap_problem");
  { Synth.Engine.design = Designs.Alu.sketch (); spec = s;
    af = Designs.Alu.abstraction () }

let test_overlapping_decodes () =
  (* two instructions that can decode together *)
  match Synth.Engine.independence (overlap_problem "overlap" [ 1; 2 ]) with
  | Some r ->
      Alcotest.(check (list (pair string string))) "overlap found"
        [ ("A", "B") ] r.Synth.Engine.overlapping
  | None -> Alcotest.fail "gate inconclusive"

let test_independence_gate () =
  (* every synthesis runs the gate: an overlapping specification is
     rejected before any loop runs *)
  (match Synth.Engine.synthesize (overlap_problem "overlap_gate" [ 1 ]) with
  | Synth.Engine.Not_independent { overlapping = [ ("A", "B") ]; _ } -> ()
  | Synth.Engine.Not_independent _ -> Alcotest.fail "wrong overlap report"
  | _ -> Alcotest.fail "expected Not_independent");
  (* ... and a well-formed problem still synthesizes under the gate *)
  match Synth.Engine.synthesize (Designs.Alu.problem ()) with
  | Synth.Engine.Solved _ -> ()
  | _ -> Alcotest.fail "independent problem rejected"

(* The one at-most-one query against the pairwise definition, on random
   decode sets: opcodes of 2-4 bits with random don't-care masks, each
   instruction with or without an assumption on a second input.  The
   reference is a one-shot check of every pair's [p_i ∧ p_j]. *)
let gen_decode_set : Ila.Conditions.conditions list QCheck.Gen.t =
  let open QCheck.Gen in
  2 -- 4 >>= fun w ->
  let op = Term.var (Printf.sprintf "qind_op%d" w) w in
  let flag = Term.var "qind_flag" 1 in
  let full = (1 lsl w) - 1 in
  let gen_instr i =
    0 -- full >>= fun code ->
    oneof [ return full; 0 -- full ] >>= fun mask ->
    oneofl [ None; Some 0; Some 1 ] >>= fun assume ->
    let bits k = Term.const (Bitvec.of_int ~width:w (k land mask)) in
    return
      {
        Ila.Conditions.instr_name = Printf.sprintf "I%d" i;
        pre = Term.eq (Term.band op (bits full)) (bits code);
        assumes =
          (match assume with
          | None -> Term.tru
          | Some v -> Term.eq flag (Term.const (Bitvec.of_int ~width:1 v)));
        post = Term.tru;
        challenges = [];
      }
  in
  2 -- 5 >>= fun n -> flatten_l (List.init n gen_instr)

let print_decode_set conds =
  String.concat "; "
    (List.map
       (fun (c : Ila.Conditions.conditions) ->
         Format.asprintf "%s: %a & %a" c.Ila.Conditions.instr_name Term.pp
           c.Ila.Conditions.pre Term.pp c.Ila.Conditions.assumes)
       conds)

let prop_one_query_is_pairwise =
  QCheck.Test.make ~count:300
    ~name:"at-most-one query agrees with the pairwise checks"
    (QCheck.make ~print:print_decode_set gen_decode_set)
    (fun conds ->
      let decodes (c : Ila.Conditions.conditions) =
        Term.band c.Ila.Conditions.pre c.Ila.Conditions.assumes
      in
      let overlaps a b =
        match Solver.check [ decodes a; decodes b ] with
        | Solver.Sat _ -> true
        | Solver.Unsat _ -> false
        | Solver.Unknown _ -> QCheck.Test.fail_report "pair check unknown"
      in
      let rec pairs = function
        | [] -> []
        | a :: rest -> List.map (fun b -> (a, b)) rest @ pairs rest
      in
      let overlapping =
        List.filter_map
          (fun ((a : Ila.Conditions.conditions), (b : Ila.Conditions.conditions)) ->
            if overlaps a b then
              Some (a.Ila.Conditions.instr_name, b.Ila.Conditions.instr_name)
            else None)
          (pairs conds)
      in
      match Solver.check [ Synth.Independence.exclusion_violation conds ] with
      | Solver.Unsat _ -> overlapping = []
      | Solver.Unknown _ -> QCheck.Test.fail_report "query unknown"
      | Solver.Sat (m, _) ->
          let env =
            {
              Term.lookup_var =
                (fun n w ->
                  Some
                    (Option.value (m.Solver.var_value n)
                       ~default:(Bitvec.zero w)));
              lookup_read = (fun _ _ -> None);
            }
          in
          let witness = Synth.Independence.co_decoding env conds in
          witness <> [] && List.for_all (fun p -> List.mem p overlapping) witness)

(* {1 Tracing} *)

(* The names of the spans each [name] span opens inside, per occurrence. *)
let enclosing name events =
  let stacks = Hashtbl.create 4 in
  List.fold_left
    (fun acc (e : Obs.event) ->
      let stack = Option.value (Hashtbl.find_opt stacks e.Obs.dom) ~default:[] in
      match e.Obs.ph with
      | Obs.Begin ->
          Hashtbl.replace stacks e.Obs.dom (e.Obs.name :: stack);
          if e.Obs.name = name then stack :: acc else acc
      | Obs.End ->
          Hashtbl.replace stacks e.Obs.dom (match stack with [] -> [] | _ :: s -> s);
          acc
      | Obs.Instant -> acc)
    [] events

let test_traced_synthesis () =
  (* the engine's own spans, not synthetic ones, must export as a Chrome
     trace that Owl_obs's strict parser accepts *)
  Obs.enable ();
  Obs.enable_metrics ();
  let trace, events =
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.disable_metrics ())
      (fun () ->
        ignore (solve (Designs.Accumulator.problem ()));
        (Obs.chrome_trace_string (), Obs.events ()))
  in
  (* the set-up stages are attributed too: symbolic evaluation opens the
     trace, and condition compilation, the independence gate and the
     final union each have a span *)
  (match events with
  | e :: _ ->
      Alcotest.(check string) "first event" "synth.symbolic" e.Obs.name;
      Alcotest.(check bool) "first event is a Begin" true (e.Obs.ph = Obs.Begin)
  | [] -> Alcotest.fail "no events");
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " recorded") true
        (List.exists (fun (e : Obs.event) -> e.Obs.name = name) events))
    [ "synth.symbolic"; "synth.conditions"; "synth.independence"; "synth.union" ];
  (* the encoding of a CEGIS query splits into Ackermann expansion and
     blasting, each timed inside the verify or synth step it serves *)
  List.iter
    (fun name ->
      let in_cegis stack = List.mem "cegis.verify" stack || List.mem "cegis.synth" stack in
      Alcotest.(check bool)
        (name ^ " nested under cegis.verify or cegis.synth")
        true
        (List.exists in_cegis (enclosing name events)))
    [ "solver.ackermannize"; "blast.assert" ];
  match Json.parse trace with
  | exception Json.Parse_error m -> Alcotest.failf "trace is not valid JSON: %s" m
  | doc -> (
      match Json.member "traceEvents" doc with
      | Some (Json.Arr (_ :: _)) -> ()
      | _ -> Alcotest.fail "trace has no traceEvents")

(* The [queries] results of the [names] spans in [events], summed. *)
let span_queries names events =
  List.fold_left
    (fun n (e : Obs.event) ->
      match (e.Obs.ph, List.assoc_opt "queries" e.Obs.args) with
      | Obs.End, Some (Obs.Int q) when List.mem e.Obs.name names -> n + q
      | _ -> n)
    0 events

let test_trace_matches_stats () =
  (* each CEGIS loop's span (one per instruction, or the one joint loop)
     reports its queries; together they are the run's [stats.queries], and
     the gate's query, reported on its own span, is not among them *)
  List.iter
    (fun (label, problem) ->
      List.iter
        (fun jobs ->
          let options = Synth.Engine.(default_options |> with_jobs jobs) in
          Obs.enable ();
          let s, events =
            Fun.protect ~finally:Obs.disable (fun () ->
                let s = solve ~options (problem ()) in
                (s, Obs.events ()))
          in
          let tag f = Printf.sprintf "%s, jobs=%d: %s" label jobs f in
          Alcotest.(check int) (tag "loop spans sum to stats.queries")
            s.Synth.Engine.stats.Synth.Engine.queries
            (span_queries [ "cegis.instr"; "cegis.joint" ] events);
          Alcotest.(check bool) (tag "the gate's span has its own query") true
            (span_queries [ "synth.independence" ] events >= 1))
        [ 1; 4 ])
    [ ("alu", Designs.Alu.problem); ("accumulator", Designs.Accumulator.problem) ]

let () =
  Alcotest.run "engine"
    [ ("alu",
       [ Alcotest.test_case "per-instruction synthesis" `Quick test_alu_synthesis;
         Alcotest.test_case "monolithic synthesis" `Quick test_alu_monolithic;
         Alcotest.test_case "timeout" `Quick test_alu_timeout;
         Alcotest.test_case "unrealizable" `Quick test_alu_unrealizable ]);
      ("accumulator",
       [ Alcotest.test_case "joint synthesis" `Quick test_accumulator_synthesis ]);
      ("independence",
       [ Alcotest.test_case "alu independent" `Quick test_independence;
         Alcotest.test_case "feedback detection" `Quick test_feedback_detected;
         Alcotest.test_case "overlapping decodes" `Quick test_overlapping_decodes;
         QCheck_alcotest.to_alcotest prop_one_query_is_pairwise ]);
      ("gate",
       [ Alcotest.test_case "independence pre-check" `Quick test_independence_gate ]);
      ("tracing",
       [ Alcotest.test_case "traced synthesis emits a valid Chrome trace" `Quick
           test_traced_synthesis;
         Alcotest.test_case "loop spans sum to the stats' queries" `Quick
           test_trace_matches_stats ]) ]
