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
  let problem = Designs.Alu.problem () in
  let trace =
    Oyster.Symbolic.eval problem.Synth.Engine.design
      ~cycles:problem.Synth.Engine.af.Ila.Absfun.cycles
  in
  let conds =
    Ila.Conditions.compile problem.Synth.Engine.spec problem.Synth.Engine.af trace
  in
  let excl = Synth.Independence.check_mutual_exclusion conds in
  Alcotest.(check (list (pair string string))) "no overlap" []
    excl.Synth.Independence.overlapping;
  let fb = Synth.Independence.check_no_feedback problem.Synth.Engine.design in
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

let test_overlapping_decodes () =
  (* two instructions that can decode together *)
  let s = Ila.Spec.create "overlap" in
  let op = Ila.Spec.new_bv_input s "op" 2 in
  let _ = Ila.Spec.new_bv_input s "dest" 2 in
  let _ = Ila.Spec.new_bv_input s "src1" 2 in
  let _ = Ila.Spec.new_bv_input s "src2" 2 in
  let _ = Ila.Spec.new_mem_state s "regs" ~addr_width:2 ~data_width:8 in
  let open Ila.Expr in
  let i1 = Ila.Spec.new_instr s "A" in
  Ila.Spec.set_decode i1 (op == of_int ~width:2 1);
  let i2 = Ila.Spec.new_instr s "B" in
  Ila.Spec.set_decode i2 ((op == of_int ~width:2 1) || (op == of_int ~width:2 2));
  let trace = Oyster.Symbolic.eval (Designs.Alu.sketch ()) ~cycles:3 in
  let conds = Ila.Conditions.compile s (Designs.Alu.abstraction ()) trace in
  let excl = Synth.Independence.check_mutual_exclusion conds in
  Alcotest.(check (list (pair string string))) "overlap found" [ ("A", "B") ]
    excl.Synth.Independence.overlapping

let test_independence_gate () =
  (* with check_independence, an overlapping specification is rejected
     before any synthesis happens *)
  let s = Ila.Spec.create "overlap_gate" in
  let op = Ila.Spec.new_bv_input s "op" 2 in
  let _ = Ila.Spec.new_bv_input s "dest" 2 in
  let _ = Ila.Spec.new_bv_input s "src1" 2 in
  let _ = Ila.Spec.new_bv_input s "src2" 2 in
  let _ = Ila.Spec.new_mem_state s "regs" ~addr_width:2 ~data_width:8 in
  let open Ila.Expr in
  let i1 = Ila.Spec.new_instr s "A" in
  Ila.Spec.set_decode i1 (op == of_int ~width:2 1);
  let i2 = Ila.Spec.new_instr s "B" in
  Ila.Spec.set_decode i2 (op == of_int ~width:2 1);
  let problem =
    { Synth.Engine.design = Designs.Alu.sketch (); spec = s;
      af = Designs.Alu.abstraction () }
  in
  let options =
    Synth.Engine.(default_options |> with_check_independence true)
  in
  (match Synth.Engine.synthesize ~options problem with
  | Synth.Engine.Not_independent { overlapping = [ ("A", "B") ]; _ } -> ()
  | Synth.Engine.Not_independent _ -> Alcotest.fail "wrong overlap report"
  | _ -> Alcotest.fail "expected Not_independent");
  (* ... and a well-formed problem still synthesizes under the gate *)
  match Synth.Engine.synthesize ~options (Designs.Alu.problem ()) with
  | Synth.Engine.Solved _ -> ()
  | _ -> Alcotest.fail "independent problem rejected"

(* {1 Don't-care minimization} *)

let test_minimize () =
  let problem = Designs.Alu.problem () in
  let solved = solve problem in
  let m = Synth.Minimize.run problem solved in
  Alcotest.(check bool) "checks performed" true
    (m.Synth.Minimize.minimize_stats.Synth.Minimize.checks > 0);
  (* the minimized design must still co-simulate with the reference *)
  let reference = Designs.Alu.reference_design () in
  let rng = Random.State.make [| 55 |] in
  for _ = 1 to 5 do
    let stim =
      Array.init 12 (fun _ ->
          ( 1 + Random.State.int rng 3,
            Random.State.int rng 4,
            Random.State.int rng 4,
            Random.State.int rng 4 ))
    in
    let mem_image = Array.init 4 (fun _ -> b 8 (Random.State.int rng 256)) in
    let r1 =
      simulate_alu m.Synth.Minimize.solved.Synth.Engine.completed ~cycles:12
        ~stimulus:(fun c -> stim.(c))
        ~mem_image
    in
    let r2 =
      simulate_alu reference ~cycles:12 ~stimulus:(fun c -> stim.(c)) ~mem_image
    in
    Array.iteri
      (fun i v -> Alcotest.check bv (Printf.sprintf "minimized reg %d" i) v r1.(i))
      r2
  done;
  (* minimization never grows the control *)
  Alcotest.(check bool) "control no larger" true
    (Hdl.Pyrtl.bindings_loc m.Synth.Minimize.solved.Synth.Engine.bindings
    <= Hdl.Pyrtl.bindings_loc solved.Synth.Engine.bindings)

(* {1 Tracing} *)

let test_traced_synthesis () =
  (* the engine's own spans, not synthetic ones, must export as a Chrome
     trace that Owl_obs's strict parser accepts *)
  Obs.enable ();
  Obs.enable_metrics ();
  let trace =
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Obs.disable_metrics ())
      (fun () ->
        ignore (solve (Designs.Accumulator.problem ()));
        Obs.chrome_trace_string ())
  in
  match Json.parse trace with
  | exception Json.Parse_error m -> Alcotest.failf "trace is not valid JSON: %s" m
  | doc -> (
      match Json.member "traceEvents" doc with
      | Some (Json.Arr (_ :: _)) -> ()
      | _ -> Alcotest.fail "trace has no traceEvents")

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
         Alcotest.test_case "overlapping decodes" `Quick test_overlapping_decodes ]);
      ("minimize", [ Alcotest.test_case "don't-cares" `Quick test_minimize ]);
      ("gate",
       [ Alcotest.test_case "independence pre-check" `Quick test_independence_gate ]);
      ("tracing",
       [ Alcotest.test_case "traced synthesis emits a valid Chrome trace" `Quick
           test_traced_synthesis ]) ]
