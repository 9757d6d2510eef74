(* Incremental-session equivalence: the engine with [incremental] (the
   default) must be a pure performance change, never a correctness one.

   - On the small case studies (accumulator, pipelined ALU), in both
     per-instruction and monolithic mode, the incremental and fresh modes
     currently find the exact same hole constants — locked in here as a
     regression net.
   - On larger designs the modes may legitimately diverge (persistent
     learned clauses steer the solver to a different correct model), so
     the guarantee checked there is semantic: the incremental solution's
     completed design passes full refinement verification.
   - Incremental mode must encode strictly fewer SAT clauses than fresh
     mode whenever a loop runs at least two CEGIS iterations — re-blasting
     the shared cones is exactly the work sessions exist to avoid.
   - Within incremental mode, bindings are independent of [jobs] (the
     test_parallel suite covers this for the default options; here the
     fresh mode gets the same check so the escape hatch stays healthy).
   - [Engine.verify] verdicts must agree between incremental and fresh,
     and its worker session serves only the unpinned instructions: a
     pinned reference encodes exactly what fresh mode does, an unpinned
     one strictly less. *)

let solve ~incremental ?(jobs = 1) ?(mode = Synth.Engine.Per_instruction)
    problem =
  let options =
    Synth.Engine.(
      default_options |> with_incremental incremental |> with_jobs jobs
      |> with_mode mode)
  in
  match Synth.Engine.synthesize ~options problem with
  | Synth.Engine.Solved s -> s
  | _ -> Alcotest.fail "synthesis failed"

(* the small designs under both verification shapes: per-instruction
   targets (the accumulator's shared holes make it a joint loop) and the
   monolithic disjunction *)
let small_designs =
  List.concat_map
    (fun (name, mk) ->
      [ (name, mk, Synth.Engine.Per_instruction);
        (name ^ " monolithic", mk, Synth.Engine.Monolithic) ])
    [ ("accumulator", Designs.Accumulator.problem);
      ("alu", Designs.Alu.problem) ]

let test_same_bindings_small () =
  List.iter
    (fun (name, mk, mode) ->
      let si = solve ~incremental:true ~mode (mk ()) in
      let sf = solve ~incremental:false ~mode (mk ()) in
      Alcotest.(check bool) (name ^ ": per_instr identical") true
        (si.Synth.Engine.per_instr = sf.Synth.Engine.per_instr);
      Alcotest.(check bool) (name ^ ": shared identical") true
        (si.Synth.Engine.shared = sf.Synth.Engine.shared);
      Alcotest.(check bool) (name ^ ": bindings identical") true
        (si.Synth.Engine.bindings = sf.Synth.Engine.bindings))
    small_designs

let test_fewer_clauses () =
  List.iter
    (fun (name, mk, mode) ->
      let si = solve ~incremental:true ~mode (mk ()) in
      let sf = solve ~incremental:false ~mode (mk ()) in
      let ci = si.Synth.Engine.stats.Synth.Engine.blasted_clauses in
      let cf = sf.Synth.Engine.stats.Synth.Engine.blasted_clauses in
      Alcotest.(check bool)
        (Printf.sprintf "%s: looped (%d iterations)" name
           si.Synth.Engine.stats.Synth.Engine.iterations)
        true
        (si.Synth.Engine.stats.Synth.Engine.iterations >= 2);
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d < %d clauses" name ci cf)
        true (ci < cf))
    small_designs

let test_fresh_jobs_determinism () =
  (* the --no-incremental escape hatch keeps the scheduler-independence
     guarantee of the original fresh-solver engine *)
  let s1 = solve ~incremental:false ~jobs:1 (Designs.Alu.problem ()) in
  let s4 = solve ~incremental:false ~jobs:4 (Designs.Alu.problem ()) in
  Alcotest.(check bool) "fresh bindings identical across schedules" true
    (s1.Synth.Engine.per_instr = s4.Synth.Engine.per_instr
    && s1.Synth.Engine.shared = s4.Synth.Engine.shared
    && s1.Synth.Engine.bindings = s4.Synth.Engine.bindings)

let test_rv32_incremental_verifies () =
  (* the large-design guarantee: whatever model the incremental sessions
     steer the search to, the completed core passes refinement checking *)
  let problem = Designs.Riscv_single.problem Isa.Rv32.RV32I in
  let s = solve ~incremental:true ~jobs:4 problem in
  let vproblem =
    { problem with Synth.Engine.design = s.Synth.Engine.completed }
  in
  let verdicts =
    Synth.Engine.(
      verify
        ~options:(default_options |> with_jobs 4 |> with_incremental true)
        vproblem)
  in
  List.iter
    (fun (iname, v) ->
      Alcotest.(check bool) (iname ^ " verified") true
        (v = Synth.Engine.Verified))
    verdicts

let test_verify_modes_agree () =
  let problem = Designs.Accumulator.problem () in
  let problem =
    { problem with
      Synth.Engine.design = Designs.Accumulator.reference_design () }
  in
  let verify incremental =
    Synth.Engine.(
      verify ~options:(default_options |> with_incremental incremental) problem)
  in
  let vi = verify true in
  let vf = verify false in
  Alcotest.(check int) "same number of verdicts" (List.length vf)
    (List.length vi);
  List.iter2
    (fun (n1, d1) (n2, d2) ->
      Alcotest.(check string) "instruction order preserved" n1 n2;
      let same =
        match (d1, d2) with
        | Synth.Engine.Verified, Synth.Engine.Verified
        | Synth.Engine.Violated _, Synth.Engine.Violated _
        | Synth.Engine.Inconclusive, Synth.Engine.Inconclusive ->
            true
        | _ -> false
      in
      Alcotest.(check bool) ("verdict for " ^ n1) true same)
    vi vf

(* total clauses blasted over one [Engine.verify] call, read from the
   per-check histogram *)
let verify_clauses ~incremental problem =
  Obs.enable_metrics ();
  Obs.reset_metrics ();
  Fun.protect ~finally:Obs.disable_metrics @@ fun () ->
  ignore
    (Synth.Engine.(
       verify ~options:(default_options |> with_incremental incremental))
       problem);
  List.fold_left
    (fun acc (m : Obs.metric) ->
      if m.Obs.metric_name = "solver.check.clauses" then acc + m.Obs.sum
      else acc)
    0 (Obs.metrics ())

(* A compare-and-swap register pair whose two instructions decode on
   [b < a] and [a <= b]: no conjunct of either violation is a field or
   literal pin, so both are the same unpinned datapath formula. *)
let cmpswap_problem () =
  let s = Ila.Spec.create "cmpswap" in
  let a = Ila.Spec.new_bv_state s "a" 8 in
  let b = Ila.Spec.new_bv_state s "b" 8 in
  let open Ila.Expr in
  let swap = Ila.Spec.new_instr s "SWAP" in
  Ila.Spec.set_decode swap (b < a);
  Ila.Spec.set_update swap "a" b;
  Ila.Spec.set_update swap "b" a;
  let keep = Ila.Spec.new_instr s "KEEP" in
  Ila.Spec.set_decode keep (a <= b);
  let design =
    let open Hdl.Builder in
    let c = create "cmpswap" in
    let ra = register c "a" 8 and rb = register c "b" 8 in
    let sw = wire c "sw" (rb <: ra) in
    set_register c ra (mux sw rb ra);
    set_register c rb (mux sw ra rb);
    finalize c
  in
  let reg name =
    Ila.Absfun.mapping ~spec:name ~dp:name ~ty:Ila.Absfun.Dregister ~reads:[ 1 ]
      ~writes:[ 1 ] ()
  in
  { Synth.Engine.design; spec = s; af = Ila.Absfun.make ~cycles:1 [ reg "a"; reg "b" ] }

let test_verify_sharing_rule () =
  (* every ALU instruction pins its opcode, so each gets its own solver *)
  let alu =
    { (Designs.Alu.problem ()) with
      Synth.Engine.design = Designs.Alu.reference_design () }
  in
  let si = verify_clauses ~incremental:true alu in
  let sf = verify_clauses ~incremental:false alu in
  Alcotest.(check int) "pinned: one-shot solvers either way" sf si;
  (* the compare-and-swap pair pins nothing, so its instructions share the
     worker's session *)
  let unpinned = cmpswap_problem () in
  List.iter
    (fun (iname, v) ->
      Alcotest.(check string) (iname ^ " verified") "verified"
        (Synth.Engine.verdict_name v))
    (Synth.Engine.verify unpinned);
  let si = verify_clauses ~incremental:true unpinned in
  let sf = verify_clauses ~incremental:false unpinned in
  Alcotest.(check bool)
    (Printf.sprintf "unpinned: shared %d < %d one-shot clauses" si sf)
    true (si < sf)

let () =
  Alcotest.run "incremental"
    [ ("equivalence",
       [ Alcotest.test_case "small designs: identical bindings" `Quick
           test_same_bindings_small;
         Alcotest.test_case "strictly fewer blasted clauses" `Quick
           test_fewer_clauses;
         Alcotest.test_case "fresh mode stays schedule-deterministic" `Quick
           test_fresh_jobs_determinism;
         Alcotest.test_case "rv32 incremental solution verifies" `Quick
           test_rv32_incremental_verifies;
         Alcotest.test_case "verify verdicts agree across modes" `Quick
           test_verify_modes_agree;
         Alcotest.test_case "verify shares sessions only when unpinned"
           `Quick test_verify_sharing_rule ]) ]
