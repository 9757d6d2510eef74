(* Parallel scheduler equivalence: the jobs=4 worker-pool schedule must be
   observationally identical to the serial jobs=1 schedule — same
   per-instruction constants, same shared-hole encodings, same hole
   bindings — on both engine paths:

   - the RV32I decoder (the examples/riscv_decoder problem): independent
     per-instruction CEGIS loops, fanned out over the Pool;
   - the GCD accelerator (the examples/gcd_accelerator problem): Shared
     FSM-encoding holes force the serial joint fallback, which must simply
     ignore [jobs].

   Determinism rests on structural term ordering (Term.struct_compare) and
   index-ordered merging; these tests are the regression net for both.
   Every schedule runs every task, so the engine statistics (all but the
   wall clock) are identical too, on a failing sketch as well. *)

let synthesize ~jobs problem =
  Synth.Engine.(synthesize ~options:(default_options |> with_jobs jobs) problem)

let solve ~jobs problem =
  match synthesize ~jobs problem with
  | Synth.Engine.Solved s -> s
  | _ -> Alcotest.fail "synthesis failed"

(* Every field but [wall_seconds], printed so a mismatch names it. *)
let show_stats (st : Synth.Engine.stats) =
  Synth.Engine.(
    Printf.sprintf
      "iterations %d queries %d conflicts %d blasted_vars %d \
       blasted_clauses %d trivial_unsats %d retried_queries %d \
       degraded_queries %d validation_failures %d task_retries %d \
       sat_restarts %d sat_learnt_kept %d sat_learnt_deleted %d"
      st.iterations st.queries st.conflicts st.blasted_vars
      st.blasted_clauses st.trivial_unsats st.retried_queries
      st.degraded_queries st.validation_failures st.task_retries
      st.sat_restarts st.sat_learnt_kept st.sat_learnt_deleted)

let check_same_stats name st1 st4 =
  Alcotest.(check string) (name ^ ": stats identical") (show_stats st1)
    (show_stats st4);
  Alcotest.(check bool) (name ^ ": every stats field but the wall clock") true
    ({ st1 with Synth.Engine.wall_seconds = 0.0 }
    = { st4 with Synth.Engine.wall_seconds = 0.0 })

let check_same name mk =
  let s1 = solve ~jobs:1 (mk ()) in
  let s4 = solve ~jobs:4 (mk ()) in
  check_same_stats name s1.Synth.Engine.stats s4.Synth.Engine.stats;
  Alcotest.(check bool) (name ^ ": per_instr identical") true
    (s1.Synth.Engine.per_instr = s4.Synth.Engine.per_instr);
  Alcotest.(check bool) (name ^ ": shared identical") true
    (s1.Synth.Engine.shared = s4.Synth.Engine.shared);
  Alcotest.(check bool) (name ^ ": bindings identical") true
    (s1.Synth.Engine.bindings = s4.Synth.Engine.bindings)

let test_riscv_decoder () =
  check_same "rv32i" (fun () -> Designs.Riscv_single.problem Isa.Rv32.RV32I)

let test_gcd () = check_same "gcd" (fun () -> Designs.Gcd.problem ())

(* The ALU spec with an instruction the datapath cannot implement,
   regs[dest] := rs1 + 1, placed first: the lowest-indexed failure.  It
   decodes on the otherwise unused opcode 0, so the preconditions stay
   mutually exclusive and the run passes the independence gate. *)
let alu_with_inc_first () =
  let s = Ila.Spec.create "alu_inc_first" in
  let op = Ila.Spec.new_bv_input s "op" 2 in
  let dest = Ila.Spec.new_bv_input s "dest" 2 in
  let src1 = Ila.Spec.new_bv_input s "src1" 2 in
  let src2 = Ila.Spec.new_bv_input s "src2" 2 in
  let _ = Ila.Spec.new_mem_state s "regs" ~addr_width:2 ~data_width:8 in
  let open Ila.Expr in
  let rs1 = load "regs" src1 and rs2 = load "regs" src2 in
  List.iter
    (fun (name, code, rhs) ->
      let i = Ila.Spec.new_instr s name in
      Ila.Spec.set_decode i (op == of_int ~width:2 code);
      Ila.Spec.set_mem_update i "regs" [ (dest, rhs) ])
    [ ("INC", 0, rs1 + of_int ~width:8 1);
      ("ADD", 1, rs1 + rs2);
      ("SUB", 2, rs1 - rs2);
      ("XOR", 3, rs1 lxor rs2) ];
  { Synth.Engine.design = Designs.Alu.sketch (); spec = s;
    af = Designs.Alu.abstraction () }

let test_failing_sketch () =
  let unrealizable_inc jobs =
    match synthesize ~jobs (alu_with_inc_first ()) with
    | Synth.Engine.Unrealizable { instr = Some "INC"; stats } -> stats
    | o ->
        Alcotest.failf "jobs=%d: expected Unrealizable (Some \"INC\"), got %s"
          jobs (Synth.Engine.outcome_name o)
  in
  check_same_stats "alu with INC first" (unrealizable_inc 1)
    (unrealizable_inc 4)

let test_verify_jobs () =
  (* verification fan-out: verdict list keeps instruction order and every
     verdict matches the serial run *)
  let problem = Designs.Accumulator.problem () in
  let problem =
    { problem with
      Synth.Engine.design = Designs.Accumulator.reference_design () }
  in
  let verify jobs =
    Synth.Engine.(verify ~options:(default_options |> with_jobs jobs) problem)
  in
  let v1 = verify 1 in
  let v4 = verify 4 in
  Alcotest.(check int) "same number of verdicts" (List.length v1)
    (List.length v4);
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
    v1 v4

let test_jobs_validation () =
  (match Synth.Engine.(default_options |> with_jobs 0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "with_jobs 0 must be rejected");
  match
    Synth.Engine.synthesize
      ~options:
        {
          Synth.Engine.default_options with
          Synth.Engine.mode = Synth.Engine.Per_instruction;
          jobs = -2;
        }
      (Designs.Accumulator.problem ())
  with
  | exception Synth.Engine.Engine_error _ -> ()
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "synthesize must reject jobs < 1"

let () =
  Alcotest.run "parallel"
    [ ("equivalence",
       [ Alcotest.test_case "riscv decoder, independent path" `Quick
           test_riscv_decoder;
         Alcotest.test_case "gcd accelerator, joint fallback" `Quick test_gcd;
         Alcotest.test_case "failing sketch, same blame and stats" `Quick
           test_failing_sketch;
         Alcotest.test_case "verify fans out identically" `Quick
           test_verify_jobs;
         Alcotest.test_case "jobs validation" `Quick test_jobs_validation ]) ]
