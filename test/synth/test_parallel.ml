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
   index-ordered merging; these tests are the regression net for both. *)

let solve ~jobs problem =
  let options = Synth.Engine.(default_options |> with_jobs jobs) in
  match Synth.Engine.synthesize ~options problem with
  | Synth.Engine.Solved s -> s
  | _ -> Alcotest.fail "synthesis failed"

let check_same name mk =
  let s1 = solve ~jobs:1 (mk ()) in
  let s4 = solve ~jobs:4 (mk ()) in
  Alcotest.(check bool) (name ^ ": per_instr identical") true
    (s1.Synth.Engine.per_instr = s4.Synth.Engine.per_instr);
  Alcotest.(check bool) (name ^ ": shared identical") true
    (s1.Synth.Engine.shared = s4.Synth.Engine.shared);
  Alcotest.(check bool) (name ^ ": bindings identical") true
    (s1.Synth.Engine.bindings = s4.Synth.Engine.bindings)

let test_riscv_decoder () =
  check_same "rv32i" (fun () -> Designs.Riscv_single.problem Isa.Rv32.RV32I)

let test_gcd () = check_same "gcd" (fun () -> Designs.Gcd.problem ())

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
         Alcotest.test_case "verify fans out identically" `Quick
           test_verify_jobs;
         Alcotest.test_case "jobs validation" `Quick test_jobs_validation ]) ]
