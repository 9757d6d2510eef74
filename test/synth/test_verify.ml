(* Tests for Engine.verify — bounded refinement checking of completed
   designs — including mutation testing: corrupting the hand-written
   control must make verification fail on exactly the affected
   instructions.  This establishes that the verifier has teeth. *)

let verify_all problem =
  List.for_all
    (fun (_, v) -> v = Synth.Engine.Verified)
    (Synth.Engine.verify problem)

let test_references_verify () =
  List.iter
    (fun (name, problem) ->
      Alcotest.(check bool) (name ^ " verifies") true (verify_all problem))
    [ ("alu",
       { (Designs.Alu.problem ()) with
         Synth.Engine.design = Designs.Alu.reference_design () });
      ("accumulator",
       { (Designs.Accumulator.problem ()) with
         Synth.Engine.design = Designs.Accumulator.reference_design () });
      ("gcd",
       { (Designs.Gcd.problem ()) with
         Synth.Engine.design = Designs.Gcd.reference_design () });
      ("aes",
       { (Designs.Aes.problem ()) with
         Synth.Engine.design = Designs.Aes.reference_design () }) ]

let test_m_reference_verifies () =
  (* The M-extension reference is the stress test for field refinement:
     without substituting the opcode/funct fields pinned by the
     precondition into the fetched instruction word, the decode keeps all
     eight 64-bit multiplier/divider cones live under one mux and the
     query does not finish in any reasonable time.  With refinement the
     selection tree folds before bit-blasting and all 45 instructions
     verify in well under a minute. *)
  let problem =
    { (Designs.Riscv_single.problem Isa.Rv32.RV32I_M) with
      Synth.Engine.design = Designs.Riscv_single.reference_design Isa.Rv32.RV32I_M
    }
  in
  let results = Synth.Engine.verify problem in
  Alcotest.(check int) "45 instructions" 45 (List.length results);
  Alcotest.(check bool) "all verified" true
    (List.for_all (fun (_, v) -> v = Synth.Engine.Verified) results)

let test_synthesized_verifies () =
  (* what the engine produces must pass the independent verification path *)
  match Synth.Engine.synthesize (Designs.Alu.problem ()) with
  | Synth.Engine.Solved s ->
      Alcotest.(check bool) "synthesized alu verifies" true
        (verify_all
           { (Designs.Alu.problem ()) with
             Synth.Engine.design = s.Synth.Engine.completed })
  | _ -> Alcotest.fail "synthesis failed"

(* {1 Mutation testing} *)

let verdicts problem =
  List.map
    (fun (i, v) -> (i, v = Synth.Engine.Verified))
    (Synth.Engine.verify problem)

let test_mutated_alu_control () =
  (* flip SUB's ALU select to XOR: SUB must fail, ADD and XOR must pass *)
  let bad_bindings =
    List.map
      (fun (h, e) ->
        if h = "alu_sel" then
          ( h,
            (* sel := op == 2 ? 3 : op  — wrong for SUB only *)
            Oyster.Ast.Ite
              ( Oyster.Ast.Binop
                  (Oyster.Ast.Eq, Oyster.Ast.Var "op",
                   Oyster.Ast.Const (Bitvec.of_int ~width:2 2)),
                Oyster.Ast.Const (Bitvec.of_int ~width:2 3),
                Oyster.Ast.Var "op" ) )
        else (h, e))
      (Designs.Alu.reference_bindings ())
  in
  let design = Oyster.Ast.fill_holes (Designs.Alu.sketch ()) bad_bindings in
  let problem = { (Designs.Alu.problem ()) with Synth.Engine.design = design } in
  Alcotest.(check (list (pair string bool)))
    "only SUB violated"
    [ ("ADD", true); ("SUB", false); ("XOR", true) ]
    (verdicts problem)

let test_mutated_write_enable () =
  (* force the ALU machine's write enable off: every instruction fails *)
  let bad_bindings =
    List.map
      (fun (h, e) ->
        if h = "reg_we" then (h, Oyster.Ast.Const (Bitvec.zero 1)) else (h, e))
      (Designs.Alu.reference_bindings ())
  in
  let design = Oyster.Ast.fill_holes (Designs.Alu.sketch ()) bad_bindings in
  let problem = { (Designs.Alu.problem ()) with Synth.Engine.design = design } in
  Alcotest.(check (list (pair string bool)))
    "all violated"
    [ ("ADD", false); ("SUB", false); ("XOR", false) ]
    (verdicts problem)

let test_mutated_gcd_encoding () =
  (* swap the sub-a / sub-b encodings without swapping the branches *)
  let bad_bindings =
    List.map
      (fun (h, e) ->
        match h with
        | "enc_suba" -> (h, Oyster.Ast.Const (Bitvec.of_int ~width:3 2))
        | "enc_subb" -> (h, Oyster.Ast.Const (Bitvec.of_int ~width:3 1))
        | _ -> (h, e))
      (Designs.Gcd.reference_bindings ())
  in
  let design = Oyster.Ast.fill_holes (Designs.Gcd.sketch ()) bad_bindings in
  let problem = { (Designs.Gcd.problem ()) with Synth.Engine.design = design } in
  let bad =
    List.filter_map (fun (i, ok) -> if ok then None else Some i) (verdicts problem)
  in
  Alcotest.(check (list string)) "both steps violated" [ "STEP_A"; "STEP_B" ] bad

let test_holes_rejected () =
  match Synth.Engine.verify (Designs.Alu.problem ()) with
  | exception Synth.Engine.Engine_error _ -> ()
  | _ -> Alcotest.fail "expected rejection of a design with holes"

let test_violation_model () =
  (* the violation verdict carries a model naming a concrete counterexample *)
  let bad_bindings =
    List.map
      (fun (h, e) ->
        if h = "reg_we" then (h, Oyster.Ast.Const (Bitvec.zero 1)) else (h, e))
      (Designs.Alu.reference_bindings ())
  in
  let design = Oyster.Ast.fill_holes (Designs.Alu.sketch ()) bad_bindings in
  let problem = { (Designs.Alu.problem ()) with Synth.Engine.design = design } in
  match List.assoc "ADD" (Synth.Engine.verify problem) with
  | Synth.Engine.Violated m ->
      (* the counterexample includes memory read values for the regfile *)
      Alcotest.(check bool) "model has reads" true (m.Solver.read_values <> [])
  | _ -> Alcotest.fail "expected a violation with a model"

(* [instr]'s unrefined violation on [problem]'s design. *)
let violation_of (problem : Synth.Engine.problem) instr =
  let trace =
    Oyster.Symbolic.eval
      ~prefix:(Synth.Engine.problem_prefix problem)
      problem.Synth.Engine.design ~cycles:problem.Synth.Engine.af.Ila.Absfun.cycles
  in
  Ila.Conditions.violation
    (List.find
       (fun c -> c.Ila.Conditions.instr_name = instr)
       (Ila.Conditions.compile problem.Synth.Engine.spec problem.Synth.Engine.af
          trace))

let satisfies m t = Bitvec.is_ones (Term.eval (Solver.model_env m) t)

(* A corrupted model must not become the answer.  The refined query's
   model lacks the pinned instruction-word bits; the patch writes them
   back, and [validate_models] rejects a corrupted model before that.  At
   one job ADD's refined check is solver check 1. *)
let test_violation_model_validated () =
  let bad_bindings =
    List.map
      (fun (h, e) ->
        if h = "reg_we" then (h, Oyster.Ast.Const (Bitvec.zero 1)) else (h, e))
      (Designs.Alu.reference_bindings ())
  in
  let design = Oyster.Ast.fill_holes (Designs.Alu.sketch ()) bad_bindings in
  let problem = { (Designs.Alu.problem ()) with Synth.Engine.design = design } in
  let options =
    Synth.Engine.(default_options |> with_jobs 1 |> with_validate_models true)
  in
  Fault.install (Fault.parse "corrupt@1");
  let verdicts =
    Fun.protect ~finally:Fault.clear (fun () ->
        let v = Synth.Engine.verify ~options problem in
        Alcotest.(check int) "corruption fired" 1 (Fault.fired ());
        v)
  in
  match List.assoc "ADD" verdicts with
  | Synth.Engine.Violated m ->
      Alcotest.(check bool) "model violates ADD" true
        (satisfies m (violation_of problem "ADD"))
  | _ -> Alcotest.fail "expected a violation with a model"

(* A core that never stores: every store instruction's refined check is
   Sat, and the reported model, with the pinned opcode and funct3 bits of
   the fetched word patched back in, satisfies the unrefined violation. *)
let test_dropped_store_model () =
  let variant = Isa.Rv32.RV32I in
  let bindings =
    ("mem_write", Oyster.Ast.Const (Bitvec.zero 1))
    :: List.remove_assoc "mem_write" (Designs.Riscv_single.reference_bindings variant)
  in
  let problem =
    { (Designs.Riscv_single.problem variant) with
      Synth.Engine.design =
        Oyster.Ast.fill_holes (Designs.Riscv_single.sketch variant) bindings }
  in
  let verdicts = Synth.Engine.verify problem in
  List.iter
    (fun instr ->
      match List.assoc instr verdicts with
      | Synth.Engine.Violated m ->
          Alcotest.(check bool) (instr ^ " model violates") true
            (satisfies m (violation_of problem instr))
      | v -> Alcotest.failf "%s: expected a violation, got %s" instr
               (Synth.Engine.verdict_name v))
    [ "SB"; "SH"; "SW" ]

let () =
  Alcotest.run "verify"
    [ ("verify",
       [ Alcotest.test_case "references verify" `Quick test_references_verify;
         Alcotest.test_case "M reference verifies" `Quick test_m_reference_verifies;
         Alcotest.test_case "synthesized verifies" `Quick test_synthesized_verifies;
         Alcotest.test_case "holes rejected" `Quick test_holes_rejected ]);
      ("mutation",
       [ Alcotest.test_case "wrong ALU select" `Quick test_mutated_alu_control;
         Alcotest.test_case "write enable stuck" `Quick test_mutated_write_enable;
         Alcotest.test_case "swapped FSM encodings" `Quick test_mutated_gcd_encoding;
         Alcotest.test_case "violation model" `Quick test_violation_model;
         Alcotest.test_case "violation model validated" `Quick
           test_violation_model_validated;
         Alcotest.test_case "dropped-store model" `Quick test_dropped_store_model ]) ]
