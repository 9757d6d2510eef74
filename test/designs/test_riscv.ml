(* End-to-end tests for the RISC-V cores (paper §4.1):

   - control logic synthesis succeeds for the single-cycle and two-stage
     sketches on all ISA variants;
   - the completed (synthesized) cores and the hand-written reference cores
     agree with the ISS oracle on random programs at the architectural
     level (registers + data memory), and the oracle rejects a core that
     drops its stores;
   - the completed single-cycle cores pass Engine.verify for every
     instruction;
   - the synthesized LW control matches the paper's Fig. 7 shape. *)

let bv = Alcotest.testable Bitvec.pp Bitvec.equal

let solve problem =
  match Synth.Engine.synthesize problem with
  | Synth.Engine.Solved s -> s
  | Synth.Engine.Timeout _ -> Alcotest.fail "synthesis timed out"
  | Synth.Engine.Unrealizable { instr; _ } ->
      Alcotest.failf "unrealizable (%s)" (Option.value instr ~default:"?")
  | Synth.Engine.Union_failed { diagnostic; _ } ->
      Alcotest.failf "union failed: %s" diagnostic
  | Synth.Engine.Not_independent _ -> Alcotest.fail "not independent" 

(* Co-simulate a core against the ISS on one random program per seed
   (Testbench.cosim: final registers and data memory must agree). *)
let cosim ?(seeds = [ 1; 2; 3; 4; 5 ]) design variant =
  List.iter
    (fun seed ->
      match
        Designs.Testbench.cosim design variant (Random.State.make [| seed; 99 |])
      with
      | Ok () -> ()
      | Error m -> Alcotest.failf "seed %d: %s" seed m)
    seeds

(* {1 Single-cycle core} *)

let test_single_reference_cosim () =
  cosim (Designs.Riscv_single.reference_design Isa.Rv32.RV32I_Zbkc)
    Isa.Rv32.RV32I_Zbkc

(* Co-simulation samples programs; [Engine.verify] then proves every
   instruction of the completed core against the spec, so a binding that
   only happens to pass the sampled programs is still caught. *)
let test_single_synthesis variant () =
  let problem = Designs.Riscv_single.problem variant in
  let solved = solve problem in
  cosim ~seeds:[ 11; 12; 13 ] solved.Synth.Engine.completed variant;
  List.iter
    (fun (instr, verdict) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s verified" instr)
        true
        (verdict = Synth.Engine.Verified))
    (Synth.Engine.verify
       { problem with Synth.Engine.design = solved.Synth.Engine.completed })

let test_fig7_lw_shape () =
  let solved = solve (Designs.Riscv_single.problem Isa.Rv32.RV32I) in
  let lw = List.assoc "LW" solved.Synth.Engine.per_instr in
  let check name expect =
    Alcotest.check bv ("LW " ^ name)
      (Bitvec.of_int ~width:(Bitvec.width (List.assoc name lw)) expect)
      (List.assoc name lw)
  in
  (* the essential Fig. 7 signals; mask_mode 2 and 3 both mean "word" in
     this datapath, so it is checked separately *)
  check "mem_read" 1;
  check "reg_write" 1;
  check "mem_write" 0;
  check "jump" 0;
  check "branch_en" 0;
  check "wb_sel" 1;
  let mask = Bitvec.to_int_exn (List.assoc "mask_mode" lw) in
  Alcotest.(check bool) "LW mask is word" true (mask = 2 || mask = 3)

(* The oracle must see what registers alone miss: a core that never
   stores leaves every register right and data memory wrong.  The seeds
   are `owl cosim`'s ([| seed; 4096 |]); every random program stores on
   every path (checked below). *)
let test_oracle_catches_dropped_stores () =
  let variant = Isa.Rv32.RV32I in
  let bindings =
    ("mem_write", Oyster.Ast.Const (Bitvec.zero 1))
    :: List.remove_assoc "mem_write"
         (Designs.Riscv_single.reference_bindings variant)
  in
  let design =
    Oyster.Ast.fill_holes (Designs.Riscv_single.sketch variant) bindings
  in
  List.iter
    (fun seed ->
      match
        Designs.Testbench.cosim design variant
          (Random.State.make [| seed; 4096 |])
      with
      | Ok () -> Alcotest.failf "seed %d: a store-less core passed" seed
      | Error _ -> ())
    [ 1; 2; 3; 4; 5 ]

(* Every random program stores on every path: the instruction at index
   [len] is a store, and no forward branch jumps past it.  The salts are
   [cosim]'s (99) and `owl cosim`'s (4096). *)
let test_programs_store () =
  let len = 40 in
  List.iter
    (fun salt ->
      List.iter
        (fun seed ->
          let what = Printf.sprintf "salt %d seed %d" salt seed in
          let program =
            Array.of_list
              (Designs.Testbench.random_program
                 (Random.State.make [| seed; salt |])
                 Isa.Rv32.RV32I ~len)
          in
          Alcotest.(check int) (what ^ ": store at index len") Isa.Rv32.op_store
            (Isa.Rv32.get_opcode program.(len));
          Array.iteri
            (fun i w ->
              if Isa.Rv32.get_opcode w = Isa.Rv32.op_branch then begin
                let target = i + (Bitvec.to_int_exn (Isa.Rv32.imm_b w) / 4) in
                if target > len then
                  Alcotest.failf "%s: branch at %d skips to %d" what i target
              end)
            program)
        [ 1; 2; 3; 4; 5 ])
    [ 99; 4096 ]

(* {1 Two-stage core} *)

let test_two_stage_reference_cosim () =
  cosim (Designs.Riscv_two_stage.reference_design Isa.Rv32.RV32I_Zbkc)
    Isa.Rv32.RV32I_Zbkc

let test_two_stage_synthesis () =
  let problem = Designs.Riscv_two_stage.problem Isa.Rv32.RV32I in
  let solved = solve problem in
  cosim ~seeds:[ 21; 22; 23 ] solved.Synth.Engine.completed Isa.Rv32.RV32I;
  List.iter
    (fun (instr, verdict) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s verified" instr)
        true
        (verdict = Synth.Engine.Verified))
    (Synth.Engine.verify
       { problem with Synth.Engine.design = solved.Synth.Engine.completed })

(* Back-to-back dependent instructions exercise the write-back forwarding in
   the two-stage pipeline. *)
let test_two_stage_hazards () =
  let design = Designs.Riscv_two_stage.reference_design Isa.Rv32.RV32I in
  let e m = Isa.Rv32.encode Isa.Rv32.RV32I m in
  let program =
    [ e "addi" ~rd:1 ~rs1:0 ~imm:7 ();
      e "addi" ~rd:1 ~rs1:1 ~imm:8 ();  (* RAW on x1, distance 1 *)
      e "add" ~rd:2 ~rs1:1 ~rs2:1 ();  (* x2 = 30 *)
      e "sub" ~rd:3 ~rs1:2 ~rs2:1 ();  (* x3 = 15 *)
      e "jal" ~rd:0 ~imm:0 () ]
  in
  let r =
    Designs.Testbench.run_core design ~program ~dmem_init:[]
      ~halt_pc:(4 * (List.length program - 1))
      ~max_cycles:100
  in
  let reg i = Designs.Testbench.core_reg r.Designs.Testbench.state i in
  Alcotest.check bv "x1" (Bitvec.of_int ~width:32 15) (reg 1);
  Alcotest.check bv "x2" (Bitvec.of_int ~width:32 30) (reg 2);
  Alcotest.check bv "x3" (Bitvec.of_int ~width:32 15) (reg 3)

(* {1 Sketch sizes grow with the ISA (Table 1 sanity)} *)

let test_sketch_sizes () =
  let loc v = Oyster.Printer.loc (Designs.Riscv_single.sketch v) in
  let a = loc Isa.Rv32.RV32I
  and b = loc Isa.Rv32.RV32I_Zbkb
  and c = loc Isa.Rv32.RV32I_Zbkc in
  Alcotest.(check bool)
    (Printf.sprintf "sizes increase (%d < %d < %d)" a b c)
    true
    (a < b && b < c)

let () =
  Alcotest.run "riscv-cores"
    [ ("single-cycle",
       [ Alcotest.test_case "reference vs ISS" `Quick test_single_reference_cosim;
         Alcotest.test_case "synthesized RV32I vs ISS" `Quick
           (test_single_synthesis Isa.Rv32.RV32I);
         Alcotest.test_case "synthesized +Zbkb vs ISS" `Quick
           (test_single_synthesis Isa.Rv32.RV32I_Zbkb);
         Alcotest.test_case "synthesized +Zbkc vs ISS" `Quick
           (test_single_synthesis Isa.Rv32.RV32I_Zbkc);
         Alcotest.test_case "synthesized +M vs ISS" `Quick
           (test_single_synthesis Isa.Rv32.RV32I_M);
         Alcotest.test_case "Fig. 7 LW control" `Quick test_fig7_lw_shape;
         Alcotest.test_case "oracle catches dropped stores" `Quick
           test_oracle_catches_dropped_stores;
         Alcotest.test_case "random programs always store" `Quick
           test_programs_store ]);
      ("two-stage",
       [ Alcotest.test_case "reference vs ISS" `Quick test_two_stage_reference_cosim;
         Alcotest.test_case "synthesized vs ISS" `Quick test_two_stage_synthesis;
         Alcotest.test_case "forwarding hazards" `Quick test_two_stage_hazards ]);
      ("sketches", [ Alcotest.test_case "sizes grow" `Quick test_sketch_sizes ]) ]
