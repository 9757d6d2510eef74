(* Single-cycle embedded-class RISC-V core sketch (paper §4.1.1).

   Control points left as holes, each a function of the decoded fields
   (opcode, funct3, funct7, rs2slot):

     imm_sel   3  immediate format select (I/S/B/U/J)
     alu_op    5  ALU operation (see Riscv_common)
     asel      2  ALU operand A: 0 rs1, 1 pc, 2 zero
     bsel      1  ALU operand B: 0 rs2, 1 immediate
     reg_write 1  register-file write enable
     wb_sel    2  write-back value: 0 alu, 1 load result, 2 pc+4
     mem_read  1  data-memory read strobe (gates the load path)
     mem_write 1  data-memory write enable
     mask_mode 2  access size: 0 byte, 1 half, 2 word
     mem_sign_ext 1  sign-extend sub-word loads
     branch_en 1  conditional branch
     branch_op 3  comparator operation (funct3 encoding)
     jump      1  unconditional jump (JAL/JALR)
     jalr_sel  1  branch/jump target base: 0 pc+imm, 1 (rs1+imm)&~1

   The abstraction function is the paper's: everything reads and writes at
   time step 1, cycles: 1. *)

open Hdl.Builder

let variant_tag = function
  | Isa.Rv32.RV32I -> "rv32i"
  | Isa.Rv32.RV32I_Zbkb -> "rv32i_zbkb"
  | Isa.Rv32.RV32I_Zbkc -> "rv32i_zbkc"
  | Isa.Rv32.RV32I_M -> "rv32i_m"

let sketch ?(extra_alu_ops = []) variant =
  let c = create ("rv32_single_" ^ variant_tag variant) in
  let pc = register c "pc" 32 in
  let i_mem = memory c "i_mem" ~addr_width:30 ~data_width:32 in
  let d_mem = memory c "d_mem" ~addr_width:30 ~data_width:32 in
  let rf = memory c "rf" ~addr_width:5 ~data_width:32 in
  let d = Riscv_common.decode_fields c (read i_mem (bits ~high:31 ~low:2 pc)) in
  let deps = [ d.Riscv_common.opcode; d.Riscv_common.funct3; d.Riscv_common.funct7; d.Riscv_common.rs2slot ] in
  let h name w = hole c name w ~deps in
  let imm_sel = h "imm_sel" 3 in
  let alu_op = h "alu_op" 5 in
  let asel = h "asel" 2 in
  let bsel = h "bsel" 1 in
  let reg_write = h "reg_write" 1 in
  let wb_sel = h "wb_sel" 2 in
  let mem_read = h "mem_read" 1 in
  let mem_write = h "mem_write" 1 in
  let mask_mode = h "mask_mode" 2 in
  let mem_sign_ext = h "mem_sign_ext" 1 in
  let branch_en = h "branch_en" 1 in
  let branch_op = h "branch_op" 3 in
  let jump = h "jump" 1 in
  let jalr_sel = h "jalr_sel" 1 in
  (* operand fetch *)
  let rs1_val = wire c "rs1_val" (read rf d.Riscv_common.rs1) in
  let rs2_val = wire c "rs2_val" (read rf d.Riscv_common.rs2) in
  let imm = wire c "imm" (Riscv_common.immediate d imm_sel) in
  (* ALU *)
  let alu_a = wire c "alu_a" (select asel [ (0, rs1_val); (1, pc) ] (const 32 0)) in
  let alu_b = wire c "alu_b" (mux bsel imm rs2_val) in
  let features = Riscv_common.features_of_variant variant in
  let alu_out =
    wire c "alu_out"
      (Riscv_common.alu ~features ~extra:extra_alu_ops alu_op alu_a alu_b ())
  in
  (* data memory *)
  let mem_word = wire c "mem_word" (read d_mem (bits ~high:31 ~low:2 alu_out)) in
  let load_raw =
    Riscv_common.load_value ~mem_word ~offset:alu_out ~mask_mode
      ~sign_ext:mem_sign_ext
  in
  let load_result = wire c "load_result" (mux mem_read load_raw (const 32 0)) in
  let store_word =
    wire c "store_word"
      (Riscv_common.store_value ~mem_word ~offset:alu_out ~mask_mode ~data:rs2_val)
  in
  write c d_mem ~addr:(bits ~high:31 ~low:2 alu_out) ~data:store_word
    ~enable:mem_write;
  (* branches and jumps *)
  let cmp = wire c "cmp" (Riscv_common.branch_compare branch_op rs1_val rs2_val) in
  let taken = wire c "taken" (jump |: (branch_en &: cmp)) in
  let target =
    wire c "target"
      (mux jalr_sel
         ((rs1_val +: imm) &: bnot (const 32 1))
         (pc +: imm))
  in
  let pc4 = wire c "pc4" (pc +: const 32 4) in
  set_register c pc (mux taken target pc4);
  (* write back *)
  let wb = wire c "wb" (select wb_sel [ (0, alu_out); (1, load_result) ] pc4) in
  write c rf ~addr:d.Riscv_common.rd ~data:wb
    ~enable:(reg_write &: (d.Riscv_common.rd <>: const 5 0));
  output c "pc_out" pc;
  finalize c

let abstraction () =
  Ila.Absfun.make ~cycles:1
    [ Ila.Absfun.mapping ~spec:"pc" ~dp:"pc" ~ty:Ila.Absfun.Dregister ~reads:[ 1 ]
        ~writes:[ 1 ] ();
      Ila.Absfun.mapping ~spec:"GPR" ~dp:"rf" ~ty:Ila.Absfun.Dmemory ~reads:[ 1 ]
        ~writes:[ 1 ] ();
      Ila.Absfun.mapping ~spec:"mem" ~port:"fetch" ~dp:"i_mem" ~ty:Ila.Absfun.Dmemory
        ~reads:[ 1 ] ();
      Ila.Absfun.mapping ~spec:"mem" ~dp:"d_mem" ~ty:Ila.Absfun.Dmemory ~reads:[ 1 ]
        ~writes:[ 1 ] () ]

let problem variant =
  { Synth.Engine.design = sketch variant;
    spec = Isa.Rv_spec.spec variant;
    af = abstraction () }

(* {1 Hand-written reference control}

   The baseline decoder an experienced designer would write, used for the
   Table 2 size comparison and for co-simulation cross-checks. *)

let reference_bindings variant =
  let v n = Oyster.Ast.Var n in
  let cst w n = Oyster.Ast.Const (Bitvec.of_int ~width:w n) in
  let eq a b = Oyster.Ast.Binop (Oyster.Ast.Eq, a, b) in
  let ( &&& ) a b = Oyster.Ast.Binop (Oyster.Ast.And, a, b) in
  let ( ||| ) a b = Oyster.Ast.Binop (Oyster.Ast.Or, a, b) in
  let ite c a b = Oyster.Ast.Ite (c, a, b) in
  let opcode = v "opcode" and funct3 = v "funct3" and funct7 = v "funct7" in
  let rs2slot = v "rs2slot" in
  let is_op k = eq opcode (cst 7 k) in
  let is_f3 k = eq funct3 (cst 3 k) in
  let is_f7 k = eq funct7 (cst 7 k) in
  let lui = is_op Isa.Rv32.op_lui and auipc = is_op Isa.Rv32.op_auipc in
  let jal = is_op Isa.Rv32.op_jal and jalr = is_op Isa.Rv32.op_jalr in
  let branch = is_op Isa.Rv32.op_branch in
  let load = is_op Isa.Rv32.op_load and store = is_op Isa.Rv32.op_store in
  let opimm = is_op Isa.Rv32.op_imm and opreg = is_op Isa.Rv32.op_reg in
  let features = Riscv_common.features_of_variant variant in
  let chain cases default =
    List.fold_right (fun (cond, value) acc -> ite cond value acc) cases default
  in
  (* ALU operation for the register-register group (funct7 always decodes). *)
  let r_alu =
    let base =
      [ (is_f7 0x00 &&& is_f3 0, cst 5 0);  (* add *)
        (is_f7 0x20 &&& is_f3 0, cst 5 1);  (* sub *)
        (is_f3 1 &&& is_f7 0x00, cst 5 2);  (* sll *)
        (is_f3 2 &&& is_f7 0x00, cst 5 3);  (* slt *)
        (is_f3 3 &&& is_f7 0x00, cst 5 4);  (* sltu *)
        (is_f7 0x00 &&& is_f3 4, cst 5 5);  (* xor *)
        (is_f7 0x00 &&& is_f3 5, cst 5 6);  (* srl *)
        (is_f7 0x20 &&& is_f3 5, cst 5 7);  (* sra *)
        (is_f7 0x00 &&& is_f3 6, cst 5 8);  (* or *)
        (is_f7 0x00 &&& is_f3 7, cst 5 9)   (* and *) ]
    in
    let zbkb =
      if not features.Riscv_common.zbkb then []
      else
        [ (is_f7 0x30 &&& is_f3 1, cst 5 10);  (* rol *)
          (is_f7 0x30 &&& is_f3 5, cst 5 11);  (* ror *)
          (is_f7 0x20 &&& is_f3 7, cst 5 12);  (* andn *)
          (is_f7 0x20 &&& is_f3 6, cst 5 13);  (* orn *)
          (is_f7 0x20 &&& is_f3 4, cst 5 14);  (* xnor *)
          (is_f7 0x04 &&& is_f3 4, cst 5 15);  (* pack *)
          (is_f7 0x04 &&& is_f3 7, cst 5 16)   (* packh *) ]
    in
    let zbkc =
      if not features.Riscv_common.zbkc then []
      else
        [ (is_f7 0x05 &&& is_f3 1, cst 5 21);  (* clmul *)
          (is_f7 0x05 &&& is_f3 3, cst 5 22)   (* clmulh *) ]
    in
    let m_rows =
      if not features.Riscv_common.m then []
      else
        List.init 8 (fun f3 -> (is_f7 0x01 &&& is_f3 f3, cst 5 (24 + f3)))
    in
    chain (base @ zbkb @ zbkc @ m_rows) (cst 5 0)
  in
  (* ALU operation for the immediate group: funct7 only decodes when the
     funct3 row carries a shift/rotate/permutation. *)
  let i_alu =
    let shifts =
      [ (is_f3 1 &&& is_f7 0x00, cst 5 2);  (* slli *)
        (is_f3 5 &&& is_f7 0x00, cst 5 6);  (* srli *)
        (is_f3 5 &&& is_f7 0x20, cst 5 7)   (* srai *) ]
    in
    let zbkb =
      if not features.Riscv_common.zbkb then []
      else
        [ (is_f3 5 &&& is_f7 0x30, cst 5 11);  (* rori *)
          (is_f3 5 &&& is_f7 0x34 &&& eq rs2slot (cst 5 24), cst 5 17);  (* rev8 *)
          (is_f3 5 &&& is_f7 0x34 &&& eq rs2slot (cst 5 7), cst 5 18);  (* brev8 *)
          (is_f3 1 &&& is_f7 0x04, cst 5 19);  (* zip *)
          (is_f3 5 &&& is_f7 0x04, cst 5 20)   (* unzip *) ]
    in
    chain
      (shifts @ zbkb
      @ [ (is_f3 0, cst 5 0); (is_f3 2, cst 5 3); (is_f3 3, cst 5 4);
          (is_f3 4, cst 5 5); (is_f3 6, cst 5 8); (is_f3 7, cst 5 9) ])
      (cst 5 0)
  in
  [ ("imm_sel",
     ite store (cst 3 1)
       (ite branch (cst 3 2) (ite (lui ||| auipc) (cst 3 3) (ite jal (cst 3 4) (cst 3 0)))));
    ("alu_op",
     ite opreg r_alu (ite opimm i_alu (cst 5 0))
     (* loads/stores/lui/auipc/jumps: add *));
    ("asel", ite lui (cst 2 2) (ite auipc (cst 2 1) (cst 2 0)));
    ("bsel", ite opreg (cst 1 0) (cst 1 1));
    ("reg_write",
     ite (branch ||| store) (cst 1 0) (cst 1 1));
    ("wb_sel", ite load (cst 2 1) (ite (jal ||| jalr) (cst 2 2) (cst 2 0)));
    ("mem_read", ite load (cst 1 1) (cst 1 0));
    ("mem_write", ite store (cst 1 1) (cst 1 0));
    ("mask_mode",
     ite ((load ||| store) &&& (is_f3 0 ||| is_f3 4)) (cst 2 0)
       (ite ((load ||| store) &&& (is_f3 1 ||| is_f3 5)) (cst 2 1) (cst 2 2)));
    ("mem_sign_ext", ite (load &&& (is_f3 0 ||| is_f3 1)) (cst 1 1) (cst 1 0));
    ("branch_en", ite branch (cst 1 1) (cst 1 0));
    ("branch_op", funct3);
    ("jump", ite (jal ||| jalr) (cst 1 1) (cst 1 0));
    ("jalr_sel", ite jalr (cst 1 1) (cst 1 0)) ]

let reference_design variant =
  let d = Oyster.Ast.fill_holes (sketch variant) (reference_bindings variant) in
  ignore (Oyster.Typecheck.check d);
  d
