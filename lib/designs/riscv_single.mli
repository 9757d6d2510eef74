(** Single-cycle embedded-class RISC-V core sketch (paper §4.1.1), with
    fourteen control holes decoded from (opcode, funct3, funct7, rs2slot) —
    see the implementation header for the signal list.  The abstraction
    function is the paper's: all reads and writes at time step 1,
    cycles 1. *)

val variant_tag : Isa.Rv32.isa_variant -> string

val sketch :
  ?extra_alu_ops:(int * (Hdl.Builder.signal -> Hdl.Builder.signal -> Hdl.Builder.signal)) list ->
  Isa.Rv32.isa_variant ->
  Oyster.Ast.design
(** [extra_alu_ops] adds functional units for datapath iteration (see
    examples/custom_instruction.ml). *)

val abstraction : unit -> Ila.Absfun.t
val problem : Isa.Rv32.isa_variant -> Synth.Engine.problem

val reference_bindings : Isa.Rv32.isa_variant -> (string * Oyster.Ast.expr) list
(** The hand-written decoder (Table 2's baseline). *)

val reference_design : Isa.Rv32.isa_variant -> Oyster.Ast.design
