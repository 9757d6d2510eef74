(** The Oyster intermediate representation (paper Fig. 5).

    An Oyster design is a synchronous machine with one implicit clock.
    Statements execute in order every cycle: assignments to wires and
    outputs are combinational and take effect immediately; assignments to
    registers and memory writes are buffered and commit at the end of the
    cycle.  The [hole] declaration marks control points for the synthesis
    engine to fill (paper §3.1). *)

(** Unary operators; the reductions collapse a vector to one bit. *)
type unop = Not | Neg | RedOr | RedAnd | RedXor

(** Binary operators.  Shift and rotate amounts may have any width and are
    read unsigned; comparisons produce one bit. *)
type binop =
  | And
  | Or
  | Xor
  | Add
  | Sub
  | Mul
  | Udiv  (** division by zero yields all-ones (see {!Bitvec.udiv}) *)
  | Urem
  | Sdiv
  | Srem
  | Clmul  (** carry-less multiply, low half (RISC-V Zbkc) *)
  | Clmulh  (** carry-less multiply, high half *)
  | Shl
  | Lshr
  | Ashr
  | Rol
  | Ror
  | Eq
  | Ne
  | Ult
  | Ule
  | Ugt
  | Uge
  | Slt
  | Sle
  | Sgt
  | Sge

type expr =
  | Var of string  (** an input, wire, output, register, or hole *)
  | Const of Bitvec.t
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Ite of expr * expr * expr  (** condition must have width 1 *)
  | Extract of int * int * expr  (** high, low (inclusive) *)
  | Concat of expr * expr  (** high part first *)
  | Zext of expr * int
  | Sext of expr * int
  | Read of string * expr  (** memory read, current state *)
  | RomRead of string * expr  (** lookup in a read-only table *)

type stmt =
  | Assign of string * expr
      (** wire/output: combinational; register: next-cycle value *)
  | Write of { mem : string; addr : expr; data : expr; enable : expr }
      (** committed at end of cycle; later writes win on address clashes *)

(** How a hole participates in synthesis (paper §3.3.1): [Per_instruction]
    holes get an independent constant per specification instruction, joined
    by the control union; [Shared] holes (e.g. FSM state encodings) get a
    single constant all instructions agree on. *)
type hole_kind = Per_instruction | Shared

type mem_decl = { mem_name : string; addr_width : int; data_width : int }

type rom_decl = { rom_name : string; rom_addr_width : int; rom_data : Bitvec.t array }

type hole_decl = {
  hole_name : string;
  hole_width : int;
  kind : hole_kind;
  deps : string list;
      (** the signals the synthesized control may depend on — the arguments
          of [??(...)] in the paper's sketches *)
}

type decl =
  | Input of string * int
  | Output of string * int
  | Wire of string * int
  | Register of string * int
  | Memory of mem_decl
  | Rom of rom_decl
  | Hole of hole_decl

type design = { name : string; decls : decl list; stmts : stmt list }

val decl_name : decl -> string

val find_decl : design -> string -> decl option

val holes : design -> hole_decl list

val registers : design -> (string * int) list

val memories : design -> (string * int * int) list
(** [(name, addr_width, data_width)] per memory. *)

val inputs : design -> (string * int) list
val outputs : design -> (string * int) list
val wires : design -> (string * int) list
val roms : design -> rom_decl list

val expr_vars : expr -> string list
(** Distinct variable names, sorted. *)

val schedule : design -> design
(** Reorders statements into a valid combinational evaluation order (every
    wire/output assignment after the assignments of the wires it reads;
    sequential statements last, relative order kept).  Raises
    [Invalid_argument] on combinational cycles. *)

val insert_wires : design -> (string * int * expr) list -> design
(** Adds wire declarations and places each assignment at the earliest point
    where every variable it references is defined.  Raises
    [Invalid_argument] if a definition cannot be placed. *)

val fill_holes : design -> (string * expr) list -> design
(** Replaces each bound hole declaration by a wire plus an assignment,
    placed like {!insert_wires}.  Unbound holes remain.  The caller should
    re-typecheck the result. *)
