(** PyRTL-style rendering of control logic (paper Fig. 7) and the
    HDL-size measures of Table 2.

    Generated control renders as one [with <precondition>:] block per
    instruction with one conditional assignment per control signal;
    hand-written reference control renders as plain combinational
    assignments. *)

val expr_to_string : Oyster.Ast.expr -> string

val generated_to_string :
  pre_exprs:(string * Oyster.Ast.expr) list ->
  per_instr:(string * (string * Bitvec.t) list) list ->
  shared:(string * Bitvec.t) list ->
  string

val generated_loc :
  pre_exprs:(string * Oyster.Ast.expr) list ->
  per_instr:(string * (string * Bitvec.t) list) list ->
  shared:(string * Bitvec.t) list ->
  int
(** Lines of the generated-control rendering (Table 2, "HDL gen"). *)

val bindings_loc : (string * Oyster.Ast.expr) list -> int
(** Size of hand-written control: one line per conditional-assignment case
    (if-then-else node) plus one per signal (Table 2, "HDL ref"). *)
