(** The control union ⊔ (paper Fig. 6): joins per-instruction synthesized
    constants into complete control logic — a nested if-then-else over
    per-instruction precondition wires ([pre_<instr>]), one value group per
    distinct constant.

    The most populous group becomes the default arm, which minimizes the
    precondition wires that must be materialized.  That is correct under
    the instruction-independence conditions (mutually exclusive
    preconditions covering every decodable state); every
    [Engine.synthesize] checks the exclusion before any loop runs. *)

val apply :
  Oyster.Ast.design ->
  pre_exprs:(string * Oyster.Ast.expr) list ->
  shared:(string * Bitvec.t) list ->
  per_instr:(string * (string * Bitvec.t) list) list ->
  Oyster.Ast.design * (string * Oyster.Ast.expr) list
(** Completes the design: inserts the needed [pre_*] wires, fills every
    [Per_instruction] hole with its nested ite and every [Shared] hole with
    its constant, and typechecks.  Returns the design and the hole
    bindings. *)
