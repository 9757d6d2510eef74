(** Refinement under the precondition: structural substitution of the
    fields and literals a formula's own conjuncts pin.

    Every check the engine poses with the holes fixed is a violation
    formula [pre ∧ assumes ∧ ¬post], and its top-level conjuncts pin parts
    of the state to constants.  An instruction's precondition pins
    instruction-word fields ([extract[6:0](fetch) = opcode], ...); an
    abstraction function's assumptions pin literals (a pipelined core
    assumes [bvnot p_valid]: no instruction in flight).  Substituting those
    constants structurally — replacing the fetched word with
    [concat(funct7-const, rs2, rs1, funct3-const, rd, opcode-const)], and
    [p_valid] with [0] — lets the term simplifier fold the decode
    comparisons, collapse the operation-selection trees and drop every
    forwarding path before bit-blasting.  A CEGIS candidate's constants fold
    the control's own muxes, but not datapath structure guarded by state:
    without the literal pins each verify query of a two-stage core must
    prove a forwarding mux over two carry-less multipliers equal to the
    specification's one.

    The pins must be conjuncts of the formula refined.  Then every model
    of the original is a model of the refinement (the refined base agrees
    with the original on every unpinned bit, and the formula forces the
    pinned bits anyway), so a refined Unsat proves the original Unsat.
    The converse holds for variable bases.  A pinned read, though, can
    alias another read of the same memory at the same address, which the
    refinement no longer ties to the pinned constants, so a refined
    model need not yield an original one.  A model of the refined formula
    says nothing about the pinned bits (they folded away); {!patch} writes
    them back, and {!check} confirms the patched model against the
    original formula and re-checks that formula when it fails. *)

type pins
(** Pinned bits, per base term (a variable or an uninterpreted read). *)

val collect : Term.t -> pins
(** [collect f] extracts pins from the top-level conjuncts of [f]:
    every conjunct of the form [extract(base, hi, lo) = const] or
    [base = const], and every width-1 literal — [x] pins [x] to 1 and
    [bvnot x] pins it to 0 — where [x] is a base or a one-bit extract of
    one, and a base is a variable or a memory read.  On conflicting pins
    the first wins — the formula is unsatisfiable either way and the
    solver settles it. *)

val is_empty : pins -> bool

val apply : ?env:Term.env -> pins -> Term.t -> Term.t
(** [apply ~env pins t] is one {!Term.substitute} pass that binds [env]'s
    variables and reads (a CEGIS candidate) and replaces every other
    pinned base occurring in [t] with the concatenation of its pinned
    constants and extracts of the base for the unpinned gaps, skipping the
    dead arm of every [ite] whose condition folds.  [env] takes precedence
    over a pin.  Without [env] it only refines, and with no pins either it
    returns [t].  Sound only when the formula solved implies the pinning
    equalities [collect] saw (e.g. it is the formula they came from, under
    [env]). *)

val patch : ?env:Term.env -> pins -> Solver.model -> Solver.model
(** [patch ~env pins m] writes the pinned constants into a model of a
    formula refined under [env]: into [var_value] for variable bases, and
    for read bases into [read_values] at the base's address (evaluated
    under [env] and the patched model, and added when the refined formula
    had no instance left), with the read index rebuilt.  Unpinned bits
    keep the model's values.  With variable bases only, the result
    satisfies the unrefined formula; a pinned read whose address aliases
    another read can make it fail. *)

val check :
  solve:(Term.t -> Solver.model option) ->
  recheck:(Term.t -> Solver.model option) ->
  ?env:Term.env ->
  pins ->
  Term.t ->
  Solver.model option * bool
(** [check ~solve ~recheck ~env pins f] decides [f] under [env] (a
    candidate's hole values) the refined way, with [pins] collected from
    [f]: [solve] decides [apply ~env pins f]; on [Sat] the model is
    {!patch}ed and evaluated against [f] itself under [env] and the
    patched model ({!Solver.model_env}).  If that evaluation fails, the
    answer is [recheck] of [f] with [env] substituted, unrefined.  Returns
    the answer and whether [recheck] ran.  An Unsat [solve] is trusted:
    every model of [f] is one of its refinement. *)
