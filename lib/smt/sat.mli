(** A CDCL SAT solver.

    One fixed core with no configuration: two-watched-literal unit
    propagation, first-UIP conflict analysis with clause learning, the
    VSIDS decision heuristic with phase saving, Luby restarts (unit 100),
    and a [reduce_db] that deletes the lower-activity half of the long
    learned clauses.  The clause database changes only by learning and
    deletion.

    Literals use the DIMACS convention: variable [v >= 1], positive literal
    [v], negative literal [-v].  Clauses may be added between [solve] calls
    (the solver restarts from decision level 0).

    A deterministic conflict budget turns long searches into [Unknown]; the
    benchmark harness uses this to reproduce the paper's Table 1 timeout row
    reproducibly. *)

type t

type result = Sat | Unsat | Unknown

val create : unit -> t

val new_var : t -> int
(** Allocates a fresh variable and returns its (positive) index. *)

val num_vars : t -> int

val num_clauses : t -> int
(** Clauses currently in the database, problem and learned. *)

val num_learnt : t -> int
(** Learned clauses currently in the database. *)

val encoded_clauses : t -> int
(** Cumulative problem clauses added through {!add_clause}, including
    those satisfied at level 0 or reduced to units, which never occupy a
    database slot.  It never shrinks, so incremental sessions difference it
    across [solve] calls to report how many clauses each check blasted. *)

val conflicts : t -> int
(** Total conflicts encountered across all [solve] calls. *)

val propagations : t -> int
(** Literals propagated by unit propagation, cumulative across [solve]
    calls.  Each [solve] call's [sat.solve] trace span reports the delta
    together with {!decisions}, {!restarts}, and {!conflicts}. *)

val decisions : t -> int
(** VSIDS decisions made, cumulative across [solve] calls. *)

val restarts : t -> int
(** Luby restarts performed, cumulative across [solve] calls. *)

val reductions : t -> int
(** Learned-clause database reductions, cumulative across [solve] calls. *)

val learnt_kept : t -> int
(** Learned clauses surviving reduce rounds, cumulative (each reduce adds
    the post-reduction database size). *)

val learnt_deleted : t -> int
(** Learned clauses deleted by reduce rounds, cumulative. *)

val add_clause : t -> int list -> unit
(** Adds a clause.  The empty clause (or a clause whose literals are all
    falsified at level 0) makes the instance unsatisfiable.  Raises
    [Invalid_argument] on literals naming unallocated variables. *)

val export_learnt : t -> int list list
(** Snapshot of the learned-clause database, in DIMACS literals.  Every
    exported clause is a consequence of the problem clauses the solver has
    seen, so the list is only meaningful for re-import into a solver holding
    the same encoding (same variable numbering) — the synthesis cache pins
    this with an exact problem fingerprint before replaying. *)

val import_learnt : t -> int list list -> int
(** Replays previously exported clauses, allocating them as {e learnt}: they
    never count as problem clauses in the statistics and the activity-based
    deletion may drop them again.  Clauses naming variables the solver has
    not allocated yet are dropped — never handed to the watch lists — and
    counted in {!import_dropped} (the exporting run may have blasted more
    terms, or the peer may not share this encoding at all).  Returns the
    number of clauses actually imported. *)

val import_dropped : t -> int
(** Imported clauses rejected by the bounds check, cumulative. *)

val solve : ?assumptions:int list -> ?budget:int -> ?deadline:float -> t -> result
(** [solve ~assumptions ~budget ~deadline s] checks satisfiability under the
    given assumption literals.  [budget] bounds the number of conflicts for
    this call and [deadline] (an absolute [Unix.gettimeofday] time) bounds
    its wall-clock duration; exceeding either yields [Unknown].  After
    [Sat], [value] reads the model.  After [Unsat] under assumptions, the
    solver remains usable with different assumptions. *)

val value : t -> int -> bool
(** Model value of a variable after [solve] returned [Sat].  Variables the
    search never assigned default to [false]. *)
