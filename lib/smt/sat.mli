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

val encoded_clauses : t -> int
(** Cumulative problem clauses added through {!add_clause}, including
    those satisfied at level 0 or reduced to units, which never occupy a
    database slot.  It never shrinks, so incremental sessions difference it
    across [solve] calls to report how many clauses each check blasted. *)

type counters = {
  conflicts : int;  (** conflicts encountered *)
  propagations : int;  (** literals propagated by unit propagation *)
  decisions : int;  (** VSIDS decisions *)
  restarts : int;  (** Luby restarts *)
  reductions : int;  (** learned-clause database reductions *)
  learnt_kept : int;
      (** learned clauses surviving reduce rounds (each round adds the
          post-reduction database size) *)
  learnt_deleted : int;  (** learned clauses deleted by reduce rounds *)
}
(** The search counters, cumulative across all [solve] calls.  They only
    grow, so the work of a stretch of calls is the field-wise difference
    of two snapshots: each [solve] call's [sat.solve] trace span reports
    its conflicts, propagations, decisions and restarts that way. *)

val counters : t -> counters
(** A snapshot of the search counters. *)

val add_clause : t -> int list -> unit
(** Adds a clause.  The empty clause (or a clause whose literals are all
    falsified at level 0) makes the instance unsatisfiable.  Raises
    [Invalid_argument] on literals naming unallocated variables. *)

val export_learnt : t -> int list list
(** Snapshot of the learned-clause database, in DIMACS literals.  A test
    hook: the ["lbd"] clause shape of [test_sat] adds these clauses to the
    problem clauses and checks that the verdict does not change, i.e. that
    every learned clause is implied by the formula. *)

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
