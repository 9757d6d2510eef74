(** Structural cube-and-conquer for the monolithic ∀-verify query.

    The paper's central observation is that the monolithic ∀-query times
    out where per-instruction decomposition completes.  This module
    recovers that decomposition from the monolithic query itself: a
    disjunctive goal ("some instruction violates its contract") is split
    by ∨-elimination into up to [2^cube_vars] groups of disjuncts, each an
    independent sub-query that re-blasts only its own cones, fanned out
    across the pool.  The query is Unsat iff every cube is.  A goal with
    no disjunction gets one sequential {!Solver.check}.

    {b Determinism contract.}  The split accelerates only the Unsat
    direction.  A Sat verdict is re-derived by one sequential
    {!Solver.check} of the whole query before being returned, so {!check}
    returns bit-identical models to sequential solving regardless of which
    cube finished first. *)

type options = { cube_vars : int }
(** [cube_vars = k] caps the split at [2^k] groups; [0] = no split. *)

val default : options
(** [{cube_vars = 0}] — sequential. *)

val with_cube_vars : int -> options -> options
(** Raises [Invalid_argument] outside [0..12] (2^12 cubes is already far
    beyond any pool this runs on). *)

(** {1 Tally}

    Cube accounting across {!check} calls: a caller shares one tally
    (it is internally locked) and reads it back for its report. *)

type tally

type summary = {
  cubes : int;  (** total cubes fanned out *)
  cubes_unsat : int;  (** cubes refuted *)
}

val create_tally : unit -> tally
val read_tally : tally -> summary

(** {1 Checking} *)

val check :
  ?options:options ->
  ?tally:tally ->
  ?strategy:Solver.Strategy.t ->
  jobs:int ->
  Term.t list ->
  Solver.outcome
(** Decides the conjunction of width-1 terms like {!Solver.check},
    splitting the first disjunctive conjunct according to [options]
    (default: sequential).  [strategy] selects nothing: the SAT core has
    no configuration, and the argument is kept only because the benchmark
    harness passes it.  [jobs] bounds the domains serving the cubes.
    Statistics sum the work of all cubes solved and, on a Sat outcome,
    of the sequential re-check.  Raises like {!Solver.check} on non-width-1
    terms. *)
