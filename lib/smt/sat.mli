(** A CDCL SAT solver.

    Implements the standard modern architecture: two-watched-literal unit
    propagation, first-UIP conflict analysis with clause learning, VSIDS
    decision heuristic with phase saving, and Luby restarts — plus the
    "between conflicts" machinery that modern solvers win with, each piece
    individually gated by {!config}: LBD (glue)-tiered learned-clause
    retention, best-phase rephasing, and inprocessing (subsumption with
    self-subsuming resolution, clause vivification, bounded variable
    elimination).

    Literals use the DIMACS convention: variable [v >= 1], positive literal
    [v], negative literal [-v].  Clauses may be added between [solve] calls
    (the solver restarts from decision level 0).

    A deterministic conflict budget turns long searches into [Unknown]; the
    benchmark harness uses this to reproduce the paper's Table 1 timeout row
    reproducibly. *)

type t

type result = Sat | Unsat | Unknown

(** {1 Configuration} *)

type restart_schedule =
  | Luby of int
      (** Luby staircase with the given unit run length; [Luby 100] is the
          historical schedule. *)
  | Geometric of int * float
      (** First restart interval and per-restart growth factor (>= 1.0). *)

type phase_init =
  | Phase_neg  (** fresh variables decide negative first (historical) *)
  | Phase_pos  (** fresh variables decide positive first *)
  | Phase_rand
      (** deterministic per-variable pseudo-random phase, seeded by
          [branch_seed] *)

type config = {
  lbd_retention : bool;
      (** LBD-tiered [reduce_db] with glue-clause protection (instead of
          the legacy pure-activity policy). *)
  rephase : bool;
      (** Overwrite saved phases with the best (deepest-trail) snapshot
          every few restarts. *)
  subsume : bool;  (** Inprocessing: subsumption + self-subsumption. *)
  vivify : bool;  (** Inprocessing: clause vivification. *)
  elim : bool;  (** Inprocessing: bounded variable elimination. *)
  inprocess_interval : int;
      (** Conflicts between inprocessing rounds (>= 1). *)
  restart : restart_schedule;  (** Restart pacing; default [Luby 100]. *)
  branch_seed : int;
      (** [0] (default) is the pure VSIDS index tie-break; a nonzero seed
          perturbs fresh variables' initial activity by a tiny
          deterministic epsilon, diversifying the early decision order. *)
  phase : phase_init;  (** Initial decision polarity; default [Phase_neg]. *)
}

type profile = Default | Aggressive | Conservative
(** Named presets.  [Conservative] disables every modern pass and matches
    the legacy solver exactly; [Default] enables everything except
    variable elimination; [Aggressive] adds elimination and inprocesses
    more often. *)

val default_config : config
val aggressive_config : config
val conservative_config : config
val config_of_profile : profile -> config

val profile_name : profile -> string
val profile_of_string : string -> profile option

val create : ?config:config -> unit -> t
(** Raises [Invalid_argument] if [config.inprocess_interval < 1], the
    restart schedule's base interval is [< 1], or a geometric factor is
    [< 1.0]. *)

val new_var : t -> int
(** Allocates a fresh variable and returns its (positive) index. *)

val freeze : t -> int -> unit
(** Exempts a variable from variable elimination.  Incremental sessions
    freeze their activation-literal guards: retraction re-constrains a
    guard at any time, and a frozen guard never triggers the (expensive)
    restore path that re-constraining an eliminated variable would. *)

val num_vars : t -> int
val num_clauses : t -> int

val num_learnt : t -> int
(** Learned clauses currently in the database. *)

val encoded_clauses : t -> int
(** Cumulative problem clauses added through {!add_clause}.  Unlike
    [num_clauses - num_learnt] this never shrinks (inprocessing deletes
    and rewrites live clauses), so incremental sessions difference it
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

val subsumed : t -> int
(** Clauses deleted by inprocessing subsumption, cumulative. *)

val strengthened : t -> int
(** Clauses shrunk by self-subsuming resolution, cumulative. *)

val vivified : t -> int
(** Literals removed by clause vivification, cumulative. *)

val eliminated_vars : t -> int
(** Variables eliminated (and not since restored), net. *)

val rephases : t -> int
(** Best-phase rephasing events, cumulative. *)

val add_clause : t -> int list -> unit
(** Adds a clause.  The empty clause (or a clause whose literals are all
    falsified at level 0) makes the instance unsatisfiable.  Raises
    [Invalid_argument] on literals naming unallocated variables.  Adding a
    clause that mentions an eliminated variable first restores the
    eliminated clauses (sound, but slow — {!freeze} variables that will be
    re-constrained). *)

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
    search never assigned default to [false]; eliminated variables read
    their witness-reconstructed values. *)
