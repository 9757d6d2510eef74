(** SMT façade: satisfiability of conjunctions of width-1 bitvector terms.

    Pipeline: Ackermann-expand uninterpreted memory reads, bit-blast with
    {!Blast}, decide with {!Sat}, and reconstruct a word-level model.

    Two entry points share the engine:

    - {!check}, the one-shot API: a fresh context per call;
    - {!Session}, a persistent context for families of related queries.
      The SAT state (learned clauses, variable activity, phase saving),
      the Tseitin encoding cache, and the Ackermann instance table all
      survive across checks, so each additional query pays only for what
      it adds.  This is what makes the CEGIS inner loop incremental.

    The [budget] bounds SAT conflicts; exhausting it yields [Unknown],
    which the synthesis engine and the benchmark harness surface as a
    timeout.

    {b Re-entrancy contract.}  [check] holds no state between calls: the
    SAT instance, the blasting context, the Ackermann numbering, and the
    statistics are all per call, and the term layer it builds on is
    domain-safe.  Concurrent [check] calls from different domains are
    therefore independent.  A {!Session.t} is single-owner: nothing inside
    it is locked, so a session must stay on the domain that created it
    (use one {!Arena} per worker domain).  Distinct sessions on distinct
    domains never interact. *)

type model = {
  var_value : string -> Bitvec.t option;
      (** value of a named bitvector variable; [None] if the variable was
          simplified away (callers should treat it as "any value") *)
  read_values : (string * Bitvec.t * Bitvec.t) list;
      (** [(mem_name, address, value)] for every distinct read instance,
          with the address evaluated under the model *)
  read_index : (string * string, Bitvec.t) Hashtbl.t Lazy.t;
      (** lookup index over [read_values] — first instance per (memory,
          printed address) — built lazily by the solver for
          {!read_lookup}; treat as an implementation detail *)
}

type stats = {
  sat_vars : int;  (** SAT variables this check allocated *)
  sat_clauses : int;
      (** problem clauses this check added (blasting, Ackermann congruence,
          guards); learned clauses are excluded.  For a one-shot {!check}
          this is the whole encoding; for a session check it is the
          increment over the previous check — summing over a query sequence
          gives total blasted clauses. *)
  sat_conflicts : int;  (** conflicts during this check's search *)
  sat_restarts : int;  (** restarts during this check's search *)
  sat_learnt_kept : int;
      (** learned clauses surviving reduce-DB rounds this check (each
          round contributes its post-reduction database size) *)
  sat_learnt_deleted : int;  (** learned clauses deleted this check *)
  trivially_unsat : bool;
      (** the conjunction simplified to constant false before any search:
          no SAT work happened, so zero conflicts really means zero cost —
          budget bookkeeping can tell this apart from a genuine
          zero-conflict refutation *)
}
(** Per-check statistics.  Carried inside the {!outcome} rather than read
    from process state, so concurrent checks cannot race. *)

val empty_stats : stats

type outcome = Sat of model * stats | Unsat of stats | Unknown of stats

val stats_of : outcome -> stats
(** The statistics of any outcome. *)

val outcome_name : outcome -> string
(** ["sat"], ["unsat"], or ["unknown"] — for logs and trace arguments. *)

val check : ?budget:int -> ?deadline:float -> Term.t list -> outcome
(** Checks satisfiability of the conjunction of the given width-1 terms.
    [deadline] is an absolute wall-clock bound ([Unix.gettimeofday]).
    Raises [Invalid_argument] if any term is not width 1.  Re-entrant; see
    the module preamble. *)

val ackermannize : Term.t list -> Term.t list * (Term.mem * Term.t * Term.t) list
(** One-shot Ackermann expansion (exposed for tests): rewritten assertions
    plus congruence constraints, and the read instances in traversal
    order. *)

(** {1 Solver strategies}

    The SAT core has no configuration, so a strategy selects nothing.  The
    module is kept only because the benchmark harness names
    [Strategy.default] when it calls [Synth.Portfolio.check]. *)

module Strategy : sig
  type t

  val default : t
end

(** {1 Incremental sessions} *)

module Session : sig
  type t
  (** A persistent solving context.  Single-owner: never share a session
      across domains. *)

  type guard
  (** Handle to a retractable assertion (an activation literal). *)

  val create : unit -> t

  val assert_always : t -> Term.t -> unit
  (** Permanently asserts a width-1 term.  Asserting a constant-false term
      (or one that Ackermannization reduces to constant false) poisons the
      session: every later check returns [Unsat] with [trivially_unsat]
      set.  Raises [Invalid_argument] on width <> 1. *)

  val assert_retractable : t -> Term.t -> guard
  (** Asserts a width-1 term guarded by a fresh activation literal.  The
      term is enforced only by checks that pass the returned guard in
      [assumptions]; its encoding (and any Ackermann congruence it
      introduced) stays in the session either way.  Raises
      [Invalid_argument] on width <> 1. *)

  val retract : t -> guard -> unit
  (** Permanently disables a guarded assertion (asserts the negation of
      its activation literal).  Checking with a retracted guard among the
      assumptions afterwards yields [Unsat].  Retracting twice is
      harmless. *)

  val check_with :
    ?assumptions:guard list ->
    ?budget:int ->
    ?deadline:float ->
    t ->
    Term.t list ->
    outcome
  (** [check_with ~assumptions s extra] permanently asserts the [extra]
      terms (like {!assert_always}) and then decides the session's
      asserted conjunction with the guarded assertions named by
      [assumptions] enabled.  Statistics are per-check increments (see
      {!stats}).  After [Unsat] under assumptions the session remains
      usable with different assumptions; after [Sat] the returned model is
      a snapshot and stays valid across later asserts, retractions, and
      checks on the same session. *)

  type stats = {
    vars : int;  (** SAT variables allocated since [create] *)
    clauses : int;
        (** problem clauses encoded since [create] (cumulative; see
            {!Sat.encoded_clauses}) *)
    conflicts : int;  (** total conflicts across all checks *)
    learnt : int;  (** learned clauses currently in the database *)
    restarts : int;  (** total restarts across all checks *)
    learnt_kept : int;  (** learned clauses surviving reduce rounds *)
    learnt_deleted : int;  (** learned clauses deleted by reduce rounds *)
    cached_terms : int;  (** size of the term → literals blasting cache *)
    trivially_unsat : bool;  (** the session is poisoned by constant false *)
  }
  (** One introspection snapshot covering everything callers used to read
      through individual accessors — the cache, the observability layer,
      and tests all consume this single record. *)

  val stats : t -> stats
  (** Cumulative totals since [create] (not per-check deltas; those travel
      inside each {!outcome}). *)

  val export_learnt : t -> int list list
  (** The session's learned clauses, for the cross-run warm-start cache.
      Only sound to replay into a session holding the identical encoding
      (same problem fingerprint ⇒ same deterministic variable numbering). *)

  val import_learnt : t -> int list list -> int
  (** Replays exported learned clauses into this session; clauses naming
      variables not yet allocated are dropped (and counted in
      {!import_dropped}).  Returns how many were imported.  See
      {!Sat.import_learnt}. *)

  val import_dropped : t -> int
  (** Imported clauses rejected by the bounds check, cumulative. *)

  val num_vars : t -> int
  (** SAT variables allocated so far (for clause-sharing sanity checks). *)
end

(** {1 Session arenas}

    One arena per worker domain: sessions are unlocked single-owner state,
    so a pool worker allocates every session it needs from its own arena
    and nothing is ever shared across domains.  The arena also aggregates
    statistics over the sessions it handed out. *)

module Arena : sig
  type t

  val create : unit -> t

  val session : t -> Session.t
  (** A fresh session owned by this arena. *)

  val shared : t -> Session.t
  (** The arena's memoized session (created on first use) — for callers
      that want to reuse one encoding cache across successive tasks on the
      same worker. *)

  val session_count : t -> int

  val stats : t -> stats
  (** Cumulative statistics summed over the arena's sessions. *)
end

val read_lookup : model -> Term.mem -> Bitvec.t -> Bitvec.t option
(** Looks an address up in [read_values], returning the {e first} match in
    read-instance order.  Distinct instances may alias the same concrete
    address, but the Ackermann congruence constraints force aliasing
    instances to carry equal values in any model, so the first match is
    canonical and the lookup deterministic.  Backed by a hash index built
    once per model, so repeated lookups are O(1). *)
