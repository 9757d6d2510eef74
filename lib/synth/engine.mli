(** Control logic synthesis (paper §3.3): filling datapath-sketch holes so
    that every specification instruction's precondition implies its
    postcondition, for all initial states — Equation (1), decided by CEGIS.

    Strategy selection:
    - independent per-instruction CEGIS when the mode is [Per_instruction]
      and no [Shared] holes exist (the paper's §3.3.1 optimization);
    - joint synthesis with per-instruction verification when [Shared] holes
      (FSM state encodings) must be consistent across instructions;
    - [Monolithic]: one verification query over the disjunction of all
      instructions' violation formulas — the unoptimized baseline whose
      solving time explodes (Table 1's dagger rows). *)

type mode = Per_instruction | Monolithic

(** {1 Configuration}

    Options are grouped by concern into sub-records and built by piping
    {!default_options} through [with_*] setters:

    {[
      let opts =
        Engine.default_options
        |> Engine.with_jobs 4
        |> Engine.with_deadline (Some 60.0)
        |> Engine.with_cache (Some (Owl_cache.open_dir ".owl-cache"))
    ]}

    The setters centralize validation, so any value they produce is
    well-formed. *)

(** How work is scheduled across strategies and worker domains. *)
module Schedule : sig
  type t = {
    mode : mode;
    jobs : int;
        (** worker domains for the independent per-instruction loops; [1]
            (the default) is the serial path.  Shared holes force joint
            synthesis, which ignores [jobs] and stays serial. *)
  }
end

(** How much work a call may spend before declaring [Timeout]. *)
module Budget : sig
  type t = {
    conflict_budget : int;
        (** total SAT conflicts before declaring timeout *)
    max_iterations : int;  (** CEGIS rounds per loop *)
    deadline_seconds : float option;  (** wall-clock timeout *)
  }
end

(** How solver hiccups are retried and models cross-checked; see
    {!Resilience}. *)
module Recovery : sig
  type t = {
    retries : int;
        (** extra attempts per solver query (and per crashed pool task)
            before giving up: an [Unknown] outcome climbs the {!Resilience}
            ladder — geometrically escalating conflict budgets and deadline
            slices, the final attempt degrading from the incremental
            session to a fresh one-shot solver — instead of immediately
            timing the run out.  With the default unlimited budget and no
            deadline the ladder only engages under injected or
            environmental faults, so it costs nothing otherwise. *)
    escalation_factor : int;
        (** geometric budget/time growth per retry attempt *)
    validate_models : bool;
        (** cross-check every [Sat] model by concretely evaluating the
            asserted terms before trusting it; a failed check retries and
            ultimately falls back to a fresh solver rather than emitting
            wrong bindings.  Off by default (pay-as-you-go). *)
  }
end

type options = {
  schedule : Schedule.t;
  budget : Budget.t;
  recovery : Recovery.t;
  check_independence : bool;
      (** verify the instruction-independence preconditions (paper §3.3.1)
          before synthesizing; the abstraction function's assume wires act
          as the permitted feedback cuts *)
  incremental : bool;
      (** keep one persistent {!Solver.Session} pair per CEGIS loop — SAT
          state, the Tseitin blasting cache, and learned clauses survive
          across iterations, stale candidates are retracted via activation
          literals — instead of re-encoding every query from scratch.  On
          by default; [false] restores the historical fresh-solver-per-query
          behavior (the [--no-incremental] escape hatch). *)
  cache : Owl_cache.t option;
      (** cross-run synthesis cache (see {!Owl_cache}): before each
          independent per-instruction CEGIS loop the engine consults the
          result tier (validated hits skip the loop entirely) and replays
          warm-start state on partial hits; solved and timed-out loops
          populate the store.  Joint and monolithic strategies do not
          cache.  [None] (the default) disables caching. *)
}

val default_options : options
(** [Per_instruction], one job, unlimited conflicts, 256 rounds, no
    deadline, incremental sessions on, 2 retries with factor-4 escalation,
    model validation off, no cache. *)

(** {2 Setters}

    Each returns an updated copy; compose with [|>].  Validation:
    {!with_jobs} rejects [jobs < 1], {!with_max_iterations} rejects
    [max_iterations < 1], {!with_retries} and {!with_escalation_factor}
    delegate to {!Resilience.make} (rejecting [retries < 0] and
    [escalation_factor < 1]) — all with [Invalid_argument]. *)

val with_mode : mode -> options -> options
val with_jobs : int -> options -> options
val with_conflict_budget : int -> options -> options
val with_max_iterations : int -> options -> options

val with_deadline : float option -> options -> options
(** [None] removes a deadline. *)

val with_retries : int -> options -> options
val with_escalation_factor : int -> options -> options
val with_validate_models : bool -> options -> options
val with_check_independence : bool -> options -> options
val with_incremental : bool -> options -> options
val with_cache : Owl_cache.t option -> options -> options

type stats = {
  mutable iterations : int;
  mutable queries : int;
  mutable conflicts : int;
  mutable blasted_vars : int;
      (** SAT variables allocated, summed over every query *)
  mutable blasted_clauses : int;
      (** problem clauses encoded (blasting, Ackermann congruence, guards;
          learned clauses excluded), summed over every query.  Session
          queries report per-check increments, so this compares directly
          across incremental and fresh modes — it is the work the
          incremental sessions exist to avoid repeating. *)
  mutable trivial_unsats : int;
      (** queries refuted by constant folding before any SAT search *)
  mutable retried_queries : int;
      (** ladder retries: query attempts that came back [Unknown] (or
          failed model validation) and were re-run one rung up *)
  mutable degraded_queries : int;
      (** ladder final rungs executed on a fresh one-shot solver instead
          of the incremental session *)
  mutable validation_failures : int;
      (** [Sat] models rejected by concrete evaluation of the asserted
          terms (with [validate_models]) *)
  mutable task_retries : int;
      (** crashed pool tasks re-executed on a fresh worker arena *)
  mutable sat_restarts : int;  (** solver restarts, summed over queries *)
  mutable sat_learnt_kept : int;
      (** learned clauses surviving reduce-DB rounds (each round counts
          its post-reduction database size) *)
  mutable sat_learnt_deleted : int;
      (** learned clauses deleted by reduce-DB rounds *)
  mutable wall_seconds : float;
}

type solved = {
  completed : Oyster.Ast.design;  (** holes filled, typechecked *)
  bindings : (string * Oyster.Ast.expr) list;  (** what filled each hole *)
  per_instr : (string * (string * Bitvec.t) list) list;
      (** instruction -> hole -> synthesized constant *)
  shared : (string * Bitvec.t) list;  (** Shared-hole constants *)
  pre_exprs : (string * Oyster.Ast.expr) list;
      (** each instruction's precondition over the datapath namespace *)
  stats : stats;
}

type outcome =
  | Solved of solved
  | Timeout of stats
  | Unrealizable of { instr : string option; stats : stats }
      (** no hole values satisfy the named instruction (or, in joint modes,
          the conjunction) *)
  | Union_failed of { diagnostic : string; stats : stats }
      (** synthesis succeeded but a precondition could not be re-expressed
          over the datapath wires *)
  | Not_independent of {
      overlapping : (string * string) list;
      feedback : (string * string * string) list;
      stats : stats;
    }  (** the §3.3.1 preconditions fail (with [check_independence]) *)

exception Engine_error of string

exception Cancelled
(** Raised out of {!synthesize} or {!verify} when the caller's [cancel]
    token reports true.  Cancellation is cooperative: the token is polled
    wherever the deadline is checked (every CEGIS iteration and every
    resilience-ladder attempt), so a long single solver query still runs
    to its own budget slice before the poll is reached.  No partial
    outcome is returned — the caller asked for the work to stop, so there
    is nothing worth reporting. *)

type problem = {
  design : Oyster.Ast.design;
  spec : Ila.Spec.t;
  af : Ila.Absfun.t;
}

val problem_prefix : problem -> string
(** The deterministic symbolic-evaluation namespace the engine passes to
    {!Oyster.Symbolic.eval} for this problem (derived from the design
    name, not from a session counter).  Reusing it — as {!Minimize} does —
    keeps hole-variable names consistent with the synthesis trace and
    keeps repeated runs bit-for-bit reproducible. *)

val ground_reads : Solver.model -> Term.t -> Term.t
(** Replaces residual (hole-address-dependent) memory reads of a
    counterexample-substituted formula by the counterexample's memory
    function; exposed for the {!Minimize} pass and tests. *)

val synthesize :
  ?options:options -> ?cancel:(unit -> bool) -> problem -> outcome
(** Runs CEGIS according to [options].  [cancel] (default
    [fun () -> false]) is a cooperative cancellation token — a daemon
    passes a closure over an [Atomic.t] it flips when the requesting
    client disconnects; the engine polls it alongside the deadline and
    raises {!Cancelled}.  It is a parameter rather than an [options]
    field so [options] stays a first-class, comparable, serializable
    value.  With [options.jobs > 1] and no
    [Shared] holes, the independent per-instruction loops are fanned out
    over a {!Pool} of worker domains; results are merged deterministically
    (same [bindings]/[per_instr] as the serial schedule, stats summed
    across workers, the lowest-indexed failing instruction blamed on
    failure).  When [Shared] holes force joint synthesis, or [jobs = 1],
    the serial path runs unchanged.  The [conflict_budget] is global to
    the call; under parallel schedules the exact query at which an
    exhausted budget is noticed may vary, but unlimited-budget runs are
    bit-for-bit deterministic.

    With [options.incremental] (the default) each CEGIS loop keeps one
    verify session and one synth session for its lifetime: counterexample
    constraints are asserted once and accumulate, candidate violations are
    asserted behind activation literals and retracted when refuted, and
    the Tseitin cache re-encodes only each iteration's new cones.  The
    sessions are per loop (never shared between instructions), so
    incremental bindings are identical for any [jobs] value; they may
    differ from fresh-mode bindings (both satisfy the specification — the
    solver's search visits models in a different order when state
    persists). *)

(** {1 Verification of completed designs}

    With no holes this is plain bounded refinement checking — the way a
    hand-written control implementation is formally checked against the
    specification, instruction by instruction.

    Each query is preprocessed by {e field refinement}: instruction-word
    fields that the precondition pins to constants (opcode, funct3,
    funct7) are substituted structurally into the fetched word, so the
    decode comparisons fold and the datapath's operation-selection muxes
    collapse before bit-blasting.  Without this, verifying a core whose
    ALU tree contains wide multipliers or dividers is intractable: the
    solver has to refute every unselected cone bit by bit. *)

type verdict = Verified | Violated of Solver.model | Inconclusive

val verify :
  ?options:options -> ?cancel:(unit -> bool) -> problem -> (string * verdict) list
(** Raises {!Engine_error} if the design still has holes, and
    {!Cancelled} if [cancel] (polled at every resilience-ladder attempt)
    reports true.  [options] (default {!default_options}) is read as in
    {!synthesize}, with two differences: [conflict_budget] bounds each
    instruction's ladder rather than the whole call, and [mode],
    [max_iterations], [check_independence] and [cache] do not apply.
    [options.jobs] fans the per-instruction refinement checks out across
    worker domains; the verdict list keeps instruction order either way.
    [deadline_seconds] counts from the call.

    With [options.incremental] (the default) each worker reuses one
    solver session across the instructions it checks, so the shared
    datapath trace is blasted once per worker instead of once per
    instruction.  Which instructions share a session depends on the
    dynamic schedule; with an unexhausted budget this never changes a
    verdict (counterexample models are re-derived by a fresh check, so
    they are schedule-independent too), but under a tight budget the
    exact query that exhausts it may differ from the fresh mode's.

    Each instruction's query climbs the same {!Resilience} ladder as a
    synthesis query: escalating rungs, deadline slices dividing the
    remaining wall time over the instructions still outstanding, a final
    rung on a fresh one-shot solver, and with [validate_models] every Sat
    model concretely evaluated before it is trusted.  Only an exhausted
    ladder reads differently: [Inconclusive] where synthesis reports
    [Timeout].  Crashed worker tasks are retried up to [retries] times on
    a fresh arena. *)

val monolithic_violation : ?refine:bool -> problem -> Term.t
(** The monolithic ∀-verify query in closed form: the disjunction over
    all instructions of "precondition and assumptions hold but the
    postcondition fails" on the completed design's trace — Unsat iff the
    design is correct.  This is the per-iteration verification query of
    the monolithic schedule mode, exported so benches and tools can
    attack the hard query directly (e.g. {!Portfolio.check}) without
    driving the CEGIS loop.  [refine] (default [true]) folds each
    disjunct's pinned instruction-word fields first, as {!verify} does;
    [refine:false] keeps the whole decode tree — the intractable form.
    Raises {!Engine_error} if the design still has holes. *)
