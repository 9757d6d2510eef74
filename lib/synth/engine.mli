(** Control logic synthesis (paper §3.3): filling datapath-sketch holes so
    that every specification instruction's precondition implies its
    postcondition, for all initial states — Equation (1), decided by CEGIS.

    The engine runs one CEGIS loop; the strategy decides what it is
    given:
    - independent per-instruction CEGIS when the mode is [Per_instruction]
      and no [Shared] holes exist (the paper's §3.3.1 optimization): one
      loop per instruction, verifying that instruction's violation alone;
    - joint synthesis when [Shared] holes (FSM state encodings) must be
      consistent across instructions: one loop over all holes that still
      verifies each instruction's violation as a separate query;
    - [Monolithic]: one loop whose single verification query is the
      disjunction of all instructions' violation formulas — the
      unoptimized baseline whose solving time explodes (Table 1's dagger
      rows).
    Each loop creates its solver sessions itself and drops them when it
    returns. *)

type mode = Per_instruction | Monolithic

(** {1 Configuration}

    Options are one flat record built by piping {!default_options}
    through [with_*] setters:

    {[
      let opts =
        Engine.default_options
        |> Engine.with_jobs 4
        |> Engine.with_deadline (Some 60.0)
        |> Engine.with_cache (Some (Owl_cache.open_dir ".owl-cache"))
    ]}

    The setters centralize validation, so any value they produce is
    well-formed. *)

type options = {
  mode : mode;
  jobs : int;
      (** worker domains for the independent per-instruction loops; [1]
          (the default) is the serial path.  Shared holes force joint
          synthesis, which ignores [jobs] and stays serial. *)
  conflict_budget : int;
      (** total SAT conflicts before declaring timeout *)
  max_iterations : int;  (** CEGIS rounds per loop *)
  deadline_seconds : float option;  (** wall-clock timeout *)
  retries : int;
      (** extra attempts per solver query, and the re-executions of a
          crashed pool task.  An [Unknown] outcome climbs the
          {!Resilience} ladder — conflict budgets and deadline slices
          growing fourfold per attempt, the final attempt degrading from
          the incremental session to a fresh one-shot solver — instead of
          immediately timing the run out.  With the default unlimited
          budget and no deadline the ladder only engages under injected or
          environmental faults, so it costs nothing otherwise. *)
  validate_models : bool;
      (** evaluate every [Sat] model concretely against the asserted
          terms before trusting it (off by default); a failed check
          retries and ultimately falls back to a fresh solver rather than
          emitting wrong bindings. *)
  incremental : bool;
      (** keep persistent {!Solver.Session}s per CEGIS loop (one for each
          verify query, one for the synth query) — SAT state, the Tseitin
          blasting cache, and learned clauses survive across iterations,
          stale candidates are retracted via activation literals — instead
          of re-encoding every query from scratch.  {!verify} uses it
          too, with one session per worker for the instructions whose
          violations pin nothing (see {!Refine}).  On by default;
          [false] restores the historical fresh-solver-per-query behavior
          (the [--no-incremental] escape hatch). *)
  cache : Owl_cache.t option;
      (** cross-run synthesis cache (see {!Owl_cache}): before each
          independent per-instruction CEGIS loop the engine looks its
          problem fingerprint up in the result tier (a validated hit skips
          the loop entirely); a miss runs the loop from scratch and a
          solved loop stores its bindings.  Nothing of a timed-out loop is
          kept, so the bindings never depend on the cache's history.
          Joint and monolithic strategies do not cache.  [None] (the
          default) disables caching. *)
}

val default_options : options
(** [Per_instruction], one job, unlimited conflicts, 256 rounds, no
    deadline, incremental sessions on, 2 retries, model validation off, no cache.  No option turns off the §3.3.1 gate. *)

(** {2 Setters}

    Each returns an updated copy; compose with [|>].  Validation:
    {!with_jobs} rejects [jobs < 1], {!with_max_iterations} rejects
    [max_iterations < 1], {!with_retries} rejects [retries < 0] — all
    with [Invalid_argument]. *)

val with_mode : mode -> options -> options
val with_jobs : int -> options -> options
val with_conflict_budget : int -> options -> options
val with_max_iterations : int -> options -> options

val with_deadline : float option -> options -> options
(** [None] removes a deadline. *)

val with_retries : int -> options -> options
val with_validate_models : bool -> options -> options
val with_incremental : bool -> options -> options
val with_cache : Owl_cache.t option -> options -> options

(** What one call did.  The record is immutable: the engine logs every
    solver attempt as it happens and computes the query fields from that
    log once every loop has finished. *)
type stats = {
  iterations : int;  (** CEGIS rounds begun, summed over every loop *)
  queries : int;
      (** solver attempts: every rung of the {!Resilience} ladder counts,
          retries and the degraded fresh rung included; the §3.3.1 gate's
          attempts never count *)
  conflicts : int;
  blasted_vars : int;
      (** SAT variables allocated, summed over every query *)
  blasted_clauses : int;
      (** problem clauses encoded (blasting, Ackermann congruence, guards;
          learned clauses excluded), summed over every query.  Session
          queries report per-check increments, so this compares directly
          across incremental and fresh modes — it is the work the
          incremental sessions exist to avoid repeating. *)
  trivial_unsats : int;
      (** queries refuted by constant folding before any SAT search *)
  retried_queries : int;
      (** ladder retries: query attempts that came back [Unknown] (or
          failed model validation) and were re-run one rung up *)
  degraded_queries : int;
      (** ladder final rungs executed on a fresh one-shot solver instead
          of the incremental session *)
  validation_failures : int;
      (** [Sat] models rejected by concrete evaluation of the asserted
          terms (with [validate_models]) *)
  task_retries : int;
      (** crashed pool tasks re-executed on fresh worker state *)
  sat_restarts : int;  (** solver restarts, summed over queries *)
  sat_learnt_kept : int;
      (** learned clauses surviving reduce-DB rounds (each round counts
          its post-reduction database size) *)
  sat_learnt_deleted : int;
      (** learned clauses deleted by reduce-DB rounds *)
  wall_seconds : float;
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
    }  (** the §3.3.1 gate of {!independence} failed; no loop ran *)

val outcome_name : outcome -> string
(** The outcome's wire name, as [owl serve] replies carry it:
    ["solved"], ["timeout"], ["unrealizable"], ["union_failed"] or
    ["not_independent"]. *)

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
    name, not from a session counter).  Every entry point below evaluates
    under it, so hole-variable names agree across calls and repeated runs
    are bit-for-bit reproducible; a test that rebuilds a trace passes it
    too. *)

type independence_report = {
  overlapping : (string * string) list;
      (** pairs one witness decodes together; [[]] iff mutually exclusive *)
  feedback : (string * string * string) list;
      (** {!Independence.check_no_feedback}'s paths *)
}

val independence : problem -> independence_report option
(** The instruction-independence gate (paper §3.3.1) every {!synthesize}
    applies, run alone under {!default_options}: mutual exclusion as one
    query on the {!Resilience} ladder, and no control feedback past the
    abstraction function's assume wires.  [None] when the ladder is
    exhausted.  It evaluates the design under {!problem_prefix}, as every
    entry point does. *)

val ground_reads : Solver.model -> Term.t -> Term.t
(** Replaces residual (hole-address-dependent) memory reads of a
    counterexample-substituted formula by the counterexample's memory
    function: an ite chain over the model's [read_values], reading 0 at
    every other address.  The CEGIS loop calls it on each counterexample;
    it is exposed only for tests. *)

val synthesize :
  ?options:options -> ?cancel:(unit -> bool) -> problem -> outcome
(** Runs the gate of {!independence} ([Not_independent], or [Timeout]
    on an exhausted ladder; its solver work is traced on its span, not
    counted in stats), then CEGIS according to [options].  [cancel] (default
    [fun () -> false]) is a cooperative cancellation token — a daemon
    passes a closure over an [Atomic.t] it flips when the requesting
    client disconnects; the engine polls it alongside the deadline and
    raises {!Cancelled}.  It is a parameter rather than an [options]
    field so [options] stays a first-class, comparable, serializable
    value.  With [options.jobs > 1] and no
    [Shared] holes, the independent per-instruction loops are fanned out
    over a {!Pool} of worker domains.  Every schedule, [jobs = 1]
    included, runs every instruction's loop even after one fails, and
    merges deterministically: [bindings]/[per_instr] in instruction
    order, stats computed from every loop's solver attempts once all
    loops have finished, the lowest-indexed failing instruction blamed on
    failure.  So the outcome and its stats are the
    same for any [jobs].  When [Shared] holes force joint synthesis, the
    one serial loop ignores [jobs].  The [conflict_budget] is global to
    the call; under parallel schedules the exact query at which an
    exhausted budget is noticed may vary, but unlimited-budget runs are
    bit-for-bit deterministic.

    With [options.incremental] (the default) each CEGIS loop keeps one
    session per verify query and one synth session for its lifetime, and
    drops them when it returns: counterexample constraints are asserted
    once and accumulate, candidate violations are asserted behind
    activation literals and retracted when refuted, and the Tseitin cache
    re-encodes only each iteration's new cones.  The
    sessions are per loop (never shared between instructions), so
    incremental bindings are identical for any [jobs] value; they may
    differ from fresh-mode bindings (both satisfy the specification — the
    solver's search visits models in a different order when state
    persists). *)

(** {1 Checks with the control fixed}

    With no hole left to choose, the refinement question is one query per
    instruction: is {!Ila.Conditions.violation} unsatisfiable?  This is
    how a completed design, synthesized or hand-written, is formally
    checked against the specification.

    {!verify}, {!monolithic_violation} and the CEGIS verify step share
    one step, {e refinement under the precondition} (see {!Refine}): the
    instruction-word fields (opcode, funct3, funct7) and the width-1
    literals (a pipelined core's assumed [bvnot p_valid]) that the
    violation's own top-level conjuncts pin are substituted structurally,
    so the decode comparisons fold and the datapath's operation-selection
    and forwarding muxes collapse before bit-blasting.  Without it,
    verifying a core whose ALU tree contains wide multipliers or dividers
    is intractable.  A refined model gets its pinned bits patched back and
    must satisfy the unrefined violation by evaluation; only if it does
    not is the unrefined violation re-checked (the [recheck] argument of
    the [cegis.verify] and [verify.instr] spans).  In {!verify} the
    refined query climbs the same {!Resilience} ladder as a synthesis
    query: escalating rungs, deadline slices over the instructions still
    outstanding, a final rung on a fresh one-shot solver, and with
    [validate_models] every Sat model concretely evaluated before it is
    trusted.  Only an exhausted ladder reads differently, [Inconclusive]
    where synthesis reports [Timeout]. *)

type verdict = Verified | Violated of Solver.model | Inconclusive

val verdict_name : verdict -> string
(** ["verified"], ["violated"] or ["inconclusive"]: the name trace spans
    and [owl serve] replies carry. *)

val verify :
  ?options:options -> ?cancel:(unit -> bool) -> problem -> (string * verdict) list
(** Raises {!Engine_error} if the design still has holes, and
    {!Cancelled} if [cancel] (polled at every resilience-ladder attempt)
    reports true.  [options] (default {!default_options}) is read as in
    {!synthesize}, with two differences: [conflict_budget] bounds each
    instruction's ladder rather than the whole call, and [mode],
    [max_iterations], [cache] and the independence gate do not apply.
    [options.jobs] fans the per-instruction refinement checks out across
    worker domains; the verdict list keeps instruction order either way.
    [deadline_seconds] counts from the call.

    With [options.incremental] (the default) each worker reuses one
    solver session across the instructions it checks whose violations
    pin nothing: their queries are the same datapath formula, blasted
    once per worker.  An instruction with pins is specialized to itself
    by refinement, shares almost nothing with the others, and is checked
    on its own one-shot solver, so no later query propagates through its
    retracted cone.  Which instructions share a session depends on the
    dynamic schedule; with an unexhausted budget this never changes a
    verdict, but the counterexample model of an unpinned instruction may
    depend on it, and under a tight budget the exact query that exhausts
    it may differ from the fresh mode's.  Crashed worker tasks are retried
    up to [retries] times on a fresh session; cancellation is never
    retried. *)

val monolithic_violation : problem -> Term.t
(** The monolithic ∀-verify query in closed form: the disjunction over
    all instructions of their refined violations on the completed
    design's trace — Unsat iff the design is correct.  This is the
    per-iteration verification query of the monolithic schedule mode,
    exported so benches and tools can attack the hard query directly
    (e.g. {!Portfolio.check}) without driving the CEGIS loop.  Each
    disjunct is refined under its own pins first, as in {!verify}.  Raises {!Engine_error} if the design still has holes. *)
