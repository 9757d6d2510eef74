(* Control logic synthesis (paper §3.3).

   The ∃∀ sketch-filling problem of Equation (1) is decided by CEGIS:

     synth  phase: find hole constants satisfying (Pre -> Post) on every
                   counterexample state collected so far (a ground SAT query
                   over hole bits only);
     verify phase: with holes fixed, search for a state with Pre ∧ ¬Post;
                   UNSAT proves the candidate correct, a model becomes a new
                   counterexample.

   Three strategies, selected by hole kinds and [mode]:

   - independent (Per_instruction mode, no Shared holes): each instruction
     gets its own CEGIS loop over its own copy of the hole constants — the
     paper's §3.3.1 optimization; results are joined by the control union.

   - joint (Per_instruction mode with Shared holes, e.g. FSM state
     encodings): one synthesis loop over all constants, but verification
     stays per-instruction (small queries).

   - monolithic (Monolithic mode, the paper's "without optimization" rows):
     verification is a single query over the disjunction of all instructions'
     violation formulas — the formula whose size makes solving times explode
     (Table 1). *)

type mode = Per_instruction | Monolithic

(* Engine configuration, grouped by concern.  The flat 10-field record
   had outgrown itself: every new knob touched every construction site.
   Callers now start from [default_options] and pipe through [with_*]
   builders, which also centralize validation — a record a builder
   produced is well-formed by construction. *)

module Schedule = struct
  type t = {
    mode : mode;
    jobs : int;  (* worker domains for independent per-instruction loops *)
  }
end

module Budget = struct
  type t = {
    conflict_budget : int;  (* total SAT conflicts before declaring timeout *)
    max_iterations : int;  (* CEGIS rounds per loop *)
    deadline_seconds : float option;  (* wall-clock timeout *)
  }
end

module Recovery = struct
  type t = {
    retries : int;
        (* extra attempts per solver query when an attempt comes back
           Unknown (or its model fails validation); see Resilience *)
    escalation_factor : int;  (* geometric budget/time growth per attempt *)
    validate_models : bool;
        (* cross-check every Sat model by concrete evaluation of the
           asserted terms before trusting it *)
  }
end

type options = {
  schedule : Schedule.t;
  budget : Budget.t;
  recovery : Recovery.t;
  check_independence : bool;
      (* verify the instruction-independence preconditions (paper 3.3.1)
         before synthesizing; abstraction-function assume wires act as the
         permitted feedback cuts *)
  incremental : bool;
      (* reuse one solver session per CEGIS loop (SAT state, blasting
         cache, learned clauses survive across iterations) instead of a
         fresh solver per query *)
  cache : Owl_cache.t option;
      (* cross-run synthesis cache: consult before each per-instruction
         CEGIS loop, populate after *)
}

let default_options =
  {
    schedule = { Schedule.mode = Per_instruction; jobs = 1 };
    budget =
      {
        Budget.conflict_budget = max_int;
        max_iterations = 256;
        deadline_seconds = None;
      };
    recovery =
      {
        Recovery.retries = Resilience.default.Resilience.retries;
        escalation_factor = Resilience.default.Resilience.escalation_factor;
        validate_models = Resilience.default.Resilience.validate_models;
      };
    check_independence = false;
    incremental = true;
    cache = None;
  }

let with_mode mode o = { o with schedule = { o.schedule with Schedule.mode } }

let with_jobs jobs o =
  if jobs < 1 then invalid_arg "Engine.with_jobs: jobs < 1";
  { o with schedule = { o.schedule with Schedule.jobs } }

let with_conflict_budget conflict_budget o =
  { o with budget = { o.budget with Budget.conflict_budget } }

let with_max_iterations max_iterations o =
  if max_iterations < 1 then
    invalid_arg "Engine.with_max_iterations: max_iterations < 1";
  { o with budget = { o.budget with Budget.max_iterations } }

let with_deadline deadline_seconds o =
  { o with budget = { o.budget with Budget.deadline_seconds } }

(* The recovery builders delegate validation to Resilience.make so the
   engine and the standalone Resilience API can never drift apart. *)
let check_recovery (r : Recovery.t) =
  ignore
    (Resilience.make ~retries:r.Recovery.retries
       ~escalation_factor:r.Recovery.escalation_factor
       ~validate_models:r.Recovery.validate_models ())

let with_retries retries o =
  let recovery = { o.recovery with Recovery.retries } in
  check_recovery recovery;
  { o with recovery }

let with_escalation_factor escalation_factor o =
  let recovery = { o.recovery with Recovery.escalation_factor } in
  check_recovery recovery;
  { o with recovery }

let with_validate_models validate_models o =
  { o with recovery = { o.recovery with Recovery.validate_models } }

let with_check_independence check_independence o = { o with check_independence }
let with_incremental incremental o = { o with incremental }
let with_cache cache o = { o with cache }

let policy_of_options (o : options) =
  Resilience.make ~retries:o.recovery.Recovery.retries
    ~escalation_factor:o.recovery.Recovery.escalation_factor
    ~validate_models:o.recovery.Recovery.validate_models ()

type stats = {
  mutable iterations : int;
  mutable queries : int;
  mutable conflicts : int;
  mutable blasted_vars : int;
  mutable blasted_clauses : int;
  mutable trivial_unsats : int;
  mutable retried_queries : int;
  mutable degraded_queries : int;
  mutable validation_failures : int;
  mutable task_retries : int;
  mutable sat_restarts : int;
  mutable sat_learnt_kept : int;
  mutable sat_learnt_deleted : int;
  mutable wall_seconds : float;
}

type solved = {
  completed : Oyster.Ast.design;
  bindings : (string * Oyster.Ast.expr) list;
  per_instr : (string * (string * Bitvec.t) list) list;
  shared : (string * Bitvec.t) list;
  pre_exprs : (string * Oyster.Ast.expr) list;
      (* each instruction's precondition over the datapath namespace *)
  stats : stats;
}

type outcome =
  | Solved of solved
  | Timeout of stats
  | Unrealizable of { instr : string option; stats : stats }
  | Union_failed of { diagnostic : string; stats : stats }
  | Not_independent of {
      overlapping : (string * string) list;
      feedback : (string * string * string) list;
      stats : stats;
    }

exception Engine_error = Synth_error.Engine_error

let fail fmt = Synth_error.fail fmt

type problem = {
  design : Oyster.Ast.design;
  spec : Ila.Spec.t;
  af : Ila.Absfun.t;
}

(* A deterministic symbolic-evaluation namespace per problem.  A fresh
   session counter would make a second [synthesize] call in the same
   process allocate differently-named variables, perturbing solver search
   and hence which of several correct models it returns; with the solver
   re-entrant and terms hash-consed globally, reusing the same names (and
   thus the exact same term nodes) across calls is safe and makes repeated
   runs — serial or parallel — bit-for-bit reproducible. *)
let problem_prefix (problem : problem) =
  "p!" ^ problem.design.Oyster.Ast.name ^ "!"

(* {1 Internal bookkeeping} *)

(* One [run] per worker: [stats] is that worker's private tally (the
   scheduler sums the tallies afterwards), while [consumed] is shared by
   every worker of a synthesis call so the conflict budget bounds the whole
   call, not each loop separately. *)
type run = {
  opts : options;
  stats : stats;
  consumed : int Atomic.t;  (* conflicts consumed across all workers *)
  started : float;
  hole_marker : string;  (* prefix identifying hole variables *)
  policy : Resilience.policy;  (* derived once from [opts] *)
  tasks_left : int Atomic.t;
      (* per-instruction tasks not yet completed, shared by all workers:
         the denominator of the resilience ladder's deadline slices *)
  cancel : unit -> bool;
      (* cooperative cancellation token, polled wherever the deadline is
         checked; a closure rather than an options field so the options
         record stays structurally comparable and wire-serializable *)
}

exception Stop of outcome
exception Cancelled

let now () = Unix.gettimeofday ()

let fresh_stats () =
  {
    iterations = 0;
    queries = 0;
    conflicts = 0;
    blasted_vars = 0;
    blasted_clauses = 0;
    trivial_unsats = 0;
    retried_queries = 0;
    degraded_queries = 0;
    validation_failures = 0;
    task_retries = 0;
    sat_restarts = 0;
    sat_learnt_kept = 0;
    sat_learnt_deleted = 0;
    wall_seconds = 0.0;
  }

let merge_stats into from =
  into.iterations <- into.iterations + from.iterations;
  into.queries <- into.queries + from.queries;
  into.conflicts <- into.conflicts + from.conflicts;
  into.blasted_vars <- into.blasted_vars + from.blasted_vars;
  into.blasted_clauses <- into.blasted_clauses + from.blasted_clauses;
  into.trivial_unsats <- into.trivial_unsats + from.trivial_unsats;
  into.retried_queries <- into.retried_queries + from.retried_queries;
  into.degraded_queries <- into.degraded_queries + from.degraded_queries;
  into.validation_failures <-
    into.validation_failures + from.validation_failures;
  into.task_retries <- into.task_retries + from.task_retries;
  into.sat_restarts <- into.sat_restarts + from.sat_restarts;
  into.sat_learnt_kept <- into.sat_learnt_kept + from.sat_learnt_kept;
  into.sat_learnt_deleted <- into.sat_learnt_deleted + from.sat_learnt_deleted

(* Rebuild an outcome around the scheduler's merged stats (worker Stop
   payloads carry only that worker's tally). *)
let with_stats stats = function
  | Solved s -> Solved { s with stats }
  | Timeout _ -> Timeout stats
  | Unrealizable { instr; _ } -> Unrealizable { instr; stats }
  | Union_failed { diagnostic; _ } -> Union_failed { diagnostic; stats }
  | Not_independent { overlapping; feedback; _ } ->
      Not_independent { overlapping; feedback; stats }

let check_deadline run =
  if run.cancel () then raise Cancelled;
  run.stats.wall_seconds <- now () -. run.started;
  match run.opts.budget.Budget.deadline_seconds with
  | Some d when run.stats.wall_seconds > d -> raise (Stop (Timeout run.stats))
  | _ -> ()

(* Common bookkeeping for one solver query.  Session checks report
   per-check increments (see {!Solver.stats}), so summing them here gives
   the same totals as the one-shot path: [blasted_clauses] counts every
   problem clause encoded across the run — the headline metric the
   incremental mode is meant to shrink — and [consumed] deducts only the
   conflicts of this query from the shared budget pool. *)
let account run (st : Solver.stats) =
  run.stats.queries <- run.stats.queries + 1;
  run.stats.conflicts <- run.stats.conflicts + st.Solver.sat_conflicts;
  run.stats.blasted_vars <- run.stats.blasted_vars + st.Solver.sat_vars;
  run.stats.blasted_clauses <-
    run.stats.blasted_clauses + st.Solver.sat_clauses;
  run.stats.sat_restarts <- run.stats.sat_restarts + st.Solver.sat_restarts;
  run.stats.sat_learnt_kept <-
    run.stats.sat_learnt_kept + st.Solver.sat_learnt_kept;
  run.stats.sat_learnt_deleted <-
    run.stats.sat_learnt_deleted + st.Solver.sat_learnt_deleted;
  if st.Solver.trivially_unsat then
    run.stats.trivial_unsats <- run.stats.trivial_unsats + 1;
  ignore (Atomic.fetch_and_add run.consumed st.Solver.sat_conflicts)

let budget_remaining run =
  check_deadline run;
  let remaining = run.opts.budget.Budget.conflict_budget - Atomic.get run.consumed in
  if remaining <= 0 then raise (Stop (Timeout run.stats));
  remaining

let query_deadline run =
  Option.map (fun d -> run.started +. d) run.opts.budget.Budget.deadline_seconds

(* {1 Model validation}

   The runtime guard against trusting a wrong [Sat] model (a latent
   session bug, or an injected corruption): evaluate the asserted terms
   concretely under the model and require every one to hold.  The
   evaluation environment mirrors the solver's own defaulting rules —
   variables the blaster simplified away take any value (zero), residual
   memory reads resolve through the model's read instances (Ackermann
   congruence makes that canonical), absent addresses default to zero
   exactly as [cex_env] exposes them — so a model the solver honestly
   produced always passes. *)

let model_env (model : Solver.model) =
  {
    Term.lookup_var =
      (fun n w ->
        match model.Solver.var_value n with
        | Some v -> Some v
        | None -> Some (Bitvec.zero w));
    Term.lookup_read =
      (fun m a ->
        match Solver.read_lookup model m a with
        | Some v -> Some v
        | None -> Some (Bitvec.zero m.Term.data_width));
  }

let model_satisfies model terms =
  let env = model_env model in
  List.for_all (fun t -> Bitvec.is_ones (Term.eval env t)) terms

(* {1 The resilient query ladder}

   One logical query runs as up to [retries + 1] attempts (see
   {!Resilience}): escalating conflict budgets, per-task deadline slices,
   and a final attempt that degrades from the incremental session to a
   fresh one-shot solver.  [check] performs the query in its primary mode;
   [fresh] re-states the same query against a fresh solver (the degraded
   mode); [validate] lazily names the terms any [Sat] model must satisfy
   concretely when model validation is on.

   An [Unknown] on a non-final attempt retries one rung up; on the final
   attempt it raises [Stop (Timeout _)] — the ladder is the only place
   that turns solver Unknowns into engine timeouts ([verify] reads them
   as Inconclusive).  A validation failure retries like an Unknown,
   except that it always earns a fresh-solver rung (even with
   [retries = 0] the engine never emits bindings from an unvalidated
   model just because retrying is disabled), and a failure
   {e on} the fresh rung is a hard error: at that point the model came
   from a stateless solver, so something is wrong beyond a transient. *)
let resilient run ~check ~fresh ~validate =
  let p = run.policy in
  let total = run.opts.budget.Budget.conflict_budget in
  let attempts = Resilience.attempts p in
  let rec go attempt =
    let remaining = budget_remaining run in
    (* [attempt] exceeds [attempts] only on the bonus validation rung *)
    let rung = min attempt attempts in
    let use_fresh = attempt > 1 && attempt >= attempts in
    let final = attempt >= attempts in
    let budget = Resilience.attempt_budget p ~total ~remaining ~attempt:rung in
    let deadline =
      Resilience.slice_deadline p ~now:(now ()) ~hard:(query_deadline run)
        ~tasks_left:(Atomic.get run.tasks_left) ~attempt:rung
    in
    if use_fresh then begin
      run.stats.degraded_queries <- run.stats.degraded_queries + 1;
      if Obs.recording () then
        Obs.instant "resilience.degrade" ~args:[ ("attempt", Obs.Int attempt) ]
    end;
    let result =
      Obs.span "resilience.attempt"
        ~args:
          [
            ("attempt", Obs.Int attempt);
            ("budget", Obs.Int budget);
            ("fresh", Obs.Bool use_fresh);
          ]
        ~result:(fun r -> [ ("result", Obs.Str (Solver.outcome_name r)) ])
        (fun () ->
          if use_fresh then fresh ~budget ?deadline ()
          else check ~budget ?deadline ())
    in
    account run (Solver.stats_of result);
    match result with
    | Solver.Unknown _ ->
        if final then raise (Stop (Timeout run.stats))
        else begin
          run.stats.retried_queries <- run.stats.retried_queries + 1;
          if Obs.recording () then
            Obs.instant "resilience.retry"
              ~args:
                [ ("attempt", Obs.Int attempt); ("reason", Obs.Str "unknown") ];
          go (attempt + 1)
        end
    | Solver.Sat (m, _)
      when p.Resilience.validate_models
           && not (model_satisfies m (validate ())) ->
        run.stats.validation_failures <- run.stats.validation_failures + 1;
        if Obs.recording () then
          Obs.instant "resilience.validation_failure"
            ~args:
              [ ("attempt", Obs.Int attempt); ("fresh", Obs.Bool use_fresh) ];
        if use_fresh then
          fail
            "model validation failed on a fresh solver (persistent fault or \
             solver bug)"
        else begin
          run.stats.retried_queries <- run.stats.retried_queries + 1;
          if Obs.recording () then
            Obs.instant "resilience.retry"
              ~args:
                [
                  ("attempt", Obs.Int attempt);
                  ("reason", Obs.Str "validation_failure");
                ];
          go (attempt + 1)
        end
    | r -> r
  in
  go 1

let solver_query run assertions =
  let q ~budget ?deadline () =
    Solver.check ~budget ?deadline assertions
  in
  resilient run ~check:q ~fresh:q ~validate:(fun () -> assertions)

(* The incremental counterpart: the query runs inside a persistent session
   ([assertions] are asserted permanently — once, before the ladder, so
   retries re-search without re-asserting — and [assumptions] name
   retractable guards).  [shadow] must restate the whole logical query as
   plain terms: it is what the degraded fresh-solver rung solves and what
   model validation evaluates. *)
let session_query ?assumptions ~shadow run sess assertions =
  List.iter (Solver.Session.assert_always sess) assertions;
  resilient run
    ~check:(fun ~budget ?deadline () ->
      Solver.Session.check_with ?assumptions ~budget ?deadline sess [])
    ~fresh:(fun ~budget ?deadline () ->
      Solver.check ~budget ?deadline (shadow ()))
    ~validate:shadow

let is_hole_var run name =
  (* hole variables are <prefix>hole!<name> plus the per-instruction suffix *)
  let m = run.hole_marker in
  let lm = String.length m in
  String.length name >= lm && String.sub name 0 lm = m

(* Substitution environments. *)

let candidate_env run (candidate : (string, Bitvec.t) Hashtbl.t) =
  {
    Term.lookup_var =
      (fun n _w -> if is_hole_var run n then Hashtbl.find_opt candidate n else None);
    Term.lookup_read = (fun _ _ -> None);
  }

let cex_env run (model : Solver.model) =
  {
    Term.lookup_var =
      (fun n w ->
        if is_hole_var run n then None
        else
          match model.Solver.var_value n with
          | Some v -> Some v
          | None -> Some (Bitvec.zero w));
    Term.lookup_read =
      (fun m a ->
        match
          List.find_opt
            (fun (name, addr, _) ->
              String.equal name m.Term.mem_name && Bitvec.equal addr a)
            model.Solver.read_values
        with
        | Some (_, _, v) -> Some v
        | None -> Some (Bitvec.zero m.Term.data_width));
  }

(* Ground the residual memory reads of a counterexample-substituted formula.

   [Term.substitute] resolves reads whose address is concrete, but a read
   whose address depends on a hole stays symbolic.  Left free, the synthesis
   phase could satisfy its constraints by inventing memory contents instead
   of fixing the holes (a classic CEGIS degeneracy).  We instead interpret
   every remaining read against the counterexample's memory: an ite chain
   over the model's read set, defaulting to zero — one concrete memory, the
   same one [cex_env] exposes for concrete addresses. *)
let ground_reads (model : Solver.model) (root : Term.t) : Term.t =
  let memo = Hashtbl.create 64 in
  let mem_fun (m : Term.mem) addr =
    let entries =
      List.filter
        (fun (name, _, _) -> String.equal name m.Term.mem_name)
        model.Solver.read_values
    in
    List.fold_left
      (fun acc (_, a, v) ->
        Term.ite (Term.eq addr (Term.const a)) (Term.const v) acc)
      (Term.zero m.Term.data_width)
      entries
  in
  let rec go (t : Term.t) =
    match Hashtbl.find_opt memo (Term.id t) with
    | Some r -> r
    | None ->
        let r =
          match t.Term.node with
          | Term.Const _ | Term.Var _ -> t
          | Term.Not x -> Term.bnot (go x)
          | Term.Binop (op, a, b) -> (
              let a = go a and b = go b in
              match op with
              | Term.And -> Term.band a b
              | Term.Or -> Term.bor a b
              | Term.Xor -> Term.bxor a b
              | Term.Add -> Term.add a b
              | Term.Sub -> Term.sub a b
              | Term.Mul -> Term.mul a b
              | Term.Udiv -> Term.udiv a b
              | Term.Urem -> Term.urem a b
              | Term.Sdiv -> Term.sdiv a b
              | Term.Srem -> Term.srem a b
              | Term.Clmul -> Term.clmul a b
              | Term.Clmulh -> Term.clmulh a b
              | Term.Shl -> Term.shl a b
              | Term.Lshr -> Term.lshr a b
              | Term.Ashr -> Term.ashr a b)
          | Term.Cmp (op, a, b) -> (
              let a = go a and b = go b in
              match op with
              | Term.Eq -> Term.eq a b
              | Term.Ult -> Term.ult a b
              | Term.Ule -> Term.ule a b
              | Term.Slt -> Term.slt a b
              | Term.Sle -> Term.sle a b)
          | Term.Ite (c, a, b) -> Term.ite (go c) (go a) (go b)
          | Term.Extract (h, l, x) -> Term.extract ~high:h ~low:l (go x)
          | Term.Concat (a, b) -> Term.concat (go a) (go b)
          | Term.Table (tb, i) -> Term.table_read tb (go i)
          | Term.Read (m, a) -> mem_fun m (go a)
        in
        Hashtbl.add memo (Term.id t) r;
        r
  in
  go root

(* Grounds [f] against a counterexample: substitution, then
   [ground_reads], each under its own span so a traced run times them apart
   from the solver queries. *)
let ground model env f =
  let t = Obs.span "cegis.substitute" (fun () -> Term.substitute env f) in
  Obs.span "cegis.ground_reads" (fun () -> ground_reads model t)

(* {1 Verification of completed designs}

   With no holes in play this is plain bounded refinement checking: for
   every instruction, Pre /\ assumes /\ not Post must be unsatisfiable over
   the completed design's symbolic trace.  This is how a hand-written (or
   previously synthesized) control implementation is formally checked
   against the specification. *)

type verdict = Verified | Violated of Solver.model | Inconclusive

let verify ?(options = default_options) ?(cancel = fun () -> false)
    (problem : problem) : (string * verdict) list =
  if Oyster.Ast.holes problem.design <> [] then
    fail "Engine.verify: design still has holes (synthesize first)";
  let trace =
    Oyster.Symbolic.eval ~prefix:(problem_prefix problem) problem.design
      ~cycles:problem.af.Ila.Absfun.cycles
  in
  let conds = Ila.Conditions.compile problem.spec problem.af trace in
  let base =
    {
      opts = options;
      stats = fresh_stats ();
      consumed = Atomic.make 0;
      started = now ();
      hole_marker = trace.Oyster.Symbolic.prefix ^ "hole!";
      policy = policy_of_options options;
      tasks_left = Atomic.make (List.length conds);
      cancel;
    }
  in
  let retries = options.recovery.Recovery.retries in
  (* Each instruction's refinement check is an independent solver query, so
     they fan out over the worker pool; results keep instruction order.
     Incrementally, every worker keeps one session for all the instructions
     it picks up: the refined violations share the datapath trace, so the
     blasting cache re-encodes only each instruction's decode-specific
     cones.  Which instructions share a worker's session depends on the
     dynamic schedule, but with an unexhausted budget that only perturbs
     search order, never the Verified/Violated verdict.  Tasks crashed by
     an injected fault are retried on a fresh arena like the synthesis
     pool's. *)
  try
    Pool.map_arena ~jobs:options.schedule.Schedule.jobs
      ~make:Solver.Arena.create
      ~retries
      (fun arena (c : Ila.Conditions.conditions) ->
      Obs.span "verify.instr"
        ~args:[ ("instr", Obs.Str c.Ila.Conditions.instr_name) ]
        ~result:(fun (_, v) ->
          [
            ( "verdict",
              Obs.Str
                (match v with
                | Verified -> "verified"
                | Violated _ -> "violated"
                | Inconclusive -> "inconclusive") );
          ])
      @@ fun () ->
      (* [conflict_budget] bounds each instruction's ladder, not the call *)
      let run = { base with stats = fresh_stats (); consumed = Atomic.make 0 } in
      let violation =
        Term.band c.Ila.Conditions.pre
          (Term.band c.Ila.Conditions.assumes (Term.bnot c.Ila.Conditions.post))
      in
      (* Field refinement (see Refine): substitute the instruction-word
         fields the precondition pins into the fetched word, so the decode
         folds and the operation-selection muxes collapse before
         bit-blasting.  Verifying hand-written control over an ALU tree
         with 64-bit multiplier/divider cones is intractable without it. *)
      let pins = Refine.collect c.Ila.Conditions.pre in
      let refined = Refine.apply pins violation in
      (* the ladder of [synthesize]; only an exhausted ladder reads
         differently here — Inconclusive rather than Timeout *)
      let ladder query =
        try query () with Stop _ -> Solver.Unknown Solver.empty_stats
      in
      let refined_outcome =
        if options.incremental then begin
          let s = Solver.Arena.shared arena in
          let g = Solver.Session.assert_retractable s refined in
          let r =
            ladder (fun () ->
                session_query ~assumptions:[ g ]
                  ~shadow:(fun () -> [ refined ])
                  run s [])
          in
          Solver.Session.retract s g;
          r
        end
        else ladder (fun () -> solver_query run [ refined ])
      in
      let verdict =
        match refined_outcome with
        | Solver.Unsat _ -> Verified
        | Solver.Unknown _ -> Inconclusive
        | Solver.Sat (m, _) -> (
            (* The refined model lacks the pinned bits (they folded away);
               re-check the original formula to report a faithful
               counterexample.  A fresh check keeps the reported model
               deterministic even under parallel incremental schedules;
               violations are found quickly in practice, so the extra
               query is cheap. *)
            match
              Solver.check
                ~budget:options.budget.Budget.conflict_budget
                ?deadline:(query_deadline run) [ violation ]
            with
            | Solver.Sat (m', _) -> Violated m'
            | Solver.Unsat _ | Solver.Unknown _ -> Violated m)
      in
      ignore (Atomic.fetch_and_add run.tasks_left (-1));
      (c.Ila.Conditions.instr_name, verdict))
      conds
  with Fault.Injected_crash i ->
    fail "Engine.verify: worker task attempt %d crashed and exhausted %d retries"
      i retries

(* The monolithic ∀-verify query in closed form: the disjunction, over
   every instruction of the spec, of "this instruction's precondition and
   assumptions hold yet its postcondition fails" on the completed
   design's symbolic trace.  Unsat iff the design is correct.  This is
   the query the monolithic schedule mode poses each CEGIS iteration —
   the one the paper's headline table shows timing out — exported so
   benches and tools can attack it directly (structural cube-and-conquer)
   without driving the full synthesis loop.

   [refine] folds each disjunct's pinned instruction-word fields first
   (see Refine), collapsing decode per disjunct the way [verify] does
   per query.  Unrefined, the full decode tree survives into the blast:
   that is the hard form. *)
let monolithic_violation ?(refine = true) (problem : problem) : Term.t =
  if Oyster.Ast.holes problem.design <> [] then
    fail "Engine.monolithic_violation: design still has holes (synthesize first)";
  let trace =
    Oyster.Symbolic.eval ~prefix:(problem_prefix problem) problem.design
      ~cycles:problem.af.Ila.Absfun.cycles
  in
  let conds = Ila.Conditions.compile problem.spec problem.af trace in
  if conds = [] then fail "Engine.monolithic_violation: specification has no instructions";
  Term.disj
    (List.map
       (fun (c : Ila.Conditions.conditions) ->
         let violation =
           Term.band c.Ila.Conditions.pre
             (Term.band c.Ila.Conditions.assumes
                (Term.bnot c.Ila.Conditions.post))
         in
         if refine then
           Refine.apply (Refine.collect c.Ila.Conditions.pre) violation
         else violation)
       conds)

(* {1 The synthesis core} *)

let synthesize ?(options = default_options) ?(cancel = fun () -> false)
    (problem : problem) : outcome =
  if options.schedule.Schedule.jobs < 1 then fail "Engine.synthesize: options.schedule.Schedule.jobs < 1";
  let stats = fresh_stats () in
  let started = now () in
  let trace =
    Oyster.Symbolic.eval ~prefix:(problem_prefix problem) problem.design
      ~cycles:problem.af.Ila.Absfun.cycles
  in
  let run =
    {
      opts = options;
      stats;
      consumed = Atomic.make 0;
      started;
      hole_marker = trace.Oyster.Symbolic.prefix ^ "hole!";
      policy = policy_of_options options;
      tasks_left = Atomic.make 1;
      cancel;
    }
  in
  try
    let conds = Ila.Conditions.compile problem.spec problem.af trace in
    if conds = [] then fail "specification has no instructions";
    let holes = Oyster.Ast.holes problem.design in
    if holes = [] then fail "sketch has no holes";
    if options.check_independence then begin
      let allowed_cuts = List.map fst problem.af.Ila.Absfun.assumes in
      let excl = Independence.check_mutual_exclusion conds in
      let fb = Independence.check_no_feedback ~allowed_cuts problem.design in
      if
        excl.Independence.overlapping <> []
        || fb.Independence.feedback_paths <> []
      then
        raise
          (Stop
             (Not_independent
                {
                  overlapping = excl.Independence.overlapping;
                  feedback = fb.Independence.feedback_paths;
                  stats = run.stats;
                }))
    end;
    let shared_holes, per_holes =
      List.partition
        (fun (h : Oyster.Ast.hole_decl) -> h.Oyster.Ast.kind = Oyster.Ast.Shared)
        holes
    in
    let hole_var (h : Oyster.Ast.hole_decl) =
      match List.assoc_opt h.Oyster.Ast.hole_name trace.Oyster.Symbolic.hole_terms with
      | Some t -> (
          match t.Term.node with
          | Term.Var n -> (n, Term.width t)
          | _ -> fail "hole %s was not evaluated as a variable" h.Oyster.Ast.hole_name)
      | None ->
          (* hole unused by any statement: synthesize an arbitrary constant *)
          (run.hole_marker ^ h.Oyster.Ast.hole_name, h.Oyster.Ast.hole_width)
    in
    let per_hole_vars = List.map hole_var per_holes in
    let shared_hole_vars = List.map hole_var shared_holes in
    (* Per-instruction renaming of the Per_instruction hole constants. *)
    let renamed_var (base, _w) iname = base ^ "!!" ^ iname in
    let rename_for iname t =
      Term.rename
        (fun n ->
          if List.exists (fun (base, _) -> String.equal base n) per_hole_vars then
            Some (n ^ "!!" ^ iname)
          else None)
        t
    in
    let formulas =
      List.map
        (fun (c : Ila.Conditions.conditions) ->
          let pre = Term.band c.Ila.Conditions.pre c.Ila.Conditions.assumes in
          let correct =
            Term.implies pre c.Ila.Conditions.post |> rename_for c.Ila.Conditions.instr_name
          in
          let violation =
            Term.band pre (Term.bnot c.Ila.Conditions.post)
            |> rename_for c.Ila.Conditions.instr_name
          in
          (c, correct, violation))
        conds
    in
    let instr_names =
      List.map (fun (c : Ila.Conditions.conditions) -> c.Ila.Conditions.instr_name) conds
    in
    let hole_vars_of_instr iname =
      List.map (fun hv -> (renamed_var hv iname, snd hv)) per_hole_vars
      @ shared_hole_vars
    in
    let candidate : (string, Bitvec.t) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun iname ->
        List.iter
          (fun (n, w) -> Hashtbl.replace candidate n (Bitvec.zero w))
          (hole_vars_of_instr iname))
      instr_names;
    (* Update hole values in [tbl] from a synthesis model.  Variables the
       model does not constrain (simplified away, or belonging to another
       instruction's already-solved loop) keep their current value. *)
    let refresh_table tbl model =
      Hashtbl.iter
        (fun n _old ->
          match model.Solver.var_value n with
          | Some v -> Hashtbl.replace tbl n v
          | None -> ())
        (Hashtbl.copy tbl)
    in
    (* Verify one candidate against a (possibly shared) verification
       session: assert the candidate-substituted violation behind a fresh
       activation literal, check with that guard assumed, then retract it.
       The violation's hole-free cones are identical from iteration to
       iteration, so the session's blasting cache re-encodes only the
       folded candidate cones; the retracted guard permanently disables the
       stale candidate's clauses while everything learned stays. *)
    let session_verify trun sess violation candidate =
      let v = Term.substitute (candidate_env trun candidate) violation in
      let g = Solver.Session.assert_retractable sess v in
      let result =
        session_query ~assumptions:[ g ] ~shadow:(fun () -> [ v ]) trun sess []
      in
      Solver.Session.retract sess g;
      match result with
      | Solver.Sat (m, _) -> Some m
      | Solver.Unsat _ -> None
      | Solver.Unknown _ -> fail "internal: resilient query returned Unknown"
    in
    let fresh_verify trun violation candidate =
      let v = Term.substitute (candidate_env trun candidate) violation in
      match solver_query trun [ v ] with
      | Solver.Sat (m, _) -> Some m
      | Solver.Unsat _ -> None
      | Solver.Unknown _ -> fail "internal: resilient query returned Unknown"
    in
    let independent = options.schedule.Schedule.mode = Per_instruction && shared_holes = [] in
    (if independent then begin
       (* The paper's per-instruction strategy: separate small CEGIS loops,
          independent by construction (paper 3.3.1), fanned out across the
          worker pool.  Each task owns its stats and its slice of the
          candidate (the per-instruction renamed hole copies are disjoint),
          so workers share nothing but the term table, the solver (both
          re-entrant) and the conflict-budget counter.  The merge is
          deterministic: results land in instruction order, and on failure
          the lowest-indexed failing instruction is reported — the same one
          the serial schedule blames. *)
       let failed = Atomic.make false in
       let task arena ((c : Ila.Conditions.conditions), correct, violation) =
         Obs.span "cegis.instr"
           ~args:[ ("instr", Obs.Str c.Ila.Conditions.instr_name) ]
           ~result:(fun (r, (ts : stats)) ->
             [
               ( "status",
                 Obs.Str
                   (match r with
                   | `Solved _ -> "solved"
                   | `Skipped -> "skipped"
                   | `Stopped _ -> "stopped") );
               ("iterations", Obs.Int ts.iterations);
               ("queries", Obs.Int ts.queries);
             ])
         @@ fun () ->
         let trun = { run with stats = fresh_stats () } in
         (* serial fallback keeps the historical early exit; parallel
            workers run to completion so blame stays deterministic *)
         if trun.opts.schedule.Schedule.jobs = 1 && Atomic.get failed then (`Skipped, trun.stats)
         else begin
           let iname = c.Ila.Conditions.instr_name in
           let expected_holes = hole_vars_of_instr iname in
           let local : (string, Bitvec.t) Hashtbl.t = Hashtbl.create 16 in
           List.iter
             (fun (n, w) -> Hashtbl.replace local n (Bitvec.zero w))
             expected_holes;
           (* Content-addressed identity of this per-instruction problem.
              [fp] keys the result tier: the canonical serialization of the
              correctness and violation formulas pins the whole problem
              (sketch structure, pre/post, abstraction wires, hole copies),
              and the solver-relevant [incremental] flag rides along.
              Budgets, deadlines, retries, and [jobs] deliberately do not:
              they change how hard the engine tries, never which bindings
              are correct — so jobs=1 and jobs=4 share entries.  [warm_key]
              is coarser: design/instruction/hole signature only, so a
              near-miss problem (same instruction, edited sketch) still
              finds its accumulated counterexamples. *)
           let fp, warm_key =
             match options.cache with
             | None -> ("", "")
             | Some _ ->
                 let holes_line =
                   String.concat " "
                     (List.map
                        (fun (n, w) -> Printf.sprintf "%s:%d" n w)
                        expected_holes)
                 in
                 ( Owl_cache.fingerprint
                     (Printf.sprintf "owl-problem 1\nincremental %b\nholes %s\n%s"
                        options.incremental holes_line
                        (Term.serialize [ correct; violation ])),
                   Owl_cache.fingerprint
                     (Printf.sprintf
                        "owl-warm 1\ndesign %s\ninstr %s\nincremental %b\n\
                         holes %s\n"
                        problem.design.Oyster.Ast.name iname
                        options.incremental holes_line) )
           in
           (* Result tier: a structurally sound entry is only trusted after
              re-proving its bindings by concrete evaluation of the stored
              ground constraints (the validate_models machinery), so a
              stale or corrupted entry degrades to a miss, never to wrong
              control logic. *)
           let cached_result =
             match options.cache with
             | None -> None
             | Some cch ->
                 Obs.span "cache.lookup"
                   ~args:[ ("instr", Obs.Str iname) ]
                   ~result:(fun r -> [ ("hit", Obs.Bool (r <> None)) ])
                   (fun () ->
                     Owl_cache.lookup_result cch ~fp
                       ~validate:(fun bindings constraints ->
                         List.length bindings = List.length expected_holes
                         && List.for_all2
                              (fun (n, w) (bn, bv) ->
                                String.equal n bn && Bitvec.width bv = w)
                              expected_holes bindings
                         &&
                         let env =
                           {
                             Term.lookup_var =
                               (fun n w ->
                                 match List.assoc_opt n bindings with
                                 | Some v when Bitvec.width v = w -> Some v
                                 | _ -> Some (Bitvec.zero w));
                             Term.lookup_read = (fun _ _ -> None);
                           }
                         in
                         List.for_all
                           (fun t -> Bitvec.is_ones (Term.eval env t))
                           constraints))
           in
           match cached_result with
           | Some bindings ->
               List.iter (fun (n, v) -> Hashtbl.replace local n v) bindings;
               ignore (Atomic.fetch_and_add run.tasks_left (-1));
               (`Solved local, trun.stats)
           | None ->
           (* Incremental mode keeps two sessions for the whole loop — one
              for verify queries (candidates come and go via activation
              literals), one for synth queries (counterexample constraints
              only accumulate, so they are asserted permanently).  The
              sessions are per task, not per worker, so the query sequence
              each one sees is independent of the dynamic schedule and the
              bindings are identical for any [jobs].  The synth session
              sits behind a ref: discarding a stale warm-start replay swaps
              in a clean one. *)
           let sessions =
             if options.incremental then
               Some (Solver.Arena.session arena, ref (Solver.Arena.session arena))
             else None
           in
           (* every accumulated ground constraint, newest first — the fresh
              mode's whole query, and in incremental mode the shadow of the
              synth session's asserted set (what the resilience ladder's
              degraded fresh-solver rung re-solves, and what model
              validation evaluates) *)
           let local_constraints = ref [] in
           let verify_candidate () =
             Obs.span "cegis.verify"
               ~args:[ ("instr", Obs.Str c.Ila.Conditions.instr_name) ]
               ~result:(fun r -> [ ("counterexample", Obs.Bool (r <> None)) ])
               (fun () ->
                 match sessions with
                 | Some (vsess, _) -> session_verify trun vsess violation local
                 | None -> fresh_verify trun violation local)
           in
           let synth_with g =
             local_constraints := g :: !local_constraints;
             Obs.span "cegis.synth"
               ~args:
                 [
                   ("instr", Obs.Str c.Ila.Conditions.instr_name);
                   ("constraints", Obs.Int (List.length !local_constraints));
                 ]
               ~result:(fun r -> [ ("result", Obs.Str (Solver.outcome_name r)) ])
               (fun () ->
                 match sessions with
                 | Some (_, ssess) ->
                     session_query ~shadow:(fun () -> !local_constraints) trun
                       !ssess [ g ]
                 | None -> solver_query trun !local_constraints)
           in
           (* Warm-start state worth persisting: the accumulated ground
              counterexample constraints (oldest first, the order a replay
              must re-assert them in) plus the synth session's learned
              clauses.  Stored on success and on timeout — a timed-out
              loop's partial work is exactly what a rerun with a bigger
              budget wants back. *)
           let store_warm_state () =
             match options.cache with
             | None -> ()
             | Some cch ->
                 let cex = List.rev !local_constraints in
                 let clauses =
                   match sessions with
                   | Some (_, ssess) -> Solver.Session.export_learnt !ssess
                   | None -> []
                 in
                 if cex <> [] || clauses <> [] then
                   Owl_cache.store_warm cch ~key:warm_key
                     { Owl_cache.exact_fp = fp; clauses; cex }
           in
           (* Replay persisted warm-start state before the first CEGIS
              round.  Counterexample constraints survive sketch edits (they
              only narrow the hole space, and the loop re-verifies whatever
              they produce), but two soundness guards apply:

              - only constraints over exactly this problem's hole variables
                are usable, and learned clauses are imported only on an
                exact fingerprint match with a full replay — identical
                assertion sequence means identical variable numbering,
                which is what makes foreign clauses sound;
              - if the replayed constraints are already unsatisfiable, the
                staleness is over-constraining an edited sketch: the replay
                is discarded wholesale (clean session, empty constraint
                set) so a stale cache can never turn into a spurious
                Unrealizable. *)
           let replay_warm () =
             match options.cache with
             | None -> ()
             | Some cch -> (
                 match Owl_cache.lookup_warm cch ~key:warm_key with
                 | None -> ()
                 | Some w ->
                     let usable =
                       List.filter
                         (fun t ->
                           List.for_all
                             (fun (n, tw) ->
                               match List.assoc_opt n expected_holes with
                               | Some w' -> w' = tw
                               | None -> false)
                             (Term.vars t))
                         w.Owl_cache.cex
                     in
                     if usable <> [] then begin
                       let full =
                         List.length usable = List.length w.Owl_cache.cex
                       in
                       let imported =
                         match sessions with
                         | Some (_, ssess) ->
                             List.iter
                               (Solver.Session.assert_always !ssess)
                               usable;
                             if full && String.equal w.Owl_cache.exact_fp fp
                             then
                               Solver.Session.import_learnt !ssess
                                 w.Owl_cache.clauses
                             else 0
                         | None -> 0
                       in
                       local_constraints := List.rev usable;
                       if Obs.recording () then
                         Obs.instant "cache.warm_replay"
                           ~args:
                             [
                               ("instr", Obs.Str iname);
                               ("cex", Obs.Int (List.length usable));
                               ("clauses", Obs.Int imported);
                             ];
                       let result =
                         match sessions with
                         | Some (_, ssess) ->
                             session_query
                               ~shadow:(fun () -> !local_constraints)
                               trun !ssess []
                         | None -> solver_query trun !local_constraints
                       in
                       match result with
                       | Solver.Sat (m, _) -> refresh_table local m
                       | Solver.Unsat _ ->
                           if Obs.recording () then
                             Obs.instant "cache.warm_discard"
                               ~args:[ ("instr", Obs.Str iname) ];
                           local_constraints := [];
                           (match sessions with
                           | Some (_, ssess) ->
                               ssess := Solver.Arena.session arena
                           | None -> ())
                       | Solver.Unknown _ ->
                           fail "internal: resilient query returned Unknown"
                     end)
           in
           try
             replay_warm ();
             (* the iteration span closes before the recursive call, so
                nesting depth stays constant however many rounds run *)
             let rec loop iter =
               if iter > options.budget.Budget.max_iterations then
                 raise (Stop (Timeout trun.stats));
               trun.stats.iterations <- trun.stats.iterations + 1;
               let continue =
                 Obs.span "cegis.iteration"
                   ~args:
                     [
                       ("instr", Obs.Str c.Ila.Conditions.instr_name);
                       ("iter", Obs.Int iter);
                     ]
                   ~result:(fun k -> [ ("counterexample", Obs.Bool k) ])
                 @@ fun () ->
                 match verify_candidate () with
                 | None -> false
                 | Some model ->
                     if Obs.recording () then
                       Obs.instant "cegis.counterexample"
                         ~args:
                           [
                             ( "instr",
                               Obs.Str c.Ila.Conditions.instr_name );
                             ("iter", Obs.Int iter);
                           ];
                     let env = cex_env trun model in
                     let g = ground model env correct in
                     (match synth_with g with
                     | Solver.Sat (m, _) -> refresh_table local m
                     | Solver.Unsat _ ->
                         raise
                           (Stop
                              (Unrealizable
                                 {
                                   instr = Some c.Ila.Conditions.instr_name;
                                   stats = trun.stats;
                                 }))
                     | Solver.Unknown _ ->
                         fail "internal: resilient query returned Unknown");
                     true
               in
               if continue then loop (iter + 1)
             in
             loop 1;
             (* populate both tiers: the bindings just proven (with the
                ground constraints as re-checkable evidence) and the
                warm-start state *)
             (match options.cache with
             | None -> ()
             | Some cch ->
                 let bindings =
                   List.map
                     (fun (n, w) ->
                       ( n,
                         match Hashtbl.find_opt local n with
                         | Some v -> v
                         | None -> Bitvec.zero w ))
                     expected_holes
                 in
                 Owl_cache.store_result cch ~fp ~bindings
                   ~constraints:(List.rev !local_constraints);
                 store_warm_state ());
             ignore (Atomic.fetch_and_add run.tasks_left (-1));
             (`Solved local, trun.stats)
           with Stop o ->
             (match o with Timeout _ -> store_warm_state () | _ -> ());
             Atomic.set failed true;
             ignore (Atomic.fetch_and_add run.tasks_left (-1));
             (`Stopped o, trun.stats)
         end
       in
       Atomic.set run.tasks_left (List.length formulas);
       let task_retried = Atomic.make 0 in
       let results =
         try
           Pool.map_arena ~jobs:options.schedule.Schedule.jobs
             ~make:Solver.Arena.create
             ~retries:options.recovery.Recovery.retries ~retried:task_retried task formulas
         with Fault.Injected_crash i ->
           fail
             "worker task attempt %d crashed and exhausted %d retries" i
             options.recovery.Recovery.retries
       in
       run.stats.task_retries <-
         run.stats.task_retries + Atomic.get task_retried;
       (* deterministic merge, in instruction order *)
       List.iter (fun (_, ts) -> merge_stats run.stats ts) results;
       (match
          List.find_map
            (function `Stopped o, _ -> Some o | _ -> None)
            results
        with
       | Some o -> raise (Stop o)
       | None -> ());
       List.iter
         (function
           | `Solved local, _ -> Hashtbl.iter (Hashtbl.replace candidate) local
           | (`Skipped | `Stopped _), _ -> ())
         results
     end
     else begin
       (* joint synthesis; verification granularity depends on the mode.
          Shared holes couple the loops, so this path stays serial. *)
       let corrects = List.map (fun (_, f, _) -> f) formulas in
       let verify_targets =
         match options.schedule.Schedule.mode with
         | Monolithic -> [ Term.disj (List.map (fun (_, _, v) -> v) formulas) ]
         | Per_instruction -> List.map (fun (_, _, v) -> v) formulas
       in
       (* one verify session per target plus one synth session, all on the
          calling domain (this path is serial) *)
       let arena = Solver.Arena.create () in
       let vsessions =
         List.map
           (fun v ->
             (v, if options.incremental then Some (Solver.Arena.session arena) else None))
           verify_targets
       in
       let synth_sess =
         if options.incremental then Some (Solver.Arena.session arena) else None
       in
       (* fresh mode re-sends the whole pool each synth query; incremental
          mode asserts each constraint once, so it only tracks the not yet
          asserted tail *)
       let constraints : Term.t list ref = ref [] in
       let pending : Term.t list ref = ref [] in
       let add_cex_for model =
         let env = cex_env run model in
         List.iter
           (fun f ->
             let g = ground model env f in
             if not (Term.is_true g) then begin
               constraints := g :: !constraints;
               pending := g :: !pending
             end)
           corrects
       in
       let synth_step () =
         let result =
           Obs.span "cegis.synth"
             ~args:
               [
                 ("instr", Obs.Str "joint");
                 ("constraints", Obs.Int (List.length !constraints));
               ]
             ~result:(fun r -> [ ("result", Obs.Str (Solver.outcome_name r)) ])
             (fun () ->
               match synth_sess with
               | Some s ->
                   let fresh = List.rev !pending in
                   pending := [];
                   session_query ~shadow:(fun () -> !constraints) run s fresh
               | None -> solver_query run !constraints)
         in
         match result with
         | Solver.Sat (m, _) -> refresh_table candidate m
         | Solver.Unsat _ ->
             raise (Stop (Unrealizable { instr = None; stats = run.stats }))
         | Solver.Unknown _ ->
             fail "internal: resilient query returned Unknown"
       in
       let verify (v, sess) =
         Obs.span "cegis.verify"
           ~args:[ ("instr", Obs.Str "joint") ]
           ~result:(fun r -> [ ("counterexample", Obs.Bool (r <> None)) ])
           (fun () ->
             match sess with
             | Some s -> session_verify run s v candidate
             | None -> fresh_verify run v candidate)
       in
       let rec loop iter =
         if iter > options.budget.Budget.max_iterations then raise (Stop (Timeout run.stats));
         run.stats.iterations <- run.stats.iterations + 1;
         let continue =
           Obs.span "cegis.iteration"
             ~args:[ ("instr", Obs.Str "joint"); ("iter", Obs.Int iter) ]
             ~result:(fun k -> [ ("counterexample", Obs.Bool k) ])
           @@ fun () ->
           match List.filter_map verify vsessions with
           | [] -> false
           | models ->
               if Obs.recording () then
                 Obs.instant "cegis.counterexample"
                   ~args:
                     [
                       ("instr", Obs.Str "joint");
                       ("iter", Obs.Int iter);
                       ("models", Obs.Int (List.length models));
                     ];
               List.iter add_cex_for models;
               synth_step ();
               true
         in
         if continue then loop (iter + 1)
       in
       loop 1
     end);
    (* assemble results *)
    let per_instr =
      List.map
        (fun iname ->
          ( iname,
            List.map
              (fun ((h : Oyster.Ast.hole_decl), (base, w)) ->
                let v =
                  match Hashtbl.find_opt candidate (renamed_var (base, w) iname) with
                  | Some v -> v
                  | None -> Bitvec.zero w
                in
                (h.Oyster.Ast.hole_name, v))
              (List.combine per_holes per_hole_vars) ))
        instr_names
    in
    let shared =
      List.map
        (fun ((h : Oyster.Ast.hole_decl), (base, w)) ->
          ( h.Oyster.Ast.hole_name,
            match Hashtbl.find_opt candidate base with
            | Some v -> v
            | None -> Bitvec.zero w ))
        (List.combine shared_holes shared_hole_vars)
    in
    (* reconstruct precondition expressions over the datapath namespace *)
    let prefer = List.concat_map (fun (h : Oyster.Ast.hole_decl) -> h.Oyster.Ast.deps) holes in
    let ctx = Reconstruct.ctx_of_trace ~prefer trace in
    let pre_exprs, missing =
      List.fold_left
        (fun (acc, missing) (c : Ila.Conditions.conditions) ->
          match Reconstruct.expr_of_term ctx c.Ila.Conditions.pre with
          | Some e -> ((c.Ila.Conditions.instr_name, e) :: acc, missing)
          | None -> (acc, c.Ila.Conditions.instr_name :: missing))
        ([], []) conds
    in
    run.stats.wall_seconds <- now () -. run.started;
    if missing <> [] then
      Union_failed
        {
          diagnostic =
            Printf.sprintf
              "preconditions of %s are not expressible over the datapath wires"
              (String.concat ", " missing);
          stats = run.stats;
        }
    else begin
      let completed, bindings =
        Union.apply problem.design ~pre_exprs ~shared ~per_instr
      in
      run.stats.wall_seconds <- now () -. run.started;
      Solved { completed; bindings; per_instr; shared; pre_exprs; stats = run.stats }
    end
  with
  | Stop outcome ->
      stats.wall_seconds <- now () -. started;
      (* worker Stop payloads carry only that worker's tally; report the
         merged one *)
      with_stats stats outcome
