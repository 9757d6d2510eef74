(* Control logic synthesis (paper §3.3).

   The ∃∀ sketch-filling problem of Equation (1) is decided by CEGIS:

     synth  phase: find hole constants satisfying (Pre -> Post) on every
                   counterexample state collected so far (a ground SAT query
                   over hole bits only);
     verify phase: with holes fixed, search for a state with Pre ∧ ¬Post;
                   UNSAT proves the candidate correct, a model becomes a new
                   counterexample.

   There is one loop, [cegis], over a list of verify targets and a list of
   correctness formulas.  Three strategies, selected by hole kinds and
   [mode], differ only in what they hand it:

   - independent (Per_instruction mode, no Shared holes): one loop per
     instruction, over its own copy of the hole constants, with one target
     and one formula — the paper's §3.3.1 optimization; results are joined
     by the control union.

   - joint (Per_instruction mode with Shared holes, e.g. FSM state
     encodings): one loop over all constants, with every instruction's
     violation as a separate (small) target.

   - monolithic (Monolithic mode, the paper's "without optimization" rows):
     one loop whose single target is the disjunction of all instructions'
     violation formulas — the formula whose size makes solving times explode
     (Table 1). *)

type mode = Per_instruction | Monolithic

(* Engine configuration.  Callers start from [default_options] and pipe
   through [with_*] builders, which centralize validation — a record a
   builder produced is well-formed by construction. *)

type options = {
  mode : mode;
  jobs : int;  (* worker domains for independent per-instruction loops *)
  conflict_budget : int;  (* total SAT conflicts before declaring timeout *)
  max_iterations : int;  (* CEGIS rounds per loop *)
  deadline_seconds : float option;  (* wall-clock timeout *)
  retries : int;
      (* extra attempts per query on the [Resilience] ladder, and re-runs
         of a crashed pool task *)
  validate_models : bool;
      (* evaluate every Sat model against its terms before trusting it *)
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
    mode = Per_instruction;
    jobs = 1;
    conflict_budget = max_int;
    max_iterations = 256;
    deadline_seconds = None;
    retries = 2;
    validate_models = false;
    incremental = true;
    cache = None;
  }

let with_mode mode o = { o with mode }

let with_jobs jobs o =
  if jobs < 1 then invalid_arg "Engine.with_jobs: jobs < 1";
  { o with jobs }

let with_conflict_budget conflict_budget o = { o with conflict_budget }

let with_max_iterations max_iterations o =
  if max_iterations < 1 then
    invalid_arg "Engine.with_max_iterations: max_iterations < 1";
  { o with max_iterations }

let with_deadline deadline_seconds o = { o with deadline_seconds }

let with_retries retries o =
  if retries < 0 then invalid_arg "Engine.with_retries: retries < 0";
  { o with retries }

let with_validate_models validate_models o = { o with validate_models }

let with_incremental incremental o = { o with incremental }
let with_cache cache o = { o with cache }

type stats = {
  iterations : int;
  queries : int;
  conflicts : int;
  blasted_vars : int;
  blasted_clauses : int;
  trivial_unsats : int;
  retried_queries : int;
  degraded_queries : int;
  validation_failures : int;
  task_retries : int;
  sat_restarts : int;
  sat_learnt_kept : int;
  sat_learnt_deleted : int;
  wall_seconds : float;
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

let outcome_name = function
  | Solved _ -> "solved"
  | Timeout _ -> "timeout"
  | Unrealizable _ -> "unrealizable"
  | Union_failed _ -> "union_failed"
  | Not_independent _ -> "not_independent"

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

(* The two set-up stages every entry point runs before its first query,
   each in its own span so a trace attributes their time. *)
let symbolic_trace (problem : problem) =
  Obs.span "synth.symbolic" (fun () ->
      Oyster.Symbolic.eval ~prefix:(problem_prefix problem) problem.design
        ~cycles:problem.af.Ila.Absfun.cycles)

let compile_conditions (problem : problem) trace =
  Obs.span "synth.conditions" (fun () ->
      Ila.Conditions.compile problem.spec problem.af trace)

(* {1 Internal bookkeeping: the query log} *)

(* How one solver attempt on the ladder ended. *)
type ending =
  | Sat
  | Unsat
  | Retry_unknown  (* an Unknown below the final rung *)
  | Retry_rejected  (* a Sat model that failed validation *)
  | Stopped  (* an Unknown on the final rung: the ladder gave up *)

(* One solver attempt, as [Lane.check] logs it. *)
type attempt = { solver : Solver.stats; fresh : bool; ending : ending }

(* One [run] per loop, and one for the gate and each verified instruction:
   [log] and [rounds] are its own, read once every loop has finished, while
   [consumed] is shared by every loop of a synthesis call so the conflict
   budget bounds the whole call, not each loop separately. *)
type run = {
  opts : options;
  log : attempt list ref;  (* this run's solver attempts, newest first *)
  rounds : int ref;  (* CEGIS rounds its loop began *)
  consumed : int Atomic.t;  (* conflicts consumed across all workers *)
  started : float;
  hole_marker : string;  (* prefix identifying hole variables *)
  tasks_left : int Atomic.t;
      (* per-instruction tasks not yet completed, shared by all workers:
         the denominator of the resilience ladder's deadline slices *)
  cancel : unit -> bool;
      (* cooperative cancellation token, polled wherever the deadline is
         checked; a closure rather than an options field so the options
         record stays structurally comparable and wire-serializable *)
}

(* A loop's early end.  The outcome still lacks its stats: [synthesize]
   attaches them once every loop has finished. *)
exception Stop of (stats -> outcome)
exception Cancelled = Pool.Cancelled

let time_out () = raise (Stop (fun stats -> Timeout stats))
let now () = Unix.gettimeofday ()

(* The one constructor, shared by [synthesize] and [verify]; [fan_out]
   resets [tasks_left] to the batch it schedules. *)
let new_run ?(cancel = fun () -> false) opts (problem : problem) =
  {
    opts;
    log = ref [];
    rounds = ref 0;
    consumed = Atomic.make 0;
    started = now ();
    hole_marker = problem_prefix problem ^ "hole!";
    tasks_left = Atomic.make 1;
    cancel;
  }

(* A run of its own for one loop or one check: an empty log, everything
   else shared. *)
let sub_run run = { run with log = ref []; rounds = ref 0 }

(* [Engine.stats] of finished [runs]: sums and counts over their logs,
   plus their loops' rounds.  Session checks report per-check increments
   (see {!Solver.stats}), so [blasted_clauses] counts every problem clause
   encoded — what the incremental mode exists to shrink — alike in both
   modes. *)
let stats_of_runs ?(task_retries = 0) ?(wall_seconds = 0.0) runs =
  let attempts = List.concat_map (fun r -> !(r.log)) runs in
  let count p = List.length (List.filter p attempts) in
  let { Solver.sat_vars; sat_clauses; sat_conflicts; sat_restarts;
        sat_learnt_kept; sat_learnt_deleted; _ } =
    List.fold_left (fun acc a -> Solver.add_stats acc a.solver)
      Solver.empty_stats attempts
  in
  {
    iterations = List.fold_left (fun n r -> n + !(r.rounds)) 0 runs;
    queries = List.length attempts;
    conflicts = sat_conflicts;
    blasted_vars = sat_vars;
    blasted_clauses = sat_clauses;
    trivial_unsats = count (fun a -> a.solver.Solver.trivially_unsat);
    retried_queries =
      count (fun a -> a.ending = Retry_unknown || a.ending = Retry_rejected);
    degraded_queries = count (fun a -> a.fresh);
    validation_failures = count (fun a -> a.ending = Retry_rejected);
    task_retries; sat_restarts; sat_learnt_kept; sat_learnt_deleted; wall_seconds;
  }

let check_deadline run =
  if run.cancel () then raise Cancelled;
  match run.opts.deadline_seconds with
  | Some d when now () -. run.started > d -> time_out ()
  | _ -> ()

let budget_remaining run =
  check_deadline run;
  let remaining = run.opts.conflict_budget - Atomic.get run.consumed in
  if remaining <= 0 then time_out ();
  remaining

let query_deadline run =
  Option.map (fun d -> run.started +. d) run.opts.deadline_seconds

(* {1 Model validation}

   The runtime guard against trusting a wrong [Sat] model (a latent
   session bug, or an injected corruption): evaluate the asserted terms
   concretely under the model and require every one to hold.  Variables
   read as [Solver.model_env] has them, but memory strictly: the solver
   records every read the terms make (Ackermann gives each an instance,
   and congruence makes the first canonical), so a model the solver
   honestly produced always passes, while a read at an address the model
   never recorded means a corrupted variable fed the address. *)

let model_satisfies model terms =
  let env =
    { (Solver.model_env model) with Term.lookup_read = Solver.read_lookup model }
  in
  List.for_all
    (fun t ->
      match Term.eval env t with
      | v -> Bitvec.is_ones v
      | exception Failure _ -> false)
    terms

(* {1 Lanes: incremental or fresh, on the resilient ladder}

   The one place [options.incremental] picks a solver; the only other
   reader is [cached_cegis], which puts it in the cache fingerprint.  A
   lane carries one stream of related queries: one verify target's
   successive candidates, or one loop's accumulating synth constraints.
   Incrementally it is a persistent session — SAT state, the blasting
   cache and learned clauses survive from query to query; otherwise it is
   nothing, and every query re-encodes its terms on a one-shot solver.  A
   lane is created by the loop that uses it and becomes garbage when that
   loop returns. *)
module Lane = struct
  let create (o : options) =
    if o.incremental then Some (Solver.Session.create ()) else None

  (* Is the conjunction of [terms] satisfiable?  [Some m] with a model, or
     [None].  A session must already hold [terms] — permanently, or behind
     the [assumptions] guards; a fresh lane sends them now.

     One query runs as up to [retries + 1] attempts (see {!Resilience}):
     escalating conflict budgets, per-task deadline slices, and a final
     attempt that degrades from the session to a one-shot solver of
     [terms].  With model validation on, a [Sat] model must satisfy
     [terms] concretely.

     Every attempt appends one record to [run]'s log, and deducts its
     conflicts from the shared budget pool.

     An [Unknown] on a non-final attempt retries one rung up; on the final
     attempt it raises [Stop] with a [Timeout] — the ladder is the only place
     that turns solver Unknowns into engine timeouts ([verify] reads them
     as Inconclusive), so no caller sees one.  A validation failure
     retries like an Unknown, except that it always earns a fresh-solver
     rung (even with [retries = 0] the engine never emits bindings from an
     unvalidated model just because retrying is disabled), and a failure
     {e on} the fresh rung is a hard error: at that point the model came
     from a stateless solver, so something is wrong beyond a transient. *)
  let check run ?(assumptions = []) lane terms =
    let retries = run.opts.retries in
    let total = run.opts.conflict_budget in
    let rec go attempt =
      let remaining = budget_remaining run in
      (* [attempt] exceeds the ladder's length only on the bonus
         validation rung *)
      let rung = min attempt (retries + 1) in
      let final = Resilience.is_final ~retries ~attempt in
      let use_fresh = attempt > 1 && final in
      let budget =
        Resilience.attempt_budget ~retries ~total ~remaining ~attempt:rung
      in
      let deadline =
        Resilience.slice_deadline ~retries ~now:(now ())
          ~hard:(query_deadline run) ~tasks_left:(Atomic.get run.tasks_left)
          ~attempt:rung
      in
      if use_fresh && Obs.recording () then
        Obs.instant "resilience.degrade" ~args:[ ("attempt", Obs.Int attempt) ];
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
            match lane with
            | Some s when not use_fresh ->
                Solver.Session.check_with ~assumptions ~budget ?deadline s []
            | _ -> Solver.check ~budget ?deadline terms)
      in
      let solver = Solver.stats_of result in
      ignore (Atomic.fetch_and_add run.consumed solver.Solver.sat_conflicts);
      let log ending = run.log := { solver; fresh = use_fresh; ending } :: !(run.log) in
      match result with
      | Solver.Unknown _ when final -> log Stopped; time_out ()
      | Solver.Unknown _ -> log Retry_unknown; retry attempt "unknown"
      | Solver.Sat (m, _)
        when run.opts.validate_models && not (model_satisfies m terms) ->
          if Obs.recording () then
            Obs.instant "resilience.validation_failure"
              ~args:
                [ ("attempt", Obs.Int attempt); ("fresh", Obs.Bool use_fresh) ];
          (* a rejection on the fresh rung fails the whole call, so no
             stats are ever read from its log *)
          if use_fresh then
            fail
              "model validation failed on a fresh solver (persistent fault or \
               solver bug)";
          log Retry_rejected;
          retry attempt "validation_failure"
      | Solver.Sat (m, _) -> log Sat; Some m
      | Solver.Unsat _ -> log Unsat; None
    and retry attempt reason =
      if Obs.recording () then
        Obs.instant "resilience.retry"
          ~args:[ ("attempt", Obs.Int attempt); ("reason", Obs.Str reason) ];
      go (attempt + 1)
    in
    go 1

  (* Is the hole-free formula [v] satisfiable?  A session takes [v] behind
     a fresh activation literal and retracts it afterwards: the stale
     candidate's clauses are disabled for good while everything learned
     stays, and the next candidate re-encodes only its own folded cones. *)
  let check_candidate run lane v =
    match lane with
    | None -> check run lane [ v ]
    | Some s ->
        let g = Solver.Session.assert_retractable s v in
        Fun.protect
          ~finally:(fun () -> Solver.Session.retract s g)
          (fun () -> check run ~assumptions:[ g ] lane [ v ])

  (* Permanently asserts constraints the session has not seen yet (oldest
     first); a fresh lane re-sends the whole set at each [check] instead. *)
  let assert_all lane ts =
    Option.iter (fun s -> List.iter (Solver.Session.assert_always s) ts) lane
end

(* {1 Refinement under the precondition}

   Every check of a hole-free formula, the CEGIS verify step's and
   [verify]'s alike, is posed through [Refine.check]: one pass binds
   [env]'s variables (a CEGIS candidate) and the constants the formula's
   own top-level conjuncts pin, a Sat model gets the pinned bits patched
   back, and only a patched model that fails the unrefined formula costs
   a second query, on a fresh lane up the ladder.  Returns the
   counterexample, if any, and whether that re-check ran. *)
let check_refined run lane ?env pins violation =
  Refine.check ?env pins violation
    ~solve:(Lane.check_candidate run lane)
    ~recheck:(fun t -> Lane.check run None [ t ])

(* {1 The §3.3.1 gate}

   Mutual exclusion is one query on the run's ladder: its deadline, cancel
   token, conflict budget, fault plan and model validation apply, and an
   exhausted ladder raises [Stop] with a [Timeout].  The query is logged on
   a run of its own, which only the span reads, so a run that passes the
   gate keeps its stats.  Assume wires are the permitted feedback cuts. *)

type independence_report = {
  overlapping : (string * string) list;
  feedback : (string * string * string) list;
}

let independence_gate run (problem : problem) conds =
  let grun = sub_run run in
  Obs.span "synth.independence"
    ~result:(fun _ ->
      let st = stats_of_runs [ grun ] in
      [ ("queries", Obs.Int st.queries);
        ("conflicts", Obs.Int st.conflicts);
        ("retried_queries", Obs.Int st.retried_queries) ])
  @@ fun () ->
  let cuts = List.map fst problem.af.Ila.Absfun.assumes in
  {
    overlapping =
      (match Lane.check grun None [ Independence.exclusion_violation conds ] with
      | None -> []
      | Some m -> Independence.co_decoding (Solver.model_env m) conds);
    feedback =
      (Independence.check_no_feedback ~allowed_cuts:cuts problem.design)
        .Independence.feedback_paths;
  }

let independence problem =
  let conds = compile_conditions problem (symbolic_trace problem) in
  try Some (independence_gate (new_run default_options problem) problem conds)
  with Stop _ -> None

(* The solver variable (and width) of hole [h] in [trace]; a hole no
   statement uses gets the name it would have had (any constant fits). *)
let hole_var (trace : Oyster.Symbolic.trace) (h : Oyster.Ast.hole_decl) =
  match List.assoc_opt h.Oyster.Ast.hole_name trace.Oyster.Symbolic.hole_terms with
  | Some t -> (
      match t.Term.node with
      | Term.Var n -> (n, Term.width t)
      | _ -> fail "hole %s was not evaluated as a variable" h.Oyster.Ast.hole_name)
  | None ->
      (trace.Oyster.Symbolic.prefix ^ "hole!" ^ h.Oyster.Ast.hole_name,
       h.Oyster.Ast.hole_width)

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

(* A counterexample's state: [Solver.model_env] with the holes left
   symbolic. *)
let cex_env run model =
  let env = Solver.model_env model in
  {
    env with
    Term.lookup_var =
      (fun n w -> if is_hole_var run n then None else env.Term.lookup_var n w);
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
  Term.rewriter
    (fun go t ->
      match t.Term.node with
      | Term.Read (m, a) -> Some (mem_fun m (go a))
      | _ -> None)
    root

(* Grounds [f] against a counterexample: substitution, then
   [ground_reads], each under its own span so a traced run times them apart
   from the solver queries. *)
let ground model env f =
  let t = Obs.span "cegis.substitute" (fun () -> Term.substitute env f) in
  Obs.span "cegis.ground_reads" (fun () -> ground_reads model t)

(* {1 The CEGIS loop} *)

(* Updates hole values in [tbl] from a synthesis model.  Variables the
   model does not constrain (simplified away, or belonging to another
   instruction's loop) keep their current value. *)
let refresh_table tbl model =
  Hashtbl.iter
    (fun n _old ->
      match model.Solver.var_value n with
      | Some v -> Hashtbl.replace tbl n v
      | None -> ())
    (Hashtbl.copy tbl)

(* One CEGIS loop (§3.3).  Each round verifies [candidate] against every
   target in [targets], each in its own lane; every counterexample found
   grounds every formula of [corrects] into a synth constraint (dropping
   those that fold to true), and the synth query over all constraints
   refreshes [candidate] in place.  Returns the ground constraints, oldest
   first, once every target is refuted; raises [Stop] with [Timeout] after
   [max_iterations] rounds and with [Unrealizable] when the constraints
   admit no hole values.  [instr] names the instruction the loop serves
   ([None] for a joint loop); it labels the spans. *)
let cegis run ~instr ~targets ~corrects candidate =
  let label = Option.value instr ~default:"joint" in
  let verifiers =
    List.map (fun v -> (v, Refine.collect v, Lane.create run.opts)) targets
  in
  (* the synth half: every ground constraint so far, newest first — the
     fresh lane's whole query, and otherwise what the ladder's degraded
     rung re-solves and model validation evaluates *)
  let synth_lane = Lane.create run.opts in
  let constraints = ref [] in
  let verify (violation, pins, lane) =
    Obs.span "cegis.verify"
      ~args:[ ("instr", Obs.Str label) ]
      ~result:(fun (r, recheck) ->
        [ ("counterexample", Obs.Bool (r <> None)); ("recheck", Obs.Bool recheck) ])
      (fun () ->
        check_refined run lane ~env:(candidate_env run candidate) pins violation)
    |> fst
  in
  let synth_with added =
    constraints := added @ !constraints;
    let result =
      Obs.span "cegis.synth"
        ~args:
          [
            ("instr", Obs.Str label);
            ("constraints", Obs.Int (List.length !constraints));
          ]
        ~result:(fun r ->
          [ ("result", Obs.Str (if Option.is_some r then "sat" else "unsat")) ])
        (fun () ->
          Lane.assert_all synth_lane (List.rev added);
          Lane.check run synth_lane !constraints)
    in
    match result with
    | Some m -> refresh_table candidate m
    | None -> raise (Stop (fun stats -> Unrealizable { instr; stats }))
  in
  (* the iteration span closes before the recursive call, so nesting
     depth stays constant however many rounds run *)
  let rec loop iter =
    if iter > run.opts.max_iterations then time_out ();
    incr run.rounds;
    let continue =
      Obs.span "cegis.iteration"
        ~args:[ ("instr", Obs.Str label); ("iter", Obs.Int iter) ]
        ~result:(fun k -> [ ("counterexample", Obs.Bool k) ])
      @@ fun () ->
      match List.filter_map verify verifiers with
      | [] -> false
      | models ->
          if Obs.recording () then
            Obs.instant "cegis.counterexample"
              ~args:
                [
                  ("instr", Obs.Str label);
                  ("iter", Obs.Int iter);
                  ("models", Obs.Int (List.length models));
                ];
          (* newest first: the last formula of the last model leads *)
          let added =
            List.fold_left
              (fun acc model ->
                let env = cex_env run model in
                List.fold_left
                  (fun acc f ->
                    let g = ground model env f in
                    if Term.is_true g then acc else g :: acc)
                  acc corrects)
              [] models
          in
          synth_with added;
          true
    in
    if continue then loop (iter + 1)
  in
  loop 1;
  List.rev !constraints

(* Runs [solve], one CEGIS loop on [run], inside span [name]: [Some o] if
   the loop stopped with [o].  The span's End reports the loop's status,
   and its rounds and queries from [run]'s log. *)
let loop_span name ~label run solve =
  Obs.span name
    ~args:[ ("instr", Obs.Str label) ]
    ~result:(fun stopped ->
      [
        ("status", Obs.Str (if Option.is_some stopped then "stopped" else "solved"));
        ("iterations", Obs.Int !(run.rounds));
        ("queries", Obs.Int (List.length !(run.log)));
      ])
  @@ fun () -> match solve () with () -> None | exception Stop o -> Some o

(* {1 Per-instruction fan-out}

   One task per instruction over the worker pool, results in instruction
   order.  [tasks_left] counts the unfinished tasks the ladder's deadline
   slices share; a task crashed by an injected fault re-runs on fresh
   worker state up to [retries] times (cancellation never does), each
   re-run counted on [retried] when given. *)
let fan_out ?retried run ~make task items =
  let retries = run.opts.retries in
  Atomic.set run.tasks_left (List.length items);
  try
    Pool.map_arena ~jobs:run.opts.jobs ~make ~retries ?retried
      (fun w x ->
        let r = task w x in
        ignore (Atomic.fetch_and_add run.tasks_left (-1));
        r)
      items
  with Fault.Injected_crash i ->
    fail "worker task attempt %d crashed and exhausted %d retries" i retries

(* {1 Checks with the control fixed}

   With no hole left to choose, the refinement question is one query: is
   [Conditions.violation] unsatisfiable?  It is posed refined, as the CEGIS
   verify step is ([check_refined]); hand-written control over 64-bit
   multiplier/divider cones is intractable without it. *)

type verdict = Verified | Violated of Solver.model | Inconclusive

let verdict_name = function
  | Verified -> "verified"
  | Violated _ -> "violated"
  | Inconclusive -> "inconclusive"

(* Bounded refinement checking of a completed design, instruction by
   instruction. *)
let verify ?(options = default_options) ?cancel (problem : problem) :
    (string * verdict) list =
  if Oyster.Ast.holes problem.design <> [] then
    fail "Engine.verify: design still has holes (synthesize first)";
  let base = new_run ?cancel options problem in
  let trace = symbolic_trace problem in
  let conds = compile_conditions problem trace in
  (* Every worker keeps one lane for the unpinned checks.  Which
     instructions share it depends on the dynamic schedule, but with an
     unexhausted budget that only perturbs search order, never the
     verdict. *)
  fan_out base ~make:(fun () -> Lane.create options)
    (fun lane (c : Ila.Conditions.conditions) ->
      let instr = c.Ila.Conditions.instr_name in
      (* [conflict_budget] bounds each instruction's ladder, not the call *)
      let run = { (sub_run base) with consumed = Atomic.make 0 } in
      ( instr,
        Obs.span "verify.instr"
          ~args:[ ("instr", Obs.Str instr) ]
          ~result:(fun (v, recheck) ->
            [
              ("verdict", Obs.Str (verdict_name v));
              ("queries", Obs.Int (List.length !(run.log)));
              ("recheck", Obs.Bool recheck);
            ])
        (fun () ->
        let violation = Ila.Conditions.violation c in
        (* An unpinned violation is the same datapath formula for every
           instruction, so it shares [lane] (GCD, before its [busy]
           literals were pinned: 1.9 k clauses blasted per call against
           7.0 k one-shot).  A pinned one is specialized
           down from the instruction word and shares almost nothing, while
           retraction keeps its Tseitin gates in a session, so it gets a
           one-shot solver (rv32im: 297 k clauses, 2.1 M propagations and
           0.72 s of checks, against 339 k, 10.2 M and 3.76 s on shared
           sessions). *)
        let pins = Refine.collect violation in
        let lane = if Refine.is_empty pins then lane else None in
        match check_refined run lane pins violation with
        | exception Stop _ -> (Inconclusive, false)
        | None, recheck -> (Verified, recheck)
        | Some m, recheck -> (Violated m, recheck))
        |> fst ))
    conds

(* The monolithic ∀-verify query in closed form: the disjunction, over
   every instruction of the spec, of its refined violation on the
   completed design's symbolic trace.  Unsat iff the design is correct.
   This is the query the monolithic schedule mode poses each CEGIS
   iteration — the one the paper's headline table shows timing out —
   exported so benches and tools can attack it directly (structural
   cube-and-conquer) without driving the full synthesis loop. *)
let monolithic_violation (problem : problem) : Term.t =
  if Oyster.Ast.holes problem.design <> [] then
    fail "Engine.monolithic_violation: design still has holes (synthesize first)";
  let trace = symbolic_trace problem in
  let conds = compile_conditions problem trace in
  if conds = [] then fail "Engine.monolithic_violation: specification has no instructions";
  Term.disj
    (List.map
       (fun c ->
         let v = Ila.Conditions.violation c in
         Refine.apply (Refine.collect v) v)
       conds)

(* {1 The per-instruction cache around the loop} *)

(* [cegis] for one independent instruction, consulting [cache] first and
   populating it afterwards.  [holes] are the loop's hole variables (with
   widths), [local] its candidate table. *)
let cached_cegis run cache ~instr ~holes ~correct ~violation local =
  (* Content-addressed identity of this per-instruction problem: the
     canonical serialization of the correctness and violation formulas
     pins the whole problem (sketch structure, pre/post, abstraction
     wires, hole copies), and the solver-relevant [incremental] flag
     rides along.  Budgets, deadlines, retries, and [jobs] deliberately
     do not: they change how hard the engine tries, never which bindings
     are correct — so jobs=1 and jobs=4 share entries.  The header's
     version moves when a simplifier rule changes which bindings a cold
     run finds without changing the serialized formulas, so a warm run
     prints what a cold one would; older entries miss once. *)
  let fp =
    Owl_cache.fingerprint
      (Printf.sprintf "owl-problem 3\nincremental %b\nholes %s\n%s"
         run.opts.incremental
         (String.concat " "
            (List.map (fun (n, w) -> Printf.sprintf "%s:%d" n w) holes))
         (Term.serialize [ correct; violation ]))
  in
  (* A structurally sound entry is only trusted after re-proving its
     bindings by concrete evaluation of the stored ground constraints
     (the validate_models machinery), so a stale or corrupted entry
     degrades to a miss, never to wrong control logic. *)
  let cached_result =
    Obs.span "cache.lookup"
      ~args:[ ("instr", Obs.Str instr) ]
      ~result:(fun r -> [ ("hit", Obs.Bool (r <> None)) ])
      (fun () ->
        Owl_cache.lookup_result cache ~fp ~validate:(fun bindings constraints ->
            List.length bindings = List.length holes
            && List.for_all2
                 (fun (n, w) (bn, bv) -> String.equal n bn && Bitvec.width bv = w)
                 holes bindings
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
            List.for_all (fun t -> Bitvec.is_ones (Term.eval env t)) constraints))
  in
  match cached_result with
  | Some bindings -> List.iter (fun (n, v) -> Hashtbl.replace local n v) bindings
  | None ->
      let constraints =
        cegis run ~instr:(Some instr) ~targets:[ violation ]
          ~corrects:[ correct ] local
      in
      (* the bindings just proven, with the ground constraints as
         re-checkable evidence *)
      let bindings =
        List.map
          (fun (n, w) ->
            (n, Option.value (Hashtbl.find_opt local n) ~default:(Bitvec.zero w)))
          holes
      in
      Owl_cache.store_result cache ~fp ~bindings ~constraints

(* {1 The synthesis core} *)

let synthesize ?(options = default_options) ?cancel (problem : problem) :
    outcome =
  if options.jobs < 1 then fail "Engine.synthesize: options.jobs < 1";
  let run = new_run ?cancel options problem in
  let trace = symbolic_trace problem in
  (* the runs whose logs make the stats: the joint loop's [run], or the
     independent loops' runs in instruction order *)
  let loops = ref [ run ] in
  let task_retries = Atomic.make 0 in
  (* applied once every loop has finished: the one place stats are
     attached *)
  let finish outcome =
    outcome
      (stats_of_runs ~task_retries:(Atomic.get task_retries)
         ~wall_seconds:(now () -. run.started) !loops)
  in
  finish
  @@
  try
    let conds = compile_conditions problem trace in
    if conds = [] then fail "specification has no instructions";
    let holes = Oyster.Ast.holes problem.design in
    if holes = [] then fail "sketch has no holes";
    (match independence_gate run problem conds with
    | { overlapping = []; feedback = [] } -> ()
    | { overlapping; feedback } ->
        raise
          (Stop (fun stats -> Not_independent { overlapping; feedback; stats })));
    let shared_holes, per_holes =
      List.partition
        (fun (h : Oyster.Ast.hole_decl) -> h.Oyster.Ast.kind = Oyster.Ast.Shared)
        holes
    in
    let per_hole_vars = List.map (hole_var trace) per_holes in
    let shared_hole_vars = List.map (hole_var trace) shared_holes in
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
          let rename = rename_for c.Ila.Conditions.instr_name in
          ( c,
            rename (Ila.Conditions.correctness c),
            rename (Ila.Conditions.violation c) ))
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
    let independent = options.mode = Per_instruction && shared_holes = [] in
    (if independent then begin
       (* The paper's per-instruction strategy: separate small CEGIS loops,
          independent by construction (paper 3.3.1), fanned out across the
          worker pool.  Each task owns its log, its lanes and its slice of
          the candidate (the per-instruction renamed hole copies are
          disjoint), so workers share nothing but the term table, the
          solver (both re-entrant) and the conflict-budget counter.  The
          lanes are per task, not per worker, so the query sequence each
          one sees is independent of the dynamic schedule and the bindings
          are identical for any [jobs].  Every schedule runs every task,
          and the merge is deterministic: results land in instruction
          order, and on failure the lowest-indexed failing instruction is
          reported, so outcome and stats are the same for any [jobs]. *)
       let task () ((c : Ila.Conditions.conditions), correct, violation) =
         let iname = c.Ila.Conditions.instr_name in
         let trun = sub_run run in
         let holes = hole_vars_of_instr iname in
         let local : (string, Bitvec.t) Hashtbl.t = Hashtbl.create 16 in
         List.iter (fun (n, w) -> Hashtbl.replace local n (Bitvec.zero w)) holes;
         let stopped =
           loop_span "cegis.instr" ~label:iname trun (fun () ->
               match options.cache with
               | None ->
                   ignore
                     (cegis trun ~instr:(Some iname) ~targets:[ violation ]
                        ~corrects:[ correct ] local)
               | Some cache ->
                   cached_cegis trun cache ~instr:iname ~holes ~correct
                     ~violation local)
         in
         (stopped, local, trun)
       in
       let results = fan_out ~retried:task_retries run ~make:ignore task formulas in
       loops := List.map (fun (_, _, trun) -> trun) results;
       Option.iter
         (fun o -> raise (Stop o))
         (List.find_map (fun (stopped, _, _) -> stopped) results);
       List.iter
         (fun (_, local, _) -> Hashtbl.iter (Hashtbl.replace candidate) local)
         results
     end
     else
       (* joint synthesis; verification granularity depends on the mode.
          Shared holes couple the loops, so this path stays serial. *)
       let violations = List.map (fun (_, _, v) -> v) formulas in
       let targets =
         match options.mode with
         | Monolithic -> [ Term.disj violations ]
         | Per_instruction -> violations
       in
       Option.iter
         (fun o -> raise (Stop o))
         (loop_span "cegis.joint" ~label:"joint" run (fun () ->
              ignore
                (cegis run ~instr:None ~targets
                   ~corrects:(List.map (fun (_, f, _) -> f) formulas)
                   candidate))));
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
    (* reconstruct precondition expressions over the datapath namespace,
       then splice them and the bindings into the sketch *)
    Obs.span "synth.union" (fun () ->
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
        if missing <> [] then
          let diagnostic =
            Printf.sprintf
              "preconditions of %s are not expressible over the datapath wires"
              (String.concat ", " missing)
          in
          fun stats -> Union_failed { diagnostic; stats }
        else
          let completed, bindings =
            Union.apply problem.design ~pre_exprs ~shared ~per_instr
          in
          fun stats ->
            Solved { completed; bindings; per_instr; shared; pre_exprs; stats })
  with Stop outcome -> outcome
