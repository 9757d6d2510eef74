(* SMT façade: Ackermannization + bit-blasting + CDCL.

   Two entry points share one engine:

   - [check]: the historical one-shot API.  A fresh session per call, so
     every call is independent and re-entrant.
   - [Session]: a persistent solving context.  The SAT instance, the
     blasting context (with its term -> literals cache) and the Ackermann
     instance table survive across checks, so a family of queries that
     differ by a few added constraints — the CEGIS inner loop — re-encodes
     only what is new and keeps learned clauses and variable activity. *)

type model = {
  var_value : string -> Bitvec.t option;
  read_values : (string * Bitvec.t * Bitvec.t) list;
  read_index : (string * string, Bitvec.t) Hashtbl.t Lazy.t;
}

type stats = {
  sat_vars : int;
  sat_clauses : int;
  sat_conflicts : int;
  sat_restarts : int;
  sat_learnt_kept : int;
  sat_learnt_deleted : int;
  trivially_unsat : bool;
}

let empty_stats =
  {
    sat_vars = 0;
    sat_clauses = 0;
    sat_conflicts = 0;
    sat_restarts = 0;
    sat_learnt_kept = 0;
    sat_learnt_deleted = 0;
    trivially_unsat = false;
  }

type outcome = Sat of model * stats | Unsat of stats | Unknown of stats

let stats_of = function Sat (_, s) | Unsat s | Unknown s -> s

let outcome_name = function
  | Sat _ -> "sat"
  | Unsat _ -> "unsat"
  | Unknown _ -> "unknown"

(* Observability handles, registered once at module initialization *)
let c_checks = Obs.counter "solver.checks"
let c_ack_instances = Obs.counter "solver.ack_instances"
let h_check_latency = Obs.histogram "solver.check.latency_us"
let h_check_conflicts = Obs.histogram "solver.check.conflicts"
let h_check_clauses = Obs.histogram "solver.check.clauses"

(* Deterministic model corruption for fault injection ([Fault.Corrupt_model]):
   flip one seed-chosen bit of every variable the blaster saw, on a copy.
   The session itself is untouched, so retrying the same check recovers the
   honest model — phase saving replays the saved polarities, which are the
   model, so the retry finds it with zero conflicts. *)
let corrupt_model (m : model) =
  let s = Fault.seed () in
  let flip name v =
    let w = Bitvec.width v in
    let bit = Hashtbl.hash (s, name) mod w in
    Bitvec.logxor v (Bitvec.shl_int (Bitvec.one w) bit)
  in
  { m with var_value = (fun n -> Option.map (flip n) (m.var_value n)) }

(* {1 Ackermann expansion}

   Replace every [Read (m, addr)] node by a fresh variable, bottom-up, and
   record the (mem, rewritten-address, variable) instances.  For every pair
   of instances on the same memory, a congruence constraint
   [addr1 = addr2 -> v1 = v2] is required.

   The state is monotone so a session can extend it: the memo and instance
   tables persist, and rewriting a new assertion returns only the
   congruence constraints its {e new} instances introduce (each new
   instance against every instance recorded before it, in recording
   order).  A one-shot [check] uses a fresh state, which reproduces the
   historical per-call behavior.

   Ackermann variables are named per state ("ack!<mem>!<k>" with [k]
   counting from 1 in traversal order), never per process: each state is
   owned by exactly one SAT context, so reusing a name across independent
   sessions is harmless, and per-state numbering keeps the generated CNF —
   hence the whole query — deterministic no matter how many checks other
   domains ran before this one.  Widths cannot clash because the name
   embeds the memory, whose data width is fixed. *)

type ack = {
  ack_memo : (int, Term.t) Hashtbl.t;  (* original term id -> rewritten *)
  (* (mem name, rewritten address id) -> replacement variable *)
  ack_instance_tbl : (string * int, Term.t) Hashtbl.t;
  (* per memory, the (address, variable) instances, newest first *)
  ack_by_mem : (string, (Term.t * Term.t) list) Hashtbl.t;
  mutable ack_counter : int;
  (* all instances in traversal order, newest first *)
  mutable ack_instances_rev : (Term.mem * Term.t * Term.t) list;
}

let ack_create () =
  {
    ack_memo = Hashtbl.create 256;
    ack_instance_tbl = Hashtbl.create 64;
    ack_by_mem = Hashtbl.create 8;
    ack_counter = 0;
    ack_instances_rev = [];
  }

(* Rewrites [t], extending the instance table; appends the congruence
   constraints owed by newly discovered instances to [congs] (in reverse
   discovery order — callers reverse once at the end). *)
let ack_rewrite (a : ack) (congs : Term.t list ref) (t : Term.t) : Term.t =
  let rec go (t : Term.t) : Term.t =
    match Hashtbl.find_opt a.ack_memo (Term.id t) with
    | Some r -> r
    | None ->
        let r =
          match t.Term.node with
          | Term.Const _ | Term.Var _ -> t
          | Term.Not x -> Term.bnot (go x)
          | Term.Binop (op, x, y) -> (
              let x = go x and y = go y in
              match op with
              | Term.And -> Term.band x y
              | Term.Or -> Term.bor x y
              | Term.Xor -> Term.bxor x y
              | Term.Add -> Term.add x y
              | Term.Sub -> Term.sub x y
              | Term.Mul -> Term.mul x y
              | Term.Udiv -> Term.udiv x y
              | Term.Urem -> Term.urem x y
              | Term.Sdiv -> Term.sdiv x y
              | Term.Srem -> Term.srem x y
              | Term.Clmul -> Term.clmul x y
              | Term.Clmulh -> Term.clmulh x y
              | Term.Shl -> Term.shl x y
              | Term.Lshr -> Term.lshr x y
              | Term.Ashr -> Term.ashr x y)
          | Term.Cmp (op, x, y) -> (
              let x = go x and y = go y in
              match op with
              | Term.Eq -> Term.eq x y
              | Term.Ult -> Term.ult x y
              | Term.Ule -> Term.ule x y
              | Term.Slt -> Term.slt x y
              | Term.Sle -> Term.sle x y)
          | Term.Ite (c, x, y) -> Term.ite (go c) (go x) (go y)
          | Term.Extract (h, l, x) -> Term.extract ~high:h ~low:l (go x)
          | Term.Concat (x, y) -> Term.concat (go x) (go y)
          | Term.Table (tb, i) -> Term.table_read tb (go i)
          | Term.Read (m, addr) -> (
              let addr = go addr in
              let key = (m.Term.mem_name, Term.id addr) in
              match Hashtbl.find_opt a.ack_instance_tbl key with
              | Some v -> v
              | None ->
                  a.ack_counter <- a.ack_counter + 1;
                  Obs.incr c_ack_instances;
                  if Obs.enabled () then
                    Obs.instant "solver.ack_instance"
                      ~args:
                        [
                          ("mem", Obs.Str m.Term.mem_name);
                          ("instances", Obs.Int a.ack_counter);
                        ];
                  let v =
                    Term.var
                      (Printf.sprintf "ack!%s!%d" m.Term.mem_name a.ack_counter)
                      m.Term.data_width
                  in
                  Hashtbl.add a.ack_instance_tbl key v;
                  let earlier =
                    Option.value ~default:[]
                      (Hashtbl.find_opt a.ack_by_mem m.Term.mem_name)
                  in
                  (* congruence with every earlier instance of this memory;
                     [earlier] is newest-first, which is deterministic *)
                  List.iter
                    (fun (a2, v2) ->
                      congs :=
                        Term.implies (Term.eq addr a2) (Term.eq v v2) :: !congs)
                    earlier;
                  Hashtbl.replace a.ack_by_mem m.Term.mem_name
                    ((addr, v) :: earlier);
                  a.ack_instances_rev <- (m, addr, v) :: a.ack_instances_rev;
                  v)
        in
        Hashtbl.add a.ack_memo (Term.id t) r;
        r
  in
  go t

(* One-shot expansion (kept for tests and external callers): rewrites the
   assertions against a fresh state and returns the congruence constraints
   alongside, plus the instances in traversal order. *)
let ackermannize (assertions : Term.t list) =
  let a = ack_create () in
  let congs = ref [] in
  let rewritten = List.map (ack_rewrite a congs) assertions in
  (rewritten @ List.rev !congs, List.rev a.ack_instances_rev)

(* {1 Strategies}

   The SAT core has no configuration; the type survives only because the
   benchmark harness names [Strategy.default]. *)

module Strategy = struct
  type t = unit

  let default = ()
end

(* {1 Sessions} *)

module Session = struct
  type t = {
    sat : Sat.t;
    blast : Blast.t;
    ack : ack;
    mutable trivially_false : bool;
        (* a permanently asserted term simplified to constant false: the
           session is dead without ever consulting the SAT solver *)
    (* watermarks for per-check statistics deltas *)
    mutable last_vars : int;
    mutable last_clauses : int;
    mutable last_conflicts : int;
    mutable last_restarts : int;
    mutable last_learnt_kept : int;
    mutable last_learnt_deleted : int;
  }

  type guard = int

  let create () =
    let sat = Sat.create () in
    let blast = Blast.create sat in
    {
      sat;
      blast;
      ack = ack_create ();
      trivially_false = false;
      last_vars = 0;
      last_clauses = 0;
      last_conflicts = 0;
      last_restarts = 0;
      last_learnt_kept = 0;
      last_learnt_deleted = 0;
    }

  (* cumulative count of problem clauses ever encoded, satisfied and unit
     clauses included *)
  let problem_clauses s = Sat.encoded_clauses s.sat

  let assert_always s t =
    if Term.width t <> 1 then
      invalid_arg "Solver.Session.assert_always: assertion width <> 1";
    if Term.is_false t then s.trivially_false <- true
    else begin
      let congs = ref [] in
      let t' = ack_rewrite s.ack congs t in
      List.iter (Blast.assert_term s.blast) (List.rev !congs);
      if Term.is_false t' then s.trivially_false <- true
      else Blast.assert_term s.blast t'
    end

  let assert_retractable s t =
    if Term.width t <> 1 then
      invalid_arg "Solver.Session.assert_retractable: assertion width <> 1";
    if Term.is_false t then begin
      (* enabling this guard must be contradictory on its own *)
      let g = Blast.fresh_lit s.blast in
      Sat.add_clause s.sat [ -g ];
      g
    end
    else begin
      let congs = ref [] in
      let t' = ack_rewrite s.ack congs t in
      (* congruence constraints relate Ackermann variables only; they are
         valid regardless of which guarded assertions are active, so they
         are asserted permanently *)
      List.iter (Blast.assert_term s.blast) (List.rev !congs);
      if Term.is_false t' then begin
        let g = Blast.fresh_lit s.blast in
          Sat.add_clause s.sat [ -g ];
        g
      end
      else begin
        (* blast first, then allocate the guard, so variable numbering for
           the encoded term matches what a fresh one-shot check would
           produce *)
        let bits = Blast.blast s.blast t' in
        let g = Blast.fresh_lit s.blast in
          Sat.add_clause s.sat [ -g; bits.(0) ];
        g
      end
    end

  let retract s g = Sat.add_clause s.sat [ -g ]

  let take_stats ?(trivially_unsat = false) s =
    let vars = Sat.num_vars s.sat in
    let clauses = problem_clauses s in
    let conflicts = Sat.conflicts s.sat in
    let restarts = Sat.restarts s.sat in
    let learnt_kept = Sat.learnt_kept s.sat in
    let learnt_deleted = Sat.learnt_deleted s.sat in
    let d =
      {
        sat_vars = vars - s.last_vars;
        sat_clauses = clauses - s.last_clauses;
        sat_conflicts = conflicts - s.last_conflicts;
        sat_restarts = restarts - s.last_restarts;
        sat_learnt_kept = learnt_kept - s.last_learnt_kept;
        sat_learnt_deleted = learnt_deleted - s.last_learnt_deleted;
        trivially_unsat;
      }
    in
    s.last_vars <- vars;
    s.last_clauses <- clauses;
    s.last_conflicts <- conflicts;
    s.last_restarts <- restarts;
    s.last_learnt_kept <- learnt_kept;
    s.last_learnt_deleted <- learnt_deleted;
    d

  (* One introspection snapshot instead of scattered accessors: the cache,
     the obs instrumentation, and the arena aggregate all read the same
     record, so adding a field means adding it in exactly one place. *)
  type stats = {
    vars : int;
    clauses : int;
    conflicts : int;
    learnt : int;
    restarts : int;
    learnt_kept : int;
    learnt_deleted : int;
    cached_terms : int;
    trivially_unsat : bool;
  }

  let stats s =
    {
      vars = Sat.num_vars s.sat;
      clauses = problem_clauses s;
      conflicts = Sat.conflicts s.sat;
      learnt = Sat.num_learnt s.sat;
      restarts = Sat.restarts s.sat;
      learnt_kept = Sat.learnt_kept s.sat;
      learnt_deleted = Sat.learnt_deleted s.sat;
      cached_terms = Blast.cached_terms s.blast;
      trivially_unsat = s.trivially_false;
    }

  (* Model reconstruction.  Assignments are snapshotted eagerly, so the
     model stays valid after further asserts/retracts/checks on the same
     session (the engine retracts a candidate before mining the model). *)
  let build_model s =
    let nvars = Sat.num_vars s.sat in
    let values = Array.init nvars (fun i -> Sat.value s.sat (i + 1)) in
    let lit_val l = if l > 0 then values.(l - 1) else not values.(-l - 1) in
    let var_value name =
      match Blast.var_bits s.blast name with
      | None -> None
      | Some bits when Array.exists (fun l -> abs l > nvars) bits -> None
      | Some bits -> Some (Bitvec.of_bits (Array.map lit_val bits))
    in
    (* Evaluate read instance addresses under the model to produce the
       word-level memory view.  Variables the blaster never saw were
       simplified away; any value works, so they default to zero. *)
    let env =
      {
        Term.lookup_var =
          (fun n w ->
            match var_value n with
            | Some v -> Some v
            | None -> Some (Bitvec.zero w));
        Term.lookup_read = (fun _ _ -> None);
      }
    in
    let read_values =
      List.rev_map
        (fun ((m : Term.mem), addr, v) ->
          (m.Term.mem_name, Term.eval env addr, Term.eval env v))
        s.ack.ack_instances_rev
    in
    (* First match in instance order is canonical (congruence forces
       aliasing instances to agree), so the index keeps the first binding
       per (memory, address). *)
    let read_index =
      lazy
        (let tbl = Hashtbl.create (List.length read_values) in
         List.iter
           (fun (name, a, v) ->
             let key = (name, Bitvec.to_string a) in
             if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key v)
           read_values;
         tbl)
    in
    { var_value; read_values; read_index }

  let check_with_raw ?(assumptions = []) ?(budget = max_int) ?deadline s
      assertions =
    List.iter
      (fun t ->
        if Term.width t <> 1 then
          invalid_arg "Solver.Session.check_with: assertion width <> 1")
      assertions;
    (* Fast path: a constant-false conjunct poisons the session without
       blasting anything; the statistics still report honest deltas plus
       the [trivially_unsat] flag so budget accounting sees that no search
       happened. *)
    if List.exists Term.is_false assertions then s.trivially_false <- true
    else List.iter (assert_always s) assertions;
    if s.trivially_false then Unsat (take_stats ~trivially_unsat:true s)
    else begin
      (* Fault-injection hook: a planned spurious Unknown intercepts the
         check {e before} the SAT search, leaving the session untouched, so
         a retry of the same check is honest.  A planned corruption damages
         only the returned model copy, for the same reason. *)
      match Fault.on_check () with
      | Some Fault.Spurious_unknown -> Unknown (take_stats s)
      | injected -> (
          let result = Sat.solve ~assumptions ~budget ?deadline s.sat in
          let st = take_stats s in
          match result with
          | Sat.Unsat -> Unsat st
          | Sat.Unknown -> Unknown st
          | Sat.Sat ->
              let m = build_model s in
              let m =
                if injected = Some Fault.Corrupt_model then corrupt_model m
                else m
              in
              Sat (m, st))
    end

  (* Observability wrapper: the span's end arguments carry this check's
     statistics {e delta} (what the incremental encoding actually added),
     and the histograms feed the summary table. *)
  let check_with ?(assumptions = []) ?(budget = max_int) ?deadline s assertions
      =
    if not (Obs.enabled () || Obs.metrics_enabled ()) then
      check_with_raw ~assumptions ~budget ?deadline s assertions
    else begin
      let t_start = Unix.gettimeofday () in
      let outcome =
        Obs.span "solver.check"
          ~args:
            [
              ("assertions", Obs.Int (List.length assertions));
              ("assumptions", Obs.Int (List.length assumptions));
            ]
          ~result:(fun o ->
            let st = stats_of o in
            [
              ("result", Obs.Str (outcome_name o));
              ("delta_vars", Obs.Int st.sat_vars);
              ("delta_clauses", Obs.Int st.sat_clauses);
              ("conflicts", Obs.Int st.sat_conflicts);
              ("trivially_unsat", Obs.Bool st.trivially_unsat);
            ])
          (fun () -> check_with_raw ~assumptions ~budget ?deadline s assertions)
      in
      let st = stats_of outcome in
      Obs.incr c_checks;
      Obs.observe h_check_latency
        (int_of_float ((Unix.gettimeofday () -. t_start) *. 1e6));
      Obs.observe h_check_conflicts st.sat_conflicts;
      Obs.observe h_check_clauses st.sat_clauses;
      outcome
    end

  (* Cross-run warm starts: the cache exports a finished session's learned
     clauses and replays them into a future session for the {e same}
     problem fingerprint.  Replay is sound only under identical variable
     numbering, which the deterministic blasting order guarantees when the
     fingerprints match exactly — the cache layer enforces that guard. *)
  let export_learnt s = Sat.export_learnt s.sat
  let import_learnt s clauses = Sat.import_learnt s.sat clauses
  let import_dropped s = Sat.import_dropped s.sat

  let num_vars s = Sat.num_vars s.sat
end

(* {1 Arenas}

   A session allocation scope: one arena per worker domain gives each
   domain its own private sessions (nothing inside a session is locked, so
   sessions must never cross domains) while keeping an aggregate view for
   benchmarking.  [shared] memoizes one session per arena for callers that
   want cross-task reuse within a worker. *)

module Arena = struct
  type t = {
    mutable sessions : Session.t list;
    mutable shared_session : Session.t option;
  }

  let create () = { sessions = []; shared_session = None }

  let session a =
    let s = Session.create () in
    a.sessions <- s :: a.sessions;
    s

  let shared a =
    match a.shared_session with
    | Some s -> s
    | None ->
        let s = session a in
        a.shared_session <- Some s;
        s

  let session_count a = List.length a.sessions

  let stats a =
    List.fold_left
      (fun acc s ->
        let st = Session.stats s in
        {
          sat_vars = acc.sat_vars + st.Session.vars;
          sat_clauses = acc.sat_clauses + st.Session.clauses;
          sat_conflicts = acc.sat_conflicts + st.Session.conflicts;
          sat_restarts = acc.sat_restarts + st.Session.restarts;
          sat_learnt_kept = acc.sat_learnt_kept + st.Session.learnt_kept;
          sat_learnt_deleted =
            acc.sat_learnt_deleted + st.Session.learnt_deleted;
          trivially_unsat = false;
        })
      empty_stats a.sessions
end

(* {1 One-shot checking}

   [check] is re-entrant: it is a fresh session per call, so the SAT
   solver, the blasting context, and the returned statistics are all per
   call, and any number of checks may run concurrently from different
   domains. *)

let check ?(budget = max_int) ?deadline assertions =
  let s = Session.create () in
  Session.check_with ~budget ?deadline s assertions

(* First match in instance order.  Distinct read instances can evaluate to
   the same concrete address; the Ackermann congruence constraints force
   their values to agree in any model, so first-match is both deterministic
   and canonical — later duplicates are necessarily equal.  The index is a
   hash table built lazily once per model (keyed by memory name and
   address), replacing the per-lookup list scan that made dense lookup
   patterns quadratic. *)
let read_lookup model (m : Term.mem) addr =
  Hashtbl.find_opt
    (Lazy.force model.read_index)
    (m.Term.mem_name, Bitvec.to_string addr)
