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

(* The one field-wise combination of two statistics; [add_stats] sums
   them, and a session's per-check delta subtracts its watermark *)
let combine f a b =
  {
    sat_vars = f a.sat_vars b.sat_vars;
    sat_clauses = f a.sat_clauses b.sat_clauses;
    sat_conflicts = f a.sat_conflicts b.sat_conflicts;
    sat_restarts = f a.sat_restarts b.sat_restarts;
    sat_learnt_kept = f a.sat_learnt_kept b.sat_learnt_kept;
    sat_learnt_deleted = f a.sat_learnt_deleted b.sat_learnt_deleted;
    trivially_unsat = a.trivially_unsat || b.trivially_unsat;
  }

let add_stats = combine ( + )

type outcome = Sat of model * stats | Unsat of stats | Unknown of stats

let stats_of = function Sat (_, s) | Unsat s | Unknown s -> s

let outcome_name = function
  | Sat _ -> "sat"
  | Unsat _ -> "unsat"
  | Unknown _ -> "unknown"

(* First match in instance order is canonical (congruence forces aliasing
   instances to agree), so the index keeps the first binding per (memory,
   address). *)
let model_of ~var_value ~read_values =
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
  rewrite : Term.t -> Term.t;  (* one memo for the state's whole life *)
  (* all instances in traversal order, newest first *)
  instances_rev : (Term.mem * Term.t * Term.t) list ref;
  (* congruences owed by instances not yet handed out, newest first *)
  congs_rev : Term.t list ref;
}

let ack_create () =
  (* (mem name, rewritten address id) -> replacement variable *)
  let table = Hashtbl.create 64 in
  (* per memory, the (address, variable) instances, newest first *)
  let by_mem = Hashtbl.create 8 in
  let count = ref 0 and instances_rev = ref [] and congs_rev = ref [] in
  let instance (m : Term.mem) addr =
    let key = (m.Term.mem_name, Term.id addr) in
    match Hashtbl.find_opt table key with
    | Some v -> v
    | None ->
        incr count;
        Obs.incr c_ack_instances;
        let v =
          Term.var (Printf.sprintf "ack!%s!%d" m.Term.mem_name !count) m.Term.data_width
        in
        Hashtbl.add table key v;
        let earlier = Option.value ~default:[] (Hashtbl.find_opt by_mem m.Term.mem_name) in
        (* congruence with every earlier instance of this memory; [earlier]
           is newest-first, which is deterministic *)
        List.iter
          (fun (a2, v2) ->
            congs_rev := Term.implies (Term.eq addr a2) (Term.eq v v2) :: !congs_rev)
          earlier;
        Hashtbl.replace by_mem m.Term.mem_name ((addr, v) :: earlier);
        instances_rev := (m, addr, v) :: !instances_rev;
        v
  in
  let rewrite =
    Term.rewriter (fun go t ->
        match t.Term.node with
        | Term.Read (m, addr) -> Some (instance m (go addr))
        | _ -> None)
  in
  { rewrite; instances_rev; congs_rev }

(* One-shot expansion (kept for tests and external callers): rewrites the
   assertions against a fresh state and returns the congruence constraints
   alongside, plus the instances in traversal order. *)
let ackermannize (assertions : Term.t list) =
  let a = ack_create () in
  let rewritten = List.map a.rewrite assertions in
  (rewritten @ List.rev !(a.congs_rev), List.rev !(a.instances_rev))

(* {1 Strategies}

   The SAT core has no configuration; the type survives only because the
   benchmark harness names [Strategy.default]. *)

module Strategy = struct
  type t = unit

  let default = ()
end

(* {1 Sessions} *)

module Session = struct
  type guard = int

  type t = {
    sat : Sat.t;
    blast : Blast.t;
    ack : ack;
    mutable trivially_false : bool;
        (* a permanently asserted term simplified to constant false: the
           session is dead without ever consulting the SAT solver *)
    mutable mark : stats;  (* the totals the last check reported up to *)
    mutable last_sat : (guard list * int * int) option;
        (* the assumptions, encoded clauses and variables of the last check
           if it was [Sat]: a check that matches all three has nothing new
           to decide, so it reuses the assignment still on the trail *)
  }

  let create () =
    let sat = Sat.create () in
    let blast = Blast.create sat in
    { sat; blast; ack = ack_create (); trivially_false = false; mark = empty_stats;
      last_sat = None }

  (* Rewrites [t], extending the session's instance table; returns it with
     the congruence constraints its new instances owe, in discovery order. *)
  let ackermannize s t =
    Obs.span "solver.ackermannize" (fun () ->
        let t = s.ack.rewrite t in
        let congs = List.rev !(s.ack.congs_rev) in
        s.ack.congs_rev := [];
        (t, congs))

  let assert_always s t =
    if Term.width t <> 1 then
      invalid_arg "Solver.Session.assert_always: assertion width <> 1";
    if Term.is_false t then s.trivially_false <- true
    else begin
      let t', congs = ackermannize s t in
      Obs.span "blast.assert" (fun () ->
          List.iter (Blast.assert_term s.blast) congs;
          if Term.is_false t' then s.trivially_false <- true
          else Blast.assert_term s.blast t')
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
      let t', congs = ackermannize s t in
      Obs.span "blast.assert" (fun () ->
          (* congruence constraints relate Ackermann variables only; they
             are valid regardless of which guarded assertions are active,
             so they are asserted permanently *)
          List.iter (Blast.assert_term s.blast) congs;
          if Term.is_false t' then begin
            let g = Blast.fresh_lit s.blast in
            Sat.add_clause s.sat [ -g ];
            g
          end
          else begin
            (* blast first, then allocate the guard, so variable numbering
               for the encoded term matches what a fresh one-shot check
               would produce *)
            let bits = Blast.blast s.blast t' in
            let g = Blast.fresh_lit s.blast in
            Sat.add_clause s.sat [ -g; bits.(0) ];
            g
          end)
    end

  let retract s g = Sat.add_clause s.sat [ -g ]

  let stats s =
    let c = Sat.counters s.sat in
    {
      sat_vars = Sat.num_vars s.sat;
      sat_clauses = Sat.encoded_clauses s.sat;
      sat_conflicts = c.Sat.conflicts;
      sat_restarts = c.Sat.restarts;
      sat_learnt_kept = c.Sat.learnt_kept;
      sat_learnt_deleted = c.Sat.learnt_deleted;
      trivially_unsat = s.trivially_false;
    }

  (* This check's statistics: the totals less the watermark, which then
     moves up to them.  Poisoning is permanent, so [trivially_unsat] holds
     exactly for the checks of a poisoned session. *)
  let take_stats s =
    let now = stats s in
    let d = combine ( - ) now s.mark in
    s.mark <- now;
    d

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
        !(s.ack.instances_rev)
    in
    model_of ~var_value ~read_values

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
    if s.trivially_false then Unsat (take_stats s)
    else begin
      (* Fault-injection hook: a planned spurious Unknown intercepts the
         check {e before} the SAT search, leaving the session untouched, so
         a retry of the same check is honest.  A planned corruption damages
         only the returned model copy, and the retry of a [Sat] check
         re-reads the assignment without searching, so it returns the
         honest model and leaves the session exactly as it was. *)
      match Fault.on_check () with
      | Some Fault.Spurious_unknown -> Unknown (take_stats s)
      | injected -> (
          let key = (assumptions, Sat.encoded_clauses s.sat, Sat.num_vars s.sat) in
          let result =
            if s.last_sat = Some key then Sat.Sat
            else Sat.solve ~assumptions ~budget ?deadline s.sat
          in
          s.last_sat <- (if result = Sat.Sat then Some key else None);
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

let model_env model =
  {
    Term.lookup_var =
      (fun n w ->
        match model.var_value n with
        | Some v -> Some v
        | None -> Some (Bitvec.zero w));
    Term.lookup_read =
      (fun m a ->
        match read_lookup model m a with
        | Some v -> Some v
        | None -> Some (Bitvec.zero m.Term.data_width));
  }
