(* The owl serve daemon.

   One listener (Unix or TCP), one reader systhread per connection, and a
   persistent pool of worker domains ([Pool.Service]) executing synthesis
   and verification jobs.  The division of labor:

   - the {e reader} owns the connection's request stream.  It answers
     control requests (ping, cache stats, shutdown) and hot-tier hits
     inline — neither touches a solver, so neither should wait behind
     one — and enqueues cold work subject to admission control;
   - the {e workers} own the solvers.  Each job runs with [jobs = 1], so
     a request occupies exactly one domain: parallelism comes from
     serving many requests, not from splitting one, and a per-domain
     [Obs] tap attributes the engine's progress events to exactly the
     request that caused them;
   - the {e accept loop} owns the listener.  It blocks in [select] over
     the listen socket and a self-pipe; shutdown writes one byte to the
     pipe, which is the only reliable way to pry a blocked accept open.

   Queueing is two-level for fairness: each connection keeps a FIFO of
   its own pending jobs, and a ready-ring rotates between connections
   that have work.  A worker always takes the head job of the ring's
   head connection, and a connection re-enters the ring only when its
   running job finishes — so one chatty client pipelining hundreds of
   requests interleaves fairly with everyone else instead of occupying
   the whole pool, and one connection's jobs still execute (and answer)
   strictly in order.

   Admission control bounds the {e waiting} jobs: a request is admitted
   while [waiting < queue_depth + idle_workers] (an idle worker will
   take the job immediately, so it never really waits), otherwise the
   reader answers [Busy] without blocking.

   Connection teardown is reference-counted.  The reader holds one
   reference and each queued/running job holds one; the fd closes when
   the count reaches zero with EOF seen.  Closing earlier would be a
   use-after-free in fd space: the kernel recycles descriptor numbers,
   so a worker finishing a job for a closed connection could otherwise
   write its reply into some unrelated, newly-accepted socket.

   Failure handling (see DESIGN.md §13):

   - {e supervision}: an exception escaping a job (the planned
     [worker_kill@N] fault, or anything else run_job fails to contain)
     downs the worker domain via [Pool.Service.Fatal]; the pool counts
     the loss and respawns it.  Then, before dying, the worker settles the
     job — re-queued at the head of its connection's FIFO exactly once,
     answered with a typed ["worker_lost"] error after that;
   - {e deadlines}: a request whose [deadline_seconds] is already
     unsatisfiable at admission is answered ["timeout"] without a queue
     slot; one that expires while queued is answered ["timeout"] by the
     worker that pulls it, without touching a solver; one that reaches a
     solver gets the deadline that remains after its queue wait;
   - {e cancellation}: the reader seeing EOF (or a write failing, which
     the progress tap notices) flips the job's cancel token.  Queued
     jobs are dropped immediately, their admission slots released; the
     running job is cancelled cooperatively — the engine polls the token
     wherever it checks its deadline;
   - {e degraded mode}: with zero workers alive the daemon still answers
     ping/cache_stats and hot-tier hits, shedding only cold solver work
     with [Busy].  [ping] reports worker capacity, queue depth, and the
     cumulative counters so a load balancer can see all of this. *)

type config = {
  addr : Proto.addr;
  jobs : int;
  queue_depth : int;
  hot_tier_size : int;
  cache : Owl_cache.t option;
  server_name : string;
  telemetry : bool;
  dump_dir : string option;
}

let build_id = "owl-serve/1.0 proto-" ^ string_of_int Proto.version

let c_requests = Obs.counter "serve.requests"
let c_rejected = Obs.counter "serve.rejected"
let c_worker_lost = Obs.counter "serve.worker_lost"
let c_cancelled = Obs.counter "serve.cancelled"
let c_shed = Obs.counter "serve.shed"
let c_timeout = Obs.counter "serve.timeout"

let c_degraded_ms = Obs.counter "serve.degraded_ms"
(* degraded time is a duration, surfaced as [degraded_seconds] in the
   health reply; the Obs counter keeps integer milliseconds *)

let h_job_latency = Obs.histogram "serve.job.latency_us"

let w_job_latency = Obs.window "serve.job.latency_us.1m"
(* the last minute of the same distribution: what `owl top` diffs for
   "p50/p99 right now" against the lifetime histogram above *)

(* levels, refreshed from server state whenever a metrics snapshot is
   taken (so a scrape always sees current depth, not the last change) *)
let g_queue = Obs.gauge "serve.queue_waiting"
let g_inflight = Obs.gauge "serve.inflight"
let g_workers_alive = Obs.gauge "serve.workers_alive"
let g_workers_total = Obs.gauge "serve.workers_total"
let g_hot_size = Obs.gauge "serve.hot_tier.size"

(* what the hot tier stores: finished results with [hot = false]; a hit
   re-flags before replying *)
type cached = C_synth of Proto.synth_result | C_verify of Proto.verify_result

type conn = {
  fd : Unix.file_descr;
  wlock : Mutex.t;  (* serializes frames: reader replies vs worker progress *)
  jobs_q : job Queue.t;
  mutable busy : bool;  (* a worker is executing this conn's head job *)
  mutable running : job option;  (* the job [busy] refers to, for cancel *)
  mutable in_ring : bool;
  mutable eof : bool;
  mutable refs : int;  (* reader + queued/running jobs *)
  mutable fd_closed : bool;
}

and job = {
  j_kind : [ `Synth | `Verify ];
  j_design : string;
  j_fp : string;
  j_trace : string;  (* minted at admission; follows the job everywhere *)
  j_options : Synth.Engine.options;
  j_conn : conn;
  j_deadline : float option;  (* absolute, fixed at admission *)
  j_cancel : bool Atomic.t;  (* client gone — stop working for it *)
  mutable j_requeued : bool;  (* already survived one worker loss *)
}

type t = {
  cfg : config;
  lookup : [ `Synth | `Verify ] -> string -> Synth.Engine.problem option;
  lock : Mutex.t;
  work_cv : Condition.t;
  ring : conn Queue.t;
  mutable waiting : int;  (* jobs queued but not yet running *)
  mutable inflight : int;  (* jobs currently executing on a worker *)
  mutable idle : int;  (* workers blocked in [pull] *)
  mutable stopping : bool;
  mutable served : int;
  mutable rejected : int;
  mutable cancelled : int;  (* jobs dropped or stopped for a dead client *)
  mutable shed : int;  (* cold solver work refused while degraded *)
  mutable timeouts : int;  (* requests answered "timeout" pre-solver *)
  mutable degraded_since : float option;  (* inside a degraded span *)
  mutable degraded_accum : float;  (* closed degraded spans, seconds *)
  mutable pool : Synth.Pool.Service.t option;  (* set once, right after start *)
  mutable conns : conn list;
  hot : cached Owl_cache.Lru.t;
  started_at : float;
  wake_w : Unix.file_descr;
  trace_ctr : int Atomic.t;  (* next minted trace id suffix *)
  dump_ctr : int Atomic.t;  (* flight-dump filename disambiguator *)
}

(* "t<start-us-low-bits>-<seq>": unique across the daemon's life and
   across daemons that share a pid (sequential in-process test servers) *)
let mint_trace t =
  Printf.sprintf "t%x-%d"
    (int_of_float (t.started_at *. 1e6) land 0xffffff)
    (Atomic.fetch_and_add t.trace_ctr 1)

(* The flight recorder's black-box dump: best-effort, never fails the
   caller — a telemetry path must not take down a serving path. *)
let flight_dump t ~reason =
  match t.cfg.dump_dir with
  | None -> ()
  | Some dir ->
      if Obs.flight_enabled () then begin
        (try Unix.mkdir dir 0o755 with Unix.Unix_error _ -> ());
        let file =
          Filename.concat dir
            (Printf.sprintf "owl-flight-%d-%s-%d.json" (Unix.getpid ()) reason
               (Atomic.fetch_and_add t.dump_ctr 1))
        in
        try
          let oc = open_out file in
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> output_string oc (Obs.flight_trace_string ()))
        with Sys_error _ -> ()
      end

let locked m f = Mutex.lock m; Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* {1 Connection lifecycle} *)

let release t conn =
  let close_now =
    locked t.lock (fun () ->
        conn.refs <- conn.refs - 1;
        if conn.eof && conn.refs = 0 && not conn.fd_closed then begin
          conn.fd_closed <- true;
          true
        end
        else false)
  in
  if close_now then try Unix.close conn.fd with Unix.Unix_error _ -> ()

(* [false] means the peer is unreachable; callers can only shrug — the
   job itself must complete regardless, and teardown is the reader's job.
   Every server-written frame first passes the [Fault.on_frame] chaos
   hook: [conn_drop@N] severs the socket instead of writing (the client
   experiences a mid-exchange hangup; the reader sees EOF and runs the
   normal disconnect path), [frame_delay@N] just stalls the write. *)
let send conn reply =
  locked conn.wlock (fun () ->
      match Fault.on_frame () with
      | Some Fault.Drop_conn ->
          (try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL
           with Unix.Unix_error _ -> ());
          false
      | (Some (Fault.Delay _) | None) as fa -> (
          (match fa with
          | Some (Fault.Delay d) -> Thread.delay d
          | _ -> ());
          match Proto.write_frame conn.fd (Proto.reply_to_frame reply) with
          | () -> true
          | exception (Unix.Unix_error _ | Proto.Framing_error _) -> false))

let bump_served t = locked t.lock (fun () -> t.served <- t.served + 1)

(* {1 Degraded mode} *)

let pool_stats t =
  match t.pool with
  | Some p -> Synth.Pool.Service.stats p
  | None ->
      (* only before [Service.start] returns; nothing has run yet *)
      Synth.Pool.Service.
        { total = t.cfg.jobs; alive = t.cfg.jobs; lost = 0; respawns = 0 }

(* under t.lock: fold the degraded flag into the span accounting.  The
   daemon is degraded while it has no live worker (and is not merely
   shutting down) — it keeps answering control traffic and hot hits but
   sheds cold solver work. *)
let note_degraded t ~alive =
  let degraded = alive = 0 && not t.stopping in
  (match (t.degraded_since, degraded) with
  | None, true ->
      t.degraded_since <- Some (Unix.gettimeofday ());
      (* black-box the moment the pool went dark.  File IO under t.lock,
         but entry into degraded mode is rare and the dump is bounded. *)
      Obs.instant "serve.degraded" ~args:[ ("reason", Obs.Str "no_workers") ];
      flight_dump t ~reason:"degraded"
  | Some s, false ->
      let span = Unix.gettimeofday () -. s in
      t.degraded_accum <- t.degraded_accum +. span;
      t.degraded_since <- None;
      Obs.incr ~by:(int_of_float (span *. 1e3)) c_degraded_ms
  | _ -> ());
  degraded

(* under t.lock *)
let degraded_seconds t =
  t.degraded_accum
  +.
  match t.degraded_since with
  | Some s -> Unix.gettimeofday () -. s
  | None -> 0.0

(* {1 The scheduler} *)

(* under t.lock: a conn with pending jobs is either busy or in the ring *)
let ring_if_ready t conn =
  if (not conn.busy) && (not conn.in_ring) && not (Queue.is_empty conn.jobs_q)
  then begin
    conn.in_ring <- true;
    Queue.push conn t.ring;
    Condition.signal t.work_cv
  end

(* Some Busy/Err reply to send instead, or None if admitted *)
let enqueue t job =
  let conn = job.j_conn in
  locked t.lock (fun () ->
      if t.stopping then
        Some (Proto.Err { code = "internal"; message = "server is shutting down" })
      else if t.waiting >= t.cfg.queue_depth + t.idle then begin
        t.rejected <- t.rejected + 1;
        Obs.incr c_rejected;
        Some (Proto.Busy { queue_depth = t.waiting })
      end
      else begin
        conn.refs <- conn.refs + 1;
        t.waiting <- t.waiting + 1;
        Queue.push job conn.jobs_q;
        ring_if_ready t conn;
        None
      end)

let finish t conn =
  locked t.lock (fun () ->
      conn.busy <- false;
      conn.running <- None;
      t.inflight <- t.inflight - 1;
      ring_if_ready t conn)

(* The reader saw EOF or a dead socket: nothing this connection still
   has queued can ever be answered.  Drop the queued jobs (releasing
   their admission slots and connection references, so other clients
   stop paying for a dead one), and flip the running job's token — the
   engine will notice at its next deadline poll. *)
let cancel_conn t conn =
  let dropped =
    locked t.lock (fun () ->
        conn.eof <- true;
        let n = Queue.length conn.jobs_q in
        Queue.iter (fun j -> Atomic.set j.j_cancel true) conn.jobs_q;
        Queue.clear conn.jobs_q;
        t.waiting <- t.waiting - n;
        t.cancelled <- t.cancelled + n;
        (match conn.running with
        | Some j -> Atomic.set j.j_cancel true
        | None -> ());
        n)
  in
  if dropped > 0 then Obs.incr ~by:dropped c_cancelled;
  for _ = 1 to dropped do
    release t conn
  done

(* {1 Job execution (worker domains)} *)

let find_str key args =
  match List.assoc_opt key args with Some (Obs.Str s) -> Some s | _ -> None

let find_int key args =
  match List.assoc_opt key args with Some (Obs.Int i) -> i | _ -> 0

(* maps the engine's Obs events to wire progress.  [cur] tracks the
   instruction named by the innermost cegis/verify span Begin: the End
   events carry only results, and with [jobs = 1] those spans never nest
   on one domain, so a single cell suffices.  A progress write failing
   is how a worker discovers mid-solve that its client is gone, so it
   flips the job's cancel token — [Obs.with_tap] swallows anything a tap
   raises, which is exactly why cancellation is a polled token and not
   an exception thrown from here. *)
let progress_tap job =
  let conn = job.j_conn in
  let cur = ref "" in
  let emit p =
    if not (send conn (Proto.Progress p)) then Atomic.set job.j_cancel true
  in
  fun ph name args ->
    match (ph, name) with
    | Obs.Begin, ("cegis.instr" | "verify.instr") -> (
        match find_str "instr" args with
        | Some i ->
            cur := i;
            emit (Proto.Instr_started { instr = i })
        | None -> ())
    | Obs.End, "cegis.instr" ->
        emit
          (Proto.Instr_done
             {
               instr = !cur;
               status = Option.value ~default:"unknown" (find_str "status" args);
               iterations = find_int "iterations" args;
               queries = find_int "queries" args;
             })
    | Obs.End, "verify.instr" ->
        emit
          (Proto.Instr_done
             {
               instr = !cur;
               status = Option.value ~default:"unknown" (find_str "verdict" args);
               iterations = 0;
               queries = 0;
             })
    | Obs.Instant, "resilience.retry" ->
        emit
          (Proto.Retry
             {
               attempt = find_int "attempt" args;
               reason = Option.value ~default:"" (find_str "reason" args);
             })
    | Obs.Instant, "resilience.degrade" ->
        emit (Proto.Degraded { attempt = find_int "attempt" args })
    | _ -> ()

let synth_result_of_outcome (o : Synth.Engine.outcome) =
  let r outcome detail stats =
    { Proto.outcome; detail; bindings = []; stats; hot = false; trace = "" }
  in
  match o with
  | Synth.Engine.Solved s ->
      {
        (r "solved" "" s.Synth.Engine.stats) with
        Proto.bindings =
          List.map
            (fun (h, e) -> (h, Oyster.Printer.expr_to_string e))
            s.Synth.Engine.bindings;
      }
  | Synth.Engine.Timeout stats -> r "timeout" "budget or deadline exhausted" stats
  | Synth.Engine.Unrealizable { instr; stats } ->
      r "unrealizable" (Option.value ~default:"" instr) stats
  | Synth.Engine.Union_failed { diagnostic; stats } ->
      r "union_failed" diagnostic stats
  | Synth.Engine.Not_independent { overlapping; stats; _ } ->
      r "not_independent"
        (String.concat ", "
           (List.map (fun (a, b) -> a ^ "/" ^ b) overlapping))
        stats

let verdict_to_string = function
  | Synth.Engine.Verified -> "verified"
  | Synth.Engine.Violated _ -> "violated"
  | Synth.Engine.Inconclusive -> "inconclusive"

(* [options] comes from the caller rather than [job.j_options] because
   the deadline has been rewritten to what remains after the queue wait
   (the engine's clock starts at [synthesize] or [verify], not at
   admission) *)
let compute t job options =
  match t.lookup job.j_kind job.j_design with
  | None ->
      Error
        {
          Proto.code = "unknown_design";
          message =
            Printf.sprintf "no registry entry (or reference design) named %S"
              job.j_design;
        }
  | Some problem -> (
      (* the wire options already have jobs = 1 (normalized at admission);
         the disk cache is server policy, attached here *)
      let options = Synth.Engine.with_cache t.cfg.cache options in
      let cancel () = Atomic.get job.j_cancel in
      try
        match job.j_kind with
        | `Synth ->
            let outcome =
              Obs.with_tap (progress_tap job) (fun () ->
                  Synth.Engine.synthesize ~options ~cancel problem)
            in
            Ok (C_synth (synth_result_of_outcome outcome))
        | `Verify ->
            let verdicts =
              Obs.with_tap (progress_tap job) (fun () ->
                  Synth.Engine.verify ~options ~cancel problem)
            in
            Ok
              (C_verify
                 {
                   Proto.verdicts =
                     List.map (fun (i, v) -> (i, verdict_to_string v)) verdicts;
                   v_hot = false;
                   v_trace = "";
                 })
      with
      | Synth.Engine.Cancelled ->
          Error
            { Proto.code = "cancelled"; message = "client disconnected" }
      | Synth.Engine.Engine_error m ->
          Error { Proto.code = "internal"; message = m }
      | e ->
          Error { Proto.code = "internal"; message = Printexc.to_string e })

(* hot-tier entries are stored with [hot = false] and an empty trace;
   both are stamped per-request at reply time — the trace id belongs to
   the request being answered, not to the one that populated the tier *)
let reply_of_cached ~hot ~trace = function
  | C_synth r -> Proto.Synth_result { r with Proto.hot; trace }
  | C_verify r -> Proto.Verify_result { r with Proto.v_hot = hot; v_trace = trace }

let rec run_job t job =
  (* the worker-kill chaos hook sits before any real work: an injected
     kill takes exactly the path a worker dying mid-job would — inside
     the serve.job span, so the flight recorder shows the aborted span *)
  Obs.span "serve.job"
    ~args:
      [
        ("design", Obs.Str job.j_design);
        ( "kind",
          Obs.Str (match job.j_kind with `Synth -> "synth" | `Verify -> "verify")
        );
      ]
    (fun () -> run_job_body t job)

and run_job_body t job =
  Fault.on_serve_job ();
  let conn = job.j_conn in
  let t_start = Unix.gettimeofday () in
  let expired =
    match job.j_deadline with
    | Some dl -> Unix.gettimeofday () > dl
    | None -> false
  in
  if Atomic.get job.j_cancel then begin
    (* flipped after this job left the queue; the peer is gone, so there
       is nobody to answer — just account for it *)
    locked t.lock (fun () -> t.cancelled <- t.cancelled + 1);
    Obs.incr c_cancelled
  end
  else if expired then begin
    (* expired while queued: answered without touching a solver *)
    locked t.lock (fun () -> t.timeouts <- t.timeouts + 1);
    Obs.incr c_timeout;
    ignore
      (send conn
         (Proto.Err
            {
              code = "timeout";
              message = "deadline expired while the request was queued";
            }))
  end
  else begin
    (* a duplicate may have been computed while this job sat in the queue *)
    (match Owl_cache.Lru.find t.hot job.j_fp with
    | Some hit ->
        ignore (send conn (reply_of_cached ~hot:true ~trace:job.j_trace hit));
        bump_served t
    | None -> (
        (* the engine restarts its deadline clock now, so hand it only
           what the queue wait left over *)
        let options =
          match job.j_deadline with
          | None -> job.j_options
          | Some dl ->
              Synth.Engine.with_deadline
                (Some (dl -. Unix.gettimeofday ()))
                job.j_options
        in
        match compute t job options with
        | Error e ->
            if e.Proto.code = "cancelled" then begin
              locked t.lock (fun () -> t.cancelled <- t.cancelled + 1);
              Obs.incr c_cancelled
            end;
            ignore (send conn (Proto.Err e))
        | Ok cached ->
            Owl_cache.Lru.add t.hot job.j_fp cached;
            ignore
              (send conn (reply_of_cached ~hot:false ~trace:job.j_trace cached));
            bump_served t));
    if Obs.metrics_enabled () then begin
      let us = int_of_float ((Unix.gettimeofday () -. t_start) *. 1e6) in
      Obs.observe h_job_latency us;
      Obs.observe_window w_job_latency us
    end
  end

(* The executing worker is about to die with this job in hand (it raised
   through [run_job]).  Give the job one second chance: back to the head
   of its connection's FIFO — unless it already had one, or nobody is
   left to read the answer.  When the job is not re-queued it is settled
   right here with a typed, retryable error.  Returns whether the job
   was re-queued (its connection reference then stays live). *)
let settle_lost_job t job =
  let conn = job.j_conn in
  Obs.incr c_worker_lost;
  (* the dying worker's trace context is still installed, so this instant
     lands in the flight recorder tagged with the killed request — then
     the dump snapshots the black box before the domain unwinds *)
  Obs.instant "serve.worker_lost"
    ~args:
      [ ("trace", Obs.Str job.j_trace); ("design", Obs.Str job.j_design) ];
  flight_dump t ~reason:"worker_lost";
  let requeued =
    locked t.lock (fun () ->
        if
          (not job.j_requeued) && (not conn.eof) && (not t.stopping)
          && not (Atomic.get job.j_cancel)
        then begin
          job.j_requeued <- true;
          t.waiting <- t.waiting + 1;
          (* Queue has no push-front; rebuild with the job at the head so
             the connection's answers keep request order *)
          let nq = Queue.create () in
          Queue.push job nq;
          Queue.transfer conn.jobs_q nq;
          Queue.transfer nq conn.jobs_q;
          true
        end
        else false)
  in
  if not requeued then
    ignore
      (send conn
         (Proto.Err
            {
              code = "worker_lost";
              message =
                "the worker executing this request died; safe to retry \
                 (requests are idempotent)";
            }));
  requeued

let pull t () =
  Mutex.lock t.lock;
  let rec wait () =
    match Queue.take_opt t.ring with
    | Some conn -> (
        conn.in_ring <- false;
        match Queue.take_opt conn.jobs_q with
        | None ->
            (* ringed, then its jobs were cancelled by a disconnect *)
            wait ()
        | Some job ->
            conn.busy <- true;
            conn.running <- Some job;
            t.waiting <- t.waiting - 1;
            t.inflight <- t.inflight + 1;
            Mutex.unlock t.lock;
            (* [pull] runs on the worker domain that will execute the
               job, so this is where the request's trace id becomes the
               domain-local context — every span the engine opens from
               here on (pool.service.task included) carries it.  The next
               pull overwrites it; a dying worker keeps it through
               [settle_lost_job]. *)
            Obs.set_trace_context (Some job.j_trace);
            Some
              (fun () ->
                match run_job t job with
                | () ->
                    finish t conn;
                    release t conn
                | exception e ->
                    (* down this worker; the pool counts the loss and
                       respawns it before these last words settle the job,
                       so a client answered worker_lost already sees the
                       loss in its next health report *)
                    raise
                      (Synth.Pool.Service.Fatal
                         ( e,
                           fun () ->
                             let requeued = ref false in
                             Fun.protect
                               ~finally:(fun () ->
                                 finish t conn;
                                 if not !requeued then release t conn)
                               (fun () -> requeued := settle_lost_job t job) ))))
    | None ->
        if t.stopping then begin
          Mutex.unlock t.lock;
          Obs.set_trace_context None;
          None
        end
        else begin
          t.idle <- t.idle + 1;
          Condition.wait t.work_cv t.lock;
          t.idle <- t.idle - 1;
          wait ()
        end
  in
  wait ()

(* {1 Request handling (reader threads)} *)

let cache_stats_now t =
  let hot = Owl_cache.Lru.stats t.hot in
  let served, rejected =
    locked t.lock (fun () -> (t.served, t.rejected))
  in
  {
    Proto.disk = Option.map Owl_cache.disk_stats t.cfg.cache;
    store = Option.map Owl_cache.counters t.cfg.cache;
    hot_tier =
      Some
        {
          Proto.hot_hits = hot.Owl_cache.Lru.hits;
          hot_misses = hot.Owl_cache.Lru.misses;
          hot_evictions = hot.Owl_cache.Lru.evictions;
          hot_size = hot.Owl_cache.Lru.size;
          hot_capacity = Owl_cache.Lru.capacity t.hot;
        };
    served;
    rejected;
    uptime_seconds = Unix.gettimeofday () -. t.started_at;
  }

let health_now t =
  let ps = pool_stats t in
  let hot = Owl_cache.Lru.stats t.hot in
  locked t.lock (fun () ->
      let degraded = note_degraded t ~alive:ps.Synth.Pool.Service.alive in
      {
        Proto.workers = ps.Synth.Pool.Service.total;
        workers_alive = ps.Synth.Pool.Service.alive;
        workers_lost = ps.Synth.Pool.Service.lost;
        queue_waiting = t.waiting;
        degraded;
        cancelled = t.cancelled;
        shed = t.shed;
        timeouts = t.timeouts;
        degraded_seconds = degraded_seconds t;
        uptime_s = Unix.gettimeofday () -. t.started_at;
        build = build_id;
        hot_size = hot.Owl_cache.Lru.size;
        hot_capacity = Owl_cache.Lru.capacity t.hot;
      })

(* refresh the level gauges from live server state, then snapshot the
   whole registry — a scrape reads current depth, not the last change.
   With telemetry off the answer is the empty list, not whatever a
   previous telemetry-on daemon in this process left in the registry *)
let metrics_now t =
  if not t.cfg.telemetry then []
  else
  let ps = pool_stats t in
  let hot = Owl_cache.Lru.stats t.hot in
  locked t.lock (fun () ->
      Obs.set_gauge g_queue t.waiting;
      Obs.set_gauge g_inflight t.inflight);
  Obs.set_gauge g_workers_alive ps.Synth.Pool.Service.alive;
  Obs.set_gauge g_workers_total ps.Synth.Pool.Service.total;
  Obs.set_gauge g_hot_size hot.Owl_cache.Lru.size;
  List.map Proto.wire_metric_of_obs (Obs.metrics ())

let initiate_stop t =
  let fire =
    locked t.lock (fun () ->
        if t.stopping then false
        else begin
          t.stopping <- true;
          Condition.broadcast t.work_cv;
          true
        end)
  in
  if fire then
    try ignore (Unix.write t.wake_w (Bytes.make 1 'x') 0 1)
    with Unix.Unix_error _ -> ()

let fingerprint kind design options =
  Owl_cache.fingerprint
    (String.concat "\n" [ kind; design; Proto.options_to_json options ])

let handle t conn ~trace (req : Proto.request) =
  Obs.incr c_requests;
  match req with
  | Proto.Ping ->
      ignore
        (send conn
           (Proto.Pong
              {
                server = t.cfg.server_name;
                protocol = Proto.version;
                health = health_now t;
              }));
      bump_served t
  | Proto.Cache_stats ->
      ignore (send conn (Proto.Cache_stats_reply (cache_stats_now t)));
      bump_served t
  | Proto.Metrics ->
      ignore (send conn (Proto.Metrics_reply (metrics_now t)));
      bump_served t
  | Proto.Dump_trace { trace = filter } ->
      ignore
        (send conn
           (Proto.Dump_trace_reply
              { trace_json = Obs.flight_trace_string ?trace:filter () }));
      bump_served t
  | Proto.Shutdown ->
      ignore (send conn Proto.Shutdown_ack);
      bump_served t;
      initiate_stop t
  | Proto.Synth { design; options } | Proto.Verify { design; options } -> (
      let kind = match req with Proto.Synth _ -> `Synth | _ -> `Verify in
      let kind_s = match kind with `Synth -> "synth" | `Verify -> "verify" in
      (* one request, one domain: intra-request parallelism is traded for
         cross-request throughput, and it keeps the progress tap honest *)
      let options = Synth.Engine.with_jobs 1 options in
      let fp = fingerprint kind_s design options in
      match Owl_cache.Lru.find t.hot fp with
      | Some hit ->
          ignore (send conn (reply_of_cached ~hot:true ~trace hit));
          bump_served t
      | None -> (
          (* cold solver work from here on: deadline sanity, degraded-mode
             shedding, then admission.  Control requests and hot hits never
             reach any of these. *)
          let dl =
            options.Synth.Engine.budget.Synth.Engine.Budget.deadline_seconds
          in
          match dl with
          | Some d when d <= 0.0 ->
              (* unsatisfiable before it starts: no queue slot consumed *)
              locked t.lock (fun () -> t.timeouts <- t.timeouts + 1);
              Obs.incr c_timeout;
              ignore
                (send conn
                   (Proto.Err
                      {
                        code = "timeout";
                        message =
                          Printf.sprintf
                            "deadline_seconds = %g is already unsatisfiable"
                            d;
                      }))
          | _ ->
              let alive = (pool_stats t).Synth.Pool.Service.alive in
              let shed =
                locked t.lock (fun () ->
                    let degraded = note_degraded t ~alive in
                    let shed = Fault.on_admit () || degraded in
                    if shed then begin
                      t.shed <- t.shed + 1;
                      t.rejected <- t.rejected + 1
                    end;
                    shed)
              in
              if shed then begin
                Obs.incr c_shed;
                Obs.incr c_rejected;
                ignore (send conn (Proto.Busy { queue_depth = t.waiting }))
              end
              else begin
                let job =
                  {
                    j_kind = kind;
                    j_design = design;
                    j_fp = fp;
                    j_trace = trace;
                    j_options = options;
                    j_conn = conn;
                    j_deadline =
                      Option.map (fun d -> Unix.gettimeofday () +. d) dl;
                    j_cancel = Atomic.make false;
                    j_requeued = false;
                  }
                in
                match enqueue t job with
                | None -> ()
                | Some reply -> ignore (send conn reply)
              end))

let reader t conn () =
  let rec loop () =
    match Proto.read_frame conn.fd with
    | None -> ()
    | Some payload ->
        (match Proto.request_of_frame payload with
        | Ok req ->
            (* admission is where the request's identity is fixed: adopt
               the client's trace id if it sent one, mint one otherwise *)
            let trace =
              match Proto.trace_of_frame payload with
              | Some id -> id
              | None -> mint_trace t
            in
            handle t conn ~trace req
        | Error e -> ignore (send conn (Proto.Err e)));
        loop ()
    | exception Proto.Framing_error _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  loop ();
  cancel_conn t conn;
  release t conn

(* {1 Listener} *)

let resolve_inet host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found ->
      raise (Unix.Unix_error (Unix.EINVAL, "gethostbyname", host)))

let listen_on = function
  | Proto.Unix_path path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         Unix.bind fd (Unix.ADDR_UNIX path);
         Unix.listen fd 64
       with e -> Unix.close fd; raise e);
      fd
  | Proto.Tcp (host, port) ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      (try
         Unix.setsockopt fd Unix.SO_REUSEADDR true;
         Unix.bind fd (Unix.ADDR_INET (resolve_inet host, port));
         Unix.listen fd 64
       with e -> Unix.close fd; raise e);
      fd

let run ?(ready = fun () -> ()) cfg ~lookup =
  if cfg.jobs < 1 then invalid_arg "Server.run: jobs < 1";
  if cfg.queue_depth < 0 then invalid_arg "Server.run: queue_depth < 0";
  (* a peer that disappears mid-reply must surface as EPIPE, not kill us *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let listen_fd = listen_on cfg.addr in
  let wake_r, wake_w = Unix.pipe () in
  let t =
    {
      cfg;
      lookup;
      lock = Mutex.create ();
      work_cv = Condition.create ();
      ring = Queue.create ();
      waiting = 0;
      inflight = 0;
      idle = 0;
      stopping = false;
      served = 0;
      rejected = 0;
      cancelled = 0;
      shed = 0;
      timeouts = 0;
      degraded_since = None;
      degraded_accum = 0.0;
      pool = None;
      conns = [];
      hot = Owl_cache.Lru.create ~capacity:cfg.hot_tier_size;
      started_at = Unix.gettimeofday ();
      wake_w;
      trace_ctr = Atomic.make 0;
      dump_ctr = Atomic.make 0;
    }
  in
  (* live telemetry: the metric registry plus the always-on flight
     recorder, for the daemon's whole life.  [telemetry = false] is the
     measured-overhead baseline — both stay null sinks. *)
  if cfg.telemetry then begin
    Obs.enable_metrics ();
    Obs.enable_flight ()
  end;
  let pool = Synth.Pool.Service.start ~jobs:cfg.jobs ~pull:(pull t) in
  t.pool <- Some pool;
  ready ();
  let threads = ref [] in
  let rec accept_loop () =
    match Unix.select [ listen_fd; wake_r ] [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
    | readable, _, _ ->
        if List.mem wake_r readable then () (* shutdown *)
        else begin
          (if List.mem listen_fd readable then
             match Unix.accept listen_fd with
             | exception Unix.Unix_error _ -> ()
             | fd, _ ->
                 let conn =
                   {
                     fd;
                     wlock = Mutex.create ();
                     jobs_q = Queue.create ();
                     busy = false;
                     running = None;
                     in_ring = false;
                     eof = false;
                     refs = 1;
                     fd_closed = false;
                   }
                 in
                 locked t.lock (fun () -> t.conns <- conn :: t.conns);
                 threads := Thread.create (reader t conn) () :: !threads);
          accept_loop ()
        end
  in
  accept_loop ();
  (* teardown order matters: stop accepting, drain the queue (workers
     retire once the ring runs dry), then wake any reader still blocked
     in read so it can release its reference and close its fd *)
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (match cfg.addr with
  | Proto.Unix_path path -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
  | Proto.Tcp _ -> ());
  Synth.Pool.Service.join pool;
  locked t.lock (fun () ->
      List.iter
        (fun conn ->
          if not conn.fd_closed then
            try Unix.shutdown conn.fd Unix.SHUTDOWN_RECEIVE
            with Unix.Unix_error _ -> ())
        t.conns);
  List.iter Thread.join !threads;
  (* stop recording (accumulated metric values persist for at_exit
     summaries; the flight rings are dropped) so a telemetry-off run
     started later in the same process really is off *)
  if cfg.telemetry then begin
    Obs.disable_flight ();
    Obs.disable_metrics ()
  end;
  (try Unix.close wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()
