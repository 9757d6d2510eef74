(* The owl serve daemon.

   One listener (Unix or TCP), one reader systhread per connection, and
   [jobs] worker domains executing synthesis and verification jobs.  The
   division of labor:

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

   - {e lost jobs}: an exception escaping a job (the planned
     [worker_kill@N] fault, or anything else run_job fails to contain) is
     caught by the worker loop that ran it, which counts the loss and
     retries the job once in place — answering a typed ["worker_lost"]
     error if the retry raises too — and goes on serving;
   - {e deadlines}: a request whose [deadline_seconds] is already
     unsatisfiable at admission is answered ["timeout"] without a queue
     slot; one that expires while queued is answered ["timeout"] by the
     worker that pulls it, without touching a solver; one that reaches a
     solver gets the deadline that remains after its queue wait;
   - {e cancellation}: the reader seeing EOF (or a write failing, which
     the progress tap notices) flips the job's cancel token.  Queued
     jobs are dropped immediately, their admission slots released; the
     running job is cancelled cooperatively — the engine polls the token
     wherever it checks its deadline.

   Every serve and cache event has one tally: the daemon's own fields
   under [t.lock], the hot tier's and the disk cache's counters.  One
   [status] snapshot of them answers [ping] (so a load balancer sees the
   lost jobs, the queue depth and the cumulative counters),
   [cache_stats], and the derived rows of [metrics]. *)

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

(* per-domain events the telemetry ring keeps: a full ring renders to
   about 0.6 MB of Chrome JSON per domain, far below [Proto.max_frame] *)
let ring_capacity = 4096

let c_requests = Obs.counter "serve.requests"

(* counted twice on purpose: [t.rejected] is what the replies report,
   and this registry copy is what perfbench's in-process ledger reads
   through [Obs.metrics] until it takes the figure from a stats reply *)
let c_rejected = Obs.counter "serve.rejected"
let c_tasks = Obs.counter "pool.service.tasks"
let h_job_latency = Obs.histogram "serve.job.latency_us"

let w_job_latency = Obs.window "serve.job.latency_us.1m"
(* the last minute of the same distribution: what `owl top` diffs for
   "p50/p99 right now" against the lifetime histogram above *)

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
  mutable timeouts : int;  (* requests answered "timeout" pre-solver *)
  mutable lost : int;  (* job executions lost to an escaped exception *)
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

(* The event ring's black-box dump: best-effort, never fails the
   caller — a telemetry path must not take down a serving path. *)
let flight_dump t ~reason =
  match t.cfg.dump_dir with
  | None -> ()
  | Some dir ->
      if Obs.enabled () then begin
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
            (fun () -> Obs.write_chrome_trace oc)
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
        (* the registry's copy, counted twice on purpose: see [c_rejected] *)
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
  for _ = 1 to dropped do
    release t conn
  done

(* {1 Job execution (worker domains)} *)

let find_str key args =
  match List.assoc_opt key args with Some (Obs.Str s) -> Some s | _ -> None

let find_int key args =
  match List.assoc_opt key args with Some (Obs.Int i) -> i | _ -> 0

(* maps the engine's Obs events to wire progress.  [cur] tracks the
   instruction (["joint"] for a joint or monolithic loop) named by the
   innermost cegis/verify span Begin: the End
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
    | Obs.Begin, ("cegis.instr" | "cegis.joint" | "verify.instr") -> (
        match find_str "instr" args with
        | Some i ->
            cur := i;
            emit (Proto.Instr_started { instr = i })
        | None -> ())
    | Obs.End, (("cegis.instr" | "cegis.joint" | "verify.instr") as span) ->
        (* a verify span names its status "verdict" and runs no rounds *)
        let status = if span = "verify.instr" then "verdict" else "status" in
        emit
          (Proto.Instr_done
             {
               instr = !cur;
               status = Option.value ~default:"unknown" (find_str status args);
               iterations = find_int "iterations" args;
               queries = find_int "queries" args;
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
  let r detail stats =
    {
      Proto.outcome = Synth.Engine.outcome_name o;
      detail;
      bindings = [];
      stats;
      hot = false;
      trace = "";
    }
  in
  match o with
  | Synth.Engine.Solved s ->
      {
        (r "" s.Synth.Engine.stats) with
        Proto.bindings =
          List.map
            (fun (h, e) -> (h, Oyster.Printer.expr_to_string e))
            s.Synth.Engine.bindings;
      }
  | Synth.Engine.Timeout stats -> r "budget or deadline exhausted" stats
  | Synth.Engine.Unrealizable { instr; stats } ->
      r (Option.value ~default:"" instr) stats
  | Synth.Engine.Union_failed { diagnostic; stats } -> r diagnostic stats
  | Synth.Engine.Not_independent { overlapping; feedback; stats } ->
      r
        (String.concat ", "
           (List.map (fun (a, b) -> a ^ "/" ^ b) overlapping
           @ List.map Synth.Independence.path_to_string feedback))
        stats

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
                     List.map (fun (i, v) -> (i, Synth.Engine.verdict_name v)) verdicts;
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

(* A timeout, or an inconclusive verdict, reflects the queue wait and the
   machine's load as much as the request: a repeat must solve afresh *)
let load_dependent = function
  | C_synth r -> r.Proto.outcome = "timeout"
  | C_verify r ->
      List.exists (fun (_, v) -> v = "inconclusive") r.Proto.verdicts

let rec run_job t job =
  (* the worker-kill chaos hook sits before any real work: an injected
     kill takes exactly the path any exception escaping a job would —
     inside the serve.job span, so the event ring shows the aborted span *)
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
    locked t.lock (fun () -> t.cancelled <- t.cancelled + 1)
  end
  else if expired then begin
    (* expired while queued: answered without touching a solver *)
    locked t.lock (fun () -> t.timeouts <- t.timeouts + 1);
    ignore
      (send conn
         (Proto.Err
            {
              code = "timeout";
              message = "deadline expired while the request was queued";
            }))
  end
  else begin
    (* a duplicate may have been computed while this job sat in the
       queue; the reader already counted this request's probe *)
    (match Owl_cache.Lru.find ~count:false t.hot job.j_fp with
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
            if e.Proto.code = "cancelled" then
              locked t.lock (fun () -> t.cancelled <- t.cancelled + 1);
            ignore (send conn (Proto.Err e))
        | Ok cached ->
            if not (load_dependent cached) then
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

(* [run_job] raised (the planned [worker_kill@N] fault, or anything else
   it failed to contain).  Put the loss on the books — the instant and
   the dump carry the killed request's trace, still this domain's
   context — and say whether the job may run again: once, and only
   while somebody is left to read the answer. *)
let note_lost t job ~retried =
  Obs.instant "serve.worker_lost"
    ~args:
      [ ("trace", Obs.Str job.j_trace); ("design", Obs.Str job.j_design) ];
  flight_dump t ~reason:"worker_lost";
  locked t.lock (fun () ->
      t.lost <- t.lost + 1;
      (not retried) && (not job.j_conn.eof) && (not t.stopping)
      && not (Atomic.get job.j_cancel))

(* A job is settled on the worker that pulled it.  A domain is intact
   after an exception unwinds ([Obs.with_tap] restores its slot, [work]
   resets the trace context per job), so a job that raises costs only
   the job: it is retried in place — its connection stays busy, so the
   answers keep request order — and after a second loss answered with a
   typed, retryable error. *)
let execute t job =
  let rec attempt ~retried =
    match run_job t job with
    | () -> ()
    | exception _ ->
        if note_lost t job ~retried then attempt ~retried:true
        else
          ignore
            (send job.j_conn
               (Proto.Err
                  {
                    code = "worker_lost";
                    message =
                      "executing this request failed twice; safe to retry \
                       (requests are idempotent)";
                  }))
  in
  Obs.span "pool.service.task" (fun () -> attempt ~retried:false);
  Obs.incr c_tasks;
  finish t job.j_conn;
  release t job.j_conn

(* the head job of the ring's head connection, blocking while there is
   none; [None] once the daemon is stopping and the ring has run dry *)
let pull t =
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
            Some job)
    | None ->
        if t.stopping then None
        else begin
          t.idle <- t.idle + 1;
          Condition.wait t.work_cv t.lock;
          t.idle <- t.idle - 1;
          wait ()
        end
  in
  locked t.lock wait

(* a worker domain's life: pull, execute, until the drain *)
let rec work t =
  match pull t with
  | None -> ()
  | Some job ->
      (* this domain runs the job, so the request's trace id becomes the
         domain-local context: every span the engine opens carries it *)
      Obs.set_trace_context (Some job.j_trace);
      execute t job;
      work t

(* {1 Request handling (reader threads)} *)

(* {2 Status: one reading of every tally}

   The replies that report on the daemon — [ping]'s health, the cache
   stats, the derived rows of [metrics] — are projections of one
   snapshot, so no two of them can count an event differently. *)

type status = {
  served : int;
  rejected : int;
  cancelled : int;
  timeouts : int;
  lost : int;
  waiting : int;
  inflight : int;
  hot : Owl_cache.Lru.stats;
  hot_capacity : int;
  store : Owl_cache.counters option;  (* the disk cache's tallies *)
  uptime : float;
}

let status (t : t) =
  let hot = Owl_cache.Lru.stats t.hot in
  let hot_capacity = Owl_cache.Lru.capacity t.hot in
  let store = Option.map Owl_cache.counters t.cfg.cache in
  let uptime = Unix.gettimeofday () -. t.started_at in
  locked t.lock (fun () ->
      {
        served = t.served;
        rejected = t.rejected;
        cancelled = t.cancelled;
        timeouts = t.timeouts;
        lost = t.lost;
        waiting = t.waiting;
        inflight = t.inflight;
        hot;
        hot_capacity;
        store;
        uptime;
      })

let health (t : t) (s : status) =
  {
    Proto.workers = t.cfg.jobs;
    workers_lost = s.lost;
    queue_waiting = s.waiting;
    cancelled = s.cancelled;
    timeouts = s.timeouts;
    uptime_s = s.uptime;
    build = build_id;
    hot_size = s.hot.Owl_cache.Lru.size;
    hot_capacity = s.hot_capacity;
  }

(* the disk walk stays out of [status]: ping must not pay for it *)
let cache_stats (t : t) (s : status) =
  {
    Proto.disk = Option.map Owl_cache.disk_stats t.cfg.cache;
    store = s.store;
    hot_tier =
      Some
        {
          Proto.hot_hits = s.hot.Owl_cache.Lru.hits;
          hot_misses = s.hot.Owl_cache.Lru.misses;
          hot_evictions = s.hot.Owl_cache.Lru.evictions;
          hot_size = s.hot.Owl_cache.Lru.size;
          hot_capacity = s.hot_capacity;
        };
    served = s.served;
    rejected = s.rejected;
    uptime_seconds = s.uptime;
  }

(* The metric rows a status snapshot implies: counters (left out at
   zero, as the registry leaves out an unbumped counter) and levels *)
let derived_metrics (t : t) (s : status) =
  let row kind (name, n) =
    {
      Proto.m_name = name;
      m_kind = kind;
      m_count = n;
      m_sum = n;
      m_min = 0;
      m_max = 0;
      m_p50 = 0;
      m_p90 = 0;
      m_p99 = 0;
    }
  in
  let store =
    match s.store with
    | None -> []
    | Some c ->
        Owl_cache.
          [
            ("cache.hit", c.hits);
            ("cache.miss", c.misses);
            ("cache.stale", c.stale);
            ("cache.write", c.writes);
          ]
  in
  let counters =
    [
      ("serve.cancelled", s.cancelled);
      ("serve.timeout", s.timeouts);
      ("serve.worker_lost", s.lost);
      ("cache.hot.hit", s.hot.Owl_cache.Lru.hits);
      ("cache.hot.miss", s.hot.Owl_cache.Lru.misses);
      ("cache.hot.eviction", s.hot.Owl_cache.Lru.evictions);
    ]
    @ store
  in
  List.map (row "counter") (List.filter (fun (_, n) -> n <> 0) counters)
  @ List.map (row "gauge")
      [
        ("serve.queue_waiting", s.waiting);
        ("serve.inflight", s.inflight);
        ("serve.workers_total", t.cfg.jobs);
        ("serve.hot_tier.size", s.hot.Owl_cache.Lru.size);
      ]

(* With telemetry off the answer is the empty list, not whatever a
   previous telemetry-on daemon in this process left in the registry *)
let metrics (t : t) =
  if not t.cfg.telemetry then []
  else
    List.sort
      (fun a b -> compare a.Proto.m_name b.Proto.m_name)
      (derived_metrics t (status t)
      @ List.map Proto.wire_metric_of_obs (Obs.metrics ()))

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
                health = health t (status t);
              }));
      bump_served t
  | Proto.Cache_stats ->
      ignore (send conn (Proto.Cache_stats_reply (cache_stats t (status t))));
      bump_served t
  | Proto.Metrics ->
      ignore (send conn (Proto.Metrics_reply (metrics t)));
      bump_served t
  | Proto.Dump_trace { trace = filter } ->
      ignore
        (send conn
           (Proto.Dump_trace_reply
              { trace_json = Obs.chrome_trace_string ?trace:filter () }));
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
          (* cold solver work from here on: deadline sanity, the planned
             [shed@N] fault, then admission.  Control requests and hot hits
             never reach any of these. *)
          let dl = options.Synth.Engine.deadline_seconds in
          match dl with
          | Some d when d <= 0.0 ->
              (* unsatisfiable before it starts: no queue slot consumed *)
              locked t.lock (fun () -> t.timeouts <- t.timeouts + 1);
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
              if Fault.on_admit () then begin
                let queue_depth =
                  locked t.lock (fun () ->
                      t.rejected <- t.rejected + 1;
                      t.waiting)
                in
                (* the registry's copy, counted twice on purpose: see
                   [c_rejected] *)
                Obs.incr c_rejected;
                ignore (send conn (Proto.Busy { queue_depth }))
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
        (match Proto.request_of_frame_traced payload with
        | Ok (req, trace) ->
            (* admission is where the request's identity is fixed: adopt
               the client's trace id if it sent one, mint one otherwise *)
            let trace =
              match trace with Some id -> id | None -> mint_trace t
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

let listen_on addr =
  let sa = Proto.sockaddr_of_addr addr in
  let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
  (try
     (match addr with
     | Proto.Unix_path path -> (try Unix.unlink path with Unix.Unix_error _ -> ())
     | Proto.Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
     Unix.bind fd sa;
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
      timeouts = 0;
      lost = 0;
      conns = [];
      hot = Owl_cache.Lru.create ~capacity:cfg.hot_tier_size;
      started_at = Unix.gettimeofday ();
      wake_w;
      trace_ctr = Atomic.make 0;
      dump_ctr = Atomic.make 0;
    }
  in
  (* live telemetry: the metric registry plus the event ring as the
     daemon's black box.  The ring restarts at [ring_capacity] so every
     dump stays far below [Proto.max_frame]; [telemetry = false] is the
     measured-overhead baseline and leaves both as they were. *)
  let ring_was_on = Obs.enabled () in
  if cfg.telemetry then begin
    Obs.enable_metrics ();
    Obs.enable ~capacity:ring_capacity ()
  end;
  let workers = List.init cfg.jobs (fun _ -> Domain.spawn (fun () -> work t)) in
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
  List.iter Domain.join workers;
  locked t.lock (fun () ->
      List.iter
        (fun conn ->
          if not conn.fd_closed then
            try Unix.shutdown conn.fd Unix.SHUTDOWN_RECEIVE
            with Unix.Unix_error _ -> ())
        t.conns);
  List.iter Thread.join !threads;
  (* stop recording (accumulated metric values persist for at_exit
     summaries) so a telemetry-off run started later in the same process
     really is off; a ring that was already running before the daemon —
     [owl serve --trace] — keeps running for the caller's export *)
  if cfg.telemetry then begin
    if not ring_was_on then Obs.disable ();
    Obs.disable_metrics ()
  end;
  (try Unix.close wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()
