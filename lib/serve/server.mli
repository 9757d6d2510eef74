(** The [owl serve] daemon: a long-lived synthesis service.

    Listens on a Unix or TCP socket, speaks the versioned {!Proto} wire
    protocol, and multiplexes client requests onto [jobs] long-lived
    worker domains.  A job that raises out of its worker is caught
    there and retried once in place; a second failure answers the
    client with a typed ["worker_lost"] error, and the worker keeps
    serving.  Three mechanisms shape latency:

    - {b Admission control.}  At most [queue_depth] jobs may wait (jobs
      an idle worker would take immediately do not count); a request
      beyond that is answered [Busy] instead of queued, so clients see
      backpressure in bounded time rather than an unbounded queue.
    - {b Fairness.}  Each connection's work executes strictly in order,
      and a ready-ring round-robins across connections with pending
      work — a client pipelining many requests shares the pool fairly
      with everyone else.
    - {b A hot tier.}  An in-process LRU ({!Owl_cache.Lru}) in front of
      the optional on-disk {!Owl_cache} maps request fingerprints
      (kind + design + canonical options JSON) to finished results.
      Repeat problems are answered by the connection's reader thread
      with [hot = true], touching neither a solver nor the disk.

    Each admitted job runs with [jobs = 1] on one worker domain —
    parallelism comes from serving requests concurrently, not from
    splitting one — and streams {!Proto.progress} events to its client
    through a per-domain {!Obs.with_tap} over the engine's existing
    instrumentation.  Per-request deadlines and budgets arrive in the
    request's options and flow through the engine's budget machinery
    unchanged. *)

type config = {
  addr : Proto.addr;
  jobs : int;  (** worker domains; must be [>= 1] *)
  queue_depth : int;
      (** max jobs waiting beyond what idle workers absorb; [0] means
          a request is admitted only when a worker is free *)
  hot_tier_size : int;  (** LRU capacity; [0] disables the hot tier *)
  cache : Owl_cache.t option;
      (** on-disk cache attached to every job's engine options *)
  server_name : string;  (** reported in [Pong] replies *)
  telemetry : bool;
      (** enable live telemetry for the daemon's lifetime: the {!Obs}
          metric registry (request and task counters, the job latency
          histogram and its one-minute window) and the {!Obs} event
          ring as a black box of the newest 4096 events per domain
          (served by [dump_trace]).  The [metrics] request answers the
          registry merged with counter and gauge rows derived from the
          daemon's own tallies (cancellations, timeouts, lost jobs,
          queue depth, in-flight jobs, workers, both cache tiers) — the
          tallies [ping] and [cache_stats] report, which are kept with
          telemetry off too.  The daemon restarts the ring at start and
          disables it at teardown unless it was already running.
          [false] leaves registry and ring as they were — off, the
          measured-overhead baseline — and [metrics] answers an empty
          list. *)
  dump_dir : string option;
      (** where automatic black-box dumps of the event ring go (timestamped
          [owl-flight-<pid>-<reason>-<n>.json] files, written each time
          a job is lost to an escaped exception, reason
          [worker_lost]); [None] disables automatic dumps.  A dump needs
          only a running event ring: [telemetry] starts one, and so does
          a caller that enabled {!Obs} tracing before [run] ([owl serve
          --trace]). *)
}

val run :
  ?ready:(unit -> unit) ->
  config ->
  lookup:([ `Synth | `Verify ] -> string -> Synth.Engine.problem option) ->
  unit
(** Runs the daemon until a [Shutdown] request arrives, then drains:
    queued jobs finish, their replies are delivered, worker domains and
    reader threads are joined, and the listening socket is closed (and
    unlinked, for Unix paths) before [run] returns.

    [lookup] resolves a request's design name to a problem — the
    case-study registry in the CLI, a stub in tests.  For [`Verify] it
    must return the problem with the completed (hole-free) design to
    check — the reference implementation, in the CLI — or [None] when
    there is none.  [ready] is
    called once the socket is listening and workers are started, before
    the first accept: the hook an in-process harness uses to know it may
    connect.  Raises [Invalid_argument] on [jobs < 1] or
    [queue_depth < 0], and [Unix.Unix_error] if the address cannot be
    bound.  [SIGPIPE] is ignored process-wide (a vanished peer must
    surface as a write error, not a signal). *)
