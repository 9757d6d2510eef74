(** Synchronous client for an [owl serve] daemon.

    One request in flight per handle: each call writes its request frame
    and blocks until the terminal reply, forwarding streamed
    {!Proto.progress} events to [on_progress] as they arrive.  Handles
    are not safe to share across threads without external locking (the
    reply stream would interleave); open one handle per thread instead —
    the server multiplexes connections fairly.

    Any call may raise {!Server_busy} (admission control declined — back
    off and retry), {!Server_error} (the server answered with an error,
    e.g. ["unknown_design"] or ["version_skew"]), {!Protocol_error} (the
    reply stream itself is broken), {!Proto.Framing_error}, or
    [Unix.Unix_error]. *)

type t

exception Server_busy of int
(** The queue already held this many waiting jobs. *)

exception Server_error of Proto.error
exception Protocol_error of string

val connect : Proto.addr -> t
(** Raises [Unix.Unix_error] if the daemon is not reachable. *)

val close : t -> unit

val ping : t -> string * int * Proto.health
(** Server name, protocol version, and the health report (workers,
    lost jobs, queue depth — see {!Proto.health}).  An
    old server that predates the report answers with
    {!Proto.empty_health}. *)

val synth :
  ?on_progress:(Proto.progress -> unit) ->
  t ->
  design:string ->
  Synth.Engine.options ->
  Proto.synth_result

val verify :
  ?on_progress:(Proto.progress -> unit) ->
  t ->
  design:string ->
  Synth.Engine.options ->
  Proto.verify_result

val cache_stats : t -> Proto.cache_stats

val metrics : t -> Proto.wire_metric list
(** The server's metrics, sorted by name: its live registry (request
    and task counters, lifetime histograms, the sliding 1-minute latency
    window) plus counters and gauges read from the same status snapshot
    as {!ping} and {!cache_stats} at the moment of the request (queue
    depth, in-flight jobs, workers, hot-tier occupancy, cancellations,
    timeouts, lost jobs, both cache tiers' tallies).  Empty when the
    daemon runs with telemetry disabled.  Render with {!Proto.metrics_to_prometheus} or
    {!Proto.metrics_to_json}. *)

val dump_trace : ?trace:string -> t -> string
(** The server's event ring — the bounded per-domain ring of its newest
    spans and instants — serialized as Chrome trace-event JSON.
    [?trace] restricts the dump to the events of one request-scoped
    trace id (as returned in {!Proto.synth_result.trace}).  The JSON is
    empty-but-valid when the ring is off (telemetry disabled). *)

val shutdown : t -> unit
(** Asks the daemon to drain and exit; returns once acknowledged. *)

val with_retry :
  ?retries:int ->
  ?backoff_ms:int ->
  ?seed:int ->
  ?on_retry:(attempt:int -> delay:float -> exn -> unit) ->
  Proto.addr ->
  (t -> 'a) ->
  'a
(** [with_retry addr f] connects, runs [f] on the handle, and closes it.
    If connecting or [f] fails with a retryable error — {!Server_busy},
    a ["worker_lost"] {!Server_error}, a broken connection
    ({!Protocol_error}, {!Proto.Framing_error}), or a transient
    [Unix.Unix_error] (refused, reset, pipe, missing socket) — it backs
    off and tries again on a {e fresh} connection, up to [retries]
    (default 0) more times; anything else, and the last failure, re-raise
    unchanged.  Safe for [synth]/[verify] because requests are idempotent
    by content fingerprint: a duplicate submission finds the first run's
    hot-tier entry, it cannot produce divergent bindings.

    The backoff for attempt [k] is [backoff_ms * 2^(k-1)] milliseconds
    (default base 100), jittered uniformly into its upper half so
    simultaneously-rejected clients spread out; [seed] makes one client's
    jitter reproducible.  Each retry bumps the [client.retries] Owl_obs
    counter and calls [on_retry] with the upcoming delay and the failure
    being retried. *)
