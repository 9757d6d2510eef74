(** The [owl serve] wire protocol: version-stamped, length-prefixed JSON.

    Every message on the wire is one {e frame}: a 4-byte big-endian
    unsigned length followed by exactly that many bytes of UTF-8 JSON.
    Every JSON document is an object carrying the protocol {!version}
    under ["v"] and its kind under ["t"]; a frame whose version does not
    match is rejected with the distinct ["version_skew"] error code, so
    old clients get "upgrade", not "bad request".

    The conversation is strictly client-initiated: the client writes one
    {!request} frame, then reads {!reply} frames until a terminal one
    arrives.  [Progress] replies are non-terminal — a [synth] or [verify]
    request streams zero or more of them before its result; every other
    reply kind terminates the exchange.  Requests on one connection are
    answered in order (the server pipelines at most one in-flight request
    per connection), so no correlation ids are needed.

    Each wire record is declared once inside this module, as a list of
    members (name, JSON type, getter, value when absent); its encoder and
    decoder are both derived from that declaration, so the two directions
    cannot drift.  A decoder ignores members it does not declare, and a
    member that postdates the first protocol-1 peers reads as its
    documented default when absent — that is how the protocol has grown
    without a version bump.  The codecs render through {!Json} (the
    Owl_obs emitter and strict parser), so escaping agrees byte-for-byte
    with every other JSON the toolchain writes.  Decoding never raises:
    malformed payloads come back as [Error {code; message}].  Framing
    does raise ({!Framing_error}) — once the length discipline is broken
    the stream cannot be resynced. *)

val version : int
(** Protocol version stamped into (and required of) every frame. *)

val max_frame : int
(** Hard cap on payload bytes (16 MiB).  A length prefix above this is a
    {!Framing_error} — it is either corruption or abuse, and reading it
    would let one peer balloon the other's memory. *)

exception Framing_error of string
(** The byte stream violated the framing discipline: EOF inside a prefix
    or payload, or an oversized/negative length prefix.  The connection
    is unrecoverable; close it. *)

(** {1 Addresses} *)

type addr =
  | Unix_path of string  (** Unix-domain socket at this filesystem path *)
  | Tcp of string * int  (** host, port *)

val addr_of_string : string -> (addr, string) result
(** Parses ["unix:PATH"], ["tcp:HOST:PORT"], or a bare path (implying
    [unix:]).  The port in ["tcp:"] splits at the {e last} colon, so IPv6
    literals pass through as the host. *)

val addr_to_string : addr -> string
(** Canonical prefixed form; [addr_of_string] round-trips it. *)

val sockaddr_of_addr : addr -> Unix.sockaddr
(** The socket address both ends use: a TCP host is a numeric address or
    else resolved by name; an unknown host raises
    [Unix.Unix_error (EINVAL, "gethostbyname", host)]. *)

(** {1 Framing} *)

val write_frame : Unix.file_descr -> string -> unit
(** Writes one frame (prefix + payload), looping over short writes.
    Raises {!Framing_error} if the payload exceeds {!max_frame}, and
    [Unix.Unix_error] as [Unix.write] does (note [EPIPE]: daemon code
    ignores [SIGPIPE] and handles the error instead). *)

val read_frame : Unix.file_descr -> string option
(** Reads one frame, looping over short reads.  [None] on a clean EOF at
    a frame boundary (the peer closed between messages); raises
    {!Framing_error} on EOF mid-frame or a bad length prefix. *)

(** {1 Errors} *)

type error = { code : string; message : string }
(** [code] is machine-readable: ["bad_request"] (unparseable or
    ill-formed payload, invalid options), ["version_skew"] (missing or
    mismatched ["v"]), ["busy"] (admission control; see {!reply}),
    ["unknown_design"], ["timeout"] (the request's deadline expired
    before it reached a solver — at admission or while queued; a deadline
    that expires {e during} solving is a [synth_result] with outcome
    ["timeout"] instead), ["worker_lost"] (the worker domain executing
    the job died and its one re-execution was not possible; safe to
    retry — requests are idempotent by content fingerprint),
    ["cancelled"], ["internal"]. *)

(** {1 Engine options on the wire}

    The wire form of {!Synth.Engine.options}.  Deserialization pipes
    {!Synth.Engine.default_options} through the [with_*] setters, so the
    builder validation {e is} the wire validation: a request carrying
    [jobs = 0] is rejected with ["bad_request"] exactly as a native
    caller would get [Invalid_argument].  The [cache] field deliberately
    never crosses the wire — which store and hot tier back a request is
    the server's policy, not the client's.  [conflict_budget] = [max_int]
    travels as [null], and [null] or absent reads as [max_int]; a [null]
    or absent [deadline_seconds] reads as [None]. *)

val options_to_json : Synth.Engine.options -> string
(** The options object exactly as a request frame carries it; the
    server's hot-tier fingerprint hashes these bytes. *)

(** {1 Requests} *)

type request =
  | Synth of { design : string; options : Synth.Engine.options }
      (** [design] names an entry in the server's case-study registry
          (problem construction stays server-side, where the ISA specs
          live); an unknown name earns an ["unknown_design"] error. *)
  | Verify of { design : string; options : Synth.Engine.options }
  | Cache_stats
  | Ping
  | Metrics
      (** the server's metrics, sorted by name: its live {!Obs}
          registry (counters, histograms, sliding windows) plus the
          counters and gauges it derives from the same status snapshot
          that answers [Ping] and [Cache_stats] *)
  | Dump_trace of { trace : string option }
      (** the server's event ring as Chrome trace JSON; with
          [Some id], only events recorded under that trace context —
          one request's span tree *)
  | Shutdown

val request_to_frame : ?trace:string -> request -> string
(** [?trace] stamps a client-chosen trace id into the envelope's
    ["trace"] member; the server adopts it instead of minting one.
    Omitted by default. *)

val request_of_frame : string -> (request, error) result

val request_of_frame_traced :
  string -> (request * string option, error) result
(** {!request_of_frame} plus the envelope's ["trace"] member, read from
    the same parse: [None] when absent, empty or not a string. *)

val trace_of_frame : string -> string option
(** The envelope's ["trace"] member, if present and non-empty.  Total:
    unparseable payloads read as [None].  Works on request and reply
    frames alike, so the trace id rides protocol version {!version}
    unchanged. *)

(** {1 Progress events}

    Streamed to the requesting client while its job runs, sourced from
    the engine's Owl_obs instrumentation through a per-domain tap
    ({!Obs.with_tap}) — the events below mirror the [cegis.instr] /
    [cegis.joint] / [verify.instr] spans (a joint or monolithic loop's
    rows are named ["joint"]) and the [resilience.retry] /
    [resilience.degrade] instants. *)

type progress =
  | Instr_started of { instr : string }
  | Instr_done of {
      instr : string;
      status : string;
          (** synthesis: ["solved"]/["stopped"]; verification:
              the verdict ["verified"]/["violated"]/["inconclusive"] *)
      iterations : int;  (** 0 for verification events *)
      queries : int;
    }
  | Retry of { attempt : int; reason : string }
      (** the resilience ladder re-ran a solver query one rung up *)
  | Degraded of { attempt : int }
      (** the ladder's final rung: fresh one-shot solver *)

(** {1 Results and statistics}

    {!Synth.Engine.stats} travels as an object of its fields; the three
    [sat_*] counters read as [0] when absent. *)

type synth_result = {
  outcome : string;
      (** ["solved"], ["timeout"], ["unrealizable"], ["union_failed"],
          or ["not_independent"] *)
  detail : string;  (** human-readable elaboration; [""] when solved *)
  bindings : (string * string) list;
      (** hole name -> synthesized expression, printed with
          {!Oyster.Printer.expr_to_string} *)
  stats : Synth.Engine.stats;
  hot : bool;  (** answered from the server's in-process hot tier *)
  trace : string;
      (** the request's trace id (server-minted at admission unless the
          client supplied one); [""] from a pre-tracing peer.  Rides the
          reply envelope's ["trace"] member, tolerant both ways. *)
}

type verify_result = {
  verdicts : (string * string) list;
      (** instruction -> ["verified"]/["violated"]/["inconclusive"] *)
  v_hot : bool;
  v_trace : string;  (** as {!synth_result.trace} *)
}

type hot_stats = {
  hot_hits : int;
  hot_misses : int;
  hot_evictions : int;
  hot_size : int;
  hot_capacity : int;
}

type cache_stats = {
  disk : Owl_cache.disk_stats option;  (** [None]: no disk cache open *)
  store : Owl_cache.counters option;
  hot_tier : hot_stats option;  (** [None] outside a server *)
  served : int;  (** requests answered since the server started *)
  rejected : int;  (** requests refused by admission control *)
  uptime_seconds : float;
}

val cache_stats_to_json : cache_stats -> string
(** Also the payload of [owl cache stats --json], so the offline CLI and
    the daemon report cache state in one schema.  [disk], [store] and
    [hot_tier] travel as [null] when [None]. *)

(** {1 Replies} *)

type health = {
  workers : int;  (** configured worker domains *)
  workers_lost : int;
      (** cumulative job executions lost to an exception escaping the
          job; each is retried once, then answered ["worker_lost"] *)
  queue_waiting : int;  (** jobs admitted but not yet running *)
  cancelled : int;  (** jobs cancelled by client disconnect *)
  timeouts : int;
      (** requests answered ["timeout"] before reaching a solver *)
  uptime_s : float;  (** seconds since the daemon started listening *)
  build : string;  (** server build identifier, e.g. ["owl/1.0.0"] *)
  hot_size : int;  (** hot-tier entries resident right now *)
  hot_capacity : int;  (** hot-tier capacity ([0] = no hot tier) *)
}
(** The [ping] health report — a one-stop liveness probe: workers, lost
    jobs, queue, uptime, build, and hot-tier occupancy.  All fields
    postdate the first protocol-1 servers; a bare old-style pong decodes
    as {!empty_health} (tolerant decode, version unchanged), and the
    four worker-capacity and shedding members an older server still
    sends are ignored. *)

val empty_health : health

type wire_metric = {
  m_name : string;
  m_kind : string;  (** ["counter"], ["gauge"], ["histogram"], ["window"] *)
  m_count : int;  (** counter/gauge value, or number of observations *)
  m_sum : int;
  m_min : int;
  m_max : int;
  m_p50 : int;
  m_p90 : int;
  m_p99 : int;
}
(** One metric as it crosses the wire — the flattened shape of
    {!Obs.metric}, or a counter or gauge row the server derives from its
    own tallies — with the kind as a string so new kinds never break an
    old decoder (they pass through and render generically). *)

val wire_metric_of_obs : Obs.metric -> wire_metric

type reply =
  | Progress of progress  (** non-terminal; zero or more per request *)
  | Synth_result of synth_result
  | Verify_result of verify_result
  | Cache_stats_reply of cache_stats
  | Pong of { server : string; protocol : int; health : health }
  | Metrics_reply of wire_metric list
  | Dump_trace_reply of { trace_json : string }
      (** the event-ring dump: a complete Chrome trace-event JSON
          document carried as a string payload *)
  | Busy of { queue_depth : int }
      (** admission control refused the request: the bounded queue
          already holds [queue_depth] jobs — or a planned [shed@N] fault
          refused it.  Back off and retry. *)
  | Err of error
  | Shutdown_ack

val reply_to_frame : reply -> string
val reply_of_frame : string -> (reply, error) result

(** {1 Metric renderings} *)

val metrics_to_prometheus : wire_metric list -> string
(** Prometheus exposition-format text: dots become underscores under an
    [owl_] prefix; counters render with a [_total] suffix, gauges as
    gauges, histograms/windows as summaries ([{quantile="0.5"}] samples
    plus [_sum]/[_count]). *)

val metrics_to_json : wire_metric list -> string
(** The reply's metric list as a standalone JSON array. *)
