(** Owl_obs: domain-safe tracing and metrics for the synthesis runtime.

    Two independent facilities share this module:

    - {b Tracing}: spans ({!span}) and instant events ({!instant}) carrying
      a timestamp, the recording domain's id, the domain's trace context,
      and structured key→value arguments.  Events land in one bounded
      per-domain ring that overwrites its oldest events once full (no
      locks on the hot path; ring registration on a domain's first event
      is the only synchronized step).  The ring is exported on demand:
      {!events} merges the rings into one deterministic stream, optionally
      filtered to one request's trace context, and {!chrome_trace_string}
      renders it as Chrome trace-event JSON that [chrome://tracing] and
      Perfetto open directly.  The same ring serves a one-shot CLI trace
      and a long-lived server's black box.

    - {b Metrics}: named {!counter}s, log-scaled {!histogram}s (powers
      of two), and sliding-window histograms ({!window}), summarized as
      a table ({!summary_table}) or structured records ({!metrics}) for
      embedding in reports.  The registry is process-global and keeps
      its values until {!reset_metrics}; a component that must report
      its own tallies (the serve daemon's queue depth, a cache handle's
      hits) keeps them itself, and its reports read them there.

    Both are off by default.  The disabled path — the "null sink" — is one
    atomic load and a branch per call site: [span] runs its thunk directly,
    [instant]/[observe]/[incr] return immediately.  Instrumentation is
    therefore safe to leave in the hottest solver paths.

    {b Domain-safety.}  Recording is lock-free per domain; enabling and
    disabling are meant for the orchestrating domain, and exports may run
    on any domain while others record.  Timestamps come from
    [Unix.gettimeofday]; per-domain event order is preserved by
    construction (the merge never reorders one domain's events even if
    the clock steps), and cross-domain order is by timestamp with the
    domain id as the deterministic tie-break. *)

type arg =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool  (** A structured span/event argument value. *)

(** {1 Tracing} *)

val enable : ?capacity:int -> unit -> unit
(** Starts (or restarts) the ring: clears any previous recording and
    begins collecting events into per-domain rings of [capacity] events
    each (default 2{^18}).  When a domain's ring is full, each new event
    overwrites that domain's oldest one, which is counted in {!dropped}.
    Raises [Invalid_argument] if [capacity < 1]. *)

val disable : unit -> unit
(** Stops recording and discards the ring.  Call {!events} or
    {!write_chrome_trace} first to keep the data. *)

val enabled : unit -> bool

val span :
  ?args:(string * arg) list ->
  ?result:('a -> (string * arg) list) ->
  string ->
  (unit -> 'a) ->
  'a
(** [span ~args ~result name f] runs [f ()] inside a named span: a [Begin]
    event with [args] before, an [End] event after.  [result] computes
    arguments for the [End] event from [f]'s value — the hook for delta
    statistics that only exist once the work is done; it is not called
    when tracing is disabled (unless a tap is active).  If [f] raises, the [End] event carries the exception
    (printed) as its argument and the exception is re-raised, so spans
    always nest properly per domain. *)

val instant : ?args:(string * arg) list -> string -> unit
(** Records a point event. *)

(** {2 Trace context: request-scoped identity}

    A per-domain slot naming the request the domain is currently working
    for.  While set, every event the domain records carries the id in its
    {!event.trace} field (and as a ["trace"] argument in Chrome exports),
    so one request's span tree can be filtered out of a merged stream.
    The serve daemon mints an id at admission, stores it with the queued
    job, and installs it on the worker domain for the duration of the
    job. *)

val set_trace_context : string option -> unit
(** Sets (or clears, with [None]) the calling domain's trace context. *)

val trace_context : unit -> string option
(** The calling domain's current trace context. *)

val with_trace_context : string -> (unit -> 'a) -> 'a
(** [with_trace_context id f] runs [f ()] with the context set to [id],
    restoring the previous context afterwards (also on exceptions). *)

type phase = Begin | End | Instant

(** {2 Taps: per-domain event streaming}

    A tap observes every {!span} Begin/End and {!instant} emitted {e on its
    own domain} while installed, independently of the global recording
    epoch — the hook a long-lived server uses to stream one request's
    progress events without enabling (or resetting) whole-process tracing.
    Taps compose with tracing: when both are active an event goes to the
    ring buffer and to the tap. *)

val with_tap :
  (phase -> string -> (string * arg) list -> unit) -> (unit -> 'a) -> 'a
(** [with_tap f thunk] runs [thunk ()] with [f] installed as this domain's
    tap (replacing, and afterwards restoring, any previous one — taps on a
    domain nest, they do not stack).  [f] receives the phase, span/event
    name, and arguments of each event; with a tap active, a span's
    [result] hook runs even when tracing is disabled.  Exceptions raised
    by [f] are swallowed — a broken observer must not fail the observed
    work. *)

val tapping : unit -> bool
(** Whether the calling domain currently has a tap installed. *)

val recording : unit -> bool
(** [enabled () || tapping ()] — the guard
    instrumentation sites use around argument construction for
    conditional {!instant}s. *)

type event = {
  ph : phase;
  name : string;
  ts : float;  (** seconds since {!enable} *)
  dom : int;  (** recording domain id *)
  seq : int;
      (** per-domain sequence number: how many events the domain had
          recorded before this one since {!enable} *)
  args : (string * arg) list;
  trace : string option;  (** the trace context at recording time *)
}

val events : ?trace:string -> unit -> event list
(** The rings' current contents as one stream: a snapshot of each
    domain's ring, oldest to newest, merged deterministically by
    [(ts, dom)] without reordering any domain's own events.  A snapshot
    taken while domains record holds only whole events, with strictly
    increasing [seq] per domain; the [End]s whose [Begin] was overwritten
    are left out, so every domain's stream is well nested (spans still
    open at the snapshot keep their [Begin] alone).  With [?trace], only
    events recorded under that trace context are kept — one request's
    span tree.  Empty when disabled. *)

val dropped : unit -> int
(** Events overwritten across all domains because a ring was full. *)

val chrome_trace_string : ?trace:string -> unit -> string
(** {!events} as a Chrome trace-event JSON document
    ([{"traceEvents": [...]}]): spans as ["B"]/["E"] pairs, instants as
    ["i"] with thread scope, one [tid] per domain, timestamps in
    microseconds, plus process/thread-name metadata.  Without [?trace], a
    global ["obs.dropped_events"] instant reports a non-zero {!dropped}.
    Open the result in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto}. *)

val write_chrome_trace : out_channel -> unit

(** {1 Metrics} *)

val enable_metrics : unit -> unit
val disable_metrics : unit -> unit
val metrics_enabled : unit -> bool

type counter
type histogram
type window

val counter : string -> counter
(** Registers (or returns the existing) named counter.  Call it once at
    module initialization and keep the handle: the handle path is
    lock-free, the registry lookup is not. *)

val histogram : string -> histogram
(** Registers (or returns the existing) named histogram.  Buckets are
    powers of two: bucket 0 holds values [<= 0], bucket [i >= 1] holds
    values in [[2^(i-1), 2^i - 1]]. *)

val window : ?seconds:int -> string -> window
(** Registers (or returns the existing) named sliding-window histogram: a
    ring of [seconds] (default 60) per-second sub-histograms.  Snapshots
    aggregate only the slots whose second is still inside the window, so
    the reported distribution covers roughly the last [seconds] seconds
    rather than the process lifetime. *)

val incr : ?by:int -> counter -> unit
(** Adds to a counter; a no-op (one branch) when metrics are disabled. *)

val observe : histogram -> int -> unit
(** Records a value; a no-op (one branch) when metrics are disabled. *)

val observe_window : window -> int -> unit
(** Records a value into the window slot for the current second; a no-op
    when metrics are disabled.  Slot recycling races blur at most one
    second of attribution. *)

type metric = {
  metric_name : string;
  metric_kind : [ `Counter | `Histogram | `Window ];
  count : int;  (** counter value, or number of observations *)
  sum : int;
  min_value : int;
  max_value : int;
  p50 : int;
      (** quantiles are linearly interpolated within the landing log2
          bucket and clamped to the observed min/max *)
  p90 : int;
  p99 : int;
}

val metrics : unit -> metric list
(** Snapshot of every registered metric with at least one recording,
    sorted by name.  Counter records carry the value in [count] and
    [sum]; the distribution fields are zero.  Window records cover
    only the last window of seconds. *)

val summary_table : unit -> string
(** Human-readable rendering of {!metrics}. *)

val reset_metrics : unit -> unit
(** Zeroes every registered metric (registrations persist). *)
