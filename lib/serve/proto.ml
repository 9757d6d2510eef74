(* The owl serve wire protocol.  See the interface for the grammar; the
   short version: every message is one length-prefixed JSON document, the
   length is a 4-byte big-endian unsigned integer, and every document
   carries the protocol version under "v".

   The codec builds on Owl_obs's [Json] emitter/strict parser — the same
   code that writes Chrome traces — so escaping is
   byte-identical across every JSON the toolchain produces, and the parser
   is the strict one the test suite already trusts.

   Decoding is total: [request_of_frame]/[reply_of_frame] return [Error]
   rather than raising, because a daemon must survive any byte sequence a
   client can send.  Framing, by contrast, raises [Framing_error]: once
   the stream's length discipline is broken there is no resynchronizing,
   the connection is dead. *)

let version = 1
let max_frame = 16 * 1024 * 1024

exception Framing_error of string

(* {1 Addresses} *)

type addr = Unix_path of string | Tcp of string * int

let addr_to_string = function
  | Unix_path p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

let addr_of_string s =
  let strip prefix =
    if String.length s > String.length prefix
       && String.sub s 0 (String.length prefix) = prefix
    then Some (String.sub s (String.length prefix)
                 (String.length s - String.length prefix))
    else None
  in
  match strip "unix:" with
  | Some p -> Ok (Unix_path p)
  | None -> (
      match strip "tcp:" with
      | Some rest -> (
          match String.rindex_opt rest ':' with
          | None -> Error (Printf.sprintf "tcp address %S has no port" rest)
          | Some i -> (
              let host = String.sub rest 0 i in
              let port = String.sub rest (i + 1) (String.length rest - i - 1) in
              match int_of_string_opt port with
              | Some p when p >= 0 && p < 65536 -> Ok (Tcp (host, p))
              | _ -> Error (Printf.sprintf "bad tcp port %S" port)))
      | None ->
          if s = "" then Error "empty address"
          else Ok (Unix_path s))

(* {1 Framing} *)

(* A signal landing mid-frame (SIGCHLD from a harness, a profiler's
   SIGPROF) surfaces as EINTR from read/write; EAGAIN/EWOULDBLOCK can
   leak out of sockets with unusual option inheritance.  Neither tears
   the stream's framing discipline, so neither may cost the connection:
   both retry the same syscall with the same offsets. *)
let rec write_all fd buf off len =
  if len > 0 then begin
    match Unix.write fd buf off len with
    | n -> write_all fd buf (off + n) (len - n)
    | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      ->
        write_all fd buf off len
  end

let write_frame fd payload =
  let n = String.length payload in
  if n > max_frame then
    raise (Framing_error (Printf.sprintf "frame of %d bytes exceeds max %d" n max_frame));
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  write_all fd b 0 (4 + n)

(* Reads exactly [len] bytes, looping over short reads.  Returns how many
   bytes actually arrived before EOF — the caller decides whether a short
   count is a clean close (0 bytes at a frame boundary) or a torn frame. *)
let read_upto fd buf len =
  let rec go off =
    if off >= len then off
    else
      match Unix.read fd buf off (len - off) with
      | 0 -> off
      | n -> go (off + n)
      | exception Unix.Unix_error
          ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          go off
  in
  go 0

let read_frame fd =
  let prefix = Bytes.create 4 in
  match read_upto fd prefix 4 with
  | 0 -> None
  | n when n < 4 ->
      raise (Framing_error (Printf.sprintf "EOF inside length prefix (%d/4 bytes)" n))
  | _ ->
      let len = Int32.to_int (Bytes.get_int32_be prefix 0) in
      if len < 0 || len > max_frame then
        raise
          (Framing_error
             (Printf.sprintf "length prefix %ld exceeds max frame %d"
                (Bytes.get_int32_be prefix 0) max_frame));
      let payload = Bytes.create len in
      let got = read_upto fd payload len in
      if got < len then
        raise
          (Framing_error
             (Printf.sprintf "EOF inside frame payload (%d/%d bytes)" got len));
      Some (Bytes.unsafe_to_string payload)

(* {1 Decode helpers} *)

type error = { code : string; message : string }

let fail code fmt = Printf.ksprintf (fun message -> Error { code; message }) fmt

(* the let* gives decoding straight-line shape; any missing/ill-typed
   field short-circuits into the error *)
let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let str_field name v =
  match Json.member name v with
  | Some (Json.String s) -> Ok s
  | _ -> fail "bad_request" "missing or non-string field %S" name

let int_field name v =
  match Json.member name v with
  | Some (Json.Num f) when Float.is_integer f -> Ok (int_of_float f)
  | _ -> fail "bad_request" "missing or non-integer field %S" name

let bool_field name v =
  match Json.member name v with
  | Some (Json.Bool b) -> Ok b
  | _ -> fail "bad_request" "missing or non-boolean field %S" name

let float_field name v =
  match Json.member name v with
  | Some (Json.Num f) -> Ok f
  | _ -> fail "bad_request" "missing or non-number field %S" name

(* {1 Engine options}

   The wire form of the builder records.  Serialization walks the
   Schedule/Budget sub-records and the recovery policy; deserialization pipes
   [default_options] through the [with_*] setters, so the builders'
   validation is the wire validation — a request with [jobs = 0] or
   [escalation_factor = 0] is rejected exactly where a native caller
   would be.  The [cache] field never crosses the wire: which store (and
   which hot tier) backs a request is the server's decision. *)

let mode_to_string = function
  | Synth.Engine.Per_instruction -> "per_instruction"
  | Synth.Engine.Monolithic -> "monolithic"

let mode_of_string = function
  | "per_instruction" -> Ok Synth.Engine.Per_instruction
  | "monolithic" -> Ok Synth.Engine.Monolithic
  | s -> fail "bad_request" "unknown mode %S" s

let options_to_json (o : Synth.Engine.options) =
  Json.obj
    [
      ("mode", Json.str (mode_to_string o.Synth.Engine.schedule.Synth.Engine.Schedule.mode));
      ("jobs", Json.int o.Synth.Engine.schedule.Synth.Engine.Schedule.jobs);
      (* unlimited is max_int natively, which JSON's doubles cannot carry
         exactly — null is the wire spelling of "no budget" *)
      ( "conflict_budget",
        let b = o.Synth.Engine.budget.Synth.Engine.Budget.conflict_budget in
        if b = max_int then "null" else Json.int b );
      ("max_iterations", Json.int o.Synth.Engine.budget.Synth.Engine.Budget.max_iterations);
      ( "deadline_seconds",
        match o.Synth.Engine.budget.Synth.Engine.Budget.deadline_seconds with
        | None -> "null"
        | Some d -> Json.num d );
      ("retries", Json.int o.Synth.Engine.recovery.Synth.Resilience.retries);
      ( "escalation_factor",
        Json.int o.Synth.Engine.recovery.Synth.Resilience.escalation_factor );
      ( "validate_models",
        Json.bool o.Synth.Engine.recovery.Synth.Resilience.validate_models );
      ("check_independence", Json.bool o.Synth.Engine.check_independence);
      ("incremental", Json.bool o.Synth.Engine.incremental);
    ]

let options_of_json v =
  let* mode_s = str_field "mode" v in
  let* mode = mode_of_string mode_s in
  let* jobs = int_field "jobs" v in
  let* conflict_budget =
    match Json.member "conflict_budget" v with
    | Some Json.Null | None -> Ok max_int
    | Some (Json.Num f) when Float.is_integer f -> Ok (int_of_float f)
    | Some _ -> fail "bad_request" "non-integer field \"conflict_budget\""
  in
  let* max_iterations = int_field "max_iterations" v in
  let* deadline =
    match Json.member "deadline_seconds" v with
    | Some Json.Null | None -> Ok None
    | Some (Json.Num f) -> Ok (Some f)
    | Some _ -> fail "bad_request" "non-number field \"deadline_seconds\""
  in
  let* retries = int_field "retries" v in
  let* escalation_factor = int_field "escalation_factor" v in
  let* validate_models = bool_field "validate_models" v in
  let* check_independence = bool_field "check_independence" v in
  let* incremental = bool_field "incremental" v in
  (* members this protocol no longer defines — the "strategy" and
     "portfolio" objects of racing-era peers and the "sat" pass
     configuration of older ones among them — are ignored, so such a frame
     decodes to the same options (and the same hot-tier fingerprint) as
     one without them *)
  match
    Synth.Engine.(
      default_options |> with_mode mode |> with_jobs jobs
      |> with_conflict_budget conflict_budget
      |> with_max_iterations max_iterations
      |> with_deadline deadline |> with_retries retries
      |> with_escalation_factor escalation_factor
      |> with_validate_models validate_models
      |> with_check_independence check_independence
      |> with_incremental incremental)
  with
  | o -> Ok o
  | exception Invalid_argument m -> fail "bad_request" "invalid options: %s" m

(* {1 Requests} *)

type request =
  | Synth of { design : string; options : Synth.Engine.options }
  | Verify of { design : string; options : Synth.Engine.options }
  | Cache_stats
  | Ping
  | Metrics
  | Dump_trace of { trace : string option }
  | Shutdown

(* the envelope's optional "trace" member is the request-scoped trace id:
   a client may supply one (distributed tracing), otherwise the server
   mints one at admission.  Absent reads as None — tolerant decode, the
   protocol version is unchanged *)
let envelope ?trace kind fields =
  let fields =
    match trace with
    | None -> fields
    | Some id -> ("trace", Json.str id) :: fields
  in
  Json.obj ((("v", Json.int version) :: ("t", Json.str kind) :: fields))

let trace_of_frame payload =
  match Json.parse payload with
  | exception Json.Parse_error _ -> None
  | v -> (
      match Json.member "trace" v with
      | Some (Json.String s) when s <> "" -> Some s
      | _ -> None)

let request_to_frame ?trace = function
  | Synth { design; options } ->
      envelope ?trace "synth"
        [ ("design", Json.str design); ("options", options_to_json options) ]
  | Verify { design; options } ->
      envelope ?trace "verify"
        [ ("design", Json.str design); ("options", options_to_json options) ]
  | Cache_stats -> envelope ?trace "cache_stats" []
  | Ping -> envelope ?trace "ping" []
  | Metrics -> envelope ?trace "metrics" []
  | Dump_trace { trace = filter } ->
      envelope ?trace "dump_trace"
        (match filter with
        | None -> []
        | Some id -> [ ("filter", Json.str id) ])
  | Shutdown -> envelope ?trace "shutdown" []

(* version check shared by both decode directions: absent or mismatched
   "v" is version skew, a distinct error code so the peer can say
   "upgrade" rather than "you sent garbage" *)
let check_envelope payload =
  match Json.parse payload with
  | exception Json.Parse_error m -> fail "bad_request" "frame is not JSON: %s" m
  | v -> (
      match Json.member "v" v with
      | Some (Json.Num f) when Float.is_integer f ->
          let got = int_of_float f in
          if got <> version then
            fail "version_skew" "peer speaks protocol %d, this end speaks %d"
              got version
          else
            let* t = str_field "t" v in
            Ok (t, v)
      | _ -> fail "version_skew" "frame carries no protocol version")

let request_of_frame payload =
  let* t, v = check_envelope payload in
  match t with
  | "synth" | "verify" ->
      let* design = str_field "design" v in
      let* options =
        match Json.member "options" v with
        | Some o -> options_of_json o
        | None -> fail "bad_request" "missing field \"options\""
      in
      Ok
        (if t = "synth" then Synth { design; options }
         else Verify { design; options })
  | "cache_stats" -> Ok Cache_stats
  | "ping" -> Ok Ping
  | "metrics" -> Ok Metrics
  | "dump_trace" ->
      let filter =
        match Json.member "filter" v with
        | Some (Json.String s) when s <> "" -> Some s
        | _ -> None
      in
      Ok (Dump_trace { trace = filter })
  | "shutdown" -> Ok Shutdown
  | t -> fail "bad_request" "unknown request kind %S" t

(* {1 Statistics} *)

let stats_to_json (st : Synth.Engine.stats) =
  Json.obj
    [
      ("iterations", Json.int st.Synth.Engine.iterations);
      ("queries", Json.int st.Synth.Engine.queries);
      ("conflicts", Json.int st.Synth.Engine.conflicts);
      ("blasted_vars", Json.int st.Synth.Engine.blasted_vars);
      ("blasted_clauses", Json.int st.Synth.Engine.blasted_clauses);
      ("trivial_unsats", Json.int st.Synth.Engine.trivial_unsats);
      ("retried_queries", Json.int st.Synth.Engine.retried_queries);
      ("degraded_queries", Json.int st.Synth.Engine.degraded_queries);
      ("validation_failures", Json.int st.Synth.Engine.validation_failures);
      ("task_retries", Json.int st.Synth.Engine.task_retries);
      ("sat_restarts", Json.int st.Synth.Engine.sat_restarts);
      ("sat_learnt_kept", Json.int st.Synth.Engine.sat_learnt_kept);
      ("sat_learnt_deleted", Json.int st.Synth.Engine.sat_learnt_deleted);
      ("wall_seconds", Json.num st.Synth.Engine.wall_seconds);
    ]

let stats_of_json v =
  let* iterations = int_field "iterations" v in
  let* queries = int_field "queries" v in
  let* conflicts = int_field "conflicts" v in
  let* blasted_vars = int_field "blasted_vars" v in
  let* blasted_clauses = int_field "blasted_clauses" v in
  let* trivial_unsats = int_field "trivial_unsats" v in
  let* retried_queries = int_field "retried_queries" v in
  let* degraded_queries = int_field "degraded_queries" v in
  let* validation_failures = int_field "validation_failures" v in
  let* task_retries = int_field "task_retries" v in
  (* SAT-core counters postdate the first protocol 1 deployments; an older
     peer's stats simply lack them, which reads as zero.  Members this
     protocol no longer defines (the five inprocessing counters older
     servers sent) are ignored. *)
  let opt_int name =
    match Json.member name v with
    | Some (Json.Num f) when Float.is_integer f -> int_of_float f
    | _ -> 0
  in
  let sat_restarts = opt_int "sat_restarts" in
  let sat_learnt_kept = opt_int "sat_learnt_kept" in
  let sat_learnt_deleted = opt_int "sat_learnt_deleted" in
  let* wall_seconds = float_field "wall_seconds" v in
  Ok
    {
      Synth.Engine.iterations;
      queries;
      conflicts;
      blasted_vars;
      blasted_clauses;
      trivial_unsats;
      retried_queries;
      degraded_queries;
      validation_failures;
      task_retries;
      sat_restarts;
      sat_learnt_kept;
      sat_learnt_deleted;
      wall_seconds;
    }

(* {1 Replies} *)

type progress =
  | Instr_started of { instr : string }
  | Instr_done of {
      instr : string;
      status : string;
      iterations : int;
      queries : int;
    }
  | Retry of { attempt : int; reason : string }
  | Degraded of { attempt : int }

type synth_result = {
  outcome : string;
  detail : string;
  bindings : (string * string) list;
  stats : Synth.Engine.stats;
  hot : bool;
  trace : string;  (* the server-minted (or client-supplied) trace id *)
}

type verify_result = {
  verdicts : (string * string) list;
  v_hot : bool;
  v_trace : string;
}

type hot_stats = {
  hot_hits : int;
  hot_misses : int;
  hot_evictions : int;
  hot_size : int;
  hot_capacity : int;
}

type cache_stats = {
  disk : Owl_cache.disk_stats option;
  store : Owl_cache.counters option;
  hot_tier : hot_stats option;
  served : int;
  rejected : int;
  uptime_seconds : float;
}

(* The [ping] health report, grown for load balancers and chaos asserts.
   Every field postdates the first protocol-1 deployments, so the decode
   is tolerant: an old server's bare pong reads as an all-zero report
   (workers unknown, nothing lost), and the protocol version is
   unchanged.  The four worker-capacity and shedding members an older
   server still sends are ignored like any unknown member. *)
type health = {
  workers : int;  (* configured worker domains *)
  workers_lost : int;  (* job executions lost to an escaped exception *)
  queue_waiting : int;  (* jobs admitted but not yet running *)
  cancelled : int;  (* jobs cancelled by client disconnect *)
  timeouts : int;  (* requests answered timeout before reaching a solver *)
  uptime_s : float;  (* seconds since the daemon started listening *)
  build : string;  (* server build identifier *)
  hot_size : int;  (* hot-tier entries resident right now *)
  hot_capacity : int;  (* hot-tier capacity (0 = no hot tier) *)
}

let empty_health =
  {
    workers = 0;
    workers_lost = 0;
    queue_waiting = 0;
    cancelled = 0;
    timeouts = 0;
    uptime_s = 0.0;
    build = "";
    hot_size = 0;
    hot_capacity = 0;
  }

(* One metric as it crosses the wire: the flattened shape of
   [Owl_obs.metric], kind as a string so new kinds never break old
   decoders. *)
type wire_metric = {
  m_name : string;
  m_kind : string;  (* "counter" | "gauge" | "histogram" | "window" *)
  m_count : int;
  m_sum : int;
  m_min : int;
  m_max : int;
  m_p50 : int;
  m_p90 : int;
  m_p99 : int;
}

let wire_metric_of_obs (m : Obs.metric) =
  {
    m_name = m.Obs.metric_name;
    m_kind =
      (match m.Obs.metric_kind with
      | `Counter -> "counter"
      | `Gauge -> "gauge"
      | `Histogram -> "histogram"
      | `Window -> "window");
    m_count = m.Obs.count;
    m_sum = m.Obs.sum;
    m_min = m.Obs.min_value;
    m_max = m.Obs.max_value;
    m_p50 = m.Obs.p50;
    m_p90 = m.Obs.p90;
    m_p99 = m.Obs.p99;
  }

type reply =
  | Progress of progress
  | Synth_result of synth_result
  | Verify_result of verify_result
  | Cache_stats_reply of cache_stats
  | Pong of { server : string; protocol : int; health : health }
  | Metrics_reply of wire_metric list
  | Dump_trace_reply of { trace_json : string }
  | Busy of { queue_depth : int }
  | Err of error
  | Shutdown_ack

let progress_fields = function
  | Instr_started { instr } ->
      [ ("event", Json.str "instr_started"); ("instr", Json.str instr) ]
  | Instr_done { instr; status; iterations; queries } ->
      [
        ("event", Json.str "instr_done");
        ("instr", Json.str instr);
        ("status", Json.str status);
        ("iterations", Json.int iterations);
        ("queries", Json.int queries);
      ]
  | Retry { attempt; reason } ->
      [
        ("event", Json.str "retry");
        ("attempt", Json.int attempt);
        ("reason", Json.str reason);
      ]
  | Degraded { attempt } ->
      [ ("event", Json.str "degraded"); ("attempt", Json.int attempt) ]

let progress_of_json v =
  let* event = str_field "event" v in
  match event with
  | "instr_started" ->
      let* instr = str_field "instr" v in
      Ok (Instr_started { instr })
  | "instr_done" ->
      let* instr = str_field "instr" v in
      let* status = str_field "status" v in
      let* iterations = int_field "iterations" v in
      let* queries = int_field "queries" v in
      Ok (Instr_done { instr; status; iterations; queries })
  | "retry" ->
      let* attempt = int_field "attempt" v in
      let* reason = str_field "reason" v in
      Ok (Retry { attempt; reason })
  | "degraded" ->
      let* attempt = int_field "attempt" v in
      Ok (Degraded { attempt })
  | e -> fail "bad_request" "unknown progress event %S" e

let pairs_json key_name value_name l =
  Json.arr
    (List.map
       (fun (k, v) -> Json.obj [ (key_name, Json.str k); (value_name, Json.str v) ])
       l)

let pairs_of_json key_name value_name field v =
  match Json.member field v with
  | Some (Json.Arr items) ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          let* k = str_field key_name item in
          let* value = str_field value_name item in
          Ok ((k, value) :: acc))
        (Ok []) items
      |> Result.map List.rev
  | _ -> fail "bad_request" "missing or non-array field %S" field

let cache_stats_to_json (c : cache_stats) =
  let opt f = function None -> "null" | Some x -> f x in
  Json.obj
    [
      ( "disk",
        opt
          (fun (d : Owl_cache.disk_stats) ->
            Json.obj
              [
                ("result_entries", Json.int d.Owl_cache.result_entries);
                ("total_bytes", Json.int d.Owl_cache.total_bytes);
              ])
          c.disk );
      ( "store",
        opt
          (fun (k : Owl_cache.counters) ->
            Json.obj
              [
                ("hits", Json.int k.Owl_cache.hits);
                ("misses", Json.int k.Owl_cache.misses);
                ("stale", Json.int k.Owl_cache.stale);
                ("writes", Json.int k.Owl_cache.writes);
              ])
          c.store );
      ( "hot_tier",
        opt
          (fun h ->
            Json.obj
              [
                ("hits", Json.int h.hot_hits);
                ("misses", Json.int h.hot_misses);
                ("evictions", Json.int h.hot_evictions);
                ("size", Json.int h.hot_size);
                ("capacity", Json.int h.hot_capacity);
              ])
          c.hot_tier );
      ("served", Json.int c.served);
      ("rejected", Json.int c.rejected);
      ("uptime_seconds", Json.num c.uptime_seconds);
    ]

let cache_stats_of_json v =
  let sub name parse =
    match Json.member name v with
    | Some Json.Null | None -> Ok None
    | Some o -> Result.map Option.some (parse o)
  in
  let* disk =
    sub "disk" (fun o ->
        let* result_entries = int_field "result_entries" o in
        let* total_bytes = int_field "total_bytes" o in
        Ok { Owl_cache.result_entries; total_bytes })
  in
  let* store =
    sub "store" (fun o ->
        let* hits = int_field "hits" o in
        let* misses = int_field "misses" o in
        let* stale = int_field "stale" o in
        let* writes = int_field "writes" o in
        Ok { Owl_cache.hits; misses; stale; writes })
  in
  let* hot_tier =
    sub "hot_tier" (fun o ->
        let* hot_hits = int_field "hits" o in
        let* hot_misses = int_field "misses" o in
        let* hot_evictions = int_field "evictions" o in
        let* hot_size = int_field "size" o in
        let* hot_capacity = int_field "capacity" o in
        Ok { hot_hits; hot_misses; hot_evictions; hot_size; hot_capacity })
  in
  let* served = int_field "served" v in
  let* rejected = int_field "rejected" v in
  let* uptime_seconds = float_field "uptime_seconds" v in
  Ok { disk; store; hot_tier; served; rejected; uptime_seconds }

let wire_metric_json m =
  Json.obj
    [
      ("name", Json.str m.m_name);
      ("kind", Json.str m.m_kind);
      ("count", Json.int m.m_count);
      ("sum", Json.int m.m_sum);
      ("min", Json.int m.m_min);
      ("max", Json.int m.m_max);
      ("p50", Json.int m.m_p50);
      ("p90", Json.int m.m_p90);
      ("p99", Json.int m.m_p99);
    ]

let wire_metric_of_json o =
  let* m_name = str_field "name" o in
  let* m_kind = str_field "kind" o in
  let opt_int name =
    match Json.member name o with
    | Some (Json.Num f) when Float.is_integer f -> int_of_float f
    | _ -> 0
  in
  Ok
    {
      m_name;
      m_kind;
      m_count = opt_int "count";
      m_sum = opt_int "sum";
      m_min = opt_int "min";
      m_max = opt_int "max";
      m_p50 = opt_int "p50";
      m_p90 = opt_int "p90";
      m_p99 = opt_int "p99";
    }

let reply_to_frame = function
  | Progress p -> envelope "progress" (progress_fields p)
  | Synth_result r ->
      envelope "synth_result"
        ?trace:(if r.trace = "" then None else Some r.trace)
        [
          ("outcome", Json.str r.outcome);
          ("detail", Json.str r.detail);
          ("bindings", pairs_json "hole" "expr" r.bindings);
          ("stats", stats_to_json r.stats);
          ("hot", Json.bool r.hot);
        ]
  | Verify_result r ->
      envelope "verify_result"
        ?trace:(if r.v_trace = "" then None else Some r.v_trace)
        [
          ("verdicts", pairs_json "instr" "verdict" r.verdicts);
          ("hot", Json.bool r.v_hot);
        ]
  | Cache_stats_reply c -> envelope "cache_stats" [ ("stats", cache_stats_to_json c) ]
  | Pong { server; protocol; health = h } ->
      envelope "pong"
        [
          ("server", Json.str server);
          ("protocol", Json.int protocol);
          ("workers", Json.int h.workers);
          ("workers_lost", Json.int h.workers_lost);
          ("queue_waiting", Json.int h.queue_waiting);
          ("cancelled", Json.int h.cancelled);
          ("timeouts", Json.int h.timeouts);
          ("uptime_s", Json.num h.uptime_s);
          ("build", Json.str h.build);
          ("hot_size", Json.int h.hot_size);
          ("hot_capacity", Json.int h.hot_capacity);
        ]
  | Metrics_reply ms ->
      envelope "metrics" [ ("metrics", Json.arr (List.map wire_metric_json ms)) ]
  | Dump_trace_reply { trace_json } ->
      envelope "dump_trace" [ ("trace_json", Json.str trace_json) ]
  | Busy { queue_depth } -> envelope "busy" [ ("queue_depth", Json.int queue_depth) ]
  | Err { code; message } ->
      envelope "error" [ ("code", Json.str code); ("message", Json.str message) ]
  | Shutdown_ack -> envelope "shutdown_ack" []

let reply_of_frame payload =
  let* t, v = check_envelope payload in
  match t with
  | "progress" -> Result.map (fun p -> Progress p) (progress_of_json v)
  | "synth_result" ->
      let* outcome = str_field "outcome" v in
      let* detail = str_field "detail" v in
      let* bindings = pairs_of_json "hole" "expr" "bindings" v in
      let* stats =
        match Json.member "stats" v with
        | Some s -> stats_of_json s
        | None -> fail "bad_request" "missing field \"stats\""
      in
      let* hot = bool_field "hot" v in
      let trace = Option.value ~default:"" (trace_of_frame payload) in
      Ok (Synth_result { outcome; detail; bindings; stats; hot; trace })
  | "verify_result" ->
      let* verdicts = pairs_of_json "instr" "verdict" "verdicts" v in
      let* v_hot = bool_field "hot" v in
      let v_trace = Option.value ~default:"" (trace_of_frame payload) in
      Ok (Verify_result { verdicts; v_hot; v_trace })
  | "cache_stats" ->
      let* c =
        match Json.member "stats" v with
        | Some s -> cache_stats_of_json s
        | None -> fail "bad_request" "missing field \"stats\""
      in
      Ok (Cache_stats_reply c)
  | "pong" ->
      let* server = str_field "server" v in
      let* protocol = int_field "protocol" v in
      (* the health fields are newer than the first protocol-1 servers;
         absent reads as the empty report, like the sat stats above *)
      let opt_int name =
        match Json.member name v with
        | Some (Json.Num f) when Float.is_integer f -> int_of_float f
        | _ -> 0
      in
      let health =
        {
          workers = opt_int "workers";
          workers_lost = opt_int "workers_lost";
          queue_waiting = opt_int "queue_waiting";
          cancelled = opt_int "cancelled";
          timeouts = opt_int "timeouts";
          uptime_s =
            (match Json.member "uptime_s" v with
            | Some (Json.Num f) -> f
            | _ -> 0.0);
          build =
            (match Json.member "build" v with
            | Some (Json.String s) -> s
            | _ -> "");
          hot_size = opt_int "hot_size";
          hot_capacity = opt_int "hot_capacity";
        }
      in
      Ok (Pong { server; protocol; health })
  | "metrics" -> (
      match Json.member "metrics" v with
      | Some (Json.Arr items) ->
          List.fold_left
            (fun acc item ->
              let* acc = acc in
              let* m = wire_metric_of_json item in
              Ok (m :: acc))
            (Ok []) items
          |> Result.map (fun ms -> Metrics_reply (List.rev ms))
      | _ -> fail "bad_request" "missing or non-array field \"metrics\"")
  | "dump_trace" ->
      let* trace_json = str_field "trace_json" v in
      Ok (Dump_trace_reply { trace_json })
  | "busy" ->
      let* queue_depth = int_field "queue_depth" v in
      Ok (Busy { queue_depth })
  | "error" ->
      let* code = str_field "code" v in
      let* message = str_field "message" v in
      Ok (Err { code; message })
  | "shutdown_ack" -> Ok Shutdown_ack
  | t -> fail "bad_request" "unknown reply kind %S" t

(* {1 Metric renderings}

   Textual forms of a metrics reply, here rather than in the CLI so the
   test suite can pin them down next to the codec.  The Prometheus form
   follows the exposition-format conventions: dots become underscores, an
   [owl_] namespace prefix, counters get a [_total] suffix, histograms
   and windows render as summaries (quantile-labelled samples plus
   [_sum]/[_count]). *)

let prometheus_name m =
  "owl_" ^ String.map (fun c -> if c = '.' || c = '-' then '_' else c) m.m_name

let metrics_to_prometheus ms =
  let b = Buffer.create 1024 in
  List.iter
    (fun m ->
      let n = prometheus_name m in
      match m.m_kind with
      | "counter" ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s_total counter\n" n);
          Buffer.add_string b (Printf.sprintf "%s_total %d\n" n m.m_count)
      | "gauge" ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" n);
          Buffer.add_string b (Printf.sprintf "%s %d\n" n m.m_count)
      | _ ->
          Buffer.add_string b (Printf.sprintf "# TYPE %s summary\n" n);
          List.iter
            (fun (q, v) ->
              Buffer.add_string b
                (Printf.sprintf "%s{quantile=%S} %d\n" n q v))
            [ ("0.5", m.m_p50); ("0.9", m.m_p90); ("0.99", m.m_p99) ];
          Buffer.add_string b (Printf.sprintf "%s_sum %d\n" n m.m_sum);
          Buffer.add_string b (Printf.sprintf "%s_count %d\n" n m.m_count))
    ms;
  Buffer.contents b

let metrics_to_json ms = Json.arr (List.map wire_metric_json ms)
