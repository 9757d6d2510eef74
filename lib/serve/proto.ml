(* The owl serve wire protocol.  See the interface for the grammar; the
   short version: every message is one length-prefixed JSON document, the
   length is a 4-byte big-endian unsigned integer, and every document
   carries the protocol version under "v".

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

let sockaddr_of_addr = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp (host, port) ->
      let inet =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          try (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with Not_found ->
            raise (Unix.Unix_error (Unix.EINVAL, "gethostbyname", host)))
      in
      Unix.ADDR_INET (inet, port)

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

(* {1 Wire declarations}

   Every wire record is declared once, as a list of members: each with its
   name, its JSON type (a codec), the getter that reads it from the OCaml
   value and, for a member that postdates the first protocol-1 peers, the
   value it takes when absent.  Encoder and decoder are both derived from
   that declaration, so no member can be renamed, reordered or given a
   default on one side only.  Members a declaration does not name are
   ignored — how newer peers' additions and older peers' retired members
   ride protocol version 1.  Rendering goes through Owl_obs's [Json], so
   escaping is byte-identical across every JSON the toolchain writes. *)

type error = { code : string; message : string }

let fail code fmt = Printf.ksprintf (fun message -> Error { code; message }) fmt
let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* a JSON type: its rendering and its strict reading *)
type 'a codec = { enc : 'a -> string; dec : Json.value -> ('a, string) result }

let scalar what enc read =
  { enc; dec = (fun v -> Option.to_result ~none:("expected " ^ what) (read v)) }

let int =
  scalar "an integer" Json.int (function
    | Json.Num f when Float.is_integer f -> Some (int_of_float f)
    | _ -> None)

let float = scalar "a number" Json.num (function Json.Num f -> Some f | _ -> None)
let string = scalar "a string" Json.str (function Json.String s -> Some s | _ -> None)
let bool = scalar "a boolean" Json.bool (function Json.Bool b -> Some b | _ -> None)

let nullable c =
  { enc = (function None -> "null" | Some x -> c.enc x);
    dec = (function Json.Null -> Ok None | v -> Result.map Option.some (c.dec v)) }

let conv to_wire of_wire c =
  { enc = (fun x -> c.enc (to_wire x)); dec = (fun v -> Result.map of_wire (c.dec v)) }

let enum cases =
  let of_name s = List.assoc_opt s cases in
  { enc = (fun x -> Json.str (fst (List.find (fun (_, y) -> y = x) cases)));
    dec = (fun v -> Result.bind (string.dec v) (fun s ->
        Option.to_result ~none:(Printf.sprintf "unknown value %S" s) (of_name s))) }

let list c =
  let rec dec acc = function
    | [] -> Ok (List.rev acc)
    | v :: vs -> Result.bind (c.dec v) (fun x -> dec (x :: acc) vs)
  in
  { enc = (fun l -> Json.arr (List.map c.enc l));
    dec = (function Json.Arr vs -> dec [] vs | _ -> Error "expected an array") }

(* A trace id, or a dump filter (which is one): empty or ill-typed reads
   as no id, never as a decode error. *)
let nonempty = function Some (Json.String s) when s <> "" -> Some s | _ -> None

let id =
  { enc = (function Some s -> Json.str s | None -> "null");
    dec = (fun v -> Ok (nonempty (Some v))) }

(* A record declaration in progress: [obj k] starts from the constructor
   [k]; each [mem] names the next member, which [k] takes next.  Encoded
   members are kept last-first until [members] turns them round. *)
type ('r, 'k) obj = {
  rev_members : 'r -> (string * string) list;
  build : Json.value -> ('k, string) result;
}

let obj k = { rev_members = (fun _ -> []); build = (fun _ -> Ok k) }

(* [~absent:d]: a missing member reads as [d] instead of failing;
   [~omit:true]: a member equal to [d] is also left out when encoding *)
let mem ?absent ?(omit = false) name c get o =
  let field v =
    match (Json.member name v, absent) with
    | Some j, _ -> Result.map_error (Printf.sprintf "field %S: %s" name) (c.dec j)
    | None, Some d -> Ok d
    | None, None -> Error (Printf.sprintf "missing field %S" name)
  in
  { rev_members = (fun r ->
        let x = get r in
        if omit && absent = Some x then o.rev_members r
        else (name, c.enc x) :: o.rev_members r);
    build = (fun v -> let* k = o.build v in Result.map k (field v)) }

(* [sub]'s members, flat among the enclosing record's own *)
let inline sub get o =
  { rev_members = (fun r -> sub.rev_members (get r) @ o.rev_members r);
    build = (fun v -> let* k = o.build v in Result.map k (sub.build v)) }

let members o r = List.rev (o.rev_members r)

let record o =
  { enc = (fun r -> Json.obj (members o r));
    dec = (function Json.Obj _ as v -> o.build v | _ -> Error "expected an object") }

let one m = obj Fun.id |> m Fun.id
let pair a b = obj (fun x y -> (x, y)) |> a fst |> b snd

(* One kind of a variant: its tag, its payload's members, and the
   injection into and projection out of the variant. *)
type 'v case = Case : string * ('a, 'a) obj * ('a -> 'v) * ('v -> 'a option) -> 'v case

let case tag body inj proj = Case (tag, body, inj, proj)

(* a kind without members; [x] is a constant constructor, so [y = x]
   never looks inside [y] (whose options may hold a cache handle) *)
let const tag x = case tag (obj x) Fun.id (fun y -> if y = x then Some x else None)

let rec tagged cases x =
  match cases with
  | [] -> invalid_arg "Proto: value without a wire case"
  | Case (tag, body, _, proj) :: rest -> (
      match proj x with Some a -> (tag, members body a) | None -> tagged rest x)

let untag key cases v =
  match Json.member key v with
  | Some (Json.String tag) -> (
      match List.find_opt (fun (Case (t, _, _, _)) -> t = tag) cases with
      | Some (Case (_, body, inj, _)) -> Result.map inj (body.build v)
      | None -> Error (Printf.sprintf "unknown %s %S" key tag))
  | _ -> Error (Printf.sprintf "missing or non-string field %S" key)

(* a variant tagged by the member [key], beside its payload's members *)
let variant key cases =
  { rev_members = (fun x ->
        let tag, ms = tagged cases x in
        List.rev_append ms [ (key, Json.str tag) ]);
    build = untag key cases }

(* {1 Engine options}

   Decoding pipes [default_options] through the [with_*] setters, so the
   builders' validation is the wire validation: [jobs = 0] is rejected
   exactly where a native caller would be.  Unlimited is [max_int]
   natively, which JSON's doubles cannot carry exactly, so null is the
   wire spelling of "no budget".  [cache] never crosses the wire: which
   store backs a request is the server's decision.  Older peers' members
   — the "strategy", "portfolio" and "sat" objects, the independence
   switch and the escalation factor — are ignored, so such a frame decodes
   to the same options, and the same hot-tier fingerprint, as one without
   them. *)

module E = Synth.Engine

let options =
  let unlimited =
    conv (fun b -> if b = max_int then None else Some b)
      (Option.value ~default:max_int) (nullable int)
  in
  let c =
    record
      (obj (fun mode jobs budget iterations deadline retries validate
                incremental ->
           E.(default_options |> with_mode mode |> with_jobs jobs
              |> with_conflict_budget budget |> with_max_iterations iterations
              |> with_deadline deadline |> with_retries retries
              |> with_validate_models validate |> with_incremental incremental))
      |> mem "mode"
           (enum [ ("per_instruction", E.Per_instruction); ("monolithic", E.Monolithic) ])
           (fun o -> o.E.mode)
      |> mem "jobs" int (fun o -> o.E.jobs)
      |> mem "conflict_budget" unlimited ~absent:max_int (fun o -> o.E.conflict_budget)
      |> mem "max_iterations" int (fun o -> o.E.max_iterations)
      |> mem "deadline_seconds" (nullable float) ~absent:None (fun o ->
             o.E.deadline_seconds)
      |> mem "retries" int (fun o -> o.E.retries)
      |> mem "validate_models" bool (fun o -> o.E.validate_models)
      |> mem "incremental" bool (fun o -> o.E.incremental))
  in
  { c with dec = (fun v ->
        try c.dec v with Invalid_argument m -> Error ("invalid options: " ^ m)) }

let options_to_json = options.enc

(* The SAT-core counters postdate the first protocol-1 deployments: an
   older peer's stats lack them, which reads as zero. *)
let stats =
  record
    (obj (fun iterations queries conflicts blasted_vars blasted_clauses trivial_unsats
              retried_queries degraded_queries validation_failures task_retries
              sat_restarts sat_learnt_kept sat_learnt_deleted wall_seconds ->
         { E.iterations; queries; conflicts; blasted_vars; blasted_clauses;
           trivial_unsats; retried_queries; degraded_queries; validation_failures;
           task_retries; sat_restarts; sat_learnt_kept; sat_learnt_deleted;
           wall_seconds })
    |> mem "iterations" int (fun s -> s.E.iterations)
    |> mem "queries" int (fun s -> s.E.queries)
    |> mem "conflicts" int (fun s -> s.E.conflicts)
    |> mem "blasted_vars" int (fun s -> s.E.blasted_vars)
    |> mem "blasted_clauses" int (fun s -> s.E.blasted_clauses)
    |> mem "trivial_unsats" int (fun s -> s.E.trivial_unsats)
    |> mem "retried_queries" int (fun s -> s.E.retried_queries)
    |> mem "degraded_queries" int (fun s -> s.E.degraded_queries)
    |> mem "validation_failures" int (fun s -> s.E.validation_failures)
    |> mem "task_retries" int (fun s -> s.E.task_retries)
    |> mem "sat_restarts" int ~absent:0 (fun s -> s.E.sat_restarts)
    |> mem "sat_learnt_kept" int ~absent:0 (fun s -> s.E.sat_learnt_kept)
    |> mem "sat_learnt_deleted" int ~absent:0 (fun s -> s.E.sat_learnt_deleted)
    |> mem "wall_seconds" float (fun s -> s.E.wall_seconds))

(* {1 Requests} *)

type request =
  | Synth of { design : string; options : Synth.Engine.options }
  | Verify of { design : string; options : Synth.Engine.options }
  | Cache_stats
  | Ping
  | Metrics
  | Dump_trace of { trace : string option }
  | Shutdown

let request_cases =
  let job = pair (mem "design" string) (mem "options" options) in
  [ case "synth" job (fun (design, options) -> Synth { design; options })
      (function Synth r -> Some (r.design, r.options) | _ -> None);
    case "verify" job (fun (design, options) -> Verify { design; options })
      (function Verify r -> Some (r.design, r.options) | _ -> None);
    const "cache_stats" Cache_stats;
    const "ping" Ping;
    const "metrics" Metrics;
    case "dump_trace" (one (mem "filter" id ~absent:None ~omit:true))
      (fun trace -> Dump_trace { trace })
      (function Dump_trace r -> Some r.trace | _ -> None);
    const "shutdown" Shutdown ]

(* {1 Replies} *)

type progress =
  | Instr_started of { instr : string }
  | Instr_done of { instr : string; status : string; iterations : int; queries : int }
  | Retry of { attempt : int; reason : string }
  | Degraded of { attempt : int }

type synth_result = {
  outcome : string;
  detail : string;
  bindings : (string * string) list;
  stats : Synth.Engine.stats;
  hot : bool;
  trace : string;
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

type health = {
  workers : int;
  workers_lost : int;
  queue_waiting : int;
  cancelled : int;
  timeouts : int;
  uptime_s : float;
  build : string;
  hot_size : int;
  hot_capacity : int;
}

type wire_metric = {
  m_name : string;
  m_kind : string;
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

let progress =
  variant "event"
    [ case "instr_started" (one (mem "instr" string))
        (fun instr -> Instr_started { instr })
        (function Instr_started r -> Some r.instr | _ -> None);
      case "instr_done"
        (obj (fun i s n q -> (i, s, n, q))
        |> mem "instr" string (fun (i, _, _, _) -> i)
        |> mem "status" string (fun (_, s, _, _) -> s)
        |> mem "iterations" int (fun (_, _, n, _) -> n)
        |> mem "queries" int (fun (_, _, _, q) -> q))
        (fun (instr, status, iterations, queries) ->
          Instr_done { instr; status; iterations; queries })
        (function
          | Instr_done r -> Some (r.instr, r.status, r.iterations, r.queries)
          | _ -> None);
      case "retry" (pair (mem "attempt" int) (mem "reason" string))
        (fun (attempt, reason) -> Retry { attempt; reason })
        (function Retry r -> Some (r.attempt, r.reason) | _ -> None);
      case "degraded" (one (mem "attempt" int))
        (fun attempt -> Degraded { attempt })
        (function Degraded r -> Some r.attempt | _ -> None) ]

(* a result's trace id rides the envelope's "trace" member, left out
   while the result has none ([""]) *)
let trace_mem get =
  let c =
    conv (fun s -> if s = "" then None else Some s) (Option.value ~default:"") id
  in
  mem "trace" c ~absent:"" ~omit:true get

let pairs key value = list (record (pair (mem key string) (mem value string)))

let synth_result =
  obj (fun trace outcome detail bindings stats hot ->
      { outcome; detail; bindings; stats; hot; trace })
  |> trace_mem (fun r -> r.trace)
  |> mem "outcome" string (fun r -> r.outcome)
  |> mem "detail" string (fun r -> r.detail)
  |> mem "bindings" (pairs "hole" "expr") (fun r -> r.bindings)
  |> mem "stats" stats (fun r -> r.stats)
  |> mem "hot" bool (fun r -> r.hot)

let verify_result =
  obj (fun v_trace verdicts v_hot -> { verdicts; v_hot; v_trace })
  |> trace_mem (fun r -> r.v_trace)
  |> mem "verdicts" (pairs "instr" "verdict") (fun r -> r.verdicts)
  |> mem "hot" bool (fun r -> r.v_hot)

let cache_stats =
  let sub o = nullable (record o) in
  let disk =
    obj (fun result_entries total_bytes -> { Owl_cache.result_entries; total_bytes })
    |> mem "result_entries" int (fun d -> d.Owl_cache.result_entries)
    |> mem "total_bytes" int (fun d -> d.Owl_cache.total_bytes)
  in
  let store =
    obj (fun hits misses stale writes -> { Owl_cache.hits; misses; stale; writes })
    |> mem "hits" int (fun k -> k.Owl_cache.hits)
    |> mem "misses" int (fun k -> k.Owl_cache.misses)
    |> mem "stale" int (fun k -> k.Owl_cache.stale)
    |> mem "writes" int (fun k -> k.Owl_cache.writes)
  in
  let hot_tier =
    obj (fun hot_hits hot_misses hot_evictions hot_size hot_capacity ->
        { hot_hits; hot_misses; hot_evictions; hot_size; hot_capacity })
    |> mem "hits" int (fun (h : hot_stats) -> h.hot_hits)
    |> mem "misses" int (fun (h : hot_stats) -> h.hot_misses)
    |> mem "evictions" int (fun (h : hot_stats) -> h.hot_evictions)
    |> mem "size" int (fun (h : hot_stats) -> h.hot_size)
    |> mem "capacity" int (fun (h : hot_stats) -> h.hot_capacity)
  in
  record
    (obj (fun disk store hot_tier served rejected uptime_seconds ->
         { disk; store; hot_tier; served; rejected; uptime_seconds })
    |> mem "disk" (sub disk) ~absent:None (fun c -> c.disk)
    |> mem "store" (sub store) ~absent:None (fun c -> c.store)
    |> mem "hot_tier" (sub hot_tier) ~absent:None (fun c -> c.hot_tier)
    |> mem "served" int (fun c -> c.served)
    |> mem "rejected" int (fun c -> c.rejected)
    |> mem "uptime_seconds" float (fun c -> c.uptime_seconds))

let cache_stats_to_json = cache_stats.enc

(* The [ping] health report, flat in the pong envelope.  Every member
   postdates the first protocol-1 deployments and reads as zero when
   absent, so an old server's bare pong is [empty_health]; the four
   worker-capacity and shedding members older servers send are ignored. *)
let health =
  obj (fun workers workers_lost queue_waiting cancelled timeouts uptime_s build
           hot_size hot_capacity ->
      { workers; workers_lost; queue_waiting; cancelled; timeouts; uptime_s; build;
        hot_size; hot_capacity })
  |> mem "workers" int ~absent:0 (fun h -> h.workers)
  |> mem "workers_lost" int ~absent:0 (fun h -> h.workers_lost)
  |> mem "queue_waiting" int ~absent:0 (fun h -> h.queue_waiting)
  |> mem "cancelled" int ~absent:0 (fun h -> h.cancelled)
  |> mem "timeouts" int ~absent:0 (fun h -> h.timeouts)
  |> mem "uptime_s" float ~absent:0.0 (fun h -> h.uptime_s)
  |> mem "build" string ~absent:"" (fun h -> h.build)
  |> mem "hot_size" int ~absent:0 (fun h -> h.hot_size)
  |> mem "hot_capacity" int ~absent:0 (fun h -> h.hot_capacity)

let empty_health = Result.get_ok (health.build (Json.Obj []))

let wire_metric =
  record
    (obj (fun m_name m_kind m_count m_sum m_min m_max m_p50 m_p90 m_p99 ->
         { m_name; m_kind; m_count; m_sum; m_min; m_max; m_p50; m_p90; m_p99 })
    |> mem "name" string (fun m -> m.m_name)
    |> mem "kind" string (fun m -> m.m_kind)
    |> mem "count" int ~absent:0 (fun m -> m.m_count)
    |> mem "sum" int ~absent:0 (fun m -> m.m_sum)
    |> mem "min" int ~absent:0 (fun m -> m.m_min)
    |> mem "max" int ~absent:0 (fun m -> m.m_max)
    |> mem "p50" int ~absent:0 (fun m -> m.m_p50)
    |> mem "p90" int ~absent:0 (fun m -> m.m_p90)
    |> mem "p99" int ~absent:0 (fun m -> m.m_p99))

let metrics_to_json = (list wire_metric).enc

let reply_cases =
  [ case "progress" progress (fun p -> Progress p)
      (function Progress p -> Some p | _ -> None);
    case "synth_result" synth_result (fun r -> Synth_result r)
      (function Synth_result r -> Some r | _ -> None);
    case "verify_result" verify_result (fun r -> Verify_result r)
      (function Verify_result r -> Some r | _ -> None);
    case "cache_stats" (one (mem "stats" cache_stats)) (fun c -> Cache_stats_reply c)
      (function Cache_stats_reply c -> Some c | _ -> None);
    case "pong"
      (obj (fun server protocol health -> (server, protocol, health))
      |> mem "server" string (fun (s, _, _) -> s)
      |> mem "protocol" int (fun (_, p, _) -> p)
      |> inline health (fun (_, _, h) -> h))
      (fun (server, protocol, health) -> Pong { server; protocol; health })
      (function Pong r -> Some (r.server, r.protocol, r.health) | _ -> None);
    case "metrics" (one (mem "metrics" (list wire_metric))) (fun ms -> Metrics_reply ms)
      (function Metrics_reply ms -> Some ms | _ -> None);
    case "dump_trace" (one (mem "trace_json" string))
      (fun trace_json -> Dump_trace_reply { trace_json })
      (function Dump_trace_reply r -> Some r.trace_json | _ -> None);
    case "busy" (one (mem "queue_depth" int)) (fun queue_depth -> Busy { queue_depth })
      (function Busy r -> Some r.queue_depth | _ -> None);
    case "error"
      (obj (fun code message -> { code; message })
      |> mem "code" string (fun e -> e.code)
      |> mem "message" string (fun e -> e.message))
      (fun e -> Err e)
      (function Err e -> Some e | _ -> None);
    const "shutdown_ack" Shutdown_ack ]

(* {1 The envelope}

   One object per frame: the version under "v", the kind under "t", a
   request's trace id under "trace", then the kind's members.  An absent
   or mismatched "v" is version skew — a distinct code, so the peer can
   say "upgrade" rather than "you sent garbage".  Decoding parses the
   frame once; the value and its trace id come from that one parse. *)

let to_frame ?trace cases x =
  let tag, fields = tagged cases x in
  let fields =
    match trace with None -> fields | Some id -> ("trace", Json.str id) :: fields
  in
  Json.obj (("v", Json.int version) :: ("t", Json.str tag) :: fields)

let trace_of v = nonempty (Json.member "trace" v)

let of_frame cases payload =
  match Json.parse payload with
  | exception Json.Parse_error m -> fail "bad_request" "frame is not JSON: %s" m
  | v -> (
      match Json.member "v" v with
      | Some (Json.Num f) when f = float_of_int version -> (
          match untag "t" cases v with
          | Ok x -> Ok (x, trace_of v)
          | Error m -> fail "bad_request" "%s" m)
      | Some (Json.Num f) when Float.is_integer f ->
          fail "version_skew" "peer speaks protocol %.0f, this end speaks %d" f version
      | _ -> fail "version_skew" "frame carries no protocol version")

let request_to_frame ?trace r = to_frame ?trace request_cases r
let request_of_frame_traced payload = of_frame request_cases payload
let request_of_frame payload = Result.map fst (request_of_frame_traced payload)
let reply_to_frame r = to_frame reply_cases r
let reply_of_frame payload = Result.map fst (of_frame reply_cases payload)

let trace_of_frame payload =
  match Json.parse payload with exception Json.Parse_error _ -> None | v -> trace_of v

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
          Printf.bprintf b "# TYPE %s_total counter\n%s_total %d\n" n n m.m_count
      | "gauge" -> Printf.bprintf b "# TYPE %s gauge\n%s %d\n" n n m.m_count
      | _ ->
          Printf.bprintf b "# TYPE %s summary\n" n;
          List.iter
            (fun (q, v) -> Printf.bprintf b "%s{quantile=%S} %d\n" n q v)
            [ ("0.5", m.m_p50); ("0.9", m.m_p90); ("0.99", m.m_p99) ];
          Printf.bprintf b "%s_sum %d\n%s_count %d\n" n m.m_sum n m.m_count)
    ms;
  Buffer.contents b

