(* Tests for the owl serve stack: Proto framing and codecs, the
   Owl_cache.Lru hot tier, and end-to-end daemons.

   The protocol layers are tested bottom-up: framing over real pipe fds
   (including a dribbling writer that forces partial reads), codecs by
   roundtrip plus hostile payloads (garbage, ill-typed fields, version
   skew), and finally whole servers — started in-process on /tmp Unix
   sockets with a stub registry — exercising concurrent clients, the
   hot tier, admission control, framing abuse over a live socket, and
   shutdown drain. *)

module Proto = Owl_serve.Proto
module Server = Owl_serve.Server
module Client = Owl_serve.Client

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* {1 Framing} *)

let frames_error thunk =
  match thunk () with
  | _ -> false
  | exception Proto.Framing_error _ -> true

let test_frame_roundtrip () =
  let r, w = Unix.pipe () in
  let payloads = [ ""; "x"; "{\"v\":1}"; String.make 70_000 'a' ] in
  let writer =
    Thread.create (fun () -> List.iter (Proto.write_frame w) payloads) ()
  in
  List.iter
    (fun expect ->
      match Proto.read_frame r with
      | Some got -> check "frame payload" true (got = expect)
      | None -> Alcotest.fail "premature EOF")
    payloads;
  Thread.join writer;
  Unix.close w;
  check "clean EOF is None" true (Proto.read_frame r = None);
  Unix.close r

let test_frame_dribble () =
  (* one byte at a time: both the length prefix and the payload arrive
     in partial reads, which the framing layer must loop over *)
  let r, w = Unix.pipe () in
  let payload = "{\"v\":1,\"t\":\"ping\"}" in
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  let writer =
    Thread.create
      (fun () ->
        Bytes.iter
          (fun c ->
            ignore (Unix.write w (Bytes.make 1 c) 0 1);
            Thread.yield ())
          b;
        Unix.close w)
      ()
  in
  check "dribbled frame reassembles" true (Proto.read_frame r = Some payload);
  check "then EOF" true (Proto.read_frame r = None);
  Thread.join writer;
  Unix.close r

let with_raw_bytes bytes f =
  let r, w = Unix.pipe () in
  let n = Bytes.length bytes in
  let writer =
    Thread.create
      (fun () ->
        let rec go off =
          if off < n then go (off + Unix.write w bytes off (n - off))
        in
        go 0;
        Unix.close w)
      ()
  in
  let result = f r in
  Thread.join writer;
  Unix.close r;
  result

let test_frame_eof_in_prefix () =
  check "EOF inside length prefix" true
    (with_raw_bytes (Bytes.make 2 '\x00') (fun r ->
         frames_error (fun () -> Proto.read_frame r)))

let test_frame_truncated_payload () =
  let b = Bytes.make (4 + 10) '\x2a' in
  Bytes.set_int32_be b 0 100l;
  check "EOF inside payload" true
    (with_raw_bytes b (fun r -> frames_error (fun () -> Proto.read_frame r)))

let test_frame_oversized_prefix () =
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int (Proto.max_frame + 1));
  check "oversized prefix rejected" true
    (with_raw_bytes b (fun r -> frames_error (fun () -> Proto.read_frame r)));
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 0xFFFFFFFFl;
  check "negative prefix rejected" true
    (with_raw_bytes b (fun r -> frames_error (fun () -> Proto.read_frame r)))

let test_frame_write_oversized () =
  let r, w = Unix.pipe () in
  check "oversized write refused" true
    (frames_error (fun () ->
         Proto.write_frame w (String.make (Proto.max_frame + 1) 'x')));
  Unix.close r;
  Unix.close w

(* {1 Addresses} *)

let test_addr_parse () =
  check "unix: prefix" true
    (Proto.addr_of_string "unix:/tmp/x.sock" = Ok (Proto.Unix_path "/tmp/x.sock"));
  check "bare path" true
    (Proto.addr_of_string "/tmp/x.sock" = Ok (Proto.Unix_path "/tmp/x.sock"));
  check "tcp host:port" true
    (Proto.addr_of_string "tcp:localhost:7777" = Ok (Proto.Tcp ("localhost", 7777)));
  check "tcp splits at last colon" true
    (Proto.addr_of_string "tcp:::1:7777" = Ok (Proto.Tcp ("::1", 7777)));
  check "bad port is an error" true
    (match Proto.addr_of_string "tcp:host:notaport" with
    | Error _ -> true
    | Ok _ -> false);
  check "out-of-range port is an error" true
    (match Proto.addr_of_string "tcp:host:70000" with
    | Error _ -> true
    | Ok _ -> false);
  check "missing port is an error" true
    (match Proto.addr_of_string "tcp:hostonly" with
    | Error _ -> true
    | Ok _ -> false);
  check "empty is an error" true
    (match Proto.addr_of_string "" with Error _ -> true | Ok _ -> false);
  List.iter
    (fun a ->
      check "addr roundtrip" true
        (Proto.addr_of_string (Proto.addr_to_string a) = Ok a))
    [ Proto.Unix_path "/tmp/y.sock"; Proto.Tcp ("127.0.0.1", 81) ]

(* {1 Codecs} *)

let sample_stats =
  {
    Synth.Engine.iterations = 4;
    queries = 15;
    conflicts = 1;
    blasted_vars = 100;
    blasted_clauses = 2000;
    trivial_unsats = 3;
    retried_queries = 1;
    degraded_queries = 0;
    validation_failures = 0;
    task_retries = 2;
    sat_restarts = 7;
    sat_learnt_kept = 120;
    sat_learnt_deleted = 55;
    wall_seconds = 0.25;
  }

let custom_options =
  Synth.Engine.(
    default_options |> with_mode Monolithic |> with_jobs 3
    |> with_conflict_budget 12345 |> with_max_iterations 77
    |> with_deadline (Some 1.5) |> with_retries 5 |> with_escalation_factor 2
    |> with_validate_models true |> with_check_independence true
    |> with_incremental false)

let test_options_roundtrip () =
  List.iter
    (fun o ->
      match
        Proto.request_of_frame
          (Proto.request_to_frame (Proto.Synth { design = "d"; options = o }))
      with
      | Ok (Proto.Synth { design = "d"; options = o' }) ->
          check "options roundtrip" true (o = o')
      | _ -> Alcotest.fail "options did not roundtrip")
    [ Synth.Engine.default_options; custom_options ];
  (* the unlimited budget is max_int natively and null on the wire; a
     naive float roundtrip would corrupt it *)
  check "unlimited budget survives" true
    ((match
        Proto.request_of_frame
          (Proto.request_to_frame
             (Proto.Synth
                { design = "d"; options = Synth.Engine.default_options }))
      with
     | Ok (Proto.Synth { options; _ }) ->
         options.Synth.Engine.budget.Synth.Engine.Budget.conflict_budget
     | _ -> 0)
    = max_int)

(* Tolerance for option and stats members that older protocol-1 peers
   send but this protocol no longer defines.  They are ignored, so a frame
   carrying them decodes to the same options as the frame without them —
   and therefore to the same hot-tier fingerprint, which hashes the
   re-encoded options. *)
let skew_frame extra =
  "{\"v\":1,\"t\":\"synth\",\"design\":\"d\",\"options\":{\"mode\":\"per_instruction\",\"jobs\":1,\"conflict_budget\":null,\"max_iterations\":9,\"retries\":0,\"escalation_factor\":1,\"validate_models\":false,\"check_independence\":false,\"incremental\":true"
  ^ extra ^ "}}"

let decode_skew_options f =
  match Proto.request_of_frame f with
  | Ok (Proto.Synth { options; _ }) -> options
  | _ -> Alcotest.fail "synth frame rejected"

let check_members_ignored cases =
  let plain = decode_skew_options (skew_frame "") in
  List.iter
    (fun (what, extra) ->
      let o = decode_skew_options (skew_frame extra) in
      check (what ^ " ignored") true (plain = o);
      check (what ^ ": one fingerprint") true
        (Proto.options_to_json plain = Proto.options_to_json o))
    cases

(* the "strategy" and "portfolio" objects of racing-era peers *)
let test_options_strategy_skew () =
  check_members_ignored
    [ ("racing members",
       ",\"strategy\":{\"profile\":\"aggressive\",\"restart\":\"geometric:150:1.5\",\"seed\":7,\"phase\":\"rand\",\"share_in\":true,\"share_out\":false},\"portfolio\":{\"racers\":4,\"cube_vars\":3,\"share_interval\":2000,\"share_max_lbd\":4}")
    ];
  check "frame decodes to its options" true
    (decode_skew_options (skew_frame "")
    = Synth.Engine.(
        default_options |> with_max_iterations 9 |> with_retries 0
        |> with_escalation_factor 1))

(* the "sat" pass configuration of profile-era peers, including an
   "inprocess_interval" of 0, which the profile-era decoder rejected; and
   a result frame from a profile-era server, whose stats carry the five
   inprocessing counters after sat_learnt_deleted *)
let test_options_sat_skew () =
  let sat_block interval =
    Printf.sprintf
      ",\"sat\":{\"lbd_retention\":false,\"rephase\":true,\"subsume\":true,\"vivify\":true,\"elim\":true,\"inprocess_interval\":%s}"
      interval
  in
  check_members_ignored
    [ ("sat block", sat_block "5000");
      ("sat block with unlimited interval", sat_block "null");
      ("sat block with interval 0", sat_block "0") ];
  let current =
    Proto.reply_to_frame
      (Proto.Synth_result
         {
           Proto.outcome = "solved";
           detail = "";
           bindings = [ ("h0", "2'x1") ];
           stats = sample_stats;
           hot = false;
           trace = "";
         })
  in
  let anchor = "\"sat_learnt_deleted\": 55" in
  let rec find i =
    if i + String.length anchor > String.length current then None
    else if String.sub current i (String.length anchor) = anchor then Some i
    else find (i + 1)
  in
  let at =
    match find 0 with
    | Some i -> i + String.length anchor
    | None -> Alcotest.fail "stats member sat_learnt_deleted not found"
  in
  let old =
    String.sub current 0 at
    ^ ",\"sat_subsumed\":9,\"sat_strengthened\":4,\"sat_vivified\":11,\"sat_eliminated\":2,\"sat_rephases\":1"
    ^ String.sub current at (String.length current - at)
  in
  match Proto.reply_of_frame old with
  | Ok (Proto.Synth_result r) ->
      check "old inprocessing stats ignored" true
        (r.Proto.stats = sample_stats)
  | _ -> Alcotest.fail "result frame with old stats members rejected"

(* Version-skew tolerance for the pong health report, mirroring the
   option members above: a protocol-1 server that predates the report
   sends a bare pong, which must decode to {!Proto.empty_health} rather
   than be rejected — the protocol version did not change when the
   fields were added. *)
let test_pong_health_skew () =
  let old_frame = "{\"v\":1,\"t\":\"pong\",\"server\":\"old\",\"protocol\":1}" in
  match Proto.reply_of_frame old_frame with
  | Ok (Proto.Pong { server; protocol; health }) ->
      check_str "old server name survives" "old" server;
      check_int "old protocol survives" 1 protocol;
      check "absent health decodes to empty report" true
        (health = Proto.empty_health)
  | _ -> Alcotest.fail "bare old-style pong rejected"

let code_of = function
  | Error e -> e.Proto.code
  | Ok _ -> "ok"

let test_request_decode_errors () =
  check_str "garbage" "bad_request" (code_of (Proto.request_of_frame "hello"));
  check_str "non-object" "version_skew" (code_of (Proto.request_of_frame "[1,2]"));
  check_str "missing version" "version_skew"
    (code_of (Proto.request_of_frame "{\"t\":\"ping\"}"));
  check_str "version skew" "version_skew"
    (code_of (Proto.request_of_frame "{\"v\":99,\"t\":\"ping\"}"));
  check_str "unknown kind" "bad_request"
    (code_of (Proto.request_of_frame "{\"v\":1,\"t\":\"dance\"}"));
  check_str "ill-typed design" "bad_request"
    (code_of
       (Proto.request_of_frame "{\"v\":1,\"t\":\"synth\",\"design\":5}"));
  check_str "missing options" "bad_request"
    (code_of
       (Proto.request_of_frame "{\"v\":1,\"t\":\"synth\",\"design\":\"d\"}"));
  (* the wire carries builder-validated options: jobs = 0 must be
     rejected exactly as the native setter rejects it *)
  check_str "invalid options" "bad_request"
    (code_of
       (Proto.request_of_frame
          "{\"v\":1,\"t\":\"synth\",\"design\":\"d\",\"options\":{\"mode\":\"monolithic\",\"jobs\":0,\"conflict_budget\":null,\"max_iterations\":1,\"retries\":0,\"escalation_factor\":1,\"validate_models\":false,\"check_independence\":false,\"incremental\":true}}"))

let sample_cache_stats =
  {
    Proto.disk =
      Some { Owl_cache.result_entries = 3; warm_entries = 5; total_bytes = 999 };
    store = Some { Owl_cache.hits = 1; misses = 2; stale = 3; writes = 4 };
    hot_tier =
      Some
        {
          Proto.hot_hits = 10;
          hot_misses = 20;
          hot_evictions = 1;
          hot_size = 7;
          hot_capacity = 16;
        };
    served = 42;
    rejected = 6;
    uptime_seconds = 12.5;
  }

let test_reply_roundtrip () =
  let replies =
    [
      Proto.Progress (Proto.Instr_started { instr = "add" });
      Proto.Progress
        (Proto.Instr_done
           { instr = "add"; status = "solved"; iterations = 3; queries = 9 });
      Proto.Progress (Proto.Retry { attempt = 1; reason = "unknown" });
      Proto.Progress (Proto.Degraded { attempt = 2 });
      Proto.Synth_result
        {
          Proto.outcome = "solved";
          detail = "";
          bindings = [ ("h0", "2'x1"); ("h1", "(if a \"b\" c)") ];
          stats = sample_stats;
          hot = true;
          trace = "tdeadbe-7";
        };
      Proto.Synth_result
        {
          Proto.outcome = "timeout";
          detail = "";
          bindings = [];
          stats = sample_stats;
          hot = false;
          trace = "";
        };
      Proto.Verify_result
        {
          Proto.verdicts = [ ("add", "verified"); ("sub", "violated") ];
          v_hot = false;
          v_trace = "tcafe00-12";
        };
      Proto.Cache_stats_reply sample_cache_stats;
      Proto.Cache_stats_reply
        {
          Proto.disk = None;
          store = None;
          hot_tier = None;
          served = 0;
          rejected = 0;
          uptime_seconds = 0.0;
        };
      Proto.Pong
        {
          server = "owl/1.0.0";
          protocol = Proto.version;
          health =
            {
              Proto.workers = 4;
              workers_alive = 3;
              workers_lost = 1;
              queue_waiting = 2;
              degraded = true;
              cancelled = 5;
              shed = 6;
              timeouts = 7;
              degraded_seconds = 1.5;
              uptime_s = 33.25;
              build = "owl-serve/1.0 proto-1";
              hot_size = 9;
              hot_capacity = 64;
            };
        };
      Proto.Pong
        {
          server = "owl/1.0.0";
          protocol = Proto.version;
          health = Proto.empty_health;
        };
      Proto.Busy { queue_depth = 9 };
      Proto.Err { Proto.code = "internal"; message = "boom \"quoted\"" };
      Proto.Metrics_reply
        [
          {
            Proto.m_name = "serve.requests";
            m_kind = "counter";
            m_count = 42;
            m_sum = 0;
            m_min = 0;
            m_max = 0;
            m_p50 = 0;
            m_p90 = 0;
            m_p99 = 0;
          };
          {
            Proto.m_name = "serve.job.latency_us";
            m_kind = "histogram";
            m_count = 5;
            m_sum = 1010;
            m_min = 1;
            m_max = 1000;
            m_p50 = 3;
            m_p90 = 768;
            m_p99 = 997;
          };
        ];
      Proto.Metrics_reply [];
      Proto.Dump_trace_reply
        { trace_json = "{\"traceEvents\":[{\"name\":\"x \\\"q\\\"\"}]}" };
      Proto.Shutdown_ack;
    ]
  in
  List.iter
    (fun reply ->
      match Proto.reply_of_frame (Proto.reply_to_frame reply) with
      | Ok got -> check "reply roundtrip" true (got = reply)
      | Error e -> Alcotest.fail ("reply failed to decode: " ^ e.Proto.message))
    replies

let test_request_roundtrip () =
  List.iter
    (fun req ->
      match Proto.request_of_frame (Proto.request_to_frame req) with
      | Ok got -> check "request roundtrip" true (got = req)
      | Error e ->
          Alcotest.fail ("request failed to decode: " ^ e.Proto.message))
    [
      Proto.Synth { design = "acc"; options = custom_options };
      Proto.Verify { design = "acc"; options = Synth.Engine.default_options };
      Proto.Cache_stats;
      Proto.Ping;
      Proto.Metrics;
      Proto.Dump_trace { trace = None };
      Proto.Dump_trace { trace = Some "t1a2b3-4" };
      Proto.Shutdown;
    ]

(* The envelope's "trace" member is a tolerant peek on both ends: any
   request can carry one, old decoders ignore it, and unparseable
   payloads read as None rather than raising. *)
let test_trace_envelope () =
  check "client-stamped trace survives the envelope" true
    (Proto.trace_of_frame (Proto.request_to_frame ~trace:"tabc12-9" Proto.Ping)
    = Some "tabc12-9");
  check "untraced frame peeks as None" true
    (Proto.trace_of_frame (Proto.request_to_frame Proto.Ping) = None);
  check "garbage peeks as None, not an exception" true
    (Proto.trace_of_frame "not json at all" = None);
  (* a traced request still decodes as the same request — the id rides
     protocol version 1 unchanged *)
  check "traced ping still decodes" true
    (Proto.request_of_frame (Proto.request_to_frame ~trace:"t0-0" Proto.Ping)
    = Ok Proto.Ping);
  (* terminal replies re-surface the id they were stamped with *)
  let r =
    Proto.Synth_result
      {
        Proto.outcome = "solved";
        detail = "";
        bindings = [ ("h0", "1'x0") ];
        stats = sample_stats;
        hot = false;
        trace = "tfeed0-3";
      }
  in
  check "reply frame carries the result's trace id" true
    (Proto.trace_of_frame (Proto.reply_to_frame r) = Some "tfeed0-3")

let wm ?(count = 0) ?(sum = 0) ?(min = 0) ?(max = 0) ?(p50 = 0) ?(p90 = 0)
    ?(p99 = 0) name kind =
  {
    Proto.m_name = name;
    m_kind = kind;
    m_count = count;
    m_sum = sum;
    m_min = min;
    m_max = max;
    m_p50 = p50;
    m_p90 = p90;
    m_p99 = p99;
  }

let sample_metrics =
  [
    wm "serve.requests" "counter" ~count:42;
    wm "serve.queue_waiting" "gauge" ~count:3;
    wm "serve.job.latency_us.1m" "window" ~count:5 ~sum:1010 ~min:1 ~max:1000
      ~p50:3 ~p90:768 ~p99:997;
  ]

(* Pin down the Prometheus exposition rendering: name mangling, the
   _total counter suffix, plain gauges, and summary quantiles.  These
   lines are what a scraper parses, so the format is a contract. *)
let test_prometheus_render () =
  let text = Proto.metrics_to_prometheus sample_metrics in
  let has needle =
    let n = String.length needle and l = String.length text in
    let rec go i = i + n <= l && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  check "counter renders with _total" true (has "owl_serve_requests_total 42\n");
  check "counter typed" true (has "# TYPE owl_serve_requests_total counter\n");
  check "gauge renders plainly" true (has "owl_serve_queue_waiting 3\n");
  check "window renders as summary" true
    (has "# TYPE owl_serve_job_latency_us_1m summary\n");
  check "p99 quantile sample" true
    (has "owl_serve_job_latency_us_1m{quantile=\"0.99\"} 997\n");
  check "summary sum and count" true
    (has "owl_serve_job_latency_us_1m_sum 1010\n"
    && has "owl_serve_job_latency_us_1m_count 5\n");
  (* and the JSON rendering is a standalone parseable array *)
  match Json.parse (Proto.metrics_to_json sample_metrics) with
  | Json.Arr [ _; _; _ ] -> ()
  | _ -> Alcotest.fail "metrics_to_json is not a 3-element array"
  | exception Json.Parse_error m ->
      Alcotest.fail ("metrics_to_json unparseable: " ^ m)

(* {1 The LRU hot tier} *)

let test_lru_basics () =
  let l = Owl_cache.Lru.create ~capacity:2 in
  check "miss on empty" true (Owl_cache.Lru.find l "a" = None);
  Owl_cache.Lru.add l "a" 1;
  Owl_cache.Lru.add l "b" 2;
  check "hit a" true (Owl_cache.Lru.find l "a" = Some 1);
  (* a was just refreshed, so adding c evicts b, the cold entry *)
  Owl_cache.Lru.add l "c" 3;
  check "b evicted" true (Owl_cache.Lru.find l "b" = None);
  check "a survived" true (Owl_cache.Lru.find l "a" = Some 1);
  check "c present" true (Owl_cache.Lru.find l "c" = Some 3);
  Owl_cache.Lru.add l "a" 10;
  check "overwrite in place" true (Owl_cache.Lru.find l "a" = Some 10);
  let s = Owl_cache.Lru.stats l in
  check_int "size" 2 s.Owl_cache.Lru.size;
  check_int "evictions" 1 s.Owl_cache.Lru.evictions;
  check "hits and misses counted" true
    (s.Owl_cache.Lru.hits > 0 && s.Owl_cache.Lru.misses > 0)

let test_lru_zero_capacity () =
  let l = Owl_cache.Lru.create ~capacity:0 in
  Owl_cache.Lru.add l "a" 1;
  check "capacity 0 never stores" true (Owl_cache.Lru.find l "a" = None);
  check "negative capacity rejected" true
    (match Owl_cache.Lru.create ~capacity:(-1) with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_lru_concurrent () =
  (* hammer one tier from several domains; the postcondition is sanity
     (no crash, size within capacity), the mutex does the rest *)
  let l = Owl_cache.Lru.create ~capacity:8 in
  let worker seed () =
    for i = 0 to 999 do
      let k = string_of_int ((i * seed) mod 32) in
      (match Owl_cache.Lru.find l k with Some _ -> () | None -> ());
      Owl_cache.Lru.add l k i
    done
  in
  let ds = List.map (fun s -> Domain.spawn (worker s)) [ 3; 5; 7 ] in
  worker 11 ();
  List.iter Domain.join ds;
  let s = Owl_cache.Lru.stats l in
  check "size bounded by capacity" true (s.Owl_cache.Lru.size <= 8);
  check_int "all lookups accounted" 4000
    (s.Owl_cache.Lru.hits + s.Owl_cache.Lru.misses)

(* {1 End-to-end servers}

   Each test boots a real daemon (worker domains, reader threads) on a
   fresh /tmp socket with a stub two-design registry: "acc" is the
   accumulator case study, "slow" is the same problem behind a 0.5 s
   construction delay — the deterministic way to keep a worker busy
   while admission control and drain behavior are observed. *)

let acc_problem = Designs.Accumulator.problem ()
let alu_problem = Designs.Alu.problem ()

let acc_verify_problem =
  {
    acc_problem with
    Synth.Engine.design = Designs.Accumulator.reference_design ();
  }

let stub_lookup kind name =
  let slow = String.length name >= 4 && String.sub name 0 4 = "slow" in
  if slow then Unix.sleepf 0.5;
  match (kind, name) with
  | `Synth, _ when name = "acc" || slow -> Some acc_problem
  | `Synth, "alu" -> Some alu_problem
  | `Verify, "acc" -> Some acc_verify_problem
  | _ -> None

let sock_counter = ref 0

let start_server ?(jobs = 2) ?(queue_depth = 8) ?(hot = 16)
    ?(telemetry = false) () =
  incr sock_counter;
  let path =
    Printf.sprintf "/tmp/owl-serve-test-%d-%d.sock" (Unix.getpid ())
      !sock_counter
  in
  let addr = Proto.Unix_path path in
  let ready = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        Server.run
          ~ready:(fun () -> Atomic.set ready true)
          {
            Server.addr;
            jobs;
            queue_depth;
            hot_tier_size = hot;
            cache = None;
            server_name = "test";
            telemetry;
            dump_dir = None;
          }
          ~lookup:stub_lookup)
      ()
  in
  let rec wait n =
    if not (Atomic.get ready) then
      if n > 500 then Alcotest.fail "server did not come up"
      else begin
        Thread.delay 0.01;
        wait (n + 1)
      end
  in
  wait 0;
  (addr, th)

let stop_server addr th =
  let c = Client.connect addr in
  Client.shutdown c;
  Client.close c;
  Thread.join th

let test_ping_and_stats () =
  let addr, th = start_server () in
  let c = Client.connect addr in
  let server, protocol, h = Client.ping c in
  check_str "server name" "test" server;
  check_int "protocol" Proto.version protocol;
  check_int "workers configured" 2 h.Proto.workers;
  check_int "all workers alive" 2 h.Proto.workers_alive;
  check_int "none lost" 0 h.Proto.workers_lost;
  check "healthy daemon is not degraded" true (not h.Proto.degraded);
  let s = Client.cache_stats c in
  check "no disk cache configured" true (s.Proto.disk = None);
  check "hot tier reported" true
    (match s.Proto.hot_tier with
    | Some h -> h.Proto.hot_capacity = 16
    | None -> false);
  Client.close c;
  stop_server addr th

let test_synth_cold_then_hot () =
  let addr, th = start_server () in
  let c = Client.connect addr in
  let events = ref 0 in
  let started = ref 0 in
  let on_progress = function
    | Proto.Instr_started _ ->
        incr started;
        incr events
    | _ -> incr events
  in
  (* the ALU takes the per-instruction path, whose cegis.instr spans
     feed the progress stream; shared-hole designs synthesize jointly
     and stream only retry/degrade notices *)
  let r = Client.synth ~on_progress c ~design:"alu" Synth.Engine.default_options in
  check_str "cold outcome" "solved" r.Proto.outcome;
  check "cold is not hot" true (not r.Proto.hot);
  check "cold run streamed progress" true (!started >= 1);
  check "bindings returned" true (r.Proto.bindings <> []);
  let cold_events = !events in
  let r2 =
    Client.synth ~on_progress c ~design:"alu" Synth.Engine.default_options
  in
  check_str "warm outcome" "solved" r2.Proto.outcome;
  check "warm answer is hot" true r2.Proto.hot;
  (* the hot tier answers without running the engine, so a warm repeat
     streams no events — the protocol-level witness that it never
     touched a solver *)
  check_int "no progress on a hot hit" cold_events !events;
  check "same bindings either way" true (r.Proto.bindings = r2.Proto.bindings);
  let s = Client.cache_stats c in
  check "hot tier counted the hit" true
    (match s.Proto.hot_tier with
    | Some h -> h.Proto.hot_hits >= 1
    | None -> false);
  Client.close c;
  stop_server addr th

let test_verify_end_to_end () =
  let addr, th = start_server () in
  let c = Client.connect addr in
  let r = Client.verify c ~design:"acc" Synth.Engine.default_options in
  check "all instructions verified" true
    (r.Proto.verdicts <> []
    && List.for_all (fun (_, v) -> v = "verified") r.Proto.verdicts);
  let r2 = Client.verify c ~design:"acc" Synth.Engine.default_options in
  check "verify repeat is hot" true r2.Proto.v_hot;
  Client.close c;
  stop_server addr th

(* [deadline_seconds] is relative on the wire and counts from the engine
   call, for verify as for synth: a roomy deadline must not turn verdicts
   Inconclusive. *)
let test_verify_deadline () =
  let addr, th = start_server () in
  let c = Client.connect addr in
  let r =
    Client.verify c ~design:"acc"
      Synth.Engine.(default_options |> with_deadline (Some 30.))
  in
  check "all instructions verified under a 30 s deadline" true
    (r.Proto.verdicts <> []
    && List.for_all (fun (_, v) -> v = "verified") r.Proto.verdicts);
  Client.close c;
  stop_server addr th

(* Telemetry end to end: a daemon started with telemetry on serves the
   metrics snapshot (counters counting, gauges live) and flight-recorder
   dumps — both the full ring and a single request's slice by trace id;
   one started with telemetry off answers the same request with an empty
   list rather than an error. *)
let test_live_telemetry () =
  let addr, th = start_server ~telemetry:true () in
  let c = Client.connect addr in
  let r = Client.synth c ~design:"acc" Synth.Engine.default_options in
  check_str "request solved" "solved" r.Proto.outcome;
  check "reply carries a trace id" true (r.Proto.trace <> "");
  let ms = Client.metrics c in
  check "metrics reply is non-empty" true (ms <> []);
  let find name = List.find_opt (fun m -> m.Proto.m_name = name) ms in
  (match find "serve.requests" with
  | Some m ->
      check_str "requests kind" "counter" m.Proto.m_kind;
      check "requests counted" true (m.Proto.m_count >= 1)
  | None -> Alcotest.fail "no serve.requests counter");
  (match find "serve.workers_alive" with
  | Some m ->
      check_str "workers kind" "gauge" m.Proto.m_kind;
      check_int "workers gauge" 2 m.Proto.m_count
  | None -> Alcotest.fail "no serve.workers_alive gauge");
  (* the worker observes job latency after sending the terminal reply,
     so the histogram may land an instant behind the reply — poll *)
  let rec await_latency n =
    match
      List.find_opt
        (fun m -> m.Proto.m_name = "serve.job.latency_us")
        (Client.metrics c)
    with
    | Some m when m.Proto.m_count >= 1 -> ()
    | _ when n < 100 ->
        Thread.delay 0.01;
        await_latency (n + 1)
    | _ -> Alcotest.fail "no serve.job.latency_us observation"
  in
  await_latency 0;
  (* the flight recorder serves a full dump... *)
  (match Json.parse (Client.dump_trace c) with
  | doc -> (
      match Json.member "traceEvents" doc with
      | Some (Json.Arr (_ :: _)) -> ()
      | _ -> Alcotest.fail "flight dump has no traceEvents")
  | exception Json.Parse_error m ->
      Alcotest.fail ("flight dump is not valid JSON: " ^ m));
  (* ...and a single request's span tree in isolation: every non-metadata
     event in the slice is tagged with exactly the reply's trace id *)
  (match Json.parse (Client.dump_trace ~trace:r.Proto.trace c) with
  | doc -> (
      match Json.member "traceEvents" doc with
      | Some (Json.Arr evs) ->
          let payload =
            List.filter
              (fun ev -> Json.member "ph" ev <> Some (Json.String "M"))
              evs
          in
          check "slice is non-empty" true (payload <> []);
          check "slice events all carry the request's id" true
            (List.for_all
               (fun ev ->
                 match Json.member "args" ev with
                 | Some args ->
                     Json.member "trace" args
                     = Some (Json.String r.Proto.trace)
                 | None -> false)
               payload)
      | _ -> Alcotest.fail "trace slice has no traceEvents")
  | exception Json.Parse_error m ->
      Alcotest.fail ("trace slice is not valid JSON: " ^ m));
  Client.close c;
  stop_server addr th;
  (* telemetry off: the wire request succeeds, the registry is empty *)
  let addr, th = start_server () in
  let c = Client.connect addr in
  check "telemetry off serves an empty list" true (Client.metrics c = []);
  Client.close c;
  stop_server addr th

(* Telemetry cost at the daemon: the same 20-request mixed batch (four
   fingerprints per kind: 8 cold, 12 warm) against telemetry-off and
   telemetry-on daemons, twice each.  The faster on-run must stay within
   5% of the faster off-run, plus 50 ms for scheduler noise on a
   sub-second batch.  Every run must answer without error and hit the hot
   tier, and no hot reply may stream progress: one that did ran a
   solver. *)
let serve_batch ~telemetry () =
  let addr, th = start_server ~queue_depth:32 ~hot:32 ~telemetry () in
  let c = Client.connect addr in
  let hot_replies = ref 0 and hot_with_progress = ref 0 in
  let t0 = Unix.gettimeofday () in
  for seq = 0 to 19 do
    let options =
      Synth.Engine.(default_options |> with_max_iterations (300 + (seq mod 4)))
    in
    let progress = ref 0 in
    let on_progress _ = incr progress in
    let hot =
      if seq mod 5 = 4 then
        (Client.verify ~on_progress c ~design:"acc" options).Proto.v_hot
      else begin
        let r = Client.synth ~on_progress c ~design:"acc" options in
        check_str "synth solved" "solved" r.Proto.outcome;
        r.Proto.hot
      end
    in
    if hot then begin
      incr hot_replies;
      if !progress > 0 then incr hot_with_progress
    end
  done;
  let wall = Unix.gettimeofday () -. t0 in
  let tier_hits =
    match (Client.cache_stats c).Proto.hot_tier with
    | Some h -> h.Proto.hot_hits
    | None -> 0
  in
  Client.close c;
  stop_server addr th;
  check "hot replies" true (!hot_replies > 0);
  check "hot-tier hits" true (tier_hits > 0);
  check_int "hot replies streaming progress" 0 !hot_with_progress;
  wall

let test_telemetry_overhead () =
  let min2 f = Float.min (f ()) (f ()) in
  let off = min2 (serve_batch ~telemetry:false) in
  let on = min2 (serve_batch ~telemetry:true) in
  check
    (Printf.sprintf "telemetry on %.3fs <= off %.3fs * 1.05 + 0.05s" on off)
    true
    (on <= (off *. 1.05) +. 0.05)

let test_unknown_design () =
  let addr, th = start_server () in
  let c = Client.connect addr in
  check "unknown design is a typed error" true
    (match Client.synth c ~design:"nope" Synth.Engine.default_options with
    | _ -> false
    | exception Client.Server_error e -> e.Proto.code = "unknown_design");
  (* the error must not poison the connection *)
  let _ = Client.ping c in
  Client.close c;
  stop_server addr th

let test_concurrent_clients () =
  let addr, th = start_server ~jobs:3 ~queue_depth:64 () in
  let failures = Atomic.make 0 in
  let hot_answers = Atomic.make 0 in
  let client i () =
    try
      let c = Client.connect addr in
      for k = 0 to 4 do
        (* vary max_iterations to mix distinct (cold) and repeated
           (warm) fingerprints across clients *)
        let options =
          Synth.Engine.(
            default_options |> with_max_iterations (200 + ((i + k) mod 3)))
        in
        let r = Client.synth c ~design:"acc" options in
        if r.Proto.outcome <> "solved" then Atomic.incr failures;
        if r.Proto.hot then Atomic.incr hot_answers
      done;
      ignore (Client.ping c);
      Client.close c
    with _ -> Atomic.incr failures
  in
  let threads = List.init 6 (fun i -> Thread.create (client i) ()) in
  List.iter Thread.join threads;
  check_int "no failed or misframed exchanges" 0 (Atomic.get failures);
  (* 30 requests over 3 distinct fingerprints: most answers are warm *)
  check "hot tier served repeats" true (Atomic.get hot_answers > 0);
  stop_server addr th

let test_admission_control () =
  let addr, th = start_server ~jobs:1 ~queue_depth:0 () in
  let first = ref None in
  let a =
    Thread.create
      (fun () ->
        let c = Client.connect addr in
        first := Some (Client.synth c ~design:"slow" Synth.Engine.default_options);
        Client.close c)
      ()
  in
  Thread.delay 0.15;
  (* the single worker is busy constructing "slow"; with queue_depth 0
     the second request must bounce, not wait *)
  let c = Client.connect addr in
  check "second request bounces" true
    (match Client.synth c ~design:"acc" Synth.Engine.default_options with
    | _ -> false
    | exception Client.Server_busy _ -> true);
  Client.close c;
  Thread.join a;
  check "first request completed" true
    (match !first with Some r -> r.Proto.outcome = "solved" | None -> false);
  stop_server addr th

let test_raw_protocol_abuse () =
  let addr, th = start_server () in
  let raw () =
    match addr with
    | Proto.Unix_path path ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd
    | Proto.Tcp _ -> assert false
  in
  (* version skew: answered with the distinct code, connection kept *)
  let fd = raw () in
  Proto.write_frame fd "{\"v\":99,\"t\":\"ping\"}";
  check "version skew reported" true
    (match Proto.read_frame fd with
    | Some payload -> (
        match Proto.reply_of_frame payload with
        | Ok (Proto.Err e) -> e.Proto.code = "version_skew"
        | _ -> false)
    | None -> false);
  (* garbage JSON: bad_request, and the connection still answers pings *)
  Proto.write_frame fd "this is not json";
  check "garbage reported" true
    (match Proto.read_frame fd with
    | Some payload -> (
        match Proto.reply_of_frame payload with
        | Ok (Proto.Err e) -> e.Proto.code = "bad_request"
        | _ -> false)
    | None -> false);
  Proto.write_frame fd (Proto.request_to_frame Proto.Ping);
  check "connection survives decode errors" true
    (match Proto.read_frame fd with
    | Some payload -> (
        match Proto.reply_of_frame payload with
        | Ok (Proto.Pong _) -> true
        | _ -> false)
    | None -> false);
  Unix.close fd;
  (* framing abuse is unrecoverable: an oversized prefix must get the
     connection dropped, not answered *)
  let fd = raw () in
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 0x7FFFFFFFl;
  ignore (Unix.write fd b 0 4);
  check "oversized prefix drops the connection" true
    (match Proto.read_frame fd with
    | None -> true
    | Some _ -> false
    | exception Proto.Framing_error _ -> true);
  Unix.close fd;
  (* a truncated frame (prefix promises more than ever arrives) *)
  let fd = raw () in
  let b = Bytes.make (4 + 5) 'x' in
  Bytes.set_int32_be b 0 1000l;
  ignore (Unix.write fd b 0 9);
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  check "truncated frame drops the connection" true
    (match Proto.read_frame fd with
    | None -> true
    | Some _ -> false
    | exception Proto.Framing_error _ -> true);
  Unix.close fd;
  stop_server addr th

(* A client that pipelines work and vanishes: its queued jobs must be
   cancelled (admission slots and connection references released) and a
   later client must be served promptly — nobody pays for a dead peer. *)
let test_disconnect_cancels_queued () =
  let addr, th = start_server ~jobs:1 ~queue_depth:8 () in
  (* occupy the single worker so the dead client's jobs stay queued *)
  let a_result = ref None in
  let a =
    Thread.create
      (fun () ->
        let c = Client.connect addr in
        a_result :=
          Some (Client.synth c ~design:"slow-dc" Synth.Engine.default_options);
        Client.close c)
      ()
  in
  Thread.delay 0.15;
  let fd =
    match addr with
    | Proto.Unix_path path ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_UNIX path);
        fd
    | Proto.Tcp _ -> assert false
  in
  (* pipeline two distinct cold requests, then slam the socket shut with
     both still queued behind the slow job *)
  List.iter
    (fun iters ->
      Proto.write_frame fd
        (Proto.request_to_frame
           (Proto.Synth
              {
                design = "acc";
                options =
                  Synth.Engine.(default_options |> with_max_iterations iters);
              })))
    [ 901; 902 ];
  Unix.close fd;
  Thread.delay 0.2;
  (* the dead client's slots are released: a live client still gets
     served, and the health report shows the cancellations *)
  let c = Client.connect addr in
  let r = Client.synth c ~design:"acc" Synth.Engine.default_options in
  check_str "later client still served" "solved" r.Proto.outcome;
  let _, _, h = Client.ping c in
  check "both queued jobs cancelled" true (h.Proto.cancelled >= 2);
  check_int "queue empty again" 0 h.Proto.queue_waiting;
  Client.close c;
  Thread.join a;
  check "slow job unaffected" true
    (match !a_result with Some r -> r.Proto.outcome = "solved" | None -> false);
  stop_server addr th

(* The worker_kill fault downs the domain executing the first solver
   job.  Supervision must respawn it, and the job — re-queued once at
   the head of its connection's FIFO — must still answer correctly, so
   the kill is invisible to the client except in the health report. *)
let test_worker_kill_supervision () =
  Fault.install (Fault.parse "worker_kill@1");
  Fun.protect ~finally:Fault.clear @@ fun () ->
  let addr, th = start_server ~jobs:2 () in
  let c = Client.connect addr in
  let r = Client.synth c ~design:"acc" Synth.Engine.default_options in
  check_str "killed worker's job still solved" "solved" r.Proto.outcome;
  let _, _, h = Client.ping c in
  check_int "the kill is on the books" 1 h.Proto.workers_lost;
  check_int "capacity recovered" 2 h.Proto.workers_alive;
  check "recovered daemon is not degraded" true (not h.Proto.degraded);
  Client.close c;
  stop_server addr th

(* Second kill on the same request: the re-queued execution dies too, so
   the client gets the typed, retryable worker_lost error — and
   [Client.with_retry] turns it back into a success. *)
let test_worker_lost_then_retry () =
  Fault.install (Fault.parse "worker_kill@1,worker_kill@2");
  Fun.protect ~finally:Fault.clear @@ fun () ->
  let addr, th = start_server ~jobs:2 () in
  let c = Client.connect addr in
  check "double kill surfaces worker_lost" true
    (match Client.synth c ~design:"acc" Synth.Engine.default_options with
    | _ -> false
    | exception Client.Server_error e -> e.Proto.code = "worker_lost");
  Client.close c;
  let retried = ref 0 in
  let r =
    Client.with_retry ~retries:2 ~backoff_ms:5
      ~on_retry:(fun ~attempt:_ ~delay:_ _ -> incr retried)
      addr
      (fun c -> Client.synth c ~design:"acc" Synth.Engine.default_options)
  in
  check_str "retry recovers the answer" "solved" r.Proto.outcome;
  check_int "no further faults, no further retries" 0 !retried;
  let _, _, h =
    Client.with_retry addr (fun c -> Client.ping c)
  in
  check_int "both kills on the books" 2 h.Proto.workers_lost;
  check_int "capacity still full" 2 h.Proto.workers_alive;
  stop_server addr th

(* Deadline enforcement before any solver is involved: already
   unsatisfiable at admission (no queue slot), or expired during the
   queue wait (answered by the worker without solving). *)
let test_deadline_admission () =
  let addr, th = start_server () in
  let c = Client.connect addr in
  let opts = Synth.Engine.(default_options |> with_deadline (Some 0.0)) in
  check "unsatisfiable deadline rejected immediately" true
    (match Client.synth c ~design:"acc" opts with
    | _ -> false
    | exception Client.Server_error e -> e.Proto.code = "timeout");
  let _, _, h = Client.ping c in
  check_int "no queue slot consumed" 0 h.Proto.queue_waiting;
  check "timeout counted" true (h.Proto.timeouts >= 1);
  (* the connection survives the rejection *)
  let r = Client.synth c ~design:"acc" Synth.Engine.default_options in
  check_str "same connection still works" "solved" r.Proto.outcome;
  Client.close c;
  stop_server addr th

let test_deadline_queued_expiry () =
  let addr, th = start_server ~jobs:1 ~queue_depth:4 () in
  let a =
    Thread.create
      (fun () ->
        let c = Client.connect addr in
        ignore (Client.synth c ~design:"slow-dl" Synth.Engine.default_options);
        Client.close c)
      ()
  in
  Thread.delay 0.15;
  (* 50 ms of deadline cannot outlive the ~350 ms still left on the slow
     job occupying the only worker: it must expire in the queue *)
  let c = Client.connect addr in
  let opts = Synth.Engine.(default_options |> with_deadline (Some 0.05)) in
  check "deadline expired while queued" true
    (match Client.synth c ~design:"acc" opts with
    | _ -> false
    | exception Client.Server_error e -> e.Proto.code = "timeout");
  Client.close c;
  Thread.join a;
  stop_server addr th

let test_shutdown_drains () =
  let addr, th = start_server ~jobs:1 ~queue_depth:4 () in
  let result = ref None in
  let a =
    Thread.create
      (fun () ->
        let c = Client.connect addr in
        result := Some (Client.synth c ~design:"slow2" Synth.Engine.default_options);
        Client.close c)
      ()
  in
  Thread.delay 0.15;
  let c = Client.connect addr in
  Client.shutdown c;
  Client.close c;
  (* the in-flight job must still complete and deliver its reply *)
  Thread.join a;
  check "queued job survived shutdown" true
    (match !result with Some r -> r.Proto.outcome = "solved" | None -> false);
  Thread.join th;
  (* after drain the socket is gone *)
  check "socket unlinked after drain" true
    (match Client.connect addr with
    | exception Unix.Unix_error _ -> true
    | c ->
        Client.close c;
        false)

let () =
  Alcotest.run "serve"
    [
      ( "framing",
        [
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "dribbled partial reads" `Quick test_frame_dribble;
          Alcotest.test_case "EOF in prefix" `Quick test_frame_eof_in_prefix;
          Alcotest.test_case "truncated payload" `Quick
            test_frame_truncated_payload;
          Alcotest.test_case "oversized prefix" `Quick
            test_frame_oversized_prefix;
          Alcotest.test_case "oversized write" `Quick test_frame_write_oversized;
        ] );
      ( "addr",
        [ Alcotest.test_case "parsing and roundtrip" `Quick test_addr_parse ] );
      ( "codec",
        [
          Alcotest.test_case "options roundtrip" `Quick test_options_roundtrip;
          Alcotest.test_case "sat options skew" `Quick test_options_sat_skew;
          Alcotest.test_case "strategy/portfolio skew" `Quick
            test_options_strategy_skew;
          Alcotest.test_case "pong health skew" `Quick test_pong_health_skew;
          Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
          Alcotest.test_case "reply roundtrip" `Quick test_reply_roundtrip;
          Alcotest.test_case "trace envelope" `Quick test_trace_envelope;
          Alcotest.test_case "prometheus rendering" `Quick
            test_prometheus_render;
          Alcotest.test_case "hostile payloads" `Quick
            test_request_decode_errors;
        ] );
      ( "lru",
        [
          Alcotest.test_case "basics" `Quick test_lru_basics;
          Alcotest.test_case "zero capacity" `Quick test_lru_zero_capacity;
          Alcotest.test_case "concurrent" `Quick test_lru_concurrent;
        ] );
      ( "server",
        [
          Alcotest.test_case "ping and stats" `Quick test_ping_and_stats;
          Alcotest.test_case "cold then hot" `Quick test_synth_cold_then_hot;
          Alcotest.test_case "verify" `Quick test_verify_end_to_end;
          Alcotest.test_case "verify deadline" `Quick test_verify_deadline;
          Alcotest.test_case "live telemetry" `Quick test_live_telemetry;
          Alcotest.test_case "telemetry overhead" `Quick
            test_telemetry_overhead;
          Alcotest.test_case "unknown design" `Quick test_unknown_design;
          Alcotest.test_case "concurrent clients" `Quick
            test_concurrent_clients;
          Alcotest.test_case "admission control" `Quick test_admission_control;
          Alcotest.test_case "protocol abuse" `Quick test_raw_protocol_abuse;
          Alcotest.test_case "disconnect cancels queued jobs" `Quick
            test_disconnect_cancels_queued;
          Alcotest.test_case "worker kill supervision" `Quick
            test_worker_kill_supervision;
          Alcotest.test_case "worker lost then client retry" `Quick
            test_worker_lost_then_retry;
          Alcotest.test_case "deadline at admission" `Quick
            test_deadline_admission;
          Alcotest.test_case "deadline expires queued" `Quick
            test_deadline_queued_expiry;
          Alcotest.test_case "shutdown drain" `Quick test_shutdown_drains;
        ] );
    ]
