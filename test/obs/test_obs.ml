(* Owl_obs test suite: the JSON emitter/parser pair, the null sink, span
   nesting and per-domain ordering, the deterministic ring-buffer merge,
   the Chrome trace export, and the metrics registry. *)

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* {1 JSON} *)

let test_json_escape () =
  checks "quote" "a\\\"b" (Json.escape "a\"b");
  checks "backslash" "a\\\\b" (Json.escape "a\\b");
  checks "newline" "a\\u000ab" (Json.escape "a\nb");
  checks "tab" "\\u0009" (Json.escape "\t");
  checks "nul" "\\u0000" (Json.escape "\000");
  (* non-ASCII bytes pass through untouched, so UTF-8 stays UTF-8 *)
  checks "utf8" "caf\xc3\xa9" (Json.escape "caf\xc3\xa9");
  checks "str" "\"x\\\\y\"" (Json.str "x\\y")

let test_json_num () =
  checks "int-valued" "42" (Json.num 42.0);
  checks "negative" "-7" (Json.num (-7.0));
  checks "fraction" "2.5" (Json.num 2.5);
  checks "nan" "null" (Json.num Float.nan);
  checks "inf" "null" (Json.num Float.infinity)

let test_json_roundtrip () =
  let roundtrip s =
    match Json.parse (Json.str s) with
    | Json.String s' -> s'
    | _ -> Alcotest.fail "expected a string"
  in
  List.iter
    (fun s -> checks ("roundtrip " ^ String.escaped s) s (roundtrip s))
    [
      "plain";
      "control\n\t\r chars\012\b";
      "back\\slash and \"quotes\"";
      "non-ascii caf\xc3\xa9 \xf0\x9f\xa6\x89";
      "\000embedded\000nul\000";
    ];
  (* \uXXXX escapes decode to UTF-8, surrogate pairs included *)
  (match Json.parse "\"\\u00e9\"" with
  | Json.String s -> checks "bmp escape" "\xc3\xa9" s
  | _ -> Alcotest.fail "expected a string");
  (match Json.parse "\"\\ud83d\\ude00\"" with
  | Json.String s -> checks "surrogate pair" "\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "expected a string");
  (* documents compose by concatenation and parse back *)
  let doc =
    Json.obj
      [
        ("a", Json.int 1);
        ("b", Json.arr [ Json.bool true; Json.str "x" ]);
        ("c", Json.num 1.5);
      ]
  in
  match Json.parse doc with
  | Json.Obj _ as v ->
      (match Json.member "a" v with
      | Some (Json.Num f) -> checkb "a" true (f = 1.0)
      | _ -> Alcotest.fail "missing a");
      (match Json.member "b" v with
      | Some (Json.Arr [ Json.Bool true; Json.String "x" ]) -> ()
      | _ -> Alcotest.fail "bad b");
      checkb "no d" true (Json.member "d" v = None)
  | _ -> Alcotest.fail "expected an object"

let test_json_errors () =
  let fails s =
    match Json.parse s with
    | exception Json.Parse_error _ -> ()
    | _ -> Alcotest.fail ("parse should fail: " ^ s)
  in
  List.iter fails
    [ ""; "{"; "[1,]"; "{\"a\":}"; "\"unterminated"; "1 2"; "tru"; "nan" ]

(* {1 Null sink} *)

let test_null_sink () =
  Obs.disable ();
  Obs.disable_metrics ();
  let r = Obs.span "nothing" (fun () -> 41 + 1) in
  checki "span passes value through" 42 r;
  Obs.instant "nothing";
  checki "no events" 0 (List.length (Obs.events ()));
  checki "no drops" 0 (Obs.dropped ());
  (* exceptions pass through undisturbed *)
  (match Obs.span "boom" (fun () -> failwith "x") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  checki "still no events" 0 (List.length (Obs.events ()))

(* Disabled-path cost: with tracing and metrics off a span is one atomic
   load plus a branch.  The bound is deliberately loose (it only catches
   an accidentally expensive disabled path, e.g. a lock or an allocation),
   so it holds on slow shared machines. *)
let test_null_sink_overhead () =
  Obs.disable ();
  Obs.disable_metrics ();
  let reps = 1_000_000 in
  let payload () = Sys.opaque_identity 2 in
  let timed f =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    Unix.gettimeofday () -. t0
  in
  let bare = timed payload in
  let spanned = timed (fun () -> Obs.span "noop" payload) in
  let per_call_ns = (spanned -. bare) *. 1e9 /. float_of_int reps in
  checkb
    (Printf.sprintf "disabled span costs %.1f ns/call (bound 1000)" per_call_ns)
    true (per_call_ns <= 1000.0)

(* {1 Spans and ordering} *)

(* per-domain streams must follow stack discipline: every End matches the
   most recent open Begin *)
let well_nested events =
  let ok = ref true in
  let stacks = Hashtbl.create 8 in
  List.iter
    (fun (e : Obs.event) ->
      let stack =
        match Hashtbl.find_opt stacks e.Obs.dom with
        | Some s -> s
        | None ->
            let s = ref [] in
            Hashtbl.add stacks e.Obs.dom s;
            s
      in
      match e.Obs.ph with
      | Obs.Begin -> stack := e.Obs.name :: !stack
      | Obs.End -> (
          match !stack with
          | top :: rest when top = e.Obs.name -> stack := rest
          | _ -> ok := false)
      | Obs.Instant -> ())
    events;
  Hashtbl.iter (fun _ s -> if !s <> [] then ok := false) stacks;
  !ok

let test_span_nesting () =
  Obs.enable ();
  let r =
    Obs.span "outer" ~args:[ ("k", Obs.Int 1) ] (fun () ->
        Obs.instant "mark";
        Obs.span "inner"
          ~result:(fun v -> [ ("v", Obs.Int v) ])
          (fun () -> 7))
  in
  checki "value" 7 r;
  (* a raising span still closes *)
  (match Obs.span "raiser" (fun () -> failwith "expected") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  let evs = Obs.events () in
  Obs.disable ();
  let names ph =
    List.filter_map
      (fun (e : Obs.event) -> if e.Obs.ph = ph then Some e.Obs.name else None)
      evs
  in
  check
    Alcotest.(list string)
    "begins in order"
    [ "outer"; "inner"; "raiser" ]
    (names Obs.Begin);
  check
    Alcotest.(list string)
    "ends in order"
    [ "inner"; "outer"; "raiser" ]
    (names Obs.End);
  check Alcotest.(list string) "instant" [ "mark" ] (names Obs.Instant);
  checkb "well nested" true (well_nested evs);
  (* the End of the raising span carries the exception *)
  let raiser_end =
    List.find
      (fun (e : Obs.event) -> e.Obs.ph = Obs.End && e.Obs.name = "raiser")
      evs
  in
  checkb "exception arg" true
    (List.mem_assoc "exception" raiser_end.Obs.args);
  (* result args land on the End event *)
  let inner_end =
    List.find
      (fun (e : Obs.event) -> e.Obs.ph = Obs.End && e.Obs.name = "inner")
      evs
  in
  checkb "result arg" true (inner_end.Obs.args = [ ("v", Obs.Int 7) ]);
  (* timestamps never decrease within the merged stream of one domain *)
  let rec monotonic = function
    | (a : Obs.event) :: (b : Obs.event) :: rest ->
        a.Obs.ts <= b.Obs.ts && monotonic (b :: rest)
    | _ -> true
  in
  checkb "timestamps" true (monotonic evs)

(* {1 Multi-domain recording and the deterministic merge} *)

let burst id rounds =
  for i = 1 to rounds do
    Obs.span "work"
      ~args:[ ("who", Obs.Int id); ("i", Obs.Int i) ]
      (fun () -> Obs.instant "tick" ~args:[ ("who", Obs.Int id) ])
  done

let run_burst ~domains ~rounds =
  Obs.enable ();
  let spawned =
    List.init (domains - 1) (fun i ->
        Domain.spawn (fun () -> burst (i + 1) rounds))
  in
  burst 0 rounds;
  List.iter Domain.join spawned;
  let evs = Obs.events () in
  Obs.disable ();
  evs

let test_merge_multi_domain () =
  List.iter
    (fun domains ->
      let rounds = 50 in
      let evs = run_burst ~domains ~rounds in
      (* every domain contributed all of its events: 2 span events + 1
         instant per round *)
      checki
        (Printf.sprintf "event count at %d domains" domains)
        (domains * rounds * 3)
        (List.length evs);
      checki "nothing dropped" 0 (Obs.dropped ());
      checkb "well nested per domain" true (well_nested evs);
      (* the merge preserves every domain's own order exactly: per-domain
         sequence numbers appear strictly increasing *)
      let last_seq = Hashtbl.create 8 in
      List.iter
        (fun (e : Obs.event) ->
          (match Hashtbl.find_opt last_seq e.Obs.dom with
          | Some prev ->
              checkb "per-domain order" true (e.Obs.seq > prev)
          | None -> ());
          Hashtbl.replace last_seq e.Obs.dom e.Obs.seq)
        evs;
      checki
        (Printf.sprintf "domains seen at %d domains" domains)
        domains
        (Hashtbl.length last_seq))
    [ 1; 4 ]

let test_merge_deterministic () =
  (* the merge is a pure function of the recorded buffers: merging twice
     yields the identical stream *)
  Obs.enable ();
  let spawned =
    List.init 3 (fun i -> Domain.spawn (fun () -> burst (i + 1) 25))
  in
  burst 0 25;
  List.iter Domain.join spawned;
  let a = Obs.events () in
  let b = Obs.events () in
  Obs.disable ();
  checkb "same stream" true (a = b);
  checki "jobs=4 event count" (4 * 25 * 3) (List.length a)

let test_drop_newest () =
  Obs.enable ~capacity:4 ();
  for i = 1 to 10 do
    Obs.instant "e" ~args:[ ("i", Obs.Int i) ]
  done;
  let evs = Obs.events () in
  let n_dropped = Obs.dropped () in
  Obs.disable ();
  checki "kept prefix" 4 (List.length evs);
  checki "dropped the rest" 6 n_dropped;
  (* drop-newest keeps the earliest events *)
  List.iteri
    (fun idx (e : Obs.event) ->
      checkb "prefix kept in order" true (e.Obs.args = [ ("i", Obs.Int (idx + 1)) ]))
    evs

(* {1 Chrome trace export} *)

let test_chrome_trace () =
  Obs.enable ();
  ignore
    (Obs.span "phase"
       ~args:[ ("answer", Obs.Int 42); ("label", Obs.Str "a \"b\"\n") ]
       (fun () ->
         Obs.instant "blip" ~args:[ ("ok", Obs.Bool true) ];
         17));
  let s = Obs.chrome_trace_string () in
  Obs.disable ();
  let doc =
    match Json.parse s with
    | v -> v
    | exception Json.Parse_error m -> Alcotest.fail ("invalid JSON: " ^ m)
  in
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.Arr l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  checkb "has events" true (List.length events > 0);
  let str_member k v =
    match Json.member k v with
    | Some (Json.String s) -> Some s
    | _ -> None
  in
  let phase_events =
    List.filter
      (fun e ->
        match str_member "ph" e with
        | Some ("B" | "E" | "i") -> true
        | Some "M" -> false
        | _ -> Alcotest.fail "event without a known ph")
      events
  in
  checki "B + E + i" 3 (List.length phase_events);
  (* every non-metadata event round-trips the required fields *)
  List.iter
    (fun e ->
      checkb "name" true (str_member "name" e <> None);
      (match Json.member "ts" e with
      | Some (Json.Num ts) -> checkb "ts >= 0" true (ts >= 0.0)
      | _ -> Alcotest.fail "missing ts");
      (match Json.member "pid" e with
      | Some (Json.Num _) -> ()
      | _ -> Alcotest.fail "missing pid");
      match Json.member "tid" e with
      | Some (Json.Num _) -> ()
      | _ -> Alcotest.fail "missing tid")
    phase_events;
  (* instants carry a scope; span args survive escaping *)
  let instant =
    List.find (fun e -> str_member "ph" e = Some "i") phase_events
  in
  checkb "instant scope" true (str_member "s" instant = Some "t");
  let begin_ev =
    List.find (fun e -> str_member "ph" e = Some "B") phase_events
  in
  match Json.member "args" begin_ev with
  | Some args -> (
      (match Json.member "answer" args with
      | Some (Json.Num f) -> checkb "int arg" true (f = 42.0)
      | _ -> Alcotest.fail "missing int arg");
      match Json.member "label" args with
      | Some (Json.String s) -> checks "escaped arg" "a \"b\"\n" s
      | _ -> Alcotest.fail "missing str arg")
  | None -> Alcotest.fail "missing args"

(* {1 Metrics} *)

let test_metrics () =
  Obs.reset_metrics ();
  let c = Obs.counter "test.counter" in
  let h = Obs.histogram "test.histogram" in
  (* disabled: recording is a no-op *)
  Obs.disable_metrics ();
  Obs.incr c;
  Obs.observe h 100;
  checkb "disabled records nothing" true
    (List.for_all
       (fun (m : Obs.metric) ->
         m.Obs.metric_name <> "test.counter"
         && m.Obs.metric_name <> "test.histogram")
       (Obs.metrics ()));
  Obs.enable_metrics ();
  Obs.incr c;
  Obs.incr ~by:4 c;
  List.iter (Obs.observe h) [ 1; 2; 3; 4; 1000 ];
  Obs.disable_metrics ();
  let find name =
    List.find (fun (m : Obs.metric) -> m.Obs.metric_name = name) (Obs.metrics ())
  in
  let mc = find "test.counter" in
  checki "counter value" 5 mc.Obs.count;
  let mh = find "test.histogram" in
  checki "histogram count" 5 mh.Obs.count;
  checki "histogram sum" 1010 mh.Obs.sum;
  checki "histogram min" 1 mh.Obs.min_value;
  checki "histogram max" 1000 mh.Obs.max_value;
  (* log-scale quantiles interpolate linearly within the landing bucket
     (and clamp to the observed min/max), so small samples no longer
     report the bucket's upper bound: the rank-4.95 sample of
     [1;2;3;4;1000] lands 95% into the [512,1023] bucket *)
  checki "p50" 3 mh.Obs.p50;
  checki "p90" 768 mh.Obs.p90;
  checki "p99" 997 mh.Obs.p99;
  checkb "summary mentions both" true
    (let s = Obs.summary_table () in
     let contains sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     contains "test.counter" && contains "test.histogram");
  Obs.reset_metrics ();
  checkb "reset clears" true
    (List.for_all
       (fun (m : Obs.metric) -> m.Obs.metric_name <> "test.counter")
       (Obs.metrics ()))

let test_quantile_uniform () =
  (* a dense uniform sample: interpolation recovers the true quantile
     exactly where the bucket really is uniformly filled *)
  Obs.reset_metrics ();
  Obs.enable_metrics ();
  let h = Obs.histogram "test.uniform" in
  for v = 1 to 1000 do
    Obs.observe h v
  done;
  Obs.disable_metrics ();
  let m =
    List.find
      (fun (m : Obs.metric) -> m.Obs.metric_name = "test.uniform")
      (Obs.metrics ())
  in
  checki "uniform p50" 500 m.Obs.p50;
  (* the top bucket [512,1023] is only filled to 1000, so interpolation
     overshoots within it — but the clamp to the observed max bounds it *)
  checkb "uniform p99 bounded" true (m.Obs.p99 >= 900 && m.Obs.p99 <= 1000);
  Obs.reset_metrics ()

let test_gauges () =
  Obs.reset_metrics ();
  let g = Obs.gauge "test.gauge" in
  (* disabled: setting is a no-op, and an unset gauge stays invisible *)
  Obs.disable_metrics ();
  Obs.set_gauge g 9;
  checkb "unset gauge hidden" true
    (List.for_all
       (fun (m : Obs.metric) -> m.Obs.metric_name <> "test.gauge")
       (Obs.metrics ()));
  Obs.enable_metrics ();
  Obs.set_gauge g 7;
  Obs.set_gauge g 3;
  Obs.disable_metrics ();
  checki "last level wins" 3 (Obs.gauge_value g);
  let m =
    List.find
      (fun (m : Obs.metric) -> m.Obs.metric_name = "test.gauge")
      (Obs.metrics ())
  in
  checkb "kind" true (m.Obs.metric_kind = `Gauge);
  checki "level, not a sum" 3 m.Obs.count;
  Obs.reset_metrics ();
  checkb "reset hides it again" true
    (List.for_all
       (fun (m : Obs.metric) -> m.Obs.metric_name <> "test.gauge")
       (Obs.metrics ()))

let test_windows () =
  Obs.reset_metrics ();
  Obs.enable_metrics ();
  let w = Obs.window "test.window" in
  List.iter (Obs.observe_window w) [ 1; 2; 3; 4; 1000 ];
  let m =
    List.find
      (fun (m : Obs.metric) -> m.Obs.metric_name = "test.window")
      (Obs.metrics ())
  in
  checkb "kind" true (m.Obs.metric_kind = `Window);
  checki "window count" 5 m.Obs.count;
  checki "window sum" 1010 m.Obs.sum;
  checki "window p50" 3 m.Obs.p50;
  checki "window p99" 997 m.Obs.p99;
  (* a 1-second window forgets: after the slot ages out the snapshot is
     empty again *)
  let tiny = Obs.window ~seconds:1 "test.window.tiny" in
  Obs.observe_window tiny 5;
  Unix.sleepf 1.1;
  checkb "tiny window aged out" true
    (List.for_all
       (fun (m : Obs.metric) ->
         m.Obs.metric_name <> "test.window.tiny" || m.Obs.count = 0)
       (Obs.metrics ()));
  Obs.disable_metrics ();
  Obs.reset_metrics ()

(* {1 Flight recorder and trace context} *)

let test_flight_wraparound () =
  Obs.disable ();
  Obs.enable_flight ~capacity:8 ();
  for i = 1 to 20 do
    Obs.instant "f" ~args:[ ("i", Obs.Int i) ]
  done;
  let evs = Obs.flight_events () in
  checki "ring keeps capacity" 8 (List.length evs);
  (* overwrite-oldest: the survivors are the newest 8, oldest first *)
  List.iteri
    (fun idx (e : Obs.event) ->
      checkb "newest kept in order" true
        (e.Obs.args = [ ("i", Obs.Int (13 + idx)) ]))
    evs;
  let s = Obs.flight_trace_string () in
  (match Json.parse s with
  | doc -> (
      match Json.member "traceEvents" doc with
      | Some (Json.Arr (_ :: _)) -> ()
      | _ -> Alcotest.fail "flight dump has no traceEvents")
  | exception Json.Parse_error m ->
      Alcotest.fail ("flight dump is not valid JSON: " ^ m));
  Obs.disable_flight ();
  checki "disabled recorder is empty" 0 (List.length (Obs.flight_events ()))

let test_trace_context () =
  checkb "no initial context" true (Obs.trace_context () = None);
  Obs.enable_flight ();
  Obs.with_trace_context "req-1" (fun () ->
      checkb "context visible inside" true
        (Obs.trace_context () = Some "req-1");
      Obs.instant "a";
      Obs.span "s" (fun () -> ()));
  checkb "context restored" true (Obs.trace_context () = None);
  Obs.with_trace_context "req-2" (fun () -> Obs.instant "b");
  Obs.instant "c";
  let all = Obs.flight_events () in
  let trace_of name =
    (List.find (fun (e : Obs.event) -> e.Obs.name = name) all).Obs.trace
  in
  checkb "a tagged" true (trace_of "a" = Some "req-1");
  checkb "b tagged" true (trace_of "b" = Some "req-2");
  checkb "c untagged" true (trace_of "c" = None);
  (* the filter isolates one request's events, span Begin/End included *)
  let one = Obs.flight_events ~trace:"req-1" () in
  checki "filtered count" 3 (List.length one);
  checkb "filtered names" true
    (List.for_all
       (fun (e : Obs.event) -> e.Obs.name = "a" || e.Obs.name = "s")
       one);
  (* the filtered Chrome export tags every event with the id *)
  (match Json.parse (Obs.flight_trace_string ~trace:"req-1" ()) with
  | doc -> (
      match Json.member "traceEvents" doc with
      | Some (Json.Arr all_evs) ->
          (* skip the process/thread-name metadata events *)
          let evs =
            List.filter
              (fun ev ->
                match Json.member "ph" ev with
                | Some (Json.String "M") -> false
                | _ -> true)
              all_evs
          in
          checki "exported count" 3 (List.length evs);
          List.iter
            (fun ev ->
              match Json.member "args" ev with
              | Some args -> (
                  match Json.member "trace" args with
                  | Some (Json.String "req-1") -> ()
                  | _ -> Alcotest.fail "event missing trace arg")
              | None -> Alcotest.fail "event missing args")
            evs
      | _ -> Alcotest.fail "no traceEvents")
  | exception Json.Parse_error m ->
      Alcotest.fail ("filtered dump is not valid JSON: " ^ m));
  (* exceptions restore the context too *)
  (match Obs.with_trace_context "req-3" (fun () -> failwith "expected") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  checkb "context restored after raise" true (Obs.trace_context () = None);
  Obs.disable_flight ()

(* {1 Concurrent taps} *)

let test_tap_concurrent () =
  (* four domains, each with its own tap, while a fifth domain toggles
     the tracing epoch and the metric registry as fast as it can.  The
     races may cost epoch events (that sink is being cleared under us)
     but each tap must still observe exactly its own domain's stream, in
     order, and nothing may crash *)
  Obs.disable ();
  Obs.disable_metrics ();
  let stop = Atomic.make false in
  let toggler =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Obs.enable ();
          Obs.disable ();
          Obs.enable_metrics ();
          Obs.disable_metrics ()
        done)
  in
  let rounds = 500 in
  let worker id () =
    let seen = ref [] in
    Obs.with_tap
      (fun ph name args -> if ph = Obs.Instant then seen := (name, args) :: !seen)
      (fun () ->
        for i = 1 to rounds do
          Obs.span "tapped.span" (fun () ->
              Obs.instant "tapped"
                ~args:[ ("who", Obs.Int id); ("i", Obs.Int i) ])
        done);
    let l = List.rev !seen in
    List.length l = rounds
    && List.for_all2
         (fun i (name, args) ->
           name = "tapped"
           && args = [ ("who", Obs.Int id); ("i", Obs.Int i) ])
         (List.init rounds (fun i -> i + 1))
         l
  in
  let spawned = List.init 3 (fun k -> Domain.spawn (worker (k + 1))) in
  let mine = worker 0 () in
  let oks = List.map Domain.join spawned in
  Atomic.set stop true;
  Domain.join toggler;
  (* leave the globals however the toggler's last iteration did not *)
  Obs.disable ();
  Obs.disable_metrics ();
  checkb "every tap saw exactly its own stream" true
    (mine && List.for_all Fun.id oks);
  checkb "no tap left installed" true (not (Obs.tapping ()))

(* Every summary is internally consistent whatever was recorded: counts
   are non-negative, and histograms and windows keep min <= max and
   p50 <= p90 <= p99.  Deliberately not p99 <= max: a quantile is a
   bucket estimate. *)
let prop_summaries_ordered =
  let sample =
    QCheck.Gen.(oneof [ int_range (-8) 8; int_bound 10_000; int_bound (1 lsl 40) ])
  in
  QCheck.Test.make ~count:300 ~name:"summaries ordered over random samples"
    (QCheck.make ~print:QCheck.Print.(list int) QCheck.Gen.(list sample))
    (fun samples ->
      Obs.reset_metrics ();
      Obs.enable_metrics ();
      let c = Obs.counter "test.prop.counter" in
      let h = Obs.histogram "test.prop.histogram" in
      let w = Obs.window "test.prop.window" in
      List.iter
        (fun v ->
          Obs.incr c;
          Obs.observe h v;
          Obs.observe_window w v)
        samples;
      Obs.disable_metrics ();
      let ok (m : Obs.metric) =
        m.Obs.count >= 0
        &&
        match m.Obs.metric_kind with
        | `Counter | `Gauge -> true
        | `Histogram | `Window ->
            m.Obs.min_value <= m.Obs.max_value
            && m.Obs.p50 <= m.Obs.p90
            && m.Obs.p90 <= m.Obs.p99
      in
      let ms = Obs.metrics () in
      Obs.reset_metrics ();
      List.for_all ok ms)

let test_metrics_parallel () =
  Obs.reset_metrics ();
  Obs.enable_metrics ();
  let c = Obs.counter "test.par.counter" in
  let h = Obs.histogram "test.par.histogram" in
  let worker () =
    for i = 1 to 1000 do
      Obs.incr c;
      Obs.observe h i
    done
  in
  let spawned = List.init 3 (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join spawned;
  Obs.disable_metrics ();
  let find name =
    List.find (fun (m : Obs.metric) -> m.Obs.metric_name = name) (Obs.metrics ())
  in
  checki "atomic counter" 4000 (find "test.par.counter").Obs.count;
  checki "atomic histogram count" 4000 (find "test.par.histogram").Obs.count;
  checki "atomic histogram sum" (4 * 500500) (find "test.par.histogram").Obs.sum;
  Obs.reset_metrics ()

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "escape" `Quick test_json_escape;
          Alcotest.test_case "num" `Quick test_json_num;
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "errors" `Quick test_json_errors;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "null sink" `Quick test_null_sink;
          Alcotest.test_case "disabled span overhead" `Quick
            test_null_sink_overhead;
          Alcotest.test_case "span nesting" `Quick test_span_nesting;
          Alcotest.test_case "multi-domain merge" `Quick test_merge_multi_domain;
          Alcotest.test_case "deterministic merge" `Quick
            test_merge_deterministic;
          Alcotest.test_case "drop newest" `Quick test_drop_newest;
          Alcotest.test_case "chrome trace" `Quick test_chrome_trace;
          Alcotest.test_case "concurrent taps" `Quick test_tap_concurrent;
        ] );
      ( "flight",
        [
          Alcotest.test_case "wraparound ring" `Quick test_flight_wraparound;
          Alcotest.test_case "trace context" `Quick test_trace_context;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters and histograms" `Quick test_metrics;
          Alcotest.test_case "quantile interpolation" `Quick
            test_quantile_uniform;
          Alcotest.test_case "gauges" `Quick test_gauges;
          Alcotest.test_case "windows" `Quick test_windows;
          Alcotest.test_case "parallel recording" `Quick test_metrics_parallel;
          QCheck_alcotest.to_alcotest prop_summaries_ordered;
        ] );
    ]
