(* Self-test of the benchmark's own metric code: span self time, the
   percentile rule, pool efficiency, and the metric catalogue against
   BENCHMARK.json.  Runs from the repository root (dune runtest). *)

let ev ?(dom = 0) ph name ts =
  { Obs.ph; name; ts; dom; seq = 0; args = []; trace = None }

let close = Alcotest.float 1e-9

(* Two domains, interleaved in one merged stream.  Domain 0: outer 0..10
   holding a 2..5 and b 6..7 (with an instant inside); domain 1: a 1..4
   holding c 2..3. *)
let nested_events =
  Obs.
    [ ev Begin "outer" 0.0;
      ev ~dom:1 Begin "a" 1.0;
      ev Begin "a" 2.0;
      ev ~dom:1 Begin "c" 2.0;
      ev ~dom:1 End "c" 3.0;
      ev Instant "tick" 3.5;
      ev ~dom:1 End "a" 4.0;
      ev End "a" 5.0;
      ev Begin "b" 6.0;
      ev End "b" 7.0;
      ev End "outer" 10.0 ]

let test_self_time () =
  let st = Measure.self_times nested_events in
  let self n = List.assoc n st.Measure.self in
  Alcotest.check close "outer minus its children" 6.0 (self "outer");
  Alcotest.check close "a summed over domains, minus c" 5.0 (self "a");
  Alcotest.check close "leaf b" 1.0 (self "b");
  Alcotest.check close "leaf c" 1.0 (self "c");
  Alcotest.(check bool) "instants carry no time" false (List.mem_assoc "tick" st.Measure.self);
  Alcotest.(check (list (pair int close))) "root coverage per domain"
    [ (0, 10.0); (1, 3.0) ] st.Measure.covered;
  Alcotest.(check (option close)) "self_of sums names" (Some 7.0)
    (Measure.self_of st [ "outer"; "c" ]);
  Alcotest.(check (option close)) "absent names" None (Measure.self_of st [ "zzz" ]);
  Alcotest.(check (option close)) "inclusive time" (Some 6.0)
    (Measure.inclusive_of st [ "a" ]);
  Alcotest.check close "self times add up to coverage" 13.0
    (List.fold_left (fun s (_, v) -> s +. v) 0.0 st.Measure.self);
  Alcotest.check close "unattributed over both domains" (2.0 +. 9.0)
    (Measure.unattributed st ~wall:12.0)

let test_self_time_unclosed () =
  (* a span still open when the trace is read contributes nothing *)
  let st =
    Measure.self_times
      Obs.[ ev Begin "open" 0.0; ev Begin "x" 1.0; ev Begin "x" 1.5; ev End "x" 1.8; ev End "x" 2.0 ]
  in
  Alcotest.(check (option close)) "recursion counted once" (Some 1.0)
    (Measure.inclusive_of st [ "x" ]);
  Alcotest.check close "closed child counted" 1.0 (List.assoc "x" st.Measure.self);
  Alcotest.(check bool) "open span absent" false (List.mem_assoc "open" st.Measure.self)

let test_percentile_rule () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  Alcotest.(check bool) "p50 needs 20 samples" false (Measure.reportable ~p:0.5 19);
  Alcotest.(check bool) "p50 at 20 samples" true (Measure.reportable ~p:0.5 20);
  Alcotest.(check bool) "p99 needs 1000 samples" false (Measure.reportable ~p:0.99 999);
  Alcotest.(check bool) "p99 at 1000 samples" true (Measure.reportable ~p:0.99 1000);
  Alcotest.(check (option close)) "p99 of 1..1000" (Some 990.0)
    (Measure.percentile ~p:0.99 (xs 1000));
  Alcotest.(check (option close)) "p50 of 1..20" (Some 10.0)
    (Measure.percentile ~p:0.5 (List.rev (xs 20)));
  Alcotest.(check (option close)) "withheld below the rule" None
    (Measure.percentile ~p:0.99 (xs 999));
  Alcotest.check close "latency falls back to nearest rank" 7.0
    (Measure.latency ~p:0.99 (xs 7));
  Alcotest.check close "median of an even count" 2.5 (Measure.median [ 4.0; 1.0; 3.0; 2.0 ])

let test_windows () =
  let ws =
    Measure.windows ~start:10.0 ~width:1.0 ~count:3
      [ (10.2, 1.0); (9.9, 9.0); (11.0, 2.0); (11.7, 3.0); (13.0, 9.0); (12.5, 4.0) ]
  in
  Alcotest.(check (list (list close))) "per-window samples, outside dropped"
    [ [ 1.0 ]; [ 3.0; 2.0 ]; [ 4.0 ] ] ws

let test_pool_efficiency () =
  Alcotest.check close "cpu over workers x wall" 0.75
    (Measure.pool_efficiency ~cpu:3.0 ~workers:2 ~wall:2.0);
  Alcotest.check close "one busy worker" 1.0
    (Measure.pool_efficiency ~cpu:5.0 ~workers:1 ~wall:5.0)

(* BENCHMARK.json must list exactly the catalogue the runs emit. *)
let test_catalogue () =
  let doc = Json.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all) in
  let entries key =
    match Json.member key doc with
    | Some (Json.Arr l) ->
        List.map
          (fun e ->
            let s k =
              match Json.member k e with Some (Json.String s) -> s | _ -> "?"
            in
            (s "name", s "unit", s "better"))
          l
    | _ -> Alcotest.failf "BENCHMARK.json has no %s list" key
  in
  let ours l =
    List.map
      (fun (m : Ledger.metric) ->
        (m.Ledger.name, m.Ledger.unit_, Ledger.better_name m.Ledger.better))
      l
  in
  let triple = Alcotest.(list (triple string string string)) in
  Alcotest.check triple "end_to_end" (ours Ledger.end_to_end) (entries "end_to_end");
  Alcotest.check triple "per_layer" (ours Ledger.per_layer) (entries "per_layer")

let () =
  Alcotest.run "perfbench"
    [ ( "perfbench metrics",
        [ Alcotest.test_case "span self time across domains" `Quick test_self_time;
          Alcotest.test_case "unclosed spans" `Quick test_self_time_unclosed;
          Alcotest.test_case "percentile rule" `Quick test_percentile_rule;
          Alcotest.test_case "windows" `Quick test_windows;
          Alcotest.test_case "pool efficiency" `Quick test_pool_efficiency;
          Alcotest.test_case "catalogue matches BENCHMARK.json" `Quick test_catalogue ] ) ]
