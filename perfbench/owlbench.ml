(* owlbench: the repository's benchmark.  One run measures one workload:

     owlbench --workload NAME --seed N --seconds S --trace 0|1

   An untraced run (--trace 0) reports the end-to-end metrics; a traced
   run (--trace 1) reports the per-layer ledger.  Human-readable lines come
   first; the last line of standard output is one JSON object with the
   keys correct, attempted, failed and metrics.  README.md describes the
   workloads and every metric. *)

let state_dir = ".owlbench"
let setup_reps = 41

(* per-domain event ring of the traced pass: over ten times the most any
   workload records (about 90k events, serve-mixed), so nothing drops;
   trace.dropped reports it *)
let trace_capacity = 1 lsl 20

type value = Value of float | Na of string

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  values : (string * value) list;
}

open Clock

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

let gc_snapshot () =
  let s = Gc.quick_stat () in
  [ ("gc.minor_words", s.Gc.minor_words);
    ("gc.major_words", s.Gc.major_words);
    ("gc.major_collections", float_of_int s.Gc.major_collections);
    ("gc.compactions", float_of_int s.Gc.compactions) ]

let gc_delta before after =
  List.map2 (fun (n, a) (_, b) -> (n, Value (b -. a))) before after

(* Set-up is timed [setup_reps] times before the body and reported as
   the median; the last repetition builds what the body uses.  Each one
   starts after a 10 ms pause: back to back, a sub-millisecond build's time
   depends on what the previous one left in the caches, and the medians of
   separate processes spread about four times wider. *)
let timed_setup ~discard setup =
  let once () =
    Unix.sleepf 0.01;
    time setup
  in
  let samples =
    List.init (setup_reps - 1) (fun _ ->
        let r, dt = once () in
        discard r;
        dt)
  in
  let kept, dt = once () in
  (Measure.median (dt :: samples), kept)

(* {1 Output} *)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let report catalogue r =
  let value (m : Ledger.metric) =
    match List.assoc_opt m.Ledger.name r.values with
    | Some (Value v) when Float.is_finite v -> Ok v
    | Some (Value _) -> Error "not finite"
    | Some (Na why) -> Error why
    | None -> Error "not measured on this workload"
  in
  print_endline "metrics:";
  List.iter
    (fun (m : Ledger.metric) ->
      let note =
        if m.Ledger.layer = "" then ""
        else Printf.sprintf "  [%s -> %s]" m.Ledger.layer m.Ledger.moves
      in
      match value m with
      | Ok v -> Printf.printf "  %-34s %20s %-6s%s\n" m.Ledger.name (number v) m.Ledger.unit_ note
      | Error why ->
          Printf.printf "  %-34s %20s %-6s  n/a: %s\n" m.Ledger.name "0" m.Ledger.unit_ why)
    catalogue;
  Printf.printf "error_rate %s (%d failed / %d attempted)\n"
    (number (float_of_int r.failed /. float_of_int (max 1 r.attempted)))
    r.failed r.attempted;
  let metric (m : Ledger.metric) =
    ( m.Ledger.name,
      Json.obj
        [ ("value", number (Result.value (value m) ~default:0.0));
          ("unit", Json.str m.Ledger.unit_) ] )
  in
  print_endline
    (Json.obj
       [ ("correct", Json.bool r.correct);
         ("attempted", Json.int r.attempted);
         ("failed", Json.int r.failed);
         ("metrics", Json.obj (List.map metric catalogue)) ])

(* {1 Traced figures shared by every workload} *)

let find_metric metrics name =
  List.find_opt (fun (m : Obs.metric) -> m.Obs.metric_name = name) metrics

let counter metrics name =
  match find_metric metrics name with
  | Some m -> Value (float_of_int m.Obs.count)
  | None -> Value 0.0

let quantile metrics name ~p =
  match find_metric metrics name with
  | None -> Na "no samples"
  | Some m when not (Measure.reportable ~p m.Obs.count) ->
      Na (Printf.sprintf "%d samples: fewer than ten beyond p%.0f" m.Obs.count (p *. 100.))
  | Some m -> Value (float_of_int (if p = 0.5 then m.Obs.p50 else m.Obs.p99))

let span_values ~events ~metrics ~dropped ~wall =
  let st = Measure.self_times events in
  let spans what = function
    | Some v -> Value v
    | None -> Na ("no " ^ String.concat "/" what ^ " span on this workload")
  in
  let self names = spans names (Measure.self_of st names) in
  let inclusive names = spans names (Measure.inclusive_of st names) in
  let c = counter metrics and q = quantile metrics in
  [ ("sat.solve_s", self [ "sat.solve" ]);
    ("sat.inprocess_s", self [ "sat.inprocess" ]);
    ("sat.reduce_db_s", self [ "sat.reduce_db" ]);
    ("sat.conflicts", c "sat.conflicts");
    ("sat.propagations", c "sat.propagations");
    ("sat.decisions", c "sat.decisions");
    ("sat.eliminated_vars", c "sat.eliminated_vars");
    (* the encoding work of a CEGIS round that no inner span covers:
       substitution, ground_reads, Ackermann and session blasting *)
    ("cegis.encode_s", self [ "cegis.synth"; "cegis.verify"; "verify.instr" ]);
    ("cegis.iteration_self_s", self [ "cegis.iteration" ]);
    ("solver.checks", c "solver.checks");
    ("solver.check.latency_us.p50", q "solver.check.latency_us" ~p:0.5);
    ("solver.check.latency_us.p99", q "solver.check.latency_us" ~p:0.99);
    ("solver.ack_instances", c "solver.ack_instances");
    ("blast.clauses_per_assert.p50", q "blast.clauses_per_assert" ~p:0.5);
    ("blast.clauses_per_assert.p99", q "blast.clauses_per_assert" ~p:0.99);
    (* the cube layer's whole time: splitting, re-blasting and solving *)
    ("portfolio.cube_s", inclusive [ "portfolio.cube" ]);
    ("portfolio.cubes", c "portfolio.cubes");
    ("pool.service.tasks", c "pool.service.tasks");
    ("pool.task.latency_us.p50", q "pool.task.latency_us" ~p:0.5);
    ("pool.task.latency_us.p99", q "pool.task.latency_us" ~p:0.99);
    ("cache.lookup_s", self [ "cache.lookup" ]);
    ("serve.job.latency_us.p50", q "serve.job.latency_us" ~p:0.5);
    ("serve.job.latency_us.p99", q "serve.job.latency_us" ~p:0.99);
    ("serve.requests", c "serve.requests");
    ("serve.rejected", c "serve.rejected");
    ("trace.dropped", Value (float_of_int dropped));
    ("unattributed_s", Value (Measure.unattributed st ~wall)) ]

(* Runs [f] with tracing and metrics on, returning its result with the
   recorded events and metrics; tracing is off again afterwards. *)
let traced f =
  Obs.reset_metrics ();
  Obs.enable ~capacity:trace_capacity ();
  Obs.enable_metrics ();
  let r = f () in
  let events = Obs.events () and metrics = Obs.metrics () and dropped = Obs.dropped () in
  Obs.disable ();
  Obs.disable_metrics ();
  (r, events, metrics, dropped)

(* {1 Exact-repeat check}

   At [-j 1] the engine is deterministic: iterations, queries, conflicts,
   blasted clauses and bindings repeat exactly on every pass and every run
   while wall time varies.  The first run of a build stores its signature
   under a digest of the executable; every later pass of the same build is
   compared with it, and any difference is flagged as nondeterminism, not
   noise.  A rebuilt program, whose counts may rightly differ, starts a
   reference of its own. *)

let read_file path =
  if Sys.file_exists path then
    Some (In_channel.with_open_bin path In_channel.input_all)
  else None

let build_id = lazy (Digest.to_hex (Digest.file Sys.executable_name))

let repeat_check ~workload signatures =
  let path =
    Filename.concat state_dir
      (Printf.sprintf "repeat-%s-%s" workload (Lazy.force build_id))
  in
  let reference =
    match read_file path with
    | Some s -> s
    | None ->
        let s = List.hd signatures in
        Out_channel.with_open_bin path (fun oc -> output_string oc s);
        s
  in
  let differing = List.filter (fun s -> s <> reference) signatures in
  List.iter
    (fun s ->
      Printf.printf "repeat-check: MISMATCH (nondeterminism)\n  expected %s\n  got      %s\n"
        reference s)
    differing;
  if differing = [] then
    Printf.printf "repeat-check: ok over %d pass(es): %s\n" (List.length signatures)
      reference;
  List.length differing

(* {1 Batch workloads} *)

type timed = {
  wall : float;
  cpu : float;
  gc : (string * value) list;
  pass : Batch.pass;
}

let timed_pass (env : Batch.env) =
  let g0 = gc_snapshot () in
  let c0 = cpu_now () in
  let t0 = now () in
  let pass = env.Batch.run_pass () in
  let wall = now () -. t0 in
  let cpu = cpu_now () -. c0 in
  { wall; cpu; gc = gc_delta g0 (gc_snapshot ()); pass }

let kind_name = function
  | `Synthesize -> "synthesize"
  | `Verify -> "verify"
  | `Cubes -> "cubes"

let print_pass i t =
  Printf.printf "pass %d: wall %.3f s, cpu %.3f s\n" i t.wall t.cpu;
  List.iter
    (fun (op : Batch.op) ->
      Printf.printf "  %-10s %-16s %9.3f s  %s%s\n" (kind_name op.Batch.kind)
        op.Batch.label op.Batch.seconds
        (if op.Batch.ok then "" else "FAILED: ")
        op.Batch.note)
    t.pass.Batch.ops

let signature t = String.concat "; " (List.map (fun op -> op.Batch.signature) t.pass.Batch.ops)

let run_checks t =
  let results = t.pass.Batch.checks () in
  List.iter
    (fun (label, r) ->
      match r with
      | Ok msg -> Printf.printf "check %-16s ok: %s\n" label msg
      | Error msg -> Printf.printf "check %-16s FAILED: %s\n" label msg)
    results;
  List.length (List.filter (fun (_, r) -> Result.is_error r) results)

let failed_ops passes =
  List.fold_left
    (fun n t -> n + List.length (List.filter (fun op -> not op.Batch.ok) t.pass.Batch.ops))
    0 passes

let count_ops passes = List.fold_left (fun n t -> n + List.length t.pass.Batch.ops) 0 passes

let ops_of kind t =
  List.filter (fun op -> op.Batch.kind = kind) t.pass.Batch.ops

let run_batch ~workload ~seconds ~trace make_env =
  let setup_s, env = timed_setup ~discard:ignore make_env in
  Printf.printf "setup: median %.6f s over %d builds\n" setup_s setup_reps;
  if not trace then begin
    let count = max 1 (int_of_float (Float.round (seconds /. env.Batch.pass_seconds))) in
    let passes =
      List.init count (fun i ->
          let t = timed_pass env in
          print_pass (i + 1) t;
          t)
    in
    let peak = peak_heap_mb () in
    let last = List.nth passes (List.length passes - 1) in
    let check_failures = run_checks last in
    ignore (repeat_check ~workload (List.map signature passes));
    (* the whole body is the one request a batch user makes ("synthesize
       these designs"), so latency is pass wall and throughput is passes
       per second.  Per engine call they would spread almost twice as
       wide across runs: which design is the median call changes from run
       to run. *)
    let walls = List.map (fun t -> t.wall) passes in
    let latencies_ms = List.map (fun w -> w *. 1e3) walls in
    Printf.printf "latency samples: %d pass(es); below twenty samples p50 and p99 \
                   are nearest ranks\n"
      (List.length passes);
    let failed = failed_ops passes + check_failures in
    { correct = failed = 0;
      attempted = count_ops passes;
      failed;
      values =
        [ ("wall_s", Value (Measure.median walls));
          ("cpu_s", Value (Measure.median (List.map (fun t -> t.cpu) passes)));
          ("setup_s", Value setup_s);
          ("peak_heap_mb", Value peak);
          ("latency_p50_ms", Value (Measure.latency ~p:0.5 latencies_ms));
          ("latency_p99_ms", Value (Measure.latency ~p:0.99 latencies_ms));
          ( "throughput_rps",
            Value
              (float_of_int (List.length walls) /. List.fold_left ( +. ) 0.0 walls) ) ] }
  end
  else begin
    (* The first pass in a process also interns the terms every later pass
       finds in the hash-cons table, so it is slower: it gives the per-design
       walls (as a user's cold run sees them), and the overhead of tracing
       compares the traced pass with a second, equally warm, untraced one.
       The traced pass comes last so its rings and events do not weigh on
       an untraced pass's GC. *)
    let u = timed_pass env in
    print_pass 1 u;
    let w = timed_pass env in
    print_pass 2 w;
    let t, events, metrics, dropped = traced (fun () -> timed_pass env) in
    print_string "traced ";
    print_pass 3 t;
    Printf.printf "trace: %d events, %d dropped\n" (List.length events) dropped;
    let check_failures = run_checks t in
    let mismatches = repeat_check ~workload (List.map signature [ u; t; w ]) in
    let sum_count name =
      List.fold_left
        (fun s op -> s + Option.value (List.assoc_opt name op.Batch.counts) ~default:0)
        0 u.pass.Batch.ops
    in
    let per_design prefix kind =
      List.map
        (fun op -> (prefix ^ op.Batch.label ^ "_s", Value op.Batch.seconds))
        (ops_of kind u)
    in
    let speedup =
      match env.Batch.speedup_j2 with
      | None -> []
      | Some f ->
          List.map
            (fun (label, j2) ->
              let j1 =
                (List.find (fun op -> op.Batch.label = label) (ops_of `Synthesize w))
                  .Batch.seconds
              in
              Printf.printf "speedup -j 2: %-16s %.3f s / %.3f s\n" label j1 j2;
              ("pool.speedup_j2." ^ label, Value (j1 /. j2)))
            (f ())
    in
    let cube_ratio =
      let s = Synth.Portfolio.read_tally Batch.cube_tally in
      if s.Synth.Portfolio.cubes = 0 then []
      else
        [ ( "portfolio.cubes_unsat_ratio",
            Value
              (float_of_int s.Synth.Portfolio.cubes_unsat
              /. float_of_int s.Synth.Portfolio.cubes) ) ]
    in
    let layers =
      List.map (fun (n, v) -> (n, Value v)) (Layers.measure t.pass.Batch.layer_inputs)
    in
    let failed = failed_ops [ u; t; w ] + check_failures in
    { correct = failed = 0;
      attempted = count_ops [ u; t; w ];
      failed;
      values =
        span_values ~events ~metrics ~dropped ~wall:t.wall
        @ layers @ u.gc @ speedup @ cube_ratio
        @ per_design "engine.synthesize." `Synthesize
        @ per_design "engine.verify." `Verify
        @ List.map
            (fun n ->
              ( n,
                if ops_of `Synthesize u = [] then Na "Engine.verify reports no engine stats"
                else Value (float_of_int (sum_count n)) ))
            [ "engine.iterations"; "engine.queries"; "engine.trivial_unsats";
              "engine.blasted_clauses" ]
        @ [ ("pool.efficiency",
             Value (Measure.pool_efficiency ~cpu:u.cpu ~workers:1 ~wall:u.wall));
            ("trace.overhead_ratio", Value (t.wall /. w.wall));
            ("repeat.mismatches", Value (float_of_int mismatches)) ] }
  end

(* {1 serve-mixed} *)

let print_stream label (s : Serve_mixed.stream) =
  let n = List.length s.Serve_mixed.records in
  let share c =
    List.length (List.filter (fun r -> r.Serve_mixed.cls = c) s.Serve_mixed.records)
  in
  Printf.printf
    "%s stream: %d requests in %.3f s (hot %d, disk %d, cold %d), cpu %.3f s\n"
    label n s.Serve_mixed.wall (share Serve_mixed.Hot) (share Serve_mixed.Disk)
    (share Serve_mixed.Cold) s.Serve_mixed.cpu;
  let groups = Hashtbl.create 16 in
  List.iter
    (fun (r : Serve_mixed.record) ->
      let k = r.Serve_mixed.key in
      let cls =
        match r.Serve_mixed.cls with
        | Serve_mixed.Hot -> "hot"
        | Serve_mixed.Disk -> "disk"
        | Serve_mixed.Cold -> "cold"
      in
      let g =
        Printf.sprintf "%s %s %s"
          (match k.Serve_mixed.kind with Serve_mixed.Synth -> "synth" | Serve_mixed.Verify -> "verify")
          k.Serve_mixed.design cls
      in
      Hashtbl.replace groups g
        ((r.Serve_mixed.latency *. 1e3) :: Option.value (Hashtbl.find_opt groups g) ~default:[]))
    s.Serve_mixed.records;
  List.iter
    (fun (g, l) ->
      Printf.printf "  %-18s %6d requests, median %8.3f ms\n" g (List.length l)
        (Measure.median l))
    (List.sort compare (Hashtbl.fold (fun g l acc -> (g, l) :: acc) groups []));
  List.iter (Printf.printf "  client lost: %s\n") s.Serve_mixed.lost

let stream_failures problems (s : Serve_mixed.stream) =
  let bad = Serve_mixed.check problems s.Serve_mixed.records in
  List.iteri
    (fun i ((r : Serve_mixed.record), why) ->
      if i < 5 then
        Printf.printf "check FAILED: %s %s v%d: %s\n"
          (match r.Serve_mixed.key.Serve_mixed.kind with
          | Serve_mixed.Synth -> "synth"
          | Serve_mixed.Verify -> "verify")
          r.Serve_mixed.key.Serve_mixed.design r.Serve_mixed.key.Serve_mixed.variant why)
    bad;
  if bad = [] then
    Printf.printf "check serve ok: every reply solved or verified; synth bindings \
                   match direct solves\n";
  List.length bad + List.length s.Serve_mixed.lost

let latencies_ms ?cls (s : Serve_mixed.stream) =
  List.filter_map
    (fun r ->
      match cls with
      | Some c when r.Serve_mixed.cls <> c -> None
      | _ -> Some (r.Serve_mixed.latency *. 1e3))
    s.Serve_mixed.records

let run_serve ~seed ~seconds ~trace =
  let dir i = Filename.concat state_dir (Printf.sprintf "serve-%d" i) in
  let boots = ref 0 in
  (* set-up: build the problems, open a fresh cache directory, and boot
     the daemon up to ready *)
  let setup_s, (problems, daemon) =
    timed_setup
      ~discard:(fun (_, d) -> ignore (Serve_mixed.shutdown d))
      (fun () ->
        let problems = Serve_mixed.build_problems () in
        incr boots;
        (problems, Serve_mixed.boot ~dir:(dir !boots) problems))
  in
  let fresh () =
    incr boots;
    Serve_mixed.boot ~dir:(dir !boots) problems
  in
  Printf.printf "setup: median %.6f s over %d daemon boots\n" setup_s setup_reps;
  let pct ~p xs = Value (Measure.latency ~p xs) in
  if not trace then begin
    let s = Serve_mixed.stream ~seed ~seconds daemon in
    let peak = peak_heap_mb () in
    print_stream "timed" s;
    let failed = stream_failures problems s in
    let all = latencies_ms s in
    let n = List.length all in
    (* one-second windows: throughput and p50 are medians over them; p99
       needs the whole stream's samples *)
    let windows =
      Measure.windows ~start:s.Serve_mixed.started ~width:1.0
        ~count:(max 1 (int_of_float seconds))
        (List.map
           (fun r -> (r.Serve_mixed.finished, r.Serve_mixed.latency *. 1e3))
           s.Serve_mixed.records)
    in
    Printf.printf "latency samples: %d, in %d one-second windows\n" n
      (List.length windows);
    { correct = failed = 0;
      attempted = max 1 n;
      failed;
      values =
        [ ("wall_s", Value s.Serve_mixed.wall);
          ("cpu_s", Value s.Serve_mixed.cpu);
          ("setup_s", Value setup_s);
          ("peak_heap_mb", Value peak);
          ( "latency_p50_ms",
            Value
              (Measure.median
                 (List.filter_map
                    (function [] -> None | w -> Some (Measure.latency ~p:0.5 w))
                    windows)) );
          ("latency_p99_ms", pct ~p:0.99 all);
          ( "throughput_rps",
            Value
              (Measure.median
                 (List.map (fun w -> float_of_int (List.length w)) windows)) ) ] }
  end
  else begin
    (* three streams of the same request sequence, a third of the seconds
       each, on fresh daemons: a first untraced one that interns the terms
       the later two then find in the hash-cons table, as a first pass
       does; a second untraced one for client-observed figures, shares and
       GC; and a traced one for spans, registry metrics and the tracing
       overhead.  Tracing comes last so its rings and events do not weigh
       on an untraced stream's GC. *)
    let third = seconds /. 3.0 in
    let first = Serve_mixed.stream ~seed ~seconds:third daemon in
    print_stream "first untraced" first;
    let d = fresh () in
    let g0 = gc_snapshot () in
    let u = Serve_mixed.stream ~seed ~seconds:third d in
    let gc = gc_delta g0 (gc_snapshot ()) in
    print_stream "second untraced" u;
    let t, events, metrics, dropped =
      let d = fresh () in
      traced (fun () -> Serve_mixed.stream ~seed ~seconds:third d)
    in
    print_stream "traced" t;
    Printf.printf "trace: %d events, %d dropped\n" (List.length events) dropped;
    let failed =
      stream_failures problems first + stream_failures problems t + stream_failures problems u
    in
    let per_request (s : Serve_mixed.stream) =
      s.Serve_mixed.wall /. float_of_int (max 1 (List.length s.Serve_mixed.records))
    in
    let n = List.length u.Serve_mixed.records in
    let share c =
      Value
        (float_of_int (List.length (latencies_ms ~cls:c u)) /. float_of_int (max 1 n))
    in
    let quantile_of ~p xs =
      match Measure.percentile ~p xs with
      | Some v -> Value v
      | None ->
          Na (Printf.sprintf "%d samples: fewer than ten beyond p%.0f" (List.length xs)
                (p *. 100.))
    in
    let hot = latencies_ms ~cls:Serve_mixed.Hot u in
    let cold = latencies_ms ~cls:Serve_mixed.Cold u in
    let tier =
      match u.Serve_mixed.stats.Owl_serve.Proto.hot_tier with
      | Some h ->
          [ ( "cache.hot.hit_ratio",
              Value
                (float_of_int h.Owl_serve.Proto.hot_hits
                /. float_of_int
                     (max 1 (h.Owl_serve.Proto.hot_hits + h.Owl_serve.Proto.hot_misses)))
            );
            ("cache.hot.evictions", Value (float_of_int h.Owl_serve.Proto.hot_evictions)) ]
      | None -> []
    in
    let disk = u.Serve_mixed.disk in
    let layers =
      List.map
        (fun (name, sketch) ->
          { Layers.problem = sketch;
            completed = (List.assoc name problems.Serve_mixed.verify).Synth.Engine.design })
        problems.Serve_mixed.synth
      |> Layers.measure
      |> List.map (fun (n, v) -> (n, Value v))
    in
    { correct = failed = 0;
      attempted =
        max 1
          (List.length first.Serve_mixed.records + List.length t.Serve_mixed.records + n);
      failed;
      values =
        span_values ~events ~metrics ~dropped ~wall:t.Serve_mixed.wall
        @ layers @ gc @ tier
        @ [ ("serve.hot_latency_ms.p50", quantile_of ~p:0.5 hot);
            ("serve.hot_latency_ms.p99", quantile_of ~p:0.99 hot);
            ("serve.cold_latency_ms.p50", quantile_of ~p:0.5 cold);
            ("serve.share.hot", share Serve_mixed.Hot);
            ("serve.share.disk", share Serve_mixed.Disk);
            ("serve.share.cold", share Serve_mixed.Cold);
            ("cache.disk.hit", Value (float_of_int disk.Owl_cache.hits));
            ("cache.disk.miss", Value (float_of_int disk.Owl_cache.misses));
            ("cache.disk.write", Value (float_of_int disk.Owl_cache.writes));
            ("cache.disk.stale", Value (float_of_int disk.Owl_cache.stale));
            ( "pool.efficiency",
              Value
                (Measure.pool_efficiency ~cpu:u.Serve_mixed.cpu
                   ~workers:Serve_mixed.workers ~wall:u.Serve_mixed.wall) );
            ("trace.overhead_ratio", Value (per_request t /. per_request u));
            ("repeat.mismatches", Na "the serve stream is timing-dependent") ] }
  end

(* {1 Entry point} *)

let workloads =
  [ ("synth-table1", fun ~seed -> run_batch ~workload:"synth-table1" (Batch.synth_table1 ~seed));
    ("synth-rv32im", fun ~seed -> run_batch ~workload:"synth-rv32im" (Batch.synth_rv32im ~seed));
    ("verify-refs", fun ~seed -> run_batch ~workload:"verify-refs" (Batch.verify_refs ~seed));
    ("serve-mixed", fun ~seed -> run_serve ~seed) ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20 and trace = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload,
       "NAME " ^ String.concat "|" (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N input seed (programs, messages, request stream)");
      ("--seconds", Arg.Set_int seconds, "S how long the run measures");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics (0) or the per-layer ledger (1)") ]
  in
  let usage = "owlbench --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let run =
    match List.assoc_opt !workload workloads with
    | Some run when !seconds >= 1 && (!trace = 0 || !trace = 1) -> run
    | _ ->
        prerr_endline (Arg.usage_string spec usage);
        exit 2
  in
  if not (Sys.file_exists state_dir) then Sys.mkdir state_dir 0o755;
  Printf.printf "owlbench workload=%s seed=%d seconds=%d trace=%d\n%!" !workload !seed
    !seconds !trace;
  let trace = !trace = 1 in
  let r = run ~seed:!seed ~seconds:(float_of_int !seconds) ~trace in
  report (if trace then Ledger.per_layer else Ledger.end_to_end) r
