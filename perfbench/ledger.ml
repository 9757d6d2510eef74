(* The benchmark's metric catalogue.  BENCHMARK.json lists exactly these
   names, units and directions (the self-test checks that), and every run
   emits every metric of its mode: end-to-end metrics untraced, per-layer
   metrics traced.  [moves] records the end-to-end metric and workload a
   per-layer metric is expected to move, which BENCHMARK.json has no field
   for. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  layer : string;  (* the module measured; "" for end-to-end metrics *)
  moves : string;
}

let e2e name unit_ better = { name; unit_; better; layer = ""; moves = "" }

let end_to_end =
  [ e2e "wall_s" "s" Lower;
    e2e "cpu_s" "s" Lower;
    e2e "setup_s" "s" Lower;
    e2e "peak_heap_mb" "MB" Lower;
    e2e "latency_p50_ms" "ms" Lower;
    e2e "latency_p99_ms" "ms" Lower;
    e2e "throughput_rps" "req/s" Higher ]

let l layer moves name unit_ better = { name; unit_; better; layer; moves }

let table1_designs =
  [ "aes"; "rv32i"; "rv32i_zbkb"; "rv32i_zbkc"; "two_stage_rv32i"; "crypto" ]

let verify_designs = [ "aes"; "rv32i"; "rv32i_zbkb"; "rv32i_zbkc"; "rv32im" ]

let per_layer =
  let sym = l "Oyster.Symbolic" "wall_s on synth-table1" in
  let cond = l "Ila.Conditions" "wall_s on synth-table1" in
  let term = l "Term" "wall_s on verify-refs" in
  let ack = l "Solver (Ackermann)" "wall_s on verify-refs" in
  let blast = l "Blast" "wall_s and peak_heap_mb on synth-rv32im" in
  let cegis = l "Synth.Engine" "wall_s on synth-rv32im and verify-refs" in
  let sat = l "Sat" "wall_s and cpu_s on synth-table1 and verify-refs" in
  let solver = l "Solver" "wall_s on verify-refs" in
  let cube = l "Synth.Portfolio" "wall_s on verify-refs" in
  let pool = l "Synth.Pool" "throughput_rps on serve-mixed" in
  let cache = l "Owl_cache" "latency_p50_ms and throughput_rps on serve-mixed" in
  let serve = l "Owl_serve" "latency_p99_ms on serve-mixed" in
  let gc = l "OCaml runtime" "peak_heap_mb and wall_s on synth-rv32im" in
  let trace = l "Owl_obs" "none: checks the traced run itself" in
  [ sym "symbolic.eval_s" "s" Lower;
    cond "conditions.compile_s" "s" Lower;
    term "term.violation_s" "s" Lower;
    term "term.violation_nodes" "count" Lower;
    ack "solver.ackermannize_s" "s" Lower;
    ack "solver.ack_instances" "count" Lower;
    blast "blast.assert_s" "s" Lower;
    blast "blast.vars" "count" Lower;
    blast "blast.clauses" "count" Lower;
    blast "engine.blasted_clauses" "count" Lower;
    blast "blast.clauses_per_assert.p50" "count" Lower;
    blast "blast.clauses_per_assert.p99" "count" Lower;
    cegis "cegis.encode_s" "s" Lower;
    cegis "cegis.iteration_self_s" "s" Lower;
    cegis "engine.iterations" "count" Lower;
    cegis "engine.queries" "count" Lower;
    cegis "engine.trivial_unsats" "count" Higher ]
  @ List.map
      (fun d ->
        l "Synth.Engine" "wall_s on synth-table1 and synth-rv32im"
          ("engine.synthesize." ^ d ^ "_s") "s" Lower)
      (table1_designs @ [ "rv32im" ])
  @ List.map
      (fun d ->
        l "Synth.Engine" "wall_s on verify-refs" ("engine.verify." ^ d ^ "_s") "s"
          Lower)
      verify_designs
  @ [ sat "sat.solve_s" "s" Lower;
      sat "sat.inprocess_s" "s" Lower;
      sat "sat.reduce_db_s" "s" Lower;
      sat "sat.conflicts" "count" Lower;
      sat "sat.propagations" "count" Lower;
      sat "sat.decisions" "count" Lower;
      sat "sat.eliminated_vars" "count" Higher;
      solver "solver.checks" "count" Lower;
      solver "solver.check.latency_us.p50" "us" Lower;
      solver "solver.check.latency_us.p99" "us" Lower;
      cube "portfolio.cube_s" "s" Lower;
      cube "portfolio.cubes" "count" Lower;
      cube "portfolio.cubes_unsat_ratio" "ratio" Higher;
      pool "pool.service.tasks" "count" Higher;
      pool "pool.task.latency_us.p50" "us" Lower;
      pool "pool.task.latency_us.p99" "us" Lower;
      pool "pool.efficiency" "ratio" Higher ]
  @ List.map
      (fun d ->
        l "Synth.Pool" "none: -j 2 is too noisy on 2 shared cores for a bound"
          ("pool.speedup_j2." ^ d) "ratio" Higher)
      table1_designs
  @ [ cache "cache.hot.hit_ratio" "ratio" Higher;
      cache "cache.hot.evictions" "count" Lower;
      cache "cache.disk.hit" "count" Higher;
      cache "cache.disk.miss" "count" Lower;
      cache "cache.disk.write" "count" Lower;
      cache "cache.disk.stale" "count" Lower;
      cache "cache.lookup_s" "s" Lower;
      serve "serve.hot_latency_ms.p50" "ms" Lower;
      serve "serve.hot_latency_ms.p99" "ms" Lower;
      serve "serve.cold_latency_ms.p50" "ms" Lower;
      serve "serve.job.latency_us.p50" "us" Lower;
      serve "serve.job.latency_us.p99" "us" Lower;
      serve "serve.requests" "count" Higher;
      serve "serve.rejected" "count" Lower;
      serve "serve.share.hot" "ratio" Higher;
      serve "serve.share.disk" "ratio" Higher;
      serve "serve.share.cold" "ratio" Lower;
      gc "gc.minor_words" "words" Lower;
      gc "gc.major_words" "words" Lower;
      gc "gc.major_collections" "count" Lower;
      gc "gc.compactions" "count" Lower;
      trace "trace.overhead_ratio" "ratio" Lower;
      trace "trace.dropped" "count" Lower;
      trace "unattributed_s" "s" Lower;
      trace "repeat.mismatches" "count" Lower ]

let better_name = function Lower -> "lower" | Higher -> "higher"
