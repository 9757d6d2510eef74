(* Benchmark harness: regenerates every table of the paper's evaluation
   (§5).  Absolute times differ from the authors' Xeon workstation — the
   solver substrate here is this repository's own CDCL/bit-blasting stack —
   but the comparisons the paper draws are preserved: which configurations
   complete, their relative order, and the effect of the per-instruction
   optimization (see EXPERIMENTS.md).

     dune exec bench/main.exe              -- everything
     dune exec bench/main.exe -- table1    -- synthesis times (paper Table 1)
     dune exec bench/main.exe -- table2    -- design sizes (paper Table 2)
     dune exec bench/main.exe -- table3    -- constant-time study (paper §5.2)
     dune exec bench/main.exe -- micro     -- Bechamel micro-benchmarks
     dune exec bench/main.exe -- ablation  -- engine ablations (DESIGN.md §5)
     dune exec bench/main.exe -- parallel  -- serial vs parallel CEGIS scheduler
     dune exec bench/main.exe -- incremental -- solver sessions vs fresh solver
     dune exec bench/main.exe -- serve     -- owl serve daemon under load
     dune exec bench/main.exe -- chaos     -- serve under injected fault plans
     dune exec bench/main.exe -- smoke     -- seconds-scale CI check, no report

   Regular invocations also write BENCH_<date>.json (section wall-clocks
   plus per-run solver statistics) for commit-to-commit comparison.

   The monolithic ("no instruction-independence") experiments run under a
   wall-clock deadline; exceeding it reports Timeout, reproducing the
   paper's RV32I-monolithic row. *)

let deadline = ref 60.0

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* {1 JSON report}

   Every regular bench invocation writes BENCH_<date>.json in the working
   directory: per-section wall clock plus one record per instrumented
   synthesis run (iterations, queries, SAT variables/clauses/conflicts),
   so performance is diffable across commits.  The [smoke] entry point
   skips the report (it runs inside the dune sandbox). *)

module Report = struct
  let runs : string list ref = ref []
  let sections : string list ref = ref []

  (* JSON emission lives in Owl_obs's [Json] (the escaping code originated
     here); the report and the Chrome trace sink share it *)
  let str = Json.str
  let obj = Json.obj

  let record fields = runs := obj fields :: !runs

  let stats_fields (st : Synth.Engine.stats) =
    [ ("iterations", string_of_int st.Synth.Engine.iterations);
      ("queries", string_of_int st.Synth.Engine.queries);
      ("sat_conflicts", string_of_int st.Synth.Engine.conflicts);
      ("sat_vars", string_of_int st.Synth.Engine.blasted_vars);
      ("sat_clauses", string_of_int st.Synth.Engine.blasted_clauses);
      ("trivial_unsats", string_of_int st.Synth.Engine.trivial_unsats);
      ("retried_queries", string_of_int st.Synth.Engine.retried_queries);
      ("degraded_queries", string_of_int st.Synth.Engine.degraded_queries);
      ("validation_failures",
       string_of_int st.Synth.Engine.validation_failures);
      ("task_retries", string_of_int st.Synth.Engine.task_retries);
      ("sat_restarts", string_of_int st.Synth.Engine.sat_restarts);
      ("sat_learnt_kept", string_of_int st.Synth.Engine.sat_learnt_kept);
      ("sat_learnt_deleted", string_of_int st.Synth.Engine.sat_learnt_deleted) ]

  let record_run ~section ~label ~outcome ~wall st =
    record
      ([ ("section", str section); ("label", str label);
         ("outcome", str outcome);
         ("wall_seconds", Printf.sprintf "%.6f" wall) ]
      @ match st with None -> [] | Some st -> stats_fields st)

  let record_section name wall =
    sections :=
      obj [ ("name", str name); ("wall_seconds", Printf.sprintf "%.6f" wall) ]
      :: !sections

  (* histogram summaries (and counters) accumulated by Owl_obs across the
     whole invocation — query latency, conflicts per check, clauses per
     blast — embedded so the distribution shape is diffable across
     commits, not just the totals *)
  let metric_objs () =
    List.map
      (fun (m : Obs.metric) ->
        obj
          ([ ("name", str m.Obs.metric_name);
             ("kind",
              str
                (match m.Obs.metric_kind with
                 | `Counter -> "counter"
                 | `Gauge -> "gauge"
                 | `Histogram -> "histogram"
                 | `Window -> "window"));
             ("count", Json.int m.Obs.count);
             ("sum", Json.int m.Obs.sum) ]
          @
          match m.Obs.metric_kind with
          | `Counter | `Gauge -> []
          | `Histogram | `Window ->
              [ ("min", Json.int m.Obs.min_value);
                ("max", Json.int m.Obs.max_value);
                ("p50", Json.int m.Obs.p50);
                ("p90", Json.int m.Obs.p90);
                ("p99", Json.int m.Obs.p99) ]))
      (Obs.metrics ())

  let write () =
    let tm = Unix.localtime (Unix.gettimeofday ()) in
    let date =
      Printf.sprintf "%04d-%02d-%02d" (tm.Unix.tm_year + 1900)
        (tm.Unix.tm_mon + 1) tm.Unix.tm_mday
    in
    let file = Printf.sprintf "BENCH_%s.json" date in
    let arr l = "[\n    " ^ String.concat ",\n    " (List.rev l) ^ "\n  ]" in
    let oc = open_out file in
    output_string oc
      ("{\n  \"date\": " ^ str date ^ ",\n  \"sections\": " ^ arr !sections
     ^ ",\n  \"runs\": " ^ arr !runs ^ ",\n  \"metrics\": "
     ^ arr (List.rev (metric_objs ()))
     ^ "\n}\n");
    close_out oc;
    Printf.printf "\nbenchmark report written to %s\n" file
end

type row_result =
  | RSolved of Synth.Engine.solved * float
  | RTimeout of float
  | RFailed of string

let run_problem ?(mode = Synth.Engine.Per_instruction) ?(jobs = 1)
    ?(incremental = true) ?cache ?tag problem =
  let options =
    Synth.Engine.(
      default_options |> with_mode mode |> with_jobs jobs
      |> with_deadline (Some !deadline)
      |> with_incremental incremental |> with_cache cache)
  in
  let outcome, dt = time (fun () -> Synth.Engine.synthesize ~options problem) in
  let result =
    match outcome with
    | Synth.Engine.Solved s -> RSolved (s, dt)
    | Synth.Engine.Timeout _ -> RTimeout dt
    | Synth.Engine.Unrealizable { instr; _ } ->
        RFailed (Printf.sprintf "unrealizable %s" (Option.value instr ~default:"?"))
    | Synth.Engine.Union_failed { diagnostic; _ } -> RFailed diagnostic
    | Synth.Engine.Not_independent _ -> RFailed "not independent"
  in
  (match tag with
  | None -> ()
  | Some (section, label) ->
      let outcome_str, st =
        match result with
        | RSolved (s, _) -> ("solved", Some s.Synth.Engine.stats)
        | RTimeout _ -> ("timeout", None)
        | RFailed m -> ("failed: " ^ m, None)
      in
      Report.record_run ~section ~label ~outcome:outcome_str ~wall:dt st);
  result

(* {1 Table 1: control logic synthesis times} *)

let table1 () =
  print_endline "";
  print_endline "Table 1: control logic synthesis over all case studies";
  print_endline "(+ = monolithic, i.e. without the instruction-independence";
  Printf.printf "optimization; timeout = %.0fs wall clock)\n" !deadline;
  print_endline "";
  Printf.printf "%-19s %-14s %10s %19s\n" "Design" "Variant" "Sketch LoC"
    "Synthesis Time (s)";
  print_endline (String.make 66 '-');
  let row design variant problem mode =
    let loc = Oyster.Printer.loc problem.Synth.Engine.design in
    Printf.printf "%-19s %-14s %10d %!" design variant loc;
    match run_problem ~mode ~tag:("table1", design ^ " " ^ variant) problem with
    | RSolved (_, dt) -> Printf.printf "%19.1f\n%!" dt
    | RTimeout _ -> Printf.printf "%19s\n%!" "Timeout"
    | RFailed msg -> Printf.printf "%19s\n%!" ("FAILED: " ^ msg)
  in
  row "AES Accelerator" "-" (Designs.Aes.problem ()) Synth.Engine.Per_instruction;
  row "AES Accelerator+" "-" (Designs.Aes.problem ()) Synth.Engine.Monolithic;
  List.iter
    (fun v ->
      row "Single-Cycle Core" (Isa.Rv32.variant_name v)
        (Designs.Riscv_single.problem v)
        Synth.Engine.Per_instruction)
    [ Isa.Rv32.RV32I; Isa.Rv32.RV32I_Zbkb; Isa.Rv32.RV32I_Zbkc ];
  row "Single-Cycle Core+" "RV32I"
    (Designs.Riscv_single.problem Isa.Rv32.RV32I)
    Synth.Engine.Monolithic;
  List.iter
    (fun v ->
      row "Two-Stage Core" (Isa.Rv32.variant_name v)
        (Designs.Riscv_two_stage.problem v)
        Synth.Engine.Per_instruction)
    [ Isa.Rv32.RV32I; Isa.Rv32.RV32I_Zbkb; Isa.Rv32.RV32I_Zbkc ];
  row "Crypto Core" "CMOV ISA" (Designs.Crypto_core.problem ())
    Synth.Engine.Per_instruction;
  (* beyond the paper: the M standard extension (multiply/divide units) *)
  row "Single-Cycle Core" "RV32I + M*"
    (Designs.Riscv_single.problem Isa.Rv32.RV32I_M)
    Synth.Engine.Per_instruction;
  print_endline "(* = beyond the paper's variants: the RISC-V M extension)"

(* {1 Table 2: size of generated control vs hand-written reference} *)

let table2 () =
  print_endline "";
  print_endline "Table 2: size of designs with generated control logic compared";
  print_endline "to a hand-written reference (single-cycle core)";
  print_endline "";
  Printf.printf "%-14s %9s %9s | %10s %10s %10s %10s\n" "Variant" "HDL(ref)"
    "HDL(gen)" "Gates(ref)" "Gates(gen)" "Gates(opt)" "ref(opt)";
  print_endline (String.make 82 '-');
  List.iter
    (fun v ->
      let refd = Designs.Riscv_single.reference_design v in
      let ref_loc =
        Hdl.Pyrtl.bindings_loc (Designs.Riscv_single.reference_bindings v)
      in
      match run_problem (Designs.Riscv_single.problem v) with
      | RSolved (s, _) ->
          let gen_loc =
            Hdl.Pyrtl.generated_loc ~pre_exprs:s.Synth.Engine.pre_exprs
              ~per_instr:s.Synth.Engine.per_instr ~shared:s.Synth.Engine.shared
          in
          let nr = Netlist.of_design ~optimize:false refd in
          let ng = Netlist.of_design ~optimize:false s.Synth.Engine.completed in
          let no = Netlist.of_design ~optimize:true s.Synth.Engine.completed in
          let nro = Netlist.of_design ~optimize:true refd in
          Printf.printf "%-14s %9d %9d | %10d %10d %10d %10d\n%!"
            (Isa.Rv32.variant_name v) ref_loc gen_loc nr.Netlist.total_gates
            ng.Netlist.total_gates no.Netlist.total_gates nro.Netlist.total_gates
      | RTimeout _ | RFailed _ ->
          Printf.printf "%-14s synthesis failed\n%!" (Isa.Rv32.variant_name v))
    [ Isa.Rv32.RV32I; Isa.Rv32.RV32I_Zbkb; Isa.Rv32.RV32I_Zbkc ];
  print_endline "";
  print_endline "HDL = control logic lines (PyRTL rendering); Gates = combinational";
  print_endline "cells after compiling the whole core (register file materialized,";
  print_endline "instruction/data memories as ports); opt = structural hashing +";
  print_endline "algebraic rewrites + dead-gate elimination (the Yosys stand-in)."

(* {1 Table 3: the constant-time cryptography study (paper §5.2)} *)

let table3 () =
  print_endline "";
  print_endline "Table 3 (paper section 5.2): SHA-256 on the constant-time crypto";
  print_endline "core; cycle counts must be independent of the input, and the";
  print_endline "synthesized control must match the hand-written reference.";
  print_endline "";
  match run_problem (Designs.Crypto_core.problem ()) with
  | RSolved (s, dt) ->
      Printf.printf "control synthesis: %.1fs\n\n" dt;
      let program = Sha_program.generate () in
      let halt_pc = 4 * (List.length program - 1) in
      Printf.printf "SHA-256 program: %d instructions\n\n" (List.length program);
      Printf.printf "%6s %18s %18s %8s\n" "len" "cycles(generated)"
        "cycles(reference)" "digest";
      print_endline (String.make 56 '-');
      let refd = Designs.Crypto_core.reference_design () in
      let run design msg =
        let r =
          Designs.Testbench.run_core design ~program
            ~dmem_init:(Sha_program.pack_input msg) ~halt_pc ~max_cycles:20000
        in
        let digest =
          Sha_program.read_digest (fun a ->
              Designs.Testbench.core_dmem r.Designs.Testbench.state a)
        in
        let hex =
          String.concat ""
            (Array.to_list (Array.map (Printf.sprintf "%08x") digest))
        in
        (Option.get r.Designs.Testbench.cycles_to_halt, hex)
      in
      List.iter
        (fun len ->
          let msg = String.init len (fun i -> Char.chr (33 + (i * 11 mod 90))) in
          let cg, hg = run s.Synth.Engine.completed msg in
          let cr, hr = run refd msg in
          let ok = hg = Sha256.digest_hex msg && hr = hg && cg = cr in
          Printf.printf "%6d %18d %18d %8s\n%!" len cg cr
            (if ok then "OK" else "MISMATCH"))
        [ 4; 8; 12; 16; 20; 24; 28; 32 ]
  | RTimeout _ | RFailed _ -> print_endline "crypto core synthesis failed"

(* {1 Ablations (DESIGN.md section 5)} *)

let ablation () =
  print_endline "";
  print_endline "Ablation: per-instruction vs monolithic CEGIS on the RV32I";
  print_endline "single-cycle core, plus the instruction-independence checks.";
  print_endline "";
  let problem = Designs.Riscv_single.problem Isa.Rv32.RV32I in
  (match run_problem problem with
  | RSolved (s, dt) ->
      Printf.printf
        "per-instruction: %.2fs, %d CEGIS rounds, %d solver queries, %d conflicts\n"
        dt s.Synth.Engine.stats.Synth.Engine.iterations
        s.Synth.Engine.stats.Synth.Engine.queries
        s.Synth.Engine.stats.Synth.Engine.conflicts
  | _ -> print_endline "per-instruction failed");
  (match
     run_problem ~mode:Synth.Engine.Monolithic
       (Designs.Riscv_single.problem Isa.Rv32.RV32I)
   with
  | RSolved (_, dt) -> Printf.printf "monolithic:      %.2fs\n" dt
  | RTimeout dt -> Printf.printf "monolithic:      Timeout after %.1fs\n" dt
  | RFailed m -> Printf.printf "monolithic:      failed (%s)\n" m);
  let trace =
    Oyster.Symbolic.eval problem.Synth.Engine.design
      ~cycles:problem.Synth.Engine.af.Ila.Absfun.cycles
  in
  let conds =
    Ila.Conditions.compile problem.Synth.Engine.spec problem.Synth.Engine.af trace
  in
  let excl, dt = time (fun () -> Synth.Independence.check_mutual_exclusion conds) in
  Printf.printf
    "mutual exclusion: %d instruction pairs checked in %.2fs, %d overlaps\n"
    (List.length conds * (List.length conds - 1) / 2)
    dt
    (List.length excl.Synth.Independence.overlapping);
  let fb = Synth.Independence.check_no_feedback problem.Synth.Engine.design in
  Printf.printf "control feedback paths: %d\n"
    (List.length fb.Synth.Independence.feedback_paths);
  (* verification-only cost: checking the hand-written reference control *)
  let vproblem =
    { problem with
      Synth.Engine.design = Designs.Riscv_single.reference_design Isa.Rv32.RV32I }
  in
  let results, dt = time (fun () -> Synth.Engine.verify vproblem) in
  Printf.printf "verify reference control: %d/%d instructions in %.2fs\n"
    (List.length
       (List.filter (fun (_, v) -> v = Synth.Engine.Verified) results))
    (List.length results) dt;
  (* don't-care minimization (the section-5.3 "optimal control" direction) *)
  match run_problem problem with
  | RSolved (s, _) ->
      let before_loc = Hdl.Pyrtl.bindings_loc s.Synth.Engine.bindings in
      let before_gates =
        (Netlist.of_design ~optimize:true s.Synth.Engine.completed).Netlist.total_gates
      in
      let m = Synth.Minimize.run problem s in
      let s' = m.Synth.Minimize.solved in
      Printf.printf
        "don't-care minimization: %.2fs, %d checks, %d merges; control loc %d -> %d; gates(opt) %d -> %d\n"
        m.Synth.Minimize.minimize_stats.Synth.Minimize.wall_seconds
        m.Synth.Minimize.minimize_stats.Synth.Minimize.checks
        m.Synth.Minimize.minimize_stats.Synth.Minimize.merged before_loc
        (Hdl.Pyrtl.bindings_loc s'.Synth.Engine.bindings)
        before_gates
        (Netlist.of_design ~optimize:true s'.Synth.Engine.completed).Netlist.total_gates
  | _ -> print_endline "minimization skipped (synthesis failed)" 

(* {1 Parallel scheduler: serial vs fanned-out per-instruction CEGIS} *)

let parallel () =
  print_endline "";
  print_endline "Parallel per-instruction CEGIS: serial (jobs=1) vs worker pool";
  print_endline "(jobs=4) on the RV32I single-cycle core.  The merge is";
  print_endline "deterministic, so both schedules must produce identical";
  print_endline "bindings; wall-clock gains require actual cores.";
  Printf.printf "(this machine reports %d usable core(s))\n\n"
    (Synth.Pool.default_jobs ());
  let describe tag jobs =
    match run_problem ~jobs (Designs.Riscv_single.problem Isa.Rv32.RV32I) with
    | RSolved (s, dt) ->
        Printf.printf "%-14s %8.2fs  %4d rounds  %5d queries  %7d conflicts\n%!"
          tag dt s.Synth.Engine.stats.Synth.Engine.iterations
          s.Synth.Engine.stats.Synth.Engine.queries
          s.Synth.Engine.stats.Synth.Engine.conflicts;
        Some s
    | RTimeout dt ->
        Printf.printf "%-14s Timeout after %.1fs\n%!" tag dt;
        None
    | RFailed m ->
        Printf.printf "%-14s failed (%s)\n%!" tag m;
        None
  in
  match (describe "jobs=1 (serial)" 1, describe "jobs=4 (pool)" 4) with
  | Some s1, Some s4 ->
      let same =
        s1.Synth.Engine.per_instr = s4.Synth.Engine.per_instr
        && s1.Synth.Engine.shared = s4.Synth.Engine.shared
        && List.length s1.Synth.Engine.bindings
           = List.length s4.Synth.Engine.bindings
        && List.for_all2
             (fun (h1, e1) (h2, e2) -> h1 = h2 && e1 = e2)
             s1.Synth.Engine.bindings s4.Synth.Engine.bindings
      in
      Printf.printf "bindings identical across schedules: %s\n"
        (if same then "yes" else "NO (determinism bug)");
      if not same then exit 1
  | _ -> ()

(* {1 Incremental solver sessions vs fresh solver per query} *)

let incremental () =
  print_endline "";
  print_endline "Incremental solver sessions: one persistent session per CEGIS";
  print_endline "loop (SAT state, Tseitin cache, learned clauses survive across";
  print_endline "iterations; stale candidates retracted via activation literals)";
  print_endline "vs the historical fresh solver per query.";
  print_endline "";
  Printf.printf "%-24s %-12s %8s %7s %8s %12s %10s\n" "Design" "Mode" "wall(s)"
    "rounds" "queries" "clauses" "conflicts";
  print_endline (String.make 88 '-');
  let run_mode name problem ~incr ~jobs =
    let mode_tag =
      (if incr then "session" else "fresh") ^ Printf.sprintf " j%d" jobs
    in
    match run_problem ~jobs ~incremental:incr
            ~tag:("incremental", name ^ " " ^ mode_tag) problem
    with
    | RSolved (s, dt) ->
        let st = s.Synth.Engine.stats in
        Printf.printf "%-24s %-12s %8.2f %7d %8d %12d %10d\n%!" name mode_tag dt
          st.Synth.Engine.iterations st.Synth.Engine.queries
          st.Synth.Engine.blasted_clauses st.Synth.Engine.conflicts;
        Some (s, dt)
    | RTimeout dt ->
        Printf.printf "%-24s %-12s Timeout after %.1fs\n%!" name mode_tag dt;
        None
    | RFailed m ->
        Printf.printf "%-24s %-12s failed (%s)\n%!" name mode_tag m;
        None
  in
  let ok = ref true in
  let compare name problem =
    let inc = run_mode name problem ~incr:true ~jobs:1 in
    let fresh = run_mode name problem ~incr:false ~jobs:1 in
    let inc4 = run_mode name problem ~incr:true ~jobs:4 in
    match (inc, fresh, inc4) with
    | Some (si, wi), Some (sf, wf), Some (s4, _) ->
        let sti = si.Synth.Engine.stats and stf = sf.Synth.Engine.stats in
        let fewer =
          sti.Synth.Engine.blasted_clauses < stf.Synth.Engine.blasted_clauses
        in
        let faster = wi < wf in
        let same a b =
          a.Synth.Engine.per_instr = b.Synth.Engine.per_instr
          && a.Synth.Engine.shared = b.Synth.Engine.shared
        in
        Printf.printf
          "  %s: %.1fx fewer clauses (%s), %.2fx wall (%s), bindings vs fresh %s, jobs=4 deterministic %s\n%!"
          name
          (float_of_int stf.Synth.Engine.blasted_clauses
          /. float_of_int (max 1 sti.Synth.Engine.blasted_clauses))
          (if fewer then "ok" else "REGRESSION")
          (wf /. wi)
          (if faster then "ok" else "slower")
          (if same si sf then "identical" else "differ (both verified)")
          (if same si s4 then "ok" else "BUG");
        Report.record
          [ ("section", Report.str "incremental");
            ("label", Report.str (name ^ " summary"));
            ("incremental_clauses",
             string_of_int sti.Synth.Engine.blasted_clauses);
            ("fresh_clauses", string_of_int stf.Synth.Engine.blasted_clauses);
            ("incremental_wall_seconds", Printf.sprintf "%.6f" wi);
            ("fresh_wall_seconds", Printf.sprintf "%.6f" wf);
            ("fewer_clauses", string_of_bool fewer);
            ("faster", string_of_bool faster);
            ("bindings_identical_to_fresh", string_of_bool (same si sf));
            ("jobs4_deterministic", string_of_bool (same si s4)) ];
        if (not fewer) || not (same si s4) then ok := false
    | _ -> ok := false
  in
  compare "accumulator" (Designs.Accumulator.problem ());
  compare "rv32-single RV32I" (Designs.Riscv_single.problem Isa.Rv32.RV32I);
  print_endline "";
  if !ok then
    print_endline
      "incremental sessions: strictly fewer blasted clauses on every design; \
       jobs=4 bindings identical to jobs=1"
  else begin
    print_endline "incremental sessions: REGRESSION (see rows above)";
    exit 1
  end

(* {1 Cross-run synthesis cache: cold vs warm}

   Three runs of the RV32I single-cycle core against one cache directory:
   a cold run that populates it, a warm jobs=1 rerun, and a warm jobs=4
   rerun.  The warm runs must reproduce the cold run's hole bindings
   bit for bit from validated result-tier hits, with measurably fewer
   solver queries; the per-run hit/miss/stale/write counters land in the
   JSON report. *)

let cache_bench () =
  print_endline "";
  print_endline "Cross-run synthesis cache: cold vs warm on the RV32I";
  print_endline "single-cycle core (one shared cache directory; each warm";
  print_endline "run must reproduce the cold bindings bit for bit from";
  print_endline "validated result-tier hits, with fewer solver queries).";
  print_endline "";
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "owl-bench-cache.%d" (Unix.getpid ()))
  in
  Printf.printf "%-16s %8s %8s %6s %6s %6s %6s\n" "Run" "wall(s)" "queries"
    "hits" "misses" "stale" "writes";
  print_endline (String.make 62 '-');
  (* a fresh handle per run keeps the counters per-run; the directory is
     shared so later runs see earlier entries *)
  let run tag ~jobs =
    let cache = Owl_cache.open_dir dir in
    let r =
      run_problem ~jobs ~cache ~tag:("cache", tag)
        (Designs.Riscv_single.problem Isa.Rv32.RV32I)
    in
    let k = Owl_cache.counters cache in
    (match r with
    | RSolved (s, dt) ->
        Printf.printf "%-16s %8.2f %8d %6d %6d %6d %6d\n%!" tag dt
          s.Synth.Engine.stats.Synth.Engine.queries k.Owl_cache.hits
          k.Owl_cache.misses k.Owl_cache.stale k.Owl_cache.writes
    | RTimeout dt -> Printf.printf "%-16s Timeout after %.1fs\n%!" tag dt
    | RFailed m -> Printf.printf "%-16s failed (%s)\n%!" tag m);
    Report.record
      [ ("section", Report.str "cache"); ("label", Report.str tag);
        ("cache_hits", string_of_int k.Owl_cache.hits);
        ("cache_misses", string_of_int k.Owl_cache.misses);
        ("cache_stale", string_of_int k.Owl_cache.stale);
        ("cache_writes", string_of_int k.Owl_cache.writes) ];
    (r, k)
  in
  let cold, _ = run "cold j1" ~jobs:1 in
  let warm1, k1 = run "warm j1" ~jobs:1 in
  let warm4, k4 = run "warm j4" ~jobs:4 in
  (* clean up the temporary store whatever happened above *)
  let cleanup () =
    ignore (Owl_cache.clear (Owl_cache.open_dir dir));
    List.iter
      (fun d -> try Unix.rmdir d with Unix.Unix_error _ -> ())
      [ Filename.concat dir "r"; Filename.concat dir "w"; dir ]
  in
  (match (cold, warm1, warm4) with
  | RSolved (sc, _), RSolved (s1, _), RSolved (s4, _) ->
      let same (a : Synth.Engine.solved) (b : Synth.Engine.solved) =
        a.Synth.Engine.per_instr = b.Synth.Engine.per_instr
        && a.Synth.Engine.shared = b.Synth.Engine.shared
      in
      let qc = sc.Synth.Engine.stats.Synth.Engine.queries in
      let q1 = s1.Synth.Engine.stats.Synth.Engine.queries in
      let q4 = s4.Synth.Engine.stats.Synth.Engine.queries in
      let identical = same sc s1 && same sc s4 in
      let fewer = q1 < qc && q4 < qc in
      let hits = k1.Owl_cache.hits > 0 && k4.Owl_cache.hits > 0 in
      Printf.printf
        "\n  bindings identical across cold/warm/jobs=4: %s; queries %d -> \
         %d (j1) / %d (j4): %s; warm hit rate nonzero: %s\n"
        (if identical then "yes" else "NO (cache corruption)")
        qc q1 q4
        (if fewer then "fewer" else "NOT FEWER")
        (if hits then "yes" else "NO");
      if not (identical && fewer && hits) then begin
        cleanup ();
        print_endline "cache: REGRESSION (see rows above)";
        exit 1
      end
  | _ ->
      cleanup ();
      print_endline "cache: synthesis failed";
      exit 1);
  cleanup ()

(* {1 The serve daemon under load}

   Boots a real [owl serve] daemon (in process, on a /tmp Unix socket —
   socket paths are length-capped, so the working directory cannot host
   one) and pushes ~1000 mixed requests through the wire protocol at
   several client counts.  The mix interleaves synthesis and
   verification over a small set of distinct option fingerprints, so
   the first request of each fingerprint is cold (runs on a worker
   domain) and every repeat must come back from the hot tier.  A fresh
   daemon per client count keeps the hit rates comparable.

   What must hold, per run: zero protocol errors (every request gets a
   well-framed terminal reply), zero admission rejections (the queue is
   sized for the load), and every hot reply streamed zero progress
   events — the protocol-level witness that a warm repeat touched no
   solver.  Hit rates are computed from the client-observed [hot]
   flags; the server's own tier counters are recorded alongside (they
   run higher on misses: a cold request probes the tier once in the
   reader and once in the worker). *)

let serve_bench () =
  print_endline "";
  print_endline
    "Serve: daemon under load (mixed cold/warm synth+verify requests)";
  print_endline
    "clients   requests  cold   hot  hit-rate  p50(ms)  p99(ms)   req/s";
  let synth_problem = Designs.Accumulator.problem () in
  let verify_problem =
    {
      synth_problem with
      Synth.Engine.design = Designs.Accumulator.reference_design ();
    }
  in
  let lookup kind _name =
    match kind with
    | `Synth -> Some synth_problem
    | `Verify -> Some verify_problem
  in
  let total = 1000 and distinct = 16 in
  List.iter
    (fun clients ->
      let sock =
        Printf.sprintf "/tmp/owl-bench-serve-%d-%d.sock" (Unix.getpid ())
          clients
      in
      let addr = Owl_serve.Proto.Unix_path sock in
      let ready = Atomic.make false in
      let server =
        Thread.create
          (fun () ->
            Owl_serve.Server.run
              ~ready:(fun () -> Atomic.set ready true)
              {
                Owl_serve.Server.addr;
                jobs = 4;
                queue_depth = total;
                hot_tier_size = 64;
                cache = None;
                server_name = "owl-bench";
                telemetry = true;
                dump_dir = None;
              }
              ~lookup)
          ()
      in
      while not (Atomic.get ready) do
        Thread.delay 0.002
      done;
      let per = total / clients in
      let n = per * clients in
      let latencies = Array.make n 0.0 in
      let hot_answers = Atomic.make 0 in
      let errors = Atomic.make 0 in
      let tainted_hot = Atomic.make 0 in
      let t0 = Unix.gettimeofday () in
      let run_client ci =
        try
          let c = Owl_serve.Client.connect addr in
          for k = 0 to per - 1 do
            let seq = (ci * per) + k in
            (* distinct max_iterations values give [distinct] synth and
               [distinct] verify fingerprints; everything else is warm *)
            let options =
              Synth.Engine.(
                default_options |> with_max_iterations (300 + (seq mod distinct)))
            in
            let progress = ref 0 in
            let on_progress _ = incr progress in
            let t = Unix.gettimeofday () in
            let hot =
              if seq mod 5 = 4 then
                (Owl_serve.Client.verify ~on_progress c ~design:"acc" options)
                  .Owl_serve.Proto.v_hot
              else begin
                let r =
                  Owl_serve.Client.synth ~on_progress c ~design:"acc" options
                in
                if r.Owl_serve.Proto.outcome <> "solved" then
                  Atomic.incr errors;
                r.Owl_serve.Proto.hot
              end
            in
            latencies.(seq) <- Unix.gettimeofday () -. t;
            if hot then begin
              Atomic.incr hot_answers;
              (* a hot reply that streamed progress ran a solver: broken *)
              if !progress > 0 then Atomic.incr tainted_hot
            end
          done;
          Owl_serve.Client.close c
        with _ -> Atomic.incr errors
      in
      let threads =
        List.init clients (fun ci -> Thread.create run_client ci)
      in
      List.iter Thread.join threads;
      let wall = Unix.gettimeofday () -. t0 in
      let admin = Owl_serve.Client.connect addr in
      let stats = Owl_serve.Client.cache_stats admin in
      Owl_serve.Client.shutdown admin;
      Owl_serve.Client.close admin;
      Thread.join server;
      Array.sort compare latencies;
      let pct p =
        latencies.(min (n - 1) (int_of_float (p *. float_of_int n)))
      in
      let tier_hits, tier_misses =
        match stats.Owl_serve.Proto.hot_tier with
        | Some h -> (h.Owl_serve.Proto.hot_hits, h.Owl_serve.Proto.hot_misses)
        | None -> (0, 0)
      in
      let hot = Atomic.get hot_answers in
      let cold = n - hot in
      let rate = float_of_int hot /. float_of_int n in
      Printf.printf "%7d %10d %5d %5d %8.1f%% %8.2f %8.2f %7.0f\n%!" clients n
        cold hot (100.0 *. rate) (pct 0.50 *. 1e3) (pct 0.99 *. 1e3)
        (float_of_int n /. wall);
      let failed =
        Atomic.get errors > 0
        || Atomic.get tainted_hot > 0
        || stats.Owl_serve.Proto.rejected > 0
        || hot = 0
      in
      if failed then begin
        Printf.eprintf
          "serve: REGRESSION (%d errors, %d hot replies with progress, %d \
           rejected, %d hot answers)\n"
          (Atomic.get errors) (Atomic.get tainted_hot)
          stats.Owl_serve.Proto.rejected hot;
        exit 1
      end;
      Report.record
        [ ("section", Report.str "serve");
          ("label", Report.str (Printf.sprintf "%d clients" clients));
          ("clients", string_of_int clients);
          ("requests", string_of_int n);
          ("cold", string_of_int cold);
          ("hot", string_of_int hot);
          ("hot_hit_rate", Printf.sprintf "%.4f" rate);
          ("tier_hits", string_of_int tier_hits);
          ("tier_misses", string_of_int tier_misses);
          ("rejected", string_of_int stats.Owl_serve.Proto.rejected);
          ("protocol_errors", string_of_int (Atomic.get errors));
          ("p50_ms", Printf.sprintf "%.3f" (pct 0.50 *. 1e3));
          ("p99_ms", Printf.sprintf "%.3f" (pct 0.99 *. 1e3));
          ("throughput_rps", Printf.sprintf "%.1f" (float_of_int n /. wall));
          ("wall_seconds", Printf.sprintf "%.6f" wall) ])
    [ 1; 4; 8 ]

(* {1 Chaos: the daemon under injected fault plans}

   The serve workload re-run under deterministic fault plans (DESIGN.md
   §13): worker kills, connection drops, frame delays, and forced
   admission sheds, injected by global index through the [Fault] hooks
   the daemon consults.  Four retrying clients push 1000 mixed requests
   through each plan.

   What must hold, per plan: the run drains (completing at all is the
   no-hang witness — every client bounds its attempts), zero requests
   fail after the client's bounded retries, every solved synthesis
   reply carries bindings bit-identical to the fault-free baseline
   (faults may cost recomputation, never a wrong answer), and the
   daemon recovers to full capacity — a fresh cold request solves, the
   pool reports every worker alive, and nothing is left queued.  The
   per-plan failure counters (workers lost, sheds, cancellations,
   degraded time) land in the JSON report alongside the Owl_obs
   counters. *)

let chaos () =
  print_endline "";
  print_endline "Chaos: serve daemon under injected fault plans (1000 mixed";
  print_endline "requests per plan, 4 retrying clients; every plan must drain";
  print_endline "with zero unrecovered errors, bit-identical bindings, and a";
  print_endline "fully recovered worker pool).";
  print_endline "";
  let synth_problem = Designs.Accumulator.problem () in
  let verify_problem =
    { synth_problem with
      Synth.Engine.design = Designs.Accumulator.reference_design () }
  in
  let lookup kind _name =
    match kind with
    | `Synth -> Some synth_problem
    | `Verify -> Some verify_problem
  in
  let total = 1000 and distinct = 16 and clients = 4 and jobs = 4 in
  (* first solved synthesis of the fault-free plan; every later solved
     reply, in every plan, must match it bit for bit *)
  let baseline_bindings = ref None in
  Printf.printf "%-12s %8s %7s %7s %5s %5s %7s %8s %8s\n" "Plan" "requests"
    "errors" "retries" "lost" "shed" "cancel" "degr(s)" "wall(s)";
  print_endline (String.make 76 '-');
  let run_plan (tag, plan, expect_lost) =
    if plan <> "" then Fault.install (Fault.parse plan);
    Fun.protect ~finally:Fault.clear @@ fun () ->
    let sock =
      Printf.sprintf "/tmp/owl-bench-chaos-%d-%s.sock" (Unix.getpid ()) tag
    in
    let addr = Owl_serve.Proto.Unix_path sock in
    let ready = Atomic.make false in
    let server =
      Thread.create
        (fun () ->
          Owl_serve.Server.run
            ~ready:(fun () -> Atomic.set ready true)
            {
              Owl_serve.Server.addr;
              jobs;
              queue_depth = total;
              hot_tier_size = 64;
              cache = None;
              server_name = "owl-chaos";
              telemetry = true;
              dump_dir = None;
            }
            ~lookup)
        ()
    in
    while not (Atomic.get ready) do
      Thread.delay 0.002
    done;
    let per = total / clients in
    let n = per * clients in
    let errors = Atomic.make 0 in
    let retried = Atomic.make 0 in
    let divergent = Atomic.make 0 in
    let t0 = Unix.gettimeofday () in
    let run_client ci =
      for k = 0 to per - 1 do
        let seq = (ci * per) + k in
        let options =
          Synth.Engine.(
            default_options |> with_max_iterations (300 + (seq mod distinct)))
        in
        match
          Owl_serve.Client.with_retry ~retries:6 ~backoff_ms:5 ~seed:seq
            ~on_retry:(fun ~attempt:_ ~delay:_ _ -> Atomic.incr retried)
            addr
            (fun c ->
              if seq mod 5 = 4 then
                ignore (Owl_serve.Client.verify c ~design:"acc" options)
              else
                let r = Owl_serve.Client.synth c ~design:"acc" options in
                if r.Owl_serve.Proto.outcome <> "solved" then
                  Atomic.incr errors
                else
                  match !baseline_bindings with
                  | None ->
                      baseline_bindings := Some r.Owl_serve.Proto.bindings
                  | Some b ->
                      if r.Owl_serve.Proto.bindings <> b then
                        Atomic.incr divergent)
        with
        | () -> ()
        | exception _ -> Atomic.incr errors
      done
    in
    let threads = List.init clients (fun ci -> Thread.create run_client ci) in
    List.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t0 in
    let fired = Fault.fired () in
    (* recovery: a fresh cold fingerprint must still solve on a worker,
       and the pool must report full strength *)
    let admin = Owl_serve.Client.connect addr in
    let post =
      Owl_serve.Client.synth admin ~design:"acc"
        Synth.Engine.(default_options |> with_max_iterations 997)
    in
    let _, _, h = Owl_serve.Client.ping admin in
    Owl_serve.Client.shutdown admin;
    Owl_serve.Client.close admin;
    Thread.join server;
    Printf.printf "%-12s %8d %7d %7d %5d %5d %7d %8.2f %8.2f\n%!" tag n
      (Atomic.get errors) (Atomic.get retried) h.Owl_serve.Proto.workers_lost
      h.Owl_serve.Proto.shed h.Owl_serve.Proto.cancelled
      h.Owl_serve.Proto.degraded_seconds wall;
    let failed =
      Atomic.get errors > 0
      || Atomic.get divergent > 0
      || post.Owl_serve.Proto.outcome <> "solved"
      || h.Owl_serve.Proto.workers_alive <> jobs
      || h.Owl_serve.Proto.degraded
      || h.Owl_serve.Proto.queue_waiting <> 0
      || (expect_lost && h.Owl_serve.Proto.workers_lost = 0)
    in
    if failed then begin
      Printf.eprintf
        "chaos: REGRESSION under plan %S (%d errors, %d divergent bindings, \
         recovery %s, %d/%d workers alive, %d lost, degraded %b, %d queued)\n"
        plan (Atomic.get errors) (Atomic.get divergent)
        post.Owl_serve.Proto.outcome h.Owl_serve.Proto.workers_alive jobs
        h.Owl_serve.Proto.workers_lost h.Owl_serve.Proto.degraded
        h.Owl_serve.Proto.queue_waiting;
      exit 1
    end;
    Report.record
      [ ("section", Report.str "chaos"); ("label", Report.str tag);
        ("plan", Report.str plan); ("requests", string_of_int n);
        ("faults_fired", string_of_int fired);
        ("client_errors", string_of_int (Atomic.get errors));
        ("client_retries", string_of_int (Atomic.get retried));
        ("divergent_bindings", string_of_int (Atomic.get divergent));
        ("workers_lost", string_of_int h.Owl_serve.Proto.workers_lost);
        ("shed", string_of_int h.Owl_serve.Proto.shed);
        ("cancelled", string_of_int h.Owl_serve.Proto.cancelled);
        ("timeouts", string_of_int h.Owl_serve.Proto.timeouts);
        ("degraded_seconds",
         Printf.sprintf "%.3f" h.Owl_serve.Proto.degraded_seconds);
        ("wall_seconds", Printf.sprintf "%.6f" wall) ]
  in
  List.iter run_plan
    [ ("none", "", false);
      ("worker_kill", "worker_kill@2,worker_kill@7,worker_kill@13", true);
      ("conn_drop", "conn_drop@3,conn_drop@11,conn_drop@19", false);
      ("frame_delay", "frame_delay@5,frame_delay@12", false);
      ("shed", "shed@1,shed@6,shed@14", false);
      ("mixed", "worker_kill@4,conn_drop@6,frame_delay@9,shed@2", true) ];
  print_endline "";
  print_endline
    "chaos: every plan drained with zero unrecovered errors and \
     bit-identical bindings"

(* {1 Smoke test (dune @bench-smoke alias)}

   A seconds-scale end-to-end exercise of the bench harness with sessions
   enabled — run in CI via [dune build @bench-smoke].  No JSON report: the
   alias runs inside dune's sandbox. *)

let smoke () =
  let problem = Designs.Accumulator.problem () in
  let solve ?(jobs = 1) ~incremental () =
    let options =
      Synth.Engine.(
        default_options |> with_incremental incremental |> with_jobs jobs)
    in
    match Synth.Engine.synthesize ~options problem with
    | Synth.Engine.Solved s -> s
    | _ ->
        prerr_endline "bench smoke: accumulator synthesis failed";
        exit 1
  in
  let inc = solve ~incremental:true () in
  let fresh = solve ~incremental:false () in
  let sti = inc.Synth.Engine.stats and stf = fresh.Synth.Engine.stats in
  Printf.printf
    "bench smoke: accumulator solved; %d rounds, %d queries, %d clauses \
     (sessions) vs %d clauses (fresh)\n"
    sti.Synth.Engine.iterations sti.Synth.Engine.queries
    sti.Synth.Engine.blasted_clauses stf.Synth.Engine.blasted_clauses;
  (* resilience counters ride along so the perf trajectory shows when the
     retry/validation machinery starts doing work on a clean run (all four
     must stay zero here: no faults, no budget, no deadline) *)
  Printf.printf
    "bench smoke: resilience counters: %d retried, %d degraded, %d \
     validation failures, %d task retries\n"
    sti.Synth.Engine.retried_queries sti.Synth.Engine.degraded_queries
    sti.Synth.Engine.validation_failures sti.Synth.Engine.task_retries;
  if
    sti.Synth.Engine.retried_queries <> 0
    || sti.Synth.Engine.degraded_queries <> 0
    || sti.Synth.Engine.validation_failures <> 0
    || sti.Synth.Engine.task_retries <> 0
  then begin
    prerr_endline "bench smoke: resilience machinery engaged on a clean run";
    exit 1
  end;
  if sti.Synth.Engine.blasted_clauses >= stf.Synth.Engine.blasted_clauses
  then begin
    prerr_endline "bench smoke: incremental mode did not blast fewer clauses";
    exit 1
  end;
  if
    inc.Synth.Engine.per_instr <> fresh.Synth.Engine.per_instr
    || inc.Synth.Engine.shared <> fresh.Synth.Engine.shared
  then begin
    (* identical bindings are not guaranteed in general, but on this tiny
       design a divergence means something structural changed — fail loud *)
    prerr_endline "bench smoke: accumulator bindings diverged between modes";
    exit 1
  end;
  (* the jobs=4 schedule must reach the same hole bindings as jobs=1 *)
  let jobs4 = solve ~jobs:4 ~incremental:true () in
  if
    inc.Synth.Engine.per_instr <> jobs4.Synth.Engine.per_instr
    || inc.Synth.Engine.shared <> jobs4.Synth.Engine.shared
  then begin
    prerr_endline "bench smoke: accumulator bindings diverged at jobs=4";
    exit 1
  end;
  print_endline "bench smoke: hole bindings bit-identical at jobs=1 and jobs=4";
  (* One traced synthesis: the emitted Chrome trace must be valid JSON
     (checked with Owl_obs's own strict parser) with a non-empty
     traceEvents array. *)
  Obs.enable ();
  Obs.enable_metrics ();
  ignore (solve ~incremental:true ());
  let trace = Obs.chrome_trace_string () in
  Obs.disable ();
  Obs.disable_metrics ();
  (match Json.parse trace with
  | doc -> (
      match Json.member "traceEvents" doc with
      | Some (Json.Arr (_ :: _ as evs)) ->
          Printf.printf "bench smoke: trace is valid JSON with %d events\n"
            (List.length evs)
      | _ ->
          prerr_endline "bench smoke: trace has no traceEvents";
          exit 1)
  | exception Json.Parse_error m ->
      prerr_endline ("bench smoke: trace is not valid JSON: " ^ m);
      exit 1);
  (* Null-sink overhead: with tracing and metrics off, a span is one
     atomic load plus a branch.  The bound is deliberately loose (it only
     catches an accidentally expensive disabled path, e.g. a lock or an
     allocation), so it holds on slow shared CI machines. *)
  let reps = 1_000_000 in
  let payload () = Sys.opaque_identity 2 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (payload ()))
  done;
  let bare = Unix.gettimeofday () -. t0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (Sys.opaque_identity (Obs.span "noop" payload))
  done;
  let spanned = Unix.gettimeofday () -. t0 in
  let per_call_ns = (spanned -. bare) *. 1e9 /. float_of_int reps in
  Printf.printf "bench smoke: disabled-span overhead %.1f ns/call\n"
    per_call_ns;
  if per_call_ns > 1000.0 then begin
    prerr_endline "bench smoke: null-sink overhead exceeds 1000 ns/call";
    exit 1
  end;
  (* Cross-run cache: a cold solve of the ALU machine (independent
     per-instruction holes, so the cacheable path runs) followed by a
     warm rerun against the same directory.  The warm run must hit, must
     issue fewer solver queries, and must reproduce the cold bindings
     bit for bit. *)
  let cache_dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "owl-smoke-cache.%d" (Unix.getpid ()))
  in
  let solve_cached () =
    let cache = Owl_cache.open_dir cache_dir in
    let options = Synth.Engine.(default_options |> with_cache (Some cache)) in
    match Synth.Engine.synthesize ~options (Designs.Alu.problem ()) with
    | Synth.Engine.Solved s -> (s, Owl_cache.counters cache)
    | _ ->
        prerr_endline "bench smoke: alu synthesis failed";
        exit 1
  in
  let cold, kc = solve_cached () in
  let warm, kw = solve_cached () in
  ignore (Owl_cache.clear (Owl_cache.open_dir cache_dir));
  List.iter
    (fun d -> try Unix.rmdir d with Unix.Unix_error _ -> ())
    [ Filename.concat cache_dir "r"; Filename.concat cache_dir "w";
      cache_dir ];
  Printf.printf
    "bench smoke: cache cold %d queries (%d writes), warm %d queries (%d \
     hits)\n"
    cold.Synth.Engine.stats.Synth.Engine.queries kc.Owl_cache.writes
    warm.Synth.Engine.stats.Synth.Engine.queries kw.Owl_cache.hits;
  if kw.Owl_cache.hits = 0 then begin
    prerr_endline "bench smoke: warm rerun produced no cache hits";
    exit 1
  end;
  if
    warm.Synth.Engine.stats.Synth.Engine.queries
    >= cold.Synth.Engine.stats.Synth.Engine.queries
  then begin
    prerr_endline "bench smoke: warm rerun did not issue fewer solver queries";
    exit 1
  end;
  if
    warm.Synth.Engine.per_instr <> cold.Synth.Engine.per_instr
    || warm.Synth.Engine.shared <> cold.Synth.Engine.shared
  then begin
    prerr_endline "bench smoke: warm bindings diverged from cold bindings";
    exit 1
  end;
  (* Miniature serve run: boot the daemon in process, push a small mixed
     batch through the wire protocol, and require hot-tier hits, zero
     protocol errors, and a clean drain — the seconds-scale version of
     the [serve] load section.  Run twice each with telemetry off and
     on: the telemetry-enabled daemon must stay within 5% wall (plus a
     small absolute floor for scheduler noise on a sub-second run) of
     the null-sink baseline, and a mid-run [metrics] request against it
     must come back with live gauges. *)
  let acc_verify =
    { problem with
      Synth.Engine.design = Designs.Accumulator.reference_design () }
  in
  let lookup kind _name =
    match kind with
    | `Synth -> Some problem
    | `Verify -> Some acc_verify
  in
  let serve_run = ref 0 in
  let serve_miniature ~telemetry () =
    incr serve_run;
    let sock =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "owl-smoke-serve.%d.%d.sock" (Unix.getpid ())
           !serve_run)
    in
    let addr = Owl_serve.Proto.Unix_path sock in
    let ready = Atomic.make false in
    let server =
      Thread.create
        (fun () ->
          Owl_serve.Server.run
            ~ready:(fun () -> Atomic.set ready true)
            {
              Owl_serve.Server.addr;
              jobs = 2;
              queue_depth = 32;
              hot_tier_size = 32;
              cache = None;
              server_name = "owl-smoke";
              telemetry;
              dump_dir = None;
            }
            ~lookup)
        ()
    in
    while not (Atomic.get ready) do
      Thread.delay 0.002
    done;
    let serve_errors = ref 0 and serve_hot = ref 0 in
    let gauges_live = ref (not telemetry) in
    let c = Owl_serve.Client.connect addr in
    let t0 = Unix.gettimeofday () in
    (try
       for seq = 0 to 19 do
         (* four distinct fingerprints per kind: 8 cold, 12 warm *)
         let options =
           Synth.Engine.(
             default_options |> with_max_iterations (300 + (seq mod 4)))
         in
         let hot =
           if seq mod 5 = 4 then
             (Owl_serve.Client.verify c ~design:"accumulator" options)
               .Owl_serve.Proto.v_hot
           else begin
             let r = Owl_serve.Client.synth c ~design:"accumulator" options in
             if r.Owl_serve.Proto.outcome <> "solved" then incr serve_errors;
             r.Owl_serve.Proto.hot
           end
         in
         if hot then incr serve_hot;
         (* scrape the live registry mid-batch: the gauges must be
            populated while the daemon is actually working *)
         if telemetry && seq = 10 then
           if
             List.exists
               (fun m -> m.Owl_serve.Proto.m_kind = "gauge")
               (Owl_serve.Client.metrics c)
           then gauges_live := true
       done
     with _ -> incr serve_errors);
    let wall = Unix.gettimeofday () -. t0 in
    let serve_stats = Owl_serve.Client.cache_stats c in
    Owl_serve.Client.shutdown c;
    Owl_serve.Client.close c;
    Thread.join server;
    let tier_hits =
      match serve_stats.Owl_serve.Proto.hot_tier with
      | Some h -> h.Owl_serve.Proto.hot_hits
      | None -> 0
    in
    Printf.printf
      "bench smoke: serve 20 requests (telemetry %s), %d hot answers (%d \
       tier hits), %d errors, %.3fs\n"
      (if telemetry then "on" else "off")
      !serve_hot tier_hits !serve_errors wall;
    if !serve_errors > 0 || !serve_hot = 0 || tier_hits = 0 then begin
      prerr_endline "bench smoke: serve run failed (errors or no hot-tier hits)";
      exit 1
    end;
    if not !gauges_live then begin
      prerr_endline "bench smoke: mid-run metrics scrape returned no gauges";
      exit 1
    end;
    if Sys.file_exists sock then begin
      prerr_endline "bench smoke: serve socket not unlinked after shutdown";
      exit 1
    end;
    wall
  in
  let min2 f = Float.min (f ()) (f ()) in
  let wall_off = min2 (serve_miniature ~telemetry:false) in
  let wall_on = min2 (serve_miniature ~telemetry:true) in
  Printf.printf
    "bench smoke: serve telemetry overhead %+.1f%% wall (off %.3fs, on %.3fs)\n"
    (100.0 *. ((wall_on /. wall_off) -. 1.0))
    wall_off wall_on;
  if wall_on > (wall_off *. 1.05) +. 0.05 then begin
    prerr_endline "bench smoke: telemetry-enabled serve exceeded the 5% budget";
    exit 1
  end;
  print_endline "bench smoke: ok"

(* {1 Micro-benchmarks (Bechamel)} *)

let micro () =
  print_endline "";
  print_endline "Micro-benchmarks (Bechamel; one representative workload per table)";
  let open Bechamel in
  let bv_a = Bitvec.of_string "128'xdeadbeefcafebabe0123456789abcdef" in
  let bv_b = Bitvec.of_string "128'x0f1e2d3c4b5a69788796a5b4c3d2e1f0" in
  let accumulator_problem = Designs.Accumulator.problem () in
  let tests =
    [ Test.make ~name:"bitvec-mul-128" (Staged.stage (fun () -> Bitvec.mul bv_a bv_b));
      Test.make ~name:"bitvec-clmul-128"
        (Staged.stage (fun () -> Bitvec.clmul bv_a bv_b));
      Test.make ~name:"term-build-adder"
        (Staged.stage (fun () ->
             let x = Term.var "mb_x" 32 and y = Term.var "mb_y" 32 in
             Term.eq (Term.add x y) (Term.add y x)));
      (* table1 representative: one full synthesis of the Fig. 3 machine *)
      Test.make ~name:"table1-accumulator-synthesis"
        (Staged.stage (fun () ->
             match Synth.Engine.synthesize accumulator_problem with
             | Synth.Engine.Solved _ -> ()
             | _ -> failwith "accumulator synthesis failed"));
      (* table2 representative: netlist compilation of the ALU machine *)
      Test.make ~name:"table2-netlist-alu"
        (Staged.stage (fun () ->
             ignore
               (Netlist.of_design ~optimize:true (Designs.Alu.reference_design ()))));
      (* table3 representative: one simulated core cycle *)
      Test.make ~name:"table3-core-cycle"
        (Staged.stage
           (let design = Designs.Crypto_core.reference_design () in
            let st =
              Designs.Testbench.load_core design
                ~program:[ Bitvec.of_int ~width:32 0x13 ]
                ~dmem_init:[]
            in
            fun () -> ignore (Oyster.Interp.step st)))
    ]
  in
  List.iter
    (fun t ->
      let instances = [ Toolkit.Instance.monotonic_clock ] in
      let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) () in
      let results = Benchmark.all cfg instances t in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let a = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name est ->
          match Analyze.OLS.estimates est with
          | Some [ v ] -> Printf.printf "%-32s %12.0f ns/run\n%!" name v
          | _ -> Printf.printf "%-32s (no estimate)\n%!" name)
        a)
    tests

(* {1 Driver} *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let args =
    List.filter_map
      (fun a ->
        match String.index_opt a '=' with
        | Some i when String.sub a 0 i = "--deadline" ->
            deadline :=
              float_of_string (String.sub a (i + 1) (String.length a - i - 1));
            None
        | _ -> Some a)
      args
  in
  let sections_tbl =
    [ ("table1", table1); ("table2", table2); ("table3", table3);
      ("ablation", ablation); ("parallel", parallel);
      ("incremental", incremental); ("cache", cache_bench);
      ("serve", serve_bench); ("chaos", chaos); ("micro", micro) ]
  in
  let run_sections names =
    (* histogram/counter collection across every section; the summaries
       land in the report's "metrics" array *)
    Obs.enable_metrics ();
    List.iter
      (fun name ->
        let (), dt = time (List.assoc name sections_tbl) in
        Report.record_section name dt)
      names;
    Report.write ()
  in
  match args with
  | [] | [ "all" ] ->
      run_sections
        [ "table1"; "table2"; "table3"; "ablation"; "parallel";
          "incremental"; "cache"; "serve"; "chaos" ]
  | [ "smoke" ] -> smoke ()
  | (_ :: _ as names) when List.for_all (fun n -> List.mem_assoc n sections_tbl) names ->
      run_sections names
  | _ ->
      prerr_endline
        "usage: main.exe \
         [all|table1|table2|table3|ablation|parallel|incremental|cache|serve|\
         chaos|micro|smoke] [--deadline=SECONDS]";
      exit 1
