(* The three batch workloads: a fixed list of engine calls per pass, run
   at [-j 1] in this process.  A pass returns its timed operations plus
   deferred output checks, so the oracles never run inside the timed
   body. *)

type op = {
  label : string;  (** design label, as in the per-layer metric names *)
  kind : [ `Synthesize | `Verify | `Cubes ];
  seconds : float;
  ok : bool;
  note : string;  (** outcome, or why the operation failed *)
  signature : string;
      (** what must repeat exactly on every run: engine counters and a
          digest of the bindings or verdicts *)
  counts : (string * int) list;  (** engine statistics, summed per pass *)
}

type pass = {
  ops : op list;
  checks : unit -> (string * (string, string) result) list;
      (** output oracles on this pass's results *)
  layer_inputs : Layers.input list;  (** designs for the outside layer calls *)
}

type env = {
  pass_seconds : float;
      (** a fixed estimate of one pass's wall time, from the 2-vCPU machine
          the benchmark was tuned on.  An untraced run makes
          [max 1 (round (seconds /. pass_seconds))] passes, so a parent and
          a change always do the same work.  At the 15 s runs
          BENCHMARK.json asks for, that is one pass. *)
  run_pass : unit -> pass;
  speedup_j2 : (unit -> (string * float) list) option;
      (** per-design [-j 2] synthesis walls, for [pool.speedup_j2] *)
}

let digest parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

(* {1 Synthesis} *)

type case = {
  c_label : string;
  c_problem : Synth.Engine.problem;
  c_check : seed:int -> Oyster.Ast.design -> (string, string) result;
}

let synth ~jobs case =
  let options = Synth.Engine.(default_options |> with_jobs jobs) in
  let outcome, seconds =
    Clock.time (fun () -> Synth.Engine.synthesize ~options case.c_problem)
  in
  let failed note =
    ( { label = case.c_label; kind = `Synthesize; seconds; ok = false; note;
        signature = note; counts = [] },
      None )
  in
  match outcome with
  | Synth.Engine.Solved s ->
      let st = s.Synth.Engine.stats in
      let bindings =
        List.map
          (fun (h, e) -> h ^ "=" ^ Oyster.Printer.expr_to_string e)
          s.Synth.Engine.bindings
      in
      let counts =
        [ ("engine.iterations", st.Synth.Engine.iterations);
          ("engine.queries", st.Synth.Engine.queries);
          ("engine.blasted_clauses", st.Synth.Engine.blasted_clauses);
          ("engine.trivial_unsats", st.Synth.Engine.trivial_unsats) ]
      in
      ( { label = case.c_label; kind = `Synthesize; seconds; ok = true;
          note = "solved";
          signature =
            Printf.sprintf "%s it=%d q=%d c=%d cl=%d b=%s" case.c_label
              st.Synth.Engine.iterations st.Synth.Engine.queries
              st.Synth.Engine.conflicts st.Synth.Engine.blasted_clauses
              (digest bindings);
          counts },
        Some s.Synth.Engine.completed )
  | Synth.Engine.Timeout _ -> failed "timeout"
  | Synth.Engine.Unrealizable { instr; _ } ->
      failed ("unrealizable " ^ Option.value instr ~default:"?")
  | Synth.Engine.Union_failed { diagnostic; _ } -> failed ("union failed: " ^ diagnostic)
  | Synth.Engine.Not_independent _ -> failed "not independent"

let synth_env ~seed cases =
  let run_pass () =
    let results = List.map (fun c -> (c, synth ~jobs:1 c)) cases in
    let solved =
      List.filter_map
        (fun (c, (_, d)) -> Option.map (fun d -> (c, d)) d)
        results
    in
    { ops = List.map (fun (_, (op, _)) -> op) results;
      checks =
        (fun () ->
          List.map (fun (c, d) -> (c.c_label, c.c_check ~seed d)) solved);
      layer_inputs =
        List.map
          (fun (c, d) -> { Layers.problem = c.c_problem; completed = d })
          solved }
  in
  let speedup_j2 () =
    List.map (fun c -> (c.c_label, (fst (synth ~jobs:2 c)).seconds)) cases
  in
  (run_pass, speedup_j2)

let cosim variant ~tag ~seed d = Oracles.cosim ~seed ~tag d variant

let table1_cases () =
  let open Designs in
  [ { c_label = "aes"; c_problem = Aes.problem ();
      c_check = (fun ~seed d -> Oracles.aes ~seed d) };
    { c_label = "rv32i"; c_problem = Riscv_single.problem Isa.Rv32.RV32I;
      c_check = cosim Isa.Rv32.RV32I ~tag:"rv32i" };
    { c_label = "rv32i_zbkb"; c_problem = Riscv_single.problem Isa.Rv32.RV32I_Zbkb;
      c_check = cosim Isa.Rv32.RV32I_Zbkb ~tag:"rv32i_zbkb" };
    { c_label = "rv32i_zbkc"; c_problem = Riscv_single.problem Isa.Rv32.RV32I_Zbkc;
      c_check = cosim Isa.Rv32.RV32I_Zbkc ~tag:"rv32i_zbkc" };
    { c_label = "two_stage_rv32i";
      c_problem = Riscv_two_stage.problem Isa.Rv32.RV32I;
      c_check = cosim Isa.Rv32.RV32I ~tag:"two_stage_rv32i" };
    { c_label = "crypto"; c_problem = Crypto_core.problem ();
      c_check = (fun ~seed d -> Oracles.sha ~seed d) } ]

let synth_table1 ~seed () =
  let run_pass, speedup = synth_env ~seed (table1_cases ()) in
  { pass_seconds = 18.0; run_pass; speedup_j2 = Some speedup }

let synth_rv32im ~seed () =
  let case =
    { c_label = "rv32im";
      c_problem = Designs.Riscv_single.problem Isa.Rv32.RV32I_M;
      c_check = cosim Isa.Rv32.RV32I_M ~tag:"rv32im" }
  in
  let run_pass, _ = synth_env ~seed [ case ] in
  { pass_seconds = 18.0; run_pass; speedup_j2 = None }

(* {1 Verification} *)

let reference_problems () =
  let open Designs in
  let single v =
    { (Riscv_single.problem v) with
      Synth.Engine.design = Riscv_single.reference_design v }
  in
  [ ("aes", { (Aes.problem ()) with Synth.Engine.design = Aes.reference_design () });
    ("rv32i", single Isa.Rv32.RV32I);
    ("rv32i_zbkb", single Isa.Rv32.RV32I_Zbkb);
    ("rv32i_zbkc", single Isa.Rv32.RV32I_Zbkc);
    ("rv32im", single Isa.Rv32.RV32I_M) ]

let verify (label, problem) =
  let verdicts, seconds = Clock.time (fun () -> Synth.Engine.verify problem) in
  let bad =
    List.filter (fun (_, v) -> v <> Synth.Engine.Verified) verdicts
  in
  { label; kind = `Verify; seconds; ok = bad = [];
    note =
      (if bad = [] then Printf.sprintf "%d verified" (List.length verdicts)
       else "not verified: " ^ String.concat " " (List.map fst bad));
    signature =
      Printf.sprintf "%s v=%s" label
        (digest
           (List.map
              (fun (i, v) -> i ^ if v = Synth.Engine.Verified then "+" else "-")
              verdicts));
    counts = [] }

(* The monolithic ∀-verify query, refuted by 32 structural cubes. *)
let cube_vars = 5

(* cube verdicts across the run, for [portfolio.cubes_unsat_ratio] *)
let cube_tally = Synth.Portfolio.create_tally ()

let cubes (label, problem) =
  let outcome, seconds =
    Clock.time (fun () ->
        Synth.Portfolio.check
          ~options:Synth.Portfolio.(default |> with_cube_vars cube_vars)
          ~tally:cube_tally ~jobs:1 ~strategy:Solver.Strategy.default
          [ Synth.Engine.monolithic_violation problem ])
  in
  let st = Solver.stats_of outcome in
  let ok = match outcome with Solver.Unsat _ -> true | _ -> false in
  { label; kind = `Cubes; seconds; ok;
    note = Solver.outcome_name outcome;
    signature =
      Printf.sprintf "%s cubes %s c=%d cl=%d" label (Solver.outcome_name outcome)
        st.Solver.sat_conflicts st.Solver.sat_clauses;
    counts = [] }

let verify_refs ~seed:_ () =
  let refs = reference_problems () in
  let cube_refs = List.filter (fun (l, _) -> l = "rv32i" || l = "rv32im") refs in
  let run_pass () =
    { ops = List.map verify refs @ List.map cubes cube_refs;
      checks = (fun () -> []);
      layer_inputs =
        List.map
          (fun (_, p) -> { Layers.problem = p; completed = p.Synth.Engine.design })
          refs }
  in
  { pass_seconds = 13.0; run_pass; speedup_j2 = None }
