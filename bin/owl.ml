(* owl — the command-line driver for the control logic synthesis toolchain.

     owl list                         show the bundled case studies
     owl print -d <design>           print a sketch as textual Oyster
     owl synth -d <design> [...]     synthesize control logic
     owl cosim -d <core>             synthesize, then co-simulate against the ISS
     owl independence -d <design>    check the independence conditions
     owl verify -d <design>          verify the hand-written reference control
     owl check <file.oyster>         parse + typecheck a textual design
     owl netlist <file.oyster>       gate counts for a hole-free design
     owl verilog <file.oyster>       gate-level Verilog of its optimized netlist
     owl sim <file.oyster> -n N      simulate N cycles (inputs forced to 0)
     owl cache / serve / client / top  the cache and the synthesis service *)

open Cmdliner

(* {1 The case-study registry}

   Every command that names a case study reads it here: the sketch
   problem, the hand-written reference control, and, for the processor
   cores, the ISS variant and program profile [owl cosim] checks with. *)

type entry = {
  description : string;
  problem : unit -> Synth.Engine.problem;
  reference : unit -> Oyster.Ast.design;
  iss : (Isa.Rv32.isa_variant * [ `Standard | `Cmov ]) option;
}

let entry ?iss description problem reference =
  { description; problem; reference; iss }

(* a RISC-V core of one ISA variant, co-simulated on standard programs *)
let core (problem, reference) description variant =
  entry ~iss:(variant, `Standard) description
    (fun () -> problem variant)
    (fun () -> reference variant)

let registry : (string * entry) list =
  let single = Designs.Riscv_single.(problem, reference_design) in
  let two_stage = Designs.Riscv_two_stage.(problem, reference_design) in
  [ ("accumulator",
     entry "FSM accumulator machine (paper Fig. 3)"
       Designs.Accumulator.problem Designs.Accumulator.reference_design);
    ("alu",
     entry "three-stage pipelined ALU machine (paper Fig. 2)"
       Designs.Alu.problem Designs.Alu.reference_design);
    ("rv32-single",
     core single "single-cycle RV32I core (paper 4.1.1)" Isa.Rv32.RV32I);
    ("rv32-single-zbkb",
     core single "single-cycle RV32I+Zbkb core" Isa.Rv32.RV32I_Zbkb);
    ("rv32-single-m",
     core single "single-cycle RV32I+M core (multiply/divide; beyond the paper)"
       Isa.Rv32.RV32I_M);
    ("rv32-single-zbkc",
     core single "single-cycle RV32I+Zbkb+Zbkc core" Isa.Rv32.RV32I_Zbkc);
    ("rv32-two-stage",
     core two_stage "two-stage pipelined RV32I core (paper 4.1.2)"
       Isa.Rv32.RV32I);
    ("rv32-two-stage-zbkb",
     core two_stage "two-stage pipelined RV32I+Zbkb core" Isa.Rv32.RV32I_Zbkb);
    ("rv32-two-stage-zbkc",
     core two_stage "two-stage pipelined RV32I+Zbkb+Zbkc core"
       Isa.Rv32.RV32I_Zbkc);
    ("crypto-core",
     entry ~iss:(Isa.Rv32.RV32I_Zbkb, `Cmov)
       "three-stage constant-time cryptography core (paper 4.2)"
       Designs.Crypto_core.problem Designs.Crypto_core.reference_design);
    ("aes",
     entry "AES-128 hardware accelerator (paper 4.3)" Designs.Aes.problem
       Designs.Aes.reference_design);
    ("gcd",
     entry "GCD accelerator (FSM with data-dependent decode)"
       Designs.Gcd.problem Designs.Gcd.reference_design) ]

let resolve name =
  match List.assoc_opt name registry with
  | Some e -> e
  | None ->
      Printf.eprintf "unknown design %S; try `owl list'\n" name;
      exit 1

(* verification checks the hand-written reference control, offline and
   through the daemon alike *)
let reference_problem e =
  { (e.problem ()) with Synth.Engine.design = e.reference () }

(* {1 Reporting shared by the offline and the remote commands} *)

(* exit status per outcome, by wire name so [owl client synth] shares it *)
let exit_outcome = function
  | "solved" -> ()
  | "timeout" -> exit 2
  | "unrealizable" -> exit 3
  | "union_failed" -> exit 4
  | "not_independent" -> exit 5
  | _ -> exit 6

(* The full statistics record, resilience tallies included, one row per
   field: what [owl synth] prints for a local run and [owl client synth]
   for a remote one. *)
let print_stats (st : Synth.Engine.stats) =
  let row name value = Printf.printf "  %-22s %d\n" name value in
  row "iterations" st.iterations;
  row "queries" st.queries;
  row "conflicts" st.conflicts;
  row "blasted vars" st.blasted_vars;
  row "blasted clauses" st.blasted_clauses;
  row "trivial unsats" st.trivial_unsats;
  row "retried queries" st.retried_queries;
  row "degraded queries" st.degraded_queries;
  row "validation failures" st.validation_failures;
  row "task retries" st.task_retries;
  row "sat restarts" st.sat_restarts;
  row "sat learnt kept" st.sat_learnt_kept;
  row "sat learnt deleted" st.sat_learnt_deleted;
  Printf.printf "  %-22s %.2f\n" "wall seconds" st.wall_seconds

(* [(instruction, verdict name)] rows, the tally, and exit 1 unless every
   instruction verified *)
let report_verdicts ?(hot = false) rows =
  let verified = Synth.Engine.verdict_name Synth.Engine.Verified in
  List.iter (fun (instr, v) -> Printf.printf "  %-20s %s\n" instr v) rows;
  let good = List.length (List.filter (fun (_, v) -> v = verified) rows) in
  Printf.printf "%d/%d instructions verified%s\n" good (List.length rows)
    (if hot then " [hot]" else "");
  if good < List.length rows then exit 1

(* {1 Commands} *)

let list_cmd =
  let run () =
    List.iter
      (fun (name, e) -> Printf.printf "%-19s %s\n" name e.description)
      registry
  in
  Cmd.v (Cmd.info "list" ~doc:"List the bundled case-study designs")
    Term.(const run $ const ())

let design_arg =
  let doc = "Case-study design name (see `owl list')." in
  Arg.(required & opt (some string) None & info [ "d"; "design" ] ~docv:"NAME" ~doc)

let print_cmd =
  let reference =
    Arg.(value & flag & info [ "reference" ] ~doc:"Print the hand-written reference design instead of the sketch.")
  in
  let run name reference =
    let e = resolve name in
    let d =
      if reference then e.reference () else (e.problem ()).Synth.Engine.design
    in
    print_string (Oyster.Printer.design_to_string d)
  in
  Cmd.v (Cmd.info "print" ~doc:"Print a design as textual Oyster IR")
    Term.(const run $ design_arg $ reference)

(* The engine-tuning, fault-plan, observability, and cache flags are
   shared between subcommands and declared once in {!Args}. *)

(* every synthesis-layer failure (engine, union) shares one
   structured exception; report it uniformly instead of crashing *)
let or_engine_error f =
  try f ()
  with Synth.Engine.Engine_error m ->
    Printf.eprintf "owl: synthesis error: %s\n" m;
    exit 6

let synth_cmd =
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the completed design (Oyster text) to $(docv).")
  in
  let pyrtl =
    Arg.(value & flag
         & info [ "pyrtl" ] ~doc:"Print the generated control logic PyRTL-style (paper Fig. 7).")
  in
  let run name options output pyrtl cache_dir no_cache fault_plan trace
      metrics =
    Args.install_fault_plan fault_plan;
    Args.install_observability ~trace ~metrics;
    let e = resolve name in
    let cache = Args.open_cache ~cache_dir ~no_cache in
    if cache <> None then
      (* [at_exit] so the timeout/unrealizable exit paths report too *)
      at_exit (fun () -> Args.report_cache cache);
    let options = Synth.Engine.with_cache cache options in
    let outcome =
      or_engine_error (fun () -> Synth.Engine.synthesize ~options (e.problem ()))
    in
    (match outcome with
    | Synth.Engine.Solved s ->
        let st = s.Synth.Engine.stats in
        Printf.printf
          "solved in %.2fs: %d CEGIS rounds, %d solver queries, %d conflicts\n"
          st.Synth.Engine.wall_seconds st.Synth.Engine.iterations
          st.Synth.Engine.queries st.Synth.Engine.conflicts;
        print_stats st;
        if pyrtl then begin
          print_endline "";
          print_string
            (Hdl.Pyrtl.generated_to_string ~pre_exprs:s.Synth.Engine.pre_exprs
               ~per_instr:s.Synth.Engine.per_instr
               ~shared:s.Synth.Engine.shared)
        end;
        Option.iter
          (fun file ->
            let oc = open_out file in
            output_string oc
              (Oyster.Printer.design_to_string s.Synth.Engine.completed);
            close_out oc;
            Printf.printf "completed design written to %s\n" file)
          output
    | Synth.Engine.Timeout st ->
        Printf.printf
          "timeout after %.1fs (%d CEGIS rounds, %d solver queries, %d \
           conflicts)\n"
          st.Synth.Engine.wall_seconds st.Synth.Engine.iterations
          st.Synth.Engine.queries st.Synth.Engine.conflicts
    | Synth.Engine.Unrealizable { instr; _ } ->
        Printf.printf "unrealizable: no control logic satisfies %s\n"
          (Option.value instr ~default:"the specification")
    | Synth.Engine.Union_failed { diagnostic; _ } ->
        Printf.printf "union failed: %s\n" diagnostic
    | Synth.Engine.Not_independent { overlapping; feedback; _ } ->
        Printf.printf
          "instruction independence fails: %d overlapping pairs, %d feedback paths\n"
          (List.length overlapping) (List.length feedback));
    exit_outcome (Synth.Engine.outcome_name outcome)
  in
  Cmd.v
    (Cmd.info "synth" ~doc:"Synthesize control logic for a case-study design")
    Term.(const run $ design_arg
          $ Args.engine_options ~synth:true ~remote:false
          $ output $ pyrtl $ Args.cache_dir $ Args.no_cache $ Args.fault_plan
          $ Args.trace $ Args.metrics)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.oyster")

(* The one loader of the file commands: parse and typecheck, and for the
   hardware commands ([hole_free]) reject a sketch.  Every error prints as
   [owl: FILE: ...] and exits 1. *)
let load ?(hole_free = false) file =
  let error fmt =
    Printf.ksprintf
      (fun m ->
        Printf.eprintf "owl: %s: %s\n" file m;
        exit 1)
      fmt
  in
  match
    let src = In_channel.with_open_bin file In_channel.input_all in
    let d = Oyster.Parser.parse_design src in
    ignore (Oyster.Typecheck.check d);
    d
  with
  | exception Oyster.Parser.Parse_error m -> error "parse error: %s" m
  | exception Oyster.Typecheck.Type_error m -> error "type error: %s" m
  | d ->
      let holes = List.length (Oyster.Ast.holes d) in
      if hole_free && holes > 0 then
        error "design %s has %d holes; synthesize it first" d.Oyster.Ast.name holes;
      d

let check_cmd =
  let run file =
    let d = load file in
    Printf.printf "%s: ok (%d declarations, %d statements, %d holes, %d LoC)\n"
      d.Oyster.Ast.name
      (List.length d.Oyster.Ast.decls)
      (List.length d.Oyster.Ast.stmts)
      (List.length (Oyster.Ast.holes d))
      (Oyster.Printer.loc d)
  in
  Cmd.v (Cmd.info "check" ~doc:"Parse and typecheck a textual Oyster design")
    Term.(const run $ file_arg)

let netlist_cmd =
  let optimize =
    Arg.(value & flag & info [ "optimize" ] ~doc:"Apply the logic optimizer.")
  in
  let run file optimize =
    let c = Netlist.(counts (compile ~optimize (load ~hole_free:true file))) in
    Printf.printf "and %d  or %d  xor %d  not %d  mux %d  | gates %d  dffs %d\n"
      c.Netlist.ands c.Netlist.ors c.Netlist.xors c.Netlist.nots c.Netlist.muxes
      c.Netlist.total_gates c.Netlist.dffs
  in
  Cmd.v
    (Cmd.info "netlist" ~doc:"Compile a hole-free design to gates and count them")
    Term.(const run $ file_arg $ optimize)

let cosim_cmd =
  (* co-simulate a synthesized core against the ISS on random programs *)
  let seeds =
    Arg.(value & opt int 5 & info [ "seeds" ] ~docv:"N" ~doc:"Number of random programs.")
  in
  let run name seeds =
    let e = resolve name in
    let variant, profile =
      match e.iss with
      | Some iss -> iss
      | None ->
          Printf.eprintf "owl: %s has no ISS model; cosim covers the processor cores\n"
            name;
          exit 1
    in
    match or_engine_error (fun () -> Synth.Engine.synthesize (e.problem ())) with
    | Synth.Engine.Solved s ->
        Printf.printf "synthesized in %.2fs; co-simulating %d random programs...\n%!"
          s.Synth.Engine.stats.Synth.Engine.wall_seconds seeds;
        let failures = ref 0 in
        for seed = 1 to seeds do
          match
            Designs.Testbench.cosim ~profile s.Synth.Engine.completed variant
              (Random.State.make [| seed; 4096 |])
          with
          | Ok () -> Printf.printf "  seed %2d: OK\n%!" seed
          | Error m ->
              incr failures;
              Printf.printf "  seed %2d: MISMATCH (%s)\n%!" seed m
        done;
        if !failures > 0 then exit 1
    | o ->
        Printf.eprintf "owl: synthesis %s\n" (Synth.Engine.outcome_name o);
        exit 1
  in
  Cmd.v
    (Cmd.info "cosim"
       ~doc:
         "Synthesize a processor core and co-simulate it against the ISS \
          oracle (registers and data memory)")
    Term.(const run $ design_arg $ seeds)

let independence_cmd =
  let run name =
    let problem = (resolve name).problem () in
    Printf.printf "%d instructions, mutual exclusion decided by one query\n"
      (List.length (Ila.Spec.instructions problem.Synth.Engine.spec));
    match Synth.Engine.independence problem with
    | None ->
        print_endline "mutually exclusive preconditions: inconclusive";
        exit_outcome "timeout"
    | Some { Synth.Engine.overlapping; feedback } ->
        if overlapping = [] then
          print_endline "mutually exclusive preconditions: yes"
        else
          Printf.printf "OVERLAPPING pairs: %s\n"
            (String.concat ", "
               (List.map (fun (a, b) -> a ^ "/" ^ b) overlapping));
        List.iter
          (fun p ->
            Printf.printf "FEEDBACK: %s\n" (Synth.Independence.path_to_string p))
          feedback;
        if feedback = [] then print_endline "no control feedback: yes";
        if overlapping <> [] || feedback <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "independence"
       ~doc:"Check the instruction-independence conditions (paper 3.3.1)")
    Term.(const run $ design_arg)

let verify_cmd =
  (* verify the hand-written reference control against the specification *)
  let run name options fault_plan trace metrics =
    Args.install_fault_plan fault_plan;
    Args.install_observability ~trace ~metrics;
    let problem = reference_problem (resolve name) in
    or_engine_error (fun () -> Synth.Engine.verify ~options problem)
    |> List.map (fun (instr, v) -> (instr, Synth.Engine.verdict_name v))
    |> report_verdicts
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Formally verify the hand-written reference control against the ILA specification")
    Term.(const run $ design_arg
          $ Args.engine_options ~synth:false ~remote:false
          $ Args.fault_plan $ Args.trace $ Args.metrics)

let verilog_cmd =
  let run file =
    print_string Netlist.(verilog (compile ~optimize:true (load ~hole_free:true file)))
  in
  Cmd.v
    (Cmd.info "verilog"
       ~doc:
         "Print a hole-free design's optimized gate graph (what `owl netlist \
          --optimize' counts) as structural Verilog-2001")
    Term.(const run $ file_arg)

let sim_cmd =
  let cycles =
    Arg.(value & opt int 10 & info [ "n"; "cycles" ] ~docv:"N" ~doc:"Cycles to run.")
  in
  let vcd =
    Arg.(value & opt (some string) None
         & info [ "vcd" ] ~docv:"FILE" ~doc:"Write a waveform dump to $(docv).")
  in
  let run file cycles vcd =
    let d = load ~hole_free:true file in
    let st = Oyster.Interp.init d in
    let recorder = Oyster.Vcd.create d in
    for c = 1 to cycles do
      let r = Oyster.Interp.step ~inputs:(fun _ w -> Bitvec.zero w) st in
      Oyster.Vcd.sample recorder st r;
      Printf.printf "cycle %3d:" c;
      List.iter
        (fun (n, v) -> Printf.printf " %s=%s" n (Bitvec.to_string v))
        r.Oyster.Interp.outputs;
      print_newline ()
    done;
    match vcd with
    | Some file ->
        let oc = open_out file in
        output_string oc (Oyster.Vcd.to_string recorder);
        close_out oc;
        Printf.printf "waveforms written to %s\n" file
    | None -> ()
  in
  Cmd.v
    (Cmd.info "sim"
       ~doc:"Simulate a hole-free design with all inputs forced to zero")
    Term.(const run $ file_arg $ cycles $ vcd)

let cache_cmd =
  (* maintenance for the on-disk synthesis cache; a missing directory is
     just reported, never created *)
  let dir_term =
    Term.(const (Option.value ~default:Args.default_cache_dir) $ Args.cache_dir)
  in
  let stats_cmd =
    let json =
      Arg.(value & flag
           & info [ "json" ]
               ~doc:
                 "Emit the statistics as JSON, in the serve protocol's \
                  cache_stats schema (the same record `owl client stats \
                  --json' prints for a live server).")
    in
    (* one schema for cache state everywhere: the offline fields the
       daemon would fill (hot tier, served/rejected, uptime) read as
       null/zero here *)
    let empty_stats =
      {
        Owl_serve.Proto.disk = None;
        store = None;
        hot_tier = None;
        served = 0;
        rejected = 0;
        uptime_seconds = 0.0;
      }
    in
    let run dir json =
      if not (Sys.file_exists dir) then
        if json then
          print_endline (Owl_serve.Proto.cache_stats_to_json empty_stats)
        else Printf.printf "%s: no cache\n" dir
      else
        let s = Owl_cache.disk_stats (Owl_cache.open_dir dir) in
        if json then
          print_endline
            (Owl_serve.Proto.cache_stats_to_json
               { empty_stats with Owl_serve.Proto.disk = Some s })
        else
          Printf.printf "%s: %d result entries, %d bytes\n" dir
            s.Owl_cache.result_entries s.Owl_cache.total_bytes
    in
    Cmd.v (Cmd.info "stats" ~doc:"Show entry counts and on-disk size")
      Term.(const run $ dir_term $ json)
  in
  let clear_cmd =
    let run dir =
      if not (Sys.file_exists dir) then
        Printf.printf "%s: no cache\n" dir
      else
        let n = Owl_cache.clear (Owl_cache.open_dir dir) in
        Printf.printf "%s: %d entries removed\n" dir n
    in
    Cmd.v (Cmd.info "clear" ~doc:"Remove every cache entry")
      Term.(const run $ dir_term)
  in
  Cmd.group
    (Cmd.info "cache" ~doc:"Inspect or clear the cross-run synthesis cache")
    [ stats_cmd; clear_cmd ]

(* {1 The synthesis service}

   [owl serve] runs the long-lived daemon; [owl client *] talks to it.
   The registry is shared with the offline subcommands: a request names
   a case study and the server constructs the problem, so ISA specs and
   sketches never cross the wire. *)

let serve_cmd =
  let run addr jobs queue_depth hot_tier_size cache_dir no_cache trace metrics
      fault_plan no_telemetry dump_dir =
    Args.check_jobs jobs;
    Args.check_serve ~queue_depth ~hot_tier_size;
    Args.install_observability ~trace ~metrics;
    (* chaos testing: worker_kill/conn_drop/frame_delay/shed directives
       land in the serve layer, the solver directives in the engine *)
    Args.install_fault_plan fault_plan;
    let cache = Args.open_cache ~cache_dir ~no_cache in
    let lookup kind name =
      Option.map
        (fun e ->
          match kind with
          | `Synth -> e.problem ()
          | `Verify -> reference_problem e)
        (List.assoc_opt name registry)
    in
    Printf.printf
      "owl serve: listening on %s (%d worker%s, queue depth %d, hot tier %d)\n%!"
      (Owl_serve.Proto.addr_to_string addr)
      jobs
      (if jobs = 1 then "" else "s")
      queue_depth hot_tier_size;
    Owl_serve.Server.run
      {
        Owl_serve.Server.addr;
        jobs;
        queue_depth;
        hot_tier_size;
        cache;
        server_name = "owl/1.0.0";
        telemetry = not no_telemetry;
        dump_dir;
      }
      ~lookup;
    print_endline "owl serve: drained and shut down"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the synthesis daemon (long-lived, multi-client)")
    Term.(const run $ Args.addr $ Args.jobs $ Args.queue_depth
          $ Args.hot_tier_size $ Args.cache_dir $ Args.no_cache $ Args.trace
          $ Args.metrics $ Args.fault_plan $ Args.no_telemetry $ Args.dump_dir)

(* shared by [owl client *] and [owl top] *)
let describe_client_error = function
  | Owl_serve.Client.Server_busy n -> Printf.sprintf "server busy, %d queued" n
  | Owl_serve.Client.Server_error e ->
      Printf.sprintf "server error %s" e.Owl_serve.Proto.code
  | Owl_serve.Client.Protocol_error _ | Owl_serve.Proto.Framing_error _ ->
      "connection broken"
  | Unix.Unix_error (e, _, _) -> Unix.error_message e
  | e -> Printexc.to_string e

(* every attempt gets a fresh connection; [Client.with_retry] spaces
   them out with jittered exponential backoff.  Only the final failure
   reaches the error reporting below. *)
let with_client addr (retries, backoff_ms) f =
  try
    Owl_serve.Client.with_retry ~retries ~backoff_ms
      ~on_retry:(fun ~attempt ~delay e ->
        Printf.eprintf "owl: attempt %d failed (%s); retrying in %.2fs\n%!"
          attempt (describe_client_error e) delay)
      addr f
  with
  | Owl_serve.Client.Server_busy n ->
      Printf.eprintf "owl: server busy (%d requests queued); retry later\n" n;
      exit 7
  | Owl_serve.Client.Server_error e ->
      Printf.eprintf "owl: server error (%s): %s\n" e.Owl_serve.Proto.code
        e.Owl_serve.Proto.message;
      exit 6
  | Owl_serve.Client.Protocol_error m | Owl_serve.Proto.Framing_error m ->
      Printf.eprintf "owl: protocol error: %s\n" m;
      exit 6
  | Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT) as e, _, _) ->
      Printf.eprintf "owl: cannot reach server at %s: %s\n"
        (Owl_serve.Proto.addr_to_string addr)
        (Unix.error_message e);
      exit 1
  | Unix.Unix_error (e, _, _) ->
      Printf.eprintf "owl: connection lost: %s\n" (Unix.error_message e);
      exit 6

let client_cmd =
  let quiet =
    Arg.(value & flag
         & info [ "q"; "quiet" ] ~doc:"Suppress streamed progress events.")
  in
  let on_progress quiet p =
    if not quiet then
      match p with
      | Owl_serve.Proto.Instr_started { instr } ->
          Printf.printf "  > %s...\n%!" instr
      | Owl_serve.Proto.Instr_done { instr; status; iterations; queries } ->
          (* a verified instruction runs no rounds; a cache hit no queries *)
          let rounds =
            if iterations = 0 then "" else Printf.sprintf "%d rounds, " iterations
          in
          if queries = 0 then Printf.printf "  < %-20s %s\n%!" instr status
          else
            Printf.printf "  < %-20s %s (%s%d queries)\n%!" instr status rounds
              queries
      | Owl_serve.Proto.Retry { attempt; reason } ->
          Printf.printf "  ! retry, attempt %d (%s)\n%!" attempt reason
      | Owl_serve.Proto.Degraded { attempt } ->
          Printf.printf "  ! degraded to a fresh solver (attempt %d)\n%!"
            attempt
  in
  let synth_cmd =
    let run name addr retry options quiet =
      with_client addr retry (fun c ->
          let r =
            Owl_serve.Client.synth ~on_progress:(on_progress quiet) c
              ~design:name options
          in
          Printf.printf "%s%s%s\n" r.Owl_serve.Proto.outcome
            (if r.Owl_serve.Proto.detail = "" then ""
             else ": " ^ r.Owl_serve.Proto.detail)
            (if r.Owl_serve.Proto.hot then " [hot]" else "");
          print_stats r.Owl_serve.Proto.stats;
          List.iter
            (fun (hole, expr) -> Printf.printf "  %s = %s\n" hole expr)
            r.Owl_serve.Proto.bindings;
          exit_outcome r.Owl_serve.Proto.outcome)
    in
    Cmd.v
      (Cmd.info "synth" ~doc:"Synthesize a case study on the server")
      Term.(const run $ design_arg $ Args.addr $ Args.client_retry
            $ Args.engine_options ~synth:true ~remote:true $ quiet)
  in
  let verify_cmd =
    let run name addr retry options quiet =
      with_client addr retry (fun c ->
          let r =
            Owl_serve.Client.verify ~on_progress:(on_progress quiet) c
              ~design:name options
          in
          report_verdicts ~hot:r.Owl_serve.Proto.v_hot
            r.Owl_serve.Proto.verdicts)
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:"Verify a case study's reference control on the server")
      Term.(const run $ design_arg $ Args.addr $ Args.client_retry
            $ Args.engine_options ~synth:false ~remote:true $ quiet)
  in
  let stats_cmd =
    let json =
      Arg.(value & flag
           & info [ "json" ] ~doc:"Emit the cache_stats record as JSON.")
    in
    let run addr retry json =
      with_client addr retry (fun c ->
          let s = Owl_serve.Client.cache_stats c in
          if json then
            print_endline (Owl_serve.Proto.cache_stats_to_json s)
          else begin
            (match s.Owl_serve.Proto.hot_tier with
            | Some h ->
                Printf.printf "hot tier: %d/%d entries, %d hits, %d misses, %d evictions\n"
                  h.Owl_serve.Proto.hot_size h.Owl_serve.Proto.hot_capacity
                  h.Owl_serve.Proto.hot_hits h.Owl_serve.Proto.hot_misses
                  h.Owl_serve.Proto.hot_evictions
            | None -> ());
            (match s.Owl_serve.Proto.store with
            | Some k ->
                Printf.printf "disk cache: %d hits, %d misses, %d stale, %d writes\n"
                  k.Owl_cache.hits k.Owl_cache.misses k.Owl_cache.stale
                  k.Owl_cache.writes
            | None -> print_endline "disk cache: none");
            (match s.Owl_serve.Proto.disk with
            | Some d ->
                Printf.printf "disk usage: %d result entries, %d bytes\n"
                  d.Owl_cache.result_entries d.Owl_cache.total_bytes
            | None -> ());
            Printf.printf "served %d, rejected %d, up %.1fs\n"
              s.Owl_serve.Proto.served s.Owl_serve.Proto.rejected
              s.Owl_serve.Proto.uptime_seconds
          end)
    in
    Cmd.v
      (Cmd.info "stats" ~doc:"Show the server's cache and service statistics")
      Term.(const run $ Args.addr $ Args.client_retry $ json)
  in
  let ping_cmd =
    let run addr retry =
      with_client addr retry (fun c ->
          let server, protocol, h = Owl_serve.Client.ping c in
          Printf.printf "pong from %s (protocol %d)\n" server protocol;
          (* an old server that predates the extended health report
             answers with zeroed fields; suppress the rows it cannot
             fill rather than printing lies *)
          if h.Owl_serve.Proto.uptime_s > 0.0 || h.Owl_serve.Proto.build <> ""
          then
            Printf.printf "up %.1fs, build %s\n" h.Owl_serve.Proto.uptime_s
              (if h.Owl_serve.Proto.build = "" then "?"
               else h.Owl_serve.Proto.build);
          Printf.printf "workers %d (%d lost), %d queued\n"
            h.Owl_serve.Proto.workers h.Owl_serve.Proto.workers_lost
            h.Owl_serve.Proto.queue_waiting;
          if h.Owl_serve.Proto.hot_capacity > 0 then
            Printf.printf "hot tier %d/%d entries\n"
              h.Owl_serve.Proto.hot_size h.Owl_serve.Proto.hot_capacity;
          if h.Owl_serve.Proto.cancelled > 0 || h.Owl_serve.Proto.timeouts > 0
          then
            Printf.printf "cancelled %d, timeouts %d\n"
              h.Owl_serve.Proto.cancelled h.Owl_serve.Proto.timeouts)
    in
    Cmd.v
      (Cmd.info "ping"
         ~doc:"Check that the server answers, and report its health")
      Term.(const run $ Args.addr $ Args.client_retry)
  in
  let metrics_cmd =
    let prometheus =
      Arg.(value & flag
           & info [ "prometheus" ]
               ~doc:"Render in the Prometheus text exposition format.")
    in
    let json =
      Arg.(value & flag
           & info [ "json" ] ~doc:"Emit the metrics as a JSON array.")
    in
    let run addr retry prometheus json =
      with_client addr retry (fun c ->
          let ms = Owl_serve.Client.metrics c in
          if prometheus then
            print_string (Owl_serve.Proto.metrics_to_prometheus ms)
          else if json then
            print_endline (Owl_serve.Proto.metrics_to_json ms)
          else if ms = [] then
            print_endline
              "no metrics (is the daemon running with --no-telemetry?)"
          else begin
            Printf.printf "%-40s %-10s %12s %10s %10s %10s\n" "metric" "kind"
              "value/count" "p50" "p90" "p99";
            List.iter
              (fun m ->
                match m.Owl_serve.Proto.m_kind with
                | "counter" | "gauge" ->
                    Printf.printf "%-40s %-10s %12d\n"
                      m.Owl_serve.Proto.m_name m.Owl_serve.Proto.m_kind
                      m.Owl_serve.Proto.m_count
                | _ ->
                    Printf.printf "%-40s %-10s %12d %10d %10d %10d\n"
                      m.Owl_serve.Proto.m_name m.Owl_serve.Proto.m_kind
                      m.Owl_serve.Proto.m_count m.Owl_serve.Proto.m_p50
                      m.Owl_serve.Proto.m_p90 m.Owl_serve.Proto.m_p99)
              ms
          end)
    in
    Cmd.v
      (Cmd.info "metrics"
         ~doc:
           "Scrape the server's metrics: its live registry (counters, \
            histograms, sliding windows) and the counters and gauges \
            derived from its status")
      Term.(const run $ Args.addr $ Args.client_retry $ prometheus $ json)
  in
  let dump_trace_cmd =
    let trace =
      Arg.(value & opt (some string) None
           & info [ "trace" ] ~docv:"ID"
               ~doc:
                 "Restrict the dump to one request's trace id (reported in \
                  synth/verify replies and flight dumps).")
    in
    let output =
      Arg.(value & opt (some string) None
           & info [ "o"; "output" ] ~docv:"FILE"
               ~doc:"Write the Chrome-trace JSON to $(docv) instead of stdout.")
    in
    let run addr retry trace output =
      with_client addr retry (fun c ->
          let doc = Owl_serve.Client.dump_trace ?trace c in
          match output with
          | None -> print_string doc
          | Some file ->
              let oc = open_out file in
              output_string oc doc;
              close_out oc;
              Printf.eprintf "trace dump written to %s\n" file)
    in
    Cmd.v
      (Cmd.info "dump-trace"
         ~doc:
           "Dump the server's event ring (its newest spans, Chrome-trace \
            JSON), optionally filtered to one request")
      Term.(const run $ Args.addr $ Args.client_retry $ trace $ output)
  in
  let shutdown_cmd =
    let run addr retry =
      with_client addr retry (fun c ->
          Owl_serve.Client.shutdown c;
          print_endline "server acknowledged shutdown")
    in
    Cmd.v
      (Cmd.info "shutdown" ~doc:"Ask the server to drain and exit")
      Term.(const run $ Args.addr $ Args.client_retry)
  in
  Cmd.group (Cmd.info "client" ~doc:"Talk to a running owl serve daemon")
    [ synth_cmd; verify_cmd; stats_cmd; ping_cmd; metrics_cmd; dump_trace_cmd;
      shutdown_cmd ]

(* [owl top]: a polling terminal dashboard over the same wire requests
   the client subcommands use (ping + metrics + cache_stats).  Rates are
   deltas between successive polls; latency quantiles come from the
   server's sliding 1-minute window, so they describe recent traffic,
   not the daemon's lifetime. *)
let top_cmd =
  let interval =
    Arg.(value & opt float 2.0
         & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh period.")
  in
  let count =
    Arg.(value & opt (some int) None
         & info [ "count" ] ~docv:"N"
             ~doc:
               "Exit after $(docv) refreshes (default: run until \
                interrupted).  With 1, prints a single snapshot — no \
                screen clearing, suitable for scripts.")
  in
  let run addr retry interval count =
    if interval <= 0.0 then begin
      prerr_endline "owl: --interval must be > 0";
      exit 1
    end;
    (match count with
    | Some n when n < 1 ->
        prerr_endline "owl: --count must be >= 1";
        exit 1
    | _ -> ());
    let find name ms =
      List.find_opt (fun m -> m.Owl_serve.Proto.m_name = name) ms
    in
    let gauge name ms =
      match find name ms with
      | Some m -> Some m.Owl_serve.Proto.m_count
      | None -> None
    in
    let one_shot = count = Some 1 in
    (* previous poll: (time, requests counter, tier hits, tier misses) *)
    let prev = ref None in
    let frame () =
      with_client addr retry (fun c ->
          let server, _protocol, h = Owl_serve.Client.ping c in
          let ms = Owl_serve.Client.metrics c in
          let stats = Owl_serve.Client.cache_stats c in
          let now = Unix.gettimeofday () in
          if not one_shot then print_string "\027[2J\027[H";
          Printf.printf "owl top — %s  up %.0fs  served %d  rejected %d\n"
            server h.Owl_serve.Proto.uptime_s stats.Owl_serve.Proto.served
            stats.Owl_serve.Proto.rejected;
          Printf.printf "workers   %d (%d lost)   queue %d   in-flight %s\n"
            h.Owl_serve.Proto.workers h.Owl_serve.Proto.workers_lost
            h.Owl_serve.Proto.queue_waiting
            (match gauge "serve.inflight" ms with
            | Some n -> string_of_int n
            | None -> "?");
          let tier_hits, tier_misses =
            match stats.Owl_serve.Proto.hot_tier with
            | Some t -> (t.Owl_serve.Proto.hot_hits, t.Owl_serve.Proto.hot_misses)
            | None -> (0, 0)
          in
          Printf.printf "hot tier  %d/%d entries   %d hits, %d misses lifetime\n"
            h.Owl_serve.Proto.hot_size h.Owl_serve.Proto.hot_capacity
            tier_hits tier_misses;
          let requests =
            match find "serve.requests" ms with
            | Some m -> m.Owl_serve.Proto.m_count
            | None -> 0
          in
          (match !prev with
          | Some (t0, req0, hit0, miss0) when now > t0 ->
              let dt = now -. t0 in
              let dreq = requests - req0 in
              let dhit = tier_hits - hit0 and dmiss = tier_misses - miss0 in
              let probes = dhit + dmiss in
              Printf.printf "interval  %.1f req/s   hot hit rate %s\n"
                (float_of_int dreq /. dt)
                (if probes = 0 then "-"
                 else Printf.sprintf "%.0f%%"
                        (100.0 *. float_of_int dhit /. float_of_int probes))
          | _ ->
              print_endline "interval  (gathering — rates appear next poll)");
          (match find "serve.job.latency_us.1m" ms with
          | Some m when m.Owl_serve.Proto.m_count > 0 ->
              Printf.printf
                "latency   p50 %.1fms  p99 %.1fms  (%d jobs, last 60s)\n"
                (float_of_int m.Owl_serve.Proto.m_p50 /. 1e3)
                (float_of_int m.Owl_serve.Proto.m_p99 /. 1e3)
                m.Owl_serve.Proto.m_count
          | _ ->
              print_endline
                "latency   (no solver jobs in the last 60s, or telemetry off)");
          prev := Some (now, requests, tier_hits, tier_misses))
    in
    let rec loop n =
      frame ();
      print_newline ();
      flush stdout;
      if match count with Some k -> n + 1 < k | None -> true then begin
        Unix.sleepf interval;
        loop (n + 1)
      end
    in
    loop 0
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal dashboard for a running owl serve daemon \
          (throughput, hit rate, queue depth, worker health, latency)")
    Term.(const run $ Args.addr $ Args.client_retry $ interval $ count)

let () =
  let info =
    Cmd.info "owl" ~version:"1.0.0"
      ~doc:"Control logic synthesis: drawing the rest of the OWL"
  in
  exit (Cmd.eval (Cmd.group info
       [ list_cmd; print_cmd; synth_cmd; cosim_cmd; independence_cmd;
         verify_cmd; check_cmd; netlist_cmd; verilog_cmd; sim_cmd;
         cache_cmd; serve_cmd; client_cmd; top_cmd ]))
