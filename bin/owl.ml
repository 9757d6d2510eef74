(* owl — the command-line driver for the control logic synthesis toolchain.

     owl list                         show the bundled case studies
     owl print -d <design>           print a sketch as textual Oyster
     owl synth -d <design> [...]     synthesize control logic
     owl check <file.oyster>         parse + typecheck a textual design
     owl netlist <file.oyster>       gate counts for a hole-free design
     owl sim <file.oyster> -n N      simulate N cycles (inputs forced to 0) *)

open Cmdliner

(* {1 The case-study registry} *)

type entry = {
  description : string;
  problem : unit -> Synth.Engine.problem;
  reference : (unit -> Oyster.Ast.design) option;
}

let registry : (string * entry) list =
  [ ("accumulator",
     { description = "FSM accumulator machine (paper Fig. 3)";
       problem = Designs.Accumulator.problem;
       reference = Some Designs.Accumulator.reference_design });
    ("alu",
     { description = "three-stage pipelined ALU machine (paper Fig. 2)";
       problem = Designs.Alu.problem;
       reference = Some Designs.Alu.reference_design });
    ("rv32-single",
     { description = "single-cycle RV32I core (paper 4.1.1)";
       problem = (fun () -> Designs.Riscv_single.problem Isa.Rv32.RV32I);
       reference = Some (fun () -> Designs.Riscv_single.reference_design Isa.Rv32.RV32I) });
    ("rv32-single-zbkb",
     { description = "single-cycle RV32I+Zbkb core";
       problem = (fun () -> Designs.Riscv_single.problem Isa.Rv32.RV32I_Zbkb);
       reference =
         Some (fun () -> Designs.Riscv_single.reference_design Isa.Rv32.RV32I_Zbkb) });
    ("rv32-single-m",
     { description = "single-cycle RV32I+M core (multiply/divide; beyond the paper)";
       problem = (fun () -> Designs.Riscv_single.problem Isa.Rv32.RV32I_M);
       reference =
         Some (fun () -> Designs.Riscv_single.reference_design Isa.Rv32.RV32I_M) });
    ("rv32-single-zbkc",
     { description = "single-cycle RV32I+Zbkb+Zbkc core";
       problem = (fun () -> Designs.Riscv_single.problem Isa.Rv32.RV32I_Zbkc);
       reference =
         Some (fun () -> Designs.Riscv_single.reference_design Isa.Rv32.RV32I_Zbkc) });
    ("rv32-two-stage",
     { description = "two-stage pipelined RV32I core (paper 4.1.2)";
       problem = (fun () -> Designs.Riscv_two_stage.problem Isa.Rv32.RV32I);
       reference =
         Some (fun () -> Designs.Riscv_two_stage.reference_design Isa.Rv32.RV32I) });
    ("crypto-core",
     { description = "three-stage constant-time cryptography core (paper 4.2)";
       problem = Designs.Crypto_core.problem;
       reference = Some Designs.Crypto_core.reference_design });
    ("aes",
     { description = "AES-128 hardware accelerator (paper 4.3)";
       problem = Designs.Aes.problem;
       reference = Some Designs.Aes.reference_design });
    ("gcd",
     { description = "GCD accelerator (FSM with data-dependent decode)";
       problem = Designs.Gcd.problem;
       reference = Some Designs.Gcd.reference_design })
  ]

let lookup name =
  match List.assoc_opt name registry with
  | Some e -> Ok e
  | None ->
      Error
        (Printf.sprintf "unknown design %S; try `owl list'" name)

(* {1 Commands} *)

let list_cmd =
  let run () =
    List.iter
      (fun (name, e) -> Printf.printf "%-18s %s\n" name e.description)
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
    match lookup name with
    | Error m ->
        prerr_endline m;
        exit 1
    | Ok e ->
        let d =
          if reference then
            match e.reference with
            | Some f -> f ()
            | None ->
                prerr_endline "no reference design registered";
                exit 1
          else (e.problem ()).Synth.Engine.design
        in
        print_string (Oyster.Printer.design_to_string d)
  in
  Cmd.v (Cmd.info "print" ~doc:"Print a design as textual Oyster IR")
    Term.(const run $ design_arg $ reference)

(* The engine-tuning, fault-plan, observability, and cache flags are
   shared between subcommands and declared once in {!Args}. *)

(* every synthesis-layer failure (engine, union, minimizer) shares one
   structured exception; report it uniformly instead of crashing *)
let or_engine_error f =
  try f ()
  with Synth.Engine.Engine_error m ->
    Printf.eprintf "owl: synthesis error: %s\n" m;
    exit 6

let synth_cmd =
  let monolithic =
    Arg.(value & flag
         & info [ "monolithic" ]
             ~doc:"Disable the per-instruction optimization (paper 3.3.1).")
  in
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECONDS" ~doc:"Wall-clock timeout.")
  in
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the completed design (Oyster text) to $(docv).")
  in
  let pyrtl =
    Arg.(value & flag
         & info [ "pyrtl" ] ~doc:"Print the generated control logic PyRTL-style (paper Fig. 7).")
  in
  let run name monolithic jobs deadline output pyrtl no_incremental retries
      escalation_factor validate_models cache_dir no_cache fault_plan trace
      metrics =
    Args.check_jobs jobs;
    Args.install_fault_plan fault_plan;
    Args.install_observability ~trace ~metrics;
    match lookup name with
    | Error m ->
        prerr_endline m;
        exit 1
    | Ok e -> (
        let cache = Args.open_cache ~cache_dir ~no_cache in
        if cache <> None then
          (* [at_exit] so the timeout/unrealizable exit paths report too *)
          at_exit (fun () -> Args.report_cache cache);
        let options =
          try
            Synth.Engine.(
              default_options
              |> with_mode (if monolithic then Monolithic else Per_instruction)
              |> with_jobs jobs
              |> with_deadline deadline
              |> with_incremental (not no_incremental)
              |> with_retries retries
              |> with_escalation_factor escalation_factor
              |> with_validate_models validate_models
              |> with_cache cache)
          with Invalid_argument m ->
            Printf.eprintf "owl: %s\n" m;
            exit 1
        in
        match
          or_engine_error (fun () ->
              Synth.Engine.synthesize ~options (e.problem ()))
        with
        | Synth.Engine.Solved s ->
            let st = s.Synth.Engine.stats in
            Printf.printf
              "solved in %.2fs: %d CEGIS rounds, %d solver queries, %d conflicts\n"
              st.Synth.Engine.wall_seconds st.Synth.Engine.iterations
              st.Synth.Engine.queries st.Synth.Engine.conflicts;
            (* the full statistics record, resilience tallies included *)
            let row name value = Printf.printf "  %-22s %d\n" name value in
            row "iterations" st.Synth.Engine.iterations;
            row "queries" st.Synth.Engine.queries;
            row "conflicts" st.Synth.Engine.conflicts;
            row "blasted vars" st.Synth.Engine.blasted_vars;
            row "blasted clauses" st.Synth.Engine.blasted_clauses;
            row "trivial unsats" st.Synth.Engine.trivial_unsats;
            row "retried queries" st.Synth.Engine.retried_queries;
            row "degraded queries" st.Synth.Engine.degraded_queries;
            row "validation failures" st.Synth.Engine.validation_failures;
            row "task retries" st.Synth.Engine.task_retries;
            row "sat restarts" st.Synth.Engine.sat_restarts;
            row "sat learnt kept" st.Synth.Engine.sat_learnt_kept;
            row "sat learnt deleted" st.Synth.Engine.sat_learnt_deleted;
            Printf.printf "  %-22s %.2f\n" "wall seconds"
              st.Synth.Engine.wall_seconds;
            if pyrtl then begin
              print_endline "";
              print_string
                (Hdl.Pyrtl.generated_to_string ~pre_exprs:s.Synth.Engine.pre_exprs
                   ~per_instr:s.Synth.Engine.per_instr
                   ~shared:s.Synth.Engine.shared)
            end;
            (match output with
            | Some file ->
                let oc = open_out file in
                output_string oc
                  (Oyster.Printer.design_to_string s.Synth.Engine.completed);
                close_out oc;
                Printf.printf "completed design written to %s\n" file
            | None -> ())
        | Synth.Engine.Timeout st ->
            Printf.printf
              "timeout after %.1fs (%d CEGIS rounds, %d solver queries, %d \
               conflicts)\n"
              st.Synth.Engine.wall_seconds st.Synth.Engine.iterations
              st.Synth.Engine.queries st.Synth.Engine.conflicts;
            exit 2
        | Synth.Engine.Unrealizable { instr; _ } ->
            Printf.printf "unrealizable: no control logic satisfies %s\n"
              (Option.value instr ~default:"the specification");
            exit 3
        | Synth.Engine.Union_failed { diagnostic; _ } ->
            Printf.printf "union failed: %s\n" diagnostic;
            exit 4
        | Synth.Engine.Not_independent { overlapping; feedback; _ } ->
            Printf.printf
              "instruction independence fails: %d overlapping pairs, %d feedback paths\n"
              (List.length overlapping) (List.length feedback);
            exit 5)
  in
  Cmd.v
    (Cmd.info "synth" ~doc:"Synthesize control logic for a case-study design")
    Term.(const run $ design_arg $ monolithic $ Args.jobs $ deadline $ output
          $ pyrtl $ Args.no_incremental $ Args.retries $ Args.escalation_factor
          $ Args.validate_models $ Args.cache_dir
          $ Args.no_cache $ Args.fault_plan $ Args.trace $ Args.metrics)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.oyster")

let parse_file file =
  let ic = open_in file in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  Oyster.Parser.parse_design src

let check_cmd =
  let run file =
    match parse_file file with
    | exception Oyster.Parser.Parse_error m ->
        Printf.eprintf "parse error: %s\n" m;
        exit 1
    | d -> (
        match Oyster.Typecheck.check d with
        | exception Oyster.Typecheck.Type_error m ->
            Printf.eprintf "type error: %s\n" m;
            exit 1
        | _ ->
            Printf.printf
              "%s: ok (%d declarations, %d statements, %d holes, %d LoC)\n"
              d.Oyster.Ast.name
              (List.length d.Oyster.Ast.decls)
              (List.length d.Oyster.Ast.stmts)
              (List.length (Oyster.Ast.holes d))
              (Oyster.Printer.loc d))
  in
  Cmd.v (Cmd.info "check" ~doc:"Parse and typecheck a textual Oyster design")
    Term.(const run $ file_arg)

let netlist_cmd =
  let optimize =
    Arg.(value & flag & info [ "optimize" ] ~doc:"Apply the logic optimizer.")
  in
  let run file optimize =
    let d = parse_file file in
    let c = Netlist.of_design ~optimize d in
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
    let variant, problem =
      match name with
      | "rv32-single" -> (Some Isa.Rv32.RV32I, Designs.Riscv_single.problem Isa.Rv32.RV32I)
      | "rv32-single-zbkb" ->
          (Some Isa.Rv32.RV32I_Zbkb, Designs.Riscv_single.problem Isa.Rv32.RV32I_Zbkb)
      | "rv32-single-zbkc" ->
          (Some Isa.Rv32.RV32I_Zbkc, Designs.Riscv_single.problem Isa.Rv32.RV32I_Zbkc)
      | "rv32-two-stage" ->
          (Some Isa.Rv32.RV32I, Designs.Riscv_two_stage.problem Isa.Rv32.RV32I)
      | "crypto-core" -> (None, Designs.Crypto_core.problem ())
      | _ ->
          prerr_endline "cosim supports the RISC-V cores and crypto-core";
          exit 1
    in
    match Synth.Engine.synthesize problem with
    | Synth.Engine.Solved s ->
        Printf.printf "synthesized in %.2fs; co-simulating %d random programs...\n%!"
          s.Synth.Engine.stats.Synth.Engine.wall_seconds seeds;
        let failures = ref 0 in
        for seed = 1 to seeds do
          let rng = Random.State.make [| seed; 4096 |] in
          let profile, variant', cmov =
            match variant with
            | Some v -> (`Standard, v, false)
            | None -> (`Cmov, Isa.Rv32.RV32I_Zbkb, true)
          in
          let program = Designs.Testbench.random_program ~profile rng variant' ~len:40 in
          let dmem_init =
            List.init 32 (fun i ->
                (i, Bitvec.of_bits (Array.init 32 (fun _ -> Random.State.bool rng))))
          in
          let halt_pc = 4 * (List.length program - 1) in
          let core =
            Designs.Testbench.run_core s.Synth.Engine.completed ~program ~dmem_init
              ~halt_pc ~max_cycles:2000
          in
          let _, iss =
            Designs.Testbench.run_iss ~cmov variant' ~program ~dmem_init
              ~max_cycles:2000
          in
          let ok = ref (core.Designs.Testbench.cycles_to_halt <> None) in
          for r = 0 to 31 do
            if
              not
                (Bitvec.equal
                   (Designs.Testbench.core_reg core.Designs.Testbench.state r)
                   (Isa.Iss.get_reg iss r))
            then ok := false
          done;
          Printf.printf "  seed %2d: %s\n%!" seed (if !ok then "OK" else "MISMATCH");
          if not !ok then incr failures
        done;
        if !failures > 0 then exit 1
    | _ ->
        prerr_endline "synthesis failed";
        exit 1
  in
  Cmd.v
    (Cmd.info "cosim"
       ~doc:"Synthesize a core and co-simulate it against the ISS oracle")
    Term.(const run $ design_arg $ seeds)

let independence_cmd =
  let run name =
    match lookup name with
    | Error m ->
        prerr_endline m;
        exit 1
    | Ok e ->
        let problem = e.problem () in
        let trace =
          Oyster.Symbolic.eval problem.Synth.Engine.design
            ~cycles:problem.Synth.Engine.af.Ila.Absfun.cycles
        in
        let conds =
          Ila.Conditions.compile problem.Synth.Engine.spec problem.Synth.Engine.af
            trace
        in
        let excl = Synth.Independence.check_mutual_exclusion conds in
        let fb = Synth.Independence.check_no_feedback problem.Synth.Engine.design in
        let n = List.length conds in
        Printf.printf "%d instructions, %d precondition pairs checked\n" n
          (n * (n - 1) / 2);
        (match excl.Synth.Independence.overlapping with
        | [] -> print_endline "mutually exclusive preconditions: yes"
        | l ->
            Printf.printf "OVERLAPPING pairs: %s\n"
              (String.concat ", "
                 (List.map (fun (a, b) -> a ^ "/" ^ b) l)));
        (match fb.Synth.Independence.feedback_paths with
        | [] -> print_endline "no control feedback: yes"
        | l ->
            List.iter
              (fun (src, wire, dst) ->
                Printf.printf "FEEDBACK: hole %s -> wire %s -> hole %s\n" src wire dst)
              l);
        if
          excl.Synth.Independence.overlapping <> []
          || fb.Synth.Independence.feedback_paths <> []
        then exit 1
  in
  Cmd.v
    (Cmd.info "independence"
       ~doc:"Check the instruction-independence conditions (paper 3.3.1)")
    Term.(const run $ design_arg)

let verify_cmd =
  (* verify the hand-written reference control against the specification *)
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECONDS" ~doc:"Wall-clock timeout.")
  in
  let run name deadline jobs no_incremental retries escalation_factor
      validate_models fault_plan trace metrics =
    Args.check_jobs jobs;
    Args.install_fault_plan fault_plan;
    Args.install_observability ~trace ~metrics;
    match lookup name with
    | Error m ->
        prerr_endline m;
        exit 1
    | Ok e -> (
        match e.reference with
        | None ->
            prerr_endline "no reference design registered";
            exit 1
        | Some f ->
            let problem = e.problem () in
            let problem = { problem with Synth.Engine.design = f () } in
            let options =
              try
                Synth.Engine.(
                  default_options |> with_jobs jobs |> with_deadline deadline
                  |> with_incremental (not no_incremental)
                  |> with_retries retries
                  |> with_escalation_factor escalation_factor
                  |> with_validate_models validate_models)
              with Invalid_argument m ->
                Printf.eprintf "owl: %s\n" m;
                exit 1
            in
            let results =
              or_engine_error (fun () -> Synth.Engine.verify ~options problem)
            in
            let bad = ref 0 in
            List.iter
              (fun (iname, verdict) ->
                match verdict with
                | Synth.Engine.Verified -> Printf.printf "  %-20s verified\n" iname
                | Synth.Engine.Violated _ ->
                    incr bad;
                    Printf.printf "  %-20s VIOLATED\n" iname
                | Synth.Engine.Inconclusive ->
                    incr bad;
                    Printf.printf "  %-20s inconclusive (budget)\n" iname)
              results;
            Printf.printf "%d/%d instructions verified\n"
              (List.length results - !bad)
              (List.length results);
            if !bad > 0 then exit 1)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Formally verify the hand-written reference control against the ILA specification")
    Term.(const run $ design_arg $ deadline $ Args.jobs $ Args.no_incremental
          $ Args.retries $ Args.escalation_factor $ Args.validate_models
          $ Args.fault_plan $ Args.trace $ Args.metrics)

let verilog_cmd =
  let run file =
    let d = parse_file file in
    print_string (Hdl.Verilog.of_design d)
  in
  Cmd.v
    (Cmd.info "verilog" ~doc:"Emit a hole-free design as Verilog-2001")
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
    let d = parse_file file in
    ignore (Oyster.Typecheck.check d);
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
  (* maintenance for the on-disk synthesis cache; resolution mirrors the
     synth flags (--cache-dir beats OWL_CACHE_DIR beats the conventional
     .owl-cache directory) but here a missing directory is just reported,
     never created *)
  let dir_term =
    let doc =
      "Cache directory to operate on.  Also read from the OWL_CACHE_DIR \
       environment variable; defaults to '.owl-cache'."
    in
    Arg.(value & opt (some string) None
         & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let resolve dir =
    match dir with
    | Some d -> d
    | None -> (
        match Sys.getenv_opt "OWL_CACHE_DIR" with
        | Some d -> d
        | None -> Args.default_cache_dir)
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
      let dir = resolve dir in
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
          Printf.printf "%s: %d result entries, %d warm entries, %d bytes\n"
            dir s.Owl_cache.result_entries s.Owl_cache.warm_entries
            s.Owl_cache.total_bytes
    in
    Cmd.v (Cmd.info "stats" ~doc:"Show entry counts and on-disk size")
      Term.(const run $ dir_term $ json)
  in
  let clear_cmd =
    let run dir =
      let dir = resolve dir in
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
    let addr = Args.resolve_addr addr in
    let cache = Args.open_cache ~cache_dir ~no_cache in
    let lookup kind name =
      match List.assoc_opt name registry with
      | None -> None
      | Some e -> (
          match kind with
          | `Synth -> Some (e.problem ())
          | `Verify -> (
              (* verification checks the hand-written reference control,
                 exactly as the offline `owl verify' does *)
              match e.reference with
              | None -> None
              | Some f ->
                  let p = e.problem () in
                  Some { p with Synth.Engine.design = f () }))
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
  let describe = describe_client_error in
    let addr = Args.resolve_addr addr in
    try
      Owl_serve.Client.with_retry ~retries ~backoff_ms
        ~on_retry:(fun ~attempt ~delay e ->
          Printf.eprintf "owl: attempt %d failed (%s); retrying in %.2fs\n%!"
            attempt (describe e) delay)
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

let retry_term =
  Term.(
    const (fun connect_retries backoff_ms ->
        Args.resolve_client_retry ~connect_retries ~backoff_ms)
    $ Args.connect_retries $ Args.backoff_ms)

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
          if iterations = 0 && queries = 0 then
            Printf.printf "  < %-20s %s\n%!" instr status
          else
            Printf.printf "  < %-20s %s (%d rounds, %d queries)\n%!" instr
              status iterations queries
      | Owl_serve.Proto.Retry { attempt; reason } ->
          Printf.printf "  ! retry, attempt %d (%s)\n%!" attempt reason
      | Owl_serve.Proto.Degraded { attempt } ->
          Printf.printf "  ! degraded to a fresh solver (attempt %d)\n%!"
            attempt
  in
  (* the subset of the engine options that makes sense remotely; jobs is
     deliberately absent (the server pins each request to one domain) and
     the cache is the server's policy *)
  let remote_options monolithic deadline no_incremental retries
      escalation_factor validate_models =
    try
      Synth.Engine.(
        default_options
        |> with_mode (if monolithic then Monolithic else Per_instruction)
        |> with_deadline deadline
        |> with_incremental (not no_incremental)
        |> with_retries retries
        |> with_escalation_factor escalation_factor
        |> with_validate_models validate_models)
    with Invalid_argument m ->
      Printf.eprintf "owl: %s\n" m;
      exit 1
  in
  let monolithic =
    Arg.(value & flag
         & info [ "monolithic" ]
             ~doc:"Disable the per-instruction optimization (paper 3.3.1).")
  in
  let deadline =
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:"Server-side wall-clock timeout for this request.")
  in
  let print_stats (st : Synth.Engine.stats) =
    Printf.printf "  %d CEGIS rounds, %d solver queries, %d conflicts, %.2fs\n"
      st.Synth.Engine.iterations st.Synth.Engine.queries
      st.Synth.Engine.conflicts st.Synth.Engine.wall_seconds
  in
  let synth_cmd =
    let run name addr retry monolithic deadline no_incremental retries
        escalation_factor validate_models quiet =
      let options =
        remote_options monolithic deadline no_incremental retries
          escalation_factor validate_models
      in
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
          match r.Owl_serve.Proto.outcome with
          | "solved" -> ()
          | "timeout" -> exit 2
          | "unrealizable" -> exit 3
          | "union_failed" -> exit 4
          | "not_independent" -> exit 5
          | _ -> exit 6)
    in
    Cmd.v
      (Cmd.info "synth" ~doc:"Synthesize a case study on the server")
      Term.(const run $ design_arg $ Args.addr $ retry_term $ monolithic
            $ deadline $ Args.no_incremental $ Args.retries
            $ Args.escalation_factor $ Args.validate_models $ quiet)
  in
  let verify_cmd =
    let run name addr retry deadline no_incremental retries escalation_factor
        validate_models quiet =
      let options =
        remote_options false deadline no_incremental retries escalation_factor
          validate_models
      in
      with_client addr retry (fun c ->
          let r =
            Owl_serve.Client.verify ~on_progress:(on_progress quiet) c
              ~design:name options
          in
          let bad = ref 0 in
          List.iter
            (fun (instr, verdict) ->
              if verdict <> "verified" then incr bad;
              Printf.printf "  %-20s %s\n" instr verdict)
            r.Owl_serve.Proto.verdicts;
          Printf.printf "%d/%d instructions verified%s\n"
            (List.length r.Owl_serve.Proto.verdicts - !bad)
            (List.length r.Owl_serve.Proto.verdicts)
            (if r.Owl_serve.Proto.v_hot then " [hot]" else "");
          if !bad > 0 then exit 1)
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:"Verify a case study's reference control on the server")
      Term.(const run $ design_arg $ Args.addr $ retry_term $ deadline
            $ Args.no_incremental $ Args.retries $ Args.escalation_factor
            $ Args.validate_models $ quiet)
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
                Printf.printf "disk usage: %d result entries, %d warm entries, %d bytes\n"
                  d.Owl_cache.result_entries d.Owl_cache.warm_entries
                  d.Owl_cache.total_bytes
            | None -> ());
            Printf.printf "served %d, rejected %d, up %.1fs\n"
              s.Owl_serve.Proto.served s.Owl_serve.Proto.rejected
              s.Owl_serve.Proto.uptime_seconds
          end)
    in
    Cmd.v
      (Cmd.info "stats" ~doc:"Show the server's cache and service statistics")
      Term.(const run $ Args.addr $ retry_term $ json)
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
          Printf.printf
            "workers %d/%d alive (%d lost), %d queued%s\n"
            h.Owl_serve.Proto.workers_alive h.Owl_serve.Proto.workers
            h.Owl_serve.Proto.workers_lost h.Owl_serve.Proto.queue_waiting
            (if h.Owl_serve.Proto.degraded then " [DEGRADED]" else "");
          if h.Owl_serve.Proto.hot_capacity > 0 then
            Printf.printf "hot tier %d/%d entries\n"
              h.Owl_serve.Proto.hot_size h.Owl_serve.Proto.hot_capacity;
          if
            h.Owl_serve.Proto.cancelled > 0
            || h.Owl_serve.Proto.shed > 0
            || h.Owl_serve.Proto.timeouts > 0
            || h.Owl_serve.Proto.degraded_seconds > 0.0
          then
            Printf.printf
              "cancelled %d, shed %d, timeouts %d, degraded %.1fs total\n"
              h.Owl_serve.Proto.cancelled h.Owl_serve.Proto.shed
              h.Owl_serve.Proto.timeouts h.Owl_serve.Proto.degraded_seconds)
    in
    Cmd.v
      (Cmd.info "ping"
         ~doc:"Check that the server answers, and report its health")
      Term.(const run $ Args.addr $ retry_term)
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
           "Scrape the server's live metric registry (counters, gauges, \
            histograms, sliding windows)")
      Term.(const run $ Args.addr $ retry_term $ prometheus $ json)
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
              Printf.eprintf "flight trace written to %s\n" file)
    in
    Cmd.v
      (Cmd.info "dump-trace"
         ~doc:
           "Dump the server's flight recorder (recent spans, Chrome-trace \
            JSON), optionally filtered to one request")
      Term.(const run $ Args.addr $ retry_term $ trace $ output)
  in
  let shutdown_cmd =
    let run addr retry =
      with_client addr retry (fun c ->
          Owl_serve.Client.shutdown c;
          print_endline "server acknowledged shutdown")
    in
    Cmd.v
      (Cmd.info "shutdown" ~doc:"Ask the server to drain and exit")
      Term.(const run $ Args.addr $ retry_term)
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
          Printf.printf "owl top — %s%s  up %.0fs  served %d  rejected %d\n"
            server
            (if h.Owl_serve.Proto.degraded then "  [DEGRADED]" else "")
            h.Owl_serve.Proto.uptime_s stats.Owl_serve.Proto.served
            stats.Owl_serve.Proto.rejected;
          Printf.printf
            "workers   %d/%d alive (%d lost)   queue %d   in-flight %s\n"
            h.Owl_serve.Proto.workers_alive h.Owl_serve.Proto.workers
            h.Owl_serve.Proto.workers_lost h.Owl_serve.Proto.queue_waiting
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
    Term.(const run $ Args.addr $ retry_term $ interval $ count)

let () =
  let info =
    Cmd.info "owl" ~version:"1.0.0"
      ~doc:"Control logic synthesis: drawing the rest of the OWL"
  in
  exit (Cmd.eval (Cmd.group info
       [ list_cmd; print_cmd; synth_cmd; cosim_cmd; independence_cmd;
         verify_cmd; check_cmd; netlist_cmd; verilog_cmd; sim_cmd;
         cache_cmd; serve_cmd; client_cmd; top_cmd ]))
