(* Shared command-line vocabulary for the owl driver.

   Several subcommands (synth, verify, serve, client) accept the same
   engine-tuning, fault-injection, observability, cache and address
   flags.  Each flag is declared exactly once here, with its environment
   variable where it has one: Cmdliner reads the variable when the flag is
   absent (flag beats variable beats default), parses it with the flag's
   own converter, so a malformed value is a usage error naming the
   variable, and lists it under ENVIRONMENT in the subcommand's --help.
   The subcommands compose the [Term]s ([engine_options] for the
   engine-tuning ones) and call the corresponding [install_*] helper. *)

open Cmdliner

(* {1 Engine tuning} *)

let jobs =
  let doc =
    "Worker domains for the independent per-instruction solver loops \
     (1 = serial; shared holes force the serial joint path regardless)."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let check_jobs jobs =
  if jobs < 1 then begin
    prerr_endline "owl: --jobs must be >= 1";
    exit 1
  end

let no_incremental =
  let doc =
    "Use a fresh solver for every query instead of reusing incremental \
     solver sessions (SAT state, blasting cache, learned clauses) across \
     CEGIS iterations, and across the unpinned instructions one worker \
     verifies.  Escape hatch for debugging and A/B timing."
  in
  Arg.(value & flag & info [ "no-incremental" ] ~doc)

let retries =
  let doc =
    "Extra attempts per solver query (and per crashed worker task) before \
     giving up: Unknown outcomes retry with conflict budgets and deadline \
     slices growing fourfold per attempt, the final attempt on a fresh \
     one-shot solver."
  in
  Arg.(value & opt int Synth.Engine.default_options.retries
       & info [ "retries" ] ~docv:"K" ~doc)

let validate_models =
  let doc =
    "Cross-check every satisfiable solver model by concrete evaluation of \
     the asserted formulas before trusting it; failed checks retry and \
     fall back to a fresh solver."
  in
  Arg.(value & flag & info [ "validate-models" ] ~doc)

let monolithic =
  Arg.(value & flag
       & info [ "monolithic" ]
           ~doc:"Disable the per-instruction optimization (paper 3.3.1).")

(* The engine options of [owl synth], [owl verify], [owl client synth] and
   [owl client verify], built in one place.  [~synth] adds --monolithic;
   [~remote] drops --jobs (the server pins each request to one domain) and
   words --deadline for the server.  The cache is not an option here: it
   is the local command's to open, and the server's policy remotely. *)
let engine_options ~synth ~remote =
  let build monolithic jobs deadline no_incremental retries validate_models =
    check_jobs jobs;
    try
      Synth.Engine.(
        default_options
        |> with_mode (if monolithic then Monolithic else Per_instruction)
        |> with_jobs jobs
        |> with_deadline deadline
        |> with_incremental (not no_incremental)
        |> with_retries retries
        |> with_validate_models validate_models)
    with Invalid_argument m ->
      Printf.eprintf "owl: %s\n" m;
      exit 1
  in
  let deadline =
    let doc =
      if remote then "Server-side wall-clock timeout for this request."
      else "Wall-clock timeout."
    in
    Arg.(value & opt (some float) None
         & info [ "deadline" ] ~docv:"SECONDS" ~doc)
  in
  Term.(
    const build
    $ (if synth then monolithic else const false)
    $ (if remote then const 1 else jobs)
    $ deadline $ no_incremental $ retries $ validate_models)

(* An optional flag's converter under which a blank value, such as an
   exported but empty variable, reads as the flag being absent. *)
let blank_is_absent ~docv parse print =
  Arg.conv ~docv
    ( (fun s ->
        if String.trim s = "" then Ok None else Result.map Option.some (parse s)),
      fun ppf -> Option.iter (print ppf) )

(* {1 Fault injection} *)

let fault_plan =
  let parse s =
    match Fault.parse s with
    | p -> Ok p
    | exception Fault.Parse_error m -> Error (`Msg m)
  in
  let print ppf p = Format.pp_print_string ppf (Fault.to_string p) in
  let doc =
    "Deterministic fault plan for resilience testing, e.g. \
     'unknown@3,corrupt@5,crash@1,seed=7'."
  in
  Arg.(value & opt (blank_is_absent ~docv:"PLAN" parse print) None
       & info [ "fault-plan" ] ~docv:"PLAN" ~doc
           ~env:(Cmd.Env.info "OWL_FAULT_PLAN"))

let install_fault_plan = Option.iter Fault.install

(* {1 Observability}

   [--trace FILE] records spans across the solver, CEGIS engine, and
   worker pool and writes Chrome trace-event JSON (open in chrome://tracing
   or https://ui.perfetto.dev).  [--metrics] prints the counter/histogram
   summary table.  Both write through [at_exit] so the timeout and error
   exit paths still report. *)

let trace =
  let doc =
    "Record a trace of solver, CEGIS, and worker-pool activity and write \
     it to $(docv) as Chrome trace-event JSON (viewable in chrome://tracing \
     or Perfetto).  Implies metrics collection.  The trace keeps the newest \
     262144 events per domain; under `owl serve' it holds the daemon's \
     newest 4096 events per domain unless --no-telemetry is given."
  in
  Arg.(value
       & opt (blank_is_absent ~docv:"FILE" Result.ok Format.pp_print_string) None
       & info [ "trace" ] ~docv:"FILE" ~doc ~env:(Cmd.Env.info "OWL_TRACE"))

let metrics =
  let doc =
    "Collect counters and latency/size histograms across the run and print \
     a summary table on exit."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let install_observability ~trace ~metrics =
  if metrics then begin
    Obs.enable_metrics ();
    at_exit (fun () -> print_string (Obs.summary_table ()))
  end;
  match trace with
  | None -> ()
  | Some file ->
      Obs.enable ();
      Obs.enable_metrics ();
      at_exit (fun () ->
          let events = List.length (Obs.events ()) in
          let oc = open_out file in
          Obs.write_chrome_trace oc;
          close_out oc;
          Printf.eprintf "trace: %d events written to %s%s\n%!" events file
            (match Obs.dropped () with
            | 0 -> ""
            | d -> Printf.sprintf " (%d dropped)" d))

(* {1 Cross-run synthesis cache}

   Under synth and serve, naming a directory enables the content-addressed
   cache and [--no-cache] forces it off even when OWL_CACHE_DIR names one.
   There is deliberately no on-by-default directory there: a cache the
   user did not ask for is a surprising pile of files.  [owl cache] only
   inspects, so it falls back to the conventional directory. *)

let default_cache_dir = ".owl-cache"

let cache_dir =
  let doc =
    "Directory of the cross-run synthesis cache.  Naming one enables the \
     cache under synth and serve: solved per-instruction problems are \
     fingerprinted and their hole bindings reused (after re-validation) on \
     later runs; any other problem is solved from scratch.  `owl cache' \
     operates on it and defaults to '.owl-cache'."
  in
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ] ~docv:"DIR" ~doc
           ~env:(Cmd.Env.info "OWL_CACHE_DIR"))

let no_cache =
  let doc =
    "Disable the synthesis cache even when OWL_CACHE_DIR is set."
  in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

(* Open failures are reported and fatal: the user asked for a cache by
   naming a directory, so silently running uncached would be a lie. *)
let open_cache ~cache_dir ~no_cache =
  match cache_dir with
  | Some d when not no_cache -> (
      match Owl_cache.open_dir d with
      | c -> Some c
      | exception Unix.Unix_error (e, _, _) ->
          Printf.eprintf "owl: cannot open cache directory %s: %s\n" d
            (Unix.error_message e);
          exit 1)
  | _ -> None

(* {1 Serving}

   [owl serve] and [owl client] share the address vocabulary.  Accepted
   forms are [unix:PATH], [tcp:HOST:PORT], and a bare path (implying
   unix:). *)

let addr =
  let parse s =
    Result.map_error (fun m -> `Msg m) (Owl_serve.Proto.addr_of_string s)
  in
  let print ppf a =
    Format.pp_print_string ppf (Owl_serve.Proto.addr_to_string a)
  in
  let default =
    Owl_serve.Proto.Unix_path
      (Filename.concat (Filename.get_temp_dir_name ()) "owl-serve.sock")
  in
  let doc =
    "Server address: 'unix:PATH', 'tcp:HOST:PORT', or a bare socket path."
  in
  Arg.(value & opt (conv ~docv:"ADDR" (parse, print)) default
       & info [ "addr" ] ~docv:"ADDR" ~doc ~env:(Cmd.Env.info "OWL_ADDR"))

let queue_depth =
  let doc =
    "Admission-control bound: how many requests may wait in the server's \
     queue beyond those an idle worker takes immediately.  Requests past \
     the bound are answered with a busy reply instead of queueing."
  in
  Arg.(value & opt int 64 & info [ "queue-depth" ] ~docv:"N" ~doc)

let hot_tier_size =
  let doc =
    "Capacity of the server's in-process LRU hot tier (finished results \
     keyed by request fingerprint); repeat requests are answered from it \
     without touching a solver or the disk cache.  0 disables the tier."
  in
  Arg.(value & opt int 256 & info [ "hot-tier-size" ] ~docv:"N" ~doc)

let no_telemetry =
  let doc =
    "Disable the daemon's live telemetry: the metrics reply (registry \
     counters and latency histograms merged with gauges and counters \
     derived from the daemon's own tallies — served by `owl client \
     metrics' and `owl top') and the event ring that keeps the newest \
     4096 spans and instants per domain as a black box (served by `owl \
     client dump-trace').  The daemon then starts neither and answers \
     metrics with an empty list: the measured-overhead baseline.  `owl \
     client ping' and `owl client stats' report the same tallies either \
     way."
  in
  Arg.(value & flag & info [ "no-telemetry" ] ~doc)

let dump_dir =
  let doc =
    "Directory for automatic black-box dumps: when a job is lost to an \
     exception that escaped it, the event ring's recent spans are \
     written there as owl-flight-*.json Chrome-trace files \
     (created if missing).  Without this flag automatic dumps are off; \
     `owl client dump-trace' works either way."
  in
  Arg.(value & opt (some string) None & info [ "dump-dir" ] ~docv:"DIR" ~doc)

(* Client-side retry.  Distinct from [--retries], which tunes the
   engine's solver-recovery ladder on the server. *)

let connect_retries =
  let doc =
    "Extra client attempts when the daemon answers busy, reports a lost \
     worker, or the connection fails transiently; each retry reconnects \
     after jittered exponential backoff."
  in
  Arg.(value & opt int 0
       & info [ "connect-retries" ] ~docv:"K" ~doc
           ~env:(Cmd.Env.info "OWL_CLIENT_RETRIES"))

let backoff_ms =
  let doc =
    "Base client retry backoff in milliseconds; it doubles per attempt \
     and is jittered into the rung's upper half."
  in
  Arg.(value & opt int 100
       & info [ "backoff-ms" ] ~docv:"MS" ~doc
           ~env:(Cmd.Env.info "OWL_BACKOFF_MS"))

(* [(retries, backoff_ms)] for [owl client *] and [owl top] *)
let client_retry =
  let check retries backoff =
    if retries < 0 then begin
      prerr_endline "owl: --connect-retries must be >= 0";
      exit 1
    end;
    if backoff < 0 then begin
      prerr_endline "owl: --backoff-ms must be >= 0";
      exit 1
    end;
    (retries, backoff)
  in
  Term.(const check $ connect_retries $ backoff_ms)

let check_serve ~queue_depth ~hot_tier_size =
  if queue_depth < 0 then begin
    prerr_endline "owl: --queue-depth must be >= 0";
    exit 1
  end;
  if hot_tier_size < 0 then begin
    prerr_endline "owl: --hot-tier-size must be >= 0";
    exit 1
  end

let report_cache = function
  | None -> ()
  | Some c ->
      let k = Owl_cache.counters c in
      Printf.printf "cache: %d hits, %d misses, %d stale, %d writes (%s)\n"
        k.Owl_cache.hits k.Owl_cache.misses k.Owl_cache.stale
        k.Owl_cache.writes (Owl_cache.dir c)
