(* Shared command-line vocabulary for the owl driver.

   Several subcommands (synth, verify) accept the same engine-tuning,
   fault-injection, observability, and cache flags.  Each flag — and its
   environment-variable fallback, where one exists — is declared exactly
   once here; the subcommands compose the [Term]s and call the
   corresponding [install_*]/[apply_*] helper.  The precedence rule is
   uniform: explicit flag beats environment variable beats default. *)

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
     CEGIS iterations.  Escape hatch for debugging and A/B timing."
  in
  Arg.(value & flag & info [ "no-incremental" ] ~doc)

let default_recovery =
  Synth.Engine.default_options.Synth.Engine.recovery

let retries =
  let doc =
    "Extra attempts per solver query (and per crashed worker task) before \
     giving up: Unknown outcomes retry with geometrically escalated \
     conflict budgets and deadline slices, the final attempt on a fresh \
     one-shot solver."
  in
  Arg.(value & opt int default_recovery.Synth.Engine.Recovery.retries
       & info [ "retries" ] ~docv:"K" ~doc)

let escalation_factor =
  let doc = "Geometric budget/time growth per retry attempt." in
  Arg.(value
       & opt int default_recovery.Synth.Engine.Recovery.escalation_factor
       & info [ "escalation-factor" ] ~docv:"F" ~doc)

let validate_models =
  let doc =
    "Cross-check every satisfiable solver model by concrete evaluation of \
     the asserted formulas before trusting it; failed checks retry and \
     fall back to a fresh solver."
  in
  Arg.(value & flag & info [ "validate-models" ] ~doc)

(* {1 Fault injection} *)

let fault_plan =
  let doc =
    "Deterministic fault plan for resilience testing, e.g. \
     'unknown@3,corrupt@5,crash@1,seed=7' (also read from the \
     OWL_FAULT_PLAN environment variable; the flag wins)."
  in
  Arg.(value & opt (some string) None
       & info [ "fault-plan" ] ~docv:"PLAN" ~doc)

let install_fault_plan = function
  | Some plan -> (
      match Fault.parse plan with
      | p -> Fault.install p
      | exception Fault.Parse_error m ->
          Printf.eprintf "owl: %s\n" m;
          exit 1)
  | None -> (
      match Fault.install_from_env () with
      | (_ : bool) -> ()
      | exception Fault.Parse_error m ->
          Printf.eprintf "owl: OWL_FAULT_PLAN: %s\n" m;
          exit 1)

(* {1 Observability}

   [--trace FILE] records spans across the solver, CEGIS engine, and
   worker pool and writes Chrome trace-event JSON (open in chrome://tracing
   or https://ui.perfetto.dev); the OWL_TRACE environment variable is the
   flagless equivalent, mirroring OWL_FAULT_PLAN (the flag wins).
   [--metrics] prints the counter/histogram summary table.  Both write
   through [at_exit] so the timeout and error exit paths still report. *)

let trace =
  let doc =
    "Record a trace of solver, CEGIS, and worker-pool activity and write \
     it to $(docv) as Chrome trace-event JSON (viewable in chrome://tracing \
     or Perfetto).  Also read from the OWL_TRACE environment variable; the \
     flag wins.  Implies metrics collection."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics =
  let doc =
    "Collect counters and latency/size histograms across the run and print \
     a summary table on exit."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let install_observability ~trace ~metrics =
  let trace =
    match trace with Some _ -> trace | None -> Sys.getenv_opt "OWL_TRACE"
  in
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

   [--cache-dir DIR] enables the content-addressed cache rooted at DIR;
   OWL_CACHE_DIR is the flagless equivalent (the flag wins) and
   [--no-cache] forces caching off even when the environment sets a
   directory.  There is deliberately no on-by-default directory: a cache
   the user did not ask for is a surprising pile of files. *)

let default_cache_dir = ".owl-cache"

let cache_dir =
  let doc =
    "Enable the cross-run synthesis cache rooted at $(docv): solved \
     per-instruction problems are fingerprinted and their hole bindings \
     reused (after re-validation) on later runs; near-miss problems \
     warm-start from accumulated counterexamples and learned clauses.  \
     Also read from the OWL_CACHE_DIR environment variable; the flag \
     wins.  The conventional directory is '.owl-cache'."
  in
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let no_cache =
  let doc =
    "Disable the synthesis cache even when OWL_CACHE_DIR is set."
  in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

(* Resolve the flag/env/default precedence into an open handle (or
   None).  Open failures are reported and fatal: the user asked for a
   cache by naming a directory, so silently running uncached would be a
   lie. *)
let open_cache ~cache_dir ~no_cache =
  let dir =
    match cache_dir with
    | Some _ -> cache_dir
    | None -> Sys.getenv_opt "OWL_CACHE_DIR"
  in
  match dir with
  | Some d when not no_cache -> (
      match Owl_cache.open_dir d with
      | c -> Some c
      | exception Unix.Unix_error (e, _, _) ->
          Printf.eprintf "owl: cannot open cache directory %s: %s\n" d
            (Unix.error_message e);
          exit 1)
  | _ -> None

(* {1 Serving}

   [owl serve] and [owl client] share the address vocabulary:
   [--addr ADDR] beats the OWL_ADDR environment variable beats the
   conventional socket under the system temp directory.  Accepted forms
   are [unix:PATH], [tcp:HOST:PORT], and a bare path (implying unix:). *)

let default_addr () =
  "unix:" ^ Filename.concat (Filename.get_temp_dir_name ()) "owl-serve.sock"

let addr =
  let doc =
    "Server address: 'unix:PATH', 'tcp:HOST:PORT', or a bare socket path.  \
     Also read from the OWL_ADDR environment variable; the flag wins.  \
     Defaults to 'unix:' + owl-serve.sock under the system temp directory."
  in
  Arg.(value & opt (some string) None & info [ "addr" ] ~docv:"ADDR" ~doc)

let resolve_addr addr =
  let s =
    match addr with
    | Some s -> s
    | None -> (
        match Sys.getenv_opt "OWL_ADDR" with
        | Some s -> s
        | None -> default_addr ())
  in
  match Owl_serve.Proto.addr_of_string s with
  | Ok a -> a
  | Error m ->
      Printf.eprintf "owl: bad address %S: %s\n" s m;
      exit 1

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
    "Disable the daemon's live telemetry: the metric registry (counters, \
     gauges, sliding latency windows — served by `owl client metrics' and \
     `owl top') and the always-on flight recorder (served by `owl client \
     dump-trace').  Both revert to null sinks, the measured-overhead \
     baseline."
  in
  Arg.(value & flag & info [ "no-telemetry" ] ~doc)

let dump_dir =
  let doc =
    "Directory for automatic flight-recorder dumps: when a worker domain \
     is lost or the daemon enters degraded mode, the recorder's recent \
     spans are written there as owl-flight-*.json Chrome-trace files \
     (created if missing).  Without this flag automatic dumps are off; \
     `owl client dump-trace' works either way."
  in
  Arg.(value & opt (some string) None & info [ "dump-dir" ] ~docv:"DIR" ~doc)

(* Client-side retry: [--connect-retries]/[--backoff-ms] with
   OWL_CLIENT_RETRIES/OWL_BACKOFF_MS as the flagless equivalents (the
   flag wins).  Distinct from [--retries], which tunes the engine's
   solver-recovery ladder on the server. *)

let connect_retries =
  let doc =
    "Extra client attempts when the daemon answers busy, reports a lost \
     worker, or the connection fails transiently; each retry reconnects \
     after jittered exponential backoff.  Also read from the \
     OWL_CLIENT_RETRIES environment variable; the flag wins."
  in
  Arg.(value & opt (some int) None
       & info [ "connect-retries" ] ~docv:"K" ~doc)

let backoff_ms =
  let doc =
    "Base client retry backoff in milliseconds; it doubles per attempt \
     and is jittered into the rung's upper half.  Also read from the \
     OWL_BACKOFF_MS environment variable; the flag wins."
  in
  Arg.(value & opt (some int) None & info [ "backoff-ms" ] ~docv:"MS" ~doc)

let resolve_client_retry ~connect_retries ~backoff_ms =
  let env name =
    match Sys.getenv_opt name with
    | None -> None
    | Some s -> (
        match int_of_string_opt (String.trim s) with
        | Some n -> Some n
        | None ->
            Printf.eprintf "owl: %s: %S is not an integer\n" name s;
            exit 1)
  in
  let pick flag name default =
    match flag with
    | Some n -> n
    | None -> ( match env name with Some n -> n | None -> default)
  in
  let retries = pick connect_retries "OWL_CLIENT_RETRIES" 0 in
  let backoff = pick backoff_ms "OWL_BACKOFF_MS" 100 in
  if retries < 0 then begin
    prerr_endline "owl: --connect-retries must be >= 0";
    exit 1
  end;
  if backoff < 0 then begin
    prerr_endline "owl: --backoff-ms must be >= 0";
    exit 1
  end;
  (retries, backoff)

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
