(* Chaos smoke: the serve daemon under deterministic fault plans, run on
   every `dune runtest` via the @chaos-smoke alias.

   Two phases against in-process daemons on /tmp sockets.  Phase one
   runs a 20-request mixed batch fault-free and records every solved
   reply's hole bindings.  Phase two replays the same batch through
   [Client.with_retry] once per fault plan ([plans] below), each against
   a fresh daemon: worker kills, connection drops, frame delays, forced
   sheds, and a mix of all four.  A plan may cost retries and
   recomputation; it must never cost correctness:

   - zero requests fail after bounded retries (no hangs: every attempt
     is bounded, so termination of this program is the liveness check);
   - every planned fault fires;
   - every solved reply's bindings are bit-identical to phase one
     (faults never produce a wrong answer — requests are idempotent by
     content fingerprint);
   - the daemon recovers to full capacity: a fresh cold request solves,
     the health report shows every worker alive (and, under a worker
     kill, at least one lost along the way), nothing queued, not
     degraded;
   - a worker kill leaves an automatic flight-recorder dump: a valid
     Chrome-trace JSON file in the configured dump directory whose
     events carry the killed request's trace id (which the requeued
     request's terminal reply also reports). *)

module Proto = Owl_serve.Proto
module Server = Owl_serve.Server
module Client = Owl_serve.Client

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("chaos smoke: " ^ m); exit 1) fmt

let acc_problem = Designs.Accumulator.problem ()
let alu_problem = Designs.Alu.problem ()

let lookup kind name =
  match (kind, name) with
  | `Synth, "acc" -> Some acc_problem
  | `Synth, "alu" -> Some alu_problem
  | _ -> None

let jobs = 2

(* automatic flight-recorder dumps from the faulted phase land here *)
let dump_dir =
  Printf.sprintf "/tmp/owl-chaos-smoke-dumps-%d" (Unix.getpid ())

let start tag =
  let path =
    Printf.sprintf "/tmp/owl-chaos-smoke-%d-%s.sock" (Unix.getpid ()) tag
  in
  let addr = Proto.Unix_path path in
  let ready = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        Server.run
          ~ready:(fun () -> Atomic.set ready true)
          { Server.addr; jobs; queue_depth = 8; hot_tier_size = 16;
            cache = None; server_name = "chaos-smoke";
            telemetry = true; dump_dir = Some dump_dir }
          ~lookup)
      ()
  in
  let rec wait n =
    if not (Atomic.get ready) then
      if n > 500 then fail "server %s did not come up" tag
      else begin
        Thread.delay 0.01;
        wait (n + 1)
      end
  in
  wait 0;
  (addr, th)

let stop addr th =
  let c = Client.connect addr in
  Client.shutdown c;
  Client.close c;
  Thread.join th

let total = 20

(* worker kills down the Nth service job's domain (supervision must
   respawn it), conn_drops sever the Nth server-written frame (the
   retrying client must recompute), frame_delays stall the Nth frame, and
   sheds refuse the Nth admission.  Every planned fault must fire within
   the batch; hot hits are never admitted, so the batch makes only about
   seven admissions and the shed indices are kept low. *)
let plans =
  [
    "worker_kill@2,conn_drop@3";
    "conn_drop@3,conn_drop@11,conn_drop@19";
    "frame_delay@5,frame_delay@12";
    "shed@1,shed@3,shed@5";
    "worker_kill@4,conn_drop@6,frame_delay@9,shed@2";
  ]

(* four distinct fingerprints on the accumulator plus one on the ALU:
   enough cold service jobs to reach the planned kill index, plenty of
   warm repeats to keep the hot tier honest under faults *)
let request_of seq =
  let design = if seq mod 4 = 3 then "alu" else "acc" in
  let options =
    Synth.Engine.(default_options |> with_max_iterations (300 + (seq mod 4)))
  in
  (design, options)

(* runs the batch; returns per-request bindings, the trace ids the
   terminal replies carried, and the retry count *)
let run_batch addr =
  let retried = ref 0 in
  let traces = ref [] in
  let results =
    Array.init total (fun seq ->
        let design, options = request_of seq in
        match
          Client.with_retry ~retries:5 ~backoff_ms:5 ~seed:seq
            ~on_retry:(fun ~attempt:_ ~delay:_ _ -> incr retried)
            addr
            (fun c -> Client.synth c ~design options)
        with
        | r ->
            if r.Proto.outcome <> "solved" then
              fail "request %d (%s) came back %s" seq design r.Proto.outcome;
            if r.Proto.trace = "" then
              fail "request %d (%s) reply carried no trace id" seq design;
            traces := r.Proto.trace :: !traces;
            r.Proto.bindings
        | exception e ->
            fail "request %d (%s) failed after retries: %s" seq design
              (Printexc.to_string e))
  in
  (results, !traces, !retried)

(* the faulted phase's flight dumps: every [worker_lost] dump must be
   valid Chrome-trace JSON, and at least one event across them must be
   tagged with a trace id some terminal reply reported — the killed
   request is requeued under its original id, so its reply names it *)
let check_flight_dumps traces =
  let dumps =
    match Sys.readdir dump_dir with
    | files -> Array.to_list files
    | exception Sys_error _ -> []
  in
  let is_lost_dump f =
    (* owl-flight-<pid>-worker_lost-<n>.json *)
    String.length f > 5
    && Filename.check_suffix f ".json"
    &&
    let rec find i =
      i + 11 <= String.length f
      && (String.sub f i 11 = "worker_lost" || find (i + 1))
    in
    find 0
  in
  let lost = List.filter is_lost_dump dumps in
  if lost = [] then fail "the worker kill left no flight dump in %s" dump_dir;
  let traced = ref false in
  List.iter
    (fun f ->
      let path = Filename.concat dump_dir f in
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match Json.parse s with
      | exception Json.Parse_error m ->
          fail "flight dump %s is not valid JSON: %s" f m
      | doc -> (
          match Json.member "traceEvents" doc with
          | Some (Json.Arr (_ :: _ as evs)) ->
              List.iter
                (fun ev ->
                  match Json.member "args" ev with
                  | Some args -> (
                      match Json.member "trace" args with
                      | Some (Json.String id) when List.mem id traces ->
                          traced := true
                      | _ -> ())
                  | None -> ())
                evs
          | _ -> fail "flight dump %s has no traceEvents" f))
    lost;
  if not !traced then
    fail "no flight-dump event carries a trace id any reply reported";
  List.length lost

let cleanup_dumps () =
  (match Sys.readdir dump_dir with
  | files ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dump_dir f) with Sys_error _ -> ())
        files
  | exception Sys_error _ -> ());
  try Unix.rmdir dump_dir with Unix.Unix_error _ -> ()

let run_plan baseline plan =
  let faults = String.split_on_char ',' plan in
  let kills = List.exists (String.starts_with ~prefix:"worker_kill") faults in
  Fault.install (Fault.parse plan);
  Fun.protect ~finally:Fault.clear @@ fun () ->
  let addr, th = start "faulted" in
  let faulted, traces, retried = run_batch addr in
  let wrong = ref 0 in
  Array.iteri
    (fun seq b -> if b <> baseline.(seq) then incr wrong)
    faulted;
  if !wrong > 0 then
    fail "%s: %d of %d replies diverged from the fault-free bindings" plan
      !wrong total;
  if Fault.fired () < List.length faults then
    fail "%s: only %d of %d planned faults fired" plan (Fault.fired ())
      (List.length faults);
  (* recovery: a fresh cold fingerprint still solves on a worker, and
     the pool is back to full strength *)
  let c = Client.connect addr in
  let post =
    Client.synth c ~design:"acc"
      Synth.Engine.(default_options |> with_max_iterations 997)
  in
  if post.Proto.outcome <> "solved" then
    fail "%s: post-fault cold request came back %s" plan post.Proto.outcome;
  if post.Proto.hot then fail "%s: post-fault cold request answered hot" plan;
  let _, _, h = Client.ping c in
  Client.close c;
  stop addr th;
  if h.Proto.workers_alive <> jobs then
    fail "%s: recovery incomplete: %d/%d workers alive" plan
      h.Proto.workers_alive jobs;
  if kills && h.Proto.workers_lost < 1 then
    fail "%s: the worker kill left no trace in the health report" plan;
  if h.Proto.degraded then fail "%s: daemon still degraded after recovery" plan;
  if h.Proto.queue_waiting <> 0 then
    fail "%s: %d jobs still queued after the batch" plan h.Proto.queue_waiting;
  let dumps =
    Fun.protect ~finally:cleanup_dumps (fun () ->
        if kills then check_flight_dumps traces else 0)
  in
  Printf.printf
    "chaos smoke: %d requests ok under %s (%d retries, %d worker(s) lost \
     and respawned, bindings bit-identical, %d traced flight dump(s))\n%!"
    total plan retried h.Proto.workers_lost dumps

let () =
  (* phase one: fault-free baseline *)
  let addr, th = start "baseline" in
  let baseline, _, _ = run_batch addr in
  stop addr th;
  (* phase two: the same batch under each plan *)
  List.iter (run_plan baseline) plans;
  print_endline "chaos smoke: ok"
