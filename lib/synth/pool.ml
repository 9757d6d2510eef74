(* A fixed-size Domain worker pool for independent synthesis jobs.

   Tasks are pulled from a shared atomic cursor, so the pool balances load
   without any per-task channel machinery.  The calling domain is itself a
   worker (spawning [jobs - 1] extra domains), which makes [jobs = 1] a
   true serial fallback: no domain is spawned and tasks run inline, in
   order, on the caller's stack.

   Results are stored by task index and returned in input order, so callers
   see a deterministic shape regardless of completion order.  A task that
   raises is first retried up to [retries] times, each retry on fresh
   per-worker state (a crashed worker's state may be mid-mutation, so it is
   replaced for good: the worker carries on with the state its last
   attempt ran on); only a task whose every attempt raised
   becomes [Raised].  That does not tear the pool down mid-run either:
   every task still executes, and the exception of the lowest-indexed
   failing task is re-raised after all workers have joined (deterministic
   blame).  [Cancelled] is the exception to both rules: it is never
   retried, no further task starts, and it is what the pool re-raises. *)

type 'b cell = Pending | Done of 'b | Raised of exn

let c_tasks = Obs.counter "pool.tasks"
let c_task_crashes = Obs.counter "pool.task_crashes"
let h_task_latency = Obs.histogram "pool.task.latency_us"

exception Cancelled

(* Each worker calls [make] at startup (and once more per retry attempt),
   and passes the resulting per-worker state to every task it executes.
   This is how [Engine.verify] gives each domain its own solver session —
   sessions are unlocked single-owner state, so they must be allocated on
   (and never leave) the domain that uses them. *)
let map_arena ~jobs ~make ?(retries = 0) ?retried f items =
  if jobs < 1 then invalid_arg "Pool.map_arena: jobs < 1";
  if retries < 0 then invalid_arg "Pool.map_arena: retries < 0";
  let arr = Array.of_list items in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let results = Array.make n Pending in
    let cursor = Atomic.make 0 in
    let cancelled = Atomic.make false in
    (* returns the cell and the state the last attempt ran on *)
    let run_task w i =
      (* [Fault.on_task] is the crash-injection point: it counts this
         attempt and raises when the installed fault plan says so, taking
         exactly the retry path a real worker crash would *)
      let rec attempt w k =
        match
          Obs.span "pool.task"
            ~args:[ ("task", Obs.Int i); ("attempt", Obs.Int k) ]
            (fun () ->
              Fault.on_task ();
              f w arr.(i))
        with
        | v -> (w, Done v)
        | exception Cancelled ->
            Atomic.set cancelled true;
            (w, Raised Cancelled)
        | exception e ->
            let will_retry = k < retries in
            Obs.incr c_task_crashes;
            if Obs.recording () then
              Obs.instant "pool.task.crash"
                ~args:
                  [
                    ("task", Obs.Int i);
                    ("attempt", Obs.Int k);
                    ("exn", Obs.Str (Printexc.to_string e));
                    ("will_retry", Obs.Bool will_retry);
                  ];
            if not will_retry then (w, Raised e)
            else begin
              (match retried with
              | Some c -> Atomic.incr c
              | None -> ());
              attempt (make ()) (k + 1)
            end
      in
      let t_start =
        if Obs.metrics_enabled () then Unix.gettimeofday () else 0.0
      in
      let w, r = attempt w 0 in
      Obs.incr c_tasks;
      if Obs.metrics_enabled () then
        Obs.observe h_task_latency
          (int_of_float ((Unix.gettimeofday () -. t_start) *. 1e6));
      (w, r)
    in
    let worker () =
      let executed = ref 0 in
      Obs.span "pool.worker"
        ~result:(fun () -> [ ("tasks", Obs.Int !executed) ])
        (fun () ->
          let rec go w =
            let i = Atomic.fetch_and_add cursor 1 in
            if i < n && not (Atomic.get cancelled) then begin
              let w, r = run_task w i in
              results.(i) <- r;
              incr executed;
              go w
            end
          in
          go (make ()))
    in
    let spawned =
      List.init
        (min jobs n - 1)
        (fun _ -> Domain.spawn worker)
    in
    worker ();
    List.iter Domain.join spawned;
    (* cancellation wins, then the first failure by index; otherwise
       collect in order *)
    if Atomic.get cancelled then raise Cancelled;
    Array.iter (function Raised e -> raise e | _ -> ()) results;
    Array.to_list
      (Array.map
         (function Done v -> v | Pending | Raised _ -> assert false)
         results)
  end
