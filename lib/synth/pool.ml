(* A fixed-size Domain worker pool for independent synthesis jobs.

   Tasks are pulled from a shared atomic cursor, so the pool balances load
   without any per-task channel machinery.  The calling domain is itself a
   worker (spawning [jobs - 1] extra domains), which makes [jobs = 1] a
   true serial fallback: no domain is spawned and tasks run inline, in
   order, on the caller's stack.

   Results are stored by task index and returned in input order, so callers
   see a deterministic shape regardless of completion order.  A task that
   raises is first retried up to [retries] times, each retry on fresh
   per-worker state (a crashed worker's arena may be mid-mutation, so it is
   abandoned rather than reused); only a task whose every attempt raised
   becomes [Raised].  That does not tear the pool down mid-run either:
   every task still executes, and the exception of the lowest-indexed
   failing task is re-raised after all workers have joined (deterministic
   blame). *)

type 'b cell = Pending | Done of 'b | Raised of exn

let c_tasks = Obs.counter "pool.tasks"
let c_task_crashes = Obs.counter "pool.task_crashes"
let h_task_latency = Obs.histogram "pool.task.latency_us"

(* [map_arena] is the general form: each worker calls [make] at startup
   (and once more per retry attempt), and passes the resulting per-worker
   state to every task it executes.  This is how the engine gives each
   domain its own {!Solver.Arena} — sessions are unlocked single-owner
   state, so they must be allocated on (and never leave) the domain that
   uses them. *)
let map_arena ~jobs ~make ?(retries = 0) ?retried f items =
  if jobs < 1 then invalid_arg "Pool.map_arena: jobs < 1";
  if retries < 0 then invalid_arg "Pool.map_arena: retries < 0";
  let arr = Array.of_list items in
  let n = Array.length arr in
  if n = 0 then []
  else begin
    let results = Array.make n Pending in
    let cursor = Atomic.make 0 in
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
        | v -> Done v
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
            if not will_retry then Raised e
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
      let r = attempt w 0 in
      Obs.incr c_tasks;
      if Obs.metrics_enabled () then
        Obs.observe h_task_latency
          (int_of_float ((Unix.gettimeofday () -. t_start) *. 1e6));
      r
    in
    let worker () =
      let executed = ref 0 in
      Obs.span "pool.worker"
        ~result:(fun () -> [ ("tasks", Obs.Int !executed) ])
        (fun () ->
          let w = make () in
          let rec go () =
            let i = Atomic.fetch_and_add cursor 1 in
            if i < n then begin
              results.(i) <- run_task w i;
              incr executed;
              go ()
            end
          in
          go ())
    in
    let spawned =
      List.init
        (min jobs n - 1)
        (fun _ -> Domain.spawn worker)
    in
    worker ();
    List.iter Domain.join spawned;
    (* first failure by index wins; otherwise collect in order *)
    Array.iter (function Raised e -> raise e | _ -> ()) results;
    Array.to_list
      (Array.map
         (function Done v -> v | Pending | Raised _ -> assert false)
         results)
  end

(* {1 Persistent service pool}

   [map_arena] is a batch construct: it owns its workers for one call.  A
   long-lived daemon instead needs workers that outlive any one request
   and pull from a queue whose discipline the caller controls (admission
   control, per-client fairness).  [Service] is exactly that and nothing
   more: [jobs] domains looping on a caller-supplied blocking [pull].
   The queueing policy, and therefore all synchronization around it, stays
   with the caller — the pool only guarantees that a task that raises
   never kills its worker. *)

module Service = struct
  exception Fatal of exn * (unit -> unit)

  type stats = { total : int; alive : int; lost : int; respawns : int }

  type t = {
    lock : Mutex.t;
    jobs : int;
    mutable domains : unit Domain.t list;
        (* every domain ever spawned for this service, replacements
           included — [join] drains this list until it stops growing *)
    mutable alive : int;
    mutable lost : int;
    mutable respawns : int;
  }

  let c_service_tasks = Obs.counter "pool.service.tasks"
  let c_service_crashes = Obs.counter "pool.service.task_crashes"
  let c_service_lost = Obs.counter "pool.service.worker_lost"

  let start ~jobs ~pull =
    if jobs < 1 then invalid_arg "Pool.Service.start: jobs < 1";
    let t =
      {
        lock = Mutex.create ();
        jobs;
        domains = [];
        alive = 0;
        lost = 0;
        respawns = 0;
      }
    in
    (* A worker that loses its domain to [Fatal] spawns its own
       replacement before dying — supervision without a supervisor
       thread.  The replacement is registered under the lock so [join]
       and [stats] always see it, and capacity ([alive]) never dips:
       the dying worker hands its slot straight to the new one. *)
    let rec worker () =
      let down (e, last_words) =
        Obs.incr c_service_lost;
        if Obs.recording () then
          (* the trace context the caller's [pull] installed for the task
             that killed this worker is still set on the dying domain, so
             the instant names the request that was in hand *)
          Obs.instant "pool.service.worker_lost"
            ~args:
              (let exn = [ ("exn", Obs.Str (Printexc.to_string e)) ] in
               match Obs.trace_context () with
               | None -> exn
               | Some id -> ("trace", Obs.Str id) :: exn);
        Mutex.lock t.lock;
        t.lost <- t.lost + 1;
        t.respawns <- t.respawns + 1;
        t.domains <- Domain.spawn worker :: t.domains;
        Mutex.unlock t.lock;
        (* only now, with the loss on the books, may the task's final
           words (typically the reply reporting the loss) go out *)
        try last_words () with _ -> Obs.incr c_service_crashes
      in
      let retire () =
        Mutex.lock t.lock;
        t.alive <- t.alive - 1;
        Mutex.unlock t.lock
      in
      let rec go () =
        match pull () with
        | None -> retire ()
        | Some task -> (
            match
              try
                Obs.span "pool.service.task" task;
                Obs.incr c_service_tasks;
                None
              with
              | Fatal (e, last_words) -> Some (e, last_words)
              | _ ->
                  Obs.incr c_service_crashes;
                  None
            with
            | None -> go ()
            | Some e -> down e)
      in
      go ()
    in
    Mutex.lock t.lock;
    t.alive <- jobs;
    t.domains <- List.init jobs (fun _ -> Domain.spawn worker);
    Mutex.unlock t.lock;
    t

  let stats t =
    Mutex.lock t.lock;
    let s =
      { total = t.jobs; alive = t.alive; lost = t.lost; respawns = t.respawns }
    in
    Mutex.unlock t.lock;
    s

  (* The domain list grows while workers are being respawned, so one
     pass is not enough: join what we see, then look again, until a
     pass finds nothing new.  Termination needs [pull] to be returning
     [None] (so replacements retire instead of working). *)
  let join t =
    let rec drain joined =
      Mutex.lock t.lock;
      let batch = List.filter (fun d -> not (List.memq d joined)) t.domains in
      Mutex.unlock t.lock;
      match batch with
      | [] -> ()
      | ds ->
          List.iter Domain.join ds;
          drain (ds @ joined)
    in
    drain []
end

let map ~jobs f items =
  if jobs < 1 then invalid_arg "Pool.map: jobs < 1";
  map_arena ~jobs ~make:(fun () -> ()) (fun () x -> f x) items
