(** A fixed-size Domain worker pool for independent synthesis jobs.

    The synthesis engine uses this to fan independent per-instruction CEGIS
    loops and verification queries out across cores (paper §3.3.1: the
    queries are independent, so nothing orders them).  The pool is
    deliberately minimal: a shared atomic task cursor, [jobs - 1] spawned
    domains plus the calling domain, results returned in input order. *)

exception Cancelled
(** Raised by a task to cancel its {!map_arena} batch; the engine's
    [Engine.Cancelled] is this exception. *)

val map_arena :
  jobs:int ->
  make:(unit -> 'w) ->
  ?retries:int ->
  ?retried:int Atomic.t ->
  ('w -> 'a -> 'b) ->
  'a list ->
  'b list
(** [map_arena ~jobs ~make f items] applies [f] to every item, running up
    to [jobs] applications concurrently, and returns the results in input
    order.  With [jobs = 1] no domain is spawned and the applications run
    inline, in order — a true serial fallback.

    Each worker domain calls [make ()] once before pulling tasks, and
    every task that worker executes receives that worker's state as the
    first argument.  [Engine.verify] uses this to give each domain a
    private solver session — sessions are unlocked single-owner state, so
    they are allocated per worker and never cross domains.  Which tasks
    share a worker's state depends on the dynamic schedule; state must
    therefore only carry caches or other result-invariant context.

    A task that raises is re-executed up to [retries] times (default 0),
    each retry on a fresh [make ()] state — a crashed attempt may have
    left the worker's state mid-mutation, so the worker drops it for good
    and runs its later tasks on the state of the task's last attempt.
    Each retry increments [retried] when given, so callers can
    surface recovery counts in their statistics.  Every attempt first
    passes the {!Fault.on_task} crash-injection point, which is how
    simulated worker crashes exercise exactly this path.  Only a task
    whose every attempt raised counts as failed; every task still runs to
    completion and the exception of the lowest-indexed failing task is
    re-raised after all workers have joined, so blame is deterministic.

    A task that raises {!Cancelled} cancels the batch instead: it is
    neither retried nor counted as a crash, no further task starts, and
    [Cancelled] is re-raised once the running tasks finish.  Raises
    [Invalid_argument] if [jobs < 1] or [retries < 0]. *)

(** Long-lived worker domains for a request-serving daemon.

    Unlike {!map_arena}, whose workers exist for one batch, a service pool
    runs until the work source it was given runs dry.  The queueing policy
    lives entirely with the caller: the daemon keeps its own bounded,
    per-client-fair queue and hands the pool just a blocking [pull]. *)
module Service : sig
  type t

  exception Fatal of exn * (unit -> unit)
  (** A task raises [Fatal (e, last_words)] to declare its worker domain
      unusable (simulating — or reacting to — a worker death).  The
      worker records the loss in {!stats} and the
      [pool.service.worker_lost] counter, spawns its own replacement, runs
      [last_words] (an exception from it is counted as a task crash), and
      dies.  Whatever [last_words] does — answering the request the worker
      died on, say — therefore happens after {!stats} counts the loss.
      Any other exception from a task is swallowed (counted as
      [pool.service.task_crashes]): one bad request must not take a
      worker down with it. *)

  type stats = {
    total : int;  (** worker slots configured at {!start} *)
    alive : int;  (** workers currently running (replacements included) *)
    lost : int;  (** cumulative {!Fatal} worker deaths *)
    respawns : int;  (** replacements spawned; equals [lost] today *)
  }

  val start : jobs:int -> pull:(unit -> (unit -> unit) option) -> t
  (** [start ~jobs ~pull] spawns [jobs] worker domains, each looping
      [pull () |> task ()].  [pull] must be safe to call from multiple
      domains concurrently, should block while no work is available, and
      returns [None] to retire the calling worker (after a shutdown has
      drained the queue, typically).  A task that raises {!Fatal} downs
      its worker, which is respawned (supervision); any other exception
      is counted and dropped.  Raises [Invalid_argument] if
      [jobs < 1]. *)

  val stats : t -> stats
  (** A consistent snapshot of the supervision state — the daemon's
      health report reads worker capacity from here. *)

  val join : t -> unit
  (** Waits for every worker — replacements included — to retire.  Call
      only after arranging for [pull] to return [None] to each of them,
      or [join] blocks forever. *)
end
