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
