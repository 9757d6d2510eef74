(** Deterministic fault injection for the solving stack.

    A {e fault plan} names, by global index, the solver checks and pool
    task attempts that should misbehave: a check can return a spurious
    [Unknown] (the solver state is left untouched, so a retry of the same
    check is honest) or hand back a corrupted copy of its model (one
    seed-chosen bit flipped per variable); a task attempt can crash with
    {!Injected_crash} before any work runs.  Plans are parsed from a
    string and installed process-globally, with atomic counters, so a plan
    exercises exactly the same faults on every run — the recovery paths of
    the resilience layer become reproducibly testable.

    When no plan is installed (the default), every hook is a single atomic
    load — the machinery costs nothing in production.  This module reads
    no environment variable: the owl command line takes the plan from
    [--fault-plan] or, when the flag is absent, from [OWL_FAULT_PLAN]
    (a blank value means no plan).

    Plan grammar (comma-separated, whitespace-free):

    {v unknown@N | corrupt@N | crash@N
       | worker_kill@N | conn_drop@N | frame_delay@N | shed@N | seed=N v}

    where [N >= 1] indexes solver checks (for [unknown]/[corrupt]), pool
    task attempts (for [crash]), service-job executions (for
    [worker_kill]), server-written frames (for [conn_drop]/[frame_delay]),
    or admission decisions (for [shed]) — each site in its own
    process-global arrival order.  The implementation declares each
    directive once, with its site; that declaration order is the canonical
    rendering order and, at one index of one site, the precedence.  [seed]
    (default 0) varies which model bit a [corrupt] flips.

    The first three directives exercise the engine's resilience ladder and
    the batch pool's crash-blame retry; the last four extend the same
    deterministic machinery to the serve layer: [worker_kill@N] raises
    out of the Nth service-job execution (the worker that ran it must
    catch it and retry the job), [conn_drop@N] severs the connection instead of writing the Nth
    frame (the client sees a mid-exchange hangup), [frame_delay@N] stalls
    the Nth frame by {!frame_delay_seconds}, and [shed@N] forces the Nth
    admission decision to answer [Busy] as if the queue were full. *)

type action =
  | Spurious_unknown  (** report [Unknown] without consulting the solver *)
  | Corrupt_model  (** if the check is [Sat], corrupt a copy of its model *)

type frame_action =
  | Drop_conn  (** sever the connection instead of writing this frame *)
  | Delay of float  (** stall this frame's write by the given seconds *)

exception Injected_crash of int
(** Raised by {!on_task} for a planned crash; the payload is the 1-based
    task-attempt index that crashed. *)

exception Injected_worker_kill of int
(** Raised by {!on_serve_job} for a planned worker kill; the payload is
    the 1-based service-job index.  The serve layer deliberately lets this
    escape the job to the worker loop that ran it — exactly the path any
    exception a job fails to contain takes, and the one whose catch and
    single retry the fault exercises. *)

val frame_delay_seconds : float
(** How long a [frame_delay@N] stalls its frame (0.05 s). *)

exception Parse_error of string

type plan

val parse : string -> plan
(** Parses the grammar above.  Raises {!Parse_error} with a diagnostic on
    malformed input (unknown directive, index < 1, empty element). *)

val to_string : plan -> string
(** Canonical rendering of a plan (sorted indices, seed last). *)

val install : plan -> unit
(** Installs a plan process-globally with every site's arrival counter
    at zero.  Replaces any previous plan. *)

val clear : unit -> unit
(** Removes the installed plan; hooks become free again. *)

val active : unit -> bool

val seed : unit -> int
(** The installed plan's seed, or 0 when no plan is installed. *)

val fired : unit -> int
(** How many planned faults have triggered since {!install}.  A [corrupt]
    counts when its check arrives, even if the check turns out not to be
    [Sat]. *)

val on_check : unit -> action option
(** Called by the solver once per check, before searching.  Returns the
    planned action for this check index, if any; [unknown@N] wins over
    [corrupt@N] at the same index. *)

val on_task : unit -> unit
(** Called by the pool once per task attempt, before the task body.
    Raises {!Injected_crash} when this attempt index is planned to
    crash. *)

val on_serve_job : unit -> unit
(** Called by the serve layer once per service-job execution, before the
    job body.  Raises {!Injected_worker_kill} when this job index is
    planned to fail. *)

val on_frame : unit -> frame_action option
(** Called by the serve layer once per server-written frame, before the
    write.  Returns the planned misbehavior for this frame index, if any;
    [conn_drop@N] wins over [frame_delay@N] at the same index. *)

val on_admit : unit -> bool
(** Called by the serve layer once per admission decision (solver work
    only — control requests and hot-tier hits never shed).  Returns
    whether this admission is planned to answer [Busy]. *)
