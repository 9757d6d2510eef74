(** Retry arithmetic for solver queries: the escalating ladder.

    A logical query runs as up to [retries + 1] attempts, where [retries]
    is the engine's [options.retries].  Attempt [k] gets a conflict budget
    of [b1 * 4^(k-1)] (capped by the run's remaining pool), where [b1]
    divides the total budget down so the whole ladder stays within it;
    the final attempt gets everything that remains.  The growth factor 4
    is a constant of the ladder.  Deadlines are sliced the same way: a
    non-final attempt may only spend a growing share of the time left
    divided by the tasks still outstanding — one hard instruction cannot
    starve the rest — while the final attempt runs to the hard deadline.
    The final attempt also {e degrades}: it abandons the incremental
    session for a fresh one-shot solver, discarding possibly-bloated
    learned-clause state.

    With the default engine options (unlimited budget, no deadline) every
    attempt is effectively unbounded, so the ladder only matters when a
    fault, a budget, or a deadline is in play — pay-as-you-go. *)

val is_final : retries:int -> attempt:int -> bool
(** Whether 1-based [attempt] is the ladder's last, i.e. [attempt > retries]. *)

val attempt_budget :
  retries:int -> total:int -> remaining:int -> attempt:int -> int
(** Conflict budget for 1-based [attempt]: the escalating share described
    above, never exceeding [remaining]; the final attempt returns
    [remaining] outright.  All arithmetic saturates, so [total = max_int]
    yields effectively unlimited attempts. *)

val slice_deadline :
  retries:int ->
  now:float ->
  hard:float option ->
  tasks_left:int ->
  attempt:int ->
  float option
(** Deadline for 1-based [attempt]: [None] if there is no hard deadline;
    the hard deadline itself on the final attempt; otherwise [now] plus
    [4^(attempt-1)] times the remaining time divided by [tasks_left]
    (clamped to the hard deadline). *)
