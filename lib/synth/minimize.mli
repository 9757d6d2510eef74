(** Don't-care minimization of synthesized control — the paper's §5.3
    future-work direction of generating control that is "correct and also
    optimal with respect to some objective function".

    Per hole, instructions are greedily moved into the most popular value
    group whenever re-verification proves the changed value still
    satisfies that instruction's correctness condition; the result is
    re-unioned.  Each re-verification is one {!Engine.checker} query — the
    refined check of {!Engine.verify}, with its resilience ladder, spans
    and fault recovery — so every adopted value is verified and the output
    is correct by construction like the input. *)

type stats = {
  mutable checks : int;  (** re-verification queries issued *)
  mutable merged : int;  (** (instruction, hole) pairs moved to a shared value *)
  mutable wall_seconds : float;
}

type result = { solved : Engine.solved; minimize_stats : stats }

val run : Engine.problem -> Engine.solved -> result
(** A check that cannot decide ([Inconclusive]) conservatively keeps the
    original value. *)
