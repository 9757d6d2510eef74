(** Compilation of ILA instructions into pre/postconditions over a symbolic
    Oyster trace — the T[[.]] translation of paper Fig. 8 combined with the
    abstraction-function substitution of Equation (1):

    {v
    Pre_j  [s_spec := alpha(s_0)]          (SetDecode -> assume)
    Post_j [s_spec := alpha(s_1 .. s_k)]   (SetUpdate -> assert)
    v}

    Postconditions cover every architectural state element: updated
    elements must equal their specified values, untouched ones must keep
    their pre-state values (the frame).  Memory frames use one universally
    quantified "challenge" address per write-capable datapath memory: in
    the verification query its negation lets the solver search for a
    differing address; in the CEGIS synthesis phase the counterexample
    fixes it. *)

exception Compile_error of string

type conditions = {
  instr_name : string;
  pre : Term.t;  (** the compiled decode predicate *)
  assumes : Term.t;  (** conjunction of abstraction-function assumptions *)
  post : Term.t;
  challenges : (string * Term.t) list;
      (** datapath memory name -> its challenge address variable *)
}

val compile : Spec.t -> Absfun.t -> Oyster.Symbolic.trace -> conditions list
(** All instructions, in creation order; specification expressions read
    the pre-state at the abstraction function's read times and ports.
    Raises {!Compile_error} on inconsistencies (trace length differs from
    the abstraction function's [cycles], updates to unmapped state, ...). *)

(** {1 The refinement formulas}

    The only builders of the two formulas every check of the engine
    poses; callers substitute hole values or refine pinned fields on the
    result. *)

val violation : conditions -> Term.t
(** [pre ∧ assumes ∧ ¬post], associated as [(pre ∧ assumes) ∧ ¬post]:
    unsatisfiable iff the instruction is implemented correctly. *)

val correctness : conditions -> Term.t
(** [pre ∧ assumes → post], the CEGIS synthesis-phase constraint that a
    counterexample grounds. *)
