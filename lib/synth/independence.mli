(** The instruction-independence property (paper §3.3.1) whose two
    conditions license per-instruction synthesis and the control union.
    This module builds the checks and poses no query:
    [Engine.synthesize] applies them on every call, and
    [Engine.independence] runs them alone for [owl independence] and the
    ablation bench. *)

val exclusion_violation : Ila.Conditions.conditions list -> Term.t
(** The at-most-one formula over each instruction's [p_i = pre_i ∧
    assumes_i], as a sequential counter ([ov_i = seen_(i-1) ∧ p_i],
    [seen_i = seen_(i-1) ∨ p_i], violation [∨ ov_i]): satisfiable iff two
    preconditions can hold at once, so Unsat means they are mutually
    exclusive.  It has O(n) terms. *)

val co_decoding :
  Term.env -> Ila.Conditions.conditions list -> (string * string) list
(** Reads a witness of {!exclusion_violation}, given as an evaluation
    environment: every pair, in instruction order, of instructions whose
    [p_i] both hold under it.  Pairs that overlap only under another
    witness are not listed. *)

type feedback_report = {
  feedback_paths : (string * string * string) list;
      (** (source hole, tainted dependency wire, consuming hole) *)
}

val path_to_string : string * string * string -> string
(** [hole h -> wire w -> hole h']: how [owl independence] and serve
    replies render a feedback path. *)

val check_no_feedback :
  ?allowed_cuts:string list -> Oyster.Ast.design -> feedback_report
(** Static combinational-taint analysis: no hole's output may reach another
    hole's declared dependency wires, except through [allowed_cuts] (the
    valid/flush wires the abstraction function identifies, per the paper's
    exception). *)
