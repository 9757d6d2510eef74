(** The instruction-independence property (paper §3.3.1) whose two
    conditions license per-instruction synthesis and the control union. *)

type exclusion_report = {
  overlapping : (string * string) list;
      (** instruction pairs whose preconditions can hold simultaneously *)
  undecided : (string * string) list;  (** solver budget exhausted *)
}

val check_mutual_exclusion :
  ?budget:int -> Ila.Conditions.conditions list -> exclusion_report
(** Pairwise satisfiability of [pre_i /\ pre_j] (plus assumptions); empty
    [overlapping] means the preconditions are mutually exclusive. *)

type feedback_report = {
  feedback_paths : (string * string * string) list;
      (** (source hole, tainted dependency wire, consuming hole) *)
}

val check_no_feedback :
  ?allowed_cuts:string list -> Oyster.Ast.design -> feedback_report
(** Static combinational-taint analysis: no hole's output may reach another
    hole's declared dependency wires, except through [allowed_cuts] (the
    valid/flush wires the abstraction function identifies, per the paper's
    exception). *)

val independent :
  ?budget:int ->
  allowed_cuts:string list ->
  Oyster.Ast.design ->
  Ila.Conditions.conditions list ->
  exclusion_report * feedback_report * bool
(** Both checks; the boolean is the conjunction "independent".  The one
    gate: [Engine.synthesize] applies it, and [Engine.independence] runs
    it alone for [owl independence] and the ablation bench.
    [allowed_cuts] is required so no caller can drop the abstraction
    function's assume wires and report a feedback path the engine
    accepts. *)
