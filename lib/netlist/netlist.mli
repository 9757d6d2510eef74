(** Gate-level compilation of hole-free Oyster designs, for the design-size
    comparison of paper Table 2.

    The design is evaluated symbolically for one cycle and the resulting
    next-state / output / write terms are lowered to 2-input gates (with
    mux as a single cell).  Small memories — address width up to 6 —
    become DFF arrays with mux read ports and decoded write ports; larger
    ones stay black boxes whose port logic is still counted.

    Two modes stand in for the paper's "before/after Yosys" comparison:
    raw folds constants but shares nothing; optimized adds structural
    hashing (CSE), algebraic shortcuts, and dead-gate elimination from the
    design's roots (outputs, register next-states, memory ports). *)

type counts = {
  ands : int;
  ors : int;
  xors : int;
  nots : int;
  muxes : int;
  dffs : int;  (** register bits + materialized memory bits *)
  total_gates : int;  (** combinational cells: and + or + xor + not + mux *)
}

exception Netlist_error of string

val of_design : ?optimize:bool -> Oyster.Ast.design -> counts
(** Raises {!Netlist_error} if the design still has holes. *)
