(** Cycle-accurate concrete interpretation of Oyster designs — the
    simulator for completed (hole-free or hole-bound) synchronous hardware.

    One {!step} executes every statement of a cycle: combinational
    assignments take effect immediately; register assignments and memory
    writes are buffered and committed at the end of the step, in statement
    order (later writes to the same address win). *)

exception Runtime_error of string

val fail : ('a, unit, string, 'b) format4 -> 'a
(** Raises {!Runtime_error} with a formatted message. *)

type mem_state = {
  contents : (Bitvec.t, Bitvec.t) Hashtbl.t;
  default : Bitvec.t -> Bitvec.t;  (** backing image for unwritten cells *)
  data_width : int;
}

type state = {
  design : Ast.design;
  regs : (string, Bitvec.t) Hashtbl.t;
  mems : (string, mem_state) Hashtbl.t;
  mutable cycle : int;
}

val init :
  ?mem_init:(string -> int -> int -> Bitvec.t -> Bitvec.t) ->
  Ast.design ->
  state
(** Fresh state: registers zero, memories backed by
    [mem_init name addr_width data_width addr] (default all-zero). *)

val set_register : state -> string -> Bitvec.t -> unit
val get_register : state -> string -> Bitvec.t
val read_mem : state -> string -> Bitvec.t -> Bitvec.t

type step_result = {
  outputs : (string * Bitvec.t) list;
  wires : (string * Bitvec.t) list;
      (** all combinational values of the cycle, including sampled inputs *)
}

val step :
  ?inputs:(string -> int -> Bitvec.t) ->
  ?hole_value:(string -> int -> Bitvec.t) ->
  state ->
  step_result
(** Executes one cycle.  [inputs name width] supplies input values (the
    default raises); [hole_value] supplies values for unfilled holes (the
    default raises). *)
