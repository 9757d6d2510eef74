(** Symbolic evaluation of Oyster designs over SMT terms — the
    Rosette-style "lifted interpreter" of paper §3.1.

    A k-cycle evaluation produces the state sequence s_0 .. s_k of the
    paper's Equation (1): register values as terms, memories as
    uninterpreted initial contents plus a chronological write log, and each
    cycle's combinational wire values.

    Naming (every name carries a per-evaluation session prefix [p] so the
    global {!Term} variable registry never sees width clashes):
    [<p>reg!<name>] initial register values, [<p>in!<name>!<c>] the value of
    an input during cycle [c], [<p>hole!<name>] the existential constant for
    a hole under the default policy. *)

type write_event = {
  w_cycle : int;  (** the 1-based cycle whose step performed the write *)
  w_addr : Term.t;
  w_data : Term.t;
  w_enable : Term.t;
}

type snapshot = {
  s_regs : (string * Term.t) list;
  s_writes : (string * write_event list) list;
      (** chronological prefix of the write log committed by this state *)
}

type trace = {
  design : Ast.design;
  prefix : string;
  cycles : int;
  snapshots : snapshot array;  (** length [cycles + 1]: s_0 .. s_k *)
  cycle_wires : (string * Term.t) list array;
      (** index [c-1]: wire/output/input values during cycle [c] *)
  hole_terms : (string * Term.t) list;
  mems : (string * Term.mem) list;
}

val fresh_prefix : unit -> string

val eval_binop : Ast.binop -> Term.t -> Term.t -> Term.t

val eval :
  ?prefix:string ->
  ?input_term:(string -> int -> cycle:int -> Term.t) ->
  ?hole_term:(string -> int -> lookup:(string -> Term.t) -> Term.t) ->
  Ast.design ->
  cycles:int ->
  trace
(** Runs the design symbolically.  The default input policy creates a fresh
    symbol per input per cycle; the default hole policy creates one
    existential constant per hole.  The design is typechecked first. *)

(** {1 Trace accessors} *)

val reg_at : trace -> state:int -> string -> Term.t
(** Register value in state [s_state] (0 = initial). *)

val wire_at : trace -> cycle:int -> string -> Term.t
(** Combinational value during the given (1-based) cycle. *)

val mem_of : trace -> string -> Term.mem

val read_mem_at : trace -> state:int -> string -> Term.t -> Term.t
(** Read at an address as observed in state [s_state]. *)

val writes_at : trace -> state:int -> string -> write_event list
