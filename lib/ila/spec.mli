(** ILA specifications (paper §2.1): a mutable builder mirroring the ILA
    C++ API, plus a concrete architectural-level evaluator used as a
    reference model in tests and benchmarks.

    An instruction is a decode predicate (paper: [SetDecode]) plus a set of
    simultaneous state updates ([SetUpdate]) whose right-hand sides all read
    the pre-state. *)

exception Spec_error of string

type update =
  | Ubv of string * Expr.t  (** bitvector state := expr *)
  | Umem of string * (Expr.t * Expr.t) list
      (** memory := Store*(mem, addr, data); later stores win *)

type instr = {
  iname : string;
  mutable decode : Expr.t option;
  mutable updates : update list;
}

type t = {
  sname : string;
  mutable inputs : (string * int) list;
  mutable bv_states : (string * int) list;
  mutable mem_states : (string * int * int) list;  (** name, addr_w, data_w *)
  mutable mem_consts : (string * int * Bitvec.t array) list;
  mutable instrs : instr list;  (** reverse creation order *)
}

(** {1 Building (the ILA API)} *)

val create : string -> t
val new_bv_input : t -> string -> int -> Expr.t
val new_bv_state : t -> string -> int -> Expr.t

val new_mem_state : t -> string -> addr_width:int -> data_width:int -> string
(** Returns the memory's name, for use with {!Expr.load}. *)

val new_mem_const : t -> string -> addr_width:int -> Bitvec.t array -> string
(** A read-only lookup table; the data must have [2^addr_width] entries. *)

val new_instr : t -> string -> instr
val set_decode : instr -> Expr.t -> unit
val set_update : instr -> string -> Expr.t -> unit

val set_mem_update : instr -> string -> (Expr.t * Expr.t) list -> unit
(** [(address, data)] stores applied in order (later wins). *)

val instructions : t -> instr list
(** In creation order. *)

val decode_of : instr -> Expr.t

(** {1 Concrete architectural evaluation (the spec-level ISS)} *)

type arch_state = {
  bvs : (string, Bitvec.t) Hashtbl.t;
  mems : (string, (Bitvec.t, Bitvec.t) Hashtbl.t) Hashtbl.t;
  mem_defaults : (string, Bitvec.t -> Bitvec.t) Hashtbl.t;
}

val init_state :
  ?mem_init:(string -> int -> int -> Bitvec.t -> Bitvec.t) -> t -> arch_state
(** Bitvector states start at zero; memory cells default through
    [mem_init name addr_width data_width addr]. *)

val get_bv : arch_state -> string -> Bitvec.t
val set_bv : arch_state -> string -> Bitvec.t -> unit
val get_mem : arch_state -> string -> Bitvec.t -> Bitvec.t
val set_mem : arch_state -> string -> Bitvec.t -> Bitvec.t -> unit

val step_concrete : t -> arch_state -> inputs:(string -> Bitvec.t) -> string option
(** Finds the unique enabled instruction and applies its updates
    simultaneously; [None] when nothing decodes.  Raises {!Spec_error} if
    several instructions decode at once (mutual exclusion violated). *)
