(** A PyRTL-flavoured embedded HDL for building Oyster designs — the role
    PyRTL plays in the paper's toolchain (datapath sketches in a host
    language, lowered to the synthesis IR).

    A [ctx] accumulates declarations and statements; [signal]s are
    width-carrying expressions combined with the operators below; [finalize]
    produces a typechecked {!Oyster.Ast.design}.  Width mismatches raise
    {!Hdl_error} at construction time. *)

exception Hdl_error of string

type signal

type mem

type ctx

val create : string -> ctx

val width : signal -> int

(** {1 Declarations} *)

val input : ctx -> string -> int -> signal
val register : ctx -> string -> int -> signal

val memory : ctx -> string -> addr_width:int -> data_width:int -> mem

val rom : ctx -> string -> addr_width:int -> Bitvec.t array -> signal -> signal
(** Declares a read-only table; the returned function builds lookups. *)

val hole :
  ctx -> ?kind:Oyster.Ast.hole_kind -> string -> int -> deps:signal list -> signal
(** A control point for the synthesis engine ([??] in the paper's
    sketches); [deps] must be named signals. *)

(** {1 Assignments} *)

val wire : ctx -> string -> signal -> signal
(** Names a combinational value (and forces its evaluation order). *)

val output : ctx -> string -> signal -> unit

val set_register : ctx -> signal -> signal -> unit
(** [set_register c r next]: [r] takes [next]'s value at end of cycle. *)

val read : mem -> signal -> signal

val write : ctx -> mem -> addr:signal -> data:signal -> enable:signal -> unit

(** {1 Combinators} *)

val const : int -> int -> signal
(** [const width value]. *)

val tru : signal
val fls : signal

val ( +: ) : signal -> signal -> signal
val ( -: ) : signal -> signal -> signal
val ( *: ) : signal -> signal -> signal
val ( &: ) : signal -> signal -> signal
val ( |: ) : signal -> signal -> signal
val ( ^: ) : signal -> signal -> signal
val udiv : signal -> signal -> signal
(** Division by zero yields all-ones / the dividend (see {!Bitvec.udiv}). *)

val urem : signal -> signal -> signal
val sdiv : signal -> signal -> signal
val srem : signal -> signal -> signal
val clmul : signal -> signal -> signal
val clmulh : signal -> signal -> signal
val ( <<: ) : signal -> signal -> signal
val ( >>: ) : signal -> signal -> signal
val ( >>+ ) : signal -> signal -> signal  (** arithmetic shift right *)

val rol : signal -> signal -> signal
val ror : signal -> signal -> signal
val ( ==: ) : signal -> signal -> signal
val ( <>: ) : signal -> signal -> signal
val ( <: ) : signal -> signal -> signal
val ( <=: ) : signal -> signal -> signal
val ( >: ) : signal -> signal -> signal
val ( >=: ) : signal -> signal -> signal
val ( <+ ) : signal -> signal -> signal  (** signed comparisons *)

val ( <=+ ) : signal -> signal -> signal
val ( >+ ) : signal -> signal -> signal
val ( >=+ ) : signal -> signal -> signal

val bnot : signal -> signal
val neg : signal -> signal
val redor : signal -> signal
val redand : signal -> signal
val redxor : signal -> signal

val mux : signal -> signal -> signal -> signal
(** [mux cond then_ else_]; the condition has width 1. *)

val select : signal -> (int * signal) list -> signal -> signal
(** [select sel cases default] compares [sel] against each constant case in
    order (a priority mux chain). *)

val bits : high:int -> low:int -> signal -> signal
val bit : int -> signal -> signal
val msb : signal -> signal
val concat : signal -> signal -> signal
val concat_all : signal list -> signal
val zext : signal -> int -> signal
val sext : signal -> int -> signal

(** {1 Finalization} *)

val finalize : ctx -> Oyster.Ast.design
(** Builds and typechecks the design; a context can only be finalized
    once. *)
