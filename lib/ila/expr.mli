(** The ILA expression language (paper §2.1 / Fig. 8).

    Expressions denote architectural values: specification inputs,
    bitvector state variables, loads from memory state, and lookups in
    read-only MemConst tables.  Convenience operators mirror the ILA C++
    library's expression builders; widths are checked when expressions are
    compiled (to {!Term}s by {!Conditions}, or evaluated concretely by
    {!Spec}). *)

type unop = Not | Neg | RedOr | RedAnd | RedXor

type binop =
  | And
  | Or
  | Xor
  | Add
  | Sub
  | Mul
  | Udiv
  | Urem
  | Sdiv
  | Srem
  | Clmul
  | Clmulh
  | Shl
  | Lshr
  | Ashr
  | Rol
  | Ror
  | Eq
  | Ne
  | Ult
  | Ule
  | Ugt
  | Uge
  | Slt
  | Sle
  | Sgt
  | Sge

type t =
  | Const of Bitvec.t
  | Input of string * int
  | State of string * int  (** a bitvector state variable *)
  | Load of { mem : string; addr : t; port : string option }
      (** [port] selects which datapath memory implements the access when
          the abstraction function splits one architectural memory over
          several components (e.g. i_mem vs d_mem); [None] is the default
          port. *)
  | TableLoad of string * t  (** MemConst lookup *)
  | Unop of unop * t
  | Binop of binop * t * t
  | Ite of t * t * t
  | Extract of int * int * t  (** high, low *)
  | Concat of t * t
  | Zext of t * int
  | Sext of t * int

(** {1 Constructors}

    The infix operators shadow the standard ones — use them under a local
    [let open Ila.Expr in ...]. *)

val const : Bitvec.t -> t
val of_int : width:int -> int -> t
val tru : t
val fls : t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( land ) : t -> t -> t
val ( lor ) : t -> t -> t
val ( lxor ) : t -> t -> t
val lnot : t -> t
val ( == ) : t -> t -> t
val ( != ) : t -> t -> t
val ( < ) : t -> t -> t  (** unsigned *)

val ( <= ) : t -> t -> t
val ( <+ ) : t -> t -> t  (** signed *)

val ( <=+ ) : t -> t -> t
val ( && ) : t -> t -> t
val ( || ) : t -> t -> t
val ( << ) : t -> t -> t
val ( >> ) : t -> t -> t
val ( >>+ ) : t -> t -> t  (** arithmetic shift right *)

val ite : t -> t -> t -> t
val extract : high:int -> low:int -> t -> t
val concat : t -> t -> t
val zext : t -> int -> t
val sext : t -> int -> t
val load : ?port:string -> string -> t -> t
val table_load : string -> t -> t
