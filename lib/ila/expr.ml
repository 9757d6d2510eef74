(* ILA expression language (paper §2.1 / Fig. 8).

   Expressions denote architectural values: inputs, bitvector state
   variables, loads from memory state, and loads from read-only MemConst
   tables.  The grammar mirrors the ILA C++ library's intrinsics. *)

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
  | State of string * int  (* bitvector state variable *)
  | Load of { mem : string; addr : t; port : string option }
      (* [port] disambiguates which datapath memory implements the access
         when the abstraction function splits one architectural memory over
         several components (e.g. i_mem vs d_mem) *)
  | TableLoad of string * t  (* MemConst lookup *)
  | Unop of unop * t
  | Binop of binop * t * t
  | Ite of t * t * t
  | Extract of int * int * t
  | Concat of t * t
  | Zext of t * int
  | Sext of t * int

(* {1 Convenience constructors} *)

let const v = Const v
let of_int ~width n = Const (Bitvec.of_int ~width n)
let tru = of_int ~width:1 1
let fls = of_int ~width:1 0
let ( + ) a b = Binop (Add, a, b)
let ( - ) a b = Binop (Sub, a, b)
let ( * ) a b = Binop (Mul, a, b)
let ( land ) a b = Binop (And, a, b)
let ( lor ) a b = Binop (Or, a, b)
let ( lxor ) a b = Binop (Xor, a, b)
let lnot a = Unop (Not, a)
let ( == ) a b = Binop (Eq, a, b)
let ( != ) a b = Binop (Ne, a, b)
let ( < ) a b = Binop (Ult, a, b)
let ( <= ) a b = Binop (Ule, a, b)
let ( <+ ) a b = Binop (Slt, a, b)
let ( <=+ ) a b = Binop (Sle, a, b)
let ( && ) a b = Binop (And, a, b)
let ( || ) a b = Binop (Or, a, b)
let ( << ) a b = Binop (Shl, a, b)
let ( >> ) a b = Binop (Lshr, a, b)
let ( >>+ ) a b = Binop (Ashr, a, b)
let ite c a b = Ite (c, a, b)
let extract ~high ~low a = Extract (high, low, a)
let concat a b = Concat (a, b)
let zext a w = Zext (a, w)
let sext a w = Sext (a, w)
let load ?port mem addr = Load { mem; addr; port }
let table_load t addr = TableLoad (t, addr)
