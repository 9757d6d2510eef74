(** Static checking of Oyster designs.

    [check] enforces: unique declaration names; positive widths; width
    agreement in every expression (with 1-bit conditions and enables);
    wires and outputs assigned exactly once, before use; registers assigned
    at most once; inputs/holes/memories never [Assign] targets; memory and
    ROM accesses well-formed; ROM data sized [2^addr_width]. *)

exception Type_error of string

(** Component kinds, as recorded in the checking environment. *)
type kind =
  | Kinput
  | Koutput
  | Kwire
  | Kregister
  | Kmemory of int * int  (** address width, data width *)
  | Krom of int * int
  | Khole

type env = { kinds : (string, kind * int) Hashtbl.t }
(** For memories and ROMs the [int] slot is the data width. *)

val env_of_design : Ast.design -> env
(** Builds the environment, validating declarations.  Raises
    {!Type_error}. *)

val expr_width : env -> string list ref -> Ast.expr -> int
(** Width of an expression; [defined] lists the wires/outputs assigned so
    far (reads of others raise).  Raises {!Type_error} on ill-typed
    expressions. *)

val check : Ast.design -> env
(** Full design check.  Raises {!Type_error} with a descriptive message. *)
