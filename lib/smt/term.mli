(** Hash-consed bitvector terms (QF_BV + uninterpreted memory reads).

    This is the symbolic domain shared by the Oyster symbolic evaluator, the
    ILA condition compiler, and the synthesis engine.  Terms are maximally
    shared: structurally equal terms are physically equal and carry a unique
    [id], so spec-side and datapath-side computations that coincide collapse
    to the same node and [eq t t] simplifies to true without touching the
    SAT solver.

    All smart constructors simplify bottom-up (constant folding, identities,
    canonical ordering of commutative arguments, pushing [extract] through
    structure).  Booleans are width-1 bitvectors.

    {b Domain safety.}  The hash-consing table, the variable registry, and
    the table registry are shared across domains and internally locked, so
    terms may be built and combined freely from concurrent domains —
    physical equality keeps working because every domain interns into the
    same table.  Determinism is preserved too: commutative operands are
    ordered by a structural key rather than by allocation id, so the term
    DAG produced by a computation does not depend on how domains
    interleave. *)

type binop =
  | And
  | Or
  | Xor
  | Add
  | Sub
  | Mul
  | Udiv  (** division by zero yields all-ones (RISC-V/SMT-LIB convention) *)
  | Urem  (** remainder by zero yields the dividend *)
  | Sdiv
  | Srem
  | Clmul  (** carry-less multiply, low half *)
  | Clmulh  (** carry-less multiply, high half *)
  | Shl
  | Lshr
  | Ashr

type cmpop = Eq | Ult | Ule | Slt | Sle

(** An uninterpreted memory: reads from the initial state of a RAM. *)
type mem = { mem_name : string; addr_width : int; data_width : int }

(** A read-only lookup table (the paper's ILA [MemConst]); entries are
    materialized, so a read with a constant index folds. *)
type table = { tab_name : string; tab_addr_width : int; tab_data : Bitvec.t array }

type t = private {
  id : int;  (** unique per process; allocation order, not deterministic *)
  width : int;
  skey : int;
      (** structural hash, independent of allocation order; the basis of
          the canonical commutative-operand ordering *)
  node : node;
}

and node =
  | Const of Bitvec.t
  | Var of string
  | Not of t
  | Binop of binop * t * t
  | Cmp of cmpop * t * t
  | Ite of t * t * t  (** condition has width 1 *)
  | Extract of int * int * t  (** high, low *)
  | Concat of t * t  (** first argument is the high part *)
  | Read of mem * t
  | Table of table * t

val width : t -> int
val id : t -> int
val equal : t -> t -> bool  (** physical, thanks to hash-consing *)

val compare : t -> t -> int  (** by id *)

val hash : t -> int

(** {1 Constructors} *)

val const : Bitvec.t -> t
val var : string -> int -> t
(** [var name width].  The same name must always be used at the same width;
    raises [Invalid_argument] otherwise. *)

val of_int : width:int -> int -> t
val zero : int -> t
val one : int -> t
val ones : int -> t
val tru : t  (** width-1 constant 1 *)

val fls : t  (** width-1 constant 0 *)

val bnot : t -> t
val band : t -> t -> t
val bor : t -> t -> t
val bxor : t -> t -> t
val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val mul : t -> t -> t
(** Folds over constant unions: when both operands are [ite]-trees whose
    leaves are all constants (a plain constant is a one-leaf union), with
    at most 16 leaves each and at most 64 leaf pairs, the product is built
    leaf by leaf — [mul (ite h k1 k2) k3] is [ite h (k1*k3) (k2*k3)] — so
    no multiplier reaches the bit-blaster.  The [ite]s of the first
    operand nest outside those of the second.  Past either cap the
    operands stay a symbolic node.  The caps are fixed: RV32I+M's ALU
    operand unions (hole-controlled muxes over a grounded datapath)
    outgrow 8 leaves and 16 pairs, and caps of 32/256 or 64/1024 blasted
    no fewer clauses there than 16/64.  The linear-circuit operators
    ([add], logic, shifts, comparisons) do not fold this way; {!concat}
    does, so that extended operands reach a multiply as unions. *)

val udiv : t -> t -> t
(** Folds over constant unions as {!mul} does; [urem], [sdiv] and [srem]
    too.  Leaves fold through {!Bitvec}, so a zero divisor and
    [min_int / -1] give the RISC-V results. *)

val urem : t -> t -> t
val sdiv : t -> t -> t
val srem : t -> t -> t

val clmul : t -> t -> t
(** Folds over constant unions as {!mul} does; so does [clmulh]. *)

val clmulh : t -> t -> t
val shl : t -> t -> t
val lshr : t -> t -> t
val ashr : t -> t -> t

val eq : t -> t -> t
val ne : t -> t -> t
val ult : t -> t -> t
val ule : t -> t -> t
val ugt : t -> t -> t
val uge : t -> t -> t
val slt : t -> t -> t
val sle : t -> t -> t
val sgt : t -> t -> t
val sge : t -> t -> t

val ite : t -> t -> t -> t
val extract : high:int -> low:int -> t -> t
val concat : t -> t -> t
(** Folds over two constant unions under {!mul}'s caps, so a sign- or
    zero-extended union ({!sext}, {!zext}) is itself a constant union and
    a high multiply over extended operands folds too. *)

val zext : t -> int -> t
val sext : t -> int -> t
val msb : t -> t
val bit : t -> int -> t

val read : mem -> t -> t
val table_read : table -> t -> t

val implies : t -> t -> t
val conj : t list -> t
val disj : t list -> t

(** {1 Observation} *)

val is_const : t -> Bitvec.t option
val is_true : t -> bool
val is_false : t -> bool

(** {1 Rewriting} *)

val rewriter : ((t -> t) -> t -> t option) -> t -> t
(** [rewriter hook] is a memoized bottom-up rewrite.  For each distinct
    node, [hook go t] may return [Some r] to replace [t] by [r] ([go] is the
    rewrite itself, for the children the hook needs); on [None] the node is
    rebuilt from its rewritten children through the smart constructors.
    Rebuilding happens even when no child changed, so a rewrite also
    re-normalizes; with a hook that never fires it returns its argument.
    The returned function owns one memo keyed by node id: reuse it to share
    work across roots, but only while [hook] means the same thing.

    Children are visited in a fixed order, which callers that number
    things by first visit (Ackermann expansion) rely on: binop and
    comparison operands left to right, a concatenation's low part before
    its high part, and an ite's else arm, then its then arm, then its
    condition. *)

val size : t -> int
(** Number of distinct nodes in the DAG rooted at the term. *)

val fold_dag : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Folds over every distinct node of the DAG, children before parents. *)

val vars : t -> (string * int) list
(** Distinct variables (name, width), sorted by name. *)

val reads : t -> (mem * t) list
(** Distinct [Read] applications in the DAG. *)

val pp : Format.formatter -> t -> unit
(** S-expression rendering (SMT-LIB flavoured), with sharing expanded. *)

(** {1 Canonical serialization}

    A deterministic, self-contained text rendering of a term DAG — the
    basis of the synthesis cache's content-addressed fingerprints and of
    its persisted counterexample constraints.  Nodes are numbered by
    shared post-order position (children before parents, roots in list
    order), never by the process-local allocation [id], so the same
    logical DAG produces byte-identical output in every process, at any
    [jobs] count, regardless of how many terms were interned before it.
    Lookup tables are embedded with their contents, so a document stands
    alone. *)

val serialize : t list -> string
(** Canonical text for the DAG rooted at the given terms (sharing across
    roots preserved).  Raises [Invalid_argument] if a variable, memory, or
    table name contains whitespace (no internally generated name does). *)

val deserialize : string -> t list
(** Rebuilds the roots of a {!serialize} document through the smart
    constructors, revalidating every node (widths, table sizes, registry
    consistency).  Raises [Failure] or [Invalid_argument] on malformed,
    truncated, or stale input — cache readers treat any exception as a
    miss.  Round-trip law: [deserialize (serialize ts)] returns terms
    physically equal to [ts]. *)

(** {1 Evaluation and substitution} *)

type env = {
  lookup_var : string -> int -> Bitvec.t option;
      (** [lookup_var name width]; a [Some] result must have that width *)
  lookup_read : mem -> Bitvec.t -> Bitvec.t option;
      (** value of reading [mem] at a {e concrete} address *)
}

val eval : env -> t -> Bitvec.t
(** Full concrete evaluation.  Raises [Failure] if a variable is unbound or
    a read is unresolved. *)

val substitute : ?unbound:(t -> t -> t option) -> env -> t -> t
(** Partial evaluation, as a {!rewriter} hook: replaces bound variables
    with constants, resolves reads whose address becomes concrete, and
    rewrites only the live arm of an ite whose condition folds.  Everything
    else is rebuilt through the smart constructors, so the result is
    re-simplified.  Unbound variables remain symbolic: for a variable or
    read node [t] that [env] leaves unresolved, [unbound t t'] (default
    [None]) may replace [t'], the node with its address rewritten, in the
    same pass. *)

val rename : (string -> string option) -> t -> t
(** Renames the variables [f] maps to [Some], as a {!rewriter} hook (e.g.
    to freshen hole instances per CEGIS copy). *)
