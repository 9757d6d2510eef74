(** Tseitin bit-blasting of bitvector terms to CNF.

    A blasting context wraps a {!Sat} solver and maintains a structural gate
    cache (so repeated subcircuits share literals) and a per-term cache (so
    the DAG sharing of {!Term} carries over to the CNF).

    [Read] nodes must be eliminated before blasting (the {!Solver} façade
    Ackermannizes them); encountering one raises [Invalid_argument]. *)

type t

val create : Sat.t -> t

val blast : t -> Term.t -> int array
(** [blast ctx term] returns one DIMACS literal per bit, LSB first.

    Translation is cached per hash-consed [Term.id] for the lifetime of the
    context, so re-blasting a term whose subterms were already seen only
    encodes the new nodes — the property incremental solver sessions rely
    on to avoid re-encoding the sketch every CEGIS iteration. *)

val assert_term : t -> Term.t -> unit
(** Asserts a width-1 term to be true (adds a unit clause). *)

val fresh_lit : t -> int
(** Allocates a fresh SAT variable in the underlying solver and returns its
    positive literal; used for activation guards. *)

val var_bits : t -> string -> int array option
(** The literals allocated for a [Var] term, if it was blasted. *)
