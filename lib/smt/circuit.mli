(** Generic bit-level circuit construction over an abstract gate algebra.

    The same word-level circuits — ripple adders, barrel shifters, array
    and carry-less multipliers, comparators, table mux-trees, and the full
    {!Term} translation — serve two backends: Tseitin CNF generation for
    the SAT solver ({!Blast}) and gate-level netlist construction
    ({!Netlist}). *)

module type GATES = sig
  type lit

  val tru : lit
  val fls : lit
  val neg : lit -> lit
  val mk_and : lit -> lit -> lit
  val mk_or : lit -> lit -> lit
  val mk_xor : lit -> lit -> lit

  val mk_ite : lit -> lit -> lit -> lit
  (** condition, then, else *)
end

module Words (G : GATES) : sig
  val const_bits : Bitvec.t -> G.lit array
  (** LSB first, like every bit array in this module. *)

  val full_adder : G.lit -> G.lit -> G.lit -> G.lit * G.lit
  (** (sum, carry-out). *)

  val ripple_add : G.lit array -> G.lit array -> G.lit -> G.lit array
  val mk_eq_bits : G.lit array -> G.lit array -> G.lit
  val mk_ult_bits : G.lit array -> G.lit array -> G.lit
  val flip_msb : G.lit array -> G.lit array
  val mul_bits : G.lit array -> G.lit array -> G.lit array

  val udivrem_bits : G.lit array -> G.lit array -> G.lit array * G.lit array
  (** Restoring divider; [(quotient, remainder)] with the toolchain's
      division-by-zero convention (all-ones / the dividend). *)

  val sdivrem_bits : G.lit array -> G.lit array -> G.lit array * G.lit array
  val clmul_bits : G.lit array -> G.lit array -> high:bool -> G.lit array

  val shift_bits :
    G.lit array -> G.lit array -> dir:[ `Left | `Right ] -> fill:G.lit ->
    G.lit array
  (** Barrel shifter; amount bits beyond the width force the all-[fill]
      result when set. *)

  val mux_bits : G.lit -> G.lit array -> G.lit array -> G.lit array
  val table_bits : Term.table -> G.lit array -> G.lit array

  type tctx

  val make_tctx :
    var_bits:(string -> int -> G.lit array) ->
    read_bits:(Term.mem -> G.lit array -> G.lit array) ->
    tctx
  (** [var_bits] supplies literals for variables (caching is the caller's
      choice per name); [read_bits] handles uninterpreted memory reads (the
      CNF backend rejects them, the netlist backend makes them ports). *)

  val term_bits : tctx -> Term.t -> G.lit array
  (** Translates a term, caching per node so DAG sharing carries over.
      The cache lives as long as the context, so persistent contexts
      (incremental solver sessions) re-encode only never-seen nodes. *)
end
