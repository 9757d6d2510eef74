(** Testbench utilities for completed cores: load a program, run
    cycle-accurately, detect the jump-to-self halt, generate random
    programs, and run the ISS oracle for co-simulation. *)

type run_result = {
  cycles_to_halt : int option;
      (** the first cycle whose pc_out equals the halt address *)
  state : Oyster.Interp.state;
}

val run_core :
  Oyster.Ast.design ->
  program:Bitvec.t list ->
  dmem_init:(int * Bitvec.t) list ->
  halt_pc:int ->
  max_cycles:int ->
  run_result

val core_reg : Oyster.Interp.state -> int -> Bitvec.t
val core_dmem : Oyster.Interp.state -> int -> Bitvec.t

val cmov_word : rd:int -> rs1:int -> rs2:int -> Bitvec.t
(** The bespoke CMOV encoding (paper §4.2). *)

val random_program :
  ?profile:[ `Standard | `Cmov ] ->
  Random.State.t ->
  Isa.Rv32.isa_variant ->
  len:int ->
  Bitvec.t list
(** ALU-heavy random programs: [len] instructions with loads/stores in a
    small window and short forward branches (or CMOVs under [`Cmov]), then
    a store that no branch skips (branch targets never pass index [len]),
    then the jump-to-self halt. *)

val run_iss :
  ?cmov:bool ->
  Isa.Rv32.isa_variant ->
  program:Bitvec.t list ->
  dmem_init:(int * Bitvec.t) list ->
  max_cycles:int ->
  [ `Halted | `Illegal of Bitvec.t | `Max_cycles ] * Isa.Iss.t

val cosim :
  ?profile:[ `Standard | `Cmov ] ->
  Oyster.Ast.design ->
  Isa.Rv32.isa_variant ->
  Random.State.t ->
  (unit, string) result
(** The co-simulation oracle: draws one {!random_program} of length 40
    of [profile] (default [`Standard]) and a 32-word data image from
    [rng], runs them on the completed core and on the ISS ([`Cmov] turns
    on the ISS's CMOV), and requires the core to reach the halt PC, the
    ISS to halt, and both to agree on x0–x31 and data words 0–40.  The
    error names the first failed requirement or differing location. *)
