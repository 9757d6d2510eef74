(** Abstraction functions (paper §3.2): the lightweight microarchitectural
    model mapping each architectural state element of a specification to a
    datapath component, annotated with the time steps at which the
    architectural read/write effects occur.

    Time-step convention (states s_0 .. s_k for a k-cycle evaluation):
    [read: t] observes state s_{t-1} (for inputs: the value sampled during
    cycle t); [write: t] is performed during cycle t and observed in state
    s_t; [assume (w, t)] constrains wire [w] to 1 during cycle [t]. *)

type dp_type = Dinput | Doutput | Dregister | Dmemory

type mapping = {
  spec_id : string;  (** the spec input / state element *)
  port : string option;
      (** matches the [port] of spec Loads when one architectural memory is
          split over several datapath memories; [None] is the default *)
  dp_name : string;
  dp_type : dp_type;
  reads : int list;
  writes : int list;
  addr_via : string option;
      (** memory mappings only: a datapath wire carrying the access address
          at the read time step.  Encodes a microarchitectural invariant
          (e.g. "the fetch address equals the architectural pc when the
          instruction enters the pipeline") so specification-side loads
          become the very terms the datapath computes. *)
}

type t = {
  mappings : mapping list;
  cycles : int;  (** how many cycles to evaluate the sketch symbolically *)
  assumes : (string * int) list;  (** wire name, cycle *)
}

exception Absfun_error of string

val mapping :
  ?port:string ->
  ?addr_via:string ->
  spec:string ->
  dp:string ->
  ty:dp_type ->
  ?reads:int list ->
  ?writes:int list ->
  unit ->
  mapping

val make : cycles:int -> ?assumes:(string * int) list -> mapping list -> t
(** Validates that every time step lies in [1..cycles]. *)

val read_mapping : t -> string -> port:string option -> mapping
(** The read-capable mapping for a spec element, disambiguated by [port]
    when several exist.  Raises {!Absfun_error} when missing/ambiguous. *)

val write_mappings : t -> string -> mapping list

val read_time : mapping -> int
val write_time : mapping -> int
