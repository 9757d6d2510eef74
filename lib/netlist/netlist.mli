(** Gate-level compilation of hole-free Oyster designs: the gate graph
    whose counts are paper Table 2's design sizes, and the one source of
    [owl verilog].

    The design is evaluated symbolically for one cycle and the resulting
    next-state / output / write terms are lowered to 2-input gates (with
    mux as a single cell).  Small memories — address width up to 6 —
    become DFF arrays with mux read ports and decoded write ports; larger
    ones stay black boxes whose port logic is still part of the graph.

    Two modes stand in for the paper's "before/after Yosys" comparison:
    raw folds constants but shares nothing; optimized adds structural
    hashing (CSE), algebraic shortcuts, and dead-gate elimination from the
    design's roots. *)

(** What a leaf of the graph reads in the current state. *)
type leaf =
  | Input of string * int  (** bit of an input port (its cycle-1 value) *)
  | Reg of string * int  (** bit of a register *)
  | Cell of string * int * int
      (** [(memory, address, bit)]: bit of a materialized memory cell *)
  | Port of string * int array * int
      (** [(memory, address bits, bit)]: data bit of a black-box memory's
          read port; the address bits are nodes, LSB first *)

(** A node; children are node indices.  Every child index, and every
    address bit of a {!Port} leaf, is smaller than the index of the node
    that uses it, so one pass in index order evaluates the graph.  The
    data bits of one read port are consecutive nodes, bit 0 first. *)
type node =
  | Const of bool  (** only at indices 0 ([true]) and 1 ([false]) *)
  | Leaf of leaf
  | And of int * int
  | Or of int * int
  | Xor of int * int
  | Not of int
  | Mux of int * int * int  (** select, then, else *)

(** What the design drives, as node arrays LSB first. *)
type root =
  | Output of string * int array
  | Next of string * int array  (** a register's next state *)
  | Cell_next of string * int * int array
      (** [(memory, address, bits)]: a materialized cell's next state *)
  | Write of { mem : string; addr : int array; data : int array; enable : int }
      (** a black-box memory's write port *)

type t = {
  design : Oyster.Ast.design;
  nodes : node array;
  roots : root list;
      (** outputs in declaration order, then every register's next state,
          then per memory either every cell's next state (materialized) or
          its write ports in statement order (black box; a later write to
          the same address wins) *)
  live : bool array;
      (** [live.(i)]: node [i] is part of the design — every node when
          raw, what the roots reach when optimized (a read port's bit 0
          and address bits live with any of its bits) *)
}

type counts = {
  ands : int;
  ors : int;
  xors : int;
  nots : int;
  muxes : int;
  dffs : int;  (** register bits + materialized memory bits *)
  total_gates : int;  (** live combinational cells: and + or + xor + not + mux *)
}

exception Netlist_error of string

val compile : ?optimize:bool -> Oyster.Ast.design -> t
(** The graph is a function of the design alone: the design is evaluated
    under the symbolic prefix [n!<name>!], so every compile of it in a
    process gives the same graph (designs sharing a name must agree on
    their port widths).  Raises {!Netlist_error} if the design still has
    holes. *)

val counts : t -> counts

val verilog : t -> string
(** Structural Verilog-2001 of the graph: one [assign] per live gate, a
    [posedge clk] block for registers, materialized cells and black-box
    writes, and one array per memory. *)
