(* Gate-level compilation of hole-free Oyster designs: the gate graph behind
   paper Table 2's design sizes and the one source of [owl verilog].

   The design is first evaluated symbolically for one cycle; the resulting
   next-state / output / write terms are lowered to a gate graph through
   the shared {!Circuit} constructors.  Small memories (register files, FSM
   tables: address width <= [materialize_threshold]) become DFF arrays with
   mux read ports and decoded write ports; large memories (i_mem, d_mem)
   stay black boxes whose port logic is still part of the graph.

   Two modes stand in for the paper's "before/after Yosys" comparison:

   - raw: constants fold (any synthesis front-end does that much), but no
     structural sharing — every gate the datapath describes is emitted, and
     unused logic remains;
   - optimized: structural hashing (CSE), algebraic shortcuts (x&x, x^x,
     ite with equal branches, double negation, ...), and dead-gate
     elimination from the design's roots. *)

type counts = {
  ands : int;
  ors : int;
  xors : int;
  nots : int;
  muxes : int;
  dffs : int;
  total_gates : int;  (* combinational cells: and + or + xor + not + mux *)
}

type leaf =
  | Input of string * int
  | Reg of string * int
  | Cell of string * int * int
  | Port of string * int array * int

type node =
  | Const of bool
  | Leaf of leaf
  | And of int * int
  | Or of int * int
  | Xor of int * int
  | Not of int
  | Mux of int * int * int

type root =
  | Output of string * int array
  | Next of string * int array
  | Cell_next of string * int * int array
  | Write of { mem : string; addr : int array; data : int array; enable : int }

type t = {
  design : Oyster.Ast.design;
  nodes : node array;
  roots : root list;
  live : bool array;
}

let materialize_threshold = 6

type builder = {
  optimize : bool;
  mutable nodes : node array;
  mutable n : int;
  cache : (node, int) Hashtbl.t;
}

let alloc b node =
  if b.n = Array.length b.nodes then begin
    let a = Array.make (2 * b.n) (Const false) in
    Array.blit b.nodes 0 a 0 b.n;
    b.nodes <- a
  end;
  b.nodes.(b.n) <- node;
  b.n <- b.n + 1;
  b.n - 1

let mk b node =
  if b.optimize then begin
    match Hashtbl.find_opt b.cache node with
    | Some id -> id
    | None ->
        let id = alloc b node in
        Hashtbl.add b.cache node id;
        id
  end
  else alloc b node

(* The two constants get fixed slots. *)
let builder_create optimize =
  let b =
    { optimize; nodes = Array.make 1024 (Const false); n = 0;
      cache = Hashtbl.create 4096 }
  in
  let t = alloc b (Const true) in
  let f = alloc b (Const false) in
  assert (t = 0 && f = 1);
  b

let is_true id = id = 0
let is_false id = id = 1

let gates_module b =
  let module G = struct
    type lit = int

    let tru = 0
    let fls = 1

    let neg l =
      if is_true l then fls
      else if is_false l then tru
      else if b.optimize then
        match b.nodes.(l) with Not x -> x | _ -> mk b (Not l)
      else mk b (Not l)

    let mk_and a y =
      if is_false a || is_false y then fls
      else if is_true a then y
      else if is_true y then a
      else if b.optimize && a = y then a
      else
        let a, y = if a < y then (a, y) else (y, a) in
        mk b (And (a, y))

    let mk_or a y =
      if is_true a || is_true y then tru
      else if is_false a then y
      else if is_false y then a
      else if b.optimize && a = y then a
      else
        let a, y = if a < y then (a, y) else (y, a) in
        mk b (Or (a, y))

    let mk_xor a y =
      if is_false a then y
      else if is_false y then a
      else if is_true a then neg y
      else if is_true y then neg a
      else if b.optimize && a = y then fls
      else
        let a, y = if a < y then (a, y) else (y, a) in
        mk b (Xor (a, y))

    let mk_ite c a y =
      if is_true c then a
      else if is_false c then y
      else if a = y then a
      else if is_true a && is_false y then c
      else if is_false a && is_true y then neg c
      else mk b (Mux (c, a, y))
  end in
  (module G : Circuit.GATES with type lit = int)

exception Netlist_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Netlist_error s)) fmt

let compile ?(optimize = false) (design : Oyster.Ast.design) : t =
  if Oyster.Ast.holes design <> [] then
    fail "design %s still has holes" design.Oyster.Ast.name;
  (* a prefix of the design's own: the optimized counts follow the
     operand order [Term] picks, so a fresh session prefix would make
     them depend on how many evaluations the process ran before *)
  let trace =
    Oyster.Symbolic.eval ~prefix:("n!" ^ design.Oyster.Ast.name ^ "!") design
      ~cycles:1
  in
  let b = builder_create optimize in
  let module G = (val gates_module b) in
  let module W = Circuit.Words (G) in
  let leaves w label = Array.init w (fun k -> alloc b (Leaf (label k))) in
  (* the design name under a symbolic name [<p><tag><name>] *)
  let unprefix tag s =
    let tag = trace.Oyster.Symbolic.prefix ^ tag in
    if String.starts_with ~prefix:tag s then
      Some (String.sub s (String.length tag) (String.length s - String.length tag))
    else None
  in
  (* materialized memory cells: mem name -> cell array (2^aw arrays of dw) *)
  let materialized : (string, int array array) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (name, aw, dw) ->
      if aw <= materialize_threshold then
        Hashtbl.replace materialized name
          (Array.init (1 lsl aw) (fun a -> leaves dw (fun k -> Cell (name, a, k)))))
    (Oyster.Ast.memories design);
  let tctx =
    W.make_tctx
      ~var_bits:(fun name w ->
        (* one cycle: inputs are <p>in!<name>!1, registers <p>reg!<name> *)
        match (unprefix "in!" name, unprefix "reg!" name) with
        | Some n, _ ->
            let n = String.sub n 0 (String.length n - 2) in
            leaves w (fun k -> Input (n, k))
        | None, Some n -> leaves w (fun k -> Reg (n, k))
        | None, None -> fail "unexpected variable %s" name)
      ~read_bits:(fun m abits ->
        let name = Option.get (unprefix "mem!" m.Term.mem_name) in
        match Hashtbl.find_opt materialized name with
        | None -> leaves m.Term.data_width (fun k -> Port (name, abits, k))
        | Some cells ->
            (* mux tree over the address bits *)
            let dw = m.Term.data_width in
            let rec select lo level =
              if level < 0 then cells.(lo)
              else
                let lower = select lo (level - 1) in
                let upper = select (lo + (1 lsl level)) (level - 1) in
                Array.init dw (fun i -> G.mk_ite abits.(level) upper.(i) lower.(i))
            in
            select 0 (m.Term.addr_width - 1))
  in
  let compile t = W.term_bits tctx t in
  let outputs =
    List.map
      (fun (n, _) -> Output (n, compile (Oyster.Symbolic.wire_at trace ~cycle:1 n)))
      (Oyster.Ast.outputs design)
  in
  let registers =
    List.map
      (fun (n, _) -> Next (n, compile (Oyster.Symbolic.reg_at trace ~state:1 n)))
      (Oyster.Ast.registers design)
  in
  let memories =
    List.concat_map
      (fun (name, aw, dw) ->
        let writes =
          List.map
            (fun (ev : Oyster.Symbolic.write_event) ->
              ( compile ev.Oyster.Symbolic.w_addr,
                compile ev.Oyster.Symbolic.w_data,
                (compile ev.Oyster.Symbolic.w_enable).(0) ))
            (Oyster.Symbolic.writes_at trace ~state:1 name)
        in
        match Hashtbl.find_opt materialized name with
        | None ->
            List.map
              (fun (addr, data, enable) -> Write { mem = name; addr; data; enable })
              writes
        | Some cells ->
            (* next-state per cell: chronologically later writes win *)
            List.mapi
              (fun i cell ->
                let next =
                  List.fold_left
                    (fun acc (addr, data, enable) ->
                      let hit =
                        W.mk_eq_bits addr (W.const_bits (Bitvec.of_int ~width:aw i))
                      in
                      let sel = G.mk_and enable hit in
                      Array.init dw (fun k -> G.mk_ite sel data.(k) acc.(k)))
                    cell writes
                in
                Cell_next (name, i, next))
              (Array.to_list cells))
      (Oyster.Ast.memories design)
  in
  let roots = outputs @ registers @ memories in
  let nodes = Array.sub b.nodes 0 b.n in
  (* optimized mode keeps only what the roots reach; a live bit of a
     black-box read port keeps the port's bit 0, where it is printed, and
     its address logic *)
  let live = Array.make b.n (not optimize) in
  if optimize then begin
    let rec visit id =
      if not live.(id) then begin
        live.(id) <- true;
        match nodes.(id) with
        | Const _ | Leaf (Input _ | Reg _ | Cell _) -> ()
        | Leaf (Port (_, addr, k)) ->
            visit (id - k);
            Array.iter visit addr
        | Not x -> visit x
        | And (x, y) | Or (x, y) | Xor (x, y) ->
            visit x;
            visit y
        | Mux (c, x, y) ->
            visit c;
            visit x;
            visit y
      end
    in
    List.iter
      (function
        | Output (_, bits) | Next (_, bits) | Cell_next (_, _, bits) ->
            Array.iter visit bits
        | Write { addr; data; enable; _ } ->
            Array.iter visit addr;
            Array.iter visit data;
            visit enable)
      roots
  end;
  { design; nodes; roots; live }

let counts g =
  let ands = ref 0 and ors = ref 0 and xors = ref 0 and nots = ref 0 and muxes = ref 0 in
  Array.iteri
    (fun i node ->
      if g.live.(i) then
        match node with
        | And _ -> incr ands
        | Or _ -> incr ors
        | Xor _ -> incr xors
        | Not _ -> incr nots
        | Mux _ -> incr muxes
        | Const _ | Leaf _ -> ())
    g.nodes;
  (* one flip-flop per register and materialized cell bit *)
  let dffs =
    List.fold_left
      (fun acc -> function
        | Next (_, bits) | Cell_next (_, _, bits) -> acc + Array.length bits
        | Output _ | Write _ -> acc)
      0 g.roots
  in
  {
    ands = !ands;
    ors = !ors;
    xors = !xors;
    nots = !nots;
    muxes = !muxes;
    dffs;
    total_gates = !ands + !ors + !xors + !nots + !muxes;
  }

(* Structural Verilog-2001: node [i] drives bit [i] of one wire vector —
   one assign per gate, one per black-box read port (its data bits are
   consecutive nodes) — inputs, registers and cells are read in place, and
   every state element updates at the clock edge in root order, so later
   writes win as in Oyster's commit. *)
let verilog g =
  let d = g.design in
  let buf = Buffer.create 65536 in
  let pr fmt = Printf.bprintf buf fmt in
  let names = List.map Oyster.Ast.decl_name d.Oyster.Ast.decls in
  let rec fresh n = if List.mem n names then fresh (n ^ "_") else n in
  let gv = fresh "g" and clk = fresh "clk" in
  let lit i =
    match g.nodes.(i) with
    | Const c -> if c then "1'b1" else "1'b0"
    | Leaf (Input (n, k) | Reg (n, k)) -> Printf.sprintf "%s[%d]" n k
    | Leaf (Cell (m, a, k)) -> Printf.sprintf "%s[%d][%d]" m a k
    | Leaf (Port _) | And _ | Or _ | Xor _ | Not _ | Mux _ ->
        Printf.sprintf "%s[%d]" gv i
  in
  (* MSB first, as Verilog concatenates *)
  let bus bits =
    "{" ^ String.concat ", " (List.rev_map lit (Array.to_list bits)) ^ "}"
  in
  let range w = Printf.sprintf "[%d:0]" (w - 1) in
  let port dir (n, w) = Printf.sprintf "%s %s %s" dir (range w) n in
  pr "module %s(\n  %s\n);\n" d.Oyster.Ast.name
    (String.concat ",\n  "
       (("input " ^ clk) :: List.map (port "input") (Oyster.Ast.inputs d)
       @ List.map (port "output") (Oyster.Ast.outputs d)));
  List.iter
    (fun (n, w) -> pr "  reg %s %s = 0;\n" (range w) n)
    (Oyster.Ast.registers d);
  let mems = Oyster.Ast.memories d in
  List.iter
    (fun (n, aw, dw) -> pr "  reg %s %s [0:%d];\n" (range dw) n ((1 lsl aw) - 1))
    mems;
  pr "  wire %s %s;\n" (range (Array.length g.nodes)) gv;
  Array.iteri
    (fun i node ->
      let gate fmt = pr ("  assign %s[%d] = " ^^ fmt ^^ ";\n") gv i in
      match node with
      | _ when not g.live.(i) -> ()
      | And (x, y) -> gate "%s & %s" (lit x) (lit y)
      | Or (x, y) -> gate "%s | %s" (lit x) (lit y)
      | Xor (x, y) -> gate "%s ^ %s" (lit x) (lit y)
      | Not x -> gate "~%s" (lit x)
      | Mux (c, x, y) -> gate "%s ? %s : %s" (lit c) (lit x) (lit y)
      | Leaf (Port (m, addr, 0)) ->
          let dw = List.find_map (fun (n, _, dw) -> if n = m then Some dw else None) mems in
          pr "  assign %s[%d:%d] = %s[%s];\n" gv (i + Option.get dw - 1) i m
            (bus addr)
      | Const _ | Leaf _ -> ())
    g.nodes;
  List.iter
    (function Output (n, bits) -> pr "  assign %s = %s;\n" n (bus bits) | _ -> ())
    g.roots;
  pr "  always @(posedge %s) begin\n" clk;
  List.iter
    (function
      | Output _ -> ()
      | Next (n, bits) -> pr "    %s <= %s;\n" n (bus bits)
      | Cell_next (m, a, bits) -> pr "    %s[%d] <= %s;\n" m a (bus bits)
      | Write { mem; addr; data; enable } ->
          pr "    if (%s) %s[%s] <= %s;\n" (lit enable) mem (bus addr) (bus data))
    g.roots;
  pr "  end\nendmodule\n";
  Buffer.contents buf
