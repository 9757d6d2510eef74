(* The oracle shared by the netlist and Verilog tests: seeded random states
   of a design, what one [Oyster.Interp.step] does from each, and what a
   gate graph computes from the same state, in one comparable form. *)

(* Every reference design of the `owl` registry, with the ISA whose
   instructions its RISC-V core decodes. *)
let registry =
  let single v = Designs.Riscv_single.reference_design v in
  let two_stage v = Designs.Riscv_two_stage.reference_design v in
  let open Isa.Rv32 in
  [ ("accumulator", Designs.Accumulator.reference_design, None);
    ("alu", Designs.Alu.reference_design, None);
    ("rv32-single", (fun () -> single RV32I), Some RV32I);
    ("rv32-single-zbkb", (fun () -> single RV32I_Zbkb), Some RV32I_Zbkb);
    ("rv32-single-m", (fun () -> single RV32I_M), Some RV32I_M);
    ("rv32-single-zbkc", (fun () -> single RV32I_Zbkc), Some RV32I_Zbkc);
    ("rv32-two-stage", (fun () -> two_stage RV32I), Some RV32I);
    ("rv32-two-stage-zbkb", (fun () -> two_stage RV32I_Zbkb), Some RV32I_Zbkb);
    ("rv32-two-stage-zbkc", (fun () -> two_stage RV32I_Zbkc), Some RV32I_Zbkc);
    ("crypto-core", Designs.Crypto_core.reference_design, Some RV32I_Zbkb);
    ("aes", Designs.Aes.reference_design, None);
    ("gcd", Designs.Gcd.reference_design, None) ]

(* The small [Hdl.Builder] designs of the netlist tests: with the
   registry's cores they cover every leaf and root kind of the gate graph. *)

include struct
  open Hdl.Builder

  let adder8 () =
    let c = create "adder8" in
    let a = input c "a" 8 in
    let b = input c "b" 8 in
    output c "s" (a +: b);
    finalize c

  let regs () =
    let c = create "regs" in
    let a = input c "a" 16 in
    let r = register c "r" 16 in
    set_register c r a;
    output c "o" r;
    finalize c

  let rfm () =
    let c = create "rfm" in
    let addr = input c "addr" 2 in
    let data = input c "data" 8 in
    let we = input c "we" 1 in
    let m = memory c "m" ~addr_width:2 ~data_width:8 in
    write c m ~addr ~data ~enable:we;
    output c "o" (read m addr);
    finalize c

  let bb () =
    let c = create "bb" in
    let addr = input c "addr" 20 in
    let data = input c "data" 8 in
    let we = input c "we" 1 in
    let m = memory c "m" ~addr_width:20 ~data_width:8 in
    write c m ~addr ~data ~enable:we;
    output c "o" (read m addr);
    finalize c

  let romf () =
    let c = create "romf" in
    let romr =
      rom c "t" ~addr_width:3 (Array.init 8 (fun i -> Bitvec.of_int ~width:8 i))
    in
    output c "o" (romr (const 3 5));
    finalize c

  (* Term-level hash-consing removes source-level duplication before gates
     exist; what the gate optimizer adds is structural sharing across
     separately compiled cones.  Two subtractions against the same [b] each
     build [not b] — raw emits the inverters twice, optimized shares them. *)
  let cse () =
    let c = create "cse" in
    let a = input c "a" 8 in
    let b = input c "b" 8 in
    let x = input c "x" 8 in
    output c "o1" (a -: b);
    output c "o2" (x -: b);
    finalize c

end

let small = [ adder8; regs; rfm; bb; romf; cse ]

(* The Oyster fuzz tests' random designs: every operator of the IR at
   widths 1 to 8, and reads of a memory and a ROM at computed addresses. *)
let random () = List.init 60 (fun i -> Gen_designs.generate (i + 1))

(* The state one step starts from; [mem name addr] is total, so large
   memories need no table. *)
type state = {
  inputs : (string * Bitvec.t) list;
  regs : (string * Bitvec.t) list;
  mem : string -> Bitvec.t -> Bitvec.t;
}

(* edge values (zero divisors, signed-overflow operands) and small signed
   ones (nonzero quotients of any sign) as often as noise *)
let value rs w =
  match Random.State.int rs 6 with
  | 0 -> Bitvec.zero w
  | 1 -> Bitvec.ones w
  | 2 -> Bitvec.shl_int (Bitvec.one w) (w - 1)
  | 3 -> Bitvec.of_int ~width:w (Random.State.int rs 17 - 8)
  | _ -> Bitvec.of_bits (Array.init w (fun _ -> Random.State.bool rs))

(* address and data width of memory [m] *)
let widths d m =
  Option.get
    (List.find_map
       (fun (n, aw, dw) -> if n = m then Some (aw, dw) else None)
       (Oyster.Ast.memories d))

let memo tbl key f =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = f () in
      Hashtbl.add tbl key v;
      v

(* With [instr = (word, (x, y))], every instruction-memory word and every
   register named [*instr] hold [word], every [*valid] flag is set, and
   register-file cells rs1 and rs2 hold [x] and [y], so the core executes
   the instruction on those operands whichever PC fetches. *)
let random_state ?instr d seed =
  let rs = Random.State.make [| seed |] in
  let inputs = List.map (fun (n, w) -> (n, value rs w)) (Oyster.Ast.inputs d) in
  let regs =
    List.map
      (fun (n, w) ->
        match instr with
        | Some (word, _) when String.ends_with ~suffix:"instr" n && w = 32 ->
            (n, word)
        | Some _ when String.ends_with ~suffix:"valid" n -> (n, Bitvec.ones w)
        | _ -> (n, value rs w))
      (Oyster.Ast.registers d)
  in
  let contents = Hashtbl.create 64 in
  let mem m a =
    match instr with
    | Some (word, _) when m = "i_mem" -> word
    | Some (word, (x, _))
      when m = "rf" && Bitvec.to_int_exn a = Isa.Rv32.get_rs1 word ->
        x
    | Some (word, (_, y))
      when m = "rf" && Bitvec.to_int_exn a = Isa.Rv32.get_rs2 word ->
        y
    | _ ->
        memo contents (m, a) (fun () ->
            let seeds = [| seed; Hashtbl.hash m; Hashtbl.hash (Bitvec.to_string a) |] in
            value (Random.State.make seeds) (snd (widths d m)))
  in
  { inputs; regs; mem }

(* Operand pairs that reach every sign case of the multiply, divide and
   compare cones: both negative, mixed (a dividend of 8..15 over a divisor
   of 1..3, so quotient and remainder are nonzero), a zero divisor, and
   the one signed overflow. *)
let operand_pairs rs =
  let big sign = Bitvec.of_int ~width:32 (sign * (8 + Random.State.int rs 8)) in
  let little sign = Bitvec.of_int ~width:32 (sign * (1 + Random.State.int rs 3)) in
  [ (big (-1), little (-1));
    (big 1, little (-1));
    (big (-1), little 1);
    (value rs 32, Bitvec.zero 32);
    (Bitvec.shl_int (Bitvec.one 32) 31, Bitvec.ones 32) ]

(* [n] random states, then on a RISC-V core one encoding of every
   instruction of its ISA per operand pair, with distinct nonzero source
   registers: random words almost never decode to the multiply, divide and
   carry-less cones. *)
let states ?(n = 16) d isa =
  let plain = List.init n (fun seed -> random_state d seed) in
  let encoded =
    match isa with
    | None -> []
    | Some v ->
        List.concat
          (List.mapi
             (fun i desc ->
               let rs = Random.State.make [| 1000 + i |] in
               List.mapi
                 (fun k pair ->
                   let word =
                     Isa.Rv32.encode_fields desc
                       ~rd:(1 + Random.State.int rs 31)
                       ~rs1:(1 + Random.State.int rs 15)
                       ~rs2:(16 + Random.State.int rs 16)
                       ~imm:(Random.State.bits rs)
                   in
                   random_state ~instr:(Bitvec.of_int ~width:32 word, pair) d
                     ((1000 * (i + 1)) + k))
                 (operand_pairs rs))
             (Isa.Rv32.instructions v))
  in
  plain @ encoded

(* {1 What a step does}

   Outputs, next register values, and the memory cells whose value the
   step changes, as sorted [(label, value)] rows. *)

type effects = (string * string) list

let rows outs regs changed =
  List.map (fun (n, v) -> ("out " ^ n, Bitvec.to_string v)) outs
  @ List.map (fun (n, v) -> ("reg " ^ n, Bitvec.to_string v)) regs
  @ List.sort compare
      (List.map
         (fun ((m, a), v) ->
           (Printf.sprintf "mem %s[%s]" m (Bitvec.to_string a), Bitvec.to_string v))
         changed)

(* writes in order, later ones winning; rows only for changed cells *)
let commit st writes =
  let final = Hashtbl.create 8 in
  List.iter (fun (m, a, v) -> Hashtbl.replace final (m, a) v) writes;
  Hashtbl.fold
    (fun (m, a) v acc ->
      if Bitvec.equal v (st.mem m a) then acc else ((m, a), v) :: acc)
    final []

let interp d st : effects =
  let s = Oyster.Interp.init ~mem_init:(fun m _ _ a -> st.mem m a) d in
  List.iter (fun (n, v) -> Oyster.Interp.set_register s n v) st.regs;
  let r = Oyster.Interp.step ~inputs:(fun n _ -> List.assoc n st.inputs) s in
  let writes =
    Hashtbl.fold
      (fun m (ms : Oyster.Interp.mem_state) acc ->
        Hashtbl.fold
          (fun a v acc -> (m, a, v) :: acc)
          ms.Oyster.Interp.contents acc)
      s.Oyster.Interp.mems []
  in
  rows r.Oyster.Interp.outputs
    (List.map (fun (n, _) -> (n, Oyster.Interp.get_register s n)) st.regs)
    (commit st writes)

(* {1 Evaluating many states at once}

   Bit [s] of a lane word is a bit's value in state [s] of a batch, so one
   pass evaluates a gate in every state of the batch. *)

let lanes = Sys.int_size - 1

let lane w s = (w lsr s) land 1 = 1

(* the lane word whose bit [s] is [f s], for [s < n] *)
let lane_word n f =
  let w = ref 0 in
  for s = n - 1 downto 0 do
    w := (!w lsl 1) lor Bool.to_int (f s)
  done;
  !w

(* state [s]'s value of a word given as lane words, LSB first *)
let word_at s ws = Bitvec.of_bits (Array.map (fun w -> lane w s) ws)

(* One pass in index order — every child precedes its parent — then each
   state's effects from the roots. *)
let eval_graph (g : Netlist.t) (batch : state array) : effects array =
  let cell_addr m a = Bitvec.of_int ~width:(fst (widths g.Netlist.design m)) a in
  let v = Array.make (Array.length g.Netlist.nodes) 0 in
  let word s bits = word_at s (Array.map (fun i -> v.(i)) bits) in
  (* every state's value of a cell, read once per batch *)
  let cells = Hashtbl.create 64 in
  let cell m a =
    memo cells (m, a) (fun () -> Array.map (fun st -> st.mem m (cell_addr m a)) batch)
  in
  (* a port's data bits are consecutive nodes sharing one address array *)
  let last = ref ([||], [||]) in
  let port m addr =
    if fst !last != addr then
      last := (addr, Array.mapi (fun s st -> st.mem m (word s addr)) batch);
    snd !last
  in
  let leaf s = function
    | Netlist.Input (n, k) -> Bitvec.bit (List.assoc n batch.(s).inputs) k
    | Netlist.Reg (n, k) -> Bitvec.bit (List.assoc n batch.(s).regs) k
    | Netlist.Cell (m, a, k) -> Bitvec.bit (cell m a).(s) k
    | Netlist.Port (m, addr, k) -> Bitvec.bit (port m addr).(s) k
  in
  Array.iteri
    (fun i node ->
      v.(i) <-
        (match node with
        | Netlist.Const c -> if c then -1 else 0
        | Netlist.Leaf l -> lane_word (Array.length batch) (fun s -> leaf s l)
        | Netlist.And (x, y) -> v.(x) land v.(y)
        | Netlist.Or (x, y) -> v.(x) lor v.(y)
        | Netlist.Xor (x, y) -> v.(x) lxor v.(y)
        | Netlist.Not x -> lnot v.(x)
        | Netlist.Mux (c, x, y) ->
            (v.(c) land v.(x)) lor (lnot v.(c) land v.(y))))
    g.Netlist.nodes;
  Array.mapi
    (fun s st ->
      let outs = ref [] and regs = ref [] and writes = ref [] in
      List.iter
        (function
          | Netlist.Output (n, bits) -> outs := (n, word s bits) :: !outs
          | Netlist.Next (n, bits) -> regs := (n, word s bits) :: !regs
          | Netlist.Cell_next (m, a, bits) ->
              writes := (m, cell_addr m a, word s bits) :: !writes
          | Netlist.Write { mem; addr; data; enable } ->
              if lane v.(enable) s then
                writes := (mem, word s addr, word s data) :: !writes)
        g.Netlist.roots;
      rows (List.rev !outs) (List.rev !regs) (commit st (List.rev !writes)))
    batch

let effects = Alcotest.(list (pair string string))

let rec batches = function
  | [] -> []
  | states ->
      List.filteri (fun i _ -> i < lanes) states
      :: batches (List.filteri (fun i _ -> i >= lanes) states)

(* Each of [runs], a [(label, evaluator)] pair, agrees with
   [Oyster.Interp] from every state. *)
let agree name d states runs =
  let expected = List.map (interp d) states in
  List.iter
    (fun (label, run) ->
      let got =
        List.concat_map
          (fun b -> Array.to_list (run (Array.of_list b)))
          (batches states)
      in
      List.iteri
        (fun i (want, got) ->
          Alcotest.check effects
            (Printf.sprintf "%s %s state %d" name label i)
            want got)
        (List.combine expected got))
    runs

(* The ALU sketch completed by the engine: generated control in the graph. *)
let synthesized_alu () =
  match Synth.Engine.synthesize (Designs.Alu.problem ()) with
  | Synth.Engine.Solved s -> s.Synth.Engine.completed
  | o -> Alcotest.failf "alu synthesis: %s" (Synth.Engine.outcome_name o)
