(* Testbench utilities: load a program into a completed (hole-free) core,
   run it cycle-accurately with the Oyster interpreter, detect the
   conventional jump-to-self halt, and compare architectural state against
   the ISS oracle. *)

type run_result = {
  cycles_to_halt : int option;  (* first cycle with pc_out = halt address *)
  state : Oyster.Interp.state;
}

let load_core design ~(program : Bitvec.t list) ~(dmem_init : (int * Bitvec.t) list) =
  let prog = Array.of_list program in
  let dmem_tbl = Hashtbl.create 16 in
  List.iter (fun (a, v) -> Hashtbl.replace dmem_tbl a v) dmem_init;
  Oyster.Interp.init
    ~mem_init:(fun name _aw dw addr ->
      match name with
      | "i_mem" ->
          let i = Bitvec.to_int_exn addr in
          if i < Array.length prog then prog.(i) else Bitvec.zero dw
      | "d_mem" -> (
          match Hashtbl.find_opt dmem_tbl (Bitvec.to_int_exn addr) with
          | Some v -> v
          | None -> Bitvec.zero dw)
      | _ -> Bitvec.zero dw)
    design

let run_core design ~program ~dmem_init ~halt_pc ~max_cycles =
  let st = load_core design ~program ~dmem_init in
  let halt = Bitvec.of_int ~width:32 halt_pc in
  let rec go cycle =
    if cycle >= max_cycles then { cycles_to_halt = None; state = st }
    else begin
      let r = Oyster.Interp.step st in
      let pc = List.assoc "pc_out" r.Oyster.Interp.outputs in
      if Bitvec.equal pc halt then
        { cycles_to_halt = Some (cycle + 1); state = st }
      else go (cycle + 1)
    end
  in
  go 0

let core_reg st i = Oyster.Interp.read_mem st "rf" (Bitvec.of_int ~width:5 i)
let core_dmem st a = Oyster.Interp.read_mem st "d_mem" (Bitvec.of_int ~width:30 a)

(* {1 Random program generation for co-simulation} *)

(* Straight-line-heavy random programs: ALU traffic over x1..x7, loads and
   stores in a small data window, short forward branches, ending in the
   jump-to-self halt.  All generated instructions are decodable in the
   given variant.  With [profile:`Cmov] the program fits the crypto core's
   bespoke ISA: no conditional branches, word-only memory access, CMOV
   instead of branches. *)
let cmov_word ~rd ~rs1 ~rs2 =
  Bitvec.of_int ~width:32
    ((0x07 lsl 25) lor (rs2 lsl 20) lor (rs1 lsl 15) lor (5 lsl 12) lor (rd lsl 7)
    lor 0x33)

let random_program ?(profile = `Standard) rng variant ~len =
  let e m = Isa.Rv32.encode variant m in
  let reg () = 1 + Random.State.int rng 7 in
  let alu_r =
    [ "add"; "sub"; "sll"; "slt"; "sltu"; "xor"; "srl"; "sra"; "or"; "and" ]
    @ (match variant with
      | Isa.Rv32.RV32I_Zbkb | Isa.Rv32.RV32I_Zbkc ->
          [ "rol"; "ror"; "andn"; "orn"; "xnor"; "pack"; "packh" ]
      | _ -> [])
    @ (match variant with
      | Isa.Rv32.RV32I_Zbkc -> [ "clmul"; "clmulh" ]
      | Isa.Rv32.RV32I_M ->
          [ "mul"; "mulh"; "mulhsu"; "mulhu"; "div"; "divu"; "rem"; "remu" ]
      | _ -> [])
  in
  let alu_i =
    [ "addi"; "slti"; "sltiu"; "xori"; "ori"; "andi"; "slli"; "srli"; "srai" ]
    @ (match variant with
      | Isa.Rv32.RV32I_Zbkb | Isa.Rv32.RV32I_Zbkc ->
          [ "rori"; "rev8"; "brev8"; "zip"; "unzip" ]
      | _ -> [])
  in
  let mem_ops =
    match profile with
    | `Standard -> [ "lb"; "lh"; "lw"; "lbu"; "lhu" ]
    | `Cmov -> [ "lw" ]
  in
  let store_ops =
    match profile with `Standard -> [ "sb"; "sh"; "sw" ] | `Cmov -> [ "sw" ]
  in
  let branches = [ "beq"; "bne"; "blt"; "bge"; "bltu"; "bgeu" ] in
  let store () =
    let m = List.nth store_ops (Random.State.int rng (List.length store_ops)) in
    let imm =
      match profile with
      | `Standard -> Random.State.int rng 128
      | `Cmov -> 4 * Random.State.int rng 32
    in
    e m ~rs1:0 ~rs2:(reg ()) ~imm ()
  in
  let body =
    List.init len (fun i ->
        match Random.State.int rng 10 with
        | 0 | 1 | 2 ->
            let m = List.nth alu_r (Random.State.int rng (List.length alu_r)) in
            e m ~rd:(reg ()) ~rs1:(reg ()) ~rs2:(reg ()) ()
        | 3 | 4 | 5 ->
            let m = List.nth alu_i (Random.State.int rng (List.length alu_i)) in
            let imm =
              if m = "slli" || m = "srli" || m = "srai" || m = "rori" then
                Random.State.int rng 32
              else Random.State.int rng 4096 - 2048
            in
            e m ~rd:(reg ()) ~rs1:(reg ()) ~imm ()
        | 6 ->
            let m = List.nth mem_ops (Random.State.int rng (List.length mem_ops)) in
            let imm =
              match profile with
              | `Standard -> Random.State.int rng 128
              | `Cmov -> 4 * Random.State.int rng 32
            in
            e m ~rd:(reg ()) ~rs1:0 ~imm ()
        | 7 -> store ()
        | 8 -> (
            match profile with
            | `Standard ->
                if Random.State.bool rng then
                  e "lui" ~rd:(reg ()) ~imm:(Random.State.int rng (1 lsl 20) lsl 12) ()
                else
                  e "auipc" ~rd:(reg ()) ~imm:(Random.State.int rng (1 lsl 20) lsl 12) ()
            | `Cmov -> e "lui" ~rd:(reg ()) ~imm:(Random.State.int rng (1 lsl 20) lsl 12) ())
        | _ -> (
            match profile with
            | `Standard ->
                (* short forward branch; the target never passes
                   index [len] *)
                let m = List.nth branches (Random.State.int rng (List.length branches)) in
                let skip = max 0 (min (len - i - 1) (1 + Random.State.int rng 3)) in
                e m ~rs1:(reg ()) ~rs2:(reg ()) ~imm:(4 * (skip + 1)) ()
            | `Cmov -> cmov_word ~rd:(reg ()) ~rs1:(reg ()) ~rs2:(reg ())))
  in
  (* a store at index [len], which every path reaches, then the
     jump-to-self halt: every program writes data memory at least once *)
  body @ [ store (); e "jal" ~rd:0 ~imm:0 () ]

(* Run the same program on the ISS. *)
let run_iss ?cmov variant ~program ~dmem_init ~max_cycles =
  let t = Isa.Iss.create ~variant ?cmov () in
  Isa.Iss.load_program t program;
  List.iter (fun (a, v) -> Isa.Iss.dmem_write t a v) dmem_init;
  let outcome = Isa.Iss.run ~max_cycles t in
  (outcome, t)

(* {1 The co-simulation oracle} *)

let cosim ?(profile = `Standard) design variant rng =
  let program = random_program ~profile rng variant ~len:40 in
  let dmem_init =
    List.init 32 (fun i ->
        (i, Bitvec.of_bits (Array.init 32 (fun _ -> Random.State.bool rng))))
  in
  let core =
    run_core design ~program ~dmem_init
      ~halt_pc:(4 * (List.length program - 1))
      ~max_cycles:2000
  in
  let outcome, iss =
    run_iss ~cmov:(profile = `Cmov) variant ~program ~dmem_init
      ~max_cycles:2000
  in
  match (core.cycles_to_halt, outcome) with
  | None, _ -> Error "core did not reach the halt PC"
  | _, `Illegal w -> Error ("ISS illegal instruction " ^ Bitvec.to_string w)
  | _, `Max_cycles -> Error "ISS did not halt"
  | Some _, `Halted -> (
      let st = core.state in
      let regs =
        List.init 32 (fun r ->
            (Printf.sprintf "x%d" r, core_reg st r, Isa.Iss.get_reg iss r))
      and words =
        List.init 41 (fun a ->
            (Printf.sprintf "mem[%d]" a, core_dmem st a, Isa.Iss.dmem_read iss a))
      in
      match
        List.find_opt (fun (_, c, i) -> not (Bitvec.equal c i)) (regs @ words)
      with
      | None -> Ok ()
      | Some (what, c, i) ->
          Error
            (Printf.sprintf "%s: core %s, ISS %s" what (Bitvec.to_string c)
               (Bitvec.to_string i)))
