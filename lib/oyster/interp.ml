(* Cycle-accurate concrete interpreter for Oyster designs — effectively the
   simulator for completed (hole-free or hole-bound) synchronous hardware.

   One [step] executes all statements for a cycle: combinational assignments
   take effect immediately; register assignments and memory writes are
   buffered and committed at the end of the step. *)

exception Runtime_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Runtime_error s)) fmt

type mem_state = {
  contents : (Bitvec.t, Bitvec.t) Hashtbl.t;
  default : Bitvec.t -> Bitvec.t;  (* backing image for unwritten cells *)
  data_width : int;
}

type state = {
  design : Ast.design;
  regs : (string, Bitvec.t) Hashtbl.t;
  mems : (string, mem_state) Hashtbl.t;
  mutable cycle : int;
}

let mem_read ms addr =
  match Hashtbl.find_opt ms.contents addr with
  | Some v -> v
  | None -> ms.default addr

(* {1 Initialization} *)

let init ?(mem_init = fun _mem _addr_width data_width _addr -> Bitvec.zero data_width)
    (design : Ast.design) =
  let regs = Hashtbl.create 16 in
  List.iter (fun (n, w) -> Hashtbl.replace regs n (Bitvec.zero w)) (Ast.registers design);
  let mems = Hashtbl.create 8 in
  List.iter
    (fun (name, addr_width, data_width) ->
      Hashtbl.replace mems name
        {
          contents = Hashtbl.create 64;
          default = mem_init name addr_width data_width;
          data_width;
        })
    (Ast.memories design);
  { design; regs; mems; cycle = 0 }

let set_register state name v = Hashtbl.replace state.regs name v

let get_register state name =
  match Hashtbl.find_opt state.regs name with
  | Some v -> v
  | None -> fail "unknown register %s" name

let write_mem state mem addr v =
  match Hashtbl.find_opt state.mems mem with
  | Some ms -> Hashtbl.replace ms.contents addr v
  | None -> fail "unknown memory %s" mem

let read_mem state mem addr =
  match Hashtbl.find_opt state.mems mem with
  | Some ms -> mem_read ms addr
  | None -> fail "unknown memory %s" mem

(* {1 Stepping} *)

type step_result = {
  outputs : (string * Bitvec.t) list;
  wires : (string * Bitvec.t) list;  (* includes outputs and sampled inputs *)
}

let eval_unop op a =
  match op with
  | Ast.Not -> Bitvec.lognot a
  | Ast.Neg -> Bitvec.neg a
  | Ast.RedOr -> if Bitvec.reduce_or a then Bitvec.one 1 else Bitvec.zero 1
  | Ast.RedAnd -> if Bitvec.reduce_and a then Bitvec.one 1 else Bitvec.zero 1
  | Ast.RedXor -> if Bitvec.reduce_xor a then Bitvec.one 1 else Bitvec.zero 1

let eval_binop op a b =
  let of_bool x = if x then Bitvec.one 1 else Bitvec.zero 1 in
  match op with
  | Ast.And -> Bitvec.logand a b
  | Ast.Or -> Bitvec.logor a b
  | Ast.Xor -> Bitvec.logxor a b
  | Ast.Add -> Bitvec.add a b
  | Ast.Sub -> Bitvec.sub a b
  | Ast.Mul -> Bitvec.mul a b
  | Ast.Udiv -> Bitvec.udiv a b
  | Ast.Urem -> Bitvec.urem a b
  | Ast.Sdiv -> Bitvec.sdiv a b
  | Ast.Srem -> Bitvec.srem a b
  | Ast.Clmul -> Bitvec.clmul a b
  | Ast.Clmulh -> Bitvec.clmulh a b
  | Ast.Shl -> Bitvec.shl a b
  | Ast.Lshr -> Bitvec.lshr a b
  | Ast.Ashr -> Bitvec.ashr a b
  | Ast.Rol -> Bitvec.rol a b
  | Ast.Ror -> Bitvec.ror a b
  | Ast.Eq -> of_bool (Bitvec.equal a b)
  | Ast.Ne -> of_bool (not (Bitvec.equal a b))
  | Ast.Ult -> of_bool (Bitvec.ult a b)
  | Ast.Ule -> of_bool (Bitvec.ule a b)
  | Ast.Ugt -> of_bool (Bitvec.ult b a)
  | Ast.Uge -> of_bool (Bitvec.ule b a)
  | Ast.Slt -> of_bool (Bitvec.slt a b)
  | Ast.Sle -> of_bool (Bitvec.sle a b)
  | Ast.Sgt -> of_bool (Bitvec.slt b a)
  | Ast.Sge -> of_bool (Bitvec.sle b a)

let step ?(inputs = fun name _w -> fail "input %s not driven" name)
    ?(hole_value = fun name _w -> fail "hole %s is unbound" name) (state : state) =
  let design = state.design in
  let roms = Ast.roms design in
  let wires : (string, Bitvec.t) Hashtbl.t = Hashtbl.create 32 in
  let lookup name =
    match Hashtbl.find_opt wires name with
    | Some v -> v
    | None -> (
        match Ast.find_decl design name with
        | Some (Ast.Input (_, w)) ->
            let v = inputs name w in
            if Bitvec.width v <> w then fail "input %s driven at wrong width" name;
            Hashtbl.replace wires name v;
            v
        | Some (Ast.Register (_, _)) -> get_register state name
        | Some (Ast.Hole { hole_width; _ }) ->
            let v = hole_value name hole_width in
            if Bitvec.width v <> hole_width then
              fail "hole %s bound at wrong width" name;
            v
        | Some (Ast.Wire _ | Ast.Output _) -> fail "%s read before assignment" name
        | Some _ -> fail "%s is not a value" name
        | None -> fail "undeclared %s" name)
  in
  let rec eval (e : Ast.expr) =
    match e with
    | Ast.Const v -> v
    | Ast.Var n -> lookup n
    | Ast.Unop (op, a) -> eval_unop op (eval a)
    | Ast.Binop (op, a, b) -> eval_binop op (eval a) (eval b)
    | Ast.Ite (c, a, b) -> if Bitvec.is_ones (eval c) then eval a else eval b
    | Ast.Extract (h, l, a) -> Bitvec.extract ~high:h ~low:l (eval a)
    | Ast.Concat (a, b) ->
        let va = eval a in
        let vb = eval b in
        Bitvec.concat va vb
    | Ast.Zext (a, w) -> Bitvec.zext (eval a) w
    | Ast.Sext (a, w) -> Bitvec.sext (eval a) w
    | Ast.Read (m, addr) -> read_mem state m (eval addr)
    | Ast.RomRead (r, addr) -> (
        match List.find_opt (fun rm -> rm.Ast.rom_name = r) roms with
        | Some rm -> rm.Ast.rom_data.(Bitvec.to_int_exn (eval addr))
        | None -> fail "undeclared rom %s" r)
  in
  (* Deferred effects. *)
  let reg_next : (string * Bitvec.t) list ref = ref [] in
  let mem_writes : (string * Bitvec.t * Bitvec.t) list ref = ref [] in
  List.iter
    (fun stmt ->
      match stmt with
      | Ast.Assign (name, e) -> (
          let v = eval e in
          match Ast.find_decl design name with
          | Some (Ast.Register _) -> reg_next := (name, v) :: !reg_next
          | Some (Ast.Wire _ | Ast.Output _) -> Hashtbl.replace wires name v
          | _ -> fail "bad assignment target %s" name)
      | Ast.Write { mem; addr; data; enable } ->
          if Bitvec.is_ones (eval enable) then
            mem_writes := (mem, eval addr, eval data) :: !mem_writes)
    design.stmts;
  (* Commit: writes in statement order (the list is reversed). *)
  List.iter (fun (m, a, v) -> write_mem state m a v) (List.rev !mem_writes);
  List.iter (fun (r, v) -> set_register state r v) !reg_next;
  state.cycle <- state.cycle + 1;
  let outputs =
    List.map
      (fun (n, _) ->
        match Hashtbl.find_opt wires n with
        | Some v -> (n, v)
        | None -> fail "output %s not assigned" n)
      (Ast.outputs design)
  in
  { outputs; wires = Hashtbl.fold (fun k v acc -> (k, v) :: acc) wires [] }
