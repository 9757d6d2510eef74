(* ILA specifications: a mutable builder mirroring the ILA C++ API of the
   paper (§2.1), plus a concrete architectural-level evaluator used as the
   reference model in tests and benchmarks.

   An instruction is a decode predicate plus a set of state updates (paper:
   SetDecode / SetUpdate).  All update right-hand sides read the PRE-state:
   updates are simultaneous, exactly as in ILA. *)

exception Spec_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Spec_error s)) fmt

type update =
  | Ubv of string * Expr.t  (* bitvector state := expr *)
  | Umem of string * (Expr.t * Expr.t) list
      (* memory state := Store*(mem, addr, data); later stores win *)

type instr = {
  iname : string;
  mutable decode : Expr.t option;
  mutable updates : update list;  (* in SetUpdate order *)
}

type t = {
  sname : string;
  mutable inputs : (string * int) list;
  mutable bv_states : (string * int) list;
  mutable mem_states : (string * int * int) list;  (* name, addr_w, data_w *)
  mutable mem_consts : (string * int * Bitvec.t array) list;  (* name, addr_w *)
  mutable instrs : instr list;  (* reverse order of creation *)
}

let create sname =
  { sname; inputs = []; bv_states = []; mem_states = []; mem_consts = []; instrs = [] }

let check_fresh spec name =
  if
    List.mem_assoc name spec.inputs
    || List.mem_assoc name spec.bv_states
    || List.exists (fun (n, _, _) -> n = name) spec.mem_states
    || List.exists (fun (n, _, _) -> n = name) spec.mem_consts
  then fail "duplicate declaration %s in spec %s" name spec.sname

let new_bv_input spec name width =
  check_fresh spec name;
  spec.inputs <- spec.inputs @ [ (name, width) ];
  Expr.Input (name, width)

let new_bv_state spec name width =
  check_fresh spec name;
  spec.bv_states <- spec.bv_states @ [ (name, width) ];
  Expr.State (name, width)

let new_mem_state spec name ~addr_width ~data_width =
  check_fresh spec name;
  spec.mem_states <- spec.mem_states @ [ (name, addr_width, data_width) ];
  name

let new_mem_const spec name ~addr_width data =
  check_fresh spec name;
  if Array.length data <> 1 lsl addr_width then
    fail "mem const %s has %d entries, expected %d" name (Array.length data)
      (1 lsl addr_width);
  spec.mem_consts <- spec.mem_consts @ [ (name, addr_width, data) ];
  name

let new_instr spec iname =
  if List.exists (fun i -> i.iname = iname) spec.instrs then
    fail "duplicate instruction %s" iname;
  let i = { iname; decode = None; updates = [] } in
  spec.instrs <- i :: spec.instrs;
  i

let set_decode instr e =
  if instr.decode <> None then fail "decode of %s set twice" instr.iname;
  instr.decode <- Some e

let set_update instr state e =
  if
    List.exists
      (function Ubv (n, _) -> n = state | Umem (n, _) -> n = state)
      instr.updates
  then fail "update of %s set twice in %s" state instr.iname;
  instr.updates <- instr.updates @ [ Ubv (state, e) ]

let set_mem_update instr mem stores =
  if
    List.exists
      (function Ubv (n, _) -> n = mem | Umem (n, _) -> n = mem)
      instr.updates
  then fail "update of %s set twice in %s" mem instr.iname;
  instr.updates <- instr.updates @ [ Umem (mem, stores) ]

let instructions spec = List.rev spec.instrs

let decode_of instr =
  match instr.decode with
  | Some d -> d
  | None -> fail "instruction %s has no decode" instr.iname

(* {1 Concrete architectural evaluation}

   The spec doubles as an executable reference model ("spec-level ISS").
   Architectural state is a record of bitvector values and sparse memory
   images. *)

type arch_state = {
  bvs : (string, Bitvec.t) Hashtbl.t;
  mems : (string, (Bitvec.t, Bitvec.t) Hashtbl.t) Hashtbl.t;
  mem_defaults : (string, Bitvec.t -> Bitvec.t) Hashtbl.t;
}

let init_state ?(mem_init = fun _name _addr_width data_width _addr -> Bitvec.zero data_width)
    spec =
  let bvs = Hashtbl.create 16 in
  List.iter (fun (n, w) -> Hashtbl.replace bvs n (Bitvec.zero w)) spec.bv_states;
  let mems = Hashtbl.create 4 in
  let mem_defaults = Hashtbl.create 4 in
  List.iter
    (fun (n, aw, dw) ->
      Hashtbl.replace mems n (Hashtbl.create 64);
      Hashtbl.replace mem_defaults n (mem_init n aw dw))
    spec.mem_states;
  { bvs; mems; mem_defaults }

let get_bv st name =
  match Hashtbl.find_opt st.bvs name with
  | Some v -> v
  | None -> fail "unknown bv state %s" name

let set_bv st name v = Hashtbl.replace st.bvs name v

let get_mem st name addr =
  match Hashtbl.find_opt st.mems name with
  | Some tbl -> (
      match Hashtbl.find_opt tbl addr with
      | Some v -> v
      | None -> (Hashtbl.find st.mem_defaults name) addr)
  | None -> fail "unknown memory state %s" name

let set_mem st name addr v =
  match Hashtbl.find_opt st.mems name with
  | Some tbl -> Hashtbl.replace tbl addr v
  | None -> fail "unknown memory state %s" name

let eval_concrete spec st ~(inputs : string -> Bitvec.t) (e : Expr.t) : Bitvec.t =
  let of_bool x = if x then Bitvec.one 1 else Bitvec.zero 1 in
  let rec go e =
    match (e : Expr.t) with
    | Expr.Const v -> v
    | Expr.Input (n, w) ->
        let v = inputs n in
        if Bitvec.width v <> w then fail "input %s driven at wrong width" n;
        v
    | Expr.State (n, _) -> get_bv st n
    | Expr.Load { mem; addr; _ } -> get_mem st mem (go addr)
    | Expr.TableLoad (t, addr) -> (
        match List.find_opt (fun (n, _, _) -> n = t) spec.mem_consts with
        | Some (_, _, data) -> data.(Bitvec.to_int_exn (go addr))
        | None -> fail "unknown mem const %s" t)
    | Expr.Unop (op, a) -> (
        let a = go a in
        match op with
        | Expr.Not -> Bitvec.lognot a
        | Expr.Neg -> Bitvec.neg a
        | Expr.RedOr -> of_bool (Bitvec.reduce_or a)
        | Expr.RedAnd -> of_bool (Bitvec.reduce_and a)
        | Expr.RedXor -> of_bool (Bitvec.reduce_xor a))
    | Expr.Binop (op, a, b) -> (
        let a = go a and b = go b in
        match op with
        | Expr.And -> Bitvec.logand a b
        | Expr.Or -> Bitvec.logor a b
        | Expr.Xor -> Bitvec.logxor a b
        | Expr.Add -> Bitvec.add a b
        | Expr.Sub -> Bitvec.sub a b
        | Expr.Mul -> Bitvec.mul a b
        | Expr.Udiv -> Bitvec.udiv a b
        | Expr.Urem -> Bitvec.urem a b
        | Expr.Sdiv -> Bitvec.sdiv a b
        | Expr.Srem -> Bitvec.srem a b
        | Expr.Clmul -> Bitvec.clmul a b
        | Expr.Clmulh -> Bitvec.clmulh a b
        | Expr.Shl -> Bitvec.shl a b
        | Expr.Lshr -> Bitvec.lshr a b
        | Expr.Ashr -> Bitvec.ashr a b
        | Expr.Rol -> Bitvec.rol a b
        | Expr.Ror -> Bitvec.ror a b
        | Expr.Eq -> of_bool (Bitvec.equal a b)
        | Expr.Ne -> of_bool (not (Bitvec.equal a b))
        | Expr.Ult -> of_bool (Bitvec.ult a b)
        | Expr.Ule -> of_bool (Bitvec.ule a b)
        | Expr.Ugt -> of_bool (Bitvec.ult b a)
        | Expr.Uge -> of_bool (Bitvec.ule b a)
        | Expr.Slt -> of_bool (Bitvec.slt a b)
        | Expr.Sle -> of_bool (Bitvec.sle a b)
        | Expr.Sgt -> of_bool (Bitvec.slt b a)
        | Expr.Sge -> of_bool (Bitvec.sle b a))
    | Expr.Ite (c, a, b) -> if Bitvec.is_ones (go c) then go a else go b
    | Expr.Extract (h, l, a) -> Bitvec.extract ~high:h ~low:l (go a)
    | Expr.Concat (a, b) ->
        let va = go a in
        Bitvec.concat va (go b)
    | Expr.Zext (a, w) -> Bitvec.zext (go a) w
    | Expr.Sext (a, w) -> Bitvec.sext (go a) w
  in
  go e

(* One architectural step: find the unique enabled instruction (decode holds)
   and apply its updates simultaneously.  Returns the instruction name, or
   [None] if no instruction decodes (architecture stalls). *)
let step_concrete spec st ~inputs =
  let enabled =
    List.filter
      (fun i ->
        Bitvec.is_ones (eval_concrete spec st ~inputs (decode_of i)))
      (instructions spec)
  in
  match enabled with
  | [] -> None
  | _ :: _ :: _ ->
      fail "instructions %s decode simultaneously (mutual exclusion violated)"
        (String.concat ", " (List.map (fun i -> i.iname) enabled))
  | [ i ] ->
      (* evaluate all update values against the pre-state first *)
      let bv_updates =
        List.filter_map
          (function
            | Ubv (n, e) -> Some (n, eval_concrete spec st ~inputs e)
            | Umem _ -> None)
          i.updates
      in
      let mem_updates =
        List.filter_map
          (function
            | Umem (n, stores) ->
                Some
                  ( n,
                    List.map
                      (fun (a, d) ->
                        (eval_concrete spec st ~inputs a, eval_concrete spec st ~inputs d))
                      stores )
            | Ubv _ -> None)
          i.updates
      in
      List.iter (fun (n, v) -> set_bv st n v) bv_updates;
      List.iter
        (fun (n, stores) -> List.iter (fun (a, d) -> set_mem st n a d) stores)
        mem_updates;
      Some i.iname
