(* Symbolic evaluation of Oyster designs over SMT terms.

   This is the Rosette-style "lifted interpreter" of paper §3.1: running the
   concrete interpreter structure over Term.t values yields, for a k-cycle
   evaluation, the sequence of states s_0 .. s_k of Equation (1).

   Naming scheme (all names carry a per-evaluation session prefix so that
   the global Term variable registry never sees width clashes between
   designs):

     <p>reg!<name>        initial value of a register (state s_0)
     <p>in!<name>!<c>     value of an input during cycle c (1-based)
     <p>hole!<name>       the existential constant for a hole (default policy)

   Memories become uninterpreted Term.mem values named <p>mem!<name>; reads
   against the initial contents are UF applications, and writes accumulate
   in a chronological log used both for later reads (read-over-write) and
   for the synthesis engine's frame conditions. *)

type write_event = {
  w_cycle : int;  (* the cycle (1-based) whose step performed the write *)
  w_addr : Term.t;
  w_data : Term.t;
  w_enable : Term.t;
}

type snapshot = {
  (* state s_i: register values and the prefix of the write log that has
     committed by this state *)
  s_regs : (string * Term.t) list;
  s_writes : (string * write_event list) list;  (* chronological *)
}

type trace = {
  design : Ast.design;
  prefix : string;
  cycles : int;
  snapshots : snapshot array;  (* length cycles + 1 *)
  cycle_wires : (string * Term.t) list array;
      (* index c-1: wire/output/input values during cycle c *)
  hole_terms : (string * Term.t) list;
  mems : (string * Term.mem) list;
}

(* Atomic so concurrent symbolic evaluations (e.g. from parallel engine
   runs) never reuse a namespace prefix. *)
let session_counter = Atomic.make 0

let fresh_prefix () =
  Printf.sprintf "s%d!" (Atomic.fetch_and_add session_counter 1 + 1)

(* Read-over-write: the value of [mem] at address [addr] given the
   chronological write log (later writes win). *)
let read_over_write (mem : Term.mem) (writes : write_event list) addr =
  List.fold_left
    (fun acc w ->
      Term.ite (Term.band w.w_enable (Term.eq w.w_addr addr)) w.w_data acc)
    (Term.read mem addr) writes

let eval_unop op (a : Term.t) =
  match op with
  | Ast.Not -> Term.bnot a
  | Ast.Neg -> Term.neg a
  | Ast.RedOr -> Term.ne a (Term.zero (Term.width a))
  | Ast.RedAnd -> Term.eq a (Term.ones (Term.width a))
  | Ast.RedXor ->
      let w = Term.width a in
      let rec go i acc = if i >= w then acc else go (i + 1) (Term.bxor acc (Term.bit a i)) in
      go 1 (Term.bit a 0)

(* [t mod m] for a positive constant [m], as a restoring-division circuit:
   one conditional subtract per bit of [t].  The result has [t]'s width. *)
let umod_const t m =
  let w = Term.width t in
  let mc = Term.of_int ~width:w m in
  let r = ref (Term.zero w) in
  for i = w - 1 downto 0 do
    r := Term.bor (Term.shl !r (Term.one w)) (Term.zext (Term.bit t i) w);
    r := Term.ite (Term.uge !r mc) (Term.sub !r mc) !r
  done;
  !r

let rotate_term dir a b =
  (* rol(a, b) = (a << s) | (a >> (w - s)) with s = b mod w: a mask for
     power-of-two widths, a restoring-modulo circuit otherwise.  A 1-bit
     rotate is the identity. *)
  let w = Term.width a in
  if w = 1 then a
  else begin
    let log2w =
      let rec go i = if 1 lsl i >= w then i else go (i + 1) in
      go 0
    in
    let exact = 1 lsl log2w = w in
    (* the amount, at a width large enough to hold w itself *)
    let sw = max (Term.width b) (log2w + 1) in
    let s =
      if exact then
        Term.zext (Term.extract ~high:(log2w - 1) ~low:0 (Term.zext b (max (Term.width b) log2w))) sw
      else umod_const (Term.zext b sw) w
    in
    let winv = Term.sub (Term.of_int ~width:sw w) s in
    match dir with
    | `Left -> Term.bor (Term.shl a s) (Term.lshr a winv)
    | `Right -> Term.bor (Term.lshr a s) (Term.shl a winv)
  end

let eval_binop op (a : Term.t) (b : Term.t) =
  match op with
  | Ast.And -> Term.band a b
  | Ast.Or -> Term.bor a b
  | Ast.Xor -> Term.bxor a b
  | Ast.Add -> Term.add a b
  | Ast.Sub -> Term.sub a b
  | Ast.Mul -> Term.mul a b
  | Ast.Udiv -> Term.udiv a b
  | Ast.Urem -> Term.urem a b
  | Ast.Sdiv -> Term.sdiv a b
  | Ast.Srem -> Term.srem a b
  | Ast.Clmul -> Term.clmul a b
  | Ast.Clmulh -> Term.clmulh a b
  | Ast.Shl -> Term.shl a b
  | Ast.Lshr -> Term.lshr a b
  | Ast.Ashr -> Term.ashr a b
  | Ast.Rol -> rotate_term `Left a b
  | Ast.Ror -> rotate_term `Right a b
  | Ast.Eq -> Term.eq a b
  | Ast.Ne -> Term.ne a b
  | Ast.Ult -> Term.ult a b
  | Ast.Ule -> Term.ule a b
  | Ast.Ugt -> Term.ugt a b
  | Ast.Uge -> Term.uge a b
  | Ast.Slt -> Term.slt a b
  | Ast.Sle -> Term.sle a b
  | Ast.Sgt -> Term.sgt a b
  | Ast.Sge -> Term.sge a b

let eval ?prefix ?input_term ?hole_term (design : Ast.design) ~cycles =
  if cycles < 1 then invalid_arg "Symbolic.eval: cycles < 1";
  ignore (Typecheck.check design);
  let prefix = match prefix with Some p -> p | None -> fresh_prefix () in
  let input_term =
    match input_term with
    | Some f -> f
    | None ->
        fun name w ~cycle -> Term.var (Printf.sprintf "%sin!%s!%d" prefix name cycle) w
  in
  let hole_cache = Hashtbl.create 8 in
  let hole_term =
    match hole_term with
    | Some f -> f
    | None ->
        fun name w ~lookup:_ ->
          (match Hashtbl.find_opt hole_cache name with
          | Some t -> t
          | None ->
              let t = Term.var (Printf.sprintf "%shole!%s" prefix name) w in
              Hashtbl.add hole_cache name t;
              t)
  in
  let mems =
    List.map
      (fun (name, addr_width, data_width) ->
        ( name,
          { Term.mem_name = prefix ^ "mem!" ^ name; addr_width; data_width } ))
      (Ast.memories design)
  in
  let roms =
    List.map
      (fun (r : Ast.rom_decl) ->
        ( r.Ast.rom_name,
          { Term.tab_name = prefix ^ "rom!" ^ r.Ast.rom_name;
            tab_addr_width = r.Ast.rom_addr_width;
            tab_data = r.Ast.rom_data } ))
      (Ast.roms design)
  in
  (* Mutable per-evaluation state. *)
  let regs = Hashtbl.create 16 in
  List.iter
    (fun (n, w) -> Hashtbl.replace regs n (Term.var (prefix ^ "reg!" ^ n) w))
    (Ast.registers design);
  let write_log : (string, write_event list) Hashtbl.t = Hashtbl.create 8 in
  List.iter (fun (n, _) -> Hashtbl.replace write_log n []) mems;
  let snapshot () =
    {
      s_regs =
        List.map (fun (n, _) -> (n, Hashtbl.find regs n)) (Ast.registers design);
      s_writes =
        List.map (fun (n, _) -> (n, List.rev (Hashtbl.find write_log n))) mems;
    }
  in
  let snapshots = Array.make (cycles + 1) (snapshot ()) in
  let cycle_wires = Array.make cycles [] in
  let hole_terms = ref [] in
  for cycle = 1 to cycles do
    let wires : (string, Term.t) Hashtbl.t = Hashtbl.create 32 in
    let rec lookup name =
      match Hashtbl.find_opt wires name with
      | Some t -> t
      | None -> (
          match Ast.find_decl design name with
          | Some (Ast.Input (_, w)) ->
              let t = input_term name w ~cycle in
              Hashtbl.replace wires name t;
              t
          | Some (Ast.Register (_, _)) -> Hashtbl.find regs name
          | Some (Ast.Hole { hole_width; hole_name; _ }) ->
              let t = hole_term hole_name hole_width ~lookup in
              if not (List.mem_assoc hole_name !hole_terms) then
                hole_terms := (hole_name, t) :: !hole_terms;
              t
          | _ ->
              Interp.fail "symbolic: %s read before assignment (cycle %d)" name
                cycle)
    and eval_expr (e : Ast.expr) =
      match e with
      | Ast.Const v -> Term.const v
      | Ast.Var n -> lookup n
      | Ast.Unop (op, a) -> eval_unop op (eval_expr a)
      | Ast.Binop (op, a, b) -> eval_binop op (eval_expr a) (eval_expr b)
      | Ast.Ite (c, a, b) -> Term.ite (eval_expr c) (eval_expr a) (eval_expr b)
      | Ast.Extract (h, l, a) -> Term.extract ~high:h ~low:l (eval_expr a)
      | Ast.Concat (a, b) -> Term.concat (eval_expr a) (eval_expr b)
      | Ast.Zext (a, w) -> Term.zext (eval_expr a) w
      | Ast.Sext (a, w) -> Term.sext (eval_expr a) w
      | Ast.Read (m, addr) ->
          let mem = List.assoc m mems in
          let writes = List.rev (Hashtbl.find write_log m) in
          read_over_write mem writes (eval_expr addr)
      | Ast.RomRead (r, addr) -> Term.table_read (List.assoc r roms) (eval_expr addr)
    in
    let reg_next = ref [] in
    let pending_writes = ref [] in
    List.iter
      (fun stmt ->
        match stmt with
        | Ast.Assign (name, e) -> (
            let t = eval_expr e in
            match Ast.find_decl design name with
            | Some (Ast.Register _) -> reg_next := (name, t) :: !reg_next
            | Some (Ast.Wire _ | Ast.Output _) -> Hashtbl.replace wires name t
            | _ -> Interp.fail "symbolic: bad assignment target %s" name)
        | Ast.Write { mem; addr; data; enable } ->
            let ev =
              {
                w_cycle = cycle;
                w_addr = eval_expr addr;
                w_data = eval_expr data;
                w_enable = eval_expr enable;
              }
            in
            pending_writes := (mem, ev) :: !pending_writes)
      design.stmts;
    (* Force inputs that no statement read, so abstraction functions can
       still refer to their per-cycle symbols. *)
    List.iter (fun (n, _) -> ignore (lookup n)) (Ast.inputs design);
    (* Commit at end of cycle: writes become visible in state s_cycle. *)
    List.iter
      (fun (m, ev) -> Hashtbl.replace write_log m (ev :: Hashtbl.find write_log m))
      (List.rev !pending_writes);
    List.iter (fun (n, t) -> Hashtbl.replace regs n t) !reg_next;
    cycle_wires.(cycle - 1) <- Hashtbl.fold (fun k v acc -> (k, v) :: acc) wires [];
    snapshots.(cycle) <- snapshot ()
  done;
  {
    design;
    prefix;
    cycles;
    snapshots;
    cycle_wires;
    hole_terms = List.rev !hole_terms;
    mems;
  }

(* {1 Accessors} *)

let reg_at trace ~state name =
  match List.assoc_opt name trace.snapshots.(state).s_regs with
  | Some t -> t
  | None -> Interp.fail "no register %s" name

let wire_at trace ~cycle name =
  match List.assoc_opt name trace.cycle_wires.(cycle - 1) with
  | Some t -> t
  | None ->
      Interp.fail "wire %s has no value in cycle %d (never evaluated?)" name cycle

let mem_of trace name =
  match List.assoc_opt name trace.mems with
  | Some m -> m
  | None -> Interp.fail "no memory %s" name

let read_mem_at trace ~state name addr =
  let mem = mem_of trace name in
  let writes =
    match List.assoc_opt name trace.snapshots.(state).s_writes with
    | Some w -> w
    | None -> []
  in
  read_over_write mem writes addr

let writes_at trace ~state name =
  match List.assoc_opt name trace.snapshots.(state).s_writes with
  | Some w -> w
  | None -> []
