(* Compilation of ILA instructions to pre/postconditions over a symbolic
   Oyster trace — the T[[.]] translation of paper Fig. 8 combined with the
   abstraction-function substitution of Equation (1):

     Pre_j  [s_spec := alpha(s_0)]          (SetDecode -> assume)
     Post_j [s_spec := alpha(s_1 .. s_k)]   (SetUpdate -> assert)

   Memory updates additionally produce frame conditions via a universally
   quantified "challenge" address per memory (one fresh variable: in the
   verification query its negation makes the solver search for a differing
   address; in the CEGIS synthesis phase it is fixed by the counterexample). *)

exception Compile_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Compile_error s)) fmt

type conditions = {
  instr_name : string;
  pre : Term.t;  (* decode (+ assumes folded in by the caller if desired) *)
  assumes : Term.t;  (* conjunction of abstraction-function assumptions *)
  post : Term.t;
  challenges : (string * Term.t) list;  (* dp memory name -> challenge var *)
}

(* {1 Expression compilation (pre-state semantics)} *)

let table_of_spec (spec : Spec.t) name =
  match List.find_opt (fun (n, _, _) -> n = name) spec.Spec.mem_consts with
  | Some (_, aw, data) ->
      { Term.tab_name = Printf.sprintf "ilatab!%s!%s" spec.Spec.sname name;
        tab_addr_width = aw;
        tab_data = data }
  | None -> fail "unknown mem const %s" name

let dp_pre_value (trace : Oyster.Symbolic.trace) (m : Absfun.mapping) =
  let t = Absfun.read_time m in
  match m.Absfun.dp_type with
  | Absfun.Dinput -> Oyster.Symbolic.wire_at trace ~cycle:t m.Absfun.dp_name
  | Absfun.Dregister -> Oyster.Symbolic.reg_at trace ~state:(t - 1) m.Absfun.dp_name
  | Absfun.Doutput -> Oyster.Symbolic.wire_at trace ~cycle:t m.Absfun.dp_name
  | Absfun.Dmemory -> fail "%s: memory mapping used as a value" m.Absfun.spec_id

let rec compile_expr (spec : Spec.t) (af : Absfun.t) trace (e : Expr.t) : Term.t =
  let go = compile_expr spec af trace in
  match e with
  | Expr.Const v -> Term.const v
  | Expr.Input (n, _) | Expr.State (n, _) ->
      dp_pre_value trace (Absfun.read_mapping af n ~port:None)
  | Expr.Load { mem; addr; port } ->
      let m = Absfun.read_mapping af mem ~port in
      if m.Absfun.dp_type <> Absfun.Dmemory then
        fail "%s: load maps to non-memory %s" mem m.Absfun.dp_name;
      let t = Absfun.read_time m in
      let addr_term =
        match m.Absfun.addr_via with
        | Some wire -> Oyster.Symbolic.wire_at trace ~cycle:t wire
        | None -> go addr
      in
      Oyster.Symbolic.read_mem_at trace ~state:(t - 1) m.Absfun.dp_name addr_term
  | Expr.TableLoad (tname, addr) -> Term.table_read (table_of_spec spec tname) (go addr)
  | Expr.Unop (op, a) -> (
      let a = go a in
      match op with
      | Expr.Not -> Term.bnot a
      | Expr.Neg -> Term.neg a
      | Expr.RedOr -> Term.ne a (Term.zero (Term.width a))
      | Expr.RedAnd -> Term.eq a (Term.ones (Term.width a))
      | Expr.RedXor ->
          let w = Term.width a in
          let rec loop i acc =
            if i >= w then acc else loop (i + 1) (Term.bxor acc (Term.bit a i))
          in
          loop 1 (Term.bit a 0))
  | Expr.Binop (op, a, b) -> (
      let a = go a and b = go b in
      match op with
      | Expr.And -> Term.band a b
      | Expr.Or -> Term.bor a b
      | Expr.Xor -> Term.bxor a b
      | Expr.Add -> Term.add a b
      | Expr.Sub -> Term.sub a b
      | Expr.Mul -> Term.mul a b
      | Expr.Udiv -> Term.udiv a b
      | Expr.Urem -> Term.urem a b
      | Expr.Sdiv -> Term.sdiv a b
      | Expr.Srem -> Term.srem a b
      | Expr.Clmul -> Term.clmul a b
      | Expr.Clmulh -> Term.clmulh a b
      | Expr.Shl -> Term.shl a b
      | Expr.Lshr -> Term.lshr a b
      | Expr.Ashr -> Term.ashr a b
      | Expr.Rol -> Oyster.Symbolic.eval_binop Oyster.Ast.Rol a b
      | Expr.Ror -> Oyster.Symbolic.eval_binop Oyster.Ast.Ror a b
      | Expr.Eq -> Term.eq a b
      | Expr.Ne -> Term.ne a b
      | Expr.Ult -> Term.ult a b
      | Expr.Ule -> Term.ule a b
      | Expr.Ugt -> Term.ugt a b
      | Expr.Uge -> Term.uge a b
      | Expr.Slt -> Term.slt a b
      | Expr.Sle -> Term.sle a b
      | Expr.Sgt -> Term.sgt a b
      | Expr.Sge -> Term.sge a b)
  | Expr.Ite (c, a, b) -> Term.ite (go c) (go a) (go b)
  | Expr.Extract (h, l, a) -> Term.extract ~high:h ~low:l (go a)
  | Expr.Concat (a, b) -> Term.concat (go a) (go b)
  | Expr.Zext (a, w) -> Term.zext (go a) w
  | Expr.Sext (a, w) -> Term.sext (go a) w

(* {1 Post-state observation} *)

let dp_post_value trace (m : Absfun.mapping) =
  let t = Absfun.write_time m in
  match m.Absfun.dp_type with
  | Absfun.Dregister -> Oyster.Symbolic.reg_at trace ~state:t m.Absfun.dp_name
  | Absfun.Doutput -> Oyster.Symbolic.wire_at trace ~cycle:t m.Absfun.dp_name
  | Absfun.Dinput -> fail "%s: input cannot be written" m.Absfun.spec_id
  | Absfun.Dmemory -> fail "use memory path for %s" m.Absfun.spec_id

(* {1 Instruction compilation} *)

let compile_instr (spec : Spec.t) (af : Absfun.t) (trace : Oyster.Symbolic.trace)
    (instr : Spec.instr) : conditions =
  if trace.Oyster.Symbolic.cycles <> af.Absfun.cycles then
    fail "trace evaluated for %d cycles but abstraction function specifies %d"
      trace.Oyster.Symbolic.cycles af.Absfun.cycles;
  let pre = compile_expr spec af trace (Spec.decode_of instr) in
  let assumes =
    Term.conj
      (List.map
         (fun (wire, t) ->
           let v = Oyster.Symbolic.wire_at trace ~cycle:t wire in
           if Term.width v <> 1 then fail "assumed wire %s is not 1 bit" wire;
           v)
         af.Absfun.assumes)
  in
  (* Updated state elements, with simultaneous (pre-state) right-hand sides. *)
  let bv_update name =
    List.find_map
      (function
        | Spec.Ubv (n, e) when n = name -> Some e
        | _ -> None)
      instr.Spec.updates
  in
  let mem_update name =
    List.find_map
      (function
        | Spec.Umem (n, stores) when n = name -> Some stores
        | _ -> None)
      instr.Spec.updates
  in
  (* sanity: every update target is a declared state element *)
  List.iter
    (function
      | Spec.Ubv (n, _) ->
          if not (List.mem_assoc n spec.Spec.bv_states) then
            fail "%s updates unknown bv state %s" instr.Spec.iname n
      | Spec.Umem (n, _) ->
          if not (List.exists (fun (m, _, _) -> m = n) spec.Spec.mem_states) then
            fail "%s updates unknown memory %s" instr.Spec.iname n)
    instr.Spec.updates;
  let posts = ref [] in
  (* bitvector state elements *)
  List.iter
    (fun (name, _w) ->
      let wms = Absfun.write_mappings af name in
      match wms with
      | [] ->
          (* state element the datapath never writes: nothing to assert, but
             the spec must not update it either *)
          if bv_update name <> None then
            fail "%s updates %s but the abstraction function has no write mapping"
              instr.Spec.iname name
      | _ ->
          List.iter
            (fun m ->
              let dp_post = dp_post_value trace m in
              let expected =
                match bv_update name with
                | Some rhs -> compile_expr spec af trace rhs
                | None ->
                    (* frame: unchanged, i.e. equal to its pre-state value *)
                    dp_pre_value trace (Absfun.read_mapping af name ~port:None)
              in
              posts := Term.eq dp_post expected :: !posts)
            wms)
    spec.Spec.bv_states;
  (* memory state elements *)
  let challenges = ref [] in
  List.iter
    (fun (name, _aw, _dw) ->
      let wms = Absfun.write_mappings af name in
      (match (wms, mem_update name) with
      | [], Some _ ->
          fail "%s stores to %s but no datapath memory accepts writes"
            instr.Spec.iname name
      | _ -> ());
      List.iter
        (fun m ->
          let dp_mem = Oyster.Symbolic.mem_of trace m.Absfun.dp_name in
          let chal =
            Term.var
              (Printf.sprintf "%schal!%s!%s" trace.Oyster.Symbolic.prefix
                 m.Absfun.dp_name instr.Spec.iname)
              dp_mem.Term.addr_width
          in
          challenges := (m.Absfun.dp_name, chal) :: !challenges;
          let t = Absfun.write_time m in
          let dp_final =
            Oyster.Symbolic.read_mem_at trace ~state:t m.Absfun.dp_name chal
          in
          let initial = Term.read dp_mem chal in
          let spec_final =
            match mem_update name with
            | None -> initial
            | Some stores ->
                List.fold_left
                  (fun acc (a, d) ->
                    let a = compile_expr spec af trace a in
                    let d = compile_expr spec af trace d in
                    Term.ite (Term.eq a chal) d acc)
                  initial stores
          in
          posts := Term.eq dp_final spec_final :: !posts)
        wms)
    spec.Spec.mem_states;
  {
    instr_name = instr.Spec.iname;
    pre;
    assumes;
    post = Term.conj (List.rev !posts);
    challenges = List.rev !challenges;
  }

let compile spec af trace =
  List.map (compile_instr spec af trace) (Spec.instructions spec)

(* The refinement question of paper §3.3 in its two polarities.  Every
   engine check builds its formula here, so all of them share one term
   shape (and hence one blasting and one search). *)
let violation c = Term.band (Term.band c.pre c.assumes) (Term.bnot c.post)
let correctness c = Term.implies (Term.band c.pre c.assumes) c.post
