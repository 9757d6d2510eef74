(* PyRTL-style rendering of control logic (paper Fig. 7).

   The toolchain's final output in the paper is PyRTL code; we render the
   synthesized control the same way — one [with <precondition>:] block per
   instruction with one conditional assignment per control signal — and the
   hand-written reference control as plain combinational assignments.  The
   line counts of these renderings are the "HDL Control Logic" size measure
   of Table 2. *)

let rec pp_expr fmt (e : Oyster.Ast.expr) =
  let bin name a b = Format.fprintf fmt "(%a %s %a)" pp_expr a name pp_expr b in
  match e with
  | Oyster.Ast.Var n -> Format.pp_print_string fmt n
  | Oyster.Ast.Const v ->
      if Bitvec.width v = 1 then
        Format.pp_print_string fmt (if Bitvec.is_zero v then "0" else "1")
      else Format.fprintf fmt "0x%s"
        (let s = Bitvec.to_string v in
         match String.index_opt s 'x' with
         | Some i -> String.sub s (i + 1) (String.length s - i - 1)
         | None -> s)
  | Oyster.Ast.Unop (Oyster.Ast.Not, a) -> Format.fprintf fmt "~%a" pp_expr a
  | Oyster.Ast.Unop (Oyster.Ast.Neg, a) -> Format.fprintf fmt "-%a" pp_expr a
  | Oyster.Ast.Unop (Oyster.Ast.RedOr, a) -> Format.fprintf fmt "or_all_bits(%a)" pp_expr a
  | Oyster.Ast.Unop (Oyster.Ast.RedAnd, a) -> Format.fprintf fmt "and_all_bits(%a)" pp_expr a
  | Oyster.Ast.Unop (Oyster.Ast.RedXor, a) -> Format.fprintf fmt "xor_all_bits(%a)" pp_expr a
  | Oyster.Ast.Binop (op, a, b) -> (
      match op with
      | Oyster.Ast.And -> bin "&" a b
      | Oyster.Ast.Or -> bin "|" a b
      | Oyster.Ast.Xor -> bin "^" a b
      | Oyster.Ast.Add -> bin "+" a b
      | Oyster.Ast.Sub -> bin "-" a b
      | Oyster.Ast.Mul -> bin "*" a b
      | Oyster.Ast.Udiv -> bin "//" a b
      | Oyster.Ast.Urem -> bin "%" a b
      | Oyster.Ast.Sdiv ->
          Format.fprintf fmt "signed_div(%a, %a)" pp_expr a pp_expr b
      | Oyster.Ast.Srem ->
          Format.fprintf fmt "signed_rem(%a, %a)" pp_expr a pp_expr b
      | Oyster.Ast.Clmul -> Format.fprintf fmt "clmul(%a, %a)" pp_expr a pp_expr b
      | Oyster.Ast.Clmulh -> Format.fprintf fmt "clmulh(%a, %a)" pp_expr a pp_expr b
      | Oyster.Ast.Shl -> bin "<<" a b
      | Oyster.Ast.Lshr -> bin ">>" a b
      | Oyster.Ast.Ashr -> bin ">>>" a b
      | Oyster.Ast.Rol -> Format.fprintf fmt "rol(%a, %a)" pp_expr a pp_expr b
      | Oyster.Ast.Ror -> Format.fprintf fmt "ror(%a, %a)" pp_expr a pp_expr b
      | Oyster.Ast.Eq -> bin "==" a b
      | Oyster.Ast.Ne -> bin "!=" a b
      | Oyster.Ast.Ult -> bin "<" a b
      | Oyster.Ast.Ule -> bin "<=" a b
      | Oyster.Ast.Ugt -> bin ">" a b
      | Oyster.Ast.Uge -> bin ">=" a b
      | Oyster.Ast.Slt -> Format.fprintf fmt "signed_lt(%a, %a)" pp_expr a pp_expr b
      | Oyster.Ast.Sle -> Format.fprintf fmt "signed_le(%a, %a)" pp_expr a pp_expr b
      | Oyster.Ast.Sgt -> Format.fprintf fmt "signed_gt(%a, %a)" pp_expr a pp_expr b
      | Oyster.Ast.Sge -> Format.fprintf fmt "signed_ge(%a, %a)" pp_expr a pp_expr b)
  | Oyster.Ast.Ite (c, a, b) ->
      Format.fprintf fmt "mux(%a, falsecase=%a, truecase=%a)" pp_expr c pp_expr b pp_expr a
  | Oyster.Ast.Extract (h, l, a) -> Format.fprintf fmt "%a[%d:%d]" pp_expr a l (h + 1)
  | Oyster.Ast.Concat (a, b) ->
      Format.fprintf fmt "concat(%a, %a)" pp_expr a pp_expr b
  | Oyster.Ast.Zext (a, w) -> Format.fprintf fmt "%a.zero_extended(%d)" pp_expr a w
  | Oyster.Ast.Sext (a, w) -> Format.fprintf fmt "%a.sign_extended(%d)" pp_expr a w
  | Oyster.Ast.Read (m, a) -> Format.fprintf fmt "%s[%a]" m pp_expr a
  | Oyster.Ast.RomRead (r, a) -> Format.fprintf fmt "%s[%a]" r pp_expr a

let expr_to_string e = Format.asprintf "%a" pp_expr e

(* {1 Generated control (per-instruction conditional blocks)} *)

let pp_generated fmt ~(pre_exprs : (string * Oyster.Ast.expr) list)
    ~(per_instr : (string * (string * Bitvec.t) list) list)
    ~(shared : (string * Bitvec.t) list) =
  Format.fprintf fmt "with conditional_assignment:@\n";
  List.iter
    (fun (iname, holes) ->
      let pre =
        match List.assoc_opt iname pre_exprs with
        | Some e -> expr_to_string e
        | None -> "<" ^ iname ^ ">"
      in
      Format.fprintf fmt "    with %s:  # %s@\n" pre iname;
      List.iter
        (fun (h, v) ->
          Format.fprintf fmt "        %s |= %s@\n" h
            (expr_to_string (Oyster.Ast.Const v)))
        holes)
    per_instr;
  List.iter
    (fun (h, v) ->
      Format.fprintf fmt "%s <<= %s@\n" h (expr_to_string (Oyster.Ast.Const v)))
    shared

let generated_to_string ~pre_exprs ~per_instr ~shared =
  Format.asprintf "%t" (fun fmt -> pp_generated fmt ~pre_exprs ~per_instr ~shared)

(* {1 Reference control (plain combinational assignments)} *)

let count_lines s =
  List.length (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s))

let generated_loc ~pre_exprs ~per_instr ~shared =
  count_lines (generated_to_string ~pre_exprs ~per_instr ~shared)

(* A hand-written decoder in PyRTL is one conditional-assignment line per
   case; structurally that is one line per if-then-else node plus the
   assignment itself, which is how we count the reference control size. *)
let bindings_loc bindings =
  let rec ites (e : Oyster.Ast.expr) =
    match e with
    | Oyster.Ast.Var _ | Oyster.Ast.Const _ -> 0
    | Oyster.Ast.Unop (_, a)
    | Oyster.Ast.Extract (_, _, a)
    | Oyster.Ast.Zext (a, _)
    | Oyster.Ast.Sext (a, _)
    | Oyster.Ast.Read (_, a)
    | Oyster.Ast.RomRead (_, a) -> ites a
    | Oyster.Ast.Binop (_, a, b) | Oyster.Ast.Concat (a, b) -> ites a + ites b
    | Oyster.Ast.Ite (c, a, b) -> 1 + ites c + ites a + ites b
  in
  List.fold_left (fun acc (_, e) -> acc + 1 + ites e) 0 bindings
