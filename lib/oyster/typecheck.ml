(* Static checks for Oyster designs:

   - declaration names are unique; widths are positive
   - every expression is well-typed (widths agree; conditions are 1 bit)
   - wires and outputs are assigned exactly once, before any use
   - registers are assigned at most once per cycle (statically: one Assign)
   - inputs, holes, memories and ROMs are never Assign targets
   - memory reads/writes and ROM reads name declared components
   - ROM data length matches 2^addr_width

   [check] raises [Type_error] with a located message.  [expr_width] is the
   shared width calculator, also used by the interpreters. *)

exception Type_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Type_error s)) fmt

type kind =
  | Kinput
  | Koutput
  | Kwire
  | Kregister
  | Kmemory of int * int  (* addr, data *)
  | Krom of int * int
  | Khole

type env = { kinds : (string, kind * int) Hashtbl.t }
(* width slot: for memories/roms it is the data width *)

let env_of_design (d : Ast.design) =
  let kinds = Hashtbl.create 64 in
  List.iter
    (fun decl ->
      let name = Ast.decl_name decl in
      if Hashtbl.mem kinds name then fail "duplicate declaration of %s" name;
      let entry =
        match decl with
        | Ast.Input (_, w) -> (Kinput, w)
        | Ast.Output (_, w) -> (Koutput, w)
        | Ast.Wire (_, w) -> (Kwire, w)
        | Ast.Register (_, w) -> (Kregister, w)
        | Ast.Memory { addr_width; data_width; _ } ->
            (Kmemory (addr_width, data_width), data_width)
        | Ast.Rom { rom_addr_width; rom_data; _ } ->
            if Array.length rom_data = 0 then fail "rom %s is empty" name;
            if Array.length rom_data <> 1 lsl rom_addr_width then
              fail "rom %s has %d entries, expected %d" name
                (Array.length rom_data) (1 lsl rom_addr_width);
            let dw = Bitvec.width rom_data.(0) in
            Array.iter
              (fun v ->
                if Bitvec.width v <> dw then
                  fail "rom %s entries have mixed widths" name)
              rom_data;
            (Krom (rom_addr_width, dw), dw)
        | Ast.Hole { hole_width; _ } -> (Khole, hole_width)
      in
      let w = snd entry in
      if w < 1 then fail "%s has width %d < 1" name w;
      (match decl with
      | Ast.Memory { addr_width; _ } ->
          if addr_width < 1 then fail "%s has address width < 1" name
      | Ast.Rom { rom_addr_width; _ } ->
          if rom_addr_width < 1 then fail "%s has address width < 1" name
      | _ -> ());
      Hashtbl.add kinds name entry)
    d.decls;
  { kinds }

(* [defined] tracks wires/outputs that have been assigned so far. *)
let rec expr_width env defined (e : Ast.expr) =
  match e with
  | Ast.Const v -> Bitvec.width v
  | Ast.Var name -> (
      match Hashtbl.find_opt env.kinds name with
      | None -> fail "undeclared variable %s" name
      | Some (kind, w) -> (
          match kind with
          | Kinput | Kregister | Khole -> w
          | Kwire | Koutput ->
              if not (List.mem name !defined) then
                fail "%s read before assignment" name;
              w
          | Kmemory _ -> fail "memory %s used as a variable" name
          | Krom _ -> fail "rom %s used as a variable" name))
  | Ast.Unop (op, a) -> (
      let w = expr_width env defined a in
      match op with
      | Ast.Not | Ast.Neg -> w
      | Ast.RedOr | Ast.RedAnd | Ast.RedXor -> 1)
  | Ast.Binop (op, a, b) -> (
      let wa = expr_width env defined a and wb = expr_width env defined b in
      match op with
      | Ast.Shl | Ast.Lshr | Ast.Ashr | Ast.Rol | Ast.Ror ->
          (* shift amounts may have any width *)
          wa
      | Ast.Eq | Ast.Ne | Ast.Ult | Ast.Ule | Ast.Ugt | Ast.Uge | Ast.Slt
      | Ast.Sle | Ast.Sgt | Ast.Sge ->
          if wa <> wb then fail "comparison of widths %d and %d" wa wb;
          1
      | _ ->
          if wa <> wb then fail "binop on widths %d and %d" wa wb;
          wa)
  | Ast.Ite (c, a, b) ->
      if expr_width env defined c <> 1 then fail "ite condition is not 1 bit";
      let wa = expr_width env defined a and wb = expr_width env defined b in
      if wa <> wb then fail "ite branches of widths %d and %d" wa wb;
      wa
  | Ast.Extract (high, low, a) ->
      let w = expr_width env defined a in
      if low < 0 || high < low || high >= w then
        fail "extract [%d:%d] out of width %d" high low w;
      high - low + 1
  | Ast.Concat (a, b) -> expr_width env defined a + expr_width env defined b
  | Ast.Zext (a, w) | Ast.Sext (a, w) ->
      let wa = expr_width env defined a in
      if w < wa then fail "extension to narrower width %d < %d" w wa;
      w
  | Ast.Read (m, addr) -> (
      match Hashtbl.find_opt env.kinds m with
      | Some (Kmemory (aw, dw), _) ->
          if expr_width env defined addr <> aw then
            fail "read of %s with address width %d, expected %d" m
              (expr_width env defined addr) aw;
          dw
      | Some _ -> fail "%s is not a memory" m
      | None -> fail "undeclared memory %s" m)
  | Ast.RomRead (r, addr) -> (
      match Hashtbl.find_opt env.kinds r with
      | Some (Krom (aw, dw), _) ->
          if expr_width env defined addr <> aw then
            fail "rom read of %s with wrong address width" r;
          dw
      | Some _ -> fail "%s is not a rom" r
      | None -> fail "undeclared rom %s" r)

let check (d : Ast.design) =
  let env = env_of_design d in
  let defined = ref [] in
  let assigned_regs = ref [] in
  List.iter
    (fun stmt ->
      match stmt with
      | Ast.Assign (name, e) -> (
          let we = expr_width env defined e in
          match Hashtbl.find_opt env.kinds name with
          | None -> fail "assignment to undeclared %s" name
          | Some (kind, w) -> (
              if we <> w then
                fail "assignment to %s of width %d with expression of width %d"
                  name w we;
              match kind with
              | Kwire | Koutput ->
                  if List.mem name !defined then fail "%s assigned twice" name;
                  defined := name :: !defined
              | Kregister ->
                  if List.mem name !assigned_regs then
                    fail "register %s assigned twice" name;
                  assigned_regs := name :: !assigned_regs
              | Kinput -> fail "assignment to input %s" name
              | Khole -> fail "assignment to hole %s" name
              | Kmemory _ -> fail "assignment to memory %s (use write)" name
              | Krom _ -> fail "assignment to rom %s" name))
      | Ast.Write { mem; addr; data; enable } -> (
          match Hashtbl.find_opt env.kinds mem with
          | Some (Kmemory (aw, dw), _) ->
              if expr_width env defined addr <> aw then
                fail "write to %s with wrong address width" mem;
              if expr_width env defined data <> dw then
                fail "write to %s with wrong data width" mem;
              if expr_width env defined enable <> 1 then
                fail "write enable for %s is not 1 bit" mem;
              ()
          | Some _ -> fail "%s is not a memory" mem
          | None -> fail "undeclared memory %s" mem))
    d.stmts;
  (* every wire and output must be assigned *)
  List.iter
    (fun decl ->
      match decl with
      | Ast.Wire (n, _) | Ast.Output (n, _) ->
          if not (List.mem n !defined) then fail "%s is never assigned" n
      | _ -> ())
    d.decls;
  env
