(* A PyRTL-flavoured embedded HDL for building Oyster designs.

   The paper's datapath sketches are written in PyRTL; this module plays
   that role: an imperative builder with width-checked signal combinators,
   registers, memories, ROMs and holes.  [finalize] produces a typechecked
   Oyster design (the "PyRTL -> Oyster translation" of paper Fig. 4). *)

exception Hdl_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Hdl_error s)) fmt

type signal = { e : Oyster.Ast.expr; w : int }

type mem = { mem_id : string; maw : int; mdw : int }

type ctx = {
  cname : string;
  mutable decls : Oyster.Ast.decl list;  (* reversed *)
  mutable stmts : Oyster.Ast.stmt list;  (* reversed *)
  mutable names : string list;
  mutable finalized : bool;
}

let create cname = { cname; decls = []; stmts = []; names = []; finalized = false }

let add_decl ctx d =
  let n = Oyster.Ast.decl_name d in
  if List.mem n ctx.names then fail "duplicate name %s" n;
  ctx.names <- n :: ctx.names;
  ctx.decls <- d :: ctx.decls

let add_stmt ctx s = ctx.stmts <- s :: ctx.stmts

let width s = s.w

(* {1 Declarations} *)

let input ctx name w =
  add_decl ctx (Oyster.Ast.Input (name, w));
  { e = Oyster.Ast.Var name; w }

let register ctx name w =
  add_decl ctx (Oyster.Ast.Register (name, w));
  { e = Oyster.Ast.Var name; w }

let memory ctx name ~addr_width ~data_width =
  add_decl ctx (Oyster.Ast.Memory { mem_name = name; addr_width; data_width });
  { mem_id = name; maw = addr_width; mdw = data_width }

let rom ctx name ~addr_width data =
  add_decl ctx (Oyster.Ast.Rom { rom_name = name; rom_addr_width = addr_width; rom_data = data });
  let dw = Bitvec.width data.(0) in
  fun idx ->
    if idx.w <> addr_width then fail "rom %s index width %d, expected %d" name idx.w addr_width;
    { e = Oyster.Ast.RomRead (name, idx.e); w = dw }

let dep_name (s : signal) =
  match s.e with
  | Oyster.Ast.Var n -> n
  | _ -> fail "hole dependencies must be named signals"

let hole ctx ?(kind = Oyster.Ast.Per_instruction) name w ~deps =
  add_decl ctx
    (Oyster.Ast.Hole
       { hole_name = name; hole_width = w; kind; deps = List.map dep_name deps });
  { e = Oyster.Ast.Var name; w }

(* {1 Assignments} *)

let wire ctx name (s : signal) =
  add_decl ctx (Oyster.Ast.Wire (name, s.w));
  add_stmt ctx (Oyster.Ast.Assign (name, s.e));
  { e = Oyster.Ast.Var name; w = s.w }

let output ctx name (s : signal) =
  add_decl ctx (Oyster.Ast.Output (name, s.w));
  add_stmt ctx (Oyster.Ast.Assign (name, s.e))

(* [r <== next] for registers: the register takes [next]'s value at the end
   of each cycle. *)
let set_register ctx (r : signal) (next : signal) =
  if r.w <> next.w then fail "register update width mismatch";
  match r.e with
  | Oyster.Ast.Var n -> add_stmt ctx (Oyster.Ast.Assign (n, next.e))
  | _ -> fail "set_register target must be a register"

let read (m : mem) (addr : signal) =
  if addr.w <> m.maw then fail "read %s: address width %d, expected %d" m.mem_id addr.w m.maw;
  { e = Oyster.Ast.Read (m.mem_id, addr.e); w = m.mdw }

let write ctx (m : mem) ~addr ~data ~enable =
  if addr.w <> m.maw then fail "write %s: address width" m.mem_id;
  if data.w <> m.mdw then fail "write %s: data width" m.mem_id;
  if enable.w <> 1 then fail "write %s: enable width" m.mem_id;
  add_stmt ctx (Oyster.Ast.Write { mem = m.mem_id; addr = addr.e; data = data.e; enable = enable.e })

(* {1 Combinators} *)

let const w n = { e = Oyster.Ast.Const (Bitvec.of_int ~width:w n); w }
let tru = const 1 1
let fls = const 1 0

let binop op a b =
  if a.w <> b.w then fail "width mismatch in binary operation (%d vs %d)" a.w b.w;
  { e = Oyster.Ast.Binop (op, a.e, b.e); w = a.w }

let cmp op a b =
  if a.w <> b.w then fail "width mismatch in comparison (%d vs %d)" a.w b.w;
  { e = Oyster.Ast.Binop (op, a.e, b.e); w = 1 }

let shift op a b = { e = Oyster.Ast.Binop (op, a.e, b.e); w = a.w }

let ( +: ) = binop Oyster.Ast.Add
let ( -: ) = binop Oyster.Ast.Sub
let ( *: ) = binop Oyster.Ast.Mul
let ( &: ) = binop Oyster.Ast.And
let ( |: ) = binop Oyster.Ast.Or
let ( ^: ) = binop Oyster.Ast.Xor
let udiv = binop Oyster.Ast.Udiv
let urem = binop Oyster.Ast.Urem
let sdiv = binop Oyster.Ast.Sdiv
let srem = binop Oyster.Ast.Srem
let clmul = binop Oyster.Ast.Clmul
let clmulh = binop Oyster.Ast.Clmulh
let ( <<: ) = shift Oyster.Ast.Shl
let ( >>: ) = shift Oyster.Ast.Lshr
let ( >>+ ) = shift Oyster.Ast.Ashr
let rol = shift Oyster.Ast.Rol
let ror = shift Oyster.Ast.Ror
let ( ==: ) = cmp Oyster.Ast.Eq
let ( <>: ) = cmp Oyster.Ast.Ne
let ( <: ) = cmp Oyster.Ast.Ult
let ( <=: ) = cmp Oyster.Ast.Ule
let ( >=: ) = cmp Oyster.Ast.Uge
let ( >: ) = cmp Oyster.Ast.Ugt
let ( <+ ) = cmp Oyster.Ast.Slt
let ( <=+ ) = cmp Oyster.Ast.Sle
let ( >=+ ) = cmp Oyster.Ast.Sge
let ( >+ ) = cmp Oyster.Ast.Sgt

let bnot a = { e = Oyster.Ast.Unop (Oyster.Ast.Not, a.e); w = a.w }
let neg a = { e = Oyster.Ast.Unop (Oyster.Ast.Neg, a.e); w = a.w }
let redor a = { e = Oyster.Ast.Unop (Oyster.Ast.RedOr, a.e); w = 1 }
let redand a = { e = Oyster.Ast.Unop (Oyster.Ast.RedAnd, a.e); w = 1 }
let redxor a = { e = Oyster.Ast.Unop (Oyster.Ast.RedXor, a.e); w = 1 }

let mux c a b =
  if c.w <> 1 then fail "mux condition must be 1 bit";
  if a.w <> b.w then fail "mux arms of widths %d and %d" a.w b.w;
  { e = Oyster.Ast.Ite (c.e, a.e, b.e); w = a.w }

(* [select sel cases default]: compares [sel] against each constant case. *)
let select sel (cases : (int * signal) list) default =
  List.fold_right
    (fun (k, v) acc -> mux (cmp Oyster.Ast.Eq sel (const sel.w k)) v acc)
    cases default

let bits ~high ~low a =
  if low < 0 || high < low || high >= a.w then
    fail "bits [%d:%d] of width-%d signal" high low a.w;
  { e = Oyster.Ast.Extract (high, low, a.e); w = high - low + 1 }

let bit i a = bits ~high:i ~low:i a
let msb a = bit (a.w - 1) a

let concat hi lo = { e = Oyster.Ast.Concat (hi.e, lo.e); w = hi.w + lo.w }

let concat_all = function
  | [] -> fail "concat_all: empty"
  | s :: rest -> List.fold_left (fun acc x -> concat acc x) s rest

let zext a w' =
  if w' < a.w then fail "zext to narrower width";
  if w' = a.w then a else { e = Oyster.Ast.Zext (a.e, w'); w = w' }

let sext a w' =
  if w' < a.w then fail "sext to narrower width";
  if w' = a.w then a else { e = Oyster.Ast.Sext (a.e, w'); w = w' }

(* {1 Finalization} *)

let finalize ctx =
  if ctx.finalized then fail "design %s already finalized" ctx.cname;
  ctx.finalized <- true;
  let design =
    {
      Oyster.Ast.name = ctx.cname;
      decls = List.rev ctx.decls;
      stmts = List.rev ctx.stmts;
    }
  in
  ignore (Oyster.Typecheck.check design);
  design
