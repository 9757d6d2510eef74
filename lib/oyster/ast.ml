(* The Oyster intermediate representation (paper Fig. 5, plus the extra
   bitvector operators §3.1 alludes to).

   An Oyster design is a synchronous machine with a single implicit clock:
   statements execute in order every cycle; assignments to wires and outputs
   are combinational and take effect immediately, assignments to registers
   and memory writes take effect at the next cycle. *)

type unop =
  | Not  (* bitwise complement *)
  | Neg  (* two's complement negation *)
  | RedOr  (* 1-bit or-reduction *)
  | RedAnd  (* 1-bit and-reduction *)
  | RedXor  (* 1-bit xor-reduction (parity) *)

type binop =
  | And
  | Or
  | Xor
  | Add
  | Sub
  | Mul
  | Udiv
  | Urem
  | Sdiv
  | Srem
  | Clmul
  | Clmulh
  | Shl
  | Lshr
  | Ashr
  | Rol
  | Ror
  | Eq
  | Ne
  | Ult
  | Ule
  | Ugt
  | Uge
  | Slt
  | Sle
  | Sgt
  | Sge

type expr =
  | Var of string
  | Const of Bitvec.t
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Ite of expr * expr * expr
  | Extract of int * int * expr  (* high, low *)
  | Concat of expr * expr  (* high part first *)
  | Zext of expr * int
  | Sext of expr * int
  | Read of string * expr  (* memory read at current state *)
  | RomRead of string * expr  (* lookup in a read-only table *)

type stmt =
  | Assign of string * expr
      (* wire/output: combinational; register: next-cycle value *)
  | Write of { mem : string; addr : expr; data : expr; enable : expr }

(* How a hole participates in synthesis (see DESIGN.md §5 and paper §3.3.1):
   [Per_instruction] holes get an independent constant per specification
   instruction, joined afterwards by the control-union; [Shared] holes (e.g.
   FSM state encodings) get a single constant that all instructions agree
   on. *)
type hole_kind = Per_instruction | Shared

type mem_decl = { mem_name : string; addr_width : int; data_width : int }
type rom_decl = { rom_name : string; rom_addr_width : int; rom_data : Bitvec.t array }

type hole_decl = {
  hole_name : string;
  hole_width : int;
  kind : hole_kind;
  deps : string list;
      (* the signals the synthesized control logic may depend on
         (the arguments of [??(...)] in the paper's sketches) *)
}

type decl =
  | Input of string * int
  | Output of string * int
  | Wire of string * int
  | Register of string * int
  | Memory of mem_decl
  | Rom of rom_decl
  | Hole of hole_decl

type design = { name : string; decls : decl list; stmts : stmt list }

let decl_name = function
  | Input (n, _) | Output (n, _) | Wire (n, _) | Register (n, _) -> n
  | Memory { mem_name; _ } -> mem_name
  | Rom { rom_name; _ } -> rom_name
  | Hole { hole_name; _ } -> hole_name

let find_decl design name =
  List.find_opt (fun d -> String.equal (decl_name d) name) design.decls

let holes design =
  List.filter_map (function Hole h -> Some h | _ -> None) design.decls

let registers design =
  List.filter_map (function Register (n, w) -> Some (n, w) | _ -> None) design.decls

let memories design =
  List.filter_map
    (function
      | Memory { mem_name; addr_width; data_width } ->
          Some (mem_name, addr_width, data_width)
      | _ -> None)
    design.decls

let inputs design =
  List.filter_map (function Input (n, w) -> Some (n, w) | _ -> None) design.decls

let outputs design =
  List.filter_map (function Output (n, w) -> Some (n, w) | _ -> None) design.decls

let wires design =
  List.filter_map (function Wire (n, w) -> Some (n, w) | _ -> None) design.decls

let roms design =
  List.filter_map (function Rom r -> Some r | _ -> None) design.decls

(* {1 Expression traversal} *)

let rec fold_expr f acc e =
  let acc = f acc e in
  match e with
  | Var _ | Const _ -> acc
  | Unop (_, a) | Extract (_, _, a) | Zext (a, _) | Sext (a, _) -> fold_expr f acc a
  | Binop (_, a, b) | Concat (a, b) -> fold_expr f (fold_expr f acc a) b
  | Ite (c, a, b) -> fold_expr f (fold_expr f (fold_expr f acc c) a) b
  | Read (_, a) | RomRead (_, a) -> fold_expr f acc a

let expr_vars e =
  fold_expr (fun acc e -> match e with Var v -> v :: acc | _ -> acc) [] e
  |> List.sort_uniq String.compare

(* {1 Substitution of holes by expressions}

   [fill_holes design bindings] replaces each bound hole declaration by a
   wire declaration plus an assignment, inserted at the earliest point where
   all variables of the binding expression are available.  Unbound holes
   remain.  The result should be re-typechecked by the caller. *)

(* [schedule design] reorders statements into a valid combinational
   evaluation order: every wire/output assignment is placed after the
   assignments of all wires it reads, and all sequential statements
   (register assignments and memory writes) follow the combinational ones,
   keeping their relative order.  Raises [Invalid_argument] on
   combinational cycles.  Used after hole filling, where inserted
   definitions may reference wires that appear late in the original
   order. *)
let schedule design =
  let is_comb name =
    match find_decl design name with
    | Some (Wire _ | Output _) -> true
    | _ -> false
  in
  let comb, seq =
    List.partition
      (fun stmt ->
        match stmt with Assign (n, _) -> is_comb n | Write _ -> false)
      design.stmts
  in
  (* Kahn's algorithm, preferring original order (stable). *)
  let defined = Hashtbl.create 32 in
  List.iter
    (fun d ->
      match d with
      | Input (n, _) | Register (n, _) -> Hashtbl.replace defined n ()
      | Hole { hole_name; _ } -> Hashtbl.replace defined hole_name ()
      | _ -> ())
    design.decls;
  let remaining = ref comb in
  let out = ref [] in
  let progress = ref true in
  while !remaining <> [] && !progress do
    progress := false;
    let ready, blocked =
      List.partition
        (fun stmt ->
          match stmt with
          | Assign (_, e) ->
              List.for_all
                (fun v -> Hashtbl.mem defined v || not (is_comb v))
                (expr_vars e)
          | Write _ -> assert false)
        !remaining
    in
    if ready <> [] then begin
      progress := true;
      List.iter
        (fun stmt ->
          match stmt with
          | Assign (n, _) -> Hashtbl.replace defined n ()
          | Write _ -> ())
        ready;
      out := List.rev_append ready !out;
      remaining := blocked
    end
  done;
  if !remaining <> [] then
    invalid_arg
      (Printf.sprintf "Ast.schedule: combinational cycle through %s"
         (String.concat ", "
            (List.filter_map
               (function Assign (n, _) -> Some n | Write _ -> None)
               !remaining)));
  { design with stmts = List.rev !out @ seq }

(* [insert_wires design defs] adds fresh wire declarations and places their
   assignments at the earliest point where all referenced variables are
   defined (same placement logic as [fill_holes]). *)
let insert_wires design (defs : (string * int * expr) list) =
  let decls = design.decls @ List.map (fun (n, w, _) -> Wire (n, w)) defs in
  let initially_defined =
    List.filter_map
      (function
        | Input (n, _) | Register (n, _) -> Some n
        | Hole { hole_name; _ } -> Some hole_name
        | _ -> None)
      design.decls
  in
  let pending = ref (List.map (fun (n, _, e) -> (n, e)) defs) in
  let emit defined =
    (* iterate: a ready definition may enable another *)
    let rec settle defined acc =
      let ready, rest =
        List.partition
          (fun (_, e) -> List.for_all (fun v -> List.mem v defined) (expr_vars e))
          !pending
      in
      pending := rest;
      match ready with
      | [] -> (List.rev acc, defined)
      | _ ->
          settle
            (List.map fst ready @ defined)
            (List.rev_append (List.map (fun (n, e) -> Assign (n, e)) ready) acc)
    in
    settle defined []
  in
  let rec go defined = function
    | [] -> []
    | stmt :: rest ->
        let defined =
          match stmt with Assign (n, _) -> n :: defined | Write _ -> defined
        in
        let inserted, defined = emit defined in
        (stmt :: inserted) @ go defined rest
  in
  let head, defined0 = emit initially_defined in
  let stmts = head @ go defined0 design.stmts in
  if !pending <> [] then
    invalid_arg
      (Printf.sprintf "Ast.insert_wires: unplaceable definitions for %s"
         (String.concat ", " (List.map fst !pending)));
  { design with decls; stmts }

let fill_holes design (bindings : (string * expr) list) =
  let bound = List.map fst bindings in
  let decls =
    List.map
      (fun d ->
        match d with
        | Hole { hole_name; hole_width; _ } when List.mem hole_name bound ->
            Wire (hole_name, hole_width)
        | d -> d)
      design.decls
  in
  (* Names available before any statement runs. *)
  let initially_defined =
    List.filter_map
      (function
        | Input (n, _) | Register (n, _) -> Some n
        | Hole { hole_name; _ } when not (List.mem hole_name bound) -> Some hole_name
        | _ -> None)
      design.decls
  in
  (* Insert each hole assignment once its dependencies are all defined. *)
  let pending = ref bindings in
  let emit defined =
    let ready, rest =
      List.partition
        (fun (_, e) ->
          List.for_all (fun v -> List.mem v defined) (expr_vars e))
        !pending
    in
    pending := rest;
    List.map (fun (n, e) -> Assign (n, e)) ready
  in
  let rec go defined = function
    | [] -> []
    | stmt :: rest ->
        let defined' =
          match stmt with Assign (n, _) -> n :: defined | Write _ -> defined
        in
        let inserted = emit defined' in
        (stmt :: inserted) @ go defined' rest
  in
  let head = emit initially_defined in
  let stmts = head @ go initially_defined design.stmts in
  if !pending <> [] then
    invalid_arg
      (Printf.sprintf "Ast.fill_holes: unplaceable bindings for %s"
         (String.concat ", " (List.map fst !pending)));
  { design with decls; stmts }
