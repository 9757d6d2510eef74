(* The instruction-independence property (paper §3.3.1), whose two
   conditions license per-instruction synthesis + control union:

   1. Mutually exclusive preconditions: one at-most-one formula over the
      compiled decode terms, which the engine poses as one laddered
      query; a witness names the instructions that decode together.

   2. No feedback in control logic: a static reachability check on the
      sketch — no hole's output may combinationally reach another hole's
      declared dependency wires, except through wires whitelisted by the
      abstraction function's assumptions (valid/flush signals). *)

let decodes (c : Ila.Conditions.conditions) =
  Term.band c.Ila.Conditions.pre c.Ila.Conditions.assumes

(* A sequential counter: [seen] is "some earlier instruction decodes", and
   instruction i overlaps when it decodes too.  O(n) terms where the
   pairwise formula has n(n-1)/2. *)
let exclusion_violation conds =
  let _, overlaps =
    List.fold_left
      (fun (seen, acc) c ->
        let p = decodes c in
        (Term.bor seen p, Term.band seen p :: acc))
      (Term.fls, []) conds
  in
  Term.disj (List.rev overlaps)

let co_decoding env conds =
  let rec pairs = function
    | [] -> []
    | a :: rest -> List.map (fun b -> (a, b)) rest @ pairs rest
  in
  pairs
    (List.filter_map
       (fun (c : Ila.Conditions.conditions) ->
         if Bitvec.is_ones (Term.eval env (decodes c)) then
           Some c.Ila.Conditions.instr_name
         else None)
       conds)

type feedback_report = {
  (* hole h feeds wire w which hole h' depends on *)
  feedback_paths : (string * string * string) list;
}

let path_to_string (src, wire, dst) =
  Printf.sprintf "hole %s -> wire %s -> hole %s" src wire dst

let check_no_feedback ?(allowed_cuts = []) (design : Oyster.Ast.design) :
    feedback_report =
  let holes = Oyster.Ast.holes design in
  let hole_names = List.map (fun h -> h.Oyster.Ast.hole_name) holes in
  (* combinational taint: for each wire/output, the set of holes it depends
     on transitively (registers and memories break the cycle boundary; cut
     wires break the taint) *)
  let taint : (string, string list) Hashtbl.t = Hashtbl.create 32 in
  List.iter (fun h -> Hashtbl.replace taint h [ h ]) hole_names;
  let taint_of name =
    if List.mem name allowed_cuts then []
    else Option.value (Hashtbl.find_opt taint name) ~default:[]
  in
  List.iter
    (fun stmt ->
      match stmt with
      | Oyster.Ast.Assign (name, e) -> (
          match Oyster.Ast.find_decl design name with
          | Some (Oyster.Ast.Wire _ | Oyster.Ast.Output _) ->
              let t =
                List.concat_map taint_of (Oyster.Ast.expr_vars e)
                |> List.sort_uniq String.compare
              in
              Hashtbl.replace taint name t
          | _ -> () (* registers break combinational feedback *))
      | Oyster.Ast.Write _ -> ())
    design.Oyster.Ast.stmts;
  let feedback_paths = ref [] in
  List.iter
    (fun (h : Oyster.Ast.hole_decl) ->
      List.iter
        (fun dep ->
          List.iter
            (fun source ->
              feedback_paths := (source, dep, h.Oyster.Ast.hole_name) :: !feedback_paths)
            (taint_of dep))
        h.Oyster.Ast.deps)
    holes;
  { feedback_paths = List.rev !feedback_paths }
