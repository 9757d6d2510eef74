(* The instruction-independence property (paper §3.3.1), whose two
   conditions license per-instruction synthesis + control union:

   1. Mutually exclusive preconditions: decided with the SMT solver on the
      compiled decode terms, pairwise.

   2. No feedback in control logic: a static reachability check on the
      sketch — no hole's output may combinationally reach another hole's
      declared dependency wires, except through wires whitelisted by the
      abstraction function's assumptions (valid/flush signals). *)

type exclusion_report = {
  overlapping : (string * string) list;  (* pairs that can decode together *)
  undecided : (string * string) list;  (* solver budget exhausted *)
}

let check_mutual_exclusion ?(budget = max_int)
    (conds : Ila.Conditions.conditions list) : exclusion_report =
  let overlapping = ref [] and undecided = ref [] in
  let arr = Array.of_list conds in
  for i = 0 to Array.length arr - 1 do
    for j = i + 1 to Array.length arr - 1 do
      let ci = arr.(i) and cj = arr.(j) in
      match
        Solver.check ~budget
          [ ci.Ila.Conditions.pre; ci.Ila.Conditions.assumes;
            cj.Ila.Conditions.pre; cj.Ila.Conditions.assumes ]
      with
      | Solver.Unsat _ -> ()
      | Solver.Sat _ ->
          overlapping :=
            (ci.Ila.Conditions.instr_name, cj.Ila.Conditions.instr_name)
            :: !overlapping
      | Solver.Unknown _ ->
          undecided :=
            (ci.Ila.Conditions.instr_name, cj.Ila.Conditions.instr_name)
            :: !undecided
    done
  done;
  { overlapping = List.rev !overlapping; undecided = List.rev !undecided }

type feedback_report = {
  (* hole h feeds wire w which hole h' depends on *)
  feedback_paths : (string * string * string) list;
}

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

let independent ?budget ~allowed_cuts design conds =
  let excl = check_mutual_exclusion ?budget conds in
  let fb = check_no_feedback ~allowed_cuts design in
  (excl, fb, excl.overlapping = [] && fb.feedback_paths = [])
