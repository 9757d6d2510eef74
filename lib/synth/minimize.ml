(* Don't-care minimization of synthesized control — the paper's §5.3
   future-work direction ("generate HDL code that is correct and also
   optimal with respect to some objective function").

   Per-instruction synthesis assigns every hole a concrete value for every
   instruction, including holes the instruction does not constrain (for
   ADD, the branch comparator select is a don't-care).  The control union
   then splits value groups unnecessarily, inflating both the generated
   HDL and the synthesized circuit.

   This pass shrinks the result: per hole, instructions are greedily moved
   into the most popular value group whenever re-verification proves the
   changed value still satisfies that instruction's correctness condition.
   Each check is one (small) UNSAT query, so the pass stays cheap relative
   to synthesis, and the result is still correct by construction — every
   adopted value is verified, never assumed. *)

type stats = {
  mutable checks : int;
  mutable merged : int;  (* (instruction, hole) pairs moved to a shared value *)
  mutable wall_seconds : float;
}

type result = { solved : Engine.solved; minimize_stats : stats }

let popular_value values =
  (* most frequent Bitvec in a non-empty list; ties break to the first seen *)
  let count v = List.length (List.filter (Bitvec.equal v) values) in
  fst
    (List.fold_left
       (fun (bv, bn) v ->
         let n = count v in
         if n > bn then (v, n) else (bv, bn))
       (List.hd values, 0) values)

let run (problem : Engine.problem) (solved : Engine.solved) : result =
  let t0 = Unix.gettimeofday () in
  let stats = { checks = 0; merged = 0; wall_seconds = 0.0 } in
  let check = Engine.checker problem in
  (* mutable copy of the per-instruction assignments *)
  let assignment : (string, (string, Bitvec.t) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 64
  in
  List.iter
    (fun (iname, holes) ->
      let tbl = Hashtbl.create 16 in
      List.iter (fun (h, v) -> Hashtbl.replace tbl h v) holes;
      Hashtbl.replace assignment iname tbl)
    solved.Engine.per_instr;
  let hole_names =
    match solved.Engine.per_instr with
    | (_, holes) :: _ -> List.map fst holes
    | [] -> []
  in
  (* the instruction's current hole values, plus the shared ones *)
  let verifies iname =
    let tbl = Hashtbl.find assignment iname in
    let holes =
      List.map (fun h -> (h, Hashtbl.find tbl h)) hole_names
      @ solved.Engine.shared
    in
    stats.checks <- stats.checks + 1;
    match check ~instr:iname ~holes with
    | Engine.Verified -> true
    | Engine.Violated _ | Engine.Inconclusive -> false
  in
  let instr_names = List.map fst solved.Engine.per_instr in
  List.iter
    (fun h ->
      let target =
        popular_value
          (List.map (fun i -> Hashtbl.find (Hashtbl.find assignment i) h) instr_names)
      in
      List.iter
        (fun i ->
          let tbl = Hashtbl.find assignment i in
          let current = Hashtbl.find tbl h in
          if not (Bitvec.equal current target) then begin
            Hashtbl.replace tbl h target;
            if verifies i then stats.merged <- stats.merged + 1
            else Hashtbl.replace tbl h current (* revert *)
          end)
        instr_names)
    hole_names;
  (* rebuild the completed design through the same union path *)
  let per_instr =
    List.map
      (fun i ->
        let tbl = Hashtbl.find assignment i in
        (i, List.map (fun h -> (h, Hashtbl.find tbl h)) hole_names))
      instr_names
  in
  let completed, bindings =
    Union.apply problem.Engine.design ~pre_exprs:solved.Engine.pre_exprs
      ~shared:solved.Engine.shared ~per_instr
  in
  stats.wall_seconds <- Unix.gettimeofday () -. t0;
  {
    solved = { solved with Engine.completed; bindings; per_instr };
    minimize_stats = stats;
  }
