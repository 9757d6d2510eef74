(* Tests for the CDCL SAT solver: random CNFs cross-checked against a
   brute-force oracle, pigeonhole instances, assumptions, incrementality,
   budget behaviour, and the restarts, clause deletion and phase saving
   the core runs during search. *)

(* {1 Brute-force oracle} *)

let brute_force nvars clauses =
  let sat = ref false in
  let n = 1 lsl nvars in
  let assignment = Array.make (nvars + 1) false in
  let i = ref 0 in
  while (not !sat) && !i < n do
    for v = 1 to nvars do
      assignment.(v) <- (!i lsr (v - 1)) land 1 = 1
    done;
    let ok =
      List.for_all
        (fun c ->
          List.exists (fun l -> assignment.(abs l) = (l > 0)) c)
        clauses
    in
    if ok then sat := true;
    incr i
  done;
  !sat

let model_satisfies s clauses =
  List.for_all
    (fun c -> List.exists (fun l -> Sat.value s (abs l) = (l > 0)) c)
    clauses

let mk_solver nvars clauses =
  let s = Sat.create () in
  for _ = 1 to nvars do
    ignore (Sat.new_var s)
  done;
  List.iter (Sat.add_clause s) clauses;
  s

(* {1 Random CNF property} *)

let gen_cnf =
  QCheck.Gen.(
    2 -- 12 >>= fun nvars ->
    0 -- 60 >>= fun nclauses ->
    let gen_lit =
      pair (1 -- nvars) bool >>= fun (v, s) -> return (if s then v else -v)
    in
    let gen_clause = list_size (1 -- 4) gen_lit in
    list_size (return nclauses) gen_clause >>= fun clauses ->
    return (nvars, clauses))

let arb_cnf =
  QCheck.make gen_cnf ~print:(fun (n, cs) ->
      Printf.sprintf "nvars=%d %s" n
        (String.concat " "
           (List.map
              (fun c -> "(" ^ String.concat "," (List.map string_of_int c) ^ ")")
              cs)))

let prop_matches_oracle =
  QCheck.Test.make ~count:800 ~name:"solver agrees with brute force" arb_cnf
    (fun (nvars, clauses) ->
      let s = mk_solver nvars clauses in
      match Sat.solve s with
      | Sat.Sat -> brute_force nvars clauses && model_satisfies s clauses
      | Sat.Unsat -> not (brute_force nvars clauses)
      | Sat.Unknown -> false)

let prop_assumptions =
  (* solving under assumptions equals solving with the assumptions added as
     unit clauses; and the solver stays usable afterwards *)
  QCheck.Test.make ~count:400 ~name:"assumptions match unit clauses"
    (QCheck.pair arb_cnf (QCheck.make QCheck.Gen.(list_size (1 -- 3) (pair (1 -- 4) bool))))
    (fun ((nvars, clauses), assum_raw) ->
      let assum =
        List.sort_uniq Stdlib.compare
          (List.map (fun (v, s) -> if s then v else -v) assum_raw)
      in
      (* skip contradictory assumption lists like [1; -1] *)
      let contradictory = List.exists (fun l -> List.mem (-l) assum) assum in
      QCheck.assume (not contradictory);
      let nvars = max nvars 4 in
      let s = mk_solver nvars clauses in
      let r1 = Sat.solve ~assumptions:assum s in
      let expected = brute_force nvars (List.map (fun l -> [ l ]) assum @ clauses) in
      let first_ok =
        match r1 with
        | Sat.Sat -> expected && model_satisfies s clauses
        | Sat.Unsat -> not expected
        | Sat.Unknown -> false
      in
      (* the solver must still answer the unconstrained query correctly *)
      let r2 = Sat.solve s in
      let second_ok =
        match r2 with
        | Sat.Sat -> brute_force nvars clauses
        | Sat.Unsat -> not (brute_force nvars clauses)
        | Sat.Unknown -> false
      in
      first_ok && second_ok)

let prop_incremental =
  QCheck.Test.make ~count:300 ~name:"incremental clause addition"
    (QCheck.pair arb_cnf arb_cnf)
    (fun ((n1, c1), (n2, c2)) ->
      let nvars = max n1 n2 in
      let s = mk_solver nvars c1 in
      ignore (Sat.solve s);
      List.iter (Sat.add_clause s) c2;
      match Sat.solve s with
      | Sat.Sat -> brute_force nvars (c1 @ c2) && model_satisfies s (c1 @ c2)
      | Sat.Unsat -> not (brute_force nvars (c1 @ c2))
      | Sat.Unknown -> false)

(* {1 Clause shapes}

   The core once carried passes that rewrote particular clause shapes:
   subsumption, vivification, bounded variable elimination, LBD-tiered
   retention of learnt clauses and best-phase rephasing.  The passes are
   gone, but the shapes still reach the core through [add_clause], so
   each keeps an oracle case under its pass name.  Every shape maps a CNF
   to an equisatisfiable one, possibly over more variables. *)

(* a superset and two copies of every clause, the superset first *)
let subsume_shape (nvars, clauses) =
  let widen i c = ((i mod nvars) + 1) :: c in
  (nvars, List.mapi widen clauses @ clauses @ clauses)

(* every clause padded with two literals that propagation falsifies: f is
   a unit false and g implies f; the units come after the padding *)
let vivify_shape (nvars, clauses) =
  let f = nvars + 1 and g = nvars + 2 in
  (nvars + 2, List.map (fun c -> c @ [ f; g ]) clauses @ [ [ -g; f ]; [ -f ] ])

(* the first two clauses of two or more literals split through a fresh
   variable each, (a | rest) into (a | x) & (-x | rest): the occurrence
   pattern variable elimination resolved away *)
let elim_shape (nvars, clauses) =
  let next = ref nvars in
  let split = function
    | a :: (_ :: _ as rest) when !next < nvars + 2 ->
        incr next;
        let x = !next in
        [ [ a; x ]; -x :: rest ]
    | c -> [ c ]
  in
  let clauses = List.concat_map split clauses in
  (!next, clauses)

(* every polarity flipped, so the initial saved phases point the other way *)
let rephase_shape (nvars, clauses) =
  (nvars, List.map (List.map (fun l -> -l)) clauses)

(* the clauses a budgeted first solver learnt, added as problem clauses:
   the learnt database the LBD tiers used to curate *)
let lbd_shape (nvars, clauses) =
  let s = mk_solver nvars clauses in
  ignore (Sat.solve ~budget:20 s);
  (nvars, clauses @ Sat.export_learnt s)

let pass_shapes =
  [ ("lbd", lbd_shape);
    ("rephase", rephase_shape);
    ("subsume", subsume_shape);
    ("vivify", vivify_shape);
    ("elim", elim_shape);
    ("all", fun cnf ->
        lbd_shape (rephase_shape (elim_shape (vivify_shape (subsume_shape cnf)))))
  ]

(* the verdict on a shaped CNF is the oracle's on the original, and a Sat
   model satisfies every shaped clause *)
let prop_shape_matches_oracle (tag, shape) =
  QCheck.Test.make ~count:300
    ~name:(Printf.sprintf "pass %s agrees with brute force" tag) arb_cnf
    (fun (nvars, clauses) ->
      let nvars', clauses' = shape (nvars, clauses) in
      let s = mk_solver nvars' clauses' in
      match Sat.solve s with
      | Sat.Sat -> brute_force nvars clauses && model_satisfies s clauses'
      | Sat.Unsat -> not (brute_force nvars clauses)
      | Sat.Unknown -> false)

(* An unconstrained solve, then a solve naming variables in assumptions,
   then the assumptions added as unit clauses: the sequence that once had
   to restore eliminated variables must still agree with the oracle. *)
let prop_assumptions_after_elim =
  QCheck.Test.make ~count:300 ~name:"assumptions after elimination"
    (QCheck.pair arb_cnf
       (QCheck.make QCheck.Gen.(list_size (1 -- 3) (pair (1 -- 4) bool))))
    (fun ((nvars, clauses), assum_raw) ->
      let assum =
        List.sort_uniq Stdlib.compare
          (List.map (fun (v, s) -> if s then v else -v) assum_raw)
      in
      let contradictory = List.exists (fun l -> List.mem (-l) assum) assum in
      QCheck.assume (not contradictory);
      let nvars = max nvars 4 in
      let s = mk_solver nvars clauses in
      ignore (Sat.solve s);
      let expected =
        brute_force nvars (List.map (fun l -> [ l ]) assum @ clauses)
      in
      let verdict_ok r =
        match r with
        | Sat.Sat -> expected && model_satisfies s clauses
        | Sat.Unsat -> not expected
        | Sat.Unknown -> false
      in
      let first_ok = verdict_ok (Sat.solve ~assumptions:assum s) in
      List.iter (fun l -> Sat.add_clause s [ l ]) assum;
      first_ok && verdict_ok (Sat.solve s))

(* {1 Structured instances} *)

(* p pigeons, h holes; var [(i * h) + j + 1] = pigeon i in hole j;
   unsat iff p > h *)
let pigeonhole_cnf p h =
  let v i j = (i * h) + j + 1 in
  let every_pigeon_placed = List.init p (fun i -> List.init h (v i)) in
  let at_most_one_per_hole =
    List.concat
      (List.init h (fun j ->
           List.concat
             (List.init p (fun i1 ->
                  List.init (p - i1 - 1) (fun k -> [ -v i1 j; -v (i1 + k + 1) j ])))))
  in
  (p * h, every_pigeon_placed @ at_most_one_per_hole)

let pigeonhole p h =
  let nvars, clauses = pigeonhole_cnf p h in
  mk_solver nvars clauses

let test_pigeonhole () =
  List.iter
    (fun (p, h) ->
      let s = pigeonhole p h in
      let expect = if p > h then Sat.Unsat else Sat.Sat in
      Alcotest.(check bool)
        (Printf.sprintf "php %d %d" p h)
        true
        (Sat.solve s = expect))
    [ (3, 3); (4, 3); (5, 4); (6, 5); (6, 6); (7, 6) ]

let test_pigeonhole_all_passes () =
  List.iter
    (fun (tag, shape) ->
      let nvars, clauses = shape (pigeonhole_cnf 6 5) in
      Alcotest.(check bool)
        (Printf.sprintf "php 6 5 unsat in the %s shape" tag)
        true
        (Sat.solve (mk_solver nvars clauses) = Sat.Unsat))
    pass_shapes

(* The passes the core runs between conflicts, Luby restarts and
   reduce_db, must report work: a regression that silently stopped either
   would keep every equivalence case green.  10000 conflicts of php 9 8
   pass the reduce trigger (4000 learnt plus half the database). *)
let test_passes_engage () =
  let s = pigeonhole 9 8 in
  Alcotest.(check bool) "budget exhausts" true
    (Sat.solve ~budget:10000 s = Sat.Unknown);
  Alcotest.(check bool) "restarts happened" true (Sat.restarts s > 0);
  Alcotest.(check bool) "reduce_db ran" true (Sat.reductions s > 0);
  Alcotest.(check bool) "learnt clauses kept" true (Sat.learnt_kept s > 0);
  Alcotest.(check bool) "learnt clauses deleted" true (Sat.learnt_deleted s > 0)

(* Best-phase rephasing is gone; the saved phases it used to overwrite
   remain.  Re-solving a satisfied instance that took conflicts and
   restarts to solve must follow them back to the same model without a
   single conflict. *)
let test_rephase_engages () =
  let st = Random.State.make [| 42 |] in
  let nvars = 150 in
  let clauses =
    List.init (4 * nvars) (fun _ ->
        List.init 3 (fun _ ->
            let v = 1 + Random.State.int st nvars in
            if Random.State.bool st then v else -v))
  in
  let s = mk_solver nvars clauses in
  Alcotest.(check bool) "first solve sat" true (Sat.solve s = Sat.Sat);
  Alcotest.(check bool) "search took conflicts" true (Sat.conflicts s > 0);
  let model () = List.init nvars (fun v -> Sat.value s (v + 1)) in
  let first = model () and conflicts = Sat.conflicts s in
  Alcotest.(check bool) "second solve sat" true (Sat.solve s = Sat.Sat);
  Alcotest.(check int) "no further conflicts" conflicts (Sat.conflicts s);
  Alcotest.(check bool) "same model" true (model () = first)

let test_budget () =
  let s = pigeonhole 9 8 in
  Alcotest.(check bool) "budget exhausts" true (Sat.solve ~budget:20 s = Sat.Unknown);
  (* a second call with a real budget still works *)
  Alcotest.(check bool) "then solves" true (Sat.solve s = Sat.Unsat)

let test_deadline_expired () =
  (* an already-expired deadline must refuse up front, even on an easy
     instance that would never reach the every-256-conflicts check *)
  let s = Sat.create () in
  let v1 = Sat.new_var s in
  let v2 = Sat.new_var s in
  Sat.add_clause s [ v1; v2 ];
  Alcotest.(check bool)
    "expired deadline unknown" true
    (Sat.solve ~deadline:(Unix.gettimeofday () -. 1.0) s = Sat.Unknown);
  (* the refusal must leave the solver reusable *)
  Alcotest.(check bool) "then solves" true (Sat.solve s = Sat.Sat)

let test_deadline_midsearch () =
  (* php 9 8 needs far more than a few ms of search, so a near-now
     deadline fires the in-search test; afterwards the solver must still
     reach the honest verdict *)
  let s = pigeonhole 9 8 in
  Alcotest.(check bool)
    "mid-search deadline unknown" true
    (Sat.solve ~deadline:(Unix.gettimeofday () +. 0.02) s = Sat.Unknown);
  Alcotest.(check bool) "then solves" true (Sat.solve s = Sat.Unsat)

(* The only path that deletes clauses: php 9 9 with one hole closed by an
   activation literal is php 9 8 under that assumption, long enough to
   pass the 4000-learnt reduce trigger without making the solver Unsat at
   level 0.  The same solver then answers further assumption sets and
   added clauses, each verdict checked against a fresh solver. *)
let test_reduction_then_resolve () =
  let nvars, php = pigeonhole_cnf 9 9 in
  let a = nvars + 1 in
  let close_last_hole = List.init 9 (fun i -> [ -a; -((i * 9) + 9) ]) in
  let clauses = ref (php @ close_last_hole) in
  let s = mk_solver a !clauses in
  let agree what assumptions =
    let fresh = mk_solver a !clauses in
    let expected = Sat.solve ~assumptions fresh in
    let got = Sat.solve ~assumptions s in
    Alcotest.(check bool) (what ^ ": same verdict") true (got = expected);
    if got = Sat.Sat then
      Alcotest.(check bool)
        (what ^ ": model satisfies clauses and assumptions")
        true
        (model_satisfies s !clauses
        && List.for_all (fun l -> Sat.value s (abs l) = (l > 0)) assumptions)
  in
  Alcotest.(check bool) "php 9 8 under assumption" true
    (Sat.solve ~assumptions:[ a ] s = Sat.Unsat);
  Alcotest.(check bool) "reduce_db ran" true (Sat.reductions s > 0);
  Alcotest.(check bool) "learnt clauses deleted" true (Sat.learnt_deleted s > 0);
  agree "no assumptions" [];
  agree "hole open" [ -a ];
  agree "hole closed" [ a ];
  agree "pigeon 0 in hole 0" [ -a; 1 ];
  agree "pigeons 0 and 1 share hole 0" [ 1; 10 ];
  let add c =
    clauses := !clauses @ [ c ];
    Sat.add_clause s c
  in
  add [ -1 ];
  agree "after excluding pigeon 0 from hole 0" [ -a ];
  add [ 2; 3 ];
  agree "after forcing pigeon 0 into hole 1 or 2" [];
  add [ -a ];
  agree "after opening the hole for good" [];
  agree "reopened hole assumed closed" [ a ]

let test_xor_chain () =
  (* x1 xor x2 xor ... xor xn = 1 with all equalities forced pairwise *)
  let s = Sat.create () in
  let n = 40 in
  let v = Array.init n (fun _ -> Sat.new_var s) in
  (* chain: v_i = v_{i+1} *)
  for i = 0 to n - 2 do
    Sat.add_clause s [ -v.(i); v.(i + 1) ];
    Sat.add_clause s [ v.(i); -v.(i + 1) ]
  done;
  Sat.add_clause s [ v.(0) ];
  Sat.add_clause s [ -v.(n - 1) ];
  Alcotest.(check bool) "equality chain unsat" true (Sat.solve s = Sat.Unsat)

let test_edges () =
  let s = Sat.create () in
  let v1 = Sat.new_var s in
  (* tautology is dropped silently *)
  Sat.add_clause s [ v1; -v1 ];
  Alcotest.(check bool) "tautology sat" true (Sat.solve s = Sat.Sat);
  (* empty clause *)
  let s = Sat.create () in
  Sat.add_clause s [];
  Alcotest.(check bool) "empty clause unsat" true (Sat.solve s = Sat.Unsat);
  (* conflicting units *)
  let s = Sat.create () in
  let v1 = Sat.new_var s in
  Sat.add_clause s [ v1 ];
  Sat.add_clause s [ -v1 ];
  Alcotest.(check bool) "conflicting units unsat" true (Sat.solve s = Sat.Unsat);
  (* unknown variable *)
  let s = Sat.create () in
  Alcotest.check_raises "unknown var"
    (Invalid_argument "Sat.add_clause: unknown variable 3") (fun () ->
      Sat.add_clause s [ 3 ]);
  (* duplicate literals collapse *)
  let s = Sat.create () in
  let v1 = Sat.new_var s in
  Sat.add_clause s [ v1; v1; v1 ];
  Alcotest.(check bool) "dup lits" true (Sat.solve s = Sat.Sat);
  Alcotest.(check bool) "unit forced" true (Sat.value s v1);
  (* assumption of a level-0 falsified literal *)
  let s = Sat.create () in
  let v1 = Sat.new_var s in
  Sat.add_clause s [ -v1 ];
  Alcotest.(check bool) "assume falsified" true
    (Sat.solve ~assumptions:[ v1 ] s = Sat.Unsat);
  Alcotest.(check bool) "still sat without" true (Sat.solve s = Sat.Sat)

let test_large_random_3sat () =
  (* below the phase-transition ratio: should be satisfiable and fast *)
  let st = Random.State.make [| 42 |] in
  let nvars = 150 in
  let s = Sat.create () in
  for _ = 1 to nvars do
    ignore (Sat.new_var s)
  done;
  let clauses = ref [] in
  for _ = 1 to 3 * nvars do
    let lit () =
      let v = 1 + Random.State.int st nvars in
      if Random.State.bool st then v else -v
    in
    clauses := [ lit (); lit (); lit () ] :: !clauses
  done;
  List.iter (Sat.add_clause s) !clauses;
  match Sat.solve s with
  | Sat.Sat ->
      Alcotest.(check bool) "model valid" true
        (List.for_all
           (fun c -> List.exists (fun l -> Sat.value s (abs l) = (l > 0)) c)
           !clauses)
  | Sat.Unsat -> () (* possible but extremely unlikely at ratio 3 *)
  | Sat.Unknown -> Alcotest.fail "unknown without budget"

let () =
  Alcotest.run "sat"
    [ ("oracle",
       List.map QCheck_alcotest.to_alcotest
         ([ prop_matches_oracle; prop_assumptions; prop_incremental ]
         @ List.map prop_shape_matches_oracle pass_shapes
         @ [ prop_assumptions_after_elim ]));
      ("structured",
       [ Alcotest.test_case "pigeonhole" `Quick test_pigeonhole;
         Alcotest.test_case "pigeonhole all passes" `Quick
           test_pigeonhole_all_passes;
         Alcotest.test_case "passes engage" `Quick test_passes_engage;
         Alcotest.test_case "rephase engages" `Quick test_rephase_engages;
         Alcotest.test_case "budget" `Quick test_budget;
         Alcotest.test_case "reduction then re-solve" `Quick
           test_reduction_then_resolve;
         Alcotest.test_case "deadline expired" `Quick test_deadline_expired;
         Alcotest.test_case "deadline mid-search" `Quick test_deadline_midsearch;
         Alcotest.test_case "xor chain" `Quick test_xor_chain;
         Alcotest.test_case "edge cases" `Quick test_edges;
         Alcotest.test_case "random 3sat" `Quick test_large_random_3sat ]) ]
