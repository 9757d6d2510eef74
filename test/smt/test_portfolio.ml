(* The structural cube split must be invisible to callers: the same
   verdicts as sequential solving and — via the determinism contract —
   bit-identical models.  The property drives random disjunctions from the
   shared generator under random fan-outs; the alcotest cases pin the
   Unsat direction (the one the split accelerates) on a prime-factoring
   refutation and check the tally plumbing. *)

let jobs = 2 (* keep domain pressure low under the test runner *)

let models_agree vars m1 m2 =
  List.for_all
    (fun (name, _) ->
      match (m1.Solver.var_value name, m2.Solver.var_value name) with
      | Some v1, Some v2 -> Bitvec.equal v1 v2
      | None, None -> true
      | _ -> false)
    vars

let agree vars seq split =
  match (seq, split) with
  | Solver.Sat (m1, _), Solver.Sat (m2, _) -> models_agree vars m1 m2
  | Solver.Unsat _, Solver.Unsat _ -> true
  | _ -> false

(* A disjunction of 2-8 random roots, posed alone (mostly Sat) and next to
   its own negation (Unsat, with every cube carrying the negation). *)
let prop_split_equals_sequential =
  QCheck.Test.make ~name:"cube-and-conquer = monolithic" ~count:40
    (QCheck.make
       QCheck.Gen.(
         pair (list_size (2 -- 8) Gen_terms.gen_bool_term) (0 -- 3))
       ~print:(fun (gs, k) ->
         Printf.sprintf "%s split on %d"
           (String.concat " | " (List.map Gen_terms.print_gen_term gs))
           k))
    (fun (gs, k) ->
      let d = Term.disj (List.map (fun g -> g.Gen_terms.term) gs) in
      let options = Synth.Portfolio.(default |> with_cube_vars k) in
      List.for_all
        (fun query ->
          let tally = Synth.Portfolio.create_tally () in
          let split = Synth.Portfolio.check ~options ~tally ~jobs query in
          let s = Synth.Portfolio.read_tally tally in
          agree (Term.vars d) (Solver.check query) split
          && (match split with
             | Solver.Unsat _ ->
                 s.Synth.Portfolio.cubes_unsat = s.Synth.Portfolio.cubes
             | _ -> true))
        [ [ d ]; [ Term.bnot d; d ] ])

(* {1 The Unsat direction on a fixed refutation}

   Factoring 251 (prime) with both factors nontrivial, multiplied without
   wraparound; [bands] adds a disjunctive conjunct over the first factor
   for the split to work on. *)

let pf_a = Term.var "pf_a" 8
let pf_b = Term.var "pf_b" 8

let prime_query =
  [
    Term.eq
      (Term.mul (Term.zext pf_a 16) (Term.zext pf_b 16))
      (Term.of_int ~width:16 251);
    Term.ult (Term.one 8) pf_a;
    Term.ult (Term.one 8) pf_b;
  ]

let bands =
  Term.disj
    (List.map
       (fun k -> Term.ult pf_a (Term.of_int ~width:8 k))
       [ 4; 16; 64 ]
    @ [ Term.ule (Term.of_int ~width:8 64) pf_a ])

let test_prime_refuted () =
  List.iter
    (fun (label, options, query) ->
      match Synth.Portfolio.check ~options ~jobs query with
      | Solver.Unsat _ -> ()
      | Solver.Sat _ -> Alcotest.failf "%s: expected unsat, got sat" label
      | Solver.Unknown _ -> Alcotest.failf "%s: expected unsat, got unknown" label)
    [
      ("sequential", Synth.Portfolio.default, prime_query);
      ( "no disjunction to split",
        Synth.Portfolio.(default |> with_cube_vars 2),
        prime_query );
      ( "split into bands",
        Synth.Portfolio.(default |> with_cube_vars 2),
        bands :: prime_query );
    ]

let test_tally () =
  let tally = Synth.Portfolio.create_tally () in
  let split k =
    match
      Synth.Portfolio.check
        ~options:Synth.Portfolio.(default |> with_cube_vars k)
        ~tally ~jobs (bands :: prime_query)
    with
    | Solver.Unsat _ -> ()
    | _ -> Alcotest.fail "expected unsat"
  in
  split 2;
  split 1;
  (* a goal with nothing to split is solved sequentially, uncounted *)
  ignore
    (Synth.Portfolio.check
       ~options:Synth.Portfolio.(default |> with_cube_vars 2)
       ~tally ~jobs prime_query);
  let s = Synth.Portfolio.read_tally tally in
  Alcotest.(check int) "four bands, then two groups" 6 s.Synth.Portfolio.cubes;
  Alcotest.(check int) "all cubes refuted" s.Synth.Portfolio.cubes
    s.Synth.Portfolio.cubes_unsat

(* A satisfiable split returns the sequential re-check's model, and its
   statistics count the cubes' work on top of the re-check's. *)
let test_sat_stats () =
  let query = [ bands ] in
  let seq = Solver.check query in
  match
    ( seq,
      Synth.Portfolio.check
        ~options:Synth.Portfolio.(default |> with_cube_vars 2)
        ~jobs:1 query )
  with
  | Solver.Sat (m1, st_seq), Solver.Sat (m2, st) ->
      Alcotest.(check bool) "same model" true
        (models_agree [ ("pf_a", 8) ] m1 m2);
      Alcotest.(check bool) "cube variables counted" true
        (st.Solver.sat_vars > st_seq.Solver.sat_vars);
      Alcotest.(check bool) "cube clauses counted" true
        (st.Solver.sat_clauses > st_seq.Solver.sat_clauses);
      Alcotest.(check bool) "re-check conflicts counted" true
        (st.Solver.sat_conflicts >= st_seq.Solver.sat_conflicts)
  | _ -> Alcotest.fail "expected sat both ways"

let () =
  Alcotest.run "portfolio"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_split_equals_sequential ] );
      ( "portfolio",
        [
          Alcotest.test_case "prime refuted all modes" `Quick
            test_prime_refuted;
          Alcotest.test_case "tally accounting" `Quick test_tally;
          Alcotest.test_case "sat split counts cube work" `Quick
            test_sat_stats;
        ] );
    ]
