(* Tests for incremental solver sessions (Solver.Session).

   The central property: a session deciding a growing conjunction across
   several [check_with] calls agrees with a fresh [Solver.check] of the
   same conjunction, on random QF_BV formulas — including retractable
   assertions (activation literals) and Ackermannized memory reads whose
   congruence constraints span check boundaries. *)

let model_env (m : Solver.model) name width =
  match m.Solver.var_value name with
  | Some v -> v
  | None -> Bitvec.zero width

let satisfies gs m =
  let env name =
    let w = List.assoc name Gen_terms.all_vars in
    model_env m name w
  in
  List.for_all (fun g -> Bitvec.is_ones (g.Gen_terms.reval env)) gs

let arb_bool3 =
  QCheck.make
    QCheck.Gen.(
      triple Gen_terms.gen_bool_term Gen_terms.gen_bool_term
        Gen_terms.gen_bool_term)
    ~print:(fun (a, b, c) ->
      String.concat " /\\ " (List.map Gen_terms.print_gen_term [ a; b; c ]))

(* Incrementally asserting t1, then t2, then t3 must agree, check by check,
   with one-shot checks of the growing conjunction; every Sat model must
   satisfy everything asserted so far. *)
let prop_incremental_agrees =
  QCheck.Test.make ~count:120 ~name:"session agrees with fresh solver"
    arb_bool3 (fun (g1, g2, g3) ->
      let s = Solver.Session.create () in
      let rec steps asserted = function
        | [] -> true
        | g :: rest ->
            let asserted = asserted @ [ g ] in
            let fresh =
              Solver.check (List.map (fun g -> g.Gen_terms.term) asserted)
            in
            let incr = Solver.Session.check_with s [ g.Gen_terms.term ] in
            let ok =
              match (incr, fresh) with
              | Solver.Sat (m, _), Solver.Sat _ -> satisfies asserted m
              | Solver.Unsat _, Solver.Unsat _ -> true
              | _ -> false
            in
            ok && steps asserted rest
      in
      steps [] [ g1; g2; g3 ])

(* Retraction: a guarded assertion binds exactly the checks that assume its
   guard; after retraction the session behaves as if it was never made,
   and assuming a retracted guard is contradictory. *)
let prop_retraction =
  QCheck.Test.make ~count:120 ~name:"retraction matches fresh equivalents"
    (QCheck.pair Gen_terms.arb_bool_term Gen_terms.arb_bool_term)
    (fun (g1, g2) ->
      let t1 = g1.Gen_terms.term and t2 = g2.Gen_terms.term in
      let s = Solver.Session.create () in
      Solver.Session.assert_always s t1;
      let g = Solver.Session.assert_retractable s t2 in
      let both = Solver.Session.check_with ~assumptions:[ g ] s [] in
      let fresh_both = Solver.check [ t1; t2 ] in
      let agree a b =
        match (a, b) with
        | Solver.Sat _, Solver.Sat _ | Solver.Unsat _, Solver.Unsat _ -> true
        | _ -> false
      in
      let ok1 =
        agree both fresh_both
        &&
        match both with
        | Solver.Sat (m, _) -> satisfies [ g1; g2 ] m
        | _ -> true
      in
      (* without the guard assumed, only t1 binds *)
      let only_t1 = Solver.Session.check_with s [] in
      let ok2 =
        agree only_t1 (Solver.check [ t1 ])
        &&
        match only_t1 with
        | Solver.Sat (m, _) -> satisfies [ g1 ] m
        | _ -> true
      in
      Solver.Session.retract s g;
      let after = Solver.Session.check_with s [] in
      let ok3 = agree after (Solver.check [ t1 ]) in
      let dead = Solver.Session.check_with ~assumptions:[ g ] s [] in
      let ok4 = match dead with Solver.Unsat _ -> true | _ -> false in
      ok1 && ok2 && ok3 && ok4)

(* A Sat model is an eager snapshot: still valid (and still satisfying the
   formula it came from) after later asserts and checks on the session. *)
let test_model_snapshot () =
  let a = Term.var "gv8_0" 8 in
  let s = Solver.Session.create () in
  let g = Solver.Session.assert_retractable s (Term.eq a (Term.of_int ~width:8 42)) in
  let m =
    match Solver.Session.check_with ~assumptions:[ g ] s [] with
    | Solver.Sat (m, _) -> m
    | _ -> Alcotest.fail "expected sat"
  in
  Solver.Session.retract s g;
  (match Solver.Session.check_with s [ Term.eq a (Term.of_int ~width:8 7) ] with
  | Solver.Sat _ -> ()
  | _ -> Alcotest.fail "expected sat after retraction");
  match m.Solver.var_value "gv8_0" with
  | Some v -> Alcotest.(check int) "snapshot survives" 42 (Bitvec.to_int_exn v)
  | None -> Alcotest.fail "snapshot lost the variable"

(* Repeating a Sat check with nothing new re-reads the same assignment:
   the same model, and no SAT search at all; a check after a new
   assertion searches again. *)
let test_repeat_rereads () =
  let a = Term.var "gv8_0" 8 and b = Term.var "gv8_1" 8 in
  let s = Solver.Session.create () in
  let g = Solver.Session.assert_retractable s (Term.ult a b) in
  let check () =
    match Solver.Session.check_with ~assumptions:[ g ] s [] with
    | Solver.Sat (m, _) -> (m.Solver.var_value "gv8_0", m.Solver.var_value "gv8_1")
    | _ -> Alcotest.fail "expected sat"
  in
  let solves () =
    List.fold_left
      (fun n (m : Obs.metric) ->
        if m.Obs.metric_name = "sat.solves" then n + m.Obs.count else n)
      0 (Obs.metrics ())
  in
  Obs.enable_metrics ();
  Obs.reset_metrics ();
  Fun.protect ~finally:Obs.disable_metrics @@ fun () ->
  let first = check () in
  Alcotest.(check int) "one search" 1 (solves ());
  Alcotest.(check bool) "same model" true (check () = first);
  Alcotest.(check int) "no second search" 1 (solves ());
  (* a new assertion makes the next check decide again *)
  match
    Solver.Session.check_with ~assumptions:[ g ] s
      [ Term.eq a (Term.of_int ~width:8 200) ]
  with
  | Solver.Sat (m, _) ->
      Alcotest.(check (option int)) "new assertion honored" (Some 200)
        (Option.map Bitvec.to_int_exn (m.Solver.var_value "gv8_0"))
  | _ -> Alcotest.fail "expected sat"

(* Ackermann congruence across check boundaries: read instances introduced
   by different checks on the same session still constrain each other. *)
let test_ack_across_checks () =
  let m = { Term.mem_name = "ss_mem"; addr_width = 4; data_width = 8 } in
  let a1 = Term.var "ss_addr1" 4 and a2 = Term.var "ss_addr2" 4 in
  let s = Solver.Session.create () in
  (match
     Solver.Session.check_with s
       [ Term.eq (Term.read m a1) (Term.of_int ~width:8 0x42) ]
   with
  | Solver.Sat _ -> ()
  | _ -> Alcotest.fail "first read: expected sat");
  (match Solver.Session.check_with s [ Term.eq a1 a2 ] with
  | Solver.Sat _ -> ()
  | _ -> Alcotest.fail "alias: expected sat");
  (* the second instance (read m a2) enters here, after both earlier
     checks; its congruence with the first instance must still bind *)
  match
    Solver.Session.check_with s
      [ Term.bnot (Term.eq (Term.read m a1) (Term.read m a2)) ]
  with
  | Solver.Unsat _ -> ()
  | _ -> Alcotest.fail "cross-check congruence violated"

(* Retractable assertions also Ackermannize; the congruence constraints
   they introduce are permanent (valid regardless of the guard), so
   retracting the assertion must not retract congruence. *)
let test_ack_retractable () =
  let m = { Term.mem_name = "ss_mem2"; addr_width = 4; data_width = 8 } in
  let a1 = Term.var "ss_b1" 4 and a2 = Term.var "ss_b2" 4 in
  let r1 = Term.read m a1 and r2 = Term.read m a2 in
  let s = Solver.Session.create () in
  let g =
    Solver.Session.assert_retractable s
      (Term.band (Term.eq r1 (Term.of_int ~width:8 1))
         (Term.eq r2 (Term.of_int ~width:8 2)))
  in
  Solver.Session.retract s g;
  match
    Solver.Session.check_with s
      [ Term.eq a1 a2; Term.bnot (Term.eq r1 r2) ]
  with
  | Solver.Unsat _ -> ()
  | _ -> Alcotest.fail "congruence must survive retraction"

(* The constant-false fast path: honest stats with the flag set, and the
   session stays poisoned for every later check. *)
let test_trivially_unsat () =
  let s = Solver.Session.create () in
  (match Solver.Session.check_with s [ Term.fls ] with
  | Solver.Unsat st ->
      Alcotest.(check bool) "flag set" true st.Solver.trivially_unsat;
      Alcotest.(check int) "no conflicts" 0 st.Solver.sat_conflicts
  | _ -> Alcotest.fail "expected unsat");
  match Solver.Session.check_with s [ Term.tru ] with
  | Solver.Unsat st ->
      Alcotest.(check bool) "still poisoned" true st.Solver.trivially_unsat
  | _ -> Alcotest.fail "poisoned session must stay unsat"

(* Per-check statistics are deltas: summed over a query sequence they equal
   the session's cumulative totals, read in the same type.  The blasting
   cache shows in them too: re-asserting a term the session has already
   blasted encodes its unit clause alone, with no new gate. *)
let test_stats_deltas () =
  let a = Term.var "gv8_0" 8 and b = Term.var "gv8_1" 8 in
  let s = Solver.Session.create () in
  let checks =
    [ [ Term.eq (Term.mul a b) (Term.of_int ~width:8 56) ];
      [ Term.ult (Term.of_int ~width:8 3) a ];
      [ Term.ult a (Term.of_int ~width:8 9) ] ]
  in
  let sum =
    List.fold_left
      (fun acc q ->
        Solver.add_stats acc (Solver.stats_of (Solver.Session.check_with s q)))
      Solver.empty_stats checks
  in
  let cum = Solver.Session.stats s in
  Alcotest.(check int) "vars sum" cum.Solver.sat_vars sum.Solver.sat_vars;
  Alcotest.(check int) "clauses sum" cum.Solver.sat_clauses sum.Solver.sat_clauses;
  Alcotest.(check int) "conflicts sum" cum.Solver.sat_conflicts
    sum.Solver.sat_conflicts;
  Alcotest.(check bool) "every field sums" true (sum = cum);
  let again = Solver.stats_of (Solver.Session.check_with s (List.hd checks)) in
  Alcotest.(check int) "re-assert allocates no variable" 0 again.Solver.sat_vars;
  Alcotest.(check int) "re-assert encodes its unit clause alone" 1
    again.Solver.sat_clauses

(* An exhausted budget yields Unknown and leaves the session usable. *)
let test_budget () =
  let a = Term.var "ss_f1" 16 and b = Term.var "ss_f2" 16 in
  let s = Solver.Session.create () in
  let g =
    Solver.Session.assert_retractable s
      (Term.conj
         [ Term.eq (Term.mul a b) (Term.of_int ~width:16 62615);
           Term.ult (Term.one 16) a; Term.ult (Term.one 16) b ])
  in
  (match Solver.Session.check_with ~assumptions:[ g ] ~budget:5 s [] with
  | Solver.Unknown _ | Solver.Sat _ -> ()
  | Solver.Unsat _ -> Alcotest.fail "5-conflict budget cannot prove unsat");
  Solver.Session.retract s g;
  match Solver.Session.check_with s [ Term.eq a (Term.of_int ~width:16 3) ] with
  | Solver.Sat _ -> ()
  | _ -> Alcotest.fail "session unusable after budget exhaustion"

(* Sessions are single-owner state, one per domain: sessions created and
   checked concurrently on two domains never interact. *)
let test_concurrent_sessions () =
  let job name rhs () =
    let s = Solver.Session.create () in
    let a = Term.var name 8 in
    Solver.Session.check_with s
      [ Term.eq (Term.mul a a) (Term.of_int ~width:8 rhs) ]
  in
  let d1 = Domain.spawn (job "ss_conc_a" 25) in
  let d2 = Domain.spawn (job "ss_conc_b" 3) in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  (match r1 with
  | Solver.Sat _ -> ()
  | _ -> Alcotest.fail "square query: expected sat");
  match r2 with
  | Solver.Unsat _ -> ()
  | _ -> Alcotest.fail "non-square query: expected unsat"

(* {1 Guarded sessions}

   A worker decides with a session that asserts [t1] and guards [t2]. *)

let guarded s t1 t2 =
  Solver.Session.assert_always s t1;
  (s, Solver.Session.assert_retractable s t2)

let agree a b =
  match (a, b) with
  | Solver.Sat _, Solver.Sat _ | Solver.Unsat _, Solver.Unsat _ -> true
  | _ -> false

(* a guarded check, its retraction and a further assert on one session
   agree with one-shot checks of the same formulas, and every Sat model
   satisfies what binds *)
let prop_configurations_agree =
  QCheck.Test.make ~count:100 ~name:"sessions agree across configurations"
    arb_bool3 (fun (g1, g2, g3) ->
      let s, g =
        guarded (Solver.Session.create ()) g1.Gen_terms.term g2.Gen_terms.term
      in
      let r1 = Solver.Session.check_with ~assumptions:[ g ] s [] in
      Solver.Session.retract s g;
      let r2 = Solver.Session.check_with s [ g3.Gen_terms.term ] in
      let dead =
        match Solver.Session.check_with ~assumptions:[ g ] s [] with
        | Solver.Unsat _ -> true
        | _ -> false
      in
      let one_shot gs = Solver.check (List.map (fun g -> g.Gen_terms.term) gs) in
      let ok r gs =
        agree r (one_shot gs)
        && match r with Solver.Sat (m, _) -> satisfies gs m | _ -> true
      in
      dead && ok r1 [ g1; g2 ] && ok r2 [ g1; g3 ])

(* spurious Unknowns and corrupted model copies leave a guarded session
   exactly as recoverable: the corruption reaches only the returned copy *)
let test_faults_across_configurations () =
  let x = Term.var "gv8_0" 8 in
  let s, g =
    guarded (Solver.Session.create ()) (Term.eq x (Term.of_int ~width:8 42))
      (Term.eq x x)
  in
  Fault.install (Fault.parse "unknown@1,corrupt@2,seed=7");
  Fun.protect ~finally:Fault.clear (fun () ->
      (match Solver.Session.check_with ~assumptions:[ g ] s [] with
      | Solver.Unknown _ -> ()
      | _ -> Alcotest.fail "planned Unknown missing");
      (* check 2 returns a corrupted copy; check 3 is honest *)
      ignore (Solver.Session.check_with s []);
      match Solver.Session.check_with s [] with
      | Solver.Sat (m, _) -> (
          match m.Solver.var_value "gv8_0" with
          | Some v ->
              Alcotest.(check int) "honest after faults" 42 (Bitvec.to_int_exn v)
          | None -> Alcotest.fail "model missing gv8_0")
      | _ -> Alcotest.fail "expected Sat after faults")

let () =
  Alcotest.run "session"
    [ ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_incremental_agrees; prop_retraction ]);
      ("session",
       [ Alcotest.test_case "model snapshot" `Quick test_model_snapshot;
         Alcotest.test_case "repeat re-reads" `Quick test_repeat_rereads;
         Alcotest.test_case "ackermann across checks" `Quick
           test_ack_across_checks;
         Alcotest.test_case "ackermann under retraction" `Quick
           test_ack_retractable;
         Alcotest.test_case "trivially unsat" `Quick test_trivially_unsat;
         Alcotest.test_case "stats deltas" `Quick test_stats_deltas;
         Alcotest.test_case "budget" `Quick test_budget;
         Alcotest.test_case "concurrent sessions" `Quick
           test_concurrent_sessions ]);
      ("sessions",
       Alcotest.test_case "faults across profiles" `Quick
         test_faults_across_configurations
       :: List.map QCheck_alcotest.to_alcotest [ prop_configurations_agree ]) ]
