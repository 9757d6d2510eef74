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
   the session's cumulative totals. *)
let test_stats_deltas () =
  let a = Term.var "gv8_0" 8 and b = Term.var "gv8_1" 8 in
  let s = Solver.Session.create () in
  let checks =
    [ [ Term.eq (Term.mul a b) (Term.of_int ~width:8 56) ];
      [ Term.ult (Term.of_int ~width:8 3) a ];
      [ Term.ult a (Term.of_int ~width:8 9) ] ]
  in
  let totals = (ref 0, ref 0, ref 0) in
  List.iter
    (fun q ->
      let st = Solver.stats_of (Solver.Session.check_with s q) in
      let v, c, k = totals in
      v := !v + st.Solver.sat_vars;
      c := !c + st.Solver.sat_clauses;
      k := !k + st.Solver.sat_conflicts)
    checks;
  let cum = Solver.Session.stats s in
  let v, c, k = totals in
  Alcotest.(check int) "vars sum" cum.Solver.Session.vars !v;
  Alcotest.(check int) "clauses sum" cum.Solver.Session.clauses !c;
  Alcotest.(check int) "conflicts sum" cum.Solver.Session.conflicts !k;
  Alcotest.(check bool)
    "cache populated" true
    (cum.Solver.Session.cached_terms > 0)

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

(* One arena per domain: sessions created by concurrent arenas never
   interact, and the arena aggregates its sessions' statistics. *)
let test_arena () =
  let job name rhs () =
    let arena = Solver.Arena.create () in
    let s1 = Solver.Arena.session arena in
    let a = Term.var name 8 in
    let r =
      Solver.Session.check_with s1
        [ Term.eq (Term.mul a a) (Term.of_int ~width:8 rhs) ]
    in
    let shared = Solver.Arena.shared arena in
    let r2 = Solver.Session.check_with shared [ Term.eq a a ] in
    (r, r2, Solver.Arena.session_count arena, Solver.Arena.stats arena)
  in
  let d1 = Domain.spawn (job "ss_conc_a" 25) in
  let d2 = Domain.spawn (job "ss_conc_b" 3) in
  let r1, t1, n1, st1 = Domain.join d1 in
  let r2, _, _, _ = Domain.join d2 in
  (match (r1, t1) with
  | Solver.Sat _, Solver.Sat _ -> ()
  | _ -> Alcotest.fail "square query: expected sat");
  (match r2 with
  | Solver.Unsat _ -> ()
  | _ -> Alcotest.fail "non-square query: expected unsat");
  Alcotest.(check int) "two sessions per arena" 2 n1;
  Alcotest.(check bool) "arena stats aggregated" true (st1.Solver.sat_vars > 0)

(* Learned-clause exchange: exporting from a finished session and replaying
   into a fresh one asserting the identical problem (in the identical order,
   hence identical variable numbering) must preserve the answer, register
   the clauses as learnt (not problem clauses), and skip clauses naming
   variables the importer has not allocated. *)
let test_learnt_exchange () =
  let a = Term.var "ss_lx_a" 16 and b = Term.var "ss_lx_b" 16 in
  let problem =
    [ Term.eq (Term.mul a b) (Term.of_int ~width:16 3127);
      Term.ult (Term.one 16) a; Term.ult (Term.one 16) b;
      Term.ule a b ]
  in
  let s1 = Solver.Session.create () in
  let r1 = Solver.Session.check_with s1 problem in
  let exported = Solver.Session.export_learnt s1 in
  Alcotest.(check bool) "something learned" true (exported <> []);
  let s2 = Solver.Session.create () in
  (* encode the same problem first so the variables exist, via a guard that
     costs no search *)
  List.iter
    (fun t -> ignore (Solver.Session.assert_retractable s2 t))
    problem;
  let before = Solver.Session.stats s2 in
  let n = Solver.Session.import_learnt s2 exported in
  let after = Solver.Session.stats s2 in
  Alcotest.(check bool) "imported some" true (n > 0);
  Alcotest.(check int) "registered as learnt" n
    (after.Solver.Session.learnt - before.Solver.Session.learnt);
  Alcotest.(check int) "no new problem clauses"
    before.Solver.Session.clauses after.Solver.Session.clauses;
  let r2 = Solver.Session.check_with s2 problem in
  (* imported clauses may steer the search to a different — but still
     correct — model, so validate each model concretely rather than
     comparing them bit for bit *)
  let validate label = function
    | Solver.Sat (m, _) ->
        let env =
          { Term.lookup_var = (fun n _ -> m.Solver.var_value n);
            Term.lookup_read = (fun _ _ -> None) }
        in
        List.iter
          (fun t ->
            Alcotest.(check bool)
              (label ^ " model satisfies") true
              (Bitvec.to_int_exn (Term.eval env t) = 1))
          problem
    | _ -> Alcotest.failf "%s: expected sat" label
  in
  validate "cold" r1;
  validate "warm" r2;
  (* clauses over unallocated variables are skipped, not crashed on *)
  let s3 = Solver.Session.create () in
  Alcotest.(check int) "unknown vars skipped" 0
    (Solver.Session.import_learnt s3 exported)

(* Regression for the importer's bounds check: clauses naming variables
   the session never allocated, zero literals, the unnegatable [min_int],
   and the empty clause must be dropped — and counted via
   [import_dropped] — rather than corrupting the watch lists, and the
   session must keep answering correctly afterwards. *)
let test_import_bounds () =
  let a = Term.var "ss_ib_a" 16 and b = Term.var "ss_ib_b" 16 in
  let problem =
    [ Term.eq (Term.mul a b) (Term.of_int ~width:16 3127);
      Term.ult (Term.one 16) a; Term.ult (Term.one 16) b;
      Term.ule a b ]
  in
  let s1 = Solver.Session.create () in
  (match Solver.Session.check_with s1 problem with
  | Solver.Sat _ -> ()
  | _ -> Alcotest.fail "factoring query: expected sat");
  let sound = Solver.Session.export_learnt s1 in
  Alcotest.(check bool) "something to import" true (sound <> []);
  let s2 = Solver.Session.create () in
  List.iter (fun t -> ignore (Solver.Session.assert_retractable s2 t)) problem;
  let nv = Solver.Session.num_vars s2 in
  Alcotest.(check bool) "variables allocated" true (nv > 0);
  Alcotest.(check int) "fresh session dropped nothing" 0
    (Solver.Session.import_dropped s2);
  let bad = [ [ nv + 1 ]; [ 1; -(nv + 5) ]; [ 0 ]; [ min_int ]; [] ] in
  let n = Solver.Session.import_learnt s2 (sound @ bad) in
  Alcotest.(check int) "in-range clauses imported" (List.length sound) n;
  Alcotest.(check int) "hostile clauses counted as dropped"
    (List.length bad)
    (Solver.Session.import_dropped s2);
  match Solver.Session.check_with s2 problem with
  | Solver.Sat _ -> ()
  | _ -> Alcotest.fail "expected sat after hostile import"

(* {1 Session configurations}

   A worker decides with a cold session, with one warm-started from the
   learnt clauses of an earlier run over the same encoding (the synthesis
   cache's replay), or with its arena's shared session.  Each
   configuration below returns a session that asserts [t1] and guards
   [t2]. *)

let guarded s t1 t2 =
  Solver.Session.assert_always s t1;
  (s, Solver.Session.assert_retractable s t2)

let configurations =
  [ ("cold", fun t1 t2 -> guarded (Solver.Session.create ()) t1 t2);
    ( "warm",
      fun t1 t2 ->
        (* learnt clauses are consequences of the problem clauses whatever
           the assumptions, so a donor's first check may be replayed *)
        let donor, g = guarded (Solver.Session.create ()) t1 t2 in
        ignore (Solver.Session.check_with ~assumptions:[ g ] donor []);
        let s, g = guarded (Solver.Session.create ()) t1 t2 in
        ignore
          (Solver.Session.import_learnt s (Solver.Session.export_learnt donor));
        (s, g) );
    ( "arena shared",
      fun t1 t2 -> guarded (Solver.Arena.shared (Solver.Arena.create ())) t1 t2
    ) ]

let agree a b =
  match (a, b) with
  | Solver.Sat _, Solver.Sat _ | Solver.Unsat _, Solver.Unsat _ -> true
  | _ -> false

(* every configuration tracks the cold session through a guarded check,
   retraction and a further assert, and every Sat model satisfies what
   binds *)
let prop_configurations_agree =
  QCheck.Test.make ~count:100 ~name:"sessions agree across configurations"
    arb_bool3 (fun (g1, g2, g3) ->
      let run (_, make) =
        let s, g = make g1.Gen_terms.term g2.Gen_terms.term in
        let r1 = Solver.Session.check_with ~assumptions:[ g ] s [] in
        Solver.Session.retract s g;
        let r2 = Solver.Session.check_with s [ g3.Gen_terms.term ] in
        let dead =
          match Solver.Session.check_with ~assumptions:[ g ] s [] with
          | Solver.Unsat _ -> true
          | _ -> false
        in
        (r1, r2, dead)
      in
      let models_ok (r1, r2, dead) =
        dead
        && (match r1 with
           | Solver.Sat (m, _) -> satisfies [ g1; g2 ] m
           | _ -> true)
        &&
        match r2 with
        | Solver.Sat (m, _) -> satisfies [ g1; g3 ] m
        | _ -> true
      in
      match List.map run configurations with
      | [] -> false
      | ((c1, c2, _) as cold) :: rest ->
          models_ok cold
          && List.for_all
               (fun ((r1, r2, _) as r) -> agree c1 r1 && agree c2 r2 && models_ok r)
               rest)

(* spurious Unknowns and corrupted model copies leave every configuration
   exactly as recoverable: the corruption reaches only the returned copy *)
let test_faults_across_configurations () =
  List.iter
    (fun (tag, make) ->
      let x = Term.var "gv8_0" 8 in
      let s, g = make (Term.eq x (Term.of_int ~width:8 42)) (Term.eq x x) in
      (* installed after [make], whose donor check must not count *)
      Fault.install (Fault.parse "unknown@1,corrupt@2,seed=7");
      Fun.protect ~finally:Fault.clear (fun () ->
          (match Solver.Session.check_with ~assumptions:[ g ] s [] with
          | Solver.Unknown _ -> ()
          | _ -> Alcotest.failf "%s: planned Unknown missing" tag);
          (* check 2 returns a corrupted copy; check 3 is honest *)
          ignore (Solver.Session.check_with s []);
          match Solver.Session.check_with s [] with
          | Solver.Sat (m, _) -> (
              match m.Solver.var_value "gv8_0" with
              | Some v ->
                  Alcotest.(check int)
                    (Printf.sprintf "%s: honest after faults" tag)
                    42 (Bitvec.to_int_exn v)
              | None -> Alcotest.failf "%s: model missing gv8_0" tag)
          | _ -> Alcotest.failf "%s: expected Sat after faults" tag))
    configurations

let () =
  Alcotest.run "session"
    [ ("properties",
       List.map QCheck_alcotest.to_alcotest
         [ prop_incremental_agrees; prop_retraction ]);
      ("session",
       [ Alcotest.test_case "model snapshot" `Quick test_model_snapshot;
         Alcotest.test_case "ackermann across checks" `Quick
           test_ack_across_checks;
         Alcotest.test_case "ackermann under retraction" `Quick
           test_ack_retractable;
         Alcotest.test_case "trivially unsat" `Quick test_trivially_unsat;
         Alcotest.test_case "stats deltas" `Quick test_stats_deltas;
         Alcotest.test_case "budget" `Quick test_budget;
         Alcotest.test_case "arenas" `Quick test_arena;
         Alcotest.test_case "learnt exchange" `Quick test_learnt_exchange;
         Alcotest.test_case "import bounds check" `Quick test_import_bounds ]);
      ("sessions",
       Alcotest.test_case "faults across profiles" `Quick
         test_faults_across_configurations
       :: List.map QCheck_alcotest.to_alcotest [ prop_configurations_agree ]) ]
