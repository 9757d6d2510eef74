(* Tests for the bit-blaster and the Solver façade.

   The core property: for random width-1 terms over the small-width variable
   pool, Solver.check agrees with brute-force enumeration of all variable
   assignments, and satisfying models actually evaluate the term to true. *)

(* Use a reduced variable pool so brute force stays feasible: widths 1,2,3
   with two variables each = 12 bits = 4096 assignments. *)

let pool = List.filter (fun (_, w) -> w <= 3) Gen_terms.all_vars
let pool_bits = List.fold_left (fun acc (_, w) -> acc + w) 0 pool

let env_of_index idx =
  let tbl = Hashtbl.create 8 in
  let off = ref 0 in
  List.iter
    (fun (name, w) ->
      let v = Bitvec.of_int ~width:w ((idx lsr !off) land ((1 lsl w) - 1)) in
      Hashtbl.replace tbl name v;
      off := !off + w)
    pool;
  fun name ->
    (* wide variables were simplified out of the term (the [uses_only_small]
       guard checks the simplified term), so the semantics cannot depend on
       them; zero is as good as any value *)
    match Hashtbl.find_opt tbl name with
    | Some v -> v
    | None -> Bitvec.zero (List.assoc name Gen_terms.all_vars)

(* Generator restricted to the small pool: reuse Gen_terms but reject terms
   mentioning wider variables. *)
let arb_small_bool =
  QCheck.make
    QCheck.Gen.(
      Gen_terms.gen_bool_term >>= fun g ->
      return g)
    ~print:Gen_terms.print_gen_term

let uses_only_small g =
  List.for_all (fun (_, w) -> w <= 3) (Term.vars g.Gen_terms.term)

let brute_sat g =
  let n = 1 lsl pool_bits in
  let rec go i =
    if i >= n then false
    else
      let env = env_of_index i in
      if Bitvec.is_ones (g.Gen_terms.reval env) then true else go (i + 1)
  in
  go 0

let model_env (m : Solver.model) name width =
  match m.Solver.var_value name with
  | Some v -> v
  | None -> Bitvec.zero width

let prop_solver_agrees =
  QCheck.Test.make ~count:250 ~name:"solver agrees with enumeration"
    arb_small_bool (fun g ->
      QCheck.assume (uses_only_small g);
      match Solver.check [ g.Gen_terms.term ] with
      | Solver.Unknown _ -> false
      | Solver.Unsat _ -> not (brute_sat g)
      | Solver.Sat (m, _) ->
          (* model must satisfy the reference semantics *)
          let env name =
            let w = List.assoc name Gen_terms.all_vars in
            model_env m name w
          in
          Bitvec.is_ones (g.Gen_terms.reval env))

let prop_conjunction =
  QCheck.Test.make ~count:150 ~name:"conjunction equals single assertion"
    (QCheck.pair arb_small_bool arb_small_bool) (fun (g1, g2) ->
      QCheck.assume (uses_only_small g1 && uses_only_small g2);
      let r1 = Solver.check [ g1.Gen_terms.term; g2.Gen_terms.term ] in
      let r2 = Solver.check [ Term.band g1.Gen_terms.term g2.Gen_terms.term ] in
      match (r1, r2) with
      | Solver.Sat _, Solver.Sat _ | Solver.Unsat _, Solver.Unsat _ -> true
      | _ -> false)

(* {1 Validity helpers} *)

let is_valid ?budget t =
  match Solver.check ?budget [ Term.bnot t ] with
  | Solver.Unsat _ -> true
  | _ -> false

let test_arith_identities () =
  let a = Term.var "sv_a" 8 and b = Term.var "sv_b" 8 in
  (* slt(a,b) = msb(a-b) xor overflow *)
  let sub_ab = Term.sub a b in
  let overflow =
    Term.band (Term.bxor (Term.msb a) (Term.msb b))
      (Term.bxor (Term.msb a) (Term.msb sub_ab))
  in
  let slt_alt = Term.bxor (Term.msb sub_ab) overflow in
  List.iter
    (fun (name, t) -> Alcotest.(check bool) name true (is_valid t))
    [ ("add-sub", Term.eq (Term.sub (Term.add a b) b) a);
      ("mul-comm", Term.eq (Term.mul a b) (Term.mul b a));
      ("de-morgan",
       Term.eq (Term.bnot (Term.band a b)) (Term.bor (Term.bnot a) (Term.bnot b)));
      ("shl-as-mul",
       Term.eq (Term.shl a (Term.of_int ~width:8 3))
         (Term.mul a (Term.of_int ~width:8 8)));
      ("slt textbook", Term.eq (Term.slt a b) slt_alt);
      ("ule total", Term.bor (Term.ule a b) (Term.ule b a));
      ("clmul comm", Term.eq (Term.clmul a b) (Term.clmul b a));
      ("ashr msb",
       Term.implies (Term.bnot (Term.msb a))
         (Term.eq (Term.ashr a b) (Term.lshr a b)))
    ]

let test_not_valid () =
  let a = Term.var "sv_a" 8 and b = Term.var "sv_b" 8 in
  Alcotest.(check bool) "add not commutative with sub" false
    (is_valid (Term.eq (Term.sub a b) (Term.sub b a)));
  Alcotest.(check bool) "ult not total order with itself" false
    (is_valid (Term.ult a b))

let test_reads () =
  let m = { Term.mem_name = "sv_mem"; addr_width = 4; data_width = 8 } in
  let a1 = Term.var "sv_addr1" 4 and a2 = Term.var "sv_addr2" 4 in
  let r1 = Term.read m a1 and r2 = Term.read m a2 in
  (* congruence: equal addresses force equal values *)
  (match
     Solver.check [ Term.eq a1 a2; Term.bnot (Term.eq r1 r2) ]
   with
  | Solver.Unsat _ -> ()
  | _ -> Alcotest.fail "congruence violated");
  (* distinct addresses leave values free *)
  (match Solver.check [ Term.bnot (Term.eq r1 r2) ] with
  | Solver.Sat (model, _) ->
      (* the model must report consistent read values *)
      let v1 = Solver.read_lookup model m (Term.eval
        { Term.lookup_var = (fun n w -> match model.Solver.var_value n with
            | Some v -> Some v | None -> Some (Bitvec.zero w));
          Term.lookup_read = (fun _ _ -> None) } a1) in
      Alcotest.(check bool) "read value present" true (v1 <> None)
  | _ -> Alcotest.fail "expected sat");
  (* reads at constant addresses *)
  let rc1 = Term.read m (Term.of_int ~width:4 3) in
  let rc2 = Term.read m (Term.of_int ~width:4 3) in
  (match Solver.check [ Term.bnot (Term.eq rc1 rc2) ] with
  | Solver.Unsat _ -> ()
  | _ -> Alcotest.fail "same constant address must alias")

let test_tables () =
  let tb =
    { Term.tab_name = "sv_tab"; tab_addr_width = 3;
      tab_data = Array.init 8 (fun i -> Bitvec.of_int ~width:8 (7 * i)) }
  in
  let i = Term.var "sv_idx" 3 in
  let t = Term.table_read tb i in
  (* find the index mapping to 21 *)
  (match Solver.check [ Term.eq t (Term.of_int ~width:8 21) ] with
  | Solver.Sat (m, _) -> (
      match m.Solver.var_value "sv_idx" with
      | Some v -> Alcotest.(check int) "index" 3 (Bitvec.to_int_exn v)
      | None -> Alcotest.fail "index unconstrained")
  | _ -> Alcotest.fail "expected sat");
  (* no index maps to 5 *)
  (match Solver.check [ Term.eq t (Term.of_int ~width:8 5) ] with
  | Solver.Unsat _ -> ()
  | _ -> Alcotest.fail "expected unsat")

let test_budget () =
  (* factoring-style hard instance: a*b = constant with a,b > 1 *)
  let a = Term.var "sv_f1" 16 and b = Term.var "sv_f2" 16 in
  let n = Term.of_int ~width:16 62615 (* 217 * 283 + adjust: pick semiprime 62615 = 5 * 7 * ... just needs hardness *) in
  let q =
    [ Term.eq (Term.mul a b) n;
      Term.ult (Term.one 16) a;
      Term.ult (Term.one 16) b ]
  in
  match Solver.check ~budget:5 q with
  | Solver.Unknown _ -> ()
  | Solver.Sat _ -> () (* a lucky small search is acceptable *)
  | Solver.Unsat _ -> Alcotest.fail "5-conflict budget cannot prove unsat here"

let test_stats () =
  (* stats travel inside the outcome: no process-global state to race on *)
  let a = Term.var "sv_a" 8 in
  match Solver.check [ Term.eq a (Term.of_int ~width:8 7) ] with
  | Solver.Sat (_, s) ->
      Alcotest.(check bool) "vars allocated" true (s.Solver.sat_vars > 0)
  | _ -> Alcotest.fail "sat expected"

let test_read_lookup_duplicates () =
  (* regression: a model may contain several read instances of the same
     memory whose addresses evaluate to the same concrete value.
     [read_lookup] returns the first match in instance order; congruence
     forces all aliasing instances to agree, so the choice is canonical *)
  let m = { Term.mem_name = "sv_dup"; addr_width = 4; data_width = 8 } in
  let a = Term.var "sv_dup_a" 4 in
  let r1 = Term.read m a in
  let r2 = Term.read m (Term.of_int ~width:4 9) in
  match
    Solver.check
      [ Term.eq a (Term.of_int ~width:4 9);
        Term.eq r1 (Term.of_int ~width:8 0x42) ]
  with
  | Solver.Sat (model, _) -> (
      (* both instances alias address 9; whichever instance read_lookup
         picks, congruence pinned its value to 0x42 *)
      match Solver.read_lookup model m (Bitvec.of_int ~width:4 9) with
      | Some v ->
          Alcotest.(check int) "canonical value" 0x42 (Bitvec.to_int_exn v);
          ignore r2
      | None -> Alcotest.fail "aliased address missing from model")
  | _ -> Alcotest.fail "expected sat"

(* Ackermann variables are numbered in first-visit order and their
   congruences are blasted in that order, so the walk order is part of the
   encoding: binop and comparison operands left to right, a concatenation
   low part first, and an ite else arm, then then arm, then condition. *)
let test_ackermann_numbering () =
  let m = { Term.mem_name = "sv_ackn"; addr_width = 4; data_width = 8 } in
  let addr n = Term.var ("sv_ackn_" ^ n) 4 in
  let r n = Term.read m (addr n) in
  let g = Term.var "sv_ackn_g" 1 in
  let root =
    Term.ult
      (Term.concat (r "a") (Term.sub (r "b") (r "c")))
      (Term.concat (Term.ite g (r "d") (r "e")) (r "f"))
  in
  let rewritten, instances = Solver.ackermannize [ root ] in
  let show (t : Term.t) = Format.asprintf "%a" Term.pp t in
  Alcotest.(check (list (triple string string string)))
    "instances in visit order"
    [ ("sv_ackn", "sv_ackn_b", "ack!sv_ackn!1");
      ("sv_ackn", "sv_ackn_c", "ack!sv_ackn!2");
      ("sv_ackn", "sv_ackn_a", "ack!sv_ackn!3");
      ("sv_ackn", "sv_ackn_f", "ack!sv_ackn!4");
      ("sv_ackn", "sv_ackn_e", "ack!sv_ackn!5");
      ("sv_ackn", "sv_ackn_d", "ack!sv_ackn!6") ]
    (List.map
       (fun ((mem : Term.mem), a, v) -> (mem.Term.mem_name, show a, show v))
       instances);
  (* the rewritten root, then one congruence per pair of instances *)
  Alcotest.(check int) "root plus 15 congruences" 16 (List.length rewritten)

let test_concurrent_checks () =
  (* two domains build terms and run checks concurrently; each outcome must
     carry its own correct stats — there is no process-global solver state
     left to race on *)
  let job name rhs () =
    let a = Term.var name 8 in
    Solver.check [ Term.eq (Term.mul a a) (Term.of_int ~width:8 rhs) ]
  in
  (* 25 = 5*5 is a square; 3 is not a square mod 256 (squares are 0 mod 4
     or 1 mod 8) *)
  let d1 = Domain.spawn (job "sv_conc_a" 25) in
  let d2 = Domain.spawn (job "sv_conc_b" 3) in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  (match r1 with
  | Solver.Sat (_, s) ->
      Alcotest.(check bool) "sat side allocated vars" true (s.Solver.sat_vars > 0)
  | _ -> Alcotest.fail "square query: expected sat");
  match r2 with
  | Solver.Unsat s ->
      Alcotest.(check bool) "unsat side counted conflicts independently" true
        (s.Solver.sat_vars > 0)
  | _ -> Alcotest.fail "non-square query: expected unsat"

let () =
  Alcotest.run "solver"
    [ ("properties",
       List.map QCheck_alcotest.to_alcotest [ prop_solver_agrees; prop_conjunction ]);
      ("validity",
       [ Alcotest.test_case "arithmetic identities" `Quick test_arith_identities;
         Alcotest.test_case "non-validities" `Quick test_not_valid;
         Alcotest.test_case "memory reads" `Quick test_reads;
         Alcotest.test_case "tables" `Quick test_tables;
         Alcotest.test_case "budget" `Quick test_budget;
         Alcotest.test_case "stats" `Quick test_stats;
         Alcotest.test_case "read_lookup duplicate addresses" `Quick
           test_read_lookup_duplicates;
         Alcotest.test_case "concurrent checks" `Quick test_concurrent_checks;
         Alcotest.test_case "ackermann numbering" `Quick test_ackermann_numbering ]) ]
