(* Tests for the Term module: simplifier soundness against the reference
   evaluator, hash-consing, substitution, and targeted rewrite rules. *)

let term_env_of f =
  {
    Term.lookup_var = (fun name _ -> Some (f name));
    Term.lookup_read = (fun m a -> Some (Gen_terms.mem_value m a));
  }

let prop name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:1000 ~name arb f)

let has_memory t =
  Term.fold_dag
    (fun acc n ->
      acc || match n.Term.node with Term.Read _ | Term.Table _ -> true | _ -> false)
    false t

(* Terms with at least one memory or table read, with an environment. *)
let arb_memory_term_env =
  let rec gen st =
    let (g, _) as ge = QCheck.Gen.pair Gen_terms.gen_any_width Gen_terms.gen_env st in
    if has_memory g.Gen_terms.term then ge else gen st
  in
  QCheck.make gen ~print:(fun (g, _) -> Gen_terms.print_gen_term g)

(* A counterexample memory over the term's reads: each address its reads
   evaluate to under [env] is mapped, with probability one half, to a
   random value.  Returns those [read_values] and an environment whose
   reads see them, and 0 wherever nothing is mapped. *)
let cex_memory env t seed =
  let st = Random.State.make [| seed |] in
  let values = ref [] in
  let lookup (m : Term.mem) a =
    List.find_map
      (fun (n, a', v) ->
        if n = m.Term.mem_name && Bitvec.equal a a' then Some v else None)
      !values
  in
  let memory m a =
    Some (Option.value (lookup m a) ~default:(Bitvec.zero m.Term.data_width))
  in
  let env = { (term_env_of env) with Term.lookup_read = memory } in
  List.iter
    (fun ((m : Term.mem), a) ->
      let a = Term.eval env a in
      if lookup m a = None && Random.State.bool st then
        let v = Bitvec.of_bits (Array.init m.Term.data_width (fun _ -> Random.State.bool st)) in
        values := (m.Term.mem_name, a, v) :: !values)
    (Term.reads t);
  (!values, env)

let props =
  [ prop "eval agrees with reference" Gen_terms.arb_term_env (fun (g, env) ->
        Bitvec.equal (Term.eval (term_env_of env) g.Gen_terms.term) (g.Gen_terms.reval env));
    prop "substitute-all equals eval" Gen_terms.arb_term_env (fun (g, env) ->
        let t' = Term.substitute (term_env_of env) g.Gen_terms.term in
        match Term.is_const t' with
        | Some v -> Bitvec.equal v (g.Gen_terms.reval env)
        | None -> false);
    prop "width preserved" Gen_terms.arb_term_env (fun (g, _) ->
        Term.width g.Gen_terms.term = g.Gen_terms.twidth);
    prop "rename roundtrip" Gen_terms.arb_term_env (fun (g, env) ->
        let fwd s = Some ("rt!" ^ s) in
        let bwd s =
          if String.length s > 3 && String.sub s 0 3 = "rt!" then
            Some (String.sub s 3 (String.length s - 3))
          else None
        in
        let t' = Term.rename bwd (Term.rename fwd g.Gen_terms.term) in
        Bitvec.equal
          (Term.eval (term_env_of env) t')
          (g.Gen_terms.reval env));
    prop "pp then size is stable" Gen_terms.arb_term_env (fun (g, _) ->
        (* printing must not mutate or crash; size is positive *)
        let s = Format.asprintf "%a" Term.pp g.Gen_terms.term in
        String.length s > 0 && Term.size g.Gen_terms.term > 0);
    (* every interned node is already normal: rebuilding it through the
       smart constructors gives it back *)
    prop "rebuild is the identity" arb_memory_term_env (fun (g, _) ->
        Term.rewriter (fun _ _ -> None) g.Gen_terms.term == g.Gen_terms.term);
    prop "ground_reads evaluates like the counterexample memory"
      (QCheck.pair arb_memory_term_env QCheck.int)
      (fun ((g, env), seed) ->
        let t = g.Gen_terms.term in
        let read_values, mem_env = cex_memory env t seed in
        let model = Solver.model_of ~var_value:(fun _ -> None) ~read_values in
        let grounded = Synth.Engine.ground_reads model t in
        Term.reads grounded = []
        && Bitvec.equal
             (Term.eval { mem_env with Term.lookup_read = (fun _ _ -> None) } grounded)
             (Term.eval mem_env t));
    prop "ackermannize preserves evaluation" arb_memory_term_env (fun (g, env) ->
        let t = g.Gen_terms.term in
        match Solver.ackermannize [ t ] with
        | [], _ -> false
        | t' :: congs, instances ->
            (* instances come innermost first, so each address only names
               Ackermann variables already valued *)
            let acks = Hashtbl.create 8 in
            let env' =
              { Term.lookup_var =
                  (fun n _ ->
                    match Hashtbl.find_opt acks n with
                    | Some v -> Some v
                    | None -> Some (env n));
                Term.lookup_read = (fun _ _ -> None) }
            in
            List.iter
              (fun (m, a, v) ->
                let name = Format.asprintf "%a" Term.pp v in
                Hashtbl.replace acks name (Gen_terms.mem_value m (Term.eval env' a)))
              instances;
            Term.reads t' = []
            && Bitvec.equal (Term.eval env' t') (g.Gen_terms.reval env)
            && List.for_all (fun c -> Bitvec.is_ones (Term.eval env' c)) congs)
  ]

(* {1 Unit tests for specific rewrites} *)

let tt = Alcotest.testable Term.pp Term.equal

let x8 = Term.var "ut_x8" 8
let y8 = Term.var "ut_y8" 8
let c1 = Term.var "ut_c1" 1

let test_hashcons () =
  Alcotest.(check bool) "physical equality" true
    (Term.equal (Term.add x8 y8) (Term.add y8 x8));
  (* commutative normalization makes these the same node *)
  Alcotest.(check int) "same id"
    (Term.id (Term.band x8 y8))
    (Term.id (Term.band y8 x8));
  Alcotest.check_raises "width clash"
    (Invalid_argument "Term.var: \"ut_x8\" used at width 8 and 4") (fun () ->
      ignore (Term.var "ut_x8" 4))

let test_bool_rewrites () =
  Alcotest.check tt "eq self" Term.tru (Term.eq x8 x8);
  Alcotest.check tt "ult self" Term.fls (Term.ult x8 x8);
  Alcotest.check tt "not not" x8 (Term.bnot (Term.bnot x8));
  Alcotest.check tt "not ult" (Term.ule y8 x8) (Term.bnot (Term.ult x8 y8));
  Alcotest.check tt "and self" x8 (Term.band x8 x8);
  Alcotest.check tt "and complement" (Term.zero 8) (Term.band x8 (Term.bnot x8));
  Alcotest.check tt "or complement" (Term.ones 8) (Term.bor x8 (Term.bnot x8));
  Alcotest.check tt "xor self" (Term.zero 8) (Term.bxor x8 x8);
  Alcotest.check tt "implies false" Term.tru (Term.implies Term.fls c1);
  Alcotest.check tt "eq with true" c1 (Term.eq c1 Term.tru);
  Alcotest.check tt "eq with false" (Term.bnot c1) (Term.eq c1 Term.fls)

let test_arith_rewrites () =
  Alcotest.check tt "add zero" x8 (Term.add x8 (Term.zero 8));
  Alcotest.check tt "sub self" (Term.zero 8) (Term.sub x8 x8);
  Alcotest.check tt "mul one" x8 (Term.mul x8 (Term.one 8));
  Alcotest.check tt "mul zero" (Term.zero 8) (Term.mul x8 (Term.zero 8));
  Alcotest.check tt "shl zero" x8 (Term.shl x8 (Term.zero 3));
  Alcotest.check tt "over-shift" (Term.zero 8) (Term.lshr x8 (Term.of_int ~width:8 9));
  Alcotest.check tt "const fold"
    (Term.of_int ~width:8 30)
    (Term.add (Term.of_int ~width:8 10) (Term.of_int ~width:8 20))

let test_structure_rewrites () =
  Alcotest.check tt "extract full" x8 (Term.extract ~high:7 ~low:0 x8);
  Alcotest.check tt "extract concat hi" x8
    (Term.extract ~high:15 ~low:8 (Term.concat x8 y8));
  Alcotest.check tt "extract concat lo" y8
    (Term.extract ~high:7 ~low:0 (Term.concat x8 y8));
  Alcotest.check tt "concat adjacent extracts" x8
    (Term.concat (Term.extract ~high:7 ~low:4 x8) (Term.extract ~high:3 ~low:0 x8));
  Alcotest.check tt "extract of extract"
    (Term.extract ~high:5 ~low:4 x8)
    (Term.extract ~high:3 ~low:2 (Term.extract ~high:7 ~low:2 x8));
  Alcotest.check tt "zext then extract" x8
    (Term.extract ~high:7 ~low:0 (Term.zext x8 12));
  Alcotest.check tt "ite same" x8 (Term.ite c1 x8 x8);
  Alcotest.check tt "ite true" x8 (Term.ite Term.tru x8 y8);
  Alcotest.check tt "ite not cond" (Term.ite c1 y8 x8)
    (Term.ite (Term.bnot c1) x8 y8);
  Alcotest.check tt "ite bool collapse" c1 (Term.ite c1 Term.tru Term.fls);
  (* collapsing a nested ite on the same condition leaves constant arms,
     which must fold too *)
  Alcotest.check tt "ite nested collapse folds" c1
    (Term.ite c1 (Term.ite c1 Term.tru (Term.var "ut_z1" 1)) Term.fls);
  (* eq of ite with const arms resolves to the condition *)
  Alcotest.check tt "eq ite const"
    c1
    (Term.eq (Term.ite c1 (Term.of_int ~width:8 3) (Term.of_int ~width:8 5))
       (Term.of_int ~width:8 3))

let test_table () =
  let tb =
    { Term.tab_name = "ut_sq"; tab_addr_width = 2;
      tab_data = Array.init 4 (fun i -> Bitvec.of_int ~width:4 (i * i)) }
  in
  Alcotest.check tt "const table read"
    (Term.of_int ~width:4 9)
    (Term.table_read tb (Term.of_int ~width:2 3));
  let i2 = Term.var "ut_i2" 2 in
  let t = Term.table_read tb i2 in
  Alcotest.(check int) "symbolic table width" 4 (Term.width t);
  let env v =
    { Term.lookup_var = (fun n _ -> if n = "ut_i2" then Some (Bitvec.of_int ~width:2 v) else None);
      Term.lookup_read = (fun _ _ -> None) }
  in
  for v = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "table eval %d" v)
      true
      (Bitvec.equal (Term.eval (env v) t) (Bitvec.of_int ~width:4 (v * v)))
  done

let test_reads () =
  let m = { Term.mem_name = "ut_mem"; addr_width = 4; data_width = 8 } in
  let a = Term.var "ut_addr" 4 in
  let r1 = Term.read m a in
  let r2 = Term.read m a in
  Alcotest.(check bool) "reads hash-cons" true (Term.equal r1 r2);
  Alcotest.(check int) "read listed" 1 (List.length (Term.reads (Term.add r1 r2)));
  let env =
    { Term.lookup_var = (fun _ w -> Some (Bitvec.of_int ~width:w 5));
      Term.lookup_read =
        (fun m' addr ->
          if m'.Term.mem_name = "ut_mem" && Bitvec.to_int_exn addr = 5 then
            Some (Bitvec.of_int ~width:8 42)
          else None) }
  in
  Alcotest.(check bool) "read eval" true
    (Bitvec.equal (Term.eval env r1) (Bitvec.of_int ~width:8 42));
  (* substitution resolves the read once the address is concrete *)
  let t = Term.substitute env r1 in
  Alcotest.check tt "read substitute" (Term.of_int ~width:8 42) t

let test_vars_collection () =
  let t = Term.add (Term.mul x8 y8) x8 in
  Alcotest.(check (list (pair string int))) "vars" [ ("ut_x8", 8); ("ut_y8", 8) ]
    (Term.vars t)

(* Multiply, divide and carry-less multiply fold over ite-trees of constants
   leaf by leaf, so no quadratic node reaches the blaster; every guard
   assignment must still evaluate like Bitvec, zero divisor and
   [min_int / -1] included.  Past 16 leaves an operand, or past 64 the
   leaf product, stays a symbolic node. *)
let test_constant_unions () =
  let quadratic =
    [ ("mul", Term.mul, Bitvec.mul);
      ("udiv", Term.udiv, Bitvec.udiv);
      ("urem", Term.urem, Bitvec.urem);
      ("sdiv", Term.sdiv, Bitvec.sdiv);
      ("srem", Term.srem, Bitvec.srem);
      ("clmul", Term.clmul, Bitvec.clmul);
      ("clmulh", Term.clmulh, Bitvec.clmulh) ]
  in
  let symbolic t =
    Term.fold_dag
      (fun acc n ->
        acc
        ||
        match n.Term.node with
        | Term.Binop
            ( ( Term.Mul | Term.Udiv | Term.Urem | Term.Sdiv | Term.Srem
              | Term.Clmul | Term.Clmulh ),
              _,
              _ ) ->
            true
        | _ -> false)
      false t
  in
  let g1 = Term.var "ut_g1" 1 and g2 = Term.var "ut_g2" 1 in
  let sel = Term.var "ut_sel16" 16 in
  (* an ite chain with [n] distinct constant leaves under distinct guards *)
  let chain w n =
    let rec go i =
      if i = n - 1 then Term.of_int ~width:w (7 * i + 5)
      else Term.ite (Term.bit sel i) (Term.of_int ~width:w (7 * i + 5)) (go (i + 1))
    in
    go 0
  in
  List.iter
    (fun w ->
      let min_int = Bitvec.shl (Bitvec.one w) (Bitvec.of_int ~width:8 (w - 1)) in
      let big = Bitvec.of_int ~width:w 1000003 in
      let a = Term.ite g1 (Term.const min_int) (Term.const big) in
      let b = Term.ite g2 (Term.zero w) (Term.ones w) in
      List.iter
        (fun (name, tf, bf) ->
          let t = tf a b in
          Alcotest.(check bool) (Printf.sprintf "%s/%d folds" name w) false (symbolic t);
          List.iter
            (fun (v1, v2) ->
              let env =
                { Term.lookup_var =
                    (fun n _ ->
                      let bit v = Some (if v then Bitvec.one 1 else Bitvec.zero 1) in
                      if n = "ut_g1" then bit v1 else if n = "ut_g2" then bit v2 else None);
                  Term.lookup_read = (fun _ _ -> None) }
              in
              let expected =
                bf (if v1 then min_int else big) (if v2 then Bitvec.zero w else Bitvec.ones w)
              in
              Alcotest.(check bool)
                (Printf.sprintf "%s/%d at g1=%b g2=%b" name w v1 v2)
                true
                (Bitvec.equal (Term.eval env t) expected))
            [ (false, false); (false, true); (true, false); (true, true) ];
          let three = Term.of_int ~width:w 3 in
          let eleven = Term.of_int ~width:w 11 in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%d 17 leaves stay symbolic" name w)
            true
            (symbolic (tf (chain w 17) three));
          Alcotest.(check bool)
            (Printf.sprintf "%s/%d 16x4 leaves fold" name w)
            false
            (symbolic (tf (chain w 16) (Term.ite g1 three (Term.ite g2 eleven (chain w 2)))));
          Alcotest.(check bool)
            (Printf.sprintf "%s/%d 16x5 leaves stay symbolic" name w)
            true
            (symbolic (tf (chain w 16) (Term.ite g1 three (Term.ite g2 eleven (chain w 3))))))
        quadratic;
      (* a high multiply's operands: [concat] folds over the unions that
         sign and zero extension build *)
      let h = w / 2 in
      let u g = Term.ite g (Term.ones h) (Term.of_int ~width:h 5) in
      Alcotest.(check bool)
        (Printf.sprintf "mul/%d of extended unions folds" w)
        false
        (symbolic (Term.mul (Term.sext (u g1) w) (Term.zext (u g2) w))))
    [ 32; 64 ]

(* Canonical serialization: round trip through smart constructors must land
   on the physically identical hash-consed nodes, sharing across roots
   preserved, and the document must be a deterministic function of the DAG
   (the cache fingerprints depend on that). *)
let test_serialize_roundtrip () =
  let m = { Term.mem_name = "ut_smem"; addr_width = 4; data_width = 8 } in
  let tab =
    { Term.tab_name = "ut_stab";
      tab_addr_width = 2;
      tab_data = Array.init 4 (fun i -> Bitvec.of_int ~width:8 (i * 17)) }
  in
  let shared = Term.mul x8 y8 in
  let t1 =
    Term.ite
      (Term.ult shared (Term.of_int ~width:8 200))
      (Term.read m (Term.extract ~high:3 ~low:0 shared))
      (Term.table_read tab (Term.extract ~high:1 ~low:0 x8))
  in
  let t2 = Term.concat (Term.bnot shared) (Term.ashr x8 (Term.one 8)) in
  let doc = Term.serialize [ t1; t2; t1 ] in
  (match Term.deserialize doc with
  | [ r1; r2; r3 ] ->
      Alcotest.(check bool) "root1 physical" true (Term.equal r1 t1);
      Alcotest.(check bool) "root2 physical" true (Term.equal r2 t2);
      Alcotest.(check bool) "root3 shares root1" true (Term.equal r3 t1)
  | rs -> Alcotest.failf "expected 3 roots, got %d" (List.length rs));
  Alcotest.(check string) "deterministic" doc (Term.serialize [ t1; t2; t1 ])

(* Malformed documents must raise (the cache turns any exception into a
   miss), never return a wrong term or crash the process harder. *)
let test_deserialize_rejects () =
  let doc = Term.serialize [ Term.add x8 y8 ] in
  let rejects label s =
    match Term.deserialize s with
    | exception (Failure _ | Invalid_argument _) -> ()
    | _ -> Alcotest.failf "%s: accepted" label
  in
  rejects "empty" "";
  rejects "bad header" ("bogus 9\n" ^ doc);
  rejects "truncated" (String.sub doc 0 (String.length doc - 4));
  rejects "garbage line" (doc ^ "z z z\n");
  (* flipping a width must be caught by reconstruction *)
  rejects "corrupt"
    (String.concat "\n"
       (List.map
          (fun line ->
            if String.length line > 2 && String.sub line 0 2 = "v " then
              "v 9999999 ut_x8"
            else line)
          (String.split_on_char '\n' doc)))

let () =
  Alcotest.run "term"
    [ ("properties", props);
      ("rewrites",
       [ Alcotest.test_case "hash-consing" `Quick test_hashcons;
         Alcotest.test_case "boolean" `Quick test_bool_rewrites;
         Alcotest.test_case "arithmetic" `Quick test_arith_rewrites;
         Alcotest.test_case "structure" `Quick test_structure_rewrites;
         Alcotest.test_case "constant unions" `Quick test_constant_unions;
         Alcotest.test_case "tables" `Quick test_table;
         Alcotest.test_case "reads" `Quick test_reads;
         Alcotest.test_case "vars" `Quick test_vars_collection;
         Alcotest.test_case "serialize roundtrip" `Quick test_serialize_roundtrip;
         Alcotest.test_case "deserialize rejects" `Quick test_deserialize_rejects ]) ]
