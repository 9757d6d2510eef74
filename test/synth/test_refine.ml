(* Tests for Synth.Refine — field refinement of verification queries.

   The load-bearing property is equisatisfiability: for any formula that
   conjoins its own pinning equalities, refining must not change the
   solver's sat/unsat answer.  Checked against random formulas and random
   (possibly overlapping, possibly conflicting) pins. *)

let tt = Term.const (Bitvec.ones 1)

(* {1 Unit tests} *)

let test_full_pin () =
  let w = Term.var "rfw" 8 in
  let c = Bitvec.of_int ~width:8 0xab in
  let pre = Term.eq w (Term.const c) in
  let pins = Synth.Refine.collect pre in
  Alcotest.(check bool) "has pins" false (Synth.Refine.is_empty pins);
  Alcotest.(check bool) "base becomes the constant" true
    (Term.equal (Synth.Refine.apply pins w) (Term.const c))

let test_no_pins () =
  let x = Term.var "rfx" 8 and y = Term.var "rfy" 8 in
  let pre = Term.ult x y in
  Alcotest.(check bool) "no pins from an inequality" true
    (Synth.Refine.is_empty (Synth.Refine.collect pre))

let test_field_pin_folds_decode () =
  (* the canonical decode shape: pinning the selector field must fold the
     comparison to true before any solver runs *)
  let w = Term.var "rfd" 8 in
  let sel = Term.extract ~high:7 ~low:4 w in
  let pre = Term.eq sel (Term.const (Bitvec.of_int ~width:4 0xa)) in
  let pins = Synth.Refine.collect pre in
  Alcotest.(check bool) "decode comparison folds to true" true
    (Term.equal (Synth.Refine.apply pins pre) tt);
  (* the unpinned field survives as an extract of the original base *)
  let low = Term.extract ~high:3 ~low:0 w in
  Alcotest.(check bool) "unpinned field unchanged" true
    (Term.equal (Synth.Refine.apply pins low) low)

let test_read_base () =
  (* pins apply to uninterpreted memory reads (the fetched instruction) *)
  let m = { Term.mem_name = "rf_imem"; addr_width = 4; data_width = 8 } in
  let fetch = Term.read m (Term.var "rfpc" 4) in
  let pre =
    Term.eq (Term.extract ~high:3 ~low:0 fetch)
      (Term.const (Bitvec.of_int ~width:4 5))
  in
  let pins = Synth.Refine.collect pre in
  Alcotest.(check bool) "read field folds" true
    (Term.equal
       (Synth.Refine.apply pins (Term.extract ~high:3 ~low:0 fetch))
       (Term.const (Bitvec.of_int ~width:4 5)))

let test_selection_mux_collapses () =
  (* the motivating structure: with the selector pinned, the mux over an
     expensive arm and a cheap arm must collapse to the selected arm *)
  let w = Term.var "rfm" 8 in
  let a = Term.var "rfa" 8 and b = Term.var "rfb" 8 in
  let sel = Term.eq (Term.extract ~high:7 ~low:6 w) (Term.const (Bitvec.of_int ~width:2 2)) in
  let mux = Term.ite sel (Term.mul a b) (Term.add a b) in
  let pre =
    Term.eq (Term.extract ~high:7 ~low:6 w) (Term.const (Bitvec.of_int ~width:2 2))
  in
  let pins = Synth.Refine.collect pre in
  Alcotest.(check bool) "mux collapses to the multiply arm" true
    (Term.equal (Synth.Refine.apply pins mux) (Term.mul a b))

let test_literal_pin_folds_forwarding () =
  (* a pipelined core assumes no instruction in flight ([bvnot p_valid]):
     the forwarding mux must fold to the register-file arm *)
  let p_valid = Term.var "rf_pvalid" 1 in
  let fwd = Term.clmul (Term.var "rf_fa" 8) (Term.var "rf_fb" 8) in
  let rf = Term.var "rf_rf" 8 in
  let mux = Term.ite p_valid fwd rf in
  let violation =
    Term.band (Term.bnot p_valid) (Term.ne mux (Term.var "rf_spec" 8))
  in
  let pins = Synth.Refine.collect violation in
  Alcotest.(check bool) "forwarding mux folds" true
    (Term.equal (Synth.Refine.apply pins mux) rf);
  (* a positive literal pins to 1, here on one bit of a wider base *)
  let w = Term.var "rf_lw" 4 in
  let bit2 = Term.extract ~high:2 ~low:2 w in
  let pins = Synth.Refine.collect (Term.band bit2 (Term.var "rf_lq" 1)) in
  Alcotest.(check bool) "bit literal pins to 1" true
    (Term.equal (Synth.Refine.apply pins bit2) tt)

let test_env_wins_over_pin () =
  (* one pass binds the candidate and refines: a bound variable keeps its
     bound value even where a conjunct pins it, so a wrong candidate still
     falsifies the formula *)
  let h = Term.var "rf_hole" 1 and x = Term.var "rf_x" 4 in
  let f = Term.band h (Term.eq x (Term.of_int ~width:4 3)) in
  let env =
    { Term.lookup_var =
        (fun n _ -> if n = "rf_hole" then Some (Bitvec.zero 1) else None);
      lookup_read = (fun _ _ -> None) }
  in
  Alcotest.(check bool) "bound false literal" true
    (Term.is_false (Synth.Refine.apply ~env (Synth.Refine.collect f) f));
  Alcotest.(check bool) "no env, no pins: identity" true
    (let g = Term.ult x (Term.var "rf_y" 4) in
     Synth.Refine.apply (Synth.Refine.collect g) g == g)

(* A pinned read can alias an unpinned one: [m[pc]]'s bit is pinned to 1,
   and with [x = pc] the unrefined formula forces [m[x]] to agree, so it
   needs [z].  The refined formula lost that tie, and this hand-made model
   of it reads [m[x] = 0] with [z = 0]: patched, it fails the unrefined
   formula, so [check] must fall back to the re-check, whose model must
   satisfy the unrefined formula. *)
let test_read_alias_rechecks () =
  let m = { Term.mem_name = "ra_m"; addr_width = 2; data_width = 1 } in
  let pc = Term.var "ra_pc" 2 and x = Term.var "ra_x" 2 and z = Term.var "ra_z" 1 in
  let f =
    Term.conj
      [ Term.read m pc; Term.eq x pc; Term.bor (Term.bnot (Term.read m x)) z ]
  in
  let pins = Synth.Refine.collect f in
  let refined = Synth.Refine.apply pins f in
  let addr = Bitvec.of_int ~width:2 1 in
  let aliasing =
    Solver.model_of
      ~var_value:(fun n ->
        match n with
        | "ra_pc" | "ra_x" -> Some addr
        | "ra_z" -> Some (Bitvec.zero 1)
        | _ -> None)
      ~read_values:[ ("ra_m", addr, Bitvec.zero 1) ]
  in
  let sat m t = Bitvec.is_ones (Term.eval (Solver.model_env m) t) in
  Alcotest.(check bool) "the hand-made model satisfies the refinement" true
    (sat aliasing refined);
  let rechecked = ref None in
  let result, recheck =
    Synth.Refine.check pins f
      ~solve:(fun _ -> Some aliasing)
      ~recheck:(fun t ->
        rechecked := Some t;
        match Solver.check [ t ] with Solver.Sat (m, _) -> Some m | _ -> None)
  in
  Alcotest.(check bool) "re-check ran" true recheck;
  Alcotest.(check bool) "on the unrefined formula" true (Option.fold ~none:false ~some:(Term.equal f) !rechecked);
  match result with
  | Some m -> Alcotest.(check bool) "re-checked model satisfies it" true (sat m f)
  | None -> Alcotest.fail "the unrefined formula is satisfiable"

(* {1 The equisatisfiability property} *)

(* A small self-contained formula generator: width-1 terms over one 8-bit
   pinnable base, two free 8-bit variables, and a free boolean. *)

let gen_formula : Term.t QCheck.Gen.t =
  let open QCheck.Gen in
  let base = Term.var "qrw" 8 in
  let gen_word8 =
    fix
      (fun self size ->
        if size <= 0 then
          oneofl
            [ base;
              Term.var "qra" 8;
              Term.var "qrb" 8;
              Term.const (Bitvec.of_int ~width:8 0x5c) ]
        else
          let sub = self (size / 2) in
          oneof
            [ map2 Term.add sub sub;
              map2 Term.sub sub sub;
              map2 Term.band sub sub;
              map2 Term.bor sub sub;
              map2 Term.bxor sub sub;
              map2 Term.mul sub sub;
              map Term.bnot sub;
              (* extract a field of the base and widen it back *)
              ( 0 -- 4 >>= fun lo ->
                let hi = min 7 (lo + 3) in
                map
                  (fun s ->
                    Term.concat
                      (Term.extract ~high:hi ~low:lo base)
                      (Term.extract ~high:(6 - (hi - lo)) ~low:0 s))
                  sub );
              map3 Term.ite
                (map2 Term.eq sub sub)
                sub sub ])
      3
  in
  let open QCheck.Gen in
  oneof
    [ map2 Term.eq gen_word8 gen_word8;
      map2 Term.ult gen_word8 gen_word8;
      map2 Term.slt gen_word8 gen_word8;
      map2
        (fun a b -> Term.band (Term.eq a b) (Term.var "qrc" 1))
        gen_word8 gen_word8 ]

(* 0..3 random pins on [base] and the boolean [lit]: field equalities,
   and width-1 literals ([lit], a bit of [base], or their negations);
   ranges may overlap and conflict *)
let gen_pins_on (base : Term.t) (lit : Term.t) : Term.t QCheck.Gen.t =
  let open QCheck.Gen in
  let top = base.Term.width - 1 in
  let gen_field =
    0 -- top >>= fun lo ->
    0 -- (top - lo) >>= fun len ->
    let hi = lo + len in
    0 -- ((1 lsl (len + 1)) - 1) >>= fun v ->
    return
      (Term.eq
         (Term.extract ~high:hi ~low:lo base)
         (Term.const (Bitvec.of_int ~width:(len + 1) v)))
  in
  let gen_literal =
    pair bool (oneof [ return lit; map (fun i -> Term.extract ~high:i ~low:i base) (0 -- top) ])
    >>= fun (neg, l) -> return (if neg then Term.bnot l else l)
  in
  0 -- 3 >>= fun n ->
  list_size (return n) (oneof [ gen_field; gen_literal ]) >>= fun pins ->
  return (List.fold_left Term.band tt pins)

let gen_pins = gen_pins_on (Term.var "qrw" 8) (Term.var "qrc" 1)

let sat_answer t =
  match Solver.check ~budget:100_000 [ t ] with
  | Solver.Unsat _ -> Some false
  | Solver.Sat _ -> Some true
  | Solver.Unknown _ -> None

let prop_equisat =
  QCheck.Test.make ~count:400 ~name:"refined query is equisatisfiable"
    (QCheck.make QCheck.Gen.(pair gen_pins gen_formula))
    (fun (pre, f) ->
      let violation = Term.band pre f in
      let refined = Synth.Refine.apply (Synth.Refine.collect pre) violation in
      match (sat_answer violation, sat_answer refined) with
      | Some a, Some b -> a = b
      | _ -> QCheck.assume_fail ())

let prop_refined_not_larger =
  QCheck.Test.make ~count:400 ~name:"refinement never grows the DAG much"
    (QCheck.make QCheck.Gen.(pair gen_pins gen_formula))
    (fun (pre, f) ->
      (* each refined base adds at most a handful of concat/const nodes; a
         blowup here would mean the rewrite recurses somewhere it should
         not *)
      let violation = Term.band pre f in
      let refined = Synth.Refine.apply (Synth.Refine.collect pre) violation in
      Term.size refined <= Term.size violation + 16)

(* {1 The patch property}

   Brute force over small widths: every assignment that satisfies the
   refined formula, taken as a solver model (variables the refinement
   removed are absent), patches into a model of the unrefined one. *)

let gen_small_formula : Term.t QCheck.Gen.t =
  let open QCheck.Gen in
  let base = Term.var "qpw" 4 and a = Term.var "qpa" 3 and c = Term.var "qpc" 1 in
  let word =
    fix
      (fun self size ->
        if size <= 0 then
          oneofl [ base; Term.zext a 4; Term.const (Bitvec.of_int ~width:4 0x9) ]
        else
          let sub = self (size / 2) in
          oneof
            [ map2 Term.add sub sub;
              map2 Term.bxor sub sub;
              map2 Term.mul sub sub;
              map3 Term.ite (map2 Term.ult sub sub) sub sub;
              map (Term.ite c base) sub ])
      3
  in
  oneof
    [ map2 Term.eq word word;
      map2 Term.ult word word;
      map2 (fun x y -> Term.bor (Term.eq x y) c) word word ]

let assignments vars =
  List.fold_left
    (fun acc (n, w) ->
      List.concat_map
        (fun env -> List.init (1 lsl w) (fun v -> (n, Bitvec.of_int ~width:w v) :: env))
        acc)
    [ [] ] vars

let prop_patch_satisfies =
  QCheck.Test.make ~count:300 ~name:"patched models satisfy the unrefined formula"
    (QCheck.make
       QCheck.Gen.(pair (gen_pins_on (Term.var "qpw" 4) (Term.var "qpc" 1)) gen_small_formula))
    (fun (pre, f) ->
      let violation = Term.band pre f in
      let pins = Synth.Refine.collect violation in
      let refined = Synth.Refine.apply pins violation in
      List.for_all
        (fun env ->
          let m =
            Solver.model_of ~var_value:(fun n -> List.assoc_opt n env) ~read_values:[]
          in
          let holds t = Bitvec.is_ones (Term.eval (Solver.model_env m) t) in
          (not (holds refined))
          || Bitvec.is_ones
               (Term.eval (Solver.model_env (Synth.Refine.patch pins m)) violation))
        (assignments (Term.vars refined)))

let () =
  Alcotest.run "refine"
    [ ("refine",
       [ Alcotest.test_case "full pin" `Quick test_full_pin;
         Alcotest.test_case "no pins" `Quick test_no_pins;
         Alcotest.test_case "field pin folds decode" `Quick
           test_field_pin_folds_decode;
         Alcotest.test_case "read base" `Quick test_read_base;
         Alcotest.test_case "selection mux collapses" `Quick
           test_selection_mux_collapses;
         Alcotest.test_case "literal pin folds forwarding" `Quick
           test_literal_pin_folds_forwarding;
         Alcotest.test_case "candidate wins over a pin" `Quick
           test_env_wins_over_pin;
         Alcotest.test_case "read alias re-checks" `Quick test_read_alias_rechecks ]);
      ("properties",
       [ QCheck_alcotest.to_alcotest prop_equisat;
         QCheck_alcotest.to_alcotest prop_refined_not_larger;
         QCheck_alcotest.to_alcotest prop_patch_satisfies ]) ]
