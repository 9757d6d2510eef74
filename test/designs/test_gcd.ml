(* Tests for the GCD accelerator: FSM control synthesis with
   data-dependent decode (joint strategy with four shared encodings), the
   reference design, and functional validation against Euclid's algorithm. *)

let rec euclid a b = if b = 0 then a else euclid b (a mod b)

let solve () =
  match Synth.Engine.synthesize (Designs.Gcd.problem ()) with
  | Synth.Engine.Solved s -> s
  | Synth.Engine.Timeout _ -> Alcotest.fail "timeout"
  | Synth.Engine.Unrealizable { instr; _ } ->
      Alcotest.failf "unrealizable (%s)" (Option.value instr ~default:"?")
  | Synth.Engine.Union_failed { diagnostic; _ } -> Alcotest.fail diagnostic
  | Synth.Engine.Not_independent _ -> Alcotest.fail "not independent" 

let synthesized = lazy (solve ())

let check_gcd design a b =
  match Designs.Gcd.run design ~a ~b ~max_cycles:100000 with
  | Some (result, _) ->
      Alcotest.(check int) (Printf.sprintf "gcd %d %d" a b) (euclid a b) result
  | None -> Alcotest.failf "gcd(%d, %d) did not complete" a b

let test_reference () =
  List.iter
    (fun (a, b) -> check_gcd (Designs.Gcd.reference_design ()) a b)
    [ (12, 18); (7, 13); (100, 75); (5, 5); (1, 999); (64, 48) ]

let test_synthesis () =
  let s = Lazy.force synthesized in
  (* the four encodings must be pairwise distinct, and IDLE's state must
     avoid every encoding that changes a register IDLE holes: [enc_done]
     only clears [busy], which IDLE's precondition already has clear, so
     the spec lets IDLE take it *)
  let encs = List.map snd s.Synth.Engine.shared in
  let rec distinct = function
    | [] -> true
    | v :: rest -> (not (List.exists (Bitvec.equal v) rest)) && distinct rest
  in
  Alcotest.(check bool) "encodings distinct" true (distinct encs);
  let idle_state = List.assoc "st" (List.assoc "IDLE" s.Synth.Engine.per_instr) in
  Alcotest.(check bool) "IDLE avoids enc_load/enc_suba/enc_subb" true
    (not
       (List.exists
          (fun n -> Bitvec.equal idle_state (List.assoc n s.Synth.Engine.shared))
          [ "enc_load"; "enc_suba"; "enc_subb" ]));
  let verdicts =
    Synth.Engine.verify
      { (Designs.Gcd.problem ()) with Synth.Engine.design = s.Synth.Engine.completed }
  in
  List.iter
    (fun (iname, v) ->
      Alcotest.(check string) (iname ^ " verified") "verified"
        (Synth.Engine.verdict_name v))
    verdicts;
  let rng = Random.State.make [| 99 |] in
  for _ = 1 to 15 do
    let a = 1 + Random.State.int rng 500 in
    let b = 1 + Random.State.int rng 500 in
    check_gcd s.Synth.Engine.completed a b
  done

let test_cycle_parity () =
  (* generated and reference control take the same number of cycles *)
  let s = Lazy.force synthesized in
  List.iter
    (fun (a, b) ->
      match
        ( Designs.Gcd.run s.Synth.Engine.completed ~a ~b ~max_cycles:100000,
          Designs.Gcd.run (Designs.Gcd.reference_design ()) ~a ~b ~max_cycles:100000 )
      with
      | Some (r1, c1), Some (r2, c2) ->
          Alcotest.(check int) "same result" r2 r1;
          Alcotest.(check int) "same cycles" c2 c1
      | _ -> Alcotest.fail "did not complete")
    [ (30, 42); (17, 4); (9, 9) ]

let test_result_holds_when_idle () =
  (* after DONE, the result must remain readable indefinitely *)
  let s = Lazy.force synthesized in
  let st = Oyster.Interp.init s.Synth.Engine.completed in
  let feed start a b =
    Oyster.Interp.step
      ~inputs:(fun name _ ->
        match name with
        | "a_in" -> Bitvec.of_int ~width:16 a
        | "b_in" -> Bitvec.of_int ~width:16 b
        | "start" -> Bitvec.of_int ~width:1 (if start then 1 else 0)
        | _ -> assert false)
      st
  in
  ignore (feed true 12 18);
  for _ = 1 to 50 do
    ignore (feed false 999 777)  (* garbage on the idle inputs *)
  done;
  let r = feed false 123 456 in
  Alcotest.(check bool) "ready" true
    (Bitvec.is_ones (List.assoc "ready" r.Oyster.Interp.outputs));
  Alcotest.(check int) "result still 6" 6
    (Bitvec.to_int_exn (List.assoc "result" r.Oyster.Interp.outputs))

let () =
  Alcotest.run "gcd"
    [ ("gcd",
       [ Alcotest.test_case "reference" `Quick test_reference;
         Alcotest.test_case "synthesized" `Quick test_synthesis;
         Alcotest.test_case "cycle parity" `Quick test_cycle_parity;
         Alcotest.test_case "idle holds result" `Quick test_result_holds_when_idle ]) ]
