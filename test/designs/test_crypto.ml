(* Tests for the constant-time cryptography core (paper §4.2/§5.2):

   - control synthesis for the CMOV ISA succeeds;
   - the synthesized and reference cores agree with the (CMOV-enabled) ISS
     on random branch-free programs;
   - SHA-256: correct digests, cycle count independent of input length, and
     generated-control cycles equal reference-control cycles (the §5.2
     claims). *)

let bv = Alcotest.testable Bitvec.pp Bitvec.equal

let solve problem =
  match Synth.Engine.synthesize problem with
  | Synth.Engine.Solved s -> s
  | Synth.Engine.Timeout _ -> Alcotest.fail "synthesis timed out"
  | Synth.Engine.Unrealizable { instr; _ } ->
      Alcotest.failf "unrealizable (%s)" (Option.value instr ~default:"?")
  | Synth.Engine.Union_failed { diagnostic; _ } ->
      Alcotest.failf "union failed: %s" diagnostic
  | Synth.Engine.Not_independent _ -> Alcotest.fail "not independent" 

let synthesized = lazy (solve (Designs.Crypto_core.problem ()))

let cosim design =
  List.iter
    (fun seed ->
      match
        Designs.Testbench.cosim ~profile:`Cmov design Isa.Rv32.RV32I_Zbkb
          (Random.State.make [| seed; 123 |])
      with
      | Ok () -> ()
      | Error m -> Alcotest.failf "seed %d: %s" seed m)
    [ 31; 32; 33; 34 ]

let test_reference_cosim () = cosim (Designs.Crypto_core.reference_design ())

let test_synthesized_cosim () =
  cosim (Lazy.force synthesized).Synth.Engine.completed

(* {1 The §5.2 constant-time experiment} *)

let sha_cycles design msg =
  let program = Sha_program.generate () in
  let halt_pc = 4 * (List.length program - 1) in
  let r =
    Designs.Testbench.run_core design ~program
      ~dmem_init:(Sha_program.pack_input msg) ~halt_pc ~max_cycles:20000
  in
  let digest =
    Sha_program.read_digest (fun a ->
        Designs.Testbench.core_dmem r.Designs.Testbench.state a)
  in
  let hex =
    String.concat "" (Array.to_list (Array.map (Printf.sprintf "%08x") digest))
  in
  match r.Designs.Testbench.cycles_to_halt with
  | Some c -> (c, hex)
  | None -> Alcotest.fail "SHA program did not halt"

let inputs =
  List.map
    (fun len -> String.init len (fun i -> Char.chr (33 + ((i * 7) mod 90))))
    [ 4; 8; 12; 16; 20; 24; 28; 32 ]

let test_sha_constant_time () =
  let design = (Lazy.force synthesized).Synth.Engine.completed in
  let results = List.map (fun msg -> (msg, sha_cycles design msg)) inputs in
  (* digests are correct *)
  List.iter
    (fun (msg, (_, hex)) ->
      Alcotest.(check string)
        (Printf.sprintf "digest len %d" (String.length msg))
        (Sha256.digest_hex msg) hex)
    results;
  (* cycle count is independent of the input *)
  let cycles = List.map (fun (_, (c, _)) -> c) results in
  (match cycles with
  | first :: rest ->
      List.iter
        (fun c -> Alcotest.(check int) "constant cycles" first c)
        rest
  | [] -> assert false);
  (* ... and also independent of input content at fixed length *)
  let c1, _ = sha_cycles design "aaaa" in
  let c2, _ = sha_cycles design "zzzz" in
  Alcotest.(check int) "content-independent" c1 c2

let test_generated_matches_reference_cycles () =
  (* paper §5.2: the generated-control core spends the same number of cycles
     and produces the same result as the hand-written one *)
  let gen = (Lazy.force synthesized).Synth.Engine.completed in
  let refd = Designs.Crypto_core.reference_design () in
  List.iter
    (fun msg ->
      let cg, hg = sha_cycles gen msg in
      let cr, hr = sha_cycles refd msg in
      Alcotest.(check int) "same cycles" cr cg;
      Alcotest.(check string) "same digest" hr hg)
    [ "abcd"; "abcdefgh1234" ]

(* A directed CMOV test on the core. *)
let test_cmov_semantics () =
  let design = Designs.Crypto_core.reference_design () in
  let e m = Isa.Rv32.encode Isa.Rv32.RV32I_Zbkb m in
  let program =
    [ e "addi" ~rd:1 ~rs1:0 ~imm:111 ();
      e "addi" ~rd:2 ~rs1:0 ~imm:222 ();
      e "addi" ~rd:3 ~rs1:0 ~imm:1 ();  (* condition true *)
      Designs.Testbench.cmov_word ~rd:2 ~rs1:1 ~rs2:3;  (* x2 := x1 *)
      Designs.Testbench.cmov_word ~rd:1 ~rs1:2 ~rs2:0;  (* x0 cond: no move *)
      e "jal" ~rd:0 ~imm:0 () ]
  in
  let r =
    Designs.Testbench.run_core design ~program ~dmem_init:[]
      ~halt_pc:(4 * (List.length program - 1))
      ~max_cycles:100
  in
  Alcotest.check bv "x2 moved" (Bitvec.of_int ~width:32 111)
    (Designs.Testbench.core_reg r.Designs.Testbench.state 2);
  Alcotest.check bv "x1 kept" (Bitvec.of_int ~width:32 111)
    (Designs.Testbench.core_reg r.Designs.Testbench.state 1)

let () =
  Alcotest.run "crypto-core"
    [ ("core",
       [ Alcotest.test_case "reference vs ISS" `Quick test_reference_cosim;
         Alcotest.test_case "synthesized vs ISS" `Quick test_synthesized_cosim;
         Alcotest.test_case "cmov" `Quick test_cmov_semantics ]);
      ("constant-time",
       [ Alcotest.test_case "SHA-256 constant cycles" `Quick test_sha_constant_time;
         Alcotest.test_case "generated = reference cycles" `Quick
           test_generated_matches_reference_cycles ]) ]
