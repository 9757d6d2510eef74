(* Tests for the gate-level netlist backend: the Table 2 counts, and the
   gate graph itself against [Oyster.Interp], raw and optimized. *)

let counts ?(optimize = false) d = Netlist.(counts (compile ~optimize d))

(* {1 Counts} *)

(* An 8-bit ripple adder has exactly 2 XOR, 2 AND, 1 OR per full adder; the
   first stage's carry-in is constant false and folds. *)
let test_adder_counts () =
  let n = counts (Gate_check.adder8 ()) in
  Alcotest.(check int) "xors" (2 * 8) (n.Netlist.xors + 1);
  (* bit 0: carry-in false folds one xor away: 2*8 - 1 total *)
  Alcotest.(check int) "dffs" 0 n.Netlist.dffs;
  Alcotest.(check bool) "ands present" true (n.Netlist.ands > 0)

let test_register_dffs () =
  let n = counts (Gate_check.regs ()) in
  Alcotest.(check int) "dffs" 16 n.Netlist.dffs;
  Alcotest.(check int) "no gates" 0 n.Netlist.total_gates

let test_memory_materialization () =
  let n = counts (Gate_check.rfm ()) in
  (* 4 cells x 8 bits of state *)
  Alcotest.(check int) "dffs" 32 n.Netlist.dffs;
  Alcotest.(check bool) "write decode + read mux" true (n.Netlist.total_gates > 32)

let test_blackbox_memory () =
  let n = counts (Gate_check.bb ()) in
  (* address width 20 > threshold: no dffs, no gates, just ports *)
  Alcotest.(check int) "dffs" 0 n.Netlist.dffs;
  Alcotest.(check int) "gates" 0 n.Netlist.total_gates

let test_rom_constant_fold () =
  let n = counts (Gate_check.romf ()) in
  Alcotest.(check int) "constant index folds" 0 n.Netlist.total_gates

(* Table 2's columns for every registry design, raw and optimized: and, or,
   xor, not, mux, total gates, dffs — what `owl print -d D --reference |
   owl netlist [--optimize]` prints.  Every column is pinned: the symbolic
   prefix comes from the design's name, so the operand order [Term] picks
   in rv32-single-m's asymmetric multiplier and divider cones does not
   depend on how many evaluations the process ran before. *)
let table2 =
  [ ("accumulator",
      ((17, 2, 9, 15, 17, 60, 10),
       (16, 2, 9, 5, 17, 49, 10)));
    ("alu",
      ((46, 17, 38, 41, 104, 246, 66),
       (42, 15, 30, 15, 104, 206, 66)));
    ("rv32-single",
      ((654, 166, 537, 571, 5109, 7037, 1056),
       (499, 162, 314, 110, 4636, 5721, 1056)));
    ("rv32-single-zbkb",
      ((782, 263, 541, 775, 6625, 8986, 1056),
       (562, 259, 318, 148, 5410, 6697, 1056)));
    ("rv32-single-m",
      ((31597, 9159, 30214, 13463, 14518, 98951, 1056),
       (11134, 4937, 12127, 365, 9284, 37847, 1056)));
    ("rv32-single-zbkc",
      ((1822, 263, 1502, 800, 6765, 11152, 1056),
       (1564, 259, 1279, 148, 5487, 8737, 1056)));
    ("rv32-two-stage",
      ((667, 165, 547, 581, 4951, 6911, 1230),
       (512, 161, 324, 120, 4643, 5760, 1230)));
    ("rv32-two-stage-zbkb",
      ((797, 261, 551, 785, 6582, 8976, 1230),
       (577, 257, 328, 163, 5654, 6979, 1230)));
    ("rv32-two-stage-zbkc",
      ((1837, 261, 1512, 810, 6656, 11076, 1230),
       (1579, 257, 1289, 163, 5731, 9019, 1230)));
    ("crypto-core",
      ((815, 254, 425, 763, 6925, 9182, 1260),
       (596, 250, 329, 121, 6125, 7421, 1260)));
    ("aes",
      ((40, 1, 1083, 5115, 17568, 23807, 260),
       (27, 1, 1067, 69, 8817, 9981, 260)));
    ("gcd",
      ((89, 32, 110, 70, 104, 405, 33),
       (85, 30, 78, 57, 104, 354, 33))) ]

let test_table2_pinned () =
  List.iter
    (fun (name, design, _) ->
      let raw, opt = List.assoc name table2 in
      List.iter
        (fun (mode, optimize, (ands, ors, xors, nots, muxes, total, dffs)) ->
          let n = counts ~optimize (design ()) in
          let pin field want got =
            Alcotest.(check int) (Printf.sprintf "%s %s %s" name mode field) want got
          in
          pin "and" ands n.Netlist.ands;
          pin "or" ors n.Netlist.ors;
          pin "xor" xors n.Netlist.xors;
          pin "not" nots n.Netlist.nots;
          pin "mux" muxes n.Netlist.muxes;
          pin "gates" total n.Netlist.total_gates;
          pin "dffs" dffs n.Netlist.dffs)
        [ ("raw", false, raw); ("opt", true, opt) ])
    Gate_check.registry

(* The counts are a function of the design alone: rv32-single-m compiled
   after other symbolic evaluations — the engine's, fresh sessions, other
   designs' compiles — gives its pinned counts again. *)
let test_counts_repeat () =
  let m () = Designs.Riscv_single.reference_design Isa.Rv32.RV32I_M in
  let rv32i = Designs.Riscv_single.reference_design Isa.Rv32.RV32I in
  ignore (Oyster.Symbolic.eval (m ()) ~cycles:1);
  ignore (Oyster.Symbolic.eval rv32i ~cycles:1);
  ignore (counts ~optimize:true rv32i);
  ignore (Synth.Engine.synthesize (Designs.Accumulator.problem ()));
  let raw, opt = List.assoc "rv32-single-m" table2 in
  List.iter
    (fun (mode, optimize, (ands, ors, xors, nots, muxes, total, dffs)) ->
      for pass = 1 to 2 do
        let n = counts ~optimize (m ()) in
        Alcotest.(check (list int))
          (Printf.sprintf "rv32-single-m %s, pass %d" mode pass)
          [ ands; ors; xors; nots; muxes; total; dffs ]
          Netlist.[ n.ands; n.ors; n.xors; n.nots; n.muxes; n.total_gates; n.dffs ]
      done)
    [ ("raw", false, raw); ("opt", true, opt) ]

let test_optimize_shrinks () =
  let d = Gate_check.cse () in
  let raw = counts d in
  let opt = counts ~optimize:true d in
  Alcotest.(check bool)
    (Printf.sprintf "inverters shared (%d raw, %d opt)" raw.Netlist.nots
       opt.Netlist.nots)
    true
    (opt.Netlist.nots < raw.Netlist.nots);
  Alcotest.(check bool)
    (Printf.sprintf "opt (%d) < raw (%d)" opt.Netlist.total_gates
       raw.Netlist.total_gates)
    true
    (opt.Netlist.total_gates < raw.Netlist.total_gates)

let test_holes_rejected () =
  let open Hdl.Builder in
  let c = create "holed" in
  let a = input c "a" 4 in
  let h = hole c "h" 4 ~deps:[ a ] in
  output c "o" (a ^: h);
  let d = finalize c in
  match Netlist.compile d with
  | exception Netlist.Netlist_error _ -> ()
  | _ -> Alcotest.fail "expected rejection of design with holes"

let test_monotone_on_cores () =
  (* raw >= optimized on a real design, and generated >= reference raw *)
  let refd = Designs.Riscv_single.reference_design Isa.Rv32.RV32I in
  let raw = counts refd in
  let opt = counts ~optimize:true refd in
  Alcotest.(check bool) "opt <= raw" true
    (opt.Netlist.total_gates <= raw.Netlist.total_gates);
  Alcotest.(check bool) "plausible size" true (raw.Netlist.total_gates > 1000);
  Alcotest.(check int) "rf + pc dffs" (1024 + 32) raw.Netlist.dffs

(* {1 The gate graph against the interpreter} *)

let check_graphs name d states =
  Gate_check.agree name d states
    (List.map
       (fun optimize ->
         ( (if optimize then "opt" else "raw"),
           Gate_check.eval_graph (Netlist.compile ~optimize d) ))
       [ false; true ])

let test_registry_graphs () =
  List.iter
    (fun (name, design, isa) ->
      let d = design () in
      check_graphs name d (Gate_check.states d isa))
    Gate_check.registry

let test_small_graphs () =
  List.iter
    (fun design ->
      let d = design () in
      check_graphs d.Oyster.Ast.name d (Gate_check.states ~n:64 d None))
    Gate_check.small

let test_random_graphs () =
  List.iter
    (fun d -> check_graphs d.Oyster.Ast.name d (Gate_check.states ~n:64 d None))
    (Gate_check.random ())

let test_synthesized_graph () =
  let d = Gate_check.synthesized_alu () in
  check_graphs "synthesized alu" d (Gate_check.states d None)

let () =
  Alcotest.run "netlist"
    [ ("counts",
       [ Alcotest.test_case "adder" `Quick test_adder_counts;
         Alcotest.test_case "registers" `Quick test_register_dffs;
         Alcotest.test_case "materialized memory" `Quick test_memory_materialization;
         Alcotest.test_case "black-box memory" `Quick test_blackbox_memory;
         Alcotest.test_case "rom folding" `Quick test_rom_constant_fold;
         Alcotest.test_case "table 2 pinned" `Quick test_table2_pinned;
         Alcotest.test_case "counts repeat after other evaluations" `Quick
           test_counts_repeat ]);
      ("interp",
       [ Alcotest.test_case "registry designs" `Quick test_registry_graphs;
         Alcotest.test_case "builder designs" `Quick test_small_graphs;
         Alcotest.test_case "random designs" `Quick test_random_graphs;
         Alcotest.test_case "synthesized alu" `Quick test_synthesized_graph ]);
      ("optimizer",
       [ Alcotest.test_case "cse + dead code" `Quick test_optimize_shrinks;
         Alcotest.test_case "cores monotone" `Quick test_monotone_on_cores ]);
      ("errors", [ Alcotest.test_case "holes rejected" `Quick test_holes_rejected ]) ]
