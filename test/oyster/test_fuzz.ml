(* Cross-cutting fuzz properties over randomly generated well-typed
   designs (Gen_designs): every backend must handle every design, and the
   symbolic evaluator must agree with the concrete interpreter. *)

let bv = Alcotest.testable Bitvec.pp Bitvec.equal

let seeds = List.init 60 (fun i -> i + 1)

let test_typecheck_and_roundtrip () =
  List.iter
    (fun seed ->
      let d = Gen_designs.generate seed in
      (try ignore (Oyster.Typecheck.check d)
       with Oyster.Typecheck.Type_error m ->
         Alcotest.failf "seed %d: generated design ill-typed: %s" seed m);
      let text = Oyster.Printer.design_to_string d in
      let d' =
        try Oyster.Parser.parse_design text
        with Oyster.Parser.Parse_error m ->
          Alcotest.failf "seed %d: reparse failed: %s" seed m
      in
      Alcotest.(check string)
        (Printf.sprintf "seed %d round-trips" seed)
        text
        (Oyster.Printer.design_to_string d'))
    seeds

let test_symbolic_matches_interp () =
  List.iter
    (fun seed ->
      let d = Gen_designs.generate seed in
      let cycles = 2 in
      let trace = Oyster.Symbolic.eval d ~cycles in
      let rng = Random.State.make [| seed; 777 |] in
      let rand w = Bitvec.of_bits (Array.init w (fun _ -> Random.State.bool rng)) in
      (* concrete stimulus *)
      let input_val = Hashtbl.create 8 in
      List.iter
        (fun (n, w) ->
          for c = 1 to cycles do
            Hashtbl.replace input_val (n, c) (rand w)
          done)
        (Oyster.Ast.inputs d);
      let reg_init =
        List.map (fun (n, w) -> (n, rand w)) (Oyster.Ast.registers d)
      in
      let mem_image =
        Array.init (1 lsl Gen_designs.mem_aw) (fun _ -> rand Gen_designs.mem_dw)
      in
      (* concrete run *)
      let st =
        Oyster.Interp.init
          ~mem_init:(fun name _ dw addr ->
            if name = "m" then mem_image.(Bitvec.to_int_exn addr)
            else Bitvec.zero dw)
          d
      in
      List.iter (fun (n, v) -> Oyster.Interp.set_register st n v) reg_init;
      let out_names = List.map fst (Oyster.Ast.outputs d) in
      let concrete = ref [] in
      for c = 1 to cycles do
        let r =
          Oyster.Interp.step
            ~inputs:(fun name _ -> Hashtbl.find input_val (name, c))
            st
        in
        concrete :=
          List.map (fun n -> (n, c, List.assoc n r.Oyster.Interp.outputs)) out_names
          @ !concrete
      done;
      (* symbolic terms specialized to the same stimulus *)
      let p = trace.Oyster.Symbolic.prefix in
      let env =
        {
          Term.lookup_var =
            (fun name w ->
              if String.length name > String.length p
                 && String.sub name 0 (String.length p) = p
              then begin
                let rest =
                  String.sub name (String.length p)
                    (String.length name - String.length p)
                in
                match String.split_on_char '!' rest with
                | [ "reg"; n ] -> Some (List.assoc n reg_init)
                | [ "in"; n; c ] -> Some (Hashtbl.find input_val (n, int_of_string c))
                | _ -> Some (Bitvec.zero w)
              end
              else Some (Bitvec.zero w));
          Term.lookup_read =
            (fun m addr ->
              if m.Term.mem_name = p ^ "mem!m" then
                Some mem_image.(Bitvec.to_int_exn addr)
              else None);
        }
      in
      List.iter
        (fun (n, c, expected) ->
          let got = Term.eval env (Oyster.Symbolic.wire_at trace ~cycle:c n) in
          Alcotest.check bv
            (Printf.sprintf "seed %d %s cycle %d" seed n c)
            expected got)
        (List.rev !concrete);
      (* final state: registers and all memory cells *)
      List.iter
        (fun (n, _) ->
          Alcotest.check bv
            (Printf.sprintf "seed %d final %s" seed n)
            (Oyster.Interp.get_register st n)
            (Term.eval env (Oyster.Symbolic.reg_at trace ~state:cycles n)))
        (Oyster.Ast.registers d);
      for a = 0 to (1 lsl Gen_designs.mem_aw) - 1 do
        let addr = Bitvec.of_int ~width:Gen_designs.mem_aw a in
        Alcotest.check bv
          (Printf.sprintf "seed %d mem[%d]" seed a)
          (Oyster.Interp.read_mem st "m" addr)
          (Term.eval env
             (Oyster.Symbolic.read_mem_at trace ~state:cycles "m" (Term.const addr)))
      done)
    seeds

let test_backends_accept () =
  List.iter
    (fun seed ->
      let d = Gen_designs.generate seed in
      (* netlist, both modes; the optimizer never grows the gate count *)
      let raw = Netlist.(counts (compile ~optimize:false d)) in
      let g = Netlist.compile ~optimize:true d in
      let opt = Netlist.counts g in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d netlist monotone" seed)
        true
        (opt.Netlist.total_gates <= raw.Netlist.total_gates);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d dff count stable" seed)
        true
        (opt.Netlist.dffs = raw.Netlist.dffs);
      (* the gate graph prints *)
      let v = Netlist.verilog g in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d verilog" seed)
        true
        (String.length v > 0))
    seeds

let () =
  Alcotest.run "oyster-fuzz"
    [ ("fuzz",
       [ Alcotest.test_case "typecheck + text round-trip" `Quick
           test_typecheck_and_roundtrip;
         Alcotest.test_case "symbolic matches interpreter" `Quick
           test_symbolic_matches_interp;
         Alcotest.test_case "netlist + verilog backends" `Quick
           test_backends_accept ]) ]
