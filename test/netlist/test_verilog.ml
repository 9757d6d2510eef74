(* Tests for `owl verilog': the structural Verilog printed from the gate
   graph.  No Verilog simulator is available, so the test reads the text
   back — only the printer's own line forms — and evaluates it against
   [Oyster.Interp] on the states the netlist check uses. *)

let print d = Netlist.(verilog (compile ~optimize:true d))

(* {1 Reading the printed text back}

   Each line becomes a closure over lane words (see {!Gate_check}), so one
   run of the lines is one clock cycle in every state of a batch. *)

type env = {
  v : int array;
  batch : Gate_check.state array;
  leaves : (string, int) Hashtbl.t;  (* lane word per leaf operand *)
  cells : (string * int, Bitvec.t array) Hashtbl.t;  (* every state's cell *)
}

let between s a b =
  let i = String.index s a + 1 in
  String.sub s i (String.rindex s b - i)

(* [s] split around the first [sep] *)
let cut s sep =
  let n = String.length sep in
  let rec go i =
    if String.sub s i n = sep then
      (String.sub s 0 i, String.sub s (i + n) (String.length s - i - n))
    else go (i + 1)
  in
  go 0

let drop_semi s = String.sub s 0 (String.length s - 1)

(* A gate's bit is [g[i]]; a leaf is an input or register bit [n[k]] or a
   memory cell's bit [m[a][k]] ([aws]: address width per memory). *)
let operand ~gv ~aws s =
  let leaf bit e =
    Gate_check.memo e.leaves s (fun () ->
        Gate_check.lane_word (Array.length e.batch) (fun j -> bit e j e.batch.(j)))
  in
  let index x = int_of_string (String.sub x 0 (String.length x - 1)) in
  match String.split_on_char '[' s with
  | [ "1'b0" ] -> fun _ -> 0
  | [ "1'b1" ] -> fun _ -> -1
  | [ name; k ] when name = gv ->
      let k = index k in
      fun e -> e.v.(k)
  | [ name; k ] ->
      let k = index k in
      leaf (fun _ _ st ->
          match List.assoc_opt name st.Gate_check.inputs with
          | Some v -> Bitvec.bit v k
          | None -> Bitvec.bit (List.assoc name st.Gate_check.regs) k)
  | [ name; a; k ] ->
      let a = index a and k = index k in
      let addr = Bitvec.of_int ~width:(List.assoc name aws) a in
      leaf (fun e j _ ->
          let vs =
            Gate_check.memo e.cells (name, a) (fun () ->
                Array.map (fun st -> st.Gate_check.mem name addr) e.batch)
          in
          Bitvec.bit vs.(j) k)
  | _ -> Alcotest.failf "unreadable operand: %s" s

(* "{msb, ..., lsb}" as LSB-first operands *)
let bus ~gv ~aws s =
  between s '{' '}' |> String.split_on_char ','
  |> List.rev_map (fun o -> operand ~gv ~aws (String.trim o))
  |> Array.of_list

let read_back text : Gate_check.state array -> Gate_check.effects array =
  let lines = String.split_on_char '\n' text in
  (* declarations: the gate vector, and each memory's address width *)
  let scan prefix fmt f l =
    if String.starts_with ~prefix l then
      try Some (Scanf.sscanf l fmt f) with Scanf.Scan_failure _ | End_of_file -> None
    else None
  in
  let size, gv =
    List.hd
      (List.filter_map
         (scan "  wire [" "  wire [%d:0] %[^;];%!" (fun n g -> (n + 1, g)))
         lines)
  in
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  let aws =
    List.filter_map
      (scan "  reg [" "  reg [%_d:0] %s [0:%d];%!" (fun m top -> (m, log2 (top + 1))))
      lines
  in
  let operand = operand ~gv ~aws and bus = bus ~gv ~aws in
  let eval_bus e bits = Array.map (fun f -> f e) bits in
  (* roots, as lane words: outputs, next states, and writes with their
     address per state and enable *)
  let outs = ref [] and regs = ref [] and writes = ref [] in
  let step l =
    let body prefix =
      String.sub l (String.length prefix) (String.length l - String.length prefix)
    in
    if String.starts_with ~prefix:"  assign " l then begin
      let lhs, rhs = cut (drop_semi (body "  assign ")) " = " in
      match String.index_opt lhs '[' with
      | None ->
          let bits = bus rhs in
          Some (fun e -> outs := (lhs, eval_bus e bits) :: !outs)
      | Some _ when String.contains lhs ':' ->
          (* a read port: g[hi:lo] = m[{addr}] *)
          let lo = int_of_string (between lhs ':' ']') in
          let m = String.sub rhs 0 (String.index rhs '[') and addr = bus rhs in
          Some
            (fun e ->
              let addr = eval_bus e addr in
              let read s st = st.Gate_check.mem m (Gate_check.word_at s addr) in
              let data = Array.mapi read e.batch in
              for k = 0 to Bitvec.width data.(0) - 1 do
                e.v.(lo + k) <-
                  Gate_check.lane_word (Array.length data) (fun s -> Bitvec.bit data.(s) k)
              done)
      | Some _ ->
          let i = int_of_string (between lhs '[' ']') in
          let f =
            match String.split_on_char ' ' rhs with
            | [ a; op; b ] ->
                let a = operand a and b = operand b in
                let f =
                  match op with
                  | "&" -> ( land )
                  | "|" -> ( lor )
                  | "^" -> ( lxor )
                  | _ -> Alcotest.failf "unreadable gate: %s" l
                in
                fun e -> f (a e) (b e)
            | [ c; "?"; a; ":"; b ] ->
                let c = operand c and a = operand a and b = operand b in
                fun e -> (c e land a e) lor (lnot (c e) land b e)
            | [ a ] when a.[0] = '~' ->
                let a = operand (String.sub a 1 (String.length a - 1)) in
                fun e -> lnot (a e)
            | _ -> Alcotest.failf "unreadable gate: %s" l
          in
          Some (fun e -> e.v.(i) <- f e)
    end
    else if String.starts_with ~prefix:"    if (" l then begin
      (* a black-box write: if (en) m[{addr}] <= {data}; *)
      let en, rest = cut (body "    if (") ") " in
      let target, data = cut (drop_semi rest) " <= " in
      let en = operand en and addr = bus target and data = bus data in
      let m = String.sub target 0 (String.index target '[') in
      Some
        (fun e ->
          let addr = eval_bus e addr in
          let at s = Gate_check.word_at s addr in
          writes := (m, at, eval_bus e data, en e) :: !writes)
    end
    else if String.starts_with ~prefix:"    " l && String.contains l '<' then begin
      let target, data = cut (drop_semi (String.trim l)) " <= " in
      let data = bus data in
      match String.index_opt target '[' with
      | None -> Some (fun e -> regs := (target, eval_bus e data) :: !regs)
      | Some i ->
          (* a materialized cell: m[a] <= {data} *)
          let m = String.sub target 0 i in
          let a = int_of_string (between target '[' ']') in
          let a = Bitvec.of_int ~width:(List.assoc m aws) a in
          Some (fun e -> writes := (m, (fun _ -> a), eval_bus e data, -1) :: !writes)
    end
    else None
  in
  let steps = List.filter_map step lines in
  fun batch ->
    outs := [];
    regs := [];
    writes := [];
    let leaves = Hashtbl.create 1024 and cells = Hashtbl.create 64 in
    let e = { v = Array.make size 0; batch; leaves; cells } in
    List.iter (fun step -> step e) steps;
    let at s = List.rev_map (fun (n, ws) -> (n, Gate_check.word_at s ws)) in
    Array.mapi
      (fun s st ->
        let writes =
          List.filter_map
            (fun (m, addr, data, en) ->
              if Gate_check.lane en s then
                Some (m, addr s, Gate_check.word_at s data)
              else None)
            (List.rev !writes)
        in
        Gate_check.rows (at s !outs) (at s !regs) (Gate_check.commit st writes))
      batch

(* {1 Tests} *)

let lines_of text = String.split_on_char '\n' text

(* every registry design with its printed text *)
let printed =
  lazy
    (List.map
       (fun (name, design, isa) ->
         let d = design () in
         (name, d, isa, print d))
       Gate_check.registry)

let test_reference_designs () =
  List.iter
    (fun (name, d, _, text) ->
      let ls = lines_of text in
      let has what l =
        Alcotest.(check bool) (name ^ ": " ^ what) true
          (List.mem l ls || List.mem (l ^ ",") ls)
      in
      let range w = Printf.sprintf "[%d:0]" (w - 1) in
      has "module header" ("module " ^ d.Oyster.Ast.name ^ "(");
      has "endmodule" "endmodule";
      has "clock" "  input clk";
      let each decls line = List.iter (fun (n, w) -> has n (line (range w) n)) decls in
      each (Oyster.Ast.inputs d) (Printf.sprintf "  input %s %s");
      each (Oyster.Ast.outputs d) (Printf.sprintf "  output %s %s");
      each (Oyster.Ast.registers d) (Printf.sprintf "  reg %s %s = 0;");
      List.iter
        (fun (n, aw, dw) ->
          has n (Printf.sprintf "  reg %s %s [0:%d];" (range dw) n ((1 lsl aw) - 1)))
        (Oyster.Ast.memories d))
    (Lazy.force printed)

let test_holes_rejected () =
  match print (Designs.Alu.sketch ()) with
  | exception Netlist.Netlist_error _ -> ()
  | _ -> Alcotest.fail "expected rejection of a sketch with holes"

let test_synthesized () =
  let d = Gate_check.synthesized_alu () in
  let text = print d in
  Alcotest.(check bool) "module header" true
    (List.mem "module alu3(" (lines_of text));
  Gate_check.agree "synthesized alu" d (Gate_check.states d None)
    [ ("text", read_back text) ]

let test_read_back () =
  List.iter
    (fun (name, d, isa, text) ->
      Gate_check.agree name d (Gate_check.states d isa) [ ("text", read_back text) ])
    (Lazy.force printed);
  List.iter
    (fun d ->
      Gate_check.agree d.Oyster.Ast.name d (Gate_check.states ~n:64 d None)
        [ ("text", read_back (print d)) ])
    (List.map (fun design -> design ()) Gate_check.small @ Gate_check.random ())

let () =
  Alcotest.run "verilog"
    [ ("emission",
       [ Alcotest.test_case "reference designs" `Quick test_reference_designs;
         Alcotest.test_case "holes rejected" `Quick test_holes_rejected;
         Alcotest.test_case "synthesized design" `Quick test_synthesized;
         Alcotest.test_case "read-back agrees with interp" `Quick test_read_back ]) ]
