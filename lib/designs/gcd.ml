(* A GCD accelerator: a second FSM-style case study (beyond AES)
   demonstrating the §4.3 claim that the technique carries to accelerators
   in other domains, and exercising a feature the RISC-V decoders do not:
   ILA instructions triggered by *data-dependent* state criteria (paper
   §2.1: "trigger an instruction only when certain criteria in its state
   and input values are met").

   Architectural spec: a/b (16-bit operands), busy (1).  Five instructions
   partition the decode space: LOAD (idle & start), STEP_A (busy & a > b),
   STEP_B (busy & b > a), DONE (busy & a = b), and IDLE (idle & ~start,
   all-frame) — so the machine's behaviour is fully specified.

   The sketch's FSM value is a Per_instruction hole over the comparison
   wires; the four active-branch encodings are Shared 3-bit holes, and the
   synthesizer must place IDLE's state outside the three that write an
   operand or set [busy].  DONE's encoding only clears [busy], which IDLE's
   decode already has clear, so IDLE may take it or the hold-everything
   default branch. *)

let operand_width = 16

let spec () =
  let s = Ila.Spec.create "gcd" in
  let a_in = Ila.Spec.new_bv_input s "a_in" operand_width in
  let b_in = Ila.Spec.new_bv_input s "b_in" operand_width in
  let start = Ila.Spec.new_bv_input s "start" 1 in
  let a = Ila.Spec.new_bv_state s "a" operand_width in
  let b = Ila.Spec.new_bv_state s "b" operand_width in
  let busy = Ila.Spec.new_bv_state s "busy" 1 in
  let open Ila.Expr in
  let idle = busy == fls in
  let load = Ila.Spec.new_instr s "LOAD" in
  Ila.Spec.set_decode load (idle && (start == tru));
  Ila.Spec.set_update load "a" a_in;
  Ila.Spec.set_update load "b" b_in;
  Ila.Spec.set_update load "busy" tru;
  let step_a = Ila.Spec.new_instr s "STEP_A" in
  Ila.Spec.set_decode step_a ((busy == tru) && (b < a));
  Ila.Spec.set_update step_a "a" (a - b);
  let step_b = Ila.Spec.new_instr s "STEP_B" in
  Ila.Spec.set_decode step_b ((busy == tru) && (a < b));
  Ila.Spec.set_update step_b "b" (b - a);
  let done_ = Ila.Spec.new_instr s "DONE" in
  Ila.Spec.set_decode done_ ((busy == tru) && (a == b));
  Ila.Spec.set_update done_ "busy" fls;
  let idle_i = Ila.Spec.new_instr s "IDLE" in
  Ila.Spec.set_decode idle_i (idle && (start == fls));
  s

let sketch () =
  let open Hdl.Builder in
  let c = create "gcd_accel" in
  let a_in = input c "a_in" operand_width in
  let b_in = input c "b_in" operand_width in
  let start = input c "start" 1 in
  let a = register c "a" operand_width in
  let b = register c "b" operand_width in
  let busy = register c "busy" 1 in
  (* comparison network (datapath) *)
  let agb = wire c "agb" (a >: b) in
  let bga = wire c "bga" (b >: a) in
  let aeb = wire c "aeb" (a ==: b) in
  let st =
    hole c "st" 3 ~deps:[ busy; start; agb; bga; aeb ]
  in
  let enc_load = hole c "enc_load" 3 ~kind:Oyster.Ast.Shared ~deps:[] in
  let enc_suba = hole c "enc_suba" 3 ~kind:Oyster.Ast.Shared ~deps:[] in
  let enc_subb = hole c "enc_subb" 3 ~kind:Oyster.Ast.Shared ~deps:[] in
  let enc_done = hole c "enc_done" 3 ~kind:Oyster.Ast.Shared ~deps:[] in
  let is e = st ==: e in
  set_register c a (mux (is enc_load) a_in (mux (is enc_suba) (a -: b) a));
  set_register c b (mux (is enc_load) b_in (mux (is enc_subb) (b -: a) b));
  set_register c busy
    (mux (is enc_load) tru (mux (is enc_done) fls busy));
  output c "result" a;
  output c "ready" (bnot busy);
  finalize c

let abstraction () =
  Ila.Absfun.make ~cycles:1
    [ Ila.Absfun.mapping ~spec:"a_in" ~dp:"a_in" ~ty:Ila.Absfun.Dinput ~reads:[ 1 ] ();
      Ila.Absfun.mapping ~spec:"b_in" ~dp:"b_in" ~ty:Ila.Absfun.Dinput ~reads:[ 1 ] ();
      Ila.Absfun.mapping ~spec:"start" ~dp:"start" ~ty:Ila.Absfun.Dinput ~reads:[ 1 ] ();
      Ila.Absfun.mapping ~spec:"a" ~dp:"a" ~ty:Ila.Absfun.Dregister ~reads:[ 1 ]
        ~writes:[ 1 ] ();
      Ila.Absfun.mapping ~spec:"b" ~dp:"b" ~ty:Ila.Absfun.Dregister ~reads:[ 1 ]
        ~writes:[ 1 ] ();
      Ila.Absfun.mapping ~spec:"busy" ~dp:"busy" ~ty:Ila.Absfun.Dregister ~reads:[ 1 ]
        ~writes:[ 1 ] () ]

let problem () =
  { Synth.Engine.design = sketch (); spec = spec (); af = abstraction () }

let reference_bindings () =
  let c3 n = Oyster.Ast.Const (Bitvec.of_int ~width:3 n) in
  let v n = Oyster.Ast.Var n in
  let ( &&& ) a b = Oyster.Ast.Binop (Oyster.Ast.And, a, b) in
  let nott a = Oyster.Ast.Unop (Oyster.Ast.Not, a) in
  let ite c a b = Oyster.Ast.Ite (c, a, b) in
  [ ("st",
     ite (nott (v "busy") &&& v "start") (c3 0)
       (ite (v "busy" &&& v "agb") (c3 1)
          (ite (v "busy" &&& v "bga") (c3 2)
             (ite (v "busy" &&& v "aeb") (c3 3) (c3 7)))));
    ("enc_load", c3 0);
    ("enc_suba", c3 1);
    ("enc_subb", c3 2);
    ("enc_done", c3 3) ]

let reference_design () =
  let d = Oyster.Ast.fill_holes (sketch ()) (reference_bindings ()) in
  ignore (Oyster.Typecheck.check d);
  d

(* Run a completed accelerator: start with the operands, step until ready,
   return (result, cycles). *)
let run design ~a ~b ~max_cycles =
  let st = Oyster.Interp.init design in
  let feed start =
    Oyster.Interp.step
      ~inputs:(fun name _ ->
        match name with
        | "a_in" -> Bitvec.of_int ~width:operand_width a
        | "b_in" -> Bitvec.of_int ~width:operand_width b
        | "start" -> Bitvec.of_int ~width:1 (if start then 1 else 0)
        | _ -> assert false)
      st
  in
  ignore (feed true);
  let rec go n =
    if n >= max_cycles then None
    else begin
      let r = feed false in
      if Bitvec.is_ones (List.assoc "ready" r.Oyster.Interp.outputs) then
        Some (Bitvec.to_int_exn (List.assoc "result" r.Oyster.Interp.outputs), n + 1)
      else go (n + 1)
    end
  in
  go 0
