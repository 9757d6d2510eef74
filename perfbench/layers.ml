(* Per-layer costs measured from outside: timed calls into each layer's
   public functions on a workload's own problems, after its traced pass.
   Nothing here adds a span to the program; the traced pass supplies the
   span-derived figures and these calls supply the layers no span covers
   (symbolic evaluation, condition compilation, violation construction,
   Ackermann expansion, and blasting into a fresh solver). *)

type input = {
  problem : Synth.Engine.problem;  (** the sketch, as the engine gets it *)
  completed : Oyster.Ast.design;  (** a hole-free design for the violation *)
}

let measure inputs =
  let acc = Hashtbl.create 16 in
  let add k v =
    Hashtbl.replace acc k (v +. Option.value (Hashtbl.find_opt acc k) ~default:0.0)
  in
  List.iter
    (fun { problem; completed } ->
      let open Synth.Engine in
      (* a fresh prefix, so evaluation interns new terms as a first run
         would instead of finding the engine's own in the hash-cons table *)
      let trace, t_eval =
        Clock.time (fun () ->
            Oyster.Symbolic.eval ~prefix:(Oyster.Symbolic.fresh_prefix ())
              problem.design ~cycles:problem.af.Ila.Absfun.cycles)
      in
      add "symbolic.eval_s" t_eval;
      let _, t_cond =
        Clock.time (fun () -> Ila.Conditions.compile problem.spec problem.af trace)
      in
      add "conditions.compile_s" t_cond;
      let v, t_viol =
        Clock.time (fun () -> monolithic_violation { problem with design = completed })
      in
      add "term.violation_s" t_viol;
      add "term.violation_nodes" (float_of_int (Term.size v));
      let (terms, _), t_ack = Clock.time (fun () -> Solver.ackermannize [ v ]) in
      add "solver.ackermannize_s" t_ack;
      let sat = Sat.create () in
      let ctx = Blast.create sat in
      let (), t_blast = Clock.time (fun () -> List.iter (Blast.assert_term ctx) terms) in
      add "blast.assert_s" t_blast;
      add "blast.vars" (float_of_int (Sat.num_vars sat));
      add "blast.clauses" (float_of_int (Sat.encoded_clauses sat)))
    inputs;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
