(* Tseitin bit-blasting with structural gate caching, built on the generic
   circuit constructors of {!Circuit}. *)

type t = {
  sat : Sat.t;
  tlit : int;  (* always-true literal *)
  gate_cache : (int * int * int * int, int) Hashtbl.t;
  var_bits_tbl : (string, int array) Hashtbl.t;
  mutable translate : Term.t -> int array;
}

let lit_false c = -c.tlit
let var_bits c name = Hashtbl.find_opt c.var_bits_tbl name

let tag_and = 0
let tag_xor = 1
let tag_ite = 2

let cached c key mk =
  match Hashtbl.find_opt c.gate_cache key with
  | Some g -> g
  | None ->
      let g = mk () in
      Hashtbl.add c.gate_cache key g;
      g

let mk_and c a b =
  if a = lit_false c || b = lit_false c then lit_false c
  else if a = c.tlit then b
  else if b = c.tlit then a
  else if a = b then a
  else if a = -b then lit_false c
  else
    let a, b = if a < b then (a, b) else (b, a) in
    cached c (tag_and, a, b, 0) (fun () ->
        let g = Sat.new_var c.sat in
        Sat.add_clause c.sat [ -g; a ];
        Sat.add_clause c.sat [ -g; b ];
        Sat.add_clause c.sat [ g; -a; -b ];
        g)

let mk_or c a b = -mk_and c (-a) (-b)

let mk_xor c a b =
  if a = lit_false c then b
  else if b = lit_false c then a
  else if a = c.tlit then -b
  else if b = c.tlit then -a
  else if a = b then lit_false c
  else if a = -b then c.tlit
  else begin
    let negate = (if a < 0 then 1 else 0) + (if b < 0 then 1 else 0) in
    let a = abs a and b = abs b in
    let a, b = if a < b then (a, b) else (b, a) in
    let g =
      cached c (tag_xor, a, b, 0) (fun () ->
          let g = Sat.new_var c.sat in
          Sat.add_clause c.sat [ -g; a; b ];
          Sat.add_clause c.sat [ -g; -a; -b ];
          Sat.add_clause c.sat [ g; -a; b ];
          Sat.add_clause c.sat [ g; a; -b ];
          g)
    in
    if negate land 1 = 1 then -g else g
  end

let mk_ite_raw c cond a b =
  let g = Sat.new_var c.sat in
  Sat.add_clause c.sat [ -g; -cond; a ];
  Sat.add_clause c.sat [ g; -cond; -a ];
  Sat.add_clause c.sat [ -g; cond; b ];
  Sat.add_clause c.sat [ g; cond; -b ];
  (* redundant but propagation-strengthening *)
  Sat.add_clause c.sat [ -g; a; b ];
  Sat.add_clause c.sat [ g; -a; -b ];
  g

let mk_ite c cond a b =
  if cond = c.tlit then a
  else if cond = lit_false c then b
  else if a = b then a
  else if a = c.tlit && b = lit_false c then cond
  else if a = lit_false c && b = c.tlit then -cond
  else if cond < 0 then
    cached c (tag_ite, -cond, b, a) (fun () -> mk_ite_raw c (-cond) b a)
  else cached c (tag_ite, cond, a, b) (fun () -> mk_ite_raw c cond a b)

let create sat =
  let v = Sat.new_var sat in
  Sat.add_clause sat [ v ];
  let c =
    {
      sat;
      tlit = v;
      (* grown on demand: most contexts serve one small one-shot check,
         and a preallocated 4096-bucket table was each check's largest
         allocation *)
      gate_cache = Hashtbl.create 64;
      var_bits_tbl = Hashtbl.create 64;
      translate = (fun _ -> assert false);
    }
  in
  let module G = struct
    type lit = int

    let tru = c.tlit
    let fls = -c.tlit
    let neg l = -l
    let mk_and = mk_and c
    let mk_or = mk_or c
    let mk_xor = mk_xor c
    let mk_ite = mk_ite c
  end in
  let module W = Circuit.Words (G) in
  let tctx =
    W.make_tctx
      ~var_bits:(fun name w ->
        match Hashtbl.find_opt c.var_bits_tbl name with
        | Some bits -> bits
        | None ->
            let bits = Array.init w (fun _ -> Sat.new_var c.sat) in
            Hashtbl.replace c.var_bits_tbl name bits;
            bits)
      ~read_bits:(fun m _ ->
        invalid_arg
          (Printf.sprintf
             "Blast.blast: unresolved memory read of %s (Ackermannize first)"
             m.Term.mem_name))
  in
  c.translate <- W.term_bits tctx;
  c

let blast c t = c.translate t

let h_clauses_per_assert = Obs.histogram "blast.clauses_per_assert"

(* the per-assert clause delta is recorded only when metrics are on *)
let with_clause_count c f =
  if Obs.metrics_enabled () then begin
    let before = Sat.num_clauses c.sat in
    f ();
    Obs.observe h_clauses_per_assert (Sat.num_clauses c.sat - before)
  end
  else f ()

let assert_term c t =
  if Term.width t <> 1 then invalid_arg "Blast.assert_term: width <> 1";
  with_clause_count c (fun () ->
      let bits = blast c t in
      Sat.add_clause c.sat [ bits.(0) ])

let fresh_lit c = Sat.new_var c.sat
