(* Shared random-term generator for the smt test suites.

   Each generated node pairs the Term (built through the simplifying smart
   constructors) with an independent reference evaluator built directly on
   Bitvec, so tests can detect unsound simplifications. *)

type gen_term = {
  term : Term.t;
  reval : (string -> Bitvec.t) -> Bitvec.t;  (* reference evaluation *)
  twidth : int;
}

(* Variable pool: names encode the width so the global registry never sees a
   clash. *)
(* Terms are rooted at widths in [root_widths].  Below 12 bits the derived
   widths (extract sources, comparison operands, ...) stay within 1..12, all
   in the pool.  Under a 32- or 64-bit root, concat and extend split the
   width anywhere, so a derived width outside the pool gets constant leaves
   only; its symbolic content arrives through extracts of a 64-bit source. *)
let root_widths = [ 1; 2; 3; 5; 8; 32; 64 ]
let var_widths = List.init 12 (fun i -> i + 1) @ [ 32; 64 ]
let vars_per_width = 2

let var_name w i = Printf.sprintf "gv%d_%d" w i

let all_vars =
  List.concat_map
    (fun w -> List.init vars_per_width (fun i -> (var_name w i, w)))
    var_widths

let gen_var w =
  QCheck.Gen.(
    0 -- (vars_per_width - 1) >>= fun i ->
    let name = var_name w i in
    return { term = Term.var name w; reval = (fun env -> env name); twidth = w })

let gen_const w =
  QCheck.Gen.(
    array_size (return w) bool >>= fun bits ->
    let v = Bitvec.of_bits bits in
    return { term = Term.const v; reval = (fun _ -> v); twidth = w })

let gen_leaf w =
  if List.mem w var_widths then QCheck.Gen.oneof [ gen_var w; gen_const w ]
  else gen_const w

(* The operators Term folds over constant unions. *)
let quadratic_binops =
  [ (Term.mul, Bitvec.mul);
    (Term.udiv, Bitvec.udiv);
    (Term.urem, Bitvec.urem);
    (Term.sdiv, Bitvec.sdiv);
    (Term.srem, Bitvec.srem);
    (Term.clmul, Bitvec.clmul);
    (Term.clmulh, Bitvec.clmulh)
  ]

let binops =
  [ (Term.band, Bitvec.logand);
    (Term.bor, Bitvec.logor);
    (Term.bxor, Bitvec.logxor);
    (Term.add, Bitvec.add);
    (Term.sub, Bitvec.sub);
    (Term.shl, Bitvec.shl);
    (Term.lshr, Bitvec.lshr);
    (Term.ashr, Bitvec.ashr)
  ]
  @ quadratic_binops

(* A constant union: an ite-tree with 1..17 constant leaves under width-1
   guards, so some trees exceed Term's 16-leaf cap.  Guards are single bits
   of the 1- to 3-bit variables: twelve distinct ones, so a tree seldom
   collapses, and none outside the solver tests' brute-force pool.  Leaves
   favour zero, one, all-ones and the signed minimum, the divisors and
   dividends with special cases. *)
let gen_guard =
  QCheck.Gen.(
    triple (1 -- 3) (0 -- (vars_per_width - 1)) (0 -- 2) >>= fun (w, i, b) ->
    let name = var_name w i and b = b mod w in
    return
      {
        term = Term.bit (Term.var name w) b;
        reval = (fun env -> Bitvec.extract ~high:b ~low:b (env name));
        twidth = 1;
      })

let gen_union_leaf w =
  QCheck.Gen.(
    frequency
      [ (3, gen_const w);
        ( 2,
          oneofl
            [ Bitvec.zero w;
              Bitvec.one w;
              Bitvec.ones w;
              Bitvec.shl (Bitvec.one w) (Bitvec.of_int ~width:8 (w - 1)) ]
          >>= fun v -> return { term = Term.const v; reval = (fun _ -> v); twidth = w } )
      ])

let rec gen_union_leaves w n =
  let open QCheck.Gen in
  if n <= 1 then gen_union_leaf w
  else
    1 -- (n - 1) >>= fun k ->
    triple gen_guard (gen_union_leaves w k) (gen_union_leaves w (n - k))
    >>= fun (c, a, b) ->
    return
      {
        term = Term.ite c.term a.term b.term;
        reval =
          (fun env ->
            if Bitvec.is_ones (c.reval env) then a.reval env else b.reval env);
        twidth = w;
      }

let gen_union w = QCheck.Gen.(1 -- 17 >>= gen_union_leaves w)

(* [concat] of two constant unions, split anywhere in width [w]. *)
let gen_union_concat w =
  QCheck.Gen.(
    1 -- (w - 1) >>= fun wl ->
    pair (gen_union (w - wl)) (gen_union wl) >>= fun (hi, lo) ->
    return
      {
        term = Term.concat hi.term lo.term;
        reval = (fun env -> Bitvec.concat (hi.reval env) (lo.reval env));
        twidth = w;
      })

(* The operands of a high multiply, at even width [w]: two unions of
   width [w/2], each sign-extended (the concat of its replicated msb with
   it) or zero-extended (the concat of zeros with it), fed to [mul] or
   [udiv]. *)
let gen_extended_product w =
  let open QCheck.Gen in
  let extended =
    bool >>= fun signed ->
    gen_union (w / 2) >>= fun u ->
    return
      {
        term = (if signed then Term.sext u.term w else Term.zext u.term w);
        reval =
          (fun env ->
            if signed then Bitvec.sext (u.reval env) w else Bitvec.zext (u.reval env) w);
        twidth = w;
      }
  in
  oneofl [ (Term.mul, Bitvec.mul); (Term.udiv, Bitvec.udiv) ] >>= fun (tf, rf) ->
  pair extended extended >>= fun (a, b) ->
  return
    {
      term = tf a.term b.term;
      reval = (fun env -> rf (a.reval env) (b.reval env));
      twidth = w;
    }

(* {1 Memories and tables}

   Reads come from two small memories per data width (3- and 4-bit
   addresses) and from one 4-entry table per data width; the names embed
   the widths, so hash-consing by name never meets a clash.  The reference
   evaluator reads every memory through the fixed function [mem_value],
   which [term_env_of] in the tests exposes as [lookup_read]. *)

let hash_bits w key =
  Bitvec.of_bits (Array.init w (fun i -> Hashtbl.hash (key, i) land 1 = 1))

let mem_value (m : Term.mem) addr =
  hash_bits m.Term.data_width (m.Term.mem_name, Bitvec.to_string addr)

let mem_of w aw =
  { Term.mem_name = Printf.sprintf "gm%d_%d" w aw; addr_width = aw; data_width = w }

(* one physical table per width, so the registry sees the same contents *)
let tables : (int, Term.table) Hashtbl.t = Hashtbl.create 16

let table_of w =
  match Hashtbl.find_opt tables w with
  | Some tb -> tb
  | None ->
      let name = Printf.sprintf "gt%d" w in
      let tb =
        { Term.tab_name = name;
          tab_addr_width = 2;
          tab_data = Array.init 4 (fun i -> hash_bits w (name, i)) }
      in
      Hashtbl.add tables w tb;
      tb

let cmps =
  [ (Term.eq, fun a b -> Bitvec.equal a b);
    (Term.ult, Bitvec.ult);
    (Term.ule, Bitvec.ule);
    (Term.slt, Bitvec.slt);
    (Term.sle, Bitvec.sle)
  ]

let bool_of b = if b then Bitvec.one 1 else Bitvec.zero 1

(* [~memory] adds memory and table reads; they are left out of the terms
   the solver suites decide, whose reference semantics fix one memory
   while the solver leaves memory uninterpreted. *)
let rec gen_sized ~memory w size =
  let open QCheck.Gen in
  let gen_sized = gen_sized ~memory in
  if size <= 0 then gen_leaf w
  else
    let sub = gen_sized w (size / 2) in
    let reads =
      [ (* memory read at a generated address *)
        ( 2,
          oneofl [ 3; 4 ] >>= fun aw ->
          gen_sized aw (size / 2) >>= fun a ->
          let m = mem_of w aw in
          return
            {
              term = Term.read m a.term;
              reval = (fun env -> mem_value m (a.reval env));
              twidth = w;
            } );
        (* table read *)
        ( 1,
          gen_sized 2 (size / 2) >>= fun i ->
          let tb = table_of w in
          return
            {
              term = Term.table_read tb i.term;
              reval =
                (fun env -> tb.Term.tab_data.(Bitvec.to_int_exn (i.reval env)));
              twidth = w;
            } )
      ]
    in
    let candidates =
      (if memory then reads else [])
      @ [ (* unary not *)
        ( 2,
          sub >>= fun a ->
          return
            {
              term = Term.bnot a.term;
              reval = (fun env -> Bitvec.lognot (a.reval env));
              twidth = w;
            } );
        (* binop *)
        ( 6,
          oneofl binops >>= fun (tf, rf) ->
          pair sub sub >>= fun (a, b) ->
          return
            {
              term = tf a.term b.term;
              reval = (fun env -> rf (a.reval env) (b.reval env));
              twidth = w;
            } );
        (* a quadratic operator over constant unions, or a union and an
           arbitrary operand *)
        ( 3,
          oneofl quadratic_binops >>= fun (tf, rf) ->
          let side = frequency [ (3, gen_union w); (1, sub) ] in
          pair side side >>= fun (a, b) ->
          return
            {
              term = tf a.term b.term;
              reval = (fun env -> rf (a.reval env) (b.reval env));
              twidth = w;
            } );
        (* concat of constant unions, or a high multiply's extended
           operands *)
        ( 2,
          if w < 2 then gen_var w
          else if w mod 2 = 1 then gen_union_concat w
          else oneof [ gen_union_concat w; gen_extended_product w ] );
        (* ite *)
        ( 3,
          gen_sized 1 (size / 2) >>= fun c ->
          pair sub sub >>= fun (a, b) ->
          return
            {
              term = Term.ite c.term a.term b.term;
              reval =
                (fun env ->
                  if Bitvec.is_ones (c.reval env) then a.reval env else b.reval env);
              twidth = w;
            } );
        (* extract from a wider term *)
        ( 2,
          0 -- 4 >>= fun extra ->
          let wider = if w <= 12 then min 12 (w + extra) else 64 in
          gen_sized wider (size / 2) >>= fun a ->
          0 -- (wider - w) >>= fun low ->
          let high = low + w - 1 in
          return
            {
              term = Term.extract ~high ~low a.term;
              reval = (fun env -> Bitvec.extract ~high ~low (a.reval env));
              twidth = w;
            } );
        (* concat of split *)
        ( 2,
          if w < 2 then gen_var w
          else
            1 -- (w - 1) >>= fun wl ->
            pair (gen_sized (w - wl) (size / 2)) (gen_sized wl (size / 2))
            >>= fun (hi, lo) ->
            return
              {
                term = Term.concat hi.term lo.term;
                reval = (fun env -> Bitvec.concat (hi.reval env) (lo.reval env));
                twidth = w;
              } );
        (* zext / sext *)
        ( 1,
          if w < 2 then gen_var w
          else
            1 -- (w - 1) >>= fun wi ->
            gen_sized wi (size / 2) >>= fun a ->
            bool >>= fun signed ->
            return
              {
                term = (if signed then Term.sext a.term w else Term.zext a.term w);
                reval =
                  (fun env ->
                    if signed then Bitvec.sext (a.reval env) w
                    else Bitvec.zext (a.reval env) w);
                twidth = w;
              } );
        (* comparison (width 1 result), lifted back via ite when w > 1 *)
        ( 2,
          1 -- 8 >>= fun wc ->
          oneofl cmps >>= fun (tf, rf) ->
          pair (gen_sized wc (size / 2)) (gen_sized wc (size / 2))
          >>= fun (a, b) ->
          let cmp_term = tf a.term b.term in
          let cmp_reval env = bool_of (rf (a.reval env) (b.reval env)) in
          if w = 1 then return { term = cmp_term; reval = cmp_reval; twidth = 1 }
          else
            return
              {
                term = Term.ite cmp_term (Term.ones w) (Term.zero w);
                reval =
                  (fun env ->
                    if Bitvec.is_ones (cmp_reval env) then Bitvec.ones w
                    else Bitvec.zero w);
                twidth = w;
              } )
      ]
    in
    frequency candidates

let gen_any_width =
  QCheck.Gen.(
    oneofl root_widths >>= fun w ->
    0 -- 12 >>= fun size -> gen_sized ~memory:true w size)

let gen_bool_term = QCheck.Gen.(0 -- 14 >>= fun size -> gen_sized ~memory:false 1 size)

let gen_env =
  (* random assignment to the whole variable pool *)
  QCheck.Gen.(
    let gen_binding (name, w) =
      array_size (return w) bool >>= fun bits -> return (name, Bitvec.of_bits bits)
    in
    flatten_l (List.map gen_binding all_vars) >>= fun l ->
    return (fun name -> List.assoc name l))

let print_gen_term g = Format.asprintf "%a" Term.pp g.term

let arb_term_env =
  QCheck.make
    QCheck.Gen.(pair gen_any_width gen_env)
    ~print:(fun (g, _) -> print_gen_term g)

let arb_bool_term = QCheck.make gen_bool_term ~print:print_gen_term
