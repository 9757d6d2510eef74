(* Generic bit-level circuit construction over an abstract gate algebra.

   The same word-level circuits (ripple adders, barrel shifters, array
   multipliers, comparators, table mux-trees) serve two backends: Tseitin
   CNF generation for the SAT solver ({!Blast}) and gate-level netlist
   construction for the synthesis-size experiments ({!Netlist}). *)

module type GATES = sig
  type lit

  val tru : lit
  val fls : lit
  val neg : lit -> lit
  val mk_and : lit -> lit -> lit
  val mk_or : lit -> lit -> lit
  val mk_xor : lit -> lit -> lit
  val mk_ite : lit -> lit -> lit -> lit  (* condition, then, else *)
end

module Words (G : GATES) = struct
  let const_bits v =
    Array.init (Bitvec.width v) (fun i -> if Bitvec.bit v i then G.tru else G.fls)

  let full_adder a b cin =
    let axb = G.mk_xor a b in
    let s = G.mk_xor axb cin in
    let cout = G.mk_or (G.mk_and a b) (G.mk_and cin axb) in
    (s, cout)

  let ripple_add a b cin =
    let w = Array.length a in
    let out = Array.make w G.fls in
    let carry = ref cin in
    for i = 0 to w - 1 do
      let s, co = full_adder a.(i) b.(i) !carry in
      out.(i) <- s;
      carry := co
    done;
    out

  let mk_eq_bits a b =
    let acc = ref G.tru in
    for i = 0 to Array.length a - 1 do
      acc := G.mk_and !acc (G.neg (G.mk_xor a.(i) b.(i)))
    done;
    !acc

  let mk_ult_bits a b =
    (* LSB-to-MSB fold: where bits differ, b's bit decides *)
    let lt = ref G.fls in
    for i = 0 to Array.length a - 1 do
      lt := G.mk_ite (G.mk_xor a.(i) b.(i)) b.(i) !lt
    done;
    !lt

  let flip_msb a =
    let w = Array.length a in
    Array.mapi (fun i l -> if i = w - 1 then G.neg l else l) a

  let mul_bits a b =
    let w = Array.length a in
    let acc = ref (Array.make w G.fls) in
    for i = 0 to w - 1 do
      let addend =
        Array.init w (fun j -> if j < i then G.fls else G.mk_and a.(j - i) b.(i))
      in
      acc := ripple_add !acc addend G.fls
    done;
    !acc

  (* Restoring divider.  Semantics match {!Bitvec}: division by zero
     yields all-ones / the dividend. *)
  let udivrem_bits a b =
    let w = Array.length a in
    let q = Array.make w G.fls in
    let r = ref (Array.make w G.fls) in
    for i = w - 1 downto 0 do
      (* r = (r << 1) | a_i *)
      r := Array.init w (fun j -> if j = 0 then a.(i) else !r.(j - 1));
      let ge = G.neg (mk_ult_bits !r b) in
      q.(i) <- ge;
      let diff = ripple_add !r (Array.map G.neg b) G.tru in
      r := Array.init w (fun j -> G.mk_ite ge diff.(j) !r.(j))
    done;
    let bz = G.neg (Array.fold_left (fun acc l -> G.mk_or acc l) G.fls b) in
    let q = Array.map (fun l -> G.mk_ite bz G.tru l) q in
    let r = Array.init w (fun j -> G.mk_ite bz a.(j) !r.(j)) in
    (q, r)

  let negate_bits v = ripple_add (Array.map G.neg v) (Array.make (Array.length v) G.fls) G.tru

  let sdivrem_bits a b =
    let w = Array.length a in
    let sa = a.(w - 1) and sb = b.(w - 1) in
    let abs_ s v = Array.init w (fun j -> G.mk_ite s (negate_bits v).(j) v.(j)) in
    let qa, ra = udivrem_bits (abs_ sa a) (abs_ sb b) in
    let qsign = G.mk_xor sa sb in
    let q = Array.init w (fun j -> G.mk_ite qsign (negate_bits qa).(j) qa.(j)) in
    let r = Array.init w (fun j -> G.mk_ite sa (negate_bits ra).(j) ra.(j)) in
    (* division by zero overrides the sign-adjusted results *)
    let bz = G.neg (Array.fold_left (fun acc l -> G.mk_or acc l) G.fls b) in
    ( Array.map (fun l -> G.mk_ite bz G.tru l) q,
      Array.init w (fun j -> G.mk_ite bz a.(j) r.(j)) )

  let clmul_bits a b ~high =
    let w = Array.length a in
    Array.init w (fun j ->
        let bitpos = if high then j + w else j in
        let acc = ref G.fls in
        for i = max 0 (bitpos - w + 1) to min (w - 1) bitpos do
          acc := G.mk_xor !acc (G.mk_and a.(bitpos - i) b.(i))
        done;
        !acc)

  let shift_bits a amt ~dir ~fill =
    let w = Array.length a in
    let cur = ref (Array.copy a) in
    for k = 0 to Array.length amt - 1 do
      let dist = if k < 62 then 1 lsl k else max_int in
      let sel = amt.(k) in
      let shifted =
        if dist >= w then Array.make w fill
        else
          Array.init w (fun i ->
              match dir with
              | `Left -> if i < dist then fill else !cur.(i - dist)
              | `Right -> if i + dist >= w then fill else !cur.(i + dist))
      in
      cur := Array.init w (fun i -> G.mk_ite sel shifted.(i) !cur.(i))
    done;
    !cur

  let mux_bits c a b = Array.init (Array.length a) (fun i -> G.mk_ite c a.(i) b.(i))

  let table_bits (tb : Term.table) ibits =
    let dw = Bitvec.width tb.Term.tab_data.(0) in
    let rec select lo level =
      if level < 0 then const_bits tb.Term.tab_data.(lo)
      else
        let lower = select lo (level - 1) in
        let upper = select (lo + (1 lsl level)) (level - 1) in
        Array.init dw (fun i -> G.mk_ite ibits.(level) upper.(i) lower.(i))
    in
    select 0 (tb.Term.tab_addr_width - 1)

  (* Generic Term translation.  [var_bits] supplies literals for variables;
     [read_bits] for uninterpreted memory reads (the CNF backend rejects
     them, the netlist backend makes them black-box ports). *)
  type tctx = {
    term_cache : (int, G.lit array) Hashtbl.t;
    var_bits : string -> int -> G.lit array;
    read_bits : Term.mem -> G.lit array -> G.lit array;
  }

  let make_tctx ~var_bits ~read_bits =
    { term_cache = Hashtbl.create 1024; var_bits; read_bits }

  let rec term_bits ctx (t : Term.t) : G.lit array =
    match Hashtbl.find_opt ctx.term_cache (Term.id t) with
    | Some bits -> bits
    | None ->
        let bits =
          match t.Term.node with
          | Term.Const v -> const_bits v
          | Term.Var name -> ctx.var_bits name t.Term.width
          | Term.Not x -> Array.map G.neg (term_bits ctx x)
          | Term.Binop (op, x, y) -> binop_bits ctx op x y
          | Term.Cmp (op, x, y) -> [| cmp_bit ctx op x y |]
          | Term.Ite (c, x, y) ->
              let cl = (term_bits ctx c).(0) in
              mux_bits cl (term_bits ctx x) (term_bits ctx y)
          | Term.Extract (high, low, x) ->
              Array.sub (term_bits ctx x) low (high - low + 1)
          | Term.Concat (hi, lo) ->
              Array.append (term_bits ctx lo) (term_bits ctx hi)
          | Term.Read (m, a) -> ctx.read_bits m (term_bits ctx a)
          | Term.Table (tb, idx) -> table_bits tb (term_bits ctx idx)
        in
        Hashtbl.add ctx.term_cache (Term.id t) bits;
        bits

  and binop_bits ctx op x y =
    let a = term_bits ctx x and b = term_bits ctx y in
    match op with
    | Term.And -> Array.init (Array.length a) (fun i -> G.mk_and a.(i) b.(i))
    | Term.Or -> Array.init (Array.length a) (fun i -> G.mk_or a.(i) b.(i))
    | Term.Xor -> Array.init (Array.length a) (fun i -> G.mk_xor a.(i) b.(i))
    | Term.Add -> ripple_add a b G.fls
    | Term.Sub -> ripple_add a (Array.map G.neg b) G.tru
    | Term.Mul -> mul_bits a b
    | Term.Udiv -> fst (udivrem_bits a b)
    | Term.Urem -> snd (udivrem_bits a b)
    | Term.Sdiv -> fst (sdivrem_bits a b)
    | Term.Srem -> snd (sdivrem_bits a b)
    | Term.Clmul -> clmul_bits a b ~high:false
    | Term.Clmulh -> clmul_bits a b ~high:true
    | Term.Shl -> shift_bits a b ~dir:`Left ~fill:G.fls
    | Term.Lshr -> shift_bits a b ~dir:`Right ~fill:G.fls
    | Term.Ashr -> shift_bits a b ~dir:`Right ~fill:a.(Array.length a - 1)

  and cmp_bit ctx op x y =
    let a = term_bits ctx x and b = term_bits ctx y in
    match op with
    | Term.Eq -> mk_eq_bits a b
    | Term.Ult -> mk_ult_bits a b
    | Term.Ule -> G.neg (mk_ult_bits b a)
    | Term.Slt -> mk_ult_bits (flip_msb a) (flip_msb b)
    | Term.Sle -> G.neg (mk_ult_bits (flip_msb b) (flip_msb a))
end
