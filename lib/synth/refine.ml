(* Field refinement (see the interface for the full story): preconditions
   pin instruction-word fields to constants; substituting the constants
   structurally into the word lets the simplifier collapse decode and
   operation-selection structure before bit-blasting. *)

type pins = (int, Term.t * bool option array) Hashtbl.t

let conjuncts (root : Term.t) : Term.t list =
  let rec go acc (t : Term.t) =
    match t.Term.node with
    | Term.Binop (Term.And, a, b) when t.Term.width = 1 -> go (go acc a) b
    | _ -> t :: acc
  in
  go [] root

(* Bases worth refining are opaque leaves of the bit-level encoding: a
   variable or an uninterpreted memory read.  Anything structured already
   folds under extract on its own. *)
let refinable (t : Term.t) =
  match t.Term.node with Term.Var _ | Term.Read _ -> true | _ -> false

let collect (pre : Term.t) : pins =
  let tbl = Hashtbl.create 8 in
  let pin (base : Term.t) hi lo (c : Bitvec.t) =
    let _, bits =
      match Hashtbl.find_opt tbl (Term.id base) with
      | Some entry -> entry
      | None ->
          let entry = (base, Array.make base.Term.width None) in
          Hashtbl.add tbl (Term.id base) entry;
          entry
    in
    for i = lo to hi do
      (* on conflicting pins keep the first; the formula is unsatisfiable
         either way and the solver settles it *)
      if bits.(i) = None then bits.(i) <- Some (Bitvec.bit c (i - lo))
    done
  in
  List.iter
    (fun (t : Term.t) ->
      match t.Term.node with
      | Term.Cmp (Term.Eq, a, b) -> (
          let field (x : Term.t) (c : Bitvec.t) =
            match x.Term.node with
            | Term.Extract (hi, lo, base) when refinable base -> pin base hi lo c
            | _ when refinable x -> pin x (x.Term.width - 1) 0 c
            | _ -> ()
          in
          match (a.Term.node, b.Term.node) with
          | Term.Const c, _ -> field b c
          | _, Term.Const c -> field a c
          | _ -> ())
      | _ -> ())
    (conjuncts pre);
  tbl

let is_empty (pins : pins) = Hashtbl.length pins = 0

let refined_of_pins (base : Term.t) (bits : bool option array) : Term.t =
  let seg hi lo =
    match bits.(lo) with
    | Some _ ->
        let arr =
          Array.init (hi - lo + 1) (fun i ->
              match bits.(lo + i) with Some b -> b | None -> assert false)
        in
        Term.const (Bitvec.of_bits arr)
    | None -> Term.extract ~high:hi ~low:lo base
  in
  let rec build hi =
    let pinned = bits.(hi) <> None in
    let lo = ref hi in
    while !lo > 0 && (bits.(!lo - 1) <> None) = pinned do
      decr lo
    done;
    let s = seg hi !lo in
    if !lo = 0 then s else Term.concat s (build (!lo - 1))
  in
  build (base.Term.width - 1)

let apply (pins : pins) (root : Term.t) : Term.t =
  if is_empty pins then root
  else
    Term.rewriter
      (fun _ t ->
        Hashtbl.find_opt pins (Term.id t)
        |> Option.map (fun (base, bits) -> refined_of_pins base bits))
      root
