(* Refinement under the precondition (see the interface for the full
   story): the formula's own top-level conjuncts pin fields and literals to
   constants; substituting the constants structurally, in the same pass as
   the candidate's hole values, lets the simplifier collapse decode,
   operation selection and forwarding before bit-blasting, and a model of
   the refined formula gets the pinned bits back by a patch. *)

type pins = {
  index : (int, bool option array) Hashtbl.t;  (* bits per base, by term id *)
  bases : (Term.t * bool option array) list;  (* in pinning order *)
}

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

let collect (formula : Term.t) : pins =
  let index = Hashtbl.create 8 and bases = ref [] in
  let pin (base : Term.t) hi lo (c : Bitvec.t) =
    let bits =
      match Hashtbl.find_opt index (Term.id base) with
      | Some bits -> bits
      | None ->
          let bits = Array.make base.Term.width None in
          Hashtbl.add index (Term.id base) bits;
          bases := (base, bits) :: !bases;
          bits
    in
    for i = lo to hi do
      (* on conflicting pins keep the first; the formula is unsatisfiable
         either way and the solver settles it *)
      if bits.(i) = None then bits.(i) <- Some (Bitvec.bit c (i - lo))
    done
  in
  let field (x : Term.t) (c : Bitvec.t) =
    match x.Term.node with
    | Term.Extract (hi, lo, base) when refinable base -> pin base hi lo c
    | _ when refinable x -> pin x (x.Term.width - 1) 0 c
    | _ -> ()
  in
  List.iter
    (fun (t : Term.t) ->
      match t.Term.node with
      | Term.Cmp (Term.Eq, a, b) -> (
          match (a.Term.node, b.Term.node) with
          | Term.Const c, _ -> field b c
          | _, Term.Const c -> field a c
          | _ -> ())
      (* a width-1 literal: [x] pins x to 1, [bvnot x] pins it to 0 *)
      | Term.Not x when t.Term.width = 1 -> field x (Bitvec.zero 1)
      | _ when t.Term.width = 1 -> field t (Bitvec.one 1)
      | _ -> ())
    (conjuncts formula);
  { index; bases = List.rev !bases }

let is_empty (pins : pins) = pins.bases = []

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

let no_env = { Term.lookup_var = (fun _ _ -> None); lookup_read = (fun _ _ -> None) }

let apply ?env (pins : pins) (root : Term.t) : Term.t =
  match env with
  | None when is_empty pins -> root
  | _ ->
      Term.substitute
        ~unbound:(fun t t' ->
          Hashtbl.find_opt pins.index (Term.id t) |> Option.map (refined_of_pins t'))
        (Option.value env ~default:no_env)
        root

(* [v] with its pinned bits overwritten. *)
let overlay (v : Bitvec.t) bits =
  Bitvec.of_bits
    (Array.mapi (fun i b -> match b with Some b -> b | None -> Bitvec.bit v i) bits)

(* [m]'s total view ([Solver.model_env]) under [env]'s variable bindings *)
let model_view ?env (m : Solver.model) =
  let menv = Solver.model_env m in
  match env with
  | None -> menv
  | Some e ->
      {
        menv with
        Term.lookup_var =
          (fun n w ->
            match e.Term.lookup_var n w with
            | Some v -> Some v
            | None -> menv.Term.lookup_var n w);
      }

let patch ?env (pins : pins) (m : Solver.model) : Solver.model =
  if is_empty pins then m
  else
    let vars =
      List.filter_map
        (fun ((b : Term.t), bits) ->
          match b.Term.node with Term.Var n -> Some (n, bits) | _ -> None)
        pins.bases
    in
    let var_value n =
      match List.assoc_opt n vars with
      | None -> m.Solver.var_value n
      | Some bits ->
          let old = m.Solver.var_value n in
          Some
            (overlay (Option.value old ~default:(Bitvec.zero (Array.length bits))) bits)
    in
    (* a pinned read's address, under the patched variables and the
       model's memory *)
    let addr_env = model_view ?env { m with Solver.var_value } in
    let key name addr = (name, Bitvec.to_string addr) in
    let reads =
      List.filter_map
        (fun ((b : Term.t), bits) ->
          match b.Term.node with
          | Term.Read (mem, a) ->
              let addr = Term.eval addr_env a in
              Some (key mem.Term.mem_name addr, (mem, addr, bits))
          | _ -> None)
        pins.bases
    in
    let read_values =
      List.map
        (fun (name, addr, v) ->
          match List.assoc_opt (key name addr) reads with
          | Some (_, _, bits) -> (name, addr, overlay v bits)
          | None -> (name, addr, v))
        m.Solver.read_values
    in
    (* a fully pinned read has no instance left in the model: add it, once
       per address *)
    let seen = Hashtbl.create 8 in
    List.iter (fun (n, a, _) -> Hashtbl.replace seen (key n a) ()) read_values;
    let missing =
      List.filter_map
        (fun (k, ((mem : Term.mem), addr, bits)) ->
          if Hashtbl.mem seen k then None
          else begin
            Hashtbl.add seen k ();
            let zero = Bitvec.zero mem.Term.data_width in
            Some (mem.Term.mem_name, addr, overlay zero bits)
          end)
        reads
    in
    Solver.model_of ~var_value ~read_values:(read_values @ missing)

let check ~solve ~recheck ?env pins violation =
  match solve (apply ?env pins violation) with
  | None -> (None, false)
  | Some m ->
      let m = patch ?env pins m in
      if Bitvec.is_ones (Term.eval (model_view ?env m) violation) then (Some m, false)
      else
        let unrefined =
          Option.fold ~none:violation ~some:(fun e -> Term.substitute e violation) env
        in
        (recheck unrefined, true)
