(* Hash-consed bitvector terms with bottom-up simplification. *)

type binop =
  | And
  | Or
  | Xor
  | Add
  | Sub
  | Mul
  | Udiv
  | Urem
  | Sdiv
  | Srem
  | Clmul
  | Clmulh
  | Shl
  | Lshr
  | Ashr

type cmpop = Eq | Ult | Ule | Slt | Sle

type mem = { mem_name : string; addr_width : int; data_width : int }
type table = { tab_name : string; tab_addr_width : int; tab_data : Bitvec.t array }

type t = { id : int; width : int; skey : int; node : node }

and node =
  | Const of Bitvec.t
  | Var of string
  | Not of t
  | Binop of binop * t * t
  | Cmp of cmpop * t * t
  | Ite of t * t * t
  | Extract of int * int * t
  | Concat of t * t
  | Read of mem * t
  | Table of table * t

let width t = t.width
let id t = t.id
let equal a b = a == b
let compare a b = Stdlib.compare a.id b.id
let hash t = t.id

(* {1 Hash-consing}

   Nodes are keyed structurally with children compared physically, so
   building the same node twice yields the same physical term.

   The table is shared by every domain and sharded under mutexes, which
   keeps physical equality meaningful across domains: a term built by one
   worker is found (not duplicated) by another.  Ids are allocated from an
   atomic counter, so they are unique but their numeric order depends on
   scheduling.  Anything that must be deterministic across runs and across
   [jobs] settings therefore orders terms by [skey] — a structural hash
   computed from the node shape and the children's skeys, independent of
   allocation order — with a full structural comparison breaking ties. *)

module Key = struct
  type k = node

  let equal_node a b =
    match (a, b) with
    | Const x, Const y -> Bitvec.equal x y
    | Var x, Var y -> String.equal x y
    | Not x, Not y -> x == y
    | Binop (o1, a1, b1), Binop (o2, a2, b2) -> o1 = o2 && a1 == a2 && b1 == b2
    | Cmp (o1, a1, b1), Cmp (o2, a2, b2) -> o1 = o2 && a1 == a2 && b1 == b2
    | Ite (c1, a1, b1), Ite (c2, a2, b2) -> c1 == c2 && a1 == a2 && b1 == b2
    | Extract (h1, l1, x), Extract (h2, l2, y) -> h1 = h2 && l1 = l2 && x == y
    | Concat (a1, b1), Concat (a2, b2) -> a1 == a2 && b1 == b2
    | Read (m1, a1), Read (m2, a2) -> String.equal m1.mem_name m2.mem_name && a1 == a2
    | Table (t1, a1), Table (t2, a2) ->
        String.equal t1.tab_name t2.tab_name && a1 == a2
    | _ -> false

  let hash_node = function
    | Const v -> Hashtbl.hash (0, Bitvec.hash v)
    | Var s -> Hashtbl.hash (1, s)
    | Not x -> Hashtbl.hash (2, x.id)
    | Binop (o, a, b) -> Hashtbl.hash (3, o, a.id, b.id)
    | Cmp (o, a, b) -> Hashtbl.hash (4, o, a.id, b.id)
    | Ite (c, a, b) -> Hashtbl.hash (5, c.id, a.id, b.id)
    | Extract (h, l, x) -> Hashtbl.hash (6, h, l, x.id)
    | Concat (a, b) -> Hashtbl.hash (7, a.id, b.id)
    | Read (m, a) -> Hashtbl.hash (8, m.mem_name, a.id)
    | Table (tb, a) -> Hashtbl.hash (9, tb.tab_name, a.id)

  type t = k

  let equal = equal_node
  let hash = hash_node
end

module Cons = Hashtbl.Make (Key)

(* The consing table is sharded by node hash; each shard has its own lock so
   concurrent domains rarely contend.  Plain Hashtbl is not safe under
   concurrent mutation, so every access happens under the shard's mutex. *)

let shard_bits = 6
let shard_count = 1 lsl shard_bits

type shard = { lock : Mutex.t; tbl : t Cons.t }

let shards =
  Array.init shard_count (fun _ ->
      { lock = Mutex.create (); tbl = Cons.create 256 })

let next_id = Atomic.make 0

(* Registries guarding against the same name being reused at a different
   width (variables) or with different contents (tables); guarded by one
   lock (low traffic). *)
let registry_lock = Mutex.create ()
let var_registry : (string, int) Hashtbl.t = Hashtbl.create 256
let table_registry : (string, table) Hashtbl.t = Hashtbl.create 16

(* Structural key: like [Key.hash_node] but built from the children's
   [skey]s instead of their ids, so it only depends on term structure. *)
let skey_node width = function
  | Const v -> Hashtbl.hash (0, width, Bitvec.hash v)
  | Var s -> Hashtbl.hash (1, width, s)
  | Not x -> Hashtbl.hash (2, width, x.skey)
  | Binop (o, a, b) -> Hashtbl.hash (3, width, o, a.skey, b.skey)
  | Cmp (o, a, b) -> Hashtbl.hash (4, width, o, a.skey, b.skey)
  | Ite (c, a, b) -> Hashtbl.hash (5, width, c.skey, a.skey, b.skey)
  | Extract (h, l, x) -> Hashtbl.hash (6, width, h, l, x.skey)
  | Concat (a, b) -> Hashtbl.hash (7, width, a.skey, b.skey)
  | Read (m, a) -> Hashtbl.hash (8, width, m.mem_name, a.skey)
  | Table (tb, a) -> Hashtbl.hash (9, width, tb.tab_name, a.skey)

let node_tag = function
  | Const _ -> 0
  | Var _ -> 1
  | Not _ -> 2
  | Binop _ -> 3
  | Cmp _ -> 4
  | Ite _ -> 5
  | Extract _ -> 6
  | Concat _ -> 7
  | Read _ -> 8
  | Table _ -> 9

(* Total structural order, independent of allocation order.  Distinct
   hash-consed terms always differ structurally, so this never returns 0
   for [a != b]; the skey fast path means the recursion is only taken on
   hash collisions. *)
let rec struct_compare a b =
  if a == b then 0
  else
    let c = Int.compare a.skey b.skey in
    if c <> 0 then c
    else
      let c = Int.compare a.width b.width in
      if c <> 0 then c
      else
        let c = Int.compare (node_tag a.node) (node_tag b.node) in
        if c <> 0 then c
        else
          match (a.node, b.node) with
          | Const x, Const y -> Bitvec.compare x y
          | Var x, Var y -> String.compare x y
          | Not x, Not y -> struct_compare x y
          | Binop (o1, a1, b1), Binop (o2, a2, b2) ->
              let c = Stdlib.compare o1 o2 in
              if c <> 0 then c
              else
                let c = struct_compare a1 a2 in
                if c <> 0 then c else struct_compare b1 b2
          | Cmp (o1, a1, b1), Cmp (o2, a2, b2) ->
              let c = Stdlib.compare o1 o2 in
              if c <> 0 then c
              else
                let c = struct_compare a1 a2 in
                if c <> 0 then c else struct_compare b1 b2
          | Ite (c1, a1, b1), Ite (c2, a2, b2) ->
              let c = struct_compare c1 c2 in
              if c <> 0 then c
              else
                let c = struct_compare a1 a2 in
                if c <> 0 then c else struct_compare b1 b2
          | Extract (h1, l1, x), Extract (h2, l2, y) ->
              let c = Int.compare h1 h2 in
              if c <> 0 then c
              else
                let c = Int.compare l1 l2 in
                if c <> 0 then c else struct_compare x y
          | Concat (a1, b1), Concat (a2, b2) ->
              let c = struct_compare a1 a2 in
              if c <> 0 then c else struct_compare b1 b2
          | Read (m1, a1), Read (m2, a2) ->
              let c = String.compare m1.mem_name m2.mem_name in
              if c <> 0 then c else struct_compare a1 a2
          | Table (t1, a1), Table (t2, a2) ->
              let c = String.compare t1.tab_name t2.tab_name in
              if c <> 0 then c else struct_compare a1 a2
          | _ -> assert false (* tags already compared *)

let intern width node =
  let s = shards.(Key.hash node land (shard_count - 1)) in
  Mutex.lock s.lock;
  let t =
    match Cons.find_opt s.tbl node with
    | Some t -> t
    | None ->
        let t =
          {
            id = Atomic.fetch_and_add next_id 1;
            width;
            skey = skey_node width node;
            node;
          }
        in
        Cons.add s.tbl node t;
        t
  in
  Mutex.unlock s.lock;
  t

(* {1 Basic constructors} *)

let const v = intern (Bitvec.width v) (Const v)
let of_int ~width n = const (Bitvec.of_int ~width n)
let zero w = const (Bitvec.zero w)
let one w = const (Bitvec.one w)
let ones w = const (Bitvec.ones w)
let tru = const (Bitvec.one 1)
let fls = const (Bitvec.zero 1)

let var name w =
  if w < 1 then invalid_arg (Printf.sprintf "Term.var: width %d < 1" w);
  let clash =
    Mutex.lock registry_lock;
    let c =
      match Hashtbl.find_opt var_registry name with
      | Some w' when w' <> w -> Some w'
      | Some _ -> None
      | None ->
          Hashtbl.add var_registry name w;
          None
    in
    Mutex.unlock registry_lock;
    c
  in
  (match clash with
  | Some w' ->
      invalid_arg
        (Printf.sprintf "Term.var: %S used at width %d and %d" name w' w)
  | None -> ());
  intern w (Var name)

let is_const t = match t.node with Const v -> Some v | _ -> None
let is_true t = match t.node with Const v -> Bitvec.is_ones v && Bitvec.width v = 1 | _ -> false
let is_false t = match t.node with Const v -> Bitvec.is_zero v && Bitvec.width v = 1 | _ -> false

let check_same_width name a b =
  if a.width <> b.width then
    invalid_arg
      (Printf.sprintf "Term.%s: width mismatch (%d vs %d)" name a.width b.width)

(* {1 Constant unions}

   An [ite]-tree whose leaves are all constants is a guarded union of
   concrete values (Rosette's term for it), which is what a hole-controlled
   mux over constants becomes.  Multiply, divide and carry-less multiply
   apply to such unions leaf by leaf, so [mul (ite h k1 k2) k3] folds to
   [ite h (k1*k3) (k2*k3)] instead of a node Blast would expand into a
   quadratic circuit.  [concat] of two unions folds too, so the sign- and
   zero-extended operands of the high multiplies (MULH, MULHSU, MULHU)
   reach them as unions.  The other operators stay off this view: their
   circuits are linear, and distributing them only grows the DAG. *)

(* The caps: at most [max_leaves] leaves per operand and [max_pairs] leaf
   pairs.  RV32I+M's ALU operand unions (operand select over immediate
   select) outgrow 8 leaves and 16 pairs; caps of 32/256 and 64/1024
   blasted no fewer clauses there than 16/64. *)
let max_leaves = 16
let max_pairs = 64

(* Leaves of [t] as a constant union, or [None] if a leaf is not constant
   or there are more than [max_leaves]. *)
let const_leaves t =
  let rec go n t =
    match t.node with
    | Const _ -> if n < max_leaves then Some (n + 1) else None
    | Ite (_, x, y) -> Option.bind (go n x) (fun n -> go n y)
    | _ -> None
  in
  go 0 t

let unions_fold a b =
  match (const_leaves a, const_leaves b) with
  | Some m, Some n -> m * n <= max_pairs
  | _ -> false

(* {1 Simplifying constructors} *)

let rec bnot a =
  match a.node with
  | Const v -> const (Bitvec.lognot v)
  | Not x -> x
  | Cmp (Ult, x, y) -> cmp Ule y x
  | Cmp (Ule, x, y) -> cmp Ult y x
  | Cmp (Slt, x, y) -> cmp Sle y x
  | Cmp (Sle, x, y) -> cmp Slt y x
  | Ite (c, x, y) when a.width = 1 -> ite c (bnot x) (bnot y)
  | _ -> intern a.width (Not a)

(* Canonical operand order for commutative operators.  This must not
   depend on [id] (allocation order): parallel synthesis requires the same
   term structure whether worker domains interleave or not. *)
and order2 a b = if struct_compare a b <= 0 then (a, b) else (b, a)

and band a b =
  check_same_width "band" a b;
  match (is_const a, is_const b) with
  | Some x, Some y -> const (Bitvec.logand x y)
  | Some x, None when Bitvec.is_zero x -> a
  | None, Some y when Bitvec.is_zero y -> b
  | Some x, None when Bitvec.is_ones x -> b
  | None, Some y when Bitvec.is_ones y -> a
  | _ ->
      if a == b then a
      else if (match a.node with Not x -> x == b | _ -> false)
              || (match b.node with Not y -> y == a | _ -> false)
      then zero a.width
      else
        let a, b = order2 a b in
        intern a.width (Binop (And, a, b))

and bor a b =
  check_same_width "bor" a b;
  match (is_const a, is_const b) with
  | Some x, Some y -> const (Bitvec.logor x y)
  | Some x, None when Bitvec.is_zero x -> b
  | None, Some y when Bitvec.is_zero y -> a
  | Some x, None when Bitvec.is_ones x -> a
  | None, Some y when Bitvec.is_ones y -> b
  | _ ->
      if a == b then a
      else if (match a.node with Not x -> x == b | _ -> false)
              || (match b.node with Not y -> y == a | _ -> false)
      then ones a.width
      else
        let a, b = order2 a b in
        intern a.width (Binop (Or, a, b))

and bxor a b =
  check_same_width "bxor" a b;
  match (is_const a, is_const b) with
  | Some x, Some y -> const (Bitvec.logxor x y)
  | Some x, None when Bitvec.is_zero x -> b
  | None, Some y when Bitvec.is_zero y -> a
  | Some x, None when Bitvec.is_ones x -> bnot b
  | None, Some y when Bitvec.is_ones y -> bnot a
  | _ ->
      if a == b then zero a.width
      else
        let a, b = order2 a b in
        intern a.width (Binop (Xor, a, b))

and add a b =
  check_same_width "add" a b;
  match (is_const a, is_const b) with
  | Some x, Some y -> const (Bitvec.add x y)
  | Some x, None when Bitvec.is_zero x -> b
  | None, Some y when Bitvec.is_zero y -> a
  | _ ->
      let a, b = order2 a b in
      intern a.width (Binop (Add, a, b))

and sub a b =
  check_same_width "sub" a b;
  match (is_const a, is_const b) with
  | Some x, Some y -> const (Bitvec.sub x y)
  | None, Some y when Bitvec.is_zero y -> a
  | _ -> if a == b then zero a.width else intern a.width (Binop (Sub, a, b))

and mul a b =
  check_same_width "mul" a b;
  match (is_const a, is_const b) with
  | Some x, Some y -> const (Bitvec.mul x y)
  | Some x, None when Bitvec.is_zero x -> a
  | None, Some y when Bitvec.is_zero y -> b
  | Some x, None when Bitvec.equal x (Bitvec.one a.width) -> b
  | None, Some y when Bitvec.equal y (Bitvec.one a.width) -> a
  | _ when unions_fold a b -> distribute mul a b
  | _ ->
      let a, b = order2 a b in
      intern a.width (Binop (Mul, a, b))

and division op a b =
  check_same_width "div" a b;
  match (is_const a, is_const b) with
  | Some x, Some y ->
      let f =
        match op with
        | Udiv -> Bitvec.udiv
        | Urem -> Bitvec.urem
        | Sdiv -> Bitvec.sdiv
        | _ -> Bitvec.srem
      in
      const (f x y)
  | None, Some y when Bitvec.equal y (Bitvec.one a.width) -> (
      (* x / 1 = x, x % 1 = 0 *)
      match op with Udiv | Sdiv -> a | _ -> zero a.width)
  | _ when unions_fold a b -> distribute (division op) a b
  | _ -> intern a.width (Binop (op, a, b))

and carryless op a b =
  check_same_width "clmul" a b;
  match (is_const a, is_const b) with
  | Some x, Some y ->
      const (if op = Clmul then Bitvec.clmul x y else Bitvec.clmulh x y)
  | Some x, None when Bitvec.is_zero x -> a
  | None, Some y when Bitvec.is_zero y -> b
  | _ when unions_fold a b -> distribute (carryless op) a b
  | _ ->
      let a, b = order2 a b in
      intern a.width (Binop (op, a, b))

(* Applies [f] leaf by leaf: through the [ite]s of [a], then of [b].
   Rebuilding through [ite] merges equal leaves (Rosette's compress).  The
   nesting follows argument order, not [order2]: callers pass operands in
   a consistent order, so the same guards end up outermost across call
   sites.  Measured against [order2] nesting in DESIGN.md section 5. *)
and distribute f a b =
  match (a.node, b.node) with
  | Ite (c, x, y), _ -> ite c (distribute f x b) (distribute f y b)
  | _, Ite (c, x, y) -> ite c (distribute f a x) (distribute f a y)
  | _ -> f a b

and shift op a b =
  (* The amount operand may have any width; it is read unsigned. *)
  match (is_const a, is_const b) with
  | Some x, Some y ->
      let f = match op with Shl -> Bitvec.shl | Lshr -> Bitvec.lshr | _ -> Bitvec.ashr in
      const (f x y)
  | _, Some y when Bitvec.is_zero y -> a
  | _, Some y when (match Bitvec.to_int y with Some k -> k >= a.width | None -> true) ->
      (* Over-shift: zeros, or all-sign-bits for an arithmetic shift. *)
      if op = Ashr then ite (msb a) (ones a.width) (zero a.width) else zero a.width
  | Some x, None when Bitvec.is_zero x -> a
  | _ -> intern a.width (Binop (op, a, b))

and cmp op a b =
  check_same_width "cmp" a b;
  match (is_const a, is_const b) with
  | Some x, Some y ->
      let r =
        match op with
        | Eq -> Bitvec.equal x y
        | Ult -> Bitvec.ult x y
        | Ule -> Bitvec.ule x y
        | Slt -> Bitvec.slt x y
        | Sle -> Bitvec.sle x y
      in
      if r then tru else fls
  | _ when a == b -> (
      match op with Eq | Ule | Sle -> tru | Ult | Slt -> fls)
  | _ -> (
      match op with
      | Eq -> mk_eq a b
      | Ult | Slt | Ule | Sle ->
          intern 1 (Cmp (op, a, b)))

and mk_eq a b =
  (* Equality gets extra structure-aware rules because the synthesis
     post-conditions are conjunctions of equalities between spec-side and
     datapath-side terms; decomposing them early keeps SAT queries small. *)
  let a, b = order2 a b in
  match (a.node, b.node) with
  (* width-1 equalities are boolean identities *)
  | _ when a.width = 1 && is_true b -> a
  | _ when a.width = 1 && is_false b -> bnot a
  | _ when a.width = 1 && is_true a -> b
  | _ when a.width = 1 && is_false a -> bnot b
  (* split equalities over aligned concatenations *)
  | Concat (hi1, lo1), Concat (hi2, lo2) when lo1.width = lo2.width ->
      band (mk_eq_dispatch hi1 hi2) (mk_eq_dispatch lo1 lo2)
  | Concat (hi, lo), Const v | Const v, Concat (hi, lo) ->
      let wlo = lo.width in
      band
        (mk_eq_dispatch hi (const (Bitvec.extract ~high:(Bitvec.width v - 1) ~low:wlo v)))
        (mk_eq_dispatch lo (const (Bitvec.extract ~high:(wlo - 1) ~low:0 v)))
  (* (ite c k1 k2) = k resolves when the arms are constants *)
  | Ite (c, x, y), Const v | Const v, Ite (c, x, y) -> (
      match (is_const x, is_const y) with
      | Some xv, Some yv -> (
          match (Bitvec.equal xv v, Bitvec.equal yv v) with
          | true, true -> tru
          | true, false -> c
          | false, true -> bnot c
          | false, false -> fls)
      | _ -> intern 1 (Cmp (Eq, a, b)))
  | _ -> intern 1 (Cmp (Eq, a, b))

and mk_eq_dispatch a b = cmp Eq a b

and ite c a b =
  if c.width <> 1 then invalid_arg "Term.ite: condition width <> 1";
  check_same_width "ite" a b;
  if is_true c then a
  else if is_false c then b
  else if a == b then a
  else
    match c.node with
    | Not d -> ite d b a
    | _ ->
        if a.width = 1 && is_true a && is_false b then c
        else if a.width = 1 && is_false a && is_true b then bnot c
        else
          (* collapse nested ite on the same condition, or its negation
             (hash-consing makes the negation check a pointer test) *)
          let negates c' = match c'.node with Not d -> d == c | _ -> false in
          let a' =
            match a.node with
            | Ite (c', x, y) ->
                if c' == c then x else if negates c' then y else a
            | _ -> a
          in
          let b' =
            match b.node with
            | Ite (c', x, y) ->
                if c' == c then y else if negates c' then x else b
            | _ -> b
          in
          (* a collapsed arm may enable the rules above, e.g. constant arms *)
          if a' != a || b' != b then ite c a' b'
          else
            (* guard merging: an arm that is itself an ite sharing the
               other arm folds into a single ite under a conjoined or
               disjoined guard — one mux (and one blasted select chain)
               instead of two:
                 ite c (ite c2 x b) b = ite (c & c2) x b
                 ite c (ite c2 b y) b = ite (c & ~c2) y b
                 ite c a (ite c2 a y) = ite (c | c2) a y
                 ite c a (ite c2 x a) = ite (c | ~c2) a x *)
            match (a.node, b.node) with
            | Ite (c2, x, y), _ when y == b -> ite (band c c2) x b
            | Ite (c2, x, y), _ when x == b -> ite (band c (bnot c2)) y b
            | _, Ite (c2, x, y) when x == a -> ite (bor c c2) a y
            | _, Ite (c2, x, y) when y == a -> ite (bor c (bnot c2)) a x
            | _ -> intern a.width (Ite (c, a, b))

and extract ~high ~low a =
  if low < 0 || high < low || high >= a.width then
    invalid_arg
      (Printf.sprintf "Term.extract: [%d:%d] out of width %d" high low a.width);
  if low = 0 && high = a.width - 1 then a
  else
    match a.node with
    | Const v -> const (Bitvec.extract ~high ~low v)
    | Extract (_, low', x) -> extract ~high:(high + low') ~low:(low + low') x
    | Concat (hi, lo) ->
        let wlo = lo.width in
        if high < wlo then extract ~high ~low lo
        else if low >= wlo then extract ~high:(high - wlo) ~low:(low - wlo) hi
        else concat (extract ~high:(high - wlo) ~low:0 hi) (extract ~high:(wlo - 1) ~low lo)
    | Ite (c, x, y) -> ite c (extract ~high ~low x) (extract ~high ~low y)
    | _ -> intern (high - low + 1) (Extract (high, low, a))

and concat hi lo =
  let w = hi.width + lo.width in
  match (hi.node, lo.node) with
  | Const x, Const y -> const (Bitvec.concat x y)
  | _ when unions_fold hi lo -> distribute concat hi lo
  | Extract (h1, l1, x), Extract (h2, l2, y) when x == y && l1 = h2 + 1 ->
      extract ~high:h1 ~low:l2 x
  | _, Concat (m, lo') ->
      (* Right-normalize so the adjacent-extract rule can fire across
         rebracketing: ((a @ b) @ c) becomes (a @ (b @ c)). *)
      concat (concat hi m) lo'
  | _ -> intern w (Concat (hi, lo))

and msb a = extract ~high:(a.width - 1) ~low:(a.width - 1) a

let bit a i = extract ~high:i ~low:i a

let eq = cmp Eq
let ult = cmp Ult
let ule = cmp Ule
let slt = cmp Slt
let sle = cmp Sle
let ne a b = bnot (eq a b)
let ugt a b = ult b a
let uge a b = ule b a
let sgt a b = slt b a
let sge a b = sle b a
let shl = shift Shl
let lshr = shift Lshr
let ashr = shift Ashr
let clmul = carryless Clmul
let clmulh = carryless Clmulh
let udiv = division Udiv
let urem = division Urem
let sdiv = division Sdiv
let srem = division Srem
let neg a = sub (zero a.width) a

let binop = function
  | And -> band
  | Or -> bor
  | Xor -> bxor
  | Add -> add
  | Sub -> sub
  | Mul -> mul
  | (Udiv | Urem | Sdiv | Srem) as op -> division op
  | (Clmul | Clmulh) as op -> carryless op
  | (Shl | Lshr | Ashr) as op -> shift op

let zext a w =
  if w < a.width then invalid_arg "Term.zext";
  if w = a.width then a else concat (zero (w - a.width)) a

let sext a w =
  if w < a.width then invalid_arg "Term.sext";
  if w = a.width then a
  else
    let k = w - a.width in
    concat (ite (msb a) (ones k) (zero k)) a

let read m addr =
  if addr.width <> m.addr_width then
    invalid_arg
      (Printf.sprintf "Term.read: mem %s expects address width %d, got %d"
         m.mem_name m.addr_width addr.width);
  intern m.data_width (Read (m, addr))

let table_read tb idx =
  if idx.width <> tb.tab_addr_width then invalid_arg "Term.table_read: index width";
  if Array.length tb.tab_data <> 1 lsl tb.tab_addr_width then
    invalid_arg "Term.table_read: table size must be 2^addr_width";
  let clash =
    Mutex.lock registry_lock;
    let c =
      match Hashtbl.find_opt table_registry tb.tab_name with
      | Some tb' when tb' != tb && tb'.tab_data <> tb.tab_data -> true
      | Some _ -> false
      | None ->
          Hashtbl.add table_registry tb.tab_name tb;
          false
    in
    Mutex.unlock registry_lock;
    c
  in
  if clash then
    invalid_arg
      (Printf.sprintf "Term.table_read: table %S redefined with new contents"
         tb.tab_name);
  match is_const idx with
  | Some v -> const tb.tab_data.(Bitvec.to_int_exn v)
  | None -> intern (Bitvec.width tb.tab_data.(0)) (Table (tb, idx))

let implies a b = bor (bnot a) b
let conj l = List.fold_left band tru l
let disj l = List.fold_left bor fls l

(* {1 Traversal} *)

let fold_dag f acc root =
  let visited = Hashtbl.create 64 in
  let acc = ref acc in
  let rec go t =
    if not (Hashtbl.mem visited t.id) then begin
      Hashtbl.add visited t.id ();
      (match t.node with
      | Const _ | Var _ -> ()
      | Not x | Extract (_, _, x) | Read (_, x) | Table (_, x) -> go x
      | Binop (_, a, b) | Cmp (_, a, b) | Concat (a, b) ->
          go a;
          go b
      | Ite (c, a, b) ->
          go c;
          go a;
          go b);
      acc := f !acc t
    end
  in
  go root;
  !acc

(* The children's visit order is part of the interface (Ackermann
   numbering follows it), so it is spelled out with [let]s: binop and
   comparison operands left to right, a concatenation's low part first, an
   ite's else arm, then arm, then condition.  A node is rebuilt even when
   no child changed, which is what makes a rewrite re-normalize. *)
let rewriter hook =
  let memo = Hashtbl.create 64 in
  let rec go t =
    match Hashtbl.find_opt memo t.id with
    | Some r -> r
    | None ->
        let r =
          match hook go t with
          | Some r -> r
          | None -> (
              match t.node with
              | Const _ | Var _ -> t
              | Not x -> bnot (go x)
              | Binop (op, x, y) ->
                  let x = go x in
                  binop op x (go y)
              | Cmp (op, x, y) ->
                  let x = go x in
                  cmp op x (go y)
              | Ite (c, x, y) ->
                  let y = go y in
                  let x = go x in
                  ite (go c) x y
              | Extract (high, low, x) -> extract ~high ~low (go x)
              | Concat (hi, lo) ->
                  let lo = go lo in
                  concat (go hi) lo
              | Read (m, a) -> read m (go a)
              | Table (tb, i) -> table_read tb (go i))
        in
        Hashtbl.add memo t.id r;
        r
  in
  go

let size t = fold_dag (fun n _ -> n + 1) 0 t

let vars t =
  let l =
    fold_dag
      (fun acc t -> match t.node with Var s -> (s, t.width) :: acc | _ -> acc)
      [] t
  in
  List.sort_uniq Stdlib.compare l

let reads t =
  fold_dag
    (fun acc t -> match t.node with Read (m, a) -> (m, a) :: acc | _ -> acc)
    [] t
  |> List.rev

(* {1 Printing} *)

let binop_name = function
  | And -> "bvand"
  | Or -> "bvor"
  | Xor -> "bvxor"
  | Add -> "bvadd"
  | Sub -> "bvsub"
  | Mul -> "bvmul"
  | Udiv -> "bvudiv"
  | Urem -> "bvurem"
  | Sdiv -> "bvsdiv"
  | Srem -> "bvsrem"
  | Clmul -> "clmul"
  | Clmulh -> "clmulh"
  | Shl -> "bvshl"
  | Lshr -> "bvlshr"
  | Ashr -> "bvashr"

let cmpop_name = function
  | Eq -> "="
  | Ult -> "bvult"
  | Ule -> "bvule"
  | Slt -> "bvslt"
  | Sle -> "bvsle"

let pp fmt root =
  (* Nodes referenced more than once print as [#id] after their first
     occurrence, which keeps DAG output linear in the DAG size. *)
  let seen = Hashtbl.create 64 in
  let shared = Hashtbl.create 64 in
  let count t =
    match Hashtbl.find_opt shared t.id with
    | Some n -> Hashtbl.replace shared t.id (n + 1)
    | None -> Hashtbl.add shared t.id 1
  in
  let rec cnt t =
    count t;
    if Hashtbl.find shared t.id = 1 then
      match t.node with
      | Const _ | Var _ -> ()
      | Not x | Extract (_, _, x) | Read (_, x) | Table (_, x) -> cnt x
      | Binop (_, a, b) | Cmp (_, a, b) | Concat (a, b) ->
          cnt a;
          cnt b
      | Ite (c, a, b) ->
          cnt c;
          cnt a;
          cnt b
  in
  cnt root;
  let rec go fmt t =
    let is_leaf = match t.node with Const _ | Var _ -> true | _ -> false in
    if (not is_leaf) && Hashtbl.mem seen t.id then Format.fprintf fmt "#%d" t.id
    else begin
      if not is_leaf then Hashtbl.add seen t.id ();
      let tag fmt t =
        if (not is_leaf) && Hashtbl.find shared t.id > 1 then
          Format.fprintf fmt "!%d:" t.id
      in
      match t.node with
      | Const v -> Format.fprintf fmt "%s" (Bitvec.to_string v)
      | Var s -> Format.fprintf fmt "%s" s
      | Not x -> Format.fprintf fmt "(%abvnot %a)" tag t go x
      | Binop (o, a, b) ->
          Format.fprintf fmt "(%a%s %a %a)" tag t (binop_name o) go a go b
      | Cmp (o, a, b) ->
          Format.fprintf fmt "(%a%s %a %a)" tag t (cmpop_name o) go a go b
      | Ite (c, a, b) -> Format.fprintf fmt "(%aite %a %a %a)" tag t go c go a go b
      | Extract (h, l, x) ->
          Format.fprintf fmt "(%aextract %d %d %a)" tag t h l go x
      | Concat (a, b) -> Format.fprintf fmt "(%aconcat %a %a)" tag t go a go b
      | Read (m, a) -> Format.fprintf fmt "(%aread %s %a)" tag t m.mem_name go a
      | Table (tb, a) -> Format.fprintf fmt "(%atable %s %a)" tag t tb.tab_name go a
    end
  in
  go fmt root

(* {1 Canonical serialization}

   A deterministic, self-contained text rendering of a term DAG, the basis
   of the synthesis cache's content-addressed fingerprints.  Nodes are
   numbered by shared post-order position (children before parents, roots
   in list order), never by the process-local allocation [id], so the same
   logical DAG serializes to the same bytes in every process and under any
   domain interleaving.  Tables are emitted once, contents included, so a
   document deserializes without any ambient registry state. *)

let binop_tag = function
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Udiv -> "udiv"
  | Urem -> "urem"
  | Sdiv -> "sdiv"
  | Srem -> "srem"
  | Clmul -> "clmul"
  | Clmulh -> "clmulh"
  | Shl -> "shl"
  | Lshr -> "lshr"
  | Ashr -> "ashr"

let binop_of_tag = function
  | "and" -> And
  | "or" -> Or
  | "xor" -> Xor
  | "add" -> Add
  | "sub" -> Sub
  | "mul" -> Mul
  | "udiv" -> Udiv
  | "urem" -> Urem
  | "sdiv" -> Sdiv
  | "srem" -> Srem
  | "clmul" -> Clmul
  | "clmulh" -> Clmulh
  | "shl" -> Shl
  | "lshr" -> Lshr
  | "ashr" -> Ashr
  | s -> failwith ("Term.deserialize: unknown binop " ^ s)

let cmpop_tag = function
  | Eq -> "eq"
  | Ult -> "ult"
  | Ule -> "ule"
  | Slt -> "slt"
  | Sle -> "sle"

let cmpop_of_tag = function
  | "eq" -> Eq
  | "ult" -> Ult
  | "ule" -> Ule
  | "slt" -> Slt
  | "sle" -> Sle
  | s -> failwith ("Term.deserialize: unknown cmpop " ^ s)

let check_token_name what s =
  if s = "" then invalid_arg (Printf.sprintf "Term.serialize: empty %s" what);
  String.iter
    (fun c ->
      if c = ' ' || c = '\n' || c = '\r' || c = '\t' then
        invalid_arg
          (Printf.sprintf "Term.serialize: %s %S contains whitespace" what s))
    s

let serialize (roots : t list) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "owlterm 1\n";
  (* table definitions, numbered in first-use (post-order) order *)
  let tables : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let table_defs = Buffer.create 256 in
  let table_idx (tb : table) =
    match Hashtbl.find_opt tables tb.tab_name with
    | Some k -> k
    | None ->
        check_token_name "table name" tb.tab_name;
        let k = Hashtbl.length tables in
        Hashtbl.add tables tb.tab_name k;
        Buffer.add_string table_defs
          (Printf.sprintf "T %d %d %s" k tb.tab_addr_width tb.tab_name);
        Array.iter
          (fun v ->
            Buffer.add_char table_defs ' ';
            Buffer.add_string table_defs (Bitvec.to_string v))
          tb.tab_data;
        Buffer.add_char table_defs '\n';
        k
  in
  let nodes = Buffer.create 4096 in
  let pos : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let next = ref 0 in
  let emit line =
    Buffer.add_string nodes line;
    Buffer.add_char nodes '\n';
    let k = !next in
    incr next;
    k
  in
  let rec go t =
    match Hashtbl.find_opt pos t.id with
    | Some k -> k
    | None ->
        let k =
          match t.node with
          | Const v -> emit (Printf.sprintf "c %s" (Bitvec.to_string v))
          | Var s ->
              check_token_name "variable name" s;
              emit (Printf.sprintf "v %d %s" t.width s)
          | Not x -> emit (Printf.sprintf "n %d" (go x))
          | Binop (o, a, b) ->
              emit (Printf.sprintf "b %s %d %d" (binop_tag o) (go a) (go b))
          | Cmp (o, a, b) ->
              emit (Printf.sprintf "p %s %d %d" (cmpop_tag o) (go a) (go b))
          | Ite (c, a, b) ->
              emit (Printf.sprintf "i %d %d %d" (go c) (go a) (go b))
          | Extract (h, l, x) -> emit (Printf.sprintf "x %d %d %d" h l (go x))
          | Concat (a, b) -> emit (Printf.sprintf "@ %d %d" (go a) (go b))
          | Read (m, addr) ->
              check_token_name "memory name" m.mem_name;
              let a = go addr in
              emit
                (Printf.sprintf "r %d %d %d %s" m.addr_width m.data_width a
                   m.mem_name)
          | Table (tb, idx) ->
              let ti = table_idx tb in
              emit (Printf.sprintf "t %d %d" ti (go idx))
        in
        Hashtbl.add pos t.id k;
        k
  in
  let root_ids = List.map go roots in
  Buffer.add_buffer buf table_defs;
  Buffer.add_buffer buf nodes;
  Buffer.add_string buf
    ("R" ^ String.concat "" (List.map (Printf.sprintf " %d") root_ids) ^ "\n");
  Buffer.contents buf

(* Rebuilds a serialized DAG through the smart constructors.  Every line is
   revalidated (widths, table sizes, registry consistency), so a malformed
   or stale document fails with [Failure]/[Invalid_argument] instead of
   producing an ill-formed term — cache readers treat any exception as a
   miss. *)
let deserialize (doc : string) : t list =
  let fail fmt = Printf.ksprintf failwith fmt in
  let lines =
    String.split_on_char '\n' doc |> List.filter (fun l -> l <> "")
  in
  match lines with
  | header :: rest when header = "owlterm 1" ->
      let tables : (int, table) Hashtbl.t = Hashtbl.create 8 in
      let nodes : t array ref = ref (Array.make 64 tru) in
      let count = ref 0 in
      let node k =
        if k < 0 || k >= !count then fail "Term.deserialize: node %d undefined" k;
        !nodes.(k)
      in
      let push t =
        if !count = Array.length !nodes then begin
          let bigger = Array.make (2 * !count) tru in
          Array.blit !nodes 0 bigger 0 !count;
          nodes := bigger
        end;
        !nodes.(!count) <- t;
        incr count
      in
      let int_of s =
        match int_of_string_opt s with
        | Some n -> n
        | None -> fail "Term.deserialize: expected integer, got %S" s
      in
      let roots = ref None in
      List.iter
        (fun line ->
          match String.split_on_char ' ' line with
          | "T" :: k :: aw :: name :: data ->
              let data = Array.of_list (List.map Bitvec.of_string data) in
              Hashtbl.replace tables (int_of k)
                { tab_name = name; tab_addr_width = int_of aw; tab_data = data }
          | [ "c"; v ] -> push (const (Bitvec.of_string v))
          | [ "v"; w; name ] -> push (var name (int_of w))
          | [ "n"; a ] -> push (bnot (node (int_of a)))
          | [ "b"; op; a; b ] ->
              push (binop (binop_of_tag op) (node (int_of a)) (node (int_of b)))
          | [ "p"; op; a; b ] ->
              push (cmp (cmpop_of_tag op) (node (int_of a)) (node (int_of b)))
          | [ "i"; c; a; b ] ->
              push (ite (node (int_of c)) (node (int_of a)) (node (int_of b)))
          | [ "x"; h; l; a ] ->
              push (extract ~high:(int_of h) ~low:(int_of l) (node (int_of a)))
          | [ "@"; a; b ] -> push (concat (node (int_of a)) (node (int_of b)))
          | [ "r"; aw; dw; a; name ] ->
              let m =
                { mem_name = name; addr_width = int_of aw; data_width = int_of dw }
              in
              push (read m (node (int_of a)))
          | [ "t"; ti; a ] -> (
              match Hashtbl.find_opt tables (int_of ti) with
              | Some tb -> push (table_read tb (node (int_of a)))
              | None -> fail "Term.deserialize: table %s undefined" ti)
          | "R" :: ids -> roots := Some (List.map (fun k -> node (int_of k)) ids)
          | _ -> fail "Term.deserialize: malformed line %S" line)
        rest;
      (match !roots with
      | Some rs -> rs
      | None -> fail "Term.deserialize: missing root line")
  | header :: _ -> fail "Term.deserialize: unknown header %S" header
  | [] -> fail "Term.deserialize: empty document"

(* {1 Evaluation and substitution} *)

type env = {
  lookup_var : string -> int -> Bitvec.t option;
  lookup_read : mem -> Bitvec.t -> Bitvec.t option;
}

let eval env root =
  let memo = Hashtbl.create 64 in
  let rec go t =
    match Hashtbl.find_opt memo t.id with
    | Some v -> v
    | None ->
        let v =
          match t.node with
          | Const v -> v
          | Var s -> (
              match env.lookup_var s t.width with
              | Some v ->
                  if Bitvec.width v <> t.width then
                    failwith (Printf.sprintf "Term.eval: %s bound at wrong width" s)
                  else v
              | None -> failwith (Printf.sprintf "Term.eval: unbound variable %s" s))
          | Not x -> Bitvec.lognot (go x)
          | Binop (o, a, b) -> (
              let a = go a and b = go b in
              match o with
              | And -> Bitvec.logand a b
              | Or -> Bitvec.logor a b
              | Xor -> Bitvec.logxor a b
              | Add -> Bitvec.add a b
              | Sub -> Bitvec.sub a b
              | Mul -> Bitvec.mul a b
              | Udiv -> Bitvec.udiv a b
              | Urem -> Bitvec.urem a b
              | Sdiv -> Bitvec.sdiv a b
              | Srem -> Bitvec.srem a b
              | Clmul -> Bitvec.clmul a b
              | Clmulh -> Bitvec.clmulh a b
              | Shl -> Bitvec.shl a b
              | Lshr -> Bitvec.lshr a b
              | Ashr -> Bitvec.ashr a b)
          | Cmp (o, a, b) ->
              let a = go a and b = go b in
              let r =
                match o with
                | Eq -> Bitvec.equal a b
                | Ult -> Bitvec.ult a b
                | Ule -> Bitvec.ule a b
                | Slt -> Bitvec.slt a b
                | Sle -> Bitvec.sle a b
              in
              if r then Bitvec.one 1 else Bitvec.zero 1
          | Ite (c, a, b) -> if Bitvec.is_ones (go c) then go a else go b
          | Extract (h, l, x) -> Bitvec.extract ~high:h ~low:l (go x)
          | Concat (a, b) -> Bitvec.concat (go a) (go b)
          | Read (m, a) -> (
              let addr = go a in
              match env.lookup_read m addr with
              | Some v -> v
              | None ->
                  failwith
                    (Printf.sprintf "Term.eval: unresolved read %s[%s]" m.mem_name
                       (Bitvec.to_string addr)))
          | Table (tb, a) -> tb.tab_data.(Bitvec.to_int_exn (go a))
        in
        Hashtbl.add memo t.id v;
        v
  in
  go root

(* Each call makes its own rewriter: [env] and [f] may read mutable state
   (the engine's candidate table), so a memo must not outlive the call. *)
let substitute ?(unbound = fun _ _ -> None) env root =
  rewriter
    (fun go t ->
      match t.node with
      | Var s -> (
          match env.lookup_var s t.width with
          | Some v -> Some (const v)
          | None -> unbound t t)
      | Read (m, a) -> (
          let a = go a in
          match Option.bind (is_const a) (env.lookup_read m) with
          | Some v -> Some (const v)
          | None -> unbound t (read m a))
      | Ite (c, a, b) ->
          (* Avoid rebuilding the dead branch when the condition folds. *)
          let c = go c in
          if is_true c then Some (go a) else if is_false c then Some (go b) else None
      | _ -> None)
    root

let rename f root =
  rewriter
    (fun _ t ->
      match t.node with
      | Var s -> Option.map (fun s' -> var s' t.width) (f s)
      | _ -> None)
    root
