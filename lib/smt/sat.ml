(* CDCL SAT solver.

   Internal representation: variables are 0-based; a literal is [2*v] for
   the positive phase and [2*v + 1] for the negative phase, so negation is
   [lxor 1] and the variable is [lsr 1].  The external API speaks DIMACS.

   One fixed core with no configuration: two watched literals, first-UIP
   learning, VSIDS with phase saving, Luby-100 restarts, and an
   activity-halving [reduce_db].  The clause database changes only by
   learning and deletion. *)

type result = Sat | Unsat | Unknown

(* {1 Dynamic int arrays} *)

module Vec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 16 0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let d = Array.make (2 * v.len) 0 in
      Array.blit v.data 0 d 0 v.len;
      v.data <- d
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let get v i = v.data.(i)
  let set v i x = v.data.(i) <- x
  let size v = v.len
  let shrink v n = v.len <- n
  let clear v = v.len <- 0
end

(* {1 Clauses}

   Clauses live in a growable table of int arrays.  Learned clauses carry a
   float activity that [reduce_db] ranks them by. *)

type clause = { lits : int array; learnt : bool; mutable act : float }

type t = {
  mutable clauses : clause array;  (* dense table; index = clause id *)
  mutable n_clauses : int;
  mutable free_list : int list;  (* recycled clause slots *)
  mutable n_live : int;  (* allocated clauses: n_clauses minus freed slots *)
  mutable watches : Vec.t array;  (* per literal: clause ids *)
  mutable assigns : int array;  (* per var: -1 unset / 0 false / 1 true *)
  mutable level : int array;  (* per var *)
  mutable reason : int array;  (* per var: clause id or -1 *)
  mutable polarity : bool array;  (* saved phase *)
  mutable activity : float array;  (* VSIDS *)
  mutable heap : int array;  (* binary max-heap of vars *)
  mutable heap_pos : int array;  (* var -> heap index or -1 *)
  mutable heap_len : int;
  mutable seen : bool array;
  trail : Vec.t;
  trail_lim : Vec.t;
  mutable qhead : int;
  mutable nvars : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable ok : bool;  (* false once a top-level conflict is derived *)
  mutable total_conflicts : int;
  mutable learnt_count : int;
  mutable model_valid : bool;
  (* cumulative search-phase counters; solve spans report their deltas *)
  mutable n_propagations : int;
  mutable n_decisions : int;
  mutable n_restarts : int;
  mutable n_reductions : int;
  mutable n_learnt_kept : int;  (* learnt clauses surviving reduce rounds *)
  mutable n_learnt_deleted : int;
  mutable n_encoded : int;
      (* cumulative problem clauses added through the external API — the
         monotone count statistics deltas need (clauses satisfied at level
         0 or reduced to units never occupy a slot) *)
  mutable n_import_dropped : int;
      (* imported clauses rejected by the bounds check: they named
         variables this solver never allocated *)
}

let create () =
  {
    clauses = Array.make 64 { lits = [||]; learnt = false; act = 0.0 };
    n_clauses = 0;
    free_list = [];
    n_live = 0;
    watches = Array.init 2 (fun _ -> Vec.create ());
    assigns = Array.make 1 (-1);
    level = Array.make 1 0;
    reason = Array.make 1 (-1);
    polarity = Array.make 1 false;
    activity = Array.make 1 0.0;
    heap = Array.make 1 0;
    heap_pos = Array.make 1 (-1);
    heap_len = 0;
    seen = Array.make 1 false;
    trail = Vec.create ();
    trail_lim = Vec.create ();
    qhead = 0;
    nvars = 0;
    var_inc = 1.0;
    cla_inc = 1.0;
    ok = true;
    total_conflicts = 0;
    learnt_count = 0;
    model_valid = false;
    n_propagations = 0;
    n_decisions = 0;
    n_restarts = 0;
    n_reductions = 0;
    n_learnt_kept = 0;
    n_learnt_deleted = 0;
    n_encoded = 0;
    n_import_dropped = 0;
  }

let num_vars s = s.nvars
let num_clauses s = s.n_live
let num_learnt s = s.learnt_count
let conflicts s = s.total_conflicts
let propagations s = s.n_propagations
let decisions s = s.n_decisions
let restarts s = s.n_restarts
let reductions s = s.n_reductions
let learnt_kept s = s.n_learnt_kept
let learnt_deleted s = s.n_learnt_deleted
let encoded_clauses s = s.n_encoded
let import_dropped s = s.n_import_dropped

(* {1 Variable allocation} *)

let ensure_capacity s n =
  let cap = Array.length s.assigns in
  if n > cap then begin
    let ncap = max n (2 * cap) in
    let grow a def =
      let b = Array.make ncap def in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    s.assigns <- grow s.assigns (-1);
    s.level <- grow s.level 0;
    s.reason <- grow s.reason (-1);
    s.polarity <- grow s.polarity false;
    s.activity <- grow s.activity 0.0;
    s.heap <- grow s.heap 0;
    s.heap_pos <- grow s.heap_pos (-1);
    s.seen <- grow s.seen false
  end

(* watches need one vec per literal; grow separately to keep fresh vecs *)
let ensure_watches s n =
  let need = 2 * n in
  if need > Array.length s.watches then begin
    let ncap = max need (2 * Array.length s.watches) in
    let nw = Array.init ncap (fun i ->
        if i < Array.length s.watches then s.watches.(i) else Vec.create ())
    in
    s.watches <- nw
  end

(* {1 VSIDS heap (max-heap on activity)} *)

let heap_less s a b = s.activity.(a) > s.activity.(b)

let heap_swap s i j =
  let a = s.heap.(i) and b = s.heap.(j) in
  s.heap.(i) <- b;
  s.heap.(j) <- a;
  s.heap_pos.(b) <- i;
  s.heap_pos.(a) <- j

let rec heap_up s i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if heap_less s s.heap.(i) s.heap.(p) then begin
      heap_swap s i p;
      heap_up s p
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_len && heap_less s s.heap.(l) s.heap.(!best) then best := l;
  if r < s.heap_len && heap_less s s.heap.(r) s.heap.(!best) then best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    s.heap.(s.heap_len) <- v;
    s.heap_pos.(v) <- s.heap_len;
    s.heap_len <- s.heap_len + 1;
    heap_up s s.heap_pos.(v)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_len <- s.heap_len - 1;
  s.heap_pos.(v) <- -1;
  if s.heap_len > 0 then begin
    s.heap.(0) <- s.heap.(s.heap_len);
    s.heap_pos.(s.heap.(0)) <- 0;
    heap_down s 0
  end;
  v

let heap_update s v = if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

let new_var s =
  let v = s.nvars in
  ensure_capacity s (v + 1);
  ensure_watches s (v + 1);
  s.nvars <- v + 1;
  s.assigns.(v) <- -1;
  s.reason.(v) <- -1;
  s.level.(v) <- 0;
  s.activity.(v) <- 0.0;
  s.heap_pos.(v) <- -1;
  (* fresh variables decide negative first *)
  s.polarity.(v) <- false;
  s.seen.(v) <- false;
  heap_insert s v;
  s.model_valid <- false;
  v + 1

(* {1 Assignment primitives} *)

let lit_var l = l lsr 1
let lit_sign l = l land 1 (* 1 = negated *)

let lit_value s l =
  (* -1 unset, 1 true, 0 false *)
  let a = s.assigns.(lit_var l) in
  if a < 0 then -1 else a lxor lit_sign l

let decision_level s = Vec.size s.trail_lim

let enqueue s l reason =
  s.assigns.(lit_var l) <- 1 lxor lit_sign l;
  s.level.(lit_var l) <- decision_level s;
  s.reason.(lit_var l) <- reason;
  Vec.push s.trail l

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Vec.get s.trail_lim lvl in
    for i = Vec.size s.trail - 1 downto bound do
      let l = Vec.get s.trail i in
      let v = lit_var l in
      s.polarity.(v) <- lit_sign l = 0;
      s.assigns.(v) <- -1;
      s.reason.(v) <- -1;
      heap_insert s v
    done;
    Vec.shrink s.trail bound;
    Vec.shrink s.trail_lim lvl;
    s.qhead <- bound
  end

(* {1 Clause allocation and watching} *)

let freed_slot = { lits = [||]; learnt = true; act = 0.0 }

let alloc_clause s lits learnt =
  let c = { lits; learnt; act = 0.0 } in
  let id =
    match s.free_list with
    | id :: rest ->
        s.free_list <- rest;
        s.clauses.(id) <- c;
        id
    | [] ->
        if s.n_clauses = Array.length s.clauses then begin
          let nc = Array.make (2 * s.n_clauses) c in
          Array.blit s.clauses 0 nc 0 s.n_clauses;
          s.clauses <- nc
        end;
        let id = s.n_clauses in
        s.clauses.(id) <- c;
        s.n_clauses <- s.n_clauses + 1;
        id
  in
  s.n_live <- s.n_live + 1;
  if learnt then s.learnt_count <- s.learnt_count + 1;
  Vec.push s.watches.(lits.(0)) id;
  Vec.push s.watches.(lits.(1)) id;
  id

(* {1 Unit propagation (two watched literals)} *)

exception Conflict of int

let propagate s =
  try
    while s.qhead < Vec.size s.trail do
      let p = Vec.get s.trail s.qhead in
      s.qhead <- s.qhead + 1;
      s.n_propagations <- s.n_propagations + 1;
      (* p became true; visit clauses watching ~p *)
      let falsified = p lxor 1 in
      let ws = s.watches.(falsified) in
      let n = Vec.size ws in
      let j = ref 0 in
      (try
         let i = ref 0 in
         while !i < n do
           let cid = Vec.get ws !i in
           incr i;
           let c = s.clauses.(cid) in
           let lits = c.lits in
           (* ensure the falsified literal is at position 1 *)
           if lits.(0) = falsified then begin
             lits.(0) <- lits.(1);
             lits.(1) <- falsified
           end;
           if lit_value s lits.(0) = 1 then begin
             (* clause already satisfied; keep watching *)
             Vec.set ws !j cid;
             incr j
           end
           else begin
             (* look for a new watch *)
             let len = Array.length lits in
             let k = ref 2 in
             while !k < len && lit_value s lits.(!k) = 0 do
               incr k
             done;
             if !k < len then begin
               (* found: move watch *)
               let w = lits.(!k) in
               lits.(!k) <- lits.(1);
               lits.(1) <- w;
               Vec.push s.watches.(w) cid
             end
             else if lit_value s lits.(0) = 0 then begin
               (* conflict: restore remaining watches and fail *)
               Vec.set ws !j cid;
               incr j;
               while !i < n do
                 Vec.set ws !j (Vec.get ws !i);
                 incr i;
                 incr j
               done;
               Vec.shrink ws !j;
               raise (Conflict cid)
             end
             else begin
               (* unit: propagate lits.(0) *)
               Vec.set ws !j cid;
               incr j;
               enqueue s lits.(0) cid
             end
           end
         done;
         Vec.shrink ws !j
       with Conflict _ as e -> raise e)
    done;
    -1
  with Conflict cid -> cid

(* {1 Activity} *)

let var_bump s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  heap_update s v

let var_decay s = s.var_inc <- s.var_inc /. 0.95

let cla_bump s c =
  c.act <- c.act +. s.cla_inc;
  if c.act > 1e20 then begin
    for i = 0 to s.n_clauses - 1 do
      let c = s.clauses.(i) in
      if c.learnt then c.act <- c.act *. 1e-20
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let cla_decay s = s.cla_inc <- s.cla_inc /. 0.999

(* {1 Conflict analysis (first UIP)} *)

let analyze s conflict_cid out_learnt =
  (* returns the backtrack level; fills out_learnt with the learned
     clause, asserting literal first *)
  let path = ref 0 in
  let p = ref (-1) in
  let idx = ref (Vec.size s.trail - 1) in
  let cid = ref conflict_cid in
  Vec.clear out_learnt;
  Vec.push out_learnt 0;
  (* placeholder for asserting literal *)
  let continue = ref true in
  while !continue do
    let c = s.clauses.(!cid) in
    if c.learnt then cla_bump s c;
    let lits = c.lits in
    let start = if !p = -1 then 0 else 1 in
    for k = start to Array.length lits - 1 do
      let q = lits.(k) in
      let v = lit_var q in
      if (not s.seen.(v)) && s.level.(v) > 0 then begin
        s.seen.(v) <- true;
        var_bump s v;
        if s.level.(v) >= decision_level s then incr path
        else Vec.push out_learnt q
      end
    done;
    (* find next literal on the trail marked seen *)
    while not s.seen.(lit_var (Vec.get s.trail !idx)) do
      decr idx
    done;
    p := Vec.get s.trail !idx;
    decr idx;
    let v = lit_var !p in
    s.seen.(v) <- false;
    decr path;
    if !path > 0 then cid := s.reason.(v) else continue := false
  done;
  Vec.set out_learnt 0 (!p lxor 1);
  (* simple self-subsumption: drop literals implied by the rest *)
  let n = Vec.size out_learnt in
  let keep = Array.make n true in
  for i = 1 to n - 1 do
    let q = Vec.get out_learnt i in
    let r = s.reason.(lit_var q) in
    if r >= 0 then begin
      let c = s.clauses.(r) in
      let redundant = ref true in
      Array.iter
        (fun l ->
          if l <> (q lxor 1) then begin
            let v = lit_var l in
            if (not s.seen.(v)) && s.level.(v) > 0 then redundant := false
          end)
        c.lits;
      if !redundant then keep.(i) <- false
    end
  done;
  (* recompute the vec while clearing seen marks and finding the backtrack
     level (highest level among kept non-asserting literals) *)
  let kept = ref [ Vec.get out_learnt 0 ] in
  let blevel = ref 0 in
  let swap_pos = ref (-1) in
  for i = n - 1 downto 1 do
    let q = Vec.get out_learnt i in
    if keep.(i) then kept := q :: !kept
  done;
  (* clear seen for all literals we marked *)
  for i = 0 to n - 1 do
    s.seen.(lit_var (Vec.get out_learnt i)) <- false
  done;
  (* kept = [q1; ...; q_{n-1}; asserting]; reversing puts asserting first *)
  let arr = Array.of_list (List.rev !kept) in
  let len = Array.length arr in
  Vec.clear out_learnt;
  Array.iter (fun l -> Vec.push out_learnt l) arr;
  for i = 1 to len - 1 do
    let l = Vec.get out_learnt i in
    if s.level.(lit_var l) > !blevel then begin
      blevel := s.level.(lit_var l);
      swap_pos := i
    end
  done;
  (* put a highest-level literal at position 1 so it is watched *)
  if !swap_pos > 1 then begin
    let tmp = Vec.get out_learnt 1 in
    Vec.set out_learnt 1 (Vec.get out_learnt !swap_pos);
    Vec.set out_learnt !swap_pos tmp
  end;
  !blevel

(* {1 Clause deletion} *)

let detach_clause s cid =
  let c = s.clauses.(cid) in
  let remove_watch l =
    let ws = s.watches.(l) in
    let n = Vec.size ws in
    let j = ref 0 in
    for i = 0 to n - 1 do
      if Vec.get ws i <> cid then begin
        Vec.set ws !j (Vec.get ws i);
        incr j
      end
    done;
    Vec.shrink ws !j
  in
  remove_watch c.lits.(0);
  remove_watch c.lits.(1)

let locked s cid =
  let c = s.clauses.(cid) in
  lit_value s c.lits.(0) = 1 && s.reason.(lit_var c.lits.(0)) = cid

let free_clause s cid =
  let c = s.clauses.(cid) in
  detach_clause s cid;
  s.n_live <- s.n_live - 1;
  if c.learnt then s.learnt_count <- s.learnt_count - 1;
  s.clauses.(cid) <- freed_slot;
  s.free_list <- cid :: s.free_list

(* delete the lower-activity half of long learnt clauses, skipping
   locked ones (reasons of current assignments) *)
let reduce_db s =
  let learnt = ref [] in
  for i = 0 to s.n_clauses - 1 do
    let c = s.clauses.(i) in
    (* freed slots have empty literal arrays *)
    if c.learnt && Array.length c.lits > 2 then learnt := i :: !learnt
  done;
  let arr = Array.of_list !learnt in
  Array.sort (fun a b -> Float.compare s.clauses.(a).act s.clauses.(b).act) arr;
  let ndel = Array.length arr / 2 in
  let deleted = ref 0 in
  for i = 0 to ndel - 1 do
    let cid = arr.(i) in
    if not (locked s cid) then begin
      free_clause s cid;
      incr deleted
    end
  done;
  s.n_learnt_deleted <- s.n_learnt_deleted + !deleted;
  s.n_learnt_kept <- s.n_learnt_kept + s.learnt_count

(* {1 Adding clauses} *)

let add_clause_gen s ~learnt ext_lits =
  s.model_valid <- false;
  cancel_until s 0;
  if not learnt then s.n_encoded <- s.n_encoded + 1;
  if s.ok then begin
    let to_int l =
      let v = abs l in
      if v < 1 || v > s.nvars then
        invalid_arg (Printf.sprintf "Sat.add_clause: unknown variable %d" v);
      (2 * (v - 1)) lor (if l < 0 then 1 else 0)
    in
    (* remove duplicates, detect tautologies, drop false-at-level-0 lits *)
    let lits = List.sort_uniq Stdlib.compare (List.map to_int ext_lits) in
    let tautology = List.exists (fun l -> List.mem (l lxor 1) lits) lits in
    if not tautology then begin
      let lits = List.filter (fun l -> lit_value s l <> 0) lits in
      if List.exists (fun l -> lit_value s l = 1) lits then ()
      else
        match lits with
        | [] -> s.ok <- false
        | [ l ] ->
            enqueue s l (-1);
            if propagate s >= 0 then s.ok <- false
        | _ -> ignore (alloc_clause s (Array.of_list lits) learnt)
    end
  end

let add_clause s ext_lits = add_clause_gen s ~learnt:false ext_lits

(* Learned-clause exchange (the cross-run warm-start path).  Exported
   clauses are consequences of the formula they were learned from, so they
   are only sound to import into a solver holding {e the same} encoding —
   the cache guards this with an exact problem fingerprint.  Imports are
   allocated as learnt clauses: they never count as problem clauses in the
   statistics and [reduce_db] may drop them again if they turn out not to
   pull their weight. *)

let export_learnt s =
  let out = ref [] in
  let to_ext l =
    let v = (l lsr 1) + 1 in
    if l land 1 = 1 then -v else v
  in
  for i = s.n_clauses - 1 downto 0 do
    let c = s.clauses.(i) in
    if c.learnt && Array.length c.lits > 0 then
      out := Array.to_list (Array.map to_ext c.lits) :: !out
  done;
  !out

let import_learnt s clauses =
  let imported = ref 0 in
  List.iter
    (fun lits ->
      if
        lits <> []
        && List.for_all (fun l -> l <> min_int && abs l >= 1 && abs l <= s.nvars) lits
      then begin
        add_clause_gen s ~learnt:true lits;
        incr imported
      end
      else
        (* clause over variables this solver never allocated (or empty):
           silently adding it would index watch lists out of range, so it
           is dropped — and counted, because a high drop rate means the
           exporter and importer do not share an encoding *)
        s.n_import_dropped <- s.n_import_dropped + 1)
    clauses;
  !imported

(* {1 Search} *)

let luby x =
  (* Luby sequence for 1-based index x: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
  let x = ref (x - 1) in
  let size = ref 1 and seq = ref 0 in
  while !size < !x + 1 do
    incr seq;
    size := (2 * !size) + 1
  done;
  while !size - 1 <> !x do
    size := (!size - 1) / 2;
    decr seq;
    x := !x mod !size
  done;
  1 lsl !seq

(* conflicts until the k-th restart (1-based): the Luby staircase in
   units of 100 *)
let restart_interval k = 100 * luby k

let solve_inner ?(assumptions = []) ?(budget = max_int) ?deadline s =
  cancel_until s 0;
  s.model_valid <- false;
  if not s.ok then Unsat
  else if
    (* the in-search deadline test only runs every 256 conflicts, so an
       easy formula could slip past an already-expired deadline entirely;
       refuse up front instead (the solver stays reusable) *)
    match deadline with
    | Some d -> Unix.gettimeofday () > d
    | None -> false
  then Unknown
  else begin
    let assum =
      List.map
        (fun l ->
          let v = abs l in
          if v < 1 || v > s.nvars then
            invalid_arg (Printf.sprintf "Sat.solve: unknown assumption %d" v);
          (2 * (v - 1)) lor (if l < 0 then 1 else 0))
        assumptions
      |> Array.of_list
    in
    let learnt = Vec.create () in
    let conflicts_this = ref 0 in
    let restart_count = ref 0 in
    let next_restart = ref (restart_interval 1) in
    let result = ref None in
    (if propagate s >= 0 || not s.ok then begin
       s.ok <- false;
       result := Some Unsat
     end);
    while !result = None do
      let confl = propagate s in
      if confl >= 0 then begin
        (* conflict *)
        incr conflicts_this;
        s.total_conflicts <- s.total_conflicts + 1;
        if decision_level s <= Array.length assum then begin
          (* conflict under (or below) assumptions *)
          if decision_level s = 0 then s.ok <- false;
          result := Some Unsat
        end
        else begin
          let blevel = analyze s confl learnt in
          (* never backtrack below the assumption levels *)
          let blevel = max blevel (min (Array.length assum) (decision_level s - 1)) in
          cancel_until s blevel;
          (if Vec.size learnt = 1 then begin
             let l = Vec.get learnt 0 in
             if lit_value s l = -1 then enqueue s l (-1)
             else if lit_value s l = 0 then begin
               if decision_level s = 0 then s.ok <- false;
               result := Some Unsat
             end
           end
           else begin
             let arr = Array.init (Vec.size learnt) (Vec.get learnt) in
             let cid = alloc_clause s arr true in
             cla_bump s s.clauses.(cid);
             if lit_value s arr.(0) = -1 then enqueue s arr.(0) cid
           end);
          var_decay s;
          cla_decay s;
          if !conflicts_this > budget then result := Some Unknown
          else if
            !conflicts_this land 255 = 0
            && match deadline with
               | Some d -> Unix.gettimeofday () > d
               | None -> false
          then result := Some Unknown
          else if !conflicts_this >= !next_restart then begin
            incr restart_count;
            s.n_restarts <- s.n_restarts + 1;
            next_restart :=
              !conflicts_this + restart_interval (!restart_count + 1);
            if Obs.enabled () then
              Obs.instant "sat.restart"
                ~args:
                  [
                    ("conflicts", Obs.Int !conflicts_this);
                    ("learnt", Obs.Int s.learnt_count);
                  ];
            cancel_until s (min (Array.length assum) (decision_level s))
          end
          else if s.learnt_count > 4000 + (num_clauses s / 2) then begin
            s.n_reductions <- s.n_reductions + 1;
            Obs.span "sat.reduce_db"
              ~result:(fun () -> [ ("learnt_after", Obs.Int s.learnt_count) ])
              (fun () -> reduce_db s)
          end
        end
      end
      else begin
        (* no conflict: pick assumption or decide *)
        let dl = decision_level s in
        if dl < Array.length assum then begin
          let l = assum.(dl) in
          match lit_value s l with
          | 1 ->
              (* already satisfied: open a trivial level to keep indices aligned *)
              Vec.push s.trail_lim (Vec.size s.trail)
          | 0 -> result := Some Unsat (* assumption falsified *)
          | _ ->
              Vec.push s.trail_lim (Vec.size s.trail);
              enqueue s l (-1)
        end
        else begin
          (* VSIDS decision *)
          let v = ref (-1) in
          while !v < 0 && s.heap_len > 0 do
            let cand = heap_pop s in
            if s.assigns.(cand) < 0 then v := cand
          done;
          if !v < 0 then begin
            s.model_valid <- true;
            result := Some Sat
          end
          else begin
            s.n_decisions <- s.n_decisions + 1;
            Vec.push s.trail_lim (Vec.size s.trail);
            let l = (2 * !v) lor if s.polarity.(!v) then 0 else 1 in
            enqueue s l (-1)
          end
        end
      end
    done;
    (match !result with
    | Some Sat -> ()
    | _ -> cancel_until s 0);
    Option.get !result
  end

(* Observability wrapper: [solve_inner] only pays plain field increments;
   counter deltas and the span are accounted here, once per call. *)

let c_propagations = Obs.counter "sat.propagations"
let c_decisions = Obs.counter "sat.decisions"
let c_conflicts = Obs.counter "sat.conflicts"
let c_restarts = Obs.counter "sat.restarts"
let c_reduce_dbs = Obs.counter "sat.reduce_dbs"
let c_solves = Obs.counter "sat.solves"
let c_learnt_deleted = Obs.counter "sat.learnt_deleted"

let result_name = function
  | Sat -> "sat"
  | Unsat -> "unsat"
  | Unknown -> "unknown"

let solve ?(assumptions = []) ?(budget = max_int) ?deadline s =
  if not (Obs.enabled () || Obs.metrics_enabled ()) then
    solve_inner ~assumptions ~budget ?deadline s
  else begin
    let c0 = s.total_conflicts
    and p0 = s.n_propagations
    and d0 = s.n_decisions
    and r0 = s.n_restarts
    and g0 = s.n_reductions
    and del0 = s.n_learnt_deleted in
    let r =
      Obs.span "sat.solve"
        ~args:
          [
            ("vars", Obs.Int (num_vars s));
            ("clauses", Obs.Int (num_clauses s));
            ("assumptions", Obs.Int (List.length assumptions));
          ]
        ~result:(fun r ->
          [
            ("result", Obs.Str (result_name r));
            ("conflicts", Obs.Int (s.total_conflicts - c0));
            ("propagations", Obs.Int (s.n_propagations - p0));
            ("decisions", Obs.Int (s.n_decisions - d0));
            ("restarts", Obs.Int (s.n_restarts - r0));
          ])
        (fun () -> solve_inner ~assumptions ~budget ?deadline s)
    in
    Obs.incr c_solves;
    Obs.incr ~by:(s.total_conflicts - c0) c_conflicts;
    Obs.incr ~by:(s.n_propagations - p0) c_propagations;
    Obs.incr ~by:(s.n_decisions - d0) c_decisions;
    Obs.incr ~by:(s.n_restarts - r0) c_restarts;
    Obs.incr ~by:(s.n_reductions - g0) c_reduce_dbs;
    Obs.incr ~by:(s.n_learnt_deleted - del0) c_learnt_deleted;
    r
  end

let value s v =
  if v < 1 || v > s.nvars then invalid_arg "Sat.value: unknown variable";
  if not s.model_valid then invalid_arg "Sat.value: no model available";
  s.assigns.(v - 1) = 1
