(* CDCL SAT solver.

   Internal representation: variables are 0-based; a literal is [2*v] for
   the positive phase and [2*v + 1] for the negative phase, so negation is
   [lxor 1] and the variable is [lsr 1].  The external API speaks DIMACS.

   Beyond the classic two-watched-literal CDCL core, the solver carries
   the "between conflicts" machinery that modern solvers win with, each
   piece individually gated by {!config}:

   - LBD (glue) clause management: learnt clauses carry the number of
     distinct decision levels among their literals, glue clauses
     (LBD <= 2) are never deleted, and [reduce_db] retains by LBD tier
     instead of pure activity;
   - best-phase rephasing: the polarities of the deepest trail seen are
     snapshotted and copied back over the saved phases every few
     restarts;
   - inprocessing between restarts: occurrence-list subsumption and
     self-subsuming resolution, clause vivification, and bounded variable
     elimination.  Elimination records the removed clauses on a stack so
     models extend to eliminated variables (witness reconstruction) and
     so a later clause mentioning one can restore them ([freeze] exempts
     variables — activation-literal guards — from elimination wholesale). *)

type result = Sat | Unsat | Unknown

(* {1 Configuration} *)

type restart_schedule =
  | Luby of int  (* unit run length; the legacy schedule is [Luby 100] *)
  | Geometric of int * float  (* first interval, growth factor >= 1.0 *)

type phase_init =
  | Phase_neg  (* fresh variables decide negative first (the legacy rule) *)
  | Phase_pos  (* fresh variables decide positive first *)
  | Phase_rand  (* per-variable pseudo-random phase, seeded by branch_seed *)

type config = {
  lbd_retention : bool;  (* LBD-tiered reduce_db with glue protection *)
  rephase : bool;  (* best-phase rephasing on restarts *)
  subsume : bool;  (* inprocessing: subsumption + self-subsumption *)
  vivify : bool;  (* inprocessing: clause vivification *)
  elim : bool;  (* inprocessing: bounded variable elimination *)
  inprocess_interval : int;  (* conflicts between inprocessing rounds *)
  restart : restart_schedule;
  branch_seed : int;
      (* 0 = pure VSIDS tie-by-index; nonzero perturbs fresh variables'
         initial activity by a tiny seed-dependent epsilon, diversifying
         the early decision order without touching learned activity *)
  phase : phase_init;
}

type profile = Default | Aggressive | Conservative

let conservative_config =
  {
    lbd_retention = false;
    rephase = false;
    subsume = false;
    vivify = false;
    elim = false;
    inprocess_interval = max_int;
    restart = Luby 100;
    branch_seed = 0;
    phase = Phase_neg;
  }

let default_config =
  {
    lbd_retention = true;
    rephase = true;
    subsume = true;
    vivify = true;
    elim = false;
    inprocess_interval = 2000;
    restart = Luby 100;
    branch_seed = 0;
    phase = Phase_neg;
  }

let aggressive_config =
  { default_config with elim = true; inprocess_interval = 1500 }

let config_of_profile = function
  | Default -> default_config
  | Aggressive -> aggressive_config
  | Conservative -> conservative_config

let profile_name = function
  | Default -> "default"
  | Aggressive -> "aggressive"
  | Conservative -> "conservative"

let profile_of_string = function
  | "default" -> Some Default
  | "aggressive" -> Some Aggressive
  | "conservative" -> Some Conservative
  | _ -> None

(* Deterministic integer mixer (splitmix-style) for seeded diversification:
   the same (seed, v) always lands on the same value, independent of any
   global hashing state, so seeded runs are bit-for-bit reproducible. *)
let mix seed v =
  let x = (seed * 0x9E3779B1) lxor ((v + 1) * 0x85EBCA6B) in
  let x = x lxor (x lsr 16) in
  let x = x * 0x27D4EB2F in
  (x lxor (x lsr 13)) land max_int

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
   float activity and their LBD (number of distinct decision levels at
   learn time, updated downward when conflict analysis revisits them). *)

type clause = {
  mutable lits : int array;
  mutable learnt : bool;  (* mutable: subsumption can promote to problem *)
  mutable act : float;
  mutable lbd : int;
}

type t = {
  cfg : config;
  mutable clauses : clause array;  (* dense table; index = clause id *)
  mutable n_clauses : int;
  mutable free_list : int list;  (* recycled clause slots *)
  mutable watches : Vec.t array;  (* per literal: clause ids *)
  mutable assigns : int array;  (* per var: -1 unset / 0 false / 1 true *)
  mutable level : int array;  (* per var *)
  mutable reason : int array;  (* per var: clause id or -1 *)
  mutable polarity : bool array;  (* saved phase *)
  mutable best_phase : bool array;  (* phases of the deepest trail seen *)
  mutable best_trail : int;  (* its length *)
  mutable frozen : bool array;  (* exempt from variable elimination *)
  mutable eliminated : bool array;
  mutable ext_model : int array;  (* witness values for eliminated vars *)
  mutable elim_stack : (int * int array list) list;
      (* (var, removed problem clauses), newest elimination first *)
  mutable activity : float array;  (* VSIDS *)
  mutable heap : int array;  (* binary max-heap of vars *)
  mutable heap_pos : int array;  (* var -> heap index or -1 *)
  mutable heap_len : int;
  mutable seen : bool array;
  mutable lbd_stamp : int array;  (* per decision level, generation marks *)
  mutable lbd_gen : int;
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
  mutable vivify_cursor : int;  (* round-robin position for vivification *)
  mutable last_inprocess : int;  (* total_conflicts at the last round *)
  (* cumulative search-phase counters; solve spans report their deltas *)
  mutable n_propagations : int;
  mutable n_decisions : int;
  mutable n_restarts : int;
  mutable n_reductions : int;
  mutable n_learnt_kept : int;  (* learnt clauses surviving reduce rounds *)
  mutable n_learnt_deleted : int;
  mutable n_subsumed : int;  (* clauses deleted by subsumption *)
  mutable n_strengthened : int;  (* clauses shrunk by self-subsumption *)
  mutable n_vivified : int;  (* literals removed by vivification *)
  mutable n_eliminated : int;  (* variables eliminated *)
  mutable n_rephases : int;
  mutable n_encoded : int;
      (* cumulative problem clauses added through the external API — the
         monotone count statistics deltas need (live counts can shrink
         when inprocessing deletes clauses) *)
  mutable n_import_dropped : int;
      (* imported clauses rejected by the bounds check: they named
         variables this solver never allocated *)
}

let create ?(config = default_config) () =
  if config.inprocess_interval < 1 then
    invalid_arg "Sat.create: inprocess_interval < 1";
  (match config.restart with
  | Luby base when base < 1 -> invalid_arg "Sat.create: Luby base < 1"
  | Geometric (base, f) when base < 1 || f < 1.0 ->
      invalid_arg "Sat.create: Geometric base < 1 or factor < 1.0"
  | _ -> ());
  {
    cfg = config;
    clauses = Array.make 64 { lits = [||]; learnt = false; act = 0.0; lbd = 0 };
    n_clauses = 0;
    free_list = [];
    watches = Array.init 2 (fun _ -> Vec.create ());
    assigns = Array.make 1 (-1);
    level = Array.make 1 0;
    reason = Array.make 1 (-1);
    polarity = Array.make 1 false;
    best_phase = Array.make 1 false;
    best_trail = 0;
    frozen = Array.make 1 false;
    eliminated = Array.make 1 false;
    ext_model = Array.make 1 (-1);
    elim_stack = [];
    activity = Array.make 1 0.0;
    heap = Array.make 1 0;
    heap_pos = Array.make 1 (-1);
    heap_len = 0;
    seen = Array.make 1 false;
    lbd_stamp = Array.make 2 0;
    lbd_gen = 0;
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
    vivify_cursor = 0;
    last_inprocess = 0;
    n_propagations = 0;
    n_decisions = 0;
    n_restarts = 0;
    n_reductions = 0;
    n_learnt_kept = 0;
    n_learnt_deleted = 0;
    n_subsumed = 0;
    n_strengthened = 0;
    n_vivified = 0;
    n_eliminated = 0;
    n_rephases = 0;
    n_encoded = 0;
    n_import_dropped = 0;
  }

let num_vars s = s.nvars
let num_clauses s = s.n_clauses - List.length s.free_list
let num_learnt s = s.learnt_count
let conflicts s = s.total_conflicts
let propagations s = s.n_propagations
let decisions s = s.n_decisions
let restarts s = s.n_restarts
let reductions s = s.n_reductions
let learnt_kept s = s.n_learnt_kept
let learnt_deleted s = s.n_learnt_deleted
let subsumed s = s.n_subsumed
let strengthened s = s.n_strengthened
let vivified s = s.n_vivified
let eliminated_vars s = s.n_eliminated
let rephases s = s.n_rephases
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
    s.best_phase <- grow s.best_phase false;
    s.frozen <- grow s.frozen false;
    s.eliminated <- grow s.eliminated false;
    s.ext_model <- grow s.ext_model (-1);
    s.activity <- grow s.activity 0.0;
    s.heap <- grow s.heap 0;
    s.heap_pos <- grow s.heap_pos (-1);
    s.seen <- grow s.seen false;
    (* indexed by decision level, which can reach nvars *)
    let b = Array.make (ncap + 1) 0 in
    Array.blit s.lbd_stamp 0 b 0 (Array.length s.lbd_stamp);
    s.lbd_stamp <- b
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
  (* Seeded diversification: a nonzero branch seed perturbs the initial
     activity by a tiny epsilon (far below any bumped activity, so it only
     breaks ties among untouched variables), and the phase policy sets the
     first decision polarity.  The defaults (seed 0, Phase_neg) reproduce
     the historical solver bit for bit. *)
  s.activity.(v) <-
    (if s.cfg.branch_seed = 0 then 0.0
     else float_of_int (mix s.cfg.branch_seed v land 0xFFFF) *. 1e-12);
  s.heap_pos.(v) <- -1;
  let init_phase =
    match s.cfg.phase with
    | Phase_neg -> false
    | Phase_pos -> true
    | Phase_rand -> mix (s.cfg.branch_seed + 77) v land 1 = 1
  in
  s.polarity.(v) <- init_phase;
  s.best_phase.(v) <- init_phase;
  s.frozen.(v) <- false;
  s.eliminated.(v) <- false;
  s.ext_model.(v) <- -1;
  s.seen.(v) <- false;
  heap_insert s v;
  s.model_valid <- false;
  v + 1

let freeze s v =
  if v < 1 || v > s.nvars then invalid_arg "Sat.freeze: unknown variable";
  s.frozen.(v - 1) <- true

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

let freed_slot = { lits = [||]; learnt = true; act = 0.0; lbd = 0 }

let alloc_clause s lits learnt lbd =
  let c = { lits; learnt; act = 0.0; lbd } in
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

(* {1 LBD}

   The number of distinct decision levels among a clause's literals,
   computed with a generation-stamped per-level array so each measurement
   is O(len) with no clearing pass. *)

let clause_lbd s lits len =
  s.lbd_gen <- s.lbd_gen + 1;
  let g = s.lbd_gen in
  let n = ref 0 in
  for i = 0 to len - 1 do
    let lv = s.level.(lit_var lits.(i)) in
    if lv > 0 && s.lbd_stamp.(lv) <> g then begin
      s.lbd_stamp.(lv) <- g;
      incr n
    end
  done;
  !n

(* {1 Conflict analysis (first UIP)} *)

let analyze s conflict_cid out_learnt =
  (* returns (backtrack level, lbd); fills out_learnt with the learned
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
    if c.learnt then begin
      cla_bump s c;
      (* glucose-style dynamic tightening: a revisited learnt clause whose
         current LBD beats the recorded one keeps the better value, which
         protects it through the next reduce round *)
      if s.cfg.lbd_retention && c.lbd > 2 then begin
        let l = clause_lbd s c.lits (Array.length c.lits) in
        if l < c.lbd then c.lbd <- l
      end
    end;
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
  (!blevel, clause_lbd s arr len)

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
  if c.learnt then s.learnt_count <- s.learnt_count - 1;
  s.clauses.(cid) <- freed_slot;
  s.free_list <- cid :: s.free_list

let reduce_db s =
  if s.cfg.lbd_retention then begin
    (* LBD-tiered retention: glue (lbd <= 2), binary, and locked clauses
       are never deleted; the rest is sorted worst-first (high LBD, then
       low activity, clause id as the deterministic tiebreak) and the
       worse half deleted *)
    let cand = ref [] in
    for i = s.n_clauses - 1 downto 0 do
      let c = s.clauses.(i) in
      if c.learnt && Array.length c.lits > 2 && c.lbd > 2 && not (locked s i)
      then cand := i :: !cand
    done;
    let arr = Array.of_list !cand in
    Array.sort
      (fun a b ->
        let ca = s.clauses.(a) and cb = s.clauses.(b) in
        if ca.lbd <> cb.lbd then compare cb.lbd ca.lbd
        else if ca.act <> cb.act then Float.compare ca.act cb.act
        else compare a b)
      arr;
    let ndel = Array.length arr / 2 in
    for i = 0 to ndel - 1 do
      free_clause s arr.(i)
    done;
    s.n_learnt_deleted <- s.n_learnt_deleted + ndel;
    s.n_learnt_kept <- s.n_learnt_kept + s.learnt_count
  end
  else begin
    (* legacy policy: delete the lower-activity half of long learnt
       clauses *)
    let learnt = ref [] in
    for i = 0 to s.n_clauses - 1 do
      let c = s.clauses.(i) in
      (* freed slots have empty literal arrays *)
      if c.learnt && Array.length c.lits > 2 then learnt := i :: !learnt
    done;
    let arr = Array.of_list !learnt in
    Array.sort
      (fun a b -> Float.compare s.clauses.(a).act s.clauses.(b).act)
      arr;
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
  end

(* {1 Internal clause addition}

   The normalization path shared by variable-elimination resolvents and
   restored clauses: literals are already internal, the solver is at
   decision level 0.  Level-0-false literals are dropped, satisfied and
   tautological clauses skipped, units enqueued. *)

let add_internal s lits =
  if s.ok then begin
    let lits = List.sort_uniq Stdlib.compare lits in
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
        | _ -> ignore (alloc_clause s (Array.of_list lits) false 0)
    end
  end

(* {1 Variable elimination bookkeeping}

   Eliminating [v] removes every clause containing it and adds all
   non-tautological resolvents.  The removed problem clauses go on
   [elim_stack] so that (a) a model extends to [v] afterwards (witness
   reconstruction, newest elimination first) and (b) a later externally
   added clause mentioning an eliminated variable can restore them.

   Restoration is wholesale: a clause saved for [v] may mention a variable
   eliminated {e after} [v] — those later eliminations never saw the saved
   clause (it had left the database), so reintroducing it piecemeal would
   be unsound for them.  Restoring the entire stack, newest first, puts
   the database back into a state where every elimination's premises hold
   again.  [freeze] marks variables that must never be eliminated in the
   first place (activation-literal guards: cheap retraction must not turn
   into a full restore). *)

let restore_all s =
  let rec go () =
    match s.elim_stack with
    | [] -> ()
    | (v, saved) :: rest ->
        s.elim_stack <- rest;
        s.eliminated.(v) <- false;
        if s.assigns.(v) < 0 then heap_insert s v;
        List.iter (fun lits -> add_internal s (Array.to_list lits)) saved;
        go ()
  in
  go ()

(* Extend the model over eliminated variables, newest elimination first.
   At each step every non-[v] literal of [v]'s saved clauses is already
   assigned (saved clauses only mention variables alive at [v]'s
   elimination: never-eliminated ones the search assigned, later-eliminated
   ones already reconstructed).  [v] must be true iff some saved clause
   contains it positively with every other literal false; the standard
   witness argument shows the remaining saved clauses stay satisfied. *)

let reconstruct_model s =
  let litval l =
    let v = lit_var l in
    let a = if s.assigns.(v) >= 0 then s.assigns.(v) else s.ext_model.(v) in
    if a < 0 then -1 else a lxor lit_sign l
  in
  List.iter
    (fun (v, saved) ->
      let forces lits =
        Array.exists (fun l -> l = 2 * v) lits
        && Array.for_all (fun l -> lit_var l = v || litval l = 0) lits
      in
      s.ext_model.(v) <- (if List.exists forces saved then 1 else 0))
    s.elim_stack

(* {1 Inprocessing: subsumption and self-subsuming resolution}

   Occurrence lists are rebuilt per round (inprocessing is rare).  For
   each clause C in ascending id order, candidates D come from the
   occurrence list of C's least-frequent literal.  C ⊆ D deletes D (if D
   is a problem clause and C learnt, C is first promoted to problem rank
   so the clause database never loses irredundant strength); C
   self-subsuming D strengthens D in place.  Strengthened clauses also
   shed level-0-false literals so the two-watch invariant stays intact. *)

let strengthen_clause s cid drop =
  let c = s.clauses.(cid) in
  detach_clause s cid;
  let kept =
    Array.to_list c.lits
    |> List.filter (fun x -> x <> drop && lit_value s x <> 0)
  in
  if List.exists (fun x -> lit_value s x = 1) kept then begin
    (* satisfied at level 0: permanently true, delete *)
    if c.learnt then s.learnt_count <- s.learnt_count - 1;
    s.clauses.(cid) <- freed_slot;
    s.free_list <- cid :: s.free_list
  end
  else
    match kept with
    | [] ->
        s.ok <- false;
        if c.learnt then s.learnt_count <- s.learnt_count - 1;
        s.clauses.(cid) <- freed_slot;
        s.free_list <- cid :: s.free_list
    | [ l ] ->
        if c.learnt then s.learnt_count <- s.learnt_count - 1;
        s.clauses.(cid) <- freed_slot;
        s.free_list <- cid :: s.free_list;
        enqueue s l (-1);
        if propagate s >= 0 then s.ok <- false
    | _ ->
        let arr = Array.of_list kept in
        c.lits <- arr;
        if c.lbd > Array.length arr then c.lbd <- Array.length arr;
        Vec.push s.watches.(arr.(0)) cid;
        Vec.push s.watches.(arr.(1)) cid

let subsume_round s =
  let nlits = 2 * s.nvars in
  let occ = Array.init nlits (fun _ -> Vec.create ()) in
  for cid = 0 to s.n_clauses - 1 do
    let c = s.clauses.(cid) in
    if Array.length c.lits >= 2 then
      Array.iter (fun l -> Vec.push occ.(l) cid) c.lits
  done;
  let mark = Array.make nlits 0 in
  let gen = ref 0 in
  for cid = 0 to s.n_clauses - 1 do
    if s.ok then begin
      let c = s.clauses.(cid) in
      let len = Array.length c.lits in
      if len >= 2 && len <= 20 then begin
        incr gen;
        let g = !gen in
        Array.iter (fun l -> mark.(l) <- g) c.lits;
        let best = ref c.lits.(0) in
        Array.iter
          (fun l -> if Vec.size occ.(l) < Vec.size occ.(!best) then best := l)
          c.lits;
        let cand = occ.(!best) in
        let ncand = Vec.size cand in
        if ncand <= 1000 then
          for k = 0 to ncand - 1 do
            let did = Vec.get cand k in
            if did <> cid && s.ok then begin
              let d = s.clauses.(did) in
              let dlits = d.lits in
              let dlen = Array.length dlits in
              (* occurrence entries go stale when D was deleted or
                 strengthened; re-reading D's literals makes that safe *)
              if dlen >= len then begin
                let matched = ref 0 in
                let neg = ref (-1) in
                let negcount = ref 0 in
                for i = 0 to dlen - 1 do
                  let l = dlits.(i) in
                  if mark.(l) = g then incr matched
                  else if mark.(l lxor 1) = g then begin
                    incr negcount;
                    neg := l
                  end
                done;
                if !matched = len then begin
                  (* C subsumes D *)
                  if (not d.learnt) && c.learnt then begin
                    c.learnt <- false;
                    s.learnt_count <- s.learnt_count - 1
                  end;
                  free_clause s did;
                  s.n_subsumed <- s.n_subsumed + 1
                end
                else if !matched = len - 1 && !negcount = 1 then begin
                  (* self-subsuming resolution: remove !neg from D *)
                  strengthen_clause s did !neg;
                  s.n_strengthened <- s.n_strengthened + 1
                end
              end
            end
          done
      end
    end
  done

(* {1 Inprocessing: clause vivification}

   A bounded number of mid-length clauses per round (round-robin cursor
   over clause ids).  The clause is detached, its literals' negations
   assumed one by one on a throwaway decision level: a literal already
   true closes the clause at a prefix, a false one is redundant and
   dropped, and a conflict during propagation proves the assumed prefix
   itself contradictory. *)

let vivify_round s =
  let n = s.n_clauses in
  if n > 0 then begin
    let budget = ref 256 in
    let start = s.vivify_cursor mod n in
    let step = ref 0 in
    while !step < n && !budget > 0 && s.ok do
      let cid = (start + !step) mod n in
      incr step;
      let c = s.clauses.(cid) in
      let len = Array.length c.lits in
      if len >= 3 && len <= 32 && not (locked s cid) then begin
        decr budget;
        s.vivify_cursor <- cid + 1;
        detach_clause s cid;
        let lits = c.lits in
        let kept = ref [] in
        let satisfied = ref false in
        let stop = ref false in
        Vec.push s.trail_lim (Vec.size s.trail);
        let j = ref 0 in
        while (not !stop) && !j < len do
          let l = lits.(!j) in
          (match lit_value s l with
          | 1 ->
              if s.level.(lit_var l) = 0 then satisfied := true
              else kept := l :: !kept;
              stop := true
          | 0 -> () (* falsified at level 0 or by the prefix: redundant *)
          | _ ->
              kept := l :: !kept;
              enqueue s (l lxor 1) (-1);
              if propagate s >= 0 then stop := true);
          incr j
        done;
        cancel_until s 0;
        if !satisfied then begin
          if c.learnt then s.learnt_count <- s.learnt_count - 1;
          s.clauses.(cid) <- freed_slot;
          s.free_list <- cid :: s.free_list
        end
        else begin
          let arr = Array.of_list (List.rev !kept) in
          let nlen = Array.length arr in
          if nlen < len then s.n_vivified <- s.n_vivified + (len - nlen);
          match nlen with
          | 0 ->
              s.ok <- false;
              if c.learnt then s.learnt_count <- s.learnt_count - 1;
              s.clauses.(cid) <- freed_slot;
              s.free_list <- cid :: s.free_list
          | 1 ->
              if c.learnt then s.learnt_count <- s.learnt_count - 1;
              s.clauses.(cid) <- freed_slot;
              s.free_list <- cid :: s.free_list;
              (match lit_value s arr.(0) with
              | -1 ->
                  enqueue s arr.(0) (-1);
                  if propagate s >= 0 then s.ok <- false
              | 0 -> s.ok <- false
              | _ -> ())
          | _ ->
              c.lits <- arr;
              if c.lbd > nlen then c.lbd <- nlen;
              Vec.push s.watches.(arr.(0)) cid;
              Vec.push s.watches.(arr.(1)) cid
        end
      end
    done
  end

(* {1 Inprocessing: bounded variable elimination}

   Classic NiVER-style gate-free elimination: a variable with few
   occurrences on both sides goes away when its non-tautological
   resolvents number at most the problem clauses removed.  Learnt clauses
   containing the variable are deleted outright (they are consequences).
   Variables in resolvents added this round are marked dirty — their
   occurrence lists are incomplete — and skipped until the next round,
   which keeps the single occurrence-list build honest. *)

let elim_round s in_assum =
  let nlits = 2 * s.nvars in
  let occ = Array.init nlits (fun _ -> Vec.create ()) in
  for cid = 0 to s.n_clauses - 1 do
    let c = s.clauses.(cid) in
    if Array.length c.lits >= 2 then
      Array.iter (fun l -> Vec.push occ.(l) cid) c.lits
  done;
  let dirty = Array.make (max 1 s.nvars) false in
  let live_with cid l =
    let c = s.clauses.(cid) in
    Array.length c.lits >= 2 && Array.exists (fun x -> x = l) c.lits
  in
  for v = 0 to s.nvars - 1 do
    if
      s.ok
      && (not s.frozen.(v))
      && (not s.eliminated.(v))
      && s.assigns.(v) < 0
      && (not dirty.(v))
      && not (Array.length in_assum > v && in_assum.(v))
    then begin
      let pos = ref [] and npos = ref 0 in
      let negs = ref [] and nneg = ref 0 in
      let p = occ.(2 * v) and q = occ.((2 * v) + 1) in
      for i = Vec.size p - 1 downto 0 do
        let cid = Vec.get p i in
        if live_with cid (2 * v) then begin
          pos := cid :: !pos;
          incr npos
        end
      done;
      for i = Vec.size q - 1 downto 0 do
        let cid = Vec.get q i in
        if live_with cid ((2 * v) + 1) then begin
          negs := cid :: !negs;
          incr nneg
        end
      done;
      if !npos <= 8 && !nneg <= 8 && !npos + !nneg <= 12 then begin
        let prob_pos = List.filter (fun c -> not s.clauses.(c).learnt) !pos in
        let prob_neg = List.filter (fun c -> not s.clauses.(c).learnt) !negs in
        (* candidate resolvents of the problem clauses *)
        let resolvents = ref [] in
        let count = ref 0 in
        let too_big = ref false in
        List.iter
          (fun pc ->
            List.iter
              (fun nc ->
                if not !too_big then begin
                  let a = s.clauses.(pc).lits and b = s.clauses.(nc).lits in
                  let ls =
                    List.sort_uniq Stdlib.compare
                      (List.filter
                         (fun l -> lit_var l <> v)
                         (Array.to_list a @ Array.to_list b))
                  in
                  let taut =
                    List.exists (fun l -> List.mem (l lxor 1) ls) ls
                  in
                  if not taut then begin
                    if List.length ls > 24 then too_big := true
                    else begin
                      resolvents := ls :: !resolvents;
                      incr count
                    end
                  end
                end)
              prob_neg)
          prob_pos;
        let removed = List.length prob_pos + List.length prob_neg in
        if (not !too_big) && !count <= removed && removed > 0 then begin
          (* save the removed problem clauses for reconstruction/restore *)
          let saved =
            List.map
              (fun cid -> Array.copy s.clauses.(cid).lits)
              (prob_pos @ prob_neg)
          in
          s.elim_stack <- (v, saved) :: s.elim_stack;
          s.eliminated.(v) <- true;
          List.iter (fun cid -> free_clause s cid) !pos;
          List.iter (fun cid -> free_clause s cid) !negs;
          List.iter
            (fun ls ->
              List.iter (fun l -> dirty.(lit_var l) <- true) ls;
              add_internal s ls)
            (List.rev !resolvents);
          s.n_eliminated <- s.n_eliminated + 1
        end
      end
    end
  done

(* The inprocessing driver.  Runs at decision level 0 between restarts.
   Level-0 trail literals may carry reasons pointing into clause slots the
   passes are about to rewrite or recycle; the facts stand on their own,
   so the reasons are cleared first ([analyze] never dereferences a
   level-0 reason, and [locked] treats -1 as unlocked). *)

let inprocess s in_assum =
  cancel_until s 0;
  for i = 0 to Vec.size s.trail - 1 do
    s.reason.(lit_var (Vec.get s.trail i)) <- -1
  done;
  if s.cfg.subsume && s.ok then subsume_round s;
  if s.cfg.vivify && s.ok then vivify_round s;
  if s.cfg.elim && s.ok then elim_round s in_assum

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
    let lits = List.map to_int ext_lits in
    (* a new clause over an eliminated variable invalidates that
       elimination's premise (all clauses mentioning the variable were
       resolved away); put the saved clauses back before accepting it *)
    if List.exists (fun l -> s.eliminated.(lit_var l)) lits then
      restore_all s;
    if s.ok then begin
      (* remove duplicates, detect tautologies, drop false-at-level-0 lits *)
      let lits = List.sort_uniq Stdlib.compare lits in
      let tautology =
        List.exists (fun l -> List.mem (l lxor 1) lits) lits
      in
      if not tautology then begin
        let lits = List.filter (fun l -> lit_value s l <> 0) lits in
        if List.exists (fun l -> lit_value s l = 1) lits then ()
        else
          match lits with
          | [] -> s.ok <- false
          | [ l ] ->
              enqueue s l (-1);
              if propagate s >= 0 then s.ok <- false
          | _ ->
              ignore
                (alloc_clause s (Array.of_list lits) learnt
                   (if learnt then List.length lits else 0))
      end
    end
  end

let add_clause s ext_lits = add_clause_gen s ~learnt:false ext_lits

(* Learned-clause exchange (the cross-run warm-start path).  Exported
   clauses are consequences of the formula they were learned from, so they
   are only sound to import into a solver holding {e the same} encoding —
   the cache guards this with an exact problem fingerprint.  Imports are
   allocated as learnt clauses: they never count as problem clauses in the
   statistics and [reduce_db] may drop them again if they turn out not to
   pull their weight.  Learnt clauses over eliminated variables never
   exist (elimination deletes them), so exports are clean; imports go
   through [add_clause_gen], whose restore-on-add covers the converse. *)

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

(* Interval until the k-th restart (1-based), per the configured schedule.
   [Luby base] is the classic base*luby(k) staircase (the legacy behavior
   at base 100); [Geometric] grows from its first interval by a constant
   factor, capped to keep the float->int conversion safe. *)
let restart_interval s k =
  match s.cfg.restart with
  | Luby base -> base * luby k
  | Geometric (base, f) ->
      let iv = float_of_int base *. (f ** float_of_int (k - 1)) in
      if iv >= 1e9 then 1_000_000_000 else max 1 (int_of_float iv)

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
    (* assumptions over eliminated variables re-constrain them: restore
       first (defensive — [freeze] normally keeps assumption variables
       out of elimination's reach entirely) *)
    if Array.exists (fun l -> s.eliminated.(lit_var l)) assum then
      restore_all s;
    let inprocessing = s.cfg.subsume || s.cfg.vivify || s.cfg.elim in
    let in_assum =
      if s.cfg.elim then begin
        let a = Array.make (max 1 s.nvars) false in
        Array.iter (fun l -> a.(lit_var l) <- true) assum;
        a
      end
      else [||]
    in
    let learnt = Vec.create () in
    let conflicts_this = ref 0 in
    let restart_count = ref 0 in
    let next_restart = ref (restart_interval s 1) in
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
          (* best-phase tracking: the deepest trail seen is the best
             progress measure available; snapshot its polarities *)
          (if s.cfg.rephase then begin
             let tn = Vec.size s.trail in
             if tn > s.best_trail then begin
               s.best_trail <- tn;
               for i = 0 to tn - 1 do
                 let l = Vec.get s.trail i in
                 s.best_phase.(lit_var l) <- l land 1 = 0
               done
             end
           end);
          let blevel, lbd = analyze s confl learnt in
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
             let cid = alloc_clause s arr true lbd in
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
              !conflicts_this + restart_interval s (!restart_count + 1);
            if Obs.enabled () then
              Obs.instant "sat.restart"
                ~args:
                  [
                    ("conflicts", Obs.Int !conflicts_this);
                    ("learnt", Obs.Int s.learnt_count);
                  ];
            cancel_until s (min (Array.length assum) (decision_level s));
            (if s.cfg.rephase && !restart_count land 15 = 0 then begin
               (* every 16th restart: overwrite the saved phases with the
                  best snapshot, pointing the search back at the deepest
                  partial assignment found so far *)
               Array.blit s.best_phase 0 s.polarity 0 s.nvars;
               s.best_trail <- 0;
               s.n_rephases <- s.n_rephases + 1;
               if Obs.enabled () then
                 Obs.instant "sat.rephase"
                   ~args:[ ("restart", Obs.Int !restart_count) ]
             end);
            if
              inprocessing
              && s.total_conflicts - s.last_inprocess
                 >= s.cfg.inprocess_interval
            then begin
              s.last_inprocess <- s.total_conflicts;
              let sub0 = s.n_subsumed
              and str0 = s.n_strengthened
              and viv0 = s.n_vivified
              and el0 = s.n_eliminated in
              Obs.span "sat.inprocess"
                ~result:(fun () ->
                  [
                    ("subsumed", Obs.Int (s.n_subsumed - sub0));
                    ("strengthened", Obs.Int (s.n_strengthened - str0));
                    ("vivified_lits", Obs.Int (s.n_vivified - viv0));
                    ("eliminated_vars", Obs.Int (s.n_eliminated - el0));
                  ])
                (fun () -> inprocess s in_assum);
              if not s.ok then result := Some Unsat
            end
          end
          else if
            (if s.cfg.lbd_retention then
               s.learnt_count > 2000 + (300 * s.n_reductions)
             else s.learnt_count > 4000 + (num_clauses s / 2))
          then begin
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
          (* VSIDS decision; eliminated variables are not decidable — their
             values come from witness reconstruction after Sat *)
          let v = ref (-1) in
          while !v < 0 && s.heap_len > 0 do
            let cand = heap_pop s in
            if s.assigns.(cand) < 0 && not s.eliminated.(cand) then v := cand
          done;
          if !v < 0 then begin
            reconstruct_model s;
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
let c_subsumed = Obs.counter "sat.subsumed"
let c_strengthened = Obs.counter "sat.strengthened"
let c_vivified = Obs.counter "sat.vivified_lits"
let c_eliminated_vars = Obs.counter "sat.eliminated_vars"
let c_rephases = Obs.counter "sat.rephases"

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
    and del0 = s.n_learnt_deleted
    and sub0 = s.n_subsumed
    and str0 = s.n_strengthened
    and viv0 = s.n_vivified
    and el0 = s.n_eliminated
    and re0 = s.n_rephases in
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
            ("subsumed", Obs.Int (s.n_subsumed - sub0));
            ("eliminated_vars", Obs.Int (s.n_eliminated - el0));
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
    Obs.incr ~by:(s.n_subsumed - sub0) c_subsumed;
    Obs.incr ~by:(s.n_strengthened - str0) c_strengthened;
    Obs.incr ~by:(s.n_vivified - viv0) c_vivified;
    Obs.incr ~by:(s.n_eliminated - el0) c_eliminated_vars;
    Obs.incr ~by:(s.n_rephases - re0) c_rephases;
    r
  end

let value s v =
  if v < 1 || v > s.nvars then invalid_arg "Sat.value: unknown variable";
  if not s.model_valid then invalid_arg "Sat.value: no model available";
  let i = v - 1 in
  if s.assigns.(i) >= 0 then s.assigns.(i) = 1 else s.ext_model.(i) = 1
