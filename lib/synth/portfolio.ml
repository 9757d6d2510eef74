(* Structural cube-and-conquer for the monolithic ∀-verify query.

   A disjunctive goal (the ∀-verify query is "some instruction violates
   its contract") is split by ∨-elimination into up to 2^k groups of
   disjuncts, each an independent sub-query, Unsat iff all are —
   recovering the paper's per-instruction decomposition from the
   monolithic query.  A goal with no disjunction gets one sequential
   [Solver.check].

   Determinism contract: the split accelerates only the Unsat direction.
   A Sat verdict is re-derived by one sequential check of the whole
   query before being returned, so models are bit-identical to
   sequential solving no matter which cube got there first. *)

type options = { cube_vars : int }

let default = { cube_vars = 0 }

let with_cube_vars cube_vars _ =
  if cube_vars < 0 || cube_vars > 12 then
    invalid_arg "Portfolio.with_cube_vars: cube_vars outside 0..12";
  { cube_vars }

(* {1 Tally} *)

type tally = { lock : Mutex.t; mutable cubes : int; mutable cubes_unsat : int }
type summary = { cubes : int; cubes_unsat : int }

let create_tally () = { lock = Mutex.create (); cubes = 0; cubes_unsat = 0 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let read_tally (t : tally) : summary =
  locked t (fun () -> { cubes = t.cubes; cubes_unsat = t.cubes_unsat })

let c_cubes = Obs.counter "portfolio.cubes"

(* {1 Splitting} *)

(* Flatten a width-1 or-tree into its disjuncts (left-to-right, so the
   split is deterministic for a fixed term). *)
let rec disjuncts (t : Term.t) acc =
  match t.Term.node with
  | Term.Binop (Term.Or, a, b) when Term.width t = 1 ->
      disjuncts a (disjuncts b acc)
  | _ -> t :: acc

(* [xs] split into [n] contiguous groups whose sizes differ by at most
   one (the first [len mod n] groups get the extra element). *)
let partition n xs =
  let len = List.length xs in
  let base = len / n and extra = len mod n in
  let rec go i rest =
    if i >= n then []
    else
      let take = base + if i < extra then 1 else 0 in
      let rec split k acc rest =
        if k = 0 then (List.rev acc, rest)
        else
          match rest with
          | x :: rest -> split (k - 1) (x :: acc) rest
          | [] -> (List.rev acc, [])
      in
      let g, rest = split take [] rest in
      g :: go (i + 1) rest
  in
  go 0 xs |> List.filter (( <> ) [])

(* The first conjunct that is a disjunction of at least two terms, with
   the remaining conjuncts. *)
let disjunctive_goal terms =
  let rec pick seen = function
    | [] -> None
    | t :: rest -> (
        match disjuncts t [] with
        | _ :: _ :: _ as ds -> Some (List.rev_append seen rest, ds)
        | _ -> pick (t :: seen) rest)
  in
  pick [] terms

(* {1 Entry point} *)

(* [?strategy] selects nothing (the SAT core has no configuration); it is
   kept because the benchmark harness passes it *)
let check ?(options = default) ?tally ?strategy:_ ~jobs terms =
  match disjunctive_goal terms with
  | Some (others, ds) when options.cube_vars > 0 ->
      (* ∨-elimination: the query is Unsat iff it is Unsat with each group
         of disjuncts in place of the whole disjunction, and any group's
         model is a model of the original.  Each group re-blasts only the
         cones its own disjuncts reach, which sidesteps the disjunct
         interleaving that makes the monolithic query hard. *)
      let groups = partition (min (1 lsl options.cube_vars) (List.length ds)) ds in
      let ncubes = List.length groups in
      Obs.incr ~by:ncubes c_cubes;
      let sat_found = Atomic.make false in
      let run () =
        Pool.map_arena ~jobs
          ~make:(fun () -> ())
          (fun () group ->
            if Atomic.get sat_found then None
            else
              let o =
                Solver.check (others @ [ Term.disj group ])
              in
              (match o with Solver.Sat _ -> Atomic.set sat_found true | _ -> ());
              Some o)
          groups
      in
      let solved =
        Obs.span "portfolio.cube"
          ~args:
            [
              ("cube_vars", Obs.Int options.cube_vars);
              ("cubes", Obs.Int ncubes);
              ("jobs", Obs.Int jobs);
            ]
          run
        |> List.filter_map Fun.id
      in
      let stats =
        List.fold_left
          (fun acc o -> Solver.add_stats acc (Solver.stats_of o))
          Solver.empty_stats solved
      in
      let count p = List.length (List.filter p solved) in
      let n_sat = count (function Solver.Sat _ -> true | _ -> false) in
      let n_unsat = count (function Solver.Unsat _ -> true | _ -> false) in
      Option.iter
        (fun t ->
          locked t (fun () ->
              t.cubes <- t.cubes + ncubes;
              t.cubes_unsat <- t.cubes_unsat + n_unsat))
        tally;
      if n_sat > 0 then
        (* the model comes from the sequential re-check; the statistics
           count the cubes' work as well *)
        match Solver.check terms with
        | Solver.Sat (m, st) -> Solver.Sat (m, Solver.add_stats stats st)
        | Solver.Unsat st -> Solver.Unsat (Solver.add_stats stats st)
        | Solver.Unknown st -> Solver.Unknown (Solver.add_stats stats st)
      else if n_unsat = ncubes then Solver.Unsat stats
      else Solver.Unknown stats
  | _ -> Solver.check terms
