(* serve-mixed: an in-process owl serve daemon on a Unix socket inside the
   run's state directory, with 2 workers, an on-disk cache, and a hot tier
   smaller than the set of request fingerprints.  Two client threads, one
   connection each, run a closed loop: each sends its next request only
   when the previous reply has arrived.  Requests come from a seeded,
   Zipf-skewed popularity over synth/verify x {accumulator, ALU, GCD} x
   option variants, so they split among hot-tier hits, disk-cache hits
   after eviction (ALU synthesis is the one per-instruction design the
   engine caches on disk), and cold solves. *)

let workers = 2
let clients = 2
let variants = 16
let hot_tier_size = 8
let zipf_s = 1.0

let designs =
  let open Designs in
  [ ("acc", Accumulator.problem, Accumulator.reference_design);
    ("alu", Alu.problem, Alu.reference_design);
    ("gcd", Gcd.problem, Gcd.reference_design) ]

(* Variants change the hot-tier fingerprint (it covers the whole options
   record); only [incremental] also changes the disk fingerprint.  None of
   them changes which bindings an unlimited-budget solve returns. *)
let options_of_variant v =
  Synth.Engine.(
    default_options
    |> with_max_iterations (100 + v)
    |> with_incremental (v mod 4 <> 3)
    |> with_validate_models (v mod 5 = 0))

type kind = Synth | Verify
type key = { kind : kind; design : string; variant : int }

let universe =
  List.concat_map
    (fun kind ->
      List.concat_map
        (fun (design, _, _) ->
          List.init variants (fun variant -> { kind; design; variant }))
        designs)
    [ Synth; Verify ]

(* Popularity: Zipf weights over a fixed shuffle of the universe, so the
   seed changes the order of draws but not which keys are popular (a
   popular GCD key costs more cold time than a popular accumulator key);
   [sample] draws one key by inverse CDF. *)
let sample =
  let keys = Array.of_list universe in
  let rng = Random.State.make [| 0x5e7e |] in
  for i = Array.length keys - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- t
  done;
  let cdf = Array.make (Array.length keys) 0.0 in
  let total = ref 0.0 in
  Array.iteri
    (fun i _ ->
      total := !total +. (1.0 /. (float_of_int (i + 1) ** zipf_s));
      cdf.(i) <- !total)
    keys;
  fun rng ->
    let u = Random.State.float rng !total in
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then search (mid + 1) hi else search lo mid
    in
    keys.(search 0 (Array.length keys - 1))

(* {1 Daemon lifecycle} *)

type problems = {
  synth : (string * Synth.Engine.problem) list;
  verify : (string * Synth.Engine.problem) list;
}

let build_problems () =
  { synth = List.map (fun (n, p, _) -> (n, p ())) designs;
    verify =
      List.map
        (fun (n, p, r) -> (n, { (p ()) with Synth.Engine.design = r () }))
        designs }

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

type daemon = {
  addr : Owl_serve.Proto.addr;
  thread : Thread.t;
  cache : Owl_cache.t;
  dir : string;
  sock : string;
}

(* Boots a daemon on a fresh cache directory and returns once it is
   listening with its workers started. *)
let boot ~dir problems =
  rm_rf dir;
  let sock = dir ^ ".sock" in
  rm_rf sock;
  let cache = Owl_cache.open_dir dir in
  (* relative, so the path stays short wherever the checkout lives *)
  let addr = Owl_serve.Proto.Unix_path sock in
  let m = Mutex.create () and c = Condition.create () and up = ref false in
  let ready () =
    Mutex.lock m;
    up := true;
    Condition.signal c;
    Mutex.unlock m
  in
  let lookup kind name =
    List.assoc_opt name (match kind with `Synth -> problems.synth | `Verify -> problems.verify)
  in
  let config =
    { Owl_serve.Server.addr; jobs = workers; queue_depth = 4 * clients;
      hot_tier_size; cache = Some cache; server_name = "owlbench";
      telemetry = false; dump_dir = None }
  in
  let thread = Thread.create (fun () -> Owl_serve.Server.run ~ready config ~lookup) () in
  Mutex.lock m;
  while not !up do
    Condition.wait c m
  done;
  Mutex.unlock m;
  { addr; thread; cache; dir; sock }

let shutdown d =
  let c = Owl_serve.Client.connect d.addr in
  let stats = Owl_serve.Client.cache_stats c in
  Owl_serve.Client.shutdown c;
  Owl_serve.Client.close c;
  Thread.join d.thread;
  rm_rf d.dir;
  rm_rf d.sock;
  stats

(* {1 The request stream} *)

type cls = Hot | Disk | Cold

type record = {
  key : key;
  finished : float;  (** completion time, [Unix.gettimeofday] *)
  latency : float;
  cls : cls;
  ok : bool;
  note : string;
  bindings : (string * string) list;
}

let run_client ~addr ~rng ~stop_at =
  let conn = ref (Owl_serve.Client.connect addr) in
  let out = ref [] in
  while Unix.gettimeofday () < stop_at do
    let key = sample rng in
    let options = options_of_variant key.variant in
    let t0 = Unix.gettimeofday () in
    let cls, ok, note, bindings =
      try
        match key.kind with
        | Synth ->
            let r = Owl_serve.Client.synth !conn ~design:key.design options in
            let cls =
              if r.Owl_serve.Proto.hot then Hot
              else if r.Owl_serve.Proto.stats.Synth.Engine.queries = 0 then Disk
              else Cold
            in
            ( cls, r.Owl_serve.Proto.outcome = "solved", r.Owl_serve.Proto.outcome,
              r.Owl_serve.Proto.bindings )
        | Verify ->
            let r = Owl_serve.Client.verify !conn ~design:key.design options in
            let verdicts = r.Owl_serve.Proto.verdicts in
            ( (if r.Owl_serve.Proto.v_hot then Hot else Cold),
              verdicts <> [] && List.for_all (fun (_, v) -> v = "verified") verdicts,
              "verify", [] )
      with e ->
        (try Owl_serve.Client.close !conn with _ -> ());
        conn := Owl_serve.Client.connect addr;
        (Cold, false, Printexc.to_string e, [])
    in
    let finished = Unix.gettimeofday () in
    out := { key; finished; latency = finished -. t0; cls; ok; note; bindings } :: !out
  done;
  Owl_serve.Client.close !conn;
  !out

type stream = {
  started : float;  (** when the clients started, [Unix.gettimeofday] *)
  records : record list;
  lost : string list;  (** clients that died, with the exception *)
  wall : float;
  cpu : float;
  stats : Owl_serve.Proto.cache_stats;
  disk : Owl_cache.counters;
}

(* Runs both clients against [d] for [seconds], then shuts [d] down. *)
let stream ~seed ~seconds d =
  let results = Array.make clients (Ok []) in
  let cpu0 = Clock.cpu_now () in
  let t0 = Unix.gettimeofday () in
  let stop_at = t0 +. seconds in
  let threads =
    List.init clients (fun i ->
        Thread.create
          (fun () ->
            let rng = Random.State.make [| seed; i; 0xc11e |] in
            results.(i) <-
              (try Ok (run_client ~addr:d.addr ~rng ~stop_at)
               with e -> Error (Printexc.to_string e)))
          ())
  in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  let cpu = Clock.cpu_now () -. cpu0 in
  let disk = Owl_cache.counters d.cache in
  let stats = shutdown d in
  let results = Array.to_list results in
  { started = t0;
    records = List.concat_map (function Ok r -> r | Error _ -> []) results;
    lost = List.filter_map (function Error e -> Some e | Ok _ -> None) results;
    wall; cpu; stats; disk }

(* {1 Oracle}

   Every synth reply's bindings must equal a direct in-process solve of
   the same fingerprint (design and options).  Returns the records that
   fail it, each with the reason. *)
let check problems records =
  let expected = Hashtbl.create 32 in
  let direct (key : key) =
    match Hashtbl.find_opt expected (key.design, key.variant) with
    | Some b -> b
    | None ->
        let b =
          match
            Synth.Engine.synthesize ~options:(options_of_variant key.variant)
              (List.assoc key.design problems.synth)
          with
          | Synth.Engine.Solved s ->
              Some
                (List.sort compare
                   (List.map
                      (fun (h, e) -> (h, Oyster.Printer.expr_to_string e))
                      s.Synth.Engine.bindings))
          | _ -> None
        in
        Hashtbl.replace expected (key.design, key.variant) b;
        b
  in
  List.filter_map
    (fun r ->
      if not r.ok then Some (r, r.note)
      else
        match r.key.kind with
        | Verify -> None
        | Synth ->
            if direct r.key = Some (List.sort compare r.bindings) then None
            else Some (r, "bindings differ from a direct solve"))
    records
