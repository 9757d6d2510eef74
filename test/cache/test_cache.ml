(* The cross-run synthesis cache: entry-format robustness (truncation,
   corruption, version skew must all degrade to misses, never to wrong
   answers or crashes), concurrent writers, and the end-to-end
   cold-vs-warm engine contract — reruns on a populated store reproduce
   the cold bindings bit for bit without a solver query, at jobs=1 and
   jobs=4, and a timed-out run leaves nothing that changes them. *)

let dir_counter = ref 0

(* a fresh store per test; the dune sandbox owns the cwd, so local
   directories need no cleanup *)
let fresh_dir () =
  incr dir_counter;
  Printf.sprintf "cache-test-%d.%d" (Unix.getpid ()) !dir_counter

let bv w i = Bitvec.of_int ~width:w i

let sample_bindings =
  [ ("h_op", bv 4 9); ("h_sel", bv 2 1); ("h_imm", bv 8 255) ]

let sample_constraints =
  let x = Term.var "h_op" 4 and y = Term.var "h_sel" 2 in
  [ Term.eq x (Term.of_int ~width:4 9);
    Term.ne y (Term.of_int ~width:2 3) ]

let accept _ _ = true
let reject _ _ = false

let store_sample c fp =
  Owl_cache.store_result c ~fp ~bindings:sample_bindings
    ~constraints:sample_constraints

let check_counters c ~hits ~misses ~stale ~writes =
  let k = Owl_cache.counters c in
  Alcotest.(check int) "hits" hits k.Owl_cache.hits;
  Alcotest.(check int) "misses" misses k.Owl_cache.misses;
  Alcotest.(check int) "stale" stale k.Owl_cache.stale;
  Alcotest.(check int) "writes" writes k.Owl_cache.writes

(* the single entry file of a one-entry result tier *)
let entry_file c =
  let dir = Filename.concat (Owl_cache.dir c) "r" in
  match
    Array.to_list (Sys.readdir dir)
    |> List.filter (fun n -> not (String.length n >= 4 && String.sub n 0 4 = "tmp."))
  with
  | [ name ] -> Filename.concat dir name
  | l -> Alcotest.failf "expected one entry, found %d" (List.length l)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_result_roundtrip () =
  let c = Owl_cache.open_dir (fresh_dir ()) in
  let fp = Owl_cache.fingerprint "problem-a" in
  Alcotest.(check bool) "absent" true
    (Owl_cache.lookup_result c ~fp ~validate:accept = None);
  store_sample c fp;
  (match Owl_cache.lookup_result c ~fp ~validate:(fun bindings constraints ->
       Alcotest.(check int) "constraint count" 2 (List.length constraints);
       List.for_all2
         (fun (n, v) (n', v') -> n = n' && Bitvec.equal v v')
         bindings sample_bindings)
   with
  | Some bindings ->
      Alcotest.(check int) "binding count" 3 (List.length bindings);
      List.iter2
        (fun (n, v) (n', v') ->
          Alcotest.(check string) "name" n' n;
          Alcotest.(check bool) "value" true (Bitvec.equal v v'))
        bindings sample_bindings
  | None -> Alcotest.fail "expected a hit");
  check_counters c ~hits:1 ~misses:1 ~stale:0 ~writes:1

let reject_validation () =
  let c = Owl_cache.open_dir (fresh_dir ()) in
  let fp = Owl_cache.fingerprint "problem-b" in
  store_sample c fp;
  Alcotest.(check bool) "rejected entry reads as miss" true
    (Owl_cache.lookup_result c ~fp ~validate:reject = None);
  (* an exception inside validate is also just a miss *)
  Alcotest.(check bool) "throwing validate reads as miss" true
    (Owl_cache.lookup_result c ~fp ~validate:(fun _ _ -> failwith "boom")
     = None);
  check_counters c ~hits:0 ~misses:0 ~stale:2 ~writes:1

let test_truncated_entry () =
  let c = Owl_cache.open_dir (fresh_dir ()) in
  let fp = Owl_cache.fingerprint "problem-c" in
  store_sample c fp;
  let path = entry_file c in
  let full = read_file path in
  (* every strict prefix must classify as stale (or absent for length 0),
     never crash, never return bindings *)
  for len = 0 to String.length full - 1 do
    write_file path (String.sub full 0 len);
    Alcotest.(check bool)
      (Printf.sprintf "truncated to %d bytes" len)
      true
      (Owl_cache.lookup_result c ~fp ~validate:accept = None)
  done;
  (* trailing junk is also stale: the header pins the exact length *)
  write_file path (full ^ "x");
  Alcotest.(check bool) "trailing junk" true
    (Owl_cache.lookup_result c ~fp ~validate:accept = None);
  (* restoring the original bytes restores the hit *)
  write_file path full;
  Alcotest.(check bool) "restored" true
    (Owl_cache.lookup_result c ~fp ~validate:accept <> None)

let test_corrupted_entry () =
  let c = Owl_cache.open_dir (fresh_dir ()) in
  let fp = Owl_cache.fingerprint "problem-d" in
  store_sample c fp;
  let path = entry_file c in
  let full = read_file path in
  (* flip one byte at a time across the whole file: header corruption,
     checksum mismatches, payload bit rot — all must read as a miss *)
  let steps = max 1 (String.length full / 7) in
  let pos = ref 0 in
  while !pos < String.length full do
    let b = Bytes.of_string full in
    Bytes.set b !pos (Char.chr (Char.code (Bytes.get b !pos) lxor 0x20));
    write_file path (Bytes.to_string b);
    Alcotest.(check bool)
      (Printf.sprintf "byte %d flipped" !pos)
      true
      (Owl_cache.lookup_result c ~fp ~validate:accept = None);
    pos := !pos + steps
  done

let test_version_mismatch () =
  let c = Owl_cache.open_dir (fresh_dir ()) in
  let fp = Owl_cache.fingerprint "problem-e" in
  store_sample c fp;
  let path = entry_file c in
  let full = read_file path in
  let nl = String.index full '\n' in
  let header = String.sub full 0 nl in
  let payload = String.sub full (nl + 1) (String.length full - nl - 1) in
  (match String.split_on_char ' ' header with
  | [ magic; v; kind; sha; len ] ->
      Alcotest.(check string) "magic" "owl-cache" magic;
      Alcotest.(check int) "stamped version" Owl_cache.format_version
        (int_of_string v);
      (* same payload, same checksum, future version stamp: must be
         invalidated without being parsed *)
      write_file path
        (Printf.sprintf "%s %d %s %s %s\n%s" magic
           (Owl_cache.format_version + 1)
           kind sha len payload);
      Alcotest.(check bool) "future version reads as miss" true
        (Owl_cache.lookup_result c ~fp ~validate:accept = None);
      (* kind confusion (another kind's bytes under a result name) too *)
      write_file path
        (Printf.sprintf "%s %s warm %s %s\n%s" magic v sha len payload);
      Alcotest.(check bool) "kind mismatch reads as miss" true
        (Owl_cache.lookup_result c ~fp ~validate:accept = None)
  | _ -> Alcotest.fail "unexpected header shape");
  let k = Owl_cache.counters c in
  Alcotest.(check int) "both classified stale" 2 k.Owl_cache.stale

let test_stats_and_clear () =
  let c = Owl_cache.open_dir (fresh_dir ()) in
  store_sample c (Owl_cache.fingerprint "p1");
  store_sample c (Owl_cache.fingerprint "p2");
  let s = Owl_cache.disk_stats c in
  Alcotest.(check int) "result entries" 2 s.Owl_cache.result_entries;
  Alcotest.(check bool) "bytes counted" true (s.Owl_cache.total_bytes > 0);
  Alcotest.(check int) "clear removes all" 2 (Owl_cache.clear c);
  let s = Owl_cache.disk_stats c in
  Alcotest.(check int) "empty after clear" 0 s.Owl_cache.result_entries

(* Concurrent writers racing on the same fingerprints: publication is
   atomic rename, so readers running amid the writes must only ever see
   complete valid entries (a miss is fine; a crash or torn read is not). *)
let test_concurrent_writers () =
  let root = fresh_dir () in
  let fps =
    List.init 4 (fun i -> Owl_cache.fingerprint (Printf.sprintf "shared-%d" i))
  in
  let writer _ =
    Domain.spawn (fun () ->
        let c = Owl_cache.open_dir root in
        for round = 1 to 25 do
          List.iter
            (fun fp ->
              store_sample c fp;
              match Owl_cache.lookup_result c ~fp ~validate:accept with
              | Some bindings ->
                  if List.length bindings <> 3 then
                    failwith "torn read: wrong binding count"
              | None ->
                  (* racing rename can momentarily miss; staleness cannot
                     happen because every published entry is valid *)
                  ignore round)
            fps
        done;
        Owl_cache.counters c)
  in
  let counters = List.map Domain.join (List.init 4 writer) in
  let total field = List.fold_left (fun a k -> a + field k) 0 counters in
  Alcotest.(check int) "no stale reads under contention" 0
    (total (fun k -> k.Owl_cache.stale));
  Alcotest.(check int) "all writes landed" 400
    (total (fun k -> k.Owl_cache.writes));
  let c = Owl_cache.open_dir root in
  List.iter
    (fun fp ->
      Alcotest.(check bool) "final entry valid" true
        (Owl_cache.lookup_result c ~fp ~validate:accept <> None))
    fps;
  let s = Owl_cache.disk_stats c in
  Alcotest.(check int) "one entry per fingerprint" 4
    s.Owl_cache.result_entries

(* {1 End-to-end engine contract} *)

let solve ~jobs ~cache () =
  let options =
    Synth.Engine.(
      default_options |> with_jobs jobs |> with_cache cache)
  in
  match Synth.Engine.synthesize ~options (Designs.Alu.problem ()) with
  | Synth.Engine.Solved s -> s
  | _ -> Alcotest.fail "alu synthesis failed"

let same_bindings (a : Synth.Engine.solved) (b : Synth.Engine.solved) =
  a.Synth.Engine.per_instr = b.Synth.Engine.per_instr
  && a.Synth.Engine.shared = b.Synth.Engine.shared

let test_cold_vs_warm () =
  let root = fresh_dir () in
  let baseline = solve ~jobs:1 ~cache:None () in
  let with_handle jobs f =
    let c = Owl_cache.open_dir root in
    let s = solve ~jobs ~cache:(Some c) () in
    f s (Owl_cache.counters c)
  in
  with_handle 1 (fun cold k ->
      Alcotest.(check bool) "cold run writes entries" true
        (k.Owl_cache.writes > 0);
      Alcotest.(check bool) "cold = uncached bindings" true
        (same_bindings baseline cold));
  with_handle 1 (fun warm k ->
      Alcotest.(check bool) "warm hits" true (k.Owl_cache.hits > 0);
      Alcotest.(check int) "warm run queries" 0
        warm.Synth.Engine.stats.Synth.Engine.queries;
      Alcotest.(check bool) "warm j1 bit-identical" true
        (same_bindings baseline warm));
  with_handle 4 (fun warm4 k ->
      Alcotest.(check bool) "warm j4 hits" true (k.Owl_cache.hits > 0);
      Alcotest.(check int) "warm j4 queries" 0
        warm4.Synth.Engine.stats.Synth.Engine.queries;
      Alcotest.(check bool) "warm j4 bit-identical" true
        (same_bindings baseline warm4))

(* a corrupted store must degrade to a clean re-solve with the same
   answer — the cache can never change results, only speed *)
let test_corrupt_store_resolves () =
  let root = fresh_dir () in
  let c = Owl_cache.open_dir root in
  let cold = solve ~jobs:1 ~cache:(Some c) () in
  (* trash every entry in place *)
  let d = Filename.concat root "r" in
  Array.iter
    (fun name ->
      write_file (Filename.concat d name) "owl-cache 1 result deadbeef 4\njunk")
    (Sys.readdir d);
  let c2 = Owl_cache.open_dir root in
  let again = solve ~jobs:1 ~cache:(Some c2) () in
  let k = Owl_cache.counters c2 in
  Alcotest.(check bool) "corrupt entries classified stale" true
    (k.Owl_cache.stale > 0);
  Alcotest.(check int) "no hits from junk" 0 k.Owl_cache.hits;
  Alcotest.(check bool) "re-solve matches" true (same_bindings cold again);
  Alcotest.(check bool) "store repopulated" true (k.Owl_cache.writes > 0)

(* nothing of a timed-out run survives it: the rerun on the same
   directory solves from scratch and lands on the uncached bindings *)
let test_timeout_leaves_no_state () =
  let c = Owl_cache.open_dir (fresh_dir ()) in
  let options = Synth.Engine.(default_options |> with_cache (Some c)) in
  (match
     Synth.Engine.synthesize
       ~options:(Synth.Engine.with_max_iterations 1 options)
       (Designs.Alu.problem ())
   with
  | Synth.Engine.Timeout _ -> ()
  | _ -> Alcotest.fail "one round cannot solve the alu");
  Alcotest.(check int) "nothing solved" 0
    (Owl_cache.disk_stats c).Owl_cache.result_entries;
  let rerun =
    match Synth.Engine.synthesize ~options (Designs.Alu.problem ()) with
    | Synth.Engine.Solved s -> s
    | _ -> Alcotest.fail "rerun failed"
  in
  Alcotest.(check bool) "rerun = uncached bindings" true
    (same_bindings (solve ~jobs:1 ~cache:None ()) rerun)

let () =
  Alcotest.run "cache"
    [ ("store",
       [ Alcotest.test_case "result roundtrip" `Quick test_result_roundtrip;
         Alcotest.test_case "failed validation" `Quick reject_validation;
         Alcotest.test_case "truncated entry" `Quick test_truncated_entry;
         Alcotest.test_case "corrupted entry" `Quick test_corrupted_entry;
         Alcotest.test_case "version mismatch" `Quick test_version_mismatch;
         Alcotest.test_case "stats and clear" `Quick test_stats_and_clear;
         Alcotest.test_case "concurrent writers" `Quick
           test_concurrent_writers ]);
      ("engine",
       [ Alcotest.test_case "cold vs warm bit-identical" `Quick
           test_cold_vs_warm;
         Alcotest.test_case "corrupt store re-solves" `Quick
           test_corrupt_store_resolves;
         Alcotest.test_case "timeout leaves no state behind" `Quick
           test_timeout_leaves_no_state ]) ]
