(* Schema checker for the committed BENCH_<date>.json reports.

   The bench harness appends one report per dated run, and downstream
   consumers — EXPERIMENTS.md tables, ad-hoc jq, the overhead numbers in
   DESIGN.md — parse them by hand.  Nothing else validates the files, so
   a field rename or a malformed emission would be discovered weeks
   later by a broken table.  This tool is that validation, wired into
   @bench-smoke so `dune runtest`-adjacent CI catches drift:

   - every file parses, and its "date" member matches the filename;
   - "sections" is non-empty and each entry carries a name and a
     non-negative wall;
   - every run names a recorded section and carries a non-negative wall;
   - solved runs carry the core engine-stats fields, and all solved runs
     within one file share a single key set (the stats schema may grow
     between dated files but never within one);
   - portfolio summary rows refute no more cubes than they fan out;
   - metric summaries are internally ordered: min <= max and
     p50 <= p90 <= p99.  Deliberately NOT p99 <= max: the quantile is a
     log2 bucket estimate and may overshoot the observed maximum;
   - dates increase strictly across files, sorted by filename.

   Usage: dune exec tools/check_bench.exe [FILES...]
   With no arguments it checks every BENCH_*.json in the current
   directory (the repo root, when run through @bench-smoke). *)

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("check_bench: " ^ m);
      exit 1)
    fmt

(* stats fields every solved run has carried since the first report;
   later fields (the sat_* inprocessing family) are validated through
   the per-file key-set consistency check instead *)
let core_stats_fields =
  [
    "iterations"; "queries"; "sat_conflicts"; "sat_vars"; "sat_clauses";
    "trivial_unsats"; "retried_queries"; "degraded_queries";
    "validation_failures"; "task_retries";
  ]

let metric_kinds = [ "counter"; "gauge"; "histogram"; "window" ]

let num ~file ~what v =
  match v with
  | Some (Json.Num n) -> n
  | Some _ -> fail "%s: %s is not a number" file what
  | None -> fail "%s: %s is missing" file what

let str ~file ~what v =
  match v with
  | Some (Json.String s) -> s
  | Some _ -> fail "%s: %s is not a string" file what
  | None -> fail "%s: %s is missing" file what

let arr ~file ~what v =
  match v with
  | Some (Json.Arr xs) -> xs
  | Some _ -> fail "%s: %s is not an array" file what
  | None -> fail "%s: %s is missing" file what

let obj_keys ~file ~what = function
  | Json.Obj kvs -> List.map fst kvs
  | _ -> fail "%s: %s is not an object" file what

(* BENCH_YYYY-MM-DD.json -> YYYY-MM-DD, or None when the name does not
   fit the pattern (such files are not reports and are skipped) *)
let date_of_filename f =
  let base = Filename.basename f in
  if
    String.length base = String.length "BENCH_2000-01-01.json"
    && String.sub base 0 6 = "BENCH_"
    && Filename.check_suffix base ".json"
  then begin
    let d = String.sub base 6 10 in
    let digit i = d.[i] >= '0' && d.[i] <= '9' in
    if
      digit 0 && digit 1 && digit 2 && digit 3
      && d.[4] = '-'
      && digit 5 && digit 6
      && d.[7] = '-'
      && digit 8 && digit 9
    then Some d
    else None
  end
  else None

let check_section ~file s =
  let name = str ~file ~what:"section name" (Json.member "name" s) in
  if name = "" then fail "%s: empty section name" file;
  let wall =
    num ~file
      ~what:(Printf.sprintf "section %s wall_seconds" name)
      (Json.member "wall_seconds" s)
  in
  if wall < 0.0 then fail "%s: section %s has negative wall" file name;
  name

(* Portfolio summary rows (section "portfolio", no outcome; the section
   is gone from the harness but older reports carry it) never refute more
   cubes than they fan out. *)
let check_portfolio_summary ~file ~what r =
  let field k = num ~file ~what:(what ^ " " ^ k) (Json.member k r) in
  if field "cubes_unsat" > field "cubes" then
    fail "%s: %s has cubes_unsat > cubes" file what

let check_run ~file ~sections i r =
  let what = Printf.sprintf "run %d" i in
  let section = str ~file ~what:(what ^ " section") (Json.member "section" r) in
  if not (List.mem section sections) then
    fail "%s: %s names unrecorded section %S" file what section;
  let label = str ~file ~what:(what ^ " label") (Json.member "label" r) in
  if label = "" then fail "%s: %s has an empty label" file what;
  (* summary rows (derived comparisons, no outcome) carry free-form
     fields — except portfolio summaries, whose cube counts are checked *)
  match Json.member "outcome" r with
  | None ->
      if section = "portfolio" then
        check_portfolio_summary ~file ~what:(what ^ " (portfolio summary)") r;
      None
  | Some (Json.String "solved") ->
      let wall =
        num ~file ~what:(what ^ " wall_seconds") (Json.member "wall_seconds" r)
      in
      if wall < 0.0 then fail "%s: %s has negative wall" file what;
      List.iter
        (fun k ->
          let v = num ~file ~what:(what ^ " " ^ k) (Json.member k r) in
          if v < 0.0 then fail "%s: %s has negative %s" file what k)
        core_stats_fields;
      Some (List.sort compare (obj_keys ~file ~what r))
  | Some _ ->
      let wall =
        num ~file ~what:(what ^ " wall_seconds") (Json.member "wall_seconds" r)
      in
      if wall < 0.0 then fail "%s: %s has negative wall" file what;
      None

let check_metric ~file m =
  let name = str ~file ~what:"metric name" (Json.member "name" m) in
  let what = Printf.sprintf "metric %s" name in
  let kind = str ~file ~what:(what ^ " kind") (Json.member "kind" m) in
  if not (List.mem kind metric_kinds) then
    fail "%s: %s has unknown kind %S" file what kind;
  let field k = num ~file ~what:(what ^ " " ^ k) (Json.member k m) in
  if field "count" < 0.0 then fail "%s: %s has negative count" file what;
  ignore (field "sum");
  if kind = "histogram" || kind = "window" then begin
    if field "min" > field "max" then fail "%s: %s has min > max" file what;
    let p50 = field "p50" and p90 = field "p90" and p99 = field "p99" in
    if not (p50 <= p90 && p90 <= p99) then
      fail "%s: %s quantiles are unordered (p50 %g, p90 %g, p99 %g)" file what
        p50 p90 p99
  end

let check_file file fname_date =
  let ic = open_in_bin file in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let doc =
    match Json.parse s with
    | doc -> doc
    | exception Json.Parse_error m -> fail "%s: not valid JSON: %s" file m
  in
  let date = str ~file ~what:"date" (Json.member "date" doc) in
  if date <> fname_date then
    fail "%s: date %S does not match the filename" file date;
  let sections =
    match arr ~file ~what:"sections" (Json.member "sections" doc) with
    | [] -> fail "%s: sections is empty" file
    | ss -> List.map (check_section ~file) ss
  in
  let runs =
    match arr ~file ~what:"runs" (Json.member "runs" doc) with
    | [] -> fail "%s: runs is empty" file
    | rs -> rs
  in
  let solved_keys = List.mapi (check_run ~file ~sections) runs in
  (match List.filter_map Fun.id solved_keys with
  | [] -> fail "%s: no solved run in the report" file
  | first :: rest ->
      if not (List.for_all (( = ) first) rest) then
        fail "%s: solved runs disagree on their stats fields" file);
  (* "metrics" postdates the first reports; absent is fine, present must
     be well-formed *)
  (match Json.member "metrics" doc with
  | None -> ()
  | Some _ as v ->
      List.iter (check_metric ~file) (arr ~file ~what:"metrics" v));
  (date, List.length runs)

let () =
  let files =
    match List.tl (Array.to_list Sys.argv) with
    | [] ->
        Sys.readdir "." |> Array.to_list
        |> List.filter (fun f -> date_of_filename f <> None)
    | fs -> fs
  in
  let files = List.sort compare files in
  if files = [] then fail "no BENCH_*.json files found or given";
  let checked =
    List.map
      (fun f ->
        match date_of_filename f with
        | Some d -> (f, check_file f d)
        | None -> fail "%s: filename is not BENCH_YYYY-MM-DD.json" f)
      files
  in
  (* filename order is date order, and dates never repeat *)
  let rec ordered = function
    | (f1, (d1, _)) :: ((f2, (d2, _)) :: _ as rest) ->
        if d1 >= d2 then
          fail "%s and %s: dates do not increase (%s then %s)" f1 f2 d1 d2;
        ordered rest
    | _ -> ()
  in
  ordered checked;
  List.iter
    (fun (f, (_, n)) ->
      Printf.printf "check_bench: %s ok (%d runs)\n" (Filename.basename f) n)
    checked;
  print_endline "check_bench: ok"
