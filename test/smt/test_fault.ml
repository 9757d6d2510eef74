(* Fault-injection plans: parsing, and the check/task hooks observed
   through the public Solver API.

   The plan state is process-global, so every test clears it on the way
   out (Fun.protect) — a leaked plan would silently corrupt later tests. *)

let with_plan s f =
  Fault.install (Fault.parse s);
  Fun.protect ~finally:Fault.clear f

let test_parse_roundtrip () =
  let canon s = Fault.to_string (Fault.parse s) in
  Alcotest.(check string)
    "canonical order" "unknown@2,corrupt@7,crash@1,seed=5"
    (canon "crash@1,seed=5,corrupt@7,unknown@2");
  Alcotest.(check string)
    "duplicates collapse" "unknown@3"
    (canon "unknown@3,unknown@3");
  Alcotest.(check string)
    "default seed omitted" "corrupt@1" (canon "corrupt@1,seed=0");
  Alcotest.(check string)
    "whitespace tolerated" "crash@2,crash@4"
    (canon " crash@4 , crash@2 ")

let test_parse_errors () =
  let rejects s =
    Alcotest.(check bool)
      (Printf.sprintf "rejects %S" s)
      true
      (match Fault.parse s with
      | exception Fault.Parse_error _ -> true
      | _ -> false)
  in
  List.iter rejects
    [ ""; "bogus@1"; "unknown@0"; "unknown@x"; "seed=oops"; "unknown";
      "worker_kill@0"; "conn_drop"; "frame_delay@"; "shed@-1" ]

let test_parse_serve_directives () =
  let canon s = Fault.to_string (Fault.parse s) in
  Alcotest.(check string)
    "serve directives canonicalize"
    "worker_kill@2,conn_drop@3,frame_delay@1,shed@4,seed=9"
    (canon "shed@4,frame_delay@1,seed=9,conn_drop@3,worker_kill@2");
  Alcotest.(check string)
    "mixed with solver directives"
    "unknown@1,crash@2,worker_kill@1,conn_drop@5"
    (canon "conn_drop@5,worker_kill@1,crash@2,unknown@1");
  Alcotest.(check string)
    "serve duplicates collapse" "shed@2" (canon "shed@2,shed@2")

let test_serve_hooks () =
  with_plan "worker_kill@2,conn_drop@1,frame_delay@2,shed@3" (fun () ->
      (* service jobs: 1 clean, 2 kills, 3 clean *)
      Fault.on_serve_job ();
      (match Fault.on_serve_job () with
      | exception Fault.Injected_worker_kill 2 -> ()
      | exception Fault.Injected_worker_kill i ->
          Alcotest.fail (Printf.sprintf "killed at index %d" i)
      | () -> Alcotest.fail "job 2 should kill its worker");
      Fault.on_serve_job ();
      (* frames: 1 drops (winning over nothing), 2 delays, 3 clean *)
      (match Fault.on_frame () with
      | Some Fault.Drop_conn -> ()
      | _ -> Alcotest.fail "frame 1 should drop the connection");
      (match Fault.on_frame () with
      | Some (Fault.Delay d) ->
          Alcotest.(check (float 1e-9))
            "delay magnitude" Fault.frame_delay_seconds d
      | _ -> Alcotest.fail "frame 2 should delay");
      Alcotest.(check bool) "frame 3 clean" true (Fault.on_frame () = None);
      (* admissions: 1-2 honest, 3 shed *)
      Alcotest.(check bool) "admit 1" false (Fault.on_admit ());
      Alcotest.(check bool) "admit 2" false (Fault.on_admit ());
      Alcotest.(check bool) "admit 3 shed" true (Fault.on_admit ());
      Alcotest.(check int) "four faults fired" 4 (Fault.fired ()));
  (* plan cleared: every hook free *)
  Fault.on_serve_job ();
  Alcotest.(check bool) "no frame fault" true (Fault.on_frame () = None);
  Alcotest.(check bool) "no shed" false (Fault.on_admit ())

let test_drop_beats_delay () =
  with_plan "conn_drop@1,frame_delay@1" (fun () ->
      match Fault.on_frame () with
      | Some Fault.Drop_conn -> ()
      | _ -> Alcotest.fail "conn_drop@N must win over frame_delay@N")

(* one assertion pinning x to a constant: Sat with exactly one honest
   model, so corruption is detectable as "model value <> 5" *)
let pinned () = [ Term.eq (Term.var "x" 8) (Term.const (Bitvec.of_int ~width:8 5)) ]

let value_of = function
  | Solver.Sat (m, _) -> (
      match m.Solver.var_value "x" with
      | Some v -> Bitvec.to_int_exn v
      | None -> Alcotest.fail "model missing x")
  | _ -> Alcotest.fail "expected Sat"

let test_spurious_unknown () =
  with_plan "unknown@1" (fun () ->
      (match Solver.check (pinned ()) with
      | Solver.Unknown _ -> ()
      | _ -> Alcotest.fail "planned check should be Unknown");
      Alcotest.(check int) "fault fired" 1 (Fault.fired ());
      (* the next check (index 2, unplanned) is honest *)
      Alcotest.(check int) "honest after fault" 5
        (value_of (Solver.check (pinned ()))));
  (* plan cleared: first check honest again *)
  Alcotest.(check int) "honest without plan" 5
    (value_of (Solver.check (pinned ())))

let test_corrupt_model () =
  with_plan "corrupt@1,seed=7" (fun () ->
      let v = value_of (Solver.check (pinned ())) in
      Alcotest.(check bool)
        (Printf.sprintf "corrupted value (got %d)" v)
        true (v <> 5);
      Alcotest.(check int) "fault fired" 1 (Fault.fired ());
      Alcotest.(check int) "honest after fault" 5
        (value_of (Solver.check (pinned ()))))

let test_corrupt_session_retry () =
  (* a session retry of the same corrupted check reproduces the honest
     model — the corruption damages only the returned copy, never the
     solver state.  This is the property the engine's validation-retry
     path relies on. *)
  with_plan "corrupt@1,seed=7" (fun () ->
      let s = Solver.Session.create () in
      let v1 =
        match Solver.Session.check_with s (pinned ()) with
        | Solver.Sat (m, _) -> m.Solver.var_value "x"
        | _ -> Alcotest.fail "expected Sat"
      in
      Alcotest.(check bool) "first model corrupted" true
        (v1 <> Some (Bitvec.of_int ~width:8 5));
      match Solver.Session.check_with s [] with
      | Solver.Sat (m, _) ->
          Alcotest.(check bool) "retry honest" true
            (m.Solver.var_value "x" = Some (Bitvec.of_int ~width:8 5))
      | _ -> Alcotest.fail "retry should be Sat")

let test_unknown_beats_corrupt () =
  with_plan "unknown@1,corrupt@1" (fun () ->
      match Solver.check (pinned ()) with
      | Solver.Unknown _ -> ()
      | _ -> Alcotest.fail "unknown@N must win over corrupt@N")

let test_task_crash () =
  with_plan "crash@2" (fun () ->
      Fault.on_task ();  (* attempt 1: planned clean *)
      (match Fault.on_task () with
      | exception Fault.Injected_crash 2 -> ()
      | exception Fault.Injected_crash i ->
          Alcotest.fail (Printf.sprintf "crashed with index %d" i)
      | () -> Alcotest.fail "attempt 2 should crash");
      Fault.on_task ();  (* attempt 3: clean again *)
      Alcotest.(check int) "one crash fired" 1 (Fault.fired ()));
  Fault.on_task () (* no plan: free *)

(* The seven directives in canonical order, each with the hook of its own
   site.  A probe calls its hook once and reports the index it fired at,
   if it fired. *)
let fired_at i fires = if fires then Some i else None

let site_probes =
  [ ("check", fun i -> fired_at i (Fault.on_check () <> None));
    ("task", fun _ ->
        match Fault.on_task () with
        | exception Fault.Injected_crash i -> Some i
        | () -> None);
    ("serve job", fun _ ->
        match Fault.on_serve_job () with
        | exception Fault.Injected_worker_kill i -> Some i
        | () -> None);
    ("frame", fun i -> fired_at i (Fault.on_frame () <> None));
    ("admit", fun i -> fired_at i (Fault.on_admit ())) ]

let directives =
  [ ("unknown", "check"); ("corrupt", "check"); ("crash", "task");
    ("worker_kill", "serve job"); ("conn_drop", "frame");
    ("frame_delay", "frame"); ("shed", "admit") ]

(* [d@k] fires on call k of its own site's hook and on no other call of
   any hook, the hooks being called in turn so that every site's counter
   advances alongside the others *)
let prop_fires_on_its_site =
  QCheck.Test.make ~count:200 ~name:"a directive fires only at its site and index"
    QCheck.(pair (oneofl directives) (int_range 1 12))
    (fun ((d, site), k) ->
      with_plan (Printf.sprintf "%s@%d" d k) (fun () ->
          let fired =
            List.concat_map
              (fun i ->
                List.filter_map
                  (fun (s, probe) -> Option.map (fun n -> (s, i, n)) (probe i))
                  site_probes)
              (List.init (k + 3) succ)
          in
          fired = [ (site, k, k) ] && Fault.fired () = 1))

(* random plans over every directive, elements in any order, duplicates
   and an optional seed: parsing then rendering yields the canonical form
   (table order, sorted unique indices, seed last), which parses back to
   itself *)
let prop_plan_roundtrip =
  let element =
    QCheck.Gen.(
      map2 (fun (d, _) n -> (d, n)) (oneofl directives) (int_range 1 9))
  in
  QCheck.Test.make ~count:300 ~name:"plans roundtrip through to_string"
    QCheck.(
      make
        ~print:(fun (es, seed) ->
          String.concat "," (List.map (fun (d, n) -> Printf.sprintf "%s@%d" d n) es)
          ^ Printf.sprintf " seed=%d" seed)
        Gen.(pair (list_size (int_range 1 10) element) (int_range 0 3)))
    (fun (es, seed) ->
      let tag (d, n) = Printf.sprintf "%s@%d" d n in
      let plan =
        String.concat "," (List.map tag es @ [ Printf.sprintf "seed=%d" seed ])
      in
      let rank d =
        let rec go r = function
          | (d', _) :: rest -> if d = d' then r else go (r + 1) rest
          | [] -> assert false
        in
        go 0 directives
      in
      let canonical =
        String.concat ","
          (List.map tag
             (List.sort_uniq
                (fun (d, n) (d', n') -> compare (rank d, n) (rank d', n'))
                es)
          @ if seed = 0 then [] else [ Printf.sprintf "seed=%d" seed ])
      in
      let rendered = Fault.to_string (Fault.parse plan) in
      rendered = canonical && Fault.to_string (Fault.parse rendered) = rendered)

let () =
  Alcotest.run "fault"
    [ ("plan",
       [ Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
         Alcotest.test_case "parse errors" `Quick test_parse_errors;
         Alcotest.test_case "serve directives" `Quick
           test_parse_serve_directives;
         QCheck_alcotest.to_alcotest prop_plan_roundtrip ]);
      ("injection",
       [ Alcotest.test_case "spurious unknown" `Quick test_spurious_unknown;
         Alcotest.test_case "corrupt model" `Quick test_corrupt_model;
         Alcotest.test_case "corrupt then session retry" `Quick
           test_corrupt_session_retry;
         Alcotest.test_case "unknown beats corrupt" `Quick
           test_unknown_beats_corrupt;
         Alcotest.test_case "task crash" `Quick test_task_crash;
         Alcotest.test_case "serve hooks" `Quick test_serve_hooks;
         Alcotest.test_case "drop beats delay" `Quick test_drop_beats_delay;
         QCheck_alcotest.to_alcotest prop_fires_on_its_site ]) ]
