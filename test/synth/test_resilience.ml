(* The resilience layer end to end: the retry-ladder arithmetic, pool
   task retries, and whole-engine recovery under installed fault plans.

   The key acceptance property is recovery transparency: a run that hits
   spurious Unknowns, a worker crash, and a corrupted model must not just
   still solve — it must emit bit-for-bit the bindings of the fault-free
   run, at any job count.  Spurious Unknowns leave solver state untouched,
   corruption damages only the returned model copy (a session retry
   reproduces the honest model via phase saving), and crashed tasks replay
   on a fresh arena, so nothing a planned fault does can steer the search.

   Fault plans are process-global: every test installs under Fun.protect
   so a failure cannot leak a plan into later tests. *)

let with_plan s f =
  Fault.install (Fault.parse s);
  Fun.protect ~finally:Fault.clear f

(* ---------- ladder arithmetic ---------- *)

let test_policy_validation () =
  let rejects f =
    Alcotest.(check bool) "Invalid_argument" true
      (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  rejects (fun () -> Synth.Resilience.make ~retries:(-1) ());
  rejects (fun () -> Synth.Resilience.make ~escalation_factor:0 ());
  rejects (fun () -> Synth.Engine.(default_options |> with_retries (-1)));
  rejects (fun () -> Synth.Engine.(default_options |> with_escalation_factor 0))

let test_budget_ladder () =
  let p = Synth.Resilience.make ~retries:2 ~escalation_factor:4 () in
  Alcotest.(check int) "attempts" 3 (Synth.Resilience.attempts p);
  (* total 1600 over 3 attempts at factor 4: 100, 400, then the rest *)
  let b k remaining =
    Synth.Resilience.attempt_budget p ~total:1600 ~remaining ~attempt:k
  in
  Alcotest.(check int) "first attempt" 100 (b 1 1600);
  Alcotest.(check int) "second attempt" 400 (b 2 1500);
  Alcotest.(check int) "final gets the rest" 1100 (b 3 1100);
  Alcotest.(check int) "capped by remaining" 50 (b 2 50);
  (* the unlimited default saturates instead of overflowing: attempt 2 of
     a max_int ladder is b1 * 4 = (max_int / 16) * 4, huge and positive *)
  let unlimited k =
    Synth.Resilience.attempt_budget p ~total:max_int ~remaining:max_int
      ~attempt:k
  in
  Alcotest.(check bool) "saturating arithmetic" true
    (unlimited 2 >= max_int / 8);
  Alcotest.(check int) "final attempt unlimited" max_int (unlimited 3)

let test_deadline_slicing () =
  let p = Synth.Resilience.make ~retries:2 ~escalation_factor:2 () in
  let slice = Synth.Resilience.slice_deadline p ~now:100.0 in
  Alcotest.(check bool) "no hard deadline" true
    (slice ~hard:None ~tasks_left:4 ~attempt:1 = None);
  (* 40s left over 4 tasks = 10s base share, doubling per attempt *)
  let at k = slice ~hard:(Some 140.0) ~tasks_left:4 ~attempt:k in
  Alcotest.(check (option (float 1e-9))) "first share" (Some 110.0) (at 1);
  Alcotest.(check (option (float 1e-9))) "second share" (Some 120.0) (at 2);
  Alcotest.(check (option (float 1e-9))) "final gets hard" (Some 140.0) (at 3);
  (* shares clamp to the hard deadline *)
  Alcotest.(check (option (float 1e-9)))
    "clamped" (Some 140.0)
    (slice ~hard:(Some 140.0) ~tasks_left:1 ~attempt:2)

(* ---------- pool task retries ---------- *)

let test_pool_retry_recovers () =
  with_plan "crash@2" (fun () ->
      let retried = Atomic.make 0 in
      let results =
        Synth.Pool.map_arena ~jobs:1 ~make:(fun () -> ()) ~retries:1 ~retried
          (fun () x -> x * 10)
          [ 1; 2; 3 ]
      in
      Alcotest.(check (list int)) "all results" [ 10; 20; 30 ] results;
      Alcotest.(check int) "one retry" 1 (Atomic.get retried))

let test_pool_retry_exhausts () =
  (* both attempts of the first task crash: deterministic blame *)
  with_plan "crash@1,crash@2" (fun () ->
      Alcotest.(check bool) "exhausted retries re-raise" true
        (match
           Synth.Pool.map_arena ~jobs:1 ~make:(fun () -> ()) ~retries:1
             (fun () x -> x)
             [ 1 ]
         with
        | exception Fault.Injected_crash _ -> true
        | _ -> false))

(* ---------- whole-engine recovery ---------- *)

let solve ?(jobs = 1) ?retries ?validate_models problem =
  let options =
    Synth.Engine.(
      default_options |> with_jobs jobs
      |> Option.fold ~none:Fun.id ~some:with_retries retries
      |> Option.fold ~none:Fun.id ~some:with_validate_models validate_models)
  in
  match Synth.Engine.synthesize ~options problem with
  | Synth.Engine.Solved s -> s
  | _ -> Alcotest.fail "synthesis failed"

let test_clean_run_no_recovery () =
  (* with no fault plan, no budget and no deadline the ladder, the
     validation retries and the pool's task retries must all stay idle *)
  let st = (solve (Designs.Accumulator.problem ())).Synth.Engine.stats in
  Alcotest.(check int) "retried queries" 0 st.Synth.Engine.retried_queries;
  Alcotest.(check int) "degraded queries" 0 st.Synth.Engine.degraded_queries;
  Alcotest.(check int) "validation failures" 0
    st.Synth.Engine.validation_failures;
  Alcotest.(check int) "task retries" 0 st.Synth.Engine.task_retries

let test_spurious_unknowns_recover () =
  let clean = solve (Designs.Accumulator.problem ()) in
  with_plan "unknown@1,unknown@2" (fun () ->
      let s = solve (Designs.Accumulator.problem ()) in
      let st = s.Synth.Engine.stats in
      Alcotest.(check int) "two ladder retries" 2
        st.Synth.Engine.retried_queries;
      Alcotest.(check int) "one fresh-solver fallback" 1
        st.Synth.Engine.degraded_queries;
      Alcotest.(check bool) "bindings identical to fault-free" true
        (s.Synth.Engine.bindings = clean.Synth.Engine.bindings))

let test_corrupt_model_rejected () =
  let clean = solve (Designs.Accumulator.problem ()) in
  with_plan "corrupt@1,seed=7" (fun () ->
      let s = solve ~validate_models:true (Designs.Accumulator.problem ()) in
      let st = s.Synth.Engine.stats in
      Alcotest.(check int) "corruption detected" 1
        st.Synth.Engine.validation_failures;
      Alcotest.(check int) "recovered by one retry" 1
        st.Synth.Engine.retried_queries;
      Alcotest.(check int) "no degradation needed" 0
        st.Synth.Engine.degraded_queries;
      (* the session retry reproduces the honest model, so the corruption
         leaves no trace in the result *)
      Alcotest.(check bool) "bindings identical to fault-free" true
        (s.Synth.Engine.bindings = clean.Synth.Engine.bindings))

let test_corrupt_without_validation_undetected () =
  (* negative control: with validation off the corrupted model is trusted
     and the counters stay at zero — this is exactly what validate_models
     buys.  (The run may still solve or fail downstream; only the counters
     are the point here.) *)
  with_plan "corrupt@1,seed=7" (fun () ->
      let options = Synth.Engine.default_options in
      let st =
        match
          Synth.Engine.synthesize ~options (Designs.Accumulator.problem ())
        with
        | Synth.Engine.Solved s -> s.Synth.Engine.stats
        | Synth.Engine.Timeout st
        | Synth.Engine.Unrealizable { stats = st; _ }
        | Synth.Engine.Union_failed { stats = st; _ }
        | Synth.Engine.Not_independent { stats = st; _ } ->
            st
      in
      Alcotest.(check int) "nothing rejected" 0
        st.Synth.Engine.validation_failures)

let test_corrupt_degrades_to_fresh () =
  (* with retrying disabled a rejected model must still not be emitted:
     the ladder grants one bonus fresh-solver rung *)
  with_plan "corrupt@1,seed=7" (fun () ->
      let s =
        solve ~retries:0 ~validate_models:true (Designs.Accumulator.problem ())
      in
      let st = s.Synth.Engine.stats in
      Alcotest.(check int) "corruption detected" 1
        st.Synth.Engine.validation_failures;
      Alcotest.(check bool) "fresh-solver fallback ran" true
        (st.Synth.Engine.degraded_queries >= 1))

let rv32_plan = "unknown@5,unknown@40,corrupt@12,crash@2,seed=7"

let test_rv32_fault_transparency () =
  (* the acceptance criterion: rv32-single under spurious Unknowns, a
     worker crash, and a corrupted model solves with bindings identical
     to the fault-free jobs=1 run, at jobs=1 and jobs=4 *)
  let problem () = Designs.Riscv_single.problem Isa.Rv32.RV32I in
  let clean = solve (problem ()) in
  let check_run jobs =
    with_plan rv32_plan (fun () ->
        let s = solve ~jobs ~validate_models:true (problem ()) in
        let st = s.Synth.Engine.stats in
        let tag f = Printf.sprintf "jobs=%d: %s" jobs f in
        Alcotest.(check bool) (tag "faults fired") true (Fault.fired () > 0);
        Alcotest.(check bool) (tag "ladder retried") true
          (st.Synth.Engine.retried_queries >= 1);
        Alcotest.(check bool) (tag "crashed task retried") true
          (st.Synth.Engine.task_retries >= 1);
        Alcotest.(check bool) (tag "per_instr identical") true
          (s.Synth.Engine.per_instr = clean.Synth.Engine.per_instr);
        Alcotest.(check bool) (tag "shared identical") true
          (s.Synth.Engine.shared = clean.Synth.Engine.shared);
        Alcotest.(check bool) (tag "bindings identical") true
          (s.Synth.Engine.bindings = clean.Synth.Engine.bindings))
  in
  check_run 1;
  check_run 4

let test_verify_under_faults () =
  (* refinement checking of a correct design recovers from a spurious
     Unknown and a worker crash without any Inconclusive verdict *)
  let problem = Designs.Accumulator.problem () in
  let problem =
    { problem with
      Synth.Engine.design = Designs.Accumulator.reference_design () }
  in
  with_plan "unknown@1,crash@1" (fun () ->
      let options =
        Synth.Engine.(
          default_options |> with_jobs 2 |> with_validate_models true)
      in
      let verdicts = Synth.Engine.verify ~options problem in
      Alcotest.(check bool) "faults fired" true (Fault.fired () > 0);
      List.iter
        (fun (iname, v) ->
          Alcotest.(check bool) (iname ^ " verified") true
            (v = Synth.Engine.Verified))
        verdicts)

let () =
  Alcotest.run "resilience"
    [ ("ladder",
       [ Alcotest.test_case "policy validation" `Quick test_policy_validation;
         Alcotest.test_case "budget escalation" `Quick test_budget_ladder;
         Alcotest.test_case "deadline slicing" `Quick test_deadline_slicing ]);
      ("pool",
       [ Alcotest.test_case "crash retried on fresh state" `Quick
           test_pool_retry_recovers;
         Alcotest.test_case "exhausted retries blame" `Quick
           test_pool_retry_exhausts ]);
      ("engine",
       [ Alcotest.test_case "clean run engages no recovery" `Quick
           test_clean_run_no_recovery;
         Alcotest.test_case "spurious unknowns recover" `Quick
           test_spurious_unknowns_recover;
         Alcotest.test_case "corrupted model rejected" `Quick
           test_corrupt_model_rejected;
         Alcotest.test_case "corruption invisible without validation" `Quick
           test_corrupt_without_validation_undetected;
         Alcotest.test_case "rejected model degrades to fresh" `Quick
           test_corrupt_degrades_to_fresh;
         Alcotest.test_case "rv32 fault transparency" `Slow
           test_rv32_fault_transparency;
         Alcotest.test_case "verify recovers" `Quick test_verify_under_faults ]) ]
