(* The resilience layer end to end: the retry-ladder arithmetic, pool
   task retries, and whole-engine recovery under installed fault plans.

   The key acceptance property is recovery transparency: a run that hits
   spurious Unknowns, a worker crash, and a corrupted model must not just
   still solve — it must emit bit-for-bit the bindings of the fault-free
   run, at any job count.  Spurious Unknowns leave solver state untouched,
   corruption damages only the returned model copy (a session retry
   re-reads the honest assignment without searching), and crashed tasks
   replay on fresh worker state, so nothing a planned fault does can steer
   the search.

   Fault plans are process-global: every test installs under Fun.protect
   so a failure cannot leak a plan into later tests.  Solver-check indices
   count from the start of a run, and every synthesis poses the
   independence gate's query first, so a plan aimed at a CEGIS query
   starts at index 2. *)

let with_plan s f =
  Fault.install (Fault.parse s);
  Fun.protect ~finally:Fault.clear f

(* ---------- ladder arithmetic ---------- *)

let test_policy_validation () =
  let rejects f =
    Alcotest.(check bool) "Invalid_argument" true
      (match f () with exception Invalid_argument _ -> true | _ -> false)
  in
  rejects (fun () -> Synth.Engine.(default_options |> with_retries (-1)))

let test_budget_ladder () =
  let final k = Synth.Resilience.is_final ~retries:2 ~attempt:k in
  Alcotest.(check (list bool)) "three attempts" [ false; false; true ]
    (List.map final [ 1; 2; 3 ]);
  (* total 1600 over 3 attempts at factor 4: 100, 400, then the rest *)
  let b k remaining =
    Synth.Resilience.attempt_budget ~retries:2 ~total:1600 ~remaining
      ~attempt:k
  in
  Alcotest.(check int) "first attempt" 100 (b 1 1600);
  Alcotest.(check int) "second attempt" 400 (b 2 1500);
  Alcotest.(check int) "final gets the rest" 1100 (b 3 1100);
  Alcotest.(check int) "capped by remaining" 50 (b 2 50);
  (* the unlimited default saturates instead of overflowing: attempt 2 of
     a max_int ladder is b1 * 4 = (max_int / 16) * 4, huge and positive *)
  let unlimited k =
    Synth.Resilience.attempt_budget ~retries:2 ~total:max_int
      ~remaining:max_int ~attempt:k
  in
  Alcotest.(check bool) "saturating arithmetic" true
    (unlimited 2 >= max_int / 8);
  Alcotest.(check int) "final attempt unlimited" max_int (unlimited 3)

let test_deadline_slicing () =
  let slice = Synth.Resilience.slice_deadline ~retries:2 ~now:100.0 in
  Alcotest.(check bool) "no hard deadline" true
    (slice ~hard:None ~tasks_left:4 ~attempt:1 = None);
  (* 80s left over 8 tasks = 10s base share, growing fourfold per attempt:
     the second share, 40s, still ends before the hard deadline *)
  let at k = slice ~hard:(Some 180.0) ~tasks_left:8 ~attempt:k in
  Alcotest.(check (option (float 1e-9))) "first share" (Some 110.0) (at 1);
  Alcotest.(check (option (float 1e-9))) "second share" (Some 140.0) (at 2);
  Alcotest.(check (option (float 1e-9))) "final gets hard" (Some 180.0) (at 3);
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

let test_pool_retry_keeps_fresh_state () =
  (* task 1's first attempt dirties its worker state and crashes; the
     retry runs on a fresh state, and so must every later task *)
  let crashed = ref false in
  let results =
    Synth.Pool.map_arena ~jobs:1 ~make:(fun () -> ref false) ~retries:1
      (fun dirty x ->
        if !dirty then -1
        else if x = 1 && not !crashed then begin
          crashed := true;
          dirty := true;
          failwith "crashed mid-mutation"
        end
        else x)
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "no task sees the crashed state" [ 1; 2; 3 ]
    results

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
  with_plan "unknown@2,unknown@3" (fun () ->
      let s = solve (Designs.Accumulator.problem ()) in
      let st = s.Synth.Engine.stats in
      Alcotest.(check int) "two ladder retries" 2
        st.Synth.Engine.retried_queries;
      Alcotest.(check int) "one fresh-solver fallback" 1
        st.Synth.Engine.degraded_queries;
      Alcotest.(check bool) "bindings identical to fault-free" true
        (s.Synth.Engine.bindings = clean.Synth.Engine.bindings))

(* The accumulator's joint loop poses 16 checks; check 13 is its last
   synth query, whose model is the final bindings.  Corrupting it flips a
   bit of every hole, which breaks a ground constraint, so validation must
   reject it.  (A corrupted verify model can instead be a genuine
   counterexample: refinement folds the pinned instruction bits a flip
   used to hit, so such a model is rightly accepted.) *)
let corrupt_plan = "corrupt@13,seed=7"

let test_corrupt_model_rejected () =
  let clean = solve (Designs.Accumulator.problem ()) in
  with_plan corrupt_plan (fun () ->
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
  with_plan corrupt_plan (fun () ->
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
  with_plan corrupt_plan (fun () ->
      let s =
        solve ~retries:0 ~validate_models:true (Designs.Accumulator.problem ())
      in
      let st = s.Synth.Engine.stats in
      Alcotest.(check int) "corruption detected" 1
        st.Synth.Engine.validation_failures;
      Alcotest.(check bool) "fresh-solver fallback ran" true
        (st.Synth.Engine.degraded_queries >= 1))

let rv32_plan = "unknown@6,unknown@41,corrupt@13,crash@2,seed=7"

let test_rv32_fault_transparency () =
  (* the acceptance criterion: rv32-single under spurious Unknowns, a
     worker crash, and a corrupted model solves with bindings identical
     to the fault-free jobs=1 run, at jobs=1 and jobs=4.  Validation
     rejects a corrupted verify model even though refinement folds the
     pinned opcode bits away: its flipped [pc] makes the fetch read an
     address the model never recorded. *)
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
        Alcotest.(check bool) (tag "corruption rejected") true
          (st.Synth.Engine.validation_failures >= 1);
        Alcotest.(check bool) (tag "per_instr identical") true
          (s.Synth.Engine.per_instr = clean.Synth.Engine.per_instr);
        Alcotest.(check bool) (tag "shared identical") true
          (s.Synth.Engine.shared = clean.Synth.Engine.shared);
        Alcotest.(check bool) (tag "bindings identical") true
          (s.Synth.Engine.bindings = clean.Synth.Engine.bindings))
  in
  check_run 1;
  check_run 4

(* The spans open around each [name] instant, innermost first. *)
let enclosing_instants name events =
  let stacks = Hashtbl.create 4 in
  List.fold_left
    (fun acc (e : Obs.event) ->
      let stack = Option.value (Hashtbl.find_opt stacks e.Obs.dom) ~default:[] in
      match e.Obs.ph with
      | Obs.Begin ->
          Hashtbl.replace stacks e.Obs.dom (e.Obs.name :: stack);
          acc
      | Obs.End ->
          Hashtbl.replace stacks e.Obs.dom (match stack with [] -> [] | _ :: s -> s);
          acc
      | Obs.Instant -> if e.Obs.name = name then stack :: acc else acc)
    [] events

let test_gate_unknown_retried () =
  (* the gate's query is check 1: a spurious Unknown there climbs the
     ladder inside the gate's span, and the run solves as if nothing
     happened — the gate's retry is not counted in the run's stats *)
  let clean = solve (Designs.Accumulator.problem ()) in
  let s, events =
    with_plan "unknown@1" (fun () ->
        Obs.enable ();
        Fun.protect ~finally:Obs.disable (fun () ->
            let s = solve (Designs.Accumulator.problem ()) in
            (s, Obs.events ())))
  in
  Alcotest.(check bool) "retried inside synth.independence" true
    (List.exists
       (List.mem "synth.independence")
       (enclosing_instants "resilience.retry" events));
  Alcotest.(check int) "no retry in the run's stats" 0
    s.Synth.Engine.stats.Synth.Engine.retried_queries;
  Alcotest.(check bool) "bindings identical to fault-free" true
    (s.Synth.Engine.bindings = clean.Synth.Engine.bindings)

(* The [queries] results of the [names] spans in [events], summed. *)
let span_queries names events =
  List.fold_left
    (fun n (e : Obs.event) ->
      match (e.Obs.ph, List.assoc_opt "queries" e.Obs.args) with
      | Obs.End, Some (Obs.Int q) when List.mem e.Obs.name names -> n + q
      | _ -> n)
    0 events

let test_retried_trace_matches_stats () =
  (* retried attempts are queries too: under spurious Unknowns the loop
     spans' queries still sum to the run's [stats.queries] *)
  List.iter
    (fun (label, problem) ->
      List.iter
        (fun jobs ->
          let s, events =
            with_plan "unknown@2,unknown@3" (fun () ->
                Obs.enable ();
                Fun.protect ~finally:Obs.disable (fun () ->
                    let s = solve ~jobs (problem ()) in
                    (s, Obs.events ())))
          in
          let st = s.Synth.Engine.stats in
          let tag f = Printf.sprintf "%s, jobs=%d: %s" label jobs f in
          Alcotest.(check bool) (tag "ladder retried") true
            (st.Synth.Engine.retried_queries >= 1);
          Alcotest.(check int) (tag "loop spans sum to stats.queries")
            st.Synth.Engine.queries
            (span_queries [ "cegis.instr"; "cegis.joint" ] events))
        [ 1; 4 ])
    [ ("alu", Designs.Alu.problem); ("accumulator", Designs.Accumulator.problem) ]

let test_gate_exhausted_times_out () =
  (* every rung of the gate's ladder (2 retries: 3 attempts) answers
     Unknown: the gate is inconclusive, never "independent" *)
  let plan = "unknown@1,unknown@2,unknown@3" in
  List.iter
    (fun (label, mode, problem) ->
      with_plan plan (fun () ->
          let options = Synth.Engine.(default_options |> with_mode mode) in
          match Synth.Engine.synthesize ~options (problem ()) with
          | Synth.Engine.Timeout _ -> ()
          | o ->
              Alcotest.failf "%s: expected timeout, got %s" label
                (Synth.Engine.outcome_name o)))
    [ ("accumulator, joint", Synth.Engine.Per_instruction,
       Designs.Accumulator.problem);
      ("alu, per-instruction", Synth.Engine.Per_instruction, Designs.Alu.problem);
      ("alu, monolithic", Synth.Engine.Monolithic, Designs.Alu.problem) ];
  with_plan plan (fun () ->
      Alcotest.(check bool) "independence inconclusive" true
        (Synth.Engine.independence (Designs.Alu.problem ()) = None))

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

let test_pinned_verify_under_faults () =
  (* every RV32I precondition pins its opcode, so each verify query is a
     refined check on its own one-shot solver.  At jobs = 1 check 5 is
     LB's (refinement folds some earlier violations to false, which pose
     no check), and a spurious Unknown there must climb the ladder to the
     same verdict. *)
  let problem = Designs.Riscv_single.problem Isa.Rv32.RV32I in
  let problem =
    { problem with
      Synth.Engine.design = Designs.Riscv_single.reference_design Isa.Rv32.RV32I }
  in
  with_plan "unknown@5" (fun () ->
      let options = Synth.Engine.(default_options |> with_jobs 1) in
      let verdicts = Synth.Engine.verify ~options problem in
      Alcotest.(check int) "one fault fired" 1 (Fault.fired ());
      Alcotest.(check int) "37 verdicts" 37 (List.length verdicts);
      List.iter
        (fun (iname, v) ->
          Alcotest.(check bool) (iname ^ " verified") true
            (v = Synth.Engine.Verified))
        verdicts)

(* Cancellation is the caller's request, not a crash: it propagates on
   its first raise, is never retried, and stops the pool from starting
   further tasks. *)
let test_cancel_not_retried () =
  let metric name =
    match
      List.find_opt (fun m -> m.Obs.metric_name = name) (Obs.metrics ())
    with
    | Some m -> m.Obs.count
    | None -> 0
  in
  let cancel () = true in
  let expect_cancelled ?(tasks = 1) label f =
    Obs.reset_metrics ();
    (match f () with
    | exception Synth.Engine.Cancelled -> ()
    | _ -> Alcotest.failf "%s: expected Cancelled" label);
    Alcotest.(check int) (label ^ ": no task crashes") 0
      (metric "pool.task_crashes");
    Alcotest.(check int)
      (Printf.sprintf "%s: %d task(s) started" label tasks)
      tasks (metric "pool.tasks")
  in
  (* synthesis polls the token once in the independence gate, before the
     pool starts: a token that lets that poll pass is seen by a task *)
  let after_gate () =
    let polls = ref 0 in
    fun () ->
      incr polls;
      !polls > 1
  in
  Obs.enable_metrics ();
  Fun.protect ~finally:Obs.disable_metrics (fun () ->
      expect_cancelled ~tasks:0 "synthesize, in the gate" (fun () ->
          ignore (Synth.Engine.synthesize ~cancel (Designs.Alu.problem ())));
      expect_cancelled "synthesize" (fun () ->
          ignore
            (Synth.Engine.synthesize ~cancel:(after_gate ())
               (Designs.Alu.problem ())));
      expect_cancelled "verify" (fun () ->
          ignore
            (Synth.Engine.verify ~cancel
               { (Designs.Alu.problem ()) with
                 Synth.Engine.design = Designs.Alu.reference_design () })))

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
           test_pool_retry_exhausts;
         Alcotest.test_case "crashed state is not reused" `Quick
           test_pool_retry_keeps_fresh_state ]);
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
         Alcotest.test_case "unknown in the gate is retried" `Quick
           test_gate_unknown_retried;
         Alcotest.test_case "retried queries in the trace" `Quick
           test_retried_trace_matches_stats;
         Alcotest.test_case "exhausted gate ladder times out" `Quick
           test_gate_exhausted_times_out;
         Alcotest.test_case "verify recovers" `Quick test_verify_under_faults;
         Alcotest.test_case "pinned verify recovers" `Quick
           test_pinned_verify_under_faults;
         Alcotest.test_case "cancellation is not retried" `Quick
           test_cancel_not_retried ]) ]
