open Kernel
open Helpers

let c41 = config ~n:4 ~t:1
let c52 = config ~n:5 ~t:2
let props cfg = Sim.Runner.distinct_proposals cfg
let eager = Fuzz.Faulty.eager_floodset

let class_of outcome = Fuzz.Outcome.failure_of outcome

(* ------------------------------------------------------------------ *)
(* Engine containment                                                  *)

let test_engine_step_error () =
  match Helpers.run (Fuzz.Faulty.raising ~at:2) c41 quiet_es with
  | _ -> Alcotest.fail "expected Step_error"
  | exception Sim.Engine.Step_error e ->
      check_int "faulting round" 2 (Round.to_int e.Sim.Engine.round);
      check_bool "pid in range" true
        (let p = Pid.to_int e.Sim.Engine.pid in
         p >= 1 && p <= 4);
      check_bool "algorithm named" true (e.Sim.Engine.algorithm = "Raising@2");
      check_bool "printable" true
        (contains
           (Format.asprintf "%a" Sim.Engine.pp_step_error e)
           "injected fault")

(* Every process's [on_send] raises from round 2 on, so the first call
   made decides which process the error names: every engine path must call
   [on_send] in the same ascending pid order to report the same fault. *)
module Send_raising = struct
  type msg = Ping
  type state = unit

  let name = "SendRaising"
  let model = Sim.Model.Scs
  let symmetric = true
  let init _config _pid _v = ()

  let on_send () round =
    if Round.to_int round >= 2 then failwith "injected send fault" else Ping

  let on_receive () _round _inbox = ()
  let decision () = None
  let halted () = false
  let wire_size Ping = 1
  let pp_msg ppf Ping = Format.pp_print_string ppf "ping"
  let pp_state ppf () = Format.pp_print_string ppf "-"
end

let test_send_error_attribution () =
  let module E = Sim.Engine.Make (Send_raising) in
  let scs = Sim.Schedule.make ~model:Sim.Model.Scs ~gst:Round.first [] in
  let proposals = props c41 in
  let key (e : Sim.Engine.step_error) =
    (Pid.to_int e.pid, Round.to_int e.round, e.reason)
  in
  let raised run =
    match run () with
    | _ -> Alcotest.fail "expected Step_error"
    | exception Sim.Engine.Step_error e -> key e
  in
  let expected = (1, 2, {|on_send raised Failure("injected send fault")|}) in
  let same = Alcotest.(check (triple int int string)) in
  same "recording engine" expected
    (raised (fun () -> E.run ~record:true c41 ~proposals scs));
  same "record-free run" expected (raised (fun () -> E.run c41 ~proposals scs));
  match
    Fuzz.Harness.run
      ~algo:(Sim.Algorithm.Packed (module Send_raising))
      ~config:c41 ~proposals scs
  with
  | Fuzz.Outcome.Crashed e -> same "fuzz harness" expected (key e)
  | o -> Alcotest.fail (Format.asprintf "expected Crashed: %a" Fuzz.Outcome.pp o)

(* ------------------------------------------------------------------ *)
(* Harness outcomes                                                    *)

let test_harness_passed () =
  match Fuzz.Harness.run ~algo:at2 ~config:c52 ~proposals:(props c52) quiet_es with
  | Fuzz.Outcome.Passed { decision_round = Some r; _ } ->
      check_int "A(t+2) decides at t+2" 4 r
  | o -> Alcotest.fail (Format.asprintf "expected Passed: %a" Fuzz.Outcome.pp o)

let test_harness_crashed () =
  match
    Fuzz.Harness.run
      ~algo:(Fuzz.Faulty.raising ~at:3)
      ~config:c41 ~proposals:(props c41) quiet_es
  with
  | Fuzz.Outcome.Crashed e ->
      check_int "round carried" 3 (Round.to_int e.Sim.Engine.round)
  | o -> Alcotest.fail (Format.asprintf "expected Crashed: %a" Fuzz.Outcome.pp o)

let test_harness_budget () =
  match
    Fuzz.Harness.run ~fuel:1 ~algo:at2 ~config:c52 ~proposals:(props c52)
      quiet_es
  with
  | Fuzz.Outcome.Budget_exhausted { fuel; undecided } ->
      check_int "fuel recorded" 1 fuel;
      check_int "nobody decided in one round" 5 (List.length undecided)
  | o ->
      Alcotest.fail
        (Format.asprintf "expected Budget_exhausted: %a" Fuzz.Outcome.pp o)

let test_harness_raised_contained () =
  match
    Fuzz.Harness.run_contained ~algo:Fuzz.Faulty.raising_init ~config:c41
      ~proposals:(props c41) quiet_es
  with
  | Fuzz.Outcome.Raised msg -> check_bool "message" true (contains msg "init")
  | o -> Alcotest.fail (Format.asprintf "expected Raised: %a" Fuzz.Outcome.pp o)

(* The monitor aborts the eager FloodSet's split decision at the violating
   round — before the run completes. *)
let test_monitor_aborts_early () =
  let chain = Workload.Cascade.chain c52 in
  match Fuzz.Harness.run ~algo:eager ~config:c52 ~proposals:(props c52) chain with
  | Fuzz.Outcome.Violated { round; violations = [ Sim.Props.Agreement _ ] } ->
      check_int "aborted at the deciding round" 2 round
  | o ->
      Alcotest.fail
        (Format.asprintf "expected an agreement violation: %a" Fuzz.Outcome.pp
           o)

(* ------------------------------------------------------------------ *)
(* qcheck: monitor verdict == post-hoc Props verdict                   *)

let prop_monitor_agrees_with_posthoc =
  qtest ~count:60 "online monitor == post-hoc Props.check"
    QCheck.(pair (int_bound 99999) (int_bound 2))
    (fun (seed, which) ->
      let algo = List.nth [ at2; floodset; eager ] which in
      let rng = Rng.create ~seed in
      let schedule = Fuzz.Campaign.default_gen c52 rng in
      let proposals = props c52 in
      let online =
        Fuzz.Harness.run ~algo ~config:c52 ~proposals schedule
      in
      match class_of online with
      | Some Fuzz.Outcome.Crash -> false (* none of these algorithms raise *)
      | verdict -> (
          let posthoc =
            Sim.Props.check_agreement
              (Sim.Runner.run algo c52 ~proposals schedule)
          in
          let has p = List.exists p posthoc in
          match verdict with
          | Some Fuzz.Outcome.Agreement ->
              has (function Sim.Props.Agreement _ -> true | _ -> false)
          | Some Fuzz.Outcome.Validity ->
              has (function Sim.Props.Validity _ -> true | _ -> false)
          (* fuel and liveness outcomes must be safety-clean: the monitor
             saw every decision the full run produced *)
          | None | Some Fuzz.Outcome.Termination | Some Fuzz.Outcome.Fuel ->
              posthoc = []
          | Some Fuzz.Outcome.Crash -> false))

(* ------------------------------------------------------------------ *)
(* qcheck: shrinking preserves validity and the failure class          *)

let prop_shrink_preserves_class =
  qtest ~count:25 "shrunken schedules validate and keep their class"
    QCheck.(int_bound 99999)
    (fun seed ->
      let rng = Rng.create ~seed in
      let base = Workload.Cascade.chain c52 in
      let schedule = Workload.Mutate.generator ~base c52 rng in
      let proposals = props c52 in
      let original =
        class_of (Fuzz.Harness.run ~algo:eager ~config:c52 ~proposals schedule)
      in
      match
        Fuzz.Shrink.shrink ~algo:eager ~config:c52 ~proposals schedule
      with
      | None -> original = None
      | Some r ->
          Some r.Fuzz.Shrink.failure = original
          && Sim.Schedule.validate c52 r.Fuzz.Shrink.schedule = Ok ()
          && class_of
               (Fuzz.Harness.run ~algo:eager ~config:c52 ~proposals
                  r.Fuzz.Shrink.schedule)
             = original)

(* qcheck: Mutate only emits schedules the model validator accepts. *)
let prop_mutate_valid =
  qtest ~count:100 "mutated schedules always validate"
    QCheck.(int_bound 99999)
    (fun seed ->
      let rng = Rng.create ~seed in
      let base =
        if Rng.bool rng then Workload.Cascade.chain c52
        else Workload.Random_runs.synchronous rng c52 ()
      in
      let s = Workload.Mutate.generator ~base c52 rng in
      Sim.Schedule.validate c52 s = Ok ())

(* ------------------------------------------------------------------ *)
(* Omission faults: monitor exclusion, harness survival, shrinking      *)

(* The monitor judges agreement among non-omitters only: an omitter's
   divergent decision neither anchors nor trips it, while validity still
   applies to everyone. *)
let test_monitor_omitter_exclusion () =
  let proposals = props c41 in
  let d pid value =
    {
      Sim.Trace.pid = Pid.of_int pid;
      round = Round.of_int 2;
      value = Value.of_int value;
    }
  in
  let omitters = Pid.Set.of_ints [ 1 ] in
  (* the omitter disagrees with the anchor: no agreement violation *)
  let m = Fuzz.Monitor.create ~omitters ~proposals () in
  let m = Fuzz.Monitor.observe_all m [ d 2 2; d 1 1 ] in
  check_bool "omitter disagreement tolerated" false (Fuzz.Monitor.tripped m);
  (* a correct process disagreeing still trips it *)
  let m = Fuzz.Monitor.observe m (d 3 1) in
  check_bool "correct disagreement trips" true (Fuzz.Monitor.tripped m);
  check_bool "as an agreement violation" true
    (match Fuzz.Monitor.violation m with
    | Some (Sim.Props.Agreement _) -> true
    | _ -> false);
  (* the omitter never anchors: its early decision binds nobody *)
  let m2 = Fuzz.Monitor.create ~omitters ~proposals () in
  let m2 = Fuzz.Monitor.observe_all m2 [ d 1 1; d 2 2; d 3 2 ] in
  check_bool "omitter decision does not anchor" false
    (Fuzz.Monitor.tripped m2);
  (* validity still holds omitters to account *)
  let m3 = Fuzz.Monitor.create ~omitters ~proposals () in
  let m3 = Fuzz.Monitor.observe m3 (d 1 99) in
  check_bool "omitter validity checked" true
    (match Fuzz.Monitor.violation m3 with
    | Some (Sim.Props.Validity _) -> true
    | _ -> false)

(* FloodSet survives pure receive-omissions: a receive-omitter only
   starves itself, and its own (possibly divergent) decision is excluded
   from the agreement judgment — the e13 asymmetry, via the harness. *)
let test_harness_recv_omit_starvation () =
  let starved =
    Sim.Schedule.make
      ~omitters:[ (Pid.of_int 4, Sim.Model.Recv_omit) ]
      ~model:Sim.Model.Es ~gst:Round.first
      [
        { Sim.Schedule.empty_plan with
          lost = [ (Pid.of_int 1, Pid.of_int 4);
                   (Pid.of_int 2, Pid.of_int 4);
                   (Pid.of_int 3, Pid.of_int 4) ] };
        { Sim.Schedule.empty_plan with
          lost = [ (Pid.of_int 1, Pid.of_int 4);
                   (Pid.of_int 2, Pid.of_int 4);
                   (Pid.of_int 3, Pid.of_int 4) ] };
      ]
  in
  assert_valid c41 starved;
  match
    Fuzz.Harness.run ~algo:floodset ~config:c41 ~proposals:(props c41) starved
  with
  | Fuzz.Outcome.Passed _ -> ()
  | o ->
      Alcotest.fail
        (Format.asprintf "expected Passed under recv-omission: %a"
           Fuzz.Outcome.pp o)

(* A send-omission counterexample from the exhaustive sweep shrinks to a
   1-minimal schedule that keeps its omitter declaration: the fault is
   essential, so no reduction may drop it. *)
let test_shrink_omission_minimal () =
  let faults = Sim.Model.Send_omit_only in
  let proposals = props c41 in
  let r =
    Mc.Exhaustive.sweep ~faults ~algo:floodset ~config:c41 ~proposals ()
  in
  let choices, _ =
    match r.Mc.Exhaustive.violations with
    | w :: _ -> w
    | [] -> Alcotest.fail "send-omit sweep must find FloodSet violations"
  in
  let budget = Mc.Serial.budget_of ~faults c41 in
  let witness = Mc.Serial.to_schedule ?budget c41 choices in
  match Fuzz.Shrink.shrink ~algo:floodset ~config:c41 ~proposals witness with
  | None -> Alcotest.fail "witness must fail under the harness"
  | Some rep ->
      check_bool "agreement preserved" true
        (rep.Fuzz.Shrink.failure = Fuzz.Outcome.Agreement);
      assert_valid c41 rep.Fuzz.Shrink.schedule;
      check_int "the omitter survives shrinking" 1
        (Sim.Schedule.omit_count rep.Fuzz.Shrink.schedule);
      check_int "no crash is needed" 0
        (Sim.Schedule.crash_count rep.Fuzz.Shrink.schedule);
      (* 1-minimality: a second shrink is a fixpoint *)
      (match
         Fuzz.Shrink.shrink ~algo:floodset ~config:c41 ~proposals
           rep.Fuzz.Shrink.schedule
       with
      | Some again -> check_int "fixpoint" 0 again.Fuzz.Shrink.steps
      | None -> Alcotest.fail "shrunken schedule must still fail")

(* The omission generator and the omission-aware mutation operators only
   emit schedules the validator accepts, whatever the menu. *)
let prop_omission_workloads_valid =
  qtest ~count:100 "omission generator and mutations validate"
    QCheck.(pair (int_bound 99999) (int_bound 2))
    (fun (seed, menu) ->
      let faults =
        match menu with
        | 0 -> Sim.Model.Send_omit_only
        | 1 -> Sim.Model.Recv_omit_only
        | _ -> Sim.Model.Mixed
      in
      let rng = Rng.create ~seed in
      let base = Workload.Random_runs.with_omissions rng c52 ~faults () in
      let mutated = Workload.Mutate.generator ~base c52 rng in
      Sim.Schedule.validate c52 base = Ok ()
      && Sim.Schedule.validate c52 mutated = Ok ())

(* ------------------------------------------------------------------ *)
(* Shrinking the chain seed: the acceptance criterion                  *)

let test_shrink_chain_minimal () =
  let chain = Workload.Cascade.chain c52 in
  let proposals = props c52 in
  match Fuzz.Shrink.shrink ~algo:eager ~config:c52 ~proposals chain with
  | None -> Alcotest.fail "eager FloodSet must fail on the chain cascade"
  | Some r ->
      check_bool "agreement preserved" true
        (r.Fuzz.Shrink.failure = Fuzz.Outcome.Agreement);
      assert_valid c52 r.Fuzz.Shrink.schedule;
      check_bool "still violates" true
        (class_of
           (Fuzz.Harness.run ~algo:eager ~config:c52 ~proposals
              r.Fuzz.Shrink.schedule)
        = Some Fuzz.Outcome.Agreement);
      (* 1-minimality: the shrunken schedule is a fixpoint — a second
         shrink finds nothing left to remove. *)
      (match
         Fuzz.Shrink.shrink ~algo:eager ~config:c52 ~proposals
           r.Fuzz.Shrink.schedule
       with
      | Some again -> check_int "fixpoint" 0 again.Fuzz.Shrink.steps
      | None -> Alcotest.fail "shrunken schedule must still fail");
      (* Both cascade crashes are essential to split the eager decision. *)
      check_int "both crashes kept" 2
        (Sim.Schedule.crash_count r.Fuzz.Shrink.schedule)

(* ------------------------------------------------------------------ *)
(* Campaigns                                                           *)

let report_equal (a : Fuzz.Campaign.report) (b : Fuzz.Campaign.report) =
  a.Fuzz.Campaign.runs = b.Fuzz.Campaign.runs
  && a.Fuzz.Campaign.skipped = b.Fuzz.Campaign.skipped
  && a.Fuzz.Campaign.passed = b.Fuzz.Campaign.passed
  && a.Fuzz.Campaign.findings = b.Fuzz.Campaign.findings
  && a.Fuzz.Campaign.shrink_steps = b.Fuzz.Campaign.shrink_steps

let campaign ?(shrink = true) ~jobs ~algo ~gen ~seed () =
  Fuzz.Campaign.run ~jobs ~shrink ~seed ~runs:40 ~algo ~config:c52
    ~proposals:(props c52) ~gen ()

let prop_campaign_jobs_deterministic =
  qtest ~count:4 "campaign reports bit-identical across jobs"
    QCheck.(int_bound 9999)
    (fun seed ->
      let run jobs =
        campaign ~jobs ~algo:eager
          ~gen:(Fuzz.Campaign.mutation_gen ~base:(Workload.Cascade.chain c52))
          ~seed ()
      in
      let r1 = run 1 and r2 = run 2 and r4 = run 4 in
      (* The mutation campaign around the cascade must actually find
         violations, or this property tests nothing. *)
      r1.Fuzz.Campaign.findings <> []
      && report_equal r1 r2 && report_equal r1 r4)

let test_campaign_contains_crashes () =
  let r =
    campaign ~shrink:false ~jobs:2
      ~algo:(Fuzz.Faulty.raising ~at:2)
      ~gen:Fuzz.Campaign.default_gen ~seed:11 ()
  in
  check_int "campaign completed every run" 40 r.Fuzz.Campaign.runs;
  check_int "every run is a finding" 40 (List.length r.Fuzz.Campaign.findings);
  List.iter
    (fun (f : Fuzz.Campaign.finding) ->
      match f.Fuzz.Campaign.outcome with
      | Fuzz.Outcome.Crashed e ->
          check_int "round context" 2 (Round.to_int e.Sim.Engine.round)
      | o ->
          Alcotest.fail
            (Format.asprintf "expected Crashed: %a" Fuzz.Outcome.pp o))
    r.Fuzz.Campaign.findings

let test_campaign_contains_raised () =
  let r =
    campaign ~shrink:false ~jobs:4 ~algo:Fuzz.Faulty.raising_init
      ~gen:Fuzz.Campaign.default_gen ~seed:11 ()
  in
  check_int "campaign survived an uncontained raiser" 40 r.Fuzz.Campaign.runs;
  check_bool "all findings are Raised" true
    (List.for_all
       (fun (f : Fuzz.Campaign.finding) ->
         match f.Fuzz.Campaign.outcome with
         | Fuzz.Outcome.Raised _ -> true
         | _ -> false)
       r.Fuzz.Campaign.findings)

let test_campaign_metrics () =
  let m = Obs.Metrics.create () in
  let _ =
    Fuzz.Campaign.run ~metrics:m ~shrink:true ~seed:5 ~runs:30 ~algo:eager
      ~config:c52 ~proposals:(props c52)
      ~gen:(Fuzz.Campaign.mutation_gen ~base:(Workload.Cascade.chain c52))
      ()
  in
  check_bool "fuzz.runs" true (Obs.Metrics.find_counter m "fuzz.runs" = Some 30);
  check_bool "fuzz.violations counted" true
    (match Obs.Metrics.find_counter m "fuzz.violations" with
    | Some v -> v > 0
    | None -> false);
  check_bool "fuzz.shrink_steps counted" true
    (match Obs.Metrics.find_counter m "fuzz.shrink_steps" with
    | Some v -> v > 0
    | None -> false)

let test_campaign_budget_skips () =
  let r =
    Fuzz.Campaign.run ~budget_s:(-1.0) ~seed:5 ~runs:25 ~algo:at2 ~config:c52
      ~proposals:(props c52) ~gen:Fuzz.Campaign.default_gen ()
  in
  check_int "nothing executed" 0 r.Fuzz.Campaign.runs;
  check_int "everything skipped" 25 r.Fuzz.Campaign.skipped

(* Seeded omission campaigns: A(t+2) survives the mixed menu (indulgence
   covers omissions), the campaign is bit-identical across --jobs, and a
   FloodSet send-omission campaign's findings all shrink to schedules
   whose violation is licensed by a declared omitter. *)
let test_campaign_omissions () =
  let gen faults config rng =
    Workload.Random_runs.with_omissions rng config ~faults ()
  in
  let at2_run jobs =
    Fuzz.Campaign.run ~jobs ~shrink:true ~seed:42 ~runs:80 ~algo:at2
      ~config:c52 ~proposals:(props c52)
      ~gen:(gen Sim.Model.Mixed) ()
  in
  let r1 = at2_run 1 and r4 = at2_run 4 in
  check_int "A(t+2) clean under mixed omissions" 0
    (List.length r1.Fuzz.Campaign.findings);
  check_bool "bit-identical across jobs" true (report_equal r1 r4);
  let fs =
    Fuzz.Campaign.run ~shrink:true ~seed:42 ~runs:600 ~algo:floodset
      ~config:c41 ~proposals:(props c41)
      ~gen:(gen Sim.Model.Send_omit_only) ()
  in
  check_bool "floodset campaign finds send-omit violations" true
    (fs.Fuzz.Campaign.findings <> []);
  List.iter
    (fun (f : Fuzz.Campaign.finding) ->
      check_bool "every finding keeps its omitter" true
        (Sim.Schedule.omit_count f.Fuzz.Campaign.schedule > 0))
    fs.Fuzz.Campaign.findings

let test_campaign_json_roundtrips () =
  let r =
    campaign ~jobs:1 ~algo:eager
      ~gen:(Fuzz.Campaign.mutation_gen ~base:(Workload.Cascade.chain c52))
      ~seed:3 ()
  in
  let json = Obs.Json.to_string (Fuzz.Campaign.to_json r) in
  match Obs.Json.of_string json with
  | Error e -> Alcotest.fail ("report JSON must parse: " ^ e)
  | Ok tree ->
      let findings =
        match Obs.Json.member "findings" tree with
        | Some l -> Option.value ~default:[] (Obs.Json.to_list_opt l)
        | None -> []
      in
      check_int "findings serialized" (List.length r.Fuzz.Campaign.findings)
        (List.length findings);
      (* Every embedded schedule must decode back through the codec. *)
      List.iter
        (fun f ->
          match Obs.Json.member "schedule" f with
          | Some (Obs.Json.String s) -> (
              match Sim.Codec.decode s with
              | Ok _ -> ()
              | Error e -> Alcotest.fail ("embedded schedule: " ^ e))
          | _ -> Alcotest.fail "finding without schedule")
        findings

let () =
  Alcotest.run "fuzz"
    [
      ( "containment",
        [
          Alcotest.test_case "engine wraps raising callbacks" `Quick
            test_engine_step_error;
          Alcotest.test_case "on_send errors name the same process" `Quick
            test_send_error_attribution;
          Alcotest.test_case "harness: crashed" `Quick test_harness_crashed;
          Alcotest.test_case "harness: raised (init)" `Quick
            test_harness_raised_contained;
          Alcotest.test_case "campaign: crashes contained" `Quick
            test_campaign_contains_crashes;
          Alcotest.test_case "campaign: raised contained" `Quick
            test_campaign_contains_raised;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "harness: passed" `Quick test_harness_passed;
          Alcotest.test_case "harness: budget exhausted" `Quick
            test_harness_budget;
          Alcotest.test_case "aborts at the violating round" `Quick
            test_monitor_aborts_early;
          prop_monitor_agrees_with_posthoc;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "chain shrinks to a 1-minimal witness" `Quick
            test_shrink_chain_minimal;
          prop_shrink_preserves_class;
          prop_mutate_valid;
        ] );
      ( "omissions",
        [
          Alcotest.test_case "monitor excludes omitters from agreement" `Quick
            test_monitor_omitter_exclusion;
          Alcotest.test_case "recv-omission starvation passes" `Quick
            test_harness_recv_omit_starvation;
          Alcotest.test_case "send-omission witness shrinks 1-minimal" `Quick
            test_shrink_omission_minimal;
          prop_omission_workloads_valid;
          Alcotest.test_case "omission campaigns" `Quick
            test_campaign_omissions;
        ] );
      ( "campaign",
        [
          prop_campaign_jobs_deterministic;
          Alcotest.test_case "metrics reported" `Quick test_campaign_metrics;
          Alcotest.test_case "wall budget skips runs" `Quick
            test_campaign_budget_skips;
          Alcotest.test_case "JSON report roundtrips" `Quick
            test_campaign_json_roundtrips;
        ] );
    ]
