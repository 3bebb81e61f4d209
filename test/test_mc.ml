open Kernel
open Helpers

let c31 = config ~n:3 ~t:1
let c41 = config ~n:4 ~t:1
let c52 = config ~n:5 ~t:2

(* ------------------------------------------------------------------ *)
(* Serial                                                              *)

let test_serial_choices () =
  let alive = Pid.Set.universe ~n:3 in
  let all =
    Mc.Serial.choices ~policy:Mc.Serial.All_subsets ~alive ~crashes_left:1 ()
  in
  (* no-crash + 3 victims x 2^2 subsets *)
  check_int "all-subsets branching" 13 (List.length all);
  let pre =
    Mc.Serial.choices ~policy:Mc.Serial.Prefixes ~alive ~crashes_left:1 ()
  in
  (* no-crash + 3 victims x 3 prefixes *)
  check_int "prefix branching" 10 (List.length pre);
  let none =
    Mc.Serial.choices ~policy:Mc.Serial.Prefixes ~alive ~crashes_left:0 ()
  in
  check_int "no budget" 1 (List.length none)

let test_serial_enumerate_count () =
  (* depth 1: exactly the branching factor *)
  check_int "depth 1" 13
    (Mc.Serial.count ~policy:Mc.Serial.All_subsets c31 ~horizon:1);
  (* depth 2 with budget 1: crash in round 1 leaves only No_crash after *)
  check_int "depth 2" (12 + 13)
    (Mc.Serial.count ~policy:Mc.Serial.All_subsets c31 ~horizon:2)

(* Closed-form count of serial choice sequences: with [a] alive processes
   and [b] crashes left, a round offers 1 no-crash choice plus (for each of
   the [a] victims) one receiver set per policy —

     C(a, b, 0) = 1
     C(a, b, h) = C(a, b, h-1) + branch(a) * C(a-1, b-1, h-1)   if b > 0
     C(a, 0, h) = 1

   where branch(a) = a * a for Prefixes (a victims x a survivor prefixes,
   empty included) and a * 2^(a-1) for All_subsets. *)
let rec closed_form ~branch a b h =
  if h = 0 then 1
  else
    closed_form ~branch a b (h - 1)
    + (if b > 0 then branch a * closed_form ~branch (a - 1) (b - 1) (h - 1)
       else 0)

let test_serial_count_closed_form () =
  List.iter
    (fun (policy, pol_name, branch) ->
      List.iter
        (fun (n, t, h) ->
          check_int
            (Printf.sprintf "%s n=%d t=%d h=%d" pol_name n t h)
            (closed_form ~branch n t h)
            (Mc.Serial.count ~policy (config ~n ~t) ~horizon:h))
        [ (3, 1, 1); (3, 1, 3); (4, 1, 3); (4, 2, 3); (5, 1, 2); (5, 2, 4) ])
    [
      (Mc.Serial.Prefixes, "prefixes", fun a -> a * a);
      (Mc.Serial.All_subsets, "all-subsets", fun a -> a * (1 lsl (a - 1)));
    ]

let test_serial_to_schedule () =
  let choices =
    [
      Mc.Serial.Crash
        { victim = Pid.of_int 1; receivers = Pid.Set.of_ints [ 2 ] };
      Mc.Serial.No_crash;
    ]
  in
  let s = Mc.Serial.to_schedule c31 choices in
  assert_valid c31 s;
  check_bool "synchronous" true (Sim.Schedule.synchronous s);
  check_bool "loses to p3" true
    (Sim.Schedule.fate s ~src:(Pid.of_int 1) ~dst:(Pid.of_int 3)
       ~round:Round.first
    = Sim.Schedule.Lost);
  check_bool "keeps p2" true
    (Sim.Schedule.fate s ~src:(Pid.of_int 1) ~dst:(Pid.of_int 2)
       ~round:Round.first
    = Sim.Schedule.Same_round)

let prop_serial_schedules_valid =
  qtest ~count:1 "every enumerated serial schedule validates" QCheck.unit
    (fun () ->
      let ok = ref true in
      Mc.Serial.enumerate ~policy:Mc.Serial.All_subsets c31 ~horizon:3
        ~f:(fun choices ->
          match
            Sim.Schedule.validate c31 (Mc.Serial.to_schedule c31 choices)
          with
          | Ok () -> ()
          | Error _ -> ok := false);
      !ok)

(* ------------------------------------------------------------------ *)
(* Exhaustive                                                          *)

let test_exhaustive_floodset () =
  let r =
    Mc.Exhaustive.sweep ~policy:Mc.Serial.All_subsets ~algo:floodset
      ~config:c31
      ~proposals:(Sim.Runner.distinct_proposals c31)
      ()
  in
  check_int "min = t+1" 2 r.Mc.Exhaustive.min_decision;
  check_int "max = t+1" 2 r.Mc.Exhaustive.max_decision;
  check_bool "no violations" true (r.Mc.Exhaustive.violations = []);
  check_int "no undecided" 0 r.Mc.Exhaustive.undecided_runs

let test_exhaustive_at2 () =
  let r = Mc.Exhaustive.sweep_binary ~algo:at2 ~config:c41 () in
  check_int "min = t+2" 3 r.Mc.Exhaustive.min_decision;
  check_int "max = t+2" 3 r.Mc.Exhaustive.max_decision;
  check_bool "no violations" true (r.Mc.Exhaustive.violations = []);
  check_bool "many runs" true (r.Mc.Exhaustive.runs > 500)

(* ------------------------------------------------------------------ *)
(* Determinism: every executor of the one driver == the per-leaf sweep  *)

(* Field-by-field equality, violation order included — "bit-identical" is
   the correctness anchor of the prefix-sharing and parallel drivers. *)
let result_equal (a : Mc.Exhaustive.result) (b : Mc.Exhaustive.result) =
  a.Mc.Exhaustive.runs = b.Mc.Exhaustive.runs
  && a.Mc.Exhaustive.max_decision = b.Mc.Exhaustive.max_decision
  && a.Mc.Exhaustive.min_decision = b.Mc.Exhaustive.min_decision
  && a.Mc.Exhaustive.max_witness = b.Mc.Exhaustive.max_witness
  && a.Mc.Exhaustive.undecided_runs = b.Mc.Exhaustive.undecided_runs
  && a.Mc.Exhaustive.violations = b.Mc.Exhaustive.violations
  && a.Mc.Exhaustive.crashed = b.Mc.Exhaustive.crashed
  && a.Mc.Exhaustive.shard_failures = b.Mc.Exhaustive.shard_failures
  && a.Mc.Exhaustive.expired = b.Mc.Exhaustive.expired

let sweep ?exec spec = (sweep_outcome ?exec spec).Mc.Sweep.result

(* [expect] equals the result of [spec] under every in-process executor. *)
let check_executors tag expect spec =
  List.iter
    (fun (ex, (o : Mc.Sweep.outcome)) ->
      check_bool (Printf.sprintf "%s: %s == reference" tag ex) true
        (result_equal expect o.result))
    (in_process_outcomes spec)

let test_sweep_determinism () =
  (* n=4 with t in {1,2} where the algorithm's resilience admits it:
     A(t+2) needs 2t < n and AF+2 needs 3t < n, so their t=2 rows move to
     the nearest feasible config (n=5 for A(t+2)); FloodSet covers both
     n=4 resiliences. *)
  List.iter
    (fun (algo, name, n, t) ->
      let config = config ~n ~t in
      let proposals = Sim.Runner.distinct_proposals config in
      let horizon = t + 2 in
      let s = Mc.Exhaustive.sweep ~algo ~config ~proposals ~horizon () in
      check_executors name s (fixed_spec ~horizon ~algo config))
    [
      (floodset, "floodset n=4 t=1", 4, 1);
      (floodset, "floodset n=4 t=2", 4, 2);
      (at2, "at2 n=4 t=1", 4, 1);
      (at2, "at2 n=5 t=2", 5, 2);
      (af2, "af2 n=4 t=1", 4, 1);
    ]

let test_sweep_binary_determinism () =
  let s = Mc.Exhaustive.sweep_binary ~algo:at2 ~config:c41 () in
  let i = Mc.Exhaustive.sweep_binary_incremental ~algo:at2 ~config:c41 () in
  check_bool "binary incremental == serial" true (result_equal s i);
  check_executors "binary" s (binary_spec ~algo:at2 c41)

(* ------------------------------------------------------------------ *)
(* State-space reduction: transposition table and symmetry              *)

(* Healthy algorithms plus the violating and the crashing fixture: the
   reductions must reproduce violations and contained errors too, not just
   clean sweeps. *)
let reduction_fixtures =
  [
    (floodset, "floodset", 4, 1);
    (floodset, "floodset", 4, 2);
    (at2, "at2", 4, 1);
    (af2, "af2", 4, 1);
    (Fuzz.Faulty.eager_floodset, "eager", 4, 1);
    (Fuzz.Faulty.raising ~at:2, "raising@2", 4, 1);
    (floodmin, "floodmin", 4, 2);
  ]

let both_policies = [ (Mc.Serial.Prefixes, "pfx"); (Mc.Serial.All_subsets, "all") ]

let fixed_at ?policy ?reduce ~algo config proposals =
  Mc.Sweep.make ?policy ?reduce ~algo ~config (Mc.Sweep.Fixed proposals)

(* Dedup is bit-identical to the unreduced sweep on every observable
   field (result_equal covers them all); only [distinct_runs] may shrink,
   and a reduction that explores nothing it didn't have to never explores
   more than the enumeration. *)
let test_dedup_equivalence () =
  List.iter
    (fun (policy, ptag) ->
      List.iter
        (fun (algo, name, n, t) ->
          let tag = Printf.sprintf "%s n=%d t=%d %s" name n t ptag in
          let config = config ~n ~t in
          let u = sweep (fixed_spec ~policy ~algo config) in
          let r = sweep (fixed_spec ~policy ~reduce:Mc.Sweep.Dedup ~algo config) in
          check_bool (tag ^ ": dedup == unreduced") true (result_equal u r);
          check_bool (tag ^ ": explored <= runs") true
            (r.Mc.Exhaustive.distinct_runs <= r.Mc.Exhaustive.runs))
        reduction_fixtures)
    both_policies

(* The same equivalence as a property over random binary proposal
   assignments (the deterministic test above pins distinct proposals). *)
let prop_dedup_equivalent_on_random_proposals =
  qtest ~count:40 "dedup == unreduced on random binary assignments"
    QCheck.(triple (int_range 0 15) (int_range 0 6) bool)
    (fun (ones_mask, fixture, all_subsets) ->
      let algo, _, n, t = List.nth reduction_fixtures fixture in
      let policy =
        if all_subsets then Mc.Serial.All_subsets else Mc.Serial.Prefixes
      in
      let config = config ~n ~t in
      let ones =
        Pid.Set.of_ints
          (List.filter
             (fun i -> ones_mask land (1 lsl (i - 1)) <> 0)
             (List.init n (fun i -> i + 1)))
      in
      let proposals = Sim.Runner.binary_proposals config ~ones in
      let u = sweep (fixed_at ~policy ~algo config proposals) in
      let r =
        sweep (fixed_at ~policy ~reduce:Mc.Sweep.Dedup ~algo config proposals)
      in
      result_equal u r)

(* Symmetry: exact aggregates, and the orbit weighting accounts for every
   unreduced violation and contained crash — sum over orbits of
   multiplicity x (representative's list length) equals the unreduced list
   length. *)
let test_symmetry_equivalence () =
  List.iter
    (fun (policy, ptag) ->
      List.iter
        (fun (algo, name, n, t) ->
          let tag = Printf.sprintf "%s n=%d t=%d %s" name n t ptag in
          let config = config ~n ~t in
          let u =
            Mc.Exhaustive.sweep_binary_incremental ~policy ~algo ~config ()
          in
          let r =
            sweep (binary_spec ~policy ~reduce:Mc.Sweep.Dedup_sym ~algo config)
          in
          check_int (tag ^ ": runs") u.Mc.Exhaustive.runs r.Mc.Exhaustive.runs;
          check_int (tag ^ ": max") u.Mc.Exhaustive.max_decision
            r.Mc.Exhaustive.max_decision;
          check_int (tag ^ ": min") u.Mc.Exhaustive.min_decision
            r.Mc.Exhaustive.min_decision;
          check_int (tag ^ ": undecided") u.Mc.Exhaustive.undecided_runs
            r.Mc.Exhaustive.undecided_runs;
          let weighted f =
            List.fold_left
              (fun acc (o : Mc.Symmetry.orbit) ->
                let r, _ =
                  Mc.Dedup.sweep_sharded ~policy ~algo ~config
                    ~menu:(Mc.Menu.create ~policy config)
                    ~proposals:o.proposals ()
                in
                acc + (o.multiplicity * List.length (f r)))
              0 (Mc.Symmetry.orbits config)
          in
          check_int
            (tag ^ ": orbit-weighted violations")
            (List.length u.Mc.Exhaustive.violations)
            (weighted (fun r -> r.Mc.Exhaustive.violations));
          check_int
            (tag ^ ": orbit-weighted crashed")
            (List.length u.Mc.Exhaustive.crashed)
            (weighted (fun r -> r.Mc.Exhaustive.crashed)))
        [
          (floodset, "floodset", 4, 2);
          (floodmin, "floodmin", 4, 2);
          (Fuzz.Faulty.eager_floodset, "eager", 4, 1);
          (Fuzz.Faulty.eager_floodset, "eager", 4, 2);
          (Fuzz.Faulty.raising ~at:2, "raising@2", 4, 1);
        ])
    both_policies

let test_symmetry_orbits () =
  let config = c41 in
  let orbits = Mc.Symmetry.orbits config in
  check_int "n+1 orbits" 5 (List.length orbits);
  check_int "multiplicities cover 2^n" 16
    (List.fold_left (fun acc o -> acc + o.Mc.Symmetry.multiplicity) 0 orbits);
  check_int "C(4,2)" 6 (Mc.Symmetry.choose 4 2)

(* A(t+2).Standard is not symmetric (its Ct_diamond_s fallback elects
   coordinators by pid), so asking for symmetry must fall back to plain
   dedup — bit-identically, with one task per assignment. *)
let test_symmetry_asymmetric_fallback () =
  check_bool "at2 not symmetric" false (Sim.Algorithm.symmetric at2);
  let d, ds = Mc.Dedup.sweep_binary ~algo:at2 ~config:c41 () in
  let s =
    sweep_outcome (binary_spec ~reduce:Mc.Sweep.Dedup_sym ~algo:at2 c41)
  in
  check_bool "falls back to dedup" true
    (d = s.result && Some ds = s.stats && s.total_tasks = 16);
  let u = Mc.Exhaustive.sweep_binary_incremental ~algo:at2 ~config:c41 () in
  check_bool "still == unreduced" true (result_equal u s.result)

(* Reduced sweeps are deterministic across executors: every field, stats
   included, equals the serial run's. *)
let test_reduced_jobs_determinism () =
  List.iter
    (fun (tag, spec) ->
      match in_process_outcomes spec with
      | [] -> ()
      | (_, (serial : Mc.Sweep.outcome)) :: rest ->
          List.iter
            (fun (ex, (o : Mc.Sweep.outcome)) ->
              check_bool (Printf.sprintf "%s %s" tag ex) true
                (o.result = serial.result && o.stats = serial.stats
               && o.edges = serial.edges))
            rest)
    [
      ("dedup", fixed_spec ~reduce:Mc.Sweep.Dedup ~algo:floodset c41);
      ("binary dedup", binary_spec ~reduce:Mc.Sweep.Dedup ~algo:floodset c41);
      ( "binary dedup+sym",
        binary_spec ~reduce:Mc.Sweep.Dedup_sym ~algo:floodset c41 );
    ]

(* The paper's headline sweep, with every reduction on: A(t+2) still
   decides at exactly t+2 with no violation in any of the runs the
   reduced sweeps account for. *)
let test_at2_reduced_t_plus_2 () =
  let r, _ = Mc.Dedup.sweep_binary ~algo:at2 ~config:c41 () in
  check_int "dedup min = t+2" 3 r.Mc.Exhaustive.min_decision;
  check_int "dedup max = t+2" 3 r.Mc.Exhaustive.max_decision;
  check_bool "dedup no violations" true (r.Mc.Exhaustive.violations = []);
  check_bool "dedup many runs" true (r.Mc.Exhaustive.runs > 500);
  let s = sweep (binary_spec ~reduce:Mc.Sweep.Dedup_sym ~algo:at2 c41) in
  check_int "sym min = t+2" 3 s.Mc.Exhaustive.min_decision;
  check_int "sym max = t+2" 3 s.Mc.Exhaustive.max_decision;
  check_bool "sym no violations" true (s.Mc.Exhaustive.violations = [])

(* ------------------------------------------------------------------ *)
(* Omission-fault adversary (DESIGN §13)                               *)

(* One-round branching under each menu, against the closed forms: with
   [a] alive processes an omission act offers a culprits x (non-empty
   target subsets of the other a-1), crashes keep their usual branching,
   and a declared culprit is the only one left once the budget is spent. *)
let test_serial_omission_choices () =
  let alive = Pid.Set.universe ~n:3 in
  let count ?faults ?send_omitters ?omit_left ~crashes_left () =
    List.length
      (Mc.Serial.choices ?faults ?send_omitters ?omit_left
         ~policy:Mc.Serial.All_subsets ~alive ~crashes_left ())
  in
  (* 1 no-act + 3 culprits x (2^2 - 1) non-empty target sets *)
  check_int "send-omit branching" 10
    (count ~faults:Sim.Model.Send_omit_only ~omit_left:1 ~crashes_left:0 ());
  check_int "recv-omit branching" 10
    (count ~faults:Sim.Model.Recv_omit_only ~omit_left:1 ~crashes_left:0 ());
  (* mixed adds the crash-only branching (3 victims x 2^2 receiver sets)
     and both omission classes *)
  check_int "mixed branching" 31
    (count ~faults:Sim.Model.Mixed ~omit_left:1 ~crashes_left:1 ());
  (* budget spent: only the declared culprit may re-offend (for free) *)
  check_int "declared culprit re-offends" 4
    (count ~faults:Sim.Model.Send_omit_only
       ~send_omitters:(Pid.Set.of_ints [ 1 ])
       ~omit_left:0 ~crashes_left:0 ());
  (* Crash_only ignores any omission budget *)
  check_int "crash-only unchanged" 13
    (count ~faults:Sim.Model.Crash_only ~omit_left:1 ~crashes_left:1 ())

(* The e13 anchor numbers: FloodSet n=4 t=1 breaks under send-omissions
   (its crash-free-round argument fails without a crash being spent)
   while A(t+2) stays safe with its decision interval stretched past t+2
   — and every executor, reduced or not, reports the same result
   bit-identically. *)
let test_omission_sweep_determinism () =
  List.iter
    (fun (algo, name, expect_viol, expect_min, expect_max) ->
      let config = c41 in
      let proposals = Sim.Runner.distinct_proposals config in
      let faults = Sim.Model.Send_omit_only in
      let s = Mc.Exhaustive.sweep ~faults ~algo ~config ~proposals () in
      check_executors name s (fixed_spec ~faults ~algo config);
      check_executors (name ^ " dedup") s
        (fixed_spec ~faults ~reduce:Mc.Sweep.Dedup ~algo config);
      check_int (name ^ ": runs") 253 s.Mc.Exhaustive.runs;
      check_int (name ^ ": violations") expect_viol
        (List.length s.Mc.Exhaustive.violations);
      check_int (name ^ ": min decision") expect_min
        s.Mc.Exhaustive.min_decision;
      check_int (name ^ ": max decision") expect_max
        s.Mc.Exhaustive.max_decision)
    [
      (floodset, "floodset send-omit", 8, 2, 2);
      (at2, "at2 send-omit", 0, 3, 7);
    ]

(* Every schedule an omission sweep enumerates validates, carries the
   sweep's explicit budget, and a violation witness replays to the same
   violation outside the sweep. *)
let test_omission_sweep_witnesses_replay () =
  let faults = Sim.Model.Mixed in
  let proposals = Sim.Runner.distinct_proposals c41 in
  let r = sweep (fixed_spec ~faults ~algo:floodset c41) in
  check_bool "mixed menu finds violations" true
    (r.Mc.Exhaustive.violations <> []);
  let budget = Mc.Serial.budget_of ~faults c41 in
  List.iter
    (fun (choices, violations) ->
      let s = Mc.Serial.to_schedule ?budget c41 choices in
      assert_valid c41 s;
      check_bool "witness carries the budget" true
        (Sim.Schedule.budget s = budget);
      let replayed =
        Sim.Props.check (Sim.Runner.run floodset c41 ~proposals s)
      in
      check_bool "witness replays its violations" true (violations = replayed))
    r.Mc.Exhaustive.violations

(* Crash-only sweeps are bit-compatible with the pre-omission enumerator:
   passing the menu explicitly changes nothing, and no budget is attached
   to the schedules. *)
let test_crash_only_bit_compat () =
  let default_ = sweep (fixed_spec ~algo:floodset c41) in
  let explicit =
    sweep
      (fixed_spec ~faults:Sim.Model.Crash_only ~omit_budget:3 ~algo:floodset
         c41)
  in
  check_bool "explicit Crash_only == default" true
    (result_equal default_ explicit);
  check_bool "crash-only carries no budget" true
    (Mc.Serial.budget_of ~faults:Sim.Model.Crash_only c41 = None)

(* Wall-clock deadlines: a deadline already in the past yields a partial
   result flagged [expired]; a generous one changes nothing. *)
let test_sweep_deadline_expiry () =
  let proposals = Sim.Runner.distinct_proposals c41 in
  let past () = Unix.gettimeofday () -. 1.0 in
  let spec = fixed_spec ~algo:floodset c41 in
  let expired = sweep_outcome ~deadline:(past ()) spec in
  check_bool "past deadline expires" true expired.result.expired;
  check_bool "and is partial" true expired.partial;
  check_bool "partial accounting only" true (expired.result.runs < 253);
  let plain = sweep spec in
  let future =
    (sweep_outcome ~deadline:(Unix.gettimeofday () +. 3600.0) spec).result
  in
  check_bool "future deadline does not expire" false
    future.Mc.Exhaustive.expired;
  check_bool "future deadline == no deadline" true (result_equal plain future);
  (* every executor and reduction shares the expiry flag *)
  List.iter
    (fun (tag, exec, spec) ->
      check_bool (tag ^ " expires too") true
        (sweep_outcome ~exec ~deadline:(past ()) spec).result.expired)
    [
      ("dedup", Mc.Sweep.Domains 1, fixed_spec ~reduce:Mc.Sweep.Dedup ~algo:floodset c41);
      ("parallel", Mc.Sweep.Domains 2, spec);
    ];
  (* and the DFS kernels stop at the next leaf once a task is under way *)
  let cut, _ =
    Mc.Exhaustive.sweep_prefix ~algo:floodset ~config:c41 ~proposals ()
      ~deadline:(past ()) []
  in
  check_bool "unreduced DFS expires mid-task" true cut.Mc.Exhaustive.expired;
  (* a staged sweep cut short starts its next call on a fresh arena, and
     reusing one for every first-round subtree changes no result; mixed
     faults stretch A(t+2)'s decision rounds, so a stale arena shows *)
  let faults = Sim.Model.Mixed in
  let stage () =
    Mc.Exhaustive.sweep_prefix ~faults ~algo:at2 ~config:c41 ~proposals ()
  in
  let staged = stage () in
  ignore (staged ~deadline:(past ()) []);
  let fresh prefix = fst (stage () prefix) in
  check_bool "staged sweep after expiry == fresh" true
    (result_equal (fresh []) (fst (staged [])));
  List.iter
    (fun first ->
      check_bool "staged subtree == fresh" true
        (result_equal (fresh [ first ]) (fst (staged [ first ]))))
    (List.rev (Mc.Dedup.first_choices ~faults c41));
  let cut, _ =
    Mc.Dedup.sweep_sharded ~deadline:(past ()) ~algo:floodset ~config:c41
      ~menu:(Mc.Menu.create ~policy:Mc.Serial.Prefixes c41) ~proposals ()
  in
  check_bool "dedup DFS expires mid-task" true cut.Mc.Exhaustive.expired

(* ------------------------------------------------------------------ *)
(* Fault containment                                                   *)

(* A raising on_receive is contained as a per-run crashed record — under
   the per-leaf sweep and every executor, bit-identically, with full
   pid/round context. *)
let test_sweep_contains_step_errors () =
  let algo = Fuzz.Faulty.raising ~at:2 in
  let proposals = Sim.Runner.distinct_proposals c31 in
  let s = Mc.Exhaustive.sweep ~algo ~config:c31 ~proposals ~horizon:2 () in
  check_bool "every run crashed" true
    (List.length s.Mc.Exhaustive.crashed = s.Mc.Exhaustive.runs);
  check_bool "some runs" true (s.Mc.Exhaustive.runs > 0);
  (match s.Mc.Exhaustive.crashed with
  | { Mc.Exhaustive.error; _ } :: _ ->
      check_int "faulting round" 2 (Round.to_int error.Sim.Engine.round);
      check_bool "algorithm name" true (error.Sim.Engine.algorithm = "Raising@2");
      check_bool "reason mentions the fault" true
        (contains error.Sim.Engine.reason "injected fault")
  | [] -> Alcotest.fail "expected crashed runs");
  check_executors "crashed included" s (fixed_spec ~horizon:2 ~algo c31)

(* An exception outside the engine's containment (raising init) must
   surface as per-task failures with task context — the same list under
   every executor, never persisted to a checkpoint — while the merged
   result still arrives. *)
let test_parallel_shard_failures () =
  let spec = fixed_spec ~horizon:2 ~algo:Fuzz.Faulty.raising_init c31 in
  let outcomes = in_process_outcomes spec in
  let reference = (snd (List.hd outcomes)).Mc.Sweep.result.shard_failures in
  check_bool "every shard failed" true
    (List.length reference = Mc.Sweep.total_tasks spec);
  List.iteri
    (fun i (f : Mc.Exhaustive.shard_failure) ->
      check_int "shards reported in order" i f.Mc.Exhaustive.shard;
      check_bool "context describes the subproblem" true
        (f.Mc.Exhaustive.context <> "");
      check_bool "message kept" true
        (contains f.Mc.Exhaustive.message "injected init fault"))
    reference;
  List.iter
    (fun (ex, (o : Mc.Sweep.outcome)) ->
      check_int (ex ^ ": no run completed") 0 o.result.runs;
      check_bool (ex ^ ": same failures") true
        (o.result.shard_failures = reference);
      check_bool (ex ^ ": failed tasks never persisted") true
        (o.completed = []))
    outcomes;
  (* A healthy sweep reports no shard failures. *)
  let ok = sweep ~exec:(Mc.Sweep.Domains 4) (fixed_spec ~algo:floodset c31) in
  check_bool "healthy sweep has none" true
    (ok.Mc.Exhaustive.shard_failures = [])

(* ------------------------------------------------------------------ *)
(* Valency                                                             *)

let ones_proposals cfg =
  Sim.Runner.binary_proposals cfg
    ~ones:(Pid.Set.of_ints (Listx.range 2 (Config.n cfg)))

let test_valency_univalent_uniform () =
  (* All-zero proposals: validity forces 0-valence. *)
  let proposals =
    Sim.Runner.binary_proposals c31 ~ones:Pid.Set.empty
  in
  check_bool "0-valent" true
    (Mc.Valency.equal Mc.Valency.Zero
       (Mc.Valency.of_partial ~algo:floodset_ws ~config:c31 ~proposals []))

let test_valency_bivalent_initial () =
  match Mc.Valency.bivalent_initial ~algo:floodset_ws ~config:c31 () with
  | None -> Alcotest.fail "Lemma 3: a bivalent initial configuration exists"
  | Some proposals ->
      check_bool "it is bivalent" true
        (Mc.Valency.equal Mc.Valency.Bivalent
           (Mc.Valency.of_partial ~algo:floodset_ws ~config:c31 ~proposals []))

let test_valency_frontier_floodset_ws () =
  (* Lemma 4 gives a bivalent (t-1)-round run; the t-round partials of a
     t+1-decider are univalent. *)
  let k, _ =
    Mc.Valency.frontier ~algo:floodset_ws ~config:c31
      ~proposals:(ones_proposals c31) ()
  in
  check_int "frontier = t-1" 0 k

let test_valency_frontier_at2 () =
  let k, _ =
    Mc.Valency.frontier ~algo:at2 ~config:c31 ~proposals:(ones_proposals c31)
      ()
  in
  check_int "frontier = t-1" 0 k

let test_valency_crash_changes_value () =
  (* (0,1,1): p1 crashing silently at round 1 forces decision 1; quiet runs
     decide 0 -> the empty prefix is bivalent, the one-round prefix where p1
     dies silently is 1-valent. *)
  let proposals = ones_proposals c31 in
  let silent =
    Mc.Serial.Crash { victim = Pid.of_int 1; receivers = Pid.Set.empty }
  in
  check_bool "empty prefix bivalent" true
    (Mc.Valency.equal Mc.Valency.Bivalent
       (Mc.Valency.of_partial ~algo:floodset_ws ~config:c31 ~proposals []));
  check_bool "silent-crash prefix 1-valent" true
    (Mc.Valency.equal Mc.Valency.One
       (Mc.Valency.of_partial ~algo:floodset_ws ~config:c31 ~proposals
          [ silent ]));
  check_bool "no-crash prefix 0-valent" true
    (Mc.Valency.equal Mc.Valency.Zero
       (Mc.Valency.of_partial ~algo:floodset_ws ~config:c31 ~proposals
          [ Mc.Serial.No_crash ]))

(* ------------------------------------------------------------------ *)
(* Attack                                                              *)

let test_witness_breaks_floodset_ws () =
  List.iter
    (fun (n, t) ->
      let cfg = config ~n ~t in
      let r = Mc.Attack.floodset_ws_witness cfg in
      check_bool
        (Printf.sprintf "violation at n=%d t=%d" n t)
        true
        (List.exists
           (function Sim.Props.Agreement _ -> true | _ -> false)
           r.Mc.Attack.violations))
    [ (3, 1); (4, 1); (5, 2); (7, 3); (9, 4) ]

let test_witness_schedule_shape () =
  let s = Mc.Attack.witness_schedule c52 in
  assert_valid c52 s;
  check_bool "asynchronous" false (Sim.Schedule.synchronous s);
  (* t-1 chain crashes plus the final crash *)
  check_int "crashes" 2 (Sim.Schedule.crash_count s);
  check_bool "p_t stays correct" true
    (Sim.Schedule.crash_round s (Pid.of_int 2) = None)

let test_solo_split_breaks_floodset () =
  let r = Mc.Attack.run_solo_split floodset c52 in
  check_bool "violated" true (r.Mc.Attack.violations <> [])

(* Section 1.4: the attack transfers to the DLS basic round model with the
   isolating messages lost instead of delayed. *)
let test_solo_split_dls () =
  let s = Mc.Attack.solo_split_dls c52 in
  assert_valid c52 s;
  check_bool "DLS model" true
    (Sim.Model.equal (Sim.Schedule.model s) Sim.Model.Dls_basic);
  check_bool "no delayed messages at all" true
    (List.for_all
       (fun (p : Sim.Schedule.plan) -> p.Sim.Schedule.delayed = [])
       (Sim.Schedule.plans s));
  let r = Mc.Attack.run_solo_split_dls floodset_ws c52 in
  check_bool "FloodSetWS violated in DLS" true (r.Mc.Attack.violations <> []);
  let r2 = Mc.Attack.run_solo_split_dls floodset c52 in
  check_bool "FloodSet violated in DLS" true (r2.Mc.Attack.violations <> [])

let test_dls_model_rules () =
  (* Delays are never legal in the DLS basic model; arbitrary pre-gst losses
     are. *)
  let dls ~gst plans =
    Sim.Schedule.make ~model:Sim.Model.Dls_basic ~gst:(Round.of_int gst) plans
  in
  let lost_plan =
    {
      Sim.Schedule.crashes = [];
      lost = [ (Pid.of_int 1, Pid.of_int 2) ];
      delayed = [];
    }
  in
  let delayed_plan =
    {
      Sim.Schedule.crashes = [];
      lost = [];
      delayed = [ (Pid.of_int 1, Pid.of_int 2, Round.of_int 3) ];
    }
  in
  assert_valid c52 (dls ~gst:2 [ lost_plan ]);
  assert_invalid c52 (dls ~gst:1 [ lost_plan ]);
  assert_invalid c52 (dls ~gst:4 [ delayed_plan ])

let test_survivors () =
  List.iter
    (fun algo ->
      let r1 = Mc.Attack.run_witness algo c52 in
      let r2 = Mc.Attack.run_solo_split algo c52 in
      check_bool "witness survived" true (r1.Mc.Attack.violations = []);
      check_bool "solo split survived" true (r2.Mc.Attack.violations = []))
    [ at2; at2_opt; a_ds; hr; ct ]

let test_search_finds_floodset_violation () =
  let proposals = ones_proposals c52 in
  match
    Mc.Attack.search ~samples:300 ~seed:5 ~algo:floodset ~config:c52
      ~proposals ()
  with
  | Some r -> check_bool "violations recorded" true (r.Mc.Attack.violations <> [])
  | None -> Alcotest.fail "random search should break FloodSet in ES"

(* The five-run construction of Claim 5.1 (Fig. 1): every proof obligation
   holds against the canonical t+1-round algorithm, at every resilience. *)
let test_figure1_against_floodset_ws () =
  List.iter
    (fun (n, t) ->
      let o = Mc.Figure1.against_floodset_ws (config ~n ~t) in
      List.iter
        (fun (r : Mc.Figure1.relation) ->
          check_bool
            (Printf.sprintf "(n=%d,t=%d) %s" n t r.description)
            true r.holds)
        o.Mc.Figure1.relations;
      check_bool "agreement violated" true o.Mc.Figure1.agreement_violated;
      check_bool "all_hold" true (Mc.Figure1.all_hold o))
    [ (3, 1); (4, 1); (5, 2); (7, 3); (9, 4) ]

(* Against the indulgent algorithm the same five runs produce no violation:
   A(t+2) does not decide at t+1, so the contradiction never materialises. *)
let test_figure1_against_at2 () =
  let module F = Mc.Figure1.Make (Indulgent.At_plus_2.Standard) in
  let o = F.run (config ~n:5 ~t:2) in
  check_bool "no agreement violation" false o.Mc.Figure1.agreement_violated;
  check_bool "Q does not decide both values" true
    (not
       (o.Mc.Figure1.q_decision_a1 = Some Kernel.Value.one
       && o.Mc.Figure1.q_decision_a0 = Some Kernel.Value.zero))

let test_search_clean_for_at2 () =
  let proposals = ones_proposals c31 in
  check_bool "no violation found" true
    (Mc.Attack.search ~samples:120 ~seed:5 ~algo:at2 ~config:c31 ~proposals ()
    = None)

(* ------------------------------------------------------------------ *)
(* Codec: canonical JSON for everything a worker ships or a checkpoint
   stores — the wire format and the snapshot format are the same bytes,
   so one round-trip suite covers both.                                 *)

let json_eq a b = String.equal (Obs.Json.to_string a) (Obs.Json.to_string b)

let pid_set_of_mask mask =
  Pid.Set.of_ints
    (List.filter (fun i -> mask land (1 lsl (i - 1)) <> 0) [ 1; 2; 3; 4; 5 ])

let arb_choice =
  QCheck.map
    (fun (kind, who, mask) ->
      let pid = Pid.of_int (1 + who) in
      let set = pid_set_of_mask mask in
      match kind with
      | 0 -> Mc.Serial.No_crash
      | 1 -> Mc.Serial.Crash { victim = pid; receivers = set }
      | 2 -> Mc.Serial.Send_omit { culprit = pid; dropped = set }
      | _ -> Mc.Serial.Recv_omit { culprit = pid; dropped = set })
    QCheck.(triple (int_range 0 3) (int_range 0 4) (int_range 0 31))

(* Sets decode to the same set but not necessarily the same tree shape, so
   the property is a fixpoint on the canonical encoding. *)
let prop_codec_choice_roundtrip =
  qtest ~count:200 "choice codec round-trip" arb_choice (fun c ->
      match Mc.Codec.choice_of_json (Mc.Codec.choice_to_json c) with
      | Error msg -> QCheck.Test.fail_reportf "decode failed: %s" msg
      | Ok c' -> json_eq (Mc.Codec.choice_to_json c) (Mc.Codec.choice_to_json c'))

let arb_violation =
  QCheck.map
    (fun (kind, a, b, mask) ->
      let pid i = Pid.of_int (1 + (i mod 5)) in
      let undecided =
        List.filter (fun i -> mask land (1 lsl (i - 1)) <> 0) [ 1; 2; 3; 4; 5 ]
        |> List.map Pid.of_int
      in
      match kind with
      | 0 -> Sim.Props.Validity { pid = pid a; value = Value.of_int b }
      | 1 ->
          Sim.Props.Agreement
            {
              pid_a = pid a;
              value_a = Value.of_int a;
              pid_b = pid b;
              value_b = Value.of_int b;
            }
      | 2 -> Sim.Props.Termination { undecided }
      | _ -> Sim.Props.Unsettled { undecided })
    QCheck.(quad (int_range 0 3) (int_range 0 4) (int_range 0 4) (int_range 0 31))

let prop_codec_violation_roundtrip =
  qtest ~count:200 "violation codec round-trip" arb_violation (fun v ->
      match Mc.Codec.violation_of_json (Mc.Codec.violation_to_json v) with
      | Error msg -> QCheck.Test.fail_reportf "decode failed: %s" msg
      | Ok v' -> v' = v)

let arb_step_error =
  QCheck.map
    (fun (algorithm, reason, p, r) ->
      {
        Sim.Engine.algorithm;
        pid = Pid.of_int (1 + p);
        round = Round.of_int (1 + r);
        reason;
      })
    QCheck.(quad string_printable string_printable (int_range 0 4) (int_range 0 8))

let prop_codec_step_error_roundtrip =
  qtest ~count:200 "step_error codec round-trip" arb_step_error (fun e ->
      Mc.Codec.step_error_of_json (Mc.Codec.step_error_to_json e) = Ok e)

let test_codec_stats_roundtrip () =
  let s =
    {
      Mc.Dedup.hits = 12;
      misses = 5;
      entries = 7;
      edges = 999;
      spilled = 3;
      snapshots = 41;
      restores = 29;
    }
  in
  check_bool "stats round-trip" true
    (Mc.Codec.stats_of_json (Mc.Codec.stats_to_json s) = Ok s);
  (* Checkpoints written before the arena counters existed decode with
     both counters at 0. *)
  let legacy =
    Obs.Json.Obj
      [
        ("hits", Obs.Json.Int 1);
        ("misses", Obs.Json.Int 2);
        ("entries", Obs.Json.Int 3);
        ("edges", Obs.Json.Int 4);
        ("spilled", Obs.Json.Int 0);
      ]
  in
  check_bool "legacy stats decode" true
    (Mc.Codec.stats_of_json legacy
    = Ok
        {
          Mc.Dedup.hits = 1;
          misses = 2;
          entries = 3;
          edges = 4;
          spilled = 0;
          snapshots = 0;
          restores = 0;
        })

(* Real sweep results — the fixtures deliberately include an algorithm
   that violates agreement and one that raises mid-run, so the codec is
   exercised on populated violation lists, witnesses and crashed runs. *)
let test_codec_result_roundtrip () =
  List.iter
    (fun (algo, name, n, t) ->
      let config = config ~n ~t in
      let r = sweep (fixed_spec ~algo config) in
      match Mc.Codec.result_of_json (Mc.Codec.result_to_json r) with
      | Error msg -> Alcotest.fail (name ^ ": " ^ msg)
      | Ok r' ->
          check_bool (name ^ ": decoded result is bit-identical") true
            (result_equal r r');
          check_bool (name ^ ": codec equality agrees") true
            (Mc.Codec.result_equal r r'))
    reduction_fixtures

(* ------------------------------------------------------------------ *)
(* Checkpoint: versioned snapshots and their pinned failure modes       *)

let entry_equal (a : Mc.Checkpoint.entry) (b : Mc.Checkpoint.entry) =
  a.task = b.task && a.edges = b.edges && a.stats = b.stats
  && Mc.Codec.result_equal a.result b.result

let dedup_spec ?faults ?omit_budget ?table_cap ?spill_dir config =
  fixed_spec ?faults ?omit_budget ?table_cap ?spill_dir
    ~reduce:Mc.Sweep.Dedup ~algo:floodset config

let test_checkpoint_roundtrip () =
  with_temp_file @@ fun path ->
  let params = Obs.Json.Obj [ ("test", Obs.Json.String "ckpt-roundtrip") ] in
  let full = sweep_outcome (dedup_spec c41) in
  check_bool "fixture produced entries" true (full.completed <> []);
  let t =
    {
      Mc.Checkpoint.commit = "deadbeef";
      params;
      total_tasks = full.total_tasks;
      completed = full.completed;
    }
  in
  Mc.Checkpoint.save ~path t;
  match Mc.Checkpoint.load ~path with
  | Error e ->
      Alcotest.fail (Format.asprintf "%a" Mc.Checkpoint.pp_load_error e)
  | Ok t' ->
      check_string "commit survives" "deadbeef" t'.Mc.Checkpoint.commit;
      check_bool "params survive canonically" true
        (json_eq params t'.Mc.Checkpoint.params);
      check_int "total_tasks survives" t.Mc.Checkpoint.total_tasks
        t'.Mc.Checkpoint.total_tasks;
      check_int "entry count survives"
        (List.length t.Mc.Checkpoint.completed)
        (List.length t'.Mc.Checkpoint.completed);
      List.iter2
        (fun a b -> check_bool "entry bit-identical" true (entry_equal a b))
        t.Mc.Checkpoint.completed t'.Mc.Checkpoint.completed;
      check_bool "compatible with its own params" true
        (Mc.Checkpoint.compatible t' ~params = Ok ())

let load_error name path =
  match Mc.Checkpoint.load ~path with
  | Ok _ -> Alcotest.fail (name ^ ": expected a load error")
  | Error e -> (e, Format.asprintf "%a" Mc.Checkpoint.pp_load_error e)

let test_checkpoint_load_errors () =
  let e, msg = load_error "missing" "/nonexistent/ipi.ckpt" in
  check_bool "missing file is Unreadable" true
    (match e with Mc.Checkpoint.Unreadable _ -> true | _ -> false);
  check_bool "missing-file message pinned" true
    (contains msg "checkpoint: cannot read file");
  with_temp_file @@ fun path ->
  let is_malformed = function Mc.Checkpoint.Malformed _ -> true | _ -> false in
  Obs.Artifact.write_string path "not json {";
  let e, msg = load_error "garbage" path in
  check_bool "garbage is Malformed" true (is_malformed e);
  check_bool "malformed message pinned" true
    (contains msg "checkpoint: malformed or truncated file");
  Obs.Artifact.write_string path "{\"not\":\"a checkpoint\"}";
  let e, _ = load_error "wrong shape" path in
  check_bool "JSON without the format marker is Malformed" true (is_malformed e);
  (* a half-written file: valid snapshot cut mid-byte *)
  let params = Obs.Json.Obj [ ("test", Obs.Json.String "ckpt-errors") ] in
  let full = sweep_outcome (dedup_spec c31) in
  let snapshot =
    {
      Mc.Checkpoint.commit = "c";
      params;
      total_tasks = full.total_tasks;
      completed = full.completed;
    }
  in
  Mc.Checkpoint.save ~path snapshot;
  let whole = In_channel.with_open_bin path In_channel.input_all in
  Obs.Artifact.write_string path (String.sub whole 0 (String.length whole / 2));
  let e, _ = load_error "truncated" path in
  check_bool "truncated file is Malformed, never an exception" true
    (is_malformed e);
  (* the version gate fires before any other field is even looked at *)
  Obs.Artifact.write_string path
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("format", Obs.Json.String "ipi-checkpoint");
            ("version", Obs.Json.Int 99);
          ]));
  let e, msg = load_error "future version" path in
  check_bool "future version is Unknown_version" true
    (e = Mc.Checkpoint.Unknown_version 99);
  check_string "version message pinned"
    (Printf.sprintf
       "checkpoint: unknown format version 99 (this build reads version %d)"
       Mc.Checkpoint.version)
    msg;
  (* hand-edited task lists are refused rather than merged *)
  let entry = List.hd full.completed in
  let forged completed total =
    Obs.Artifact.write_string path
      (Obs.Json.to_string
         (Obs.Json.Obj
            [
              ("format", Obs.Json.String "ipi-checkpoint");
              ("version", Obs.Json.Int Mc.Checkpoint.version);
              ("commit", Obs.Json.String "c");
              ("params", params);
              ("total_tasks", Obs.Json.Int total);
              ( "completed",
                Obs.Json.List (List.map Mc.Checkpoint.entry_to_json completed)
              );
            ]))
  in
  let at task = { entry with Mc.Checkpoint.task } in
  forged [ at 0; at 0 ] 2;
  let e, msg = load_error "duplicate tasks" path in
  check_bool "duplicate task indices are Malformed" true (is_malformed e);
  check_bool "duplicate message names the problem" true
    (contains msg "not ascending");
  forged [ at 5 ] 2;
  let e, msg = load_error "out of range" path in
  check_bool "out-of-range task index is Malformed" true (is_malformed e);
  check_bool "range message names the problem" true
    (contains msg "out of range")

(* ------------------------------------------------------------------ *)
(* Crash-safe drivers: checkpoint, interrupt, resume — bit-identical    *)

(* Interrupt after four tasks (deterministically, via the should_stop
   poll), checkpoint every task, reload, resume under each in-process
   executor, and demand the resumed aggregates equal an undisturbed run
   on every field. *)
let serial_resume_cycle name spec =
  with_temp_file @@ fun path ->
  let full = sweep_outcome spec in
  check_bool (name ^ ": undisturbed run completes") false full.partial;
  check_bool
    (name ^ ": fixture has enough tasks to interrupt")
    true (full.total_tasks > 5);
  let polls = ref 0 in
  let should_stop () =
    incr polls;
    !polls > 4
  in
  let part = sweep_outcome ~checkpoint:(path, 1) ~should_stop spec in
  check_bool (name ^ ": interrupted run reports PARTIAL") true part.partial;
  check_int (name ^ ": exactly four tasks persisted") 4
    (List.length part.completed);
  let ck = load_checkpoint path in
  check_int (name ^ ": checkpoint holds the persisted tasks") 4
    (List.length ck.Mc.Checkpoint.completed);
  List.iter
    (fun jobs ->
      let tag = Printf.sprintf "%s jobs=%d" name jobs in
      let resumed =
        sweep_outcome ~resume:ck ~exec:(Mc.Sweep.Domains jobs) spec
      in
      check_bool (tag ^ ": resumed run completes") false resumed.partial;
      check_bool
        (tag ^ ": aggregates bit-identical after resume")
        true
        (result_equal full.result resumed.result);
      check_bool (tag ^ ": reduction stats identical") true
        (full.stats = resumed.stats);
      check_int (tag ^ ": edge counts identical") full.edges resumed.edges)
    [ 1; 2 ]

let test_serial_resume_crash_dedup () =
  serial_resume_cycle "crash/dedup" (dedup_spec c41)

let test_serial_resume_crash_unreduced () =
  serial_resume_cycle "crash/unreduced" (fixed_spec ~algo:floodset c41)

let test_serial_resume_mixed_faults () =
  serial_resume_cycle "mixed/dedup"
    (dedup_spec ~faults:Sim.Model.Mixed ~omit_budget:1 c31)

let test_serial_resume_binary_scope () =
  serial_resume_cycle "binary/dedup"
    (binary_spec ~reduce:Mc.Sweep.Dedup ~algo:floodset c41);
  (* n = 5: six orbit tasks, enough to interrupt after four *)
  serial_resume_cycle "binary/dedup+sym"
    (binary_spec ~reduce:Mc.Sweep.Dedup_sym ~algo:floodset c52)

(* The --budget expiry path: a deadline already in the past stops the
   sweep before any task runs, still flushes a (resumable) checkpoint. *)
let test_serial_deadline_checkpoint_resume () =
  with_temp_file @@ fun path ->
  let spec = dedup_spec c41 in
  let full = sweep_outcome spec in
  let part =
    sweep_outcome ~checkpoint:(path, 1)
      ~deadline:(Unix.gettimeofday () -. 1.)
      spec
  in
  check_bool "expired budget reports PARTIAL" true part.partial;
  check_int "nothing ran, nothing persisted" 0 (List.length part.completed);
  let resumed = sweep_outcome ~resume:(load_checkpoint path) spec in
  check_bool "resume from an empty checkpoint is the full sweep" true
    (result_equal full.result resumed.result)

(* A checkpoint can never silently seed a different sweep. *)
let test_resume_validation_errors () =
  let spec = dedup_spec c31 in
  let params = Mc.Sweep.params spec in
  let total = Mc.Sweep.total_tasks spec in
  let resume params total_tasks =
    Mc.Sweep.run
      ~resume:{ Mc.Checkpoint.commit = "c"; params; total_tasks; completed = [] }
      spec (Mc.Sweep.Domains 1)
  in
  (match resume (Mc.Sweep.params (dedup_spec c41)) total with
  | Ok _ -> Alcotest.fail "foreign params must be refused"
  | Error msg ->
      check_bool "params mismatch is named" true (contains msg "parameter mismatch"));
  match resume params (total + 1) with
  | Ok _ -> Alcotest.fail "wrong task count must be refused"
  | Error msg ->
      check_bool "task count mismatch is named" true
        (contains msg "task count mismatch")

(* The driver against the classic per-leaf sweeps, and against the
   binary entry points the repository benchmark times: with no
   interruption they must agree bit for bit, stats included. *)
let test_distrib_serial_matches_classic_drivers () =
  let config = c41 in
  let proposals = Sim.Runner.distinct_proposals config in
  let classic = Mc.Exhaustive.sweep ~algo:floodset ~config ~proposals () in
  check_bool "fixed/unreduced == per-leaf sweep" true
    (result_equal classic (sweep (fixed_spec ~algo:floodset config)));
  check_bool "fixed/dedup == per-leaf sweep" true
    (result_equal classic (sweep (dedup_spec config)));
  let classic_bin = Mc.Exhaustive.sweep_binary ~algo:floodset ~config () in
  let none = sweep_outcome (binary_spec ~algo:floodset config) in
  check_bool "binary/unreduced == per-leaf binary sweep" true
    (result_equal classic_bin none.result);
  check_bool "sweep_binary_incremental == binary/unreduced" true
    (Mc.Exhaustive.sweep_binary_incremental ~algo:floodset ~config ()
    = none.result);
  let dedup =
    sweep_outcome (binary_spec ~reduce:Mc.Sweep.Dedup ~algo:floodset config)
  in
  let r, stats = Mc.Dedup.sweep_binary ~algo:floodset ~config () in
  check_bool "Dedup.sweep_binary == binary/dedup, stats included" true
    (r = dedup.result && Some stats = dedup.stats)

(* Out-of-core dedup: capping the table and spilling to disk must change
   memory behaviour only — same aggregates, same lookup profile, and
   every key accounted for either in memory or on disk. *)
let test_spill_equivalence () =
  with_temp_dir @@ fun dir ->
  let full = sweep_outcome (dedup_spec c52) in
  let spilled = sweep_outcome (dedup_spec ~table_cap:16 ~spill_dir:dir c52) in
  check_bool "spilling sweep is bit-identical" true
    (result_equal full.result spilled.result);
  (match (full.stats, spilled.stats) with
  | Some a, Some b ->
      check_bool "cap actually forced spilling" true (b.Mc.Dedup.spilled > 0);
      check_int "resident + spilled = uncapped entries" a.Mc.Dedup.entries
        (b.Mc.Dedup.entries + b.Mc.Dedup.spilled);
      check_int "lookup profile unchanged"
        (a.Mc.Dedup.hits + a.Mc.Dedup.misses)
        (b.Mc.Dedup.hits + b.Mc.Dedup.misses)
  | _ -> Alcotest.fail "dedup sweeps must report stats");
  (* no spill_dir: overflow entries are dropped, which may cost repeat
     work but never changes the answer *)
  let dropped = sweep_outcome (dedup_spec ~table_cap:16 c52) in
  check_bool "dropping sweep is bit-identical" true
    (result_equal full.result dropped.result)

let () =
  Alcotest.run "mc"
    [
      ( "serial",
        [
          Alcotest.test_case "choices" `Quick test_serial_choices;
          Alcotest.test_case "enumerate count" `Quick test_serial_enumerate_count;
          Alcotest.test_case "count closed form" `Quick
            test_serial_count_closed_form;
          Alcotest.test_case "to_schedule" `Quick test_serial_to_schedule;
          prop_serial_schedules_valid;
        ] );
      ( "exhaustive",
        [
          Alcotest.test_case "floodset t+1" `Quick test_exhaustive_floodset;
          Alcotest.test_case "at2 exactly t+2" `Slow test_exhaustive_at2;
          Alcotest.test_case "sweep determinism" `Quick test_sweep_determinism;
          Alcotest.test_case "binary sweep determinism" `Quick
            test_sweep_binary_determinism;
        ] );
      ( "reduction",
        [
          Alcotest.test_case "dedup == unreduced (all fixtures, both \
                              policies)" `Quick test_dedup_equivalence;
          prop_dedup_equivalent_on_random_proposals;
          Alcotest.test_case "symmetry aggregates == unreduced" `Slow
            test_symmetry_equivalence;
          Alcotest.test_case "orbit arithmetic" `Quick test_symmetry_orbits;
          Alcotest.test_case "asymmetric algorithms fall back to dedup" `Quick
            test_symmetry_asymmetric_fallback;
          Alcotest.test_case "reduced sweeps deterministic across jobs" `Quick
            test_reduced_jobs_determinism;
          Alcotest.test_case "serial omission choices" `Quick
            test_serial_omission_choices;
          Alcotest.test_case "omission sweep determinism" `Quick
            test_omission_sweep_determinism;
          Alcotest.test_case "omission witnesses replay" `Quick
            test_omission_sweep_witnesses_replay;
          Alcotest.test_case "crash-only bit compatibility" `Quick
            test_crash_only_bit_compat;
          Alcotest.test_case "sweep deadline expiry" `Quick
            test_sweep_deadline_expiry;
          Alcotest.test_case "A(t+2) = t+2 under reduction" `Quick
            test_at2_reduced_t_plus_2;
        ] );
      ( "containment",
        [
          Alcotest.test_case "step errors contained in all drivers" `Quick
            test_sweep_contains_step_errors;
          Alcotest.test_case "shard failures surface, pool survives" `Quick
            test_parallel_shard_failures;
        ] );
      ( "valency",
        [
          Alcotest.test_case "uniform is univalent" `Quick test_valency_univalent_uniform;
          Alcotest.test_case "Lemma 3" `Quick test_valency_bivalent_initial;
          Alcotest.test_case "frontier FloodSetWS" `Quick test_valency_frontier_floodset_ws;
          Alcotest.test_case "frontier A(t+2)" `Quick test_valency_frontier_at2;
          Alcotest.test_case "crash flips valency" `Quick test_valency_crash_changes_value;
        ] );
      ( "attack",
        [
          Alcotest.test_case "witness breaks FloodSetWS" `Quick test_witness_breaks_floodset_ws;
          Alcotest.test_case "witness shape" `Quick test_witness_schedule_shape;
          Alcotest.test_case "solo split breaks FloodSet" `Quick test_solo_split_breaks_floodset;
          Alcotest.test_case "solo split in DLS (Section 1.4)" `Quick test_solo_split_dls;
          Alcotest.test_case "DLS model rules" `Quick test_dls_model_rules;
          Alcotest.test_case "indulgent algorithms survive" `Quick test_survivors;
          Alcotest.test_case "search finds FloodSet violation" `Quick test_search_finds_floodset_violation;
          Alcotest.test_case "search clean for A(t+2)" `Quick test_search_clean_for_at2;
        ] );
      ( "figure1",
        [
          Alcotest.test_case "five runs vs FloodSetWS" `Quick
            test_figure1_against_floodset_ws;
          Alcotest.test_case "five runs vs A(t+2)" `Quick
            test_figure1_against_at2;
        ] );
      ( "codec",
        [
          prop_codec_choice_roundtrip;
          prop_codec_violation_roundtrip;
          prop_codec_step_error_roundtrip;
          Alcotest.test_case "stats round-trip" `Quick
            test_codec_stats_roundtrip;
          Alcotest.test_case "real results round-trip" `Quick
            test_codec_result_roundtrip;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "save/load round-trip" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "load error taxonomy" `Quick
            test_checkpoint_load_errors;
        ] );
      ( "crash-safety",
        [
          Alcotest.test_case "resume crash/dedup" `Quick
            test_serial_resume_crash_dedup;
          Alcotest.test_case "resume crash/unreduced" `Quick
            test_serial_resume_crash_unreduced;
          Alcotest.test_case "resume mixed faults" `Quick
            test_serial_resume_mixed_faults;
          Alcotest.test_case "resume binary scope" `Quick
            test_serial_resume_binary_scope;
          Alcotest.test_case "budget expiry checkpoint" `Quick
            test_serial_deadline_checkpoint_resume;
          Alcotest.test_case "resume validation" `Quick
            test_resume_validation_errors;
          Alcotest.test_case "distrib == classic drivers" `Quick
            test_distrib_serial_matches_classic_drivers;
          Alcotest.test_case "spill equivalence" `Quick
            test_spill_equivalence;
        ] );
    ]
