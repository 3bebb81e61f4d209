open Kernel
open Helpers

(* ------------------------------------------------------------------ *)
(* Envelope / Inbox                                                    *)

let env src sent payload =
  Sim.Envelope.make ~src:(Pid.of_int src) ~sent:(Round.of_int sent) payload

let test_envelope () =
  let e = env 2 3 "m" in
  check_bool "current" true (Sim.Envelope.is_current e ~round:(Round.of_int 3));
  check_bool "late" false (Sim.Envelope.is_current e ~round:(Round.of_int 4));
  check_bool "compare by src" true
    (Sim.Envelope.compare_src (env 1 3 "a") (env 2 3 "b") < 0)

let test_inbox () =
  let round = Round.of_int 2 in
  let inbox = [ env 3 2 "c"; env 1 2 "a"; env 2 1 "late" ] in
  check_int "current count" 2 (Sim.Inbox.count_current inbox ~round);
  check_int "late count" 1 (List.length (Sim.Inbox.late inbox ~round));
  check_bool "senders" true
    (Pid.Set.equal (Sim.Inbox.senders inbox ~round) (Pid.Set.of_ints [ 1; 3 ]));
  check_bool "suspected" true
    (Pid.Set.equal
       (Sim.Inbox.suspected ~n:4 inbox ~round)
       (Pid.Set.of_ints [ 2; 4 ]));
  check_bool "from present" true
    (Sim.Inbox.from inbox ~src:(Pid.of_int 1) ~round = Some "a");
  check_bool "from late is ignored" true
    (Sim.Inbox.from inbox ~src:(Pid.of_int 2) ~round = None)

(* ------------------------------------------------------------------ *)
(* Schedule validation                                                 *)

let plan ?(crashes = []) ?(lost = []) ?(delayed = []) () =
  {
    Sim.Schedule.crashes = List.map Pid.of_int crashes;
    lost = List.map (fun (a, b) -> (Pid.of_int a, Pid.of_int b)) lost;
    delayed =
      List.map
        (fun (a, b, r) -> (Pid.of_int a, Pid.of_int b, Round.of_int r))
        delayed;
  }

let es ~gst plans = Sim.Schedule.make ~model:Sim.Model.Es ~gst:(Round.of_int gst) plans
let scs plans = Sim.Schedule.make ~model:Sim.Model.Scs ~gst:Round.first plans

let c52 = config ~n:5 ~t:2

let test_schedule_valid_cases () =
  assert_valid c52 quiet_es;
  (* crash-round losses are always legal *)
  assert_valid c52 (es ~gst:1 [ plan ~crashes:[ 1 ] ~lost:[ (1, 3); (1, 4) ] () ]);
  (* crash-round delays are legal even in synchronous runs (footnote 5) *)
  assert_valid c52 (es ~gst:1 [ plan ~crashes:[ 1 ] ~delayed:[ (1, 3, 4) ] () ]);
  (* pre-gst delays from correct senders are legal *)
  assert_valid c52 (es ~gst:3 [ plan ~delayed:[ (1, 3, 5) ] () ]);
  (* SCS with crash-round loss *)
  assert_valid c52 (scs [ plan ~crashes:[ 2 ] ~lost:[ (2, 1) ] () ]);
  (* entries towards already-crashed receivers are tolerated *)
  assert_valid c52
    (es ~gst:1
       [
         plan ~crashes:[ 1 ] ();
         plan ~crashes:[ 2 ] ~lost:[ (2, 1); (2, 3) ] ();
       ])

let test_schedule_invalid_cases () =
  (* loss from a sender that does not crash, at/after gst *)
  assert_invalid c52 (es ~gst:1 [ plan ~lost:[ (1, 2) ] () ]);
  (* delay after gst from a non-crashing sender *)
  assert_invalid c52 (es ~gst:1 [ plan ~delayed:[ (1, 2, 3) ] () ]);
  (* SCS never delays *)
  assert_invalid c52 (scs [ plan ~crashes:[ 1 ] ~delayed:[ (1, 2, 3) ] () ]);
  (* a process always receives its own message *)
  assert_invalid c52 (es ~gst:1 [ plan ~crashes:[ 1 ] ~lost:[ (1, 1) ] () ]);
  (* double crash *)
  assert_invalid c52 (es ~gst:1 [ plan ~crashes:[ 1 ] (); plan ~crashes:[ 1 ] () ]);
  (* too many crashes *)
  assert_invalid c52
    (es ~gst:1 [ plan ~crashes:[ 1; 2; 3 ] () ]);
  (* delays must go strictly forward *)
  assert_invalid c52 (es ~gst:4 [ plan ~delayed:[ (1, 2, 1) ] () ]);
  (* two fates for one message *)
  assert_invalid c52
    (es ~gst:1 [ plan ~crashes:[ 1 ] ~lost:[ (1, 2) ] ~delayed:[ (1, 2, 3) ] () ]);
  (* sender already crashed *)
  assert_invalid c52
    (es ~gst:1 [ plan ~crashes:[ 1 ] (); plan ~lost:[ (1, 2) ] () ]);
  (* t-resilience: p5 loses 3 current-round messages, keeps only 2 *)
  assert_invalid c52
    (es ~gst:5 [ plan ~delayed:[ (1, 5, 3); (2, 5, 3); (3, 5, 3) ] () ])

let test_schedule_queries () =
  let s =
    es ~gst:3
      [ plan ~delayed:[ (1, 2, 4) ] (); plan ~crashes:[ 4 ] (); plan () ]
  in
  check_int "horizon" 3 (Sim.Schedule.horizon s);
  check_bool "faulty" true
    (Pid.Set.equal (Sim.Schedule.faulty s) (Pid.Set.of_ints [ 4 ]));
  check_bool "crash_round" true
    (Sim.Schedule.crash_round s (Pid.of_int 4) = Some (Round.of_int 2));
  check_int "crash count" 1 (Sim.Schedule.crash_count s);
  check_int "crashes after r1" 1 (Sim.Schedule.crashes_after s Round.first);
  check_int "crashes after r2" 0
    (Sim.Schedule.crashes_after s (Round.of_int 2));
  check_bool "fate delayed" true
    (Sim.Schedule.fate s ~src:(Pid.of_int 1) ~dst:(Pid.of_int 2)
       ~round:Round.first
    = Sim.Schedule.Delayed_until (Round.of_int 4));
  check_bool "fate default" true
    (Sim.Schedule.fate s ~src:(Pid.of_int 1) ~dst:(Pid.of_int 3)
       ~round:Round.first
    = Sim.Schedule.Same_round);
  check_int "effective gst" 2 (Round.to_int (Sim.Schedule.effective_gst s));
  check_bool "not synchronous" false (Sim.Schedule.synchronous s);
  check_bool "synchronous after 1" true
    (Sim.Schedule.synchronous_after s Round.first)

let test_schedule_effective_gst_sync () =
  (* Crash-round tampering does not make a run asynchronous. *)
  let s = es ~gst:6 [ plan ~crashes:[ 1 ] ~lost:[ (1, 2) ] ~delayed:[ (1, 3, 9) ] () ] in
  check_int "effective gst" 1 (Round.to_int (Sim.Schedule.effective_gst s));
  check_bool "synchronous" true (Sim.Schedule.synchronous s);
  check_bool "failure-free" false (Sim.Schedule.failure_free_synchronous s);
  check_bool "quiet is failure-free" true
    (Sim.Schedule.failure_free_synchronous quiet_es)

(* ------------------------------------------------------------------ *)
(* Omission faults (DESIGN §13)                                        *)

let assert_invalid_msg cfg schedule fragment =
  match Sim.Schedule.validate cfg schedule with
  | Ok () -> Alcotest.fail "schedule should be invalid"
  | Error e ->
      if not (contains e fragment) then
        Alcotest.fail
          (Printf.sprintf "error %S does not mention %S" e fragment)

let es_omit ?budget ~omitters ~gst plans =
  Sim.Schedule.make
    ~omitters:(List.map (fun (p, c) -> (Pid.of_int p, c)) omitters)
    ?budget ~model:Sim.Model.Es ~gst:(Round.of_int gst) plans

let test_schedule_omitters_valid () =
  (* a send-omitter's losses are legal in any round, even at/after gst *)
  assert_valid c52
    (es_omit ~omitters:[ (1, Sim.Model.Send_omit) ] ~gst:1
       [ plan ~lost:[ (1, 3); (1, 4) ] (); plan ~lost:[ (1, 2) ] () ]);
  (* t-resilience is not demanded of a receive-omitter: it may be starved
     below the quorum without leaving the model *)
  assert_valid c52
    (es_omit ~omitters:[ (5, Sim.Model.Recv_omit) ] ~gst:1
       [ plan ~lost:[ (1, 5); (2, 5); (3, 5); (4, 5) ] () ]);
  (* SCS accepts omission losses too: the drop is at the faulty process's
     doorstep, not the network's *)
  assert_valid c52
    (Sim.Schedule.make
       ~omitters:[ (Pid.of_int 2, Sim.Model.Send_omit) ]
       ~model:Sim.Model.Scs ~gst:Round.first
       [ plan ~lost:[ (2, 4) ] () ]);
  (* an explicit budget licenses a crash and an omitter side by side *)
  assert_valid c52
    (es_omit
       ~omitters:[ (2, Sim.Model.Send_omit) ]
       ~budget:(Sim.Model.budget ~t_crash:1 ~t_omit:1)
       ~gst:1
       [ plan ~crashes:[ 1 ] ~lost:[ (1, 3); (2, 4) ] () ])

let test_schedule_omitters_invalid () =
  (* budget soundness: t_crash + t_omit <= t, message pinned *)
  assert_invalid_msg c52
    (es_omit ~omitters:[]
       ~budget:(Sim.Model.budget ~t_crash:2 ~t_omit:1)
       ~gst:1 [])
    "budget 2+1 exceeds t = 2 (soundness: t_crash + t_omit <= t)";
  (* omitter declarations are pid-checked like every other entry *)
  assert_invalid_msg c52
    (es_omit ~omitters:[ (9, Sim.Model.Send_omit) ] ~gst:1 [])
    "send-omitter declaration references p9, outside p1..p5";
  (* more omitters than the declared budget allows *)
  assert_invalid_msg c52
    (es_omit
       ~omitters:[ (1, Sim.Model.Send_omit); (2, Sim.Model.Recv_omit) ]
       ~budget:(Sim.Model.budget ~t_crash:0 ~t_omit:1)
       ~gst:1 [])
    "2 omitters but the budget allows t_omit = 1";
  (* more crashes than the declared budget allows *)
  assert_invalid_msg c52
    (es_omit
       ~omitters:[ (1, Sim.Model.Send_omit) ]
       ~budget:(Sim.Model.budget ~t_crash:0 ~t_omit:1)
       ~gst:1
       [ plan ~crashes:[ 2 ] () ])
    "1 crashes but the budget allows t_crash = 0";
  (* without a budget the distinct faulty set must still fit t *)
  assert_invalid_msg c52
    (es_omit
       ~omitters:[ (3, Sim.Model.Recv_omit) ]
       ~gst:1
       [ plan ~crashes:[ 1; 2 ] () ])
    "3 distinct faulty processes (crashed or omitting) but t = 2";
  (* an unjustified loss still names both ends and the omitter rule *)
  assert_invalid_msg c52
    (es ~gst:1 [ plan ~lost:[ (1, 2) ] () ])
    "neither end is a declared omitter";
  (* a recv-omitter declaration does not license the culprit's outgoing
     losses (nor a send-omitter its incoming ones) *)
  assert_invalid_msg c52
    (es_omit ~omitters:[ (1, Sim.Model.Recv_omit) ] ~gst:1
       [ plan ~lost:[ (1, 2) ] () ])
    "neither end is a declared omitter"

let test_schedule_validate_message_context () =
  (* Other validator refusals carry round/pid/src/dst context too. *)
  assert_invalid_msg c52
    (es ~gst:1 [ plan ~lost:[ (1, 7) ] () ])
    "round 1: lost references p7, outside p1..p5";
  assert_invalid_msg c52
    (es ~gst:1 [ plan ~crashes:[ 1 ] (); plan ~crashes:[ 1 ] () ])
    "p1 crashes twice (second time in round 2)";
  assert_invalid_msg c52
    (es ~gst:1
       [ plan ~crashes:[ 1 ] ~lost:[ (1, 2) ] ~delayed:[ (1, 2, 3) ] () ])
    "round 1: two fates for the message p1 -> p2";
  assert_invalid_msg c52
    (es ~gst:5 [ plan ~delayed:[ (1, 5, 3); (2, 5, 3); (3, 5, 3) ] () ])
    "round 1: p5 receives only 2 current-round messages, t-resilience \
     requires 3"

let test_schedule_omission_queries () =
  let s =
    es_omit
      ~omitters:[ (1, Sim.Model.Send_omit); (4, Sim.Model.Recv_omit) ]
      ~budget:(Sim.Model.budget ~t_crash:0 ~t_omit:2)
      ~gst:1
      [ plan ~lost:[ (1, 2); (3, 4) ] () ]
  in
  assert_valid c52 s;
  check_int "omit count" 2 (Sim.Schedule.omit_count s);
  check_bool "class of p1" true
    (Sim.Schedule.omitter_class s (Pid.of_int 1) = Some Sim.Model.Send_omit);
  check_bool "class of p2" true
    (Sim.Schedule.omitter_class s (Pid.of_int 2) = None);
  check_bool "send omitters" true
    (Pid.Set.equal (Sim.Schedule.send_omitters s) (Pid.Set.of_ints [ 1 ]));
  check_bool "recv omitters" true
    (Pid.Set.equal (Sim.Schedule.recv_omitters s) (Pid.Set.of_ints [ 4 ]));
  check_bool "budget carried" true
    (Sim.Schedule.budget s = Some (Sim.Model.budget ~t_crash:0 ~t_omit:2));
  check_bool "send side justified" true
    (Sim.Schedule.omission_justified s ~src:(Pid.of_int 1) ~dst:(Pid.of_int 3));
  check_bool "recv side justified" true
    (Sim.Schedule.omission_justified s ~src:(Pid.of_int 2) ~dst:(Pid.of_int 4));
  check_bool "correct pair not justified" false
    (Sim.Schedule.omission_justified s ~src:(Pid.of_int 2) ~dst:(Pid.of_int 3));
  (* crashes are faulty; omitters are reported separately *)
  check_bool "faulty excludes omitters" true
    (Pid.Set.is_empty (Sim.Schedule.faulty s));
  (* omission losses do not break synchrony: effective gst stays 1 *)
  check_int "effective gst" 1 (Round.to_int (Sim.Schedule.effective_gst s));
  check_bool "synchronous" true (Sim.Schedule.synchronous s);
  check_bool "but not failure-free" false
    (Sim.Schedule.failure_free_synchronous s)

(* ------------------------------------------------------------------ *)
(* Engine, via a transparent probe algorithm                           *)

(* Echoes the round number; records everything it receives; decides its own
   pid value at round [decide_at]; halts one round later. *)
module Probe = struct
  type msg = Ping of int

  type state = {
    me : Pid.t;
    received : (int * (Pid.t * int) list) list;  (* round -> (src, sent) *)
    decide_at : int;
    decision : Value.t option;
    halted : bool;
  }

  let name = "probe"
  let model = Sim.Model.Es
  let symmetric = false

  let init _config me v =
    {
      me;
      received = [];
      decide_at = 3 + (Value.to_int v * 0);
      decision = None;
      halted = false;
    }

  let on_send _st round = Ping (Round.to_int round)

  let on_receive st round inbox =
    let entries =
      List.map
        (fun (e : msg Sim.Envelope.t) -> (e.src, Round.to_int e.sent))
        inbox
    in
    let st =
      { st with received = (Round.to_int round, entries) :: st.received }
    in
    if st.decision <> None then { st with halted = true }
    else if Round.to_int round >= st.decide_at then
      { st with decision = Some (Value.of_int (Pid.to_int st.me)) }
    else st

  let decision st = st.decision
  let halted st = st.halted
  let wire_size (Ping _) = 4

  let pp_msg ppf (Ping k) = Format.fprintf ppf "ping%d" k
  let pp_state ppf st = Format.fprintf ppf "probe(%a)" Pid.pp st.me
end

module E = Sim.Engine.Make (Probe)

let received_at sys pid round =
  match E.state_of sys (Pid.of_int pid) with
  | None -> []
  | Some st -> (
      match List.assoc_opt round st.Probe.received with
      | Some entries -> entries
      | None -> [])

let start_probe cfg =
  E.start cfg ~proposals:(Sim.Runner.distinct_proposals cfg)

let test_engine_full_delivery () =
  let cfg = config ~n:4 ~t:1 in
  let sys = E.step (start_probe cfg) Sim.Schedule.empty_plan in
  List.iter
    (fun p ->
      check_int
        (Printf.sprintf "p%d receives all in round 1" p)
        4
        (List.length (received_at sys p 1)))
    [ 1; 2; 3; 4 ]

let test_engine_crash_semantics () =
  let cfg = config ~n:4 ~t:1 in
  (* p1 crashes in round 1; only p2 hears it. *)
  let sys =
    E.step (start_probe cfg)
      (plan ~crashes:[ 1 ] ~lost:[ (1, 3); (1, 4) ] ())
  in
  check_int "victim does not complete the round" 0
    (List.length (received_at sys 1 1));
  check_bool "victim recorded as crashed" true
    (E.crashed sys = [ (Pid.of_int 1, Round.first) ]);
  check_int "p2 hears the victim" 4 (List.length (received_at sys 2 1));
  check_int "p3 misses the victim" 3 (List.length (received_at sys 3 1));
  (* Next round: the victim is silent. *)
  let sys = E.step sys Sim.Schedule.empty_plan in
  check_int "round 2 without victim" 3 (List.length (received_at sys 2 2));
  check_bool "alive" true
    (List.map Pid.to_int (E.alive sys) = [ 2; 3; 4 ])

let test_engine_delay_semantics () =
  let cfg = config ~n:4 ~t:1 in
  let sys = E.step (start_probe cfg) (plan ~delayed:[ (1, 3, 3) ] ()) in
  check_int "p3 misses the delayed message" 3
    (List.length (received_at sys 3 1));
  let sys = E.step sys Sim.Schedule.empty_plan in
  check_int "nothing extra in round 2" 4 (List.length (received_at sys 3 2));
  let sys = E.step sys Sim.Schedule.empty_plan in
  let entries = received_at sys 3 3 in
  check_int "delayed message arrives in round 3" 5 (List.length entries);
  check_bool "it is the round-1 message from p1" true
    (List.exists (fun (src, sent) -> Pid.equal src (Pid.of_int 1) && sent = 1) entries)

let test_engine_own_message () =
  let cfg = config ~n:3 ~t:1 in
  let sys = E.step (start_probe cfg) (plan ~crashes:[ 2 ] ~lost:[ (2, 1); (2, 3) ] ()) in
  List.iter
    (fun p ->
      check_bool
        (Printf.sprintf "p%d always receives itself" p)
        true
        (List.exists
           (fun (src, _) -> Pid.equal src (Pid.of_int p))
           (received_at sys p 1)))
    [ 1; 3 ]

let test_engine_halt_stops_sending () =
  let cfg = config ~n:3 ~t:1 in
  let trace =
    E.run cfg ~proposals:(Sim.Runner.distinct_proposals cfg) quiet_es
  in
  (* decide at 3, halt at 4: engine stops after round 4 *)
  check_int "rounds executed" 4 trace.Sim.Trace.rounds_executed;
  check_bool "all halted" true trace.Sim.Trace.all_halted;
  check_int "global decision" 3 (global_round trace);
  check_int "everyone decides" 3 (List.length trace.Sim.Trace.decisions)

let test_engine_records () =
  let cfg = config ~n:3 ~t:1 in
  let trace =
    E.run ~record:true cfg
      ~proposals:(Sim.Runner.distinct_proposals cfg)
      (es ~gst:1 [ plan ~crashes:[ 3 ] ~lost:[ (3, 1); (3, 2) ] () ])
  in
  check_int "one record per round" trace.Sim.Trace.rounds_executed
    (List.length trace.Sim.Trace.records);
  let r1 = List.hd trace.Sim.Trace.records in
  check_bool "crash recorded" true (r1.Sim.Trace.crashed_now = [ Pid.of_int 3 ]);
  check_int "senders in round 1" 3 (List.length r1.Sim.Trace.senders)

(* Decision stability is enforced. *)
module Flipper = struct
  type msg = unit
  type state = { round : int }

  let name = "flipper"
  let model = Sim.Model.Es
  let symmetric = false
  let init _ _ _ = { round = 0 }
  let on_send _ _ = ()
  let on_receive _ round _ = { round = Round.to_int round }
  let decision st = if st.round = 0 then None else Some (Value.of_int st.round)
  let halted _ = false
  let wire_size () = 0

  let pp_msg ppf () = Format.fprintf ppf "()"
  let pp_state ppf _ = Format.fprintf ppf "flipper"
end

let test_engine_decision_stability () =
  let module F = Sim.Engine.Make (Flipper) in
  let cfg = config ~n:3 ~t:1 in
  match
    F.run ~max_rounds:5 cfg
      ~proposals:(Sim.Runner.distinct_proposals cfg)
      quiet_es
  with
  | (_ : Sim.Trace.t) -> Alcotest.fail "expected Step_error on decision change"
  | exception Sim.Engine.Step_error err ->
      check_bool "faulting algorithm" true
        (err.Sim.Engine.algorithm = "flipper");
      check_int "faulting round" 2 (Round.to_int err.Sim.Engine.round);
      check_bool "reason names the decision change" true
        (contains err.Sim.Engine.reason "changed its decision");
      (* the printed error pins algorithm, pid and round context *)
      check_bool "printable with full context" true
        (contains
           (Format.asprintf "%a" Sim.Engine.pp_step_error err)
           "flipper: p1 failed in round 2: changed its decision")

(* ------------------------------------------------------------------ *)
(* Props                                                               *)

let test_props_on_sound_run () =
  let trace = run floodset (config ~n:4 ~t:1) quiet_es in
  assert_consensus trace;
  check_bool "decided_by t+1" true
    (Sim.Props.decided_by trace (Round.of_int 2));
  check_bool "not decided_by 1" false
    (Sim.Props.decided_by trace Round.first)

let test_props_agreement_violation () =
  let cfg = config ~n:5 ~t:2 in
  let trace =
    Sim.Runner.run floodset cfg
      ~proposals:(Sim.Runner.distinct_proposals cfg)
      (Mc.Attack.solo_split_schedule cfg)
  in
  check_bool "agreement violated" true
    (List.exists
       (function Sim.Props.Agreement _ -> true | _ -> false)
       (Sim.Props.check trace));
  match Sim.Props.assert_ok trace with
  | () -> Alcotest.fail "assert_ok should raise"
  | exception Failure _ -> ()

let test_props_unsettled () =
  (* Truncate CT before its decision round: correct processes undecided. *)
  let cfg = config ~n:3 ~t:1 in
  let trace = run ~max_rounds:2 ct cfg quiet_es in
  check_bool "unsettled reported" true
    (List.exists
       (function Sim.Props.Unsettled _ -> true | _ -> false)
       (Sim.Props.check trace))

(* ------------------------------------------------------------------ *)
(* Engine-vs-model invariants: an observer that never decides records   *)
(* every delivery; random valid schedules must produce runs satisfying  *)
(* the clauses of Section 1.2.                                          *)

module Observer = struct
  type msg = Mark

  type state = {
    me : Pid.t;
    log : (int * (Pid.t * int) list) list;  (* round -> (src, sent_round) *)
  }

  let name = "observer"
  let model = Sim.Model.Es
  let symmetric = false
  let init _config me _v = { me; log = [] }
  let on_send _st _round = Mark

  let on_receive st round inbox =
    let entries =
      List.map
        (fun (e : msg Sim.Envelope.t) -> (e.src, Round.to_int e.sent))
        inbox
    in
    { st with log = (Round.to_int round, entries) :: st.log }

  let decision _ = None
  let halted _ = false
  let wire_size Mark = 0
  let pp_msg ppf Mark = Format.pp_print_string ppf "mark"
  let pp_state ppf st = Format.fprintf ppf "observer(%a)" Pid.pp st.me
end

module O = Sim.Engine.Make (Observer)

let observe cfg schedule ~rounds =
  let rec steps sys k =
    if k > rounds then sys
    else steps (O.step sys (Sim.Schedule.plan_at schedule (Round.of_int k))) (k + 1)
  in
  steps (O.start cfg ~proposals:(Sim.Runner.distinct_proposals cfg)) 1

let model_invariants cfg schedule ~rounds =
  let sys = observe cfg schedule ~rounds in
  let n = Config.n cfg in
  let quorum = Config.quorum cfg in
  let crashed_by p k =
    match Sim.Schedule.crash_round schedule p with
    | Some r -> Round.to_int r <= k
    | None -> false
  in
  List.for_all
    (fun p ->
      match O.state_of sys p with
      | None -> true (* crashed *)
      | Some st ->
          List.for_all
            (fun (k, entries) ->
              let current =
                List.filter (fun (_, sent) -> sent = k) entries
              in
              (* t-resilience: at least n - t current-round messages. *)
              List.length current >= quorum
              (* self-delivery, always in the same round *)
              && List.exists (fun (src, _) -> Pid.equal src p) current
              (* no message from a process that crashed in an earlier round *)
              && List.for_all
                   (fun (src, sent) -> not (crashed_by src (sent - 1)))
                   entries
              (* every delivery matches the schedule's fate for it *)
              && List.for_all
                   (fun (src, sent) ->
                     Pid.equal src p
                     ||
                     match
                       Sim.Schedule.fate schedule ~src ~dst:p
                         ~round:(Round.of_int sent)
                     with
                     | Sim.Schedule.Same_round -> sent = k
                     | Sim.Schedule.Delayed_until u -> Round.to_int u = k
                     | Sim.Schedule.Lost -> false)
                   entries)
            st.Observer.log)
    (Pid.all ~n)

let prop_engine_respects_model =
  qtest ~count:200 "engine deliveries satisfy the model clauses"
    QCheck.(pair int (int_range 1 6))
    (fun (seed, gst) ->
      let rng = Rng.create ~seed in
      let s =
        if gst = 1 then Workload.Random_runs.synchronous_with_delays rng c52 ()
        else Workload.Random_runs.eventually_synchronous rng c52 ~gst ()
      in
      model_invariants c52 s ~rounds:(Sim.Schedule.horizon s + 3))

let prop_engine_deterministic =
  qtest ~count:80 "identical inputs give identical traces" QCheck.int
    (fun seed ->
      let rng = Rng.create ~seed in
      let s = Workload.Random_runs.eventually_synchronous rng c52 ~gst:3 () in
      let run_once () =
        let tr = run floodset_ws c52 s in
        ( Sim.Trace.decided_values tr,
          Sim.Trace.global_decision_round tr,
          tr.Sim.Trace.rounds_executed )
      in
      run_once () = run_once ())

(* Two engines implement the round: the recording batch engine
   ([~record:true]) and the mutable arena that the default [run], the fuzz
   harness and every sweep drive. The arena is pinned to the recording
   engine on both of its inbox paths: one-shot through [run] (nothing is
   interned), and after a [save] (spines and reduced inboxes interned by
   status, as in a DFS). All must replay the same run exactly — decisions,
   crash records, round count and halting flag — on arbitrary ES
   schedules, which exercise crashes, losses and delayed deliveries. *)
let engines_agree cfg s (Sim.Algorithm.Packed (module A)) =
  let proposals = Sim.Runner.distinct_proposals cfg in
  let module F = Sim.Engine.Make (A) in
  let key (t : Sim.Trace.t) =
    ( t.Sim.Trace.decisions,
      t.Sim.Trace.crashes,
      t.Sim.Trace.rounds_executed,
      t.Sim.Trace.all_halted )
  in
  let t_rec = F.run ~record:true cfg ~proposals s in
  let t_fast = F.run cfg ~proposals s in
  let t_saved =
    let arena = F.Arena.create cfg ~proposals in
    F.Arena.save arena;
    F.Arena.finish ~schedule:s arena
  in
  key t_rec = key t_fast && key t_fast = key t_saved

let prop_arena_matches_run =
  qtest ~count:60 "arena paths equal recording run" QCheck.int (fun seed ->
      let rng = Rng.create ~seed in
      let cfg = config ~n:4 ~t:2 in
      let s = Workload.Random_runs.eventually_synchronous rng cfg ~gst:4 () in
      engines_agree cfg s floodset && engines_agree cfg s floodset_ws)

let prop_cross_engine_equivalence =
  qtest ~count:40 "recording and arena paths agree"
    QCheck.(pair int (int_range 1 5))
    (fun (seed, gst) ->
      let rng = Rng.create ~seed in
      let s =
        if gst = 1 then Workload.Random_runs.synchronous_with_delays rng c52 ()
        else Workload.Random_runs.eventually_synchronous rng c52 ~gst ()
      in
      List.for_all
        (engines_agree c52 s)
        [ floodset; floodset_ws; early_fs; at2; floodmin ])

(* Every registered algorithm, every fault menu: random SCS schedules with
   declared crash/send-omission/receive-omission/mixed faults, plus random
   ES schedules, must replay identically on every engine path. This is
   the contract the arena-backed sweeps lean on — the DFS re-executes
   exactly these schedule shapes branch by branch. *)
let prop_all_algorithms_all_menus =
  qtest ~count:40 "all engines agree for every algorithm and fault menu"
    QCheck.(pair int (int_range 0 4))
    (fun (seed, menu) ->
      let rng = Rng.create ~seed in
      (* n = 7, t = 2 satisfies every registered algorithm's resilience
         guard: indulgent entries need 2t < n, the A_{f+2} family 3t < n. *)
      let cfg = config ~n:7 ~t:2 in
      let s =
        match menu with
        | 0 -> Workload.Random_runs.with_omissions rng cfg
                 ~faults:Sim.Model.Crash_only ()
        | 1 -> Workload.Random_runs.with_omissions rng cfg
                 ~faults:Sim.Model.Send_omit_only ()
        | 2 -> Workload.Random_runs.with_omissions rng cfg
                 ~faults:Sim.Model.Recv_omit_only ()
        | 3 -> Workload.Random_runs.with_omissions rng cfg
                 ~faults:Sim.Model.Mixed ()
        | _ -> Workload.Random_runs.eventually_synchronous rng cfg ~gst:3 ()
      in
      List.for_all
        (fun (e : Expt.Registry.entry) -> engines_agree cfg s e.algo)
        Expt.Registry.all)

(* The arena's branch-point contract, the exact discipline the DFS relies
   on: snapshot anywhere, run any number of further rounds, restore — the
   rewound arena must be indistinguishable (same fingerprint, structural
   equality) from the moment of the save. *)
let prop_arena_snapshot_restore =
  qtest ~count:100 "snapshot, k steps, restore is a fingerprint no-op"
    QCheck.(triple int (int_range 0 4) (int_range 1 5))
    (fun (seed, before, after) ->
      let rng = Rng.create ~seed in
      let cfg = c52 in
      let n = Config.n cfg in
      let s = Workload.Random_runs.synchronous rng cfg () in
      List.for_all
        (fun (Sim.Algorithm.Packed (module A)) ->
          let module F = Sim.Engine.Make (A) in
          let arena =
            F.Arena.create cfg ~proposals:(Sim.Runner.distinct_proposals cfg)
          in
          let step_round a =
            if not (F.Arena.all_halted a) then
              F.Arena.step a
                (Sim.Schedule.compile_plan ~n
                   (Sim.Schedule.plan_at s (F.Arena.next_round a)))
          in
          for _ = 1 to before do
            step_round arena
          done;
          F.Arena.save arena;
          let fp_saved = F.Arena.fingerprint arena in
          for _ = 1 to after do
            step_round arena
          done;
          F.Arena.restore arena;
          let fp_restored = F.Arena.fingerprint arena in
          fp_saved = fp_restored)
        [ floodset; floodmin; at2 ])

(* Past the schedule horizon every round is quiet and the arena only
   refreshes its spine cells in place; holding FloodMin in its steady state
   for many rounds pins that flat tail against the recording engine. *)
module Floodmin_steady = Baselines.Floodmin.Make (struct
  let extra_rounds = 40
end)

let test_flat_tail_equivalence () =
  let algo = Sim.Algorithm.Packed (module Floodmin_steady) in
  List.iter
    (fun (n, t) ->
      let cfg = config ~n ~t in
      check_bool
        (Printf.sprintf "flat tail agrees at n=%d" n)
        true
        (engines_agree cfg quiet_es algo))
    [ (5, 2); (63, 2); (64, 2); (100, 3) ]

(* Crash-round edge cases: a victim crashing in its own decision round
   records no decision (it does not complete the round), and a victim all
   of whose messages are lost crashed "before sending".  Both must replay
   identically on every engine path and stay safety-clean. *)
let test_crash_round_edge_cases () =
  let cfg = config ~n:4 ~t:1 in
  let silent =
    es ~gst:1 [ plan ~crashes:[ 2 ] ~lost:[ (2, 1); (2, 3); (2, 4) ] () ]
  in
  assert_valid cfg silent;
  let trace = run floodset cfg silent in
  assert_consensus trace;
  check_bool "silent victim records no decision" true
    (Sim.Trace.decision_of trace (Pid.of_int 2) = None);
  check_int "survivors decide" 3 (List.length trace.Sim.Trace.decisions);
  (* FloodSet decides in round t+1 = 2: crash the victim in exactly that
     round *)
  let crash_in_decision_round = es ~gst:1 [ plan (); plan ~crashes:[ 2 ] () ] in
  assert_valid cfg crash_in_decision_round;
  let trace2 = run floodset cfg crash_in_decision_round in
  assert_consensus trace2;
  check_bool "deciding-round victim records no decision" true
    (Sim.Trace.decision_of trace2 (Pid.of_int 2) = None);
  check_int "survivors still decide" 3 (List.length trace2.Sim.Trace.decisions);
  check_bool "engines agree on the silent victim" true
    (engines_agree cfg silent floodset);
  check_bool "engines agree on the deciding-round crash" true
    (engines_agree cfg crash_in_decision_round floodset)

(* The same two edge schedules through the fuzz harness: its online
   monitor and termination judgment must also treat the victim as faulty,
   so both runs come back Passed. *)
let test_crash_round_edge_cases_harness () =
  let cfg = config ~n:4 ~t:1 in
  let proposals = Sim.Runner.distinct_proposals cfg in
  List.iter
    (fun (name, s) ->
      match Fuzz.Harness.run ~algo:floodset ~config:cfg ~proposals s with
      | Fuzz.Outcome.Passed _ -> ()
      | o ->
          Alcotest.fail
            (Format.asprintf "%s: expected Passed: %a" name Fuzz.Outcome.pp o))
    [
      ( "silent victim",
        es ~gst:1 [ plan ~crashes:[ 2 ] ~lost:[ (2, 1); (2, 3); (2, 4) ] () ] );
      ("deciding-round crash", es ~gst:1 [ plan (); plan ~crashes:[ 2 ] () ]);
    ]

(* ------------------------------------------------------------------ *)
(* Trace rendering and queries                                         *)

let test_trace_queries () =
  let cfg = config ~n:4 ~t:1 in
  let trace =
    run floodset cfg
      (es ~gst:1 [ plan ~crashes:[ 4 ] ~lost:[ (4, 1); (4, 2); (4, 3) ] () ])
  in
  check_bool "p4 has no decision" true
    (Sim.Trace.decision_of trace (Pid.of_int 4) = None);
  check_bool "p1 decided" true
    (Sim.Trace.decision_of trace (Pid.of_int 1) <> None);
  check_int "three deciders" 3 (List.length (Sim.Trace.decided_values trace));
  check_bool "correct excludes p4" true
    (List.map Pid.to_int (Sim.Trace.correct trace) = [ 1; 2; 3 ]);
  check_bool "first = global here" true
    (Sim.Trace.first_decision_round trace
    = Sim.Trace.global_decision_round trace)

let test_trace_rendering () =
  let cfg = config ~n:3 ~t:1 in
  let trace =
    Sim.Runner.run ~record:true floodset cfg
      ~proposals:(Sim.Runner.distinct_proposals cfg)
      (es ~gst:1 [ plan ~crashes:[ 2 ] ~lost:[ (2, 1); (2, 3) ] () ])
  in
  let summary = Format.asprintf "%a" Sim.Trace.pp_summary trace in
  check_bool "summary names the algorithm" true
    (contains summary "FloodSet");
  check_bool "summary reports the decision" true
    (contains summary "global decision");
  let diagram = Format.asprintf "%a" Sim.Trace.pp_diagram trace in
  check_bool "diagram marks the crash" true
    (contains diagram "X");
  check_bool "diagram marks decisions" true
    (contains diagram "D=");
  check_bool "diagram lists losses" true
    (contains diagram "lost")

(* Omission fates render distinctly from network losses: the legend names
   the declared omitters and each dropped message is attributed to its
   culprit instead of reading as "lost". *)
let test_trace_omission_rendering () =
  let cfg = config ~n:4 ~t:1 in
  let s =
    es_omit ~omitters:[ (1, Sim.Model.Send_omit) ] ~gst:1
      [ plan ~lost:[ (1, 2) ] () ]
  in
  assert_valid cfg s;
  let trace =
    Sim.Runner.run ~record:true floodset cfg
      ~proposals:(Sim.Runner.distinct_proposals cfg)
      s
  in
  let diagram = Format.asprintf "%a" Sim.Trace.pp_diagram trace in
  check_bool "legend declares the omitter" true
    (contains diagram "omitters: p1 (send-omission)");
  check_bool "fate attributed to the culprit" true
    (contains diagram "r1: p1 -> p2 omitted (send-omission by p1)");
  check_bool "no plain loss line" false (contains diagram "p1 -> p2 lost");
  (* the omitter is excluded from the correct set *)
  check_bool "correct excludes the omitter" true
    (List.map Pid.to_int (Sim.Trace.correct trace) = [ 2; 3; 4 ]);
  let s_recv =
    es_omit ~omitters:[ (4, Sim.Model.Recv_omit) ] ~gst:1
      [ plan ~lost:[ (2, 4) ] () ]
  in
  let trace_recv =
    Sim.Runner.run ~record:true floodset cfg
      ~proposals:(Sim.Runner.distinct_proposals cfg)
      s_recv
  in
  let diagram_recv = Format.asprintf "%a" Sim.Trace.pp_diagram trace_recv in
  check_bool "receive-omission attributed to the receiver" true
    (contains diagram_recv "r1: p2 -> p4 omitted (receive-omission by p4)")

let test_engine_max_rounds () =
  let cfg = config ~n:3 ~t:1 in
  let trace = run ~max_rounds:1 ct cfg quiet_es in
  check_int "stopped after one round" 1 trace.Sim.Trace.rounds_executed;
  check_bool "not quiescent" false trace.Sim.Trace.all_halted;
  check_bool "default bound is generous" true
    (Sim.Engine.default_max_rounds cfg quiet_es >= 20)

let test_engine_bytes_recorded () =
  let cfg = config ~n:4 ~t:1 in
  let trace = run ~record:true floodset cfg quiet_es in
  match trace.Sim.Trace.records with
  | first :: _ ->
      (* Round 1: four senders, each broadcasting 4 copies of a one-value
         flood (header 7 + payload 4 + 8). *)
      check_int "round-1 bytes" (4 * 4 * (7 + 12)) first.Sim.Trace.bytes_sent
  | [] -> Alcotest.fail "no records"

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)

(* Semantic equality over a horizon: same model, gst, crash pattern and
   per-message fate. *)
let schedules_equivalent cfg a b =
  let n = Config.n cfg in
  let horizon = max (Sim.Schedule.horizon a) (Sim.Schedule.horizon b) in
  Sim.Model.equal (Sim.Schedule.model a) (Sim.Schedule.model b)
  && Round.equal (Sim.Schedule.gst a) (Sim.Schedule.gst b)
  && List.for_all
       (fun p ->
         Sim.Schedule.crash_round a p = Sim.Schedule.crash_round b p)
       (Pid.all ~n)
  && List.for_all
       (fun k ->
         let round = Round.of_int k in
         List.for_all
           (fun src ->
             List.for_all
               (fun dst ->
                 Sim.Schedule.fate a ~src ~dst ~round
                 = Sim.Schedule.fate b ~src ~dst ~round)
               (Pid.all ~n))
           (Pid.all ~n))
       (Listx.range 1 horizon)

let test_codec_example () =
  let text =
    "# a comment\n\
     schedule ES gst=3\n\
     round 1: delay p1->p3@4 p1->p4@4\n\
     round 2: crash p2 | lose p2->p3 p2->p4\n"
  in
  let s = Sim.Codec.decode_exn text in
  check_bool "model" true (Sim.Model.equal (Sim.Schedule.model s) Sim.Model.Es);
  check_int "gst" 3 (Round.to_int (Sim.Schedule.gst s));
  check_int "horizon" 2 (Sim.Schedule.horizon s);
  check_bool "crash" true
    (Sim.Schedule.crash_round s (Pid.of_int 2) = Some (Round.of_int 2));
  check_bool "delay" true
    (Sim.Schedule.fate s ~src:(Pid.of_int 1) ~dst:(Pid.of_int 3)
       ~round:Round.first
    = Sim.Schedule.Delayed_until (Round.of_int 4));
  check_bool "lose" true
    (Sim.Schedule.fate s ~src:(Pid.of_int 2) ~dst:(Pid.of_int 3)
       ~round:(Round.of_int 2)
    = Sim.Schedule.Lost)

let test_codec_omission_example () =
  let text =
    "schedule ES gst=1 omit=p1:send,p4:recv budget=1+2\n\
     round 1: crash p2 | lose p1->p3 p2->p5\n"
  in
  let s = Sim.Codec.decode_exn text in
  check_int "omitters decoded" 2 (Sim.Schedule.omit_count s);
  check_bool "p1 send class" true
    (Sim.Schedule.omitter_class s (Pid.of_int 1) = Some Sim.Model.Send_omit);
  check_bool "p4 recv class" true
    (Sim.Schedule.omitter_class s (Pid.of_int 4) = Some Sim.Model.Recv_omit);
  check_bool "budget decoded" true
    (Sim.Schedule.budget s = Some (Sim.Model.budget ~t_crash:1 ~t_omit:2));
  (* encoding reproduces both tokens *)
  let enc = Sim.Codec.encode s in
  check_bool "omit token re-encoded" true (contains enc "omit=p1:send,p4:recv");
  check_bool "budget token re-encoded" true (contains enc "budget=1+2");
  (* backward compat: the bare three-token header still parses, with no
     omitters and no budget *)
  let bare = Sim.Codec.decode_exn "schedule ES gst=3\nround 1: crash p1\n" in
  check_int "no omitters" 0 (Sim.Schedule.omit_count bare);
  check_bool "no budget" true (Sim.Schedule.budget bare = None)

let test_codec_errors () =
  let bad texts =
    List.iter
      (fun text ->
        match Sim.Codec.decode text with
        | Ok _ -> Alcotest.fail ("should reject: " ^ text)
        | Error _ -> ())
      texts
  in
  bad
    [
      "";
      "bogus header\n";
      "schedule XX gst=1\n";
      "schedule ES gst=0\n";
      "schedule ES gst=1\nround zero: crash p1\n";
      "schedule ES gst=1\nround 1: crash q1\n";
      "schedule ES gst=1\nround 1: teleport p1\n";
      "schedule ES gst=1\nround 1: delay p1->p2\n";
      "schedule ES gst=1\nround 1 crash p1\n";
    ]

let prop_codec_roundtrip =
  qtest ~count:150 "encode/decode roundtrip on generated schedules"
    QCheck.(pair int (int_range 0 3))
    (fun (seed, kind) ->
      let cfg = config ~n:5 ~t:2 in
      let rng = Rng.create ~seed in
      let s =
        match kind with
        | 0 -> Workload.Random_runs.synchronous rng cfg ()
        | 1 -> Workload.Random_runs.synchronous_with_delays rng cfg ()
        | 2 -> Workload.Random_runs.eventually_synchronous rng cfg ~gst:4 ()
        | _ -> Workload.Cascade.chain cfg
      in
      match Sim.Codec.decode (Sim.Codec.encode s) with
      | Ok s' -> schedules_equivalent cfg s s'
      | Error _ -> false)

(* Roundtrip over the omission generator: fates, omitter declarations and
   the explicit budget all survive encode/decode. *)
let prop_codec_roundtrip_omissions =
  qtest ~count:100 "roundtrip preserves omitters and budget"
    QCheck.(pair int (int_range 0 2))
    (fun (seed, menu) ->
      let cfg = config ~n:5 ~t:2 in
      let rng = Rng.create ~seed in
      let faults =
        match menu with
        | 0 -> Sim.Model.Send_omit_only
        | 1 -> Sim.Model.Recv_omit_only
        | _ -> Sim.Model.Mixed
      in
      let s = Workload.Random_runs.with_omissions rng cfg ~faults () in
      match Sim.Codec.decode (Sim.Codec.encode s) with
      | Ok s' ->
          schedules_equivalent cfg s s'
          && Sim.Schedule.omitters s = Sim.Schedule.omitters s'
          && Sim.Schedule.budget s = Sim.Schedule.budget s'
      | Error _ -> false)

let test_runner_proposals () =
  let cfg = config ~n:3 ~t:1 in
  let p = Sim.Runner.proposals_of_list (List.map Value.of_int [ 5; 6; 7 ]) in
  check_int "p2 proposal" 6 (Value.to_int (Pid.Map.find (Pid.of_int 2) p));
  let b = Sim.Runner.binary_proposals cfg ~ones:(Pid.Set.of_ints [ 2 ]) in
  check_int "binary p2" 1 (Value.to_int (Pid.Map.find (Pid.of_int 2) b));
  check_int "binary p1" 0 (Value.to_int (Pid.Map.find (Pid.of_int 1) b));
  let u = Sim.Runner.uniform_proposals cfg (Value.of_int 9) in
  check_bool "uniform" true
    (Pid.Map.for_all (fun _ v -> Value.to_int v = 9) u)

let () =
  Alcotest.run "sim"
    [
      ( "envelope/inbox",
        [
          Alcotest.test_case "envelope" `Quick test_envelope;
          Alcotest.test_case "inbox" `Quick test_inbox;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "valid cases" `Quick test_schedule_valid_cases;
          Alcotest.test_case "invalid cases" `Quick test_schedule_invalid_cases;
          Alcotest.test_case "queries" `Quick test_schedule_queries;
          Alcotest.test_case "effective gst" `Quick test_schedule_effective_gst_sync;
        ] );
      ( "omissions",
        [
          Alcotest.test_case "valid omitter schedules" `Quick
            test_schedule_omitters_valid;
          Alcotest.test_case "invalid omitter schedules (pinned messages)"
            `Quick test_schedule_omitters_invalid;
          Alcotest.test_case "validator message context" `Quick
            test_schedule_validate_message_context;
          Alcotest.test_case "omission queries" `Quick
            test_schedule_omission_queries;
          Alcotest.test_case "omission rendering" `Quick
            test_trace_omission_rendering;
          Alcotest.test_case "codec omission tokens" `Quick
            test_codec_omission_example;
          prop_codec_roundtrip_omissions;
        ] );
      ( "engine",
        [
          Alcotest.test_case "full delivery" `Quick test_engine_full_delivery;
          Alcotest.test_case "crash semantics" `Quick test_engine_crash_semantics;
          Alcotest.test_case "delay semantics" `Quick test_engine_delay_semantics;
          Alcotest.test_case "own message" `Quick test_engine_own_message;
          Alcotest.test_case "halting" `Quick test_engine_halt_stops_sending;
          Alcotest.test_case "records" `Quick test_engine_records;
          Alcotest.test_case "decision stability" `Quick test_engine_decision_stability;
        ] );
      ( "props",
        [
          Alcotest.test_case "sound run" `Quick test_props_on_sound_run;
          Alcotest.test_case "agreement violation" `Quick test_props_agreement_violation;
          Alcotest.test_case "unsettled" `Quick test_props_unsettled;
          Alcotest.test_case "runner proposals" `Quick test_runner_proposals;
        ] );
      ( "model-invariants",
        [
          prop_engine_respects_model;
          prop_engine_deterministic;
          prop_arena_matches_run;
          prop_cross_engine_equivalence;
          prop_all_algorithms_all_menus;
          prop_arena_snapshot_restore;
          Alcotest.test_case "flat tail equivalence" `Quick
            test_flat_tail_equivalence;
          Alcotest.test_case "crash-round edge cases" `Quick
            test_crash_round_edge_cases;
          Alcotest.test_case "crash-round edge cases (harness)" `Quick
            test_crash_round_edge_cases_harness;
        ] );
      ( "trace",
        [
          Alcotest.test_case "queries" `Quick test_trace_queries;
          Alcotest.test_case "rendering" `Quick test_trace_rendering;
          Alcotest.test_case "max rounds" `Quick test_engine_max_rounds;
          Alcotest.test_case "bytes recorded" `Quick test_engine_bytes_recorded;
        ] );
      ( "codec",
        [
          Alcotest.test_case "example" `Quick test_codec_example;
          Alcotest.test_case "errors" `Quick test_codec_errors;
          prop_codec_roundtrip;
        ] );
    ]
