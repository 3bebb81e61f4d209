(* Shared helpers for the test suites. *)

open Kernel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let config ~n ~t = Config.make ~n ~t

let quiet_es = Sim.Schedule.make ~model:Sim.Model.Es ~gst:Round.first []

let run ?record ?sink ?max_rounds algo cfg schedule =
  Sim.Runner.run ?record ?sink ?max_rounds algo cfg
    ~proposals:(Sim.Runner.distinct_proposals cfg)
    schedule

let run_binary ?max_rounds algo cfg ~ones schedule =
  Sim.Runner.run ?max_rounds algo cfg
    ~proposals:(Sim.Runner.binary_proposals cfg ~ones:(Pid.Set.of_ints ones))
    schedule

let global_round trace =
  match Sim.Trace.global_decision_round trace with
  | Some r -> Round.to_int r
  | None -> Alcotest.fail "no global decision"

let decided_value trace =
  match Sim.Trace.decided_values trace with
  | v :: _ -> Value.to_int v
  | [] -> Alcotest.fail "nobody decided"

let assert_consensus trace =
  match Sim.Props.check trace with
  | [] -> ()
  | vs ->
      Alcotest.fail
        (Format.asprintf "%a"
           (Format.pp_print_list Sim.Props.pp_violation)
           vs)

let assert_valid cfg schedule =
  match Sim.Schedule.validate cfg schedule with
  | Ok () -> ()
  | Error e -> Alcotest.fail ("schedule should be valid: " ^ e)

let assert_invalid cfg schedule =
  match Sim.Schedule.validate cfg schedule with
  | Ok () -> Alcotest.fail "schedule should be invalid"
  | Error _ -> ()

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec scan i =
    i + nn <= nh && (String.sub haystack i nn = needle || scan (i + 1))
  in
  nn = 0 || scan 0

let qtest ?(count = 100) name arbitrary prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arbitrary prop)

(* Packed algorithms used across suites. *)
let floodset = Sim.Algorithm.Packed (module Baselines.Floodset)
let floodset_ws = Sim.Algorithm.Packed (module Baselines.Floodset_ws)
let ct = Sim.Algorithm.Packed (module Baselines.Ct_diamond_s)
let ct_naive = Sim.Algorithm.Packed (module Baselines.Ct_naive)
let hr = Sim.Algorithm.Packed (module Baselines.Hurfin_raynal)
let amr = Sim.Algorithm.Packed (module Baselines.Amr)
let at2 = Sim.Algorithm.Packed (module Indulgent.At_plus_2.Standard)
let at2_opt = Sim.Algorithm.Packed (module Indulgent.At_plus_2.Optimized)
let at2_slow = Sim.Algorithm.Packed (module Indulgent.At_plus_2.Slow_fallback)
let a_ds = Sim.Algorithm.Packed (module Indulgent.A_diamond_s)
let af2 = Sim.Algorithm.Packed (module Indulgent.Af_plus_2)
let dls = Sim.Algorithm.Packed (module Baselines.Dls)
let early_fs = Sim.Algorithm.Packed (module Baselines.Early_floodset)
let floodmin = Sim.Algorithm.Packed (module Baselines.Floodmin.Std)

let with_temp_file f =
  let path = Filename.temp_file "ipi-test" ".tmp" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let with_temp_dir f =
  let dir = Filename.temp_file "ipi-test" ".dir" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name ->
          try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* Sweeps through the one driver. *)
let fixed_spec ?faults ?omit_budget ?policy ?horizon ?reduce ?table_cap
    ?spill_dir ~algo config =
  Mc.Sweep.make ?faults ?omit_budget ?policy ?horizon ?reduce ?table_cap
    ?spill_dir ~algo ~config
    (Mc.Sweep.Fixed (Sim.Runner.distinct_proposals config))

let binary_spec ?faults ?omit_budget ?policy ?horizon ?reduce ?table_cap
    ?spill_dir ~algo config =
  Mc.Sweep.make ?faults ?omit_budget ?policy ?horizon ?reduce ?table_cap
    ?spill_dir ~algo ~config Mc.Sweep.Binary

let sweep_outcome ?checkpoint ?resume ?deadline ?should_stop ?metrics ?prof
    ?spans ?progress ?(exec = Mc.Sweep.Domains 1) spec =
  match
    Mc.Sweep.run ?checkpoint ?resume ?deadline ?should_stop ?metrics ?prof
      ?spans ?progress spec exec
  with
  | Ok o -> o
  | Error msg -> Alcotest.fail ("sweep: " ^ msg)

let load_checkpoint path =
  match Mc.Checkpoint.load ~path with
  | Ok ck -> ck
  | Error e ->
      Alcotest.fail (Format.asprintf "%a" Mc.Checkpoint.pp_load_error e)

(* The in-process executors every spec is checked under: serial, four
   domains, and a serial run stopped after two tasks with a checkpoint,
   then resumed on two domains. *)
let in_process_outcomes spec =
  let checkpointed () =
    with_temp_file @@ fun path ->
    let polls = ref 0 in
    ignore
      (sweep_outcome ~checkpoint:(path, 1)
         ~should_stop:(fun () ->
           incr polls;
           !polls > 2)
         spec);
    sweep_outcome ~resume:(load_checkpoint path) ~exec:(Mc.Sweep.Domains 2)
      spec
  in
  [
    ("jobs=1", sweep_outcome spec);
    ("jobs=4", sweep_outcome ~exec:(Mc.Sweep.Domains 4) spec);
    ("checkpoint+resume", checkpointed ());
  ]
