open Kernel

let name = "e13"
let title = "E13: omission faults - indulgence survives, decisions shift"

type row = {
  algorithm : string;
  faults : Sim.Model.faults;
  n : int;
  t : int;
  runs : int;
  min_decision : int;
  max_decision : int;
  violations : int;
  expected_safe : bool;
}

let sweep_row entry config ~faults ~expected_safe =
  let r =
    match
      Mc.Sweep.run
        (Mc.Sweep.make ~faults ~algo:entry.Registry.algo ~config
           (Mc.Sweep.Fixed (Sim.Runner.distinct_proposals config)))
        (Mc.Sweep.Domains 1)
    with
    | Ok o -> o.Mc.Sweep.result
    | Error msg -> failwith msg
  in
  {
    algorithm = entry.Registry.label;
    faults;
    n = Config.n config;
    t = Config.t config;
    runs = r.Mc.Exhaustive.runs;
    min_decision = r.Mc.Exhaustive.min_decision;
    max_decision = r.Mc.Exhaustive.max_decision;
    violations = List.length r.Mc.Exhaustive.violations;
    expected_safe;
  }

let measure () =
  let c41 = Config.make ~n:4 ~t:1 in
  let menus = Sim.Model.all_faults in
  (* FloodSet's crash-tolerance argument needs a crash-free round to
     equalize views, and a send-omitter falsifies that without spending a
     crash — but a receive-omitter only starves itself, and its decisions
     are excluded from the agreement judgment, so recv-omit alone leaves
     FloodSet safe. The indulgent A_{t+2} is expected to stay safe under
     every menu — the interesting part is where its decision rounds land. *)
  List.map
    (fun faults ->
      sweep_row Registry.floodset c41 ~faults
        ~expected_safe:
          (match faults with
          | Sim.Model.Crash_only | Sim.Model.Recv_omit_only -> true
          | Sim.Model.Send_omit_only | Sim.Model.Mixed -> false))
    menus
  @ List.map
      (fun faults -> sweep_row Registry.at_plus_2 c41 ~faults ~expected_safe:true)
      menus

let run ppf =
  let rows = measure () in
  let table =
    List.fold_left
      (fun table r ->
        let safe = r.violations = 0 in
        let shift = r.max_decision - (r.t + 2) in
        Stats.Table.add_row table
          [
            r.algorithm;
            Sim.Model.faults_to_string r.faults;
            Stats.Table.cell_int r.n;
            Stats.Table.cell_int r.t;
            Stats.Table.cell_int r.runs;
            Format.sprintf "[%d, %d]" r.min_decision r.max_decision;
            (if safe then "0" else string_of_int r.violations);
            (if safe && shift > 0 then Format.sprintf "+%d" shift else "-");
            Stats.Table.cell_check (safe = r.expected_safe);
          ])
      (Stats.Table.make
         ~headers:
           [
             "algorithm";
             "faults";
             "n";
             "t";
             "runs";
             "decision rounds";
             "violations";
             "shift past t+2";
             "match";
           ])
      rows
  in
  Format.fprintf ppf "@[<v>%s@,%a@,@]" title Stats.Table.render table
