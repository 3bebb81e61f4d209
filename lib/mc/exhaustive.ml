open Kernel

type crashed_run = {
  choices : Serial.choice list;
  error : Sim.Engine.step_error;
}

type shard_failure = { shard : int; context : string; message : string }

type result = {
  runs : int;
  distinct_runs : int;
      (* leaves actually enumerated/simulated; [runs] additionally counts
         runs answered from a transposition table or scaled up from a
         symmetry-orbit representative *)
  max_decision : int;
  min_decision : int;
  max_witness : Serial.choice list option;
  violations : (Serial.choice list * Sim.Props.violation list) list;
  undecided_runs : int;
  crashed : crashed_run list;
  shard_failures : shard_failure list;
  expired : bool;
      (* the sweep's wall-clock budget ran out: the counts above account
         for what was explored, not for the whole space *)
}

let empty =
  {
    runs = 0;
    distinct_runs = 0;
    max_decision = 0;
    min_decision = max_int;
    max_witness = None;
    violations = [];
    undecided_runs = 0;
    crashed = [];
    shard_failures = [];
    expired = false;
  }

exception Expired
(* Raised at the next leaf once a sweep deadline has passed; callers catch
   it, keep what they accounted so far and mark the result [expired]. *)

let deadline_check = function
  | None -> fun () -> ()
  | Some d -> fun () -> if Unix.gettimeofday () > d then raise Expired

let add_run acc ~choices ~trace =
  let acc =
    { acc with runs = acc.runs + 1; distinct_runs = acc.distinct_runs + 1 }
  in
  let acc =
    match Sim.Props.check trace with
    | [] -> acc
    | vs ->
        let undecided =
          List.exists
            (function
              | Sim.Props.Termination _ | Sim.Props.Unsettled _ -> true
              | Sim.Props.Validity _ | Sim.Props.Agreement _ -> false)
            vs
        in
        {
          acc with
          violations = (choices, vs) :: acc.violations;
          undecided_runs = (acc.undecided_runs + if undecided then 1 else 0);
        }
  in
  match Sim.Trace.global_decision_round trace with
  | None -> acc
  | Some r ->
      let r = Round.to_int r in
      let acc =
        if r > acc.max_decision then
          { acc with max_decision = r; max_witness = Some choices }
        else acc
      in
      if r < acc.min_decision then { acc with min_decision = r } else acc

let add_crashed acc ~choices ~error =
  {
    acc with
    runs = acc.runs + 1;
    distinct_runs = acc.distinct_runs + 1;
    crashed = { choices; error } :: acc.crashed;
  }

let merge a b =
  {
    runs = a.runs + b.runs;
    distinct_runs = a.distinct_runs + b.distinct_runs;
    max_decision = max a.max_decision b.max_decision;
    min_decision = min a.min_decision b.min_decision;
    max_witness =
      (if b.max_decision > a.max_decision then b.max_witness
       else a.max_witness);
    violations = a.violations @ b.violations;
    undecided_runs = a.undecided_runs + b.undecided_runs;
    crashed = a.crashed @ b.crashed;
    shard_failures = a.shard_failures @ b.shard_failures;
    expired = a.expired || b.expired;
  }

type stopwatch = { wall_started : float; cpu_started : float }

let stopwatch () =
  { wall_started = Unix.gettimeofday (); cpu_started = Sys.time () }

let report_sweep ?(domains = 1) ?(prefix_hits = 0) ?dedup ?arena ?orbits
    metrics ~started result =
  match metrics with
  | None -> ()
  | Some m ->
      Obs.Metrics.incr ~by:result.runs (Obs.Metrics.counter m "mc.runs");
      Obs.Metrics.incr ~by:result.distinct_runs
        (Obs.Metrics.counter m "mc.distinct_runs");
      (match dedup with
      | None -> ()
      | Some (hits, entries) ->
          Obs.Metrics.incr ~by:hits (Obs.Metrics.counter m "mc.dedup_hits");
          Obs.Metrics.set (Obs.Metrics.gauge m "mc.dedup_entries") entries);
      (match arena with
      | None -> ()
      | Some (snapshots, restores) ->
          Obs.Metrics.incr ~by:snapshots
            (Obs.Metrics.counter m "mc.arena_snapshots");
          Obs.Metrics.incr ~by:restores
            (Obs.Metrics.counter m "mc.arena_restores"));
      (match orbits with
      | None -> ()
      | Some k -> Obs.Metrics.set (Obs.Metrics.gauge m "mc.orbits") k);
      Obs.Metrics.incr
        ~by:(List.length result.violations)
        (Obs.Metrics.counter m "mc.violations");
      Obs.Metrics.incr ~by:result.undecided_runs
        (Obs.Metrics.counter m "mc.undecided_runs");
      Obs.Metrics.incr
        ~by:(List.length result.crashed)
        (Obs.Metrics.counter m "mc.crashed_runs");
      Obs.Metrics.incr
        ~by:(List.length result.shard_failures)
        (Obs.Metrics.counter m "mc.shard_failures");
      Obs.Metrics.set
        (Obs.Metrics.gauge m "mc.max_decision_round")
        result.max_decision;
      Obs.Metrics.set (Obs.Metrics.gauge m "mc.domains") domains;
      if prefix_hits > 0 then
        Obs.Metrics.incr ~by:prefix_hits
          (Obs.Metrics.counter m "mc.prefix_hits");
      let cpu = Sys.time () -. started.cpu_started in
      let wall = Unix.gettimeofday () -. started.wall_started in
      Obs.Metrics.observe (Obs.Metrics.histogram m "mc.sweep_cpu_seconds") cpu;
      Obs.Metrics.observe
        (Obs.Metrics.histogram m "mc.sweep_wall_seconds")
        wall;
      (* Throughput over the wall clock: under several domains CPU time
         overcounts elapsed time by up to the domain count. *)
      if wall > 0. then
        Obs.Metrics.observe
          (Obs.Metrics.histogram m "mc.schedules_per_second")
          (float_of_int result.runs /. wall)

let sweep ?faults ?omit_budget ?deadline ?(policy = Serial.Prefixes) ?metrics
    ?horizon ~algo ~config ~proposals () =
  let horizon = Option.value horizon ~default:(Config.t config + 2) in
  let started = stopwatch () in
  let budget =
    Serial.budget_of ?omit_budget
      ~faults:(Option.value faults ~default:Sim.Model.Crash_only)
      config
  in
  let check = deadline_check deadline in
  let acc = ref empty in
  (try
     Serial.enumerate ?faults ?omit_budget ~policy config ~horizon
       ~f:(fun choices ->
         check ();
         let schedule = Serial.to_schedule ?budget config choices in
         match Sim.Runner.run algo config ~proposals schedule with
         | trace -> acc := add_run !acc ~choices ~trace
         | exception Sim.Engine.Step_error error ->
             acc := add_crashed !acc ~choices ~error)
   with Expired -> acc := { !acc with expired = true });
  report_sweep metrics ~started !acc;
  !acc

let binary_assignments config =
  let n = Config.n config in
  List.map
    (fun ones -> Sim.Runner.binary_proposals config ~ones:(Pid.Set.of_list ones))
    (Listx.subsets (Pid.all ~n))

let sweep_binary ?faults ?omit_budget ?deadline ?policy ?metrics ?horizon
    ~algo ~config () =
  List.fold_left
    (fun acc proposals ->
      if acc.expired then acc
      else
        merge acc
          (sweep ?faults ?omit_budget ?deadline ?policy ?metrics ?horizon
             ~algo ~config ~proposals ()))
    empty (binary_assignments config)

(* ------------------------------------------------------------------ *)
(* Prefix-sharing (incremental) sweeps                                 *)

(* The sweep result never looks at [Trace.t.schedule] ([Props.check] and
   [global_decision_round] read decisions, crashes, proposals, config and
   the halting flag), so the incremental path hands [finish] one shared
   empty schedule instead of materialising a [Schedule.t] per leaf. The
   round bound must then be supplied explicitly, computed from the sweep's
   real horizon so that it matches what [Runner.run] would use. *)

type sweeper =
  ?deadline:float ->
  ?prof:Obs.Prof.acc ->
  ?spans:Obs.Span.t ->
  Serial.choice list ->
  result * int

let sweep_prefix ?faults ?omit_budget ?(policy = Serial.Prefixes) ?horizon
    ?menu ~algo:(Sim.Algorithm.Packed (module A)) ~config ~proposals () =
  let module E = Sim.Engine.Make (A) in
  let horizon = Option.value horizon ~default:(Config.t config + 2) in
  let n = Config.n config in
  let max_rounds = Sim.Engine.round_bound config ~horizon ~gst:1 in
  let faults_v = Option.value faults ~default:Sim.Model.Crash_only in
  let menu =
    match menu with
    | Some m -> m
    | None -> Menu.create ~faults:faults_v ?omit_budget ~policy config
  in
  let initial = Serial.initial ?omit_budget ~faults:faults_v config in
  (* One arena for every call, its round-1 state saved at the bottom of
     the snapshot stack: a call starts by restoring it, so its interned
     spines and snapshot slots carry over from call to call. A DFS cut
     short by the deadline leaves its own snapshots above the base, so
     the next call gets a fresh arena. *)
  let fresh () =
    let a = E.Arena.create config ~proposals in
    E.Arena.save a;
    a
  in
  let base = ref (fresh ()) in
  fun ?deadline ?prof ?(spans = Obs.Span.disabled) prefix ->
  let depth0 = horizon - List.length prefix in
  if depth0 < 0 then invalid_arg "Serial.fold: prefix longer than the horizon";
  let check = deadline_check deadline in
  let edges = ref 0 in
  let arena = !base in
  E.Arena.restore arena;
  let step_arena cplan =
    match prof with
    | None -> E.Arena.step arena cplan
    | Some a -> Obs.Prof.measure a (fun () -> E.Arena.step arena cplan)
  in
  (* Replay the prefix once, into the arena. A [Step_error] on a prefix
     round poisons the whole sweep: every leaf records the same crashed
     run, exactly what the from-scratch [sweep] observes, since a raise in
     round [r] depends only on the choice prefix up to [r]. *)
  let root_err = ref None in
  List.iter
    (fun choice ->
      match !root_err with
      | Some _ -> ()
      | None -> (
          incr edges;
          let cplan =
            Sim.Schedule.compile_plan ~n (Serial.plan_of config choice)
          in
          try step_arena cplan
          with Sim.Engine.Step_error e -> root_err := Some e))
    prefix;
  let root_node =
    Menu.node_of menu (List.fold_left Serial.advance initial prefix)
  in
  let acc = ref empty in
  (* The choice path below the prefix, filled in place as the DFS
     descends; a leaf materialises [prefix @ path] exactly once, like the
     per-leaf list [Serial.fold] used to build. *)
  let path = Array.make (max depth0 1) Serial.No_crash in
  let leaf_choices () = prefix @ Array.to_list (Array.sub path 0 depth0) in
  (* Branch discipline: one snapshot per expanded node, taken before its
     first child and restored before every later sibling; the last child
     leaves the arena wherever it ran to (possibly mid-round after a
     raise) and the parent's own snapshot covers the residue. Poisoned
     subtrees touch the arena not at all. *)
  let rec go depth node err =
    if depth = 0 then (
      check ();
      match err with
      | Some error -> acc := add_crashed !acc ~choices:(leaf_choices ()) ~error
      | None ->
          if Obs.Span.enabled spans then Obs.Span.enter spans "run";
          (match
             E.Arena.finish ~max_rounds ?prof
               ~schedule:node.Menu.leaf_schedule arena
           with
          | trace -> acc := add_run !acc ~choices:(leaf_choices ()) ~trace
          | exception Sim.Engine.Step_error error ->
              acc := add_crashed !acc ~choices:(leaf_choices ()) ~error);
          if Obs.Span.enabled spans then Obs.Span.exit spans)
    else
      let k = Array.length node.Menu.choices in
      match err with
      | Some _ ->
          for i = 0 to k - 1 do
            path.(depth0 - depth) <- node.Menu.choices.(i);
            go (depth - 1) (Menu.child menu node i) err
          done
      | None ->
          E.Arena.save arena;
          for i = 0 to k - 1 do
            if i > 0 then E.Arena.restore arena;
            path.(depth0 - depth) <- node.Menu.choices.(i);
            incr edges;
            let err' =
              try
                step_arena node.Menu.plans.(i);
                None
              with Sim.Engine.Step_error e -> Some e
            in
            go (depth - 1) (Menu.child menu node i) err'
          done;
          E.Arena.drop arena
  in
  (try go depth0 root_node !root_err
   with Expired ->
     acc := { !acc with expired = true };
     base := fresh ());
  (!acc, !edges)

(* The per-assignment task of a binary sweep ({!Sweep}), folded in
   assignment order over one shared menu, as a single domain of {!Sweep}
   runs it. *)
let sweep_binary_incremental ?(faults = Sim.Model.Crash_only) ?omit_budget
    ?(policy = Serial.Prefixes) ?horizon ~algo ~config () =
  let menu = Menu.create ~faults ?omit_budget ~policy config in
  List.fold_left
    (fun acc proposals ->
      merge acc
        (fst
           (sweep_prefix ~faults ?omit_budget ~policy ?horizon ~menu ~algo
              ~config ~proposals () [])))
    empty (binary_assignments config)

let pp_result ppf r =
  let undecided = r.min_decision = max_int in
  Format.fprintf ppf
    "@[<v>%d run(s)%s; global decision rounds in [%s, %s]; %d violation(s); \
     %d undecided@]"
    r.runs
    (if r.distinct_runs = r.runs then ""
     else Format.sprintf " (%d explored, rest from reduction)" r.distinct_runs)
    (if undecided then "-" else string_of_int r.min_decision)
    (if undecided && r.max_decision = 0 then "-"
     else string_of_int r.max_decision)
    (List.length r.violations)
    r.undecided_runs;
  if r.expired then
    Format.fprintf ppf
      "@,wall-clock budget expired: PARTIAL results (the counts above \
       account only for the explored part of the space)";
  if r.crashed <> [] then
    Format.fprintf ppf "@,%d crashed run(s), first: %a"
      (List.length r.crashed)
      Sim.Engine.pp_step_error
      (List.nth r.crashed (List.length r.crashed - 1)).error;
  List.iter
    (fun f ->
      Format.fprintf ppf "@,shard %d failed (%s): %s" f.shard f.context
        f.message)
    r.shard_failures
