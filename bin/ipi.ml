(* ipi — "the inherent price of indulgence" command-line driver.

   Subcommands:
     ipi list                      algorithms and experiments
     ipi experiments [NAME ...]    run all (or the named) experiments
     ipi run ...                   run one algorithm on one schedule
     ipi sweep ...                 exhaustive serial-schedule sweep
     ipi attack ...                run the lower-bound attacks *)

open Kernel

let std = Format.std_formatter

(* ------------------------------------------------------------------ *)
(* Arguments shared by subcommands                                      *)

let algo_arg =
  let doc = "Algorithm label (see `ipi list`)." in
  Cmdliner.Arg.(
    value & opt string "A(t+2)" & info [ "a"; "algo" ] ~docv:"LABEL" ~doc)

let n_arg =
  Cmdliner.Arg.(value & opt int 5 & info [ "n" ] ~docv:"N" ~doc:"Processes.")

let t_arg =
  Cmdliner.Arg.(
    value & opt int 2 & info [ "t" ] ~docv:"T" ~doc:"Crash resilience bound.")

let seed_arg =
  Cmdliner.Arg.(
    value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let faults_arg =
  Cmdliner.Arg.(
    value
    & opt
        (enum
           [
             ("crash", Sim.Model.Crash_only);
             ("send-omit", Sim.Model.Send_omit_only);
             ("recv-omit", Sim.Model.Recv_omit_only);
             ("mixed", Sim.Model.Mixed);
           ])
        Sim.Model.Crash_only
    & info [ "faults" ] ~docv:"MENU"
        ~doc:
          "Adversary fault menu: crash (default), send-omit (faulty \
           processes drop outgoing messages without crashing), recv-omit \
           (drop incoming), or mixed (crashes and omissions under a split \
           budget). Omission menus split the resilience bound t into \
           t_crash + t_omit, keeping the soundness rule t_crash + t_omit \
           <= t.")

let omit_budget_arg =
  Cmdliner.Arg.(
    value & opt int 1
    & info [ "omit-budget" ] ~docv:"N"
        ~doc:
          "Omission budget t_omit for the non-crash fault menus (default \
           1, clamped to t); with --faults mixed the crash side keeps \
           t - t_omit.")

let lookup_algo label =
  match Expt.Registry.find label with
  | Some entry -> entry
  | None ->
      Format.eprintf "unknown algorithm %S; try `ipi list`@." label;
      exit 2

(* The deliberately broken fuzz fixtures are not consensus algorithms, so
   they live outside the registry; `run` and `fuzz` accept them anyway so a
   fuzz counterexample can be replayed against the algorithm that produced
   it. *)
let lookup_fuzz_fixture ?(raise_at = 2) label =
  match label with
  | "eager-floodset" -> Some Fuzz.Faulty.eager_floodset
  | "raising" -> Some (Fuzz.Faulty.raising ~at:raise_at)
  | "raising-init" -> Some Fuzz.Faulty.raising_init
  | _ -> None

(* ------------------------------------------------------------------ *)
(* ipi list                                                             *)

let list_cmd =
  let run () =
    Format.fprintf std "Algorithms:@.";
    List.iter
      (fun e ->
        Format.fprintf std "  %-14s %-10s %s@." e.Expt.Registry.label
          (Sim.Model.to_string e.Expt.Registry.model)
          e.Expt.Registry.reference)
      Expt.Registry.all;
    Format.fprintf std "@.Experiments:@.";
    List.iter
      (fun e ->
        Format.fprintf std "  %-5s %s@." e.Expt.Suite.name e.Expt.Suite.title)
      Expt.Suite.all
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "list" ~doc:"List algorithms and experiments.")
    Cmdliner.Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* ipi experiments                                                      *)

let experiments_cmd =
  let names_arg =
    Cmdliner.Arg.(
      value & pos_all string []
      & info [] ~docv:"NAME" ~doc:"Experiment ids (default: all).")
  in
  let run names =
    let selected =
      match names with
      | [] -> Expt.Suite.all
      | names ->
          List.map
            (fun name ->
              match Expt.Suite.find name with
              | Some e -> e
              | None ->
                  Format.eprintf "unknown experiment %S; try `ipi list`@." name;
                  exit 2)
            names
    in
    List.iter
      (fun e ->
        e.Expt.Suite.run std;
        Format.fprintf std "@.")
      selected
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "experiments"
       ~doc:"Regenerate the paper's tables and figures.")
    Cmdliner.Term.(const run $ names_arg)

(* ------------------------------------------------------------------ *)
(* ipi run                                                              *)

let read_file path =
  try
    let ic = open_in path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  with Sys_error msg ->
    Format.eprintf "cannot read %s: %s@." path msg;
    exit 2

(* All machine-readable artifacts go through Obs.Artifact: the published
   path either holds the previous complete file or the new complete one,
   never a truncated prefix — even under SIGKILL or the chaos harness. *)
let write_file path write =
  try Obs.Artifact.write path write
  with Sys_error msg | Unix.Unix_error (_, _, msg) ->
    Format.eprintf "cannot write %s: %s@." path msg;
    exit 2

(* ------------------------------------------------------------------ *)
(* Progress/heartbeat wiring shared by sweep and fuzz                   *)

let progress_flag_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Live progress on stderr — items done, runs/s, dedup hit-rate, \
           ETA. A single rewriting line on a TTY, plain lines otherwise.")

let heartbeat_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "heartbeat" ] ~docv:"FILE"
        ~doc:
          "Write every progress snapshot to $(docv) as JSONL — a \
           machine-readable heartbeat for CI logs and dashboards.")

(* The meter plus a finalizer that emits the last (final=true) snapshot.
   Progress display never affects results — it only observes counts the
   drivers were already producing. The heartbeat JSONL is rewritten
   atomically on every emission: a reader (or `ipi heartbeat-check`) never
   sees a torn line, only complete snapshots up to some sequence number. *)
let make_progress ~label ~show ~heartbeat =
  if (not show) && heartbeat = None then (Obs.Progress.disabled, fun () -> ())
  else begin
    let hb_lines = Buffer.create 256 in
    let tty = show && Unix.isatty Unix.stderr in
    let emit snap =
      Option.iter
        (fun path ->
          Buffer.add_string hb_lines
            (Obs.Json.to_string (Obs.Progress.snapshot_to_json snap));
          Buffer.add_char hb_lines '\n';
          try Obs.Artifact.write_string path (Buffer.contents hb_lines)
          with Sys_error msg | Unix.Unix_error (_, _, msg) ->
            Format.eprintf "cannot write %s: %s@." path msg;
            exit 2)
        heartbeat;
      if show then
        let line = Obs.Progress.render snap in
        if tty then begin
          Printf.eprintf "\r\027[K%s%!" line;
          if snap.Obs.Progress.final then prerr_newline ()
        end
        else Printf.eprintf "%s\n%!" line
    in
    let t = Obs.Progress.create ~label ~emit () in
    (t, fun () -> Obs.Progress.finish t)
  end

let read_schedule_file path =
  let contents = read_file path in
  match Sim.Codec.decode contents with
  | Ok schedule -> schedule
  | Error msg ->
      Format.eprintf "cannot parse %s: %s@." path msg;
      exit 2

let schedule_of_name config ~seed ~gst = function
  | file when String.length file > 1 && file.[0] = '@' ->
      read_schedule_file (String.sub file 1 (String.length file - 1))
  | "quiet" -> Sim.Schedule.make ~model:Sim.Model.Es ~gst:Round.first []
  | "chain" -> Workload.Cascade.chain config
  | "coordkill2" -> Workload.Cascade.coordinator_killer config ~phase_rounds:2
  | "coordkill4" -> Workload.Cascade.coordinator_killer config ~phase_rounds:4
  | "witness" -> Mc.Attack.witness_schedule config
  | "solo" -> Mc.Attack.solo_split_schedule config
  | "random-sync" ->
      Workload.Random_runs.synchronous_with_delays (Rng.create ~seed) config ()
  | "random-es" ->
      Workload.Random_runs.eventually_synchronous (Rng.create ~seed) config
        ~gst ()
  | other ->
      Format.eprintf
        "unknown schedule %S (quiet|chain|coordkill2|coordkill4|witness|solo|random-sync|random-es)@."
        other;
      exit 2

let run_cmd =
  let schedule_arg =
    Cmdliner.Arg.(
      value & opt string "quiet"
      & info [ "s"; "schedule" ] ~docv:"SCHEDULE"
          ~doc:
            "quiet | chain | coordkill2 | coordkill4 | witness | solo | \
             random-sync | random-es")
  in
  let gst_arg =
    Cmdliner.Arg.(
      value & opt int 4
      & info [ "gst" ] ~docv:"GST" ~doc:"gst for random-es schedules.")
  in
  let diagram_arg =
    Cmdliner.Arg.(
      value & flag & info [ "d"; "diagram" ] ~doc:"Print the run diagram.")
  in
  let dump_arg =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "dump" ] ~docv:"FILE"
          ~doc:
            "Save the schedule to $(docv) in the text format `ipi run -s \
             @$(docv)` replays.")
  in
  let trace_file_arg =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Write the run's structured event log to $(docv).")
  in
  let trace_format_arg =
    Cmdliner.Arg.(
      value
      & opt (enum [ ("jsonl", `Jsonl); ("chrome", `Chrome) ]) `Jsonl
      & info [ "trace-format" ] ~docv:"FORMAT"
          ~doc:
            "Event-log format: jsonl (one event per line, replayable with \
             `ipi trace`) or chrome (trace_event JSON, viewable in \
             Perfetto).")
  in
  let metrics_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Count the run's events and print the metrics registry.")
  in
  let run label n t seed schedule_name gst diagram dump trace_file trace_format
      metrics =
    let config = Config.make ~n ~t in
    let algo =
      match lookup_fuzz_fixture label with
      | Some algo -> algo
      | None -> (lookup_algo label).Expt.Registry.algo
    in
    let schedule = schedule_of_name config ~seed ~gst schedule_name in
    (match Sim.Schedule.validate config schedule with
    | Ok () -> ()
    | Error e ->
        Format.eprintf "invalid schedule: %s@." e;
        exit 2);
    (match dump with
    | Some path ->
        write_file path (fun oc -> output_string oc (Sim.Codec.encode schedule));
        Format.fprintf std "schedule saved to %s@." path
    | None -> ());
    let mem_sink, drain =
      match trace_file with
      | Some _ ->
          let sink, drain = Obs.Sink.memory () in
          (sink, Some drain)
      | None -> (Obs.Sink.noop, None)
    in
    let registry = Obs.Metrics.create () in
    let sink =
      Obs.Sink.tee mem_sink
        (if metrics then Obs.Metrics.counting_sink registry else Obs.Sink.noop)
    in
    let prof = if metrics then Some (Obs.Prof.acc ()) else None in
    let trace =
      match
        Sim.Runner.run ~record:true ~sink ?prof algo config
          ~proposals:(Sim.Runner.distinct_proposals config)
          schedule
      with
      | trace -> trace
      | exception Sim.Engine.Step_error e ->
          Format.eprintf "algorithm crashed: %a@." Sim.Engine.pp_step_error e;
          exit 2
    in
    (* Traced runs also carry the §4 simulated failure-detector view. *)
    if Obs.Sink.enabled sink && trace.Sim.Trace.rounds_executed > 0 then
      ignore
        (Fd.Simulate.history ~sink config schedule
           ~rounds:trace.Sim.Trace.rounds_executed);
    Format.fprintf std "%a@." Sim.Trace.pp_summary trace;
    List.iter
      (fun v -> Format.fprintf std "VIOLATION: %a@." Sim.Props.pp_violation v)
      (Sim.Props.check trace);
    if diagram then Format.fprintf std "@.%a@." Sim.Trace.pp_diagram trace;
    (match (trace_file, drain) with
    | Some path, Some drain ->
        let events = drain () in
        write_file path (fun oc ->
            match trace_format with
            | `Jsonl -> Obs.Jsonl.to_channel oc events
            | `Chrome -> output_string oc (Obs.Chrome.to_string events));
        Format.fprintf std "event log (%d events) written to %s@."
          (List.length events) path
    | _ -> ());
    (match prof with
    | Some a -> Obs.Prof.flush a ~metrics:registry ~prefix:"sim" ~per:"round"
    | None -> ());
    if metrics then Format.fprintf std "@.metrics:@.%a@." Obs.Metrics.pp registry
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "run" ~doc:"Run one algorithm on one schedule.")
    Cmdliner.Term.(
      const run $ algo_arg $ n_arg $ t_arg $ seed_arg $ schedule_arg $ gst_arg
      $ diagram_arg $ dump_arg $ trace_file_arg $ trace_format_arg
      $ metrics_arg)

(* ------------------------------------------------------------------ *)
(* ipi trace                                                            *)

let trace_cmd =
  let file_arg =
    Cmdliner.Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"A JSONL event log saved by `ipi run --trace`.")
  in
  let run path =
    match Obs.Jsonl.parse (read_file path) with
    | Error e ->
        Format.eprintf "cannot parse %s: %s@." path e;
        exit 2
    | Ok events -> (
        match Obs.Replay.of_events events with
        | Error e ->
            Format.eprintf "cannot replay %s: %s@." path e;
            exit 2
        | Ok run ->
            Format.fprintf std "%a@.@.%a@." Obs.Replay.pp_summary run
              Obs.Replay.pp_diagram run)
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "trace"
       ~doc:
         "Replay a saved JSONL event log into the run summary and ASCII \
          space/time diagram, without re-executing anything.")
    Cmdliner.Term.(const run $ file_arg)

(* ------------------------------------------------------------------ *)
(* ipi attack                                                           *)

let attack_cmd =
  let run label n t =
    let config = Config.make ~n ~t in
    let entry = lookup_algo label in
    let report = Mc.Attack.run_witness entry.Expt.Registry.algo config in
    Format.fprintf std "%a@.@." Mc.Attack.pp_report report;
    Format.fprintf std "%a@." Sim.Trace.pp_diagram report.Mc.Attack.trace;
    if report.Mc.Attack.violations = [] then
      Format.fprintf std "@.%s survives the lower-bound construction.@." label
    else exit 1
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "attack"
       ~doc:"Run the proof-guided ES attack against an algorithm.")
    Cmdliner.Term.(const run $ algo_arg $ n_arg $ t_arg)

(* ------------------------------------------------------------------ *)
(* ipi sweep / sweep-worker — shared shape flags and crash-safety
   plumbing                                                             *)

let binary_arg =
  Cmdliner.Arg.(
    value & flag
    & info [ "binary" ]
        ~doc:
          "Sweep all 2^n binary proposal assignments instead of the \
           single distinct-values assignment.")

let policy_arg =
  Cmdliner.Arg.(
    value
    & opt
        (enum
           [
             ("prefixes", Mc.Serial.Prefixes);
             ("all-subsets", Mc.Serial.All_subsets);
           ])
        Mc.Serial.Prefixes
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:
          "Receiver sets per crash: prefixes (polynomial branching, \
           default) or all-subsets (exact, exponential).")

let horizon_arg =
  Cmdliner.Arg.(
    value
    & opt (some int) None
    & info [ "horizon" ] ~docv:"ROUNDS"
        ~doc:"Crash horizon in rounds (default t + 2).")

let table_cap_arg =
  Cmdliner.Arg.(
    value
    & opt (some int) None
    & info [ "table-cap" ] ~docv:"N"
        ~doc:
          "Bound the dedup transposition table to $(docv) in-memory \
           entries; overflow entries go to --spill-dir when given, \
           otherwise the overflow is not memoized (aggregates are \
           bit-identical either way). --reduce dedup only.")

let spill_dir_arg =
  Cmdliner.Arg.(
    value
    & opt (some string) None
    & info [ "spill-dir" ] ~docv:"DIR"
        ~doc:
          "Spill transposition entries over --table-cap to a temporary \
           file in $(docv), keeping memoization exact under a bounded \
           heap.")

let faults_flag = function
  | Sim.Model.Crash_only -> "crash"
  | Sim.Model.Send_omit_only -> "send-omit"
  | Sim.Model.Recv_omit_only -> "recv-omit"
  | Sim.Model.Mixed -> "mixed"

let policy_flag = function
  | Mc.Serial.Prefixes -> "prefixes"
  | Mc.Serial.All_subsets -> "all-subsets"

let dreduce_flag = function
  | Mc.Distrib.Rnone -> "none"
  | Mc.Distrib.Rdedup -> "dedup"

let distrib_spec ~algo ~config ~faults ~omit_budget ~policy ~horizon ~binary
    ~reduce ~table_cap ~spill_dir =
  {
    Mc.Distrib.faults;
    omit_budget = Some omit_budget;
    policy;
    horizon;
    algo;
    config;
    reduce;
    scope =
      (if binary then Mc.Distrib.Binary
       else Mc.Distrib.Fixed (Sim.Runner.distinct_proposals config));
    table_cap;
    spill_dir;
  }

(* The checkpoint's identity block: everything that shapes the task list
   or the per-task results. A snapshot resumes only a sweep with the same
   parameters (canonical JSON equality in Checkpoint.compatible). *)
let sweep_params ~label ~n ~t ~faults ~omit_budget ~horizon ~binary ~policy
    ~reduce =
  Obs.Json.Obj
    [
      ("kind", Obs.Json.String "sweep");
      ("algo", Obs.Json.String label);
      ("n", Obs.Json.Int n);
      ("t", Obs.Json.Int t);
      ("faults", Obs.Json.String (faults_flag faults));
      ("omit_budget", Obs.Json.Int omit_budget);
      ("policy", Obs.Json.String (policy_flag policy));
      ( "horizon",
        match horizon with Some h -> Obs.Json.Int h | None -> Obs.Json.Null );
      ("scope", Obs.Json.String (if binary then "binary" else "fixed"));
      ("reduce", Obs.Json.String (dreduce_flag reduce));
    ]

(* The supervised driver respawns workers as this exact invocation: the
   flags mirror the parent's sweep shape, so a worker computes the same
   tasks the parent would. *)
let sweep_worker_argv ~label ~n ~t ~faults ~omit_budget ~policy ~horizon
    ~binary ~reduce ~table_cap ~spill_dir =
  [
    Sys.executable_name;
    "sweep-worker";
    "-a";
    label;
    "-n";
    string_of_int n;
    "-t";
    string_of_int t;
    "--faults";
    faults_flag faults;
    "--omit-budget";
    string_of_int omit_budget;
    "--policy";
    policy_flag policy;
    "--reduce";
    dreduce_flag reduce;
  ]
  @ (match horizon with Some h -> [ "--horizon"; string_of_int h ] | None -> [])
  @ (if binary then [ "--binary" ] else [])
  @ (match table_cap with
    | Some c -> [ "--table-cap"; string_of_int c ]
    | None -> [])
  @ match spill_dir with Some d -> [ "--spill-dir"; d ] | None -> []

(* ------------------------------------------------------------------ *)
(* ipi sweep                                                            *)

let sweep_cmd =
  let jobs_arg =
    Cmdliner.Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains for the sweep; 0 means one per recommended \
             core. The result is bit-identical to --jobs 1.")
  in
  let reduce_arg =
    Cmdliner.Arg.(
      value
      & opt
          (enum [ ("none", `None); ("dedup", `Dedup); ("dedup+sym", `Sym) ])
          `None
      & info [ "reduce" ] ~docv:"RED"
          ~doc:
            "State-space reduction: none (default), dedup (transposition \
             table over canonical state fingerprints; bit-identical \
             verdicts), or dedup+sym (additionally collapse --binary \
             assignments to the n+1 proposal-count orbits when the \
             algorithm is symmetric; exact aggregates, one witness per \
             orbit).")
  in
  let metrics_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Print the sweep's metrics registry, including the \
             allocation-probe histograms (mc.minor_words_per_round — the \
             checker-core rate, one interval per arena DFS round over the \
             distinct work — and mc.minor_words_per_sweep) and — with \
             --jobs > 1 — the par.* worker-utilization gauges.")
  in
  let trace_file_arg =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write the sweep's profiling spans (sweep > shard > run \
             nesting, with per-span GC deltas) to $(docv).")
  in
  let trace_format_arg =
    Cmdliner.Arg.(
      value
      & opt (enum [ ("chrome", `Chrome); ("jsonl", `Jsonl) ]) `Chrome
      & info [ "trace-format" ] ~docv:"FORMAT"
          ~doc:
            "Span-trace format: chrome (trace_event JSON, viewable in \
             Perfetto; shards appear as tracks) or jsonl (one span per \
             line).")
  in
  let budget_arg =
    Cmdliner.Arg.(
      value
      & opt (some float) None
      & info [ "budget" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget for the sweep. On expiry the sweep stops at \
             the next run boundary and reports the partial result \
             (explored runs and everything accounted so far), exiting 3 \
             instead of 0; violations already found still exit 1.")
  in
  let checkpoint_arg =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "Snapshot completed shards to $(docv) (atomic tmp+rename) \
             every --checkpoint-every shards and once more on exit — \
             normal, SIGINT/SIGTERM, or --budget expiry — so an \
             interrupted sweep resumes with --resume $(docv).")
  in
  let checkpoint_every_arg =
    Cmdliner.Arg.(
      value & opt int 8
      & info [ "checkpoint-every" ] ~docv:"N"
          ~doc:"Shards between periodic checkpoint snapshots (default 8).")
  in
  let resume_arg =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Seed completed shards from a checkpoint written by \
             --checkpoint; only the pending shards are recomputed, and the \
             final aggregates are bit-identical to an undisturbed sweep. \
             The snapshot must describe the same sweep parameters.")
  in
  let workers_arg =
    Cmdliner.Arg.(
      value & opt int 0
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Shard the sweep across $(docv) supervised worker processes \
             (`ipi sweep-worker`) with heartbeats, per-shard timeouts, \
             bounded retry and work reassignment on worker death; the \
             merged aggregates are bit-identical to the serial sweep for \
             any worker count. 0 or 1 keeps the sweep in-process.")
  in
  let chaos_arg =
    Cmdliner.Arg.(
      value
      & opt
          (some
             (enum
                [
                  ("kill", Mc.Supervise.Kill);
                  ("stall", Mc.Supervise.Stall);
                  ("slow", Mc.Supervise.Slow);
                ]))
          None
      & info [ "chaos" ] ~docv:"MODE"
          ~doc:
            "Inject seeded faults into the --workers pool to exercise the \
             supervisor: kill (SIGKILL a worker mid-shard), stall \
             (SIGSTOP; the chunk timeout must rescue it) or slow (SIGSTOP \
             then SIGCONT). The fault budget is bounded, so a chaos-ridden \
             sweep still completes — bit-identical to an undisturbed one.")
  in
  let chaos_seed_arg =
    Cmdliner.Arg.(
      value & opt int 1
      & info [ "chaos-seed" ] ~docv:"SEED"
          ~doc:"Seed for the --chaos fault injector (default 1).")
  in
  let chunk_timeout_arg =
    Cmdliner.Arg.(
      value & opt float 60.
      & info [ "chunk-timeout" ] ~docv:"SECONDS"
          ~doc:
            "Per-shard deadline under --workers: a worker silent past it \
             is killed and its shard reassigned (default 60).")
  in
  let run label n t faults omit_budget jobs binary policy horizon reduce
      budget_s checkpoint checkpoint_every resume_path workers chaos_mode
      chaos_seed chunk_timeout table_cap spill_dir print_metrics show_progress
      heartbeat trace_file trace_format =
    let config = Config.make ~n ~t in
    let entry = lookup_algo label in
    let algo = entry.Expt.Registry.algo in
    let jobs = if jobs = 0 then Par.default_jobs () else jobs in
    let deadline = Option.map (fun b -> Unix.gettimeofday () +. b) budget_s in
    let registry = Obs.Metrics.create () in
    let metrics = registry in
    let progress, finish_progress =
      make_progress ~label:"sweep" ~show:show_progress ~heartbeat
    in
    let distributed =
      workers > 1 || checkpoint <> None || resume_path <> None
      || chaos_mode <> None || table_cap <> None || spill_dir <> None
    in
    if distributed then begin
      (* The crash-safe drivers: checkpointed in-process execution, or a
         supervised multi-process pool. Both shard at the same granularity
         as the domain-parallel driver and merge in task order, so the
         aggregates are bit-identical to the plain serial sweep. *)
      let reduce =
        match reduce with
        | `None -> Mc.Distrib.Rnone
        | `Dedup -> Mc.Distrib.Rdedup
        | `Sym ->
            Format.eprintf
              "dedup+sym sweeps are not distributed: drop --reduce \
               dedup+sym or the \
               --workers/--checkpoint/--resume/--chaos/--table-cap flags@.";
            exit 2
      in
      let spec =
        distrib_spec ~algo ~config ~faults ~omit_budget ~policy ~horizon
          ~binary ~reduce ~table_cap ~spill_dir
      in
      let params =
        sweep_params ~label ~n ~t ~faults ~omit_budget ~horizon ~binary
          ~policy ~reduce
      in
      let resume =
        Option.map
          (fun path ->
            match Mc.Checkpoint.load ~path with
            | Ok ck -> ck
            | Error e ->
                Format.eprintf "%a@." Mc.Checkpoint.pp_load_error e;
                exit 2)
          resume_path
      in
      let ckpt = Option.map (fun p -> (p, checkpoint_every)) checkpoint in
      (* SIGINT/SIGTERM request a stop; the driver finishes the shard
         boundary, flushes a final checkpoint, and we exit 3 (PARTIAL)
         below — the same path --budget expiry takes. *)
      let stop = ref false in
      List.iter
        (fun s ->
          try Sys.set_signal s (Sys.Signal_handle (fun _ -> stop := true))
          with Invalid_argument _ | Sys_error _ -> ())
        [ Sys.sigint; Sys.sigterm ];
      let should_stop () =
        !stop
        ||
        match deadline with
        | Some d -> Unix.gettimeofday () > d
        | None -> false
      in
      let chaos =
        Option.map
          (fun mode -> Mc.Supervise.default_chaos mode ~seed:chaos_seed)
          chaos_mode
      in
      let outcome =
        if workers > 1 then
          Mc.Distrib.run_supervised ?resume ?checkpoint:ckpt ~should_stop
            ?chaos ~chunk_timeout ~progress ~workers
            ~worker_argv:
              (sweep_worker_argv ~label ~n ~t ~faults ~omit_budget ~policy
                 ~horizon ~binary ~reduce ~table_cap ~spill_dir)
            ~params spec
        else
          Mc.Distrib.run_serial ?resume ?checkpoint:ckpt ~should_stop
            ?deadline ~progress ~params spec
      in
      finish_progress ();
      match outcome with
      | Error msg ->
          Format.eprintf "%s@." msg;
          exit 2
      | Ok r ->
          let result = r.Mc.Distrib.result in
          Format.fprintf std "%a@." Mc.Exhaustive.pp_result result;
          (match r.Mc.Distrib.stats with
          | Some s -> Format.fprintf std "reduction: %a@." Mc.Dedup.pp_stats s
          | None -> ());
          (match result.Mc.Exhaustive.max_witness with
          | Some choices ->
              Format.fprintf std "worst run: %a@."
                (Format.pp_print_list
                   ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
                   Mc.Serial.pp_choice)
                choices
          | None -> ());
          (match r.Mc.Distrib.sup_metrics with
          | Some m ->
              Format.fprintf std "supervisor: %a@." Mc.Supervise.pp_metrics m
          | None -> ());
          (match checkpoint with
          | Some path ->
              Format.fprintf std "checkpoint (%d/%d shards) written to %s@."
                (List.length r.Mc.Distrib.completed)
                r.Mc.Distrib.total_tasks path
          | None -> ());
          if result.Mc.Exhaustive.violations <> [] then exit 1;
          if r.Mc.Distrib.partial || result.Mc.Exhaustive.expired then exit 3
    end
    else begin
    let spans =
      match trace_file with
      | Some _ -> Obs.Span.recorder ()
      | None -> Obs.Span.disabled
    in
    (* Two probe granularities: [round_acc] rides inside the sweeps (one
       interval per engine round over the distinct work), [sweep_acc]
       brackets the whole dispatch. *)
    let round_acc = if print_metrics then Some (Obs.Prof.acc ()) else None in
    let sweep_acc = if print_metrics then Some (Obs.Prof.acc ()) else None in
    let dedup_stats = ref None in
    let reduced r (s : Mc.Dedup.stats) =
      dedup_stats := Some s;
      r
    in
    let prof = round_acc in
    let dispatch () =
      if binary then
        match reduce with
        | `Sym ->
            let r, s =
              if jobs > 1 then
                Mc.Parallel.sweep_binary_sym ~faults ~omit_budget ?deadline
                  ~policy ~metrics ?prof ~spans ~progress ~jobs ?horizon
                  ~algo ~config ()
              else
                Mc.Symmetry.sweep_binary ~faults ~omit_budget ?deadline
                  ~policy ~metrics ?horizon ?prof ~spans ~progress ~algo
                  ~config ()
            in
            reduced r s
        | `Dedup ->
            let r, s =
              if jobs > 1 then
                Mc.Parallel.sweep_binary_dedup ~faults ~omit_budget ?deadline
                  ~policy ~metrics ?prof ~spans ~progress ~jobs ?horizon
                  ~algo ~config ()
              else
                Mc.Dedup.sweep_binary ~faults ~omit_budget ?deadline ~policy
                  ~metrics ?horizon ?prof ~spans ~progress ~algo ~config ()
            in
            reduced r s
        | `None ->
            if jobs > 1 then
              Mc.Parallel.sweep_binary ~faults ~omit_budget ?deadline ~policy
                ~metrics ?prof ~spans ~progress ~jobs ?horizon ~algo ~config
                ()
            else
              Mc.Exhaustive.sweep_binary_incremental ~faults ~omit_budget
                ?deadline ~policy ~metrics ?horizon ?prof ~spans ~progress
                ~algo ~config ()
      else begin
        let proposals = Sim.Runner.distinct_proposals config in
        match reduce with
        | `Dedup | `Sym ->
            (* Symmetry reduces proposal assignments, so on a single fixed
               assignment dedup+sym degrades to dedup. *)
            let r, s =
              if jobs > 1 then
                Mc.Parallel.sweep_dedup ~faults ~omit_budget ?deadline
                  ~policy ~metrics ?prof ~spans ~progress ~jobs ?horizon
                  ~algo ~config ~proposals ()
              else
                Mc.Dedup.sweep ~faults ~omit_budget ?deadline ~policy
                  ~metrics ?horizon ?prof ~spans ~progress ~algo ~config
                  ~proposals ()
            in
            reduced r s
        | `None ->
            if jobs > 1 then
              Mc.Parallel.sweep ~faults ~omit_budget ?deadline ~policy
                ~metrics ?prof ~spans ~progress ~jobs ?horizon ~algo ~config
                ~proposals ()
            else
              Mc.Exhaustive.sweep_incremental ~faults ~omit_budget ?deadline
                ~policy ~metrics ?horizon ?prof ~spans ~progress ~algo
                ~config ~proposals ()
      end
    in
    let result =
      match sweep_acc with
      | None -> dispatch ()
      | Some a -> Obs.Prof.measure a dispatch
    in
    finish_progress ();
    (match trace_file with
    | Some path ->
        let records = Obs.Span.records spans in
        write_file path (fun oc ->
            match trace_format with
            | `Chrome -> output_string oc (Obs.Chrome.spans_to_string records)
            | `Jsonl ->
                List.iter
                  (fun r ->
                    output_string oc
                      (Obs.Json.to_string (Obs.Span.record_to_json r));
                    output_char oc '\n')
                  records);
        Format.fprintf std "trace (%d spans) written to %s@."
          (List.length records) path
    | None -> ());
    (* The per-round histogram lands under [mc]: these are checker-core
       branch rounds (arena DFS steps over the distinct work), not plain
       simulator runs — [ipi run --metrics] keeps [sim] for those. *)
    (match round_acc with
    | Some a -> Obs.Prof.flush a ~metrics:registry ~prefix:"mc" ~per:"round"
    | None -> ());
    (match sweep_acc with
    | Some a -> Obs.Prof.flush a ~metrics:registry ~prefix:"mc" ~per:"sweep"
    | None -> ());
    Format.fprintf std "%a@." Mc.Exhaustive.pp_result result;
    (match !dedup_stats with
    | Some s -> Format.fprintf std "reduction: %a@." Mc.Dedup.pp_stats s
    | None -> ());
    (match result.Mc.Exhaustive.max_witness with
    | Some choices ->
        Format.fprintf std "worst run: %a@."
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
             Mc.Serial.pp_choice)
          choices
    | None -> ());
    if print_metrics then
      Format.fprintf std "@.metrics:@.%a@." Obs.Metrics.pp registry;
    if result.Mc.Exhaustive.violations <> [] then exit 1;
    if result.Mc.Exhaustive.expired then exit 3
    end
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "sweep"
       ~doc:
         "Exhaustively sweep every serial schedule up to a crash horizon \
          and report worst-case decision rounds and violations; non-zero \
          exit if any run violates consensus.")
    Cmdliner.Term.(
      const run $ algo_arg $ n_arg $ t_arg $ faults_arg $ omit_budget_arg
      $ jobs_arg $ binary_arg $ policy_arg $ horizon_arg
      $ reduce_arg $ budget_arg $ checkpoint_arg $ checkpoint_every_arg
      $ resume_arg $ workers_arg $ chaos_arg $ chaos_seed_arg
      $ chunk_timeout_arg $ table_cap_arg $ spill_dir_arg $ metrics_arg
      $ progress_flag_arg $ heartbeat_arg $ trace_file_arg
      $ trace_format_arg)

(* ------------------------------------------------------------------ *)
(* ipi sweep-worker                                                     *)

let sweep_worker_cmd =
  let reduce_arg =
    Cmdliner.Arg.(
      value
      & opt
          (enum [ ("none", Mc.Distrib.Rnone); ("dedup", Mc.Distrib.Rdedup) ])
          Mc.Distrib.Rnone
      & info [ "reduce" ] ~docv:"RED"
          ~doc:"State-space reduction, as for `ipi sweep` (none or dedup).")
  in
  let run label n t faults omit_budget binary policy horizon reduce table_cap
      spill_dir =
    let config = Config.make ~n ~t in
    let algo = (lookup_algo label).Expt.Registry.algo in
    let spec =
      distrib_spec ~algo ~config ~faults ~omit_budget ~policy ~horizon ~binary
        ~reduce ~table_cap ~spill_dir
    in
    try Mc.Distrib.worker_loop spec stdin stdout
    with Failure msg ->
      Format.eprintf "%s@." msg;
      exit 2
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "sweep-worker"
       ~doc:
         "One supervised sweep shard executor: read task frames from \
          stdin, run each shard, write result frames to stdout. Spawned \
          by `ipi sweep --workers`; not meant for interactive use.")
    Cmdliner.Term.(
      const run $ algo_arg $ n_arg $ t_arg $ faults_arg $ omit_budget_arg
      $ binary_arg $ policy_arg $ horizon_arg $ reduce_arg $ table_cap_arg
      $ spill_dir_arg)

(* ------------------------------------------------------------------ *)
(* ipi heartbeat-check                                                  *)

let heartbeat_check_cmd =
  let file_arg =
    Cmdliner.Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"A heartbeat JSONL written by `--heartbeat $(docv)`.")
  in
  let max_age_arg =
    Cmdliner.Arg.(
      value & opt int 5
      & info [ "max-age-items" ] ~docv:"N"
          ~doc:
            "Staleness budget in work items: the file's age must not \
             exceed the time the writer needs for $(docv) items at its \
             own observed rate (default 5).")
  in
  let run path max_age_items =
    if max_age_items < 1 then begin
      Format.eprintf "--max-age-items must be >= 1@.";
      exit 2
    end;
    let lines =
      String.split_on_char '\n' (read_file path)
      |> List.filter (fun l -> String.trim l <> "")
    in
    let snaps =
      List.mapi
        (fun i line ->
          let parsed =
            match Obs.Json.of_string line with
            | Error _ as e -> e
            | Ok json -> Obs.Progress.snapshot_of_json json
          in
          match parsed with
          | Ok snap -> snap
          | Error e ->
              Format.eprintf "cannot parse %s line %d: %s@." path (i + 1) e;
              exit 2)
        lines
    in
    let mtime =
      match Unix.stat path with
      | st -> st.Unix.st_mtime
      | exception Unix.Unix_error (e, _, _) ->
          Format.eprintf "cannot stat %s: %s@." path (Unix.error_message e);
          exit 2
    in
    match
      Obs.Progress.check_heartbeat
        ~now:(Unix.gettimeofday ())
        ~mtime ~max_age_items snaps
    with
    | Ok () ->
        let last = List.nth snaps (List.length snaps - 1) in
        Format.fprintf std "heartbeat ok: seq %d, %d items%s@."
          last.Obs.Progress.seq last.Obs.Progress.items
          (if last.Obs.Progress.final then " (final)" else "")
    | Error msg ->
        Format.eprintf "%s@." msg;
        exit 1
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "heartbeat-check"
       ~doc:
         "Probe a --heartbeat JSONL file for liveness: sequence numbers \
          must strictly increase, and unless the stream is final the file \
          must have been written recently enough for the writer's own \
          observed rate. Exit 1 on a stale or malformed heartbeat.")
    Cmdliner.Term.(const run $ file_arg $ max_age_arg)

(* ------------------------------------------------------------------ *)
(* ipi fuzz                                                             *)

let fuzz_cmd =
  let runs_arg =
    Cmdliner.Arg.(
      value & opt int 200
      & info [ "r"; "runs" ] ~docv:"N" ~doc:"Schedules per campaign.")
  in
  let jobs_arg =
    Cmdliner.Arg.(
      value & opt int 1
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains; 0 means one per recommended core. The report \
             is bit-identical across values (unless --budget expires).")
  in
  let fuel_arg =
    Cmdliner.Arg.(
      value
      & opt (some int) None
      & info [ "fuel" ] ~docv:"ROUNDS"
          ~doc:
            "Round budget per run (default: the engine bound for each \
             schedule); exhausting it is reported as a budget-exhausted \
             outcome, not an error.")
  in
  let budget_arg =
    Cmdliner.Arg.(
      value
      & opt (some float) None
      & info [ "budget" ] ~docv:"SECONDS"
          ~doc:
            "Wall-clock budget; runs not started before it expires are \
             skipped (and reported as such).")
  in
  let shrink_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "shrink" ]
          ~doc:"Minimize every finding to a 1-minimal schedule.")
  in
  let no_monitor_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "no-monitor" ]
          ~doc:
            "Disable the online monitor (violations then surface from the \
             post-hoc check only); for overhead measurements.")
  in
  let gen_arg =
    Cmdliner.Arg.(
      value
      & opt
          (enum
             [
               ("mix", `Mix);
               ("sync", `Sync);
               ("sync-delays", `Sync_delays);
               ("es", `Es);
               ("mutate", `Mutate);
             ])
          `Mix
      & info [ "gen" ] ~docv:"GEN"
          ~doc:
            "Schedule generator: mix (default), sync, sync-delays, es, or \
             mutate (perturb the --base schedule).")
  in
  let base_arg =
    Cmdliner.Arg.(
      value & opt string "chain"
      & info [ "base" ] ~docv:"SCHEDULE"
          ~doc:
            "Seed schedule for --gen mutate: any name `ipi run -s` \
             accepts, including $(i,@FILE).")
  in
  let gst_arg =
    Cmdliner.Arg.(
      value & opt int 3
      & info [ "gst" ] ~docv:"GST" ~doc:"gst for --gen es schedules.")
  in
  let raise_at_arg =
    Cmdliner.Arg.(
      value & opt int 2
      & info [ "raise-at" ] ~docv:"ROUND"
          ~doc:"Round from which the `raising` fixture algorithm raises.")
  in
  let metrics_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "metrics" ] ~doc:"Print the campaign's metrics registry.")
  in
  let out_arg =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Write the report (counterexamples as replayable Codec \
             strings) as JSON to $(docv).")
  in
  let expect_clean_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "expect-clean" ]
          ~doc:
            "Exit non-zero when the campaign has any finding. Without \
             this flag findings are data, not errors.")
  in
  let lookup_fuzz_algo label ~raise_at =
    match lookup_fuzz_fixture ~raise_at label with
    | Some algo -> algo
    | None -> (lookup_algo label).Expt.Registry.algo
  in
  let run label n t faults omit_budget seed runs jobs fuel budget_s shrink
      no_monitor gen_name base gst raise_at print_metrics out expect_clean
      show_progress heartbeat =
    let config = Config.make ~n ~t in
    let algo = lookup_fuzz_algo label ~raise_at in
    let jobs = if jobs = 0 then Par.default_jobs () else jobs in
    let gen : Fuzz.Campaign.gen =
      match (gen_name, faults) with
      (* Mutation campaigns keep their seed schedule whatever the menu —
         the omission operators explore the neighbourhood on their own. *)
      | `Mutate, _ ->
          Fuzz.Campaign.mutation_gen
            ~base:(schedule_of_name config ~seed ~gst base)
      | _, (Sim.Model.Send_omit_only | Sim.Model.Recv_omit_only | Sim.Model.Mixed)
        ->
          fun config rng ->
            Workload.Random_runs.with_omissions rng config ~faults ~omit_budget
              ()
      | `Mix, Sim.Model.Crash_only -> Fuzz.Campaign.default_gen
      | `Sync, Sim.Model.Crash_only ->
          fun config rng -> Workload.Random_runs.synchronous rng config ()
      | `Sync_delays, Sim.Model.Crash_only ->
          fun config rng ->
            Workload.Random_runs.synchronous_with_delays rng config ()
      | `Es, Sim.Model.Crash_only ->
          fun config rng ->
            Workload.Random_runs.eventually_synchronous rng config ~gst ()
    in
    let registry = Obs.Metrics.create () in
    let progress, finish_progress =
      make_progress ~label:"fuzz" ~show:show_progress ~heartbeat
    in
    let run_acc = if print_metrics then Some (Obs.Prof.acc ()) else None in
    let report =
      Fuzz.Campaign.run ~metrics:registry ~jobs ?fuel ?budget_s ~shrink
        ~monitor:(not no_monitor) ?prof:run_acc ~progress ~seed ~runs ~algo
        ~config
        ~proposals:(Sim.Runner.distinct_proposals config)
        ~gen ()
    in
    finish_progress ();
    (match run_acc with
    | Some a -> Obs.Prof.flush a ~metrics:registry ~prefix:"fuzz" ~per:"run"
    | None -> ());
    Format.fprintf std "%a@." Fuzz.Campaign.pp_report report;
    List.iter
      (fun f -> Format.fprintf std "@.%a@." Fuzz.Campaign.pp_finding f)
      report.Fuzz.Campaign.findings;
    (match out with
    | Some path ->
        let json =
          Fuzz.Campaign.to_json
            ~meta:
              [
                ("algo", Obs.Json.String label);
                ("n", Obs.Json.Int n);
                ("t", Obs.Json.Int t);
                ("seed", Obs.Json.Int seed);
                ("jobs", Obs.Json.Int jobs);
              ]
            report
        in
        write_file path (fun oc -> output_string oc (Obs.Json.to_string json));
        Format.fprintf std "@.report written to %s@." path
    | None -> ());
    if print_metrics then
      Format.fprintf std "@.metrics:@.%a@." Obs.Metrics.pp registry;
    if expect_clean && report.Fuzz.Campaign.findings <> [] then exit 1
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "fuzz"
       ~doc:
         "Run a seed-reproducible randomized campaign: generate schedules, \
          execute each under an online safety monitor with fault \
          containment and a round budget, optionally shrink every finding \
          to a 1-minimal counterexample.")
    Cmdliner.Term.(
      const run $ algo_arg $ n_arg $ t_arg $ faults_arg $ omit_budget_arg
      $ seed_arg $ runs_arg $ jobs_arg $ fuel_arg $ budget_arg $ shrink_arg
      $ no_monitor_arg $ gen_arg $ base_arg $ gst_arg $ raise_at_arg
      $ metrics_arg $ out_arg $ expect_clean_arg $ progress_flag_arg
      $ heartbeat_arg)

(* ------------------------------------------------------------------ *)
(* ipi figure1                                                          *)

let figure1_cmd =
  let run n t =
    let config = Config.make ~n ~t in
    let outcome = Mc.Figure1.against_floodset_ws config in
    Format.fprintf std "%a@." Mc.Figure1.pp_outcome outcome;
    Format.fprintf std "@.The five schedules:@.";
    List.iter
      (fun (name, s) ->
        Format.fprintf std "@.--- %s ---@.%s" name (Sim.Codec.encode s))
      [
        ("s1", outcome.Mc.Figure1.s1);
        ("s0", outcome.Mc.Figure1.s0);
        ("a2", outcome.Mc.Figure1.a2);
        ("a1", outcome.Mc.Figure1.a1);
        ("a0", outcome.Mc.Figure1.a0);
      ];
    if not (Mc.Figure1.all_hold outcome) then exit 1
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "figure1"
       ~doc:
         "Build and machine-check the five-run lower-bound construction of \
          the paper's Fig. 1 against FloodSetWS.")
    Cmdliner.Term.(const run $ n_arg $ t_arg)

(* ------------------------------------------------------------------ *)
(* ipi bench-diff                                                       *)

let bench_diff_cmd =
  let old_arg =
    Cmdliner.Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"OLD"
          ~doc:
            "Baseline bench artifact — a BENCH_<date>.json or the \
             committed bench/BASELINE.json.")
  in
  let new_arg =
    Cmdliner.Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"NEW" ~doc:"Candidate bench artifact to compare.")
  in
  let threshold_arg =
    Cmdliner.Arg.(
      value & opt float 1.25
      & info [ "threshold" ] ~docv:"RATIO"
          ~doc:
            "Time-regression bar: a matched row regresses when new/old \
             mean exceeds $(docv) and the absolute delta clears the \
             2-sigma noise guard.")
  in
  let alloc_threshold_arg =
    Cmdliner.Arg.(
      value & opt float 1.10
      & info [ "alloc-threshold" ] ~docv:"RATIO"
          ~doc:
            "Allocation-regression bar on the minor-words ratio (rows \
             under 1000 words are never flagged).")
  in
  let warn_only_arg =
    Cmdliner.Arg.(
      value & flag
      & info [ "warn-only" ]
          ~doc:"Print the diff but exit 0 even on regressions.")
  in
  let out_arg =
    Cmdliner.Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Also write the diff report as JSON to $(docv).")
  in
  let run old_path new_path threshold alloc_threshold warn_only out =
    let artifact path =
      match Stats.Bench_diff.artifact_of_string (read_file path) with
      | Ok a -> a
      | Error e ->
          Format.eprintf "cannot parse %s: %s@." path e;
          exit 2
    in
    let report =
      Stats.Bench_diff.diff ~threshold ~alloc_threshold
        ~old_:(artifact old_path) ~new_:(artifact new_path) ()
    in
    Format.fprintf std "%a@." Stats.Bench_diff.pp report;
    (match out with
    | Some path ->
        write_file path (fun oc ->
            output_string oc
              (Obs.Json.to_string (Stats.Bench_diff.to_json report));
            output_char oc '\n');
        Format.fprintf std "diff report written to %s@." path
    | None -> ());
    if (not warn_only) && Stats.Bench_diff.regressions report <> [] then
      exit 1
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "bench-diff"
       ~doc:
         "Diff two bench artifacts row by row (wall-clock and allocation \
          trajectories) and exit non-zero when any matched row regresses \
          past the thresholds.")
    Cmdliner.Term.(
      const run $ old_arg $ new_arg $ threshold_arg $ alloc_threshold_arg
      $ warn_only_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* ipi verify                                                           *)

let verify_cmd =
  let run () =
    Format.fprintf std "re-checking every headline claim of the paper...@.";
    if not (Expt.Verify.print std (Expt.Verify.run ())) then exit 1
  in
  Cmdliner.Cmd.v
    (Cmdliner.Cmd.info "verify"
       ~doc:
         "Re-run the reproduction certificate: every headline claim, \
          checked against fresh simulations; non-zero exit on any \
          mismatch.")
    Cmdliner.Term.(const run $ const ())

let () =
  let info =
    Cmdliner.Cmd.info "ipi" ~version:"1.0.0"
      ~doc:
        "The inherent price of indulgence (Dutta & Guerraoui, PODC 2002): \
         simulator, algorithms, lower-bound checker and experiments."
  in
  exit
    (Cmdliner.Cmd.eval
       (Cmdliner.Cmd.group info
          [
            list_cmd;
            experiments_cmd;
            run_cmd;
            trace_cmd;
            sweep_cmd;
            sweep_worker_cmd;
            heartbeat_check_cmd;
            fuzz_cmd;
            attack_cmd;
            figure1_cmd;
            bench_diff_cmd;
            verify_cmd;
          ]))
