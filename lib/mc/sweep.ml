open Kernel
module J = Obs.Json

type reduce = None | Dedup | Dedup_sym
type scope = Fixed of Value.t Pid.Map.t | Binary

type spec = {
  faults : Sim.Model.faults;
  omit_budget : int option;
  policy : Serial.policy;
  horizon : int option;
  algo : Sim.Algorithm.packed;
  config : Config.t;
  reduce : reduce;
  scope : scope;
  table_cap : int option;
  spill_dir : string option;
}

let make ?(faults = Sim.Model.Crash_only) ?omit_budget
    ?(policy = Serial.Prefixes) ?horizon ?(reduce = None) ?table_cap
    ?spill_dir ~algo ~config scope =
  { faults; omit_budget; policy; horizon; algo; config; reduce; scope;
    table_cap; spill_dir }

type exec =
  | Domains of int
  | Workers of {
      workers : int;
      argv : string list;
      chaos : Supervise.chaos option;
      chunk_timeout : float option;
    }

type outcome = {
  result : Exhaustive.result;
  stats : Dedup.stats option;
  edges : int;
  completed : Checkpoint.entry list;
  total_tasks : int;
  partial : bool;
  supervisor : Supervise.metrics option;
}

(* ------------------------------------------------------------------ *)
(* From a spec to a task list and a merge rule                          *)

type task =
  | First of Value.t Pid.Map.t * Serial.choice
      (** [Fixed]: the subtree below one first-round choice *)
  | Assignment of int * Value.t Pid.Map.t  (** [Binary]: one assignment *)
  | Orbit of Symmetry.orbit  (** [Binary], [Dedup_sym]: one orbit *)

let horizon_of spec =
  Option.value spec.horizon ~default:(Config.t spec.config + 2)

let reduced spec = match spec.reduce with None -> false | _ -> true

let by_orbits spec =
  match (spec.scope, spec.reduce) with
  | Binary, Dedup_sym -> Sim.Algorithm.symmetric spec.algo
  | _ -> false

let tasks spec =
  Array.of_list
    (match spec.scope with
    | Fixed proposals ->
        List.map
          (fun first -> First (proposals, first))
          (Dedup.first_choices ~faults:spec.faults
             ?omit_budget:spec.omit_budget ~policy:spec.policy spec.config)
    | Binary when by_orbits spec ->
        List.map (fun o -> Orbit o) (Symmetry.orbits spec.config)
    | Binary ->
        List.mapi
          (fun i p -> Assignment (i, p))
          (Exhaustive.binary_assignments spec.config))

let total_tasks spec = Array.length (tasks spec)

let context = function
  | First (_, first) ->
      Format.asprintf "first-round choice %a" Serial.pp_choice first
  | Assignment (i, _) -> Printf.sprintf "proposal assignment #%d" i
  | Orbit o -> Printf.sprintf "orbit |ones| = %d" (Pid.Set.cardinal o.ones)

(* What a domain carries from task to task: the spec's interned adversary
   and, for a fixed scope's unreduced tasks (one proposal assignment), a
   staged {!Exhaustive.sweep_prefix} whose arena keeps its interned spines.
   A task takes a free slot or creates one and returns it when done (a
   task that raised drops it), so [Domains n] builds at most [n] slots. *)
type slot = { menu : Menu.t; mutable first : Exhaustive.sweeper option }

let slot_pool spec =
  let lock = Mutex.create () and free = ref [] in
  fun f ->
    let slot =
      Mutex.protect lock (fun () ->
          match !free with
          | s :: rest ->
              free := rest;
              s
          | [] ->
              {
                menu =
                  Menu.create ~faults:spec.faults ?omit_budget:spec.omit_budget
                    ~policy:spec.policy spec.config;
                first = Option.none;
              })
    in
    let r = f slot in
    Mutex.protect lock (fun () -> free := slot :: !free);
    r

let run_task ?deadline ?prof ?spans ~slot spec i task =
  let { faults; omit_budget; policy; algo; config; table_cap; spill_dir; _ } =
    spec
  and horizon = horizon_of spec
  and menu = slot.menu in
  let plain (result, edges) =
    { Checkpoint.task = i; result; stats = Option.none; edges }
  in
  let with_stats (result, (stats : Dedup.stats)) =
    { Checkpoint.task = i; result; stats = Some stats; edges = stats.edges }
  in
  let sharded proposals =
    Dedup.sweep_sharded ~faults ?omit_budget ?deadline ~policy ~horizon ?prof
      ?spans ?table_cap ?spill_dir ~menu ~algo ~config ~proposals ()
  in
  match task with
  | First (proposals, first) when reduced spec ->
      with_stats
        (Dedup.sweep_prefix ~faults ?omit_budget ?deadline ~policy ~horizon
           ?prof ?spans ?table_cap ?spill_dir ~menu ~algo ~config ~proposals
           ~prefix:[ first ] ())
  | First (proposals, first) ->
      let sweeper =
        match slot.first with
        | Some s -> s
        | Option.None ->
            let s =
              Exhaustive.sweep_prefix ~faults ?omit_budget ~policy ~horizon
                ~menu ~algo ~config ~proposals ()
            in
            slot.first <- Some s;
            s
      in
      plain (sweeper ?deadline ?prof ?spans [ first ])
  | Assignment (_, proposals) when reduced spec -> with_stats (sharded proposals)
  | Assignment (_, proposals) ->
      plain
        (Exhaustive.sweep_prefix ~faults ?omit_budget ~policy ~horizon ~menu
           ~algo ~config ~proposals () ?deadline ?prof ?spans [])
  | Orbit o ->
      let result, stats = sharded o.proposals in
      with_stats (Symmetry.scale o.multiplicity result, stats)

(* The fold over task results, in task order: a fixed scope's subtrees
   with the serial list-order convention ({!Dedup.combine}), a binary
   scope's assignments or orbits left to right. *)
let merge_entries spec entries =
  let fold =
    match spec.scope with Fixed _ -> Dedup.combine | Binary -> Exhaustive.merge
  in
  let result, stats, edges =
    List.fold_left
      (fun (r, s, n) (e : Checkpoint.entry) ->
        ( fold r e.result,
          Dedup.merge_stats s (Option.value ~default:Dedup.zero_stats e.stats),
          n + e.edges ))
      (Exhaustive.empty, Dedup.zero_stats, 0)
      entries
  in
  (result, (if reduced spec then Some stats else Option.none), edges)

(* ------------------------------------------------------------------ *)
(* Checkpoint identity                                                  *)

let params spec =
  let opt_int = function Some v -> J.Int v | Option.None -> J.Null in
  J.Obj
    [
      ("kind", J.String "sweep");
      ("algo", J.String (Sim.Algorithm.name spec.algo));
      ("n", J.Int (Config.n spec.config));
      ("t", J.Int (Config.t spec.config));
      ("faults", J.String (Sim.Model.faults_to_string spec.faults));
      ("omit_budget", opt_int spec.omit_budget);
      ( "policy",
        J.String
          (match spec.policy with
          | Serial.Prefixes -> "prefixes"
          | Serial.All_subsets -> "all-subsets") );
      ("horizon", opt_int spec.horizon);
      ( "scope",
        match spec.scope with
        | Binary -> J.String "binary"
        | Fixed proposals ->
            J.List
              (List.map
                 (fun (_, v) -> J.Int (Value.to_int v))
                 (Pid.Map.bindings proposals)) );
      ( "reduce",
        J.String
          (match spec.reduce with
          | None -> "none"
          | Dedup -> "dedup"
          | Dedup_sym -> "dedup+sym") );
    ]

let validate_resume resume ~params ~total =
  match resume with
  | Option.None -> Ok []
  | Some (ck : Checkpoint.t) ->
      Result.bind (Checkpoint.compatible ck ~params) (fun () ->
          if ck.total_tasks = total then Ok ck.completed
          else
            Error
              (Printf.sprintf
                 "checkpoint: task count mismatch (snapshot has %d, this sweep \
                  has %d)"
                 ck.total_tasks total))

(* ------------------------------------------------------------------ *)
(* The driver                                                           *)

(* What became of one task. *)
type fate =
  | Done of Checkpoint.entry
  | Cut of Checkpoint.entry
      (** the deadline passed mid-task: shown, never persisted *)
  | Failed of string
  | Skipped  (** never started: stop requested or deadline passed *)

(* Backstop for exceptions the engine does not contain (anything outside a
   round step, e.g. a raising [Algorithm.init]): caught where the task ran,
   so [Par.map_tasks] never sees a raise — a raise there would join the
   pool and re-raise, killing the whole sweep. *)
let protect f =
  try Ok (f ()) with
  | (Stack_overflow | Out_of_memory) as e -> raise e
  | e -> Error (Printexc.to_string e)

let step_progress spec progress (e : Checkpoint.entry) =
  if Obs.Progress.enabled progress then
    let s = Option.value e.stats ~default:Dedup.zero_stats in
    (* [distinct] only when a reduction ran: unreduced entries have
       [distinct_runs = runs], which would merely relabel the rate. *)
    let distinct = if reduced spec then e.result.distinct_runs else 0 in
    Obs.Progress.step progress ~distinct ~items:1 ~runs:e.result.runs
      ~hits:s.hits ~lookups:(s.hits + s.misses)

let run ?checkpoint ?resume ?deadline ?(should_stop = fun () -> false)
    ?metrics ?prof ?(spans = Obs.Span.disabled)
    ?(progress = Obs.Progress.disabled) spec exec =
  let tasks = tasks spec in
  let total = Array.length tasks in
  let params = params spec in
  match (exec, validate_resume resume ~params ~total) with
  | _, Error msg -> Error msg
  | Workers _, Ok _ when Option.is_some prof ->
      Error
        "sweep: the per-round probe runs where the DFS runs, in the worker \
         processes, and is not collected under --workers"
  | _, Ok resumed ->
      let started = Exhaustive.stopwatch () in
      Obs.Progress.set_total progress total;
      List.iter (step_progress spec progress) resumed;
      let fates = Array.make total Skipped in
      List.iter (fun (e : Checkpoint.entry) -> fates.(e.task) <- Done e) resumed;
      let pending =
        List.filter
          (fun i -> match fates.(i) with Skipped -> true | _ -> false)
          (List.init total Fun.id)
      in
      (* Fates land here from whichever domain (or, under [Workers],
         whichever result frame) finished the task; the periodic
         checkpoint is written under the same lock. *)
      let lock = Mutex.create () in
      let completed () =
        List.filter_map
          (function Done e -> Some e | Cut _ | Failed _ | Skipped -> Option.none)
          (Array.to_list fates)
      in
      let since_save = ref 0 in
      let every = match checkpoint with Some (_, n) -> max 1 n | _ -> 1 in
      let save () =
        match checkpoint with
        | Option.None -> ()
        | Some (path, _) ->
            Checkpoint.save ~path
              {
                Checkpoint.commit = Checkpoint.current_commit ();
                params;
                total_tasks = total;
                completed = completed ();
              }
      in
      (* Resolve the commit before any worker domain could race on it. *)
      if Option.is_some checkpoint then ignore (Checkpoint.current_commit ());
      let finished i fate =
        Mutex.protect lock (fun () ->
            fates.(i) <- fate;
            match fate with
            | Done e ->
                step_progress spec progress e;
                incr since_save;
                if !since_save >= every then begin
                  save ();
                  since_save := 0
                end
            | Cut _ | Failed _ | Skipped -> ())
      in
      let stop = Atomic.make false in
      let past_deadline () =
        Option.fold deadline ~none:false ~some:(fun d -> Unix.gettimeofday () > d)
      in
      (* Sticky: once a stop is seen, no further task starts. *)
      let stopping () =
        if (not (Atomic.get stop)) && (should_stop () || past_deadline ()) then
          Atomic.set stop true;
        Atomic.get stop
      in
      let label i = Printf.sprintf "shard %d: %s" i (context tasks.(i)) in
      let task_spans =
        if Obs.Span.enabled spans then
          Array.init total (fun i -> Obs.Span.child spans ~track:(i + 1))
        else [||]
      in
      let span_of i =
        if task_spans = [||] then Obs.Span.disabled else task_spans.(i)
      in
      Obs.Span.enter spans "sweep";
      let supervisor =
        match exec with
        | Domains jobs ->
            let with_slot = slot_pool spec in
            let accs =
              Array.init total (fun _ ->
                  Option.map (fun _ -> Obs.Prof.acc ()) prof)
            in
            let one i () =
              let sp = span_of i in
              let run slot () =
                run_task ?deadline ?prof:accs.(i) ~spans:sp ~slot spec i
                  tasks.(i)
              in
              if not (stopping ()) then
                finished i
                  (match
                     protect (fun () ->
                         with_slot (fun slot ->
                             (* The label is formatted only when recorded. *)
                             if Obs.Span.enabled sp then
                               Obs.Span.with_ sp (label i) (run slot)
                             else run slot ()))
                   with
                  | Error msg -> Failed msg
                  | Ok e when e.result.expired -> Cut e
                  | Ok e -> Done e)
            in
            let report =
              match metrics with
              | Some m when jobs > 1 -> Some (Obs.Prof.pool m ~prefix:"par")
              | _ -> Option.none
            in
            ignore
              (Par.map_tasks ?report ~jobs
                 (Array.of_list (List.map one pending)));
            Option.iter
              (fun into -> Array.iter (Option.iter (Obs.Prof.merge ~into)) accs)
              prof;
            Option.none
        | Workers { workers; argv; chaos; chunk_timeout } ->
            (* A task's span opens at its first assignment and closes at
               its result, so a retried task's span covers its retries. *)
            let opened = Array.make total false in
            let on_assign ~task =
              if Obs.Span.enabled spans && not opened.(task) then begin
                opened.(task) <- true;
                Obs.Span.enter (span_of task) (label task)
              end
            in
            let on_result ~task payload =
              if opened.(task) then Obs.Span.exit (span_of task);
              finished task
                (match J.member "failure" payload with
                | Some (J.String msg) -> Failed msg
                | _ -> (
                    match Checkpoint.entry_of_json payload with
                    | Ok e -> Done e
                    | Error msg -> Failed ("bad result frame: " ^ msg)))
            in
            let spawn () =
              match argv with
              | prog :: _ -> Proc.spawn ~prog ~args:argv
              | [] -> invalid_arg "Sweep.run: empty worker argv"
            in
            let outcome =
              Supervise.run ?chaos ~should_stop:stopping ~on_assign ~on_result
                ?chunk_timeout ~workers ~spawn ~tasks:pending ()
            in
            List.iter (fun (task, msg) -> fates.(task) <- Failed msg)
              outcome.failed;
            Some outcome.metrics
      in
      Obs.Span.exit spans;
      Array.iter (fun s -> Obs.Span.absorb spans s) task_spans;
      save ();
      let shown =
        List.filter_map
          (function Done e | Cut e -> Some e | Failed _ | Skipped -> Option.none)
          (Array.to_list fates)
      in
      let result, stats, edges = merge_entries spec shown in
      let failures =
        List.concat
          (List.mapi
             (fun i -> function
               | Failed message ->
                   [ { Exhaustive.shard = i; context = context tasks.(i); message } ]
               | Done _ | Cut _ | Skipped -> [])
             (Array.to_list fates))
      in
      let partial =
        Array.exists (function Cut _ | Skipped -> true | _ -> false) fates
      in
      let result =
        {
          result with
          shard_failures = failures;
          expired = result.expired || (partial && past_deadline ());
        }
      in
      Exhaustive.report_sweep metrics ~started
        ~domains:(match exec with Domains j -> max j 1 | Workers _ -> 1)
        ~prefix_hits:((result.runs * horizon_of spec) - edges)
        ?dedup:(Option.map (fun (s : Dedup.stats) -> (s.hits, s.entries)) stats)
        ?arena:
          (Option.map (fun (s : Dedup.stats) -> (s.snapshots, s.restores)) stats)
        ?orbits:(if by_orbits spec then Some total else Option.none)
        result;
      Ok
        {
          result;
          stats;
          edges;
          completed = completed ();
          total_tasks = total;
          partial;
          supervisor;
        }

(* ------------------------------------------------------------------ *)
(* Worker side                                                         *)

let worker_loop spec ic oc =
  let tasks = tasks spec in
  let with_slot = slot_pool spec in
  let rec go () =
    match Obs.Wire.read ic with
    | Error Obs.Wire.Eof -> ()
    | Error err ->
        failwith (Format.asprintf "sweep-worker: %a" Obs.Wire.pp_error err)
    | Ok json -> (
        if Option.is_some (J.member "shutdown" json) then ()
        else
          match Option.bind (J.member "task" json) J.to_int_opt with
          | Some i when i >= 0 && i < Array.length tasks ->
              Obs.Wire.write oc
                (match
                   protect (fun () ->
                       with_slot (fun slot -> run_task ~slot spec i tasks.(i)))
                 with
                | Ok entry -> Checkpoint.entry_to_json entry
                | Error msg ->
                    J.Obj [ ("task", J.Int i); ("failure", J.String msg) ]);
              go ()
          | _ -> failwith "sweep-worker: malformed task frame")
  in
  go ()
