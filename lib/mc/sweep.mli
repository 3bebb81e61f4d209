(** The one sweep driver: a {!spec} (what to enumerate) run under an
    {!exec} (where to run it).

    Every sweep is cut into {e tasks}, indexed in enumeration order, and
    its result is a fold over the task results in that order:

    - [Fixed] scope: one task per first-round adversary choice, each an
      {!Exhaustive.sweep_prefix} (or, reduced, a {!Dedup.sweep_prefix}
      with its own table), folded with {!Dedup.combine};
    - [Binary] scope: one task per proposal assignment — an
      {!Exhaustive.sweep_prefix} with an empty prefix, or, reduced, a
      {!Dedup.sweep_sharded} — folded with {!Exhaustive.merge};
    - [Binary] scope under [Dedup_sym] for a {!Sim.Algorithm.S.symmetric}
      algorithm: one task per {!Symmetry.orbit}, a {!Dedup.sweep_sharded}
      of the representative weighted by {!Symmetry.scale}. For an
      asymmetric algorithm, or a [Fixed] scope, [Dedup_sym] is [Dedup].

    Every executor runs the same tasks and the fold happens on the caller
    in task order, so the result is {e bit-identical} — [distinct_runs]
    and {!Dedup.stats} included — for any domain count, any worker count,
    any chaos and any interruption followed by a resume.

    {b Containment.} A {!Sim.Engine.Step_error} is contained inside a
    task as a [crashed] run. Anything else a task raises (say, from
    [Algorithm.init]) becomes an {!Exhaustive.shard_failure} carrying the
    task index and a description of its subproblem, under every executor;
    the other tasks still report. A failed task is never written to a
    checkpoint, so it reruns on resume. *)

open Kernel

type reduce =
  | None  (** plain DFS *)
  | Dedup  (** transposition table ({!Dedup}) *)
  | Dedup_sym  (** [Dedup] plus the orbit reduction ({!Symmetry}) *)

type scope =
  | Fixed of Value.t Pid.Map.t  (** one proposal assignment *)
  | Binary  (** all [2^n] binary assignments *)

type spec = {
  faults : Sim.Model.faults;
  omit_budget : int option;
  policy : Serial.policy;
  horizon : int option;  (** [None]: the usual [t + 2] *)
  algo : Sim.Algorithm.packed;
  config : Config.t;
  reduce : reduce;
  scope : scope;
  table_cap : int option;  (** {!Dedup} in-memory entry cap, reduced only *)
  spill_dir : string option;  (** disk overflow directory for the cap *)
}

val make :
  ?faults:Sim.Model.faults ->
  ?omit_budget:int ->
  ?policy:Serial.policy ->
  ?horizon:int ->
  ?reduce:reduce ->
  ?table_cap:int ->
  ?spill_dir:string ->
  algo:Sim.Algorithm.packed ->
  config:Config.t ->
  scope ->
  spec
(** A spec with the defaults every sweep uses: [Crash_only] faults,
    [Prefixes] policy, horizon [t + 2], no reduction, no table cap. *)

type exec =
  | Domains of int
      (** in-process, on up to this many domains ({!Kernel.Par}); [1] is
          the serial path, a plain loop over the tasks *)
  | Workers of {
      workers : int;
      argv : string list;
          (** the [ipi sweep-worker] invocation for this same spec *)
      chaos : Supervise.chaos option;
      chunk_timeout : float option;
    }
      (** supervised worker processes ({!Supervise}); see {!worker_loop} *)

type outcome = {
  result : Exhaustive.result;
      (** merged aggregates; on a partial run they cover the completed
          tasks plus any task cut short by the deadline, flagged
          [expired] *)
  stats : Dedup.stats option;  (** reduced sweeps only *)
  edges : int;  (** engine rounds stepped over all tasks *)
  completed : Checkpoint.entry list;
      (** ascending by task: what a checkpoint holds *)
  total_tasks : int;
  partial : bool;
      (** stopped, expired or interrupted before every task finished *)
  supervisor : Supervise.metrics option;  (** [Workers] only *)
}

val params : spec -> Obs.Json.t
(** The sweep's identity in a checkpoint: everything that shapes the task
    list or a task's result. A checkpoint resumes only a sweep with equal
    params. *)

val total_tasks : spec -> int

val run :
  ?checkpoint:string * int ->
  ?resume:Checkpoint.t ->
  ?deadline:float ->
  ?should_stop:(unit -> bool) ->
  ?metrics:Obs.Metrics.t ->
  ?prof:Obs.Prof.acc ->
  ?spans:Obs.Span.t ->
  ?progress:Obs.Progress.t ->
  spec ->
  exec ->
  (outcome, string) result
(** Run every task not already in [resume] and fold the results.

    - [checkpoint = (path, every)] snapshots the completed tasks after
      every [every] of them and once more at the end — normal, stopped or
      expired — so the file is never staler than [every] tasks.
    - [resume] seeds completed tasks from a loaded snapshot; a snapshot of
      another sweep ({!params}) or of another task count is the [Error].
    - [should_stop] is polled before each task starts (the SIGINT/SIGTERM
      hook); once it answers [true] no further task starts. [deadline] (an
      absolute [Unix.gettimeofday] time) stops task starts the same way
      and also cuts the running in-process tasks short at their next
      leaf. Either makes the outcome [partial]; a deadline also sets
      [expired].
    - [metrics] receives {!Exhaustive.report_sweep} once, plus the
      {!Kernel.Par} [par.*] gauges under [Domains n] with [n > 1].
    - [prof] accumulates one interval per engine round (per-task
      accumulators merged after the join); [spans] gets a ["sweep"] span
      on track 0 and one ["shard <i>: <task>"] span per task on track
      [1 + i], nesting the task's ["run"] spans. Under [Workers] the DFS
      runs in the worker processes: the task spans are recorded by the
      parent, from a task's first assignment to its result, and a [prof]
      is refused with an [Error].
    - [progress] steps once per task (resumed tasks up front), with the
      task count as its total. *)

val worker_loop : spec -> in_channel -> out_channel -> unit
(** The [ipi sweep-worker] body: read [{"task": i}] frames, run each task,
    and answer with its checkpoint entry as a frame — or, when the task
    raised, with [{"task": i, "failure": message}]. Returns on a
    [{"shutdown"}] frame or at end of input; raises [Failure] on a
    malformed stream, so the supervisor sees a death, not silence. *)
