(** Exhaustive sweeps over serial synchronous runs: the mechanised side of
    the paper's complexity claims for small systems.

    For a deterministic algorithm and fixed proposals, the serial adversary's
    choices determine the run completely, so enumerating all choice
    sequences up to a horizon visits {e every} serial run prefix. A sweep
    reports the worst (and best) global decision round and every consensus
    violation found — e.g. [A_{t+2}] sweeps must show max = min = [t + 2]
    with zero violations, while FloodSet shows [t + 1]. *)

open Kernel

type crashed_run = {
  choices : Serial.choice list;
  error : Sim.Engine.step_error;
}
(** A schedule whose run raised {!Sim.Engine.Step_error}: the adversary
    choices to replay it, plus the structured error (algorithm, pid,
    round, reason). *)

type shard_failure = { shard : int; context : string; message : string }
(** A {!Sweep} task that raised something the engine did not contain
    (e.g. an exception escaping [Algorithm.init]). [shard] is the task's
    index in enumeration order and [context] describes the subproblem
    (first-round choice, proposal assignment or orbit) so the failure is
    reproducible. Only {!Sweep.run} produces these, under every
    executor alike. *)

type result = {
  runs : int;
      (** total runs the sweep accounts for — always equal to the unreduced
          enumeration count, whatever reduction computed it *)
  distinct_runs : int;
      (** leaves actually enumerated or simulated. Unreduced sweeps have
          [distinct_runs = runs]; {!Mc.Dedup} counts a subtree answered
          from its transposition table into [runs] but not here, and
          {!Mc.Symmetry} counts only the orbit representative here while
          scaling [runs] by the orbit size. The split keeps the reduction
          honest: aggregates speak for all [runs], work done is
          [distinct_runs]. *)
  max_decision : int;  (** worst global decision round over all runs *)
  min_decision : int;
  max_witness : Serial.choice list option;
  violations : (Serial.choice list * Sim.Props.violation list) list;
  undecided_runs : int;
      (** runs where some correct process never decided within the engine
          bound — must be 0 for every terminating algorithm *)
  crashed : crashed_run list;
      (** runs contained after a {!Sim.Engine.Step_error}; counted in
          [runs] but in no other aggregate. Like [violations], the list is
          the reverse of enumeration order, and {!sweep} and {!Sweep.run}
          produce it bit-identically under every executor. *)
  shard_failures : shard_failure list;
      (** failed {!Sweep} tasks, in task order; their subtrees' runs are
          not counted anywhere else. *)
  expired : bool;
      (** a wall-clock [deadline] passed mid-sweep: every count above is a
          faithful account of the {e explored} part of the space only.
          Graceful degradation for interactive sweeps — the CLI maps this
          to a distinct exit code. *)
}

val empty : result
(** The unit of {!merge}: zero runs. *)

exception Expired
(** Raised by a sweep's per-leaf deadline check once the wall clock passes
    the [deadline] argument. Drivers catch it, keep what they accounted so
    far and set [expired]; it only escapes a sweep entry point if a custom
    caller of {!deadline_check} lets it. *)

val deadline_check : float option -> unit -> unit
(** [deadline_check deadline ()] raises {!Expired} when [deadline] is
    [Some d] and [Unix.gettimeofday () > d]; a no-op otherwise. Exposed
    for the DFS kernels so every sweep shares one notion of expiry. *)

val merge : result -> result -> result
(** Aggregate two sweep results. Associative with unit {!empty}; keeps the
    {e first} (left-most) maximal-round witness, so folding shard results in
    enumeration order reproduces exactly the single-sweep result. *)

val add_run :
  result -> choices:Serial.choice list -> trace:Sim.Trace.t -> result
(** Fold one finished run into a result: checks {!Sim.Props}, updates the
    decision-round extremes and counts. The trace path: the per-leaf
    {!sweep} oracle folds every run through it, and the arena sweeps
    ({!sweep_prefix}, {!Dedup}) only their dirty leaves — those
    {!Sim.Engine.Make.Arena.judge} did not pass. *)

val add_clean : result -> choices:Serial.choice list -> round:int -> result
(** [add_clean acc ~choices ~round] is [add_run acc ~choices ~trace] for a
    [trace] that {!Sim.Props.check} passes with global decision round
    [round] ([0]: nobody decided) — what a judged-clean leaf adds. *)

val add_crashed :
  result ->
  choices:Serial.choice list ->
  error:Sim.Engine.step_error ->
  result
(** Fold one contained {!Sim.Engine.Step_error} run into a result. *)

val binary_assignments : Config.t -> Value.t Pid.Map.t list
(** All [2^n] binary proposal assignments, in the subset order
    {!sweep_binary} enumerates them. *)

val sweep :
  ?faults:Sim.Model.faults ->
  ?omit_budget:int ->
  ?deadline:float ->
  ?policy:Serial.policy ->
  ?metrics:Obs.Metrics.t ->
  ?horizon:int ->
  algo:Sim.Algorithm.packed ->
  config:Config.t ->
  proposals:Value.t Pid.Map.t ->
  unit ->
  result
(** Enumerate every serial run whose crashes happen within [horizon] rounds
    (default [t + 2]; crashes later than that cannot affect the decision
    rounds of any algorithm here) under [policy] (default [Prefixes]).
    Every run is simulated from round 1 — the simple baseline;
    {!Sweep.run} computes the identical result faster.

    [faults] (default [Crash_only]) selects the adversary's fault menu and
    [omit_budget] (default 1, clamped per {!Serial.split_budget}) the
    omission side of its budget; omission runs are judged with agreement
    and termination restricted to fault-free processes. [deadline] (an
    absolute [Unix.gettimeofday] time) is the graceful-degradation hook:
    once it passes, the sweep stops at the next leaf and returns what it
    accounted with [expired = true].

    A schedule whose run raises {!Sim.Engine.Step_error} is recorded as a
    {!crashed_run} and the sweep continues — one poisoned schedule never
    aborts an enumeration.

    When [metrics] is given the sweep reports into it: the [mc.runs]
    (states explored), [mc.violations], [mc.undecided_runs],
    [mc.crashed_runs], [mc.shard_failures] and
    [mc.prefix_hits] (engine rounds saved by prefix sharing) counters, the
    [mc.max_decision_round] and [mc.domains] gauges, and the
    [mc.sweep_cpu_seconds] / [mc.sweep_wall_seconds] /
    [mc.schedules_per_second] histograms (throughput is measured against
    the wall clock — CPU time overcounts elapsed time under multiple
    domains). *)

val sweep_binary :
  ?faults:Sim.Model.faults ->
  ?omit_budget:int ->
  ?deadline:float ->
  ?policy:Serial.policy ->
  ?metrics:Obs.Metrics.t ->
  ?horizon:int ->
  algo:Sim.Algorithm.packed ->
  config:Config.t ->
  unit ->
  result
(** {!sweep} over {e all} [2^n] binary proposal assignments, aggregated. *)

val sweep_binary_incremental :
  ?faults:Sim.Model.faults ->
  ?omit_budget:int ->
  ?policy:Serial.policy ->
  ?horizon:int ->
  algo:Sim.Algorithm.packed ->
  config:Config.t ->
  unit ->
  result
(** {!sweep_binary}, bit-identical, computed as the unreduced binary
    {!Sweep} does it on one domain: one {!sweep_prefix} per assignment
    with an empty prefix, all on one shared {!Menu}, folded with {!merge}
    in assignment order. Reports nothing;
    [ipi sweep] and the instrumented callers go through {!Sweep.run}. *)

type sweeper =
  ?deadline:float ->
  ?prof:Obs.Prof.acc ->
  ?spans:Obs.Span.t ->
  Serial.choice list ->
  result * int

val sweep_prefix :
  ?faults:Sim.Model.faults ->
  ?omit_budget:int ->
  ?policy:Serial.policy ->
  ?horizon:int ->
  ?menu:Menu.t ->
  algo:Sim.Algorithm.packed ->
  config:Config.t ->
  proposals:Value.t Pid.Map.t ->
  unit ->
  sweeper
(** [sweep_prefix … () ?deadline ?prof ?spans prefix] is the
    prefix-sharing sweep of the single subtree whose first rounds are
    pinned to [prefix] — the unit of work {!Sweep} runs as one task.
    Returns the subtree's result together with the number of engine rounds
    stepped during the DFS (for the [mc.prefix_hits] accounting); reports
    no metrics itself. Folding [sweep_prefix] results over the first-round
    choices in order with {!Dedup.combine} (which keeps the serial
    newest-first list order) yields exactly {!sweep}'s result. A
    {!Sim.Engine.Step_error} on an edge of the choice tree poisons the
    subtree below it: every leaf under the edge is recorded as a
    {!crashed_run} with that error, matching what the from-scratch
    {!sweep} observes run by run.

    The staged part is set up once — one arena, rewound to round 1 at the
    start of every call, and [menu] (default: a fresh one, else created
    with the same [faults], [omit_budget], [policy] and [config]) — so a
    domain of a fixed-scope {!Sweep} interns adversary states and inbox
    spines once for all its tasks. No call's result depends on earlier
    calls.

    Each leaf is played out with {!Sim.Engine.Make.Arena.settle} and
    judged with {!Sim.Engine.Make.Arena.judge}; only a dirty leaf builds a
    trace for {!add_run}, and a choice list is built only for a new
    worst-round witness, a violation or a crashed run.

    [prof] measures every engine round the subtree executes (DFS edges
    and {!Sim.Engine.Make.Arena.settle} tails); [spans] wraps each
    simulated leaf in a ["run"] span. Like the arena and the menu, they
    must be owned by the domain that runs the subtree — GC deltas and
    span recorders are single-domain. *)

type stopwatch
(** Wall + CPU clocks captured together at sweep start. *)

val stopwatch : unit -> stopwatch

val report_sweep :
  ?domains:int ->
  ?prefix_hits:int ->
  ?dedup:int * int ->
  ?arena:int * int ->
  ?orbits:int ->
  Obs.Metrics.t option ->
  started:stopwatch ->
  result ->
  unit
(** Report a finished sweep into a metrics registry (no-op on [None]):
    the counters and gauges listed under {!sweep}, with [domains]
    (default 1) and [prefix_hits] (default 0, omitted when 0) as
    annotations from the caller's driver ({!Sweep.run}). Reduced sweeps also pass
    [dedup] (transposition-table [(hits, entries)], reported as the
    [mc.dedup_hits] counter and [mc.dedup_entries] gauge), [arena]
    (branch-execution [(snapshots, restores)], the [mc.arena_snapshots]
    and [mc.arena_restores] counters) and [orbits] (assignment classes
    actually swept, the [mc.orbits] gauge); the [mc.distinct_runs]
    counter is always reported and equals [mc.runs] for unreduced
    sweeps. *)

val pp_result : Format.formatter -> result -> unit
(** Prints [[-, -]] for the decision-round interval when no run decided. *)
