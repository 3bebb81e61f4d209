(** Transposition-table (dedup) sweeps: exact state-space reduction.

    The incremental DFS of {!Exhaustive.sweep_incremental} re-explores
    subtrees that are reachable from {e identical global states} via
    different choice prefixes — e.g. crashing [p1] in round 1 versus
    round 2 after it has already halted, or any two prefixes whose victims'
    messages were all delivered anyway. This module memoises whole subtree
    {e results} in a table keyed on

    [(remaining depth, crash budget, alive victim set, declared
      send/receive-omitter sets, omission budget,
      {!Sim.Engine.Make.Arena.fingerprint})]

    so each distinct [(key)] subtree is evaluated once. The memoised
    fragments store their witness/violation/crashed choice lists relative
    to the subtree root; on a hit the current prefix is prepended, which
    keeps every field of the final {!Exhaustive.result} — aggregates,
    orders of the [violations]/[crashed] lists, the max witness —
    {e bit-identical} to the unreduced sweep. Only the new
    [distinct_runs] differs: it counts leaves actually evaluated, while
    [runs] still counts every run of the full enumeration.

    The reduction is {e exact}, not probabilistic: keys are compared with
    full structural equality (the hash only routes to a bucket), so a
    collision can never alias two different states. Budget and alive set
    are part of the key because they are not derivable from the engine
    state — crashing an already-halted process spends budget invisibly.

    Each first-round subtree gets a fresh table — the same granularity
    {!Parallel} shards at — so serial and parallel reduced sweeps agree on
    every field including [distinct_runs] and {!stats} for any [--jobs]. *)

open Kernel

type stats = {
  hits : int;  (** subtrees answered from the table *)
  misses : int;  (** subtrees computed and stored *)
  entries : int;  (** keys stored, summed over the per-shard tables *)
  edges : int;  (** engine rounds actually stepped *)
  spilled : int;
      (** entries written to the disk overflow ({!Spill}) after the
          in-memory table reached its cap; 0 for uncapped sweeps *)
  snapshots : int;
      (** arena branch-point snapshots taken
          ({!Sim.Engine.Make.Arena.save}), summed over shards *)
  restores : int;  (** arena rewinds ({!Sim.Engine.Make.Arena.restore}) *)
}

val zero_stats : stats
val merge_stats : stats -> stats -> stats

val combine : Exhaustive.result -> Exhaustive.result -> Exhaustive.result
(** [combine acc later] — {!Exhaustive.merge} with the serial list-order
    convention: the one-pass DFS conses violations and crashed runs as it
    meets them, so its final lists are the reverse of enumeration order
    and a {e later} sibling subtree's lists must land in front of [acc]'s.
    Folding subtree fragments with [combine] in enumeration order is what
    keeps reduced sweeps bit-identical to unreduced ones. *)

val hit_rate : stats -> float
(** [hits / (hits + misses)], [0.] when nothing was explored. *)

val first_choices :
  ?faults:Sim.Model.faults ->
  ?omit_budget:int ->
  ?policy:Serial.policy ->
  Config.t ->
  Serial.choice list
(** The first-round choices a full sweep shards over (policy default
    [Prefixes], fault menu default [Crash_only]) — what drivers use to
    size progress totals and {!Parallel} uses as shard roots. *)

val pp_stats : Format.formatter -> stats -> unit

val sweep :
  ?faults:Sim.Model.faults ->
  ?omit_budget:int ->
  ?deadline:float ->
  ?policy:Serial.policy ->
  ?metrics:Obs.Metrics.t ->
  ?horizon:int ->
  ?prof:Obs.Prof.acc ->
  ?spans:Obs.Span.t ->
  ?progress:Obs.Progress.t ->
  ?table_cap:int ->
  ?spill_dir:string ->
  algo:Sim.Algorithm.packed ->
  config:Config.t ->
  proposals:Value.t Pid.Map.t ->
  unit ->
  Exhaustive.result * stats
(** {!Exhaustive.sweep_incremental} with the transposition table:
    bit-identical on every field except [distinct_runs]. Reports the same
    metrics plus [mc.dedup_hits] / [mc.dedup_entries] /
    [mc.distinct_runs].

    Instrumentation (default-off, never affects the result): [prof]
    accumulates per-round GC deltas over the distinct work only (table
    hits cost nothing, so they record nothing); [spans] nests
    ["sweep" > "shard <choice>" > "run"]; [progress] steps once per
    first-round shard with the shard's run count and table hit/lookup
    deltas, with the total set up front.

    Memory bounding (default-off, never affects the result): [table_cap]
    caps each per-shard table's in-memory entries; once reached, new
    entries go to a {!Spill} store under [spill_dir] (per shard, deleted
    when the shard finishes) — or, with no [spill_dir], are dropped, which
    only costs future hits. Both lookups still count as table hits, so
    [stats] stay comparable across caps. *)

val sweep_binary :
  ?faults:Sim.Model.faults ->
  ?omit_budget:int ->
  ?deadline:float ->
  ?policy:Serial.policy ->
  ?metrics:Obs.Metrics.t ->
  ?horizon:int ->
  ?prof:Obs.Prof.acc ->
  ?spans:Obs.Span.t ->
  ?progress:Obs.Progress.t ->
  ?table_cap:int ->
  ?spill_dir:string ->
  algo:Sim.Algorithm.packed ->
  config:Config.t ->
  unit ->
  Exhaustive.result * stats
(** {!sweep} over all [2^n] binary assignments (fresh tables per
    assignment and first-round choice); bit-identical to
    {!Exhaustive.sweep_binary_incremental} except [distinct_runs].
    [progress]'s total is [2^n * first-round choices]. *)

val sweep_prefix :
  ?faults:Sim.Model.faults ->
  ?omit_budget:int ->
  ?deadline:float ->
  ?policy:Serial.policy ->
  ?horizon:int ->
  ?prof:Obs.Prof.acc ->
  ?spans:Obs.Span.t ->
  ?table_cap:int ->
  ?spill_dir:string ->
  algo:Sim.Algorithm.packed ->
  config:Config.t ->
  proposals:Value.t Pid.Map.t ->
  prefix:Serial.choice list ->
  unit ->
  Exhaustive.result * stats
(** The sharding unit (one table, one pinned subtree) — what {!Parallel}
    distributes across domains; reports no metrics itself. Folding the
    first-round shards in order with the serial list-order convention
    yields exactly {!sweep}. [prof]/[spans] follow
    {!Exhaustive.sweep_prefix}: per-round measures and per-distinct-leaf
    ["run"] spans, single-domain. *)

val sweep_sharded :
  ?faults:Sim.Model.faults ->
  ?omit_budget:int ->
  ?deadline:float ->
  ?policy:Serial.policy ->
  ?horizon:int ->
  ?prof:Obs.Prof.acc ->
  ?spans:Obs.Span.t ->
  ?progress:Obs.Progress.t ->
  ?table_cap:int ->
  ?spill_dir:string ->
  algo:Sim.Algorithm.packed ->
  config:Config.t ->
  proposals:Value.t Pid.Map.t ->
  unit ->
  Exhaustive.result * stats
(** {!sweep} without the metrics reporting or timing — the per-assignment
    unit {!sweep_binary} and {!Symmetry} build on. Steps [progress] per
    first-round shard but never sets its total (the top-level driver
    does). *)
