(** Transposition-table (dedup) sweeps: exact state-space reduction.

    The arena DFS of {!Exhaustive.sweep_prefix} re-explores
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

    Each first-round subtree gets a fresh table — the granularity of a
    {!Sweep} task — so reduced sweeps agree on every field including
    [distinct_runs] and {!stats} under every executor. *)

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

val first_choices :
  ?faults:Sim.Model.faults ->
  ?omit_budget:int ->
  ?policy:Serial.policy ->
  Config.t ->
  Serial.choice list
(** The first-round choices a full sweep shards over (policy default
    [Prefixes], fault menu default [Crash_only]) — the task roots of a
    fixed-scope {!Sweep}. *)

val pp_stats : Format.formatter -> stats -> unit

val sweep_binary :
  ?faults:Sim.Model.faults ->
  ?omit_budget:int ->
  ?policy:Serial.policy ->
  ?horizon:int ->
  algo:Sim.Algorithm.packed ->
  config:Config.t ->
  unit ->
  Exhaustive.result * stats
(** The binary dedup sweep as {!Sweep} computes it on one domain: one
    {!sweep_sharded} per assignment (fresh tables per assignment and
    first-round choice, one shared {!Menu}),
    folded with {!Exhaustive.merge} in assignment order. Bit-identical to
    {!Exhaustive.sweep_binary} except [distinct_runs]. Reports nothing;
    [ipi sweep] and the instrumented callers go through {!Sweep.run}. *)

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
  ?menu:Menu.t ->
  algo:Sim.Algorithm.packed ->
  config:Config.t ->
  proposals:Value.t Pid.Map.t ->
  prefix:Serial.choice list ->
  unit ->
  Exhaustive.result * stats
(** One table, one pinned subtree — a fixed-scope {!Sweep} task; reports
    no metrics itself. Folding the first-round subtrees in order with
    {!combine} yields the unreduced sweep bit-identically except
    [distinct_runs]. [table_cap]/[spill_dir] are as for {!sweep_sharded};
    [prof]/[spans]/[menu] follow
    {!Exhaustive.sweep_prefix}: per-round measures, per-distinct-leaf
    ["run"] spans and a shared interned adversary, all single-domain. *)

val sweep_sharded :
  ?faults:Sim.Model.faults ->
  ?omit_budget:int ->
  ?deadline:float ->
  ?policy:Serial.policy ->
  ?horizon:int ->
  ?prof:Obs.Prof.acc ->
  ?spans:Obs.Span.t ->
  ?table_cap:int ->
  ?spill_dir:string ->
  menu:Menu.t ->
  algo:Sim.Algorithm.packed ->
  config:Config.t ->
  proposals:Value.t Pid.Map.t ->
  unit ->
  Exhaustive.result * stats
(** One proposal assignment: {!sweep_prefix} per first-round choice, each
    with a fresh table, folded in order with {!combine} — bit-identical to
    the unreduced sweep of the assignment except [distinct_runs]. The
    per-assignment task of a binary {!Sweep}, and its per-orbit task under
    symmetry. [spans] wraps each first-round subtree in a
    ["shard <choice>"] span; every subtree runs on [menu] (see
    {!Exhaustive.sweep_prefix}).

    Memory bounding (default-off, never affects the result): [table_cap]
    caps each per-shard table's in-memory entries; once reached, new
    entries go to a {!Spill} store under [spill_dir] (per shard, deleted
    when the shard finishes) — or, with no [spill_dir], are dropped, which
    only costs future hits. Both lookups still count as table hits, so
    [stats] stay comparable across caps. *)
