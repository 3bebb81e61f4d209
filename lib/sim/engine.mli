(** The round-based execution engine.

    [Make (A)] interprets algorithm [A] under a schedule: each round, alive
    non-halted processes produce their round message ({!S.on_send}); the
    engine routes every copy according to the schedule's fate for that
    [(src, dst, round)] triple; crashes take effect (a process crashing in
    round [k] sends — subject to the schedule — but does not receive in round
    [k] and disappears afterwards); then surviving processes consume the
    envelopes arriving this round ({!S.on_receive}).

    Two engines share these semantics. The recording engine ({!Make.start}
    / {!Make.step}) is immutable and map-based: it fills round records and
    emits events for diagrams, traces and sinks. {!Make.Arena} is the
    record-free core behind {!Make.run} without [~record] or a sink, the
    fuzz harness and every model-checker sweep: mutable, allocation-free on
    steady rounds, and rewound by snapshots when a DFS backtracks. *)

open Kernel

type step_error = {
  algorithm : string;
  pid : Pid.t;
  round : Round.t;
  reason : string;
}
(** Everything a sweep or fuzz campaign needs to record a poisoned run:
    which algorithm, which process, in which round, and why. *)

exception Step_error of step_error
(** The {e only} exception the engine raises from inside a round, for two
    families of faults:

    - protocol violations the engine itself detects (an algorithm changing
      or retracting a decided value — decision stability);
    - any exception the algorithm's [on_send]/[on_receive] callbacks raise,
      rewrapped with the faulting process and round ([Stack_overflow] and
      [Out_of_memory] pass through untouched).

    Callers that run many schedules ({!Mc.Exhaustive}, fuzz campaigns)
    catch it and record a structured per-run outcome instead of letting one
    poisoned schedule kill the whole sweep. [Invalid_argument] remains
    reserved for caller misuse at API entry ({!Make.start} with missing
    proposals). *)

val pp_step_error : Format.formatter -> step_error -> unit

module Make (A : Algorithm.S) : sig
  type sys
  (** Immutable global state between rounds. *)

  val start :
    ?sink:Obs.Sink.t -> Config.t -> proposals:Value.t Pid.Map.t -> sys
  (** Initial state: every process has proposed. [proposals] must bind
      exactly [p1..pn]. [sink] (default {!Obs.Sink.noop}) receives the
      structured {!Obs.Event.t}s of every subsequent {!step}; with the
      no-op sink the engine constructs no events at all. *)

  val next_round : sys -> Round.t
  (** The round the next {!step} will execute (round 1 initially). *)

  val step : sys -> Schedule.plan -> sys
  (** Execute one full round under the given per-round plan. Raises
      {!Step_error} if the algorithm violates decision stability (changes
      or retracts a decided value) or if one of its step callbacks raises. *)

  val decisions : sys -> Trace.decision list
  (** Chronological. *)

  val state_of : sys -> Pid.t -> A.state option
  (** The local state of a process, unless it crashed. *)

  val alive : sys -> Pid.t list
  (** Processes still running (not crashed, not halted). *)

  val crashed : sys -> (Pid.t * Round.t) list
  val all_halted : sys -> bool

  (** The mutable execution arena.

      A flat struct-of-arrays round representation (status slab, state
      array, one reusable envelope cell per sender) with explicit
      branch-point snapshots, so a DFS over adversary choices mutates
      {e one} arena in place and rewinds it on backtrack instead of forking
      an immutable value per round. Round semantics are bit-identical to
      the recording engine's {!step}: [on_send] and [on_receive] both called
      in ascending pid order, the same decision-stability errors, and the
      same decision-list and crash-list shapes. A trace it finishes equals
      the one {!run} [~record:true] produces for the same config, proposals
      and schedule, except that [records] is empty.

      Ownership: an arena (and everything loaned out of it — the probe
      fingerprint, inbox spines) belongs to one DFS on one domain. Sharded
      sweeps create one arena per shard. *)
  module Arena : sig
    type t
    (** Mutable system state. Steps advance it in place; {!save} /
        {!restore} rewind it. *)

    val create : Config.t -> proposals:Value.t Pid.Map.t -> t
    (** Fresh arena at round 1; [proposals] must bind exactly [p1..pn]. *)

    val step : t -> Schedule.compiled_plan -> unit
    (** Execute one full round in place. Raises {!Step_error} exactly like
        {!step}, naming the same process; a raising step leaves the arena
        mid-round, and
        the caller must {!restore} a snapshot before using it again.
        Allocation-free on quiet rounds once the spine is built; ~n list
        cells on single-sender-loss / single-receiver-loss rounds (the
        serial-adversary fault shapes). *)

    val save : t -> unit
    (** Push a branch-point snapshot: two blits (status bytes, state
        words) plus four scalar stores into a preallocated, reused slot —
        cost independent of the subtree explored below it. From the first
        save on, the arena also interns its inbox spines and reduced
        inboxes by status, so revisited statuses rebuild nothing. *)

    val restore : t -> unit
    (** Rewind to the top snapshot, keeping it on the stack (one snapshot
        serves every sibling branch). Raises [Invalid_argument] if no
        snapshot is live. *)

    val drop : t -> unit
    (** Pop the top snapshot without rewinding (the arena is left wherever
        the last branch put it — the parent's own snapshot covers the
        residue). Raises [Invalid_argument] if no snapshot is live. *)

    val snapshots : t -> int
    (** Total {!save} calls over the arena's lifetime. *)

    val restores : t -> int
    (** Total {!restore} calls over the arena's lifetime. *)

    val next_round : t -> Round.t
    val all_halted : t -> bool
    val decisions : t -> Trace.decision list

    val rev_decisions : t -> Trace.decision list
    (** The arena's own decision list, newest first — no copy. Within a
        round the newest decisions come in descending pid order, so
        reversed the list is {!decisions}. A later round only conses onto
        it: the decisions made since an earlier read are the cells in front
        of that read's head (compare with [==]). *)

    val crashed : t -> (Pid.t * Round.t) list

    type fingerprint
    (** A canonical structural snapshot of the global state: per-process
        algorithm states (halted and crashed processes collapse to bare
        tags — their rounds are observable in no sweep verdict), the
        in-flight delayed messages in canonical key order, and the
        decisions recorded so far, built directly from the flat arrays.
        Two states of the same sweep (same config and proposals) with
        structurally equal fingerprints at the same round are
        {e verdict-equivalent}: every suffix of adversary choices leads to
        traces with identical [Props.check] outcomes and identical global
        decision rounds. The payload is plain immutable data (the
        {!Algorithm.S} purity contract), so polymorphic [(=)] and
        [Hashtbl.hash] are the intended equality and hash — this is what
        [Mc.Dedup] keys its transposition table on. A {!probe_fingerprint}
        compares equal to the {!fingerprint} copy of the same state. *)

    val probe_fingerprint : t -> fingerprint
    (** The arena's reusable probe fingerprint, refreshed in place —
        allocation-free when no delayed messages are in flight. Valid only
        until the next arena mutation or [probe_fingerprint] call; use it
        for table lookups, never for storage. *)

    val fingerprint : t -> fingerprint
    (** An owned copy, safe to store in a table. *)

    val copy_fingerprint : fingerprint -> fingerprint
    (** Deep-copies the buffers a probe loans out (status bytes, state
        array); the late-message and decision lists are immutable and
        shared. *)

    val settle :
      ?max_rounds:int -> ?prof:Obs.Prof.acc -> schedule:Schedule.t -> t -> unit
    (** Step with [schedule]'s remaining plans (empty past the horizon)
        until all processes halt or [max_rounds] rounds have executed
        (default {!default_max_rounds}). Leaves the arena at the end of the
        run, builds nothing; the caller rewinds via {!restore}. [prof],
        when given, records one {!Obs.Prof} interval per executed round.

        When the arena was advanced manually via {!step}, pass the
        schedule those plans came from (or an explicit [max_rounds]
        consistent with it) so the bound is right. *)

    val trace : schedule:Schedule.t -> t -> Trace.t
    (** Package the arena's run so far as a trace declaring [schedule]
        (whose omitters {!Props} judges against); [records] is empty. *)

    val finish :
      ?max_rounds:int ->
      ?prof:Obs.Prof.acc ->
      schedule:Schedule.t ->
      t ->
      Trace.t
    (** {!settle}, then {!trace}. *)

    val dirty : int
    (** The negative verdict of {!judge}. *)

    val judge : t -> omitters:Bitset.Big.t -> int
    (** The sweep verdict of the run so far, read off the arena's slabs
        (decisions, status bytes, proposals) with no allocation. With
        [omitters] the pids of [schedule]'s {!Schedule.omitter_set}:
        [judge t ~omitters] is [r >= 0] exactly when
        [Props.check (trace ~schedule t) = []], and then [r] is
        {!Trace.global_decision_round} of that trace as an int ([0] when
        nobody decided); otherwise it is {!dirty}. {!Props.check} stays the
        specification: callers build the trace and check it only for a
        dirty run, so violation lists are the checker's own. *)

    val one_shot :
      Config.t -> proposals:Value.t Pid.Map.t -> (t -> 'a) -> 'a
    (** [one_shot config ~proposals f] applies [f] to a fresh arena, then
        releases the arena — on return and on exception alike: every
        process is marked halted and the arena drops its references to
        algorithm states, envelope cells, decisions and delayed messages.
        A short run whose arena a minor collection promoted then leaves
        none of its young values alive through that arena. [f] must not
        let the arena escape; traces and decision lists it returned stay
        valid. *)
  end

  val run :
    ?record:bool ->
    ?sink:Obs.Sink.t ->
    ?max_rounds:int ->
    ?prof:Obs.Prof.acc ->
    Config.t ->
    proposals:Value.t Pid.Map.t ->
    Schedule.t ->
    Trace.t
  (** Run to completion: steps through the schedule (empty plans past its
      horizon) until every non-crashed process has halted or [max_rounds]
      rounds have executed. The default bound is generous enough for every
      algorithm in this repository to terminate after the schedule's gst.
      [record] (default [false]) fills {!Trace.t.records} for diagrams.
      [sink] (default {!Obs.Sink.noop}) receives the run's structured event
      stream — [Run_start], then per round [Round_start], [Send] (with
      per-copy [Drop]/[Delay] fates), [Crash], [Deliver], [Decide] and
      [Halt], and finally [Run_end]. Event order is deterministic for a
      fixed config, proposals and schedule. [prof] records one
      {!Obs.Prof} interval per executed round; omitted, the loop is
      untouched. *)
end

val default_max_rounds : Config.t -> Schedule.t -> int
(** The bound [run] uses when [max_rounds] is omitted. *)

val round_bound : Config.t -> horizon:int -> gst:int -> int
(** The same bound computed from a horizon and gst directly, for callers
    (the model checker) that build plans round by round and have no
    {!Schedule.t} in hand: [default_max_rounds config s] equals
    [round_bound config ~horizon:(Schedule.horizon s)
    ~gst:(Round.to_int (Schedule.gst s))]. *)
