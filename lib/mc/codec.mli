(** JSON codecs for sweep results — the vocabulary of the crash-safety
    layer.

    Everything that crosses a process boundary ({!Sweep}'s worker
    protocol) or a crash boundary ({!Checkpoint} snapshot files) is encoded
    here, so the wire format and the snapshot format cannot drift apart.
    Decoders are total: every shape mismatch is an [Error] with a message
    naming the offending field, never an exception.

    Encodings are {e canonical}: process sets serialize as their sorted
    element lists, so two structurally different but equal [Pid.Set.t]
    trees (an incrementally-built AVL tree versus [of_list]'s) encode to
    the same bytes. That makes {!result_equal} — equality of encodings —
    the right notion of "bit-identical aggregates" across processes:
    polymorphic equality on decoded results would be unsound, canonical
    encodings are not. *)

val choice_to_json : Serial.choice -> Obs.Json.t
val choice_of_json : Obs.Json.t -> (Serial.choice, string) result

val violation_to_json : Sim.Props.violation -> Obs.Json.t
val violation_of_json : Obs.Json.t -> (Sim.Props.violation, string) result

val step_error_to_json : Sim.Engine.step_error -> Obs.Json.t
val step_error_of_json : Obs.Json.t -> (Sim.Engine.step_error, string) result

val stats_to_json : Dedup.stats -> Obs.Json.t
val stats_of_json : Obs.Json.t -> (Dedup.stats, string) result

val result_to_json : Exhaustive.result -> Obs.Json.t
(** The full record. [min_decision = max_int] (no run decided) encodes as
    [null] rather than a 63-bit integer literal, keeping snapshots readable
    and parsers honest. *)

val result_of_json : Obs.Json.t -> (Exhaustive.result, string) result

val result_equal : Exhaustive.result -> Exhaustive.result -> bool
(** Equality of canonical encodings — what "bit-identical" means whenever
    one side of the comparison crossed a process or crash boundary. *)
