(** The single-run executor of a fuzz campaign: one schedule simulated on
    a one-shot engine arena ({!Sim.Engine.Make.Arena}) with an online
    {!Monitor}, a round budget, and {!Sim.Engine.Step_error} containment.

    Monitoring changes {e when} a violation is detected, never {e whether}:
    with [monitor] on the run aborts at the violating round; with it off
    the run completes and the same safety violations surface from the
    post-hoc {!Sim.Props.check}. The monitors-on/off distinction exists so
    the bench suite can price the monitor itself. *)

open Kernel

val run :
  ?fuel:int ->
  ?monitor:bool ->
  algo:Sim.Algorithm.packed ->
  config:Config.t ->
  proposals:Value.t Pid.Map.t ->
  Sim.Schedule.t ->
  Outcome.t
(** Step the schedule round by round (empty plans past its horizon) until
    every process halts, the monitor trips, or [fuel] rounds have executed
    (default {!Sim.Engine.default_max_rounds}). After each round the
    monitor observes only that round's new decisions, taken from the front
    of the arena's newest-first list.

    - all halted, post-hoc check clean → [Passed] (the verdict is read
      off the arena by {!Sim.Engine.Make.Arena.judge}; a trace is built
      and {!Sim.Props.check}ed only when it is dirty);
    - [monitor] (default [true]) trips → [Violated] at that round with the
      monitor's violation;
    - all halted but {!Sim.Props.check} complains (termination, or safety
      with the monitor off) → [Violated] at the last round;
    - fuel out → [Budget_exhausted] with the still-undecided correct
      processes;
    - the engine contains an algorithm fault → [Crashed].

    Exceptions outside the engine's containment propagate; see
    {!run_contained}. *)

val run_contained :
  ?fuel:int ->
  ?monitor:bool ->
  algo:Sim.Algorithm.packed ->
  config:Config.t ->
  proposals:Value.t Pid.Map.t ->
  Sim.Schedule.t ->
  Outcome.t
(** {!run} with a last-resort backstop: any other exception (e.g. raised
    from [Algorithm.init]) becomes [Raised] instead of killing the
    campaign. [Stack_overflow] and [Out_of_memory] still propagate. *)
