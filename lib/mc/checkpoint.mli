(** Versioned, atomically-written sweep snapshots.

    A checkpoint is the crash-safe image of a sweep in flight, at the
    granularity of a {!Sweep} task (a first-round subtree, a proposal
    assignment or an orbit, each with fresh {!Dedup} tables): the results
    of the {e completed} tasks, in task order, plus enough metadata to
    rebuild the pending ones deterministically. Nothing sub-task is
    persisted — a task interrupted mid-subtree is simply rerun on resume,
    which is what keeps a resumed sweep's aggregates bit-identical to an
    undisturbed one (the merge is a fold over tasks in enumeration order
    either way).

    Files are written through {!Obs.Artifact} (tmp+rename), so a snapshot
    on disk is always complete: a crash mid-write leaves the previous
    snapshot, never a prefix. Each file embeds a format version and the
    source commit; {!load} returns a {e structured} error — pinned message,
    never an exception — for unknown versions, truncated files, or
    anything else unreadable, so `--resume` against a bad file degrades
    into a clear complaint. *)

type entry = {
  task : int;  (** index in the driver's deterministic task order *)
  result : Exhaustive.result;
  stats : Dedup.stats option;  (** reduced sweeps only *)
  edges : int;  (** engine rounds the task stepped (prefix-hit metrics) *)
}

type t = {
  commit : string;  (** source commit the writing binary was built from *)
  params : Obs.Json.t;
      (** the driver's own description of the sweep (algorithm, config,
          mode, …), opaque here; {!compatible} compares it for equality on
          resume so a checkpoint can never silently seed a different
          sweep *)
  total_tasks : int;
  completed : entry list;  (** ascending by [task], no duplicates *)
}

val version : int
(** The format version this build reads and writes (1). *)

val entry_to_json : entry -> Obs.Json.t
val entry_of_json : Obs.Json.t -> (entry, string) result
(** One completed task, as stored in snapshots — {!Sweep} reuses the
    same object as its worker protocol's result frame, so the snapshot
    format and the wire format cannot drift apart. *)

val current_commit : unit -> string
(** The source commit embedded in new snapshots: [git rev-parse HEAD] when
    available, ["unknown"] otherwise (never fails). *)

val save : path:string -> t -> unit
(** Atomic write (tmp+rename in [path]'s directory). *)

type load_error =
  | Unreadable of string  (** file missing or unreadable *)
  | Malformed of string  (** truncated, not JSON, or fields missing *)
  | Unknown_version of int  (** written by a different format version *)

val pp_load_error : Format.formatter -> load_error -> unit
(** Pinned messages, e.g.
    ["checkpoint: unknown format version 7 (this build reads version 1)"]. *)

val load : path:string -> (t, load_error) result
(** Never raises: every failure mode is a {!load_error}. *)

val compatible : t -> params:Obs.Json.t -> (unit, string) result
(** Whether a loaded checkpoint belongs to the sweep described by
    [params] (canonical JSON equality). The error message names both
    parameter strings. *)
