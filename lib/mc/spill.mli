(** Disk overflow for the {!Dedup} transposition table.

    A capped sweep keeps its hottest entries in the in-memory table and
    appends the overflow here: an append-only data file plus an in-memory
    digest index. Each record stores the {e full} marshalled key next to
    its payload, and a lookup whose digest matches still compares the
    stored key bytes — so the reduction stays exact (a digest collision
    costs a disk read, never a wrong answer), while the resident cost per
    spilled entry drops to a 16-byte digest and three integers.

    Keys and payloads are opaque byte strings; {!Dedup} produces them with
    [Marshal] ([No_sharing], pure data only), under which equal keys have
    equal bytes — marshalled bytes are a function of the structure, and
    structural equality is exactly the table's equality.

    A store belongs to one shard of one sweep: single-threaded access, no
    cross-process sharing, deleted on {!close}. *)

type t

val create : dir:string -> t
(** Open a fresh backing file inside [dir] (which must exist). The file
    name carries the pid and a per-process counter, so concurrent sweeps
    and shards never collide. *)

val add : t -> key:string -> data:string -> unit
(** Append one record. The caller only adds keys it failed to {!find} —
    duplicates are not detected. *)

val find : t -> key:string -> string option
(** The payload stored for [key], comparing full key bytes on digest
    match. *)

val close : t -> unit
(** Close and delete the backing file. Idempotent; {!add}/{!find} after
    [close] raise [Invalid_argument]. *)
