(** Symmetry reduction over binary proposal assignments.

    For an algorithm whose behaviour is invariant under renaming processes
    ({!Sim.Algorithm.S.symmetric} — no pid-dependent tie-breaking), two
    proposal assignments that differ only by a permutation of processes
    produce permutation-equivalent run sets: same decision rounds, same
    violation counts, same undecided counts, run by run. Binary assignments
    therefore fall into [n + 1] orbits classified by the number of [1]
    proposers, so a binary sweep need only explore one {e representative}
    per orbit ([ones = {p1..pk}]) and weight it by the orbit size
    [C(n, k)] — [2^n] assignments collapse to [n + 1].

    Soundness requires the schedule set to be permutation-closed too. It is
    by construction under {!Serial.All_subsets}; under the default
    [Prefixes] policy the receiver sets are pid-prefixes (not closed under
    permutation), but the orbit-equivalence of the {e aggregates} still
    holds empirically for every algorithm in this repo — the property tests
    assert exactly that, per orbit, against the unreduced sweep.

    Scaled aggregates are exact for [runs] and [undecided_runs]; the
    [max_decision]/[min_decision] interval is exact because a permuted run
    decides in the same round. The [violations] and [crashed] {e lists}
    keep only the representative's entries (one witness per orbit, not
    [C(n,k)] permuted copies); their unreduced counts are recoverable as
    [sum multiplicity * length per-orbit list], which the property tests
    check. [distinct_runs] counts the representative's explored leaves
    only.

    {!Sweep} applies the reduction: under [Dedup_sym] a binary sweep of a
    {!Sim.Algorithm.S.symmetric} algorithm runs one task per orbit — a
    {!Dedup.sweep_sharded} of the representative, {!scale}d — and an
    asymmetric algorithm falls back to plain dedup, so asking for symmetry
    never unsoundly reduces it. *)

open Kernel

type orbit = {
  ones : Pid.Set.t;  (** the [1]-proposers of the representative *)
  proposals : Value.t Pid.Map.t;
  multiplicity : int;  (** orbit size: [C(n, |ones|)] *)
}

val choose : int -> int -> int
(** Exact binomial coefficient [C(n, k)]; [0] outside [0 <= k <= n]. *)

val orbits : Config.t -> orbit list
(** The [n + 1] orbit representatives, in ascending [|ones|] order —
    [ones = {}], [{p1}], [{p1, p2}], …, [{p1..pn}]. Multiplicities sum to
    [2^n]. *)

val scale : int -> Exhaustive.result -> Exhaustive.result
(** Weight a representative's sweep result by the orbit size: multiplies
    [runs] and [undecided_runs], leaves everything else (including
    [distinct_runs] and the violation/crashed lists) as the
    representative's. *)
