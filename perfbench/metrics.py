"""Arithmetic of the repository benchmark.

bench.exe prints raw measurements: per-pass run counts, wall times and GC
deltas, set-up samples, and (traced runs) a ledger of per-layer sums and
counts. This module turns them into the metrics BENCHMARK.json names.
Everything here is a pure function of that JSON, so test_metrics.py can
check it without building anything.
"""

import math
import statistics

MIB = 1 << 20


def ratio(num, den):
    """num / den, or 0 when the layer did no work (den == 0).

    Per-layer metrics of a layer a workload never calls read 0: the layer
    did nothing, which is the truth, not a missing value.
    """
    return num / den if den else 0.0


def per_run(total, runs):
    """A whole-pass count normalised per accounted run."""
    if runs <= 0:
        raise ValueError("no runs to normalise by")
    return total / runs


def tail_percentile(samples, q=99.0, min_beyond=10):
    """The nearest-rank q-th percentile of samples and the sample count.

    The value is None unless at least min_beyond samples lie above it: a
    tail percentile resting on fewer is not reported.
    """
    xs = sorted(samples)
    n = len(xs)
    rank = math.ceil(q / 100.0 * n)
    if rank < 1 or n - rank < min_beyond:
        return None, n
    return xs[rank - 1], n


def failed_runs(passes):
    """Runs that count as failed: every run of a pass whose verdict differs
    from its pin, otherwise the pass's contained failures."""
    return sum(p["runs"] if p["mismatches"] else p["failures"] for p in passes)


def failed_share(passes):
    """Failed runs over runs attempted, across every checked pass."""
    return failed_runs(passes) / sum(p["runs"] for p in passes)


def closure(layer_seconds, pass_seconds):
    """How much of a traced pass the layer spans account for: the sum of
    the layers' self times over the pass's wall time. The layer calls
    timed here never nest, so each span's self time is its duration."""
    return sum(layer_seconds) / pass_seconds


def end_to_end(raw):
    """The end-to-end metrics of an untraced run."""
    timed = [p for p in raw["passes"] if p["kind"] == "timed"]
    runs = sum(p["runs"] for p in timed)
    return {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "runs_per_s": (runs_per_s(timed), "runs/s"),
        "minor_words_per_run": (
            per_run(sum(p["minor_words"] for p in timed), runs),
            "words",
        ),
        "promoted_words_per_run": (
            per_run(sum(p["promoted_words"] for p in timed), runs),
            "words",
        ),
        "peak_heap_mb": (raw["top_heap_words"] * raw["word_bytes"] / MIB, "MB"),
        "ok_share": (1.0 - failed_share(raw["passes"]), "ratio"),
    }


def runs_per_s(timed):
    """Median over the timed passes of runs accounted per wall second."""
    return statistics.median(p["runs"] / p["wall_s"] for p in timed)


def per_layer(raw):
    """The per-layer metrics of a traced run."""
    led = raw["ledger"]
    timed = [p for p in raw["passes"] if p["kind"] == "timed"]
    first = timed[0]
    shards = led["shard_s"]
    samples = led["harness_us"]
    p99, n = tail_percentile(samples)
    calls = led["replay_leaves"]
    layers = [
        led["menu_s"],
        led["step_s"],
        led["finish_s"],
        led["check_s"],
        led["gen_s"],
        led["harness_s"],
        led["shrink_s"],
    ]
    return {
        "menu.nodes": (raw["menu_nodes"], "count"),
        "menu.build_s": (statistics.median(raw["menu_build_s"]), "s"),
        "arena.edges": (led["edges"], "count"),
        "arena.snapshots": (led["snapshots"], "count"),
        "arena.restores": (led["restores"], "count"),
        "arena.step_ns": (1e9 * ratio(led["step_s"], led["replay_edges"]), "ns"),
        "arena.finish_ns": (1e9 * ratio(led["finish_s"], calls), "ns"),
        "arena.finish_rounds": (ratio(led["finish_rounds"], calls), "rounds"),
        "leaf.runs": (led["leaves"], "count"),
        "leaf.check_ns": (1e9 * ratio(led["check_s"], calls), "ns"),
        "leaf.words": (ratio(led["check_words"], calls), "words"),
        "dedup.lookups": (led["lookups"], "count"),
        "dedup.hit_rate": (ratio(led["hits"], led["lookups"]), "ratio"),
        "dedup.entries": (led["entries"], "count"),
        "dedup.shard_s_median": (statistics.median(shards) if shards else 0.0, "s"),
        "dedup.shard_s_max": (max(shards) if shards else 0.0, "s"),
        "dedup.promoted_words_per_entry": (
            ratio(led["shard_promoted_words"], led["entries"]),
            "words",
        ),
        "merge.s": (led["merge_s"], "s"),
        "gen.schedules": (led["gen_schedules"], "count"),
        "gen.s": (led["gen_s"], "s"),
        "harness.rounds": (ratio(led["harness_rounds"], n), "rounds"),
        "harness.run_us_p50": (statistics.median(samples) if samples else 0.0, "us"),
        "harness.run_us_p99": (p99 if p99 is not None else 0.0, "us"),
        "harness.samples": (n, "count"),
        "monitor.overhead": (ratio(led["monitor_on_s"], led["monitor_off_s"]), "ratio"),
        "shrink.steps": (led["shrink_steps"], "count"),
        "shrink.s": (led["shrink_s"], "s"),
        "fuzz.findings": (led["findings"], "count"),
        "gc.minor_collections": (first["minor_collections"], "count"),
        "gc.major_collections": (first["major_collections"], "count"),
        "ledger.closure": (closure(layers, led["replay_s"]), "ratio"),
        "trace.overhead": (
            runs_per_s(timed) / (led["pass_runs"] / led["pass_s"]),
            "ratio",
        ),
    }


def summarise(raw, trace):
    """The benchmark's result object for one run of bench.exe."""
    passes = raw["passes"]
    metrics = per_layer(raw) if trace else end_to_end(raw)
    failed = failed_runs(passes)
    return {
        "correct": failed == 0 and all(not p["mismatches"] for p in passes),
        "attempted": sum(p["runs"] for p in passes),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
