"""Tests for the benchmark's own arithmetic (metrics.py).

Run from the root of the repository:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import sys
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402


def a_pass(kind="timed", runs=100, failures=0, mismatches=(), wall_s=1.0,
           minor_words=0.0, promoted_words=0.0):
    return {
        "kind": kind,
        "runs": runs,
        "failures": failures,
        "mismatches": list(mismatches),
        "wall_s": wall_s,
        "minor_words": minor_words,
        "promoted_words": promoted_words,
        "minor_collections": 7,
        "major_collections": 2,
    }


def a_raw(passes, **ledger):
    led = {
        "pass_s": 2.0, "pass_runs": 100, "edges": 0, "snapshots": 0,
        "restores": 0, "leaves": 0, "lookups": 0, "hits": 0, "entries": 0,
        "shard_s": [], "shard_promoted_words": 0.0, "merge_s": 0.0,
        "replay_s": 2.0, "replay_edges": 0, "replay_leaves": 0,
        "menu_s": 0.0, "step_s": 0.0, "finish_s": 0.0, "finish_rounds": 0,
        "check_s": 0.0, "check_words": 0.0, "gen_s": 0.0,
        "gen_schedules": 0, "harness_s": 0.0, "harness_rounds": 0,
        "harness_us": [], "monitor_on_s": 0.0, "monitor_off_s": 0.0,
        "shrink_s": 0.0, "shrink_steps": 0, "findings": 0,
    }
    led.update(ledger)
    return {
        "setup_s": [0.3, 0.1, 0.2],
        "menu_build_s": [0.01, 0.03, 0.02],
        "menu_nodes": 5,
        "passes": passes,
        "top_heap_words": 1 << 20,
        "word_bytes": 8,
        "ledger": led,
    }


class PerRun(unittest.TestCase):
    def test_normalises_totals_over_timed_passes_only(self):
        raw = a_raw([
            a_pass("warmup", runs=100, minor_words=1e9, promoted_words=1e9),
            a_pass(runs=100, minor_words=4000.0, promoted_words=100.0),
            a_pass(runs=300, minor_words=12000.0, promoted_words=300.0),
        ])
        m = metrics.end_to_end(raw)
        self.assertEqual(m["minor_words_per_run"], (40.0, "words"))
        self.assertEqual(m["promoted_words_per_run"], (1.0, "words"))

    def test_rejects_zero_runs(self):
        with self.assertRaises(ValueError):
            metrics.per_run(10.0, 0)

    def test_runs_per_s_is_the_median_pass_rate(self):
        timed = [a_pass(runs=100, wall_s=1.0), a_pass(runs=100, wall_s=4.0),
                 a_pass(runs=100, wall_s=2.0)]
        self.assertEqual(metrics.runs_per_s(timed), 50.0)

    def test_setup_is_the_median_sample_and_heap_is_in_mib(self):
        m = metrics.end_to_end(a_raw([a_pass()]))
        self.assertEqual(m["setup_s"], (0.2, "s"))
        self.assertEqual(m["peak_heap_mb"], (8.0, "MB"))


class Percentiles(unittest.TestCase):
    def test_p99_of_1000_samples_keeps_ten_beyond(self):
        self.assertEqual(metrics.tail_percentile(range(1, 1001)), (990, 1000))

    def test_withheld_when_fewer_than_ten_lie_beyond(self):
        self.assertEqual(metrics.tail_percentile(range(1, 1000)), (None, 999))
        self.assertEqual(metrics.tail_percentile(range(1, 101), q=90.0),
                         (90, 100))
        self.assertEqual(metrics.tail_percentile([]), (None, 0))

    def test_harness_metrics_report_their_sample_count(self):
        raw = a_raw([a_pass()], harness_us=[float(x) for x in range(1, 2001)],
                    harness_rounds=8000)
        m = metrics.per_layer(raw)
        self.assertEqual(m["harness.samples"], (2000, "count"))
        self.assertEqual(m["harness.run_us_p50"], (1000.5, "us"))
        self.assertEqual(m["harness.run_us_p99"], (1980.0, "us"))
        self.assertEqual(m["harness.rounds"], (4.0, "rounds"))


class FailedShare(unittest.TestCase):
    def test_contained_failures_count_alone_when_verdicts_hold(self):
        passes = [a_pass(runs=100, failures=3), a_pass(runs=300, failures=1)]
        self.assertEqual(metrics.failed_runs(passes), 4)
        self.assertEqual(metrics.failed_share(passes), 0.01)

    def test_a_mismatched_pass_fails_all_its_runs(self):
        passes = [a_pass(runs=100, failures=3, mismatches=["runs: got 1"]),
                  a_pass(runs=300, failures=1)]
        self.assertEqual(metrics.failed_runs(passes), 101)

    def test_summary_is_incorrect_on_any_failure(self):
        clean = metrics.summarise(a_raw([a_pass(), a_pass("warmup")]), 0)
        self.assertTrue(clean["correct"])
        self.assertEqual((clean["attempted"], clean["failed"]), (200, 0))
        self.assertEqual(clean["metrics"]["ok_share"]["value"], 1.0)
        bad = metrics.summarise(a_raw([a_pass(failures=2), a_pass("warmup")]), 0)
        self.assertFalse(bad["correct"])
        self.assertEqual(bad["metrics"]["ok_share"]["value"], 0.99)


class Closure(unittest.TestCase):
    def test_layer_self_times_over_the_pass(self):
        self.assertEqual(metrics.closure([0.5, 1.0, 0.25, 0.05], 2.0), 0.9)

    def test_ledger_closure_and_trace_overhead(self):
        raw = a_raw(
            [a_pass(runs=100, wall_s=1.0)],
            menu_s=0.25, step_s=1.0, finish_s=0.25, check_s=0.3,
            replay_s=2.0, pass_s=2.0, pass_runs=100,
        )
        m = metrics.per_layer(raw)
        self.assertAlmostEqual(m["ledger.closure"][0], 0.9)
        self.assertEqual(m["trace.overhead"], (2.0, "ratio"))

    def test_per_call_costs_divide_by_replayed_calls(self):
        raw = a_raw([a_pass()], step_s=0.002, replay_edges=1000,
                    finish_s=0.001, finish_rounds=300, check_s=0.0005,
                    check_words=5000.0, replay_leaves=100, leaves=7)
        m = metrics.per_layer(raw)
        self.assertAlmostEqual(m["arena.step_ns"][0], 2000.0)
        self.assertAlmostEqual(m["arena.finish_ns"][0], 10000.0)
        self.assertEqual(m["arena.finish_rounds"], (3.0, "rounds"))
        self.assertAlmostEqual(m["leaf.check_ns"][0], 5000.0)
        self.assertEqual(m["leaf.words"], (50.0, "words"))
        self.assertEqual(m["leaf.runs"], (7, "count"))

    def test_layers_a_workload_never_calls_read_zero(self):
        m = metrics.per_layer(a_raw([a_pass()]))
        for name in ("dedup.hit_rate", "dedup.shard_s_max", "arena.step_ns",
                     "monitor.overhead", "harness.run_us_p99"):
            self.assertEqual(m[name][0], 0.0, name)


class Contract(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
            spec = json.load(f)
        raw = a_raw([a_pass()])
        for key, compute in (("end_to_end", metrics.end_to_end),
                             ("per_layer", metrics.per_layer)):
            got = {name: unit for name, (_, unit) in compute(raw).items()}
            want = {m["name"]: m["unit"] for m in spec[key]}
            self.assertEqual(got, want, key)


if __name__ == "__main__":
    unittest.main()
