#!/usr/bin/env python3
"""The repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds N --trace 0|1

Builds perfbench/bench.exe with dune, runs the one workload NAME in a
fresh process (so no workload's heap taxes another's GC and the peak heap
is per workload), computes the metrics BENCHMARK.json names from the raw
measurements (metrics.py) and prints them as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
from a separate traced pass. The full record (raw measurements, metrics,
provenance) goes to .perfbench_out/ under the repository root, with the
traced run's coarse spans as a Chrome trace beside it.

Exit status: 0 when every pass reproduced its pinned verdict, 1 when one
did not, 2 when the benchmark could not build or run.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import metrics  # noqa: E402

WORKLOADS = ("sweep-none", "sweep-omit", "fuzz")
TARGET = "./perfbench/bench.exe"
EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
OUT = ".perfbench_out"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Builds bench.exe and the libraries it links, nothing else. The dune
    cache is off so the build writes only under the repository root."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "--display", "quiet", TARGET],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
        fail("build failed")


def commit():
    """The commit checked out, or None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.decode().strip() if proc.returncode == 0 else None


def main():
    # SIGTERM becomes an exception, on which subprocess.run kills the
    # child it waits for: no build or bench.exe outlives this script.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        fail("run from the root of the repository (no dune-project or lib/ here)")
    build()

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(
        OUT, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    )
    argv = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        argv += ["--spans", stem + ".spans.json"]
    load_start = os.getloadavg()
    started = time.time()
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("bench.exe did not finish: %s" % e)
    load_end = os.getloadavg()
    if proc.returncode != 0:
        fail("bench.exe exited with status %d" % proc.returncode)
    raw = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    result = metrics.summarise(raw, args.trace)

    provenance = {
        "commit": commit(),
        "ocaml": raw["ocaml_version"],
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": load_end,
        "wall_s": time.time() - started,
        "timed_passes": sum(p["kind"] == "timed" for p in raw["passes"]),
        "setup_chunks": len(raw["setup_s"]),
    }
    with open(stem + ".json", "w") as f:
        json.dump(
            {"args": vars(args), "provenance": provenance, "result": result, "raw": raw},
            f,
        )
    for p in raw["passes"]:
        for m in p["mismatches"]:
            print("MISMATCH (%s pass): %s" % (p["kind"], m))
    print("provenance: " + json.dumps(provenance))
    for name, m in result["metrics"].items():
        print("%-32s %14.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
