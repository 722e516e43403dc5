#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

1. A short run of every workload with every gate on, on the default
   seed (untraced) and on another seed (traced). Each must exit 0 with
   a correct result carrying exactly the metrics BENCHMARK.json
   declares for its mode, and no failed request.
2. The negative test: every workload again with --perturb, which feeds
   the gate a reference with one extra job. Each must exit 1 with
   "correct": false and no metrics.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECONDS = "2"
# Per-layer metrics each workload must exercise in its traced run.
EXERCISED = {
    "tick": ["wire.frames", "client.step_rtt_p50_us", "server.syscr_per_frame",
             "session.step_ns", "engine.jobs"],
    "durable": ["wire.frames", "client.stats_rtt_p50_us", "client.step_ckpt_rtt_p50_us",
                "router.hop_us", "snap.bytes", "snap.restore_ns", "engine.jobs"],
    "sweep": ["engine.jobs", "engine.reconfig_ns", "solver.var_batch_s"],
}


def run(workload, seed, trace, extra=()):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SECONDS, "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            failures.append(what)

    for workload in [w["name"] for w in spec["workloads"]]:
        for seed, trace in [(1, 0), (2, 1)]:
            what = f"{workload} seed={seed} trace={trace}"
            code, result, err = run(workload, seed, trace)
            if code != 0 or result is None:
                check(False, f"{what}: exit {code}\n{err[-2000:]}")
                continue
            metrics = result["metrics"]
            check(result["correct"] is True, f"{what}: correct")
            check(result["failed"] == 0 and result["attempted"] >= 1,
                  f"{what}: {result['failed']} of {result['attempted']} failed")
            check({k: v["unit"] for k, v in metrics.items()} == declared[trace],
                  f"{what}: metrics match BENCHMARK.json")
            if trace == 0:
                check(all(v["value"] > 0 for v in metrics.values()),
                      f"{what}: every end-to-end metric is positive")
            else:
                idle = [m for m in EXERCISED[workload] if not metrics.get(m, {}).get("value")]
                check(not idle, f"{what}: exercised layers are measured {idle}")
        code, result, err = run(workload, 1, 0, ["--perturb"])
        check(code == 1 and result is not None and result["correct"] is False
              and result["metrics"] == {} and "INCORRECT" in err,
              f"{workload} --perturb: the gate fails")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
