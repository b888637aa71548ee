"""Checks of the benchmark itself, without timing anything.

    python3 perfbench/check.py

For every workload it builds the job cycle for seeds 1 and 2 and confirms
that the job mix (kind, d or (m, d), cb branch, classify family,
perturbation) is identical while every job's input values differ, so a
claim can be re-checked on a seed that was not used while the change was
written.  It then runs one cycle of each workload and feeds a deliberately
wrong answer for every job through its check, confirming that each is
counted as a failure.  Finally it confirms that BENCHMARK.json names exactly
the workloads and per-layer metrics the code produces.  Exits non-zero on
any mismatch.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from collections import Counter

from oracle import Reference
from run import ROOT, SRC, WORK, Client, import_covmap, warm_cycle
from spans import per_layer_names
from workloads import WORKLOADS


SEEDS = (1, 2)


def main() -> int:
    sys.path.insert(0, SRC)
    cm = import_covmap()
    problems = []
    tmp = os.path.join(WORK, f"check-{os.getpid()}")
    try:
        for name, make_jobs in WORKLOADS.items():
            cycles = []
            for seed in SEEDS:
                os.makedirs(os.path.join(tmp, str(seed)), exist_ok=True)
                cycles.append(make_jobs(cm, Reference(), seed, os.path.join(tmp, str(seed))))
            a, b = cycles
            same_mix = [job.spec for job in a] == [job.spec for job in b]
            same_values = sum(x.fingerprint() == y.fingerprint() for x, y in zip(a, b))
            shares = ", ".join(f"{k} {v}" for k, v in sorted(Counter(j.kind for j in a).items()))
            print(f"{name}: {len(a)} jobs per cycle ({shares}); same mix across seeds: {same_mix}; "
                  f"jobs with identical inputs: {same_values}")
            if not same_mix:
                problems.append(f"{name}: job mix depends on the seed")
            if same_values:
                problems.append(f"{name}: {same_values} jobs do not change with the seed")

            for job in a:
                job.checker = job.prepare()
            client = Client(cm, None)
            attempted, failed, missed = warm_cycle(client, a)
            print(f"  self-test: {failed} of {attempted} wrong answers counted as failed; "
                  f"failures on correct answers: {sum(client.failures.values())}")
            for reason in client.failures:
                print(f"  FAILED {reason}")
            if failed != attempted or attempted != len(a):
                problems.append(f"{name}: wrong answers not counted for {missed or 'failed jobs'}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if [m["name"] for m in spec["per_layer"]] != per_layer_names():
        problems.append("BENCHMARK.json per_layer differs from spans.per_layer_names()")
    for problem in problems:
        print("PROBLEM " + problem)
    print("ok" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
