"""Per-kernel timings: two-copy and m-copy kernels, norms, covariance defect, CLI forms.

    python3 tools/bench_kernels.py --out BENCH.json

Run from the root of a covmap checkout; the package is imported from its
``src/``.  Each record is the best of REPEAT calls of one kernel on
fixed seeded input, after one warm-up call, in milliseconds: the best call
reads the kernel's own cost rather than the load of a shared host.  The
six command lines of acceptance criterion 12 (``criterion_12_invocations``
in ``tests/test_cli_golden.py``) are timed the same way, in process through
``covmap.cli.main`` with ``--out`` to a scratch file and no COVMAP_CONFIG.  The
file opens with an environment stamp (numpy, BLAS, thread variables, CPU
count).  The gated end-to-end benchmark is ``perfbench/``; this script is
not part of it and changes nothing there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from covmap.classify import classify  # noqa: E402
from covmap.cli import main as cli_main  # noqa: E402
from covmap.linalg import operator_norm  # noqa: E402
from covmap.multicopy import (  # noqa: E402
    MultiCopyCoefficients,
    apply_multi,
    covariance_residual_multi,
    extract_multi,
    realize_multi_superoperator,
)
from covmap.norms import cb_norm  # noqa: E402
from covmap.twirl import covariance_deviation  # noqa: E402
from covmap.twocopy import (  # noqa: E402
    CovariantCoefficients,
    extract,
    fit_coefficients,
    realize_superoperator,
)
from test_cli_golden import criterion_12_invocations  # noqa: E402

# The (m, d) shapes of the multicopy_tables workload in perfbench/.
MULTICOPY_MD = ((2, 3), (2, 6), (3, 4), (3, 5), (3, 6), (4, 3), (4, 4))
COVRES_SAMPLES = 4
REPEAT = 7  # timed calls per kernel; the best one is kept
SEED = 0  # of the generated inputs
NOISE = 1e-3  # keeps every residual and defect away from an exact zero


def stamp() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "default"),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }


def best_ms(call) -> float:
    call()
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def cases(rng: np.random.Generator):
    """(kernel, m, d, call) for every timed kernel, on seeded noisy input."""

    def noisy(sup):
        return sup + NOISE * (rng.standard_normal(sup.shape) + 1j * rng.standard_normal(sup.shape))

    for d in range(2, 7):
        c = CovariantCoefficients(d, tuple(rng.standard_normal(6) + 1j * rng.standard_normal(6)))
        exact = realize_superoperator(c)
        sup = noisy(exact)
        yield "realize_superoperator", 2, d, lambda c=c: realize_superoperator(c)
        # a new weight object per call, so no cached gauge reduction is reused
        yield "classify", 2, d, lambda c=c: classify(CovariantCoefficients(c.d, c.coeffs))
        trace_free = CovariantCoefficients(d, (*c.coeffs[:4], 0, 0))
        yield "cb_norm", 2, d, lambda c=trace_free: cb_norm(c)
        yield "operator_norm_residual", 2, d, lambda sup=sup, exact=exact: operator_norm(sup - exact)
        if d >= 3:
            yield "extract", 2, d, lambda sup=sup, d=d: extract(sup, d)
        yield "fit_coefficients", 2, d, lambda sup=sup, d=d: fit_coefficients(sup, d)
        if 3 <= d <= 5:
            yield "covariance_deviation", 2, d, lambda sup=sup, d=d: covariance_deviation(sup, d)
    for m, d in MULTICOPY_MD:
        lam = rng.standard_normal((math.factorial(m), m + 1)) + 1j * rng.standard_normal((math.factorial(m), m + 1))
        mc = MultiCopyCoefficients(m, d, lam)
        sup = noisy(realize_multi_superoperator(mc))
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if d >= m + 1:
            yield "extract_multi", m, d, lambda sup=sup, m=m, d=d: extract_multi(sup, m, d)
        yield "apply_multi", m, d, lambda mc=mc, x=x: apply_multi(mc, x)
        yield "covariance_residual_multi", m, d, lambda sup=sup, m=m, d=d: covariance_residual_multi(
            sup, m, d, samples=COVRES_SAMPLES
        )


def cli_cases(tmp: Path):
    """(form, call) for the six criterion-12 command lines, input files written to tmp."""
    for form, argv in criterion_12_invocations(tmp).items():
        argv = [*argv, "--out", str(tmp / "out.json")]

        def call(argv=argv):
            if cli_main(argv) != 0:
                raise RuntimeError(f"covmap {' '.join(argv)} did not exit 0")

        yield form, call


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="path of the JSON record to write")
    args = parser.parse_args(argv)
    records = []
    for kernel, m, d, call in cases(np.random.default_rng(SEED)):
        records.append({"kernel": kernel, "m": m, "d": d, "best_ms": round(best_ms(call), 4)})
        print(f"{kernel:28s} m={m} d={d} {records[-1]['best_ms']:10.3f} ms", file=sys.stderr)
    os.environ.pop("COVMAP_CONFIG", None)  # the command lines run on their built-in defaults
    cli = []
    with tempfile.TemporaryDirectory() as tmp:
        for form, call in cli_cases(Path(tmp)):
            cli.append({"form": form, "best_ms": round(best_ms(call), 4)})
            print(f"cli {form:24s} {cli[-1]['best_ms']:10.3f} ms", file=sys.stderr)
    record = {
        "environment": stamp(),
        "repeat": REPEAT,
        "seed": SEED,
        "covariance_residual_multi_samples": COVRES_SAMPLES,
        "covariance_deviation_samples": 20,
        "kernels": records,
        "cli": cli,
    }
    with open(args.out, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
