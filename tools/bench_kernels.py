"""Per-kernel timings, warm and first-use: two-copy and m-copy kernels, norms, twirl, JSON I/O, CLI forms, Tier-1 time.

    python3 tools/bench_kernels.py --out BENCH.json

Run from the root of a covmap checkout; the package is imported from its
``src/``.  Each record is the best of REPEAT calls of one kernel on
fixed seeded input, after one warm-up call, in milliseconds: the best call
reads the kernel's own cost rather than the load of a shared host.
``classify`` is timed on random complex weights, which are not
self-adjoint, and as ``classify_self_adjoint`` on their self-adjoint part
with its trace terms, where the positivity margin and the Choi spectrum
are read too.  Each cold record is the best of REPEAT first-use calls:
before each call every ``functools.lru_cache`` of ``covmap.operators``
and ``covmap.twocopy`` is cleared, so the call also builds the index
tables of its (m, d).  There is
one per (m, d) timed here, on ``extract_multi`` (``extract`` in table
form at m = 2), or on ``realize_multi_superoperator`` where d < m + 1
leaves the weights without a unique read.  Both
faces of the twirl's conjugation kernel are timed at the sample counts of
the twirl_project workload in perfbench/: a 24-sample Haar average of a
superoperator per d, and ``twirl_operator`` with 200 samples at
(m, d) = (3, 3) and (3, 4), then at (2, 3), (2, 6) and (4, 3), which the
workload does not run.  ``schur_weyl_fit`` is timed at every m-copy
shape, on the image that ``apply_multi`` returns there.  The
operator norm of a residual ``superop - realize``, the d^(2m) x d^2
matrix whose Gram product the extraction residuals pay for, is timed at
every two-copy d and at every m-copy shape with m >= 3.  The six command lines of acceptance criterion
12 (``criterion_12_invocations`` in ``tests/test_cli_golden.py``) are timed
the same way, in process through ``covmap.cli.main`` with ``--out`` to a
scratch file and no COVMAP_CONFIG.
So are the four steps of a JSON matrix read and write at the sizes the
command line meets: ``covmap.cli._read_json`` of a written file,
``matrix_from_obj`` on the parsed object, ``matrix_to_obj`` on an array and
``dumps`` of its object; and one ``main`` call on a weight file, where
argument parsing is a large share of the job.
Last, the Tier-1 test command (TIER1) runs once in a subprocess from the
checkout root, and its wall time and summary line are recorded, as are
the line and code-line counts of ``src/covmap``, in total and per module
(code lines leave out blank, comment-only and docstring lines).  The
file opens with an environment stamp (numpy, BLAS, thread variables, CPU
count).  The gated end-to-end benchmark is ``perfbench/``; this script is
not part of it and changes nothing there.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from covmap.classify import classify  # noqa: E402
from covmap.cli import _read_json as read_json  # noqa: E402
from covmap.cli import main as cli_main  # noqa: E402
from covmap.linalg import operator_norm  # noqa: E402
from covmap.multicopy import (  # noqa: E402
    MultiCopyCoefficients,
    apply_multi,
    covariance_residual_multi,
    extract_multi,
    realize_multi_superoperator,
    schur_weyl_fit,
)
from covmap.norms import cb_norm  # noqa: E402
from covmap import operators, twocopy  # noqa: E402
from covmap.operators import haar_unitary  # noqa: E402
from covmap.serialize import coefficients_to_obj, dumps, matrix_from_obj, matrix_to_obj  # noqa: E402
from covmap.twirl import (  # noqa: E402
    _haar_average,
    _superoperator_pairs,
    conjugated_superoperator,
    covariance_deviation,
    twirl_operator,
)
from covmap.twocopy import (  # noqa: E402
    CovariantCoefficients,
    extract,
    fit_coefficients,
    realize_superoperator,
    virtual_broadcast_coefficients,
)
from test_cli_golden import criterion_12_invocations  # noqa: E402

# The (m, d) shapes of the multicopy_tables workload in perfbench/.
MULTICOPY_MD = ((2, 3), (2, 6), (3, 4), (3, 5), (3, 6), (4, 3), (4, 4))
COVRES_SAMPLES = 4
# Sample counts of the twirl_project workload in perfbench/, and its operator
# shapes (3, 3) and (3, 4) followed by three it does not run.
TWIRL_SAMPLES = 24
TWIRL_OPERATOR_SAMPLES = 200
TWIRL_OPERATOR_MD = ((3, 3), (3, 4), (2, 3), (2, 6), (4, 3))
# (rows, cols) of the matrices the CLI reads and writes: a d = 5 superoperator
# (classify, norm, twirl), an (m, d) = (3, 4) superoperator (multicopy
# extract) and an operator on 3 copies of d = 4 (the multicopy apply output).
IO_SHAPES = ((625, 25), (4096, 16), (64, 64))
REPEAT = 7  # timed calls per kernel; the best one is kept
SEED = 0  # of the generated inputs
NOISE = 1e-3  # keeps every residual and defect away from an exact zero
# The Tier-1 command of ROADMAP.md, with src/ put first on PYTHONPATH.
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


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
        yield "classify", 2, d, lambda c=c: classify(c)
        c1, c2, c3, _, c5, c6 = c.coeffs  # self-adjoint, so the positivity margin runs too
        self_adjoint = CovariantCoefficients(d, (c1.real, c2.real, c3, c3.conjugate(), c5.real, c6.real))
        yield "classify_self_adjoint", 2, d, lambda c=self_adjoint: classify(c)
        trace_free = CovariantCoefficients(d, (*c.coeffs[:4], 0, 0))
        yield "cb_norm", 2, d, lambda c=trace_free: cb_norm(c)
        yield "operator_norm_residual", 2, d, lambda sup=sup, exact=exact: operator_norm(sup - exact)
        if d >= 3:
            yield "extract", 2, d, lambda sup=sup, d=d: extract(sup, d)
        yield "fit_coefficients", 2, d, lambda sup=sup, d=d: fit_coefficients(sup, d)
        if 3 <= d <= 5:
            yield "covariance_deviation", 2, d, lambda sup=sup, d=d: covariance_deviation(sup, d)
        u = haar_unitary(d, SEED, d)  # one twirl sample: the conjugation by one unitary
        yield "conjugated_superoperator", 2, d, lambda s=sup, u=u: conjugated_superoperator(s, u)
        yield "haar_average", 2, d, lambda s=sup, d=d: _haar_average(
            s, d, TWIRL_SAMPLES, SEED, _superoperator_pairs
        )
    for m, d in MULTICOPY_MD:
        lam = rng.standard_normal((math.factorial(m), m + 1)) + 1j * rng.standard_normal((math.factorial(m), m + 1))
        mc = MultiCopyCoefficients(m, d, lam)
        exact = realize_multi_superoperator(mc)
        sup = noisy(exact)
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        if m >= 3:  # the m = 2 residual shapes are timed in the two-copy loop above
            yield "operator_norm_residual", m, d, lambda s=sup, e=exact: operator_norm(s - e)
        if d >= m + 1:
            yield "extract_multi", m, d, lambda sup=sup, m=m, d=d: extract_multi(sup, m, d)
        yield "apply_multi", m, d, lambda mc=mc, x=x: apply_multi(mc, x)
        # on the image apply_multi returns, so the generator draws nothing more
        yield "schur_weyl_fit", m, d, lambda t=apply_multi(mc, x), m=m, d=d: schur_weyl_fit(t, m, d)
        yield "covariance_residual_multi", m, d, lambda sup=sup, m=m, d=d: covariance_residual_multi(
            sup, m, d, samples=COVRES_SAMPLES
        )
    # drawn last, so every input above stays as it was
    for m, d in TWIRL_OPERATOR_MD:
        t = rng.standard_normal((d**m, d**m)) + 1j * rng.standard_normal((d**m, d**m))
        yield "twirl_operator", m, d, lambda t=t, m=m, d=d: twirl_operator(
            t, m, d, TWIRL_OPERATOR_SAMPLES, SEED
        )


def cached_tables() -> list:
    """Every functools.lru_cache of covmap.operators and covmap.twocopy, found by cache_clear."""
    return [f for module in (operators, twocopy) for f in vars(module).values() if hasattr(f, "cache_clear")]


def cold_ms(call) -> float:
    """Best of REPEAT calls, each with every cached table cleared first, in milliseconds."""
    times = []
    for _ in range(REPEAT):
        for table in cached_tables():
            table.cache_clear()
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * min(times)


def cold_cases(rng: np.random.Generator):
    """(kernel, m, d, call): one first-use call per (m, d) of the two-copy and m-copy loops of cases."""
    shapes = [(2, d) for d in range(2, 7)] + [(m, d) for m, d in MULTICOPY_MD if m > 2]
    for m, d in shapes:
        lam = rng.standard_normal((math.factorial(m), m + 1)) + 1j * rng.standard_normal((math.factorial(m), m + 1))
        mc = MultiCopyCoefficients(m, d, lam)
        if d < m + 1:
            yield "realize_multi_superoperator", m, d, lambda mc=mc: realize_multi_superoperator(mc)
            continue
        sup = realize_multi_superoperator(mc)
        sup = sup + NOISE * (rng.standard_normal(sup.shape) + 1j * rng.standard_normal(sup.shape))
        yield "extract_multi", m, d, lambda sup=sup, m=m, d=d: extract_multi(sup, m, d)


def main_call(argv: list[str]):
    """A call of covmap.cli.main on argv that must exit 0."""

    def call():
        if cli_main(argv) != 0:
            raise RuntimeError(f"covmap {' '.join(argv)} did not exit 0")

    return call


def cli_cases(tmp: Path):
    """(form, call) for the six criterion-12 command lines, input files written to tmp."""
    for form, argv in criterion_12_invocations(tmp).items():
        yield form, main_call([*argv, "--out", str(tmp / "out.json")])


def io_cases(rng: np.random.Generator, tmp: Path):
    """(call, size, fn): the steps of a CLI matrix read and write, then main on a weight file.

    A read is _read_json of the file, then matrix_from_obj of its object; a
    write is matrix_to_obj of the array, then dumps of its object.
    """
    for rows, cols in IO_SHAPES:
        a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        size = f"{rows}x{cols}"
        path = tmp / f"matrix_{size}.json"
        path.write_text(dumps(matrix_to_obj(a)), encoding="utf-8")
        obj = read_json(str(path))
        yield "matrix_from_obj", size, lambda obj=obj: matrix_from_obj(obj)
        yield "matrix_to_obj", size, lambda a=a: matrix_to_obj(a)
        yield "read_json", size, lambda path=str(path): read_json(path)
        yield "dumps", size, lambda obj=matrix_to_obj(a): dumps(obj)
    weights = tmp / "vb.json"
    weights.write_text(dumps(coefficients_to_obj(virtual_broadcast_coefficients(3))))
    yield "main_norm_weight_file", "d=3", main_call(["norm", str(weights), "--out", str(tmp / "out.json")])


def tier1() -> dict:
    """Wall time and summary line of one Tier-1 run."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": "src" + (os.pathsep + path if path else "")}
    start = time.perf_counter()
    done = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    return {
        "command": " ".join(["PYTHONPATH=src python", *TIER1[1:]]),
        "wall_s": round(wall, 2),
        "exit": done.returncode,
        "summary": lines[-1] if lines else "",
    }


def code_lines(source: str) -> int:
    """Lines of Python source that hold code: not blank, not a comment alone, not in a docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and body:
            first = body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in skip:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def source_lines() -> dict:
    """Line and code-line counts of each module of src/covmap, and their totals.

    Lines are counted as wc -l counts them, code lines by ``code_lines``.
    """
    paths = sorted(Path(ROOT, "src", "covmap").glob("*.py"))
    modules = {path.name: path.read_bytes().count(b"\n") for path in paths}
    code = {path.name: code_lines(path.read_text()) for path in paths}
    return {"total": sum(modules.values()), "modules": modules, "code_total": sum(code.values()), "code": code}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="path of the JSON record to write")
    args = parser.parse_args(argv)
    records = []
    for kernel, m, d, call in cases(np.random.default_rng(SEED)):
        records.append({"kernel": kernel, "m": m, "d": d, "best_ms": round(best_ms(call), 4)})
        print(f"{kernel:28s} m={m} d={d} {records[-1]['best_ms']:10.3f} ms", file=sys.stderr)
    cold = []
    # a generator of its own, so the kernel inputs above stay as they were
    for kernel, m, d, call in cold_cases(np.random.default_rng(SEED)):
        cold.append({"kernel": kernel, "m": m, "d": d, "cold_ms": round(cold_ms(call), 4)})
        print(f"cold {kernel:23s} m={m} d={d} {cold[-1]['cold_ms']:10.3f} ms", file=sys.stderr)
    os.environ.pop("COVMAP_CONFIG", None)  # the command lines run on their built-in defaults
    cli = []
    io = []
    with tempfile.TemporaryDirectory() as tmp:
        for form, call in cli_cases(Path(tmp)):
            cli.append({"form": form, "best_ms": round(best_ms(call), 4)})
            print(f"cli {form:24s} {cli[-1]['best_ms']:10.3f} ms", file=sys.stderr)
        # a generator of its own, so the kernel inputs above stay as they were
        for name, size, call in io_cases(np.random.default_rng(SEED), Path(tmp)):
            io.append({"call": name, "size": size, "best_ms": round(best_ms(call), 4)})
            print(f"io {name:24s} {size:8s} {io[-1]['best_ms']:10.3f} ms", file=sys.stderr)
    tests = tier1()
    print(f"tier1 {tests['summary']} (wall {tests['wall_s']} s)", file=sys.stderr)
    lines = source_lines()
    print(f"src/covmap {lines['total']} lines, {lines['code_total']} code lines", file=sys.stderr)
    record = {
        "environment": stamp(),
        "repeat": REPEAT,
        "seed": SEED,
        "covariance_residual_multi_samples": COVRES_SAMPLES,
        "covariance_deviation_samples": 20,
        "haar_average_samples": TWIRL_SAMPLES,
        "twirl_operator_samples": TWIRL_OPERATOR_SAMPLES,
        "kernels": records,
        "cold": cold,
        "cli": cli,
        "io": io,
        "tier1": tests,
        "source_lines": lines,
    }
    with open(args.out, "w") as f:
        json.dump(record, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
