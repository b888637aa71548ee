"""Byte-for-byte golden outputs of the six seeded command-line forms.

The inputs are built exactly as acceptance criterion 12 builds them, and
each output is compared with a file in ``tests/data/cli_golden/``.  The
files were captured with numpy 2.4.6 on scipy-openblas 0.3.31 (Python
3.11, x86-64) from the code before the two-copy calculus was routed
through the m-copy index kernel; a refactor that keeps them passing keeps
the command line's output unchanged.  A different numpy or BLAS build
may round differently in the last digit; recapture the files only for a
change that is meant to alter the output, and say so in the change log.

``twirl.json`` alone was recaptured by the commit that replaced the
Kronecker conjugation of the twirl with the digit-axis kernel ("One
digit-axis Haar-average kernel for both twirls"): the kernel sums in a
different order, so ``deviation_after``, ``residual`` and the imaginary
weight parts (all below 4e-19) moved in the last digits; the sampled
unitaries and the real weights did not change.

``norm-bracket.json`` alone was recaptured by the commit that reads each
Monte-Carlo probe's image norm from its eigenvalues instead of from an SVD
of the dense image ("Monte-Carlo cb-norm probes read from their spectra"):
the probes are unchanged, and only ``value.lower`` moved in the last digit,
3.99999957877573 -> 3.999999578775729.

``multicopy-extract.json`` alone was recaptured by the commit that gave
both extractions one weight read, the inverse of the realize scatter ("One
weight read for every copy count"): the trace weights are now read
directly instead of by subtraction, so the swap row's trace weight comes
back as the generating weight, 0.21462248176518917 -> 0.2146224817651891
and 2.174836592768272 -> 2.1748365927682722, and ``residual`` moved
1.692862592547962e-15 -> 0.0.

``twirl.json`` was recaptured by the commit that reads every operator
norm from the top eigenvalue of a Gram matrix ("Top singular values from
the Gram matrix"): ``deviation_after`` moved 0.0917712434112658 ->
0.09177124341126582 (a covariance defect, now sqrt(lambda_max) of a Gram
matrix instead of an SVD); nothing else changed.  The gathered
``apply_multi`` of that commit keeps ``multicopy-apply.json`` byte for
byte.

``norm-bracket.json`` alone was recaptured by the commit that computes
every cb norm exactly as a Schur-multiplier norm ("One exact cb-norm
route"): its input (1, -1, 1, -1, 0, 0) at d = 3 was a bracket
(3.999999578775729, 4.0) with a sampled lower end and is now ``value_kind``
"exact", ``value`` 4.0, ``method`` "schur-multiplier"; ``detail`` drops
``samples`` and ``seed`` and gains ``witness_angle`` pi.  The file keeps
its name, which criterion 12 uses.

``twirl.json`` was recaptured by the commit that conjugates digit axes a
pair at a time, with no transposing copy ("Copy-free, pairwise digit-axis
conjugation for both Haar averages"): each GEMM now sums over d^2 terms of
a Kronecker factor, so ``deviation_after`` moved 0.09177124341126582 ->
0.09177124341126588, ``residual`` 0.09477903930604559 ->
0.09477903930604557, and the six imaginary weight parts (all below 4e-19)
moved; ``deviation_before``, the real weights, ``samples`` and ``seed``
kept their bytes.

``twirl.json`` was recaptured by the commit that measures the covariance
defect with the twirl's digit-axis kernel ("One conjugation kernel and one
Haar loop under the twirl and the covariance defect"): each unit defect is
now W^dag F(U X U^dag) W - F(X) instead of F(U X U^dag) - W F(X) W^dag,
equal in operator norm, so ``deviation_before`` moved 0.9090772678313863
-> 0.9090772678313864 and ``deviation_after`` 0.09177124341126588 ->
0.09177124341126576; the average, the weights, ``residual``, ``samples``
and ``seed`` kept their bytes.

``twirl.json`` was recaptured by the commit that folds the Haar sample sum
into the last pair GEMM of both twirl averages ("Fold the Haar sample sum
into the last pair GEMM"): each stack of conjugates is summed inside one
GEMM over (sample, pair axes) instead of by a sum over the finished stack,
so the average moved in its last bits.  The real parts of weights 5 and 6
moved 0.04817881041200696 -> 0.04817881041200697, ``residual``
0.09477903930604557 -> 0.09477903930604564, ``deviation_after``
0.09177124341126576 -> 0.0917712434112658, and the six imaginary weight
parts (all below 6e-19) moved; the first four real weights,
``deviation_before``, ``samples`` and ``seed`` kept their bytes.

The outputs come from one child interpreter per test module, started with
``OPENBLAS_NUM_THREADS=2`` and ``OMP_NUM_THREADS=2``, the default of the
2-CPU capture host: how OpenBLAS splits the twirl's GEMMs depends on its
thread count, and with one thread the Haar average moves in its last bits
(``residual`` 0.09477903930604564 -> 0.09477903930604561,
``deviation_after`` 0.0917712434112658 -> 0.09177124341126582, and the
imaginary weight parts).  OpenBLAS runs no more threads than the CPUs it
finds, so a host with fewer CPUs than the pin can still differ.
Run as a script with a directory argument, this module writes the outputs
there: ``<form>.out`` to a fresh file, ``<form>.over`` over a longer file,
and the exit codes in ``codes.json``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import covmap
from covmap.cli import main
from covmap.linalg import vec
from covmap.multicopy import MultiCopyCoefficients, realize_multi_superoperator
from covmap.operators import matrix_unit, swap_operator
from covmap.serialize import coefficients_to_obj, dumps, matrix_to_obj, multicopy_to_obj
from covmap.twocopy import CovariantCoefficients, virtual_broadcast_coefficients

GOLDEN = Path(__file__).parent / "data" / "cli_golden"
FORMS = ["classify", "norm-bracket", "twirl", "multicopy-apply", "multicopy-extract", "multicopy-fit"]


def _classical_copy_superoperator(d):
    sup = np.zeros((d**4, d**2), dtype=complex)
    for i in range(d):
        for j in range(d):
            x = matrix_unit(i + 1, j + 1, d)
            y = np.zeros((d * d, d * d), dtype=complex)
            for k in range(d):
                y[k * d + k, k * d + k] = x[k, k]
            sup[:, j * d + i] = vec(y)
    return sup


def criterion_12_invocations(tmp_path):
    """The six argument lists of criterion 12, with their input files written."""
    files = {
        "vb": coefficients_to_obj(virtual_broadcast_coefficients(3)),
        "bracket": coefficients_to_obj(CovariantCoefficients(3, (1, -1, 1, -1, 0, 0))),
        "sup": matrix_to_obj(_classical_copy_superoperator(3)),
    }
    rng = np.random.default_rng(112)
    lam = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    files["mc"] = multicopy_to_obj(MultiCopyCoefficients(2, 3, lam))
    files["msup"] = matrix_to_obj(realize_multi_superoperator(MultiCopyCoefficients(2, 3, lam)))
    files["x"] = matrix_to_obj(np.eye(3) + 0j)
    files["swap"] = matrix_to_obj(swap_operator(3))
    path = {}
    for name, obj in files.items():
        path[name] = tmp_path / f"{name}.json"
        path[name].write_text(dumps(obj))
    p = {name: str(f) for name, f in path.items()}
    return {
        "classify": ["classify", p["vb"]],
        "norm-bracket": ["norm", p["bracket"], "--samples", "300", "--seed", "5"],
        "twirl": ["twirl", p["sup"], "--samples", "50", "--seed", "9"],
        "multicopy-apply": ["multicopy", "apply", p["mc"], p["x"]],
        "multicopy-extract": ["multicopy", "extract", p["msup"], "--m", "2", "--d", "3"],
        "multicopy-fit": ["multicopy", "fit", p["swap"], "--m", "2", "--d", "3"],
    }


def capture(out_dir: Path) -> None:
    """Run the six forms into out_dir: to a fresh --out, then over a longer file (--out is overwritten in place)."""
    codes = {}
    for name, argv in criterion_12_invocations(out_dir).items():
        over = out_dir / f"{name}.over"
        over.write_bytes(b"\xff" * (2 * (GOLDEN / f"{name}.json").stat().st_size + 4096))
        codes[name] = [main([*argv, "--out", str(out_dir / f"{name}.{kind}")]) for kind in ("out", "over")]
    (out_dir / "codes.json").write_text(json.dumps(codes))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """The directory capture() filled in a child pinned to two BLAS threads, and its exit codes."""
    out_dir = tmp_path_factory.mktemp("golden")
    env = {k: v for k, v in os.environ.items() if k != "COVMAP_CONFIG"}
    src = str(Path(covmap.__file__).parents[1])
    env.update(OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, __file__, str(out_dir)], env=env, capture_output=True, text=True,
                           timeout=300)
    assert child.returncode == 0, child.stderr
    return out_dir, json.loads((out_dir / "codes.json").read_text())


@pytest.mark.parametrize("name", FORMS)
def test_criterion_12_outputs_match_golden_bytes(name, outputs):
    out_dir, codes = outputs
    assert codes[name][0] == 0
    assert (out_dir / f"{name}.out").read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", FORMS)
def test_criterion_12_outputs_over_a_longer_file_leave_the_golden_bytes(name, outputs):
    # --out is overwritten in place, so the longer file's tail must be cut.
    out_dir, codes = outputs
    assert codes[name][1] == 0
    assert (out_dir / f"{name}.over").read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


if __name__ == "__main__":
    capture(Path(sys.argv[1]))
