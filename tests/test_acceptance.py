"""Acceptance gate: one test per criterion, stated tolerances inline.

Each test prints one `[criterion NN] PASS/FAIL` line with the measured
margins (visible with -s or on failure; the -v test line carries the
same verdict).  Samplers are seeded so the gate is deterministic.
"""

import itertools
import json

import numpy as np
import pytest

from _oracles import monte_carlo_norm
from covmap.classify import (
    commutant_fit,
    is_cp,
    is_positive,
    satisfies_broadcast,
)
from covmap.cli import main
from covmap.linalg import Tolerance, is_psd, kron, operator_norm, partial_trace, unvec, vec
from covmap.multicopy import (
    MultiCopyCoefficients,
    covariance_residual_multi,
    enumerate_permutations,
    extract_multi,
    realize_multi_superoperator,
    schur_weyl_fit,
)
from covmap.norms import cb_norm, corner_coefficients
from covmap.operators import haar_unitary, matrix_unit, permutation_operator, swap_operator
from covmap.serialize import coefficients_to_obj, dumps, matrix_to_obj, multicopy_to_obj
from covmap.twirl import covariance_deviation, twirl, twirl_operator
from covmap.twocopy import (
    GAUGE_DIRECTION,
    CovariantCoefficients,
    apply_map,
    basis_superoperators,
    choi_matrix,
    extract,
    fit_coefficients,
    gauge_reduce,
    realize_superoperator,
    virtual_broadcast_coefficients,
)

TIGHT = Tolerance(abs=1e-8, rel=0.0)


def _finish(num, description, failures, metric=""):
    verdict = "PASS" if not failures else "FAIL"
    tail = f" ({metric})" if metric else ""
    print(f"[criterion {num:02d}] {verdict}: {description}{tail}")
    assert not failures, f"criterion {num}: " + "; ".join(failures[:5])


def _random_complex(rng, n):
    return rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)


def _random_coefficients(rng, d):
    return CovariantCoefficients(d, tuple(_random_complex(rng, 6)))


def test_criterion_01_realized_maps_commute_with_conjugation():
    rng = np.random.default_rng(101)
    failures = []
    worst = 0.0
    for d in (2, 3, 4):
        for k in range(200):
            c = _random_coefficients(rng, d)
            dev = covariance_deviation(realize_superoperator(c), d, samples=20, seed=k)
            worst = max(worst, dev)
            if dev >= 1e-10:
                failures.append(f"d={d} sample {k}: deviation {dev:.3e}")
    _finish(1, "200 realized maps per d in {2,3,4} covariant to 1e-10 over 20 unitaries",
            failures, f"worst deviation {worst:.2e}")


def test_criterion_02_extraction_round_trip_and_gauge_freedom():
    rng = np.random.default_rng(102)
    failures = []
    worst = 0.0
    for d in (3, 4):
        for k in range(100):
            c = _random_coefficients(rng, d)
            got, res = extract(realize_superoperator(c), d)
            err = np.abs(got.as_array() - c.as_array()).max()
            worst = max(worst, err)
            if err >= 1e-10 or res >= 1e-10:
                failures.append(f"d={d} sample {k}: err {err:.3e} res {res:.3e}")
    # d=2: the fitted representative is the gauge-reduced vector
    for k in range(100):
        c = _random_coefficients(rng, 2)
        got, res = fit_coefficients(realize_superoperator(c), 2)
        err = np.abs(got.as_array() - gauge_reduce(c).as_array()).max()
        if err >= 1e-12 or res >= 1e-10:
            failures.append(f"d=2 sample {k}: reduced err {err:.3e}")
        mu = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        shifted = CovariantCoefficients(2, tuple(c.as_array() + mu * GAUGE_DIRECTION))
        drift = operator_norm(realize_superoperator(shifted) - realize_superoperator(c))
        if drift >= 1e-13:
            failures.append(f"d=2 sample {k}: gauge shift moved realization {drift:.3e}")
    # the dim-2 identity behind the gauge direction, on random inputs
    s = swap_operator(2)
    eye = np.eye(2)
    for k in range(100):
        x = _random_complex(rng, 4).reshape(2, 2)
        lhs = kron(eye, x) + kron(x, eye) - np.trace(x) * np.eye(4) + np.trace(x) * s
        rhs = s @ kron(x, eye) + s @ kron(eye, x)
        if np.abs(lhs - rhs).max() >= 1e-13:
            failures.append(f"identity violated at sample {k}")
    _finish(2, "round trip exact at d=3,4 (1e-10); d=2 gauge line inert (1e-13)",
            failures, f"worst round-trip error {worst:.2e}")


def _self_adjoint_sample(rng, d):
    m1, m2, m5, m6 = rng.uniform(-1, 1, 4)
    m3 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return CovariantCoefficients(d, (m1, m2, m3, np.conj(m3), m5, m6))


def _tail_split_vectors(rng, count):
    out = []
    for _ in range(count):
        top = 2.0 + rng.uniform(0, 0.5)
        m5 = rng.uniform(0.05, 0.5)
        m6 = m5 + rng.uniform(0.05, 0.5)
        out.append((top, top, 0.0, 0.0, m5, m6))
    return out


def test_criterion_03_positivity_criterion_matches_eigen_oracle():
    rng = np.random.default_rng(103)
    failures = []
    checked = 0
    split = _tail_split_vectors(rng, 25)
    for d in (2, 3, 4):
        pool = [_self_adjoint_sample(rng, d) for _ in range(1000)]
        if d in (2, 3):
            pool.extend(CovariantCoefficients(d, v) for v in split)
        for k, c in enumerate(pool):
            verdict = is_positive(c, TIGHT)
            oracle = is_psd(apply_map(c, matrix_unit(1, 1, d)), TIGHT)
            checked += 1
            if verdict != oracle:
                failures.append(f"d={d} sample {k}: criterion {verdict} oracle {oracle}")
    for v in split:
        if not is_positive(CovariantCoefficients(2, v), TIGHT):
            failures.append(f"split vector {v} not positive at d=2")
        if is_positive(CovariantCoefficients(3, v), TIGHT):
            failures.append(f"split vector {v} positive at d=3")
    _finish(3, "positivity criterion = rank-one eigen oracle, 1000+/d, tol 1e-8; "
            "25 tail-split vectors flip between d=2 and d=3",
            failures, f"{checked} vectors, 0 disagreements" if not failures else "")


def _trace_free_sample(rng, d, kind):
    if kind == 0:  # near the scale boundary of the closed-form criterion
        l1, l2 = rng.uniform(0, 1, 2)
        factor = rng.choice([0.5, 0.9, 1.1, 1.5])
        l3 = np.sqrt(l1 * l2 * factor) * np.exp(2j * np.pi * rng.uniform())
        return CovariantCoefficients(d, (l1, l2, l3, np.conj(l3), 0, 0))
    if kind == 1:  # compliant pair, possibly complete positive
        l1, l2 = rng.uniform(0, 1, 2)
        l3 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        return CovariantCoefficients(d, (l1, l2, l3, np.conj(l3), 0, 0))
    vals = _random_complex(rng, 4)
    return CovariantCoefficients(d, (*vals, 0, 0))


def test_criterion_04_cp_criterion_matches_choi_oracle():
    rng = np.random.default_rng(104)
    failures = []
    checked = 0
    cp_seen = 0
    for d in (2, 3):
        for k in range(1000):
            c = _trace_free_sample(rng, d, k % 3)
            verdict = is_cp(c, TIGHT).is_cp
            oracle = is_psd(choi_matrix(c), TIGHT)
            checked += 1
            cp_seen += bool(oracle)
            if verdict != oracle:
                failures.append(f"d={d} sample {k}: criterion {verdict} choi {oracle}")
    _finish(4, "trace-free cp criterion = Choi eigen oracle, 1000/d in {2,3}, tol 1e-8",
            failures, f"{checked} vectors ({cp_seen} cp), 0 disagreements" if not failures else "")


def test_criterion_05_no_positive_map_meets_broadcast_constraints():
    rng = np.random.default_rng(105)
    failures = []
    checked = 0
    for d in (2, 3, 4, 5):
        for k in range(1000):
            a = rng.uniform(-1, 1)
            e = rng.uniform(-1, 1)
            if k % 2 == 0:
                b = complex((1 - d * a) / 2, rng.uniform(-1, 1))
            else:
                b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            c = CovariantCoefficients(d, (a, a, b, 1 - d * a - b, e, -d * e - a))
            checked += 1
            if not satisfies_broadcast(c):
                failures.append(f"d={d} sample {k}: constraint point off the subspace")
            elif is_positive(c):
                failures.append(f"d={d} sample {k}: positive broadcaster found")
    _finish(5, "1000 broadcast-constraint points per d in {2,3,4,5} all non-positive",
            failures, f"{checked} points" if not failures else "")


def test_criterion_06_symmetrized_doubling_unique_and_broadcasting():
    failures = []
    target = virtual_broadcast_coefficients(2).as_array()
    for d in (2, 3, 4):
        gens = basis_superoperators(d)
        rows = [np.array([1, -1, 0, 0, 0, 0], dtype=complex),
                np.array([0, 0, 1, -1, 0, 0], dtype=complex)]
        rhs = [0.0, 0.0]
        for i in range(1, d + 1):
            e = matrix_unit(i, i, d)
            images = [unvec(g @ vec(e), d * d, d * d) for g in gens]
            want = np.kron(e, e)
            for k in range(d * d):
                rows.append(np.array([img[k, k] for img in images]))
                rhs.append(want[k, k])
        a = np.array(rows)
        b = np.array(rhs, dtype=complex)
        x, _, rank, sv = np.linalg.lstsq(a, b, rcond=None)
        if np.linalg.norm(a @ x - b) >= 1e-10:
            failures.append(f"d={d}: constraint system inconsistent")
        if d == 2:
            if rank != 5:
                failures.append(f"d=2: expected a one-dimensional solution line, rank {rank}")
            null = np.linalg.svd(a)[2][-1].conj()
            null = null / null[0]
            if np.abs(null - GAUGE_DIRECTION).max() >= 1e-10:
                failures.append("d=2: solution line is not the gauge direction")
            got = gauge_reduce(CovariantCoefficients(2, tuple(x))).as_array()
            want = gauge_reduce(virtual_broadcast_coefficients(2)).as_array()
            if np.abs(got - want).max() >= 1e-10:
                failures.append("d=2: solution differs from the symmetrized doubler up to gauge")
        else:
            if rank != 6 or sv[-1] <= 1e-8:
                failures.append(f"d={d}: solution not unique (rank {rank})")
            if np.abs(x - target).max() >= 1e-10:
                failures.append(f"d={d}: solution is not (0,0,1/2,1/2,0,0)")
        # the solved map reproduces every matrix unit through both margins
        c = CovariantCoefficients(d, tuple(x))
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                u = matrix_unit(i, j, d)
                y = apply_map(c, u)
                if np.abs(partial_trace(y, d, d, side="first") - u).max() >= 1e-12:
                    failures.append(f"d={d}: first margin fails at unit ({i},{j})")
                if np.abs(partial_trace(y, d, d, side="second") - u).max() >= 1e-12:
                    failures.append(f"d={d}: second margin fails at unit ({i},{j})")
    _finish(6, "invariance + diagonal consistency pin the symmetrized doubler "
            "(up to gauge at d=2) and it broadcasts every unit to 1e-12", failures)


def test_criterion_07_cb_norm_closed_forms():
    rng = np.random.default_rng(107)
    failures = []
    for k in range(100):
        mu1, mu2 = _random_complex(rng, 2)
        c = CovariantCoefficients(3, (mu1, mu1, mu2, mu2, 0, 0))
        res = cb_norm(c)
        formula = max(2 * abs(mu1 + mu2), 2 * abs(mu1 - mu2))
        psi = operator_norm(apply_map(c, np.eye(3)))
        if res.value_kind != "exact":
            failures.append(f"invariant sample {k}: kind {res.value_kind}")
        elif abs(res.value - psi) >= 1e-10 or abs(res.value - formula) >= 1e-10:
            failures.append(f"invariant sample {k}: {res.value} vs psi {psi} vs {formula}")
    found = 0
    tries = 0
    while found < 100 and tries < 5000:
        tries += 1
        l1, l2, l3 = _random_complex(rng, 3)
        if abs(l3) < 1e-2:
            continue
        l4 = l1 * l2 / l3
        c = CovariantCoefficients(3, (l1, l2, l3, l4, 0, 0))
        m1, m2, m3, m4 = corner_coefficients(c)
        if max(abs(m1), abs(m4)) < max(abs(m2), abs(m3)) + 1e-6:
            continue
        found += 1
        res = cb_norm(c, samples=500, seed=found)
        psi = operator_norm(apply_map(c, np.eye(3)))
        if res.value_kind != "exact" or abs(res.value - psi) >= 1e-10:
            failures.append(f"variety sample {found}: kind {res.value_kind} value {res.value} psi {psi}")
            continue
        lower = monte_carlo_norm(c, samples=500, seed=found)
        if lower > res.value + 1e-9:
            failures.append(f"variety sample {found}: sampled lower bound {lower} > exact {res.value}")
    if found < 100:
        failures.append(f"only {found} dominance-case vectors found")
    _finish(7, "100 invariant vectors: cb = identity-image norm = closed form (1e-10); "
            "100 dominance-case variety vectors: exact and sampling never exceeds it", failures)


def test_criterion_08_corner_norm_bound_property():
    rng = np.random.default_rng(108)
    failures = []
    worst = np.inf
    n = 9
    for k in range(1000):
        q, _ = np.linalg.qr(_random_complex(rng, n * n).reshape(n, n))
        rank = int(rng.integers(1, n))
        p = q[:, :rank] @ q[:, :rank].conj().T
        a = _random_complex(rng, n * n).reshape(n, n)
        m1, m2, m3 = _random_complex(rng, 3)
        if abs(m1) < 1e-2:
            m1 = 1.0 + 0j
        m4 = m2 * m3 / m1
        pc = np.eye(n) - p
        combo = m1 * (p @ a @ p) + m2 * (p @ a @ pc) + m3 * (pc @ a @ p) + m4 * (pc @ a @ pc)
        bound = max(abs(m1), abs(m2), abs(m3), abs(m4)) * operator_norm(a)
        slack = bound - operator_norm(combo)
        worst = min(worst, slack)
        if slack < -1e-10:
            failures.append(f"sample {k}: slack {slack:.3e}")
    _finish(8, "1000 projector/operator/weight triples at dimension 9 satisfy "
            "the corner bound with slack >= -1e-10", failures, f"min slack {worst:.2e}")


def test_criterion_09_multicopy_round_trip_representation_covariance():
    rng = np.random.default_rng(109)
    failures = []
    worst = 0.0
    for m, d, runs in ((2, 3, 50), (3, 4, 50)):
        fact = len(enumerate_permutations(m))
        for k in range(runs):
            lam = rng.standard_normal((fact, m + 1)) + 1j * rng.standard_normal((fact, m + 1))
            mc = MultiCopyCoefficients(m, d, lam)
            got, res = extract_multi(realize_multi_superoperator(mc), m, d)
            err = np.abs(got.lam - lam).max()
            worst = max(worst, err, res)
            if err >= 1e-9 or res >= 1e-9:
                failures.append(f"m={m} d={d} sample {k}: err {err:.3e} res {res:.3e}")
    for m in (3, 4):
        perms = enumerate_permutations(m)
        mats = {p.image: permutation_operator(p, 2) for p in perms}
        for p in perms:
            g = mats[p.image]
            if np.abs(g @ g.conj().T - np.eye(2**m)).max() >= 1e-12:
                failures.append(f"S{m}: {p.image} not unitary")
        for p, q in itertools.product(perms, perms):
            if np.abs(mats[p.image] @ mats[q.image] - mats[(p * q).image]).max() >= 1e-12:
                failures.append(f"S{m}: product rule fails at {p.image}*{q.image}")
    for d in (2, 4):
        for k in range(5):
            lam = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
            sup = realize_multi_superoperator(MultiCopyCoefficients(3, d, lam))
            dev = covariance_residual_multi(sup, 3, d, samples=10, seed=k)
            if dev >= 1e-9:
                failures.append(f"m=3 d={d} sample {k}: covariance defect {dev:.3e}")
    _finish(9, "50 round trips each for (m=2,d=3) and (m=3,d=4) under 1e-9; "
            "slot permutations form a unitary representation at d=2; "
            "realized 3-copy maps covariant to 1e-9 over 10 unitaries",
            failures, f"worst round-trip error {worst:.2e}")


def test_criterion_10_twirled_operator_approaches_permutation_span():
    rng = np.random.default_rng(100)
    failures = []
    t = rng.standard_normal((27, 27)) + 1j * rng.standard_normal((27, 27))
    t = t / np.linalg.norm(t)
    residuals = {}
    for samples in (200, 2000, 20000):
        avg = twirl_operator(t, 3, 3, samples=samples, seed=8)
        residuals[samples] = schur_weyl_fit(avg, 3, 3).residual
    if not residuals[200] > residuals[2000] > residuals[20000]:
        failures.append(f"residuals not decreasing: {residuals}")
    if residuals[2000] >= 5e-2:
        failures.append(f"residual at 2000 samples is {residuals[2000]:.3e}")
    _finish(10, "permutation-span residual of the averaged operator decreases over "
            "{200, 2000, 20000} samples and is < 5e-2 at 2000",
            failures, ", ".join(f"{k}: {v:.2e}" for k, v in residuals.items()))


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


def test_criterion_11_twirl_residual_scales_like_inverse_sqrt_samples():
    failures = []
    sup = _classical_copy_superoperator(3)
    residuals = {}
    coeff_err = None
    for samples in (100, 1000, 10000):
        res = twirl(sup, 3, samples=samples, seed=0)
        residuals[samples] = res.residual
        if samples == 10000:
            coeff_err = np.abs(res.coefficients.as_array() - 0.05).max()
    ideal = np.sqrt(10.0)
    for lo, hi in ((100, 1000), (1000, 10000)):
        ratio = residuals[lo] / residuals[hi]
        if not ideal / 3 <= ratio <= ideal * 3:
            failures.append(f"decade ratio {lo}/{hi} = {ratio:.3f} outside sqrt(10)/3 .. 3*sqrt(10)")
    # the exact average weights every generator by 1/((d+1)(d+2)) = 1/20
    if coeff_err is None or coeff_err >= 3e-3:
        failures.append(f"coefficients at 10^4 samples off the exact average by {coeff_err}")
    _finish(11, "classical-copier twirl residual follows samples^(-1/2) within "
            "factor 3 across {1e2, 1e3, 1e4}; weights reach the exact average",
            failures, ", ".join(f"{k}: {v:.2e}" for k, v in residuals.items()))


def test_criterion_12_seeded_cli_outputs_byte_identical(tmp_path, monkeypatch):
    monkeypatch.delenv("COVMAP_CONFIG", raising=False)
    failures = []
    coeff_file = tmp_path / "vb.json"
    coeff_file.write_text(dumps(coefficients_to_obj(virtual_broadcast_coefficients(3))))
    bracket_file = tmp_path / "bracket.json"
    bracket_file.write_text(
        dumps(coefficients_to_obj(CovariantCoefficients(3, (1, -1, 1, -1, 0, 0))))
    )
    sup_file = tmp_path / "sup.json"
    sup_file.write_text(dumps(matrix_to_obj(_classical_copy_superoperator(3))))
    rng = np.random.default_rng(112)
    lam = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    mc_file = tmp_path / "mc.json"
    mc_file.write_text(dumps(multicopy_to_obj(MultiCopyCoefficients(2, 3, lam))))
    msup_file = tmp_path / "msup.json"
    msup_file.write_text(
        dumps(matrix_to_obj(realize_multi_superoperator(MultiCopyCoefficients(2, 3, lam))))
    )
    x_file = tmp_path / "x.json"
    x_file.write_text(dumps(matrix_to_obj(np.eye(3) + 0j)))
    swap_file = tmp_path / "swap.json"
    swap_file.write_text(dumps(matrix_to_obj(swap_operator(3))))

    invocations = {
        "classify": ["classify", str(coeff_file)],
        "norm-bracket": ["norm", str(bracket_file), "--samples", "300", "--seed", "5"],
        "twirl": ["twirl", str(sup_file), "--samples", "50", "--seed", "9"],
        "multicopy-apply": ["multicopy", "apply", str(mc_file), str(x_file)],
        "multicopy-extract": ["multicopy", "extract", str(msup_file), "--m", "2", "--d", "3"],
        "multicopy-fit": ["multicopy", "fit", str(swap_file), "--m", "2", "--d", "3"],
    }
    for name, argv in invocations.items():
        outputs = []
        for attempt in (0, 1):
            out = tmp_path / f"{name}-{attempt}.json"
            code = main([*argv, "--out", str(out)])
            if code != 0:
                failures.append(f"{name}: exit code {code}")
                break
            outputs.append(out.read_bytes())
        if len(outputs) == 2 and outputs[0] != outputs[1]:
            failures.append(f"{name}: outputs differ between runs")
    _finish(12, "all seeded command-line runs emit byte-identical JSON twice", failures)
