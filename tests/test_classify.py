import decimal
import importlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covmap.classify import (
    CpResult,
    _choi_spectrum,
    _hermitian_eigenvalues,
    _positivity_margin,
    _real_normal_form,
    classical_broadcast,
    classify,
    commutant_fit,
    diagonal_pinch,
    is_classically_consistent,
    is_cp,
    is_permutation_invariant,
    is_positive,
    is_self_adjoint,
    is_virtual_broadcaster,
    satisfies_broadcast,
)
from covmap.linalg import (
    DEFAULT_TOL,
    DimensionError,
    Tolerance,
    is_psd,
    kron,
    operator_norm,
    partial_trace,
    vec,
)
from covmap import twocopy
from covmap.operators import haar_unitary, matrix_unit, substream, swap_operator
from covmap.twocopy import (
    GAUGE_DIRECTION,
    CovariantCoefficients,
    apply_map,
    choi_matrix,
    gauge_reduce,
    realize_superoperator,
    virtual_broadcast_coefficients,
)

TIGHT = Tolerance(abs=1e-8, rel=0.0)
# The module, which the package's classify function shadows as an attribute.
classify_module = importlib.import_module("covmap.classify")


def hermitian_basis(d):
    """Spanning set of Hermitian matrices: diagonal units plus X/Y pairs."""
    out = [matrix_unit(i, i, d) for i in range(1, d + 1)]
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            out.append(matrix_unit(i, j, d) + matrix_unit(j, i, d))
            out.append(1j * (matrix_unit(i, j, d) - matrix_unit(j, i, d)))
    return out


def operational_self_adjoint(c, tol=DEFAULT_TOL):
    """Reference: the realized map keeps every Hermitian basis element Hermitian."""
    thr = tol.bound(max(1.0, c.max_magnitude()))
    dev = max(
        operator_norm(apply_map(c, x) - apply_map(c, x).conj().T) for x in hermitian_basis(c.d)
    )
    return dev <= thr


def pinch_loop_consistent(c, tol=DEFAULT_TOL, basis=None):
    """Reference: pinch -> realized map -> doubled pinch on each basis projector."""
    d = c.d
    b = np.eye(d, dtype=np.complex128) if basis is None else basis
    bb = np.kron(b, b)
    thr = tol.bound(max(1.0, c.max_magnitude()))
    dev = 0.0
    for i in range(d):
        p = np.outer(b[:, i], b[:, i].conj())
        y = bb.conj().T @ apply_map(c, p) @ bb
        lhs = bb @ np.diag(np.diag(y)) @ bb.conj().T
        rhs = np.kron(p, p)
        dev = max(dev, float(np.abs(lhs - rhs).max()))
    return dev <= thr


def dense_choi_eigenvalues(c):
    j = choi_matrix(c)
    return np.linalg.eigvalsh((j + j.conj().T) / 2)


def test_self_adjoint_examples():
    assert is_self_adjoint(virtual_broadcast_coefficients(2))
    assert not is_self_adjoint(CovariantCoefficients(3, (1j, 0, 0, 0, 0, 0)))
    c = CovariantCoefficients(3, (0, 0, 1j, -1j, 0, 0))
    assert is_self_adjoint(c)
    # the coefficient test matches the operational one
    for x in (matrix_unit(1, 1, 3), matrix_unit(1, 2, 3) + matrix_unit(2, 1, 3)):
        y = apply_map(c, x)
        assert np.abs(y - y.conj().T).max() < 1e-14


def test_self_adjoint_gauge_shifted_at_d2():
    # a compliant vector plus a complex gauge shift is the same map
    base = CovariantCoefficients(2, (0.3, -0.2, 0.1 + 0.4j, 0.1 - 0.4j, 0.5, 0.2))
    shifted = CovariantCoefficients(2, tuple(base.as_array() + (1 - 2j) * GAUGE_DIRECTION))
    assert is_self_adjoint(shifted)
    assert not is_self_adjoint(
        CovariantCoefficients(2, tuple(base.as_array() + np.array([1j, 0, 0, 0, 0, 0])))
    )


def test_self_adjoint_matches_operational_check_at_d2():
    rng = np.random.default_rng(16)
    seen = set()
    for k in range(200):
        m1, m2, m5, m6 = rng.standard_normal(4)
        m3 = complex(*rng.standard_normal(2))
        z = np.array([m1, m2, m3, np.conj(m3), m5, m6])
        z = z + complex(*rng.standard_normal(2)) * GAUGE_DIRECTION
        if k % 4 == 1:
            z[k % 6] += 1e-3j
        elif k % 4 == 2:
            z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        c = CovariantCoefficients(2, tuple(z))
        verdict = is_self_adjoint(c)
        assert verdict == operational_self_adjoint(c)
        seen.add(verdict)
    assert seen == {True, False}


def test_positive_examples():
    assert is_positive(CovariantCoefficients(3, (1, 1, 0, 0, 0, 0)))
    assert is_positive(CovariantCoefficients(3, (0, 0, 0, 0, 1, 1)))
    for d in (2, 3):
        assert not is_positive(virtual_broadcast_coefficients(d))
    # non-self-adjoint input is never positive
    assert not is_positive(CovariantCoefficients(3, (1j, 1, 0, 0, 0, 0)))


def test_positive_dimension_split():
    # m5 < |m6| <= m5 + m6 passes at d=2 and fails at d>=3
    c2 = CovariantCoefficients(2, (1.5, 1.5, 0, 0, 0.3, 0.5))
    c3 = CovariantCoefficients(3, (1.5, 1.5, 0, 0, 0.3, 0.5))
    assert is_positive(c2)
    assert not is_positive(c3)
    assert is_psd(apply_map(c2, matrix_unit(1, 1, 2)))
    assert not is_psd(apply_map(c3, matrix_unit(1, 1, 3)))


def test_positive_matches_eigenvalue_oracle():
    rng = np.random.default_rng(10)
    for d in (2, 3, 4):
        for _ in range(150):
            m1, m2, m5, m6 = rng.uniform(-1, 1, 4)
            m3 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            c = CovariantCoefficients(d, (m1, m2, m3, np.conj(m3), m5, m6))
            oracle = is_psd(apply_map(c, matrix_unit(1, 1, d)), TIGHT)
            assert is_positive(c, TIGHT) == oracle


def test_cp_trace_free_criterion():
    r = is_cp(CovariantCoefficients(3, (1, 1, 1, 1, 0, 0)))
    assert r.status == "yes" and r.is_cp
    r = is_cp(CovariantCoefficients(3, (1, 1, 2, 2, 0, 0)))
    assert r.status == "no" and not r.is_cp
    r = is_cp(CovariantCoefficients(2, (1, 1, 1j, -1j, 0, 0)))
    assert r.status == "yes" and r.is_cp


def test_cp_with_trace_terms_is_numerical():
    r = is_cp(CovariantCoefficients(2, (0, 0, 0, 0, 1, 0)))
    assert r.status == "numerical-only"
    assert r.is_cp  # full depolarizing-style map has PSD block matrix
    r = is_cp(CovariantCoefficients(2, (0, 0, 0, 0, 0, 1)))
    assert r.status == "numerical-only"
    assert not r.is_cp


def test_cp_matches_choi_oracle():
    rng = np.random.default_rng(11)
    for d in (2, 3):
        for k in range(120):
            if k % 3 == 0:
                l1, l2 = rng.uniform(0, 1, 2)
                scale = np.sqrt(l1 * l2) * rng.choice([0.5, 0.9, 1.1, 1.5])
                l3 = scale * np.exp(2j * np.pi * rng.uniform())
                l4 = np.conj(l3)
            else:
                l1, l2, l3, l4 = (
                    complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)
                )
            c = CovariantCoefficients(d, (l1, l2, l3, l4, 0, 0))
            assert is_cp(c, TIGHT).is_cp == is_psd(choi_matrix(c), TIGHT)


def test_cp_with_trace_terms_matches_dense_choi():
    rng = np.random.default_rng(17)
    for d in range(2, 8):
        verdicts = set()
        for k in range(16):
            m1, m2, m5, m6 = rng.standard_normal(4)
            m3 = complex(*rng.standard_normal(2))
            z = np.array([m1, m2, m3, np.conj(m3), m5, m6])
            if k % 4 == 1:
                z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            elif k % 4 >= 2:
                # c5 adds c5 * I to the Choi matrix: move its least eigenvalue to +-1e-7
                z[4] += -dense_choi_eigenvalues(CovariantCoefficients(d, tuple(z)))[0]
                z[4] += 1e-7 if k % 8 >= 4 else -1e-7
            if d == 2 and k % 2 == 0:
                z = z + complex(*rng.standard_normal(2)) * GAUGE_DIRECTION
            c = CovariantCoefficients(d, tuple(z))
            dense = dense_choi_eigenvalues(c)
            r = is_cp(c, TIGHT)
            assert r.status == "numerical-only"
            assert abs(r.witness - dense[0]) <= 1e-12 * np.abs(dense).max()
            assert r.is_cp == is_psd(choi_matrix(c), TIGHT)
            verdicts.add(r.is_cp)
        assert verdicts == {True, False}


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 8), st.lists(st.floats(-2, 2), min_size=12, max_size=12))
def test_choi_spectrum_is_the_dense_spectrum(d, parts):
    c = CovariantCoefficients(d, tuple(complex(parts[2 * k], parts[2 * k + 1]) for k in range(6)))
    dense = dense_choi_eigenvalues(c)
    closed = _choi_spectrum(_real_normal_form(gauge_reduce(c)), d)
    gaps = np.abs(dense[:, None] - closed[None, :])
    scale = max(1.0, np.abs(dense).max())
    assert gaps.min(axis=1).max() <= 1e-10 * scale
    assert gaps.min(axis=0).max() <= 1e-10 * scale


# Entries on a grid of 1e-5 in [-10, 10], so equal values and zeros are drawn often.
_GRID = st.integers(-10**6, 10**6).map(lambda k: k / 1e5)


@settings(max_examples=300, deadline=None)
@given(_GRID, _GRID, _GRID, _GRID, st.sampled_from([1e-150, 1.0, 1e150]),
       st.sampled_from(["general", "equal diagonals", "b = 0"]))
def test_hermitian_eigenvalues_match_eigvalsh(a, c, re, im, scale, shape):
    a, c, b = a * scale, c * scale, complex(re, im) * scale
    if shape == "equal diagonals":
        c = a
    elif shape == "b = 0":
        b = 0j
    closed = _hermitian_eigenvalues(a, b, c)
    bound = np.finfo(float).eps * (abs(a) + 2 * abs(b) + abs(c))
    # LAPACK's own error reached 4.3 eps * size on this grid, the closed form's 0.65.
    dense = np.linalg.eigvalsh(np.array([[a, b], [b.conjugate(), c]]))
    assert np.abs(dense - closed).max() <= 8 * bound
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        a, c, re, im = map(decimal.Decimal, (a, c, b.real, b.imag))
        mid, radius = (a + c) / 2, (((a - c) / 2) ** 2 + re * re + im * im).sqrt()
        assert max(abs(decimal.Decimal(x) - y) for x, y in zip(closed, (mid - radius, mid + radius))) <= 2 * bound


def _raise(*args, **kwargs):
    raise AssertionError("classify called an eigensolver")


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_verdicts_call_no_eigensolver(d, monkeypatch):
    # Self-adjoint with and without trace terms, then not self-adjoint.
    weights = [(1, 0.5, 0.2 + 0.1j, 0.2 - 0.1j, 0.3, -0.1), (1, 0.5, 0.2 + 0.1j, 0.2 - 0.1j, 0, 0),
               (1j, 0.5, 0.2, -0.3j, 0.3, 0.1)]
    monkeypatch.setattr(np.linalg, "eigvalsh", _raise)
    monkeypatch.setattr(np.linalg, "eigvals", _raise)
    for w in weights:
        c = CovariantCoefficients(d, w)
        rep = classify(c)
        assert (rep.positive, rep.completely_positive, rep.evidence["cp_holds"]) == (
            is_positive(c), is_cp(c).status, is_cp(c).is_cp)


def test_classify_at_the_size_cap_realizes_nothing():
    # The dense Choi matrix alone would take 268 MB at d = 16.
    c = CovariantCoefficients(16, (1, 2, 0.3, 0.3, 0.1, -0.2))
    tracemalloc.start()
    try:
        rep = classify(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert rep.completely_positive == "numerical-only"


def test_broadcast_constraints():
    for d in (2, 3, 4):
        assert satisfies_broadcast(virtual_broadcast_coefficients(d))
        assert satisfies_broadcast(CovariantCoefficients(d, (0, 0, 1, 0, 0, 0)))
        assert satisfies_broadcast(CovariantCoefficients(d, (0, 0, 0.3 + 1j, 0.7 - 1j, 0, 0)))
    assert not satisfies_broadcast(CovariantCoefficients(2, (1, 1, 0, 0, 0, 0)))


def test_broadcast_means_partial_traces_reproduce_input():
    rng = np.random.default_rng(12)
    d = 3
    a = rng.uniform(-0.5, 0.5)
    b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    e = rng.uniform(-0.5, 0.5)
    c = CovariantCoefficients(
        d, (a, a, b, 1 - d * a - b, e, -d * e - a)
    )
    assert satisfies_broadcast(c)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    y = apply_map(c, x)
    assert np.abs(partial_trace(y, d, d, side="first") - x).max() < 1e-12
    assert np.abs(partial_trace(y, d, d, side="second") - x).max() < 1e-12


def test_permutation_invariance():
    assert is_permutation_invariant(virtual_broadcast_coefficients(3))
    assert is_permutation_invariant(CovariantCoefficients(3, (0, 0, 0, 0, 0.3, 0.9)))
    c = CovariantCoefficients(3, (1, 0, 0, 0, 0, 0))
    assert not is_permutation_invariant(c)
    # operational meaning: conjugating the image by the swap changes it
    s = swap_operator(3)
    y = apply_map(c, matrix_unit(1, 2, 3))
    assert np.abs(s @ y @ s - y).max() > 0.5
    y_inv = apply_map(virtual_broadcast_coefficients(3), matrix_unit(1, 2, 3))
    assert np.abs(s @ y_inv @ s - y_inv).max() < 1e-14


def test_permutation_invariance_gauge_safe_at_d2():
    c = CovariantCoefficients(2, tuple(virtual_broadcast_coefficients(2).as_array() + 0.7j * GAUGE_DIRECTION))
    assert is_permutation_invariant(c)


def test_classical_consistency_family():
    for mu in (0.5, 2.0, 0.3 + 1.1j):
        c = CovariantCoefficients(3, (0, 0, mu, 1 - mu, 0, 0))
        assert is_classically_consistent(c)
    assert not is_classically_consistent(CovariantCoefficients(3, (1, 0, 0, 0, 0, 0)))
    assert is_classically_consistent(virtual_broadcast_coefficients(2))


def test_classical_consistency_in_rotated_basis():
    basis = haar_unitary(3, seed=21)
    c = virtual_broadcast_coefficients(3)
    assert is_classically_consistent(c, basis=basis)
    with pytest.raises(ValueError):
        is_classically_consistent(c, basis=np.ones((3, 3)))


def test_classical_consistency_matches_pinch_loop():
    rng = np.random.default_rng(18)
    for d in (2, 3, 4, 5):
        verdicts = set()
        for k in range(24):
            if k % 3 == 0:
                a = complex(*rng.standard_normal(2))
                # a gauge shift keeps the map only at d = 2
                t = rng.standard_normal() * (k % 2)
                z = np.array([0, 0, a, 1 - a, 0, 0]) + t * GAUGE_DIRECTION
            elif k % 3 == 1:
                z = np.array([0, 0, 0.4, 0.6, 0, 0]) + 1e-6 * rng.standard_normal(6)
            else:
                z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            c = CovariantCoefficients(d, tuple(z))
            verdict = is_classically_consistent(c)
            assert verdict == pinch_loop_consistent(c)
            basis = haar_unitary(d, seed=100 * d + k)
            assert is_classically_consistent(c, basis=basis) == verdict
            assert pinch_loop_consistent(c, basis=basis) == verdict
            verdicts.add(verdict)
        assert verdicts == {True, False}


def test_classical_broadcast_matches_projector_loop():
    rng = np.random.default_rng(19)
    for d in (2, 3, 4):
        b = haar_unitary(d, seed=d)
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        expected = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            p = np.outer(b[:, i], b[:, i].conj())
            expected += (b[:, i].conj() @ x @ b[:, i]) * np.kron(p, p)
        assert np.abs(classical_broadcast(x, basis=b) - expected).max() < 1e-13 * np.abs(x).sum()


def test_classical_broadcast_and_pinch_helpers():
    x = np.array([[1.0, 5.0], [7.0, 2.0]], dtype=complex)
    assert np.abs(diagonal_pinch(x) - np.diag([1.0, 2.0])).max() == 0.0
    got = classical_broadcast(x)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    expected[3, 3] = 2.0
    assert np.abs(got - expected).max() == 0.0


def test_virtual_broadcaster_detection():
    assert is_virtual_broadcaster(virtual_broadcast_coefficients(3))
    # gauge-shifted copy at d=2
    c = CovariantCoefficients(2, (0.5, 0.5, 0, 0, -0.5, 0.5))
    assert is_virtual_broadcaster(c)
    assert not is_virtual_broadcaster(CovariantCoefficients(2, (0, 0, 1, 0, 0, 0)))


def test_no_positive_broadcaster_on_random_constraint_points():
    rng = np.random.default_rng(13)
    for d in (2, 3):
        for _ in range(100):
            a = rng.uniform(-1, 1)
            e = rng.uniform(-1, 1)
            # self-adjoint-compatible slice of the broadcast subspace
            b = (1 - d * a) / 2
            c = CovariantCoefficients(d, (a, a, b, b, e, -d * e - a))
            assert satisfies_broadcast(c)
            assert not is_positive(c)
            # generic complex point of the subspace
            b2 = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            c2 = CovariantCoefficients(d, (a, a, b2, 1 - d * a - b2, e, -d * e - a))
            assert satisfies_broadcast(c2)
            assert not is_positive(c2)


def test_commutant_fit_exact_members():
    for d in (2, 3):
        s = swap_operator(d)
        alpha, beta, res = commutant_fit(s, d)
        assert abs(alpha) < 1e-12 and abs(beta - 1) < 1e-12 and res < 1e-12
        alpha, beta, res = commutant_fit(3 * np.eye(d * d), d)
        assert abs(alpha - 3) < 1e-12 and abs(beta) < 1e-12 and res < 1e-12


def test_commutant_fit_matches_least_squares():
    rng = np.random.default_rng(14)
    d = 3
    t = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    alpha, beta, res = commutant_fit(t, d)
    basis = np.stack([vec(np.eye(9)), vec(swap_operator(3))], axis=1)
    sol, *_ = np.linalg.lstsq(basis, vec(t), rcond=None)
    assert abs(alpha - sol[0]) < 1e-10
    assert abs(beta - sol[1]) < 1e-10
    assert res > 0.1
    assert np.linalg.norm(t - alpha * np.eye(9) - beta * swap_operator(3)) == pytest.approx(
        res
    )


def test_commutant_fit_rejects_bad_shape():
    with pytest.raises(DimensionError):
        commutant_fit(np.eye(8), 3)


def test_classify_report_symmetrized_broadcaster():
    rep = classify(virtual_broadcast_coefficients(3))
    assert rep.self_adjoint
    assert not rep.positive
    assert rep.completely_positive == "no"
    assert rep.broadcasting
    assert rep.permutation_invariant
    assert rep.classically_consistent
    assert rep.virtual_broadcaster
    assert rep.evidence["broadcast_residual"] < 1e-12


def test_classify_report_implications_hold_on_random_vectors():
    rng = np.random.default_rng(15)
    for _ in range(60):
        d = int(rng.choice([2, 3]))
        vals = rng.uniform(-1, 1, 12)
        c = CovariantCoefficients(
            d, tuple(complex(vals[2 * k], vals[2 * k + 1]) for k in range(6))
        )
        rep = classify(c)
        if rep.positive:
            assert rep.self_adjoint
        if rep.completely_positive == "yes":
            assert rep.positive
        if rep.virtual_broadcaster:
            assert rep.permutation_invariant and rep.classically_consistent


def _report_vectors(d, rng):
    vectors = [virtual_broadcast_coefficients(d).coeffs, (1, 1, 0, 0, 0, 0)]
    for _ in range(100):
        w = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
        adjoint = (w[0].real, w[1].real, w[2], np.conj(w[2]), w[4].real, w[5].real)
        vectors += [tuple(w), adjoint, adjoint[:4] + (0, 0)]
    return [CovariantCoefficients(d, tuple(v)) for v in vectors]


@pytest.mark.parametrize("d", [2, 3])
def test_classify_report_is_bit_identical_with_a_reduction_per_call(d, monkeypatch):
    # The report reduces the weights once and reads B_vb's reduction from a
    # per-d cache, scaled into the window's units; reducing fresh copies on
    # every read, with B_vb scaled before its reduction, must give the same bits.
    vectors = _report_vectors(d, np.random.default_rng(40 + d))
    scaled = (np.ldexp(1.0, k) * c.as_array() for k in (-600, -900) for c in vectors[:20])
    vectors += [CovariantCoefficients(d, tuple(w)) for w in scaled]
    tols = (DEFAULT_TOL, TIGHT)
    shared = [repr(classify(c, tol)) for c in vectors for tol in tols]
    reduce = twocopy._gauge_reduced

    def per_read(u):
        vb = virtual_broadcast_coefficients(d).as_array() * 2.0**-u.shift
        return twocopy._gauge_gap(u.g, reduce(CovariantCoefficients(d, tuple(vb))), u.tol)

    fresh = lambda c: reduce(CovariantCoefficients(c.d, c.coeffs))  # noqa: E731
    monkeypatch.setattr(classify_module, "_gauge_reduced", fresh)
    monkeypatch.setattr(classify_module, "_virtual_broadcaster", per_read)
    assert [repr(classify(c, tol)) for c in vectors for tol in tols] == shared


def test_classify_reduces_the_weights_once(monkeypatch):
    reduced = []
    reduce = twocopy._gauge_reduced
    windowed = []  # every call of the window, from classify or from the gauge reduction
    window = twocopy._in_window
    for module in (twocopy, classify_module):
        monkeypatch.setattr(module, "_gauge_reduced", lambda c: reduced.append(c) or reduce(c))
        monkeypatch.setattr(module, "_in_window", lambda c, tol: windowed.append(c) or window(c, tol))
    c = CovariantCoefficients(2, (1, 2, 0.3, 0.3j, 0.1, -0.2))
    reduced.clear()
    windowed.clear()
    classify(c)
    assert len(reduced) == 1 and reduced[0] is c
    assert len(windowed) == 1 and windowed[0] is c


def test_classify_evidence_values_are_floats_bools_or_none():
    # The JSON writer takes the evidence as it is, with no conversion.
    rng = np.random.default_rng(46)
    for d in (2, 3, 5):
        for c in _report_vectors(d, rng)[:32]:
            for k in (-600, 0, 600):
                scaled = CovariantCoefficients(d, tuple(np.ldexp(1.0, k) * c.as_array()))
                try:
                    report = classify(scaled)
                except ValueError as exc:  # a determinant witness past the range
                    assert str(exc) == "a value overflows the double range"
                    continue
                assert all(type(v) in (float, bool, type(None)) for v in report.evidence.values())


def test_classify_cp_tag_reflects_trace_terms():
    rep = classify(CovariantCoefficients(2, (0, 0, 0, 0, 1, 0)))
    assert rep.completely_positive == "numerical-only"
    assert rep.evidence["cp_holds"] is True


def test_commutant_fit_has_no_desk_cap():
    # d = 17 is past the multicopy desk cap d**2 <= 256.
    assert commutant_fit(swap_operator(17), 17) == (0, 1, 0)


def _pinning_vectors(d, rng):
    """Random weights: generic, self-adjoint, and each of them trace-free."""
    vectors = []
    for _ in range(30):
        w = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        adjoint = np.array([w[0].real, w[1].real, w[2], np.conj(w[2]), w[4].real, w[5].real])
        for v in (w, adjoint):
            vectors += [v, np.concatenate([v[:4], [0, 0]])]
    return [CovariantCoefficients(d, tuple(v)) for v in vectors]


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_every_report_field_is_its_public_predicate(d):
    # classify evaluates each shared quantity once; every field it reports
    # must still have the bits of the predicate or helper that states it.
    vb = gauge_reduce(virtual_broadcast_coefficients(d)).as_array()
    for c in _pinning_vectors(d, np.random.default_rng(70 + d)):
        g = gauge_reduce(c)
        c1, c2, c3, c4, c5, c6 = c.coeffs
        for tol in (DEFAULT_TOL, TIGHT):
            rep = classify(c, tol)
            cp = is_cp(c, tol)
            want = [
                is_self_adjoint(c, tol),
                is_positive(c, tol),
                cp.status,
                satisfies_broadcast(c, tol),
                is_permutation_invariant(c, tol),
                is_classically_consistent(c, tol),
                is_virtual_broadcaster(c, tol),
            ]
            got = [
                rep.self_adjoint,
                rep.positive,
                rep.completely_positive,
                rep.broadcasting,
                rep.permutation_invariant,
                rep.classically_consistent,
                rep.virtual_broadcaster,
            ]
            assert repr(got) == repr(want)
            margin = _positivity_margin(_real_normal_form(g), d) if rep.self_adjoint else None
            residual = max(abs(c1 - c2), abs(d * c1 + c3 + c4 - 1), abs(d * c5 + c2 + c6))
            g1, g2, g3, g4, g5, g6 = g.coeffs
            violation = max(abs(g1.imag), abs(g2.imag), abs(g5.imag), abs(g6.imag), abs(g4 - np.conj(g3)))
            assert repr(rep.evidence) == repr({
                "self_adjoint_violation": float(violation),
                "positivity_margin": margin,
                "cp_witness": cp.witness,
                "cp_holds": cp.is_cp,
                "broadcast_residual": float(residual),
                "virtual_broadcaster_distance": max(abs(x - y) for x, y in zip(g.coeffs, vb.tolist())),
            })


def test_is_cp_answers_where_classify_refuses_a_witness_past_the_range():
    # The determinant c1 c2 - |c3|^2 is -1e400: is_cp gives the witness as
    # -inf with its verdict, classify refuses the report by name.
    c = CovariantCoefficients(3, (1e200, -1e200, 0, 0, 0, 0))
    assert is_cp(c) == CpResult("no", False, -np.inf)
    with pytest.raises(ValueError, match="^a value overflows the double range$"):
        classify(c)


@pytest.mark.parametrize(
    "bad, verdicts",
    [
        # An inf weight makes every threshold inf, so each tolerance test passes;
        # a NaN weight fails each test it enters.
        (np.inf, [True, True, CpResult("yes", True, -0.5), True, True, True, True]),
        (np.nan, [False, False, CpResult("no", False, -0.5), False, False, False, False]),
    ],
    ids=["inf", "nan"],
)
def test_non_finite_weights_are_read_unscaled(bad, verdicts):
    c = CovariantCoefficients(3, (bad, 0.5, -0.3, 0.2, 0, 0))
    predicates = [is_self_adjoint, is_positive, is_cp, satisfies_broadcast,
                  is_permutation_invariant, is_classically_consistent, is_virtual_broadcaster]
    assert [f(c) for f in predicates] == verdicts
    rep = classify(c)
    assert [rep.self_adjoint, rep.positive, rep.completely_positive, rep.broadcasting,
            rep.permutation_invariant, rep.classically_consistent, rep.virtual_broadcaster] == [
        *verdicts[:2], verdicts[2].status, *verdicts[3:]]
