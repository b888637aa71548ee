import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covmap.linalg import DimensionError, is_psd, kron, operator_norm, unvec, vec
from covmap.multicopy import apply_multi, from_two_copy, realize_multi_superoperator
from covmap import linalg, operators, twocopy
from covmap.classify import classify
from covmap.norms import cb_norm
from covmap.operators import haar_unitary, matrix_unit, swap_operator
from covmap.twocopy import (
    GAUGE_DIRECTION,
    CovariantCoefficients,
    GaugeAmbiguousError,
    _recover,
    apply_map,
    basis_superoperators,
    choi_matrix,
    extract,
    fit_coefficients,
    gauge_reduce,
    maps_equal,
    realize_superoperator,
    virtual_broadcast_coefficients,
)


def _random_coeffs(rng, d):
    vals = rng.uniform(-1, 1, 12)
    return CovariantCoefficients(
        d, tuple(complex(vals[2 * k], vals[2 * k + 1]) for k in range(6))
    )


def test_coefficients_validation():
    with pytest.raises(DimensionError):
        CovariantCoefficients(1, (0,) * 6)
    with pytest.raises(ValueError):
        CovariantCoefficients(2, (0,) * 5)


def test_apply_symmetrized_broadcaster_entries():
    y = apply_map(virtual_broadcast_coefficients(2), matrix_unit(1, 1, 2))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = 1.0
    expected[1, 2] = expected[2, 1] = 0.5
    assert np.abs(y - expected).max() == 0.0


def test_apply_pure_trace_term():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y = apply_map(CovariantCoefficients(3, (0, 0, 0, 0, 1, 0)), x)
    assert np.abs(y - np.trace(x) * np.eye(9)).max() < 1e-15


def test_apply_rank_one_image_block_structure():
    # real weights with m3 = m4 give the known diagonal-plus-block form
    m1, m2, m3, m5, m6 = 0.7, -0.2, 0.3, 0.4, -0.1
    c = CovariantCoefficients(2, (m1, m2, m3, m3, m5, m6))
    z = apply_map(c, matrix_unit(1, 1, 2))
    expected = np.zeros((4, 4))
    expected[0, 0] = m1 + m2 + 2 * m3 + m5 + m6
    expected[1, 1] = m2 + m5
    expected[2, 2] = m1 + m5
    expected[3, 3] = m5 + m6
    expected[1, 2] = expected[2, 1] = m3 + m6
    assert np.abs(z - expected).max() < 1e-15


def test_apply_trace_relation():
    rng = np.random.default_rng(1)
    for d in (2, 3):
        c = _random_coeffs(rng, d)
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        c1, c2, c3, c4, c5, c6 = c.coeffs
        factor = d * (c1 + c2) + (c3 + c4) + d * d * c5 + d * c6
        assert abs(np.trace(apply_map(c, x)) - factor * np.trace(x)) < 1e-12


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_apply_matches_dense_swap_products(d):
    # apply_map is the m = 2 gather, bit for bit, and the closed form with S
    # built densely and multiplied in, up to the rounding of a six-term sum.
    rng = np.random.default_rng(600 + d)
    c = _random_coeffs(rng, d)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    s = swap_operator(d)
    eye = np.eye(d, dtype=np.complex128)
    ix, xi, t = np.kron(eye, x), np.kron(x, eye), np.trace(x)
    c1, c2, c3, c4, c5, c6 = c.coeffs
    terms = [c1 * ix, c2 * xi, c3 * (s @ ix), c4 * (s @ xi), (c5 * t) * np.eye(d * d), (c6 * t) * s]
    got = apply_map(c, x)
    assert got.tobytes() == apply_multi(from_two_copy(c), x).tobytes()
    eps = np.finfo(float).eps
    assert np.abs(got - sum(terms)).max() <= 4 * eps * max(np.abs(term).max() for term in terms)


def test_apply_shape_mismatch():
    with pytest.raises(DimensionError):
        apply_map(virtual_broadcast_coefficients(2), np.eye(3))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([2, 3]))
def test_apply_is_covariant(seed, d):
    rng = np.random.default_rng(seed)
    c = _random_coeffs(rng, d)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    u = haar_unitary(d, seed=seed)
    w = kron(u, u)
    lhs = apply_map(c, u @ x @ u.conj().T)
    rhs = w @ apply_map(c, x) @ w.conj().T
    assert np.abs(lhs - rhs).max() < 1e-10


def test_realize_matches_apply():
    rng = np.random.default_rng(2)
    for d in (2, 3):
        c = _random_coeffs(rng, d)
        m = realize_superoperator(c)
        assert m.shape == (d**4, d**2)
        for _ in range(10):
            x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            assert np.abs(m @ vec(x) - vec(apply_map(c, x))).max() < 1e-12


def test_realize_zero_map():
    assert np.abs(realize_superoperator(CovariantCoefficients(3, (0,) * 6))).max() == 0.0


def test_choi_known_signs():
    assert is_psd(choi_matrix(CovariantCoefficients(2, (1, 0, 0, 0, 0, 0))))
    for d in (2, 3):
        assert is_psd(choi_matrix(CovariantCoefficients(d, (1, 1, 1, 1, 0, 0))))
    ch = choi_matrix(CovariantCoefficients(2, (1, 1, 2, 2, 0, 0)))
    evals = np.linalg.eigvalsh((ch + ch.conj().T) / 2)
    assert evals[0] == pytest.approx(-1.0, abs=1e-12)


def test_extract_round_trip():
    rng = np.random.default_rng(3)
    for d in (3, 4):
        for _ in range(25):
            c = _random_coeffs(rng, d)
            got, residual = extract(realize_superoperator(c), d)
            assert np.abs(got.as_array() - c.as_array()).max() < 1e-12
            assert residual < 1e-12


def test_extract_symmetrized_broadcaster():
    got, residual = extract(realize_superoperator(virtual_broadcast_coefficients(3)), 3)
    assert got.coeffs == (0, 0, 0.5, 0.5, 0, 0)
    assert residual < 1e-13


def test_extract_flags_non_covariant_input():
    from covmap.linalg import map_to_superoperator

    e11 = matrix_unit(1, 1, 3)
    superop = map_to_superoperator(lambda x: np.kron(e11 @ x @ e11, e11), 3)
    got, residual = extract(superop, 3)
    assert np.abs(got.as_array()).max() < 1e-15
    assert residual == pytest.approx(1.0, abs=1e-12)


def _six_entry_read(superop, d):
    """The hand-indexed two-copy read that the kernel read replaced."""
    # Columns d and 0 are vec(image of e1 e2*) and vec(image of e1 e1*).
    y = unvec(superop[:, d], d * d)
    z = unvec(superop[:, 0], d * d)
    # Image of e1e2* on e3(x)e2 has weight c1 on e3(x)e1 and c3 on e1(x)e3;
    # on e2(x)e3 it has c2 on e1(x)e3 and c4 on e3(x)e1.  Trace weights sit
    # in the image of e1e1* on e2(x)e3.
    c1 = y[2 * d + 0, 2 * d + 1]
    c3 = y[0 * d + 2, 2 * d + 1]
    c2 = y[0 * d + 2, 1 * d + 2]
    c4 = y[2 * d + 0, 1 * d + 2]
    c5 = z[1 * d + 2, 1 * d + 2]
    c6 = z[2 * d + 1, 1 * d + 2]
    c = CovariantCoefficients(d, (c1, c2, c3, c4, c5, c6))
    return c, operator_norm(superop - realize_superoperator(c))


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_extract_matches_six_entry_reference(d):
    rng = np.random.default_rng(400 + d)
    sup = rng.standard_normal((d**4, d * d)) + 1j * rng.standard_normal((d**4, d * d))
    got, res = extract(sup, d)
    want, want_res = _six_entry_read(sup, d)
    assert got.as_array().tobytes() == want.as_array().tobytes()
    assert res == want_res


def test_extract_rejects_low_dimension():
    with pytest.raises(GaugeAmbiguousError):
        extract(np.zeros((16, 4)), 2)
    with pytest.raises(DimensionError):
        extract(np.zeros((1, 1)), 1)
    with pytest.raises(DimensionError):
        extract(np.zeros((80, 9)), 3)


def test_fit_agrees_with_extract_at_d3():
    rng = np.random.default_rng(4)
    c = _random_coeffs(rng, 3)
    superop = realize_superoperator(c)
    via_fit, res_fit = fit_coefficients(superop, 3)
    via_extract, _ = extract(superop, 3)
    assert np.abs(via_fit.as_array() - via_extract.as_array()).max() < 1e-10
    assert res_fit < 1e-10


def test_fit_returns_gauge_reduced_at_d2():
    rng = np.random.default_rng(5)
    c = _random_coeffs(rng, 2)
    superop = realize_superoperator(c)
    got, residual = fit_coefficients(superop, 2)
    assert residual < 1e-12
    assert abs(np.vdot(GAUGE_DIRECTION, got.as_array())) < 1e-12
    expected = gauge_reduce(c)
    assert np.abs(got.as_array() - expected.as_array()).max() < 1e-12


def _dense_lstsq_fit(superop, d):
    # The dense route fit_coefficients replaced: lstsq over the stacked basis.
    basis = np.stack([vec(b) for b in basis_superoperators(d)], axis=1)
    sol, *_ = np.linalg.lstsq(basis, vec(superop), rcond=None)
    return gauge_reduce(CovariantCoefficients(d, tuple(sol)))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_fit_matches_dense_lstsq_reference(d):
    rng = np.random.default_rng(500 + d)
    covariant = realize_superoperator(_random_coeffs(rng, d))
    noise = rng.standard_normal(covariant.shape) + 1j * rng.standard_normal(covariant.shape)
    for superop in (covariant, covariant + 0.3 * noise):
        got, residual = fit_coefficients(superop, d)
        want = _dense_lstsq_fit(superop, d)
        scale = want.max_magnitude()
        assert np.abs(got.as_array() - want.as_array()).max() <= 1e-12 * scale
        want_residual = operator_norm(superop - realize_superoperator(want))
        assert residual == pytest.approx(want_residual, rel=1e-12, abs=1e-12 * scale)
        if d == 2:
            assert abs(np.vdot(GAUGE_DIRECTION, got.as_array())) <= 1e-12 * scale


def test_basis_superoperators_span_realization():
    c = CovariantCoefficients(2, (1, -2, 3j, 0.5, 0, 1 + 1j))
    combo = sum(z * b for z, b in zip(c.coeffs, basis_superoperators(2)))
    assert np.abs(combo - realize_superoperator(c)).max() < 1e-14


def test_gauge_direction_realizes_zero_only_at_d2():
    g2 = CovariantCoefficients(2, tuple(GAUGE_DIRECTION))
    assert operator_norm(realize_superoperator(g2)) < 1e-14
    g3 = CovariantCoefficients(3, tuple(GAUGE_DIRECTION))
    assert operator_norm(realize_superoperator(g3)) > 0.5


def test_gauge_identity_on_random_inputs():
    # I(x)X + X(x)I - tr(X) I(x)I + tr(X) S == S(X(x)I) + S(I(x)X) at d=2
    rng = np.random.default_rng(6)
    s = swap_operator(2)
    eye = np.eye(2)
    for _ in range(100):
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = kron(eye, x) + kron(x, eye) - np.trace(x) * np.eye(4) + np.trace(x) * s
        rhs = s @ kron(x, eye) + s @ kron(eye, x)
        assert np.abs(lhs - rhs).max() < 1e-13


def test_gauge_reduce_behaviour():
    c3 = CovariantCoefficients(3, (1, 2, 3, 4, 5, 6))
    assert gauge_reduce(c3) is c3
    c2 = CovariantCoefficients(2, tuple(2.5 * GAUGE_DIRECTION))
    assert np.abs(gauge_reduce(c2).as_array()).max() < 1e-15
    rng = np.random.default_rng(7)
    c = _random_coeffs(rng, 2)
    shifted = CovariantCoefficients(2, tuple(c.as_array() + (1.5 - 0.5j) * GAUGE_DIRECTION))
    assert np.abs(gauge_reduce(c).as_array() - gauge_reduce(shifted).as_array()).max() < 1e-12
    assert abs(np.vdot(GAUGE_DIRECTION, gauge_reduce(c).as_array())) < 1e-12


def test_maps_equal_gauge_pair():
    a = CovariantCoefficients(2, (1, 0, 0, 0, 0, 0))
    b = CovariantCoefficients(2, (0, -1, 1, 1, 1, -1))
    assert maps_equal(a, b)
    assert operator_norm(realize_superoperator(a) - realize_superoperator(b)) < 1e-14
    a3 = CovariantCoefficients(3, (1, 0, 0, 0, 0, 0))
    b3 = CovariantCoefficients(3, (0, -1, 1, 1, 1, -1))
    assert not maps_equal(a3, b3)
    with pytest.raises(DimensionError):
        maps_equal(a, a3)


def test_superoperator_columns_are_matrix_unit_images():
    c = virtual_broadcast_coefficients(2)
    m = realize_superoperator(c)
    # column of vec(E_21): E_21 = unvec(e_1) under column stacking
    e = np.zeros(4)
    e[1] = 1.0
    assert np.abs(m[:, 1] - vec(apply_map(c, unvec(e, 2)))).max() == 0.0


# The two-copy calculus is the m = 2 view of the m-copy index kernel.  The
# per-column apply_map loop and the kron-loop Choi matrix it replaced stay
# here as references; they agree up to the summation order on the diagonal
# entries of each E_aa image.


def _column_loop_realize(c):
    d = c.d
    m = np.zeros((d**4, d**2), dtype=np.complex128)
    for k in range(d * d):
        m[:, k] = vec(apply_map(c, unvec(np.eye(d * d)[k], d)))
    return m


def _kron_loop_choi(c):
    d = c.d
    blocks = np.zeros((d**3, d**3), dtype=np.complex128)
    for i in range(1, d + 1):
        for j in range(1, d + 1):
            blocks += np.kron(matrix_unit(i, j, d), apply_map(c, matrix_unit(i, j, d)))
    return blocks


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_realize_is_the_m2_multicopy_realize(d):
    c = _random_coeffs(np.random.default_rng(300 + d), d)
    got = realize_superoperator(c)
    assert got.tobytes() == realize_multi_superoperator(from_two_copy(c)).tobytes()
    scale = c.max_magnitude()
    assert np.abs(got - _column_loop_realize(c)).max() <= 1e-15 * scale
    assert np.abs(choi_matrix(c) - _kron_loop_choi(c)).max() <= 1e-15 * scale


def test_basis_superoperators_are_unit_realizations():
    for d in (2, 3):
        for k, b in enumerate(basis_superoperators(d)):
            unit = CovariantCoefficients(d, tuple(np.eye(6)[k]))
            assert b.tobytes() == _column_loop_realize(unit).tobytes()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_recover_reads_at_d3_and_up_and_fits_at_d2(d):
    rng = np.random.default_rng(700 + d)
    superop = realize_superoperator(_random_coeffs(rng, d))
    superop = superop + 1e-3 * rng.standard_normal(superop.shape)
    got, residual = _recover(superop, d)
    want, want_residual = (extract if d >= 3 else fit_coefficients)(superop, d)
    assert got.coeffs == want.coeffs
    assert residual == want_residual


@pytest.mark.parametrize("d", [2, 3])
def test_no_call_keeps_state_on_the_weights(d):
    # Nothing is kept on a weight vector: anything stored there would be a
    # result cache across calls.
    c = CovariantCoefficients(d, (1, 0.5j, -0.3, 0.2, 0, 0))
    sup = realize_superoperator(c)
    classify(c)
    cb_norm(c)
    apply_map(c, np.eye(d))
    fit_coefficients(sup, d)
    if d >= 3:
        extract(sup, d)
    assert set(vars(c)) == {"d", "coeffs"}


@pytest.mark.parametrize(
    "cache, key",
    [(operators._scatter, (2, 3)), (operators._scatter, (2, 4)), (operators._scatter, (3, 3))],
)
def test_index_caches_are_read_only_and_keyed_by_shape(cache, key):
    assert list(inspect.signature(cache.__wrapped__).parameters) == ["m", "d"]
    arrays = cache(*key)
    assert arrays is cache(*key)
    for a in arrays:
        assert a.dtype.kind == "i"
        with pytest.raises(ValueError):
            a[0] = 0


def test_fit_reads_the_range_of_its_input_once(monkeypatch):
    reads, read = [], linalg._range_exponent
    for module in (linalg, operators, twocopy):  # operators reads it from its caller
        monkeypatch.setattr(module, "_range_exponent", lambda a: reads.append(a.shape) or read(a), raising=False)
    fit_coefficients(realize_superoperator(CovariantCoefficients(3, (1, 2, 3, 4, 5, 6))), 3)
    assert reads.count((81, 9)) == 1
