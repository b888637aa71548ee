import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covmap import norms
from covmap.linalg import Tolerance, operator_norm
from covmap.norms import (
    CbNormResult,
    TraceTermsError,
    cb_norm,
    corner_coefficients,
    corner_norm_bound_check,
    monte_carlo_norm,
    psi_identity_norm,
)
from covmap.operators import _BLOCK, gaussian_hermitian, haar_unitary, substream, swap_operator
from covmap.twocopy import (
    GAUGE_DIRECTION,
    CovariantCoefficients,
    apply_map,
    fit_coefficients,
    realize_superoperator,
    virtual_broadcast_coefficients,
)


def test_psi_identity_norm_examples():
    assert psi_identity_norm(CovariantCoefficients(3, (1, 1, 1, 1, 0, 0))) == pytest.approx(4.0)
    # identity image cancels entirely here even though the map is nonzero
    assert psi_identity_norm(CovariantCoefficients(3, (1, -1, 1, -1, 0, 0))) == 0.0
    assert psi_identity_norm(CovariantCoefficients(2, (1, 1, -1, -1, 0, 0))) == pytest.approx(4.0)
    # swap-symmetric: c1=c2, c3=c4 gives |c1+c2+c3+c4| or |c3+c4-c1-c2| extremes
    assert psi_identity_norm(CovariantCoefficients(3, (1, 1, -3, -3, 0, 0))) == pytest.approx(8.0)


def test_psi_identity_norm_matches_direct_operator_norm():
    rng = np.random.default_rng(20)
    for _ in range(40):
        d = int(rng.choice([2, 3, 4]))
        vals = rng.uniform(-2, 2, 8)
        c = CovariantCoefficients(
            d,
            (
                complex(vals[0], vals[1]),
                complex(vals[2], vals[3]),
                complex(vals[4], vals[5]),
                complex(vals[6], vals[7]),
                0,
                0,
            ),
        )
        direct = operator_norm(apply_map(c, np.eye(d)))
        assert psi_identity_norm(c) == pytest.approx(direct, abs=1e-10)


def test_trace_terms_rejected():
    with pytest.raises(TraceTermsError):
        psi_identity_norm(CovariantCoefficients(3, (1, 1, 0, 0, 0.1, 0)))
    with pytest.raises(TraceTermsError):
        cb_norm(CovariantCoefficients(3, (1, 1, 0, 0, 0, 1e-6)))


def test_corner_coefficients_direct_substitution():
    c = CovariantCoefficients(3, (0.2, -0.7, 1.5 + 1j, 0.4 - 2j, 0, 0))
    l1, l2, l3, l4 = c.as_array()[:4]
    m1, m2, m3, m4 = corner_coefficients(c)
    assert m1 == pytest.approx(l1 + l2 + l3 + l4)
    assert m2 == pytest.approx(l1 - l2 + l3 - l4)
    assert m3 == pytest.approx(l1 - l2 - l3 + l4)
    assert m4 == pytest.approx(l1 + l2 - l3 - l4)
    # inverting: corner values at the four sign patterns recover the map on I
    assert m1 + m4 == pytest.approx(2 * (l1 + l2))


def test_cb_norm_swap_symmetric_exact():
    res = cb_norm(virtual_broadcast_coefficients(3))
    assert isinstance(res, CbNormResult)
    assert (res.value_kind, res.method) == ("exact", "schur-multiplier")
    assert res.value == pytest.approx(1.0, rel=1e-12)

    res = cb_norm(CovariantCoefficients(3, (1, 1, 1, 1, 0, 0)))
    assert res.value_kind == "exact"
    assert res.value == pytest.approx(4.0, rel=1e-12)

    res = cb_norm(CovariantCoefficients(2, (0.5, 0.5, -2, -2, 0, 0)))
    assert res.value_kind == "exact"
    # m1 = c1+c2+c3+c4 = -3, m4 = c1+c2-c3-c4 = 5
    assert res.value == pytest.approx(5.0, rel=1e-12)


def test_cb_norm_variety_bracket():
    # c1 c2 = c3 c4 with the off-diagonal corner dominant, corners (0, 4, 0, 0):
    # max|m_k| = 4 bounds the norm, and the witness diag(1, -1, 1) attains it
    c = CovariantCoefficients(3, (1, -1, 1, -1, 0, 0))
    res = cb_norm(c)
    assert (res.value_kind, res.method) == ("exact", "schur-multiplier")
    assert res.value == 4.0
    assert res.detail["witness_angle"] == pytest.approx(np.pi)
    assert operator_norm(apply_map(c, np.diag([1, -1, 1]))) == pytest.approx(4.0, rel=1e-12)


def test_cb_norm_variety_exact_when_outer_corners_dominate():
    # c = (2, 1, 2, 1): c1 c2 = 2 = c3 c4, corners (6, 2, 0, 0)
    c = CovariantCoefficients(3, (2, 1, 2, 1, 0, 0))
    res = cb_norm(c)
    assert (res.value_kind, res.method) == ("exact", "schur-multiplier")
    assert res.value == pytest.approx(6.0, rel=1e-12)
    assert res.value == pytest.approx(psi_identity_norm(c), rel=1e-12)


def test_cb_norm_is_continuous_across_the_variety():
    # c1 c2 - c3 c4 = -2e-6: the value does not depend on which side of the variety c lies
    c = CovariantCoefficients(3, (2, 1, 2, 1 + 1e-6, 0, 0))
    for tol in (Tolerance(), Tolerance(abs=1e-4, rel=1e-4)):
        res = cb_norm(c, tol=tol)
        assert (res.value_kind, res.method) == ("exact", "schur-multiplier")
        assert res.value == pytest.approx(6.0, abs=1e-5)


def test_cb_norm_generic_lower_bound():
    c = CovariantCoefficients(3, (1, 0.3, 0.7, -0.2, 0, 0))
    res = cb_norm(c, samples=150, seed=7)
    assert (res.value_kind, res.method) == ("exact", "schur-multiplier")
    assert "samples" not in res.detail
    sampled = monte_carlo_norm(c, 4000, 7)
    assert res.value >= sampled >= psi_identity_norm(c)
    assert res.value - sampled < 1e-6  # sampling closes in on it
    witness = np.diag([1, np.exp(1j * res.detail["witness_angle"]), 1])
    assert operator_norm(apply_map(c, witness)) == pytest.approx(res.value, rel=1e-12)


def test_monte_carlo_norm_dominates_identity_value():
    rng = np.random.default_rng(22)
    for _ in range(10):
        vals = rng.uniform(-1, 1, 4)
        c = CovariantCoefficients(3, (*vals, 0, 0))
        mc = monte_carlo_norm(c, samples=60, seed=3)
        assert mc >= psi_identity_norm(c) - 1e-9


def test_monte_carlo_norm_respects_variety_upper_bound():
    rng = np.random.default_rng(23)
    for _ in range(10):
        l1, l2 = rng.uniform(-1.5, 1.5, 2)
        l3 = rng.uniform(-1.5, 1.5)
        if abs(l3) < 1e-3:
            l3 = 0.5
        l4 = l1 * l2 / l3
        c = CovariantCoefficients(3, (l1, l2, l3, l4, 0, 0))
        bound = max(abs(m) for m in corner_coefficients(c))
        mc = monte_carlo_norm(c, samples=80, seed=4)
        assert mc <= bound + 1e-9


def test_monte_carlo_norm_known_values():
    # symmetrized doubling has map norm exactly 1; sampling cannot exceed it
    val = monte_carlo_norm(virtual_broadcast_coefficients(3), samples=200, seed=1)
    assert 1.0 <= val <= 1.0 + 1e-9
    assert monte_carlo_norm(CovariantCoefficients(3, (0, 0, 0, 0, 0, 0)), samples=20, seed=0) == 0.0


def _probe_loop_norm(c, samples, seed):
    # Dense reference: one haar_unitary call per odd probe and one
    # d^2 x d^2 image and SVD per probe.
    best = operator_norm(apply_map(c, np.eye(c.d)))
    for k in range(1, samples):
        if k % 2 == 1:
            x = haar_unitary(c.d, seed, k)
        else:
            h = gaussian_hermitian(c.d, substream(seed, k, stream=1))
            x = h / operator_norm(h)
        best = max(best, operator_norm(apply_map(c, x)))
    return float(best)


def _spectral_bound(c):
    # The spectral evaluation rounds differently from the dense image and
    # its SVD; 64 eps per unit of sum|c_k| covers both eigensolvers and the
    # block norms for probes of norm at most one.
    return 64 * np.finfo(float).eps * np.abs(c.as_array()).sum()


@pytest.mark.parametrize("d", [2, 4])
def test_monte_carlo_norm_is_bit_equal_to_per_probe_draws(d, monkeypatch):
    rng = np.random.default_rng(40 + d)
    weights = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    c = CovariantCoefficients(d, (*weights, 0, 0))
    samples = 2 * _BLOCK + 7  # crosses two draw blocks and ends on a partial one
    value = monte_carlo_norm(c, samples, 11)
    assert abs(value - _probe_loop_norm(c, samples, 11)) <= _spectral_bound(c)
    drawn = []  # every probe before normalization, bit for bit, whatever the order
    probes = norms._probes

    def recording_probes(d, seed, ks):
        us, hs = probes(d, seed, ks)
        assert len(us) + len(hs) <= 2 * _BLOCK
        drawn.extend(x.tobytes() for x in (*us, *hs))
        return us, hs

    monkeypatch.setattr(norms, "_probes", recording_probes)
    assert monte_carlo_norm(c, samples, 11) == value
    per_probe = [
        haar_unitary(d, 11, k) if k % 2 == 1 else gaussian_hermitian(d, substream(11, k, stream=1))
        for k in range(1, samples)
    ]
    assert sorted(drawn) == sorted(x.tobytes() for x in per_probe)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 16])
def test_monte_carlo_norm_matches_dense_probe_loop(d):
    rng = np.random.default_rng(70 + d)
    samples = 2 * _BLOCK + 7 if d <= 6 else 7  # one d = 16 image SVD takes about 50 ms
    for weights in (rng.standard_normal(4) + 1j * rng.standard_normal(4), (1, 1, -0.5, -0.5)):
        c = CovariantCoefficients(d, (*weights, 0, 0))
        got = monte_carlo_norm(c, samples, 3)
        assert abs(got - _probe_loop_norm(c, samples, 3)) <= _spectral_bound(c)


def _normal_probe(rng, d, spectrum):
    """A normal d x d matrix of the given spectrum kind, and its eigenvalues."""
    if spectrum == "haar":
        x = haar_unitary(d, int(rng.integers(2**31)))
        return x, np.linalg.eigvals(x)
    if spectrum == "zero":
        return np.zeros((d, d), dtype=complex), np.zeros(d)
    values = {
        "repeated": [-1.0, -0.25, 0.5, 1.0], "signs": [-1.0, 1.0], "signs-and-zero": [-1.0, 0.0, 1.0],
    }
    lam = rng.choice(values[spectrum], size=d)
    if spectrum == "repeated":
        lam[1] = lam[0]
    v = haar_unitary(d, int(rng.integers(2**31)))
    x = (v * lam) @ v.conj().T
    x = (x + x.conj().T) / 2
    return x, np.linalg.eigvalsh(x)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=8),
    st.sampled_from(["haar", "repeated", "signs", "signs-and-zero", "zero"]),
    st.sampled_from(["random", "swap-symmetric", "broadcast", "swap-phases"]),
)
def test_spectral_norm_equals_dense_image_norm(seed, d, spectrum, kind):
    rng = np.random.default_rng(seed)
    if kind == "broadcast":
        c = virtual_broadcast_coefficients(d)
    else:
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        if kind == "swap-symmetric":
            w[1], w[3] = w[0], w[2]
        if kind == "swap-phases":  # both singular values of each block meet for real spectra
            w = np.array([0, 0, *np.exp(2j * np.pi * rng.random(2))])
        c = CovariantCoefficients(d, (*w, 0, 0))
    x, lam = _normal_probe(rng, d, spectrum)
    got = norms._spectral_norms(c, lam[None, :])[0]
    assert abs(got - operator_norm(apply_map(c, x))) <= _spectral_bound(c)


def test_monte_carlo_norm_deterministic():
    c = CovariantCoefficients(3, (1, 0.3, 0.7, -0.2, 0, 0))
    a = monte_carlo_norm(c, samples=50, seed=9)
    b = monte_carlo_norm(c, samples=50, seed=9)
    assert a == b
    assert monte_carlo_norm(c, samples=50, seed=10) != a


def test_corner_norm_bound_check_random_trials():
    rng = np.random.default_rng(24)
    for n, k in ((4, 2), (6, 3)):
        u = haar_unitary(n, seed=int(rng.integers(1000)))
        p = u[:, :k] @ u[:, :k].conj().T
        for _ in range(20):
            m1, m2 = rng.uniform(-2, 2, 2)
            m3 = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if abs(m1) < 1e-3:
                m1 = 1.0
            m4 = m2 * m3 / m1  # m1 m4 = m2 m3
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            assert corner_norm_bound_check(p, a, (m1, m2, m3, m4))


def test_corner_norm_bound_check_validation():
    p = np.eye(4)[:, :2] @ np.eye(4)[:2, :]
    a = np.eye(4, dtype=complex)
    with pytest.raises(ValueError):
        corner_norm_bound_check(np.ones((4, 4)), a, (1, 1, 1, 1))
    with pytest.raises(ValueError):
        # 1*1 != 2*3 violates the compression constraint
        corner_norm_bound_check(p, a, (1, 2, 3, 1))


def test_corner_decomposition_reassembles_operator():
    # the four compressions of any operator add back up to it
    rng = np.random.default_rng(25)
    n = 5
    u = haar_unitary(n, seed=77)
    p = u[:, :2] @ u[:, :2].conj().T
    q = np.eye(n) - p
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    total = p @ a @ p + p @ a @ q + q @ a @ p + q @ a @ q
    assert np.abs(total - a).max() < 1e-12


def test_swap_moves_between_corner_families():
    # S times the swapped pair gives the plain pair, since S squares to I
    s = swap_operator(3)
    rng = np.random.default_rng(26)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y = apply_map(CovariantCoefficients(3, (0, 0, 0.5, 0.5, 0, 0)), x)
    z = apply_map(CovariantCoefficients(3, (0.5, 0.5, 0, 0, 0, 0)), x)
    assert np.abs(s @ y - z).max() < 1e-12


def test_virtual_broadcaster_cb_norm_is_one():
    for d in (2, 3, 4):
        res = cb_norm(virtual_broadcast_coefficients(d))
        assert res.value_kind == "exact"
        assert res.value == pytest.approx(1.0)


# Weights at d = 2: swap-symmetric, on the variety c1 c2 = c3 c4 with the
# identity corner dominant, on it with an off-diagonal corner dominant, generic.
D2_TRACE_FREE = [(1, 1, 0.5, 0.5), (2, 1, 2, 1), (1, -1, 1, -1), (1, 0.5, 0.2, 0.1)]


def _close(a, b):
    if isinstance(a, tuple):
        return all(x == pytest.approx(y, rel=1e-12, abs=1e-12) for x, y in zip(a, b))
    return a == pytest.approx(b, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("weights", D2_TRACE_FREE)
@pytest.mark.parametrize("t", [0.2, -1.5, 0.3 - 0.7j])
def test_cb_norm_at_d2_does_not_depend_on_the_gauge(weights, t):
    # c + t g realizes the same map as c at d = 2 although its c5 = -t, c6 = t
    c = CovariantCoefficients(2, (*weights, 0, 0))
    shifted = CovariantCoefficients(2, tuple(c.as_array() + t * GAUGE_DIRECTION))
    want, got = cb_norm(c), cb_norm(shifted)
    assert (got.value_kind, got.method) == (want.value_kind, want.method)
    assert _close(got.value, want.value)
    assert _close(tuple(got.detail["corner_magnitudes"]), tuple(want.detail["corner_magnitudes"]))
    assert _close(psi_identity_norm(shifted), psi_identity_norm(c))
    assert _close(monte_carlo_norm(shifted, 40, 3), monte_carlo_norm(c, 40, 3))


def test_min_norm_representative_at_d2_is_analysed():
    # fit_coefficients returns the representative orthogonal to g, with c5 = -c6 != 0
    c = CovariantCoefficients(2, (1, 0.5, 0.2, 0.1, 0, 0))
    fitted, _ = fit_coefficients(realize_superoperator(c), 2)
    assert abs(fitted[4]) > 0.1
    want, got = cb_norm(c), cb_norm(fitted)
    assert (got.value_kind, got.method) == (want.value_kind, want.method) == ("exact", "schur-multiplier")
    assert got.value == pytest.approx(want.value, rel=1e-12)
    # corners (1.8, 0.6, 0.4, 1.2): the identity attains the norm, and sampling never exceeds it
    assert want.value == pytest.approx(operator_norm(apply_map(c, np.eye(2))), rel=1e-12)
    assert want.value == pytest.approx(1.8, rel=1e-12)
    assert monte_carlo_norm(c, 500, 1) <= want.value * (1 + 1e-12)


def test_trace_free_input_is_returned_unchanged():
    for d, weights in ((2, (1, 0.5, 0.2, 0.1, 0, 1e-14)), (3, (1, 2, 3, 4, 0, 0))):
        c = CovariantCoefficients(d, weights)
        assert norms._trace_free(c, Tolerance()) is c


def test_trace_terms_rejected_at_d2_only_on_the_gauge_invariant_sum():
    # c5 + c6 is the trace part of the map at d = 2; c5 - c6 is gauge
    with pytest.raises(TraceTermsError):
        cb_norm(CovariantCoefficients(2, (1, 1, 0, 0, 0.25, 0.25)))
    with pytest.raises(TraceTermsError):
        psi_identity_norm(CovariantCoefficients(2, (1, 1, 0, 0, 0, 1e-6)))
    c = norms._trace_free(CovariantCoefficients(2, (1, 1, 0, 0, 0.25, -0.25)), Tolerance())
    assert c.coeffs == (1.25, 1.25, -0.25, -0.25, 0, 0)


@pytest.mark.parametrize("t", [0.2, -1.5, 0.3 - 0.7j])
def test_corner_coefficients_at_d2_do_not_depend_on_the_gauge(t):
    # trace terms are allowed: c5 + c6 belongs to the map, c5 - c6 to the gauge
    for weights in ((1, 0.5, 0.2, 0.1, 0, 0), (1, 0.5, 0.2, 0.1, 0.3, 0.4 - 1j)):
        c = CovariantCoefficients(2, weights)
        shifted = CovariantCoefficients(2, tuple(c.as_array() + t * GAUGE_DIRECTION))
        assert np.abs(np.subtract(corner_coefficients(shifted), corner_coefficients(c))).max() < 1e-14
    # the representative fit_coefficients returns for (1, 0.5, 0.2, 0.1, 0, 0)
    fitted = CovariantCoefficients(2, (0.8, 0.3, 0.4, 0.3, 0.2, -0.2))
    assert np.abs(np.subtract(corner_coefficients(fitted), (1.8, 0.6, 0.4, 1.2))).max() < 1e-14


def _closed_branch_value(c, thr=1e-9):
    """The swap-symmetric and corner-dominance closed forms where one applies, else None.

    Swap-symmetric weights give a diagonal corner matrix; weights on the
    variety c1 c2 = c3 c4 give a rank-one one, whose norm max|m_k| the
    identity image attains when an outer corner dominates.
    """
    c1, c2, c3, c4 = c.coeffs[:4]
    m1, m2, m3, m4 = (abs(m) for m in corner_coefficients(c))
    identity = max(m1, m4)
    if max(abs(c1 - c2), abs(c3 - c4)) <= thr:
        return identity
    if abs(c1 * c2 - c3 * c4) <= thr and identity >= max(m2, m3) - thr:
        return identity
    return None


def test_cb_norm_equals_the_closed_branches_on_criterion_07_inputs():
    # criterion 07's draws: 100 swap-symmetric vectors, then dominance-case variety vectors
    rng = np.random.default_rng(107)
    draw = lambda n: rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)  # noqa: E731
    inputs = [CovariantCoefficients(3, (mu, mu, nu, nu, 0, 0)) for mu, nu in (draw(2) for _ in range(100))]
    while len(inputs) < 200:
        l1, l2, l3 = draw(3)
        if abs(l3) < 1e-2:
            continue
        c = CovariantCoefficients(3, (l1, l2, l3, l1 * l2 / l3, 0, 0))
        m1, m2, m3, m4 = corner_coefficients(c)
        if max(abs(m1), abs(m4)) >= max(abs(m2), abs(m3)) + 1e-6:
            inputs.append(c)
    for c in inputs:
        want = _closed_branch_value(c)
        assert want is not None
        assert cb_norm(c).value == pytest.approx(want, rel=1e-12, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=2, max_value=6),
    st.sampled_from(["random", "swap-symmetric", "variety"]),
)
def test_cb_norm_is_never_below_sampling(seed, d, kind):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    if kind == "swap-symmetric":
        w[1], w[3] = w[0], w[2]
    if kind == "variety":
        w[3] = w[0] * w[1] / w[2]
    c = CovariantCoefficients(d, (*w, 0, 0))
    assert cb_norm(c).value >= monte_carlo_norm(c, 500, seed) - 1e-12 * np.abs(w).sum()


def _amplified_norm(c, y):
    """||(id_d (x) Phi)(Y)|| for Y on C^d (x) C^d, from the dense image of each d x d block."""
    d = c.d
    blocks = y.reshape(d, d, d, d)
    return operator_norm(np.block([[apply_map(c, blocks[a, :, b, :]) for b in range(d)] for a in range(d)]))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_no_amplified_unitary_exceeds_the_cb_norm(d):
    rng = np.random.default_rng(90 + d)
    for _ in range(6):
        c = CovariantCoefficients(d, (*(rng.standard_normal(4) + 1j * rng.standard_normal(4)), 0, 0))
        res = cb_norm(c)
        witness = np.eye(d, dtype=complex)
        witness[1, 1] = np.exp(1j * res.detail["witness_angle"])
        # I (x) witness is an amplified unitary that attains the value
        assert _amplified_norm(c, np.kron(np.eye(d), witness)) == pytest.approx(res.value, rel=1e-12)
        for _ in range(10):
            y = haar_unitary(d * d, int(rng.integers(2**31)))
            assert _amplified_norm(c, y) <= res.value * (1 + 1e-12)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_map_is_the_schur_multiplier_of_its_corner_weights(d):
    # Phi(X) = sum_ab M_ab P_a (I (x) X) P_b with P+- = (I +- S)/2 and M the corner matrix
    rng = np.random.default_rng(60 + d)
    s = swap_operator(d)
    proj = ((np.eye(d * d) + s) / 2, (np.eye(d * d) - s) / 2)
    for _ in range(5):
        w = np.concatenate([rng.standard_normal(4) + 1j * rng.standard_normal(4), np.zeros(2)])
        if d == 2:  # a representative with c5 = -c6 != 0 realizes the same map
            w = w + complex(*rng.standard_normal(2)) * GAUGE_DIRECTION
        c = CovariantCoefficients(d, tuple(w))
        m = np.reshape(corner_coefficients(c), (2, 2))
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        y = np.kron(np.eye(d), x)
        schur = sum(m[a, b] * proj[a] @ y @ proj[b] for a in range(2) for b in range(2))
        assert np.abs(schur - apply_map(c, x)).max() < 1e-12


@pytest.mark.parametrize("s", [1e-120, 1e120])
def test_cb_norm_scales_with_the_weights(s):
    rng = np.random.default_rng(50)
    for d in (2, 3, 5):
        for w in (rng.standard_normal(4) + 1j * rng.standard_normal(4), np.array([1, -1, 1, -1])):
            value = cb_norm(CovariantCoefficients(d, (*w, 0, 0))).value
            scaled = cb_norm(CovariantCoefficients(d, (*(s * w), 0, 0))).value
            assert abs(scaled - s * value) <= 1e-12 * s * value


def _refuse_draw(*args, **kwargs):
    raise AssertionError("random draw")


@pytest.mark.parametrize("d", [2, 3, 4, 6, 16])
def test_cb_norm_is_exact_without_any_draw(d, monkeypatch):
    monkeypatch.setattr("covmap.operators._normals", _refuse_draw)
    rng = np.random.default_rng(80 + d)
    c = CovariantCoefficients(d, (*(rng.standard_normal(4) + 1j * rng.standard_normal(4)), 0, 0))
    with pytest.raises(AssertionError, match="random draw"):
        monte_carlo_norm(c, 3, 0)
    res = cb_norm(c, samples=500, seed=3)
    assert (res.value_kind, res.method) == ("exact", "schur-multiplier")
    witness = np.eye(d, dtype=complex)
    witness[1, 1] = np.exp(1j * res.detail["witness_angle"])
    assert operator_norm(apply_map(c, witness)) == pytest.approx(res.value, rel=1e-12)
