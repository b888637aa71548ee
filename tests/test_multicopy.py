import itertools
import math
import tracemalloc
import warnings
from functools import reduce

import numpy as np
import pytest

from covmap.linalg import _REAL_GRAM_ENTRIES, DimensionError, _top_singular_values
from covmap.linalg import hs_inner, unvec, vec
from covmap.multicopy import (
    MultiCopyCoefficients,
    UniquenessUnavailableError,
    apply_multi,
    covariance_residual_multi,
    enumerate_permutations,
    extract_multi,
    from_two_copy,
    realize_multi_superoperator,
    schur_weyl_fit,
    slot_embedding,
    to_two_copy,
)
from covmap.twirl import _adjoint, _adjoint_basis, _conjugate, _read, _superoperator_pairs
from covmap.twirl import covariance_deviation, twirl_operator
from covmap.classify import commutant_fit
from covmap.operators import _BLOCK, Permutation, _gather, _probes, _rows, _scatter, haar_unitary
from covmap.operators import matrix_unit
from covmap.operators import permutation_operator
from covmap.twocopy import (
    _TABLE,
    _UNTABLE,
    CovariantCoefficients,
    apply_map,
    extract,
    fit_coefficients,
    gauge_reduce,
    realize_superoperator,
    virtual_broadcast_coefficients,
)


def test_permutation_enumeration_is_lexicographic():
    images = [p.image for p in enumerate_permutations(3)]
    assert images == [(1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1), (3, 1, 2), (3, 2, 1)]
    images4 = [p.image for p in enumerate_permutations(4)]
    assert len(images4) == 24
    assert images4 == sorted(images4)
    assert images4[0] == (1, 2, 3, 4)
    assert images4[-1] == (4, 3, 2, 1)


def test_slot_embedding_examples():
    d = 3
    assert np.abs(slot_embedding(1, np.eye(d), 2, d) - d * np.eye(d * d)).max() == 0.0
    x = np.arange(9, dtype=complex).reshape(3, 3)
    assert np.abs(slot_embedding(2, x, 2, d) - np.kron(x, np.eye(d))).max() == 0.0
    assert np.abs(slot_embedding(3, x, 2, d) - np.kron(np.eye(d), x)).max() == 0.0
    got = slot_embedding(3, matrix_unit(1, 1, 2), 3, 2)
    expected = np.kron(np.kron(np.eye(2), matrix_unit(1, 1, 2)), np.eye(2))
    assert np.abs(got - expected).max() == 0.0
    assert got.shape == (8, 8)
    assert np.abs(got - np.diag(np.diag(got))).max() == 0.0  # diagonal 0/1
    assert set(np.unique(np.real(np.diag(got)))) == {0.0, 1.0}


def test_slot_embedding_index_loop_oracle():
    # entry oracle: slot k-1 carries x, all other slots are Kronecker deltas
    rng = np.random.default_rng(30)
    d, m = 2, 3
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    for j in (2, 3, 4):
        got = slot_embedding(j, x, m, d)
        for row in range(d**m):
            for col in range(d**m):
                rd = np.unravel_index(row, (d,) * m)
                cd = np.unravel_index(col, (d,) * m)
                val = 1.0 + 0j
                for slot in range(m):
                    if slot == j - 2:
                        val *= x[rd[slot], cd[slot]]
                    elif rd[slot] != cd[slot]:
                        val = 0.0
                assert abs(got[row, col] - val) < 1e-13


def test_slot_embedding_validation():
    with pytest.raises(ValueError):
        slot_embedding(0, np.eye(2), 2, 2)
    with pytest.raises(ValueError):
        slot_embedding(4, np.eye(2), 2, 2)
    with pytest.raises(DimensionError):
        slot_embedding(2, np.eye(3), 2, 2)


def test_desk_scale_guards():
    lam = np.zeros((2, 3), dtype=complex)
    with pytest.raises(ValueError):
        MultiCopyCoefficients(1, 2, lam)
    with pytest.raises(ValueError):
        MultiCopyCoefficients(5, 2, np.zeros((120, 6), dtype=complex))
    with pytest.raises(ValueError):
        MultiCopyCoefficients(4, 5, np.zeros((24, 5), dtype=complex))  # 5^4 > 256
    with pytest.raises(ValueError):
        MultiCopyCoefficients(2, 3, np.zeros((2, 4), dtype=complex))  # bad shape


def test_apply_multi_trivial_cases():
    d = 3
    lam = np.zeros((2, 3), dtype=complex)
    mc = MultiCopyCoefficients(2, d, lam)
    x = np.arange(9, dtype=complex).reshape(3, 3)
    assert np.abs(apply_multi(mc, x)).max() == 0.0

    lam = np.zeros((2, 3), dtype=complex)
    lam[0, 0] = 1.0  # identity permutation, trace slot
    mc = MultiCopyCoefficients(2, d, lam)
    assert np.abs(apply_multi(mc, x) - np.trace(x) * np.eye(9)).max() < 1e-13


def test_two_copy_dictionary_on_random_inputs():
    rng = np.random.default_rng(31)
    for _ in range(50):
        d = int(rng.choice([2, 3]))
        vals = rng.standard_normal(12)
        c = CovariantCoefficients(
            d, tuple(complex(vals[2 * k], vals[2 * k + 1]) for k in range(6))
        )
        mc = from_two_copy(c)
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert np.abs(apply_multi(mc, x) - apply_map(c, x)).max() < 1e-12
        back = to_two_copy(mc)
        assert np.abs(back.as_array() - c.as_array()).max() == 0.0


def test_two_copy_dictionary_layout():
    c = CovariantCoefficients(3, (1, 2, 3, 4, 5, 6))
    lam = from_two_copy(c).lam
    # identity row carries (l5, l2, l1), swap row carries (l6, l4, l3)
    assert lam[0].tolist() == [5, 2, 1]
    assert lam[1].tolist() == [6, 4, 3]


def test_realize_matches_apply_multi():
    rng = np.random.default_rng(32)
    m, d = 3, 2
    lam = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    mc = MultiCopyCoefficients(m, d, lam)
    sup = realize_multi_superoperator(mc)
    assert sup.shape == (64, 4)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    direct = apply_multi(mc, x)
    via = unvec(sup @ vec(x), 8, 8)
    assert np.abs(direct - via).max() < 1e-12


def test_extract_round_trip_m2_d3():
    rng = np.random.default_rng(33)
    for _ in range(10):
        lam = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        mc = MultiCopyCoefficients(2, 3, lam)
        got, res = extract_multi(realize_multi_superoperator(mc), 2, 3)
        assert np.abs(got.lam - lam).max() < 1e-10
        assert res < 1e-10


def test_extract_round_trip_m3_d4():
    rng = np.random.default_rng(34)
    lam = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    mc = MultiCopyCoefficients(3, 4, lam)
    got, res = extract_multi(realize_multi_superoperator(mc), 3, 4)
    assert np.abs(got.lam - lam).max() < 1e-9
    assert res < 1e-9


# Every (m, d) inside the desk cap with unique weights, d >= m + 1.
READ_SHAPES = [(m, d) for m in (2, 3, 4) for d in range(m + 1, 17) if d**m <= 256]


@pytest.mark.parametrize("m,d", READ_SHAPES)
def test_extract_inverts_realize_exactly(m, d):
    rng = np.random.default_rng(500 + 20 * m + d)
    shape = (math.factorial(m), m + 1)
    lam = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got, res = extract_multi(realize_multi_superoperator(MultiCopyCoefficients(m, d, lam)), m, d)
    assert got.lam.tobytes() == lam.tobytes()
    assert res == 0.0


def _probe_arithmetic(m, d):
    """Flat superoperator indices of the probe entries derived by hand.

    Slot generator j >= 2 is read in the e1 e2* image (column d) at input
    tensor v, with e2 in slot j-1 and e3, ..., e(m+1) in the other slots in
    order, and at the permuted output tensors of v with that e2 set to e1.
    The trace generator is read in the e1 e1* image (column 0) at
    e2 (x) ... (x) e(m+1) and its permutations.
    """
    dim, dd, shape = d**m, d * d, (d,) * m
    forward = np.argsort(_rows(m, d), axis=1)  # row x moves to row forward[i, x]
    probes = np.empty((len(forward), m + 1), dtype=np.intp)
    fillers = list(range(2, m + 1))
    for slot in range(m):
        v = np.ravel_multi_index(fillers[:slot] + [1] + fillers[slot:], shape)
        w = np.ravel_multi_index(fillers[:slot] + [0] + fillers[slot:], shape)
        probes[:, slot + 1] = (v * dim + forward[:, w]) * dd + d
    u = np.ravel_multi_index(range(1, m + 1), shape)
    probes[:, 0] = (u * dim + forward[:, u]) * dd
    return probes


@pytest.mark.parametrize("m,d", READ_SHAPES)
def test_probe_table_picks_the_hand_derived_entries(m, d):
    assert _probes(m, d).tolist() == _probe_arithmetic(m, d).tolist()


@pytest.mark.parametrize("d", [3, 4, 5, 6])
def test_extract_multi_at_m2_is_the_two_copy_extract(d):
    rng = np.random.default_rng(600 + d)
    sup = rng.standard_normal((d**4, d * d)) + 1j * rng.standard_normal((d**4, d * d))
    got, res = extract_multi(sup, 2, d)
    want, want_res = extract(sup, d)
    assert to_two_copy(got).as_array().tobytes() == want.as_array().tobytes()
    assert res == want_res


def test_extract_requires_room_for_distinct_indices():
    sup = np.zeros((27, 9), dtype=complex)
    with pytest.raises(UniquenessUnavailableError):
        extract_multi(sup, 3, 3)
    with pytest.raises(UniquenessUnavailableError):
        extract_multi(np.zeros((16, 4), dtype=complex), 2, 2)


def test_extract_non_covariant_residual_frozen():
    rng = np.random.default_rng(11)
    sup = rng.standard_normal((81, 9)) + 1j * rng.standard_normal((81, 9))
    _, res = extract_multi(sup, 2, 3)
    assert res > 0.01
    assert res == pytest.approx(17.130226809959122, rel=1e-9)
    assert res == extract(sup, 3)[1]


EPS = np.finfo(float).eps
# Residual shapes d^(2m) x d^2 on both sides of the Gram route rule of
# covmap.linalg._gram: (2, 3) and (2, 4) take the complex product, the
# others the real rank-k one.
RESIDUAL_SHAPES = [(2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (3, 6)]


def test_residual_shapes_cover_both_gram_routes():
    shapes = [(d ** (2 * m), d * d) for m, d in RESIDUAL_SHAPES]
    real = [p >= 4 * q and p * q >= _REAL_GRAM_ENTRIES for p, q in shapes]
    assert real == [False, False, True, True, True, True, True]


def _svd_residual(superop, realized):
    return np.linalg.norm(superop - realized, 2)


@pytest.mark.parametrize("m,d", RESIDUAL_SHAPES)
def test_extraction_and_fit_residuals_match_the_svd(m, d):
    rng = np.random.default_rng(300 + 10 * m + d)
    shape = (math.factorial(m), m + 1)
    lam = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    exact = realize_multi_superoperator(MultiCopyCoefficients(m, d, lam))
    sup = exact + 1e-3 * (rng.standard_normal(exact.shape) + 1j * rng.standard_normal(exact.shape))
    got, residual = extract_multi(sup, m, d)
    want = _svd_residual(sup, realize_multi_superoperator(got))
    assert abs(residual - want) <= 16 * EPS * want
    if m == 2:
        for recover in (extract, fit_coefficients):
            c, residual = recover(sup, d)
            want = _svd_residual(sup, realize_superoperator(c))
            assert abs(residual - want) <= 16 * EPS * want


def _peak(call):
    call()  # index caches and BLAS buffers
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_extraction_residual_takes_one_copy_of_the_input():
    # The difference is a copy of the input changed on the realized support
    # alone, and the tall Gram product needs no conjugated copy: a dense
    # realization or difference, or a conjugated copy, would add 1x.
    rng = np.random.default_rng(45)
    lam = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    sup = realize_multi_superoperator(MultiCopyCoefficients(3, 6, lam))
    sup += 1e-3 * rng.standard_normal(sup.shape)
    assert _peak(lambda: extract_multi(sup, 3, 6)) < 1.5 * sup.nbytes
    c = CovariantCoefficients(6, tuple(rng.standard_normal(6)))
    sup = realize_superoperator(c) + 1e-3 * rng.standard_normal((6**4, 36))
    assert _peak(lambda: extract(sup, 6)) < 1.5 * sup.nbytes


def test_covariance_residual_multi_cases():
    rng = np.random.default_rng(35)
    for m, d in ((2, 3), (3, 2)):
        lam = rng.standard_normal((len(enumerate_permutations(m)), m + 1))
        mc = MultiCopyCoefficients(m, d, lam.astype(complex))
        res = covariance_residual_multi(realize_multi_superoperator(mc), m, d, samples=5, seed=2)
        assert res < 1e-10
    # classical copy at m=2: pinch then doubled diagonal, not covariant
    d = 2
    sup = np.zeros((16, 4), dtype=complex)
    for i in range(d):
        for j in range(d):
            x = matrix_unit(i + 1, j + 1, d)
            pinched = np.diag(np.diag(x))
            y = np.zeros((4, 4), dtype=complex)
            for k in range(d):
                y[k * d + k, k * d + k] = pinched[k, k]
            sup[:, j * d + i] = y.T.reshape(-1)
    assert covariance_residual_multi(sup, 2, 2, samples=5, seed=3) > 0.1
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the zero map takes the range guard, with no 0/0
        assert covariance_residual_multi(np.zeros((16, 4), dtype=complex), 2, 2, samples=3, seed=0) == 0.0
        assert covariance_residual_multi(np.zeros((64, 4), dtype=complex), 3, 2, samples=3) == 0.0


def test_gram_matrix_matches_cycle_count_formula():
    for m, d in ((2, 2), (3, 2), (3, 3), (4, 2)):
        perms = enumerate_permutations(m)
        for s in perms:
            gs = permutation_operator(s, d)
            for t in perms:
                gt = permutation_operator(t, d)
                expected = float(d ** (s.inverse() * t).cycle_count())
                assert abs(hs_inner(gs, gt) - expected) < 1e-10


def test_representation_property_s3_s4_at_d2():
    for m in (3, 4):
        perms = enumerate_permutations(m)
        mats = {p.image: permutation_operator(p, 2) for p in perms}
        for p, q in itertools.product(perms, perms):
            prod = p * q
            assert np.abs(mats[p.image] @ mats[q.image] - mats[prod.image]).max() < 1e-12


def test_schur_weyl_fit_basis_element_d3():
    t = permutation_operator(Permutation((2, 3, 1)), 3)
    fit = schur_weyl_fit(t, 3, 3)
    assert not fit.degenerate
    assert fit.residual < 1e-12
    images = [p.image for p in enumerate_permutations(3)]
    expected = np.zeros(6, dtype=complex)
    expected[images.index((2, 3, 1))] = 1.0
    assert np.abs(fit.coefficients - expected).max() < 1e-12


def test_schur_weyl_fit_degenerate_least_norm_at_d2():
    # at d=2 the six operators obey one sign relation, so the solution set
    # is a line; the reported point is the least-norm member, which spreads
    # 1/6 of the sign vector away from the plain unit vector
    t = permutation_operator(Permutation((2, 3, 1)), 2)
    fit = schur_weyl_fit(t, 3, 2)
    assert fit.degenerate
    assert fit.residual < 1e-12
    perms = enumerate_permutations(3)
    signs = np.array([(-1) ** (3 - p.cycle_count()) for p in perms], dtype=float)
    expected = np.zeros(6)
    idx = [p.image for p in perms].index((2, 3, 1))
    expected[idx] = 1.0
    expected = expected - (signs[idx] / 6.0) * signs
    assert np.abs(fit.coefficients - expected).max() < 1e-12
    realized = sum(
        fit.coefficients[i] * permutation_operator(perms[i], 2) for i in range(6)
    )
    assert np.abs(realized - t).max() < 1e-12


def test_schur_weyl_sign_relation_at_d2():
    perms = enumerate_permutations(3)
    total = sum(
        ((-1) ** (3 - p.cycle_count())) * permutation_operator(p, 2) for p in perms
    )
    assert np.abs(total).max() < 1e-14


def test_schur_weyl_fit_matches_commutant_fit_at_m2():
    rng = np.random.default_rng(36)
    d = 3
    t = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    fit = schur_weyl_fit(t, 2, d)
    alpha, beta, res = commutant_fit(t, d)
    images = [p.image for p in enumerate_permutations(2)]
    assert abs(fit.coefficients[images.index((1, 2))] - alpha) < 1e-10
    assert abs(fit.coefficients[images.index((2, 1))] - beta) < 1e-10
    assert fit.residual == pytest.approx(res, abs=1e-10)


def test_twirled_operator_approaches_commutant_span():
    rng = np.random.default_rng(37)
    t = rng.standard_normal((27, 27)) + 1j * rng.standard_normal((27, 27))
    t = t / np.linalg.norm(t)
    base = schur_weyl_fit(t, 3, 3).residual
    r200 = schur_weyl_fit(twirl_operator(t, 3, 3, samples=200, seed=4), 3, 3).residual
    r2000 = schur_weyl_fit(twirl_operator(t, 3, 3, samples=2000, seed=4), 3, 3).residual
    assert r200 < base
    assert r2000 < r200
    assert r2000 < 5e-2


def test_virtual_broadcaster_through_multicopy_path():
    c = virtual_broadcast_coefficients(3)
    sup = realize_superoperator(c)
    got, res = extract_multi(sup, 2, 3)
    assert res < 1e-12
    back = to_two_copy(got)
    assert np.abs(back.as_array() - c.as_array()).max() < 1e-12


# Loop references for the index-arithmetic kernel: the benchmark shapes,
# plus d = 2 for every m.
KERNEL_SHAPES = [(2, 3), (2, 6), (3, 4), (3, 5), (3, 6), (4, 3), (4, 4), (2, 2), (3, 2), (4, 2)]


def _digit_loop_forward(p, d):
    """forward[flat] = flat index of the basis tensor p moves e_flat to."""
    m = p.m
    inv = p.inverse().image
    forward = np.empty(d**m, dtype=np.intp)
    for flat in range(d**m):
        digits = list(np.unravel_index(flat, (d,) * m))
        out = 0
        for t in range(m):
            out = out * d + int(digits[inv[t] - 1])
        forward[flat] = out
    return forward


def _digit_loop_permutation(p, d):
    g = np.zeros((d**p.m, d**p.m), dtype=np.complex128)
    g[_digit_loop_forward(p, d), np.arange(d**p.m)] = 1.0
    return g


def _loop_apply(mc, x):
    """The image as a sum of permuted dense slot embeddings."""
    m, d = mc.m, mc.d
    rows = [np.argsort(_digit_loop_forward(p, d)) for p in enumerate_permutations(m)]
    embeddings = [slot_embedding(j, x, m, d) for j in range(1, m + 2)]
    img = np.zeros((d**m, d**m), dtype=np.complex128)
    for i, r in enumerate(rows):
        inner = np.zeros_like(img)
        for j in range(m + 1):
            if mc.lam[i, j] != 0:
                inner += mc.lam[i, j] * embeddings[j]
        img += inner[r]
    return img


def _per_column_realize(mc):
    """Each column is the dense image of one matrix unit."""
    d = mc.d
    units = np.eye(d * d, dtype=np.complex128)
    return np.stack([vec(_loop_apply(mc, unvec(e, d))) for e in units], axis=1)


def _dense_gram_fit(t, m, d):
    gammas = [_digit_loop_permutation(p, d) for p in enumerate_permutations(m)]
    gram = np.array([[np.vdot(g, h) for h in gammas] for g in gammas])
    rhs = np.array([np.vdot(g, t) for g in gammas])
    coeffs = np.linalg.pinv(gram, hermitian=True) @ rhs
    return coeffs, np.linalg.norm(t - sum(c * g for c, g in zip(coeffs, gammas)))


def _loop_defect(sup, m, d, samples, seed):
    worst = 0.0
    for k in range(samples):
        u = haar_unitary(d, seed, k)
        w = reduce(np.kron, [u] * m)
        for a in range(1, d + 1):
            for b in range(1, d + 1):
                x = matrix_unit(a, b, d)
                lhs = unvec(sup @ vec(u @ x @ u.conj().T), d**m)
                rhs = w @ unvec(sup @ vec(x), d**m) @ w.conj().T
                worst = max(worst, np.linalg.norm(lhs - rhs, 2))
    return worst


@pytest.mark.parametrize("m,d", KERNEL_SHAPES)
def test_kernel_matches_loop_references(m, d):
    rng = np.random.default_rng(100 + 10 * m + d)
    perms = enumerate_permutations(m)
    for p in perms:
        assert permutation_operator(p, d).tobytes() == _digit_loop_permutation(p, d).tobytes()
    lam = rng.standard_normal((len(perms), m + 1)) + 1j * rng.standard_normal((len(perms), m + 1))
    lam[rng.random(lam.shape) < 0.2] = 0.0
    mc = MultiCopyCoefficients(m, d, lam)
    sup = realize_multi_superoperator(mc)
    assert sup.tobytes() == _per_column_realize(mc).tobytes()
    t = rng.standard_normal((d**m, d**m)) + 1j * rng.standard_normal((d**m, d**m))
    fit = schur_weyl_fit(t, m, d)
    coeffs, residual = _dense_gram_fit(t, m, d)
    assert np.abs(fit.coefficients - coeffs).max() < 1e-12
    assert fit.residual == pytest.approx(residual, rel=1e-12)
    assert fit.degenerate == (d < m)
    if d**m <= 125:
        noisy = sup + 1e-3 * rng.standard_normal(sup.shape)
        got = covariance_residual_multi(noisy, m, d, samples=2, seed=5)
        assert got == pytest.approx(_loop_defect(noisy, m, d, 2, 5), rel=1e-12)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    x[rng.random(x.shape) < 0.3] = 0.0
    image = apply_multi(mc, x)
    assert image.flags.c_contiguous
    assert image.tobytes() == _loop_apply(mc, x).tobytes()


@pytest.mark.parametrize("m,d", KERNEL_SHAPES)
def test_apply_multi_weights_only_the_entries_each_generator_reaches(m, d):
    # The trace reaches the d^m diagonal entries, a slot d^(m+1): the
    # diagonal and the entries that differ from it in that slot only.
    reach, target = _gather(m, d)
    sizes = [sum(span.stop - span.start for span, _ in spans) for spans in reach]
    assert sizes == [d**m] + [d ** (m + 1)] * m
    assert target.shape[1] == d**m * (1 + m * (d - 1))
    for spans in reach:
        for span, source in spans:
            assert len(source) == span.stop - span.start


def test_apply_multi_at_the_size_cap_realizes_nothing():
    # The realized superoperator alone would take 268 MB at (m, d) = (2, 16).
    rng = np.random.default_rng(16)
    mc = MultiCopyCoefficients(2, 16, rng.standard_normal((2, 3)))
    x = rng.standard_normal((16, 16))
    tracemalloc.start()
    try:
        image = apply_multi(mc, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert image.tobytes() == _loop_apply(mc, x).tobytes()


def _images(cols, m, d):
    """The d^2 unit images of a superoperator into m copies, stacked."""
    return cols.T.reshape(d * d, d**m, d**m).transpose(0, 2, 1)


def _kron_defects(sup, u, m, d):
    """F(U E_ab U^dag) - W F(E_ab) W^dag for every matrix unit, with W = U^(x m) built by kron."""
    w = reduce(np.kron, [u] * m)
    return _images(sup @ np.kron(u.conj(), u), m, d) - w @ _images(sup, m, d) @ w.conj().T


def _kernel_defects(sup, u, m, d):
    """The same defects conjugated back, W^dag F(U E_ab U^dag) W - F(E_ab), by the kernel."""
    return _images(_conjugate(sup, _superoperator_pairs(u, m))[0] - sup, m, d)


def _stacked_defect(sup, m, d, samples, seed, norms, defects=_kernel_defects):
    """The covariance defect with norms() of each sampled unitary's whole stack of unit defects."""
    worst = 0.0
    for k in range(samples):
        worst = max(worst, float(norms(defects(sup, haar_unitary(d, seed, k), m, d)).max()))
    return worst


def _stacked_svd_norms(defects):
    return np.linalg.norm(defects, 2, axis=(1, 2))


# The covres shapes of the benchmark, plus m = 2 at d = 3..5.
@pytest.mark.parametrize("m,d", [(2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (4, 3)])
def test_covariance_defect_matches_the_stacked_svd(m, d):
    rng = np.random.default_rng(500 + 10 * m + d)
    lam = rng.standard_normal((math.factorial(m), m + 1)) + 0j
    sup = realize_multi_superoperator(MultiCopyCoefficients(m, d, lam))
    for noisy in (sup + 1e-3 * rng.standard_normal(sup.shape), rng.standard_normal(sup.shape)):
        got = covariance_residual_multi(noisy, m, d, samples=2, seed=4)
        want = _stacked_defect(noisy, m, d, 2, 4, _stacked_svd_norms, _kron_defects)
        assert got == pytest.approx(want, rel=1e-12)


def _hermiticity_preserving(sup, m, d):
    """X -> F(X) + F(X^dag)^dag, whose defect at E_ba is the adjoint of the one at E_ab."""
    dim = d**m
    out = np.empty_like(sup)
    for a in range(d):
        for b in range(d):
            image = unvec(sup[:, b * d + a], dim) + unvec(sup[:, a * d + b], dim).conj().T
            out[:, b * d + a] = vec(image)
    return out


def _defect_input(kind, m, d, rng):
    shape = (math.factorial(m), m + 1)
    lam = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    sup = realize_multi_superoperator(MultiCopyCoefficients(m, d, lam))
    noise = rng.standard_normal(sup.shape) + 1j * rng.standard_normal(sup.shape)
    if kind == "covariant":
        return sup
    if kind == "noisy":
        return sup + 1e-2 * noise
    return _hermiticity_preserving(sup + 1e-2 * noise, m, d)


# Bit for bit against every Gram spectrum solved: the Cholesky tests only skip spectra.
@pytest.mark.parametrize("m,d", [(2, 2), (2, 3), (2, 5), (2, 6), (3, 2), (3, 4), (4, 3)])
@pytest.mark.parametrize("kind", ["covariant", "noisy", "hermiticity-preserving"])
def test_covariance_defect_is_the_full_spectrum_max(m, d, kind):
    rng = np.random.default_rng(600 + 10 * m + d)
    sup = _defect_input(kind, m, d, rng)
    got = covariance_residual_multi(sup, m, d, samples=3, seed=9)
    assert got == _stacked_defect(sup, m, d, 3, 9, _top_singular_values)
    if m == 2:
        assert covariance_deviation(sup, d, 3, 9) == got


def test_covariance_defect_past_one_block_of_unitaries():
    rng = np.random.default_rng(41)
    for kind in ("noisy", "hermiticity-preserving"):
        sup = _defect_input(kind, 2, 2, rng)
        samples = _BLOCK + 6
        want = _stacked_defect(sup, 2, 2, samples, 3, _top_singular_values)
        assert covariance_residual_multi(sup, 2, 2, samples, 3) == want


def _defect_peak(sup, m, d, samples):
    covariance_residual_multi(sup, m, d, samples=1, seed=0)  # index caches and BLAS buffers
    tracemalloc.start()
    try:
        covariance_residual_multi(sup, m, d, samples=samples, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_covariance_defect_memory_is_near_input_size_and_flat_in_samples():
    # Conjugates are stacked across unitaries, at most 256 KB per stack unless
    # one conjugate is larger, and the defects are formed in their memory.
    rng = np.random.default_rng(44)
    sup = rng.standard_normal((4**8, 16)) + 1j * rng.standard_normal((4**8, 16))
    assert _defect_peak(sup, 4, 4, 1) < 4 * sup.nbytes
    sup = rng.standard_normal((81, 9)) + 1j * rng.standard_normal((81, 9))
    assert _defect_peak(sup, 2, 3, 500) < 1.1 * _defect_peak(sup, 2, 3, 50)


# Unscaled, the Gram matrices of the unit defects would underflow at 2**-500
# and overflow past 2**511; scaled into range, the defect is the plain one
# shifted, bit for bit.
@pytest.mark.parametrize("exponent", [-500, 500, 520, 1000])
def test_covariance_defect_out_of_the_gram_range(exponent):
    for m, d in [(2, 3), (3, 3)]:
        rng = np.random.default_rng(42)
        plain_sup = _defect_input("noisy", m, d, rng)
        sup = plain_sup * 2.0**exponent  # exact
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = covariance_residual_multi(sup, m, d, samples=2, seed=1)
        plain = covariance_residual_multi(plain_sup, m, d, samples=2, seed=1)
        assert plain == _stacked_defect(plain_sup, m, d, 2, 1, _top_singular_values)
        assert got == math.ldexp(plain, exponent)
        if m == 2:
            assert covariance_deviation(sup, d, 2, 1) == got


@pytest.mark.parametrize("exponent", [300, 380])
def test_covariance_defect_ranks_its_stack_at_every_scale(monkeypatch, exponent):
    # Unscaled, tr(G^2) of _weighted_means overflowed past entries of 2**256,
    # every estimate tied at inf and the Cholesky order was lost.
    rng = np.random.default_rng(45)
    sup = _defect_input("noisy", 3, 4, rng)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
    want = covariance_residual_multi(sup, 3, 4, samples=2, seed=2)
    solves = len(calls)
    calls.clear()
    got = covariance_residual_multi(sup * 2.0**exponent, 3, 4, samples=2, seed=2)
    assert len(calls) == solves
    assert got == math.ldexp(want, exponent)


@pytest.mark.parametrize("m,d", KERNEL_SHAPES)
def test_generator_positions_meet_the_span_fit_order(m, d):
    # _span_fit counts shared ones column by column, which is exact when a
    # position recurs only in one column and never twice in one generator.
    hits, flat = _scatter(m, d)
    positions = np.stack([flat[i, hits[:, j]] for i in range(len(flat)) for j in range(m + 1)])
    support, inverse = np.unique(positions, return_inverse=True)
    column = np.broadcast_to(np.arange(positions.shape[1]), positions.shape)
    seen = np.empty(support.size, dtype=np.intp)
    seen[inverse.reshape(-1)] = column.reshape(-1)
    assert np.array_equal(seen[inverse.reshape(positions.shape)], column)
    assert all(np.unique(row).size == row.size for row in positions)


def _recounted_span_fit(target, positions):
    """Least squares over basis elements of ones with the Gram matrix counted afresh."""
    gram = (positions[:, None, :] == positions[None, :, :]).sum(axis=2)
    rhs = target[positions].sum(axis=1)
    if np.linalg.matrix_rank(gram, hermitian=True) < len(positions):
        return np.linalg.pinv(gram, hermitian=True) @ rhs
    return np.linalg.solve(gram, rhs)


@pytest.mark.parametrize("m,d", [(2, 2), (2, 3), (3, 2), (3, 4), (4, 2), (4, 3), (4, 4)])
def test_cached_span_fits_have_the_bits_of_a_recounted_gram(m, d):
    # The Gram matrix is an exact count, so counting it once per (m, d)
    # keeps every weight's bits, degenerate spans (m > d) included.
    rng = np.random.default_rng(500 + 10 * m + d)
    t = rng.standard_normal((d**m, d**m)) + 1j * rng.standard_normal((d**m, d**m))
    positions = np.arange(d**m) * d**m + _rows(m, d)
    fit = schur_weyl_fit(t, m, d)
    assert fit.coefficients.tobytes() == _recounted_span_fit(t.reshape(-1), positions).tobytes()
    assert fit.degenerate == (m > d)
    if m == 2:
        sup = rng.standard_normal((d**4, d * d)) + 1j * rng.standard_normal((d**4, d * d))
        hits, flat = _scatter(2, d)
        table = zip(*np.unravel_index(_UNTABLE, _TABLE.shape))
        generators = np.stack([flat[i, hits[:, j]] for i, j in table])
        want = _recounted_span_fit(sup.reshape(-1), generators)
        want = gauge_reduce(CovariantCoefficients(d, tuple(want))).as_array()
        assert fit_coefficients(sup, d)[0].as_array().tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [2, 3, 5, 8])
def test_two_copy_defect_is_the_m2_view(d):
    rng = np.random.default_rng(200 + d)
    sup = rng.standard_normal((d**4, d**2)) + 1j * rng.standard_normal((d**4, d**2))
    assert covariance_deviation(sup, d, 3, 7) == covariance_residual_multi(sup, 2, d, 3, 7)


@pytest.mark.parametrize(
    "m,d,samples",
    [(2, 2, 70), (2, 3, 70), (3, 3, 40), (3, 4, 20), (4, 3, 5), (2, 6, 15)]
    + [(3, 3, 21), (3, 3, 22), (3, 3, 23), (3, 3, 64), (3, 3, 65), (1, 3, 30)],
)
def test_twirl_operator_matches_kron_sandwich_reference(m, d, samples):
    # The Kronecker sandwich the digit-axis kernel replaced; the sample
    # counts cross the block boundaries of the Haar average.  At (3, 3) a
    # stack of 22 samples is summed in the last pair's GEMM: one short
    # stack, one full, one full plus one, a whole block of unitaries and one
    # past it.  At m = 1 that GEMM is the only pair.
    rng = np.random.default_rng(300 + 10 * m + d)
    t = rng.standard_normal((d**m, d**m)) + 1j * rng.standard_normal((d**m, d**m))
    ref = np.zeros_like(t)
    for k in range(samples):
        um = reduce(np.kron, [haar_unitary(d, 8, k)] * m)
        ref += um @ t @ um.conj().T
    got = twirl_operator(t, m, d, samples=samples, seed=8)
    assert np.abs(got - ref / samples).max() <= 1e-13 * np.abs(t).max()


@pytest.mark.parametrize("m,d", [(1, 3), (2, 3), (3, 3), (3, 4), (2, 6), (4, 3)])
def test_twirl_operator_of_a_hermitian_operator_is_exactly_hermitian(m, d):
    # A Hermitian t has adjoint-basis coordinates with an imaginary plane
    # that is zero, and the real pairs keep it zero.
    rng = np.random.default_rng(400 + 10 * m + d)
    a = rng.standard_normal((d**m, d**m)) + 1j * rng.standard_normal((d**m, d**m))
    avg = twirl_operator(a + a.conj().T, m, d, samples=30, seed=5)
    assert np.array_equal(avg, avg.conj().T)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_adjoint_pair_is_the_real_orthogonal_conjugation(d):
    to_c, to_x, _ = _adjoint_basis(d)
    us = np.stack([haar_unitary(d, 9, k) for k in range(3)])
    ad = _adjoint(us)
    assert ad.dtype == np.float64
    rng = np.random.default_rng(500 + d)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    c = _read(x.reshape(-1), to_c, [0])
    assert np.abs(_read(c, to_x, [0]).reshape(d, d) - x).max() <= 1e-15 * np.abs(x).max()
    for u, a in zip(us, ad):
        assert np.abs(a @ a.T - np.eye(d * d)).max() <= 1e-14
        assert np.abs(a @ c - _read((u @ x @ u.conj().T).reshape(-1), to_c, [0])).max() <= 1e-14 * np.abs(x).max()


def _operator_twirl_peak(t, m, d, samples):
    twirl_operator(t, m, d, samples=1, seed=0)  # BLAS buffers
    tracemalloc.start()
    try:
        twirl_operator(t, m, d, samples=samples, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_twirl_operator_memory_is_flat_in_samples():
    # Each stack of conjugates is summed into the average as it is formed.
    rng = np.random.default_rng(45)
    t = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    assert _operator_twirl_peak(t, 3, 4, 400) < 1.1 * _operator_twirl_peak(t, 3, 4, 50)


def test_twirl_operator_refuses_sample_count_beyond_substream_range():
    with pytest.raises(ValueError, match="2\\*\\*40"):
        twirl_operator(np.eye(8, dtype=complex), 3, 2, samples=2**40 + 1)
    with pytest.raises(ValueError, match="2\\*\\*40"):
        covariance_residual_multi(np.zeros((81, 9), dtype=complex), 2, 3, samples=2**40 + 1)
