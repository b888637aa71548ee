import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covmap.linalg
from covmap.linalg import (
    _REAL_GRAM_ENTRIES,
    DimensionError,
    _gram,
    _largest_singular_value,
    _range_exponent,
    _scaled,
    _top_singular_values,
    NotHermitianError,
    Tolerance,
    frobenius_norm,
    hermitian_eigenvalues,
    hs_inner,
    is_psd,
    kron,
    map_to_superoperator,
    operator_norm,
    partial_trace,
    unvec,
    vec,
)
from covmap.operators import haar_unitary, matrix_unit, swap_operator
from covmap.twocopy import extract, realize_superoperator, virtual_broadcast_coefficients


def _rand(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def test_kron_matrix_unit_identity():
    got = kron(matrix_unit(1, 1, 2), np.eye(2))
    assert np.array_equal(got, np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex))


def test_kron_entrywise_definition():
    rng = np.random.default_rng(0)
    a = _rand(rng, 2, 3)
    b = _rand(rng, 3, 2)
    got = kron(a, b)
    for i in range(2):
        for j in range(3):
            for k in range(3):
                for l in range(2):
                    assert abs(got[i * 3 + k, j * 2 + l] - a[i, j] * b[k, l]) < 1e-12


def test_kron_mixed_product():
    rng = np.random.default_rng(1)
    a, b, c, d = (_rand(rng, 3) for _ in range(4))
    lhs = kron(a, b) @ kron(c, d)
    rhs = kron(a @ c, b @ d)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_partial_trace_product_operator():
    rng = np.random.default_rng(2)
    a = _rand(rng, 2)
    b = _rand(rng, 2)
    t = kron(a, b)
    assert np.abs(partial_trace(t, 2, 2, side="second") - np.trace(b) * a).max() < 1e-12
    assert np.abs(partial_trace(t, 2, 2, side="first") - np.trace(a) * b).max() < 1e-12


def test_partial_trace_swap_gives_identity():
    # both reductions of the swap are the identity
    for d in (2, 3):
        s = swap_operator(d)
        assert np.abs(partial_trace(s, d, d, side="first") - np.eye(d)).max() < 1e-12
        assert np.abs(partial_trace(s, d, d, side="second") - np.eye(d)).max() < 1e-12


def test_partial_trace_preserves_total_trace():
    rng = np.random.default_rng(3)
    t = _rand(rng, 6)
    for side, keep in (("first", 3), ("second", 2)):
        red = partial_trace(t, 2, 3, side=side)
        assert red.shape == (keep, keep)
        assert abs(np.trace(red) - np.trace(t)) < 1e-12


def test_partial_trace_rejects_mismatch():
    with pytest.raises(DimensionError):
        partial_trace(np.eye(6), 2, 2)
    with pytest.raises(ValueError):
        partial_trace(np.eye(4), 2, 2, side="third")


def test_hermitian_eigenvalues_sorted_diag():
    got = hermitian_eigenvalues(np.diag([3.0, -1.0, 0.0]))
    assert np.allclose(got, [-1.0, 0.0, 3.0])


def test_hermitian_eigenvalues_symmetrized_broadcaster_image():
    # image of e1 e1* under the (0,0,1/2,1/2,0,0) map, built by hand
    e = matrix_unit(1, 1, 2)
    s = swap_operator(2)
    y = 0.5 * (s @ kron(np.eye(2), e) + s @ kron(e, np.eye(2)))
    assert np.allclose(hermitian_eigenvalues(y), [-0.5, 0.0, 0.5, 1.0], atol=1e-12)


def test_hermitian_eigenvalues_sum_equals_trace():
    rng = np.random.default_rng(4)
    a = _rand(rng, 16)
    h = (a + a.conj().T) / 2
    ev = hermitian_eigenvalues(h)
    assert np.all(np.diff(ev) >= 0)
    assert abs(ev.sum() - np.trace(h).real) < 1e-10 * max(1.0, abs(np.trace(h)))


def test_hermitian_eigenvalues_accuracy_on_known_spectrum():
    eigs = np.linspace(-3.0, 5.0, 16)
    v = haar_unitary(16, seed=9)
    h = v @ np.diag(eigs) @ v.conj().T
    got = hermitian_eigenvalues(h)
    assert np.abs(got - eigs).max() < 1e-12 * np.abs(eigs).max()


def test_hermitian_eigenvalues_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))
    # loose tolerance lets a small perturbation through
    a = np.eye(2) + 1e-6 * np.array([[0, 1], [0, 0]])
    with pytest.raises(NotHermitianError):
        hermitian_eigenvalues(a)
    hermitian_eigenvalues(a, tol=Tolerance(abs=1e-5, rel=0.0))


@pytest.mark.parametrize("part", ["abs", "rel"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), -1e-9, 10**400])
def test_tolerance_refuses_non_finite_or_negative_parts(part, value):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        Tolerance(**{part: value})


def test_operator_norm_examples():
    assert operator_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)
    s = swap_operator(2)
    assert operator_norm(2 * np.eye(4) + 2 * s) == pytest.approx(4.0, abs=1e-12)
    u = haar_unitary(5, seed=3)
    assert operator_norm(u) == pytest.approx(1.0, abs=1e-12)


def test_operator_norm_unitary_invariance():
    rng = np.random.default_rng(5)
    a = _rand(rng, 4)
    u = haar_unitary(4, seed=6)
    assert operator_norm(u @ a) == pytest.approx(operator_norm(a), rel=1e-12)
    assert operator_norm(a.conj().T) == pytest.approx(operator_norm(a), rel=1e-12)


EPS = np.finfo(float).eps


def _svd_norms(a):
    return np.linalg.norm(a, 2, axis=(-2, -1))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(1, 3), max_size=2),
    st.integers(1, 12),
    st.integers(1, 12),
    st.sampled_from(["complex", "real", "rank-1"]),
    st.integers(0, 2**31 - 1),
)
def test_top_singular_values_match_the_svd(stack, p, q, kind, seed):
    # Tall, wide, square and stacked inputs, at the tolerance the Gram route
    # is held to: 16 eps relative to the SVD.
    rng = np.random.default_rng(seed)
    shape = (*stack, p, q)
    a = rng.standard_normal(shape) + (0 if kind == "real" else 1j * rng.standard_normal(shape))
    if kind == "rank-1":
        a = a[..., :1] * rng.standard_normal(q)
    got = _top_singular_values(a)
    assert got.shape == tuple(stack)
    assert np.all(np.abs(got - _svd_norms(a)) <= 16 * EPS * _svd_norms(a))
    if not stack:
        assert abs(operator_norm(a) - np.linalg.norm(a, 2)) <= 16 * EPS * np.linalg.norm(a, 2)


@pytest.mark.parametrize("m,d", [(2, 3), (2, 6), (3, 4), (3, 5), (3, 6), (4, 3), (4, 4)])
def test_operator_norm_on_residual_shapes(m, d):
    rng = np.random.default_rng(10 * m + d)
    a = _rand(rng, d ** (2 * m), d * d)
    assert abs(operator_norm(a) - np.linalg.norm(a, 2)) <= 16 * EPS * np.linalg.norm(a, 2)


def test_tall_gram_is_the_complex_product_and_exactly_hermitian():
    # Shapes past the real-route rule: 625 x 25 just past it, then the
    # (m, d) = (2, 6) and (3, 4) residual shapes.
    rng = np.random.default_rng(15)
    for p, q in [(625, 25), (1296, 36), (4096, 16)]:
        assert p >= 4 * q and p * q >= _REAL_GRAM_ENTRIES
        a = _rand(rng, p, q)
        got = _gram(a)
        want = a.conj().T @ a
        assert got.dtype == np.complex128 and got.shape == (q, q)
        assert np.array_equal(got, got.conj().T)
        assert np.abs(got - want).max() <= 16 * EPS * np.abs(want).max()


@pytest.mark.parametrize("p,q", [(625, 25), (1296, 36), (4096, 16)])
def test_top_singular_values_of_tall_inputs_in_every_layout(p, q):
    # Only a C-contiguous complex128 matrix can be read as real pairs; the
    # others take the complex product.  At 2**-500 the kernel redoes the
    # matrix rescaled, which takes the real product again; operator_norm
    # scales every input into range first.
    rng = np.random.default_rng(p + q)
    a = _rand(rng, 2 * p, 2 * q)
    inputs = {
        "c-contiguous": a[:p, :q].copy(),
        "real": a.real[:p, :q].copy(),
        "fortran": np.asfortranarray(a[:p, :q]),
        "row-strided": a[::2, :q],
        "column-strided": a[:p, ::2],
        "2**-500": a[:p, :q] * 2.0**-500,  # exact
        "2**500": a[:p, :q] * 2.0**500,
    }
    for name, x in inputs.items():
        want = np.linalg.norm(x, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = [_top_singular_values(x), operator_norm(x)]
        assert np.all(np.abs(np.subtract(got, want)) <= 16 * EPS * want), name


def test_top_singular_values_of_zero_are_exactly_zero():
    assert operator_norm(np.zeros((5, 3))) == 0.0
    got = _top_singular_values(np.zeros((2, 4, 4), dtype=complex))
    assert np.array_equal(got, [0.0, 0.0]) and not np.signbit(got).any()


@pytest.mark.parametrize("bad", [np.inf, -np.inf * 1j, np.nan])
def test_non_finite_entries_are_refused_as_an_overflow(bad):
    a = np.eye(3, dtype=complex)
    a[1, 2] = bad
    for norm in (operator_norm, frobenius_norm, _range_exponent):
        with pytest.raises(ValueError, match="^a value overflows the double range$"):
            norm(a)


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_operator_norm_keeps_the_svd_range(scale):
    # An unscaled Gram matrix would underflow to 0 at 1e-200 and overflow at
    # 1e+200; exact power-of-two scaling keeps the SVD's answer.
    rng = np.random.default_rng(8)
    for a in (_rand(rng, 9, 4) * scale, *rng.standard_normal((3, 6, 6)) * scale):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = operator_norm(a)
        ref = np.linalg.norm(a, 2)
        assert abs(got - ref) <= 16 * EPS * ref
    a = np.diag([3.0, -4.0]) * scale
    assert operator_norm(a) == pytest.approx(np.linalg.norm(a, 2), rel=16 * EPS)


def test_in_range_matrices_get_the_plain_gram_bits():
    # The kernel rescales only after a top eigenvalue falls below the safe
    # range, and then leaves every in-range matrix of the stack as it is;
    # operator_norm's range scaling keeps the plain bits, shifted.
    rng = np.random.default_rng(9)
    a = _rand(rng, 9, 4)
    plain = np.sqrt(np.linalg.eigvalsh(a.conj().T @ a)[-1])
    assert _top_singular_values(a) == plain
    got = _top_singular_values(np.stack([a, a * 1e-200]))
    assert got[0] == plain
    assert abs(got[1] - plain * 1e-200) <= 16 * EPS * plain * 1e-200
    for k in (-1000, -600, 600, 1000):
        assert operator_norm(a * 2.0**k) == math.ldexp(plain, k)  # exact


@pytest.mark.parametrize("shift", [-540, -531, -500])
def test_a_residual_far_below_its_input_takes_the_rescue(shift):
    # A covariant map plus one entry about 2**shift below its peak, off the
    # realized support: the difference is formed in the input's range, where
    # its Gram matrix underflows, and the kernel's rescaling still returns the
    # entry's modulus exactly.
    sup = realize_superoperator(virtual_broadcast_coefficients(3))
    sup[1, 0] = math.ldexp(0.1, shift)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert extract(sup, 3)[1] == math.ldexp(0.1, shift)


def _full_spectrum_max(a, floor=0.0):
    """What _largest_singular_value must return, bit for bit: the max over every Gram spectrum."""
    return max(floor, float(_top_singular_values(a).max()))


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 12),
    st.integers(1, 12),
    st.integers(1, 12),
    st.sampled_from([0.0, 0.5, 0.999999, 1.0, 1.5]),
    st.integers(0, 2**31 - 1),
)
def test_largest_singular_value_is_the_full_spectrum_max(n, p, q, floor_share, seed):
    # Floors below, at and above the maximum, on tall, wide and square stacks.
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, p, q)) + 1j * rng.standard_normal((n, p, q))
    floor = floor_share * float(_top_singular_values(a).max())
    assert _largest_singular_value(a, floor) == _full_spectrum_max(a, floor)


def test_largest_singular_value_on_exact_ties():
    # a^dag has the Gram spectrum of a on the other side; copies tie exactly.
    rng = np.random.default_rng(12)
    a = _rand(rng, 7)
    b = _rand(rng, 7) * 0.5
    for stack in ([a, a], [a, a.conj().T, b], [b, a, b, a.conj().T, a]):
        stack = np.stack(stack)
        assert _largest_singular_value(stack) == _full_spectrum_max(stack)
        floor = float(_top_singular_values(stack).max())
        assert _largest_singular_value(stack, floor) == floor


def test_largest_singular_value_certifies_instead_of_solving(monkeypatch):
    # One dominant matrix: it gets the only spectrum, the rest pass the Cholesky test.
    rng = np.random.default_rng(13)
    a = np.stack([_rand(rng, 16) * (3 if k == 5 else 1) for k in range(20)])
    want = _full_spectrum_max(a)
    solves = _count_calls(monkeypatch, np.linalg, "eigvalsh")
    assert _largest_singular_value(a) == want
    assert len(solves) == 1
    solves.clear()
    assert _largest_singular_value(a, 2 * want) == 2 * want
    assert not solves


def test_largest_singular_value_of_zero_is_zero_without_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _largest_singular_value(np.zeros((3, 4, 4), dtype=complex)) == 0.0
        assert _largest_singular_value(np.zeros((3, 4, 4), dtype=complex), 0.25) == 0.25


def _in_range(a):
    """a scaled into range by 2**-e, as the callers of the norm kernels scale it, and e."""
    e = _range_exponent(a)
    return _scaled(a, -e), e


@pytest.mark.parametrize("exponent", [-1000, -520, -500, 500, 520, 1000])
def test_largest_singular_value_out_of_range_takes_the_guard(monkeypatch, exponent):
    # 2**-500 underflows the Gram below the safe range and goes through the
    # rescaling of _top_singular_values.  Past 2**500 the kernel is never
    # called: the callers scale the stack into range, where no guard runs,
    # and the result is the plain one shifted, bit for bit.
    rng = np.random.default_rng(14)
    plain = rng.standard_normal((5, 6, 6)) + 1j * rng.standard_normal((5, 6, 6))
    a = plain * 2.0**exponent  # exact
    guarded = _count_calls(monkeypatch, covmap.linalg, "_top_singular_values")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        want = _largest_singular_value(plain)
        assert not guarded
        scaled, e = _in_range(a)
        assert _scaled(_largest_singular_value(scaled), e) == math.ldexp(want, exponent)
        assert not guarded
        if exponent < 0:
            assert _largest_singular_value(a) == _full_spectrum_max(a)
            assert len(guarded) == 1
    assert want == _full_spectrum_max(plain)
    assert want == pytest.approx(float(_svd_norms(plain).max()), rel=16 * EPS)


@pytest.mark.parametrize("exponent", [-1000, -520, 520, 1000])
def test_largest_singular_value_beside_one_out_of_range_matrix(exponent):
    # One matrix scaled far from the others, in every place, with floors
    # below, at and above the maximum; scaled into range as the callers
    # scale it, a large one leaves the others far below the safe range.
    rng = np.random.default_rng(16)
    plain = rng.standard_normal((4, 6, 6)) + 1j * rng.standard_normal((4, 6, 6))
    for k in range(len(plain)):
        stack = plain.copy()
        stack[k] *= 2.0**exponent  # exact
        stack = _in_range(stack)[0]
        top = _full_spectrum_max(stack)
        for floor in (0.0, 0.5 * top, top, 2 * top):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = _largest_singular_value(stack, floor)
            assert got == _full_spectrum_max(stack, floor)


def test_hs_inner_identity_and_swap():
    for d in (2, 3):
        s = swap_operator(d)
        assert hs_inner(np.eye(d * d), s) == pytest.approx(d)
        assert hs_inner(np.eye(d), np.eye(d)) == pytest.approx(d)
    with pytest.raises(DimensionError):
        hs_inner(np.eye(2), np.eye(3))


def test_hs_inner_conjugate_linearity():
    rng = np.random.default_rng(6)
    a, b = _rand(rng, 3), _rand(rng, 3)
    assert hs_inner(2j * a, b) == pytest.approx(-2j * hs_inner(a, b))
    assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))


def test_is_psd():
    assert is_psd(np.eye(4))
    assert is_psd(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert not is_psd(np.array([[0.0, 0.5], [0.5, 0.0]]))
    assert not is_psd(np.array([[1.0, 1.0], [0.0, 1.0]]))  # not hermitian
    assert is_psd(-1e-12 * np.eye(3), tol=Tolerance(abs=1e-9, rel=0.0))


def test_vec_column_stacking():
    x = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(vec(x), np.array([1, 3, 2, 4], dtype=complex))
    assert np.array_equal(unvec(vec(x), 2), x)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_vec_sandwich_identity(seed):
    rng = np.random.default_rng(seed)
    a, x, b = (_rand(rng, 3) for _ in range(3))
    assert np.abs(vec(a @ x @ b) - kron(b.T, a) @ vec(x)).max() < 1e-10


def test_map_to_superoperator_roundtrip():
    rng = np.random.default_rng(7)
    k1, k2 = _rand(rng, 3), _rand(rng, 3)
    f = lambda x: k1 @ x @ k1.conj().T + k2 @ x @ k2.conj().T
    m = map_to_superoperator(f, 3)
    x = _rand(rng, 3)
    assert np.abs(m @ vec(x) - vec(f(x))).max() < 1e-12
