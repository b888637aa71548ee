"""Power-of-two equivariance of every norm-valued kernel.

Each kernel scales its working array into range by 2**-e and its result
back by 2**e, so f(2**k F) == 2**k f(F) bit for bit wherever 2**k F is
exact, as it is when no entry is subnormal, and 2**k f(F) stays inside the
double range.  Otherwise it returns a finite result or refuses with the
one overflow message, and it never gives inf, NaN or a warning.  The
two-copy weights of classify, gauge_reduce, corner_coefficients and
cb_norm are read through one window (twocopy._in_window): as given
inside 2**+-508, moved to its nearer edge by a power of two outside it.
"""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covmap.classify import classify
from covmap.linalg import Tolerance, frobenius_norm, operator_norm
from covmap.multicopy import (
    MultiCopyCoefficients,
    covariance_residual_multi,
    extract_multi,
    realize_multi_superoperator,
    schur_weyl_fit,
)
from covmap.norms import _SIGNS, cb_norm, corner_coefficients
from covmap.twirl import covariance_deviation, twirl, twirl_operator
from covmap.twocopy import GAUGE_DIRECTION, CovariantCoefficients, extract, fit_coefficients, gauge_reduce, maps_equal

OVERFLOW = "^a value overflows the double range$"


def _noisy(m, d, seed):
    """A realized map into m copies plus 1e-2 noise: a defect and a residual both well above rounding."""
    rng = np.random.default_rng(seed)
    lam = rng.standard_normal((math.factorial(m), m + 1)) + 1j * rng.standard_normal((math.factorial(m), m + 1))
    sup = realize_multi_superoperator(MultiCopyCoefficients(m, d, lam))
    return sup + 1e-2 * (rng.standard_normal(sup.shape) + 1j * rng.standard_normal(sup.shape))


def _random(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _trace_free(d, seed):
    """Random weights without trace terms; at d = 2 up to the gauge, c6 = -c5."""
    w = _random(6, seed)
    w[4:] = (w[4], -w[4]) if d == 2 else 0
    return w


def _cb(f, d):
    """cb_norm's value and corner magnitudes for the weights f."""
    result = cb_norm(CovariantCoefficients(d, tuple(f)))
    return np.array([result.value, *result.detail["corner_magnitudes"]])


KERNELS = {
    "extract": (lambda f: extract(f, 3)[1], lambda: _noisy(2, 3, 1)),
    "fit_coefficients-d2": (lambda f: fit_coefficients(f, 2)[1], lambda: _noisy(2, 2, 2)),
    "fit_coefficients-d3": (lambda f: fit_coefficients(f, 3)[1], lambda: _noisy(2, 3, 3)),
    "extract_multi": (lambda f: extract_multi(f, 3, 4)[1], lambda: _noisy(3, 4, 4)),
    "covariance_deviation": (lambda f: covariance_deviation(f, 3, samples=2, seed=5), lambda: _noisy(2, 3, 5)),
    "covariance_residual_multi": (
        lambda f: covariance_residual_multi(f, 3, 3, samples=2, seed=6),
        lambda: _noisy(3, 3, 6),
    ),
    "twirl": (lambda f: twirl(f, 3, samples=3, seed=7, deviation_samples=1).averaged, lambda: _random((81, 9), 7)),
    "twirl_operator": (lambda f: twirl_operator(f, 2, 3, samples=3, seed=8), lambda: _random((9, 9), 8)),
    "schur_weyl_fit": (lambda f: schur_weyl_fit(f, 2, 3).residual, lambda: _random((9, 9), 9)),
    "schur_weyl_fit-degenerate": (lambda f: schur_weyl_fit(f, 3, 2).residual, lambda: _random((8, 8), 10)),
    "operator_norm": (operator_norm, lambda: _random((9, 4), 11)),
    "frobenius_norm": (frobenius_norm, lambda: _random((9, 4), 12)),
    "cb_norm-d2": (lambda f: _cb(f, 2), lambda: _trace_free(2, 13)),
    "cb_norm-d3": (lambda f: _cb(f, 3), lambda: _trace_free(3, 14)),
}


# cb_norm reads its weights through twocopy._in_window, which
# moves them up by at most 2**508: weights peaking below 2**-1016 keep
# subnormal squares there, so their bits are not promised.
WINDOWED = {"cb_norm-d2", "cb_norm-d3"}


def _below_the_window(a):
    peak = np.abs(np.ascontiguousarray(a).view(np.float64)).max()
    return math.frexp(peak)[1] < -1016


@functools.lru_cache(maxsize=None)
def _plain(name):
    """The kernel's input and its result at scale 1."""
    kernel, make = KERNELS[name]
    f = make()
    return f, kernel(f)


def _shifted(a, k):
    """2**k a, entry part by entry part: exact unless an entry leaves the normal range."""
    with np.errstate(over="ignore"):  # an inf entry is part of the case
        return np.ldexp(np.ascontiguousarray(a).view(np.float64), k).view(a.dtype)


def _overflows(result, k):
    """Whether 2**k result lies past the double range."""
    peak = np.abs(np.stack([np.real(result), np.imag(result)])).max()
    return peak > 0 and np.frexp(peak)[1] + k > 1024


@pytest.mark.parametrize("name", list(KERNELS))
@settings(max_examples=25, deadline=None)
@given(st.integers(-1100, 1100))
@example(-1000)
@example(1000)
@example(-1022)
@example(1021)
@example(1030)
def test_power_of_two_scaling_is_exact(name, k):
    kernel = KERNELS[name][0]
    f, plain = _plain(name)
    scaled = _shifted(f, k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if not np.isfinite(scaled).all() or _overflows(plain, k):
            with pytest.raises(ValueError, match=OVERFLOW):
                kernel(scaled)
            return
        exact = _shifted(scaled, -k).tobytes() == f.tobytes()  # no entry lost a bit
        exact = exact and not (name in WINDOWED and _below_the_window(scaled))
        if exact and -1000 <= k <= 1000:
            got = kernel(scaled)
        else:
            try:
                got = kernel(scaled)
            except ValueError as exc:  # past the range a part of the work may overflow
                assert str(exc) == "a value overflows the double range"
                return
    assert np.isfinite(got).all()
    if not exact:
        return
    if np.ndim(plain):
        assert got.tobytes() == _shifted(plain, k).tobytes()
    else:
        assert got == math.ldexp(plain, k)


def _weights_at(v, d, k):
    return CovariantCoefficients(d, tuple(np.ldexp(v.real, k) + 1j * np.ldexp(v.imag, k)))


def _classify_at(v, d, k, tol):
    """classify(2**k v), or None where it refuses a report value past the range."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return classify(_weights_at(v, d, k), tol)
        except ValueError as exc:  # a determinant witness past the range
            assert str(exc) == "a value overflows the double range"
            return None


VERDICTS = ("self_adjoint", "positive", "completely_positive", "broadcasting",
            "permutation_invariant", "classically_consistent", "virtual_broadcaster")


# At each edge of the window 2**+-508: weight parts peaking at 2**k lie inside
# it and are read as given, at 2**(k + step) they are moved to the edge first.
EDGES = {"top": (500, 20), "bottom": (-500, -20)}


def _edge_vectors(d, seed):
    """Generic, self-adjoint and trace-free self-adjoint weights, largest part in [1/2, 1)."""
    rng = np.random.default_rng(seed)
    for _ in range(20):
        w = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
        adjoint = np.array([w[0].real, w[1].real, w[2], np.conj(w[2]), w[4].real, w[5].real])
        for v in (w, adjoint, np.concatenate([adjoint[:4], [0, 0]])):
            yield v * (0.75 / np.abs(np.stack([v.real, v.imag])).max())


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_classify_keeps_its_bits_where_it_scales_the_weights(d):
    # At the top, far above the constants 1 and 1/2, a relative tolerance
    # makes every verdict and evidence value the power of two apart.  At the
    # bottom the constants dominate, so with a zero tolerance the verdicts and
    # evidence that read the weights alone are compared.  A determinant
    # witness is a square, two powers apart, and may pass the range at 2**520.
    for edge, (k, step) in EDGES.items():
        if edge == "top":
            tol, fields, keys = Tolerance(abs=0.0, rel=1e-9), VERDICTS, None
        else:
            tol, fields = Tolerance(0.0, 0.0), VERDICTS[:3]
            keys = ("self_adjoint_violation", "positivity_margin", "cp_witness", "cp_holds")
        for v in _edge_vectors(d, 90 + d):
            low, high = (_classify_at(v, d, e, tol) for e in (k, k + step))
            assert low is not None
            if high is None:
                assert math.frexp(low.evidence["cp_witness"])[1] + 2 * step > 1024
                continue
            assert [repr(getattr(high, f)) for f in fields] == [repr(getattr(low, f)) for f in fields]
            for key in keys or low.evidence:
                value = low.evidence[key]
                if isinstance(value, float):
                    powers = (step, 2 * step) if key == "cp_witness" else (step,)
                    assert high.evidence[key] in [math.ldexp(value, p) for p in powers], (edge, key)
                else:
                    assert repr(high.evidence[key]) == repr(value), (edge, key)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_cb_norm_keeps_its_bits_where_it_scales_the_weights(d):
    # The power-of-two sweep above runs cb_norm at d = 2 and 3; here every d
    # meets both window edges.  The witness is the same and every value
    # exactly the power of two apart.
    rng = np.random.default_rng(190 + d)
    for _ in range(20):
        w = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
        w[4:] = (w[4], -w[4]) if d == 2 else 0  # trace free; at d = 2 up to the gauge
        w *= 0.75 / np.abs(np.stack([w.real, w.imag])).max()
        for k, step in EDGES.values():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                low, high = (cb_norm(_weights_at(w, d, e)) for e in (k, k + step))
            assert high.value == math.ldexp(low.value, step)
            assert high.detail["witness_angle"] == low.detail["witness_angle"]
            assert high.detail["corner_magnitudes"] == [math.ldexp(v, step) for v in low.detail["corner_magnitudes"]]


def test_gauge_reduce_works_in_the_window():
    # 1e308 g is the gauge direction itself: its reduction is zero, where the
    # unscaled overlap 6e308 would overflow and give NaN.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gauge_reduce(CovariantCoefficients(2, tuple(1e308 * GAUGE_DIRECTION))).coeffs == (0j,) * 6
        # Inside the window the bits are the plain projection's; outside it the same bits times 2**k.
        for seed in range(20):
            w = _random(6, 300 + seed)
            plain = w - (np.vdot(GAUGE_DIRECTION, w) / 6.0) * GAUGE_DIRECTION
            for k in (0, -1000, -600, -500, 500, 600, 1000):
                got = gauge_reduce(_weights_at(w, 2, k)).as_array()
                assert got.tobytes() == _shifted(plain, k).tobytes(), k


@pytest.mark.parametrize("d, peak", [(2, 1.5e308), (3, 1e308), (5, 1e308)])
def test_maps_equal_reads_both_weights_in_one_window(d, peak):
    # Windowed one by one and scaled back, the gauge-reduced weights differ by
    # 2 peak (5/3 peak at d = 2) in the first place, past the double range.
    a, b = (CovariantCoefficients(d, (sign * peak, 0, 0, 0, 0, 0)) for sign in (1, -1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not maps_equal(a, b)
        assert not maps_equal(b, a)
        assert maps_equal(a, a) and maps_equal(b, b)


def test_max_magnitude_is_python_abs_and_inf_past_the_range():
    # Python's abs (libm hypot), which numpy's vectorised abs can miss by an ulp.
    rng = np.random.default_rng(90)
    for _ in range(200):
        w = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
        want = max(map(abs, w.ravel().tolist()))
        assert CovariantCoefficients(3, tuple(w.ravel())).max_magnitude() == want
        assert MultiCopyCoefficients(2, 3, w).max_magnitude() == want
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a magnitude past the range is inf, and a NaN part wins over it
        huge = 1.5e308 + 1.5e308j
        for weights, want in [((huge, 1, 0), math.inf), ((1, complex(0, math.nan), huge), math.nan)]:
            w = np.array([*weights, 0, 0, 0])
            assert repr(CovariantCoefficients(3, tuple(w)).max_magnitude()) == repr(want)
            assert repr(MultiCopyCoefficients(2, 3, w.reshape(2, 3)).max_magnitude()) == repr(want)


def test_corner_coefficients_are_formed_in_the_window():
    # m1 = m2 = m3 = 0 and m4 = 4e308, past the range: refused by name, with no NaN or warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=OVERFLOW):
            corner_coefficients(CovariantCoefficients(3, (1e308, 1e308, -1e308, -1e308, 0, 0)))
        for seed in range(20):
            w = _random(6, 400 + seed)
            plain = _SIGNS @ w[:4]
            for k in (0, -1000, -600, 600, 1000):
                got = np.array(corner_coefficients(_weights_at(w, 3, k)))
                assert got.tobytes() == _shifted(plain, k).tobytes(), k


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize(
    "weights",
    [
        (math.inf, 0.5, -math.inf, 0, 0, 0),
        (1, complex(0, -math.inf), 0, 0, 0, 0),
        (math.nan, 0, 0, 0, 0, 0),
        (1, 0, complex(0.5, math.nan), 0, 0, 0),
    ],
)
def test_corner_coefficients_refuse_inf_or_nan_weights(weights, d):
    # inf - inf in the corner sums would give NaN corners and a numpy warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=OVERFLOW):
            corner_coefficients(CovariantCoefficients(d, weights))


@pytest.mark.parametrize("s", [1e-160, 1e-200, 1e-300])
def test_cb_norm_of_tiny_weights_keeps_its_pair_terms(s):
    # Unscaled, the squares of the pair terms are subnormal or zero, and at
    # 1e-200 only the diagonal term 2.0616 s would remain.
    c = CovariantCoefficients(3, tuple(s * np.array([1, -1, 0.5j, 2, 0, 0])))
    assert cb_norm(c).value == pytest.approx(4.031128874149275 * s, rel=1e-15, abs=0)


@pytest.mark.parametrize("d", [2, 3], ids=["cb_norm-d2", "cb_norm-d3"])
def test_weight_norms_report_large_weights_or_refuse_them_by_name(d):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=OVERFLOW):
            cb_norm(CovariantCoefficients(d, (1.5e308 + 1.5e308j, 0, 0, 0, 0, 0)))
        plain = cb_norm(CovariantCoefficients(d, (1, 0.5, 0, 0, 0, 0))).value
        large = cb_norm(CovariantCoefficients(d, (1e200, 0.5e200, 0, 0, 0, 0))).value
    assert large == pytest.approx(1e200 * plain, rel=1e-12, abs=0)
