"""Power-of-two equivariance of every norm-valued kernel.

Each kernel scales its working array into range by 2**-e and its result
back by 2**e, so f(2**k F) == 2**k f(F) bit for bit wherever 2**k F is
exact, as it is when no entry is subnormal, and 2**k f(F) stays inside the
double range.  Otherwise it returns a finite result or refuses with the
one overflow message, and it never gives inf, NaN or a warning.  classify
and cb_norm scale their weights only where a quantity they form could
overflow, with the same bits times the power of two.
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
from covmap.norms import cb_norm
from covmap.twirl import covariance_deviation, twirl, twirl_operator
from covmap.twocopy import CovariantCoefficients, extract, fit_coefficients

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
}


@functools.lru_cache(maxsize=None)
def _plain(name):
    """The kernel's input and its result at scale 1."""
    kernel, make = KERNELS[name]
    f = make()
    return f, kernel(f)


def _shifted(a, k):
    """2**k a, entry part by entry part: exact unless an entry leaves the normal range."""
    out = np.empty_like(a)
    with np.errstate(over="ignore"):  # an inf entry is part of the case
        for part, into in ((a.real, out.real), (a.imag, out.imag)):
            np.ldexp(part, k, out=into)
    return out


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


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_classify_keeps_its_bits_where_it_scales_the_weights(d):
    # Weight parts of 2**1016 and up are scaled down before any verdict
    # quantity is formed; at 2**1000 they are not.  Both sit far above the
    # constants 1 and 1/2 of the verdicts and, with a relative tolerance,
    # every verdict agrees and every evidence value is the power of two apart.
    tol = Tolerance(abs=0.0, rel=1e-9)
    rng = np.random.default_rng(90 + d)
    for _ in range(20):
        w = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
        adjoint = np.array([w[0].real, w[1].real, w[2], np.conj(w[2]), w[4].real, w[5].real])
        for v in (w, adjoint, np.concatenate([adjoint[:4], [0, 0]])):
            v = v * (0.75 / np.abs(np.stack([v.real, v.imag])).max())  # largest part in [1/2, 1)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                reports = []
                for k in (1000, 1017):
                    try:
                        reports.append(classify(_weights_at(v, d, k), tol))
                    except ValueError as exc:  # a determinant witness past the range
                        assert str(exc) == "a value overflows the double range"
                        reports.append(None)
            low, high = reports
            if low is None:
                assert high is None
                continue
            fields = ("self_adjoint", "positive", "completely_positive", "broadcasting",
                      "permutation_invariant", "classically_consistent", "virtual_broadcaster")
            assert [repr(getattr(high, f)) for f in fields] == [repr(getattr(low, f)) for f in fields]
            for key, value in low.evidence.items():
                if isinstance(value, float):
                    assert high.evidence[key] == math.ldexp(value, 17), key
                else:
                    assert repr(high.evidence[key]) == repr(value), key


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_cb_norm_keeps_its_bits_where_it_scales_the_weights(d):
    # Weight parts of 2**509 and up are scaled down before any corner or image
    # norm is formed; at 2**480 they are not.  The witness is the same and
    # every value exactly the power of two apart.
    rng = np.random.default_rng(190 + d)
    for _ in range(20):
        w = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
        w[4:] = (w[4], -w[4]) if d == 2 else 0  # trace free; at d = 2 up to the gauge
        w *= 0.75 / np.abs(np.stack([w.real, w.imag])).max()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            low, high = (cb_norm(_weights_at(w, d, k)) for k in (480, 1000))
        assert high.value == math.ldexp(low.value, 520)
        assert high.detail["witness_angle"] == low.detail["witness_angle"]
        assert high.detail["corner_magnitudes"] == [math.ldexp(v, 520) for v in low.detail["corner_magnitudes"]]
