"""Canonical calculus for maps from d x d matrices to operators on two copies.

Every map commuting with simultaneous unitary conjugation (conjugate the
input by U, the output by U (x) U) is a combination of six generators:

    X  ->  I (x) X,   X (x) I,   S (I (x) X),   S (X (x) I),
           tr(X) I (x) I,   tr(X) S,

with S the factor swap.  ``CovariantCoefficients`` stores the six weights
in that order.  For d >= 3 the weights are unique.  For d = 2 the
generators satisfy one linear relation,

    I(x)X + X(x)I - tr(X) I(x)I + tr(X) S  ==  S(X(x)I) + S(I(x)X),

so coefficient vectors are determined only up to multiples of the
direction g = (1, 1, -1, -1, -1, 1); ``gauge_reduce`` removes the
ambiguity by projecting onto the orthogonal complement of g.

The family is the m = 2 view of the m-copy index kernel in
:mod:`covmap.operators`: the six weights fill the table of the identity
and swap permutations, [[c5, c2, c1], [c6, c4, c3]], and realize, the
generator basis and the Choi matrix all come from that table's scatter;
extraction is the kernel's read of that table, and the least-squares fit
solves over the same generator positions.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, DimensionError, Tolerance, _largest_magnitude, _range_exponent, _saturated, _scaled
from .operators import _apply, _extract, _realize, _residual, _scatter, _shaped, _span, _span_fit

__all__ = [
    "GAUGE_DIRECTION",
    "GaugeAmbiguousError",
    "CovariantCoefficients",
    "virtual_broadcast_coefficients",
    "apply_map",
    "realize_superoperator",
    "basis_superoperators",
    "choi_matrix",
    "extract",
    "fit_coefficients",
    "gauge_reduce",
    "maps_equal",
]

GAUGE_DIRECTION = np.array([1, 1, -1, -1, -1, 1], dtype=np.complex128)

# Positions of c1..c6 in the m = 2 weight table: c.as_array()[_TABLE] is the
# table, table.reshape(-1)[_UNTABLE] the six weights again.
_TABLE = np.array([[4, 1, 0], [5, 3, 2]])
_UNTABLE = np.argsort(_TABLE, axis=None)


class GaugeAmbiguousError(ValueError):
    """Entrywise extraction refused at d = 2 where weights are not unique."""


@dataclass(frozen=True)
class CovariantCoefficients:
    """Weights (c1..c6) on the six generators, bound to a dimension d."""

    d: int
    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if self.d < 2:
            raise DimensionError(f"need d >= 2, got {self.d}")
        cs = tuple(complex(z) for z in self.coeffs)
        if len(cs) != 6:
            raise ValueError(f"expected 6 coefficients, got {len(cs)}")
        object.__setattr__(self, "coeffs", cs)

    def as_array(self) -> np.ndarray:
        return np.array(self.coeffs, dtype=np.complex128)

    def __getitem__(self, k: int) -> complex:
        return self.coeffs[k]

    def max_magnitude(self) -> float:
        """Largest |c_k|, each Python's abs (libm hypot); NaN if a weight has a NaN part."""
        return _largest_magnitude(self.coeffs)


def _gauge_reduced(c: CovariantCoefficients) -> CovariantCoefficients:
    """At d = 2 the projection of c orthogonal to g, formed from the weights as given; c otherwise."""
    if c.d >= 3:
        return c
    arr = c.as_array()
    overlap = np.vdot(GAUGE_DIRECTION, arr)
    return CovariantCoefficients(c.d, tuple(arr - (overlap / 6.0) * GAUGE_DIRECTION))


def _in_window(
    c: CovariantCoefficients, tol: Tolerance, *peers: CovariantCoefficients
) -> tuple[CovariantCoefficients, Tolerance, int, float]:
    """c and tol.abs times 2**-shift, shift, and the threshold scale: the one range rule for two-copy weights.

    With e the frexp exponent of the largest real or imaginary weight part
    of c and its peers, shift = max(0, e - 508) + min(0, max(e + 508, -508)).
    Inside 2**+-508 it is 0 and c, tol come back as given; otherwise the
    weights move to the nearer edge of that window, upward by at most
    2**508.  So every square of a scaled weight, and of any constant up to
    2**508, stays below 2**1022, and the power of two is exact wherever no
    weight is subnormal.  Weights with an inf or NaN part, in c or a peer,
    are not scaled.  A scaled absolute tolerance past the double range is
    the largest float.  The threshold scale max(2**-shift, max |c_k|) is
    the floor of 1 and c's max_magnitude in these units; a NaN magnitude
    leaves the floor alone.
    """
    parts = [abs(x) for w in (c, *peers) for z in w.coeffs for x in (z.real, z.imag)]
    e = math.frexp(max(parts))[1] if all(map(math.isfinite, parts)) else 0
    shift = max(0, e - 508) + min(0, max(e + 508, -508))
    if shift:
        tol = Tolerance(min(_saturated(tol.abs, -shift), sys.float_info.max), tol.rel)
        c = CovariantCoefficients(c.d, tuple(_scaled(c.as_array(), -shift)))
    return c, tol, shift, max(math.ldexp(1.0, -shift), c.max_magnitude())


@functools.lru_cache(maxsize=None)
def virtual_broadcast_coefficients(d: int) -> CovariantCoefficients:
    """The symmetrized broadcaster (0, 0, 1/2, 1/2, 0, 0)."""
    return CovariantCoefficients(d, (0, 0, 0.5, 0.5, 0, 0))


def apply_map(c: CovariantCoefficients, x) -> np.ndarray:
    """Image of the d x d matrix ``x``, a d^2 x d^2 matrix: the kernel's gather at m = 2."""
    return _apply(c.as_array()[_TABLE], x, 2, c.d)


def realize_superoperator(c: CovariantCoefficients) -> np.ndarray:
    """d^4 x d^2 matrix M with M @ vec(X) == vec(apply_map(c, X))."""
    return _realize(c.as_array()[_TABLE], 2, c.d)


def basis_superoperators(d: int) -> list[np.ndarray]:
    """Superoperators of the six generators, in coefficient order."""
    return [realize_superoperator(CovariantCoefficients(d, unit)) for unit in np.eye(6)]


def choi_matrix(c: CovariantCoefficients) -> np.ndarray:
    """Block matrix sum_ij E_ij (x) apply_map(c, E_ij), of size d^3 x d^3.

    Entry (x, y) of the image of E_ij is superoperator entry
    (y d^2 + x, j d + i), so the blocks are a transpose of its reshape.
    """
    d = c.d
    images = realize_superoperator(c).reshape(d * d, d * d, d, d)  # [y, x, j, i]
    return images.transpose(3, 1, 2, 0).reshape(d**3, d**3)


def extract(superop, d: int, tol: Tolerance = DEFAULT_TOL) -> tuple[CovariantCoefficients, float]:
    """Read the six weights off single entries: the kernel read at m = 2.

    The probe entries are described on :func:`covmap.operators._probes`;
    they need d >= 3, so d = 2 raises GaugeAmbiguousError (use
    :func:`fit_coefficients` there).  Returns (coefficients, residual)
    where the residual is the operator-norm distance between ``superop``
    and the realized coefficients, so non-covariant input is detected
    rather than silently projected.  ``tol`` is accepted for signature
    compatibility and not used.
    """
    if d == 2:
        raise GaugeAmbiguousError("weights are not unique at d = 2")
    table, residual = _extract(superop, 2, d)
    return CovariantCoefficients(d, table.reshape(-1)[_UNTABLE]), residual


def fit_coefficients(superop, d: int) -> tuple[CovariantCoefficients, float]:
    """Least-squares projection onto the six generators.

    One exact Gram solve over the generator positions; works at every
    d >= 2.  At d = 2 the Gram matrix is singular along the gauge direction
    and the least-norm solution is orthogonal to it; gauge_reduce still
    scrubs floating-point dust.  Returns (coefficients, operator-norm residual).
    """
    superop = _shaped(superop, d)
    e = _range_exponent(superop)  # solved and reduced in range, then scaled back
    sol, _ = _span_fit(superop.reshape(-1), _generator_span(d), e)
    c = gauge_reduce(CovariantCoefficients(d, tuple(sol)))
    c = CovariantCoefficients(d, tuple(_scaled(c.as_array(), e)))
    return c, _residual(superop, c.as_array()[_TABLE], 2, d, e)


@functools.lru_cache(maxsize=None)
def _generator_span(d: int) -> tuple:
    """The _span of the six generators' ones, in weight order.

    Weight k sits at table entry (i, j), and its generator has its ones at
    flat[i, columns[j]] of _scatter(2, d).
    """
    columns, flat, _, _ = _scatter(2, d)
    return _span(flat[:, columns].reshape(6, -1)[_UNTABLE])


def _recover(superop, d: int) -> tuple[CovariantCoefficients, float]:
    """Weights and residual of a superoperator: the kernel read at d >= 3, the fit at d = 2."""
    return extract(superop, d) if d >= 3 else fit_coefficients(superop, d)


def gauge_reduce(c: CovariantCoefficients) -> CovariantCoefficients:
    """Canonical representative: unchanged for d >= 3, min-norm at d = 2.

    At d = 2 the projection is formed in the window of _in_window and scaled back.
    """
    if c.d >= 3:
        return c
    c, _, shift, _ = _in_window(c, DEFAULT_TOL)
    g = _gauge_reduced(c)
    return CovariantCoefficients(2, tuple(_scaled(g.as_array(), shift))) if shift else g


def maps_equal(
    a: CovariantCoefficients, b: CovariantCoefficients, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Whether two coefficient vectors realize the same map.

    Both are read in one window of _in_window, shifted from the larger peak
    of the two, and gauge-reduced and compared there.
    """
    if a.d != b.d:
        raise DimensionError(f"dimension mismatch {a.d} vs {b.d}")
    (a, tol, _, _), (b, _, _, _) = _in_window(a, tol, b), _in_window(b, tol, a)
    return _gauge_gap(_gauge_reduced(a), _gauge_reduced(b), tol)[0]


def _gauge_gap(a: CovariantCoefficients, b: CovariantCoefficients, tol: Tolerance) -> tuple[bool, float]:
    """Whether gauge-reduced weights a and b of equal d agree at tol, and their largest gap.

    Magnitudes are Python's abs, as in _in_window.
    """
    gap = _largest_magnitude([x - y for x, y in zip(a.coeffs, b.coeffs)])
    return gap <= tol.bound(max(a.max_magnitude(), b.max_magnitude())), gap
