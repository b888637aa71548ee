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
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, DimensionError, Tolerance, _range_exponent, _scaled
from .operators import _apply, _read_weights, _realize, _residual, _scatter, _shaped, _span
from .operators import _span_fit

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
        return float(np.abs(self.as_array()).max())

    @functools.cached_property
    def _gauge_reduced(self) -> CovariantCoefficients:
        if self.d >= 3:
            return self
        arr = self.as_array()
        overlap = np.vdot(GAUGE_DIRECTION, arr)
        arr = arr - (overlap / 6.0) * GAUGE_DIRECTION
        return CovariantCoefficients(self.d, tuple(arr))


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
    superop = _shaped(superop, d)
    table = _read_weights(superop, 2, d)
    return CovariantCoefficients(d, table.reshape(-1)[_UNTABLE]), _residual(superop, table, 2, d)


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
    return c, _residual(superop, c.as_array()[_TABLE], 2, d)


@functools.lru_cache(maxsize=None)
def _generator_span(d: int) -> tuple:
    """The _span of the six generators' ones, in weight order."""
    hits, flat = _scatter(2, d)
    # Weight k sits at table entry (i, j); its generator's ones are flat[i, hits[:, j]].
    table = zip(*np.unravel_index(_UNTABLE, _TABLE.shape))
    return _span(np.stack([flat[i, hits[:, j]] for i, j in table]))


def _recover(superop, d: int, tol: Tolerance) -> tuple[CovariantCoefficients, float]:
    """Weights and residual of a superoperator: the kernel read at d >= 3, the fit at d = 2."""
    return extract(superop, d, tol) if d >= 3 else fit_coefficients(superop, d)


def gauge_reduce(c: CovariantCoefficients) -> CovariantCoefficients:
    """Canonical representative, kept on the vector: unchanged for d >= 3, min-norm at d = 2."""
    return c._gauge_reduced


def maps_equal(
    a: CovariantCoefficients, b: CovariantCoefficients, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Whether two coefficient vectors realize the same map."""
    if a.d != b.d:
        raise DimensionError(f"dimension mismatch {a.d} vs {b.d}")
    da = gauge_reduce(a).as_array()
    db = gauge_reduce(b).as_array()
    scale = max(np.abs(da).max(), np.abs(db).max())
    return bool(np.abs(da - db).max() <= tol.bound(scale))
