"""Canonical calculus for maps into m output copies.

A map commuting with U-conjugation in and U^(x m)-conjugation out is a
combination of the m! * (m+1) generators

    X  ->  P(s) @ F_j(X),    s a permutation of the m slots,

where F_1(X) = tr(X) I^(x m) and F_j(X) for j = 2..m+1 places X in slot
j-1 with identities elsewhere.  ``MultiCopyCoefficients.lam[i, j]`` is the
weight of (permutation i in lexicographic one-line order, generator j+1),
so column 0 always holds the trace weights.  The weights are unique when
d >= m + 1, which is what entrywise extraction requires.

Desk-scale guard: 2 <= m <= 4 and d**m <= 256.

Slot permutations, generator positions, the realize scatter and its
inverse, the weight read, and the residual on the realized support are
the index kernel of :mod:`covmap.operators`; this module is its m-copy
face.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .linalg import DEFAULT_TOL, DimensionError, Tolerance, _largest_magnitude, _range_exponent, _scaled
from .operators import _apply, _extract, _permutation_ones, _realize, _shaped, _span_fit, _support_sums
from .operators import enumerate_permutations
from .twirl import _covariance_defect
from .twocopy import _TABLE, _UNTABLE, CovariantCoefficients

__all__ = [
    "UniquenessUnavailableError",
    "MultiCopyCoefficients",
    "SchurWeylFit",
    "enumerate_permutations",
    "slot_embedding",
    "apply_multi",
    "realize_multi_superoperator",
    "extract_multi",
    "covariance_residual_multi",
    "schur_weyl_fit",
    "from_two_copy",
    "to_two_copy",
]


class UniquenessUnavailableError(ValueError):
    """Weights are not unique below d = m + 1; extraction refuses."""


def _check_desk(m: int, d: int) -> None:
    if not 2 <= m <= 4:
        raise ValueError(f"copy count m={m} outside supported range 2..4")
    if d < 2:
        raise DimensionError(f"need d >= 2, got {d}")
    if d**m > 256:
        raise DimensionError(f"d**m = {d**m} exceeds the desk-scale cap 256")


@dataclass(frozen=True)
class MultiCopyCoefficients:
    """Weight table lam of shape (m!, m+1); column 0 is the trace column."""

    m: int
    d: int
    lam: np.ndarray

    def __post_init__(self):
        _check_desk(self.m, self.d)
        lam = np.array(self.lam, dtype=np.complex128)
        if lam.shape != (math.factorial(self.m), self.m + 1):
            raise ValueError(
                f"lam shape {lam.shape} does not match (m!, m+1) for m={self.m}"
            )
        lam.setflags(write=False)
        object.__setattr__(self, "lam", lam)

    def max_magnitude(self) -> float:
        """Largest |lam[i, j]|, each Python's abs (libm hypot); NaN if a weight has a NaN part."""
        return _largest_magnitude(self.lam.ravel().tolist())


def slot_embedding(j: int, x, m: int, d: int) -> np.ndarray:
    """Generator j applied to x: trace term for j = 1, slot j-1 for j >= 2."""
    _check_desk(m, d)
    x = _shaped(x, d, m, "input")
    if j == 1:
        return np.trace(x) * np.eye(d**m, dtype=np.complex128)
    if not 2 <= j <= m + 1:
        raise ValueError(f"generator index {j} outside 1..{m + 1}")
    factors = [np.eye(d, dtype=np.complex128)] * m
    factors[j - 2] = x
    return reduce(np.kron, factors)


def apply_multi(mc: MultiCopyCoefficients, x) -> np.ndarray:
    """Image of x, d^m x d^m, gathered with the bits of a sum of permuted slot embeddings."""
    return _apply(mc.lam, x, mc.m, mc.d)


def realize_multi_superoperator(mc: MultiCopyCoefficients) -> np.ndarray:
    """d^(2m) x d^2 matrix M with M @ vec(X) == vec(apply_multi(mc, X)).

    Weights are summed per permutation in generator order, then across
    permutations in order, as apply_multi sums them.
    """
    return _realize(mc.lam, mc.m, mc.d)


def extract_multi(
    superop, m: int, d: int, tol: Tolerance = DEFAULT_TOL
) -> tuple[MultiCopyCoefficients, float]:
    """Read all weights off single entries of two probe images.

    The probe entries are described on :func:`covmap.operators._probes`;
    realized weights come back exactly, and at m = 2 this is
    :func:`covmap.twocopy.extract` in table form.  Needs d >= m + 1;
    otherwise the weights are not unique and UniquenessUnavailableError is
    raised.  Returns (coefficients, operator-norm residual against the
    input).  ``tol`` is accepted for signature compatibility and not used.
    """
    _check_desk(m, d)
    if d < m + 1:
        raise UniquenessUnavailableError(
            f"weights are not unique for d={d} < m+1={m + 1}"
        )
    lam, residual = _extract(superop, m, d)
    return MultiCopyCoefficients(m, d, lam), residual


def covariance_residual_multi(superop, m: int, d: int, samples: int = 20, seed: int = 0) -> float:
    """Largest covariance defect over sampled unitaries and matrix units."""
    _check_desk(m, d)
    return _covariance_defect(_shaped(superop, d, m), m, d, samples, seed)


@dataclass(frozen=True)
class SchurWeylFit:
    """Least-squares expansion of an operator over the slot permutations.

    degenerate marks a singular Gram matrix (d < m), where only the
    least-norm coefficient vector is reported.
    """

    coefficients: np.ndarray
    residual: float
    degenerate: bool


def schur_weyl_fit(t, m: int, d: int) -> SchurWeylFit:
    """Project an operator on (C^d)^(x m) onto the permutation span.

    Normal-equation solve with the exact Gram matrix; the residual is the
    Frobenius distance to the span, which is zero precisely for operators
    commuting with every U^(x m).
    """
    _check_desk(m, d)
    return _schur_weyl(_shaped(t, d, m, "operator"), m, d)


def _schur_weyl(t: np.ndarray, m: int, d: int) -> SchurWeylFit:
    """The solve behind :func:`schur_weyl_fit`, without the desk-scale cap."""
    span, support, inverse = _permutation_ones(m, d)
    e = _range_exponent(t)  # solved in range, then scaled back
    coeffs, degenerate = _span_fit(t.reshape(-1), span, e)
    difference = _scaled(t, -e)  # minus the span element, taken on its support
    difference.reshape(-1)[support] -= _support_sums(inverse, support.size, coeffs)
    residual = np.linalg.norm(difference)  # summed in t's range: one 2**500 below t's peak loses digits
    return SchurWeylFit(_scaled(coeffs, e), _scaled(float(residual), e), degenerate)


def from_two_copy(c: CovariantCoefficients) -> MultiCopyCoefficients:
    """Two-copy weights in table form: identity row then swap row."""
    return MultiCopyCoefficients(2, c.d, c.as_array()[_TABLE])


def to_two_copy(mc: MultiCopyCoefficients) -> CovariantCoefficients:
    """Inverse of :func:`from_two_copy`; only defined for m = 2."""
    if mc.m != 2:
        raise ValueError(f"two-copy view needs m = 2, got m={mc.m}")
    return CovariantCoefficients(mc.d, mc.lam.reshape(-1)[_UNTABLE])
