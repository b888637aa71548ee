"""Monte-Carlo averaging of superoperators over the unitary group.

The twirl of a map F is the Haar average of
U -> (conjugate input by U, output by the inverse of U (x) U); its fixed
points are exactly the covariant maps, so averaging followed by weight
extraction projects arbitrary maps onto the canonical family up to
sampling error of order samples**-0.5.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, as_matrix
from .multicopy import _covariance_defect
from .operators import _shaped, haar_unitary
from .twocopy import CovariantCoefficients, extract, fit_coefficients

__all__ = [
    "TwirlResult",
    "conjugated_superoperator",
    "covariance_deviation",
    "twirl",
    "twirl_operator",
]


def conjugated_superoperator(superop, u) -> np.ndarray:
    """Superoperator of X -> W^dag F(U X U^dag) W with W = U (x) U.

    Column-stacking turns the sandwich into
    kron(W.T, W^dag) @ M @ kron(conj(U), U).
    """
    superop = as_matrix(superop)
    u = as_matrix(u)
    w = np.kron(u, u)
    return np.kron(w.T, w.conj().T) @ superop @ np.kron(u.conj(), u)


def covariance_deviation(superop, d: int, samples: int = 20, seed: int = 0) -> float:
    """Largest covariance defect over sampled unitaries and matrix units."""
    return _covariance_defect(_shaped(superop, d), 2, d, samples, seed)


@dataclass(frozen=True)
class TwirlResult:
    """Averaged superoperator plus the extracted canonical weights.

    residual is the operator-norm gap between the average and its
    realized weights; deviation_before/after measure covariance of the
    input and of the average over a fresh probe set.
    """

    coefficients: CovariantCoefficients
    residual: float
    samples: int
    seed: int
    deviation_before: float
    deviation_after: float
    averaged: np.ndarray


def twirl(
    superop,
    d: int,
    samples: int = 1000,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
    deviation_samples: int = 20,
    first_sample_identity: bool = False,
) -> TwirlResult:
    """Average conjugated copies of a superoperator and extract weights.

    Sample k uses its own substream of the seed, so enlarging ``samples``
    extends the same sample path.  ``first_sample_identity`` replaces
    sample 0 by the identity unitary; with samples=1 the average then
    equals the input exactly, which pins the plumbing in tests.
    Weights come from entrywise extraction for d >= 3 and from the
    least-squares fit (gauge-reduced) at d = 2.
    """
    superop = _shaped(superop, d)
    if samples < 1:
        raise ValueError("need at least one sample")
    acc = np.zeros_like(superop)
    for k in range(samples):
        if k == 0 and first_sample_identity:
            u = np.eye(d, dtype=np.complex128)
        else:
            u = haar_unitary(d, seed, k)
        acc += conjugated_superoperator(superop, u)
    avg = acc / samples
    dev_before = covariance_deviation(superop, d, deviation_samples, seed)
    dev_after = covariance_deviation(avg, d, deviation_samples, seed)
    if d >= 3:
        coeffs, residual = extract(avg, d, tol)
    else:
        coeffs, residual = fit_coefficients(avg, d)
    return TwirlResult(
        coefficients=coeffs,
        residual=residual,
        samples=samples,
        seed=seed,
        deviation_before=dev_before,
        deviation_after=dev_after,
        averaged=avg,
    )


def twirl_operator(t, m: int, d: int, samples: int = 1000, seed: int = 0) -> np.ndarray:
    """Haar average of U^(x m) @ t @ U^(x m)^dag, sample-indexed like twirl."""
    t = _shaped(t, d, m, "operator")
    if samples < 1:
        raise ValueError("need at least one sample")
    acc = np.zeros_like(t)
    for k in range(samples):
        u = haar_unitary(d, seed, k)
        um = reduce(np.kron, [u] * m)
        acc += um @ t @ um.conj().T
    return acc / samples
