"""Monte-Carlo averaging of superoperators over the unitary group.

The twirl of a map F is the Haar average of
U -> (conjugate input by U, output by the inverse of U (x) U); its fixed
points are exactly the covariant maps, so averaging followed by weight
extraction projects arbitrary maps onto the canonical family up to
sampling error of order samples**-0.5.

One conjugation kernel and one Haar loop serve the twirl, twirl_operator
and the covariance defect (covariance_deviation here and
covariance_residual_multi in :mod:`covmap.multicopy`).  A sample views the
array as a tensor with one length-d axis per digit and takes the axes two
at a time, each pair as one GEMM by the d^2 x d^2 Kronecker product of its
two d x d matrices, with no copy: (m+1) d^(2m+4) multiply-adds for a
superoperator into m copies, m d^(2m+2) for an operator on m copies, d/2
times one GEMM per axis but with half the passes and no transposing copy.
The twirls add a whole stack of samples into the average in the last
pair's GEMM; only the defect, which needs every conjugate, holds them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, _largest_singular_value, as_matrix
from .operators import _BLOCK, _check_samples, _haar_unitaries, _shaped
from .twocopy import CovariantCoefficients, _recover

__all__ = [
    "TwirlResult",
    "conjugated_superoperator",
    "covariance_deviation",
    "twirl",
    "twirl_operator",
]


def conjugated_superoperator(superop, u) -> np.ndarray:
    """Superoperator of X -> W^dag F(U X U^dag) W with W = U (x) U.

    Equals kron(W.T, W^dag) @ M @ kron(conj(U), U) for column-stacked M.
    Entry (x, c) of the image of E_ab sits at row c d^2 + x, column b d + a,
    so the digit axes (c1, c2, x1, x2, b, a) take (U^T, U^T, U^dag, U^dag,
    U^dag, U^T), applied a pair at a time: 3 d^8 multiply-adds instead of
    the d^10 of that product.
    """
    u = _shaped(u, len(as_matrix(u)), kind="input")
    return _conjugate(_shaped(superop, len(u)), _superoperator_axes(u))[0]


def _superoperator_axes(u: np.ndarray, m: int = 2) -> list[np.ndarray]:
    """Digit-axis matrices of the superoperator of X -> W^dag F(U X U^dag) W, W = U^(x m)."""
    ut = np.swapaxes(u, -1, -2)
    return [ut] * m + [ut.conj()] * (m + 1) + [ut]


def _conjugate(x: np.ndarray, mats, into: np.ndarray | None = None) -> np.ndarray:
    """x with mats[k], a d x d matrix or a stack of B, along its k-th digit axis.

    The axes, an even number, go in adjacent pairs, each multiplied in one
    GEMM by the d^2 x d^2 Kronecker product of its two matrices.  The operand
    goes in transposed, x^T K^T = (K x)^T, so the product already holds the
    next pair first and is contiguous, and no step copies the array:
    (m+1) d^(2m+4) multiply-adds per sample of a superoperator into m
    copies, m d^(2m+2) per operator on m copies.  Returns a stack.  Given a
    C-contiguous array ``into`` shaped like x, it adds the sum of the stack
    to it instead: the last pair contracts over (sample, pair axes) in one
    GEMM of inner dimension B d^2, no finished conjugate is formed, and the
    stack before the last pair is returned.
    """
    shape, n = x.shape, mats[0].shape[-1] ** 2
    x = x.reshape(1, n, -1)
    for k, (a, b) in enumerate(zip(mats[::2], mats[1::2]), 1):
        pair = (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(-1, n, n)
        if into is not None and 2 * k == len(mats):
            summed = into.reshape(-1, n)  # a single pair broadcasts x over the B samples
            y = np.broadcast_to(x.reshape(len(x), n, -1), (len(pair), n, len(summed)))
            summed += y.reshape(-1, len(summed)).T @ pair.swapaxes(-1, -2).reshape(-1, n)
            return x
        x = x.reshape(len(x), n, -1).swapaxes(1, 2) @ pair.swapaxes(-1, -2)
    return x.reshape(-1, *shape)


def _haar_axes(x: np.ndarray, d: int, samples: int, seed: int, axes):
    """axes(U_k) for k < samples, in order, as stacks of consecutive k."""
    # A stack holds at most 256 KB (one conjugate if x is larger): cache-sized, and flat in samples.
    step = max(1, (1 << 18) // x.nbytes)
    for start in range(0, samples, _BLOCK):
        us = _haar_unitaries(d, seed, range(start, min(start + _BLOCK, samples)))
        for i in range(0, len(us), step):
            yield axes(us[i : i + step])


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused below
def _haar_average(x: np.ndarray, d: int, samples: int, seed: int, axes):
    """Mean of _conjugate(x, axes(U_k)) over k < samples, never holding a finished conjugate.

    A mean that overflows the double range raises ValueError.
    """
    acc = np.zeros(x.shape, dtype=np.complex128)
    for mats in _haar_axes(x, d, samples, seed, axes):
        # Holding one stack until the next is formed keeps the allocator from
        # trimming the heap between stacks and faulting its pages back in
        # (glibc, small heap, d = 5: 93 minor faults per sample unheld, 4 held).
        _ = _conjugate(x, mats, acc)
    acc /= samples
    if not np.isfinite(acc).all():
        raise ValueError("the Haar average overflows the double range: the input entries are too large")
    return acc


@np.errstate(over="ignore", invalid="ignore")  # _top_singular_values refuses an overflow
def _covariance_defect(superop: np.ndarray, m: int, d: int, samples: int, seed: int) -> float:
    """Largest covariance defect over sampled unitaries and all matrix units.

    By unitary invariance of the norm, with W = U^(x m),
    ||F(U X U^dag) - W F(X) W^dag|| = ||W^dag F(U X U^dag) W - F(X)||, so
    the unit defects of one U are the images of the conjugated map minus
    those of F: (m+1) d^(2m+4) multiply-adds per U, with F subtracted in the
    conjugates' own memory.  The running maximum is the floor of
    :func:`covmap.linalg._largest_singular_value`, which solves a Gram
    spectrum only where a Cholesky test cannot certify the defect below it,
    and returns the float a full spectrum of every defect gives.
    """
    _check_samples(samples)
    dim, worst = d**m, 0.0
    for mats in _haar_axes(superop, d, samples, seed, lambda u: _superoperator_axes(u, m)):
        stack = _conjugate(superop, mats)
        stack -= superop
        images = stack.reshape(-1, dim, dim, d * d).transpose(0, 3, 2, 1).reshape(-1, dim, dim)
        worst = _largest_singular_value(images, worst)
    return float(worst)


def covariance_deviation(superop, d: int, samples: int = 20, seed: int = 0) -> float:
    """Largest covariance defect over sampled unitaries and matrix units."""
    return _covariance_defect(_shaped(superop, d), 2, d, samples, seed)


@dataclass(frozen=True)
class TwirlResult:
    """Averaged superoperator plus the extracted canonical weights.

    residual is the operator-norm gap between the average and its realized
    weights; deviation_before/after are the covariance defects of the input
    and of the average over the unitaries k < deviation_samples of the same
    seed, which are the average's first ones when deviation_samples <=
    samples (the rest lie past the average's sample path).
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
) -> TwirlResult:
    """Average conjugated copies of a superoperator and extract weights.

    Sample k conjugates by haar_unitary(d, seed, k), so enlarging
    ``samples`` extends the same sample path, and one sample is exactly
    conjugated_superoperator with that unitary.  Weights come from the
    kernel read (:func:`covmap.twocopy.extract`) for d >= 3 and from the
    least-squares fit (gauge-reduced) at d = 2.
    """
    superop = _shaped(superop, d)
    _check_samples(samples, deviation_samples)
    avg = _haar_average(superop, d, samples, seed, _superoperator_axes)
    dev_before = covariance_deviation(superop, d, deviation_samples, seed)
    dev_after = covariance_deviation(avg, d, deviation_samples, seed)
    coeffs, residual = _recover(avg, d, tol)
    return TwirlResult(coeffs, residual, samples, seed, dev_before, dev_after, avg)


def twirl_operator(t, m: int, d: int, samples: int = 1000, seed: int = 0) -> np.ndarray:
    """Haar average of U^(x m) @ t @ U^(x m)^dag, sample-indexed like twirl."""
    t = _shaped(t, d, m, "operator")
    _check_samples(samples)
    return _haar_average(t, d, samples, seed, lambda u: [u] * m + [u.conj()] * m)
