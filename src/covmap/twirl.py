"""Monte-Carlo averaging of superoperators over the unitary group.

The twirl of a map F is the Haar average of
U -> (conjugate input by U, output by the inverse of U (x) U); its fixed
points are exactly the covariant maps, so averaging followed by weight
extraction projects arbitrary maps onto the canonical family up to
sampling error of order samples**-0.5.

One conjugation kernel and one Haar loop serve the twirl, twirl_operator
and the covariance defect (covariance_deviation here and
covariance_residual_multi in :mod:`covmap.multicopy`).  A sample views the
array as a tensor whose leading axes come in pairs and multiplies each pair
axis, with no copy, in one GEMM by a ready-made pair matrix; the twirls add
a whole stack of samples into the average in the last pair's GEMM, and only
the defect, which needs every conjugate, holds them.  There are two kinds
of pair.

* Superoperators and the defect take complex Kronecker pairs: two digit
  axes at a time, by the d^2 x d^2 Kronecker product of their d x d
  matrices, (m+1) d^(2m+4) complex multiply-adds for a superoperator into
  m copies.  They stay complex because one twirl sample must be exactly
  conjugated_superoperator, with U = I an exact no-op, and because the
  defect needs its images in the matrix-unit basis.  A scratch real-pair
  superoperator average gained nothing at d = 3 and 4 and took 0.86x the
  time at d = 5, too little to give those up.
* Operators take real adjoint pairs.  Each copy's (row, column) digit pair
  goes to coordinates in an orthonormal Hermitian basis, where U X U^dag is
  the real orthogonal Ad_U; the real and imaginary planes of the
  coordinates ride along as one axis, and all m pairs share one Ad_U.
  That is 2m d^(2m+2) real multiply-adds per sample against the
  4m d^(2m+2) of complex pairs, and a Hermitian operator stays exactly
  Hermitian.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, _largest_singular_value, _range_exponent, _scaled, as_matrix
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
    return _conjugate(_shaped(superop, len(u)), _superoperator_pairs(u))[0]


def _superoperator_pairs(u: np.ndarray, m: int = 2) -> list[np.ndarray]:
    """Pair stacks of the superoperator of X -> W^dag F(U X U^dag) W, W = U^(x m).

    Its 2m + 2 digit axes take U^T m times, U^dag m + 1 times, then U^T;
    each adjacent pair (a, b) is the d^2 x d^2 Kronecker product a (x) b.
    """
    ut = np.swapaxes(u, -1, -2)
    mats = [ut] * m + [ut.conj()] * (m + 1) + [ut]
    n = u.shape[-1] ** 2
    return [
        (a[..., :, None, :, None] * b[..., None, :, None, :]).reshape(-1, n, n)
        for a, b in zip(mats[::2], mats[1::2])
    ]


def _conjugate(x: np.ndarray, pairs, into: np.ndarray | None = None) -> np.ndarray:
    """x with pairs[k], a stack of B n x n matrices, along its k-th length-n axis.

    The pair axes lead x; each takes one GEMM.  The operand goes in
    transposed, x^T K^T = (K x)^T, so the product already holds the next
    pair axis first and is contiguous, and no step copies the array.  Returns
    a stack.  Given a C-contiguous array ``into`` of x's size, it adds the
    sum of the stack to it instead: the last pair contracts over (sample,
    pair axis) in one GEMM of inner dimension B n, no finished conjugate is
    formed, and the stack before the last pair is returned.  Axes of x past
    the pair axes, such as the real and imaginary planes of a float view,
    ride along and come out ahead of them.
    """
    shape, n = x.shape, pairs[0].shape[-1]
    x = x.reshape(1, n, -1)
    for k, pair in enumerate(pairs, 1):
        if into is not None and k == len(pairs):
            summed = into.reshape(-1, n)  # a single pair broadcasts x over the B samples
            y = np.broadcast_to(x.reshape(len(x), n, -1), (len(pair), n, len(summed)))
            summed += y.reshape(-1, len(summed)).T @ pair.swapaxes(-1, -2).reshape(-1, n)
            return x
        x = x.reshape(len(x), n, -1).swapaxes(1, 2) @ pair.swapaxes(-1, -2)
    return x.reshape(-1, *shape)


def _haar_axes(x: np.ndarray, d: int, samples: int, seed: int, pairs):
    """pairs(U_k) for k < samples, in order, as stacks of consecutive k."""
    # A stack holds at most 256 KB (one conjugate if x is larger): cache-sized, and flat in samples.
    step = max(1, (1 << 18) // x.nbytes)
    for start in range(0, samples, _BLOCK):
        us = _haar_unitaries(d, seed, range(start, min(start + _BLOCK, samples)))
        for i in range(0, len(us), step):
            yield pairs(us[i : i + step])


def _haar_average(x: np.ndarray, d: int, samples: int, seed: int, pairs):
    """Mean of _conjugate(x, pairs(U_k)) over k < samples, never holding a finished conjugate.

    The mean is laid out as the fold leaves it: like x when x has only pair
    axes.
    """
    acc = np.zeros(x.shape, dtype=x.dtype)
    for stack_pairs in _haar_axes(x, d, samples, seed, pairs):
        # Holding one stack until the next is formed keeps the allocator from
        # trimming the heap between stacks and faulting its pages back in
        # (glibc, small heap, d = 5: 93 minor faults per sample unheld, 4 held).
        # The pairs go at once, before the next stack's are formed: held over,
        # they add faults too (d = 4 superoperator: 177 per call dropped, 441 held).
        _ = _conjugate(x, stack_pairs, acc)
        del stack_pairs
    acc /= samples
    return acc


@functools.lru_cache(maxsize=None)
def _adjoint_basis(d: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Read tables of the coordinates c_a = tr(B_a X) in a Hermitian basis.

    The basis B is orthonormal: E_jj, (E_jk + E_kj)/sqrt 2 and
    i (E_jk - E_kj)/sqrt 2 for j < k.  A table (index, weight) maps v to
    sum_s weight[s] v[index[s]]; the three tables take the row-major flat X
    to c, c back to X, and the float view of the flat U (x) conj(U) to the
    flat Ad_U.  With F the unitary taking X to c, Ad_U = F (U (x) conj U) F^dag
    is real, and each entry is four reads of one float with a real weight.
    """
    j, k = np.triu_indices(d, 1)
    n, a, s, r = d * d, np.arange(d), d + np.arange(len(j)), 2**-0.5
    f = np.zeros((n, d, d), dtype=np.complex128)  # f[a] = conj(B_a), so c = F X.flat with F = f.reshape(n, n)
    f[a, a, a] = 1
    f[s, j, k] = f[s, k, j] = r
    f[s + len(j), j, k], f[s + len(j), k, j] = -1j * r, 1j * r
    f = f.reshape(n, n)
    tables = []
    for g in (f, f.conj().T):  # each row has one or two nonzeros
        index = np.argsort(g == 0, axis=1, kind="stable")[:, :2]
        tables.append((index.T.copy(), np.take_along_axis(g, index, 1).T.copy()))
    (i0, i1), (w0, w1) = tables[0]
    # Re(z k) reads the real part of k times Re z, or its imaginary part times -Im z.
    z = np.array([wa[:, None] * wb.conj() for wa in (w0, w1) for wb in (w0, w1)]).reshape(4, -1)
    pos = np.array([ia[:, None] * n + ib for ia in (i0, i1) for ib in (i0, i1)]).reshape(4, -1)
    tables.append((2 * pos + (z.real == 0), np.where(z.real == 0, -z.imag, z.real)))
    for table in tables:
        for t in table:
            t.setflags(write=False)
    return tuple(tables)


def _read(x: np.ndarray, table, axes) -> np.ndarray:
    """x with a two-read table of _adjoint_basis along each of the given axes."""
    (i0, i1), (w0, w1) = table
    for axis in axes:
        w = (-1, *[1] * (x.ndim - 1 - axis))
        x = w0.reshape(w) * x.take(i0, axis) + w1.reshape(w) * x.take(i1, axis)
    return x


def _adjoint(us: np.ndarray) -> np.ndarray:
    """Ad_U for a stack of unitaries: c(U X U^dag) = Ad_U c(X), a real stack."""
    d = us.shape[-1]
    index, weight = _adjoint_basis(d)[2]
    kron = (us[:, :, None, :, None] * us.conj()[:, None, :, None, :]).reshape(len(us), -1)
    return np.einsum("bst,st->bt", kron.view(np.float64)[:, index], weight).reshape(-1, d * d, d * d)


def _covariance_defect(superop: np.ndarray, m: int, d: int, samples: int, seed: int) -> float:
    """Largest covariance defect over sampled unitaries and all matrix units.

    By unitary invariance of the norm, with W = U^(x m),
    ||F(U X U^dag) - W F(X) W^dag|| = ||W^dag F(U X U^dag) W - F(X)||, so
    the unit defects of one U are the images of the conjugated map minus
    those of F: (m+1) d^(2m+4) multiply-adds per U, in range, with no copy
    of F: the first two pair stacks carry 2**-e between them, and 2**-e F
    is subtracted a row block at a time, in the conjugates' own memory.
    The running maximum is the floor of _largest_singular_value.
    """
    _check_samples(samples)
    dim, worst, e = d**m, 0.0, _range_exponent(superop)
    rows = max(1, (1 << 14) // superop.shape[1])  # a 256 KB block of the scaled F
    for pairs in _haar_axes(superop, d, samples, seed, lambda u: _superoperator_pairs(u, m)):
        pairs[0], pairs[1] = _scaled(pairs[0], -(e // 2)), _scaled(pairs[1], e // 2 - e)
        stack = _conjugate(superop, pairs)
        del pairs  # as in _haar_average
        for r in range(0, len(superop), rows):
            stack[:, r : r + rows] -= _scaled(superop[r : r + rows], -e)
        images = stack.reshape(-1, dim, dim, d * d).transpose(0, 3, 2, 1).reshape(-1, dim, dim)
        # Only the images are held into the next stack: holding the conjugate
        # too, a small heap is trimmed and re-faulted more often (20 samples,
        # d = 3/4: 221/458 minor faults per call against 165/198).
        del stack
        worst = _largest_singular_value(images, worst)
    return _scaled(float(worst), e)


def covariance_deviation(superop, d: int, samples: int = 20, seed: int = 0) -> float:
    """Largest covariance defect over sampled unitaries and matrix units; past the range, ValueError."""
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
    least-squares fit (gauge-reduced) at d = 2.  A result past the double range raises ValueError.
    ``tol`` is accepted for signature compatibility and not used.
    """
    superop = _shaped(superop, d)
    _check_samples(samples, deviation_samples)
    e = _range_exponent(superop)
    avg = _scaled(_haar_average(_scaled(superop, -e), d, samples, seed, _superoperator_pairs), e)
    dev_before = covariance_deviation(superop, d, deviation_samples, seed)
    dev_after = covariance_deviation(avg, d, deviation_samples, seed)
    coeffs, residual = _recover(avg, d)
    return TwirlResult(coeffs, residual, samples, seed, dev_before, dev_after, avg)


def twirl_operator(t, m: int, d: int, samples: int = 1000, seed: int = 0) -> np.ndarray:
    """Haar average of U^(x m) @ t @ U^(x m)^dag, sample-indexed like twirl.

    Each copy's (row, column) digit pair of t goes to adjoint-basis
    coordinates, on which U acts by the real orthogonal Ad_U, so the float
    view of the coordinates is averaged with the real pairs [Ad_U] * m and
    mapped back once.  A Hermitian t has a zero imaginary plane, and its
    average comes back exactly Hermitian.  It is taken on t scaled into
    range and scaled back; a result past the double range raises ValueError.
    """
    t = _shaped(t, d, m, "operator")
    _check_samples(samples)
    to_c, to_x, _ = _adjoint_basis(d)
    e = _range_exponent(t)
    copies = np.arange(2 * m).reshape(2, m).T.ravel()  # the (row, column) axes of each copy
    x = _read(_scaled(t, -e).reshape((d,) * 2 * m).transpose(copies).reshape((d * d,) * m), to_c, range(m))
    avg = _haar_average(x.view(np.float64), d, samples, seed, lambda us: [_adjoint(us)] * m)
    re, im = avg.reshape(2, -1)  # the fold carries the plane axis ahead of the pair axes
    x = _read((re + 1j * im).reshape((d * d,) * m), to_x, range(m))
    return _scaled(x.reshape((d,) * 2 * m).transpose(np.argsort(copies)).reshape(d**m, d**m), e)
