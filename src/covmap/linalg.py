"""Dense complex linear algebra kernel shared by every module.

Conventions fixed once for the whole package:

* Tensor products index the first factor slowest: the basis vector
  ``e_i (x) e_j`` of C^a (x) C^b sits at flat index ``i*b + j``, which is
  exactly what ``np.kron`` produces.
* Matrices are vectorised by column stacking, so
  ``vec(A @ X @ B) == kron(B.T, A) @ vec(X)``.
* Eigenvalues of Hermitian matrices are returned in ascending order.
* Numeric range: each norm-valued kernel scales its working array once by
  2**-e (_range_exponent) and its result back (_scaled), so f(2**k F) ==
  2**k f(F) bit for bit while 2**k F is exact.  An inf or NaN entry, or a
  result past the double range, raises ValueError "a value overflows the double range".
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "DimensionError",
    "NotHermitianError",
    "as_matrix",
    "kron",
    "partial_trace",
    "hermitian_eigenvalues",
    "operator_norm",
    "frobenius_norm",
    "hs_inner",
    "is_psd",
    "vec",
    "unvec",
    "map_to_superoperator",
]


class DimensionError(ValueError):
    """Shapes or dimensions do not match the declared contract."""


class NotHermitianError(ValueError):
    """A matrix that must be Hermitian is not, beyond tolerance."""


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair used by every numerical predicate.

    The effective threshold for a quantity living at magnitude ``scale``
    is ``abs + rel * scale``.  Both parts lie in [0, largest float]: a NaN or
    infinite threshold would decide every test the same way.
    """

    abs: float = 1e-9
    rel: float = 1e-9

    def __post_init__(self):
        if not all(0 <= t <= sys.float_info.max for t in (self.abs, self.rel)):  # NaN fails too
            raise ValueError(f"tolerances must be finite and nonnegative: {self.abs}, {self.rel}")

    def bound(self, scale: float = 1.0) -> float:
        return self.abs + self.rel * float(scale)


DEFAULT_TOL = Tolerance()


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array, rejecting anything else."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionError(f"expected a 2-D array, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise DimensionError(f"empty matrix of shape {m.shape}")
    return m


def kron(a, b) -> np.ndarray:
    """Tensor product with the first factor indexed slowest."""
    return np.kron(as_matrix(a), as_matrix(b))


def partial_trace(t, d1: int, d2: int, side: str = "first") -> np.ndarray:
    """Trace out one tensor factor of an operator on C^d1 (x) C^d2.

    ``side="first"`` returns the d2 x d2 reduction, ``side="second"`` the
    d1 x d1 one.
    """
    t = as_matrix(t)
    if d1 < 1 or d2 < 1:
        raise DimensionError("factor dimensions must be positive")
    if t.shape != (d1 * d2, d1 * d2):
        raise DimensionError(
            f"operator shape {t.shape} does not match factors ({d1}, {d2})"
        )
    r = t.reshape(d1, d2, d1, d2)
    if side == "first":
        return np.trace(r, axis1=0, axis2=2)
    if side == "second":
        return np.trace(r, axis1=1, axis2=3)
    raise ValueError(f"side must be 'first' or 'second', got {side!r}")


def operator_norm(a) -> float:
    """Largest singular value. Works for rectangular input."""
    a = as_matrix(a)
    e = _range_exponent(a)
    return _scaled(float(_top_singular_values(_scaled(a, -e))), e)


def _range_exponent(a: np.ndarray) -> int:
    """e with 2**-e a peaking in [1/2, 1) over its entry parts, 0 for zero a; inf or NaN: ValueError."""
    parts = np.ascontiguousarray(a).view(np.float64)
    peak = max(float(parts.max()), -float(parts.min()))  # NaN when a NaN is present: both ends are NaN
    if not math.isfinite(peak):
        raise ValueError("a value overflows the double range")
    return math.frexp(peak)[1]


def _scaled(a, e: int):
    """2**e a for a float or a new array, exact while entries stay normal; past the range, ValueError."""
    scalar = isinstance(a, float)
    if e > 0 and (math.frexp(a)[1] if scalar else _range_exponent(a)) + e > 1024:  # 2**1024 is past the range
        raise ValueError("a value overflows the double range")
    if scalar:
        return math.ldexp(a, e)
    parts = np.ascontiguousarray(a).view(np.float64)
    # A power of two inside the double range scales by one multiply, exact and faster than ldexp.
    return (parts * 2.0**e if -1074 <= e <= 1023 else np.ldexp(parts, e)).view(a.dtype)


# A matrix whose largest real or imaginary entry part is at least 2**-this has a Gram
# matrix that loses no leading digits to underflow, and a top eigenvalue of at least 2**(-2 * this).
_GRAM_EXPONENT = 400


# Fewest entries of a p x q matrix, p >= 4 q, whose Gram matrix is one real
# product.  Measured (numpy 2.4, OpenBLAS 0.3.31, 2 cores), the real route
# took 0.42-0.88x the complex one from 625 x 25 to 46656 x 36, but 1.4-1.5x
# at 256 x 16 and 512 x 16, and 1.0-2.1x on square and 2:1 shapes.
_REAL_GRAM_ENTRIES = 12_000


def _gram(a: np.ndarray) -> np.ndarray:
    """Gram matrix on the smaller side of each matrix in a stack: a^dag a or a a^dag.

    A single large tall C-contiguous complex128 matrix a = x + i y is read
    as the real matrix b of its interleaved parts, whose symmetric b^T b is
    one BLAS rank-k update, and a^dag a = (x^T x + y^T y) + i (x^T y - y^T x)
    is put together from its quarters: half the multiply-adds of the complex
    product, and no conjugated copy.
    """
    p, q = a.shape[-2:]
    tall = a.ndim == 2 and p >= 4 * q and p * q >= _REAL_GRAM_ENTRIES
    if tall and a.dtype == np.complex128 and a.flags.c_contiguous:
        b = a.view(np.float64)
        g = b.T @ b
        gram = np.empty((q, q), dtype=np.complex128)
        np.add(g[0::2, 0::2], g[1::2, 1::2], out=gram.real)
        np.subtract(g[0::2, 1::2], g[1::2, 0::2], out=gram.imag)
        return gram
    h = np.conj(np.swapaxes(a, -1, -2))
    return h @ a if p >= q else a @ h


def _top_singular_values(a: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix in a stack of shape (..., p, q).

    The square root of the top Gram eigenvalue on the smaller side, on entries the
    callers scaled into range.  A matrix whose top eigenvalue comes out below
    2**(-2 * _GRAM_EXPONENT) and whose largest entry part is below 2**-_GRAM_EXPONENT
    is redone scaled by an exact power of two; every other keeps its bits.
    """
    top = np.linalg.eigvalsh(_gram(a))[..., -1]
    if np.all(top >= 2.0 ** (-2 * _GRAM_EXPONENT)):
        return np.sqrt(top)
    parts = np.ascontiguousarray(a).view(np.float64)  # real and imaginary parts side by side
    peak = np.maximum(parts.max(axis=(-2, -1)), -parts.min(axis=(-2, -1)))
    shift = np.where(peak < 2.0**-_GRAM_EXPONENT, -np.frexp(peak)[1], 0)  # 0 for a zero peak
    if shift.any():
        scaled = np.ldexp(parts, shift[..., None, None]).view(a.dtype)
        top = np.linalg.eigvalsh(_gram(scaled))[..., -1]
    return np.ldexp(np.sqrt(np.maximum(top, 0.0)), -shift)


# LAPACK's Cholesky factors s I - G only when s I - G + E is positive definite
# for a backward error E of order n**2 eps s, so the top eigenvalue of G is
# below s (1 + n**2 eps), and eigvalsh returns it to within n eps relative.
# With s = (1 - 2**-20) t and n up to 2**10 both stay below t: a matrix that
# passes cannot raise a maximum t.
_CERTIFY = 1 - 2.0**-20


def _largest_singular_value(a: np.ndarray, floor: float = 0.0) -> float:
    """max(floor, _top_singular_values(a).max()) for a stack (N, p, q), as the same float.

    On entries the callers scaled into range, the pruned route runs only
    when max(floor**2, best estimate) is at least p q 2**(1 - 2 E),
    E = _GRAM_EXPONENT, so no matrix that can reach the squared result has
    an entry part below 2**-E; any other stack takes _top_singular_values.

    The pruned route solves only the matrices that can raise the maximum:
    the Gram stack is sorted by the estimate of _weighted_means, the leading
    matrix gets eigvalsh unless the floor beats its estimate, and the rest are
    certified below the running maximum t by stacked Cholesky tests of
    (1 - 2**-20) t I - G in chunks of 1, 2, 4, ...; bisection finds each
    matrix of a failing chunk, which gets eigvalsh.
    """
    gram = _gram(a)
    estimate = _weighted_means(gram, np.trace(gram, axis1=-2, axis2=-1).real)
    level, low = floor * floor, a.shape[-2] * a.shape[-1] * 2.0 ** (1 - 2 * _GRAM_EXPONENT)
    if max(level, estimate.max()) < low:
        return max(floor, float(_top_singular_values(a).max()))
    order = np.argsort(-estimate)
    tops, start = [], 0
    if not estimate[order[0]] < level:
        tops.append(np.linalg.eigvalsh(gram[order[0]])[-1])
        level, start = max(level, tops[0]), 1
    shifted = gram[order]
    np.negative(shifted, out=shifted)
    diagonal = shifted.reshape(len(order), -1)[:, :: gram.shape[-1] + 1]  # a view
    size = 1
    while start < len(order):
        stop = min(start + size, len(order))
        diagonal[start:stop] += _CERTIFY * level
        tops += [np.linalg.eigvalsh(gram[order[k]])[-1] for k in _uncertified(shifted, start, stop)]
        level, start, size = max([level, *tops]), stop, 2 * size
    return max(floor, float(np.sqrt(max(tops)))) if tops else floor


def _weighted_means(gram: np.ndarray, trace: np.ndarray) -> np.ndarray:
    """tr(G^2) / trace of each Gram matrix G: its eigenvalues averaged with themselves as weights.

    ``trace`` holds the real tr(G).  A lower bound on the top eigenvalue
    that ranks a stack about as well as a few power steps; a zero Gram gets 0.
    """
    parts = gram.view(gram.real.dtype)
    squares = np.einsum("...ij,...ij->...", parts, parts)
    return np.divide(squares, trace, out=np.zeros_like(trace), where=trace > 0)


def _uncertified(shifted: np.ndarray, start: int, stop: int, failed: bool = False) -> list:
    """Positions in start..stop-1 whose shifted matrix has no Cholesky factor.

    ``failed`` marks a range already known to hold one, which is split
    without being tested again.
    """
    if not failed:
        try:
            np.linalg.cholesky(shifted[start:stop])
            return []
        except np.linalg.LinAlgError:
            pass
    if stop - start == 1:
        return [start]
    middle = (start + stop) // 2
    left = _uncertified(shifted, start, middle)
    return left + _uncertified(shifted, middle, stop, failed=not left)


def frobenius_norm(a) -> float:
    a = as_matrix(a)
    e = _range_exponent(a)
    return _scaled(float(np.linalg.norm(_scaled(a, -e))), e)


def hermitian_eigenvalues(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Real eigenvalues of a Hermitian matrix, ascending.

    Raises NotHermitianError when ``a`` deviates from its adjoint by more
    than the tolerance (relative to the norm of ``a``).
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"matrix of shape {a.shape} is not square")
    dev = operator_norm(a - a.conj().T)
    if dev > tol.bound(operator_norm(a)):
        raise NotHermitianError(f"deviation from adjoint {dev:.3e} exceeds tolerance")
    return np.linalg.eigvalsh(a)


def hs_inner(a, b) -> complex:
    """Hilbert-Schmidt inner product tr(a^dag b), conjugate-linear in ``a``."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise DimensionError(f"shape mismatch {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def is_psd(a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether ``a`` is Hermitian and has spectrum >= -threshold.

    Non-Hermitian input (beyond tolerance) is simply not PSD: returns False.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"matrix of shape {a.shape} is not square")
    scale = operator_norm(a)
    if operator_norm(a - a.conj().T) > tol.bound(scale):
        return False
    evals = np.linalg.eigvalsh((a + a.conj().T) / 2)
    return bool(evals[0] >= -tol.bound(scale))


def vec(x) -> np.ndarray:
    """Column-stacking vectorisation."""
    return as_matrix(x).T.reshape(-1)


def unvec(v, rows: int, cols: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec` for a rows x cols matrix."""
    if cols is None:
        cols = rows
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.size != rows * cols:
        raise DimensionError(f"vector of size {v.size} is not {rows}x{cols}")
    return v.reshape(cols, rows).T


def map_to_superoperator(f, d: int, d_out: int | None = None) -> np.ndarray:
    """Matrix of a linear map on d x d input, acting on column-stacked vecs.

    ``f`` takes a d x d array to a d_out x d_out array; the result M
    satisfies ``M @ vec(X) == vec(f(X))``.
    """
    if d < 1:
        raise DimensionError("input dimension must be positive")
    probe = f(np.zeros((d, d), dtype=np.complex128))
    probe = as_matrix(probe)
    if d_out is None:
        d_out = probe.shape[0]
    m = np.zeros((d_out * d_out, d * d), dtype=np.complex128)
    for k in range(d * d):
        e = np.zeros(d * d, dtype=np.complex128)
        e[k] = 1.0
        m[:, k] = vec(f(unvec(e, d)))
    return m
