"""Norm analysis for the trace-free four-generator family.

With P+- = (I +- S)/2, a trace-free map is Phi(X) = sum_ab M_ab P_a (I (x) X) P_b:
the Schur multiplier with symbol M = [[m1, m2], [m3, m4]]
(``corner_coefficients``) after the unital *-homomorphism X -> I (x) X.  A
Schur multiplier's cb norm equals its norm (Haagerup; Paulsen, Completely
Bounded Maps and Operator Algebras, CUP 2002), and every 2 x 2 unitary is a
real rotation R_phi between two diagonal unitaries, which commute with the
multiplier.  So ||Phi||_cb = max_phi sigma_max(M o R_phi), which ``cb_norm``
computes exactly.

Both public functions read the weights once, through ``_window``: in the
two-copy window, refused if a part is inf or NaN, and at d = 2 moved to the
representative without a gauge part in c5.  ``cb_norm`` then evaluates at
most four witnesses diag(1, z, 1, ..., 1), each on its first min(d, 3)
eigenvalues, which hold every distinct 2 x 2 block of its image.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, _scaled
from .twocopy import GAUGE_DIRECTION, CovariantCoefficients, _in_window

__all__ = [
    "TraceTermsError",
    "CbNormResult",
    "corner_coefficients",
    "cb_norm",
]

# _SIGNS @ (c1, c2, c3, c4) = (m1, m2, m3, m4); _SIGNS @ |m|^2 / 4 = (A, C, B, D) of cb_norm.
_SIGNS = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, -1, -1, 1], [1, 1, -1, -1]])


class TraceTermsError(ValueError):
    """Raised when trace-term weights are present but must vanish."""


def _window(c: CovariantCoefficients, tol: Tolerance) -> tuple[np.ndarray, Tolerance, int, float]:
    """Weights w of a representative of c, with the tol, shift and scale of twocopy._in_window.

    w is c times 2**-shift.  At d = 2 the gauge moves c5 and c6 oppositely,
    so only c5 + c6 belongs to the map; w is then c + c5 g, whose c5 is 0
    and whose c6 is c5 + c6, and w[:4] gives corners that are a function
    of the map.  scale is read from the weights before that move.
    ValueError if a weight part is inf or NaN.
    """
    c, tol, shift, scale = _in_window(c, tol)
    if not all(map(cmath.isfinite, c.coeffs)):
        raise ValueError("a value overflows the double range")
    w = c.as_array()
    return (w + w[4] * GAUGE_DIRECTION if c.d == 2 else w), tol, shift, scale


def corner_coefficients(c: CovariantCoefficients) -> tuple[complex, complex, complex, complex]:
    """Weights of the compression to the symmetric/antisymmetric corners.

    m1 acts on sym->sym, m4 on anti->anti, m2 and m3 on the off-diagonal
    corners: M = [[m1, m2], [m3, m4]] is the map's Schur symbol on the P+-
    blocks.  Trace terms are allowed and ignored.  At d = 2 the weights are
    read from the representative c + c5 g with c5 = 0, so they are a
    function of the map, not of the representative.  They are formed in
    the window of twocopy._in_window and scaled back; a weight part that is
    inf or NaN, or a corner past the double range, raises ValueError.
    """
    w, _, shift, _ = _window(c, DEFAULT_TOL)
    return tuple(_scaled(_SIGNS @ w[:4], shift))


# Index pairs i < j of the witness eigenvalues (1, z, 1), by min(d, 3): the block (1, z) at
# d = 2; (1, z), (1, 1) and (z, 1) at d >= 3.
_PAIRS = {2: (np.array([0]), np.array([1])), 3: (np.array([0, 0, 1]), np.array([1, 2, 2]))}


def _witness_norms(w: np.ndarray, z: np.ndarray, d: int) -> np.ndarray:
    """Image norms of the trace-free weights w on the witnesses diag(1, z, 1, ..., 1), one per z.

    Phi(diag lam) is (c1+c2+c3+c4) lam_i on e_i (x) e_i and, for i < j, the
    2 x 2 block M below on {e_i (x) e_j, e_j (x) e_i}.  A witness's pairs
    (lam_i, lam_j) are (1, z), (1, 1) and (z, 1), all held by its first
    min(d, 3) eigenvalues; d = 2 has (1, z) alone.  sigma_max(M)^2 is taken
    from the Gram matrix M^H M as (p + r)/2 + hypot((p - r)/2, |q|), a sum
    of two nonnegative terms; the textbook root of s^2 - 4|det M|^2 would
    lose half the digits where the two singular values meet.
    """
    c1, c2, c3, c4 = w[:4]
    lam = np.ones((len(z), 3), dtype=np.complex128)
    lam[:, 1] = z
    i, j = _PAIRS[min(d, 3)]
    li, lj = lam.take(i, 1), lam.take(j, 1)
    m11, m12 = c1 * lj + c2 * li, c3 * li + c4 * lj
    m21, m22 = c3 * lj + c4 * li, c1 * li + c2 * lj
    p = np.abs(m11) ** 2 + np.abs(m21) ** 2
    r = np.abs(m12) ** 2 + np.abs(m22) ** 2
    q = np.abs(m11.conj() * m12 + m21.conj() * m22)
    pairs = np.sqrt((p + r) / 2 + np.hypot((p - r) / 2, q)).max(axis=1)
    return np.maximum(abs(c1 + c2 + c3 + c4) * np.maximum(np.abs(z), 1.0), pairs)


@dataclass(frozen=True)
class CbNormResult:
    """The exact cb norm of a trace-free map: value_kind "exact", method "schur-multiplier".

    detail holds the corner magnitudes |m1|..|m4| and witness_angle theta: the
    norm-one input diag(1, e^{i theta}, 1, ..., 1) has image norm ``value``.
    """

    value_kind: str
    value: float
    method: str
    detail: dict


def cb_norm(
    c: CovariantCoefficients,
    samples: int = 500,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> CbNormResult:
    """Completely bounded norm of a trace-free map, exact at every d >= 2.

    With x = cos 2 phi, sigma_max(M o R_phi)^2 = A + B x + sqrt(Q(x)), where
    Q(x) = (C + D x)^2 + k (1 - x^2), (A, C, B, D) = _SIGNS |m|^2 / 4 and
    k = |conj(m3) m4 - conj(m1) m2|^2 / 4.  The maximum lies at x = +-1 or at a
    root of 4 B^2 Q = Q'^2, and each candidate is evaluated as the image norm of
    its witness diag(1, e^{i theta}, 1, ..., 1), theta = arccos x, so a spurious
    root cannot raise it.  ``samples`` and ``seed`` are ignored (no draw is
    made); they are accepted because ``perfbench/workloads.py`` passes both.

    The corners and image norms are formed from the weights in the window of
    twocopy._in_window, where no square passes the double range or, for
    the largest weights, underflows; the value and corner magnitudes are
    scaled back, and a result past the double range raises ValueError.
    TraceTermsError if c5 or c6 of the representative (c5 + c6 at d = 2)
    exceeds tol.bound(max(1, largest weight magnitude)), read in the window.
    """
    w, tol, shift, scale = _window(c, tol)
    if max(abs(w[4]), abs(w[5])) > tol.bound(scale):
        raise TraceTermsError("trace-term weights must vanish for norm analysis")
    m = _SIGNS @ w[:4]
    n = m / (np.abs(m).max() or 1.0)  # the candidate angles do not depend on scale
    _, cc, b, dd = _SIGNS @ np.abs(n) ** 2 / 4
    k = abs(n[2].conjugate() * n[3] - n[0].conjugate() * n[1]) ** 2 / 4
    alpha, h, gamma = dd * dd - k, cc * dd, cc * cc + k  # Q(x) = alpha x^2 + 2 h x + gamma
    a2, a1, a0 = alpha * (b * b - alpha), 2 * h * (b * b - alpha), b * b * gamma - h * h
    q = -(a1 + math.copysign(math.sqrt(max(a1 * a1 - 4 * a2 * a0, 0.0)), a1)) / 2  # stable roots
    x = np.clip([1.0, -1.0] + ([a0 / q] if q else []) + ([q / a2] if a2 else []), -1.0, 1.0)
    values = _witness_norms(w, x + 1j * np.sqrt(1 - x * x), c.d)
    best = int(np.argmax(values))
    magnitudes, value = np.abs(m).tolist(), float(values[best])
    if shift:
        magnitudes, value = [_scaled(v, shift) for v in magnitudes], _scaled(value, shift)
    detail = {"corner_magnitudes": magnitudes, "witness_angle": float(np.arccos(x[best]))}
    return CbNormResult("exact", value, "schur-multiplier", detail)

