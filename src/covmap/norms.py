"""Norm analysis for the trace-free four-generator family.

With P+- = (I +- S)/2, a trace-free map is Phi(X) = sum_ab M_ab P_a (I (x) X) P_b:
the Schur multiplier with symbol M = [[m1, m2], [m3, m4]]
(``corner_coefficients``) after the unital *-homomorphism X -> I (x) X.  A
Schur multiplier's cb norm equals its norm (Haagerup; Paulsen, Completely
Bounded Maps and Operator Algebras, CUP 2002), and every 2 x 2 unitary is a
real rotation R_phi between two diagonal unitaries, which commute with the
multiplier.  So ||Phi||_cb = max_phi sigma_max(M o R_phi), which ``cb_norm``
computes exactly.  ``monte_carlo_norm``, ``psi_identity_norm`` and
``corner_norm_bound_check`` stay public as independent reference checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, _scaled, as_matrix, operator_norm
from .operators import _BLOCK, _check_samples, _gaussian_hermitians, _haar_unitaries
from .twocopy import GAUGE_DIRECTION, CovariantCoefficients

__all__ = [
    "TraceTermsError",
    "CbNormResult",
    "corner_coefficients",
    "psi_identity_norm",
    "monte_carlo_norm",
    "cb_norm",
    "corner_norm_bound_check",
]

# _SIGNS @ (c1, c2, c3, c4) = (m1, m2, m3, m4); _SIGNS @ |m|^2 / 4 = (A, C, B, D) of cb_norm.
_SIGNS = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, -1, -1, 1], [1, 1, -1, -1]])


class TraceTermsError(ValueError):
    """Raised when trace-term weights are present but must vanish."""


def _trace_free(c: CovariantCoefficients, tol: Tolerance) -> CovariantCoefficients:
    """The representative of c without trace terms; TraceTermsError if the map has them.

    At d = 2 the gauge moves c5 and c6 oppositely, so only c5 + c6 belongs to
    the map; the representative is then c + c5 g.  Otherwise c is returned.
    """
    c5, c6 = c.coeffs[4], c.coeffs[5]
    trace = abs(c5 + c6) if c.d == 2 else max(abs(c5), abs(c6))
    if trace > tol.bound(max(1.0, *map(abs, c.coeffs))):
        raise TraceTermsError("trace-term weights must vanish for norm analysis")
    if c.d > 2 or c5 == 0:
        return c
    return CovariantCoefficients(2, tuple(c.as_array() + c5 * GAUGE_DIRECTION))


def corner_coefficients(c: CovariantCoefficients) -> tuple[complex, complex, complex, complex]:
    """Weights of the compression to the symmetric/antisymmetric corners.

    m1 acts on sym->sym, m4 on anti->anti, m2 and m3 on the off-diagonal
    corners: M = [[m1, m2], [m3, m4]] is the map's Schur symbol on the P+-
    blocks.  Trace terms are allowed and ignored.  At d = 2 the weights are
    read from the representative c + c5 g with c5 = 0, so they are a
    function of the map, not of the representative.
    """
    w = c.as_array()
    if c.d == 2:
        w = w + w[4] * GAUGE_DIRECTION
    return tuple(_SIGNS @ w[:4])


def psi_identity_norm(c: CovariantCoefficients, tol: Tolerance = DEFAULT_TOL) -> float:
    """Operator norm of the image of the identity, in closed form.

    The image of I is (c1+c2) I + (c3+c4) S with eigenvalues
    (c1+c2) +- (c3+c4).
    """
    c = _trace_free(c, tol)
    c1, c2, c3, c4, _, _ = c.coeffs
    return float(max(abs(c1 + c2 + c3 + c4), abs(c1 + c2 - c3 - c4)))


@functools.lru_cache(maxsize=None)
def _pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(d, 1), read-only: the index pairs i < j depend on d alone."""
    pairs = np.triu_indices(d, 1)
    for a in pairs:
        a.setflags(write=False)
    return pairs


def _spectral_norms(c: CovariantCoefficients, lam: np.ndarray) -> np.ndarray:
    """Image norms of normal inputs with eigenvalues lam, one row per input.

    By covariance a normal X = V diag(lam) V^dag has the image
    (V (x) V) Phi(diag lam) (V (x) V)^dag, of the same norm.  Phi(diag lam)
    is (c1+c2+c3+c4) lam_i on e_i (x) e_i and, for i < j, the 2 x 2 block M
    below on {e_i (x) e_j, e_j (x) e_i}.  sigma_max(M)^2 is taken from the
    Gram matrix M^H M as (p + r)/2 + hypot((p - r)/2, |q|), a sum of two
    nonnegative terms; the textbook root of s^2 - 4|det M|^2 would lose
    half the digits where the two singular values meet.
    """
    c1, c2, c3, c4, _, _ = c.coeffs
    i, j = _pairs(lam.shape[1])
    li, lj = lam[:, i], lam[:, j]
    m11, m12 = c1 * lj + c2 * li, c3 * li + c4 * lj
    m21, m22 = c3 * lj + c4 * li, c1 * li + c2 * lj
    p = np.abs(m11) ** 2 + np.abs(m21) ** 2
    r = np.abs(m12) ** 2 + np.abs(m22) ** 2
    q = np.abs(m11.conj() * m12 + m21.conj() * m22)
    pairs = np.sqrt((p + r) / 2 + np.hypot((p - r) / 2, q)).max(axis=1)
    return np.maximum(abs(c1 + c2 + c3 + c4) * np.abs(lam).max(axis=1), pairs)


def _probe_stacks(d: int, seed: int, ks: range) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized probes for the indices ks, which start at an odd k.

    Returns the stacked haar_unitary(d, seed, k) for odd k and the stacked
    gaussian_hermitian(d, substream(seed, k, stream=1)) for even k.
    """
    return _haar_unitaries(d, seed, ks[::2]), _gaussian_hermitians(d, seed, ks[1::2])


def monte_carlo_norm(
    c: CovariantCoefficients, samples: int = 500, seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Lower bound on the map norm: max image norm over unit-norm probes.

    The identity is always probed first, then Haar unitaries alternate
    with normalized Gaussian Hermitian samples.  Deterministic per seed.
    Image norms come from the probes' eigenvalues (``_spectral_norms``);
    the probe set is unchanged, drawn 2 * _BLOCK at a time.
    """
    c = _trace_free(c, tol)
    _check_samples(samples)
    d = c.d
    best = _spectral_norms(c, np.ones((1, d)))[0]
    for start in range(1, samples, 2 * _BLOCK):  # Haar at odd k, Gaussian at even k
        us, hs = _probe_stacks(d, seed, range(start, min(start + 2 * _BLOCK, samples)))
        lam = np.linalg.eigvalsh(hs)
        nrm = np.abs(lam).max(axis=1)  # the operator norm; a zero probe is skipped
        lam = lam[nrm != 0.0] / nrm[nrm != 0.0, None]
        spectra = np.concatenate([np.linalg.eigvals(us), lam])
        best = max(best, _spectral_norms(c, spectra).max())
    return float(best)


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

    Every quantity formed is at most 32 P**2 for the largest weight modulus P,
    so weights with P >= 2**509 are scaled by 2**-shift below that and the
    results scaled back; a result past the double range raises ValueError.
    """
    try:
        shift = max(0, math.frexp(max(map(abs, c.coeffs)))[1] - 509)
    except OverflowError:  # a modulus in [2**1024, 2**1025): its exponent is 1025
        shift = 516
    if shift:
        c = CovariantCoefficients(c.d, tuple(_scaled(c.as_array(), -shift)))
        tol = Tolerance(math.ldexp(tol.abs, -shift), tol.rel)
    c = _trace_free(c, tol)
    m = np.array(corner_coefficients(c))
    n = m / (np.abs(m).max() or 1.0)  # the candidate angles do not depend on scale
    _, cc, b, dd = _SIGNS @ np.abs(n) ** 2 / 4
    k = abs(n[2].conjugate() * n[3] - n[0].conjugate() * n[1]) ** 2 / 4
    alpha, h, gamma = dd * dd - k, cc * dd, cc * cc + k  # Q(x) = alpha x^2 + 2 h x + gamma
    a2, a1, a0 = alpha * (b * b - alpha), 2 * h * (b * b - alpha), b * b * gamma - h * h
    q = -(a1 + math.copysign(math.sqrt(max(a1 * a1 - 4 * a2 * a0, 0.0)), a1)) / 2  # stable roots
    x = np.clip([1.0, -1.0] + ([a0 / q] if q else []) + ([q / a2] if a2 else []), -1.0, 1.0)
    lam = np.ones((len(x), c.d), dtype=np.complex128)
    lam[:, 1] = x + 1j * np.sqrt(1 - x * x)
    values = _spectral_norms(c, lam)
    best = int(np.argmax(values))
    magnitudes, value = np.abs(m).tolist(), float(values[best])
    if shift:
        magnitudes, value = [_scaled(v, shift) for v in magnitudes], _scaled(value, shift)
    detail = {"corner_magnitudes": magnitudes, "witness_angle": float(np.arccos(x[best]))}
    return CbNormResult("exact", value, "schur-multiplier", detail)


def corner_norm_bound_check(
    p, a, mu, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Verify the corner-weights norm bound on concrete input.

    For an orthogonal projector P, weights (m1, m2, m3, m4) with
    m1*m4 = m2*m3 and any A, the operator
    m1 PAP + m2 PAQ + m3 QAP + m4 QAQ (Q = 1 - P) has norm at most
    max|m_k| * ||A||.  Raises if P is not a projector or the determinant
    condition fails; returns whether the bound holds within tolerance.
    """
    p = as_matrix(p)
    a = as_matrix(a)
    if p.shape != a.shape or p.shape[0] != p.shape[1]:
        raise ValueError("projector and operator must be square with equal shape")
    if operator_norm(p - p.conj().T) > tol.bound(1.0) or operator_norm(p @ p - p) > tol.bound(1.0):
        raise ValueError("p is not an orthogonal projector")
    m1, m2, m3, m4 = (complex(z) for z in mu)
    mags = [abs(m1), abs(m2), abs(m3), abs(m4)]
    if abs(m1 * m4 - m2 * m3) > tol.bound(max(1.0, max(mags) ** 2)):
        raise ValueError("corner weights do not satisfy m1*m4 = m2*m3")
    q = np.eye(p.shape[0], dtype=np.complex128) - p
    combo = m1 * (p @ a @ p) + m2 * (p @ a @ q) + m3 * (q @ a @ p) + m4 * (q @ a @ q)
    bound = max(mags) * operator_norm(a)
    return bool(operator_norm(combo) <= bound + tol.bound(max(1.0, bound)))
