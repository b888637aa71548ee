"""Norm analysis for the trace-free four-generator family.

The completely bounded norm is computed exactly where a closed form is
known and bracketed or bounded below otherwise:

(i)   swap-symmetric weights (c1 = c2, c3 = c4): the cb norm equals the
      operator norm of the image of the identity;
(ii)  weights on the determinantal variety c1*c2 = c3*c4: the map
      compresses onto the symmetric/antisymmetric corners, whose four
      weights m1..m4 satisfy m1*m4 = m2*m3; when the image of the
      identity dominates the off-diagonal corners its norm is again the
      cb norm, otherwise max|m_k| is a certified upper bound paired with
      a Monte-Carlo lower bound;
(iii) everything else: Monte-Carlo lower bound only, the largest image
      norm over the identity, Haar unitaries and normalized Gaussian
      Hermitian probes.  Each probe is normal, so its image norm is read
      from its eigenvalues (one 2 x 2 block per eigenvalue pair) instead
      of a d^2 x d^2 SVD; the probe set is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, as_matrix, operator_norm
from .operators import _BLOCK, _check_samples, _gaussian_hermitians, _haar_unitaries
from .twocopy import GAUGE_DIRECTION, CovariantCoefficients, apply_map

__all__ = [
    "TraceTermsError",
    "CbNormResult",
    "corner_coefficients",
    "psi_identity_norm",
    "monte_carlo_norm",
    "cb_norm",
    "corner_norm_bound_check",
]


class TraceTermsError(ValueError):
    """Raised when trace-term weights are present but must vanish."""


def _trace_free(c: CovariantCoefficients, tol: Tolerance) -> CovariantCoefficients:
    """The representative of c without trace terms; TraceTermsError if the map has them.

    At d = 2 the gauge moves c5 and c6 oppositely, so only c5 + c6 belongs to
    the map; the representative is then c + c5 g.  Otherwise c is returned.
    """
    c5, c6 = c.coeffs[4], c.coeffs[5]
    trace = abs(c5 + c6) if c.d == 2 else max(abs(c5), abs(c6))
    if trace > tol.bound(max(1.0, c.max_magnitude())):
        raise TraceTermsError("trace-term weights must vanish for norm analysis")
    if c.d > 2 or c5 == 0:
        return c
    return CovariantCoefficients(2, tuple(c.as_array() + c5 * GAUGE_DIRECTION))


def corner_coefficients(c: CovariantCoefficients) -> tuple[complex, complex, complex, complex]:
    """Weights of the compression to the symmetric/antisymmetric corners.

    m1 acts on sym->sym, m4 on anti->anti, m2 and m3 on the off-diagonal
    corners.  m1*m4 - m2*m3 = 4*(c1*c2 - c3*c4), so on the variety
    c1*c2 = c3*c4 the corner weights satisfy m1*m4 = m2*m3.
    """
    c1, c2, c3, c4, _, _ = c.coeffs
    m1 = c1 + c2 + c3 + c4
    m2 = c1 - c2 + c3 - c4
    m3 = c1 - c2 - c3 + c4
    m4 = c1 + c2 - c3 - c4
    return m1, m2, m3, m4


def psi_identity_norm(c: CovariantCoefficients, tol: Tolerance = DEFAULT_TOL) -> float:
    """Operator norm of the image of the identity, via the closed form.

    The image of I is (c1+c2) I + (c3+c4) S with eigenvalues
    (c1+c2) +- (c3+c4); the direct operator norm is evaluated too and the
    two must agree, as an internal consistency check.
    """
    c = _trace_free(c, tol)
    c1, c2, c3, c4, _, _ = c.coeffs
    value = max(abs(c1 + c2 + c3 + c4), abs(c1 + c2 - c3 - c4))
    direct = operator_norm(apply_map(c, np.eye(c.d)))
    if abs(value - direct) > tol.bound(value):
        raise RuntimeError(
            f"identity-image norm mismatch: closed form {value}, direct {direct}"
        )
    return float(value)


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
    i, j = np.triu_indices(lam.shape[1], 1)
    li, lj = lam[:, i], lam[:, j]
    m11, m12 = c1 * lj + c2 * li, c3 * li + c4 * lj
    m21, m22 = c3 * lj + c4 * li, c1 * li + c2 * lj
    p = np.abs(m11) ** 2 + np.abs(m21) ** 2
    r = np.abs(m12) ** 2 + np.abs(m22) ** 2
    q = np.abs(m11.conj() * m12 + m21.conj() * m22)
    pairs = np.sqrt((p + r) / 2 + np.hypot((p - r) / 2, q)).max(axis=1)
    return np.maximum(abs(c1 + c2 + c3 + c4) * np.abs(lam).max(axis=1), pairs)


def _probes(d: int, seed: int, ks: range) -> tuple[np.ndarray, np.ndarray]:
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
        us, hs = _probes(d, seed, range(start, min(start + 2 * _BLOCK, samples)))
        lam = np.linalg.eigvalsh(hs)
        nrm = np.abs(lam).max(axis=1)  # the operator norm; a zero probe is skipped
        lam = lam[nrm != 0.0] / nrm[nrm != 0.0, None]
        spectra = np.concatenate([np.linalg.eigvals(us), lam])
        best = max(best, _spectral_norms(c, spectra).max())
    return float(best)


@dataclass(frozen=True)
class CbNormResult:
    """Outcome of the cb-norm cascade.

    value_kind is "exact", "bracket" (value = (lower, upper)) or
    "lower_bound".  method records which route produced the value:
    "swap-symmetric", "corner-compression" or "monte-carlo".  detail
    carries the corner magnitudes and sampling parameters actually used.
    """

    value_kind: str
    value: float | tuple[float, float]
    method: str
    detail: dict


def cb_norm(
    c: CovariantCoefficients,
    samples: int = 500,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> CbNormResult:
    """Completely bounded norm of a trace-free map, exact when possible."""
    c = _trace_free(c, tol)
    c1, c2, c3, c4, _, _ = c.coeffs
    scale = max(1.0, c.max_magnitude())
    thr = tol.bound(scale)
    m1, m2, m3, m4 = corner_coefficients(c)
    detail = {"corner_magnitudes": [abs(m1), abs(m2), abs(m3), abs(m4)]}
    # m1 and m4 are the eigenvalues (c1 + c2) +- (c3 + c4) of the identity's image.
    identity_norm = max(abs(m1), abs(m4))
    if max(abs(c1 - c2), abs(c3 - c4)) <= thr:
        return CbNormResult("exact", float(identity_norm), "swap-symmetric", detail)
    on_variety = abs(c1 * c2 - c3 * c4) <= tol.bound(scale**2)
    if on_variety and identity_norm >= max(abs(m2), abs(m3)) - thr:
        return CbNormResult("exact", float(identity_norm), "corner-compression", detail)
    lower = monte_carlo_norm(c, samples, seed, tol)
    detail["samples"] = samples
    detail["seed"] = seed
    if on_variety:
        upper = max(identity_norm, abs(m2), abs(m3))
        return CbNormResult("bracket", (lower, upper), "corner-compression", detail)
    return CbNormResult("lower_bound", lower, "monte-carlo", detail)


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
