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
(iii) everything else: Monte-Carlo lower bound only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_TOL, Tolerance, as_matrix, operator_norm
from .operators import _BLOCK, _check_samples, _haar_unitaries, gaussian_hermitian, substream
from .twocopy import CovariantCoefficients, apply_map

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


def _require_trace_free(c: CovariantCoefficients, tol: Tolerance) -> None:
    c5, c6 = c.coeffs[4], c.coeffs[5]
    if max(abs(c5), abs(c6)) > tol.bound(max(1.0, c.max_magnitude())):
        raise TraceTermsError("trace-term weights must vanish for norm analysis")


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
    _require_trace_free(c, tol)
    c1, c2, c3, c4, _, _ = c.coeffs
    value = max(abs(c1 + c2 + c3 + c4), abs(c1 + c2 - c3 - c4))
    direct = operator_norm(apply_map(c, np.eye(c.d)))
    if abs(value - direct) > tol.bound(value):
        raise RuntimeError(
            f"identity-image norm mismatch: closed form {value}, direct {direct}"
        )
    return float(value)


def monte_carlo_norm(
    c: CovariantCoefficients, samples: int = 500, seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Lower bound on the map norm: max image norm over unit-norm probes.

    The identity is always probed first, then Haar unitaries alternate
    with normalized Gaussian Hermitian samples.  Deterministic per seed.
    """
    _require_trace_free(c, tol)
    _check_samples(samples)
    d = c.d
    best = operator_norm(apply_map(c, np.eye(d)))
    for start in range(1, samples, 2 * _BLOCK):  # Haar at odd k, Gaussian at even k
        ks = range(start, min(start + 2 * _BLOCK, samples))
        probes = list(_haar_unitaries(d, seed, ks[::2]))
        for k in ks[1::2]:
            h = gaussian_hermitian(d, substream(seed, k, stream=1))
            nrm = operator_norm(h)
            if nrm != 0.0:
                probes.append(h / nrm)
        best = max([best] + [operator_norm(apply_map(c, x)) for x in probes])
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
    _require_trace_free(c, tol)
    c1, c2, c3, c4, _, _ = c.coeffs
    scale = max(1.0, c.max_magnitude())
    thr = tol.bound(scale)
    m1, m2, m3, m4 = corner_coefficients(c)
    detail = {"corner_magnitudes": [abs(m1), abs(m2), abs(m3), abs(m4)]}
    if max(abs(c1 - c2), abs(c3 - c4)) <= thr:
        # m1 = 2(c1 + c3) and m4 = 2(c1 - c3) are the two eigenvalue families.
        value = max(abs(m1), abs(m4))
        return CbNormResult("exact", float(value), "swap-symmetric", detail)
    on_variety = abs(c1 * c2 - c3 * c4) <= tol.bound(scale**2)
    if on_variety:
        identity_norm = max(abs(m1), abs(m4))
        if identity_norm >= max(abs(m2), abs(m3)) - thr:
            return CbNormResult("exact", float(identity_norm), "corner-compression", detail)
        lower = monte_carlo_norm(c, samples, seed, tol)
        upper = max(abs(m1), abs(m2), abs(m3), abs(m4))
        detail["samples"] = samples
        detail["seed"] = seed
        return CbNormResult("bracket", (float(lower), float(upper)), "corner-compression", detail)
    lower = monte_carlo_norm(c, samples, seed, tol)
    detail["samples"] = samples
    detail["seed"] = seed
    return CbNormResult("lower_bound", float(lower), "monte-carlo", detail)


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
