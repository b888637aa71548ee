"""Structural verdicts for two-copy covariant maps.

Every verdict is a function of the six weights and d alone: no image,
superoperator or Choi matrix is realized.  With trace terms present the
complete-positivity verdict is an eigenvalue test at tolerance on the Choi
spectrum, read in closed form from one 2 x 2 block and the trace-sector
weights; it is tagged ``numerical-only`` because it is not a closed
inequality in the weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import DEFAULT_TOL, DimensionError, Tolerance, as_matrix, operator_norm
from .multicopy import _schur_weyl
from .operators import _shaped
from .twocopy import (
    CovariantCoefficients,
    gauge_reduce,
    maps_equal,
    virtual_broadcast_coefficients,
)

__all__ = [
    "CpResult",
    "ClassificationReport",
    "is_self_adjoint",
    "is_positive",
    "is_cp",
    "satisfies_broadcast",
    "is_permutation_invariant",
    "is_classically_consistent",
    "is_virtual_broadcaster",
    "commutant_fit",
    "classical_broadcast",
    "diagonal_pinch",
    "classify",
]


def _self_adjoint_violation(c: CovariantCoefficients) -> float:
    c1, c2, c3, c4, c5, c6 = c.coeffs
    return max(
        abs(c1.imag),
        abs(c2.imag),
        abs(c5.imag),
        abs(c6.imag),
        abs(c4 - np.conj(c3)),
    )


def is_self_adjoint(c: CovariantCoefficients, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether the realized map sends Hermitian matrices to Hermitian ones.

    Exactly when the gauge-reduced weights have c1, c2, c5, c6 real and
    c4 = conj(c3).  At d = 2 the reduction loses nothing: such vectors form
    a real subspace containing the real gauge direction g, and every
    representative of a self-adjoint map differs from one of them by a
    complex multiple of g, which gauge_reduce removes.
    """
    thr = tol.bound(max(1.0, c.max_magnitude()))
    return bool(_self_adjoint_violation(gauge_reduce(c)) <= thr)


def _real_normal_form(c: CovariantCoefficients):
    """Real weights (m1, m2, m5, m6) and complex m3 of a self-adjoint vector."""
    g = gauge_reduce(c)
    c1, c2, c3, c4, c5, c6 = g.coeffs
    m3 = (c3 + np.conj(c4)) / 2
    return c1.real, c2.real, complex(m3), c5.real, c6.real


def _trace_sector(m5: float, m6: float, d: int) -> list[float]:
    """Weights m5 + m6 and, for d >= 3 only, m5 - m6 of the trace sector."""
    return [m5 + m6, m5 - m6] if d >= 3 else [m5 + m6]


def _choi_spectrum(c: CovariantCoefficients) -> np.ndarray:
    """Distinct eigenvalues of the Hermitian part of the Choi matrix.

    The Choi matrix commutes with conj(U) (x) U (x) U, so it lies in the
    walled Brauer algebra B_{2,1}(d).  The vectors sum_k |k, k, v> and
    sum_k |k, v, k> span two copies of C^d with Gram matrix
    G = [[d, 1], [1, d]]; there the matrix acts as R K R + T with R = G^1/2,
    K = [[m2, m3], [conj m3, m1]] and T = [[m5, m6], [m6, m5]].  The rest
    of the spectrum is the trace sector.
    """
    m1, m2, m3, m5, m6 = _real_normal_form(c)
    a, b = np.sqrt(c.d + 1), np.sqrt(c.d - 1)
    r = np.array([[a + b, a - b], [a - b, a + b]]) / 2
    k = np.array([[m2, m3], [np.conj(m3), m1]], dtype=np.complex128)
    t = np.array([[m5, m6], [m6, m5]])
    block = np.linalg.eigvalsh(r @ k @ r + t)
    return np.concatenate([block, _trace_sector(m5, m6, c.d)])


def positivity_margin(c: CovariantCoefficients) -> float:
    """Smallest slack among the positivity conditions; >= 0 means positive.

    The conditions are exactly the eigenvalue families of the image of
    e1 e1*: the total weight, the 2 x 2 mixing block, and the trace-sector
    weights (m5 +- m6 for d >= 3, m5 + m6 for d = 2).
    """
    m1, m2, m3, m5, m6 = _real_normal_form(c)
    total = m1 + m2 + 2 * m3.real + m5 + m6
    block = np.array(
        [[m1 + m5, np.conj(m3) + m6], [m3 + m6, m2 + m5]], dtype=np.complex128
    )
    block_min = float(np.linalg.eigvalsh(block)[0])
    return float(min(total, block_min, *_trace_sector(m5, m6, c.d)))


def is_positive(c: CovariantCoefficients, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether the map sends PSD matrices to PSD matrices.

    Non-self-adjoint input is not positive.  For self-adjoint input the
    verdict is the closed criterion, equivalent to PSD-ness of the image
    of a rank-one projector.
    """
    if not is_self_adjoint(c, tol):
        return False
    thr = tol.bound(max(1.0, c.max_magnitude()))
    return positivity_margin(c) >= -thr


@dataclass(frozen=True)
class CpResult:
    """Complete-positivity verdict.

    status is "yes"/"no" when the closed trace-free criterion applies and
    "numerical-only" otherwise: an eigenvalue test at tolerance, not a
    closed inequality in the weights.  is_cp always carries the boolean
    outcome, witness the binding slack (criterion margin or smallest
    eigenvalue of the Hermitian part of the Choi matrix).
    """

    status: str
    is_cp: bool
    witness: float


def is_cp(c: CovariantCoefficients, tol: Tolerance = DEFAULT_TOL) -> CpResult:
    """Complete positivity: closed criterion when trace terms vanish.

    Trace-free family: c1 >= 0, c2 >= 0, c4 = conj(c3) and
    c1 * c2 >= |c3|^2.  With trace terms present the map is CP when it is
    self-adjoint and the smallest Choi eigenvalue (see _choi_spectrum) is
    at least -tol.bound(largest |eigenvalue|); tagged numerical-only.
    """
    c1, c2, c3, c4, c5, c6 = c.coeffs
    scale = max(1.0, c.max_magnitude())
    thr = tol.bound(scale)
    if max(abs(c5), abs(c6)) <= thr:
        margins = [
            -abs(c1.imag),
            -abs(c2.imag),
            c1.real,
            c2.real,
            -abs(c4 - np.conj(c3)),
        ]
        linear = min(margins)
        det = c1.real * c2.real - abs(c3) ** 2
        ok = linear >= -thr and det >= -tol.bound(scale**2)
        return CpResult("yes" if ok else "no", ok, float(min(linear, det)))
    spectrum = _choi_spectrum(c)
    witness = float(spectrum.min())
    ok = is_self_adjoint(c, tol) and witness >= -tol.bound(np.abs(spectrum).max())
    return CpResult("numerical-only", bool(ok), witness)


def broadcast_residual(c: CovariantCoefficients) -> float:
    """Largest violation of the linear broadcast constraints."""
    c1, c2, c3, c4, c5, c6 = c.coeffs
    d = c.d
    return float(
        max(abs(c1 - c2), abs(d * c1 + c3 + c4 - 1), abs(d * c5 + c2 + c6))
    )


def satisfies_broadcast(c: CovariantCoefficients, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether both partial traces of every image reproduce the input."""
    thr = tol.bound(max(1.0, c.max_magnitude()))
    return broadcast_residual(c) <= thr


def is_permutation_invariant(c: CovariantCoefficients, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether swapping the two output factors leaves every image fixed.

    Holds exactly when c1 = c2 and c3 = c4; both differences are gauge
    invariant, so the d = 2 reduction is only for canonical form.
    """
    g = gauge_reduce(c)
    c1, c2, c3, c4, _, _ = g.coeffs
    thr = tol.bound(max(1.0, c.max_magnitude()))
    return bool(max(abs(c1 - c2), abs(c3 - c4)) <= thr)


def _check_basis(basis, d: int, tol: Tolerance) -> np.ndarray:
    if basis is None:
        return np.eye(d, dtype=np.complex128)
    b = as_matrix(basis)
    if b.shape != (d, d):
        raise DimensionError(f"basis shape {b.shape} does not match d={d}")
    if operator_norm(b.conj().T @ b - np.eye(d)) > tol.bound(1.0):
        raise ValueError("basis columns are not orthonormal")
    return b


def diagonal_pinch(x, basis=None, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Keep the diagonal of ``x`` in the given orthonormal basis."""
    x = as_matrix(x)
    d = x.shape[0]
    if x.shape != (d, d):
        raise DimensionError("pinch needs a square matrix")
    b = _check_basis(basis, d, tol)
    y = b.conj().T @ x @ b
    return b @ np.diag(np.diag(y)) @ b.conj().T


def classical_broadcast(x, basis=None, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Diagonal-copy map: each basis weight goes to the doubled projector."""
    x = as_matrix(x)
    d = x.shape[0]
    b = _check_basis(basis, d, tol)
    weights = np.diag(b.conj().T @ x @ b)
    doubled = (b[:, None, :] * b[None, :, :]).reshape(d * d, d)  # columns b_i (x) b_i
    return (doubled * weights) @ doubled.conj().T


def is_classically_consistent(
    c: CovariantCoefficients, tol: Tolerance = DEFAULT_TOL, basis=None
) -> bool:
    """Whether pinch -> map -> doubled pinch equals the diagonal-copy map.

    The doubled pinch keeps the diagonal of the image of E_ii, which is
    c1 [b = i] + c2 [a = i] + (c3 + c4) [a = b = i] + c5 + c6 [a = b] at
    |a, b>, and must equal [a = b = i].  The cases a = b = i, a != b = i,
    b != a = i, a = b != i and (d >= 3) a, b, i distinct leave the residual
    max |sum(c) - 1|, |c1 + c5|, |c2 + c5|, |c5 + c6|, |c5|.  By covariance
    the verdict is the same in every orthonormal basis, so ``basis`` is
    only validated.
    """
    _check_basis(basis, c.d, tol)
    c1, c2, _, _, c5, c6 = c.coeffs
    defects = [sum(c.coeffs) - 1, c1 + c5, c2 + c5, c5 + c6] + ([c5] if c.d >= 3 else [])
    thr = tol.bound(max(1.0, c.max_magnitude()))
    return max(map(abs, defects)) <= thr


def is_virtual_broadcaster(c: CovariantCoefficients, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether the map is the symmetrized broadcaster, up to gauge."""
    return maps_equal(c, virtual_broadcast_coefficients(c.d), tol)


def commutant_fit(t, d: int) -> tuple[complex, complex, float]:
    """Best approximation of a two-copy operator by alpha*I + beta*S.

    The m = 2 case of the permutation-span solve behind
    :func:`covmap.multicopy.schur_weyl_fit`, without its desk-scale cap;
    returns (alpha, beta, Frobenius residual).  Residual 0 certifies
    membership in the commutant of all U (x) U.
    """
    fit = _schur_weyl(_shaped(t, d, kind="operator"), 2, d)
    alpha, beta = fit.coefficients
    return complex(alpha), complex(beta), fit.residual


@dataclass(frozen=True)
class ClassificationReport:
    """All verdicts for one coefficient vector, with numeric evidence.

    Evidence keys mirror the predicates: violations are maxima that must
    stay below tolerance, margins are minima that must stay above its
    negative.
    """

    d: int
    coefficients: CovariantCoefficients
    self_adjoint: bool
    positive: bool
    completely_positive: str
    broadcasting: bool
    permutation_invariant: bool
    classically_consistent: bool
    virtual_broadcaster: bool
    evidence: dict = field(default_factory=dict)


def classify(
    c: CovariantCoefficients, tol: Tolerance = DEFAULT_TOL, basis=None
) -> ClassificationReport:
    """Run every verdict once and bundle the results."""
    sa = is_self_adjoint(c, tol)
    cp = is_cp(c, tol)
    evidence = {
        "self_adjoint_violation": float(_self_adjoint_violation(gauge_reduce(c))),
        "positivity_margin": positivity_margin(c) if sa else None,
        "cp_witness": cp.witness,
        "cp_holds": cp.is_cp,
        "broadcast_residual": broadcast_residual(c),
        "virtual_broadcaster_distance": float(
            np.abs(
                gauge_reduce(c).as_array()
                - gauge_reduce(virtual_broadcast_coefficients(c.d)).as_array()
            ).max()
        ),
    }
    return ClassificationReport(
        d=c.d,
        coefficients=c,
        self_adjoint=sa,
        positive=is_positive(c, tol),
        completely_positive=cp.status,
        broadcasting=satisfies_broadcast(c, tol),
        permutation_invariant=is_permutation_invariant(c, tol),
        classically_consistent=is_classically_consistent(c, tol, basis),
        virtual_broadcaster=is_virtual_broadcaster(c, tol),
        evidence=evidence,
    )
