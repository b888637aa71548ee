"""Structural verdicts for two-copy covariant maps.

Every verdict is a function of the six weights and d alone: no image,
superoperator or Choi matrix is realized.  With trace terms present the
complete-positivity verdict is an eigenvalue test at tolerance on the Choi
spectrum, read in closed form from one 2 x 2 block and the trace-sector
weights; it is tagged ``numerical-only`` because it is not a closed
inequality in the weights.

A public predicate and :func:`classify` call the same helper per verdict,
and classify evaluates each quantity the verdicts share once.  Weights
outside 2**+-508 are moved into that window by a power of two
(twocopy._in_window) before any verdict quantity is formed.  A witness of
is_cp past the range is the infinity of its sign; classify refuses any
report value past the range with ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import DEFAULT_TOL, DimensionError, Tolerance, _saturated, _scaled, as_matrix, operator_norm
from .multicopy import _schur_weyl
from .operators import _shaped
from .twocopy import (
    CovariantCoefficients,
    _gauge_gap,
    _gauge_reduced,
    _in_window,
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


class _Units(NamedTuple):
    """One call's weights c, times 2**-shift, their gauge reduction g, and in the same
    units the tolerance tol, scale = max(1, largest weight magnitude) and
    thr = tol.bound(scale).

    shift is the window's (twocopy._in_window): 0 inside 2**+-508, so there
    every verdict reads the weights as given.  Each quantity a verdict forms,
    _cp's determinant included, is its unscaled value times 2**-shift (4**-shift
    for the determinant) wherever that is finite.  Weights with an inf or NaN
    part are not scaled.
    """

    c: CovariantCoefficients
    g: CovariantCoefficients
    shift: int
    tol: Tolerance
    scale: float
    thr: float


def _units(c: CovariantCoefficients, tol: Tolerance) -> _Units:
    c, tol, shift, scale = _in_window(c, tol)
    return _Units(c, _gauge_reduced(c), shift, tol, scale, tol.bound(scale))


def _self_adjoint(u: _Units) -> tuple[bool, float]:
    """The self-adjoint verdict and its violation, in units."""
    c1, c2, c3, c4, c5, c6 = u.g.coeffs
    violation = max(abs(c1.imag), abs(c2.imag), abs(c5.imag), abs(c6.imag), abs(c4 - np.conj(c3)))
    return bool(violation <= u.thr), violation


def is_self_adjoint(c: CovariantCoefficients, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether the realized map sends Hermitian matrices to Hermitian ones.

    Exactly when the gauge-reduced weights have c1, c2, c5, c6 real and
    c4 = conj(c3).  At d = 2 the reduction loses nothing: such vectors form
    a real subspace containing the real gauge direction g, and every
    representative of a self-adjoint map differs from one of them by a
    complex multiple of g, which gauge_reduce removes.
    """
    return _self_adjoint(_units(c, tol))[0]


def _real_normal_form(g: CovariantCoefficients):
    """Real weights (m1, m2, m5, m6) and complex m3 of a gauge-reduced self-adjoint vector."""
    c1, c2, c3, c4, c5, c6 = g.coeffs
    m3 = (c3 + np.conj(c4)) / 2
    return c1.real, c2.real, complex(m3), c5.real, c6.real


def _trace_sector(m5: float, m6: float, d: int) -> list[float]:
    """Weights m5 + m6 and, for d >= 3 only, m5 - m6 of the trace sector."""
    return [m5 + m6, m5 - m6] if d >= 3 else [m5 + m6]


def _choi_spectrum(form, d: int) -> np.ndarray:
    """Distinct eigenvalues of the Hermitian part of the Choi matrix, from the real normal form.

    The Choi matrix commutes with conj(U) (x) U (x) U, so it lies in the
    walled Brauer algebra B_{2,1}(d).  The vectors sum_k |k, k, v> and
    sum_k |k, v, k> span two copies of C^d with Gram matrix
    G = [[d, 1], [1, d]]; there the matrix acts as R K R + T with R = G^1/2,
    K = [[m2, m3], [conj m3, m1]] and T = [[m5, m6], [m6, m5]].  The rest
    of the spectrum is the trace sector.
    """
    m1, m2, m3, m5, m6 = form
    a, b = np.sqrt(d + 1), np.sqrt(d - 1)
    r = np.array([[a + b, a - b], [a - b, a + b]]) / 2
    k = np.array([[m2, m3], [np.conj(m3), m1]], dtype=np.complex128)
    t = np.array([[m5, m6], [m6, m5]])
    block = np.linalg.eigvalsh(r @ k @ r + t)
    return np.concatenate([block, _trace_sector(m5, m6, d)])


def _positivity_margin(form, d: int) -> float:
    """Smallest slack among the positivity conditions; >= 0 means positive.

    The conditions are exactly the eigenvalue families of the image of
    e1 e1*: the total weight, the 2 x 2 mixing block, and the trace-sector
    weights (m5 +- m6 for d >= 3, m5 + m6 for d = 2).
    """
    m1, m2, m3, m5, m6 = form
    total = m1 + m2 + 2 * m3.real + m5 + m6
    block = np.array(
        [[m1 + m5, np.conj(m3) + m6], [m3 + m6, m2 + m5]], dtype=np.complex128
    )
    block_min = float(np.linalg.eigvalsh(block)[0])
    return float(min(total, block_min, *_trace_sector(m5, m6, d)))


def _positive(u: _Units, sa: bool, form) -> tuple[bool, float | None]:
    """The positivity verdict and margin, in units; a map that is not self-adjoint has no margin."""
    if not sa:
        return False, None
    margin = _positivity_margin(form, u.c.d)
    return margin >= -u.thr, margin


def is_positive(c: CovariantCoefficients, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether the map sends PSD matrices to PSD matrices.

    Non-self-adjoint input is not positive.  For self-adjoint input the
    verdict is the closed criterion, equivalent to PSD-ness of the image
    of a rank-one projector.
    """
    u = _units(c, tol)
    return _positive(u, _self_adjoint(u)[0], _real_normal_form(u.g))[0]


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


def _cp(u: _Units, sa: bool, form, unscaled) -> CpResult:
    """is_cp from the units, the self-adjoint verdict and the real normal form.

    unscaled(x, e) takes a witness x in units of 2**-e back to 2**e x.
    """
    c1, c2, c3, c4, c5, c6 = u.c.coeffs
    if max(abs(c5), abs(c6)) <= u.thr:
        margins = [
            -abs(c1.imag),
            -abs(c2.imag),
            c1.real,
            c2.real,
            -abs(c4 - np.conj(c3)),
        ]
        linear = min(margins)  # at most -0.0, so a determinant >= 0 never binds
        det = c1.real * c2.real - abs(c3) ** 2  # in units of 4**-shift, as is its bound
        ok = bool(linear >= -u.thr) and det >= -(_saturated(u.tol.abs, -u.shift) + u.tol.rel * u.scale**2)
        witness = unscaled(float(linear), u.shift)
        if det < 0:
            witness = min(witness, unscaled(det, 2 * u.shift))
        return CpResult("yes" if ok else "no", ok, witness)
    spectrum = _choi_spectrum(form, u.c.d)
    witness = float(spectrum.min())
    ok = sa and witness >= -u.tol.bound(np.abs(spectrum).max())
    return CpResult("numerical-only", bool(ok), unscaled(witness, u.shift))


def is_cp(c: CovariantCoefficients, tol: Tolerance = DEFAULT_TOL) -> CpResult:
    """Complete positivity: closed criterion when trace terms vanish.

    Trace-free family: c1 >= 0, c2 >= 0, c4 = conj(c3) and
    c1 * c2 >= |c3|^2.  With trace terms present the map is CP when it is
    self-adjoint and the smallest Choi eigenvalue (see _choi_spectrum) is
    at least -tol.bound(largest |eigenvalue|); tagged numerical-only.
    A witness past the double range is the infinity of its sign.
    """
    u = _units(c, tol)
    return _cp(u, _self_adjoint(u)[0], _real_normal_form(u.g), _saturated)


def _broadcast(u: _Units) -> tuple[bool, float]:
    """The broadcast verdict and the largest violation of its linear constraints, in units."""
    c1, c2, c3, c4, c5, c6 = u.c.coeffs
    d, one = u.c.d, math.ldexp(1.0, -u.shift)
    residual = float(
        max(abs(c1 - c2), abs(d * c1 + c3 + c4 - one), abs(d * c5 + c2 + c6))
    )
    return residual <= u.thr, residual


def satisfies_broadcast(c: CovariantCoefficients, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether both partial traces of every image reproduce the input."""
    return _broadcast(_units(c, tol))[0]


def _permutation_invariant(u: _Units) -> bool:
    c1, c2, c3, c4, _, _ = u.g.coeffs
    return bool(max(abs(c1 - c2), abs(c3 - c4)) <= u.thr)


def is_permutation_invariant(c: CovariantCoefficients, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether swapping the two output factors leaves every image fixed.

    Holds exactly when c1 = c2 and c3 = c4; both differences are gauge
    invariant, so the d = 2 reduction is only for canonical form.
    """
    return _permutation_invariant(_units(c, tol))


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


def _classically_consistent(u: _Units) -> bool:
    c1, c2, _, _, c5, c6 = u.c.coeffs
    defects = [sum(u.c.coeffs) - math.ldexp(1.0, -u.shift), c1 + c5, c2 + c5, c5 + c6]
    defects += [c5] if u.c.d >= 3 else []
    return max(map(abs, defects)) <= u.thr


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
    if basis is not None:
        _check_basis(basis, c.d, tol)
    return _classically_consistent(_units(c, tol))


# B_vb gauge-reduced at d = 2; at d >= 3 the reduction leaves it as it is.
_REDUCED_BROADCASTER_D2 = _gauge_reduced(virtual_broadcast_coefficients(2))


def _virtual_broadcaster(u: _Units) -> tuple[bool, float]:
    """maps_equal(c, B_vb) and the largest gap between their gauge-reduced weights, in units.

    B_vb's reduction times 2**-shift is the reduction of B_vb times 2**-shift,
    bit for bit: inside the window its weights stay normal.
    """
    vb = _REDUCED_BROADCASTER_D2 if u.c.d == 2 else virtual_broadcast_coefficients(u.c.d)
    if u.shift:
        vb = CovariantCoefficients(u.c.d, tuple(_scaled(vb.as_array(), -u.shift)))
    return _gauge_gap(u.g, vb, u.tol)


def is_virtual_broadcaster(c: CovariantCoefficients, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether the map is the symmetrized broadcaster, up to gauge."""
    return _virtual_broadcaster(_units(c, tol))[0]


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
    """Run every verdict once and bundle the results.

    The verdicts share one threshold, one gauge reduction and one real
    normal form, and each quantity that two of them read is evaluated
    once.  Evidence is scaled back from the units of _Units; a value past
    the double range raises ValueError.
    """
    if basis is not None:
        _check_basis(basis, c.d, tol)
    u = _units(c, tol)
    sa, violation = _self_adjoint(u)
    form = _real_normal_form(u.g)
    positive, margin = _positive(u, sa, form)
    cp = _cp(u, sa, form, _scaled)
    broadcasting, residual = _broadcast(u)
    virtual_broadcaster, gap = _virtual_broadcaster(u)
    evidence = {
        "self_adjoint_violation": _scaled(violation, u.shift),
        "positivity_margin": None if margin is None else _scaled(margin, u.shift),
        "cp_witness": cp.witness,
        "cp_holds": cp.is_cp,
        "broadcast_residual": _scaled(residual, u.shift),
        "virtual_broadcaster_distance": _scaled(gap, u.shift),
    }
    return ClassificationReport(
        d=c.d,
        coefficients=c,
        self_adjoint=sa,
        positive=positive,
        completely_positive=cp.status,
        broadcasting=broadcasting,
        permutation_invariant=_permutation_invariant(u),
        classically_consistent=_classically_consistent(u),
        virtual_broadcaster=virtual_broadcaster,
        evidence=evidence,
    )
