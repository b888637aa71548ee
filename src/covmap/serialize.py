"""JSON wire formats.

Complex scalars travel as [real, imag] pairs, matrices as row-major pair
lists under {"rows", "cols", "data"}.  Serialization is deterministic
(sorted keys, fixed separators) and round-trips every double-precision
value bit-exactly.
"""

from __future__ import annotations

import cmath
import json
import math
from typing import Any

import numpy as np

from .classify import ClassificationReport
from .linalg import DimensionError
from .multicopy import MultiCopyCoefficients
from .norms import CbNormResult
from .operators import Permutation
from .twirl import TwirlResult
from .twocopy import CovariantCoefficients

__all__ = [
    "SchemaError",
    "dumps",
    "matrix_to_obj",
    "matrix_from_obj",
    "coefficients_to_obj",
    "coefficients_from_obj",
    "multicopy_to_obj",
    "multicopy_from_obj",
    "permutation_to_obj",
    "permutation_from_obj",
    "classification_report_to_obj",
    "cb_norm_result_to_obj",
    "twirl_result_to_obj",
]


class SchemaError(ValueError):
    """Input JSON does not match the declared schema."""


def dumps(obj: Any) -> str:
    """Deterministic rendering: sorted keys, two-space indent, newline end."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _pair(z) -> list[float]:
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise SchemaError("non-finite value is not serializable")
    return [float(z.real), float(z.imag)]


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _unpair(obj) -> complex:
    if not (
        isinstance(obj, (list, tuple)) and len(obj) == 2 and _is_real(obj[0]) and _is_real(obj[1])
    ):
        raise SchemaError(f"expected a [real, imag] pair, got {obj!r}")
    try:
        z = complex(float(obj[0]), float(obj[1]))
        if cmath.isfinite(z):
            return z
    except OverflowError:  # an integer beyond the double range
        pass
    raise SchemaError(f"expected finite values, got {obj!r}")


def _require(obj, key: str):
    if not isinstance(obj, dict) or key not in obj:
        raise SchemaError(f"missing key {key!r}")
    return obj[key]


def _int_field(obj, key: str) -> int:
    v = _require(obj, key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise SchemaError(f"key {key!r} must be an integer, got {v!r}")
    return v


def _schema_checked(build):
    """build(), with a plain ValueError from its validation as a SchemaError."""
    try:
        return build()
    except (SchemaError, DimensionError):
        raise
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def matrix_to_obj(a) -> dict:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise SchemaError(f"expected a 2-D array, got ndim={a.ndim}")
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "data": [_pair(z) for z in a.reshape(-1)],
    }


def matrix_from_obj(obj) -> np.ndarray:
    rows = _int_field(obj, "rows")
    cols = _int_field(obj, "cols")
    data = _require(obj, "data")
    if rows < 1 or cols < 1:
        raise SchemaError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise SchemaError(f"data must hold {rows * cols} entries")
    flat = np.array([_unpair(p) for p in data], dtype=np.complex128)
    return flat.reshape(rows, cols)


def coefficients_to_obj(c: CovariantCoefficients) -> dict:
    return {"d": c.d, "coeffs": [_pair(z) for z in c.coeffs]}


def coefficients_from_obj(obj) -> CovariantCoefficients:
    d = _int_field(obj, "d")
    coeffs = _require(obj, "coeffs")
    if not isinstance(coeffs, list) or len(coeffs) != 6:
        raise SchemaError("coeffs must hold exactly 6 entries")
    return _schema_checked(lambda: CovariantCoefficients(d, tuple(_unpair(p) for p in coeffs)))


def multicopy_to_obj(mc: MultiCopyCoefficients) -> dict:
    return {
        "m": mc.m,
        "d": mc.d,
        "lam": [[_pair(z) for z in row] for row in mc.lam],
    }


def multicopy_from_obj(obj) -> MultiCopyCoefficients:
    m = _int_field(obj, "m")
    d = _int_field(obj, "d")
    lam = _require(obj, "lam")
    if not isinstance(lam, list) or not all(isinstance(r, list) for r in lam):
        raise SchemaError("lam must be a list of rows")
    rows = [[_unpair(p) for p in row] for row in lam]
    return _schema_checked(lambda: MultiCopyCoefficients(m, d, np.array(rows, dtype=np.complex128)))


def permutation_to_obj(p: Permutation) -> dict:
    return {"m": p.m, "image": list(p.image)}


def permutation_from_obj(obj) -> Permutation:
    m = _int_field(obj, "m")
    image = _require(obj, "image")
    if not isinstance(image, list) or len(image) != m:
        raise SchemaError(f"image must hold {m} entries")
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in image):
        raise SchemaError("image entries must be integers")
    return _schema_checked(lambda: Permutation(tuple(image)))


def _evidence_obj(evidence: dict) -> dict:
    out = {}
    for key, value in evidence.items():
        if value is None or isinstance(value, (bool, str)):
            out[key] = value
        else:
            out[key] = float(value)
    return out


def classification_report_to_obj(report: ClassificationReport) -> dict:
    return {
        "d": report.d,
        "coefficients": coefficients_to_obj(report.coefficients),
        "self_adjoint": report.self_adjoint,
        "positive": report.positive,
        "completely_positive": report.completely_positive,
        "broadcasting": report.broadcasting,
        "permutation_invariant": report.permutation_invariant,
        "classically_consistent": report.classically_consistent,
        "virtual_broadcaster": report.virtual_broadcaster,
        "evidence": _evidence_obj(report.evidence),
    }


def cb_norm_result_to_obj(result: CbNormResult) -> dict:
    return {
        "value_kind": result.value_kind,
        "value": result.value,
        "method": result.method,
        "detail": dict(result.detail),
    }


def twirl_result_to_obj(result: TwirlResult) -> dict:
    return {
        "coefficients": coefficients_to_obj(result.coefficients),
        "residual": float(result.residual),
        "samples": result.samples,
        "seed": result.seed,
        "deviation_before": float(result.deviation_before),
        "deviation_after": float(result.deviation_after),
    }
