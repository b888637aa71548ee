"""JSON wire formats.

Complex scalars travel as [real, imag] pairs, matrices as row-major pair
lists under {"rows", "cols", "data"}.  Serialization is deterministic
(sorted keys, fixed separators) and round-trips every double-precision
value bit-exactly.  :func:`dumps` writes the bytes of ``json.dumps`` with
sorted keys and indent 2, each list of floats or of [float, float] pairs
in one join.  :func:`covmap.cli.main` pauses the cyclic garbage collector
while these cycle-free trees are decoded and rendered, and restores the
caller's setting after the call.
"""

from __future__ import annotations

import cmath
import contextlib
import itertools
import math
from json.encoder import encode_basestring_ascii
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
    """Deterministic rendering: sorted keys, two-space indent, newline end.

    The bytes of ``json.dumps(obj, sort_keys=True, indent=2,
    allow_nan=False) + "\n"``, which raises as this does: ValueError for a
    NaN or infinite float, TypeError for a value of another type.  Dict
    keys must be strings, as in every covmap object; any other key raises
    TypeError.
    """
    return _render(obj, "\n") + "\n"


def _render(obj, newline: str) -> str:
    """obj as dumps renders it, its inner lines indented as after ``newline``."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        return float.__repr__(obj)
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        body = _float_join(obj, inner) or ("," + inner).join([_render(v, inner) for v in obj])
        return "[" + inner + body + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [encode_basestring_ascii(k) + ": " + _render(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _float_join(items, inner: str) -> str | None:
    """The body of a list of finite floats, or of [float, float] pairs, as one join of float reprs.

    None for any other list, which _render takes element by element.
    """
    pairs = set(map(type, items)) == {list} and set(map(len, items)) == {2}
    flat = list(itertools.chain.from_iterable(items)) if pairs else items
    if set(map(type, flat)) != {float} or not all(map(math.isfinite, flat)):
        return None
    reprs = map(float.__repr__, flat)
    if not pairs:
        return ("," + inner).join(reprs)
    pair = inner + "  "
    body = (inner + "]," + inner + "[" + pair).join(map(("," + pair).join, zip(reprs, reprs)))
    return "[" + pair + body + inner + "]"


def _real_type(t: type) -> bool:
    return issubclass(t, (int, float)) and not issubclass(t, bool)


def _unpair(obj) -> complex:
    if not (
        isinstance(obj, (list, tuple)) and len(obj) == 2
        and _real_type(type(obj[0])) and _real_type(type(obj[1]))
    ):
        raise SchemaError(f"expected a [real, imag] pair, got {obj!r}")
    try:
        z = complex(float(obj[0]), float(obj[1]))
        if cmath.isfinite(z):
            return z
    except OverflowError:  # an integer beyond the double range
        pass
    raise SchemaError(f"expected finite values, got {obj!r}")


def _pairs(data) -> np.ndarray:
    """The complex array of a list of [real, imag] pairs, checked as a whole list.

    It accepts exactly the pairs ``_unpair`` accepts.  A list that fails a
    check is read again pair by pair, so the error names its first bad pair.
    """
    kinds = set(map(type, data))
    if all(issubclass(t, (list, tuple)) for t in kinds) and set(map(len, data)) <= {2}:
        flat = list(itertools.chain.from_iterable(data))
        if all(map(_real_type, set(map(type, flat)))):
            with contextlib.suppress(OverflowError):  # an integer beyond the double range
                parts = np.array(flat, dtype=np.float64)
                if np.isfinite(parts).all():
                    return parts.view(np.complex128)
    return np.array([_unpair(pair) for pair in data], dtype=np.complex128)


def _pair_list(a) -> list:
    """Row-major [real, imag] pairs of a complex array, nested as its shape."""
    parts = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    if not np.isfinite(parts).all():
        raise SchemaError("non-finite value is not serializable")
    return parts.reshape(*np.shape(a), 2).tolist()


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
        "data": _pair_list(a.reshape(-1)),
    }


def matrix_from_obj(obj) -> np.ndarray:
    rows = _int_field(obj, "rows")
    cols = _int_field(obj, "cols")
    data = _require(obj, "data")
    if rows < 1 or cols < 1:
        raise SchemaError(f"matrix dimensions must be positive, got {rows}x{cols}")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise SchemaError(f"data must hold {rows * cols} entries")
    return _pairs(data).reshape(rows, cols)


def coefficients_to_obj(c: CovariantCoefficients) -> dict:
    return {"d": c.d, "coeffs": _pair_list(c.as_array())}


def coefficients_from_obj(obj) -> CovariantCoefficients:
    d = _int_field(obj, "d")
    coeffs = _require(obj, "coeffs")
    if not isinstance(coeffs, list) or len(coeffs) != 6:
        raise SchemaError("coeffs must hold exactly 6 entries")
    return _schema_checked(lambda: CovariantCoefficients(d, tuple(_pairs(coeffs))))


def multicopy_to_obj(mc: MultiCopyCoefficients) -> dict:
    return {
        "m": mc.m,
        "d": mc.d,
        "lam": _pair_list(mc.lam),
    }


def multicopy_from_obj(obj) -> MultiCopyCoefficients:
    m = _int_field(obj, "m")
    d = _int_field(obj, "d")
    lam = _require(obj, "lam")
    if not isinstance(lam, list) or not all(isinstance(r, list) for r in lam):
        raise SchemaError("lam must be a list of rows")
    values = _pairs(list(itertools.chain.from_iterable(lam)))
    ends = list(itertools.accumulate(map(len, lam)))
    rows = [values[start:end] for start, end in zip([0, *ends], ends)]
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
        "evidence": dict(report.evidence),
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
