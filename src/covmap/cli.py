"""Command-line front end.

Exit codes: 0 success, 2 malformed input (a bad config file included),
3 dimension mismatch or a problem above the desk-scale cap d**m <= 256
(d <= 16 for two-copy maps), 4 trace terms present where the norm
analysis forbids them, 5 weight uniqueness unavailable (multicopy
extraction below d = m + 1).

Defaults may be placed in a JSON file named by the COVMAP_CONFIG
environment variable; explicit flags always win.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

from . import serialize
from .classify import classify
from .linalg import DimensionError, Tolerance
from .multicopy import (
    UniquenessUnavailableError,
    _check_desk,
    apply_multi,
    extract_multi,
    schur_weyl_fit,
)
from .norms import TraceTermsError, cb_norm
from .operators import _check_samples
from .serialize import SchemaError
from .twirl import twirl
from .twocopy import extract, fit_coefficients

__all__ = ["main"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DIMENSION = 3
EXIT_TRACE_TERMS = 4
EXIT_UNIQUENESS = 5

# First match wins, so SchemaError and any other ValueError exit 2.
_EXIT_CODES = ((UniquenessUnavailableError, EXIT_UNIQUENESS), (TraceTermsError, EXIT_TRACE_TERMS),
               (DimensionError, EXIT_DIMENSION), (ValueError, EXIT_PARSE))

# Config key -> accepted JSON types; bool is never accepted as a number.
_CONFIG_TYPES = {
    "tol_abs": (int, float),
    "tol_rel": (int, float),
    "samples": int,
    "seed": int,
    "d": int,
    "format": str,
}


@dataclass
class _Settings:
    tol_abs: float = 1e-9
    tol_rel: float = 1e-9
    samples: int = 1000
    seed: int = 0
    d: int | None = None
    format: str = "json"
    out: str | None = None

    @property
    def tol(self) -> Tolerance:
        return Tolerance(abs=self.tol_abs, rel=self.tol_rel)


def _load_config() -> dict:
    path = os.environ.get("COVMAP_CONFIG")
    if not path:
        return {}
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise SchemaError("config file must hold a JSON object")
    unknown = set(obj) - set(_CONFIG_TYPES)
    if unknown:
        raise SchemaError(f"unknown config keys: {sorted(unknown)}")
    for key, value in obj.items():
        ok = isinstance(value, _CONFIG_TYPES[key]) and not isinstance(value, bool)
        if not ok or (isinstance(value, float) and not math.isfinite(value)):
            raise SchemaError(f"config key {key!r} has invalid value {value!r}")
    return obj


def _settings_from(args: argparse.Namespace) -> _Settings:
    s = _Settings()
    for key, value in _load_config().items():
        setattr(s, key, value)
    for key in ("tol_abs", "tol_rel", "samples", "seed", "d", "format", "out"):
        value = getattr(args, key, None)
        if value is not None:
            setattr(s, key, value)
    if s.format not in ("json", "text"):
        raise SchemaError(f"unknown output format {s.format!r}")
    _check_samples(s.samples)  # a ValueError, so exit 2 before any draw
    return s


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, OSError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _infer_d(cols: int) -> int:
    d = round(cols**0.5)
    if d * d != cols or d < 2:
        raise DimensionError(f"superoperator column count {cols} is not a square d^2")
    return d


def _load_two_copy_map(obj, settings: _Settings):
    """Coefficients either direct or extracted from a superoperator matrix.

    Returns (coefficients, extraction_residual or None).
    """
    if isinstance(obj, dict) and "coeffs" in obj:
        c = serialize.coefficients_from_obj(obj)
        if settings.d is not None and settings.d != c.d:
            raise DimensionError(f"--d {settings.d} conflicts with file d={c.d}")
        _check_desk(2, c.d)
        return c, None
    if isinstance(obj, dict) and "rows" in obj:
        superop = serialize.matrix_from_obj(obj)
        d = settings.d if settings.d is not None else _infer_d(superop.shape[1])
        _check_desk(2, d)
        if d >= 3:
            return extract(superop, d, settings.tol)
        return fit_coefficients(superop, d)
    raise SchemaError("expected a coefficients or matrix object")


def _flatten(prefix: str, obj, lines: list[str]) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(f"{prefix}.{key}" if prefix else str(key), obj[key], lines)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            _flatten(f"{prefix}[{i}]", item, lines)
    else:
        lines.append(f"{prefix} = {json.dumps(obj)}")


def _emit(obj, settings: _Settings) -> None:
    if settings.format == "json":
        text = serialize.dumps(obj)
    else:
        lines: list[str] = []
        _flatten("", obj, lines)
        text = "\n".join(lines) + "\n"
    if settings.out:
        with open(settings.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_classify(args: argparse.Namespace) -> int:
    settings = _settings_from(args)
    c, residual = _load_two_copy_map(_read_json(args.input), settings)
    report = serialize.classification_report_to_obj(classify(c, settings.tol))
    if residual is not None:
        report["extraction_residual"] = float(residual)
    _emit(report, settings)
    return EXIT_OK


def _cmd_norm(args: argparse.Namespace) -> int:
    settings = _settings_from(args)
    c, _ = _load_two_copy_map(_read_json(args.input), settings)
    result = cb_norm(c, samples=settings.samples, seed=settings.seed, tol=settings.tol)
    _emit(serialize.cb_norm_result_to_obj(result), settings)
    return EXIT_OK


def _cmd_twirl(args: argparse.Namespace) -> int:
    settings = _settings_from(args)
    obj = _read_json(args.input)
    if not (isinstance(obj, dict) and "rows" in obj):
        raise SchemaError("twirl expects a superoperator matrix object")
    superop = serialize.matrix_from_obj(obj)
    d = settings.d if settings.d is not None else _infer_d(superop.shape[1])
    _check_desk(2, d)
    result = twirl(superop, d, samples=settings.samples, seed=settings.seed, tol=settings.tol)
    _emit(serialize.twirl_result_to_obj(result), settings)
    return EXIT_OK


def _cmd_multicopy(args: argparse.Namespace) -> int:
    settings = _settings_from(args)
    if args.action == "apply":
        mc = serialize.multicopy_from_obj(_read_json(args.input))
        x = serialize.matrix_from_obj(_read_json(args.matrix))
        _emit(serialize.matrix_to_obj(apply_multi(mc, x)), settings)
        return EXIT_OK
    if settings.d is None or args.m is None:
        raise SchemaError(f"multicopy {args.action} needs --m and --d")
    if args.action == "extract":
        superop = serialize.matrix_from_obj(_read_json(args.input))
        mc, residual = extract_multi(superop, args.m, settings.d, settings.tol)
        _emit(
            {"coefficients": serialize.multicopy_to_obj(mc), "residual": float(residual)},
            settings,
        )
        return EXIT_OK
    t = serialize.matrix_from_obj(_read_json(args.input))
    fit = schur_weyl_fit(t, args.m, settings.d)
    _emit(
        {
            "coefficients": [[float(z.real), float(z.imag)] for z in fit.coefficients],
            "residual": float(fit.residual),
            "degenerate": fit.degenerate,
        },
        settings,
    )
    return EXIT_OK


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol-abs", dest="tol_abs", type=float, default=None)
    parser.add_argument("--tol-rel", dest="tol_rel", type=float, default=None)
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--d", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=("json", "text"), default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covmap",
        description="Analyze maps covariant under simultaneous unitary conjugation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="structural verdicts for a two-copy map")
    p.add_argument("input", help="coefficients or superoperator JSON file")
    _add_common(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("norm", help="cb norm of a trace-free two-copy map")
    p.add_argument("input", help="coefficients or superoperator JSON file")
    _add_common(p)
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("twirl", help="Haar-average a superoperator")
    p.add_argument("input", help="superoperator JSON file")
    _add_common(p)
    p.set_defaults(func=_cmd_twirl)

    p = sub.add_parser("multicopy", help="m-copy apply/extract/fit")
    p.add_argument("action", choices=("apply", "extract", "fit"))
    p.add_argument("input", help="weights (apply) or matrix JSON file")
    p.add_argument("matrix", nargs="?", help="input matrix JSON file (apply only)")
    p.add_argument("--m", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_multicopy)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "multicopy" and args.action == "apply" and args.matrix is None:
            raise SchemaError("multicopy apply needs a matrix file")
        return args.func(args)
    except ValueError as exc:
        print(f"covmap: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
