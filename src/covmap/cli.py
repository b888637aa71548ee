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
from dataclasses import dataclass, fields

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
from .twocopy import _recover, extract, fit_coefficients

# extract and fit_coefficients are re-exported, not called (_recover picks one):
# perfbench/run.py wraps them on this module by name when it traces the CLI.
__all__ = ["main", "extract", "fit_coefficients"]

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
    for field in fields(_Settings):
        value = getattr(args, field.name, None)
        if value is not None:
            setattr(s, field.name, value)
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


def _superoperator(obj, settings: _Settings):
    """A two-copy superoperator and its d (--d, else from the column count), within the cap."""
    superop = serialize.matrix_from_obj(obj)
    d = settings.d if settings.d is not None else _infer_d(superop.shape[1])
    _check_desk(2, d)
    return superop, d


def _load_two_copy_map(obj, settings: _Settings):
    """(coefficients, None) from a weight object, (coefficients, residual) from a matrix."""
    if isinstance(obj, dict) and "coeffs" in obj:
        c = serialize.coefficients_from_obj(obj)
        if settings.d is not None and settings.d != c.d:
            raise DimensionError(f"--d {settings.d} conflicts with file d={c.d}")
        _check_desk(2, c.d)
        return c, None
    if isinstance(obj, dict) and "rows" in obj:
        return _recover(*_superoperator(obj, settings), settings.tol)
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


# Each subcommand maps (args, settings) to the JSON object main emits.
def _classify(args: argparse.Namespace, settings: _Settings) -> dict:
    c, residual = _load_two_copy_map(_read_json(args.input), settings)
    report = serialize.classification_report_to_obj(classify(c, settings.tol))
    if residual is not None:
        report["extraction_residual"] = float(residual)
    return report


def _norm(args: argparse.Namespace, settings: _Settings) -> dict:
    c, _ = _load_two_copy_map(_read_json(args.input), settings)
    result = cb_norm(c, tol=settings.tol)
    return serialize.cb_norm_result_to_obj(result)


def _twirl(args: argparse.Namespace, settings: _Settings) -> dict:
    obj = _read_json(args.input)
    if not (isinstance(obj, dict) and "rows" in obj):
        raise SchemaError("twirl expects a superoperator matrix object")
    superop, d = _superoperator(obj, settings)
    result = twirl(superop, d, samples=settings.samples, seed=settings.seed, tol=settings.tol)
    return serialize.twirl_result_to_obj(result)


def _multicopy(args: argparse.Namespace, settings: _Settings) -> dict:
    if args.action == "apply":
        if args.matrix is None:
            raise SchemaError("multicopy apply needs a matrix file")
        mc = serialize.multicopy_from_obj(_read_json(args.input))
        x = serialize.matrix_from_obj(_read_json(args.matrix))
        return serialize.matrix_to_obj(apply_multi(mc, x))
    if settings.d is None or args.m is None:
        raise SchemaError(f"multicopy {args.action} needs --m and --d")
    matrix = serialize.matrix_from_obj(_read_json(args.input))
    if args.action == "extract":
        mc, residual = extract_multi(matrix, args.m, settings.d, settings.tol)
        return {"coefficients": serialize.multicopy_to_obj(mc), "residual": float(residual)}
    fit = schur_weyl_fit(matrix, args.m, settings.d)
    return {
        "coefficients": [[float(z.real), float(z.imag)] for z in fit.coefficients],
        "residual": float(fit.residual),
        "degenerate": fit.degenerate,
    }


# (name, help, input help, handler) of the subcommands that read one file.
_TWO_COPY_INPUT = "coefficients or superoperator JSON file"
_ONE_FILE_FORMS = (
    ("classify", "structural verdicts for a two-copy map", _TWO_COPY_INPUT, _classify),
    ("norm", "exact cb norm of a trace-free two-copy map", _TWO_COPY_INPUT, _norm),
    ("twirl", "Haar-average a superoperator", "superoperator JSON file", _twirl),
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tol-abs", dest="tol_abs", type=float, default=None)
    parser.add_argument("--tol-rel", dest="tol_rel", type=float, default=None)
    parser.add_argument("--samples", type=int, default=None,
                        help="twirl sample count; norm validates it but draws nothing")
    parser.add_argument("--seed", type=int, default=None, help="twirl seed; norm ignores it")
    parser.add_argument("--d", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=("json", "text"), default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covmap",
        description="Analyze maps covariant under simultaneous unitary conjugation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, input_help, handler in _ONE_FILE_FORMS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", help=input_help)
        _add_common(p)
        p.set_defaults(func=handler)

    p = sub.add_parser("multicopy", help="m-copy apply/extract/fit")
    p.add_argument("action", choices=("apply", "extract", "fit"))
    p.add_argument("input", help="weights (apply) or matrix JSON file")
    p.add_argument("matrix", nargs="?", help="input matrix JSON file (apply only)")
    p.add_argument("--m", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_multicopy)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        settings = _settings_from(args)
        _emit(args.func(args, settings), settings)
    except ValueError as exc:
        print(f"covmap: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
