"""Command-line front end.

Exit codes: 0 success; 2 malformed input: a bad flag or config value (a
non-finite tolerance included) or a file that cannot be read or written;
3 dimension mismatch, a d (--d or its config key) or --m that conflicts
with a weight file, or a problem above the desk-scale cap d**m <= 256
(d <= 16 for two-copy maps); 4 trace terms where the norm analysis
forbids them; 5 weight uniqueness unavailable (multicopy extraction below
d = m + 1).

Defaults may be placed in a JSON file named by the COVMAP_CONFIG
environment variable; explicit flags win, and both pass the same checks.

main pauses Python's cyclic garbage collector for the call and restores
the caller's setting on every exit: the decoded JSON and the rendered
lists form trees without cycles, which reference counting frees, and the
collector would otherwise scan them again every few hundred allocations.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import stat
import sys
from typing import NamedTuple

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

_FORMATS = ("json", "text")


# Each common option is declared once, here, for its flag and its config key.
class _Option(NamedTuple):
    type: type
    default: object
    config: tuple = ()  # JSON types a config file may give (bool is no number); none: flag only
    help: str | None = None
    choices: tuple | None = None


_OPTIONS = {
    "tol_abs": _Option(float, 1e-9, (int, float)),
    "tol_rel": _Option(float, 1e-9, (int, float)),
    "samples": _Option(int, 1000, (int,),
                       help="twirl sample count; other commands validate it but draw nothing"),
    "seed": _Option(int, 0, (int,), help="twirl seed; other commands ignore it"),
    "d": _Option(int, None, (int,)),
    "out": _Option(str, None),
    "format": _Option(str, "json", (str,), choices=_FORMATS),
}


@contextlib.contextmanager
def _file(path: str):
    """Exit 2 naming path on an OSError or a decoding error, deep JSON nesting too, in its body."""
    try:
        yield
    except (OSError, ValueError, RecursionError) as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _read_json(path: str):
    with _file(path), open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write(path: str, text: str) -> None:
    """Write text over path in place, then cut a regular file's old tail.

    No O_TRUNC: truncating a file to zero frees its blocks before the write
    allocates them again, several times the cost of overwriting them.  A
    pipe or device is written without a truncate, and an existing file keeps
    its mode.
    """
    data = text.encode()
    with _file(path), open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate(len(data))


def _load_config() -> dict:
    path = os.environ.get("COVMAP_CONFIG")
    if not path:
        return {}
    obj = _read_json(path)
    if not isinstance(obj, dict):
        raise SchemaError("config file must hold a JSON object")
    unknown = sorted(key for key in obj if key not in _OPTIONS or not _OPTIONS[key].config)
    if unknown:
        raise SchemaError(f"unknown config keys: {unknown}")
    for key, value in obj.items():
        if not isinstance(value, _OPTIONS[key].config) or isinstance(value, bool):
            raise SchemaError(f"config key {key!r} has invalid value {value!r}")
    return obj


def _settle(args: argparse.Namespace) -> None:
    """Fill each unset common option from the config, else its default, and check each value.

    ``args.origin`` names the config key and file of each value the config
    set, so that an error names what the user wrote.
    """
    config = _load_config()
    args.origin = {}
    for name, option in _OPTIONS.items():
        if getattr(args, name) is None:
            setattr(args, name, config.get(name, option.default))
            if name in config:
                args.origin[name] = f"config key {name!r} in {os.environ['COVMAP_CONFIG']} ="
    if args.format not in _FORMATS:
        raise SchemaError(f"unknown output format {args.format!r}")
    _check_samples(args.samples)  # a ValueError, so exit 2 before any load or draw
    args.tol = Tolerance(abs=args.tol_abs, rel=args.tol_rel)  # refuses a non-finite part


def _superoperator(obj, args: argparse.Namespace):
    """A two-copy superoperator and its d (--d, else from the column count), within the cap."""
    if not (isinstance(obj, dict) and "rows" in obj):
        raise SchemaError("expected a superoperator matrix object")
    superop = serialize.matrix_from_obj(obj)
    cols = superop.shape[1]
    d = args.d if args.d is not None else round(cols**0.5)
    if args.d is None and d * d != cols:
        raise DimensionError(f"superoperator column count {cols} is not a square d^2")
    _check_desk(2, d)
    return superop, d


def _check_weight_file(args: argparse.Namespace, d: int, m: int = 2) -> None:
    """Refuse a d (flag or config key) or --m that conflicts with a weight file, and a file above the cap."""
    for name, given, found in (("d", args.d, d), ("m", getattr(args, "m", None), m)):
        if given is not None and given != found:
            source = args.origin.get(name, "--" + name)
            raise DimensionError(f"{source} {given} conflicts with file {name}={found}")
    _check_desk(m, d)


def _load_two_copy_map(obj, args: argparse.Namespace):
    """(coefficients, None) from a weight object, (coefficients, residual) from a matrix."""
    if isinstance(obj, dict) and "coeffs" in obj:
        c = serialize.coefficients_from_obj(obj)
        _check_weight_file(args, c.d)
        return c, None
    return _recover(*_superoperator(obj, args))


def _flatten(prefix: str, obj, lines: list[str]) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(f"{prefix}.{key}" if prefix else str(key), obj[key], lines)
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            _flatten(f"{prefix}[{i}]", item, lines)
    else:
        lines.append(f"{prefix} = {json.dumps(obj)}")


def _emit(obj, args: argparse.Namespace) -> None:
    if args.format == "json":
        text = serialize.dumps(obj)
    else:
        lines: list[str] = []
        _flatten("", obj, lines)
        text = "\n".join(lines) + "\n"
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)


# Each subcommand maps its settled arguments to the JSON object main emits.
def _classify(args: argparse.Namespace) -> dict:
    c, residual = _load_two_copy_map(_read_json(args.input), args)
    report = serialize.classification_report_to_obj(classify(c, args.tol))
    if residual is not None:
        report["extraction_residual"] = float(residual)
    return report


def _norm(args: argparse.Namespace) -> dict:
    c, _ = _load_two_copy_map(_read_json(args.input), args)
    result = cb_norm(c, tol=args.tol)
    return serialize.cb_norm_result_to_obj(result)


def _twirl(args: argparse.Namespace) -> dict:
    superop, d = _superoperator(_read_json(args.input), args)
    result = twirl(superop, d, samples=args.samples, seed=args.seed, tol=args.tol)
    return serialize.twirl_result_to_obj(result)


def _multicopy(args: argparse.Namespace) -> dict:
    if args.action == "apply":
        if args.matrix is None:
            raise SchemaError("multicopy apply needs a matrix file")
        mc = serialize.multicopy_from_obj(_read_json(args.input))
        _check_weight_file(args, mc.d, mc.m)
        x = serialize.matrix_from_obj(_read_json(args.matrix))
        return serialize.matrix_to_obj(apply_multi(mc, x))
    if args.d is None or args.m is None:
        raise SchemaError(f"multicopy {args.action} needs --m and --d")
    _check_desk(args.m, args.d)  # refuse before reading a file of that size
    matrix = serialize.matrix_from_obj(_read_json(args.input))
    if args.action == "extract":
        mc, residual = extract_multi(matrix, args.m, args.d, args.tol)
        return {"coefficients": serialize.multicopy_to_obj(mc), "residual": float(residual)}
    fit = schur_weyl_fit(matrix, args.m, args.d)
    return {
        "coefficients": serialize._pair_list(fit.coefficients),
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
    for name, option in _OPTIONS.items():
        parser.add_argument("--" + name.replace("_", "-"), type=option.type,
                            help=option.help, choices=option.choices)


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


# Built once per process from the constant tables above; it holds no input and
# no result, and each parse_args call returns a fresh Namespace.
_PARSER = _build_parser()


def main(argv=None) -> int:
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = _PARSER.parse_args(argv)
        _settle(args)
        _emit(args.func(args), args)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    except ValueError as exc:
        print(f"covmap: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    finally:
        if collecting:
            gc.enable()
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
