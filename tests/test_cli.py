import gc
import json
import os
import re
import stat
import warnings

import numpy as np
import pytest

from covmap import cli
from covmap.cli import main
from covmap.multicopy import MultiCopyCoefficients, realize_multi_superoperator
from covmap.operators import swap_operator
from covmap.serialize import (
    coefficients_to_obj,
    dumps,
    matrix_to_obj,
    multicopy_to_obj,
)
from covmap.twocopy import (
    CovariantCoefficients,
    realize_superoperator,
    virtual_broadcast_coefficients,
)
from test_cli_golden import criterion_12_invocations


def write(path, obj):
    path.write_text(dumps(obj), encoding="utf-8")
    return str(path)


@pytest.fixture(autouse=True)
def clean_config(monkeypatch):
    monkeypatch.delenv("COVMAP_CONFIG", raising=False)


def test_classify_coefficients_file(tmp_path, capsys):
    f = write(tmp_path / "vb.json", coefficients_to_obj(virtual_broadcast_coefficients(3)))
    assert main(["classify", f]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["virtual_broadcaster"] is True
    assert out["positive"] is False
    assert "extraction_residual" not in out


def test_classify_weights_at_the_size_cap(tmp_path, capsys):
    c = CovariantCoefficients(16, (1, 2, 0.3, 0.3, 0.1, -0.2))
    f = write(tmp_path / "d16.json", coefficients_to_obj(c))
    assert main(["classify", f]) == 0
    assert json.loads(capsys.readouterr().out)["completely_positive"] == "numerical-only"


def test_classify_not_self_adjoint_weights(tmp_path, capsys):
    # the violation |c4 - conj(c3)| is the binding one, so each verdict must
    # still come out as a plain bool the JSON encoder accepts
    for weights in [(0, 0, 1, 0, 0, 0), (1, 1, 2, 3, 0, 0)]:
        f = write(tmp_path / "c.json", coefficients_to_obj(CovariantCoefficients(3, weights)))
        assert main(["classify", f]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["self_adjoint"] is False and out["evidence"]["cp_holds"] is False


def test_classify_superoperator_input(tmp_path, capsys):
    sup = realize_superoperator(virtual_broadcast_coefficients(3))
    f = write(tmp_path / "sup.json", matrix_to_obj(sup))
    assert main(["classify", f]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["virtual_broadcaster"] is True
    assert out["extraction_residual"] < 1e-12


def test_classify_d1_exits_3(tmp_path):
    f = write(tmp_path / "bad.json", {"d": 1, "coeffs": [[0.0, 0.0]] * 6})
    assert main(["classify", f]) == 3


def test_classify_d_conflict_exits_3(tmp_path):
    f = write(tmp_path / "c.json", coefficients_to_obj(virtual_broadcast_coefficients(3)))
    assert main(["classify", f, "--d", "4"]) == 3


def test_malformed_json_exits_2(tmp_path):
    f = tmp_path / "broken.json"
    f.write_text("{not json", encoding="utf-8")
    assert main(["classify", str(f)]) == 2
    assert main(["classify", str(tmp_path / "missing.json")]) == 2


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    f = tmp_path / "deep.json"
    f.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["classify", str(f)]) == 2
    captured = capsys.readouterr()
    assert str(f) in captured.err
    assert captured.out == ""


def test_non_finite_weight_exits_2(tmp_path, capsys):
    f = tmp_path / "nan.json"
    f.write_text(
        '{"d": 3, "coeffs": [[NaN, 0], [0, 0], [0.5, 0], [0.5, 0], [0, 0], [0, 0]]}',
        encoding="utf-8",
    )
    assert main(["norm", str(f)]) == 2
    assert "expected finite values" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [[0.0, float("-inf")], [10**400, 0]])
def test_non_finite_matrix_entry_exits_2(tmp_path, capsys, bad):
    obj = matrix_to_obj(realize_superoperator(virtual_broadcast_coefficients(3)))
    obj["data"][5] = bad
    f = tmp_path / "sup.json"
    f.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["classify", str(f)]) == 2
    assert "expected finite values" in capsys.readouterr().err


def test_norm_command(tmp_path, capsys):
    f = write(tmp_path / "vb.json", coefficients_to_obj(virtual_broadcast_coefficients(3)))
    assert main(["norm", f]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value_kind"] == "exact"
    assert out["value"] == pytest.approx(1.0)


# The cb norm of c1 I (x) X + c2 X (x) I with c1, c2 >= 0 is c1 + c2: printed where it
# fits the double range, else refused by the one message; never a warning or a traceback.
@pytest.mark.parametrize("c1, c2, code", [(1e200, 0, 0), (1e300, 5e299, 0), (1.5e308 + 1.5e308j, 0, 2),
                                          (1e308, 1e308, 2)])
def test_norm_of_large_weights_reports_or_refuses_by_name(tmp_path, capsys, c1, c2, code):
    f = write(tmp_path / "c.json", coefficients_to_obj(CovariantCoefficients(3, (c1, c2, 0, 0, 0, 0))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["norm", f]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err == "covmap: a value overflows the double range\n" and captured.out == ""
    else:
        assert captured.err == ""
        assert json.loads(captured.out)["value"] == pytest.approx(c1 + c2, rel=1e-12)


def test_norm_trace_terms_exit_4(tmp_path):
    c = CovariantCoefficients(3, (1, 1, 0, 0, 0.5, 0))
    f = write(tmp_path / "c.json", coefficients_to_obj(c))
    assert main(["norm", f]) == 4


def test_twirl_command_deterministic(tmp_path, capsys):
    sup = realize_superoperator(virtual_broadcast_coefficients(3))
    f = write(tmp_path / "sup.json", matrix_to_obj(sup))
    assert main(["twirl", f, "--samples", "20", "--seed", "11"]) == 0
    first = capsys.readouterr().out
    assert main(["twirl", f, "--samples", "20", "--seed", "11"]) == 0
    second = capsys.readouterr().out
    assert first == second
    out = json.loads(first)
    assert out["samples"] == 20
    assert out["residual"] < 1e-10


def test_twirl_near_the_float_limit_exits_0(tmp_path, capsys):
    # Entries near 1e300 overflow every Gram matrix of the covariance defect.
    rng = np.random.default_rng(17)
    sup = rng.standard_normal((81, 9)) + 1j * rng.standard_normal((81, 9))
    f = write(tmp_path / "sup.json", matrix_to_obj(sup / np.abs(sup).max() * 1e300))
    assert main(["twirl", f, "--samples", "10"]) == 0
    out = json.loads(capsys.readouterr().out)
    for key in ("deviation_before", "deviation_after"):
        assert 0 < out[key] < np.inf


@pytest.mark.parametrize("scale, code", [(1e307, 0), (1.7e308, 0)])
def test_twirl_of_one_entry_near_the_float_limit(tmp_path, capsys, scale, code):
    # Scaled into range, neither average nor defect overflows on the way: the
    # answers themselves stay inside the double range, with no numpy warning.
    rng = np.random.default_rng(17)
    sup = rng.standard_normal((81, 9)) + 1j * rng.standard_normal((81, 9))
    sup /= np.abs(sup).max()
    sup[0, 0] = scale
    f = write(tmp_path / "sup.json", matrix_to_obj(sup))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["twirl", f, "--samples", "10"]) == code
    captured = capsys.readouterr()
    assert captured.err == ""
    out = json.loads(captured.out)
    assert 0 < out["deviation_before"] < np.inf and 0 < out["residual"] < np.inf


def _near_the_limit(tmp_path, scale, source):
    """A matrix with its largest entry part at scale, written out.

    ``source`` is the shape of a seeded random complex matrix, or six
    weights whose d = 3 superoperator, exactly covariant, is the matrix.
    """
    if len(source) == 6:
        a = realize_superoperator(CovariantCoefficients(3, source))
    else:
        rng = np.random.default_rng(18)
        a = rng.standard_normal(source) + 1j * rng.standard_normal(source)
    a *= scale / np.abs(np.stack([a.real, a.imag])).max()
    return write(tmp_path / "a.json", matrix_to_obj(a))


# Each answer is finite and printed, or past the double range and refused by
# the one message: never an inf in the output, a numpy warning or a JSON error.
@pytest.mark.parametrize(
    "argv, scale, source, code",
    [
        (["multicopy", "fit", "IN", "--m", "2", "--d", "3"], 1e200, (9, 9), 0),
        (["classify", "IN"], 1e308, (81, 9), 2),
        (["norm", "IN"], 1e308, (81, 9), 2),
        (["twirl", "IN", "--samples", "10"], 1e308, (81, 9), 2),
        (["classify", "IN"], 1e308, (1, 0.5, -0.3, 0.2, 0, 0), 2),
        (["classify", "IN"], 1e308, (1, 0.5, -0.3, 0.2, 0.1j, 0.05), 2),
    ],
    ids=["multicopy-fit", "classify", "norm", "twirl", "classify-covariant", "classify-covariant-trace"],
)
def test_near_the_float_limit_exits_0_or_refuses_by_name(tmp_path, capsys, argv, scale, source, code):
    f = _near_the_limit(tmp_path, scale, source)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([f if arg == "IN" else arg for arg in argv]) == code
    captured = capsys.readouterr()
    if code:
        assert captured.err == "covmap: a value overflows the double range\n" and captured.out == ""
    else:
        assert captured.err == ""
        out = json.loads(captured.out)
        assert 0 < out["residual"] < np.inf
        assert np.isfinite(out["coefficients"]).all()


def _exit_argv(tmp_path, code):
    """A command line that exits with code, its input files written to tmp_path."""
    if code == 0:
        return ["norm", write(tmp_path / "vb.json", coefficients_to_obj(virtual_broadcast_coefficients(3)))]
    if code == 2:
        (tmp_path / "bad.json").write_text("{not json", encoding="utf-8")
        return ["classify", str(tmp_path / "bad.json")]
    if code == 3:
        return ["twirl", write(tmp_path / "m.json", matrix_to_obj(np.zeros((81, 8))))]
    if code == 4:
        return ["norm", write(tmp_path / "c.json", coefficients_to_obj(CovariantCoefficients(3, (1, 1, 0, 0, 0.5, 0))))]
    return ["multicopy", "extract", write(tmp_path / "sup.json", matrix_to_obj(np.zeros((27, 9)))),
            "--m", "3", "--d", "3"]


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("code, argv", [(0, None), (2, None), (3, None), (4, None), (5, None),
                                        (0, ["--help"]), (2, ["classify", "--frobnicate"])])
def test_main_leaves_the_cyclic_collector_as_the_caller_set_it(tmp_path, capsys, collecting, code, argv):
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        assert main(argv or _exit_argv(tmp_path, code)) == code
        assert gc.isenabled() is collecting
    finally:
        (gc.enable if was else gc.disable)()


def test_twirl_rejects_coefficients_input(tmp_path):
    f = write(tmp_path / "c.json", coefficients_to_obj(virtual_broadcast_coefficients(3)))
    assert main(["twirl", f]) == 2


def test_twirl_bad_column_count_exits_3(tmp_path):
    f = write(tmp_path / "m.json", matrix_to_obj(np.zeros((81, 8))))
    assert main(["twirl", f]) == 3


def test_multicopy_apply(tmp_path, capsys):
    lam = np.zeros((2, 3), dtype=complex)
    lam[0, 2] = 1.0  # identity permutation, slot embedding I (x) X
    mc = MultiCopyCoefficients(2, 2, lam)
    f = write(tmp_path / "mc.json", multicopy_to_obj(mc))
    x = np.array([[1, 2], [3, 4]], dtype=complex)
    g = write(tmp_path / "x.json", matrix_to_obj(x))
    assert main(["multicopy", "apply", f, g]) == 0
    out = json.loads(capsys.readouterr().out)
    got = np.array([complex(a, b) for a, b in out["data"]]).reshape(4, 4)
    assert np.abs(got - np.kron(np.eye(2), x)).max() < 1e-12


def test_multicopy_apply_missing_matrix_exits_2(tmp_path):
    lam = np.zeros((2, 3), dtype=complex)
    f = write(tmp_path / "mc.json", multicopy_to_obj(MultiCopyCoefficients(2, 2, lam)))
    assert main(["multicopy", "apply", f]) == 2


@pytest.mark.parametrize(
    "flags, code",
    [
        ([], 0),
        (["--d", "3", "--m", "2"], 0),
        (["--d", "5"], 3),
        (["--m", "4"], 3),
        (["--d", "5", "--m", "4"], 3),
    ],
)
def test_multicopy_apply_checks_d_and_m_against_the_weight_file(tmp_path, capsys, flags, code):
    f = write(tmp_path / "mc.json", multicopy_to_obj(MultiCopyCoefficients(2, 3, np.eye(2, 3))))
    x = write(tmp_path / "x.json", matrix_to_obj(np.eye(3)))
    assert main(["multicopy", "apply", f, x, *flags]) == code
    captured = capsys.readouterr()
    if code:
        assert "conflicts with file" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("form", ["classify", "multicopy apply"])
def test_config_d_that_conflicts_with_the_weight_file_is_named_as_a_config_key(
    tmp_path, monkeypatch, capsys, form
):
    # The d = 3 weight file meets a d from the config, not a --d flag.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 4}), encoding="utf-8")
    monkeypatch.setenv("COVMAP_CONFIG", str(cfg))
    if form == "classify":
        vb = write(tmp_path / "vb.json", coefficients_to_obj(virtual_broadcast_coefficients(3)))
        argv = ["classify", vb]
    else:
        mc = write(tmp_path / "mc.json", multicopy_to_obj(MultiCopyCoefficients(2, 3, np.eye(2, 3))))
        argv = ["multicopy", "apply", mc, write(tmp_path / "x.json", matrix_to_obj(np.eye(3)))]
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert f"config key 'd' in {cfg} = 4 conflicts with file d=3" in captured.err
    assert "--d" not in captured.err
    assert captured.out == ""
    assert main([*argv, "--d", "5"]) == 3
    assert "--d 5 conflicts with file d=3" in capsys.readouterr().err
    assert main([*argv, "--d", "3"]) == 0  # the flag wins over the config


def test_multicopy_extract_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(60)
    lam = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    mc = MultiCopyCoefficients(2, 3, lam)
    f = write(tmp_path / "sup.json", matrix_to_obj(realize_multi_superoperator(mc)))
    assert main(["multicopy", "extract", f, "--m", "2", "--d", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    got = np.array(
        [[complex(a, b) for a, b in row] for row in out["coefficients"]["lam"]]
    )
    assert np.abs(got - lam).max() < 1e-10
    assert out["residual"] < 1e-10


def test_multicopy_extract_below_uniqueness_exits_5(tmp_path):
    f = write(tmp_path / "sup.json", matrix_to_obj(np.zeros((27, 9))))
    assert main(["multicopy", "extract", f, "--m", "3", "--d", "3"]) == 5


def test_multicopy_extract_needs_m_and_d(tmp_path):
    f = write(tmp_path / "sup.json", matrix_to_obj(np.zeros((81, 9))))
    assert main(["multicopy", "extract", f]) == 2
    assert main(["multicopy", "extract", f, "--m", "2"]) == 2


def test_multicopy_m_out_of_range_exits_2(tmp_path):
    f = write(tmp_path / "sup.json", matrix_to_obj(np.zeros((81, 9))))
    assert main(["multicopy", "extract", f, "--m", "5", "--d", "3"]) == 2


def test_multicopy_fit_swap(tmp_path, capsys):
    f = write(tmp_path / "s.json", matrix_to_obj(swap_operator(3)))
    assert main(["multicopy", "fit", f, "--m", "2", "--d", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    coeffs = [complex(a, b) for a, b in out["coefficients"]]
    assert abs(coeffs[0]) < 1e-12  # identity permutation weight
    assert abs(coeffs[1] - 1) < 1e-12
    assert out["degenerate"] is False
    assert out["residual"] < 1e-12


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2


def test_help_exits_0():
    assert main(["--help"]) == 0


def test_format_text_output(tmp_path, capsys):
    f = write(tmp_path / "vb.json", coefficients_to_obj(virtual_broadcast_coefficients(3)))
    assert main(["classify", f, "--format", "text"]) == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln]
    assert all(" = " in ln for ln in lines)
    assert any(ln.startswith("virtual_broadcaster = true") for ln in lines)


def test_out_flag_writes_file(tmp_path, capsys):
    f = write(tmp_path / "vb.json", coefficients_to_obj(virtual_broadcast_coefficients(3)))
    dest = tmp_path / "report.json"
    assert main(["classify", f, "--out", str(dest)]) == 0
    assert capsys.readouterr().out == ""
    assert json.loads(dest.read_text())["virtual_broadcaster"] is True


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_exits_2_naming_the_path(tmp_path, capsys, where):
    f = write(tmp_path / "vb.json", coefficients_to_obj(virtual_broadcast_coefficients(3)))
    dest = str(tmp_path / "absent" / "report.json") if where == "missing-directory" else str(tmp_path)
    assert main(["classify", f, "--out", dest]) == 2
    captured = capsys.readouterr()
    assert dest in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def _vb_report(tmp_path, capsys, *flags):
    """A weight file of B_vb at d = 3 and the bytes classify prints for it with flags."""
    f = write(tmp_path / "vb.json", coefficients_to_obj(virtual_broadcast_coefficients(3)))
    assert main(["classify", f, *flags]) == 0
    return f, capsys.readouterr().out.encode()


def test_out_overwrites_in_place_and_cuts_the_old_tail(tmp_path, capsys):
    f, text = _vb_report(tmp_path, capsys, "--format", "text")
    _, report = _vb_report(tmp_path, capsys)
    assert len(text) > len(report)
    dest = tmp_path / "report"
    assert main(["classify", f, "--out", str(dest), "--format", "text"]) == 0
    assert dest.read_bytes() == text
    assert main(["classify", f, "--out", str(dest)]) == 0  # shorter: the text tail goes
    assert dest.read_bytes() == report
    assert capsys.readouterr().out == ""


def test_an_identical_rewrite_still_writes_the_file(tmp_path, capsys):
    f, report = _vb_report(tmp_path, capsys)
    dest = tmp_path / "report.json"
    dest.write_bytes(report)
    os.utime(dest, ns=(0, 0))
    assert main(["classify", f, "--out", str(dest)]) == 0
    assert dest.stat().st_mtime_ns > 0
    assert dest.read_bytes() == report


def test_out_keeps_an_existing_mode_and_opens_write_only_without_truncating(tmp_path, capsys, monkeypatch):
    # Root may open a mode-0o200 file for reading too, so the flags are checked directly.
    f, report = _vb_report(tmp_path, capsys)
    dest = tmp_path / "report.json"
    dest.write_bytes(b"x" * 4096)
    dest.chmod(0o640)
    flags = []

    def recording_open(path, flag, *args, **kwargs):
        if path == str(dest):
            flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    real_open = os.open
    monkeypatch.setattr(os, "open", recording_open)
    assert main(["classify", f, "--out", str(dest)]) == 0
    assert len(flags) == 1
    assert flags[0] & os.O_ACCMODE == os.O_WRONLY and flags[0] & os.O_CREAT and not flags[0] & os.O_TRUNC
    assert dest.read_bytes() == report
    assert stat.S_IMODE(dest.stat().st_mode) == 0o640


def test_out_onto_a_device_is_written_without_a_truncate(tmp_path, capsys):
    f = write(tmp_path / "vb.json", coefficients_to_obj(virtual_broadcast_coefficients(3)))
    assert main(["classify", f, "--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


def test_a_failing_command_leaves_an_existing_out_untouched(tmp_path, capsys):
    dest = tmp_path / "report.json"
    dest.write_bytes(b"earlier report")
    os.utime(dest, ns=(0, 0))
    assert main([*_exit_argv(tmp_path, 2), "--out", str(dest)]) == 2
    assert dest.read_bytes() == b"earlier report" and dest.stat().st_mtime_ns == 0
    assert capsys.readouterr().out == ""


def test_config_file_sets_defaults(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 5, "seed": 3}), encoding="utf-8")
    monkeypatch.setenv("COVMAP_CONFIG", str(cfg))
    sup = realize_superoperator(virtual_broadcast_coefficients(3))
    f = write(tmp_path / "sup.json", matrix_to_obj(sup))
    assert main(["twirl", f]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["samples"] == 5
    assert out["seed"] == 3
    # explicit flag beats the config value
    assert main(["twirl", f, "--samples", "7"]) == 0
    assert json.loads(capsys.readouterr().out)["samples"] == 7


def test_config_unknown_key_exits_2(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"smaples": 5}), encoding="utf-8")
    monkeypatch.setenv("COVMAP_CONFIG", str(cfg))
    f = write(tmp_path / "vb.json", coefficients_to_obj(virtual_broadcast_coefficients(3)))
    assert main(["classify", f]) == 2


def test_config_file_missing_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COVMAP_CONFIG", str(tmp_path / "missing.json"))
    f = write(tmp_path / "vb.json", coefficients_to_obj(virtual_broadcast_coefficients(3)))
    assert main(["classify", f]) == 2
    assert "missing.json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config",
    [
        {"samples": "10"},
        {"seed": 1.5},
        {"samples": True},
        {"d": 3.0},
        {"tol_abs": "1e-9"},
        {"tol_rel": False},
        {"format": 5},
    ],
)
def test_config_value_of_wrong_type_exits_2(tmp_path, monkeypatch, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    monkeypatch.setenv("COVMAP_CONFIG", str(cfg))
    sup = realize_superoperator(virtual_broadcast_coefficients(3))
    f = write(tmp_path / "sup.json", matrix_to_obj(sup))
    assert main(["twirl", f]) == 2
    assert "config key" in capsys.readouterr().err


def test_config_accepts_integer_tolerance(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tol_abs": 0, "tol_rel": 1e-9}), encoding="utf-8")
    monkeypatch.setenv("COVMAP_CONFIG", str(cfg))
    f = write(tmp_path / "vb.json", coefficients_to_obj(virtual_broadcast_coefficients(3)))
    assert main(["classify", f]) == 0
    assert json.loads(capsys.readouterr().out)["virtual_broadcaster"] is True


# (1, 1, 0, 0, 0, 0) does not broadcast (residual 2), and norm refuses
# (1, 1, 0, 0, 0.5, 0) with exit 4; a non-finite tolerance must exit 2 first.
NON_FINITE_INPUTS = {"classify": (1, 1, 0, 0, 0, 0), "norm": (1, 1, 0, 0, 0.5, 0)}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["classify", "norm"])
@pytest.mark.parametrize(
    "key, literal",
    [("tol_abs", "NaN"), ("tol_rel", "Infinity"), ("tol_abs", "1" + "0" * 400)],
    ids=["nan", "inf", "beyond-float-range"],
)
def test_non_finite_tolerance_exits_2_from_flag_and_config(
    tmp_path, monkeypatch, capsys, source, command, key, literal
):
    c = CovariantCoefficients(3, NON_FINITE_INPUTS[command])
    argv = [command, write(tmp_path / "c.json", coefficients_to_obj(c))]
    if source == "flag":
        argv += ["--" + key.replace("_", "-"), literal]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(f'{{"{key}": {literal}}}', encoding="utf-8")
        monkeypatch.setenv("COVMAP_CONFIG", str(cfg))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["classify", "norm", "twirl"])
def test_two_copy_above_desk_cap_exits_3(tmp_path, capsys, command):
    # d = 17 would realize a 17^4 x 17^2 superoperator; the cap d**2 <= 256
    # refuses it before anything of that size is allocated.
    if command == "twirl":
        f = write(tmp_path / "m.json", matrix_to_obj(np.zeros((1, 289))))
    else:
        f = write(tmp_path / "big.json", {"d": 17, "coeffs": [[0.0, 0.0]] * 6})
    assert main([command, f]) == 3
    assert "desk-scale cap" in capsys.readouterr().err


def _refuse_draw(*args, **kwargs):
    raise AssertionError("sampling started")


def _refuse_sampling(monkeypatch):
    # The sample count must be refused at the command-line boundary,
    # before the sampling routines or their random streams are reached.
    for target in ("cli.twirl", "cli.cb_norm", "operators._normals"):
        monkeypatch.setattr(f"covmap.{target}", _refuse_draw)


def _sampling_input(tmp_path, command):
    if command == "twirl":
        sup = realize_superoperator(virtual_broadcast_coefficients(3))
        return write(tmp_path / "sup.json", matrix_to_obj(sup))
    # norm makes no draw, but its sample count is validated like twirl's
    c = CovariantCoefficients(3, (1, -1, 1, -1, 0, 0))
    return write(tmp_path / "c.json", coefficients_to_obj(c))


@pytest.mark.parametrize("command", ["twirl", "norm"])
@pytest.mark.parametrize("samples", [2**41, 0])
def test_samples_flag_out_of_range_exits_2_before_any_draw(
    tmp_path, monkeypatch, capsys, command, samples
):
    _refuse_sampling(monkeypatch)
    f = _sampling_input(tmp_path, command)
    assert main([command, f, "--samples", str(samples)]) == 2
    assert "2**40" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["twirl", "norm"])
def test_samples_config_out_of_range_exits_2_before_any_draw(
    tmp_path, monkeypatch, capsys, command
):
    _refuse_sampling(monkeypatch)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 2**41}), encoding="utf-8")
    monkeypatch.setenv("COVMAP_CONFIG", str(cfg))
    f = _sampling_input(tmp_path, command)
    assert main([command, f]) == 2
    assert "2**40" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, kind",
    [
        (["multicopy", "apply", "{mc}", "{x2}"], "input"),
        (["multicopy", "extract", "{x8}", "--m", "2", "--d", "3"], "superoperator"),
        (["multicopy", "fit", "{x8}", "--m", "2", "--d", "3"], "operator"),
    ],
)
def test_multicopy_shape_mismatch_exits_3(tmp_path, capsys, argv, kind):
    weights = MultiCopyCoefficients(2, 3, np.zeros((2, 3)))
    files = {
        "mc": write(tmp_path / "mc.json", multicopy_to_obj(weights)),
        "x2": write(tmp_path / "x2.json", matrix_to_obj(np.zeros((2, 2)))),
        "x8": write(tmp_path / "x8.json", matrix_to_obj(np.zeros((8, 8)))),
    }
    assert main([arg.format(**files) for arg in argv]) == 3
    shape = "(2, 2)" if kind == "input" else "(8, 8)"
    assert f"{kind} shape {shape} does not match m=2, d=3" in capsys.readouterr().err


def _count_leaves(obj):
    if isinstance(obj, (dict, list)):
        return sum(map(_count_leaves, obj.values() if isinstance(obj, dict) else obj))
    return 1


def _leaf(obj, key):
    """The value at a flattened key such as ``coefficients.coeffs[0][1]``."""
    for name, index in re.findall(r"([^.\[\]]+)|\[(\d+)\]", key):
        obj = obj[name] if name else obj[int(index)]
    return obj


@pytest.mark.parametrize(
    "name",
    ["classify", "norm-bracket", "twirl", "multicopy-apply", "multicopy-extract", "multicopy-fit"],
)
def test_format_text_holds_every_json_leaf(name, tmp_path, capsys):
    argv = criterion_12_invocations(tmp_path)[name]
    assert main(argv) == 0
    as_json = json.loads(capsys.readouterr().out)
    assert main([*argv, "--format", "text"]) == 0
    keys = []
    for line in capsys.readouterr().out.splitlines():
        key, value = re.fullmatch(r"([\w.\[\]]+) = (.+)", line).groups()
        assert json.loads(value) == _leaf(as_json, key)
        keys.append(key)
    assert len(set(keys)) == len(keys) == _count_leaves(as_json) > 0


@pytest.mark.parametrize("as_matrix", [False, True])
def test_norm_at_d2_accepts_weights_and_their_superoperator(tmp_path, capsys, as_matrix):
    # the d = 2 fit returns a representative with c5 = -c6 != 0; it is the same trace-free map
    c = CovariantCoefficients(2, (1, 0.5, 0.2, 0.1, 0, 0))
    obj = matrix_to_obj(realize_superoperator(c)) if as_matrix else coefficients_to_obj(c)
    assert main(["norm", write(tmp_path / "in.json", obj), "--samples", "200"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["method"], out["value_kind"]) == ("schur-multiplier", "exact")
    assert out["value"] == pytest.approx(1.8, rel=1e-12)


@pytest.mark.parametrize("action", ["extract", "fit"])
def test_multicopy_above_desk_cap_exits_3_before_reading_the_input(tmp_path, monkeypatch, capsys, action):
    def refuse_read(path):
        raise AssertionError(f"{path} was read")

    missing = str(tmp_path / "missing.json")
    argv = ["multicopy", action, missing, "--m", "4", "--d", "5"]
    assert main(argv) == 3  # the cap is checked before the missing file would exit 2
    assert "desk-scale cap" in capsys.readouterr().err
    monkeypatch.setattr("covmap.cli._read_json", refuse_read)
    assert main(argv) == 3
    assert main(["multicopy", action, missing, "--m", "5", "--d", "2"]) == 2


def test_consecutive_calls_print_what_each_prints_alone(tmp_path, monkeypatch, capsys):
    vb = write(tmp_path / "vb.json", coefficients_to_obj(virtual_broadcast_coefficients(3)))
    sup = write(tmp_path / "sup.json", matrix_to_obj(realize_superoperator(virtual_broadcast_coefficients(3))))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 5, "seed": 3, "format": "text"}), encoding="utf-8")
    # (config set?, argv), run in this order
    steps = [
        (False, ["twirl", sup, "--samples", "5", "--seed", "1"]),
        (False, ["twirl", sup, "--samples", "5", "--seed", "2"]),
        (False, ["classify", vb, "--format", "text"]),
        (False, ["classify", vb, "--d", "4"]),
        (False, ["classify", vb, "--bogus"]),
        (False, ["classify", vb]),
        (True, ["twirl", sup]),
        (True, ["classify", vb, "--d", "4"]),
        (False, ["twirl", sup, "--samples", "6"]),
        (False, ["classify", vb, "--d", "3"]),
    ]

    def run(config, argv):
        if config:
            monkeypatch.setenv("COVMAP_CONFIG", str(cfg))
        else:
            monkeypatch.delenv("COVMAP_CONFIG", raising=False)
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    shared = cli._PARSER
    alone = []
    for step in steps:
        monkeypatch.setattr(cli, "_PARSER", cli._build_parser())
        alone.append(run(*step))
    monkeypatch.setattr(cli, "_PARSER", shared)
    assert [run(*step) for step in steps] == alone
    assert [code for code, _, _ in alone] == [0, 0, 0, 3, 2, 0, 0, 3, 0, 0]
    assert alone[6][1].startswith("coefficients.coeffs[0][0] = ")  # the config's text format
    assert "config key 'd'" not in alone[7][2] and "--d 4 conflicts" in alone[7][2]


@pytest.mark.parametrize("command", [[], ["classify"], ["norm"], ["twirl"], ["multicopy"]])
def test_help_of_the_shared_parser_matches_a_fresh_parser(monkeypatch, capsys, command):
    assert main(["classify", "--bogus"]) == 2
    capsys.readouterr()
    assert main([*command, "--help"]) == 0
    shared = capsys.readouterr().out
    monkeypatch.setattr(cli, "_PARSER", cli._build_parser())
    assert main([*command, "--help"]) == 0
    assert capsys.readouterr().out == shared
    assert shared.startswith(f"usage: {' '.join(['covmap', *command])} ")
