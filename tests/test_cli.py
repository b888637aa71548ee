import json
import re

import numpy as np
import pytest

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
    # the violation |c4 - conj(c3)| is the binding one, so the verdict must
    # still come out as a plain bool the JSON encoder accepts
    f = write(tmp_path / "c.json", coefficients_to_obj(CovariantCoefficients(3, (0, 0, 1, 0, 0, 0))))
    assert main(["classify", f]) == 0
    assert json.loads(capsys.readouterr().out)["self_adjoint"] is False


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
