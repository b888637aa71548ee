import json

import numpy as np
import pytest

from covmap.classify import classify
from covmap.linalg import DimensionError
from covmap.multicopy import MultiCopyCoefficients
from covmap.norms import cb_norm
from covmap.operators import Permutation
from covmap.serialize import (
    SchemaError,
    cb_norm_result_to_obj,
    classification_report_to_obj,
    coefficients_from_obj,
    coefficients_to_obj,
    dumps,
    matrix_from_obj,
    matrix_to_obj,
    multicopy_from_obj,
    multicopy_to_obj,
    permutation_from_obj,
    permutation_to_obj,
    twirl_result_to_obj,
)
from covmap.twirl import twirl
from covmap.twocopy import CovariantCoefficients, realize_superoperator, virtual_broadcast_coefficients


def test_matrix_round_trip_bit_exact():
    rng = np.random.default_rng(50)
    a = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    a[0, 0] = 1e-300 + 1e300j  # extreme but finite doubles survive
    back = matrix_from_obj(json.loads(dumps(matrix_to_obj(a))))
    assert back.shape == a.shape
    assert np.array_equal(back, a)


def test_matrix_schema_errors():
    with pytest.raises(SchemaError):
        matrix_from_obj({"rows": 2, "cols": 2})
    with pytest.raises(SchemaError):
        matrix_from_obj({"rows": 2, "cols": 2, "data": [[0, 0]] * 3})
    with pytest.raises(SchemaError):
        matrix_from_obj({"rows": 0, "cols": 2, "data": []})
    with pytest.raises(SchemaError):
        matrix_from_obj({"rows": 1, "cols": 1, "data": [[0, 0, 0]]})
    with pytest.raises(SchemaError):
        matrix_from_obj({"rows": 1, "cols": 1, "data": [[True, 0.0]]})
    with pytest.raises(SchemaError):
        matrix_from_obj({"rows": True, "cols": 1, "data": [[0, 0]]})
    with pytest.raises(SchemaError):
        matrix_to_obj(np.array([np.nan]).reshape(1, 1))
    with pytest.raises(SchemaError):
        matrix_to_obj(np.zeros(4))


def test_coefficients_round_trip():
    c = CovariantCoefficients(3, (1, -2.5, 0.25 + 1j, 0.25 - 1j, 1e-17, 3))
    back = coefficients_from_obj(json.loads(dumps(coefficients_to_obj(c))))
    assert back.d == 3
    assert np.array_equal(back.as_array(), c.as_array())


def test_coefficients_schema_errors():
    with pytest.raises(SchemaError):
        coefficients_from_obj({"d": 3, "coeffs": [[0, 0]] * 5})
    # dimension violations keep their own type so the CLI can map them to
    # a distinct exit code
    with pytest.raises(DimensionError):
        coefficients_from_obj({"d": 1, "coeffs": [[0, 0]] * 6})
    with pytest.raises(SchemaError):
        coefficients_from_obj({"coeffs": [[0, 0]] * 6})
    with pytest.raises(SchemaError):
        coefficients_from_obj({"d": 2.0, "coeffs": [[0, 0]] * 6})


def test_multicopy_round_trip():
    rng = np.random.default_rng(51)
    lam = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    mc = MultiCopyCoefficients(3, 2, lam)
    back = multicopy_from_obj(json.loads(dumps(multicopy_to_obj(mc))))
    assert back.m == 3 and back.d == 2
    assert np.array_equal(back.lam, mc.lam)


def test_multicopy_schema_errors():
    with pytest.raises(SchemaError):
        multicopy_from_obj({"m": 2, "d": 3, "lam": [[[0, 0]] * 3]})  # one row short
    with pytest.raises(SchemaError):
        multicopy_from_obj({"m": 2, "d": 3, "lam": "nope"})


def test_permutation_round_trip():
    p = Permutation((3, 1, 2, 4))
    back = permutation_from_obj(json.loads(dumps(permutation_to_obj(p))))
    assert back == p
    with pytest.raises(SchemaError):
        permutation_from_obj({"m": 3, "image": [1, 2]})
    with pytest.raises(SchemaError):
        permutation_from_obj({"m": 3, "image": [1, 2, 2]})


def test_dumps_is_deterministic_and_sorted():
    obj = {"b": 1, "a": [1.5, -0.0]}
    s1 = dumps(obj)
    s2 = dumps({"a": [1.5, -0.0], "b": 1})
    assert s1 == s2
    assert s1.index('"a"') < s1.index('"b"')
    assert s1.endswith("\n")
    with pytest.raises(ValueError):
        dumps({"x": float("inf")})


def test_negative_zero_survives():
    a = np.array([[complex(-0.0, 0.0)]])
    back = matrix_from_obj(json.loads(dumps(matrix_to_obj(a))))
    assert np.signbit(back[0, 0].real)


def test_report_and_norm_objects_serialize():
    rep = classify(virtual_broadcast_coefficients(3))
    obj = classification_report_to_obj(rep)
    text = dumps(obj)
    parsed = json.loads(text)
    assert parsed["virtual_broadcaster"] is True
    assert parsed["positive"] is False
    assert parsed["completely_positive"] == "no"

    res = cb_norm(CovariantCoefficients(3, (1, -1, 1, -1, 0, 0)))
    obj = cb_norm_result_to_obj(res)
    parsed = json.loads(dumps(obj))
    assert (parsed["value_kind"], parsed["value"]) == ("exact", 4.0)
    assert parsed["detail"]["corner_magnitudes"] == [0.0, 4.0, 0.0, 0.0]

    exact = cb_norm_result_to_obj(cb_norm(virtual_broadcast_coefficients(3)))
    assert json.loads(dumps(exact))["value"] == 1.0


def test_twirl_result_serializes_without_bulk_matrix():
    sup = realize_superoperator(virtual_broadcast_coefficients(3))
    res = twirl(sup, 3, samples=5, seed=0)
    parsed = json.loads(dumps(twirl_result_to_obj(res)))
    assert set(parsed) == {
        "coefficients",
        "residual",
        "samples",
        "seed",
        "deviation_before",
        "deviation_after",
    }
    assert parsed["samples"] == 5
