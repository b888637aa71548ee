import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from covmap.serialize import _unpair
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


# Pairs that _unpair refuses, each with the message it gives.
BAD_PAIRS = [True, "1", None, {}, [1], [1, 2, 3], [[1], 2], [float("nan"), 0], [0, float("inf")],
             [float("-inf"), 1], [10**400, 0], [False, 0.5], [0.5, None]]


def _unpair_message(pair) -> str:
    with pytest.raises(SchemaError) as refused:
        _unpair(pair)
    return str(refused.value)


@pytest.mark.parametrize("bad", BAD_PAIRS, ids=repr)
@pytest.mark.parametrize("where", [0, 3, 5], ids=["first", "middle", "last"])
def test_the_whole_list_reader_names_the_first_bad_pair(bad, where):
    want = _unpair_message(bad)
    data = [[0.5, -1]] * 6
    data[where] = bad
    if where < 5:
        data[5] = [float("nan"), 0]  # a later bad pair must not be the one named
    readers = [
        lambda: matrix_from_obj({"rows": 2, "cols": 3, "data": data}),
        lambda: coefficients_from_obj({"d": 3, "coeffs": data}),
        lambda: multicopy_from_obj({"m": 2, "d": 3, "lam": [data[:3], data[3:]]}),
    ]
    for read in readers:
        with pytest.raises(SchemaError) as refused:
            read()
        assert str(refused.value) == want


def test_the_whole_list_reader_accepts_what_unpair_accepts():
    data = [[np.float64(0.25), np.float64(-1.5)], [1, -2], (3, 4.5), [-0.0, 0.0], [2**53 + 1, -(2**70) - 1]]
    got = matrix_from_obj({"rows": 1, "cols": 5, "data": data})
    assert got.dtype == np.complex128
    assert got.tolist() == [[_unpair(p) for p in data]]
    assert np.signbit(got[0, 3].real) and not np.signbit(got[0, 3].imag)
    assert got[0, 4].real == float(2**53 + 1) == 2.0**53  # rounded as float() rounds it
    lam = [data[:3], data[2:]]
    mc = multicopy_from_obj({"m": 2, "d": 3, "lam": lam})
    assert mc.lam.tolist() == [[_unpair(p) for p in row] for row in lam]
    c = coefficients_from_obj({"d": 3, "coeffs": data + [[7, 8]]})
    assert c.coeffs == tuple(_unpair(p) for p in data + [[7, 8]])
    assert all(type(z) is complex for z in c.coeffs)


@pytest.mark.parametrize(
    "lam, message",
    [
        ([], "lam shape (0,) does not match (m!, m+1) for m=2"),
        ([[], []], "lam shape (2, 0) does not match (m!, m+1) for m=2"),
        ([[[1, 2]], [[1, 2], [3, 4]]], "inhomogeneous shape after 1 dimensions"),
    ],
)
def test_an_empty_or_ragged_weight_table_is_refused_by_its_shape(lam, message):
    with pytest.raises(SchemaError, match=re.escape(message)):
        multicopy_from_obj({"m": 2, "d": 3, "lam": lam})


def _pair(z) -> list[float]:
    """The [real, imag] pair of one entry, written entry by entry."""
    z = complex(z)
    assert math.isfinite(z.real) and math.isfinite(z.imag)
    return [float(z.real), float(z.imag)]


def test_the_whole_array_writer_matches_the_entry_by_entry_writer():
    # repr tells -0.0 from 0.0
    rng = np.random.default_rng(52)
    a = rng.standard_normal((7, 9)) + 1j * rng.standard_normal((7, 9))
    special = [0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e-300, 1e-300, -1e300]
    a[0, : len(special)] = special
    a[1, : len(special)] = 1j * np.array(special)
    for x in (a, a.T, a[:, ::2], a.real):
        assert repr(matrix_to_obj(x)["data"]) == repr([_pair(z) for z in x.ravel()])
    mc = MultiCopyCoefficients(3, 2, a[:6, :4])
    assert repr(multicopy_to_obj(mc)["lam"]) == repr([[_pair(z) for z in row] for row in mc.lam])
    c = CovariantCoefficients(3, tuple(a[1, :6]))
    assert repr(coefficients_to_obj(c)["coeffs"]) == repr([_pair(z) for z in c.coeffs])
    for bad in (np.nan, np.inf, -np.inf * 1j):
        a[2, 3] = bad
        with pytest.raises(SchemaError, match="non-finite"):
            matrix_to_obj(a)


def _oracle(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _outcome(render, obj):
    """The text render gives obj, or the class of the exception it raises."""
    try:
        return render(obj)
    except (ValueError, TypeError) as exc:  # messages differ across Python versions
        return type(exc)


_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e22, -1e-7, 1.7976931348623157e308]),
)
_NUMBERS = st.one_of(
    _FINITE,
    _FINITE.map(np.float64),
    st.integers(),
    st.integers(2**63, 2**200),
    st.integers(-(2**200), -(2**63)),
)
_TEXT = st.one_of(st.text(), st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u2028", "\U0001f600", "a\"b\nc"]))


def _trees(numbers):
    """JSON-like trees whose leaves include float lists and pair lists, pure or mixed."""
    pair = st.lists(numbers, min_size=2, max_size=2)
    leaves = st.one_of(
        st.none(), st.booleans(), numbers, _TEXT,
        st.lists(_FINITE, max_size=6),  # the one-join path
        st.lists(st.lists(_FINITE, min_size=2, max_size=2), max_size=6),  # the one-join path
        st.lists(st.one_of(pair, st.lists(st.one_of(numbers, st.booleans()), min_size=2, max_size=2)), max_size=6),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(_TEXT, children, max_size=4),
        ),
        max_leaves=24,
    )


@settings(max_examples=150, deadline=None)
@given(_trees(_NUMBERS))
def test_dumps_writes_the_bytes_of_json_dumps(obj):
    assert dumps(obj) == _oracle(obj)


_ANY_NUMBERS = st.one_of(
    _NUMBERS,
    st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan")]),
    st.sampled_from([np.int64(3), np.bool_(True), 1j, b"x", {1}]),  # unsupported types
)


@settings(max_examples=150, deadline=None)
@given(_trees(_ANY_NUMBERS))
def test_dumps_raises_as_json_dumps_does(obj):
    assert _outcome(dumps, obj) == _outcome(_oracle, obj)


@pytest.mark.parametrize("obj, error", [
    (math.nan, ValueError), ([1.0, math.inf], ValueError), ([[1.0, -math.inf]], ValueError),
    ({"a": [[0.0, math.nan]]}, ValueError), ({"a": np.int64(1)}, TypeError),
    ([[1.0, 2.0], object()], TypeError), ({(1,): 2}, TypeError), (np.zeros(2), TypeError),
])
def test_dumps_refuses_what_json_dumps_refuses(obj, error):
    with pytest.raises(error):
        dumps(obj)
    with pytest.raises(error):
        _oracle(obj)


def test_dumps_refuses_a_key_that_is_not_a_string():
    for obj in ({1: 2}, {None: [[1.0, 2.0]]}, {"a": {2.5: 0}}):
        with pytest.raises(TypeError):
            dumps(obj)
