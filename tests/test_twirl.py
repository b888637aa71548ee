import tracemalloc
import warnings

import numpy as np
import pytest

from covmap.linalg import DimensionError, vec
from covmap.operators import haar_unitary, matrix_unit
from covmap.twirl import TwirlResult, conjugated_superoperator, covariance_deviation, twirl, twirl_operator
from covmap.twocopy import (
    CovariantCoefficients,
    gauge_reduce,
    realize_superoperator,
    virtual_broadcast_coefficients,
)


def classical_copy_superoperator(d):
    """X -> sum_i <e_i, X e_i> E_ii (x) E_ii, the fixed-basis copier."""
    sup = np.zeros((d**4, d**2), dtype=complex)
    for i in range(d):
        for j in range(d):
            x = matrix_unit(i + 1, j + 1, d)
            y = np.zeros((d * d, d * d), dtype=complex)
            for k in range(d):
                y[k * d + k, k * d + k] = x[k, k]
            sup[:, j * d + i] = vec(y)
    return sup


def test_conjugated_superoperator_identity_is_noop():
    sup = realize_superoperator(virtual_broadcast_coefficients(3))
    assert np.array_equal(conjugated_superoperator(sup, np.eye(3, dtype=complex)), sup)
    rng = np.random.default_rng(29)
    for d in (2, 4):
        sup = rng.standard_normal((d**4, d * d)) + 1j * rng.standard_normal((d**4, d * d))
        assert np.array_equal(conjugated_superoperator(sup, np.eye(d, dtype=complex)), sup)


def test_covariant_maps_are_fixed_points():
    rng = np.random.default_rng(40)
    vals = rng.standard_normal(12)
    c = CovariantCoefficients(3, tuple(complex(vals[2 * k], vals[2 * k + 1]) for k in range(6)))
    res = twirl(realize_superoperator(c), 3, samples=50, seed=1)
    assert isinstance(res, TwirlResult)
    assert np.abs(res.coefficients.as_array() - c.as_array()).max() < 1e-10
    assert res.residual < 1e-10
    assert res.deviation_before < 1e-10
    assert res.deviation_after < 1e-10


def test_twirl_at_d2_reports_gauge_reduced_coefficients():
    c = CovariantCoefficients(2, (1, 0, 0, 0, 0, 0))
    res = twirl(realize_superoperator(c), 2, samples=20, seed=2)
    reduced = gauge_reduce(c)
    assert np.abs(res.coefficients.as_array() - reduced.as_array()).max() < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4])
def test_single_sample_is_one_conjugation(d):
    rng = np.random.default_rng(50 + d)
    sup = rng.standard_normal((d**4, d * d)) + 1j * rng.standard_normal((d**4, d * d))
    res = twirl(sup, d, samples=1, seed=d)
    assert res.averaged.tobytes() == conjugated_superoperator(sup, haar_unitary(d, d, 0)).tobytes()
    assert res.samples == 1


def test_twirl_of_classical_copier_approaches_symmetric_average():
    sup = classical_copy_superoperator(3)
    res = twirl(sup, 3, samples=2000, seed=0)
    # exact average is the map with all six weights 1/((d+1)(d+2)) = 1/20
    assert np.abs(res.coefficients.as_array() - 0.05).max() < 5e-3
    assert res.residual < 5e-2
    assert res.deviation_after < res.deviation_before
    r100 = twirl(sup, 3, samples=100, seed=0)
    r1000 = twirl(sup, 3, samples=1000, seed=0)
    assert r1000.residual < r100.residual


def test_twirl_deterministic_per_seed():
    sup = classical_copy_superoperator(3)
    a = twirl(sup, 3, samples=60, seed=7)
    b = twirl(sup, 3, samples=60, seed=7)
    assert np.array_equal(a.coefficients.as_array(), b.coefficients.as_array())
    assert a.residual == b.residual
    c = twirl(sup, 3, samples=60, seed=8)
    assert not np.array_equal(a.coefficients.as_array(), c.coefficients.as_array())


def test_twirl_is_linear_at_fixed_seed():
    rng = np.random.default_rng(41)
    s1 = rng.standard_normal((81, 9)) + 1j * rng.standard_normal((81, 9))
    s2 = rng.standard_normal((81, 9)) + 1j * rng.standard_normal((81, 9))
    a, b = 0.7, -1.3 + 0.4j
    ca = twirl(s1, 3, samples=40, seed=3).coefficients.as_array()
    cb = twirl(s2, 3, samples=40, seed=3).coefficients.as_array()
    cc = twirl(a * s1 + b * s2, 3, samples=40, seed=3).coefficients.as_array()
    assert np.abs(cc - (a * ca + b * cb)).max() < 1e-10


def test_twirl_idempotent_within_noise():
    sup = classical_copy_superoperator(3)
    first = twirl(sup, 3, samples=2000, seed=5)
    second = twirl(first.averaged, 3, samples=500, seed=6)
    # the second pass can only move coefficients by the off-family part of
    # the first average, which the first residual bounds
    drift = np.abs(second.coefficients.as_array() - first.coefficients.as_array()).max()
    assert drift < 5 * first.residual


def test_twirl_output_near_covariant_relative_to_input_norm():
    sup = classical_copy_superoperator(3)
    res = twirl(sup, 3, samples=2000, seed=9)
    stat_tol = 3.0 / np.sqrt(2000) * np.linalg.norm(sup)
    covariant_floor = twirl(
        realize_superoperator(virtual_broadcast_coefficients(3)), 3, samples=10, seed=9
    ).deviation_after
    assert res.deviation_after < 10 * covariant_floor + stat_tol


def test_covariance_deviation_cases():
    sup = realize_superoperator(virtual_broadcast_coefficients(3))
    assert covariance_deviation(sup, 3, samples=5, seed=0) < 1e-10
    assert covariance_deviation(classical_copy_superoperator(2), 2, samples=5, seed=0) > 0.1
    assert covariance_deviation(np.zeros((16, 4), dtype=complex), 2, samples=3, seed=0) == 0.0


def test_an_overflow_past_the_double_range_is_refused_without_warnings():
    rng = np.random.default_rng(3)
    sup = rng.standard_normal((81, 9)) + 1j * rng.standard_normal((81, 9))
    sup *= 1.7e308 / np.abs(sup).max()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError, match="overflow the double range"):
            covariance_deviation(sup, 3, samples=4, seed=0)
        with pytest.raises(ValueError, match="overflows the double range"):
            twirl(sup, 3, samples=4, seed=0)
        with pytest.raises(ValueError, match="overflows the double range"):
            twirl_operator(np.full((9, 9), 1.7e308), 2, 3, samples=4, seed=0)


def test_twirl_validates_shapes():
    with pytest.raises(ValueError):
        twirl(np.zeros((80, 9), dtype=complex), 3, samples=10, seed=0)
    with pytest.raises(ValueError):
        twirl(np.zeros((81, 9), dtype=complex), 3, samples=0, seed=0)


def test_sample_count_beyond_substream_range_refused_up_front():
    sup = realize_superoperator(virtual_broadcast_coefficients(3))
    for kwargs in ({"samples": 2**40 + 1}, {"samples": 5, "deviation_samples": 2**40 + 1}):
        with pytest.raises(ValueError, match="2\\*\\*40"):
            twirl(sup, 3, seed=0, **kwargs)
    with pytest.raises(ValueError, match="2\\*\\*40"):
        covariance_deviation(sup, 3, samples=2**40 + 1)


# Reference: the Kronecker conjugation the digit-axis kernel replaced.
def _kron_conjugated(sup, u):
    w = np.kron(u, u)
    return np.kron(w.T, w.conj().T) @ sup @ np.kron(u.conj(), u)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_conjugated_superoperator_matches_kron_reference(d):
    rng = np.random.default_rng(60 + d)
    sup = rng.standard_normal((d**4, d * d)) + 1j * rng.standard_normal((d**4, d * d))
    for k in range(3):
        u = haar_unitary(d, 11, k)
        got = conjugated_superoperator(sup, u)
        assert np.abs(got - _kron_conjugated(sup, u)).max() <= 1e-14 * np.abs(sup).max()


@pytest.mark.parametrize("d,samples", [(2, 70), (3, 50), (4, 9), (5, 3)])
def test_twirl_average_matches_kron_reference_loop(d, samples):
    # The sample counts cross the block boundaries of the Haar average; at
    # d = 5 each stack, summed in the last pair's GEMM, holds one sample.
    rng = np.random.default_rng(70 + d)
    sup = rng.standard_normal((d**4, d * d)) + 1j * rng.standard_normal((d**4, d * d))
    ref = sum(_kron_conjugated(sup, haar_unitary(d, 3, k)) for k in range(samples)) / samples
    got = twirl(sup, d, samples=samples, seed=3, deviation_samples=1).averaged
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(sup).max()
    # the summed GEMM against the conjugates one at a time
    ref = sum(conjugated_superoperator(sup, haar_unitary(d, 3, k)) for k in range(samples))
    assert np.abs(got - ref / samples).max() <= 1e-13 * np.abs(sup).max()


def test_conjugated_superoperator_rejects_mismatched_shapes():
    u = haar_unitary(3, 0, 0)
    with pytest.raises(DimensionError):
        conjugated_superoperator(np.zeros((16, 4), dtype=complex), u)
    with pytest.raises(DimensionError):
        conjugated_superoperator(np.zeros((81, 9), dtype=complex), u[:, :2])


def test_conjugated_superoperator_memory_stays_near_input_size():
    # At d = 8 a d^4 x d^4 Kronecker factor alone would take 268 MB.
    d = 8
    rng = np.random.default_rng(80)
    sup = rng.standard_normal((d**4, d * d)) + 1j * rng.standard_normal((d**4, d * d))
    u = haar_unitary(d, 0, 0)
    tracemalloc.start()
    try:
        conjugated_superoperator(sup, u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * sup.nbytes


def _twirl_peak(sup, d, samples):
    twirl(sup, d, samples=1, deviation_samples=1)  # index caches and BLAS buffers
    tracemalloc.start()
    try:
        twirl(sup, d, samples=samples, deviation_samples=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_twirl_memory_is_flat_in_samples():
    # Each stack of conjugates is summed into the average as it is formed.
    d = 4
    rng = np.random.default_rng(86)
    sup = rng.standard_normal((d**4, d * d)) + 1j * rng.standard_normal((d**4, d * d))
    assert _twirl_peak(sup, d, 400) < 1.1 * _twirl_peak(sup, d, 50)
