import numpy as np
import pytest

from _oracles import gaussian_hermitians
from covmap.linalg import DimensionError, hermitian_eigenvalues, kron, operator_norm
from covmap.operators import (
    _BLOCK,
    Permutation,
    _haar_unitaries,
    _normals,
    gaussian_hermitian,
    haar_unitary,
    matrix_unit,
    permutation_operator,
    substream,
    swap_operator,
    sym_projector,
)


def test_swap_flat_index_permutation():
    s = swap_operator(2)
    for flat_in, flat_out in ((0, 0), (1, 2), (2, 1), (3, 3)):
        e = np.zeros(4)
        e[flat_in] = 1.0
        got = s @ e
        assert got[flat_out] == 1.0 and np.abs(got).sum() == 1.0


def test_swap_involution_and_hermiticity():
    for d in (2, 3, 4):
        s = swap_operator(d)
        assert np.abs(s @ s - np.eye(d * d)).max() == 0.0
        assert np.array_equal(s, s.conj().T)


def test_swap_fixes_doubled_projector():
    for d in (2, 3):
        p = kron(matrix_unit(1, 1, d), matrix_unit(1, 1, d))
        assert np.abs(swap_operator(d) @ p - p).max() == 0.0


def test_swap_spectrum_multiplicities():
    for d in (2, 3):
        ev = hermitian_eigenvalues(swap_operator(d))
        assert np.sum(np.isclose(ev, 1.0)) == d * (d + 1) // 2
        assert np.sum(np.isclose(ev, -1.0)) == d * (d - 1) // 2


def test_swap_matches_double_loop_reference():
    for d in range(2, 9):
        ref = np.zeros((d * d, d * d), dtype=np.complex128)
        for i in range(d):
            for j in range(d):
                ref[j * d + i, i * d + j] = 1.0
        got = swap_operator(d)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


def test_swap_rejects_small_d():
    with pytest.raises(DimensionError):
        swap_operator(1)


def test_sym_projector_idempotent_complementary():
    for d in (2, 3):
        q = sym_projector(d, +1)
        r = sym_projector(d, -1)
        assert np.abs(q @ q - q).max() < 1e-14
        assert np.abs(r @ r - r).max() < 1e-14
        assert np.abs(q + r - np.eye(d * d)).max() == 0.0
        assert np.trace(q).real == pytest.approx(d * (d + 1) / 2)


def test_sym_projector_compression_identity():
    # Q (I(x)X) Q = (1/4)(I(x)X + X(x)I + S(I(x)X) + S(X(x)I))
    rng = np.random.default_rng(0)
    for d in (2, 3):
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        q = sym_projector(d, +1)
        s = swap_operator(d)
        eye = np.eye(d)
        expected = (kron(eye, x) + kron(x, eye) + s @ kron(eye, x) + s @ kron(x, eye)) / 4
        assert np.abs(q @ kron(eye, x) @ q - expected).max() < 1e-13
        assert np.abs(q @ kron(x, eye) @ q - expected).max() < 1e-13


def test_permutation_validation_and_parse():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    assert Permutation.parse("2 3 1") == Permutation((2, 3, 1))
    assert Permutation.parse("2,3,1") == Permutation((2, 3, 1))
    assert Permutation.parse("(1 2 3)") == Permutation((2, 3, 1))
    assert Permutation.parse("(1 2)", m=3) == Permutation((2, 1, 3))
    assert Permutation.identity(3) == Permutation((1, 2, 3))


def test_permutation_algebra():
    s = Permutation((2, 3, 1))
    assert s.inverse() == Permutation((3, 1, 2))
    assert (s * s.inverse()) == Permutation.identity(3)
    # compose applies the right factor first
    t = Permutation((2, 1, 3))
    assert (s * t).image == tuple(s(t(k)) for k in (1, 2, 3))
    assert Permutation.identity(4).cycle_count() == 4
    assert Permutation((2, 3, 1)).cycle_count() == 1
    assert Permutation((2, 1, 3)).cycle_count() == 2


def test_permutation_operator_identity_and_swap():
    assert np.array_equal(permutation_operator(Permutation.identity(2), 3), np.eye(9))
    assert np.array_equal(permutation_operator(Permutation((2, 1)), 3), swap_operator(3))


def test_permutation_operator_moves_slots():
    # cycle 1->2->3->1 sends e1(x)e2(x)e3 to e3(x)e1(x)e2
    p = Permutation.from_cycles(3, [(1, 2, 3)])
    g = permutation_operator(p, 3)
    v = np.zeros(27)
    v[0 * 9 + 1 * 3 + 2] = 1.0
    got = g @ v
    assert got[2 * 9 + 0 * 3 + 1] == 1.0 and np.abs(got).sum() == 1.0


def test_permutation_operator_homomorphism_s3():
    import itertools

    perms = [Permutation(img) for img in itertools.permutations((1, 2, 3))]
    for d in (2, 3):
        ops = {p.image: permutation_operator(p, d) for p in perms}
        for a in perms:
            for b in perms:
                lhs = ops[a.image] @ ops[b.image]
                rhs = permutation_operator(a * b, d)
                assert np.abs(lhs - rhs).max() == 0.0


def test_permutation_operator_unitary_with_adjoint_inverse():
    p = Permutation((3, 1, 4, 2))
    g = permutation_operator(p, 2)
    assert np.abs(g @ g.conj().T - np.eye(16)).max() == 0.0
    assert np.array_equal(g.conj().T, permutation_operator(p.inverse(), 2))


def test_matrix_unit_product_and_range():
    assert np.array_equal(
        matrix_unit(1, 2, 2) @ matrix_unit(2, 1, 2), matrix_unit(1, 1, 2)
    )
    with pytest.raises(IndexError):
        matrix_unit(3, 1, 2)


def test_haar_unitary_deterministic_and_unitary():
    u1 = haar_unitary(4, seed=42, index=7)
    u2 = haar_unitary(4, seed=42, index=7)
    assert np.array_equal(u1, u2)
    assert np.abs(haar_unitary(4, seed=42, index=8) - u1).max() > 1e-3
    for d in (2, 3, 4):
        for k in range(20):
            u = haar_unitary(d, seed=1, index=k)
            assert np.abs(u @ u.conj().T - np.eye(d)).max() < 1e-12


def test_haar_unitary_commutes_with_swap():
    s = swap_operator(3)
    for k in range(20):
        u = haar_unitary(3, seed=2, index=k)
        w = kron(u, u)
        assert operator_norm(w @ s - s @ w) < 1e-12


def test_haar_first_moment_projects_to_maximally_mixed():
    d = 2
    e = matrix_unit(1, 1, d)
    acc = np.zeros((d, d), dtype=complex)
    n = 10_000
    for k in range(n):
        u = haar_unitary(d, seed=3, index=k)
        acc += u @ e @ u.conj().T
    assert np.abs(acc / n - np.eye(d) / d).max() < 3e-2


def test_substream_disjoint_indices():
    a = substream(5, index=0).standard_normal(4)
    b = substream(5, index=1).standard_normal(4)
    c = substream(5, index=0, stream=1).standard_normal(4)
    assert np.abs(a - b).max() > 1e-6
    assert np.abs(a - c).max() > 1e-6
    assert np.array_equal(a, substream(5, index=0).standard_normal(4))


def test_gaussian_hermitian_is_hermitian():
    h = gaussian_hermitian(4, substream(9))
    assert np.abs(h - h.conj().T).max() == 0.0


@pytest.mark.parametrize("seed", [0, 12, 2**63 + 5, -7, -(2**63), 2**64 - 1])
@pytest.mark.parametrize("stream", [0, 1])
def test_stacked_normals_are_bit_equal_to_substream_draws(seed, stream):
    # Past one block, out of order, and up to the last substream index.
    indices = list(range(_BLOCK + 5)) + [2**40 - 1, 3, 2**40 - 2, 2**39, 2**32 + 1]
    stacked = _normals(seed, indices, stream, (2, 3, 3))
    per_index = [substream(seed, k, stream).standard_normal((2, 3, 3)) for k in indices]
    assert stacked.tobytes() == np.stack(per_index).tobytes()


@pytest.mark.parametrize("seed", [0, -7, 2**64 - 1, 2**64 + 3])
@pytest.mark.parametrize("stream", [0, 1, 2**24 + 1])
@pytest.mark.parametrize("index", [0, 5, 2**40 - 1])
def test_substream_key_is_seed_then_stream_and_index(seed, stream, index):
    # Philox key (seed mod 2**64, (stream mod 2**24) * 2**40 + index).
    key = np.array([seed % 2**64, (stream % 2**24) * 2**40 + index], dtype=np.uint64)
    want = np.random.Generator(np.random.Philox(key=key)).standard_normal(7)
    assert substream(seed, index, stream).standard_normal(7).tobytes() == want.tobytes()
    assert _normals(seed, [index], stream, (7,)).tobytes() == want.tobytes()


@pytest.mark.parametrize("d", [2, 3, 5])
def test_stacked_gaussian_hermitians_are_bit_equal_to_per_index_draws(d):
    # The stacked draw of the norm tests' probes, from _normals on stream 1.
    indices = [0, 7, _BLOCK + 2, 4]
    stacked = gaussian_hermitians(d, 21, indices)
    per_index = [gaussian_hermitian(d, substream(21, k, stream=1)) for k in indices]
    assert stacked.tobytes() == np.stack(per_index).tobytes()


def test_stacked_normals_refuse_index_outside_substream_range():
    for index in (-1, 2**40, 2**64):
        with pytest.raises(ValueError, match=f"^substream index {index} out of range$"):
            _normals(0, [3, index, 2**41], 0, (2,))
        with pytest.raises(ValueError, match=f"^substream index {index} out of range$"):
            substream(0, index)


def _per_index_haar(d, seed, index):
    # The one-unitary draw that the stacked draw replaced.
    rng = substream(seed, index)
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_stacked_haar_draw_is_bit_equal_to_per_index_draws(d):
    indices = list(range(_BLOCK + 5)) + [2**40 - 1, 3]  # past one block, out of order
    stacked = _haar_unitaries(d, 12, indices)
    assert np.array_equal(stacked, np.stack([haar_unitary(d, 12, k) for k in indices]))
    assert np.array_equal(stacked, np.stack([_per_index_haar(d, 12, k) for k in indices]))
