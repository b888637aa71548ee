"""Reference computations that covmap's outputs are checked against.

Everything here is written from the definitions with plain numpy and
imports nothing from covmap, so a defect in a covmap routine cannot hide in
its own oracle.  Conventions follow covmap's documentation:

- superoperators act on column-stacked vectors, so column ``b*d + a`` is the
  image of the matrix unit E_ab (0-based);
- two-copy weights (c1..c6) multiply I(x)X, X(x)I, S(I(x)X), S(X(x)I),
  tr(X) I(x)I and tr(X) S;
- an m-copy table lam has one row per permutation of the slots (lexicographic
  one-line order) and columns (trace term, X in slot 1, ..., X in slot m);
  the permutation operator sends the factor in slot s^-1(t) to slot t;
- seeded unitaries come from the counter-based stream keyed by
  (seed, sample index).
"""

from __future__ import annotations

import itertools
import math
from functools import reduce

import numpy as np

MASK64 = (1 << 64) - 1


def vec(x: np.ndarray) -> np.ndarray:
    return np.asarray(x).T.reshape(-1)


def images(superop: np.ndarray, n: int) -> np.ndarray:
    """Stack of the n x n images of all matrix units, in column order."""
    return superop.T.reshape(-1, n, n).transpose(0, 2, 1)


def unit(a: int, b: int, d: int) -> np.ndarray:
    e = np.zeros((d, d), dtype=np.complex128)
    e[a, b] = 1.0
    return e


def units(d: int):
    """(column index, matrix unit) pairs in superoperator column order."""
    for b in range(d):
        for a in range(d):
            yield b * d + a, unit(a, b, d)


def swap(d: int) -> np.ndarray:
    s = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            s[j * d + i, i * d + j] = 1.0
    return s


def opnorm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


def haar(d: int, seed: int, index: int) -> np.ndarray:
    """Haar unitary for sample ``index`` of ``seed`` (covmap's sampling contract)."""
    key = np.array([seed & MASK64, index & MASK64], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r) / np.abs(np.diag(r))
    return q * ph


# --- two copies -------------------------------------------------------------


def twocopy_image(c, x: np.ndarray) -> np.ndarray:
    d = x.shape[0]
    eye = np.eye(d, dtype=np.complex128)
    s = swap(d)
    ix = np.kron(eye, x)
    xi = np.kron(x, eye)
    t = np.trace(x)
    return (
        c[0] * ix + c[1] * xi + c[2] * (s @ ix) + c[3] * (s @ xi)
        + t * (c[4] * np.eye(d * d) + c[5] * s)
    )


class Reference:
    """Oracle routines with per-dimension caches of generator bases."""

    def __init__(self):
        self._twocopy = {}
        self._perm_rows = {}

    def twocopy_basis(self, d: int) -> np.ndarray:
        """Columns are the flattened superoperators of the six generators."""
        if d not in self._twocopy:
            cols = []
            for k in range(6):
                w = np.zeros(6)
                w[k] = 1.0
                sup = np.zeros((d**4, d * d), dtype=np.complex128)
                for col, e in units(d):
                    sup[:, col] = vec(twocopy_image(w, e))
                cols.append(sup.reshape(-1))
            self._twocopy[d] = np.stack(cols, axis=1)
        return self._twocopy[d]

    def twocopy_superop(self, c, d: int) -> np.ndarray:
        return (self.twocopy_basis(d) @ np.asarray(c, dtype=np.complex128)).reshape(
            d**4, d * d
        )

    def twocopy_projection(self, superop: np.ndarray, d: int):
        """Hilbert-Schmidt projection onto the covariant span: (weights, projection)."""
        basis = self.twocopy_basis(d)
        w, *_ = np.linalg.lstsq(basis, superop.reshape(-1), rcond=None)
        return w, (basis @ w).reshape(superop.shape)

    # --- m copies -----------------------------------------------------------

    def perm_rows(self, m: int, d: int) -> list[np.ndarray]:
        """Index arrays r_i with P(s_i) @ Y == Y[r_i], lexicographic in s."""
        if (m, d) not in self._perm_rows:
            grid = np.arange(d**m).reshape((d,) * m)
            self._perm_rows[(m, d)] = [
                grid.transpose(np.argsort(s)).reshape(-1)
                for s in itertools.permutations(range(m))
            ]
        return self._perm_rows[(m, d)]

    def multicopy_image(self, lam: np.ndarray, m: int, d: int, x: np.ndarray) -> np.ndarray:
        eye = np.eye(d, dtype=np.complex128)
        embeds = [np.trace(x) * np.eye(d**m, dtype=np.complex128)]
        for slot in range(m):
            factors = [eye] * m
            factors[slot] = x
            embeds.append(reduce(np.kron, factors))
        out = np.zeros((d**m, d**m), dtype=np.complex128)
        for i, rows in enumerate(self.perm_rows(m, d)):
            inner = sum(lam[i, j] * embeds[j] for j in range(m + 1))
            out += inner[rows]
        return out

    def multicopy_superop(self, lam: np.ndarray, m: int, d: int) -> np.ndarray:
        sup = np.zeros((d ** (2 * m), d * d), dtype=np.complex128)
        for col, e in units(d):
            sup[:, col] = vec(self.multicopy_image(lam, m, d, e))
        return sup

    def permutation_projection(self, t: np.ndarray, m: int, d: int) -> np.ndarray:
        """Hilbert-Schmidt projection of t onto the span of the slot permutations.

        P_i has its ones at (k, r_i[k]), so <P_i, T> = sum_k T[k, r_i[k]] and
        <P_i, P_j> counts the k with r_i[k] == r_j[k].  Below d = m the Gram
        matrix is singular; any solution of the normal equations gives the
        same projection.
        """
        rows = self.perm_rows(m, d)
        k = np.arange(d**m)
        rhs = np.array([t[k, r].sum() for r in rows])
        gram = np.array([[np.count_nonzero(ri == rj) for rj in rows] for ri in rows], dtype=float)
        proj = np.zeros_like(t)
        for a, r in zip(np.linalg.pinv(gram, hermitian=True) @ rhs, rows):
            proj[k, r] += a
        return proj


def covariance_defect(superop: np.ndarray, d: int, m: int, samples: int, seed: int) -> float:
    """max over samples k and matrix units E of ||F(U E U^dag) - W F(E) W^dag||_2.

    U is sample k of ``seed`` and W = U^(x m); F(U E U^dag) for all units at
    once is ``superop @ kron(conj U, U)`` in column-stacked form.  Units are
    taken d at a time to keep the temporaries small.
    """
    n = d**m
    worst = 0.0
    for k in range(samples):
        u = haar(d, seed, k)
        w = reduce(np.kron, [u] * m)
        conj = np.kron(u.conj(), u)
        for cols in np.split(np.arange(d * d), d):
            lhs = images(superop @ conj[:, cols], n)
            rhs = w @ images(superop[:, cols], n) @ w.conj().T
            worst = max(worst, float(np.linalg.norm(lhs - rhs, 2, axis=(1, 2)).max()))
    return worst


def twirl_bound(distance_f: float, samples: int) -> float:
    """Bound on ||Monte-Carlo twirl - exact projection|| in Frobenius norm.

    The twirl averages ``samples`` independent conjugates of the input whose
    deviations from the exact projection have mean zero and Frobenius norm
    exactly ``distance_f`` (conjugation is unitary and fixes the
    projection).  By Pinelis' Hoeffding inequality in Hilbert space the
    average exceeds 7.5 * distance_f / sqrt(samples) with probability below
    2 * exp(-7.5**2 / 2), about 1.2e-12, per job.
    """
    return 7.5 * distance_f / math.sqrt(samples)
