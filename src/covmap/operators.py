"""Fixed operators on tensor-product spaces, the covariant-map index kernel,
and seeded random sampling.

Permutations act on tensor factors by moving the factor in slot ``s^-1(t)``
to slot ``t``, which makes the assignment ``s -> operator`` a group
homomorphism.  One-line images are 1-based throughout.

Index convention: the basis tensor with digits (i_1, ..., i_m) sits at
flat index i_1 d^(m-1) + ... + i_m (first slot slowest, as np.kron), and a
slot permutation is stored as a row-index array r with P(s) @ A == A[r],
a transpose of the digit axes of arange(d**m).  Superoperators stack
columns, so the image of E_ab is column (b-1) d + (a-1) and its entry
(x, c) is row c d^m + x; the covariant maps into m copies, the two-copy
family being m = 2, are therefore realized, extracted and fitted by
scattering and gathering single entries instead of multiplying by dense
permutations, and least squares over a span of such 0/1 elements is one
exact Gram solve over their positions (``_span_fit``), whose Gram matrix
is counted once per basis (``_span``).  A residual against a realized map
is taken on the realized support alone (``_residual``).

Cache: one scatter record per (m, d) (``_scatter``) says where the
generators put their ones: the entries each generator hits, where
every permutation moves them, and the realized support they share.
Realize, the residual, the probe table of the weight read (``_probes``),
the image entries that apply gathers (``_gather``) and the two-copy fit
span all read that record.  With the row indices and the ones of the
permutation operators with their Gram matrix, these depend on (m, d)
alone.  Each (m, d) is built on first use and kept for the life of the
process, read-only; the cache holds this structure only, never weights
or results.  Traced by tracemalloc, with the probe table only where
d >= m + 1, it takes about 2.8 MB at (4, 4) and about 9.6 MB for all 23
pairs inside the multicopy desk cap.
"""

from __future__ import annotations

import functools
import itertools
import re
from dataclasses import dataclass

import numpy as np

from .linalg import DimensionError, _range_exponent, _scaled, _top_singular_values, as_matrix, vec

__all__ = [
    "Permutation",
    "enumerate_permutations",
    "swap_operator",
    "sym_projector",
    "permutation_operator",
    "matrix_unit",
    "substream",
    "haar_unitary",
    "gaussian_hermitian",
]

_MASK64 = (1 << 64) - 1


class UniquenessUnavailableError(ValueError):
    """Weights are not unique below d = m + 1; extraction refuses."""


@dataclass(frozen=True)
class Permutation:
    """Permutation of {1, ..., m} in one-line notation: image[k-1] = s(k)."""

    image: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.image) != list(range(1, len(self.image) + 1)):
            raise ValueError(f"{self.image} is not a permutation of 1..{len(self.image)}")

    @property
    def m(self) -> int:
        return len(self.image)

    @classmethod
    def identity(cls, m: int) -> "Permutation":
        return cls(tuple(range(1, m + 1)))

    @classmethod
    def from_cycles(cls, m: int, cycles) -> "Permutation":
        img = list(range(1, m + 1))
        for cyc in cycles:
            cyc = list(cyc)
            if any(not 1 <= k <= m for k in cyc) or len(set(cyc)) != len(cyc):
                raise ValueError(f"bad cycle {cyc} for m={m}")
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                img[a - 1] = b
        return cls(tuple(img))

    @classmethod
    def parse(cls, text: str, m: int | None = None) -> "Permutation":
        """Parse cycle notation like "(1 2 3)(4)" or one-line "2 3 1" / "2,3,1"."""
        text = text.strip()
        if "(" in text:
            cycles = []
            for part in re.findall(r"\(([^()]*)\)", text):
                entries = [int(tok) for tok in re.split(r"[,\s]+", part.strip()) if tok]
                if entries:
                    cycles.append(entries)
            if not cycles:
                raise ValueError(f"no cycles found in {text!r}")
            size = m if m is not None else max(max(c) for c in cycles)
            return cls.from_cycles(size, cycles)
        entries = [int(tok) for tok in re.split(r"[,\s]+", text) if tok]
        if not entries:
            raise ValueError(f"empty permutation {text!r}")
        if m is not None and len(entries) != m:
            raise ValueError(f"one-line notation has {len(entries)} entries, expected {m}")
        return cls(tuple(entries))

    def __call__(self, k: int) -> int:
        return self.image[k - 1]

    def inverse(self) -> "Permutation":
        img = [0] * self.m
        for k, v in enumerate(self.image, start=1):
            img[v - 1] = k
        return Permutation(tuple(img))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self * other)(k) = self(other(k))."""
        if self.m != other.m:
            raise ValueError("permutation sizes differ")
        return Permutation(tuple(self.image[other.image[k] - 1] for k in range(self.m)))

    def __mul__(self, other: "Permutation") -> "Permutation":
        return self.compose(other)

    def cycle_count(self) -> int:
        """Number of cycles, fixed points included."""
        seen = [False] * self.m
        count = 0
        for start in range(1, self.m + 1):
            if seen[start - 1]:
                continue
            count += 1
            k = start
            while not seen[k - 1]:
                seen[k - 1] = True
                k = self.image[k - 1]
        return count


def matrix_unit(i: int, j: int, d: int) -> np.ndarray:
    """d x d matrix with a single 1 at row i, column j (1-based)."""
    if not (1 <= i <= d and 1 <= j <= d):
        raise IndexError(f"matrix unit ({i}, {j}) out of range for d={d}")
    e = np.zeros((d, d), dtype=np.complex128)
    e[i - 1, j - 1] = 1.0
    return e


def swap_operator(d: int) -> np.ndarray:
    """Exchange of the two factors of C^d (x) C^d."""
    if d < 2:
        raise DimensionError(f"swap needs d >= 2, got {d}")
    return permutation_operator(Permutation((2, 1)), d)


def sym_projector(d: int, sign: int = +1) -> np.ndarray:
    """Projector onto the symmetric (+1) or antisymmetric (-1) subspace."""
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    return (np.eye(d * d, dtype=np.complex128) + sign * swap_operator(d)) / 2


def _row_index(p: Permutation, d: int) -> np.ndarray:
    """Index array r with permutation_operator(p, d) @ A == A[r].

    Row y of the permuted operator is row r[y] of A, where slot k of r[y]
    carries digit p(k) of y: a transpose of the digit axes of arange(d**m).
    """
    axes = [k - 1 for k in p.inverse().image]
    return np.arange(d**p.m).reshape((d,) * p.m).transpose(axes).reshape(-1)


def permutation_operator(p: Permutation, d: int) -> np.ndarray:
    """Operator permuting the m factors of (C^d)^(x m) according to p.

    Sends the basis tensor with digits (i_1, ..., i_m) to the one whose
    slot t carries i_{p^-1(t)}.
    """
    if d < 1:
        raise DimensionError(f"need d >= 1, got {d}")
    return np.eye(d**p.m, dtype=np.complex128)[_row_index(p, d)]


def enumerate_permutations(m: int) -> list[Permutation]:
    """All permutations of {1..m}, lexicographic in one-line notation."""
    return [Permutation(img) for img in itertools.permutations(range(1, m + 1))]


def _shaped(a, d: int, m: int = 2, kind: str = "superoperator") -> np.ndarray:
    """``a`` as a complex matrix of the given kind for m copies of C^d.

    Kinds: "input" (d x d), "operator" (d^m x d^m) and "superoperator"
    (d^(2m) x d^2).  Raises DimensionError when d < 2, m < 1 or the shape
    differs.
    """
    if d < 2 or m < 1:
        raise DimensionError(f"need d >= 2 and m >= 1, got d={d}, m={m}")
    a = as_matrix(a)
    shape = {"input": (d, d), "operator": (d**m, d**m), "superoperator": (d ** (2 * m), d * d)}
    if a.shape != shape[kind]:
        raise DimensionError(f"{kind} shape {a.shape} does not match m={m}, d={d}")
    return a


@functools.lru_cache(maxsize=None)
def _rows(m: int, d: int) -> np.ndarray:
    """Row indices r_s with P(s) @ A == A[r_s], one row per permutation."""
    rows = np.stack([_row_index(p, d) for p in enumerate_permutations(m)])
    rows.setflags(write=False)
    return rows


@functools.lru_cache(maxsize=None)
def _permutation_ones(m: int, d: int) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Where the operators P(s) have their ones, as flat indices of a d^m x d^m matrix.

    Returns (span, support, inverse): span is the _span of positions, where
    positions[i, x] is the one in row x of P(s_i), at column r_i[x], and
    support and inverse are the _joint_support of positions.
    """
    positions = np.arange(d**m) * d**m + _rows(m, d)
    return (_span(positions), *_joint_support(positions))


@functools.lru_cache(maxsize=None)
def _scatter(m: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where the generators P(s) F_j put their ones in a realized superoperator.

    Returns (columns, flat, support, inverse).  Over the sorted joint
    support of the unpermuted generators, columns[j] holds the entries
    where F_(j+1) has a one, in increasing order, so every generator meets
    its ones in (output column, input digit) order; flat[i, u] is the flat
    index of entry u in the d^(2m) x d^2 matrix once permutation i has
    moved its rows.  support and inverse are the _joint_support of flat:
    the realized support, and where each flat[i, u] sits in it.
    """
    dim, dd = d**m, d * d
    c = np.arange(dim)[:, None]
    a = np.arange(d)[None, :]
    # Entry keys are (vec row) * d^2 + column; the image of E_ab is column
    # b d + a, and output entry (x, c) of an image sits at vec row c dim + x.
    keys = [np.broadcast_to((c * dim + c) * dd + a * (d + 1), (dim, d))]  # tr(E_aa) I
    for slot in range(m):
        place = d ** (m - 1 - slot)
        b = c // place % d
        x = c + (a - b) * place  # c with the digit of this slot set to a
        keys.append((c * dim + x) * dd + b * d + a)
    keys = np.stack([k.reshape(-1) for k in keys])
    entries, at = np.unique(keys, return_inverse=True)
    columns = np.sort(at.reshape(keys.shape), axis=1)  # no generator meets an entry twice
    x = entries // dd % dim
    forward = np.argsort(_rows(m, d), axis=1)  # row x moves to row forward[i, x]
    flat = entries + (forward[:, x] - x) * dd
    columns.setflags(write=False)
    flat.setflags(write=False)
    return columns, flat, *_joint_support(flat)


@functools.lru_cache(maxsize=None)
def _gather(m: int, d: int) -> tuple[tuple, np.ndarray]:
    """Where the generators read x and write its d^m x d^m image.

    Every image entry some unpermuted generator reaches is either on the
    diagonal, reached by all of them, or off it in one slot's digit only,
    reached by that slot alone.  The entries are laid out as slot 1,
    diagonal, slot 2, ..., slot m, and reach[j] holds the runs of entries
    F_(j+1) reaches (one run for the trace and slots 1 and 2, two for the
    others; d^m entries for the trace, d^(m+1) for a slot), each with the
    entry of (vec(x), tr(x)) it holds there.  Permutation i moves entry e
    to the C-order flat index target[i, e].
    """
    columns, flat, _, _ = _scatter(m, d)
    dim, dd = d**m, d * d
    rows, inputs = np.divmod(flat[0], dd)  # permutation 0 is the identity
    _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
    block = np.empty(first.size, dtype=np.intp)  # 0 slot 1, 1 diagonal, j slot j
    source = np.full((m + 1, first.size), dd)  # the trace reads tr(x), entry dd
    for j in range(1, m + 1):
        block[inverse[columns[j]]] = 0 if j == 1 else j
        source[j, inverse[columns[j]]] = inputs[columns[j]]
    block[inverse[columns[0]]] = 1
    order = np.argsort(block, kind="stable")
    bounds = np.cumsum([0, *np.bincount(block)])
    source = source[:, order]
    column, row = np.divmod(flat[:, first[order]] // dd, dim)  # vec row c * dim + x
    target = row * dim + column
    source.setflags(write=False)
    target.setflags(write=False)
    # the (first, last + 1) blocks of each run: the trace, slots 1 and 2, then the rest
    runs = [[(1, 2)], [(0, 2)], [(1, 3)]] + [[(1, 2), (j, j + 1)] for j in range(3, m + 1)]
    reach = tuple(
        tuple((slice(bounds[a], bounds[b]), source[j, bounds[a] : bounds[b]]) for a, b in runs[j])
        for j in range(m + 1)
    )
    return reach, target


def _joint_support(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The sorted flat indices in some row of positions, and where each position sits in them."""
    support, inverse = np.unique(positions, return_inverse=True)
    inverse = inverse.reshape(positions.shape)
    support.setflags(write=False)
    inverse.setflags(write=False)
    return support, inverse


def _support_sums(inverse: np.ndarray, size: int, rows) -> np.ndarray:
    """Sum, at each of size support entries, of rows[k] at the entries inverse[k].

    Rows are added one after another, from zero, as scattering them into a
    zero array would add them; a row is an array shaped like inverse[k] or
    a scalar.
    """
    sums = np.zeros(size, dtype=np.complex128)
    for at, values in zip(inverse, rows):
        sums[at] += values
    return sums


def _realized(lam: np.ndarray, m: int, d: int) -> np.ndarray:
    """Values of _realize(lam, m, d) on the realized support of _scatter(m, d), with the same bits.

    Weights are summed per permutation in generator order, then across
    permutations in order, as a sum of permuted dense images would be.
    """
    columns, _, support, inverse = _scatter(m, d)
    inner = np.zeros(inverse.shape, dtype=np.complex128)
    for j, at in enumerate(columns):
        inner[:, at] += lam[:, j, None]
    return _support_sums(inverse, support.size, inner)


def _realize(lam: np.ndarray, m: int, d: int) -> np.ndarray:
    """d^(2m) x d^2 superoperator of the weight table lam of shape (m!, m+1)."""
    out = np.zeros(d ** (2 * m + 2), dtype=np.complex128)
    out[_scatter(m, d)[2]] = _realized(lam, m, d)
    return out.reshape(d ** (2 * m), d * d)


def _apply(lam: np.ndarray, x, m: int, d: int) -> np.ndarray:
    """Image of x under the weight table lam, d^m x d^m: the bits of a sum of permuted slot embeddings."""
    x = _shaped(x, d, m, "input")
    reach, target = _gather(m, d)
    values = np.append(vec(x), np.trace(x))
    inner = np.zeros(target.shape, dtype=np.complex128)
    for j, spans in enumerate(reach):  # each weight only where its generator reaches
        for span, source in spans:
            inner[:, span] += lam[:, j, None] * values[source]
    return _support_sums(target, d ** (2 * m), inner).reshape(d**m, d**m)


def _residual(superop: np.ndarray, lam: np.ndarray, m: int, d: int, e: int) -> float:
    """operator_norm(superop - _realize(lam, m, d)), with the same bits; e is _range_exponent(superop).

    The difference is superop's copy scaled into range less the scaled realized
    values on the support alone; every other entry is superop's own, as x - 0 is.
    """
    difference = _scaled(superop, -e)
    difference.reshape(-1)[_scatter(m, d)[2]] -= _realized(_scaled(lam, -e), m, d)
    return _scaled(float(_top_singular_values(difference)), e)


@functools.lru_cache(maxsize=None)
def _probes(m: int, d: int) -> np.ndarray:
    """Flat index, per generator (i, j), of one superoperator entry only it reaches.

    It is the generator's first such entry in support order, in column 0
    (the e1 e1* image) for the trace generator or column d (the e1 e2*
    image) for a slot generator; every generator has one iff d >= m + 1.
    """
    columns, flat, _, inverse = _scatter(m, d)
    ones, at = flat[:, columns], inverse[:, columns]  # generator (i, j) at [i, j]
    reached = np.bincount(at.reshape(-1))  # how many generators reach each support entry
    alone = (reached[at] == 1) & (ones % (d * d) == np.where(np.arange(m + 1), d, 0)[:, None])
    probes = np.take_along_axis(ones, alone.argmax(axis=2)[:, :, None], axis=2)[:, :, 0]
    probes.setflags(write=False)
    return probes


def _extract(superop, m: int, d: int) -> tuple[np.ndarray, float]:
    """Weight table of shape (m!, m+1) read off single entries, and its residual; inverse of _realize.

    Each weight is read at its generator's entry in _probes, which holds a
    single term of _realize, so realized weights come back exactly.  The
    residual is operator_norm(superop - _realize(table, m, d)).  Raises
    UniquenessUnavailableError when 2 <= d < m + 1, before the shape is read.
    """
    if 2 <= d < m + 1:
        raise UniquenessUnavailableError(f"weights are not unique for d={d} < m+1={m + 1}")
    superop = _shaped(superop, d, m)
    table = superop.flat[_probes(m, d)]
    return table, _residual(superop, table, m, d, _range_exponent(superop))


def _span(positions: np.ndarray) -> tuple[np.ndarray, np.ndarray, bool]:
    """(positions, solver, degenerate) of basis elements of ones, for _span_fit.

    positions[k, x] is the flat index of the x-th one of element k, ordered
    so that two elements share a one only at the same x (slot row x, or
    output column and input digit).  The Gram matrix counts those matches,
    so it is exact; the solver is that Gram matrix, or its pseudo-inverse
    when it is singular (degenerate).
    """
    gram = (positions[:, None, :] == positions[None, :, :]).sum(axis=2)
    degenerate = bool(np.linalg.matrix_rank(gram, hermitian=True) < len(positions))
    solver = np.linalg.pinv(gram, hermitian=True) if degenerate else gram
    for a in (positions, solver):
        a.setflags(write=False)
    return positions, solver, degenerate


def _span_fit(target: np.ndarray, span, e: int) -> tuple[np.ndarray, bool]:
    """2**-e times the (least-norm) least-squares weights of a flat array over a _span, and its degeneracy."""
    positions, solver, degenerate = span
    rhs = _scaled(target[positions], -e).sum(axis=1)
    return (solver @ rhs if degenerate else np.linalg.solve(solver, rhs)), degenerate


def _keys(seed: int, indices, stream: int) -> np.ndarray:
    """Philox keys of the substreams (seed, k, stream) for k in indices, one row each."""
    bad = next((k for k in indices if not 0 <= k < 1 << 40), None)
    if bad is not None:
        raise ValueError(f"substream index {bad} out of range")
    keys = np.full((len(indices), 2), (stream & 0xFFFFFF) << 40, dtype=np.uint64)
    keys[:, 0] = seed & _MASK64
    keys[:, 1] |= np.fromiter(indices, np.uint64, len(indices))
    return keys


def substream(seed: int, index: int = 0, stream: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream, index).

    The Philox key is (seed mod 2**64, (stream mod 2**24) * 2**40 + index),
    with 0 <= index < 2**40.  Triples with distinct keys give statistically
    independent streams; seeds equal mod 2**64, or streams equal mod 2**24,
    give the same one.  Sampling loops address sample k directly without
    drawing k-1 predecessors.
    """
    return np.random.Generator(np.random.Philox(key=_keys(seed, [index], stream)[0]))


def _normals(seed: int, indices, stream: int, shape: tuple[int, ...]) -> np.ndarray:
    """substream(seed, k, stream).standard_normal(shape) for each k in indices, stacked.

    One Philox is rekeyed per index, at counter 0 with an empty buffer, as
    a fresh one starts; a Philox built from a key alone would first seed
    itself from OS entropy and then discard it.
    """
    out = np.empty((len(indices), *shape))
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    state = bitgen.state
    state.update(buffer_pos=4, has_uint32=0, uinteger=0)
    state["state"]["counter"][:] = 0
    for row, key in zip(out, _keys(seed, indices, stream)):
        state["state"]["key"] = key
        bitgen.state = state
        rng.standard_normal(out=row)
    return out


def _check_samples(*counts: int) -> None:
    """Refuse a sample count below one or beyond the 2**40 substream indices."""
    for samples in counts:
        if not 1 <= samples <= 1 << 40:
            raise ValueError(f"need 1 <= samples <= 2**40, got {samples}")


def haar_unitary(d: int, seed: int, index: int = 0) -> np.ndarray:
    """Haar-distributed d x d unitary, deterministic per (seed, index).

    Ginibre sample, QR, then the R diagonal phases are absorbed so the
    distribution is exactly Haar rather than QR-convention biased.
    """
    return _haar_unitaries(d, seed, [index])[0]


def _haar_unitaries(d: int, seed: int, indices) -> np.ndarray:
    """haar_unitary(d, seed, k) for each k in indices, stacked; one stacked QR."""
    if d < 1:
        raise DimensionError(f"need d >= 1, got {d}")
    g = _normals(seed, indices, 0, (2, d, d))
    q, r = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2))
    ph = np.diagonal(r, axis1=1, axis2=2)
    return q * (ph / np.abs(ph))[:, None, :]


_BLOCK = 64  # most unitaries the sampling loops draw per stacked QR


def gaussian_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    """GUE-style Hermitian sample: (Z + Z^dag) / 2 for Ginibre Z."""
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return as_matrix((z + z.conj().T) / 2)
