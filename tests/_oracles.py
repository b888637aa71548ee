"""Reference values for the norm tests, built from the public API.

``monte_carlo_norm`` is a sampled lower bound on the norm of a two-copy
map, and so on its cb norm: the largest image norm over unit-norm probes.
All images come from one product with the realized superoperator, and
their norms from one stacked singular value decomposition; the d^4 x d^2
superoperator keeps it to small d.  The probes are drawn stacked, bit for
bit the draws of ``haar_unitary`` and ``gaussian_hermitian`` on their
substreams.  ``spectral_norms`` is the image norm of a normal input read
from its spectrum, over every pair of eigenvalues.
"""

import numpy as np

from covmap.operators import _haar_unitaries, _normals
from covmap.twocopy import realize_superoperator


def gaussian_hermitians(d, seed, indices):
    """gaussian_hermitian(d, substream(seed, k, stream=1)) for each k in indices, stacked."""
    g = _normals(seed, indices, 1, (2, d, d))
    z = g[:, 0] + 1j * g[:, 1]
    return (z + z.conj().transpose(0, 2, 1)) / 2


def probes(d, samples, seed):
    """The identity, then for 0 < k < samples haar_unitary(d, seed, k) at odd k and
    gaussian_hermitian(d, substream(seed, k, stream=1)) at even k scaled to operator norm one.

    Returned in that order by kind (identity, unitaries, Hermitians), stacked.
    """
    hs = gaussian_hermitians(d, seed, range(2, samples, 2))
    hs = hs / np.linalg.norm(hs, 2, axis=(1, 2))[:, None, None]
    return np.concatenate([np.eye(d)[None], _haar_unitaries(d, seed, range(1, samples, 2)), hs])


def monte_carlo_norm(c, samples, seed):
    """Largest image norm of c over probes(c.d, samples, seed): at most the map norm."""
    x = probes(c.d, samples, seed)
    images = x.transpose(0, 2, 1).reshape(len(x), -1) @ realize_superoperator(c).T  # vec of each image
    return float(np.linalg.svd(images.reshape(len(x), c.d**2, c.d**2), compute_uv=False)[:, 0].max())


def spectral_norms(c, lam):
    """Image norms of trace-free weights c on normal inputs with eigenvalues lam, one row per input.

    By covariance a normal X = V diag(lam) V^dag has the image
    (V (x) V) Phi(diag lam) (V (x) V)^dag, of the same norm.  Phi(diag lam)
    is (c1+c2+c3+c4) lam_i on e_i (x) e_i and, for each pair i < j, the
    2 x 2 block M below on {e_i (x) e_j, e_j (x) e_i}; sigma_max(M)^2 is
    (p + r)/2 + hypot((p - r)/2, |q|) from the Gram matrix M^H M.
    """
    c1, c2, c3, c4, _, _ = c.coeffs
    i, j = np.triu_indices(lam.shape[1], 1)
    li, lj = lam[:, i], lam[:, j]
    m11, m12 = c1 * lj + c2 * li, c3 * li + c4 * lj
    m21, m22 = c3 * lj + c4 * li, c1 * li + c2 * lj
    p = np.abs(m11) ** 2 + np.abs(m21) ** 2
    r = np.abs(m12) ** 2 + np.abs(m22) ** 2
    q = np.abs(m11.conj() * m12 + m21.conj() * m22)
    pairs = np.sqrt((p + r) / 2 + np.hypot((p - r) / 2, q)).max(axis=1)
    return np.maximum(abs(c1 + c2 + c3 + c4) * np.abs(lam).max(axis=1), pairs)
