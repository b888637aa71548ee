"""Dense reference values for the norm tests, built from the public API.

``monte_carlo_norm`` is a sampled lower bound on the norm of a two-copy
map, and so on its cb norm: the largest image norm over unit-norm probes.
All images come from one product with the realized superoperator, and
their norms from one stacked singular value decomposition; the d^4 x d^2
superoperator keeps it to small d.  The probes are drawn stacked, bit for
bit the draws of ``haar_unitary`` and ``gaussian_hermitian`` on their
substreams.
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
