"""Finite-dimensional Gaussian machinery for Wick weights.

Wick weights W(A^{(m)}) for a path ensemble are drawn jointly as the
factor of the Gram matrix of mollified inner products times normals, which
is how "one shared noise across the path expectation" is realized numerically.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import FactorizationError
from .exponents import MollifierParams, _shared_grid, _xi_transforms

JITTER_SCALE = 1e-12       # first shot: 1e-12 * trace / N on the diagonal
PSD_TOLERANCE = 1e-10      # matrices are acceptable down to min eig >= -1e-10 * trace


def _factorize(matrix):
    """Lower-triangular factor with the jitter policy.

    Try the raw matrix, then one small shot of 1e-12 * trace / N, then one
    shot at the documented acceptability band edge 1e-10 * trace (matrices
    with min eigenvalue above -1e-10 * trace count as positive semidefinite);
    anything worse fails loudly carrying the minimum eigenvalue rather than
    being regularized further.
    """
    n = matrix.shape[0]
    trace = float(np.trace(matrix))
    for jitter in (0.0, JITTER_SCALE * trace / n, PSD_TOLERANCE * trace):
        try:
            shifted = matrix if jitter == 0.0 else matrix + jitter * np.eye(n)
            return np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            continue
    min_eig = float(np.linalg.eigvalsh(matrix).min())
    raise FactorizationError(
        f"covariance factorization failed after jitter {PSD_TOLERANCE * trace:.3e}; "
        f"min eigenvalue {min_eig:.3e}", min_eigenvalue=min_eig) from None


def wick_gram(paths, moll: MollifierParams):
    """Gram matrix of mollified inner products across a shared-grid ensemble.

    Entry (a, b) is ``mollified_inner_values`` of paths a and b up to
    rounding.  The xi route applies the window operator once to all m paths,
    over one node set whose spacing follows the largest separation in the
    whole ensemble (each pair's own set would follow that pair alone), so per
    chunk of nodes the Gram is one real matrix product over the window
    intervals k: G_ab = Re sum_k F_a,k R_b,k is (F w) @ conj(R)^T on the real
    views, and the Gram (G + G^T) / pi is exactly symmetric.  Only d = 1
    paths are supported; others raise NotImplementedError."""
    times = _shared_grid(paths)
    if any(p.d != 1 for p in paths):
        raise NotImplementedError("mollified inner products are implemented for d = 1 only")
    m = len(paths)
    left = np.stack([p.positions[:-1, 0] for p in paths])
    G = np.zeros((m, m))
    for weight, F, R in _xi_transforms(times, left, float(left.max() - left.min()), moll):
        G += (F * weight).view(float).reshape(m, -1) @ R.conj().view(float).reshape(m, -1).T
    return (G + G.T) / math.pi

