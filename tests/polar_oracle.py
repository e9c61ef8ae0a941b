"""Dense references for the optimizer's factored steps, kept as test oracles.

The package never forms the K x K descent direction or a K x K polar
factor: a step works on the span of the gradient and codeword rows.
These two functions are the dense forms that the factored updates are
checked against: a step from codewords C must equal
``project_symmetric(W - eps * delta_w(C, W, basis))`` (symmetric
decorrelation) or ``project_gram_schmidt`` of the same matrix.
"""

import numpy as np

from paprbound.optimizer import _gradient_rows, _require_nonsingular
from paprbound.spectral import SpectralBasis


def delta_w(subset: np.ndarray, w: np.ndarray, basis: SpectralBasis) -> np.ndarray:
    """Unscaled descent direction for one subset.

    sum over codewords c of sum_k [(c* W* C_k W c) C_k +
    (c* W* C_hat_k W c) C_hat_k] W c c*, evaluated per codeword as
    V*(|alpha|^2 alpha) c* + V_hat*(|beta|^2 beta) c* with
    alpha = V W c, beta = V_hat W c (see ``_gradient_rows``).  The
    generalized complex gradient of the subset quartic statistic is this
    matrix times the positive scalar 2 K (2K - 1) / |C|.
    """
    block = np.atleast_2d(np.asarray(subset, dtype=np.complex128))
    k = basis.size
    if block.shape[0] == 0:
        return np.zeros((k, k), dtype=np.complex128)
    if block.shape[1] != k or w.shape != (k, k):
        raise ValueError("subset and transform must match the basis size")
    return _gradient_rows(block, w, basis).T @ block.conj()


def project_symmetric(w: np.ndarray) -> np.ndarray:
    """Symmetric decorrelation (W W*)^{-1/2} W via eigendecomposition.

    Returns the unitary polar factor of W; idempotent on its own
    output and the identity on unitary input.  Accepts one matrix or a
    stack of them on the leading axes.  Refuses a near-singular W with
    the package's own ``RankDeficientUpdate``.
    """
    h = w @ np.conj(np.swapaxes(w, -1, -2))
    lam, f = np.linalg.eigh(h)
    _require_nonsingular(lam)
    return (f * lam[..., np.newaxis, :] ** -0.5) @ np.conj(np.swapaxes(f, -1, -2)) @ w
