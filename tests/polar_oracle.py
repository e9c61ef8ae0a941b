"""Dense references for the optimizer's steps, kept as test oracles.

The package never forms the K x K descent direction, and its one-codeword
symmetric step works on the span of the gradient and codeword rows.
These functions are the dense forms that the steps are checked against:
a step from codewords C must equal the unitary polar factor of
W - eps * delta_w(C, W) (symmetric decorrelation), computed here
as ``polar_factor`` (U V* from an SVD) or ``project_symmetric``
((W W*)^{-1/2} W from an eigendecomposition, which squares the condition
number), or ``project_gram_schmidt`` of the same matrix.
"""

import numpy as np

from paprbound.optimizer import _gradient_buffers, _gradient_rows, _require_nonsingular


def delta_w(subset: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Unscaled descent direction for one subset.

    sum over codewords c of sum_k [(c* W* C_k W c) C_k +
    (c* W* C_hat_k W c) C_hat_k] W c c*, evaluated per codeword as
    V*(|alpha|^2 alpha) c* + V_hat*(|beta|^2 beta) c* with
    alpha = V W c, beta = V_hat W c (see ``_gradient_rows``).  The
    generalized complex gradient of the subset quartic statistic is this
    matrix times the positive scalar 2 K (2K - 1) / |C|.
    """
    block = np.atleast_2d(np.asarray(subset, dtype=np.complex128))
    k = w.shape[0]
    if block.shape[0] == 0:
        return np.zeros((k, k), dtype=np.complex128)
    if block.shape[1] != k or w.shape != (k, k):
        raise ValueError("subset and transform must have the same K")
    return _gradient_rows(block, w, _gradient_buffers(block.shape))[0].T @ block.conj()


def project_symmetric(w: np.ndarray) -> np.ndarray:
    """Symmetric decorrelation (W W*)^{-1/2} W via eigendecomposition.

    Returns the unitary polar factor of W; idempotent on its own
    output and the identity on unitary input.  Accepts one matrix or a
    stack of them on the leading axes.  Refuses a near-singular W with
    the package's own ``RankDeficientUpdate``.
    """
    h = w @ np.conj(np.swapaxes(w, -1, -2))
    lam, f = np.linalg.eigh(h)
    _require_nonsingular(lam.min())
    return (f * lam[..., np.newaxis, :] ** -0.5) @ np.conj(np.swapaxes(f, -1, -2)) @ w


def polar_factor(w: np.ndarray) -> np.ndarray:
    """Unitary polar factor U V* of W = U S V*, for one matrix or a stack."""
    u, _, vh = np.linalg.svd(w)
    return u @ vh
