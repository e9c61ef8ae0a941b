"""Descent on sets of unitary matrices that lowers the quartic statistic.

Each subset of the codebook gets its own K x K unitary W_n.  A step
moves W_n against the generalized complex gradient of the quartic
statistic restricted to that subset (evaluated per codeword on the
2K-point envelope grid, one FFT each way, and a rank-one outer
product) and then projects back onto the unitary matrices, either by
row-wise Gram-Schmidt (the LQ factor of a QR factorization) or by
symmetric decorrelation (W (W W*)^{-1/2} ... the polar unitary
factor).  The batch step sums the gradient over a whole subset; the
stochastic step uses one uniformly drawn codeword per subset and
iteration, with the draw stream keyed by (seed, subset, iteration) so
trajectories are reproducible and resumable.  Each draw is
``np.random.default_rng([seed, subset, iteration]).integers(size)`` as
numpy 2.4 computes it; ``_draw_block`` replays that seeding arithmetic
for 256 iterations of every subset at once instead of building one
generator per draw.  The stream is therefore the package's own: numpy
does not promise stable Generator streams across releases, and the
oracle test against the installed numpy is what detects a divergence.

Both projections share one path: a step hands each stacked chunk of
subsets' gradient rows and W to its projection's update in
``_PROJECTORS`` (for Gram-Schmidt, one stacked QR).  The
symmetric-decorrelation update never forms a K x K eigenproblem: an
update from m codewords is W (I - eps H C*) with H = W* G, which
differs from W only on the span of [H, C] (rank <= 2m), so the polar
factor needs one 2m x 2m eigendecomposition and O(K^2 m) products,
O(K^2) per subset in a stochastic step.  With one codeword c per subset
(every stochastic step) the 2 x 2 factor has a closed form in array
arithmetic, with no QR or LAPACK call (``_rank_one_polar``).  There the
update is [[alpha, beta], [0, 1]] with alpha = 1 - eps quartic_sum(W c),
so a step turns a direction around (norm 2) exactly when
eps quartic_sum(W c) > 1.  The closed form departs from the
eigendecomposition in the last bits (2.8e-14 in W, 6e-15 in R over the
default 20 000-step run at K=128).  The correction multiplies W on the
right, which carries rounding error in W forward instead of amplifying
it; no periodic re-projection is needed.  ``run`` still checks the
unitarity error at every checkpoint and fails closed past
``UNITARITY_TOL``.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bounds import r_statistic
from .core import INT_OR_NULL_FIELD, SIZE_FIELD, Codebook, read_artifact, write_artifact
from .spectral import SpectralBasis
from .waveform import baseband_samples

UNITARY_FORMAT = "paprbound/unitary-set"
FORMAT_VERSION = 1

# Largest max_n ||W_n W_n* - I||_F a unitary set may have: what the
# loader accepts and what ``run`` lets a trajectory reach.
UNITARITY_TOL = 1e-8

PROJECTIONS = ("symmetric_decorrelation", "gram_schmidt")
MODES = ("batch", "stochastic")


class RankDeficientUpdate(RuntimeError):
    """Raised when an updated matrix cannot be projected back onto the
    unitary matrices; the step size is too large."""


def _seed_key(*parts) -> list[int]:
    """Entropy of the stochastic draw stream: (seed, subset, iteration)
    reduced mod 2^63."""
    return [int(p) % (1 << 63) for p in parts]


# Constants of numpy's SeedSequence hash (pool of four uint32 words) and
# of its PCG64 generator (128-bit LCG multiplier, split in uint64 halves).
_HASH_INIT_A, _HASH_MULT_A = 0x43B0D7E5, 0x931E8875
_HASH_INIT_B, _HASH_MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT_HI, _PCG_MULT_LO = np.uint64(2549297995355413924), np.uint64(4865540595714422341)
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
_DRAW_BLOCK = 256  # iterations per memoized block of stochastic draws


def _seed_sequence_state(words: np.ndarray, length: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` per lane.

    ``words`` is (6, lanes) uint32: each lane's entropy as numpy splits
    it (every integer in little-endian 32-bit words, zero-padded), and
    ``length`` the number of words in use.
    """
    hash_const = _HASH_INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _HASH_MULT_A & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> np.uint32(16))

    pool = [hashmix(words[i]) for i in range(4)]  # words past ``length`` are 0, as numpy pads
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, words.shape[0]):
        live = length > src
        if live.any():
            for dst in range(4):
                pool[dst] = np.where(live, mix(pool[dst], hashmix(words[src])), pool[dst])

    hash_const = _HASH_INIT_B
    out = []
    for i in range(8):
        value = pool[i % 4] ^ np.uint32(hash_const)
        hash_const = hash_const * _HASH_MULT_B & 0xFFFFFFFF
        value = value * np.uint32(hash_const)
        out.append((value ^ (value >> np.uint32(16))).astype(np.uint64))
    return [out[2 * j] | (out[2 * j + 1] << _SHIFT32) for j in range(4)]


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step, state * multiplier + increment mod 2^128."""
    a0, a1 = lo & _LOW32, lo >> _SHIFT32
    b0, b1 = _PCG_MULT_LO & _LOW32, _PCG_MULT_LO >> _SHIFT32
    mid = a1 * b0 + (a0 * b0 >> _SHIFT32)
    carry_mid = a0 * b1 + (mid & _LOW32)
    lo_mult_hi = a1 * b1 + (mid >> _SHIFT32) + (carry_mid >> _SHIFT32)  # high word of lo * MULT_LO
    prod_lo = lo * _PCG_MULT_LO
    new_lo = prod_lo + inc_lo
    new_hi = hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + lo_mult_hi + inc_hi + (new_lo < prod_lo)
    return new_hi, new_lo


def _xsl_rr(hi, lo):
    """PCG64's output: the 64-bit XOR of the halves, rotated right by
    the top six bits of the state."""
    x = hi ^ lo
    rot = hi >> np.uint64(58)
    return (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))


@functools.lru_cache(maxsize=16)
def _draw_block(seed: int, sizes: tuple[int, ...], block: int) -> np.ndarray:
    """Stochastic picks of iterations ``_DRAW_BLOCK * block`` onward.

    Returns a read-only (_DRAW_BLOCK, N) int64 array whose row j, column n
    is ``np.random.default_rng(_seed_key(seed, n, it)).integers(sizes[n])``
    with it = _DRAW_BLOCK * block + j.  It replays numpy's arithmetic for
    all lanes at once: the SeedSequence hash, PCG64 seeding and output
    in 128-bit arithmetic held as two uint64 halves, and the 32-bit
    Lemire bound of ``Generator.integers``, whose rejected lanes go on
    along their own stream.  This is numpy's stream as of numpy 2.4;
    from here on it is fixed by this function, whatever numpy is
    installed.
    """
    if not all(1 <= size <= 1 << 32 for size in sizes):
        raise ValueError("subset sizes must lie in [1, 2**32] to draw from them")
    n_sub = len(sizes)
    base = np.uint64(_DRAW_BLOCK * block % (1 << 63))
    its = (base + np.arange(_DRAW_BLOCK, dtype=np.uint64)) & np.uint64((1 << 63) - 1)
    parts = (
        np.full(_DRAW_BLOCK * n_sub, _seed_key(seed)[0], dtype=np.uint64),
        np.tile(np.arange(n_sub, dtype=np.uint64), _DRAW_BLOCK),
        np.repeat(its, n_sub),
    )
    # numpy turns each integer into one 32-bit word, or two from 2^32 on.
    lanes = np.arange(_DRAW_BLOCK * n_sub)
    words = np.zeros((6, lanes.size), dtype=np.uint32)
    length = np.zeros(lanes.size, dtype=np.int64)
    for part in parts:
        wide = (part >> _SHIFT32) != 0
        words[length, lanes] = part & _LOW32
        words[length[wide] + 1, lanes[wide]] = part[wide] >> _SHIFT32
        length += 1 + wide
    init_hi, init_lo, seq_hi, seq_lo = _seed_sequence_state(words, length)

    # PCG64 seeding: inc = 2 seq + 1, state = (inc + init) * MULT + inc.
    inc_hi = (seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << np.uint64(1)) | np.uint64(1)
    lo = inc_lo + init_lo
    hi = inc_hi + init_hi + (lo < inc_lo)
    hi, lo = _pcg_step(*_pcg_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo)
    out = _xsl_rr(hi, lo)

    # Lemire: pick = (x * size) >> 32 for a 32-bit draw x, redrawn while
    # the low word of the product is below 2^32 mod size.  A 64-bit
    # output gives its low word first, then its high word.
    size = np.tile(np.array(sizes, dtype=np.uint64), _DRAW_BLOCK)
    threshold = np.uint64(1 << 32) % size
    product = (out & _LOW32) * size
    redraw = np.flatnonzero((product & _LOW32) < threshold)
    word = 1
    while redraw.size:
        if word % 2:
            x = out[redraw] >> _SHIFT32
        else:
            hi[redraw], lo[redraw] = _pcg_step(hi[redraw], lo[redraw], inc_hi[redraw], inc_lo[redraw])
            out[redraw] = _xsl_rr(hi[redraw], lo[redraw])
            x = out[redraw] & _LOW32
        product[redraw] = x * size[redraw]
        redraw = redraw[(product[redraw] & _LOW32) < threshold[redraw]]
        word += 1
    picks = (product >> _SHIFT32).astype(np.int64).reshape(_DRAW_BLOCK, n_sub)
    picks.flags.writeable = False
    return picks


def random_unitary(k: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed K x K unitary (QR of a complex Ginibre draw)."""
    z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


@dataclass(frozen=True)
class UnitarySet:
    """N unitary K x K matrices, one per codebook subset."""

    matrices: np.ndarray = field(repr=False)  # (N, K, K)
    iteration: int = 0

    def __post_init__(self):
        m = np.asarray(self.matrices, dtype=np.complex128)
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise ValueError("matrices must have shape (N, K, K)")
        object.__setattr__(self, "matrices", m)

    @classmethod
    def identity(cls, n_subsets: int, k_carriers: int) -> "UnitarySet":
        eye = np.broadcast_to(np.eye(k_carriers, dtype=np.complex128), (n_subsets, k_carriers, k_carriers))
        return cls(matrices=eye.copy())

    @classmethod
    def random(cls, n_subsets: int, k_carriers: int, rng: np.random.Generator) -> "UnitarySet":
        return cls(matrices=np.stack([random_unitary(k_carriers, rng) for _ in range(n_subsets)]))

    @property
    def n_subsets(self) -> int:
        return self.matrices.shape[0]

    @property
    def k_carriers(self) -> int:
        return self.matrices.shape[1]

    def unitarity_error(self) -> float:
        eye = np.eye(self.k_carriers)
        # A huge entry gives inf or NaN, which np.max keeps (Python's max can drop a NaN).
        with np.errstate(over="ignore", invalid="ignore"):
            return float(np.max([np.linalg.norm(w @ w.conj().T - eye) for w in self.matrices]))

    def validate(self, tol: float = UNITARITY_TOL) -> None:
        err = self.unitarity_error()
        if not err <= tol:
            raise ValueError(f"unitarity violated: max ||W W* - I||_F = {err:.3e} > {tol}")


@dataclass(frozen=True)
class OptimizerConfig:
    """Step size, stopping rule, projection, and draw mode.

    ``epsilon=None`` resolves to K^(-3/2) at run time.  ``stop_tol``
    bounds the Frobenius step norm max_n ||W(l+1) - W(l)||; the run also
    stops at ``max_iters``.
    """

    epsilon: float | None = None
    max_iters: int = 20000
    stop_tol: float = 1e-6
    projection: str = "symmetric_decorrelation"
    mode: str = "stochastic"
    seed: int = 0
    checkpoint_every: int = 500

    def __post_init__(self):
        if self.epsilon is not None and not 0 <= self.epsilon < np.inf:
            raise ValueError("epsilon must be finite and nonnegative")
        if self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative")
        if not self.stop_tol >= 0:
            raise ValueError("stop_tol must be nonnegative")
        if self.projection not in PROJECTIONS:
            raise ValueError(f"projection must be one of {PROJECTIONS}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")

    def resolved_epsilon(self, k_carriers: int) -> float:
        return float(self.epsilon) if self.epsilon is not None else k_carriers ** -1.5


def _gradient_rows(rows: np.ndarray, w: np.ndarray, basis: SpectralBasis,
                   wc: np.ndarray | None = None) -> np.ndarray:
    """Per-codeword gradient rows V*(|alpha|^2 alpha) + V_hat*(|beta|^2 beta)
    with alpha = V W c, beta = V_hat W c.

    Evaluated as ``fft(|s|^2 s)[:K] / K^2`` on the 2K-point envelope
    s of W c.  ``rows`` holds codewords as rows, shape (..., m, K), and
    ``w`` the matching transforms, shape (..., K, K); ``wc`` is
    ``rows @ W^T`` if the caller has it.  The result has the shape of
    ``rows``.
    """
    k = basis.size
    s = baseband_samples(rows @ np.swapaxes(w, -1, -2) if wc is None else wc, 2)
    return np.fft.fft(np.abs(s) ** 2 * s, axis=-1)[..., :k] / k**2


def project_gram_schmidt(w: np.ndarray) -> np.ndarray:
    """Orthonormalize the rows in index order.

    Row k keeps only its component orthogonal to rows 1..k-1, then is
    normalized: the unitary factor of the LQ factorization W = L U with
    a positive diagonal of L, computed as the QR factorization of W*.
    Accepts a stack of matrices on the leading axes.  Fails loudly on
    rank deficiency, naming the first row whose residual collapses.
    """
    q, r = np.linalg.qr(np.conj(np.swapaxes(np.asarray(w, dtype=np.complex128), -1, -2)))
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    collapsed = np.flatnonzero(np.abs(diag) <= 1e-12)
    if collapsed.size:
        row = int(collapsed[0]) % diag.shape[-1]
        raise RankDeficientUpdate(
            f"row {row} is in the span of rows 0..{row - 1}; matrix is rank deficient"
        )
    return np.conj(np.swapaxes(q * (diag / np.abs(diag))[..., np.newaxis, :], -1, -2))


def _require_nonsingular(lam: np.ndarray) -> None:
    if not lam.min() > 1e-12:
        raise RankDeficientUpdate(
            f"updated matrix is near singular (min eigenvalue {lam.min():.3e}); "
            "reduce the step size epsilon"
        )


def _polar_update(w: np.ndarray, rows: np.ndarray, grads: np.ndarray, epsilon: float, out: np.ndarray,
                  wc: np.ndarray | None = None):
    """Symmetric decorrelation of W - epsilon G C* for a stack of subsets.

    ``w`` is (N, K, K); ``rows`` and ``grads`` are (N, m, K) codeword
    and gradient rows, so G C* is the unscaled descent direction of the
    m codewords, and ``wc`` is ``rows @ W^T`` if the caller has it.
    With H = W* G the update is W (I - epsilon H C*), and
    I - epsilon H C* differs from I only on span[H, C].  On an
    orthonormal basis Q of that span (rank r <= 2m) it is
    A = I_r - epsilon (Q* H)(Q* C)*, so the polar factor is
    W + (W Q) Z Q* with Z = (A A*)^{-1/2} A - I_r: an r x r
    eigendecomposition and O(K^2 m) products per subset.  For m = 1 Z
    has a closed form (``_rank_one_polar``).

    The unitary correction multiplies W on the right, so rounding in W
    is carried, not amplified.  (The left form (I + M)^{-1/2} W' relies
    on W* being the exact inverse of W and lets drift grow until the
    update turns singular.)

    Writes the new stack into ``out`` (same shape as ``w``, not
    overlapping it) and returns the step norms ||W' - W||_F = ||W Q Z||_F.
    """
    if rows.shape[-2] == 1:
        wc = rows @ np.swapaxes(w, -1, -2) if wc is None else wc
        return _rank_one_polar(w, rows, grads, epsilon, out, wc)
    c = np.swapaxes(rows, -1, -2)
    h = np.conj(np.swapaxes(grads.conj() @ w, -1, -2))
    q, _ = np.linalg.qr(np.concatenate([h, c], axis=-1))
    q_adj = np.conj(np.swapaxes(q, -1, -2))
    eye = np.eye(q.shape[-1])
    a = eye - epsilon * (q_adj @ h) @ np.conj(np.swapaxes(q_adj @ c, -1, -2))
    gram = a @ np.conj(np.swapaxes(a, -1, -2))
    if not np.isfinite(gram).all():  # eigh would fail on it; the step is far too large
        raise RankDeficientUpdate(f"update overflows at epsilon = {epsilon:.3g}; reduce the step size epsilon")
    lam, f = np.linalg.eigh(gram)
    _require_nonsingular(lam)
    z = (f * lam[..., np.newaxis, :] ** -0.5) @ np.conj(np.swapaxes(f, -1, -2)) @ a - eye
    step = (w @ q) @ z
    np.matmul(step, q_adj, out=out)
    out += w
    return np.linalg.norm(step, axis=(1, 2))


def _rank_one_polar(w: np.ndarray, rows: np.ndarray, grads: np.ndarray, epsilon: float, out: np.ndarray,
                    wc: np.ndarray):
    """``_polar_update`` for one codeword c per subset, in closed form.

    With h = W* g, q1 = h / ||h||, r12 = q1* c, the residual
    p = c - r12 q1 and r22 = ||p||, the update on the orthonormal basis
    [q1, p / r22] is A = [[alpha, beta], [0, 1]] with
    alpha = 1 - epsilon ||h|| conj(r12) = 1 - epsilon c* h, which is
    1 - epsilon quartic_sum(W c) (real up to rounding), and the real
    beta = -epsilon ||h|| r22.  Its polar factor is
    U = [[(1 + |alpha|) phi, beta], [-beta phi, 1 + |alpha|]] / d with
    phi = alpha / |alpha| and d = sqrt((1 + |alpha|)^2 + beta^2), from
    the square root of a 2 x 2 matrix (B. W. Levinger, Math. Magazine
    53(4), 1980), and Z = U - I.  The singular values of A sum to d and
    multiply to |alpha|, which gives the smallest eigenvalue of A A*,
    |alpha|^2 / lambda_max, without cancellation.

    The basis is kept unnormalized as [q1, p], with Z's second row and
    column divided by r22 in closed form.  So a codeword on the line of
    h (r22 = 0) drops the second column and a zero codeword (h = 0)
    gives a zero step, both without a division by zero.  W [q1, p]
    takes one matrix-vector product: W q1 = W h / ||h||, and
    W p = W c - r12 W q1 reuses ``wc``.  The step norm is ||Z||_F.
    """
    # Per subset, shapes (N, 1, K) for rows, (N, K, 1) for columns and
    # (N, 1, 1) for scalars; inner products are stacked matmuls.
    h_adj = grads.conj() @ w  # h* = g* W
    h_norm = np.sqrt((h_adj @ np.conj(np.swapaxes(h_adj, -1, -2))).real)
    inv_norm = np.divide(1.0, h_norm, out=np.zeros_like(h_norm), where=h_norm > 0)
    q1_adj = h_adj * inv_norm
    r12 = q1_adj @ np.swapaxes(rows, -1, -2)
    p_adj = rows.conj() - r12.conj() * q1_adj
    r22_sq = (p_adj @ np.conj(np.swapaxes(p_adj, -1, -2))).real
    eps_h = epsilon * h_norm
    alpha = 1 - eps_h * r12.conj()
    mod = np.abs(alpha)
    beta = eps_h * np.sqrt(r22_sq)  # |beta|
    d = np.hypot(1 + mod, beta)
    _require_nonsingular((2 * mod / (d + np.hypot(1 - mod, beta))) ** 2)
    phi = alpha / mod
    e = eps_h / d
    z11 = (1 + mod) * phi / d - 1
    z22 = -e * e * d / (1 + mod + d)  # ((1 + |alpha|) / d - 1) / r22^2
    wq1 = w @ np.conj(np.swapaxes(h_adj, -1, -2)) * inv_norm
    wp = np.swapaxes(wc, -1, -2) - r12 * wq1
    step = np.concatenate([z11 * wq1 + e * phi * wp, z22 * wp - e * wq1], axis=-1)  # W [q1, p] Z'
    np.matmul(step, np.concatenate([q1_adj, p_adj], axis=-2), out=out)
    out += w
    return np.sqrt(z11.real**2 + z11.imag**2 + r22_sq * (2 * e * e + r22_sq * z22 * z22)).ravel()


def _gram_schmidt_update(w: np.ndarray, rows: np.ndarray, grads: np.ndarray, epsilon: float, out: np.ndarray,
                         wc: np.ndarray | None = None):
    """``_polar_update`` with row-wise Gram-Schmidt: project_gram_schmidt(W - epsilon G C*).

    ``wc`` is part of the shared ``_PROJECTORS`` signature and unused here.
    """
    out[...] = project_gram_schmidt(w - epsilon * (np.swapaxes(grads, -1, -2) @ rows.conj()))
    return np.linalg.norm(out - w, axis=(1, 2))


# The stacked update of each projection: (w, rows, grads, epsilon, out, wc) -> step norms.
_PROJECTORS = {
    "symmetric_decorrelation": _polar_update,
    "gram_schmidt": _gram_schmidt_update,
}


# Codeword rows per chunk of a step: whole subsets are stacked up to
# this many rows, and each chunk's gradient and update run back to back
# while its rows are in cache.  Stacked vs one subset at a time (N = 5,
# one thread): gradients 2.0-2.8x faster at m = 1, even at m = 16-64,
# 0.55-0.6x at m = 200; a batch Gram-Schmidt step at K = 128, m = 200
# with one five-subset update took 34 ms against 28 ms.
_GRADIENT_ROWS = 64


def _descend(state: UnitarySet, groups, basis: SpectralBasis, epsilon: float, projection: str):
    """Move each subset's W against the gradient of its codeword rows.

    ``groups`` yields (ascending subset indices, (n, m, K) rows) pairs.
    Returns the new state and the per-subset step norms
    ||W(l+1) - W(l)||_F.  A group that spans every subset reads the old
    stack and writes the new one in place; any other group works on
    copies.
    """
    new = np.empty_like(state.matrices)
    norms = np.empty(state.n_subsets)
    for members, rows in groups:
        whole = len(members) == state.n_subsets
        w = state.matrices if whole else state.matrices[members]
        out = new if whole else np.empty_like(w)
        per_call = max(1, _GRADIENT_ROWS // rows.shape[1])
        for i in range(0, len(rows), per_call):
            chunk = slice(i, i + per_call)
            # W c, shared by the gradient and a rank-one update.  Larger
            # chunks form it inside the gradient and free it there.
            wc = rows[chunk] @ np.swapaxes(w[chunk], -1, -2) if rows.shape[1] == 1 else None
            grads = _gradient_rows(rows[chunk], w[chunk], basis, wc)
            norms[members[chunk]] = _PROJECTORS[projection](w[chunk], rows[chunk], grads, epsilon, out[chunk], wc)
        if not whole:
            new[members] = out
    return UnitarySet(matrices=new, iteration=state.iteration + 1), norms


def step_batch(
    state: UnitarySet, codebook: Codebook, basis: SpectralBasis, config: OptimizerConfig
) -> tuple[UnitarySet, np.ndarray]:
    """One full-subset gradient step for every subset.

    Subsets of equal size move as one stack; when every subset has the
    same size the stack is a view of the codebook, not a copy.  Returns
    the new state and the per-subset step norms ||W(l+1) - W(l)||_F used
    by the stopping rule.
    """
    sizes = codebook.subset_sizes
    groups = []
    for m in sorted(set(sizes)):
        members = [n for n, size in enumerate(sizes) if size == m]
        if len(members) == len(sizes):
            rows = codebook.symbols.reshape(len(sizes), m, -1)
        else:
            rows = np.stack([codebook.subset(n) for n in members])
        groups.append((members, rows))
    return _descend(state, groups, basis, config.resolved_epsilon(basis.size), config.projection)


def step_stochastic(
    state: UnitarySet, codebook: Codebook, basis: SpectralBasis, config: OptimizerConfig
) -> tuple[UnitarySet, np.ndarray]:
    """One single-codeword gradient step per subset.

    Each subset draws one codeword uniformly from its own stream,
    keyed by (seed, subset, iteration); a rerun or a resumed run
    therefore reproduces the trajectory exactly.  The draws come from
    ``_draw_block``, 256 iterations at a time.  All subsets move
    together: one stacked 2K-point FFT pair for the gradients and one
    stacked rank-one polar update.
    """
    sizes = codebook.subset_sizes
    starts = np.cumsum((0,) + sizes[:-1])
    block, row = divmod(state.iteration, _DRAW_BLOCK)
    picks = _draw_block(config.seed, sizes, block)[row]
    rows = codebook.symbols[starts + picks][:, np.newaxis, :]
    groups = [(np.arange(codebook.n_subsets), rows)]
    return _descend(state, groups, basis, config.resolved_epsilon(basis.size), config.projection)


@dataclass(frozen=True)
class TracePoint:
    iteration: int
    r_value: float
    max_step_norm: float
    wall_s: float


def run(
    codebook: Codebook,
    basis: SpectralBasis,
    config: OptimizerConfig,
    initial: UnitarySet | None = None,
) -> tuple[UnitarySet, list[TracePoint]]:
    """Iterate steps until the step norm drops below stop_tol for every
    subset or max_iters is reached.

    Returns the final state and a trace with the quartic statistic R at
    every checkpoint (start, every ``checkpoint_every`` iterations, and
    the final state).  Each checkpoint also measures the unitarity error
    and raises ``RankDeficientUpdate`` past ``UNITARITY_TOL``, so a run
    never returns a set that ``load_unitaries`` would reject.
    """
    if initial is None:
        state = UnitarySet.identity(codebook.n_subsets, basis.size)
    else:
        initial.validate()
        state = initial
    if state.n_subsets != codebook.n_subsets or state.k_carriers != basis.size:
        raise ValueError("initial unitary set does not match the codebook/basis")
    step = step_batch if config.mode == "batch" else step_stochastic
    started = time.perf_counter()
    trace = []

    def checkpoint(max_step_norm: float) -> None:
        drift = state.unitarity_error()
        if not drift <= UNITARITY_TOL:
            raise RankDeficientUpdate(
                f"unitarity drift {drift:.3e} > {UNITARITY_TOL:g} at iteration {state.iteration} "
                f"(epsilon = {config.resolved_epsilon(basis.size):.3g}, K = {basis.size}); "
                "reduce the step size epsilon"
            )
        r_value = r_statistic(codebook, basis, state)
        trace.append(TracePoint(state.iteration, r_value, max_step_norm, time.perf_counter() - started))

    checkpoint(0.0)
    # A step that overflows is refused by the polar checks or the drift guard, with no warning.
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.max_iters):
            state, norms = step(state, codebook, basis, config)
            if state.iteration % config.checkpoint_every == 0:
                checkpoint(float(norms.max()))
            if norms.max() <= config.stop_tol:
                break
        if trace[-1].iteration != state.iteration:
            checkpoint(float(norms.max()))
    return state, trace


def save_unitaries(
    state: UnitarySet, path: str | Path, seed: int | None = None, config_hash: str | None = None
) -> None:
    """Write a unitary-set file: the (N, K, K) matrices under a header
    with the iteration, seed and config hash."""
    header = {
        "k_carriers": state.k_carriers,
        "n_subsets": state.n_subsets,
        "iteration": state.iteration,
        "seed": seed,
        "config_hash": config_hash,
    }
    write_artifact(path, UNITARY_FORMAT, FORMAT_VERSION, header, state.matrices)


_UNITARY_FIELDS = {
    "k_carriers": SIZE_FIELD,
    "n_subsets": SIZE_FIELD,
    "iteration": SIZE_FIELD,
    "seed": INT_OR_NULL_FIELD,
    "config_hash": ("a string or null", lambda v: v is None or isinstance(v, str)),
}


def load_unitaries(path: str | Path, tol: float = UNITARITY_TOL) -> UnitarySet:
    """Read a unitary-set file and re-validate unitarity."""
    header, matrices = read_artifact(
        path, UNITARY_FORMAT, FORMAT_VERSION, _UNITARY_FIELDS,
        ("n_subsets", "k_carriers", "k_carriers"),
    )
    state = UnitarySet(matrices=matrices, iteration=header["iteration"])
    state.validate(tol)
    return state
