"""Descent on sets of unitary matrices that lowers the quartic statistic.

Each subset of the codebook gets its own K x K unitary W_n.  A step
moves W_n against the gradient of the quartic statistic restricted to
that subset (one 2K-point FFT each way per codeword, ``_gradient_rows``)
and projects back onto the unitary matrices, by row-wise Gram-Schmidt
or by symmetric decorrelation, the polar factor (``_PROJECTORS``; with
one codeword per subset, in closed form by ``_rank_one_polar``).  A
batch step sums the gradient over a whole subset; a stochastic step
draws one codeword per subset and iteration from a stream keyed by
(seed, subset, iteration) (``_draw``, numpy 2.4's stream replayed for
a span of iterations at once), so trajectories are reproducible and
resumable.  Every step runs on a ``_StepPlan``; ``run`` builds one at unit
mean symbol power and checks the unitarity error at every checkpoint,
failing closed past ``UNITARITY_TOL``.
"""

from __future__ import annotations

import math
import sys
import weakref
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .bounds import r_statistic
from .core import (INT_OR_NULL_FIELD, SIZE_FIELD, Codebook, read_artifact, scale_back, scale_ratio,
                   subset_transforms, unit_power, write_artifact)
from .spectral import SpectralBasis

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
_DRAW_SPAN = 256  # most iterations one replay of the draw stream covers
_GATHER_BYTES = 1 << 22  # most bytes of drawn rows a plan gathers ahead


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


def _draw(seed: int, sizes: tuple[int, ...], first: int, count: int) -> np.ndarray:
    """Stochastic picks of iterations ``first`` to ``first + count - 1``.

    Returns a (count, N) int64 array whose row j, column n is
    ``np.random.default_rng(_seed_key(seed, n, first + j)).integers(sizes[n])``.
    It replays numpy's arithmetic for all lanes at once: the SeedSequence
    hash, PCG64 seeding and output in 128-bit arithmetic held as two
    uint64 halves, and the 32-bit Lemire bound of ``Generator.integers``,
    whose rejected lanes go on along their own stream.  This is numpy's stream as of numpy 2.4;
    from here on it is fixed by this function, whatever numpy is
    installed.
    """
    if not all(1 <= size <= 1 << 32 for size in sizes):
        raise ValueError("subset sizes must lie in [1, 2**32] to draw from them")
    n_sub = len(sizes)
    its = (np.uint64(first % (1 << 63)) + np.arange(count, dtype=np.uint64)) & np.uint64((1 << 63) - 1)
    parts = (
        np.full(count * n_sub, _seed_key(seed)[0], dtype=np.uint64),
        np.tile(np.arange(n_sub, dtype=np.uint64), count),
        np.repeat(its, n_sub),
    )
    # numpy turns each integer into one 32-bit word, or two from 2^32 on.
    lanes = np.arange(count * n_sub)
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
    size = np.tile(np.array(sizes, dtype=np.uint64), count)
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
    return (product >> _SHIFT32).astype(np.int64).reshape(count, n_sub)


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

    def validate(self) -> None:
        err = self.unitarity_error()
        if not err <= UNITARITY_TOL:
            raise ValueError(f"unitarity violated: max ||W W* - I||_F = {err:.3e} > {UNITARITY_TOL}")


@dataclass(frozen=True)
class OptimizerConfig:
    """Step size, stopping rule, projection, and draw mode.

    ``epsilon=None`` resolves to K^(-3/2) at run time.  Epsilon is taken at
    unit mean symbol power: a step moves W by epsilon times four symbols,
    so with a codebook's ``core.scale_ratio`` s it is epsilon / s^4, and W
    does not depend on qam_scale.  ``stop_tol`` bounds the Frobenius step
    norm max_n ||W(l+1) - W(l)||; the run also stops at ``max_iters``.
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


def _gradient_buffers(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_gradient_rows``'s buffers for rows of ``shape`` (..., m, K): the zero-padded
    rows and the envelope, (..., m, 2K) complex, and the envelope power."""
    padded = shape[:-1] + (2 * shape[-1],)
    return np.zeros(padded, dtype=np.complex128), np.empty(padded, dtype=np.complex128), np.empty(padded)


def _gradient_rows(rows: np.ndarray, w: np.ndarray, out) -> tuple[np.ndarray, np.ndarray]:
    """Per-codeword gradient rows V*(|alpha|^2 alpha) + V_hat*(|beta|^2 beta)
    with alpha = V W c, beta = V_hat W c, and the products W c.

    Evaluated as ``fft(|s|^2 s)[:K] / K^2`` on the 2K-point envelope
    s of W c.  ``rows`` holds codewords as rows, shape (..., m, K), and
    ``w`` the matching transforms, shape (..., K, K).  W c is formed
    here once, into the zero-padded buffer of the inverse FFT, and the
    FFTs and powers run in place, in ``out`` (``_gradient_buffers``, whose
    padding stays zero); both returned arrays are views of it, shaped as ``rows``.
    """
    k = rows.shape[-1]
    padded, s, power = out
    wc = np.matmul(rows, np.swapaxes(w, -1, -2), out=padded[..., :k])
    np.fft.ifft(padded, axis=-1, norm="forward", out=s)
    np.square(np.abs(s, out=power), out=power)
    np.fft.fft(np.multiply(power, s, out=s), axis=-1, out=s)
    return np.divide(s[..., :k], k**2, out=s[..., :k]), wc


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


def _require_nonsingular(lam_min: float) -> None:
    if not lam_min > 1e-12:
        raise RankDeficientUpdate(
            f"updated matrix is near singular (min eigenvalue {lam_min:.3e}); "
            "reduce the step size epsilon"
        )


def _polar_update(w: np.ndarray, rows: np.ndarray, grads: np.ndarray, epsilon: float, out: np.ndarray,
                  wc: np.ndarray):
    """Symmetric decorrelation of W - epsilon G C* for a stack of subsets.

    ``w`` is (N, K, K); ``rows`` and ``grads`` are (N, m, K) codeword
    and gradient rows, so G C* is the unscaled descent direction of the
    m codewords, and ``wc`` is ``rows @ W^T`` from ``_gradient_rows``.
    With H = W* G the update is W A with A = I - epsilon H C*, and its
    polar factor is W U V* for the SVD A = U S V* (N. J. Higham,
    "Computing the polar decomposition -- with applications", SIAM J.
    Sci. Stat. Comput. 7(4), 1986).  The singular values of A are those
    of W - epsilon G C*, and S^2 are the eigenvalues of A A*.  For m = 1
    the update has a closed form (``_rank_one_polar``).

    The unitary correction multiplies W on the right, so rounding in W
    is carried, not amplified.  (The left form (I + M)^{-1/2} W' relies
    on W* being the exact inverse of W and lets drift grow until the
    update turns singular.)

    Writes the new stack into ``out`` (same shape as ``w``, rows
    contiguous, not overlapping it) and returns the step norms
    ||W' - W||_F.
    """
    rows_conj = rows.conj()
    if rows.shape[-2] == 1:
        return _rank_one_polar(w, rows, grads, epsilon, out, wc, rows_conj)
    h = np.conj(np.swapaxes(grads.conj() @ w, -1, -2))
    a = np.eye(w.shape[-1]) - epsilon * (h @ rows_conj)
    if not np.isfinite(a).all():  # the SVD would fail on it; the step is far too large
        raise RankDeficientUpdate(f"update overflows at epsilon = {epsilon:.3g}; reduce the step size epsilon")
    u, s, vh = np.linalg.svd(a)
    _require_nonsingular((s**2).min())
    np.matmul(w, u @ vh, out=out)
    return np.linalg.norm(out - w, axis=(1, 2))


def _rank_one_polar(w: np.ndarray, rows: np.ndarray, grads: np.ndarray, epsilon: float, out: np.ndarray,
                    wc: np.ndarray, rows_conj: np.ndarray):
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

    Three stacked products give ||h||^2, h* c and ||p||^2; the 2 x 2
    algebra and the nonsingular check run per subset on Python scalars
    (``epsilon`` as a float, whatever type it came as, so that every
    caller rounds alike).  The step W [q1, p] Z' [q1, p]* is one real
    product: the complex (K, 2) [W q1, W p] read as real (K, 4), times
    the real (4, 2K) reading of the rows x and i x of each row x of
    Z' [q1, p]*, is the complex (K, K) step read as real (K, 2K).
    """
    epsilon = float(epsilon)
    n, k = w.shape[0], w.shape[-1]
    h_adj = grads.conj() @ w  # h* = g* W
    h_sq, h_c = _row_products(h_adj.view(np.float64)), _row_products(h_adj, rows)  # ||h||^2, h* c
    inv_norm = [1.0 / math.sqrt(s) if s > 0 else 0.0 for s in h_sq]
    r12 = [hc * inv for hc, inv in zip(h_c, inv_norm)]
    inv, r12_conj, r12 = np.array([inv_norm, [r.conjugate() for r in r12], r12]).reshape(3, n, 1, 1)
    basis, cols = np.empty((n, 2, k), dtype=np.complex128), np.empty((n, k, 2), dtype=np.complex128)
    q1_adj, p_adj, wq1, wp = basis[:, :1], basis[:, 1:], cols[..., :1], cols[..., 1:]
    np.multiply(h_adj, inv, out=q1_adj)
    np.subtract(rows_conj, np.multiply(r12_conj, q1_adj, out=p_adj), out=p_adj)  # p* = c* - conj(r12) q1*
    r22_sq = _row_products(p_adj.view(np.float64))
    np.multiply(w @ np.conj(np.swapaxes(h_adj, -1, -2)), inv, out=wq1)
    np.subtract(np.swapaxes(wc, -1, -2), np.multiply(r12, wq1, out=wp), out=wp)  # W p = W c - r12 W q1
    z, norms = [], []
    for hs, hc, rsq in zip(h_sq, h_c, r22_sq):
        eps_h = epsilon * math.sqrt(hs)
        alpha = 1 - epsilon * hc.conjugate()
        mod = math.hypot(alpha.real, alpha.imag)
        beta = eps_h * math.sqrt(rsq)  # |beta|
        d = math.hypot(1 + mod, beta)
        lam = 2 * mod / (d + math.hypot(1 - mod, beta))
        _require_nonsingular(lam * lam)
        phi = alpha / mod
        e = eps_h / d
        z11 = (1 + mod) * phi / d - 1
        z22 = -e * e * d / (1 + mod + d)  # ((1 + |alpha|) / d - 1) / r22^2
        z += (z11, -e, 1j * z11, -1j * e, e * phi, z22, 1j * e * phi, 1j * z22)  # rows of Z', each then times i
        norms.append(math.sqrt(z11.real * z11.real + z11.imag * z11.imag + rsq * (2 * e * e + rsq * z22 * z22)))
    rotated = np.array(z).reshape(n, 4, 2) @ basis
    np.matmul(cols.view(np.float64), rotated.view(np.float64), out=out.view(np.float64))
    out += w
    return np.array(norms)


def _row_products(a: np.ndarray, b: np.ndarray | None = None) -> list:
    """x y^T of each row x of an (N, 1, L) stack ``a`` and the matching row
    y of ``b`` (default ``a``), as Python scalars."""
    return (a @ np.swapaxes(a if b is None else b, -1, -2)).ravel().tolist()


def _gram_schmidt_update(w: np.ndarray, rows: np.ndarray, grads: np.ndarray, epsilon: float, out: np.ndarray,
                         wc: np.ndarray):
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


class _StepPlan:
    """What a step takes besides its state, for one codebook and config:
    the step size (the config's epsilon at unit mean symbol power,
    ``OptimizerConfig``) and projection; two (N, K, K) W stacks that take
    turns as old and new; gradient buffers per row shape; and for
    stochastic steps the rows drawn from the iteration a step asks for
    on, one iteration at first, then up to ``_DRAW_SPAN`` iterations and
    ``_GATHER_BYTES``.  ``run`` reuses one; a step called without one
    builds a one-step plan.
    A stack is written only while no ``UnitarySet`` it was handed out in
    is alive (a weak reference tells; if both are, a step gets a fresh
    stack), so no step writes the state it reads or one handed out before.
    """

    def __init__(self, codebook: Codebook, config: OptimizerConfig):
        n, k = codebook.n_subsets, codebook.k_carriers
        self.codebook, self.seed, self.projection = codebook, config.seed, config.projection
        self.epsilon = config.resolved_epsilon(k) / scale_ratio(codebook) ** 4
        self._buffers = {}  # row shape -> ``_gradient_buffers``
        self._stacks = [np.empty((n, k, k), dtype=np.complex128) for _ in range(2)]
        self._holders = [lambda: None] * 2  # weak references to the states in the stacks
        # Rows of the next iterations: (first iteration, rows).
        self._span = max(1, min(_DRAW_SPAN, _GATHER_BYTES // (16 * n * k)))
        self._gathered = 0, np.empty((0, n, 1, k), dtype=np.complex128)

    def new_state(self, iteration: int) -> UnitarySet:
        """A state to write a step into, in a stack no live state holds."""
        for i, holder in enumerate(self._holders):
            if holder() is None:
                state = UnitarySet(matrices=self._stacks[i], iteration=iteration)
                self._holders[i] = weakref.ref(state)
                return state
        return UnitarySet(matrices=np.empty_like(self._stacks[0]), iteration=iteration)

    def gradient_buffers(self, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if shape not in self._buffers:
            self._buffers[shape] = _gradient_buffers(shape)
        return self._buffers[shape]

    def drawn_rows(self, iteration: int) -> np.ndarray:
        """The rows drawn at ``iteration``, (N, 1, K)."""
        first, rows = self._gathered
        if not 0 <= iteration - first < len(rows):
            picks = _draw(self.seed, self.codebook.subset_sizes, iteration, self._span if len(rows) else 1)
            rows = self.codebook.symbols[self.codebook.subset_starts[:-1] + picks][..., np.newaxis, :]
            first = iteration
            self._gathered = first, rows
        return rows[iteration - first]


def _descend(state: UnitarySet, chunks, plan: _StepPlan):
    """Move each subset's W against the gradient of its codeword rows.

    ``chunks`` yields (subset slice, (n, m, K) rows) pairs, one per stack
    of n subsets of m rows each.  Each reads a view of the old stack and
    writes into a view of the plan's new one, with the plan's step size
    and buffers.  Returns the new state and the
    per-subset step norms ||W(l+1) - W(l)||_F.
    """
    new = plan.new_state(state.iteration + 1)
    norms = np.empty(state.n_subsets)
    for chunk, rows in chunks:
        w = state.matrices[chunk]
        grads, wc = _gradient_rows(rows, w, plan.gradient_buffers(rows.shape))
        norms[chunk] = _PROJECTORS[plan.projection](w, rows, grads, plan.epsilon, new.matrices[chunk], wc)
    return new, norms


def step_batch(state: UnitarySet, codebook: Codebook, config: OptimizerConfig,
               plan: _StepPlan | None = None) -> tuple[UnitarySet, np.ndarray]:
    """One full-subset gradient step for every subset.

    Each subset moves on its own: one gradient and one update per
    subset, on a view of its codebook rows.  Returns the new state and
    the per-subset step norms ||W(l+1) - W(l)||_F used by the stopping
    rule.  ``run`` passes its ``_StepPlan``; without one, the step runs
    on a one-step plan.
    """
    plan = plan or _StepPlan(codebook, config)
    chunks = ((slice(n, n + 1), block[np.newaxis]) for n, block in enumerate(codebook.subsets()))
    return _descend(state, chunks, plan)


def step_stochastic(state: UnitarySet, codebook: Codebook, config: OptimizerConfig,
                    plan: _StepPlan | None = None) -> tuple[UnitarySet, np.ndarray]:
    """One single-codeword gradient step per subset.

    Each subset draws one codeword uniformly from its own stream,
    keyed by (seed, subset, iteration); a rerun or a resumed run
    therefore reproduces the trajectory exactly.  The draws come from
    ``_draw``, which replays the stream.  All subsets move together, as
    one stack: one 2K-point FFT pair for the gradients and one update
    (the rank-one polar form, or a stacked QR).  ``run`` passes its
    ``_StepPlan``, which gathers the rows of the next iterations and
    holds the buffers; without one, the step runs on a one-step plan,
    which draws this iteration only.
    """
    plan = plan or _StepPlan(codebook, config)
    return _descend(state, [(slice(None), plan.drawn_rows(state.iteration))], plan)


@dataclass(frozen=True)
class TracePoint:
    iteration: int
    r_value: float
    max_step_norm: float


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
    never returns a set that ``load_unitaries`` would reject.  The steps
    and R work at unit mean symbol power (``core.unit_power``); an R that
    leaves float64's normal range when scaled back raises ValueError.
    """
    if basis.size != codebook.k_carriers:
        raise ValueError(f"codebook K={codebook.k_carriers} does not match basis K={basis.size}")
    if initial is None:
        state = UnitarySet.identity(codebook.n_subsets, codebook.k_carriers)
    else:
        subset_transforms(codebook, initial)
        initial.validate()
        state = initial
    step = step_batch if config.mode == "batch" else step_stochastic
    e, book = unit_power(codebook)
    plan = _StepPlan(book, config)
    trace = []

    def checkpoint(max_step_norm: float) -> None:
        drift = state.unitarity_error()
        if not drift <= UNITARITY_TOL:
            raise RankDeficientUpdate(
                f"unitarity drift {drift:.3e} > {UNITARITY_TOL:g} at iteration {state.iteration} "
                f"(epsilon = {config.resolved_epsilon(codebook.k_carriers):.3g}, K = {codebook.k_carriers}); "
                "reduce the step size epsilon"
            )
        r_value = scale_back(r_statistic(book, state), 4 * e)
        if not sys.float_info.min <= r_value < np.inf:
            raise ValueError(f"R is {r_value} at iteration {state.iteration}: the codeword powers "
                             f"{'overflow' if r_value > 1 else 'underflow'} float64")
        trace.append(TracePoint(state.iteration, r_value, max_step_norm))

    # Overflow fails closed with no warning: a step's in the polar checks or drift guard.
    with np.errstate(over="ignore", invalid="ignore"):
        checkpoint(0.0)
        for _ in range(config.max_iters):
            state, norms = step(state, book, config, plan)
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


def load_unitaries(path: str | Path) -> UnitarySet:
    """Read a unitary-set file and re-validate unitarity to ``UNITARITY_TOL``."""
    header, matrices = read_artifact(
        path, UNITARY_FORMAT, FORMAT_VERSION, _UNITARY_FIELDS,
        ("n_subsets", "k_carriers", "k_carriers"),
    )
    state = UnitarySet(matrices=matrices, iteration=header["iteration"])
    state.validate()
    return state
