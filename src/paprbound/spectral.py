"""Shift-correlation and spectral-operator machinery.

The squared envelope of a length-K multicarrier signal is controlled by
the aperiodic shift correlations rho(k) of its codeword.  Splitting the
correlation energy into periodic and odd-periodic parts yields two
families of shift matrices that the DFT matrix V and a half-sample
shifted variant V_hat diagonalize exactly (0-based index convention).
The rank-one operators C_k = V* G_k V and C_hat_k = V_hat* G_k V_hat
turn quartic envelope statistics into sums of |spectrum|^4 terms that
an FFT evaluates in O(K log K).

``build_basis`` proves that diagonalization numerically for every K
before it returns, in O(K^2 log K): the FFT paths are unitary, shift 1
maps to B_1, and d_phase(s) = d_phase(1)**s, so every B_s = B_1**s is
reconstructed too.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

DENSE_CAP_DEFAULT = 64


def aperiodic_corr(c: np.ndarray) -> np.ndarray:
    """Aperiodic shift correlation rho(k) = sum_l c[l] * conj(c[l + k]).

    Returns the K values rho(0) ... rho(K-1); rho(0) is the codeword
    power (real).
    """
    x = np.asarray(c, dtype=np.complex128)
    k = x.shape[0]
    return np.conj(np.correlate(x, x, mode="full")[k - 1 :])


def b_matrix(k_carriers: int, shift: int, sign: int) -> np.ndarray:
    """Cyclic (sign=+1) or negacyclic (sign=-1) shift matrix.

    Block form [[0, sign*I_shift], [I_{K-shift}, 0]]; its quadratic form
    on a codeword equals rho(shift) +/- conj(rho(K - shift)).
    """
    if not 0 <= shift <= k_carriers - 1:
        raise ValueError(f"shift {shift} out of range [0, {k_carriers - 1}]")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    out = np.zeros((k_carriers, k_carriers))
    rows = (np.arange(k_carriers) + shift) % k_carriers
    out[rows, np.arange(k_carriers)] = 1.0
    if sign == -1 and shift > 0:
        out[:shift, :] *= -1.0
    return out


class SpectralBasis:
    """Unitary transform pack for carrier count K.

    Applies the DFT matrix V, the half-sample shifted variant
    V_hat = V diag(half_phase), and their adjoints with length-K FFTs.
    The dense matrices ``v`` and ``v_hat`` are built from those FFT paths
    on first use; only ``gaussian_ccdf_bound`` and ``dense_operators``
    read them.  Dense rank-one operators C_k / C_hat_k are materialized
    on demand for K up to ``dense_cap`` (oracle and test use only).

    With ``validate`` (the default) construction checks, for both
    families, that the FFT path is unitary and diagonalizes every
    (nega)cyclic shift matrix B_s with eigenvalues ``d_phase(s)``; it
    raises ``ArithmeticError`` otherwise.  The check costs O(K^2 log K)
    time and O(K^2) memory: four K x K FFT batches and K ``d_phase``
    vectors per family (about 2 ms at K=64, 32 ms at K=256).
    """

    def __init__(self, k_carriers: int, dense_cap: int = DENSE_CAP_DEFAULT, validate: bool = True):
        if k_carriers < 2:
            raise ValueError("carrier count K must be at least 2")
        self.size = int(k_carriers)
        self.dense_cap = int(dense_cap)
        self.half_phase = np.exp(-1j * np.pi * np.arange(self.size) / self.size)
        self._dense = None
        if validate:
            self._check_reconstruction()

    @cached_property
    def v(self) -> np.ndarray:
        """Dense DFT matrix V, the columns of ``to_alpha`` on unit vectors."""
        return self.to_alpha(np.eye(self.size)).T

    @cached_property
    def v_hat(self) -> np.ndarray:
        """Dense V_hat = V diag(half_phase), from ``to_beta``."""
        return self.to_beta(np.eye(self.size)).T

    # -- transforms ---------------------------------------------------

    def to_alpha(self, x: np.ndarray) -> np.ndarray:
        """Apply V along the last axis."""
        return np.fft.fft(x, axis=-1) / np.sqrt(self.size)

    def to_beta(self, x: np.ndarray) -> np.ndarray:
        """Apply V_hat along the last axis."""
        return np.fft.fft(x * self.half_phase, axis=-1) / np.sqrt(self.size)

    def from_alpha(self, y: np.ndarray) -> np.ndarray:
        """Apply the adjoint V* along the last axis."""
        return np.fft.ifft(y, axis=-1) * np.sqrt(self.size)

    def from_beta(self, y: np.ndarray) -> np.ndarray:
        """Apply the adjoint V_hat* along the last axis."""
        return np.conj(self.half_phase) * np.fft.ifft(y, axis=-1) * np.sqrt(self.size)

    def d_phase(self, shift: int, hat: bool = False) -> np.ndarray:
        """Diagonal of the shift eigenvalue matrix for the given family."""
        n = np.arange(self.size)
        d = np.exp(-2j * np.pi * shift * n / self.size)
        if hat:
            d = d * np.exp(-1j * np.pi * shift / self.size)
        return d

    def dense_operators(self) -> tuple[np.ndarray, np.ndarray]:
        """All rank-one operators as (K, K, K) stacks (C, C_hat).

        Only available for K <= dense_cap; the production paths never
        need them.
        """
        if self.size > self.dense_cap:
            raise ValueError(
                f"dense operators limited to K <= {self.dense_cap}, got K = {self.size}"
            )
        if self._dense is None:
            c = np.einsum("ki,kj->kij", self.v.conj(), self.v)
            c_hat = np.einsum("ki,kj->kij", self.v_hat.conj(), self.v_hat)
            self._dense = (c, c_hat)
        return self._dense

    # -- construction check -------------------------------------------

    def _check_reconstruction(self):
        """Prove V* D_s V = B_s for every shift s of both families.

        Per family, with T the forward FFT path and F its inverse path:
        F T = I and F = T* (T is unitary), F D_1 T = B_1 on all K unit
        vectors, and d_phase(s) = d_phase(1)**s.  Since B_s = B_1**s,
        F D_s T = (F D_1 T)**s = B_s follows for every s.
        """
        k = self.size
        eye = np.eye(k, dtype=np.complex128)
        for hat, sign, forward, inverse in (
            (False, 1, self.to_alpha, self.from_alpha),
            (True, -1, self.to_beta, self.from_beta),
        ):
            # Row j of each product is the transform of unit vector j.
            spectra = forward(eye)
            step = self.d_phase(1, hat)
            phases = np.array([self.d_phase(shift, hat) for shift in range(k)])
            powers = np.ones((k, k), dtype=np.complex128)  # row s: step**s
            np.cumprod(np.broadcast_to(step, (k - 1, k)), axis=0, out=powers[1:])
            defects = {
                "round trip": inverse(spectra) - eye,
                "adjoint": inverse(eye) - spectra.conj().T,
                "shift 1": inverse(step * spectra) - b_matrix(k, 1, sign).T,
                "phase powers": phases - powers,
            }
            for name, defect in defects.items():
                err = np.abs(defect).max()
                if not err <= 1e-10:
                    family = "negacyclic" if hat else "cyclic"
                    raise ArithmeticError(
                        f"spectral basis check ({family} {name}) failed at K={k}: {err:.2e}"
                    )


def build_basis(
    k_carriers: int, dense_cap: int = DENSE_CAP_DEFAULT, validate: bool = True
) -> SpectralBasis:
    """Construct and numerically validate the transform pack for K.

    The check proves that both FFT paths are unitary and diagonalize
    every (nega)cyclic shift matrix, in O(K^2 log K) time (about 2 ms at
    K=64); ``validate=False`` skips it.
    """
    return SpectralBasis(k_carriers, dense_cap=dense_cap, validate=validate)


def quartic_sum(c: np.ndarray, basis: SpectralBasis, w: np.ndarray | None = None):
    """Sum of fourth powers of the two spectra of (W c).

    Equals sum_k (c* W* C_k W c)^2 + (c* W* C_hat_k W c)^2, evaluated
    with two length-K FFTs.  Accepts a single codeword or a (m, K)
    batch; returns a scalar or an (m,) vector accordingly.
    """
    x = np.asarray(c, dtype=np.complex128)
    if x.shape[-1] != basis.size:
        raise ValueError(f"codeword length {x.shape[-1]} != basis size {basis.size}")
    if w is not None:
        w = np.asarray(w)
        if w.shape != (basis.size, basis.size):
            raise ValueError(f"transform must be {basis.size}x{basis.size}, got {w.shape}")
        x = x @ w.T
    pa = np.abs(basis.to_alpha(x)) ** 2
    pb = np.abs(basis.to_beta(x)) ** 2
    total = (pa * pa).sum(axis=-1) + (pb * pb).sum(axis=-1)
    return float(total) if x.ndim == 1 else total
