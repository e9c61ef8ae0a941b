"""The K-point cyclic / negacyclic spectral pair, kept as a test oracle.

The package evaluates every quartic statistic on the 2K-point envelope
grid.  This module keeps the paper's exposition that the grid replaced:
the aperiodic shift correlations rho(k) of a codeword, the cyclic
spectrum alpha = V u (the unitary DFT) and the negacyclic spectrum
beta = V_hat u with V_hat = V diag(half_phase), the (nega)cyclic shift
matrices B_s they diagonalize with eigenvalues ``d_phase(s)``, and the
dense rank-one operators C_k, C_hat_k.  Tests
check the pair against closed forms and the dense rebuild
V* D_s V = B_s, then check the package's grid paths against the pair.
"""

from functools import cached_property

import numpy as np


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


class KPointPair:
    """V, V_hat = V diag(half_phase) and their adjoints as length-K FFTs,
    with the dense matrices and operators built from those paths."""

    def __init__(self, k_carriers: int):
        self.size = int(k_carriers)
        self.half_phase = np.exp(-1j * np.pi * np.arange(self.size) / self.size)

    @cached_property
    def v(self) -> np.ndarray:
        """Dense DFT matrix V, the columns of ``to_alpha`` on unit vectors."""
        return self.to_alpha(np.eye(self.size)).T

    @cached_property
    def v_hat(self) -> np.ndarray:
        """Dense V_hat = V diag(half_phase), from ``to_beta``."""
        return self.to_beta(np.eye(self.size)).T

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
        """All rank-one operators C_k = v_k* v_k and C_hat_k as (K, K, K)
        stacks."""
        c = np.einsum("ki,kj->kij", self.v.conj(), self.v)
        c_hat = np.einsum("ki,kj->kij", self.v_hat.conj(), self.v_hat)
        return c, c_hat

    # -- the statistics the package computes on the 2K-point grid --------

    def quartic_sum(self, u: np.ndarray):
        """sum_k |alpha_k|^4 + |beta_k|^4 of the transformed codeword(s) u."""
        pa = np.abs(self.to_alpha(u)) ** 2
        pb = np.abs(self.to_beta(u)) ** 2
        return (pa * pa).sum(axis=-1) + (pb * pb).sum(axis=-1)

    def gradient_rows(self, u: np.ndarray) -> np.ndarray:
        """V*(|alpha|^2 alpha) + V_hat*(|beta|^2 beta) per row of u."""
        alpha = self.to_alpha(u)
        beta = self.to_beta(u)
        return self.from_alpha(np.abs(alpha) ** 2 * alpha) + self.from_beta(
            np.abs(beta) ** 2 * beta
        )

    def delta_w(self, subset: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Unscaled descent direction sum_c gradient_rows(W c) c*."""
        block = np.atleast_2d(subset)
        return self.gradient_rows(block @ w.T).T @ block.conj()

    def gaussian_bound(self, cov: np.ndarray, gamma_grid: np.ndarray) -> np.ndarray:
        """3 K (2K-1) / (2 P_av^2 gamma^2) * sum_k Tr(C_k cov)^2 +
        Tr(C_hat_k cov)^2, with the traces as three-operand einsums."""
        k = self.size
        t_a = np.einsum("ki,ij,kj->k", self.v, cov, self.v.conj()).real
        t_b = np.einsum("ki,ij,kj->k", self.v_hat, cov, self.v_hat.conj()).real
        p_av = np.trace(cov).real
        scale = 3.0 * k * (2 * k - 1) / (2.0 * p_av**2 * np.asarray(gamma_grid) ** 2)
        return scale * ((t_a**2).sum() + (t_b**2).sum())
