"""The 2K-point envelope grid and the quartic statistics on it.

The squared envelope of a length-K multicarrier signal is controlled by
the aperiodic shift correlations rho(k) of its codeword.  Splitting the
correlation energy into periodic and odd-periodic parts yields two
families of shift matrices, diagonalized by the DFT (the cyclic
spectrum alpha) and by a half-sample shifted DFT (the negacyclic
spectrum beta).  Both spectra are samples of one signal: with
s = ``baseband_samples(u, 2)``, the envelope of u on the 2K-point grid,
|alpha|^2 and |beta|^2 are, up to order, the even and the odd samples
of |s|^2 / K.  So every quartic statistic here is a sum over that grid,
one 2K-point FFT per codeword; ``build_basis`` checks the grid for each K.
"""

from __future__ import annotations

import numpy as np

from .waveform import _CHUNK_SAMPLES, baseband_samples


class SpectralBasis:
    """The 2K-point envelope grid for carrier count K, checked.

    Construction checks the grid S = ``baseband_samples(I_K, 2)`` that
    every quartic statistic is evaluated on:

    * round trip: ``fft(S)`` is 2K I on its first K columns and zero on
      the last K, so the forward FFT recovers carrier coefficients;
    * first column: S[:, 1] = exp(i pi k / K), the half-sample phase;
    * column powers: S[:, n] = S[:, 1]**n for every n.

    Together these pin S[k, n] = exp(i pi k n / K) exactly.  A failed
    check raises ``ArithmeticError`` naming it.  The check costs
    O(K^2 log K) time and O(K^2) memory.
    """

    def __init__(self, k_carriers: int):
        if k_carriers < 2:
            raise ValueError("carrier count K must be at least 2")
        self.size = int(k_carriers)
        self._check_grid()

    def _check_grid(self):
        k = self.size
        grid = baseband_samples(np.eye(k), 2)
        expected = np.zeros((k, 2 * k))
        expected[:, :k] = np.eye(k)
        powers = np.ones((k, 2 * k), dtype=np.complex128)  # column n: column 1 ** n
        np.cumprod(np.broadcast_to(grid[:, 1:2], (k, 2 * k - 1)), axis=1, out=powers[:, 1:])
        defects = {
            "round trip": np.fft.fft(grid, axis=-1) / (2 * k) - expected,
            "first column": grid[:, 1] - np.exp(1j * np.pi * np.arange(k) / k),
            "column powers": grid - powers,
        }
        for name, defect in defects.items():
            err = np.abs(defect).max()
            if not err <= 1e-10:
                raise ArithmeticError(f"envelope grid check ({name}) failed at K={k}: {err:.2e}")


def build_basis(k_carriers: int) -> SpectralBasis:
    """Construct and numerically check the 2K-point envelope grid for K.

    The check costs O(K^2 log K) time, about half a millisecond at K=64.
    """
    return SpectralBasis(k_carriers)


def quartic_sum(c: np.ndarray):
    """Sum of fourth powers of the two spectra of c (for W c, pass ``c @ W.T``).

    Equals sum_k (c* C_k c)^2 + (c* C_hat_k c)^2, evaluated as
    sum_n |s_n|^4 / K^2 over the 2K-point envelope s of c, K = c.shape[-1].
    Accepts a single codeword or a (m, K) batch; returns a scalar or an
    (m,) vector accordingly.  Works through the rows in chunks of at most
    ``_CHUNK_SAMPLES`` grid samples, as ``peak_envelope_power`` does.
    """
    x = np.asarray(c, dtype=np.complex128)
    rows = x.reshape(-1, x.shape[-1])
    total = np.empty(len(rows))
    step = max(1, _CHUNK_SAMPLES // (2 * x.shape[-1]))
    for start in range(0, len(rows), step):
        power = np.abs(baseband_samples(rows[start : start + step], 2)) ** 2
        (power * power).sum(axis=-1, out=total[start : start + step])
    total = total.reshape(x.shape[:-1]) / x.shape[-1] ** 2
    return float(total) if x.ndim == 1 else total
