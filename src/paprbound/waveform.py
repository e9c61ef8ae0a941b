"""Baseband synthesis on the 2K-point envelope grid, the quartic sums and
the PMEPR taken on it, and empirical CCDFs.

The paper's two K-point spectra of a codeword u, the cyclic (a DFT) and
the negacyclic (a half-sample shifted DFT), are samples of one signal:
with s = ``baseband_samples(u, 2)``, their squared magnitudes are, up to
order, the even and the odd samples of |s|^2 / K.  So ``quartic_sum``
sums |s|^4 over that grid, and ``peak_envelope_power`` takes the envelope
power there, which fixes it exactly, and upsamples it to the J grid.
Both take the rows in ``_row_chunks``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Codebook, transformed_subsets, unit_power, write_table

PMEPR_OVERSAMPLING_DEFAULT = 16
# Grid samples per chunk in ``peak_envelope_power`` (J grid) and
# ``quartic_sum`` (2K grid): one chunk's buffers (1 MB of real power)
# stay in cache, and memory does not grow with the batch.
_CHUNK_SAMPLES = 1 << 17


def _row_chunks(n_rows: int, row_samples: int):
    """Consecutive slices of ``n_rows`` rows, ``_CHUNK_SAMPLES // row_samples`` (at least one) each."""
    step = max(1, _CHUNK_SAMPLES // row_samples)
    return (slice(start, start + step) for start in range(0, n_rows, step))


def db_to_linear(x):
    return 10.0 ** (np.asarray(x, dtype=float) / 10.0)


def linear_to_db(x):
    return 10.0 * np.log10(np.asarray(x, dtype=float))


def default_gamma_grid_db(start: float = 4.0, stop: float = 13.0, step: float = 0.25) -> np.ndarray:
    """Power-ratio grid in dB, inclusive of the stop point."""
    n = int(np.floor((stop - start) / step + 1e-9)) + 1
    return start + step * np.arange(n)


def baseband_samples(c: np.ndarray, oversampling: int = 1) -> np.ndarray:
    """Samples s(i / (J*K)) of the length-K baseband signal, i = 0 .. J*K - 1.

    Computed as a zero-padded, unscaled inverse FFT, so that J = 1
    returns sum_k c[k] * exp(2j*pi*k*i/K).  Accepts a batch of codewords
    on the leading axes.
    """
    if oversampling < 1:
        raise ValueError("oversampling must be >= 1")
    x = np.asarray(c, dtype=np.complex128)
    k = x.shape[-1]
    padded = np.zeros(x.shape[:-1] + (k * oversampling,), dtype=np.complex128)
    padded[..., :k] = x
    return np.fft.ifft(padded, axis=-1, norm="forward")


def peak_envelope_power(c: np.ndarray, oversampling: int = PMEPR_OVERSAMPLING_DEFAULT):
    """max_i |s(t_i)|^2 over the J-oversampled grid (per codeword).

    For J <= 2 the grid is synthesised directly.  For J >= 3 the power
    p is taken on the 2K-point grid, where it is exact: |s(t)|^2 is a
    real trigonometric polynomial with frequencies -(K-1) .. K-1, so the
    first K bins of the 2K-point real FFT of p are its whole spectrum
    (bin K is zero) and a J K-point inverse real FFT of them gives the
    power on the J grid.

    Works through the codewords in chunks of about ``_CHUNK_SAMPLES``
    J-grid samples, so memory stays bounded whatever the batch size.
    """
    if oversampling < 1:
        raise ValueError("oversampling must be >= 1")
    x = np.asarray(c, dtype=np.complex128)
    k = x.shape[-1]
    n = k * oversampling
    rows = x.reshape(-1, k)
    peaks = np.empty(rows.shape[0])
    for chunk in _row_chunks(len(rows), n):
        s = baseband_samples(rows[chunk], min(oversampling, 2))
        power = np.square(s.real)
        power += np.square(s.imag)
        if oversampling > 2:
            spectrum = np.fft.rfft(power, axis=-1, norm="forward")[:, :k]
            power = np.fft.irfft(spectrum, n=n, axis=-1, norm="forward")
        power.max(axis=-1, out=peaks[chunk])
    return peaks.reshape(x.shape[:-1])[()]


def quartic_sum(c: np.ndarray):
    """Sum of fourth powers of the two spectra of c (for W c, pass ``c @ W.T``).

    Equals sum_k (c* C_k c)^2 + (c* C_hat_k c)^2, evaluated as
    sum_n |s_n|^4 / K^2 over the 2K-point envelope s of c, K = c.shape[-1].
    Accepts a single codeword or a (m, K) batch; returns a scalar or an
    (m,) vector accordingly.  Takes the rows in ``_row_chunks``, as
    ``peak_envelope_power`` does, but squares as ``np.abs(s) ** 2``, not
    as ``s.real**2 + s.imag**2``: the two differ in the last bit of R.
    """
    x = np.asarray(c, dtype=np.complex128)
    rows = x.reshape(-1, x.shape[-1])
    total = np.empty(len(rows))
    for chunk in _row_chunks(len(rows), 2 * x.shape[-1]):
        power = np.abs(baseband_samples(rows[chunk], 2)) ** 2
        (power * power).sum(axis=-1, out=total[chunk])
    total = total.reshape(x.shape[:-1]) / x.shape[-1] ** 2
    return float(total) if x.ndim == 1 else total


def pmepr(c: np.ndarray, p_av: float, oversampling: int = PMEPR_OVERSAMPLING_DEFAULT):
    """Peak-to-mean envelope power ratio on the J-oversampled grid."""
    if p_av <= 0:
        raise ValueError("p_av must be positive")
    return peak_envelope_power(c, oversampling) / p_av


@dataclass(frozen=True)
class CcdfCurve:
    """Empirical Pr(PMEPR > gamma) on an ascending gamma grid."""

    gamma: np.ndarray
    ccdf: np.ndarray
    sample_count: int

    def __post_init__(self):
        g = np.asarray(self.gamma, dtype=float)
        c = np.asarray(self.ccdf, dtype=float)
        if g.ndim != 1 or g.shape != c.shape:
            raise ValueError("gamma and ccdf must be matching 1-D arrays")
        if np.any(g < 0) or np.any(np.diff(g) <= 0):
            raise ValueError("gamma grid must be ascending and nonnegative")
        if np.any(c < 0) or np.any(c > 1) or np.any(np.diff(c) > 1e-12):
            raise ValueError("ccdf values must lie in [0, 1] and be nonincreasing")
        object.__setattr__(self, "gamma", g)
        object.__setattr__(self, "ccdf", c)

    @property
    def gamma_db(self) -> np.ndarray:
        return linear_to_db(self.gamma)

    def write_csv(self, path: str | Path) -> None:
        """CSV columns gamma_db (-inf at gamma = 0), gamma_linear, ccdf, n_samples."""
        with np.errstate(divide="ignore"):
            gamma_db = self.gamma_db
        write_table(path, ["gamma_db", "gamma_linear", "ccdf", "n_samples"],
                    ((*row, self.sample_count) for row in zip(gamma_db, self.gamma, self.ccdf)))


def codebook_pmeprs(
    codebook: Codebook,
    unitaries=None,
    oversampling: int = PMEPR_OVERSAMPLING_DEFAULT,
) -> np.ndarray:
    """PMEPR of every (optionally transformed) codeword, in codebook order,
    taken at unit mean symbol power (``core.unit_power``): it is scale-free."""
    book = unit_power(codebook)[1]
    return np.concatenate([pmepr(block, book.p_av, oversampling) for block in transformed_subsets(book, unitaries)])


def empirical_ccdf(
    codebook: Codebook,
    gamma_grid: np.ndarray,
    unitaries=None,
    oversampling: int = PMEPR_OVERSAMPLING_DEFAULT,
) -> CcdfCurve:
    """Fraction of codewords whose PMEPR exceeds each grid point."""
    grid = np.asarray(gamma_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("gamma grid must be a non-empty ascending vector")
    values = codebook_pmeprs(codebook, unitaries, oversampling)
    ccdf = (values[:, None] > grid[None, :]).mean(axis=0)
    return CcdfCurve(gamma=grid, ccdf=ccdf, sample_count=values.size)
