"""CCDF bounds on peak envelope power.

The chain runs: envelope peak -> shift-correlation energy (Cauchy-
Schwarz) -> quartic spectral sums -> Markov inequality on the fourth
moment.  On top of that sit a Gaussian-input closed form (covariance
traces), a Chernoff/Hoeffding exponential bound for codebooks with
compact support, and the Jensen floor that limits how far unitary
transforms can push the quartic statistic once subset second moments
are white.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Codebook, QamConstellation, scale_back, transformed_subsets, unit_power, write_json, write_table
from .spectral import SpectralBasis, quartic_sum
from .waveform import baseband_samples, linear_to_db

PSD_TOLERANCE = 1e-10  # relative to the largest |eigenvalue|, or |entry| for M - M*


def r_statistic(codebook: Codebook, unitaries=None) -> float:
    """Quartic-sum statistic R of the (optionally transformed) codebook.

    R = K(2K-1)/(2|C|) * sum over subsets n and codewords c in subset n
    of quartic_sum(W_n c); the identity transform is used when no
    unitaries are given.  This is the statistic every CCDF bound here
    is written in, and the quantity the unitary optimizer drives down;
    summed at unit mean symbol power (``core.unit_power``), scaled back.
    """
    e, book = unit_power(codebook)
    k = book.k_carriers
    total = sum(quartic_sum(block).sum() for block in transformed_subsets(book, unitaries))
    return scale_back(k * (2 * k - 1) / (2.0 * book.size) * total, 4 * e)


def markov_ccdf_bound(r_value: float, p_av: float, gamma_grid: np.ndarray) -> np.ndarray:
    """Fourth-moment Markov bound R / (P_av^2 gamma^2), reported raw.

    Values above 1 are kept as-is; they are vacuous but preserve the
    1/gamma^2 shape.
    """
    if p_av <= 0:
        raise ValueError("p_av must be positive")
    grid = np.asarray(gamma_grid, dtype=float)
    return r_value / (p_av**2 * grid**2)


def chernoff_objective(s, r_value: float, a: float, b: float, p_av: float, gamma: float):
    """Exponent -s(P_av^2 gamma^2 - R) + (b^2 - a^2)^2 s^2 / 8 of the
    Chernoff bound before optimizing s.

    The quadratic term is Hoeffding's lemma for Z = max_t |s(t)|^4,
    which lies in [a^2, b^2] when a <= max_t |s(t)|^2 <= b, so its
    support width is b^2 - a^2; E[Z] <= R supplies the linear term.
    """
    excess = p_av**2 * gamma**2 - r_value
    return -s * excess + (b**2 - a**2) ** 2 * np.asarray(s, dtype=float) ** 2 / 8.0


def optimal_chernoff_s(r_value: float, a: float, b: float, p_av: float, gamma: float) -> float:
    """Minimizer s* = 4 (P_av^2 gamma^2 - R) / (b^2 - a^2)^2 of the
    Chernoff exponent; positive exactly on the validity region."""
    return 4.0 * (p_av**2 * gamma**2 - r_value) / (b**2 - a**2) ** 2


def hoeffding_ccdf_bound(
    r_value: float, a: float, b: float, p_av: float, gamma_grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exponential CCDF bound exp(-2 (P_av^2 gamma^2 - R)^2 / (b^2 - a^2)^2).

    ``a`` and ``b`` bound the peak envelope power over the codebook
    (a <= max_t |s(t)|^2 <= b for every codeword), so Z = max_t |s(t)|^4
    lies in [a^2, b^2] and PMEPR > gamma exactly when Z > P_av^2 gamma^2.
    Hoeffding's lemma on Z with E[Z] <= R, minimized over s at
    ``optimal_chernoff_s``, gives the bound; the exponent is invariant
    under a common rescaling of the symbols.  Valid only where
    P_av^2 gamma^2 > R; invalid grid points get NaN and a False flag.
    """
    if not b > a >= 0:
        raise ValueError("endpoints must satisfy b > a >= 0")
    if p_av <= 0:
        raise ValueError("p_av must be positive")
    grid = np.asarray(gamma_grid, dtype=float)
    excess = p_av**2 * grid**2 - r_value
    valid = excess > 0
    values = np.full(grid.shape, np.nan)
    values[valid] = np.exp(-2.0 * excess[valid] ** 2 / (b**2 - a**2) ** 2)
    return values, valid


def qam_endpoints(constellation: QamConstellation, k_carriers: int) -> tuple[float, float]:
    """Envelope-power endpoints (0, 2 K^2 D^2 (sqrt(M) - 1)^2) for
    square M-QAM; b is the squared l1-norm cap of the largest codeword."""
    d = constellation.scale
    m = constellation.order
    return 0.0, 2.0 * k_carriers**2 * d**2 * (np.sqrt(m) - 1.0) ** 2


def codebook_endpoints(codebook: Codebook) -> tuple[float, float]:
    """l2-based endpoints a = min ||c||^2, b = K max ||c||^2.

    Conservative by the norm sandwich ||c||^2 <= max|s|^2 <= K ||c||^2,
    and invariant under unitary transforms of the codewords.
    """
    norms = (np.abs(codebook.symbols) ** 2).sum(axis=1)
    return float(norms.min()), float(codebook.k_carriers * norms.max())


def _require_psd(name: str, matrix: np.ndarray) -> None:
    """Raise a ValueError naming ``name`` unless ``matrix`` is Hermitian and
    PSD to ``PSD_TOLERANCE`` (``eigvalsh`` reads only one triangle)."""
    with np.errstate(invalid="ignore"):  # inf - inf: eigvalsh refuses non-finite input
        asymmetry = np.abs(matrix - matrix.conj().T).max()
    if asymmetry > PSD_TOLERANCE * np.abs(matrix).max():
        raise ValueError(f"{name} not Hermitian: max |M - M*| {asymmetry:.3e}")
    eigs = np.linalg.eigvalsh(matrix)
    if eigs.min() < -PSD_TOLERANCE * np.abs(eigs).max():
        raise ValueError(f"{name} not PSD: min eigenvalue {eigs.min():.3e}")


def gaussian_ccdf_bound(
    cov: np.ndarray, basis: SpectralBasis, gamma_grid: np.ndarray
) -> np.ndarray:
    """CCDF bound for zero-mean complex Gaussian codewords with the
    given covariance.

    3 K (2K-1) / (2 P_av^2 gamma^2) * sum_k Tr(C_k cov)^2 +
    Tr(C_hat_k cov)^2, with P_av = Tr(cov).  The 2K traces are the
    expected envelope power E|s_n|^2 / K on the 2K-point grid: the
    2K-point DFT of the diagonal sums D_d = sum_{i-j=d} cov[i, j],
    d = -(K-1) ... K-1.  Since D_{-d} = conj(D_d), that DFT is
    2 Re(sum_{d>=0} D_d e^{2 pi i d n / 2K}) - D_0, which
    ``baseband_samples`` evaluates from the K sums with d >= 0.
    """
    sigma = np.asarray(cov, dtype=np.complex128)
    k = basis.size
    if sigma.shape != (k, k):
        raise ValueError(f"covariance must be {k}x{k}")
    _require_psd("covariance", sigma)
    # Row i of the flat view below starts i places later than row i of
    # ``padded``, so column K-1+d collects sigma[i, j] with i - j = d.
    padded = np.zeros((k, 2 * k), dtype=np.complex128)
    padded[:, :k] = sigma[:, ::-1]
    diag_sums = padded.ravel()[: k * (2 * k - 1)].reshape(k, 2 * k - 1).sum(axis=0)[k - 1 :]
    p_av = float(diag_sums[0].real)
    if not p_av > 0:
        raise ValueError(f"covariance must have a positive trace, got {p_av}")
    traces = (2.0 * baseband_samples(diag_sums, 2).real - p_av) / k
    grid = np.asarray(gamma_grid, dtype=float)
    return 3.0 * k * (2 * k - 1) / (2.0 * p_av**2 * grid**2) * (traces**2).sum()


def real_embedding(z: np.ndarray) -> np.ndarray:
    """Real 2Kx2K embedding [[Re, -Im], [Im, Re]] of a KxK matrix."""
    z = np.asarray(z)
    return np.block([[z.real, -z.imag], [z.imag, z.real]])


def gaussian_quartic_moment(g: np.ndarray, cov: np.ndarray) -> tuple[float, float]:
    """Exact value and trace bound of E[(c* G c)^2] for c ~ CN(0, cov).

    exact = (1/4) [Tr(T(G) T(cov))^2 + 2 Tr(T(G) T(cov) T(G) T(cov))]
    with T the real embedding; bound = 3 Tr(G cov)^2, and
    exact <= bound always holds for PSD inputs.
    """
    g = np.asarray(g, dtype=np.complex128)
    cov = np.asarray(cov, dtype=np.complex128)
    if g.shape != cov.shape or g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError("g and cov must be square matrices of equal size")
    _require_psd("g", g)
    _require_psd("cov", cov)
    tg = real_embedding(g)
    tc = real_embedding(cov)
    prod = tg @ tc
    exact = 0.25 * (np.trace(prod) ** 2 + 2.0 * np.trace(prod @ prod))
    bound = 3.0 * np.trace(g @ cov).real ** 2
    return float(exact), float(bound)


@dataclass(frozen=True)
class BoundReport:
    """Markov and Hoeffding bound values over a gamma grid, with the
    statistics they were computed from."""

    gamma: np.ndarray
    markov: np.ndarray
    hoeffding: np.ndarray
    hoeffding_valid: np.ndarray
    r_value: float
    a: float
    b: float
    p_av: float
    k_carriers: int
    n_subsets: int

    def write_csv(self, path: str | Path) -> None:
        """CSV columns gamma_db, markov, hoeffding (NaN where invalid),
        hoeffding_valid plus a JSON sidecar with the scalar statistics."""
        path = Path(path)
        valid = np.asarray(self.hoeffding_valid, dtype=bool)
        hoeffding = np.where(valid, self.hoeffding, np.nan)
        write_table(path, ["gamma_db", "markov", "hoeffding", "hoeffding_valid"],
                    zip(linear_to_db(self.gamma), self.markov, hoeffding, valid))
        write_json(path.with_suffix(".json"), {
            "R": self.r_value, "a": self.a, "b": self.b, "p_av": self.p_av,
            "K": self.k_carriers, "N": self.n_subsets,
        })


def bound_report(
    codebook: Codebook,
    basis: SpectralBasis,
    gamma_grid: np.ndarray,
    unitaries=None,
) -> BoundReport:
    """Evaluate the Markov and Hoeffding bounds for a codebook, using
    the l2-based endpoints (unitary transforms leave them unchanged), at
    unit mean symbol power (``core.unit_power``); R, a and b are scaled back."""
    if basis.size != codebook.k_carriers:
        raise ValueError(f"codebook K={codebook.k_carriers} does not match basis K={basis.size}")
    grid = np.asarray(gamma_grid, dtype=float)
    e, book = unit_power(codebook)
    r = r_statistic(book, unitaries)
    a, b = codebook_endpoints(book)
    markov = markov_ccdf_bound(r, book.p_av, grid)
    hoeffding, valid = hoeffding_ccdf_bound(r, a, b, book.p_av, grid)
    return BoundReport(gamma=grid, markov=markov, hoeffding=hoeffding, hoeffding_valid=valid,
                       r_value=scale_back(r, 4 * e), a=scale_back(a, 2 * e), b=scale_back(b, 2 * e),
                       p_av=codebook.p_av, k_carriers=codebook.k_carriers, n_subsets=codebook.n_subsets)
