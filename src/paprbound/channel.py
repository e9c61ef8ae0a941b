"""Transmission scheme and physical-layer harness.

A codeword in subset i is sent as W_i c over an AWGN channel, with an
optional memoryless solid-state amplifier on the oversampled time
samples; the receiver applies W_i* (side information is the subset
index) and demaps per symbol.  Includes closed-form Gray-mapped square
QAM error rates as independent oracles for the Monte Carlo path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Codebook, QamConstellation, is_identity, write_table
from .optimizer import UnitarySet
from .waveform import baseband_samples

RAPP_VARIANTS = ("standard", "p_inner")


@dataclass(frozen=True)
class RappModel:
    """Memoryless amplitude saturation with no phase distortion.

    The standard variant maps an amplitude rho to
    rho / (1 + (rho/r)^(2p))^(1/(2p)), which increases monotonically
    and saturates at the clipping level r.  The ``p_inner`` variant
    uses (rho/r)^p inside the knee; it agrees with the standard model
    at rho = r but grows like sqrt(r * rho) instead of saturating.

    Attributes
    ----------
    smoothness : float
        Knee sharpness p; larger approaches an ideal clipper.
    clip_level : float
        Saturation amplitude r.
    """

    smoothness: float = 2.0
    clip_level: float = 1.0
    variant: str = "standard"

    def __post_init__(self):
        if self.smoothness <= 0 or self.clip_level <= 0:
            raise ValueError("smoothness and clip_level must be positive")
        if self.variant not in RAPP_VARIANTS:
            raise ValueError(f"variant must be one of {RAPP_VARIANTS}")

    @classmethod
    def from_backoff(
        cls,
        p_av: float,
        backoff_db: float = 2.0,
        smoothness: float = 2.0,
        variant: str = "standard",
    ) -> "RappModel":
        """Clipping level set ``backoff_db`` above the RMS amplitude
        sqrt(p_av)."""
        if p_av <= 0:
            raise ValueError("p_av must be positive")
        return cls(
            smoothness=smoothness,
            clip_level=float(np.sqrt(p_av) * 10.0 ** (backoff_db / 20.0)),
            variant=variant,
        )


def rapp_apply(samples: np.ndarray, model: RappModel) -> np.ndarray:
    """Push samples through the amplitude nonlinearity, phases unchanged."""
    x = np.asarray(samples, dtype=np.complex128)
    p = model.smoothness
    # (rho/r)^(2p) and (rho/r)^p, taken from rho^2 = re^2 + im^2
    gain = np.square(x.real)
    gain += np.square(x.imag)
    gain /= model.clip_level**2
    gain **= p if model.variant == "standard" else p / 2
    gain += 1.0
    gain **= -1.0 / (2 * p)
    return x * gain


@dataclass(frozen=True)
class LinkConfig:
    """Noise grid and per-link conventions for the BER harness."""

    ebn0_db: tuple[float, ...]
    oversampling: int = 1
    amplifier: RappModel | None = None
    seed: int = 0

    def __post_init__(self):
        grid = tuple(float(x) for x in self.ebn0_db)
        if not all(np.isfinite(grid)):
            raise ValueError("E_b/N_0 grid must be finite")
        object.__setattr__(self, "ebn0_db", grid)
        if self.oversampling < 1:
            raise ValueError("oversampling must be >= 1")


def noise_sigma(
    ebn0_db: float, p_av: float, k_carriers: int, bits_per_symbol: int, oversampling: int
) -> float:
    """Per-complex-sample time-domain noise std for a target E_b/N_0.

    Energy accounting: E_s = p_av / K per subcarrier symbol and
    E_b = E_s / bits_per_symbol, so the frequency-domain noise variance
    is N_0 = E_b / (E_b/N_0); the J*K-point transform spreads it over
    the time grid as sigma_t^2 = J * K * N_0.
    """
    ebn0 = 10.0 ** (ebn0_db / 10.0)
    n0 = p_av / (k_carriers * bits_per_symbol * ebn0)
    return float(np.sqrt(oversampling * k_carriers * n0))


def _transmit_rows(
    rows: np.ndarray,
    w: np.ndarray | None,
    link: LinkConfig,
    sigma: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized channel for a batch of codewords sharing one unitary.

    ``w=None`` sends the rows untransformed (W = I).  Returns the
    demodulated frequency-domain symbols (before W*).
    """
    j = link.oversampling
    k = rows.shape[-1]
    s = baseband_samples(rows if w is None else rows @ w.T, j)
    if link.amplifier is not None:
        s = rapp_apply(s, link.amplifier)
    if sigma > 0:
        # Real parts, then imaginary parts: the stream of two separate draws.
        noise = rng.standard_normal((2,) + s.shape)
        noise *= sigma / np.sqrt(2.0)
        s.real += noise[0]
        s.imag += noise[1]
    return np.fft.fft(s, axis=-1, norm="forward")[..., :k]


def transmit(
    c: np.ndarray,
    subset_index: int,
    unitaries: UnitarySet,
    link: LinkConfig,
    noise_sigma: float,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, int]:
    """Send one codeword through its subset transform and the channel.

    Returns the received frequency-domain vector and the side
    information (the subset index).
    """
    if not 0 <= subset_index < unitaries.n_subsets:
        raise ValueError(f"subset index {subset_index} out of range")
    x = np.asarray(c, dtype=np.complex128)
    if x.shape[-1] != unitaries.k_carriers:
        raise ValueError("codeword length does not match the unitary size")
    if rng is None:
        rng = np.random.default_rng(link.seed % (1 << 63))
    y = _transmit_rows(x[np.newaxis, :], unitaries.matrices[subset_index], link, noise_sigma, rng)
    return y[0], subset_index


def receive(
    y: np.ndarray,
    side_index: int,
    unitaries: UnitarySet,
    constellation: QamConstellation,
) -> np.ndarray:
    """Invert the subset transform and demap to bits (MSB first)."""
    if not 0 <= side_index < unitaries.n_subsets:
        raise ValueError(f"subset index {side_index} out of range")
    c_hat = np.asarray(y) @ unitaries.matrices[side_index].conj()
    return constellation.indices_to_bits(constellation.demap(c_hat)).reshape(-1)


@dataclass(frozen=True)
class BerCurve:
    """Monte Carlo bit error rates with Wilson 95% intervals."""

    ebn0_db: np.ndarray
    ber: np.ndarray
    n_bits: np.ndarray
    n_errors: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray

    def write_csv(self, path: str | Path) -> None:
        write_table(path, ["ebn0_db", "ber", "n_bits", "n_errors", "ci_low", "ci_high"],
                    zip(self.ebn0_db, self.ber, self.n_bits, self.n_errors, self.ci_low, self.ci_high))


def _wilson_interval(errors: int, trials: int, z: float = 1.959963984540054):
    p = errors / trials
    denom = 1.0 + z**2 / trials
    center = (p + z**2 / (2 * trials)) / denom
    half = z * np.sqrt(p * (1 - p) / trials + z**2 / (4 * trials**2)) / denom
    return max(center - half, 0.0), min(center + half, 1.0)


def ber_sweep(
    codebook: Codebook,
    constellation: QamConstellation,
    unitaries: UnitarySet,
    link: LinkConfig,
    target_errors: int = 200,
    max_symbols: int = 2_000_000,
    block_codewords: int = 256,
) -> BerCurve:
    """Monte Carlo BER over the E_b/N_0 grid.

    Codewords are drawn uniformly from the codebook (each keeps its own
    subset transform) until ``target_errors`` bit errors or the symbol
    budget is reached.  Noise blocks use streams keyed by (seed, grid
    point, block) so the sweep is reproducible and block-parallel safe.
    A subset whose W_n is exactly I (``core.is_identity``) skips both
    products, W_n c and W_n* y, with the same counts as with them.
    """
    for name, value in (("target_errors", target_errors), ("max_symbols", max_symbols),
                        ("block_codewords", block_codewords)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if unitaries.n_subsets != codebook.n_subsets or unitaries.k_carriers != codebook.k_carriers:
        raise ValueError("unitary set does not match the codebook")
    tx_indices = constellation.demap(codebook.symbols)
    exact = constellation.points[tx_indices]
    if not np.allclose(exact, codebook.symbols, atol=1e-9):
        raise ValueError("codebook symbols are not points of the given constellation")
    popcount = np.array([bin(x).count("1") for x in range(constellation.order)])
    boundaries = np.cumsum((0,) + codebook.subset_sizes)
    subset_of = np.searchsorted(boundaries, np.arange(codebook.size), side="right") - 1
    # Per subset: the transmit transform and the receiver W_n*, None for W_n = I.
    senders = [None if is_identity(w) else w for w in unitaries.matrices]
    receivers = [None if w is None else w.conj() for w in senders]

    bers, bits, errs, lows, highs = [], [], [], [], []
    for point, ebn0 in enumerate(link.ebn0_db):
        sigma = noise_sigma(
            ebn0, codebook.p_av, codebook.k_carriers,
            constellation.bits_per_symbol, link.oversampling,
        )
        n_bits = 0
        n_errors = 0
        block = 0
        while n_errors < target_errors and n_bits < max_symbols * constellation.bits_per_symbol:
            rng = np.random.default_rng(
                [int(link.seed) % (1 << 63), point, block]
            )
            rows = rng.integers(0, codebook.size, size=block_codewords)
            # Group the block by subset, keeping draw order within each.
            labels = subset_of[rows]
            grouped = rows[np.argsort(labels, kind="stable")]
            ends = np.cumsum(np.bincount(labels, minlength=codebook.n_subsets))
            c_hat = np.empty((rows.size, codebook.k_carriers), dtype=np.complex128)
            start = 0
            for n, end in enumerate(ends):
                if end > start:
                    y = _transmit_rows(codebook.symbols[grouped[start:end]], senders[n], link, sigma, rng)
                    if receivers[n] is None:
                        c_hat[start:end] = y
                    else:
                        np.matmul(y, receivers[n], out=c_hat[start:end])
                start = end
            rx = constellation.demap(c_hat)
            n_errors += int(popcount[tx_indices[grouped] ^ rx].sum())
            n_bits += rows.size * codebook.k_carriers * constellation.bits_per_symbol
            block += 1
        low, high = _wilson_interval(n_errors, n_bits)
        bers.append(n_errors / n_bits)
        bits.append(n_bits)
        errs.append(n_errors)
        lows.append(low)
        highs.append(high)
    return BerCurve(
        ebn0_db=np.asarray(link.ebn0_db),
        ber=np.asarray(bers),
        n_bits=np.asarray(bits),
        n_errors=np.asarray(errs),
        ci_low=np.asarray(lows),
        ci_high=np.asarray(highs),
    )


_erfc_elementwise = np.vectorize(math.erfc, otypes=[float])


def _erfc(x):
    """Complementary error function, elementwise; a scalar for a scalar."""
    return _erfc_elementwise(x)[()]


def qam_awgn_ser(order: int, esn0_db):
    """Exact symbol error rate of square M-QAM in AWGN (unit mean
    symbol energy, E_s/N_0 in dB)."""
    esn0 = 10.0 ** (np.asarray(esn0_db, dtype=float) / 10.0)
    m = np.sqrt(order)
    p_axis = (1.0 - 1.0 / m) * _erfc(np.sqrt(1.5 * esn0 / (order - 1)))
    return 1.0 - (1.0 - p_axis) ** 2


def qam_awgn_ber(order: int, ebn0_db):
    """Exact Gray-mapped bit error rate of square M-QAM in AWGN.

    Per-axis PAM bit error probabilities summed over decision
    boundaries; for M=16 this reduces to the familiar
    (3/4) Q(sqrt(0.8 g)) + (1/2) Q(sqrt(7.2 g)) - (1/4) Q(sqrt(20 g)).
    """
    ebn0 = 10.0 ** (np.asarray(ebn0_db, dtype=float) / 10.0)
    bits = int(np.log2(order))
    side = int(round(np.sqrt(order)))
    axis_bits = bits // 2
    total = 0.0
    for k in range(1, axis_bits + 1):
        upper = int((1 - 2.0**-k) * side)
        pk = 0.0
        for i in range(upper):
            flip = (-1.0) ** (i * 2 ** (k - 1) // side)
            weight = 2 ** (k - 1) - int(np.floor(i * 2 ** (k - 1) / side + 0.5))
            pk += flip * weight * _erfc((2 * i + 1) * np.sqrt(1.5 * bits * ebn0 / (order - 1)))
        total += pk / side
    return total / axis_bits
