"""Constellations, codebooks, deterministic codebook generation, and
the file codecs: ``write_artifact``/``read_artifact`` for binary
artifacts, ``write_table``/``write_json`` for every text artifact.

A codeword is a length-K complex vector of subcarrier symbols (symbol
duration normalized to 1).  A codebook is a stack of codewords together
with a partition into consecutive, disjoint subsets and the empirical
average power over the whole book.
"""

from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

CODEBOOK_FORMAT = "paprbound/codebook"
FORMAT_VERSION = 1
# Square QAM with a power-of-two side, as the per-axis Gray mapping needs,
# up to 16 bits per symbol: the constellation and the link build
# order-sized tables.
QAM_ORDERS = frozenset(4**n for n in range(1, 9))
QAM_ORDER_RULE = f"must be a power of 4 from 4 to {max(QAM_ORDERS)}"


def is_qam_order(order: int) -> bool:
    """Whether ``order`` is a supported square QAM size (``QAM_ORDER_RULE``)."""
    return order in QAM_ORDERS


def _gray(i: np.ndarray | int):
    return i ^ (i >> 1)


def _inverse_gray(n_codes: int) -> np.ndarray:
    """Lookup table mapping a Gray code to its level position."""
    table = np.empty(n_codes, dtype=np.int64)
    table[_gray(np.arange(n_codes))] = np.arange(n_codes)
    return table


@dataclass(frozen=True)
class QamConstellation:
    """Square M-QAM constellation with a per-axis Gray bit mapping.

    Points live on the grid ``scale * ((2*m1 - 1) + 1j*(2*m2 - 1))`` for
    ``m1, m2 in {-side/2 + 1, ..., side/2}``.  A symbol index carries
    ``log2(M)`` bits, the high half Gray-coding the in-phase level and
    the low half the quadrature level, so neighbouring points differ in
    exactly one bit.

    Attributes
    ----------
    order : int
        Constellation size M; a power of 4 from 4 to 65536.
    scale : float
        Half the minimum distance between points.  The default
        ``sqrt(3 / (2*(M - 1)))`` normalizes the mean symbol power to 1.
    points : np.ndarray
        (M,) complex points indexed by symbol index.
    """

    order: int
    scale: float
    points: np.ndarray = field(repr=False)
    side: int
    bits_per_symbol: int

    @classmethod
    def square(cls, order: int, scale: float | None = None) -> "QamConstellation":
        if not is_qam_order(order):
            raise ValueError(f"order {QAM_ORDER_RULE}, got {order}")
        side = math.isqrt(order)
        if scale is None:
            scale = float(np.sqrt(3.0 / (2.0 * (order - 1))))
        if scale <= 0:
            raise ValueError("scale must be positive")
        axis_bits = side.bit_length() - 1
        levels = scale * (2.0 * np.arange(side) - side + 1)  # ascending odd multiples
        pos = _inverse_gray(side)
        idx = np.arange(order)
        i_level = levels[pos[idx >> axis_bits]]
        q_level = levels[pos[idx & (side - 1)]]
        points = i_level + 1j * q_level
        return cls(
            order=order,
            scale=float(scale),
            points=points,
            side=side,
            bits_per_symbol=2 * axis_bits,
        )

    def demap(self, symbols: np.ndarray) -> np.ndarray:
        """Nearest-point decision, returning symbol indices.

        For a square grid the per-axis slicer is exact minimum-distance
        demapping.
        """
        x = np.asarray(symbols)
        axis_bits = self.side.bit_length() - 1
        li = self._axis_level(x.real)
        lq = self._axis_level(x.imag)
        return (_gray(li) << axis_bits) | _gray(lq)

    def _axis_level(self, value: np.ndarray) -> np.ndarray:
        pos = np.rint((value / self.scale + self.side - 1) / 2.0).astype(np.int64)
        return np.clip(pos, 0, self.side - 1)

    def indices_to_bits(self, indices: np.ndarray) -> np.ndarray:
        """Unpack symbol indices to bits, MSB first, shape (..., bits)."""
        idx = np.asarray(indices)
        shifts = np.arange(self.bits_per_symbol - 1, -1, -1)
        return (idx[..., None] >> shifts) & 1

    def bits_to_indices(self, bits: np.ndarray) -> np.ndarray:
        b = np.asarray(bits)
        if b.shape[-1] != self.bits_per_symbol:
            raise ValueError(f"expected {self.bits_per_symbol} bits per symbol")
        shifts = np.arange(self.bits_per_symbol - 1, -1, -1)
        return (b << shifts).sum(axis=-1)

    def mean_power(self) -> float:
        return float(np.mean(np.abs(self.points) ** 2))


def validate_codeword(c: np.ndarray) -> np.ndarray:
    """Check the codeword contract: 1-D, length >= 2, all entries finite."""
    x = np.asarray(c, dtype=np.complex128)
    if x.ndim != 1 or x.shape[0] < 2:
        raise ValueError("codeword must be a 1-D vector with at least 2 symbols")
    if not np.all(np.isfinite(x.view(np.float64))):
        raise ValueError("codeword contains non-finite entries")
    return x


@dataclass(frozen=True)
class Codebook:
    """A stack of codewords with a consecutive-block subset partition.

    Attributes
    ----------
    symbols : np.ndarray
        (count, K) complex codewords, one per row.
    subset_sizes : tuple[int, ...]
        Sizes of the N consecutive blocks; they sum to count.
    p_av : float
        Empirical mean of the squared l2 norm over the codebook.
    """

    symbols: np.ndarray = field(repr=False)
    subset_sizes: tuple[int, ...]
    p_av: float
    seed: int | None = None
    qam_order: int | None = None
    qam_scale: float | None = None

    def __post_init__(self):
        sym = np.asarray(self.symbols, dtype=np.complex128)
        if sym.ndim != 2 or sym.shape[0] < 1:
            raise ValueError("symbols must be a non-empty (count, K) array")
        if sym.shape[1] < 2:
            raise ValueError("carrier count K must be at least 2")
        if not np.all(np.isfinite(sym.view(np.float64))):
            raise ValueError("codebook contains non-finite entries")
        object.__setattr__(self, "symbols", sym)
        sizes = tuple(int(s) for s in self.subset_sizes)
        if any(s <= 0 for s in sizes) or sum(sizes) != sym.shape[0]:
            raise ValueError("subset sizes must be positive and sum to the codebook size")
        object.__setattr__(self, "subset_sizes", sizes)
        with np.errstate(over="ignore"):  # a huge symbol gives p_av = inf: a mismatch
            p_av = float(np.mean(np.abs(sym) ** 2) * sym.shape[1])
        if not abs(p_av - self.p_av) <= 1e-12 * max(1.0, self.p_av):
            raise ValueError("stored p_av does not match the codewords")
        if p_av <= 0:
            raise ValueError("average power must be positive")

    @classmethod
    def from_symbols(cls, symbols: np.ndarray, n_subsets: int, **meta) -> "Codebook":
        sym = np.asarray(symbols, dtype=np.complex128)
        count = sym.shape[0]
        if count % n_subsets != 0:
            raise ValueError(f"codebook size {count} not divisible by {n_subsets} subsets")
        sizes = (count // n_subsets,) * n_subsets
        p_av = float(np.mean(np.abs(sym) ** 2) * sym.shape[1])
        return cls(symbols=sym, subset_sizes=sizes, p_av=p_av, **meta)

    @property
    def size(self) -> int:
        return self.symbols.shape[0]

    @property
    def k_carriers(self) -> int:
        return self.symbols.shape[1]

    @property
    def n_subsets(self) -> int:
        return len(self.subset_sizes)

    def subset(self, n: int) -> np.ndarray:
        """Rows of subset ``n`` (0-based)."""
        if not 0 <= n < self.n_subsets:
            raise ValueError(f"subset index {n} out of range [0, {self.n_subsets})")
        start = sum(self.subset_sizes[:n])
        return self.symbols[start : start + self.subset_sizes[n]]

    def subsets(self):
        return [self.subset(n) for n in range(self.n_subsets)]


def generate_codebook(
    constellation: QamConstellation,
    k_carriers: int,
    count: int,
    n_subsets: int,
    seed: int,
) -> Codebook:
    """Draw ``count`` codewords i.i.d. uniform over the constellation.

    The partition assigns consecutive blocks of ``count / n_subsets``
    codewords to each subset.  The same seed reproduces the codebook
    bit for bit.
    """
    if k_carriers < 2:
        raise ValueError("carrier count K must be at least 2")
    if count % n_subsets != 0:
        raise ValueError(f"count {count} not divisible by n_subsets {n_subsets}")
    rng = np.random.default_rng(seed % (1 << 64))
    idx = rng.integers(0, constellation.order, size=(count, k_carriers))
    symbols = constellation.points[idx]
    return Codebook.from_symbols(
        symbols,
        n_subsets,
        seed=seed,
        qam_order=constellation.order,
        qam_scale=constellation.scale,
    )


def subset_gram(codebook: Codebook, n: int) -> np.ndarray:
    """Empirical second-moment matrix of subset ``n``.

    Returns the Hermitian positive semidefinite average of the outer
    products c c* over the subset.
    """
    block = codebook.subset(n)
    return block.T @ block.conj() / block.shape[0]


def is_identity(w: np.ndarray) -> bool:
    """Whether the K x K matrix ``w`` is exactly the identity.  A product
    with an exact I returns its finite, nonzero entries bit for bit, so
    callers skip it; a matrix one ulp away from I is not the identity.
    The diagonal goes first: it turns down most other matrices after K
    entries, without building I."""
    return bool(np.all(w.diagonal() == 1)) and np.array_equal(w, np.eye(w.shape[-1]))


def transformed_subsets(codebook: Codebook, unitaries=None) -> Iterator[np.ndarray]:
    """Each subset n as sent, ``block @ W_n.T`` (rows W_n c), computed
    as the caller reaches it, so one transformed subset is held at a
    time.  ``unitaries`` (a UnitarySet, an (N, K, K) array, a list of N
    K x K matrices, or None for the subsets as drawn) is checked first.
    A subset whose W_n is exactly I (``is_identity``) is yielded as
    drawn, as for None."""
    if unitaries is None:
        return iter(codebook.subsets())
    matrices = np.asarray(getattr(unitaries, "matrices", unitaries))
    n, k = codebook.n_subsets, codebook.k_carriers
    if matrices.shape != (n, k, k):
        raise ValueError(f"transforms of shape {matrices.shape} for {n} subsets of K={k}")
    return (block if is_identity(w) else block @ w.T for block, w in zip(codebook.subsets(), matrices))


def is_int(value) -> bool:
    """A JSON integer: an int, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """An int or a finite float.  JSON's Infinity and NaN parse as floats."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


# Header field checks: (what the value must be, predicate).
SIZE_FIELD = ("a nonnegative integer", lambda v: is_int(v) and v >= 0)
INT_OR_NULL_FIELD = ("an integer or null", lambda v: v is None or is_int(v))
_CODEBOOK_FIELDS = {
    "k_carriers": SIZE_FIELD,
    "count": SIZE_FIELD,
    "subset_sizes": ("a list of integers", lambda v: isinstance(v, list) and all(map(is_int, v))),
    "p_av": ("a finite number", is_number),
    "seed": INT_OR_NULL_FIELD,
    "qam_order": INT_OR_NULL_FIELD,
    "qam_scale": ("a finite number or null", lambda v: v is None or is_number(v)),
}


def _cell(value) -> str:
    """One CSV cell: true/false for a flag, an integer in decimal, any
    other number with 17 significant digits (nan, inf and -inf as such)."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_table(path: str | Path, header: list[str], rows) -> None:
    """Write a text table: the ``header`` row, then one row of cells
    per item of ``rows``, in csv's default dialect (rows end in CRLF)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(map(_cell, row) for row in rows)


def read_table(path: str | Path) -> list[dict[str, str]]:
    """The rows of a ``write_table`` file, each a dict keyed by the header."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_json(path: str | Path, doc: dict) -> None:
    """Write a JSON document: keys sorted, two-space indent, final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def write_artifact(path: str | Path, file_format: str, version: int, header: dict,
                   values: np.ndarray) -> None:
    """Write a binary artifact: one JSON header line (the format tag,
    the version and ``header``, keys sorted), then ``values`` as
    row-major little-endian float64 (re, im) pairs."""
    fields = {"format": file_format, "version": version, **header}
    with open(path, "wb") as fh:
        fh.write(json.dumps(fields, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(np.asarray(values, dtype="<c16").tobytes())


def _bad_field(path, header: dict, key: str, what: str) -> ValueError:
    got = repr(header[key]) if key in header else "missing"
    return ValueError(f"{path}: header field '{key}' must be {what} (got {got})")


def read_artifact(path: str | Path, file_format: str, version: int, fields: dict,
                  shape: tuple[str, ...]) -> tuple[dict, np.ndarray]:
    """Read a binary artifact written by ``write_artifact``.

    Checks the format tag and version, and every header field in
    ``fields`` (name -> (description, predicate); a missing field is
    checked as null).  ``shape`` names the header fields that give the
    payload's dimensions.  Any mismatch raises ValueError naming the
    file.  Returns the header and the decoded complex array.
    """
    kind = file_format.split("/")[-1]
    with open(path, "rb") as fh:
        header_line = fh.readline()
        raw = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: not a {kind} file ({exc})") from exc
    if not isinstance(header, dict):
        raise ValueError(f"{path}: not a {kind} file (header is not a JSON object)")
    if header.get("format") != file_format:
        raise ValueError(f"{path}: unexpected format {header.get('format')!r}")
    if header.get("version") != version:
        raise ValueError(f"{path}: unsupported version {header.get('version')!r}")
    for key, (what, valid) in fields.items():
        if not valid(header.get(key)):
            raise _bad_field(path, header, key, what)
    dims = [header[key] for key in shape]
    expected = math.prod(dims) * 16  # Python ints: a huge header cannot wrap
    if len(raw) != expected:
        raise ValueError(f"{path}: payload is {len(raw)} bytes, expected {expected}")
    pairs = np.frombuffer(raw, dtype="<f8").reshape(*dims, 2)
    return header, pairs[..., 0] + 1j * pairs[..., 1]


def save_codebook(codebook: Codebook, path: str | Path) -> None:
    """Write a codebook file: the (count, K) symbols under a header
    with the partition, average power and generation metadata."""
    header = {
        "k_carriers": codebook.k_carriers,
        "count": codebook.size,
        "n_subsets": codebook.n_subsets,
        "subset_sizes": list(codebook.subset_sizes),
        "p_av": codebook.p_av,
        "seed": codebook.seed,
        "qam_order": codebook.qam_order,
        "qam_scale": codebook.qam_scale,
    }
    write_artifact(path, CODEBOOK_FORMAT, FORMAT_VERSION, header, codebook.symbols)


def load_codebook(path: str | Path) -> Codebook:
    header, symbols = read_artifact(
        path, CODEBOOK_FORMAT, FORMAT_VERSION, _CODEBOOK_FIELDS, ("count", "k_carriers")
    )
    n_subsets = len(header["subset_sizes"])
    if not (is_int(header.get("n_subsets")) and header["n_subsets"] == n_subsets):
        raise _bad_field(path, header, "n_subsets", f"{n_subsets}, the number of subset sizes")
    meta = {key: header.get(key) for key in ("seed", "qam_order", "qam_scale")}
    return Codebook(symbols, tuple(header["subset_sizes"]), float(header["p_av"]), **meta)
