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
import functools
import json
import math
import os
import sys
from collections.abc import Iterator
from dataclasses import KW_ONLY, dataclass, field, replace
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


def default_qam_scale(order: int) -> float:
    """The scale sqrt(3 / (2 (M - 1))) at which M-QAM has unit mean symbol power."""
    return math.sqrt(3.0 / (2.0 * (order - 1)))


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
        Half the minimum distance between points; None gives the order's
        ``default_qam_scale``, at which the mean symbol power is 1.
    points : np.ndarray
        (M,) complex points indexed by symbol index (read-only), derived
        from ``order`` and ``scale`` like ``side`` and ``bits_per_symbol``.
    """

    order: int
    scale: float | None = None
    points: np.ndarray = field(init=False, repr=False, compare=False)
    side: int = field(init=False)
    bits_per_symbol: int = field(init=False)

    def __post_init__(self):
        if not is_qam_order(self.order):
            raise ValueError(f"order {QAM_ORDER_RULE}, got {self.order}")
        scale = default_qam_scale(self.order) if self.scale is None else self.scale
        if not scale > 0:
            raise ValueError("scale must be positive")
        side = math.isqrt(self.order)
        if not math.isfinite(float(scale) * (side - 1)):  # Python floats: overflow is inf, not a warning
            raise ValueError(f"scale {scale!r} puts the outer level scale * (side - 1) out of float range")
        axis_bits = side.bit_length() - 1
        levels = scale * (2.0 * np.arange(side) - side + 1)  # ascending odd multiples
        pos = _inverse_gray(side)
        idx = np.arange(self.order)
        points = levels[pos[idx >> axis_bits]] + 1j * levels[pos[idx & (side - 1)]]
        points.flags.writeable = False  # hash and == leave it out: it follows order and scale
        for name, value in (("scale", float(scale)), ("points", points), ("side", side),
                            ("bits_per_symbol", 2 * axis_bits)):
            object.__setattr__(self, name, value)

    @classmethod
    def square(cls, order: int, scale: float | None = None) -> "QamConstellation":
        return cls(order, scale)

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
        # Clipped before the cast: a level past the int64 range would not convert.
        return np.clip(np.rint((value / self.scale + self.side - 1) / 2.0), 0, self.side - 1).astype(np.int64)


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
        Empirical mean of the squared l2 norm over the codebook, derived
        from ``symbols``.  The metadata after it is keyword-only.
    """

    symbols: np.ndarray = field(repr=False)
    subset_sizes: tuple[int, ...]
    p_av: float = field(init=False)
    _: KW_ONLY
    seed: int | None = None
    qam_order: int | None = None
    qam_scale: float | None = None

    def __post_init__(self):
        sym = np.asarray(self.symbols, dtype=np.complex128)
        if sym.ndim != 2 or sym.shape[0] < 1:
            raise ValueError("symbols must be a non-empty (count, K) array")
        if sym.shape[1] < 2:
            raise ValueError("carrier count K must be at least 2")
        object.__setattr__(self, "symbols", sym)
        sizes = tuple(int(s) for s in self.subset_sizes)
        if any(s <= 0 for s in sizes) or sum(sizes) != sym.shape[0]:
            raise ValueError("subset sizes must be positive and sum to the codebook size")
        object.__setattr__(self, "subset_sizes", sizes)
        # A non-finite entry, or a huge finite one whose square overflows,
        # gives a p_av of inf or NaN, which the check below refuses.
        with np.errstate(over="ignore"):
            p_av = float(np.mean(np.abs(sym) ** 2) * sym.shape[1])
        if not 0 < p_av < math.inf:
            raise ValueError(f"average power p_av must be positive and finite, got {p_av}")
        object.__setattr__(self, "p_av", p_av)

    @classmethod
    def from_symbols(cls, symbols: np.ndarray, n_subsets: int, **meta) -> "Codebook":
        sym = np.asarray(symbols, dtype=np.complex128)
        count = sym.shape[0]
        if count % n_subsets != 0:
            raise ValueError(f"codebook size {count} not divisible by {n_subsets} subsets")
        return cls(sym, (count // n_subsets,) * n_subsets, **meta)

    @property
    def size(self) -> int:
        return self.symbols.shape[0]

    @property
    def k_carriers(self) -> int:
        return self.symbols.shape[1]

    @property
    def n_subsets(self) -> int:
        return len(self.subset_sizes)

    @functools.cached_property
    def subset_starts(self) -> np.ndarray:
        """The N + 1 row offsets of the partition (read-only): subset n is rows [starts[n], starts[n + 1])."""
        starts = np.cumsum((0,) + self.subset_sizes)
        starts.flags.writeable = False
        return starts

    def subset(self, n: int) -> np.ndarray:
        """Rows of subset ``n`` (0-based)."""
        if not 0 <= n < self.n_subsets:
            raise ValueError(f"subset index {n} out of range [0, {self.n_subsets})")
        return self.symbols[self.subset_starts[n] : self.subset_starts[n + 1]]

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


def scale_ratio(codebook: Codebook) -> float:
    """The codebook's qam_scale over its order's ``default_qam_scale``; 1 without them."""
    known = codebook.qam_scale is not None and is_qam_order(codebook.qam_order)
    return codebook.qam_scale / default_qam_scale(codebook.qam_order) if known else 1.0


def unit_power(codebook: Codebook) -> tuple[int, Codebook]:
    """The one scale rule: e = round(log2 ``scale_ratio``) (without a qam_scale,
    of sqrt(p_av / K)) and the codebook with symbols and qam_scale times 2^-e,
    ``codebook`` itself for e = 0, as at every default scale.  A power of two
    is exact and commutes with the FFTs, products and roots downstream, away
    from under- and overflow: a power here is 2^(-2e) times the codebook's."""
    if codebook.qam_scale is not None and is_qam_order(codebook.qam_order):  # logs: no overflow
        e = round(math.log2(codebook.qam_scale) - math.log2(default_qam_scale(codebook.qam_order)))
    else:
        e = round(math.log2(codebook.p_av / codebook.k_carriers) / 2)
    if e == 0:
        return 0, codebook
    pairs = np.ldexp(np.ascontiguousarray(codebook.symbols).view(np.float64), -e)
    scale = None if codebook.qam_scale is None else math.ldexp(codebook.qam_scale, -e)
    return e, replace(codebook, symbols=pairs.view(np.complex128), qam_scale=scale)


def scale_back(value: float, exponent: int) -> float:
    """``value`` times 2^exponent: exact, inf past float64's range, subnormal or 0 below it."""
    with np.errstate(over="ignore", under="ignore"):
        return float(np.ldexp(value, exponent))


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


def subset_transforms(codebook: Codebook, unitaries=None) -> list[np.ndarray | None]:
    """The one rule that pairs a unitary set (a UnitarySet, an (N, K, K)
    array or a list of N K x K matrices) with a codebook: W_n per subset,
    None where the subset goes out as drawn (no set, or a W_n that is
    exactly I by ``is_identity``).  Any other shape is a ValueError."""
    if unitaries is None:
        return [None] * codebook.n_subsets
    matrices = np.asarray(getattr(unitaries, "matrices", unitaries))
    expected = (codebook.n_subsets, codebook.k_carriers, codebook.k_carriers)
    if matrices.shape != expected:
        raise ValueError(f"unitary set does not match the codebook: shape {matrices.shape}, expected {expected}")
    return [None if is_identity(w) else w for w in matrices]


def transformed_subsets(codebook: Codebook, unitaries=None) -> Iterator[np.ndarray]:
    """Each subset n as sent, ``block @ W_n.T`` (rows W_n c), computed as the
    caller reaches it, so one transformed subset is held at a time."""
    pairs = zip(codebook.subsets(), subset_transforms(codebook, unitaries))
    return (block if w is None else block @ w.T for block, w in pairs)


def is_int(value) -> bool:
    """A JSON integer: an int, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """An int or float within float64's range; a huge int is compared exactly, never converted."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


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
    "qam_scale": ("a finite number > 0 or null", lambda v: v is None or (is_number(v) and v > 0)),
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
        fh.write(np.ascontiguousarray(values, dtype="<c16"))


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
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size == expected:
            # The (re, im) float64 pairs are the bytes of a little-endian
            # complex128 array: read them straight into one.
            values = np.empty(dims, dtype="<c16")
            size = fh.readinto(values)
    if size != expected:
        raise ValueError(f"{path}: payload is {size} bytes, expected {expected}")
    return header, values


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
    book = Codebook(symbols, tuple(header["subset_sizes"]), **meta)
    if not abs(header["p_av"] - book.p_av) <= 1e-12 * book.p_av:
        raise _bad_field(path, header, "p_av", f"{book.p_av!r} to 1e-12 relative, the codewords' average power")
    if book.qam_scale is not None and is_qam_order(book.qam_order):
        # Points at scale D have powers 2D^2 to 2D^2 (sqrt(M) - 1)^2; divided by D twice, no D^2 overflows.
        mean = book.p_av / book.k_carriers
        if not 2 * (1 - 1e-12) <= mean / book.qam_scale / book.qam_scale <= (
                2 * (math.isqrt(book.qam_order) - 1) ** 2 * (1 + 1e-12)):
            raise _bad_field(path, header, "qam_scale", f"the symbols' scale D, with their mean power {mean!r} "
                             "from 2D^2 to 2D^2 (sqrt(M) - 1)^2")
    return book
