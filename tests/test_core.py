import json
import math
import re

import numpy as np
import pytest

from paprbound.core import (
    QAM_ORDERS,
    Codebook,
    QamConstellation,
    default_qam_scale,
    generate_codebook,
    load_codebook,
    save_codebook,
    scale_back,
    scale_ratio,
    subset_gram,
    unit_power,
)


@pytest.mark.parametrize("order", [4, 16, 256, 65536])
def test_unit_power_is_the_identity_at_the_default_scale(order):
    # Whatever the order and however small the draw, a default-scale
    # codebook has e = 0 and comes back as the same object.  Without QAM
    # metadata e comes from the mean symbol power p_av / K instead.
    for k, count in ((2, 1), (8, 64)):
        book = generate_codebook(QamConstellation.square(order), k, count, 1, seed=order + k)
        assert unit_power(book) == (0, book) and unit_power(book)[1] is book
    bare = Codebook.from_symbols(np.ones((3, 4)), 1)
    assert scale_ratio(bare) == 1.0 and unit_power(bare) == (0, bare)
    e, unit = unit_power(Codebook.from_symbols(np.ones((3, 4)) * 2.0**300, 1))
    assert e == 300 and unit.symbols.tobytes() == bare.symbols.tobytes() and unit.qam_scale is None


@pytest.mark.parametrize("k", [-400, -60, -1, 1, 60, 400])
def test_unit_power_rescales_by_an_exact_power_of_two(k):
    # At qam_scale D0 2^k the rule takes e = k and returns the default-scale
    # codebook's symbols, bit for bit; p_av and R are exactly 2^(-2e) and
    # 2^(-4e) of the scaled book's, and scale_back restores them.
    const = QamConstellation.square(16)
    base = generate_codebook(const, 8, 40, 2, seed=5)
    scaled = generate_codebook(QamConstellation.square(16, const.scale * 2.0**k), 8, 40, 2, seed=5)
    assert np.array_equal(scaled.symbols, np.ldexp(base.symbols.real, k) + 1j * np.ldexp(base.symbols.imag, k))
    e, unit = unit_power(scaled)
    assert e == k and unit.symbols.tobytes() == base.symbols.tobytes() and scale_ratio(unit) == 1.0
    assert unit.p_av == base.p_av and scale_back(unit.p_av, 2 * e) == scaled.p_av
    assert scaled.symbols.tobytes() != base.symbols.tobytes()  # the input is left alone


def test_scale_back_is_exact_and_saturates():
    assert scale_back(1.5, 3) == 12.0 and scale_back(1.5, -1) == 0.75
    assert scale_back(1.5, 2000) == np.inf and scale_back(1.5, -2000) == 0.0


def test_default_scale_normalizes_mean_power():
    for order in (4, 16, 64, 256, 65536):
        const = QamConstellation.square(order)
        assert abs(np.mean(np.abs(const.points) ** 2) - 1.0) < 1e-12
        assert len(const.points) == order


def test_points_closed_under_negation():
    const = QamConstellation.square(16)
    negated = set(np.round(-const.points, 12))
    assert negated == set(np.round(const.points, 12))


def test_rejects_non_square_orders():
    for order in (2, 8, 9, 32, 0, -4, 36, 100, 4**9, 2**40):
        for make in (QamConstellation, QamConstellation.square):
            with pytest.raises(ValueError, match=f"^order must be a power of 4 from 4 to 65536, got {order}$"):
                make(order)


def test_rejects_scales_that_are_not_positive():
    for scale in (0.0, -1.0, -np.inf, np.nan):
        for make in (QamConstellation, QamConstellation.square):
            with pytest.raises(ValueError, match="^scale must be positive$"):
                make(16, scale)


def test_rejects_scales_whose_outer_level_overflows():
    # 16-QAM's outer level is 3 * scale: inf and 1e308 are refused before
    # any level is formed (a RuntimeWarning is an error here), 1e307 builds.
    for scale in (np.inf, 1e308):
        for make in (QamConstellation, QamConstellation.square):
            with pytest.raises(ValueError, match="out of float range$"):
                make(16, scale)
    assert np.all(np.isfinite(QamConstellation(16, 1e307).points))


@pytest.mark.parametrize("order", sorted(QAM_ORDERS))
def test_constellation_is_derived_from_order_and_scale(order):
    # The constructor takes the order and the scale (None: the default) and
    # derives the rest: index (gray(a) << b) | gray(c) is the point at level
    # positions a (in-phase) and c (quadrature), b = log2(side) bits per axis.
    side = math.isqrt(order)
    for scale in (None, 1e-30, 1e30):
        const = QamConstellation(order, scale)
        same = QamConstellation.square(order, scale)
        assert const.points.tobytes() == same.points.tobytes() and const == same
        assert (const.side, const.bits_per_symbol) == (same.side, same.bits_per_symbol)
        assert (const.side, const.bits_per_symbol) == (side, order.bit_length() - 1)
        d = default_qam_scale(order) if scale is None else scale
        levels = d * (2.0 * np.arange(side) - side + 1)
        a, c = np.divmod(np.arange(order), side)
        expected = np.empty(order, dtype=np.complex128)
        expected[((a ^ a >> 1) << (side.bit_length() - 1)) | (c ^ c >> 1)] = levels[a] + 1j * levels[c]
        assert const.scale == d and const.points.tobytes() == expected.tobytes()
        assert not const.points.flags.writeable


def test_constellation_equality_and_hash_follow_order_and_scale():
    default = QamConstellation(16)
    assert default == QamConstellation.square(16) == QamConstellation(16, default_qam_scale(16))
    assert hash(default) == hash(QamConstellation.square(16, None))
    assert len({default, QamConstellation(16), QamConstellation(16, 1.0), QamConstellation(64)}) == 3
    assert default != QamConstellation(16, 1.0) and default != QamConstellation(64)
    for derived in ("points", "side", "bits_per_symbol"):
        with pytest.raises(TypeError):
            QamConstellation(16, **{derived: default.__dict__[derived]})


def test_gray_neighbours_differ_in_one_bit():
    # A symbol index is the point's bits, so neighbours' indices differ in one bit.
    const = QamConstellation.square(16)
    for i in range(16):
        for j in range(16):
            dist = abs(const.points[i] - const.points[j])
            if abs(dist - 2 * const.scale) < 1e-12:  # grid neighbours
                assert bin(i ^ j).count("1") == 1


def test_bit_roundtrip_and_demap_oracle():
    # The indices are the bits_per_symbol-bit words: each names one point,
    # and demapping that point gives the word back.
    const = QamConstellation.square(64)
    assert const.bits_per_symbol == 6 and len(set(np.round(const.points, 12))) == 64
    assert np.array_equal(const.demap(const.points), np.arange(64))
    rng = np.random.default_rng(0)
    idx = rng.integers(0, 64, 500)
    noisy = const.points[idx] + 0.3 * const.scale * (
        rng.standard_normal(500) + 1j * rng.standard_normal(500)
    )
    # exhaustive nearest-point oracle
    brute = np.abs(noisy[:, None] - const.points[None, :]).argmin(axis=1)
    assert np.array_equal(const.demap(noisy), brute)


def test_generate_codebook_partition_shapes():
    const = QamConstellation.square(16)
    book = generate_codebook(const, 128, 2000, 5, seed=7)
    assert book.size == 2000 and book.k_carriers == 128
    assert book.subset_sizes == (400,) * 5
    tiny = generate_codebook(const, 2, 4, 4, seed=7)
    assert tiny.subset_sizes == (1, 1, 1, 1)


def test_generate_codebook_errors():
    const = QamConstellation.square(16)
    with pytest.raises(ValueError, match="not divisible"):
        generate_codebook(const, 8, 10, 3, seed=0)
    with pytest.raises(ValueError, match="at least 2"):
        generate_codebook(const, 1, 10, 2, seed=0)
    # Empty books are refused by their shape, before p_av averages nothing.
    with pytest.raises(ValueError, match="at least 2"):
        generate_codebook(const, 0, 10, 2, seed=0)
    with pytest.raises(ValueError, match="non-empty"):
        Codebook.from_symbols(np.empty((0, 4)), 1)


def test_generate_codebook_deterministic():
    const = QamConstellation.square(16)
    a = generate_codebook(const, 16, 64, 4, seed=123)
    b = generate_codebook(const, 16, 64, 4, seed=123)
    c = generate_codebook(const, 16, 64, 4, seed=124)
    assert np.array_equal(a.symbols, b.symbols)
    assert not np.array_equal(a.symbols, c.symbols)


def test_symbol_power_monte_carlo():
    const = QamConstellation.square(16)
    book = generate_codebook(const, 100, 1000, 4, seed=3)  # 1e5 symbols
    power = np.abs(book.symbols.ravel()) ** 2
    se = power.std() / np.sqrt(power.size)
    assert abs(power.mean() - 1.0) <= 3 * se


def test_subset_gram_hand_cases():
    ortho = Codebook.from_symbols(np.array([[1.0, 0.0], [0.0, 1.0]]), 1)
    np.testing.assert_allclose(subset_gram(ortho, 0), np.eye(2) / 2, atol=1e-15)
    ones = Codebook.from_symbols(np.array([[1.0, 1.0], [1.0, 1.0]]), 2)
    np.testing.assert_allclose(subset_gram(ones, 1), np.ones((2, 2)), atol=1e-15)
    with pytest.raises(ValueError):
        subset_gram(ones, 2)


def test_subset_gram_is_psd_with_matching_trace():
    const = QamConstellation.square(16)
    book = generate_codebook(const, 8, 200, 4, seed=11)
    rng = np.random.default_rng(5)
    for n in range(book.n_subsets):
        g = subset_gram(book, n)
        np.testing.assert_allclose(g, g.conj().T, atol=1e-12)
        probes = rng.standard_normal((100, 8)) + 1j * rng.standard_normal((100, 8))
        quad = np.einsum("pi,ij,pj->p", probes.conj(), g, probes).real
        assert np.all(quad >= -1e-10)
        block = book.subset(n)
        mean_sq = float((np.abs(block) ** 2).sum(axis=1).mean())
        assert abs(np.trace(g).real - mean_sq) < 1e-10


def test_subset_gram_concentrates_like_inverse_sqrt():
    const = QamConstellation.square(16)
    devs = {}
    for count in (625, 10_000):
        book = generate_codebook(const, 8, count, 1, seed=21)
        devs[count] = np.linalg.norm(subset_gram(book, 0) - np.eye(8))
    # 16x more samples should shrink the deviation roughly 4x
    assert devs[10_000] < 0.5 * devs[625]


def test_codebook_validation():
    sym = np.ones((4, 4), dtype=complex)
    assert Codebook(symbols=sym, subset_sizes=(2, 2)).p_av == 4.0
    with pytest.raises(ValueError):
        Codebook(symbols=sym, subset_sizes=(2, 3))
    with pytest.raises(TypeError):  # p_av is derived; the metadata is keyword-only
        Codebook(sym, (2, 2), 4.0)
    for value in (np.nan, np.inf, 1e300):  # 1e300 squared overflows
        bad = sym.copy()
        bad[0, 0] = value
        with pytest.raises(ValueError, match="p_av"):
            Codebook(symbols=bad, subset_sizes=(2, 2))
    with pytest.raises(ValueError, match="p_av"):
        Codebook(symbols=np.zeros((4, 4)), subset_sizes=(2, 2))


@pytest.mark.parametrize("scale", [1e-20, None])
def test_load_codebook_checks_header_p_av_relative(tmp_path, scale):
    # The header's p_av must match the codewords' to 1e-12 relative, at
    # any scale: 1e-13 off loads, 1e-11 off is refused naming the field.
    book = generate_codebook(QamConstellation.square(16, scale), 8, 40, 2, seed=4)
    path = tmp_path / "book.bin"
    save_codebook(book, path)
    header, payload = path.read_bytes().split(b"\n", 1)
    for factor, loads in ((1 + 1e-13, True), (1 + 1e-11, False)):
        fields = json.loads(header)
        fields["p_av"] *= factor
        path.write_bytes(json.dumps(fields, sort_keys=True).encode() + b"\n" + payload)
        if loads:
            assert load_codebook(path).p_av == book.p_av
        else:
            with pytest.raises(ValueError, match="^" + re.escape(f"{path}: header field 'p_av' must be ")):
                load_codebook(path)


def test_codebook_file_roundtrip(tmp_path):
    const = QamConstellation.square(16)
    book = generate_codebook(const, 16, 40, 4, seed=9)
    path = tmp_path / "book.bin"
    save_codebook(book, path)
    again = load_codebook(path)
    assert np.array_equal(book.symbols, again.symbols)
    assert again.subset_sizes == book.subset_sizes
    assert again.qam_order == 16 and again.seed == 9

    save_codebook(again, tmp_path / "book2.bin")
    assert (tmp_path / "book.bin").read_bytes() == (tmp_path / "book2.bin").read_bytes()

    # Signed zeros survive the round trip, bit for bit.
    symbols = book.symbols.copy()
    symbols[0, :3] = [complex(-0.0, 1.0), complex(1.0, -0.0), complex(-0.0, -0.0)]
    signed = Codebook.from_symbols(symbols, 4)
    save_codebook(signed, path)
    again = load_codebook(path)
    assert again.symbols.tobytes() == symbols.tobytes()
    assert again.symbols.flags.writeable


def test_codebook_file_corruption_detected(tmp_path):
    const = QamConstellation.square(16)
    book = generate_codebook(const, 8, 8, 2, seed=1)
    path = tmp_path / "book.bin"
    save_codebook(book, path)
    raw = bytearray(path.read_bytes())
    path.write_bytes(bytes(raw[:-8]))  # truncate payload
    with pytest.raises(ValueError):
        load_codebook(path)
    (tmp_path / "junk.bin").write_bytes(b"\x00\x01binary junk")
    with pytest.raises(ValueError):
        load_codebook(tmp_path / "junk.bin")
