import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from paprbound.core import QamConstellation, generate_codebook
from paprbound.optimizer import UnitarySet
from paprbound.waveform import (
    _CHUNK_SAMPLES,
    CcdfCurve,
    baseband_samples,
    codebook_pmeprs,
    db_to_linear,
    default_gamma_grid_db,
    empirical_ccdf,
    linear_to_db,
    peak_envelope_power,
    pmepr,
)


def direct_synthesis(c, oversampling):
    k = len(c)
    t = np.arange(k * oversampling) / (k * oversampling)
    carriers = np.exp(2j * np.pi * np.outer(t, np.arange(k)))
    return carriers @ c


def reference_baseband_samples(c, oversampling):
    """The unchunked form: zero-pad the whole batch, ifft, scale by J*K."""
    x = np.asarray(c, dtype=np.complex128)
    k = x.shape[-1]
    n = k * oversampling
    padded = np.zeros(x.shape[:-1] + (n,), dtype=np.complex128)
    padded[..., :k] = x
    return np.fft.ifft(padded, axis=-1) * n


def reference_peak_envelope_power(c, oversampling):
    return (np.abs(reference_baseband_samples(c, oversampling)) ** 2).max(-1)


def test_baseband_hand_cases():
    dc = np.zeros(8, complex)
    dc[0] = 1.0
    for j in (1, 4):
        np.testing.assert_allclose(baseband_samples(dc, j), np.ones(8 * j), atol=1e-12)
    np.testing.assert_allclose(
        baseband_samples(np.array([1.0, 1.0]), 1), [2.0, 0.0], atol=1e-12
    )
    with pytest.raises(ValueError):
        baseband_samples(dc, 0)


def test_baseband_matches_direct_sum():
    rng = np.random.default_rng(1)
    c = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    np.testing.assert_allclose(
        baseband_samples(c, 16), direct_synthesis(c, 16), atol=1e-10
    )


def test_pmepr_hand_cases():
    k = 8
    ones = np.ones(k)
    assert abs(pmepr(ones, p_av=float(k)) - k) < 1e-12
    delta = np.zeros(k, complex)
    delta[0] = 1.0
    assert abs(pmepr(delta, p_av=1.0) - 1.0) < 1e-12
    with pytest.raises(ValueError):
        pmepr(ones, p_av=0.0)


def test_pmepr_oversampling_convergence():
    const = QamConstellation.square(16)
    book = generate_codebook(const, 128, 4, 1, seed=2)
    p16 = pmepr(book.symbols, book.p_av, 16)
    p64 = pmepr(book.symbols, book.p_av, 64)
    assert np.all(np.abs(linear_to_db(p16) - linear_to_db(p64)) <= 0.2)


def test_pmepr_phase_invariant_and_monotone_in_j():
    rng = np.random.default_rng(3)
    c = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    base = pmepr(c, 16.0)
    assert abs(pmepr(c * np.exp(0.7j), 16.0) - base) < 1e-12
    peaks = [pmepr(c, 16.0, j) for j in (1, 2, 4, 8, 16)]
    assert np.all(np.diff(peaks) >= -1e-12)


def test_norm_sandwich_on_oversampled_grid():
    const = QamConstellation.square(16)
    book = generate_codebook(const, 16, 200, 4, seed=4)
    peaks = book.p_av * codebook_pmeprs(book, oversampling=16)
    l2 = (np.abs(book.symbols) ** 2).sum(axis=1)
    l1sq = np.abs(book.symbols).sum(axis=1) ** 2
    assert np.all(l2 <= peaks * (1 + 1e-12))
    assert np.all(peaks <= l1sq * (1 + 1e-12))
    assert np.all(l1sq <= book.k_carriers * l2 * (1 + 1e-12))


def test_empirical_ccdf_edges():
    const = QamConstellation.square(4)  # constant-modulus points
    book = generate_codebook(const, 8, 64, 4, seed=5)
    grid = np.array([0.0, 1.0, float(book.k_carriers), 2.0 * book.k_carriers])
    curve = empirical_ccdf(book, grid, oversampling=16)
    assert curve.ccdf[0] == 1.0  # PMEPR is positive
    assert curve.ccdf[-1] == 0.0  # above the K * ||c||^2 cap
    assert curve.sample_count == 64


def test_identity_unitaries_are_a_noop():
    const = QamConstellation.square(16)
    book = generate_codebook(const, 8, 64, 4, seed=6)
    grid = db_to_linear(default_gamma_grid_db(3, 10, 0.5))
    plain = empirical_ccdf(book, grid)
    ident = empirical_ccdf(book, grid, UnitarySet.identity(4, 8))
    np.testing.assert_array_equal(plain.ccdf, ident.ccdf)


def test_unitary_count_mismatch():
    const = QamConstellation.square(16)
    book = generate_codebook(const, 8, 64, 4, seed=6)
    ws = UnitarySet.random(4, 8, np.random.default_rng(2))
    # A set of the wrong shape, in any accepted form, raises the one pairing message.
    for wrong in (UnitarySet.identity(3, 8), ws.matrices[:3], list(ws.matrices[:3]), UnitarySet.identity(4, 4)):
        with pytest.raises(ValueError, match=r"^unitary set does not match the codebook: shape \("):
            codebook_pmeprs(book, wrong)
    # A UnitarySet, the (N, K, K) array and a list of matrices give the
    # same bits as the per-subset formula pmepr(block @ W_n.T).
    oracle = np.concatenate(
        [pmepr(block @ w.T, book.p_av, 8) for block, w in zip(book.subsets(), ws.matrices)]
    )
    for unitaries in (ws, ws.matrices, list(ws.matrices)):
        np.testing.assert_array_equal(codebook_pmeprs(book, unitaries, 8), oracle)
    np.testing.assert_array_equal(codebook_pmeprs(book, None, 8), pmepr(book.symbols, book.p_av, 8))


def test_ccdf_curve_validation_and_csv(tmp_path):
    grid = db_to_linear(default_gamma_grid_db(4, 8, 0.5))
    ccdf = np.linspace(1.0, 0.0, grid.size)
    curve = CcdfCurve(gamma=grid, ccdf=ccdf, sample_count=10)
    path = tmp_path / "curve.csv"
    curve.write_csv(path)
    # 17 significant digits read back exactly.
    table = np.genfromtxt(path, delimiter=",", names=True)
    assert table.dtype.names == ("gamma_db", "gamma_linear", "ccdf", "n_samples")
    np.testing.assert_array_equal(table["gamma_linear"], curve.gamma)
    np.testing.assert_array_equal(table["ccdf"], curve.ccdf)
    assert np.all(table["n_samples"] == 10)
    with pytest.raises(ValueError):
        CcdfCurve(gamma=grid, ccdf=ccdf[::-1], sample_count=10)  # increasing
    with pytest.raises(ValueError):
        CcdfCurve(gamma=grid[::-1], ccdf=ccdf, sample_count=10)
    # A grid that starts at gamma = 0 writes -inf dB there (the suite
    # turns a RuntimeWarning into an error, so this also checks there is none).
    curve = CcdfCurve(gamma=np.array([0.0, 1.0, 10.0]), ccdf=np.array([1.0, 0.5, 0.0]),
                      sample_count=np.int64(4))
    curve.write_csv(path)
    assert path.read_bytes() == (
        b"gamma_db,gamma_linear,ccdf,n_samples\r\n-inf,0,1,4\r\n0,1,0.5,4\r\n10,10,0,4\r\n"
    )


@given(
    k=st.sampled_from([2, 4, 16, 64]),
    oversampling=st.sampled_from([1, 2, 3, 4, 8, 16]),
    gaussian=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_oversampling_sandwich(k, oversampling, gaussian, seed):
    # The J grid is a subset of the 4J grid, so peak_J <= peak_4J up to
    # rounding.  For J >= 2 the sampling bound for a trigonometric
    # polynomial of degree < K on J K points (Sharif, Gharavi-Alkhansari
    # and Khalaj, IEEE Trans. Commun. 51(1), 2003) caps the continuous
    # peak, and so peak_4J, at peak_J / cos^2(pi / 2J).
    rng = np.random.default_rng(seed)
    if gaussian:
        rows = rng.standard_normal((20, k)) + 1j * rng.standard_normal((20, k))
    else:
        rows = QamConstellation.square(16).points[rng.integers(0, 16, (20, k))]
    rows[0] = 1.0  # the constant codeword peaks on every grid, at t = 0
    peak = peak_envelope_power(rows, oversampling)
    finer = peak_envelope_power(rows, 4 * oversampling)
    assert np.all(peak <= finer * (1 + 1e-12))
    if oversampling >= 2:
        assert np.all(finer <= peak / np.cos(np.pi / (2 * oversampling)) ** 2)


def test_default_gamma_grid():
    grid = default_gamma_grid_db()
    assert grid[0] == 4.0 and grid[-1] == 13.0
    assert np.allclose(np.diff(grid), 0.25)


def random_rows(shape, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("k", [12, 100, 128])
@pytest.mark.parametrize("j", [1, 4, 16])
def test_chunked_peak_power_matches_unchunked_oracle(k, j):
    chunk = _CHUNK_SAMPLES // (k * j)
    shapes = [(k,), (2, chunk // 2 + 1, k)]
    shapes += [(rows, k) for rows in (1, chunk - 1, chunk, chunk + 1) if rows > 0]
    for shape in shapes:
        c = random_rows(shape, seed=len(shape) * k + j)
        fast = peak_envelope_power(c, j)
        oracle = reference_peak_envelope_power(c, j)
        assert np.shape(fast) == oracle.shape
        assert np.all(np.abs(fast - oracle) <= 1e-12 * oracle), shape


@given(
    k=st.integers(2, 256),
    oversampling=st.integers(1, 32),
    gaussian=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_upsampled_peak_power_matches_zero_padded_oracle(k, oversampling, gaussian, seed):
    # The J-grid power upsampled from the 2K grid against one complex
    # J K-point transform per codeword, for odd and even K and J.
    rng = np.random.default_rng(seed)
    if gaussian:
        rows = rng.standard_normal((6, k)) + 1j * rng.standard_normal((6, k))
    else:
        rows = QamConstellation.square(16).points[rng.integers(0, 16, (6, k))]
    rows[0] = 0.0  # no power anywhere
    rows[1] = 1.0  # peak K^2 at t = 0
    peak = peak_envelope_power(rows, oversampling)
    oracle = reference_peak_envelope_power(rows, oversampling)
    assert peak[0] == 0.0
    assert abs(peak[1] - k**2) <= 1e-12 * k**2
    assert np.all(np.abs(peak - oracle) <= 1e-12 * oracle)


@pytest.mark.parametrize("k, j", [(16, 1), (128, 16), (12, 3), (100, 4)])
def test_forward_normalized_baseband_matches_scaled_ifft(k, j):
    c = random_rows((5, k), seed=k + j)
    fast = baseband_samples(c, j)
    oracle = reference_baseband_samples(c, j)
    if (k * j) & (k * j - 1) == 0:  # power of two: the 1/n scale is exact
        np.testing.assert_array_equal(fast, oracle)
    np.testing.assert_allclose(fast, oracle, rtol=1e-12, atol=1e-12 * np.abs(oracle).max())


def test_peak_power_rejects_zero_oversampling():
    with pytest.raises(ValueError):
        peak_envelope_power(np.ones(8), 0)
    with pytest.raises(ValueError):
        pmepr(np.ones((3, 8)), 1.0, 0)


def test_peak_power_memory_is_bounded_per_chunk():
    # The unchunked form peaks near 390 MB on this input.
    c = random_rows((4000, 128))
    tracemalloc.start()
    try:
        peak_envelope_power(c, 16)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 32 * 2**20
