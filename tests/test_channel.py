import numpy as np
import pytest
from scipy.special import erfc

from paprbound import channel
from paprbound.channel import (
    BerCurve,
    LinkConfig,
    RappModel,
    _transmit_rows,
    ber_sweep,
    noise_sigma,
    qam_awgn_ber,
    qam_awgn_ser,
    rapp_apply,
    receive,
    transmit,
)
from paprbound.core import Codebook, QamConstellation, generate_codebook, is_identity
from paprbound.optimizer import UnitarySet
from paprbound.waveform import baseband_samples


def q_func(x):
    return 0.5 * erfc(x / np.sqrt(2.0))


def reference_rapp(samples, model):
    """The amplitude form: |x| / r raised to 2p (standard) or p."""
    x = np.asarray(samples, dtype=np.complex128)
    ratio = np.abs(x) / model.clip_level
    p = model.smoothness
    inner = ratio ** (2 * p) if model.variant == "standard" else ratio**p
    return x * (1.0 + inner) ** (-1.0 / (2 * p))


def reference_transmit_rows(rows, w, link, sigma, rng, amplify=rapp_apply):
    """Two separate normal draws combined into a complex noise array."""
    j = link.oversampling
    k = rows.shape[-1]
    s = baseband_samples(rows @ w.T, j)
    if link.amplifier is not None:
        s = amplify(s, link.amplifier)
    if sigma > 0:
        s = s + (sigma / np.sqrt(2.0)) * (
            rng.standard_normal(s.shape) + 1j * rng.standard_normal(s.shape)
        )
    return np.fft.fft(s, axis=-1)[..., :k] / (j * k)


def reference_ber_counts(codebook, constellation, unitaries, link, target_errors,
                         max_symbols, block_codewords):
    """(bits, errors) per grid point from one boolean mask and one demap
    per subset and block, with the reference channel."""
    tx = constellation.demap(codebook.symbols)
    popcount = np.array([bin(x).count("1") for x in range(constellation.order)])
    subset_of = np.repeat(np.arange(codebook.n_subsets), codebook.subset_sizes)
    counts = []
    for point, ebn0 in enumerate(link.ebn0_db):
        sigma = noise_sigma(ebn0, codebook.p_av, codebook.k_carriers,
                            constellation.bits_per_symbol, link.oversampling)
        n_bits = n_errors = block = 0
        while n_errors < target_errors and n_bits < max_symbols * constellation.bits_per_symbol:
            rng = np.random.default_rng([link.seed, point, block])
            rows = rng.integers(0, codebook.size, size=block_codewords)
            for n in range(codebook.n_subsets):
                chosen = rows[subset_of[rows] == n]
                if chosen.size == 0:
                    continue
                y = reference_transmit_rows(codebook.symbols[chosen], unitaries.matrices[n],
                                            link, sigma, rng, amplify=reference_rapp)
                rx = constellation.demap(y @ unitaries.matrices[n].conj())
                n_errors += int(popcount[tx[chosen] ^ rx].sum())
                n_bits += chosen.size * codebook.k_carriers * constellation.bits_per_symbol
            block += 1
        counts.append((n_bits, n_errors))
    return counts


def test_rapp_model_validation():
    with pytest.raises(ValueError):
        RappModel(smoothness=0.0)
    with pytest.raises(ValueError):
        RappModel(clip_level=-1.0)
    with pytest.raises(ValueError):
        RappModel(variant="soft")
    model = RappModel.from_backoff(p_av=16.0, backoff_db=2.0)
    assert model.clip_level == pytest.approx(4.0 * 10 ** 0.1)


def test_rapp_amplitude_curve():
    model = RappModel(smoothness=2.0, clip_level=3.0)
    rho = np.linspace(0.0, 30.0, 4000)
    out = np.abs(rapp_apply(rho.astype(complex), model))
    assert out[0] == 0.0
    assert np.all(out <= np.minimum(rho, model.clip_level) + 1e-12)
    assert np.all(np.diff(out) > 0)  # strictly increasing
    at_clip = np.abs(rapp_apply(np.array([3.0 + 0j]), model))[0]
    assert at_clip == pytest.approx(3.0 * 2**-0.25)
    far = np.abs(rapp_apply(np.array([1e9 + 0j]), model))[0]
    assert far == pytest.approx(model.clip_level, rel=1e-6)


def test_rapp_phase_equivariance():
    model = RappModel(smoothness=2.0, clip_level=1.0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(100) + 1j * rng.standard_normal(100)
    rotated = rapp_apply(x * np.exp(0.3j), model)
    np.testing.assert_allclose(rotated, rapp_apply(x, model) * np.exp(0.3j), atol=1e-12)


def test_rapp_p_inner_variant():
    # agrees with the standard curve at rho = r, then keeps growing
    model = RappModel(smoothness=2.0, clip_level=2.0, variant="p_inner")
    at_clip = np.abs(rapp_apply(np.array([2.0 + 0j]), model))[0]
    assert at_clip == pytest.approx(2.0 * 2**-0.25)
    far = np.abs(rapp_apply(np.array([1e8 + 0j]), model))[0]
    assert far == pytest.approx(np.sqrt(2.0 * 1e8), rel=1e-3)


@pytest.mark.parametrize("variant", ["standard", "p_inner"])
@pytest.mark.parametrize("smoothness", [0.5, 2.0, 3.7])
@pytest.mark.parametrize("clip_level", [0.3, 3.0])
def test_rapp_matches_amplitude_form(variant, smoothness, clip_level):
    rng = np.random.default_rng(17)
    rho = np.concatenate([[1e-9, 1e9], np.logspace(-9, 9, 181)])
    x = rho * np.exp(2j * np.pi * rng.random(rho.size))
    model = RappModel(smoothness=smoothness, clip_level=clip_level, variant=variant)
    expected = reference_rapp(x, model)
    assert np.all(np.abs(rapp_apply(x, model) - expected) <= 1e-12 * np.abs(expected))


@pytest.mark.parametrize(
    "k, j, amplifier, sigma",
    [
        (16, 4, None, 0.3),
        (16, 4, RappModel(smoothness=2.0, clip_level=2.5), 0.3),
        (32, 2, RappModel(smoothness=1.5, clip_level=3.0, variant="p_inner"), 1.7),
        (8, 1, RappModel(smoothness=2.0, clip_level=2.5), 0.0),
    ],
)
def test_transmit_rows_byte_identical_to_two_draw_noise(k, j, amplifier, sigma):
    const = QamConstellation.square(16)
    book = generate_codebook(const, k, 40, 2, seed=k + j)
    w = UnitarySet.random(2, k, np.random.default_rng(5)).matrices[1]
    link = LinkConfig(ebn0_db=(10.0,), oversampling=j, amplifier=amplifier)
    fast = _transmit_rows(book.symbols, w, link, sigma, np.random.default_rng([3, j]))
    oracle = reference_transmit_rows(book.symbols, w, link, sigma, np.random.default_rng([3, j]))
    assert fast.tobytes() == np.ascontiguousarray(oracle).tobytes()
    # w=None sends the rows as they are: the same bytes as the product with I.
    plain = _transmit_rows(book.symbols, None, link, sigma, np.random.default_rng([3, j]))
    oracle = reference_transmit_rows(book.symbols, np.eye(k), link, sigma, np.random.default_rng([3, j]))
    assert plain.tobytes() == np.ascontiguousarray(oracle).tobytes()


@pytest.mark.parametrize("block_codewords", [5, 64])
def test_ber_sweep_counts_match_per_subset_oracle(block_codewords, monkeypatch):
    # Unequal subsets; 5-codeword blocks leave some subsets empty.
    const = QamConstellation.square(16)
    whole = generate_codebook(const, 16, 250, 1, seed=14)
    book = Codebook(symbols=whole.symbols, subset_sizes=(100, 60, 90), p_av=whole.p_av)
    haar = UnitarySet.random(3, 16, np.random.default_rng(15)).matrices
    eye = UnitarySet.identity(3, 16).matrices
    nudged = eye.copy()  # one ulp from I, on and off the diagonal: not the identity
    nudged[1, 2, 2] = np.nextafter(1.0, 2.0)
    nudged[2, 0, 1] = np.nextafter(0.0, 1.0)
    # Per set, whether each subset is sent as W_n = I, without the products.
    sets = {
        "haar": (haar, [False] * 3),
        "identity": (eye, [True] * 3),
        "mixed": (np.concatenate([eye[:1], haar[1:]]), [True, False, False]),
        "nudged": (nudged, [True, False, False]),
    }
    link = LinkConfig(ebn0_db=(6.0, 12.0), oversampling=4, seed=16,
                      amplifier=RappModel.from_backoff(book.p_av, 3.0))
    budget = (60, 20_000, block_codewords)
    sent = []  # the w of every _transmit_rows call
    transmit_rows = channel._transmit_rows

    def spy(rows, w, *rest):
        sent.append(w)
        return transmit_rows(rows, w, *rest)

    monkeypatch.setattr(channel, "_transmit_rows", spy)
    for name, (matrices, skipped) in sets.items():
        assert [is_identity(w) for w in matrices] == skipped, name
        us = UnitarySet(matrices)
        sent.clear()
        curve = ber_sweep(book, const, us, link, *budget)
        expected = reference_ber_counts(book, const, us, link, *budget)
        assert list(zip(curve.n_bits.tolist(), curve.n_errors.tolist())) == expected, name
        assert any(w is None for w in sent) == any(skipped), name
        assert all(w is None or not is_identity(w) for w in sent), name


@pytest.mark.parametrize("argument", ["target_errors", "max_symbols", "block_codewords"])
def test_ber_sweep_rejects_empty_budget(argument):
    # A zero block never adds a bit and a zero budget leaves a BER of 0/0.
    const = QamConstellation.square(16)
    book = generate_codebook(const, 8, 16, 2, seed=1)
    budget = {"target_errors": 10, "max_symbols": 100, "block_codewords": 4, argument: 0}
    with pytest.raises(ValueError, match=argument):
        ber_sweep(book, const, UnitarySet.identity(2, 8), LinkConfig(ebn0_db=(10.0,)), **budget)


def test_noiseless_roundtrip_exact():
    const = QamConstellation.square(16)
    book = generate_codebook(const, 8, 32, 4, seed=1)
    us = UnitarySet.random(4, 8, np.random.default_rng(2))
    link = LinkConfig(ebn0_db=(10.0,), oversampling=4)
    c = book.symbols[3]
    y, side = transmit(c, 1, us, link, noise_sigma=0.0)
    assert side == 1
    np.testing.assert_allclose(y, us.matrices[1] @ c, atol=1e-10)
    bits = receive(y, side, us, const)
    expected = const.indices_to_bits(const.demap(c)).reshape(-1)
    np.testing.assert_array_equal(bits, expected)


def test_wide_open_amplifier_is_transparent():
    const = QamConstellation.square(16)
    book = generate_codebook(const, 8, 8, 2, seed=3)
    us = UnitarySet.identity(2, 8)
    amp = RappModel(smoothness=2.0, clip_level=1e9)
    link = LinkConfig(ebn0_db=(10.0,), oversampling=2, amplifier=amp)
    c = book.symbols[0]
    y, _ = transmit(c, 0, us, link, noise_sigma=0.0)
    np.testing.assert_allclose(y, c, atol=1e-8)


def test_receive_within_decision_radius():
    const = QamConstellation.square(16)
    rng = np.random.default_rng(4)
    us = UnitarySet.random(2, 8, rng)
    c = const.points[rng.integers(0, 16, 8)]
    bump = 0.49 * const.scale * np.exp(2j * np.pi * rng.random(8))
    y = us.matrices[0] @ (c + bump)
    bits = receive(y, 0, us, const)
    np.testing.assert_array_equal(bits, const.indices_to_bits(const.demap(c)).reshape(-1))


def test_receive_matches_exhaustive_demap():
    const = QamConstellation.square(16)
    rng = np.random.default_rng(5)
    us = UnitarySet.identity(1, 8)
    noisy = const.points[rng.integers(0, 16, 8)] + 0.4 * (
        rng.standard_normal(8) + 1j * rng.standard_normal(8)
    )
    bits = receive(noisy, 0, us, const)
    brute = np.abs(noisy[:, None] - const.points[None, :]).argmin(axis=1)
    np.testing.assert_array_equal(bits, const.indices_to_bits(brute).reshape(-1))


def test_symbol_error_rate_matches_analytic():
    const = QamConstellation.square(16)
    k = 16
    book = generate_codebook(const, k, 62_500, 4, seed=6)  # 1e6 symbols
    us = UnitarySet.identity(4, k)
    link = LinkConfig(ebn0_db=(8.0,), oversampling=1)
    sigma = noise_sigma(8.0, book.p_av, k, const.bits_per_symbol, 1)
    rng = np.random.default_rng(7)
    y = _transmit_rows(book.symbols, us.matrices[0], link, sigma, rng)
    decided = const.demap(y)
    truth = const.demap(book.symbols)
    ser = (decided != truth).mean()
    esn0_db = 8.0 + 10 * np.log10(const.bits_per_symbol)
    ref = qam_awgn_ser(16, esn0_db)
    se = np.sqrt(ref * (1 - ref) / decided.size)
    assert abs(ser - ref) <= 3 * se


def test_noise_covariance_preserved_by_receiver():
    k = 8
    rng = np.random.default_rng(8)
    us = UnitarySet.random(1, k, rng)
    sigma = 0.7
    n = 100_000
    noise = (sigma / np.sqrt(2)) * (
        rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    )
    rotated = noise @ us.matrices[0].conj()
    cov = rotated.T.conj() @ rotated / n
    se = sigma**2 / np.sqrt(n)
    assert np.abs(cov.T - sigma**2 * np.eye(k)).max() <= 4 * se


def test_qam_ber_formula_16qam_closed_form():
    g = 10 ** (np.array([0.0, 4.0, 8.0, 12.0]) / 10.0)
    explicit = (
        0.75 * q_func(np.sqrt(0.8 * g))
        + 0.5 * q_func(3 * np.sqrt(0.8 * g))
        - 0.25 * q_func(5 * np.sqrt(0.8 * g))
    )
    np.testing.assert_allclose(qam_awgn_ber(16, [0.0, 4.0, 8.0, 12.0]), explicit, rtol=1e-12)


def test_qam_ber_formula_matches_symbol_monte_carlo():
    const = QamConstellation.square(16)
    rng = np.random.default_rng(9)
    n = 200_000
    idx = rng.integers(0, 16, n)
    ebn0_db = 6.0
    sigma_f = np.sqrt(1.0 / (const.bits_per_symbol * 10 ** (ebn0_db / 10.0)))
    rx = const.points[idx] + (sigma_f / np.sqrt(2)) * (
        rng.standard_normal(n) + 1j * rng.standard_normal(n)
    )
    got = const.demap(rx)
    popcount = np.array([bin(x).count("1") for x in range(16)])
    ber = popcount[idx ^ got].sum() / (n * 4)
    ref = qam_awgn_ber(16, ebn0_db)
    se = np.sqrt(ref * (1 - ref) / (n * 4))
    assert abs(ber - ref) <= 3 * se


def test_ber_sweep_matches_oracle_and_is_reproducible():
    const = QamConstellation.square(16)
    book = generate_codebook(const, 16, 256, 4, seed=10)
    us = UnitarySet.identity(4, 16)
    link = LinkConfig(ebn0_db=(4.0, 10.0), oversampling=1, seed=33)
    curve = ber_sweep(book, const, us, link, target_errors=400)
    again = ber_sweep(book, const, us, link, target_errors=400)
    np.testing.assert_array_equal(curve.ber, again.ber)
    np.testing.assert_array_equal(curve.n_errors, again.n_errors)
    assert curve.ber[1] < curve.ber[0]  # more SNR, fewer errors
    for point, value, nbits in zip(link.ebn0_db, curve.ber, curve.n_bits):
        ref = qam_awgn_ber(16, point)
        se = np.sqrt(ref * (1 - ref) / nbits)
        assert abs(value - ref) <= 3.5 * se
    assert np.all(curve.ci_low <= curve.ber) and np.all(curve.ber <= curve.ci_high)


def test_ber_sweep_saturation_floor():
    const = QamConstellation.square(16)
    book = generate_codebook(const, 16, 128, 4, seed=11)
    us = UnitarySet.identity(4, 16)
    ebn0 = (16.0,)
    clean = ber_sweep(
        book, const, us, LinkConfig(ebn0_db=ebn0, oversampling=1, seed=12),
        target_errors=50, max_symbols=200_000,
    )
    clipped = ber_sweep(
        book, const, us,
        LinkConfig(
            ebn0_db=ebn0, oversampling=1, seed=12,
            amplifier=RappModel.from_backoff(book.p_av, backoff_db=2.0),
        ),
        target_errors=50, max_symbols=200_000,
    )
    assert clipped.ber[0] >= clean.ber[0]


def test_optimized_unitaries_lower_the_clipping_floor():
    # paired run against the same amplifier: lower-peak transforms must
    # not do worse than identity at high SNR, where clipping dominates
    from paprbound.optimizer import OptimizerConfig, run
    from paprbound.spectral import build_basis

    const = QamConstellation.square(16)
    book = generate_codebook(const, 16, 200, 4, seed=99)
    optimized, trace = run(
        book, build_basis(16),
        OptimizerConfig(epsilon=1e-3, max_iters=2000, stop_tol=0.0, seed=1,
                        checkpoint_every=2000),
    )
    assert trace[-1].r_value < trace[0].r_value
    amp = RappModel.from_backoff(book.p_av, backoff_db=2.0)
    link = LinkConfig(ebn0_db=(14.0,), oversampling=1, amplifier=amp, seed=21)
    identity = ber_sweep(book, const, UnitarySet.identity(4, 16), link,
                         target_errors=400, max_symbols=300_000)
    lowered = ber_sweep(book, const, optimized, link,
                        target_errors=400, max_symbols=300_000)
    spread = np.sqrt(identity.ber[0] * (1 - identity.ber[0]) / identity.n_bits[0])
    assert lowered.ber[0] <= identity.ber[0] + 3 * spread


def test_ber_curve_csv(tmp_path):
    curve = BerCurve(
        ebn0_db=np.array([4.0]), ber=np.array([0.01]), n_bits=np.array([1000]),
        n_errors=np.array([10]), ci_low=np.array([0.005]), ci_high=np.array([0.02]),
    )
    path = tmp_path / "ber.csv"
    curve.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "ebn0_db,ber,n_bits,n_errors,ci_low,ci_high"
    assert lines[1].startswith("4,0.01")
    # np.int64 counts are written in decimal, every rate with 17 digits
    curve = BerCurve(
        ebn0_db=np.array([4.0, 8.5]), ber=np.array([0.01, 1 / 3]),
        n_bits=np.array([1000, 3], dtype=np.int64), n_errors=np.array([10, 1], dtype=np.int64),
        ci_low=np.array([0.005, 0.0]), ci_high=np.array([0.02, 1.0]),
    )
    curve.write_csv(path)
    assert path.read_bytes() == (
        b"ebn0_db,ber,n_bits,n_errors,ci_low,ci_high\r\n"
        b"4,0.01,1000,10,0.0050000000000000001,0.02\r\n"
        b"8.5,0.33333333333333331,3,1,0,1\r\n"
    )


def test_link_config_validation():
    with pytest.raises(ValueError):
        LinkConfig(ebn0_db=(np.inf,))
    with pytest.raises(ValueError):
        LinkConfig(ebn0_db=(4.0,), oversampling=0)
