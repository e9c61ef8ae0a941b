import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from kpoint_oracle import KPointPair
from scipy.optimize import minimize_scalar

from paprbound.bounds import (
    BoundReport,
    bound_report,
    chernoff_objective,
    codebook_endpoints,
    gaussian_ccdf_bound,
    gaussian_quartic_moment,
    hoeffding_ccdf_bound,
    markov_ccdf_bound,
    optimal_chernoff_s,
    qam_endpoints,
    r_statistic,
    real_embedding,
)
from paprbound.core import Codebook, QamConstellation, generate_codebook, subset_gram, transformed_subsets
from paprbound.optimizer import UnitarySet, random_unitary
from paprbound.spectral import build_basis
from paprbound.waveform import (
    baseband_samples,
    db_to_linear,
    default_gamma_grid_db,
    empirical_ccdf,
    peak_envelope_power,
    pmepr,
    quartic_sum,
)


def random_psd(k, rng):
    a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return a @ a.conj().T


def whitened_codebook(k, n_subsets, rng):
    """Subsets whose second-moment matrices are exactly the identity."""
    blocks = [np.sqrt(k) * random_unitary(k, rng) for _ in range(n_subsets)]
    return Codebook.from_symbols(np.vstack(blocks), n_subsets)


def test_r_statistic_hand_case():
    book = Codebook.from_symbols(np.array([[1.0, 1.0]]), 1)
    assert abs(r_statistic(book) - 18.0) < 1e-12


def test_r_statistic_identity_and_phase_invariance():
    const = QamConstellation.square(16)
    book = generate_codebook(const, 8, 64, 4, seed=0)
    plain = r_statistic(book)
    ident = r_statistic(book, UnitarySet.identity(4, 8))
    assert ident == plain
    # An exact identity set yields each subset as drawn, the bytes of block @ I.T.
    eye = np.eye(8)
    for block, drawn in zip(transformed_subsets(book, UnitarySet.identity(4, 8)), book.subsets()):
        assert block.tobytes() == (drawn @ eye.T).tobytes()
    rng = np.random.default_rng(1)
    ws = UnitarySet.random(4, 8, rng)
    rotated = UnitarySet(matrices=np.exp(0.37j) * ws.matrices)
    r_w = r_statistic(book, ws)
    r_rot = r_statistic(book, rotated)
    assert abs(r_w - r_rot) < 1e-10 * r_w
    # A set of the wrong shape, in any accepted form, raises the one pairing message.
    for wrong in (UnitarySet.identity(3, 8), ws.matrices[:3], list(ws.matrices[:3]), UnitarySet.identity(4, 4)):
        with pytest.raises(ValueError, match=r"^unitary set does not match the codebook: shape \("):
            r_statistic(book, wrong)
    # Every accepted form of the transforms gives the same bits ...
    assert r_statistic(book, ws.matrices) == r_w
    assert r_statistic(book, list(ws.matrices)) == r_w
    # ... and so does the per-subset formula, quartic_sum with W_n.
    total = 0.0
    for n, block in enumerate(book.subsets()):
        total += quartic_sum(block @ ws.matrices[n].T).sum()
    assert 8 * 15 / (2.0 * book.size) * total == r_w


def test_markov_bound_shape():
    grid = np.array([1.0, 2.0, 4.0, 1e6])
    vals = markov_ccdf_bound(10.0, 2.0, grid)
    assert abs(vals[1] - vals[0] / 4) < 1e-15
    assert vals[-1] == pytest.approx(vals[0] * 1e-12)  # 1/gamma^2 decay
    with pytest.raises(ValueError):
        markov_ccdf_bound(10.0, 0.0, grid)


def test_markov_dominates_empirical_ccdf():
    const = QamConstellation.square(16)
    book = generate_codebook(const, 16, 1000, 4, seed=2)
    grid = db_to_linear(default_gamma_grid_db())
    curve = empirical_ccdf(book, grid, oversampling=16)
    bound = markov_ccdf_bound(r_statistic(book), book.p_av, grid)
    assert np.all(curve.ccdf <= bound + 1e-12)


def test_hoeffding_validity_and_decay():
    grid = np.array([1.0, 2.0, 5.0, 20.0])
    values, valid = hoeffding_ccdf_bound(r_value=4.0, a=0.0, b=10.0, p_av=1.0, gamma_grid=grid)
    # p_av^2 gamma^2 = R exactly at gamma = 2 -> boundary is invalid
    assert not valid[0] and not valid[1] and valid[2] and valid[3]
    assert np.isnan(values[0]) and values[3] < values[2]
    markov = markov_ccdf_bound(4.0, 1.0, grid)
    assert values[3] < markov[3]  # exponential tail beats 1/gamma^2
    with pytest.raises(ValueError):
        hoeffding_ccdf_bound(4.0, a=3.0, b=3.0, p_av=1.0, gamma_grid=grid)


def test_chernoff_closed_form_matches_numerical_minimum():
    rng = np.random.default_rng(3)
    for _ in range(10):
        r = rng.uniform(1.0, 50.0)
        a = rng.uniform(0.0, 2.0)
        b = a + rng.uniform(1.0, 20.0)
        p_av = rng.uniform(0.5, 4.0)
        gamma = np.sqrt(r) / p_av * rng.uniform(1.05, 3.0)
        res = minimize_scalar(
            lambda s: chernoff_objective(s, r, a, b, p_av, gamma),
            bounds=(0.0, 1e3 * optimal_chernoff_s(r, a, b, p_av, gamma)),
            method="bounded",
            options={"xatol": 1e-12},
        )
        s_star = optimal_chernoff_s(r, a, b, p_av, gamma)
        closed, valid = hoeffding_ccdf_bound(r, a, b, p_av, np.array([gamma]))
        assert valid[0]
        assert abs(res.x - s_star) <= 1e-6 * max(1.0, s_star)
        assert abs(np.exp(res.fun) - closed[0]) <= 1e-8 * max(1.0, closed[0])


def test_hoeffding_bound_invariant_under_symbol_scale():
    # PMEPR is scale free, so a bound on its CCDF must be too: the
    # exponent (excess / (b^2 - a^2))^2 is dimensionless only with the
    # squared support width of Z = max_t |s(t)|^4 in [a^2, b^2].
    basis = build_basis(8)
    grid = db_to_linear(default_gamma_grid_db(6, 12, 0.5))
    unit = QamConstellation.square(16).scale
    small, large = (
        bound_report(
            generate_codebook(QamConstellation.square(16, scale=scale), 8, 64, 4, seed=9),
            basis,
            grid,
        )
        for scale in (unit, 2.0 * unit)
    )
    assert large.b == pytest.approx(4.0 * small.b, rel=1e-12)
    np.testing.assert_array_equal(small.hoeffding_valid, large.hoeffding_valid)
    valid = small.hoeffding_valid
    np.testing.assert_allclose(large.hoeffding[valid], small.hoeffding[valid], rtol=1e-12, atol=0)
    assert valid.sum() >= 3 and np.all(small.hoeffding[valid] > 1e-3)  # not vacuous


def test_qam_endpoints_values_and_cap():
    const16 = QamConstellation.square(16, scale=1.0)
    a, b = qam_endpoints(const16, 2)
    assert a == 0.0 and abs(b - 72.0) < 1e-12
    const4 = QamConstellation.square(4, scale=1.0)
    _, b4 = qam_endpoints(const4, 1)
    assert abs(b4 - 2.0) < 1e-12

    # exhaustive K=2 book over 4-QAM: dense-grid peak never exceeds b
    const = QamConstellation.square(4)
    pairs = np.array([[x, y] for x in const.points for y in const.points])
    peaks = (np.abs(baseband_samples(pairs, 64)) ** 2).max(axis=1)
    _, cap = qam_endpoints(const, 2)
    assert np.all(peaks <= cap * (1 + 1e-12))


def test_codebook_endpoints_sandwich():
    const = QamConstellation.square(16)
    book = generate_codebook(const, 8, 100, 4, seed=4)
    a, b = codebook_endpoints(book)
    peaks = book.p_av * pmepr(book.symbols, book.p_av, 16)
    assert np.all(peaks >= a * (1 - 1e-12))
    assert np.all(peaks <= b * (1 + 1e-12))


def test_gaussian_bound_closed_forms():
    k = 6
    basis = build_basis(k)
    grid = np.array([2.0, 4.0, 8.0])
    ident = gaussian_ccdf_bound(np.eye(k), basis, grid)
    np.testing.assert_allclose(ident, 3.0 * (2 * k - 1) / grid**2, rtol=1e-12)
    scaled = gaussian_ccdf_bound(2.0 * np.eye(k), basis, grid)
    np.testing.assert_allclose(scaled, ident, rtol=1e-12)
    with pytest.raises(ValueError):
        gaussian_ccdf_bound(-np.eye(k), basis, grid)


def test_gaussian_psd_checks_scale_with_the_matrix():
    # The PSD checks compare the smallest eigenvalue with the largest
    # |eigenvalue|.  A rank-3 covariance scaled by 1e12, whose roundoff
    # leaves a smallest eigenvalue near -2e-3, is PSD; -1e-12 I is not.
    k = 8
    basis = build_basis(k)
    grid = np.array([2.0, 10.0])
    rng = np.random.default_rng(0)
    a = rng.standard_normal((k, 3)) + 1j * rng.standard_normal((k, 3))
    low_rank = a @ a.conj().T
    np.testing.assert_allclose(gaussian_ccdf_bound(1e12 * low_rank, basis, grid),
                               gaussian_ccdf_bound(low_rank, basis, grid), rtol=1e-9)
    np.testing.assert_allclose(gaussian_quartic_moment(np.eye(k), 1e12 * low_rank),
                               1e24 * np.array(gaussian_quartic_moment(np.eye(k), low_rank)), rtol=1e-9)
    negative = -1e-12 * np.eye(k)
    with pytest.raises(ValueError, match="covariance not PSD"):
        gaussian_ccdf_bound(negative, basis, grid)
    with pytest.raises(ValueError, match="cov not PSD"):
        gaussian_quartic_moment(np.eye(k), negative)


def test_gaussian_checks_need_a_hermitian_matrix():
    # eigvalsh reads one triangle: with cov[0, 1] = 5 the identity's
    # bound came back, and with cov[1, 0] = 5 a matrix whose eigenvalues
    # are all 1 was called "not PSD".  Either way it is not Hermitian.
    k = 4
    for entry in ((0, 1), (1, 0)):
        cov = np.eye(k)
        cov[entry] = 5.0
        with pytest.raises(ValueError, match="^covariance not Hermitian: max"):
            gaussian_ccdf_bound(cov, build_basis(k), np.array([2.0, 10.0]))
        with pytest.raises(ValueError, match="^g not Hermitian: max"):
            gaussian_quartic_moment(cov, np.eye(k))
        with pytest.raises(ValueError, match="^cov not Hermitian: max"):
            gaussian_quartic_moment(np.eye(k), cov)
    # A non-finite matrix still reaches eigvalsh, which refuses it,
    # with no RuntimeWarning from the Hermitian check on the way.
    cov = np.eye(k)
    cov[2, 2] = np.inf
    with pytest.raises(np.linalg.LinAlgError):
        gaussian_ccdf_bound(cov, build_basis(k), np.array([2.0, 10.0]))
    # subset_gram's output, and a Hermitian matrix with one triangle
    # moved by a few ulps, are Hermitian to rounding, and pass.
    k = 16
    book = generate_codebook(QamConstellation.square(16), k, 400, 2, seed=9)
    basis = build_basis(k)
    grid = np.array([2.0, 10.0])
    cov = random_psd(k, np.random.default_rng(10))
    rounded = cov + np.triu(cov, 1) * 4e-16
    np.testing.assert_allclose(gaussian_ccdf_bound(rounded, basis, grid),
                               gaussian_ccdf_bound(cov, basis, grid), rtol=1e-12)
    for n in range(book.n_subsets):
        gram = subset_gram(book, n)
        assert np.all(np.isfinite(gaussian_ccdf_bound(gram, basis, grid)))
        exact, bound = gaussian_quartic_moment(gram, rounded)
        assert exact <= bound


def test_gaussian_bound_refuses_a_zero_covariance():
    # A zero covariance is PSD but has P_av = Tr(cov) = 0, so the bound
    # would divide by zero (a RuntimeWarning the suite makes an error).
    # The quartic moment of c = 0 is 0, with no division.
    k = 8
    zero = np.zeros((k, k))
    with pytest.raises(ValueError, match="^covariance must have a positive trace, got 0.0$"):
        gaussian_ccdf_bound(zero, build_basis(k), np.array([2.0, 10.0]))
    assert gaussian_quartic_moment(zero, zero) == (0.0, 0.0)


@pytest.mark.parametrize("k", [8, 64, 128])
def test_gaussian_bound_matches_einsum_oracle(k):
    # The oracle takes the traces Tr(C_k cov), Tr(C_hat_k cov) as
    # three-operand einsums over the K-point pair.
    rng = np.random.default_rng(50 + k)
    cov = random_psd(k, rng)
    basis = build_basis(k)
    grid = np.array([2.0, 4.0, 8.0])
    np.testing.assert_allclose(
        gaussian_ccdf_bound(cov, basis, grid), KPointPair(k).gaussian_bound(cov, grid), rtol=1e-12
    )


def test_gaussian_bound_dominates_monte_carlo():
    k = 4
    rng = np.random.default_rng(5)
    cov = random_psd(k, rng)
    basis = build_basis(k)
    grid = db_to_linear(default_gamma_grid_db(2, 10, 0.5))
    bound = gaussian_ccdf_bound(cov, basis, grid)
    chol = np.linalg.cholesky(cov)
    draws = (rng.standard_normal((100_000, k)) + 1j * rng.standard_normal((100_000, k))) / np.sqrt(2)
    samples = draws @ chol.T
    values = pmepr(samples, float(np.trace(cov).real), 16)
    emp = (values[:, None] > grid[None, :]).mean(axis=0)
    se = np.sqrt(emp * (1 - emp) / values.size)
    assert np.all(emp <= bound + 3 * se + 1e-12)


def test_real_embedding_trace_identity():
    rng = np.random.default_rng(6)
    for _ in range(25):
        x = random_psd(5, rng)
        y = random_psd(5, rng)
        lhs = np.trace(real_embedding(x) @ real_embedding(y))
        rhs = 2.0 * np.trace(x @ y).real
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_quartic_moment_scalar_case():
    exact, bound = gaussian_quartic_moment(np.eye(1), np.eye(1))
    assert abs(exact - 2.0) < 1e-14
    assert abs(bound - 3.0) < 1e-14


def test_quartic_moment_matches_monte_carlo():
    rng = np.random.default_rng(7)
    k = 3
    g = random_psd(k, rng)
    cov = random_psd(k, rng)
    exact, bound = gaussian_quartic_moment(g, cov)
    assert exact <= bound * (1 + 1e-12)
    chol = np.linalg.cholesky(cov)
    n = 200_000
    draws = (rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))) / np.sqrt(2)
    c = draws @ chol.T
    q = np.einsum("ni,ij,nj->n", c.conj(), g, c).real ** 2
    se = q.std() / np.sqrt(n)
    assert abs(q.mean() - exact) <= 3 * se
    with pytest.raises(ValueError):
        gaussian_quartic_moment(g, -cov)


@pytest.mark.parametrize("k", [4, 8])
def test_jensen_floor_with_white_subsets(k):
    rng = np.random.default_rng(8 + k)
    book = whitened_codebook(k, 3, rng)
    floor = k * k * (2 * k - 1)
    for _ in range(20):
        ws = UnitarySet.random(3, k, rng)
        assert r_statistic(book, ws) >= floor - 1e-6


@given(
    k=st.sampled_from([2, 3, 8, 16, 64]),
    transform=st.booleans(),
    gaussian=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_per_codeword_chain(k, transform, gaussian, seed):
    # The chain behind every bound here, codeword by codeword:
    # peak^2 <= K (2K - 1) / 2 * quartic_sum(W c).  The sampled peak at
    # J = 32 lies below the continuous one, so it obeys the bound too.
    rng = np.random.default_rng(seed)
    if gaussian:
        rows = rng.standard_normal((20, k)) + 1j * rng.standard_normal((20, k))
    else:
        rows = QamConstellation.square(16).points[rng.integers(0, 16, (20, k))]
    rows[0] = 1.0  # the constant codeword: its peak K^2 lies on every grid
    w = random_unitary(k, rng) if transform else np.eye(k)
    peak = peak_envelope_power(rows @ w.T, 32)
    quartic = quartic_sum(rows @ w.T)
    assert np.all(peak**2 <= k * (2 * k - 1) / 2 * quartic * (1 + 1e-12))


def test_bound_report_csv(tmp_path):
    const = QamConstellation.square(16)
    book = generate_codebook(const, 8, 64, 4, seed=9)
    basis = build_basis(8)
    grid = db_to_linear(default_gamma_grid_db(6, 12, 0.5))
    report = bound_report(book, basis, grid)
    with pytest.raises(ValueError, match="does not match basis K=16"):
        bound_report(book, build_basis(16), grid)
    path = tmp_path / "bounds.csv"
    report.write_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "gamma_db,markov,hoeffding,hoeffding_valid"
    sidecar = (tmp_path / "bounds.json").read_text()
    for key in ('"R"', '"a"', '"b"', '"p_av"', '"K"', '"N"'):
        assert key in sidecar
    # validity flag consistent with the threshold
    threshold = np.sqrt(report.r_value) / book.p_av
    np.testing.assert_array_equal(report.hoeffding_valid, report.gamma > threshold)
    # The exact text: csv rows ending in \r\n, 17-digit floats, true/false
    # flags, and an invalid Hoeffding point written as nan whatever the
    # array holds there; the sidecar is sorted two-space JSON.
    report = BoundReport(
        gamma=np.array([1.0, 10.0, 100.0]), markov=np.array([2.5, 0.025, 0.00025]),
        hoeffding=np.array([0.75, 0.5, 1e-300]), hoeffding_valid=np.array([False, True, True]),
        r_value=2.5, a=0.5, b=12.0, p_av=1.0, k_carriers=8, n_subsets=4,
    )
    report.write_csv(path)
    assert path.read_bytes() == (
        b"gamma_db,markov,hoeffding,hoeffding_valid\r\n"
        b"0,2.5,nan,false\r\n"
        b"10,0.025000000000000001,0.5,true\r\n"
        b"20,0.00025000000000000001,1e-300,true\r\n"
    )
    assert (tmp_path / "bounds.json").read_bytes() == (
        b'{\n  "K": 8,\n  "N": 4,\n  "R": 2.5,\n  "a": 0.5,\n  "b": 12.0,\n  "p_av": 1.0\n}\n'
    )
