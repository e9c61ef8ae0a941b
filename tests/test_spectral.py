import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from kpoint_oracle import KPointPair, aperiodic_corr, b_matrix
from polar_oracle import delta_w

from paprbound import spectral
from paprbound.bounds import gaussian_ccdf_bound
from paprbound.optimizer import random_unitary
from paprbound.spectral import build_basis, quartic_sum
from paprbound.waveform import baseband_samples


def random_codewords(k, count, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, k)) + 1j * rng.standard_normal((count, k))


def corr_double_loop(c):
    k = len(c)
    return np.array(
        [sum(c[l] * np.conj(c[l + shift]) for l in range(k - shift)) for shift in range(k)]
    )


def test_aperiodic_corr_hand_cases():
    np.testing.assert_allclose(aperiodic_corr(np.ones(4)), [4, 3, 2, 1], atol=1e-14)
    np.testing.assert_allclose(aperiodic_corr(np.array([1.0, 1j])), [2, -1j], atol=1e-14)


def test_aperiodic_corr_matches_double_loop():
    (c,) = random_codewords(16, 1, 0)
    np.testing.assert_allclose(aperiodic_corr(c), corr_double_loop(c), atol=1e-12)


@pytest.mark.parametrize("k", [2, 3, 5, 8])
def test_b_matrix_quadratic_forms(k):
    codewords = random_codewords(k, 100, k)
    for c in codewords[:10]:
        rho = aperiodic_corr(c)
        rho_ext = np.concatenate([rho, [0.0]])
        for shift in range(k):
            tail = np.conj(rho_ext[k - shift])
            q_plus = c.conj() @ b_matrix(k, shift, 1) @ c
            q_minus = c.conj() @ b_matrix(k, shift, -1) @ c
            assert abs(q_plus - (rho[shift] + tail)) < 1e-10
            assert abs(q_minus - (rho[shift] - tail)) < 1e-10


def test_b_matrix_structure():
    np.testing.assert_array_equal(b_matrix(2, 0, 1), np.eye(2))
    np.testing.assert_array_equal(
        b_matrix(3, 1, 1), np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0.0]])
    )
    np.testing.assert_array_equal(
        b_matrix(3, 1, -1), np.array([[0, 0, -1], [1, 0, 0], [0, 1, 0.0]])
    )
    with pytest.raises(ValueError):
        b_matrix(4, 4, 1)
    with pytest.raises(ValueError):
        b_matrix(4, 1, 2)


@pytest.mark.parametrize("k", [2, 3, 8, 16])
def test_basis_unitarity_and_operator_sums(k):
    pair = KPointPair(k)
    eye = np.eye(k)
    assert np.linalg.norm(pair.v @ pair.v.conj().T - eye) < 1e-10
    assert np.linalg.norm(pair.v_hat @ pair.v_hat.conj().T - eye) < 1e-10
    c_ops, ch_ops = pair.dense_operators()
    for ops in (c_ops, ch_ops):
        np.testing.assert_allclose(ops.sum(axis=0), eye, atol=1e-10)
        for op in ops:
            np.testing.assert_allclose(op, op.conj().T, atol=1e-12)
            assert abs(np.trace(op) - 1.0) < 1e-10
            eigs = np.linalg.eigvalsh(op)
            assert eigs.min() > -1e-12
            assert (eigs > 1e-10).sum() == 1  # rank one


def dense_dft(k):
    """Closed-form V[m, n] = exp(-2 pi i m n / K) / sqrt(K)."""
    n = np.arange(k)
    return np.exp(-2j * np.pi * np.outer(n, n) / k) / np.sqrt(k)


def test_basis_reconstruction_dense():
    # The dense rebuild V* D_s V == B_s for every shift: the K-point
    # pair diagonalizes both shift families.
    for k in (2, 3, 8, 16, 64):
        pair = KPointPair(k)
        tol = 1e-12 if k == 2 else 1e-10
        for shift in range(k):
            plus = pair.v.conj().T @ np.diag(pair.d_phase(shift)) @ pair.v
            minus = (
                pair.v_hat.conj().T @ np.diag(pair.d_phase(shift, hat=True)) @ pair.v_hat
            )
            assert np.linalg.norm(plus - b_matrix(k, shift, 1)) < tol
            assert np.linalg.norm(minus - b_matrix(k, shift, -1)) < tol


@pytest.mark.parametrize("k", [2, 3, 8, 64, 128])
def test_dense_matrices_are_the_fft_paths(k):
    pair = KPointPair(k)
    v = dense_dft(k)
    np.testing.assert_allclose(pair.v, v, rtol=0, atol=1e-12)
    np.testing.assert_allclose(pair.v_hat, v * pair.half_phase, rtol=0, atol=1e-12)
    x = random_codewords(k, 3, k)
    np.testing.assert_allclose(pair.to_alpha(x), x @ pair.v.T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(pair.to_beta(x), x @ pair.v_hat.T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(pair.from_beta(x), x @ pair.v_hat.conj(), rtol=0, atol=1e-12)


def test_grid_interleaves_the_shift_eigenvalues():
    # Row s of the grid holds conj(d_phase(s)) on its even columns and
    # conj(d_phase(s, hat=True)) on its odd ones: the grid check covers
    # both eigenvalue tables of the K-point pair.
    for k in (2, 3, 8, 64):
        pair = KPointPair(k)
        grid = baseband_samples(np.eye(k), 2)
        for shift in range(k):
            np.testing.assert_allclose(grid[shift, 0::2], pair.d_phase(shift).conj(), atol=1e-12)
            np.testing.assert_allclose(
                grid[shift, 1::2], pair.d_phase(shift, hat=True).conj(), atol=1e-12
            )


def faulty_grid(monkeypatch, fault):
    """Make ``build_basis`` see ``fault(grid)`` in place of the grid."""
    exact = spectral.baseband_samples
    monkeypatch.setattr(spectral, "baseband_samples", lambda x, j=1: fault(exact(x, j)))


@pytest.mark.parametrize("k", [2, 3, 8, 16, 64, 128, 256])
def test_check_rejects_flipped_half_phase(monkeypatch, k):
    # Column 1 of the grid is the half-sample phase exp(i pi k / K);
    # conjugating the grid flips its sign everywhere.
    faulty_grid(monkeypatch, np.conj)
    with pytest.raises(ArithmeticError, match="envelope grid check"):
        build_basis(k)


@pytest.mark.parametrize("faulty_hat", [False, True])
@pytest.mark.parametrize("k", [2, 3, 16, 64, 128])
def test_check_rejects_wrong_phase_at_last_shift(monkeypatch, k, faulty_hat):
    # A 1e-6 rad error in the eigenvalues of shift K-1 of one family:
    # row K-1 of the grid, on its even (cyclic) or odd (negacyclic)
    # columns.
    def fault(grid):
        grid[-1, int(faulty_hat) :: 2] *= np.exp(1e-6j)
        return grid

    faulty_grid(monkeypatch, fault)
    with pytest.raises(ArithmeticError):
        build_basis(k)


@pytest.mark.parametrize("k", [2, 3, 16, 64, 128, 256])
def test_check_rejects_phase_error_in_last_column(monkeypatch, k):
    def fault(grid):
        grid[:, -1] *= np.exp(1e-6j)
        return grid

    faulty_grid(monkeypatch, fault)
    with pytest.raises(ArithmeticError):
        build_basis(k)


def test_check_rejects_invertible_non_unitary_path(monkeypatch):
    # Halving the grid and doubling the forward FFT keeps the round trip
    # exact; only the checks on the grid's own values can see it.
    faulty_grid(monkeypatch, lambda grid: 0.5 * grid)
    fft = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda *a, **kw: 2.0 * fft(*a, **kw))
    with pytest.raises(ArithmeticError, match="first column"):
        build_basis(16)


@pytest.mark.parametrize("scale", [2.0, 1.0 + 1e-8])
@pytest.mark.parametrize("k", [2, 64, 256])
def test_check_rejects_scaled_forward_fft(monkeypatch, k, scale):
    fft = np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda *a, **kw: scale * fft(*a, **kw))
    with pytest.raises(ArithmeticError, match="round trip"):
        build_basis(k)


@given(st.integers(min_value=2, max_value=256))
def test_check_accepts_every_size(k):
    assert build_basis(k).size == k


def test_build_basis_rejects_tiny_k():
    with pytest.raises(ValueError, match="at least 2"):
        build_basis(1)


def test_shift_zero_phase_is_identity():
    pair = KPointPair(9)
    np.testing.assert_allclose(pair.d_phase(0), np.ones(9), atol=1e-15)


def test_quartic_sum_hand_cases():
    assert abs(quartic_sum(np.array([1.0, 1.0])) - 6.0) < 1e-12
    delta = np.zeros(8, complex)
    delta[0] = 1.0
    assert abs(quartic_sum(delta) - 2.0 / 8.0) < 1e-12


def test_quartic_sum_matches_dense_operators():
    k = 16
    (c,) = random_codewords(k, 1, 4)
    rng = np.random.default_rng(8)
    w, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    c_ops, ch_ops = KPointPair(k).dense_operators()
    u = w @ c
    dense = sum((u.conj() @ op @ u).real ** 2 for op in c_ops) + sum(
        (u.conj() @ op @ u).real ** 2 for op in ch_ops
    )
    fast = quartic_sum(c @ w.T)
    assert abs(fast - dense) < 1e-10 * dense


def test_quartic_sum_batch_matches_rows():
    batch = random_codewords(4, 5, 2)
    per_row = np.array([quartic_sum(row) for row in batch])
    np.testing.assert_allclose(quartic_sum(batch), per_row, rtol=1e-12)


@pytest.mark.parametrize("count", [511, 512, 513, 1025])
def test_quartic_sum_chunks_match_the_whole_grid(count):
    # At K=128 a chunk is 512 rows; each row's sum is the whole-grid one, bit for bit.
    batch = random_codewords(128, count, 5)
    power = np.abs(baseband_samples(batch, 2)) ** 2
    whole = (power * power).sum(axis=-1) / 128**2
    assert quartic_sum(batch).tobytes() == whole.tobytes()


def test_quartic_sum_memory_is_bounded_per_chunk():
    # The whole-grid form peaks near 31 MB on this input.
    c = random_codewords(128, 4000, 6)
    tracemalloc.start()
    try:
        quartic_sum(c)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


@pytest.mark.parametrize("k", [2, 3, 8, 16])
def test_correlation_energy_decomposition(k):
    # |rho(0)|^2 + 2 sum |rho(k)|^2 splits into periodic/odd-periodic halves
    for c in random_codewords(k, 100, 100 + k):
        rho = aperiodic_corr(c)
        rho_ext = np.concatenate([rho, [0.0]])
        lhs = abs(rho[0]) ** 2 + 2.0 * (np.abs(rho[1:]) ** 2).sum()
        tails = np.conj(rho_ext[k - np.arange(k)])
        rhs = 0.5 * (
            (np.abs(rho + tails) ** 2).sum() + (np.abs(rho - tails) ** 2).sum()
        )
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_parseval_over_operators():
    for k in (2, 3, 8, 16):
        pair = KPointPair(k)
        for c in random_codewords(k, 20, 7 * k):
            power = np.vdot(c, c).real
            alpha = pair.to_alpha(c)
            beta = pair.to_beta(c)
            assert abs((np.abs(alpha) ** 2).sum() - power) < 1e-10 * max(1.0, power)
            assert abs((np.abs(beta) ** 2).sum() - power) < 1e-10 * max(1.0, power)


def test_envelope_and_quartic_bounds_on_dense_grid():
    k = 16
    codewords = random_codewords(k, 50, 12)
    peaks = (np.abs(baseband_samples(codewords, 32)) ** 2).max(axis=1)
    for c, peak in zip(codewords, peaks):
        rho = aperiodic_corr(c)
        envelope_cap = rho[0].real + 2.0 * np.abs(rho[1:]).sum()
        assert peak <= envelope_cap * (1 + 1e-12)
        quartic_cap = k * (2 * k - 1) / 2.0 * quartic_sum(c)
        assert peak**2 <= quartic_cap * (1 + 1e-12)


def haar_case(k, seed, count=1):
    rng = np.random.default_rng(seed)
    return random_codewords(k, count, seed + 1), random_unitary(k, rng)


@given(st.integers(min_value=2, max_value=64), st.integers(min_value=0, max_value=2**32 - 1))
def test_quartic_sum_cauchy_schwarz_floor(k, seed):
    # The even and the odd grid samples of |s|^2 each sum to K ||c||^2,
    # so Cauchy-Schwarz over the 2K samples (below) and within each half
    # (above) gives 2 ||c||^4 / K <= quartic_sum <= 2 ||c||^4 for every W.
    (c,), w = haar_case(k, seed)
    norm4 = np.vdot(c, c).real ** 2
    value = quartic_sum(c @ w.T)
    assert 2.0 * norm4 / k * (1 - 1e-12) <= value <= 2.0 * norm4 * (1 + 1e-12)


@given(st.integers(min_value=2, max_value=64), st.integers(min_value=0, max_value=2**32 - 1))
@example(3, 0)
@example(5, 1)
@example(64, 2)
@example(128, 3)
def test_grid_paths_match_kpoint_oracle(k, seed):
    basis = build_basis(k)
    pair = KPointPair(k)
    block, w = haar_case(k, seed, count=3)

    expected = pair.quartic_sum(block @ w.T)
    assert np.abs(quartic_sum(block @ w.T) - expected).max() <= 1e-12 * expected.max()

    expected = pair.delta_w(block, w)
    assert np.abs(delta_w(block, w) - expected).max() <= 1e-12 * np.abs(expected).max()

    a = random_codewords(k, k, seed + 2)
    cov = a.T @ a.conj()
    grid = np.array([2.0, 8.0])
    np.testing.assert_allclose(
        gaussian_ccdf_bound(cov, basis, grid), pair.gaussian_bound(cov, grid), rtol=1e-12
    )
