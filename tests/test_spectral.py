import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paprbound.spectral import (
    SpectralBasis,
    aperiodic_corr,
    b_matrix,
    build_basis,
    quartic_sum,
)
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
    basis = build_basis(k)
    eye = np.eye(k)
    assert np.linalg.norm(basis.v @ basis.v.conj().T - eye) < 1e-10
    assert np.linalg.norm(basis.v_hat @ basis.v_hat.conj().T - eye) < 1e-10
    c_ops, ch_ops = basis.dense_operators()
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
    # The dense rebuild V* D_s V == B_s for every shift: the oracle for
    # the O(K^2 log K) construction check.
    for k in (2, 3, 8, 16, 64):
        basis = build_basis(k)
        tol = 1e-12 if k == 2 else 1e-10
        for shift in range(k):
            plus = basis.v.conj().T @ np.diag(basis.d_phase(shift)) @ basis.v
            minus = (
                basis.v_hat.conj().T @ np.diag(basis.d_phase(shift, hat=True)) @ basis.v_hat
            )
            assert np.linalg.norm(plus - b_matrix(k, shift, 1)) < tol
            assert np.linalg.norm(minus - b_matrix(k, shift, -1)) < tol


@pytest.mark.parametrize("k", [2, 3, 8, 64, 128])
def test_dense_matrices_are_the_fft_paths(k):
    basis = build_basis(k)
    v = dense_dft(k)
    np.testing.assert_allclose(basis.v, v, rtol=0, atol=1e-12)
    np.testing.assert_allclose(basis.v_hat, v * basis.half_phase, rtol=0, atol=1e-12)
    x = random_codewords(k, 3, k)
    np.testing.assert_allclose(basis.to_alpha(x), x @ basis.v.T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(basis.to_beta(x), x @ basis.v_hat.T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(basis.from_beta(x), x @ basis.v_hat.conj(), rtol=0, atol=1e-12)


@pytest.mark.parametrize("k", [2, 3, 8, 16, 64, 128, 256])
def test_check_rejects_flipped_half_phase(k):
    basis = build_basis(k, validate=False)
    basis.half_phase = np.conj(basis.half_phase)
    with pytest.raises(ArithmeticError, match="negacyclic"):
        basis._check_reconstruction()


@pytest.mark.parametrize("faulty_hat", [False, True])
@pytest.mark.parametrize("k", [2, 3, 16, 64, 128])
def test_check_rejects_wrong_phase_at_last_shift(monkeypatch, k, faulty_hat):
    exact = SpectralBasis.d_phase

    def d_phase(self, shift, hat=False):
        d = exact(self, shift, hat)
        if shift == self.size - 1 and hat == faulty_hat:
            d = d * np.exp(1e-6j)
        return d

    monkeypatch.setattr(SpectralBasis, "d_phase", d_phase)
    with pytest.raises(ArithmeticError):
        build_basis(k)


def test_check_rejects_invertible_non_unitary_path(monkeypatch):
    # Scaling V by 2 and V* by 1/2 keeps the round trip and every shift
    # reconstruction exact; only the adjoint check can see it.
    to_alpha, from_alpha = SpectralBasis.to_alpha, SpectralBasis.from_alpha
    monkeypatch.setattr(SpectralBasis, "to_alpha", lambda self, x: 2.0 * to_alpha(self, x))
    monkeypatch.setattr(SpectralBasis, "from_alpha", lambda self, y: 0.5 * from_alpha(self, y))
    with pytest.raises(ArithmeticError, match="cyclic adjoint"):
        build_basis(16)


@pytest.mark.parametrize("k", [2, 8, 64])
def test_check_rejects_boost_between_opposite_bins(monkeypatch, k):
    # Bins 0 and K/2 have opposite shift eigenvalues d and -d, so a real
    # hyperbolic rotation N between them keeps N D_s N = D_s: V -> N V
    # with V* -> V* N passes the adjoint and every shift check, and only
    # the round trip (V* N^2 V != I) can see it.
    def boost(y):
        out = np.array(y, dtype=np.complex128)
        a, b = y[..., 0], y[..., k // 2]
        out[..., 0] = np.cosh(0.5) * a + np.sinh(0.5) * b
        out[..., k // 2] = np.sinh(0.5) * a + np.cosh(0.5) * b
        return out

    to_alpha, from_alpha = SpectralBasis.to_alpha, SpectralBasis.from_alpha
    monkeypatch.setattr(SpectralBasis, "to_alpha", lambda self, x: boost(to_alpha(self, x)))
    monkeypatch.setattr(SpectralBasis, "from_alpha", lambda self, y: from_alpha(self, boost(y)))
    with pytest.raises(ArithmeticError, match="cyclic round trip"):
        build_basis(k)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.integers(min_value=2, max_value=256))
def test_check_accepts_every_size(k):
    assert build_basis(k).size == k


def test_shift_zero_phase_is_identity():
    basis = build_basis(9)
    np.testing.assert_allclose(basis.d_phase(0), np.ones(9), atol=1e-15)


def test_large_basis_probe_validation():
    build_basis(128)  # the construction check runs at every K; the dense cap is 64
    with pytest.raises(ValueError):
        build_basis(128).dense_operators()


def test_quartic_sum_hand_cases():
    basis = build_basis(2)
    assert abs(quartic_sum(np.array([1.0, 1.0]), basis) - 6.0) < 1e-12
    basis8 = build_basis(8)
    delta = np.zeros(8, complex)
    delta[0] = 1.0
    assert abs(quartic_sum(delta, basis8) - 2.0 / 8.0) < 1e-12


def test_quartic_sum_matches_dense_operators():
    k = 16
    basis = build_basis(k)
    (c,) = random_codewords(k, 1, 4)
    rng = np.random.default_rng(8)
    w, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    c_ops, ch_ops = basis.dense_operators()
    u = w @ c
    dense = sum((u.conj() @ op @ u).real ** 2 for op in c_ops) + sum(
        (u.conj() @ op @ u).real ** 2 for op in ch_ops
    )
    fast = quartic_sum(c, basis, w)
    assert abs(fast - dense) < 1e-10 * dense


def test_quartic_sum_batch_and_errors():
    basis = build_basis(4)
    batch = random_codewords(4, 5, 2)
    per_row = np.array([quartic_sum(row, basis) for row in batch])
    np.testing.assert_allclose(quartic_sum(batch, basis), per_row, rtol=1e-12)
    with pytest.raises(ValueError):
        quartic_sum(batch, basis, np.eye(3))
    with pytest.raises(ValueError):
        quartic_sum(random_codewords(5, 1, 0)[0], basis)


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
        basis = build_basis(k)
        for c in random_codewords(k, 20, 7 * k):
            power = np.vdot(c, c).real
            alpha = basis.to_alpha(c)
            beta = basis.to_beta(c)
            assert abs((np.abs(alpha) ** 2).sum() - power) < 1e-10 * max(1.0, power)
            assert abs((np.abs(beta) ** 2).sum() - power) < 1e-10 * max(1.0, power)


def test_envelope_and_quartic_bounds_on_dense_grid():
    k = 16
    basis = build_basis(k)
    codewords = random_codewords(k, 50, 12)
    peaks = (np.abs(baseband_samples(codewords, 32)) ** 2).max(axis=1)
    for c, peak in zip(codewords, peaks):
        rho = aperiodic_corr(c)
        envelope_cap = rho[0].real + 2.0 * np.abs(rho[1:]).sum()
        assert peak <= envelope_cap * (1 + 1e-12)
        quartic_cap = k * (2 * k - 1) / 2.0 * quartic_sum(c, basis)
        assert peak**2 <= quartic_cap * (1 + 1e-12)
