import itertools
import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given
from hypothesis import strategies as st
from kpoint_oracle import KPointPair
from polar_oracle import delta_w, polar_factor, project_symmetric

from paprbound.bounds import r_statistic
from paprbound.core import Codebook, QamConstellation, generate_codebook
from paprbound.optimizer import (
    MODES,
    PROJECTIONS,
    UNITARITY_TOL,
    OptimizerConfig,
    RankDeficientUpdate,
    UnitarySet,
    _draw,
    _gradient_buffers,
    _gradient_rows,
    _polar_update,
    _seed_key,
    _StepPlan,
    load_unitaries,
    project_gram_schmidt,
    random_unitary,
    run,
    save_unitaries,
    step_batch,
    step_stochastic,
)
from paprbound.spectral import build_basis
from paprbound.waveform import baseband_samples, quartic_sum


RNG = np.random.default_rng(0)


def random_matrix(k, rng=RNG):
    return rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))


def subset_r(subset, w):
    book = Codebook.from_symbols(np.atleast_2d(subset), 1)
    return r_statistic(book, [w])


def oracle_picks(seed, sizes, iteration):
    """The stochastic draws of one iteration, one keyed generator per
    subset: the reference that ``_draw`` replays."""
    return [int(np.random.default_rng(_seed_key(seed, n, iteration)).integers(size))
            for n, size in enumerate(sizes)]


def test_delta_w_empty_subset():
    out = delta_w(np.empty((0, 4), complex), np.eye(4))
    np.testing.assert_array_equal(out, np.zeros((4, 4)))


def test_delta_w_matches_dense_operators():
    k = 8
    rng = np.random.default_rng(1)
    c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    w = random_unitary(k, rng)
    c_ops, ch_ops = KPointPair(k).dense_operators()
    u = w @ c
    dense = np.zeros((k, k), complex)
    for op in c_ops:
        dense += (u.conj() @ op @ u).real * (op @ np.outer(u, c.conj()))
    for op in ch_ops:
        dense += (u.conj() @ op @ u).real * (op @ np.outer(u, c.conj()))
    fast = delta_w(c[None, :], w)
    assert np.abs(fast - dense).max() <= 1e-10 * np.abs(dense).max()


def test_delta_w_is_additive_over_subsets():
    k = 4
    rng = np.random.default_rng(2)
    s1 = rng.standard_normal((3, k)) + 1j * rng.standard_normal((3, k))
    s2 = rng.standard_normal((5, k)) + 1j * rng.standard_normal((5, k))
    w = random_unitary(k, rng)
    combined = delta_w(np.vstack([s1, s2]), w)
    np.testing.assert_allclose(
        combined, delta_w(s1, w) + delta_w(s2, w), rtol=1e-12
    )


def test_delta_w_matches_finite_differences():
    k = 4
    rng = np.random.default_rng(3)
    for _ in range(2):
        subset = rng.standard_normal((3, k)) + 1j * rng.standard_normal((3, k))
        w = random_unitary(k, rng)
        scale = 2.0 * k * (2 * k - 1) / subset.shape[0]
        h = 1e-5
        grad = np.zeros((k, k), complex)
        for i in range(k):
            for j in range(k):
                e = np.zeros((k, k))
                e[i, j] = 1.0
                grad[i, j] = (
                    subset_r(subset, w + h * e) - subset_r(subset, w - h * e)
                ) / (2 * h) + 1j * (
                    subset_r(subset, w + 1j * h * e)
                    - subset_r(subset, w - 1j * h * e)
                ) / (2 * h)
        fast = scale * delta_w(subset, w)
        assert np.abs(fast - grad).max() <= 1e-5 * np.abs(grad).max()


@pytest.mark.parametrize("shape", [(5, 1, 64), (1, 400, 128), (2, 3, 16), (3, 2, 12)])
def test_gradient_rows_match_envelope_formula(shape):
    # The step tests compare ``run`` with loops that call ``_gradient_rows``
    # themselves; this pins its bits to the 2K-point envelope formula
    # built from public pieces, and its W c to a plain product.
    n, m, k = shape
    rng = np.random.default_rng(4)
    rows = QamConstellation.square(16).points[rng.integers(0, 16, shape)]
    w = UnitarySet.random(n, k, rng).matrices
    grads, wc = _gradient_rows(rows, w, _gradient_buffers(rows.shape))
    expected_wc = rows @ np.swapaxes(w, -1, -2)
    s = baseband_samples(expected_wc, 2)
    assert wc.shape == grads.shape == shape
    assert wc.tobytes() == expected_wc.tobytes()
    assert grads.tobytes() == (np.fft.fft(np.abs(s) ** 2 * s)[..., :k] / k**2).tobytes()


def test_gram_schmidt_projection():
    w = random_unitary(6, np.random.default_rng(4))
    np.testing.assert_allclose(project_gram_schmidt(w), w, atol=1e-10)
    np.testing.assert_allclose(project_gram_schmidt(np.diag([2.0, 3.0])), np.eye(2), atol=1e-12)
    m = random_matrix(8, np.random.default_rng(5))
    q = project_gram_schmidt(m)
    np.testing.assert_allclose(q @ q.conj().T, np.eye(8), atol=1e-10)
    # row k spans the same flag subspace as input rows 0..k (QR oracle)
    qr_q, _ = np.linalg.qr(m.T)
    for lead in range(1, 9):
        ours = q[:lead].T @ q[:lead].conj()
        ref = qr_q[:, :lead] @ qr_q[:, :lead].conj().T
        np.testing.assert_allclose(ours, ref, atol=1e-9)
    rank_def = np.ones((3, 3), dtype=complex)
    with pytest.raises(RankDeficientUpdate, match="row 1"):
        project_gram_schmidt(rank_def)


def test_symmetric_projection():
    w = random_unitary(6, np.random.default_rng(6))
    np.testing.assert_allclose(project_symmetric(w), w, atol=1e-10)
    np.testing.assert_allclose(project_symmetric(2.0 * np.eye(3)), np.eye(3), atol=1e-12)
    m = random_matrix(8, np.random.default_rng(7))
    u = project_symmetric(m)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(8), atol=1e-10)
    polar_u, _ = scipy.linalg.polar(m)
    assert np.abs(u - polar_u).max() < 1e-9
    assert np.abs(polar_factor(m) - polar_u).max() < 1e-12
    np.testing.assert_allclose(project_symmetric(u), u, atol=1e-10)  # idempotent
    stack = np.stack([m, 2.0 * m, random_matrix(8, np.random.default_rng(8))])
    np.testing.assert_allclose(
        project_symmetric(stack), [project_symmetric(x) for x in stack], rtol=0, atol=1e-14
    )
    with pytest.raises(RankDeficientUpdate, match="epsilon"):
        project_symmetric(np.diag([1.0, 1e-9]).astype(complex))


def desk_setup(k=8, count=64, n_subsets=4, seed=10):
    const = QamConstellation.square(16)
    book = generate_codebook(const, k, count, n_subsets, seed=seed)
    return book, build_basis(k)


def test_step_batch_zero_epsilon_is_identity():
    book, _ = desk_setup()
    cfg = OptimizerConfig(epsilon=0.0, mode="batch")
    state = UnitarySet.identity(book.n_subsets, book.k_carriers)
    new, norms = step_batch(state, book, cfg)
    np.testing.assert_allclose(new.matrices, state.matrices, atol=1e-12)
    assert new.iteration == 1
    assert norms.max() < 1e-12


def test_step_batch_descends_for_small_epsilon():
    book, _ = desk_setup()
    cfg = OptimizerConfig(epsilon=1e-5, mode="batch")
    state = UnitarySet.identity(book.n_subsets, book.k_carriers)
    before = r_statistic(book, state)
    state, _ = step_batch(state, book, cfg)
    after = r_statistic(book, state)
    assert after <= before + 1e-9
    state.validate()


def test_identical_subsets_share_trajectories():
    const = QamConstellation.square(16)
    rng = np.random.default_rng(11)
    block = const.points[rng.integers(0, 16, (8, 8))]
    book = Codebook.from_symbols(np.vstack([block, block]), 2)
    cfg = OptimizerConfig(epsilon=1e-3, mode="batch")
    state = UnitarySet.identity(2, 8)
    for _ in range(5):
        state, _ = step_batch(state, book, cfg)
    np.testing.assert_array_equal(state.matrices[0], state.matrices[1])


def test_stochastic_singleton_equals_batch():
    const = QamConstellation.square(16)
    rng = np.random.default_rng(12)
    book = Codebook.from_symbols(const.points[rng.integers(0, 16, (3, 8))], 3)
    cfg = OptimizerConfig(epsilon=1e-3, seed=0)
    state = UnitarySet.identity(3, 8)
    got_b, _ = step_batch(state, book, cfg)
    got_s, _ = step_stochastic(state, book, cfg)
    np.testing.assert_array_equal(got_b.matrices, got_s.matrices)


def test_stochastic_trajectory_reproducible():
    book, basis = desk_setup()
    cfg = OptimizerConfig(epsilon=1e-3, max_iters=30, stop_tol=0.0, seed=42)
    s1, t1 = run(book, basis, cfg)
    s2, t2 = run(book, basis, cfg)
    np.testing.assert_array_equal(s1.matrices, s2.matrices)
    assert [p.r_value for p in t1] == [p.r_value for p in t2]
    s3, _ = run(book, basis, OptimizerConfig(epsilon=1e-3, max_iters=30, stop_tol=0.0, seed=43))
    assert not np.array_equal(s1.matrices, s3.matrices)


def test_run_edge_cases():
    book, basis = desk_setup()
    state, trace = run(book, basis, OptimizerConfig(max_iters=0))
    np.testing.assert_array_equal(
        state.matrices, UnitarySet.identity(book.n_subsets, book.k_carriers).matrices
    )
    assert len(trace) == 1 and trace[0].iteration == 0
    # A basis of another K, with or without a start of the codebook's K,
    # and a start of another shape, which the pairing rule refuses.
    for start in (None, state):
        with pytest.raises(ValueError, match="^codebook K=8 does not match basis K=16$"):
            run(book, build_basis(16), OptimizerConfig(max_iters=0), start)
    for start in (UnitarySet.identity(3, 8), UnitarySet.identity(4, 16)):
        with pytest.raises(ValueError, match=r"^unitary set does not match the codebook: shape \("):
            run(book, basis, OptimizerConfig(max_iters=0), start)
    state, trace = run(book, basis, OptimizerConfig(epsilon=1e-3, max_iters=100, stop_tol=1e9))
    assert state.iteration == 1  # stopping rule fires after the first step
    assert trace[-1].iteration == 1


def test_unitarity_and_roundtrip_after_steps():
    book, basis = desk_setup()
    cfg = OptimizerConfig(epsilon=1e-3, max_iters=20, stop_tol=0.0, seed=1)
    state, _ = run(book, basis, cfg)
    state.validate()
    c = book.symbols[5]
    for w in state.matrices:
        assert np.abs(w.conj().T @ (w @ c) - c).max() < 1e-10
        cov = w.conj().T @ w
        np.testing.assert_allclose(cov, np.eye(book.k_carriers), atol=1e-10)


def test_rank_deficiency_raises():
    # From identity W and a single codeword, det(I - eps*DeltaW) =
    # 1 - eps * quartic_sum(c): stepping exactly to that eps makes the
    # update singular and the projection must refuse it.
    const = QamConstellation.square(16)
    book = generate_codebook(const, 2, 4, 4, seed=0)
    eps = 1.0 / quartic_sum(book.symbols[0])
    cfg = OptimizerConfig(epsilon=eps, mode="batch")
    state = UnitarySet.identity(4, 2)
    with pytest.raises(RankDeficientUpdate):
        step_batch(state, book, cfg)


def test_desk_scale_reduction_with_matched_step():
    # Regression baseline: at a step size matched to K=16 the statistic
    # falls at every checkpoint.  The tail and N=8 clauses on this book
    # and these seeds are criterion 7's.
    const = QamConstellation.square(16)
    book = generate_codebook(const, 16, 200, 4, seed=99)
    basis = build_basis(16)
    cfg = OptimizerConfig(epsilon=1e-3, max_iters=2000, stop_tol=0.0, seed=1,
                          checkpoint_every=500)
    _, trace = run(book, basis, cfg)
    assert trace[-1].r_value < trace[0].r_value
    r_checkpoints = [p.r_value for p in trace]
    assert all(  # nonincreasing across checkpoints, 1% stochastic slack
        later <= earlier * 1.01 for earlier, later in zip(r_checkpoints, r_checkpoints[1:])
    )


def test_unitary_set_persistence(tmp_path):
    rng = np.random.default_rng(13)
    state = UnitarySet.random(3, 8, rng)
    state = UnitarySet(matrices=state.matrices, iteration=17)
    path = tmp_path / "unitaries.bin"
    save_unitaries(state, path, seed=5, config_hash="abc")
    again = load_unitaries(path)
    np.testing.assert_array_equal(state.matrices, again.matrices)
    assert again.iteration == 17

    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x40  # flip the top exponent bit of the last entry's imaginary part
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="unitarity violated"):
        load_unitaries(bad)

    # The loader's one bound is UNITARITY_TOL: s W has error |s^2 - 1| sqrt(K).
    for ratio, accepted in ((0.99, True), (1.01, False)):
        s = np.sqrt(1.0 + ratio * UNITARITY_TOL / np.sqrt(8))
        scaled = UnitarySet(matrices=s * state.matrices)
        assert abs(scaled.unitarity_error() / UNITARITY_TOL - ratio) < 1e-4
        save_unitaries(scaled, path)
        if accepted:
            np.testing.assert_array_equal(load_unitaries(path).matrices, scaled.matrices)
        else:
            with pytest.raises(ValueError, match="unitarity violated"):
                load_unitaries(path)


def test_nan_payload_is_rejected(tmp_path):
    path = tmp_path / "unitaries.bin"
    save_unitaries(UnitarySet.identity(2, 4), path)
    header, payload = path.read_bytes().split(b"\n", 1)
    path.write_bytes(header + b"\n" + np.full(len(payload) // 8, np.nan).astype("<f8").tobytes())
    with pytest.raises(ValueError, match="unitarity violated"):
        load_unitaries(path)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_nan_update_is_refused():
    # The singularity guard fails closed: a NaN eigenvalue is not "large".
    w = np.eye(4, dtype=complex)[np.newaxis]
    rows = np.ones((1, 1, 4), dtype=complex)
    with pytest.raises(RankDeficientUpdate):
        _polar_update(w, rows, np.full((1, 1, 4), np.nan + 0j), 1e-3, np.empty_like(w), rows)  # W c = c


def test_config_validation():
    for bad in (-1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            OptimizerConfig(epsilon=bad)
    with pytest.raises(ValueError):
        OptimizerConfig(stop_tol=float("nan"))
    with pytest.raises(ValueError):
        OptimizerConfig(projection="qr")
    with pytest.raises(ValueError):
        OptimizerConfig(mode="minibatch")
    with pytest.raises(ValueError):
        OptimizerConfig(checkpoint_every=0)
    assert OptimizerConfig().resolved_epsilon(16) == pytest.approx(16**-1.5)


def gram_schmidt_rows(w):
    """Row-wise modified Gram-Schmidt: the oracle for project_gram_schmidt."""
    out = np.array(w, dtype=np.complex128)
    for row in range(out.shape[0]):
        for prev in range(row):
            out[row] -= np.vdot(out[prev], out[row]) * out[prev]
        norm = np.linalg.norm(out[row])
        if norm <= 1e-12:
            raise RankDeficientUpdate(f"row {row} collapses")
        out[row] /= norm
    return out


def test_gram_schmidt_matches_row_oracle():
    rng = np.random.default_rng(20)
    for k in (2, 8, 32):
        near = random_unitary(k, rng) + 1e-3 * random_matrix(k, rng)
        for w in (near, random_matrix(k, rng)):
            assert np.abs(project_gram_schmidt(w) - gram_schmidt_rows(w)).max() <= 1e-12
        # A stack gives the same bits as one call per matrix.
        stack = np.stack([random_unitary(k, rng) + 1e-3 * random_matrix(k, rng) for _ in range(3)])
        assert project_gram_schmidt(stack).tobytes() == np.stack([project_gram_schmidt(w) for w in stack]).tobytes()
    third_repeats = np.array([[1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=complex)
    with pytest.raises(RankDeficientUpdate, match="row 2"):
        gram_schmidt_rows(third_repeats)
    for w in (third_repeats, np.stack([np.eye(3), third_repeats, np.eye(3)])):
        with pytest.raises(RankDeficientUpdate, match="row 2"):
            project_gram_schmidt(w)


def small_step(book, fraction=0.1):
    """Step at which no single-codeword update at the identity moves W
    by more than ``fraction`` of ||W||_F (the criterion-7 rule)."""
    eye = np.eye(book.k_carriers, dtype=np.complex128)
    largest = max(np.linalg.norm(delta_w(c, eye)) for c in book.symbols)
    return fraction * np.sqrt(book.k_carriers) / largest


@pytest.mark.parametrize("k", [2, 4, 8, 16, 64, 128])
def test_factored_polar_step_matches_symmetric_projection(k):
    # Each step must equal the projection of W - eps * delta_w of the
    # codewords it used: the whole subset (batch) or the one drawn from
    # the (seed, subset, iteration) stream (stochastic), for both
    # projections.  The symmetric reference is U V* from an SVD.  The
    # largest subsets span all of C^K (2m > K).  At this epsilon the
    # steps are large, and by the third step at K = 128 W - eps * delta_w
    # has condition number up to 2.9e3.  The batch steps lie within
    # 2.7e-15 of U V* there, with unitarity error <= 6.2e-14; an update
    # through the eigendecomposition of A A*, which squares that number,
    # lay 3.7e-12 away, with unitarity error 1.6e-10.
    const = QamConstellation.square(16)
    rng = np.random.default_rng(k)
    eye = np.eye(k)
    for sizes in [(1, 1, 1), (3, 3, 3), (k // 2 + 1,) * 3, (1, 3, k // 2 + 1)]:
        symbols = const.points[rng.integers(0, 16, (sum(sizes), k))]
        book = Codebook(symbols=symbols, subset_sizes=sizes)
        eps = small_step(book)
        for (mode, step), (projection, project) in itertools.product(
            (("batch", step_batch), ("stochastic", step_stochastic)),
            (("symmetric_decorrelation", polar_factor), ("gram_schmidt", project_gram_schmidt)),
        ):
            cfg = OptimizerConfig(epsilon=eps, mode=mode, projection=projection, seed=5)
            state = UnitarySet.random(book.n_subsets, k, rng)
            for _ in range(3):
                new, norms = step(state, book, cfg)
                for n, (block, w) in enumerate(zip(book.subsets(), state.matrices)):
                    if mode == "stochastic":
                        draw = np.random.default_rng([5, n, state.iteration])
                        pick = int(draw.integers(block.shape[0]))
                        block = block[pick : pick + 1]
                    expected = project(w - eps * delta_w(block, w))
                    got = new.matrices[n]
                    assert np.abs(got - expected).max() <= 1e-12, (sizes, mode, projection, n)
                    assert abs(norms[n] - np.linalg.norm(expected - w)) <= 1e-12
                    assert np.linalg.norm(got @ got.conj().T - eye) <= 1e-12, (sizes, mode, projection, n)
                state = new


def oracle_trajectory(book, cfg):
    """Criterion-7-style stochastic run rebuilt step by step from the
    K-point gradient and project_symmetric(W - eps * delta_w), with the
    same (seed, subset, iteration) draws.  Returns the R value at every
    checkpoint and the final matrices."""
    k = book.k_carriers
    pair = KPointPair(k)
    scale = k * (2 * k - 1) / (2.0 * book.size)
    subsets = list(book.subsets())
    w = np.stack([np.eye(k, dtype=complex)] * book.n_subsets)

    def r_value():
        return scale * sum(pair.quartic_sum(block @ wn.T).sum() for block, wn in zip(subsets, w))

    r_values = [r_value()]
    for it in range(cfg.max_iters):
        # One drawn codeword per subset; all subsets step as one stack.
        picks = oracle_picks(cfg.seed, book.subset_sizes, it)
        c = np.stack([block[pick] for block, pick in zip(subsets, picks)])
        grads = pair.gradient_rows(np.einsum("nij,nj->ni", w, c))
        w = project_symmetric(w - cfg.epsilon * grads[:, :, np.newaxis] * c.conj()[:, np.newaxis, :])
        if (it + 1) % cfg.checkpoint_every == 0:
            r_values.append(r_value())
    return r_values, w


def test_factored_polar_step_does_not_drift():
    # Criterion 7's book and step, 2000 stochastic steps.  The unitary
    # correction multiplies W on the right, so W stays unitary to
    # rounding; a left-multiplied (W' W'*)^{-1/2} W' built on the
    # assumption W* = W^{-1} lets the error grow until a step is singular.
    # The whole trajectory, R at every checkpoint and the final W,
    # matches the K-point oracle loop.
    const = QamConstellation.square(16)
    book = generate_codebook(const, 16, 200, 4, seed=99)
    basis = build_basis(16)
    cfg = OptimizerConfig(epsilon=small_step(book), max_iters=2000, stop_tol=0.0,
                          seed=1, checkpoint_every=500)
    state, trace = run(book, basis, cfg)
    assert state.iteration == 2000
    assert state.unitarity_error() <= 1e-12
    assert trace[-1].r_value < trace[0].r_value

    r_values, w = oracle_trajectory(book, cfg)
    assert [p.iteration for p in trace] == [0, 500, 1000, 1500, 2000]
    got = np.array([p.r_value for p in trace])
    assert np.abs(got - r_values).max() <= 1e-12 * max(r_values)
    assert np.abs(state.matrices - w).max() <= 1e-12 * np.abs(w).max()


def polar_step(w, rows, eps, out):
    """``_polar_update`` of a stack from its gradient rows and W c: the step norms."""
    grads, wc = _gradient_rows(rows, w, _gradient_buffers(rows.shape))
    return _polar_update(w, rows, grads, eps, out, wc)


def one_codeword_update(w, c, eps):
    """``_polar_update`` of one matrix by one codeword: (W', step norm)."""
    new = np.empty((1,) + w.shape, dtype=np.complex128)
    norms = polar_step(w[np.newaxis], c[np.newaxis, np.newaxis, :], eps, new)
    return new[0], norms[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rank_one_polar_edge_cases():
    # The closed-form update from one codeword, where its basis [h, c]
    # degenerates or the step turns a direction around, against the
    # dense oracle.  At W = I the unit codeword e0 has h on its own
    # line (r22 = 0).  alpha = 1 - eps quartic_sum(W c), so the step
    # flips (norm 2) exactly when eps quartic_sum(W c) > 1.
    k = 16
    rng = np.random.default_rng(30)
    eye = np.eye(k, dtype=np.complex128)
    haar = random_unitary(k, rng)
    c = QamConstellation.square(16).points[rng.integers(0, 16, k)]
    e0_sum, c_sum = quartic_sum(eye[0]), quartic_sum(haar @ c)
    for w, codeword, eps, flips in [
        (eye, eye[0], 0.5 / e0_sum, False),
        (eye, eye[0], 3.0 / e0_sum, True),
        (haar, c, 0.5 / c_sum, False),
        (haar, c, 1.5 / c_sum, True),
        (haar, c, 40.0 / c_sum, True),
    ]:
        new, norm = one_codeword_update(w, codeword, eps)
        expected = project_symmetric(w - eps * delta_w(codeword, w))
        assert np.abs(new - expected).max() <= 1e-12 * np.abs(expected).max(), (eps, flips)
        assert abs(norm - np.linalg.norm(expected - w)) <= 1e-12
        assert (abs(norm - 2.0) <= 1e-12) == flips

    # A zero codeword has a zero gradient: W stays as it is.
    new, norm = one_codeword_update(haar, np.zeros(k, dtype=np.complex128), 1e-3)
    assert norm == 0.0 and np.array_equal(new, haar)

    # At eps quartic_sum(W c) = 1 the update is singular, as for the oracle.
    for update in (lambda: one_codeword_update(haar, c, 1.0 / c_sum),
                   lambda: project_symmetric(haar - delta_w(c, haar) / c_sum)):
        with pytest.raises(RankDeficientUpdate, match="reduce the step size epsilon"):
            update()


def test_flipping_steps_do_not_drift():
    # K=256 at eps = 1e-3, four times the K^(-3/2) default: every step
    # has norm 2 (the polar factor turns a direction around).  Through a
    # stacked 2 x 2 eigendecomposition the unitarity error of this run
    # grew to 5e-10 by step 100 and 1.7e-8 (past the loader's tolerance)
    # by step 300; the closed form keeps it at rounding level.
    const = QamConstellation.square(16)
    book = generate_codebook(const, 256, 2000, 5, seed=0)
    basis = build_basis(256)
    cfg = OptimizerConfig(epsilon=1e-3, max_iters=100, stop_tol=0.0, checkpoint_every=100)
    state, trace = run(book, basis, cfg)
    assert abs(trace[-1].max_step_norm - 2.0) <= 1e-12
    assert state.unitarity_error() <= 1e-12


@given(
    mode=st.sampled_from(MODES),
    projection=st.sampled_from(PROJECTIONS),
    k=st.sampled_from([4, 8, 16]),
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4).map(tuple),
    steps=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_random_steps_stay_unitary(mode, projection, k, sizes, steps, seed):
    # Any number of steps from a Haar start, in both modes and with both
    # projections, at the criterion-7 step size: no drift off the unitaries.
    const = QamConstellation.square(16)
    rng = np.random.default_rng(seed)
    symbols = const.points[rng.integers(0, 16, (sum(sizes), k))]
    book = Codebook(symbols=symbols, subset_sizes=sizes)
    basis = build_basis(k)
    cfg = OptimizerConfig(epsilon=small_step(book), max_iters=steps, stop_tol=0.0,
                          projection=projection, mode=mode, seed=seed)
    state, _ = run(book, basis, cfg, UnitarySet.random(book.n_subsets, k, rng))
    assert state.iteration == steps
    assert state.unitarity_error() <= 1e-12


@given(
    mode=st.sampled_from(MODES),
    projection=st.sampled_from(PROJECTIONS),
    k=st.sampled_from([2, 4, 8]),
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple),
    epsilon=st.floats(-6.0, 308.25).map(lambda e: 10.0**e),  # up to 1.8e308
    seed=st.integers(0, 2**32 - 1),
)
# At 1e200, A A* overflowed in the former 2m x 2m eigh step; the SVD of
# I - eps H C* takes it, and refuses that matrix once it overflows (1.7e308).
@example(mode="batch", projection="symmetric_decorrelation", k=4, sizes=(3, 3), epsilon=1e200, seed=0)
@example(mode="batch", projection="symmetric_decorrelation", k=4, sizes=(3, 3), epsilon=1.7e308, seed=0)
@example(mode="stochastic", projection="gram_schmidt", k=8, sizes=(2, 2), epsilon=1.7e308, seed=0)
def test_no_run_leaves_a_set_its_loader_rejects(tmp_path_factory, mode, projection, k, sizes,
                                                epsilon, seed):
    # Any finite step size: the run either refuses it with
    # RankDeficientUpdate (an overflowing step included, with no
    # RuntimeWarning) or returns a set that saves and loads back.
    const = QamConstellation.square(16)
    rng = np.random.default_rng(seed)
    symbols = const.points[rng.integers(0, 16, (sum(sizes), k))]
    book = Codebook(symbols=symbols, subset_sizes=sizes)
    cfg = OptimizerConfig(epsilon=epsilon, max_iters=12, stop_tol=0.0, checkpoint_every=5,
                          projection=projection, mode=mode, seed=seed)
    try:
        state, _ = run(book, build_basis(k), cfg)
    except RankDeficientUpdate:
        return
    path = tmp_path_factory.mktemp("run") / "unitaries.bin"
    save_unitaries(state, path)
    np.testing.assert_array_equal(load_unitaries(path).matrices, state.matrices)


def test_rank_deficiency_raises_in_stochastic_mode():
    # Singleton subsets: the draw is codeword n, and at the identity
    # det(I - eps * DeltaW) = 1 - eps * quartic_sum(c).
    const = QamConstellation.square(16)
    book = generate_codebook(const, 2, 4, 4, seed=0)
    cfg = OptimizerConfig(epsilon=1.0 / quartic_sum(book.symbols[2]))
    state = UnitarySet.identity(4, 2)
    with pytest.raises(RankDeficientUpdate, match="reduce the step size epsilon"):
        step_stochastic(state, book, cfg)


def test_unitary_header_is_validated(tmp_path):
    path = tmp_path / "unitaries.bin"
    save_unitaries(UnitarySet.identity(2, 4), path)
    header, payload = path.read_bytes().split(b"\n", 1)
    fields = json.loads(header)
    for bad in ({**fields, "n_subsets": None}, [fields], {**fields, "iteration": "7"}):
        path.write_bytes(json.dumps(bad).encode() + b"\n" + payload)
        with pytest.raises(ValueError, match="unitaries.bin"):
            load_unitaries(path)


@given(
    seed=st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**63 - 1]), st.integers(0, 2**80)),
    sizes=st.lists(
        st.one_of(st.sampled_from([1, 2, 200, 2**31, 2**32 - 1]), st.integers(1, 2**32)),
        min_size=1, max_size=3,
    ).map(tuple),
    first=st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**63 - 1]), st.integers(0, 2**64)),
    count=st.integers(1, 257),
)
# About half the first draws of size 2^31 + 1 (and a quarter of
# 3 * 2^30) fail Lemire's bound, some several times in a row.  The
# window crosses 2^32, where numpy splits an iteration into two words.
@example(seed=2**63 - 1, sizes=(2**31 + 1, 3 * 2**30, 2**32 - 1), first=2**32 - 200, count=257)
@example(seed=2**64 + 3, sizes=(1, 2, 200, 2**31, 2**32 - 1), first=2**63 - 256, count=257)  # wraps at 2^63
def test_draw_block_replays_keyed_default_rng(seed, sizes, first, count):
    # Any window of iterations, wherever it starts.
    expected = [oracle_picks(seed, sizes, first + row) for row in range(count)]
    np.testing.assert_array_equal(_draw(seed, sizes, first, count), expected)


def test_draw_block_refuses_sizes_it_cannot_replay():
    for sizes in ((0,), (5, 2**32 + 1)):
        with pytest.raises(ValueError, match="subset sizes"):
            _draw(0, sizes, 0, 1)


STEP_CASES = [
    ("stochastic", "symmetric_decorrelation", (6, 6, 6)),
    ("batch", "symmetric_decorrelation", (6, 6, 6)),
    ("batch", "symmetric_decorrelation", (3, 6, 1, 6)),  # runs of one subset each
    ("batch", "gram_schmidt", (3, 6, 1, 6)),
    ("stochastic", "gram_schmidt", (6, 6, 6)),
    ("batch", "symmetric_decorrelation", (6, 6, 3, 6, 6)),  # equal sizes that are not adjacent
]


@pytest.mark.parametrize("mode, projection, sizes", STEP_CASES)
def test_steps_leave_their_input_alone(mode, projection, sizes):
    const = QamConstellation.square(16)
    rng = np.random.default_rng(30)
    symbols = const.points[rng.integers(0, 16, (sum(sizes), 8))]
    book = Codebook(symbols=symbols, subset_sizes=sizes)
    state = UnitarySet.random(book.n_subsets, 8, rng)
    before = state.matrices.tobytes(), book.symbols.tobytes()
    state.matrices.flags.writeable = False  # any write into the input raises
    book.symbols.flags.writeable = False  # batch steps read it as views
    step = step_batch if mode == "batch" else step_stochastic
    cfg = OptimizerConfig(epsilon=1e-3, mode=mode, projection=projection)
    new, _ = step(state, book, cfg)
    assert (state.matrices.tobytes(), book.symbols.tobytes()) == before and state.iteration == 0
    assert new.iteration == 1 and not np.shares_memory(new.matrices, state.matrices)
    assert new.matrices.flags.writeable


@pytest.mark.parametrize("mode, projection, sizes", STEP_CASES)
def test_returned_states_keep_their_bytes(mode, projection, sizes):
    # A chain of steps on one plan, as ``run`` takes them, and a chain of
    # calls without a plan, each on a one-step plan: each returned state
    # keeps its bytes through every later step, both chains give the same
    # bits, and neither writes its start.  A plan reuses its two W stacks
    # only while no state handed out in them is alive, so a held state is
    # never written over.
    const = QamConstellation.square(16)
    rng = np.random.default_rng(33)
    book = Codebook(symbols=const.points[rng.integers(0, 16, (sum(sizes), 8))], subset_sizes=sizes)
    start = UnitarySet.random(book.n_subsets, 8, rng)
    start.matrices.flags.writeable = False
    cfg = OptimizerConfig(epsilon=1e-3, mode=mode, projection=projection, seed=4)
    step = step_batch if mode == "batch" else step_stochastic
    chains = {}
    for plan in (None, _StepPlan(book, cfg)):
        states, state = [], start
        for _ in range(6):
            state, _ = step(state, book, cfg, plan)
            states.append((state, state.matrices.tobytes()))
        assert all(s.matrices.tobytes() == saved for s, saved in states)
        chains[plan is None] = [saved for _, saved in states]
    assert chains[True] == chains[False]


@pytest.mark.parametrize("mode", MODES)
def test_run_keeps_its_initial_set_and_its_results(mode):
    # ``run`` reads ``initial`` and never writes it, and the set it
    # returns keeps its bytes through later runs, also one resumed from it.
    book, basis = desk_setup()
    cfg = OptimizerConfig(epsilon=1e-3, max_iters=7, stop_tol=0.0, mode=mode)
    initial = UnitarySet.random(book.n_subsets, book.k_carriers, np.random.default_rng(34))
    before = initial.matrices.tobytes()
    initial.matrices.flags.writeable = False  # any write into it raises
    first, _ = run(book, basis, cfg, initial)
    saved = first.matrices.tobytes()
    resumed, _ = run(book, basis, cfg, first)
    again, _ = run(book, basis, cfg, initial)
    assert initial.matrices.tobytes() == before and first.matrices.tobytes() == saved
    assert again.matrices.tobytes() == saved and resumed.iteration == 14


def test_run_gathers_the_keyed_rows_in_any_span(monkeypatch):
    # ``run``'s plan gathers the drawn rows of the next few iterations,
    # from the one it steps on.  Started at 200, with spans of 7 and of
    # 256 iterations, it gives the bits of steps called one by one
    # without a plan, each of which draws its own iteration only.
    book, basis = desk_setup()
    cfg = OptimizerConfig(epsilon=1e-3, max_iters=300, stop_tol=0.0, seed=6)
    start = UnitarySet(UnitarySet.identity(book.n_subsets, book.k_carriers).matrices, iteration=200)
    expected = start
    for _ in range(cfg.max_iters):
        expected, _ = step_stochastic(expected, book, cfg)
    for gather_bytes in (7 * 16 * book.n_subsets * book.k_carriers, 1 << 22):
        monkeypatch.setattr("paprbound.optimizer._GATHER_BYTES", gather_bytes)
        state, _ = run(book, basis, cfg, start)
        assert state.iteration == 500 and state.matrices.tobytes() == expected.matrices.tobytes()


def test_steps_draw_only_the_iterations_they_take(monkeypatch):
    # A step called without a plan replays the stream for its own
    # iteration only and gathers one row per subset.  ``run``'s plan
    # draws its first iteration alone, then a full span from the next.
    book, basis = desk_setup()
    drawn = []

    def counted(seed, sizes, first, count):
        picks = _draw(seed, sizes, first, count)
        drawn.append((first, picks.shape))
        return picks

    monkeypatch.setattr("paprbound.optimizer._draw", counted)
    cfg = OptimizerConfig(epsilon=1e-3, max_iters=3, stop_tol=0.0, seed=6)
    start = UnitarySet(UnitarySet.identity(book.n_subsets, book.k_carriers).matrices, iteration=300)
    step_stochastic(start, book, cfg)
    assert drawn == [(300, (1, book.n_subsets))]
    drawn.clear()
    run(book, basis, cfg, start)
    assert drawn == [(300, (1, book.n_subsets)), (301, (256, book.n_subsets))]


def test_batch_run_makes_gradient_buffers_once_per_row_shape(monkeypatch):
    # ``run``'s plan keeps one set of gradient buffers per row shape: a
    # batch run over subsets of 6, 6 and 3 rows makes two sets in all,
    # not one per subset and step.
    const = QamConstellation.square(16)
    rng = np.random.default_rng(36)
    book = Codebook(symbols=const.points[rng.integers(0, 16, (15, 8))], subset_sizes=(6, 6, 3))
    made = []
    monkeypatch.setattr("paprbound.optimizer._gradient_buffers",
                        lambda shape: made.append(shape) or _gradient_buffers(shape))
    cfg = OptimizerConfig(epsilon=1e-3, max_iters=5, stop_tol=0.0, mode="batch")
    state, _ = run(book, build_basis(8), cfg)
    assert state.iteration == 5 and sorted(made) == [(1, 3, 8), (1, 6, 8)]


def test_rank_one_update_rounds_alike_for_any_float_epsilon():
    # The closed-form update does its 2 x 2 algebra on Python floats, so
    # a step size given as a numpy float64 gives the bits of the same
    # value given as a Python float.
    rng = np.random.default_rng(35)
    for k in (4, 16, 64):
        w = np.stack([random_unitary(k, rng) for _ in range(5)])
        rows = QamConstellation.square(16).points[rng.integers(0, 16, (5, 1, k))]
        results = []
        for eps in (0.7 * k**-1.5, np.float64(0.7 * k**-1.5)):
            out = np.empty_like(w)
            norms = polar_step(w, rows, eps, out)
            results.append((out.tobytes(), norms.tobytes()))
        assert results[0] == results[1]


ORACLE_SIZES = [(6, 6, 6), (3, 6, 1, 6), (20, 20, 20, 20), (70, 70), (6, 6, 3, 6, 6),
                (20, 20, 20, 20, 5, 20, 20), (1,) * 70, (2,) * 65]


def oracle_setup(sizes, seed):
    """A random K=16 codebook partitioned as ``sizes``, a Haar start and a small step."""
    const = QamConstellation.square(16)
    rng = np.random.default_rng(seed)
    symbols = const.points[rng.integers(0, 16, (sum(sizes), 16))]
    book = Codebook(symbols=symbols, subset_sizes=sizes)
    return book, UnitarySet.random(book.n_subsets, 16, rng), small_step(book)


@pytest.mark.parametrize("sizes", ORACLE_SIZES)
def test_batch_step_matches_stacked_gradients(sizes):
    # A batch symmetric step takes its gradient and update one subset at
    # a time.  The (n, m, K) evaluation of all subsets of one size at
    # once gives the same bits: for equal sizes side by side, for runs
    # cut by a subset of another size, and for stacks of 70 one-row and
    # 65 two-row subsets.
    book, state, eps = oracle_setup(sizes, 31)
    expected = np.empty_like(state.matrices)
    norms = np.empty(book.n_subsets)
    for m in sorted(set(sizes)):
        members = [n for n, size in enumerate(sizes) if size == m]
        rows = np.stack([book.subset(n) for n in members])
        w = state.matrices[members]
        out = np.empty_like(w)
        norms[members] = polar_step(w, rows, eps, out)
        expected[members] = out
    new, got_norms = step_batch(state, book, OptimizerConfig(epsilon=eps, mode="batch"))
    assert new.matrices.tobytes() == expected.tobytes()
    assert got_norms.tobytes() == norms.tobytes()


@pytest.mark.parametrize("sizes", ORACLE_SIZES)
def test_stochastic_step_matches_per_subset_updates(sizes):
    # A stochastic step moves all N subsets as one stack, also past 64
    # subsets; one update per subset from its keyed draw gives the same bits.
    book, state, eps = oracle_setup(sizes, 32)
    cfg = OptimizerConfig(epsilon=eps, seed=9)
    picks = oracle_picks(cfg.seed, sizes, 0)
    expected = np.empty_like(state.matrices)
    norms = np.empty(book.n_subsets)
    for n, (block, pick) in enumerate(zip(book.subsets(), picks)):
        norms[n : n + 1] = polar_step(state.matrices[n : n + 1], block[np.newaxis, pick : pick + 1], eps,
                                      expected[n : n + 1])
    new, got_norms = step_stochastic(state, book, cfg)
    assert new.matrices.tobytes() == expected.tobytes()
    assert got_norms.tobytes() == norms.tobytes()


def test_run_matches_keyed_draw_loop_and_resumes():
    # 2000 stochastic steps through ``run`` against a loop that draws
    # with one generator per (seed, subset, iteration) and updates the
    # stack through ``_polar_update`` into a fresh array: the same W,
    # R values and step norms, bit for bit, also when the run is cut at
    # iteration 300 and resumed.
    const = QamConstellation.square(16)
    book = generate_codebook(const, 16, 200, 4, seed=99)
    basis = build_basis(16)
    cfg = OptimizerConfig(epsilon=small_step(book), max_iters=2000, stop_tol=0.0,
                          seed=2**32 + 7, checkpoint_every=500)
    starts = np.cumsum((0,) + book.subset_sizes[:-1])
    w = UnitarySet.identity(4, 16).matrices
    r_values = {0: r_statistic(book, w)}
    step_norms = {}
    for it in range(cfg.max_iters):
        rows = book.symbols[starts + oracle_picks(cfg.seed, book.subset_sizes, it)][:, np.newaxis, :]
        new = np.empty_like(w)
        norms = polar_step(w, rows, cfg.epsilon, new)
        w = new
        if it + 1 in (300, 500, 1000, 1500, 2000):
            r_values[it + 1] = r_statistic(book, w)
            step_norms[it + 1] = float(norms.max())
            if it + 1 == 300:
                w_300 = w

    state, trace = run(book, basis, cfg)
    assert state.matrices.tobytes() == w.tobytes()
    assert [(p.iteration, p.r_value) for p in trace] == [(i, r_values[i]) for i in (0, 500, 1000, 1500, 2000)]
    assert [p.max_step_norm for p in trace[1:]] == [step_norms[i] for i in (500, 1000, 1500, 2000)]

    half, _ = run(book, basis, replace(cfg, max_iters=300))
    assert half.matrices.tobytes() == w_300.tobytes()
    resumed, resumed_trace = run(book, basis, replace(cfg, max_iters=1700), half)
    assert resumed.iteration == 2000 and resumed.matrices.tobytes() == w.tobytes()
    assert resumed_trace[0].r_value == r_values[300]
    assert [(p.iteration, p.r_value, p.max_step_norm) for p in resumed_trace[1:]] == [
        (p.iteration, p.r_value, p.max_step_norm) for p in trace[1:]
    ]
