"""Acceptance suite.

One test per criterion; each prints a single pass/fail line.  Notes on
two of them:

* criterion 2 checks that the empirical PMEPR CCDF lies below the
  per-codeword quartic chain, the Markov bound and, on its validity
  region, the exponential bound; the latter is Hoeffding's lemma on
  max_t |s(t)|^4 in [a^2, b^2], whose closed form criterion 4 checks.
* criterion 7 runs the stochastic descent at K=16 with the step at
  which the largest single-codeword update from the identity is a tenth
  of ||W||_F, and checks that the default eps = K^(-3/2) meets the same
  small-step condition at the default K=128.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from kpoint_oracle import KPointPair, aperiodic_corr, b_matrix
from polar_oracle import delta_w, project_symmetric

import paprbound as pb
from paprbound.bounds import (
    chernoff_objective,
    codebook_endpoints,
    gaussian_quartic_moment,
    hoeffding_ccdf_bound,
    markov_ccdf_bound,
    optimal_chernoff_s,
    r_statistic,
    real_embedding,
)
from paprbound.channel import _transmit_rows
from paprbound.core import Codebook, QamConstellation, generate_codebook
from paprbound.optimizer import (
    OptimizerConfig,
    UnitarySet,
    project_gram_schmidt,
    random_unitary,
    run,
)
from paprbound.spectral import build_basis, quartic_sum
from paprbound.waveform import codebook_pmeprs, db_to_linear, default_gamma_grid_db


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def random_psd(k, rng):
    a = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return a @ a.conj().T


def test_criterion_1_decomposition_identities():
    started = time.perf_counter()
    worst = 0.0
    for k in (2, 3, 8, 16, 32):
        basis = KPointPair(k)
        rng = np.random.default_rng(1000 + k)
        codewords = rng.standard_normal((100, k)) + 1j * rng.standard_normal((100, k))
        for c in codewords:
            rho = aperiodic_corr(c)
            rho_ext = np.concatenate([rho, [0.0]])
            tails = np.conj(rho_ext[k - np.arange(k)])
            lhs = abs(rho[0]) ** 2 + 2.0 * (np.abs(rho[1:]) ** 2).sum()
            rhs = 0.5 * ((np.abs(rho + tails) ** 2).sum() + (np.abs(rho - tails) ** 2).sum())
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
            power = np.vdot(c, c).real
            alpha_power = (np.abs(basis.to_alpha(c)) ** 2).sum()
            beta_power = (np.abs(basis.to_beta(c)) ** 2).sum()
            worst = max(worst, abs(alpha_power - power) / power, abs(beta_power - power) / power)
        for shift in range(k):
            plus = basis.v.conj().T @ np.diag(basis.d_phase(shift)) @ basis.v
            minus = basis.v_hat.conj().T @ np.diag(basis.d_phase(shift, True)) @ basis.v_hat
            worst = max(
                worst,
                np.linalg.norm(plus - b_matrix(k, shift, 1)) / np.sqrt(k),
                np.linalg.norm(minus - b_matrix(k, shift, -1)) / np.sqrt(k),
            )
        c_ops, ch_ops = basis.dense_operators()
        for ops in (c_ops, ch_ops):
            for op in ops:
                worst = max(worst, abs(np.trace(op).real - 1.0))
                eigs = np.linalg.eigvalsh(op)
                worst = max(worst, max(0.0, -eigs.min()))
                if (eigs > 1e-9).sum() != 1:
                    worst = max(worst, 1.0)
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 10.0
    report(1, ok, f"max relative defect {worst:.2e}, {elapsed:.1f}s (K in 2..32)")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_2_bound_chain_soundness():
    started = time.perf_counter()
    k = 16
    const = QamConstellation.square(16)
    book = generate_codebook(const, k, 5000, 5, seed=20260810)
    grid = db_to_linear(default_gamma_grid_db())

    values = codebook_pmeprs(book, oversampling=16)
    quartics = quartic_sum(book.symbols)
    chain_ok = bool(
        np.all(values**2 <= k * (2 * k - 1) / (2 * book.p_av**2) * quartics * (1 + 1e-12))
    )

    ccdf = (values[:, None] > grid[None, :]).mean(axis=0)
    r_value = r_statistic(book)
    markov = markov_ccdf_bound(r_value, book.p_av, grid)
    markov_ok = bool(np.all(ccdf <= markov + 1e-12))

    a, b = codebook_endpoints(book)
    hoeffding, valid = hoeffding_ccdf_bound(r_value, a, b, book.p_av, grid)
    violations = valid & (ccdf > hoeffding + 1e-12)
    hoeffding_ok = not bool(violations.any())
    elapsed = time.perf_counter() - started

    ok = chain_ok and markov_ok and hoeffding_ok and elapsed < 30.0
    report(
        2,
        ok,
        f"per-codeword chain {'ok' if chain_ok else 'VIOLATED'}; "
        f"markov {'ok' if markov_ok else 'VIOLATED'}; "
        f"hoeffding violated at {int(violations.sum())}/{int(valid.sum())} valid points; "
        f"{elapsed:.1f}s",
    )
    assert chain_ok, "per-codeword quartic chain violated"
    assert markov_ok, "empirical CCDF exceeds the Markov bound"
    assert elapsed < 30.0
    assert hoeffding_ok, (
        "empirical CCDF exceeds the Hoeffding bound on the valid region at grid points "
        f"{[f'{g:.2f} dB' for g in 10 * np.log10(grid[violations])]}"
    )


def test_criterion_3_quartic_moment_algebra():
    started = time.perf_counter()
    rng = np.random.default_rng(3)
    worst_trace = 0.0
    for _ in range(100):
        x = random_psd(4, rng)
        y = random_psd(4, rng)
        lhs = np.trace(real_embedding(x) @ real_embedding(y))
        rhs = 2.0 * np.trace(x @ y).real
        worst_trace = max(worst_trace, abs(lhs - rhs) / max(1.0, abs(rhs)))
    trace_ok = worst_trace <= 1e-10

    mc_ok = True
    bound_ok = True
    detail = []
    for k in (2, 3, 4):
        g = random_psd(k, rng)
        cov = random_psd(k, rng)
        exact, bound = gaussian_quartic_moment(g, cov)
        bound_ok &= exact <= bound * (1 + 1e-12)
        chol = np.linalg.cholesky(cov)
        draws = (
            rng.standard_normal((1_000_000, k)) + 1j * rng.standard_normal((1_000_000, k))
        ) / np.sqrt(2)
        c = draws @ chol.T
        q = np.einsum("ni,ij,nj->n", c.conj(), g, c).real ** 2
        se = q.std() / np.sqrt(q.size)
        z = (q.mean() - exact) / se
        mc_ok &= abs(z) <= 3.0
        detail.append(f"K={k} z={z:+.2f}")
    elapsed = time.perf_counter() - started
    ok = trace_ok and mc_ok and bound_ok and elapsed < 60.0
    report(3, ok, f"trace identity {worst_trace:.1e}; MC {'; '.join(detail)}; {elapsed:.1f}s")
    assert trace_ok and mc_ok and bound_ok
    assert elapsed < 60.0


def _minimize_exponent(objective):
    """Locate the minimizer of a smooth 1-D exponent over s > 0.

    Brackets by doubling until the objective turns positive again
    (it vanishes at s = 0), then applies successive parabolic
    interpolation; the interpolation step is exact for a quadratic, so
    the minimum is found to machine precision without using any closed
    form.
    """
    upper = 1.0
    while objective(upper) < 0:
        upper *= 2.0
    s = 0.5 * upper
    for _ in range(60):
        d = 0.25 * upper
        f_lo, f_mid, f_hi = objective(s - d), objective(s), objective(s + d)
        curvature = f_hi - 2.0 * f_mid + f_lo
        if curvature <= 0:
            break
        step = d * (f_hi - f_lo) / (2.0 * curvature)
        s = s - step
        upper *= 0.25
        if abs(step) <= 1e-15 * max(1.0, abs(s)):
            break
    return s


def test_criterion_4_chernoff_optimum():
    rng = np.random.default_rng(4)
    worst_s = 0.0
    worst_val = 0.0
    for _ in range(50):
        r = rng.uniform(1.0, 100.0)
        a = rng.uniform(0.0, 3.0)
        b = a + rng.uniform(0.5, 30.0)
        p_av = rng.uniform(0.5, 5.0)
        gamma = np.sqrt(r) / p_av * rng.uniform(1.01, 2.5)
        s_star = optimal_chernoff_s(r, a, b, p_av, gamma)

        def objective(s):
            return chernoff_objective(s, r, a, b, p_av, gamma)

        s_hat = _minimize_exponent(objective)
        closed, valid = hoeffding_ccdf_bound(r, a, b, p_av, np.array([gamma]))
        assert valid[0]
        worst_s = max(worst_s, abs(s_hat - s_star) / max(1.0, s_star))
        worst_val = max(worst_val, abs(np.exp(objective(s_hat)) - closed[0]))
    ok = worst_s <= 1e-8 and worst_val <= 1e-8
    report(4, ok, f"worst |s - s*| {worst_s:.1e} (relative), worst bound gap {worst_val:.1e}")
    assert worst_s <= 1e-8
    assert worst_val <= 1e-8


def test_criterion_5_gradient_against_finite_differences():
    k = 4
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10):
        subset = rng.standard_normal((3, k)) + 1j * rng.standard_normal((3, k))
        w = random_unitary(k, rng)
        scale = 2.0 * k * (2 * k - 1) / subset.shape[0]

        def r_of(mat, subset=subset):
            return r_statistic(Codebook.from_symbols(subset, 1), [mat])

        h = 1e-5
        grad = np.zeros((k, k), complex)
        for i in range(k):
            for j in range(k):
                e = np.zeros((k, k))
                e[i, j] = 1.0
                grad[i, j] = (r_of(w + h * e) - r_of(w - h * e)) / (2 * h) + 1j * (
                    r_of(w + 1j * h * e) - r_of(w - 1j * h * e)
                ) / (2 * h)
        fast = scale * delta_w(subset, w)
        worst = max(worst, float(np.abs(fast - grad).max() / np.abs(grad).max()))
    ok = worst <= 1e-5
    report(5, ok, f"worst relative gradient mismatch {worst:.2e} over 10 instances")
    assert worst <= 1e-5


def test_criterion_6_projection_correctness():
    rng = np.random.default_rng(6)
    worst_unitarity = 0.0
    worst_polar = 0.0
    worst_fixed = 0.0
    for _ in range(10):
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        eye = np.eye(8)
        for project in (project_symmetric, project_gram_schmidt):
            q = project(m)
            worst_unitarity = max(worst_unitarity, np.linalg.norm(q @ q.conj().T - eye))
        u, s, vh = np.linalg.svd(m)
        polar = u @ vh
        worst_polar = max(worst_polar, float(np.abs(project_symmetric(m) - polar).max()))
        w = random_unitary(8, rng)
        worst_fixed = max(
            worst_fixed,
            float(np.abs(project_symmetric(w) - w).max()),
            float(np.abs(project_gram_schmidt(w) - w).max()),
        )
    ok = worst_unitarity <= 1e-10 and worst_polar <= 1e-9 and worst_fixed <= 1e-10
    report(
        6,
        ok,
        f"unitarity {worst_unitarity:.1e}, polar gap {worst_polar:.1e}, "
        f"fixed-point drift {worst_fixed:.1e}",
    )
    assert worst_unitarity <= 1e-10
    assert worst_polar <= 1e-9
    assert worst_fixed <= 1e-10


SMALL_STEP_FRACTION = 0.1


def _largest_relative_update(book, epsilon):
    """Largest single-codeword update eps ||delta_w(c, I)||_F at the
    identity start, as a fraction of ||W||_F = sqrt(K)."""
    eye = np.eye(book.k_carriers, dtype=np.complex128)
    largest = max(np.linalg.norm(delta_w(c, eye)) for c in book.symbols)
    return epsilon * largest / np.sqrt(book.k_carriers)


def test_criterion_7_desk_scale_reduction_trend():
    started = time.perf_counter()
    k = 16
    const = QamConstellation.square(16)
    book = generate_codebook(const, k, 200, 4, seed=99)
    basis = build_basis(k)
    # A fixed-step gradient method descends only for small steps: take
    # the step at which no single-codeword update at the identity start
    # exceeds SMALL_STEP_FRACTION of ||W||_F.
    epsilon = SMALL_STEP_FRACTION / _largest_relative_update(book, 1.0)
    config = OptimizerConfig(
        epsilon=epsilon, max_iters=2000, stop_tol=0.0, seed=1,
        projection="symmetric_decorrelation", mode="stochastic", checkpoint_every=500,
    )
    state, trace = run(book, basis, config)
    r_initial, r_final = trace[0].r_value, trace[-1].r_value
    r_decreased = r_final < r_initial

    before = codebook_pmeprs(book, oversampling=16)
    gamma99 = float(np.quantile(before, 0.99))
    ccdf_before = float((before > gamma99).mean())
    after = codebook_pmeprs(book, state, oversampling=16)
    ccdf_after = float((after > gamma99).mean())
    tail_decreased = ccdf_after < ccdf_before

    book8 = generate_codebook(const, k, 200, 8, seed=99)
    state8, trace8 = run(book8, basis, config)
    more_subsets_at_least_as_good = trace8[-1].r_value <= r_final

    # The pinned recipe eps = K^(-3/2) meets the same condition at the
    # default K=128.
    k_default = 128
    eps_default = OptimizerConfig().resolved_epsilon(k_default)
    update_default = _largest_relative_update(
        generate_codebook(const, k_default, 200, 4, seed=99), eps_default
    )
    default_is_small = update_default <= SMALL_STEP_FRACTION
    elapsed = time.perf_counter() - started

    ok = (
        r_decreased and tail_decreased and more_subsets_at_least_as_good and default_is_small
        and elapsed < 120.0
    )
    report(
        7,
        ok,
        f"R {r_initial:.0f} -> {r_final:.0f} (N=4), N=8 final {trace8[-1].r_value:.0f}; "
        f"ccdf@gamma99 {ccdf_before:.3f} -> {ccdf_after:.3f}; eps={epsilon:.2e}; "
        f"K={k_default} eps=K^-1.5 update {update_default:.1%} of ||W||; {elapsed:.0f}s",
    )
    assert elapsed < 120.0
    assert r_decreased, (
        f"final R {r_final:.0f} >= initial R {r_initial:.0f} at eps = {epsilon:.3e}, "
        f"where the largest single-codeword update at the identity start is "
        f"{SMALL_STEP_FRACTION:.0%} of ||W||_F"
    )
    assert tail_decreased
    assert more_subsets_at_least_as_good
    assert default_is_small, (
        f"eps = K^(-3/2) = {eps_default:.3e} at K={k_default} moves W by "
        f"{update_default:.1%} of ||W||_F in one update, above {SMALL_STEP_FRACTION:.0%}"
    )


def test_criterion_8_jensen_floor():
    for k in (4, 8):
        rng = np.random.default_rng(80 + k)
        blocks = [np.sqrt(k) * random_unitary(k, rng) for _ in range(3)]
        book = Codebook.from_symbols(np.vstack(blocks), 3)
        for n in range(3):
            gram = book.subset(n).T @ book.subset(n).conj() / k
            assert np.abs(gram - np.eye(k)).max() < 1e-12
        floor = k * k * (2 * k - 1)
        lowest = min(
            r_statistic(book, UnitarySet.random(3, k, rng)) for _ in range(20)
        )
        ok = lowest >= floor - 1e-6
        if not ok:
            report(8, False, f"K={k}: min R {lowest:.6f} below floor {floor}")
            assert ok
    report(8, True, "R >= K^2(2K-1) - 1e-6 for 20 random unitary sets, K in {4, 8}")


def test_criterion_9_link_sanity():
    started = time.perf_counter()
    k = 16
    const = QamConstellation.square(16)
    book = generate_codebook(const, k, 512, 4, seed=9)
    unitaries = UnitarySet.random(4, k, np.random.default_rng(90))

    # Every codeword of every subset through the link's block path, noiseless:
    # W_n* undoes W_n and the demapped symbol indices (the bits) come back.
    link0 = pb.LinkConfig(ebn0_db=(10.0,), oversampling=1)
    roundtrip_ok = all(
        np.array_equal(const.demap(_transmit_rows(block, w, link0, 0.0, np.random.default_rng(0)) @ w.conj()),
                       const.demap(block))
        for block, w in zip(book.subsets(), unitaries.matrices)
    )

    identity = UnitarySet.identity(4, k)
    link = pb.LinkConfig(ebn0_db=(4.0, 8.0, 12.0), oversampling=1, amplifier=None, seed=42)
    curve = pb.ber_sweep(book, const, identity, link, target_errors=200)
    z_scores = []
    enough = bool(np.all(curve.n_errors >= 200))
    for point, value, nbits in zip(curve.ebn0_db, curve.ber, curve.n_bits):
        ref = pb.qam_awgn_ber(16, point)
        se = np.sqrt(ref * (1 - ref) / nbits)
        z_scores.append(float((value - ref) / se))
    oracle_ok = bool(np.all(np.abs(z_scores) <= 3.0))
    elapsed = time.perf_counter() - started
    ok = roundtrip_ok and enough and oracle_ok and elapsed < 120.0
    report(
        9,
        ok,
        f"roundtrip exact {roundtrip_ok}; BER z-scores "
        + ", ".join(f"{z:+.2f}" for z in z_scores)
        + f"; errors {curve.n_errors.tolist()}; {elapsed:.0f}s",
    )
    assert roundtrip_ok and enough and oracle_ok
    assert elapsed < 120.0


def _run_cli(args, cwd):
    # Run the package this suite imported, whatever the working
    # directory: a relative PYTHONPATH does not survive the change of cwd.
    package_root = str(Path(pb.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "paprbound", *map(str, args)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_criterion_10_cli_determinism(tmp_path):
    import json

    config = {
        "version": 1, "k_carriers": 8, "qam_order": 16, "codebook_size": 64,
        "n_subsets": 4, "j_ccdf": 8, "j_ber": 1, "epsilon": 1e-3, "max_iters": 30,
        "stop_tol": 0.0, "checkpoint_every": 10,
        "gamma_grid_db": {"start": 4.0, "stop": 12.0, "step": 0.5},
        "ebn0_grid_db": [6.0, 10.0], "rapp": {"enabled": True, "backoff_db": 2.0},
        "ber_target_errors": 30, "ber_max_symbols": 50000, "seed": 7,
        "out_dir": "unused",
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    def full_run(out: Path) -> dict[str, bytes]:
        base = ["--config", cfg_path, "--out", out]
        _run_cli(["gen", *base], tmp_path)
        book = out / "codebook.bin"
        _run_cli(["optimize", *base, book], tmp_path)
        unit = out / "unitaries.bin"
        _run_cli(["bounds", *base, "--unitaries", unit, book], tmp_path)
        _run_cli(["ccdf", *base, "--unitaries", unit, book], tmp_path)
        _run_cli(["ber", *base, "--unitaries", unit, book], tmp_path)
        verify_out = _run_cli(["verify", *base, "--unitaries", unit, book], tmp_path)
        blobs = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        blobs["__verify_stdout__"] = verify_out.encode()
        return blobs

    first = full_run(tmp_path / "run_a")
    second = full_run(tmp_path / "run_b")
    assert set(first) == set(second)
    mismatched = [name for name in first if first[name] != second[name]]
    ok = not mismatched
    report(10, ok, f"{len(first) - 1} artifacts byte-identical across reruns"
           if ok else f"mismatch in {mismatched}")
    assert ok, f"non-deterministic artifacts: {mismatched}"
