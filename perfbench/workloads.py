"""The benchmark's three workloads.

Each workload turns a seed into inputs (``setup``), runs one timed pass
over them (``run_pass``), reads the numbers the pass produced
(``result``, compared with the stored reference for the default seed),
and checks its outputs for any seed (``check``).  Every call into
paprbound goes through a module attribute, so that the tracer can wrap
it at the point of lookup.

Why these three:

* ``pipeline-k64`` is the job users run: the README pipeline through
  ``paprbound.cli.main``.  The stochastic optimizer with symmetric
  decorrelation does almost all of its work; it is the only workload
  through config parsing, file I/O, manifests and ``verify``.
* ``batch-gs-k128`` drives the optimizer the other way: full-subset
  gradients and full-rank updates, projected by row-wise Gram-Schmidt,
  at the default config's size.  A change to the symmetric projection
  alone must leave it unchanged.
* ``link-k128`` runs no optimizer: bounds, PMEPR CCDFs and BER sweeps
  for an identity and a Haar unitary set, so the shared "transform
  each subset" path and the link do all the work.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import shutil
import uuid
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from paprbound import bounds, channel, cli, core, optimizer, spectral, waveform

J_CCDF = 16
UNITARITY_TOL = 1e-8
PMEPR_RTOL = 1e-12
PMEPR_SAMPLE_PER_SUBSET = 8


class Ops:
    """Counts layer calls and output checks, and times named stages."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.stages = {}
        self.tracer = None  # set during the traced pass: stages become spans

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        return fn(*args, **kwargs)

    def check(self, name: str, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(name)

    @contextmanager
    def stage(self, name: str, span: str | None = None):
        started = perf_counter()
        try:
            if self.tracer is None:
                yield
            else:
                with self.tracer.span(span or f"stage.{name}"):
                    yield
        finally:
            self.stages[name] = self.stages.get(name, 0.0) + perf_counter() - started


# ---------------------------------------------------------------------------
# oracles and readers the benchmark owns


def oracle_pmepr(rows: np.ndarray, p_av: float, oversampling: int) -> np.ndarray:
    """PMEPR from a zero-padded forward FFT of the conjugate codewords:
    |s(i/(JK))| = |sum_k conj(c_k) exp(-2j pi k i / (JK))|."""
    k = rows.shape[-1]
    padded = np.zeros((rows.shape[0], k * oversampling), dtype=np.complex128)
    padded[:, :k] = np.conj(rows)
    spectrum = np.fft.fft(padded, axis=-1)
    return (spectrum.real**2 + spectrum.imag**2).max(axis=-1) / p_av


def transformed_blocks(symbols, subset_sizes, matrices):
    start = 0
    for n, size in enumerate(subset_sizes):
        block = symbols[start : start + size]
        start += size
        yield n, block if matrices is None else block @ matrices[n].T


def oracle_ccdf(symbols, subset_sizes, matrices, p_av, grid) -> np.ndarray:
    values = np.concatenate(
        [oracle_pmepr(rows, p_av, J_CCDF) for _, rows in transformed_blocks(symbols, subset_sizes, matrices)]
    )
    return (values[:, None] > grid[None, :]).mean(axis=0)


def unitarity_error(matrices: np.ndarray) -> float:
    eye = np.eye(matrices.shape[-1])
    return max(float(np.linalg.norm(w @ w.conj().T - eye)) for w in matrices)


def read_binary_artifact(path: Path, shape_keys) -> tuple[dict, np.ndarray]:
    """Header line plus little-endian (re, im) float64 pairs."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        raw = np.frombuffer(fh.read(), dtype="<f8")
    shape = tuple(header[key] for key in shape_keys)
    pairs = raw.reshape(shape + (2,))
    return header, pairs[..., 0] + 1j * pairs[..., 1]


def read_csv_column(path: Path, column: str, kind=float) -> list:
    with open(path, newline="") as fh:
        return [kind(row[column]) for row in csv.DictReader(fh)]


def digest_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode() + str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def check_pmepr_sample(ops: Ops, seed: int, symbols, subset_sizes, matrices) -> None:
    """PMEPRs from the library against the oracle on a seeded sample."""
    rng = np.random.default_rng([seed, 7])
    starts = np.cumsum((0,) + tuple(subset_sizes))[:-1]
    picks = np.concatenate(
        [s + rng.choice(size, PMEPR_SAMPLE_PER_SUBSET, replace=False) for s, size in zip(starts, subset_sizes)]
    )
    sample = core.Codebook.from_symbols(symbols[picks], len(subset_sizes))
    library = waveform.codebook_pmeprs(sample, matrices, J_CCDF)
    expected = np.concatenate(
        [
            oracle_pmepr(rows, sample.p_av, J_CCDF)
            for _, rows in transformed_blocks(sample.symbols, sample.subset_sizes, matrices)
        ]
    )
    ops.check("pmepr sample matches oracle", np.all(np.abs(library - expected) <= PMEPR_RTOL * expected))


def check_optimizer_health(ops: Ops, health: dict) -> None:
    ops.check("unitarity error <= 1e-8", health["unitarity_error"] <= UNITARITY_TOL)
    ops.check("R_final < R_initial", health["r_final"] < health["r_initial"])


def gamma_grid() -> np.ndarray:
    return waveform.db_to_linear(waveform.default_gamma_grid_db())


class Workload:
    """Interface of a workload; ``cleanup`` drops one pass's outputs and
    ``teardown`` the inputs."""

    def cleanup(self, outputs) -> None:
        pass

    def teardown(self, inputs) -> None:
        pass


# ---------------------------------------------------------------------------
# pipeline-k64: the README pipeline through paprbound.cli.main


@dataclass
class PipelineInputs:
    work_dir: Path
    config_path: Path
    seed: int
    passes: int = 0


class PipelineK64(Workload):
    name = "pipeline-k64"
    # README config; only max_iters and checkpoint_every are set here.
    SIZES = {
        "full": {"k_carriers": 64, "codebook_size": 1000, "max_iters": 200, "checkpoint_every": 100},
        "smoke": {"k_carriers": 16, "codebook_size": 200, "max_iters": 20, "checkpoint_every": 10},
    }
    STEPS = ("gen", "bounds", "optimize", "ccdf", "ber", "verify")

    def setup(self, seed: int, size: str, work_root: Path) -> PipelineInputs:
        work_dir = work_root / f"pipeline-{uuid.uuid4().hex}"
        work_dir.mkdir(parents=True)
        config = {
            "version": 1,
            "qam_order": 16,
            "n_subsets": 5,
            "epsilon": 1e-3,
            "gamma_grid_db": {"start": 4.0, "stop": 13.0, "step": 0.25},
            "ebn0_grid_db": [4.0, 8.0, 12.0],
            "rapp": {"enabled": True, "p": 2.0, "backoff_db": 2.0},
            "seed": seed,
            "out_dir": "runs/perfbench",  # unused: every call passes --out
            **self.SIZES[size],
        }
        config_path = work_dir / "config.json"
        config_path.write_text(json.dumps(config, indent=2))
        return PipelineInputs(work_dir, config_path, seed)

    def run_pass(self, inputs: PipelineInputs, ops: Ops) -> dict:
        out = inputs.work_dir / f"pass{inputs.passes}"
        inputs.passes += 1
        book, units = str(out / "codebook.bin"), str(out / "unitaries.bin")
        common = ["--config", str(inputs.config_path), "--out", str(out)]
        argvs = {
            "gen": ["gen", *common],
            "bounds": ["bounds", *common, book],
            "optimize": ["optimize", *common, book],
            "ccdf": ["ccdf", *common, "--unitaries", units, book],
            "ber": ["ber", *common, "--unitaries", units, book],
            "verify": ["verify", *common, "--unitaries", units, book],
        }
        stdout = {}
        for step in self.STEPS:
            buffer = io.StringIO()
            with ops.stage(step, f"cli.{step}"), redirect_stdout(buffer):
                code = ops.call(cli.main, argvs[step])
            stdout[step] = buffer.getvalue()
            if code != 0:
                raise RuntimeError(f"paprbound {step} exited with {code}")
        return {"dir": out, "stdout": stdout}

    def result(self, inputs, outputs) -> dict:
        out = outputs["dir"]
        return {
            "bounds_r": json.loads((out / "bounds.json").read_text())["R"],
            "r_trace": read_csv_column(out / "optimize_trace.csv", "r_value"),
            "iterations": read_csv_column(out / "optimize_trace.csv", "iteration", int)[-1],
            "ccdf": read_csv_column(out / "ccdf.csv", "ccdf"),
            "ccdf_codewords": read_csv_column(out / "ccdf.csv", "n_samples", int)[0],
            "ber_bits": read_csv_column(out / "ber.csv", "n_bits", int),
            "ber_errors": read_csv_column(out / "ber.csv", "n_errors", int),
        }

    def digest(self, inputs, outputs) -> str:
        h = hashlib.sha256()
        for path in sorted(outputs["dir"].iterdir()):
            h.update(path.name.encode() + hashlib.sha256(path.read_bytes()).digest())
        return h.hexdigest()

    def health(self, inputs, outputs, result) -> dict:
        _, matrices = read_binary_artifact(outputs["dir"] / "unitaries.bin", ("n_subsets", "k_carriers", "k_carriers"))
        return {
            "unitarity_error": unitarity_error(matrices),
            "r_initial": result["r_trace"][0],
            "r_final": result["r_trace"][-1],
        }

    def check(self, inputs, outputs, result, health, ops: Ops) -> None:
        verify_lines = outputs["stdout"]["verify"].splitlines()
        ops.check("verify prints no FAIL line", not any(line.startswith("FAIL") for line in verify_lines))
        check_optimizer_health(ops, health)
        header, symbols = read_binary_artifact(outputs["dir"] / "codebook.bin", ("count", "k_carriers"))
        _, matrices = read_binary_artifact(outputs["dir"] / "unitaries.bin", ("n_subsets", "k_carriers", "k_carriers"))
        sizes = header["subset_sizes"]
        check_pmepr_sample(ops, inputs.seed, symbols, sizes, matrices)
        expected = oracle_ccdf(symbols, sizes, matrices, header["p_av"], gamma_grid())
        ops.check("ccdf.csv matches oracle CCDF", np.allclose(result["ccdf"], expected, rtol=0, atol=1e-12))

    def cleanup(self, outputs) -> None:
        shutil.rmtree(outputs["dir"], ignore_errors=True)

    def teardown(self, inputs) -> None:
        shutil.rmtree(inputs.work_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# batch-gs-k128: library optimizer, batch mode, Gram-Schmidt projection


@dataclass
class LibraryInputs:
    seed: int
    constellation: object
    codebook: object
    basis: object
    grid: np.ndarray
    link: object
    config: object = None
    unitary_sets: dict = field(default_factory=dict)
    ber_budget: tuple = (200, 2_000_000)


class BatchGsK128(Workload):
    name = "batch-gs-k128"
    SIZES = {
        "full": {"k": 128, "count": 2000, "max_iters": 10},
        "smoke": {"k": 16, "count": 200, "max_iters": 5},
    }
    N_SUBSETS = 5

    def setup(self, seed: int, size: str, work_root: Path) -> LibraryInputs:
        s = self.SIZES[size]
        const = core.QamConstellation.square(16)
        book = core.generate_codebook(const, s["k"], s["count"], self.N_SUBSETS, seed)
        basis = spectral.build_basis(s["k"])
        config = optimizer.OptimizerConfig(
            epsilon=s["k"] ** -1.5 / 100,
            max_iters=s["max_iters"],
            mode="batch",
            projection="gram_schmidt",
            seed=seed,
            checkpoint_every=10,
        )
        # Checks the optimized set on the README link: Rapp at 2 dB backoff.
        link = channel.LinkConfig(
            ebn0_db=(4.0, 8.0, 12.0),
            amplifier=channel.RappModel.from_backoff(book.p_av, 2.0, 2.0),
            seed=seed,
        )
        return LibraryInputs(seed, const, book, basis, gamma_grid(), link, config)

    def run_pass(self, inputs: LibraryInputs, ops: Ops) -> dict:
        with ops.stage("optimize"):
            state, trace = ops.call(optimizer.run, inputs.codebook, inputs.basis, inputs.config)
        with ops.stage("ccdf"):
            curve = ops.call(waveform.empirical_ccdf, inputs.codebook, inputs.grid, state, J_CCDF)
        with ops.stage("ber"):
            ber = ops.call(
                channel.ber_sweep, inputs.codebook, inputs.constellation, state, inputs.link, *inputs.ber_budget
            )
        return {"state": state, "trace": trace, "curve": curve, "ber": ber}

    def result(self, inputs, outputs) -> dict:
        return {
            "r_trace": [float(p.r_value) for p in outputs["trace"]],
            "iterations": outputs["state"].iteration,
            "ccdf": outputs["curve"].ccdf.tolist(),
            "ccdf_codewords": outputs["curve"].sample_count,
            "ber_bits": outputs["ber"].n_bits.tolist(),
            "ber_errors": outputs["ber"].n_errors.tolist(),
        }

    def digest(self, inputs, outputs) -> str:
        ber = outputs["ber"]
        return digest_arrays(
            outputs["state"].matrices,
            np.array([(p.iteration, p.r_value, p.max_step_norm) for p in outputs["trace"]]),
            outputs["curve"].ccdf,
            ber.ber, ber.n_bits, ber.n_errors, ber.ci_low, ber.ci_high,
        )

    def health(self, inputs, outputs, result) -> dict:
        return {
            "unitarity_error": unitarity_error(outputs["state"].matrices),
            "r_initial": result["r_trace"][0],
            "r_final": result["r_trace"][-1],
        }

    def check(self, inputs, outputs, result, health, ops: Ops) -> None:
        check_optimizer_health(ops, health)
        book, matrices = inputs.codebook, outputs["state"].matrices
        check_pmepr_sample(ops, inputs.seed, book.symbols, book.subset_sizes, matrices)
        expected = oracle_ccdf(book.symbols, book.subset_sizes, matrices, book.p_av, inputs.grid)
        ops.check("CCDF matches oracle CCDF", np.allclose(result["ccdf"], expected, rtol=0, atol=1e-12))
        check_ber_counts(ops, inputs, outputs["ber"], book.k_carriers)

def check_ber_counts(ops: Ops, inputs: LibraryInputs, ber, k_carriers: int) -> None:
    """Whole 256-codeword blocks, and each point stopped by its target
    or by the symbol cap."""
    target, cap = inputs.ber_budget
    bits_per_symbol = inputs.constellation.bits_per_symbol
    block_bits = 256 * k_carriers * bits_per_symbol
    whole_blocks = np.all(ber.n_bits % block_bits == 0) and np.all(ber.n_bits > 0)
    stopped = (ber.n_errors >= target) | (ber.n_bits >= cap * bits_per_symbol)
    ops.check("BER counts are whole blocks", bool(whole_blocks))
    ops.check("BER points stop at target or cap", bool(np.all(stopped) and np.all(ber.n_errors <= ber.n_bits)))


# ---------------------------------------------------------------------------
# link-k128: bounds, CCDF and BER for identity and Haar sets, no optimizer


class LinkK128(Workload):
    name = "link-k128"
    SIZES = {
        "full": {"k": 128, "count": 8000, "budget": (20_000, 2_000_000)},
        "smoke": {"k": 16, "count": 800, "budget": (200, 20_000)},
    }
    N_SUBSETS = 8

    def setup(self, seed: int, size: str, work_root: Path) -> LibraryInputs:
        s = self.SIZES[size]
        const = core.QamConstellation.square(16)
        book = core.generate_codebook(const, s["k"], s["count"], self.N_SUBSETS, seed)
        basis = spectral.build_basis(s["k"])
        haar = optimizer.UnitarySet.random(self.N_SUBSETS, s["k"], np.random.default_rng([seed, 1]))
        identity = optimizer.UnitarySet.identity(self.N_SUBSETS, s["k"])
        link = channel.LinkConfig(
            ebn0_db=(6.0, 10.0, 14.0),
            oversampling=4,
            amplifier=channel.RappModel.from_backoff(book.p_av, 6.0, 2.0),
            seed=seed,
        )
        return LibraryInputs(
            seed, const, book, basis, gamma_grid(), link,
            unitary_sets={"identity": identity, "haar": haar}, ber_budget=s["budget"],
        )

    def run_pass(self, inputs: LibraryInputs, ops: Ops) -> dict:
        book, grid = inputs.codebook, inputs.grid
        # The identity goes in as None: the untransformed whole-codebook path.
        transforms = {"identity": None, "haar": inputs.unitary_sets["haar"]}
        reports, curves, bers = {}, {}, {}
        for label, w in transforms.items():
            with ops.stage("bounds"):
                reports[label] = ops.call(bounds.bound_report, book, inputs.basis, grid, w)
            with ops.stage("ccdf"):
                curves[label] = ops.call(waveform.empirical_ccdf, book, grid, w, J_CCDF)
        with ops.stage("bounds"):
            gram = ops.call(core.subset_gram, book, 0)
            gaussian = ops.call(bounds.gaussian_ccdf_bound, gram, inputs.basis, grid)
        for label, w in inputs.unitary_sets.items():
            with ops.stage("ber"):
                bers[label] = ops.call(
                    channel.ber_sweep, book, inputs.constellation, w, inputs.link, *inputs.ber_budget
                )
        return {"reports": reports, "curves": curves, "gaussian": gaussian, "bers": bers}

    def result(self, inputs, outputs) -> dict:
        labels = ("identity", "haar")
        curves, bers = outputs["curves"], outputs["bers"]
        return {
            "r": {label: float(outputs["reports"][label].r_value) for label in labels},
            "gaussian_bound": outputs["gaussian"].tolist(),
            "iterations": 0,
            "ccdf": {label: curves[label].ccdf.tolist() for label in labels},
            "ccdf_codewords": sum(curves[label].sample_count for label in labels),
            "ber_bits": {label: bers[label].n_bits.tolist() for label in labels},
            "ber_errors": {label: bers[label].n_errors.tolist() for label in labels},
        }

    def digest(self, inputs, outputs) -> str:
        arrays = [outputs["gaussian"]]
        for label in ("identity", "haar"):
            r = outputs["reports"][label]
            b = outputs["bers"][label]
            arrays += [np.array([r.r_value, r.a, r.b]), r.markov, r.hoeffding, outputs["curves"][label].ccdf]
            arrays += [b.ber, b.n_bits, b.n_errors, b.ci_low, b.ci_high]
        return digest_arrays(*arrays)

    def health(self, inputs, outputs, result) -> dict:
        return {
            "unitarity_error": unitarity_error(inputs.unitary_sets["haar"].matrices),
            "r_initial": result["r"]["identity"],
            "r_final": result["r"]["haar"],
        }

    def check(self, inputs, outputs, result, health, ops: Ops) -> None:
        ops.check("unitarity error <= 1e-8", health["unitarity_error"] <= UNITARITY_TOL)
        book = inputs.codebook
        for label, w in (("identity", None), ("haar", inputs.unitary_sets["haar"].matrices)):
            check_pmepr_sample(ops, inputs.seed, book.symbols, book.subset_sizes, w)
            expected = oracle_ccdf(book.symbols, book.subset_sizes, w, book.p_av, inputs.grid)
            ops.check(f"{label} CCDF matches oracle CCDF",
                      np.allclose(result["ccdf"][label], expected, rtol=0, atol=1e-12))
            check_ber_counts(ops, inputs, outputs["bers"][label], book.k_carriers)
        ops.check("Gaussian bound is positive and finite",
                  bool(np.all(np.isfinite(outputs["gaussian"])) and np.all(outputs["gaussian"] > 0)))

WORKLOADS = {w.name: w for w in (PipelineK64(), BatchGsK128(), LinkK128())}


def compare_with_reference(ops: Ops, result, reference, path: str = "") -> None:
    """Integers exactly; floats to 1e-9 relative (1e-12 absolute near 0)."""
    if isinstance(reference, dict):
        ops.check(f"reference keys {path or '/'}", isinstance(result, dict) and set(result) == set(reference))
        for key in reference:
            if isinstance(result, dict) and key in result:
                compare_with_reference(ops, result[key], reference[key], f"{path}/{key}")
        return
    got = np.asarray(result)
    want = np.asarray(reference)
    if got.shape != want.shape:
        ops.check(f"reference {path} shape", False)
    elif want.dtype.kind in "iu":
        ops.check(f"reference {path} exact", np.array_equal(got, want))
    else:
        ops.check(f"reference {path} to 1e-9", np.all(np.abs(got - want) <= 1e-9 * np.abs(want) + 1e-12))

