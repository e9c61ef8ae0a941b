"""Per-layer timings of paprbound over a sweep of carrier counts K: an
A/B of two source trees in one process.

Run from the root of a paprbound source checkout:

    python3 bench/layers.py --ab <parent-checkout>/src --out BENCH_<n>.json

It imports the other tree's ``paprbound`` as ``paprbound_parent`` next
to this checkout's; without ``--ab`` that is this checkout's own
``src``, a self-A/B whose win counts and p-values show the host's noise
floor.  For each K in K_VALUES each tree builds one 16-QAM codebook
(1000 codewords in N = 5 subsets, so m = 200 per subset) and a Haar
unitary set from SEED, and each layer is timed in REPEATS pairs after
one untimed warm-up call per tree:

* ``build_basis``: the 2K-point envelope grid and its check;
* ``step_stochastic``: one stochastic step with symmetric decorrelation.
  A sample is the mean over 256 chained steps that start on a fresh
  multiple of 256 iterations, so it carries its share of the draws that
  are made 256 iterations at a time;
* ``step_batch_symmetric`` and ``step_batch_gram_schmidt``: one batch
  step with each projection;
* ``r_statistic``: the quartic statistic of the transformed book;
* ``codebook_pmeprs_j16``: the PMEPR of every transformed codeword at
  J = 16;
* ``ber_sweep_block``: one 256-codeword block of the BER sweep on the
  README link (J = 1, Rapp p = 2 at 2 dB backoff, E_b/N_0 = 8 dB);
* ``ber_sweep_block_identity``: the same block with the identity set,
  the untransformed baseline of every BER comparison;
* ``pipeline_cli``: the README pipeline ``gen -> bounds -> optimize ->
  ccdf -> ber -> verify`` end to end through the tree's ``cli.main``,
  with the settings of perfbench's ``pipeline-k64`` (``max_iters`` 200,
  ``checkpoint_every`` 100) at this K, into a fresh temporary directory
  per sample.  Its output is the sha256 of every artifact and manifest
  and of the lines printed to stdout and stderr (the temporary path
  masked), so the comparison is byte-equality only;
* ``batch_gs_workload``: perfbench's ``batch-gs-k128`` at this K: ``run``
  with 10 batch Gram-Schmidt steps (2000 codewords, N = 5, epsilon
  K^-3/2 / 100), then the J = 16 CCDF and the BER sweep on the README
  link (E_b/N_0 = 4, 8, 12 dB) with the optimized set, one block per
  point.  The trace enters the comparison without its wall-clock field;
* ``link_workload``: perfbench's ``link-k128`` at this K (8000 codewords,
  N = 8): ``bound_report`` and the J = 16 CCDF without a set and with
  the Haar set, the Gaussian bound of subset 0, and the BER sweep of the
  identity and the Haar set (J = 4, Rapp p = 2 at 6 dB backoff,
  E_b/N_0 = 6, 10, 14 dB), capped at LINK_BER_BLOCKS blocks per point.

The trees' samples alternate layer by layer, and so does which tree goes
first, so drift of the host between processes does not enter the
comparison.  Per layer one line is printed, and the JSON file named by
``--out`` gives both medians and quartiles in ms, how many pairs this
checkout ("change") won, the two-sided sign-test p-value of that count,
and whether every pair of outputs was byte-equal (otherwise the largest
relative difference), with the machine, ``nproc``, the BLAS thread
count and the versions.  BLAS/OpenMP threads are pinned to one before
numpy is imported, as in ``perfbench/run.py``.
"""

import os

THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from io import StringIO  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import paprbound  # noqa: E402

K_VALUES = (16, 64, 128, 256)
REPEATS = 15
SEED = 0  # codebook, Haar set, draw and noise seed
CODEWORDS = 1000
N_SUBSETS = 5
QAM_ORDER = 16
CHAIN = 256  # stochastic steps per sample: one block of draws
BLOCK_CODEWORDS = 256
# The README config with perfbench pipeline-k64's run length; K and the seed are the sweep's.
PIPELINE_CONFIG = {
    "version": 1, "qam_order": QAM_ORDER, "codebook_size": CODEWORDS, "n_subsets": N_SUBSETS, "epsilon": 1e-3,
    "max_iters": 200, "checkpoint_every": 100, "gamma_grid_db": {"start": 4.0, "stop": 13.0, "step": 0.25},
    "ebn0_grid_db": [4.0, 8.0, 12.0], "rapp": {"enabled": True, "p": 2.0, "backoff_db": 2.0}, "seed": SEED,
    "out_dir": "runs/layers",  # unused: every command gets --out, so config_hash names no temporary path
}
# Sizes of perfbench's two library workloads; the link's BER stops after
# LINK_BER_BLOCKS blocks per point.
BATCH_GS_CODEWORDS = 2000
BATCH_GS_STEPS = 10
LINK_CODEWORDS = 8000
LINK_SUBSETS = 8
LINK_BER_BLOCKS = 4


# Calls per timed sample, for layers whose sample is a chain of calls.
PER_SAMPLE = {"step_stochastic": CHAIN}


def layer_calls(pb, k: int) -> dict:
    """One zero-argument call per layer on the package ``pb``, each
    returning the layer's output."""
    const = pb.QamConstellation.square(QAM_ORDER)
    book = pb.generate_codebook(const, k, CODEWORDS, N_SUBSETS, seed=SEED)
    haar = pb.UnitarySet.random(N_SUBSETS, k, np.random.default_rng([SEED, 1]))
    identity = pb.UnitarySet.identity(N_SUBSETS, k)
    epsilon = k**-1.5 / 100  # small enough that no step is refused
    stochastic = pb.OptimizerConfig(epsilon=epsilon, seed=SEED)
    batch = {p: pb.OptimizerConfig(epsilon=epsilon, mode="batch", projection=p)
             for p in ("symmetric_decorrelation", "gram_schmidt")}
    link = pb.LinkConfig(ebn0_db=(8.0,), amplifier=pb.RappModel.from_backoff(book.p_av, 2.0, 2.0), seed=SEED)
    next_block = itertools.count(1)

    def ber_block(unitaries):
        return pb.ber_sweep(book, const, unitaries, link, target_errors=1 << 62,
                            max_symbols=BLOCK_CODEWORDS * k, block_codewords=BLOCK_CODEWORDS)

    def chain():
        state = pb.UnitarySet(haar.matrices, iteration=CHAIN * next(next_block))
        for _ in range(CHAIN):
            state, _ = pb.step_stochastic(state, book, stochastic)
        return state

    cli = importlib.import_module(f"{pb.__name__}.cli")

    def pipeline():
        with tempfile.TemporaryDirectory() as tmp:
            config, out = Path(tmp) / "config.json", Path(tmp) / "out"
            config.write_text(json.dumps({**PIPELINE_CONFIG, "k_carriers": k}))
            codebook, unitaries = out / "codebook.bin", out / "unitaries.bin"
            printed = StringIO()
            for argv in (["gen"], ["bounds", codebook], ["optimize", codebook],
                         ["ccdf", "--unitaries", unitaries, codebook], ["ber", "--unitaries", unitaries, codebook],
                         ["verify", "--unitaries", unitaries, codebook]):
                with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
                    code = cli.main([argv[0], "--config", str(config), "--out", str(out), *map(str, argv[1:])])
                if code != 0:
                    raise RuntimeError(f"{pb.__name__} {argv[0]} exited with {code}")
            files = [printed.getvalue().replace(tmp, "<tmp>").encode()]
            files += [path.read_bytes() for path in sorted(out.iterdir())]
            return np.array([hashlib.sha256(data).digest() for data in files])

    basis = pb.build_basis(k)
    grid = pb.db_to_linear(pb.default_gamma_grid_db())
    gs_book = pb.generate_codebook(const, k, BATCH_GS_CODEWORDS, N_SUBSETS, seed=SEED)
    gs_config = pb.OptimizerConfig(epsilon=epsilon, max_iters=BATCH_GS_STEPS, mode="batch",
                                   projection="gram_schmidt", seed=SEED, checkpoint_every=BATCH_GS_STEPS)
    gs_link = pb.LinkConfig(ebn0_db=(4.0, 8.0, 12.0), amplifier=pb.RappModel.from_backoff(gs_book.p_av, 2.0, 2.0),
                            seed=SEED)

    def batch_gs_workload():
        state, trace = pb.run(gs_book, basis, gs_config)
        curve = pb.empirical_ccdf(gs_book, grid, state, 16)
        ber = pb.ber_sweep(gs_book, const, state, gs_link, target_errors=1 << 62,
                           max_symbols=BLOCK_CODEWORDS * k, block_codewords=BLOCK_CODEWORDS)
        return state, np.array([(p.iteration, p.r_value, p.max_step_norm) for p in trace]), curve, ber

    link_book = pb.generate_codebook(const, k, LINK_CODEWORDS, LINK_SUBSETS, seed=SEED)
    link_haar = pb.UnitarySet.random(LINK_SUBSETS, k, np.random.default_rng([SEED, 1]))
    link_sets = (pb.UnitarySet.identity(LINK_SUBSETS, k), link_haar)
    wide_link = pb.LinkConfig(ebn0_db=(6.0, 10.0, 14.0), oversampling=4,
                              amplifier=pb.RappModel.from_backoff(link_book.p_av, 6.0, 2.0), seed=SEED)

    def link_workload():
        outputs = [pb.gaussian_ccdf_bound(pb.subset_gram(link_book, 0), basis, grid)]
        for unitaries in (None, link_haar):  # None: the untransformed whole-codebook path
            outputs += [pb.bound_report(link_book, basis, grid, unitaries),
                        pb.empirical_ccdf(link_book, grid, unitaries, 16)]
        for unitaries in link_sets:
            outputs.append(pb.ber_sweep(link_book, const, unitaries, wide_link, target_errors=20_000,
                                        max_symbols=LINK_BER_BLOCKS * BLOCK_CODEWORDS * k,
                                        block_codewords=BLOCK_CODEWORDS))
        return outputs

    return {
        "build_basis": lambda: pb.build_basis(k),
        "step_stochastic": chain,
        "step_batch_symmetric": lambda: pb.step_batch(haar, book, batch["symmetric_decorrelation"]),
        "step_batch_gram_schmidt": lambda: pb.step_batch(haar, book, batch["gram_schmidt"]),
        "r_statistic": lambda: pb.r_statistic(book, haar),
        "codebook_pmeprs_j16": lambda: pb.codebook_pmeprs(book, haar, 16),
        "ber_sweep_block": lambda: ber_block(haar),
        "ber_sweep_block_identity": lambda: ber_block(identity),
        "pipeline_cli": pipeline,
        "batch_gs_workload": batch_gs_workload,
        "link_workload": link_workload,
    }


def load_tree(src, name: str = "paprbound_parent"):
    """Import the ``paprbound`` package of another source tree as
    ``name`` (its modules import each other relatively)."""
    pkg = Path(src) / "paprbound"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def arrays(output) -> list[np.ndarray]:
    """A layer's output as a flat list of arrays: sequences and objects
    (dataclasses, the spectral basis) are taken apart field by field."""
    if isinstance(output, np.ndarray):
        return [output]
    if isinstance(output, (tuple, list)):
        return [a for item in output for a in arrays(item)]
    if hasattr(output, "__dict__"):
        return [a for _, value in sorted(vars(output).items()) for a in arrays(value)]
    return [np.asarray(output)]


def compare(got: list[np.ndarray], ref: list[np.ndarray]) -> tuple[bool, float]:
    """Whether two outputs are byte-equal, and the largest
    max|got - ref| / max|ref| over their numeric arrays (inf when the
    structures differ, or a non-numeric array such as a digest does)."""
    if len(got) != len(ref) or any(a.shape != b.shape for a, b in zip(got, ref)):
        return False, float("inf")
    worst = 0.0
    for a, b in zip(got, ref):
        # A byte-equal array adds nothing, though it may hold NaN (an invalid Hoeffding bound).
        if not a.size or a.dtype == b.dtype and a.tobytes() == b.tobytes():
            continue
        if a.dtype.kind not in "iufc" or b.dtype.kind not in "iufc":
            return False, float("inf")
        diff = float(np.abs(a.astype(np.complex128) - b).max())
        scale = float(np.abs(b).max())
        worst = max(worst, diff / scale if scale > 0 else (0.0 if diff == 0 else float("inf")))
    equal = all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(got, ref))
    return equal, worst


def ab_layers(parent, k: int, repeats: int) -> dict:
    """Alternating samples of every layer on this checkout ("change")
    and on ``parent``, with the output comparison of every pair."""
    calls = {"change": layer_calls(paprbound, k), "parent": layer_calls(parent, k)}
    rows = {}
    for name in calls["change"]:
        fns = {side: calls[side][name] for side in calls}
        for fn in fns.values():
            fn()  # warm-up
        times = {side: [] for side in fns}
        equal, worst = True, 0.0
        for i in range(repeats):
            outputs = {}
            for side in ("change", "parent") if i % 2 == 0 else ("parent", "change"):
                started = perf_counter()
                outputs[side] = fns[side]()
                times[side].append((perf_counter() - started) / PER_SAMPLE.get(name, 1))
            same, diff = compare(arrays(outputs["change"]), arrays(outputs["parent"]))
            equal, worst = equal and same, max(worst, diff)
        wins = sum(a < b for a, b in zip(times["change"], times["parent"]))
        losses = sum(a > b for a, b in zip(times["change"], times["parent"]))
        rows[name] = {
            **{side: summary(times[side]) for side in fns},
            "change_wins": wins,
            "pairs": repeats,
            "sign_test_p": sign_test_p(wins, losses),
            "outputs_byte_equal": equal,
            "max_rel_diff": worst,
        }
    return rows


def sign_test_p(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of ``wins`` against ``losses`` (ties
    are counted for neither side)."""
    n = wins + losses
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2 * tail / 2**n)


def summary(samples: list[float]) -> dict:
    q1, median, q3 = np.percentile(np.asarray(samples) * 1e3, [25, 50, 75])
    return {"median_ms": median, "q1_ms": q1, "q3_ms": q3, "samples": len(samples)}


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"platform": platform.platform(), "machine": platform.machine(), "cpu": cpu}


def header(repeats: int) -> dict:
    return {
        "machine": machine(),
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "paprbound": paprbound.__version__},
        "setup": {"codewords": CODEWORDS, "n_subsets": N_SUBSETS, "qam_order": QAM_ORDER,
                  "repeats": repeats, "seed": SEED, "stochastic_chain": CHAIN},
    }


def report(parent_src=ROOT / "src", k_values=K_VALUES, repeats: int = REPEATS) -> dict:
    """A/B of this checkout against the tree at ``parent_src`` (by
    default itself): print one line per layer and return the JSON
    document."""
    parent = load_tree(parent_src)
    layers = {}
    for k in k_values:
        layers[str(k)] = ab_layers(parent, k, repeats)
        for name, row in layers[str(k)].items():
            outputs = ("outputs byte-equal" if row["outputs_byte_equal"]
                       else f"max rel diff {row['max_rel_diff']:.2e}")
            print(f"K={k:<4d} {name:<24s} "
                  + "  ".join(f"{side} {row[side]['median_ms']:.3f} [{row[side]['q1_ms']:.3f}, "
                              f"{row[side]['q3_ms']:.3f}]" for side in ("parent", "change"))
                  + f" ms  change won {row['change_wins']}/{row['pairs']} (p {row['sign_test_p']:.3g})  {outputs}")
    return {**header(repeats), "ab": {"columns": ["parent", "change"], "parent_version": parent.__version__},
            "layers": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--ab", metavar="PARENT_SRC", default=ROOT / "src",
                        help="directory holding the paprbound package to compare against "
                             "(default: this checkout's own src)")
    args = parser.parse_args(argv)
    doc = report(args.ab)
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
