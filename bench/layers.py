"""Per-layer timings of paprbound over a sweep of carrier counts K.

Run from the root of a paprbound source checkout:

    python3 bench/layers.py --out BENCH_<n>.json

For each K in K_VALUES it builds one 16-QAM codebook (1000 codewords in
N = 5 subsets, so m = 200 per subset) and a Haar unitary set from SEED,
then times these layers, each REPEATS times after one untimed warm-up
call:

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
  the untransformed baseline of every BER comparison.

It prints the median and the interquartile range of each layer in ms and
writes them, with the machine, ``nproc``, the BLAS thread count and the
versions, to the JSON file named by ``--out``.  BLAS/OpenMP threads are
pinned to one before numpy is imported, as in ``perfbench/run.py``.

A/B mode compares this checkout with another source tree in one process:

    python3 bench/layers.py --ab <other-checkout>/src --out BENCH_<n>.json

It imports the other tree's ``paprbound`` under the name
``paprbound_parent`` next to this checkout's, builds each layer's inputs
in both from the same seeds, and alternates their samples layer by layer
(which tree goes first alternates too), so drift of the host between
processes does not enter the comparison.  Per layer it reports both
medians and quartiles, how many of the pairs this checkout won, and
whether every pair of outputs was byte-equal (otherwise the largest
relative difference).
"""

import os

THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
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


def timed(fn, repeats: int) -> list[float]:
    """Seconds per call of ``fn()`` over ``repeats`` calls, after one
    untimed warm-up call."""
    fn()
    samples = []
    for _ in range(repeats):
        started = perf_counter()
        fn()
        samples.append(perf_counter() - started)
    return samples


# Calls per timed sample, for layers whose sample is a chain of calls.
PER_SAMPLE = {"step_stochastic": CHAIN}


def layer_calls(pb, k: int) -> dict:
    """One zero-argument call per layer on the package ``pb``, each
    returning the layer's output."""
    const = pb.QamConstellation.square(QAM_ORDER)
    book = pb.generate_codebook(const, k, CODEWORDS, N_SUBSETS, seed=SEED)
    basis = pb.build_basis(k)
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
            state, _ = pb.step_stochastic(state, book, basis, stochastic)
        return state

    return {
        "build_basis": lambda: pb.build_basis(k),
        "step_stochastic": chain,
        "step_batch_symmetric": lambda: pb.step_batch(haar, book, basis, batch["symmetric_decorrelation"]),
        "step_batch_gram_schmidt": lambda: pb.step_batch(haar, book, basis, batch["gram_schmidt"]),
        "r_statistic": lambda: pb.r_statistic(book, basis, haar),
        "codebook_pmeprs_j16": lambda: pb.codebook_pmeprs(book, haar, 16),
        "ber_sweep_block": lambda: ber_block(haar),
        "ber_sweep_block_identity": lambda: ber_block(identity),
    }


def layer_samples(k: int, repeats: int) -> dict[str, list[float]]:
    return {name: [t / PER_SAMPLE.get(name, 1) for t in timed(fn, repeats)]
            for name, fn in layer_calls(paprbound, k).items()}


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
    structures differ)."""
    if len(got) != len(ref) or any(a.shape != b.shape for a, b in zip(got, ref)):
        return False, float("inf")
    equal = all(a.dtype == b.dtype and a.tobytes() == b.tobytes() for a, b in zip(got, ref))
    worst = 0.0
    for a, b in zip(got, ref):
        if a.size and a.dtype.kind in "iufc" and b.dtype.kind in "iufc":
            diff = float(np.abs(a.astype(np.complex128) - b).max())
            scale = float(np.abs(b).max())
            worst = max(worst, diff / scale if scale > 0 else (0.0 if diff == 0 else float("inf")))
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
        rows[name] = {
            **{side: summary(times[side]) for side in fns},
            "change_wins": sum(a < b for a, b in zip(times["change"], times["parent"])),
            "pairs": repeats,
            "outputs_byte_equal": equal,
            "max_rel_diff": worst,
        }
    return rows


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


def report(k_values=K_VALUES, repeats: int = REPEATS) -> dict:
    """Time every layer at each K, print one line per layer and return
    the JSON document."""
    layers = {}
    for k in k_values:
        layers[str(k)] = {name: summary(s) for name, s in layer_samples(k, repeats).items()}
        for name, row in layers[str(k)].items():
            print(f"K={k:<4d} {name:<24s} {row['median_ms']:10.3f} ms  "
                  f"IQR [{row['q1_ms']:.3f}, {row['q3_ms']:.3f}]")
    return {**header(repeats), "layers": layers}


def report_ab(parent_src, k_values=K_VALUES, repeats: int = REPEATS) -> dict:
    """A/B of this checkout against the tree at ``parent_src``: print one
    line per layer and return the JSON document."""
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
                  + f" ms  change won {row['change_wins']}/{row['pairs']}  {outputs}")
    return {**header(repeats), "ab": {"columns": ["parent", "change"], "parent_version": parent.__version__},
            "layers": layers}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--ab", metavar="PARENT_SRC", default=None,
                        help="directory holding another tree's paprbound package to compare against")
    args = parser.parse_args(argv)
    doc = report() if args.ab is None else report_ab(args.ab)
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
