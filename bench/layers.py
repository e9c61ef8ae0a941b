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
"""

import os

THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
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
from paprbound.bounds import r_statistic  # noqa: E402
from paprbound.channel import LinkConfig, RappModel, ber_sweep  # noqa: E402
from paprbound.core import QamConstellation, generate_codebook  # noqa: E402
from paprbound.optimizer import OptimizerConfig, UnitarySet, step_batch, step_stochastic  # noqa: E402
from paprbound.spectral import build_basis  # noqa: E402
from paprbound.waveform import codebook_pmeprs  # noqa: E402

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


def layer_samples(k: int, repeats: int) -> dict[str, list[float]]:
    const = QamConstellation.square(QAM_ORDER)
    book = generate_codebook(const, k, CODEWORDS, N_SUBSETS, seed=SEED)
    basis = build_basis(k)
    haar = UnitarySet.random(N_SUBSETS, k, np.random.default_rng([SEED, 1]))
    identity = UnitarySet.identity(N_SUBSETS, k)
    epsilon = k**-1.5 / 100  # small enough that no step is refused
    stochastic = OptimizerConfig(epsilon=epsilon, seed=SEED)
    batch = {p: OptimizerConfig(epsilon=epsilon, mode="batch", projection=p)
             for p in ("symmetric_decorrelation", "gram_schmidt")}
    link = LinkConfig(ebn0_db=(8.0,), amplifier=RappModel.from_backoff(book.p_av, 2.0, 2.0), seed=SEED)
    next_block = itertools.count(1)

    def ber_block(unitaries):
        return ber_sweep(book, const, unitaries, link, target_errors=1 << 62,
                         max_symbols=BLOCK_CODEWORDS * k, block_codewords=BLOCK_CODEWORDS)

    def chain():
        state = UnitarySet(haar.matrices, iteration=CHAIN * next(next_block))
        for _ in range(CHAIN):
            state, _ = step_stochastic(state, book, basis, stochastic)

    samples = {
        "build_basis": timed(lambda: build_basis(k), repeats),
        "step_stochastic": [t / CHAIN for t in timed(chain, repeats)],
        "step_batch_symmetric": timed(lambda: step_batch(haar, book, basis, batch["symmetric_decorrelation"]), repeats),
        "step_batch_gram_schmidt": timed(lambda: step_batch(haar, book, basis, batch["gram_schmidt"]), repeats),
        "r_statistic": timed(lambda: r_statistic(book, basis, haar), repeats),
        "codebook_pmeprs_j16": timed(lambda: codebook_pmeprs(book, haar, 16), repeats),
        "ber_sweep_block": timed(lambda: ber_block(haar), repeats),
        "ber_sweep_block_identity": timed(lambda: ber_block(identity), repeats),
    }
    return samples


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


def report(k_values=K_VALUES, repeats: int = REPEATS) -> dict:
    """Time every layer at each K, print one line per layer and return
    the JSON document."""
    layers = {}
    for k in k_values:
        layers[str(k)] = {name: summary(s) for name, s in layer_samples(k, repeats).items()}
        for name, row in layers[str(k)].items():
            print(f"K={k:<4d} {name:<24s} {row['median_ms']:10.3f} ms  "
                  f"IQR [{row['q1_ms']:.3f}, {row['q3_ms']:.3f}]")
    return {
        "machine": machine(),
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "paprbound": paprbound.__version__},
        "setup": {"codewords": CODEWORDS, "n_subsets": N_SUBSETS, "qam_order": QAM_ORDER,
                  "repeats": repeats, "seed": SEED, "stochastic_chain": CHAIN},
        "layers": layers,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    Path(args.out).write_text(json.dumps(report(), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
