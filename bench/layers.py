"""Per-layer and end-to-end timings of paprbound: an A/B of two source
trees in one process.

Run from the root of a paprbound source checkout:

    python3 bench/layers.py --ab <parent-checkout>/src --out BENCH_<n>.json

It imports the other tree's ``paprbound`` as ``paprbound_parent`` next
to this checkout's; without ``--ab`` that is this checkout's own
``src``, a self-A/B whose win counts and ratios show the host's noise
floor.

Layers.  For each K in K_VALUES each tree builds one 16-QAM codebook
(1000 codewords in N = 5 subsets, so m = 200 per subset) and a Haar
unitary set from SEED, and each layer is timed in REPEATS pairs after
one untimed warm-up call per tree:

* ``build_basis``: the 2K-point envelope grid and its check;
* ``step_stochastic``: one stochastic step with symmetric decorrelation.
  A sample is the mean over 256 chained steps that start on a fresh
  iteration, so it carries its share of the draws, which a plan
  replays up to 256 iterations at a time;
* ``step_batch_symmetric`` and ``step_batch_gram_schmidt``: one batch
  step with each projection.  Each config's steps share one
  ``optimizer._StepPlan`` built from the same book, as ``run``'s do;
* ``r_statistic``: the quartic statistic of the transformed book;
* ``codebook_pmeprs_j16``: the PMEPR of every transformed codeword at
  J = 16;
* ``ber_sweep_block``: one 256-codeword block of the BER sweep on the
  README link (J = 1, Rapp p = 2 at 2 dB backoff, E_b/N_0 = 8 dB);
* ``ber_sweep_block_identity``: the same block with the identity set,
  the untransformed baseline of every BER comparison.

End to end.  ``perfbench/workloads.py`` is executed once per tree, with
``paprbound`` naming that tree, and each workload in its ``WORKLOADS``
runs at perfbench's ``full`` size from SEED: the passes the benchmark
gates.  Per tree, one set-up and one untimed first pass through the
workload's ``result``, ``health`` and ``check`` (and ``reference.json``
at the full size), then REPEATS timed pairs of ``run_pass``.  A sample
is ``wall_s`` and perfbench's ``pass_rates``; ``setup_s`` and
``peak_rss_mb`` measure a whole process, which both trees share here,
so they are left out.  Passes compare by ``digest`` and, for the
pipeline, the printed lines with the work directory masked.  A change
median worse than the parent's by more than the metric's ``bound`` in
``BENCHMARK.json`` is flagged.

Samples alternate entry by entry, and so does which tree goes first, so
host drift between processes cancels.  One line is printed per layer,
per end-to-end metric and per workload (its differing outputs and each
tree's failed checks); ``--out`` gets both medians and quartiles
(layers in ms), the pairs each tree won, the per-pair ratio
change/parent (median and quartiles), the claim rule's two flags and
the output comparison, with the machine, ``nproc``, the BLAS threads
(pinned to one before numpy is imported, as in ``perfbench/run.py``)
and the versions.

The claim rule, both ways.  A row flags a gain (``meets_claim_rule``)
when the change won at least 90% of its pairs and its median beats the
parent's by more than the parent's interquartile range, and a loss
(``meets_loss_rule``) when the parent did.  At 15 pairs that is 14 wins,
as strict as a Holm correction at 0.05 over ~40 rows; still, read a
flag only on the row a change named beforehand.
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
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import paprbound  # noqa: E402

K_VALUES = (16, 64, 128, 256)
REPEATS = 15
SEED = 0  # codebook, Haar set, draw and noise seed
CODEWORDS = 1000
N_SUBSETS = 5
QAM_ORDER = 16
CHAIN = 256  # stochastic steps per sample: the most iterations one replay of the draws covers
BLOCK_CODEWORDS = 256
CLAIM_WINS = 0.9  # share of pairs a flagged gain or loss must win


def layer_calls(pb, k: int) -> dict:
    """One zero-argument call per layer on the package ``pb``, each
    returning the layer's output."""
    const = pb.QamConstellation.square(QAM_ORDER)
    book = pb.generate_codebook(const, k, CODEWORDS, N_SUBSETS, seed=SEED)
    haar = pb.UnitarySet.random(N_SUBSETS, k, np.random.default_rng([SEED, 1]))
    identity = pb.UnitarySet.identity(N_SUBSETS, k)

    def planned(step, **options):  # ``step`` as ``run`` takes it: with a plan for this book and config
        config = pb.OptimizerConfig(epsilon=k**-1.5 / 100, seed=SEED, **options)  # small enough that no step is refused
        plan = pb.optimizer._StepPlan(book, config)
        return lambda state: step(state, book, config, plan)

    stochastic = planned(pb.step_stochastic)
    batch = {p: planned(pb.step_batch, mode="batch", projection=p)
             for p in ("symmetric_decorrelation", "gram_schmidt")}
    link = pb.LinkConfig(ebn0_db=(8.0,), amplifier=pb.RappModel.from_backoff(book.p_av, 2.0, 2.0), seed=SEED)
    next_block = itertools.count(1)

    def ber_block(unitaries):
        return pb.ber_sweep(book, const, unitaries, link, target_errors=1 << 62,
                            max_symbols=BLOCK_CODEWORDS * k, block_codewords=BLOCK_CODEWORDS)

    def chain():
        state = pb.UnitarySet(haar.matrices, iteration=CHAIN * next(next_block))
        for _ in range(CHAIN):
            state, _ = stochastic(state)
        return state

    return {
        "build_basis": lambda: pb.build_basis(k),
        "step_stochastic": chain,
        "step_batch_symmetric": lambda: batch["symmetric_decorrelation"](haar),
        "step_batch_gram_schmidt": lambda: batch["gram_schmidt"](haar),
        "r_statistic": lambda: pb.r_statistic(book, haar),
        "codebook_pmeprs_j16": lambda: pb.codebook_pmeprs(book, haar, 16),
        "ber_sweep_block": lambda: ber_block(haar),
        "ber_sweep_block_identity": lambda: ber_block(identity),
    }


def exec_file(name: str, path: Path, binds_paprbound=None, **location):
    """Execute ``path`` as the module ``name``, registered in ``sys.modules``
    first (a dataclass looks its module up there); while it executes,
    ``paprbound`` names the package ``binds_paprbound``, if one is given."""
    spec = importlib.util.spec_from_file_location(name, path, **location)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    saved = sys.modules["paprbound"]
    sys.modules["paprbound"] = binds_paprbound or saved
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules["paprbound"] = saved
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
                times[side].append((perf_counter() - started) * 1e3 / (CHAIN if name == "step_stochastic" else 1))
            same, diff = compare(arrays(outputs["change"]), arrays(outputs["parent"]))
            equal, worst = equal and same, max(worst, diff)
        rows[name] = {"unit": "ms", **ab_row(times["change"], times["parent"], "lower"),
                      "outputs_byte_equal": equal, "max_rel_diff": worst}
    return rows


def compared_outputs(wl, inputs, outputs) -> dict:
    """What a workload pass is compared by: its digest and the lines each
    command printed, with the tree's work directory masked."""
    return {"digest": wl.digest(inputs, outputs),
            **{f"stdout {step}": text.replace(str(inputs.work_dir), "<work>")
               for step, text in outputs.get("stdout", {}).items()}}


def ab_workloads(parent, size: str, repeats: int) -> dict:
    """Alternating passes of every perfbench workload on this checkout
    and on ``parent``: each tree's first pass checked, then the metrics
    of ``repeats`` timed pairs against their bounds in BENCHMARK.json."""
    run = exec_file("perfbench_run", PERFBENCH / "run.py")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    trees = {}
    for side, pb in (("change", paprbound), ("parent", parent)):
        importlib.import_module(f"{pb.__name__}.cli")  # so that ``from paprbound import cli`` finds this tree's
        trees[side] = exec_file(f"workloads_{pb.__name__}", PERFBENCH / "workloads.py", pb)
    rows = {}
    with tempfile.TemporaryDirectory() as tmp:  # every set-up's files, removed at the end
        for name in trees["change"].WORKLOADS:
            wls = {side: tree.WORKLOADS[name] for side, tree in trees.items()}
            inputs = {side: wl.setup(SEED, size, Path(tmp)) for side, wl in wls.items()}
            reference = run.load_reference(argparse.Namespace(workload=name, seed=SEED, smoke=size == "smoke"))
            samples, failed, differing = {side: [] for side in trees}, {}, set()
            for i in range(repeats + 1):  # pair 0: the untimed, checked first passes
                compared = {}
                for side in ("change", "parent") if i % 2 == 0 else ("parent", "change"):
                    wl, ops = wls[side], trees[side].Ops()
                    started = perf_counter()
                    outputs = wl.run_pass(inputs[side], ops)
                    wall = perf_counter() - started
                    result = wl.result(inputs[side], outputs)
                    if i == 0:
                        wl.check(inputs[side], outputs, result, wl.health(inputs[side], outputs, result), ops)
                        if reference is not None:
                            trees[side].compare_with_reference(ops, result, reference)
                        failed[side] = ops.failures
                    else:
                        samples[side].append({"wall_s": wall, **run.pass_rates(result, ops.stages)})
                    compared[side] = compared_outputs(wl, inputs[side], outputs)
                    wl.cleanup(outputs)
                differing |= {key for key, value in compared["change"].items() if compared["parent"].get(key) != value}
            rows[name] = {"size": size, "metrics": {}, "outputs_byte_equal": not differing,
                          "differing_outputs": sorted(differing), "failed_checks": failed}
            for m in (m for m in metrics if m["name"] in samples["change"][0]):
                row = ab_row(*([s[m["name"]] for s in samples[side]] for side in ("change", "parent")), m["better"])
                rows[name]["metrics"][m["name"]] = {**m, **row, "beyond_bound": row["worse_by"] > m["bound"]}
    return rows


def ab_row(change: list[float], parent: list[float], better: str) -> dict:
    """Both sides' medians and quartiles, the pairs each side won in the
    ``better`` direction ("lower" or "higher"), how much worse the
    change's median is than the parent's, as a fraction of the parent's,
    and the per-pair ratios change/parent.  A side meets the claim rule
    when it won at least CLAIM_WINS of the pairs and its median beats the
    other's by more than the parent's interquartile range:
    ``meets_claim_rule`` for the change, ``meets_loss_rule`` for the parent."""
    sign = 1 if better == "lower" else -1
    samples = {"change": change, "parent": parent}
    row = {"parent": summary(parent), "change": summary(change), "pairs": len(change),
           "ratio": summary([c / p for c, p in zip(change, parent)])}
    parent_iqr = row["parent"]["q3"] - row["parent"]["q1"]

    def rule(side, other):  # the pairs ``side`` won, and whether it meets the claim rule
        wins = sum(sign * (o - s) > 0 for s, o in zip(samples[side], samples[other]))
        gain = sign * (row[other]["median"] - row[side]["median"])
        return wins, wins >= CLAIM_WINS * len(change) and gain > parent_iqr

    row["change_wins"], row["meets_claim_rule"] = rule("change", "parent")
    row["parent_wins"], row["meets_loss_rule"] = rule("parent", "change")
    return {**row, "worse_by": sign * (row["change"]["median"] / row["parent"]["median"] - 1)}


def summary(samples: list[float]) -> dict:
    q1, median, q3 = map(float, np.percentile(samples, [25, 50, 75]))
    return {"median": median, "q1": q1, "q3": q3, "samples": len(samples)}


def ab_line(label: str, row: dict, digits: str) -> str:
    ratio = row["ratio"]
    return (f"{label:<38s} " + "  ".join(f"{side} {row[side]['median']:{digits}} [{row[side]['q1']:{digits}}, "
                                         f"{row[side]['q3']:{digits}}]" for side in ("parent", "change"))
            + f" {row['unit']}  change won {row['change_wins']}/{row['pairs']}, lost {row['parent_wins']}"
            + f"  ratio {ratio['median']:.3f} [{ratio['q1']:.3f}, {ratio['q3']:.3f}]"
            + ("  claim rule: GAIN" if row["meets_claim_rule"] else "")
            + ("  claim rule: LOSS" if row["meets_loss_rule"] else ""))


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"platform": platform.platform(), "machine": platform.machine(), "cpu": cpu}


def header(repeats: int, size: str) -> dict:
    return {
        "machine": machine(),
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "paprbound": paprbound.__version__},
        "setup": {"codewords": CODEWORDS, "n_subsets": N_SUBSETS, "qam_order": QAM_ORDER,
                  "repeats": repeats, "seed": SEED, "stochastic_chain": CHAIN, "workload_size": size},
    }


def report(parent_src=ROOT / "src", k_values=K_VALUES, repeats: int = REPEATS, size: str = "full") -> dict:
    """A/B of this checkout against the tree at ``parent_src`` (by
    default itself): print one line per layer, end-to-end metric and
    workload, and return the JSON document."""
    pkg = Path(parent_src) / "paprbound"  # its modules import each other relatively
    parent = exec_file("paprbound_parent", pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    layers = {}
    for k in k_values:
        layers[str(k)] = ab_layers(parent, k, repeats)
        for name, row in layers[str(k)].items():
            outputs = "outputs byte-equal" if row["outputs_byte_equal"] else f"max rel diff {row['max_rel_diff']:.2e}"
            print(ab_line(f"K={k:<4d} {name}", row, ".3f") + f"  {outputs}")
    end_to_end = ab_workloads(parent, size, repeats)
    for name, workload in end_to_end.items():
        for metric, row in workload["metrics"].items():
            verdict = "BEYOND" if row["beyond_bound"] else "within"
            print(ab_line(f"{name} {metric}", row, ".4g") + f"  worse by {row['worse_by']:+.1%}: {verdict} "
                  f"its bound {row['bound']:.0%}")
        failed = "; ".join(f"{side} {', '.join(names) or 'none'}" for side, names in workload["failed_checks"].items())
        differing = ", ".join(workload["differing_outputs"]) or "none"
        print(f"{name} outputs differing: {differing}; failed checks: {failed}")
    return {**header(repeats, size), "ab": {"columns": ["parent", "change"], "parent_version": parent.__version__},
            "layers": layers, "end_to_end": end_to_end}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--ab", metavar="PARENT_SRC", default=ROOT / "src",
                        help="directory holding the paprbound package to compare against "
                             "(default: this checkout's own src)")
    args = parser.parse_args(argv)
    Path(args.out).write_text(json.dumps(report(args.ab), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
