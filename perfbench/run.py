"""Benchmark for paprbound.

Run from the root of a paprbound source checkout:

    python3 perfbench/run.py --workload pipeline-k64 --seed 0 --seconds 30 --trace 0

Workloads: pipeline-k64, batch-gs-k128, link-k128 (see workloads.py for
why each exists).  One process, one workload, closed loop: passes run
back to back until the timed passes add up to ``--seconds``.

``--trace 0`` reports the end-to-end metrics: the median pass time
(``wall_s``), the median set-up time over fresh processes (``setup_s``),
PMEPR and BER throughput, and peak RSS.  ``--trace 1`` runs one untraced
pass, then one pass with spans around the calls into each module, and
reports the per-layer metrics; its outputs must equal the untraced ones.
Every pass's outputs are checked; the default seed's are also compared
with ``reference.json``.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import os

# Pin BLAS/OpenMP threads before anything imports numpy.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_tmp"
TRACE_DIR = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"

WORKLOAD_NAMES = ("pipeline-k64", "batch-gs-k128", "link-k128")
DEFAULT_SEED = 0
SETUP_REPEATS = 7

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "pmepr_codewords_per_s": "1/s",
    "ber_bits_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# name -> (unit, span name or value name, what to report).  "calls",
# "s", "ms" and "self_ms" read the spans of that name; "value" reads a
# tracer counter, a health value or a whole-run value.
PER_LAYER = {
    **{f"cli.{step}.s": ("s", f"cli.{step}", "s")
       for step in ("gen", "bounds", "optimize", "ccdf", "ber", "verify")},
    "core.generate_codebook.ms": ("ms", "core.generate_codebook", "ms"),
    "core.load_codebook.calls": ("count", "core.load_codebook", "calls"),
    "core.load_codebook.ms": ("ms", "core.load_codebook", "ms"),
    "core.save_codebook.ms": ("ms", "core.save_codebook", "ms"),
    "core.bytes_io": ("B", "core.bytes_io", "value"),
    "spectral.build_basis.calls": ("count", "spectral.build_basis", "calls"),
    "spectral.build_basis.ms": ("ms", "spectral.build_basis", "ms"),
    "spectral.quartic_sum.calls": ("count", "spectral.quartic_sum", "calls"),
    "spectral.quartic_sum.self_ms": ("ms", "spectral.quartic_sum", "self_ms"),
    "bounds.r_statistic.calls": ("count", "bounds.r_statistic", "calls"),
    "bounds.r_statistic.self_ms": ("ms", "bounds.r_statistic", "self_ms"),
    "bounds.gaussian_ccdf_bound.ms": ("ms", "bounds.gaussian_ccdf_bound", "ms"),
    "optimizer.steps": ("count", "optimizer.step", "calls"),
    "optimizer.step.self_ms": ("ms", "optimizer.step", "self_ms"),
    "optimizer.project_symmetric.calls": ("count", "optimizer.project_symmetric", "calls"),
    "optimizer.project_symmetric.self_ms": ("ms", "optimizer.project_symmetric", "self_ms"),
    "optimizer.project_gram_schmidt.calls": ("count", "optimizer.project_gram_schmidt", "calls"),
    "optimizer.project_gram_schmidt.self_ms": ("ms", "optimizer.project_gram_schmidt", "self_ms"),
    "optimizer.delta_w.calls": ("count", "optimizer.delta_w", "calls"),
    "optimizer.delta_w.self_ms": ("ms", "optimizer.delta_w", "self_ms"),
    "optimizer.checkpoint_r.ms": ("ms", "optimizer.checkpoint_r", "ms"),
    "optimizer.unitarity_error": ("norm", "unitarity_error", "value"),
    "optimizer.r_initial": ("R", "r_initial", "value"),
    "optimizer.r_final": ("R", "r_final", "value"),
    "optimizer.r_ratio": ("ratio", "r_ratio", "value"),
    "waveform.codebook_pmeprs.calls": ("count", "waveform.codebook_pmeprs", "calls"),
    "waveform.codebook_pmeprs.self_ms": ("ms", "waveform.codebook_pmeprs", "self_ms"),
    "waveform.codewords": ("count", "waveform.codewords", "value"),
    "waveform.oversampled_bytes": ("B", "waveform.oversampled_bytes", "value"),
    "channel.ber_sweep.self_ms": ("ms", "channel.ber_sweep", "self_ms"),
    "channel.bits": ("count", "channel.bits", "value"),
    "channel.errors": ("count", "channel.errors", "value"),
    "channel.blocks": ("count", "channel.blocks", "value"),
    "channel.points_stopped_by_cap": ("count", "channel.points_stopped_by_cap", "value"),
    "trace.overhead_s": ("s", "overhead_s", "value"),
    "optimize_iters_per_s": ("1/s", "optimize_iters_per_s", "value"),
    "failed_op_ratio": ("ratio", "failed_op_ratio", "value"),
}


def import_package():
    """Import paprbound from this checkout's src/, and only from there."""
    if not (SRC / "paprbound" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'paprbound'} not found; run from a paprbound source checkout")
    sys.path.insert(0, str(SRC))
    import paprbound.cli

    if Path(paprbound.__file__).resolve().parent != (SRC / "paprbound").resolve():
        sys.exit(f"error: imported paprbound from {paprbound.__file__}, not from {SRC}")


def size_of(args) -> str:
    return "smoke" if args.smoke else "full"


def setup_probe(args) -> None:
    """One set-up in this fresh process: import paprbound, then build the
    workload's inputs.  Prints the seconds spent."""
    started = perf_counter()
    import_package()
    imported = perf_counter()
    import workloads

    work_root = WORK_ROOT / f"probe-{os.getpid()}"
    begun = perf_counter()
    inputs = workloads.WORKLOADS[args.workload].setup(args.seed, size_of(args), work_root)
    done = perf_counter()
    workloads.WORKLOADS[args.workload].teardown(inputs)
    shutil.rmtree(work_root, ignore_errors=True)
    print(json.dumps({"setup_s": (imported - started) + (done - begun), "import_s": imported - started}))


def measure_setup(args) -> list:
    command = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        command.append("--smoke")
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            sys.exit(f"error: set-up probe exited with {done.returncode}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": size_of(args),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def load_reference(args):
    if args.smoke or args.seed != DEFAULT_SEED:
        return None
    return json.loads(REFERENCE.read_text())[args.workload]


def total_bits(result) -> int:
    bits = result["ber_bits"]
    return sum(sum(v) for v in bits.values()) if isinstance(bits, dict) else sum(bits)


def pass_rates(result, stages) -> dict:
    rates = {
        "pmepr_codewords_per_s": result["ccdf_codewords"] / stages["ccdf"],
        "ber_bits_per_s": total_bits(result) / stages["ber"],
    }
    if result["iterations"]:
        rates["optimize_iters_per_s"] = result["iterations"] / stages["optimize"]
    return rates


def check_first_pass(wl, inputs, outputs, ops, reference):
    """Seed-independent checks, then the reference for the default seed.
    Returns the outputs' digest and the optimizer health values."""
    from workloads import compare_with_reference

    result = wl.result(inputs, outputs)
    health = wl.health(inputs, outputs, result)
    wl.check(inputs, outputs, result, health, ops)
    if reference is not None:
        compare_with_reference(ops, result, reference)
    return wl.digest(inputs, outputs), health


def timed_run(args, wl, work_root):
    from workloads import Ops

    ops = Ops()
    reference = load_reference(args)
    inputs = wl.setup(args.seed, size_of(args), work_root)
    passes = []
    first_digest = None
    timed = 0.0
    try:
        while timed < args.seconds:
            ops.stages = {}
            started = perf_counter()
            outputs = wl.run_pass(inputs, ops)
            wall = perf_counter() - started
            timed += wall
            result = wl.result(inputs, outputs)
            if first_digest is None:
                first_digest, _ = check_first_pass(wl, inputs, outputs, ops, reference)
            else:
                ops.check("rerun outputs byte-identical", wl.digest(inputs, outputs) == first_digest)
            passes.append({"wall_s": wall, **pass_rates(result, ops.stages)})
            wl.cleanup(outputs)
    except Exception as exc:  # a failed layer call ends the run; it is counted, not hidden
        traceback.print_exc()
        ops.failures.append(f"{type(exc).__name__}: {exc}")
    finally:
        wl.teardown(inputs)
    return ops, passes


def traced_run(args, wl, work_root, env):
    from tracer import Tracer
    from workloads import Ops

    ops = Ops()
    reference = load_reference(args)
    tracer = Tracer()
    try:
        inputs = wl.setup(args.seed, size_of(args), work_root)
        started = perf_counter()
        outputs = wl.run_pass(inputs, ops)
        untraced_wall = perf_counter() - started
        rates = pass_rates(wl.result(inputs, outputs), ops.stages)
        untraced_digest, health = check_first_pass(wl, inputs, outputs, ops, reference)
        wl.cleanup(outputs)
        wl.teardown(inputs)

        ops.tracer = tracer
        tracer.install()
        if tracer.missing:
            print("not traced (call site not found): " + ", ".join(tracer.missing), file=sys.stderr)
        try:
            with tracer.span("setup"):
                inputs = wl.setup(args.seed, size_of(args), work_root)
            started = perf_counter()
            with tracer.span("pass"):
                outputs = wl.run_pass(inputs, ops)
            traced_wall = perf_counter() - started
        finally:
            tracer.restore()
            ops.tracer = None
        ops.check("traced outputs byte-identical to untraced", wl.digest(inputs, outputs) == untraced_digest)
        wl.cleanup(outputs)
        wl.teardown(inputs)
    except Exception as exc:  # counted as a failed operation, then reported
        traceback.print_exc()
        ops.failures.append(f"{type(exc).__name__}: {exc}")
        return ops, None

    totals = tracer.totals()
    values = {
        **tracer.counts,
        **health,
        "r_ratio": health["r_final"] / health["r_initial"],
        "overhead_s": traced_wall - untraced_wall,
        "optimize_iters_per_s": rates.get("optimize_iters_per_s", 0.0),
        "failed_op_ratio": len(ops.failures) / ops.attempted,
    }
    metrics = {}
    for name, (unit, key, kind) in PER_LAYER.items():
        if kind == "value":
            value = values.get(key, 0)
        else:
            span = totals.get(key, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            value = {
                "calls": span["calls"],
                "s": span["total_s"],
                "ms": span["total_s"] * 1e3,
                "self_ms": span["self_s"] * 1e3,
            }[kind]
        metrics[name] = {"value": value, "unit": unit}
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.write(
        TRACE_DIR / f"trace-{args.workload}-{size_of(args)}-seed{args.seed}.json",
        {"environment": env, "metrics": metrics, "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall},
    )
    return ops, metrics


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def end_to_end(passes, setup_samples) -> dict:
    values = {
        "wall_s": [p["wall_s"] for p in passes],
        "setup_s": [s["setup_s"] for s in setup_samples],
        "pmepr_codewords_per_s": [p["pmepr_codewords_per_s"] for p in passes],
        "ber_bits_per_s": [p["ber_bits_per_s"] for p in passes],
    }
    metrics = {}
    for name, samples in values.items():
        low, high = quartiles(samples)
        print(f"{name:24s} {statistics.median(samples):.6g} {END_TO_END_UNITS[name]}"
              f"  (median of {len(samples)}; quartiles {low:.6g} .. {high:.6g})")
        metrics[name] = {"value": statistics.median(samples), "unit": END_TO_END_UNITS[name]}
    print("pass wall_s " + " ".join(f"{p['wall_s']:.4f}" for p in passes))
    iters = [p["optimize_iters_per_s"] for p in passes if "optimize_iters_per_s" in p]
    if iters:
        print(f"{'optimize_iters_per_s':24s} {statistics.median(iters):.6g} 1/s  (median of {len(iters)})")
    imports = [s["import_s"] for s in setup_samples]
    print(f"{'setup import share':24s} {statistics.median(imports):.6g} s of setup_s")
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{'peak_rss_mb':24s} {rss:.6g} MB")
    metrics["peak_rss_mb"] = {"value": rss, "unit": "MB"}
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Benchmark the paprbound pipeline, optimizer and link.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0, help="timed passes add up to at least this")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="K=16 sizes, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    import_package()
    setup_samples = [] if args.trace else measure_setup(args)
    import workloads

    env = environment(args)
    print("environment " + json.dumps(env, sort_keys=True))
    wl = workloads.WORKLOADS[args.workload]
    work_root = WORK_ROOT / f"run-{os.getpid()}"
    try:
        if args.trace:
            ops, metrics = traced_run(args, wl, work_root, env)
        else:
            ops, passes = timed_run(args, wl, work_root)
            metrics = end_to_end(passes, setup_samples) if passes else None
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    for failure in ops.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"{'failed_op_ratio':24s} {len(ops.failures) / max(ops.attempted, 1):.6g} ratio"
          f"  ({len(ops.failures)} failed / {ops.attempted} attempted)")
    if metrics is None:
        print("error: no pass completed; no metrics to report", file=sys.stderr)
        return 1
    if args.trace:
        for name, m in metrics.items():
            print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not ops.failures,
        "attempted": ops.attempted,
        "failed": len(ops.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
