"""The call sites that ``perfbench/tracer.py`` patches by name must exist,
so that renaming one in the package fails here instead of quietly
dropping its per-layer metrics from the benchmark."""

import importlib.util
from pathlib import Path

from paprbound import optimizer
from paprbound.core import QamConstellation, generate_codebook
from paprbound.spectral import build_basis

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_call_site_but_the_stale_one():
    tracer = load_tracer().Tracer()
    original = optimizer.step_batch, dict(optimizer._PROJECTORS)
    try:
        tracer.install()
        # A short batch run reaches the patched step and projection.
        book = generate_codebook(QamConstellation.square(16), 8, 16, 2, seed=3)
        cfg = optimizer.OptimizerConfig(epsilon=1e-3, max_iters=2, stop_tol=0.0, mode="batch")
        optimizer.run(book, build_basis(8), cfg)
    finally:
        tracer.restore()
    # aperiodic_corr moved into the tests' K-point oracle, out of verify,
    # and delta_w into the tests' polar oracle; the tracer still lists both.
    assert tracer.missing == ["paprbound.cli.aperiodic_corr", "paprbound.optimizer.delta_w"]
    assert (optimizer.step_batch, optimizer._PROJECTORS) == original
    calls = {name: entry["calls"] for name, entry in tracer.totals().items()}
    # A batch step makes one projector call per subset: 2 steps x 2 subsets.
    assert calls["optimizer.step"] == 2 and calls["optimizer.project_symmetric"] == 4


def test_tracer_sees_every_stochastic_step_of_a_run():
    # ``run`` hands each step its private buffers, but still makes one
    # call per iteration through ``optimizer.step_stochastic`` and one
    # stacked projector call through ``_PROJECTORS``, inside that step.
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        book = generate_codebook(QamConstellation.square(16), 8, 24, 3, seed=4)
        cfg = optimizer.OptimizerConfig(epsilon=1e-3, max_iters=5, stop_tol=0.0)
        state, _ = optimizer.run(book, build_basis(8), cfg)
    finally:
        tracer.restore()
    assert state.iteration == 5
    calls = {name: entry["calls"] for name, entry in tracer.totals().items()}
    assert calls["optimizer.step"] == 5 and calls["optimizer.project_symmetric"] == 5
    steps = [i for i, span in enumerate(tracer.spans) if span[0] == "optimizer.step"]
    assert [span[3] for span in tracer.spans if span[0] == "optimizer.project_symmetric"] == steps
