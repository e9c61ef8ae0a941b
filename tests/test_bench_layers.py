"""The A/B bench, ``bench/layers.py``: K=16 layers and perfbench's smoke
workloads, self and A/B, its step rows on ``run``'s path, and its claim
and bound rules."""

import json
import os
import shutil
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent

LAYERS = {
    "step_stochastic", "step_batch_symmetric", "step_batch_gram_schmidt",
    "r_statistic", "codebook_pmeprs_j16", "ber_sweep_block", "ber_sweep_block_identity",
}
WORKLOADS = {"pipeline-k64", "batch-gs-k128", "link-k128"}
METRICS = {"wall_s", "pmepr_codewords_per_s", "ber_bits_per_s"}  # BENCHMARK.json's per-pass metrics

# A fresh interpreter, so that the bench pins BLAS to one thread before
# numpy is imported; the report goes to stderr after the bench's lines.
# The second argument holds the keyword arguments of ``report``.
SMOKE = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import layers; "
    "doc = layers.report(repeats=2, size='smoke', **json.loads(sys.argv[2])); "
    "assert sys.modules['paprbound'] is layers.paprbound, 'paprbound left bound to another tree'; "
    "print(json.dumps(doc), file=sys.stderr)"
)


def run_smoke(parent_src=None, k_values=(16,)) -> tuple[dict, list[str]]:
    kwargs = {"k_values": list(k_values), **({} if parent_src is None else {"parent_src": str(parent_src)})}
    done = subprocess.run(
        [sys.executable, "-c", SMOKE, str(ROOT / "bench"), json.dumps(kwargs)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stderr), done.stdout.splitlines()


def copy_tree(tmp_path, module=None, old=None, new=None) -> Path:
    """A copy of this checkout's package, with one edit to ``module``."""
    shutil.copytree(ROOT / "src" / "paprbound", tmp_path / "paprbound", ignore=shutil.ignore_patterns("__pycache__"))
    if module is not None:
        path = tmp_path / "paprbound" / module
        source = path.read_text()
        assert source.count(old) == 1
        path.write_text(source.replace(old, new))
    return tmp_path


def assert_end_to_end_equal(result):
    # One row per perfbench workload at the smoke size, every pair of
    # outputs byte-equal and no check failed on either tree.
    bounds = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert set(result["end_to_end"]) == WORKLOADS
    for workload in result["end_to_end"].values():
        assert workload["size"] == "smoke" and set(workload["metrics"]) == METRICS
        assert workload["outputs_byte_equal"] and workload["differing_outputs"] == []
        assert workload["failed_checks"] == {"change": [], "parent": []}
        for name, row in workload["metrics"].items():
            for side in ("parent", "change"):
                assert row[side]["samples"] == 2 and 0 < row[side]["q1"] <= row[side]["median"] <= row[side]["q3"]
            assert row["pairs"] == 2 and 0 <= row["change_wins"] + row["parent_wins"] <= 2
            assert row["bound"] == bounds[name] and row["beyond_bound"] == (row["worse_by"] > bounds[name])
            assert row["ratio"]["samples"] == 2
            assert isinstance(row["meets_claim_rule"], bool) and isinstance(row["meets_loss_rule"], bool)


def test_layer_bench_smoke():
    # The default run: a self-A/B of this checkout, one line per layer,
    # per end-to-end metric and per workload.
    result, lines = run_smoke()
    assert result["threads"] == 1 and result["nproc"] >= 1
    assert {"python", "numpy", "paprbound"} <= set(result["versions"])
    assert result["setup"]["seed"] == 0 and result["setup"]["repeats"] == 2
    assert result["setup"]["workload_size"] == "smoke"
    assert result["ab"]["parent_version"] == result["versions"]["paprbound"]
    assert set(result["layers"]) == {"16"}
    assert set(result["layers"]["16"]) == LAYERS
    assert_end_to_end_equal(result)
    assert len(lines) == len(LAYERS) + len(WORKLOADS) * (len(METRICS) + 1)


def test_layer_bench_ab_structure(tmp_path):
    # This checkout against a second copy of its own source tree: both
    # columns per layer and per workload, and every pair of outputs
    # byte-equal.
    result, lines = run_smoke(copy_tree(tmp_path))
    assert result["ab"]["columns"] == ["parent", "change"]
    assert set(result["layers"]) == {"16"}
    rows = result["layers"]["16"]
    assert set(rows) == LAYERS
    for row in rows.values():
        assert row["unit"] == "ms"
        for side in ("parent", "change"):
            assert row[side]["samples"] == 2
            assert 0 < row[side]["q1"] <= row[side]["median"] <= row[side]["q3"]
        assert row["pairs"] == 2 and 0 <= row["change_wins"] + row["parent_wins"] <= 2
        assert row["ratio"]["samples"] == 2
        assert isinstance(row["meets_claim_rule"], bool) and isinstance(row["meets_loss_rule"], bool)
        assert row["outputs_byte_equal"] and row["max_rel_diff"] == 0.0
    assert_end_to_end_equal(result)
    assert sum("outputs byte-equal" in line for line in lines) == len(LAYERS)
    assert sum("outputs differing: none; failed checks: change none; parent none" in line
               for line in lines) == len(WORKLOADS)


def test_workload_outputs_compare_across_trees(tmp_path):
    # Another stochastic draw stream changes the pipeline's unitaries and so
    # its artifacts, but no batch or link output; each tree's outputs still
    # pass their checks.
    parent = copy_tree(tmp_path, "optimizer.py", "[int(p) % (1 << 63)", "[(int(p) + 1) % (1 << 63)")
    rows = run_smoke(parent, k_values=())[0]["end_to_end"]
    assert not rows["pipeline-k64"]["outputs_byte_equal"] and "digest" in rows["pipeline-k64"]["differing_outputs"]
    assert rows["batch-gs-k128"]["outputs_byte_equal"] and rows["link-k128"]["outputs_byte_equal"]
    assert all(row["failed_checks"] == {"change": [], "parent": []} for row in rows.values())


def test_workload_checks_name_a_wrong_tree(tmp_path):
    # PMEPRs off by 1e-9 relative fail perfbench's oracle check (1e-12) on
    # that tree alone, in every workload that samples them.
    parent = copy_tree(tmp_path, "waveform.py", "for block in transformed_subsets(book, unitaries)])",
                       "for block in transformed_subsets(book, unitaries)]) * (1 + 1e-9)")
    rows = run_smoke(parent, k_values=())[0]["end_to_end"]
    for row in rows.values():
        assert "pmepr sample matches oracle" in row["failed_checks"]["parent"]
        assert row["failed_checks"]["change"] == []


@pytest.fixture
def layers(monkeypatch):
    # Importing the bench pins the BLAS thread variables; a copy of the
    # environment keeps them out of this process's later subprocesses.
    monkeypatch.setattr(os, "environ", dict(os.environ))
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import layers

    return layers


def test_step_rows_pass_the_plan(layers, monkeypatch):
    # Each step row takes ``run``'s path: every step writes into a state
    # handed out by its config's one step plan.
    plan_class = layers.paprbound.optimizer._StepPlan
    new_state, plans = plan_class.new_state, []

    def counted(plan, iteration):
        plans.append(plan)
        return new_state(plan, iteration)

    monkeypatch.setattr(plan_class, "new_state", counted)
    calls = layers.layer_calls(layers.paprbound, 16)
    used = []
    for name, steps in (("step_stochastic", layers.CHAIN), ("step_batch_symmetric", 1), ("step_batch_gram_schmidt", 1)):
        plans.clear()
        calls[name]()
        assert len(plans) == steps and len(set(map(id, plans))) == 1, name
        used.append(plans[0])
    assert len(set(map(id, used))) == 3


def test_every_pair_sets_up_both_trees_afresh(layers, monkeypatch):
    # Each pair builds each tree's layer calls once and calls every layer
    # of that set-up twice: one untimed warm-up, then the timed call.
    parent = types.ModuleType("paprbound_parent")
    vars(parent).update(vars(layers.paprbound))
    layer_calls, setups = layers.layer_calls, []

    def counted(pb, k):
        calls, used = layer_calls(pb, k), Counter()
        setups.append((pb, used))
        return {name: lambda name=name, fn=fn: (used.update([name]), fn())[1] for name, fn in calls.items()}

    monkeypatch.setattr(layers, "layer_calls", counted)
    rows = layers.ab_layers(parent, 16, 3)
    assert set(rows) == LAYERS and all(row["pairs"] == 3 for row in rows.values())
    assert [pb for pb, _ in setups] == [layers.paprbound, parent] * 3
    assert all(used == dict.fromkeys(LAYERS, 2) for _, used in setups)


def test_ab_row_counts_in_the_better_direction(layers):
    # A pair is won by the lower value of a time and by the higher value of
    # a rate, a tie by neither side; worse_by is the change's median's loss
    # relative to the parent's.
    slower = layers.ab_row([2.0, 3.0, 1.0], [1.0, 2.0, 1.0], "lower")
    assert (slower["change_wins"], slower["parent_wins"], slower["pairs"], slower["worse_by"]) == (0, 2, 3, 1.0)
    lower_rate = layers.ab_row([1.0, 1.0], [4.0, 4.0], "higher")
    assert (lower_rate["change_wins"], lower_rate["worse_by"]) == (0, 0.75)
    assert layers.ab_row([4.0, 4.0], [1.0, 1.0], "higher")["change_wins"] == 2


def test_compare_reports_every_differing_array(layers):
    # Byte-equal outputs give (True, 0.0), NaN included; a numeric array
    # gives its relative difference; a differing digest (a non-numeric
    # array) or structure gives inf, never a difference of 0.
    numbers = np.array([1.0, np.nan, -4.0])
    digests = np.array([bytes(32), b"\x01" * 32])
    assert layers.compare([numbers, digests], [numbers.copy(), digests.copy()]) == (True, 0.0)
    assert layers.compare([np.array([1.0, 2.0, 4.5])], [np.array([1.0, 2.0, 4.0])]) == (False, 0.125)
    other = np.array([bytes(32), b"\x02" * 32])
    assert layers.compare([numbers, other], [numbers, digests]) == (False, float("inf"))
    assert layers.compare([numbers], [numbers, digests]) == (False, float("inf"))
    assert layers.compare([numbers[:2]], [numbers]) == (False, float("inf"))


def test_claim_rule_on_fixed_samples(layers):
    # A claimed gain must win at least 90% of the pairs and move the median
    # by more than the parent's interquartile range, in the metric's
    # better direction; every row carries the per-pair ratio change/parent.
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]
    faster = [0.90, 0.91, 0.89, 0.92, 0.88, 0.93, 0.87, 0.90, 0.91, 0.89]
    row = layers.ab_row(faster, parent, "lower")
    assert row["change_wins"] == 10 and row["meets_claim_rule"]
    assert row["ratio"]["median"] == pytest.approx(0.9, abs=0.005)
    assert row["ratio"]["q1"] <= row["ratio"]["median"] <= row["ratio"]["q3"] < 1
    # 9 of 10 pairs won still meets it; 8 of 10 does not.
    assert layers.ab_row(faster[:9] + [1.2], parent, "lower")["meets_claim_rule"]
    assert not layers.ab_row(faster[:8] + [1.2, 1.2], parent, "lower")["meets_claim_rule"]
    # Every pair won, but by less than the parent's spread (IQR 0.02).
    slightly = [p - 0.005 for p in parent]
    assert layers.ab_row(slightly, parent, "lower")["change_wins"] == 10
    assert not layers.ab_row(slightly, parent, "lower")["meets_claim_rule"]
    # Rates gain upward: the same samples are a claimed loss, not a gain.
    assert not layers.ab_row(faster, parent, "higher")["meets_claim_rule"]
    assert layers.ab_row(parent, faster, "higher")["meets_claim_rule"]
    # Equal samples: ratio 1, no claim.
    same = layers.ab_row(parent, parent, "lower")
    assert same["ratio"]["median"] == 1.0 and not same["meets_claim_rule"]


@pytest.mark.parametrize("better", ["lower", "higher"])
def test_claim_rule_flags_a_gain_a_loss_or_neither(layers, better):
    # One rule both ways: the change is flagged as a gain when it wins at
    # least 90% of the pairs by more than the parent's IQR (0.02 here), as
    # a loss when the parent does, and neither when no side does.
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]
    lower, higher = [p - 0.1 for p in parent], [p + 0.1 for p in parent]
    gain, loss = (lower, higher) if better == "lower" else (higher, lower)

    def flags(change):
        row = layers.ab_row(change, parent, better)
        return row["meets_claim_rule"], row["meets_loss_rule"]

    assert flags(gain) == (True, False)
    assert flags(loss) == (False, True)
    assert flags(parent) == (False, False)
    # 9 of 10 pairs lost still flags the loss; 8 of 10 flags nothing.
    assert flags(loss[:9] + gain[9:]) == (False, True)
    assert flags(loss[:8] + gain[8:]) == (False, False)
    # Every pair lost, but by less than the parent's spread.
    assert flags([(9 * p + l) / 10 for p, l in zip(parent, loss)]) == (False, False)
    # The loss is measured against the parent's spread, not the change's:
    # every pair lost, the medians a few hundredths apart, and the change's
    # own IQR far wider.
    sign = 1 if better == "lower" else -1
    wide = [p + sign * d for p, d in zip(parent, [0.03] * 6 + [0.5] * 4)]
    row = layers.ab_row(wide, parent, better)
    assert row["parent_wins"] == 10 and row["change"]["q3"] - row["change"]["q1"] > 0.1
    assert abs(row["change"]["median"] - row["parent"]["median"]) < 0.1
    assert flags(wide) == (False, True)
