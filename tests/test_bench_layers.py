"""The per-layer bench, ``bench/layers.py``: K=16 smoke runs, self and A/B, and its sign test."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent

LAYERS = {
    "build_basis", "step_stochastic", "step_batch_symmetric", "step_batch_gram_schmidt",
    "r_statistic", "codebook_pmeprs_j16", "ber_sweep_block", "ber_sweep_block_identity", "pipeline_cli",
    "batch_gs_workload", "link_workload",
}

# A fresh interpreter, so that the bench pins BLAS to one thread before
# numpy is imported; the report goes to stderr after the bench's lines.
# The optional third argument is the tree to compare against.
SMOKE = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import layers; "
    "kw = {'parent_src': sys.argv[2]} if len(sys.argv) > 2 else {}; "
    "print(json.dumps(layers.report(k_values=(16,), repeats=2, **kw)), file=sys.stderr)"
)


def run_smoke(*parent_src) -> tuple[dict, list[str]]:
    done = subprocess.run(
        [sys.executable, "-c", SMOKE, str(ROOT / "bench"), *map(str, parent_src)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stderr), done.stdout.splitlines()


def test_layer_bench_smoke():
    # The default run: a self-A/B of this checkout, one line per layer.
    result, lines = run_smoke()
    assert result["threads"] == 1 and result["nproc"] >= 1
    assert {"python", "numpy", "paprbound"} <= set(result["versions"])
    assert result["setup"]["seed"] == 0 and result["setup"]["repeats"] == 2
    assert result["ab"]["parent_version"] == result["versions"]["paprbound"]
    assert set(result["layers"]) == {"16"}
    assert set(result["layers"]["16"]) == LAYERS
    assert len(lines) == len(LAYERS)


def test_layer_bench_ab_structure(tmp_path):
    # This checkout against a second copy of its own source tree: both
    # columns per layer, and every pair of outputs byte-equal.
    shutil.copytree(ROOT / "src" / "paprbound", tmp_path / "paprbound",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result, lines = run_smoke(tmp_path)
    assert result["ab"]["columns"] == ["parent", "change"]
    assert set(result["layers"]) == {"16"}
    rows = result["layers"]["16"]
    assert set(rows) == LAYERS
    for row in rows.values():
        for side in ("parent", "change"):
            assert row[side]["samples"] == 2
            assert 0 < row[side]["q1_ms"] <= row[side]["median_ms"] <= row[side]["q3_ms"]
        assert row["pairs"] == 2 and 0 <= row["change_wins"] <= 2
        assert 0 <= row["sign_test_p"] <= 1
        assert row["outputs_byte_equal"] and row["max_rel_diff"] == 0.0
    assert len(lines) == len(LAYERS) and all("outputs byte-equal" in line for line in lines)


def test_sign_test_p(monkeypatch):
    # Importing the bench pins the BLAS thread variables; a copy of the
    # environment keeps them out of this process's later subprocesses.
    monkeypatch.setattr(os, "environ", dict(os.environ))
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import layers

    assert layers.sign_test_p(12, 3) == pytest.approx(0.0352, abs=1e-4)
    assert layers.sign_test_p(3, 12) == layers.sign_test_p(12, 3)
    assert layers.sign_test_p(11, 4) == pytest.approx(0.1185, abs=1e-4)
    assert layers.sign_test_p(15, 0) == pytest.approx(6.1e-5, rel=1e-2)
    assert layers.sign_test_p(0, 0) == layers.sign_test_p(7, 7) == 1.0


def test_compare_reports_every_differing_array(monkeypatch):
    # Byte-equal outputs give (True, 0.0), NaN included; a numeric array
    # gives its relative difference; a differing digest (a non-numeric
    # array) or structure gives inf, never a difference of 0.
    monkeypatch.setattr(os, "environ", dict(os.environ))
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import layers

    numbers = np.array([1.0, np.nan, -4.0])
    digests = np.array([bytes(32), b"\x01" * 32])
    assert layers.compare([numbers, digests], [numbers.copy(), digests.copy()]) == (True, 0.0)
    assert layers.compare([np.array([1.0, 2.0, 4.5])], [np.array([1.0, 2.0, 4.0])]) == (False, 0.125)
    other = np.array([bytes(32), b"\x02" * 32])
    assert layers.compare([numbers, other], [numbers, digests]) == (False, float("inf"))
    assert layers.compare([numbers], [numbers, digests]) == (False, float("inf"))
    assert layers.compare([numbers[:2]], [numbers]) == (False, float("inf"))


def test_pipeline_entry_hashes_every_artifact(monkeypatch):
    # The printed lines (temporary paths masked) and the 12 files the six
    # commands write: 7 artifacts and 5 manifests, the same on every sample.
    monkeypatch.setattr(os, "environ", dict(os.environ))
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import layers

    pipeline = layers.layer_calls(layers.paprbound, 16)["pipeline_cli"]
    first = pipeline()
    assert first.shape == (13,) and len(set(first.tolist())) == 13
    assert first.tobytes() == pipeline().tobytes()
