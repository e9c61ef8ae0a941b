"""K=16 smoke runs of the per-layer bench, ``bench/layers.py``, plain and A/B."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

LAYERS = {
    "build_basis", "step_stochastic", "step_batch_symmetric", "step_batch_gram_schmidt",
    "r_statistic", "codebook_pmeprs_j16", "ber_sweep_block", "ber_sweep_block_identity",
}

# A fresh interpreter, so that the bench pins BLAS to one thread before
# numpy is imported; the report goes to stderr after the bench's lines.
SMOKE = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import layers; "
    "print(json.dumps(layers.report((16,), 2)), file=sys.stderr)"
)
AB_SMOKE = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import layers; "
    "print(json.dumps(layers.report_ab(sys.argv[2], (16,), 2)), file=sys.stderr)"
)


def test_layer_bench_smoke():
    done = subprocess.run(
        [sys.executable, "-c", SMOKE, str(ROOT / "bench")], capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stderr)
    assert result["threads"] == 1 and result["nproc"] >= 1
    assert {"python", "numpy", "paprbound"} <= set(result["versions"])
    assert result["setup"]["seed"] == 0
    assert set(result["layers"]) == {"16"}
    rows = result["layers"]["16"]
    assert set(rows) == LAYERS
    for row in rows.values():
        assert row["samples"] == 2
        assert 0 < row["q1_ms"] <= row["median_ms"] <= row["q3_ms"]
    assert len(done.stdout.splitlines()) == len(LAYERS)


def test_layer_bench_ab_structure():
    # This checkout against a second copy of its own source tree: both
    # columns per layer, and every pair of outputs byte-equal.
    done = subprocess.run(
        [sys.executable, "-c", AB_SMOKE, str(ROOT / "bench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stderr)
    assert result["ab"]["columns"] == ["parent", "change"]
    assert set(result["layers"]) == {"16"}
    rows = result["layers"]["16"]
    assert set(rows) == LAYERS
    for row in rows.values():
        for side in ("parent", "change"):
            assert row[side]["samples"] == 2
            assert 0 < row[side]["q1_ms"] <= row[side]["median_ms"] <= row[side]["q3_ms"]
        assert row["pairs"] == 2 and 0 <= row["change_wins"] <= 2
        assert row["outputs_byte_equal"] and row["max_rel_diff"] == 0.0
    lines = done.stdout.splitlines()
    assert len(lines) == len(LAYERS) and all("outputs byte-equal" in line for line in lines)
