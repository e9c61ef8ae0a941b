"""K=16 smoke run of the per-layer bench, ``bench/layers.py``."""

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
