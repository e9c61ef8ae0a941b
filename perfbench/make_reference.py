"""Regenerate reference.json: one pass of each workload at the default
seed, full size.  Run from the checkout root:

    python3 perfbench/make_reference.py

Only for a change that is meant to alter the numbers; the benchmark
compares every default-seed run against this file.
"""

import json
import shutil

import run  # pins BLAS threads before numpy is imported

run.import_package()
import workloads  # noqa: E402


def main() -> None:
    reference = {}
    work_root = run.WORK_ROOT / "reference"
    for name in run.WORKLOAD_NAMES:
        wl = workloads.WORKLOADS[name]
        inputs = wl.setup(run.DEFAULT_SEED, "full", work_root)
        outputs = wl.run_pass(inputs, workloads.Ops())
        reference[name] = wl.result(inputs, outputs)
        wl.cleanup(outputs)
        wl.teardown(inputs)
    shutil.rmtree(work_root, ignore_errors=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
