"""In-memory spans around calls into paprbound, installed from outside.

The tracer replaces a function at the place its caller looks it up (a
module attribute or an entry of a dispatch table) with a wrapper that
records a span: name, start, end and the index of the enclosing span.
Nothing inside the package changes; ``restore`` puts every original
back.  Spans stay in memory until ``write`` is called at the end of a
run.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (lookup module, attribute, span name).  The first block is what
# ``paprbound.cli`` imported by name; the second is what the library
# workloads call; the third is the optimizer's and the bound chain's
# internal lookups.
CALL_SITES = [
    ("paprbound.cli", "generate_codebook", "core.generate_codebook"),
    ("paprbound.cli", "load_codebook", "core.load_codebook"),
    ("paprbound.cli", "save_codebook", "core.save_codebook"),
    ("paprbound.cli", "build_basis", "spectral.build_basis"),
    ("paprbound.cli", "aperiodic_corr", "spectral.aperiodic_corr"),
    ("paprbound.cli", "bound_report", "bounds.bound_report"),
    ("paprbound.cli", "run", "optimizer.run"),
    ("paprbound.cli", "load_unitaries", "optimizer.load_unitaries"),
    ("paprbound.cli", "save_unitaries", "optimizer.save_unitaries"),
    ("paprbound.cli", "empirical_ccdf", "waveform.empirical_ccdf"),
    ("paprbound.cli", "peak_envelope_power", "waveform.peak_envelope_power"),
    ("paprbound.cli", "ber_sweep", "channel.ber_sweep"),
    ("paprbound.core", "generate_codebook", "core.generate_codebook"),
    ("paprbound.core", "subset_gram", "core.subset_gram"),
    ("paprbound.spectral", "build_basis", "spectral.build_basis"),
    ("paprbound.optimizer", "random_unitary", "optimizer.random_unitary"),
    ("paprbound.optimizer", "run", "optimizer.run"),
    ("paprbound.bounds", "bound_report", "bounds.bound_report"),
    ("paprbound.bounds", "gaussian_ccdf_bound", "bounds.gaussian_ccdf_bound"),
    ("paprbound.waveform", "empirical_ccdf", "waveform.empirical_ccdf"),
    ("paprbound.channel", "ber_sweep", "channel.ber_sweep"),
    ("paprbound.optimizer", "step_stochastic", "optimizer.step"),
    ("paprbound.optimizer", "step_batch", "optimizer.step"),
    ("paprbound.optimizer", "delta_w", "optimizer.delta_w"),
    ("paprbound.bounds", "r_statistic", "bounds.r_statistic"),
    ("paprbound.bounds", "quartic_sum", "spectral.quartic_sum"),
    ("paprbound.waveform", "codebook_pmeprs", "waveform.codebook_pmeprs"),
]

# ``_apply_updates`` reaches the projections only through this table.
PROJECTOR_TABLE = ("paprbound.optimizer", "_PROJECTORS")
PROJECTOR_SPANS = {
    "symmetric_decorrelation": "optimizer.project_symmetric",
    "gram_schmidt": "optimizer.project_gram_schmidt",
}


def _file_bytes(counts, args, result):
    counts["core.bytes_io"] += os.path.getsize(args["path"])


def _pmepr_work(counts, args, result):
    book = args["codebook"]
    counts["waveform.codewords"] += book.size
    # complex128 oversampled signal, as computed from the array shape
    counts["waveform.oversampled_bytes"] += book.size * book.k_carriers * args["oversampling"] * 16


def _ber_work(counts, args, result):
    book = args["codebook"]
    bits_per_block = args["block_codewords"] * book.k_carriers * args["constellation"].bits_per_symbol
    counts["channel.bits"] += int(result.n_bits.sum())
    counts["channel.errors"] += int(result.n_errors.sum())
    counts["channel.blocks"] += int(result.n_bits.sum()) // bits_per_block
    counts["channel.points_stopped_by_cap"] += int((result.n_errors < args["target_errors"]).sum())


HOOKS = {
    "core.load_codebook": _file_bytes,
    "core.save_codebook": _file_bytes,
    "waveform.codebook_pmeprs": _pmepr_work,
    "channel.ber_sweep": _ber_work,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self.missing = []
        self._stack = []
        self._undo = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter()

    def wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self.counts, bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every call site that exists; record the ones that do not."""
        for module_name, attr, name in CALL_SITES:
            module = importlib.import_module(module_name)
            if not hasattr(module, attr):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._undo.append((setattr, module, attr, original))
            setattr(module, attr, self.wrap(name, original))

        # Checkpoint R: a span of its own around the traced bounds.r_statistic.
        opt = importlib.import_module("paprbound.optimizer")
        if hasattr(opt, "r_statistic"):
            original = opt.r_statistic
            self._undo.append((setattr, opt, "r_statistic", original))
            opt.r_statistic = self.wrap(
                "optimizer.checkpoint_r", self.wrap("bounds.r_statistic", original)
            )
        else:
            self.missing.append("paprbound.optimizer.r_statistic")

        table = getattr(importlib.import_module(PROJECTOR_TABLE[0]), PROJECTOR_TABLE[1], None)
        if table is None:
            self.missing.append(".".join(PROJECTOR_TABLE))
            return
        for key, name in PROJECTOR_SPANS.items():
            if key in table:
                self._undo.append((table.__setitem__, key, table[key]))
                table[key] = self.wrap(name, table[key])
            else:
                self.missing.append(f"{'.'.join(PROJECTOR_TABLE)}[{key!r}]")

    def restore(self) -> None:
        while self._undo:
            setter, *args = self._undo.pop()
            setter(*args)

    def totals(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for index, (name, start, end, parent) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return dict(out)

    def write(self, path, extra: dict) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        doc = dict(extra)
        doc["missing_call_sites"] = self.missing
        doc["counts"] = dict(self.counts)
        doc["spans"] = [
            {"name": n, "start_s": s - origin, "end_s": e - origin, "parent": p}
            for n, s, e, p in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
