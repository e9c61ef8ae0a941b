"""Experiment runner.

Subcommands mirror the workflow: ``gen`` draws a codebook, ``bounds``
evaluates the CCDF bounds, ``optimize`` fits the unitary set, ``ccdf``
measures the empirical curve, ``ber`` runs the link simulation, and
``verify`` checks existing artifacts and their manifests.
Every subcommand is a pure function of (config, seed, input files):
reruns produce byte-identical outputs.  Wall-clock data is recorded
only with ``--record-timing``.

Exit codes: 0 success, 2 validation failure, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
import typing
from dataclasses import asdict, dataclass, is_dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import BoundReport, bound_report
from .channel import RAPP_VARIANTS, LinkConfig, RappModel, ber_sweep
from .core import (
    QAM_ORDER_RULE,
    QamConstellation,
    default_qam_scale,
    generate_codebook,
    is_int,
    is_number,
    is_qam_order,
    load_codebook,
    save_codebook,
    subset_transforms,
    unit_power,
    write_json,
    write_table,
)
from .optimizer import (
    OptimizerConfig,
    RankDeficientUpdate,
    load_unitaries,
    run,
    save_unitaries,
)
from .spectral import build_basis
from .waveform import (
    db_to_linear,
    default_gamma_grid_db,
    empirical_ccdf,
    peak_envelope_power,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

CONFIG_VERSION = 1
MANIFEST_FORMAT = "paprbound/manifest"
# Most points a gamma grid may span; the default grid has 37.
GAMMA_GRID_MAX_POINTS = 100_000
GAMMA_GRID_MAX_DB = 600.0  # keeps the bounds in float64 at unit mean symbol power for any K <= SIZE_MAX
SIZE_MAX = 2**53  # largest size field: float64 holds every integer up to it


# ---------------------------------------------------------------------------
# configuration schema


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


@dataclass(frozen=True)
class GammaGridSpec:
    start: float = 4.0
    stop: float = 13.0
    step: float = 0.25

    def __post_init__(self):
        _check(self.step > 0 and -GAMMA_GRID_MAX_DB <= self.start <= self.stop <= GAMMA_GRID_MAX_DB,
               f"config field 'gamma_grid_db': needs step > 0 and start <= stop in +-{GAMMA_GRID_MAX_DB:g} dB")
        span = (self.stop - self.start) / self.step  # points - 1; may be inf
        _check(span < GAMMA_GRID_MAX_POINTS,
               f"config field 'gamma_grid_db': {span + 1:.3g} points, over {GAMMA_GRID_MAX_POINTS}")
        gamma_grid_linear(self)


def gamma_grid_linear(grid: GammaGridSpec) -> np.ndarray:
    """The grid's power ratios 10^(dB/10); the bounds divide by their squares, which must strictly ascend."""
    linear = db_to_linear(default_gamma_grid_db(grid.start, grid.stop, grid.step))
    _check((np.diff(linear**2) > 0).all(), "config field 'gamma_grid_db': 10^(dB/10) squared must strictly ascend")
    return linear


def check_powers(report: BoundReport, source: str) -> None:
    """Refuse a report whose R, a or b, scaled back to the powers of ``source``, left float64 (a may be 0)."""
    for name, value in (("R", report.r_value), ("a", report.a), ("b", report.b)):
        _check(sys.float_info.min <= value < np.inf or (name == "a" and value == 0),
               f"{source}: at its qam_scale, {name} is {value}, outside float64's normal range")


@dataclass(frozen=True)
class RappSettings:
    enabled: bool = True
    p: float = 2.0
    backoff_db: float = 2.0
    variant: str = "standard"

    def __post_init__(self):
        _check(self.p > 0, "config field 'rapp.p': must be positive")
        with np.errstate(over="ignore"):  # the clip level's power over p_av, at any codebook scale
            _check(0 < np.float64(10.0) ** (self.backoff_db / 10) < np.inf,
                   "config field 'rapp.backoff_db': 10^(dB/10) must be finite and positive")
        _check(self.variant in RAPP_VARIANTS, f"config field 'rapp.variant': must be one of {RAPP_VARIANTS}")


@dataclass(frozen=True)
class ExperimentConfig(OptimizerConfig):
    """The config schema, with the optimizer settings it inherits: ``parse_config``
    reads the field names, types and defaults from these declarations."""

    version: int = CONFIG_VERSION
    k_carriers: int = 128
    qam_order: int = 16
    qam_scale: float | None = None
    codebook_size: int = 2000
    n_subsets: int = 5
    j_ccdf: int = 16
    j_ber: int = 1
    gamma_grid_db: GammaGridSpec = GammaGridSpec()
    ebn0_grid_db: tuple[float, ...] = (4.0, 8.0, 12.0)
    rapp: RappSettings = RappSettings()
    ber_target_errors: int = 200
    ber_max_symbols: int = 2_000_000
    seed: int = 1234
    out_dir: str = "runs/default"

    def __post_init__(self):
        _check(self.version == CONFIG_VERSION, f"unsupported config version {self.version}")
        for name, low in (("k_carriers", 2), ("codebook_size", 1), ("n_subsets", 1),
                          ("j_ccdf", 1), ("j_ber", 1), ("ber_target_errors", 1),
                          ("ber_max_symbols", 1)):
            _check(low <= getattr(self, name) <= SIZE_MAX, f"config field '{name}': must be from {low} to 2^53")
        _check(self.codebook_size % self.n_subsets == 0,
               f"codebook_size {self.codebook_size} not divisible by n_subsets {self.n_subsets}")
        # OptimizerConfig allows epsilon = 0 (a run that never moves); a config may not.
        _check(self.epsilon is None or self.epsilon > 0, "config field 'epsilon': must be positive")
        _check(is_qam_order(self.qam_order), f"config field 'qam_order': {QAM_ORDER_RULE}, got {self.qam_order}")
        scale = default_qam_scale(self.qam_order) if self.qam_scale is None else self.qam_scale
        low = 2.0 * self.k_carriers * scale * scale  # codeword powers lie in [2KD^2, 2KD^2 (sqrt(M) - 1)^2]
        _check(scale > 0 and sys.float_info.min <= low and low * (math.isqrt(self.qam_order) - 1) ** 2 < math.inf,
               "config field 'qam_scale': must be positive, with codeword powers 2KD^2 to 2KD^2 (sqrt(M) - 1)^2"
               " that are normal floats")
        super().__post_init__()


# Per field annotation: what a JSON value must be, the test, and the
# conversion to the stored value.  ``float | None`` stores the value as
# given, so {"epsilon": 1} and {"epsilon": 1.0} hash differently.
_FIELD_RULES = {
    int: ("an integer", is_int, None),
    float: ("a finite number", is_number, float),
    float | None: ("a finite number or null", lambda v: v is None or is_number(v), None),
    bool: ("true or false", lambda v: isinstance(v, bool), None),
    str: ("a string", lambda v: isinstance(v, str), None),
    tuple[float, ...]: (
        "a non-empty list of finite numbers",
        lambda v: isinstance(v, (list, tuple)) and len(v) > 0 and all(map(is_number, v)),
        lambda v: tuple(map(float, v)),
    ),
}


# Field name -> resolved annotation, once per class (the schema classes
# annotate nothing but their fields).
_field_types = functools.cache(typing.get_type_hints)


def _build(cls, data, name: str = ""):
    """Construct ``cls`` from a JSON object, checking each value against
    its field's annotation; ``name`` is the dotted path of the object."""
    _check(isinstance(data, dict), f"config field '{name}': must be an object (got {data!r})"
           if name else "config must be a JSON object")
    types = _field_types(cls)
    unknown = sorted(set(data) - set(types))
    _check(not unknown, f"unknown keys in {name}: {unknown}" if name
           else f"unknown config keys: {unknown}")
    values = {}
    for key, value in data.items():
        field = f"{name}.{key}" if name else key
        kind = types[key]
        if is_dataclass(kind):
            values[key] = _build(kind, value, field)
            continue
        what, valid, convert = _FIELD_RULES[kind]
        _check(valid(value), f"config field '{field}': must be {what} (got {value!r})")
        values[key] = convert(value) if convert else value
    return cls(**values)


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a config dict against the schema; unknown keys are errors."""
    return _build(ExperimentConfig, data)


def _read_json(path: str | Path):
    """The JSON document in ``path``; ValueError naming the file if it is not JSON text."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    return parse_config(_read_json(path))


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(asdict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# manifests


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir: Path, command: str, cfg_hash: str, files: list[Path],
                   record_timing: bool, elapsed_s: float) -> Path:
    """Write ``<command>.manifest.json``: the sha256 and size of each
    file, and the wall-clock fields, null unless ``record_timing``."""
    path = out_dir / f"{command}.manifest.json"
    write_json(path, {
        "format": MANIFEST_FORMAT,
        "version": 1,
        "artifact_version": __version__,
        "command": command,
        "config_hash": cfg_hash,
        "created_utc": datetime.now(timezone.utc).isoformat() if record_timing else None,
        "elapsed_s": elapsed_s if record_timing else None,
        "files": {f.name: {"sha256": _sha256(f), "bytes": f.stat().st_size} for f in files},
    })
    return path


def verify_manifest(path: Path) -> list[tuple[str, bool]]:
    """Check every file a manifest lists against its checksum; ValueError if it is malformed."""
    manifest = _read_json(path)
    if not isinstance(manifest, dict) or manifest.get("format") != MANIFEST_FORMAT:
        raise ValueError(f"{path}: not a manifest file")
    files = manifest.get("files", {})
    # A listed name is a file beside the manifest: no directory part, not "", "." or "..".
    _check(isinstance(files, dict) and all(Path(name).name == name and name not in ("", "..")
                                           and isinstance(m, dict) and isinstance(m.get("sha256"), str)
                                           and is_int(m.get("bytes")) for name, m in files.items()),
           f"{path}: 'files' must map each plain file name to {{sha256: string, bytes: integer}}")
    results = []
    for name, meta in sorted(files.items()):
        target = path.parent / name
        ok = (
            target.is_file()
            and target.stat().st_size == meta["bytes"]
            and _sha256(target) == meta["sha256"]
        )
        results.append((name, ok))
    return results


# ---------------------------------------------------------------------------
# subcommands


def _prepare(args, create: bool = True) -> tuple[ExperimentConfig, Path, float]:
    """The config, the output directory (made if missing, when ``create``;
    else it must exist), and the start time of the work."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    out_dir = Path(args.out) if args.out else Path(cfg.out_dir)
    if create:
        out_dir.mkdir(parents=True, exist_ok=True)
    else:
        _check(out_dir.is_dir(), f"{out_dir}: no such directory")
    return cfg, out_dir, time.perf_counter()


def _finish(args, cfg: ExperimentConfig, out_dir: Path, started: float, files: list[Path],
            summary: str) -> int:
    """The end of every artifact subcommand: ``<command>.manifest.json``
    over ``files``, then the line ``<command>: <summary>``."""
    write_manifest(out_dir, args.command, config_hash(cfg), files, args.record_timing,
                   time.perf_counter() - started)
    print(f"{args.command}: {summary}")
    return EXIT_OK


def cmd_gen(args) -> int:
    cfg, out_dir, started = _prepare(args)
    codebook = generate_codebook(QamConstellation(cfg.qam_order, cfg.qam_scale), cfg.k_carriers,
                                 cfg.codebook_size, cfg.n_subsets, cfg.seed)
    target = out_dir / "codebook.bin"
    save_codebook(codebook, target)
    return _finish(args, cfg, out_dir, started, [target],
                   f"wrote {target} ({codebook.size} x {codebook.k_carriers}, "
                   f"{codebook.n_subsets} subsets)")


def cmd_bounds(args) -> int:
    cfg, out_dir, started = _prepare(args)
    codebook = load_codebook(args.codebook)
    unitaries = load_unitaries(args.unitaries) if args.unitaries is not None else None
    basis = build_basis(codebook.k_carriers)
    report = bound_report(codebook, basis, gamma_grid_linear(cfg.gamma_grid_db), unitaries)
    check_powers(report, args.codebook)
    target = out_dir / "bounds.csv"
    report.write_csv(target)
    return _finish(args, cfg, out_dir, started, [target, target.with_suffix(".json")],
                   f"R = {report.r_value:.6g}, a = {report.a:.6g}, b = {report.b:.6g}; "
                   f"wrote {target}")


def cmd_optimize(args) -> int:
    cfg, out_dir, started = _prepare(args)
    codebook = load_codebook(args.codebook)
    basis = build_basis(codebook.k_carriers)
    initial = load_unitaries(args.resume) if args.resume is not None else None
    state, trace = run(codebook, basis, cfg, initial=initial)
    target = out_dir / "unitaries.bin"
    save_unitaries(state, target, seed=cfg.seed, config_hash=config_hash(cfg))
    trace_path = out_dir / "optimize_trace.csv"
    write_table(trace_path, ["iteration", "r_value", "max_step_norm"],
                ((p.iteration, p.r_value, p.max_step_norm) for p in trace))
    _finish(args, cfg, out_dir, started, [target, trace_path],
            f"iteration {state.iteration}, R {trace[0].r_value:.6g} -> "
            f"{trace[-1].r_value:.6g}; wrote {target}")
    if trace[-1].r_value > trace[0].r_value:
        print(f"warning: R rose from {trace[0].r_value:.6g} to {trace[-1].r_value:.6g}; "
              f"epsilon = {cfg.resolved_epsilon(codebook.k_carriers):.3g} is likely too large "
              f"for K = {codebook.k_carriers}", file=sys.stderr)
    return EXIT_OK


def cmd_ccdf(args) -> int:
    cfg, out_dir, started = _prepare(args)
    codebook = load_codebook(args.codebook)
    unitaries = load_unitaries(args.unitaries) if args.unitaries is not None else None
    curve = empirical_ccdf(codebook, gamma_grid_linear(cfg.gamma_grid_db), unitaries, cfg.j_ccdf)
    target = out_dir / "ccdf.csv"
    curve.write_csv(target)
    return _finish(args, cfg, out_dir, started, [target],
                   f"{curve.sample_count} codewords at J={cfg.j_ccdf}; wrote {target}")


def cmd_ber(args) -> int:
    cfg, out_dir, started = _prepare(args)
    codebook = load_codebook(args.codebook)
    if codebook.qam_order is None:
        raise ValueError("codebook carries no constellation metadata; BER needs a QAM codebook")
    constellation = QamConstellation(codebook.qam_order, codebook.qam_scale)
    unitaries = load_unitaries(args.unitaries) if args.unitaries is not None else None
    amplifier = (RappModel.from_backoff(codebook.p_av, cfg.rapp.backoff_db, cfg.rapp.p, cfg.rapp.variant)
                 if cfg.rapp.enabled else None)
    link = LinkConfig(ebn0_db=cfg.ebn0_grid_db, oversampling=cfg.j_ber, amplifier=amplifier, seed=cfg.seed)
    curve = ber_sweep(codebook, constellation, unitaries, link,
                      target_errors=cfg.ber_target_errors, max_symbols=cfg.ber_max_symbols)
    target = out_dir / "ber.csv"
    curve.write_csv(target)
    return _finish(args, cfg, out_dir, started, [target],
                   f"{len(curve.ebn0_db)} grid points; wrote {target}")


def cmd_verify(args) -> int:
    cfg, out_dir, _ = _prepare(args, create=False)
    failures = 0

    def report(name: str, ok: bool):
        nonlocal failures
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1

    codebook = None if args.codebook is None else load_codebook(args.codebook)
    state = None if args.unitaries is None else load_unitaries(args.unitaries)  # refuses a set not unitary
    if codebook is not None and state is not None:
        subset_transforms(codebook, state)
    k = (codebook or state or cfg).k_carriers  # the grid at the K of what was read
    try:
        build_basis(k)
        report(f"basis build K={k}", True)
    except ArithmeticError:
        report(f"basis build K={k}", False)

    if codebook is not None:
        sample = unit_power(codebook)[1].symbols[:100]  # tolerances at unit mean symbol power
        peaks = peak_envelope_power(sample, 16)
        l2 = (np.abs(sample) ** 2).sum(axis=1)
        l1sq = np.abs(sample).sum(axis=1) ** 2
        # Relative slack: the sides grow like K^2, and l1^2 <= K l2 is an
        # equality for every constant-modulus codeword.
        lo, hi = 1 - 1e-12, 1 + 1e-12
        report("envelope norm sandwich", bool(np.all(peaks >= l2 * lo) and np.all(peaks <= l1sq * hi)
               and np.all(l1sq <= codebook.k_carriers * l2 * hi)))

    for manifest in sorted(out_dir.glob("*.manifest.json")):
        for name, ok in verify_manifest(manifest):
            report(f"checksum {manifest.name}:{name}", ok)

    return EXIT_OK if failures == 0 else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; ``parse_args``
    returns a fresh namespace on every call."""
    parser = argparse.ArgumentParser(
        prog="paprbound",
        description="Peak-power bound evaluation and unitary reduction experiments.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func)
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory (default: config out_dir)")
        p.add_argument("--record-timing", action="store_true",
                       help="record wall-clock data in the manifest (breaks byte-identity)")
        return p

    command("gen", cmd_gen, "generate a codebook file")
    p = command("bounds", cmd_bounds, "evaluate CCDF bounds for a codebook")
    p.add_argument("codebook", help="codebook file from 'gen'")
    p.add_argument("--unitaries", default=None, help="unitary-set file from 'optimize'")
    p = command("optimize", cmd_optimize, "fit the unitary set")
    p.add_argument("codebook", help="codebook file from 'gen'")
    p.add_argument("--resume", default=None, help="unitary-set file to continue from")
    p = command("ccdf", cmd_ccdf, "measure the empirical PMEPR CCDF")
    p.add_argument("codebook", help="codebook file from 'gen'")
    p.add_argument("--unitaries", default=None, help="unitary-set file from 'optimize'")
    p = command("ber", cmd_ber, "Monte Carlo bit error rates over the link")
    p.add_argument("codebook", help="codebook file from 'gen'")
    p.add_argument("--unitaries", default=None, help="unitary-set file (identity if omitted)")
    p = command("verify", cmd_verify, "run the invariant suite against artifacts")
    p.add_argument("codebook", nargs="?", default=None, help="codebook file to check")
    p.add_argument("--unitaries", default=None, help="unitary-set file to check")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # LinAlgError subclasses ValueError, so this clause comes first.
    except (RankDeficientUpdate, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
