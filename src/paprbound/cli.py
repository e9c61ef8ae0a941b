"""Experiment runner.

Subcommands mirror the workflow: ``gen`` draws a codebook, ``bounds``
evaluates the CCDF bounds, ``optimize`` fits the unitary set, ``ccdf``
measures the empirical curve, ``ber`` runs the link simulation, and
``verify`` replays the invariant suite against existing artifacts.
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
import sys
import time
import typing
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import bound_report
from .channel import RAPP_VARIANTS, LinkConfig, RappModel, ber_sweep
from .core import (
    QAM_ORDER_RULE,
    QamConstellation,
    generate_codebook,
    is_int,
    is_number,
    is_qam_order,
    load_codebook,
    save_codebook,
    write_json,
    write_table,
)
from .optimizer import (
    UNITARITY_TOL,
    OptimizerConfig,
    RankDeficientUpdate,
    UnitarySet,
    load_unitaries,
    run,
    save_unitaries,
)
from .spectral import aperiodic_corr, build_basis
from .waveform import (
    baseband_samples,
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
        _check(self.step > 0 and self.stop >= self.start,
               "config field 'gamma_grid_db': needs step > 0 and stop >= start")
        span = (self.stop - self.start) / self.step  # points - 1; may be inf
        _check(span < GAMMA_GRID_MAX_POINTS,
               f"config field 'gamma_grid_db': {span + 1:.3g} points, over {GAMMA_GRID_MAX_POINTS}")


@dataclass(frozen=True)
class RappSettings:
    enabled: bool = True
    p: float = 2.0
    backoff_db: float = 2.0
    variant: str = "standard"

    def __post_init__(self):
        _check(self.p > 0, "config field 'rapp.p': must be positive")
        _check(self.variant in RAPP_VARIANTS, f"config field 'rapp.variant': must be one of {RAPP_VARIANTS}")


@dataclass(frozen=True)
class ExperimentConfig:
    """The config schema: ``parse_config`` reads the field names, types
    and defaults from these declarations."""

    version: int = CONFIG_VERSION
    k_carriers: int = 128
    qam_order: int = 16
    qam_scale: float | None = None
    codebook_size: int = 2000
    n_subsets: int = 5
    j_ccdf: int = 16
    j_ber: int = 1
    epsilon: float | None = None
    max_iters: int = 20000
    stop_tol: float = 1e-6
    projection: str = "symmetric_decorrelation"
    mode: str = "stochastic"
    checkpoint_every: int = 500
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
            _check(getattr(self, name) >= low, f"config field '{name}': must be >= {low}")
        _check(self.codebook_size % self.n_subsets == 0,
               f"codebook_size {self.codebook_size} not divisible by n_subsets {self.n_subsets}")
        _check(self.qam_scale is None or self.qam_scale > 0, "config field 'qam_scale': must be positive")
        # OptimizerConfig allows epsilon = 0 (a run that never moves); a config may not.
        _check(self.epsilon is None or self.epsilon > 0, "config field 'epsilon': must be positive")
        _check(is_qam_order(self.qam_order), f"config field 'qam_order': {QAM_ORDER_RULE}, got {self.qam_order}")
        self.constellation()
        self.optimizer()

    def constellation(self) -> QamConstellation:
        return QamConstellation.square(self.qam_order, self.qam_scale)

    def optimizer(self) -> OptimizerConfig:
        """The optimizer settings, taken from the fields of the same name."""
        return OptimizerConfig(**{f.name: getattr(self, f.name) for f in fields(OptimizerConfig)})


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


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return asdict(cfg)


def load_config(path: str | Path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    return parse_config(data)


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def gamma_grid_linear(cfg: ExperimentConfig) -> np.ndarray:
    grid = cfg.gamma_grid_db
    return db_to_linear(default_gamma_grid_db(grid.start, grid.stop, grid.step))


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
    """Check every file referenced by a manifest against its checksum."""
    with open(path) as fh:
        manifest = json.load(fh)
    if manifest.get("format") != MANIFEST_FORMAT:
        raise ValueError(f"{path}: not a manifest file")
    results = []
    for name, meta in sorted(manifest.get("files", {}).items()):
        target = path.parent / name
        ok = (
            target.exists()
            and target.stat().st_size == meta["bytes"]
            and _sha256(target) == meta["sha256"]
        )
        results.append((name, ok))
    return results


# ---------------------------------------------------------------------------
# subcommands


def _prepare(args) -> tuple[ExperimentConfig, Path, float]:
    """The config, the output directory, and the start time of the work."""
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    out_dir = Path(args.out) if args.out else Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return cfg, out_dir, time.perf_counter()


def _load_unitaries(path, codebook) -> UnitarySet | None:
    """The unitary set in ``path``, checked against the codebook; None without a path."""
    if path is None:
        return None
    state = load_unitaries(path)
    if state.n_subsets != codebook.n_subsets or state.k_carriers != codebook.k_carriers:
        raise ValueError("unitary set does not match the codebook dimensions")
    return state


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
    codebook = generate_codebook(
        cfg.constellation(), cfg.k_carriers, cfg.codebook_size, cfg.n_subsets, cfg.seed
    )
    target = out_dir / "codebook.bin"
    save_codebook(codebook, target)
    return _finish(args, cfg, out_dir, started, [target],
                   f"wrote {target} ({codebook.size} x {codebook.k_carriers}, "
                   f"{codebook.n_subsets} subsets)")


def cmd_bounds(args) -> int:
    cfg, out_dir, started = _prepare(args)
    codebook = load_codebook(args.codebook)
    unitaries = _load_unitaries(args.unitaries, codebook)
    basis = build_basis(codebook.k_carriers)
    report = bound_report(codebook, basis, gamma_grid_linear(cfg), unitaries)
    target = out_dir / "bounds.csv"
    report.write_csv(target)
    return _finish(args, cfg, out_dir, started, [target, target.with_suffix(".json")],
                   f"R = {report.r_value:.6g}, a = {report.a:.6g}, b = {report.b:.6g}; "
                   f"wrote {target}")


def cmd_optimize(args) -> int:
    cfg, out_dir, started = _prepare(args)
    codebook = load_codebook(args.codebook)
    basis = build_basis(codebook.k_carriers)
    opt_cfg = cfg.optimizer()
    initial = load_unitaries(args.resume) if args.resume is not None else None
    state, trace = run(codebook, basis, opt_cfg, initial=initial)
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
              f"epsilon = {opt_cfg.resolved_epsilon(basis.size):.3g} is likely too large "
              f"for K = {basis.size}", file=sys.stderr)
    return EXIT_OK


def cmd_ccdf(args) -> int:
    cfg, out_dir, started = _prepare(args)
    codebook = load_codebook(args.codebook)
    unitaries = _load_unitaries(args.unitaries, codebook)
    curve = empirical_ccdf(codebook, gamma_grid_linear(cfg), unitaries, cfg.j_ccdf)
    target = out_dir / "ccdf.csv"
    curve.write_csv(target)
    return _finish(args, cfg, out_dir, started, [target],
                   f"{curve.sample_count} codewords at J={cfg.j_ccdf}; wrote {target}")


def cmd_ber(args) -> int:
    cfg, out_dir, started = _prepare(args)
    codebook = load_codebook(args.codebook)
    if codebook.qam_order is None:
        raise ValueError("codebook carries no constellation metadata; BER needs a QAM codebook")
    constellation = QamConstellation.square(codebook.qam_order, codebook.qam_scale)
    unitaries = _load_unitaries(args.unitaries, codebook) or UnitarySet.identity(
        codebook.n_subsets, codebook.k_carriers
    )
    amplifier = None
    if cfg.rapp.enabled:
        amplifier = RappModel.from_backoff(
            codebook.p_av, cfg.rapp.backoff_db, cfg.rapp.p, cfg.rapp.variant
        )
    link = LinkConfig(
        ebn0_db=cfg.ebn0_grid_db, oversampling=cfg.j_ber, amplifier=amplifier, seed=cfg.seed
    )
    curve = ber_sweep(
        codebook, constellation, unitaries, link,
        target_errors=cfg.ber_target_errors, max_symbols=cfg.ber_max_symbols,
    )
    target = out_dir / "ber.csv"
    curve.write_csv(target)
    return _finish(args, cfg, out_dir, started, [target],
                   f"{len(curve.ebn0_db)} grid points; wrote {target}")


def cmd_verify(args) -> int:
    cfg, out_dir, _ = _prepare(args)
    failures = 0

    def report(name: str, ok: bool):
        nonlocal failures
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1

    report("config schema round-trip", parse_config(config_to_dict(cfg)) == cfg)

    for k in (2, 3, 8, 16):
        rng = np.random.default_rng(k)
        c = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        rho = aperiodic_corr(c)
        lhs = abs(rho[0]) ** 2 + 2 * (np.abs(rho[1:]) ** 2).sum()
        rho_ext = np.concatenate([rho, [0.0]])
        per = np.abs(rho[:k] + np.conj(rho_ext[k - np.arange(k)])) ** 2
        odd = np.abs(rho[:k] - np.conj(rho_ext[k - np.arange(k)])) ** 2
        report(
            f"decomposition identity K={k}",
            abs(lhs - 0.5 * (per.sum() + odd.sum())) <= 1e-9 * max(1.0, abs(lhs)),
        )
        # Even and odd samples of the 2K-point envelope: K times the
        # cyclic and the negacyclic spectral power.
        power = np.abs(baseband_samples(c, 2)) ** 2
        energy = k * np.vdot(c, c).real
        parseval = max(abs(power[0::2].sum() - energy), abs(power[1::2].sum() - energy))
        report(f"Parseval K={k}", parseval <= 1e-10 * max(1.0, energy))

    try:
        build_basis(cfg.k_carriers)
        report(f"basis build K={cfg.k_carriers}", True)
    except ArithmeticError:
        report(f"basis build K={cfg.k_carriers}", False)

    if args.codebook is not None:
        codebook = load_codebook(args.codebook)
        report("codebook invariants", True)  # load_codebook validates
        sample = codebook.symbols[: min(100, codebook.size)]
        peaks = peak_envelope_power(sample, 16)
        l2 = (np.abs(sample) ** 2).sum(axis=1)
        l1sq = np.abs(sample).sum(axis=1) ** 2
        ok = bool(
            np.all(peaks >= l2 - 1e-9)
            and np.all(peaks <= l1sq + 1e-9)
            and np.all(l1sq <= codebook.k_carriers * l2 + 1e-9)
        )
        report("envelope norm sandwich", ok)
        if args.unitaries is not None:
            state = _load_unitaries(args.unitaries, codebook)
            report("unitarity of loaded set", state.unitarity_error() <= UNITARITY_TOL)
            w = state.matrices[0]
            c = codebook.symbols[0]
            report("receiver roundtrip", np.abs(w.conj().T @ (w @ c) - c).max() <= 1e-10)

    for manifest in sorted(out_dir.glob("*.manifest.json")):
        for name, ok in verify_manifest(manifest):
            report(f"checksum {manifest.name}:{name}", ok)

    return EXIT_OK if failures == 0 else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (RankDeficientUpdate, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
