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
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import bound_report
from .channel import LinkConfig, RappModel, ber_sweep
from .core import (
    QamConstellation,
    generate_codebook,
    load_codebook,
    save_codebook,
)
from .optimizer import (
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


# ---------------------------------------------------------------------------
# configuration schema


@dataclass(frozen=True)
class GammaGridSpec:
    start_db: float = 4.0
    stop_db: float = 13.0
    step_db: float = 0.25


@dataclass(frozen=True)
class RappSettings:
    enabled: bool = True
    p: float = 2.0
    backoff_db: float = 2.0
    variant: str = "standard"


@dataclass(frozen=True)
class ExperimentConfig:
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


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _pop_scalar(data: dict, key: str, kinds, default, message: str, allow_none=False,
                field: str | None = None):
    """Pop and type-check one field; ``field`` names it in messages
    (default ``key``).  JSON's Infinity and NaN parse as floats and are
    rejected here."""
    value = data.pop(key, default)
    if value is None and allow_none:
        return None
    problem = f"config field '{field or key}': {message} (got {value!r})"
    _check(isinstance(value, kinds) and not isinstance(value, bool) or kinds is bool, problem)
    if kinds is bool:
        _check(isinstance(value, bool), problem)
    _check(not isinstance(value, float) or math.isfinite(value), problem)
    return value


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a config dict against the schema; unknown keys are errors."""
    _check(isinstance(data, dict), "config must be a JSON object")
    data = dict(data)
    version = _pop_scalar(data, "version", int, CONFIG_VERSION, "must be an integer")
    _check(version == CONFIG_VERSION, f"unsupported config version {version}")

    k = _pop_scalar(data, "k_carriers", int, 128, "must be an integer >= 2")
    _check(k >= 2, "config field 'k_carriers': must be >= 2")
    order = _pop_scalar(data, "qam_order", int, 16, "must be an integer")
    scale = _pop_scalar(data, "qam_scale", (int, float), None, "must be a finite number",
                        allow_none=True)
    _check(scale is None or scale > 0, "config field 'qam_scale': must be positive")
    count = _pop_scalar(data, "codebook_size", int, 2000, "must be a positive integer")
    n_sub = _pop_scalar(data, "n_subsets", int, 5, "must be a positive integer")
    _check(count > 0 and n_sub > 0, "codebook_size and n_subsets must be positive")
    _check(count % n_sub == 0, f"codebook_size {count} not divisible by n_subsets {n_sub}")
    j_ccdf = _pop_scalar(data, "j_ccdf", int, 16, "must be an integer >= 1")
    j_ber = _pop_scalar(data, "j_ber", int, 1, "must be an integer >= 1")
    _check(j_ccdf >= 1 and j_ber >= 1, "oversampling factors must be >= 1")
    epsilon = _pop_scalar(data, "epsilon", (int, float), None, "must be a finite number",
                          allow_none=True)
    _check(epsilon is None or epsilon > 0, "config field 'epsilon': must be positive")
    max_iters = _pop_scalar(data, "max_iters", int, 20000, "must be a nonnegative integer")
    _check(max_iters >= 0, "config field 'max_iters': must be >= 0")
    stop_tol = _pop_scalar(data, "stop_tol", (int, float), 1e-6, "must be a finite number >= 0")
    _check(stop_tol >= 0, "config field 'stop_tol': must be >= 0")
    projection = _pop_scalar(data, "projection", str, "symmetric_decorrelation", "must be a string")
    mode = _pop_scalar(data, "mode", str, "stochastic", "must be a string")
    checkpoint = _pop_scalar(data, "checkpoint_every", int, 500, "must be an integer >= 1")
    _check(checkpoint >= 1, "config field 'checkpoint_every': must be >= 1")

    grid_raw = data.pop("gamma_grid_db", {})
    _check(isinstance(grid_raw, dict), "config field 'gamma_grid_db': must be an object")
    grid_raw = dict(grid_raw)
    start = _pop_scalar(grid_raw, "start", (int, float), 4.0, "must be a finite number",
                        field="gamma_grid_db.start")
    stop = _pop_scalar(grid_raw, "stop", (int, float), 13.0, "must be a finite number",
                       field="gamma_grid_db.stop")
    step = _pop_scalar(grid_raw, "step", (int, float), 0.25, "must be a finite number > 0",
                       field="gamma_grid_db.step")
    _check(not grid_raw, f"unknown keys in gamma_grid_db: {sorted(grid_raw)}")
    _check(step > 0 and stop >= start, "gamma grid requires step > 0 and stop >= start")
    gamma = GammaGridSpec(start_db=float(start), stop_db=float(stop), step_db=float(step))

    ebn0_raw = data.pop("ebn0_grid_db", [4.0, 8.0, 12.0])
    _check(
        isinstance(ebn0_raw, (list, tuple))
        and len(ebn0_raw) > 0
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
                for x in ebn0_raw),
        "config field 'ebn0_grid_db': must be a non-empty list of finite numbers",
    )
    ebn0 = tuple(float(x) for x in ebn0_raw)

    rapp_raw = data.pop("rapp", {})
    _check(isinstance(rapp_raw, dict), "config field 'rapp': must be an object")
    rapp_raw = dict(rapp_raw)
    enabled = _pop_scalar(rapp_raw, "enabled", bool, True, "must be true or false")
    p = _pop_scalar(rapp_raw, "p", (int, float), 2.0, "must be a finite number > 0",
                    field="rapp.p")
    backoff = _pop_scalar(rapp_raw, "backoff_db", (int, float), 2.0, "must be a finite number",
                          field="rapp.backoff_db")
    variant = _pop_scalar(rapp_raw, "variant", str, "standard", "must be a string")
    _check(not rapp_raw, f"unknown keys in rapp: {sorted(rapp_raw)}")
    _check(p > 0, "rapp.p must be positive")
    rapp = RappSettings(enabled=enabled, p=float(p), backoff_db=float(backoff), variant=variant)

    target_errors = _pop_scalar(data, "ber_target_errors", int, 200, "must be an integer >= 1")
    max_symbols = _pop_scalar(data, "ber_max_symbols", int, 2_000_000, "must be an integer >= 1")
    _check(target_errors >= 1 and max_symbols >= 1, "BER budgets must be >= 1")
    seed = _pop_scalar(data, "seed", int, 1234, "must be an integer")
    out_dir = _pop_scalar(data, "out_dir", str, "runs/default", "must be a string")
    _check(not data, f"unknown config keys: {sorted(data)}")

    cfg = ExperimentConfig(
        version=version, k_carriers=k, qam_order=order, qam_scale=scale,
        codebook_size=count, n_subsets=n_sub, j_ccdf=j_ccdf, j_ber=j_ber,
        epsilon=epsilon, max_iters=max_iters, stop_tol=float(stop_tol),
        projection=projection, mode=mode, checkpoint_every=checkpoint,
        gamma_grid_db=gamma, ebn0_grid_db=ebn0, rapp=rapp,
        ber_target_errors=target_errors, ber_max_symbols=max_symbols,
        seed=seed, out_dir=out_dir,
    )
    # Constructor-level validation of enum-ish fields and QAM order.
    QamConstellation.square(cfg.qam_order, cfg.qam_scale)
    OptimizerConfig(
        epsilon=cfg.epsilon, max_iters=cfg.max_iters, stop_tol=cfg.stop_tol,
        projection=cfg.projection, mode=cfg.mode, seed=cfg.seed,
        checkpoint_every=cfg.checkpoint_every,
    )
    RappModel(smoothness=cfg.rapp.p, clip_level=1.0, variant=cfg.rapp.variant)
    return cfg


def config_to_dict(cfg: ExperimentConfig) -> dict:
    out = asdict(cfg)
    out["gamma_grid_db"] = {
        "start": cfg.gamma_grid_db.start_db,
        "stop": cfg.gamma_grid_db.stop_db,
        "step": cfg.gamma_grid_db.step_db,
    }
    out["ebn0_grid_db"] = list(cfg.ebn0_grid_db)
    out["rapp"] = asdict(cfg.rapp)
    return out


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
    return db_to_linear(default_gamma_grid_db(grid.start_db, grid.stop_db, grid.step_db))


# ---------------------------------------------------------------------------
# manifests


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(
    out_dir: Path,
    command: str,
    cfg_hash: str,
    files: list[Path],
    record_timing: bool,
    elapsed_s: float,
) -> Path:
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": 1,
        "artifact_version": __version__,
        "command": command,
        "config_hash": cfg_hash,
        "created_utc": datetime.now(timezone.utc).isoformat() if record_timing else None,
        "elapsed_s": elapsed_s if record_timing else None,
        "files": {
            f.name: {"sha256": _sha256(f), "bytes": f.stat().st_size} for f in files
        },
    }
    path = out_dir / f"{command}.manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
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


def _prepare(args) -> tuple[ExperimentConfig, Path]:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    out_dir = Path(args.out) if args.out else Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return cfg, out_dir


def _constellation(cfg: ExperimentConfig) -> QamConstellation:
    return QamConstellation.square(cfg.qam_order, cfg.qam_scale)


def _load_unitaries_or_identity(path, codebook) -> UnitarySet:
    if path is None:
        return UnitarySet.identity(codebook.n_subsets, codebook.k_carriers)
    state = load_unitaries(path)
    if state.n_subsets != codebook.n_subsets or state.k_carriers != codebook.k_carriers:
        raise ValueError("unitary set does not match the codebook dimensions")
    return state


def cmd_gen(args) -> int:
    cfg, out_dir = _prepare(args)
    started = time.perf_counter()
    codebook = generate_codebook(
        _constellation(cfg), cfg.k_carriers, cfg.codebook_size, cfg.n_subsets, cfg.seed
    )
    target = out_dir / "codebook.bin"
    save_codebook(codebook, target)
    write_manifest(out_dir, "gen", config_hash(cfg), [target], args.record_timing,
                   time.perf_counter() - started)
    print(f"gen: wrote {target} ({codebook.size} x {codebook.k_carriers}, "
          f"{codebook.n_subsets} subsets)")
    return EXIT_OK


def cmd_bounds(args) -> int:
    cfg, out_dir = _prepare(args)
    started = time.perf_counter()
    codebook = load_codebook(args.codebook)
    unitaries = None
    if args.unitaries is not None:
        unitaries = _load_unitaries_or_identity(args.unitaries, codebook)
    basis = build_basis(codebook.k_carriers)
    report = bound_report(codebook, basis, gamma_grid_linear(cfg), unitaries)
    target = out_dir / "bounds.csv"
    report.write_csv(target)
    sidecar = target.with_suffix(".json")
    write_manifest(out_dir, "bounds", config_hash(cfg), [target, sidecar],
                   args.record_timing, time.perf_counter() - started)
    print(f"bounds: R = {report.r_value:.6g}, a = {report.a:.6g}, b = {report.b:.6g}; "
          f"wrote {target}")
    return EXIT_OK


def cmd_optimize(args) -> int:
    cfg, out_dir = _prepare(args)
    started = time.perf_counter()
    codebook = load_codebook(args.codebook)
    basis = build_basis(codebook.k_carriers)
    opt_cfg = OptimizerConfig(
        epsilon=cfg.epsilon, max_iters=cfg.max_iters, stop_tol=cfg.stop_tol,
        projection=cfg.projection, mode=cfg.mode, seed=cfg.seed,
        checkpoint_every=cfg.checkpoint_every,
    )
    initial = None
    if args.resume is not None:
        initial = load_unitaries(args.resume)
    state, trace = run(codebook, basis, opt_cfg, initial=initial)
    target = out_dir / "unitaries.bin"
    save_unitaries(state, target, seed=cfg.seed, config_hash=config_hash(cfg))
    trace_path = out_dir / "optimize_trace.csv"
    with open(trace_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "r_value", "max_step_norm"])
        for point in trace:
            writer.writerow(
                [point.iteration, f"{point.r_value:.17g}", f"{point.max_step_norm:.17g}"]
            )
    write_manifest(out_dir, "optimize", config_hash(cfg), [target, trace_path],
                   args.record_timing, time.perf_counter() - started)
    print(f"optimize: iteration {state.iteration}, R {trace[0].r_value:.6g} -> "
          f"{trace[-1].r_value:.6g}; wrote {target}")
    if trace[-1].r_value > trace[0].r_value:
        print(f"warning: R rose from {trace[0].r_value:.6g} to {trace[-1].r_value:.6g}; "
              f"epsilon = {opt_cfg.resolved_epsilon(basis.size):.3g} is likely too large "
              f"for K = {basis.size}", file=sys.stderr)
    return EXIT_OK


def cmd_ccdf(args) -> int:
    cfg, out_dir = _prepare(args)
    started = time.perf_counter()
    codebook = load_codebook(args.codebook)
    unitaries = None
    if args.unitaries is not None:
        unitaries = _load_unitaries_or_identity(args.unitaries, codebook)
    oversampling = args.oversampling if args.oversampling is not None else cfg.j_ccdf
    curve = empirical_ccdf(codebook, gamma_grid_linear(cfg), unitaries, oversampling)
    target = out_dir / "ccdf.csv"
    curve.write_csv(target)
    write_manifest(out_dir, "ccdf", config_hash(cfg), [target], args.record_timing,
                   time.perf_counter() - started)
    print(f"ccdf: {curve.sample_count} codewords at J={oversampling}; wrote {target}")
    return EXIT_OK


def cmd_ber(args) -> int:
    cfg, out_dir = _prepare(args)
    started = time.perf_counter()
    codebook = load_codebook(args.codebook)
    if codebook.qam_order is None:
        raise ValueError("codebook carries no constellation metadata; BER needs a QAM codebook")
    constellation = QamConstellation.square(codebook.qam_order, codebook.qam_scale)
    unitaries = _load_unitaries_or_identity(args.unitaries, codebook)
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
    write_manifest(out_dir, "ber", config_hash(cfg), [target], args.record_timing,
                   time.perf_counter() - started)
    print(f"ber: {len(curve.ebn0_db)} grid points; wrote {target}")
    return EXIT_OK


def cmd_verify(args) -> int:
    cfg, out_dir = _prepare(args)
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
            state = _load_unitaries_or_identity(args.unitaries, codebook)
            report("unitarity of loaded set", state.unitarity_error() <= 1e-8)
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

    def common(p: argparse.ArgumentParser):
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory (default: config out_dir)")
        p.add_argument("--record-timing", action="store_true",
                       help="record wall-clock data in the manifest (breaks byte-identity)")

    p = sub.add_parser("gen", help="generate a codebook file")
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bounds", help="evaluate CCDF bounds for a codebook")
    common(p)
    p.add_argument("codebook", help="codebook file from 'gen'")
    p.add_argument("--unitaries", default=None, help="unitary-set file from 'optimize'")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("optimize", help="fit the unitary set")
    common(p)
    p.add_argument("codebook", help="codebook file from 'gen'")
    p.add_argument("--resume", default=None, help="unitary-set file to continue from")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("ccdf", help="measure the empirical PMEPR CCDF")
    common(p)
    p.add_argument("codebook", help="codebook file from 'gen'")
    p.add_argument("--unitaries", default=None, help="unitary-set file from 'optimize'")
    p.add_argument("--oversampling", type=int, default=None, help="override config j_ccdf")
    p.set_defaults(func=cmd_ccdf)

    p = sub.add_parser("ber", help="Monte Carlo bit error rates over the link")
    common(p)
    p.add_argument("codebook", help="codebook file from 'gen'")
    p.add_argument("--unitaries", default=None, help="unitary-set file (identity if omitted)")
    p.set_defaults(func=cmd_ber)

    p = sub.add_parser("verify", help="run the invariant suite against artifacts")
    common(p)
    p.add_argument("codebook", nargs="?", default=None, help="codebook file to check")
    p.add_argument("--unitaries", default=None, help="unitary-set file to check")
    p.set_defaults(func=cmd_verify)

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
