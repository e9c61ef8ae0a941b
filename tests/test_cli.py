import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from dataclasses import asdict, is_dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paprbound
from paprbound import cli, spectral
from paprbound.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    config_hash,
    load_config,
    main,
    parse_config,
    verify_manifest,
    write_manifest,
)
from paprbound.core import Codebook, QamConstellation, generate_codebook, load_codebook, save_codebook
from paprbound.optimizer import UnitarySet, load_unitaries, run, save_unitaries
from paprbound.spectral import build_basis


def small_config(tmp_path, **overrides):
    data = {
        "version": 1,
        "k_carriers": 8,
        "qam_order": 16,
        "codebook_size": 64,
        "n_subsets": 4,
        "j_ccdf": 8,
        "j_ber": 1,
        "epsilon": 1e-3,
        "max_iters": 40,
        "stop_tol": 0.0,
        "checkpoint_every": 10,
        "gamma_grid_db": {"start": 4.0, "stop": 12.0, "step": 0.5},
        "ebn0_grid_db": [6.0, 10.0],
        "rapp": {"enabled": False},
        "ber_target_errors": 40,
        "ber_max_symbols": 100000,
        "seed": 77,
        "out_dir": str(tmp_path / "run"),
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_config_round_trip_and_hash(tmp_path):
    path = small_config(tmp_path)
    cfg = load_config(path)
    assert parse_config(asdict(cfg)) == cfg
    assert config_hash(cfg) == config_hash(parse_config(asdict(cfg)))


def test_config_rejects_unknown_and_bad_fields(tmp_path, capsys):
    with pytest.raises(ValueError, match="unknown config keys"):
        parse_config({"mystery_knob": 3})
    with pytest.raises(ValueError, match="gamma_grid_db"):
        parse_config({"gamma_grid_db": {"start": 4.0, "slope": 1.0}})
    with pytest.raises(ValueError, match="k_carriers"):
        parse_config({"k_carriers": 1})
    with pytest.raises(ValueError, match="version"):
        parse_config({"version": 99})
    with pytest.raises(ValueError, match="not divisible"):
        parse_config({"codebook_size": 10, "n_subsets": 3})
    with pytest.raises(ValueError):
        parse_config({"projection": "nonsense"})
    # The constellation rule names the config field; a library call keeps its own message.
    for order in (8, 36, 100, 2**40):
        qam_error = f"config field 'qam_order': must be a power of 4 from 4 to 65536, got {order}"
        with pytest.raises(ValueError, match=f"^{qam_error}$"):
            parse_config({"qam_order": order})
        assert main(["gen", "--config", str(small_config(tmp_path, qam_order=order))]) == EXIT_VALIDATION
        assert capsys.readouterr().err == f"error: {qam_error}\n"
    # JSON's Infinity and NaN parse as floats; every numeric field refuses them.
    for bad in (float("inf"), float("-inf"), float("nan")):
        for data, field in (
            ({"epsilon": bad}, "'epsilon'"),
            ({"stop_tol": bad}, "'stop_tol'"),
            ({"qam_scale": bad}, "'qam_scale'"),
            ({"gamma_grid_db": {"start": bad}}, "'gamma_grid_db.start'"),
            ({"gamma_grid_db": {"stop": bad}}, "'gamma_grid_db.stop'"),
            ({"gamma_grid_db": {"step": bad}}, "'gamma_grid_db.step'"),
            ({"ebn0_grid_db": [6.0, bad]}, "'ebn0_grid_db'"),
            ({"rapp": {"p": bad}}, "'rapp.p'"),
            ({"rapp": {"backoff_db": bad}}, "'rapp.backoff_db'"),
        ):
            with pytest.raises(ValueError, match=field):
                parse_config(data)
    # Wrong JSON types: an int field takes no bool or float, a bool field
    # no 1, a seed no null, a list no empty list, a section no list.
    for data, field in (
        ({"epsilon": 0}, "'epsilon'"),  # OptimizerConfig accepts 0; a config may not
        ({"k_carriers": True}, "'k_carriers'"),
        ({"k_carriers": 64.0}, "'k_carriers'"),
        ({"rapp": {"enabled": 1}}, "enabled'"),
        ({"seed": None}, "'seed'"),
        ({"ebn0_grid_db": []}, "'ebn0_grid_db'"),
        ({"rapp": []}, "'rapp'"),
    ):
        with pytest.raises(ValueError, match=field):
            parse_config(data)


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_config() -> dict:
    """The config.json block of the README's CLI section."""
    text = README.read_text()
    start = text.index("cat > config.json <<'EOF'\n") + len("cat > config.json <<'EOF'\n")
    return json.loads(text[start : text.index("\nEOF\n", start)])


def test_readme_config_matches_the_schema():
    data = readme_config()
    cfg = parse_config(data)
    out = json.loads(json.dumps(asdict(cfg)))  # as hashed and written
    for key, value in data.items():
        if isinstance(value, dict):  # nested: the keys the README sets
            assert {name: out[key][name] for name in value} == value
        else:
            assert out[key] == value
    assert parse_config(out) == cfg


# Full config_hash values: a change to the schema, its defaults or its
# int/float rules shows up here.
GOLDEN_HASHES = [
    ({}, "97a5f4e2b79cf67601f49486429671545f5ea24add0f8456f289c8f9698d7773"),
    (None, "0827befdaa6b0aa98ce6390153e44311c6e8020fd54d7a594d823dddbdb7be7a"),
    ({"epsilon": 1, "qam_scale": 1},
     "c77f55891b1ed0767584dc672aee26b7a4a0465e5c15fbcf092728101c853ce5"),
    ({"epsilon": 1.0, "qam_scale": 1.0},
     "c90945c26188bfc034a77fc79008bd475d70fba0119733e9cd4dae999f0b846b"),
    ({"gamma_grid_db": {"start": 4, "stop": 13, "step": 1}, "ebn0_grid_db": [4, 8],
      "rapp": {"p": 3, "backoff_db": 1}, "stop_tol": 0},
     "f7e9d8030351354b1d8082160576fb36563f9b828469388d06545fcd0fa8f36f"),
]


@pytest.mark.parametrize(
    "data, digest", GOLDEN_HASHES, ids=["defaults", "readme", "int-epsilon", "float-epsilon",
                                         "int-grids"]
)
def test_config_hash_is_pinned(data, digest):
    cfg = parse_config(readme_config() if data is None else data)
    assert config_hash(cfg) == digest
    assert config_hash(parse_config(asdict(cfg))) == digest


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_gen_bounds_ccdf_pipeline(tmp_path):
    cfg_path = small_config(tmp_path)
    out = tmp_path / "run"
    assert run_cli("gen", "--config", cfg_path) == EXIT_OK
    book = load_codebook(out / "codebook.bin")
    assert book.size == 64 and book.k_carriers == 8

    assert run_cli("bounds", "--config", cfg_path, out / "codebook.bin") == EXIT_OK
    rows = (out / "bounds.csv").read_text().splitlines()
    assert rows[0] == "gamma_db,markov,hoeffding,hoeffding_valid"
    sidecar = json.loads((out / "bounds.json").read_text())
    threshold_db = 10 * np.log10(np.sqrt(sidecar["R"]) / sidecar["p_av"])
    for line in rows[1:]:
        gamma_db, _, _, flag = line.split(",")
        assert (flag == "true") == (float(gamma_db) > threshold_db + 1e-12)

    assert run_cli("ccdf", "--config", cfg_path, out / "codebook.bin") == EXIT_OK
    curve = np.genfromtxt(out / "ccdf.csv", delimiter=",", names=True)
    assert np.all(curve["n_samples"] == 64)

    # cross-command consistency: the markov column dominates the
    # empirical curve at every grid point
    markov = np.array([float(line.split(",")[1]) for line in rows[1:]])
    assert np.all(curve["ccdf"] <= markov + 1e-12)

    # J=1 curve is pointwise below the J=8 curve
    j1 = tmp_path / "j1"
    j1.mkdir()
    assert run_cli("ccdf", "--config", small_config(j1, j_ccdf=1), out / "codebook.bin") == EXIT_OK
    low = np.genfromtxt(j1 / "run" / "ccdf.csv", delimiter=",", names=True)
    assert np.all(low["ccdf"] <= curve["ccdf"] + 1e-12)


def test_bounds_identity_unitaries_match_plain(tmp_path):
    cfg_path = small_config(tmp_path, max_iters=0)
    out = tmp_path / "run"
    run_cli("gen", "--config", cfg_path)
    run_cli("optimize", "--config", cfg_path, out / "codebook.bin")  # identity at 0 iters
    plain_dir = tmp_path / "plain"
    with_dir = tmp_path / "with"
    run_cli("bounds", "--config", cfg_path, "--out", plain_dir, out / "codebook.bin")
    run_cli("bounds", "--config", cfg_path, "--out", with_dir,
            "--unitaries", out / "unitaries.bin", out / "codebook.bin")
    assert (plain_dir / "bounds.csv").read_bytes() == (with_dir / "bounds.csv").read_bytes()


def test_optimize_trace_and_resume(tmp_path):
    cfg_path = small_config(tmp_path)
    out = tmp_path / "run"
    run_cli("gen", "--config", cfg_path)
    assert run_cli("optimize", "--config", cfg_path, out / "codebook.bin") == EXIT_OK
    state = load_unitaries(out / "unitaries.bin")
    assert state.iteration == 40
    trace_rows = (out / "optimize_trace.csv").read_text().splitlines()
    assert trace_rows[0] == "iteration,r_value,max_step_norm"
    assert trace_rows[1].startswith("0,")
    assert trace_rows[-1].startswith("40,")
    # The exact text: the iteration in decimal, R and the step norm with
    # 17 significant digits, csv's \r\n row ends.
    _, trace = run(load_codebook(out / "codebook.bin"), build_basis(8), load_config(cfg_path))
    rows = [f"{p.iteration},{p.r_value:.17g},{p.max_step_norm:.17g}\r\n" for p in trace]
    expected = "iteration,r_value,max_step_norm\r\n" + "".join(rows)
    assert (out / "optimize_trace.csv").read_bytes() == expected.encode()
    assert rows[0].endswith(",0\r\n") and len(rows) == 5

    # two-stage resume reproduces the single-shot trajectory bit for bit
    cfg_half = small_config(tmp_path, max_iters=20)
    half_dir = tmp_path / "half"
    run_cli("optimize", "--config", cfg_half, "--out", half_dir, out / "codebook.bin")
    resumed_dir = tmp_path / "resumed"
    run_cli("optimize", "--config", cfg_half, "--out", resumed_dir,
            "--resume", half_dir / "unitaries.bin", out / "codebook.bin")
    final = load_unitaries(resumed_dir / "unitaries.bin")
    assert final.iteration == 40
    np.testing.assert_array_equal(final.matrices, state.matrices)
    # seam: resumed trace starts at the R where the first stage stopped
    half_last = (half_dir / "optimize_trace.csv").read_text().splitlines()[-1]
    resumed_first = (resumed_dir / "optimize_trace.csv").read_text().splitlines()[1]
    assert half_last.split(",")[:2] == resumed_first.split(",")[:2]


def test_optimize_zero_iters_persists_identity(tmp_path):
    cfg_path = small_config(tmp_path, max_iters=0)
    out = tmp_path / "run"
    run_cli("gen", "--config", cfg_path)
    assert run_cli("optimize", "--config", cfg_path, out / "codebook.bin") == EXIT_OK
    state = load_unitaries(out / "unitaries.bin")
    assert state.iteration == 0
    eye = np.broadcast_to(np.eye(8), (4, 8, 8))
    np.testing.assert_array_equal(state.matrices, eye)


def test_ber_command_and_reruns(tmp_path):
    cfg_path = small_config(tmp_path)
    out = tmp_path / "run"
    run_cli("gen", "--config", cfg_path)
    assert run_cli("ber", "--config", cfg_path, out / "codebook.bin") == EXIT_OK
    first = (out / "ber.csv").read_bytes()
    assert run_cli("ber", "--config", cfg_path, out / "codebook.bin") == EXIT_OK
    assert (out / "ber.csv").read_bytes() == first
    lines = first.decode().splitlines()
    assert lines[0] == "ebn0_db,ber,n_bits,n_errors,ci_low,ci_high"
    assert len(lines) == 3


def test_non_finite_config_never_runs(tmp_path, capsys):
    # Infinity must stop at the config, in every subcommand: in the
    # optimizer it yields an all-NaN unitaries.bin, in the gamma grid a
    # float-to-int overflow.  So must a finite gamma grid whose point
    # count overflows or is huge, a gamma grid past +-600 dB, a QAM scale
    # whose codeword powers are not normal floats, and a Rapp backoff
    # whose 10^(dB/10) overflows or underflows.  Warnings count as stderr
    # lines.
    cfg_path = small_config(tmp_path)
    out = tmp_path / "run"
    assert run_cli("gen", "--config", cfg_path) == EXIT_OK
    capsys.readouterr()
    for overrides, field in (
        ({"epsilon": float("inf")}, "epsilon"),
        ({"gamma_grid_db": {"start": 4.0, "stop": float("inf"), "step": 0.5}},
         "gamma_grid_db.stop"),
        ({"gamma_grid_db": {"start": -1e308, "stop": 1e308, "step": 1e-300}}, "gamma_grid_db"),
        ({"gamma_grid_db": {"start": 0, "stop": 1e6, "step": 1e-6}}, "gamma_grid_db"),  # 10^12
        # 10^(dB/10) overflows, underflows to 0, or rounds neighbouring points to one ratio
        ({"gamma_grid_db": {"start": 1e6, "stop": 1e6 + 1, "step": 1}}, "gamma_grid_db"),
        ({"gamma_grid_db": {"start": -1e6, "stop": -1e6 + 1, "step": 1}}, "gamma_grid_db"),
        ({"gamma_grid_db": {"start": 0, "stop": 1e-12, "step": 2e-17}}, "gamma_grid_db"),
        ({"rapp": {"backoff_db": 1e6}}, "rapp.backoff_db"),
        ({"rapp": {"backoff_db": -1e6}}, "rapp.backoff_db"),
        # The largest codeword power overflows (1e200; the constellation's
        # points too at 1.8e308), or the smallest underflows (1e-155).
        ({"qam_scale": 1e200}, "qam_scale"),
        ({"qam_scale": 1e-155}, "qam_scale"),
        ({"qam_scale": 1.7976931348623157e308}, "qam_scale"),
        # P_av^2 gamma^2 squared would overflow, or R / (P_av^2 gamma^2) would
        ({"gamma_grid_db": {"start": 4.0, "stop": 1000.0, "step": 1.0}}, "gamma_grid_db"),
        ({"gamma_grid_db": {"start": -1540.0, "stop": -1530.0, "step": 1.0}}, "gamma_grid_db"),
    ):
        bad = small_config(tmp_path, **overrides)
        if field in ("epsilon", "gamma_grid_db.stop"):
            assert "Infinity" in bad.read_text()
        for command in ("gen", "bounds", "optimize", "ccdf", "ber", "verify"):
            code, err = run_recording(command, "--config", bad, *([] if command == "gen" else [out / "codebook.bin"]))
            assert code == EXIT_VALIDATION and len(err) == 1, (overrides, command, err)
            assert err[0].startswith("error: ") and field in err[0], (overrides, command, err)
    assert sorted(path.name for path in out.iterdir()) == ["codebook.bin", "gen.manifest.json"]


@pytest.mark.parametrize("scale", [1e150, 1e-100, 1e-60, 1e-45, 1e37])
def test_config_scales_run_where_the_reports_fit(tmp_path, scale):
    # Every command works at unit mean symbol power, so a config whose
    # codeword powers are normal floats runs everywhere.  Only bounds and
    # optimize report R, which scales with the fourth power of the symbols:
    # where it leaves float64's normal range (R overflows at 1e150 and
    # underflows at 1e-100) they exit 2 with one line.
    cfg_path = small_config(tmp_path, qam_scale=scale)
    book = tmp_path / "run" / "codebook.bin"
    for command in ("gen", "bounds", "optimize", "ccdf", "ber", "verify"):
        code, err = run_recording(command, "--config", cfg_path, *([] if command == "gen" else [book]))
        if command in ("bounds", "optimize") and scale in (1e150, 1e-100):
            r_value = "inf" if scale > 1 else "0.0"
            assert code == EXIT_VALIDATION and len(err) == 1 and f"R is {r_value}" in err[0], (command, err)
        else:
            assert (code, err) == (EXIT_OK, []), (command, err)


@pytest.mark.parametrize("scale, command, overrides, field", [
    (1e60, "ber", {"rapp": {"enabled": True, "backoff_db": 3000.0}}, "qam_scale"),
    (1e30, "ber", {"rapp": {"enabled": True, "backoff_db": 3000.0}}, "rapp.backoff_db"),
    (1e-155, "ber", {}, "qam_scale"),
    (1e-155, "bounds", {}, "qam_scale"),
    (1e-60, "bounds", {}, "qam_scale"),
    (1e37, "bounds", {}, "qam_scale"),
])
def test_codebook_powers_fail_closed(tmp_path, scale, command, overrides, field):
    # A codebook drawn at another scale, read under a default-scale config.
    # bounds and ber work at unit mean symbol power, so ber (which reports
    # only bit counts) runs at every scale, and bounds wherever the R, a
    # and b it reports fit float64.  At 1e-155 R underflows: bounds exits
    # 2 with one line naming the file and the field, not 3 or 0 after a
    # RuntimeWarning, and writes nothing.
    book = tmp_path / "foreign.bin"
    save_codebook(generate_codebook(QamConstellation.square(16, scale), 8, 40, 2, seed=3), book)
    out = tmp_path / "run"
    code, err = run_recording(command, "--config", small_config(tmp_path, **overrides), book)
    if command == "ber" or scale > 1e-100:
        assert (code, err) == (EXIT_OK, []), err
        return
    assert code == EXIT_VALIDATION and len(err) == 1 and field in err[0] and str(book) in err[0], err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("scale", [1e-20, 1e-7, None])
def test_tampered_header_p_av_fails_closed(tmp_path, scale):
    # A codebook whose header p_av is doubled, at any scale: bounds, ccdf
    # and ber exit 2 with one line naming the file and the field.
    cfg_path = small_config(tmp_path, **({} if scale is None else {"qam_scale": scale}))
    out = tmp_path / "run"
    assert run_recording("gen", "--config", cfg_path) == (EXIT_OK, [])
    header, payload = (out / "codebook.bin").read_bytes().split(b"\n", 1)
    fields = json.loads(header)
    fields["p_av"] *= 2
    book = tmp_path / "tampered.bin"
    book.write_bytes(json.dumps(fields, sort_keys=True).encode() + b"\n" + payload)
    for command in ("bounds", "ccdf", "ber"):
        code, err = run_recording(command, "--config", cfg_path, book)
        assert code == EXIT_VALIDATION and len(err) == 1, (command, err)
        assert err[0].startswith(f"error: {book}: header field 'p_av' must be "), (command, err)


@pytest.mark.parametrize("where, field", [
    ("config", "epsilon"), ("config", "qam_scale"), ("config", "stop_tol"),
    ("header", "p_av"), ("header", "qam_scale"),
])
def test_huge_integer_fails_closed(tmp_path, where, field):
    # A JSON integer past float64's range fails the field check, with one
    # line naming the field, before anything converts it to a float.
    cfg_path = small_config(tmp_path)
    out = tmp_path / "run"
    if where == "config":
        code, err = run_recording("gen", "--config", small_config(tmp_path, **{field: 10**400}))
    else:
        assert run_recording("gen", "--config", cfg_path) == (EXIT_OK, [])
        rewrite_header(out / "codebook.bin", lambda fields: {**fields, field: 10**400})
        code, err = run_recording("bounds", "--config", cfg_path, out / "codebook.bin")
    assert code == EXIT_VALIDATION and len(err) == 1, err
    assert err[0].startswith("error: ") and f"field '{field}'" in err[0] and "must be a finite number" in err[0], err


@pytest.mark.parametrize("scale", [1e80, 1e100, 1e150])
def test_optimize_refuses_an_overflowing_r(tmp_path, scale):
    # R of a codebook drawn at a huge scale overflows float64 before any
    # step: optimize exits 2 with one line and no warning, writing nothing.
    book = tmp_path / "foreign.bin"
    save_codebook(generate_codebook(QamConstellation.square(16, scale), 8, 64, 4, seed=3), book)
    out = tmp_path / "run"
    code, err = run_recording("optimize", "--config", small_config(tmp_path), book)
    assert code == EXIT_VALIDATION and err == ["error: R is inf at iteration 0: the codeword powers overflow float64"]
    assert not out.exists() or not any(out.iterdir())


D0 = QamConstellation.square(16).scale  # the default 16-QAM scale, unit mean symbol power


def read_trace(path) -> list[list[str]]:
    """The rows of an optimize_trace.csv, header dropped, as text cells."""
    return [row.split(",") for row in path.read_text().splitlines()[1:]]


@pytest.mark.parametrize("k", [-60, -20, 20, 60, 120])
def test_power_of_two_scales_give_the_same_bytes(tmp_path, k):
    # A codebook drawn at qam_scale D0 2^k is worked on at unit mean symbol
    # power: its symbols are exactly 2^k times the D0 codebook's, bounds.csv,
    # ccdf.csv, ber.csv (Rapp on) and unitaries.bin are the D0 run's bytes,
    # and R is exactly 2^(4k) times the D0 run's, a, b and p_av 2^(2k) times.
    # Only gen reads the config's qam_scale, so the other commands share
    # one default-scale config.
    runs = []
    for exponent in (0, k):
        root = tmp_path / f"scale{exponent}"
        (root / "gen").mkdir(parents=True)
        cfg_path = small_config(root, rapp={"enabled": True}, out_dir="unused")  # one config_hash
        gen_cfg = small_config(root / "gen", qam_scale=D0 * 2.0**exponent)
        out = root / "run"
        book, unit = out / "codebook.bin", out / "unitaries.bin"
        for argv in (("gen", "--config", gen_cfg), ("bounds", "--config", cfg_path, book),
                     ("optimize", "--config", cfg_path, book),
                     ("ccdf", "--config", cfg_path, "--unitaries", unit, book),
                     ("ber", "--config", cfg_path, "--unitaries", unit, book)):
            assert run_recording(*argv, "--out", out) == (EXIT_OK, []), argv
        runs.append(out)
    base, scaled = runs
    for name in ("bounds.csv", "ccdf.csv", "ber.csv", "unitaries.bin"):
        assert (scaled / name).read_bytes() == (base / name).read_bytes(), name
    assert np.array_equal(load_codebook(scaled / "codebook.bin").symbols,
                          load_codebook(base / "codebook.bin").symbols * 2.0**k)
    stats, stats0 = (json.loads((out / "bounds.json").read_text()) for out in (scaled, base))
    assert stats["R"] == stats0["R"] * 2.0 ** (4 * k)
    assert all(stats[key] == stats0[key] * 2.0 ** (2 * k) for key in ("a", "b", "p_av"))
    trace, trace0 = read_trace(scaled / "optimize_trace.csv"), read_trace(base / "optimize_trace.csv")
    assert [float(row[1]) for row in trace] == [float(row[1]) * 2.0 ** (4 * k) for row in trace0]
    assert [(row[0], row[2]) for row in trace] == [(row[0], row[2]) for row in trace0]


def test_resume_at_a_scaled_codebook(tmp_path):
    # At qam_scale D0 2^20, optimize and then optimize --resume give the W
    # bytes and trace rows of one uninterrupted run: the rescale is taken
    # from the codebook each time and keeps no state in the unitary-set file.
    cfg_path = small_config(tmp_path, qam_scale=D0 * 2.0**20)
    (tmp_path / "half").mkdir()
    cfg_half = small_config(tmp_path / "half", qam_scale=D0 * 2.0**20, max_iters=20)
    out = tmp_path / "run"
    book = out / "codebook.bin"
    assert run_recording("gen", "--config", cfg_path) == (EXIT_OK, [])
    assert run_recording("optimize", "--config", cfg_path, book) == (EXIT_OK, [])
    half, resumed = tmp_path / "first", tmp_path / "resumed"
    assert run_recording("optimize", "--config", cfg_half, "--out", half, book) == (EXIT_OK, [])
    assert run_recording("optimize", "--config", cfg_half, "--out", resumed,
                         "--resume", half / "unitaries.bin", book) == (EXIT_OK, [])

    def payload(path):
        header, matrices = path.read_bytes().split(b"\n", 1)
        fields = json.loads(header)
        return {key: fields[key] for key in fields if key != "config_hash"}, matrices

    assert payload(resumed / "unitaries.bin") == payload(out / "unitaries.bin")
    whole = read_trace(out / "optimize_trace.csv")
    assert read_trace(half / "optimize_trace.csv") + read_trace(resumed / "optimize_trace.csv")[1:] == whole


def test_optimize_step_is_scale_free(tmp_path):
    # epsilon is taken at unit mean symbol power.  At qam_scale 1e10, not a
    # power-of-two multiple of D0, 200 steps of 1e-3 lower R as they do at
    # D0 (with the same W up to rounding); before, they raised it
    # (1.67798e45 -> 2.0409e45).  A codebook drawn at 1e60 and optimized
    # under a default-scale config runs too (its first step's ||h||
    # overflowed, exit 3).
    out = tmp_path / "run"
    for scale in (None, 1e10):
        cfg_path = small_config(tmp_path, max_iters=200, **({} if scale is None else {"qam_scale": scale}))
        assert run_recording("gen", "--config", cfg_path) == (EXIT_OK, [])
        assert run_recording("optimize", "--config", cfg_path, out / "codebook.bin") == (EXIT_OK, [])
        r_values = [float(row[1]) for row in read_trace(out / "optimize_trace.csv")]
        assert r_values[-1] < r_values[0] * 0.95
        matrices = load_unitaries(out / "unitaries.bin").matrices
        if scale is None:
            reference = matrices
    np.testing.assert_allclose(matrices, reference, rtol=0, atol=1e-9)
    book = tmp_path / "foreign.bin"
    save_codebook(generate_codebook(QamConstellation.square(16, 1e60), 8, 64, 4, seed=3), book)
    assert run_recording("optimize", "--config", small_config(tmp_path), book) == (EXIT_OK, [])


@pytest.mark.parametrize("field, value", [("k_carriers", 10**400), ("codebook_size", 10**400),
                                          ("k_carriers", 2**62)], ids=["k-1e400", "count-1e400", "k-2e62"])
def test_huge_size_fields_fail_closed(tmp_path, field, value):
    # A size field past 2^53 exits 2 with one line naming it, before any
    # float conversion (10^400 exited 3) or numpy's array-size errors,
    # which named no field.
    code, err = run_recording("gen", "--config", small_config(tmp_path, **{field: value}))
    low = 2 if field == "k_carriers" else 1
    assert code == EXIT_VALIDATION and err == [f"error: config field '{field}': must be from {low} to 2^53"], err


@pytest.mark.parametrize("backoff_db", [3080.0, -3080.0])
def test_extreme_backoff_runs_clean(tmp_path, backoff_db):
    # 10^(dB/10) is finite and positive, but the squared clip level
    # overflows (+3080 dB: no clipping, where it exited 2) or |x|^2 / r^2
    # does (-3080 dB: full clipping, where it printed RuntimeWarnings).
    cfg_path = small_config(tmp_path, rapp={"enabled": True, "backoff_db": backoff_db})
    assert run_recording("gen", "--config", cfg_path) == (EXIT_OK, [])
    assert run_recording("ber", "--config", cfg_path, tmp_path / "run" / "codebook.bin") == (EXIT_OK, [])


@pytest.mark.parametrize("qam_scale", [1e-30, 1e10, 1e30])
def test_verify_is_scale_free(tmp_path, capsys, qam_scale):
    # The envelope sandwich is homogeneous in the symbol scale; verify
    # checks it at unit power with relative tolerances, so they hold at
    # any scale a config allows.
    cfg_path = small_config(tmp_path, qam_scale=qam_scale, max_iters=5)
    out = tmp_path / "run"
    for command in ("gen", "optimize"):
        argv = [command, "--config", cfg_path] + ([] if command == "gen" else [out / "codebook.bin"])
        assert run_cli(*argv) == EXIT_OK
    capsys.readouterr()
    assert run_cli("verify", "--config", cfg_path, "--unitaries", out / "unitaries.bin",
                   out / "codebook.bin") == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "ok   envelope norm sandwich" in lines, lines


def test_verify_sandwich_passes_constant_modulus_codebooks_at_large_k(tmp_path, capsys, monkeypatch):
    # For a QPSK codeword ||c||_1^2 = K ||c||_2^2 exactly, and at K=4096
    # both sides are about 1.7e7, where one ulp is 3.7e-9: the sandwich
    # takes a relative slack, not an absolute one.  The grid check at
    # K=4096 is not what is tested, and takes over a second: it is stubbed.
    monkeypatch.setattr(spectral.SpectralBasis, "check_grid", lambda self: None)
    cfg_path = small_config(tmp_path, k_carriers=4096, qam_order=4, codebook_size=100, n_subsets=4, seed=3)
    out = tmp_path / "run"
    assert run_cli("gen", "--config", cfg_path) == EXIT_OK
    capsys.readouterr()
    assert run_cli("verify", "--config", cfg_path, out / "codebook.bin") == EXIT_OK
    assert "ok   envelope norm sandwich" in capsys.readouterr().out.splitlines()


def test_only_verify_checks_the_grid(tmp_path, capsys, monkeypatch):
    # A conjugated grid fails the check but leaves every |s|, so every
    # quartic sum, as it was: bounds and optimize, which do not check
    # the grid, succeed, and verify reports the check as FAIL.
    cfg_path = small_config(tmp_path, max_iters=5)
    out = tmp_path / "run"
    assert run_cli("gen", "--config", cfg_path) == EXIT_OK
    exact = spectral.baseband_samples
    monkeypatch.setattr(spectral, "baseband_samples", lambda x, j=1: np.conj(exact(x, j)))
    assert run_cli("bounds", "--config", cfg_path, out / "codebook.bin") == EXIT_OK
    assert run_cli("optimize", "--config", cfg_path, out / "codebook.bin") == EXIT_OK
    capsys.readouterr()
    assert run_cli("verify", "--config", cfg_path, out / "codebook.bin") == EXIT_VALIDATION
    assert capsys.readouterr().out.splitlines()[0] == "FAIL basis build K=8"


def test_verify_sandwich_fails_a_peak_past_its_bound(tmp_path, capsys, monkeypatch):
    # A constant codeword peaks at exactly ||c||_1^2, so its sandwich is
    # tight: it passes, and a peak 1e-9 above it, relative, reads FAIL.
    cfg_path = small_config(tmp_path)
    (tmp_path / "run").mkdir()
    book = generate_codebook(QamConstellation.square(16), 8, 64, 4, seed=5)
    symbols = book.symbols.copy()
    symbols[0] = symbols[0, 0]
    save_codebook(Codebook(symbols, book.subset_sizes), tmp_path / "flat.bin")
    peak_envelope_power = cli.peak_envelope_power
    for factor, verdict in ((1.0, "ok  "), (1 + 1e-9, "FAIL")):
        monkeypatch.setattr(cli, "peak_envelope_power", lambda c, j: peak_envelope_power(c, j) * factor)
        capsys.readouterr()
        code = run_cli("verify", "--config", cfg_path, tmp_path / "flat.bin")
        assert f"{verdict} envelope norm sandwich" in capsys.readouterr().out.splitlines()
        assert code == (EXIT_OK if verdict == "ok  " else EXIT_VALIDATION)


def test_verify_passes_every_set_its_loader_accepts(tmp_path, capsys):
    # A set scaled by 1 + 6e-10 has a unitarity error of about 3.4e-9, within
    # UNITARITY_TOL = 1e-8: it loads, so verify has no line that refuses it.
    cfg_path = small_config(tmp_path, max_iters=5)
    out = tmp_path / "run"
    assert run_cli("gen", "--config", cfg_path) == EXIT_OK
    assert run_cli("optimize", "--config", cfg_path, out / "codebook.bin") == EXIT_OK
    header, payload = (out / "unitaries.bin").read_bytes().split(b"\n", 1)
    loose = tmp_path / "loose.bin"
    loose.write_bytes(header + b"\n" + (np.frombuffer(payload, "<c16") * (1 + 6e-10)).tobytes())
    assert 1e-9 < load_unitaries(loose).unitarity_error() < 1e-8
    capsys.readouterr()
    assert run_cli("verify", "--config", cfg_path, "--unitaries", loose, out / "codebook.bin") == EXIT_OK
    assert not any(line.startswith("FAIL") for line in capsys.readouterr().out.splitlines())


def test_verify_checks_a_set_without_a_codebook(tmp_path, capsys):
    # --unitaries alone is loaded, and the loader refuses a set that is not
    # unitary; the envelope sandwich needs a codebook.  A set scaled by 3
    # exits 2 with or without one.
    cfg_path = small_config(tmp_path, max_iters=5)
    out = tmp_path / "run"
    assert run_cli("gen", "--config", cfg_path) == EXIT_OK
    assert run_cli("optimize", "--config", cfg_path, out / "codebook.bin") == EXIT_OK
    capsys.readouterr()
    assert run_cli("verify", "--config", cfg_path, "--unitaries", out / "unitaries.bin") == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "ok   basis build K=8" and not any("sandwich" in line for line in lines), lines
    header, payload = (out / "unitaries.bin").read_bytes().split(b"\n", 1)
    bad = tmp_path / "bad.bin"
    bad.write_bytes(header + b"\n" + (np.frombuffer(payload, "<c16") * 3).tobytes())
    for codebook in ((), (out / "codebook.bin",)):
        code, err = run_recording("verify", "--config", cfg_path, "--unitaries", bad, *codebook)
        assert code == EXIT_VALIDATION and len(err) == 1 and err[0].startswith("error: unitarity violated"), err


def test_verify_prints_only_checks_of_its_artifacts(tmp_path, capsys):
    # The grid check at the K of the files read, the check on the given
    # codebook, then one checksum line per file each manifest lists.
    cfg_path = small_config(tmp_path, max_iters=5)
    out = tmp_path / "run"
    assert run_cli("gen", "--config", cfg_path) == EXIT_OK
    assert run_cli("optimize", "--config", cfg_path, out / "codebook.bin") == EXIT_OK
    capsys.readouterr()
    assert run_cli("verify", "--config", cfg_path, "--unitaries", out / "unitaries.bin",
                   out / "codebook.bin") == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "ok   basis build K=8",
        "ok   envelope norm sandwich",
        "ok   checksum gen.manifest.json:codebook.bin",
        "ok   checksum optimize.manifest.json:optimize_trace.csv",
        "ok   checksum optimize.manifest.json:unitaries.bin",
    ]


def test_verify_checks_the_grid_at_the_k_it_reads(tmp_path, capsys):
    # A K=16 codebook and set under a K=8 config: the grid is built at the
    # codebook's K, else the set's; the config's K only with neither file.
    # A refused file ends the run before any line.
    cfg_path = small_config(tmp_path, k_carriers=16, max_iters=5)
    out = tmp_path / "run"
    assert run_cli("gen", "--config", cfg_path) == EXIT_OK
    assert run_cli("optimize", "--config", cfg_path, out / "codebook.bin") == EXIT_OK
    cfg_path = small_config(tmp_path, k_carriers=8)
    book, unit = out / "codebook.bin", out / "unitaries.bin"
    for files, k in (((book,), 16), (("--unitaries", unit), 16), (("--unitaries", unit, book), 16), ((), 8)):
        capsys.readouterr()
        assert run_cli("verify", "--config", cfg_path, *files) == EXIT_OK
        assert capsys.readouterr().out.splitlines()[0] == f"ok   basis build K={k}", files
    wrong_k = tmp_path / "k8.bin"
    save_unitaries(UnitarySet.identity(4, 8), wrong_k)
    for files in ((tmp_path / "missing.bin",), ("--unitaries", wrong_k, book)):
        capsys.readouterr()
        assert run_cli("verify", "--config", cfg_path, *files) == EXIT_VALIDATION
        printed = capsys.readouterr()
        assert printed.out == "" and printed.err.startswith("error: ") and printed.err.count("\n") == 1, files


def test_manifest_names_only_files_in_its_directory(tmp_path, capsys):
    # A listed name with a directory part is refused even when its checksum
    # matches, so a manifest cannot make verify read outside its directory;
    # a listed name that is not a regular file reads FAIL.
    cfg_path = small_config(tmp_path)
    out = tmp_path / "run"
    assert run_cli("gen", "--config", cfg_path) == EXIT_OK
    manifest = out / "evil.manifest.json"
    entry = {"sha256": hashlib.sha256(cfg_path.read_bytes()).hexdigest(), "bytes": cfg_path.stat().st_size}
    for name in ("../config.json", str(cfg_path), "", ".", ".."):
        manifest.write_text(json.dumps({"format": "paprbound/manifest", "files": {name: entry}}))
        code, err = run_recording("verify", "--config", cfg_path)
        assert code == EXIT_VALIDATION and len(err) == 1, (name, err)
        assert err[0].startswith(f"error: {manifest}: 'files' must map each plain file name"), (name, err)
    (out / "sub").mkdir()
    manifest.write_text(json.dumps({"format": "paprbound/manifest",
                                    "files": {"sub": {"sha256": "0" * 64, "bytes": (out / "sub").stat().st_size}}}))
    capsys.readouterr()
    assert run_cli("verify", "--config", cfg_path) == EXIT_VALIDATION
    assert "FAIL checksum evil.manifest.json:sub" in capsys.readouterr().out.splitlines()


def test_verify_does_not_create_its_directory(tmp_path):
    # The artifact commands make their output directory; verify only reads
    # one, so a missing directory is refused by name.
    cfg_path = small_config(tmp_path)
    missing = tmp_path / "missing"
    code, err = run_recording("verify", "--config", cfg_path, "--out", missing)
    assert code == EXIT_VALIDATION and err == [f"error: {missing}: no such directory"], err
    assert not missing.exists()
    assert run_cli("gen", "--config", cfg_path, "--out", missing) == EXIT_OK


@pytest.mark.parametrize("qam_scale", [1.7e308, D0 * 2.0**-1000])
def test_header_qam_scale_must_fit_the_symbols(tmp_path, qam_scale):
    # A header qam_scale whose QAM points cannot have the codewords' mean
    # symbol power is refused at load, naming the file and the field, with
    # no warning on the way (ber used to print two RuntimeWarnings).
    cfg_path = small_config(tmp_path)
    book = tmp_path / "run" / "codebook.bin"
    assert run_recording("gen", "--config", cfg_path) == (EXIT_OK, [])
    rewrite_header(book, lambda fields: {**fields, "qam_scale": qam_scale})
    for command in ("bounds", "optimize", "ccdf", "ber", "verify"):
        code, err = run_recording(command, "--config", cfg_path, book)
        assert code == EXIT_VALIDATION and len(err) == 1, (command, err)
        assert err[0].startswith(f"error: {book}: header field 'qam_scale' must be the symbols' scale D"), err


@pytest.mark.parametrize("command, overrides", [
    ("gen", {"codebook_size": 10**13}),
    ("ccdf", {"j_ccdf": 10**14}),
    ("ber", {"j_ber": 10**12}),
])
def test_oversized_config_fails_closed(tmp_path, capsys, command, overrides):
    # Each size asks numpy for one array of hundreds of TiB or more, past
    # any address space, which it refuses before touching memory.
    out = tmp_path / "run"
    assert run_cli("gen", "--config", small_config(tmp_path)) == EXIT_OK
    capsys.readouterr()
    bad = small_config(tmp_path, **overrides)
    argv = ("--config", bad) if command == "gen" else ("--config", bad, out / "codebook.bin")
    assert run_cli(command, *argv) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1, err


def test_exit_codes(tmp_path, capsys):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text('{"version": 1, "mystery": true}')
    assert run_cli("gen", "--config", bad_cfg) == EXIT_VALIDATION
    bad_cfg.write_text('{"version": 1,')
    assert run_cli("gen", "--config", bad_cfg) == EXIT_VALIDATION
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[1].startswith(f"error: {bad_cfg}: invalid JSON")

    cfg_path = small_config(tmp_path)
    out = tmp_path / "run"
    run_cli("gen", "--config", cfg_path)
    corrupt = tmp_path / "corrupt.bin"
    corrupt.write_bytes((out / "codebook.bin").read_bytes()[:-4])
    assert run_cli("ccdf", "--config", cfg_path, corrupt) == EXIT_VALIDATION

    # singular update: eps = 1/quartic_sum of the drawn codeword at K=2
    from paprbound.spectral import quartic_sum

    cfg_k2 = small_config(
        tmp_path, k_carriers=2, codebook_size=4, n_subsets=4, max_iters=5,
        mode="batch",
    )
    k2_out = tmp_path / "k2"
    run_cli("gen", "--config", cfg_k2, "--out", k2_out)
    book = load_codebook(k2_out / "codebook.bin")
    eps = 1.0 / quartic_sum(book.symbols[0])
    cfg_sing = small_config(
        tmp_path, k_carriers=2, codebook_size=4, n_subsets=4, max_iters=5,
        mode="batch", epsilon=eps,
    )
    assert run_cli("optimize", "--config", cfg_sing, "--out", k2_out,
                   k2_out / "codebook.bin") == EXIT_NUMERICAL


def test_manifest_detects_corruption(tmp_path):
    cfg_path = small_config(tmp_path)
    out = tmp_path / "run"
    run_cli("gen", "--config", cfg_path)
    results = verify_manifest(out / "gen.manifest.json")
    assert results and all(ok for _, ok in results)
    raw = bytearray((out / "codebook.bin").read_bytes())
    raw[100] ^= 0x01  # single-byte corruption
    (out / "codebook.bin").write_bytes(bytes(raw))
    results = verify_manifest(out / "gen.manifest.json")
    assert any(not ok for _, ok in results)


def test_verify_subcommand(tmp_path, capsys):
    cfg_path = small_config(tmp_path)
    out = tmp_path / "run"
    run_cli("gen", "--config", cfg_path)
    run_cli("optimize", "--config", cfg_path, out / "codebook.bin")
    code = run_cli("verify", "--config", cfg_path, out / "codebook.bin",
                   "--unitaries", out / "unitaries.bin")
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "FAIL" not in text
    assert "ok   envelope norm sandwich" in text

    raw = bytearray((out / "codebook.bin").read_bytes())
    raw[200] ^= 0x04
    (out / "codebook.bin").write_bytes(bytes(raw))
    code = run_cli("verify", "--config", cfg_path, "--out", out)
    assert code == EXIT_VALIDATION
    assert "FAIL" in capsys.readouterr().out


def test_manifests_have_no_timing_by_default(tmp_path):
    cfg_path = small_config(tmp_path)
    out = tmp_path / "run"
    run_cli("gen", "--config", cfg_path)
    manifest = json.loads((out / "gen.manifest.json").read_text())
    assert manifest["created_utc"] is None and manifest["elapsed_s"] is None
    timed = tmp_path / "timed"
    run_cli("gen", "--config", cfg_path, "--out", timed, "--record-timing")
    manifest = json.loads((timed / "gen.manifest.json").read_text())
    assert manifest["created_utc"] is not None and manifest["elapsed_s"] > 0
    # The exact text: sorted two-space JSON with a final newline.
    (tmp_path / "x.bin").write_bytes(b"abc")
    path = write_manifest(tmp_path, "gen", "f" * 64, [tmp_path / "x.bin"], False, 1.5)
    assert path == tmp_path / "gen.manifest.json"
    assert path.read_bytes() == (
        b'{\n  "artifact_version": "%s",\n  "command": "gen",\n'
        b'  "config_hash": "%s",\n  "created_utc": null,\n  "elapsed_s": null,\n'
        b'  "files": {\n    "x.bin": {\n      "bytes": 3,\n'
        b'      "sha256": "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"\n'
        b'    }\n  },\n  "format": "paprbound/manifest",\n  "version": 1\n}\n'
    ) % (paprbound.__version__.encode(), b"f" * 64)


def rewrite_header(path, edit):
    header, payload = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps(edit(json.loads(header))).encode() + b"\n" + payload)


def without_count(fields):
    return {key: value for key, value in fields.items() if key != "count"}


@pytest.mark.parametrize(
    "edit, message",
    [
        (without_count, "header field 'count'"),
        (lambda fields: [fields], "header is not a JSON object"),
        (lambda fields: {**fields, "subset_sizes": None}, "header field 'subset_sizes'"),
        # json reads NaN; a NaN p_av would pass the p_av check and make every PMEPR NaN
        (lambda fields: {**fields, "p_av": float("nan")}, "header field 'p_av'"),
        # the exact size, in Python integers: a wrapping product would say 0
        (lambda fields: {**fields, "count": 2**61}, f"expected {2**61 * 8 * 16}\n"),
        # n_subsets must state the partition's length, not just be there
        (lambda fields: {**fields, "n_subsets": "x"}, "codebook.bin: header field 'n_subsets'"),
        (lambda fields: {**fields, "n_subsets": 7}, "header field 'n_subsets' must be 4"),
        (lambda fields: {**fields, "n_subsets": None}, "header field 'n_subsets'"),
        (lambda fields: {**fields, "n_subsets": 4.0}, "header field 'n_subsets'"),
        (lambda fields: {k: v for k, v in fields.items() if k != "n_subsets"},
         "header field 'n_subsets' must be 4, the number of subset sizes (got missing)"),
        (lambda fields: {**fields, "format": "paprbound/unitary-set"},
         "unexpected format 'paprbound/unitary-set'"),
        (lambda fields: {**fields, "version": 2}, "unsupported version 2"),
    ],
    ids=["missing-count", "list-header", "null-subset-sizes", "nan-p-av", "huge-count",
         "text-n-subsets", "wrong-n-subsets", "null-n-subsets", "float-n-subsets",
         "missing-n-subsets", "wrong-format", "version-2"],
)
def test_bad_codebook_header_exits_2(tmp_path, capsys, edit, message):
    cfg_path = small_config(tmp_path)
    out = tmp_path / "run"
    run_cli("gen", "--config", cfg_path)
    rewrite_header(out / "codebook.bin", edit)
    capsys.readouterr()
    for command in ("bounds", "ccdf"):
        assert run_cli(command, "--config", cfg_path, out / "codebook.bin") == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert len(err.strip().splitlines()) == 1


def test_unpaired_inputs_fail_closed(tmp_path, capsys):
    # A K=16 unitary set against a K=64 codebook, wherever a set is read,
    # and a BER run on a codebook without a constellation: exit 2, one
    # line, no artifact.
    cfg_path = small_config(tmp_path, k_carriers=64)
    out = tmp_path / "run"
    run_cli("gen", "--config", cfg_path)
    wrong_k = tmp_path / "k16.bin"
    save_unitaries(UnitarySet.identity(4, 16), wrong_k)
    no_qam = tmp_path / "no_qam.bin"
    no_qam.write_bytes((out / "codebook.bin").read_bytes())
    rewrite_header(no_qam, lambda fields: {**fields, "qam_order": None})
    book = out / "codebook.bin"
    mismatch = "unitary set does not match the codebook"
    cases = [((command, "--unitaries", wrong_k, book), mismatch) for command in ("bounds", "ccdf", "ber", "verify")]
    cases += [(("optimize", "--resume", wrong_k, book), mismatch),
              (("ber", no_qam), "carries no constellation metadata")]
    capsys.readouterr()
    for argv, message in cases:
        assert run_cli(argv[0], "--config", cfg_path, *argv[1:]) == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1, (argv, err)
    assert sorted(path.name for path in out.iterdir()) == ["codebook.bin", "gen.manifest.json"]


@pytest.mark.parametrize("content", [
    *(json.dumps(manifest).encode() for manifest in (
        [1],
        {"format": "paprbound/manifest", "files": {"codebook.bin": "x"}},
        {"format": "paprbound/manifest", "files": [1]},
        {"format": "paprbound/manifest", "files": {"codebook.bin": {"sha256": "0" * 64}}},
    )),
    b'{"format": ',
    b"\xff{}",
], ids=["list", "text-entry", "list-of-files", "entry-without-bytes", "truncated", "not-utf8"])
def test_malformed_manifest_fails_closed(tmp_path, capsys, content):
    cfg_path = small_config(tmp_path)
    out = tmp_path / "run"
    run_cli("gen", "--config", cfg_path)
    (out / "gen.manifest.json").write_bytes(content)
    capsys.readouterr()
    assert run_cli("verify", "--config", cfg_path) == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'gen.manifest.json'}: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("ebn0_db", [-1e6, 1e6])
def test_extreme_ebn0_fails_closed(tmp_path, capsys, ebn0_db):
    # 10^(dB/10) underflows to 0 (an infinite noise sigma) or overflows
    # (a zero sigma): refused before the first block, with no warning.
    cfg_path = small_config(tmp_path, ebn0_grid_db=[6.0, ebn0_db])
    out = tmp_path / "run"
    assert run_cli("gen", "--config", cfg_path) == EXIT_OK
    capsys.readouterr()
    assert run_cli("ber", "--config", cfg_path, out / "codebook.bin") == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert err.startswith("error: ebn0_grid_db: ") and err.count("\n") == 1, err
    assert sorted(path.name for path in out.iterdir()) == ["codebook.bin", "gen.manifest.json"]


@pytest.mark.parametrize("rapp", [False, True], ids=["linear", "rapp"])
def test_extreme_low_ebn0_runs_silently(tmp_path, capsys, rapp):
    # At -400 dB the noise sigma is near 1e20 but finite, so the point
    # runs: received levels past the int64 range slice to the outer
    # points with no cast warning.
    cfg_path = small_config(tmp_path, ebn0_grid_db=[-400.0], rapp={"enabled": rapp})
    out = tmp_path / "run"
    assert run_cli("gen", "--config", cfg_path) == EXIT_OK
    capsys.readouterr()
    assert run_cli("ber", "--config", cfg_path, out / "codebook.bin") == EXIT_OK
    assert capsys.readouterr().err == ""


def test_unitarity_drift_fails_closed(tmp_path, monkeypatch, capsys):
    # A step that leaves W 1e-7 off the unitaries at iteration 13: the
    # checkpoint at iteration 20 refuses the run, and ``optimize`` exits
    # 3 without writing a set that its own loader would reject.
    from paprbound import optimizer

    honest = optimizer.step_stochastic

    def drifting(state, *args):
        new, norms = honest(state, *args)
        if new.iteration == 13:
            new.matrices[0, 0, 0] += 1e-7
        return new, norms

    monkeypatch.setattr(optimizer, "step_stochastic", drifting)
    cfg_path = small_config(tmp_path)
    out = tmp_path / "run"
    run_cli("gen", "--config", cfg_path)
    book = load_codebook(out / "codebook.bin")
    cfg = load_config(cfg_path)
    with pytest.raises(optimizer.RankDeficientUpdate) as raised:
        optimizer.run(book, paprbound.build_basis(8), cfg)
    assert str(raised.value) == (
        "unitarity drift 2.000e-07 > 1e-08 at iteration 20 (epsilon = 0.001, K = 8); "
        "reduce the step size epsilon"
    )

    capsys.readouterr()
    assert run_cli("optimize", "--config", cfg_path, out / "codebook.bin") == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: unitarity drift") and err.count("\n") == 1
    assert not (out / "unitaries.bin").exists()


@pytest.mark.parametrize("target, command", [("bound_report", "bounds"), ("run", "optimize")])
def test_linalg_error_is_a_numerical_failure(tmp_path, monkeypatch, capsys, target, command):
    # LinAlgError subclasses ValueError; it still exits 3, not 2.
    from paprbound import cli

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    cfg_path = small_config(tmp_path)
    out = tmp_path / "run"
    assert run_cli("gen", "--config", cfg_path) == EXIT_OK
    monkeypatch.setattr(cli, target, fail)
    capsys.readouterr()
    assert run_cli(command, "--config", cfg_path, out / "codebook.bin") == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err == "numerical failure: Eigenvalues did not converge\n"


def test_consecutive_calls_parse_independently(tmp_path):
    # The parser is built once; no option of one call reaches the next.
    from paprbound.cli import build_parser

    assert build_parser() is build_parser()
    cfg_path = small_config(tmp_path)
    cfg = load_config(cfg_path)
    assert run_cli("gen", "--config", cfg_path, "--seed", 5, "--out", tmp_path / "a") == EXIT_OK
    assert run_cli("bounds", "--config", cfg_path, tmp_path / "a" / "codebook.bin",
                   "--out", tmp_path / "b") == EXIT_OK
    assert run_cli("gen", "--config", cfg_path) == EXIT_OK
    assert load_codebook(tmp_path / "a" / "codebook.bin").seed == 5
    manifest = json.loads((tmp_path / "b" / "bounds.manifest.json").read_text())
    assert manifest["config_hash"] == config_hash(cfg)
    assert load_codebook(tmp_path / "run" / "codebook.bin").seed == cfg.seed == 77


@given(
    epsilon=st.floats(-6.0, 308.25).map(lambda e: 10.0**e),
    mode=st.sampled_from(["stochastic", "batch"]),
    projection=st.sampled_from(["symmetric_decorrelation", "gram_schmidt"]),
)
def test_optimize_never_writes_a_set_it_cannot_load(tmp_path_factory, epsilon, mode, projection):
    # Exit 0 with a set that loads, or exit 3 with one line and no file.
    tmp_path = tmp_path_factory.mktemp("optimize")
    cfg_path = small_config(tmp_path, epsilon=epsilon, mode=mode, projection=projection,
                            max_iters=20)
    out = tmp_path / "run"
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        run_cli("gen", "--config", cfg_path)
        code = run_cli("optimize", "--config", cfg_path, out / "codebook.bin")
    if code == EXIT_OK:
        load_unitaries(out / "unitaries.bin")
    else:
        assert code == EXIT_NUMERICAL, err.getvalue()
        assert err.getvalue().startswith("numerical failure: ") and err.getvalue().count("\n") == 1
        assert not (out / "unitaries.bin").exists()


def test_optimize_warns_when_r_rises(tmp_path, capsys):
    # The default epsilon = K^(-3/2) is too large at K=8: R ends above
    # its start.  The run still succeeds; only stderr says so.
    cfg_path = small_config(tmp_path, epsilon=None)
    out = tmp_path / "run"
    run_cli("gen", "--config", cfg_path)
    capsys.readouterr()
    assert run_cli("optimize", "--config", cfg_path, out / "codebook.bin") == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.startswith("optimize: iteration 40, R ")
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("warning: R rose from ")
    rows = (out / "optimize_trace.csv").read_text().splitlines()
    assert float(rows[-1].split(",")[1]) > float(rows[1].split(",")[1])

    descending = tmp_path / "descending"
    assert run_cli("optimize", "--config", small_config(tmp_path), "--out", descending,
                   out / "codebook.bin") == EXIT_OK
    assert capsys.readouterr().err == ""


def test_cli_import_does_not_load_scipy():
    # A fresh interpreter, on the package this suite imported.
    package_root = str(Path(paprbound.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, paprbound.cli; print('scipy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A K=4 codebook of 8 codewords in 2 subsets and its unitary set."""
    root = tmp_path_factory.mktemp("tiny")
    cfg_path = small_config(root, k_carriers=4, codebook_size=8, n_subsets=2, max_iters=5)
    out = root / "run"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_cli("gen", "--config", cfg_path) == EXIT_OK
        assert run_cli("optimize", "--config", cfg_path, out / "codebook.bin") == EXIT_OK
    return cfg_path, out


def ccdf_with(cfg_path, out, target, path):
    """Exit code and stderr of ``ccdf`` on the tiny run with ``path`` in
    place of its ``target`` file (the unitary set is passed only when it
    is the target).  Warnings are errors: a real run would print them
    to stderr."""
    argv = ["ccdf", "--config", cfg_path, "--out", out / "ccdf"]
    argv += [path] if target == "codebook.bin" else [out / "codebook.bin", "--unitaries", path]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(*argv)
    return code, err.getvalue()


@pytest.mark.parametrize("target", ["codebook.bin", "unitaries.bin"])
@given(data=st.data())
def test_mutated_artifacts_fail_closed(tiny_run, target, data):
    # A truncated or bit-flipped file either still loads (a flip in a
    # low mantissa bit or a seed digit) or exits 2 with one line.
    cfg_path, out = tiny_run
    raw = (out / target).read_bytes()
    if data.draw(st.booleans(), label="truncate"):
        mutant = raw[: data.draw(st.integers(0, len(raw) - 1), label="length")]
    else:
        bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        mutant = bytes(flipped)
    path = out / f"mutant-{target}"
    path.write_bytes(mutant)
    code, err = ccdf_with(cfg_path, out, target, path)
    assert code in (EXIT_OK, EXIT_VALIDATION)
    if code == EXIT_VALIDATION:
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("target, message", [("codebook.bin", "p_av"),
                                             ("unitaries.bin", "unitarity")])
def test_huge_payload_entry_fails_closed(tiny_run, target, message):
    # An exponent-bit flip can turn an entry into ~1e308, whose square
    # overflows.  The codebook's p_av then reads inf, and the last
    # matrix's unitarity error NaN.  Neither may pass its check (as a
    # comparison with inf or NaN can), nor raise a RuntimeWarning.
    cfg_path, out = tiny_run
    header, payload = (out / target).read_bytes().split(b"\n", 1)
    values = np.frombuffer(payload, dtype="<f8").copy()
    values[-1] = 1e300  # the last codeword, or the last matrix
    path = out / f"huge-{target}"
    path.write_bytes(header + b"\n" + values.tobytes())
    code, err = ccdf_with(cfg_path, out, target, path)
    assert code == EXIT_VALIDATION
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err


# Float extremes for every numeric config field: signed zero, the
# smallest subnormal and normal, the largest finite, and decades between.
FLOAT_EXTREMES = [sign * value for sign in (1.0, -1.0) for value in
                  (0.0, 5e-324, 2.2250738585072014e-308, 1e-155, 1e-60, 1e-30, 1e-10, 1e10, 1e30, 1e60,
                   1e155, 1e300, 1.7976931348623157e308)]


def numeric_fields(cls, path: tuple[str, ...] = ()) -> dict:
    """Dotted path -> (annotation, default) of each field that the schema
    (``cli._field_types``) types as a number, a number or null, or a list
    of numbers, in ``cls`` and its nested sections."""
    found = {}
    for name, kind in cli._field_types(cls).items():
        if is_dataclass(kind):
            found.update(numeric_fields(kind, path + (name,)))
        elif kind in (float, float | None, tuple[float, ...]):
            found[path + (name,)] = (kind, getattr(cls, name))
    return found


@st.composite
def fuzzed_configs(draw, fixed: dict) -> dict:
    """``fixed`` with every numeric field drawn: up to two fields take
    values from ``FLOAT_EXTREMES``, the others a value from a quarter to
    four times their default (1 for null), or null where allowed."""
    config = json.loads(json.dumps(fixed))
    fields_ = numeric_fields(cli.ExperimentConfig)
    extreme = draw(st.lists(st.sampled_from(sorted(fields_)), max_size=2, unique=True), label="extreme")
    for path, (kind, default) in fields_.items():
        typical = max(map(abs, default)) if isinstance(default, tuple) else abs(default or 1.0)
        number = st.sampled_from(FLOAT_EXTREMES) if path in extreme else st.floats(typical / 4, typical * 4)
        if kind == tuple[float, ...]:
            number = st.lists(number, min_size=1, max_size=3)
        elif kind == float | None:
            number = st.none() | number
        section = config
        for key in path[:-1]:
            section = section.setdefault(key, {})
        section[path[-1]] = draw(number, label=".".join(path))
    return config


def run_recording(*argv) -> tuple[int, list[str]]:
    """Exit code and stderr lines of one in-process command; each warning
    counts as a stderr line, as a user would see it."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run_cli(*argv)
    return code, err.getvalue().splitlines() + [f"{w.category.__name__}: {w.message}" for w in caught]


@settings(max_examples=100)
@given(
    config=fuzzed_configs({
        "version": 1, "qam_order": 16, "codebook_size": 32, "n_subsets": 2, "j_ccdf": 4, "j_ber": 1,
        "max_iters": 20, "checkpoint_every": 10, "ber_target_errors": 20, "ber_max_symbols": 512,
        "seed": 11,
    }),
    k_carriers=st.sampled_from([2, 8, 16]),
    mode=st.sampled_from(["stochastic", "batch"]),
    projection=st.sampled_from(["symmetric_decorrelation", "gram_schmidt"]),
    rapp=st.fixed_dictionaries({"enabled": st.booleans(), "variant": st.sampled_from(["standard", "p_inner"])}),
)
def test_every_config_fails_closed(tmp_path_factory, config, k_carriers, mode, projection, rapp):
    # Every command either exits 0 with nothing on stderr (optimize may
    # add its one "R rose" warning) or exits 2 or 3 with one stderr line.
    root = tmp_path_factory.mktemp("property")
    config = {**config, "k_carriers": k_carriers, "mode": mode, "projection": projection,
              "rapp": {**config["rapp"], **rapp}, "out_dir": str(root / "run")}
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    book, unit = root / "run" / "codebook.bin", root / "run" / "unitaries.bin"
    for argv in (("gen",), ("bounds", book), ("optimize", book), ("ccdf", "--unitaries", unit, book),
                 ("ber", "--unitaries", unit, book), ("verify", "--unitaries", unit, book)):
        code, err = run_recording(argv[0], "--config", cfg_path, *argv[1:])
        if code == EXIT_OK:
            assert err == [] or (argv[0] == "optimize" and len(err) == 1
                                 and err[0].startswith("warning: R rose")), (argv, config, err)
        else:
            assert code in (EXIT_VALIDATION, EXIT_NUMERICAL) and len(err) == 1, (argv, config, code, err)
