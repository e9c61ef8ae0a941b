import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import paprbound
from paprbound.cli import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_VALIDATION,
    config_hash,
    config_to_dict,
    load_config,
    main,
    parse_config,
    verify_manifest,
    write_manifest,
)
from paprbound.core import load_codebook
from paprbound.optimizer import load_unitaries, run
from paprbound.spectral import build_basis
from paprbound.waveform import CcdfCurve


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
    assert parse_config(config_to_dict(cfg)) == cfg
    assert config_hash(cfg) == config_hash(parse_config(config_to_dict(cfg)))


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
    out = json.loads(json.dumps(config_to_dict(cfg)))  # as hashed and written
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
    assert config_hash(parse_config(config_to_dict(cfg))) == digest


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
    curve = CcdfCurve.read_csv(out / "ccdf.csv")
    assert curve.sample_count == 64

    # cross-command consistency: the markov column dominates the
    # empirical curve at every grid point
    markov = np.array([float(line.split(",")[1]) for line in rows[1:]])
    assert np.all(curve.ccdf <= markov + 1e-12)

    # J=1 curve is pointwise below the J=8 curve
    j1 = tmp_path / "j1"
    j1.mkdir()
    assert run_cli("ccdf", "--config", small_config(j1, j_ccdf=1), out / "codebook.bin") == EXIT_OK
    low = CcdfCurve.read_csv(j1 / "run" / "ccdf.csv")
    assert np.all(low.ccdf <= curve.ccdf + 1e-12)


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
    _, trace = run(load_codebook(out / "codebook.bin"), build_basis(8), load_config(cfg_path).optimizer())
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
    # Infinity must stop at the config: in the optimizer it yields an
    # all-NaN unitaries.bin, in the gamma grid a float-to-int overflow.
    # So must a finite gamma grid whose point count overflows or is huge.
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
    ):
        bad = small_config(tmp_path, **overrides)
        if field != "gamma_grid_db":
            assert "Infinity" in bad.read_text()
        for command in ("optimize", "bounds", "ccdf"):
            assert run_cli(command, "--config", bad, out / "codebook.bin") == EXIT_VALIDATION
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1 and field in err
    assert sorted(path.name for path in out.iterdir()) == ["codebook.bin", "gen.manifest.json"]


def test_exit_codes(tmp_path):
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text('{"version": 1, "mystery": true}')
    assert run_cli("gen", "--config", bad_cfg) == EXIT_VALIDATION

    cfg_path = small_config(tmp_path)
    out = tmp_path / "run"
    run_cli("gen", "--config", cfg_path)
    corrupt = tmp_path / "corrupt.bin"
    corrupt.write_bytes((out / "codebook.bin").read_bytes()[:-4])
    assert run_cli("ccdf", "--config", cfg_path, corrupt) == EXIT_VALIDATION

    # singular update: eps = 1/quartic_sum of the drawn codeword at K=2
    from paprbound.spectral import build_basis, quartic_sum

    cfg_k2 = small_config(
        tmp_path, k_carriers=2, codebook_size=4, n_subsets=4, max_iters=5,
        mode="batch",
    )
    k2_out = tmp_path / "k2"
    run_cli("gen", "--config", cfg_k2, "--out", k2_out)
    book = load_codebook(k2_out / "codebook.bin")
    eps = 1.0 / quartic_sum(book.symbols[0], build_basis(2))
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
    assert "receiver roundtrip" in text

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
    ],
    ids=["missing-count", "list-header", "null-subset-sizes", "nan-p-av", "huge-count",
         "text-n-subsets", "wrong-n-subsets", "null-n-subsets", "float-n-subsets",
         "missing-n-subsets"],
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
        optimizer.run(book, paprbound.build_basis(8), cfg.optimizer())
    assert str(raised.value) == (
        "unitarity drift 2.000e-07 > 1e-08 at iteration 20 (epsilon = 0.001, K = 8); "
        "reduce the step size epsilon"
    )

    capsys.readouterr()
    assert run_cli("optimize", "--config", cfg_path, out / "codebook.bin") == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: unitarity drift") and err.count("\n") == 1
    assert not (out / "unitaries.bin").exists()


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
