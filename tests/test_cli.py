import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from diracnlft import cli
from diracnlft.cli import main
from diracnlft.potential import SampledPotential, save_potential

BOX_CFG = {
    "potential": {"family": "box", "params": {"q": 1.0, "t0": 1.0}},
    "h": 0.01,
    "T": 1.0,
}


def _write_cfg(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


# ---------------------------------------------------------------------------
# usage failures -> exit 1
# ---------------------------------------------------------------------------


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "subcommand" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["transform", "--nonsense"]) == 1


def test_malformed_config_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"potential": }')
    assert main(["transform", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "line 1 column" in err


def test_missing_potential_is_usage_error(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "c.json", {"T": 1.0, "h": 0.01})
    assert main(["transform", "--config", cfg]) == 1
    assert "potential" in capsys.readouterr().err


def test_bad_tolerance_is_usage_error(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json", dict(BOX_CFG, tolerances={"unimodular": -1}))
    assert main(["transform", "--config", cfg]) == 1


def test_bad_threads_is_usage_error(tmp_path, capsys):
    # --threads was retired with the run_convergence thread pool
    cfg = _write_cfg(tmp_path, "c.json", BOX_CFG)
    assert main(["transform", "--config", cfg, "--threads", "2"]) == 1
    assert "--threads" in capsys.readouterr().err


ZERO_CFG = {"potential": {"family": "zero", "params": {}}, "h": 0.05, "T": 2.0}


@pytest.mark.parametrize("command,extra,key", [
    ("kernels", {"w_window": 5}, "w_window"),
    ("kernels", {"w_window": [1.0, 1.5, 2.0]}, "w_window"),
    ("kernels", {"box": 3}, "box"),
    ("transform", {"grid": [1, 2]}, "grid"),
    ("transform", {"nz": "many"}, "nz"),
    ("verify", {"tolerances": {"unimodular": "abc"}}, "unimodular"),
    ("transform", {"nz": 10.9}, "nz"),
    ("transform", {"nz": True}, "nz"),
    ("resonances", {"box": {"grid_n": 8.5}}, "grid_n"),
    ("converge", {"T_list": [1.0, 2.0], "box_samples": True}, "box_samples"),
    ("verify", {"seed": 1.5}, "seed"),
], ids=["w_window_number", "w_window_triple", "box_number", "grid_list", "nz_word",
        "tolerance_word", "nz_fraction", "nz_bool", "grid_n_fraction", "box_samples_bool",
        "seed_fraction"])
def test_malformed_config_value_is_usage_error(tmp_path, capsys, command, extra, key):
    # each of these ended in a Python traceback, or was silently truncated, before
    cfg = _write_cfg(tmp_path, "c.json", {**ZERO_CFG, **extra})
    out = tmp_path / "o.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and key in err
    assert not out.exists()


@pytest.mark.parametrize("pspec,key", [
    ({"family": "constant", "parms": {"q": 0.5}}, "parms"),
    ({"family": "constant", "params": {}, "samples": [0.1, 0.2]}, "samples"),
], ids=["parms_typo", "retired_samples"])
def test_inline_potential_unknown_key_is_usage_error(tmp_path, capsys, pspec, key):
    cfg = _write_cfg(tmp_path, "c.json", {"potential": pspec, "h": 0.5, "T": 1.0})
    assert main(["transform", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("content", [None, '{"h": 0.1, "cells": [1.0,'],
                         ids=["missing", "malformed"])
def test_unreadable_potential_file_is_usage_error(tmp_path, capsys, content):
    ppath = tmp_path / "pot.json"
    if content is not None:
        ppath.write_text(content)
    cfg = _write_cfg(tmp_path, "c.json", {"potential": str(ppath)})
    assert main(["transform", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(ppath) in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("flag,key,cfg_val,flag_val", [
    ("--out", "output", "a.csv", "b.csv"),
    ("--format", "format", "csv", "json"),
    ("--seed", "seed", 1, 7),
    ("--T", "T", 1.0, 2.5),
    ("--zmin", "zmin", -3.0, -1.5),
    ("--zmax", "zmax", 3.0, 1.5),
    ("--nz", "nz", 11, 33),
    ("--s", "s", 0.0, 0.75),
    ("--C", "C", 4.0, 6.0),
])
def test_flag_overrides_config_key(tmp_path, flag, key, cfg_val, flag_val):
    cfg_path = _write_cfg(tmp_path, "c.json", {key: cfg_val})
    args = cli._build_parser().parse_args(
        ["transform", "--config", cfg_path, flag, str(flag_val)])
    cfg = cli._load_config(args)
    assert cfg[key] == flag_val and type(cfg[key]) is type(flag_val)
    # only flags that were given reach the config; --config itself does not
    assert set(cfg) == {key, "format", "seed"}


# ---------------------------------------------------------------------------
# transform
# ---------------------------------------------------------------------------


def test_transform_writes_csv_and_summary(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, "c.json", dict(BOX_CFG, nz=33))
    out = tmp_path / "scattering.csv"
    assert main(["transform", "--config", cfg, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "max | |a|^2 - |b|^2 - 1 |" in stdout
    assert "max | det M - 1 |" in stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "# tool: diracnlft 0.1.0"
    assert any(line.startswith("# config_sha256:") for line in lines)
    header_idx = next(i for i, l in enumerate(lines) if not l.startswith("#"))
    assert lines[header_idx].split(",") == [
        "T", "re_z", "im_z", "re_a", "im_a", "re_b", "im_b", "re_r", "im_r",
        "log_abs_a",
    ]
    assert len(lines) - header_idx - 1 == 33


def test_transform_json_roundtrip(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json", dict(BOX_CFG, nz=9, format="json"))
    out = tmp_path / "sc.json"
    assert main(["transform", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["tool"] == "diracnlft 0.1.0"
    assert "config_sha256" in doc["meta"]
    assert len(doc["rows"]) == 9
    # z = 0 row carries a = cosh(1), b = sinh(1)
    mid = doc["rows"][4]
    assert mid["re_z"] == 0.0
    assert abs(mid["re_a"] - np.cosh(1.0)) < 1e-10
    assert abs(mid["re_b"] - np.sinh(1.0)) < 1e-10


def test_transform_reruns_are_byte_identical(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json", dict(BOX_CFG, nz=17))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["transform", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["transform", "--config", cfg, "--out", str(out2)]) == 0
    # the output path is not part of the fingerprint, so the bytes agree
    assert out1.read_bytes() == out2.read_bytes()


def test_transform_symmetric_grid_writes_mirror_rows(tmp_path):
    # zmin = -zmax: the grid is exactly symmetric, a(-x) = conj a(x) and
    # b(-x) = conj b(x) hold to the last bit, and a rerun writes the same bytes
    rng = np.random.default_rng(5)
    ppath = tmp_path / "pot.json"
    save_potential(SampledPotential(h=0.05, cells=tuple(rng.uniform(-1.5, 1.5, 40))), ppath)
    cfg = _write_cfg(tmp_path, "c.json",
                     {"potential": str(ppath), "zmin": -6.0, "zmax": 6.0, "nz": 256})
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["transform", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["transform", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = [line for line in out1.read_text().splitlines() if not line.startswith("#")]
    cols = np.array([[float(v) for v in line.split(",")] for line in lines[1:]]).T
    _, re_z, im_z, re_a, im_a, re_b, im_b, re_r, im_r, log_abs_a = cols
    assert len(re_z) == 256 and not im_z.any() and re_z[0] == -6.0
    for even in (re_a, re_b, re_r, log_abs_a):
        np.testing.assert_array_equal(even, even[::-1])
    for odd in (re_z, im_a, im_b, im_r):
        np.testing.assert_array_equal(odd, -odd[::-1])


def test_transform_unimodular_tolerance_trips(tmp_path):
    cfg = _write_cfg(
        tmp_path, "c.json", dict(BOX_CFG, nz=9, tolerances={"unimodular": 1e-18})
    )
    out = tmp_path / "x.csv"
    assert main(["transform", "--config", cfg, "--out", str(out)]) == 3


def test_transform_horizon_beyond_file_is_usage_error(tmp_path):
    pot = SampledPotential(h=0.1, cells=(1.0,) * 5)
    ppath = tmp_path / "pot.json"
    save_potential(pot, ppath)
    cfg = _write_cfg(tmp_path, "c.json", {"potential": str(ppath), "T": 2.0})
    assert main(["transform", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_passes_clean(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5 and "FAIL" not in out
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["all_pass"] is True
    names = {c["name"] for c in doc["checks"]}
    assert names == {
        "determinant_tracked", "hb_determinant_identity", "unimodularity",
        "riccati_cross_check", "parseval",
    }


def test_verify_detects_mild_corruption(tmp_path, capsys, monkeypatch):
    # eps = 1e-11 accumulates to ~1e-9 drift: above the 1e-10 check tolerance
    # but below the 1e-8 hard abort, so verify reports FAIL lines gracefully.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("NLFT_TEST_CORRUPT_PROPAGATOR", "1e-11")
    assert main(["verify"]) == 3
    out = capsys.readouterr().out
    assert "FAIL determinant_tracked" in out
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["all_pass"] is False


def test_verify_gross_corruption_hits_hard_abort(tmp_path, capsys, monkeypatch):
    # eps = 1e-4 trips the tracked-determinant abort inside the propagator
    # itself, before the suite can tabulate results.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("NLFT_TEST_CORRUPT_PROPAGATOR", "1e-4")
    assert main(["verify"]) == 3
    captured = capsys.readouterr()
    assert "invariant violation" in captured.err
    assert not (tmp_path / "verify.json").exists()


# ---------------------------------------------------------------------------
# resonances / eigenvalues
# ---------------------------------------------------------------------------


def test_resonances_locates_the_constant_pair(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path, "c.json",
        {"potential": {"family": "constant", "params": {"q": 1.0}},
         "h": 0.01, "T": 3.0, "C": 6.0},
    )
    out = tmp_path / "resonance.csv"
    assert main(["resonances", "--config", cfg, "--out", str(out)]) == 0
    assert "2 zero(s)" in capsys.readouterr().out
    rows = [l for l in out.read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("t,")]
    assert len(rows) == 2
    for row in rows:
        re_z, im_z, residual = (float(row.split(",")[i]) for i in (1, 2, 5))
        assert abs(abs(re_z) - 1.3477019) < 1e-5
        assert im_z > 0
        assert residual < 1e-9


def test_resonances_tracking_mode(tmp_path):
    cfg = _write_cfg(
        tmp_path, "c.json",
        {"potential": {"family": "constant", "params": {"q": 1.0}},
         "h": 0.01, "T": 4.0, "t": 3.0, "t1": 3.2, "dt": 0.05, "C": 6.0},
    )
    out = tmp_path / "resonance.csv"
    assert main(["resonances", "--config", cfg, "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("t,")]
    assert len(rows) == 2 * 5  # two zeros, five samples each


def test_resonances_track_past_the_support(tmp_path):
    # t1 > T: the potential vanishes past T, so the zeros stand still there
    cfg = _write_cfg(
        tmp_path, "c.json",
        {"potential": {"family": "constant", "params": {"q": 1.0}},
         "h": 0.05, "T": 4.0, "t": 4.0, "t1": 4.2, "dt": 0.05, "C": 6.0},
    )
    out = tmp_path / "resonance.csv"
    assert main(["resonances", "--config", cfg, "--out", str(out)]) == 0
    rows = [l for l in out.read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("t,")]
    assert rows and len(rows) % 5 == 0  # five samples per zero: 4.0 .. 4.2


def test_eigenvalues_track(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path, "c.json",
        {"potential": {"family": "zero", "params": {}}, "h": 0.05, "T": 5.0,
         "kind": "NN", "x0": np.pi, "t0": 2.0, "t1": 2.5, "dt": 0.05},
    )
    out = tmp_path / "eigen.csv"
    assert main(["eigenvalues", "--config", cfg, "--out", str(out)]) == 0
    assert "monotone=True" in capsys.readouterr().out
    text = out.read_text()
    assert "# monotone: True" in text
    assert "# status: completed" in text


def test_eigenvalues_missing_seed_is_usage_error(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path, "c.json",
        {"potential": {"family": "zero", "params": {}}, "h": 0.05, "T": 5.0},
    )
    assert main(["eigenvalues", "--config", cfg]) == 1
    assert "x0" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def test_kernels_sine_fit_row(tmp_path, capsys):
    pot = SampledPotential(h=0.01, cells=tuple([0.8] * 100 + [0.0] * 3000))
    ppath = tmp_path / "tall.json"
    save_potential(pot, ppath)
    cfg = _write_cfg(
        tmp_path, "c.json",
        {"potential": str(ppath), "t": 2.0, "s": 2.4517264, "C": 4.0,
         "w_window": [20.0, 31.0], "box": {"grid_n": 8}},
    )
    out = tmp_path / "kernels.csv"
    assert main(["kernels", "--config", cfg, "--out", str(out)]) == 0
    assert "fit = sine" in capsys.readouterr().out
    rows = [l for l in out.read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("t,")]
    assert len(rows) == 1
    fields = rows[0].split(",")
    assert fields[5] == "sine"
    re_a, im_a = float(fields[6]), float(fields[7])
    assert abs(np.hypot(re_a, im_a) - 1.0) < 1e-9


def test_kernels_exp_fit_on_free(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path, "c.json",
        {"potential": {"family": "zero", "params": {}}, "h": 0.05, "T": 5.0,
         "t": 4.0, "s": 0.5, "C": 2.0, "box": {"grid_n": 8}},
    )
    out = tmp_path / "kernels.csv"
    assert main(["kernels", "--config", cfg, "--out", str(out)]) == 0
    assert "fit = exp" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


def test_converge_json_schema(tmp_path):
    cfg = _write_cfg(
        tmp_path, "c.json",
        {"potential": {"family": "zero", "params": {}}, "h": 0.05, "T": 8.0,
         "s_list": [0.0, 1.0], "T_list": [2.0, 4.0, 8.0], "C": 2.0,
         "box_samples": 6, "format": "json"},
    )
    out = tmp_path / "converge.json"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"meta", "s", "T", "C", "err", "reference_T"}
    assert doc["err"] == [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
    assert doc["reference_T"] == 8.0


def test_converge_requires_t_list(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path, "c.json",
        {"potential": {"family": "zero", "params": {}}, "h": 0.05, "T": 8.0},
    )
    assert main(["converge", "--config", cfg]) == 1
    assert "T_list" in capsys.readouterr().err


@pytest.mark.parametrize("t_list", ["248", "2,8", [2.0, "8"]])
def test_converge_t_list_must_be_a_list_of_numbers(tmp_path, capsys, t_list):
    # a string was iterated character by character: "248" ran horizons 2, 4, 8
    cfg = _write_cfg(
        tmp_path, "c.json",
        {"potential": {"family": "zero", "params": {}}, "h": 0.05, "T": 8.0,
         "T_list": t_list},
    )
    out = tmp_path / "x.csv"
    assert main(["converge", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "T_list" in err
    assert not out.exists()


def test_converge_infinite_horizon_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "c.json"  # 1e400 parses as an infinite float
    cfg.write_text('{"potential": {"family": "zero", "params": {}}, "h": 0.05, '
                   '"T": 1e400, "T_list": [2.0]}')
    assert main(["converge", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err


def test_converge_beyond_horizon_is_usage_error(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path, "c.json",
        {"potential": {"family": "zero", "params": {}}, "h": 0.05, "T": 4.0,
         "T_list": [2.0, 9.0]},
    )
    assert main(["converge", "--config", cfg, "--out",
                 str(tmp_path / "x.csv")]) == 1
    assert "exceeds" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# parseval
# ---------------------------------------------------------------------------


def test_parseval_json_report(tmp_path, capsys):
    cfg = _write_cfg(
        tmp_path, "c.json",
        {"potential": {"family": "box", "params": {"q": 0.4, "t0": 1.5}},
         "h": 0.02, "T": 1.5, "format": "json"},
    )
    out = tmp_path / "parseval.json"
    assert main(["parseval", "--config", cfg, "--out", str(out)]) == 0
    assert "rel_err" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["rel_err"] <= 1e-2
    assert doc["lhs"] == pytest.approx((2.0 / np.pi) * doc["raw_integral"], rel=1e-12)


def test_parseval_budget_exhaustion_is_numerical_exit(tmp_path, monkeypatch):
    import diracnlft.nlft as nlft_mod

    monkeypatch.setattr(nlft_mod, "_PARSEVAL_MAX_LEVELS", 4)
    cfg = _write_cfg(
        tmp_path, "c.json",
        {"potential": {"family": "box", "params": {"q": 0.4, "t0": 1.5}},
         "h": 0.02, "T": 1.5, "tolerances": {"parseval": 1e-12}},
    )
    assert main(["parseval", "--config", cfg, "--out",
                 str(tmp_path / "p.csv")]) == 2


# ---------------------------------------------------------------------------
# console script
# ---------------------------------------------------------------------------


@pytest.mark.skipif(shutil.which("diracnlft") is None,
                    reason="console script not installed")
def test_console_script_usage_exit():
    proc = subprocess.run(
        ["diracnlft"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 1
    assert "subcommand" in proc.stderr


def test_module_entry_point(tmp_path):
    cfg = _write_cfg(tmp_path, "c.json", dict(BOX_CFG, nz=9))
    out = tmp_path / "m.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "diracnlft.cli", "transform",
         "--config", cfg, "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert out.exists()
