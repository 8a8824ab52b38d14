import json
import math
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diracnlft
from diracnlft import cli
from diracnlft.cli import main
from diracnlft.potential import SampledPotential, save_potential
from diracnlft.reporting import format_float, write_csv

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
    ("transform", {"tolerances": {"unimodular": "abc"}}, "unimodular"),
    ("transform", {"nz": 10.9}, "nz"),
    ("transform", {"nz": True}, "nz"),
    ("resonances", {"box": {"grid_n": 8.5}}, "grid_n"),
    ("converge", {"T_list": [1.0, 2.0], "box_samples": True}, "box_samples"),
    ("verify", {"seed": 1.5}, "seed"),
    ("transform", {"tolerances": {"unimodualr": 1e-30}}, "unimodualr"),
], ids=["w_window_number", "w_window_triple", "box_number", "grid_list", "nz_word",
        "tolerance_word", "nz_fraction", "nz_bool", "grid_n_fraction", "box_samples_bool",
        "seed_fraction", "tolerance_name_typo"])
def test_malformed_config_value_is_usage_error(tmp_path, capsys, command, extra, key):
    # each of these ended in a Python traceback, or was silently truncated, before;
    # verify reads no potential, so its config carries none
    cfg = _write_cfg(tmp_path, "c.json", {**({} if command == "verify" else ZERO_CFG), **extra})
    out = tmp_path / "o.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and key in err
    assert not out.exists()


@pytest.mark.parametrize("pspec,key", [
    ({"family": "constant", "parms": {"q": 0.5}}, "parms"),
    ({"family": "constant", "params": {}, "samples": [0.1, 0.2]}, "samples"),
    ({"family": "box", "params": {"q": 0.4, "t_0": 1.5}}, "t_0"),
], ids=["parms_typo", "retired_samples", "params_key_typo"])
def test_inline_potential_unknown_key_is_usage_error(tmp_path, capsys, pspec, key):
    cfg = _write_cfg(tmp_path, "c.json", {"potential": pspec, "h": 0.5, "T": 1.0})
    assert main(["transform", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and key in err
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
# the key table: every key a subcommand reads is declared once
# ---------------------------------------------------------------------------

# a config each subcommand accepts
VALID = {
    "transform": dict(BOX_CFG, nz=9),
    "verify": {},
    "resonances": dict(ZERO_CFG),
    "eigenvalues": dict(ZERO_CFG, x0=np.pi, t0=1.0, t1=1.1),
    "kernels": dict(ZERO_CFG, box={"grid_n": 8}),
    "converge": dict(ZERO_CFG, T_list=[1.0, 2.0]),
    "parseval": dict(BOX_CFG),
}


def _unread_key_cases():
    """Per subcommand: a misspelt key at the top level and in each nested
    object it declares, and a flag it does not read; then the reproductions
    that exited 0 before the key table."""
    cases = []
    for command, keys in cli._KEYS.items():
        cases.append(pytest.param(command, {"outptu": "x.csv"}, [], "outptu", id=f"{command}-top"))
        for name, sub in keys.items():
            if isinstance(sub, dict):
                typo = next(iter(sub)) + "x"
                cases.append(pytest.param(command, {name: {typo: 1.0}}, [], typo,
                                          id=f"{command}-{name}"))
        flag = next(key for key in ("T", "zmin", "s") if key not in keys)
        cases.append(pytest.param(command, {}, [f"--{flag}", "1.0"], flag, id=f"{command}-flag"))
    return cases + [
        pytest.param("transform", {"nzz": 5, "grid": {"nz": 11}}, [], "nzz", id="nzz"),
        pytest.param("transform", {"grid": {"nz": 11, "zmaxx": 3}}, [], "zmaxx", id="zmaxx"),
        pytest.param("kernels", {"box": {"C": 9, "s": 2, "half_width": 0.1}}, [], "half_width",
                     id="kernels_box"),
        pytest.param("resonances", {}, ["--nz", "7", "--zmin", "3"], "zmin", id="resonances_nz"),
        pytest.param("resonances", {"box": {"C": 6.0}}, [], "C", id="retired_box_C"),
    ]


@pytest.mark.parametrize("command,extra,flags,key", _unread_key_cases())
def test_unread_key_is_usage_error(tmp_path, capsys, command, extra, flags, key):
    cfg = _write_cfg(tmp_path, "c.json", {**VALID[command], **extra})
    out = tmp_path / "o.csv"
    assert main([command, "--config", cfg, "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"'{key}'" in err and "allowed:" in err
    assert not out.exists()


def test_h_with_a_potential_file_is_usage_error(tmp_path, capsys):
    ppath = tmp_path / "pot.json"
    save_potential(SampledPotential(h=0.1, cells=(1.0,) * 5), ppath)
    cfg = _write_cfg(tmp_path, "c.json", {"potential": str(ppath), "h": 0.05})
    assert main(["transform", "--config", cfg, "--out", str(tmp_path / "o.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'h'" in err


@pytest.mark.parametrize("command", ["transform", "verify"])
def test_output_in_missing_directory_is_usage_error(tmp_path, capsys, command):
    # a FileNotFoundError traceback before
    cfg = _write_cfg(tmp_path, "c.json", VALID[command])
    out = tmp_path / "missing" / "o.csv"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and str(out) in err
    assert "Traceback" not in err and not out.parent.exists()


def _table_rows(keys, prefix=""):
    """(key, kind, default) of each key of a key table, nested ones dotted."""
    for key, spec in keys.items():
        if isinstance(spec, dict):
            yield from _table_rows(spec, f"{prefix}{key}.")
            continue
        kind, default = spec
        text = ("required" if default is cli._REQUIRED else "—" if default is None
                else json.dumps(default))
        yield prefix + key, "a string" if kind is str else kind.expected, text


def test_readme_key_table_matches_the_key_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Config keys", 1)[1].split("\n#", 1)[0]
    documented = set()
    for line in section.splitlines():
        cells = [c.strip().strip("`") for c in line.strip().strip("|").split("|")]
        if len(cells) != 4 or not line.startswith("| `"):
            continue
        key, kind, default, commands = cells
        names = cli._KEYS if commands == "every subcommand" else commands.split(", ")
        documented |= {(command, key, kind, default) for command in names}
    declared = {(command, *row) for command, keys in cli._KEYS.items()
                for row in _table_rows(keys)}
    assert documented == declared


def _recipe_commands(block):
    """The ``diracnlft`` command lines of a README shell recipe, a one-line
    ``for VAR in ...; do ...; done`` loop unrolled; each ``cat > FILE <<
    'EOF'`` here-document is written to FILE as the commands are drawn."""
    lines = iter(block.splitlines())
    for line in lines:
        if heredoc := re.fullmatch(r"cat > (\S+) << 'EOF'", line):
            Path(heredoc[1]).write_text("\n".join(iter(lines.__next__, "EOF")))
        elif loop := re.fullmatch(r"for (\w+) in (.+); do (.+); done", line):
            yield from (loop[3].replace("$" + loop[1], v) for v in loop[2].split())
        elif line:
            yield line


def test_readme_study_recipes_run(tmp_path, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Study recipes", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```sh\n(.*?)```", section, re.S)
    assert len(blocks) == 3
    monkeypatch.chdir(tmp_path)
    for block in blocks:
        for command in _recipe_commands(block):
            argv = shlex.split(command)
            assert argv[0] == "diracnlft" and main(argv[1:]) == 0, command

    def data_rows(pattern):  # less the column header
        return [sum(not line.startswith("#") for line in path.read_text().splitlines()) - 1
                for path in tmp_path.glob(pattern)]

    assert data_rows("converge.csv") == [32]
    assert data_rows("resonance.csv") == [402]
    assert data_rows("kernels-*.csv") == [1] * 4


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


def test_pyproject_version_is_the_package_version():
    # the headers print diracnlft.__version__; pyproject.toml repeats it (read
    # with a regex: Python 3.10 has no tomllib)
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'^version = "([^"]+)"$', text, re.MULTILINE)
    assert match and match.group(1) == diracnlft.__version__


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


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_parseval_reruns_are_byte_identical(tmp_path, fmt):
    cfg = _write_cfg(tmp_path, "c.json", dict(BOX_CFG, format=fmt))
    out1, out2 = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
    assert main(["parseval", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["parseval", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_one_parser_serves_every_run(tmp_path, capsys):
    # in-process callers run main once per job: the parser is built once,
    # and a usage error or other flags leave no trace in later runs
    cli._build_parser.cache_clear()
    cfg = _write_cfg(tmp_path, "c.json", dict(BOX_CFG, nz=17))
    out = [tmp_path / f"{k}.csv" for k in range(3)]
    assert main(["transform", "--config", cfg, "--out", str(out[0])]) == 0
    assert main(["transform", "--config", cfg, "--nz", "9", "--nonsense"]) == 1
    assert main(["transform", "--config", cfg, "--nz", "9", "--out", str(out[1])]) == 0
    assert main(["transform", "--config", cfg, "--out", str(out[2])]) == 0
    assert out[2].read_bytes() == out[0].read_bytes() != out[1].read_bytes()
    assert cli._build_parser.cache_info().misses == 1


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


def test_csv_rows_print_as_format_float(tmp_path):
    # a row of floats goes through one format, any other row value by value;
    # both print each value as format_float does (a bool as True, not 1)
    rows = [
        (math.nan, math.inf, -math.inf, -0.0, np.float64(0.1), 1e-300),
        (np.float64(np.nan), np.float64(-np.inf), -1.0, 3.0, 7.0, 5e-324),
        (1, True, "x", np.float64(-0.0), math.inf, False),
        (2.0, 3.0),
    ]
    path = tmp_path / "r.csv"
    write_csv(str(path), list("abcdef"), rows, {"k": 1})
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    assert lines[1:] == [",".join(format_float(v) for v in row) for row in rows]
    assert lines[3] == "1,True,x,-0,inf,False"


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
    assert "FAIL hb_determinant_identity" in out
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


def test_kernels_none_row_below_the_sine_band(tmp_path, capsys, monkeypatch):
    # the tall bump's zero sits at t y = 0.83 < 1 for t = 1: it is in the
    # box, so no exponential, and below the sine band, so no fit at all
    from diracnlft import debranges

    calls, search = [], debranges.find_zeros
    monkeypatch.setattr(debranges, "find_zeros",
                        lambda *a, **k: calls.append(a) or search(*a, **k))
    pot = SampledPotential(h=0.01, cells=tuple([0.8] * 100 + [0.0] * 3000))
    ppath = tmp_path / "tall.json"
    save_potential(pot, ppath)
    cfg = _write_cfg(
        tmp_path, "c.json",
        {"potential": str(ppath), "t": 1.0, "s": 2.4517264, "C": 4.0,
         "w_window": [20.0, 31.0], "box": {"grid_n": 8}},
    )
    out = tmp_path / "kernels.csv"
    assert main(["kernels", "--config", cfg, "--out", str(out)]) == 0
    assert "fit = none" in capsys.readouterr().out
    rows = [l for l in out.read_text().splitlines()
            if l and not l.startswith("#") and not l.startswith("t,")]
    assert rows[0].split(",")[5:] == ["none"] + ["nan"] * 5
    assert len(calls) == 1  # one zero search decides the model


def test_kernels_propagates_the_box_grid_once(tmp_path, monkeypatch):
    # the fit reads E on the box from the probe's batch: one propagation of
    # the grid per row, not one for the probe and another for the fit
    from diracnlft import debranges
    from diracnlft.resonance import Box

    batches, propagate = [], debranges.transfer
    monkeypatch.setattr(debranges, "transfer",
                        lambda pot, z, *a, **k: batches.append(z) or propagate(pot, z, *a, **k))
    cfg = _write_cfg(
        tmp_path, "c.json",
        {"potential": {"family": "zero", "params": {}}, "h": 0.05, "T": 5.0,
         "t": 4.0, "s": 0.5, "C": 2.0, "box": {"grid_n": 8}},
    )
    assert main(["kernels", "--config", cfg, "--out", str(tmp_path / "k.csv")]) == 0
    grid = Box.scaled(0.5, 2.0, 4.0, 8).tensor_grid()
    assert sum(np.shape(z) == grid.shape and np.array_equal(z, grid) for z in batches) == 1


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


def test_converge_nan_box_constant_is_usage_error(tmp_path, capsys):
    # Python's json reads the NaN literal; C = NaN wrote an all-NaN table before
    cfg = tmp_path / "c.json"
    cfg.write_text('{"potential": {"family": "zero", "params": {}}, "h": 0.05, '
                   '"T": 4.0, "T_list": [2.0, 4.0], "C": NaN}')
    out = tmp_path / "x.csv"
    assert main(["converge", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "C > 0" in err
    assert not out.exists()


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


# ---------------------------------------------------------------------------
# one stderr line per failure, and a property test over malformed configs
# ---------------------------------------------------------------------------

CONST_CFG = {"potential": {"family": "constant", "params": {"q": 1.0}}, "h": 0.5, "T": 1.0,
             "grid": {"zmin": -2.0, "zmax": 2.0, "nz": 5}}


@pytest.mark.parametrize("extra, code, label", [
    ({"nzz": 5}, 1, "error"),
    ({"potential": {"family": "constant", "params": {"q": 800.0}}}, 2, "numerical failure"),
    ({"tolerances": {"unimodular": 1e-300}}, 3, "invariant violation"),
], ids=["usage", "numerical", "invariant"])
def test_each_failure_prints_one_stderr_line(tmp_path, extra, code, label):
    # a separate process, so the log goes to stderr as it does for a user
    cfg = _write_cfg(tmp_path, "c.json", {**CONST_CFG, **extra})
    env = {k: v for k, v in os.environ.items() if k != "NLFT_LOG"}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                         env.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-m", "diracnlft.cli", "transform", "--config", cfg,
         "--out", str(tmp_path / "o.csv")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == code
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith(f"{label}: ")
    assert not (tmp_path / "o.csv").exists()


def _run_capped(tmp_path, command, cfg):
    """Run ``command`` on ``cfg`` in a child process whose address space is
    capped at 1 GiB, so a request that allocates without bound fails there at
    once instead of exhausting the machine."""
    code = ("import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from diracnlft.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    env = {k: v for k, v in os.environ.items() if k != "NLFT_LOG"}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                         env.get("PYTHONPATH", "")])
    env["OPENBLAS_NUM_THREADS"] = "1"  # every BLAS thread reserves address space
    return subprocess.run(
        [sys.executable, "-c", code, command, "--config", _write_cfg(tmp_path, "c.json", cfg),
         "--out", str(tmp_path / "o.csv")],
        capture_output=True, text=True, timeout=120, env=env,
    )


@pytest.mark.parametrize("command, cfg, code, label, names", [
    # the step halves from 1 281 core nodes; the next grid, of 1 310 721, is refused
    ("parseval", {"potential": {"family": "box", "params": {"q": 0.4, "t0": 1.5}},
                  "h": 0.02, "T": 1.5, "tolerances": {"parseval": 1e-14}},
     2, "numerical failure", "budget of 1048576 nodes"),
    # 10**12 samples would take 16 TB
    ("converge", {**BOX_CFG, "T_list": [0.5, 1.0], "box_samples": 10**12},
     1, "error", "n <= 65536 box samples"),
], ids=["parseval_nodes", "box_samples"])
def test_size_bounds_refuse_before_allocating(tmp_path, command, cfg, code, label, names):
    proc = _run_capped(tmp_path, command, cfg)
    assert proc.returncode == code, proc.stderr[-2000:]
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith(f"{label}: ")
    assert names in proc.stderr
    assert not (tmp_path / "o.csv").exists()


# a config per subcommand that runs in milliseconds and exits 0
_BASE_CFGS = {
    "transform": CONST_CFG,
    "resonances": {"potential": {"family": "constant", "params": {"q": 1.0}}, "h": 0.5,
                   "T": 3.0, "C": 6.0, "box": {"grid_n": 8}, "t1": 3.1, "dt": 0.05},
    "eigenvalues": {"potential": {"family": "constant", "params": {"q": 0.0}}, "h": 0.5,
                    "T": 2.0, "kind": "NN", "x0": math.pi, "t0": 2.0, "t1": 2.1, "dt": 0.05},
}
# special floats, huge integers and wrong JSON types (strings and booleans
# among them, which a number key refuses); output also gets paths it cannot write
_ODD = [math.nan, math.inf, -math.inf, 1e308, -1e308, 1e300, 5e-324, -0.0, 0, 10**400,
        2**63, "x", "1.5", "2", [1.0], {}, None, True, False]
_NUMBER_KINDS = (cli._number, cli._frequency, cli._positive, cli._integer, cli._count)
_UNWRITABLE = ["missing/out.csv", "."]


def _key_paths(keys, prefix=()):
    for key, spec in keys.items():
        if isinstance(spec, dict):
            yield from _key_paths(spec, prefix + (key,))
        else:
            yield prefix + (key,)


def _mutated(cfg, path, value):
    """A copy of ``cfg`` with the key at ``path`` set to ``value`` (no change
    where an earlier mutation replaced an enclosing object)."""
    cfg = json.loads(json.dumps(cfg))
    node = cfg
    for key in path[:-1]:
        node = node.setdefault(key, {}) if isinstance(node.get(key, {}), dict) else {}
    node[path[-1]] = value
    return cfg


@st.composite
def _odd_configs(draw):
    command = draw(st.sampled_from(sorted(_BASE_CFGS)))
    paths = [*_key_paths(cli._KEYS[command]), ("potential", "params", "q")]
    cfg = _BASE_CFGS[command]
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(paths))
        values = st.sampled_from(_ODD + (_UNWRITABLE if path == ("output",) else []))
        if path[-1] == "q":  # amplitudes around and past the growth bound, up to 1e300
            values |= st.sampled_from([305.0, 400.0, 1e6]) | st.floats(-1e300, 1e300)
        cfg = _mutated(cfg, path, draw(values))
    return command, cfg


def _data_rows(path):
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


@given(case=_odd_configs())
@settings(max_examples=120, deadline=None)
def test_malformed_configs_exit_cleanly(tmp_path_factory, case):
    # every run exits 0..3 without a traceback (or a RuntimeWarning, an error
    # in this suite); a failure prints one stderr line, a success finite rows
    command, cfg = case
    work = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
    (work / "c.json").write_text(json.dumps(cfg))
    err, cwd = StringIO(), os.getcwd()
    os.chdir(work)  # relative outputs, e.g. a str()-ed odd value, land here
    try:
        with redirect_stdout(StringIO()), redirect_stderr(err):
            code = main([command, "--config", "c.json"])
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2, 3)
    if code:
        assert err.getvalue().count("\n") == 1, err.getvalue()
    for path in _key_paths(cli._KEYS[command]):  # a number key refuses strings and booleans
        value, spec = cfg, cli._KEYS[command]
        for key in path:
            value = value.get(key) if isinstance(value, dict) else None
            spec = spec[key]
        if isinstance(value, (str, bool)) and spec[0] in _NUMBER_KINDS:
            assert code == 1, (path, value)
    if code:
        return
    for out in work.rglob("*"):
        if out.is_file() and out.name != "c.json":
            for row in _data_rows(out):
                for cell in row:
                    try:
                        value = float(cell)
                    except ValueError:
                        continue  # a label column
                    assert math.isfinite(value), (out.name, row)
