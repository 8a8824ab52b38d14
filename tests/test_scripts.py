"""The study scripts under ``scripts/`` run end to end on tiny inputs."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name, args", [
    ("run_convergence_study",
     ["--horizons", "10", "20", "--n-freq", "2", "--box-samples", "4", "--h", "0.1"]),
    ("run_universality_sweep", ["--times", "4", "8", "--grid-n", "8", "--h", "0.05"]),
    ("run_resonance_flow",
     ["--h", "0.05", "--t0", "2", "--t1", "2.1", "--dt", "0.05", "--grid-n", "12"]),
])
def test_script_writes_its_csv(name, args, tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out.csv"
    assert module.main(args + ["--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert len(lines) > header + 1  # a header row and at least one data row
