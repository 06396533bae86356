"""Smoke runs of the demo scripts, which exercise the public API end to end."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from walshdsp import Circuit, Gate, build_filter_circuit

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    # the same warning filter as the pytest settings in pyproject.toml
    argv = [sys.executable, "-W", "error::RuntimeWarning", str(script)]
    if script.stem == "waveform_spectra":
        argv += ["--outdir", str(tmp_path)]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(argv, cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_gate_budget_exits_1_when_a_row_misses_its_closed_form(monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("gate_budget", ROOT / "demos" / "gate_budget.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    assert demo.main() == 0
    table = capsys.readouterr().out

    def one_gate_more(n, spec):
        circuit = build_filter_circuit(n, spec)
        gates = circuit.gates + ((Gate("X", (0,)),) if n == 7 else ())
        return Circuit(circuit.n_qubits, gates)

    monkeypatch.setattr(demo, "build_filter_circuit", one_gate_more)
    assert demo.main() == 1
    rows = capsys.readouterr().out.splitlines()
    assert [row for row in rows if row.endswith("UNEXPECTED")] == [rows[6]]
    assert rows[6].startswith("  7 ") and len(rows) == len(table.splitlines())
