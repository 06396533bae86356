"""End-to-end command line tests driving main() with temp files."""

import json

import numpy as np
import pytest

from walshdsp import circuits, signals, transforms
from walshdsp.cli import CutoffExpr, _cutoff_type, main


def _write_signal(path, values):
    signals.save_csv(str(path), np.asarray(values, dtype=np.float64))


def _read_values(path):
    return signals.load_csv(str(path)).values


@pytest.fixture
def square_csv(tmp_path):
    sig = signals.discretize(signals.Waveform("square", cycles=2.0), 5)
    path = tmp_path / "sig.csv"
    _write_signal(path, sig.values)
    return path, sig.values


# --- transform ---


def test_transform_round_trip(tmp_path, square_csv, capsys):
    src, values = square_csv
    mid, back = tmp_path / "mid.csv", tmp_path / "back.csv"
    assert main(["transform", "--order", "sequency", "--input", str(src), "--output", str(mid)]) == 0
    assert main(["transform", "--order", "sequency", "--inverse", "--input", str(mid), "--output", str(back)]) == 0
    np.testing.assert_allclose(_read_values(back), values, atol=1e-12)
    out = capsys.readouterr().out
    assert out.count("parseval:") == 2
    assert "drift=" in out


def test_transform_is_involutive_without_inverse_flag(tmp_path, square_csv):
    # self-inverse transform: applying it twice recovers the signal
    src, values = square_csv
    mid, back = tmp_path / "m.csv", tmp_path / "b.csv"
    main(["transform", "--input", str(src), "--output", str(mid)])
    main(["transform", "--input", str(mid), "--output", str(back)])
    np.testing.assert_allclose(_read_values(back), values, atol=1e-12)


def test_transform_natural_order(tmp_path, square_csv):
    src, values = square_csv
    out = tmp_path / "nat.csv"
    assert main(["transform", "--order", "natural", "--input", str(src), "--output", str(out)]) == 0
    expected = transforms.fwht_natural(transforms.time_series(values))
    np.testing.assert_allclose(_read_values(out), expected.values, atol=1e-12)


# --- filter ---


def test_filter_outputs_and_meta(tmp_path, square_csv):
    src, values = square_csv
    prefix = tmp_path / "flt"
    code = main(["filter", "--kind", "low", "--cutoff", "N/4", "--input", str(src), "--output-prefix", str(prefix)])
    assert code == 0
    passed = _read_values(tmp_path / "flt.pass.csv")
    stopped = _read_values(tmp_path / "flt.stop.csv")
    np.testing.assert_allclose(passed + stopped, values, atol=1e-10)
    meta = json.loads((tmp_path / "flt.meta.json").read_text())
    assert meta["kind"] == "low"
    assert meta["cutoff"] == 8
    assert meta["band"] is None
    assert meta["n_samples"] == 32
    assert meta["n_qubits"] == 6
    assert meta["p_pass"] + meta["p_stop"] == pytest.approx(1.0, abs=1e-12)
    assert meta["scale"] == pytest.approx(float(np.linalg.norm(values)))
    conv = meta["convention"]
    assert conv["swapped"] is False
    assert conv["pass_ancilla_outcome"] == 0
    assert conv["selector_fires_on"] in ("pass", "stop")
    stats = meta["gate_stats"]
    assert stats["total"] == sum(stats["counts"].values())
    for metric in meta["errors"].values():
        assert metric["l2_abs"] <= 1e-10
    # leading_x mirrors the built circuit
    assert conv["leading_x"] == (conv["selector_fires_on"] == "pass")


def test_filter_builds_its_circuit_once(tmp_path, square_csv, monkeypatch):
    src, _ = square_csv
    calls = []
    build = circuits.build_filter_circuit

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(circuits, "build_filter_circuit", counting)
    assert main(["filter", "--kind", "low", "--cutoff", "N/4", "--input", str(src),
                 "--output-prefix", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_filter_swapped_flag_recorded(tmp_path, square_csv):
    src, values = square_csv
    prefix = tmp_path / "sw"
    assert main(["filter", "--kind", "high", "--cutoff", "16", "--swapped",
                 "--input", str(src), "--output-prefix", str(prefix)]) == 0
    meta = json.loads((tmp_path / "sw.meta.json").read_text())
    assert meta["convention"]["swapped"] is True
    assert meta["convention"]["pass_ancilla_outcome"] == 1
    passed = _read_values(tmp_path / "sw.pass.csv")
    stopped = _read_values(tmp_path / "sw.stop.csv")
    np.testing.assert_allclose(passed + stopped, values, atol=1e-10)


def test_filter_band_meta(tmp_path, square_csv):
    src, _ = square_csv
    prefix = tmp_path / "bd"
    assert main(["filter", "--kind", "band", "--band", "N/4:3N/4",
                 "--input", str(src), "--output-prefix", str(prefix)]) == 0
    meta = json.loads((tmp_path / "bd.meta.json").read_text())
    assert meta["cutoff"] is None
    assert meta["band"] == [8, 24]


# --- spectrum ---


def test_spectrum_both_writes_aligned_files(tmp_path, square_csv):
    src, values = square_csv
    out = tmp_path / "spec.csv"
    assert main(["spectrum", "--which", "both", "--input", str(src), "--output", str(out)]) == 0
    seq_lines = (tmp_path / "spec.sequency.csv").read_text().strip().splitlines()
    frq_lines = (tmp_path / "spec.frequency.csv").read_text().strip().splitlines()
    assert len(seq_lines) == len(frq_lines) == len(values)
    idx, mag = seq_lines[3].split(",")
    assert int(idx) == 3
    expected = np.abs(transforms.wht_sequency(transforms.time_series(values)).values)
    assert float(mag) == pytest.approx(expected[3], abs=1e-12)


def test_spectrum_single_kind(tmp_path, square_csv):
    src, values = square_csv
    out = tmp_path / "f.csv"
    assert main(["spectrum", "--which", "frequency", "--input", str(src), "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    expected = np.abs(transforms.dft_spectrum(transforms.time_series(values)))
    assert float(lines[0].split(",")[1]) == pytest.approx(expected[0], abs=1e-12)


# --- sequency-map / verify ---


def test_sequency_map_n3(capsys):
    assert main(["sequency-map", "--n", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [int(line.split(",")[1]) for line in lines] == [0, 7, 3, 4, 1, 6, 2, 5]


def test_verify_exit_zero(capsys):
    assert main(["verify", "--n-max", "4"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 3
    assert "FAIL" not in out


# --- gates ---


def test_gates_prints_stats(capsys):
    assert main(["gates", "--kind", "sequency-wht", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "H 4" in out
    assert "CNOT 3" in out
    assert "SWAP 2" in out
    assert "total 9" in out


def test_gates_dump_round_trips(tmp_path, capsys):
    dump = tmp_path / "c.json"
    assert main(["gates", "--kind", "low", "--cutoff", "N/2", "--n", "5", "--dump", str(dump)]) == 0
    circuit = circuits.circuit_from_json(dump.read_text())
    assert circuit.n_qubits == 6
    stats = circuits.gate_stats(circuit)
    out = capsys.readouterr().out
    assert f"total {stats.total}" in out
    assert f"depth {stats.depth}" in out


def test_gates_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["gates", "--kind", "uz", "--sweep", "2:6", "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,total,depth,h,x,cnot,swap,mcx,arities"
    assert len(lines) == 6
    row = dict(zip(lines[0].split(","), lines[3].split(",")))  # n=4
    assert row["cnot"] == "3"
    assert row["swap"] == "2"
    assert row["total"] == "5"


# --- exit codes and argument parsing ---


def test_missing_input_exits_3(tmp_path, capsys):
    assert main(["transform", "--input", str(tmp_path / "nope.csv"), "--output", str(tmp_path / "o.csv")]) == 3
    assert "error:" in capsys.readouterr().err


def test_non_power_of_two_exits_3(tmp_path, capsys):
    src = tmp_path / "odd.csv"
    _write_signal(src, [1.0, 2.0, 3.0])
    assert main(["transform", "--input", str(src), "--output", str(tmp_path / "o.csv")]) == 3
    assert "power of two" in capsys.readouterr().err


_WRITERS = {
    "filter": ["filter", "--kind", "low", "--cutoff", "16", "--output-prefix"],
    "transform": ["transform", "--output"],
    "spectrum": ["spectrum", "--which", "both", "--output"],
}
_NON_FINITE = [(c, b) for c in _WRITERS for b in ("nan", "inf", "-inf")]


# filter cases carry bare ids such as [nan], so that their ids stay stable
@pytest.mark.parametrize("command,bad", _NON_FINITE,
                         ids=[b if c == "filter" else f"{c}-{b}" for c, b in _NON_FINITE])
def test_filter_non_finite_sample_exits_3_without_outputs(tmp_path, capsys, command, bad):
    src = tmp_path / "bad.csv"
    lines = [f"{np.sin(k):.17g}" for k in range(64)]
    lines[17] = bad
    src.write_text("\n".join(lines) + "\n")
    code = main([*_WRITERS[command], str(tmp_path / "out"), "--input", str(src)])
    assert code == 3
    assert "non-finite" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv"]


def test_filter_huge_samples_keep_their_scale(tmp_path):
    src = tmp_path / "huge.csv"
    _write_signal(src, np.full(16, 1e200))
    assert main(["filter", "--kind", "dc", "--input", str(src), "--output-prefix", str(tmp_path / "o")]) == 0
    meta = json.loads((tmp_path / "o.meta.json").read_text(), parse_constant=pytest.fail)
    assert meta["scale"] == pytest.approx(4e200)
    assert meta["errors"]["quantum_vs_oracle_stop"]["l2_rel"] < 1e-12
    np.testing.assert_allclose(_read_values(tmp_path / "o.stop.csv"), np.full(16, 1e200), rtol=1e-12)


def test_transform_huge_samples_print_finite_norms(tmp_path, capsys):
    src = tmp_path / "huge.csv"
    _write_signal(src, np.full(16, 1e200))
    assert main(["transform", "--input", str(src), "--output", str(tmp_path / "o.csv")]) == 0
    line = capsys.readouterr().out
    norms = dict(field.split("=") for field in line.split()[1:])
    assert float(norms["|input|"]) == pytest.approx(4e200)
    assert float(norms["|output|"]) == pytest.approx(4e200)
    assert float(norms["drift"]) <= 1e-12 * 4e200


def test_unresolvable_cutoff_exits_3(tmp_path, square_csv, capsys):
    src, _ = square_csv
    code = main(["filter", "--kind", "low", "--cutoff", "N/3", "--input", str(src),
                 "--output-prefix", str(tmp_path / "x")])
    assert code == 3
    assert "not an integer" in capsys.readouterr().err


def test_malformed_cutoff_is_usage_error(tmp_path, square_csv):
    src, _ = square_csv
    with pytest.raises(SystemExit) as exc:
        main(["filter", "--kind", "low", "--cutoff", "half", "--input", str(src),
              "--output-prefix", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_kind_parameter_mismatch_is_usage_error(tmp_path, square_csv):
    src, _ = square_csv
    with pytest.raises(SystemExit) as exc:
        main(["filter", "--kind", "dc", "--cutoff", "4", "--input", str(src),
              "--output-prefix", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "text,size,expected",
    [("N", 32, 32), ("N/2", 32, 16), ("3N/4", 32, 24), ("N/4", 8, 2), ("7", 999, 7)],
)
def test_cutoff_grammar(text, size, expected):
    assert _cutoff_type(text).resolve(size) == expected


def test_cutoff_literal_ignores_size():
    assert CutoffExpr(literal=5).resolve(1024) == 5
