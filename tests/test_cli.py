"""End-to-end command line tests driving main() with temp files."""

import json

import numpy as np
import pytest

from walshdsp import circuits, signals, transforms
from walshdsp.cli import CutoffExpr, _cutoff_type, main

EPS = np.finfo(np.float64).eps


def _write_signal(path, values):
    signals.save_csv(str(path), np.asarray(values, dtype=np.float64))


def _read_values(path):
    return signals.load_csv(str(path)).values


def _read_meta(path):
    """A filter meta.json parsed strictly: NaN or Infinity fails the test."""
    return json.loads(path.read_text(), parse_constant=lambda c: pytest.fail(f"{path.name} holds {c}"))


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


@pytest.mark.parametrize("order", [transforms.SEQUENCY, transforms.NATURAL])
def test_transform_inverse_flag_writes_the_same_file(tmp_path, capsys, order):
    # both orderings are self-inverse, so --inverse computes the same product
    src = tmp_path / "sig.csv"
    _write_signal(src, np.random.default_rng(4096).standard_normal(4096))
    runs = []
    for flags in ([], ["--inverse"]):
        out = tmp_path / f"out{len(flags)}.csv"
        code = main(["transform", "--order", order, *flags, "--input", str(src), "--output", str(out)])
        runs.append((code, out.read_bytes(), capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and runs[0][2].startswith("parseval:")


def test_transform_reads_past_a_byte_order_mark(tmp_path):
    # a UTF-8 byte-order mark before the first of 8 samples must not cost
    # that sample (which left 7, not a power of two)
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    _write_signal(plain, np.random.default_rng(8).standard_normal(8))
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outputs = []
    for src in (plain, marked):
        out = tmp_path / f"{src.stem}.out.csv"
        assert main(["transform", "--input", str(src), "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


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
    meta = _read_meta(tmp_path / "flt.meta.json")
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
    # the control total is the last key; the keys before it are unchanged
    assert list(stats) == ["counts", "mcx_arities", "depth", "total", "mcx_controls"]
    assert stats["mcx_controls"] == sum(stats["mcx_arities"])
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
    meta = _read_meta(tmp_path / "sw.meta.json")
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
    meta = _read_meta(tmp_path / "bd.meta.json")
    assert meta["cutoff"] is None
    assert meta["band"] == [8, 24]


def test_filter_meta_writes_a_non_finite_metric_as_null(tmp_path):
    # the oracle's stop branch is exactly zero (only sequencies 0 and 3 are
    # present, both below the cutoff) while the simulated one keeps rounding
    # residue, so compare's l2_rel is inf, which JSON cannot hold; a BLAS
    # that left no residue would give 0
    sequency = np.zeros(8)
    sequency[[0, 3]] = np.random.default_rng(0).standard_normal(2)
    src = tmp_path / "sig.csv"
    _write_signal(src, transforms.wht_sequency(sequency).values)
    assert main(["filter", "--kind", "low", "--cutoff", "6", "--input", str(src),
                 "--output-prefix", str(tmp_path / "o")]) == 0
    stop = _read_meta(tmp_path / "o.meta.json")["errors"]["quantum_vs_oracle_stop"]
    assert stop["l2_abs"] <= 1e-15
    assert stop["l2_rel"] == (None if stop["l2_abs"] > 0 else 0.0)


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
    for n in range(1, 11):
        assert main(["sequency-map", "--n", str(n)]) == 0
        lines = capsys.readouterr().out.split("\n")
        assert lines.pop() == ""
        assert lines == [f"{s},{transforms.sequency_of(s, n)}" for s in range(1 << n)]


def test_sequency_map_above_its_cap_exits_3(capsys):
    assert main(["sequency-map", "--n", "21"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: sequency-map takes n of at most 20, got 21\n"


def test_verify_exit_zero(capsys):
    assert main(["verify", "--n-max", "4"]) == 0
    out = capsys.readouterr().out
    # the filter paths once at N = 64 and once at N = 16384
    assert out.count("PASS") == 4
    assert "FAIL" not in out


# --- gates ---


def test_gates_prints_stats(capsys):
    assert main(["gates", "--kind", "sequency-wht", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "H 4" in out
    assert "CNOT 3" in out
    assert "SWAP 2" in out
    assert "total 9" in out


def test_gates_reports_the_mcx_control_total_last(capsys):
    # dc fires on index 0 alone: one MCX controlled by all n data qubits
    assert main(["gates", "--kind", "dc", "--n", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3:] == ["total 11", "depth 3", "mcx_controls 5"]
    assert main(["gates", "--kind", "dc", "--sweep", "2:4"]) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
    assert rows[0][-2:] == ["arities", "mcx_controls"]
    assert [(row[0], row[-1]) for row in rows[1:]] == [("2", "2"), ("3", "3"), ("4", "4")]


def test_gates_dump_round_trips(tmp_path, capsys):
    dump = tmp_path / "c.json"
    assert main(["gates", "--kind", "low", "--cutoff", "N/2", "--n", "5", "--dump", str(dump)]) == 0
    circuit = circuits.circuit_from_json(dump.read_text())
    assert circuit.n_qubits == 6
    stats = circuits.gate_stats(circuit)
    out = capsys.readouterr().out
    assert f"total {stats.total}" in out
    assert f"depth {stats.depth}" in out


def test_gates_sweep_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["gates", "--kind", "uz", "--sweep", "2:6", "--output", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    # without --output the same table goes to stdout
    assert main(["gates", "--kind", "uz", "--sweep", "2:6"]) == 0
    assert capsys.readouterr().out == out.read_text()
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,total,depth,h,x,cnot,swap,mcx,arities,mcx_controls"
    assert len(lines) == 6
    row = dict(zip(lines[0].split(","), lines[3].split(",")))  # n=4
    assert row["cnot"] == "3"
    assert row["swap"] == "2"
    assert row["total"] == "5"


@pytest.mark.parametrize("argv,message", [
    (["--n", "4", "--output", "sweep.csv"], "gates --output writes a --sweep table; --dump writes one circuit"),
    (["--sweep", "2:4", "--n", "4"], "gates --sweep takes no --n or --dump"),
    (["--sweep", "2:4", "--dump", "c.json"], "gates --sweep takes no --n or --dump"),
    (["--sweep", "2:4", "--n", "4", "--output", "sweep.csv"], "gates --sweep takes no --n or --dump"),
    ([], "gates requires --n (or --sweep LO:HI)"),
    (["--sweep", "4"], "argument --sweep: expected LO:HI integers, got '4'"),
    (["--sweep", "5:3"], "argument --sweep: empty sweep '5:3'"),
    (["--n", "3", "--cutoff", "4"], "uz takes no --cutoff or --band"),
    (["--kind", "sequency-wht", "--sweep", "2:4", "--band", "1:2"], "sequency-wht takes no --cutoff or --band"),
], ids=["output-without-sweep", "sweep-with-n", "sweep-with-dump", "sweep-with-n-and-output", "no-n-or-sweep",
        "sweep-not-a-span", "sweep-empty", "uz-cutoff", "sequency-wht-band"])
def test_gates_options_that_would_be_ignored_are_usage_errors(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["gates", "--kind", "uz", *argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # the usage line names the subcommand whose options were wrong
    assert captured.err.startswith("usage: walshdsp gates ")
    assert captured.err.endswith(f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


# --- exit codes and argument parsing ---


@pytest.mark.parametrize("argv", [
    ["gates", "--kind", "uz", "--n", "0"],
    ["gates", "--kind", "low", "--cutoff", "N/2", "--n", "0"],
    ["gates", "--kind", "uz", "--sweep", "0:2", "--output", "F"],
    ["sequency-map", "--n", "0"],
    ["verify", "--n-max", "0"],
], ids=["gates-n", "gates-filter-n", "gates-sweep", "sequency-map", "verify"])
def test_bit_width_below_one_exits_3_with_the_one_message(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bit width must be at least 1 (2 samples), got 0\n"
    assert list(tmp_path.iterdir()) == []


def test_missing_input_exits_3(tmp_path, capsys):
    assert main(["transform", "--input", str(tmp_path / "nope.csv"), "--output", str(tmp_path / "o.csv")]) == 3
    assert "error:" in capsys.readouterr().err


def test_non_power_of_two_exits_3(tmp_path, capsys):
    src = tmp_path / "odd.csv"
    _write_signal(src, [1.0, 2.0, 3.0])
    assert main(["transform", "--input", str(src), "--output", str(tmp_path / "o.csv")]) == 3
    assert "power of two" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["1_5", "\uff11\uff12"], ids=["underscore", "full-width"])
def test_sample_float_reads_but_loadtxt_does_not_exits_3(tmp_path, capsys, field):
    src = tmp_path / "odd.csv"
    src.write_text(f"0.5\n{field}\n", encoding="utf-8")
    assert main(["transform", "--input", str(src), "--output", str(tmp_path / "o.csv")]) == 3
    assert f"line 2: could not parse '{field}'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["odd.csv"]


@pytest.mark.parametrize("argv", [
    ["filter", "--kind", "dc", "--output-prefix"],
    ["transform", "--order", "sequency", "--output"],
    ["transform", "--order", "natural", "--output"],
    ["spectrum", "--which", "sequency", "--output"],
    ["spectrum", "--which", "frequency", "--output"],
    ["spectrum", "--which", "both", "--output"],
], ids=["filter", "transform-sequency", "transform-natural", "spectrum-sequency",
        "spectrum-frequency", "spectrum-both"])
def test_one_sample_exits_3_without_outputs(tmp_path, capsys, argv):
    src = tmp_path / "one.csv"
    src.write_text("0.5\n")
    assert main([*argv, str(tmp_path / "out"), "--input", str(src)]) == 3
    assert capsys.readouterr().err == "error: bit width must be at least 1 (2 samples), got 0\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["one.csv"]


_WRITERS = {
    "filter": ["filter", "--kind", "low", "--cutoff", "16", "--output-prefix"],
    "transform": ["transform", "--output"],
    "transform-natural": ["transform", "--order", "natural", "--output"],
    "spectrum": ["spectrum", "--which", "both", "--output"],
}
_NON_FINITE = [(c, b) for c in ("filter", "transform", "spectrum") for b in ("nan", "inf", "-inf")]
# 16 samples of 1e308 are finite, but their coefficient 0 (4e308) is not
_NON_FINITE += [(c, "1e308") for c in ("transform", "transform-natural", "spectrum")]


# filter cases carry bare ids such as [nan], so that their ids stay stable
@pytest.mark.parametrize("command,bad", _NON_FINITE,
                         ids=[b if c == "filter" else f"{c}-{b}" for c, b in _NON_FINITE])
def test_filter_non_finite_sample_exits_3_without_outputs(tmp_path, capsys, command, bad):
    src = tmp_path / "bad.csv"
    if bad == "1e308":
        lines, message = [bad] * 16, "transform result is beyond float64"
    else:
        lines, message = [f"{np.sin(k):.17g}" for k in range(64)], "non-finite"
        lines[17] = bad
    src.write_text("\n".join(lines) + "\n")
    code = main([*_WRITERS[command], str(tmp_path / "out"), "--input", str(src)])
    assert code == 3
    assert message in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv"]


@pytest.mark.parametrize("argv", [
    ["transform", "--output"],
    ["transform", "--inverse", "--output"],
    ["transform", "--order", "natural", "--output"],
    ["spectrum", "--which", "both", "--output"],
], ids=["sequency", "sequency-inverse", "natural", "spectrum"])
def test_samples_near_float64_limit_give_finite_coefficients(tmp_path, capsys, argv):
    src = tmp_path / "big.csv"
    src.write_text("1e307\n" * 64)  # coefficient 0 is 8e307
    assert main([*argv, str(tmp_path / "o.csv"), "--input", str(src)]) == 0
    outputs = sorted(tmp_path.glob("o*.csv"))
    assert len(outputs) == (2 if argv[0] == "spectrum" else 1)
    for path in outputs:
        values = _read_values(path)
        assert np.isfinite(values).all()
        assert values[0] == pytest.approx(8e307, rel=1e-15)
        # zero only to within rounding: n = 6 times eps of the peak
        assert np.max(np.abs(values[1:])) <= 6 * EPS * values[0]
    out = capsys.readouterr().out
    if argv[0] == "transform":
        assert out.startswith("parseval: |input|=8e+307 |output|=8e+307 drift=")


def test_filter_huge_samples_keep_their_scale(tmp_path):
    src = tmp_path / "huge.csv"
    _write_signal(src, np.full(16, 1e200))
    assert main(["filter", "--kind", "dc", "--input", str(src), "--output-prefix", str(tmp_path / "o")]) == 0
    meta = _read_meta(tmp_path / "o.meta.json")
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


@pytest.mark.parametrize("order,expected", [
    ("sequency", [1.2e308, -1.2e308, 1.2e308, 1.2e308]),
    ("natural", [1.2e308, 1.2e308, -1.2e308, 1.2e308]),
])
def test_transform_norms_beyond_float64_give_a_finite_drift(tmp_path, capsys, order, expected):
    # finite coefficients whose 2-norm, 2.4e308, float64 cannot hold
    src, out = tmp_path / "huge.csv", tmp_path / "o.csv"
    src.write_text("1.2e308\n-1.2e308\n1.2e308\n1.2e308\n")
    assert main(["transform", "--order", order, "--input", str(src), "--output", str(out)]) == 0
    values = _read_values(out)
    assert np.isfinite(values).all()
    # within n = 2 times eps of the peak, each with its sign
    assert np.max(np.abs(values - np.array(expected))) <= 2 * EPS * 1.2e308
    line = capsys.readouterr().out
    assert "nan" not in line
    norms = dict(field.split("=") for field in line.split()[1:])
    assert norms["|input|"] == norms["|output|"] == "inf"
    assert 0.0 <= float(norms["drift"]) <= 1e-15 * 2.4e308


def test_unresolvable_cutoff_exits_3(tmp_path, square_csv, capsys):
    src, _ = square_csv
    code = main(["filter", "--kind", "low", "--cutoff", "N/3", "--input", str(src),
                 "--output-prefix", str(tmp_path / "x")])
    assert code == 3
    assert "not an integer" in capsys.readouterr().err


@pytest.mark.parametrize("kind,option,text,message", [
    ("low", "--cutoff", "N/3", "cutoff N/3 is not an integer for N=128"),
    ("high", "--cutoff", "2N/3", "cutoff 2N/3 is not an integer for N=128"),
    ("band", "--band", "N/3:N/2", "band edge N/3 is not an integer for N=128"),
    ("band", "--band", "N/4:2N/3", "band edge 2N/3 is not an integer for N=128"),
], ids=["low-N/3", "high-2N/3", "band-N/3", "band-2N/3"])
def test_unresolvable_cutoff_is_named_as_typed(tmp_path, capsys, kind, option, text, message):
    src = tmp_path / "sig.csv"
    _write_signal(src, np.sin(np.arange(128)))
    code = main(["filter", "--kind", kind, option, text, "--input", str(src),
                 "--output-prefix", str(tmp_path / "x")])
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"


def test_malformed_cutoff_is_usage_error(tmp_path, square_csv, capsys):
    src, _ = square_csv
    for kind, option, text, message in [
        ("low", "--cutoff", "half", "expected an integer, N, N/d, or aN/d: 'half'"),
        ("low", "--cutoff", "N/0", "zero denominator in 'N/0'"),
        ("band", "--band", "4", "expected LO:HI, got '4'"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(["filter", "--kind", kind, option, text, "--input", str(src),
                  "--output-prefix", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument {option}: {message}\n")


def test_kind_parameter_mismatch_is_usage_error(tmp_path, square_csv, capsys):
    src, _ = square_csv
    for argv, message in [
        (["--kind", "dc", "--cutoff", "4"], "dc takes no --cutoff or --band"),
        (["--kind", "band", "--cutoff", "4"], "band requires --band LO:HI and no --cutoff"),
        (["--kind", "low", "--band", "1:2"], "low requires --cutoff and no --band"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(["filter", *argv, "--input", str(src), "--output-prefix", str(tmp_path / "x")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: walshdsp filter ")
        assert err.endswith(f"error: {message}\n")
        assert [p.name for p in tmp_path.iterdir()] == ["sig.csv"]


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


def test_filter_whose_branches_sum_past_float64_exits_0(tmp_path, capsys):
    # both paths split the sample into two halves of about -8.99e307; their
    # sum in float64 units overflowed, and the run exited 3 with
    # "non-finite samples"
    src = tmp_path / "edge.csv"
    src.write_text("-1.7976931348623157e308\n0\n")
    prefix = tmp_path / "out"
    assert main(["filter", "--kind", "band", "--band", "1:2", "--input", str(src), "--output-prefix", str(prefix)]) == 0
    meta = _read_meta(tmp_path / "out.meta.json")
    for name in ("quantum_reconstruction", "oracle_reconstruction"):
        errors = meta["errors"][name]
        assert all(np.isfinite(list(errors.values()))) and errors["l2_rel"] < 4 * EPS
    for branch in ("pass", "stop"):
        assert np.isfinite(_read_values(tmp_path / f"out.{branch}.csv")).all()


@pytest.mark.parametrize("argv,lines,message", [
    # the pass amplitude rounds just above 1, times the largest float64
    (["filter", "--kind", "low", "--cutoff", "N", "--output-prefix"],
     ["1.7976931348623157e308"] + ["0"] * 7, "filter branch is beyond float64"),
    # coefficient 1 is (1 + 1j) * 1.6e308: each part fits, its magnitude does not
    (["spectrum", "--which", "frequency", "--output"],
     ["1.6e308", "-1.6e308", "-1.6e308", "1.6e308"], "transform result is beyond float64"),
], ids=["filter-branch", "spectrum-magnitude"])
def test_result_beyond_float64_exits_3_without_outputs(tmp_path, capsys, argv, lines, message):
    src = tmp_path / "edge.csv"
    src.write_text("\n".join(lines) + "\n")
    assert main([*argv, str(tmp_path / "out"), "--input", str(src)]) == 3
    assert f"error: {message}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["edge.csv"]
