"""Waveform discretization and CSV round-trip tests."""

from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from walshdsp import signals as sg
from walshdsp import transforms as tr

RNG = np.random.default_rng(7)


def test_constant_via_full_width_pulse():
    w = sg.Waveform("rectangular_pulse", offset=0.0, width=1.0)
    assert sg.discretize(w, 2).values.tolist() == [1.0, 1.0, 1.0, 1.0]


def test_square_one_cycle_pinned():
    vals = sg.discretize(sg.Waveform("square", cycles=1.0), 3).values
    assert vals.tolist() == [1, 1, 1, 1, -1, -1, -1, -1]
    spectrum = tr.wht_sequency(tr.time_series(vals)).values
    assert abs(spectrum[1] - np.sqrt(8)) < 1e-14
    others = np.delete(spectrum, 1)
    assert np.max(np.abs(others)) < 1e-14


def test_half_width_pulse_pinned():
    w = sg.Waveform("rectangular_pulse", offset=0.0, width=0.5)
    assert sg.discretize(w, 3).values.tolist() == [1, 1, 1, 1, 0, 0, 0, 0]


def test_triangular_pinned_small():
    vals = sg.discretize(sg.Waveform("triangular"), 2).values
    assert_allclose(vals, [-0.5, 0.5, 0.5, -0.5], atol=1e-15)


def test_sine_pinned_small():
    vals = sg.discretize(sg.Waveform("sine"), 2).values
    s = np.sqrt(2) / 2
    assert_allclose(vals, [s, s, -s, -s], atol=1e-15)


def test_amplitude_and_phase():
    shifted = sg.discretize(sg.Waveform("sine", amplitude=2.0, phase=np.pi / 2), 3).values
    t = (2 * np.arange(8) + 1) / 16
    assert_allclose(shifted, 2 * np.cos(2 * np.pi * t), atol=1e-14)


@pytest.mark.parametrize("m", range(4))
def test_square_power_of_two_cycles_single_spike(m):
    for n in range(m + 1, 9):
        vals = sg.discretize(sg.Waveform("square", cycles=float(1 << m)), n).values
        spectrum = tr.wht_sequency(tr.time_series(vals)).values
        nonzero = np.flatnonzero(np.abs(spectrum) > 1e-10)
        assert nonzero.tolist() == [(1 << (m + 1)) - 1]


def test_discretize_is_deterministic_and_sized():
    w = sg.Waveform("triangular", cycles=3.0)
    a = sg.discretize(w, 6)
    b = sg.discretize(w, 6)
    assert np.array_equal(a.values, b.values)
    assert len(a) == 64
    assert a.order_tag == tr.TIME


def test_waveform_validation():
    with pytest.raises(ValueError):
        sg.Waveform("sawtooth")
    with pytest.raises(ValueError):
        sg.Waveform("rectangular_pulse", offset=0.8, width=0.4)
    with pytest.raises(ValueError):
        sg.discretize(sg.Waveform("sine"), 0)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 10**400, -10**400, np.float32(np.inf), np.float16(np.inf)],
                         ids=["nan", "inf", "-inf", "10**400", "-10**400", "np.float32(inf)", "np.float16(inf)"])
@pytest.mark.parametrize("field", ["cycles", "width", "offset", "amplitude", "phase"])
def test_waveform_rejects_a_non_finite_parameter(field, value):
    # a sine reads no width or offset, and a square wave of infinite cycles
    # discretizes to all -amplitude: each would be silently wrong
    with pytest.raises(ValueError, match=field):
        sg.Waveform("sine", **{field: value})


def test_waveform_reads_a_narrow_numpy_float_as_a_float():
    # a float32 parameter is widened, not compared with float64's max in
    # float32 (where that max casts to inf), and samples as the float does
    wave = sg.Waveform("sine", cycles=np.float32(2.0))
    assert type(wave.cycles) is float and wave == sg.Waveform("sine", cycles=2.0)
    assert sg.discretize(wave, 4).values.tolist() == sg.discretize(sg.Waveform("sine", cycles=2.0), 4).values.tolist()


@pytest.mark.parametrize(
    "cycles, phase",
    [(1e308, 0.0), (-1e308, 0.0), (1e307, 1.5e308), (-1e307, -1.5e308)],
    ids=["cycles", "-cycles", "cycles-plus-phase", "-cycles-minus-phase"],
)
def test_waveform_rejects_a_sine_whose_argument_overflows(cycles, phase):
    # each parameter is finite, but 2*pi*cycles*t + phase is inf at the last
    # midpoint t and sin(inf) is nan
    with pytest.raises(ValueError, match="cycles=.* and phase=.* overflow"):
        sg.Waveform("sine", cycles=cycles, phase=phase)
    # the other shapes never form that sum
    assert np.isfinite(sg.discretize(sg.Waveform("square", cycles=cycles, phase=phase), 3).values).all()


@pytest.mark.parametrize("cycles, phase", [(1e307, 0.0), (0.0, 1.7e308), (-1e307, 1e308), (1e307, -1.5e308)])
def test_waveform_sine_near_the_overflow_bound_gives_finite_samples(cycles, phase):
    # the argument's ends, phase and 2*pi*cycles + phase, are both finite
    for n in (1, 4, 10):
        assert np.isfinite(sg.discretize(sg.Waveform("sine", cycles=cycles, phase=phase), n).values).all()


def test_composites_basic():
    for maker in (sg.step_composite, sg.tone_composite):
        v = maker(7)
        assert len(v) == 128
        assert v.order_tag == tr.TIME
        assert np.linalg.norm(v.values) > 0
        assert np.array_equal(v.values, maker(7).values)


def test_step_composite_matches_recipe():
    # reassemble the documented recipe by hand
    n = 5
    want = (
        sg.discretize(sg.Waveform("square", cycles=2.0), n).values
        + sg.discretize(sg.Waveform("rectangular_pulse", offset=0.125, width=0.375, amplitude=1.5), n).values
        + sg.discretize(sg.Waveform("rectangular_pulse", offset=0.75, width=0.25, amplitude=-1.0), n).values
    )
    assert np.array_equal(sg.step_composite(n).values, want)


# ---------------------------------------------------------------------------
# CSV


def test_csv_round_trip_bitwise(tmp_path):
    v = RNG.standard_normal(64)
    path = tmp_path / "v.csv"
    sg.save_csv(path, v)
    back = sg.load_csv(path)
    assert np.array_equal(back.values, v)
    assert back.order_tag == tr.TIME


def test_csv_round_trip_with_index(tmp_path):
    v = RNG.standard_normal(16)
    path = tmp_path / "v.csv"
    sg.save_csv(path, v, with_index=True)
    text = path.read_text()
    assert text.splitlines()[0].startswith("0,")
    back = sg.load_csv(path)
    assert np.array_equal(back.values, v)


_EXTREMES = [5e-324, -5e-324, 2.2250738585072014e-308, sys.float_info.max, -sys.float_info.max, -0.0, 0.0]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EXTREMES),
                min_size=1, max_size=40),
       st.booleans())
@example(_EXTREMES, False)
@example(_EXTREMES, True)
def test_csv_round_trip_is_bit_exact(tmp_path, values, with_index):
    v = np.array(values, dtype=np.float64)
    path = tmp_path / "v.csv"
    sg.save_csv(path, v, with_index=with_index)
    back = sg.load_csv(path).values
    assert np.array_equal(back.view(np.uint64), v.view(np.uint64))


def _reference_csv(values, with_index):
    # one f-string per row, the format save_csv writes in chunks
    rows = [f"{float(v):.17g}\n" for v in values]
    if with_index:
        rows = [f"{k},{row}" for k, row in enumerate(rows)]
    return "".join(rows).encode("ascii")


_CHUNK_LENGTHS = [0, 1, sg._CSV_CHUNK - 1, sg._CSV_CHUNK, sg._CSV_CHUNK + 1]


def _with_chunk_lengths(test):
    # every chunk-boundary length, with and without the index column, on the extremes
    for length in _CHUNK_LENGTHS:
        for with_index in (False, True):
            test = example(_EXTREMES + [float("nan"), float("inf"), -float("inf"), 1e22], length, with_index)(test)
    return test


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.floats() | st.sampled_from(_EXTREMES), min_size=1, max_size=30),
       st.sampled_from(_CHUNK_LENGTHS) | st.integers(0, 3 * sg._CSV_CHUNK),
       st.booleans())
@_with_chunk_lengths
def test_csv_bytes_match_a_per_row_formatter(tmp_path, pattern, length, with_index):
    v = np.resize(np.array(pattern, dtype=np.float64), length)
    path = tmp_path / "v.csv"
    sg.save_csv(path, v, with_index=with_index)
    assert path.read_bytes() == _reference_csv(v, with_index)


def test_csv_header_skipped(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("sample,value\n0,1.5\n1,2.5\n")
    assert sg.load_csv(path).values.tolist() == [1.5, 2.5]


@pytest.mark.parametrize("text", ["\nvalue\n1\n2\n", "\n \n\nvalue\n\n1\n2\n", "value\n\n1\n2\n",
                                  "\n\n1\n2\n"],
                         ids=["blank-then-header", "blanks-around-header", "header-then-blank", "blanks-no-header"])
def test_csv_header_is_the_first_non_blank_row(tmp_path, text):
    path = tmp_path / "v.csv"
    path.write_text(text)
    assert sg.load_csv(path).values.tolist() == [1.0, 2.0]


def test_csv_second_non_numeric_row_is_an_error(tmp_path):
    # one header at most, wherever the blank lines put it
    path = tmp_path / "v.csv"
    path.write_text("\nvalue\n\nunit\n1\n")
    with pytest.raises(ValueError, match="line 4: could not parse 'unit'"):
        sg.load_csv(path)


@pytest.mark.parametrize("header", [False, True])
@pytest.mark.parametrize("with_index", [False, True])
def test_csv_byte_order_mark_keeps_every_sample(tmp_path, header, with_index):
    # Excel and PowerShell start a UTF-8 file with U+FEFF; it must not make
    # the first sample fail to parse and be skipped as a header
    values = [0.5, -1.25, 2.0, 3.0, -4.5, 6.0, 7.25, -8.0, 9.0]
    rows = [f"{i},{v!r}" if with_index else repr(v) for i, v in enumerate(values)]
    if header:
        rows.insert(0, "index,value" if with_index else "value")
    path = tmp_path / "v.csv"
    path.write_bytes(b"\xef\xbb\xbf" + "\n".join(rows).encode("ascii") + b"\n")
    assert sg.load_csv(path).values.tolist() == values


def test_csv_bad_row_raises(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("1.0\nnot-a-number\n2.0\n")
    with pytest.raises(ValueError, match="line 2"):
        sg.load_csv(path)


# float() reads each of these as a number, np.loadtxt none of them
NOT_NUMBERS = ["1_5", "1_000", "-2_5.0", "\uff11\uff12", "\u0661\u0662", "1.\u0665"]


@pytest.mark.parametrize("field", NOT_NUMBERS, ids=["underscore", "thousands", "signed", "full-width",
                                                    "arabic-indic", "mixed"])
def test_csv_underscores_and_non_ascii_digits_are_not_numbers(tmp_path, field):
    # as the first non-blank row it is skipped as a header; any later row fails
    path = tmp_path / "v.csv"
    path.write_text(f"0,{field}\n1,2.5\n", encoding="utf-8")
    assert sg.load_csv(path).values.tolist() == [2.5]
    path.write_text(f"0.5\n\n{field}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"line 3: could not parse '{field}'"):
        sg.load_csv(path)


def test_csv_blank_lines_ignored(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("1.0\n\n2.0\n\n")
    assert sg.load_csv(path).values.tolist() == [1.0, 2.0]


def test_non_power_of_two_flagged_at_transform_time(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("1.0\n2.0\n3.0\n")
    loaded = sg.load_csv(path)  # loading is fine
    assert len(loaded) == 3
    with pytest.raises(tr.SizingError, match="3"):
        tr.wht_sequency(loaded)
