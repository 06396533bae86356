"""Finite in, finite out, across every public function that takes samples.

Each drawn signal mixes 0, -0.0, subnormals, tiny and huge normals up to
float64's largest value, of both signs; so does every drawn Waveform
parameter, and the bit widths of discretize and the composites are drawn
from the same values and small integers. Every call either returns only
finite values or raises ValueError (NormalizationError and SizingError are
subclasses). pyproject makes a RuntimeWarning an error, so an overflow that
only warns fails here too. Two outputs may be inf by their documentation:
compare's l2_rel for an exactly zero reference (the CLI writes it as null),
and the Parseval norms the transform subcommand prints.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from walshdsp import filters, signals, simulator, transforms
from walshdsp.cli import main

MAX = np.finfo(np.float64).max
MAGNITUDES = [0.0, 5e-324, 1.5e-320, 2.2250738585072014e-308, 3e-300, 1e-160, 1e-20, 1.0, 3.5,
              1e20, 1e160, 2.0 ** 1022, 1e308, MAX]
# a few distinct values per signal, so that huge ones meet and cancel
VALUES = st.one_of(st.sampled_from(MAGNITUDES), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def mixed_signals(draw, n):
    """2**n samples laid out at random from a palette of up to four signed values."""
    palette = [-v if negative else v
               for v, negative in draw(st.lists(st.tuples(VALUES, st.booleans()), min_size=1, max_size=4))]
    picks = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).integers(0, len(palette), 1 << n)
    return np.array(palette)[picks]


@st.composite
def cases(draw):
    """Two signals of one length 2**n, n = 1..10, and a filter spec for it."""
    n = draw(st.integers(1, 10))
    size = 1 << n
    kind = draw(st.sampled_from(filters.KINDS))
    if kind == "band":
        lo = draw(st.integers(0, size - 1))
        spec = filters.FilterSpec.band_pass(lo, draw(st.integers(lo + 1, size)))
    elif kind == "dc":
        spec = filters.FilterSpec.dc()
    else:
        spec = filters.FilterSpec(kind, cutoff=draw(st.integers(1, size)))
    return draw(mixed_signals(n)), draw(mixed_signals(n)), spec


def _finite_or_value_error(call, *args, parts=lambda out: [out]):
    try:
        out = call(*args)
    except ValueError:
        return
    for part in parts(out):
        assert np.isfinite(getattr(part, "values", part)).all(), call.__name__


def _library(x, y, spec):
    for transform in (transforms.fwht_natural, transforms.wht_sequency, transforms.dft_spectrum,
                      filters.dc_remove_oracle):
        _finite_or_value_error(transform, x)
    _finite_or_value_error(transforms.wht_sequency, transforms.Coefficients(x, transforms.SEQUENCY))
    _finite_or_value_error(simulator.amplitude_encode, x, parts=lambda out: [out[0].amplitudes, out[1]])
    try:
        state, _ = simulator.amplitude_encode(x)
    except ValueError:
        pass
    else:
        # amplitude_encode skips the norm check; the public constructor's passes
        checked = simulator.Statevector(state.n_qubits, state.amplitudes)
        assert np.array_equal(checked.amplitudes, state.amplitudes)
    _finite_or_value_error(filters.filter_quantum, x, spec, parts=lambda r: [
        r.pass_branch, r.stop_branch, r.p_pass, r.p_stop, r.scale])
    _finite_or_value_error(filters.filter_classical_oracle, x, spec, parts=list)
    # the one documented inf: l2_rel against an exactly zero reference
    zero_reference = not y.any() and x.any()
    _finite_or_value_error(filters.compare, x, y, parts=lambda m: [
        m["l2_abs"], m["linf"], 0.0 if zero_reference and m["l2_rel"] == float("inf") else m["l2_rel"]])


def _strict(path: Path):
    return json.loads(path.read_text(), parse_constant=lambda c: (_ for _ in ()).throw(AssertionError(c)))


def _command_line(x, spec, tmp: Path):
    src = tmp / "x.csv"
    signals.save_csv(src, x)
    # the round trip is bit-exact, -0.0 and subnormals included
    assert signals.load_csv(src).values.tobytes() == x.tobytes()
    spec_args = {"dc": [], "band": ["--band", "{}:{}".format(*(spec.band or (0, 0)))]}.get(
        spec.kind, ["--cutoff", str(spec.cutoff)])
    for argv, outputs in (
        (["filter", "--kind", spec.kind, *spec_args, "--output-prefix", str(tmp / "f")],
         ["f.pass.csv", "f.stop.csv", "f.meta.json"]),
        (["transform", "--output", str(tmp / "t.csv")], ["t.csv"]),
        (["spectrum", "--which", "both", "--output", str(tmp / "s.csv")], ["s.sequency.csv", "s.frequency.csv"]),
    ):
        for name in outputs:
            (tmp / name).unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            code = main([*argv, "--input", str(src)])
        assert code in (0, 3), (argv, code, err.getvalue())
        if code == 3:
            assert err.getvalue().startswith("error: "), err.getvalue()
            continue
        for name in outputs:
            if name.endswith(".json"):
                _strict(tmp / name)
            else:
                # load_csv refuses a nan or inf sample
                signals.load_csv(tmp / name)


@settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_every_call_on_finite_samples_is_finite_or_a_value_error(case):
    x, y, spec = case
    _library(x, y, spec)
    with tempfile.TemporaryDirectory() as tmp:
        _command_line(x, spec, Path(tmp))


# bit widths: small integers, and the value mix, where no float is a width
WIDTHS = st.one_of(st.integers(-1, 10), VALUES)


@st.composite
def waveforms(draw):
    """A Waveform's kind and every parameter, each a signed value from the mix."""
    params = {name: -v if negative else v
              for name in ("cycles", "width", "offset", "amplitude", "phase")
              for v, negative in [draw(st.tuples(VALUES, st.booleans()))]}
    return draw(st.sampled_from(signals.KINDS)), params


@settings(max_examples=200, deadline=None, derandomize=True)
@given(waveforms(), WIDTHS)
def test_every_waveform_samples_finitely_or_raises_value_error(waveform, n):
    kind, params = waveform
    _finite_or_value_error(lambda: signals.discretize(signals.Waveform(kind, **params), n))
    _finite_or_value_error(signals.step_composite, n)
    _finite_or_value_error(signals.tone_composite, n)
