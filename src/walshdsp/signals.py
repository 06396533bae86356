"""Waveform generation, midpoint discretization, and CSV ingestion.

Waveforms are defined on the unit interval and sampled at the midpoints
t_k = (2k+1)/(2N) of N equal subintervals, which keeps sample counts exact
powers of two and sidesteps most boundary cases. Where a discontinuity does
land exactly on a midpoint, the right-limit value wins (strict comparisons
below), so discretization is fully deterministic.

Shapes:
  sine               amplitude * sin(2*pi*cycles*t + phase)
  square             +amplitude while frac(cycles*t) < 1/2, else -amplitude
  triangular         ramps -A -> +A over the first half period, back down over
                     the second; starts each period at -amplitude
  rectangular_pulse  amplitude inside [offset, offset+width) of the unit
                     interval, 0 elsewhere (cycles and phase unused)

Every parameter (cycles, width, offset, amplitude, phase) must be a finite
real number within float64's range, whether the shape reads it or not: a
nan or inf one, or an int too large for a float, raises ValueError naming
it, where it would otherwise give wrong samples or an OverflowError. So does a
sine where 2*pi*cycles + phase overflows float64: its argument
2*pi*cycles*t + phase could too, and sin() would turn it into nan.
A Waveform stores each parameter as a Python float, whatever real type it
was given: an int, a bool or a numpy integer or float of any width. So a
numpy float32 or float16 parameter is checked and sampled in float64, as
the same value given as a float would be, and np.float32(inf) is refused.

CSV format: one float per line, '.' decimal separator, newline terminators,
written with 17 significant digits so values round-trip bit for bit. A
number is ASCII with no '_' digit separators, as np.loadtxt reads it. An
optional leading index column, blank lines and a non-numeric header (the
first non-blank row) are tolerated on input; a nan or inf sample is
rejected. Length checks are deferred to transform time.
"""

from __future__ import annotations

__all__ = ["Waveform", "discretize", "load_csv", "save_csv", "step_composite", "tone_composite"]

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from walshdsp.transforms import Coefficients, TIME, check_bits

KINDS = ("sine", "triangular", "rectangular_pulse", "square")
# rows per save_csv write: few writes, and the row strings stay small
_CSV_CHUNK = 4096


@dataclass(frozen=True)
class Waveform:
    """One parameterized waveform on the unit interval."""

    kind: str
    cycles: float = 1.0
    width: float = 0.5
    offset: float = 0.0
    amplitude: float = 1.0
    phase: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown waveform kind {self.kind!r}")
        for field in fields(self)[1:]:  # every parameter, the fields after kind
            value = getattr(self, field.name)
            try:
                # exact for a numpy float32 or float16, where comparing it with
                # float64's max would cast that max to inf
                number = float(value) if isinstance(value, numbers.Real) else math.nan
            except OverflowError:  # an int beyond float64
                number = math.nan
            if not math.isfinite(number):
                raise ValueError(f"waveform {field.name} must be a finite real number, got {value!r}")
            object.__setattr__(self, field.name, number)
        # for t in [0, 1] the sine's argument 2*pi*cycles*t + phase lies between
        # phase and 2*pi*cycles + phase, so it is finite if that end is
        if self.kind == "sine" and not math.isfinite(2 * math.pi * self.cycles + self.phase):
            raise ValueError(f"waveform cycles={self.cycles!r} and phase={self.phase!r} overflow the sine's "
                             "argument 2*pi*cycles*t + phase")
        if self.kind == "rectangular_pulse":
            if not 0.0 <= self.offset < self.offset + self.width <= 1.0:
                raise ValueError(
                    f"pulse [{self.offset}, {self.offset + self.width}) must sit inside [0, 1]"
                )


def discretize(waveform: Waveform, n: int) -> Coefficients:
    """Sample the waveform at the 2**n subinterval midpoints (n >= 1)."""
    size = 1 << check_bits(n)
    t = (2 * np.arange(size) + 1) / (2 * size)
    a = waveform.amplitude
    if waveform.kind == "sine":
        vals = a * np.sin(2 * np.pi * waveform.cycles * t + waveform.phase)
    elif waveform.kind == "square":
        frac = np.mod(waveform.cycles * t, 1.0)
        vals = np.where(frac < 0.5, a, -a)
    elif waveform.kind == "triangular":
        frac = np.mod(waveform.cycles * t, 1.0)
        vals = a * np.where(frac < 0.5, 4.0 * frac - 1.0, 3.0 - 4.0 * frac)
    else:  # rectangular_pulse
        inside = (t >= waveform.offset) & (t < waveform.offset + waveform.width)
        vals = np.where(inside, a, 0.0)
    return Coefficients(vals.astype(np.float64), TIME)


def _composite(n: int, *parts: Waveform) -> Coefficients:
    """The sum of the parts' samples at 2**n midpoints."""
    return Coefficients(np.sum([discretize(part, n).values for part in parts], axis=0), TIME)


def step_composite(n: int) -> Coefficients:
    """Piecewise-constant stand-in test signal (documented fixed recipe).

    Sum of a 2-cycle unit square wave, a pulse of amplitude 3/2 on
    [1/8, 1/2), and a pulse of amplitude -1 on [3/4, 1). Handy for filter
    demos because its sequency content is concentrated at dyadic indices.
    """
    return _composite(n, Waveform("square", cycles=2.0),
                      Waveform("rectangular_pulse", offset=0.125, width=0.375, amplitude=1.5),
                      Waveform("rectangular_pulse", offset=0.75, width=0.25, amplitude=-1.0))


def tone_composite(n: int) -> Coefficients:
    """Smooth-plus-edges stand-in test signal (documented fixed recipe).

    One-cycle unit sine, plus half-amplitude 3-cycle sine, plus a quarter-
    amplitude 4-cycle square. Mixes slow content with genuine high-sequency
    structure.
    """
    return _composite(n, Waveform("sine", cycles=1.0), Waveform("sine", cycles=3.0, amplitude=0.5),
                      Waveform("square", cycles=4.0, amplitude=0.25))


def save_csv(path, values, with_index: bool = False) -> None:
    """Write one value per line; with_index=True prepends 'index,' per row.
    A chunk of rows is one %-format, with the digits of f"{float(v):.17g}"."""
    vals = values.values if isinstance(values, Coefficients) else np.asarray(values)
    row = "%d,%.17g\n" if with_index else "%.17g\n"
    with open(path, "w", encoding="ascii", newline="") as fh:
        for start in range(0, len(vals), _CSV_CHUNK):
            chunk = vals[start:start + _CSV_CHUNK]
            if with_index:
                chunk = np.column_stack([np.arange(start, start + len(chunk)), chunk])
            fh.write((row * len(chunk)) % tuple(chunk.ravel().tolist()))


def load_csv(path) -> Coefficients:
    """Read a one-column (optionally indexed) CSV as a time-ordered vector.

    Blank lines are skipped. A field is a number only if it is ASCII, has no
    '_' and float() reads it, so '1_000' and full-width or Arabic-Indic
    digits are not. The first other row is skipped if it does not parse as
    numbers; any later parse failure is an error, and so is a nan or inf
    sample. Rows with several comma-separated fields contribute their
    last field, so 'index,value' files load unchanged. A leading UTF-8
    byte-order mark, as Excel writes, is dropped.
    """
    values = []
    header = False  # a row was skipped as the header
    with open(path, "r", encoding="utf-8-sig") as fh:
        for lineno, raw in enumerate(fh):
            line = raw.strip()
            if not line:
                continue
            field = line.split(",")[-1].strip()
            try:
                # float() also reads '1_5' and non-ASCII digits; np.loadtxt does not
                if "_" in field or not field.isascii():
                    raise ValueError(field)
                value = float(field)
            except ValueError:
                # only the first non-blank row can be the header
                if not (values or header):
                    header = True
                    continue
                raise ValueError(f"line {lineno + 1}: could not parse {field!r}")
            if not math.isfinite(value):
                raise ValueError(f"line {lineno + 1}: non-finite sample {field!r}")
            values.append(value)
    return Coefficients(np.asarray(values, dtype=np.float64), TIME)
