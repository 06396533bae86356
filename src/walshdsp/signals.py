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

CSV format: one float per line, '.' decimal separator, newline terminators,
written with 17 significant digits so values round-trip bit for bit. An
optional leading index column and a non-numeric header row are tolerated on
input; a nan or inf sample is rejected. Length checks are deferred to
transform time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from walshdsp.transforms import Coefficients, TIME

KINDS = ("sine", "triangular", "rectangular_pulse", "square")


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
        if self.kind == "rectangular_pulse":
            if not 0.0 <= self.offset < self.offset + self.width <= 1.0:
                raise ValueError(
                    f"pulse [{self.offset}, {self.offset + self.width}) must sit inside [0, 1]"
                )


def discretize(waveform: Waveform, n: int) -> Coefficients:
    """Sample the waveform at the 2**n subinterval midpoints."""
    if n < 1:
        raise ValueError(f"bit width must be at least 1, got {n}")
    size = 1 << n
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


def step_composite(n: int) -> Coefficients:
    """Piecewise-constant stand-in test signal (documented fixed recipe).

    Sum of a 2-cycle unit square wave, a pulse of amplitude 3/2 on
    [1/8, 1/2), and a pulse of amplitude -1 on [3/4, 1). Handy for filter
    demos because its sequency content is concentrated at dyadic indices.
    """
    parts = [
        discretize(Waveform("square", cycles=2.0), n).values,
        discretize(Waveform("rectangular_pulse", offset=0.125, width=0.375, amplitude=1.5), n).values,
        discretize(Waveform("rectangular_pulse", offset=0.75, width=0.25, amplitude=-1.0), n).values,
    ]
    return Coefficients(np.sum(parts, axis=0), TIME)


def tone_composite(n: int) -> Coefficients:
    """Smooth-plus-edges stand-in test signal (documented fixed recipe).

    One-cycle unit sine, plus half-amplitude 3-cycle sine, plus a quarter-
    amplitude 4-cycle square. Mixes slow content with genuine high-sequency
    structure.
    """
    parts = [
        discretize(Waveform("sine", cycles=1.0), n).values,
        discretize(Waveform("sine", cycles=3.0, amplitude=0.5), n).values,
        discretize(Waveform("square", cycles=4.0, amplitude=0.25), n).values,
    ]
    return Coefficients(np.sum(parts, axis=0), TIME)


def save_csv(path, values, with_index: bool = False) -> None:
    """Write one value per line; with_index=True prepends 'index,' per row."""
    vals = values.values if isinstance(values, Coefficients) else np.asarray(values)
    with open(path, "w", encoding="ascii", newline="") as fh:
        for k, v in enumerate(vals):
            if with_index:
                fh.write(f"{k},{float(v):.17g}\n")
            else:
                fh.write(f"{float(v):.17g}\n")


def load_csv(path) -> Coefficients:
    """Read a one-column (optionally indexed) CSV as a time-ordered vector.

    The first row is skipped if it does not parse as numbers; any later parse
    failure is an error, and so is a nan or inf sample. Rows with several
    comma-separated fields contribute their last field, so 'index,value' files
    load unchanged.
    """
    values = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh):
            line = raw.strip()
            if not line:
                continue
            field = line.split(",")[-1].strip()
            try:
                value = float(field)
            except ValueError:
                if lineno == 0:
                    continue  # header row
                raise ValueError(f"line {lineno + 1}: could not parse {field!r}")
            if not math.isfinite(value):
                raise ValueError(f"line {lineno + 1}: non-finite sample {field!r}")
            values.append(value)
    return Coefficients(np.asarray(values, dtype=np.float64), TIME)
