"""Sequency-domain filtering, quantum path and classical oracle path.

The quantum path amplitude-encodes the signal into n qubits, runs the
filter circuit on it (the ancilla on top starts in |0>, which run_circuit
keeps as a known bit until the selector) and splits the final state on the
ancilla: outcome 0 is the pass component, outcome 1 the stop component
(swapped=True exchanges the roles by toggling the circuit's leading X).
Branches come back in the signal's physical units, rescaled by the encoding
norm, so they compare directly against the classical path.

The classical path transforms in natural order, zeroes the rows whose sequency
lies outside (pass) or inside (stop) the retained set, and transforms back.
Both paths realize the same orthogonal projections; the error metrics in
compare() quantify how closely the simulated circuit tracks the dense
arithmetic.
"""

from __future__ import annotations

__all__ = ["FilterResult", "FilterSpec", "compare", "dc_remove_oracle", "filter_classical_oracle",
           "filter_quantum"]

import math
from dataclasses import dataclass

import numpy as np

from walshdsp import circuits, simulator, transforms
from walshdsp.transforms import (
    Coefficients,
    TIME,
    _as_coefficients,
    _from_units,
    check_int,
    fwht_natural,
    peak_units,
    time_signal,
)

KINDS = ("dc", "low", "high", "band")


@dataclass(frozen=True)
class FilterSpec:
    """What to keep: kind plus cutoff (low/high) or band edges (band).

    Sequency index sets retained per kind, for signal length N:
    low  -> [0, cutoff)          with 0 < cutoff <= N
    high -> [cutoff, N)          with 0 < cutoff <= N
    band -> [band[0], band[1])   with 0 <= band[0] < band[1] <= N
    dc   -> [1, N), i.e. everything except the mean component

    Cutoffs and band edges are stored as int: 4, 4.0 and numpy.int64(4) all
    give 4, and a value that is not integral (4.5, nan, "4") is a ValueError.
    """

    kind: str
    cutoff: int | None = None
    band: tuple[int, int] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown filter kind {self.kind!r}")
        if self.kind in ("low", "high"):
            if self.cutoff is None or self.band is not None:
                raise ValueError(f"{self.kind} takes a cutoff and no band")
            object.__setattr__(self, "cutoff", check_int(self.cutoff, "cutoff"))
        elif self.kind == "band":
            if self.band is None or self.cutoff is not None:
                raise ValueError("band takes band edges and no cutoff")
            try:
                lo, hi = self.band
            except (TypeError, ValueError):
                raise ValueError(f"band takes exactly two edges, got {self.band!r}") from None
            lo, hi = check_int(lo, "band edge"), check_int(hi, "band edge")
            if not 0 <= lo < hi:
                raise ValueError(f"band edges must satisfy 0 <= {lo} < {hi}")
            object.__setattr__(self, "band", (lo, hi))
        elif self.cutoff is not None or self.band is not None:
            raise ValueError("dc takes no parameters")

    @classmethod
    def low_pass(cls, cutoff: int) -> "FilterSpec":
        return cls("low", cutoff=cutoff)

    @classmethod
    def high_pass(cls, cutoff: int) -> "FilterSpec":
        return cls("high", cutoff=cutoff)

    @classmethod
    def band_pass(cls, low_edge: int, high_edge: int) -> "FilterSpec":
        return cls("band", band=(low_edge, high_edge))

    @classmethod
    def dc(cls) -> "FilterSpec":
        return cls("dc")

    def validate_for(self, size: int) -> None:
        if self.kind in ("low", "high"):
            if not 0 < self.cutoff <= size:
                raise ValueError(f"cutoff {self.cutoff} not in (0, {size}]")
        elif self.kind == "band":
            lo, hi = self.band
            if not 0 <= lo < hi <= size:
                raise ValueError(f"band [{lo}, {hi}) not within [0, {size}]")

    def pass_intervals(self, size: int) -> tuple[tuple[int, int], ...]:
        """Retained sequency indices as disjoint half-open intervals."""
        if self.kind == "low":
            return ((0, self.cutoff),)
        if self.kind == "high":
            return ((self.cutoff, size),) if self.cutoff < size else ()
        if self.kind == "band":
            return (self.band,)
        return ((1, size),) if size > 1 else ()

    def stop_intervals(self, size: int) -> tuple[tuple[int, int], ...]:
        """Complement of the pass set within [0, size)."""
        # the pass set is at most one interval
        lo, hi = (self.pass_intervals(size) or ((size, size),))[0]
        head = ((0, lo),) if lo else ()
        return (head + ((hi, size),)) if hi < size else head

    def describe(self) -> str:
        if self.kind in ("low", "high"):
            return f"{self.kind} c={self.cutoff}"
        if self.kind == "band":
            return f"band [{self.band[0]}:{self.band[1]})"
        return "dc"


@dataclass(frozen=True)
class FilterResult:
    """Both output branches in physical units plus the split bookkeeping.

    p_pass and p_stop are the ancilla outcome probabilities (they sum to 1);
    scale is the amplitude-encoding norm used to restore units; circuit is
    the filter circuit that was simulated. Both branches are finite:
    filter_quantum raises ValueError for a filter branch beyond float64.
    """

    pass_branch: Coefficients
    stop_branch: Coefficients
    p_pass: float
    p_stop: float
    scale: float
    circuit: circuits.Circuit


def _pass_mask(spec: FilterSpec, size: int) -> np.ndarray:
    mask = np.zeros(size, dtype=bool)
    for lo, hi in spec.pass_intervals(size):
        mask[lo:hi] = True
    return mask


def filter_quantum(signal, spec: FilterSpec, *, swapped: bool = False) -> FilterResult:
    """Run the filter circuit on the encoded signal and split on the ancilla.

    ValueError for a signal amplitude_encode refuses, a spec the signal's
    length does not admit, and a filter branch beyond float64: a branch is
    its amplitudes times the signal's norm, and the circuit's rounding can
    lift an entry past float64 where a sample is near it.
    """
    encoded, scale = simulator.amplitude_encode(signal)
    circuit = circuits.build_filter_circuit(encoded.n_qubits, spec, swapped=swapped)
    # the ancilla on top starts in |0>, as run_circuit reads the n-qubit state
    final = simulator.run_circuit(encoded, circuit)
    # the ancilla is the top qubit, so its two outcomes are the state's halves:
    # project_ancilla's branches, read in place
    halves = final.amplitudes.reshape(2, -1)
    pass_half, stop_half = halves[::-1] if swapped else halves
    # two separate arrays, under one np.errstate
    pass_branch, stop_branch = _from_units((pass_half, stop_half), scale, "filter branch")
    return FilterResult(
        Coefficients(pass_branch, TIME),
        Coefficients(stop_branch, TIME),
        float(np.vdot(pass_half, pass_half).real),
        float(np.vdot(stop_half, stop_half).real),
        scale,
        circuit,
    )


def filter_classical_oracle(signal, spec: FilterSpec) -> tuple[Coefficients, Coefficients]:
    """Dense-transform reference: mask the spectrum by sequency, transform back.

    H · (the sequency mask read through the map) · H, as uz·uz† cancels in
    the circuit: natural row s is kept when its sequency is.
    """
    signal, n = time_signal(signal)
    size = 1 << n
    spec.validate_for(size)
    # looked up on the module at call time, like the calls into the other
    # layers, so that a tracer patching the module sees the map being built;
    # only the forward map is read, and both go once keep is built
    keep = _pass_mask(spec, size)[transforms.natural_to_sequency_perm(n)[0]]
    spectrum = fwht_natural(signal).values
    pass_branch = fwht_natural(np.where(keep, spectrum, 0.0)).values
    stop_branch = fwht_natural(np.where(keep, 0.0, spectrum)).values
    return Coefficients(pass_branch, TIME), Coefficients(stop_branch, TIME)


def dc_remove_oracle(signal) -> Coefficients:
    """Mean subtraction; the classical answer DC filtering must reproduce.

    Taken in peak units; ValueError on a result beyond float64.
    """
    signal, _ = time_signal(signal)
    # in peak units, so that huge samples do not overflow the mean
    unit, (scaled,) = peak_units(signal.values)
    return Coefficients(_from_units(scaled - scaled.mean(), unit, "mean-removed signal"), TIME)


def compare(a, b) -> dict[str, float]:
    """Error metrics between two equal-length vectors: l2_abs, l2_rel, linf.

    l2_rel divides by the norm of b (the reference); if that norm is zero the
    ratio degenerates to 0 when the difference is zero too, else infinity.
    Raw arrays are read as time_series reads them. ValueError on a nan or inf
    entry, a complex array or one that is not 1-D, on a difference whose
    l2_abs or linf would pass float64, and on an l2_rel that would.
    """
    av, bv = _as_coefficients(a).values, _as_coefficients(b).values
    if av.size != bv.size:
        raise ValueError(f"length mismatch: {av.size} vs {bv.size}")
    # the difference in float64 itself, rounded once, where both peaks are
    # below 2**1023 and it cannot overflow; from there in the two vectors'
    # common peak units (taken in place: both copies are compare's own),
    # where a difference below 2**-1022 of the peak is subnormal. Then it and
    # b each in their own units, where no square underflows
    unit, (diff, scaled_b) = peak_units(av, bv)
    if unit < 2.0 ** 1023:
        unit, diff = 1.0, av - bv
    else:
        diff -= scaled_b
    diff_unit, (diff,) = peak_units(diff)
    ref_unit, (ref,) = peak_units(bv)
    l2_diff, l2_ref = float(np.linalg.norm(diff)), float(np.linalg.norm(ref))
    linf = float(np.abs(diff, out=diff).max(initial=0.0))
    # the difference's unit is unit * diff_unit, which float64 may not hold
    exponent = _log2(unit) + _log2(diff_unit)
    l2_abs, linf = _times_power(np.array([l2_diff, linf]), exponent, "difference").tolist()
    if l2_ref == 0.0:
        l2_rel = 0.0 if l2_diff == 0.0 else float("inf")
    else:
        l2_rel = float(_times_power(np.array(l2_diff / l2_ref), exponent - _log2(ref_unit), "relative difference"))
    return {"l2_abs": l2_abs, "l2_rel": l2_rel, "linf": linf}


def _log2(unit: float) -> int:
    """The exponent of a power-of-two unit from peak_units."""
    return math.frexp(unit)[1] - 1


def _times_power(values: np.ndarray, exponent: int, what: str) -> np.ndarray:
    """values times 2**exponent, through _from_units in two steps, as 2**exponent
    may be beyond float64's range.

    For values in compare's range (about 2**-20 to 2**20) the first step
    stays normal and exact, so the result is rounded once.
    """
    half = exponent // 2
    return _from_units(_from_units(values, math.ldexp(1.0, half), what), math.ldexp(1.0, exponent - half), what)
