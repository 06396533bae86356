"""Sequency-domain filtering, quantum path and classical oracle path.

The quantum path amplitude-encodes the signal, adds an ancilla qubit on top,
runs the filter circuit and splits the final state on the ancilla: outcome 0
is the pass component, outcome 1 the stop component (swapped=True exchanges
the roles by toggling the circuit's leading X). Branches come back in the
signal's physical units, rescaled by the encoding norm, so they compare
directly against the classical path.

The classical path transforms to the sequency domain, zeroes the coefficients
outside (pass) or inside (stop) the retained index set, and transforms back.
Both paths realize the same orthogonal projections; the error metrics in
compare() quantify how closely the simulated circuit tracks the dense
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from walshdsp import circuits, simulator
from walshdsp.transforms import (
    Coefficients,
    SEQUENCY,
    TIME,
    binary_unit,
    time_series,
    time_signal,
    wht_sequency,
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
        elif self.kind == "band":
            if self.band is None or self.cutoff is not None:
                raise ValueError("band takes band edges and no cutoff")
            lo, hi = int(self.band[0]), int(self.band[1])
            if not 0 <= lo < hi:
                raise ValueError(f"band edges must satisfy 0 <= {lo} < {hi}")
            object.__setattr__(self, "band", (lo, hi))
        elif self.cutoff is not None or self.band is not None:
            raise ValueError("dc takes no parameters")

    @classmethod
    def low_pass(cls, cutoff: int) -> "FilterSpec":
        return cls("low", cutoff=int(cutoff))

    @classmethod
    def high_pass(cls, cutoff: int) -> "FilterSpec":
        return cls("high", cutoff=int(cutoff))

    @classmethod
    def band_pass(cls, low_edge: int, high_edge: int) -> "FilterSpec":
        return cls("band", band=(int(low_edge), int(high_edge)))

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
        out = []
        cursor = 0
        for lo, hi in self.pass_intervals(size):
            if cursor < lo:
                out.append((cursor, lo))
            cursor = hi
        if cursor < size:
            out.append((cursor, size))
        return tuple(out)

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
    the filter circuit that was simulated.
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
    """Run the filter circuit on the encoded signal and split on the ancilla."""
    signal, n = time_signal(signal)
    circuit = circuits.build_filter_circuit(n, spec, swapped=swapped)
    encoded, scale = simulator.amplitude_encode(signal)
    # ancilla |0> on top: amplitudes occupy the lower half of the larger index space
    amps = np.zeros(2 << n)
    amps[: 1 << n] = encoded.amplitudes
    state = simulator.Statevector(n + 1, amps)
    final = simulator.run_circuit(state, circuit)
    pass_outcome = 1 if swapped else 0
    pass_amps, p_pass = simulator.project_ancilla(final, n, pass_outcome)
    stop_amps, p_stop = simulator.project_ancilla(final, n, 1 - pass_outcome)
    return FilterResult(
        Coefficients(pass_amps * scale, TIME),
        Coefficients(stop_amps * scale, TIME),
        p_pass,
        p_stop,
        scale,
        circuit,
    )


def filter_classical_oracle(signal, spec: FilterSpec) -> tuple[Coefficients, Coefficients]:
    """Dense-transform reference: mask in the sequency domain, transform back."""
    signal, n = time_signal(signal)
    size = 1 << n
    spec.validate_for(size)
    spectrum = wht_sequency(signal)
    mask = _pass_mask(spec, size)
    pass_hat = np.where(mask, spectrum.values, 0.0)
    stop_hat = np.where(mask, 0.0, spectrum.values)
    pass_branch = wht_sequency(Coefficients(pass_hat, SEQUENCY))
    stop_branch = wht_sequency(Coefficients(stop_hat, SEQUENCY))
    return pass_branch, stop_branch


def dc_remove_oracle(signal) -> Coefficients:
    """Mean subtraction; the classical answer DC filtering must reproduce."""
    if not isinstance(signal, Coefficients):
        signal = time_series(signal)
    if signal.order_tag != TIME:
        raise ValueError(f"need a time-ordered signal, got {signal.order_tag!r}")
    return Coefficients(signal.values - signal.values.mean(), TIME)


def compare(a, b) -> dict[str, float]:
    """Error metrics between two equal-length vectors: l2_abs, l2_rel, linf.

    l2_rel divides by the norm of b (the reference); if that norm is zero the
    ratio degenerates to 0 when the difference is zero too, else infinity.
    """
    av = a.values if isinstance(a, Coefficients) else np.asarray(a, dtype=np.float64)
    bv = b.values if isinstance(b, Coefficients) else np.asarray(b, dtype=np.float64)
    if av.size != bv.size:
        raise ValueError(f"length mismatch: {av.size} vs {bv.size}")
    # measured in binary units of the larger peak, so that the norms of huge
    # or tiny signals neither overflow nor underflow
    unit = binary_unit(max(np.max(np.abs(av), initial=0.0), np.max(np.abs(bv), initial=0.0)))
    diff = av / unit - bv / unit
    l2_diff = float(np.linalg.norm(diff))
    ref = float(np.linalg.norm(bv / unit))
    if ref == 0.0:
        l2_rel = 0.0 if l2_diff == 0.0 else float("inf")
    else:
        l2_rel = l2_diff / ref
    linf = unit * float(np.max(np.abs(diff))) if diff.size else 0.0
    return {"l2_abs": unit * l2_diff, "l2_rel": l2_rel, "linf": linf}
