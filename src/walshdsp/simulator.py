"""Dense statevector simulator for the small gate set the circuits need.

Amplitude indexing is little-endian: bit b of an amplitude's index is the
state of qubit b, so qubit 0 is the least significant bit and an ancilla
added "on top" of n data qubits is qubit n, the most significant bit.

The gate set is H, X, CNOT, SWAP and MCX. MCX is a primitive here, not a
decomposition: it flips the target amplitude exactly on basis states where
every open control reads 0 and every closed control reads 1. A CNOT is the
single-closed-control case; an MCX with no controls degenerates to X. All
five kinds are real involutions, which the tests lean on heavily.

Amplitudes keep the kind of the input: a real state is stored as float64 and
stays real through every gate, a complex state is stored as complex128.

run_circuit compiles the gate list into layers and makes one pass per layer
instead of one per gate:

* a run of H gates on distinct qubits is one butterfly stage per qubit (the
  kernel of the classical fast transform), scaled once by 2**(-k/2);
* a run of two or more X/CNOT/SWAP gates is a single GF(2)-affine map of the
  basis indices, composed from the gates' action on index 0 and the unit
  indices, and applied as one gather;
* an MCX, or a lone X/CNOT/SWAP, exchanges two strided sub-views of the
  amplitudes reshaped to one axis per qubit, so no index array is built.

The layers come from the gate list alone. apply_gate keeps the per-gate
index-array kernel as the slow reference the compiled path is tested
against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from walshdsp.transforms import _fwht_inplace, binary_unit, time_signal

OPEN = "open"
CLOSED = "closed"

_GATE_KINDS = ("H", "X", "CNOT", "SWAP", "MCX")
_PERMUTATION_KINDS = ("X", "CNOT", "SWAP")
_NORM_TOL = 1e-10
_RSQRT2 = 1.0 / np.sqrt(2.0)


class NormalizationError(ValueError):
    """Raised when a signal cannot be scaled to a unit-norm state."""


@dataclass(frozen=True)
class Gate:
    """One gate: a kind, the qubits it touches, and control polarities.

    qubits layout per kind: H/X -> (qubit,); CNOT -> (control, target);
    SWAP -> (a, b); MCX -> (*controls, target) with polarities aligned to the
    controls. Use the factory functions below rather than the constructor.
    """

    kind: str
    qubits: tuple[int, ...]
    polarities: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.kind not in _GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity = {"H": 1, "X": 1, "CNOT": 2, "SWAP": 2}.get(self.kind)
        if arity is not None and len(self.qubits) != arity:
            raise ValueError(f"{self.kind} takes {arity} qubit(s), got {self.qubits}")
        if self.kind == "MCX":
            if len(self.qubits) < 1:
                raise ValueError("MCX needs a target qubit")
            if len(self.polarities) != len(self.qubits) - 1:
                raise ValueError("one polarity per control is required")
            bad = [p for p in self.polarities if p not in (OPEN, CLOSED)]
            if bad:
                raise ValueError(f"unknown control polarity {bad[0]!r}")
        elif self.polarities:
            raise ValueError(f"{self.kind} takes no polarities")
        if any(q < 0 for q in self.qubits):
            raise ValueError(f"negative qubit index in {self.qubits}")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"repeated qubit index in {self.qubits}")

    @property
    def target(self) -> int:
        if self.kind in ("CNOT", "MCX"):
            return self.qubits[-1]
        raise AttributeError(f"{self.kind} has no target")

    @property
    def controls(self) -> tuple[tuple[int, str], ...]:
        if self.kind == "CNOT":
            return ((self.qubits[0], CLOSED),)
        if self.kind == "MCX":
            return tuple(zip(self.qubits[:-1], self.polarities))
        raise AttributeError(f"{self.kind} has no controls")


def h(qubit: int) -> Gate:
    return Gate("H", (qubit,))


def x(qubit: int) -> Gate:
    return Gate("X", (qubit,))


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


def swap(a: int, b: int) -> Gate:
    return Gate("SWAP", (a, b))


def mcx(controls, target: int) -> Gate:
    """Multi-controlled X from (qubit, polarity) pairs onto a target qubit."""
    pairs = tuple((int(q), p) for q, p in controls)
    return Gate("MCX", tuple(q for q, _ in pairs) + (target,), tuple(p for _, p in pairs))


@dataclass(frozen=True, eq=False)
class Statevector:
    """Unit-norm amplitudes over 2**n_qubits little-endian indices.

    Real input is stored as float64, complex input as complex128.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes)
        amps = amps.astype(np.complex128 if np.iscomplexobj(amps) else np.float64, copy=False)
        if amps.ndim != 1 or amps.size != 1 << self.n_qubits:
            raise ValueError(
                f"expected 2**{self.n_qubits} amplitudes, got shape {amps.shape}"
            )
        norm = np.linalg.norm(amps)
        # written so that a NaN norm fails the check
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise NormalizationError(f"state norm {norm} is not 1")
        object.__setattr__(self, "amplitudes", amps)


def basis_state(n_qubits: int, index: int = 0) -> Statevector:
    """The computational basis state |index> on n_qubits qubits."""
    if not 0 <= index < (1 << n_qubits):
        raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
    amps = np.zeros(1 << n_qubits)
    amps[index] = 1.0
    return Statevector(n_qubits, amps)


def _check_gate_fits(gate: Gate, n_qubits: int) -> None:
    high = max(gate.qubits)
    if high >= n_qubits:
        raise ValueError(f"gate {gate.kind} touches qubit {high}, state has {n_qubits}")


def _apply_inplace(amps: np.ndarray, gate: Gate) -> None:
    if gate.kind == "H":
        q = gate.qubits[0]
        view = amps.reshape(-1, 2, 1 << q)
        top = view[:, 0, :].copy()
        bottom = view[:, 1, :].copy()
        view[:, 0, :] = (top + bottom) * _RSQRT2
        view[:, 1, :] = (top - bottom) * _RSQRT2
        return
    idx = np.arange(amps.size)
    if gate.kind == "X":
        source = idx ^ (1 << gate.qubits[0])
    elif gate.kind == "SWAP":
        a, b = gate.qubits
        differ = ((idx >> a) & 1) != ((idx >> b) & 1)
        source = np.where(differ, idx ^ ((1 << a) | (1 << b)), idx)
    else:  # CNOT or MCX: flip target where the control predicate holds
        fire = np.ones(amps.size, dtype=bool)
        for q, polarity in gate.controls:
            bit = (idx >> q) & 1
            fire &= (bit == 1) if polarity == CLOSED else (bit == 0)
        source = np.where(fire, idx ^ (1 << gate.target), idx)
    amps[:] = amps[source]


def apply_gate(state: Statevector, gate: Gate) -> Statevector:
    """Apply one gate, returning a new state; the input is untouched."""
    _check_gate_fits(gate, state.n_qubits)
    amps = state.amplitudes.copy()
    _apply_inplace(amps, gate)
    return Statevector(state.n_qubits, amps)


def _runs(gates):
    """Split a gate list into maximal layers, in order.

    A layer is a run of H gates on distinct qubits, a run of X/CNOT/SWAP
    gates, or a single MCX. Distinct qubits bound the growth of the unscaled
    butterflies to 2**(n/2) before the run is scaled.
    """
    run: list[Gate] = []
    for gate in gates:
        if run and run[0].kind == "H":
            joins = gate.kind == "H" and all(g.qubits != gate.qubits for g in run)
        else:
            joins = bool(run) and run[0].kind in _PERMUTATION_KINDS and gate.kind in _PERMUTATION_KINDS
        if not joins and run:
            yield run
            run = []
        run.append(gate)
    if run:
        yield run


def _source_index(run: list[Gate], n_qubits: int) -> np.ndarray:
    """Gather index of a run of X/CNOT/SWAP gates: out[j] = in[source[j]].

    Every gate is an affine involution of the index bits, so the source map
    j -> g1(g2(...gk(j))) is affine over GF(2): source(j) = A j ^ c. It is
    held as its action on index 0 (c) and on the unit indices (the columns
    of A), which composing one more gate on the right updates in O(1), and
    materialised as the XOR of a table over the high index bits (offset by
    c) and one over the low bits.
    """
    offset = 0
    columns = [1 << b for b in range(n_qubits)]
    for gate in run:
        if gate.kind == "X":
            offset ^= columns[gate.qubits[0]]
        elif gate.kind == "CNOT":
            control, target = gate.qubits
            columns[control] ^= columns[target]
        else:
            a, b = gate.qubits
            columns[a], columns[b] = columns[b], columns[a]

    def span(cols, base):
        table = np.array([base], dtype=np.intp)
        for col in cols:
            table = np.concatenate([table, table ^ col])
        return table

    low = n_qubits // 2
    return (span(columns[low:], offset)[:, None] ^ span(columns[:low], 0)[None, :]).ravel()


def _swap_subviews(amps: np.ndarray, gate: Gate, n_qubits: int) -> None:
    """Apply one X, CNOT, SWAP or MCX by exchanging two sub-views in place."""
    first = [slice(None)] * n_qubits
    if gate.kind == "SWAP":
        a, b = gate.qubits
        settings = [(a, 0, 1), (b, 1, 0)]
    else:
        controls = () if gate.kind == "X" else gate.controls
        settings = [(q, int(p == CLOSED), int(p == CLOSED)) for q, p in controls]
        settings.append((gate.qubits[-1], 0, 1))
    second = list(first)
    for q, a, b in settings:
        # the qubit-q axis of the reshaped view is axis n-1-q
        first[n_qubits - 1 - q] = a
        second[n_qubits - 1 - q] = b
    view = amps.reshape((2,) * n_qubits)
    # the trailing Ellipsis keeps a view even when every axis is fixed
    lo, hi = view[(*first, ...)], view[(*second, ...)]
    held = lo.copy()
    lo[...] = hi
    hi[...] = held


def run_circuit(state: Statevector, circuit) -> Statevector:
    """Apply a circuit's gates in order, one pass per compiled layer."""
    n = state.n_qubits
    if circuit.n_qubits != n:
        raise ValueError(f"circuit on {circuit.n_qubits} qubits, state on {n}")
    amps = state.amplitudes.copy()
    spare = None
    for run in _runs(circuit.gates):
        if run[0].kind == "H":
            _fwht_inplace(amps, [g.qubits[0] for g in run])
            amps *= 2.0 ** (-len(run) / 2)
        elif len(run) == 1:
            _swap_subviews(amps, run[0], n)
        else:
            if spare is None:
                spare = np.empty_like(amps)
            np.take(amps, _source_index(run, n), out=spare)
            amps, spare = spare, amps
    return Statevector(n, amps)


def amplitude_encode(signal) -> tuple[Statevector, float]:
    """Normalize a signal into state amplitudes; returns (state, scale).

    scale is the signal's 2-norm, kept so callers can restore physical units
    after measurement-style projections. Ancilla prepending is the caller's
    job: a 2**n-sample signal encodes into exactly n qubits.
    """
    signal, n = time_signal(signal)
    # the norm is taken in binary units of the peak, so huge or tiny samples
    # neither overflow nor underflow it; a NaN or inf sample makes the peak
    # non-finite
    peak = float(np.max(np.abs(signal.values)))
    if not math.isfinite(peak):
        raise NormalizationError("cannot amplitude-encode non-finite samples")
    if peak == 0.0:
        raise NormalizationError("cannot amplitude-encode an all-zero signal")
    unit = binary_unit(peak)
    scaled = signal.values / unit
    norm = float(np.linalg.norm(scaled))
    scale = unit * norm
    if not math.isfinite(scale):
        raise NormalizationError("signal norm overflows float64")
    scaled /= norm
    return Statevector(n, scaled), scale


def project_ancilla(state: Statevector, qubit: int, outcome: int) -> tuple[np.ndarray, float]:
    """Sub-vector of amplitudes whose given qubit equals outcome, unnormalized.

    Returns (branch, probability) where probability is the branch's squared
    norm; the two outcomes' probabilities sum to 1. Renormalizing is left to
    the caller on purpose, so branch amplitudes stay directly comparable to
    classically computed components.
    """
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"qubit {qubit} out of range for {state.n_qubits}")
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    branch = state.amplitudes.reshape(-1, 2, 1 << qubit)[:, outcome, :].flatten()
    probability = float(np.vdot(branch, branch).real)
    return branch, probability
