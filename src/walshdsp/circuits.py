"""Circuit builders for the sequency transform and the filtering pipeline.

The index-permutation circuit (here called uz, after its role as the
sequency-reordering unitary) is a chain of CNOTs computing running XORs from
the least significant qubit upward, followed by a full qubit reversal done
with floor(n/2) SWAPs. On a basis state |s> it produces |sequency_of(s)>.
Putting H on every qubit first yields the sequency-ordered Walsh-Hadamard
transform circuit.

Filtering adds one ancilla on top (qubit n, the most significant bit). A
selector stage flips the ancilla on exactly the sequency indices of a chosen
index set, realized by decomposing the set into maximal dyadic blocks
[m*2^t, (m+1)*2^t); each block costs one multi-controlled X on the top n-t
data qubits whose polarities read off the bits of m. The full filter circuit
conjugates the selector with the sequency transform so the ancilla tags pass
and stop components in the time domain.

Two equivalent selector conventions exist: lead with an X on the ancilla and
fire on the pass set, or skip the X and fire on the stop set. Either way the
ancilla reads 0 exactly on the pass component. The builder fires on whichever
set decomposes into strictly fewer dyadic blocks, breaking ties toward the
X-plus-pass-set form for low/high filters and toward the no-X form for
band-pass; DC removal always uses the no-X form and drops the permutation
stages entirely, since index 0 is a fixed point of the reordering.

Every builder checks its inputs on every call (check_bits for n, the
intervals or the spec's validate_for) and then builds trusted: its gates
and its Circuit come from simulator._trusted, which runs neither
Gate.__post_init__ nor check_register, since they are made from the checked
n alone. The H and uz gates are shared per size, the selector's qubit
tuples too; the selector's MCX gates are made on every call. Gate(...),
Circuit(...) and circuit_from_json keep every check, and a circuit rebuilt
through them equals the one built here.

gate_stats counts each gate once, an MCX included, and its depth places an
MCX in one layer like any other gate; mcx_controls, the sum of the MCX
arities, is what grows with the selector's cost.
"""

from __future__ import annotations

__all__ = ["Circuit", "GateStats", "build_filter_circuit", "build_sequency_selector", "build_sequency_wht",
           "build_uz", "build_uz_inverse", "circuit_from_dict", "circuit_from_json", "circuit_to_dict",
           "circuit_to_json", "gate_stats"]

import json
from dataclasses import asdict, dataclass
from functools import lru_cache
from operator import index

from walshdsp.simulator import (
    CLOSED, GATE_KINDS, GATE_OPERANDS, OPEN, Gate, _trusted, check_qubit_count, check_register, cnot, h, swap, x,
)
from walshdsp.transforms import check_bits, check_int

_POLARITY_OF_BIT = {"0": OPEN, "1": CLOSED}


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list on a fixed number of qubits, with a string label."""

    n_qubits: int
    gates: tuple[Gate, ...]
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.label, str):
            raise ValueError(f"label must be a string, got {self.label!r}")
        object.__setattr__(self, "n_qubits", check_qubit_count(self.n_qubits))
        object.__setattr__(self, "gates", tuple(self.gates))
        check_register(self.gates, self.n_qubits)


@dataclass(frozen=True)
class GateStats:
    """Per-kind gate counts, MCX control arities, greedy depth, the gate
    total and the MCX control total (the sum of mcx_arities)."""

    counts: dict[str, int]
    mcx_arities: tuple[int, ...]
    depth: int
    total: int
    mcx_controls: int

    def as_dict(self) -> dict:
        return {**asdict(self), "mcx_arities": list(self.mcx_arities)}


# each size's gates are built and checked once and shared as immutable
# tuples; callers pass the int that check_bits returns, so a bad n raises
# before the cache is read, on every call
_SIZES_CACHED = 64


@lru_cache(maxsize=_SIZES_CACHED)
def _h_layer(n: int) -> tuple[Gate, ...]:
    """H on qubits 0..n-1."""
    return tuple(map(h, range(n)))


@lru_cache(maxsize=_SIZES_CACHED)
def _uz_gates(n: int) -> tuple[Gate, ...]:
    """The uz gates on qubits 0..n-1: n-1 CNOTs, then floor(n/2) SWAPs."""
    return tuple([cnot(k - 1, k) for k in range(1, n)] + [swap(j, n - 1 - j) for j in range(n // 2)])


def build_uz(n: int) -> Circuit:
    """Basis permutation circuit sending |s> to |sequency_of(s, n)>.

    n-1 CNOTs accumulate prefix XORs up the register, then floor(n/2) SWAPs
    reverse the qubit order so the prefix of the low bits lands in the high
    position. n=1 needs no gates.
    """
    n = check_bits(n)
    return _trusted(Circuit, n_qubits=n, gates=_uz_gates(n), label=f"uz(n={n})")


def build_uz_inverse(n: int) -> Circuit:
    """Reversed gate list of build_uz; every gate is its own inverse."""
    n = check_bits(n)
    return _trusted(Circuit, n_qubits=n, gates=_uz_gates(n)[::-1], label=f"uz-inverse(n={n})")


def build_sequency_wht(n: int) -> Circuit:
    """H on every qubit, then the sequency reordering."""
    n = check_bits(n)
    return _trusted(Circuit, n_qubits=n, gates=_h_layer(n) + _uz_gates(n), label=f"sequency-wht(n={n})")


def _normalize_intervals(intervals, size: int) -> list[tuple[int, int]]:
    """Sort, bound-check and merge touching intervals; reject overlaps."""
    cleaned = []
    for lo, hi in intervals:
        lo, hi = check_int(lo, "interval bound"), check_int(hi, "interval bound")
        if not 0 <= lo < hi <= size:
            raise ValueError(f"interval [{lo}, {hi}) out of range for size {size}")
        cleaned.append((lo, hi))
    cleaned.sort()
    merged: list[tuple[int, int]] = []
    for lo, hi in cleaned:
        if merged and lo < merged[-1][1]:
            raise ValueError(f"interval [{lo}, {hi}) overlaps [{merged[-1][0]}, {merged[-1][1]})")
        if merged and lo == merged[-1][1]:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


def _dyadic_blocks(merged, n: int) -> list[tuple[int, int]]:
    """Greedy maximal dyadic cover of merged intervals as (start, t) with size 2**t."""
    blocks = []
    for lo, hi in merged:
        cur = lo
        while cur < hi:
            # the largest block that fits, unless cur is aligned only to a smaller one
            t = (hi - cur).bit_length() - 1
            if cur & ((1 << t) - 1):
                t = (cur & -cur).bit_length() - 1
            blocks.append((cur, t))
            cur += 1 << t
    return blocks


@lru_cache(maxsize=_SIZES_CACHED)
def _selector_qubits(n: int) -> tuple[tuple[int, ...], ...]:
    """Entry t: a selector MCX's qubits for a block of 2**t, data qubits n-1
    down to t, then the ancilla."""
    return tuple((*range(n - 1, t - 1, -1), n) for t in range(n + 1))


def _selector_gates(blocks, n: int) -> tuple[Gate, ...]:
    """One MCX on the ancilla per dyadic block, controlled by its high bits:
    data qubits n-1 down to t, then the ancilla. Built trusted: the blocks
    lie within [0, 2**n) for a checked n."""
    qubits = _selector_qubits(n)
    gates = []
    for start, t in blocks:
        # the n - t bits of m = start >> t, high to low, under a leading 1
        bits = bin(start >> t | 1 << (n - t))[3:]
        gates.append(_trusted(Gate, kind="MCX", qubits=qubits[t],
                              polarities=tuple(map(_POLARITY_OF_BIT.__getitem__, bits))))
    return tuple(gates)


def build_sequency_selector(n: int, band) -> Circuit:
    """Ancilla-flip stage on n+1 qubits for a union of index intervals.

    band is an iterable of half-open [lo, hi) intervals within [0, 2**n);
    touching intervals merge, overlapping ones are rejected. Each maximal
    dyadic block [m*2^t, (m+1)*2^t) becomes one multi-controlled X targeting
    the ancilla (qubit n) with controls on data qubits t..n-1; the control on
    qubit i is closed where bit i-t of m is 1 and open where it is 0. A
    one-block band of size 2**(n-r) therefore costs a single r-control gate.
    """
    merged = _normalize_intervals(band, 1 << check_bits(n))
    gates = _selector_gates(_dyadic_blocks(merged, n), n)
    spans = ",".join(f"[{lo}:{hi})" for lo, hi in merged)
    return _trusted(Circuit, n_qubits=n + 1, gates=gates, label=f"selector(n={n}, band={spans})")


def build_filter_circuit(n: int, spec, *, swapped: bool = False) -> Circuit:
    """Full filtering circuit on n data qubits plus the ancilla (qubit n).

    Stages: optional X on the ancilla, H on every data qubit, the sequency
    reordering, the ancilla selector, then the reordering inverse and the
    closing H layer. Under the default convention the ancilla reads 0 on the
    pass component and 1 on the stop component; swapped=True toggles the
    leading X so the roles exchange. The X, when present, is always gate 0
    and the only X in the circuit.

    spec is a filter description exposing kind, validate_for, pass_intervals,
    stop_intervals and describe (see walshdsp.filters.FilterSpec); this is
    where it is checked against the size. Once validate_for(2**n) passes, the
    builder takes both interval lists as given: integer, sorted, disjoint and
    not touching, within [0, 2**n).
    """
    n = check_bits(n)
    size = 1 << n
    spec.validate_for(size)
    pass_blocks = _dyadic_blocks(spec.pass_intervals(size), n)
    stop_blocks = _dyadic_blocks(spec.stop_intervals(size), n)
    if spec.kind == "dc":
        # index 0 is a fixed point of the reordering, so the permutation
        # stages cancel and the cheap no-X form needs just one selector gate
        fire_pass = False
        uz: tuple[Gate, ...] = ()
    else:
        uz = _uz_gates(n)
        if spec.kind == "band":
            fire_pass = len(pass_blocks) < len(stop_blocks)
        else:
            fire_pass = len(pass_blocks) <= len(stop_blocks)
    x_front = (x(n),) if fire_pass != bool(swapped) else ()
    selector = _selector_gates(pass_blocks if fire_pass else stop_blocks, n)
    h_layer = _h_layer(n)
    # every uz gate is its own inverse
    gates = x_front + h_layer + uz + selector + uz[::-1] + h_layer

    tag = ", swapped" if swapped else ""
    label = f"filter({spec.describe()}, n={n}{tag})"
    return _trusted(Circuit, n_qubits=n + 1, gates=gates, label=label)


def gate_stats(circuit: Circuit) -> GateStats:
    """Per-kind counts, MCX arity multiset, greedy qubit-disjoint depth, and
    the MCX control total.

    Depth places each gate in the earliest layer where all its qubits are
    free, the standard conservative layering; an MCX is one gate in one
    layer, whatever its arity. The control total is the sum of the MCX
    arities: an m-control Toffoli costs Theta(m) one- and two-qubit gates
    with one borrowed qubit (Barenco et al., Phys. Rev. A 52, 3457 (1995),
    section 7), so it tracks the selector's elementary cost, which depth and
    total do not.
    """
    counts = dict.fromkeys(GATE_KINDS, 0)
    arities = []
    level = [0] * circuit.n_qubits
    depth = 0
    for gate in circuit.gates:
        counts[gate.kind] += 1
        if gate.kind == "MCX":
            arities.append(len(gate.qubits) - 1)
        layer = 1 + max(level[q] for q in gate.qubits)
        for q in gate.qubits:
            level[q] = layer
        depth = max(depth, layer)
    return GateStats(counts, tuple(sorted(arities)), depth, len(circuit.gates), sum(arities))


def _gate_record(gate: Gate) -> dict:
    # operator.index writes a numpy integer index as a plain int
    if gate.kind == "MCX":
        values = ([{"qubit": index(q), "polarity": p} for q, p in gate.controls], index(gate.target))
    else:
        values = [index(q) for q in gate.qubits]
    return {"kind": gate.kind, **dict(zip(GATE_OPERANDS[gate.kind], values))}


def _field(record, name: str, what: str):
    """record[name]; ValueError naming what is malformed or missing."""
    if not isinstance(record, dict):
        raise ValueError(f"{what} must be an object, got {record!r}")
    if name not in record:
        raise ValueError(f"{what} has no {name!r} field")
    return record[name]


def _records(value, what: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def _json_int(value, what: str) -> int:
    # JSON true and false are not numbers, though Python's bool is an int
    if isinstance(value, bool):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return check_int(value, what)


def _gate_from_record(rec) -> Gate:
    # an unknown kind has no fields here and gets Gate's own message
    kind, polarities = _field(rec, "kind", "gate record"), ()
    if not isinstance(kind, str):
        raise ValueError(f"unknown gate kind {kind!r}")
    values = [_field(rec, name, f"{kind} gate record") for name in GATE_OPERANDS.get(kind, ())]
    if kind == "MCX":
        controls, target = _records(values[0], "MCX controls"), values[1]
        values = [_field(c, "qubit", "MCX control") for c in controls] + [target]
        polarities = tuple(_field(c, "polarity", "MCX control") for c in controls)
    return Gate(kind, tuple(_json_int(q, "qubit index") for q in values), polarities)


def circuit_to_dict(circuit: Circuit) -> dict:
    """Stable JSON-ready description; gate fields are named by simulator.GATE_OPERANDS."""
    return {
        "format": "walshdsp-circuit",
        "version": 1,
        "label": circuit.label,
        "n_qubits": index(circuit.n_qubits),
        "gates": [_gate_record(g) for g in circuit.gates],
    }


def circuit_from_dict(data: dict) -> Circuit:
    """Inverse of circuit_to_dict; qubit indices and n_qubits must be integral,
    and true and false are not integers."""
    if not isinstance(data, dict) or data.get("format") != "walshdsp-circuit":
        raise ValueError("not a walshdsp circuit description")
    version = data.get("version")
    if isinstance(version, bool) or version != 1:
        raise ValueError(f"unsupported circuit description version {version!r}")
    records = _records(_field(data, "gates", "circuit description"), "gates")
    gates = tuple(_gate_from_record(rec) for rec in records)
    n_qubits = _json_int(_field(data, "n_qubits", "circuit description"), "n_qubits")
    return Circuit(n_qubits, gates, data.get("label", ""))


def circuit_to_json(circuit: Circuit) -> str:
    return json.dumps(circuit_to_dict(circuit), indent=2) + "\n"


def circuit_from_json(text: str) -> Circuit:
    return circuit_from_dict(json.loads(text))
