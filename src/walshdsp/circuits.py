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
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from walshdsp.simulator import CLOSED, OPEN, Gate, cnot, h, mcx, swap, x


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list on a fixed number of qubits."""

    n_qubits: int
    gates: tuple[Gate, ...]
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for gate in self.gates:
            if max(gate.qubits) >= self.n_qubits:
                raise ValueError(
                    f"gate {gate.kind} on {gate.qubits} exceeds {self.n_qubits} qubits"
                )


@dataclass(frozen=True)
class GateStats:
    """Per-kind gate counts, MCX control arities, and greedy depth."""

    counts: dict[str, int]
    mcx_arities: tuple[int, ...]
    depth: int
    total: int

    def as_dict(self) -> dict:
        return {
            "counts": dict(self.counts),
            "mcx_arities": list(self.mcx_arities),
            "depth": self.depth,
            "total": self.total,
        }


def build_uz(n: int) -> Circuit:
    """Basis permutation circuit sending |s> to |sequency_of(s, n)>.

    n-1 CNOTs accumulate prefix XORs up the register, then floor(n/2) SWAPs
    reverse the qubit order so the prefix of the low bits lands in the high
    position. n=1 needs no gates.
    """
    if n < 1:
        raise ValueError(f"need at least 1 qubit, got {n}")
    gates = [cnot(k - 1, k) for k in range(1, n)]
    gates += [swap(j, n - 1 - j) for j in range(n // 2)]
    return Circuit(n, tuple(gates), f"uz(n={n})")


def build_uz_inverse(n: int) -> Circuit:
    """Reversed gate list of build_uz; every gate is its own inverse."""
    gates = tuple(reversed(build_uz(n).gates))
    return Circuit(n, gates, f"uz-inverse(n={n})")


def build_sequency_wht(n: int) -> Circuit:
    """H on every qubit, then the sequency reordering."""
    gates = tuple(h(q) for q in range(n)) + build_uz(n).gates
    return Circuit(n, gates, f"sequency-wht(n={n})")


def _normalize_intervals(intervals, size: int) -> list[tuple[int, int]]:
    """Sort, bound-check and merge touching intervals; reject overlaps."""
    cleaned = []
    for lo, hi in intervals:
        lo, hi = int(lo), int(hi)
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


def _dyadic_blocks(lo: int, hi: int, n: int) -> list[tuple[int, int]]:
    """Greedy maximal dyadic cover of [lo, hi) as (start, t) with size 2**t."""
    blocks = []
    cur = lo
    while cur < hi:
        align = n if cur == 0 else (cur & -cur).bit_length() - 1
        t = min(align, (hi - cur).bit_length() - 1)
        blocks.append((cur, t))
        cur += 1 << t
    return blocks


def _count_blocks(intervals, size: int, n: int) -> int:
    merged = _normalize_intervals(intervals, size)
    return sum(len(_dyadic_blocks(lo, hi, n)) for lo, hi in merged)


def build_sequency_selector(n: int, band) -> Circuit:
    """Ancilla-flip stage on n+1 qubits for a union of index intervals.

    band is an iterable of half-open [lo, hi) intervals within [0, 2**n);
    touching intervals merge, overlapping ones are rejected. Each maximal
    dyadic block [m*2^t, (m+1)*2^t) becomes one multi-controlled X targeting
    the ancilla (qubit n) with controls on data qubits t..n-1; the control on
    qubit i is closed where bit i-t of m is 1 and open where it is 0. A
    one-block band of size 2**(n-r) therefore costs a single r-control gate.
    """
    if n < 1:
        raise ValueError(f"need at least 1 data qubit, got {n}")
    size = 1 << n
    merged = _normalize_intervals(band, size)
    gates = []
    for lo, hi in merged:
        for start, t in _dyadic_blocks(lo, hi, n):
            m = start >> t
            controls = [
                (q, CLOSED if (m >> (q - t)) & 1 else OPEN)
                for q in range(n - 1, t - 1, -1)
            ]
            gates.append(mcx(controls, n))
    spans = ",".join(f"[{lo}:{hi})" for lo, hi in merged)
    return Circuit(n + 1, tuple(gates), f"selector(n={n}, band={spans})")


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
    where it is checked against the size.
    """
    if n < 1:
        raise ValueError(f"need at least 1 data qubit, got {n}")
    size = 1 << n
    spec.validate_for(size)
    pass_ivs = spec.pass_intervals(size)
    stop_ivs = spec.stop_intervals(size)
    if spec.kind == "dc":
        # index 0 is a fixed point of the reordering, so the permutation
        # stages cancel and the cheap no-X form needs just one selector gate
        fire_pass = False
        uz: tuple[Gate, ...] = ()
    else:
        uz = build_uz(n).gates
        pass_blocks = _count_blocks(pass_ivs, size, n)
        stop_blocks = _count_blocks(stop_ivs, size, n)
        if spec.kind == "band":
            fire_pass = pass_blocks < stop_blocks
        else:
            fire_pass = pass_blocks <= stop_blocks
    x_front = fire_pass != bool(swapped)
    fired = pass_ivs if fire_pass else stop_ivs

    gates: list[Gate] = [x(n)] if x_front else []
    gates += [h(q) for q in range(n)]
    gates += uz
    gates += build_sequency_selector(n, fired).gates
    # every uz gate is its own inverse
    gates += reversed(uz)
    gates += [h(q) for q in range(n)]

    tag = ", swapped" if swapped else ""
    label = f"filter({spec.describe()}, n={n}{tag})"
    return Circuit(n + 1, tuple(gates), label)


def gate_stats(circuit: Circuit) -> GateStats:
    """Per-kind counts, MCX arity multiset, and greedy qubit-disjoint depth.

    Depth places each gate in the earliest layer where all its qubits are
    free, the standard conservative layering.
    """
    counts = {kind: 0 for kind in ("H", "X", "CNOT", "SWAP", "MCX")}
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
    return GateStats(counts, tuple(sorted(arities)), depth, len(circuit.gates))


def _gate_record(gate: Gate) -> dict:
    if gate.kind in ("H", "X"):
        return {"kind": gate.kind, "qubit": gate.qubits[0]}
    if gate.kind == "CNOT":
        return {"kind": "CNOT", "control": gate.qubits[0], "target": gate.qubits[1]}
    if gate.kind == "SWAP":
        return {"kind": "SWAP", "a": gate.qubits[0], "b": gate.qubits[1]}
    controls = [{"qubit": q, "polarity": p} for q, p in gate.controls]
    return {"kind": "MCX", "controls": controls, "target": gate.target}


def _gate_from_record(rec: dict) -> Gate:
    kind = rec["kind"]
    if kind == "H":
        return h(rec["qubit"])
    if kind == "X":
        return x(rec["qubit"])
    if kind == "CNOT":
        return cnot(rec["control"], rec["target"])
    if kind == "SWAP":
        return swap(rec["a"], rec["b"])
    if kind == "MCX":
        controls = [(c["qubit"], c["polarity"]) for c in rec["controls"]]
        return mcx(controls, rec["target"])
    raise ValueError(f"unknown gate kind {kind!r}")


def circuit_to_dict(circuit: Circuit) -> dict:
    """Stable JSON-ready description; see the README for the field reference."""
    return {
        "format": "walshdsp-circuit",
        "version": 1,
        "label": circuit.label,
        "n_qubits": circuit.n_qubits,
        "gates": [_gate_record(g) for g in circuit.gates],
    }


def circuit_from_dict(data: dict) -> Circuit:
    if data.get("format") != "walshdsp-circuit":
        raise ValueError("not a walshdsp circuit description")
    gates = tuple(_gate_from_record(rec) for rec in data["gates"])
    return Circuit(int(data["n_qubits"]), gates, str(data.get("label", "")))


def circuit_to_json(circuit: Circuit) -> str:
    return json.dumps(circuit_to_dict(circuit), indent=2) + "\n"


def circuit_from_json(text: str) -> Circuit:
    return circuit_from_dict(json.loads(text))
