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

run_circuit is two parts, after the plan/execute split of FFTW (Frigo &
Johnson, Proc. IEEE 93(2), 2005). _compile walks the gate list once, reads
no amplitude, and returns a tuple of plain layer records; one loop then
executes them, moving the amplitudes only where it must:

* ("h", plan): a run of H gates on k distinct qubits is one pass of the
  package's Hadamard kernel, transforms._hadamard_blocks (Good's interaction
  algorithm), on the block plan transforms._hadamard_plan made for it: one
  matmul per block of consecutive qubits into a spare buffer, with the
  unitary scale 2**(-k/2) folded into the last block;
* ("gather", columns): CNOT/SWAP gates are a GF(2)-linear map of the basis
  indices. They make no record of their own: _compile composes them into a
  pending map on the circuit's n qubits, which relabels the index bits
  (Haener & Steiger, SC17). The map is materialised only before an H run,
  before an X or MCX run it does not carry (below), and at the end: as one
  gather through a transforms.gf2_index array over the blocks' own bits,
  and not at all when it has come back to the identity, as uz followed by
  its inverse does;
* ("cubes", cubes): an X or MCX gate (an X is an MCX with no controls)
  swaps the two halves of the sub-cube where its controls hold, read
  through the pending map: when the map fixes the target and sends that
  sub-cube onto the storage sub-cube of some fixed bits, as uz does for
  every selector gate, the gate is two exact copies: a strided view of the
  amplitudes into the spare buffer with the target's axis reversed, and
  back; otherwise the map is materialised before the gate's run. The map's columns are taken once
  per run, and the views' layout, all but the fixed bits the polarities
  pick, is cached per map and qubit tuple, so a filter's selector gates of
  one block size, whose qubit tuples are equal, share it;
* ("split", (known, cubes)), ("join", known) and ("end", known): a state
  narrower than the circuit has its qubits above it in |0>, and they are
  kept as known bits: the amplitudes are those of the block the bits pick,
  an X on one flips its bit in _compile and moves nothing, and the layers
  below them run on the block and a spare of its size. The first other
  layer that touches one joins the state into the circuit's width: the
  block is written where the bits put it in a fresh state, the rest zeroed.
  Where that layer is an MCX run on the one known qubit of a state one
  qubit narrower than the circuit (a filter's selector on the ancilla), the
  state is split on that qubit instead: after the selector a filter circuit
  acts on the data qubits alone, so the two halves evolve apart (deferred
  measurement). The block and its spare, zero-filled, are the two halves'
  blocks, and the halves of a fresh output their spares. Each gate of an
  MCX run on that qubit lays its sub-cube over the n bits and swaps it
  between the blocks with _swap, three exact copies through a scratch
  buffer; every layer below it runs on each block in turn, so with an odd
  number of Hadamard blocks (n = 17..20 data qubits) the last H layer
  writes the output directly. Any other layer on the qubit, and the end,
  joins the halves: each block is copied into its half of the output unless
  it is there already. The pending map's columns for the known qubits stay
  the identity, so a join mid-circuit carries it on as it is; the end
  gathers it per block first, which a filter circuit, its map back at the
  identity, never does. Only blocks of at least _ALIGN_FLOOR bytes (2**14
  float64 amplitudes) split: smaller buffers come from the heap and take no
  first-touch faults, and two kernel calls per H layer cost more than they
  save. Since the split depends on the state's width and amplitude size,
  _compile takes both.

The records hold only ints, slices, tuples and lists of them, and the
kernel's read-only sign matrices, so each layer's support and work can be
read off them without running it. Nothing is cached per circuit: a filter call compiles
its own.

The input rule is the one transforms states: a read-only array belongs to
the caller and is never written. run_circuit views the caller's amplitudes
read-only once, and each step that would write a block reads that flag: on
a read-only block the H kernel writes a buffer of its own, a gather takes a
fresh free buffer in the block's place, and an X or MCX run, the split and
the end copy the block first.

Trusted construction: _trusted makes a Gate, Circuit or Statevector without
running its checks. Only the package's own builders use it, for values they
have just made from checked ones: the circuit builders' gates and circuits,
on a bit width check_bits (and a spec's validate_for) passed on that call,
and amplitude_encode's state, which it has just divided by its own norm.
The public constructors Gate(...), Circuit(...) and Statevector(...), the
gate factories, circuit_from_json and run_circuit's output keep every check.

The layers come from the gate list alone. apply_gate keeps the per-gate
index-array kernel as the slow reference the compiled path is tested
against: an H is a reshape, a SWAP or an X, CNOT or MCX (flip the target
where every control holds) one gather; it pads a narrower state with |0>
qubits explicitly. The H kernel is shared with the classical transforms,
so the tests and verify check it against this gate fold and the sequency
matrix.
"""

from __future__ import annotations

__all__ = ["CLOSED", "OPEN", "Gate", "NormalizationError", "Statevector", "amplitude_encode", "apply_gate",
           "basis_state", "cnot", "h", "mcx", "project_ancilla", "run_circuit", "swap", "x"]

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain, groupby
from operator import attrgetter, index, or_, xor

import numpy as np

from walshdsp.transforms import (_ALIGN_FLOOR, _empty, _hadamard_blocks, _hadamard_plan, _read_only, check_index,
                                 check_int, gf2_index, peak_units, time_signal)

OPEN = "open"
CLOSED = "closed"

# each kind's operand names, in Gate.qubits order; the circuit JSON field names
GATE_OPERANDS = {"H": ("qubit",), "X": ("qubit",), "CNOT": ("control", "target"),
                 "SWAP": ("a", "b"), "MCX": ("controls", "target")}
GATE_KINDS = tuple(GATE_OPERANDS)
_ARITY = {kind: len(names) for kind, names in GATE_OPERANDS.items() if kind != "MCX"}
_PERMUTATION_KINDS = ("CNOT", "SWAP")
_KIND, _QUBITS = attrgetter("kind"), attrgetter("qubits")
_NORM_TOL = 1e-10
_RSQRT2 = 1.0 / np.sqrt(2.0)


class NormalizationError(ValueError):
    """Raised when a signal cannot be scaled to a unit-norm state."""


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate: a kind, the qubits it touches, and control polarities.

    qubits holds the operands GATE_OPERANDS names for the kind, in order; an
    MCX's controls are spread out before its target, with one polarity each.
    A qubit index is an int or a numpy integer. Use the factory functions
    below rather than the constructor.
    """

    kind: str
    qubits: tuple[int, ...]
    polarities: tuple[str, ...] = ()

    def __post_init__(self):
        kind, qubits, polarities = self.kind, self.qubits, self.polarities
        # one pass of cheap checks; the messages are only built on failure
        if kind == "MCX":
            if not qubits:
                raise ValueError("MCX needs a target qubit")
            if len(polarities) != len(qubits) - 1:
                raise ValueError("one polarity per control is required")
            if polarities.count(OPEN) + polarities.count(CLOSED) != len(polarities):
                bad = next(p for p in polarities if p not in (OPEN, CLOSED))
                raise ValueError(f"unknown control polarity {bad!r}")
        elif len(qubits) != _ARITY.get(kind) or polarities:
            if kind not in GATE_KINDS:
                raise ValueError(f"unknown gate kind {kind!r}")
            if len(qubits) != _ARITY[kind]:
                raise ValueError(f"{kind} takes {_ARITY[kind]} qubit(s), got {qubits}")
            raise ValueError(f"{kind} takes no polarities")
        try:
            negative = min(map(index, qubits)) < 0
        except TypeError:
            bad = next(q for q in qubits if not hasattr(q, "__index__"))
            raise ValueError(f"qubit index must be an integer, got {bad!r}") from None
        if negative:
            raise ValueError(f"negative qubit index in {qubits}")
        if len(qubits) > 1 and len(set(qubits)) != len(qubits):
            raise ValueError(f"repeated qubit index in {qubits}")

    @property
    def target(self) -> int:
        # an X is an MCX with no controls
        if self.kind in ("X", "CNOT", "MCX"):
            return self.qubits[-1]
        raise AttributeError(f"{self.kind} has no target")

    @property
    def controls(self) -> tuple[tuple[int, str], ...]:
        if self.kind == "CNOT":
            return ((self.qubits[0], CLOSED),)
        if self.kind in ("X", "MCX"):
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
    pairs = tuple(controls)
    return Gate("MCX", tuple(q for q, _ in pairs) + (target,), tuple(p for _, p in pairs))


@dataclass(frozen=True, eq=False)
class Statevector:
    """Unit-norm amplitudes over 2**n_qubits little-endian indices.

    Real input is stored as float64, complex input as complex128.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = check_qubit_count(self.n_qubits)
        amps = np.asarray(self.amplitudes)
        amps = amps.astype(np.complex128 if amps.dtype.kind == "c" else np.float64, copy=False)
        if amps.ndim != 1 or amps.size != 1 << n:
            raise ValueError(
                f"expected 2**{self.n_qubits} amplitudes, got shape {amps.shape}"
            )
        # the 2-norm as np.linalg.norm takes it, without its dispatch
        norm = math.sqrt(np.vdot(amps, amps).real)
        # written so that a NaN norm fails the check
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise NormalizationError(f"state norm {norm} is not 1")
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "amplitudes", amps)


def _trusted(cls, **fields):
    """A cls instance with these field values, none of them checked: no
    __post_init__ runs.

    Only for values the package has just made from checked ones: the
    circuit builders' gates and circuits, on a bit width check_bits has
    passed, and amplitude_encode's state, which it has just divided by its
    norm. Gate(...), Circuit(...), circuit_from_json, Statevector(...) and
    run_circuit's output keep every check.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def basis_state(n_qubits: int, index: int = 0) -> Statevector:
    """The computational basis state |index> on n_qubits qubits."""
    n_qubits, index = check_qubit_count(n_qubits), check_index(index, "basis index")
    if not 0 <= index < (1 << n_qubits):
        raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
    amps = np.zeros(1 << n_qubits)
    amps[index] = 1.0
    return Statevector(n_qubits, amps)


def check_qubit_count(n_qubits) -> int:
    """n_qubits as an int if it is a register width (an integer, at least 0)."""
    n = check_index(n_qubits, "qubit count")
    if n < 0:
        raise ValueError(f"qubit count must be at least 0, got {n}")
    return n


def check_register(gates, n_qubits: int) -> None:
    """ValueError unless every gate's qubits lie below the register width."""
    if max(chain.from_iterable(map(_QUBITS, gates)), default=-1) >= n_qubits:
        gate = next(g for g in gates if max(g.qubits) >= n_qubits)
        raise ValueError(f"gate {gate.kind} on {gate.qubits} exceeds {n_qubits} qubits")


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
    if gate.kind == "SWAP":
        a, b = gate.qubits
        fire = (((idx >> a) ^ (idx >> b)) & 1) == 1
        flip = (1 << a) | (1 << b)
    else:  # X, CNOT or MCX: flip the target where every control holds
        fire = np.ones(amps.size, dtype=bool)
        for q, polarity in gate.controls:
            fire &= ((idx >> q) & 1) == (polarity == CLOSED)
        flip = 1 << gate.target
    amps[:] = amps[np.where(fire, idx ^ flip, idx)]


def apply_gate(state: Statevector, gate: Gate) -> Statevector:
    """Apply one gate, returning a new state; the input is untouched.

    A state narrower than the gate's highest qubit is first padded with |0>
    qubits on top, as run_circuit reads a state narrower than its circuit.
    """
    n = max(state.n_qubits, max(gate.qubits) + 1)
    amps = np.zeros(1 << n, state.amplitudes.dtype)
    amps[: state.amplitudes.size] = state.amplitudes
    _apply_inplace(amps, gate)
    return Statevector(n, amps)


def _runs(gates):
    """Split a gate list into layers, in order, as (kind, run) pairs.

    A layer is a run of gates of one kind, except that an H run holds
    distinct qubits and is given as the list of those qubits: that makes it
    one Kronecker product of Hadamard blocks.
    """
    for kind, group in groupby(gates, _KIND):
        if kind == "H":
            run = []
            for gate in group:
                if gate.qubits[0] in run:
                    yield kind, run
                    run = []
                run.append(gate.qubits[0])
            yield kind, run
        else:
            yield kind, list(group)


class _PendingMap:
    """CNOT/SWAP gates composed but not yet applied to the amplitudes.

    Every such gate is a linear involution of the index bits, so the run so
    far is linear over GF(2). The amplitude it would put at index j still
    sits at source(j) = A j; columns[b] = A e_b, and composing one more gate
    on the right is O(1). The map spans the circuit's n qubits: while the
    state is narrower, the columns from its width up stay the identity, as a
    CNOT or SWAP run on those qubits joins the state first.
    """

    def __init__(self, n_qubits: int):
        self.identity = [1 << b for b in range(n_qubits)]
        self.columns = list(self.identity)

    def compose(self, run: list[Gate]) -> None:
        """Compose a run of CNOT/SWAP gates on the right, in order."""
        columns = self.columns
        for gate in run:
            a, b = gate.qubits
            if gate.kind == "CNOT":  # a controls b
                columns[a] ^= columns[b]
            else:
                columns[a], columns[b] = columns[b], columns[a]

    def take(self, bits: int) -> tuple | None:
        """The map's columns over the low bits storage bits, the map left
        empty; None if it is the identity, which moves nothing."""
        if self.columns == self.identity:
            return None
        columns, self.columns = tuple(self.columns[:bits]), list(self.identity)
        return columns

    def cubes(self, run: list[Gate], bits: int) -> list | None:
        """Where each gate of an X or MCX run acts on the low bits storage
        bits, as (shape, at, flip); None if the map does not carry every gate.

        bits is the width of the storage the cubes are laid over: a block's
        width, or one more at a split, whose qubit then lies on axis 0. The
        columns over those bits are taken once per run.

        A gate swaps logical j and j ^ e_t on the sub-cube where its controls
        hold. The map sends that sub-cube to source(j0) ^ span(columns[q], q
        free), with j0 the index whose free qubits read 0 (t is free). The
        span is the storage sub-cube over the bits of U = OR(columns[q], q
        free) exactly when U has one bit per free qubit, and while columns[t]
        = e_t the gate pairs storage i with i ^ e_t. Then the amplitudes
        reshaped to shape and indexed by at are that sub-cube, bit t on one
        axis of two, and indexing the result by flip reverses that axis: the
        gate. Only the fixed bits source(j0) in at depend on the polarities;
        the rest is _cube_layout's.
        """
        columns = self.columns
        key, cubes = tuple(columns[:bits]), []
        for gate in run:
            qubits = gate.qubits
            t = qubits[-1]
            if columns[t] != 1 << t or (layout := _cube_layout(key, qubits)) is None:
                return None
            shape, runs, flip = layout
            fixed = 0
            for q, polarity in zip(qubits, gate.polarities):
                if polarity == CLOSED:
                    fixed ^= columns[q]
            cubes.append((shape, (*[slice(None) if mask is None else fixed >> b & mask for b, mask in runs], ...),
                          flip))
        return cubes


@lru_cache(maxsize=256)
def _cube_layout(columns: tuple, qubits: tuple):
    """The part of _PendingMap.cubes that the polarities do not change.

    For a map's columns and a gate's qubits (controls, then the target t):
    None unless the free qubits' columns have one bit each; else the shape,
    one (lowest bit, mask) per axis, mask None on a run of free bits (bit t
    is free and has an axis of its own), and the index that reverses bit t's
    axis in the view the free axes make. The cache compares its keys by
    value, so equal qubit tuples share an entry: a filter circuit's selector
    gates of one block size have equal qubit tuples and meet the same map,
    uz, so this is computed once per size and block size.
    """
    n, t = len(columns), qubits[-1]
    free_qubits = frozenset(range(n)).difference(qubits[:-1])
    free = reduce(or_, map(columns.__getitem__, free_qubits))
    if bin(free).count("1") != len(free_qubits):
        return None
    # one axis per run of free or fixed bits, high bits first, and one for
    # bit t; edges marks the lowest bit of each
    edges = (free ^ free << 1 | 1 | 3 << t) & ((1 << n) - 1)
    shape, runs, top = [], [], n
    while top:
        b = (edges & ((1 << top) - 1)).bit_length() - 1
        shape.append(1 << (top - b))
        runs.append((b, None if free >> b & 1 else (1 << (top - b)) - 1))
        top = b
    # the free axes above bit t's come first in the view
    above = bin(free >> t & edges >> t).count("1") - 1
    return tuple(shape), tuple(runs), (slice(None),) * above + (slice(None, None, -1), ...)


def _compile(circuit, width: int, itemsize: int) -> tuple:
    """run_circuit's plan for a state of width qubits and itemsize-byte
    amplitudes: a tuple of (step, argument) layer records.

    One pure walk of the gates, which reads no amplitude:
    * ("h", plan): an H run's Hadamard blocks, transforms._hadamard_plan's,
      with the scale 2**(-k/2) folded in, on every block;
    * ("gather", columns): the pending map over the blocks' bits, gathered
      into every block;
    * ("cubes", cubes): an X or MCX run's sub-cubes (shape, at, flip) over
      the blocks' bits, each reversed on its target's axis in every block;
    * ("split", (known, cubes)): an MCX run on the one known qubit, its
      cubes laid over all n bits, swapped between the halves;
    * ("join", known) and, last, ("end", known): the blocks joined into the
      circuit's width, the known bits above them as given.
    An X on a known bit only changes known, and CNOT/SWAP runs only the
    pending map, so neither makes a record of its own.
    """
    n = circuit.n_qubits
    known = 0  # the values of the known bits, qubit width + b at bit b
    split = False
    pending = _PendingMap(n)
    records = []

    def gather():
        if (columns := pending.take(width)) is not None:
            records.append(("gather", columns))

    def carried(run, bits):
        # the cubes under the map, gathered first unless it carries them all;
        # the identity map a gather leaves carries every gate
        if (cubes := pending.cubes(run, bits)) is None:
            gather()
            cubes = pending.cubes(run, bits)
        return cubes

    for kind, run in _runs(circuit.gates):
        if width < n:
            if kind == "X" and not split:
                known ^= reduce(xor, (1 << gate.qubits[0] for gate in run), 0) >> width
                if not (run := [gate for gate in run if gate.qubits[0] < width]):
                    continue
            elif max(run if kind == "H" else chain.from_iterable(map(_QUBITS, run))) >= width:
                if (kind == "MCX" and n - width == 1 and itemsize << width >= _ALIGN_FLOOR
                        and all(gate.qubits[-1] == width for gate in run)):
                    records.append(("split", (known, carried(run, n))))
                    split = True
                    continue
                records.append(("join", known))
                width, split = n, False
        if kind in _PERMUTATION_KINDS:
            pending.compose(run)
        elif kind == "H":
            gather()
            records.append(("h", _hadamard_plan(tuple(run), 2 ** (-len(run) / 2))))
        else:
            records.append(("cubes", carried(run, width)))
    gather()
    records.append(("end", known))
    return tuple(records)


def run_circuit(state: Statevector, circuit) -> Statevector:
    """Apply a circuit's gates in order: _compile's records, executed in one loop (module docstring).

    The state may be narrower than the circuit, never wider: the qubits
    above it start in |0> and stay known bits until a layer other than X
    touches one. If that layer is an MCX run on the one known qubit, the
    state is split on it instead: the layers below it run on each half, and
    the halves are joined into the circuit's width at the first layer that
    touches that qubit and is not such a run, or at the end.
    """
    n, width = circuit.n_qubits, state.n_qubits
    if width > n:
        raise ValueError(f"circuit on {n} qubits, state on {width}")
    amps = _read_only(state.amplitudes.view())
    pairs = [[amps, _empty(amps)]]  # each block and a free buffer of its size
    out = None  # once split: the state on n qubits, one half per block
    for step, arg in _compile(circuit, width, amps.itemsize):
        if step == "gather":
            _gather(pairs, arg)
        elif step == "split":
            pairs, out = _split(pairs, out, *arg)
        elif step == "join":
            amps = _join(pairs, out, arg, n)
            # the narrow buffers are freed before the wide spare is taken
            pairs = None
            pairs, out = [[amps, _empty(amps)]], None
        elif step == "end":
            return Statevector(n, _join(pairs, out, arg, n))
        else:
            for pair in pairs:
                _layer(pair, step, arg)


def _gather(pairs, columns: tuple) -> None:
    """Gather each [block, free buffer] pair's block into its free buffer
    through the map's columns over the blocks' bits, and swap the two. A
    read-only block is not handed on as a free buffer: a fresh one takes its
    place."""
    index = gf2_index(columns)
    for pair in pairs:
        # gf2_index stays in range; mode="raise" would buffer the take
        np.take(pair[0], index, out=pair[1], mode="clip")
        pair[:] = pair[1], pair[0] if pair[0].flags.writeable else _empty(pair[0])


def _layer(pair, step: str, arg) -> None:
    """An "h" record's plan or a "cubes" record's cubes on one [block, free buffer] pair, in place."""
    amps, spare = pair
    if step == "h":
        pair[:] = _hadamard_blocks(amps, spare, arg)
        return
    if not amps.flags.writeable:
        amps = amps.copy()
    for shape, at, flip in arg:
        # the cube reversed on the target's axis, through the spare
        cube, scratch = amps.reshape(shape)[at], spare.reshape(shape)[at]
        scratch[...] = cube[flip]
        cube[...] = scratch
    pair[:] = amps, spare


def _swap(a: np.ndarray, b: np.ndarray, scratch: np.ndarray) -> None:
    """Exchange two equal-shaped views through scratch, in three exact copies."""
    np.copyto(scratch, a)
    np.copyto(a, b)
    np.copyto(b, scratch)


def _split(pairs, out, known: int, cubes):
    """Swap an MCX run's cubes on the one qubit above the blocks between two halves; returns (pairs, out).

    The first such run splits the one block: the half for the value known
    is its amplitudes (a copy if they are read-only), the other its free
    buffer zero-filled, and each half of a fresh out is the free buffer of
    its block. Each cube (shape, lo, hi) is laid over the circuit's n bits,
    so it has the qubit on axis 0, as _cube_layout puts it, and is swapped
    between the blocks through the first block's free buffer; a later cube
    may overlap an earlier one.
    """
    if out is None:
        ((amps, zeros),) = pairs
        zeros.fill(0)
        if not amps.flags.writeable:
            amps = _empty(amps)
            amps[:] = pairs[0][0]
        out = _empty(amps, 2 * amps.size)
        blocks = (zeros, amps) if known else (amps, zeros)
        pairs = [[block, half] for block, half in zip(blocks, out.reshape(2, -1))]
    (zero, buffer), (one, _) = pairs
    for shape, at, _ in cubes:
        # bit t is axis 0: the cube's halves are the blocks' sub-cubes at at[1:]
        _swap(*(a.reshape(shape[1:])[at[1:]] for a in (zero, one, buffer)))
    return pairs, out


def _join(pairs, out, known: int, n: int) -> np.ndarray:
    """The state on n qubits the [block, free buffer] pairs make up.

    Two blocks are a split's halves: each is copied into its half of out
    unless it is there already. One block on n qubits is the state, unless
    it is read-only; any other one block is written where the known bits
    above it put it in a fresh state, the rest zero.
    """
    if out is not None:
        for (block, _), half in zip(pairs, out.reshape(2, -1)):
            # a block is either its half of out or a buffer of its own
            if not np.may_share_memory(block, out):
                half[:] = block
        return out
    ((amps, _),) = pairs
    if amps.size == 1 << n and amps.flags.writeable:
        return amps
    # each entry written once: a zeroed buffer would be written twice where amps go
    wide = _empty(amps, 1 << n).reshape(-1, amps.size)
    wide[:known] = 0
    wide[known] = amps
    wide[known + 1 :] = 0
    return wide.reshape(-1)


def amplitude_encode(signal) -> tuple[Statevector, float]:
    """Normalize a signal into state amplitudes; returns (state, scale).

    scale is the signal's 2-norm, kept so callers can restore physical units
    after measurement-style projections. A 2**n-sample signal encodes into
    exactly n qubits (n >= 1); run_circuit reads the qubits a wider circuit
    adds on top, such as a filter's ancilla, as |0>.

    The norm is taken in peak units, so huge or tiny samples neither overflow
    nor underflow it, and the amplitudes (x / unit) / norm keep the bits of
    ordinary samples.
    """
    signal, n = time_signal(signal)
    try:
        unit, (scaled,) = peak_units(signal.values)
    except ValueError as err:
        raise NormalizationError(f"cannot amplitude-encode {err}") from err
    # the 2-norm as np.linalg.norm takes it for a 1-D real array, without its dispatch
    norm = math.sqrt(scaled.dot(scaled))
    if norm == 0.0:
        raise NormalizationError("cannot amplitude-encode an all-zero signal")
    scale = unit * norm
    if not math.isfinite(scale):
        raise NormalizationError("signal norm overflows float64")
    scaled /= norm
    # divided by its own norm: the state's norm check would re-take it
    return _trusted(Statevector, n_qubits=n, amplitudes=scaled), scale


def project_ancilla(state: Statevector, qubit: int, outcome: int) -> tuple[np.ndarray, float]:
    """Sub-vector of amplitudes whose given qubit equals outcome, unnormalized.

    Returns (branch, probability) where probability is the branch's squared
    norm; the two outcomes' probabilities sum to 1. Renormalizing is left to
    the caller on purpose, so branch amplitudes stay directly comparable to
    classically computed components.
    """
    qubit = check_index(qubit, "qubit")
    if not 0 <= qubit < state.n_qubits:
        raise ValueError(f"qubit {qubit} out of range for {state.n_qubits}")
    outcome = check_int(outcome, "outcome")
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    branch = state.amplitudes.reshape(-1, 2, 1 << qubit)[:, outcome, :].flatten()
    probability = float(np.vdot(branch, branch).real)
    return branch, probability
