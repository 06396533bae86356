"""Simulator tests against first-principles oracles.

The dense matrix oracle below rebuilds each gate's action column by column
from the textbook definition (bit predicates on basis indices), a completely
different code path from both of the simulator's kernels: the per-gate index
arithmetic of apply_gate and the layer-compiled passes of run_circuit.
"""

from __future__ import annotations

import functools
import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from walshdsp import simulator as sim
from walshdsp.circuits import Circuit, build_filter_circuit, build_sequency_wht, build_uz
from walshdsp.filters import FilterSpec
from walshdsp.transforms import SizingError, gf2_index, natural_to_sequency_perm, time_series

RNG = np.random.default_rng(42)


def gate_matrix_oracle(gate: sim.Gate, n: int) -> np.ndarray:
    """Dense unitary for a gate, built from its basis-state action."""
    size = 1 << n
    m = np.zeros((size, size), dtype=complex)
    r = 1 / np.sqrt(2)
    for i in range(size):
        if gate.kind == "H":
            q = gate.qubits[0]
            low = i & ~(1 << q)
            sign = -1.0 if (i >> q) & 1 else 1.0
            m[low, i] += r
            m[low | (1 << q), i] += sign * r
        elif gate.kind == "X":
            m[i ^ (1 << gate.qubits[0]), i] = 1.0
        elif gate.kind == "SWAP":
            a, b = gate.qubits
            bit_a, bit_b = (i >> a) & 1, (i >> b) & 1
            j = i & ~((1 << a) | (1 << b)) | (bit_b << a) | (bit_a << b)
            m[j, i] = 1.0
        else:  # CNOT / MCX
            fire = all(
                ((i >> q) & 1) == (1 if pol == sim.CLOSED else 0)
                for q, pol in gate.controls
            )
            m[i ^ (1 << gate.target) if fire else i, i] = 1.0
    return m


def random_state(n: int) -> sim.Statevector:
    amps = RNG.standard_normal(1 << n) + 1j * RNG.standard_normal(1 << n)
    return sim.Statevector(n, amps / np.linalg.norm(amps))


def random_real_state(n: int) -> sim.Statevector:
    amps = RNG.standard_normal(1 << n)
    return sim.Statevector(n, amps / np.linalg.norm(amps))


def read_only_state(n: int) -> sim.Statevector:
    """A random real state over a read-only buffer, as np.frombuffer gives one."""
    return sim.Statevector(n, np.frombuffer(random_real_state(n).amplitudes.tobytes()))


GATE_CATALOG_4Q = [
    sim.h(0),
    sim.h(3),
    sim.x(2),
    sim.cnot(0, 3),
    sim.cnot(3, 1),
    sim.swap(0, 2),
    sim.swap(1, 3),
    sim.mcx([(0, sim.OPEN)], 2),
    sim.mcx([(1, sim.CLOSED), (3, sim.OPEN)], 0),
    sim.mcx([(0, sim.OPEN), (1, sim.OPEN), (2, sim.CLOSED)], 3),
    sim.mcx([], 1),
]


@pytest.mark.parametrize("gate", GATE_CATALOG_4Q, ids=lambda g: g.kind + str(g.qubits))
def test_apply_gate_matches_matrix_oracle(gate):
    state = random_state(4)
    expected = gate_matrix_oracle(gate, 4) @ state.amplitudes
    got = sim.apply_gate(state, gate)
    assert_allclose(got.amplitudes, expected, atol=1e-13)


@pytest.mark.parametrize("gate", GATE_CATALOG_4Q, ids=lambda g: g.kind + str(g.qubits))
def test_gates_are_involutions(gate):
    state = random_state(4)
    twice = sim.apply_gate(sim.apply_gate(state, gate), gate)
    assert_allclose(twice.amplitudes, state.amplitudes, atol=1e-13)


@pytest.mark.parametrize("gate", GATE_CATALOG_4Q, ids=lambda g: g.kind + str(g.qubits))
def test_gates_preserve_norm(gate):
    state = random_state(4)
    out = sim.apply_gate(state, gate)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_h_on_zero_state():
    out = sim.apply_gate(sim.basis_state(1, 0), sim.h(0))
    assert_allclose(out.amplitudes, np.array([1, 1]) / np.sqrt(2), atol=1e-15)


def test_swap_moves_index_bit():
    # |001> means qubit 0 set; swapping qubits 0 and 2 gives |100>
    out = sim.apply_gate(sim.basis_state(3, 0b001), sim.swap(0, 2))
    assert_allclose(out.amplitudes, sim.basis_state(3, 0b100).amplitudes)


def test_mcx_two_open_controls_on_basis_states():
    gate = sim.mcx([(6, sim.OPEN), (5, sim.OPEN)], 7)
    for k in range(1 << 7):  # data part only; ancilla bit 7 clear
        out = sim.apply_gate(sim.basis_state(8, k), gate)
        fired = (k >> 6) & 1 == 0 and (k >> 5) & 1 == 0
        expected = k | (1 << 7) if fired else k
        assert out.amplitudes[expected] == 1.0


def test_mcx_exhaustive_truth_tables_4q():
    # every target, every control subset, every polarity pattern, every basis state
    for target in range(4):
        others = [q for q in range(4) if q != target]
        for r in range(len(others) + 1):
            for ctrl_qubits in itertools.combinations(others, r):
                for pols in itertools.product((sim.OPEN, sim.CLOSED), repeat=r):
                    gate = sim.mcx(list(zip(ctrl_qubits, pols)), target)
                    for i in range(16):
                        out = sim.apply_gate(sim.basis_state(4, i), gate)
                        fire = all(
                            ((i >> q) & 1) == (1 if p == sim.CLOSED else 0)
                            for q, p in zip(ctrl_qubits, pols)
                        )
                        j = i ^ (1 << target) if fire else i
                        assert out.amplitudes[j] == 1.0


def test_mcx_random_truth_tables_6q():
    for _ in range(25):
        target = int(RNG.integers(6))
        others = [q for q in range(6) if q != target]
        r = int(RNG.integers(1, 6))
        qs = list(RNG.choice(others, size=min(r, len(others)), replace=False))
        pols = [sim.OPEN if RNG.integers(2) else sim.CLOSED for _ in qs]
        gate = sim.mcx(list(zip(map(int, qs), pols)), target)
        mat = gate_matrix_oracle(gate, 6)
        state = random_state(6)
        got = sim.apply_gate(state, gate)
        assert_allclose(got.amplitudes, mat @ state.amplitudes, atol=1e-13)


def test_empty_control_mcx_acts_as_x():
    state = random_state(3)
    via_mcx = sim.apply_gate(state, sim.mcx([], 1))
    via_x = sim.apply_gate(state, sim.x(1))
    assert_allclose(via_mcx.amplitudes, via_x.amplitudes)
    # and the gate model says so: an X has its qubit as target and no controls
    assert sim.x(3).target == 3 and sim.x(3).controls == ()
    with pytest.raises(AttributeError, match="H has no target"):
        sim.h(0).target
    with pytest.raises(AttributeError, match="SWAP has no controls"):
        sim.swap(0, 1).controls


def test_cnot_equals_single_closed_mcx():
    state = random_state(3)
    a = sim.apply_gate(state, sim.cnot(2, 0))
    b = sim.apply_gate(state, sim.mcx([(2, sim.CLOSED)], 0))
    assert_allclose(a.amplitudes, b.amplitudes)


# ---------------------------------------------------------------------------
# run_circuit


def test_empty_circuit_is_identity():
    state = random_state(3)
    out = sim.run_circuit(state, Circuit(3, ()))
    assert_allclose(out.amplitudes, state.amplitudes)


def test_double_h_circuit_is_identity():
    state = random_state(2)
    out = sim.run_circuit(state, Circuit(2, (sim.h(0), sim.h(0))))
    assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)


def test_run_circuit_concatenation():
    state = random_state(4)
    first = tuple(GATE_CATALOG_4Q[:5])
    second = tuple(GATE_CATALOG_4Q[5:])
    in_two_steps = sim.run_circuit(sim.run_circuit(state, Circuit(4, first)), Circuit(4, second))
    in_one = sim.run_circuit(state, Circuit(4, first + second))
    assert_allclose(in_two_steps.amplitudes, in_one.amplitudes, atol=1e-13)


@st.composite
def gate_lists(draw):
    """Random circuits over the full gate set, n <= 6.

    Runs of one kind are drawn on purpose so that the compiled path sees H
    runs that repeat a qubit, long mixed X/CNOT/SWAP runs and MCX sequences
    with every polarity, empty control lists included.
    """
    n = draw(st.integers(1, 6))
    qubit = st.integers(0, n - 1)
    gates = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["H", "PERM", "MCX"]))
        for _ in range(draw(st.integers(1, n + 2))):
            if kind == "H":
                gates.append(sim.h(draw(qubit)))
            elif kind == "MCX":
                target = draw(qubit)
                others = [q for q in range(n) if q != target]
                controls = draw(st.lists(st.sampled_from(others), unique=True)) if others else []
                polarities = draw(st.lists(st.sampled_from([sim.OPEN, sim.CLOSED]),
                                           min_size=len(controls), max_size=len(controls)))
                gates.append(sim.mcx(list(zip(controls, polarities)), target))
            else:
                pick = draw(st.sampled_from(["X", "CNOT", "SWAP"] if n > 1 else ["X"]))
                if pick == "X":
                    gates.append(sim.x(draw(qubit)))
                else:
                    a, b = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
                    gates.append(sim.cnot(a, b) if pick == "CNOT" else sim.swap(a, b))
    return Circuit(n, tuple(gates))


def assert_matches_gate_fold_and_matrix_product(circuit, complex_state, seed):
    rng = np.random.default_rng(seed)
    size = 1 << circuit.n_qubits
    amps = rng.standard_normal(size)
    if complex_state:
        amps = amps + 1j * rng.standard_normal(size)
    state = sim.Statevector(circuit.n_qubits, amps / np.linalg.norm(amps))

    compiled = sim.run_circuit(state, circuit)
    folded = state
    unitary = np.eye(size)
    for gate in circuit.gates:
        folded = sim.apply_gate(folded, gate)
        unitary = gate_matrix_oracle(gate, circuit.n_qubits) @ unitary
    assert compiled.amplitudes.dtype == state.amplitudes.dtype
    assert_allclose(compiled.amplitudes, folded.amplitudes, atol=1e-12)
    assert_allclose(compiled.amplitudes, unitary @ state.amplitudes, atol=1e-12)


@settings(max_examples=150, deadline=None)
@given(gate_lists(), st.booleans(), st.integers(0, 2**32 - 1))
# X on several qubits, each a swap of the state's two halves on its qubit
@example(Circuit(4, (sim.x(0), sim.x(2), sim.x(3), sim.h(0), sim.h(1), sim.h(3))), False, 0)
# a lone SWAP with nothing pending, gathered before an H run
@example(Circuit(3, (sim.swap(0, 2), sim.h(1))), True, 1)
def test_run_circuit_matches_gate_fold_and_matrix_product(circuit, complex_state, seed):
    assert_matches_gate_fold_and_matrix_product(circuit, complex_state, seed)


@st.composite
def conjugated_circuits(draw):
    """A permutation run P, an MCX run on one target, then P reversed or a new run.

    Half the draws keep P off the target's column (X anywhere, CNOT not
    controlled on the target, SWAP not touching it), so that the pending map
    fixes the target; the other half draw P freely, and a P that moves the
    target, or does not carry some gate's sub-cube, is flushed before the MCX
    run. An X in P is applied where it stands, after a flush if the map moves
    its qubit. Reversing P cancels the pending map unless such a flush came
    between; a map left pending is flushed at the end.
    """
    n = draw(st.integers(2, 6))
    target = draw(st.integers(0, n - 1))
    others = [q for q in range(n) if q != target]
    movable = others if draw(st.booleans()) else list(range(n))

    def permutation_run():
        gates = []
        for _ in range(draw(st.integers(1, 2 * n))):
            pick = draw(st.sampled_from(["X", "CNOT", "SWAP"] if len(movable) > 1 else ["X", "CNOT"]))
            if pick == "X":
                gates.append(sim.x(draw(st.integers(0, n - 1))))
            elif pick == "CNOT":
                control = draw(st.sampled_from(movable))
                gates.append(sim.cnot(control, draw(st.sampled_from([q for q in range(n) if q != control]))))
            else:
                gates.append(sim.swap(*draw(st.lists(st.sampled_from(movable), min_size=2, max_size=2, unique=True))))
        return gates

    prefix = permutation_run()
    selector = []
    for _ in range(draw(st.integers(1, n + 1))):
        controls = draw(st.lists(st.sampled_from(others), unique=True))
        polarities = draw(st.lists(st.sampled_from([sim.OPEN, sim.CLOSED]),
                                   min_size=len(controls), max_size=len(controls)))
        selector.append(sim.mcx(list(zip(controls, polarities)), target))
    suffix = list(reversed(prefix)) if draw(st.booleans()) else permutation_run()
    return Circuit(n, tuple(prefix + selector + suffix))


@settings(max_examples=150, deadline=None)
@given(conjugated_circuits(), st.booleans(), st.integers(0, 2**32 - 1))
@example(build_filter_circuit(3, FilterSpec.low_pass(3)), False, 0)
@example(build_filter_circuit(4, FilterSpec.high_pass(5), swapped=True), True, 1)
@example(build_filter_circuit(5, FilterSpec.band_pass(3, 27)), False, 2)
@example(build_filter_circuit(5, FilterSpec.dc(), swapped=True), True, 3)
# X gates on the MCX run's target, before and after it: each swaps the halves
# of the whole state
@example(Circuit(3, (sim.x(2), sim.mcx([(0, sim.OPEN), (1, sim.CLOSED)], 2), sim.mcx([(1, sim.OPEN)], 2),
                     sim.x(2))), False, 4)
def test_conjugated_mcx_runs_match_gate_fold_and_matrix_product(circuit, complex_state, seed):
    # the pending map either carries each gate of the MCX run as one swap of
    # two sub-views or is flushed before the run, and is cancelled or flushed
    # after it
    assert_matches_gate_fold_and_matrix_product(circuit, complex_state, seed)


def count_gf2_indices(monkeypatch) -> list[int]:
    """Patch the simulator's gf2_index to record each index's column count."""
    sizes: list[int] = []

    def counting(columns):
        sizes.append(len(columns))
        return gf2_index(columns)

    monkeypatch.setattr(sim, "gf2_index", counting)
    return sizes


@pytest.mark.parametrize("swapped", [False, True])
def test_filter_circuits_defer_uz_and_make_no_gather(monkeypatch, swapped):
    # uz carries each selector gate's sub-cube onto a storage sub-cube, so
    # the selector swaps two strided views per gate, and uz inverse cancels
    # uz; the dc circuit has no uz. A leading X swaps the two halves of the
    # padded state and flips a known bit over the data qubits alone, where
    # the widening keeps the map: no circuit builds an index array, nor does
    # the split a 14-qubit state takes at the selector instead
    sizes = count_gf2_indices(monkeypatch)
    for n in (10, 14):
        for state in (random_real_state(n + 1), random_real_state(n)):
            for spec in (FilterSpec.low_pass(300), FilterSpec.high_pass(517), FilterSpec.band_pass(37, 901),
                         FilterSpec.dc()):
                sim.run_circuit(state, build_filter_circuit(n, spec, swapped=swapped))
    assert sizes == []


@pytest.mark.parametrize("n", range(2, 9))
def test_sequency_wht_gathers_once_at_the_end(monkeypatch, n):
    sizes = count_gf2_indices(monkeypatch)
    sim.run_circuit(random_state(n), build_sequency_wht(n))
    assert sizes == [n]


@st.composite
def h_runs(draw):
    """One H run on n <= 12 qubits, its qubits in drawn order.

    Half the draws are a contiguous range (one qubit up to all n, so past the
    4-qubit block width), half any non-empty subset, gaps included.
    """
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        lo = draw(st.integers(0, n - 1))
        qubits = list(range(lo, draw(st.integers(lo + 1, n))))
    else:
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    return Circuit(n, tuple(sim.h(q) for q in draw(st.permutations(qubits))))


@settings(max_examples=200, deadline=None)
@given(h_runs(), st.booleans(), st.integers(0, 2**32 - 1))
@example(Circuit(12, tuple(sim.h(q) for q in range(12))), False, 0)
@example(Circuit(12, tuple(sim.h(q) for q in range(1, 12, 2))), True, 1)
@example(Circuit(6, (sim.h(5),)), True, 2)
def test_h_run_blocks_match_gate_fold(circuit, complex_state, seed):
    # run_circuit applies an H run as dense Hadamard blocks of up to 4
    # qubits; apply_gate folds one radix-2 butterfly per gate
    n = circuit.n_qubits
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << n)
    if complex_state:
        amps = amps + 1j * rng.standard_normal(1 << n)
    state = sim.Statevector(n, amps / np.linalg.norm(amps))

    compiled = sim.run_circuit(state, circuit).amplitudes
    folded = state
    for gate in circuit.gates:
        folded = sim.apply_gate(folded, gate)
    reference = folded.amplitudes
    tol = 4 * n * np.finfo(np.float64).eps * np.max(np.abs(reference))
    assert compiled.dtype == state.amplitudes.dtype
    assert np.max(np.abs(compiled - reference)) <= tol
    if n <= 6:
        unitary = np.eye(1 << n)
        for gate in circuit.gates:
            unitary = gate_matrix_oracle(gate, n) @ unitary
        assert np.max(np.abs(compiled - unitary @ state.amplitudes)) <= tol


@pytest.mark.parametrize("n", range(2, 13))
def test_uz_gather_index_is_the_inverse_sequency_map(n):
    # uz sends |s> to |sequency_of(s)>: its pending map gathers amplitude g
    # from natural position inverse[g], so scattering through the same
    # index sends s to forward[s]
    pending = sim._PendingMap(n)
    pending.compose(build_uz(n).gates)
    forward, inverse = natural_to_sequency_perm(n)
    source = gf2_index(pending.columns)
    assert source.dtype == inverse.dtype
    assert np.array_equal(source, inverse)
    image = np.empty_like(source)
    image[source] = np.arange(1 << n)
    assert np.array_equal(image, forward)


@st.composite
def prefixed_mcx_runs(draw):
    """An X/CNOT/SWAP prefix on up to 8 qubits, then one to three MCX runs.

    Each run's target is drawn from the qubits the pending map fixes, where
    each gate whose sub-cube the map carries is one swap of two sub-views, or
    from those it moves, where the map is flushed first. The map is the
    prefix's CNOT/SWAP gates since its last flush: an X on a qubit the map
    moves flushes it, and an X on a fixed qubit leaves it as it is.
    """
    n = draw(st.integers(2, 8))
    qubit = st.integers(0, n - 1)
    prefix = []
    for _ in range(draw(st.integers(0, 3 * n))):
        pick = draw(st.sampled_from(["X", "CNOT", "SWAP"]))
        if pick == "X":
            prefix.append(sim.x(draw(qubit)))
        else:
            a, b = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            prefix.append(sim.cnot(a, b) if pick == "CNOT" else sim.swap(a, b))
    pending = sim._PendingMap(n)
    for gate in prefix:
        if gate.kind != "X":
            pending.compose([gate])
        elif pending.cubes([gate], n) is None:
            pending = sim._PendingMap(n)
    fixed = [q for q in range(n) if pending.columns[q] == 1 << q]
    moved = [q for q in range(n) if q not in fixed]
    runs = []
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(fixed if fixed and (not moved or draw(st.booleans())) else moved))
        others = [q for q in range(n) if q != target]
        for _ in range(draw(st.integers(1, 4))):
            controls = draw(st.lists(st.sampled_from(others), unique=True))
            polarities = draw(st.lists(st.sampled_from([sim.OPEN, sim.CLOSED]),
                                       min_size=len(controls), max_size=len(controls)))
            runs.append(sim.mcx(list(zip(controls, polarities)), target))
    return Circuit(n, tuple(prefix + runs))


@settings(max_examples=200, deadline=None)
@given(prefixed_mcx_runs(), st.booleans(), st.integers(0, 2**32 - 1))
# uz on the seven low qubits and a selector-like run on the top one, as in a
# filter circuit, with an X on the target between uz and the run
@example(Circuit(8, (*build_uz(7).gates, sim.x(7), sim.mcx([(6, sim.OPEN), (5, sim.CLOSED)], 7),
                     sim.mcx([(0, sim.CLOSED)], 7))), False, 0)
# a fixed target in the middle, the map moving bits on both sides of it
@example(Circuit(5, (sim.cnot(0, 1), sim.swap(3, 4), sim.cnot(4, 0), sim.x(2),
                     sim.mcx([(1, sim.OPEN), (4, sim.CLOSED)], 2), sim.mcx([], 2))), True, 1)
# a moved target: the map is flushed before the run
@example(Circuit(3, (sim.cnot(0, 2), sim.mcx([(1, sim.CLOSED)], 0))), True, 2)
# a fixed target, but the map sends the free qubits 0 and 2 to three storage
# bits, so it does not carry the gate's sub-cube and is flushed first
@example(Circuit(3, (sim.cnot(0, 1), sim.mcx([(1, sim.OPEN)], 2))), False, 3)
# controls on every other qubit: the two halves are 0-d views
@example(Circuit(3, (sim.swap(0, 1), sim.x(0), sim.mcx([(0, sim.CLOSED), (1, sim.OPEN)], 2))), True, 4)
# no controls under a map that is not the identity: the whole state's halves
@example(Circuit(3, (sim.cnot(1, 0), sim.x(2), sim.mcx([], 0))), False, 5)
# an X on a target the map moves: the map is flushed first, and the MCX
# after it runs under the identity
@example(Circuit(3, (sim.cnot(0, 2), sim.x(0), sim.mcx([(1, sim.CLOSED)], 2))), True, 6)
# an X right after an MCX on the same target, both under a SWAP
@example(Circuit(3, (sim.swap(0, 1), sim.mcx([(0, sim.OPEN)], 2), sim.x(2), sim.mcx([(1, sim.CLOSED)], 2))),
         False, 7)
# an X on a 1-qubit register: the halves are 0-d views
@example(Circuit(1, (sim.x(0),)), True, 8)
def test_mcx_sub_cubes_through_the_pending_map_match_gate_fold(circuit, complex_state, seed):
    # every gate here only moves amplitudes, so the compiled path must give
    # the fold's bits exactly
    rng = np.random.default_rng(seed)
    size = 1 << circuit.n_qubits
    amps = rng.standard_normal(size)
    if complex_state:
        amps = amps + 1j * rng.standard_normal(size)
    state = sim.Statevector(circuit.n_qubits, amps / np.linalg.norm(amps))
    folded = functools.reduce(sim.apply_gate, circuit.gates, state)
    assert np.array_equal(sim.run_circuit(state, circuit).amplitudes, folded.amplitudes)


INPUT_LAYER_CIRCUITS = {
    "empty": Circuit(3, ()),
    "H first": Circuit(3, (sim.h(0), sim.h(2), sim.cnot(0, 1), sim.h(1))),
    "flip first": Circuit(3, (sim.x(2), sim.x(0), sim.h(1))),
    "flip only": Circuit(3, (sim.x(1),)),
    "gather first": Circuit(3, (sim.cnot(0, 2), sim.swap(1, 2), sim.h(0))),
    "MCX first": Circuit(3, (sim.mcx([(0, sim.CLOSED)], 2), sim.h(1), sim.mcx([(1, sim.OPEN)], 0))),
    "identity map": Circuit(3, (sim.swap(0, 1), sim.swap(0, 1))),
    # the map does not carry the MCX, so a flush reads the input first and
    # the MCX run then takes the free buffer as its scratch
    "gather then MCX": Circuit(3, (sim.cnot(0, 1), sim.mcx([(1, sim.OPEN)], 2))),
}


@pytest.mark.parametrize("make_state,width", [
    (random_real_state, 3), (random_state, 3), (read_only_state, 3),
    (random_real_state, 14), (random_state, 14), (read_only_state, 14),
], ids=["random_real_state", "random_state", "read_only_state",
        "random_real_state-14", "random_state-14", "read_only_state-14"])
@pytest.mark.parametrize("name", INPUT_LAYER_CIRCUITS)
def test_run_circuit_never_writes_or_returns_its_input(make_state, name, width):
    # the first layer reads the input directly, so nothing may write it, and
    # the result must not share its memory even when no gate moves anything;
    # at 14 qubits the buffers run_circuit takes start on a page
    circuit = Circuit(width, INPUT_LAYER_CIRCUITS[name].gates)
    state = make_state(width)
    before = state.amplitudes.copy()
    out = sim.run_circuit(state, circuit)
    assert np.array_equal(state.amplitudes, before)
    assert not np.shares_memory(out.amplitudes, state.amplitudes)
    folded = functools.reduce(sim.apply_gate, circuit.gates, state)
    assert_allclose(out.amplitudes, folded.amplitudes, atol=1e-12)


@pytest.mark.parametrize(
    "make_state,dtype", [(random_real_state, np.float64), (random_state, np.complex128)]
)
def test_run_circuit_keeps_the_state_dtype(make_state, dtype):
    out = sim.run_circuit(make_state(4), Circuit(4, tuple(GATE_CATALOG_4Q)))
    assert out.amplitudes.dtype == dtype


def test_real_constructors_store_float64():
    assert sim.basis_state(3, 5).amplitudes.dtype == np.float64
    assert sim.amplitude_encode([3.0, 4.0])[0].amplitudes.dtype == np.float64
    assert sim.Statevector(1, [1, 0]).amplitudes.dtype == np.float64
    assert sim.Statevector(1, [1j, 0]).amplitudes.dtype == np.complex128


@pytest.mark.parametrize("swapped", [False, True])
def test_altering_one_filter_gate_changes_the_output(swapped):
    # every gate of each emitted circuit must act: drop or change any one
    # and the simulated state moves, a uz gate under the pending map included.
    # The input has ancilla |0> and Walsh coefficients of magnitudes 1..N in
    # random order, with random signs: sending a sequency index to the other
    # branch, or two indices to each other's place, changes a coefficient by
    # at least 1/||s||, and so some amplitude by more than 1e-3 for N <= 32.
    # A random input can hold next to nothing at one index, a flat one the
    # same value at two.
    for n in (4, 5):
        size = 1 << n
        walsh = functools.reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * n)
        spectrum = RNG.permutation(np.arange(1.0, size + 1)) * RNG.choice([-1.0, 1.0], size)
        amps = np.zeros(2 * size)
        amps[:size] = walsh @ spectrum / np.linalg.norm(walsh @ spectrum)
        state = sim.Statevector(n + 1, amps)
        for spec in (FilterSpec.low_pass(size // 4 + 1), FilterSpec.high_pass(size - size // 4 - 1),
                     FilterSpec.band_pass(3, size - 5), FilterSpec.dc()):
            circuit = build_filter_circuit(n, spec, swapped=swapped)
            reference = sim.run_circuit(state, circuit).amplitudes
            for i, gate in enumerate(circuit.gates):
                variants = [()]
                if gate.kind == "MCX":
                    (q, polarity), *rest = gate.controls
                    flipped = sim.OPEN if polarity == sim.CLOSED else sim.CLOSED
                    variants.append((sim.mcx([(q, flipped), *rest], gate.target),))
                for replacement in variants:
                    gates = circuit.gates[:i] + replacement + circuit.gates[i + 1:]
                    out = sim.run_circuit(state, Circuit(n + 1, gates)).amplitudes
                    assert np.max(np.abs(out - reference)) > 1e-3, (circuit.label, i, gate, replacement)


def test_run_circuit_qubit_count_mismatch():
    # a narrower state is read with |0> qubits on top; a wider one is an error
    with pytest.raises(ValueError, match="circuit on 3 qubits, state on 4"):
        sim.run_circuit(random_state(4), Circuit(3, ()))
    state = random_state(3)
    out = sim.run_circuit(state, Circuit(4, ()))
    assert out.n_qubits == 4
    assert np.array_equal(out.amplitudes, padded(state, 4).amplitudes)


def test_apply_gate_index_out_of_range():
    # a gate past the state's top qubit pads it with |0> qubits up to that
    # qubit; a negative index is still refused when the gate is built
    state = random_state(2)
    out = sim.apply_gate(state, sim.h(3))
    assert out.n_qubits == 4
    assert np.array_equal(out.amplitudes, sim.apply_gate(padded(state, 4), sim.h(3)).amplitudes)
    half = state.amplitudes * (1.0 / np.sqrt(2.0))
    assert np.array_equal(out.amplitudes, np.concatenate([half, np.zeros(4), half, np.zeros(4)]))
    with pytest.raises(ValueError, match="negative qubit index"):
        sim.h(-1)


def padded(state: sim.Statevector, n: int) -> sim.Statevector:
    """state with |0> qubits on top, up to n qubits."""
    amps = np.zeros(1 << n, state.amplitudes.dtype)
    amps[: state.amplitudes.size] = state.amplitudes
    return sim.Statevector(n, amps)


# gates whose target is qubit 1, 2 or 3, which a narrow state holds as a known
# bit; the MCX gates on qubit 3 with every control below it split a 3-qubit
# state from the size floor on
KNOWN_TARGET_GATES = [
    sim.x(3),
    sim.x(1),
    sim.mcx([(0, sim.CLOSED)], 3),
    sim.mcx([(0, sim.OPEN), (1, sim.CLOSED)], 2),
    sim.mcx([(1, sim.OPEN), (2, sim.CLOSED)], 3),
    sim.mcx([], 3),
]


@st.composite
def narrow_runs(draw):
    """A circuit of gates from the 4-qubit catalog and a state 1-3 qubits narrower.

    The qubits above the state start as known |0> bits: an X on one flips
    it, and the first H, CNOT, SWAP or MCX run that touches one widens the
    state. Runs of one kind are drawn so that X runs mix known and dense
    targets.
    """
    catalog = GATE_CATALOG_4Q + KNOWN_TARGET_GATES
    gates = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(sim.GATE_KINDS))
        pool = [g for g in catalog if g.kind == kind] or catalog
        gates += draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
    return Circuit(4, tuple(gates)), draw(st.integers(1, 3))


@st.composite
def split_runs(draw):
    """A circuit that splits a 3-qubit state on qubit 3 once it is above the size floor.

    Gates below qubit 3 and X gates on it, an MCX run on it whose controls lie
    below it (joined to a trailing MCX gate of the first part, it widens
    instead), then any gates from the catalog.
    """
    catalog = GATE_CATALOG_4Q + KNOWN_TARGET_GATES
    below = [g for g in catalog if max(g.qubits) < 3 or g.kind == "X"]
    selector = [g for g in catalog if g.kind == "MCX" and g.qubits[-1] == 3]
    gates = draw(st.lists(st.sampled_from(below), max_size=6))
    gates += draw(st.lists(st.sampled_from(selector), min_size=1, max_size=3))
    gates += draw(st.lists(st.sampled_from(catalog), max_size=6))
    return Circuit(4, tuple(gates)), 1


def _on_narrow_runs(cases):
    """Drawn cases and the examples below, each as (case, complex_state, seed)."""
    split = [(0, sim.CLOSED)]
    examples = [
        # X gates on known bits only: no amplitude moves, and the end widens once
        ((Circuit(4, (sim.x(3), sim.x(0), sim.x(2), sim.x(3))), 2), False, 0),
        # an X on a known bit, then the MCX run on it widens (or splits) the
        # state, as the selector does in a filter circuit
        ((Circuit(4, (sim.x(3), sim.h(0), sim.h(1), sim.swap(0, 2), sim.mcx(split, 3))), 1), True, 1),
        # a pending SWAP on the dense qubits carried through the widening by a CNOT
        ((Circuit(4, (sim.swap(0, 1), sim.cnot(0, 3), sim.h(1))), 2), False, 2),
        # an H on every qubit of a 1-qubit state, then one on a known bit
        ((Circuit(4, (sim.h(0), sim.h(3))), 3), True, 3),
        # a split, then CNOT and SWAP composed and flushed per half before an H
        ((Circuit(4, (sim.h(0), sim.h(1), sim.mcx(split, 3), sim.cnot(0, 1), sim.swap(1, 2), sim.h(0),
                      sim.h(2))), 1), False, 4),
        # a split, an H on every qubit below it, and a SWAP left to the end
        ((Circuit(4, (sim.h(2), sim.mcx([(2, sim.OPEN)], 3), sim.h(0), sim.h(1), sim.h(2), sim.swap(0, 2))), 1),
         True, 5),
        # a split joined mid-circuit by an H, an X or a CNOT on the split qubit,
        # the last after a SWAP below it, which the join gathers per half
        ((Circuit(4, (sim.h(1), sim.mcx([(1, sim.CLOSED)], 3), sim.h(3), sim.h(0))), 1), False, 6),
        ((Circuit(4, (sim.h(0), sim.mcx([(0, sim.OPEN)], 3), sim.x(3), sim.h(1))), 1), True, 7),
        ((Circuit(4, (sim.h(0), sim.mcx(split, 3), sim.swap(0, 1), sim.cnot(3, 2), sim.h(2))), 1), False, 8),
        # an X or an MCX run below the split qubit runs on each half
        ((Circuit(4, (sim.h(0), sim.mcx(split, 3), sim.x(1))), 1), True, 9),
        ((Circuit(4, (sim.h(0), sim.mcx(split, 3), sim.h(1), sim.mcx([(0, sim.OPEN)], 2))), 1), False, 15),
        # a second MCX run on the split qubit after an H below it, swapped
        # between the halves without a join
        ((Circuit(4, (sim.h(0), sim.h(1), sim.mcx(split, 3), sim.h(2), sim.mcx([(2, sim.CLOSED), (1, sim.OPEN)], 3),
                      sim.h(0))), 1), True, 16),
        # an X run below the split carried by a pending SWAP, both left until
        # the end, where each half is gathered into its half of the output
        ((Circuit(4, (sim.h(0), sim.h(2), sim.mcx(split, 3), sim.swap(1, 2), sim.x(0))), 1), False, 17),
        # an MCX run that repeats a gate and overlaps it with another
        ((Circuit(4, (sim.h(0), sim.h(1), sim.mcx(split, 3), sim.mcx(split, 3), sim.mcx([(1, sim.OPEN)], 3),
                      sim.h(2))), 1), True, 10),
        # the split as the first layer: the input is copied, never written
        ((Circuit(4, (sim.mcx(split, 3), sim.h(0))), 1), False, 11),
        ((Circuit(4, (sim.x(3), sim.mcx([(1, sim.OPEN), (2, sim.CLOSED)], 3))), 1), True, 12),
        # a map that does not carry the run is gathered before the split, the
        # second time from the input
        ((Circuit(4, (sim.h(0), sim.h(1), sim.cnot(0, 1), sim.mcx([(1, sim.CLOSED)], 3))), 1), False, 13),
        ((Circuit(4, (sim.cnot(0, 1), sim.mcx([(1, sim.CLOSED)], 3), sim.h(2))), 1), True, 14),
    ]

    def decorate(test):
        for args in reversed(examples):
            test = example(*args)(test)
        test = given(cases, st.booleans(), st.integers(0, 2**32 - 1))(test)
        return settings(max_examples=300, deadline=None)(test)

    return decorate


def assert_narrow_run_matches(case, complex_state, seed):
    circuit, narrower = case
    width = circuit.n_qubits - narrower
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << width)
    if complex_state:
        amps = amps + 1j * rng.standard_normal(1 << width)
    state = sim.Statevector(width, amps / np.linalg.norm(amps))
    before = state.amplitudes.copy()

    compiled = sim.run_circuit(state, circuit)
    assert compiled.n_qubits == circuit.n_qubits
    assert compiled.amplitudes.dtype == state.amplitudes.dtype
    assert np.array_equal(state.amplitudes, before)
    assert not np.shares_memory(compiled.amplitudes, state.amplitudes)
    folded = functools.reduce(sim.apply_gate, circuit.gates, state)
    assert_allclose(compiled.amplitudes, padded(folded, circuit.n_qubits).amplitudes, atol=1e-12)
    wide = sim.run_circuit(padded(state, circuit.n_qubits), circuit)
    assert np.array_equal(compiled.amplitudes, wide.amplitudes)


@_on_narrow_runs(narrow_runs())
def test_narrow_state_matches_gate_fold_and_padded_state(case, complex_state, seed):
    assert_narrow_run_matches(case, complex_state, seed)


@_on_narrow_runs(st.one_of(narrow_runs(), split_runs()))
def test_split_state_matches_gate_fold_and_padded_state(case, complex_state, seed):
    # with no size floor, every MCX run on the one known qubit, its controls
    # below it, splits the state instead of widening it
    with mock.patch.object(sim, "_ALIGN_FLOOR", 0):
        assert_narrow_run_matches(case, complex_state, seed)


@pytest.mark.parametrize("make_state,floor_width", [(random_real_state, 14), (random_state, 13)],
                         ids=["real", "complex"])
def test_split_from_the_size_floor_on(monkeypatch, make_state, floor_width):
    # a half of at least 128 KiB splits; below that the state is widened
    splits = []
    real_split = sim._split
    monkeypatch.setattr(sim, "_split", lambda *args: splits.append(args[0][0][0].size) or real_split(*args))
    for width in (floor_width - 1, floor_width):
        state = make_state(width)
        before = state.amplitudes.copy()
        circuit = Circuit(width + 1, (sim.mcx([(0, sim.CLOSED)], width),))
        out = sim.run_circuit(state, circuit)
        assert np.array_equal(state.amplitudes, before)
        assert not np.shares_memory(out.amplitudes, state.amplitudes)
        assert np.array_equal(out.amplitudes, sim.apply_gate(state, circuit.gates[0]).amplitudes)
    assert splits == [1 << floor_width]


BELOW_THE_SPLIT = {
    "X": (sim.x(1), sim.x(2)),
    "MCX": (sim.h(1), sim.mcx([(0, sim.OPEN)], 2)),
    "CNOT and H": (sim.cnot(0, 1), sim.swap(1, 2), sim.h(0), sim.h(2)),
    "second selector": (sim.h(2), sim.mcx([(2, sim.CLOSED), (1, sim.OPEN)], 3), sim.h(0)),
    "X under a SWAP": (sim.swap(1, 2), sim.x(0)),
}


@pytest.mark.parametrize("name", BELOW_THE_SPLIT)
def test_layers_after_the_split_run_on_each_half(monkeypatch, name):
    # after the split, layers below the split qubit and MCX runs on it keep
    # the halves apart: every layer moves one half, and the end joins them
    sizes, joins = set(), []
    real_layer, real_join = sim._layer, sim._join
    monkeypatch.setattr(sim, "_ALIGN_FLOOR", 0)
    monkeypatch.setattr(sim, "_layer", lambda pair, *args: sizes.add(pair[0].size) or real_layer(pair, *args))
    monkeypatch.setattr(sim, "_join", lambda pairs, *args: joins.append(len(pairs)) or real_join(pairs, *args))
    circuit = Circuit(4, (sim.h(0), sim.h(1), sim.mcx([(0, sim.CLOSED)], 3), *BELOW_THE_SPLIT[name]))
    state = random_state(3)
    out = sim.run_circuit(state, circuit)
    assert (sizes, joins) == ({8}, [2])
    assert np.array_equal(out.amplitudes, sim.run_circuit(padded(state, 4), circuit).amplitudes)


@st.composite
def compiled_cases(draw):
    """A random circuit on 2-6 qubits, a state 0-2 qubits narrower, and whether to split from any size.

    The circuit is segments of one family each: a CNOT/SWAP run, whose
    pending map the MCX runs after it read through or flush; H gates; X
    gates, on known bits too; an MCX run on one target; and a selector-like
    MCX run on the top qubit with its controls below, which splits a state
    one qubit narrower.
    """
    n = draw(st.integers(2, 6))
    qubit = st.integers(0, n - 1)
    gates = []
    for family in draw(st.lists(st.sampled_from(["map", "H", "X", "MCX", "selector"]), max_size=7)):
        count = draw(st.integers(1, 4))
        if family == "map":
            for _ in range(count):
                a, b = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
                gates.append(sim.cnot(a, b) if draw(st.booleans()) else sim.swap(a, b))
        elif family in ("H", "X"):
            gates += [(sim.h if family == "H" else sim.x)(draw(qubit)) for _ in range(count)]
        else:
            target = n - 1 if family == "selector" else draw(qubit)
            others = [q for q in range(n) if q != target]
            for _ in range(count):
                controls = draw(st.lists(st.sampled_from(others), unique=True))
                gates.append(sim.mcx([(q, draw(st.sampled_from([sim.OPEN, sim.CLOSED]))) for q in controls], target))
    return Circuit(n, tuple(gates)), draw(st.integers(max(1, n - 2), n)), draw(st.booleans())


@settings(max_examples=300, deadline=None, derandomize=True)
@given(compiled_cases(), st.booleans(), st.integers(0, 2**32 - 1))
def test_compiled_records_execute_as_the_gate_fold(case, complex_state, seed):
    # _compile's records, run by the executor, against apply_gate gate by
    # gate, on full, narrow and split states; without an H every record only
    # moves amplitudes, so the bits must match exactly
    circuit, width, split_any_size = case
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << width)
    if complex_state:
        amps = amps + 1j * rng.standard_normal(1 << width)
    state = sim.Statevector(width, amps / np.linalg.norm(amps))
    before = state.amplitudes.copy()
    records = sim._compile(circuit, width, state.amplitudes.itemsize)
    assert records == sim._compile(circuit, width, state.amplitudes.itemsize)
    assert records[-1][0] == "end" and all(step != "end" for step, _ in records[:-1])
    with mock.patch.object(sim, "_ALIGN_FLOOR", 0 if split_any_size else sim._ALIGN_FLOOR):
        compiled = sim.run_circuit(state, circuit)
    assert np.array_equal(state.amplitudes, before)
    folded = padded(functools.reduce(sim.apply_gate, circuit.gates, state), circuit.n_qubits).amplitudes
    if any(gate.kind == "H" for gate in circuit.gates):
        assert_allclose(compiled.amplitudes, folded, rtol=0, atol=1e-12)
    else:
        assert np.array_equal(compiled.amplitudes, folded)


@pytest.mark.parametrize("name", INPUT_LAYER_CIRCUITS)
def test_run_circuit_never_writes_a_narrower_input(name):
    # the same circuits on 2 qubits under their 3: qubit 2 is a known bit
    circuit = INPUT_LAYER_CIRCUITS[name]
    state = random_state(2)
    before = state.amplitudes.copy()
    out = sim.run_circuit(state, circuit)
    assert np.array_equal(state.amplitudes, before)
    assert not np.shares_memory(out.amplitudes, state.amplitudes)
    folded = functools.reduce(sim.apply_gate, circuit.gates, state)
    assert_allclose(out.amplitudes, padded(folded, 3).amplitudes, atol=1e-12)


# ---------------------------------------------------------------------------
# encoding and projection


def test_amplitude_encode_3_4():
    state, scale = sim.amplitude_encode([3.0, 4.0])
    assert scale == 5.0
    assert_allclose(state.amplitudes, [0.6, 0.8])


def test_amplitude_encode_constant():
    state, scale = sim.amplitude_encode(time_series([1.0, 1.0, 1.0, 1.0]))
    assert scale == 2.0
    assert_allclose(state.amplitudes, [0.5, 0.5, 0.5, 0.5])


def test_amplitude_encode_norm_is_signal_norm():
    v = RNG.standard_normal(128)
    state, scale = sim.amplitude_encode(v)
    assert abs(scale - np.linalg.norm(v)) < 1e-12
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


@pytest.mark.parametrize("value", [1e200, 1e-200, 5e-324])
def test_amplitude_encode_huge_and_tiny_samples(value):
    state, scale = sim.amplitude_encode(np.full(8, value))
    assert np.isfinite(scale) and scale > 0
    assert scale == pytest.approx(value * np.sqrt(8), rel=1e-15)
    assert_allclose(state.amplitudes, np.full(8, 1 / np.sqrt(8)), rtol=1e-15)


def test_amplitude_encode_rejects_a_norm_beyond_float64():
    with pytest.raises(sim.NormalizationError, match="overflows"):
        sim.amplitude_encode(np.full(8, 1e308))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_amplitude_encode_rejects_non_finite_samples(bad):
    values = np.ones(8)
    values[3] = bad
    with pytest.raises(sim.NormalizationError, match="non-finite"):
        sim.amplitude_encode(values)


def test_amplitude_encode_rejects_zero_and_bad_size():
    with pytest.raises(sim.NormalizationError):
        sim.amplitude_encode([0.0, 0.0])
    with pytest.raises(SizingError):
        sim.amplitude_encode([1.0, 2.0, 3.0])


def test_project_ancilla_product_state():
    a = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
    a /= np.linalg.norm(a)
    b = RNG.standard_normal(4) + 1j * RNG.standard_normal(4)
    b /= np.linalg.norm(b)
    amps = np.concatenate([a, b]) / np.sqrt(2)
    state = sim.Statevector(3, amps)
    branch0, p0 = sim.project_ancilla(state, 2, 0)
    branch1, p1 = sim.project_ancilla(state, 2, 1)
    assert_allclose(branch0, a / np.sqrt(2), atol=1e-14)
    assert_allclose(branch1, b / np.sqrt(2), atol=1e-14)
    assert abs(p0 - 0.5) < 1e-12 and abs(p1 - 0.5) < 1e-12


def test_project_ancilla_orthogonal_branch_is_zero():
    # ancilla definitely |1>: outcome 0 has nothing
    amps = np.zeros(8, dtype=complex)
    amps[4:] = 0.5
    state = sim.Statevector(3, amps)
    branch, p = sim.project_ancilla(state, 2, 0)
    assert np.all(branch == 0) and p == 0.0


def test_project_ancilla_middle_qubit_ordering():
    # projecting qubit 1 of |i> keeps bits (2,0) packed as a 2-bit index
    state = sim.basis_state(3, 0b110)
    branch, p = sim.project_ancilla(state, 1, 1)
    expected = np.zeros(4, dtype=complex)
    expected[0b10] = 1.0  # remaining bits: qubit2=1 -> high, qubit0=0 -> low
    assert_allclose(branch, expected)
    assert p == 1.0


@pytest.mark.parametrize("outcome", [True, 1.0, np.int64(1)])
def test_project_ancilla_reads_an_integral_outcome(outcome):
    # a bool used to index a new axis and return the whole state
    state = random_state(3)
    branch, p = sim.project_ancilla(state, 1, outcome)
    want, p_want = sim.project_ancilla(state, 1, 1)
    assert branch.shape == (4,)
    assert np.array_equal(branch, want) and p == p_want


@pytest.mark.parametrize("outcome", [0.5, "1", None])
def test_project_ancilla_rejects_a_non_integral_outcome(outcome):
    with pytest.raises(ValueError, match="outcome must be an integer"):
        sim.project_ancilla(random_state(2), 1, outcome)


def test_project_ancilla_probabilities_sum():
    state = random_state(5)
    _, p0 = sim.project_ancilla(state, 4, 0)
    _, p1 = sim.project_ancilla(state, 4, 1)
    assert abs(p0 + p1 - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# construction and validation


def test_statevector_norm_enforced():
    with pytest.raises(sim.NormalizationError):
        sim.Statevector(1, np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match=r"^expected 2\*\*2 amplitudes, got shape \(2,\)$"):
        sim.Statevector(2, [1.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_statevector_rejects_non_finite_amplitudes(bad):
    with pytest.raises(sim.NormalizationError):
        sim.Statevector(1, np.array([bad, 0.0]))


def test_gate_validation():
    with pytest.raises(ValueError):
        sim.Gate("RY", (0,))
    with pytest.raises(ValueError):
        sim.cnot(1, 1)
    with pytest.raises(ValueError):
        sim.mcx([(0, "up")], 1)
    with pytest.raises(ValueError):
        sim.mcx([(1, sim.OPEN)], 1)
    with pytest.raises(ValueError):
        sim.Gate("H", (0, 1))
    with pytest.raises(ValueError):
        sim.Gate("X", (-1,))
    for make, message in [(lambda: sim.Gate("MCX", ()), "MCX needs a target qubit"),
                          (lambda: sim.Gate("MCX", (0, 1), ()), "one polarity per control is required"),
                          (lambda: sim.Gate("H", (0,), (sim.OPEN,)), "H takes no polarities")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            make()
    # a float index used to construct and then fail in a shift inside run_circuit
    for make in (lambda: sim.h(1.5), lambda: sim.h(np.float64(1.0)), lambda: sim.cnot(0, 1.0),
                 lambda: sim.mcx([(np.float32(0.0), sim.OPEN)], 1), lambda: sim.Gate("SWAP", (0, "1"))):
        with pytest.raises(ValueError, match="qubit index must be an integer"):
            make()
    # numpy integers stay accepted
    gate = sim.cnot(np.int64(0), np.int32(2))
    assert gate == sim.cnot(0, 2)
    assert sim.run_circuit(sim.basis_state(3, 1), Circuit(3, (gate,))).amplitudes[5] == 1.0


def test_basis_state_range_check():
    with pytest.raises(ValueError):
        sim.basis_state(2, 4)
    with pytest.raises(ValueError):
        sim.project_ancilla(random_state(2), 1, 2)
    with pytest.raises(ValueError, match="^qubit 2 out of range for 2$"):
        sim.project_ancilla(sim.basis_state(2), 2, 0)
