"""Circuit builder tests: permutation realization, selector truth tables,
pinned filter-circuit shapes, gate statistics, serialization."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from walshdsp import circuits as qc
from walshdsp import simulator as sim
from walshdsp import transforms as tr
from walshdsp.filters import FilterSpec


def realized_permutation(circuit: qc.Circuit) -> list[int]:
    """Where each basis state ends up; asserts the circuit is a permutation."""
    out = []
    for s in range(1 << circuit.n_qubits):
        final = sim.run_circuit(sim.basis_state(circuit.n_qubits, s), circuit)
        hits = np.flatnonzero(np.abs(final.amplitudes) > 0.5)
        assert hits.size == 1
        assert abs(final.amplitudes[hits[0]] - 1.0) < 1e-12
        out.append(int(hits[0]))
    return out


def kinds(circuit: qc.Circuit) -> list[str]:
    return [g.kind for g in circuit.gates]


# ---------------------------------------------------------------------------
# the reordering circuit


@pytest.mark.parametrize("n", range(1, 13))
def test_uz_gate_inventory(n):
    stats = qc.gate_stats(qc.build_uz(n))
    assert stats.counts["CNOT"] == n - 1
    assert stats.counts["SWAP"] == n // 2
    assert stats.counts["H"] == stats.counts["X"] == stats.counts["MCX"] == 0
    assert stats.total == (n - 1) + n // 2


def test_uz_n1_is_empty():
    assert qc.build_uz(1).gates == ()


def test_uz_maps_5_to_6():
    perm = realized_permutation(qc.build_uz(3))
    assert perm[5] == 6


@pytest.mark.parametrize("n", range(1, 7))
def test_uz_realizes_sequency_permutation(n):
    fwd, inv = tr.natural_to_sequency_perm(n)
    assert realized_permutation(qc.build_uz(n)) == fwd.tolist()
    assert realized_permutation(qc.build_uz_inverse(n)) == inv.tolist()


def test_uz_inverse_composes_to_identity():
    n = 3
    both = qc.Circuit(n, qc.build_uz(n).gates + qc.build_uz_inverse(n).gates)
    assert realized_permutation(both) == list(range(8))


def test_uz_inverse_is_reversed_gate_list():
    n = 5
    assert qc.build_uz_inverse(n).gates == tuple(reversed(qc.build_uz(n).gates))


def test_uz_rejects_zero_qubits():
    with pytest.raises(ValueError):
        qc.build_uz(0)


# ---------------------------------------------------------------------------
# sequency transform circuit


def test_sequency_wht_uniform_from_zero():
    out = sim.run_circuit(sim.basis_state(3, 0), qc.build_sequency_wht(3))
    assert_allclose(out.amplitudes, np.full(8, 1 / np.sqrt(8)), atol=1e-14)


@pytest.mark.parametrize("n", range(1, 7))
def test_sequency_wht_matches_matrix_columns(n):
    mat = tr.sequency_matrix(n)
    circuit = qc.build_sequency_wht(n)
    for j in range(1 << n):
        out = sim.run_circuit(sim.basis_state(n, j), circuit)
        assert np.max(np.abs(out.amplitudes.imag)) == 0.0
        assert_allclose(out.amplitudes.real, mat[:, j], atol=1e-12)


def test_sequency_wht_inventory_n7():
    stats = qc.gate_stats(qc.build_sequency_wht(7))
    assert stats.counts == {"H": 7, "X": 0, "CNOT": 6, "SWAP": 3, "MCX": 0}


# ---------------------------------------------------------------------------
# selector


def selector_flip_set(n: int, band) -> set[int]:
    """Which data indices flip the ancilla, by exhaustive basis simulation."""
    circuit = qc.build_sequency_selector(n, band)
    flips = set()
    for k in range(1 << n):
        final = sim.run_circuit(sim.basis_state(n + 1, k), circuit)
        landed = int(np.flatnonzero(np.abs(final.amplitudes) > 0.5)[0])
        if landed == k + (1 << n):
            flips.add(k)
        else:
            assert landed == k
    return flips


def test_selector_half_range_single_open_control():
    circuit = qc.build_sequency_selector(7, [(0, 64)])
    assert len(circuit.gates) == 1
    gate = circuit.gates[0]
    assert gate.kind == "MCX"
    assert gate.controls == ((6, sim.OPEN),)
    assert gate.target == 7


def test_selector_quarter_range_two_open_controls():
    circuit = qc.build_sequency_selector(7, [(0, 32)])
    assert len(circuit.gates) == 1
    assert circuit.gates[0].controls == ((6, sim.OPEN), (5, sim.OPEN))


def test_selector_top_quarter_two_closed_controls():
    circuit = qc.build_sequency_selector(7, [(96, 128)])
    assert len(circuit.gates) == 1
    assert circuit.gates[0].controls == ((6, sim.CLOSED), (5, sim.CLOSED))


def test_selector_interval_truth_table():
    assert selector_flip_set(3, [(3, 6)]) == {3, 4, 5}


def test_selector_multi_interval_truth_table():
    assert selector_flip_set(3, [(0, 2), (5, 8)]) == {0, 1, 5, 6, 7}


def test_selector_touching_intervals_merge():
    circuit = qc.build_sequency_selector(3, [(0, 2), (2, 4)])
    assert len(circuit.gates) == 1  # merged [0,4) is a single block
    assert selector_flip_set(3, [(0, 2), (2, 4)]) == {0, 1, 2, 3}


def test_selector_full_range_degenerates_to_uncontrolled_flip():
    circuit = qc.build_sequency_selector(3, [(0, 8)])
    assert len(circuit.gates) == 1
    assert circuit.gates[0].kind == "MCX"
    assert circuit.gates[0].controls == ()
    assert selector_flip_set(3, [(0, 8)]) == set(range(8))


def test_selector_empty_band():
    assert qc.build_sequency_selector(3, []).gates == ()


def test_selector_rejects_bad_intervals():
    with pytest.raises(ValueError):
        qc.build_sequency_selector(3, [(0, 9)])
    with pytest.raises(ValueError):
        qc.build_sequency_selector(3, [(2, 2)])
    with pytest.raises(ValueError):
        qc.build_sequency_selector(3, [(0, 4), (3, 6)])
    # fractional or non-numeric bounds are errors, not truncated to [0:2) or [1:3)
    with pytest.raises(ValueError, match="integer"):
        qc.build_sequency_selector(3, [(0.5, 2.9)])
    with pytest.raises(ValueError, match="integer"):
        qc.build_sequency_selector(3, [("1", "3")])


@pytest.mark.parametrize(
    "band", [[(0, 1)], [(1, 3)], [(2, 7)], [(0, 4), (6, 8)], [(5, 6)]]
)
def test_selector_arbitrary_bands_flip_exactly_in_band(band):
    want = {k for lo, hi in band for k in range(lo, hi)}
    assert selector_flip_set(3, band) == want


@st.composite
def interval_unions(draw):
    """(n, band, mask): cut [0, 2**n) at random points and keep some pieces.

    Kept neighbours touch, so build_sequency_selector's merging is exercised too.
    """
    n = draw(st.integers(1, 6))
    size = 1 << n
    cuts = sorted({0, size, *draw(st.lists(st.integers(1, size - 1), max_size=8))})
    keep = draw(st.lists(st.booleans(), min_size=len(cuts) - 1, max_size=len(cuts) - 1))
    band = [(lo, hi) for lo, hi, k in zip(cuts, cuts[1:], keep) if k]
    mask = np.zeros(size, dtype=bool)
    for lo, hi in band:
        mask[lo:hi] = True
    return n, band, mask


@settings(max_examples=40, deadline=None)
@given(interval_unions())
def test_selector_random_interval_unions_flip_exactly_the_mask(case):
    n, band, mask = case
    assert selector_flip_set(n, band) == set(np.flatnonzero(mask).tolist())


# ---------------------------------------------------------------------------
# filter circuit shapes (pinned)


def test_filter_low_half_shape():
    circuit = qc.build_filter_circuit(7, FilterSpec.low_pass(64))
    expected = (
        ["X"] + ["H"] * 7 + ["CNOT"] * 6 + ["SWAP"] * 3
        + ["MCX"]
        + ["SWAP"] * 3 + ["CNOT"] * 6 + ["H"] * 7
    )
    assert kinds(circuit) == expected
    selector = circuit.gates[17]
    assert selector.controls == ((6, sim.OPEN),)
    assert selector.target == 7


def test_filter_low_quarter_has_x_and_two_open_controls():
    circuit = qc.build_filter_circuit(7, FilterSpec.low_pass(32))
    assert kinds(circuit).count("X") == 1
    mcxs = [g for g in circuit.gates if g.kind == "MCX"]
    assert len(mcxs) == 1
    assert mcxs[0].controls == ((6, sim.OPEN), (5, sim.OPEN))


def test_filter_low_three_quarters_uses_stop_set_form():
    # stop set [96,128) is one dyadic block; cheaper than X + two pass blocks
    circuit = qc.build_filter_circuit(7, FilterSpec.low_pass(96))
    assert kinds(circuit).count("X") == 0
    mcxs = [g for g in circuit.gates if g.kind == "MCX"]
    assert len(mcxs) == 1
    assert mcxs[0].controls == ((6, sim.CLOSED), (5, sim.CLOSED))


def test_filter_high_quarter_uses_stop_set_form():
    circuit = qc.build_filter_circuit(7, FilterSpec.high_pass(32))
    assert kinds(circuit).count("X") == 0
    mcxs = [g for g in circuit.gates if g.kind == "MCX"]
    assert len(mcxs) == 1
    assert mcxs[0].controls == ((6, sim.OPEN), (5, sim.OPEN))


def test_filter_high_half_keeps_x_convention():
    circuit = qc.build_filter_circuit(7, FilterSpec.high_pass(64))
    assert kinds(circuit).count("X") == 1
    mcxs = [g for g in circuit.gates if g.kind == "MCX"]
    assert len(mcxs) == 1
    assert mcxs[0].controls == ((6, sim.CLOSED),)


def test_filter_dc_shape():
    circuit = qc.build_filter_circuit(7, FilterSpec.dc())
    assert kinds(circuit) == ["H"] * 7 + ["MCX"] + ["H"] * 7
    gate = circuit.gates[7]
    assert gate.controls == tuple((q, sim.OPEN) for q in range(6, -1, -1))
    assert gate.target == 7


def test_filter_band_pass_two_mcx_no_x():
    circuit = qc.build_filter_circuit(7, FilterSpec.band_pass(32, 96))
    assert kinds(circuit).count("X") == 0
    mcxs = [g for g in circuit.gates if g.kind == "MCX"]
    assert len(mcxs) == 2
    assert mcxs[0].controls == ((6, sim.OPEN), (5, sim.OPEN))
    assert mcxs[1].controls == ((6, sim.CLOSED), (5, sim.CLOSED))


def test_filter_swapped_toggles_leading_x():
    plain = qc.build_filter_circuit(7, FilterSpec.low_pass(64), swapped=True)
    assert kinds(plain).count("X") == 0
    dc = qc.build_filter_circuit(7, FilterSpec.dc(), swapped=True)
    assert kinds(dc)[0] == "X"


def _every_spec(size):
    yield FilterSpec.dc()
    for c in range(1, size + 1):
        yield FilterSpec.low_pass(c)
        yield FilterSpec.high_pass(c)
    for lo in range(size):
        for hi in range(lo + 1, size + 1):
            yield FilterSpec.band_pass(lo, hi)


@pytest.mark.parametrize("n", range(1, 6))
def test_filter_x_only_as_leading_ancilla_flip(n):
    # a single leading X leaves no X pair that could cancel
    for spec in _every_spec(1 << n):
        for swapped in (False, True):
            gates = qc.build_filter_circuit(n, spec, swapped=swapped).gates
            xs = [i for i, g in enumerate(gates) if g.kind == "X"]
            assert xs in ([], [0]), (spec, swapped)
            assert not xs or gates[0].qubits == (n,)


@pytest.mark.parametrize("n,r", [(3, 1), (5, 2), (7, 3), (9, 1), (12, 4)])
def test_filter_low_dyadic_cutoff_closed_form_counts(n, r):
    circuit = qc.build_filter_circuit(n, FilterSpec.low_pass(1 << (n - r)))
    stats = qc.gate_stats(circuit)
    assert stats.counts == {
        "H": 2 * n,
        "X": 1,
        "CNOT": 2 * (n - 1),
        "SWAP": 2 * (n // 2),
        "MCX": 1,
    }
    assert stats.mcx_arities == (r,)
    assert stats.total == 2 * n + 2 * (n - 1) + 2 * (n // 2) + 2


def test_filter_depth_monotone_for_lowpass_family():
    depths = [
        qc.gate_stats(qc.build_filter_circuit(n, FilterSpec.low_pass(1 << (n - 1)))).depth
        for n in range(3, 9)
    ]
    assert all(b >= a for a, b in zip(depths, depths[1:]))
    for n, depth in zip(range(3, 9), depths):
        total = qc.gate_stats(qc.build_filter_circuit(n, FilterSpec.low_pass(1 << (n - 1)))).total
        assert 0 < depth <= total


def test_filter_rejects_bad_specs():
    # on every call: the builders build trusted only after these checks pass
    for _ in range(2):
        with pytest.raises(ValueError):
            qc.build_filter_circuit(3, FilterSpec.low_pass(9))
        with pytest.raises(ValueError):
            qc.build_filter_circuit(3, FilterSpec.band_pass(4, 9), swapped=True)
        with pytest.raises(ValueError, match="bit width must be an integer"):
            qc.build_filter_circuit(2.0, FilterSpec.dc())
        with pytest.raises(ValueError, match="out of range"):
            qc.build_sequency_selector(3, [(0, 9)])
    with pytest.raises(ValueError):
        qc.build_filter_circuit(3, FilterSpec.band_pass(4, 4))


# ---------------------------------------------------------------------------
# each size's gates are built once and shared


def _uz_by_hand(n):
    return [sim.cnot(k - 1, k) for k in range(1, n)] + [sim.swap(j, n - 1 - j) for j in range(n // 2)]


def _filter_by_hand(n, spec, swapped):
    """The filter circuit gate by gate, the selector from build_sequency_selector."""
    size = 1 << n
    fire_on = {name: qc.build_sequency_selector(n, intervals).gates
               for name, intervals in (("pass", spec.pass_intervals(size)), ("stop", spec.stop_intervals(size)))}
    if spec.kind == "dc":
        fire_pass, uz = False, []
    else:
        fewer = len(fire_on["pass"]) < len(fire_on["stop"])
        tie = len(fire_on["pass"]) == len(fire_on["stop"]) and spec.kind != "band"
        fire_pass, uz = fewer or tie, _uz_by_hand(n)
    h_layer = [sim.h(q) for q in range(n)]
    gates = [sim.x(n)] if fire_pass != swapped else []
    gates += h_layer + uz + list(fire_on["pass" if fire_pass else "stop"]) + uz[::-1] + h_layer
    return gates


def _seeded_specs(n):
    rng = np.random.default_rng(500 + n)
    size = 1 << n
    specs = [FilterSpec.dc(), FilterSpec.low_pass(size), FilterSpec.high_pass(1)]
    for _ in range(3):
        lo = int(rng.integers(0, size))
        specs += [FilterSpec.low_pass(int(rng.integers(1, size + 1))),
                  FilterSpec.high_pass(int(rng.integers(1, size + 1))),
                  FilterSpec.band_pass(lo, int(rng.integers(lo + 1, size + 1)))]
    return specs


@pytest.mark.parametrize("n", range(1, 11))
def test_shared_gates_give_the_circuits_built_gate_by_gate(n):
    h_layer, uz = [sim.h(q) for q in range(n)], _uz_by_hand(n)
    for built, gates in ((qc.build_uz(n), uz), (qc.build_uz_inverse(n), uz[::-1]),
                         (qc.build_sequency_wht(n), h_layer + uz)):
        assert qc.circuit_to_json(built) == qc.circuit_to_json(qc.Circuit(n, gates, built.label))
    for spec in _seeded_specs(n):
        for swapped in (False, True):
            built = qc.build_filter_circuit(n, spec, swapped=swapped)
            by_hand = qc.Circuit(n + 1, _filter_by_hand(n, spec, swapped), built.label)
            assert qc.circuit_to_json(built) == qc.circuit_to_json(by_hand), (spec, swapped)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_builders_read_a_numpy_integer_size_as_int(n):
    spec = FilterSpec.band_pass(0, 1)
    for build in (qc.build_uz, qc.build_uz_inverse, qc.build_sequency_wht,
                  lambda m: qc.build_filter_circuit(m, spec), lambda m: qc.build_filter_circuit(m, spec, swapped=True)):
        assert qc.circuit_to_json(build(np.int64(n))) == qc.circuit_to_json(build(n))
    assert qc.build_uz(np.int64(n)).gates is qc.build_uz(n).gates


def test_builders_refuse_zero_qubits_on_every_call():
    # a cache keeps no exception, and the size is checked before it is read
    for build in (qc.build_uz, qc.build_uz_inverse, qc.build_sequency_wht,
                  lambda m: qc.build_filter_circuit(m, FilterSpec.dc())):
        for _ in range(2):
            with pytest.raises(tr.SizingError):
                build(0)


def _every_circuit_built(n):
    size = 1 << n
    built = [qc.build_uz(n), qc.build_uz_inverse(n), qc.build_sequency_wht(n),
             qc.build_sequency_selector(n, [(0, 1), (size // 2, size)]), qc.build_sequency_selector(n, [(1, size)])]
    return built + [qc.build_filter_circuit(n, spec, swapped=swapped)
                    for spec in _seeded_specs(n) for swapped in (False, True)]


@pytest.mark.parametrize("n", range(1, 13))
def test_trusted_builds_equal_their_rebuild_through_the_public_constructors(n):
    # the builders skip Gate's and Circuit's checks for the gates they make;
    # every gate and circuit they emit passes those checks and rebuilds equal
    for circuit in _every_circuit_built(n):
        gates = [sim.Gate(gate.kind, gate.qubits, gate.polarities) for gate in circuit.gates]
        rebuilt = qc.Circuit(circuit.n_qubits, gates, circuit.label)
        assert rebuilt == circuit, circuit.label
        assert type(circuit) is qc.Circuit and type(circuit.n_qubits) is int
        assert all(type(gate) is sim.Gate for gate in circuit.gates)
        assert [hash(gate) for gate in rebuilt.gates] == [hash(gate) for gate in circuit.gates]


# ---------------------------------------------------------------------------
# gate stats and elision


def test_gate_stats_empty_circuit():
    stats = qc.gate_stats(qc.Circuit(2, ()))
    assert stats.total == 0 and stats.depth == 0
    assert all(v == 0 for v in stats.counts.values())


def test_gate_stats_depth_parallel_vs_chained():
    parallel = qc.Circuit(4, (sim.h(0), sim.h(1), sim.h(2), sim.h(3)))
    assert qc.gate_stats(parallel).depth == 1
    chained = qc.Circuit(4, (sim.cnot(0, 1), sim.cnot(1, 2), sim.cnot(2, 3)))
    assert qc.gate_stats(chained).depth == 3


def test_gate_stats_mcx_arities_sorted_multiset():
    circuit = qc.Circuit(
        5,
        (
            sim.mcx([(0, sim.OPEN), (1, sim.OPEN)], 4),
            sim.mcx([(2, sim.CLOSED)], 4),
            sim.mcx([(0, sim.OPEN), (1, sim.CLOSED)], 3),
        ),
    )
    assert qc.gate_stats(circuit).mcx_arities == (1, 2, 2)
    assert qc.gate_stats(circuit).mcx_controls == 5
    assert qc.gate_stats(circuit).as_dict()["mcx_controls"] == 5


@pytest.mark.parametrize("n", range(1, 17))
def test_mcx_controls_grow_linearly_for_dyadic_cutoffs(n):
    # a cutoff 2**k is one block of 2**k on one side: one MCX on the top n - k
    # data qubits, so N/2 costs 1 control and N/4 costs 2 at every n
    for k in range(n + 1):
        for spec in (FilterSpec.low_pass(1 << k), FilterSpec.high_pass(1 << k)):
            for swapped in (False, True):
                stats = qc.gate_stats(qc.build_filter_circuit(n, spec, swapped=swapped))
                assert stats.mcx_controls == n - k == sum(stats.mcx_arities), (spec, swapped)
    assert qc.gate_stats(qc.build_filter_circuit(n, FilterSpec.dc())).mcx_controls == n


@pytest.mark.parametrize("n", range(2, 21))
def test_mcx_controls_grow_quadratically_for_third_band_edges(n):
    # [N/3, 2N/3): both edges are 0101... in binary, so the pass and stop
    # sets each take about n dyadic blocks of up to n controls
    size = 1 << n
    stats = qc.gate_stats(qc.build_filter_circuit(n, FilterSpec.band_pass(size // 3, 2 * size // 3)))
    assert stats.mcx_controls == (n * n + 2 * n - 4) // 2
    assert stats.counts["MCX"] <= 2 * n


# ---------------------------------------------------------------------------
# serialization


def test_circuit_json_round_trip():
    circuit = qc.build_filter_circuit(4, FilterSpec.band_pass(4, 12))
    text = qc.circuit_to_json(circuit)
    back = qc.circuit_from_json(text)
    assert back.n_qubits == circuit.n_qubits
    assert back.label == circuit.label
    assert back.gates == circuit.gates
    # a description without a label loads with the empty one
    data = json.loads(text)
    del data["label"]
    assert qc.circuit_from_dict(data).label == ""


def test_circuit_json_writes_numpy_integer_indices_as_int():
    plain = qc.Circuit(3, (sim.h(0), sim.cnot(0, 1), sim.swap(1, 2),
                           sim.mcx([(0, sim.OPEN), (1, sim.CLOSED)], 2)))
    i64, i32, u8 = np.int64, np.int32, np.uint8
    numpy_built = qc.Circuit(i64(3), (sim.h(i64(0)), sim.cnot(i32(0), u8(1)), sim.swap(u8(1), i64(2)),
                                      sim.mcx([(i64(0), sim.OPEN), (i32(1), sim.CLOSED)], u8(2))))
    text = qc.circuit_to_json(numpy_built)
    assert text == qc.circuit_to_json(plain)
    back = qc.circuit_from_json(text)
    assert back.gates == plain.gates
    assert qc.circuit_to_json(back) == text


_INDEX_TYPES = st.sampled_from([int, np.int64, np.int32, np.uint8])


@st.composite
def _random_circuits(draw):
    n = draw(st.integers(0, 6))
    gates = []
    for _ in range(draw(st.integers(0, 8) if n else st.just(0))):
        kind = draw(st.sampled_from(["H", "X", "MCX"] + (["CNOT", "SWAP"] if n > 1 else [])))
        size = {"H": 1, "X": 1, "CNOT": 2, "SWAP": 2}.get(kind) or draw(st.integers(1, n))
        qubits = tuple(draw(_INDEX_TYPES)(q) for q in draw(st.permutations(range(n)))[:size])
        polarities = tuple(draw(st.sampled_from([sim.OPEN, sim.CLOSED])) for _ in qubits[1:]) if kind == "MCX" else ()
        gates.append(sim.Gate(kind, qubits, polarities))
    return qc.Circuit(draw(_INDEX_TYPES)(n), gates, draw(st.text()))


@settings(max_examples=300, deadline=None)
@given(_random_circuits())
def test_circuit_json_reads_back_every_circuit_it_writes(circuit):
    assert qc.circuit_from_json(qc.circuit_to_json(circuit)) == circuit


@pytest.mark.parametrize("n", range(1, 9))
def test_every_builder_reads_back_from_json(n):
    size = 1 << n
    built = [qc.build_uz(n), qc.build_uz_inverse(n), qc.build_sequency_wht(n),
             qc.build_sequency_selector(n, [(0, 1), (size // 2, size)])]
    built += [qc.build_filter_circuit(n, spec, swapped=swapped)
              for spec in _seeded_specs(n) for swapped in (False, True)]
    for circuit in built:
        assert qc.circuit_from_json(qc.circuit_to_json(circuit)) == circuit, circuit.label


@pytest.mark.parametrize("label", [5, None, b"demo", ("demo",)], ids=["int", "none", "bytes", "tuple"])
def test_circuit_label_must_be_a_string(label):
    # checked at construction, so every circuit that builds can be written and read back
    with pytest.raises(ValueError) as err:
        qc.Circuit(2, (sim.h(0),), label)
    assert str(err.value) == f"label must be a string, got {label!r}"
    # and first, before the register
    with pytest.raises(ValueError, match="label must be a string"):
        qc.Circuit(-1, (sim.h(3),), label)


def test_circuit_json_fields():
    circuit = qc.Circuit(
        3, (sim.h(0), sim.x(2), sim.cnot(0, 1), sim.swap(1, 2), sim.mcx([(0, sim.OPEN)], 2)),
        label="demo",
    )
    data = json.loads(qc.circuit_to_json(circuit))
    assert data["format"] == "walshdsp-circuit"
    assert data["version"] == 1
    assert data["label"] == "demo"
    assert data["n_qubits"] == 3
    assert data["gates"][0] == {"kind": "H", "qubit": 0}
    assert data["gates"][1] == {"kind": "X", "qubit": 2}
    assert data["gates"][2] == {"kind": "CNOT", "control": 0, "target": 1}
    assert data["gates"][3] == {"kind": "SWAP", "a": 1, "b": 2}
    assert data["gates"][4] == {
        "kind": "MCX",
        "controls": [{"qubit": 0, "polarity": "open"}],
        "target": 2,
    }


_GOLDEN_JSON = """\
{
  "format": "walshdsp-circuit",
  "version": 1,
  "label": "golden",
  "n_qubits": 3,
  "gates": [
    {
      "kind": "H",
      "qubit": 0
    },
    {
      "kind": "X",
      "qubit": 2
    },
    {
      "kind": "CNOT",
      "control": 0,
      "target": 1
    },
    {
      "kind": "SWAP",
      "a": 1,
      "b": 2
    },
    {
      "kind": "MCX",
      "controls": [
        {
          "qubit": 0,
          "polarity": "open"
        },
        {
          "qubit": 1,
          "polarity": "closed"
        }
      ],
      "target": 2
    },
    {
      "kind": "MCX",
      "controls": [],
      "target": 1
    }
  ]
}
"""


def test_circuit_json_golden_string():
    # the string, not the parsed dict, so that key order is pinned too
    gates = (sim.h(0), sim.x(2), sim.cnot(0, 1), sim.swap(1, 2),
             sim.mcx([(0, sim.OPEN), (1, sim.CLOSED)], 2), sim.mcx([], 1))
    circuit = qc.Circuit(3, gates, label="golden")
    assert qc.circuit_to_json(circuit) == _GOLDEN_JSON
    assert qc.circuit_from_json(_GOLDEN_JSON) == circuit


def test_circuit_from_json_rejects_an_unknown_kind():
    text = _GOLDEN_JSON.replace('"kind": "SWAP"', '"kind": "TOFFOLI"')
    with pytest.raises(ValueError, match="unknown gate kind 'TOFFOLI'"):
        qc.circuit_from_json(text)


def test_gate_stats_counts_follow_gate_kinds():
    stats = qc.gate_stats(qc.build_filter_circuit(4, FilterSpec.band_pass(3, 11)))
    assert tuple(stats.as_dict()["counts"]) == sim.GATE_KINDS
    assert tuple(qc.gate_stats(qc.Circuit(1, ())).counts) == sim.GATE_KINDS


def test_circuit_json_stable_bytes():
    circuit = qc.build_sequency_wht(3)
    assert qc.circuit_to_json(circuit) == qc.circuit_to_json(qc.build_sequency_wht(3))


def test_circuit_from_dict_rejects_foreign_format():
    with pytest.raises(ValueError):
        qc.circuit_from_dict({"format": "other", "n_qubits": 1, "gates": []})


@pytest.mark.parametrize("version", [None, 0, 2, 99, "1"])
def test_circuit_from_dict_rejects_other_versions(version):
    record = qc.circuit_to_dict(qc.build_uz(3))
    if version is None:
        del record["version"]
    else:
        record["version"] = version
    with pytest.raises(ValueError, match="version"):
        qc.circuit_from_dict(record)


def test_circuit_validates_gate_range():
    # a circuit's gates lie below its width; applied to a narrower state, a
    # gate pads it with |0> qubits instead
    with pytest.raises(ValueError) as built:
        qc.Circuit(2, (sim.h(2),))
    assert str(built.value) == "gate H on (2,) exceeds 2 qubits"
    assert sim.apply_gate(sim.basis_state(2), sim.h(2)).n_qubits == 3


def test_gate_kinds_are_the_operand_table_keys():
    assert sim.GATE_KINDS == tuple(sim.GATE_OPERANDS)


def _one_gate_dict(gate_record, n_qubits=3):
    return {"format": "walshdsp-circuit", "version": 1, "label": "",
            "n_qubits": n_qubits, "gates": [gate_record]}


@pytest.mark.parametrize(
    "data",
    [
        _one_gate_dict({"kind": "MCX", "controls": [{"qubit": 0.5, "polarity": "open"}], "target": 2}),
        _one_gate_dict({"kind": "MCX", "controls": [], "target": 1.5}),
        _one_gate_dict({"kind": "H", "qubit": 1.5}),
        _one_gate_dict({"kind": "H", "qubit": "1"}),
        _one_gate_dict({"kind": "CNOT", "control": 0, "target": float("nan")}),
        _one_gate_dict({"kind": "H", "qubit": 1}, n_qubits=2.5),
        _one_gate_dict({"kind": "H", "qubit": 1}, n_qubits="3"),
    ],
    ids=["mcx-control-0.5", "mcx-target-1.5", "h-1.5", "h-str", "cnot-nan", "n_qubits-2.5", "n_qubits-str"],
)
def test_circuit_from_dict_rejects_non_integral_indices(data):
    # a cast would silently move the gate to another qubit or shrink the register
    with pytest.raises(ValueError, match="must be an integer"):
        qc.circuit_from_dict(data)


_NO_GATES = {"format": "walshdsp-circuit", "version": 1, "label": "", "n_qubits": 3}


@pytest.mark.parametrize(
    "data, message",
    [
        (_NO_GATES, "circuit description has no 'gates' field"),
        ({**_NO_GATES, "gates": 5}, "gates must be a list, got 5"),
        ({k: v for k, v in _one_gate_dict({"kind": "H", "qubit": 1}).items() if k != "n_qubits"},
         "circuit description has no 'n_qubits' field"),
        (_one_gate_dict({"qubit": 1}), "gate record has no 'kind' field"),
        (_one_gate_dict({"kind": "H"}), "H gate record has no 'qubit' field"),
        (_one_gate_dict({"kind": "CNOT", "control": 0}), "CNOT gate record has no 'target' field"),
        (_one_gate_dict(["H", 1]), "gate record must be an object, got ['H', 1]"),
        (_one_gate_dict({"kind": ["H"], "qubit": 1}), "unknown gate kind ['H']"),
        (_one_gate_dict({"kind": "MCX", "controls": [0], "target": 2}), "MCX control must be an object, got 0"),
        (_one_gate_dict({"kind": "MCX", "controls": 0, "target": 2}), "MCX controls must be a list, got 0"),
        (_one_gate_dict({"kind": "MCX", "controls": [{"qubit": 0}], "target": 2}),
         "MCX control has no 'polarity' field"),
        ([], "not a walshdsp circuit description"),
        ({**_one_gate_dict({"kind": "H", "qubit": 1}), "label": None}, "label must be a string, got None"),
        ({**_one_gate_dict({"kind": "H", "qubit": 1}), "label": 5}, "label must be a string, got 5"),
        (_one_gate_dict({"kind": "H", "qubit": True}), "qubit index must be an integer, got True"),
        (_one_gate_dict({"kind": "MCX", "controls": [{"qubit": False, "polarity": "open"}], "target": 2}),
         "qubit index must be an integer, got False"),
        (_one_gate_dict({"kind": "H", "qubit": 0}, n_qubits=True), "n_qubits must be an integer, got True"),
        ({**_one_gate_dict({"kind": "H", "qubit": 1}), "version": True},
         "unsupported circuit description version True"),
    ],
    ids=["no-gates", "gates-not-a-list", "no-n_qubits", "no-kind", "h-no-qubit", "cnot-no-target",
         "record-not-an-object", "kind-not-a-string", "mcx-control-not-an-object",
         "mcx-controls-not-a-list", "mcx-control-no-polarity", "not-an-object",
         "label-null", "label-not-a-string", "h-qubit-true", "mcx-control-false", "n_qubits-true",
         "version-true"],
)
def test_circuit_from_dict_names_what_is_missing_or_malformed(data, message):
    with pytest.raises(ValueError) as err:
        qc.circuit_from_dict(data)
    assert str(err.value) == message
    with pytest.raises(ValueError) as err:
        qc.circuit_from_json(json.dumps(data))
    assert str(err.value) == message


def test_circuit_from_dict_reads_integral_floats_as_int():
    data = _one_gate_dict({"kind": "MCX", "controls": [{"qubit": 1.0, "polarity": "closed"}],
                           "target": 2.0}, n_qubits=3.0)
    circuit = qc.circuit_from_dict(data)
    assert circuit == qc.Circuit(3, (sim.mcx([(1, sim.CLOSED)], 2),))
    assert all(type(q) is int for q in circuit.gates[0].qubits)
    text = qc.circuit_to_json(circuit)
    assert '"qubit": 1,' in text and '"target": 2' in text and '"n_qubits": 3,' in text
