"""Circuit builder tests: permutation realization, selector truth tables,
pinned filter-circuit shapes, gate statistics, serialization."""

from __future__ import annotations

import json

import numpy as np
import pytest
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


@pytest.mark.parametrize(
    "band", [[(0, 1)], [(1, 3)], [(2, 7)], [(0, 4), (6, 8)], [(5, 6)]]
)
def test_selector_arbitrary_bands_flip_exactly_in_band(band):
    want = {k for lo, hi in band for k in range(lo, hi)}
    assert selector_flip_set(3, band) == want


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
    with pytest.raises(ValueError):
        qc.build_filter_circuit(3, FilterSpec.low_pass(9))
    with pytest.raises(ValueError):
        qc.build_filter_circuit(3, FilterSpec.band_pass(4, 4))


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


# ---------------------------------------------------------------------------
# serialization


def test_circuit_json_round_trip():
    circuit = qc.build_filter_circuit(4, FilterSpec.band_pass(4, 12))
    text = qc.circuit_to_json(circuit)
    back = qc.circuit_from_json(text)
    assert back.n_qubits == circuit.n_qubits
    assert back.label == circuit.label
    assert back.gates == circuit.gates


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


def test_circuit_json_stable_bytes():
    circuit = qc.build_sequency_wht(3)
    assert qc.circuit_to_json(circuit) == qc.circuit_to_json(qc.build_sequency_wht(3))


def test_circuit_from_dict_rejects_foreign_format():
    with pytest.raises(ValueError):
        qc.circuit_from_dict({"format": "other", "n_qubits": 1, "gates": []})


def test_circuit_validates_gate_range():
    with pytest.raises(ValueError):
        qc.Circuit(2, (sim.h(2),))
