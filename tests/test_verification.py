"""The self-check suites must pass on the real code and fail on broken code."""

import dataclasses
import time

import pytest

from walshdsp import circuits, filters, transforms, verification


def test_run_all_passes():
    results = verification.run_all(n_max=6)
    assert [r.name for r in results] == ["sequency-map", "circuit-vs-matrix", "path-equivalence",
                                         "path-equivalence"]
    for r in results:
        assert r.ok, f"{r.name}: {r.detail}"
        assert r.detail
    # one size each side of the split ancilla's floor
    assert [r.detail.split(" at ")[1] for r in results[2:]] == ["N=64 within 1e-10", "N=16384 within 1e-10"]


def _break_map(monkeypatch):
    real = transforms.sequency_of  # captured first, or the patch would call itself

    def broken(s, n):
        # one transposed output pair at n=3
        return real(11 - s if n == 3 and s in (5, 6) else s, n)

    monkeypatch.setattr(transforms, "sequency_of", broken)


def _drop_a_gate(monkeypatch):
    real = circuits.build_sequency_wht

    def broken(n):
        # the closing SWAP of the reordering goes missing at n=3
        circuit = real(n)
        gates = circuit.gates[:-1] if n == 3 else circuit.gates
        return circuits.Circuit(circuit.n_qubits, gates, circuit.label)

    monkeypatch.setattr(circuits, "build_sequency_wht", broken)


def _flip_a_kernel_sign(monkeypatch):
    real = transforms._hadamard_layer

    def broken(*args, **kwargs):
        # the classical transform's last coefficient changes sign at n=3; the
        # simulator holds its own binding, so only wht_sequency sees this
        out, spare = real(*args, **kwargs)
        if out.size == 8:
            out[-1] = -out[-1]
        return out, spare

    monkeypatch.setattr(transforms, "_hadamard_layer", broken)


def _break_map_above_the_table(monkeypatch):
    real = transforms.sequency_of

    def broken(s, n):
        # the frozen n=3 table still holds; one n=4 output pair is transposed
        return real(15 - s if n == 4 and s in (7, 8) else s, n)

    monkeypatch.setattr(transforms, "sequency_of", broken)


def _break_recursion(monkeypatch):
    real = transforms.sequency_recursion_trace

    def broken(s, n):
        # the doubling recursion ends one off for one row at n=3
        trace = real(s, n)
        return trace[:-1] + [trace[-1] ^ 1] if (s, n) == (5, 3) else trace

    monkeypatch.setattr(transforms, "sequency_recursion_trace", broken)


def _shift_quantum_result(first_sample=0.0, p_pass=0.0):
    def inject(monkeypatch):
        real = filters.filter_quantum

        def broken(signal, spec, **kwargs):
            # the pass branch's first sample and p_pass moved by the shifts
            result = real(signal, spec, **kwargs)
            values = result.pass_branch.values.copy()
            values[0] += first_sample
            return dataclasses.replace(result, pass_branch=transforms.time_series(values),
                                       p_pass=result.p_pass + p_pass)

        monkeypatch.setattr(filters, "filter_quantum", broken)

    return inject


@pytest.mark.parametrize(
    "check,inject,detail",
    [(verification.check_sequency_map, _break_map, "n=3"),
     (verification.check_circuit_vs_matrix, _drop_a_gate, "n=3"),
     (verification.check_circuit_vs_matrix, _flip_a_kernel_sign, "n=3"),
     (verification.check_sequency_map, _break_map_above_the_table, "mismatch at s=7, n=4"),
     (verification.check_sequency_map, _break_recursion, "recursion ends at 7 for s=5, n=3"),
     # the input norm at N=16 is 4, so 1e-6 in one sample is far beyond the
     # scaled 1e-10, and 3e-10 is within it but not within the absolute 1e-10
     # of the rebuilt input
     (verification.check_path_equivalence, _shift_quantum_result(first_sample=1e-6), "low c=4: scaled error"),
     (verification.check_path_equivalence, _shift_quantum_result(p_pass=1e-9),
      "low c=4: probabilities do not sum to 1"),
     (verification.check_path_equivalence, _shift_quantum_result(first_sample=3e-10),
      "low c=4: branches do not rebuild the input")],
    ids=["map", "matrix", "kernel", "map-above-the-table", "recursion", "path-error", "path-probability",
         "path-reconstruction"],
)
def test_injected_fault_is_detected(monkeypatch, check, inject, detail):
    assert check(4).ok
    inject(monkeypatch)
    result = check(4)
    assert not result.ok
    assert detail in result.detail


def test_path_equivalence_standalone():
    result = verification.check_path_equivalence(5)
    assert result.ok, result.detail


_FLOOR = "bit width must be at least 1 (2 samples), got {}"


@pytest.mark.parametrize("n_max", [0, -1])
@pytest.mark.parametrize(
    "check",
    [verification.run_all, verification.check_sequency_map, verification.check_circuit_vs_matrix],
    ids=["run_all", "map", "matrix"],
)
def test_checks_refuse_a_width_below_one(check, n_max):
    # a range of widths that is empty would otherwise pass having checked nothing
    with pytest.raises(transforms.SizingError) as err:
        check(n_max)
    assert str(err.value) == _FLOOR.format(n_max)


def test_run_all_caps_each_suite():
    # the map suite's cost grows fourfold per bit, so a large n_max is capped
    start = time.perf_counter()
    results = {r.name: r for r in verification.run_all(40)}
    assert time.perf_counter() - start < 60.0
    assert all(r.ok for r in results.values())
    assert results["sequency-map"].detail.endswith("for all n <= 12")
    assert results["circuit-vs-matrix"].detail.endswith("for n <= 8")
