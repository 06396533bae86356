"""Filter tests: frozen oracle values, quantum-vs-classical agreement,
energy bookkeeping, and the spec/convention surface."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from walshdsp import circuits as qc
from walshdsp import filters as flt
from walshdsp import signals as sg
from walshdsp import simulator as sim
from walshdsp import transforms as tr

RNG = np.random.default_rng(123)

# hand-frozen before the implementation existed: f = [1,2,3,4], keep the two
# lowest sequencies. Sequency spectrum [5,-2,0,-1]; exact dyadic outputs.
F1234 = [1.0, 2.0, 3.0, 4.0]
F1234_LOW2_PASS = [1.5, 1.5, 3.5, 3.5]
F1234_LOW2_STOP = [-0.5, 0.5, -0.5, 0.5]

H4S = np.array(
    [
        [1, 1, 1, 1],
        [1, 1, -1, -1],
        [1, -1, -1, 1],
        [1, -1, 1, -1],
    ]
) / 2.0


def stop_indices(spec: flt.FilterSpec, size: int) -> list[int]:
    keep = {k for lo, hi in spec.pass_intervals(size) for k in range(lo, hi)}
    return [k for k in range(size) if k not in keep]


def test_frozen_lowpass_oracle_values():
    spec = flt.FilterSpec.low_pass(2)
    passed, stopped = flt.filter_classical_oracle(F1234, spec)
    assert_allclose(passed.values, F1234_LOW2_PASS, atol=1e-14)
    assert_allclose(stopped.values, F1234_LOW2_STOP, atol=1e-14)
    # cross-check against literal dense 4x4 matrices
    fhat = H4S @ F1234
    assert_allclose(fhat, [5, -2, 0, -1], atol=1e-14)
    mask = np.array([1.0, 1.0, 0.0, 0.0])
    assert_allclose(H4S @ (mask * fhat), F1234_LOW2_PASS, atol=1e-14)


def test_lowpass_full_cutoff_passes_everything():
    passed, stopped = flt.filter_classical_oracle(F1234, flt.FilterSpec.low_pass(4))
    assert_allclose(passed.values, F1234, atol=1e-14)
    assert_allclose(stopped.values, np.zeros(4), atol=1e-14)


def test_oracle_reconstruction_tight():
    v = RNG.standard_normal(256)
    for spec in (
        flt.FilterSpec.low_pass(64),
        flt.FilterSpec.high_pass(100),
        flt.FilterSpec.band_pass(3, 200),
        flt.FilterSpec.dc(),
    ):
        passed, stopped = flt.filter_classical_oracle(v, spec)
        assert_allclose(passed.values + stopped.values, v, atol=1e-12)


def test_dc_remove_oracle():
    assert_allclose(flt.dc_remove_oracle([5.0, 5.0, 5.0, 5.0]).values, np.zeros(4))
    v = np.array([1.0, -1.0, 1.0, -1.0])
    assert_allclose(flt.dc_remove_oracle(v).values, v)
    w = RNG.standard_normal(128)
    via_highpass = flt.filter_classical_oracle(w, flt.FilterSpec.high_pass(1))[0]
    assert_allclose(flt.dc_remove_oracle(w).values, via_highpass.values, atol=1e-13)


def test_dc_oracle_stop_branch_is_mean():
    w = RNG.standard_normal(64)
    passed, stopped = flt.filter_classical_oracle(w, flt.FilterSpec.dc())
    assert_allclose(stopped.values, np.full(64, w.mean()), atol=1e-13)
    assert_allclose(passed.values, w - w.mean(), atol=1e-13)


# ---------------------------------------------------------------------------
# quantum path


def test_quantum_pure_dc_input_has_empty_highpass_branch():
    result = flt.filter_quantum(np.ones(8), flt.FilterSpec.high_pass(1))
    assert result.p_pass < 1e-24
    assert np.max(np.abs(result.pass_branch.values)) < 1e-12
    assert_allclose(result.stop_branch.values, np.ones(8), atol=1e-12)


def test_quantum_matches_oracle_square_wave():
    signal = sg.discretize(sg.Waveform("square", cycles=2.0), 6)
    spec = flt.FilterSpec.low_pass(16)
    result = flt.filter_quantum(signal, spec)
    o_pass, o_stop = flt.filter_classical_oracle(signal, spec)
    assert flt.compare(result.pass_branch, o_pass)["linf"] < 1e-10
    assert flt.compare(result.stop_branch, o_stop)["linf"] < 1e-10
    assert abs(result.p_pass + result.p_stop - 1.0) < 1e-12


def test_quantum_branch_probabilities_match_energy():
    signal = sg.tone_composite(6)
    result = flt.filter_quantum(signal, flt.FilterSpec.low_pass(32))
    energy = np.linalg.norm(signal.values) ** 2
    assert abs(result.p_pass * result.scale**2 - np.linalg.norm(result.pass_branch.values) ** 2) < 1e-10
    assert abs(result.scale**2 - energy) < 1e-9


def test_quantum_reconstruction_and_scale():
    signal = sg.step_composite(6)
    result = flt.filter_quantum(signal, flt.FilterSpec.band_pass(8, 40))
    total = result.pass_branch.values + result.stop_branch.values
    assert_allclose(total, signal.values, atol=1e-10)
    assert abs(result.scale - np.linalg.norm(signal.values)) < 1e-12


def test_quantum_complementarity_low_plus_high():
    signal = sg.tone_composite(5)
    low = flt.filter_quantum(signal, flt.FilterSpec.low_pass(8))
    high = flt.filter_quantum(signal, flt.FilterSpec.high_pass(8))
    assert_allclose(
        low.pass_branch.values + high.pass_branch.values, signal.values, atol=1e-10
    )


def test_oracle_complementarity_exact():
    v = RNG.standard_normal(64)
    low_pass, _ = flt.filter_classical_oracle(v, flt.FilterSpec.low_pass(20))
    high_pass, _ = flt.filter_classical_oracle(v, flt.FilterSpec.high_pass(20))
    assert_allclose(low_pass.values + high_pass.values, v, atol=1e-12)


def test_quantum_idempotence():
    signal = sg.tone_composite(5)
    spec = flt.FilterSpec.low_pass(8)
    once = flt.filter_quantum(signal, spec)
    twice = flt.filter_quantum(once.pass_branch, spec)
    assert flt.compare(twice.pass_branch, once.pass_branch)["linf"] < 1e-10


@pytest.mark.parametrize(
    "spec",
    [
        flt.FilterSpec.low_pass(8),
        flt.FilterSpec.high_pass(24),
        flt.FilterSpec.band_pass(16, 48),
        flt.FilterSpec.dc(),
    ],
    ids=lambda s: s.describe(),
)
def test_quantum_pass_branch_spectral_support(spec):
    signal = sg.tone_composite(6)
    result = flt.filter_quantum(signal, spec)
    spectrum = tr.wht_sequency(result.pass_branch).values
    for k in stop_indices(spec, 64):
        assert abs(spectrum[k]) < 1e-12


def test_quantum_dc_equals_mean_subtraction():
    signal = sg.step_composite(6)
    result = flt.filter_quantum(signal, flt.FilterSpec.dc())
    assert_allclose(result.pass_branch.values, signal.values - signal.values.mean(), atol=1e-10)
    assert_allclose(result.stop_branch.values, np.full(64, signal.values.mean()), atol=1e-10)


def test_swapped_convention_same_result():
    signal = sg.tone_composite(5)
    spec = flt.FilterSpec.low_pass(8)
    plain = flt.filter_quantum(signal, spec)
    swapped = flt.filter_quantum(signal, spec, swapped=True)
    assert_allclose(plain.pass_branch.values, swapped.pass_branch.values, atol=1e-12)
    assert_allclose(plain.stop_branch.values, swapped.stop_branch.values, atol=1e-12)
    assert abs(plain.p_pass - swapped.p_pass) < 1e-12


@pytest.mark.parametrize(
    "spec",
    [flt.FilterSpec.low_pass(5), flt.FilterSpec.high_pass(9), flt.FilterSpec.band_pass(3, 13), flt.FilterSpec.dc()],
    ids=lambda spec: spec.kind,
)
@pytest.mark.parametrize("swapped", [False, True])
def test_filter_result_carries_the_simulated_circuit(spec, swapped):
    result = flt.filter_quantum(sg.tone_composite(4), spec, swapped=swapped)
    assert result.circuit.gates == qc.build_filter_circuit(4, spec, swapped=swapped).gates


_N14 = 1 << 14
_BAND_LO = int(np.random.default_rng(14).integers(1, _N14 // 2))


@pytest.mark.parametrize(
    "spec",
    [
        flt.FilterSpec.low_pass(_N14 // 4),
        flt.FilterSpec.high_pass(3 * _N14 // 8),
        flt.FilterSpec.band_pass(_BAND_LO, _BAND_LO + 4321),
        flt.FilterSpec.dc(),
    ],
    ids=lambda spec: spec.kind,
)
def test_quantum_matches_oracle_at_n14_both_conventions(spec):
    signal = np.random.default_rng(1414).standard_normal(_N14)
    tol = 1e-10 * np.linalg.norm(signal)
    oracle_pass, oracle_stop = flt.filter_classical_oracle(signal, spec)
    for swapped in (False, True):
        result = flt.filter_quantum(signal, spec, swapped=swapped)
        assert result.pass_branch.values.dtype == np.float64
        assert np.linalg.norm(result.pass_branch.values - oracle_pass.values) <= tol
        assert np.linalg.norm(result.stop_branch.values - oracle_stop.values) <= tol


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 32))
def test_complementarity_over_all_cutoffs(cutoff):
    v = np.linspace(-1.0, 1.0, 32)
    low_pass, low_stop = flt.filter_classical_oracle(v, flt.FilterSpec.low_pass(cutoff))
    assert_allclose(low_pass.values + low_stop.values, v, atol=1e-12)


# ---------------------------------------------------------------------------
# spec and metric surfaces


def test_filterspec_validation():
    with pytest.raises(ValueError):
        flt.FilterSpec.low_pass(0).validate_for(8)
    with pytest.raises(ValueError):
        flt.FilterSpec.high_pass(9).validate_for(8)
    with pytest.raises(ValueError):
        flt.FilterSpec.band_pass(4, 4)
    with pytest.raises(ValueError):
        flt.FilterSpec("low")
    with pytest.raises(ValueError):
        flt.FilterSpec("dc", cutoff=2)
    with pytest.raises(ValueError):
        flt.FilterSpec("notch", cutoff=2)


def test_filterspec_intervals():
    spec = flt.FilterSpec.band_pass(4, 12)
    assert spec.pass_intervals(16) == ((4, 12),)
    assert spec.stop_intervals(16) == ((0, 4), (12, 16))
    assert flt.FilterSpec.dc().pass_intervals(8) == ((1, 8),)
    assert flt.FilterSpec.high_pass(8).pass_intervals(8) == ()
    assert flt.FilterSpec.high_pass(8).stop_intervals(8) == ((0, 8),)


def test_zero_signal_rejected():
    with pytest.raises(sim.NormalizationError):
        flt.filter_quantum(np.zeros(8), flt.FilterSpec.low_pass(4))


def test_compare_metrics():
    v = RNG.standard_normal(8)
    same = flt.compare(v, v)
    assert same == {"l2_abs": 0.0, "l2_rel": 0.0, "linf": 0.0}
    basis = flt.compare([1.0, 0.0], [0.0, 1.0])
    assert abs(basis["l2_abs"] - np.sqrt(2)) < 1e-15
    assert basis["linf"] == 1.0
    assert flt.compare([1.0, 0.0], [0.0, 0.0])["l2_rel"] == float("inf")
    assert flt.compare([0.0, 0.0], [0.0, 0.0])["l2_rel"] == 0.0
    huge = flt.compare([3e200, 4e200], [0.0, 0.0])
    assert huge["l2_abs"] == pytest.approx(5e200) and huge["linf"] == 4e200
    assert flt.compare([1e308, 0.0], [0.0, 1e308])["l2_rel"] == pytest.approx(np.sqrt(2))
    with pytest.raises(ValueError):
        flt.compare([1.0], [1.0, 2.0])
