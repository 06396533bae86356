"""Filter tests: frozen oracle values, quantum-vs-classical agreement,
energy bookkeeping, and the spec/convention surface."""

from __future__ import annotations

import itertools
import tracemalloc

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
    # samples are read as every filter reads them: a non-finite one is an
    # error, not a nan or inf mean
    for bad in ([np.nan, 1.0], [1.0, np.inf]):
        with pytest.raises(ValueError, match="non-finite samples"):
            flt.dc_remove_oracle(bad)
    # the mean is taken in peak units, so huge samples do not overflow it
    assert flt.dc_remove_oracle([1e308, 1e308]).values.tolist() == [0.0, 0.0]
    # 2**n samples, n >= 1, as the dc filter this oracle checks reads them
    for size in (0, 1, 3):
        with pytest.raises(tr.SizingError):
            flt.dc_remove_oracle(np.ones(size))
    with pytest.raises(ValueError, match="need a time-ordered signal, got 'sequency'"):
        flt.dc_remove_oracle(tr.Coefficients([1.0, 2.0], tr.SEQUENCY))


def test_dc_remove_oracle_refuses_a_result_beyond_float64():
    # the mean is -0.85e308, so the first sample minus it is 2.55e308 in
    # float64's terms: refused, as the transforms refuse such a coefficient,
    # not multiplied back to inf
    with pytest.raises(ValueError, match="mean-removed signal is beyond float64"):
        flt.dc_remove_oracle([1.7e308, -1.7e308, -1.7e308, -1.7e308])
    assert flt.dc_remove_oracle([1.7e308, -1.7e308]).values.tolist() == [1.7e308, -1.7e308]


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


def specs_for(size: int) -> list[flt.FilterSpec]:
    return [
        flt.FilterSpec.low_pass(max(1, size // 4)),
        flt.FilterSpec.high_pass(3 * size // 8 or 1),
        flt.FilterSpec.band_pass(size // 8 + 1, 5 * size // 8 - 1) if size >= 8
        else flt.FilterSpec.band_pass(0, 1),
        flt.FilterSpec.dc(),
    ]


@pytest.mark.parametrize("swapped", [False, True])
@pytest.mark.parametrize("n", range(1, 18))
def test_quantum_keeps_the_bits_of_the_padded_state(n, swapped):
    # filter_quantum hands run_circuit the n-qubit encoded state, whose
    # ancilla stays a known |0> bit until the selector; projecting the run on
    # the explicitly padded state gives the same bits. From n = 14 the state
    # is split on the ancilla at the selector instead of widened, and the
    # last H layer of 4 (n = 13..16) or 5 (n = 17) Hadamard blocks ends in
    # each half or in the output
    signal = np.random.default_rng(200 + n).standard_normal(1 << n)
    encoded, scale = sim.amplitude_encode(signal)
    amps = np.zeros(2 << n)
    amps[: 1 << n] = encoded.amplitudes
    padded = sim.Statevector(n + 1, amps)
    for spec in specs_for(1 << n):
        result = flt.filter_quantum(signal, spec, swapped=swapped)
        final = sim.run_circuit(padded, qc.build_filter_circuit(n, spec, swapped=swapped))
        pass_amps, p_pass = sim.project_ancilla(final, n, int(swapped))
        stop_amps, p_stop = sim.project_ancilla(final, n, 1 - int(swapped))
        assert np.array_equal(result.pass_branch.values, pass_amps * scale)
        assert np.array_equal(result.stop_branch.values, stop_amps * scale)
        assert (result.p_pass, result.p_stop) == (p_pass, p_stop)


@pytest.mark.parametrize("swapped", [False, True])
def test_filter_at_the_size_floor_joins_its_halves_once(monkeypatch, swapped):
    # at n = 14 the state splits on the ancilla at the selector, and every
    # later layer of a filter circuit runs on the two halves: every layer
    # moves 2**14 amplitudes, and the one join is the end's, of two blocks
    sizes, joins = set(), []
    real_layer, real_join = sim._layer, sim._join
    monkeypatch.setattr(sim, "_layer", lambda pair, *args: sizes.add(pair[0].size) or real_layer(pair, *args))
    monkeypatch.setattr(sim, "_join", lambda pairs, *args: joins.append(len(pairs)) or real_join(pairs, *args))
    signal = np.random.default_rng(14).standard_normal(1 << 14)
    for spec in specs_for(1 << 14):
        joins.clear()
        flt.filter_quantum(signal, spec, swapped=swapped)
        assert joins == [2], spec
    assert sizes == {1 << 14}


@pytest.mark.parametrize("n", [14, 20])
def test_successive_results_share_no_memory(n):
    # each branch is a buffer of its own: not a view of the other branch, of
    # the other call's branches, or of the input
    signal = np.random.default_rng(n).standard_normal(1 << n)
    first = flt.filter_quantum(signal, flt.FilterSpec.low_pass(1 << (n - 2)))
    second = flt.filter_quantum(signal, flt.FilterSpec.band_pass(37, 901), swapped=True)
    arrays = [signal] + [b.values for r in (first, second) for b in (r.pass_branch, r.stop_branch)]
    for a, b in itertools.combinations(arrays, 2):
        assert not np.shares_memory(a, b)


@pytest.mark.parametrize("n", [17, 18])
def test_quantum_matches_oracle_where_the_last_h_block_is_short(n):
    # 17 and 18 data qubits cut into H blocks of 4, 4, 4, 4 and then 1 or 2
    signal = np.random.default_rng(n).standard_normal(1 << n)
    tol = 1e-10 * np.linalg.norm(signal)
    for spec in specs_for(1 << n):
        oracle_pass, oracle_stop = flt.filter_classical_oracle(signal, spec)
        for swapped in (False, True):
            result = flt.filter_quantum(signal, spec, swapped=swapped)
            assert np.linalg.norm(result.pass_branch.values - oracle_pass.values) <= tol
            assert np.linalg.norm(result.stop_branch.values - oracle_stop.values) <= tol


@pytest.mark.parametrize("n", range(1, 13))
def test_oracle_keeps_the_bits_of_three_sequency_transforms(n):
    # bit for bit: three natural-order transforms around the sequency mask
    # read through the map; to within n·eps·‖x‖: three wht_sequency calls
    # around the mask itself
    signal = np.random.default_rng(100 + n).standard_normal(1 << n)
    tol = n * np.finfo(float).eps * np.linalg.norm(signal)
    sequency_of_row, _ = tr.natural_to_sequency_perm(n)
    natural = tr.fwht_natural(signal).values
    spectrum = tr.wht_sequency(signal).values
    for spec in specs_for(1 << n):
        mask = flt._pass_mask(spec, 1 << n)
        keep = mask[sequency_of_row]
        pinned = [tr.fwht_natural(np.where(k, natural, 0.0)).values for k in (keep, ~keep)]
        composed = [tr.wht_sequency(tr.Coefficients(np.where(k, spectrum, 0.0), tr.SEQUENCY))
                    for k in (mask, ~mask)]
        for got, bits, near in zip(flt.filter_classical_oracle(signal, spec), pinned, composed):
            assert got.order_tag == near.order_tag == tr.TIME
            assert np.array_equal(got.values, bits)
            assert np.linalg.norm(got.values - near.values) <= tol


def test_oracle_peak_memory_stays_under_six_inputs():
    # the index maps go once the mask is read through the forward one; the
    # three transforms and their two masked inputs take about five inputs
    signal = np.random.default_rng(16).standard_normal(1 << 16)
    spec = flt.FilterSpec.low_pass(1 << 14)
    tracemalloc.start()
    try:
        flt.filter_classical_oracle(signal, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * signal.nbytes


@st.composite
def oracle_cases(draw):
    """n <= 8, a low/high/band/dc spec valid for 2**n samples, a signal seed
    and a decimal scale."""
    n = draw(st.integers(1, 8))
    size = 1 << n
    kind = draw(st.sampled_from(flt.KINDS))
    if kind in ("low", "high"):
        spec = flt.FilterSpec(kind, cutoff=draw(st.integers(1, size)))
    elif kind == "band":
        lo = draw(st.integers(0, size - 1))
        spec = flt.FilterSpec.band_pass(lo, draw(st.integers(lo + 1, size)))
    else:
        spec = flt.FilterSpec.dc()
    return n, spec, draw(st.integers(0, 2**32 - 1)), draw(st.integers(-100, 100))


@settings(max_examples=100, deadline=None)
@given(oracle_cases())
def test_oracle_matches_the_dense_sequency_matrix(case):
    # pass = S·(mask ⊙ S·x), stop the same with the complement mask
    n, spec, seed, exponent = case
    signal = np.random.default_rng(seed).standard_normal(1 << n) * 10.0**exponent
    dense = tr.sequency_matrix(n)
    spectrum = dense @ signal
    mask = flt._pass_mask(spec, 1 << n)
    tol = 1e-12 * np.linalg.norm(signal)
    for got, keep in zip(flt.filter_classical_oracle(signal, spec), (mask, ~mask)):
        assert np.linalg.norm(got.values - dense @ np.where(keep, spectrum, 0.0)) <= tol


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
    # a band is exactly two edges; a third is not silently dropped
    for band in [(1, 3, 99), (1,), (), 5]:
        with pytest.raises(ValueError, match="band takes exactly two edges"):
            flt.FilterSpec("band", band=band)
    with pytest.raises(ValueError, match=r"^band takes band edges and no cutoff$"):
        flt.FilterSpec("band", cutoff=3)
    with pytest.raises(ValueError, match=r"^band \[2, 9\) not within \[0, 8\]$"):
        flt.FilterSpec.band_pass(2, 9).validate_for(8)


@pytest.mark.parametrize("value", [4, 4.0, np.int64(4), np.float64(4.0)],
                         ids=["int", "float", "np.int64", "np.float64"])
def test_filterspec_stores_integral_values_as_int(value):
    specs = [flt.FilterSpec.low_pass(value), flt.FilterSpec("low", cutoff=value),
             flt.FilterSpec.high_pass(value), flt.FilterSpec.band_pass(value, 2 * value)]
    for spec in specs:
        fields = (spec.cutoff,) if spec.band is None else spec.band
        assert all(type(v) is int for v in fields)
    assert specs[1] == flt.FilterSpec.low_pass(4)
    assert specs[1].describe() == "low c=4"
    assert specs[3].band == (4, 8)
    # both paths take the spec as given, the oracle without casting it
    v = np.random.default_rng(4).standard_normal(16)
    passed, _ = flt.filter_classical_oracle(v, specs[1])
    assert_allclose(passed.values, flt.filter_quantum(v, specs[1]).pass_branch.values, atol=1e-12)


@pytest.mark.parametrize("value", [4.5, np.float64(4.5), float("nan"), float("inf"), "4"],
                         ids=["float", "np.float64", "nan", "inf", "str"])
@pytest.mark.parametrize("make", [
    flt.FilterSpec.low_pass,
    flt.FilterSpec.high_pass,
    lambda v: flt.FilterSpec("low", cutoff=v),
    lambda v: flt.FilterSpec.band_pass(v, 8),
    lambda v: flt.FilterSpec.band_pass(0, v),
], ids=["low_pass", "high_pass", "constructor", "band-low-edge", "band-high-edge"])
def test_filterspec_rejects_non_integral_values(make, value):
    with pytest.raises(ValueError, match="must be an integer"):
        make(value)


def test_filterspec_intervals():
    spec = flt.FilterSpec.band_pass(4, 12)
    assert spec.pass_intervals(16) == ((4, 12),)
    assert spec.stop_intervals(16) == ((0, 4), (12, 16))
    assert flt.FilterSpec.dc().pass_intervals(8) == ((1, 8),)
    assert flt.FilterSpec.high_pass(8).pass_intervals(8) == ()
    assert flt.FilterSpec.high_pass(8).stop_intervals(8) == ((0, 8),)
    # for every spec, the two lists are sorted, disjoint, not touching and
    # together cover [0, size) exactly
    for n in range(1, 9):
        size = 1 << n
        specs = [flt.FilterSpec.dc()]
        specs += [make(c) for c in range(1, size + 1) for make in (flt.FilterSpec.low_pass, flt.FilterSpec.high_pass)]
        specs += [flt.FilterSpec.band_pass(lo, hi) for lo in range(size) for hi in range(lo + 1, size + 1)]
        for spec in specs:
            passed, stopped = spec.pass_intervals(size), spec.stop_intervals(size)
            intervals = sorted(passed + stopped)
            assert [lo for lo, _ in intervals] == [0] + [hi for _, hi in intervals[:-1]], spec
            assert intervals[-1][1] == size and all(lo < hi for lo, hi in intervals), spec
            for part in (passed, stopped):
                assert all(hi < lo for (_, hi), (lo, _) in zip(part, part[1:])), spec


def test_zero_signal_rejected():
    with pytest.raises(sim.NormalizationError):
        flt.filter_quantum(np.zeros(8), flt.FilterSpec.low_pass(4))


def test_filter_quantum_reads_its_signal_before_the_spec():
    # the signal is encoded first and its width sizes the circuit, so a call
    # with a bad signal and a spec too wide for it names the signal
    with pytest.raises(sim.NormalizationError):
        flt.filter_quantum(np.zeros(8), flt.FilterSpec.low_pass(100))
    with pytest.raises(tr.SizingError):
        flt.filter_quantum(np.ones(6), flt.FilterSpec.low_pass(100))


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
    with pytest.raises(ValueError, match="1-D"):
        flt.compare(np.zeros((2, 2)), np.zeros((2, 2)))


def test_compare_refuses_a_difference_beyond_float64():
    # finite inputs whose difference passes float64 used to read as inf
    with pytest.raises(ValueError, match="difference is beyond float64"):
        flt.compare([1.7e308, -1.7e308], [-1.7e308, 1.7e308])
    # linf fits, l2_abs does not
    with pytest.raises(ValueError, match="difference is beyond float64"):
        flt.compare([1.5e308, 1.5e308], [0.0, 0.0])
    edge = flt.compare([1.7e308, 0.0], [0.0, 0.0])
    assert edge == {"l2_abs": 1.7e308, "l2_rel": float("inf"), "linf": 1.7e308}


EPS = np.finfo(np.float64).eps


@pytest.mark.parametrize("a,b,l2_abs,l2_rel,linf", [
    # the difference's square underflowed in the two vectors' common unit: 0
    ([1.0, 1e-200], [1.0, 0.0], 1e-200, 1e-200, 1e-200),
    # the reference's square underflowed to 0, so l2_rel read inf
    ([1.0, 1.0], [2.2250738585072014e-308, 0.0], np.sqrt(2.0), np.sqrt(2.0) / 2.2250738585072014e-308, 1.0),
    # the difference's square was subnormal: relative error 5.6e-6
    ([1.0, 3e-160], [1.0, 1e-160], 3e-160 - 1e-160, 3e-160 - 1e-160, 3e-160 - 1e-160),
], ids=["tiny-difference", "tiny-reference", "subnormal-square"])
def test_compare_takes_each_norm_in_its_own_peak_units(a, b, l2_abs, l2_rel, linf):
    got = flt.compare(a, b)
    assert got == pytest.approx({"l2_abs": l2_abs, "l2_rel": l2_rel, "linf": linf}, rel=4 * EPS, abs=0.0)


def test_compare_takes_a_difference_below_the_peaks_subnormal_range_in_float64():
    # in the two vectors' common peak units (2**996) the difference 1e-20 was
    # subnormal and kept 1e-4 of its value: 9.998959244540999e-21
    got = flt.compare([1e300, 1e-20], [1e300, 0.0])
    assert got["l2_abs"] == got["linf"] == 1e-20
    # from 2**1023 on the difference is taken in peak units, where it cannot overflow
    assert flt.compare([2.0 ** 1023, 1.0], [2.0 ** 1023, 0.0])["linf"] == 1.0


def test_compare_refuses_a_relative_difference_beyond_float64():
    # 1 / 2**-1074: the two units' ratio, 2**1074, is itself beyond float64
    with pytest.raises(ValueError, match="relative difference is beyond float64"):
        flt.compare([1.0, 0.0], [5e-324, 0.0])
    # units 2 and 2**-1024, whose ratio is beyond float64, but l2_rel is not
    b = np.full(4, 1.99 * 2.0 ** -1024)
    a = b.copy()
    a[0] = 2.0
    want = 2.0 / float(np.linalg.norm(b * 2.0 ** 1000)) * 2.0 ** 1000
    assert flt.compare(a, b)["l2_rel"] == pytest.approx(want, rel=4 * EPS) and want > 2.0 ** 1023


def test_compare_reads_a_difference_of_signed_zeros_as_plus_zero():
    for a, b in (([-0.0, -0.0], [0.0, 0.0]), ([0.0, -0.0], [-0.0, 0.0]), ([], [])):
        metrics = flt.compare(a, b)
        assert metrics == {"l2_abs": 0.0, "l2_rel": 0.0, "linf": 0.0}
        assert all(np.copysign(1.0, value) == 1.0 for value in metrics.values())


@pytest.mark.parametrize("n", [1, 3])
def test_filter_quantum_refuses_a_branch_beyond_float64(n):
    # the signal's norm is float64's largest value, and the circuit's
    # rounding lifts its one pass amplitude just above 1: the branch
    # used to start with inf, with only a RuntimeWarning
    signal = np.zeros(1 << n)
    signal[0] = np.finfo(np.float64).max
    with pytest.raises(ValueError, match="filter branch is beyond float64"):
        flt.filter_quantum(signal, flt.FilterSpec.low_pass(1 << n))


def test_filter_quantum_branches_are_separate_arrays():
    for swapped in (False, True):
        result = flt.filter_quantum(RNG.standard_normal(16), flt.FilterSpec.low_pass(4), swapped=swapped)
        assert not np.shares_memory(result.pass_branch.values, result.stop_branch.values)
        assert result.pass_branch.values.flags.owndata and result.stop_branch.values.flags.owndata
