"""Transform-layer tests.

Every expected value here is either a hand-frozen constant or produced by a
small oracle implemented independently in this file (dense matrices built
directly from the sign definitions, zero crossings counted on materialized
rows, DFT by direct summation). The library checks itself only where a fast
kernel meets the library's slow oracles (the dense sequency matrix,
one-qubit H gates), which are pinned here in turn.
"""

from __future__ import annotations

import itertools
import mmap
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from walshdsp import circuits, filters, signals, simulator, verification
from walshdsp import transforms as tr
from walshdsp.cli import _parseval_line

# ---------------------------------------------------------------------------
# independent oracles


def parity(x: int) -> int:
    return bin(x).count("1") & 1


def natural_matrix_oracle(n: int) -> np.ndarray:
    """Dense Hadamard-ordered matrix: entry (k, j) = (-1)^(k.j) / sqrt(N)."""
    size = 1 << n
    m = np.empty((size, size))
    for k in range(size):
        for j in range(size):
            m[k, j] = -1.0 if parity(k & j) else 1.0
    return m / np.sqrt(size)


def row_zero_crossings(row: np.ndarray) -> int:
    signs = np.sign(row)
    return int(np.count_nonzero(np.diff(signs)))


def sequency_matrix_oracle(n: int) -> np.ndarray:
    """Natural rows re-sorted by their materialized zero-crossing count."""
    nat = natural_matrix_oracle(n)
    order = sorted(range(1 << n), key=lambda s: row_zero_crossings(nat[s]))
    return nat[order]


def dft_oracle(v: np.ndarray) -> np.ndarray:
    size = v.size
    out = np.zeros(size, dtype=complex)
    for k in range(size):
        for j in range(size):
            out[k] += v[j] * np.exp(-2j * np.pi * k * j / size)
    return out / np.sqrt(size)


# hand-frozen constants
SEQ_MAP_N3 = [0, 7, 3, 4, 1, 6, 2, 5]
RECURSION_TRACE_S5_N3 = [1, 3, 6]
WALSH_ROW_S5 = [1, -1, 1, -1, -1, 1, -1, 1]
H8S_SIGNS = np.array(
    [
        [1, 1, 1, 1, 1, 1, 1, 1],
        [1, 1, 1, 1, -1, -1, -1, -1],
        [1, 1, -1, -1, -1, -1, 1, 1],
        [1, 1, -1, -1, 1, 1, -1, -1],
        [1, -1, -1, 1, 1, -1, -1, 1],
        [1, -1, -1, 1, -1, 1, 1, -1],
        [1, -1, 1, -1, -1, 1, -1, 1],
        [1, -1, 1, -1, 1, -1, 1, -1],
    ]
)

RNG = np.random.default_rng(20260819)
EPS = np.finfo(np.float64).eps


# ---------------------------------------------------------------------------
# sequency map


def test_sequency_map_n3_frozen():
    got = [tr.sequency_of(s, 3) for s in range(8)]
    assert got == SEQ_MAP_N3


@pytest.mark.parametrize("n", range(1, 13))
def test_sequency_of_matches_bruteforce(n):
    for s in range(1 << n):
        assert tr.sequency_of(s, n) == tr.zero_crossings_bruteforce(s, n)


@pytest.mark.parametrize("n", range(1, 9))
def test_bruteforce_matches_materialized_rows(n):
    nat = natural_matrix_oracle(n)
    for s in range(1 << n):
        assert tr.zero_crossings_bruteforce(s, n) == row_zero_crossings(nat[s])


def test_bruteforce_s5_vector_value():
    # the ±1 row itself is pinned, and it has six sign changes
    signs = [-1.0 if parity(5 & k) else 1.0 for k in range(8)]
    assert signs == WALSH_ROW_S5
    assert tr.zero_crossings_bruteforce(5, 3) == 6


def test_sequency_of_examples():
    assert tr.sequency_of(5, 3) == 6
    assert tr.sequency_of(0, 7) == 0
    assert tr.sequency_of(1, 3) == 7


def test_recursion_trace_frozen():
    assert tr.sequency_recursion_trace(5, 3) == RECURSION_TRACE_S5_N3


@pytest.mark.parametrize("n", range(1, 11))
def test_recursion_trace_ends_at_sequency(n):
    for s in range(1 << n):
        trace = tr.sequency_recursion_trace(s, n)
        assert len(trace) == n
        assert trace[-1] == tr.sequency_of(s, n)


def test_sequency_of_gray_bitreverse_identity():
    # alternative closed form: gray-decode the bit-reversed index
    def gray_decode(x):
        y = 0
        while x:
            y ^= x
            x >>= 1
        return y

    for n in range(1, 11):
        for s in range(1 << n):
            rev = int(format(s, f"0{n}b")[::-1], 2)
            assert tr.sequency_of(s, n) == gray_decode(rev)


def test_sequency_index_validation():
    with pytest.raises(ValueError):
        tr.sequency_of(8, 3)
    with pytest.raises(ValueError):
        tr.sequency_of(-1, 3)
    with pytest.raises(ValueError):
        tr.sequency_of(0, 0)


def test_bruteforce_bound_guard():
    with pytest.raises(ValueError):
        tr.zero_crossings_bruteforce(1, 21)


# ---------------------------------------------------------------------------
# permutations


def test_perm_n3_frozen():
    fwd, inv = tr.natural_to_sequency_perm(3)
    assert fwd.tolist() == SEQ_MAP_N3
    assert inv[fwd].tolist() == list(range(8))


def test_perm_n1_identity():
    fwd, inv = tr.natural_to_sequency_perm(1)
    assert fwd.tolist() == [0, 1]
    assert inv.tolist() == [0, 1]


@pytest.mark.parametrize("n", range(1, 13))
def test_perm_bijection(n):
    fwd, inv = tr.natural_to_sequency_perm(n)
    size = 1 << n
    assert sorted(fwd.tolist()) == list(range(size))
    assert fwd[inv].tolist() == list(range(size))
    assert inv[fwd].tolist() == list(range(size))


@pytest.mark.parametrize("n", range(1, 17))
def test_perm_inverse_is_the_scatter_of_forward(n):
    # inverse comes from its own GF(2) columns, not from scattering forward
    fwd, inv = tr.natural_to_sequency_perm(n)
    scatter = np.empty_like(fwd)
    scatter[fwd] = np.arange(fwd.size)
    assert inv.dtype == scatter.dtype
    assert np.array_equal(inv, scatter)


@pytest.mark.parametrize("n", range(1, 11))
def test_perm_inverse_bit_identity(n):
    # s_k = g_{n-k} xor g_{n-k-1} with g_n = 0, checked bit by bit
    fwd, inv = tr.natural_to_sequency_perm(n)
    for g in range(1 << n):
        s = int(inv[g])
        for k in range(n):
            g_hi = (g >> (n - k)) & 1 if k > 0 else 0
            g_lo = (g >> (n - k - 1)) & 1
            assert (s >> k) & 1 == g_hi ^ g_lo


@pytest.mark.parametrize("n", range(1, 13))
def test_perm_matches_scalar_sequency_of(n):
    fwd, _ = tr.natural_to_sequency_perm(n)
    assert fwd.tolist() == [tr.sequency_of(s, n) for s in range(1 << n)]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, tr.BRUTE_FORCE_BOUND).flatmap(
    lambda n: st.tuples(st.integers(0, (1 << n) - 1), st.just(n))))
def test_perm_matches_bruteforce_zero_crossings(s_n):
    s, n = s_n
    fwd, inv = tr.natural_to_sequency_perm(n)
    g = tr.zero_crossings_bruteforce(s, n)
    assert fwd[s] == g
    assert inv[g] == s


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 2**16 - 1), max_size=10))
def test_gf2_index_matches_xor_fold(columns):
    want = []
    for j in range(1 << len(columns)):
        acc = 0
        for b, col in enumerate(columns):
            if (j >> b) & 1:
                acc ^= col
        want.append(acc)
    got = tr.gf2_index(columns)
    assert got.dtype == np.intp
    assert got.tolist() == want


# ---------------------------------------------------------------------------
# natural-order fast transform


def test_fwht_impulse_is_constant_column():
    out = tr.fwht_natural(tr.time_series([1, 0, 0, 0, 0, 0, 0, 0]))
    assert_allclose(out.values, np.full(8, 1 / np.sqrt(8)), atol=1e-15)
    assert out.order_tag == tr.NATURAL


def test_fwht_two_point():
    v = tr.time_series(np.array([1.0, 1.0]) / np.sqrt(2))
    out = tr.fwht_natural(v)
    assert_allclose(out.values, [1.0, 0.0], atol=1e-15)


def test_fwht_matches_dense_oracle():
    mat = natural_matrix_oracle(4)
    v = RNG.standard_normal(16)
    out = tr.fwht_natural(tr.time_series(v))
    assert_allclose(out.values, mat @ v, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 11))
def test_fwht_self_inverse(n):
    v = RNG.standard_normal(1 << n)
    back = tr.fwht_natural(tr.fwht_natural(tr.time_series(v)))
    assert_allclose(back.values, v, atol=1e-12)
    assert back.order_tag == tr.TIME


def test_fwht_tag_transitions():
    v = tr.time_series([1.0, 2.0])
    fwd = tr.fwht_natural(v)
    assert fwd.order_tag == tr.NATURAL
    back = tr.fwht_natural(fwd)
    assert back.order_tag == tr.TIME
    seq = tr.wht_sequency(v)
    with pytest.raises(ValueError):
        tr.fwht_natural(seq)
    with pytest.raises(ValueError, match="^natural-tagged input; use fwht_natural to go back$"):
        tr.wht_sequency(fwd)


def test_fwht_sizing_error():
    with pytest.raises(tr.SizingError) as err:
        tr.fwht_natural(tr.time_series([1.0, 2.0, 3.0]))
    assert "3" in str(err.value)


# every function that takes a bit width n, called with n alone
_TAKES_N = {
    "check_bits": tr.check_bits,
    "sequency_of": lambda n: tr.sequency_of(0, n),
    "sequency_recursion_trace": lambda n: tr.sequency_recursion_trace(0, n),
    "zero_crossings_bruteforce": lambda n: tr.zero_crossings_bruteforce(0, n),
    "natural_to_sequency_perm": tr.natural_to_sequency_perm,
    "sequency_matrix": tr.sequency_matrix,
    "build_uz": circuits.build_uz,
    "build_uz_inverse": circuits.build_uz_inverse,
    "build_sequency_wht": circuits.build_sequency_wht,
    "build_sequency_selector": lambda n: circuits.build_sequency_selector(n, []),
    "build_filter_circuit": lambda n: circuits.build_filter_circuit(n, filters.FilterSpec.dc()),
    "discretize": lambda n: signals.discretize(signals.Waveform("sine"), n),
    "step_composite": signals.step_composite,
    "tone_composite": signals.tone_composite,
    "check_path_equivalence": verification.check_path_equivalence,
}


@pytest.mark.parametrize("n", [0, -1])
@pytest.mark.parametrize("name", sorted(_TAKES_N))
def test_one_bit_width_floor_with_one_message(name, n):
    with pytest.raises(tr.SizingError) as err:
        _TAKES_N[name](n)
    assert str(err.value) == f"bit width must be at least 1 (2 samples), got {n}"


# every function that reads a register quantity (a bit width, qubit count,
# qubit or basis index), called with that value alone
_TAKES_REGISTER_QUANTITY = {
    **_TAKES_N,
    "sequency_of-s": lambda s: tr.sequency_of(s, 3),
    "zero_crossings_bruteforce-s": lambda s: tr.zero_crossings_bruteforce(s, 3),
    "project_ancilla-qubit": lambda q: simulator.project_ancilla(simulator.basis_state(2), q, 0),
    "basis_state-n_qubits": simulator.basis_state,
    "basis_state-index": lambda i: simulator.basis_state(2, i),
    "Statevector-n_qubits": lambda n: simulator.Statevector(n, [1.0, 0.0]),
    "Circuit-n_qubits": lambda n: circuits.Circuit(n, ()),
}


@pytest.mark.parametrize("value", [3.0, 2.5, "3"])
@pytest.mark.parametrize("name", sorted(_TAKES_REGISTER_QUANTITY))
def test_register_quantities_must_be_integers(name, value):
    with pytest.raises(ValueError) as err:
        _TAKES_REGISTER_QUANTITY[name](value)
    assert str(err.value).endswith(f" must be an integer, got {value!r}")


# every reader of a qubit count, called with that count alone
_TAKES_QUBIT_COUNT = {
    **{name: _TAKES_REGISTER_QUANTITY[name]
       for name in ("basis_state-n_qubits", "Statevector-n_qubits", "Circuit-n_qubits")},
    "circuit_from_dict": lambda n: circuits.circuit_from_dict(
        {"format": "walshdsp-circuit", "version": 1, "n_qubits": n, "gates": []}),
}


@pytest.mark.parametrize("n", [-1, -5])
@pytest.mark.parametrize("name", sorted(_TAKES_QUBIT_COUNT))
def test_qubit_counts_have_one_floor_with_one_message(name, n):
    with pytest.raises(ValueError) as err:
        _TAKES_QUBIT_COUNT[name](n)
    assert str(err.value) == f"qubit count must be at least 0, got {n}"


def test_zero_qubits_is_a_register():
    assert simulator.basis_state(0).amplitudes.tolist() == [1.0]
    assert simulator.Statevector(0, [1.0]).n_qubits == 0
    assert circuits.Circuit(0, ()).n_qubits == 0


def test_numpy_integers_pass_as_register_quantities():
    assert type(tr.check_bits(np.int64(3))) is int
    circuit = circuits.build_filter_circuit(np.int64(3), filters.FilterSpec.band_pass(1, 5))
    assert type(circuit.n_qubits) is int
    assert circuits.circuit_from_json(circuits.circuit_to_json(circuit)) == circuit
    state = simulator.basis_state(np.int64(2), np.int64(3))
    assert simulator.project_ancilla(state, np.int64(1), 1)[1] == 1.0


@pytest.mark.parametrize("call", [
    tr.fwht_natural,
    tr.wht_sequency,
    tr.dft_spectrum,
    simulator.amplitude_encode,
    lambda v: filters.filter_quantum(v, filters.FilterSpec.dc()),
    lambda v: filters.filter_classical_oracle(v, filters.FilterSpec.dc()),
], ids=["fwht_natural", "wht_sequency", "dft_spectrum", "amplitude_encode", "filter_quantum",
        "filter_classical_oracle"])
def test_one_sample_is_a_sizing_error(call):
    with pytest.raises(tr.SizingError) as err:
        call([0.5])
    assert str(err.value) == "bit width must be at least 1 (2 samples), got 0"


# ---------------------------------------------------------------------------
# sequency-order transform


def test_wht_sequency_impulse_columns():
    e0 = np.zeros(8)
    e0[0] = 1.0
    out = tr.wht_sequency(tr.time_series(e0))
    assert_allclose(out.values, np.full(8, 1 / np.sqrt(8)), atol=1e-15)
    e1 = np.zeros(8)
    e1[1] = 1.0
    out = tr.wht_sequency(tr.time_series(e1))
    expected = np.array([1, 1, 1, 1, -1, -1, -1, -1]) / np.sqrt(8)
    assert_allclose(out.values, expected, atol=1e-15)
    assert out.order_tag == tr.SEQUENCY


def test_wht_sequency_matches_dense_oracle():
    mat = sequency_matrix_oracle(3)
    v = RNG.standard_normal(8)
    out = tr.wht_sequency(tr.time_series(v))
    assert_allclose(out.values, mat @ v, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_wht_sequency_self_inverse(n):
    v = RNG.standard_normal(1 << n)
    twice = tr.wht_sequency(tr.wht_sequency(tr.time_series(v)))
    assert_allclose(twice.values, v, atol=1e-12)


@pytest.mark.parametrize("n", range(1, 9))
def test_wht_sequency_inverse_flag(n):
    # the explicit inverse path must invert the forward path
    v = RNG.standard_normal(1 << n)
    fwd = tr.wht_sequency(tr.time_series(v))
    back = tr.wht_sequency(fwd, inverse=True)
    assert_allclose(back.values, v, atol=1e-12)
    assert back.order_tag == tr.TIME


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6), min_size=16, max_size=16))
def test_wht_sequency_round_trip_property(vals):
    v = np.asarray(vals)
    twice = tr.wht_sequency(tr.wht_sequency(tr.time_series(v)))
    assert_allclose(twice.values, v, atol=1e-9 * max(1.0, np.abs(v).max()))


def sequency_read(x, n):
    """fwht_natural(x) read through the inverse sequency index: what wht_sequency must return."""
    return tr.fwht_natural(x).values[tr._sequency_index(n, inverse=True)]


def wht_sequency_both_ways(x):
    """wht_sequency forward on time samples and back on sequency coefficients."""
    return tr.wht_sequency(x).values, tr.wht_sequency(tr.Coefficients(x, tr.SEQUENCY), inverse=True).values


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(1, 14), st.integers(0, 2**32 - 1), st.sampled_from([1e-300, 1e-5, 1.0, 1e300]))
def test_wht_sequency_is_the_natural_transform_read_through_the_index(n, seed, scale):
    # the slab reorder moves values, so the bits match the N-entry gather's
    x = np.random.default_rng(seed).standard_normal(1 << n) * scale
    x[::5] = 0.0
    want = sequency_read(x, n).view(np.uint64)
    for got in wht_sequency_both_ways(x):
        assert np.array_equal(got.view(np.uint64), want)


@pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 18, 19, 20, 21])
def test_wht_sequency_fixed_sizes_match_the_gather_and_leave_the_input(n):
    x = np.random.default_rng(n).standard_normal(1 << n)
    before = x.copy()
    natural = tr.fwht_natural(x).values
    want = natural[tr.natural_to_sequency_perm(n)[1]]
    if n <= 2:
        # the slow oracle: natural row s sits at sequency position sequency_of(s, n)
        assert [want[tr.sequency_of(s, n)] for s in range(1 << n)] == natural.tolist()
    for got in wht_sequency_both_ways(x):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert not np.shares_memory(got, x)
    assert x.flags.writeable and np.array_equal(x.view(np.uint64), before.view(np.uint64))


@pytest.mark.parametrize("n, bound", [(16, 2.6), (20, 2.2)])
def test_wht_sequency_peak_memory_builds_no_index(n, bound):
    # the natural transform's two buffers and a slab's two gathers; an
    # N-entry int64 index alone would add one input
    x = np.random.default_rng(n).standard_normal(1 << n)
    tr.wht_sequency(x)
    tracemalloc.start()
    try:
        tr.wht_sequency(x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * x.nbytes


def unscaled_butterfly_oracle(values):
    """Radix-2 butterflies on the raw samples, low stride first, then 1/sqrt(N)."""
    out = values.copy()
    half = 1
    while half < out.size:
        for i in range(0, out.size, 2 * half):
            a, b = out[i:i + half].copy(), out[i + half:i + 2 * half].copy()
            out[i:i + half], out[i + half:i + 2 * half] = a + b, a - b
        half *= 2
    return out * (1.0 / np.sqrt(out.size))


def unscaled_kernel(values):
    """The library's Hadamard-block kernel on the raw samples, then 1/sqrt(N).

    fwht_natural runs the same kernel on the samples divided by a power of
    two, which commutes with every sum, so for samples that neither overflow
    nor underflow the two give the same bits. The kernel itself is checked
    against unscaled_butterfly_oracle.
    """
    out, _ = tr._hadamard_layer(values.copy(), np.empty_like(values), range(values.size.bit_length() - 1))
    return out * (1.0 / np.sqrt(out.size))


@st.composite
def kernel_cases(draw, max_bits=12):
    """n <= max_bits, real or complex input, all n bits or any non-empty subset
    (gaps included), and scale 1 or the unitary 2**(-k/2) for k bits."""
    n = draw(st.integers(1, max_bits))
    if draw(st.booleans()):
        qubits = list(range(n))
    else:
        qubits = draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True))
    scale = 2.0 ** (-len(qubits) / 2) if draw(st.booleans()) else 1.0
    return n, qubits, scale, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(kernel_cases())
def test_hadamard_kernel_matches_its_oracles(case):
    # any bits: a fold of one-qubit H gates; all bits and n <= 8: the dense
    # sequency matrix's rows in natural order too
    n, qubits, scale, complex_input, seed = case
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(1 << n)
    if complex_input:
        x = x + 1j * rng.standard_normal(1 << n)
    x /= np.linalg.norm(x)
    got, _ = tr._hadamard_layer(x.copy(), np.empty_like(x), qubits, scale)
    assert got.dtype == x.dtype
    folded = simulator.Statevector(n, x)
    for q in qubits:
        folded = simulator.apply_gate(folded, simulator.h(q))
    wants = [folded.amplitudes * (scale * 2.0 ** (len(qubits) / 2))]
    if len(qubits) == n and n <= 8:
        rows = [tr.sequency_of(s, n) for s in range(1 << n)]
        wants.append(tr.sequency_matrix(n)[rows] @ x * (scale * np.sqrt(1 << n)))
    for want in wants:
        assert np.max(np.abs(got - want)) <= 4 * n * EPS * np.max(np.abs(want))


def at_page_offset(x, offset):
    """A copy of x whose data starts offset bytes past a page boundary."""
    raw = np.empty(x.nbytes + 2 * mmap.PAGESIZE, np.uint8)
    start = -raw.ctypes.data % mmap.PAGESIZE + offset
    out = raw[start : start + x.nbytes].view(x.dtype)
    out[:] = x
    return out


PAGE_OFFSETS = (0, 8, 16, 64)


def kernel_inputs(x, offsets, writable):
    """A copy of x as a and a spare of nans, at the page offsets given for each.

    The kernel's back buffer is a itself when a is writable, and a fresh one
    from _empty when it is read-only.
    """
    a, spare = (at_page_offset(v, offset) for v, offset in zip((x, np.full_like(x, np.nan)), offsets))
    a.flags.writeable = writable
    return a, spare


@settings(max_examples=100, deadline=None)
@given(kernel_cases(max_bits=16), st.tuples(*[st.sampled_from(PAGE_OFFSETS)] * 2))
def test_hadamard_layer_bits_do_not_depend_on_the_page_offset(case, mixed):
    # _empty starts large buffers on a page where glibc starts them 16 bytes
    # in; the products must round alike wherever a, spare and back start
    n, qubits, scale, complex_input, seed = case
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(1 << n)
    if complex_input:
        x = x + 1j * rng.standard_normal(1 << n)
    want, _ = tr._hadamard_layer(x.copy(), np.empty_like(x), qubits, scale)
    for offsets in (*((offset,) * 2 for offset in PAGE_OFFSETS), mixed):
        for writable in (True, False):
            a, spare = kernel_inputs(x, offsets, writable)
            got, _ = tr._hadamard_layer(a, spare, qubits, scale)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            if not writable:
                assert np.array_equal(a, x)


@pytest.mark.parametrize("complex_input", [False, True])
@pytest.mark.parametrize("n", [4, 8, 17], ids=["1-block", "2-blocks", "5-blocks"])
def test_hadamard_layer_never_writes_a_read_only_input(n, complex_input):
    # a read-only a belongs to the caller: the blocks write spare and a
    # buffer of the kernel's own, and neither returned buffer is a
    rng = np.random.default_rng(n)
    x = rng.standard_normal(1 << n)
    if complex_input:
        x = x + 1j * rng.standard_normal(1 << n)
    a = x.copy()
    a.flags.writeable = False
    got = tr._hadamard_layer(a, np.empty_like(x), range(n), 2.0 ** (-n / 2))
    assert np.array_equal(a.view(np.uint64), x.view(np.uint64))
    assert not any(np.shares_memory(buffer, a) for buffer in got)
    want, _ = tr._hadamard_layer(x.copy(), np.empty_like(x), range(n), 2.0 ** (-n / 2))
    assert np.array_equal(got[0].view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
@pytest.mark.parametrize("nbytes", [16, tr._ALIGN_FLOOR - 16, tr._ALIGN_FLOOR, tr._ALIGN_FLOOR + 16, 1 << 24])
def test_empty_starts_large_buffers_on_a_page(dtype, nbytes):
    size = nbytes // np.dtype(dtype).itemsize
    for out in (tr._empty(np.zeros(3, dtype), size), tr._empty(np.zeros(size, dtype))):
        assert out.dtype == dtype and out.shape == (size,)
        assert out.flags.c_contiguous and out.flags.writeable
        out[:] = 1.0
        if nbytes >= tr._ALIGN_FLOOR:
            assert out.ctypes.data % mmap.PAGESIZE == 0
        else:
            assert out.flags.owndata  # a plain np.empty


@pytest.mark.parametrize("complex_input", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hadamard_block_bits_do_not_depend_on_the_array_size(n, complex_input):
    # a lone block is one row, which numpy would give to gemv; the kernel
    # keeps the bits gemm gives the same row of a larger array, so a state
    # and its copy padded with |0> qubits on top give the same bits
    rng = np.random.default_rng(n)
    rows = rng.standard_normal((64, 1 << n))
    if complex_input:
        rows = rows + 1j * rng.standard_normal(rows.shape)
    scale = 2.0 ** (-n / 2)
    whole, _ = tr._hadamard_layer(rows.ravel(), np.empty(rows.size, rows.dtype), range(n), scale)
    for row, want in zip(rows, whole.reshape(rows.shape)):
        alone, _ = tr._hadamard_layer(row, np.empty_like(row), range(n), scale)
        assert np.array_equal(alone, want)


@pytest.mark.parametrize("n", [3, 6, 9])
def test_hadamard_layer_takes_each_calls_scale_on_the_same_bits(n):
    # the block plans are cached per qubit set and scale: a power-of-two
    # scale moves no bit, so each call must give exactly scale times the
    # unscaled result, whichever scale the same bits saw before
    x = RNG.standard_normal(1 << n)
    for offsets in itertools.product(PAGE_OFFSETS, repeat=2):
        for writable in (True, False):
            runs = [(scale, tr._hadamard_layer(*kernel_inputs(x, offsets, writable), range(n), scale)[0])
                    for scale in (1.0, 0.25, 1.0, 8.0, 0.25)]
            for scale, out in runs:
                assert np.array_equal(out, runs[0][1] * scale)


@pytest.mark.parametrize("scale", [1e-300, 1e-5, 1.0, 3.0, 7e5, 1e300])
@pytest.mark.parametrize("n", [1, 4, 9])
def test_peak_units_keep_the_bits_of_ordinary_input(n, scale):
    v = RNG.standard_normal(1 << n) * scale
    v[::3] = 0.0
    nat = tr.fwht_natural(v).values
    assert np.array_equal(nat.view(np.uint64), unscaled_kernel(v).view(np.uint64))
    butterflies = unscaled_butterfly_oracle(v)
    assert np.max(np.abs(nat - butterflies)) <= 4 * n * EPS * np.max(np.abs(butterflies))
    _, inv = tr.natural_to_sequency_perm(n)
    seq = tr.wht_sequency(v).values
    assert np.array_equal(seq.view(np.uint64), nat[inv].view(np.uint64))
    dft = tr.dft_spectrum(v)
    assert np.array_equal(dft.view(np.uint64), np.fft.fft(v, norm="ortho").view(np.uint64))
    if 1e-100 < scale < 1e100:  # where plain norms neither overflow nor underflow
        norm = np.linalg.norm
        diff = nat - v
        plain = {"l2_abs": norm(diff), "l2_rel": norm(diff) / norm(v), "linf": np.max(np.abs(diff))}
        assert filters.compare(nat, v) == plain
        a, b = norm(v), norm(nat)
        assert _parseval_line(v, nat) == f"parseval: |input|={a:.12g} |output|={b:.12g} drift={abs(a - b):.3e}"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("position", [0, 1])
def test_peak_units_reject_non_finite_values_in_any_argument(position, bad):
    arrays = [np.ones(4), np.full(4, 3.0)]
    arrays[position][2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        tr.peak_units(*arrays)


def test_transforms_near_the_float64_limit():
    huge = np.full(64, 1e307)  # unscaled sums reach 6.4e308; coefficient 0 is 8e307
    for out in (
        tr.fwht_natural(huge).values,
        tr.wht_sequency(huge).values,
        tr.wht_sequency(tr.Coefficients(huge, tr.SEQUENCY)).values,
        tr.wht_sequency(tr.Coefficients(huge, tr.SEQUENCY), inverse=True).values,
        np.abs(tr.dft_spectrum(huge)),
    ):
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(8e307, rel=1e-15)
        # a Hadamard block's partial sums such as 3c round, so the other
        # coefficients are zero only to within rounding
        assert np.max(np.abs(out[1:])) <= 6 * EPS * out[0]
    over = np.full(16, 1e308)  # coefficient 0 would be 4e308
    for transform in (tr.fwht_natural, tr.wht_sequency, tr.dft_spectrum):
        with pytest.raises(ValueError, match="beyond float64"):
            transform(over)
        with pytest.raises(ValueError, match="non-finite"):
            transform([1.0, np.nan, 0.0, np.inf])


# ---------------------------------------------------------------------------
# the folded sum against the guarded sum it replaces on ordinary input

_GUARD = (2.0 ** -900, 2.0 ** 900)


def guarded_sum(values):
    """The arithmetic every classical transform used for all input: the
    samples divided by the peak's binary unit, the kernel, 1/sqrt(N), a
    check that the result fits float64, then the unit."""
    unit, (scaled,) = tr.peak_units(values)
    out, _ = tr._hadamard_layer(scaled, np.empty_like(scaled), range(values.size.bit_length() - 1))
    out *= 1.0 / np.sqrt(out.size)
    if not np.isfinite(float(np.max(np.abs(out))) * unit):
        raise ValueError("transform result is beyond float64")
    out *= unit
    return out


def at_peak(n, peak, seed=0):
    """Seeded normal samples scaled so that the largest magnitude is exactly peak."""
    x = np.random.default_rng(seed).standard_normal(1 << n)
    x /= np.max(np.abs(x))
    x[np.argmax(np.abs(x))] = 1.0
    return x * peak


@st.composite
def scaled_signals(draw):
    """n <= 14; normal samples at 2**e, some of them 2**d lower, e in -1100..1100.

    e covers both sides of the guard and the float64 limits (overflowing
    samples are inf); d up to 1100 gives samples the divided copy rounds.
    The samples at 2**e may all be ±1, so that they cancel in most
    coefficients and leave the low ones to show.
    """
    n = draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mantissas = rng.standard_normal(1 << n)
    if draw(st.booleans()):
        mantissas = np.sign(mantissas)
    low = rng.random(1 << n) < draw(st.sampled_from([0.0, 0.5, 0.9]))
    mantissas[low] = rng.standard_normal(np.count_nonzero(low))
    exps = np.full(1 << n, draw(st.integers(-1100, 1100)))
    exps[low] -= draw(st.integers(0, 1100))
    with np.errstate(over="ignore"):
        return np.ldexp(mantissas, exps)


@settings(max_examples=300, deadline=None)
@given(scaled_signals())
@example(at_peak(6, _GUARD[0]))
@example(at_peak(6, np.nextafter(_GUARD[0], 0)))
@example(at_peak(7, _GUARD[1]))
@example(at_peak(7, np.nextafter(_GUARD[1], np.inf)))
@example(at_peak(5, np.nextafter(_GUARD[1], 0)))
@example(at_peak(4, np.nextafter(_GUARD[0], 1)))
@example(at_peak(6, 2.0 ** -1020))  # sums in peak units, bit for bit; the folded sum would round
@example(np.concatenate([np.full(8, 2.0 ** 899), at_peak(3, 2.0 ** -130, seed=1)]))
@example(np.concatenate([np.full(8, 2.0 ** -899), at_peak(3, 2.0 ** -1060, seed=2)]))
@example(np.full(64, 2.0 ** 1020))  # a first block's 16-sample sums overflow unless guarded
def test_folded_sum_keeps_the_bits_of_the_guarded_sum(x):
    # bit for bit outside the guard, and inside it where every sample is 0 or
    # at least 2**-900 * max(1, unit); otherwise within the first-order
    # underflow bound of _scaled_fwht
    n = x.size.bit_length() - 1
    _, inverse = tr.natural_to_sequency_perm(n)
    exact = not _GUARD[0] <= np.max(np.abs(x)) <= _GUARD[1]
    if not exact:
        unit = tr.peak_units(x)[0]
        exact = np.all((x == 0) | (np.abs(x) >= 2.0 ** -900 * max(1.0, unit)))
        bound = (n + 1) * np.sqrt(x.size) * max(1.0, unit) * 2.0 ** -1073
    routes = (
        (tr.fwht_natural, lambda: guarded_sum(x)),
        (tr.wht_sequency, lambda: guarded_sum(x)[inverse]),
        (lambda v: tr.wht_sequency(tr.Coefficients(v, tr.SEQUENCY), inverse=True), lambda: guarded_sum(x)[inverse]),
    )
    for route, reference in routes:
        try:
            want = reference()
        except ValueError as err:
            with pytest.raises(ValueError, match=str(err)):
                route(x)
            continue
        got = route(x).values
        if exact:
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        else:
            assert np.max(np.abs(got - want)) <= bound
    # the inverse flag names a direction and changes no bit
    try:
        forward_bits = tr.wht_sequency(tr.Coefficients(x, tr.SEQUENCY)).values.view(np.uint64)
    except ValueError as err:
        with pytest.raises(ValueError, match=str(err)):
            tr.wht_sequency(tr.Coefficients(x, tr.SEQUENCY), inverse=True)
    else:
        inverse_bits = tr.wht_sequency(tr.Coefficients(x, tr.SEQUENCY), inverse=True).values.view(np.uint64)
        assert np.array_equal(inverse_bits, forward_bits)


@pytest.mark.parametrize("peak", [1e-300, 3.0, 1e200, 1e307], ids=["below-guard", "ordinary", "huge", "above-guard"])
@pytest.mark.parametrize("n", [1, 4, 5, 10, 14, 17])
def test_no_route_writes_or_returns_the_callers_samples(n, peak):
    x = at_peak(n, peak)
    before = x.copy()
    x.setflags(write=False)  # a write raises, not only shows in the comparison
    # and a view of immutable bytes, as np.frombuffer gives, which no flag makes writable
    for x in (x, np.frombuffer(before.tobytes())):
        for out in (
            tr.fwht_natural(x),
            tr.fwht_natural(tr.Coefficients(x, tr.NATURAL)),
            tr.wht_sequency(x),
            tr.wht_sequency(tr.Coefficients(x, tr.SEQUENCY), inverse=True),
        ):
            assert not np.shares_memory(out.values, x)
        assert np.array_equal(x.view(np.uint64), before.view(np.uint64))


def test_parseval_both_orderings():
    for n in (2, 5, 8):
        v = RNG.standard_normal(1 << n)
        nat = tr.fwht_natural(tr.time_series(v))
        seq = tr.wht_sequency(tr.time_series(v))
        assert abs(np.linalg.norm(nat.values) - np.linalg.norm(v)) < 1e-12
        assert abs(np.linalg.norm(seq.values) - np.linalg.norm(v)) < 1e-12


# ---------------------------------------------------------------------------
# dense sequency matrix (library's own test oracle, checked against ours)


def test_sequency_matrix_n3_frozen_signs():
    mat = tr.sequency_matrix(3)
    assert_allclose(mat, H8S_SIGNS / np.sqrt(8), atol=0)
    # signs exact, not merely close
    assert np.array_equal(np.sign(mat), H8S_SIGNS)


def test_sequency_matrix_n1():
    assert_allclose(tr.sequency_matrix(1), np.array([[1, 1], [1, -1]]) / np.sqrt(2))


@pytest.mark.parametrize("n", range(1, 8))
def test_sequency_matrix_matches_sorted_rows_oracle(n):
    assert_allclose(tr.sequency_matrix(n), sequency_matrix_oracle(n), atol=1e-15)


def test_sequency_matrix_column_crossings_increase():
    mat = tr.sequency_matrix(4)
    col_counts = [row_zero_crossings(mat[:, j]) for j in range(16)]
    row_counts = [row_zero_crossings(mat[k]) for k in range(16)]
    assert col_counts == list(range(16))
    assert row_counts == list(range(16))


def test_sequency_matrix_bound_guard():
    with pytest.raises(ValueError):
        tr.sequency_matrix(21)


# ---------------------------------------------------------------------------
# DFT spectrum


def test_dft_constant_all_dc():
    spec = tr.dft_spectrum(tr.time_series(np.ones(8)))
    assert abs(spec[0] - np.sqrt(8)) < 1e-12
    assert np.max(np.abs(spec[1:])) < 1e-12


def test_dft_single_tone_peaks():
    size = 16
    t = np.arange(size)
    v = np.cos(2 * np.pi * t / size)
    spec = np.abs(tr.dft_spectrum(tr.time_series(v)))
    assert spec[1] > 1.0 and spec[15] > 1.0
    inner = np.delete(spec, [1, 15])
    assert np.max(inner) < 1e-12


def test_dft_matches_direct_summation():
    v = RNG.standard_normal(8)
    assert_allclose(tr.dft_spectrum(tr.time_series(v)), dft_oracle(v), atol=1e-12)


def test_dft_parseval():
    v = RNG.standard_normal(32)
    spec = tr.dft_spectrum(tr.time_series(v))
    assert abs(np.linalg.norm(spec) - np.linalg.norm(v)) < 1e-12


def test_dft_requires_time_tag():
    nat = tr.fwht_natural(tr.time_series([1.0, 2.0]))
    with pytest.raises(ValueError):
        tr.dft_spectrum(nat)


# ---------------------------------------------------------------------------
# container


def test_coefficients_accepts_any_length_until_transformed():
    c = tr.Coefficients(np.arange(3.0), tr.TIME)
    assert len(c) == 3
    with pytest.raises(tr.SizingError):
        tr.wht_sequency(c)


@pytest.mark.parametrize("call", [
    tr.time_series,
    tr.fwht_natural,
    tr.wht_sequency,
    tr.dft_spectrum,
    simulator.amplitude_encode,
    lambda v: filters.filter_quantum(v, filters.FilterSpec.low_pass(2)),
    lambda v: filters.filter_classical_oracle(v, filters.FilterSpec.low_pass(2)),
    filters.dc_remove_oracle,
    lambda v: filters.compare(v, np.ones(4)),
    lambda v: filters.compare(np.ones(4), v),
], ids=["time_series", "fwht_natural", "wht_sequency", "dft_spectrum", "amplitude_encode",
        "filter_quantum", "filter_classical_oracle", "dc_remove_oracle", "compare-a", "compare-b"])
def test_complex_samples_are_refused_not_truncated(call):
    with pytest.raises(ValueError, match="expected real samples, got complex128"):
        call(np.array([1 + 2j, 3, 4, 5]))


def test_coefficients_rejects_bad_tag_and_shape():
    with pytest.raises(ValueError):
        tr.Coefficients(np.arange(4.0), "spectral")
    with pytest.raises(ValueError):
        tr.Coefficients(np.zeros((2, 2)), tr.TIME)


def test_from_units_is_the_one_exit_and_refuses_an_entry_beyond_float64():
    for values in (np.array([1.5, -0.25]), np.array([1.5 - 0.5j, 0.25j])):
        before = values.copy()
        out = tr._from_units(values, 2.0 ** 1023)
        assert np.array_equal(out, before * 2.0 ** 1023) and not np.shares_memory(out, values)
        assert np.array_equal(values, before)
    # a real part, an imaginary part, and a real entry past float64
    for values in (np.array([2.5 + 0j, 0.5j]), np.array([0.5 + 2.5j]), np.array([0.0, -2.5])):
        with pytest.raises(ValueError, match="^spectrum is beyond float64$"):
            tr._from_units(values, 2.0 ** 1023, "spectrum")
    # underflow is rounding, not an error
    assert tr._from_units(np.array([1.5]), 2.0 ** -1074).tolist() == [1e-323]


def test_dft_spectrum_refuses_a_part_beyond_float64():
    # 16 samples of 1e308: coefficient 0 is 4e308
    with pytest.raises(ValueError, match="^transform result is beyond float64$"):
        tr.dft_spectrum(np.full(16, 1e308))
    # coefficient 1 is (1 + 1j) * 1.6e308, each part finite: returned, and
    # the spectrum subcommand refuses its magnitude
    rotating = np.array([1.6e308, -1.6e308, -1.6e308, 1.6e308])
    assert tr.dft_spectrum(rotating)[1] == 1.6e308 + 1.6e308j
