"""Transform-layer tests.

Every expected value here is either a hand-frozen constant or produced by a
small oracle implemented independently in this file (dense matrices built
directly from the sign definitions, zero crossings counted on materialized
rows, DFT by direct summation). The library is never used to check itself.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from walshdsp import transforms as tr

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
    # explicit bound override is allowed
    assert tr.zero_crossings_bruteforce(1, 21, bound=21) == (1 << 21) - 1


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


def test_fwht_sizing_error():
    with pytest.raises(tr.SizingError) as err:
        tr.fwht_natural(tr.time_series([1.0, 2.0, 3.0]))
    assert "3" in str(err.value)


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


def test_coefficients_rejects_bad_tag_and_shape():
    with pytest.raises(ValueError):
        tr.Coefficients(np.arange(4.0), "spectral")
    with pytest.raises(ValueError):
        tr.Coefficients(np.zeros((2, 2)), tr.TIME)
