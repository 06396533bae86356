"""The reference is right, and every check fails on a corrupted output."""

import numpy as np
import pytest

import checks
import reference
from walshdsp import FilterSpec, filter_classical_oracle, filter_quantum, fwht_natural, wht_sequency
from walshdsp.transforms import SEQUENCY, Coefficients


def swap_pair(v):
    """Exchange the largest and the smallest coefficient."""
    v = np.array(v, dtype=np.float64)
    i, j = int(np.argmax(v)), int(np.argmin(v))
    v[[i, j]] = v[[j, i]]
    return v


@pytest.fixture
def x():
    return np.random.default_rng(7).standard_normal(64)


def test_reference_self_test_passes():
    assert reference.self_test(9) == []


def test_reference_map_is_the_zero_crossing_count():
    for n in range(1, 8):
        assert np.array_equal(
            reference.zero_crossings(reference.walsh_rows(n)), reference.sequency_map(n)
        )


def test_fwht_check(x):
    out = fwht_natural(x).values
    assert checks.check_fwht(x, out) == []
    assert checks.check_fwht(x, swap_pair(out))
    assert checks.check_fwht(x, 1.01 * out)


def test_wht_forward_check(x):
    out = wht_sequency(x).values
    assert checks.check_wht_forward(x, out) == []
    assert checks.check_wht_forward(x, swap_pair(out))
    # natural order presented as sequency order: a wrong map
    assert checks.check_wht_forward(x, fwht_natural(x).values)


def test_wht_inverse_check(x):
    spectrum = reference.to_sequency(x)
    out = wht_sequency(Coefficients(spectrum, SEQUENCY), inverse=True).values
    assert checks.check_wht_inverse(spectrum, out, x) == []
    assert checks.check_wht_inverse(spectrum, swap_pair(out), x)
    assert checks.check_wht_inverse(spectrum, reference.fwht(spectrum), x)


@pytest.mark.parametrize(
    "spec", [FilterSpec.low_pass(16), FilterSpec.high_pass(40), FilterSpec.band_pass(5, 37), FilterSpec.dc()]
)
def test_split_check(x, spec):
    keep = reference.pass_mask(x.size, spec.kind, spec.cutoff, spec.band)
    res = filter_quantum(x, spec, swapped=True)
    good = (res.pass_branch.values, res.stop_branch.values, res.p_pass, res.p_stop)
    assert checks.check_split(x, keep, *good) == []
    oracle_pass, oracle_stop = filter_classical_oracle(x, spec)
    assert checks.check_split(x, keep, oracle_pass.values, oracle_stop.values) == []

    pass_b, stop_b, p_pass, p_stop = good
    assert checks.check_split(x, keep, swap_pair(pass_b), stop_b, p_pass, p_stop)
    assert checks.check_split(x, keep, pass_b, np.zeros_like(stop_b), p_pass, p_stop)
    assert checks.check_split(x, keep, pass_b, stop_b, p_pass + 1e-6, p_stop)
    assert checks.check_split(x, keep, pass_b, stop_b, p_pass, p_stop + 1e-6)
    if spec.kind != "dc":  # row 0 is DC in both orders, so no map can err here
        # the mask applied to the natural-order spectrum: a wrong map
        wrong = reference.fwht(np.where(keep, reference.fwht(x), 0.0))
        assert checks.check_split(x, keep, wrong, x - wrong)


def test_split_check_catches_nan(x):
    keep = reference.pass_mask(x.size, "dc")
    nan = np.full_like(x, np.nan)
    assert checks.check_split(x, keep, nan, nan, float("nan"), float("nan"))


def test_meta_reader_refuses_nan():
    assert checks.read_meta('{"p_pass": 0.5}') == {"p_pass": 0.5}
    with pytest.raises(ValueError):
        checks.read_meta('{"p_pass": NaN}')
