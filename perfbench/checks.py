"""Checks of the program's outputs against the reference and the properties
the method must have. Each returns a list of problems; empty means correct.

Vector tolerances are relative to the input's 2-norm, probability tolerances
absolute. Both sit far above float64 rounding through ~100 gates at n = 20
and far below any misplaced coefficient of a random signal.
"""

from __future__ import annotations

import json

import numpy as np

import reference

RTOL = 1e-9
PTOL = 1e-9


def _near(what: str, got, want, norm: float) -> list[str]:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{what}: shape {got.shape}, expected {want.shape}"]
    err = float(np.linalg.norm(got - want))
    if not err <= RTOL * norm:  # written so that NaN fails
        return [f"{what}: error {err:.3e} exceeds {RTOL:g} x {norm:.6g}"]
    return []


def _parseval(what: str, x, out) -> list[str]:
    a, b = float(np.linalg.norm(x)), float(np.linalg.norm(out))
    if not abs(a - b) <= RTOL * a:
        return [f"{what}: Parseval fails, |x|={a:.17g} |out|={b:.17g}"]
    return []


def check_fwht(x, out) -> list[str]:
    """Natural-order transform: matches the reference, preserves the norm and
    is its own inverse."""
    norm = float(np.linalg.norm(x))
    return (
        _near("fwht_natural vs reference", out, reference.fwht(x), norm)
        + _parseval("fwht_natural", x, out)
        + _near("fwht_natural self-inversion", reference.fwht(out), x, norm)
    )


def check_wht_forward(x, out) -> list[str]:
    """Sequency spectrum: matches the reference, preserves the norm, and the
    reference inverse takes it back to x."""
    norm = float(np.linalg.norm(x))
    return (
        _near("wht_sequency vs reference", out, reference.to_sequency(x), norm)
        + _parseval("wht_sequency", x, out)
        + _near("wht_sequency self-inversion", reference.from_sequency(out), x, norm)
    )


def check_wht_inverse(spectrum, out, x) -> list[str]:
    """Inverse of the reference spectrum of x: gives x back, preserves the norm."""
    norm = float(np.linalg.norm(x))
    return _near("inverse wht_sequency vs input", out, x, norm) + _parseval(
        "inverse wht_sequency", spectrum, out
    )


def check_split(x, keep, pass_branch, stop_branch, p_pass=None, p_stop=None) -> list[str]:
    """A filter's two branches against the reference mask filter, plus:
    pass + stop rebuilds x, each branch's sequency spectrum vanishes outside
    its own set, and (when given) p_pass is the kept energy fraction and
    p_pass + p_stop = 1."""
    x = np.asarray(x, dtype=np.float64)
    norm = float(np.linalg.norm(x))
    ref_pass, ref_stop = reference.mask_filter(x, keep)
    problems = (
        _near("pass branch vs reference", pass_branch, ref_pass, norm)
        + _near("stop branch vs reference", stop_branch, ref_stop, norm)
        + _near("pass + stop vs input", np.add(pass_branch, stop_branch), x, norm)
    )
    if problems:
        return problems
    leak_pass = float(np.linalg.norm(reference.to_sequency(pass_branch)[~keep]))
    leak_stop = float(np.linalg.norm(reference.to_sequency(stop_branch)[keep]))
    if not leak_pass <= RTOL * norm:
        problems.append(f"pass branch leaks {leak_pass:.3e} outside the pass set")
    if not leak_stop <= RTOL * norm:
        problems.append(f"stop branch leaks {leak_stop:.3e} into the pass set")
    if p_pass is not None:
        kept = float(np.sum(reference.to_sequency(x)[keep] ** 2)) / norm**2
        if not abs(p_pass - kept) <= PTOL:
            problems.append(f"p_pass {p_pass!r} is not the kept energy fraction {kept!r}")
        if not abs(p_pass + p_stop - 1.0) <= PTOL:
            problems.append(f"p_pass + p_stop = {p_pass + p_stop!r}, not 1")
    return problems


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} is not JSON")


def read_meta(text: str) -> dict:
    """Parse a filter meta.json strictly: NaN and Infinity are refused."""
    return json.loads(text, parse_constant=_reject_constant)
