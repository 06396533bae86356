"""Self-check suites shared by the command line and the test harness.

Three suites: the sequency map against its brute-force oracle (plus the
doubling recursion), the simulated circuit and wht_sequency against the dense
sequency matrix, and quantum-vs-classical filtering agreement. Each returns a
CheckResult instead of asserting, so callers choose between exit codes and test failures;
an n_max below 1 is a SizingError, not a vacuous pass.

The checks look the code under test up through its modules at call time, so
the tests prove they can fail by patching a fault into that code (a broken
sequency_of, a transform circuit missing a gate, a flipped sign in the H
kernel) and seeing the suite report it. The oracles are never patched.
"""

from __future__ import annotations

__all__ = ["CheckResult", "run_all"]

from dataclasses import dataclass

import numpy as np

from walshdsp import circuits, filters, signals, simulator, transforms

_TABLE_N3 = [0, 7, 3, 4, 1, 6, 2, 5]


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str


def check_sequency_map(n_max: int = 8) -> CheckResult:
    """Map formula vs brute-force zero crossings, frozen table, recursion."""
    name = "sequency-map"
    if n_max >= 3:
        got = [transforms.sequency_of(s, 3) for s in range(8)]
        if got != _TABLE_N3:
            return CheckResult(name, False, f"n=3 map {got} != {_TABLE_N3}")
    for n in range(1, transforms.check_bits(n_max) + 1):
        for s in range(1 << n):
            brute = transforms.zero_crossings_bruteforce(s, n)
            if transforms.sequency_of(s, n) != brute:
                return CheckResult(name, False, f"mismatch at s={s}, n={n}")
            trace = transforms.sequency_recursion_trace(s, n)
            if trace[-1] != brute:
                return CheckResult(name, False, f"recursion ends at {trace[-1]} for s={s}, n={n}")
    return CheckResult(name, True, f"formula = brute force = recursion for all n <= {n_max}")


def check_circuit_vs_matrix(n_max: int = 8) -> CheckResult:
    """Transform circuit and wht_sequency columns vs the dense sequency matrix."""
    name = "circuit-vs-matrix"
    tol = 1e-12
    for n in range(1, transforms.check_bits(n_max) + 1):
        mat = transforms.sequency_matrix(n)
        circuit = circuits.build_sequency_wht(n)
        for j in range(1 << n):
            basis = simulator.basis_state(n, j)
            out = simulator.run_circuit(basis, circuit)
            if np.max(np.abs(out.amplitudes - mat[:, j])) > tol:
                return CheckResult(name, False, f"column {j} deviates at n={n}")
            if np.max(np.abs(transforms.wht_sequency(basis.amplitudes).values - mat[:, j])) > tol:
                return CheckResult(name, False, f"wht_sequency column {j} deviates at n={n}")
    return CheckResult(name, True, f"circuit and wht_sequency columns within {tol} for n <= {n_max}")


def check_path_equivalence(n: int = 6) -> CheckResult:
    """Quantum branches vs classical oracle over a spread of filters."""
    name = "path-equivalence"
    size = 1 << transforms.check_bits(n)
    test_signals = [
        signals.discretize(signals.Waveform("square", cycles=2.0), n),
        signals.tone_composite(n),
    ]
    cutoffs = (size // 4, size // 2, 3 * size // 4)
    specs = [*map(filters.FilterSpec.low_pass, cutoffs), *map(filters.FilterSpec.high_pass, cutoffs),
             filters.FilterSpec.band_pass(size // 4, 3 * size // 4), filters.FilterSpec.dc()]
    for signal in test_signals:
        for spec in specs:
            result = filters.filter_quantum(signal, spec)
            o_pass, o_stop = filters.filter_classical_oracle(signal, spec)
            # branch norms can be ~0, so scale errors by the input norm
            denom = float(np.linalg.norm(signal.values))
            worst = max(
                filters.compare(result.pass_branch, o_pass)["l2_abs"],
                filters.compare(result.stop_branch, o_stop)["l2_abs"],
            ) / denom
            if worst > 1e-10:
                return CheckResult(name, False, f"{spec.describe()}: scaled error {worst:.3e}")
            if abs(result.p_pass + result.p_stop - 1.0) > 1e-12:
                return CheckResult(name, False, f"{spec.describe()}: probabilities do not sum to 1")
            recon = result.pass_branch.values + result.stop_branch.values
            if np.max(np.abs(recon - signal.values)) > 1e-10:
                return CheckResult(name, False, f"{spec.describe()}: branches do not rebuild the input")
    return CheckResult(name, True, f"2 signals x {len(specs)} filters at N={size} within 1e-10")


def run_all(n_max: int = 8) -> list[CheckResult]:
    """The full suite, capped to keep the run quick: the map checks at n = 12
    (their cost grows fourfold per bit) and the matrix checks at n = 8. The
    filter paths are checked at n = 6 and at n = 14, where run_circuit splits
    the state on the ancilla instead of widening it."""
    return [
        check_sequency_map(min(n_max, 12)),
        check_circuit_vs_matrix(min(n_max, 8)),
        check_path_equivalence(6),
        check_path_equivalence(14),
    ]
