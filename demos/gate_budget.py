"""Tabulate gate counts of half-band low-pass filters as the register grows.

Run: python3 demos/gate_budget.py

Exits 1 if any row's total misses the closed form (marked UNEXPECTED).
"""

import sys

from walshdsp import FilterSpec, build_filter_circuit, gate_stats


def main() -> int:
    print("half-band low-pass filter, cutoff N/2, n = 3..12")
    print(f"{'n':>3} {'N':>6} {'total':>6} {'depth':>6} {'H':>3} {'X':>3} {'CNOT':>5} {'SWAP':>5} {'MCX':>4}  arities")
    unexpected = 0
    for n in range(3, 13):
        spec = FilterSpec.low_pass(1 << (n - 1))
        stats = gate_stats(build_filter_circuit(n, spec))
        c = stats.counts
        closed_form = 2 * n + 2 * (n - 1) + 2 * (n // 2) + 2
        unexpected += stats.total != closed_form
        note = "" if stats.total == closed_form else "  UNEXPECTED"
        arities = ",".join(map(str, stats.mcx_arities))
        print(f"{n:>3} {1 << n:>6} {stats.total:>6} {stats.depth:>6} "
              f"{c['H']:>3} {c['X']:>3} {c['CNOT']:>5} {c['SWAP']:>5} {c['MCX']:>4}  {arities}{note}")
    print("\ntotal = 2n + 2(n-1) + 2*floor(n/2) + 2: logarithmic in the sample count N = 2^n")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
