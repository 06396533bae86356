"""In-process timer of filter_quantum with a fresh random spec on every call.

    python tools/fresh_specs.py --src DIR [--src DIR ...] [--rounds R]
        [--ns LO:HI] [--calls K] [--repeats M] [--seed S]

With one --src and one round it imports walshdsp from DIR (a checkout's
src/), makes one seeded standard-normal signal per n in LO..HI (default
8..12) and, before timing, K (kind, edges, swapped) draws: n, then a kind
(dc, low, high, band) and its cutoff or band edges uniformly over the
sizes the spec admits, and swapped. Each of M repeats calls
filter_quantum once per draw, so no spec repeats within a repeat, and the
draws are shuffled anew between repeats. It prints one JSON line: each
repeat's mean µs per call and their median.

With several --src or rounds, each round starts one such process per
--src, seed S + round, the order reversed every other round, and prints
one JSON object with each source's series of medians, in --src order,
and, for two sources, the number of rounds in which the second was
faster. Stdlib only outside the child, which also needs numpy.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path


def span(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    return int(lo), int(hi)


def time_filters(src: Path, ns: tuple[int, int], calls: int, repeats: int, seed: int) -> dict:
    """The in-process timing; imports walshdsp from src."""
    sys.path.insert(0, str(src))
    import numpy as np
    from walshdsp.filters import FilterSpec, filter_quantum

    rng = random.Random(seed)
    signals = {n: np.random.default_rng(seed + n).standard_normal(1 << n) for n in range(ns[0], ns[1] + 1)}
    draws = []
    for _ in range(calls):
        n = rng.randint(*ns)
        size = 1 << n
        kind = rng.choice(("dc", "low", "high", "band"))
        if kind == "dc":
            spec = FilterSpec.dc()
        elif kind == "band":
            lo = rng.randrange(size)
            spec = FilterSpec.band_pass(lo, rng.randint(lo + 1, size))
        else:
            spec = FilterSpec(kind, cutoff=rng.randint(1, size))
        draws.append((signals[n], spec, rng.random() < 0.5))
    filter_quantum(signals[ns[0]], FilterSpec.dc())  # first-call set-up, untimed
    per_call = []
    for _ in range(repeats):
        rng.shuffle(draws)
        start = time.perf_counter()
        for signal, spec, swapped in draws:
            filter_quantum(signal, spec, swapped=swapped)
        per_call.append((time.perf_counter() - start) / calls * 1e6)
    return {"src": str(src), "median_us": statistics.median(per_call), "repeats_us": per_call}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, action="append", required=True, help="a directory holding walshdsp/")
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--ns", type=span, default=(8, 12), help="LO:HI bit widths (default 8:12)")
    parser.add_argument("--calls", type=int, default=200, help="draws, each called once per repeat")
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if len(args.src) == 1 and args.rounds == 1:
        print(json.dumps(time_filters(args.src[0], args.ns, args.calls, args.repeats, args.seed)))
        return 0
    series = [{"src": str(src), "median_us": []} for src in args.src]
    for r in range(args.rounds):
        for side in series if r % 2 == 0 else series[::-1]:
            child = [sys.executable, __file__, "--src", side["src"], "--ns", "{}:{}".format(*args.ns),
                     "--calls", str(args.calls), "--repeats", str(args.repeats), "--seed", str(args.seed + r)]
            result = json.loads(subprocess.run(child, capture_output=True, text=True, check=True).stdout)
            side["median_us"].append(result["median_us"])
            print(f"round {r} {side['src']}: {result['median_us']:.1f} µs", file=sys.stderr)
    record = {"ns": list(args.ns), "calls": args.calls, "repeats": args.repeats, "seed": args.seed,
              "rounds": args.rounds, "series": series}
    if len(series) == 2:
        first, second = (side["median_us"] for side in series)
        record["second_faster_rounds"] = sum(b < a for a, b in zip(first, second))
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
