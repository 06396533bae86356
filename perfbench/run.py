"""Benchmark of walshdsp: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ./src. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics (with `all`, one such line per workload). With --trace 0 the metrics are the end-to-end
ones of BENCHMARK.json, with --trace 1 the per-layer ones; the lines above it
give every figure by name and unit. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import reference
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = HERE / ".work"
SETUP_REPEATS = 3
GATE_KINDS = ("H", "X", "CNOT", "SWAP", "MCX")

# per-layer metric -> span whose mean self time per call it reports; for the
# three residuals that is the part of the call outside every layer below it
LAYER_SPANS = {
    "transforms.sequency_perm_s": "transforms.natural_to_sequency_perm",
    "transforms.fwht_s": "transforms.fwht_kernel",
    "transforms.wht_residual_s": "transforms.wht_sequency",
    **{f"simulator.gate_s.{k}": f"simulator.apply_gate.{k}" for k in GATE_KINDS},
    "simulator.run_circuit_s": "simulator.run_circuit",
    "simulator.encode_s": "simulator.amplitude_encode",
    "simulator.project_s": "simulator.project_ancilla",
    "circuits.build_filter_s": "circuits.build_filter_circuit",
    "circuits.gate_stats_s": "circuits.gate_stats",
    "filters.quantum_residual_s": "filters.filter_quantum",
    "filters.oracle_residual_s": "filters.filter_classical_oracle",
    "signals.load_csv_s": "signals.load_csv",
    "signals.save_csv_s": "signals.save_csv",
    "signals.discretize_s": "signals.discretize",
    "cli.import_s": "cli.import",
}
# counts of the first round, taken from public return values
COUNTS = {
    "simulator.state_bytes": "bytes",
    "simulator.gates_applied": "count",
    "circuits.gates_total": "count",
    "circuits.mcx_gates": "count",
    "circuits.depth": "count",
    "signals.csv_bytes": "bytes",
}
PER_LAYER_UNITS = {**{m: "s" for m in LAYER_SPANS}, "cli.residual_s": "s", **COUNTS}


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer) -> dict:
    """Per-layer figures from the spans and counts of a traced run.

    Times are mean self time per call, 0 where the workload never calls the
    layer. cli.residual_s is, per request, the `walshdsp filter` subprocess
    minus a bare `import walshdsp` and minus the same command run in-process."""
    own = tracer.self_times()
    per_name = defaultdict(list)
    for i, record in enumerate(tracer.spans):
        per_name[record[0]].append(own[i])
    out = {m: _mean(per_name[span]) for m, span in LAYER_SPANS.items()}
    residual = []
    for names in tracer.by_request().values():
        def durations(name):
            return [d for d, _ in names.get(name, ())]

        residual += [c - i - m for c, i, m in zip(
            durations("cli.filter"), durations("cli.import"), durations("cli.main"))]
    out["cli.residual_s"] = _mean(residual)
    out.update({m: tracer.counts.get(m, 0) for m in COUNTS})
    return out


class Tally:
    """What the measured loop saw: operations, timings, problems."""

    def __init__(self):
        self.attempted = self.failed = self.samples = 0
        self.busy = 0.0
        self.times = defaultdict(list)  # (kind, n) -> seconds per call
        self.round_means = []
        self.child_rss_kb = []
        self.problems = []
        self.rounds = 0


def measure(rounds, seconds, tracer, inst, child_rss) -> Tally:
    """Whole rounds until `seconds` of wall time have passed (at least one).

    Only the end-to-end call is timed; replays and checks come after it."""
    from workloads import OpFailed

    tally = Tally()
    start = time.perf_counter()
    while tally.rounds == 0 or time.perf_counter() - start < seconds:
        if tracer:
            tracer.counting = tally.rounds == 0
        this_round = []
        for op in rounds[tally.rounds % len(rounds)]:
            tally.attempted += 1
            if tracer:
                tracer.request = f"{tally.rounds}.{op.group}"
            t0 = time.perf_counter()
            try:
                with tracer.span(op.span) if tracer else nullcontext():
                    result = op.call()
            except OpFailed as err:
                tally.failed += 1
                print(f"failed: {err}", file=sys.stderr)
                continue
            except Exception as err:  # the program raised: count it, keep going
                tally.failed += 1
                print(f"failed: {op.kind} n={op.n}: {err!r}", file=sys.stderr)
                continue
            elapsed = time.perf_counter() - t0
            if tracer and op.replay:
                op.replay(inst, result)
            tally.problems += [f"{op.kind} n={op.n}: {p}" for p in op.check(result)]
            if not op.untimed:
                tally.times[op.kind, op.n].append(elapsed)
                this_round.append(elapsed)
                tally.samples += 1 << op.n
                tally.busy += elapsed
                if child_rss:
                    tally.child_rss_kb.append(result.ru_maxrss)
            del result  # not alive during the next call, so not in its peak RSS
        if this_round:
            tally.round_means.append(_mean(this_round))
        tally.rounds += 1
    return tally


def _report(name, seed, trace, tally, end_to_end, out):
    print(f"{name} seed={seed} {'traced' if trace else 'untraced'}: {tally.rounds} rounds, "
          f"{tally.attempted} operations, {tally.failed} failed", file=out)
    by_kind = defaultdict(list)
    for (kind, n), values in sorted(tally.times.items()):
        by_kind[kind] += values
        print(f"  {kind}_s[n={n}] {_median(values):.6g} s  (median of {len(values)})", file=out)
    for kind, values in by_kind.items():
        print(f"  {kind}_s {_median(values):.6g} s  (median of {len(values)})", file=out)
        if len(values) >= 100:  # at least ten calls beyond the 90th percentile
            p90 = statistics.quantiles(values, n=10)[-1]
            print(f"  {kind}_p90_s {p90:.6g} s  (of {len(values)})", file=out)
    for metric, (value, unit) in end_to_end.items():
        print(f"  {metric} {value:.6g} {unit}", file=out)
    for p in tally.problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)


def run_workload(name, seed, seconds, trace, tiny=False, out=sys.stdout) -> dict:
    """Set up, run whole rounds for `seconds`, check every output; return the
    object the last line prints."""
    from workloads import WORKLOADS, Instrumentation, run_python  # needs src on the path

    workload = WORKLOADS[name]
    sizes = workload.tiny if tiny else workload.full
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    tracer = Tracer() if trace else None
    inst = Instrumentation(tracer) if trace else None
    instrumented = inst.installed if trace else nullcontext
    try:
        # set-up: a fresh interpreter's import, the inputs, one call of each kind
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            run_python(["-c", "import walshdsp"], workdir)
            if tracer:
                tracer.request = "setup"
            with instrumented():
                rounds = workload.build(np.random.default_rng(seed), sizes, workdir)
            warm_dir = workdir / "warm-up"
            warm_dir.mkdir(exist_ok=True)
            warm = workload.build(np.random.default_rng(seed), workload.tiny, warm_dir)
            for kind in dict.fromkeys(op.kind for op in warm[0] if not op.untimed):
                next(op for op in warm[0] if op.kind == kind).call()
            setups.append(time.perf_counter() - start)

        with instrumented():
            tally = measure(rounds, seconds, tracer, inst, workload.child_rss)
        tally.problems += reference.self_test()

        if workload.child_rss:
            rss_kb = _median(tally.child_rss_kb)
        else:
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        end_to_end = {
            "setup_s": (_median(setups), "s"),
            "call_s": (_median(tally.round_means), "s"),
            "samples_per_s": (tally.samples / tally.busy if tally.busy else 0.0, "samples/s"),
            "peak_rss_mb": (rss_kb / 1024, "MB"),
        }
        _report(name, seed, trace, tally, end_to_end, out)
        if tracer:
            layers = layer_metrics(tracer)
            for metric, value in layers.items():
                print(f"  {metric} {value:.6g} {PER_LAYER_UNITS[metric]}", file=out)
            trace_path = WORK_ROOT / f"trace-{name}-seed{seed}.jsonl"
            tracer.write(trace_path)
            print(f"  spans written to {trace_path.relative_to(ROOT)}", file=out)
            metrics = {m: {"value": v, "unit": PER_LAYER_UNITS[m]} for m, v in layers.items()}
        else:
            metrics = {m: {"value": v, "unit": u} for m, (v, u) in end_to_end.items()}
        return {"correct": not tally.problems, "attempted": tally.attempted,
                "failed": tally.failed, "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "walshdsp" / "__init__.py").is_file():
        print(f"perfbench: no walshdsp sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if names[0] not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of all, {', '.join(WORKLOADS)}")
    for name in names:
        print(json.dumps(run_workload(name, args.seed, args.seconds, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
