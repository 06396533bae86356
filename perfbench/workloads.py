"""The benchmark's workloads.

A workload turns a seed into a pool of rounds. A round is a fixed list of
end-to-end operations (`Op`); the runner cycles through the pool in whole
rounds. Sizes, spec kinds and the order of operations never depend on the
seed, so every seed costs about the same; the seed draws the signal values,
cutoffs and band edges.

In a traced run each operation's end-to-end call sits in one span, and the
functions one layer of walshdsp calls in another record spans of their own
(see `Instrumentation`). An operation's `replay` then adds what the call does
not show by itself: one apply_gate per gate kind, gate_stats, and for the CLI
a fresh interpreter's import and the same command run in-process.
"""

from __future__ import annotations

import io
import os
import subprocess
import sys
from contextlib import contextmanager, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import walshdsp
from walshdsp import circuits, cli, filters, signals, simulator, transforms
from walshdsp.filters import FilterSpec

import checks
import reference

# bound before any instrumentation replaces the module attributes
_filter_quantum = filters.filter_quantum
_filter_classical_oracle = filters.filter_classical_oracle
_run_circuit = simulator.run_circuit

SRC = Path(walshdsp.__file__).resolve().parent.parent


class OpFailed(Exception):
    """The operation produced no output: a non-zero exit, or the wrong code."""


@dataclass
class Op:
    kind: str  # metric stem: filter_quantum, filter_oracle, wht_sequency, ...
    span: str  # span of the end-to-end call in a traced run
    n: int
    call: Callable[[], object]
    check: Callable[[object], list]
    replay: Callable | None = None  # (Instrumentation, output of call) -> None
    group: int = 0  # operations of one group form one traced request
    untimed: bool = False  # kept out of every timing and of peak_rss_mb


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable  # (rng, sizes, workdir) -> list of rounds
    full: dict
    tiny: dict
    child_rss: bool = False  # peak RSS is the CLI child's, not this process's


# --- instrumentation -----------------------------------------------------------

# (module, attribute, span): the names walshdsp looks up at call time when one
# layer calls another. `_fwht_inplace` is private; it is the FWHT inside
# wht_sequency and fwht_natural, and is skipped if it is gone.
_PATCHES = (
    (transforms, "natural_to_sequency_perm", "transforms.natural_to_sequency_perm"),
    (transforms, "_fwht_inplace", "transforms.fwht_kernel"),
    (filters, "wht_sequency", "transforms.wht_sequency"),
    (filters, "filter_quantum", "filters.filter_quantum"),
    (filters, "filter_classical_oracle", "filters.filter_classical_oracle"),
    (filters, "compare", "filters.compare"),
    (simulator, "amplitude_encode", "simulator.amplitude_encode"),
    (simulator, "run_circuit", "simulator.run_circuit"),
    (simulator, "project_ancilla", "simulator.project_ancilla"),
    (circuits, "build_filter_circuit", "circuits.build_filter_circuit"),
    (circuits, "gate_stats", "circuits.gate_stats"),
    (signals, "load_csv", "signals.load_csv"),
    (signals, "save_csv", "signals.save_csv"),
    (signals, "discretize", "signals.discretize"),
)


class Instrumentation:
    """Spans around the calls walshdsp makes from one layer into another.

    While installed, each name in _PATCHES is replaced by a wrapper that
    records a span around the original. The workloads' own end-to-end calls
    hold the original functions, so they are not wrapped twice."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.last_run = None  # (input state, circuit) of the latest run_circuit

    def _wrap(self, fn, name):
        tracer = self.tracer

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if fn is _run_circuit:
                state, circuit = args[0], args[1]
                self.last_run = (state, circuit)
                tracer.add("simulator.gates_applied", len(circuit.gates))
                tracer.peak("simulator.state_bytes", result.amplitudes.nbytes)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        saved = [(m, a, name, getattr(m, a)) for m, a, name in _PATCHES if hasattr(m, a)]
        try:
            for module, attr, name, fn in saved:
                setattr(module, attr, self._wrap(fn, name))
            yield self
        finally:
            for module, attr, _, fn in saved:
                setattr(module, attr, fn)

    def circuit_stats(self, probe_gates):
        """After a filter call: gate_stats of the circuit it simulated, and
        with probe_gates one apply_gate of each gate kind on its input state.
        Does nothing if the call did not go through simulator.run_circuit."""
        if self.last_run is None:
            return
        state, circuit = self.last_run
        self.last_run = None
        stats = circuits.gate_stats(circuit)
        self.tracer.add("circuits.gates_total", stats.total)
        self.tracer.add("circuits.mcx_gates", stats.counts["MCX"])
        self.tracer.peak("circuits.depth", stats.depth)
        if probe_gates:
            seen = set()
            for gate in circuit.gates:
                if gate.kind not in seen:
                    seen.add(gate.kind)
                    with self.tracer.span(f"simulator.apply_gate.{gate.kind}"):
                        state = simulator.apply_gate(state, gate)


# --- quantum filter -----------------------------------------------------------


def _quantum_op(x, spec, swapped, probe_gates, group):
    keep = reference.pass_mask(x.size, spec.kind, spec.cutoff, spec.band)

    def check(res):
        return checks.check_split(
            x, keep, res.pass_branch.values, res.stop_branch.values, res.p_pass, res.p_stop
        )

    def replay(inst, _):
        inst.circuit_stats(probe_gates)

    return Op(
        "filter_quantum", "filters.filter_quantum", reference.bit_width(x.size),
        lambda: _filter_quantum(x, spec, swapped=swapped), check, replay, group,
    )


def build_quantum_large(rng, sizes, workdir):
    # fixed mix: the cost of a round does not depend on the seed
    n = sizes["n"]
    size = 1 << n
    x = rng.standard_normal(size)
    mix = [
        (FilterSpec.low_pass(size // 4), False),
        (FilterSpec.high_pass(3 * size // 8), True),
        (FilterSpec.band_pass(size // 8 + 1, 5 * size // 8 - 1), False),
        (FilterSpec.dc(), True),
    ]
    return [[_quantum_op(x, spec, swapped, True, i) for i, (spec, swapped) in enumerate(mix)]]


def _random_specs(rng, size):
    lo = int(rng.integers(0, size))
    return [
        FilterSpec.low_pass(int(rng.integers(1, size + 1))),
        FilterSpec.high_pass(int(rng.integers(1, size + 1))),
        # random edges break into many dyadic blocks
        FilterSpec.band_pass(lo, int(rng.integers(lo + 1, size + 1))),
        FilterSpec.dc(),
    ]


def build_quantum_small(rng, sizes, workdir):
    top = max(sizes["ns"])
    pool = []
    for _ in range(sizes["pool"]):
        ops = []
        for n in sizes["ns"]:
            x = rng.standard_normal(1 << n)
            for spec in _random_specs(rng, 1 << n):
                for swapped in (False, True):
                    ops.append(_quantum_op(x, spec, swapped, n == top, len(ops)))
        pool.append(ops)
    return pool


# --- classical path -----------------------------------------------------------


def build_classical(rng, sizes, workdir):
    # one round sweeps the ladder `passes` times: the scalar map loop drifts
    # by 10-20 % over seconds, so a run needs several sweeps to settle
    ops = []
    for sweep in range(sizes["passes"]):
        for step, n in enumerate(sizes["ladder"]):
            group = sweep * len(sizes["ladder"]) + step
            x = rng.standard_normal(1 << n)
            spectrum = reference.to_sequency(x)
            seq = transforms.Coefficients(spectrum, transforms.SEQUENCY)

            ops += [
                Op("fwht_natural", "transforms.fwht_natural", n,
                   lambda x=x: transforms.fwht_natural(x),
                   lambda out, x=x: checks.check_fwht(x, out.values), group=group),
                Op("wht_sequency", "transforms.wht_sequency", n,
                   lambda x=x: transforms.wht_sequency(x),
                   lambda out, x=x: checks.check_wht_forward(x, out.values),
                   group=group),
                Op("wht_sequency", "transforms.wht_sequency", n,
                   lambda seq=seq: transforms.wht_sequency(seq, inverse=True),
                   lambda out, x=x, s=spectrum: checks.check_wht_inverse(s, out.values, x),
                   group=group),
            ]
            if n <= sizes["oracle_max"]:
                spec = _random_specs(rng, 1 << n)[step % 3]
                keep = reference.pass_mask(x.size, spec.kind, spec.cutoff, spec.band)
                ops.append(
                    Op("filter_oracle", "filters.filter_classical_oracle", n,
                       lambda x=x, spec=spec: _filter_classical_oracle(x, spec),
                       lambda out, x=x, keep=keep: checks.check_split(
                           x, keep, out[0].values, out[1].values),
                       group=group)
                )
    return [ops]


# --- CLI ----------------------------------------------------------------------


def run_python(args, cwd):
    """Run `python <args>` against the checkout's sources; wait for it.

    Returns (exit code, resource usage of that child alone)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(Path(cwd) / "child.stderr", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=cwd
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _waveform_signal(rng, n):
    parts = [
        signals.Waveform("sine", cycles=float(rng.uniform(1, 64)),
                         amplitude=float(rng.uniform(0.5, 1.5)), phase=float(rng.uniform(0, 6.28))),
        signals.Waveform("square", cycles=float(rng.integers(1, 256)),
                         amplitude=float(rng.uniform(0.1, 0.5))),
        signals.Waveform("triangular", cycles=float(rng.uniform(1, 32)),
                         amplitude=float(rng.uniform(0.1, 0.5))),
        signals.Waveform("rectangular_pulse", offset=float(rng.uniform(0, 0.5)),
                         width=float(rng.uniform(0.05, 0.5)), amplitude=float(rng.uniform(-1, 1))),
    ]
    return sum(signals.discretize(wave, n).values for wave in parts)


def _spec_args(spec, swapped):
    args = ["--kind", spec.kind]
    if spec.kind in ("low", "high"):
        args += ["--cutoff", str(spec.cutoff)]
    elif spec.kind == "band":
        args += ["--band", f"{spec.band[0]}:{spec.band[1]}"]
    return args + (["--swapped"] if swapped else [])


def _cli_op(workdir, path, x, spec, swapped, prefix, group):
    keep = reference.pass_mask(x.size, spec.kind, spec.cutoff, spec.band)
    command = ["filter", *_spec_args(spec, swapped), "--input", str(path), "--output-prefix"]

    def call():
        code, usage = run_python(["-m", "walshdsp.cli", *command, prefix], workdir)
        if code != 0:
            raise OpFailed(f"walshdsp filter exited {code}")
        return usage

    def check(_):
        try:
            branches = [np.loadtxt(f"{prefix}.{b}.csv", ndmin=1) for b in ("pass", "stop")]
            meta = checks.read_meta(Path(f"{prefix}.meta.json").read_text())
            problems = checks.check_split(x, keep, *branches, meta["p_pass"], meta["p_stop"])
        except (OSError, ValueError, KeyError) as err:
            return [f"unreadable filter output {prefix}: {err}"]
        if meta.get("n_samples") != x.size:
            problems.append(f"meta n_samples {meta.get('n_samples')!r}, expected {x.size}")
        return problems

    def replay(inst, _):
        # the same command in this process, so the layers below it get spans
        tracer = inst.tracer
        with tracer.span("cli.import"):
            run_python(["-c", "import walshdsp"], workdir)
        with tracer.span("cli.main"), redirect_stdout(io.StringIO()):
            code = cli.main([*command, prefix + ".replay"])
        if code != 0:
            raise OpFailed(f"walshdsp.cli.main exited {code}")
        inst.circuit_stats(probe_gates=True)
        for name in (path, f"{prefix}.pass.csv", f"{prefix}.stop.csv"):
            tracer.add("signals.csv_bytes", os.path.getsize(name))

    return Op("cli_filter", "cli.filter", reference.bit_width(x.size), call, check, replay, group)


def _nan_op(workdir, group):
    """Known fault: a CSV holding `nan` must end in exit 3 (runtime error).

    The program exits 0 instead, with all-NaN branches and a meta.json that
    strict JSON rejects, because the norm check in Statevector is false for
    NaN. The input does not depend on the seed, so it fails in every round."""
    path = Path(workdir) / "nan.csv"
    lines = [f"{np.sin(k):.17g}" for k in range(64)]
    lines[17] = "nan"
    path.write_text("\n".join(lines) + "\n")
    argv = ["-m", "walshdsp.cli", "filter", "--kind", "low", "--cutoff", "16",
            "--input", str(path), "--output-prefix", str(Path(workdir) / "nan-out")]

    def call():
        code, usage = run_python(argv, workdir)
        if code != 3:
            raise OpFailed(f"walshdsp filter on a NaN sample exited {code}, expected 3")
        return usage

    return Op("cli_filter_nan", "cli.filter", 6, call, lambda _: [], None, group, untimed=True)


def build_cli(rng, sizes, workdir):
    inputs = Path(workdir) / "inputs"
    inputs.mkdir(exist_ok=True)
    pool = []
    for r in range(sizes["pool"]):
        ops = []
        for i, (n, kind) in enumerate(sizes["requests"]):
            x = _waveform_signal(rng, n)
            path = inputs / f"r{r}-{i}.csv"
            signals.save_csv(path, x)
            spec = {s.kind: s for s in _random_specs(rng, 1 << n)}[kind]
            prefix = str(inputs / f"r{r}-{i}.out")
            ops.append(_cli_op(workdir, path, x, spec, i % 2 == 1, prefix, i))
        ops.append(_nan_op(workdir, len(ops)))
        pool.append(ops)
    return pool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("quantum-filter-large", build_quantum_large, {"n": 20}, {"n": 6}),
        Workload("classical-path", build_classical,
                 {"ladder": (10, 14, 18, 20), "oracle_max": 18, "passes": 2},
                 {"ladder": (3, 4, 5, 6), "oracle_max": 5, "passes": 1}),
        Workload("quantum-filter-small", build_quantum_small,
                 {"ns": (8, 9, 10, 11, 12), "pool": 16},
                 {"ns": (3, 4, 5), "pool": 2}),
        Workload("cli-filter", build_cli,
                 {"requests": ((14, "low"), (14, "dc"), (15, "band"), (16, "high")), "pool": 2},
                 {"requests": ((5, "low"), (6, "band")), "pool": 1},
                 child_rss=True),
    )
}
