"""Command line front end.

Subcommands: transform, filter, spectrum, sequency-map, verify, gates.
Exit codes: 0 success, 1 verification failure, 2 usage error, 3 runtime
error (missing files, malformed CSV, nan or inf samples, non power-of-two
lengths, cutoffs that do not resolve to an integer).

Cutoffs and band edges accept plain integers or expressions in the loaded
length: ``N``, ``N/4``, ``3N/4``. Expressions must resolve exactly; ``N/3``
on a 128-sample input is a runtime error, not a rounding.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass

import numpy as np

from walshdsp import circuits, filters, signals, transforms, verification

_GATE_KINDS = ("sequency-wht", "uz", "uz-inverse", "dc", "low", "high", "band")


@dataclass(frozen=True)
class CutoffExpr:
    """Either a literal sample count or a*N/b in the input length N."""

    literal: int | None = None
    num: int = 1
    den: int = 1

    def resolve(self, size: int) -> int:
        if self.literal is not None:
            return self.literal
        value, rem = divmod(self.num * size, self.den)
        if rem:
            raise ValueError(f"cutoff {self.num}N/{self.den} is not an integer for N={size}")
        return value


def _cutoff_type(text: str) -> CutoffExpr:
    t = text.strip()
    if re.fullmatch(r"\d+", t):
        return CutoffExpr(literal=int(t))
    m = re.fullmatch(r"(\d*)N(?:/(\d+))?", t)
    if m:
        num = int(m.group(1)) if m.group(1) else 1
        den = int(m.group(2)) if m.group(2) else 1
        if den == 0:
            raise argparse.ArgumentTypeError(f"zero denominator in {text!r}")
        return CutoffExpr(num=num, den=den)
    raise argparse.ArgumentTypeError(f"expected an integer, N, N/d, or aN/d: {text!r}")


def _band_type(text: str) -> tuple[CutoffExpr, CutoffExpr]:
    lo, sep, hi = text.partition(":")
    if not sep or not lo or not hi:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    return _cutoff_type(lo), _cutoff_type(hi)


def _span_type(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+):(\d+)", text.strip())
    if not m:
        raise argparse.ArgumentTypeError(f"expected LO:HI integers, got {text!r}")
    lo, hi = int(m.group(1)), int(m.group(2))
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty sweep {text!r}")
    return lo, hi


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="walshdsp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="apply a Walsh-Hadamard transform to a CSV signal")
    p.add_argument("--order", choices=(transforms.NATURAL, transforms.SEQUENCY), default=transforms.SEQUENCY)
    p.add_argument("--inverse", action="store_true")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("filter", help="run the ancilla filter circuit on a CSV signal")
    p.add_argument("--kind", choices=filters.KINDS, required=True)
    p.add_argument("--cutoff", type=_cutoff_type)
    p.add_argument("--band", type=_band_type, metavar="LO:HI")
    p.add_argument("--swapped", action="store_true", help="pass branch on ancilla outcome 1")
    p.add_argument("--input", required=True)
    p.add_argument("--output-prefix", required=True)

    p = sub.add_parser("spectrum", help="write sequency and/or frequency magnitudes")
    p.add_argument("--which", choices=("sequency", "frequency", "both"), default="sequency")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("sequency-map", help="print s,g pairs of the natural-to-sequency map")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("verify", help="run the self-check suites")
    p.add_argument("--n-max", type=int, default=8)

    p = sub.add_parser("gates", help="build a circuit and report its gate inventory")
    p.add_argument("--kind", choices=_GATE_KINDS, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--cutoff", type=_cutoff_type)
    p.add_argument("--band", type=_band_type, metavar="LO:HI")
    p.add_argument("--dump", help="write the circuit as JSON to this path")
    p.add_argument("--sweep", type=_span_type, metavar="LO:HI", help="tabulate stats for a range of n")
    p.add_argument("--output", help="sweep CSV path (default stdout)")
    return parser


def _parseval_line(before: np.ndarray, after: np.ndarray) -> str:
    # norms in binary units of the larger peak, so that huge samples do not
    # overflow them
    peak = max(np.max(np.abs(before), initial=0.0), np.max(np.abs(after), initial=0.0))
    unit = transforms.binary_unit(peak)
    a = unit * float(np.linalg.norm(before / unit))
    b = unit * float(np.linalg.norm(after / unit))
    return f"parseval: |input|={a:.12g} |output|={b:.12g} drift={abs(a - b):.3e}"


def _cmd_transform(args: argparse.Namespace) -> int:
    v = signals.load_csv(args.input)
    if args.order == transforms.NATURAL:
        out = transforms.fwht_natural(v)
    else:
        out = transforms.wht_sequency(v, inverse=args.inverse)
    signals.save_csv(args.output, out.values)
    print(_parseval_line(v.values, out.values))
    return 0


def _filter_spec(args: argparse.Namespace, size: int, parser: argparse.ArgumentParser) -> filters.FilterSpec:
    if args.kind == "dc":
        if args.cutoff is not None or args.band is not None:
            parser.error("dc takes no --cutoff or --band")
        return filters.FilterSpec.dc()
    if args.kind == "band":
        if args.band is None or args.cutoff is not None:
            parser.error("band requires --band LO:HI and no --cutoff")
        lo, hi = args.band[0].resolve(size), args.band[1].resolve(size)
        return filters.FilterSpec.band_pass(lo, hi)
    if args.cutoff is None or args.band is not None:
        parser.error(f"{args.kind} requires --cutoff and no --band")
    cutoff = args.cutoff.resolve(size)
    if args.kind == "low":
        return filters.FilterSpec.low_pass(cutoff)
    return filters.FilterSpec.high_pass(cutoff)


def _cmd_filter(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    signal = signals.load_csv(args.input)
    spec = _filter_spec(args, len(signal), parser)

    result = filters.filter_quantum(signal, spec, swapped=args.swapped)
    oracle_pass, oracle_stop = filters.filter_classical_oracle(signal, spec)
    circuit = result.circuit
    stats = circuits.gate_stats(circuit)

    leading_x = bool(circuit.gates) and circuit.gates[0].kind == "X"
    recon = transforms.time_series(result.pass_branch.values + result.stop_branch.values)
    oracle_recon = transforms.time_series(oracle_pass.values + oracle_stop.values)
    meta = {
        "kind": spec.kind,
        "cutoff": spec.cutoff,
        "band": list(spec.band) if spec.band is not None else None,
        "n_samples": len(signal),
        "n_qubits": circuit.n_qubits,
        "scale": result.scale,
        "p_pass": result.p_pass,
        "p_stop": result.p_stop,
        "convention": {
            "swapped": bool(args.swapped),
            "pass_ancilla_outcome": 1 if args.swapped else 0,
            "leading_x": leading_x,
            "selector_fires_on": "pass" if (leading_x != bool(args.swapped)) else "stop",
        },
        "gate_stats": stats.as_dict(),
        "errors": {
            "quantum_vs_oracle_pass": filters.compare(result.pass_branch, oracle_pass),
            "quantum_vs_oracle_stop": filters.compare(result.stop_branch, oracle_stop),
            "quantum_reconstruction": filters.compare(recon, signal),
            "oracle_reconstruction": filters.compare(oracle_recon, signal),
        },
    }
    pass_path = args.output_prefix + ".pass.csv"
    stop_path = args.output_prefix + ".stop.csv"
    meta_path = args.output_prefix + ".meta.json"
    signals.save_csv(pass_path, result.pass_branch.values)
    signals.save_csv(stop_path, result.stop_branch.values)
    with open(meta_path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(meta, indent=2) + "\n")
    print(f"{spec.describe()}: p_pass={result.p_pass:.12g} p_stop={result.p_stop:.12g}")
    print(f"wrote {pass_path}, {stop_path}, {meta_path}")
    return 0


def _suffixed(path: str, tag: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}.{tag}{ext}" if ext else f"{root}.{tag}"


def _cmd_spectrum(args: argparse.Namespace) -> int:
    v = signals.load_csv(args.input)
    written = []
    if args.which in ("sequency", "both"):
        seq = transforms.wht_sequency(v)
        path = _suffixed(args.output, "sequency") if args.which == "both" else args.output
        signals.save_csv(path, np.abs(seq.values), with_index=True)
        written.append(path)
    if args.which in ("frequency", "both"):
        dft = transforms.dft_spectrum(v)
        path = _suffixed(args.output, "frequency") if args.which == "both" else args.output
        signals.save_csv(path, np.abs(dft), with_index=True)
        written.append(path)
    print("wrote " + ", ".join(written))
    return 0


def _cmd_sequency_map(args: argparse.Namespace) -> int:
    if not 1 <= args.n <= 20:
        raise ValueError(f"n must be in 1..20, got {args.n}")
    for s in range(1 << args.n):
        print(f"{s},{transforms.sequency_of(s, args.n)}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.n_max < 1:
        raise ValueError(f"--n-max must be positive, got {args.n_max}")
    results = verification.run_all(args.n_max)
    failed = False
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        failed = failed or not r.ok
        print(f"{status} {r.name}: {r.detail}")
    return 1 if failed else 0


def _gates_build(args: argparse.Namespace, n: int, parser: argparse.ArgumentParser) -> circuits.Circuit:
    if args.kind == "sequency-wht":
        return circuits.build_sequency_wht(n)
    if args.kind == "uz":
        return circuits.build_uz(n)
    if args.kind == "uz-inverse":
        return circuits.build_uz_inverse(n)
    return circuits.build_filter_circuit(n, _filter_spec(args, 1 << n, parser))


def _cmd_gates(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    if args.sweep is None and args.n is None:
        parser.error("gates requires --n (or --sweep LO:HI)")
    if args.sweep is not None:
        lo, hi = args.sweep
        if lo < 1:
            parser.error("sweep must start at n >= 1")
        rows = ["n,total,depth,h,x,cnot,swap,mcx,arities"]
        for n in range(lo, hi + 1):
            stats = circuits.gate_stats(_gates_build(args, n, parser))
            c = stats.counts
            arities = ";".join(str(a) for a in stats.mcx_arities)
            rows.append(
                f"{n},{stats.total},{stats.depth},{c['H']},{c['X']},{c['CNOT']},{c['SWAP']},{c['MCX']},{arities}"
            )
        text = "\n".join(rows) + "\n"
        if args.output:
            with open(args.output, "w", encoding="ascii") as fh:
                fh.write(text)
            print(f"wrote {args.output}")
        else:
            sys.stdout.write(text)
        return 0

    if args.n < 1:
        raise ValueError(f"n must be positive, got {args.n}")
    circuit = _gates_build(args, args.n, parser)
    stats = circuits.gate_stats(circuit)
    print(f"label: {circuit.label}")
    print(f"n_qubits: {circuit.n_qubits}")
    for kind in ("H", "X", "CNOT", "SWAP", "MCX"):
        print(f"{kind} {stats.counts[kind]}")
    arities = ";".join(str(a) for a in stats.mcx_arities) or "-"
    print(f"mcx_arities {arities}")
    print(f"total {stats.total}")
    print(f"depth {stats.depth}")
    if args.dump:
        with open(args.dump, "w", encoding="ascii") as fh:
            fh.write(circuits.circuit_to_json(circuit))
        print(f"wrote {args.dump}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "transform":
            return _cmd_transform(args)
        if args.command == "filter":
            return _cmd_filter(args, parser)
        if args.command == "spectrum":
            return _cmd_spectrum(args)
        if args.command == "sequency-map":
            return _cmd_sequency_map(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "gates":
            return _cmd_gates(args, parser)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
