"""Command line front end; `walshdsp --help` lists the subcommands.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 runtime
error (missing files, malformed CSV, nan or inf samples, lengths that are
not a power of two or are 1, cutoffs that do not resolve to an integer, a
transform result or a filter branch beyond float64, a bit width below 1 in
gates --n or --sweep, sequency-map --n or verify --n-max, all with the one
message of transforms.check_bits, and sequency-map --n above 20).

Cutoffs and band edges accept plain integers or expressions in the loaded
length: ``N``, ``N/4``, ``3N/4``. Expressions must resolve exactly; ``N/3``
on a 128-sample input is a runtime error, not a rounding.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass

import numpy as np

from walshdsp import circuits, filters, signals, simulator, transforms, verification

_PLAIN_CIRCUITS = {
    "sequency-wht": circuits.build_sequency_wht,
    "uz": circuits.build_uz,
    "uz-inverse": circuits.build_uz_inverse,
}


def _dft_magnitudes(v: transforms.Coefficients) -> np.ndarray:
    # |X| can pass float64 where X's parts do not (|1+1j| * 1.6e308), so the
    # magnitudes are taken in peak units and leave them through _from_units
    unit, (scaled,) = transforms.peak_units(v.values)
    return transforms._from_units(np.abs(transforms.dft_spectrum(scaled)), unit)


# the magnitudes the spectrum subcommand writes, in this order for --which both
_SPECTRA = {
    "sequency": lambda v: np.abs(transforms.wht_sequency(v).values),
    "frequency": _dft_magnitudes,
}
# sequency-map prints 2**n lines, so its output is capped at n = 20 (about 15 MB)
_MAP_MAX_BITS = 20


@dataclass(frozen=True)
class CutoffExpr:
    """Either a literal sample count or a*N/b in the input length N, with the text it was read from."""

    literal: int | None = None
    num: int = 1
    den: int = 1
    text: str = ""

    def resolve(self, size: int, what: str = "cutoff") -> int:
        """The count for N = size; ValueError naming what and the text if it is not an integer."""
        if self.literal is not None:
            return self.literal
        value, rem = divmod(self.num * size, self.den)
        if rem:
            raise ValueError(f"{what} {self.text} is not an integer for N={size}")
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
        return CutoffExpr(num=num, den=den, text=t)
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
    p.add_argument("--inverse", action="store_true",
                   help="transform back; both orderings are self-inverse, so this computes the same product")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(run=_cmd_transform, parser=p)

    p = sub.add_parser("filter", help="run the ancilla filter circuit on a CSV signal")
    p.add_argument("--kind", choices=filters.KINDS, required=True)
    p.add_argument("--cutoff", type=_cutoff_type)
    p.add_argument("--band", type=_band_type, metavar="LO:HI")
    p.add_argument("--swapped", action="store_true", help="pass branch on ancilla outcome 1")
    p.add_argument("--input", required=True)
    p.add_argument("--output-prefix", required=True)
    p.set_defaults(run=_cmd_filter, parser=p)

    p = sub.add_parser("spectrum", help="write sequency and/or frequency magnitudes")
    p.add_argument("--which", choices=(*_SPECTRA, "both"), default="sequency")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(run=_cmd_spectrum, parser=p)

    p = sub.add_parser("sequency-map", help="print s,g pairs of the natural-to-sequency map")
    p.add_argument("--n", type=int, required=True, help=f"bit width, at most {_MAP_MAX_BITS}")
    p.set_defaults(run=_cmd_sequency_map, parser=p)

    p = sub.add_parser("verify", help="run the self-check suites")
    p.add_argument("--n-max", type=int, default=8)
    p.set_defaults(run=_cmd_verify, parser=p)

    p = sub.add_parser("gates", help="build a circuit and report its gate inventory")
    p.add_argument("--kind", choices=(*_PLAIN_CIRCUITS, *filters.KINDS), required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--cutoff", type=_cutoff_type)
    p.add_argument("--band", type=_band_type, metavar="LO:HI")
    p.add_argument("--dump", help="write the --n circuit as JSON to this path")
    p.add_argument("--sweep", type=_span_type, metavar="LO:HI", help="tabulate stats for a range of n, instead of --n")
    p.add_argument("--output", help="sweep CSV path (default stdout); only with --sweep")
    p.set_defaults(run=_cmd_gates, parser=p)
    return parser


def _parseval_line(before: np.ndarray, after: np.ndarray) -> str:
    # norms and drift in peak units, so that huge samples overflow neither
    # the drift nor, while float64 can hold them, the norms
    unit, (before, after) = transforms.peak_units(before, after)
    a, b = float(np.linalg.norm(before)), float(np.linalg.norm(after))
    return f"parseval: |input|={unit * a:.12g} |output|={unit * b:.12g} drift={unit * abs(a - b):.3e}"


def _cmd_transform(args: argparse.Namespace) -> int:
    v = signals.load_csv(args.input)
    if args.order == transforms.NATURAL:
        out = transforms.fwht_natural(v)
    else:
        out = transforms.wht_sequency(v, inverse=args.inverse)
    signals.save_csv(args.output, out.values)
    print(_parseval_line(v.values, out.values))
    return 0


def _filter_spec(args: argparse.Namespace, size: int) -> filters.FilterSpec:
    if args.kind == "dc":
        if args.cutoff is not None or args.band is not None:
            args.parser.error("dc takes no --cutoff or --band")
        return filters.FilterSpec.dc()
    if args.kind == "band":
        if args.band is None or args.cutoff is not None:
            args.parser.error("band requires --band LO:HI and no --cutoff")
        return filters.FilterSpec("band", band=tuple(edge.resolve(size, "band edge") for edge in args.band))
    if args.cutoff is None or args.band is not None:
        args.parser.error(f"{args.kind} requires --cutoff and no --band")
    return filters.FilterSpec(args.kind, cutoff=args.cutoff.resolve(size))


def _json_metrics(metrics: dict[str, float]) -> dict[str, float | None]:
    # compare's l2_rel is inf where the reference is exactly zero and the
    # other vector is not; JSON has no inf, so such a metric is null
    return {name: value if math.isfinite(value) else None for name, value in metrics.items()}


def _reconstruction(first, second, signal) -> dict[str, float]:
    """compare(first + second, signal), the sum taken in the common peak units
    of all three: two finite branches can sum past float64 where the signal
    does not."""
    unit, (first, second, signal) = transforms.peak_units(first.values, second.values, signal.values)
    # in place: the scaled copies are this function's own
    first += second
    metrics = filters.compare(first, signal)
    l2_abs, linf = transforms._from_units(np.array([metrics["l2_abs"], metrics["linf"]]), unit,
                                          "reconstruction error").tolist()
    return {**metrics, "l2_abs": l2_abs, "linf": linf}


def _cmd_filter(args: argparse.Namespace) -> int:
    signal = signals.load_csv(args.input)
    spec = _filter_spec(args, len(signal))

    result = filters.filter_quantum(signal, spec, swapped=args.swapped)
    oracle_pass, oracle_stop = filters.filter_classical_oracle(signal, spec)
    circuit = result.circuit
    stats = circuits.gate_stats(circuit)

    leading_x = bool(circuit.gates) and circuit.gates[0].kind == "X"
    meta = {
        **asdict(spec),
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
            "quantum_vs_oracle_pass": _json_metrics(filters.compare(result.pass_branch, oracle_pass)),
            "quantum_vs_oracle_stop": _json_metrics(filters.compare(result.stop_branch, oracle_stop)),
            "quantum_reconstruction": _json_metrics(_reconstruction(result.pass_branch, result.stop_branch, signal)),
            "oracle_reconstruction": _json_metrics(_reconstruction(oracle_pass, oracle_stop, signal)),
        },
    }
    # strict JSON, made before any file is written
    meta_text = json.dumps(meta, indent=2, allow_nan=False) + "\n"
    pass_path = args.output_prefix + ".pass.csv"
    stop_path = args.output_prefix + ".stop.csv"
    meta_path = args.output_prefix + ".meta.json"
    signals.save_csv(pass_path, result.pass_branch.values)
    signals.save_csv(stop_path, result.stop_branch.values)
    with open(meta_path, "w", encoding="ascii") as fh:
        fh.write(meta_text)
    print(f"{spec.describe()}: p_pass={result.p_pass:.12g} p_stop={result.p_stop:.12g}")
    print(f"wrote {pass_path}, {stop_path}, {meta_path}")
    return 0


def _suffixed(path: str, tag: str) -> str:
    root, ext = os.path.splitext(path)
    return f"{root}.{tag}{ext}" if ext else f"{root}.{tag}"


def _cmd_spectrum(args: argparse.Namespace) -> int:
    v = signals.load_csv(args.input)
    written = []
    for which in _SPECTRA if args.which == "both" else (args.which,):
        path = _suffixed(args.output, which) if args.which == "both" else args.output
        signals.save_csv(path, _SPECTRA[which](v), with_index=True)
        written.append(path)
    print("wrote " + ", ".join(written))
    return 0


def _cmd_sequency_map(args: argparse.Namespace) -> int:
    if args.n > _MAP_MAX_BITS:
        raise ValueError(f"sequency-map takes n of at most {_MAP_MAX_BITS}, got {args.n}")
    forward = transforms._sequency_index(args.n).tolist()
    sys.stdout.writelines(f"{s},{g}\n" for s, g in enumerate(forward))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = verification.run_all(args.n_max)
    for r in results:
        print(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    return 0 if all(r.ok for r in results) else 1


def _gates_build(args: argparse.Namespace, n: int) -> circuits.Circuit:
    if args.kind in _PLAIN_CIRCUITS:
        if args.cutoff is not None or args.band is not None:
            args.parser.error(f"{args.kind} takes no --cutoff or --band")
        return _PLAIN_CIRCUITS[args.kind](n)
    return circuits.build_filter_circuit(n, _filter_spec(args, 1 << transforms.check_bits(n)))


def _cmd_gates(args: argparse.Namespace) -> int:
    if args.sweep is not None:
        if args.n is not None or args.dump is not None:
            args.parser.error("gates --sweep takes no --n or --dump")
        lo, hi = args.sweep
        kinds = simulator.GATE_KINDS
        rows = [",".join(["n", "total", "depth", *(k.lower() for k in kinds), "arities", "mcx_controls"])]
        for n in range(lo, hi + 1):
            stats = circuits.gate_stats(_gates_build(args, n))
            arities = ";".join(str(a) for a in stats.mcx_arities)
            fields = [n, stats.total, stats.depth, *(stats.counts[k] for k in kinds), arities, stats.mcx_controls]
            rows.append(",".join(map(str, fields)))
        text = "\n".join(rows) + "\n"
        if args.output:
            with open(args.output, "w", encoding="ascii") as fh:
                fh.write(text)
            print(f"wrote {args.output}")
        else:
            sys.stdout.write(text)
        return 0

    if args.n is None:
        args.parser.error("gates requires --n (or --sweep LO:HI)")
    if args.output is not None:
        args.parser.error("gates --output writes a --sweep table; --dump writes one circuit")
    circuit = _gates_build(args, args.n)
    stats = circuits.gate_stats(circuit)
    print(f"label: {circuit.label}")
    print(f"n_qubits: {circuit.n_qubits}")
    for kind in simulator.GATE_KINDS:
        print(f"{kind} {stats.counts[kind]}")
    arities = ";".join(str(a) for a in stats.mcx_arities) or "-"
    print(f"mcx_arities {arities}")
    print(f"total {stats.total}")
    print(f"depth {stats.depth}")
    print(f"mcx_controls {stats.mcx_controls}")
    if args.dump:
        with open(args.dump, "w", encoding="ascii") as fh:
            fh.write(circuits.circuit_to_json(circuit))
        print(f"wrote {args.dump}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        # each handler reports usage errors through args.parser, its own subparser
        return args.run(args)
    except (OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
