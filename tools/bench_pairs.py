"""Paired A/B runs of the benchmark: a parent commit against the working tree.

    python tools/bench_pairs.py --parent REV --workload W --pairs K [--twin]
        [--seed S] --out BENCH_<tag>.json

Run from anywhere inside a git checkout; stdlib only. Each side runs from a
fresh copy of its own tree in a temporary directory, named after the side:
`parent` is `git archive REV`, `change` is the working tree as `git add -A`
would commit it (tracked and untracked files, ignored ones left out), and
with --twin `twin` is a second archive of REV, whose reading against the
parent is the noise floor. So each side's perfbench/run.py imports that
side's src/, and nothing in the checkout is written.

Round r runs `BENCHMARK.json`'s command with --workload W --seed S+r
--seconds run_seconds --trace 0 once per side, the sides rotated by r (parent, change,
twin; then change, twin, parent; ...), so with two sides they alternate.
The JSON written to --out holds every run, and per metric and side every
value, the median and quartiles; then the pairs the change won against the
parent in the same round, its median against the parent's, the twin's
reading, the bound from BENCHMARK.json, and the verdict (see verdict()) for
the change and the twin. Next to the end-to-end metrics
it records each run's ru_minflt and ru_maxrss as wait4(2) reports them for
the child, the load average just before it started, and the machine: CPU
count, the Python and numpy versions of the interpreter the command starts,
load average before and after the series. Exits 1 if a run failed or
returned no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("parent", "change", "twin")
# wait4's figures for the child, next to the benchmark's own metrics
CHILD_METRICS = {"ru_minflt": ("faults", "lower"), "ru_maxrss_kb": ("KiB", "lower")}


def git(root: Path, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True).stdout


def unpack_commit(root: Path, rev: str, dest: Path) -> None:
    """git archive rev, unpacked into dest."""
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git(root, "archive", "--format=tar", rev), check=True)


def copy_working_tree(root: Path, dest: Path) -> None:
    """The files `git add -A` would commit: tracked and untracked, not ignored."""
    listed = git(root, "ls-files", "-z", "--cached", "--others", "--exclude-standard").split(b"\0")
    for name in filter(None, (entry.decode() for entry in listed)):
        source = root / name
        if source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, dest / name)


def rotation(round_index: int, sides: tuple[str, ...]) -> list[str]:
    """The order of the sides in a round: rotated by one each round."""
    shift = round_index % len(sides)
    return list(sides[shift:] + sides[:shift])


def run_side(command: list[str], tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in tree: its last stdout line, the child's rusage, the wall time and
    the load average just before the child started."""
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    loadavg = os.getloadavg()
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=tree, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        lines = out.read().decode(errors="replace").splitlines()
        stderr = err.read().decode(errors="replace")
    run = {"exit": proc.returncode, "wall_s": wall, "loadavg": loadavg, "ru_minflt": usage.ru_minflt,
           "ru_maxrss_kb": usage.ru_maxrss}
    try:
        result = json.loads(lines[-1])
        run.update(correct=result["correct"], attempted=result["attempted"], failed=result["failed"],
                   metrics={name: m["value"] for name, m in result["metrics"].items()})
    except (IndexError, ValueError, KeyError, TypeError):
        run["error"] = stderr[-2000:] or "no result line"
    return run


def spread(values: list[float]) -> dict:
    """Every value, the median and the quartiles (inclusive method)."""
    if not values:
        return {"runs": [], "median": None, "q1": None, "q3": None}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def relative(value, base):
    return None if value is None or not base else value / base - 1.0


def verdict(side: dict, parent: dict, won: int, pairs: int, better: str, bound: float | None) -> str:
    """The simplicity guide's reading of one side against the parent, from their spreads.

    gain: the side won at least 9/10 of the pairs (a tie wins neither) and
    its median is better than the parent's by more than the parent's
    interquartile distance. With no bound (the child rusage figures) anything
    else is "no bound". worse than bound: its median is worse than the
    parent's by more than the bound. unresolved: the parent's interquartile
    distance, relative to its median, exceeds the bound, and not every run of
    the side beats every parent run. within bound: anything else. no runs
    where either side has none.
    """
    if side["median"] is None or not parent["median"]:
        return "no runs"
    sign = 1.0 if better == "lower" else -1.0
    gained = sign * (parent["median"] - side["median"])
    if pairs and 10 * won >= 9 * pairs and gained > parent["q3"] - parent["q1"]:
        return "gain"
    if bound is None:
        return "no bound"
    if -gained / abs(parent["median"]) > bound:
        return "worse than bound"
    beats_all = max(sign * v for v in side["runs"]) < min(sign * v for v in parent["runs"])
    if (parent["q3"] - parent["q1"]) / abs(parent["median"]) > bound and not beats_all:
        return "unresolved"
    return "within bound"


def summarize(runs: list[dict], sides: tuple[str, ...], metrics: dict) -> dict:
    """Per metric: each side's spread, the change's and the twin's pairs won and median change."""
    table = {}
    for name, (unit, better, bound) in metrics.items():
        def value(run):
            return run.get(name, run.get("metrics", {}).get(name))
        by_round = {}
        for run in runs:
            if "error" not in run and value(run) is not None:
                by_round.setdefault(run["round"], {})[run["side"]] = value(run)
        entry = {"unit": unit, "better": better, "bound": bound}
        for side in sides:
            entry[side] = spread([r[side] for r in by_round.values() if side in r])
        for side in sides[1:]:
            paired = [r for r in by_round.values() if side in r and "parent" in r]
            won = sum((r[side] < r["parent"]) if better == "lower" else (r[side] > r["parent"]) for r in paired)
            entry[f"{side}_vs_parent"] = {"median": relative(entry[side]["median"], entry["parent"]["median"]),
                                          "pairs_won": won, "pairs": len(paired),
                                          "verdict": verdict(entry[side], entry["parent"], won, len(paired),
                                                             better, bound)}
        table[name] = entry
    return table


def machine(interpreter: str) -> dict:
    """The host, and the versions of the interpreter the benchmark command starts."""
    probe = "import platform, numpy; print(platform.python_version(), numpy.__version__)"
    try:
        python, numpy = subprocess.run([interpreter, "-c", probe], capture_output=True, text=True,
                                       check=True).stdout.split()
    except (OSError, subprocess.CalledProcessError, ValueError):
        python = numpy = None
    return {"cpus": os.cpu_count(), "python": python, "numpy": numpy, "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the commit to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True, help="rounds; each runs every side once")
    parser.add_argument("--twin", action="store_true", help="also run a second copy of the parent")
    parser.add_argument("--seed", type=int, default=1, help="the first round's seed")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    config = json.loads((root / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    metrics = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in config["end_to_end"]}
    metrics.update({name: (unit, better, None) for name, (unit, better) in CHILD_METRICS.items()})
    sides = SIDES if args.twin else SIDES[:2]
    record = {
        "workload": args.workload, "pairs": args.pairs, "seconds": seconds,
        "command": config["command"] + ["--workload", args.workload, "--seed", "S", "--seconds", str(seconds),
                                        "--trace", "0"],
        "parent": {"rev": args.parent,
                   "commit": git(root, "rev-parse", "--verify", args.parent + "^{commit}").decode().strip()},
        "change": {"head": git(root, "rev-parse", "HEAD").decode().strip(),
                   "dirty": bool(git(root, "status", "--porcelain"))},
        "sides": list(sides), "machine": machine(config["command"][0]), "loadavg_before": os.getloadavg(),
    }
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in sides}
        for side, tree in trees.items():
            tree.mkdir()
            if side == "change":
                copy_working_tree(root, tree)
            else:
                unpack_commit(root, record["parent"]["commit"], tree)
        for r in range(args.pairs):
            for side in rotation(r, sides):
                run = {"round": r, "seed": args.seed + r, "side": side,
                       **run_side(config["command"], trees[side], args.workload, args.seed + r, seconds)}
                runs.append(run)
                shown = {k: run.get("metrics", {}).get(k) for k in ("call_s", "samples_per_s")}
                print(f"round {r} {side:>6}: exit {run['exit']} {run.get('error', '').strip()[-200:] or shown}",
                      file=sys.stderr)
    record.update(loadavg_after=os.getloadavg(), runs=runs, metrics=summarize(runs, sides, metrics))
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for name, entry in record["metrics"].items():
        changes = "  ".join(f"{side} {entry[f'{side}_vs_parent']['median']:+.2%} "
                            f"({entry[f'{side}_vs_parent']['pairs_won']}/{entry[f'{side}_vs_parent']['pairs']} won, "
                            f"{entry[f'{side}_vs_parent']['verdict']})"
                            for side in sides[1:] if entry[f"{side}_vs_parent"]["median"] is not None)
        print(f"{name:>14}  parent median {entry['parent']['median']}  {changes}")
    return 1 if any("error" in run or run["exit"] or run.get("failed") for run in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
