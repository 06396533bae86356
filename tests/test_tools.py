"""The repository's own tools: tools/code_lines.py's counting rule,
tools/bench_pairs.py's alternation and record against a stub benchmark, and
a tiny run of tools/fresh_specs.py."""

import importlib.util
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


code_lines = _load("code_lines")
bench_pairs = _load("bench_pairs")
fresh_specs = _load("fresh_specs")
CHILD_METRICS = bench_pairs.CHILD_METRICS

# the lines marked 'code' count, and so do the two lines of the string
# that is not a docstring, which cannot carry the mark
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # code

# a comment line


class Thing:  # code
    """Class docstring."""

    size = (  # code
        1,  # code
        2,  # code
    )  # code

    def method(self):  # code
        """Method docstring,
        also over two lines.
        """
        text = """a string that is
not a docstring"""
        return text  # code


async def coroutine():  # code
    """Coroutine docstring."""
    return 1  # code


def undocumented():  # code
    return "a one-line string"  # code
'''


def test_code_lines_counts_code_and_each_line_of_a_multi_line_statement():
    marked = sum(line.endswith("# code") for line in FIXTURE.splitlines())
    assert code_lines.code_lines(FIXTURE) == marked + 2
    assert code_lines.docstring_lines(FIXTURE) == {1, 2, 10, 18, 19, 20, 27}


def test_code_lines_prints_each_file_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# note\ny = [\n    2,\n]\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"), str(tmp_path)],
                          capture_output=True, text=True, check=True)
    count = code_lines.code_lines(FIXTURE)
    assert proc.stdout.splitlines() == [
        f"{count:6d}  {tmp_path / 'a.py'}", f"{4:6d}  {tmp_path / 'sub' / 'b.py'}", f"{count + 4:6d}  total",
    ]


# a stand-in for perfbench/run.py: logs its tree and seed, and reports
# call_s as its tree's FACTOR times the seed
STUB_RUN = """
import argparse, json, os, pathlib
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(flag)
a = p.parse_args()
tree = pathlib.Path.cwd()
assert not (tree / ".git").exists() and not (tree / "perfbench" / ".work").exists()
with open(os.environ["STUB_LOG"], "a") as log:
    log.write(f"{tree.name} {a.seed} {a.workload} {a.seconds} {a.trace} {(tree / 'NEW').exists()}\\n")
factor = float((tree / "FACTOR").read_text())
metrics = {"call_s": {"value": factor * int(a.seed), "unit": "s"},
           "samples_per_s": {"value": 100.0 / factor, "unit": "samples/s"}}
print("a line above the result")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}))
"""
STUB_BENCHMARK = {
    "command": [sys.executable, "perfbench/run.py"], "paths": ["perfbench"], "run_seconds": 0.5,
    "end_to_end": [{"name": "call_s", "unit": "s", "better": "lower", "bound": 0.25},
                   {"name": "samples_per_s", "unit": "samples/s", "better": "higher", "bound": 0.25}],
}


def test_bench_pairs_alternates_the_sides_and_records_each_run(tmp_path):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(STUB_RUN)
    (repo / "BENCHMARK.json").write_text(json.dumps(STUB_BENCHMARK))
    (repo / "FACTOR").write_text("2.0")
    (repo / ".gitignore").write_text("/perfbench/.work/\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(repo)]
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    subprocess.run([*git, "add", "-A"], check=True)
    subprocess.run([*git, "commit", "-q", "-m", "parent"], check=True)
    # the change: an edited file, an untracked one, and an ignored one it must not copy
    (repo / "FACTOR").write_text("1.0")
    (repo / "NEW").write_text("")
    (repo / "perfbench" / ".work").mkdir()
    log, out = tmp_path / "log.txt", tmp_path / "BENCH_stub.json"
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "bench_pairs.py"), "--parent", "HEAD",
                           "--workload", "w", "--pairs", "4", "--twin", "--seed", "10",
                           "--out", str(out)],
                          cwd=repo, env={**os.environ, "STUB_LOG": str(log)}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr

    rounds = [["parent", "change", "twin"], ["change", "twin", "parent"],
              ["twin", "parent", "change"], ["parent", "change", "twin"]]
    want = [f"{side} {10 + r} w 0.5 0 {side == 'change'}" for r, order in enumerate(rounds) for side in order]
    assert log.read_text().splitlines() == want

    record = json.loads(out.read_text())
    assert record["workload"] == "w" and record["pairs"] == 4 and record["seconds"] == 0.5
    assert record["sides"] == ["parent", "change", "twin"] and record["change"]["dirty"]
    assert record["parent"]["rev"] == "HEAD" and len(record["parent"]["commit"]) == 40
    assert set(record["machine"]) == {"cpus", "python", "numpy", "platform"}
    assert record["machine"]["python"] == platform.python_version()
    assert [(run["round"], run["seed"], run["side"]) for run in record["runs"]] == [
        (r, 10 + r, side) for r, order in enumerate(rounds) for side in order]
    assert all(run["correct"] and run["failed"] == 0 and run["ru_maxrss_kb"] > 0 for run in record["runs"])
    # each run's own load average, as os.getloadavg gives it, next to the series'
    assert all(len(run["loadavg"]) == 3 and min(run["loadavg"]) >= 0.0 for run in record["runs"])
    assert len(record["loadavg_before"]) == len(record["loadavg_after"]) == 3
    assert set(record["metrics"]) == {"call_s", "samples_per_s", "ru_minflt", "ru_maxrss_kb"}

    call = record["metrics"]["call_s"]
    assert (call["unit"], call["better"], call["bound"]) == ("s", "lower", 0.25)
    assert call["parent"] == {"runs": [20.0, 22.0, 24.0, 26.0], "median": 23.0, "q1": 21.5, "q3": 24.5}
    assert call["twin"]["runs"] == call["parent"]["runs"]
    assert call["change"]["median"] == 11.5
    assert call["change_vs_parent"] == {"median": -0.5, "pairs_won": 4, "pairs": 4, "verdict": "gain"}
    assert call["twin_vs_parent"] == {"median": 0.0, "pairs_won": 0, "pairs": 4, "verdict": "within bound"}
    rate = record["metrics"]["samples_per_s"]
    assert rate["change_vs_parent"] == {"median": 1.0, "pairs_won": 4, "pairs": 4, "verdict": "gain"}
    assert rate["twin_vs_parent"]["verdict"] == "within bound"
    assert record["metrics"]["ru_maxrss_kb"]["bound"] is None
    for name in CHILD_METRICS:
        assert {record["metrics"][name][f"{side}_vs_parent"]["verdict"] for side in ("change", "twin")} <= {
            "gain", "no bound"}
    printed = {line.split()[0]: line for line in proc.stdout.splitlines()}
    assert "(4/4 won, gain)" in printed["call_s"] and "(0/4 won, within bound)" in printed["call_s"]


def test_bench_pairs_without_a_twin_alternates_two_sides():
    assert [bench_pairs.rotation(r, ("parent", "change")) for r in range(3)] == [
        ["parent", "change"], ["change", "parent"], ["parent", "change"]]


def _spread(runs):
    return bench_pairs.spread(runs)


# parent call_s: median 100, quartiles 98.25 and 101.75
PARENT = _spread([96.0, 98.0, 99.0, 100.0, 100.0, 101.0, 102.0, 103.0, 104.0, 95.0])


@pytest.mark.parametrize("side,won,bound,want", [
    # 10/10 won, median 10 below against a 3.5 interquartile distance
    ([90.0] * 10, 10, 0.25, "gain"),
    # 9/10 is enough; 8/10 is not, and then the 10 % is within the bound
    ([90.0] * 10, 9, 0.25, "gain"),
    ([90.0] * 10, 8, 0.25, "within bound"),
    # every pair won, but the medians are closer than the parent's spread
    ([98.0] * 10, 10, 0.25, "within bound"),
    ([140.0] * 10, 0, 0.25, "worse than bound"),
    # the parent's relative spread (3.5 %) exceeds a 2 % bound
    ([101.0] * 10, 3, 0.02, "unresolved"),
    ([94.0] * 10, 10, 0.02, "gain"),
    # unless every run of the side beats every parent run
    ([94.5] * 10, 8, 0.02, "within bound"),
    ([90.0] * 10, 10, None, "gain"),
    ([101.0] * 10, 3, None, "no bound"),
])
def test_bench_pairs_verdict_follows_the_simplicity_rule(side, won, bound, want):
    assert bench_pairs.verdict(_spread(side), PARENT, won, 10, "lower", bound) == want


def test_bench_pairs_verdict_reads_higher_is_better():
    rate = _spread([float(v) for v in range(100, 110)])
    assert bench_pairs.verdict(_spread([120.0] * 10), rate, 10, 10, "higher", 0.25) == "gain"
    assert bench_pairs.verdict(_spread([80.0] * 10), rate, 0, 10, "higher", 0.1) == "worse than bound"
    assert bench_pairs.verdict(_spread([]), rate, 0, 0, "higher", 0.1) == "no runs"


def test_fresh_specs_times_filter_quantum_in_process_at_tiny_sizes():
    record = fresh_specs.time_filters(ROOT / "src", (2, 3), calls=6, repeats=3, seed=4)
    assert record["src"] == str(ROOT / "src") and len(record["repeats_us"]) == 3
    assert record["median_us"] == sorted(record["repeats_us"])[1] > 0


def test_fresh_specs_alternates_two_sources_in_child_processes(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "walshdsp", copy / "walshdsp", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "fresh_specs.py"), "--src", str(ROOT / "src"),
                           "--src", str(copy), "--rounds", "2", "--ns", "2:2", "--calls", "3", "--repeats", "1"],
                          capture_output=True, text=True, check=True)
    record = json.loads(proc.stdout)
    assert (record["ns"], record["calls"], record["repeats"], record["rounds"]) == ([2, 2], 3, 1, 2)
    assert [side["src"] for side in record["series"]] == [str(ROOT / "src"), str(copy)]
    assert all(len(side["median_us"]) == 2 and min(side["median_us"]) > 0 for side in record["series"])
    assert 0 <= record["second_faster_rounds"] <= 2
    # round 0 runs the sources in order, round 1 in reverse
    assert [line.split(":")[0] for line in proc.stderr.splitlines()] == [
        f"round 0 {ROOT / 'src'}", f"round 0 {copy}", f"round 1 {copy}", f"round 1 {ROOT / 'src'}"]
