"""Alternated pairs of benchmark runs: a parent revision against the working tree.

Usage, from the root of a checkout::

    python3 tools/bench_pairs.py --rev HEAD --label pr18 --workload formula-near \\
        --pairs 10 --seed 1811 --seconds 20

The parent revision is exported with ``git archive`` into a temporary
directory; the change is the working tree.  Every run compiles the package
from source, as a clean checkout does: it writes no bytecode and reads it
from an empty cache prefix, so the working tree's ``__pycache__``, whose
valid files would skip most of ``setup_s``, favours neither side.  For each
workload, pair i runs ``perfbench/run.py --seed <seed + i>`` once on each
side, the parent first in even pairs and the change first in odd ones, each
run in its own process.
Every result line is kept.  The summary gives, per workload and end-to-end
metric, each side's median and inclusive quartiles and the pairs the change
won; a tie counts for neither side.  Each metric also gets a verdict against
its bound in ``BENCHMARK.json``, the no-regression reading (``verdict``), and
a ``gain`` reading: true when every run of the workload was correct, there
are at least 10 pairs, the change won at least 9 of every 10 and its median
is better than the parent's by more than the parent's IQR.  It also gives
each side's median count of attempted requests, since ``peak_rss_mb`` grows
with the passes a run keeps, so a faster side can read a higher peak.  The
file ``BENCH_<label>.json`` is written at the root of the working tree.  The exit status is 1 when a run was
incorrect or a metric's verdict is "worse beyond bound", each such metric
named with its workload on stderr.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True
    ).stdout


def export(rev, into):
    """The tree of `rev`, written under `into`."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", rev)), mode="r:") as tar:
        tar.extractall(into, filter="data")


def run_once(side, tree, workload, seed, seconds):
    """The result line and the environment line of one perfbench run in `tree`.

    The run reads and writes no bytecode: PYTHONPYCACHEPREFIX points at an
    empty directory and PYTHONDONTWRITEBYTECODE keeps it empty.  A run whose
    stdout lacks either line raises RuntimeError naming the workload, seed
    and side, with the run's exit code and the tail of its stderr.
    """
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": cache}
        out = subprocess.run(
            argv, cwd=tree, env=env, capture_output=True, text=True, check=False
        )
    lines = out.stdout.strip().splitlines()
    envs = [ln for ln in lines if ln.startswith('{"environment"')]
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not envs or not isinstance(result, dict) or "metrics" not in result:
        missing = "environment line" if not envs else "result line"
        tail = "\n".join(out.stderr.strip().splitlines()[-20:])
        raise RuntimeError(
            f"{workload} seed {seed}, {side} side in {tree}: no {missing} "
            f"(exit {out.returncode})\n{tail}"
        )
    return result, json.loads(envs[0])["environment"]


def summarize(runs, end_to_end):
    """Per workload: per metric, each side's median and quartiles, the
    change's wins over the pairs, the verdict against the metric's bound and
    the gain reading; each side's median `attempted`; `correct` is true when
    every run was.  A workload with an incorrect run shows no gain.

    `runs` are {"workload", "parent": result, "change": result} records and
    `end_to_end` is the "end_to_end" list of BENCHMARK.json.
    """
    summary = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = [r for r in runs if r["workload"] == workload]
        correct = all(r[side]["correct"] for r in pairs for side in SIDES)
        entry = {}
        for metric in end_to_end:
            name, better = metric["name"], metric["better"]
            values = {
                side: [r[side]["metrics"][name]["value"] for r in pairs] for side in SIDES
            }
            entry[name] = {"better": better}
            for side in SIDES:
                entry[name][f"{side}_median"] = round(statistics.median(values[side]), 4)
            for side in SIDES:
                entry[name][f"{side}_quartiles"] = [
                    round(q, 4) for q in quartiles(values[side])
                ]
            won = wins(values["parent"], values["change"], better)
            entry[name]["change_wins"] = f"{won}/{len(pairs)}"
            entry[name]["verdict"] = verdict(
                values["parent"], values["change"], better, metric["bound"]
            )
            entry[name]["gain"] = correct and gain(values["parent"], values["change"], better)
        entry["attempted"] = {
            f"{side}_median": statistics.median(r[side]["attempted"] for r in pairs)
            for side in SIDES
        }
        entry["correct"] = correct
        summary[workload] = entry
    return summary


def wins(parent, change, better):
    """The pairs in which the change's value is better; a tie counts for neither side."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def gain(parent, change, better):
    """Whether the runs show a gain: there are at least 10 pairs, the change
    wins at least 9 of every 10, and its median is better than the parent's
    by more than the parent's IQR.  Fewer pairs show no gain, however they
    fall."""
    sign = 1 if better == "higher" else -1
    low, _, high = quartiles(parent)
    return (
        len(parent) >= 10
        and 10 * wins(parent, change, better) >= 9 * len(parent)
        and sign * (statistics.median(change) - statistics.median(parent)) > high - low
    )


def verdict(parent, change, better, bound):
    """The no-regression reading of one metric from each side's runs, with
    `bound` relative to the parent's median (absolute when that is 0):

    * "worse beyond bound" when the change's median is worse by more;
    * "unresolved" when the parent's IQR is wider, unless every run of the
      change beats every run of the parent;
    * else "within bound".
    """
    sign = 1 if better == "higher" else -1
    median = statistics.median(parent)
    allowed = bound * (abs(median) or 1)
    if sign * (median - statistics.median(change)) > allowed:
        return "worse beyond bound"
    low, _, high = quartiles(parent)
    if high - low > allowed and not all(sign * (c - p) > 0 for c in change for p in parent):
        return "unresolved"
    return "within bound"


def quartiles(values):
    """Inclusive quartiles; one value is its own quartiles."""
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rev", required=True, help="the parent revision")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    workloads = known if args.workload == ["all"] else args.workload
    for w in workloads:
        if w not in known:
            ap.error(f"unknown workload {w!r}; known: {', '.join(known)}")
    commit = git("rev-parse", "--verify", f"{args.rev}^{{commit}}").decode().strip()
    runs, digests, machine = [], {}, None
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent:
        export(commit, parent)
        trees = {"parent": parent, "change": ROOT}
        for w in workloads:
            for i in range(args.pairs):
                seed = args.seed + i
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                record = {"workload": w, "seed": seed, "first": order[0]}
                for side in order:
                    record[side], env = run_once(side, trees[side], w, seed, args.seconds)
                    digests[side] = env["source_sha256"]
                    machine = {k: env[k] for k in ("cpu_model", "nproc", "python")}
                runs.append(record)
                print(w, seed, *(
                    f"{s} {record[s]['metrics']['throughput_per_s']['value']:.1f}/s"
                    for s in SIDES
                ), file=sys.stderr)
    doc = {
        "what": "perfbench/run.py end-to-end result lines, parent commit and change, "
        f"one {args.seconds:g} s run per side and seed, order alternated pair by pair; "
        "quartiles by statistics.quantiles(method='inclusive')",
        "command": "python3 perfbench/run.py --workload <name> --seed <seed> "
        f"--seconds {args.seconds:g} --trace 0",
        "parent_commit": commit,
        "machine": machine or {"python": platform.python_version()},
        "source_sha256": {
            **digests,
            "note": "digests of src/padicover as perfbench/run.py reports them",
        },
        "summary": summarize(runs, spec["end_to_end"]),
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    names = [metric["name"] for metric in spec["end_to_end"]]
    worse = [
        (w, name)
        for w, entry in doc["summary"].items()
        for name in names
        if entry[name]["verdict"] == "worse beyond bound"
    ]
    for w, name in worse:
        print(f"{w}: {name} is worse beyond its bound", file=sys.stderr)
    correct = all(entry["correct"] for entry in doc["summary"].values())
    return 0 if correct and not worse else 1


if __name__ == "__main__":
    sys.exit(main())
