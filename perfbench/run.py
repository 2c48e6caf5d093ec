"""Benchmark for padicover: four verify/classify workloads, closed loop.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify-random --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # the four, one process each

One client sends one request at a time and waits for its answer.  The run
sets up its inputs from the seed, then runs whole passes over them until the
next pass would end after ``--seconds``.  Every output is checked (see
README.md).  With ``--trace 1`` the run also makes one traced pass and reports
per-layer metrics in place of the end-to-end ones.  The last line of standard
output is the result, as one JSON object; the lines above it print every
metric by name with its unit, and the environment.  The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import importlib
import itertools
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter, perf_counter_ns

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"
SPEC = ROOT / "BENCHMARK.json"  # metric names and units

DEFAULT_SEED = 1  # the seed golden.json was made with
SETUP_REPEATS = 3  # set-ups per run, each with a fresh import; setup_s is the median
TAIL_BEYOND = 10  # samples beyond the tail percentile

# the reference clock (README.md, "Noise"): times are scaled to the speed at
# which `kernel` takes REFERENCE_KERNEL_NS, the fastest it ran on the machine
# this benchmark was tuned on
REFERENCE_KERNEL_NS = 420_000
SAMPLE_EVERY_S = 0.02

OUTCOME_SHARES = ("refused_share", "failed_share")


def _import_package():
    """Import the package from this checkout's src/, and nothing else."""
    if not (SRC / "padicover" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'padicover'}")
    for path in (str(SRC), str(BENCH_DIR)):
        if path not in sys.path:
            sys.path.insert(0, path)
    workloads = importlib.import_module("workloads")
    pkg = sys.modules["padicover"]
    if Path(pkg.__file__).resolve().parent != (SRC / "padicover").resolve():
        raise SystemExit(f"perfbench: padicover imported from {pkg.__file__}")
    return workloads


# ---------------------------------------------------------------------------
# environment


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit():
    """HEAD of the checkout's git metadata, if it has any (no subprocess)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "padicover").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed):
    return {
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measuring


def tail_index(n):
    """Index (ascending order) of the highest sample with TAIL_BEYOND above it."""
    return max(0, n - 1 - TAIL_BEYOND)


def tail_percentile(n):
    return 100.0 * (tail_index(n) + 1) / n


def kernel():
    """Fixed work for the reference clock: stdlib rational arithmetic, the
    same kind of interpreter work as the package's, and none of its code."""
    total = Fraction(0)
    for i in range(1, 100):
        total += Fraction(1, i % 97 + 1) * Fraction(i, 7)
    return total


class RefClock:
    """Times calls and scales each time to the reference speed.

    While the clock is open, a SIGALRM timer runs `kernel` every
    SAMPLE_EVERY_S seconds, also in the middle of a call; the clock samples
    once more on opening and on closing.  A call's time, minus the samples
    taken inside it, is scaled by REFERENCE_KERNEL_NS over the mean kernel
    time of those samples and of the nearest sample on either side.
    """

    def __init__(self):
        self.samples = []  # (start_ns, end_ns) of each kernel run
        self.calls = []  # (start_ns, end_ns) of each call
        self._previous = None

    def __enter__(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def _sample(self, *_):
        t0 = perf_counter_ns()
        kernel()
        self.samples.append((t0, perf_counter_ns()))

    def call(self, fn, *args):
        t0 = perf_counter_ns()
        value = fn(*args)
        self.calls.append((t0, perf_counter_ns()))
        return value

    def raw_ns(self):
        """Each call's time minus the kernel samples taken inside it."""
        return [busy for busy, _ in self._busy_and_kernel()]

    def scaled_ns(self):
        """Each call's time on the reference clock, in call order."""
        return [
            busy * REFERENCE_KERNEL_NS / kernel_mean
            for busy, kernel_mean in self._busy_and_kernel()
        ]

    def _busy_and_kernel(self):
        starts = [t0 for t0, _ in self.samples]
        for t0, t1 in self.calls:
            lo, hi = bisect.bisect_left(starts, t0), bisect.bisect_left(starts, t1)
            inside = sum(e - s for s, e in self.samples[lo:hi])
            near = self.samples[max(lo - 1, 0) : hi + 1]
            yield (t1 - t0) - inside, statistics.mean(e - s for s, e in near)

    def slowdown(self):
        """Mean kernel time over the reference."""
        return statistics.mean(e - s for s, e in self.samples) / REFERENCE_KERNEL_NS


@dataclass
class Pass:
    wall_s: float
    latencies: list  # scaled ns per request
    outcomes: list
    raw_s: float  # sum of raw request times
    slowdown: float  # mean kernel time over the reference


def run_pass(attempt, run, requests):
    start = perf_counter()
    with RefClock() as clock:
        outcomes = [clock.call(attempt, run, req) for req in requests]
    return Pass(
        perf_counter() - start,
        clock.scaled_ns(),
        outcomes,
        sum(clock.raw_ns()) / 1e9,
        clock.slowdown(),
    )


def check_outcomes(workloads, requests, outcomes, golden, reference=None):
    """Apply the golden and cross-pass checks; return the final outcomes."""
    checked = []
    for i, (req, out) in enumerate(zip(requests, outcomes)):
        want = golden.get(workloads.digest(req.doc))
        if out.kind != "failed" and want is not None and out.digest != want:
            out = workloads.Outcome("failed", out.digest, f"drift from golden {want}")
        elif reference is not None and out.digest != reference[i].digest:
            out = workloads.Outcome(
                "failed", out.digest, f"differs from first pass {reference[i].digest}"
            )
        checked.append(out)
    return checked


def ledger(outcomes):
    kinds = [o.kind for o in outcomes]
    n = len(kinds)
    return {
        "attempted": n,
        "answered_share": kinds.count("answered") / n,
        "refused_share": kinds.count("refused") / n,
        "failed_share": kinds.count("failed") / n,
        "failed": kinds.count("failed"),
    }


def measure(attempt, run, requests, seconds):
    """Whole passes until the next one would end after `seconds`."""
    passes = []
    begin = perf_counter()
    while True:
        passes.append(run_pass(attempt, run, requests))
        typical = statistics.median(p.wall_s for p in passes)
        if perf_counter() - begin + typical > seconds:
            return passes


def end_to_end(passes, setup_s):
    n = len(passes[0].latencies)
    p50 = statistics.median(statistics.median(p.latencies) for p in passes)
    tail = statistics.median(sorted(p.latencies)[tail_index(n)] for p in passes)
    busy = sum(sum(p.latencies) for p in passes) / 1e9
    return {
        "setup_s": setup_s,
        "latency_ms_p50": p50 / 1e6,
        "latency_ms_tail": tail / 1e6,
        "throughput_per_s": n * len(passes) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


# ---------------------------------------------------------------------------
# the traced pass


def traced_pass(tracer_mod, attempt, run, requests):
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        left = tracer.unpatched_bindings()
        if left:
            raise RuntimeError(f"tracer left bindings unpatched: {left}")
        outcomes = []
        with RefClock() as clock:
            for i, req in enumerate(requests):
                tracer.request = i
                outcomes.append(clock.call(attempt, run, req))
                if tracer.open_frames():
                    raise RuntimeError(f"request {i} left {tracer.open_frames()} open frames")
        busy = sum(clock.scaled_ns()) / 1e9
    finally:
        tracer.uninstall()
    return tracer, busy, outcomes


def layer_metrics(tracer_mod, tracer, outcomes):
    """Per-layer metrics of one traced pass, plus the tracer's self-checks."""
    problems = []
    by_request = {}
    owner = {}
    for span in tracer.spans:
        by_request.setdefault(span[2], []).append(span)
        owner[span[0]] = span[2]
    calls, self_ns = {}, {}
    for req_id, spans in by_request.items():
        if req_id is None:
            problems.append(f"{len(spans)} spans outside any request")
        for span in spans:
            if span[1] is not None and owner.get(span[1]) != req_id:
                problems.append(f"span {span[0]} of request {req_id} has a foreign parent")
        selfs = tracer_mod.self_times(spans)
        for span in spans:
            calls[span[3]] = calls.get(span[3], 0) + 1
            self_ns[span[3]] = self_ns.get(span[3], 0) + selfs[span[0]]

    sep = [s for s in tracer.spans if s[3] == "oracle.separate_fibers"]
    wasted = [s for s in sep if s[7] == "NotRepresentable"]
    useful = [s for s in sep if s[7] is None]
    for i, out in enumerate(outcomes):
        if out.stages < 0:
            continue
        spans = by_request.get(i, [])
        done = [s for s in spans if s[3] == "oracle.separate_fibers" and s[7] is None]
        if len(done) != 1:
            problems.append(f"request {i}: {len(done)} successful separate_fibers")
            continue
        below = set(tracer_mod.descendants(spans, done[0][0]))
        blowups = sum(1 for s in spans if s[0] in below and s[3] == "oracle.blow_up")
        if blowups != out.stages:
            problems.append(f"request {i}: {blowups} blow_up calls, {out.stages} stages")

    m = {}
    for module, path in tracer_mod.SPAN_TARGETS:
        name = tracer_mod.metric_name(module, path)
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_ns.get(name, 0) / 1e9
    for name, (n, ns, raised) in tracer.field.items():
        m[f"{name}.calls"] = n
        m[f"{name}.self_s"] = ns / 1e9
    m["field.FieldContext.uniformizer_power.not_representable"] = tracer.field[
        "field.FieldContext.uniformizer_power"
    ][2]
    m["oracle.separate_fibers.restarts"] = len(sep) - calls.get("oracle.run_oracle", 0)
    m["oracle.separate_fibers.wasted_s"] = sum(s[5] - s[4] for s in wasted) / 1e9
    m["oracle.separate_fibers.useful_ratio"] = len(useful) / len(sep) if sep else 0.0
    es = [o.e for o in outcomes if o.stages >= 0]
    m["oracle.e_final.max"] = max(es, default=0)
    m["oracle.e_final.sum"] = sum(es)
    m["classifier.admissible_partitions.results"] = tracer.results[
        "classifier.admissible_partitions"
    ]
    return m, problems


# ---------------------------------------------------------------------------
# one workload in this process


def _ours(module_name):
    return module_name in ("padicover", "workloads") or module_name.startswith("padicover.")


def _fresh_setup(name, seed, limit):
    """Import the package and the workloads anew, then build the inputs."""
    for m in [m for m in sys.modules if _ours(m)]:
        del sys.modules[m]
    workloads = _import_package()
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {name!r}")
    rng = random.Random(seed)
    return list(itertools.islice(workloads.WORKLOADS[name].setup(rng), limit)), rng


def load_golden(name):
    if not GOLDEN.is_file():
        return {}
    return json.loads(GOLDEN.read_text()).get(name, {})


def run_workload(name, seed, seconds, trace, limit=None):
    """Set up, measure and check one workload; returns (result, report).

    `limit` keeps only the first requests a set-up yields, for tests.
    """
    # set-up imports the package anew each time; a caller's modules (the
    # tests import the package first) are put back afterwards
    saved = {m: sys.modules[m] for m in list(sys.modules) if _ours(m)}
    try:
        with RefClock() as clock:
            for _ in range(SETUP_REPEATS):
                requests, rng = clock.call(_fresh_setup, name, seed, limit)
    finally:
        if saved:
            for m in [m for m in sys.modules if _ours(m)]:
                del sys.modules[m]
            sys.modules.update(saved)
    setup_s = statistics.median(clock.scaled_ns()) / 1e9
    workloads = _import_package()
    wl = workloads.WORKLOADS[name]
    rng.shuffle(requests)

    golden = load_golden(name)
    passes = measure(workloads.attempt, wl.run, requests, seconds)
    first = passes[0].outcomes
    checked = [
        o
        for p in passes
        for o in check_outcomes(workloads, requests, p.outcomes, golden, first)
    ]
    led = ledger(checked)
    problems = [
        f"request {i % len(requests)}: {o.detail}"
        for i, o in enumerate(checked)
        if o.kind == "failed"
    ]
    report = {
        "workload": name,
        "environment": environment(seed),
        "passes": len(passes),
        "requests_per_pass": len(requests),
        "samples": led["attempted"],
        "tail_percentile": tail_percentile(len(requests)),
        "golden_checked": sum(workloads.digest(r.doc) in golden for r in requests),
        "raw_request_s_per_pass": [round(p.raw_s, 4) for p in passes],
        "slowdown_per_pass": [round(p.slowdown, 4) for p in passes],
        "setup_slowdown": round(clock.slowdown(), 4),
    }
    if not trace:
        values = end_to_end(passes, setup_s)
        values["answered_share"] = led["answered_share"]
        report["outcome_shares"] = {k: led[k] for k in OUTCOME_SHARES}
    else:
        tracer_mod = importlib.import_module("tracer")
        tracer, busy, outs = traced_pass(tracer_mod, workloads.attempt, wl.run, requests)
        for i, (a, b) in enumerate(zip(first, outs)):
            if (a.kind, a.digest) != (b.kind, b.digest):
                problems.append(f"request {i}: traced output {b.digest} != {a.digest}")
        values, trace_problems = layer_metrics(tracer_mod, tracer, outs)
        problems += trace_problems
        untraced = statistics.median(sum(p.latencies) / 1e9 for p in passes)
        values["trace.overhead_ratio"] = busy / untraced
        tled = ledger(check_outcomes(workloads, requests, outs, golden))
        values["outcome.refused_share"] = tled["refused_share"]
        values["outcome.failed_share"] = tled["failed_share"]
    spec = json.loads(SPEC.read_text())["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    result = {
        "correct": not problems,
        "attempted": led["attempted"],
        "failed": led["failed"],
        "metrics": metrics,
    }
    report["problems"] = problems[:20]
    return result, report


def _print_report(result, report):
    print(json.dumps(report, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{report['workload']:>15}  {name:<56} {m['value']:>14.6g} {m['unit']}")
    for name, value in report.get("outcome_shares", {}).items():
        print(f"{report['workload']:>15}  {name:<56} {value:>14.6g} share")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        code = 0
        for w in json.loads(SPEC.read_text())["workloads"]:
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(args.trace)]
            code = max(code, subprocess.run(argv, check=False).returncode)
        return code
    result, report = run_workload(args.workload, args.seed, args.seconds, args.trace)
    _print_report(result, report)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
