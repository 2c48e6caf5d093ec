"""The benchmark's four workloads: input documents and one request each.

Set-up turns a seed into a list of requests.  Each request carries only an
exact-mode or formula-mode JSON document (the form the command line reads)
plus what is known about its answer independently of the program.  Running a
request returns an ``Outcome``: answered, refused (a typed refusal the
command line documents) or failed.

Calls into the package go through module attributes (``oracle.run_oracle``),
so the tracer's patches apply to them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from padicover import classifier, cli, cover, oracle, planted
from padicover.classifier import InvalidProfile, NotSimpleReduction

# typed refusals: what the command line maps to documented advice, plus the
# two errors it reports with exit codes 2 and 3
REFUSALS = tuple(cli._ADVICE) + (NotSimpleReduction, InvalidProfile)

# verify-random and classify-exact draw their covers from this generator
# seed whatever the run's seed is; see README.md
POOL_SEED = 1
RANDOM_POOL = ((7, 24), (11, 14))  # verify-random: (p, covers)
EXACT_POOL = ((5, 1), (5, 2), (7, 1), (7, 2))  # classify-exact: (p, e)
EXACT_PER_FIELD = 500

FORMULA_PRIMES = (7, 11)


@dataclass(frozen=True)
class Request:
    doc: dict  # the input document, exactly as the program receives it
    expect: tuple | None = None  # regimes known without the program, if any


@dataclass(frozen=True)
class Outcome:
    kind: str  # "answered", "refused" or "failed"
    digest: str  # of the canonical output JSON, or "refused:<class>"
    detail: str = ""  # why a request failed
    e: int = 0  # final ramification index of the oracle run
    stages: int = -1  # len(result.stages) of the oracle run


def digest(doc):
    """Digest of a document's canonical JSON."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# input documents


def cover_doc(c):
    """The exact-mode document of a cover built in memory."""
    e = c.ctx.e
    return {
        "p": c.ctx.p,
        "e": e,
        "critical": [
            {"x": x.to_strings() if e > 1 else x.to_strings()[0], "m": m}
            for x, m in c.critical.points
        ],
    }


def near_pairs(p):
    """Profile pairs with u > 0 whose ramification fits one cover."""
    return [
        (pr1, pr2)
        for pr1, pr2 in itertools.combinations_with_replacement(cli._partitions_of(p), 2)
        if len(pr1) + len(pr2) - p - 1 > 0 and (p - len(pr1)) + (p - len(pr2)) <= p - 1
    ]


def formula_doc(p, pr1, pr2, epsilon):
    """A formula-mode cover: the colliding pair, plus one branch point
    carrying whatever ramification Riemann-Hurwitz still requires."""
    points = [
        {"name": "a", "profile": list(pr1), "tail_with": "b", "epsilon": str(epsilon)},
        {"name": "b", "profile": list(pr2)},
    ]
    rest = (p - 1) - (p - len(pr1)) - (p - len(pr2))
    if rest:
        points.append({"name": "c", "profile": [rest + 1] + [1] * (p - rest - 1)})
    return {"p": p, "branch_points": points}


# Each set-up yields its requests one at a time, so that a caller can stop
# after the first few.


def setup_verify_planted(rng):
    for inst in planted.suite():
        yield Request(cover_doc(inst.cover), inst.regimes)


def setup_verify_random(rng):
    pool = random.Random(POOL_SEED)
    for p, count in RANDOM_POOL:
        for _ in range(count):
            yield Request(cover_doc(planted.random_integral_cover(pool, p)))


def setup_formula_near(rng):
    for p in FORMULA_PRIMES:
        for pr1, pr2 in near_pairs(p):
            u = len(pr1) + len(pr2) - p - 1
            epsilon = Fraction(p, u) + Fraction(rng.randint(1, 12), rng.randint(1, 6))
            yield Request(formula_doc(p, pr1, pr2, epsilon), ("near",))


def setup_classify_exact(rng):
    pool = random.Random(POOL_SEED)
    for p, e in EXACT_POOL:
        for _ in range(EXACT_PER_FIELD):
            yield Request(cover_doc(planted.random_integral_cover(pool, p, e)))


# ---------------------------------------------------------------------------
# requests


def classification_json(c):
    return {
        "p": c.p,
        "ordinary": [[label, list(profile)] for label, profile in c.ordinary],
        "tails": [t.to_json() for t in c.tails],
        "models": [m.to_json() for m in c.models],
    }


def _regimes(classification):
    return tuple(sorted(t.regime for t in classification.tails))


def run_verify(req):
    """What ``padicover verify`` does: both routes, then compare."""
    c = cover.cover_from_json(req.doc)
    classification = classifier.classify_cover(c)
    result = oracle.run_oracle(c)
    matched = [
        i
        for i, m in enumerate(classification.models)
        if result.model.is_isomorphic_to(m)
    ]
    out = {
        "verdict": "AGREE" if len(matched) == 1 else "DISAGREE",
        "matched_index": matched[0] if matched else None,
        "labels": list(result.labels),
        "oracle_model": result.model.to_json(),
        "classification": classification_json(classification),
    }
    kind, detail = "answered", ""
    if out["verdict"] != "AGREE":
        kind, detail = "failed", f"DISAGREE ({len(matched)} of {len(classification.models)} match)"
    elif req.expect is not None and _regimes(classification) != req.expect:
        kind, detail = "failed", f"regimes {_regimes(classification)} != planted {req.expect}"
    return Outcome(kind, digest(out), detail, result.e, len(result.stages))


def run_formula(req):
    doc = req.doc
    specs = []
    for entry in doc["branch_points"]:
        spec = {"name": entry["name"], "profile": tuple(entry["profile"])}
        if "tail_with" in entry:
            spec["tail_with"] = entry["tail_with"]
            spec["epsilon"] = Fraction(entry["epsilon"])
        specs.append(spec)
    classification = classifier.classify_formula(doc["p"], specs)
    if _regimes(classification) != req.expect:
        return Outcome("failed", "", f"regimes {_regimes(classification)} != {req.expect}")
    return Outcome("answered", digest(classification_json(classification)))


def run_classify(req):
    classification = classifier.classify_cover(cover.cover_from_json(req.doc))
    return Outcome("answered", digest(classification_json(classification)))


def attempt(run, req):
    """Run one request, sorting any exception into refused or failed."""
    try:
        return run(req)
    except REFUSALS as exc:
        return Outcome("refused", f"refused:{type(exc).__name__}")
    except Exception as exc:  # an untyped error is a failure, never a crash
        return Outcome("failed", f"error:{type(exc).__name__}", repr(exc)[:200])


@dataclass(frozen=True)
class Workload:
    setup: object  # rng -> iterator of Request
    run: object  # Request -> Outcome


# why each workload is in the benchmark: BENCHMARK.json and README.md
WORKLOADS = {
    "verify-planted": Workload(setup_verify_planted, run_verify),
    "verify-random": Workload(setup_verify_random, run_verify),
    "formula-near": Workload(setup_formula_near, run_formula),
    "classify-exact": Workload(setup_classify_exact, run_classify),
}
