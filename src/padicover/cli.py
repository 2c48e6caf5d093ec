"""Command-line front end: classify, verify, atlas, example8.

Exit codes are part of the interface:

  0  success (for ``verify``: the two routes agree)
  1  ``verify`` ran both routes and they disagree
  2  the cover does not have simple reduction (offending branch values listed,
     and with ``classify --emit-branch-tree`` the branch tree they sit in)
  3  malformed input: bad JSON (not UTF-8, or nested too deep to parse), bad
     schema, unparsable rationals, bad flags, a branch value too large to
     write (Python's int-to-string digit limit), or an input or output path
     the program cannot use (an --out that is, or lies under, a regular file)
  4  a domain or engine error, with advice on what to try
  5  internal error: any other exception, reported as JSON with its type

Input files are JSON.  Exact mode describes a cover by its critical divisor::

    {"p": 5, "e": 1, "critical": [{"x": "5", "m": 3},
                                  {"x": "0", "m": 2}, {"x": "-1", "m": 2}]}

("x" may also be a list of e rational strings — coefficients over the
pi-power basis, pi = p**(1/e).)  A rational, here and for "epsilon", is a
JSON integer or a string "a" or "a/b" of ASCII digits, a with an optional
sign, spaces allowed around it; a JSON float, a decimal point or an
exponent exits 3.  The input's e only sets that format: the arithmetic has
no fixed ramification index.  The ``e`` that ``verify`` reports is the
least ramification index over which the cover and every blow-up radius are
defined, the lcm of the input's e and the denominators of the radii in the
oracle's stages.  Exact mode builds beta densely and takes p <= 1000, and,
as every label is written as e rationals, e <= 1000; a larger p or e exits
3 (the costs are measured beside ``cover.EXACT_P_BOUND`` and EXACT_E_BOUND).

The model belongs to the cover in the coordinates given.  A unit-affine
change x -> u*x + c (u a unit, c integral) keeps it, each branch value
lambda moved to u**p * lambda + beta_new(c); so do another order of the
critical points, moving each by p**30 times an integer, and writing the
cover at another e (the reported e becomes the lcm).  x -> p*x does not: it
gives another cover, with another model, so exit 4 never advises rescaling.

Formula mode skips the field entirely and names the branch points with their
fiber profiles; a colliding pair carries the valuation of the difference,
as an "epsilon" beside the "tail_with" that names the point's partner (an
"epsilon" on a point without "tail_with" exits 3; so do --pair and
--epsilon with --cover).  A "name", and a "tail_with", must be a non-empty
JSON string; any other value (null, a number, a boolean, a list, "") exits
3, and the name "inf" is reserved for infinity.  --pair a,b --epsilon x puts
(a, b) at x in place of any pair naming a or b; the file's other pairs stay.
The profiles must satisfy Riemann-Hurwitz, sum(p - n) = p - 1 over the
finite branch points (n the number of parts), or the input exits 3::

    {"p": 5, "branch_points": [
        {"name": "0", "profile": [3, 1, 1], "tail_with": "lam", "epsilon": "7"},
        {"name": "lam", "profile": [2, 1, 1, 1]},
        {"name": "1", "profile": [2, 1, 1, 1]}]}
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import kpoly, newton
from .branchtree import ONE_POINT, AllPointsCoalesce
from .classifier import (
    ClassifierError,
    InvalidProfile,
    NonIntegralBranchValue,
    NotSimpleReduction,
    ThresholdUndefined,
    admissible_partitions,
    classify_cover,
    classify_formula,
    pair_excess,
)
from .cover import InvalidDivisor, branch_data, cover_from_json
from .field import FieldContext, parse_rat
from .oracle import (
    NonTermination,
    NotIntegralCover,
    OracleError,
    ResidualRootOutsideFp,
    run_oracle,
)


class SchemaError(ValueError):
    """Anything wrong with the shape of the input, file or flags."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's default exit code clashes with ours
        raise SchemaError(message)


def _canonical(doc):
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _read_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, too deep
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc


def _load_cover(path):
    doc = _read_json(path)
    try:
        return cover_from_json(doc)
    except SchemaError:
        raise
    except Exception as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _name(entry, field, path):
    """entry[field], a branch point's name: a non-empty JSON string."""
    value = entry[field]
    if type(value) is not str or not value:
        raise SchemaError(f"{path}: {field} must be a non-empty string, got {json.dumps(value)}")
    return value


def _load_profiles(path):
    doc = _read_json(path)
    try:
        p = FieldContext(doc["p"]).p  # the exact mode's check that p is prime
        specs = []
        for entry in doc["branch_points"]:
            profile = tuple(entry["profile"])
            if not all(type(m) is int for m in profile):
                raise SchemaError(f"{path}: profile parts must be integers, got {profile}")
            spec = {"name": _name(entry, "name", path), "profile": profile}
            if "tail_with" in entry:
                spec["tail_with"] = _name(entry, "tail_with", path)
            if "epsilon" in entry:
                spec["epsilon"] = parse_rat(entry["epsilon"])
            specs.append(spec)
    except SchemaError:
        raise
    except Exception as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    return p, specs


def _apply_pair_flags(specs, pair, epsilon, path):
    """--pair a,b and --epsilon override or install a colliding pair; other pairs stay."""
    if pair is None and epsilon is None:
        return specs
    if epsilon is not None:
        try:
            epsilon = parse_rat(epsilon)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"--epsilon {epsilon!r} is not a rational number") from exc
    by_name = {s["name"]: dict(s) for s in specs}
    if len(by_name) != len(specs):
        raise SchemaError(f"{path}: duplicate branch point names")
    if pair is not None:
        names = [n.strip() for n in pair.split(",")]
        if len(names) != 2 or not all(n in by_name for n in names):
            raise SchemaError(
                f"--pair must name two branch points from the file, got {pair!r}"
            )
        if epsilon is None:
            raise SchemaError("--pair requires --epsilon")
        for s in by_name.values():  # the pairs that name a or b give way
            if s["name"] in names or s.get("tail_with") in names:
                s.pop("tail_with", None)
                s.pop("epsilon", None)
        by_name[names[0]]["tail_with"] = names[1]
        by_name[names[0]]["epsilon"] = epsilon
    else:
        # classify_formula reads an epsilon only where tail_with is declared
        tails = [s for s in by_name.values() if "tail_with" in s]
        if not tails:
            raise SchemaError("--epsilon given but the file declares no pair")
        for s in tails:
            s["epsilon"] = epsilon
    return list(by_name.values())


# ---------------------------------------------------------------------------
# emission helpers


def _write_outputs(outdir, basename, model, emit):
    outdir.mkdir(parents=True, exist_ok=True)
    files = []
    if emit in ("json", "both"):
        path = outdir / f"{basename}.json"
        path.write_text(_canonical(model.to_json()), encoding="utf-8")
        files.append(path.name)
    if emit in ("dot", "both"):
        path = outdir / f"{basename}.dot"
        path.write_text(model.to_dot(), encoding="utf-8")
        files.append(path.name)
    return files


def _classification_doc(classification, emit, mode):
    doc = {
        "mode": mode,
        "p": classification.p,
        "ordinary": [
            {"label": label, "profile": list(profile)}
            for label, profile in classification.ordinary
        ],
        "tails": [t.to_json() for t in classification.tails],
        "model_count": len(classification.models),
    }
    if emit in ("json", "both"):
        doc["models"] = [m.to_json() for m in classification.models]
    if emit in ("dot", "both"):
        doc["dot"] = [m.to_dot() for m in classification.models]
    return doc


def _newton_doc(cover):
    out = {}
    for bp in branch_data(cover):
        fiber = kpoly.sub(cover.beta, kpoly.from_elements(cover.ctx, [bp.value]))
        out[bp.label] = newton.newton_polygon(fiber).to_json()
    return out


# ---------------------------------------------------------------------------
# subcommands


def _cmd_classify(args):
    if bool(args.cover) == bool(args.profiles):
        raise SchemaError("classify needs exactly one of --cover or --profiles")
    if args.cover:
        if args.pair is not None or args.epsilon is not None:
            raise SchemaError("--pair/--epsilon need --profiles")
        cover = _load_cover(args.cover)
        classification = classify_cover(cover)
        mode = "exact"
    else:
        if args.emit_newton or args.emit_branch_tree:
            raise SchemaError("--emit-newton/--emit-branch-tree need --cover")
        p, specs = _load_profiles(args.profiles)
        specs = _apply_pair_flags(specs, args.pair, args.epsilon, args.profiles)
        classification = classify_formula(p, specs)
        mode = "formula"
    doc = _classification_doc(classification, args.emit, mode)
    if args.emit_newton:
        doc["newton"] = _newton_doc(cover)
    if args.emit_branch_tree:  # the tree classify_cover built; one point has none
        tree = classification.tree
        doc["branch_tree"] = tree.to_json() if tree else {"error": ONE_POINT}
    if args.out:
        outdir = Path(args.out)
        for i, model in enumerate(classification.models):
            _write_outputs(outdir, f"model-{i:02d}", model, args.emit)
        (outdir / "classification.json").write_text(_canonical(doc), encoding="utf-8")
    sys.stdout.write(_canonical(doc))
    return 0


def _cmd_verify(args):
    cover = _load_cover(args.cover)
    classification = classify_cover(cover)
    result = run_oracle(cover)
    matched = [
        i
        for i, m in enumerate(classification.models)
        if result.model.is_isomorphic_to(m)
    ]
    doc = {
        "p": cover.ctx.p,
        "e": result.e,
        "blowups": len(result.stages),
        "labels": list(result.labels),
        "candidates": len(classification.models),
        "matched_index": matched[0] if matched else None,
        "verdict": "AGREE" if len(matched) == 1 else "DISAGREE",
    }
    if args.emit in ("json", "both"):
        doc["oracle_model"] = result.model.to_json()
    if args.emit in ("dot", "both"):
        doc["oracle_dot"] = result.model.to_dot()
    if args.trace:
        doc["trace"] = result.trace_json()
    if args.out:
        outdir = Path(args.out)
        _write_outputs(outdir, "oracle-model", result.model, args.emit)
        (outdir / "verify.json").write_text(_canonical(doc), encoding="utf-8")
    sys.stdout.write(_canonical(doc))
    return 0 if doc["verdict"] == "AGREE" else 1


def _partitions_into(remaining, largest):
    """Partitions of `remaining` into parts at most `largest`, each a tuple
    of descending parts, in descending lexicographic order."""
    if not remaining:
        yield ()
    for part in range(min(largest, remaining), 0, -1):
        yield from ((part,) + rest for rest in _partitions_into(remaining - part, part))


def _partitions_of(p):
    """All fiber profiles: partitions of p other than the unramified one."""
    return [pi for pi in _partitions_into(p, p) if pi != (1,) * p]


def _atlas_rows(p):
    profiles = _partitions_of(p)
    rows = []
    for k in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(profiles, k):
            if sum(p - len(pi) for pi in combo) != p - 1:
                continue
            pairs = []
            for pi1, pi2 in sorted(set(itertools.combinations(sorted(combo), 2))):
                u = pair_excess(p, pi1, pi2)
                pairs.append({
                    "profiles": [list(pi1), list(pi2)],
                    "u": u,
                    "threshold": str(Fraction(p, u)) if u > 0 else None,
                    "partitions": len(admissible_partitions(p, pi1, pi2)),
                })
            rows.append(
                {"p": p, "profiles": [list(pi) for pi in sorted(combo)], "pairs": pairs}
            )
    return rows


def _atlas_markdown(rows):
    lines = [
        "# Colliding-pair atlas",
        "",
        "All branch profile combinations for small primes (at most three finite",
        "branch values), with the collision threshold and the number of",
        "admissible splittings for every pair.  A dash means the pair's fibers",
        "already account for p + 1 points, so no threshold exists.",
        "",
        "| p | profiles | pair | threshold | splittings |",
        "|---|----------|------|-----------|------------|",
    ]

    def show(profile):
        return "(" + ",".join(str(x) for x in profile) + ")"

    for row in rows:
        profs = " ".join(show(pi) for pi in row["profiles"])
        if not row["pairs"]:
            lines.append(f"| {row['p']} | {profs} | — | — | — |")
        for pair in row["pairs"]:
            pp = " vs ".join(show(pi) for pi in pair["profiles"])
            thr = pair["threshold"] if pair["threshold"] is not None else "—"
            cnt = pair["partitions"] if pair["threshold"] is not None else "—"
            lines.append(f"| {row['p']} | {profs} | {pp} | {thr} | {cnt} |")
    return "\n".join(lines) + "\n"


def _cmd_atlas(args):
    if not args.out:
        raise SchemaError("atlas needs --out DIR")
    rows = []
    for p in (3, 5, 7):
        rows.extend(_atlas_rows(p))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "atlas.json").write_text(_canonical({"rows": rows}), encoding="utf-8")
    (outdir / "atlas.md").write_text(_atlas_markdown(rows), encoding="utf-8")
    sys.stdout.write(_canonical({"rows": len(rows), "out": str(outdir)}))
    return 0


_SHOWCASE_PROFILES = {"0": (3, 1, 1), "1": (2, 1, 1, 1), "lam": (2, 1, 1, 1)}
# the fixed demonstration family: "lam" apart from both other values, then
# colliding with "0" (threshold 5) or "1" (threshold 5/2) at a distance in
# each regime, as (partner, epsilon); nine models in all, as a near case
# gives one model per admissible splitting
_SHOWCASE_CASES = (
    (None, None),
    ("0", 1), ("0", 5), ("0", 7),
    ("1", 1), ("1", Fraction(5, 2)), ("1", 3),
)


def _cmd_example8(args):
    if not args.out:
        raise SchemaError("example8 needs --out DIR")
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    profiles = {name: list(profile) for name, profile in _SHOWCASE_PROFILES.items()}
    index = []
    for partner, eps in _SHOWCASE_CASES:
        tail = {"tail_with": "lam", "epsilon": eps}
        classification = classify_formula(5, [
            {"name": name, "profile": profile, **(tail if name == partner else {})}
            for name, profile in _SHOWCASE_PROFILES.items()
        ])
        tag, facts = "good", {}
        for report in classification.tails:  # at most one; "lam" sorts last
            tag = f"collide{report.pair[0]}-{report.regime}"
            facts = {
                "collides": list(report.pair),
                "epsilon": str(report.epsilon),
                "threshold": str(report.threshold),
                "regime": report.regime,
            }
        models = classification.models
        for j, model in enumerate(models):
            suffix = "-" + "ab"[j] if len(models) > 1 else ""
            basename = f"showcase-{len(index):02d}-{tag}{suffix}"
            entry = {
                "name": basename,
                "files": _write_outputs(outdir, basename, model, args.emit),
                "profiles": profiles,
            }
            if facts:
                entry.update(facts, model_choice=j)
            index.append(entry)
    (outdir / "index.json").write_text(_canonical({"bundle": index}), encoding="utf-8")
    sys.stdout.write(_canonical({"models": len(index), "out": str(outdir)}))
    return 0


# ---------------------------------------------------------------------------
# entry point


def _build_parser():
    parser = _Parser(
        prog="padicover",
        description="Reduction types of prime-degree covers of the line over p-adic fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, cover=True, profiles=False):
        if cover:
            sp.add_argument("--cover", help="exact-mode cover JSON file")
        if profiles:
            sp.add_argument("--profiles", help="formula-mode branch data JSON file")
            sp.add_argument("--pair", help="two branch names, comma separated")
            sp.add_argument("--epsilon", help="collision distance, e.g. 7 or 5/2")
        sp.add_argument(
            "--emit",
            choices=["json", "dot", "both"],
            default="json",
            help="what to emit for each model",
        )
        sp.add_argument("--out", help="directory for per-model output files")

    classify = sub.add_parser("classify", help="closed-form reduction type")
    common(classify, cover=True, profiles=True)
    classify.add_argument("--emit-newton", action="store_true")
    classify.add_argument("--emit-branch-tree", action="store_true")

    verify = sub.add_parser("verify", help="cross-check the answer by blow-ups")
    common(verify, cover=True)
    verify.add_argument("--trace", action="store_true", help="include stage records")

    atlas = sub.add_parser("atlas", help="profile/threshold tables for p in {3,5,7}")
    atlas.add_argument("--out", help="directory for atlas.md and atlas.json")

    example8 = sub.add_parser("example8", help="emit the fixed showcase bundle")
    example8.add_argument(
        "--emit", choices=["json", "dot", "both"], default="both"
    )
    example8.add_argument("--out", help="directory for the nine model files")
    return parser


_ADVICE = {
    NotIntegralCover: "the model is computed only for integral coefficients and "
    "p-th-power reduction; scaling x by a power of p may give them, but that is "
    "another cover, with another model",
    NonIntegralBranchValue: "the model is computed only for integral branch "
    "values; scaling x by a power of p may give them, but that is another "
    "cover, with another model",
    ResidualRootOutsideFp: "the separating model needs an unramified extension "
    "of the residue field; this engine only lifts F_p-rational centers",
    NonTermination: "the blow-up budget ran out; the cover may be degenerate",
    ThresholdUndefined: "the two fibers already account for p + 1 points, so "
    "no collision threshold exists for this pair",
    AllPointsCoalesce: "the model is computed only for branch values in two or "
    "more residue classes; scaling x by a power of p may spread them, but that "
    "is another cover, with another model",
}


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "classify":
            return _cmd_classify(args)
        if args.command == "verify":
            if not args.cover:
                raise SchemaError("verify needs --cover")
            return _cmd_verify(args)
        if args.command == "atlas":
            return _cmd_atlas(args)
        return _cmd_example8(args)
    except (SchemaError, InvalidProfile, InvalidDivisor) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 3
    except NotSimpleReduction as exc:
        doc = {"error": str(exc), "offenders": list(exc.offenders)}
        if args.command == "classify" and args.emit_branch_tree:
            doc["branch_tree"] = exc.tree.to_json()  # the tree shows why
        sys.stderr.write(_canonical(doc))
        return 2
    except (ClassifierError, OracleError, AllPointsCoalesce) as exc:
        advice = ""
        for kind, text in _ADVICE.items():
            if isinstance(exc, kind):
                advice = text
                break
        sys.stderr.write(_canonical({"error": str(exc), "advice": advice}))
        return 4
    except OSError as exc:  # the message names the path
        sys.stderr.write(f"input error: cannot write output: {exc}\n")
        return 3
    except Exception as exc:  # a bug, never a traceback and never exit 1
        sys.stderr.write(_canonical({"error": str(exc), "type": type(exc).__name__}))
        return 5


if __name__ == "__main__":
    sys.exit(main())
