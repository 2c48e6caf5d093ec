"""Rewrite golden.json: the outputs of every workload at the default seed.

Run from the root of a checkout whose outputs are known to be right::

    python3 perfbench/make_golden.py

Each entry maps the digest of an input document to the digest of the
canonical output JSON (oracle model and classification, without ``e`` and
``blowups``) or to ``refused:<class>``.  Refuses to write when any request
fails its other checks.
"""

from __future__ import annotations

import json
import random
import sys

import run


def main():
    workloads = run._import_package()
    golden = {}
    for name, wl in workloads.WORKLOADS.items():
        requests = list(wl.setup(random.Random(run.DEFAULT_SEED)))
        outcomes = run.run_pass(workloads.attempt, wl.run, requests).outcomes
        failed = [o.detail for o in outcomes if o.kind == "failed"]
        if failed:
            sys.exit(f"{name}: {len(failed)} requests failed, e.g. {failed[0]}")
        golden[name] = {
            workloads.digest(req.doc): out.digest for req, out in zip(requests, outcomes)
        }
        print(f"{name}: {len(requests)} outputs", file=sys.stderr)
    run.GOLDEN.write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
