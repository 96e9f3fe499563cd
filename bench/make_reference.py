"""Regenerate ``bench/reference.json`` from one run of every workload.

    python3 bench/make_reference.py

The file holds, for the default seed, each op's AUC and score digest,
each workload's digest, and the fingerprint of the machine that produced
them. ``run.py`` fails any op whose AUC at the default seed differs from
it by more than 1e-9; the digests are only compared and printed, because
BLAS builds may differ in the last bits across machines. Regenerate it
only in a change that is meant to alter results, and say so there.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import DEFAULT_SEED


def main() -> int:
    workloads = run.run_all(DEFAULT_SEED, 1, False, reference=None)
    failures = [f for w in workloads.values() for f in w["failures"]]
    if failures:
        print("not written; failed ops:\n  " + "\n  ".join(failures), file=sys.stderr)
        return 1
    reference = {
        "seed": DEFAULT_SEED,
        "fingerprint": run.fingerprint(seed=DEFAULT_SEED),
        "workloads": {
            name: {"digest": w["digest"], "ops": w["ops"]} for name, w in workloads.items()
        },
    }
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
