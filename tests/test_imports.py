"""The package's import graph: numpy and scipy.linalg, no other scipy subpackage.

Every workload and every ``python -m repro`` call imports ``repro``, so
whatever it loads is paid in start-up time and resident memory by each
process. The check runs in a fresh interpreter, because this test
session has long since imported scipy.stats itself.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = (
    "scipy.stats",
    "scipy.optimize",
    "scipy.sparse",
    "scipy.spatial",
    "scipy.special",
    "scipy.ndimage",
)

PROGRAM = textwrap.dedent(
    """
    import sys

    import repro
    import repro.cli
    import repro.experiments
    from repro import FRaC, FRaCConfig, auc_score, load_replicates

    rep = load_replicates("breast.basal", scale=1 / 256, rng=0)[0]
    frac = FRaC(FRaCConfig.fast(), rng=0).fit(rep.x_train, rep.schema)
    auc_score(rep.y_test, frac.score(rep.x_test))
    print(" ".join(m for m in {heavy!r} if m in sys.modules))
    """
).format(heavy=HEAVY)


def test_fit_score_and_auc_load_no_heavy_scipy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROGRAM],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=300,
    )
    assert out.stdout.split() == []
