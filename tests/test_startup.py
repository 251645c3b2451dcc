"""Start-up guard: only the two kernels that call ``scipy.linalg`` load it.

Importing scipy.linalg more than doubles the cost of ``import opdisc``, so
``decompose.linear_path_blocks`` and ``galerkin.solve_semilinear_trace``
import it at their call sites.  The guard runs in a fresh interpreter,
because this test session has loaded scipy long before it gets here.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import opdisc

SRC = Path(opdisc.__file__).resolve().parents[1]

SPACE = {"basis": "fourier", "ambient_dim": 8}
LAYER = {"kind": "seeded_layer", "seed": 3, "lip_g": 0.5}
CHAIN = {"kind": "seeded_chain", "ambient_dim": 6, "num_blocks": 2, "seed": 9, "delta": 0.5}

SCIPY_FREE = [
    {"name": "mono", "kind": "monotone-check", "seed": 5, "samples": 8, "dims": [2],
     "space": SPACE, "layer": LAYER},
    {"name": "scan", "kind": "discretize-scan", "seed": 0, "samples": 8, "dims": [1, 2],
     "space": SPACE, "layer": LAYER},
    {"name": "quant", "kind": "quant-report", "seed": 0, "samples": 8, "dims": [2, 4],
     "space": SPACE, "layer": LAYER},
    {"name": "inv", "kind": "invert", "seed": 0, "chain": CHAIN,
     "y": [-0.3, -0.1, 0.0, 0.1, 0.2, 0.4]},
    {"name": "gal", "kind": "nogo-galerkin", "seed": 0, "path_kind": "a", "n": 1, "grid": 21},
    {"name": "iso", "kind": "nogo-isotopy", "seed": 0, "m": 3, "grid": 21},
]

NEEDS_SCIPY = [
    {"name": "dec", "kind": "decompose", "seed": 0, "space": SPACE,
     "layer": {"kind": "seeded_layer", "seed": 5, "rank": 4, "lip_g": 0.4},
     "epsilon": 0.25, "radius": 1.0, "n_verify": 16},
    {"name": "fem", "kind": "fem-solve", "seed": 0, "g": "zero", "mesh": [4, 8]},
]

PROBE = textwrap.dedent(
    """
    import json, sys
    from pathlib import Path

    import opdisc, opdisc.cli

    def batch(experiments):
        config = {"schema": 1, "experiments": experiments}
        outcomes = opdisc.cli.run_config(config, Path(sys.argv[1]), 1, None)
        return [o["status"] for o in outcomes]

    imported = "scipy" in sys.modules
    free_status = batch(json.loads(sys.argv[2]))
    after_free = "scipy" in sys.modules
    scipy_status = batch(json.loads(sys.argv[3]))
    print(json.dumps({
        "imported": imported, "free_status": free_status, "after_free": after_free,
        "scipy_status": scipy_status, "after_scipy": "scipy" in sys.modules,
    }))
    """
)


def test_only_decompose_and_fem_solve_load_scipy(tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path),
         json.dumps(SCIPY_FREE), json.dumps(NEEDS_SCIPY)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert not seen["imported"], "import opdisc loaded scipy"
    assert seen["free_status"] == ["ok"] * len(SCIPY_FREE)
    assert not seen["after_free"], "a scipy-free experiment kind loaded scipy"
    # the guard is not vacuous: the two kinds that need scipy.linalg load it
    assert seen["scipy_status"] == ["ok"] * len(NEEDS_SCIPY)
    assert seen["after_scipy"]
