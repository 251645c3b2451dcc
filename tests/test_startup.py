"""Start-up guard: no run of opdisc loads scipy.

Importing scipy.linalg more than doubles the start-up of ``import opdisc``
and adds a second LAPACK to the process, so the package uses numpy alone.
The guard runs ``import opdisc``, one experiment of every kind and
``opdisc accept`` in a fresh interpreter, because this test session has
loaded scipy long before it gets here.  A batch that runs in order also
leaves the process-pool machinery of ``--jobs`` unloaded.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import opdisc
from opdisc.cli import KEYS

SRC = Path(opdisc.__file__).resolve().parents[1]

SPACE = {"basis": "fourier", "ambient_dim": 8}
LAYER = {"kind": "seeded_layer", "seed": 3, "lip_g": 0.5}
CHAIN = {"kind": "seeded_chain", "ambient_dim": 6, "num_blocks": 2, "seed": 9, "delta": 0.5}

EVERY_KIND = [
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

    out = Path(sys.argv[1])
    imported = "scipy" in sys.modules
    config = {"schema": 1, "experiments": json.loads(sys.argv[2])}
    status = [o["status"] for o in opdisc.cli.run_config(config, out / "batch", 1, None)]
    after_batch = "scipy" in sys.modules
    pool = "multiprocessing" in sys.modules
    try:
        opdisc.cli.main(["--out", str(out / "accept"), "accept"], standalone_mode=False)
    except SystemExit as stop:
        print(f"accept exited with {stop.code}")
    results = json.loads((out / "accept" / "acceptance.json").read_text())["results"]
    print(json.dumps({
        "imported": imported, "status": status, "after_batch": after_batch, "pool": pool,
        "accept": [r["passed"] for r in results], "after_accept": "scipy" in sys.modules,
    }))
    """
)


def test_no_run_loads_scipy(tmp_path):
    assert sorted({exp["kind"] for exp in EVERY_KIND}) == sorted(KEYS)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(tmp_path), json.dumps(EVERY_KIND)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert not seen["imported"], "import opdisc loaded scipy"
    assert seen["status"] == ["ok"] * len(EVERY_KIND)
    assert not seen["after_batch"], "an experiment loaded scipy"
    assert not seen["pool"], "a jobs-1 batch loaded the process pool"
    assert seen["accept"] == [True] * 10
    assert not seen["after_accept"], "opdisc accept loaded scipy"
