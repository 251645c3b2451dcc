"""The digest ledger: ``tests/digests.json`` pins the bytes of what opdisc
writes, so a change that moves an artifact shows up here as a failed test.

The ledger holds the sha256 of every file that the reachability batch
(``test_reachability.BATCH``, every CLI kind) writes at ``--jobs 1``, of
every file that each reachability subcommand run
(``test_reachability.SUBCOMMANDS``, each into a directory of its own) writes,
keyed ``run/file``, and of each ``opdisc accept`` criterion's result in
``acceptance.json``, without its wall time ``elapsed``.  All runs happen in a fresh interpreter with
BLAS pinned to one thread, because criterion 2's details depend on the
thread count.  The ledger records the numpy version and the BLAS build it
was made with; on a mismatch elsewhere the failure says so.

Rewrite the ledger after a change that moves a digest on purpose, and name
each moved file in CHANGES.md::

    PYTHONPATH=src python tests/test_digests.py --write

Run without ``--write``, the script prints the digests it measures, BLAS
pinned as the test and ``--write`` pin it; ``--here`` measures in the calling
interpreter as it is.
"""

import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

LEDGER = Path(__file__).with_name("digests.json")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _blas_build() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 prints its config only
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}: {blas.get('openblas configuration', '')}"


def _criterion_digest(result: dict) -> str:
    """The digest of one criterion's result without its wall time."""
    result = {key: value for key, value in result.items() if key != "elapsed"}
    return _sha256(json.dumps(result, sort_keys=True, allow_nan=False).encode())


def measure() -> dict:
    """Run the reachability batch, its subcommand runs and ``opdisc accept``
    in this process and digest what they write."""
    import numpy as np

    from opdisc.cli import main
    from test_reachability import BATCH, FILES, SUBCOMMANDS

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        inputs = {"batch": {"schema": 1, "experiments": BATCH}, **FILES}
        paths = {name: tmp / f"{name}.json" for name in inputs}
        for name, blob in inputs.items():
            paths[name].write_text(json.dumps(blob))
        batch, subcommands, accept = tmp / "batch", tmp / "subcommands", tmp / "accept"
        # the status lines go to stderr: stdout carries only the digests
        with contextlib.redirect_stdout(sys.stderr):
            main(["--config", str(paths["batch"]), "--out", str(batch), "--jobs", "1"],
                 standalone_mode=False)
            for name, args in SUBCOMMANDS.items():
                main(["--out", str(subcommands / name), *(arg.format(**paths) for arg in args)],
                     standalone_mode=False)
            main(["--out", str(accept), "accept"], standalone_mode=False)
        files = {path.name: _sha256(path.read_bytes()) for path in sorted(batch.iterdir())}
        runs = {path.relative_to(subcommands).as_posix(): _sha256(path.read_bytes())
                for path in sorted(subcommands.glob("*/*"))}
        results = json.loads((accept / "acceptance.json").read_text())["results"]
    return {
        "numpy": np.__version__,
        "blas": _blas_build(),
        "files": files,
        "subcommands": runs,
        "criteria": {str(r["criterion"]): _criterion_digest(r) for r in results},
    }


def measure_pinned() -> dict:
    """:func:`measure` in a fresh interpreter with BLAS pinned to one thread."""
    import opdisc

    src = str(Path(opdisc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, __file__, "--here"], env={**os.environ, **PINNED, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _moved(ledger: dict, now: dict) -> list[str]:
    return [
        f"{key}: {'new' if key not in ledger else 'gone' if key not in now else 'moved'}"
        for key in sorted(ledger.keys() | now.keys())
        if ledger.get(key) != now.get(key)
    ]


def test_the_artifacts_match_the_ledger():
    ledger = json.loads(LEDGER.read_text())
    now = measure_pinned()
    moved = _moved(ledger["files"], now["files"]) + [
        f"subcommand {line}" for line in _moved(ledger["subcommands"], now["subcommands"])
    ] + [f"criterion {line}" for line in _moved(ledger["criteria"], now["criteria"])]
    setting = [
        f"{key} is {now[key]!r} here but {ledger[key]!r} in the ledger"
        for key in ("numpy", "blas")
        if now[key] != ledger[key]
    ]
    assert not moved, "\n  ".join(
        ["artifacts moved from tests/digests.json:", *moved, *setting,
         "if the move is meant, rewrite the ledger: "
         "PYTHONPATH=src python tests/test_digests.py --write"]
    )


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        LEDGER.write_text(json.dumps(measure_pinned(), indent=2, sort_keys=True) + "\n")
    elif sys.argv[1:] == ["--here"]:
        print(json.dumps(measure(), sort_keys=True))
    else:
        print(json.dumps(measure_pinned(), sort_keys=True))
