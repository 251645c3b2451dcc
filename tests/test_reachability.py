"""Every function in ``src/opdisc`` is reached by the command line.

``opdisc accept``, one ``--config`` batch at ``--jobs 1`` and a
two-experiment batch at ``--jobs 2`` run under ``sys.setprofile``.  The
first batch holds every CLI kind and every spec kind, and runs in order.
The second batch enters the fork branch: its child inherits the profile
and writes down what it entered as it leaves through ``os._exit``.
``import opdisc.cli`` is profiled too, in a fresh interpreter with the hook installed before the import, so
functions that run only at import count as reached.  A ``def`` that none of
these enters is code no CLI kind or acceptance criterion reaches: wire it
into a check or delete it.  Lambdas and comprehensions are not counted.
Only the entries of ``ALLOWED`` may stay unreached, each for the reason it
gives.  Every JSON file these runs write must parse as strict JSON, with no
NaN or Infinity, and must keep its records honest: a sampled estimate is
never called certified, and each ``monotone-check`` row cites its estimate
by that estimate's own hash.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from click.testing import CliRunner

import opdisc
from opdisc import cli, serialize
from opdisc.cli import main

SRC = Path(opdisc.__file__).resolve().parent

_TRACER = "read only by bench/tracer.py, until its counts come from the run itself"
ALLOWED = {
    "cli._run_subcommand": "the body every subcommand shares",
    "cli._layer_file": "reads the --layer file of a subcommand",
    "cli._chain_file": "reads the --chain file of the invert subcommand",
    "cli._y_file": "reads the --y file of the invert subcommand",
    "decompose.TailBlock.alpha": _TRACER,
    "decompose.ScalingPath.alpha": _TRACER,
    "invert.InversionTrace.total_iterations": _TRACER,
    "galerkin.NewtonTrace.iterations": _TRACER,
}

I3 = np.eye(3).tolist()
FOURIER = {"basis": "fourier", "ambient_dim": 8}
SEEDED_OP = {"kind": "seeded_finite_rank", "rank": 4, "seed": 1}
# Df(0) = -I: kappa = 2, so decompose picks Newton (its affine core takes the
# linear shortcut and inverts nothing), pairs the flipped directions into
# pi-rotations and needs the reflection A0
FLIP_LAYER = {
    "kind": "layer",
    "in_op": {"kind": "finite_rank", "omegas": [1, 1, 1], "psi": I3, "phi": I3},
    "out_op": {"kind": "finite_rank", "omegas": [1, 1, 1], "psi": I3, "phi": I3},
    "nonlin": {"kind": "affine", "matrix": (-2.0 * np.eye(3)).tolist(), "bias": [0, 0, 0]},
}
EXPLICIT_NET = {
    "kind": "coordinate_network",
    "weights": [(0.3 * np.eye(4)).tolist(), (0.5 * np.eye(4)[::-1]).tolist()],
    "biases": [[0.1, 0, 0, 0], [0, 0, 0, -0.1]],
    "activation": "leaky_relu(0.3)",
}
# a network on the first four of eight coordinates: the other four pass through
PREFIX_NET_LAYER = {
    "kind": "layer", "in_op": SEEDED_OP, "out_op": SEEDED_OP,
    "nonlin": {"kind": "coordinate_net", "ambient_dim": 8,
               "net": {"kind": "seeded_coordinate_network", "n_in": 4, "n_out": 4, "seed": 7,
                       "target_bound": 0.5, "activation": "identity"}},
}
BATCH = [
    {"name": "nemytskii", "kind": "monotone-check", "seed": 5, "samples": 16,
     "dims": [2, 8], "space": FOURIER,
     "layer": {"kind": "layer", "in_op": SEEDED_OP,
               "out_op": {"kind": "finite_rank", "omegas": [1.0, 0.5],
                          "psi_seed": 2, "phi_seed": 3},
               "nonlin": {"kind": "nemytskii", "activation": "scaled_leaky(0.5)"}}},
    # kappa = max(1, 0.5): rejected before it is evaluated
    {"name": "coordinate-net", "kind": "monotone-check", "seed": 5, "samples": 16,
     "dims": [4], "space": FOURIER, "layer": PREFIX_NET_LAYER},
    # no dims: the runner spreads its own prefixes
    {"name": "spread", "kind": "monotone-check", "seed": 5, "samples": 8,
     "space": {"basis": "abstract_orthonormal", "ambient_dim": 4},
     "layer": {"kind": "seeded_layer", "seed": 3, "lip_g": 0.5}},
    # recu is unbounded: the layer is rejected and its contraction written as null
    {"name": "recu", "kind": "monotone-check", "seed": 5, "samples": 8, "dims": [2],
     "space": {"basis": "abstract_orthonormal", "ambient_dim": 4},
     "layer": {"kind": "seeded_layer", "seed": 3, "activation": "recu"}},
    {"name": "scan", "kind": "discretize-scan", "seed": 3, "samples": 16, "dims": [2, 6],
     "space": {"basis": "abstract_orthonormal", "ambient_dim": 6},
     "layer": {"kind": "seeded_layer", "seed": 3, "lip_g": 0.5, "hidden": [8],
               "activation": "tanh"}},
    # the affine and zero middle maps are one-stage networks folded into their layer
    {"name": "scan-affine", "kind": "discretize-scan", "seed": 3, "samples": 8, "dims": [2, 4],
     "space": {"basis": "abstract_orthonormal", "ambient_dim": 4},
     "layer": {"kind": "seeded_layer", "seed": 3, "nonlin": "affine_contraction",
               "bias_scale": 0.3}},
    {"name": "scan-zero", "kind": "discretize-scan", "seed": 3, "samples": 8, "dims": [2, 4],
     "space": {"basis": "abstract_orthonormal", "ambient_dim": 4},
     "layer": {"kind": "seeded_layer", "seed": 3, "lip_g": 0}},
    {"name": "scan-prefix", "kind": "discretize-scan", "seed": 3, "samples": 8, "dims": [4, 8],
     "space": FOURIER, "layer": PREFIX_NET_LAYER},
    # the identity Nemytskii map is the identity network, bound 1 at any
    # quadrature (2 panels put the Gram's λ_max at 1.07): kappa = 0.5, so the
    # layer is certified and evaluated
    {"name": "identity-coarse", "kind": "monotone-check", "seed": 3, "samples": 8,
     "dims": [2, 8], "space": {"basis": "fourier", "ambient_dim": 8, "quadrature": 2},
     "layer": {"kind": "layer", "in_op": SEEDED_OP,
               "out_op": {"kind": "finite_rank", "omegas": [0.5, 0.25],
                          "psi_seed": 2, "phi_seed": 3},
               "nonlin": {"kind": "nemytskii", "activation": "identity"}}},
    # a negative slope takes leaky_relu's select branch
    {"name": "scan-negative-slope", "kind": "discretize-scan", "seed": 3, "samples": 8,
     "dims": [2, 4], "space": {"basis": "abstract_orthonormal", "ambient_dim": 4},
     "layer": {"kind": "seeded_layer", "seed": 3, "activation": "leaky_relu(-0.5)"}},
    {"name": "quant", "kind": "quant-report", "seed": 1, "samples": 16, "dims": [2, 8],
     "space": FOURIER,
     "layer": {"kind": "layer", "in_op": SEEDED_OP, "out_op": SEEDED_OP,
               "nonlin": {"kind": "zero"}}},
    {"name": "flip", "kind": "decompose", "seed": 0, "epsilon": 0.25, "radius": 1.0,
     "space": {"basis": "abstract_orthonormal", "ambient_dim": 3}, "layer": FLIP_LAYER},
    # kappa = 0.9 on three coordinates: Newton costs less than Banach, so the
    # three path blocks invert by Newton
    {"name": "newton", "kind": "decompose", "seed": 0, "epsilon": 0.25, "radius": 1.0,
     "space": {"basis": "abstract_orthonormal", "ambient_dim": 3},
     "layer": {"kind": "seeded_layer", "seed": 3, "lip_g": 0.9, "activation": "tanh"}},
    # a compressing frame (w_dim 36 of 64): the composite's tail takes a warm start
    {"name": "compressing", "kind": "decompose", "seed": 0, "epsilon": 0.25, "radius": 1.0,
     "space": {"basis": "fourier", "ambient_dim": 64},
     "layer": {"kind": "seeded_layer", "seed": 71, "lip_g": 0.5, "rank": 64, "decay": 2.0,
               "activation": "tanh"}},
    {"name": "ball-local", "kind": "invert", "seed": 0,
     "chain": {"kind": "seeded_chain", "ambient_dim": 8, "prefix_n": 6, "num_blocks": 2,
               "seed": 5, "delta": 0.5, "activation": "recu", "ball_radius": 1.0,
               "bias_scale": 0},
     "head": {"kind": "reflection", "axis_dim": 8}, "y": [0.2] + [0.0] * 7},
    {"name": "explicit", "kind": "invert", "seed": 0,
     "chain": {"kind": "invertible_residual_chain", "delta": 0.5,
               "chain": {"kind": "residual_chain", "ambient_dim": 4, "prefix_n": 4,
                         "blocks": [EXPLICIT_NET, EXPLICIT_NET]}},
     "head": {"kind": "reflection", "e": [0.6, 0.8, 0, 0]}, "y": [0.1, -0.2, 0.3, 0.05]},
    {"name": "plain", "kind": "invert", "seed": 0,
     "chain": {"kind": "seeded_chain", "ambient_dim": 4, "num_blocks": 2, "seed": 9,
               "activation": "groupsort2"},
     "head": {"kind": "identity"}, "y": [0.1, -0.2, 0.3, 0.05]},
    # a second target on the same chain, head and tol: one stacked solve
    {"name": "plain-2", "kind": "invert", "seed": 0,
     "chain": {"kind": "seeded_chain", "ambient_dim": 4, "num_blocks": 2, "seed": 9,
               "activation": "groupsort2"},
     "head": {"kind": "identity"}, "y": [-0.3, 0.0, 0.2, 0.1]},
    {"name": "galerkin", "kind": "nogo-galerkin", "seed": 0, "path_kind": "b", "n": 3,
     "grid": 11},
    {"name": "isotopy", "kind": "nogo-isotopy", "seed": 0, "m": 3, "grid": 11},
    {"name": "fem", "kind": "fem-solve", "seed": 0, "g": "cubic", "mesh": [4, 8]},
]


# two experiments, one of them naming a chain spec, for the fork branch
PAIR = [exp for exp in BATCH if exp["name"] in ("plain", "isotopy")]

# prints every (file, first line) that importing opdisc.cli enters
IMPORT_PROFILE = """
import json, sys
entered = set()
def profile(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
sys.setprofile(profile)
import opdisc.cli
sys.setprofile(None)
print(json.dumps(sorted(entered)))
"""


def _spec_kinds(obj) -> set:
    """The kind of every spec object nested in ``obj``."""
    if isinstance(obj, list):
        return set().union(*map(_spec_kinds, obj))
    if not isinstance(obj, dict):
        return set()
    return set().union({obj["kind"]} if "kind" in obj else set(), *map(_spec_kinds, obj.values()))


def test_the_batch_holds_every_kind():
    # the profile counts only defs, and many spec builds are lambdas
    assert {exp["kind"] for exp in BATCH} == set(cli.RUNNERS)
    tables = (serialize.OPERATORS, serialize.NETWORKS, serialize.NONLINEARITIES,
              serialize.LAYERS, serialize.CHAINS, serialize.HEADS)
    nested = [value for exp in BATCH for key, value in exp.items() if key != "kind"]
    assert _spec_kinds(nested) == set().union(*tables)


def _defs() -> dict:
    """``(file, first line) -> module.qualname`` of every ``def`` in the
    package; a decorated function's code starts at its first decorator."""
    found = {}

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                found[(str(path), first)] = f"{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path, f"{path.stem}.")
    return found


def _is_dunder(qualname: str) -> bool:
    last = qualname.rsplit(".", 1)[-1]
    return last.startswith("__") and last.endswith("__")


def _entered_at_import() -> set:
    """``(file, first line)`` of every code object a fresh interpreter
    enters while it imports ``opdisc.cli``."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROFILE], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return {(str(Path(name).resolve()), line) for name, line in json.loads(done.stdout)}


def _refuse(constant: str):
    raise ValueError(f"{constant} is not strict JSON")


def _load_strict(path: Path):
    """The JSON value in ``path``, refusing NaN, Infinity and -Infinity."""
    try:
        return json.loads(path.read_text(), parse_constant=_refuse)
    except ValueError as err:
        raise AssertionError(f"{path.name}: {err}") from err


def _keys(obj) -> set:
    """Every object key nested in a JSON value."""
    if isinstance(obj, list):
        return set().union(*map(_keys, obj))
    if not isinstance(obj, dict):
        return set()
    return set(obj).union(*map(_keys, obj.values()))


def _estimate_rows(path: Path, blob) -> int:
    """Check the records of one written JSON value; the count of
    ``monotone-check`` rows in it."""
    assert "certified" not in _keys(blob), path.name
    if not (isinstance(blob, dict) and blob.get("kind") == "monotone-check"):
        return 0
    for row in blob.get("scan", []):
        assert set(row) == {"dim", "alpha_hat", "estimate", "estimate_hash"}, path.name
        assert row["estimate_hash"] == serialize.blob_hash(row["estimate"]), path.name
    return len(blob.get("scan", []))


def test_every_function_is_reached(tmp_path, monkeypatch):
    # two CPUs, so that the pair enters the fork branch on a one-CPU machine too
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    config = tmp_path / "batch.json"
    config.write_text(json.dumps({"schema": 1, "experiments": BATCH}))
    pair = tmp_path / "pair.json"
    pair.write_text(json.dumps({"schema": 1, "experiments": PAIR}))
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    runner_pid, real_exit = os.getpid(), os._exit
    child_log = tmp_path / "child-entered.jsonl"

    def exit_and_log(status):
        # a forked child leaves only through os._exit: log what it entered
        if os.getpid() != runner_pid:
            sys.setprofile(None)  # so that logging does not grow the set it reads
            with open(child_log, "a") as out:
                out.write(json.dumps([(c.co_filename, c.co_firstlineno) for c in entered]) + "\n")
        real_exit(status)

    monkeypatch.setattr(os, "_exit", exit_and_log)
    runner = CliRunner()
    sys.setprofile(profile)
    try:
        accept = runner.invoke(main, ["--out", str(tmp_path / "accept"), "accept"])
        batch = runner.invoke(
            main, ["--config", str(config), "--out", str(tmp_path / "batch"), "--jobs", "1"]
        )
        pooled = runner.invoke(
            main, ["--config", str(pair), "--out", str(tmp_path / "pair"), "--jobs", "2"]
        )
    finally:
        sys.setprofile(None)
    assert accept.exit_code == 0, accept.output
    assert batch.exit_code == 0, batch.output
    assert batch.output.count("ok  ") == len(BATCH), batch.output
    assert pooled.exit_code == 0, pooled.output
    assert pooled.output.count("ok  ") == len(PAIR) == 2, pooled.output
    assert json.loads((tmp_path / "batch" / "recu.json").read_text())["contraction"] is None
    rows = sum(_estimate_rows(path, _load_strict(path)) for path in sorted(tmp_path.rglob("*.json")))
    assert rows > 0, "the batch wrote no monotone-check rows"

    resolved = {name: str(Path(name).resolve()) for name in {c.co_filename for c in entered}}
    reached = {(resolved[c.co_filename], c.co_firstlineno) for c in entered}
    reached |= _entered_at_import()
    children = [json.loads(line) for line in child_log.read_text().splitlines()]
    assert len(children) == 1, "the --jobs 2 pair forks one child"
    reached |= {(str(Path(name).resolve()), line) for name, line in children[0]}
    defs = _defs()
    unreached = {name for key, name in defs.items() if key not in reached}
    flagged = sorted(n for n in unreached if not _is_dunder(n) and n not in ALLOWED)
    assert not flagged, (
        "no CLI kind or acceptance criterion reaches these functions; wire each "
        "into a check or delete it:\n  " + "\n  ".join(flagged)
    )
    stale = sorted(n for n in ALLOWED if n not in unreached)
    assert not stale, f"allowlist entries that are reached or no longer defined: {stale}"
