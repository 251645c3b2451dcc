"""Every function and every line in ``src/opdisc`` is run by the command line.

The product runs are these invocations, all under ``sys.settrace``:

- ``opdisc`` alone (its help), ``opdisc accept`` and ``opdisc accept --only 7``;
- ``opdisc accept --only 7`` with criterion 7 patched to raise a ``StageError``
  (``FAILING_CRITERIA``): the suite reports it, writes ``failures.json`` and
  exits 2;
- ``BATCH`` at ``--jobs 1``, which holds every CLI kind and every spec kind and
  runs in order;
- ``PAIR`` at ``--jobs 2``, which enters the fork branch: its child inherits the
  tracer and writes down what it ran as it leaves through ``os._exit``;
- one subcommand per kind (``SUBCOMMANDS``), with its ``--layer``, ``--chain``
  and ``--y`` files;
- ``REFUSED``, a malformed config: each experiment trips one value check and
  must end as a config error naming its key (exit code 1);
- ``FAILING`` at ``--seed 5``: a ``monotone-check`` whose floor is above its
  sampled alpha, and an ``invert`` group whose stacked solve fails, so each of
  its experiments runs alone (exit code 2, with ``failures.json``).

``import opdisc.cli`` is traced too, in a fresh interpreter with the hook
installed before the import, so what runs only at import counts as run.

A ``def`` that none of these enters is code no CLI kind or acceptance
criterion reaches: wire it into a check or delete it.  Lambdas and
comprehensions are not counted, and dunders are left to the line pass.  Only
the entries of ``ALLOWED`` may stay unreached, each for the reason it gives.

The line pass holds every statement to the same rule.  A statement has run
when a line event fired on one of its own lines (its lines less those of the
statements it holds) or when a statement it holds has run.  These are exempt,
read from the AST and never listed by hand: ``raise`` and ``assert``
statements; an ``if`` or ``else`` body whose last statement is a ``raise`` (a
refusal, with the lines that build its message); ``except`` handler bodies;
docstrings and class-body lines; and the bodies of the functions in
``ALLOWED``.  An unrun statement is named ``module.qualname: snippet``, and an
unrun compound statement is named alone, without the statements it holds.
Each must be an entry of ``ALLOWED_LINES``, keyed the same way because line
numbers drift, with its reason and the ROADMAP item or test that owns it; an
entry that names no unrun statement is stale and fails too.  No line is ever
exempted to make this test pass: an unrun line is reached from a batch entry
or a criterion, or deleted.

Every JSON file these runs write must parse as strict JSON, with no NaN or
Infinity, and must keep its records honest: a sampled estimate is never
called certified, and each ``monotone-check`` row cites its estimate by that
estimate's own hash.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from click.testing import CliRunner

import opdisc
from opdisc import acceptance, cli, serialize
from opdisc.cli import main
from opdisc.spectral import StageError

SRC = Path(opdisc.__file__).resolve().parent

_TRACER = ("read only by bench/tracer.py, until its counts come from the run itself "
           "(ROADMAP item 1, step B)")
ALLOWED = {
    "decompose.TailBlock.alpha": _TRACER,
    "decompose.ScalingPath.alpha": _TRACER,
    "invert.InversionTrace.total_iterations": _TRACER,
    "galerkin.NewtonTrace.iterations": _TRACER,
}

# "module.qualname: snippet" -> (reason, the ROADMAP item or test that owns it)
_REFINE = ("path_blocks' t-grid refinement: no product run refines its first grid, and "
           "structural block certificates delete the loop", "ROADMAP item 10")
ALLOWED_LINES = {
    "decompose.path_blocks: for b in bad:": _REFINE,
    "decompose.path_blocks: ts = sorted(set(ts))": _REFINE,
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
TANH_NET = {"kind": "seeded_coordinate_network", "n_in": 3, "n_out": 3, "seed": 7,
            "target_bound": 0.5, "activation": "tanh"}
HALF_I3 = {"kind": "finite_rank", "omegas": [0.5, 0.5, 0.5], "psi": I3, "phi": I3}
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
    # no singular value reaches decompose's threshold h, so the frame W is
    # empty; the rank-0 in_op is the zero map, so the layer is the identity
    # and its factorization has no block
    {"name": "near-identity", "kind": "decompose", "seed": 0, "epsilon": 0.25, "radius": 1.0,
     "space": {"basis": "abstract_orthonormal", "ambient_dim": 3},
     "layer": {"kind": "layer", "in_op": {"kind": "seeded_finite_rank", "rank": 0, "seed": 1},
               "out_op": {"kind": "finite_rank", "omegas": [0.01], "psi_seed": 2, "phi_seed": 3},
               "nonlin": {"kind": "coordinate_net", "ambient_dim": 3, "net": TANH_NET}}},
    # a network on two of three coordinates: the core map evaluates it on a prefix
    {"name": "prefix-core", "kind": "decompose", "seed": 0, "epsilon": 0.25, "radius": 1.0,
     "space": {"basis": "abstract_orthonormal", "ambient_dim": 3},
     "layer": {"kind": "layer", "in_op": HALF_I3, "out_op": HALF_I3,
               "nonlin": {"kind": "coordinate_net", "ambient_dim": 3,
                          "net": {**TANH_NET, "n_in": 2, "n_out": 2}}}},
    # zero blocks have rate 0: each block's first step is exact
    {"name": "zero-blocks", "kind": "invert", "seed": 0,
     "chain": {"kind": "seeded_chain", "ambient_dim": 4, "num_blocks": 2, "seed": 9,
               "block_bound": 0}, "y": [0.1, -0.2, 0.3, 0.05]},
    # a seeded layer whose middle map is the Nemytskii map of its quadrature grid
    {"name": "nemytskii-seeded", "kind": "discretize-scan", "seed": 3, "samples": 8,
     "dims": [2, 4], "space": FOURIER,
     "layer": {"kind": "seeded_layer", "seed": 3, "nonlin": "nemytskii"}},
]


# two experiments, one of them naming a chain spec, for the fork branch
PAIR = [exp for exp in BATCH if exp["name"] in ("plain", "isotopy")]

SPACE4 = {"basis": "abstract_orthonormal", "ambient_dim": 4}
LAYER4 = {"kind": "seeded_layer", "seed": 3, "lip_g": 0.5}
PLAIN = next(exp for exp in BATCH if exp["name"] == "plain")
BALL = next(exp for exp in BATCH if exp["name"] == "ball-local")

# the files the subcommands read, by the placeholder their flags name
FILES = {
    "layer": {"schema": 1, "space": SPACE4, "layer": LAYER4},
    "chain": {"schema": 1, "chain": PLAIN["chain"], "head": PLAIN["head"]},
    "y": {"schema": 1, "y": PLAIN["y"]},
}
SUBCOMMANDS = {
    "monotone-check": ["--layer", "{layer}", "--seed", "5", "--samples", "8", "--dims", "2,4"],
    "discretize-scan": ["--layer", "{layer}", "--seed", "3", "--samples", "8", "--dims", "2,4"],
    "decompose": ["--layer", "{layer}", "--seed", "0", "--epsilon", "0.25", "--radius", "1"],
    "invert": ["--chain", "{chain}", "--y", "{y}", "--seed", "0"],
    "nogo-galerkin": ["--kind", "b", "--n", "3", "--grid", "11", "--seed", "0"],
    "nogo-isotopy": ["--m", "3", "--grid", "11", "--bisect-tol", "1e-300", "--seed", "0"],
    "fem-solve": ["--g", "cubic", "--mesh", "4,8", "--seed", "0"],
    "quant-report": ["--layer", "{layer}", "--dims", "2,4", "--samples", "8", "--seed", "1"],
}

# a malformed config: each experiment trips one value check, and its
# config error reads "{key} {fault}"
_SCAN = {"kind": "discretize-scan", "seed": 0, "space": SPACE4, "layer": LAYER4}
_FEM = {"kind": "fem-solve", "seed": 0, "g": "cubic"}
REFUSED = {
    "dims-empty": ("dims", "must be nonempty", {**_SCAN, "dims": []}),
    "dims-descending": ("dims", "must be strictly ascending", {**_SCAN, "dims": [4, 2]}),
    "dims-outside": ("dims", "must lie in 1..4", {**_SCAN, "dims": [2, 9]}),
    "mesh-single": ("mesh", "needs at least two strictly increasing cell counts",
                    {**_FEM, "mesh": [8]}),
    "mesh-coarse": ("mesh", "needs at least 2 cells in its coarsest size",
                    {**_FEM, "mesh": [1, 2]}),
    "mesh-divides": ("mesh", "sizes must each divide the reference mesh of 40 cells",
                     {**_FEM, "mesh": [3, 5]}),
    "m-even": ("m", "must be odd and at least 3", {"kind": "nogo-isotopy", "seed": 0, "m": 4}),
    "y-length": ("y", "must be 4 finite numbers", {**PLAIN, "y": [0.1, 0.2]}),
    "omegas-text": ("omegas", "must hold numbers, all finite",
                    {**_SCAN, "dims": [2],
                     "layer": {"kind": "layer", "in_op": SEEDED_OP, "nonlin": {"kind": "zero"},
                               "out_op": {"kind": "finite_rank", "omegas": [1, "a"],
                                          "psi_seed": 2, "phi_seed": 3}}}),
}
# experiments that run and fail: a floor above every sampled alpha of a layer
# with contraction 0.5 (alpha <= 1.5), and a ball-local group whose far target
# leaves the ball, so the stacked solve fails and each target is solved alone
FAILING = [
    {"name": "high-floor", "kind": "monotone-check", "seed": 0, "samples": 8, "dims": [2, 4],
     "floor": 1.6, "space": SPACE4, "layer": LAYER4},
    {**BALL, "name": "ball-near"},
    {**BALL, "name": "ball-far", "y": [10.0] + [0.0] * 7},
]



def _broken_criterion():
    raise StageError("scan", "a criterion patched to fail")


# the suite with criterion 7 failing, for the accept run that exits 2
FAILING_CRITERIA = tuple(
    (num, name, _broken_criterion if num == 7 else fn) for num, name, fn in acceptance.CRITERIA
)


class _Trace:
    """A ``sys.settrace`` hook that keeps the code objects entered and the
    ``(file, line)`` line events fired in ``src/opdisc``."""

    def __init__(self) -> None:
        self.entered, self.fired, self._ours = set(), set(), {}

    def __call__(self, frame, event, arg):
        name = frame.f_code.co_filename
        ours = self._ours.get(name)
        if ours is None:
            ours = self._ours[name] = Path(name).resolve().parent == SRC
        if not ours:
            return None
        self.entered.add(frame.f_code)
        return self.line

    def line(self, frame, event, arg):
        if event == "line":
            self.fired.add((frame.f_code.co_filename, frame.f_lineno))
        return self.line

    def log(self) -> list:
        return [[(c.co_filename, c.co_firstlineno) for c in self.entered], sorted(self.fired)]


# prints what importing opdisc.cli enters and runs in src/opdisc (argv[1]):
# [[file, first line] of each code object, [file, line] of each line event]
IMPORT_TRACE = """
import json, os, sys
src, ours, entered, fired = sys.argv[1], {}, set(), set()
def line(frame, event, arg):
    if event == "line":
        fired.add((frame.f_code.co_filename, frame.f_lineno))
    return line
def trace(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in ours:
        ours[name] = os.path.dirname(os.path.realpath(name)) == src
    if not ours[name]:
        return None
    entered.add((name, frame.f_code.co_firstlineno))
    return line
sys.settrace(trace)
import opdisc.cli
sys.settrace(None)
print(json.dumps([sorted(entered), sorted(fired)]))
"""


def _traced_import() -> list:
    """What a fresh interpreter enters and runs while it imports ``opdisc.cli``."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_TRACE, str(SRC)], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout)


class _Runs(NamedTuple):
    results: dict  # invocation name -> click Result
    out: Path
    reached: set  # (file, first line) of every code object entered
    ran: dict  # file -> every line a line event fired on


def _invocations(tmp: Path) -> dict:
    """Each product run: its name -> (arguments, the exit code it must end with)."""
    paths = {}
    for name, blob in {**FILES, "batch": {"schema": 1, "experiments": BATCH},
                       "pair": {"schema": 1, "experiments": PAIR},
                       "refused": {"schema": 1, "experiments": [
                           {**exp, "name": name} for name, (_, _, exp) in REFUSED.items()]},
                       "failing": {"schema": 1, "experiments": FAILING}}.items():
        paths[name] = tmp / f"{name}.json"
        paths[name].write_text(json.dumps(blob))

    def run(name: str, *args: str) -> list:
        return ["--out", str(tmp / name), *args]

    runs = {
        "help": ([], 0),
        "accept": (run("accept", "accept"), 0),
        "accept-only": (run("accept-only", "accept", "--only", "7"), 0),
        "accept-failing": (run("accept-failing", "accept", "--only", "7"), 2),
        "batch": (run("batch", "--config", str(paths["batch"]), "--jobs", "1"), 0),
        "pair": (run("pair", "--config", str(paths["pair"]), "--jobs", "2"), 0),
        "refused": (run("refused", "--config", str(paths["refused"])), 1),
        "failing": (run("failing", "--config", str(paths["failing"]), "--seed", "5"), 2),
    }
    for kind, flags in SUBCOMMANDS.items():
        runs[kind] = (run("subcommands", kind, *(f.format(**paths) for f in flags)), 0)
    return runs


def _normal(log) -> tuple[set, dict]:
    """A logged ``[entered, fired]`` pair with resolved file names."""
    entered, fired = log
    reached = {(str(Path(name).resolve()), line) for name, line in entered}
    ran: dict = {}
    for name, line in fired:
        ran.setdefault(str(Path(name).resolve()), set()).add(line)
    return reached, ran


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runs")
    invocations = _invocations(tmp)
    trace = _Trace()
    runner_pid, real_exit = os.getpid(), os._exit
    child_log = tmp / "child-trace.jsonl"

    def exit_and_log(status):
        # a forked child leaves only through os._exit: log what it ran
        if os.getpid() != runner_pid:
            sys.settrace(None)
            with open(child_log, "a") as out:
                out.write(json.dumps(trace.log()) + "\n")
        real_exit(status)

    runner = CliRunner()
    with pytest.MonkeyPatch.context() as patch:
        # two CPUs, so that the pair enters the fork branch on a one-CPU machine too
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        patch.setattr(os, "_exit", exit_and_log)
        sys.settrace(trace)
        try:
            results = {}
            for name, (args, _) in invocations.items():
                with pytest.MonkeyPatch.context() as failing:
                    if name == "accept-failing":
                        failing.setattr(acceptance, "CRITERIA", FAILING_CRITERIA)
                    results[name] = runner.invoke(main, args)
        finally:
            sys.settrace(None)
    for name, (_, code) in invocations.items():
        assert results[name].exit_code == code, (name, results[name].output)
    children = child_log.read_text().splitlines()
    assert len(children) == 1, "the --jobs 2 pair forks one child"
    reached, ran = _normal(trace.log())
    for log in (json.loads(children[0]), _traced_import()):
        more_reached, more_ran = _normal(log)
        reached |= more_reached
        for name, lines in more_ran.items():
            ran.setdefault(name, set()).update(lines)
    return _Runs(results, tmp, reached, ran)


def _spec_kinds(obj) -> set:
    """The kind of every spec object nested in ``obj``."""
    if isinstance(obj, list):
        return set().union(*map(_spec_kinds, obj))
    if not isinstance(obj, dict):
        return set()
    return set().union({obj["kind"]} if "kind" in obj else set(), *map(_spec_kinds, obj.values()))


def test_the_batch_holds_every_kind():
    # the function pass counts only defs, and many spec builds are lambdas
    assert {exp["kind"] for exp in BATCH} == set(cli.RUNNERS) == set(SUBCOMMANDS)
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


def _ends_in_raise(body: list) -> bool:
    return bool(body) and isinstance(body[-1], ast.Raise)


def _bodies(stmt: ast.stmt) -> list[tuple[list, bool]]:
    """The statement lists ``stmt`` holds, each with whether it is exempt: a
    refusal (an ``if`` or ``else`` body ending in ``raise``) or a handler."""
    if isinstance(stmt, ast.If):
        return [(stmt.body, _ends_in_raise(stmt.body)), (stmt.orelse, _ends_in_raise(stmt.orelse))]
    bodies = [(getattr(stmt, field, []), False) for field in ("body", "orelse", "finalbody")]
    return bodies + [(handler.body, True) for handler in getattr(stmt, "handlers", [])]


def _unrun(source: str, module: str, ran: set, skip=frozenset()) -> list[str]:
    """``module.qualname: snippet`` of every statement of ``source`` that is
    not exempt and has not run, given the ``ran`` lines; an unrun compound
    statement is named alone.  The bodies of the functions named in ``skip``
    are exempt."""
    text = source.splitlines()
    unrun = []

    def visit(body: list, scope: str, prefix: str, exempt: bool, in_class: bool) -> bool:
        """Name the unrun statements of ``body``, whose lines belong to
        ``scope``; whether any of it ran."""
        any_ran = False
        for stmt in body:
            inner, inner_prefix, inner_class = scope, prefix, in_class
            is_def = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            if is_def or isinstance(stmt, ast.ClassDef):
                inner = f"{prefix}{stmt.name}"
                inner_prefix = f"{inner}.<locals>." if is_def else f"{inner}."
                inner_class = not is_def
            skipped = is_def and f"{module}.{inner}" in skip
            held, mark, inner_ran = set(), len(unrun), False
            for sub, refusal in _bodies(stmt):
                held.update(n for child in sub for n in range(child.lineno, child.end_lineno + 1))
                inner_ran |= visit(sub, inner, inner_prefix, exempt or refusal or skipped,
                                   inner_class)
            first = min([d.lineno for d in getattr(stmt, "decorator_list", [])] + [stmt.lineno])
            if inner_ran or ran & (set(range(first, stmt.end_lineno + 1)) - held):
                any_ran = True
                continue
            del unrun[mark:]  # an unrun statement is named alone
            quiet = (exempt or in_class or isinstance(stmt, (ast.Raise, ast.Assert))
                     or isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
            if not quiet:
                unrun.append(f"{module}.{scope}: {text[stmt.lineno - 1].strip()}")
        return any_ran

    visit(ast.parse(source).body, "<module>", "", False, False)
    return unrun


def test_the_line_pass_names_each_unrun_statement():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        message = f'bad {x}'\n"
        "        raise ValueError(message)\n"
        "    if x > 1:\n"
        "        for _ in range(x):\n"
        "            x -= 1\n"
        "        return x\n"
        "    try:\n"
        "        return 1 / x\n"
        "    except ZeroDivisionError:\n"
        "        return 0\n"
    )
    assert _unrun(source, "m", ran={1, 2, 5, 9, 10}) == ["m.f: for _ in range(x):", "m.f: return x"]
    assert _unrun(source, "m", ran={1}, skip={"m.f"}) == []


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


def test_every_written_file_is_strict_json_and_honest(runs):
    assert runs.results["batch"].output.count("ok  ") == len(BATCH)
    assert runs.results["pair"].output.count("ok  ") == len(PAIR) == 2
    assert json.loads((runs.out / "batch" / "recu.json").read_text())["contraction"] is None
    written = sorted(runs.out.rglob("*.json"))
    rows = sum(_estimate_rows(path, _load_strict(path)) for path in written)
    assert rows > 0, "the batch wrote no monotone-check rows"


def test_a_malformed_config_is_refused_key_by_key(runs):
    assert not (runs.out / "refused").exists(), "a refused experiment writes nothing"
    errors = dict(re.findall(r"config-error in (\S+): (.*)", runs.results["refused"].output))
    assert set(errors) == set(REFUSED)
    for name, (key, fault, _) in REFUSED.items():
        assert f"{key} {fault}" in errors[name], name


def test_a_failed_check_is_recorded_with_its_stage(runs):
    failed = _load_strict(runs.out / "failing" / "failures.json")["failed"]
    assert {o["name"]: o["stage"] for o in failed} == {"high-floor": "floor", "ball-far": "invert"}
    high = _load_strict(runs.out / "failing" / "high-floor.json")
    assert high["seed"] == 5 and high["alpha_min"] < high["floor"] == 1.6
    assert (runs.out / "failing" / "ball-near.json").exists()



def test_a_failed_criterion_is_recorded_with_its_stage(runs):
    assert "FAIL  criterion  7" in runs.results["accept-failing"].output
    failed = _load_strict(runs.out / "accept-failing" / "failures.json")["failed"]
    assert [(r["criterion"], r["detail"]) for r in failed] == [
        (7, {"error": "StageError: [scan] a criterion patched to fail", "stage": "scan"})
    ]


def test_every_function_is_reached(runs):
    unreached = {name for key, name in _defs().items() if key not in runs.reached}
    flagged = sorted(n for n in unreached if not _is_dunder(n) and n not in ALLOWED)
    assert not flagged, (
        "no CLI kind or acceptance criterion reaches these functions; wire each "
        "into a check or delete it:\n  " + "\n  ".join(flagged)
    )
    stale = sorted(n for n in ALLOWED if n not in unreached)
    assert not stale, f"allowlist entries that are reached or no longer defined: {stale}"


def test_every_line_is_run(runs):
    unrun = []
    for path in sorted(SRC.glob("*.py")):
        ran = runs.ran.get(str(path), set())
        unrun += _unrun(path.read_text(), path.stem, ran, skip=set(ALLOWED))
    flagged = sorted(set(unrun) - set(ALLOWED_LINES))
    assert not flagged, (
        "no CLI kind or acceptance criterion runs these lines; reach each from a "
        "batch entry or a criterion, or delete it:\n  " + "\n  ".join(flagged)
    )
    stale = sorted(set(ALLOWED_LINES) - set(unrun))
    assert not stale, f"ALLOWED_LINES entries that name no unrun line: {stale}"


def test_each_allowed_line_has_a_reason_and_an_owner():
    for line, (reason, owner) in ALLOWED_LINES.items():
        assert reason and re.fullmatch(r"ROADMAP item \d+|tests/test_\w+\.py::\w+", owner), line
