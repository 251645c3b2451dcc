"""Every function, line and branch in ``src/opdisc`` is run by the command line.

The product runs are these invocations, all under ``sys.settrace`` with
opcode events on (``reach_trace.Trace``):

- ``opdisc`` alone (its help), ``opdisc accept`` and ``opdisc accept --only 7``;
- ``opdisc accept --only 7`` with criterion 7 patched to raise a ``StageError``
  (``FAILING_CRITERIA``): the suite reports it, writes ``failures.json`` and
  exits 2;
- ``BATCH`` at ``--jobs 1``, which holds every CLI kind and every spec kind and
  runs in order;
- ``PAIR`` at ``--jobs 2``, which enters the fork branch: its child inherits the
  tracer and writes down what it ran as it leaves through ``os._exit``;
- the subcommand runs (``SUBCOMMANDS``, every kind at least once), with their
  ``--layer``, ``--chain``, ``--y`` and ``--config`` files;
- ``REFUSED``, a malformed config: each experiment trips one value check and
  must end as a config error that says which (exit code 1); one clean
  experiment (``BESIDE_REFUSED``) shares an ``invert`` group with a refused
  one;
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

The branch pass holds every ``if``/``elif`` test, conditional expression,
``while`` test and comprehension ``if`` to it too: each must have been
followed into both its true and its false successor.  The tracer keeps the
``(from, to)`` offsets of every step out of a conditional jump; a jump
belongs to the innermost test that holds the instruction before it, and a
step's destination is followed through straight code until it enters the
test's true arm, another branch or an exit.  So a test is judged whole: the
operands of ``and``/``or``, the links of a chained comparison and the two
compiled copies of a ``while`` test are not separate findings.  The line
pass's exemptions carry over, and an ``if`` whose false arm is a ``raise``
(its ``else``, or the statement after it) is a refusal too.  A one-way test
is named ``module.qualname: snippet``, with the test's own text, and must be
an entry of ``ALLOWED_BRANCHES``, which is kept like ``ALLOWED_LINES``.

Every JSON file these runs write must parse as strict JSON, with no NaN or
Infinity, and must keep its records honest: a sampled estimate is never
called certified, and each ``monotone-check`` row cites its estimate by that
estimate's own hash.
"""

import ast
import dis
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
import reach_trace
from mutate import bodies, ends_in_raise
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
# "module.qualname: snippet" -> (reason, the ROADMAP item or test that owns it)
_PLATFORM = ("a platform arm: Linux has os.fork and os.sched_getaffinity, so no product run "
             "here takes the other way",
             "tests/test_cli.py::test_a_batch_runs_here_without_fork_or_an_affinity_mask")
_NOT_FINITE = ("a passing check whose value is not finite, the -inf of an empty history's "
               "largest step, which no product run's histories are short enough to give",
               "tests/test_acceptance.py::test_a_passing_infinite_value_is_recorded_as_text")
ALLOWED_BRANCHES = {
    "acceptance._check: ... if finite else ...": _NOT_FINITE,
    'cli.run_config: ... if hasattr(os, "fork") else ...': _PLATFORM,
    'cli.run_config: ... if hasattr(os, "sched_getaffinity") else ...': _PLATFORM,
    "decompose.path_blocks: if not bad:": _REFINE,
    "decompose.path_blocks: for ... if (lo, hi) not in measured": _REFINE,
    "decompose.path_blocks: for ... if measured[i].lip_sampled >= 0.97 * epsilon": _REFINE,
}

I3 = np.eye(3).tolist()
IDENTITY_I3 = {"kind": "finite_rank", "omegas": [1, 1, 1], "psi": I3, "phi": I3}
FOURIER = {"basis": "fourier", "ambient_dim": 8}
SEEDED_OP = {"kind": "seeded_finite_rank", "rank": 4, "seed": 1}
# Df(0) = -I: kappa = 2, so decompose picks Newton (its affine core takes the
# linear shortcut and inverts nothing), pairs the flipped directions into
# pi-rotations and needs the reflection A0
FLIP_LAYER = {
    "kind": "layer",
    "in_op": IDENTITY_I3,
    "out_op": IDENTITY_I3,
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
# an orthogonal Q with rational entries
Q3 = np.array([[2, -1, 2], [2, 2, -1], [-1, 2, 2]]) / 3.0
SYMMETRIC_LAYER = {
    "kind": "layer", "in_op": IDENTITY_I3, "out_op": IDENTITY_I3,
    "nonlin": {"kind": "coordinate_net", "ambient_dim": 3,
               "net": {"kind": "coordinate_network",
                       "weights": [Q3.T.tolist(), (1.5 * Q3).tolist()],
                       "biases": [[0, 0, 0], [0, 0, 0]], "activation": "tanh"}},
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
    # kappa = 0.9 on three coordinates: its three path blocks invert by Banach
    # at rate 0.9
    {"name": "newton", "kind": "decompose", "seed": 0, "epsilon": 0.25, "radius": 1.0,
     "space": {"basis": "abstract_orthonormal", "ambient_dim": 3},
     "layer": {"kind": "seeded_layer", "seed": 3, "lip_g": 0.9, "activation": "tanh"}},
    # x + W₂·tanh(W₁x) with W₁ = Qᵀ, W₂ = 1.5·Q: kappa = 1.5 but DF ⪰ I, a
    # strongly monotone layer that does not contract, so its path blocks
    # invert by Newton
    {"name": "symmetric", "kind": "decompose", "seed": 0, "epsilon": 0.25, "radius": 1.0,
     "space": {"basis": "abstract_orthonormal", "ambient_dim": 3}, "layer": SYMMETRIC_LAYER},
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
    # a bias moves f(0) off 0: the scaling path carries the offset t·f(0), and
    # f(0) widens the image and cutoff radii; at this epsilon the first grid
    # step is its cap, 0.5
    {"name": "biased", "kind": "decompose", "seed": 0, "epsilon": 0.4, "radius": 1.0,
     "space": {"basis": "abstract_orthonormal", "ambient_dim": 3},
     "layer": {"kind": "seeded_layer", "seed": 3, "lip_g": 0.5, "activation": "tanh",
               "bias_scale": 0.3}},
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

# a layer spec that names every default: an explicit seeded_finite_rank dim
# and a network whose weights (1e-30) make spectral_norm rescale them first
EXPLICIT_LAYER4 = {
    "kind": "layer",
    "in_op": {"kind": "seeded_finite_rank", "dim": 4, "rank": 2, "seed": 1},
    "out_op": {"kind": "seeded_finite_rank", "dim": 4, "rank": 2, "seed": 2},
    "nonlin": {"kind": "coordinate_net", "ambient_dim": 4,
               "net": {"kind": "coordinate_network", "weights": [(1e-30 * np.eye(2)).tolist()],
                       "biases": [[0.0, 0.0]], "activation": "identity"}},
}
# the files the subcommands read, by the placeholder their arguments name
FILES = {
    "layer": {"schema": 1, "space": SPACE4, "layer": LAYER4},
    "layer-explicit": {"schema": 1, "space": SPACE4, "layer": EXPLICIT_LAYER4},
    # no head: the identity; and a reflection with neither e nor axis_dim,
    # through the first axis of the chain's dimension
    "chain": {"schema": 1, "chain": PLAIN["chain"]},
    "chain-reflected": {"schema": 1, "chain": PLAIN["chain"], "head": {"kind": "reflection"}},
    "y": {"schema": 1, "y": PLAIN["y"]},
    "y-bare": PLAIN["y"],
    # a single-experiment config for a subcommand, carrying its own seed
    "fem": {"schema": 1, "seed": 0, "g": "cubic"},
}
# the arguments after --out of each subcommand run; every kind runs at least once
SUBCOMMANDS = {
    "monotone-check": ["monotone-check", "--layer", "{layer-explicit}", "--seed", "5",
                       "--samples", "8", "--dims", "2,4"],
    "discretize-scan": ["discretize-scan", "--layer", "{layer}", "--seed", "3", "--samples", "8",
                        "--dims", "2,4"],
    "decompose": ["decompose", "--layer", "{layer}", "--seed", "0", "--epsilon", "0.25",
                  "--radius", "1"],
    "invert": ["invert", "--chain", "{chain}", "--y", "{y}", "--seed", "0"],
    "invert-reflected": ["invert", "--chain", "{chain-reflected}", "--y", "{y-bare}",
                         "--seed", "0"],
    "nogo-galerkin": ["nogo-galerkin", "--kind", "b", "--n", "3", "--grid", "11", "--seed", "0"],
    "nogo-isotopy": ["nogo-isotopy", "--m", "3", "--grid", "11", "--bisect-tol", "1e-300",
                     "--seed", "0"],
    # no --seed: the config's seed stands
    "fem-solve": ["--config", "{fem}", "fem-solve", "--mesh", "4,8"],
    "quant-report": ["quant-report", "--layer", "{layer}", "--dims", "2,4", "--samples", "8",
                     "--seed", "1"],
}

# a malformed config: each experiment trips one value check, and its config
# error holds the text given
_SCAN = {"kind": "discretize-scan", "seed": 0, "space": SPACE4, "layer": LAYER4, "dims": [2]}
_FEM = {"kind": "fem-solve", "seed": 0, "g": "cubic", "mesh": [4, 8]}
_GALERKIN = {"kind": "nogo-galerkin", "seed": 0, "path_kind": "a", "n": 3}
_OPS = {"in_op": SEEDED_OP, "nonlin": {"kind": "zero"}}
REFUSED = {
    "dims-empty": ("dims must be nonempty", {**_SCAN, "dims": []}),
    "dims-descending": ("dims must be strictly ascending", {**_SCAN, "dims": [4, 2]}),
    "dims-outside": ("dims must lie in 1..4", {**_SCAN, "dims": [2, 9]}),
    "mesh-single": ("mesh needs at least two strictly increasing cell counts",
                    {**_FEM, "mesh": [8]}),
    "mesh-coarse": ("mesh needs at least 2 cells in its coarsest size", {**_FEM, "mesh": [1, 2]}),
    "mesh-divides": ("mesh sizes must each divide the reference mesh of 40 cells",
                     {**_FEM, "mesh": [3, 5]}),
    "m-even": ("m must be odd and at least 3", {"kind": "nogo-isotopy", "seed": 0, "m": 4}),
    "y-length": ("y must be 4 finite numbers", {**PLAIN, "y": [0.1, 0.2]}),
    # both share chain, head and tol: an invert group whose every read is refused
    "tol-negative": ("tol must be positive and finite", {**PLAIN, "tol": -1.0}),
    "y-text": ("y must be a number array", {**PLAIN, "y": "text", "tol": -1.0}),
    "epsilon-one": ("epsilon must be in (0, 1)",
                    {"kind": "decompose", "seed": 0, "space": SPACE4, "layer": LAYER4,
                     "epsilon": 1.0, "radius": 1.0}),
    "samples-one": ("samples must be at least 2", {**_SCAN, "samples": 1}),
    "samples-zero": ("samples must be at least 1", {**_SCAN, "kind": "quant-report", "samples": 0}),
    "floor-infinite": ("floor must be finite",
                       {**_SCAN, "kind": "monotone-check", "floor": float("inf")}),
    "n-even": ("n must be an odd positive count", {**_GALERKIN, "n": 4}),
    "path-kind": ("path_kind must be 'a' or 'b'", {**_GALERKIN, "path_kind": "c"}),
    "g-unknown": ("g must be one of", {**_FEM, "g": "quartic"}),
    "hidden-zero": ("hidden must each be at least 1",
                    {**_SCAN, "layer": {**LAYER4, "hidden": [0]}}),
    "activation-number": ("unknown activation 3", {**_SCAN, "layer": {**LAYER4, "activation": 3}}),
    "omegas-text": ("omegas must hold numbers, all finite",
                    {**_SCAN, "layer": {"kind": "layer", **_OPS,
                                        "out_op": {"kind": "finite_rank", "omegas": [1, "a"],
                                                   "psi_seed": 2, "phi_seed": 3}}}),
    "omegas-infinite": ("omegas must hold numbers, all finite",
                        {**_SCAN, "layer": {"kind": "layer", **_OPS,
                                            "out_op": {"kind": "finite_rank",
                                                       "omegas": [1, float("inf")],
                                                       "psi_seed": 2, "phi_seed": 3}}}),
}
# an invert experiment that reads cleanly in the group of y-length, so that
# group runs with one refused read; the one artifact the refused config writes
BESIDE_REFUSED = {**PLAIN, "name": "beside-y-length"}
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


def _traced_import() -> list:
    """What a fresh interpreter enters, runs and branches on while it
    imports ``opdisc.cli``."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, reach_trace.__file__, str(SRC)], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout)


class _Runs(NamedTuple):
    results: dict  # invocation name -> click Result
    out: Path
    reached: set  # (file, first line) of every code object entered
    ran: dict  # file -> every line a line event fired on
    steps: dict  # code key -> every (from, to) offset pair out of a conditional jump


def _invocations(tmp: Path, inputs: Path) -> dict:
    """Each product run: its name -> (arguments, the exit code it must end with).
    The runs write under ``tmp``, and the files they read are in ``inputs``."""
    paths = {}
    for name, blob in {**FILES, "batch": {"schema": 1, "experiments": BATCH},
                       "pair": {"schema": 1, "experiments": PAIR},
                       "refused": {"schema": 1, "experiments": [
                           *({**exp, "name": name} for name, (_, exp) in REFUSED.items()),
                           BESIDE_REFUSED]},
                       "failing": {"schema": 1, "experiments": FAILING}}.items():
        paths[name] = inputs / f"{name}.json"
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
    for name, args in SUBCOMMANDS.items():
        runs[name] = (run("subcommands", *(arg.format(**paths) for arg in args)), 0)
    return runs


def _merge(logs) -> tuple[set, dict, dict]:
    """The logged ``[entered, fired, steps]`` triples, merged, with resolved
    file names."""
    reached, ran, steps = set(), {}, {}
    for entered, fired, edges in logs:
        reached |= {(str(Path(key[0]).resolve()), key[1]) for key in entered}
        for name, line in fired:
            ran.setdefault(str(Path(name).resolve()), set()).add(line)
        for (name, *key), pairs in edges:
            steps.setdefault((str(Path(name).resolve()), *key), set()).update(map(tuple, pairs))
    return reached, ran, steps


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runs")
    invocations = _invocations(tmp, tmp_path_factory.mktemp("inputs"))
    trace = reach_trace.Trace(str(SRC))
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
    return _Runs(results, tmp, *_merge([trace.log(), json.loads(children[0]), _traced_import()]))


def _spec_kinds(obj) -> set:
    """The kind of every spec object nested in ``obj``."""
    if isinstance(obj, list):
        return set().union(*map(_spec_kinds, obj))
    if not isinstance(obj, dict):
        return set()
    return set().union({obj["kind"]} if "kind" in obj else set(), *map(_spec_kinds, obj.values()))


def test_the_batch_holds_every_kind():
    # the function pass counts only defs, and many spec builds are lambdas
    kinds = {next(arg for arg in args if arg in cli.RUNNERS) for args in SUBCOMMANDS.values()}
    assert {exp["kind"] for exp in BATCH} == set(cli.RUNNERS) == kinds
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
            for sub, refusal in bodies(stmt):
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


class _Test(NamedTuple):
    node: ast.expr  # the test
    arm: tuple  # (line, column, end line, end column) of what runs when it is true
    name: str  # "module.qualname: snippet"
    exempt: bool


def _span(first: ast.AST, last: ast.AST) -> tuple:
    return first.lineno, first.col_offset, last.end_lineno, last.end_col_offset


def _tests(source: str, module: str, skip=frozenset()) -> list[_Test]:
    """Every ``if``/``elif``/``while`` test, conditional expression test and
    comprehension ``if`` of ``source``, named and marked exempt the way
    :func:`_unrun` marks statements.  An ``if`` with an arm that ends in
    ``raise`` is a refusal, so its test is exempt too; the false arm of an
    ``if`` without ``else`` is the statement after it."""
    text, found = source.splitlines(), []

    def snippet(node: ast.AST) -> str:
        """The node's source text on one line (its columns count UTF-8 bytes)."""
        lines = [line.encode() for line in text[node.lineno - 1 : node.end_lineno]]
        lines[-1] = lines[-1][: node.end_col_offset]
        lines[0] = lines[0][node.col_offset :]
        return " ".join(b" ".join(lines).decode().split())

    def expressions(stmt: ast.stmt, scope: str, exempt: bool) -> None:
        """The tests in ``stmt``'s own expressions, outside the bodies it holds."""
        for field, value in ast.iter_fields(stmt):
            if field in ("body", "orelse", "finalbody", "handlers"):
                continue
            for root in value if isinstance(value, list) else [value]:
                for node in ast.walk(root) if isinstance(root, ast.AST) else ():
                    if isinstance(node, ast.IfExp):
                        name = f"{module}.{scope}: ... if {snippet(node.test)} else ..."
                        found.append(_Test(node.test, _span(node.body, node.body), name, exempt))
                    if not isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                                             ast.DictComp)):
                        continue
                    # a true test runs the next if, the next for's iterable or the element
                    nexts = [part for gen in node.generators for part in (gen.iter, *gen.ifs)][1:]
                    nexts.append(node.key if isinstance(node, ast.DictComp) else node.elt)
                    for gen in node.generators:
                        for test in gen.ifs:
                            after = nexts[nexts.index(test) + 1]
                            found.append(_Test(test, _span(after, after),
                                               f"{module}.{scope}: for ... if {snippet(test)}",
                                               exempt))

    def visit(body: list, scope: str, prefix: str, exempt: bool) -> None:
        for stmt, after in zip(body, [*body[1:], None]):
            inner, inner_prefix = scope, prefix
            is_def = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            if is_def or isinstance(stmt, ast.ClassDef):
                inner = f"{prefix}{stmt.name}"
                inner_prefix = f"{inner}.<locals>." if is_def else f"{inner}."
            quiet = exempt or isinstance(stmt, (ast.Raise, ast.Assert))
            expressions(stmt, scope, quiet)
            if isinstance(stmt, (ast.If, ast.While)):
                # an if without else falls through to the statement after it
                orelse = stmt.orelse or ([after] if after else [])
                refusal = isinstance(stmt, ast.If) and (
                    ends_in_raise(stmt.body) or ends_in_raise(orelse))
                word = text[stmt.lineno - 1][stmt.col_offset:].split(None, 1)[0]
                found.append(_Test(stmt.test, _span(stmt.body[0], stmt.body[-1]),
                                   f"{module}.{scope}: {word} {snippet(stmt.test)}:",
                                   quiet or refusal))
            skipped = is_def and f"{module}.{inner}" in skip
            for sub, refusal in bodies(stmt):
                visit(sub, inner, inner_prefix, exempt or refusal or skipped)

    visit(ast.parse(source).body, "<module>", "", False)
    return found


def _inside(pos, span: tuple) -> bool:
    """Whether an instruction's source position lies within ``span``."""
    return (None not in pos and span[:2] <= (pos.lineno, pos.col_offset)
            and (pos.end_lineno, pos.end_col_offset) <= span[2:])


def _codes(code):
    """``code`` and every code object nested in it."""
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_code"):
            yield from _codes(const)


# where a straight run of code ends without deciding a test: it leaves the
# frame, raises or takes a loop's next item
_ENDS = {"RETURN_VALUE", "RETURN_CONST", "RAISE_VARARGS", "RERAISE", "FOR_ITER", "YIELD_VALUE"}
_GOTOS = {"JUMP_FORWARD", "JUMP_BACKWARD", "JUMP_BACKWARD_NO_INTERRUPT"}


def _sides(code, tests: list[_Test]) -> dict:
    """Where each step out of ``code``'s conditional jumps leads: its
    ``(site, to)`` offsets -> (the test the jump belongs to, True when the
    step enters the test's true successor, False when it enters the false
    one, None when it goes on to another jump of the same test).

    A jump belongs to the innermost test that holds the instruction before
    it, the last one of its operand, so the operands of ``and``/``or``, the
    links of a chained comparison and both compiled copies of a ``while``
    test are one test's jumps.  A step's destination is followed through
    straight code and unconditional jumps: it is the true successor once it
    reaches the first instruction of the test's true arm, and the false one
    once it reaches any other branch, loop or exit first.
    """
    instructions = list(dis.get_instructions(code))
    index = {ins.offset: i for i, ins in enumerate(instructions)}
    owned, site = {}, None  # jump offset -> (the offset its event reports, its test)
    for i, ins in enumerate(instructions):
        site = ins.offset if site is None else site
        if ins.opname == "EXTENDED_ARG":
            continue
        if ins.opcode in reach_trace.JUMPS:
            before = next(b for b in reversed(instructions[:i]) if b.opname != "EXTENDED_ARG")
            holders = [t for t in tests if _inside(before.positions, _span(t.node, t.node))]
            if holders:
                test = max(holders, key=lambda t: (t.node.lineno, t.node.col_offset,
                                                   -t.node.end_lineno, -t.node.end_col_offset))
                owned[ins.offset] = (site, test)
        site = None
    sides = {}
    for test in {id(t): t for _, t in owned.values()}.values():
        jumps = {offset for offset, (_, t) in owned.items() if t is test}
        arm = [ins.offset for ins in instructions
               if ins.offset > min(jumps) and _inside(ins.positions, test.arm)]
        assert arm, f"{test.name}: no instruction of its true arm"

        def side(to: int, jumps=jumps, start=min(arm)):
            seen = set()
            while to not in seen:
                seen.add(to)
                if to == start:
                    return True
                if to in jumps:
                    return None
                ins = instructions[index[to]]
                if ins.opname in _GOTOS:
                    to = ins.argval
                elif ins.opcode in reach_trace.JUMPS or ins.opname in _ENDS:
                    return False
                else:
                    to = instructions[index[to] + 1].offset
            return False

        for offset in jumps:
            ins = instructions[index[offset]]
            for to in (ins.argval, instructions[index[offset] + 1].offset):
                sides[(owned[offset][0], to)] = (test, side(to))
    return sides


def _one_way(source: str, path: Path, module: str, steps: dict, ran: set,
             skip=frozenset()) -> dict:
    """``module.qualname: snippet`` of every test of ``source`` that is not
    exempt and was not followed into both its successors, given the
    ``steps`` out of each code object's jumps and the ``ran`` lines -> the
    side it never took ("true", "false" or "either").  A test that never ran
    is the line pass's finding, unless its line ran."""
    tests = _tests(source, module, skip)
    compiled, taken = set(), {id(t): set() for t in tests}
    for code in _codes(compile(source, str(path), "exec")):
        sides = _sides(code, tests)
        compiled.update(id(test) for test, _ in sides.values())
        for step in steps.get((str(path), *reach_trace.code_key(code)[1:]), ()):
            if step in sides and sides[step][1] is not None:
                taken[id(sides[step][0])].add(sides[step][1])
    found = {}
    for test in tests:
        if id(test) not in compiled:  # a constant test compiles to no jump
            assert isinstance(test.node, ast.Constant), f"{test.name}: no jump of its own"
            continue
        seen = taken[id(test)]
        if test.exempt or seen == {True, False} or (not seen and test.node.lineno not in ran):
            continue
        never = "either" if not seen else "false" if True in seen else "true"
        found[test.name] = never
    return found


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
    written = [path.name for path in (runs.out / "refused").iterdir()]
    assert written == [f"{BESIDE_REFUSED['name']}.json"], "a refused experiment writes nothing"
    errors = dict(re.findall(r"config-error in (\S+): (.*)", runs.results["refused"].output))
    assert set(errors) == set(REFUSED)
    for name, (text, _) in REFUSED.items():
        assert text in errors[name], name


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


def _verdict(one_way: dict, allowed: dict) -> tuple[list, list]:
    """The one-way tests ``allowed`` does not name, each with the side it
    never took, and the entries of ``allowed`` that name no one-way test."""
    flagged = [f"{name}  (never {one_way[name]})" for name in sorted(set(one_way) - set(allowed))]
    return flagged, sorted(set(allowed) - set(one_way))


def test_every_branch_is_taken(runs):
    one_way = {}
    for path in sorted(SRC.glob("*.py")):
        one_way.update(_one_way(path.read_text(), path, path.stem, runs.steps,
                                runs.ran.get(str(path), set()), skip=set(ALLOWED)))
    flagged, stale = _verdict(one_way, ALLOWED_BRANCHES)
    assert not flagged, (
        "no CLI kind or acceptance criterion takes both ways of these tests; reach "
        "the other way from a batch entry or a criterion, or delete the test:\n  "
        + "\n  ".join(flagged)
    )
    assert not stale, f"ALLOWED_BRANCHES entries that name no one-way test: {stale}"


def test_the_branch_pass_names_each_one_way_test(tmp_path):
    source = (
        "def f(x, y, w):\n"
        "    if x > 0:\n"
        "        y = -y\n"
        "    z = 1 if w else 2\n"
        "    if x > 1 and y:\n"
        "        z += 1\n"
        "    if x > 5:\n"
        "        raise ValueError(x)\n"
        "    return [v for v in range(x) if v % 2]\n"
    )
    path = tmp_path.resolve() / "m.py"
    path.write_text(source)
    namespace = {}
    exec(compile(source, str(path), "exec"), namespace)
    trace = reach_trace.Trace(str(path.parent))
    sys.settrace(trace)
    try:
        # x > 0 and w hold in both calls, so do y and the refusal's x <= 5;
        # x > 1 and y, and the comprehension's v % 2, go both ways
        namespace["f"](1, 1, True)
        namespace["f"](2, 1, True)
    finally:
        sys.settrace(None)
    _, ran, steps = _merge([trace.log()])
    one_way = _one_way(source, path, "m", steps, ran[str(path)])
    assert one_way == {"m.f: if x > 0:": "false", "m.f: ... if w else ...": "false"}
    gone = {"m.f: if x > 9:": ("a test that was deleted", "ROADMAP item 30")}
    flagged, stale = _verdict(one_way, {"m.f: if x > 0:": gone["m.f: if x > 9:"], **gone})
    assert flagged == ["m.f: ... if w else ...  (never false)"]
    assert stale == ["m.f: if x > 9:"]


def test_each_allowed_line_has_a_reason_and_an_owner():
    for line, (reason, owner) in {**ALLOWED_LINES, **ALLOWED_BRANCHES}.items():
        assert reason and re.fullmatch(r"ROADMAP item \d+|tests/test_\w+\.py::\w+", owner), line
