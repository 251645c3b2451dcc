"""Every exported name resolves and is used, and so does every hook the
benchmark tracer wraps or probes: a hook whose target was renamed or deleted
would make its per-layer metric read 0 without any error.  Every float
argument guard refuses NaN and infinities as well as its out-of-range
values, by the argument's name.  Only StageError writes a ``[stage] `` prefix."""

import ast
import collections
import importlib
import importlib.util
import inspect
import re
import textwrap
from pathlib import Path

import numpy as np
import pytest

import opdisc
from opdisc.acceptance import mixing_bilipschitz_layer
from opdisc.decompose import choose_w, decompose, linear_path_blocks, path_blocks
from opdisc.galerkin import ConvexNonlinearity, FemMesh, solve_semilinear_trace
from opdisc.invert import (
    InversionTrace,
    banach_solve,
    invert_chain,
    newton_solve,
)
from opdisc.layers import (
    CoordinateNetwork,
    NeuralOperatorLayer,
    ResidualChain,
    affine_nonlinearity,
    central_differences,
    make_layer,
)
from opdisc.monotone import ball_samples
from opdisc.operators import FiniteRankOperator, scaled_leaky
from opdisc.spectral import BasisSpec, Space, sign_crossings

MODULES = (
    "acceptance",
    "cli",
    "decompose",
    "discretize",
    "galerkin",
    "invert",
    "isotopy",
    "layers",
    "monotone",
    "operators",
    "serialize",
    "spectral",
)

TRACER_PATH = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("opdisc_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()
HOOKS = sorted({name for members in TRACER.GROUPS.values() for name in members})


def _probed_names(source: str) -> list[str]:
    """Names the tracer counts outside GROUPS: its ``name == "..."`` and
    ``name in ("...", ...)`` probe sites and its ``calls("...")`` metrics."""
    names = set(re.findall(r'name == "([\w.]+)"', source))
    names |= set(re.findall(r'calls\("([\w.]+)"\)', source))
    for group in re.findall(r"name in \(([^)]*)\)", source):
        names |= set(re.findall(r'"([\w.]+)"', group))
    return sorted(names)


PROBES = _probed_names(TRACER_PATH.read_text())

# Probed names whose target is gone, so the metric they feed reads 0.
STALE_PROBES = {
    "galerkin.FemMesh.hat_values": "the dense hat matrices were replaced by "
    "per-cell quadrature, so galerkin.hats_mb reads 0",
}

# Group members whose target is gone; the group's other members still count.
STALE_HOOKS = {
    "layers.InvertibleResidualChain.seeded": "the certified chain is a ResidualChain "
    "with a delta, built by layers.ResidualChain.seeded",
}


def _resolve(dotted: str):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"opdisc.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_package_exports_resolve():
    missing = [name for name in opdisc.__all__ if not hasattr(opdisc, name)]
    assert missing == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve(module):
    mod = importlib.import_module(f"opdisc.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def _loaded_names(src: Path) -> set[str]:
    """Every name the package's code reads: ``Name`` and ``Attribute`` nodes
    in load context.  Imports, definitions and assignments do not count."""
    names = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def test_every_export_is_used_in_src():
    """A module export that no code in the package reads is dead, unless it
    is part of the package's own public API."""
    used = _loaded_names(Path(opdisc.__file__).resolve().parent)
    unused = [
        f"{module}.{name}"
        for module in MODULES
        for name in getattr(importlib.import_module(f"opdisc.{module}"), "__all__", ())
        if name not in used and name not in opdisc.__all__
    ]
    assert unused == []


def _unused_imports(path: Path) -> list[str]:
    """Names an import in ``path`` binds that its module never loads (an
    ``ast.Name`` in load context) and does not list in ``__all__``."""
    tree = ast.parse(path.read_text())
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    loaded = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    return sorted(f"{path.stem}.{name}" for name in set(bound) - loaded - exported)


def test_every_import_is_used():
    src = Path(opdisc.__file__).resolve().parent
    unused = [name for path in sorted(src.glob("*.py")) for name in _unused_imports(path)]
    assert unused == []


def _compares_with_zero(test: ast.expr) -> bool:
    """Whether ``test``, alone or inside an ``and`` or ``or``, compares
    against the float literal ``0.0`` with ``<`` or ``<=``."""
    if isinstance(test, ast.BoolOp):
        return any(_compares_with_zero(value) for value in test.values)
    if not isinstance(test, ast.Compare):
        return False
    return any(isinstance(op, (ast.Lt, ast.LtE)) for op in test.ops) and any(
        isinstance(operand, ast.Constant) and type(operand.value) is float
        and operand.value == 0.0
        for operand in (test.left, *test.comparators)
    )


def test_float_guards_refuse_nan():
    """An argument guard written ``x <= 0.0`` or ``x < 0.0`` lets NaN (and
    +inf) through; a guard that raises is written ``not 0.0 < x < math.inf``
    or a similar range test, which NaN fails."""
    src = Path(opdisc.__file__).resolve().parent
    found = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.If) and _compares_with_zero(node.test)
        and any(isinstance(statement, ast.Raise) for statement in node.body)
    ]
    assert found == []


def test_only_stage_error_writes_a_stage_prefix():
    """A message that opens with ``[stage] `` is written by StageError from
    its ``stage`` field, never by hand, so failures.json can read the field:
    no string constant in the package, an f-string's literal parts
    included, opens that way."""
    src = Path(opdisc.__file__).resolve().parent
    found = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and re.match(r"\[[a-z_]+\] ", node.value)
    ]
    assert found == []


_LAYER = make_layer(Space(BasisSpec(ambient_dim=8)))

# (the argument a guard names, a call passing it a value, a value out of range)
GUARDS = {
    "choose_w": ("h", lambda v: choose_w(make_layer(Space(BasisSpec(ambient_dim=8))), v), -1.0),
    "linear_path_blocks": ("epsilon", lambda v: linear_path_blocks(np.diag([2.0, 3.0]), v), 2.0),
    "path_blocks-epsilon": (
        "epsilon", lambda v: path_blocks(None, epsilon=v, r1=1.0, c0=0.5, c1=1.5, kappa=0.5), 2.0),
    "path_blocks-r1": (
        "r1", lambda v: path_blocks(None, epsilon=0.2, r1=v, c0=0.5, c1=1.5, kappa=0.5), 0.0),
    "path_blocks-c1": (
        "c1", lambda v: path_blocks(None, epsilon=0.2, r1=1.0, c0=0.5, c1=v, kappa=0.5), 0.4),
    "path_blocks-kappa": (
        "kappa", lambda v: path_blocks(None, epsilon=0.2, r1=1.0, c0=0.5, c1=1.5, kappa=v), -1.0),
    "network-target_bound": (
        "target_bound", lambda v: CoordinateNetwork.seeded(3, 3, target_bound=v), -1.0),
    "sign_crossings": (
        "tol", lambda v: next(sign_crossings(lambda t: t - 0.5, [0.0, 1.0], [-0.5, 0.5], v)), 0.0),
    "ball_samples": ("r", lambda v: ball_samples(3, v, 2), -1.0),
    "solve_semilinear_trace": ("tol", lambda v: solve_semilinear_trace(
        lambda t: 0.0 * t, FemMesh(4), ConvexNonlinearity.zero(), tol=v), -1.0),
    "chain-delta": ("delta", lambda v: ResidualChain.seeded(4, 4, 1, delta=v), -0.5),
    "chain-ball_radius": (
        "ball_radius", lambda v: ResidualChain.seeded(4, 4, 1, delta=0.5, ball_radius=v), -1.0),
    "InversionTrace": ("tol", lambda v: InversionTrace((2,), (1e-12,), ((0.1, 0.04),), (40,),
                                                        (0.5,), v), 0.0),
    "banach_solve": ("tol", lambda v: banach_solve(lambda x: 0.5 * x, np.ones(2), 0.5, v), 0.0),
    "newton_solve": ("tol", lambda v: newton_solve(
        lambda x, rows: (x, np.abs(x[:, 0]), np.abs(x[:, 0])), lambda x, res: res,
        np.ones((1, 1)), v, "newton"), -1.0),
    "central_differences": (
        "h", lambda v: central_differences(np.sin, np.zeros(2), np.eye(2), v), -1e-5),
    "decompose": ("n_verify", lambda v: decompose(_LAYER, 0.25, 1.0, n_verify=v), 0),
    "make_layer": ("lip_g", lambda v: make_layer(Space(BasisSpec(ambient_dim=8)), lip_g=v), -1.0),
    "scaled_leaky": ("scale", scaled_leaky, -1.0),
}


@pytest.mark.parametrize("site", list(GUARDS))
@pytest.mark.parametrize("value", ["nan", "inf", "out-of-range"])
def test_a_guard_refuses_nan_inf_and_out_of_range_by_name(site, value):
    name, call, bad = GUARDS[site]
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        call(bad if value == "out-of-range" else float(value))


def test_one_newton_step_budget():
    """The package's one damped Newton loop owns the one step budget:
    ``NEWTON_STEPS`` is assigned once in the package, in ``invert``."""
    src = Path(opdisc.__file__).resolve().parent
    sites = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in getattr(node, "targets", [getattr(node, "target", None)])
        if isinstance(target, ast.Name) and target.id == "NEWTON_STEPS"
    ]
    assert len(sites) == 1 and sites[0].startswith("invert:"), sites


def test_no_prefix_parameter():
    """A map on a prefix subspace is its compression, ``discretize.compress``:
    no function in the package takes a ``prefix`` option beside it."""
    src = Path(opdisc.__file__).resolve().parent
    sites = [
        f"{path.stem}:{getattr(node, 'name', 'lambda')}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for arg in ast.walk(node.args)
        if isinstance(arg, ast.arg) and arg.arg == "prefix"
    ]
    assert sites == []


def _json_writes(path: Path) -> list[str]:
    """Every ``json.dump``/``json.dumps`` call in ``path``, and every import
    of either name from ``json``, as ``module:line``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            found += [node.lineno for a in node.names if a.name in ("dump", "dumps")]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("dump", "dumps")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "json"
        ):
            found.append(node.lineno)
    return [f"{path.stem}:{line}" for line in found]


def test_only_serialize_writes_json():
    """Every JSON text the package makes goes through serialize's writers,
    so no artifact can bypass the strict writer."""
    src = Path(opdisc.__file__).resolve().parent
    writes = [w for path in sorted(src.glob("*.py")) for w in _json_writes(path)]
    assert writes and all(w.startswith("serialize:") for w in writes), writes


def test_no_record_has_an_as_dict():
    """Records are written by their fields, which ``write_json`` reads, and
    each runner builds its artifact's layout itself: no class in the
    package writes a hand-made layout."""
    src = Path(opdisc.__file__).resolve().parent
    owners = sorted(
        f"{path.stem}.{getattr(node, 'name', '<module>')}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        for child in ast.iter_child_nodes(node)
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and child.name == "as_dict"
    )
    assert owners == []


def test_only_layers_reads_a_middle_map():
    """A layer's middle map is read where the layer folds it: no module but
    ``opdisc.layers`` reads a ``.nonlin`` attribute, so every other caller
    evaluates a layer, or its core map, through the folded stages."""
    src = Path(opdisc.__file__).resolve().parent
    sites = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        if path.stem != "layers"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "nonlin"
    ]
    assert sites == []


def test_invert_imports_nothing_from_monotone():
    """``opdisc.invert`` holds solvers only; sampled checks of what they
    return live with the criteria that make them."""
    imported = set()
    for node in ast.walk(ast.parse(Path(opdisc.invert.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            imported |= {f"{node.module or ''}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert imported and not [name for name in imported if "monotone" in name.split(".")]


def _users(path: Path, names: set) -> dict:
    """``name -> the top-level definitions of path that name it`` for each
    of ``names`` used in ``path``; imports do not count."""
    found = collections.defaultdict(set)
    for top in ast.parse(path.read_text()).body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in names:
                found[name].add(owner)
    return dict(found)


def test_only_the_front_end_writes_artifacts():
    """No runner writes its own file: in cli.py only ``_outcome`` writes
    experiment artifacts, and ``write_json`` is named elsewhere only by the
    writers of ``failures.json`` and ``acceptance.json``."""
    cli_path = Path(opdisc.__file__).resolve().parent / "cli.py"
    assert _users(cli_path, {"write_json", "write_csv"}) == {
        "write_csv": {"_outcome"},
        "write_json": {"_outcome", "_finish", "accept_cmd"},
    }


@pytest.mark.parametrize("hook", HOOKS)
def test_tracer_hook_resolves(hook):
    if hook in STALE_HOOKS:
        with pytest.raises(AttributeError):
            _resolve(hook)
    else:
        assert callable(_resolve(hook))


def test_stale_hooks_are_still_hooked():
    assert set(STALE_HOOKS) <= set(HOOKS)


def test_every_tracer_group_keeps_a_live_member():
    # a group whose every member is stale would read 0 without any error
    dead = [
        group
        for group, members in TRACER.GROUPS.items()
        if not any(m not in STALE_HOOKS and callable(_resolve(m)) for m in members)
    ]
    assert dead == []


@pytest.mark.parametrize("name", PROBES)
def test_tracer_probe_resolves(name):
    if name in STALE_PROBES:
        with pytest.raises(AttributeError):
            _resolve(name)
    else:
        assert callable(_resolve(name))


def test_stale_probes_are_still_probed():
    assert set(STALE_PROBES) <= set(PROBES)


def test_invert_chain_dispatches_on_no_chain_class():
    """invert_chain reads every chain through its blocks, rates and radii:
    no isinstance test in it, or in a function of its module that it calls,
    names a chain class."""
    chain_classes = {name for name in opdisc.layers.__all__ if name.endswith("Chain")}
    tree = ast.parse(Path(opdisc.invert.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    reached, todo = set(), ["invert_chain"]
    while todo:
        name = todo.pop()
        if name in functions and name not in reached:
            reached.add(name)
            todo += [n.id for n in ast.walk(functions[name]) if isinstance(n, ast.Name)]
    named = {
        getattr(node, "id", getattr(node, "attr", None))
        for name in reached
        for call in ast.walk(functions[name])
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "isinstance"
        for node in ast.walk(call.args[1])
    }
    assert chain_classes == {"ResidualChain"}
    assert {"invert_chain", "_apply_head_inverse", "banach_solve"} <= reached
    assert named & chain_classes == set()


def _named(node: ast.AST) -> str | None:
    """The name a node defines, imports, reads or lists in ``__all__``."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.alias)):
        return node.name
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def test_every_map_evaluates_through_eval_array():
    """Operators, heads, layers and networks share one method: no
    ``apply_array`` is defined or read and no ``LinearExpr`` marker is
    named anywhere in the package, and ``eval_map`` dispatches on no type."""
    src = Path(opdisc.__file__).resolve().parent
    sites = [
        f"{path.stem}:{node.lineno} {_named(node)}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if _named(node) in ("apply_array", "LinearExpr")
    ]
    assert sites == []
    source = textwrap.dedent(inspect.getsource(opdisc.layers.eval_map))
    calls = [n.func.id for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Name)]
    assert "isinstance" not in calls


def test_total_iterations_sums_the_block_counts():
    # the tracer reads total_iterations for its iteration metric
    chain = ResidualChain.seeded(6, 6, 3, delta=0.5, seed=51)
    y = ball_samples(6, 1.0, 1, seed=2)[0]
    trace = invert_chain(chain, None, y).trace
    assert len(trace.iteration_counts) == 3
    assert all(c > 0 for c in trace.iteration_counts)
    assert trace.total_iterations == sum(trace.iteration_counts)
    assert isinstance(trace.total_iterations, int)


def test_tracer_counts_decompose_inverters():
    # one layer runs the fixed-point inverter; the orientation-reversing
    # affine one (kappa 2) has no Banach rate and runs Newton; a refactor
    # that routes around a probed method reads 0
    decompose = importlib.import_module("opdisc.decompose")
    fixed_point = mixing_bilipschitz_layer(8, seed=3)
    frame = np.eye(8)[:2].copy()
    flip = np.zeros((8, 8))
    flip[0, 0], flip[1, 1] = -2.0, -0.5
    t = FiniteRankOperator(np.ones(2), frame, frame)
    newton = NeuralOperatorLayer(t, t, affine_nonlinearity(flip, np.zeros(8)))
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        inverters = [
            decompose.decompose(layer, 0.4, 1.0).diagnostics["inverter"]
            for layer in (fixed_point, newton)
        ]
    finally:
        tracer.uninstall()
    assert inverters == ["fixed_point", "newton"]
    metrics = tracer.metrics(tracer.span_table(), 1.0, 1.0, 1)
    for name in (
        "decompose.invert_rows",
        "decompose.evals_per_row",
        "decompose.newton_calls",
        "layers.net_rows",
    ):
        assert metrics[name]["value"] > 0, name


def test_tracer_counts_the_warm_composite():
    # the tail layer of test_decompose factors into two linear blocks, one
    # path block and a tail: the path block's t = 0 solve and the tail's
    # inversion are the two inversions of the composite, and the tail,
    # started at the path block's carry, takes one core evaluation per row.
    # A hook moved off TailBlock, ScalingPath or CoreCompressedLayer (into a
    # shared base, say) is no longer wrapped and changes these counts.
    decompose = importlib.import_module("opdisc.decompose")
    layer = make_layer(
        Space(BasisSpec(ambient_dim=64)), seed=71, lip_g=0.5, rank=64, decay=2.0
    )
    result = decompose.decompose(layer, 0.25, 1.0, seed=0)
    xs = ball_samples(64, 1.0, 50, seed=3)
    tracer = TRACER.Tracer()
    tracer.install()
    try:
        result.eval_array(xs)
    finally:
        tracer.uninstall()
    # the raw counters behind the decompose.* metrics
    counts = collections.Counter()
    for log in tracer._logs:
        counts.update(log.counts)
    assert counts["decompose.invert.outer_calls"] == 2
    assert counts["invert_rows"] == 100
    assert counts["core_rows_in_invert"] == 50
