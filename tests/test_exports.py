"""Every exported name resolves, and so does every hook the benchmark tracer
wraps: a hook whose target was renamed or deleted would make its per-layer
metric read 0 without any error."""

import importlib
import importlib.util
from pathlib import Path

import pytest

import opdisc
from opdisc.invert import invert_chain
from opdisc.layers import InvertibleResidualChain
from opdisc.monotone import ball_samples

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


@pytest.mark.parametrize("hook", HOOKS)
def test_tracer_hook_resolves(hook):
    assert callable(_resolve(hook))


def test_total_iterations_sums_the_block_counts():
    # the tracer reads total_iterations for its iteration metric
    chain = InvertibleResidualChain.seeded(6, 6, 3, 0.5, seed=51)
    y = ball_samples(6, 1.0, 1, seed=2)[0]
    trace = invert_chain(chain, None, y).trace
    assert trace.n_blocks == 3
    assert all(c > 0 for c in trace.iteration_counts)
    assert trace.total_iterations == sum(trace.iteration_counts)
    assert isinstance(trace.total_iterations, int)
