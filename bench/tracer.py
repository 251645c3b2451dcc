"""Out-of-program tracing of opdisc for the benchmark's per-layer metrics.

``Tracer.install()`` replaces every public function and method defined in
the ``opdisc`` modules (and the runner registry of ``opdisc.cli``) with a
wrapper that records a span: name, start, end, parent span and thread.
Spans are kept in memory, one compact log per thread, and reduced once at
the end, so the traced process does no I/O while it runs.  A few call sites
also feed counters taken from argument shapes and returned objects, never
from private helpers.  ``uninstall()`` puts the original objects back.

Self time is a span's duration minus the time its child spans cover.  A
span's parent is the innermost open span of the same thread, so the
workers of a thread pool never double-count each other's time.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import operator
import os
import threading
import time
from array import array

import numpy as np

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

# Spans whose outermost occurrences are timed (and counted) as one group.
GROUPS = {
    "layers.build": (
        "layers.make_layer",
        "layers.CoordinateNetwork.seeded",
        "layers.ResidualChain.seeded",
        "layers.InvertibleResidualChain.seeded",
        "acceptance.mixing_bilipschitz_layer",
    ),
    "decompose.choose_w": ("decompose.choose_w",),
    "decompose.peel_tail": ("decompose.peel_tail",),
    "decompose.path_blocks": ("decompose.path_blocks",),
    "decompose.linear_path": ("decompose.linear_path_blocks",),
    "decompose.invert": ("decompose.ScalingPath.invert_t_rows", "decompose.TailBlock.eval_array"),
    "galerkin.fem": (
        "galerkin.fem_convergence",
        "galerkin.solve_semilinear",
        "galerkin.solve_semilinear_trace",
    ),
    "galerkin.scan": ("galerkin.singularity_scan",),
    "isotopy.scan": ("isotopy.truncated_det_scan",),
    "serialize.from_spec": (
        "serialize.space_from_config",
        "serialize.operator_from_spec",
        "serialize.network_from_spec",
        "serialize.nonlinearity_from_spec",
        "serialize.layer_from_spec",
        "serialize.chain_from_spec",
        "serialize.head_from_spec",
    ),
    "serialize.write": ("serialize.write_json", "serialize.write_csv"),
    "cli.runner": (
        "cli.run_monotone_check",
        "cli.run_discretize_scan",
        "cli.run_decompose",
        "cli.run_invert",
        "cli.run_nogo_galerkin",
        "cli.run_nogo_isotopy",
        "cli.run_fem_solve",
        "cli.run_quant_report",
    ),
}

# (name, unit, better) of every per-layer metric, in report order.
METRICS = (
    ("layers.net_calls", "count", "lower"),
    ("layers.net_rows", "count", "lower"),
    ("layers.rows_per_call", "rows/call", "higher"),
    ("layers.net_gflop", "GFLOP", "lower"),
    ("layers.eval_self_s", "s", "lower"),
    ("layers.build_calls", "count", "lower"),
    ("layers.build_s", "s", "lower"),
    ("operators.apply_calls", "count", "lower"),
    ("operators.apply_rows", "count", "lower"),
    ("operators.self_s", "s", "lower"),
    ("spectral.self_s", "s", "lower"),
    ("monotone.calls", "count", "lower"),
    ("monotone.pairs", "count", "lower"),
    ("monotone.pair_mb", "MB", "lower"),
    ("monotone.self_s", "s", "lower"),
    ("discretize.calls", "count", "lower"),
    ("discretize.self_s", "s", "lower"),
    ("decompose.calls", "count", "lower"),
    ("decompose.blocks", "count", "lower"),
    ("decompose.t_grid_points", "count", "lower"),
    ("decompose.newton_calls", "count", "lower"),
    ("decompose.choose_w_s", "s", "lower"),
    ("decompose.peel_tail_s", "s", "lower"),
    ("decompose.path_blocks_s", "s", "lower"),
    ("decompose.linear_path_s", "s", "lower"),
    ("decompose.invert_s", "s", "lower"),
    ("decompose.invert_rows", "count", "lower"),
    ("decompose.evals_per_row", "evals/row", "lower"),
    ("decompose.self_s", "s", "lower"),
    ("invert.calls", "count", "lower"),
    ("invert.iterations", "count", "lower"),
    ("invert.max_apriori_slack", "iterations", "higher"),
    ("invert.self_s", "s", "lower"),
    ("galerkin.fem_s", "s", "lower"),
    ("galerkin.newton_steps", "count", "lower"),
    ("galerkin.hats_mb", "MB", "lower"),
    ("galerkin.scan_s", "s", "lower"),
    ("galerkin.path_matrices", "count", "lower"),
    ("isotopy.scan_s", "s", "lower"),
    ("isotopy.truncations", "count", "lower"),
    ("serialize.from_spec_s", "s", "lower"),
    ("serialize.write_s", "s", "lower"),
    ("serialize.files", "count", "lower"),
    ("serialize.bytes", "count", "lower"),
    ("cli.experiments", "count", "higher"),
    ("cli.runner_s", "s", "lower"),
    ("cli.worker_idle_frac", "frac", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)

# Metrics that depend on the clock; every other one repeats exactly.
TIMED = frozenset(
    name for name, unit, _ in METRICS if unit == "s" or name.endswith("_frac")
)


def _rows(x) -> int:
    """Rows of a batch: the leading dims of an array, 1 for a single vector."""
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


class _ThreadLog:
    """Spans and counters of one thread; a span's thread is its log."""

    def __init__(self):
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list[int] = []
        self.depth: collections.Counter = collections.Counter()
        self.counts: collections.Counter = collections.Counter()
        self.maxima: dict = {}


class Tracer:
    """Records spans around opdisc's public callables while installed."""

    def __init__(self):
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()
        self._restore: list = []
        self.names: list[str] = []
        self._map_dim = importlib.import_module("opdisc.monotone").map_dim

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer is already installed")
        package = importlib.import_module("opdisc")
        modules = [importlib.import_module(f"opdisc.{m}") for m in MODULES]
        wrapped: dict[int, object] = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = self._wrap(obj, f"{short}.{obj.__qualname__}")
                elif inspect.isclass(obj):
                    self._wrap_class(obj, short)
        # every module-level reference to a wrapped function, including the
        # names other modules imported and registries such as cli.RUNNERS
        for module in [package, *modules]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._replace(setattr, module, attr, obj, wrapped[id(obj)])
                elif isinstance(obj, dict) and not attr.startswith("__"):
                    for key, value in list(obj.items()):
                        if id(value) in wrapped:
                            self._replace(operator.setitem, obj, key, value, wrapped[id(value)])

    def uninstall(self) -> None:
        for put, owner, key, original in reversed(self._restore):
            put(owner, key, original)
        self._restore.clear()

    def _replace(self, put, owner, key, original, value) -> None:
        self._restore.append((put, owner, key, original))
        put(owner, key, value)

    def _wrap_class(self, cls, short: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__qualname__}.{attr}"
            if inspect.isfunction(obj):
                self._replace(setattr, cls, attr, obj, self._wrap(obj, name))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._replace(setattr, cls, attr, obj, type(obj)(self._wrap(obj.__func__, name)))

    # -- spans --------------------------------------------------------------

    def _log(self) -> _ThreadLog:
        """A new span log for the calling thread."""
        with self._lock:
            log = _ThreadLog()
            self._logs.append(log)
        self._local.log = log
        return log

    def _wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        groups = tuple(g for g, members in GROUPS.items() if name in members)
        probe = self._probe_for(name, fn)
        clock = time.perf_counter
        local = self._local
        new_log = self._log

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = getattr(local, "log", None) or new_log()
            idx = len(log.names)
            log.names.append(nid)
            log.parents.append(log.stack[-1] if log.stack else -1)
            log.ends.append(0.0)
            log.stack.append(idx)
            for g in groups:
                log.depth[g] += 1
            start = clock()
            log.starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                log.ends[idx] = end
                log.stack.pop()
                for g in groups:
                    log.depth[g] -= 1
                    if not log.depth[g]:
                        log.counts[g + ".outer_calls"] += 1
                        log.counts[g + ".outer_s"] += end - start
            if probe is not None:
                probe(log, args, kwargs, result)
            return result

        return traced

    # -- counters from argument shapes and returned objects -------------------

    def _probe_for(self, name: str, fn):
        module, _, rest = name.partition(".")
        if name == "layers.CoordinateNetwork.eval_array":
            def probe(log, args, kwargs, result):
                rows = _rows(args[1])
                log.counts["net_calls"] += 1
                log.counts["net_rows"] += rows
                log.counts["net_flop"] += 2 * rows * sum(w.size for w in args[0].weights)
            return probe
        if module == "operators" and rest.endswith("apply_array"):
            def probe(log, args, kwargs, result):
                log.counts["apply_calls"] += 1
                log.counts["apply_rows"] += _rows(args[1])
            return probe
        if name in ("monotone.pairwise_alpha", "monotone.bilipschitz_estimate"):
            signature = inspect.signature(fn)
            map_dim = self._map_dim

            def probe(log, args, kwargs, result):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                f, n, dim = bound.arguments["f"], bound.arguments["n"], bound.arguments["dim"]
                m = dim if dim is not None else map_dim(getattr(f, "__self__", f))
                pairs = n * (n - 1) // 2
                log.counts["pairs"] += pairs
                # i, j, squared distances and the (pairs, m) dx and dy arrays
                log.counts["pair_bytes"] += pairs * (3 + 2 * int(m)) * 8
            return probe
        if name == "decompose.decompose":
            def probe(log, args, kwargs, result):
                log.counts["blocks"] += result.j
                log.counts["t_grid_points"] += len(result.diagnostics.get("path", {}).get("t_grid", ()))
            return probe
        if name == "decompose.ScalingPath.invert_t_rows":
            def probe(log, args, kwargs, result):
                path, t, ys = args[0], args[1], args[2]
                log.counts["invert_rows"] += _rows(ys)
                if path.alpha is None and t != 0.0:
                    log.counts["newton_calls"] += 1
            return probe
        if name == "decompose.TailBlock.eval_array":
            def probe(log, args, kwargs, result):
                block = args[0]
                log.counts["invert_rows"] += _rows(args[1])
                if block.alpha is None and block.fw.frame.dim > 0:
                    log.counts["newton_calls"] += 1
            return probe
        if name == "decompose.CoreCompressedLayer.eval_array":
            def probe(log, args, kwargs, result):
                if log.depth["decompose.invert"]:
                    log.counts["core_rows_in_invert"] += _rows(args[1])
            return probe
        if name == "invert.invert_chain":
            def probe(log, args, kwargs, result):
                trace = result.trace
                log.counts["iterations"] += trace.total_iterations
                slack = max(b - c for b, c in zip(trace.apriori_bounds, trace.iteration_counts))
                log.maxima["apriori_slack"] = max(log.maxima.get("apriori_slack", slack), slack)
            return probe
        if name == "galerkin.solve_semilinear_trace":
            def probe(log, args, kwargs, result):
                log.counts["newton_steps"] += result[1].iterations
            return probe
        if name == "galerkin.FemMesh.hat_values":
            def probe(log, args, kwargs, result):
                log.counts["hats_bytes"] += result.nbytes
            return probe
        if name in GROUPS["serialize.write"]:
            def probe(log, args, kwargs, result):
                log.counts["write_bytes"] += os.path.getsize(args[0])
            return probe
        return None

    # -- reduction ----------------------------------------------------------

    def span_table(self) -> dict:
        """Per span name: calls, total seconds and self seconds."""
        n_names = len(self.names)
        calls = np.zeros(n_names)
        total = np.zeros(n_names)
        self_s = np.zeros(n_names)
        entries = np.zeros(n_names)
        module_of = np.array([self._module_index(n) for n in self.names] or [0])
        for log in self._logs:
            if not len(log.names):
                continue
            names = np.frombuffer(log.names, dtype=np.int32)
            parents = np.frombuffer(log.parents, dtype=np.int32)
            dur = np.frombuffer(log.ends) - np.frombuffer(log.starts)
            nested = parents >= 0
            covered = np.bincount(parents[nested], weights=dur[nested], minlength=names.size)
            calls += np.bincount(names, minlength=n_names)
            total += np.bincount(names, weights=dur, minlength=n_names)
            self_s += np.bincount(names, weights=dur - covered, minlength=n_names)
            parent_module = np.full(names.size, -1)
            parent_module[nested] = module_of[names[parents[nested]]]
            entered = parent_module != module_of[names]
            entries += np.bincount(names[entered], minlength=n_names)
        # a layer is entered through its module-level functions; methods of
        # the objects it returns (as_dict, eval_array, ...) do not count
        entries *= np.array([n.count(".") == 1 for n in self.names] or [False])
        return {
            name: {
                "calls": int(calls[i]),
                "entries": int(entries[i]),
                "total_s": float(total[i]),
                "self_s": float(self_s[i]),
            }
            for i, name in enumerate(self.names)
            if calls[i]
        }

    @staticmethod
    def _module_index(name: str) -> int:
        return MODULES.index(name.partition(".")[0])

    def span_count(self) -> int:
        return sum(len(log.names) for log in self._logs)

    def metrics(self, table: dict, traced_wall: float, untraced_wall: float, jobs: int) -> dict:
        """Every per-layer metric of METRICS from the span table and counters."""
        counts: collections.Counter = collections.Counter()
        slack = None
        for log in self._logs:
            counts.update(log.counts)
            if "apriori_slack" in log.maxima:
                value = log.maxima["apriori_slack"]
                slack = value if slack is None else max(slack, value)

        def module_sum(module: str, field: str) -> float:
            return sum(row[field] for name, row in table.items() if name.startswith(module + "."))

        def calls(name: str) -> int:
            return table.get(name, {}).get("calls", 0)

        def eval_self(module: str) -> float:
            return sum(
                row["self_s"]
                for name, row in table.items()
                if name.startswith(module + ".") and name.endswith("eval_array")
            )

        runner_s = counts["cli.runner.outer_s"]
        experiments = counts["cli.runner.outer_calls"]
        idle = (jobs * traced_wall - runner_s) / (jobs * traced_wall) if experiments else 0.0
        invert_rows = counts["invert_rows"]
        values = {
            "layers.net_calls": counts["net_calls"],
            "layers.net_rows": counts["net_rows"],
            "layers.rows_per_call": counts["net_rows"] / counts["net_calls"] if counts["net_calls"] else 0.0,
            "layers.net_gflop": counts["net_flop"] / 1e9,
            "layers.eval_self_s": eval_self("layers"),
            "layers.build_calls": counts["layers.build.outer_calls"],
            "layers.build_s": counts["layers.build.outer_s"],
            "operators.apply_calls": counts["apply_calls"],
            "operators.apply_rows": counts["apply_rows"],
            "operators.self_s": module_sum("operators", "self_s"),
            "spectral.self_s": module_sum("spectral", "self_s"),
            "monotone.calls": module_sum("monotone", "entries"),
            "monotone.pairs": counts["pairs"],
            "monotone.pair_mb": counts["pair_bytes"] / 1e6,
            "monotone.self_s": module_sum("monotone", "self_s"),
            "discretize.calls": module_sum("discretize", "entries"),
            "discretize.self_s": module_sum("discretize", "self_s"),
            "decompose.calls": calls("decompose.decompose"),
            "decompose.blocks": counts["blocks"],
            "decompose.t_grid_points": counts["t_grid_points"],
            "decompose.newton_calls": counts["newton_calls"],
            "decompose.choose_w_s": counts["decompose.choose_w.outer_s"],
            "decompose.peel_tail_s": counts["decompose.peel_tail.outer_s"],
            "decompose.path_blocks_s": counts["decompose.path_blocks.outer_s"],
            "decompose.linear_path_s": counts["decompose.linear_path.outer_s"],
            "decompose.invert_s": counts["decompose.invert.outer_s"],
            "decompose.invert_rows": invert_rows,
            "decompose.evals_per_row": counts["core_rows_in_invert"] / invert_rows if invert_rows else 0.0,
            "decompose.self_s": module_sum("decompose", "self_s"),
            "invert.calls": module_sum("invert", "entries"),
            "invert.iterations": counts["iterations"],
            "invert.max_apriori_slack": slack if slack is not None else 0,
            "invert.self_s": module_sum("invert", "self_s"),
            "galerkin.fem_s": counts["galerkin.fem.outer_s"],
            "galerkin.newton_steps": counts["newton_steps"],
            "galerkin.hats_mb": counts["hats_bytes"] / 1e6,
            "galerkin.scan_s": counts["galerkin.scan.outer_s"],
            "galerkin.path_matrices": calls("galerkin.galerkin_path_matrix"),
            "isotopy.scan_s": counts["isotopy.scan.outer_s"],
            "isotopy.truncations": calls("isotopy.glued_truncation_matrix"),
            "serialize.from_spec_s": counts["serialize.from_spec.outer_s"],
            "serialize.write_s": counts["serialize.write.outer_s"],
            "serialize.files": counts["serialize.write.outer_calls"],
            "serialize.bytes": counts["write_bytes"],
            "cli.experiments": experiments,
            "cli.runner_s": runner_s,
            "cli.worker_idle_frac": idle,
            "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
        }
        return {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}
