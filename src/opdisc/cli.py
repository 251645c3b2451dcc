"""Batch front end: experiment configs in, CSV/JSON reports out.

Every experiment is a JSON object with a ``name``, a ``kind`` naming one of
the subcommands, an explicit ``seed`` (absent seed is a validation error, not
a default), and the kind's parameters.  A config file holds ``"schema": 1``
and a list of experiments; the same runners back the direct-flag subcommands,
so a flag invocation and its config twin produce byte-identical artifacts.

Runners write nothing.  Each returns its artifact, a report and optional CSV
rows, and :func:`_outcome`, the one writer, writes ``{name}.json`` under one
envelope (``schema``, ``name``, ``kind``, ``seed``) and then ``{name}.csv``.

``KEYS`` (one table per kind) and ``SHARED_KEYS`` (``name``, ``kind``,
``seed``) are the one source of experiment keys.  Each entry gives a key's
type, default, value check and subcommand flag.  Every runner reads its
values through :func:`_read`, which checks the whole experiment against the
table before anything runs, and the subcommands' options are generated from
the same entries.

Exit codes: 0 when every assertion passed (a *recorded rejection* — e.g. a
layer refused a monotonicity certificate — is a valid outcome, not a
failure); 1 for config errors; 2 for assertion failures, accompanied by a
machine-readable ``failures.json`` in the output directory.  Each of its
entries names the ``stage`` that failed: the ``stage`` field of the
:class:`~opdisc.spectral.StageError` raised (``floor`` for a sampled modulus
below its floor, whose artifact is still written), or null for another error.
"""

from __future__ import annotations

import contextlib
import math
import os
import pickle
import signal
from dataclasses import asdict
from pathlib import Path
from typing import Callable, NamedTuple, NoReturn

import click
import numpy as np

from . import acceptance as acceptance_mod
from .discretize import convergence_scan, functor_a_error
from .decompose import decompose
from .galerkin import (
    ORACLE_FACTOR,
    SOURCES,
    ConvexNonlinearity,
    fem_convergence,
    singularity_scan,
)
from .invert import invert_chain
from .isotopy import aligned_dets, truncated_det_scan
from .monotone import contraction_certificate
from .serialize import (
    _FINITE,
    _FLOAT,
    _INT,
    _ONE_OR_MORE,
    _REQUIRED,
    _STRING,
    SCHEMA_VERSION,
    SpecError,
    _Check,
    _ints,
    _Key,
    _number_array,
    _require_object,
    _Type,
    blob_hash,
    canonical_json,
    chain_from_spec,
    check_schema,
    head_from_spec,
    integral,
    layer_from_spec,
    load_json,
    read_envelope,
    read_keys,
    space_from_config,
    write_csv,
    write_json,
)
from .spectral import StageError


class CheckFailure(StageError):
    """A stated expectation did not hold; maps to exit code 2.  It carries
    the experiment's artifact, which :func:`_outcome` still writes."""

    def __init__(self, stage: str, message: str, artifact: tuple) -> None:
        super().__init__(stage, message)
        self.artifact = artifact


# exceptions a runner raises when the experiment ran but failed (exit code 2)
_FAILURES = (RuntimeError, ValueError)


# ---------------------------------------------------------------------------
# experiment keys: one table per kind


class _Flag(NamedTuple):
    """A subcommand option; a file option ``load``s experiment keys."""

    opt: str
    help: str | None = None
    load: Callable | None = None


def _int_list(ctx, param, value):
    """Click callback: a comma-separated flag value as a list of integers."""
    if value is None:
        return None
    try:
        return [int(tok) for tok in value.split(",")]
    except ValueError as err:
        raise click.ClickException(
            f"{param.opts[0]} wants comma-separated integers, got {value!r}"
        ) from err


_INTS = _Type("int list", "integers", _ints, {"type": str, "callback": _int_list})
_NUMBERS = _Type("number list", "a number array", lambda value, got: _number_array(value))
_SPACE = _Type("space spec", "a space spec", lambda d, got: got.memo.get(space_from_config, d))
_LAYER = _Type("layer spec", "a layer spec", lambda d, got: layer_from_spec(d, got["space"]))
_CHAIN = _Type("chain spec", "a chain spec", lambda d, got: got.memo.get(chain_from_spec, d))
_HEAD = _Type("head spec", "a head spec", lambda d, got: head_from_spec(d, got["chain"].dim))


def _dims_fault(dims, got):
    """Prefix dimensions must be a strictly ascending chain inside the space."""
    ambient = got["space"].dim
    if not dims:
        return "must be nonempty"
    if any(b <= a for a, b in zip(dims, dims[1:])):
        return "must be strictly ascending"
    if dims[0] < 1 or dims[-1] > ambient:
        return f"must lie in 1..{ambient}"
    return None


def _mesh_fault(sizes, got):
    """Nested meshes of at least 2 cells that refine to the reference mesh."""
    if len(sizes) < 2 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        return "needs at least two strictly increasing cell counts"
    if sizes[0] < 2:
        return "needs at least 2 cells in its coarsest size to carry a hat function"
    reference = ORACLE_FACTOR * sizes[-1]
    if any(reference % s for s in sizes):
        return f"sizes must each divide the reference mesh of {reference} cells"
    return None


def _target_fault(y, got):
    dim = got["chain"].dim
    if y.shape != (dim,) or not np.all(np.isfinite(y)):
        return f"must be {dim} finite numbers"
    return None


def _layer_file(path) -> dict:
    """The space and layer of a ``--layer`` file."""
    blob = read_envelope(load_json(path), "layer file", {"space", "layer"})
    return {"space": blob["space"], "layer": blob["layer"]}


def _chain_file(path) -> dict:
    """The chain of a ``--chain`` file, and its head when it names one."""
    blob = read_envelope(load_json(path), "chain file", {"chain"}, {"head"})
    return {key: blob[key] for key in ("chain", "head") if blob.get(key) is not None}


def _y_file(path) -> dict:
    """The target of a ``--y`` file: ``{schema, y}`` or a bare JSON array."""
    blob = load_json(path)
    if isinstance(blob, dict):
        blob = read_envelope(blob, "y file", {"y"})["y"]
    return {"y": blob}


_POSITIVE = _Check("finite, > 0", lambda v, got: None if 0.0 < v < math.inf
                   else "must be positive and finite")
_UNIT_OPEN = _Check("in (0, 1)", lambda v, got: None if 0.0 < v < 1.0
                    else "must be in (0, 1)")
_TWO_OR_MORE = _Check(">= 2", lambda v, got: None if v >= 2 else "must be at least 2")
_ODD_N = _Check("odd, >= 1", lambda v, got: None if v >= 1 and v % 2
                else "must be an odd positive count")
_ODD_M = _Check("odd, >= 3", lambda v, got: None if v >= 3 and v % 2
                else "must be odd and at least 3")
_PATH_KIND = _Check("a or b", lambda v, got: None if v in ("a", "b")
                    else "must be 'a' or 'b'", ("a", "b"))
_REACTIONS = tuple(sorted(SOURCES))
_REACTION = _Check("one of " + ", ".join(_REACTIONS), lambda v, got: None if v in _REACTIONS
                   else f"must be one of {list(_REACTIONS)}", _REACTIONS)
_DIMS = _Check("ascending, in 1..space dim", _dims_fault)
_MESH = _Check("ascending, >= 2, each divides the reference mesh", _mesh_fault)
_TARGET = _Check("finite, one per chain dim", _target_fault)

_LAYER_FLAG = _Flag("--layer", load=_layer_file)
_DIMS_FLAG = _Flag("--dims", "Comma-separated prefix dims.")

# key: _Key(type, default, check, flag), in the order the reader reads them
# and the subcommand lists its options; SHARED_KEYS follow every kind's keys
SHARED_KEYS = {
    "kind": _Key(_STRING, _REQUIRED, None, None),
    "seed": _Key(_INT, _REQUIRED, None, _Flag("--seed")),
    "name": _Key(_STRING, _REQUIRED, None, _Flag("--name")),
}

KEYS = {
    "monotone-check": {
        "space": _Key(_SPACE, _REQUIRED, None, None),
        "layer": _Key(_LAYER, _REQUIRED, None,
                      _Flag("--layer", "Layer file: {schema, space, layer}.", _layer_file)),
        "dims": _Key(_INTS, None, _DIMS, _DIMS_FLAG),
        "radius": _Key(_FLOAT, 1.0, _POSITIVE, _Flag("--radius")),
        "samples": _Key(_INT, 128, _TWO_OR_MORE, _Flag("--samples")),
        "floor": _Key(_FLOAT, None, _FINITE, None),
    },
    "discretize-scan": {
        "space": _Key(_SPACE, _REQUIRED, None, None),
        "layer": _Key(_LAYER, _REQUIRED, None, _LAYER_FLAG),
        "dims": _Key(_INTS, _REQUIRED, _DIMS, _DIMS_FLAG),
        "radius": _Key(_FLOAT, 1.0, _POSITIVE, _Flag("--radius")),
        "samples": _Key(_INT, 256, _TWO_OR_MORE, _Flag("--samples")),
    },
    "decompose": {
        "space": _Key(_SPACE, _REQUIRED, None, None),
        "layer": _Key(_LAYER, _REQUIRED, None, _LAYER_FLAG),
        "epsilon": _Key(_FLOAT, _REQUIRED, _UNIT_OPEN, _Flag("--epsilon")),
        "radius": _Key(_FLOAT, _REQUIRED, _POSITIVE, _Flag("--radius")),
        "composite_tol": _Key(_FLOAT, 1e-6, _POSITIVE, None),
        "n_verify": _Key(_INT, 200, _ONE_OR_MORE, None),
    },
    "invert": {
        "chain": _Key(_CHAIN, _REQUIRED, None,
                      _Flag("--chain", "Chain file: {schema, chain, head?}.", _chain_file)),
        "head": _Key(_HEAD, {"kind": "identity"}, None, None),
        "y": _Key(_NUMBERS, _REQUIRED, _TARGET,
                  _Flag("--y", "Target file: {schema, y} or a bare JSON array.", _y_file)),
        "tol": _Key(_FLOAT, 1e-10, _POSITIVE, _Flag("--tol")),
    },
    "nogo-galerkin": {
        "path_kind": _Key(_STRING, _REQUIRED, _PATH_KIND, _Flag("--kind")),
        "n": _Key(_INT, _REQUIRED, _ODD_N, _Flag("--n", "Basis functions (odd).")),
        "grid": _Key(_INT, 101, _TWO_OR_MORE, _Flag("--grid")),
        "bisect_tol": _Key(_FLOAT, 1e-12, _POSITIVE, _Flag("--bisect-tol")),
    },
    "nogo-isotopy": {
        "m": _Key(_INT, _REQUIRED, _ODD_M, _Flag("--m", "Truncation dimension (odd).")),
        "grid": _Key(_INT, 101, _TWO_OR_MORE, _Flag("--grid")),
        "bisect_tol": _Key(_FLOAT, 1e-12, _POSITIVE, _Flag("--bisect-tol")),
    },
    "fem-solve": {
        "g": _Key(_STRING, _REQUIRED, _REACTION,
                  _Flag("--g", "Reaction term; the source is manufactured for sin(pi t).")),
        "mesh": _Key(_INTS, _REQUIRED, _MESH, _Flag("--mesh", "Comma-separated cell counts.")),
        "tol": _Key(_FLOAT, 1e-10, _POSITIVE, None),
    },
    "quant-report": {
        "space": _Key(_SPACE, _REQUIRED, None, None),
        "layer": _Key(_LAYER, _REQUIRED, None, _LAYER_FLAG),
        "dims": _Key(_INTS, _REQUIRED, _DIMS, _DIMS_FLAG),
        "radius": _Key(_FLOAT, 1.0, _POSITIVE, _Flag("--radius")),
        "samples": _Key(_INT, 256, _ONE_OR_MORE, _Flag("--samples")),
    },
}


def _read(exp: dict, memo) -> dict:
    """Check an experiment against its kind's keys and read every value
    before anything runs; a refused key is a SpecError naming the kind and
    the key."""
    kind = exp["kind"]
    where = f"{kind} experiment {exp['name']!r}"
    return read_keys(exp, {**KEYS[kind], **SHARED_KEYS}, where, kind, memo=memo)


# ---------------------------------------------------------------------------
# experiment runners (shared by subcommands and batch mode)


class _BuildMemo:
    """Chains and spaces built from specs, shared by the experiments of one
    :func:`run_config` call and keyed by the spec's canonical JSON.

    Sharing is safe because every memoized object is immutable (frozen
    dataclasses, read-only arrays).  A ``--jobs N`` batch runs in up to N
    processes, and each process builds a spec at the first task of its
    share that names it: once per process, so a spec that tasks in two
    processes name is built in each.  A spec that fails to build is not
    stored, and every experiment naming it reports its own error.
    """

    def __init__(self) -> None:
        self._built: dict = {}

    def get(self, build, spec):
        key = (build.__name__, canonical_json(spec))
        if key not in self._built:
            self._built[key] = build(spec)
        return self._built[key]


def _prefix_scan(got: dict):
    """The one prefix-ladder scan that ``monotone-check`` and
    ``discretize-scan`` read; eight evenly spread dims when none are named."""
    return convergence_scan(
        got["layer"].eval_array,
        got["dims"] or _prefix_dims(got["space"].dim, 8),
        r=got["radius"],
        n=got["samples"],
        seed=got["seed"],
        dim=got["space"].dim,
    )


def run_monotone_check(exp: dict, memo: _BuildMemo) -> tuple:
    """Sampled strong-monotonicity estimates on a ladder of prefixes, held
    against the layer's certified floor.  Each row is a :func:`_prefix_scan`
    row's estimate and its hash, so ``alpha_hat`` matches ``discretize-scan``."""
    got = _read(exp, memo)
    kappa = float(got["layer"].contraction)
    report = {
        # an unbounded contraction is null; the rejection's reason says why
        "contraction": kappa if math.isfinite(kappa) else None,
    }
    structural = contraction_certificate(kappa)
    if structural is None:
        report["rejected"] = True
        report["reason"] = (
            "the layer's contraction bound is not below one, so it carries no "
            "monotonicity certificate"
        )
    else:
        floor = structural if got["floor"] is None else got["floor"]
        rows = [
            {
                "dim": row["dim"],
                "alpha_hat": row["alpha_hat"],
                "estimate": row["estimate"],
                "estimate_hash": blob_hash(row["estimate"]),
            }
            for row in _prefix_scan(got).rows
        ]
        worst = min(row["alpha_hat"] for row in rows)
        report.update(
            {
                "rejected": False,
                "floor": floor,
                "scan": rows,
                "alpha_min": worst,
                "pass": bool(worst >= floor - 1e-6),
            }
        )
    if not report.get("pass", True):
        raise CheckFailure(
            "floor", f"sampled alpha {report['alpha_min']:.6g} fell below the certified "
            f"floor {report['floor']:.6g}",
            (report, None),
        )
    return report, None


def run_discretize_scan(exp: dict, memo: _BuildMemo) -> tuple:
    """Prefix-discretization error scan; CSV of its rows plus the scan's settings in JSON."""
    report = _prefix_scan(_read(exp, memo))
    columns = ("dim", "functor_a_error", "weak_error", "alpha_hat")
    return report.metadata, (",".join(columns), [[row[c] for c in columns] for row in report.rows])


def run_decompose(exp: dict, memo: _BuildMemo) -> tuple:
    """Split a bilipschitz layer into near-identity blocks; JSON result."""
    got = _read(exp, memo)
    result = decompose(
        got["layer"],
        got["epsilon"],
        got["radius"],
        composite_tol=got["composite_tol"],
        seed=got["seed"],
        n_verify=got["n_verify"],
    )
    report = {
        "j": result.j,
        "epsilon": result.epsilon,
        "r1": result.r1,
        "diagnostics": result.diagnostics,
        "replay": {
            "space": exp["space"],
            "layer": exp["layer"],
            "epsilon": got["epsilon"],
            "radius": got["radius"],
            "composite_tol": got["composite_tol"],
            "seed": got["seed"],
            "note": "decompose is deterministic: rerunning this spec rebuilds "
            "the identical block sequence",
        },
    }
    return report, None


def _inverse_artifact(x: np.ndarray, trace, roundtrip_target: float) -> tuple:
    """The ``invert`` artifact of one target: its preimage, the audited
    trace (written as its fields) and the chain's roundtrip target."""
    return {"x": x.tolist(), "trace": trace, "roundtrip_target": roundtrip_target}, None


def run_invert(exp: dict, memo: _BuildMemo) -> tuple:
    """Invert a certified residual chain by fixed-point iteration.

    A ball-local chain (one with a ball_radius) refuses a target whose
    inversion leaves its ball: the run fails with a DomainError.
    """
    got = _read(exp, memo)
    result = invert_chain(got["chain"], got["head"], got["y"], tol=got["tol"])
    return _inverse_artifact(result.x, result.trace, result.roundtrip_target)


def _run_inversions(group: list[dict], out_dir: Path, memo: _BuildMemo) -> list[dict]:
    """Run ``invert`` experiments that share their chain, head and tol specs
    as one stacked solve; the outcomes keep the group's order.

    Each experiment is read on its own.  The targets of those that read
    cleanly go to one :func:`invert_chain` call as a ``(k, 1, m)`` stack,
    and each artifact is written from its own row of the result, so it is
    byte-identical to solving that target alone (see :func:`invert_chain`
    for why the stack is ``(k, 1, m)``).  An experiment that fails to read
    keeps the outcome of its read.  If the stacked solve fails, every
    experiment that read cleanly runs alone through :func:`_run_experiment`.
    So every outcome and ``failures.json`` entry is the one a one-at-a-time
    run gives.
    """
    reads, outcomes, rows = {}, {}, {}
    for exp in group:
        name = exp["name"]
        outcomes[name] = _outcome(exp, out_dir, lambda: reads.update({name: _read(exp, memo)}))
    if reads:
        first = next(iter(reads.values()))
        ys = np.stack([got["y"] for got in reads.values()])[:, None, :]
        with contextlib.suppress(*_FAILURES):
            result = invert_chain(first["chain"], first["head"], ys, tol=first["tol"])
            rows = {
                name: _inverse_artifact(x, trace, result.roundtrip_target)
                for name, x, trace in zip(reads, result.x[:, 0], result.traces)
            }
    for exp in group:
        name = exp["name"]
        if name in rows:
            outcomes[name] = _outcome(exp, out_dir, lambda: rows[name])
        elif name in reads:
            outcomes[name] = _run_experiment(exp, out_dir, memo)
    return [outcomes[exp["name"]] for exp in group]


def run_nogo_galerkin(exp: dict, memo: _BuildMemo) -> tuple:
    """Determinant sign change along a singular Galerkin path; CSV s,det,min_sv."""
    got = _read(exp, memo)
    scan = singularity_scan(got["path_kind"], got["n"], got["grid"], got["bisect_tol"])
    s_star, det_at_star, min_sv_at_star = scan.stars[0]
    report = {
        "path_kind": got["path_kind"],
        "n": got["n"],
        "s_grid": scan.grid,
        "dets": scan.dets,
        "min_svs": scan.min_svs,
        "det_endpoint_signs": scan.endpoint_signs,
        "s_star": s_star,
        "det_at_star": det_at_star,
        "min_sv_at_star": min_sv_at_star,
        "bisect_tol": scan.tol,
    }
    return report, ("s,det,min_sv", scan.rows())


def run_nogo_isotopy(exp: dict, memo: _BuildMemo) -> tuple:
    """Determinant crossing of the truncated rotation-cascade path; CSV t,det,min_sv."""
    got = _read(exp, memo)
    m = got["m"]
    scan = truncated_det_scan(m, got["grid"], got["bisect_tol"])
    report = {
        "m": m,
        "t_grid": scan.grid,
        "dets": scan.dets,
        "min_svs": scan.min_svs,
        "aligned_dets": aligned_dets(scan.grid, m),
        "det_endpoint_signs": scan.endpoint_signs,
        "crossings": scan.stars,
        "t_star": scan.stars[0][0],
        "bisect_tol": scan.tol,
    }
    return report, ("t,det,min_sv", scan.rows())


def run_fem_solve(exp: dict, memo: _BuildMemo) -> tuple:
    """Hat-element semilinear solves with an error-ratio table."""
    got = _read(exp, memo)
    sizes = got["mesh"]
    conv = fem_convergence(
        SOURCES[got["g"]], ConvexNonlinearity.named(got["g"]), sizes, tol=got["tol"]
    )
    rows = [
        (sizes[i], conv.errors[i], conv.ratios[i] if i < len(conv.ratios) else math.nan)
        for i in range(len(sizes))
    ]
    report = {"source": "manufactured: solution sin(pi t) for the chosen reaction", **asdict(conv)}
    return report, ("cells,h1_error,ratio", rows)


def run_quant_report(exp: dict, memo: _BuildMemo) -> tuple:
    """The measured range-tail error eps_V of each prefix discretization."""
    got = _read(exp, memo)
    f, dim = got["layer"].eval_array, got["space"].dim
    rows = [
        {
            "dim": d,
            "epsilon_v": functor_a_error(
                f, d, r=got["radius"], n=got["samples"], seed=got["seed"], dim=dim
            ),
        }
        for d in got["dims"]
    ]
    csv = ("dim,epsilon_v", [(row["dim"], row["epsilon_v"]) for row in rows])
    return {"radius": got["radius"], "rows": rows}, csv


RUNNERS = {
    "monotone-check": run_monotone_check,
    "discretize-scan": run_discretize_scan,
    "decompose": run_decompose,
    "invert": run_invert,
    "nogo-galerkin": run_nogo_galerkin,
    "nogo-isotopy": run_nogo_isotopy,
    "fem-solve": run_fem_solve,
    "quant-report": run_quant_report,
}


def _prefix_dims(ambient: int, count: int) -> list[int]:
    """Evenly spread prefix dimensions, always ending at the ambient dim;
    every dim when there are at most ``count`` (the spread's step is then
    at most 1, so its floors take every value)."""
    return [int(d) for d in np.unique(np.linspace(1, ambient, count).astype(int))]


def _validate_experiment(exp: dict, index: int, seed_override: int | None) -> dict:
    if not isinstance(exp, dict):
        raise SpecError(f"experiment #{index}: expected an object")
    name = exp.get("name")
    if not name or not isinstance(name, str):
        raise SpecError(f"experiment #{index}: needs a string 'name'")
    kind = exp.get("kind")
    if kind not in RUNNERS:
        raise SpecError(
            f"experiment {name!r}: unknown kind {kind!r}; know {sorted(RUNNERS)}"
        )
    if seed_override is not None:
        exp = {**exp, "seed": int(seed_override)}
    if "seed" not in exp:
        raise SpecError(f"experiment {name!r}: every experiment carries an explicit seed")
    return exp


def _run_experiment(exp: dict, out_dir: Path, memo: _BuildMemo) -> dict:
    """Run one validated experiment; its outcome record names the status."""
    return _outcome(exp, out_dir, lambda: RUNNERS[exp["kind"]](exp, memo))


def _outcome(exp: dict, out_dir: Path, run: Callable[[], tuple | None]) -> dict:
    """Call ``run`` for an experiment, write the artifact it returns, and
    record how it ended: ok, a config error, or a failure that names its
    stage, the error's ``stage`` field (null when it has none).

    The one writer of experiment artifacts.  ``run`` returns None, for
    nothing to write, or an artifact ``(report, csv)``; a
    :class:`CheckFailure` carries one too.  ``{name}.json`` is the report
    under the envelope ``schema, name, kind, seed``, whose keys win, and
    ``csv`` is None or ``(header, rows)`` for ``{name}.csv``.  The JSON goes
    first, so a report that :func:`write_json` refuses leaves no file."""
    outcome = {"name": exp["name"], "kind": exp["kind"]}
    try:
        try:
            artifact, failure = run(), None
        except CheckFailure as err:
            artifact, failure = err.artifact, err
        if artifact is not None:
            report, csv = artifact
            stem = out_dir / exp["name"]
            envelope = {"schema": SCHEMA_VERSION, "name": exp["name"], "kind": exp["kind"],
                        "seed": integral(exp["seed"])}
            write_json(f"{stem}.json", {**report, **envelope})
            if csv is not None:
                write_csv(f"{stem}.csv", *csv)
        if failure is not None:
            raise failure
    except SpecError as err:
        return {**outcome, "status": "config-error", "error": str(err)}
    except _FAILURES as err:
        return {
            **outcome,
            "status": "failed",
            "error": str(err),
            "error_type": type(err).__name__,
            "stage": getattr(err, "stage", None),
        }
    return {**outcome, "status": "ok"}


def _invert_key(exp: dict) -> str | None:
    """The key under which ``invert`` experiments are solved together: the
    canonical JSON of their raw chain, head and tol specs; None for any
    other experiment and for one whose specs have no canonical JSON."""
    if exp["kind"] != "invert" or "chain" not in exp:
        return None
    try:
        return canonical_json([exp["chain"], exp.get("head"), exp.get("tol")])
    except (TypeError, ValueError):
        return None


def _tasks(experiments: list[dict]) -> list[tuple[int, ...]]:
    """The batch's tasks as tuples of experiment indices: the ``invert``
    experiments that share an :func:`_invert_key` are one task, placed
    where the first of them stands; every other experiment is its own."""
    tasks: dict = {}
    for index, exp in enumerate(experiments):
        key = _invert_key(exp)
        tasks.setdefault(index if key is None else key, []).append(index)
    return [tuple(task) for task in tasks.values()]


def _run_task(batch: tuple, indices: tuple[int, ...]) -> list[dict]:
    """Run one task of a batch ``(experiments, out_dir, memo)``; every
    process of :func:`_run_forked` enters each task of its share here."""
    experiments, out_dir, memo = batch
    if len(indices) == 1:
        return [_run_experiment(experiments[indices[0]], out_dir, memo)]
    return _run_inversions([experiments[i] for i in indices], out_dir, memo)


def _worker_count(jobs: int, tasks: int, cpus: int) -> int:
    """Processes for a batch, the runner included: no more than asked for,
    than there are tasks, or than there are CPUs to run them, and at least
    the runner itself."""
    return max(1, min(jobs, tasks, cpus))


def _deal(tasks: list[tuple[int, ...]], workers: int) -> list[list[int]]:
    """Task numbers for each of ``workers`` processes, the runner's first:
    dealt round-robin, the biggest task first by experiment count and ties
    in config order; each share runs in config order."""
    order = sorted(range(len(tasks)), key=lambda t: -len(tasks[t]))
    return [sorted(order[w::workers]) for w in range(workers)]


def _run_child(batch: tuple, tasks: list[tuple[int, ...]], pipe: int) -> NoReturn:
    """A forked child's whole life: run its tasks, pickle their outcome lists
    (or the exception a task raised) into ``pipe``, and leave through
    ``os._exit``, so it flushes none of the runner's buffers and runs none
    of its exit hooks."""
    status = 1
    try:
        try:
            result = [_run_task(batch, task) for task in tasks]
        except BaseException as err:  # sent to the runner, which re-raises it
            import traceback

            err.add_note(f"raised in forked worker {os.getpid()}:\n"
                         + "".join(traceback.format_tb(err.__traceback__)))
            result = err
        # pickled whole before a byte is sent, so a result that does not
        # pickle sends nothing rather than a truncated payload
        payload = pickle.dumps(result)
        with open(pipe, "wb") as out:
            out.write(payload)
        status = 0
    finally:
        os._exit(status)


def _run_forked(batch: tuple, tasks: list[tuple[int, ...]], workers: int) -> list[list[dict]]:
    """Run a batch's tasks in this process and ``workers - 1`` forked
    children, dealt by :func:`_deal`; each task's outcomes, in task order.
    At one worker nothing is forked and the tasks run here in order.

    The runner runs its own share, then reads every child's pipe to its end
    and re-raises the first exception a child sent, with its original type.
    If the runner itself raises or is interrupted, it kills every child; on
    any exit it reaps every child it forked.
    """
    shares = _deal(tasks, workers)
    pids, pipes, sent = [], [], []
    try:
        for share in shares[1:]:
            read_end, write_end = os.pipe()
            pipes.append(read_end)
            try:
                pid = os.fork()
                if pid == 0:
                    _run_child(batch, [tasks[t] for t in share], write_end)
                pids.append(pid)
            finally:
                os.close(write_end)
        results = {t: _run_task(batch, tasks[t]) for t in shares[0]}
        for read_end in pipes:
            with open(read_end, "rb", closefd=False) as pipe:
                sent.append(pipe.read())
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for read_end in pipes:
            os.close(read_end)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    for share, pid, code, payload in zip(shares[1:], pids, codes, sent):
        if not payload:
            raise RuntimeError(f"forked worker {pid} exited with code {code} "
                               "without sending its outcomes")
        outcomes = pickle.loads(payload)  # written by this batch's own child
        if isinstance(outcomes, BaseException):
            raise outcomes
        results.update(zip(share, outcomes))
    return [results[t] for t in range(len(tasks))]


def run_config(config: dict, out_dir: Path, jobs: int, seed_override: int | None) -> list[dict]:
    """Run every experiment of a config, its tasks dealt over up to ``jobs``
    processes, this one and the children it forks (see :func:`_tasks` and
    :func:`_run_forked`); without ``os.fork`` the batch runs here alone.
    The outcomes keep the config's order."""
    if jobs < 1:
        raise SpecError(f"--jobs must be at least 1, got {jobs}")
    read_envelope(config, "config", {"experiments"})
    experiments = config["experiments"]
    if not isinstance(experiments, list):
        raise SpecError("config: 'experiments' must be a list")
    validated = [
        _validate_experiment(exp, i, seed_override) for i, exp in enumerate(experiments)
    ]
    names = [e["name"] for e in validated]
    if len(set(names)) != len(names):
        raise SpecError("config: experiment names must be unique (artifacts are per-name files)")

    memo = _BuildMemo()
    batch = (validated, out_dir, memo)
    tasks = _tasks(validated)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = _worker_count(jobs if hasattr(os, "fork") else 1, len(tasks), cpus or 1)
    results = _run_forked(batch, tasks, workers)
    by_index = {i: o for indices, outs in zip(tasks, results) for i, o in zip(indices, outs)}
    return [by_index[i] for i in range(len(validated))]


# ---------------------------------------------------------------------------
# click wiring


def _finish(outcomes: list[dict], out_dir: Path) -> None:
    """Echo each outcome and error, write ``failures.json``, and exit 1 or 2 on any error."""
    for o in outcomes:
        click.echo(f"{o['status']:>12}  {o['kind']}  {o['name']}")
    for o in outcomes:
        if o["status"] != "ok":
            click.echo(f"{o['status']} in {o['name']}: {o['error']}", err=True)
    failures = [o for o in outcomes if o["status"] == "failed"]
    if failures:
        write_json(out_dir / "failures.json", {"schema": SCHEMA_VERSION, "failed": failures})
    if any(o["status"] == "config-error" for o in outcomes):
        raise SystemExit(1)
    if failures:
        raise SystemExit(2)


@click.pass_context
def _run_subcommand(ctx, **flags) -> None:
    """Run one experiment of the subcommand's kind: an optional
    single-experiment config file, with every flag that was given on top."""
    kind = ctx.command.name
    keys = {**KEYS[kind], **SHARED_KEYS}
    given = {"seed": ctx.obj.get("seed")}
    try:
        for key, value in flags.items():
            load = keys[key].flag.load
            if value is not None:
                given.update(load(value) if load else {key: value})
        config_path = ctx.obj.get("config")
        # a pure flag invocation composes its own experiment; config files must
        # still carry their seed explicitly
        blob = {"seed": 0} if config_path is None else load_json(config_path)
        _require_object(blob, "config")
        if "experiments" in blob:
            raise SpecError(
                "a multi-experiment config runs without a subcommand: opdisc --config FILE"
            )
        if blob.get("kind", kind) != kind:
            raise SpecError(f"config is for kind {blob['kind']!r} but the subcommand is {kind!r}")
        exp = {"name": kind, **blob, "kind": kind}
        check_schema(exp.pop("schema", SCHEMA_VERSION), "config")
        exp.update({key: value for key, value in given.items() if value is not None})
        exp = _validate_experiment(exp, 0, None)
    except SpecError as err:
        raise click.ClickException(str(err)) from err
    out_dir = ctx.obj["out"]
    _finish([_run_experiment(exp, out_dir, _BuildMemo())], out_dir)


def _option(key: str, entry: _Key) -> click.Option:
    """A key's subcommand option; its click type follows the key's entry."""
    if entry.flag.load is not None:
        typed = {"type": click.Path(exists=True, dir_okay=False)}
    elif entry.check is not None and entry.check.choices:
        typed = {"type": click.Choice(entry.check.choices)}
    else:
        typed = entry.type.option
    return click.Option([entry.flag.opt, key], default=None, help=entry.flag.help, **typed)


@click.group(invoke_without_command=True)
@click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON experiment config; without a subcommand, runs every experiment in it.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default="artifacts",
              show_default=True, help="Directory for CSV/JSON artifacts.")
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Processes for a config batch, this one included: it forks N - 1 "
                   "children, at most one process per task and usable CPU.  A task is one "
                   "experiment, or the invert experiments sharing chain, head and tol, "
                   "solved as one stacked batch with the artifacts of solving each alone.  "
                   "Tasks are dealt biggest first, round-robin, and each process runs its "
                   "share in config order, building a space or chain spec once.  At 1, "
                   "for one task or without fork, the batch runs in order in this process.")
@click.option("--seed", type=int, default=None, help="Override every experiment's seed.")
@click.pass_context
def main(ctx, config, out_dir, jobs, seed):
    """Numerical laboratory for discretizing operator layers: batch runner."""
    ctx.ensure_object(dict)
    ctx.obj.update(config=config, out=Path(out_dir), jobs=jobs, seed=seed)
    if ctx.invoked_subcommand is not None:
        return
    if config is None:
        click.echo(ctx.get_help())
        return
    try:
        blob = load_json(config)
        outcomes = run_config(blob, Path(out_dir), jobs, seed)
    except SpecError as err:
        raise click.ClickException(str(err)) from err
    _finish(outcomes, Path(out_dir))


for _kind, _runner in RUNNERS.items():
    main.add_command(
        click.Command(
            _kind,
            callback=_run_subcommand,
            params=[
                _option(key, entry)
                for key, entry in {**KEYS[_kind], **SHARED_KEYS}.items()
                if entry.flag is not None
            ],
            help=_runner.__doc__,
        )
    )


@main.command("accept")
@click.option("--only", type=str, default=None, callback=_int_list,
              help="Comma-separated criterion numbers to run (default: all ten).")
@click.pass_context
def accept_cmd(ctx, only):
    """Run the full acceptance suite; one pass/fail line per criterion."""
    numbers = None if only is None else sorted(set(only))
    out_dir = ctx.obj["out"]
    try:
        results = acceptance_mod.run_suite(numbers)
    except ValueError as err:  # an unknown criterion number
        raise click.ClickException(str(err)) from err
    for res in results:
        status = "PASS" if res["passed"] else "FAIL"
        click.echo(f"{status}  criterion {res['criterion']:>2}  {res['name']}  [{res['elapsed']:.1f}s]")
    write_json(out_dir / "acceptance.json", {"schema": SCHEMA_VERSION, "results": results})
    if not all(r["passed"] for r in results):
        failed = [r for r in results if not r["passed"]]
        write_json(out_dir / "failures.json", {"schema": SCHEMA_VERSION, "failed": failed})
        raise SystemExit(2)
