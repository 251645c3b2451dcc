"""Batch front end: experiment configs in, CSV/JSON reports out.

Every experiment is a JSON object with a ``name``, a ``kind`` naming one of
the subcommands, an explicit ``seed`` (absent seed is a validation error, not
a default), and the kind's parameters.  A config file holds ``"schema": 1``
and a list of experiments; the same runners back the direct-flag subcommands,
so a flag invocation and its config twin produce byte-identical artifacts.

Exit codes: 0 when every assertion passed (a *recorded rejection* — e.g. a
layer refused a monotonicity certificate — is a valid outcome, not a
failure); 1 for config errors; 2 for assertion failures, accompanied by a
machine-readable ``failures.json`` in the output directory.  Each of its
entries names the ``stage`` that failed: the leading ``[stage]`` of the
error message, or null when the message has none.
"""

from __future__ import annotations

import math
import re
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import click
import numpy as np

from . import acceptance as acceptance_mod
from .discretize import convergence_scan, functor_a_error
from .decompose import DecompositionError, decompose
from .galerkin import (
    ORACLE_FACTOR,
    SOURCES,
    ConvexNonlinearity,
    fem_convergence,
    singularity_scan,
)
from .invert import InversionError, invert_chain
from .isotopy import aligned_truncation_matrix, truncated_det_scan
from .monotone import contraction_certificate, pairwise_alpha
from .serialize import (
    SCHEMA_VERSION,
    SpecError,
    blob_hash,
    canonical_json,
    chain_from_spec,
    check_keys,
    float_field,
    head_from_spec,
    int_field,
    integral,
    layer_from_spec,
    load_json,
    read_envelope,
    space_from_config,
    write_csv,
    write_json,
)


class CheckFailure(Exception):
    """A stated expectation did not hold; maps to exit code 2."""


# exceptions a runner raises when the experiment ran but failed (exit code 2)
_FAILURES = (
    CheckFailure,
    AssertionError,
    InversionError,
    DecompositionError,
    RuntimeError,
    ValueError,
)


# ---------------------------------------------------------------------------
# experiment runners (shared by subcommands and batch mode)


class _BuildMemo:
    """Chains and spaces built from specs, shared by the experiments of one
    :func:`run_config` call and keyed by the spec's canonical JSON.

    Sharing is safe because every memoized object is immutable (frozen
    dataclasses, read-only arrays).  Builds run under one lock, so a spec is
    built once even at ``--jobs 2``; a spec that fails to build is not
    stored, and every experiment naming it reports its own error.
    """

    def __init__(self) -> None:
        self._built: dict = {}
        self._lock = threading.Lock()

    def get(self, build, spec):
        key = (build.__name__, canonical_json(spec))
        with self._lock:
            if key not in self._built:
                self._built[key] = build(spec)
            return self._built[key]


def _int_field(exp: dict, key: str, default=None) -> int:
    return int_field(exp, key, f"experiment {exp['name']!r}", default)


def _float_field(exp: dict, key: str, default=None) -> float:
    return float_field(exp, key, f"experiment {exp['name']!r}", default)


def _space_of(exp: dict, memo: _BuildMemo):
    if "space" not in exp:
        raise SpecError(f"experiment {exp.get('name', '?')!r} needs a 'space'")
    return memo.get(space_from_config, exp["space"])


def _check_dims(exp: dict, dims, ambient: int) -> list[int]:
    """Prefix dimensions must be a strictly ascending chain inside 1..ambient."""
    try:
        out = [integral(d) for d in dims]
    except (TypeError, ValueError, OverflowError) as err:
        raise SpecError(f"experiment {exp['name']!r}: dims must be integers") from err
    if not out:
        raise SpecError(f"experiment {exp['name']!r}: dims must be nonempty")
    if any(b <= a for a, b in zip(out, out[1:])):
        raise SpecError(f"experiment {exp['name']!r}: dims must be strictly ascending")
    if out[0] < 1 or out[-1] > ambient:
        raise SpecError(
            f"experiment {exp['name']!r}: dims must lie in 1..{ambient}"
        )
    return out


def run_monotone_check(exp: dict, out_dir: Path, memo: _BuildMemo) -> dict:
    check_keys(
        exp,
        "monotone-check",
        {"name", "kind", "seed", "space", "layer"},
        {"dims", "radius", "samples", "floor"},
    )
    space = _space_of(exp, memo)
    layer = layer_from_spec(exp["layer"], space)
    seed = _int_field(exp, "seed")
    radius = _float_field(exp, "radius", 1.0)
    samples = _int_field(exp, "samples", 128)
    dims = _check_dims(exp, exp.get("dims", _prefix_dims(space.dim, 8)), space.dim)
    report = {
        "schema": SCHEMA_VERSION,
        "name": exp["name"],
        "kind": "monotone-check",
        "seed": seed,
        "contraction": float(layer.contraction),
    }
    structural = contraction_certificate(layer.contraction)
    if not structural.certified:
        report["rejected"] = True
        report["reason"] = structural.note
    else:
        floor = _float_field(exp, "floor", structural.alpha)
        rows = []
        worst = math.inf
        for d in dims:
            cert = pairwise_alpha(
                layer.eval_array,
                r=radius,
                n=samples,
                seed=seed,
                dim=space.dim,
                prefix=d,
            )
            worst = min(worst, cert.alpha)
            rows.append(
                {
                    "dim": d,
                    "alpha_hat": cert.alpha,
                    "certificate": cert.as_dict(),
                    "certificate_hash": blob_hash(cert.as_dict()),
                }
            )
        report.update(
            {
                "rejected": False,
                "floor": floor,
                "scan": rows,
                "alpha_min": worst,
                "pass": bool(worst >= floor - 1e-6),
            }
        )
        if not report["pass"]:
            write_json(out_dir / f"{exp['name']}.json", report)
            raise CheckFailure(
                f"sampled alpha {worst:.6g} fell below the certified floor {floor:.6g}"
            )
    write_json(out_dir / f"{exp['name']}.json", report)
    return report


def run_discretize_scan(exp: dict, out_dir: Path, memo: _BuildMemo) -> dict:
    check_keys(
        exp,
        "discretize-scan",
        {"name", "kind", "seed", "space", "layer", "dims"},
        {"radius", "samples"},
    )
    space = _space_of(exp, memo)
    layer = layer_from_spec(exp["layer"], space)
    report = convergence_scan(
        layer.eval_array,
        _check_dims(exp, exp["dims"], space.dim),
        r=_float_field(exp, "radius", 1.0),
        n=_int_field(exp, "samples", 256),
        seed=_int_field(exp, "seed"),
        dim=space.dim,
        description=exp["name"],
    )
    stem = out_dir / exp["name"]
    columns = ("dim", "functor_a_error", "weak_error", "alpha_hat")
    write_csv(f"{stem}.csv", ",".join(columns), [[row[c] for c in columns] for row in report.rows])
    write_json(f"{stem}.meta.json", {"schema": SCHEMA_VERSION, **report.as_dict()["metadata"]})
    return report.as_dict()


def run_decompose(exp: dict, out_dir: Path, memo: _BuildMemo) -> dict:
    check_keys(
        exp,
        "decompose",
        {"name", "kind", "seed", "space", "layer", "epsilon", "radius"},
        {"composite_tol", "n_verify"},
    )
    space = _space_of(exp, memo)
    layer = layer_from_spec(exp["layer"], space)
    epsilon = _float_field(exp, "epsilon")
    radius = _float_field(exp, "radius")
    composite_tol = _float_field(exp, "composite_tol", 1e-6)
    seed = _int_field(exp, "seed")
    if not (epsilon > 0.0 and radius > 0.0):
        raise SpecError(
            f"experiment {exp['name']!r}: epsilon and radius must be positive"
        )
    result = decompose(
        layer,
        epsilon,
        radius,
        composite_tol=composite_tol,
        seed=seed,
        n_verify=_int_field(exp, "n_verify", 200),
    )
    report = {
        "schema": SCHEMA_VERSION,
        "name": exp["name"],
        "kind": "decompose",
        "seed": seed,
        "j": result.j,
        "epsilon": result.epsilon,
        "r1": result.r1,
        "diagnostics": result.diagnostics,
        "replay": {
            "space": exp["space"],
            "layer": exp["layer"],
            "epsilon": epsilon,
            "radius": radius,
            "composite_tol": composite_tol,
            "seed": seed,
            "note": "decompose is deterministic: rerunning this spec rebuilds "
            "the identical block sequence",
        },
    }
    write_json(out_dir / f"{exp['name']}.json", report)
    return report


def run_invert(exp: dict, out_dir: Path, memo: _BuildMemo) -> dict:
    check_keys(
        exp,
        "invert",
        {"name", "kind", "seed", "chain", "y"},
        {"head", "tol"},
    )
    chain = memo.get(chain_from_spec, exp["chain"])
    head = head_from_spec(exp.get("head", {"kind": "identity"}), dim=chain.dim)
    try:
        y = np.asarray(exp["y"], dtype=float)
    except (TypeError, ValueError) as err:
        raise SpecError(f"experiment {exp['name']!r}: y must be a number array") from err
    if y.shape != (chain.dim,) or not np.all(np.isfinite(y)):
        raise SpecError(
            f"experiment {exp['name']!r}: y must be {chain.dim} finite numbers"
        )
    result = invert_chain(chain, head, y, tol=_float_field(exp, "tol", 1e-10))
    report = {
        "schema": SCHEMA_VERSION,
        "name": exp["name"],
        "kind": "invert",
        "seed": _int_field(exp, "seed"),
        **result.as_dict(),
    }
    write_json(out_dir / f"{exp['name']}.json", report)
    return report


def run_nogo_galerkin(exp: dict, out_dir: Path, memo: _BuildMemo) -> dict:
    check_keys(
        exp,
        "nogo-galerkin",
        {"name", "kind", "seed", "path_kind", "n"},
        {"grid", "bisect_tol"},
    )
    if exp["path_kind"] not in ("a", "b"):
        raise SpecError(f"experiment {exp['name']!r}: path_kind must be 'a' or 'b'")
    n = _int_field(exp, "n")
    if n < 1 or n % 2 == 0:
        raise SpecError(f"experiment {exp['name']!r}: n must be an odd positive count")
    scan = singularity_scan(
        exp["path_kind"],
        n,
        _int_field(exp, "grid", 101),
        _float_field(exp, "bisect_tol", 1e-12),
    )
    s_star, det_at_star, min_sv_at_star = scan.stars[0]
    report = {
        "kind": exp["path_kind"],
        "n": n,
        "s_grid": scan.grid,
        "dets": scan.dets,
        "min_svs": scan.min_svs,
        "det_endpoint_signs": scan.endpoint_signs,
        "s_star": s_star,
        "det_at_star": det_at_star,
        "min_sv_at_star": min_sv_at_star,
        "bisect_tol": scan.tol,
    }
    stem = out_dir / exp["name"]
    write_csv(f"{stem}.csv", "s,det,min_sv", scan.rows())
    write_json(f"{stem}.json", {"schema": SCHEMA_VERSION, "name": exp["name"], **report})
    return report


def run_nogo_isotopy(exp: dict, out_dir: Path, memo: _BuildMemo) -> dict:
    check_keys(
        exp, "nogo-isotopy", {"name", "kind", "seed", "m"}, {"grid", "bisect_tol"}
    )
    m = _int_field(exp, "m")
    if m < 3 or m % 2 == 0:
        raise SpecError(f"experiment {exp['name']!r}: m must be odd and at least 3")
    scan = truncated_det_scan(
        m,
        _int_field(exp, "grid", 101),
        _float_field(exp, "bisect_tol", 1e-12),
    )
    report = {
        "m": m,
        "t_grid": scan.grid,
        "dets": scan.dets,
        "min_svs": scan.min_svs,
        "aligned_dets": [
            float(np.linalg.det(aligned_truncation_matrix(float(t), m))) for t in scan.grid
        ],
        "det_endpoint_signs": scan.endpoint_signs,
        "crossings": scan.stars,
        "t_star": scan.stars[0][0],
        "bisect_tol": scan.tol,
    }
    stem = out_dir / exp["name"]
    write_csv(f"{stem}.csv", "t,det,min_sv", scan.rows())
    write_json(f"{stem}.json", {"schema": SCHEMA_VERSION, "name": exp["name"], **report})
    return report


def run_fem_solve(exp: dict, out_dir: Path, memo: _BuildMemo) -> dict:
    check_keys(
        exp, "fem-solve", {"name", "kind", "seed", "g", "mesh"}, {"tol"}
    )
    g_name = exp["g"]
    if g_name not in SOURCES:
        raise SpecError(f"unknown reaction {g_name!r}; know {sorted(SOURCES)}")
    reaction = ConvexNonlinearity.named(g_name)
    source = SOURCES[g_name]
    try:
        sizes = [integral(c) for c in exp["mesh"]]
    except (TypeError, ValueError, OverflowError) as err:
        raise SpecError(f"experiment {exp['name']!r}: mesh must be integers") from err
    if len(sizes) < 2 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise SpecError(
            f"experiment {exp['name']!r}: mesh needs at least two strictly "
            "increasing cell counts"
        )
    if sizes[0] < 2:
        raise SpecError(
            f"experiment {exp['name']!r}: the coarsest mesh needs at least 2 "
            f"cells to carry a hat function, got {sizes[0]}"
        )
    oracle_cells = ORACLE_FACTOR * sizes[-1]
    if any(oracle_cells % s != 0 for s in sizes):
        raise SpecError(
            f"experiment {exp['name']!r}: every mesh size must divide the "
            f"reference mesh of {oracle_cells} cells"
        )
    tol = _float_field(exp, "tol", 1e-10)
    conv = fem_convergence(source, reaction, sizes, tol=tol)
    stem = out_dir / exp["name"]
    rows = [
        (sizes[i], conv.errors[i], conv.ratios[i] if i < len(conv.ratios) else math.nan)
        for i in range(len(sizes))
    ]
    write_csv(f"{stem}.csv", "cells,h1_error,ratio", rows)
    write_json(
        f"{stem}.json",
        {
            "schema": SCHEMA_VERSION,
            "name": exp["name"],
            "source": "manufactured: solution sin(pi t) for the chosen reaction",
            **conv.as_dict(),
        },
    )
    return conv.as_dict()


def quant_report(f, dims, r, n, seed, dim):
    """Measured prefix error next to the size bound's growth shape.

    Per prefix dim ``d`` inside the ambient dimension ``dim``: the sampled
    range-tail error eps_V of the prefix discretization, then
    ``log2((1 + r) / eps_V)`` (depth shape) and ``eps_V**-d * log2((1 + r) /
    eps_V)`` (nonzero-count shape), both with the dimensional constant left
    at 1.  Rows with eps_V = 0 report 0; overflowing bounds report inf.  No
    network is synthesized — the columns juxtapose a measurement with a
    formula's growth, nothing more.
    """
    rows = []
    for d in dims:
        eps = functor_a_error(f, int(d), r=r, n=n, seed=seed, dim=dim)
        if eps == 0.0:
            layers_bound = 0.0
            nonzeros = 0.0
        else:
            layers_bound = math.log2((1.0 + r) / eps)
            try:
                nonzeros = eps ** (-float(d)) * layers_bound
            except OverflowError:
                nonzeros = math.inf
        rows.append(
            {
                "dim": int(d),
                "epsilon_v": float(eps),
                "layers_bound": float(layers_bound),
                "nonzeros_bound": float(nonzeros),
            }
        )
    return rows


def run_quant_report(exp: dict, out_dir: Path, memo: _BuildMemo) -> dict:
    check_keys(
        exp,
        "quant-report",
        {"name", "kind", "seed", "space", "layer", "dims"},
        {"radius", "samples"},
    )
    space = _space_of(exp, memo)
    layer = layer_from_spec(exp["layer"], space)
    r = _float_field(exp, "radius", 1.0)
    rows = quant_report(
        layer.eval_array,
        _check_dims(exp, exp["dims"], space.dim),
        r,
        _int_field(exp, "samples", 256),
        _int_field(exp, "seed"),
        dim=space.dim,
    )
    stem = out_dir / exp["name"]
    header = (
        "# size-bound columns show growth shape only: the dimensional constant is 1 "
        "and no network is synthesized\n"
        "dim,epsilon_v,layers_bound,nonzeros_bound"
    )
    write_csv(
        f"{stem}.csv",
        header,
        [(row["dim"], row["epsilon_v"], row["layers_bound"], row["nonzeros_bound"]) for row in rows],
    )
    report = {"schema": SCHEMA_VERSION, "name": exp["name"], "radius": r, "rows": rows}
    write_json(f"{stem}.json", report)
    return report


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
    """Evenly spread prefix dimensions, always ending at the ambient dim."""
    if ambient <= count:
        return list(range(1, ambient + 1))
    dims = np.unique(np.linspace(1, ambient, count).astype(int))
    return [int(d) for d in dims]


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
    outcome = {"name": exp["name"], "kind": exp["kind"]}
    try:
        RUNNERS[exp["kind"]](exp, out_dir, memo)
    except SpecError as err:
        return {**outcome, "status": "config-error", "error": str(err)}
    except _FAILURES as err:
        stage = re.match(r"\[([^\]]+)\]", str(err))
        return {
            **outcome,
            "status": "failed",
            "error": str(err),
            "error_type": type(err).__name__,
            "stage": stage.group(1) if stage else None,
        }
    return {**outcome, "status": "ok"}


def run_config(config: dict, out_dir: Path, jobs: int, seed_override: int | None) -> list[dict]:
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
    if jobs > 1 and len(validated) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(
                pool.map(lambda exp: _run_experiment(exp, out_dir, memo), validated)
            )
    return [_run_experiment(exp, out_dir, memo) for exp in validated]


# ---------------------------------------------------------------------------
# click wiring


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


def _finish(outcomes: list[dict], out_dir: Path) -> None:
    for o in outcomes:
        click.echo(f"{o['status']:>12}  {o['kind']}  {o['name']}")
    config_errors = [o for o in outcomes if o["status"] == "config-error"]
    for o in config_errors:
        click.echo(f"config-error in {o['name']}: {o['error']}", err=True)
    failures = [o for o in outcomes if o["status"] == "failed"]
    if failures:
        write_json(out_dir / "failures.json", {"schema": SCHEMA_VERSION, "failed": failures})
    if config_errors:
        raise SystemExit(1)
    if failures:
        raise SystemExit(2)


def _run_subcommand(ctx, kind: str, flags: dict) -> None:
    """Run one experiment: an optional single-experiment config file, with
    every flag that was given on top."""
    exp: dict = {}
    config_path = ctx.obj.get("config")
    if config_path is not None:
        blob = load_json(config_path)
        if "experiments" in blob:
            raise click.ClickException(
                "a multi-experiment config runs without a subcommand: opdisc --config FILE"
            )
        exp = dict(blob)
        exp.pop("schema", None)
    exp.setdefault("kind", kind)
    if exp["kind"] != kind:
        raise click.ClickException(
            f"config is for kind {exp['kind']!r} but the subcommand is {kind!r}"
        )
    if flags.get("seed") is None:
        flags["seed"] = ctx.obj.get("seed")
    exp.update({key: value for key, value in flags.items() if value is not None})
    exp.setdefault("name", kind)
    if config_path is None:
        # a pure flag invocation composes its own experiment; config files
        # must still carry their seed explicitly
        exp.setdefault("seed", 0)
    exp = _validate_experiment(exp, 0, None)
    out_dir = ctx.obj["out"]
    outcome = _run_experiment(exp, out_dir, _BuildMemo())
    if outcome["status"] == "config-error":
        raise click.ClickException(outcome["error"])
    if outcome["status"] == "failed":
        write_json(out_dir / "failures.json", {"schema": SCHEMA_VERSION, "failed": [outcome]})
        click.echo(f"failed: {outcome['error']}", err=True)
        raise SystemExit(2)
    click.echo(f"          ok  {exp['kind']}  {exp['name']}")


def _layer_file(layer_path) -> dict:
    """The space and layer of a ``--layer`` file, or nothing without one."""
    if layer_path is None:
        return {}
    blob = read_envelope(load_json(layer_path), "layer file", {"space", "layer"})
    return {"space": blob["space"], "layer": blob["layer"]}


@click.group(invoke_without_command=True)
@click.option("--config", type=click.Path(exists=True, dir_okay=False), default=None,
              help="JSON experiment config; without a subcommand, runs every experiment in it.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default="artifacts",
              show_default=True, help="Directory for CSV/JSON artifacts.")
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Concurrent experiments in batch mode.")
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


@main.command("monotone-check")
@click.option("--layer", "layer_path", type=click.Path(exists=True, dir_okay=False),
              help="Layer file: {schema, space, layer}.")
@click.option("--dims", type=str, default=None, callback=_int_list,
              help="Comma-separated prefix dims.")
@click.option("--radius", type=float, default=None)
@click.option("--samples", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--name", type=str, default=None)
@click.pass_context
def monotone_check_cmd(ctx, layer_path, **flags):
    """Sampled strong-monotonicity certificates on a ladder of prefixes."""
    _run_subcommand(ctx, "monotone-check", {**flags, **_layer_file(layer_path)})


@main.command("discretize-scan")
@click.option("--layer", "layer_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--dims", type=str, default=None, callback=_int_list,
              help="Comma-separated prefix dims.")
@click.option("--radius", type=float, default=None)
@click.option("--samples", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--name", type=str, default=None)
@click.pass_context
def discretize_scan_cmd(ctx, layer_path, **flags):
    """Prefix-discretization error scan; CSV plus a JSON metadata sidecar."""
    _run_subcommand(ctx, "discretize-scan", {**flags, **_layer_file(layer_path)})


@main.command("decompose")
@click.option("--layer", "layer_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--epsilon", type=float, default=None)
@click.option("--radius", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--name", type=str, default=None)
@click.pass_context
def decompose_cmd(ctx, layer_path, **flags):
    """Split a bilipschitz layer into near-identity blocks; JSON result."""
    _run_subcommand(ctx, "decompose", {**flags, **_layer_file(layer_path)})


@main.command("invert")
@click.option("--chain", "chain_path", type=click.Path(exists=True, dir_okay=False),
              help="Chain file: {schema, chain, head?}.")
@click.option("--y", "y_path", type=click.Path(exists=True, dir_okay=False),
              help="Target file: {schema, y} or a bare JSON array.")
@click.option("--tol", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--name", type=str, default=None)
@click.pass_context
def invert_cmd(ctx, chain_path, y_path, **flags):
    """Invert a certified residual chain by fixed-point iteration.

    A ball-local chain (one with a ball_radius) refuses a target whose
    inversion leaves its ball: the run fails with a DomainError.
    """
    if chain_path is not None:
        blob = read_envelope(load_json(chain_path), "chain file", {"chain"}, {"head"})
        flags["chain"] = blob["chain"]
        flags["head"] = blob.get("head")
    if y_path is not None:
        y_blob = load_json(y_path)
        if isinstance(y_blob, dict):
            y_blob = read_envelope(y_blob, "y file", {"y"})["y"]
        flags["y"] = y_blob
    _run_subcommand(ctx, "invert", flags)


@main.command("nogo-galerkin")
@click.option("--kind", "path_kind", type=click.Choice(["a", "b"]), default=None)
@click.option("--n", type=int, default=None, help="Basis functions (odd).")
@click.option("--grid", type=int, default=None)
@click.option("--bisect-tol", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--name", type=str, default=None)
@click.pass_context
def nogo_galerkin_cmd(ctx, **flags):
    """Determinant sign change along a singular Galerkin path; CSV s,det,min_sv."""
    _run_subcommand(ctx, "nogo-galerkin", flags)


@main.command("nogo-isotopy")
@click.option("--m", type=int, default=None, help="Truncation dimension (odd).")
@click.option("--grid", type=int, default=None)
@click.option("--bisect-tol", type=float, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--name", type=str, default=None)
@click.pass_context
def nogo_isotopy_cmd(ctx, **flags):
    """Determinant crossing of the truncated rotation-cascade path; CSV t,det,min_sv."""
    _run_subcommand(ctx, "nogo-isotopy", flags)


@main.command("fem-solve")
@click.option("--g", type=click.Choice(sorted(SOURCES)), default=None,
              help="Reaction term; the source is manufactured for sin(pi t).")
@click.option("--mesh", type=str, default=None, callback=_int_list,
              help="Comma-separated cell counts.")
@click.option("--seed", type=int, default=None)
@click.option("--name", type=str, default=None)
@click.pass_context
def fem_solve_cmd(ctx, **flags):
    """Hat-element semilinear solves with an error-ratio table."""
    _run_subcommand(ctx, "fem-solve", flags)


@main.command("quant-report")
@click.option("--layer", "layer_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--dims", type=str, default=None, callback=_int_list,
              help="Comma-separated prefix dims.")
@click.option("--radius", type=float, default=None)
@click.option("--samples", type=int, default=None)
@click.option("--seed", type=int, default=None)
@click.option("--name", type=str, default=None)
@click.pass_context
def quant_report_cmd(ctx, layer_path, **flags):
    """Measured prefix errors next to the size bound's growth shape."""
    _run_subcommand(ctx, "quant-report", {**flags, **_layer_file(layer_path)})


@main.command("accept")
@click.option("--only", type=str, default=None, callback=_int_list,
              help="Comma-separated criterion numbers to run (default: all ten).")
@click.pass_context
def accept_cmd(ctx, only):
    """Run the full acceptance suite; one pass/fail line per criterion."""
    numbers = None if only is None else sorted(set(only))
    out_dir = ctx.obj["out"]
    results = acceptance_mod.run_suite(numbers)
    for res in results:
        status = "PASS" if res["passed"] else "FAIL"
        click.echo(f"{status}  criterion {res['criterion']:>2}  {res['name']}  [{res['elapsed']:.1f}s]")
    write_json(out_dir / "acceptance.json", {"schema": SCHEMA_VERSION, "results": results})
    if not all(r["passed"] for r in results):
        failed = [r for r in results if not r["passed"]]
        write_json(out_dir / "failures.json", {"schema": SCHEMA_VERSION, "failed": failed})
        raise SystemExit(2)


if __name__ == "__main__":
    main()
