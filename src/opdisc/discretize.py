"""Prefix-subspace compression of operators and its approximation metrics.

The compression of a map F through a prefix subspace V is P_V∘F restricted
to V.  This module measures how faithful that compression is: the strong
(range-tail) error, and in :func:`convergence_scan` also the compression's
self-error and the weak (tested-against-a-probe) error; continuity under
operator perturbations, monotonicity preservation, and orientation of the
compressed Jacobian along operator paths.

Sup-over-ball quantities use one seeded sample set shared across dims, so
the monotonicity of nested compressions is exact for the sampled set
rather than statistical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .layers import central_differences, eval_map
from .monotone import _resolve_dim, ball_samples, pairwise_alpha
from .operators import FiniteRankOperator
from .spectral import Subspace, sign_crossings, unit_grid

__all__ = [
    "DiscretizedMap",
    "ConvergenceReport",
    "OrientationScan",
    "linearize",
    "functor_a_error",
    "convergence_scan",
    "continuity_probe",
    "orientation_scan",
    "csv_float",
]


def csv_float(x: float) -> str:
    """Shortest decimal that reproduces the double exactly."""
    return format(float(x), ".17g")


@dataclass(frozen=True, eq=False)
class DiscretizedMap:
    """P_V∘F on a prefix subspace V: inputs and outputs both live in V.

    Construction runs a short self-check that the compressed values agree
    with the projected values P_V F(x) to machine precision on seeded ball
    samples.
    """

    source: object
    v: Subspace
    dim: int

    def __post_init__(self) -> None:
        if not self.v.is_prefix:
            raise ValueError("compression is defined over prefix subspaces")
        d = self.v.dim
        if d == 0 or d > self.dim:
            raise ValueError("subspace must be a nonempty prefix of the ambient space")
        xs = ball_samples(self.dim, 1.0, 4, seed=0, indices=list(range(d)))
        direct = eval_map(self.source, xs).copy()
        direct[:, d:] = 0.0
        worst = float(np.max(np.linalg.norm(self.eval_array(xs) - direct, axis=1)))
        if worst > 1e-12:
            raise AssertionError(
                f"compressed map disagrees with projected source by {worst:g}"
            )

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        d = self.v.dim
        xin = x.copy()
        xin[..., d:] = 0.0
        y = eval_map(self.source, xin).copy()
        y[..., d:] = 0.0
        return y


def linearize(f, v: Subspace, dim: int | None = None) -> DiscretizedMap:
    """Compress f through the prefix subspace v."""
    return DiscretizedMap(f, v, _resolve_dim(f, dim))


def _tail_error(fx: np.ndarray, d: int) -> float:
    return float(np.max(np.linalg.norm(fx[:, d:], axis=1), initial=0.0))


def _compression_error(fv: DiscretizedMap, xs: np.ndarray, fx: np.ndarray) -> float:
    direct = fx.copy()
    direct[:, fv.v.dim :] = 0.0
    return float(np.max(np.linalg.norm(fv.eval_array(xs) - direct, axis=1), initial=0.0))


def functor_a_error(
    f,
    v: Subspace,
    r: float = 1.0,
    n: int = 256,
    seed: int = 0,
    dim: int | None = None,
) -> float:
    """Worst range tail over ball samples in V: max ‖(Id − P_V) f(x)‖."""
    xs = ball_samples(_resolve_dim(f, dim), r, n, seed=seed, indices=sorted(v.indices))
    return _tail_error(eval_map(f, xs), v.dim)


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Per-dimension compression metrics, CSV-emittable.

    Row fields: dim, functor_a_error, epsilon_error, weak_error, alpha_hat.
    The epsilon column must vanish to machine precision — enforced here.
    """

    rows: tuple
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for row in self.rows:
            if row["epsilon_error"] > 1e-12:
                raise AssertionError(
                    f"compression self-error {row['epsilon_error']:g} at dim "
                    f"{row['dim']} exceeds machine tolerance"
                )

    def column(self, name: str) -> list:
        return [row[name] for row in self.rows]

    def to_csv_text(self) -> str:
        lines = ["dim,functor_a_error,epsilon_error,weak_error,alpha_hat"]
        for row in self.rows:
            lines.append(
                ",".join(
                    [
                        str(row["dim"]),
                        csv_float(row["functor_a_error"]),
                        csv_float(row["epsilon_error"]),
                        csv_float(row["weak_error"]),
                        csv_float(row["alpha_hat"]),
                    ]
                )
            )
        return "\n".join(lines) + "\n"

    def as_dict(self) -> dict:
        return {"rows": [dict(r) for r in self.rows], "metadata": dict(self.metadata)}


def convergence_scan(
    f,
    dims: Sequence[int],
    r: float = 1.0,
    n: int = 256,
    seed: int = 0,
    dim: int | None = None,
    description: str = "",
) -> ConvergenceReport:
    """Compression metrics across an ascending chain of prefix dimensions.

    One sample set, drawn in the ball of the smallest prefix, feeds the
    error columns at every dim, so nested-projection monotonicity holds
    exactly for what is reported.  f is evaluated on it once; only the
    compressed side of the epsilon column evaluates again, per dim, so
    that column stays an observation.  The alpha column is the sampled
    monotonicity constant of the compressed map over its own subspace.
    The weak column tests against the first basis direction outside V.
    """
    dims = [int(d) for d in dims]
    if not dims:
        raise ValueError("need at least one dim")
    if any(b <= a for a, b in zip(dims, dims[1:])):
        raise ValueError("dims must be strictly ascending")
    m = _resolve_dim(f, dim)
    if dims[0] < 1 or dims[-1] > m:
        raise ValueError(f"dims must lie in 1..{m}")
    common = ball_samples(m, r, n, seed=seed, indices=list(range(dims[0])))
    f_common = eval_map(f, common)
    rows = []
    for d in dims:
        fv = linearize(f, Subspace.prefix(d), dim=m)
        # f_V(x) − f(x) = −(Id − P_V) f(x), tested against the probe e_d
        weak = float(np.max(np.abs(f_common[:, d]), initial=0.0)) if d < m else 0.0
        alpha = pairwise_alpha(fv, r=r, n=n, seed=seed, dim=m, subspace=fv.v).alpha
        rows.append(
            {
                "dim": d,
                "functor_a_error": _tail_error(f_common, d),
                "epsilon_error": _compression_error(fv, common, f_common),
                "weak_error": weak,
                "alpha_hat": alpha,
            }
        )
    meta = {
        "description": description,
        "r": r,
        "samples": n,
        "seed": seed,
        "ambient_dim": m,
        "sample_prefix": dims[0],
        "weak_probe": "first basis direction outside each prefix",
    }
    return ConvergenceReport(rows=tuple(rows), metadata=meta)


def continuity_probe(
    f,
    k: FiniteRankOperator,
    js: Sequence[int],
    v: Subspace,
    r: float = 1.0,
    n: int = 256,
    seed: int = 0,
    dim: int | None = None,
) -> list[dict]:
    """Compression continuity under shrinking perturbations f + (1/j)·k.

    Rows (j, ambient_error, subspace_error) over one V-ball sample set:
    ambient_error = max ‖f(x) − f_j(x)‖ and subspace_error the same after
    compression.  Both columns scale exactly like 1/j, and the compressed
    column can never exceed the ambient one at the same sample.
    """
    js = [int(j) for j in js]
    if any(j < 1 for j in js):
        raise ValueError("perturbation indices must be positive integers")
    m = _resolve_dim(f, dim)
    d = v.dim
    if not v.is_prefix or d == 0:
        raise ValueError("need a nonempty prefix subspace")
    xs = ball_samples(m, r, n, seed=seed, indices=list(range(d)))
    # the perturbation direction k(x) is shared by every j: evaluate once
    defects = k.apply_array(xs)
    amb = np.linalg.norm(defects, axis=1)
    sub = np.linalg.norm(defects[:, :d], axis=1)
    rows = []
    for j in js:
        rows.append(
            {
                "j": j,
                "ambient_error": float(np.max(amb) / j),
                "subspace_error": float(np.max(sub) / j),
            }
        )
    return rows


@dataclass(frozen=True, eq=False)
class OrientationScan:
    """Determinant signs of the compressed Jacobian along an operator path."""

    rows: tuple  # (t, sign, |det|)
    crossings: tuple  # (t_lo, t_hi) brackets, each of width <= refine_tol

    @property
    def sign_changed(self) -> bool:
        return len(self.crossings) > 0


def orientation_scan(
    path: Callable[[float], object],
    t_grid: int,
    v: Subspace,
    base_point=None,
    dim: int | None = None,
    refine_tol: float = 1e-6,
) -> OrientationScan:
    """Track the compressed Jacobian's orientation along t ↦ path(t).

    Reports (t, det sign, |det|) at ``t_grid`` equispaced points of [0, 1]
    and brackets every sign change by bisection to a t-window of at most
    ``refine_tol``; an exact zero of the determinant gives a ``(t, t)``
    bracket.
    """
    ts = unit_grid(t_grid)
    if not v.is_prefix or v.dim == 0 or v.dim > 50:
        raise ValueError("need a nonempty prefix subspace of dimension at most 50")
    d = v.dim
    m = _resolve_dim(path(0.0), dim)
    base = np.zeros(m) if base_point is None else np.array(base_point, dtype=float)
    base[d:] = 0.0

    def det_at(t: float) -> float:
        # compressed Jacobian: first d outputs along the first d basis directions
        deriv = central_differences(path(t), base, np.eye(m)[:d])
        return float(np.linalg.det(deriv[:, :d].T))

    dets = [det_at(float(t)) for t in ts]
    rows = tuple((float(t), int(np.sign(dv)), abs(dv)) for t, dv in zip(ts, dets))
    crossings = tuple(sign_crossings(det_at, ts, dets, refine_tol))
    return OrientationScan(rows=rows, crossings=crossings)
