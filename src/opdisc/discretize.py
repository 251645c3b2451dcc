"""Prefix-subspace compression of operators and its approximation metrics.

The compression of a map F through a prefix subspace V is P_V∘F restricted
to V, where V is named by its dimension d: the span of the first d basis
elements.  Every compressed quantity here is sampled on points of V, i.e.
with all but the first d coordinates zero.  This module measures how
faithful that compression is: the strong (range-tail) error; in
:func:`convergence_scan` also the weak (tested-against-a-probe) error and
monotonicity preservation; and the orientation of the compressed Jacobian
along operator paths.

Sup-over-ball quantities use one seeded sample set shared across dims, so
the monotonicity of nested compressions is exact for the sampled set
rather than statistical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .layers import central_differences, eval_map
from .monotone import _check_prefix, _resolve_dim, ball_samples, pairwise_alpha
from .spectral import PathScan, path_scan

__all__ = [
    "ConvergenceReport",
    "functor_a_error",
    "convergence_scan",
    "orientation_scan",
]


def _tail_error(fx: np.ndarray, d: int) -> float:
    return float(np.max(np.linalg.norm(fx[:, d:], axis=1), initial=0.0))


def functor_a_error(
    f,
    d: int,
    r: float = 1.0,
    n: int = 256,
    seed: int = 0,
    dim: int | None = None,
) -> float:
    """Worst range tail over ball samples in the prefix V of dimension d:
    max ‖(Id − P_V) f(x)‖."""
    xs = ball_samples(_resolve_dim(f, dim), r, n, seed=seed, prefix=d)
    return _tail_error(eval_map(f, xs), d)


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Per-dimension compression metrics.

    Row fields: dim, functor_a_error, weak_error, alpha_hat.
    """

    rows: tuple
    metadata: dict = field(default_factory=dict)

    def column(self, name: str) -> list:
        return [row[name] for row in self.rows]


def convergence_scan(
    f,
    dims: Sequence[int],
    r: float = 1.0,
    n: int = 256,
    seed: int = 0,
    dim: int | None = None,
) -> ConvergenceReport:
    """Compression metrics across an ascending chain of prefix dimensions.

    One sample set, drawn in the ball of the smallest prefix, feeds the
    error columns at every dim, so nested-projection monotonicity holds
    exactly for what is reported, and f is evaluated on it once.  The
    alpha column is the sampled monotonicity constant of the compressed
    map over its own subspace: differences of samples in V lie in V, so
    <P_V Δf, Δx> = <Δf, Δx> and sampling f there is sampling P_V∘f.  The
    weak column tests against the first basis direction outside V.
    """
    dims = [int(d) for d in dims]
    if not dims:
        raise ValueError("need at least one dim")
    if any(b <= a for a, b in zip(dims, dims[1:])):
        raise ValueError("dims must be strictly ascending")
    m = _resolve_dim(f, dim)
    _check_prefix(dims[0], m)
    _check_prefix(dims[-1], m)
    common = ball_samples(m, r, n, seed=seed, prefix=dims[0])
    f_common = eval_map(f, common)
    rows = []
    for d in dims:
        # f_V(x) − f(x) = −(Id − P_V) f(x), tested against the probe e_d
        weak = float(np.max(np.abs(f_common[:, d]), initial=0.0)) if d < m else 0.0
        alpha = pairwise_alpha(f, r=r, n=n, seed=seed, dim=m, prefix=d).alpha
        rows.append(
            {
                "dim": d,
                "functor_a_error": _tail_error(f_common, d),
                "weak_error": weak,
                "alpha_hat": alpha,
            }
        )
    meta = {
        "r": r,
        "samples": n,
        "seed": seed,
        "ambient_dim": m,
        "sample_prefix": dims[0],
        "weak_probe": "first basis direction outside each prefix",
    }
    return ConvergenceReport(rows=tuple(rows), metadata=meta)


def orientation_scan(
    path: Callable[[float], object],
    t_grid: int,
    d: int,
    base_point=None,
    dim: int | None = None,
    refine_tol: float = 1e-6,
) -> PathScan:
    """Track the orientation of the Jacobian compressed to the prefix of
    dimension d (at most 50) along t ↦ path(t).

    Records det and the least singular value at ``t_grid`` equispaced
    points of [0, 1] and brackets every sign change by bisection to a
    t-window of at most ``refine_tol``; an exact zero of the determinant
    gives a ``(t, t)`` bracket.
    """
    m = _resolve_dim(path(0.0), dim)
    if _check_prefix(d, m) > 50:
        raise ValueError("the determinant scan needs a prefix of dimension at most 50")
    base = np.zeros(m) if base_point is None else np.array(base_point, dtype=float)
    base[d:] = 0.0

    def compressed_jacobians(ts: np.ndarray) -> np.ndarray:
        # first d outputs along the first d basis directions, one per t
        return np.stack(
            [central_differences(path(float(t)), base, np.eye(m)[:d])[:, :d].T for t in ts]
        )

    return path_scan(compressed_jacobians, t_grid, refine_tol)
