"""Finite ambient model of L2(0,1).

Fixes the coefficient representation the rest of the package computes in: an
orthonormal basis truncated to an ambient dimension M, whose elements are
plain (..., M) float arrays of coefficients, and a composite Gauss-Legendre
grid for pointwise work: Nemytskii maps, which apply an activation to
function values, go to the grid and back.  The basis values on that grid
are built only when such a map first needs them.  A subspace is always a
prefix of the basis and is named by its dimension d: the span of the first
d coefficients.  All values are immutable and all operations are pure.

It also holds :func:`path_scan`, the one determinant sweep along a matrix
path on [0, 1]: det and the least singular value on a :func:`unit_grid`,
with the sign changes bisected by :func:`sign_crossings`.  The Galerkin,
truncated-isotopy and compressed-Jacobian no-go scans each call it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Callable, Iterator, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "BasisSpec",
    "PathScan",
    "Space",
    "gauss_legendre_panels",
    "path_scan",
    "sign_crossings",
    "unit_grid",
]

_BASIS_KINDS = ("fourier", "abstract_orthonormal")

# Nodes per quadrature panel.  Six-point Gauss-Legendre is exact through
# degree 11 on each panel; with the default panel count of 4*M the Gram
# entries of the Fourier basis (product frequency up to 2*M) come out at
# machine precision for every ambient dimension used here.
POINTS_PER_PANEL = 6


def gauss_legendre_panels(
    edges: Sequence[float], points_per_panel: int = POINTS_PER_PANEL
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule over the panels delimited by ``edges``.

    Returns flat ``(nodes, weights)`` arrays.  Exact for polynomials of
    degree ``2 * points_per_panel - 1`` on each panel; panel edges may be
    non-uniform (the Galerkin paths split a panel exactly at their jump
    point).
    """
    e = np.asarray(edges, dtype=float)
    if e.ndim != 1 or e.size < 2 or np.any(np.diff(e) <= 0.0):
        raise ValueError("panel edges must be strictly increasing, length >= 2")
    xi, w = leggauss(points_per_panel)
    a, b = e[:-1][:, None], e[1:][:, None]
    nodes = ((a + b) / 2.0 + (b - a) / 2.0 * xi[None, :]).ravel()
    weights = ((b - a) / 2.0 * w[None, :]).ravel()
    return nodes, weights


@dataclass(frozen=True)
class BasisSpec:
    """Choice of basis, ambient truncation M, and quadrature resolution on
    the unit interval (0, 1).

    ``quadrature_panels`` counts composite Gauss-Legendre panels on (0, 1),
    each carrying :data:`POINTS_PER_PANEL` nodes; None means the default
    of ``4 * ambient_dim``.
    """

    kind: str = "fourier"
    ambient_dim: int = 16
    quadrature_panels: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _BASIS_KINDS:
            raise ValueError(
                f"unknown basis kind {self.kind!r}; expected one of {_BASIS_KINDS}"
            )
        if int(self.ambient_dim) < 1:
            raise ValueError("ambient_dim must be a positive integer")
        object.__setattr__(self, "ambient_dim", int(self.ambient_dim))
        q = self.quadrature_panels
        q = 4 * self.ambient_dim if q is None else int(q)
        if q < 1:
            raise ValueError("quadrature_panels must be positive")
        object.__setattr__(self, "quadrature_panels", q)


class Space:
    """A realized :class:`BasisSpec`: grid, basis values, and the transforms
    between (..., M) coefficients and values on the grid.

    ``fourier`` uses {1, sqrt(2) cos(2 pi k t), sqrt(2) sin(2 pi k t)} with
    the constant function first, so pointwise evaluation is available.
    ``abstract_orthonormal`` is coefficient-only (the Gram matrix is the
    identity by definition) and refuses pointwise operations.  Hat-function
    bases are not orthonormal and live in the finite-element module instead.
    """

    def __init__(self, spec: BasisSpec):
        self.spec = spec
        edges = np.linspace(0.0, 1.0, spec.quadrature_panels + 1)
        nodes, weights = gauss_legendre_panels(edges)
        nodes.flags.writeable = False
        weights.flags.writeable = False
        self.nodes = nodes
        self.weights = weights

    @property
    def dim(self) -> int:
        return self.spec.ambient_dim

    def __repr__(self) -> str:
        return (
            f"Space(kind={self.spec.kind!r}, dim={self.dim}, "
            f"panels={self.spec.quadrature_panels})"
        )

    # -- pointwise realization -------------------------------------------------

    @cached_property
    def _grid_basis(self) -> np.ndarray:
        """Basis values on the quadrature nodes, shape (M, nodes).

        Built on first use: only the grid transforms read it, and at large M
        it is the biggest array a space holds.  It is deterministic, so two
        threads that race here build equal copies.
        """
        bv = self.basis_matrix(self.nodes)
        bv.flags.writeable = False
        return bv

    def check_pointwise(self) -> None:
        """Refuse a basis without pointwise values with a ``ValueError``."""
        if self.spec.kind != "fourier":
            raise ValueError(
                f"basis kind {self.spec.kind!r} has no pointwise realization"
            )

    def basis_matrix(self, points) -> np.ndarray:
        """Basis values at arbitrary points, shape (M, len(points))."""
        self.check_pointwise()
        t = np.asarray(points, dtype=float).reshape(-1)
        m = self.dim
        out = np.empty((m, t.size))
        out[0] = 1.0
        root2 = np.sqrt(2.0)
        for j in range(1, m):
            k = (j + 1) // 2
            arg = 2.0 * np.pi * k * t
            out[j] = root2 * (np.cos(arg) if j % 2 == 1 else np.sin(arg))
        return out

    def to_grid(self, x) -> np.ndarray:
        """Pointwise values on the quadrature nodes: (..., M) coefficients in,
        (..., nodes) values out."""
        bv = self._grid_basis
        c = np.asarray(x, dtype=float)
        if c.shape[-1] != self.dim:
            raise ValueError(f"expected {self.dim} coefficients, got {c.shape[-1]}")
        return c @ bv

    def from_grid(self, values) -> np.ndarray:
        """Coefficients of grid functions via quadrature inner products:
        (..., nodes) values in, (..., M) coefficients out."""
        bv = self._grid_basis
        v = np.asarray(values, dtype=float)
        if v.shape[-1] != self.nodes.size:
            raise ValueError(
                f"expected {self.nodes.size} grid values, got {v.shape[-1]}"
            )
        return (v * self.weights) @ bv.T


def unit_grid(n: int) -> np.ndarray:
    """``n >= 2`` equispaced points on [0, 1], both endpoints included."""
    if n < 2:
        raise ValueError("need at least two grid points")
    return np.linspace(0.0, 1.0, int(n))


def sign_crossings(
    det_at: Callable[[float], float],
    ts: Sequence[float],
    dets: Sequence[float],
    tol: float,
) -> Iterator[tuple[float, float]]:
    """Brackets of the sign changes of ``det_at`` along the grid ``ts``.

    ``dets`` holds ``det_at`` already evaluated on ``ts``.  Yields one
    ``(lo, hi)`` bracket per crossing, in grid order: an exact zero at a
    grid point is ``(t, t)``; a sign change between neighbouring points is
    bisected until ``hi - lo <= tol`` or the two ends are adjacent floats
    (the midpoint then rounds to an end, so a float64 bracket in [0, 1]
    takes at most about 1,100 halvings), and an exact zero at a midpoint
    collapses the bracket to ``(mid, mid)``.  The generator is lazy, so a
    caller that takes only the first crossing bisects only that one.
    """
    if tol <= 0.0:
        raise ValueError("bisection tolerance must be positive")
    for i, (t, d) in enumerate(zip(ts, dets)):
        if d == 0.0:
            yield float(t), float(t)
            continue
        if i + 1 == len(ts) or dets[i + 1] == 0.0 or (d > 0.0) == (dets[i + 1] > 0.0):
            continue
        lo, hi, d_lo = float(t), float(ts[i + 1]), d
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            d_mid = det_at(mid)
            if d_mid == 0.0:
                lo = hi = mid
                break
            if (d_mid > 0.0) == (d_lo > 0.0):
                lo, d_lo = mid, d_mid
            else:
                hi = mid
        yield lo, hi


@dataclass(frozen=True, eq=False)
class PathScan:
    """Determinant record of a matrix path sampled on :func:`unit_grid`.

    ``dets`` and ``min_svs`` hold det and the least singular value at each
    ``grid`` point.  ``brackets`` are the bisected sign changes, in grid
    order, as :func:`sign_crossings` yields them; ``stars`` holds one
    ``(t, det, min_sv)`` triple per bracket, taken at its midpoint.
    """

    grid: np.ndarray
    dets: np.ndarray
    min_svs: np.ndarray
    brackets: tuple
    stars: tuple
    tol: float

    @property
    def endpoint_signs(self) -> tuple[int, int]:
        return int(np.sign(self.dets[0])), int(np.sign(self.dets[-1]))

    def rows(self) -> list[tuple[float, float, float]]:
        """``(t, det, min_sv)`` triples for tabular output."""
        return [
            (float(t), float(d), float(sv))
            for t, d, sv in zip(self.grid, self.dets, self.min_svs)
        ]


def path_scan(
    matrix_at: Callable[[np.ndarray], np.ndarray],
    n: int,
    tol: float,
    limit: int | None = None,
) -> PathScan:
    """Sweep det and least singular value of a matrix path along [0, 1].

    ``matrix_at(ts)`` takes a 1-D array of k parameters and returns the
    path's matrices there as one ``(k, n, n)`` stack.  The whole of
    ``unit_grid(n)`` is one call, factorized by one stacked ``det`` and one
    stacked ``svd``: numpy runs LAPACK on each matrix of a stack in turn,
    so every det and singular value is the one that matrix gets alone.
    Each bisection step and each star is a one-element call.  Only the
    first ``limit`` sign changes are bisected (all of them when ``limit``
    is None); bisection is the expensive part of a sweep with many
    crossings.
    """
    grid = unit_grid(n)

    def dets_and_svs(ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mats = matrix_at(ts)
        return np.linalg.det(mats), np.linalg.svd(mats, compute_uv=False)[:, -1]

    def det_at(t: float) -> float:
        return float(np.linalg.det(matrix_at(np.array([t])))[0])

    dets, min_svs = dets_and_svs(grid)
    brackets = tuple(islice(sign_crossings(det_at, grid, dets, tol), limit))
    stars = []
    for lo, hi in brackets:
        t = 0.5 * (lo + hi)
        det, min_sv = dets_and_svs(np.array([t]))
        stars.append((t, float(det[0]), float(min_sv[0])))
    return PathScan(grid, dets, min_svs, brackets, tuple(stars), float(tol))


def _unit_parameters(t) -> np.ndarray:
    """Path parameters ``t`` (a scalar or an array) as a flat float array,
    refused outside [0, 1]."""
    ts = np.asarray(t, dtype=float).reshape(-1)
    outside = ~((ts >= 0.0) & (ts <= 1.0))
    if outside.any():
        raise ValueError(f"path parameter must lie in [0, 1], got {ts[outside][0]}")
    return ts
