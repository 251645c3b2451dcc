"""Finite elements on [0, 1]: a semilinear solver and singular operator paths.

Two computations live here.  The first discretizes the two-point boundary
value problem u'' - g(u) = x (homogeneous Dirichlet data, g the derivative
of a convex function) with piecewise-linear hat elements and solves the
resulting nonlinear system by ``opdisc.invert.newton_solve`` with the
problem's own convex energy as the merit.  Each cell touches only its
two hats, so integrals are per-cell Gauss sums scattered to the nodes and
the stiffness matrix and Newton Jacobian are tridiagonals kept in LAPACK
banded ``(3, n)`` layout.  The Jacobian is the stiffness matrix plus a
term with g' >= 0, symmetric positive definite, so each Newton step is one
elimination without pivoting (``_solve_tridiagonal``): O(n) time and
memory.

The second builds one-parameter families of Galerkin matrices whose
continuum counterparts are invertible multiplication-type operators for
every parameter value, yet whose finite sections must pass through a
singular matrix: the entries integrate a sign function that flips over the
whole interval as the parameter sweeps 0 -> 1, so the endpoint matrices
have opposite determinant signs and a zero crossing in between is
unavoidable.  All entries are integrated exactly, splitting at the jump —
the crossing location is a property of the matrices, not of a quadrature
choice.  ``singularity_scan`` sweeps such a path with
:func:`opdisc.spectral.path_scan` and bisects only its first crossing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .invert import newton_solve
from .spectral import PathScan, StageError, _unit_parameters, gauss_legendre_panels, path_scan

__all__ = [
    "FemMesh",
    "ConvexNonlinearity",
    "SOURCES",
    "NewtonTrace",
    "assemble_stiffness",
    "solve_semilinear",
    "solve_semilinear_trace",
    "h1_seminorm_difference",
    "FemConvergence",
    "ORACLE_FACTOR",
    "fem_convergence",
    "galerkin_path_matrix",
    "singularity_scan",
]


@dataclass(frozen=True)
class FemMesh:
    """Uniform mesh on [0, 1] with hat elements and homogeneous Dirichlet
    data at both ends: the interior nodes carry the unknowns."""

    n_cells: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_cells", int(self.n_cells))
        if self.n_cells < 2:
            raise ValueError(
                "degenerate mesh: needs at least 2 cells to carry a basis function"
            )

    @property
    def h(self) -> float:
        return 1.0 / self.n_cells

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_cells + 1)

    @property
    def active_nodes(self) -> np.ndarray:
        """Indices of the nodes that carry unknowns."""
        return np.arange(1, self.n_cells)

    @property
    def n_active(self) -> int:
        return self.active_nodes.size

    def cell_quadrature(self) -> tuple:
        """Five-point Gauss rule on every cell and the two hats touching it.

        Returns ``(points, weights, left, right)``, each of shape
        ``(n_cells, 5)``: ``left`` and ``right`` are the hats centred at the
        cell's left and right node, evaluated at the cell's Gauss points.
        No other hat is nonzero inside a cell.
        """
        nodes = self.nodes
        pts, wts = gauss_legendre_panels(nodes, points_per_panel=5)
        pts = pts.reshape(self.n_cells, 5)
        wts = wts.reshape(self.n_cells, 5)
        left = np.clip(1.0 - np.abs(pts - nodes[:-1, None]) / self.h, 0.0, None)
        right = np.clip(1.0 - np.abs(pts - nodes[1:, None]) / self.h, 0.0, None)
        return pts, wts, left, right

    def full_nodal(self, coeffs: np.ndarray) -> np.ndarray:
        """Nodal values on all nodes, zeros filled in at constrained ones."""
        w = np.asarray(coeffs, dtype=float).reshape(-1)
        if w.size != self.n_active:
            raise ValueError(f"expected {self.n_active} coefficients, got {w.size}")
        full = np.zeros(self.n_cells + 1)
        full[self.active_nodes] = w
        return full


@dataclass(frozen=True)
class ConvexNonlinearity:
    """Reaction term g = G' of one real variable, with a convex primitive G.

    The monotonicity of g (= convexity of G), which the Newton solve's
    energy descent relies on, is checked on a sample grid at construction.
    The solve reads G for its energy and ``gprime``, the exact derivative
    g', for its steps.
    """

    g: Callable
    primitive: Callable
    gprime: Callable
    name: str = "custom"

    def __post_init__(self) -> None:
        r = np.linspace(-8.0, 8.0, 321)
        gr = np.asarray(self.g(r), dtype=float)
        if gr.shape != r.shape or not np.all(np.isfinite(gr)):
            raise ValueError("g must map a sample grid to finite values")
        if np.any(np.diff(gr) < -1e-9):
            raise ValueError("g is not nondecreasing on the sample grid")

    def derivative(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(self.gprime(values), dtype=float)

    @classmethod
    def zero(cls) -> "ConvexNonlinearity":
        return cls(
            g=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
            primitive=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
            gprime=lambda r: np.zeros_like(np.asarray(r, dtype=float)),
            name="zero",
        )

    @classmethod
    def linear(cls) -> "ConvexNonlinearity":
        return cls(
            g=lambda r: np.asarray(r, dtype=float),
            primitive=lambda r: 0.5 * np.asarray(r, dtype=float) ** 2,
            gprime=lambda r: np.ones_like(np.asarray(r, dtype=float)),
            name="linear",
        )

    @classmethod
    def cubic(cls) -> "ConvexNonlinearity":
        return cls(
            g=lambda r: np.asarray(r, dtype=float) ** 3,
            primitive=lambda r: 0.25 * np.asarray(r, dtype=float) ** 4,
            gprime=lambda r: 3.0 * np.asarray(r, dtype=float) ** 2,
            name="cubic",
        )

    @classmethod
    def named(cls, name: str) -> "ConvexNonlinearity":
        table = {"zero": cls.zero, "linear": cls.linear, "cubic": cls.cubic}
        if name not in table:
            raise ValueError(f"unknown reaction term {name!r}; have {sorted(table)}")
        return table[name]()


# manufactured sources: with the reaction ``ConvexNonlinearity.named(name)``,
# the solution of u'' - g(u) = SOURCES[name] is u(t) = sin(pi t)
SOURCES = {
    "zero": lambda t: -np.pi**2 * np.sin(np.pi * t),
    "linear": lambda t: -(np.pi**2 + 1.0) * np.sin(np.pi * t),
    "cubic": lambda t: -np.pi**2 * np.sin(np.pi * t) - np.sin(np.pi * t) ** 3,
}


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def assemble_stiffness(mesh: FemMesh) -> np.ndarray:
    """Hat-element stiffness matrix in LAPACK banded ``(3, n_active)`` layout.

    Row 1 is the diagonal 2/h, rows 0 and 2 hold the -1/h couplings
    (``ab[0, 1:]`` above, ``ab[2, :-1]`` below the diagonal; the unused
    corners are zero), the form ``_solve_tridiagonal`` takes.
    """
    n = mesh.n_active
    h = mesh.h
    ab = np.zeros((3, n))
    ab[1] = 2.0 / h
    ab[0, 1:] = -1.0 / h
    ab[2, :-1] = -1.0 / h
    return ab


def _banded_matvec(ab: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Product of a ``(3, n)`` banded tridiagonal matrix with a vector."""
    out = ab[1] * w
    out[:-1] += ab[0, 1:] * w[1:]
    out[1:] += ab[2, :-1] * w[:-1]
    return out


def _solve_tridiagonal(ab: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve a ``(3, n)`` banded tridiagonal system by elimination without
    pivoting (the Thomas algorithm): LAPACK ``gtsv``'s elimination for a
    matrix whose rows need no interchange.

    Elimination without pivoting is stable for a symmetric positive
    definite or diagonally dominant matrix, such as the stiffness matrix
    plus the Newton terms with g' >= 0.
    """
    upper = ab[0, 1:].tolist()
    lower = ab[2, :-1].tolist()
    d = ab[1].tolist()
    b = np.asarray(rhs, dtype=float).tolist()
    n = len(d)
    for i in range(n - 1):
        fact = lower[i] / d[i]
        d[i + 1] -= fact * upper[i]
        b[i + 1] -= fact * b[i]
    b[n - 1] /= d[n - 1]
    for i in range(n - 2, -1, -1):
        b[i] = (b[i] - upper[i] * b[i + 1]) / d[i]
    return np.array(b)


# ---------------------------------------------------------------------------
# semilinear solve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NewtonTrace:
    """Energies and residual norms across accepted Newton steps.

    The merit function is the problem's convex energy, so an accepted step
    can never raise it; that is validated here, as stage ``newton``.
    """

    energies: tuple
    residual_norms: tuple
    step_scales: tuple
    tol: float

    def __post_init__(self) -> None:
        for name in ("energies", "residual_norms", "step_scales"):
            object.__setattr__(self, name, tuple(float(v) for v in getattr(self, name)))
        e = self.energies
        for a, b in zip(e, e[1:]):
            if b > a:
                raise StageError("newton", f"energy rose across an accepted step: {a} -> {b}")

    @property
    def iterations(self) -> int:
        return len(self.step_scales)


def solve_semilinear_trace(
    x_source: Callable,
    mesh: FemMesh,
    g: ConvexNonlinearity,
    tol: float = 1e-10,
) -> tuple:
    """Damped Newton for the hat-element system; returns (coeffs, trace).

    Solves ``B w + N(w) + L = 0`` where B is the stiffness matrix,
    ``N_j(w) = integral(phi_j g(u_h))`` and ``L_j = integral(x phi_j)``,
    by :func:`opdisc.invert.newton_solve` from w = 0.  Its merit is the
    convex energy ``0.5 w B w + integral(G(u_h) + x u_h)``, whose gradient
    is exactly the residual, so the Newton direction is a descent direction
    and the full step is accepted almost always.
    """
    pts, wts, left, right = mesh.cell_quadrature()
    x_vals = np.asarray(x_source(pts), dtype=float)
    if x_vals.shape != pts.shape:
        raise ValueError("the source must map points to values elementwise")
    stiff = assemble_stiffness(mesh)
    active = mesh.active_nodes
    couplings = active[:-1]  # cell c couples the active nodes c and c + 1

    def to_nodes(at_left: np.ndarray, at_right: np.ndarray) -> np.ndarray:
        """Per-cell Gauss sums onto the cells' left/right nodes, active only."""
        full = np.zeros(mesh.n_cells + 1)
        full[:-1] += np.sum(at_left, axis=1)
        full[1:] += np.sum(at_right, axis=1)
        return full[active]

    def u_at_points(w: np.ndarray) -> np.ndarray:
        full = mesh.full_nodal(w)
        return full[:-1, None] * left + full[1:, None] * right

    def weak_form(vals: np.ndarray) -> np.ndarray:
        """``integral(vals * phi_j)`` for every active hat j."""
        return to_nodes(wts * vals * left, wts * vals * right)

    load = weak_form(x_vals)

    def evaluate(ws: np.ndarray, rows) -> tuple:
        """The state is the residual, then u_h at the quadrature points,
        which the step reuses."""
        (w,) = ws
        u_q, bw = u_at_points(w), _banded_matvec(stiff, w)
        res = bw + weak_form(g.g(u_q)) + load
        energy = 0.5 * w @ bw + np.sum(wts * (g.primitive(u_q) + x_vals * u_q))
        state = np.concatenate([res, u_q.ravel()])
        return state[None], np.array([np.linalg.norm(res)]), np.array([energy])

    def direction(ws: np.ndarray, states: np.ndarray) -> np.ndarray:
        res, u_q = np.split(states[0], [mesh.n_active])
        wd = wts * g.derivative(u_q.reshape(pts.shape))
        jac = stiff.copy()
        jac[1] += to_nodes(wd * left * left, wd * right * right)
        off = np.sum(wd * left * right, axis=1)[couplings]
        jac[0, 1:] += off
        jac[2, :-1] += off
        return _solve_tridiagonal(jac, res)[None]

    sol = newton_solve(evaluate, direction, np.zeros((1, mesh.n_active)), tol, "newton")
    return sol.x[0], NewtonTrace(sol.merits[:, 0], sol.residuals[:, 0], sol.scales[1:, 0], tol)


def solve_semilinear(x_source: Callable, mesh: FemMesh, g: ConvexNonlinearity,
                     tol: float) -> np.ndarray:
    """Coefficients (= nodal values at the unknown nodes) of the solution."""
    return solve_semilinear_trace(x_source, mesh, g, tol)[0]


# ---------------------------------------------------------------------------
# mesh refinement study
# ---------------------------------------------------------------------------


def h1_seminorm_difference(
    coarse: FemMesh, w_coarse: np.ndarray, fine: FemMesh, w_fine: np.ndarray
) -> float:
    """Exact H1 seminorm of the difference of two nested hat interpolants."""
    if fine.n_cells % coarse.n_cells != 0:
        raise ValueError("fine mesh does not refine the coarse one")
    factor = fine.n_cells // coarse.n_cells
    slopes_c = np.diff(coarse.full_nodal(w_coarse)) / coarse.h
    slopes_f = np.diff(fine.full_nodal(w_fine)) / fine.h
    gap = np.repeat(slopes_c, factor) - slopes_f
    return float(math.sqrt(fine.h * np.sum(gap * gap)))


# The refinement study's reference mesh is this many times finer than the
# finest mesh it measures, so every measured mesh size must divide it.
ORACLE_FACTOR = 8


@dataclass(frozen=True)
class FemConvergence:
    """H1-seminorm errors against a common fine-mesh reference solution,
    with the Newton trace of the solve on the finest measured mesh."""

    mesh_sizes: tuple
    errors: tuple
    ratios: tuple
    oracle_cells: int
    reaction: str
    newton: NewtonTrace


def fem_convergence(
    x_source: Callable,
    g: ConvexNonlinearity,
    mesh_sizes: Sequence[int],
    *,
    tol: float = 1e-10,
) -> FemConvergence:
    """Solve on each mesh and measure H1 errors against an oracle solution
    on a mesh :data:`ORACLE_FACTOR` times finer than the finest one requested."""
    sizes = [int(m) for m in mesh_sizes]
    if len(sizes) < 2:
        raise ValueError("need at least two mesh sizes to report ratios")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("mesh sizes must be strictly increasing")
    oracle_cells = ORACLE_FACTOR * sizes[-1]
    for m in sizes:
        if oracle_cells % m != 0:
            raise ValueError(
                f"mesh size {m} does not divide the oracle mesh ({oracle_cells})"
            )
    oracle_mesh = FemMesh(oracle_cells)
    w_oracle = solve_semilinear(x_source, oracle_mesh, g, tol)
    errors = []
    for m in sizes:
        mesh = FemMesh(m)
        w, trace = solve_semilinear_trace(x_source, mesh, g, tol)
        errors.append(h1_seminorm_difference(mesh, w, oracle_mesh, w_oracle))
    ratios = tuple(errors[i] / errors[i + 1] for i in range(len(errors) - 1))
    return FemConvergence(
        mesh_sizes=tuple(sizes),
        errors=tuple(errors),
        ratios=ratios,
        oracle_cells=oracle_cells,
        reaction=g.name,
        newton=trace,
    )


# ---------------------------------------------------------------------------
# singular Galerkin paths
# ---------------------------------------------------------------------------


def _cos_integrals(omega: np.ndarray, phase: np.ndarray, s) -> np.ndarray:
    """Exact integrals of cos(omega t + phase) over [0, s], elementwise."""
    still = omega == 0.0
    moving = (np.sin(omega * s + phase) - np.sin(phase)) / np.where(still, 1.0, omega)
    return np.where(still, s * np.cos(phase), moving)


def _linear_weight_integral(a, b):
    """Integral of (1 + t) over [a, b], elementwise."""
    return (b - a) + 0.5 * (b * b - a * a)


def _split_weight_integral(a, b, s) -> np.ndarray:
    """Integral of (1 + t) sign(t - s) over [a, b], split exactly at s;
    elementwise over the broadcast of a, b and s."""
    whole = _linear_weight_integral(a, b)
    split = _linear_weight_integral(s, b) - _linear_weight_integral(a, s)
    return np.where(s <= a, whole, np.where(s >= b, -whole, split))


def galerkin_path_matrix(kind: str, s, n: int) -> np.ndarray:
    """Finite section of a sign-flip operator path at parameter ``s``.

    ``kind "a"`` integrates sign(t - s) against an orthonormal trig basis
    (the continuum operator is multiplication by the sign, a linear
    isometry); ``kind "b"`` integrates (1 + t) sign(t - s) against hat
    gradients on a uniform mesh of n cells, constrained to zero at t = 0
    only, so the last hat is a half hat (a weighted, indefinite
    stiffness).  All entries are exact, split at t = s, so the endpoint
    matrices are the (possibly weighted) Gram matrices with exact signs.
    The k parameters ``s`` give the (k, n, n) stack; each matrix of a stack
    is bit for bit the one its parameter gets alone.
    """
    kind = str(kind).lower()
    ss = _unit_parameters(s)
    n = int(n)
    if n < 1:
        raise ValueError("need at least one basis function")
    if kind == "a":
        # gram - 2 * integral over [0, s]; the gram matrix is the identity
        # analytically, which keeps the endpoints exact (at s = 1 the sign
        # is -1 almost everywhere, so the limit is minus the gram matrix,
        # set below); basis j is amp * cos(omega t + phase): constant
        # first, then paired cosines and sines of increasing frequency;
        # psi_j * psi_k integrates in closed form via product-to-sum
        j = np.arange(n)
        amp = np.where(j == 0, 1.0, math.sqrt(2.0))
        omega = 2.0 * np.pi * ((j + 1) // 2)
        phase = np.where((j > 0) & (j % 2 == 0), -0.5 * np.pi, 0.0)
        rows, cols = np.triu_indices(n)
        at = ss[:, None]
        pair = (
            0.5
            * amp[rows]
            * amp[cols]
            * (
                _cos_integrals(omega[rows] - omega[cols], phase[rows] - phase[cols], at)
                + _cos_integrals(omega[rows] + omega[cols], phase[rows] + phase[cols], at)
            )
        )
        sym = np.empty((ss.size, n, n))
        sym[:, rows, cols] = sym[:, cols, rows] = -2.0 * pair
        # adding to the identity stores 0.0 + (-0.0) as +0.0 off the diagonal
        mats = np.eye(n) + sym
        mats[ss == 1.0] = -np.eye(n)
    elif kind == "b":
        # cell c spans nodes c - 1 and c and touches the hats there (slopes
        # -1/h and +1/h); node 0 is constrained away, so hat j sits at node
        # j + 1.  Each entry starts at +0.0 and adds its cells' terms in
        # cell order, as a loop over cells does, so a -0.0 term from a
        # cell of weight 0 still leaves +0.0.
        h = 1.0 / n
        nodes = np.linspace(0.0, 1.0, n + 1)
        weight = _split_weight_integral(nodes[:-1], nodes[1:], ss[:, None])
        rise, fall = 1.0 / h, -1.0 / h
        diag = 0.0 + weight * rise * rise
        diag[:, :-1] += weight[:, 1:] * fall * fall
        j = np.arange(n)
        mats = np.zeros((ss.size, n, n))
        mats[:, j, j] = diag
        mats[:, j[:-1], j[1:]] = 0.0 + weight[:, 1:] * fall * rise
        mats[:, j[1:], j[:-1]] = 0.0 + weight[:, 1:] * rise * fall
    else:
        raise ValueError(f"unknown path kind {kind!r}; expected 'a' or 'b'")
    return mats


def singularity_scan(kind: str, n: int, s_grid: int, bisect_tol: float) -> PathScan:
    """Locate a singular parameter of the matrix path by sign bisection.

    The determinant and least singular value are recorded on ``s_grid``
    equispaced points of [0, 1].  The endpoint determinants have opposite
    signs for odd ``n`` (the path connects a positive matrix to minus one of
    the same shape), so a determinant zero crossing always exists; the first
    one on the grid is bisected to ``bisect_tol`` and later ones are left
    alone.
    """
    n = int(n)
    if n % 2 == 0:
        raise ValueError(
            "need an odd number of basis functions so the endpoint "
            "determinants differ in sign"
        )
    return path_scan(
        lambda ss: galerkin_path_matrix(kind, ss, n), s_grid, bisect_tol, limit=1
    )
