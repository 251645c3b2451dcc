"""Finite ambient model of L2(0,1).

Fixes the coefficient representation the rest of the package computes in: an
orthonormal basis truncated to an ambient dimension M, coefficient vectors,
prefix subspaces with orthogonal projections, encoder/decoder pairs, and a
composite Gauss-Legendre grid for pointwise work.  All values are immutable
and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = [
    "BasisSpec",
    "SpectralVector",
    "Subspace",
    "Space",
    "inner",
    "project",
    "as_coeffs",
    "gauss_legendre_panels",
]

_BASIS_KINDS = ("fourier", "fem_hat", "abstract_orthonormal")

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
    """Choice of basis, ambient truncation M, and quadrature resolution.

    ``quadrature_panels`` counts composite Gauss-Legendre panels on (0, 1),
    each carrying :data:`POINTS_PER_PANEL` nodes; 0 means the default of
    ``4 * ambient_dim``.
    """

    kind: str = "fourier"
    ambient_dim: int = 16
    domain: tuple[float, float] = (0.0, 1.0)
    quadrature_panels: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _BASIS_KINDS:
            raise ValueError(
                f"unknown basis kind {self.kind!r}; expected one of {_BASIS_KINDS}"
            )
        if int(self.ambient_dim) < 1:
            raise ValueError("ambient_dim must be a positive integer")
        object.__setattr__(self, "ambient_dim", int(self.ambient_dim))
        dom = (float(self.domain[0]), float(self.domain[1]))
        if dom != (0.0, 1.0):
            raise ValueError("only the unit interval (0, 1) is supported")
        object.__setattr__(self, "domain", dom)
        q = int(self.quadrature_panels) or 4 * self.ambient_dim
        if q < 1:
            raise ValueError("quadrature_panels must be positive")
        object.__setattr__(self, "quadrature_panels", q)


@dataclass(frozen=True, eq=False)
class SpectralVector:
    """Coefficient vector over the orthonormal basis; norm is Euclidean."""

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        c = np.array(self.coeffs, dtype=float, copy=True).reshape(-1)
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def dim(self) -> int:
        return self.coeffs.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def __add__(self, other: "SpectralVector | np.ndarray") -> "SpectralVector":
        return SpectralVector(self.coeffs + as_coeffs(other))

    def __sub__(self, other: "SpectralVector | np.ndarray") -> "SpectralVector":
        return SpectralVector(self.coeffs - as_coeffs(other))

    def __mul__(self, s: float) -> "SpectralVector":
        return SpectralVector(self.coeffs * float(s))

    __rmul__ = __mul__

    def __neg__(self) -> "SpectralVector":
        return SpectralVector(-self.coeffs)

    def __repr__(self) -> str:
        return f"SpectralVector(dim={self.dim}, norm={self.norm():.6g})"


def as_coeffs(x) -> np.ndarray:
    """Coefficient array of ``x`` (SpectralVector, array, or sequence)."""
    if isinstance(x, SpectralVector):
        return x.coeffs
    return np.asarray(x, dtype=float).reshape(-1)


def inner(a, b) -> float:
    ca, cb = as_coeffs(a), as_coeffs(b)
    if ca.shape != cb.shape:
        raise ValueError(f"dimension mismatch: {ca.size} vs {cb.size}")
    return float(ca @ cb)


@dataclass(frozen=True)
class Subspace:
    """Span of a set of basis elements, named by 0-based indices.

    The canonical instances are prefixes ``{0, ..., d-1}``; prefixes are
    totally ordered by inclusion and closed under union, which is what the
    convergence scans rely on.
    """

    indices: frozenset[int]

    def __post_init__(self) -> None:
        idx = frozenset(int(i) for i in self.indices)
        if any(i < 0 for i in idx):
            raise ValueError("basis indices are 0-based and must be nonnegative")
        object.__setattr__(self, "indices", idx)

    @staticmethod
    def prefix(d: int) -> "Subspace":
        if d < 0:
            raise ValueError("prefix dimension must be nonnegative")
        return Subspace(frozenset(range(d)))

    @property
    def dim(self) -> int:
        return len(self.indices)

    @property
    def is_prefix(self) -> bool:
        return self.indices == frozenset(range(len(self.indices)))

    def union(self, other: "Subspace") -> "Subspace":
        return Subspace(self.indices | other.indices)

    def contains(self, other: "Subspace") -> bool:
        return other.indices <= self.indices

    def mask(self, ambient_dim: int) -> np.ndarray:
        """Boolean membership mask of length ``ambient_dim``."""
        if self.indices and max(self.indices) >= ambient_dim:
            raise ValueError("subspace index outside the ambient dimension")
        m = np.zeros(ambient_dim, dtype=bool)
        if self.indices:
            m[sorted(self.indices)] = True
        return m

    def __repr__(self) -> str:
        if self.is_prefix:
            return f"Subspace.prefix({self.dim})"
        return f"Subspace({sorted(self.indices)})"


def project(x, V: Subspace) -> SpectralVector:
    """Orthogonal projection onto V: coefficients outside V are zeroed."""
    c = as_coeffs(x)
    return SpectralVector(np.where(V.mask(c.size), c, 0.0))


class Space:
    """A realized :class:`BasisSpec`: grid, basis values, and the coder pair.

    ``fourier`` uses {1, sqrt(2) cos(2 pi k t), sqrt(2) sin(2 pi k t)} with
    the constant function first, so pointwise evaluation is available.
    ``abstract_orthonormal`` is coefficient-only (the Gram matrix is the
    identity by definition) and refuses pointwise operations.  Hat-function
    bases are not orthonormal and live in the finite-element module instead.
    """

    def __init__(self, spec: BasisSpec):
        if spec.kind == "fem_hat":
            raise ValueError(
                "hat bases carry a non-identity Gram matrix; "
                "use the finite-element module for those"
            )
        self.spec = spec
        edges = np.linspace(0.0, 1.0, spec.quadrature_panels + 1)
        nodes, weights = gauss_legendre_panels(edges)
        nodes.flags.writeable = False
        weights.flags.writeable = False
        self.nodes = nodes
        self.weights = weights
        if spec.kind == "fourier":
            bv = self.basis_matrix(nodes)
            bv.flags.writeable = False
            self._basis_values: np.ndarray | None = bv
        else:
            self._basis_values = None

    @property
    def dim(self) -> int:
        return self.spec.ambient_dim

    def __repr__(self) -> str:
        return (
            f"Space(kind={self.spec.kind!r}, dim={self.dim}, "
            f"panels={self.spec.quadrature_panels})"
        )

    # -- construction helpers -------------------------------------------------

    def vector(self, coeffs) -> SpectralVector:
        c = as_coeffs(coeffs)
        if c.size != self.dim:
            raise ValueError(f"expected {self.dim} coefficients, got {c.size}")
        return SpectralVector(c)

    def zero(self) -> SpectralVector:
        return SpectralVector(np.zeros(self.dim))

    def basis_vector(self, i: int) -> SpectralVector:
        if not 0 <= i < self.dim:
            raise ValueError(f"basis index {i} outside 0..{self.dim - 1}")
        c = np.zeros(self.dim)
        c[i] = 1.0
        return SpectralVector(c)

    def full_subspace(self) -> Subspace:
        return Subspace.prefix(self.dim)

    # -- pointwise realization -------------------------------------------------

    def _require_grid(self) -> np.ndarray:
        if self._basis_values is None:
            raise ValueError(
                f"basis kind {self.spec.kind!r} has no pointwise realization"
            )
        return self._basis_values

    def basis_matrix(self, points) -> np.ndarray:
        """Basis values at arbitrary points, shape (M, len(points))."""
        if self.spec.kind != "fourier":
            self._require_grid()  # raises with the standard message
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
        bv = self._require_grid()
        c = x.coeffs if isinstance(x, SpectralVector) else np.asarray(x, dtype=float)
        if c.shape[-1] != self.dim:
            raise ValueError(f"expected {self.dim} coefficients, got {c.shape[-1]}")
        return c @ bv

    def from_grid(self, values) -> np.ndarray:
        """Coefficients of grid functions via quadrature inner products:
        (..., nodes) values in, (..., M) coefficients out."""
        bv = self._require_grid()
        v = np.asarray(values, dtype=float)
        if v.shape[-1] != self.nodes.size:
            raise ValueError(
                f"expected {self.nodes.size} grid values, got {v.shape[-1]}"
            )
        return (v * self.weights) @ bv.T

    def gram(self) -> np.ndarray:
        """Quadrature Gram matrix of the basis (identity for abstract kind)."""
        if self._basis_values is None:
            return np.eye(self.dim)
        bv = self._basis_values
        return (bv * self.weights) @ bv.T

    # -- coder pair ------------------------------------------------------------

    def encode(self, x, n: int) -> np.ndarray:
        """First ``n`` coefficients of ``x``."""
        if n > self.dim:
            raise ValueError(f"prefix size {n} exceeds ambient dimension {self.dim}")
        if n < 0:
            raise ValueError("prefix size must be nonnegative")
        c = as_coeffs(x)
        if c.size != self.dim:
            raise ValueError(f"expected {self.dim} coefficients, got {c.size}")
        return c[:n].copy()

    def decode(self, alpha) -> SpectralVector:
        """Embed a coefficient prefix as an ambient vector (zero tail)."""
        a = np.asarray(alpha, dtype=float).reshape(-1)
        if a.size > self.dim:
            raise ValueError(
                f"prefix size {a.size} exceeds ambient dimension {self.dim}"
            )
        c = np.zeros(self.dim)
        c[: a.size] = a
        return SpectralVector(c)

    # -- sampling ----------------------------------------------------------------

    def sample_ball(
        self, r: float, n: int, decay: float = 1.0, seed: int = 0
    ) -> list[SpectralVector]:
        """Deterministic samples from the closed ball of radius ``r``.

        Gaussian coefficients are damped by ``(index + 1) ** -decay`` so the
        draws look like smooth elements, then rescaled to radius
        ``r * u**(1/3)`` with u uniform: the ball is filled but mass leans
        toward the shell, where sup-over-ball quantities are attained.
        """
        if r <= 0.0:
            raise ValueError("ball radius must be positive")
        if decay < 0.0:
            raise ValueError("decay must be nonnegative")
        if n < 0:
            raise ValueError("sample count must be nonnegative")
        rng = np.random.default_rng(seed)
        damp = np.arange(1, self.dim + 1, dtype=float) ** (-float(decay))
        out: list[SpectralVector] = []
        for _ in range(n):
            g = rng.standard_normal(self.dim) * damp
            radius = r * rng.uniform() ** (1.0 / 3.0)
            nrm = np.linalg.norm(g)
            if nrm == 0.0:
                out.append(self.zero())
            else:
                out.append(SpectralVector(g * (radius / nrm)))
        return out
