"""Linear and pointwise-nonlinear building blocks.

Finite-rank operators in singular-triple form, the two involutive linear
heads (identity, reflections), the exact spectral-norm kernel, and the one
:class:`Activation` type with the table that reads activation names such as
``leaky_relu(0.3)``.  An activation acts on the coordinates of a network, or,
when it is entrywise, pointwise on the quadrature grid as a Nemytskii map.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "FiniteRankOperator",
    "orthonormal_rows",
    "Identity",
    "Reflection",
    "Activation",
    "scaled_leaky",
    "activation_from_name",
    "spectral_norm",
]


@dataclass(frozen=True, eq=False)
class FiniteRankOperator:
    """x -> sum_p omegas[p] <x, psi[p]> phi[p], stored as singular triples.

    ``omegas`` are nonincreasing and nonnegative and the ``psi``/``phi`` row
    families are each orthonormal, so the operator norm is ``omegas[0]``.
    """

    omegas: np.ndarray
    psi: np.ndarray
    phi: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.omegas, dtype=float).reshape(-1)
        psi = np.atleast_2d(np.array(self.psi, dtype=float))
        phi = np.atleast_2d(np.array(self.phi, dtype=float))
        r = w.size
        if psi.shape[0] != r or phi.shape[0] != r:
            raise ValueError("omegas, psi, phi must agree on the rank")
        if psi.shape[1] != phi.shape[1]:
            raise ValueError("psi and phi must share the ambient dimension")
        if np.any(w < 0.0):
            raise ValueError("singular values must be nonnegative")
        if np.any(np.diff(w) > 0.0):
            raise ValueError("singular values must be nonincreasing")
        for name, fam in (("psi", psi), ("phi", phi)):
            if not _orthonormal(fam):
                raise ValueError(f"{name} rows are not orthonormal")
        for a in (w, psi, phi):
            a.flags.writeable = False
        object.__setattr__(self, "omegas", w)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "phi", phi)

    @property
    def rank(self) -> int:
        return self.omegas.size

    @property
    def dim(self) -> int:
        return self.psi.shape[1]

    @property
    def norm(self) -> float:
        return float(self.omegas[0]) if self.rank else 0.0

    @classmethod
    def seeded(
        cls,
        dim: int,
        rank: int,
        *,
        scale: float = 1.0,
        decay: float = 1.0,
        seed: int = 0,
        psi_prefix: bool = False,
        phi_prefix: bool = False,
    ) -> "FiniteRankOperator":
        """Deterministic operator with omegas[p] = scale * (p+1)^-decay."""
        w = scale * np.arange(1, rank + 1, dtype=float) ** (-float(decay))
        rng = np.random.default_rng(seed)
        def fam(use_prefix: bool) -> np.ndarray:
            a = rng.standard_normal((dim, rank))  # always consume the stream
            return np.eye(dim)[:rank].copy() if use_prefix else orthonormal_rows(a)
        psi = fam(psi_prefix)
        phi = fam(phi_prefix)
        return cls(w, psi, phi)

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.dim:
            raise ValueError(f"dimension mismatch: operator dim {self.dim}, vector {x.shape[-1]}")
        return (x @ self.psi.T * self.omegas) @ self.phi

    def as_matrix(self) -> np.ndarray:
        return (self.phi.T * self.omegas) @ self.psi


def _orthonormal(rows: np.ndarray) -> bool:
    """Whether the rows are orthonormal: max |R·Rᵀ − I| is at most 1e-10."""
    return np.abs(rows @ rows.T - np.eye(len(rows))).max(initial=0.0) <= 1e-10


def orthonormal_rows(a: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the columns of a (dim, rank) Gaussian draw:
    its QR factor, with signs fixed so that diag(R) >= 0."""
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return (q * signs).T.copy()


# ---------------------------------------------------------------------------
# involutive linear maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Identity:
    def eval_array(self, x: np.ndarray) -> np.ndarray:
        return np.array(x, dtype=float, copy=True)


@dataclass(frozen=True, eq=False)
class Reflection:
    """Householder reflection x -> x - 2 <x, e> e about a unit vector e."""

    e: np.ndarray

    def __post_init__(self) -> None:
        e = np.array(self.e, dtype=float)
        if e.ndim != 1:
            raise ValueError(f"reflection vector must be one-dimensional, got shape {e.shape}")
        nrm = np.linalg.norm(e)
        if not abs(nrm - 1.0) <= 1e-8:
            raise ValueError(f"reflection vector must be unit length, got norm {nrm}")
        e /= nrm
        e.flags.writeable = False
        object.__setattr__(self, "e", e)

    @classmethod
    def first_axis(cls, dim: int) -> "Reflection":
        e = np.zeros(dim)
        e[0] = 1.0
        return cls(e)

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.e.size:
            raise ValueError("dimension mismatch for reflection")
        proj = x @ self.e
        return x - 2.0 * np.multiply.outer(proj, self.e)


_GRAM_EXP = 64  # see spectral_norm


def spectral_norm(w) -> float:
    """Exact spectral norm (largest singular value) of a matrix.

    The top eigenvalue of the smaller Gram matrix (``wᵀw`` or ``wwᵀ``) by a
    symmetric eigensolver: the same value an SVD gives, to rounding, at a
    fraction of the cost.  This is the one kernel behind every certified
    Lipschitz bound in the package, so it stays exact (no power iteration,
    which would give a lower bound).  The Gram matrix is scaled in place by
    2^(-2e), where 2^(e-1) <= max|w| < 2^e, which is exact, so its top
    eigenvalue neither overflows nor underflows.  For |e| > ``_GRAM_EXP``
    ``w`` is scaled by 2^(-e) first, into a copy; within, the Gram stays far
    from where the eigensolver rescales on its own (about 2^±400), and both
    orders give the same bits.  Non-finite input is refused: the eigensolver
    returns finite eigenvalues for a matrix holding NaN.  Returns exactly
    0.0 for a zero or empty matrix.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2:
        raise ValueError(f"spectral norm needs a matrix, got shape {w.shape}")
    # an empty matrix's amax is 0 too
    amax = max(float(w.max(initial=0.0)), -float(w.min(initial=0.0)))
    if not math.isfinite(amax):
        raise ValueError("spectral norm of a matrix with non-finite entries")
    if amax == 0.0:
        return 0.0
    exp = math.frexp(amax)[1]
    v = w if abs(exp) <= _GRAM_EXP else np.ldexp(w, -exp)
    gram = v.T @ v if v.shape[0] >= v.shape[1] else v @ v.T
    if v is w:
        gram *= math.ldexp(1.0, -2 * exp)
    top = float(np.linalg.eigvalsh(gram)[-1])
    return math.ldexp(math.sqrt(top), exp)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Activation:
    """A named activation with a recorded global Lipschitz constant.

    An ``entrywise`` activation applies one scalar function to every
    coordinate, so it also acts pointwise on the quadrature grid as a
    Nemytskii map.  ``groupsort2`` is the one that is not: it sorts adjacent
    coordinate pairs ascending, leaving a trailing odd coordinate fixed, and
    is 1-Lipschitz and idempotent.  ``lipschitz`` is infinite for the cubed
    rectifier, whose derivative is unbounded; :meth:`local_lipschitz` and
    :meth:`range_radius` bound it on a ball instead, from its ``growth``
    (c, p): |σ(s)| <= c·|s|^p, with local constant p·c·|s|^(p−1).  The
    cubed rectifier's is (1, 3); a finite constant's is (lipschitz, 1).
    """

    name: str
    fun: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    lipschitz: float
    entrywise: bool = True
    growth: tuple | None = None

    def __post_init__(self) -> None:
        if self.growth is None:
            if not np.isfinite(self.lipschitz):
                raise ValueError(f"{self.name} has no global Lipschitz constant: give its growth")
            object.__setattr__(self, "growth", (self.lipschitz, 1))

    def __call__(self, v):
        return self.fun(np.asarray(v, dtype=float))

    def local_lipschitz(self, radius: float) -> float:
        """Lipschitz bound valid on inputs of magnitude <= radius."""
        c, p = self.growth
        return p * c * float(radius) ** (p - 1)

    def range_radius(self, radius: float) -> float:
        """Bound on the output norm over inputs of norm <= radius (requires
        f(0) = 0)."""
        if abs(float(self(np.zeros(1))[0])) > 1e-15:
            raise ValueError("range propagation assumes f(0) = 0")
        c, p = self.growth
        return c * float(radius) ** p


def scaled_leaky(scale: float) -> Activation:
    """``scale * leaky_relu(0.2)`` for a scale >= 0; its Lipschitz constant
    is the scale."""
    c = float(scale)
    if not 0.0 <= c < math.inf:
        raise ValueError(f"activation 'scaled_leaky({c:g})': the scale {c:g} must be nonnegative "
                         "and finite")
    return Activation(f"scaled_leaky({c:g})", lambda s: c * np.where(s >= 0.0, s, 0.2 * s), abs(c))


def _groupsort2(v: np.ndarray) -> np.ndarray:
    out = np.array(v, dtype=float, copy=True)
    n = out.shape[-1] - out.shape[-1] % 2
    a = out[..., 0:n:2].copy()
    b = out[..., 1:n:2].copy()
    out[..., 0:n:2] = np.minimum(a, b)
    out[..., 1:n:2] = np.maximum(a, b)
    return out


def _leaky_relu(a: float = 0.2) -> Activation:
    """s for s >= 0, else a·s.  For 0 < a <= 1 that is max(s, a·s) bit for
    bit, one pass fewer.  Other slopes keep the select: above 1 the max
    picks the wrong branch, a = 0 differs at +inf (0·inf is NaN) and a < 0
    at ±0."""
    if 0.0 < a <= 1.0:
        fun = lambda s: np.maximum(s, a * s)
    else:
        fun = lambda s: np.where(s >= 0.0, s, a * s)
    return Activation(f"leaky_relu({a:g})", fun, max(abs(a), 1.0))


# name -> (factory, parameter): whether the factory takes no parameter
# (None), an optional one or a required one
_ACTIVATIONS = {
    "identity": (lambda: Activation("identity", lambda s: s, 1.0), None),
    "leaky_relu": (_leaky_relu, "optional"),
    "recu": (lambda: Activation("recu", lambda s: np.maximum(s, 0.0) ** 3, math.inf,
                                growth=(1.0, 3)), None),
    "tanh": (lambda: Activation("tanh", np.tanh, 1.0), None),
    "scaled_leaky": (scaled_leaky, "required"),
    "groupsort2": (lambda: Activation("groupsort2", _groupsort2, 1.0, entrywise=False), None),
}


def activation_from_name(name: str) -> Activation:
    """The activation a name such as ``tanh`` or ``leaky_relu(0.3)`` denotes.

    A malformed name, a parameter on a name that takes none, a missing
    parameter and a non-finite one are refused with ValueError.
    """
    known = sorted(_ACTIVATIONS)
    match = re.fullmatch(r"(\w+)(?:\((.*)\))?", name) if isinstance(name, str) else None
    if match is None or match[1] not in known:
        raise ValueError(f"unknown activation {name!r}; know {known}")
    bare, arg = match[1], match[2]
    factory, parameter = _ACTIVATIONS[bare]
    if arg is None:
        if parameter == "required":
            raise ValueError(f"activation {bare!r} needs a parameter, as in '{bare}(0.5)'")
        return factory()
    if parameter is None:
        raise ValueError(f"activation {bare!r} takes no parameter, got {name!r}")
    try:
        value = float(arg)
    except ValueError as err:
        raise ValueError(f"activation {name!r}: the parameter must be a number") from err
    if not math.isfinite(value):
        raise ValueError(f"activation {name!r}: the parameter must be finite")
    return factory(value)
