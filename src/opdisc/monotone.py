"""Monotonicity and bilipschitz estimates, and the one certificate.

Sampled estimators give upper bounds on the true constants, by
construction, and return plain records of what they measured.  The one
proof-grade result is structural: a map Id + B with Lip(B) <= kappa < 1 is
strongly monotone with modulus 1 - kappa, and every certified floor in the
package comes from :func:`contraction_certificate`, which returns that
modulus, or None when kappa gives none.

The sampled estimators draw in the ball of the map's own dimension (a
subspace is sampled through ``discretize.compress``), evaluate the map once
on the whole (n, m) sample set and reduce over sample pairs with one shared
pair-quotient kernel, which the factorization and acceptance modules reuse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layers import eval_map
from .spectral import StageError

__all__ = [
    "ModulusEstimate",
    "BilipschitzEstimate",
    "pairwise_alpha",
    "contraction_certificate",
    "bilipschitz_estimate",
    "ball_samples",
    "map_dim",
]


@dataclass(frozen=True, eq=False)
class ModulusEstimate:
    """Sampled strong-monotonicity modulus: the minimum pair quotient over
    the samples, an upper bound on the true modulus, and the pair that
    attains it."""

    alpha: float
    ball_radius: float
    sample_count: int
    seed: int
    minimizing_pair: tuple


@dataclass(frozen=True, eq=False)
class BilipschitzEstimate:
    """Sampled two-sided Lipschitz bracket: quotient min and max."""

    c_lower: float
    c_upper: float
    ball_radius: float
    sample_count: int
    seed: int

    def __post_init__(self) -> None:
        if not 0.0 < self.c_lower <= self.c_upper:
            raise ValueError(
                f"need 0 < c_lower <= c_upper, got ({self.c_lower}, {self.c_upper})"
            )


def map_dim(f) -> int:
    """Ambient dimension of a map; a map that carries none is refused."""
    d = getattr(f, "dim", None)
    if not isinstance(d, (int, np.integer)):
        raise ValueError("map has no intrinsic dimension; pass dim=")
    return int(d)


def _resolve_dim(f, dim: int | None) -> int:
    return dim if dim is not None else map_dim(f)


def ball_samples(dim: int, r: float, n: int, seed: int = 0) -> np.ndarray:
    """(n, dim) rows in the closed ball of radius r."""
    if not 0.0 < r < math.inf:
        raise ValueError(f"ball radius r must be positive and finite, got {r}")
    if n < 0:
        raise ValueError("sample count must be nonnegative")
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, dim))
    radii = r * rng.uniform(size=n) ** (1.0 / 3.0)
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0
    g *= (radii / norms)[:, None]
    return g


# entries of one chunk's (pairs, m) difference block: 256 KB of float64
_CHUNK_ENTRIES = 1 << 15


def _pair_quotients(xs: np.ndarray, ys: np.ndarray, inner: bool = False):
    """One quotient per non-degenerate sample pair i < j.

    Returns ``(i, j, q)`` in ``triu_indices`` order, where q is
    <Δy, Δx> / |Δx|² when ``inner`` is true and |Δy|² / |Δx|² otherwise.
    The pairs are walked in chunks of about ``_CHUNK_ENTRIES / m`` so that
    no (pairs, m) difference array larger than one chunk is ever held; each
    pair's row reductions are the ones a single full gather would do, so
    the quotients are the same to the bit.
    """
    i, j = np.triu_indices(xs.shape[0], k=1)
    dist2 = np.empty(i.size)
    num = np.empty(i.size)
    step = max(1, _CHUNK_ENTRIES // max(1, xs.shape[1]))
    # the gather buffers of every chunk, in one block per call: chunk-sized
    # temporaries sit above malloc's initial mmap threshold, and freeing
    # them in pieces costs an mmap or a heap trim, and page faults, per chunk
    xa, xb, ya, yb = np.empty((4, min(step, i.size), xs.shape[1]))
    for lo in range(0, i.size, step):
        ci, cj = i[lo : lo + step], j[lo : lo + step]
        rows = ci.size
        dx = np.subtract(
            xs.take(ci, axis=0, out=xa[:rows], mode="clip"),
            xs.take(cj, axis=0, out=xb[:rows], mode="clip"),
            out=xa[:rows],
        )
        dy = np.subtract(
            ys.take(ci, axis=0, out=ya[:rows], mode="clip"),
            ys.take(cj, axis=0, out=yb[:rows], mode="clip"),
            out=ya[:rows],
        )
        dist2[lo : lo + step] = np.einsum("ij,ij->i", dx, dx)
        num[lo : lo + step] = np.einsum("ij,ij->i", dy, dx if inner else dy)
    ok = dist2 >= 1e-24  # degenerate pairs are skipped
    return i[ok], j[ok], num[ok] / dist2[ok]


def _sup_quotient(xs: np.ndarray, ys: np.ndarray) -> float:
    """max over sample pairs of |Δy| / |Δx| — a sampled Lipschitz constant
    (0 when every pair is degenerate); a non-finite one is a StageError."""
    lip = float(np.sqrt(np.max(_pair_quotients(xs, ys)[2], initial=0.0)))
    if not math.isfinite(lip):
        raise StageError("sup_quotient", f"sampled Lipschitz quotient is {lip:g}, not finite")
    return lip


def pairwise_alpha(
    f,
    r: float = 1.0,
    n: int = 256,
    seed: int = 0,
    dim: int | None = None,
) -> ModulusEstimate:
    """Sampled strong-monotonicity estimate over pairs in the ball.

    The reported alpha is the minimum pair quotient
    <f(x1)-f(x2), x1-x2> / |x1-x2|^2, an upper bound for the true constant
    on that ball; the minimizing pair is recorded.  The n(n-1)/2 pairs are
    reduced in chunks of about 2^15 / m, so memory stays near one 256 KB
    chunk whatever n is.  A non-finite alpha (NaN once |Δx|² overflows) is
    refused with a StageError.
    """
    if n < 2:
        raise ValueError("need at least two samples")
    xs = ball_samples(_resolve_dim(f, dim), r, n, seed=seed)
    return _sampled_alpha(xs, eval_map(f, xs), r, seed)


def _sampled_alpha(xs: np.ndarray, ys: np.ndarray, r: float, seed: int) -> ModulusEstimate:
    """:func:`pairwise_alpha` of the ball samples ``xs``, drawn at radius r
    from ``seed``, and their images ``ys``."""
    i, j, quo = _pair_quotients(xs, ys, inner=True)
    if quo.size == 0:
        raise StageError("pairwise_alpha", "all sampled pairs were degenerate")
    k = int(np.argmin(quo))  # the first NaN, if any
    alpha = float(quo[k])
    if not math.isfinite(alpha):
        at = f"in dimension {xs.shape[1]}"
        raise StageError("pairwise_alpha", f"sampled alpha {at} is {alpha:g}, not a finite modulus")
    return ModulusEstimate(
        alpha=alpha,
        ball_radius=r,
        sample_count=len(xs),
        seed=seed,
        minimizing_pair=(xs[i[k]].copy(), xs[j[k]].copy()),
    )


def contraction_certificate(kappa: float) -> float | None:
    """The certified strong-monotonicity modulus of Id + B from a bound
    Lip(B) <= kappa.

    For kappa < 1, <x - y + B(x) - B(y), x - y> >= (1 - kappa)|x - y|^2, so
    the modulus 1 - kappa holds globally.  Any other kappa (inf for an
    unbounded middle map, NaN) certifies nothing: None.
    """
    return 1.0 - kappa if kappa < 1.0 else None


def bilipschitz_estimate(
    f,
    r: float,
    n: int = 256,
    seed: int = 0,
    dim: int | None = None,
) -> BilipschitzEstimate:
    """Sampled distortion bracket: min and max of |f(x1)-f(x2)|/|x1-x2|."""
    if n < 2:
        raise ValueError("need at least two samples")
    xs = ball_samples(_resolve_dim(f, dim), r, n, seed=seed)
    quo = _pair_quotients(xs, eval_map(f, xs))[2]
    if quo.size == 0:
        raise StageError("bilipschitz_estimate", "all sampled pairs were degenerate")
    quo = np.sqrt(quo)
    return BilipschitzEstimate(
        c_lower=float(np.min(quo)),
        c_upper=float(np.max(quo)),
        ball_radius=r,
        sample_count=n,
        seed=seed,
    )
