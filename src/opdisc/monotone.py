"""Monotonicity and bilipschitz certification.

Sampled estimators (upper bounds by construction) live alongside one
proof-grade certificate: a map Id + B with Lip(B) <= kappa < 1 is strongly
monotone with alpha = 1 - kappa, and every certified floor in the package
comes from :func:`contraction_certificate`.  Rejections are returned as
uncertified results carrying the violated quantity, not raised.

The sampled estimators evaluate the map once on the whole (n, m) sample
set and reduce over sample pairs with one shared pair-quotient kernel,
which the factorization and acceptance modules reuse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layers import eval_map
from .spectral import StageError

__all__ = [
    "MonotonicityCertificate",
    "BilipschitzEstimate",
    "pairwise_alpha",
    "contraction_certificate",
    "bilipschitz_estimate",
    "ball_samples",
    "map_dim",
]

_METHODS = ("sampled", "contraction")


@dataclass(frozen=True, eq=False)
class MonotonicityCertificate:
    """Strong-monotonicity constant with provenance.

    ``certified`` distinguishes proof-grade results (and sampled estimates
    that stayed positive) from rejections; a certificate can only be
    certified with alpha > 0.  Sampled results record their minimizing pair.
    """

    alpha: float
    method: str
    certified: bool
    ball_radius: float | str = "global"
    sample_count: int = 0
    seed: int | None = None
    minimizing_pair: tuple | None = None
    ratio: float | None = None
    note: str = ""

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"unknown certificate method {self.method!r}")
        if self.certified and not self.alpha > 0.0:
            raise ValueError("certified status requires alpha > 0")

    def as_dict(self) -> dict:
        d = {
            "alpha": self.alpha,
            "method": self.method,
            "certified": self.certified,
            "ball_radius": self.ball_radius,
            "sample_count": self.sample_count,
            "seed": self.seed,
        }
        if self.ratio is not None:
            d["ratio"] = self.ratio
        if self.note:
            d["note"] = self.note
        if self.minimizing_pair is not None:
            d["minimizing_pair"] = [list(p) for p in self.minimizing_pair]
        return d


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


def map_dim(f) -> int | None:
    """Ambient dimension of a map, when it carries one."""
    d = getattr(f, "dim", None)
    return int(d) if isinstance(d, (int, np.integer)) else None


def _resolve_dim(f, dim: int | None) -> int:
    m = dim if dim is not None else map_dim(f)
    if m is None:
        raise ValueError("map has no intrinsic dimension; pass dim=")
    return m


def _check_prefix(d: int, m: int) -> int:
    """A prefix dimension: the span of the first d of m coordinates."""
    if not 1 <= d <= m:
        raise ValueError(f"prefix dimension {d} must lie in 1..{m}")
    return d


def ball_samples(
    dim: int,
    r: float,
    n: int,
    seed: int = 0,
    prefix: int | None = None,
) -> np.ndarray:
    """(n, dim) rows in the closed ball of radius r, optionally confined to
    the first ``prefix`` coordinates."""
    if not 0.0 < r < math.inf:
        raise ValueError(f"ball radius r must be positive and finite, got {r}")
    if n < 0:
        raise ValueError("sample count must be nonnegative")
    d = dim if prefix is None else _check_prefix(prefix, dim)
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, d))
    radii = r * rng.uniform(size=n) ** (1.0 / 3.0)
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0
    g *= (radii / norms)[:, None]
    out = np.zeros((n, dim))
    out[:, :d] = g
    return out


# entries of one chunk's (pairs, m) difference block: 256 KB of float64
_CHUNK_ENTRIES = 1 << 15


def _pair_quotients(xs: np.ndarray, ys: np.ndarray, with_dydy: bool = True):
    """Per-pair scalars over the non-degenerate sample pairs i < j.

    Returns ``(i, j, dist2, dydx, dydy)``: |Δx|², <Δy, Δx> and |Δy|² of
    each kept pair, in ``triu_indices`` order; ``dydy`` is None when
    ``with_dydy`` is false.  The pairs are walked in chunks of about
    ``_CHUNK_ENTRIES / m`` so that no (pairs, m) difference array larger
    than one chunk is ever held; each pair's row reductions are the ones a
    single full gather would do, so the scalars are the same to the bit.
    """
    i, j = np.triu_indices(xs.shape[0], k=1)
    dist2 = np.empty(i.size)
    dydx = np.empty(i.size)
    dydy = np.empty(i.size) if with_dydy else None
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
        dydx[lo : lo + step] = np.einsum("ij,ij->i", dy, dx)
        if with_dydy:
            dydy[lo : lo + step] = np.einsum("ij,ij->i", dy, dy)
    ok = dist2 >= 1e-24  # degenerate pairs are skipped
    return i[ok], j[ok], dist2[ok], dydx[ok], None if dydy is None else dydy[ok]


def _sup_quotient(xs: np.ndarray, ys: np.ndarray) -> float:
    """max over sample pairs of |Δy| / |Δx| — a sampled Lipschitz constant
    (0 when every pair is degenerate); a non-finite one is a StageError."""
    _, _, dist2, _, dydy = _pair_quotients(xs, ys)
    lip = float(np.sqrt(np.max(dydy / dist2, initial=0.0)))
    if not math.isfinite(lip):
        raise StageError("sup_quotient", f"sampled Lipschitz quotient is {lip:g}, not finite")
    return lip


def pairwise_alpha(
    f,
    r: float = 1.0,
    n: int = 256,
    seed: int = 0,
    dim: int | None = None,
    prefix: int | None = None,
) -> MonotonicityCertificate:
    """Sampled strong-monotonicity estimate over pairs in the ball, or in
    its first ``prefix`` coordinates.

    The reported alpha is the minimum pair quotient
    <f(x1)-f(x2), x1-x2> / |x1-x2|^2, an upper bound for the true constant
    on that ball; the minimizing pair is recorded.  The n(n-1)/2 pairs are
    reduced in chunks of about 2^15 / d, where d is the prefix (m without
    one), so memory stays near one 256 KB chunk whatever n is.  A
    non-finite alpha (NaN once |Δx|² overflows) is refused with a
    StageError.
    """
    xs = ball_samples(_resolve_dim(f, dim), r, n, seed=seed, prefix=prefix)
    return _sampled_alpha(xs, eval_map(f, xs), r, seed, prefix)


def _sampled_alpha(
    xs: np.ndarray, ys: np.ndarray, r: float, seed: int, prefix: int | None
) -> MonotonicityCertificate:
    """:func:`pairwise_alpha` on samples it drew and their images.

    Samples in a prefix have zeros past it, so <Δy, Δx> and |Δx|² are sums
    over the first ``prefix`` columns alone; the recorded pair is the
    full-width rows.
    """
    if len(xs) < 2:
        raise ValueError("need at least two samples")
    cols = slice(None) if prefix is None else slice(prefix)
    i, j, dist2, dydx, _ = _pair_quotients(xs[:, cols], ys[:, cols], with_dydy=False)
    if dist2.size == 0:
        raise StageError("pairwise_alpha", "all sampled pairs were degenerate")
    quo = dydx / dist2
    k = int(np.argmin(quo))  # the first NaN, if any
    alpha = float(quo[k])
    if not math.isfinite(alpha):
        at = "" if prefix is None else f" at prefix {prefix}"
        raise StageError("pairwise_alpha", f"sampled alpha{at} is {alpha:g}, not a finite modulus")
    return MonotonicityCertificate(
        alpha=alpha,
        method="sampled",
        certified=alpha > 0.0,
        ball_radius=r,
        sample_count=len(xs),
        seed=seed,
        minimizing_pair=(xs[i[k]].copy(), xs[j[k]].copy()),
    )


def contraction_certificate(kappa: float) -> MonotonicityCertificate:
    """Strong monotonicity of Id + B from a bound Lip(B) <= kappa.

    For kappa < 1, <x - y + B(x) - B(y), x - y> >= (1 - kappa)|x - y|^2, so
    the certificate holds globally with alpha = 1 - kappa.  Any other kappa
    (inf for an unbounded middle map, NaN) is a rejection carrying it.
    """
    if kappa < 1.0:
        return MonotonicityCertificate(
            alpha=1.0 - kappa, method="contraction", certified=True, ratio=kappa
        )
    return MonotonicityCertificate(
        alpha=0.0,
        method="contraction",
        certified=False,
        ratio=kappa,
        note="the layer's contraction bound is not below one, so it carries no "
        "monotonicity certificate",
    )


def bilipschitz_estimate(
    f,
    r: float = 1.0,
    n: int = 256,
    seed: int = 0,
    dim: int | None = None,
) -> BilipschitzEstimate:
    """Sampled distortion bracket: min and max of |f(x1)-f(x2)|/|x1-x2|."""
    if n < 2:
        raise ValueError("need at least two samples")
    xs = ball_samples(_resolve_dim(f, dim), r, n, seed=seed)
    ys = eval_map(f, xs)
    _, _, dist2, _, dydy = _pair_quotients(xs, ys)
    if dist2.size == 0:
        raise StageError("bilipschitz_estimate", "all sampled pairs were degenerate")
    quo = np.sqrt(dydy / dist2)
    return BilipschitzEstimate(
        c_lower=float(np.min(quo)),
        c_upper=float(np.max(quo)),
        ball_radius=r,
        sample_count=n,
        seed=seed,
    )
