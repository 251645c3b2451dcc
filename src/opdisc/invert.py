"""Banach fixed-point inversion: one batched kernel, residual chains on top.

A map f = Id + B with a certified contraction bound ``Lip(B) <= q < 1`` is
inverted by the Banach iteration

    x_{n+1} = x_n - (f(x_n) - y) = y - B(x_n)

which shrinks the residual by at least ``q`` per step.  :func:`banach_solve`
is the package's one such loop: it takes a batch of targets, derives each
row's step budget from ``q`` and its first residual before iterating, and
refuses non-finite residuals, exhausted budgets and (for maps certified only
on a ball) iterates outside the ball.  ``opdisc.decompose`` inverts its
blocks with it too.

A chain of residual blocks composed with an identity/reflection head is
inverted block by block in reverse order; :func:`global_inverse_check`
turns this into a sampled homeomorphism verdict: roundtrip errors in both
directions plus one strong monotonicity certificate per block.  Every chain
inversion records an :class:`InversionTrace` that keeps the full residual
history so the geometric decay can be audited after the fact.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .layers import CoordinateNetwork, InvertibleResidualChain, ResidualChain, eval_map
from .monotone import ball_samples, pairwise_alpha
from .operators import Identity, LinearExpr, Reflection

__all__ = [
    "DomainError",
    "InversionError",
    "InversionTrace",
    "BanachSolve",
    "banach_solve",
    "ChainInverseResult",
    "block_fixed_point",
    "invert_chain",
    "GlobalInverseReport",
    "global_inverse_check",
]


class InversionError(RuntimeError):
    """The fixed-point iteration failed to reach the requested residual."""


class DomainError(InversionError):
    """An iterate left the ball on which the map's certificate holds."""


# ---------------------------------------------------------------------------
# trace bookkeeping
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InversionTrace:
    """Per-block record of a (possibly single-block) inversion run.

    ``residual_histories[i][k]`` is the residual of the k-th iterate of
    block ``i`` (block indices follow the chain's forward order, so the
    LAST entry belongs to the block that was inverted first).  Contraction
    ratios are consecutive residual quotients; their sampled median must
    stay within 0.05 of the certified bound, and residuals must decrease
    strictly once the first step is taken — both are checked here, at
    construction, so a trace object is itself the audit.
    """

    iteration_counts: tuple
    final_residuals: tuple
    residual_histories: tuple
    apriori_bounds: tuple
    deltas: tuple
    tol: float
    contraction_ratios: tuple = field(init=False)

    def __post_init__(self) -> None:
        counts = tuple(int(c) for c in self.iteration_counts)
        finals = tuple(float(r) for r in self.final_residuals)
        hists = tuple(tuple(float(r) for r in h) for h in self.residual_histories)
        bounds = tuple(int(b) for b in self.apriori_bounds)
        deltas = tuple(float(d) for d in self.deltas)
        n = len(counts)
        if not (len(finals) == len(hists) == len(bounds) == len(deltas) == n):
            raise ValueError("trace fields must have one entry per block")
        if self.tol <= 0.0:
            raise ValueError("tolerance must be positive")
        ratios = []
        for b, hist in enumerate(hists):
            if len(hist) != counts[b]:
                raise ValueError(f"block {b}: history length disagrees with its count")
            block_ratios = tuple(
                hist[k] / hist[k - 1] for k in range(1, len(hist)) if hist[k - 1] > 0.0
            )
            ratios.append(block_ratios)
            if block_ratios and statistics.median(block_ratios) > deltas[b] + 0.05:
                raise ValueError(
                    f"block {b}: median contraction ratio "
                    f"{statistics.median(block_ratios):.6g} exceeds delta + 0.05 = "
                    f"{deltas[b] + 0.05:.6g}"
                )
            # strict decay is only promised once the contraction has acted,
            # i.e. from the second recorded residual on
            for k in range(2, len(hist)):
                if not (hist[k] < hist[k - 1] or hist[k] == 0.0):
                    raise ValueError(
                        f"block {b}: residual rose at iteration {k + 1} "
                        f"({hist[k - 1]:.6g} -> {hist[k]:.6g})"
                    )
            if counts[b] > bounds[b]:
                raise ValueError(
                    f"block {b}: took {counts[b]} iterations, a priori bound "
                    f"allows {bounds[b]}"
                )
        object.__setattr__(self, "iteration_counts", counts)
        object.__setattr__(self, "final_residuals", finals)
        object.__setattr__(self, "residual_histories", hists)
        object.__setattr__(self, "apriori_bounds", bounds)
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "contraction_ratios", tuple(ratios))

    @property
    def n_blocks(self) -> int:
        return len(self.iteration_counts)

    @property
    def total_iterations(self) -> int:
        return int(sum(self.iteration_counts))

    def as_dict(self) -> dict:
        return {
            "iteration_counts": list(self.iteration_counts),
            "final_residuals": list(self.final_residuals),
            "residual_histories": [list(h) for h in self.residual_histories],
            "contraction_ratios": [list(r) for r in self.contraction_ratios],
            "apriori_bounds": list(self.apriori_bounds),
            "deltas": list(self.deltas),
            "tol": self.tol,
        }


# ---------------------------------------------------------------------------
# the Banach kernel
# ---------------------------------------------------------------------------


def _apriori_iterations(r0, q: float, tol: float) -> np.ndarray:
    """Residual evaluations after which a q-contraction's residual is <= tol.

    Elementwise over the first residuals ``r0``.  Each step x <- y - B(x)
    shrinks the residual by q (the residual of an iterate is the step to
    the next one), so the n-th evaluation sees at most ``q**(n-1) * r0``;
    the bound even reaches the stricter ``tol*(1-q)`` threshold that
    guarantees distance-to-fixed-point <= tol, which leaves room for
    rounding.
    """
    r0 = np.asarray(r0, dtype=float)
    threshold = tol * (1.0 - q)
    if q == 0.0:
        # B is constant, so the first step is exact
        return np.where(r0 <= threshold, 1, 2)
    # a first residual at or below the threshold needs log(1) = 0 steps
    steps = np.ceil(np.log(threshold / np.maximum(r0, threshold)) / math.log(q))
    return steps.astype(int) + 1


@dataclass(frozen=True)
class BanachSolve:
    """Solution of :func:`banach_solve` with its per-row audit.

    Rows are the targets in row-major order (a single target is one row).
    ``residuals[k, i]`` is ``||f(x_k) - y||`` of row i at the k-th iterate
    (x_0 = y).  The batch steps until its slowest row converges, so row i's
    count is the first evaluation at which its own residual was <= tol and
    its history is ``residuals[:counts[i], i]``; ``budgets[i]`` is its
    a priori bound, which the count never exceeds.
    """

    x: np.ndarray
    counts: np.ndarray
    residuals: np.ndarray
    budgets: np.ndarray

    def history(self, row: int) -> tuple:
        return tuple(float(r) for r in self.residuals[: self.counts[row], row])


def banach_solve(f, y, q: float, tol: float, *, radius: float | None = None) -> BanachSolve:
    """Solve f(x) = y for f = Id + B with Lip(B) <= q < 1 by Banach iteration.

    ``y`` holds one target ``(m,)`` or a ``(..., m)`` batch, iterated
    together from x = y by the residual step x <- x - (f(x) - y).  Each
    row's budget ``_apriori_iterations(r0, q, tol)`` follows from q and its
    first residual r0.  Raises :class:`InversionError` with an ``[invert]``
    message at once on a non-finite residual, and when a row is still above
    tol after its budget (then B is no q-contraction where it was
    evaluated).  ``radius`` is the ball on which q certifies B: an iterate
    outside it raises :class:`DomainError` before f sees it.
    """
    if not 0.0 <= q < 1.0:
        raise ValueError(f"contraction bound q must lie in [0, 1), got {q}")
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    y = np.asarray(y, dtype=float)
    x = y.copy()
    history = []
    while True:
        k = len(history) + 1
        if radius is not None:
            reach = float(np.max(np.linalg.norm(x, axis=-1), initial=0.0))
            if reach > radius:
                raise DomainError(
                    f"[invert] iterate {k} lies outside the certified ball: "
                    f"|x| = {reach:.6g} > {radius:.6g}"
                )
        res = eval_map(f, x) - y
        # np.linalg.norm(res, axis=-1) without its dispatch overhead
        rnorm = np.sqrt(np.add.reduce(res * res, axis=-1)).reshape(-1)
        history.append(rnorm)
        # NaN if any row's residual is NaN
        worst = float(rnorm.max(initial=0.0))
        if not math.isfinite(worst):
            raise InversionError(
                f"[invert] fixed-point residual is not finite at evaluation {k} "
                f"(last residual {worst:g})"
            )
        if k == 1:
            budgets = _apriori_iterations(rnorm, q, tol)
            first_deadline = budgets.min(initial=1)
        if worst <= tol:
            break
        if k >= first_deadline:
            spent = (rnorm > tol) & (budgets <= k)
            if spent.any():
                i = spent.argmax()
                raise InversionError(
                    f"[invert] fixed-point iteration did not reach tol={tol:g} within "
                    f"its derived budget of {budgets[i]} evaluations at rate q={q:g} "
                    f"(last residual {rnorm[i]:g})"
                )
        x = x - res
    residuals = np.array(history)
    counts = np.argmax(residuals <= tol, axis=0) + 1
    return BanachSolve(x=x, counts=counts, residuals=residuals, budgets=budgets)


# ---------------------------------------------------------------------------
# single residual block
# ---------------------------------------------------------------------------


def _block_certificate(
    block: CoordinateNetwork,
    delta: float | None,
    ball_radius: float | None,
) -> tuple:
    """The block's contraction bound and the ball it holds on (None: globally)."""
    radius = None if np.isfinite(block.spectral_bound) else ball_radius
    if delta is None:
        delta = block.spectral_bound
        if not np.isfinite(delta):
            if ball_radius is None:
                raise ValueError(
                    "block has no global Lipschitz certificate; pass "
                    "ball_radius= to certify it on a ball, or delta= directly"
                )
            delta = block.ball_bound(ball_radius)
    delta = float(delta)
    if not np.isfinite(delta) or delta >= 1.0:
        raise ValueError(
            f"refusing an uncertified block: contraction bound {delta:.6g} "
            "is not below 1"
        )
    if delta < 0.0:
        raise ValueError("contraction bound cannot be negative")
    return delta, radius


def _solve_block(block, y, tol, delta, ball_radius) -> tuple:
    """One block's inversion: ``(x, residual history, budget, certificate)``."""
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    if block.n_in != block.n_out:
        raise ValueError("residual block must be square on its prefix")
    if y.size < block.n_in:
        raise ValueError(
            f"y has {y.size} coordinates but the block needs {block.n_in}"
        )
    cert, radius = _block_certificate(block, delta, ball_radius)
    n = block.n_in
    sol = banach_solve(lambda v: v + block.eval_array(v), y[:n], cert, tol, radius=radius)
    return np.concatenate([sol.x, y[n:]]), sol.history(0), int(sol.budgets[0]), cert


def _trace(solves: Sequence[tuple], tol: float) -> InversionTrace:
    """The audited trace of per-block ``(history, budget, certificate)`` solves."""
    hists = tuple(h for h, _, _ in solves)
    return InversionTrace(
        iteration_counts=tuple(len(h) for h in hists),
        final_residuals=tuple(h[-1] for h in hists),
        residual_histories=hists,
        apriori_bounds=tuple(b for _, b, _ in solves),
        deltas=tuple(d for _, _, d in solves),
        tol=tol,
    )


def block_fixed_point(
    block: CoordinateNetwork,
    y: np.ndarray,
    tol: float = 1e-10,
    *,
    delta: float | None = None,
    ball_radius: float | None = None,
) -> tuple:
    """Solve ``x + embed(block(prefix(x))) = y`` by Banach iteration.

    The block reads and writes only the first ``block.n_in`` coordinates,
    so the tail of ``x`` equals the tail of ``y`` exactly and only the
    prefix is solved: :func:`banach_solve` on v + B(v) at the certified
    rate ``delta`` (default: the block's spectral bound), starting at the
    data.  A block without a global certificate is certified on the ball of
    radius ``ball_radius`` through ``ball_bound``, and refuses with
    :class:`DomainError` any iterate whose prefix leaves that ball.
    Returns ``(x, trace)``.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("y must be a single coefficient vector")
    x, history, budget, cert = _solve_block(block, y, tol, delta, ball_radius)
    return x, _trace([(history, budget, cert)], tol)


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


def _chain_parts(chain) -> tuple:
    """Normalize the chain argument to (blocks, deltas, ball_radius)."""
    if chain is None:
        return (), (), None
    if isinstance(chain, InvertibleResidualChain):
        deltas = tuple(
            min(
                float(net.spectral_bound)
                if np.isfinite(net.spectral_bound)
                else net.ball_bound(chain.ball_radius),
                chain.delta,
            )
            for net in chain.blocks
        )
        return chain.blocks, deltas, chain.ball_radius
    if isinstance(chain, ResidualChain):
        deltas = []
        for i, net in enumerate(chain.blocks):
            bound = float(net.spectral_bound)
            if not np.isfinite(bound) or bound >= 1.0:
                raise ValueError(
                    f"block {i} carries no contraction certificate "
                    f"(bound {bound:.6g}); wrap the chain with a certified "
                    "delta or a ball-local certificate first"
                )
            deltas.append(bound)
        return chain.blocks, tuple(deltas), None
    raise TypeError(f"cannot invert an object of type {type(chain).__name__}")


def _apply_head_inverse(a0, x: np.ndarray) -> np.ndarray:
    """Invert the linear head, which must be an identity or a reflection.

    Both are involutions, so applying the operator once IS its inverse.
    """
    if a0 is None or isinstance(a0, Identity):
        return np.array(x, dtype=float, copy=True)
    if isinstance(a0, Reflection):
        return a0.apply_array(x)
    if isinstance(a0, LinearExpr):
        raise ValueError(
            "the linear head must be the identity or a reflection; got "
            f"{type(a0).__name__}"
        )
    raise TypeError(f"linear head of type {type(a0).__name__} is not supported")


@dataclass(frozen=True)
class ChainInverseResult:
    """Inverse point plus the audit trail of the block-by-block solve."""

    x: np.ndarray
    trace: InversionTrace
    roundtrip_target: float

    def as_dict(self) -> dict:
        return {
            "x": [float(v) for v in np.asarray(self.x, dtype=float)],
            "trace": self.trace.as_dict(),
            "roundtrip_target": self.roundtrip_target,
        }


def invert_chain(chain, a0, y: np.ndarray, *, tol: float = 1e-10) -> ChainInverseResult:
    """Invert ``chain(a0(x)) = y``: blocks in reverse order, then the head.

    Each block is solved by :func:`block_fixed_point` at its certified
    rate.  ``tol`` is the per-block residual target; the reported
    ``roundtrip_target`` is the resulting worst-case forward-map residual
    ``T * tol / (1 - delta_max)**T`` (each block error can be amplified by
    every inverse map applied after it).  A ball-local chain certifies its
    unbounded blocks on the ball of its ``ball_radius`` only, so a target
    whose inversion leaves that ball raises :class:`DomainError`.
    """
    blocks, deltas, ball_radius = _chain_parts(chain)
    x = np.asarray(y, dtype=float)
    if x.ndim != 1:
        raise ValueError("y must be a single coefficient vector")
    solves = []
    for i in range(len(blocks) - 1, -1, -1):
        x, *solve = _solve_block(blocks[i], x, tol, deltas[i], ball_radius)
        solves.append(solve)
    x = _apply_head_inverse(a0, x)
    trace = _trace(solves[::-1], tol)
    n_blocks = len(blocks)
    if n_blocks:
        worst = max(trace.deltas)
        target = n_blocks * tol / (1.0 - worst) ** n_blocks
    else:
        target = 0.0
    return ChainInverseResult(x=x, trace=trace, roundtrip_target=float(target))


# ---------------------------------------------------------------------------
# sampled homeomorphism check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GlobalInverseReport:
    """Sampled two-sided roundtrip errors plus per-block monotonicity."""

    roundtrip_inverse_of_forward: float
    roundtrip_forward_of_inverse: float
    block_alphas: tuple
    alpha_floor: float
    delta: float
    radius: float
    n_samples: int
    seed: int
    cert_method: str
    tol: float

    def as_dict(self) -> dict:
        return {
            "roundtrip_inverse_of_forward": self.roundtrip_inverse_of_forward,
            "roundtrip_forward_of_inverse": self.roundtrip_forward_of_inverse,
            "block_alphas": list(self.block_alphas),
            "alpha_floor": self.alpha_floor,
            "delta": self.delta,
            "radius": self.radius,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "cert_method": self.cert_method,
            "tol": self.tol,
        }


def global_inverse_check(
    chain: InvertibleResidualChain,
    r: float,
    n: int,
    seed: int = 0,
    *,
    tol: float = 1e-10,
) -> GlobalInverseReport:
    """Sampled verdict that a certified residual chain is a homeomorphism.

    Evaluates both roundtrips on ``n`` points of the ball of radius ``r``
    (the same points serve as inputs and as targets) and certifies each
    block's strong monotonicity: the sampled modulus must reach the
    ``1 - delta`` floor the contraction bound guarantees.
    """
    if not isinstance(chain, InvertibleResidualChain):
        raise TypeError("global_inverse_check needs a certified chain")
    if r <= 0.0:
        raise ValueError("test radius must be positive")
    if n < 2:
        raise ValueError("need at least two samples")
    if chain.cert_method == "ball_local" and chain.ball_radius < r:
        raise ValueError(
            f"ball-local certificate (radius {chain.ball_radius:.6g}) does not "
            f"cover the requested test ball of radius {r:.6g}"
        )
    dim = chain.dim
    xs = ball_samples(dim, r, n, seed=seed)

    fwd = chain.chain.eval_array(xs)
    err_left = 0.0
    for x_true, y in zip(xs, fwd):
        x_rec = invert_chain(chain, None, y, tol=tol).x
        err_left = max(err_left, float(np.linalg.norm(x_rec - x_true)))

    err_right = 0.0
    for y in xs:
        x_rec = invert_chain(chain, None, y, tol=tol).x
        err_right = max(
            err_right,
            float(np.linalg.norm(chain.chain.eval_array(x_rec) - y)),
        )

    alphas = []
    floor = 1.0 - chain.delta
    for i in range(len(chain.blocks)):
        cert = pairwise_alpha(
            lambda v, _i=i: chain.chain.block_eval_array(_i, v),
            r=r,
            n=min(n, 64),
            seed=seed + 1 + i,
            dim=dim,
        )
        alphas.append(cert.alpha)
        if cert.alpha < floor - 1e-6:
            raise AssertionError(
                f"block {i}: sampled strong-monotonicity modulus "
                f"{cert.alpha:.6g} fell below the certified floor "
                f"{floor:.6g}"
            )
    return GlobalInverseReport(
        roundtrip_inverse_of_forward=err_left,
        roundtrip_forward_of_inverse=err_right,
        block_alphas=tuple(alphas),
        alpha_floor=floor,
        delta=chain.delta,
        radius=float(r),
        n_samples=int(n),
        seed=int(seed),
        cert_method=chain.cert_method,
        tol=tol,
    )
