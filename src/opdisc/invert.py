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
inverted block by block in reverse order, a whole batch of targets per
kernel call; :func:`global_inverse_check` turns this into a sampled
homeomorphism verdict: roundtrip errors in both directions plus one strong
monotonicity certificate per block.  Every inverted target records an
:class:`InversionTrace` that keeps the full residual history so the
geometric decay can be audited after the fact.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from .layers import InvertibleResidualChain, ResidualChain, eval_map
from .monotone import ball_samples, contraction_certificate, pairwise_alpha
from .operators import Identity, Reflection

__all__ = [
    "DomainError",
    "InversionError",
    "InversionTrace",
    "BanachSolve",
    "banach_solve",
    "ChainInverseResult",
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
    (x_0 is the solve's ``start``, y by default).  Each row stops at its
    own count, the first evaluation at which its residual was <= tol: from
    there on its iterate is held while slower rows step on, so ``x[i]`` is
    the iterate whose residual ends its history ``residuals[:counts[i],
    i]``, and a row's result does not depend on which rows share its batch.
    ``budgets[i]`` is its a priori bound, which the count never exceeds.
    """

    x: np.ndarray
    counts: np.ndarray
    residuals: np.ndarray
    budgets: np.ndarray

    def history(self, row: int) -> tuple:
        return tuple(float(r) for r in self.residuals[: self.counts[row], row])


def _first_iterate(y: np.ndarray, start) -> np.ndarray:
    """A solve's first iterate: a float copy of ``start`` (of y when None),
    refused unless it has y's shape."""
    x = np.array(y if start is None else start, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"start has shape {x.shape}, but y has shape {y.shape}")
    return x


def banach_solve(
    f, y, q: float, tol: float, *, radius: float | None = None, start=None
) -> BanachSolve:
    """Solve f(x) = y for f = Id + B with Lip(B) <= q < 1 by Banach iteration.

    ``y`` holds one target ``(m,)`` or a ``(..., m)`` batch, iterated
    together by the residual step x <- x - (f(x) - y) from ``start`` (y's
    shape; y when None).  Every evaluation covers the whole batch, but a
    row whose residual is <= tol holds its iterate, so each row stops at
    its own count and the loop ends with the slowest one.  Each row's
    budget ``_apriori_iterations(r0, q, tol)`` follows from q and its first
    residual r0, the residual at ``start``, so a start near the solution
    shrinks the budget and a start within tol returns after one
    evaluation.  Raises :class:`InversionError` with an ``[invert]``
    message at once on a non-finite residual, and when a row is still above
    tol after its budget (then B is no q-contraction where it was
    evaluated).  ``radius`` is the ball on which q certifies B: an iterate
    outside it raises :class:`DomainError` before f sees it.  Both per-row
    errors name the failing row's index in row-major order.
    """
    if not 0.0 <= q < 1.0:
        raise ValueError(f"contraction bound q must lie in [0, 1), got {q}")
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    y = np.asarray(y, dtype=float)
    x = _first_iterate(y, start)
    history = []
    while True:
        k = len(history) + 1
        if radius is not None:
            reach = np.linalg.norm(x, axis=-1).reshape(-1)
            if reach.max(initial=0.0) > radius:
                i = reach.argmax()
                raise DomainError(
                    f"[invert] iterate {k} lies outside the certified ball: "
                    f"row {i} has |x| = {reach[i]:.6g} > {radius:.6g}"
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
                    f"(row {i}, last residual {rnorm[i]:g})"
                )
        # a single row below tol has ended the loop, so only a batch holds
        if rnorm.size > 1 and rnorm.min() <= tol:
            x = np.where((rnorm <= tol).reshape(x.shape[:-1] + (1,)), x, x - res)
        else:
            x = x - res
    residuals = np.array(history)
    counts = np.argmax(residuals <= tol, axis=0) + 1
    return BanachSolve(x=x, counts=counts, residuals=residuals, budgets=budgets)


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


def _chain_parts(chain) -> tuple:
    """The chain's ``(blocks, rates, radii)``: each block's certified rate
    and the ball it holds on (None: the rate holds globally)."""
    if chain is None:
        return (), (), ()
    if isinstance(chain, InvertibleResidualChain):
        rates, radii = [], []
        for net in chain.blocks:
            local = not np.isfinite(net.spectral_bound)
            bound = net.ball_bound(chain.ball_radius) if local else net.spectral_bound
            rates.append(min(float(bound), chain.delta))
            radii.append(chain.ball_radius if local else None)
        return chain.blocks, tuple(rates), tuple(radii)
    if isinstance(chain, ResidualChain):
        rates = []
        for i, net in enumerate(chain.blocks):
            bound = float(net.spectral_bound)
            if not np.isfinite(bound) or bound >= 1.0:
                raise ValueError(
                    f"block {i} carries no contraction certificate "
                    f"(bound {bound:.6g}); wrap the chain with a certified "
                    "delta or a ball-local certificate first"
                )
            rates.append(bound)
        return chain.blocks, tuple(rates), (None,) * len(rates)
    raise TypeError(f"cannot invert an object of type {type(chain).__name__}")


def _apply_head_inverse(a0, x: np.ndarray) -> np.ndarray:
    """Invert the linear head, which must be an identity or a reflection.

    Both are involutions, so applying the operator once IS its inverse.
    """
    if a0 is None or isinstance(a0, Identity):
        return np.array(x, dtype=float, copy=True)
    if isinstance(a0, Reflection):
        return a0.apply_array(x)
    raise TypeError(
        f"the linear head must be the identity or a reflection; got {type(a0).__name__}"
    )


@dataclass(frozen=True)
class ChainInverseResult:
    """Inverse points plus the audit trail of the block-by-block solve.

    ``x`` has the targets' shape; ``traces`` holds one audited
    :class:`InversionTrace` per target, in row-major order.
    """

    x: np.ndarray
    traces: tuple
    roundtrip_target: float

    @property
    def trace(self) -> InversionTrace:
        """The trace of a single target's inversion."""
        if self.x.ndim != 1:
            raise ValueError("a batched inversion has one trace per target; read traces")
        return self.traces[0]

    def targets(self) -> tuple["ChainInverseResult", ...]:
        """One single-target result per target, in row-major order."""
        xs = self.x.reshape(-1, self.x.shape[-1])
        return tuple(
            ChainInverseResult(x, (trace,), self.roundtrip_target)
            for x, trace in zip(xs, self.traces)
        )

    def as_dict(self) -> dict:
        """The ``invert`` artifact of a single target's inversion."""
        return {
            "x": self.x.tolist(),
            "trace": self.trace.as_dict(),
            "roundtrip_target": self.roundtrip_target,
        }


def invert_chain(chain, a0, y: np.ndarray, *, tol: float = 1e-10) -> ChainInverseResult:
    """Invert ``chain(a0(x)) = y``: blocks in reverse order, then the head.

    ``y`` holds one target ``(m,)`` or a ``(..., m)`` batch.  Each block
    makes one :func:`banach_solve` call on the batch's prefix coordinates
    at its certified rate; the tail passes through.  ``tol`` is the
    per-block residual target; the reported ``roundtrip_target`` is the
    resulting worst-case forward-map residual ``T * tol / (1 - delta_max)**T``
    (each block error can be amplified by every inverse map applied after
    it).  A ball-local chain certifies its unbounded blocks on the ball of
    its ``ball_radius`` only, so a target whose inversion leaves that ball
    raises :class:`DomainError`.

    To solve k targets together so that each one's ``x`` and trace are bit
    for bit those of solving it alone, stack them as ``(k, 1, m)``, not
    ``(k, m)``: numpy runs each item of a ``(k, 1, m) @ (m, n)`` product
    through the same GEMV a lone ``(m,)`` target gets, while a ``(k, m)``
    GEMM rounds differently (by about 2e-16).  :meth:`targets` splits such
    a result into single-target ones.
    """
    blocks, rates, radii = _chain_parts(chain)
    x = np.asarray(y, dtype=float)
    if chain is not None and x.shape[-1:] != (chain.dim,):
        raise ValueError(
            f"y must have {chain.dim} coordinates on its last axis, got shape {x.shape}"
        )
    solves = []
    for net, rate, radius in zip(blocks[::-1], rates[::-1], radii[::-1]):
        n = net.n_in
        sol = banach_solve(lambda v: v + net.eval_array(v), x[..., :n], rate, tol, radius=radius)
        x = np.concatenate([sol.x, x[..., n:]], axis=-1)
        solves.append(sol)
    x = _apply_head_inverse(a0, x)
    solves.reverse()
    traces = []
    for row in range(math.prod(x.shape[:-1])):
        hists = tuple(sol.history(row) for sol in solves)
        trace = InversionTrace(
            iteration_counts=tuple(len(h) for h in hists),
            final_residuals=tuple(h[-1] for h in hists),
            residual_histories=hists,
            apriori_bounds=tuple(sol.budgets[row] for sol in solves),
            deltas=rates,
            tol=tol,
        )
        traces.append(trace)
    n_blocks = len(blocks)
    target = n_blocks * tol / (1.0 - max(rates)) ** n_blocks if n_blocks else 0.0
    return ChainInverseResult(x=x, traces=tuple(traces), roundtrip_target=float(target))


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
    ``1 - delta`` floor that ``contraction_certificate(delta)`` gives.
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

    x_rec = invert_chain(chain, None, chain.eval_array(xs), tol=tol).x
    err_left = float(np.max(np.linalg.norm(x_rec - xs, axis=-1)))
    x_rec = invert_chain(chain, None, xs, tol=tol).x
    err_right = float(np.max(np.linalg.norm(chain.eval_array(x_rec) - xs, axis=-1)))

    alphas = []
    floor = contraction_certificate(chain.delta).alpha
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
