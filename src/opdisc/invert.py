"""Fixed-point inversion of residual chains.

A residual block ``x + B(x)`` with a certified contraction bound
``Lip(B) <= delta < 1`` is inverted by the Banach iteration

    x_{n+1} = y - B(x_n)

which converges geometrically at rate ``delta``.  A chain of such blocks
composed with an identity/reflection head is inverted block by block in
reverse order; :func:`global_inverse_check` turns this into a sampled
homeomorphism verdict: roundtrip errors in both directions plus one strong
monotonicity certificate per block.

Every inversion records an :class:`InversionTrace` that keeps the full
residual history so the geometric decay can be audited after the fact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .layers import CoordinateNetwork, InvertibleResidualChain, ResidualChain
from .monotone import ball_samples, pairwise_alpha
from .operators import Identity, LinearExpr, Reflection

__all__ = [
    "DomainError",
    "InversionError",
    "InversionTrace",
    "ChainInverseResult",
    "block_fixed_point",
    "invert_chain",
    "GlobalInverseReport",
    "global_inverse_check",
]


class InversionError(RuntimeError):
    """The fixed-point iteration failed to reach the requested residual."""


class DomainError(InversionError):
    """An iterate left the ball on which the inversion is defined."""


# ---------------------------------------------------------------------------
# trace bookkeeping
# ---------------------------------------------------------------------------


def _median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


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
    max_iter: int
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
            if block_ratios and _median(block_ratios) > deltas[b] + 0.05:
                raise ValueError(
                    f"block {b}: median contraction ratio "
                    f"{_median(block_ratios):.6g} exceeds delta + 0.05 = "
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
            "max_iter": self.max_iter,
        }


def _merge_traces(traces: Sequence[InversionTrace]) -> tuple:
    """Flatten single-block traces into parallel per-block tuples."""
    counts, finals, hists, bounds, deltas = [], [], [], [], []
    for t in traces:
        counts.extend(t.iteration_counts)
        finals.extend(t.final_residuals)
        hists.extend(t.residual_histories)
        bounds.extend(t.apriori_bounds)
        deltas.extend(t.deltas)
    return tuple(counts), tuple(finals), tuple(hists), tuple(bounds), tuple(deltas)


# ---------------------------------------------------------------------------
# single residual block
# ---------------------------------------------------------------------------


def _block_certificate(
    block: CoordinateNetwork,
    delta: float | None,
    ball_radius: float | None,
) -> float:
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
    return delta


def _apriori_iterations(first_step: float, delta: float, tol: float) -> int:
    """Geometric-series bound on the number of update steps.

    After ``n`` steps the step size is at most ``delta**(n-1)`` times the
    first one, and the returned point's residual equals its step size; the
    bound below even reaches the stricter ``tol*(1-delta)`` threshold that
    guarantees distance-to-fixed-point <= tol.
    """
    threshold = tol * (1.0 - delta)
    if first_step <= threshold or first_step == 0.0:
        return 1
    if delta == 0.0:
        # B is constant, so the second step is exact
        return 2
    return int(math.ceil(math.log(threshold / first_step) / math.log(delta))) + 1


def block_fixed_point(
    block: CoordinateNetwork,
    y: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    *,
    delta: float | None = None,
    ball_radius: float | None = None,
    domain_radius: float | None = None,
    domain_step: float | None = None,
    project_iterates: bool = False,
) -> tuple:
    """Solve ``x + embed(block(prefix(x))) = y`` by damped-free iteration.

    The block reads and writes only the first ``block.n_in`` coordinates,
    so the tail of ``x`` equals the tail of ``y`` exactly and only the
    prefix is iterated (``x <- y - B(x)``), starting at the data.  Returns
    ``(x, trace)``.

    When ``domain_radius`` is given, every iterate must stay inside the ball of
    radius ``domain_radius + domain_step`` (default step: the certified
    contraction bound); a violation raises :class:`DomainError` unless
    ``project_iterates`` rescales the iterate back onto the ball instead.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    if max_iter < 1:
        raise ValueError("need at least one iteration")
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise ValueError("y must be a single coefficient vector")
    if block.n_in != block.n_out:
        raise ValueError("residual block must be square on its prefix")
    if y.size < block.n_in:
        raise ValueError(
            f"y has {y.size} coordinates but the block needs {block.n_in}"
        )
    cert = _block_certificate(block, delta, ball_radius)
    n = block.n_in
    y_prefix = y[:n]
    tail = y[n:]
    allowed = None
    if domain_radius is not None:
        if domain_radius <= 0.0:
            raise ValueError("domain radius must be positive")
        allowed = domain_radius + (cert if domain_step is None else float(domain_step))

    x = y_prefix.copy()
    residuals: list = []
    first_step = 0.0
    converged = False
    for k in range(1, max_iter + 1):
        x_next = y_prefix - block.eval_array(x)
        step = float(np.linalg.norm(x_next - x))
        if k == 1:
            first_step = step
        # the residual of the current iterate IS the step to the next one:
        # ||x + B(x) - y|| = ||x - (y - B(x))||
        residuals.append(step)
        if allowed is not None:
            reach = math.hypot(float(np.linalg.norm(x_next)), float(np.linalg.norm(tail)))
            if reach > allowed + 1e-12:
                if not project_iterates:
                    raise DomainError(
                        f"iterate {k} left the inversion domain: |x| = {reach:.6g} "
                        f"> {allowed:.6g}"
                    )
                x_next = x_next * (allowed / reach)
        x = x_next
        if step <= tol:
            converged = True
            break
    if not converged:
        raise InversionError(
            f"fixed-point iteration did not reach tol={tol:.3g} in "
            f"{max_iter} iterations (last residual {residuals[-1]:.6g})"
        )
    final_residual = float(np.linalg.norm(x + block.eval_array(x) - y_prefix))
    bound = _apriori_iterations(first_step, cert, tol)
    trace = InversionTrace(
        iteration_counts=(len(residuals),),
        final_residuals=(final_residual,),
        residual_histories=(tuple(residuals),),
        apriori_bounds=(bound,),
        deltas=(cert,),
        tol=tol,
        max_iter=max_iter,
    )
    return np.concatenate([x, tail]), trace


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


def invert_chain(
    chain,
    a0,
    y: np.ndarray,
    *,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    domain_radius: float | None = None,
    project_iterates: bool = False,
) -> ChainInverseResult:
    """Invert ``chain(a0(x)) = y``: blocks in reverse order, then the head.

    ``tol`` is the per-block residual target; the reported
    ``roundtrip_target`` is the resulting worst-case forward-map residual
    ``T * tol / (1 - delta_max)**T`` (each block error can be amplified by
    every inverse map applied after it).  When ``domain_radius`` is given,
    the iterates of the block at forward position ``t`` (0-based) must stay
    inside the ball of radius ``domain_radius + (t + 1) * delta`` — the ball
    the forward chain itself cannot leave — else :class:`DomainError`
    (``project_iterates`` swaps the abort for a projection onto that ball).
    """
    blocks, deltas, ball_radius = _chain_parts(chain)
    x = np.asarray(y, dtype=float)
    if x.ndim != 1:
        raise ValueError("y must be a single coefficient vector")
    traces = []
    for i in range(len(blocks) - 1, -1, -1):
        x, t = block_fixed_point(
            blocks[i],
            x,
            tol,
            max_iter,
            delta=deltas[i],
            ball_radius=ball_radius,
            domain_radius=domain_radius,
            domain_step=(i + 1) * deltas[i] if domain_radius is not None else None,
            project_iterates=project_iterates,
        )
        traces.append(t)
    x = _apply_head_inverse(a0, x)
    counts, finals, hists, bounds, ds = _merge_traces(list(reversed(traces)))
    trace = InversionTrace(
        iteration_counts=counts,
        final_residuals=finals,
        residual_histories=hists,
        apriori_bounds=bounds,
        deltas=ds,
        tol=tol,
        max_iter=max_iter,
    )
    n_blocks = len(blocks)
    if n_blocks:
        worst = max(ds)
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
    max_iter: int = 100_000,
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
        x_rec = invert_chain(chain, None, y, tol=tol, max_iter=max_iter).x
        err_left = max(err_left, float(np.linalg.norm(x_rec - x_true)))

    err_right = 0.0
    for y in xs:
        x_rec = invert_chain(chain, None, y, tol=tol, max_iter=max_iter).x
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
