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

:func:`newton_solve` is the package's one damped Newton loop, batched the
same way, for maps with no contraction rate: ``opdisc.galerkin``'s
finite-element solve descends its convex energy with it, and
``opdisc.decompose``'s finite-difference inverter the residual norm.

A chain of residual blocks composed with an identity/reflection head is
inverted block by block in reverse order, a whole batch of targets per
kernel call.  A :class:`~opdisc.layers.ResidualChain` carries one
certified rate and one radius (None: the rate holds globally) per block,
and :func:`invert_chain` reads nothing else.  Every inverted target records
an :class:`InversionTrace` of its residual histories, which audits them at
construction: a failed ratio, decay or budget audit is a ``StageError`` of
stage ``invert``.  Checks of what the solvers return belong to the
acceptance criteria, and artifact layouts to the command-line runners.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from .layers import eval_map
from .operators import Identity, Reflection
from .spectral import StageError

__all__ = [
    "DomainError",
    "InversionError",
    "InversionTrace",
    "BanachSolve",
    "banach_solve",
    "NewtonSolve",
    "newton_solve",
    "ChainInverseResult",
    "invert_chain",
]


class InversionError(StageError):
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
    construction, so a trace object is itself the audit.  A failed check
    raises :class:`StageError` of stage ``invert``.
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
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tolerance tol must be positive and finite, got {self.tol}")
        ratios = []
        for b, hist in enumerate(hists):
            if len(hist) != counts[b]:
                raise ValueError(f"block {b}: history length disagrees with its count")
            block_ratios = tuple(hist[k] / hist[k - 1] for k in range(1, len(hist)))
            ratios.append(block_ratios)
            if block_ratios and statistics.median(block_ratios) > deltas[b] + 0.05:
                raise StageError(
                    "invert", f"block {b}: median contraction ratio "
                    f"{statistics.median(block_ratios):.6g} exceeds delta + 0.05 = "
                    f"{deltas[b] + 0.05:.6g}"
                )
            # strict decay is only promised once the contraction has acted,
            # i.e. from the second recorded residual on
            for k in range(2, len(hist)):
                if not (hist[k] < hist[k - 1] or hist[k] == 0.0):
                    raise StageError(
                        "invert", f"block {b}: residual rose at iteration {k + 1} "
                        f"({hist[k - 1]:.6g} -> {hist[k]:.6g})"
                    )
            if counts[b] > bounds[b]:
                raise StageError(
                    "invert", f"block {b}: took {counts[b]} iterations, a priori bound "
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


# ---------------------------------------------------------------------------
# the Banach and Newton kernels
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
    evaluation.  Raises :class:`InversionError`, of stage ``invert``,
    at once on a non-finite residual, and when a row is still above
    tol after its budget (then B is no q-contraction where it was
    evaluated).  ``radius`` is the ball on which q certifies B: an iterate
    outside it raises :class:`DomainError` before f sees it.  Both per-row
    errors name the failing row's index in row-major order.
    """
    if not 0.0 <= q < 1.0:
        raise ValueError(f"contraction bound q must lie in [0, 1), got {q}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance tol must be positive and finite, got {tol}")
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
                    "invert", f"iterate {k} lies outside the certified ball: "
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
                "invert", f"fixed-point residual is not finite at evaluation {k} "
                f"(last residual {worst:g})"
            )
        if k == 1:
            budgets = _apriori_iterations(rnorm, q, tol)
        if worst <= tol:
            break
        spent = (rnorm > tol) & (budgets <= k)
        if spent.any():
            i = spent.argmax()
            raise InversionError(
                "invert", f"fixed-point iteration did not reach tol={tol:g} within "
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


# Per-row step budget of the Newton kernel.  Hand-set and unproven: no
# convergence bound derives it.  The most steps any row takes is 4, in
# decompose at κ = 1.5 and in a finite-element solve of the solve bench.
NEWTON_STEPS = 100

# The step scales λ = 2⁰, 2⁻¹, …, 2⁻³³ that a Newton line search tries, in
# order: a fixed ladder, so every search ends after at most 34 trials.
LINE_SEARCH = 0.5 ** np.arange(34)


@dataclass(frozen=True)
class NewtonSolve:
    """Solution of :func:`newton_solve`: ``merits[k, i]`` and
    ``residuals[k, i]`` are row i's at its k-th iterate (0 is the start) and
    ``scales[k, i]`` the λ of the step that reached it (0: no step).  A row
    holds from its first iterate with residual <= tol on."""

    x: np.ndarray
    merits: np.ndarray
    residuals: np.ndarray
    scales: np.ndarray


def newton_solve(evaluate, direction, x, tol: float, stage: str) -> NewtonSolve:
    """Damped Newton on the rows of the ``(rows, m)`` stack ``x``, from x.

    ``evaluate(x, rows)`` returns the states, residual norms and merits of
    iterates ``x`` of the batch rows ``rows``: a state is one row of what
    the step reads, the residual and whatever else ``evaluate`` computed
    that the step reuses.  ``direction(x, state)`` returns the Newton steps
    d of iterates from the states ``evaluate`` returned for them, kept for
    each accepted trial.  The rows above tol step together: each
    trial x − λ·d, λ in ``LINE_SEARCH``, is one ``evaluate`` of the rows
    still searching, and a row accepts the first trial that lowers its
    merit, or ties it and lowers its residual norm.  A NaN residual is never
    below tol.  A line search out of λ, or a row above tol after
    ``NEWTON_STEPS`` steps, raises :class:`StageError` of ``stage``.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tolerance tol must be positive and finite, got {tol}")
    x = np.array(x, dtype=float)
    state, rnorm, merit = evaluate(x, np.arange(len(x)))
    history = [(merit.copy(), rnorm.copy(), np.zeros(len(x)))]
    for _ in range(NEWTON_STEPS):
        act = np.flatnonzero(~(rnorm <= tol))
        if not act.size:
            break
        steps, scale = direction(x[act], state[act]), np.zeros(len(x))
        for lam in LINE_SEARCH:
            if not act.size:
                break
            cand = x[act] - lam * steps
            cstate, cnorm, cmerit = evaluate(cand, act)
            ok = (cmerit < merit[act]) | ((cmerit == merit[act]) & (cnorm < rnorm[act]))
            done = act[ok]
            x[done], state[done] = cand[ok], cstate[ok]
            rnorm[done], merit[done] = cnorm[ok], cmerit[ok]
            scale[done] = lam
            act, steps = act[~ok], steps[~ok]
        if act.size:
            raise StageError(stage, f"Newton line search stagnated at residual {rnorm[act[0]]:g}")
        history.append((merit.copy(), rnorm.copy(), scale))
    bad = np.flatnonzero(~(rnorm <= tol))
    if bad.size:
        raise StageError(
            stage, f"Newton did not reach tol={tol:g} in {NEWTON_STEPS} "
            f"steps (last residual {rnorm[bad[0]]:g})"
        )
    return NewtonSolve(x, *(np.array(h) for h in zip(*history)))


# ---------------------------------------------------------------------------
# chains
# ---------------------------------------------------------------------------


def _apply_head_inverse(a0, x: np.ndarray) -> np.ndarray:
    """Invert the linear head: None copies x, and an identity or a
    reflection applies itself, since both are involutions."""
    if a0 is None:
        return np.array(x, dtype=float, copy=True)
    if isinstance(a0, Identity | Reflection):
        return a0.eval_array(x)
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


def invert_chain(chain, a0, y: np.ndarray, *, tol: float = 1e-10) -> ChainInverseResult:
    """Invert ``chain(a0(x)) = y``: blocks in reverse order, then the head.

    ``chain`` is any chain carrying ``blocks`` with their certified
    ``rates`` and ``radii``; a rate not below 1 is refused.  ``y`` holds one
    target ``(m,)`` or a ``(..., m)`` batch.  Each block makes one
    :func:`banach_solve` call on the batch's prefix coordinates at its rate
    and radius; the tail passes through.  ``tol`` is the per-block residual
    target; the reported ``roundtrip_target`` is the
    resulting worst-case forward-map residual ``T * tol / (1 - delta_max)**T``
    (each block error can be amplified by every inverse map applied after
    it).  A ball-local chain certifies its unbounded blocks on the ball of
    its ``ball_radius`` only, so a target whose inversion leaves that ball
    raises :class:`DomainError`.

    To solve k targets together so that each one's ``x`` and trace are bit
    for bit those of solving it alone, stack them as ``(k, 1, m)``, not
    ``(k, m)``: numpy runs each item of a ``(k, 1, m) @ (m, n)`` product
    through the same GEMV a lone ``(m,)`` target gets, while a ``(k, m)``
    GEMM rounds differently (by about 2e-16).
    """
    if not hasattr(chain, "rates"):
        raise TypeError(f"cannot invert an object of type {type(chain).__name__}")
    blocks, rates, radii = chain.blocks, chain.rates, chain.radii
    for i, rate in enumerate(rates):
        if not rate < 1.0:
            raise StageError("invert", f"block {i} carries no contraction certificate "
                             f"(bound {rate:.6g}); give the chain a contraction bound delta, "
                             "and a ball_radius for a ball-local one")
    x = np.asarray(y, dtype=float)
    if x.shape[-1:] != (chain.dim,):
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
    target = n_blocks * tol / (1.0 - max(rates)) ** n_blocks
    return ChainInverseResult(x=x, traces=tuple(traces), roundtrip_target=float(target))
