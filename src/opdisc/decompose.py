"""Factor a bilipschitz residual layer into near-identity monotone blocks.

Given F = Id + T₂∘G∘T₁ bilipschitz on a ball, produce

    F = H_J ∘ … ∘ H₁ ∘ A₀        on B(0, r1),

where A₀ is the identity or a reflection and every H_k = Id + B_k has a
sampled Lipschitz constant Lip(B_k) below a requested epsilon.  One pass
runs each stage once:

1. pick a frame W spanning all singular directions of T₁, T₂ above a
   threshold h, so the core map F^W = Id + P_W T₂ G T₁ P_W is close to F
   and acts inside a finite frame;
2. only when W is a proper subspace, peel the tail factor Id + B̃ with
   F = (Id + B̃)∘F^W (on the whole space F^W = F, and the tail is Id);
3. on W coordinates, connect the core f to its linearization Df|₀ by the
   scaling path f_t(x) = (1/t)(f(tx) − f(0)) + t·f(0) and cut the path
   into blocks with a radial cutoff;
4. take A₀ as the reflection of the first W coordinate exactly when
   det Df|₀ < 0 (else the identity), and split Df|₀·A₀ by polar
   decomposition into a positive part (matrix-power path) and a rotation
   (a path of equal n-th roots).

The core F^W is the layer's network folded onto W once, at construction
(``NeuralOperatorLayer.fold``): c ↦ c + net(c) on k-wide ends, plus c·S for a
middle map on a coefficient prefix.  Where the ambient F^W is needed it is
the core lifted with the identity on W⊥.

Every map inverted along the way is Id + B with Lip(B) ≤ κ, the layer's
contraction product, and κ alone picks its solver.  Inverses are computed
on demand: at κ < 1 by the Banach fixed-point iteration x ← y − B(x) at
rate κ (``opdisc.invert``'s kernel, which derives each row's step budget
from κ and its initial residual); at κ ≥ 1, where Banach has no rate, by
``opdisc.invert``'s damped Newton kernel with the residual norm as its
merit and a batch of finite-difference Jacobians for its steps.  Both take
a batch of targets.

Every block is a frozen record with one evaluation, ``forward(x, start) ->
(y, carry)``: ``start`` is the first iterate of the block's W-coordinate
inversion and ``carry`` the W-coordinate preimage it solved for, or None.
``eval_array(x)`` is ``forward(x)[0]``, started cold.  Path blocks
telescope: block k solves p = f_{t_k}⁻¹(x) and outputs f_{t_{k+1}}(p),
which block k + 1 inverts again.  So ``DecompositionResult.eval_array``
hands each block's carry to the next as its start, and the residual there
decides whether it iterates at all.  A block evaluated on its own (any
check of one block) starts cold, so those checks still exercise the
inverter.

The two stages that measure blocks batch their cold inversions.
``peel_tail`` solves its roundtrip and its Lip sample as one 200-row
batch.  ``path_blocks`` measures the blocks that each refinement round
adds as one stack (``_measure_round``): under Banach, one inversion of
every f_{t_lo} and one evaluation of every f_{t_hi} over all the round's
blocks; Newton inverts one block at a time.  The Banach kernel stops each
row at its own count and holds its iterate from there, so a stacked
block measures bit for bit as it would alone.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .invert import _first_iterate, banach_solve, newton_solve
from .layers import CoordinateNetwork, NeuralOperatorLayer, central_differences, eval_map
from .monotone import _sup_quotient, ball_samples, bilipschitz_estimate
from .operators import Identity, Reflection, _orthonormal, spectral_norm
from .spectral import StageError

__all__ = [
    "Frame",
    "DecompositionResult",
    "quintic_smoothstep",
    "choose_w",
    "peel_tail",
    "path_blocks",
    "linear_path_blocks",
    "decompose",
]


@contextmanager
def _stage(name: str):
    try:
        yield
    except Exception as exc:
        if isinstance(exc, StageError) and exc.stage == name:
            raise
        raise StageError(name, str(exc)) from exc


def quintic_smoothstep(s):
    """6s⁵ − 15s⁴ + 10s³ clamped to [0, 1]: C² ramp with slope ≤ 15/8."""
    s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
    return s * s * s * (10.0 + s * (6.0 * s - 15.0))


@dataclass(frozen=True, eq=False)
class Frame:
    """Orthonormal rows spanning a subspace of the ambient coefficient space."""

    rows: np.ndarray  # (k, m)

    def __post_init__(self) -> None:
        r = np.array(self.rows, dtype=float)
        if r.ndim != 2:
            raise ValueError("frame rows must form a 2-D array")
        if not _orthonormal(r):
            raise ValueError("frame rows must be orthonormal")
        r.flags.writeable = False
        object.__setattr__(self, "rows", r)

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.rows.shape[1]

    def coords(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.rows.T

    def lift(self, c: np.ndarray) -> np.ndarray:
        return np.asarray(c, dtype=float) @ self.rows


# ---------------------------------------------------------------------------
# stage 1: the frame W
# ---------------------------------------------------------------------------


def choose_w(layer: NeuralOperatorLayer, h: float) -> tuple[Frame, dict]:
    """Frame spanning every singular direction of T₁, T₂ with weight ≥ h.

    Both one-sided tails ‖T(Id−P_W)‖ and ‖(Id−P_W)T‖ are then below h;
    they are re-verified as exact spectral norms of the dense tails and
    reported.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"singular threshold h must be positive and finite, got {h}")
    m = layer.dim
    pieces = []
    for t in (layer.in_op, layer.out_op):
        keep = t.omegas >= h
        if np.any(keep):
            pieces.append(t.psi[keep])
            pieces.append(t.phi[keep])
    if pieces:
        stacked = np.vstack(pieces)
        _, sv, vt = np.linalg.svd(stacked, full_matrices=False)
        basis = vt[sv > 1e-10]
    else:
        basis = np.zeros((0, m))
    if basis.shape[0] > m:
        raise ValueError("threshold h retains more directions than the ambient space")
    frame = Frame(basis)
    comp = np.eye(m) - frame.rows.T @ frame.rows
    report = {"w_dim": frame.dim, "h": h, "tails": {}}
    for name, t in (("in", layer.in_op), ("out", layer.out_op)):
        mat = t.as_matrix()
        right = spectral_norm(mat @ comp)
        left = spectral_norm(comp @ mat)
        if right >= h or left >= h:
            raise StageError(
                "choose_w",
                f"frame tails for the {name} operator are not below h={h:g}: "
                f"{right:g}, {left:g}"
            )
        report["tails"][name] = {"right": right, "left": left}
    return frame, report


# ---------------------------------------------------------------------------
# stage 2: the core map F^W and its tail factor
# ---------------------------------------------------------------------------


class CoreCompressedLayer:
    """The core map F^W = Id + P_W∘T₂∘G∘T₁∘P_W in W coordinates: ℝᵏ → ℝᵏ.

    The layer folds the frame into its network once, with enter = rows·Ψ_inᵀ
    ahead of T₁ and leave = Φ_out·rowsᵀ behind T₂ (``NeuralOperatorLayer.fold``):
    ``net`` is the resulting k-to-k network, read-only, and ``skip`` the
    k × k matrix of the coordinates a prefix middle map passes through, or
    None.  An evaluation is c + net(c) (+ c·S); it reads no operator, frame
    or middle map.

    F^W fixes the frame complement pointwise, so on the ambient space it is
    ``LiftedBlock(core, frame)``.
    """

    def __init__(self, layer: NeuralOperatorLayer, frame: Frame):
        if frame.ambient_dim != layer.dim:
            raise ValueError("frame and layer live in different ambient spaces")
        self.frame = frame
        self.dim = frame.dim
        rows = frame.rows
        mats, biases, activation, self.skip = layer.fold(rows @ layer.in_op.psi.T,
                                                         layer.out_op.phi @ rows.T)
        # the stage norms are never read, so nothing decomposes
        self.net = CoordinateNetwork._from_arrays(tuple(a.T for a in mats), biases, activation)

    def eval_array(self, c: np.ndarray) -> np.ndarray:
        c = np.asarray(c, dtype=float)
        out = self.net.eval_array(c)
        if self.skip is not None:
            out += c @ self.skip
        out += c
        return out

    def forward(self, c: np.ndarray, start=None) -> tuple[np.ndarray, None]:
        return self.eval_array(c), None


# ---------------------------------------------------------------------------
# on-demand inversion
# ---------------------------------------------------------------------------


# cap on the scaling path's blocks while its t-grid is refined
MAX_BLOCKS = 2048


def _newton_invert(f, ys: np.ndarray, tol: float, start=None) -> np.ndarray:
    """Solve f(x) = y for one target ``(k,)`` or each row of a ``(..., k)``
    stack ys by ``newton_solve`` from ``start`` (ys when None; refused
    before any evaluation unless it has ys' shape), with merit ||f(x) − y||
    and finite-difference Jacobian steps."""
    x = _first_iterate(ys, start).reshape(-1, ys.shape[-1])
    rows = ys.reshape(x.shape)

    def evaluate(xs: np.ndarray, at: np.ndarray) -> tuple:
        res = eval_map(f, xs) - rows[at]
        rnorm = np.linalg.norm(res, axis=-1)
        return res, rnorm, rnorm

    def direction(xs: np.ndarray, res: np.ndarray) -> np.ndarray:
        jac = central_differences(f, xs, np.eye(xs.shape[-1]))
        return np.linalg.solve(jac, res[..., None])[..., 0]

    return newton_solve(evaluate, direction, x, tol, "invert").x.reshape(ys.shape)


def _invert(f, ys: np.ndarray, kappa: float, tol: float, *, start=None) -> np.ndarray:
    """f⁻¹ at the rows ys for f = Id + B, Lip(B) ≤ kappa: Newton when kappa ≥
    1, else Banach iteration at rate kappa.  Either starts at ``start`` (ys
    when None)."""
    if kappa >= 1.0:
        return _newton_invert(f, ys, tol, start)
    return banach_solve(f, ys, kappa, tol, start=start).x


# ---------------------------------------------------------------------------
# stage 2b: peel the tail factor
# ---------------------------------------------------------------------------


class _Block:
    """A factor evaluated by ``forward(x, start) -> (y, carry)``; ``eval_array`` starts it cold.

    ``path_blocks`` measures path blocks in stacks, through the cutoff blend
    of ``forward`` (``_transport``), and each gets the ``lip_sampled`` and
    ``deviation`` its own cold ``eval_array`` gives.
    """

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)[0]


def _measure(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float]:
    """Sampled Lip(block − Id) of a block that sends the rows xs to ys, and
    the largest ‖y − x‖."""
    return _sup_quotient(xs, ys - xs), float(np.max(np.linalg.norm(ys - xs, axis=1)))


@dataclass(frozen=True, eq=False)
class TailBlock:
    """H = Id + B̃ with B̃ = F∘(F^W)⁻¹ − Id, so that F = H∘F^W.

    Inversion exploits the frame split: F^W is the identity on W⊥, so only
    the W-coordinate core ``fw`` needs solving, with Lip(``fw`` − Id) ≤
    ``kappa`` (``_invert``), from a W-coordinate ``start`` when one is
    given.  ``eval_array`` takes the start itself: it is the entry of every
    tail inversion.  The tail hands on no carry.
    """

    source: object
    fw: CoreCompressedLayer
    kappa: float
    tol: float
    lip_sampled: float | None = None
    deviation: float | None = None
    roundtrip_error: float | None = None
    label = "tail"

    @property
    def alpha(self) -> float | None:
        """Monotonicity constant 1 − κ of the inverted core; None under Newton."""
        return None if self.kappa >= 1.0 else 1.0 - self.kappa

    def eval_array(self, x: np.ndarray, start=None) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        pre, frame = x.reshape(-1, x.shape[-1]), self.fw.frame
        if frame.dim > 0:
            cw = frame.coords(pre)
            start = None if start is None else np.reshape(start, cw.shape)
            sol = _invert(self.fw, cw, self.kappa, self.tol, start=start)
            pre = pre - frame.lift(cw) + frame.lift(sol)
        return eval_map(self.source, pre).reshape(x.shape)

    def forward(self, x: np.ndarray, start=None) -> tuple[np.ndarray, None]:
        return self.eval_array(x, start), None


def peel_tail(source, core: CoreCompressedLayer, epsilon: float, tol: float,
              kappa: float, seed: int, sample_radius: float) -> TailBlock:
    """Near-identity factor B̃ with F = (Id + B̃)∘F^W, verified by sampling.

    ``core`` is F^W in W coordinates, and ``kappa`` bounds Lip(F^W − Id).
    """
    block = TailBlock(source, core, kappa, tol)
    xs = ball_samples(core.frame.ambient_dim, sample_radius, 100, seed=seed)
    through = LiftedBlock(core, core.frame).eval_array(xs)
    # one cold solve for the roundtrip (targets F^W(xs)) and the Lip sample
    # (targets xs); started at its known preimage xs, the roundtrip could
    # not fail
    recon, moved = np.split(block.eval_array(np.concatenate([through, xs])), 2)
    direct = eval_map(source, xs)
    roundtrip = float(np.max(np.linalg.norm(recon - direct, axis=1)))
    if not roundtrip <= 1e-8:
        raise StageError("peel_tail", f"factor roundtrip error {roundtrip:g} exceeds 1e-8")
    lip_hat, dev = _measure(xs, moved)
    if not lip_hat < epsilon:
        raise StageError(
            "peel_tail", f"sampled Lip of the tail factor is {lip_hat:g}, "
            f"not below epsilon={epsilon:g}"
        )
    return replace(block, lip_sampled=lip_hat, deviation=dev, roundtrip_error=roundtrip)


# ---------------------------------------------------------------------------
# stage 3: the nonlinear scaling path on W coordinates
# ---------------------------------------------------------------------------


class ScalingPath:
    """f_t(x) = (1/t)(f(tx) − f(0)) + t·f(0), with f₀ = Df|₀.

    For f = Id + B with Lip(B) ≤ κ every f_t with t > 0 is Id plus a
    κ-Lipschitz map, so ``kappa`` serves the whole path.
    Both evaluations take a scalar t, or one t per leading slice of a
    (B, n, k) stack of rows.
    """

    def __init__(self, f, k: int, kappa: float):
        self.f = f
        self.k = k
        self.f0_val = eval_map(f, np.zeros(k))
        self.df0 = central_differences(f, np.zeros(k), np.eye(k))
        self.kappa = kappa

    @property
    def alpha(self) -> float | None:
        """Monotonicity constant 1 − κ of every f_t; None under Newton."""
        return None if self.kappa >= 1.0 else 1.0 - self.kappa

    def eval_t_rows(self, t, xs: np.ndarray) -> np.ndarray:
        """f_t at the rows xs, for t in (0, 1]; f₀ = Df|₀ is never evaluated
        here, only inverted."""
        t = np.asarray(t, dtype=float)
        s = t.reshape(t.shape + (1,) * (xs.ndim - t.ndim))
        return (eval_map(self.f, s * xs) - self.f0_val) / s + s * self.f0_val

    def _solve_df0(self, ys: np.ndarray) -> np.ndarray:
        rows = ys.reshape(-1, self.k)
        return np.linalg.solve(self.df0, rows.T).T.reshape(ys.shape)

    def invert_t_rows(self, t, ys: np.ndarray, tol: float, start=None) -> np.ndarray:
        """f_t⁻¹ at the rows ys; t = 0 solves exactly.  A scalar t is iterated
        from ``start``; a stack's t > 0 slices are one batch, iterated cold.
        Newton takes a scalar t only."""
        t = np.asarray(t, dtype=float)
        if t.ndim == 0:
            if t == 0.0:
                return self._solve_df0(ys)
            return _invert(functools.partial(self.eval_t_rows, t), ys, self.kappa, tol, start=start)
        lin = t == 0.0
        xs = np.empty(ys.shape)
        xs[lin] = self._solve_df0(ys[lin])
        f = functools.partial(self.eval_t_rows, t[~lin])
        xs[~lin] = _invert(f, ys[~lin], self.kappa, tol)
        return xs


def _transport(path: ScalingPath, t_lo, t_hi, r2: float, tol: float, rows, start=None):
    """Path blocks x + φ(x)·(f_{t_hi}(f_{t_lo}⁻¹(x)) − x) at the rows (n, k),
    and the preimages p = f_{t_lo}⁻¹(x) they solve for.

    φ is the radial quintic cutoff of radius ``r2``: a row with φ = 0 is
    not inverted and carries itself.  Scalar ``t_lo``, ``t_hi`` give one
    block, with (n, k) results, and ``start`` is its inversion's first
    iterate; (B,) arrays give B blocks at the same rows, inverted cold and
    evaluated as one (B, n, k) stack.
    """
    phi = 1.0 - quintic_smoothstep((np.linalg.norm(rows, axis=1) - r2) / r2)
    act = phi > 0.0
    out = np.broadcast_to(rows, np.shape(t_lo) + rows.shape).copy()
    pre = out.copy()
    moved = out[..., act, :]
    guess = None if start is None else start[..., act, :]
    pre[..., act, :] = path.invert_t_rows(t_lo, moved, tol, start=guess)
    post = path.eval_t_rows(t_hi, pre[..., act, :])
    out[..., act, :] = moved + phi[act, None] * (post - moved)
    return out, pre


@dataclass(frozen=True, eq=False)
class PathBlock(_Block):
    """x + φ(x)·(f_{t_hi}(f_{t_lo}⁻¹(x)) − x) with a radial quintic cutoff.

    φ is 1 on ‖x‖ ≤ R₂ and 0 outside 2R₂, so the block moves the
    region of interest and leaves far points untouched (no inversion there).
    """

    path: ScalingPath
    t_lo: float
    t_hi: float
    r2: float
    tol: float
    lip_sampled: float | None = None
    deviation: float | None = None
    label: str = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "label", f"path[{self.t_lo:.6g},{self.t_hi:.6g}]")

    def forward(self, x: np.ndarray, start=None) -> tuple[np.ndarray, np.ndarray]:
        """The block at x, and the preimages p = f_{t_lo}⁻¹(x) it solved for.

        Both have x's shape; a row with φ = 0 is not inverted and carries
        itself.  ``start`` (x's shape) is the inversion's first iterate.
        """
        x = np.asarray(x, dtype=float)
        rows = x.reshape(-1, x.shape[-1])
        guess = None if start is None else np.reshape(start, rows.shape)
        out, pre = _transport(self.path, self.t_lo, self.t_hi, self.r2, self.tol, rows, guess)
        return out.reshape(x.shape), pre.reshape(x.shape)


def _measure_round(blocks: list, xs: np.ndarray) -> list:
    """``blocks`` (one path, R₂ and tol) with the Lip(block − Id) and
    deviation sampled cold at the rows xs: as one stack under Banach, one
    block at a time under Newton (see the module notes)."""
    path, r2, tol = blocks[0].path, blocks[0].r2, blocks[0].tol
    t_lo = np.array([b.t_lo for b in blocks])
    t_hi = np.array([b.t_hi for b in blocks])
    stacks = range(len(blocks)) if path.kappa >= 1.0 else [slice(None)]
    ys = np.empty((len(blocks),) + xs.shape)
    for s in stacks:
        ys[s] = _transport(path, t_lo[s], t_hi[s], r2, tol, xs)[0]
    measured = []
    for b, y in zip(blocks, ys):
        lip_hat, dev = _measure(xs, y)
        measured.append(replace(b, lip_sampled=lip_hat, deviation=dev))
    return measured


def _c2_estimate(f, k: int, radius: float, seed: int) -> float:
    """Finite-difference bound on second derivatives at 16 ball samples.

    An estimate only: the t-grid it suggests is refined adaptively until the
    sampled block constants pass, so correctness never rests on it.
    """
    n, h = 16, 1e-3
    xs = ball_samples(k, radius, n, seed=seed)
    # per sample a unit direction pair (u, v), drawn in the order u, v
    uv = np.random.default_rng(seed).standard_normal((n, 2, k))
    uv /= np.linalg.norm(uv, axis=2, keepdims=True)
    u, v = uv[:, 0], uv[:, 1]
    vals = eval_map(f, np.concatenate([xs + h * (u + v), xs + h * u, xs + h * v, xs]))
    f_uv, f_u, f_v, f_x = np.split(vals, 4)
    norms = np.linalg.norm((f_uv - f_u - f_v + f_x) / h**2, axis=1)
    if not np.all(np.isfinite(norms)):
        raise StageError("path_blocks", "second-derivative estimate is not finite")
    return float(np.max(norms, initial=0.0))


def path_blocks(
    path: ScalingPath,
    epsilon: float,
    r1: float,
    c0: float,
    c1: float,
    tol: float,
    seed: int = 0,
) -> tuple[list, dict]:
    """Cutoff blocks along the scaling ``path`` from Df|₀ to f.

    The first grid point respects t₁ < 2c₀ε/(c₁ + ‖f‖_C²·R₁), with R₁ =
    c₁·r₁ + ‖f(0)‖ from the sampled upper constant c₁; the grid is then
    refined, up to MAX_BLOCKS blocks, until every block's Lip(block − Id)
    sampled at 40 points is below epsilon.  Blocks indistinguishable from
    the identity are dropped.  The path's ``kappa`` bounds Lip(f − Id), so
    every f_t maps the ball of radius r1 into the ball of radius
    R₂ = (1 + κ)·r1 + ‖f(0)‖, on which the cutoff is 1: each block then
    moves the input it gets in the composite.  Each refinement round
    measures the blocks it has not measured yet in one ``_measure_round``.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    if not 0.0 < r1 < math.inf:
        raise ValueError(f"r1 must be positive and finite, got {r1}")
    if not 0.0 < c0 <= c1 < math.inf:
        raise ValueError(f"need 0 < c0 <= c1 < inf, got c0={c0}, c1={c1}")
    if not 0.0 <= path.kappa < math.inf:
        raise ValueError(f"the path's kappa must be nonnegative and finite, got {path.kappa}")
    r0 = float(np.linalg.norm(path.f0_val))
    r1_img = c1 * r1 + r0
    r2 = (1.0 + path.kappa) * r1 + r0
    c2 = _c2_estimate(path.f, path.k, 1.1 * r1_img, seed=seed + 1)
    t1_bound = 2.0 * c0 * epsilon / (c1 + c2 * r1_img)
    t1 = min(0.9 * t1_bound, 0.5)
    if not t1 * MAX_BLOCKS >= 1.0:
        raise StageError("path_blocks", f"the first grid step {t1:g} needs more blocks "
                         f"than the cap {MAX_BLOCKS}")
    m_theory = int(math.ceil(1.0 / t1))

    diag = {
        "r0": r0,
        "r1_image": r1_img,
        "r2": r2,
        "c2_estimate": c2,
        "c2_is_estimate": True,
        "t1_bound": t1_bound,
        "m_theory": m_theory,
    }

    xs = ball_samples(path.k, 2.3 * r2, 40, seed=seed + 2)
    # f is linear when it matches Df|₀ at the samples and f(0) vanishes
    lin_dev = float(np.max(np.linalg.norm(eval_map(path.f, xs) - xs @ path.df0.T, axis=1)))
    if lin_dev <= 1e-12 and r0 <= 1e-12:
        diag["linear_shortcut"] = True
        diag["t_grid"] = [0.0, 1.0]
        return [], diag

    ts = [0.0, t1]
    while ts[-1] < 1.0 - 1e-12:
        ts.append(ts[-1] + t1)
    ts[-1] = 1.0

    measured: dict[tuple[float, float], PathBlock] = {}
    while True:
        if len(ts) - 1 > MAX_BLOCKS:
            raise StageError("path_blocks", f"refinement exceeded the block cap {MAX_BLOCKS}")
        grid = list(zip(ts, ts[1:]))
        fresh = [PathBlock(path, lo, hi, r2, tol) for lo, hi in grid if (lo, hi) not in measured]
        measured.update(((b.t_lo, b.t_hi), b) for b in _measure_round(fresh, xs))
        bad = [measured[i] for i in grid if measured[i].lip_sampled >= 0.97 * epsilon]
        if not bad:
            break
        for b in bad:
            ts.append(0.5 * (b.t_lo + b.t_hi))
        ts = sorted(set(ts))

    drop_tol = max(1e-10, 4.0 * tol)
    blocks = [measured[i] for i in grid if measured[i].deviation > drop_tol]
    diag["t_grid"] = list(ts)
    diag["linear_shortcut"] = False
    return blocks, diag


# ---------------------------------------------------------------------------
# stage 4: the linear part
# ---------------------------------------------------------------------------


def _cos_root(c: np.ndarray, v: np.ndarray, skew: np.ndarray, n: int) -> np.ndarray:
    """V·f(c)·Vᵀ + V·g(c)·Vᵀ·K: the n-th root of an orthogonal U = S + K on
    the span of the eigenvectors v of S = (U + Uᵀ)/2, where K = (U − Uᵀ)/2
    and c = cos θ are their eigenvalues, all above −0.8.

    On a plane turned by θ, S is cos θ and K is sin θ times the plane's
    quarter turn, so f(c) = cos(θ/n) and g(c) = sin(θ/n)/sin θ (1/n at
    θ = 0) turn it by θ/n.  Both are functions of c alone, so any
    eigenbasis of a cluster of equal c gives the same root.
    """
    theta = np.arccos(np.clip(c, -1.0, 1.0))
    sin = np.sin(theta)
    f = np.cos(theta / n)
    g = np.divide(np.sin(theta / n), sin, out=np.full_like(theta, 1.0 / n), where=sin > 0.0)
    return (v * f) @ v.T + (v * g) @ v.T @ skew


def _complex_structure(skew: np.ndarray) -> np.ndarray:
    """J with Jᵀ = −J and J² = −I in the sense of a skew matrix: its polar
    factor where its singular values are not negligible, and an arbitrary
    pairing of the rest."""
    us, sv, vt = np.linalg.svd(skew)
    keep = int(np.count_nonzero(sv > 1e-10))
    keep += keep % 2  # a skew matrix's singular values come in pairs
    j = us[:, :keep] @ vt[:keep]
    null = vt[keep:].T
    j += null[:, 1::2] @ null[:, 0::2].T - null[:, 0::2] @ null[:, 1::2].T
    for _ in range(3):
        j = (j - j.T) / 2.0
        j = (j - np.linalg.inv(j)) / 2.0
    return j


def _orthogonal_root(u: np.ndarray, n: int) -> np.ndarray:
    """The n-th root of an orthogonal U with det U = +1 that turns every
    rotation plane of U by θ/n, θ ∈ [−π, π], and every pair of −1
    eigenvalues by π/n.

    Where cos θ lies above a cut near −1/2 the root is ``_cos_root``'s.  On
    the span E of the other eigenvectors of S, U = −W with W's angles
    within 80°, and the root is (cos(π/n)·I + sin(π/n)·J)·W^(1/n), with J
    a complex structure in the sense of EᵀKE.
    """
    sym, skew = (u + u.T) / 2.0, (u - u.T) / 2.0
    c, v = np.linalg.eigh(sym)
    # the cut sits in the widest gap of c over [−0.8, −0.2], so it splits no plane
    marks = np.sort(np.concatenate(([-0.8, -0.2], c[(c > -0.8) & (c < -0.2)])))
    gap = int(np.argmax(np.diff(marks)))
    near = c > 0.5 * (marks[gap] + marks[gap + 1])
    root = _cos_root(c[near], v[:, near], skew, n)
    e = v[:, ~near]
    if e.shape[1]:
        w = -(e.T @ u @ e)
        cw, vw = np.linalg.eigh((w + w.T) / 2.0)
        w_root = _cos_root(cw, vw, (w - w.T) / 2.0, n)
        j = _complex_structure(e.T @ skew @ e)
        half_turn = math.cos(math.pi / n) * np.eye(e.shape[1]) + math.sin(math.pi / n) * j
        root += e @ half_turn @ w_root @ e.T
    return root


def linear_path_blocks(df0: np.ndarray, epsilon: float) -> tuple[str, list, dict]:
    """Split an invertible matrix into near-identity factors and A₀.

    A₀ carries the orientation: it is the reflection diag(−1, 1, …) of the
    first coordinate exactly when det df0 < 0, else the identity.  Then
    M = df0·A₀ has a positive determinant, and its polar decomposition
    M = P·U is cut into factors: the positive part into matrix powers
    P^(1/n), the rotation U into equal roots U^(1/n) (``_orthogonal_root``),
    n set by U's largest eigenvalue angle.  det U = +1, so U's −1
    eigenvalues come in pairs, and each pair is a π-rotation.

    Returns (a0_kind, factors in application order, diagnostics); the
    matrix product factors[last] @ … @ factors[first] @ A₀ equals df0 to
    1e-8, checked on the factors exactly as returned.
    """
    df0 = np.asarray(df0, dtype=float)
    if df0.ndim != 2 or df0.shape[0] != df0.shape[1]:
        raise ValueError("need a square matrix")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    k = df0.shape[0]
    diag: dict = {"dim": k}
    if not np.all(np.isfinite(df0)):
        raise ValueError("matrix has non-finite entries")
    cond = np.linalg.cond(df0)
    if not np.isfinite(cond) or cond >= 1e8:
        raise ValueError(f"singular matrix: condition number {cond:g}")
    diag["cond"] = float(cond)

    a0 = np.eye(k)
    if np.linalg.det(df0) < 0.0:
        a0[0, 0] = -1.0
    diag["det_u"] = float(a0[0, 0])
    # df0·A₀: A₀ flips the sign of the first column, exactly
    usv, sv, vt = np.linalg.svd(df0 * a0.diagonal())
    u_orth = usv @ vt

    # positive part P = usv·diag(sv)·usvᵀ cut into n equal matrix powers
    step_cap = 0.95 * epsilon
    factors_p: list[np.ndarray] = []
    dev = float(np.max(np.abs(sv - 1.0)))
    if dev > 1e-14:
        n_p = 1
        while np.max(np.abs(sv ** (1.0 / n_p) - 1.0)) >= step_cap:
            n_p += 1
            if n_p > 10**6:
                raise ValueError("positive-part path will not contract below epsilon")
        root = usv @ np.diag(sv ** (1.0 / n_p)) @ usv.T
        factors_p = [root] * n_p
        diag["positive_steps"] = n_p
    else:
        diag["positive_steps"] = 0

    # rotation part: n_u equal roots of U, every plane's angle cut n_u ways
    eig = np.linalg.eigvals(u_orth)
    off = np.abs(np.abs(eig) - 1.0)
    if np.max(off) >= 1e-8:
        raise ValueError(f"orthogonal part has a non-unimodular eigenvalue {eig[np.argmax(off)]:g}")
    angles = np.sort(np.abs(np.angle(eig)))[::-1]
    angles = angles[angles > 1e-10][0::2]  # one per plane: ±θ, or a pair of −1s
    diag["rotation_angles"] = angles.tolist()

    max_step = 2.0 * math.asin(step_cap / 2.0)
    factors_u: list[np.ndarray] = []
    if angles.size:
        n_u = max(1, int(math.ceil(angles[0] / max_step)))
        factors_u = [_orthogonal_root(u_orth, n_u)] * n_u
        diag["orthogonal_steps"] = n_u
    else:
        diag["orthogonal_steps"] = 0

    factors = factors_u + factors_p
    acc = a0
    for fmat in factors:
        acc = fmat @ acc
    err = spectral_norm(acc - df0)
    diag["product_error"] = err
    if not err <= 1e-8:
        raise StageError("linear_path", f"linear factor product misses the matrix by {err:g}")
    return ("reflection" if a0[0, 0] < 0.0 else "identity"), factors, diag


# ---------------------------------------------------------------------------
# lifting W-coordinate blocks to the ambient space
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LinearBlock(_Block):
    """A near-identity matrix factor acting on W coordinates."""

    matrix: np.ndarray
    lip_sampled: float = field(init=False)
    label = "linear"

    def __post_init__(self) -> None:
        object.__setattr__(self, "lip_sampled", spectral_norm(self.matrix - np.eye(len(self.matrix))))

    def forward(self, x: np.ndarray, start=None) -> tuple[np.ndarray, None]:
        return np.asarray(x, dtype=float) @ self.matrix.T, None


@dataclass(frozen=True, eq=False)
class LiftedBlock(_Block):
    """Id_{W⊥} ⊕ core: a W-coordinate block extended to the ambient space."""

    core: object
    frame: Frame
    label: str = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "label", getattr(self.core, "label", "block"))

    @property
    def lip_sampled(self) -> float | None:
        return self.core.lip_sampled

    def forward(self, x: np.ndarray, start=None) -> tuple[np.ndarray, np.ndarray | None]:
        x = np.asarray(x, dtype=float)
        c = self.frame.coords(x)
        out, carry = self.core.forward(c, start)
        return x + self.frame.lift(out - c), carry


# ---------------------------------------------------------------------------
# the assembled pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DecompositionResult:
    """F = blocks[-1]∘…∘blocks[0]∘A₀ on the validity ball, all blocks
    near-identity with recorded sampled Lipschitz constants below epsilon;
    a block whose constant is missing or not below epsilon fails at stage
    ``blocks``.

    ``eval_array`` runs every block's ``forward`` in turn and hands each
    block's carry to the next as its start (see the module notes); each
    block still iterates to its own tol, so a poor start costs
    evaluations, not accuracy.
    """

    a0: object
    blocks: tuple
    r1: float
    epsilon: float
    diagnostics: dict = field(default_factory=dict)
    j: int = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "j", len(self.blocks))
        for b in self.blocks:
            lip = b.lip_sampled
            if lip is None or not lip < self.epsilon:
                raise StageError(
                    "blocks",
                    f"block {getattr(b, 'label', '?')} has Lip {lip}, "
                    f"not below epsilon={self.epsilon}"
                )

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        x, carry = eval_map(self.a0, x), None
        for b in self.blocks:
            x, carry = b.forward(x, carry)
        return x

def decompose(
    layer: NeuralOperatorLayer,
    epsilon: float,
    r1: float,
    composite_tol: float = 1e-6,
    seed: int = 0,
    n_verify: int = 200,
) -> DecompositionResult:
    """Run the full factorization pipeline on a residual layer.  A failing
    stage raises a :class:`StageError` that names it."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon!r}")
    if not 0.0 < r1 < math.inf:
        raise ValueError(f"validity radius r1 must be positive and finite, got {r1!r}")
    if not 0.0 < composite_tol < math.inf:
        raise ValueError(f"composite_tol must be positive and finite, got {composite_tol!r}")
    if not (1 <= n_verify < math.inf and n_verify == int(n_verify)):
        raise ValueError(f"n_verify must be a whole number of samples, at least 1, "
                         f"got {n_verify!r}")
    diag: dict = {"epsilon": epsilon, "r1": r1, "seed": seed}

    with _stage("estimate"):
        lip_g = layer.lip_nonlin
        if not np.isfinite(lip_g):
            raise ValueError(
                "middle map carries no finite Lipschitz bound; "
                "ball-local certificates are not supported by this pipeline"
            )
        kappa = layer.contraction
        diag["contraction_product"] = kappa
        diag["inverter"] = "newton" if kappa >= 1.0 else "fixed_point"

    with _stage("choose_w"):
        h = epsilon / (
            4.0 * (1.0 + lip_g) * (1.0 + layer.in_op.norm) * (1.0 + layer.out_op.norm)
        )
        frame, tail_report = choose_w(layer, h)
        diag["w"] = tail_report

    with _stage("build_fw"):
        core = CoreCompressedLayer(layer, frame)
        xs = ball_samples(layer.dim, r1, 64, seed=seed + 3)
        gap = layer.eval_array(xs) - LiftedBlock(core, frame).eval_array(xs)
        fw_dev = float(np.max(np.linalg.norm(gap, axis=1)))
        fw_bound = 0.5 * (1.0 + r1) * epsilon
        diag["fw_deviation"] = fw_dev
        diag["fw_deviation_bound"] = fw_bound
        if not fw_dev <= fw_bound:
            raise StageError("build_fw",
                             f"core deviation {fw_dev:g} exceeds the bound {fw_bound:g}")

    # each block's inversion tolerance protects that block taken alone: its
    # sampled lip_sampled, peel_tail's 1e-8 roundtrip and the cold composite
    # of criterion 4.  The warm composite solves each block from the previous
    # preimage, so composite_error does not depend on it.
    diag["block_tol"] = block_tol = composite_tol / 64.0

    # the stage resumes once the core exists: its sampled bracket sets
    # path_blocks' first grid step
    with _stage("estimate"):
        if frame.dim > 0:
            est_w = bilipschitz_estimate(core, r=r1, n=128, seed=seed + 5, dim=frame.dim)
            diag["core_bilipschitz"] = {**asdict(est_w), "is_estimate": True}

    blocks: list = []
    a0_kind = "identity"
    if frame.dim > 0:
        with _stage("linear_path"):
            path = ScalingPath(core, frame.dim, kappa)
            a0_kind, lin_factors, lin_diag = linear_path_blocks(path.df0, epsilon)
            diag["linear"] = lin_diag
        # one block per distinct factor matrix, shared by its repeats
        linear = {id(mat): LinearBlock(mat) for mat in lin_factors}
        blocks = [LiftedBlock(linear[id(mat)], frame) for mat in lin_factors]
        with _stage("path_blocks"):
            nl_blocks, diag["path"] = path_blocks(
                path,
                epsilon,
                r1,
                est_w.c_lower,
                est_w.c_upper,
                tol=block_tol,
                seed=seed + 6,
            )
        blocks += [LiftedBlock(b, frame) for b in nl_blocks]

    # on the whole space P_W = Id, so F^W = F and the tail is the identity
    if frame.dim < layer.dim:
        with _stage("peel_tail"):
            # the 1e-8 roundtrip guarantee needs slack over the inversion
            # residual after it is amplified by the layer's upper constant
            tail = peel_tail(
                layer,
                core,
                epsilon,
                tol=min(block_tol, 1e-9),
                kappa=kappa,
                seed=seed + 4,
                sample_radius=max(2.0 * r1, 1.0),
            )
        if tail.deviation > max(1e-10, 4.0 * block_tol):
            blocks.append(tail)

    a0 = Reflection(frame.rows[0]) if a0_kind == "reflection" else Identity()
    result = DecompositionResult(
        a0=a0, blocks=tuple(blocks), r1=r1, epsilon=epsilon, diagnostics=diag
    )

    with _stage("verify"):
        xs = ball_samples(layer.dim, r1, n_verify, seed=seed + 7)
        err = float(
            np.max(np.linalg.norm(result.eval_array(xs) - layer.eval_array(xs), axis=1))
        )
        diag["composite_error"] = err
        if not err <= composite_tol:
            raise StageError(
                "verify",
                f"composite reproduces the layer only to {err:g} "
                f"(target {composite_tol:g})"
            )
    return result
