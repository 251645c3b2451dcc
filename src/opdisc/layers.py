"""Residual operator layers, residual chains, and coordinate networks.

A layer is the residual map x + T_out(G(T_in(x))) built from two finite-rank
operators and a nonlinearity with a recorded Lipschitz bound.  On top of that
this module provides residual chains acting through a coefficient prefix,
each block with its certified rate (under an optional contraction bound),
and the central-difference derivative probe the rest of the package shares.

Every map here follows one evaluation contract: it takes a (..., m) array
and returns an array with the same leading shape, so callers evaluate whole
sample sets at once.  Networks are constructed from seeds and rescaled to
target spectral bounds; nothing here is trained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .operators import (
    Activation,
    FiniteRankOperator,
    activation_from_name,
    scaled_leaky,
    spectral_norm,
)
from .spectral import Space

__all__ = [
    "CoordinateNetNonlinearity",
    "NemytskiiNonlinearity",
    "affine_nonlinearity",
    "NeuralOperatorLayer",
    "CoordinateNetwork",
    "ResidualChain",
    "make_layer",
    "eval_map",
    "central_differences",
]


# ---------------------------------------------------------------------------
# coordinate networks
# ---------------------------------------------------------------------------


def _run_stages(x: np.ndarray, mats, biases, activation: Activation) -> np.ndarray:
    """A network's stage loop on (..., n) rows: x @ mats[i] + biases[i] per
    stage, with the activation between stages.  ``mats`` hold the weights
    transposed, (inputs, outputs), so a layer can pass its folded frames."""
    last = len(mats) - 1
    for i, (a, b) in enumerate(zip(mats, biases)):
        x = x @ a
        x += b
        if i != last:
            x = activation(x)
    return x


@dataclass(frozen=True, eq=False)
class CoordinateNetwork:
    """Plain MLP on coordinate vectors with a certified Lipschitz bound.

    ``stage_norms`` holds each weight matrix's exact spectral norm, the root
    of its Gram matrix's top eigenvalue (:func:`~opdisc.operators.spectral_norm`),
    computed once per stage at construction; :meth:`seeded` instead reuses
    the norm of each raw draw times its rescaling factor, rounded up by one
    ulp, which agrees with a fresh decomposition of the stored weights to
    rounding (relative 1e-14); one built without norms (a Nemytskii map's)
    decomposes on first read.  :meth:`ball_bound` and the chain
    certificates read them instead of decomposing again.  ``spectral_bound``
    is their product times the activation's global Lipschitz constant per
    hidden junction — an upper bound on the network's Lipschitz constant
    (infinite when the activation has no global constant; see
    :meth:`ball_bound` for the local version).  Both are derived and
    cached, not constructor arguments.  Non-finite weights or biases are
    refused, so no bound is ever NaN from the parameters.  The stored arrays
    are read-only: a network built from weights and biases copies them, and
    :meth:`seeded` and :meth:`_from_arrays` freeze their own in place.
    """

    weights: tuple
    biases: tuple
    activation: Activation

    def __post_init__(self) -> None:
        ws = tuple(np.array(w, dtype=float) for w in self.weights)
        bs = tuple(np.array(b, dtype=float).reshape(-1) for b in self.biases)
        self._freeze(ws, bs)
        self.stage_norms  # decomposed at construction

    @classmethod
    def _from_arrays(cls, ws: tuple, bs: tuple, activation: Activation, norms=None):
        """A network over ``ws`` and ``bs`` themselves, frozen in place, with
        stage norms ``norms`` (decomposed on first read when None)."""
        net = cls.__new__(cls)
        object.__setattr__(net, "activation", activation)
        net._freeze(ws, bs)
        if norms is not None:
            object.__setattr__(net, "stage_norms", norms)
        return net

    def _freeze(self, ws: tuple, bs: tuple) -> None:
        """Validate the network's own arrays and freeze them in place."""
        if not ws or len(ws) != len(bs):
            raise ValueError("need equally many weight matrices and bias vectors")
        for i, (w, b) in enumerate(zip(ws, bs)):
            if w.ndim != 2 or w.shape[0] != b.size:
                raise ValueError(f"stage {i}: bias length must match output rows")
            if i and w.shape[1] != ws[i - 1].shape[0]:
                raise ValueError(f"stage {i}: width mismatch with previous stage")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError(f"stage {i}: non-finite weight or bias entries")
            w.flags.writeable = False
            b.flags.writeable = False
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "biases", bs)

    @cached_property
    def stage_norms(self) -> tuple:
        return tuple(spectral_norm(w) for w in self.weights)

    @cached_property
    def spectral_bound(self) -> float:
        act = self.activation.lipschitz
        return float(float(np.prod(self.stage_norms)) * act ** (len(self.weights) - 1))

    @property
    def n_in(self) -> int:
        return self.weights[0].shape[1]

    @property
    def n_out(self) -> int:
        return self.weights[-1].shape[0]

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.n_in:
            raise ValueError(f"expected {self.n_in} input coordinates, got {x.shape[-1]}")
        return _run_stages(x, [w.T for w in self.weights], self.biases, self.activation)

    def ball_bound(self, input_radius: float) -> float:
        """Lipschitz bound valid on the input ball of the given radius.

        Pre-activation range radii are propagated stage by stage; activations
        without a global constant (the cubed rectifier) contribute their
        local constant on that range.
        """
        r = float(input_radius)
        bound = 1.0
        last = len(self.weights) - 1
        for i, (wn, b) in enumerate(zip(self.stage_norms, self.biases)):
            r = wn * r + float(np.linalg.norm(b))
            bound *= wn
            if i != last:
                bound *= self.activation.local_lipschitz(r)
                r = self.activation.range_radius(r)
        return bound

    @classmethod
    def seeded(
        cls,
        n_in: int,
        n_out: int,
        *,
        hidden: Sequence[int] | None = None,
        activation: Activation | None = None,
        target_bound: float = 1.0,
        bias_scale: float = 0.0,
        seed: int = 0,
    ) -> "CoordinateNetwork":
        """Gaussian weights rescaled so the certified bound equals the target.

        Defaults: two hidden stages of width ``4 * n_in``, leaky-ReLU(0.2).
        ``target_bound = 0`` gives the zero network.  When the activation has
        no global Lipschitz constant the per-junction factor is taken as 1
        for scaling purposes (the certified global bound is then infinite).
        """
        if not 0.0 <= target_bound < math.inf:
            raise ValueError("target Lipschitz bound must be nonnegative and finite, "
                             f"got target_bound={target_bound}")
        act = activation if activation is not None else activation_from_name("leaky_relu")
        widths = [n_in] + list(hidden if hidden is not None else (4 * n_in, 4 * n_in)) + [n_out]
        rng = np.random.default_rng(seed)
        ws, bs, norms = [], [], []
        n_stages = len(widths) - 1
        act_lip = act.lipschitz if np.isfinite(act.lipschitz) else 1.0
        stage_scale = (
            (target_bound / act_lip ** (n_stages - 1)) ** (1.0 / n_stages)
            if target_bound > 0.0
            else 0.0
        )
        for i in range(n_stages):
            w = rng.standard_normal((widths[i + 1], widths[i]))
            b = bias_scale * rng.standard_normal(widths[i + 1])
            if target_bound == 0.0:
                w = np.zeros_like(w)
                b = np.zeros_like(b)
                norms.append(0.0)
            else:
                raw = spectral_norm(w)
                factor = stage_scale / raw
                w *= factor
                # rounded up, so the product's rounding never lowers a bound
                norms.append(math.nextafter(raw * factor, math.inf))
            ws.append(w)
            bs.append(b)
        # one decomposition per stage: the raw draw's, carried over the rescaling
        return cls._from_arrays(tuple(ws), tuple(bs), act, tuple(norms))


# ---------------------------------------------------------------------------
# layer nonlinearities
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CoordinateNetNonlinearity:
    """A layer's middle map: a coordinate network on the first ``net.n_in``
    coefficients, with its recorded Lipschitz bound ``lip``.

    With ``ambient_dim == net.n_in`` the map is the network itself; with a
    shorter prefix the remaining coefficients pass through unchanged, which
    forces the recorded bound up to at least 1.  It has no evaluation of its
    own: a layer folds its network (:meth:`NeuralOperatorLayer.fold`).
    """

    net: CoordinateNetwork
    ambient_dim: int

    def __post_init__(self) -> None:
        if self.net.n_in != self.net.n_out:
            raise ValueError("layer nonlinearity needs a square network")
        if self.net.n_in > self.ambient_dim:
            raise ValueError("network width exceeds the ambient dimension")

    @property
    def lip(self) -> float:
        b = self.net.spectral_bound
        return b if self.net.n_in == self.ambient_dim else max(1.0, b)


@dataclass(frozen=True, eq=False)
class NemytskiiNonlinearity(CoordinateNetNonlinearity):
    """An entrywise activation applied on the quadrature grid: the network
    u ↦ σ(u·B)·(W·Bᵀ), weights (Bᵀ, B·diag(W)) and zero biases, with B the
    space's ``grid_basis`` and W its weights; ``identity`` is the one-stage
    identity network.  An activation that is not entrywise, or a basis with
    no pointwise values, is refused.  The bound is the discrete map's,
    Lip(σ)·λ_max of the quadrature Gram B·W·Bᵀ, not the continuum Lip(σ)
    nor the product of stage norms; for ``identity`` it is 1."""

    net: CoordinateNetwork = field(init=False, repr=False)
    ambient_dim: int = field(init=False)
    space: Space
    sigma: Activation

    def __post_init__(self) -> None:
        self.space.check_pointwise()
        if not self.sigma.entrywise:
            raise ValueError(
                f"a Nemytskii map needs an entrywise activation; {self.sigma.name!r} is not"
            )
        m = self.space.dim
        if self.sigma.name == "identity":
            ws, bs = (np.eye(m),), (np.zeros(m),)
        else:
            bv = self.space.grid_basis
            ws, bs = (np.array(bv.T), bv * self.space.weights), (np.zeros(bv.shape[1]), np.zeros(m))
        # ``lip`` is the map's bound, so nothing decomposes the network's stages
        object.__setattr__(self, "net", CoordinateNetwork._from_arrays(ws, bs, self.sigma))
        object.__setattr__(self, "ambient_dim", m)

    @property
    def lip(self) -> float:
        if self.sigma.name == "identity":
            return self.sigma.lipschitz
        return self.sigma.lipschitz * self.space.quadrature_gram_max


def affine_nonlinearity(matrix, bias) -> CoordinateNetNonlinearity:
    """x -> A x + b as a one-stage coordinate network with the identity
    activation, so its bound is the exact spectral norm of A; A = 0 and
    b = 0 give the zero map."""
    net = CoordinateNetwork((matrix,), (bias,), activation_from_name("identity"))
    return CoordinateNetNonlinearity(net, net.n_in)


# ---------------------------------------------------------------------------
# layers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NeuralOperatorLayer:
    """Residual layer x + T_out(G(T_in(x))) on ambient coefficients.

    Every middle map is a coordinate network on the first n of the m
    coordinates (:class:`CoordinateNetNonlinearity`; affine, zero and
    Nemytskii maps are such networks), and every layer is evaluated
    through its rank-r frames.  With T_in = Φ_inᵀ·diag(ω_in)·Ψ_in and
    T_out likewise, construction folds T_in into the first stage and T_out
    into the last, A_in = (diag(ω_in)·Φ_in)[:, :n]·W₁ᵀ,
    A_out = W_Lᵀ·(Ψ_outᵀ·diag(ω_out))[:n] and
    c_out = b_L·(Ψ_outᵀ·diag(ω_out))[:n]; the coordinates past a prefix
    network pass through G, so they fold into one r_in × r_out skip
    matrix, S = (diag(ω_in)·Φ_in)[:, n:]·(Ψ_outᵀ·diag(ω_out))[n:].  A row
    costs z = x·Ψ_inᵀ, the network between r-wide ends plus z·S, and
    ·Φ_out, in place of two m-wide end stages.  The folded arrays are
    read-only and serve evaluation alone: :attr:`contraction` and every
    certificate read the unfolded factors.
    """

    in_op: FiniteRankOperator
    out_op: FiniteRankOperator
    nonlin: CoordinateNetNonlinearity
    _folded: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.in_op.dim == self.out_op.dim == self.nonlin.ambient_dim:
            raise ValueError("in/out operators and middle map must share the ambient dimension")
        object.__setattr__(self, "_folded", self.fold())

    def fold(self, enter: np.ndarray | None = None, leave: np.ndarray | None = None) -> tuple:
        """The middle network's stage matrices (inputs, outputs) and biases
        with T_in folded into the first stage and T_out into the last (one
        stage takes both), its activation, and the skip matrix of the
        coordinates past its prefix (None when it spans all m).  ``enter``
        (·, r_in) folds in ahead of T_in and ``leave`` (r_out, ·) behind
        T_out, as ``opdisc.decompose`` folds its frame; the layer passes
        neither."""
        net = self.nonlin.net
        n = net.n_in
        in_frame = self.in_op.omegas[:, None] * self.in_op.phi
        out_frame = self.out_op.psi.T * self.out_op.omegas
        if enter is not None:
            in_frame = enter @ in_frame
        if leave is not None:
            out_frame = out_frame @ leave
        mats = [w.T for w in net.weights]
        biases = list(net.biases)
        mats[0] = in_frame[:, :n] @ mats[0]
        mats[-1] = mats[-1] @ out_frame[:n]
        biases[-1] = biases[-1] @ out_frame[:n]
        skip = None if n == self.dim else in_frame[:, n:] @ out_frame[n:]
        for a in (mats[0], mats[-1], biases[-1], skip):
            if a is not None:
                a.flags.writeable = False
        return tuple(mats), tuple(biases), net.activation, skip

    @property
    def dim(self) -> int:
        return self.in_op.dim

    @property
    def lip_nonlin(self) -> float:
        """Recorded Lipschitz upper bound of the middle map."""
        return self.nonlin.lip

    @property
    def contraction(self) -> float:
        """Certified bound on Lip of the non-identity part T_out.G.T_in."""
        return self.in_op.norm * self.out_op.norm * self.nonlin.lip

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim:
            raise ValueError(f"expected {self.dim} coefficients, got {x.shape[-1]}")
        mats, biases, activation, skip = self._folded
        z = x @ self.in_op.psi.T
        inner = _run_stages(z, mats, biases, activation)
        if skip is not None:
            inner += z @ skip
        out = inner @ self.out_op.phi
        out += x
        return out


# ---------------------------------------------------------------------------
# residual chains on a coefficient prefix
# ---------------------------------------------------------------------------


def _check_delta(delta: float) -> None:
    if not 0.0 < delta < 1.0:
        raise ValueError(f"contraction bound must lie in (0, 1), got {delta} for delta")


@dataclass(frozen=True, eq=False)
class ResidualChain:
    """Blocks x + embed(net(first-N-coefficients)); the tail never moves.

    Per block, ``rates`` holds a certified rate and ``radii`` the ball it
    holds on (None: globally), both set once here.  Without a contraction
    bound ``delta`` the rates are the networks' spectral bounds and the
    radii all None: a rate below 1 certifies the block globally, and no
    other does.  With ``delta`` in (0, 1), every block must carry a
    certified Lipschitz bound <= delta, and its rate is min(bound, delta).
    For activations without a global constant, pass ``ball_radius`` so the
    certificate can use the ball-local bound; ``ball_radius`` without
    ``delta`` is refused.
    """

    ambient_dim: int
    prefix_n: int
    blocks: tuple
    delta: float | None = None
    ball_radius: float | None = None
    rates: tuple = field(init=False)
    radii: tuple = field(init=False)

    def __post_init__(self) -> None:
        if not 1 <= self.prefix_n <= self.ambient_dim:
            raise ValueError("prefix dimension must lie in 1..ambient_dim")
        bl = tuple(self.blocks)
        if not bl:
            raise ValueError("need at least one block")
        for i, net in enumerate(bl):
            if net.n_in != self.prefix_n or net.n_out != self.prefix_n:
                raise ValueError(f"block {i} is not square on the prefix dimension")
        object.__setattr__(self, "blocks", bl)
        if self.delta is None:
            if self.ball_radius is not None:
                raise ValueError("ball_radius needs a contraction bound delta")
            certs = [(float(net.spectral_bound), None) for net in bl]
        else:
            certs = self._certify(bl)
        rates, radii = zip(*certs)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "radii", radii)

    def _certify(self, blocks: tuple) -> list:
        """Each block's (rate, radius) under the contraction bound delta."""
        _check_delta(self.delta)
        if self.ball_radius is not None and not 0.0 < self.ball_radius < math.inf:
            raise ValueError(f"ball_radius must be positive and finite, got {self.ball_radius}")
        certs = []
        for i, net in enumerate(blocks):
            bound, radius = net.spectral_bound, None
            if not np.isfinite(bound):
                if self.ball_radius is None:
                    raise ValueError(
                        f"block {i} has no global Lipschitz certificate "
                        "(activation unbounded); pass ball_radius= for a local one"
                    )
                bound, radius = net.ball_bound(self.ball_radius), self.ball_radius
            if not bound <= self.delta + 1e-12:
                raise ValueError(
                    f"block {i} certificate {bound:.6g} exceeds delta={self.delta}"
                )
            certs.append((min(float(bound), self.delta), radius))
        return certs

    @property
    def dim(self) -> int:
        return self.ambient_dim

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        y = np.array(x, dtype=float, copy=True)
        if y.shape[-1] != self.ambient_dim:
            raise ValueError("dimension mismatch for residual chain")
        prefix = y[..., : self.prefix_n]
        for net in self.blocks:
            prefix += net.eval_array(prefix)
        return y

    @classmethod
    def seeded(
        cls,
        ambient_dim: int,
        prefix_n: int,
        num_blocks: int,
        *,
        block_bound: float | None = None,
        delta: float | None = None,
        ball_radius: float | None = None,
        activation: Activation | None = None,
        hidden: Sequence[int] | None = None,
        bias_scale: float = 0.3,
        seed: int = 0,
    ) -> "ResidualChain":
        """Seeded blocks whose spectral bound is ``block_bound``: ``delta``
        when given, else 0.5."""
        if delta is not None:
            _check_delta(delta)
        if block_bound is None:
            block_bound = 0.5 if delta is None else delta
        rng = np.random.default_rng(seed)
        blocks = []
        for _ in range(num_blocks):
            sub = int(rng.integers(0, 2**63))
            blocks.append(
                CoordinateNetwork.seeded(
                    prefix_n,
                    prefix_n,
                    hidden=hidden,
                    activation=activation,
                    target_bound=block_bound,
                    bias_scale=bias_scale,
                    seed=sub,
                )
            )
        return cls(ambient_dim, prefix_n, tuple(blocks), delta, ball_radius)


# ---------------------------------------------------------------------------
# evaluation protocol and derivative probe
# ---------------------------------------------------------------------------


def eval_map(f, x: np.ndarray) -> np.ndarray:
    """Evaluate a map on (..., m) inputs: its ``eval_array``, the one method
    of every map type here, else f itself, a plain callable that must accept
    batches too."""
    x = np.asarray(x, dtype=float)
    if hasattr(f, "eval_array"):
        return f.eval_array(x)
    if callable(f):
        return np.asarray(f(x), dtype=float)
    raise TypeError(f"cannot evaluate object of type {type(f).__name__}")


def central_differences(f, x: np.ndarray, dirs: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Directional derivatives of f at x along each row of ``dirs``, in the
    Jacobian layout (..., m, n).

    Central differences, O(h^2) for C^2 maps.  ``x`` holds one base point
    or a (..., m) batch of them; all 2n perturbed points of every base
    point go through f as one (..., 2n, m) batch.  Column i (axis −1) of
    the result is the derivative along dirs[i], so ``dirs = np.eye(m)``
    gives the Jacobian.  Non-finite entries are an error.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"step size h must be positive and finite, got {h}")
    x = np.asarray(x, dtype=float)[..., None, :]
    dirs = np.asarray(dirs, dtype=float)
    n = dirs.shape[0]
    out = eval_map(f, np.concatenate([x + h * dirs, x - h * dirs], axis=-2))
    deriv = (out[..., :n, :] - out[..., n:, :]) / (2.0 * h)
    if not np.all(np.isfinite(deriv)):
        raise ValueError("finite-difference failure: non-finite Jacobian entries")
    return np.swapaxes(deriv, -1, -2)


# ---------------------------------------------------------------------------
# seeded layer generator
# ---------------------------------------------------------------------------


def make_layer(
    space: Space,
    *,
    seed: int = 0,
    rank: int | None = None,
    decay: float = 1.0,
    lip_g: float = 0.5,
    nonlin: str = "coordinate_net",
    norm_in: float = 1.0,
    norm_out: float = 1.0,
    out_phi_prefix: bool = False,
    bias_scale: float = 0.0,
    hidden: Sequence[int] | None = None,
    activation: Activation | str = "leaky_relu",
) -> NeuralOperatorLayer:
    """Deterministic test layer from a seed.

    rank defaults to min(M, 8); decay is the singular decay exponent; lip_g
    is the target Lipschitz bound of the middle map (0 gives an identity
    layer); nonlin is "coordinate_net", "nemytskii" or "affine_contraction";
    norm_in/norm_out are the top singular values of the two compact maps;
    out_phi_prefix makes the output operator's range directions the basis
    prefix; activation is an Activation or its name.
    """
    m = space.dim
    rank = min(m, 8) if rank is None else rank
    if isinstance(activation, str):
        activation = activation_from_name(activation)
    if not 0.0 <= lip_g < math.inf:
        raise ValueError(f"lip_g target must be nonnegative and finite, got {lip_g}")
    if not 1 <= rank <= m:
        raise ValueError(f"rank must lie in 1..{m}")

    rng = np.random.default_rng(seed)
    s_in, s_out, s_g = (int(s) for s in rng.integers(0, 2**63, size=3))
    t_in = FiniteRankOperator.seeded(m, rank, scale=norm_in, decay=decay, seed=s_in)
    t_out = FiniteRankOperator.seeded(
        m,
        rank,
        scale=norm_out,
        decay=decay,
        seed=s_out,
        phi_prefix=out_phi_prefix,
    )

    if lip_g == 0.0:
        g = affine_nonlinearity(np.zeros((m, m)), np.zeros(m))
    elif nonlin == "coordinate_net":
        net = CoordinateNetwork.seeded(
            m,
            m,
            hidden=hidden,
            activation=activation,
            target_bound=lip_g,
            bias_scale=bias_scale,
            seed=s_g,
        )
        g = CoordinateNetNonlinearity(net, m)
    elif nonlin == "nemytskii":
        g = NemytskiiNonlinearity(space, scaled_leaky(lip_g))
    elif nonlin == "affine_contraction":
        a = rng.standard_normal((m, m))
        a *= lip_g / spectral_norm(a)
        b = bias_scale * rng.standard_normal(m)
        g = affine_nonlinearity(a, b)
    else:
        raise ValueError(f"unknown nonlinearity kind {nonlin!r}")

    return NeuralOperatorLayer(t_in, t_out, g)
