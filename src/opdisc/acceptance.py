"""Runnable acceptance suite: ten numbered end-to-end checks.

Each ``criterion_*`` function exercises one headline property of the
package at desk scale and returns a detail dict of the measured numbers.
Every check it makes is one ``_check`` call: a failed check raises a
``StageError`` whose stage is the check's name, under ``python -O`` too.
``run_suite`` executes (a subset of) the criteria and reports
one record per criterion; both the command-line ``accept`` command and
the test suite drive the same functions, so a green run here and a green
run there certify the same thing.

Tolerances and budgets are fixed in the functions on purpose: the suite
is a contract, not a benchmark harness.
"""

from __future__ import annotations

import math
import operator
import time

import numpy as np

from .decompose import decompose
from .discretize import compress, convergence_scan, functor_a_error, orientation_scan
from .galerkin import (
    SOURCES,
    ConvexNonlinearity,
    fem_convergence,
    singularity_scan,
)
from .invert import banach_solve, invert_chain
from .isotopy import aligned_truncation_matrix, truncated_det_scan
from .layers import (
    CoordinateNetwork,
    CoordinateNetNonlinearity,
    NeuralOperatorLayer,
    ResidualChain,
    eval_map,
    make_layer,
)
from .monotone import (
    _sup_quotient,
    ball_samples,
    bilipschitz_estimate,
    contraction_certificate,
    pairwise_alpha,
)
from .operators import FiniteRankOperator, activation_from_name
from .spectral import BasisSpec, Space, StageError

__all__ = [
    "CRITERIA",
    "criterion_block_factorization",
    "criterion_compression_continuity",
    "criterion_fem_rates",
    "criterion_fixed_point_inversion",
    "criterion_galerkin_singularity",
    "criterion_invertible_chain_certificates",
    "criterion_isotopy_crossing",
    "criterion_monotonicity_under_compression",
    "criterion_orientation_tracking",
    "criterion_range_tail_convergence",
    "mixing_bilipschitz_layer",
    "run_suite",
]


_OPS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge, ">": operator.gt,
        "==": operator.eq}


def _check(name: str, value, op: str, bound, where: str = "") -> None:
    """Pass iff ``value op bound``; else raise a StageError of stage ``name``.

    A None value fails, and so does NaN, which every comparison refuses.
    A check over many items reads their worst value, from np.max or np.min,
    which carry a NaN through where builtin max and min drop it.
    """
    if value is None or not _OPS[op](value, bound):
        shown = value.item() if isinstance(value, np.generic) else value
        raise StageError(name, f"{shown!r} is not {op} {bound!r}{where}")


# ---------------------------------------------------------------------------
# 1. sampled monotonicity survives every prefix compression
# ---------------------------------------------------------------------------


def criterion_monotonicity_under_compression(
    n_layers: int = 50, n_samples: int = 48
) -> dict:
    """Layers certified at modulus 0.5 keep that modulus on every prefix.

    Fifty seeded layers, each with residual Lipschitz bound 0.5 and so a
    structural modulus 1 - 0.5 from ``contraction_certificate``, are
    compressed to eight prefix dimensions; the sampled pairwise modulus
    of the compressed map (one ``convergence_scan`` per layer) must
    clear the layer's structural floor - 1e-6 every single time, and the
    whole sweep must finish inside a minute.
    """
    start = time.perf_counter()
    space = Space(BasisSpec("fourier", 16))
    dims = (2, 4, 6, 8, 10, 12, 14, 16)
    worst = math.inf
    worst_at = (-1, -1)
    for i in range(n_layers):
        layer = make_layer(space, lip_g=0.5, seed=i)
        floor = contraction_certificate(layer.contraction)
        _check("structural_floor", floor, ">=", 0.5 - 1e-12, f" at layer seed {i}")
        scan = convergence_scan(layer.eval_array, dims, n=n_samples, seed=i, dim=space.dim)
        alphas = scan.column("alpha_hat")
        k = int(np.argmin(alphas))
        _check("sampled_alpha", alphas[k], ">=", floor - 1e-6,
               f" at (seed, prefix dim) {(i, dims[k])}")
        if alphas[k] < worst:
            worst = alphas[k]
            worst_at = (i, dims[k])
    _check("elapsed_s", time.perf_counter() - start, "<", 60.0)
    return {
        "layers": n_layers,
        "prefix_dims": list(dims),
        "samples_per_certificate": n_samples,
        "worst_alpha": worst,
        "worst_at_seed": worst_at[0],
        "worst_at_dim": worst_at[1],
    }


# ---------------------------------------------------------------------------
# 2. range tails shrink at the advertised rate and vanish past the rank
# ---------------------------------------------------------------------------


def criterion_range_tail_convergence() -> dict:
    """Quadratic singular decay gives strictly falling compression error.

    One layer with singular values (p+1)^-2 and prefix-aligned range is
    scanned over dims {4, 8, 16, 32, 64} on a common sample set: the
    range-tail column must fall strictly.  A rank-4 layer of the same build
    must lose its tail entirely once the prefix covers the rank.
    """
    space = Space(BasisSpec("fourier", 64))
    decaying = make_layer(
        space, lip_g=0.4, rank=64, decay=2.0, out_phi_prefix=True, seed=21
    )
    report = convergence_scan(decaying, [4, 8, 16, 32, 64], n=64, seed=5)
    tails = report.column("functor_a_error")
    _check("tail_step", np.max(np.diff(tails)), "<", 0.0, f" in the range-tail column {tails}")

    rank = 4
    low_rank = make_layer(
        space, lip_g=0.4, rank=rank, out_phi_prefix=True, seed=23
    )
    # a layer with no tail even below its rank would make the next check vacuous
    below = functor_a_error(low_rank, 2, n=64, seed=9, dim=space.dim)
    _check("tail_below_rank", below, ">", 1e-9)
    above = {d: functor_a_error(low_rank, d, n=64, seed=9, dim=space.dim)
             for d in (rank, 8, 16, 32)}
    d = list(above)[int(np.argmax(list(above.values())))]
    _check("tail_at_or_above_rank", above[d], "<=", 1e-12, f" at prefix dim {d}")
    return {
        "decay_tails": tails,
        "rank": rank,
        "tail_below_rank": below,
        "tails_at_or_above_rank": {str(k): v for k, v in above.items()},
    }


# ---------------------------------------------------------------------------
# 3. compression is continuous in the operator argument
# ---------------------------------------------------------------------------


def criterion_compression_continuity() -> dict:
    """Perturbation errors scale exactly like 1/j through the compression.

    Scales one fixed compact operator K on 32 coefficients by 1/j,
    j = 1..16, and reads its largest image over one sample set in the
    prefix V of dimension 8: ambient_error = max ‖Kx‖/j and subspace_error
    = max ‖P_V K x‖/j, the same through ``compress(K, 8)``.  Consecutive
    ratios must match j/(j+1) within 10%, with the compressed error never
    exceeding the ambient one.  No layer is evaluated: a layer perturbed
    additively by K/j differs from itself by exactly K/j, so the columns
    read K alone.  ROADMAP item 5 will perturb inside the nonlinearity and
    evaluate the layer and its compression.
    """
    compressed = compress(FiniteRankOperator.seeded(32, 6, seed=33), 8)
    cs = ball_samples(8, 1.0, 64, seed=3)
    amb = float(np.max(np.linalg.norm(eval_map(compressed.f, compressed.lift(cs)), axis=1)))
    sub = float(np.max(np.linalg.norm(compressed.eval_array(cs), axis=1)))
    js = list(range(1, 17))
    ambient = [amb / j for j in js]
    subspace = [sub / j for j in js]
    rels, at = [], []
    for col, errors in (("ambient_error", ambient), ("subspace_error", subspace)):
        for j, prev, cur in zip(js, errors, errors[1:]):
            target = j / (j + 1)
            rels.append(abs(cur / prev - target) / target)
            at.append(f" in {col} between j={j} and j={j + 1}")
    k = int(np.argmax(rels))
    _check("worst_ratio_deviation", rels[k], "<=", 0.10, at[k])
    k = int(np.argmax(np.subtract(subspace, ambient)))
    _check("compressed_over_ambient", subspace[k] - ambient[k], "<=", 1e-15, f" at j={js[k]}")
    return {
        "js": js,
        "ambient_errors": ambient,
        "subspace_errors": subspace,
        "worst_ratio_deviation": float(np.max(rels)),
    }


# ---------------------------------------------------------------------------
# 4. bilipschitz layers factor into certified near-identity blocks
# ---------------------------------------------------------------------------


def mixing_bilipschitz_layer(
    dim: int = 16, kappa: float = 0.25, gain: float = 0.4, seed: int = 42
) -> NeuralOperatorLayer:
    """A layer whose two-sided Lipschitz bounds hug 1 - kappa and 1 + kappa.

    The residual is tanh squeezed between an orthogonal frame and its
    sign-flipped transpose, so its differential at the origin is exactly
    kappa times an orthogonal conjugation of diag(+-1): pair separations
    are stretched or shrunk by close to the full kappa in every direction,
    which keeps the sampled bilipschitz estimates away from 1 and makes
    the factorization below genuinely work for its blocks.
    """
    identity = FiniteRankOperator(np.ones(dim), np.eye(dim), np.eye(dim))
    rng = np.random.default_rng(seed)
    frame, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    signs = np.ones(dim)
    signs[::2] = -1.0
    weights = (gain * frame.T, (kappa / gain) * (frame * signs))
    biases = (np.zeros(dim), np.zeros(dim))
    net = CoordinateNetwork(weights, biases, activation_from_name("tanh"))
    return NeuralOperatorLayer(
        identity, identity, CoordinateNetNonlinearity(net, dim)
    )


def criterion_block_factorization() -> dict:
    """Factoring a bilipschitz layer yields blocks that are truly small.

    At epsilon 0.25 every factor's independently resampled residual
    Lipschitz constant stays below 0.25, the recomposed map matches the
    layer to 1e-6 on 200 fresh points and, with every block started cold
    (so a sloppy block inverter shows), within a bound derived from the
    block tolerance, every factor is strongly monotone with sampled modulus
    at least 0.75 - 1e-6, and over epsilon in {0.4, 0.2, 0.1, 0.05} the
    block count grows no faster than (1/epsilon)^2.3.  Budget: ten minutes.
    """
    start = time.perf_counter()
    dim = 16
    layer = mixing_bilipschitz_layer(dim)
    est = bilipschitz_estimate(layer.eval_array, r=1.0, n=160, seed=11, dim=dim)
    # the test layer's design window; c_lower <= c_upper as min and max of one sample
    _check("c_lower", est.c_lower, ">=", 0.70)
    _check("c_upper", est.c_upper, "<=", 1.30)

    epsilon = 0.25
    result = decompose(layer, epsilon, 1.0, seed=0)

    xs = ball_samples(dim, 1.0, 64, seed=101)
    lips = [_sup_quotient(xs, b.eval_array(xs) - xs) for b in result.blocks]
    _check("block_lips_resampled", np.max(lips), "<", epsilon)

    fresh = ball_samples(dim, 1.0, 200, seed=103)
    direct = layer.eval_array(fresh)
    gap = float(np.max(np.linalg.norm(result.eval_array(fresh) - direct, axis=1)))
    _check("composite_gap", gap, "<=", 1e-6)

    # The same points with every block started cold.  A block solves f(p) = x
    # to residual block_tol, f being Id plus a κ-Lipschitz map, so p is off by
    # ≤ block_tol/(1 − κ) and the (1 + κ)-Lipschitz output by δ = that·(1 + κ).
    # Later blocks have sampled Lip < 1 + ε, so J blocks, cold or warm, miss the
    # exact composite by ≤ J·δ·(1 + ε)^J: the cold gap is ≤ gap + 2·J·δ·(1 + ε)^J.
    cold = eval_map(result.a0, fresh)
    for b in result.blocks:
        cold = b.eval_array(cold)
    cold_gap = float(np.max(np.linalg.norm(cold - direct, axis=1)))
    kappa, j = layer.contraction, result.j
    delta = result.diagnostics["block_tol"] * (1.0 + kappa) / (1.0 - kappa)
    cold_bound = gap + 2.0 * j * delta * (1.0 + epsilon) ** j
    _check("cold_composite_gap", cold_gap, "<=", cold_bound)

    alphas = [
        pairwise_alpha(b.eval_array, r=1.0, n=48, seed=13, dim=dim).alpha
        for b in result.blocks
    ]
    _check("block_alphas", np.min(alphas), ">=", contraction_certificate(epsilon) - 1e-6)

    eps_grid = (0.4, 0.2, 0.1, 0.05)
    counts = [decompose(layer, e, 1.0, seed=0).j for e in eps_grid]
    slope = float(
        np.polyfit(np.log([1.0 / e for e in eps_grid]), np.log(counts), 1)[0]
    )
    _check("loglog_slope", slope, "<=", 2.3)
    _check("elapsed_s", time.perf_counter() - start, "<", 600.0)
    return {
        "c_lower": est.c_lower,
        "c_upper": est.c_upper,
        "epsilon": epsilon,
        "blocks": result.j,
        "block_lips_resampled": lips,
        "composite_gap": gap,
        "cold_composite_gap": cold_gap,
        "cold_composite_bound": cold_bound,
        "block_alphas": alphas,
        "epsilon_grid": list(eps_grid),
        "block_counts": counts,
        "loglog_slope": slope,
    }


# ---------------------------------------------------------------------------
# 5. contraction fixed-point inversion meets its a priori budget
# ---------------------------------------------------------------------------


def criterion_fixed_point_inversion() -> dict:
    """Inverting a 3-block contraction chain is accurate and on budget.

    One hundred ball points are pushed through a delta = 0.5 chain on 16
    coefficients and recovered by one batched inversion (one fixed-point
    solve per block): every roundtrip lands within 1e-8 of the start, every
    block stops within its geometric a priori bound (the budget the Banach
    kernel enforces), and every residual history decreases strictly once
    the first step is taken.  A known answer bounds the budget from the
    other side: x ↦ x + q·x at q = 0.5 shrinks every residual by exactly q,
    so on the same points each row stops within ⌈log(1 − q)/log q⌉ + 1
    evaluations of its budget.
    """
    cert = ResidualChain.seeded(16, 16, 3, delta=0.5, seed=51)
    xs = ball_samples(16, 1.0, 100, seed=53)
    res = invert_chain(cert, None, cert.eval_array(xs), tol=1e-10)
    worst_rt = float(np.max(np.linalg.norm(res.x - xs, axis=-1)))
    worst_slack = max(
        count - bound
        for trace in res.traces
        for count, bound in zip(trace.iteration_counts, trace.apriori_bounds)
    )
    _check("worst_iteration_slack", worst_slack, "<=", 0)
    # each row's residuals fall strictly in every block from the second iterate on
    rises = [np.max(np.diff(hist[1:]), initial=-math.inf)
             for trace in res.traces for hist in trace.residual_histories]
    k = int(np.argmax(rises))
    _check("residual_step", rises[k], "<", 0.0,
           f" at (row, block) {divmod(k, len(cert.blocks))}")
    _check("worst_roundtrip", worst_rt, "<=", 1e-8)
    # the budget aims at tol·(1 − q), which a q-contraction reaches
    # log(1 − q)/log q steps after tol; one more for the ceiling
    q = 0.5
    scaled = banach_solve(lambda v: v + q * v, xs, q, 1e-10)
    known_slack = int(np.max(scaled.budgets - scaled.counts))
    known_bound = math.ceil(math.log(1.0 - q) / math.log(q)) + 1
    _check("known_rate_slack", known_slack, "<=", known_bound, f" for x -> x + {q}x")
    return {
        "samples": len(xs),
        "worst_roundtrip": worst_rt,
        "worst_iteration_slack": worst_slack,
        "roundtrip_target": res.roundtrip_target,
        "known_rate_slack": known_slack,
        "known_rate_slack_bound": known_bound,
    }


# ---------------------------------------------------------------------------
# 6. chain certificates: a valid one checks out, an absurd one is refused
# ---------------------------------------------------------------------------


def criterion_invertible_chain_certificates() -> dict:
    """A delta = 0.9 GroupSort chain inverts globally; delta = 1.5 is refused.

    Every stage norm the certificate multiplies must be at least numpy's
    SVD norm of the stage's weights (to relative 1e-12), so an optimistic
    certificate fails here before the chain stops contracting.  The
    certified chain must round-trip within 1e-6 in both directions on
    sampled balls with every block's sampled modulus at least 0.1 - 1e-6;
    asking for a certificate at delta = 1.5 must raise immediately.
    """
    delta = 0.9
    cert = ResidualChain.seeded(
        12, 12, 3, delta=delta, activation=activation_from_name("groupsort2"), seed=61
    )
    worst_norm = np.min([
        norm / np.linalg.norm(w, 2)
        for net in cert.blocks
        for norm, w in zip(net.stage_norms, net.weights)
    ])
    # each certified stage norm over numpy's SVD norm of its weights
    _check("worst_stage_norm_ratio", worst_norm, ">=", 1 - 1e-12)
    xs = ball_samples(cert.dim, 1.0, 40, seed=63)
    x_rec = invert_chain(cert, None, cert.eval_array(xs), tol=1e-9).x
    inverse_of_forward = float(np.max(np.linalg.norm(x_rec - xs, axis=-1)))
    x_rec = invert_chain(cert, None, xs, tol=1e-9).x
    forward_of_inverse = float(np.max(np.linalg.norm(cert.eval_array(x_rec) - xs, axis=-1)))
    _check("roundtrip_inverse_of_forward", inverse_of_forward, "<=", 1e-6)
    _check("roundtrip_forward_of_inverse", forward_of_inverse, "<=", 1e-6)
    # each block alone is Id + B with Lip(B) <= delta, so strongly monotone
    alphas = [
        pairwise_alpha(ResidualChain(cert.dim, net.n_in, (net,)), r=1.0, n=40, seed=64 + i).alpha
        for i, net in enumerate(cert.blocks)
    ]
    _check("block_alphas", np.min(alphas), ">=", contraction_certificate(delta) - 1e-6)

    refused, message = False, ""
    try:
        ResidualChain.seeded(12, 12, 3, delta=1.5, seed=61)
    except ValueError as exc:
        refused, message = True, str(exc)
    _check("refused", refused, "==", True, " for a contraction bound of 1.5")
    return {
        "delta": delta,
        "roundtrip_inverse_of_forward": inverse_of_forward,
        "roundtrip_forward_of_inverse": forward_of_inverse,
        "block_alphas": alphas,
        "refusal_message": message,
        "worst_stage_norm_ratio": worst_norm,
    }


# ---------------------------------------------------------------------------
# 7. the trig-basis sign-flip path goes singular; the continuum never does
# ---------------------------------------------------------------------------


def criterion_galerkin_singularity() -> dict:
    """The compressed sign-flip path crosses zero; its continuum never does.

    On five trig modes the determinant runs from +1 to -1 through a
    bisected zero below 1e-10, and the one-mode path has its root at
    exactly one half.  The continuum side needs no sampling: multiplication
    by sign(t - s) has modulus 1 almost everywhere, so it preserves every
    L2 norm at every s.
    """
    scan5 = singularity_scan("a", 5, s_grid=101, bisect_tol=1e-12)
    _check("endpoint_signs", scan5.endpoint_signs, "==", (1, -1))
    s_star, det_at_star, min_sv_at_star = scan5.stars[0]
    _check("abs_det_at_star", abs(det_at_star), "<", 1e-10)

    scan1 = singularity_scan("a", 1, s_grid=101, bisect_tol=1e-12)
    one_mode_s_star = scan1.stars[0][0]
    _check("one_mode_offset", abs(one_mode_s_star - 0.5), "<=", 1e-9,
           f" for the one-mode crossing at {one_mode_s_star!r}")

    return {
        "five_mode_s_star": s_star,
        "five_mode_det_at_star": det_at_star,
        "five_mode_min_sv_at_star": min_sv_at_star,
        "one_mode_s_star": one_mode_s_star,
        "scanned_points": len(scan5.grid),
    }


# ---------------------------------------------------------------------------
# 8. the seven-coefficient truncation of the reflection path goes singular
# ---------------------------------------------------------------------------


def criterion_isotopy_crossing() -> dict:
    """Truncating the identity-to-reflection path forces a det crossing.

    With seven retained coefficients the truncated determinant runs from
    +1 to -1 and its zero is bisected well inside a 1e-6 bracket (the
    known crossing sits at 7/18), while the full matrices behind the path
    stay orthogonal to 1e-10 at every grid parameter.
    """
    m = 7
    scan = truncated_det_scan(m, t_grid=101, bisect_tol=1e-9)
    _check("endpoint_signs", scan.endpoint_signs, "==", (1, -1))
    t_true = m / (2.0 * (m + 2.0))
    t_star, det_at_star, min_sv_at_star = scan.stars[0]
    _check("t_star_offset", abs(t_star - t_true), "<=", 1e-6, f" for the crossing at {t_star!r}")

    defects = []
    for t in scan.grid:
        full = aligned_truncation_matrix(float(t), m)
        defects.append(np.max(np.abs(full.T @ full - np.eye(full.shape[0]))))
    worst_orth = float(np.max(defects))
    _check("worst_orthogonality_defect", worst_orth, "<=", 1e-10)
    return {
        "m": m,
        "t_star": t_star,
        "t_star_expected": t_true,
        "det_at_star": det_at_star,
        "min_sv_at_star": min_sv_at_star,
        "worst_orthogonality_defect": worst_orth,
        "grid_points": int(len(scan.grid)),
    }


# ---------------------------------------------------------------------------
# 9. the hat-function solver converges at first order in H1 with tame Newton steps
# ---------------------------------------------------------------------------


def criterion_fem_rates() -> dict:
    """Manufactured problems halve their H1 error with h; energy falls.

    For reactions g(u) = 0 and g(u) = u with sources chosen so the
    solution is sin(pi t), the H1 error ratio between successive meshes
    in {1/16, 1/32, 1/64, 1/128} (against a common fine-mesh reference)
    must sit in [1.7, 2.3], and every Newton energy history must decrease
    strictly.  Budget: thirty seconds.
    """
    start = time.perf_counter()
    detail = {}
    for name in ("zero", "linear"):
        source = SOURCES[name]
        g = ConvexNonlinearity.named(name)
        conv = fem_convergence(source, g, [16, 32, 64, 128])
        where = f" for g={name}, ratios {list(conv.ratios)}"
        _check("min_h1_ratio", np.min(conv.ratios), ">=", 1.7, where)
        _check("max_h1_ratio", np.max(conv.ratios), "<=", 2.3, where)
        energies = list(conv.newton.energies)
        _check("newton_energy_step", np.max(np.diff(energies), initial=-math.inf), "<", 0.0,
               f" for g={name}, energies {energies}")
        detail[name] = {
            "errors": list(conv.errors),
            "ratios": list(conv.ratios),
            "newton_energies": energies,
        }
    _check("elapsed_s", time.perf_counter() - start, "<", 30.0)
    return detail


# ---------------------------------------------------------------------------
# 10. orientation is stable for monotone paths and flips for the scalar one
# ---------------------------------------------------------------------------


def criterion_orientation_tracking() -> dict:
    """Compressed Jacobian signs: constant along a monotone path, one flip
    for the scalar interpolation on an odd prefix.

    A path of uniformly strongly monotone layers keeps a positive
    compressed determinant at every scanned (t, base point) with zero
    sign changes; the path (1 - 2t) * Id on a 7-dimensional prefix flips
    exactly once, inside 1e-6 of t = 0.5.
    """
    dim = 16
    space = Space(BasisSpec("fourier", dim))
    layer = make_layer(space, lip_g=0.5, seed=71)

    def monotone_path(t: float):
        def step(x, s=float(t)):
            return x + s * (layer.eval_array(x) - x)

        return step

    changes, dets, at = 0, [], []
    for i, base in enumerate(ball_samples(dim, 1.0, 5, seed=73)):
        scan = orientation_scan(monotone_path, 21, 6, base_point=base, dim=dim)
        changes += len(scan.brackets)
        dets.extend(scan.dets)
        at += [(i, float(t)) for t in scan.grid]
    _check("monotone_sign_changes", changes, "==", 0)
    k = int(np.argmin(dets))
    _check("monotone_det", dets[k], ">", 0.0, f" at (base, t) {at[k]}")

    def scalar_path(t: float):
        def step(x, s=float(t)):
            return (1.0 - 2.0 * s) * x

        return step

    scan = orientation_scan(scalar_path, 20, 7, dim=dim, refine_tol=1e-7)
    _check("scalar_sign_changes", len(scan.brackets), "==", 1)
    lo, hi = scan.brackets[0]
    mid = 0.5 * (lo + hi)
    where = f" for the bracket [{lo!r}, {hi!r}]"
    _check("scalar_bracket_lo", lo, "<=", 0.5, where)
    _check("scalar_bracket_hi", hi, ">=", 0.5, where)
    _check("scalar_flip_offset", abs(mid - 0.5), "<=", 1e-6, where)
    return {
        "monotone_points_checked": len(dets),
        "monotone_sign_changes": changes,
        "scalar_bracket": [lo, hi],
        "scalar_flip_estimate": mid,
    }


CRITERIA = (
    (1, "monotonicity under compression", criterion_monotonicity_under_compression),
    (2, "range-tail convergence", criterion_range_tail_convergence),
    (3, "compression continuity", criterion_compression_continuity),
    (4, "near-identity factorization", criterion_block_factorization),
    (5, "fixed-point inversion", criterion_fixed_point_inversion),
    (6, "invertible chain certificates", criterion_invertible_chain_certificates),
    (7, "sign-flip path singularity", criterion_galerkin_singularity),
    (8, "truncated isotopy crossing", criterion_isotopy_crossing),
    (9, "hat-function convergence rates", criterion_fem_rates),
    (10, "orientation tracking", criterion_orientation_tracking),
)


def run_suite(numbers=None) -> list[dict]:
    """Run the numbered criteria (all by default) and report one record each.

    A record carries the criterion number, a short name, ``passed``, the
    detail dict (or the failure message and the failing stage, None when
    the error names none), and the wall time.  Failures are
    captured, never raised: the caller decides how loudly to exit.
    """
    if numbers is not None:
        wanted = {int(n) for n in numbers}
        known = {num for num, _, _ in CRITERIA}
        stray = wanted - known
        if stray:
            raise ValueError(f"unknown criterion numbers: {sorted(stray)}")
    else:
        wanted = None
    results = []
    for num, name, fn in CRITERIA:
        if wanted is not None and num not in wanted:
            continue
        start = time.perf_counter()
        try:
            detail = fn()
            passed = True
        except Exception as exc:  # a failed criterion is a result, not a crash
            detail = {"error": f"{type(exc).__name__}: {exc}",
                      "stage": getattr(exc, "stage", None)}
            passed = False
        results.append(
            {
                "criterion": num,
                "name": name,
                "passed": passed,
                "detail": detail,
                "elapsed": time.perf_counter() - start,
            }
        )
    return results
