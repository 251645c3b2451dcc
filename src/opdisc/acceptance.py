"""Runnable acceptance suite: ten numbered end-to-end checks.

Each ``criterion_*`` function exercises one headline property of the
package at desk scale, raises ``AssertionError`` with a concrete message
when the property fails, and returns a detail dict of the measured
numbers.  ``run_suite`` executes (a subset of) the criteria and reports
one record per criterion; both the command-line ``accept`` command and
the test suite drive the same functions, so a green run here and a green
run there certify the same thing.

Tolerances and budgets are fixed in the functions on purpose: the suite
is a contract, not a benchmark harness.
"""

from __future__ import annotations

import math
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
from .spectral import BasisSpec, Space

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


def _strictly_decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


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
        assert floor is not None and floor >= 0.5 - 1e-12, (
            f"layer seed {i}: structural modulus {floor} misses the 0.5 "
            "certificate this criterion is about"
        )
        scan = convergence_scan(layer.eval_array, dims, n=n_samples, seed=i, dim=space.dim)
        for d, alpha in zip(dims, scan.column("alpha_hat")):
            assert alpha >= floor - 1e-6, (
                f"sampled modulus {alpha:.12g} at (seed, prefix dim) = "
                f"{(i, d)} falls below the structural floor {floor:.12g} - 1e-6"
            )
            if alpha < worst:
                worst = alpha
                worst_at = (i, d)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s, budget is 60s"
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
    assert _strictly_decreasing(tails), (
        f"range-tail column is not strictly decreasing: {tails}"
    )

    rank = 4
    low_rank = make_layer(
        space, lip_g=0.4, rank=rank, out_phi_prefix=True, seed=23
    )
    below = functor_a_error(low_rank, 2, n=64, seed=9, dim=space.dim)
    assert below > 1e-9, (
        "rank-4 layer shows no tail even below its rank; the check would "
        "be vacuous"
    )
    above = {}
    for d in (rank, 8, 16, 32):
        err = functor_a_error(low_rank, d, n=64, seed=9, dim=space.dim)
        above[d] = err
        assert err <= 1e-12, (
            f"rank-{rank} layer keeps a range tail {err:g} at prefix dim {d}"
        )
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
    rels = []
    for col, errors in (("ambient_error", ambient), ("subspace_error", subspace)):
        for j, prev, cur in zip(js, errors, errors[1:]):
            target = j / (j + 1)
            ratio = cur / prev
            rel = abs(ratio - target) / target
            rels.append(rel)
            assert rel <= 0.10, (
                f"{col} ratio {ratio:.6g} between j={j} and j={j + 1} "
                f"misses {target:.6g} by {100 * rel:.1f}% (> 10%)"
            )
    for j, a, s in zip(js, ambient, subspace):
        assert s <= a + 1e-15, f"compressed error exceeds ambient error at j={j}"
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
    assert 0.70 <= est.c_lower <= est.c_upper <= 1.30, (
        f"test layer drifted: sampled bounds ({est.c_lower:.4f}, "
        f"{est.c_upper:.4f}) are outside the (0.70, 1.30) design window"
    )

    epsilon = 0.25
    result = decompose(layer, epsilon, 1.0, seed=0)

    xs = ball_samples(dim, 1.0, 64, seed=101)
    lips = [_sup_quotient(xs, b.eval_array(xs) - xs) for b in result.blocks]
    # np.max and np.min carry a NaN through, where builtin max and min drop it
    assert np.max(lips) < epsilon, (
        f"a factor's resampled residual Lipschitz constant {np.max(lips):.6g} "
        f"reaches epsilon={epsilon}"
    )

    fresh = ball_samples(dim, 1.0, 200, seed=103)
    direct = layer.eval_array(fresh)
    gap = float(np.max(np.linalg.norm(result.eval_array(fresh) - direct, axis=1)))
    assert gap <= 1e-6, f"recomposition misses the layer by {gap:g} (> 1e-6)"

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
    assert cold_gap <= cold_bound, f"cold blocks miss the layer by {cold_gap:g} (> {cold_bound:g})"

    alphas = [
        pairwise_alpha(b.eval_array, r=1.0, n=48, seed=13, dim=dim).alpha
        for b in result.blocks
    ]
    floor = contraction_certificate(epsilon)
    assert np.min(alphas) >= floor - 1e-6, (
        f"a factor's sampled modulus {np.min(alphas):.9f} falls below "
        f"{floor} - 1e-6"
    )

    eps_grid = (0.4, 0.2, 0.1, 0.05)
    counts = [decompose(layer, e, 1.0, seed=0).j for e in eps_grid]
    slope = float(
        np.polyfit(np.log([1.0 / e for e in eps_grid]), np.log(counts), 1)[0]
    )
    assert slope <= 2.3, (
        f"block count grows like (1/eps)^{slope:.2f}, steeper than 2.3"
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"factorization sweep took {elapsed:.1f}s (> 600s)"
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
    worst_slack = -(10**9)
    for trace in res.traces:
        for count, bound in zip(trace.iteration_counts, trace.apriori_bounds):
            slack = count - bound
            worst_slack = max(worst_slack, slack)
            assert slack <= 0, (
                f"a block took {count} iterations against an a priori bound "
                f"of {bound} (slack {slack} > 0)"
            )
        for b, hist in enumerate(trace.residual_histories):
            for k in range(2, len(hist)):
                assert hist[k] < hist[k - 1], (
                    f"block {b}: residual rose from {hist[k - 1]:g} to "
                    f"{hist[k]:g} at iteration {k + 1}"
                )
    assert worst_rt <= 1e-8, f"worst roundtrip error {worst_rt:g} exceeds 1e-8"
    # the budget aims at tol·(1 − q), which a q-contraction reaches
    # log(1 − q)/log q steps after tol; one more for the ceiling
    q = 0.5
    scaled = banach_solve(lambda v: v + q * v, xs, q, 1e-10)
    known_slack = int(np.max(scaled.budgets - scaled.counts))
    known_bound = math.ceil(math.log(1.0 - q) / math.log(q)) + 1
    assert known_slack <= known_bound, (
        f"x -> x + {q}x stopped {known_slack} evaluations short of its budget, "
        f"more than the {known_bound} its exact rate allows"
    )
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
    assert worst_norm >= 1 - 1e-12, (
        f"a certified stage norm is {worst_norm:.6g} times the SVD norm of its weights"
    )
    xs = ball_samples(cert.dim, 1.0, 40, seed=63)
    x_rec = invert_chain(cert, None, cert.eval_array(xs), tol=1e-9).x
    inverse_of_forward = float(np.max(np.linalg.norm(x_rec - xs, axis=-1)))
    x_rec = invert_chain(cert, None, xs, tol=1e-9).x
    forward_of_inverse = float(np.max(np.linalg.norm(cert.eval_array(x_rec) - xs, axis=-1)))
    assert inverse_of_forward <= 1e-6, (
        f"inverse-after-forward roundtrip {inverse_of_forward:g} exceeds 1e-6"
    )
    assert forward_of_inverse <= 1e-6, (
        f"forward-after-inverse roundtrip {forward_of_inverse:g} exceeds 1e-6"
    )
    # each block alone is Id + B with Lip(B) <= delta, so strongly monotone
    alphas = [
        pairwise_alpha(ResidualChain(cert.dim, net.n_in, (net,)), r=1.0, n=40, seed=64 + i).alpha
        for i, net in enumerate(cert.blocks)
    ]
    floor = contraction_certificate(delta) - 1e-6
    assert np.min(alphas) >= floor, (
        f"a block's sampled modulus {np.min(alphas):.9f} falls below {floor:.9f}"
    )

    refused = False
    message = ""
    try:
        ResidualChain.seeded(12, 12, 3, delta=1.5, seed=61)
    except ValueError as exc:
        refused = True
        message = str(exc)
    assert refused, "a contraction bound of 1.5 was accepted as a certificate"
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
    assert scan5.endpoint_signs == (1, -1), (
        f"endpoint determinant signs {scan5.endpoint_signs} are not (+1, -1)"
    )
    s_star, det_at_star, min_sv_at_star = scan5.stars[0]
    assert abs(det_at_star) < 1e-10, (
        f"|det| at the bisected crossing is {abs(det_at_star):g} (>= 1e-10)"
    )

    scan1 = singularity_scan("a", 1, s_grid=101, bisect_tol=1e-12)
    one_mode_s_star = scan1.stars[0][0]
    assert abs(one_mode_s_star - 0.5) <= 1e-9, (
        f"one-mode crossing sits at {one_mode_s_star!r}, not 0.5 +- 1e-9"
    )

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
    assert scan.endpoint_signs == (1, -1), (
        f"endpoint determinant signs {scan.endpoint_signs} are not (+1, -1)"
    )
    t_true = m / (2.0 * (m + 2.0))
    t_star, det_at_star, min_sv_at_star = scan.stars[0]
    assert abs(t_star - t_true) <= 1e-6, (
        f"crossing located at {t_star!r}, not within 1e-6 of {t_true!r}"
    )

    defects = []
    for t in scan.grid:
        full = aligned_truncation_matrix(float(t), m)
        defects.append(np.max(np.abs(full.T @ full - np.eye(full.shape[0]))))
    worst_orth = float(np.max(defects))
    assert worst_orth <= 1e-10, (
        f"a full path matrix strays from orthogonality by {worst_orth:g}"
    )
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
        for ratio in conv.ratios:
            assert 1.7 <= ratio <= 2.3, (
                f"g={name}: H1 error ratio {ratio:.4f} leaves [1.7, 2.3] "
                f"(all ratios: {[f'{q:.4f}' for q in conv.ratios]})"
            )
        energies = list(conv.newton.energies)
        assert _strictly_decreasing(energies), (
            f"g={name}: Newton energies do not decrease strictly: {energies}"
        )
        detail[name] = {
            "errors": list(conv.errors),
            "ratios": list(conv.ratios),
            "newton_energies": energies,
        }
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"solver sweep took {elapsed:.1f}s, budget is 30s"
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

    bases = ball_samples(dim, 1.0, 5, seed=73)
    checked = 0
    for base in bases:
        scan = orientation_scan(monotone_path, 21, 6, base_point=base, dim=dim)
        assert not scan.brackets, (
            "a strongly monotone path shows a determinant sign change"
        )
        for t, det in zip(scan.grid, scan.dets):
            checked += 1
            assert det > 0.0, (
                f"compressed determinant {det:g} at t={t:g} is not positive"
            )

    def scalar_path(t: float):
        def step(x, s=float(t)):
            return (1.0 - 2.0 * s) * x

        return step

    scan = orientation_scan(scalar_path, 20, 7, dim=dim, refine_tol=1e-7)
    assert len(scan.brackets) == 1, (
        f"scalar path shows {len(scan.brackets)} sign changes, expected 1"
    )
    lo, hi = scan.brackets[0]
    mid = 0.5 * (lo + hi)
    assert lo <= 0.5 <= hi and abs(mid - 0.5) <= 1e-6, (
        f"scalar flip bracketed at [{lo!r}, {hi!r}], not within 1e-6 of 0.5"
    )
    return {
        "monotone_points_checked": checked,
        "monotone_sign_changes": 0,
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
