"""Monotonicity: sampled estimates, the structural contraction certificate,
and the pair-quotient kernel."""

import json
import math
import tracemalloc
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opdisc import monotone
from opdisc.acceptance import mixing_bilipschitz_layer
from opdisc.discretize import compress, convergence_scan
from opdisc.layers import NeuralOperatorLayer, eval_map, make_layer
from opdisc.monotone import (
    BilipschitzEstimate,
    ball_samples,
    bilipschitz_estimate,
    contraction_certificate,
    pairwise_alpha,
)
from opdisc.operators import FiniteRankOperator, Identity, Reflection
from opdisc.serialize import canonical_json
from opdisc.spectral import BasisSpec, Space


def diagonal(entries):
    """x -> entries * x, a diagonal linear map on len(entries) coordinates."""
    d = np.array(entries, dtype=float)
    return lambda x: d * x


class TestCertificateTypes:
    def test_bilipschitz_ordering_enforced(self):
        with pytest.raises(ValueError):
            BilipschitzEstimate(c_lower=2.0, c_upper=1.0, ball_radius=1.0,
                                sample_count=4, seed=0)
        with pytest.raises(ValueError):
            BilipschitzEstimate(c_lower=0.0, c_upper=1.0, ball_radius=1.0,
                                sample_count=4, seed=0)

    def test_an_estimate_is_written_by_its_fields(self):
        cert = pairwise_alpha(Identity(), dim=4, n=8, seed=3)
        d = json.loads(canonical_json(cert))
        assert set(d) == {"alpha", "ball_radius", "sample_count", "seed", "minimizing_pair"}
        assert d["sample_count"] == 8
        assert d["seed"] == 3
        assert d["minimizing_pair"] == [x.tolist() for x in cert.minimizing_pair]


class TestPairwiseAlpha:
    def test_identity_is_exactly_one(self):
        cert = pairwise_alpha(Identity(), dim=8)
        assert cert.alpha == 1.0  # quotients are identically one
        assert cert.ball_radius == 1.0
        assert cert.sample_count == 256

    def test_doubling_map_is_exactly_two(self):
        cert = pairwise_alpha(lambda x: 2.0 * x, dim=8)
        assert cert.alpha == 2.0

    def test_reflection_is_refused(self):
        cert = pairwise_alpha(Reflection.first_axis(4), n=256, seed=1, dim=4)
        assert cert.alpha < 0.0

    def test_minimizing_pair_attains_the_minimum(self):
        f = diagonal([0.3, 2.0, 1.0, 1.0, 1.0])
        cert = pairwise_alpha(f, n=128, seed=7, dim=5)
        x1, x2 = cert.minimizing_pair
        dx = x1 - x2
        quo = float((eval_map(f, x1) - eval_map(f, x2)) @ dx) / float(dx @ dx)
        assert quo == pytest.approx(cert.alpha, rel=0, abs=1e-15)
        assert 0.3 - 1e-12 <= cert.alpha <= 2.0 + 1e-12

    def test_subspace_confines_samples(self):
        # a scan row's pair is the compressed map's, lifted back to R^10
        report = convergence_scan(Identity(), [3], n=16, seed=0, dim=10)
        for x in report.rows[0]["estimate"].minimizing_pair:
            assert x.shape == (10,) and np.all(x[3:] == 0.0)

    def test_seed_determinism(self):
        f = diagonal(np.linspace(0.5, 2.0, 6))
        a = pairwise_alpha(f, n=64, seed=11, dim=6)
        b = pairwise_alpha(f, n=64, seed=11, dim=6)
        assert a.alpha == b.alpha
        assert np.array_equal(a.minimizing_pair[0], b.minimizing_pair[0])

    def test_validation(self):
        with pytest.raises(ValueError, match="two samples"):
            pairwise_alpha(Identity(), dim=4, n=1)
        with pytest.raises(ValueError, match="radius"):
            pairwise_alpha(Identity(), dim=4, r=0.0)
        with pytest.raises(ValueError, match="dim"):
            pairwise_alpha(lambda x: x)  # no intrinsic dimension

    def test_a_non_finite_modulus_is_refused(self):
        # |dx|^2 overflows at radius 1e300, so every pair quotient is NaN
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(
            ValueError,
            match=r"^\[pairwise_alpha\] sampled alpha in dimension 2 is nan, not a finite modulus$",
        ):
            pairwise_alpha(compress(Identity(), 2, dim=3), r=1e300, n=4)

    @settings(max_examples=40, deadline=None)
    @given(
        entries=st.lists(
            st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
            min_size=2,
            max_size=8,
        ),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_diagonal_alpha_brackets_by_entries(self, entries, seed):
        """Pair quotients of a diagonal map are convex combinations of its
        entries, so the sampled minimum must land inside [min, max]."""
        cert = pairwise_alpha(diagonal(entries), n=32, seed=seed, dim=len(entries))
        assert min(entries) - 1e-9 <= cert.alpha <= max(entries) + 1e-9


class TestLayerContraction:
    def test_small_product_certifies_one_half(self, space16):
        layer = make_layer(space16, lip_g=0.5, seed=5)
        assert layer.contraction == pytest.approx(0.5, rel=1e-9)
        alpha = contraction_certificate(layer.contraction)
        assert alpha == 1.0 - layer.contraction
        assert alpha == pytest.approx(0.5, rel=1e-9)

    def test_large_product_is_rejected_with_ratio(self, space16):
        layer = make_layer(space16, lip_g=1.2, seed=5)
        assert layer.contraction == pytest.approx(1.2, rel=1e-9)
        assert contraction_certificate(layer.contraction) is None

    def test_zero_output_operator_gives_identity_constant(self, space16):
        base = make_layer(space16, lip_g=0.4, seed=2)
        zero = FiniteRankOperator(np.zeros(0), np.zeros((0, 16)), np.zeros((0, 16)))
        layer = NeuralOperatorLayer(base.in_op, zero, base.nonlin)
        assert contraction_certificate(layer.contraction) == 1.0

    def test_zero_middle_map_gives_identity_constant(self, space16):
        layer = make_layer(space16, lip_g=0.0, seed=2)
        assert layer.lip_nonlin == 0.0
        assert contraction_certificate(layer.contraction) == 1.0

    def test_sampled_estimate_dominates_certificate(self, space16):
        layer = make_layer(space16, lip_g=0.4, seed=9)
        floor = contraction_certificate(layer.contraction)
        sampled = pairwise_alpha(layer, n=128, seed=17)
        assert sampled.alpha >= floor - 1e-6


# small seeded layers for the certificate property below
SPACE8 = Space(BasisSpec("fourier", 8))


class TestContractionCertificate:
    def test_zero_bound_gives_alpha_one(self):
        alpha = contraction_certificate(0.0)
        assert alpha == 1.0 and type(alpha) is float

    @pytest.mark.parametrize("kappa", [0.0, 0.1, 0.25, 0.5, 0.9, 1.0 - 2.0**-53])
    def test_floor_is_one_minus_the_bound(self, kappa):
        assert contraction_certificate(kappa) == 1.0 - kappa

    @pytest.mark.parametrize("kappa", [1.0, 1.5])
    def test_rejection_carries_the_ratio(self, kappa):
        # a bound of one or more certifies no modulus
        assert contraction_certificate(kappa) is None

    def test_infinite_bound_is_a_rejection(self, space16):
        # an unbounded middle map has no finite bound: a rejection, not an error
        layer = make_layer(space16, lip_g=0.5, activation="recu", seed=2)
        assert layer.contraction == np.inf
        assert contraction_certificate(layer.contraction) is None
        assert contraction_certificate(math.inf) is None
        assert contraction_certificate(math.nan) is None

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        lip_g=st.floats(min_value=0.0, max_value=0.95),
        kind=st.sampled_from(
            ["leaky_relu", "tanh", "groupsort2", "affine", "nemytskii", "mixing"]
        ),
        norm_out=st.sampled_from([0.5, 1.0]),
    )
    def test_sampled_alpha_dominates_the_structural_floor(self, seed, lip_g, kind, norm_out):
        """Sampled quotients are upper bounds of the true modulus, which the
        structural certificate bounds from below, on every prefix.  The
        mixing layer nearly attains its bound, so a floor above 1 - kappa
        shows here."""
        spec = {"lip_g": lip_g, "norm_out": norm_out, "bias_scale": 0.3}
        if kind == "affine":
            spec["nonlin"] = "affine_contraction"
        elif kind == "nemytskii":
            spec["nonlin"] = "nemytskii"
        else:
            spec["activation"] = kind
        if kind == "mixing":
            layer = mixing_bilipschitz_layer(SPACE8.dim, kappa=max(lip_g, 0.05), seed=seed)
        else:
            layer = make_layer(SPACE8, seed=seed, **spec)
        floor = contraction_certificate(layer.contraction)
        assert floor is not None
        for d in range(1, SPACE8.dim + 1):
            sampled = pairwise_alpha(compress(layer, d), n=24, seed=seed)
            assert sampled.alpha >= floor - 1e-9


class TestBilipschitz:
    def test_identity(self):
        est = bilipschitz_estimate(Identity(), dim=6, seed=0)
        assert est.c_lower == 1.0
        assert est.c_upper == 1.0

    def test_doubling(self):
        est = bilipschitz_estimate(lambda x: 2.0 * x, dim=6, seed=0)
        assert est.c_lower == pytest.approx(2.0)
        assert est.c_upper == pytest.approx(2.0)

    def test_contractive_layer_brackets(self, space16):
        """A residual layer with contraction product 0.4 distorts distances
        by at most 1 +/- 0.4."""
        layer = make_layer(space16, lip_g=0.4, seed=21)
        est = bilipschitz_estimate(layer, n=256, seed=4)
        assert est.c_lower >= 0.6 - 1e-9
        assert est.c_upper <= 1.4 + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError, match="two samples"):
            bilipschitz_estimate(Identity(), dim=4, n=1)

    @pytest.mark.parametrize("estimate", [pairwise_alpha, bilipschitz_estimate])
    def test_all_degenerate_pairs_name_the_stage(self, estimate):
        # at radius 1e-13 every |dx|^2 falls below the 1e-24 threshold
        with pytest.raises(ValueError, match=rf"^\[{estimate.__name__}\] all sampled"):
            estimate(Identity(), r=1e-13, n=4, dim=3)


class TestInvariants:
    def test_coercivity_along_rays(self, space16):
        """Strong monotonicity forces <F(x), x/|x|> to grow at rate alpha
        along every ray, up to the value at the origin."""
        layer = make_layer(space16, lip_g=0.4, bias_scale=0.5, seed=31)
        alpha = contraction_certificate(layer.contraction)
        rng = np.random.default_rng(8)
        f0 = layer.eval_array(np.zeros(16))
        for rho in (1.0, 10.0, 100.0):
            dirs = rng.standard_normal((64, 16))
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            gain = np.einsum("ij,ij->i", layer.eval_array(rho * dirs) - f0, dirs)
            assert np.min(gain - alpha * rho) >= -1e-6

    def test_projection_does_not_lose_monotonicity(self, space16):
        """Compressing through a prefix subspace preserves pair quotients on
        samples drawn inside that subspace."""
        layer = make_layer(space16, lip_g=0.45, seed=41)

        def projected(x):
            y = eval_map(layer, x)
            y[..., 5:] = 0.0
            return y

        full = pairwise_alpha(compress(layer, 5), n=96, seed=6)
        compressed = pairwise_alpha(compress(projected, 5, dim=16), n=96, seed=6)
        assert compressed.alpha >= full.alpha - 1e-9

    def test_ball_samples_respect_radius_and_support(self):
        xs = compress(Identity(), 3, dim=10).lift(ball_samples(3, 2.5, 200, seed=0))
        norms = np.linalg.norm(xs, axis=1)
        assert np.all(norms <= 2.5 + 1e-12)
        assert np.all(xs[:, 3:] == 0.0)
        assert np.all(np.any(xs[:, :3] != 0.0, axis=1))


def _full_gather_pairs(xs, ys):
    """The pair-quotient kernel as one full gather over every pair: the
    reference the chunked kernel must reproduce bit for bit."""
    i, j = np.triu_indices(xs.shape[0], k=1)
    dx = xs[i] - xs[j]
    dy = ys[i] - ys[j]
    dist2 = np.einsum("ij,ij->i", dx, dx)
    ok = dist2 >= 1e-24
    return i[ok], j[ok], dx[ok], dy[ok], dist2[ok]


def _mid_row_boundary(n: int, step: int) -> bool:
    """Whether some chunk boundary of ``step`` pairs splits a row of the
    upper-triangle pair order."""
    row_starts = set(np.cumsum([0] + list(range(n - 1, 0, -1))).tolist())
    return any(lo not in row_starts for lo in range(step, n * (n - 1) // 2, step))


class TestPairQuotientKernel:
    """The chunked kernel keeps one quotient per pair and matches the full
    gather exactly, so every sampled estimate is unchanged."""

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=200),
        m=st.integers(min_value=1, max_value=300),
        step=st.integers(min_value=1, max_value=64),
        dups=st.integers(min_value=0, max_value=5),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_chunks_match_the_full_gather(self, n, m, step, dups, seed):
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal((n, m))
        ys = np.tanh(xs) + 0.1 * rng.standard_normal((n, m))
        for _ in range(dups):  # duplicate rows make degenerate pairs
            a, b = rng.integers(0, n, size=2)
            xs[a] = xs[b]
        ri, rj, dx, dy, rdist2 = _full_gather_pairs(xs, ys)
        for entries in (monotone._CHUNK_ENTRIES, step * m):
            if entries == step * m and not _mid_row_boundary(n, step):
                continue
            with patch.object(monotone, "_CHUNK_ENTRIES", entries):
                i, j, inner = monotone._pair_quotients(xs, ys, inner=True)
                li, lj, lip = monotone._pair_quotients(xs, ys)
                sup = monotone._sup_quotient(xs, ys)
            for a, b in ((i, j), (li, lj)):
                assert np.array_equal(a, ri) and np.array_equal(b, rj)
            assert np.array_equal(inner, np.einsum("ij,ij->i", dy, dx) / rdist2)
            ref_lip = np.einsum("ij,ij->i", dy, dy) / rdist2
            assert np.array_equal(lip, ref_lip)
            assert sup == float(np.sqrt(np.max(ref_lip, initial=0.0)))

    def test_a_non_finite_sup_quotient_is_refused(self):
        xs = ball_samples(3, 1e300, 4, seed=0)
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(
            ValueError, match=r"^\[sup_quotient\] sampled Lipschitz quotient is nan"
        ):
            monotone._sup_quotient(xs, xs)

    def test_chunk_boundaries_fall_mid_row(self):
        """The default chunk at m = 256 is 128 pairs, which splits rows of
        the 128-sample pair order."""
        assert _mid_row_boundary(128, monotone._CHUNK_ENTRIES // 256)

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=200),
        m=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_estimates_match_the_full_gather(self, n, m, seed):
        a = np.random.default_rng(seed).standard_normal((m, m)) / (2.0 * np.sqrt(m))

        def f(x):
            return x + 0.5 * np.tanh(x @ a.T)

        xs = ball_samples(m, 1.5, n, seed=seed)
        i, j, dx, dy, dist2 = _full_gather_pairs(xs, eval_map(f, xs))
        quo = np.einsum("ij,ij->i", dy, dx) / dist2
        k = int(np.argmin(quo))
        cert = pairwise_alpha(f, r=1.5, n=n, seed=seed, dim=m)
        assert cert.alpha == float(quo[k])
        assert np.array_equal(cert.minimizing_pair[0], xs[i[k]])
        assert np.array_equal(cert.minimizing_pair[1], xs[j[k]])
        dist = np.sqrt(np.einsum("ij,ij->i", dy, dy) / dist2)
        est = bilipschitz_estimate(f, r=1.5, n=n, seed=seed, dim=m)
        assert est.c_lower == float(np.min(dist))
        assert est.c_upper == float(np.max(dist))

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=120),
        m=st.integers(min_value=1, max_value=300),
        data=st.data(),
    )
    def test_a_prefix_is_summed_over_its_columns(self, n, m, data):
        """Lifted samples are zero past d, so the compressed map's quotients
        over d columns are the full-width quotients of f on the lifts."""
        d = data.draw(st.integers(min_value=1, max_value=m))
        seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
        a = np.random.default_rng(seed).standard_normal((m, m)) / (2.0 * np.sqrt(m))

        def f(x):
            return x + 0.5 * np.tanh(x @ a.T)

        g = compress(f, d, dim=m)
        xs = g.lift(ball_samples(d, 1.5, n, seed=seed))
        ys = eval_map(f, xs)
        i, j, quo = monotone._pair_quotients(xs, ys, inner=True)
        cert = pairwise_alpha(g, r=1.5, n=n, seed=seed)
        assert abs(cert.alpha - np.min(quo)) <= 1e-14 * max(1.0, abs(np.min(quo)))
        assert all(row.shape == (d,) for row in cert.minimizing_pair)
        # the Lipschitz quotients keep the same pairs
        li, lj, _ = monotone._pair_quotients(xs, ys)
        assert np.array_equal(li, i) and np.array_equal(lj, j)

    def test_peak_memory_is_one_chunk(self):
        """At 128 samples of dimension 256 the full gather peaks at 64 MB;
        the chunked kernel stays near one 256 KB chunk plus the scalars."""
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((128, 256))
        ys = rng.standard_normal((128, 256))
        tracemalloc.start()
        try:
            monotone._pair_quotients(xs, ys)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
