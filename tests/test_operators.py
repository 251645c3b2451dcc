import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opdisc.layers import NemytskiiNonlinearity
from opdisc.monotone import ball_samples
from opdisc.operators import (
    _ACTIVATIONS,
    _GRAM_EXP,
    Activation,
    FiniteRankOperator,
    Reflection,
    activation_from_name,
    orthonormal_rows,
    spectral_norm,
)
from opdisc.spectral import BasisSpec, Space


def e(i, m=8):
    v = np.zeros(m)
    v[i] = 1.0
    return v


class TestFiniteRank:
    def test_rank_one_application(self):
        t = FiniteRankOperator([2.0], [e(0)], [e(1)])
        got = t.eval_array(e(0))
        assert np.allclose(got, 2.0 * e(1))
        assert np.linalg.norm(t.eval_array(e(2))) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError, match="orthonormal"):
            FiniteRankOperator([1.0, 0.5], [e(0), e(0)], [e(0), e(1)])
        with pytest.raises(ValueError, match="nonincreasing"):
            FiniteRankOperator([0.5, 1.0], [e(0), e(1)], [e(0), e(1)])
        with pytest.raises(ValueError, match="nonnegative"):
            FiniteRankOperator([-1.0], [e(0)], [e(0)])
        with pytest.raises(ValueError, match="rank"):
            FiniteRankOperator([1.0, 0.5], [e(0)], [e(0), e(1)])

    def test_norm_bound_on_random_inputs(self):
        t = FiniteRankOperator.seeded(8, 4, decay=1.0, seed=7)
        rng = np.random.default_rng(0)
        xs = rng.standard_normal((1000, 8))
        norms_in = np.linalg.norm(xs, axis=1)
        norms_out = np.linalg.norm(t.eval_array(xs), axis=1)
        assert np.all(norms_out <= t.norm * norms_in + 1e-12)

    def test_range_inside_phi_span(self):
        t = FiniteRankOperator.seeded(8, 3, seed=1)
        rng = np.random.default_rng(2)
        x = rng.standard_normal(8)
        y = t.eval_array(x)
        # residual after projecting onto span(phi) vanishes
        resid = y - t.phi.T @ (t.phi @ y)
        assert np.linalg.norm(resid) < 1e-12

    def test_linearity(self):
        t = FiniteRankOperator.seeded(6, 2, seed=3)
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal((2, 6))
        lhs = t.eval_array(2.0 * x - 3.0 * y)
        rhs = 2.0 * t.eval_array(x) - 3.0 * t.eval_array(y)
        assert np.allclose(lhs, rhs, atol=1e-13)

    def test_seeded_determinism(self):
        a = FiniteRankOperator.seeded(8, 4, seed=11)
        b = FiniteRankOperator.seeded(8, 4, seed=11)
        assert np.array_equal(a.psi, b.psi) and np.array_equal(a.phi, b.phi)
        c = FiniteRankOperator.seeded(8, 4, seed=12)
        assert not np.array_equal(a.psi, c.psi)

    def test_frames_are_sign_fixed_orthonormal_rows(self):
        a = np.random.default_rng(4).standard_normal((7, 3))
        rows = orthonormal_rows(a)
        assert rows.shape == (3, 7)
        assert np.allclose(rows @ rows.T, np.eye(3), atol=1e-14)
        # the rows span a's columns, each with a positive component along its own
        coeffs = rows @ a
        assert np.allclose(np.tril(coeffs, -1), 0.0, atol=1e-14)
        assert np.all(np.diag(coeffs) > 0.0)

    def test_phi_prefix_option(self):
        t = FiniteRankOperator.seeded(8, 3, seed=2, phi_prefix=True)
        assert np.array_equal(t.phi, np.eye(8)[:3])

    def test_dimension_mismatch(self):
        t = FiniteRankOperator.seeded(8, 2, seed=0)
        with pytest.raises(ValueError, match="mismatch"):
            t.eval_array(np.zeros(5))


class TestLinearExpr:
    def test_reflection_flips_axis(self):
        r = Reflection.first_axis(8)
        assert np.allclose(r.eval_array(e(0)), -e(0))
        assert np.allclose(r.eval_array(e(1)), e(1))

    def test_reflection_isometry_and_involution(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(6)
        r = Reflection(v / np.linalg.norm(v))
        for _ in range(50):
            x = rng.standard_normal(6)
            y = r.eval_array(x)
            assert np.linalg.norm(y) == pytest.approx(np.linalg.norm(x), rel=1e-12)
            assert np.abs(r.eval_array(y) - x).max() < 1e-12

    def test_reflection_requires_unit_vector(self):
        with pytest.raises(ValueError, match="unit"):
            Reflection(np.ones(4))
        with pytest.raises(ValueError, match="unit"):
            Reflection(np.array([np.nan, 0.0]))

    def test_reflection_requires_a_flat_vector(self):
        # a unit-norm (2, 2) array is not a reflection vector of R^4
        with pytest.raises(ValueError, match="one-dimensional"):
            Reflection(np.full((2, 2), 0.5))


def _top_singular_value(w: np.ndarray) -> float:
    return float(np.linalg.svd(w, compute_uv=False)[0])


def _scaled_copy_norm(w):
    """The kernel's formula for any exponent: scale a copy of w by the power
    of two that brings max|w| into [1/2, 1), then take its Gram matrix."""
    exp = math.frexp(np.abs(w).max())[1]
    v = np.ldexp(w, -exp)
    gram = v.T @ v if v.shape[0] >= v.shape[1] else v @ v.T
    return math.ldexp(math.sqrt(np.linalg.eigvalsh(gram)[-1]), exp)


class TestSpectralNorm:
    """The Gram-eigenvalue kernel equals the SVD's top singular value."""

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 64),
        cols=st.integers(1, 64),
        scale_exp=st.integers(-300, 300),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dense_matches_svd(self, rows, cols, scale_exp, seed):
        w = np.random.default_rng(seed).standard_normal((rows, cols)) * 10.0**scale_exp
        assert spectral_norm(w) == pytest.approx(_top_singular_value(w), rel=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(rows=st.integers(1, 64), cols=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
    def test_rank_one_matches_svd(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        w = np.outer(rng.standard_normal(rows), rng.standard_normal(cols))
        assert spectral_norm(w) == pytest.approx(_top_singular_value(w), rel=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 64),
        extra=st.integers(0, 16),
        wide=st.booleans(),
        scale=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scaled_orthogonal_frame_ties(self, n, extra, wide, scale, seed):
        # every singular value equals ``scale``: the top eigenvalue is tied
        q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n + extra, n)))
        w = scale * (q.T if wide else q)
        assert spectral_norm(w) == pytest.approx(scale, rel=1e-13)
        assert spectral_norm(w) == pytest.approx(_top_singular_value(w), rel=1e-13)

    @pytest.mark.parametrize("shape", [(1024, 256), (1024, 1024), (256, 1024)])
    def test_certify_stage_shapes_match_the_scaled_copy(self, shape):
        w = np.random.default_rng(7).standard_normal(shape)
        assert spectral_norm(w) == _scaled_copy_norm(w)

    @pytest.mark.parametrize("edge", [-_GRAM_EXP, _GRAM_EXP])
    @pytest.mark.parametrize("step", [-1, 0, 1])  # inside, at, outside the window
    def test_window_edges_match_the_scaled_copy(self, edge, step):
        w = np.random.default_rng(9).standard_normal((48, 32))
        exp = edge + step * (1 if edge > 0 else -1)
        w *= 2.0 ** (exp - math.frexp(np.abs(w).max())[1])
        assert math.frexp(np.abs(w).max())[1] == exp
        assert spectral_norm(w) == _scaled_copy_norm(w)

    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (64, 5), (0, 4)])
    def test_zero_matrix_is_exactly_zero(self, shape):
        got = spectral_norm(np.zeros(shape))
        assert got == 0.0 and not np.signbit(got)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entries_are_refused(self, bad):
        w = np.array([[1.0, 1.0], [1.0, 1.0]])
        w[0, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            spectral_norm(w)

    def test_needs_a_matrix(self):
        with pytest.raises(ValueError, match="matrix"):
            spectral_norm(np.ones(3))


class TestActivations:
    def test_recu_shape(self):
        recu = activation_from_name("recu")
        s = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
        assert np.allclose(recu(s), [0.0, 0.0, 0.0, 0.125, 8.0])

    def test_recu_is_c1_at_zero(self):
        recu = activation_from_name("recu")
        for h in (1e-2, 1e-3, 1e-4):
            fd = (recu(h) - recu(-h)) / (2 * h)
            assert abs(fd) <= h  # derivative at 0 is 0, approached quadratically

    def test_recu_monotone(self):
        recu = activation_from_name("recu")
        grid = np.linspace(-3.0, 3.0, 201)
        assert np.all(np.diff(recu(grid)) >= 0.0)

    def test_derivative_bounds_hold_on_grid(self):
        # the Lipschitz constant bounds every difference quotient, and on
        # [-r, r] the cubed rectifier's local constant does
        grid = np.linspace(-5.0, 5.0, 301)
        for name in ("identity", "leaky_relu(-3)", "tanh", "scaled_leaky(0.4)", "recu"):
            act = activation_from_name(name)
            slopes = np.abs(np.diff(act(grid)) / np.diff(grid))
            assert np.all(slopes <= act.local_lipschitz(5.0) * (1 + 1e-12)), name

    def test_growth_bounds(self):
        """|σ(s)| <= range_radius(|s|) on scalars, and ‖σ(x)‖₂ <=
        range_radius(‖x‖₂) on vectors, the form CoordinateNetwork.ball_bound
        propagates, for every activation name."""
        names = ("identity", "leaky_relu", "leaky_relu(0.3)", "leaky_relu(3)",
                 "leaky_relu(-0.5)", "recu", "tanh", "scaled_leaky(0.4)", "groupsort2")
        assert {name.split("(")[0] for name in names} == set(_ACTIVATIONS)
        grid = np.linspace(-10.0, 10.0, 101)
        rng = np.random.default_rng(24)
        for name in names:
            act = activation_from_name(name)
            if act.entrywise:  # groupsort2 mixes the grid's coordinates
                bound = np.array([act.range_radius(abs(s)) for s in grid])
                assert np.all(np.abs(act(grid)) <= bound * (1 + 1e-12)), name
            for m in (1, 2, 5, 16):
                # scales from 1e-3 to 10; the nonnegative rows give the cubed
                # rectifier all of their norm, and on the positive axes its
                # bound is tight
                xs = rng.standard_normal((150, m)) * np.exp(rng.uniform(-7.0, 2.3, (150, 1)))
                xs = np.vstack([xs, np.abs(xs), 3.0 * np.eye(m), -3.0 * np.eye(m)])
                bound = np.array([act.range_radius(r) for r in np.linalg.norm(xs, axis=1)])
                assert np.all(np.linalg.norm(act(xs), axis=1) <= bound * (1 + 1e-12)), (name, m)

    def test_groupsort2_sorts_pairs(self):
        gs = activation_from_name("groupsort2")
        v = np.array([3.0, 1.0, -1.0, 5.0, 2.0])
        got = gs(v)
        assert np.allclose(got, [1.0, 3.0, -1.0, 5.0, 2.0])  # odd tail fixed

    @pytest.mark.parametrize("a", [0.2, 1.0, 0.0, -0.5, 3.0])
    def test_leaky_relu_is_the_select_to_the_bit(self, a):
        """Slopes in (0, 1] take max(s, a·s); every slope gives the bits of
        where(s >= 0, s, a·s), signed zeros, infinities and NaN included."""
        s = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1e-310, -1e-310,
                      5e-324, -5e-324, 1.5, -2.5])
        with np.errstate(invalid="ignore"):
            got = activation_from_name(f"leaky_relu({a})")(s)
            want = np.where(s >= 0.0, s, a * s)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            # the max form is wrong off (0, 1], so those slopes keep the select
            if not 0.0 < a <= 1.0:
                assert not np.array_equal(np.maximum(s, a * s).view(np.int64),
                                          want.view(np.int64))

    def test_groupsort2_idempotent_and_1lipschitz(self):
        gs = activation_from_name("groupsort2")
        rng = np.random.default_rng(17)
        for _ in range(1000):
            a, b = rng.standard_normal((2, 6))
            ga, gb = gs(a), gs(b)
            assert np.linalg.norm(ga - gb) <= np.linalg.norm(a - b) + 1e-12
            assert np.array_equal(gs(ga), ga)
        assert gs.lipschitz == 1.0


PINNED_INPUT = np.array([0.25, -1.5, 2.0, -0.5, 0.7])


def _read(name, pointwise, space):
    """The activation ``name`` denotes; with ``pointwise``, read for a
    Nemytskii map, which refuses one that is not entrywise."""
    act = activation_from_name(name)
    if pointwise:
        NemytskiiNonlinearity(space, act)
    return act


class TestActivationNames:
    @pytest.mark.parametrize(
        "name,pointwise,expected",
        [
            ("tanh", False, "tanh"),
            ("leaky_relu", False, "leaky_relu(0.2)"),
            ("leaky_relu(0.35)", False, "leaky_relu(0.35)"),
            ("groupsort2", False, "groupsort2"),
            ("recu", True, "recu"),
            ("scaled_leaky(0.4)", True, "scaled_leaky(0.4)"),
        ],
    )
    def test_names_read_back(self, space16, name, pointwise, expected):
        act = _read(name, pointwise, space16)
        assert isinstance(act, Activation)
        assert act.name == expected
        assert act.entrywise == (name != "groupsort2")

    # outputs on PINNED_INPUT and Lipschitz constants, as the two activation
    # classes this table replaced computed them
    @pytest.mark.parametrize(
        "name,lipschitz,expected",
        [
            ("identity", 1.0, [0.25, -1.5, 2.0, -0.5, 0.7]),
            ("leaky_relu", 1.0, [0.25, -0.30000000000000004, 2.0, -0.1, 0.7]),
            ("leaky_relu(-3)", 3.0, [0.25, 4.5, 2.0, 1.5, 0.7]),
            ("recu", math.inf, [0.015625, 0.0, 8.0, 0.0, 0.3429999999999999]),
            ("tanh", 1.0, [0.24491866240370913, -0.9051482536448665, 0.9640275800758169,
                           -0.46211715726000974, 0.6043677771171634]),
            ("scaled_leaky(0.4)", 0.4, [0.1, -0.12000000000000002, 0.8,
                                        -0.04000000000000001, 0.27999999999999997]),
            ("groupsort2", 1.0, [-1.5, 0.25, -0.5, 2.0, 0.7]),
        ],
    )
    def test_table_entries_pin_their_values(self, name, lipschitz, expected):
        act = activation_from_name(name)
        assert act.lipschitz == lipschitz
        assert act(PINNED_INPUT).tolist() == expected

    @pytest.mark.parametrize("scale", ["-1", "-0.5"])
    def test_a_negative_scale_is_refused(self, scale):
        with pytest.raises(ValueError, match=f"the scale {scale} must be nonnegative"):
            activation_from_name(f"scaled_leaky({scale})")

    @pytest.mark.parametrize(
        "name,pointwise,match",
        [
            ("tanh(2)", True, "'tanh' takes no parameter"),
            ("groupsort2(2)", False, "'groupsort2' takes no parameter"),
            ("scaled_leaky", True, "'scaled_leaky' needs a parameter"),
            ("leaky_relu(steep)", False, "the parameter must be a number"),
            ("leaky_relu(nan)", False, "the parameter must be finite"),
            ("scaled_leaky(inf)", True, "the parameter must be finite"),
            ("tanh(", False, r"unknown activation 'tanh\('"),
            ("leaky_relu(0.3", False, "unknown activation"),
            ("groupsort2", True, "needs an entrywise activation; 'groupsort2' is not"),
            ("swish", False, r"know \["),
            (3, False, "unknown activation 3"),
        ],
    )
    def test_bad_names_are_refused(self, space16, name, pointwise, match):
        with pytest.raises(ValueError, match=match):
            _read(name, pointwise, space16)


def _nemytskii(space, name: str) -> NemytskiiNonlinearity:
    return NemytskiiNonlinearity(space, activation_from_name(name))


class TestNemytskii:
    def test_identity_exact(self, space16):
        u = ball_samples(16, 1.0, 3, seed=0)
        assert np.array_equal(_nemytskii(space16, "identity").net.eval_array(u), u)
        # an exact copy is 1-Lipschitz, however coarse the quadrature
        coarse = Space(BasisSpec("fourier", 16, quadrature_panels=2))
        g = _nemytskii(coarse, "identity")
        assert np.array_equal(g.net.eval_array(u), u)
        assert g.lip == 1.0 < 2.0 < coarse.quadrature_gram_max

    def test_unit_slope_leaky_relu_is_identity(self, space16):
        u = ball_samples(16, 1.0, 3, seed=1)
        assert np.abs(_nemytskii(space16, "leaky_relu(1)").net.eval_array(u) - u).max() < 1e-12

    def test_negative_constant_scales_by_slope(self, space16):
        u = -e(0, 16)  # the function identically -1
        got = _nemytskii(space16, "leaky_relu").net.eval_array(u)
        assert np.abs(got - 0.2 * u).max() < 1e-8

