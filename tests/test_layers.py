import ast
import inspect
import textwrap
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opdisc import layers, operators
from opdisc.discretize import compress
from opdisc.invert import invert_chain
from opdisc.layers import (
    CoordinateNetNonlinearity,
    CoordinateNetwork,
    NemytskiiNonlinearity,
    NeuralOperatorLayer,
    ResidualChain,
    affine_nonlinearity,
    central_differences,
    eval_map,
    make_layer,
)
from opdisc.monotone import ball_samples
from opdisc.operators import FiniteRankOperator, Identity, activation_from_name
from opdisc.spectral import BasisSpec, Space


class TestCoordinateNetwork:
    def test_seeded_hits_target_bound(self):
        for target in (0.25, 0.5, 0.9, 2.0):
            net = CoordinateNetwork.seeded(6, 6, target_bound=target, seed=3)
            assert net.spectral_bound == pytest.approx(target, rel=1e-12)

    def test_seeded_hits_target_bound_through_a_steep_activation(self):
        # leaky_relu(2) has Lipschitz constant 2 at each of the two junctions
        steep = activation_from_name("leaky_relu(2)")
        net = CoordinateNetwork.seeded(4, 4, activation=steep, target_bound=0.5, seed=1)
        assert net.activation.lipschitz == 2.0
        assert net.spectral_bound == pytest.approx(0.5, rel=1e-12)

    def test_default_architecture(self):
        net = CoordinateNetwork.seeded(5, 5, seed=0)
        assert [w.shape for w in net.weights] == [(20, 5), (20, 20), (5, 20)]
        # the default target, which the benchmark's tracer test builds with
        assert net.spectral_bound == pytest.approx(1.0, rel=1e-12)

    def test_bound_dominates_sampled_lipschitz(self):
        net = CoordinateNetwork.seeded(4, 4, target_bound=0.8, bias_scale=0.5, seed=1)
        rng = np.random.default_rng(2)
        for _ in range(300):
            a, b = rng.standard_normal((2, 4))
            lhs = np.linalg.norm(net.eval_array(a) - net.eval_array(b))
            assert lhs <= net.spectral_bound * np.linalg.norm(a - b) + 1e-12

    def test_zero_target_gives_zero_net(self):
        net = CoordinateNetwork.seeded(3, 3, target_bound=0.0, bias_scale=1.0, seed=4)
        assert net.spectral_bound == 0.0
        assert np.array_equal(net.eval_array(np.ones(3)), np.zeros(3))

    def test_recu_net_has_no_global_bound_but_a_ball_bound(self):
        net = CoordinateNetwork.seeded(
            3, 3, activation=activation_from_name("recu"), target_bound=0.5, seed=5
        )
        assert not np.isfinite(net.spectral_bound)
        local = net.ball_bound(0.5)
        assert np.isfinite(local) and local > 0.0
        # the local certificate dominates sampled quotients inside the ball
        rng = np.random.default_rng(6)
        for _ in range(200):
            a, b = rng.standard_normal((2, 3))
            a *= 0.5 / max(1.0, np.linalg.norm(a))
            b *= 0.5 / max(1.0, np.linalg.norm(b))
            lhs = np.linalg.norm(net.eval_array(a) - net.eval_array(b))
            assert lhs <= local * np.linalg.norm(a - b) + 1e-12

    def test_ball_bound_widens_the_range_radius_by_the_biases(self):
        recu = activation_from_name("recu")
        net = CoordinateNetwork.seeded(3, 3, hidden=(5,), activation=recu, target_bound=0.5,
                                       bias_scale=0.3, seed=5)
        w_in, w_out = net.stage_norms
        reach = w_in * 0.5 + np.linalg.norm(net.biases[0])
        assert net.ball_bound(0.5) == pytest.approx(w_in * recu.local_lipschitz(reach) * w_out,
                                                     rel=1e-15)

    def test_shape_validation(self):
        with pytest.raises(ValueError, match="width"):
            CoordinateNetwork(
                (np.eye(3), np.eye(4)),
                (np.zeros(3), np.zeros(4)),
                activation_from_name("identity"),
            )

    def test_seeded_hits_target_bound_at_certify_shape(self):
        net = CoordinateNetwork.seeded(256, 256, target_bound=0.5)
        assert [w.shape for w in net.weights] == [(1024, 256), (1024, 1024), (256, 1024)]
        assert net.spectral_bound == pytest.approx(0.5, rel=1e-12)

    def test_stage_norms_are_the_top_singular_values(self):
        net = CoordinateNetwork.seeded(5, 3, hidden=(7,), target_bound=0.8, seed=2)
        svd = [np.linalg.svd(w, compute_uv=False)[0] for w in net.weights]
        assert net.stage_norms == pytest.approx(svd, rel=1e-13)
        assert net.spectral_bound == pytest.approx(np.prod(svd), rel=1e-13)

    @settings(max_examples=40, deadline=None)
    @given(
        widths=st.lists(st.integers(min_value=1, max_value=24), min_size=2, max_size=5),
        target=st.floats(min_value=1e-3, max_value=50.0),
        bias_scale=st.sampled_from([0.0, 0.3]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_seeded_norms_match_a_fresh_decomposition(
        self, widths, target, bias_scale, seed
    ):
        """A seeded network carries its raw draws' norms over the rescaling;
        they agree with a fresh decomposition of the stored weights."""
        net = CoordinateNetwork.seeded(
            widths[0], widths[-1], hidden=widths[1:-1], target_bound=target,
            bias_scale=bias_scale, seed=seed,
        )
        fresh = [operators.spectral_norm(w) for w in net.weights]
        assert net.stage_norms == pytest.approx(fresh, rel=1e-14, abs=0.0)
        act = net.activation.lipschitz ** (len(fresh) - 1)
        assert net.spectral_bound == pytest.approx(np.prod(fresh) * act, rel=1e-14, abs=0.0)

    def test_nan_weight_is_refused_naming_its_stage(self):
        w = np.eye(3)
        w[1, 2] = np.nan
        with pytest.raises(ValueError, match="stage 1: non-finite"):
            CoordinateNetwork(
                (np.eye(3), w), (np.zeros(3), np.zeros(3)), activation_from_name("tanh")
            )

    def test_non_finite_bias_is_refused(self):
        with pytest.raises(ValueError, match="stage 0: non-finite"):
            CoordinateNetwork(
                (np.eye(2),), (np.array([0.0, np.inf]),), activation_from_name("identity")
            )

    def test_inf_weight_gets_no_ball_local_certificate(self):
        w = 0.05 * np.eye(4)
        w[0, 0] = np.inf
        with pytest.raises(ValueError, match="stage 0: non-finite"):
            ResidualChain(
                4,
                4,
                (
                    CoordinateNetwork(
                        (w, 0.05 * np.eye(4)),
                        (np.zeros(4), np.zeros(4)),
                        activation_from_name("recu"),
                    ),
                ),
                delta=0.5,
                ball_radius=1.0,
            )

    def test_spectral_bound_is_not_a_constructor_argument(self):
        with pytest.raises(TypeError):
            CoordinateNetwork(
                (np.eye(2),), (np.zeros(2),), activation_from_name("identity"), 5.0
            )
        with pytest.raises(TypeError):
            CoordinateNetwork(
                (np.eye(2),),
                (np.zeros(2),),
                activation_from_name("identity"),
                stage_norms=(1.0,),
            )


class TestFrozenParameters:
    """A network's parameter arrays are its own and read-only."""

    def test_built_network_ignores_later_changes_to_its_inputs(self):
        rng = np.random.default_rng(8)
        ws = [rng.standard_normal((6, 4)), rng.standard_normal((3, 6))]
        bs = [rng.standard_normal(6), rng.standard_normal(3)]
        net = CoordinateNetwork(ws, bs, activation_from_name("tanh"))
        x = rng.standard_normal((5, 4))
        before, norms = net.eval_array(x), net.stage_norms
        for a in ws + bs:
            a *= 3.0
        assert np.array_equal(net.eval_array(x), before)
        assert net.stage_norms == norms

    def test_seeded_parameters_are_read_only(self):
        net = CoordinateNetwork.seeded(4, 3, hidden=(6,), bias_scale=0.5, seed=2)
        for a in net.weights + net.biases:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1.0

    def test_certify_shape_build_holds_each_array_once(self):
        """The traced peak of an m = 256 build stays within its stored
        weights and biases, plus the largest stage's Gram matrix, plus 1 MiB.

        A copy of any 1024 x 1024 stage (8 MiB) breaks it.  tracemalloc does
        not see the copy LAPACK makes inside ``eigvalsh``: the resident peak
        holds one more Gram-sized buffer.
        """
        tracemalloc.start()
        try:
            net = CoordinateNetwork.seeded(256, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        stored = sum(a.nbytes for a in net.weights + net.biases)
        gram = max(8 * min(w.shape) ** 2 for w in net.weights)
        assert peak <= stored + gram + 2**20


class TestSpectralNormCalls:
    """Every matrix norm is worked out once, when its owner is built."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []

        def counted(w):
            seen.append(np.shape(w))
            return operators.spectral_norm(w)

        monkeypatch.setattr(layers, "spectral_norm", counted)
        return seen

    def test_one_call_per_stage_at_construction(self, calls):
        ws = (np.eye(3), 0.5 * np.ones((4, 3)), np.ones((3, 4)))
        bs = (np.zeros(3), np.zeros(4), np.zeros(3))
        CoordinateNetwork(ws, bs, activation_from_name("tanh"))
        assert calls == [(3, 3), (4, 3), (3, 4)]

    def test_seeded_decomposes_each_draw_once(self, calls):
        CoordinateNetwork.seeded(4, 4, hidden=(6,), target_bound=0.5, seed=1)
        assert calls == [(6, 4), (4, 6)]

    def test_bounds_and_certificates_never_recompute(self, calls):
        chain = ResidualChain.seeded(6, 4, 2, block_bound=0.5, seed=3)
        recu = ResidualChain.seeded(
            6, 4, 1, block_bound=0.05, activation=activation_from_name("recu"),
            bias_scale=0.0, seed=4,
        )
        affine = affine_nonlinearity(0.3 * np.eye(4), np.ones(4))
        built = len(calls)
        net = chain.blocks[0]
        assert net.spectral_bound == pytest.approx(0.5, rel=1e-12)
        assert np.isfinite(net.ball_bound(1.0))
        assert affine.lip == pytest.approx(0.3, rel=1e-15)
        certified = replace(chain, delta=0.6)
        local = replace(recu, delta=0.9, ball_radius=1.0)
        y = np.linspace(-0.5, 0.5, 6)
        invert_chain(certified, Identity(), y)
        invert_chain(local, Identity(), y)
        invert_chain(chain, Identity(), y)
        assert len(calls) == built

    @pytest.mark.parametrize("sigma", ["leaky", "identity"])
    def test_a_nemytskii_layer_decomposes_no_grid_stage(self, calls, sigma):
        # the map's bound is its quadrature Gram's, so its grid network's
        # stage norms are never read
        space = Space(BasisSpec("fourier", 32))
        layer = make_layer(space, lip_g=0.5, nonlin="nemytskii", seed=1)
        if sigma == "identity":
            layer = replace(layer, nonlin=NemytskiiNonlinearity(space, activation_from_name(sigma)))
        assert 0.0 < layer.contraction < np.inf
        assert calls == []


class TestLayer:
    def test_matches_manual_composition(self, space16):
        layer = make_layer(space16, rank=5, lip_g=0.7, seed=2)
        x = ball_samples(16, 1.0, 1, seed=0)[0]
        # the middle network spans all 16 coordinates, so G is the network
        manual = x + layer.out_op.eval_array(
            layer.nonlin.net.eval_array(layer.in_op.eval_array(x))
        )
        assert np.array_equal(layer.eval_array(x), manual)

    def test_zero_nonlinearity_is_identity(self, space16):
        layer = make_layer(space16, lip_g=0.0, seed=1)
        x = ball_samples(16, 2.0, 4, seed=3)
        assert np.array_equal(layer.eval_array(x), x)

    def test_zero_out_op_is_identity(self, space16):
        layer = make_layer(space16, rank=4, lip_g=0.5, seed=4)
        zero = FiniteRankOperator(np.zeros(0), np.zeros((0, 16)), np.zeros((0, 16)))
        layer = NeuralOperatorLayer(layer.in_op, zero, layer.nonlin)
        x = ball_samples(16, 1.0, 4, seed=5)
        assert np.array_equal(layer.eval_array(x), x)

    def test_recorded_lip_hits_target(self, space16):
        for kind in ("coordinate_net", "nemytskii", "affine_contraction"):
            layer = make_layer(space16, nonlin=kind, lip_g=0.4, rank=4, seed=7)
            assert layer.lip_nonlin == pytest.approx(0.4, rel=0.05)

    def test_seed_determinism(self, space16):
        a = make_layer(space16, rank=3, lip_g=0.5, seed=42)
        b = make_layer(space16, rank=3, lip_g=0.5, seed=42)
        x = ball_samples(16, 1.0, 1, seed=0)[0]
        assert np.array_equal(a.eval_array(x), b.eval_array(x))
        c = make_layer(space16, rank=3, lip_g=0.5, seed=43)
        assert not np.array_equal(a.eval_array(x), c.eval_array(x))

    def test_infeasible_rank(self, space16):
        with pytest.raises(ValueError, match="rank"):
            make_layer(space16, lip_g=0.5, rank=17)

    def test_unknown_keys_rejected(self, space16):
        with pytest.raises(TypeError, match="unexpected keyword argument 'rnk'"):
            make_layer(space16, lip_g=0.5, rnk=3)

    def test_contraction_product(self, space16):
        layer = make_layer(space16, rank=4, lip_g=0.4, norm_in=0.8, norm_out=1.25, seed=8)
        assert layer.contraction == pytest.approx(0.8 * 1.25 * 0.4, rel=1e-6)


class TestResidualChain:
    def test_tail_is_fixed(self):
        chain = ResidualChain.seeded(12, 5, 3, block_bound=0.8, bias_scale=0.4, seed=1)
        rng = np.random.default_rng(2)
        blocks = [ResidualChain(12, 5, (net,)) for net in chain.blocks]
        for _ in range(20):
            x = rng.standard_normal(12)
            for i in range(3):
                moved = blocks[i].eval_array(x) - x
                # the update is confined to the prefix
                assert np.all(moved[5:] == 0.0)

    def test_invertible_chain_certification(self):
        chain = ResidualChain.seeded(8, 4, 2, block_bound=0.6, seed=3)
        inv = replace(chain, delta=0.6)
        assert inv.radii == (None, None)
        with pytest.raises(ValueError, match="exceeds"):
            replace(chain, delta=0.3)

    def test_cert_method_is_not_a_constructor_argument(self):
        chain = ResidualChain.seeded(8, 4, 2, block_bound=0.6, seed=3)
        with pytest.raises(TypeError):
            ResidualChain(8, 4, chain.blocks, 0.6, None, "ball_local")
        with pytest.raises(TypeError):
            ResidualChain(8, 4, chain.blocks, delta=0.6, cert_method="ball_local")

    def test_delta_outside_unit_interval_refused(self):
        chain = ResidualChain.seeded(8, 4, 1, block_bound=0.5, seed=4)
        with pytest.raises(ValueError, match="\\(0, 1\\)"):
            replace(chain, delta=1.5)
        with pytest.raises(ValueError, match="\\(0, 1\\)"):
            ResidualChain.seeded(8, 4, 1, delta=1.5, seed=4)

    def test_nan_certificate_is_refused(self, monkeypatch):
        chain = ResidualChain.seeded(
            6, 3, 1, block_bound=0.05, activation=activation_from_name("recu"), seed=5
        )
        monkeypatch.setattr(CoordinateNetwork, "ball_bound", lambda self, r: float("nan"))
        with pytest.raises(ValueError, match="certificate nan exceeds"):
            replace(chain, delta=0.9, ball_radius=1.0)

    def test_recu_chain_needs_ball_certificate(self):
        chain = ResidualChain.seeded(
            6, 3, 1, block_bound=0.05, activation=activation_from_name("recu"),
            bias_scale=0.0, seed=5,
        )
        with pytest.raises(ValueError, match="ball_radius"):
            replace(chain, delta=0.9)
        inv = replace(chain, delta=0.9, ball_radius=1.0)
        assert inv.radii == (1.0,)

    def test_sampled_residual_lipschitz_below_delta(self):
        delta = 0.7
        inv = ResidualChain.seeded(10, 4, 3, delta=delta, bias_scale=0.3, seed=6)
        rng = np.random.default_rng(7)
        blocks = [ResidualChain(10, 4, (net,)) for net in inv.blocks]
        for i in range(3):
            for _ in range(200):
                a, b = rng.standard_normal((2, 10))
                ra = blocks[i].eval_array(a) - a
                rb = blocks[i].eval_array(b) - b
                assert (
                    np.linalg.norm(ra - rb)
                    <= (delta + 1e-9) * np.linalg.norm(a - b)
                )


class TestJvp:
    """Jacobian-vector products: central_differences along one direction."""

    def test_identity_and_linear(self, space16):
        x, v = ball_samples(16, 1.0, 2, seed=0)
        got = central_differences(lambda z: z, x, v[None], h=1e-5)[..., 0]
        assert np.allclose(got, v, atol=1e-12)
        t = FiniteRankOperator.seeded(16, 4, seed=2)
        got = central_differences(t, x, v[None], h=1e-5)[..., 0]
        assert np.allclose(got, t.eval_array(v), atol=1e-10)

    def test_quadratic_map_hand_derivative(self, space16):
        e1 = np.eye(16)[0]

        def f(z):
            return z + 0.1 * ((z @ e1) ** 2)[..., None] * e1

        got = central_differences(f, e1, e1[None], h=1e-4)[..., 0]
        want = e1 + 0.2 * e1
        assert np.abs(got - want).max() < 1e-6

    def test_richardson_halving(self, space16):
        # cubic coordinate map: central-difference error must fall ~4x per halving
        def f(z):
            return z + 0.05 * z**3

        x, v = ball_samples(16, 1.0, 2, seed=3)
        exact = v + 0.05 * 3.0 * x**2 * v
        errs = []
        for h in (1e-2, 5e-3, 2.5e-3):
            got = central_differences(f, x, v[None], h=h)[..., 0]
            errs.append(np.linalg.norm(got - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.05)

    def test_linear_in_direction(self, space16):
        layer = make_layer(space16, rank=4, lip_g=0.6, seed=5)
        x, v = ball_samples(16, 1.0, 2, seed=6)
        for a in (0.5, 2.0, -3.0):
            lhs = central_differences(layer, x, a * v[None], h=1e-5)[..., 0]
            rhs = a * central_differences(layer, x, v[None], h=1e-5)[..., 0]
            assert np.linalg.norm(lhs - rhs) <= 1e-6 * abs(a) * np.linalg.norm(v)

    def test_h_validation(self, space16):
        x = np.zeros(16)
        with pytest.raises(ValueError):
            central_differences(lambda z: z, x, x[None], h=0.0)


class TestCentralDifferences:
    def test_linear_map_gives_its_matrix(self):
        t = FiniteRankOperator.seeded(6, 3, seed=1)
        x = ball_samples(6, 1.0, 1, seed=2)[0]
        jac = central_differences(t, x, np.eye(6))
        assert np.abs(jac - t.as_matrix()).max() < 1e-10

    def test_certified_layer_keeps_half(self, space16):
        # contraction product 0.4 <= 1/2: the symmetric part of the prefix
        # Jacobian stays at or above 1/2 and its determinant positive
        compressed = compress(make_layer(space16, lip_g=0.4, seed=13), 6)
        for c in ball_samples(6, 1.0, 8, seed=2):
            jac = central_differences(compressed, c, np.eye(6))
            assert np.linalg.eigvalsh((jac + jac.T) / 2.0)[0] >= 0.5 - 1e-4
            assert np.linalg.det(jac) > 0.0

    def test_non_finite_jacobian_is_an_error(self):
        def bad(x):
            y = np.array(x, copy=True)
            y[..., 0] = np.inf
            return y

        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            central_differences(bad, np.zeros(4), np.eye(4)[:2])
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            central_differences(bad, np.zeros((3, 4)), np.eye(4)[:2])

    def test_batch_of_base_points_equals_a_loop(self, space16):
        layer = make_layer(space16, lip_g=0.4, seed=13)
        xs = ball_samples(16, 1.0, 7, seed=2)
        dirs = np.eye(16)[:6]
        batch = central_differences(layer, xs, dirs)
        loop = np.stack([central_differences(layer, x, dirs) for x in xs])
        assert batch.shape == (7, 16, 6)
        assert np.max(np.abs(batch - loop)) <= 1e-12 * np.max(np.abs(loop))


def test_eval_map_rejects_unknown():
    with pytest.raises(TypeError):
        eval_map(object(), np.zeros(3))


def test_affine_nonlinearity_validation():
    with pytest.raises(ValueError):
        affine_nonlinearity(np.zeros((2, 3)), np.zeros(2))
    aff = affine_nonlinearity(0.5 * np.eye(2), np.ones(2))
    assert aff.lip == pytest.approx(0.5)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_non_finite_affine_bias_is_refused(bad):
    with pytest.raises(ValueError, match="stage 0: non-finite weight or bias"):
        affine_nonlinearity(np.eye(2), [bad, 0.0])


def test_zero_nonlinearity():
    z = affine_nonlinearity(np.zeros((4, 4)), np.zeros(4))
    assert z.lip == 0.0
    assert np.array_equal(z.net.eval_array(np.ones(4)), np.zeros(4))


@pytest.mark.parametrize(
    "lip_g,nonlin,contraction", [(0.0, "coordinate_net", 0.0), (0.4, "affine_contraction", 0.4)]
)
def test_an_affine_middle_map_keeps_its_bound(space16, lip_g, nonlin, contraction):
    """A zero or affine middle map is a one-stage network, folded into the
    layer's frames; its bound is the spectral norm of its weight, so the
    contraction is ‖T_in‖·‖T_out‖·‖A‖₂ to the bit."""
    layer = make_layer(space16, lip_g=lip_g, nonlin=nonlin, bias_scale=0.3, seed=6)
    assert layer._folded is not None
    (weight,) = layer.nonlin.net.weights
    assert layer.lip_nonlin == operators.spectral_norm(weight)
    assert layer.contraction == contraction


def _stages(net, u):
    """A network's stage loop, written out: u·Wᵀ + b per stage, with the
    activation between stages."""
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        u = u @ w.T + b
        if i < len(net.weights) - 1:
            u = net.activation(u)
    return u


def _middle_map(kind, panels, m):
    """The middle map of one kind on m coefficients, and G written out."""
    if kind == "net":
        net = CoordinateNetwork.seeded(m, m, hidden=[20], target_bound=0.6, bias_scale=0.2, seed=3)
        return CoordinateNetNonlinearity(net, m), lambda u: _stages(net, u)
    if kind == "prefix":
        net = CoordinateNetwork.seeded(6, 6, hidden=[10], activation=activation_from_name("tanh"),
                                       target_bound=0.5, bias_scale=0.3, seed=2)
        return CoordinateNetNonlinearity(net, m), lambda u: np.concatenate(
            [_stages(net, u[..., :6]), u[..., 6:]], axis=-1)
    if kind == "affine":
        rng = np.random.default_rng(5)
        a, b = 0.1 * rng.standard_normal((m, m)), 0.3 * rng.standard_normal(m)
        return affine_nonlinearity(a, b), lambda u: u @ a.T + b
    if kind == "zero":
        return affine_nonlinearity(np.zeros((m, m)), np.zeros(m)), lambda u: 0.0 * u
    space = Space(BasisSpec("fourier", m, quadrature_panels=panels))
    sigma = activation_from_name(kind)
    g = NemytskiiNonlinearity(space, sigma)
    if kind == "identity":
        return g, lambda u: u
    bv, w = space.grid_basis, space.weights
    return g, lambda u: (sigma(u @ bv) * w) @ bv.T


# (kind, quadrature panels, lip, contraction), the bounds pinned bit for bit
MIDDLE_MAPS = [
    ("net", None, 0.6000000000000002, 0.4320000000000002),
    ("prefix", None, 1.0, 0.7200000000000001),
    ("affine", None, 0.7513287890498013, 0.5409567281158569),
    ("zero", None, 0.0, 0.0),
    ("tanh", 2, 2.285668893307745, 1.6456816031815766),
    ("tanh", None, 1.000000000000001, 0.7200000000000009),
    ("leaky_relu(0.2)", 2, 2.285668893307745, 1.6456816031815766),
    ("leaky_relu(0.2)", None, 1.000000000000001, 0.7200000000000009),
    ("identity", 2, 1.0, 0.7200000000000001),
    ("identity", None, 1.0, 0.7200000000000001),
]


@pytest.mark.parametrize("kind,panels,lip,contraction", MIDDLE_MAPS)
def test_every_middle_map_evaluates_through_its_folded_stages(kind, panels, lip, contraction):
    """Every layer equals x + T_out(G(T_in x)) with G written out, and keeps
    its bounds: a Nemytskii map is the grid network σ(u·B)·(W·Bᵀ) and a
    prefix network's pass-through folds into one skip matrix."""
    m = 16
    t_in = FiniteRankOperator.seeded(m, 5, scale=0.9, decay=1.0, seed=11)
    t_out = FiniteRankOperator.seeded(m, 5, scale=0.8, decay=1.0, seed=12)
    g, middle = _middle_map(kind, panels, m)
    layer = NeuralOperatorLayer(t_in, t_out, g)
    xs = ball_samples(m, 2.0, 9, seed=4)

    def frame(op, u):
        return ((u @ op.psi.T) * op.omegas) @ op.phi

    want = xs + frame(t_out, middle(frame(t_in, xs)))
    got = layer.eval_array(xs)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert (layer.lip_nonlin, layer.contraction) == (lip, contraction)
    assert (layer._folded[-1] is None) == (kind != "prefix")


def test_a_middle_map_of_another_dimension_is_refused(space16):
    g = NemytskiiNonlinearity(space16, activation_from_name("identity"))
    op = FiniteRankOperator.seeded(8, 4, seed=1)
    with pytest.raises(ValueError, match="share the ambient dimension"):
        NeuralOperatorLayer(op, op, g)


def test_the_layer_evaluation_calls_no_middle_map():
    """NeuralOperatorLayer.eval_array runs the folded stages alone: it reads
    no nonlinearity, and no middle map has an evaluation of its own."""
    source = textwrap.dedent(inspect.getsource(NeuralOperatorLayer.eval_array))
    named = {node.attr for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)}
    assert "_folded" in named
    assert {"nonlin", "eval_array"} & named == set()
    assert "eval_array" not in vars(NemytskiiNonlinearity)
    assert "eval_array" not in vars(CoordinateNetNonlinearity)
