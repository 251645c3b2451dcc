import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opdisc.discretize import ConvergenceReport
from opdisc.galerkin import FemConvergence, NewtonTrace
from opdisc.invert import InversionTrace
from opdisc.layers import (
    CoordinateNetNonlinearity,
    CoordinateNetwork,
    NemytskiiNonlinearity,
    NeuralOperatorLayer,
    ResidualChain,
    affine_nonlinearity,
    make_layer,
)
from opdisc.monotone import BilipschitzEstimate
from opdisc.operators import FiniteRankOperator, Reflection, activation_from_name
from opdisc.serialize import (
    CHAINS,
    SCHEMA_VERSION,
    SpecError,
    blob_hash,
    canonical_json,
    chain_from_spec,
    check_keys,
    head_from_spec,
    layer_from_spec,
    load_json,
    network_from_spec,
    nonlinearity_from_spec,
    operator_from_spec,
    read_envelope,
    space_from_config,
    write_csv,
    write_json,
)

# a literal two-stage network on R^2, as a config file would spell it
NET_SPEC = {
    "kind": "coordinate_network",
    "weights": [[[0.5, 0.1], [0.0, 0.3]], [[0.2, 0.0], [0.1, 0.4]]],
    "biases": [[0.1, -0.2], [0.0, 0.05]],
    "activation": "tanh",
}


def net_from_literal(activation=None):
    """The network NET_SPEC describes, built without the reader."""
    return CoordinateNetwork(
        tuple(np.array(w) for w in NET_SPEC["weights"]),
        tuple(np.array(b) for b in NET_SPEC["biases"]),
        activation or activation_from_name("tanh"),
    )


def probe_points(dim, n=6, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, dim))


class TestCanonical:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=200, deadline=None)
    def test_seventeen_digits_lose_nothing(self, x):
        assert json.loads(canonical_json(x)) == x

    def test_numpy_scalars_become_plain(self):
        out = canonical_json({"i": np.int64(3), "f": np.float64(0.1), "b": np.bool_(True)})
        assert out == '{"b":true,"f":0.1,"i":3}'

    def test_arrays_become_nested_lists(self):
        assert canonical_json(np.arange(6.0).reshape(2, 3)) == "[[0.0,1.0,2.0],[3.0,4.0,5.0]]"

    def test_canonical_json_is_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1.5, 2]}) == '{"a":[1.5,2],"b":1}'

    def test_blob_hash_ignores_key_order(self):
        assert blob_hash({"a": 1, "b": 2.5}) == blob_hash({"b": 2.5, "a": 1})

    def test_blob_hash_sees_value_changes(self):
        assert blob_hash({"a": 1.0}) != blob_hash({"a": 1.0 + 1e-12})


class TestValidation:
    def test_missing_key(self):
        with pytest.raises(SpecError, match="missing required"):
            check_keys({"a": 1}, "thing", {"a", "b"})

    def test_unknown_key(self):
        with pytest.raises(SpecError, match="unknown keys"):
            check_keys({"a": 1, "zz": 2}, "thing", {"a"})

    def test_not_an_object(self):
        with pytest.raises(SpecError, match="expected an object"):
            check_keys([1, 2], "thing", set())

    def test_envelope_requires_schema_tag(self):
        with pytest.raises(SpecError, match="missing required"):
            read_envelope({"y": []}, "y file", {"y"})

    def test_envelope_rejects_future_schema(self):
        with pytest.raises(SpecError, match="unsupported schema"):
            read_envelope({"schema": SCHEMA_VERSION + 1, "y": []}, "y file", {"y"})

    def test_envelope_rejects_a_boolean_schema(self):
        # True == 1 in Python, but a JSON true is not the schema number
        with pytest.raises(SpecError, match="y file: unsupported schema True"):
            read_envelope({"schema": True, "y": []}, "y file", {"y"})


    @pytest.mark.parametrize(
        "read,spec,match",
        [
            (network_from_spec, {**NET_SPEC, "weights": 3}, "weights must be a list"),
            (network_from_spec, {**NET_SPEC, "biases": [["a", 0.0], [0.0, 0.0]]},
             "biases must hold numbers"),
            (network_from_spec, {**NET_SPEC, "activation": "leaky_relu(steep)"},
             "parameter must be a number"),
            (operator_from_spec, {"kind": "finite_rank", "omegas": ["big"], "psi": [[1.0]],
                                  "phi": [[1.0]]}, "omegas must hold numbers"),
            (operator_from_spec, {"kind": "seeded_finite_rank", "rank": 2, "seed": 1,
                                  "dim": 6, "scale": "large"}, "scale must be a number"),
            (chain_from_spec, {"kind": "seeded_chain", "ambient_dim": 4, "num_blocks": 2,
                               "seed": 1, "hidden": [8, 4.5]}, "hidden must be a list"),
            (chain_from_spec, {"kind": "seeded_chain", "ambient_dim": 4, "num_blocks": 2,
                               "seed": 1, "delta": "half"}, "delta must be a number"),
        ],
    )
    def test_a_bad_number_is_a_spec_error(self, read, spec, match):
        with pytest.raises(SpecError, match=match):
            read(spec)

    @pytest.mark.parametrize(
        "read,spec,where,key",
        [
            (layer_from_spec, {"kind": "seeded_layer", "seed": 3, "hidden": "24"},
             "layer", "hidden"),
            (chain_from_spec, {"kind": "seeded_chain", "ambient_dim": 4, "num_blocks": 2,
                               "seed": 1, "hidden": "3"}, "chain", "hidden"),
            (operator_from_spec, {"kind": "seeded_finite_rank", "rank": 2, "seed": 1,
                                  "dim": 6, "psi_prefix": "no"}, "operator", "psi_prefix"),
            (layer_from_spec, {"kind": "seeded_layer", "seed": 3, "out_phi_prefix": "no"},
             "layer", "out_phi_prefix"),
            (space_from_config, {"basis": "fourier", "ambient_dim": True},
             "space", "ambient_dim"),
            (network_from_spec, {"kind": "seeded_coordinate_network", "n_in": True,
                                 "n_out": 4, "seed": 1}, "network", "n_in"),
            (network_from_spec, {"kind": "seeded_coordinate_network", "n_in": 4,
                                 "n_out": True, "seed": 1}, "network", "n_out"),
            (layer_from_spec, {"kind": "seeded_layer", "seed": 3, "hidden": [0]},
             "layer", "hidden"),
            (chain_from_spec, {"kind": "seeded_chain", "ambient_dim": 4, "num_blocks": 2,
                               "seed": 1, "ball_radius": "x"}, "chain", "ball_radius"),
            (operator_from_spec, {"kind": "seeded_finite_rank", "rank": 2, "seed": 1,
                                  "dim": 6, "decay": "nan"}, "operator", "decay"),
            (network_from_spec, {"kind": "seeded_coordinate_network", "n_in": 0,
                                 "n_out": 2, "seed": 1}, "network", "n_in"),
            (chain_from_spec, {"kind": "seeded_chain", "ambient_dim": 4, "prefix_n": 0,
                               "num_blocks": 2, "seed": 1}, "chain", "prefix_n"),
            (operator_from_spec, {"kind": "finite_rank", "omegas": [None],
                                  "psi": [[1.0, 0.0]], "phi": [[1.0, 0.0]]}, "operator", "omegas"),
            (space_from_config, {"basis": "fourier", "ambient_dim": "8"},
             "space", "ambient_dim"),
            (chain_from_spec, {"kind": "seeded_chain", "ambient_dim": 4, "num_blocks": 2,
                               "seed": "5", "delta": 0.5}, "chain", "seed"),
            (chain_from_spec, {"kind": "seeded_chain", "ambient_dim": 4, "num_blocks": 2,
                               "seed": 5, "delta": "0.5"}, "chain", "delta"),
            (operator_from_spec, {"kind": "finite_rank", "omegas": [True],
                                  "psi": [[1.0, 0.0]], "phi": [[1.0, 0.0]]}, "operator", "omegas"),
        ],
        ids=["layer-hidden-string", "chain-hidden-string", "psi-prefix-string",
             "out-phi-prefix-string", "ambient-dim-true", "n-in-true", "n-out-true",
             "layer-hidden-zero", "ball-radius-without-delta", "decay-nan", "n-in-zero",
             "prefix-n-zero", "omegas-null", "ambient-dim-string", "seed-string",
             "delta-string", "omegas-true"],
    )
    def test_a_refused_value_names_its_key(self, space16, read, spec, where, key):
        with pytest.raises(SpecError, match=f"^{where}: {key} must"):
            read(spec, space16) if read is layer_from_spec else read(spec)

    def test_integral_floats_count_as_integers(self):
        by_int = space_from_config({"basis": "fourier", "ambient_dim": 8})
        by_float = space_from_config({"basis": "fourier", "ambient_dim": 8.0})
        assert by_float.spec == by_int.spec


class TestSpace:
    def test_roundtrip(self, space16):
        config = {"basis": "fourier", "ambient_dim": 16, "quadrature": 64}
        assert space_from_config(config).spec == space16.spec
        abstract = space_from_config({"basis": "abstract_orthonormal", "ambient_dim": 5})
        assert (abstract.spec.kind, abstract.dim) == ("abstract_orthonormal", 5)

    def test_quadrature_default_follows_dimension(self):
        space = space_from_config({"basis": "fourier", "ambient_dim": 12})
        assert space.spec.quadrature_panels == 48

    @pytest.mark.parametrize("panels", [0, -3])
    def test_quadrature_below_one_is_refused(self, panels):
        with pytest.raises(SpecError, match="space: quadrature_panels must be positive"):
            space_from_config({"basis": "fourier", "ambient_dim": 4, "quadrature": panels})

    def test_unknown_config_key(self):
        with pytest.raises(SpecError, match="unknown keys"):
            space_from_config({"basis": "fourier", "ambient_dim": 8, "extra": 1})


class TestOperator:
    def test_explicit_roundtrip_is_exact(self):
        spec = {
            "kind": "finite_rank",
            "omegas": [0.9, 0.1],
            "psi": [[0.6, 0.8, 0.0], [0.0, 0.0, 1.0]],
            "phi": [[1.0, 0.0, 0.0], [0.0, 0.8, -0.6]],
        }
        op = operator_from_spec(spec)
        assert np.array_equal(op.omegas, spec["omegas"])
        assert np.array_equal(op.psi, spec["psi"])
        assert np.array_equal(op.phi, spec["phi"])

    def test_seeded_form_matches_constructor(self):
        spec = {"kind": "seeded_finite_rank", "rank": 4, "seed": 7, "decay": 2.0}
        rebuilt = operator_from_spec(spec, ambient_dim=10)
        direct = FiniteRankOperator.seeded(10, 4, decay=2.0, seed=7)
        xs = probe_points(10)
        assert np.array_equal(rebuilt.eval_array(xs), direct.eval_array(xs))

    def test_seeded_frames_are_orthonormal_and_deterministic(self):
        spec = {"kind": "finite_rank", "omegas": [1.0, 0.5], "psi_seed": 1, "phi_seed": 2}
        a = operator_from_spec(spec, ambient_dim=6)
        b = operator_from_spec(spec, ambient_dim=6)
        assert np.array_equal(a.psi, b.psi) and np.array_equal(a.phi, b.phi)
        assert np.allclose(a.psi @ a.psi.T, np.eye(2), atol=1e-12)
        assert not np.array_equal(a.psi, a.phi)

    def test_frame_seed_needs_ambient_dimension(self):
        spec = {"kind": "finite_rank", "omegas": [1.0], "psi_seed": 1, "phi_seed": 2}
        with pytest.raises(SpecError, match="ambient dimension"):
            operator_from_spec(spec)

    def test_frame_or_seed_required(self):
        with pytest.raises(SpecError, match="'psi' or 'psi_seed'"):
            operator_from_spec(
                {"kind": "finite_rank", "omegas": [1.0], "phi_seed": 2}, ambient_dim=4
            )

    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="unknown operator kind"):
            operator_from_spec({"kind": "dense"})


class TestNetwork:
    def test_explicit_roundtrip_evaluates_identically(self):
        net = network_from_spec(NET_SPEC)
        xs = probe_points(2)
        assert np.array_equal(net.eval_array(xs), net_from_literal().eval_array(xs))
        assert net.activation.name == "tanh"

    def test_seeded_form_matches_constructor(self):
        spec = {
            "kind": "seeded_coordinate_network",
            "n_in": 3,
            "n_out": 3,
            "seed": 11,
            "target_bound": 0.4,
            "activation": "groupsort2",
        }
        rebuilt = network_from_spec(spec)
        direct = CoordinateNetwork.seeded(
            3, 3, target_bound=0.4, activation=activation_from_name("groupsort2"), seed=11
        )
        xs = probe_points(3)
        assert np.array_equal(rebuilt.eval_array(xs), direct.eval_array(xs))

    def test_parametrized_leaky_slope_survives(self):
        net = network_from_spec({**NET_SPEC, "activation": "leaky_relu(0.35)"})
        assert net.activation.name == "leaky_relu(0.35)"
        direct = net_from_literal(activation_from_name("leaky_relu(0.35)"))
        xs = probe_points(2)
        assert np.array_equal(net.eval_array(xs), direct.eval_array(xs))

    def test_only_leaky_takes_a_parameter(self):
        spec = {**NET_SPEC, "activation": "tanh(0.3)"}
        with pytest.raises(SpecError, match="takes no parameter"):
            network_from_spec(spec)

    def test_unknown_activation_lists_the_table(self):
        spec = {**NET_SPEC, "activation": "swish"}
        with pytest.raises(SpecError, match="know \\["):
            network_from_spec(spec)


def middle(nonlin, xs):
    """A middle map G at xs, from its network: the network on the first
    ``net.n_in`` coordinates, the rest copied through."""
    n = nonlin.net.n_in
    out = np.array(xs, dtype=float, copy=True)
    out[..., :n] = nonlin.net.eval_array(out[..., :n])
    return out


class TestNonlinearity:
    def test_zero_roundtrip(self, space16):
        nonlin = nonlinearity_from_spec({"kind": "zero"}, space16)
        assert nonlin.lip == 0.0
        xs = probe_points(16)
        assert np.array_equal(middle(nonlin, xs), np.zeros_like(xs))

    def test_zero_needs_the_space(self):
        with pytest.raises(SpecError, match="^nonlinearity: a zero map needs the space"):
            nonlinearity_from_spec({"kind": "zero"})

    def test_affine_from_spec(self):
        spec = {"kind": "affine", "matrix": [[0.3, 0.1], [0.0, 0.2]], "bias": [1.0, -1.0]}
        nonlin = nonlinearity_from_spec(spec)
        direct = affine_nonlinearity(np.array(spec["matrix"]), np.array(spec["bias"]))
        xs = probe_points(2)
        assert np.array_equal(middle(nonlin, xs), middle(direct, xs))
        assert nonlin.lip == direct.lip

    def test_coordinate_net_roundtrip(self):
        spec = {"kind": "coordinate_net", "net": NET_SPEC, "ambient_dim": 12}
        nonlin = nonlinearity_from_spec(spec)
        direct = CoordinateNetNonlinearity(net_from_literal(), 12)
        xs = probe_points(12)
        assert nonlin.ambient_dim == direct.ambient_dim == 12
        assert np.array_equal(middle(nonlin, xs), middle(direct, xs))

    def test_nemytskii_roundtrip_keeps_scaled_slope(self, space16):
        spec = {"kind": "nemytskii", "activation": "scaled_leaky(0.3)"}
        nonlin = nonlinearity_from_spec(spec, space16)
        direct = NemytskiiNonlinearity(space16, activation_from_name("scaled_leaky(0.3)"))
        for x in probe_points(16):
            assert np.array_equal(middle(nonlin, x), middle(direct, x))
        assert nonlin.lip == direct.lip

    def test_nemytskii_needs_the_space(self):
        with pytest.raises(SpecError, match="needs the space"):
            nonlinearity_from_spec({"kind": "nemytskii", "activation": "tanh"})

    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="unknown nonlinearity kind"):
            nonlinearity_from_spec({"kind": "sigmoid"})


class TestLayer:
    def test_explicit_roundtrip_evaluates_identically(self, space16):
        frame = np.eye(16)
        spec = {
            "kind": "layer",
            "in_op": {"kind": "finite_rank", "omegas": [0.8, 0.5],
                      "psi": frame[:2].tolist(), "phi": frame[:2].tolist()},
            "out_op": {"kind": "finite_rank", "omegas": [0.5, 0.25],
                       "psi": frame[:2].tolist(), "phi": frame[2:4].tolist()},
            "nonlin": {"kind": "affine", "matrix": (0.3 * frame).tolist(), "bias": [0.0] * 16},
        }
        layer = layer_from_spec(spec, space16)
        direct = NeuralOperatorLayer(
            FiniteRankOperator([0.8, 0.5], frame[:2], frame[:2]),
            FiniteRankOperator([0.5, 0.25], frame[:2], frame[2:4]),
            affine_nonlinearity(0.3 * frame, np.zeros(16)),
        )
        xs = probe_points(16)
        assert np.array_equal(layer.eval_array(xs), direct.eval_array(xs))
        assert layer.contraction == direct.contraction

    def test_an_affine_layer_folds_its_frames(self, space16):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((16, 16)) / 8
        b = rng.standard_normal(16)
        spec = {"kind": "layer",
                "in_op": {"kind": "seeded_finite_rank", "rank": 5, "seed": 1},
                "out_op": {"kind": "seeded_finite_rank", "rank": 3, "seed": 2, "scale": 0.5},
                "nonlin": {"kind": "affine", "matrix": a.tolist(), "bias": b.tolist()}}
        layer = layer_from_spec(spec, space16)
        assert layer._folded is not None
        t_in, t_out = layer.in_op, layer.out_op
        xs = probe_points(16)
        # T x = Σ_p ω_p <x, ψ_p> φ_p, row by row
        g = (xs @ t_in.psi.T * t_in.omegas) @ t_in.phi @ a.T + b
        want = xs + (g @ t_out.psi.T * t_out.omegas) @ t_out.phi
        got = layer.eval_array(xs)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # ‖T_in‖·‖T_out‖·‖A‖₂, pinned to the bit
        assert layer.contraction == 0.46705582887669

    def test_nemytskii_layer_roundtrip(self, space16):
        spec = {
            "kind": "layer",
            "in_op": {"kind": "seeded_finite_rank", "rank": 4, "seed": 1},
            "out_op": {"kind": "finite_rank", "omegas": [0.5, 0.25],
                       "psi_seed": 4, "phi_seed": 6},
            "nonlin": {"kind": "nemytskii", "activation": "tanh"},
        }
        layer = layer_from_spec(spec, space16)
        direct = NeuralOperatorLayer(
            operator_from_spec(spec["in_op"], 16),
            operator_from_spec(spec["out_op"], 16),
            NemytskiiNonlinearity(space16, activation_from_name("tanh")),
        )
        for x in probe_points(16):
            assert np.array_equal(layer.eval_array(x), direct.eval_array(x))

    def test_seeded_form_matches_make_layer(self, space16):
        spec = {"kind": "seeded_layer", "seed": 4, "lip_g": 0.5, "rank": 6}
        rebuilt = layer_from_spec(spec, space16)
        direct = make_layer(space16, lip_g=0.5, rank=6, seed=4)
        xs = probe_points(16)
        assert np.array_equal(rebuilt.eval_array(xs), direct.eval_array(xs))

    def test_seeded_form_needs_explicit_seed(self, space16):
        with pytest.raises(SpecError, match=r"layer: missing required keys \['seed'\]"):
            layer_from_spec({"kind": "seeded_layer", "lip_g": 0.5}, space16)

    def test_seeded_form_needs_the_space(self):
        with pytest.raises(SpecError, match="needs the space"):
            layer_from_spec({"kind": "seeded_layer", "seed": 0})

    def test_bad_layer_spec_key_is_reported(self, space16):
        with pytest.raises(ValueError, match=r"layer: unknown keys \['rnak'\]"):
            layer_from_spec({"kind": "seeded_layer", "seed": 0, "rnak": 3}, space16)

    def test_unknown_seeded_layer_activation_is_a_spec_error(self, space16):
        # used to escape the reader as a KeyError from the activation table
        with pytest.raises(SpecError, match="unknown activation 'swish'"):
            layer_from_spec(
                {"kind": "seeded_layer", "seed": 0, "activation": "swish"}, space16
            )

    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="unknown layer kind"):
            layer_from_spec({"kind": "conv"})


class TestChain:
    def test_residual_roundtrip_evaluates_identically(self):
        spec = {"kind": "residual_chain", "ambient_dim": 5, "prefix_n": 2,
                "blocks": [NET_SPEC, NET_SPEC]}
        chain = chain_from_spec(spec)
        direct = ResidualChain(5, 2, (net_from_literal(), net_from_literal()))
        xs = probe_points(5)
        assert np.array_equal(chain.eval_array(xs), direct.eval_array(xs))

    def test_certified_roundtrip_keeps_the_certificate(self):
        inner = {"kind": "residual_chain", "ambient_dim": 5, "prefix_n": 2,
                 "blocks": [NET_SPEC]}
        cert = chain_from_spec(
            {"kind": "invertible_residual_chain", "delta": 0.5, "chain": inner}
        )
        assert isinstance(cert, ResidualChain)
        assert cert.delta == 0.5
        assert cert.radii == (None,)
        xs = probe_points(5)
        assert np.array_equal(cert.eval_array(xs), chain_from_spec(inner).eval_array(xs))
        local = chain_from_spec(
            {"kind": "invertible_residual_chain", "delta": 0.5, "chain": inner,
             "ball_radius": 2.0}
        )
        # the recorded radii are those that certified: tanh has a global bound
        assert (local.radii, local.ball_radius) == ((None,), 2.0)

    def test_seeded_chain_without_delta_is_uncertified(self):
        spec = {"kind": "seeded_chain", "ambient_dim": 6, "num_blocks": 2, "seed": 1}
        chain = chain_from_spec(spec)
        assert isinstance(chain, ResidualChain)
        assert chain.prefix_n == 6  # defaults to the ambient dimension

    def test_seeded_chain_with_delta_is_certified(self):
        spec = {
            "kind": "seeded_chain",
            "ambient_dim": 6,
            "num_blocks": 2,
            "seed": 1,
            "delta": 0.5,
        }
        cert = chain_from_spec(spec)
        assert isinstance(cert, ResidualChain)
        assert cert.delta == 0.5

    def test_seeded_chain_matches_constructor(self):
        spec = {
            "kind": "seeded_chain",
            "ambient_dim": 8,
            "prefix_n": 5,
            "num_blocks": 3,
            "seed": 23,
            "block_bound": 0.4,
        }
        rebuilt = chain_from_spec(spec)
        direct = ResidualChain.seeded(8, 5, 3, block_bound=0.4, seed=23)
        xs = probe_points(8)
        assert np.array_equal(rebuilt.eval_array(xs), direct.eval_array(xs))

    def test_delta_out_of_range_is_refused(self):
        spec = {
            "kind": "seeded_chain",
            "ambient_dim": 6,
            "num_blocks": 2,
            "seed": 1,
            "delta": 1.5,
        }
        with pytest.raises(ValueError, match=r"lie in \(0, 1\)"):
            chain_from_spec(spec)

    def test_ball_radius_without_delta_is_refused(self):
        spec = {"kind": "seeded_chain", "ambient_dim": 8, "num_blocks": 2, "seed": 5,
                "activation": "recu", "ball_radius": 1.0}
        with pytest.raises(SpecError, match="^chain: ball_radius needs .* delta$"):
            chain_from_spec(spec)

    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="unknown chain kind"):
            chain_from_spec({"kind": "markov"})


RESIDUAL_SPEC = {"kind": "residual_chain", "ambient_dim": 5, "prefix_n": 2,
                 "blocks": [NET_SPEC, NET_SPEC]}
RECU_SPEC = {"kind": "seeded_chain", "ambient_dim": 6, "prefix_n": 3, "num_blocks": 2,
             "block_bound": 0.05, "activation": "recu", "bias_scale": 0.0, "seed": 5}
# (spec, how the chain is certified or None for a plain chain, the ball of a
#  ball-local rate)
CERTIFICATE_CASES = {
    "residual_chain": (RESIDUAL_SPEC, None, None),
    "invertible_residual_chain/spectral": (
        {"kind": "invertible_residual_chain", "delta": 0.5, "chain": RESIDUAL_SPEC},
        "spectral", None),
    "invertible_residual_chain/ball_local": (
        {"kind": "invertible_residual_chain", "delta": 0.9, "chain": RECU_SPEC,
         "ball_radius": 1.5},
        "ball_local", 1.5),
    "seeded_chain": ({"kind": "seeded_chain", "ambient_dim": 6, "num_blocks": 3,
                      "block_bound": 0.7, "seed": 2}, None, None),
    "seeded_chain/delta": ({"kind": "seeded_chain", "ambient_dim": 6, "num_blocks": 3,
                            "seed": 2, "delta": 0.4}, "spectral", None),
}


class TestChainCertificates:
    """Every chain carries one certified rate and one radius per block."""

    def test_every_chain_kind_has_a_case(self):
        assert {case.partition("/")[0] for case in CERTIFICATE_CASES} == set(CHAINS)

    @pytest.mark.parametrize("case", sorted(CERTIFICATE_CASES))
    def test_rates_and_radii_are_the_certificate(self, case):
        spec, method, ball = CERTIFICATE_CASES[case]
        chain = chain_from_spec(spec)
        nets = chain.blocks
        assert isinstance(chain, ResidualChain)
        assert len(chain.rates) == len(chain.radii) == len(nets)
        if method is None:
            assert chain.rates == tuple(net.spectral_bound for net in nets)
        else:
            bounds = [net.spectral_bound if ball is None else net.ball_bound(ball)
                      for net in nets]
            assert chain.rates == tuple(min(b, chain.delta) for b in bounds)
            assert all(rate <= chain.delta for rate in chain.rates)
        assert chain.radii == (ball,) * len(nets)

    @pytest.mark.parametrize("activation,ball", [("tanh", None), ("recu", 1.5)])
    def test_certified_spec_is_the_direct_chain(self, activation, ball):
        net = {**NET_SPEC, "activation": activation}
        inner = {"kind": "residual_chain", "ambient_dim": 5, "prefix_n": 2,
                 "blocks": [net, net]}
        spec = {"kind": "invertible_residual_chain", "delta": 0.9, "chain": inner}
        chain = chain_from_spec(spec if ball is None else {**spec, "ball_radius": ball})
        literal = net_from_literal(activation_from_name(activation))
        direct = ResidualChain(5, 2, (literal, literal), delta=0.9, ball_radius=ball)
        assert (chain.rates, chain.radii) == (direct.rates, direct.radii)
        assert chain.radii == (ball, ball)
        xs = probe_points(5)
        assert chain.eval_array(xs).tobytes() == direct.eval_array(xs).tobytes()


class TestHead:
    def test_identity_is_no_head(self):
        assert head_from_spec({"kind": "identity"}) is None
        assert head_from_spec({"kind": "identity"}, dim=4) is None

    def test_reflection_roundtrip(self):
        head = head_from_spec({"kind": "reflection", "e": [0.6, 0.8]}, dim=2)
        assert isinstance(head, Reflection)
        assert np.allclose(head.e, [0.6, 0.8], rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize(
        "e",
        [
            [[0.5, 0.5], [0.5, 0.5]],  # unit norm once flattened, but not a vector
            [1.0, 0.0, 0.0],  # one entry short
            [1.0, 0.0, 0.0, 0.0, 0.0],  # one entry too many
            [1.0, 1.0, 0.0, 0.0],  # not unit length
            [float("nan"), 0.0, 0.0, 0.0],
            ["x", 0.0, 0.0, 0.0],
            [True, False, False, False],
            1.0,
        ],
        ids=["nested", "short", "long", "not_unit", "nan", "not_a_number", "booleans",
             "scalar"],
    )
    def test_reflection_vector_must_be_a_unit_row_of_the_dimension(self, e):
        with pytest.raises(SpecError, match="flat list of 4 finite numbers"):
            head_from_spec({"kind": "reflection", "e": e}, dim=4)

    def test_axis_dim_must_match_the_dimension(self):
        with pytest.raises(SpecError, match="axis_dim 3"):
            head_from_spec({"kind": "reflection", "axis_dim": 3}, dim=4)

    def test_reflection_from_axis_dim(self):
        head = head_from_spec({"kind": "reflection", "axis_dim": 3})
        assert np.array_equal(head.e, [1.0, 0.0, 0.0])

    def test_reflection_falls_back_to_chain_dim(self):
        head = head_from_spec({"kind": "reflection"}, dim=4)
        assert head.e.shape == (4,)

    def test_reflection_needs_some_dimension(self):
        with pytest.raises(SpecError, match="'e' or 'axis_dim'"):
            head_from_spec({"kind": "reflection"})

    def test_unknown_kind(self):
        with pytest.raises(SpecError, match="unknown head kind"):
            head_from_spec({"kind": "rotation"})


_NEWTON = NewtonTrace((2.0, 1.5), (0.1, 1e-12), (1.0, 0.5), 1e-10)
_NEWTON_FIELDS = {"energies": [2.0, 1.5], "residual_norms": [0.1, 1e-12],
                  "step_scales": [1.0, 0.5], "tol": 1e-10}
_ROW = {"dim": 2, "functor_a_error": 0.1, "weak_error": 0.2, "alpha_hat": 0.9}

# a record, and the object its JSON file reads back as
RECORDS = {
    "InversionTrace": (
        InversionTrace((2,), (1e-12,), ((0.1, 0.04),), (40,), (0.5,), 1e-10),
        {"iteration_counts": [2], "final_residuals": [1e-12],
         "residual_histories": [[0.1, 0.04]], "apriori_bounds": [40], "deltas": [0.5],
         "tol": 1e-10, "contraction_ratios": [[0.04 / 0.1]]},
    ),
    "NewtonTrace": (_NEWTON, _NEWTON_FIELDS),
    "FemConvergence": (
        FemConvergence((8, 16), (0.1, 0.025), (4.0,), 128, "cubic", _NEWTON),
        {"mesh_sizes": [8, 16], "errors": [0.1, 0.025], "ratios": [4.0],
         "oracle_cells": 128, "reaction": "cubic", "newton": _NEWTON_FIELDS},
    ),
    "BilipschitzEstimate": (
        BilipschitzEstimate(0.5, 2.0, 1.0, 16, 3),
        {"c_lower": 0.5, "c_upper": 2.0, "ball_radius": 1.0, "sample_count": 16, "seed": 3},
    ),
    "ConvergenceReport": (
        ConvergenceReport((_ROW,), {"description": "scan"}),
        {"rows": [_ROW], "metadata": {"description": "scan"}},
    ),
}


class TestFiles:
    @pytest.mark.parametrize("record", list(RECORDS))
    def test_a_record_is_written_as_its_fields(self, tmp_path, record):
        obj, fields = RECORDS[record]
        write_json(tmp_path / "record.json", obj)
        assert load_json(tmp_path / "record.json") == fields

    def test_json_roundtrip_preserves_floats(self, tmp_path):
        path = tmp_path / "blob.json"
        obj = {"schema": 1, "values": [0.1, 1.0 / 3.0, 2.0**-52]}
        write_json(path, obj)
        assert load_json(path) == obj

    # a cut-off object, an empty file and a byte that is not text
    @pytest.mark.parametrize("raw", [b'{"schema": 1,', b"", b"\xff"])
    def test_a_file_that_is_not_json_is_a_spec_error(self, tmp_path, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        with pytest.raises(SpecError, match=f"^{re.escape(str(path))}: not valid JSON"):
            load_json(path)

    def test_json_output_is_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json(a, {"y": 2, "x": 1})
        write_json(b, {"x": 1, "y": 2})
        assert a.read_bytes() == b.read_bytes()

    def test_json_bytes_match_the_streaming_writer(self, tmp_path):
        # reference: floats rounded through 17 significant digits, then
        # streamed chunk by chunk by json.dump
        def rounded(obj):
            if isinstance(obj, dict):
                return {k: rounded(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [rounded(v) for v in obj]
            if isinstance(obj, np.ndarray):
                return rounded(obj.tolist())
            if isinstance(obj, (bool, np.bool_)):
                return bool(obj)
            if isinstance(obj, (int, np.integer)):
                return int(obj)
            if isinstance(obj, (float, np.floating)):
                return float(format(float(obj), ".17g"))
            return obj

        obj = {
            "edges": [-0.0, 5e-324],
            "numpy": {"f": np.float64(0.1), "i": np.int64(-7), "b": np.bool_(False)},
            "arrays": np.array([[1.0 / 3.0, -2.5e-310], [np.pi, 1e300]]),
            "nested": [{"z": (1, 2.0), "a": None, "s": "x"}, [], {}],
        }
        reference = tmp_path / "reference.json"
        with open(reference, "w") as fh:
            json.dump(rounded(obj), fh, sort_keys=True, indent=2)
            fh.write("\n")
        path = tmp_path / "blob.json"
        write_json(path, obj)
        assert path.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")],
                             ids=["nan", "inf", "-inf"])
    def test_json_refuses_a_non_finite_number_and_writes_nothing(self, tmp_path, value):
        path = tmp_path / "deep" / "blob.json"
        with pytest.raises(ValueError, match=r"^\[write_json\] blob\.json: "):
            write_json(path, {"rows": [{"x": 1.0}, {"x": np.float64(value)}]})
        assert list(tmp_path.iterdir()) == []

    def test_json_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nest" / "blob.json"
        write_json(path, {"ok": True})
        assert load_json(path) == {"ok": True}

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, "dim,value", [(2, 0.1), (4, float("nan"))])
        lines = path.read_text().splitlines()
        assert lines[0] == "dim,value"
        assert lines[1] == "2,0.10000000000000001"
        assert lines[2] == "4,nan"

    def test_csv_floats_reparse_exactly(self, tmp_path):
        path = tmp_path / "table.csv"
        values = [1.0 / 3.0, 0.1 + 0.2, 2.0**0.5]
        write_csv(path, "v", [(v,) for v in values])
        back = [float(line) for line in path.read_text().splitlines()[1:]]
        assert back == values
