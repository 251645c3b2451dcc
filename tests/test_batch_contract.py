"""Every map type evaluates a (..., m) batch exactly like its rows, one by one."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opdisc.decompose import (
    CoreCompressedLayer,
    LinearBlock,
    LiftedBlock,
    PathBlock,
    ScalingPath,
    TailBlock,
    choose_w,
    decompose,
)
from opdisc.discretize import compress
from opdisc.layers import (
    CoordinateNetNonlinearity,
    CoordinateNetwork,
    NeuralOperatorLayer,
    ResidualChain,
    affine_nonlinearity,
    eval_map,
    make_layer,
)
from opdisc.monotone import ball_samples
from opdisc.operators import FiniteRankOperator, Identity, Reflection, activation_from_name
from opdisc.spectral import BasisSpec, Space

# roundoff-level tolerance for every inverting block.  Every row stops at
# its own count (Banach holds a converged row's iterate), so a batch row
# lands where its single-row solve does, up to the last bits in which the
# map rounds a batch; the tiny tol keeps what those bits can move a Newton
# step well inside the 1e-12 this contract allows
TIGHT = 1e-13


def _flip_layer(dim: int) -> NeuralOperatorLayer:
    t = FiniteRankOperator(np.ones(2), np.eye(dim)[:2].copy(), np.eye(dim)[:2].copy())
    a = np.zeros((dim, dim))
    a[0, 0] = -2.0
    a[1, 1] = -0.5
    return NeuralOperatorLayer(t, t, affine_nonlinearity(a, np.zeros(dim)))


ACTIVATIONS = ("identity", "leaky_relu", "recu", "tanh", "scaled_leaky(0.4)", "groupsort2")


@pytest.fixture(scope="module")
def maps():
    """name -> (map on (..., m) arrays, m)."""
    space = Space(BasisSpec(ambient_dim=12))
    m = space.dim
    rng = np.random.default_rng(0)
    out = {}

    net = CoordinateNetwork.seeded(m, m, target_bound=0.5, bias_scale=0.3, seed=2)
    window = CoordinateNetwork.seeded(5, 5, target_bound=0.5, seed=3)
    operators_and_heads = {
        "finite_rank": FiniteRankOperator.seeded(m, 4, seed=1),
        "identity": Identity(),
        "reflection": Reflection.first_axis(m),
    }
    for name, f in operators_and_heads.items():
        out[name] = (f, m)

    # middle maps have no evaluation of their own: each kind is checked in
    # the layer that folds it
    layer = make_layer(space, rank=6, lip_g=0.3, activation="tanh", seed=4)
    out["layer"] = (layer, m)
    out["nemytskii_layer"] = (make_layer(space, nonlin="nemytskii", lip_g=0.4, seed=5), m)
    out["zero_layer"] = (make_layer(space, lip_g=0.0, seed=8), m)
    out["affine_layer"] = (
        make_layer(space, nonlin="affine_contraction", lip_g=0.3, bias_scale=0.3, seed=8), m
    )
    prefix_layer = NeuralOperatorLayer(layer.in_op, layer.out_op, CoordinateNetNonlinearity(window, m))
    out["prefix_layer"] = (prefix_layer, m)
    out["coordinate_network"] = (net, m)
    chain = ResidualChain.seeded(m, 5, 2, block_bound=0.6, seed=6)
    out["residual_chain"] = (chain, m)
    out["invertible_chain"] = (ResidualChain(m, 5, chain.blocks, delta=0.6), m)

    # a frame that drops directions, so the tail factor has work to do
    narrow = make_layer(space, rank=3, lip_g=0.3, activation="tanh", seed=7)
    frame, _ = choose_w(narrow, 0.4)
    assert 0 < frame.dim < m
    core = CoreCompressedLayer(narrow, frame)
    k = frame.dim
    out["core_compressed_layer"] = (core, k)
    prefix_frame, _ = choose_w(prefix_layer, 0.4)
    out["prefix_core"] = (CoreCompressedLayer(prefix_layer, prefix_frame), prefix_frame.dim)
    # a bound of 1 or more on Lip(core − Id) gives Banach no rate: Newton inverts
    out["tail_fixed_point"] = (TailBlock(narrow, core, 0.3, TIGHT), m)
    out["tail_newton"] = (TailBlock(narrow, core, 1.5, TIGHT), m)

    fixed_point = PathBlock(ScalingPath(core, k, 0.3), 0.25, 0.5, 1.0, TIGHT)
    newton = PathBlock(ScalingPath(core, k, 1.5), 0.25, 0.5, 1.0, TIGHT)
    out["path_block_fixed_point"] = (fixed_point, k)
    out["path_block_newton"] = (newton, k)
    out["linear_block"] = (LinearBlock(np.eye(k) + 0.1 * rng.standard_normal((k, k))), k)
    out["lifted_block"] = (LiftedBlock(fixed_point, frame), m)

    # every activation of the name table, on an odd width so that
    # groupsort2 leaves a trailing coordinate unpaired
    for name in ACTIVATIONS:
        out[f"activation_{name.partition('(')[0]}"] = (activation_from_name(name), 5)

    out["decomposition"] = (decompose(layer, 0.25, 1.0, composite_tol=64 * TIGHT), m)
    out["decomposition_reflection"] = (
        decompose(_flip_layer(m), 0.5, 1.0, composite_tol=64 * TIGHT),
        m,
    )
    return out


NAMES = [
    "finite_rank", "identity", "reflection", "layer", "nemytskii_layer", "zero_layer",
    "affine_layer", "prefix_layer", "coordinate_network", "residual_chain",
    "invertible_chain", "core_compressed_layer", "prefix_core", "tail_fixed_point",
    "tail_newton", "path_block_fixed_point", "path_block_newton", "linear_block",
    "lifted_block", "decomposition", "decomposition_reflection",
    "activation_identity", "activation_leaky_relu", "activation_recu", "activation_tanh",
    "activation_scaled_leaky", "activation_groupsort2",
]


def test_every_case_is_listed(maps):
    assert sorted(maps) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=10, deadline=None)
@given(
    lead=st.sampled_from([(1,), (5,), (2, 3)]),
    radius=st.floats(min_value=0.1, max_value=2.0),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_batch_equals_rows(maps, name, lead, radius, seed):
    f, m = maps[name]
    xs = ball_samples(m, radius, int(np.prod(lead)), seed=seed).reshape(*lead, m)
    batch = eval_map(f, xs)
    rows = np.stack([eval_map(f, x) for x in xs.reshape(-1, m)]).reshape(batch.shape)
    assert batch.shape == xs.shape
    scale = max(1.0, float(np.max(np.abs(rows))))
    assert np.max(np.abs(batch - rows)) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=12),
    activation=st.sampled_from(ACTIVATIONS),
    data=st.data(),
)
def test_a_folded_layer_equals_its_factors(m, activation, data):
    """A coordinate net spanning the ambient dimension evaluates with its
    frames folded in; that equals applying T_in, the net and T_out."""
    rank = data.draw(st.integers(min_value=1, max_value=m))
    hidden = data.draw(st.lists(st.integers(min_value=1, max_value=2 * m), max_size=2))
    seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
    t_in = FiniteRankOperator.seeded(m, rank, scale=1.2, seed=seed)
    t_out = FiniteRankOperator.seeded(m, rank, scale=0.8, decay=0.5, seed=seed + 1)
    net = CoordinateNetwork.seeded(m, m, hidden=hidden, activation=activation_from_name(activation),
                                   target_bound=0.7, bias_scale=0.3, seed=seed + 2)
    layer = NeuralOperatorLayer(t_in, t_out, CoordinateNetNonlinearity(net, m))
    assert layer._folded is not None
    xs = ball_samples(m, 1.5, 7, seed=seed)
    # the network spans the ambient dimension, so G is the network
    want = xs + t_out.eval_array(net.eval_array(t_in.eval_array(xs)))
    got = layer.eval_array(xs)
    assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=12),
    lead=st.sampled_from([(1,), (5,), (2, 3)]),
    data=st.data(),
)
def test_a_compressed_batch_equals_its_rows(m, lead, data):
    """The compression of a map that evaluates rows alike, elementwise
    and by a coordinate reversal, evaluates a (..., d) batch like its rows
    to the bit."""
    d = data.draw(st.integers(min_value=1, max_value=m))
    seed = data.draw(st.integers(min_value=0, max_value=2**31 - 1))
    compressed = compress(lambda x: np.tanh(x) + 0.5 * x[..., ::-1], d, dim=m)
    cs = ball_samples(d, 1.5, int(np.prod(lead)), seed=seed).reshape(*lead, d)
    batch = compressed.eval_array(cs)
    rows = np.stack([compressed.eval_array(c) for c in cs.reshape(-1, d)])
    assert batch.shape == cs.shape
    assert np.array_equal(batch, rows.reshape(batch.shape))


@pytest.mark.parametrize("name", ["layer", "coordinate_network", "residual_chain"])
def test_a_full_compression_is_the_map(maps, name):
    f, m = maps[name]
    xs = ball_samples(m, 1.5, 9, seed=4)
    assert np.array_equal(compress(f, m, dim=m).eval_array(xs), eval_map(f, xs))


@pytest.mark.parametrize("m", [1, 5, 12])
def test_a_compression_outside_one_to_m_is_refused(m):
    for d in (0, -1, m + 1):
        with pytest.raises(ValueError, match=rf"dimension {d} must lie in 1\.\.{m}$"):
            compress(Identity(), d, dim=m)


# every decompose block, and the carry each hands on: the W-coordinate
# preimage it solved for, or None
BLOCKS = {
    "tail_fixed_point": False,
    "tail_newton": False,
    "path_block_fixed_point": True,
    "path_block_newton": True,
    "linear_block": False,
    "lifted_block": True,
}


@pytest.mark.parametrize("name", BLOCKS)
@pytest.mark.parametrize("lead", [(1,), (5,), (2, 3)])
def test_forward_carries_its_rows(maps, name, lead):
    block, m = maps[name]
    # out to radius 3, past the path blocks' cutoff at 2, where a row carries itself
    xs = ball_samples(m, 3.0, int(np.prod(lead)), seed=17).reshape(*lead, m)
    y, carry = block.forward(xs)
    assert np.array_equal(y, block.eval_array(xs))
    rows = [block.forward(x)[1] for x in xs.reshape(-1, m)]
    if not BLOCKS[name]:
        assert carry is None and all(c is None for c in rows)
        return
    k = rows[0].shape[-1]
    assert carry.shape == (*lead, k)
    scale = max(1.0, float(np.max(np.abs(carry))))
    assert np.max(np.abs(carry - np.stack(rows).reshape(carry.shape))) <= 1e-12 * scale
