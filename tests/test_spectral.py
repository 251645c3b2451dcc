import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from opdisc.spectral import (
    BasisSpec,
    Space,
    SpectralVector,
    Subspace,
    gauss_legendre_panels,
    inner,
    project,
)


def test_basis_spec_validation():
    with pytest.raises(ValueError):
        BasisSpec(kind="wavelet")
    with pytest.raises(ValueError):
        BasisSpec(ambient_dim=0)
    with pytest.raises(ValueError):
        BasisSpec(domain=(0.0, 2.0))
    spec = BasisSpec(ambient_dim=8)
    assert spec.quadrature_panels == 32  # defaults to 4M


def test_fem_hat_has_no_spectral_realization():
    with pytest.raises(ValueError, match="Gram"):
        Space(BasisSpec(kind="fem_hat", ambient_dim=8))


@pytest.mark.parametrize("m", [1, 4, 16, 33, 64])
def test_gram_is_identity(m):
    sp = Space(BasisSpec(ambient_dim=m))
    err = np.abs(sp.gram() - np.eye(m)).max()
    assert err < 1e-10


def test_abstract_space_is_coefficient_only():
    sp = Space(BasisSpec(kind="abstract_orthonormal", ambient_dim=6))
    assert np.array_equal(sp.gram(), np.eye(6))
    with pytest.raises(ValueError, match="pointwise"):
        sp.to_grid(sp.basis_vector(0))
    with pytest.raises(ValueError, match="pointwise"):
        sp.from_grid(np.zeros(sp.nodes.size))


def test_inner_orthonormality(space16):
    e1 = space16.basis_vector(0)
    e2 = space16.basis_vector(1)
    assert inner(e1, e1) == pytest.approx(1.0)
    assert inner(e1, e2) == 0.0
    assert inner(2.0 * e1 + 3.0 * e2, e2) == pytest.approx(3.0)
    with pytest.raises(ValueError, match="mismatch"):
        inner(e1, np.zeros(3))


def test_projection_basics(space16):
    v2 = Subspace.prefix(2)
    e1 = space16.basis_vector(0)
    e3 = space16.basis_vector(2)
    assert project(e3, v2).norm() == 0.0
    full = space16.full_subspace()
    x = space16.sample_ball(1.0, 1, seed=1)[0]
    assert np.array_equal(project(x, full).coeffs, x.coeffs)
    got = project(e1 + e3, v2)
    assert np.array_equal(got.coeffs, e1.coeffs)


coeff_arrays = st.lists(
    st.floats(-10, 10, allow_nan=False, allow_infinity=False, width=32),
    min_size=1,
    max_size=24,
).map(np.asarray)


@given(coeff_arrays, st.integers(0, 24))
@settings(max_examples=60, deadline=None)
def test_projection_pythagoras(c, d):
    x = SpectralVector(c)
    v = Subspace.prefix(min(d, x.dim))
    px = project(x, v)
    qx = x - px
    assert px.norm() ** 2 + qx.norm() ** 2 == pytest.approx(x.norm() ** 2, abs=1e-12)
    # idempotent, norm nonincreasing
    assert np.array_equal(project(px, v).coeffs, px.coeffs)
    assert px.norm() <= x.norm() + 1e-15


@given(coeff_arrays, st.integers(0, 24), st.integers(0, 24))
@settings(max_examples=60, deadline=None)
def test_projection_error_shrinks_with_nesting(c, d1, d2):
    x = SpectralVector(c)
    lo, hi = sorted((min(d1, x.dim), min(d2, x.dim)))
    err_lo = (x - project(x, Subspace.prefix(lo))).norm()
    err_hi = (x - project(x, Subspace.prefix(hi))).norm()
    assert err_hi <= err_lo + 1e-15


def test_prefix_union_is_prefix():
    a = Subspace.prefix(3)
    b = Subspace.prefix(7)
    u = a.union(b)
    assert u.is_prefix and u.dim == 7
    odd = Subspace(frozenset({0, 2}))
    assert not odd.is_prefix


def test_encode_decode(space16):
    alpha = np.array([1.0, 2.0, 3.0])
    assert np.array_equal(space16.encode(space16.decode(alpha), 3), alpha)
    e4 = space16.basis_vector(3)
    back = space16.decode(space16.encode(e4, 3))
    assert back.norm() == 0.0
    assert space16.decode(alpha).norm() == pytest.approx(np.linalg.norm(alpha))
    with pytest.raises(ValueError):
        space16.encode(e4, 17)
    with pytest.raises(ValueError):
        space16.decode(np.zeros(17))
    # decode . encode = prefix projection
    x = space16.sample_ball(2.0, 1, seed=9)[0]
    p5 = space16.decode(space16.encode(x, 5))
    assert np.allclose(p5.coeffs, project(x, Subspace.prefix(5)).coeffs)


def test_grid_roundtrip_trivials(space16):
    const = space16.to_grid(space16.basis_vector(0))
    assert np.allclose(const, 1.0)
    assert np.array_equal(space16.to_grid(space16.zero()), np.zeros_like(space16.nodes))


def test_grid_roundtrip_band_limited(space64):
    for seed in range(3):
        x = space64.sample_ball(5.0, 1, decay=0.5, seed=seed)[0]
        got = space64.from_grid(space64.to_grid(x))
        assert np.abs(got - x.coeffs).max() < 1e-8


def test_from_grid_matches_direct_integration(space16):
    # Independent oracle: coefficients of a smooth non-band-limited function
    # by adaptive quadrature, compared against the quadrature-grid coder.
    f = lambda t: np.exp(t) * np.sin(3.0 * t)
    vals = f(space16.nodes)
    got = space16.from_grid(vals)
    for j in [0, 1, 2, 7, 15]:
        phi = lambda t, j=j: space16.basis_matrix(np.array([t]))[j, 0]
        want, _ = quad(lambda t: f(t) * phi(t), 0.0, 1.0, limit=200)
        assert got[j] == pytest.approx(want, abs=1e-9)


def test_quadrature_against_adaptive_oracle():
    nodes, weights = gauss_legendre_panels(np.linspace(0, 1, 16))
    f = lambda t: np.exp(t) * np.cos(2 * np.pi * t)
    want, _ = quad(f, 0.0, 1.0)
    assert float(weights @ f(nodes)) == pytest.approx(want, abs=1e-12)
    with pytest.raises(ValueError):
        gauss_legendre_panels([0.0])
    with pytest.raises(ValueError):
        gauss_legendre_panels([0.0, 0.5, 0.25, 1.0])


def test_sample_ball_contract(space16):
    assert space16.sample_ball(1.0, 0, seed=0) == []
    xs = space16.sample_ball(0.7, 40, decay=1.0, seed=42)
    assert len(xs) == 40
    assert all(x.norm() <= 0.7 + 1e-12 for x in xs)
    ys = space16.sample_ball(0.7, 40, decay=1.0, seed=42)
    for x, y in zip(xs, ys):
        assert np.array_equal(x.coeffs, y.coeffs)
    zs = space16.sample_ball(0.7, 40, decay=1.0, seed=43)
    assert any(not np.array_equal(x.coeffs, z.coeffs) for x, z in zip(xs, zs))
    with pytest.raises(ValueError):
        space16.sample_ball(-1.0, 4)
    with pytest.raises(ValueError):
        space16.sample_ball(1.0, 4, decay=-0.5)


def test_spectral_vector_is_immutable(space16):
    x = space16.basis_vector(0)
    with pytest.raises(ValueError):
        x.coeffs[0] = 2.0


def test_parseval(space16):
    x = space16.vector(np.arange(16.0))
    assert x.norm() ** 2 == pytest.approx(float(np.sum(np.arange(16.0) ** 2)))
