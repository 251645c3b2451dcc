import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from opdisc.discretize import _tail_error
from opdisc.galerkin import singularity_scan
from opdisc.isotopy import truncated_det_scan
from opdisc.monotone import ball_samples
from opdisc.spectral import (
    BasisSpec,
    Space,
    gauss_legendre_panels,
    path_scan,
    sign_crossings,
    unit_grid,
)


def grid_values(space, c):
    """Values on the quadrature nodes of (..., M) coefficient rows: c·B."""
    return c @ space.grid_basis


def grid_coefficients(space, v):
    """Quadrature coefficients of (..., nodes) grid values: (v·W)·Bᵀ."""
    return (v * space.weights) @ space.grid_basis.T


def quadrature_inner(space, a, b):
    """L2(0, 1) inner product of two coefficient rows, by quadrature on the grid."""
    return float(space.weights @ (grid_values(space, a) * grid_values(space, b)))


def test_basis_spec_validation():
    with pytest.raises(ValueError):
        BasisSpec(kind="wavelet")
    with pytest.raises(ValueError):
        BasisSpec(ambient_dim=0)
    spec = BasisSpec(ambient_dim=8)
    assert spec.quadrature_panels == 32  # defaults to 4M


def test_fem_hat_has_no_spectral_realization():
    # hat bases carry a non-identity Gram matrix and live in the
    # finite-element module, so no basis spec names them
    with pytest.raises(ValueError, match="unknown basis kind 'fem_hat'"):
        BasisSpec(kind="fem_hat", ambient_dim=8)


@pytest.mark.parametrize("m", [1, 4, 16, 33, 64])
def test_gram_is_identity(m):
    sp = Space(BasisSpec(ambient_dim=m))
    bv = sp.basis_matrix(sp.nodes)
    err = np.abs((bv * sp.weights) @ bv.T - np.eye(m)).max()
    assert err < 1e-10


def test_abstract_space_is_coefficient_only():
    sp = Space(BasisSpec(kind="abstract_orthonormal", ambient_dim=6))
    with pytest.raises(ValueError, match="pointwise"):
        sp.grid_basis
    with pytest.raises(ValueError, match="pointwise"):
        sp.basis_matrix([0.5])
    with pytest.raises(ValueError, match="pointwise"):
        sp.quadrature_gram_max


def test_inner_orthonormality(space16):
    # the L2 inner product of the realized functions is the coefficient one
    e1, e2 = np.eye(16)[:2]
    assert quadrature_inner(space16, e1, e1) == pytest.approx(1.0, abs=1e-13)
    assert quadrature_inner(space16, e1, e2) == pytest.approx(0.0, abs=1e-13)
    assert quadrature_inner(space16, 2.0 * e1 + 3.0 * e2, e2) == pytest.approx(3.0)


def test_projection_basics():
    """The prefix tail ‖(Id − P_d) x‖ that the discretization errors read:
    a batch reads its worst row, and an empty batch reads 0."""
    e1, e3 = np.eye(16)[[0, 2]]
    assert _tail_error(e3[None], 2) == 1.0
    assert _tail_error(e3[None], 3) == 0.0
    assert _tail_error((e1 + e3)[None], 2) == 1.0
    assert _tail_error(np.stack([e1, 2.0 * e3]), 1) == 2.0
    xs = ball_samples(16, 1.0, 4, seed=1)
    assert _tail_error(xs, 16) == 0.0
    assert _tail_error(xs, 0) == np.max(np.linalg.norm(xs, axis=1))
    assert _tail_error(np.zeros((0, 16)), 2) == 0.0


coeff_arrays = st.lists(
    st.floats(-10, 10, allow_nan=False, allow_infinity=False, width=32),
    min_size=1,
    max_size=24,
).map(np.asarray)


@given(coeff_arrays, st.integers(1, 24))
@settings(max_examples=60, deadline=None)
def test_projection_pythagoras(c, d):
    d = min(d, c.size)
    tail = _tail_error(c[None], d)
    norm = np.linalg.norm
    assert norm(c[:d]) ** 2 + tail**2 == pytest.approx(norm(c) ** 2, rel=1e-12, abs=1e-12)
    assert _tail_error(c[None], 0) == pytest.approx(norm(c), rel=1e-12)
    assert tail <= norm(c) * (1 + 1e-15)


@given(coeff_arrays, st.integers(1, 24), st.integers(1, 24))
@settings(max_examples=60, deadline=None)
def test_projection_error_shrinks_with_nesting(c, d1, d2):
    lo, hi = sorted((min(d1, c.size), min(d2, c.size)))
    assert _tail_error(c[None], hi) <= _tail_error(c[None], lo) + 1e-15


def test_grid_roundtrip_trivials(space16):
    const = grid_values(space16, np.eye(16)[0])
    assert np.allclose(const, 1.0)
    assert np.array_equal(grid_values(space16, np.zeros(16)), np.zeros_like(space16.nodes))


def test_grid_roundtrip_band_limited(space64):
    xs = ball_samples(64, 5.0, 3, seed=0)
    got = grid_coefficients(space64, grid_values(space64, xs))
    assert np.abs(got - xs).max() < 1e-8


def test_from_grid_matches_direct_integration(space16):
    # Independent oracle: coefficients of a smooth non-band-limited function
    # by adaptive quadrature, compared against the quadrature-grid coder.
    f = lambda t: np.exp(t) * np.sin(3.0 * t)
    vals = f(space16.nodes)
    got = grid_coefficients(space16, vals)
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


def test_sample_ball_contract():
    # every sampler of the package draws through monotone.ball_samples
    assert ball_samples(16, 1.0, 0, seed=0).shape == (0, 16)
    xs = ball_samples(16, 0.7, 40, seed=42)
    assert xs.shape == (40, 16)
    assert np.all(np.linalg.norm(xs, axis=1) <= 0.7 + 1e-12)
    assert np.array_equal(xs, ball_samples(16, 0.7, 40, seed=42))
    assert not np.array_equal(xs, ball_samples(16, 0.7, 40, seed=43))
    with pytest.raises(ValueError):
        ball_samples(16, -1.0, 4)
    with pytest.raises(ValueError):
        ball_samples(16, 1.0, -1)


def test_parseval(space16):
    c = np.arange(16.0)
    assert quadrature_inner(space16, c, c) == pytest.approx(float(np.sum(c**2)))


def _crossings(f, n, tol):
    ts = unit_grid(n)
    return list(sign_crossings(f, ts, [f(t) for t in ts], tol))


def test_unit_grid():
    assert unit_grid(5).tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
    with pytest.raises(ValueError, match="at least two"):
        unit_grid(1)


def test_sign_crossings_collapse_on_exact_zeros():
    def line(t):
        return t - 0.5

    # a zero on the grid, then a zero at the first midpoint of [1/3, 2/3]
    assert _crossings(line, 5, 1e-12) == [(0.5, 0.5)]
    assert _crossings(line, 4, 1e-12) == [(0.5, 0.5)]
    for tol in (0.0, -1.0):
        with pytest.raises(ValueError, match="bisection tolerance"):
            _crossings(line, 5, tol)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sign_crossings_bracket_every_simple_root(data):
    n = 21
    cells = data.draw(
        st.lists(st.integers(0, n - 2), min_size=1, max_size=5, unique=True)
    )
    fracs = data.draw(
        st.lists(st.floats(0.05, 0.95), min_size=len(cells), max_size=len(cells))
    )
    # one root strictly inside each chosen grid cell
    roots = sorted((c + f) / (n - 1) for c, f in zip(cells, fracs))
    tol = 1e-10

    def poly(t):
        return float(np.prod([t - r for r in roots]))

    brackets = _crossings(poly, n, tol)
    assert len(brackets) == len(roots)
    for (lo, hi), r in zip(brackets, roots):
        assert lo <= r <= hi
        assert hi - lo <= tol


@pytest.mark.parametrize(
    "scan",
    [lambda: truncated_det_scan(7, 101, 1e-300), lambda: singularity_scan("a", 5, 101, 1e-300)],
    ids=["isotopy", "galerkin"],
)
def test_bisection_below_float_spacing_ends_on_adjacent_floats(scan):
    # a tolerance below the float spacing used to bisect forever; a stuck
    # loop gets SIGALRM and fails the test instead of hanging the suite
    def stuck(signum, frame):
        raise TimeoutError("bisection did not end")

    previous = signal.signal(signal.SIGALRM, stuck)
    signal.alarm(10)
    try:
        result = scan()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    for lo, hi in result.brackets:
        assert lo < hi == np.nextafter(lo, np.inf)


def _diagonal_path(*entries):
    """A diagonal matrix path whose entries are the given functions of t,
    stacked over an array of parameters as ``path_scan`` calls it."""
    return lambda ts: np.stack([np.diag([f(t) for f in entries]) for t in ts])


def test_path_scan_brackets_one_sign_change():
    root = 0.3 + 1e-3  # between grid points of unit_grid(11)
    scan = path_scan(_diagonal_path(lambda t: 2.0, lambda t: root - t), 11, 1e-9)
    assert scan.endpoint_signs == (1, -1)
    assert len(scan.brackets) == len(scan.stars) == 1
    (lo, hi), (t, det, min_sv) = scan.brackets[0], scan.stars[0]
    assert lo <= root <= hi and hi - lo <= 1e-9
    assert t == 0.5 * (lo + hi)
    assert det == pytest.approx(2.0 * (root - t), abs=1e-15)
    assert min_sv == pytest.approx(abs(root - t), abs=1e-15)
    assert scan.rows()[0] == pytest.approx((0.0, 2.0 * root, root), abs=1e-15)
    assert len(scan.rows()) == 11


def test_path_scan_limit_bisects_only_the_first_crossings():
    roots = (0.21, 0.52, 0.83)
    path = _diagonal_path(*(lambda t, r=r: r - t for r in roots))
    everything = path_scan(path, 11, 1e-9)
    assert len(everything.brackets) == len(everything.stars) == 3
    first = path_scan(path, 11, 1e-9, limit=1)
    assert first.brackets == everything.brackets[:1]
    assert first.stars == everything.stars[:1]
    assert first.brackets[0][0] <= 0.21 <= first.brackets[0][1]


def test_path_scan_exact_zero_on_the_grid():
    scan = path_scan(_diagonal_path(lambda t: 0.5 - t), 5, 1e-9)
    assert scan.brackets == ((0.5, 0.5),)
    assert scan.stars == ((0.5, 0.0, 0.0),)
    assert scan.dets.tolist() == [0.5, 0.25, 0.0, -0.25, -0.5]
