"""Compression functor: error metrics, scans, orientation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opdisc import discretize
from opdisc.cli import run_config
from opdisc.discretize import compress, convergence_scan, functor_a_error, orientation_scan
from opdisc.layers import eval_map, make_layer
from opdisc.monotone import ball_samples, pairwise_alpha
from opdisc.operators import Identity, Reflection


class TestStrongError:
    def test_identity_has_no_tail(self):
        assert functor_a_error(Identity(), 3, dim=8) == 0.0

    def test_contained_range_has_no_tail(self, space16):
        layer = make_layer(space16, lip_g=0.4, rank=4, out_phi_prefix=True, seed=5)
        err = functor_a_error(layer, 6, n=64, seed=1)
        assert err <= 1e-14

    def test_quadratic_tail_bound(self, space64):
        """With singular values p^-2 and prefix-aligned range directions the
        tail is controlled by the first omitted singular value."""
        layer = make_layer(
            space64, lip_g=0.4, rank=40, decay=2.0, out_phi_prefix=True, seed=7
        )
        prev = np.inf
        for d in (4, 8, 16, 32):
            err = functor_a_error(layer, d, n=64, seed=9)
            assert err <= 0.4 * (d + 1) ** -2 + 1e-12
            assert err <= prev + 1e-12
            prev = err


class TestWeakError:
    def test_identity(self):
        report = convergence_scan(Identity(), [2], dim=4, n=32)
        assert report.column("weak_error") == [0.0]

    def test_probe_outside_subspace_sees_the_tail(self, space16):
        layer = make_layer(space16, lip_g=0.4, seed=13)
        report = convergence_scan(layer, [4], n=32)
        assert report.column("weak_error")[0] > 0.0


class TestConvergenceScan:
    def test_identity_rows_are_exact(self):
        report = convergence_scan(Identity(), [2, 4, 6], dim=8, n=32, seed=0)
        assert report.column("functor_a_error") == [0.0, 0.0, 0.0]
        assert report.column("weak_error") == [0.0, 0.0, 0.0]
        assert report.column("alpha_hat") == [1.0, 1.0, 1.0]

    def test_certified_layer_alpha_column(self, space16):
        layer = make_layer(space16, lip_g=0.4, seed=17)
        report = convergence_scan(layer, [2, 4, 8, 16], n=96, seed=3)
        for alpha in report.column("alpha_hat"):
            assert alpha >= 0.5 - 1e-6

    def test_decaying_layer_errors_fall(self, space64):
        layer = make_layer(
            space64, lip_g=0.4, rank=40, decay=2.0, out_phi_prefix=True, seed=19
        )
        report = convergence_scan(layer, [4, 8, 16, 32], n=64, seed=5)
        fa = report.column("functor_a_error")
        assert all(b < a for a, b in zip(fa, fa[1:]))
        weak = report.column("weak_error")
        assert weak[-1] < 1e-3
        assert weak[-1] < weak[0]

    def test_nested_tail_monotonicity_for_generic_layer(self, space16):
        # common samples make nested-projection monotonicity exact, not noisy
        layer = make_layer(space16, lip_g=0.5, seed=23)
        report = convergence_scan(layer, [2, 3, 5, 9, 14], n=48, seed=7)
        fa = report.column("functor_a_error")
        assert all(b <= a for a, b in zip(fa, fa[1:]))

    def test_csv_text_roundtrips(self, space16, tmp_path):
        # the CSV that the discretize-scan runner writes for this scan
        exp = {"name": "scan", "kind": "discretize-scan", "seed": 1, "samples": 32,
               "space": {"basis": space16.spec.kind, "ambient_dim": 16},
               "layer": {"kind": "seeded_layer", "seed": 29, "lip_g": 0.4}, "dims": [2, 4]}
        [outcome] = run_config({"schema": 1, "experiments": [exp]}, tmp_path, 1, None)
        assert outcome["status"] == "ok"
        layer = make_layer(space16, lip_g=0.4, seed=29)
        report = convergence_scan(layer, [2, 4], n=32, seed=1)
        lines = (tmp_path / "scan.csv").read_text().strip().split("\n")
        assert lines[0] == "dim,functor_a_error,weak_error,alpha_hat"
        assert len(lines) == 3
        for line, row in zip(lines[1:], report.rows):
            cells = line.split(",")
            assert int(cells[0]) == row["dim"]
            assert float(cells[1]) == row["functor_a_error"]
            assert float(cells[3]) == row["alpha_hat"]

    def test_shared_samples_are_evaluated_once(self, space16, monkeypatch):
        """The error columns of every dim and the first dim's alpha read one
        evaluation of f on the shared samples; each later dim's alpha is its
        own ``pairwise_alpha`` call; f is evaluated once per dim, and the
        first alpha is ``pairwise_alpha``'s on those samples, bit for bit."""
        layer = make_layer(space16, lip_g=0.5, seed=23)
        batches = []

        class Counted:
            dim = 16

            def eval_array(self, x):
                batches.append(x)
                return layer.eval_array(x)

        drawn = []

        def recorded(*args, **kwargs):
            drawn.append(ball_samples(*args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(discretize, "ball_samples", recorded)
        dims, n = [2, 3, 5, 9, 16], 48
        report = convergence_scan(Counted(), dims, n=n, seed=7)
        # the common samples, drawn in R^2 and lifted to R^16: evaluated once,
        # for the error columns and the first dim's alpha
        common = np.zeros((n, 16))
        common[:, : dims[0]] = drawn[0]
        assert np.array_equal(batches[0], common)
        # beyond those: per dim after the first, alpha's samples
        assert [len(x) for x in batches] == [n] * len(dims)
        standalone = pairwise_alpha(compress(layer, dims[0]), n=n, seed=7)
        assert report.rows[0]["alpha_hat"] == standalone.alpha
        # the error columns, recomputed with numpy from f on the common samples
        fx = layer.eval_array(common)
        for row, d in zip(report.rows, dims):
            assert row["functor_a_error"] == np.max(np.linalg.norm(fx[:, d:], axis=1))
            assert row["weak_error"] == (np.max(np.abs(fx[:, d])) if d < 16 else 0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            convergence_scan(Identity(), [4, 2], dim=8)
        with pytest.raises(ValueError, match="1..8"):
            convergence_scan(Identity(), [2, 9], dim=8)
        with pytest.raises(ValueError, match="at least one"):
            convergence_scan(Identity(), [], dim=8)


class TestOrientationScan:
    def test_constant_identity_path(self):
        scan = orientation_scan(lambda t: Identity(), 3, 3, dim=6)
        assert np.sign(scan.dets).tolist() == [1, 1, 1]
        assert not scan.brackets

    def test_scalar_path_flips_at_one_half(self):
        # the zero at t = 1/2 falls on a bisection midpoint of [1/3, 2/3] with
        # four points and on a grid point with five: both brackets collapse
        for points in (4, 5):
            scan = orientation_scan(
                lambda t: (lambda x, c=1.0 - 2.0 * t: c * x), points, 5, dim=8
            )
            assert scan.endpoint_signs == (1, -1)
            assert scan.brackets == ((0.5, 0.5),)

    def test_bisected_flip_is_bracketed_within_the_tolerance(self):
        scan = orientation_scan(
            lambda t: (lambda x, c=0.7 - t: c * x), 4, 3, dim=6, refine_tol=1e-9
        )
        assert len(scan.brackets) == 1
        lo, hi = scan.brackets[0]
        assert lo <= 0.7 <= hi and hi - lo <= 1e-9

    def test_monotone_path_keeps_orientation(self, space16):
        layer = make_layer(space16, lip_g=0.4, seed=37)

        def path(t):
            return lambda x, s=t: (1.0 - s) * x + s * eval_map(layer, x)

        scan = orientation_scan(path, 9, 6, dim=16)
        assert np.all(scan.dets > 0.0)
        assert not scan.brackets

    def test_reflection_flips_orientation(self):
        scan = orientation_scan(
            lambda t: Reflection.first_axis(8), 2, 5, dim=8
        )
        assert np.sign(scan.dets).tolist() == [-1, -1]
        assert all(abs(abs(det) - 1.0) < 1e-9 for det in scan.dets)
        assert not scan.brackets

    def test_validation(self):
        with pytest.raises(ValueError, match="at least two"):
            orientation_scan(lambda t: Identity(), 1, 2, dim=4)
        with pytest.raises(ValueError, match="at most 50"):
            orientation_scan(lambda t: Identity(), 2, 51, dim=64)
        with pytest.raises(ValueError, match="bisection tolerance"):
            orientation_scan(
                lambda t: Identity(), 2, 2, dim=4, refine_tol=0.0
            )


def _mixing_map(m: int, seed: int):
    """A nonlinear map on m coordinates whose range fills every coordinate."""
    a = 0.5 * np.random.default_rng(seed).standard_normal((m, m))
    return lambda x: x + np.tanh(x @ a)


def _projected(f, d: int):
    """P_V∘f for the prefix V of dimension d."""

    def g(x):
        y = np.array(f(x), dtype=float)
        y[..., d:] = 0.0
        return y

    return g


prefix_cases = st.integers(2, 16).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(1, m), st.integers(0, 2**16))
)


class TestPrefixDimension:
    @settings(max_examples=40, deadline=None)
    @given(prefix_cases)
    def test_alpha_column_samples_the_compressed_map(self, case):
        """Differences of samples in V lie in V, so sampling f there gives
        the compressed map's pair quotients to the bit."""
        m, d, seed = case
        f = _mixing_map(m, seed)
        dims = list(range(d, m + 1))
        report = convergence_scan(f, dims, n=12, seed=seed, dim=m)
        for row in report.rows:
            k = row["dim"]
            direct = pairwise_alpha(compress(f, k, dim=m), n=12, seed=seed).alpha
            compressed = pairwise_alpha(compress(_projected(f, k), k, dim=m), n=12, seed=seed)
            assert row["alpha_hat"] == direct == compressed.alpha

    @settings(max_examples=40, deadline=None)
    @given(prefix_cases)
    def test_range_inside_the_prefix_has_no_tail(self, case):
        m, d, seed = case
        f = _mixing_map(m, seed)
        assert functor_a_error(_projected(f, d), d, n=16, seed=seed, dim=m) == 0.0
        assert functor_a_error(Identity(), d, n=16, seed=seed, dim=m) == 0.0
        if d < m:
            assert functor_a_error(f, d, n=16, seed=seed, dim=m) > 0.0

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 16))
    def test_prefix_outside_one_to_m_is_refused(self, m):
        for d in (0, m + 1):
            with pytest.raises(ValueError, match=f"1..{m}"):
                functor_a_error(Identity(), d, n=4, dim=m)
            with pytest.raises(ValueError, match=f"1..{m}"):
                compress(Identity(), d, dim=m)
            with pytest.raises(ValueError, match=f"1..{m}"):
                orientation_scan(lambda t: Identity(), 2, d, dim=m)
