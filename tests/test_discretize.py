"""Compression functor: exactness, error metrics, scans, orientation."""

import numpy as np
import pytest

from opdisc import discretize
from opdisc.discretize import (
    ConvergenceReport,
    DiscretizedMap,
    continuity_probe,
    convergence_scan,
    csv_float,
    functor_a_error,
    linearize,
    orientation_scan,
)
from opdisc.layers import NeuralOperatorLayer, eval_map, make_layer
from opdisc.monotone import ball_samples
from opdisc.operators import FiniteRankOperator, Identity, Reflection
from opdisc.spectral import Subspace

# the rank-0 operator on 16 coordinates
ZERO16 = FiniteRankOperator(np.zeros(0), np.zeros((0, 16)), np.zeros((0, 16)))


class TestDiscretizedMap:
    def test_output_confined_to_subspace(self, space16):
        layer = make_layer(space16, lip_g=0.4, seed=1)
        fv = linearize(layer, Subspace.prefix(5))
        for x in ball_samples(16, 1.0, 8, seed=2):
            y = fv.eval_array(x)
            assert np.all(y[5:] == 0.0)

    def test_identity_compresses_to_identity(self):
        fv = linearize(Identity(), Subspace.prefix(4), dim=8)
        for x in ball_samples(8, 1.0, 8, seed=0, indices=[0, 1, 2, 3]):
            assert np.allclose(fv.eval_array(x), x, atol=0)

    def test_reflection_about_contained_axis(self):
        # the reflection axis lies inside V, so compressing changes nothing on V
        f = Reflection.first_axis(8)
        fv = linearize(f, Subspace.prefix(3), dim=8)
        for x in ball_samples(8, 1.0, 8, seed=1, indices=[0, 1, 2]):
            assert np.allclose(fv.eval_array(x), f.apply_array(x), atol=1e-15)

    def test_range_outside_subspace_is_projected_out(self, space16):
        base = make_layer(space16, lip_g=0.4, rank=1, seed=3)
        e5 = np.zeros((1, 16))
        e5[0, 4] = 1.0
        out = FiniteRankOperator(np.array([0.8]), base.out_op.psi, e5)
        layer = NeuralOperatorLayer(base.in_op, out, base.nonlin)
        fv = linearize(layer, Subspace.prefix(3))
        for x in ball_samples(16, 1.0, 8, seed=4, indices=[0, 1, 2]):
            assert np.allclose(fv.eval_array(x), x, atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError, match="prefix"):
            linearize(Identity(), Subspace(frozenset({0, 2})), dim=4)
        with pytest.raises(ValueError, match="nonempty prefix"):
            linearize(Identity(), Subspace.prefix(9), dim=4)
        with pytest.raises(ValueError, match="dim"):
            linearize(lambda x: x, Subspace.prefix(2))


class TestStrongError:
    def test_identity_has_no_tail(self):
        assert functor_a_error(Identity(), Subspace.prefix(3), dim=8) == 0.0

    def test_contained_range_has_no_tail(self, space16):
        layer = make_layer(space16, lip_g=0.4, rank=4, out_phi_prefix=True, seed=5)
        err = functor_a_error(layer, Subspace.prefix(6), n=64, seed=1)
        assert err <= 1e-14

    def test_quadratic_tail_bound(self, space64):
        """With singular values p^-2 and prefix-aligned range directions the
        tail is controlled by the first omitted singular value."""
        layer = make_layer(
            space64, lip_g=0.4, rank=40, decay=2.0, out_phi_prefix=True, seed=7
        )
        prev = np.inf
        for d in (4, 8, 16, 32):
            err = functor_a_error(layer, Subspace.prefix(d), n=64, seed=9)
            assert err <= 0.4 * (d + 1) ** -2 + 1e-12
            assert err <= prev + 1e-12
            prev = err

    def test_epsilon_error_vanishes(self, space16):
        layer = make_layer(space16, lip_g=0.4, seed=11)
        report = convergence_scan(layer, [2, 5, 16], n=32)
        assert max(report.column("epsilon_error")) <= 1e-15


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
        assert report.column("epsilon_error") == [0.0, 0.0, 0.0]
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
        assert max(report.column("epsilon_error")) <= 1e-12
        weak = report.column("weak_error")
        assert weak[-1] < 1e-3
        assert weak[-1] < weak[0]

    def test_nested_tail_monotonicity_for_generic_layer(self, space16):
        # common samples make nested-projection monotonicity exact, not noisy
        layer = make_layer(space16, lip_g=0.5, seed=23)
        report = convergence_scan(layer, [2, 3, 5, 9, 14], n=48, seed=7)
        fa = report.column("functor_a_error")
        assert all(b <= a for a, b in zip(fa, fa[1:]))

    def test_csv_text_roundtrips(self, space16):
        layer = make_layer(space16, lip_g=0.4, seed=29)
        report = convergence_scan(layer, [2, 4], n=32, seed=1)
        text = report.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "dim,functor_a_error,epsilon_error,weak_error,alpha_hat"
        assert len(lines) == 3
        for line, row in zip(lines[1:], report.rows):
            cells = line.split(",")
            assert int(cells[0]) == row["dim"]
            assert float(cells[1]) == row["functor_a_error"]
            assert float(cells[4]) == row["alpha_hat"]

    def test_shared_samples_are_evaluated_once(self, space16, monkeypatch):
        """The error columns of every dim read one evaluation of f on the
        shared samples and equal the standalone helpers bit for bit."""
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
        common = drawn[0]
        assert sum(x is common for x in batches) == 1
        # beyond that one: per dim, the compression's 4-sample self-check
        # (both sides), the compressed side of epsilon and alpha's samples
        assert sum(len(x) for x in batches) == n + len(dims) * (8 + 2 * n)
        # the error columns, recomputed with numpy from f on the common
        # samples; those lie in the smallest prefix, so compressing them
        # evaluates f on the very same batch and the epsilon column is 0
        fx = layer.eval_array(common)
        for row, d in zip(report.rows, dims):
            assert row["functor_a_error"] == np.max(np.linalg.norm(fx[:, d:], axis=1))
            assert row["epsilon_error"] == 0.0
            assert row["weak_error"] == (np.max(np.abs(fx[:, d])) if d < 16 else 0.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="ascending"):
            convergence_scan(Identity(), [4, 2], dim=8)
        with pytest.raises(ValueError, match="1..8"):
            convergence_scan(Identity(), [2, 9], dim=8)
        with pytest.raises(ValueError, match="at least one"):
            convergence_scan(Identity(), [], dim=8)

    def test_epsilon_invariant_enforced_by_report(self):
        bad = {
            "dim": 2,
            "functor_a_error": 0.0,
            "epsilon_error": 1e-9,
            "weak_error": 0.0,
            "alpha_hat": 1.0,
        }
        with pytest.raises(AssertionError, match="machine tolerance"):
            ConvergenceReport(rows=(bad,))


class TestContinuityProbe:
    def test_zero_perturbation(self, space16):
        layer = make_layer(space16, lip_g=0.4, seed=31)
        rows = continuity_probe(layer, ZERO16, [1, 2, 3], Subspace.prefix(4), n=16)
        for row in rows:
            assert row["ambient_error"] == 0.0
            assert row["subspace_error"] == 0.0

    def test_successive_ratios_follow_the_scaling(self, space16):
        layer = make_layer(space16, lip_g=0.4, seed=31)
        k = FiniteRankOperator.seeded(16, 3, seed=8)
        js = list(range(1, 17))
        rows = continuity_probe(layer, k, js, Subspace.prefix(6), n=64, seed=2)
        for a, b in zip(rows, rows[1:]):
            expected = a["j"] / b["j"]
            ratio = b["subspace_error"] / a["subspace_error"]
            assert ratio == pytest.approx(expected, rel=1e-12)
            assert abs(ratio - expected) <= 0.1 * expected

    def test_compression_contracts_the_error(self, space16):
        layer = make_layer(space16, lip_g=0.4, seed=31)
        k = FiniteRankOperator.seeded(16, 5, seed=9)
        rows = continuity_probe(layer, k, [1, 4, 9], Subspace.prefix(3), n=64, seed=3)
        for row in rows:
            assert row["subspace_error"] <= row["ambient_error"] + 1e-15

    def test_validation(self, space16):
        layer = make_layer(space16, lip_g=0.4, seed=31)
        with pytest.raises(ValueError, match="positive"):
            continuity_probe(layer, ZERO16, [0], Subspace.prefix(2))


class TestOrientationScan:
    def test_constant_identity_path(self):
        scan = orientation_scan(lambda t: Identity(), 3, Subspace.prefix(3), dim=6)
        assert [s for _, s, _ in scan.rows] == [1, 1, 1]
        assert not scan.sign_changed

    def test_scalar_path_flips_at_one_half(self):
        # the zero at t = 1/2 falls on a bisection midpoint of [1/3, 2/3] with
        # four points and on a grid point with five: both brackets collapse
        for points in (4, 5):
            scan = orientation_scan(
                lambda t: (lambda x, c=1.0 - 2.0 * t: c * x), points, Subspace.prefix(5), dim=8
            )
            signs = [s for _, s, _ in scan.rows]
            assert signs[0] == 1 and signs[-1] == -1
            assert scan.crossings == ((0.5, 0.5),)

    def test_bisected_flip_is_bracketed_within_the_tolerance(self):
        scan = orientation_scan(
            lambda t: (lambda x, c=0.7 - t: c * x), 4, Subspace.prefix(3), dim=6, refine_tol=1e-9
        )
        assert len(scan.crossings) == 1
        lo, hi = scan.crossings[0]
        assert lo <= 0.7 <= hi and hi - lo <= 1e-9

    def test_monotone_path_keeps_orientation(self, space16):
        layer = make_layer(space16, lip_g=0.4, seed=37)

        def path(t):
            return lambda x, s=t: (1.0 - s) * x + s * eval_map(layer, x)

        scan = orientation_scan(path, 9, Subspace.prefix(6), dim=16)
        assert all(s == 1 for _, s, _ in scan.rows)
        assert not scan.sign_changed

    def test_reflection_flips_orientation(self):
        scan = orientation_scan(
            lambda t: Reflection.first_axis(8), 2, Subspace.prefix(5), dim=8
        )
        assert [s for _, s, _ in scan.rows] == [-1, -1]
        assert all(abs(det - 1.0) < 1e-9 for _, _, det in scan.rows)
        assert not scan.sign_changed

    def test_validation(self):
        with pytest.raises(ValueError, match="at least two"):
            orientation_scan(lambda t: Identity(), 1, Subspace.prefix(2), dim=4)
        with pytest.raises(ValueError, match="at most 50"):
            orientation_scan(lambda t: Identity(), 2, Subspace.prefix(51), dim=64)
        with pytest.raises(ValueError, match="bisection tolerance"):
            orientation_scan(
                lambda t: Identity(), 2, Subspace.prefix(2), dim=4, refine_tol=0.0
            )


class TestHelpers:
    def test_csv_float_is_exact(self):
        for x in (0.1, 1 / 3, 2e-300, 12345.6789, 5e-324):
            assert float(csv_float(x)) == x
