"""Rotation-cascade path truncations and their forced determinant crossings."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opdisc.cli import run_nogo_isotopy
from opdisc.decompose import quintic_smoothstep
from opdisc.isotopy import (
    aligned_dets,
    aligned_truncation_matrix,
    block_angle,
    glued_truncation_matrix,
    reflected_rotation_cascade,
    rotation_cascade,
    truncated_det_scan,
)
from opdisc.serialize import canonical_json


def _cascade_oracle(t: float, m: int) -> np.ndarray:
    """The rotation cascade block by block in scalar arithmetic: a finished
    block is -I, signed zeros included, and any other is [[c, s], [-s, c]]
    from ``math.cos`` and ``math.sin``."""
    if t == 1.0:
        return -np.eye(m)
    u = 1.0 / (1.0 - t)
    mat = np.zeros((m, m))
    for i in range(1, m // 2 + 1):
        theta = float(block_angle(u, i))
        if theta == math.pi:
            block = -np.eye(2)
        else:
            c, s = math.cos(theta), math.sin(theta)
            block = np.array([[c, s], [-s, c]])
        mat[2 * i - 2 : 2 * i, 2 * i - 2 : 2 * i] = block
    return mat


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


# the seam t = 0.5, both ends, finished blocks near t = 1, unordered
STACKED_T = np.array([*np.linspace(0.0, 1.0, 21), 0.5, 1.0, 0.0, 0.5000000001, 0.97, 0.3])


class TestStackedParameters:
    @pytest.mark.parametrize(
        "builder,m",
        [(rotation_cascade, 8), (reflected_rotation_cascade, 7),
         (glued_truncation_matrix, 7)],
    )
    def test_a_stack_equals_its_scalar_calls(self, builder, m):
        # each parameter alone, as a one-element stack
        stack = builder(STACKED_T, m)
        assert stack.shape == (STACKED_T.size, m, m)
        for t, mat in zip(STACKED_T, stack):
            assert _same_bits(mat, builder(np.array([t]), m)[0]), t

    @pytest.mark.parametrize("m", [2, 8, 32])
    def test_the_cascade_matches_the_scalar_block_oracle(self, m):
        for t, mat in zip(STACKED_T, rotation_cascade(STACKED_T, m)):
            assert _same_bits(mat, _cascade_oracle(float(t), m)), t

    def test_finished_blocks_keep_their_signed_zeros(self):
        # t = 1 is -I with every zero negative; at t = 0.9 (u = 10) both
        # blocks of m = 4 have finished: -I inside each block, +0.0 between
        end, done = rotation_cascade(np.array([1.0, 0.9]), 4)
        assert np.all(np.signbit(end))
        assert np.array_equal(done, -np.eye(4))
        inside = np.kron(np.eye(2), np.ones((2, 2))).astype(bool)
        assert np.array_equal(np.signbit(done), inside)

    def test_aligned_stacks_lie_within_one_half(self):
        grid = np.linspace(0.0, 1.0, 21)
        first = grid <= 0.5
        for half, dim in ((grid[first], 8), (grid[~first], 7)):
            stack = aligned_truncation_matrix(half, 7)
            assert stack.shape == (half.size, dim, dim)
            for t, mat in zip(half, stack):
                assert _same_bits(mat, aligned_truncation_matrix(float(t), 7)), t
        with pytest.raises(ValueError, match="within one half"):
            aligned_truncation_matrix(grid, 7)
        assert aligned_dets(grid, 7) == [
            float(np.linalg.det(aligned_truncation_matrix(float(t), 7))) for t in grid
        ]

    def test_a_stack_refuses_any_parameter_outside_the_unit_interval(self):
        with pytest.raises(ValueError, match="lie in .* got 1.5"):
            glued_truncation_matrix(np.array([0.2, 1.5]), 7)


class TestSmoothStep:
    def test_boundary_plateaus(self):
        assert np.all(quintic_smoothstep(np.array([-2.0, -0.1, 0.0])) == 0.0)
        assert np.all(quintic_smoothstep(np.array([1.0, 1.3, 9.0])) == 1.0)

    def test_symmetric_midpoint(self):
        assert quintic_smoothstep(0.5) == pytest.approx(0.5, abs=1e-15)

    def test_monotone(self):
        vals = quintic_smoothstep(np.linspace(-0.5, 1.5, 401))
        assert np.all(np.diff(vals) >= 0.0)

    def test_block_angle_windows(self):
        assert block_angle(2.0, 2) == 0.0
        assert block_angle(3.0, 2) == pytest.approx(np.pi)
        assert block_angle(2.5, 2) == pytest.approx(np.pi / 2)


class TestRotationCascade:
    def test_starts_at_the_identity(self):
        assert np.array_equal(rotation_cascade(0.0, 8), np.eye(8))

    def test_ends_at_minus_identity(self):
        assert np.array_equal(rotation_cascade(1.0, 8), -np.eye(8))

    def test_orthogonal_along_the_whole_path(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(10)
        for t in np.linspace(0.0, 1.0, 33):
            mat = rotation_cascade(t, 10)
            assert np.max(np.abs(mat.T @ mat - np.eye(10))) <= 1e-12
            assert abs(np.linalg.norm(mat @ v) - np.linalg.norm(v)) <= 1e-10

    def test_determinant_is_plus_one_everywhere(self):
        for t in np.linspace(0.0, 1.0, 33):
            assert np.linalg.det(rotation_cascade(t, 10)) == pytest.approx(1.0, abs=1e-12)

    def test_blocks_flip_in_order(self):
        # sweep parameter 2.5: block one done, block two mid-turn, rest untouched
        mat = rotation_cascade(0.6, 8)
        np.testing.assert_allclose(mat[:2, :2], -np.eye(2), atol=1e-12)
        np.testing.assert_allclose(mat[2:4, 2:4], [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(mat[4:, 4:], np.eye(4), atol=1e-15)

    def test_odd_or_tiny_dimension_rejected(self):
        with pytest.raises(ValueError, match="even dimension"):
            rotation_cascade(0.5, 7)
        with pytest.raises(ValueError, match="even dimension"):
            rotation_cascade(0.5, 0)

    def test_parameter_range(self):
        with pytest.raises(ValueError, match="lie in"):
            rotation_cascade(1.2, 4)


class TestReflectedCascade:
    def test_starts_at_the_coordinate_reflection(self):
        expected = np.diag([-1.0] + [1.0] * 6)
        assert np.array_equal(reflected_rotation_cascade(0.0, 7), expected)

    def test_meets_the_plain_cascade_at_the_end(self):
        assert np.array_equal(reflected_rotation_cascade(1.0, 7), -np.eye(7))

    def test_determinant_is_minus_one_everywhere(self):
        for t in np.linspace(0.0, 1.0, 33):
            mat = reflected_rotation_cascade(t, 9)
            assert np.linalg.det(mat) == pytest.approx(-1.0, abs=1e-12)
            assert np.max(np.abs(mat.T @ mat - np.eye(9))) <= 1e-12

    def test_even_dimension_rejected(self):
        with pytest.raises(ValueError, match="odd dimension"):
            reflected_rotation_cascade(0.5, 8)


class TestIsotopyMap:
    """The m-truncated glued path applied to coefficient vectors."""

    def test_path_endpoints_and_seam(self):
        v = np.arange(1.0, 8.0)
        start, seam, end = glued_truncation_matrix(np.array([0.0, 0.5, 1.0]), 7)
        assert np.array_equal(v @ start.T, v)
        assert np.array_equal(v @ seam.T, -v)
        flipped = np.concatenate([[-1.0], v[1:]])
        assert np.array_equal(v @ end.T, flipped)

    def test_low_modes_finish_early(self):
        # a vector living in the first block stops moving once the sweep passes it
        v = np.array([0.7, -0.2] + [0.0] * 13)
        for mat in glued_truncation_matrix(np.array([0.25, 0.3, 0.4, 0.5]), 15):
            assert np.array_equal(v @ mat.T, -v)

    def test_tail_estimate_at_dyadic_steps(self):
        # between t_k = (1 - 2^-k)/2 and t_{k+1} only blocks past 2^k move,
        # so the step is bounded by twice the coordinate tail from there on
        v = 2.0 ** -np.arange(1, 16)
        for k in (1, 2, 3):
            t0 = 0.5 * (1.0 - 2.0**-k)
            t1 = 0.5 * (1.0 - 2.0 ** -(k + 1))
            before, after = glued_truncation_matrix(np.array([t0, t1]), 15)
            moved = after - before
            step = np.linalg.norm(v @ moved.T)
            k_star = int(1.0 / (1.0 - 2.0 * t0))
            tail = 2.0 * np.sqrt(np.sum(v[2 * k_star - 2 :] ** 2))
            assert step <= tail + 1e-12


class TestTruncatedDetScan:
    def test_seven_dim_crossing_matches_the_closed_form(self):
        scan = truncated_det_scan(7, 101, 1e-12)
        assert scan.endpoint_signs == (1, -1)
        assert len(scan.brackets) == len(scan.stars) == 1
        t_star, det_at_star, min_sv_at_star = scan.stars[0]
        assert abs(t_star - 7.0 / 18.0) <= 1e-9
        assert abs(det_at_star) <= 1e-8
        assert min_sv_at_star <= 1e-8

    @pytest.mark.parametrize("m,t_expected", [(3, 3.0 / 10.0), (5, 5.0 / 14.0)])
    def test_small_truncations(self, m, t_expected):
        scan = truncated_det_scan(m, 51, 1e-12)
        assert abs(scan.stars[0][0] - t_expected) <= 1e-9

    def test_aligned_column_stays_unit_but_jumps(self):
        scan = truncated_det_scan(7, 101, 1e-10)
        aligned = np.array(
            [np.linalg.det(aligned_truncation_matrix(t, 7)) for t in scan.grid]
        )
        assert np.all(np.abs(np.abs(aligned) - 1.0) <= 1e-12)
        first = aligned[scan.grid <= 0.5]
        second = aligned[scan.grid > 0.5]
        assert np.all(first > 0.0) and np.all(second < 0.0)

    def test_cut_determinant_moves_continuously(self):
        scan = truncated_det_scan(7, 201, 1e-10)
        dt = np.diff(scan.grid)
        assert np.max(np.abs(np.diff(scan.dets)) / dt) <= 300.0

    def test_second_half_stays_orthogonal(self):
        scan = truncated_det_scan(7, 101, 1e-10)
        late = scan.min_svs[scan.grid > 0.5]
        np.testing.assert_allclose(late, 1.0, atol=1e-12)

    def test_explicit_grid(self):
        scan = truncated_det_scan(7, 5, 1e-10)
        assert scan.grid.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert abs(scan.stars[0][0] - 7.0 / 18.0) <= 1e-9

    def test_validation(self):
        with pytest.raises(ValueError, match="odd truncation"):
            truncated_det_scan(8, 101, 1e-12)
        with pytest.raises(ValueError, match="odd truncation"):
            truncated_det_scan(1, 101, 1e-12)
        with pytest.raises(ValueError, match="bisection tolerance"):
            truncated_det_scan(7, 11, 0.0)
        with pytest.raises(ValueError, match="at least two"):
            truncated_det_scan(7, 1, 1e-12)

    def test_rows_and_dict_round_trip(self, tmp_path, monkeypatch):
        scan = truncated_det_scan(5, 21, 1e-10)
        rows = scan.rows()
        assert len(rows) == 21
        assert rows[0][0] == 0.0 and rows[-1][0] == 1.0
        # the nogo-isotopy runner returns the scan's report and CSV rows and
        # writes nothing: the front end writes them
        monkeypatch.chdir(tmp_path)
        exp = {"name": "iso", "kind": "nogo-isotopy", "seed": 0, "m": 5, "grid": 21,
               "bisect_tol": 1e-10}
        report, csv = run_nogo_isotopy(exp, None)
        assert csv == ("t,det,min_sv", rows)
        assert list(tmp_path.iterdir()) == []
        blob = json.loads(canonical_json(report))
        assert blob["dets"] == [d for _, d, _ in rows]
        assert blob["m"] == 5
        assert len(blob["dets"]) == 21
        assert blob["det_endpoint_signs"] == [1, -1]

    @settings(max_examples=40, deadline=None)
    @given(t=st.floats(min_value=0.0, max_value=1.0))
    def test_truncation_never_expands(self, t):
        mat = glued_truncation_matrix(np.array([t]), 7)[0]
        svs = np.linalg.svd(mat, compute_uv=False)
        assert svs[0] <= 1.0 + 1e-12
