"""Hat-element semilinear solves and the singular Galerkin matrix paths."""

import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from opdisc import galerkin, invert
from opdisc.cli import run_nogo_galerkin
from opdisc.galerkin import (
    ConvexNonlinearity,
    FemConvergence,
    FemMesh,
    NewtonTrace,
    _solve_tridiagonal,
    assemble_stiffness,
    fem_convergence,
    galerkin_path_matrix,
    h1_seminorm_difference,
    singularity_scan,
    solve_semilinear,
    solve_semilinear_trace,
)
from opdisc.serialize import canonical_json
from opdisc.spectral import gauss_legendre_panels, unit_grid


def sin_pi(t):
    return np.sin(np.pi * t)


def source_for_zero_g(t):
    return -np.pi**2 * sin_pi(t)


def source_for_linear_g(t):
    return -(np.pi**2 + 1.0) * sin_pi(t)


def source_for_cubic_g(t):
    return -np.pi**2 * sin_pi(t) - sin_pi(t) ** 3


class TestFemMesh:
    def test_geometry(self):
        mesh = FemMesh(8)
        assert mesh.h == 0.125
        assert mesh.nodes[0] == 0.0 and mesh.nodes[-1] == 1.0
        assert list(mesh.active_nodes) == list(range(1, 8))

    def test_degenerate_and_unsupported_meshes(self):
        with pytest.raises(ValueError, match="degenerate mesh"):
            FemMesh(1)

    def test_hat_values_partition_of_unity_inside(self):
        mesh = FemMesh(10)
        pts, wts, left, right = mesh.cell_quadrature()
        assert pts.shape == wts.shape == left.shape == right.shape == (10, 5)
        assert np.all((pts > mesh.nodes[:-1, None]) & (pts < mesh.nodes[1:, None]))
        np.testing.assert_allclose(left + right, 1.0, atol=1e-12)
        np.testing.assert_allclose(wts.sum(axis=1), mesh.h, rtol=1e-14)

    def test_full_nodal_inserts_boundary_zeros(self):
        mesh = FemMesh(4)
        full = mesh.full_nodal([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(full, [0.0, 1.0, 2.0, 3.0, 0.0])
        with pytest.raises(ValueError, match="expected 3"):
            mesh.full_nodal([1.0])


class TestConvexNonlinearity:
    def test_canonical_instances(self):
        for name, val in (("zero", 0.0), ("linear", 2.0), ("cubic", 8.0)):
            nl = ConvexNonlinearity.named(name)
            assert nl.name == name
            assert float(nl.g(np.array(2.0))) == val

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown reaction term"):
            ConvexNonlinearity.named("quartic")

    def test_decreasing_g_rejected(self):
        with pytest.raises(ValueError, match="not nondecreasing"):
            ConvexNonlinearity(
                g=lambda r: -np.asarray(r, dtype=float),
                primitive=lambda r: -0.5 * np.asarray(r, dtype=float) ** 2 + 40.0,
                gprime=lambda r: -np.ones_like(np.asarray(r, dtype=float)),
            )


def dense_from_banded(ab):
    """The full matrix of a (3, n) tridiagonal in LAPACK banded layout."""
    return np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)


class TestAssembleStiffness:
    def test_single_interior_node(self):
        ab = assemble_stiffness(FemMesh(2))
        np.testing.assert_array_equal(dense_from_banded(ab), [[4.0]])

    def test_tridiagonal_pattern(self):
        mesh = FemMesh(5)
        ab = assemble_stiffness(mesh)
        assert ab.shape == (3, 4)
        np.testing.assert_allclose(ab[1], 2.0 / mesh.h)
        np.testing.assert_allclose(ab[0, 1:], -1.0 / mesh.h)
        np.testing.assert_allclose(ab[2, :-1], -1.0 / mesh.h)
        # the corners outside the matrix stay zero
        assert ab[0, 0] == 0.0 and ab[2, -1] == 0.0

    def test_cholesky_succeeds(self):
        # cholesky_banded wants the upper form: superdiagonal, diagonal
        scipy.linalg.cholesky_banded(assemble_stiffness(FemMesh(16))[:2])

    def test_classical_eigenvalues(self):
        mesh = FemMesh(12)
        ev = np.sort(scipy.linalg.eigvals_banded(assemble_stiffness(mesh)[:2]))
        k = np.arange(1, 12)
        formula = np.sort(2.0 / mesh.h * (1.0 - np.cos(k * np.pi * mesh.h)))
        np.testing.assert_allclose(ev, formula, rtol=1e-12)


class TestSolveTridiagonal:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_matches_a_dense_solve(self, n, seed):
        """Diagonally dominant rows, as the Newton Jacobian has them."""
        rng = np.random.default_rng(seed)
        ab = rng.standard_normal((3, n))
        ab[0, 0] = ab[2, -1] = 0.0
        off = np.abs(np.r_[ab[0, 1:], 0.0]) + np.abs(np.r_[0.0, ab[2, :-1]])
        ab[1] = rng.choice([-1.0, 1.0], n) * (off + rng.uniform(0.1, 1.0, n))
        rhs = rng.standard_normal(n)
        before = ab.copy()
        x = _solve_tridiagonal(ab, rhs)
        np.testing.assert_allclose(x, np.linalg.solve(dense_from_banded(ab), rhs),
                                   rtol=1e-10, atol=1e-12)
        np.testing.assert_array_equal(ab, before)

    def test_solves_the_stiffness_system(self):
        mesh = FemMesh(64)
        ab = assemble_stiffness(mesh)
        w = np.sin(np.arange(mesh.n_active))
        np.testing.assert_allclose(
            _solve_tridiagonal(ab, dense_from_banded(ab) @ w), w, rtol=0.0, atol=1e-11
        )


class TestSolveSemilinear:
    def test_laplace_is_nodally_exact(self):
        mesh = FemMesh(64)
        w = solve_semilinear(source_for_zero_g, mesh, ConvexNonlinearity.zero())
        exact = sin_pi(mesh.nodes[mesh.active_nodes])
        assert np.max(np.abs(w - exact)) <= 1e-8

    def test_linear_reaction_is_second_order_at_the_nodes(self):
        errs = []
        for m in (16, 32):
            mesh = FemMesh(m)
            w = solve_semilinear(source_for_linear_g, mesh, ConvexNonlinearity.linear())
            errs.append(np.max(np.abs(w - sin_pi(mesh.nodes[mesh.active_nodes]))))
        assert errs[1] < errs[0]
        assert 3.0 <= errs[0] / errs[1] <= 5.0

    def test_cubic_reaction_converges_to_the_manufactured_solution(self):
        mesh = FemMesh(64)
        w = solve_semilinear(source_for_cubic_g, mesh, ConvexNonlinearity.cubic())
        assert np.max(np.abs(w - sin_pi(mesh.nodes[mesh.active_nodes]))) <= 1e-3

    def test_zero_source_gives_the_zero_solution(self):
        w = solve_semilinear(
            lambda t: np.zeros_like(t), FemMesh(8), ConvexNonlinearity.cubic()
        )
        np.testing.assert_array_equal(w, np.zeros(7))

    def test_energy_decreases_across_accepted_steps(self):
        _, trace = solve_semilinear_trace(
            source_for_cubic_g, FemMesh(32), ConvexNonlinearity.cubic()
        )
        assert trace.iterations >= 2
        for a, b in zip(trace.energies, trace.energies[1:]):
            assert b <= a
        assert trace.energies[1] < trace.energies[0]

    def test_unreachable_tolerance_reports_last_residual(self, monkeypatch):
        # the energy ties at the solution without lowering the residual, so
        # the line search stagnates long before the step budget is spent
        monkeypatch.setattr(invert, "NEWTON_STEPS", 8)
        with pytest.raises(RuntimeError, match=r"^\[newton\] Newton line search stagnated at "
                           r"residual \S+$"):
            solve_semilinear(
                source_for_linear_g,
                FemMesh(16),
                ConvexNonlinearity.linear(),
                tol=1e-18,
            )

    def test_last_permitted_step_is_checked(self, monkeypatch):
        # a linear reaction is solved by one Newton step
        monkeypatch.setattr(invert, "NEWTON_STEPS", 1)
        mesh = FemMesh(16)
        w, trace = solve_semilinear_trace(source_for_linear_g, mesh, ConvexNonlinearity.linear())
        assert trace.iterations == 1
        assert trace.residual_norms[-1] <= 1e-10
        assert np.max(np.abs(w - sin_pi(mesh.nodes[mesh.active_nodes]))) < 0.01

    def test_exhausted_budget_quotes_the_residual_after_the_last_step(self, monkeypatch):
        _, full = solve_semilinear_trace(
            source_for_cubic_g, FemMesh(16), ConvexNonlinearity.cubic()
        )
        assert full.iterations >= 2
        monkeypatch.setattr(invert, "NEWTON_STEPS", 1)
        with pytest.raises(RuntimeError) as err:
            solve_semilinear_trace(source_for_cubic_g, FemMesh(16), ConvexNonlinearity.cubic())
        assert f"(last residual {full.residual_norms[1]:.6g})" in str(err.value)

    def test_tolerance_must_be_positive(self):
        with pytest.raises(ValueError, match="tolerance"):
            solve_semilinear(
                source_for_zero_g, FemMesh(4), ConvexNonlinearity.zero(), tol=0.0
            )

    def test_newton_trace_rejects_rising_energy(self):
        with pytest.raises(ValueError, match="energy rose"):
            NewtonTrace((1.0, 2.0), (0.1, 0.01), (1.0,), 1e-10)


def dense_reference_solve(x_source, mesh, g, tol=1e-10, max_iter=60):
    """The damped Newton solve on dense hat matrices; returns (coeffs, steps).

    Every active hat is evaluated at every Gauss point, the Jacobian is the
    full ``(n, n)`` matrix and each step is an ``np.linalg.solve``.
    """
    pts, wts = gauss_legendre_panels(mesh.nodes, points_per_panel=5)
    centers = mesh.nodes[mesh.active_nodes][:, None]
    hats = np.clip(1.0 - np.abs(pts[None, :] - centers) / mesh.h, 0.0, None)
    x_vals = x_source(pts)
    stiff = dense_from_banded(assemble_stiffness(mesh))
    load = hats @ (wts * x_vals)

    def energy(w):
        u_q = w @ hats
        return 0.5 * w @ stiff @ w + np.sum(wts * (g.primitive(u_q) + x_vals * u_q))

    w = np.zeros(mesh.n_active)
    for steps in range(max_iter):
        u_q = w @ hats
        res = stiff @ w + hats @ (wts * g.g(u_q)) + load
        if np.linalg.norm(res) <= tol:
            return w, steps
        jac = stiff + (hats * (wts * g.derivative(u_q))[None, :]) @ hats.T
        direction = np.linalg.solve(jac, -res)
        current, lam = energy(w), 1.0
        while energy(w + lam * direction) > current:
            lam *= 0.5
        w = w + lam * direction
    raise AssertionError("the dense reference did not converge")


class TestBandedAgainstDense:
    @pytest.mark.parametrize(
        "name,source",
        [
            ("zero", source_for_zero_g),
            ("linear", source_for_linear_g),
            ("cubic", source_for_cubic_g),
        ],
    )
    def test_same_coefficients_and_steps(self, name, source):
        mesh = FemMesh(24)
        g = ConvexNonlinearity.named(name)
        w, trace = solve_semilinear_trace(source, mesh, g)
        w_ref, steps = dense_reference_solve(source, mesh, g)
        assert trace.iterations == steps
        assert np.linalg.norm(w - w_ref) <= 1e-12 * np.linalg.norm(w_ref)

    def test_oracle_mesh_solve_stays_small(self):
        mesh = FemMesh(2048)
        tracemalloc.start()
        try:
            solve_semilinear(source_for_cubic_g, mesh, ConvexNonlinearity.cubic())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the dense hat matrices alone take 2047 * 10240 * 8 B = 168 MB
        assert peak < 16e6


class TestFemConvergence:
    def test_linear_reaction_first_order_ratios(self):
        rep = fem_convergence(
            source_for_linear_g, ConvexNonlinearity.linear(), [16, 32, 64]
        )
        assert all(1.7 <= r <= 2.3 for r in rep.ratios)
        assert all(b < a for a, b in zip(rep.errors, rep.errors[1:]))
        assert rep.oracle_cells == 8 * 64

    def test_determinism(self):
        args = (source_for_zero_g, ConvexNonlinearity.zero(), [8, 16])
        assert fem_convergence(*args).errors == fem_convergence(*args).errors

    def test_newton_trace_is_the_finest_solve(self):
        g = ConvexNonlinearity.cubic()
        rep = fem_convergence(source_for_cubic_g, g, [8, 16])
        _, trace = solve_semilinear_trace(source_for_cubic_g, FemMesh(16), g)
        assert rep.newton == trace
        assert json.loads(canonical_json(rep))["newton"] == json.loads(canonical_json(trace))

    def test_mesh_size_validation(self):
        good = ConvexNonlinearity.zero()
        with pytest.raises(ValueError, match="strictly increasing"):
            fem_convergence(source_for_zero_g, good, [32, 16])
        with pytest.raises(ValueError, match="at least two"):
            fem_convergence(source_for_zero_g, good, [16])
        with pytest.raises(ValueError, match="does not divide"):
            fem_convergence(source_for_zero_g, good, [10, 16])

    def test_h1_difference_requires_nesting(self):
        with pytest.raises(ValueError, match="does not refine"):
            h1_seminorm_difference(FemMesh(6), np.zeros(5), FemMesh(8), np.zeros(7))

    def test_h1_difference_exact_on_a_known_pair(self):
        # coarse: single hat at 1/2 with value 1 -> slope +-2; fine: zero
        coarse, fine = FemMesh(2), FemMesh(4)
        err = h1_seminorm_difference(coarse, np.array([1.0]), fine, np.zeros(3))
        assert err == pytest.approx(2.0)


def _trig_section_oracle(s: float, n: int) -> np.ndarray:
    """Kind "a" entry by entry: I - 2 * integral of psi_j psi_k over [0, s],
    with basis j written as amp * cos(omega t + phase) and each integral
    taken by product-to-sum in scalar arithmetic."""
    if s == 1.0:
        return -np.eye(n)

    def rep(j):
        if j == 0:
            return 1.0, 0.0, 0.0
        omega = 2.0 * np.pi * ((j + 1) // 2)
        return math.sqrt(2.0), omega, 0.0 if j % 2 == 1 else -0.5 * np.pi

    def cos_integral(omega, phase):
        if omega == 0.0:
            return s * math.cos(phase)
        return (math.sin(omega * s + phase) - math.sin(phase)) / omega

    mat = np.eye(n)
    for j in range(n):
        for k in range(j, n):
            cj, oj, pj = rep(j)
            ck, ok, pk = rep(k)
            pair = 0.5 * cj * ck * (
                cos_integral(oj - ok, pj - pk) + cos_integral(oj + ok, pj + pk)
            )
            mat[j, k] += -2.0 * pair
            if k != j:
                mat[k, j] += -2.0 * pair
    return mat


def _weighted_section_oracle(s: float, n: int) -> np.ndarray:
    """Kind "b" assembled cell by cell in scalar arithmetic: each cell adds
    integral (1 + t) sign(t - s) times the slopes of the hats it touches."""
    h = 1.0 / n
    nodes = np.linspace(0.0, 1.0, n + 1)

    def integral(a, b):
        return (b - a) + 0.5 * (b * b - a * a)

    mat = np.zeros((n, n))
    for cell in range(1, n + 1):
        a, b = nodes[cell - 1], nodes[cell]
        if s <= a:
            weight = integral(a, b)
        elif s >= b:
            weight = -integral(a, b)
        else:
            weight = integral(s, b) - integral(a, s)
        touching = [(cell - 2, -1.0 / h)] if cell >= 2 else []
        touching.append((cell - 1, 1.0 / h))
        for i, slope_i in touching:
            for j, slope_j in touching:
                mat[i, j] += weight * slope_i * slope_j
    return mat


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


# the seam s = 0.5, both ends, mesh nodes and a point between them,
# unordered; at the last one the second cell of the n = 8 mesh weighs
# exactly 0.0, so its off-diagonal terms are -0.0 and only an entry that
# starts from +0.0 and adds them, as assembly does, stays +0.0
STACKED_S = np.array([*unit_grid(21), 0.5, 1.0, 0.0, 0.123456789, 0.6, 0.189143599402528])


class TestGalerkinPathMatrix:
    @pytest.mark.parametrize("kind", ["a", "b"])
    @pytest.mark.parametrize("n", [1, 5, 8, 21])
    def test_a_stack_equals_its_scalar_calls(self, kind, n):
        # each parameter alone, as a one-element stack
        stack = galerkin_path_matrix(kind, STACKED_S, n)
        assert stack.shape == (STACKED_S.size, n, n)
        for s, mat in zip(STACKED_S, stack):
            assert _same_bits(mat, galerkin_path_matrix(kind, np.array([s]), n)[0]), s

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 21])
    def test_weighted_section_matches_the_cell_by_cell_oracle(self, n):
        stack = galerkin_path_matrix("b", STACKED_S, n)
        for s, mat in zip(STACKED_S, stack):
            assert _same_bits(mat, _weighted_section_oracle(float(s), n)), s

    def test_a_stack_refuses_any_parameter_outside_the_unit_interval(self):
        with pytest.raises(ValueError, match="lie in .* got -0.5"):
            galerkin_path_matrix("b", np.array([0.0, -0.5, 0.5]), 3)

    def test_single_constant_mode_closed_form(self):
        ss = np.array([0.0, 0.2, 0.5, 0.77, 1.0])
        mats = galerkin_path_matrix("a", ss, 1)
        assert mats.shape == (5, 1, 1)
        np.testing.assert_allclose(mats[:, 0, 0], 1.0 - 2.0 * ss, rtol=0, atol=1e-14)

    def test_endpoints_are_exact_signed_identities(self):
        n = 5
        start, end = galerkin_path_matrix("a", np.array([0.0, 1.0]), n)
        assert np.array_equal(start, np.eye(n))
        assert np.array_equal(end, -np.eye(n))

    def test_weighted_path_single_mode_closed_form(self):
        # half-hat slope 1 on one cell: entry = integral (1+t) sign(t-s)
        ss = np.array([0.0, 0.3, 0.9, 1.0])
        entries = galerkin_path_matrix("b", ss, 1)[:, 0, 0]
        np.testing.assert_allclose(entries, 1.5 - 2.0 * ss - ss * ss, rtol=0, atol=1e-14)

    def test_weighted_endpoints_are_signed_stiffness(self):
        mat0, mat1 = galerkin_path_matrix("b", np.array([0.0, 1.0]), 7)
        np.linalg.cholesky(mat0)
        np.testing.assert_allclose(mat1, -mat0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kind,n", [("a", 5), ("b", 7)])
    def test_symmetry_and_continuity(self, kind, n):
        scale = 8.0 * n if kind == "a" else 16.0 * n * n
        for s in (0.1, 0.5, 0.93):
            mat, moved = galerkin_path_matrix(kind, np.array([s, s + 1e-4]), n)
            assert np.max(np.abs(mat - mat.T)) <= 1e-12
            step = moved - mat
            assert np.linalg.norm(step, 2) <= scale * 1e-4

    def test_validation(self):
        with pytest.raises(ValueError, match="lie in"):
            galerkin_path_matrix("a", 1.5, 3)
        with pytest.raises(ValueError, match="at least one basis"):
            galerkin_path_matrix("a", 0.5, 0)
        with pytest.raises(ValueError, match="unknown path kind"):
            galerkin_path_matrix("c", 0.5, 3)

    @pytest.mark.parametrize("n", [1, 3, 5, 11, 21])
    def test_trig_section_matches_the_scalar_product_to_sum_oracle(self, n):
        for s in [*unit_grid(101), 0.123456789, 1.0]:
            mat = galerkin_path_matrix("a", np.array([s]), n)[0]
            want = _trig_section_oracle(float(s), n)
            assert np.array_equal(mat, want), s
            assert np.array_equal(np.signbit(mat), np.signbit(want)), s

    @settings(max_examples=30, deadline=None)
    @given(s=st.floats(min_value=0.0, max_value=1.0))
    def test_symmetric_with_real_spectrum_everywhere(self, s):
        mat = galerkin_path_matrix("a", np.array([s]), 3)[0]
        assert np.max(np.abs(mat - mat.T)) <= 1e-12
        assert np.all(np.isfinite(np.linalg.eigvalsh(mat)))


class TestSingularityScan:
    def test_constant_mode_crossing_at_one_half(self):
        scan = singularity_scan("a", 1, 21, 1e-12)
        assert scan.endpoint_signs == (1, -1)
        s_star, det_at_star, _ = scan.stars[0]
        assert abs(s_star - 0.5) <= 1e-9
        assert abs(det_at_star) <= 1e-10

    def test_weighted_single_mode_matches_the_quadratic_root(self):
        scan = singularity_scan("b", 1, 51, 1e-12)
        assert abs(scan.stars[0][0] - (math.sqrt(2.5) - 1.0)) <= 1e-9

    def test_five_mode_trig_path(self):
        scan = singularity_scan("a", 5, 101, 1e-12)
        assert scan.endpoint_signs == (1, -1)
        s_star, det_at_star, min_sv_at_star = scan.stars[0]
        assert 0.0 < s_star < 1.0
        assert abs(det_at_star) <= 1e-10
        assert min_sv_at_star <= 1e-8

    def test_only_the_first_crossing_is_bisected(self, monkeypatch):
        sizes = []

        def counted(kind, s, n):
            sizes.append(np.size(s))
            return galerkin_path_matrix(kind, s, n)

        monkeypatch.setattr(galerkin, "galerkin_path_matrix", counted)
        scan = singularity_scan("a", 5, 101, 1e-12)
        dets = scan.dets
        assert np.count_nonzero(dets[:-1] * dets[1:] < 0.0) == 5
        assert len(scan.brackets) == len(scan.stars) == 1
        # the 101 grid points in one stacked call, then one matrix per
        # bisection step and one for the star; bisecting one bracket of
        # width 0.01 down to 1e-12 takes at most 34 halvings
        assert sizes[0] == 101 and set(sizes[1:]) == {1}
        assert len(sizes) - 1 - 1 <= math.ceil(math.log2(0.01 / 1e-12))

    def test_seven_mode_weighted_path(self):
        scan = singularity_scan("b", 7, 101, 1e-12)
        assert scan.endpoint_signs == (1, -1)
        assert scan.stars[0][2] <= 1e-8
        assert len(scan.rows()) == 101
        s0, det0, sv0 = scan.rows()[0]
        assert s0 == 0.0 and det0 > 0.0 and sv0 > 0.0

    def test_even_basis_count_refused(self):
        with pytest.raises(ValueError, match="odd"):
            singularity_scan("a", 4)

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="at least two grid points"):
            singularity_scan("a", 3, 1)
        with pytest.raises(ValueError, match="bisection tolerance"):
            singularity_scan("a", 3, 11, 0.0)

    def test_explicit_grid_accepted(self):
        # five points put the constant mode's zero exactly on the grid at 0.5
        scan = singularity_scan("a", 1, 5, 1e-10)
        assert scan.grid.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert abs(scan.stars[0][0] - 0.5) <= 1e-9

    def test_as_dict_shape(self, tmp_path, monkeypatch):
        # the nogo-galerkin runner returns the scan's report and CSV rows and
        # writes nothing: the front end writes them
        monkeypatch.chdir(tmp_path)
        exp = {"name": "g", "kind": "nogo-galerkin", "seed": 0, "path_kind": "a",
               "n": 1, "grid": 11, "bisect_tol": 1e-10}
        report, (header, rows) = run_nogo_galerkin(exp, None)
        blob = json.loads(canonical_json(report))
        assert len(blob["s_grid"]) == len(blob["dets"]) == len(blob["min_svs"]) == 11
        assert blob["path_kind"] == "a" and blob["n"] == 1
        assert header == "s,det,min_sv"
        assert [d for _, d, _ in rows] == blob["dets"]
        assert list(tmp_path.iterdir()) == []

