import dataclasses
import functools
import importlib
import math
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from opdisc.acceptance import mixing_bilipschitz_layer
from opdisc.invert import NEWTON_STEPS, _apriori_iterations
from opdisc.decompose import (
    CoreCompressedLayer,
    DecompositionResult,
    Frame,
    LiftedBlock,
    PathBlock,
    ScalingPath,
    TailBlock,
    _invert,
    _measure,
    _newton_invert,
    choose_w,
    decompose,
    linear_path_blocks,
    path_blocks,
    peel_tail,
    quintic_smoothstep,
)
from opdisc.layers import (
    CoordinateNetNonlinearity,
    CoordinateNetwork,
    NeuralOperatorLayer,
    affine_nonlinearity,
    central_differences,
    eval_map,
    make_layer,
)
from opdisc.monotone import ball_samples, pairwise_alpha
from opdisc.operators import FiniteRankOperator, Identity, Reflection, activation_from_name
from opdisc.spectral import BasisSpec, Space, StageError


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def schur_path(m: np.ndarray, eps: float) -> tuple[str, int, float]:
    """A₀'s kind, the factor count and the product error of the reference
    path: ``linear_path_blocks``' A₀ and positive part, with the rotation U
    cut into steps of the rotation blocks of its real Schur form."""
    k = m.shape[0]
    a0 = np.ones(k)
    if np.linalg.det(m) < 0.0:
        a0[0] = -1.0
    usv, sv, vt = np.linalg.svd(m * a0)
    cap = 0.95 * eps
    n_p = 0
    if np.max(np.abs(sv - 1.0)) > 1e-14:
        n_p = 1
        while np.max(np.abs(sv ** (1.0 / n_p) - 1.0)) >= cap:
            n_p += 1
    smat, q = scipy.linalg.schur(usv @ vt, output="real")
    planes, minus = [], []
    i = 0
    while i < k:
        if i + 1 < k and abs(smat[i + 1, i]) > 1e-10:
            planes.append(([i, i + 1], math.atan2(smat[i + 1, i], smat[i, i])))
            i += 2
        else:
            if abs(smat[i, i] + 1.0) < 1e-8:
                minus.append(i)
            i += 1
    planes += [([a, b], math.pi) for a, b in zip(minus[0::2], minus[1::2])]
    n_u = 0
    step = np.eye(k)
    if planes:
        max_step = 2.0 * math.asin(min(cap / 2.0, 1.0))
        n_u = max(1, math.ceil(max(abs(t) for _, t in planes) / max_step))
        for idx, t in planes:
            step[np.ix_(idx, idx)] = rotation(t / n_u)
    positive = usv @ np.diag(sv ** (1.0 / max(n_p, 1))) @ usv.T
    acc = (
        np.linalg.matrix_power(positive, n_p)
        @ np.linalg.matrix_power(q @ step @ q.T, n_u)
        @ np.diag(a0)
    )
    kind = "reflection" if a0[0] < 0.0 else "identity"
    return kind, n_p + n_u, float(np.linalg.norm(acc - m, 2))


@pytest.fixture(scope="module")
def smooth_layer(space16):
    # contraction product 0.2: certified monotone, smooth middle map
    return make_layer(space16, rank=4, lip_g=0.2, activation="tanh", seed=11)


@pytest.fixture(scope="module")
def decayed_layer(space64):
    return make_layer(
        space64, rank=12, decay=2.0, lip_g=0.3, activation="tanh", seed=7
    )


@pytest.fixture(scope="module")
def flip_layer(space16):
    """Orientation-reversing but bilipschitz: acts as diag(-1, 0.5) up front."""
    t = FiniteRankOperator(np.ones(2), np.eye(16)[:2].copy(), np.eye(16)[:2].copy())
    a = np.zeros((16, 16))
    a[0, 0] = -2.0
    a[1, 1] = -0.5
    return NeuralOperatorLayer(t, t, affine_nonlinearity(a, np.zeros(16)))


class TestFrame:
    def test_coords_lift_roundtrip(self):
        rows = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 3)))[0].T
        fr = Frame(rows)
        assert fr.dim == 3 and fr.ambient_dim == 6
        c = np.array([1.0, -2.0, 0.5])
        assert np.allclose(fr.coords(fr.lift(c)), c, atol=1e-12)
        x = np.arange(6.0)
        px = fr.lift(fr.coords(x))
        assert np.allclose(fr.lift(fr.coords(px)), px, atol=1e-12)

    def test_rejects_non_orthonormal_rows(self):
        # the second has max |R·Rᵀ − I| = 1e-5, inside allclose's default rtol
        for rows in (np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(2, 3) * (1.0 + 5e-6)):
            with pytest.raises(ValueError, match="orthonormal"):
                Frame(rows)

    def test_empty_frame(self):
        fr = Frame(np.zeros((0, 5)))
        assert fr.dim == 0
        assert fr.coords(np.ones(5)).shape == (0,)
        assert np.array_equal(fr.lift(np.zeros((3, 0))), np.zeros((3, 5)))


class TestQuinticSmoothstep:
    def test_boundary_and_clamping(self):
        assert quintic_smoothstep(0.0) == 0.0
        assert quintic_smoothstep(1.0) == 1.0
        assert quintic_smoothstep(-3.0) == 0.0
        assert quintic_smoothstep(7.0) == 1.0

    def test_monotone_with_bounded_slope(self):
        s = np.linspace(0.0, 1.0, 2001)
        v = quintic_smoothstep(s)
        assert np.all(np.diff(v) >= 0.0)
        slope = np.max(np.diff(v) / np.diff(s))
        assert slope <= 1.875 * (1.0 + 1e-4)


class TestChooseW:
    def test_quadratic_decay_keeps_first_ten_directions(self, decayed_layer):
        frame, report = choose_w(decayed_layer, 0.01)
        # omega_p = p^-2: p <= 10 stays, p >= 11 falls below the threshold
        assert report["w_dim"] == frame.dim <= 40
        for t in (decayed_layer.in_op, decayed_layer.out_op):
            for fam in (t.psi, t.phi):
                for p in range(10):
                    v = fam[p]
                    assert np.linalg.norm(v - frame.lift(frame.coords(v))) <= 1e-9
                v11 = fam[10]
                assert np.linalg.norm(v11 - frame.lift(frame.coords(v11))) > 1e-3
        for side in report["tails"].values():
            assert side["right"] < 0.01 and side["left"] < 0.01

    def test_rank_one_span_and_zero_tails(self, space16):
        layer = make_layer(space16, rank=1, lip_g=0.3, activation="tanh", seed=3)
        frame, report = choose_w(layer, 0.5)
        assert frame.dim <= 4
        for side in report["tails"].values():
            assert side["right"] <= 1e-12 and side["left"] <= 1e-12

    def test_threshold_above_norm_gives_empty_frame(self, smooth_layer):
        frame, report = choose_w(smooth_layer, 10.0)
        assert frame.dim == 0
        for side in report["tails"].values():
            assert side["right"] <= 1.0 + 1e-12 < 10.0

    @pytest.mark.parametrize("seed, h", [(5, 0.3), (14, 0.15)])
    def test_tails_are_exact_spectral_norms(self, seed, h):
        # layers on which a 200-step power iteration read a tail up to
        # 2.2e-6 (seed 5) and 1.2e-8 (seed 14) relative below its value
        layer = make_layer(
            Space(BasisSpec(ambient_dim=32)), rank=12, lip_g=0.3, activation="tanh",
            seed=seed,
        )
        frame, report = choose_w(layer, h)
        comp = np.eye(32) - frame.rows.T @ frame.rows
        for name, t in (("in", layer.in_op), ("out", layer.out_op)):
            mat = t.as_matrix()
            for side, tail in (("right", mat @ comp), ("left", comp @ mat)):
                exact = np.linalg.svd(tail, compute_uv=False)[0]
                assert exact > 1e-3
                assert report["tails"][name][side] == pytest.approx(exact, rel=1e-13)

    def test_nonpositive_threshold_rejected(self, smooth_layer):
        with pytest.raises(ValueError, match="positive"):
            choose_w(smooth_layer, 0.0)


FOURIER16 = Space(BasisSpec("fourier", 16))


def core_layer(kind, seed):
    """A rank-6 layer on 16 Fourier coefficients whose middle map is a tanh
    network on all of them, a tanh network on the first 6 (the other 10
    pass through, so the layer folds a skip matrix) or a Nemytskii map."""
    if kind == "nemytskii":
        return make_layer(FOURIER16, rank=6, lip_g=0.3, nonlin="nemytskii", seed=seed)
    layer = make_layer(FOURIER16, rank=6, lip_g=0.3, activation="tanh", seed=seed)
    if kind == "prefix":
        net = CoordinateNetwork.seeded(6, 6, activation=activation_from_name("tanh"),
                                       target_bound=0.3, bias_scale=0.3, seed=seed)
        layer = NeuralOperatorLayer(layer.in_op, layer.out_op, CoordinateNetNonlinearity(net, 16))
    return layer


def ambient_core(layer, frame):
    """F^W on the ambient space: the W-coordinate core, identity on W⊥."""
    return LiftedBlock(CoreCompressedLayer(layer, frame), frame)


class TestBuildFW:
    def test_full_support_frame_reproduces_the_layer(self, smooth_layer):
        frame, _ = choose_w(smooth_layer, 1e-6)
        fw = ambient_core(smooth_layer, frame)
        xs = ball_samples(16, 1.5, 32, seed=1)
        gap = np.max(
            np.linalg.norm(fw.eval_array(xs) - smooth_layer.eval_array(xs), axis=1)
        )
        assert gap <= 1e-12

    def test_fixes_frame_complement_pointwise(self, space16):
        t = FiniteRankOperator(
            np.array([1.0, 0.8]), np.eye(16)[:2].copy(), np.eye(16)[:2].copy()
        )
        layer = make_layer(space16, rank=2, lip_g=0.3, activation="tanh", seed=5)
        layer = NeuralOperatorLayer(t, t, layer.nonlin)
        frame, _ = choose_w(layer, 0.5)
        fw = ambient_core(layer, frame)
        x = np.zeros(16)
        x[4:] = np.linspace(1.0, -1.0, 12)
        assert np.allclose(fw.eval_array(x), x, atol=1e-14)

    def test_threshold_choice_bounds_surrogate_deviation(self, decayed_layer):
        eps, r = 0.25, 1.0
        lip_g = decayed_layer.lip_nonlin
        h = eps / (
            4.0
            * (1.0 + lip_g)
            * (1.0 + decayed_layer.in_op.norm)
            * (1.0 + decayed_layer.out_op.norm)
        )
        frame, _ = choose_w(decayed_layer, h)
        assert 0 < frame.dim < 64
        fw = ambient_core(decayed_layer, frame)
        xs = ball_samples(64, r, 64, seed=2)
        gap = np.max(
            np.linalg.norm(fw.eval_array(xs) - decayed_layer.eval_array(xs), axis=1)
        )
        assert gap <= 0.5 * (1.0 + r) * eps

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        h=st.floats(min_value=0.02, max_value=0.6),
        rows=st.integers(min_value=0, max_value=5),
    )
    def test_core_map_matches_ambient_action(self, seed, h, rows):
        # rows == 0 evaluates a single vector, otherwise a (rows, k) batch;
        # every middle-map kind is folded with the frame
        for kind in ("coordinate_net", "prefix", "nemytskii"):
            layer = core_layer(kind, seed)
            frame, _ = choose_w(layer, h)
            core = CoreCompressedLayer(layer, frame)
            assert core.dim == frame.dim
            assert (core.skip is None) == (kind != "prefix")
            c = ball_samples(frame.dim, 1.5, max(rows, 1), seed=seed)
            if rows == 0:
                c = c[0]
            got = core.eval_array(c)
            assert got.shape == c.shape
            want = frame.coords(layer.eval_array(frame.lift(c)))
            assert np.max(np.abs(got - want), initial=0.0) <= 1e-13

    def test_evaluation_uses_no_frame_or_operator_products(self, smooth_layer, monkeypatch):
        # the layer folds T₁, T₂ and the frame into the core's network at
        # construction, so an evaluation never lifts, projects, applies or
        # forms an operator, and never reads the layer's middle map
        frame, _ = choose_w(smooth_layer, 0.05)
        core = CoreCompressedLayer(smooth_layer, frame)
        calls = []
        for owner, name in (
            (Frame, "lift"),
            (Frame, "coords"),
            (FiniteRankOperator, "eval_array"),
            (FiniteRankOperator, "as_matrix"),
        ):
            original = getattr(owner, name)

            def counted(self, *args, _name=name, _original=original):
                calls.append(_name)
                return _original(self, *args)

            monkeypatch.setattr(owner, name, counted)
        nonlin = smooth_layer.nonlin
        monkeypatch.setattr(
            NeuralOperatorLayer, "nonlin",
            property(lambda self: calls.append("nonlin") or nonlin), raising=False,
        )
        c = ball_samples(frame.dim, 1.0, 8, seed=4)
        out = core.eval_array(c)
        assert calls == []
        assert out.shape == c.shape
        # the probes are live
        smooth_layer.in_op.as_matrix()
        assert smooth_layer.nonlin is nonlin
        assert calls == ["as_matrix", "nonlin"]


class CountedMap:
    """Wraps a map and counts how often it is evaluated."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


class TestInvertMonotone:
    """decompose's Banach path: f = Id + B, Lip(B) ≤ κ, a (1 − κ)-strongly
    monotone, (1 + κ)-Lipschitz map inverted at rate κ by the shared kernel,
    with its failures reported as decompose errors."""

    def test_identity_converges_immediately(self):
        f = CountedMap(lambda v: v)
        y = np.array([0.3, -1.2, 0.5])
        x = _invert(f, y, 0.0, 1e-10)
        assert np.array_equal(x, y)
        assert f.calls == 1

    def test_scaling_map_divides_target(self):
        y = np.zeros(4)
        y[0] = 1.0
        x = _invert(lambda v: 1.5 * v, y, 0.5, 1e-10)
        assert np.allclose(x, y / 1.5, atol=1e-12)

    def test_iteration_count_obeys_geometric_bound(self):
        # B = diag(0, κ) attains its Lipschitz constant κ
        kappa = 0.5
        d = np.array([1.0, 1.0 + kappa])
        f = CountedMap(lambda v: d * v)
        y = np.array([0.7, -1.1])
        tol = 1e-10
        x = _invert(f, y, kappa, tol)
        r0 = np.linalg.norm(d * y - y)
        # the residual of a linear B shrinks by exactly κ per step
        bound = math.log(tol / r0) / math.log(kappa) + 1.0
        # one evaluation at the start, one per iteration
        assert f.calls - 1 <= bound
        assert f.calls <= _apriori_iterations(r0, kappa, tol)
        assert np.linalg.norm(d * x - y) <= tol

    def test_residual_guarantee_on_nonlinear_map(self):
        rng = np.random.default_rng(4)
        m = rng.standard_normal((5, 5))
        m *= 0.3 / np.linalg.norm(m, 2)
        f = lambda v: v + np.tanh(v @ m.T)
        y = rng.standard_normal(5)
        x = _invert(f, y, 0.3, 1e-11)
        assert np.linalg.norm(f(x) - y) <= 1e-11

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        kappa=st.floats(min_value=0.0, max_value=0.9),
        k=st.integers(min_value=1, max_value=6),
        rows=st.integers(min_value=1, max_value=8),
        tol=st.sampled_from([1e-6, 1e-9, 1e-12]),
    )
    def test_random_tanh_contractions_converge_within_budget(self, seed, kappa, k, rows, tol):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((k, k))
        m *= kappa / max(np.linalg.norm(m, 2), 1e-300)
        b = rng.standard_normal(k)
        f = CountedMap(lambda v: v + np.tanh(v @ m.T + b))
        ys = 3.0 * rng.standard_normal((rows, k))
        r0 = float(np.max(np.linalg.norm(f.f(ys) - ys, axis=1)))
        xs = _invert(f, ys, kappa, tol)
        assert np.max(np.linalg.norm(f.f(xs) - ys, axis=1)) <= tol
        # the slowest row's budget bounds the batch's evaluations
        assert f.calls <= _apriori_iterations(r0, kappa, tol)

    def test_batch_of_targets_iterates_together(self):
        d = np.array([1.0, 1.5])
        f = CountedMap(lambda v: d * v)
        ys = np.array([[0.7, -1.1], [0.0, 0.0], [-2.0, 0.4]])
        tol = 1e-10
        xs = _invert(f, ys, 0.5, tol)
        assert xs.shape == ys.shape
        assert np.max(np.linalg.norm(d * xs - ys, axis=1)) <= tol
        # one shared loop: the batch stops when its slowest row converges
        counts = []
        for y in ys:
            single = CountedMap(f.f)
            _invert(single, y, 0.5, tol)
            counts.append(single.calls)
        assert len(set(counts)) > 1
        assert f.calls == max(counts)

    def test_parameter_validation(self):
        # κ ≥ 1 is Newton's (TestInverterChoice)
        y = np.ones(2)
        for kappa in (-0.1, float("nan")):
            with pytest.raises(ValueError, match="contraction bound"):
                _invert(lambda v: v, y, kappa, 1e-10)
        for tol in (0.0, -1e-10, float("nan")):
            with pytest.raises(ValueError, match="tolerance"):
                _invert(lambda v: v, y, 0.5, tol)

    def test_nan_residual_is_not_converged(self):
        # the second row starts where the map is NaN; the batch must not
        # report it solved
        f = lambda v: v + 0.5 * np.sqrt(v)
        ys = np.array([[4.0, 1.0], [4.0, -1.0]])
        with np.errstate(invalid="ignore"), pytest.raises(StageError, match="nan"):
            _invert(f, ys, 0.5, 1e-10)


def _newton_rows(f, ys, tol, max_iter, trace=None):
    """Reference: the Newton solver one row at a time.

    Appends (steps taken, smallest accepted λ) per row to ``trace``.
    """
    xs = ys.copy()
    for row in range(xs.shape[0]):
        x, y = xs[row], ys[row]
        res = eval_map(f, x) - y
        rnorm = float(np.linalg.norm(res))
        steps, lam_min = 0, 1.0
        for _ in range(max_iter):
            if rnorm <= tol:
                break
            step = np.linalg.solve(central_differences(f, x, np.eye(x.size)), res)
            lam = 1.0
            while lam >= 1e-10:
                cand = x - lam * step
                cres = eval_map(f, cand) - y
                cnorm = float(np.linalg.norm(cres))
                if cnorm < rnorm:
                    x, res, rnorm = cand, cres, cnorm
                    break
                lam *= 0.5
            else:
                raise StageError(
                    "invert", f"Newton line search stagnated at residual {rnorm:g}"
                )
            steps, lam_min = steps + 1, min(lam_min, lam)
        if rnorm > tol:
            raise StageError(
                "invert", f"Newton did not reach tol={tol:g} in {max_iter} "
                f"steps (last residual {rnorm:g})"
            )
        if trace is not None:
            trace.append((steps, lam_min))
        xs[row] = x
    return xs


def _newton_maps(kappa):
    """The core map of a thin-margin layer (as a Newton tail block inverts
    it) and its scaling path at t = 0.5 (as a Newton path block does)."""
    layer = mixing_bilipschitz_layer(12, kappa=kappa, seed=3)
    frame, _ = choose_w(layer, 0.5)
    core = CoreCompressedLayer(layer, frame)
    path = ScalingPath(core, frame.dim, layer.contraction)
    maps = {"core": core.eval_array, "path": functools.partial(path.eval_t_rows, 0.5)}
    return frame.dim, maps


class TestNewtonInvert:
    @pytest.mark.parametrize("name", ["core", "path"])
    def test_batch_equals_per_row_reference(self, name):
        k, maps = _newton_maps(0.9)
        rows = []

        def f(x):
            rows.append(x[..., 0].size)
            return maps[name](x)

        ys = ball_samples(k, 3.0, 16, seed=1)
        trace = []
        want = _newton_rows(f, ys, 1e-13, NEWTON_STEPS, trace)
        # rows need different step counts, and some backtrack (λ < 1)
        assert len({steps for steps, _ in trace}) > 1
        assert min(lam for _, lam in trace) < 1.0
        want_rows, rows[:] = sum(rows), []
        got = _newton_invert(f, ys, 1e-13)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
        # the same points are evaluated, only in fewer calls
        assert sum(rows) == want_rows
        assert np.max(np.linalg.norm(maps[name](got) - ys, axis=1)) <= 1e-13

    def test_map_calls_do_not_grow_with_rows(self):
        k, maps = _newton_maps(0.7)
        calls = []

        def counted(x):
            calls.append(np.shape(x))
            return maps["core"](x)

        def count(ys):
            calls.clear()
            _newton_invert(counted, ys, 1e-13)
            return len(calls)

        ys = ball_samples(k, 1.0, 64, seed=2)
        slowest = max(count(y[None]) for y in ys)
        assert count(ys) == slowest

    def test_row_without_preimage_stagnates(self):
        # x ↦ x² + 1 never reaches 0.5 in the first coordinate of row 1
        f = lambda x: x**2 + 1.0
        ys = np.array([[2.0, 5.0], [0.5, 2.0], [3.0, 1.5]])
        stagnated = r"\[invert\] Newton line search stagnated"
        with pytest.raises(StageError, match=stagnated):
            _newton_invert(f, ys, 1e-12)

    def test_nan_residual_is_not_converged(self):
        # the second row starts at a point where the map is NaN
        ys = np.array([[4.0, 1.0], [4.0, -1.0]])
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            _newton_invert(np.sqrt, ys, 1e-12)

    def test_start_of_another_shape_is_refused(self):
        f = CountedMap(lambda x: x**2 + 1.0)
        ys = np.array([[2.0, 5.0], [0.5, 2.0], [3.0, 1.5]])
        with pytest.raises(ValueError, match=r"start has shape \(1, 2\), but y has shape \(3, 2\)"):
            _newton_invert(f, ys, 1e-12, np.ones((1, 2)))
        assert f.calls == 0

    def test_exhausted_step_budget_raises(self, monkeypatch):
        f = lambda x: x**2 + 1.0
        ys = np.array([[5.0, 2.0], [2.0, 10.0]])
        assert np.allclose(_newton_invert(f, ys, 1e-12), [[2.0, 1.0], [1.0, 3.0]])
        monkeypatch.setattr(importlib.import_module("opdisc.invert"), "NEWTON_STEPS", 1)
        with pytest.raises(StageError, match="did not reach tol=1e-12 in 1 steps"):
            _newton_invert(f, ys, 1e-12)


class TestPeelTail:
    def test_exact_core_leaves_no_tail(self, smooth_layer):
        frame, _ = choose_w(smooth_layer, 1e-6)
        core = CoreCompressedLayer(smooth_layer, frame)
        block = peel_tail(smooth_layer, core, epsilon=0.25, tol=1e-9, kappa=0.2, seed=9,
                          sample_radius=2.0)
        assert block.deviation <= 1e-7
        assert block.lip_sampled <= 1e-6

    def test_roundtrip_and_lipschitz_on_truncated_core(self, decayed_layer):
        eps = 0.25
        lip_g = decayed_layer.lip_nonlin
        h = eps / (
            4.0
            * (1.0 + lip_g)
            * (1.0 + decayed_layer.in_op.norm)
            * (1.0 + decayed_layer.out_op.norm)
        )
        frame, _ = choose_w(decayed_layer, h)
        core = CoreCompressedLayer(decayed_layer, frame)
        kappa = decayed_layer.contraction
        block = peel_tail(
            decayed_layer,
            core,
            epsilon=eps,
            tol=1e-9,
            kappa=kappa,
            seed=10,
            sample_radius=2.0,
        )
        assert block.roundtrip_error < 1e-8
        assert block.lip_sampled < eps


def tanh_contraction(k: int, seed: int, scale: float = 0.3, bias: float = 0.0):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((k, k))
    m *= 1.0 / np.linalg.norm(m, 2)
    b = bias * rng.standard_normal(k)
    return lambda c: c + scale * np.tanh(c @ m.T) + b


class TestPathBlocks:
    def test_linear_map_needs_no_blocks(self):
        a = np.diag([1.3, 0.8])
        f = lambda c: c @ a.T
        path = ScalingPath(f, 2, 0.3)
        blocks, diag = path_blocks(path, epsilon=0.25, r1=1.0, c0=0.8, c1=1.3, tol=1e-9)
        assert blocks == []
        assert diag["linear_shortcut"]

    def test_transport_reaches_the_map(self):
        f = tanh_contraction(3, seed=21)
        blocks, diag = path_blocks(
            ScalingPath(f, 3, 0.3), epsilon=0.25, r1=1.0, c0=0.7, c1=1.3, tol=1e-9,
            seed=1
        )
        assert len(blocks) >= 1
        assert not diag["linear_shortcut"]
        df0 = np.column_stack(
            [(f(1e-6 * e) - f(-1e-6 * e)) / 2e-6 for e in np.eye(3)]
        )
        xs = ball_samples(3, 1.0, 50, seed=2)
        ys = xs @ df0.T
        for b in blocks:
            ys = b.eval_array(ys)
        target = np.stack([f(x) for x in xs])
        assert np.max(np.linalg.norm(ys - target, axis=1)) <= 1e-6

    def test_blocks_are_near_identity_and_monotone(self):
        f = tanh_contraction(3, seed=22, bias=0.2)
        eps = 0.25
        blocks, _ = path_blocks(
            ScalingPath(f, 3, 0.35), epsilon=eps, r1=1.0, c0=0.7, c1=1.4, tol=1e-9,
            seed=3
        )
        assert blocks
        for b in blocks:
            assert b.lip_sampled < eps
            cert = pairwise_alpha(b, r=2.0, n=64, seed=4, dim=3)
            assert cert.alpha >= 1.0 - eps - 1e-6

    def test_finer_epsilon_needs_more_blocks(self):
        f = tanh_contraction(3, seed=23)
        path = ScalingPath(f, 3, 0.3)
        coarse, _ = path_blocks(path, 0.4, 1.0, 0.7, 1.3, 1e-9, seed=5)
        fine, _ = path_blocks(path, 0.1, 1.0, 0.7, 1.3, 1e-9, seed=5)
        assert len(fine) >= len(coarse)

    def test_a_stack_takes_one_t_per_slice(self):
        f = tanh_contraction(3, seed=21)
        path = ScalingPath(f, 3, 0.3)
        ts = np.array([0.5, 0.0, 1.0])
        xs = ball_samples(3, 1.0, 12, seed=2).reshape(3, 4, 3)
        # f_t is evaluated for t > 0 only; the t = 0 slice's image is Df|₀·x
        moving = ts > 0.0
        ys = np.empty_like(xs)
        ys[moving] = path.eval_t_rows(ts[moving], xs[moving])
        ys[~moving] = xs[~moving] @ path.df0.T
        pre = path.invert_t_rows(ts, ys, 1e-10)
        for t, x, y in zip(ts[moving], xs[moving], ys[moving]):
            assert np.array_equal(y, path.eval_t_rows(t, x))
        for t, y, p in zip(ts, ys, pre):
            # the t = 0 slice is Df|₀, solved exactly
            assert np.array_equal(p, path.invert_t_rows(t, y, 1e-10))
        assert np.max(np.abs(pre - xs)) <= 1e-9

    def test_validation(self):
        path = ScalingPath(lambda c: c, 2, 0.0)
        with pytest.raises(ValueError, match="epsilon"):
            path_blocks(path, epsilon=0.0, r1=1.0, c0=0.5, c1=1.5, tol=1e-9)
        with pytest.raises(ValueError, match="c0"):
            path_blocks(path, epsilon=0.2, r1=1.0, c0=1.5, c1=0.5, tol=1e-9)


class TestMeasureRound:
    """path_blocks measures each refinement round's new blocks as one
    stacked Banach solve, and every block as it would measure alone."""

    # criterion 4's layer and ε sweep; decompose's seed 0 gives path_blocks
    # seed 6, which draws its 40 samples at seed 8
    @pytest.mark.parametrize("epsilon", [0.4, 0.25, 0.2, 0.1, 0.05])
    def test_stacked_rounds_measure_each_block_as_alone(self, epsilon):
        result = decompose(mixing_bilipschitz_layer(16), epsilon, 1.0, seed=0)
        paths = [b.core for b in result.blocks if isinstance(getattr(b, "core", None), PathBlock)]
        assert paths
        xs = ball_samples(paths[0].path.k, 2.3 * result.diagnostics["path"]["r2"], 40, seed=8)
        for b in paths:
            alone = PathBlock(b.path, b.t_lo, b.t_hi, b.r2, b.tol).eval_array(xs)
            assert (b.lip_sampled, b.deviation) == _measure(xs, alone)

    def test_round_cost_does_not_grow_with_its_blocks(self, monkeypatch):
        module = importlib.import_module("opdisc.decompose")
        calls = []
        core_eval = module.CoreCompressedLayer.eval_array

        def recording(core, c):
            calls.append(np.shape(c))
            return core_eval(core, c)

        measure_round = module._measure_round
        rounds = []

        def recorded(blocks, xs):
            before = len(calls)
            measured = measure_round(blocks, xs)
            rounds.append((blocks, xs, len(calls) - before))
            return measured

        monkeypatch.setattr(module.CoreCompressedLayer, "eval_array", recording)
        monkeypatch.setattr(module, "_measure_round", recorded)
        result = decompose(mixing_bilipschitz_layer(16), 0.05, 1.0, seed=0)
        assert result.diagnostics["inverter"] == "fixed_point"
        assert max(len(blocks) for blocks, _, _ in rounds) >= 8
        for blocks, xs, cost in rounds:
            alone = []
            for b in blocks:
                before = len(calls)
                b.eval_array(xs)
                alone.append(len(calls) - before)
            # one stack steps until its slowest row converges: as many
            # core calls as the slowest block alone, not their sum
            assert cost <= max(alone)


class TestLinearPathBlocks:
    def test_identity_needs_nothing(self):
        kind, factors, _ = linear_path_blocks(np.eye(4), 0.25)
        assert kind == "identity"
        assert factors == []

    def test_axis_flip_is_pure_reflection(self):
        kind, factors, _ = linear_path_blocks(np.diag([-1.0, 1.0, 1.0]), 0.25)
        assert kind == "reflection"
        assert factors == []

    def test_scaled_rotation_factors_recompose(self):
        m = 2.0 * rotation(math.pi / 2.0)
        eps = 0.25
        kind, factors, diag = linear_path_blocks(m, eps)
        assert kind == "identity"
        acc = np.eye(2)
        for f in factors:
            assert np.linalg.norm(f - np.eye(2), 2) < eps
            acc = f @ acc
        assert np.linalg.norm(acc - m, 2) <= 1e-8
        assert diag["product_error"] <= 1e-8

    def test_paired_flips_become_a_half_turn(self):
        kind, factors, _ = linear_path_blocks(np.diag([-1.0, -1.0, 1.0]), 0.3)
        assert kind == "identity"
        acc = np.eye(3)
        for f in factors:
            acc = f @ acc
        assert np.allclose(acc, np.diag([-1.0, -1.0, 1.0]), atol=1e-8)

    def test_triple_flip_keeps_one_reflection(self):
        m = np.diag([-1.0, -1.0, -1.0])
        kind, factors, _ = linear_path_blocks(m, 0.3)
        assert kind == "reflection"
        acc = np.diag([-1.0, 1.0, 1.0])
        for f in factors:
            acc = f @ acc
        assert np.allclose(acc, m, atol=1e-8)

    def test_off_axis_reflection_recomposes_from_the_first_coordinate_flip(self):
        m = rotation(0.3) @ np.diag([-1.5, 0.75])
        eps = 0.2
        kind, factors, _ = linear_path_blocks(m, eps)
        assert kind == "reflection"
        acc = np.diag([-1.0, 1.0])
        for f in factors:
            assert np.linalg.norm(f - np.eye(2), 2) < eps
            acc = f @ acc
        assert np.allclose(acc, m, atol=1e-8)

    def test_general_positive_matrix(self):
        m = rotation(0.9) @ np.diag([1.6, 0.7])
        kind, factors, _ = linear_path_blocks(m, 0.25)
        assert kind == "identity"
        acc = np.eye(2)
        for f in factors:
            acc = f @ acc
        assert np.allclose(acc, m, atol=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(
        k=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        eps=st.sampled_from([0.4, 0.25, 0.1, 0.05]),
    )
    def test_random_invertible_matrices(self, k, seed, eps):
        m = np.random.default_rng(seed).standard_normal((k, k))
        assume(np.linalg.cond(m) < 1e6)
        kind, factors, diag = linear_path_blocks(m, eps)
        assert kind == ("reflection" if np.linalg.det(m) < 0.0 else "identity")
        acc = np.eye(k)
        if kind == "reflection":
            acc[0, 0] = -1.0
        for f in factors:
            assert np.linalg.norm(f - np.eye(k), 2) < eps
            acc = f @ acc
        assert np.linalg.norm(acc - m, 2) <= 1e-8
        assert diag["product_error"] <= 1e-8

    def assert_matches_schur_path(self, m, eps):
        ref_kind, ref_count, ref_error = schur_path(m, eps)
        assert ref_error <= 1e-8  # the reference itself holds
        kind, factors, diag = linear_path_blocks(m, eps)
        assert (kind, len(factors)) == (ref_kind, ref_count)
        assert diag["product_error"] <= 1e-8
        for f in factors:
            assert np.linalg.norm(f - np.eye(m.shape[0]), 2) < eps

    @settings(max_examples=150, deadline=None)
    @given(
        k=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
        eps=st.sampled_from([0.4, 0.25, 0.1, 0.05]),
    )
    def test_random_matrices_match_the_schur_path(self, k, seed, eps):
        m = np.random.default_rng(seed).standard_normal((k, k))
        assume(np.linalg.cond(m) < 1e6)
        self.assert_matches_schur_path(m, eps)

    @settings(max_examples=300, deadline=None)
    @given(
        angles=st.lists(
            st.one_of(
                st.floats(-13.0, -1.0).map(lambda e: math.pi - 10.0**e),  # near a half turn
                st.floats(-12.0, -1.0).map(lambda e: 10.0**e),  # near the identity
                st.floats(-math.pi, math.pi),
            ),
            min_size=1,
            max_size=4,
        ),
        repeat=st.sampled_from(["once", "twice", "mirrored"]),
        half_turns=st.sampled_from([0, 2, 4]),
        fixed=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
        eps=st.sampled_from([0.4, 0.25, 0.1, 0.05]),
    )
    def test_constructed_rotations_match_the_schur_path(
        self, angles, repeat, half_turns, fixed, seed, eps
    ):
        """Q·R·Qᵀ·P with R's planes near π or near 0, repeated or paired
        with their mirror, next to exact −I blocks and fixed axes."""
        # a turn at the 1e-10 cutoff for "no rotation" may fall on either
        # side of it in either method, and both answers are within 1e-8
        assume(not any(5e-11 < abs(t) < 2e-10 for t in angles))
        if repeat == "twice":
            angles = angles + angles
        elif repeat == "mirrored":
            angles = angles + [-t for t in angles]
        r = scipy.linalg.block_diag(
            *[rotation(t) for t in angles], -np.eye(half_turns), np.eye(fixed)
        )
        k = r.shape[0]
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        p = np.diag(np.exp(rng.uniform(-0.5, 0.5, k)))
        self.assert_matches_schur_path(q @ r @ q.T @ p, eps)

    def test_a_cyclic_permutation_turns_planes_by_a_third(self):
        """The 120° planes of a coordinate cycle sit at cos θ = −1/2,
        where the root switches between its two formulas."""
        m = np.roll(np.eye(6), 2, axis=0)
        kind, factors, diag = linear_path_blocks(m, 0.25)
        np.testing.assert_allclose(diag["rotation_angles"], [2.0 * math.pi / 3.0] * 2)
        assert diag["product_error"] <= 1e-8
        self.assert_matches_schur_path(m, 0.25)

    @pytest.mark.parametrize("cosines, direct", [
        # one plane: the widest gap of [-0.8, -0.3, -0.2] lies below it
        ((-0.3,), (-0.3,)),
        # ... and above it at -0.55
        ((-0.55,), ()),
        # -0.3 splits [-0.8, -0.2], so the cut lies below -0.52 too
        ((-0.3, -0.52), (-0.3, -0.52)),
        # the π-plane's cosine -1 is no mark: the widest gap is [-0.7, -0.52]
        ((-1.0, -0.7, -0.52, -0.38, -0.25), (-0.52, -0.38, -0.25)),
    ], ids=["above", "below", "split", "half-turn"])
    def test_the_cut_sits_in_the_widest_gap_of_the_cosines(self, monkeypatch, cosines, direct):
        """``_orthogonal_root`` turns the planes above the cut by
        ``_cos_root`` directly, and the others through −U; the cut is the
        middle of the widest gap of the cosines over [−0.8, −0.2]."""
        r = scipy.linalg.block_diag(*[rotation(math.acos(c)) for c in cosines], np.eye(1))
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal(r.shape))
        module = importlib.import_module("opdisc.decompose")
        cos_root, turned = module._cos_root, []

        def recorded(c, *args):
            turned.append(c)
            return cos_root(c, *args)

        monkeypatch.setattr(module, "_cos_root", recorded)
        _, factors, diag = linear_path_blocks(q @ r @ q.T, 0.25)
        assert diag["product_error"] <= 1e-12
        # each plane's cosine twice, and the fixed axis's 1
        np.testing.assert_allclose(np.sort(turned[0]), sorted([*direct, *direct, 1.0]),
                                   atol=1e-12)

    def test_rejects_near_singular_and_bad_input(self):
        with pytest.raises(ValueError, match="singular"):
            linear_path_blocks(np.diag([1.0, 1e-9]), 0.25)
        with pytest.raises(ValueError, match="square"):
            linear_path_blocks(np.ones((2, 3)), 0.25)
        with pytest.raises(ValueError, match="epsilon"):
            linear_path_blocks(np.eye(2), 0.0)


class TestDecompose:
    @pytest.mark.parametrize("gain,r1", [(40.0, 1.0), (0.4, 30.0), (0.4, 100.0)])
    def test_the_cutoff_covers_every_block_input(self, gain, r1):
        # a block's input f_t(p), |p| <= r1, reaches (1 + κ)·r1 + |f(0)|; on
        # these saturating layers (κ = 0.25) the sampled upper constant is
        # below 1 + κ, so a cutoff radius taken from it leaves outer inputs
        # unmoved and the composite misses the layer
        result = decompose(mixing_bilipschitz_layer(16, gain=gain), 0.25, r1)
        assert result.diagnostics["path"]["r2"] >= 1.25 * r1
        assert result.diagnostics["composite_error"] <= 1e-10

    def test_identity_layer_decomposes_to_nothing(self, space16):
        layer = make_layer(space16, lip_g=0.0, seed=1)
        result = decompose(layer, epsilon=0.25, r1=1.0)
        assert result.j == 0 and result.blocks == ()
        assert isinstance(result.a0, Identity)
        xs = ball_samples(16, 1.0, 8, seed=2)
        assert np.allclose(result.eval_array(xs), xs, atol=1e-12)

    def test_a_nan_composite_fails_verify(self, space16, monkeypatch):
        original = DecompositionResult.eval_array

        def poisoned(self, x):
            y = np.array(original(self, x), dtype=float)
            y[0] = np.nan
            return y

        monkeypatch.setattr(DecompositionResult, "eval_array", poisoned)
        layer = make_layer(space16, lip_g=0.0, seed=1)
        with pytest.raises(
            StageError, match=r"^\[verify\] composite reproduces the layer only to nan"
        ):
            decompose(layer, epsilon=0.25, r1=1.0)

    def test_smooth_layer_blocks_and_composite(self, smooth_layer):
        eps = 0.25
        result = decompose(smooth_layer, epsilon=eps, r1=1.0, seed=3)
        assert result.j == len(result.blocks) >= 1
        assert result.diagnostics["composite_error"] <= 1e-6
        for b in result.blocks:
            assert b.lip_sampled < eps
        xs = ball_samples(16, 1.0, 40, seed=99)
        gap = np.max(
            np.linalg.norm(
                result.eval_array(xs) - smooth_layer.eval_array(xs), axis=1
            )
        )
        assert gap <= 5e-6

    def test_blocks_are_strongly_monotone(self, smooth_layer):
        eps = 0.25
        result = decompose(smooth_layer, epsilon=eps, r1=1.0, seed=3)
        for b in result.blocks:
            cert = pairwise_alpha(b, r=1.0, n=48, seed=5, dim=16)
            assert cert.alpha >= 1.0 - eps - 1e-6

    def test_block_jacobians_positively_oriented_at_origin(self, smooth_layer):
        result = decompose(smooth_layer, epsilon=0.25, r1=1.0, seed=3)
        for b in result.blocks:
            jac = np.column_stack(
                [
                    (eval_map(b, 1e-5 * e) - eval_map(b, -1e-5 * e)) / 2e-5
                    for e in np.eye(16)
                ]
            )
            assert np.linalg.det(jac) > 0.0

    def test_frame_blocks_fix_the_complement(self, smooth_layer):
        result = decompose(smooth_layer, epsilon=0.25, r1=1.0, seed=3)
        lifted = [b for b in result.blocks if hasattr(b, "frame")]
        assert lifted
        fr = lifted[0].frame
        rng = np.random.default_rng(8)
        for _ in range(4):
            x = rng.standard_normal(16)
            x -= fr.lift(fr.coords(x))
            for b in lifted:
                assert np.allclose(b.eval_array(x), x, atol=1e-12)

    def test_orientation_reversing_layer_yields_reflection(self, flip_layer):
        result = decompose(flip_layer, epsilon=0.25, r1=1.0, seed=4)
        assert isinstance(result.a0, Reflection)
        assert result.diagnostics["composite_error"] <= 1e-6
        assert result.diagnostics["inverter"] == "newton"
        xs = ball_samples(16, 1.0, 30, seed=6)
        gap = np.max(
            np.linalg.norm(result.eval_array(xs) - flip_layer.eval_array(xs), axis=1)
        )
        assert gap <= 5e-6

    def test_finer_epsilon_uses_more_blocks(self, smooth_layer):
        coarse = decompose(smooth_layer, epsilon=0.4, r1=1.0, seed=3)
        fine = decompose(smooth_layer, epsilon=0.2, r1=1.0, seed=3)
        assert fine.j >= coarse.j

    def test_stage_tag_on_uncertified_middle_map(self, space16):
        layer = make_layer(space16, rank=4, lip_g=0.4, activation="recu", seed=5)
        with pytest.raises(StageError, match=r"\[estimate\]"):
            decompose(layer, epsilon=0.25, r1=1.0)

    def test_parameter_validation(self, smooth_layer):
        with pytest.raises(ValueError, match="epsilon"):
            decompose(smooth_layer, epsilon=0.0, r1=1.0)
        with pytest.raises(ValueError, match="radius"):
            decompose(smooth_layer, epsilon=0.25, r1=0.0)

    @pytest.mark.parametrize(
        "epsilon,r1,name",
        [(math.nan, 1.0, "epsilon"), (1.0, 1.0, "epsilon"), (2.0, 1.0, "epsilon"),
         (0.25, math.nan, "r1"), (0.25, math.inf, "r1")],
    )
    def test_refuses_epsilon_outside_the_unit_interval_and_a_bad_r1(
        self, smooth_layer, epsilon, r1, name
    ):
        # epsilon >= 1 used to exit ok with a deviation bound of epsilon, and a
        # NaN epsilon or a NaN or infinite r1 failed late, in [build_fw]
        with pytest.raises(ValueError, match=name):
            decompose(smooth_layer, epsilon=epsilon, r1=r1)

    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, math.inf])
    def test_refuses_a_bad_composite_tol_up_front(self, smooth_layer, tol):
        # a negative tolerance used to fail late, inside the inverter choice,
        # as "[estimate] math domain error"
        with pytest.raises(ValueError, match=r"^composite_tol must be positive and finite"):
            decompose(smooth_layer, epsilon=0.25, r1=1.0, composite_tol=tol)

    def test_result_rejects_oversized_blocks(self):
        class FakeBlock:
            lip_sampled = 0.5
            label = "fake"

        with pytest.raises(StageError, match=r"^\[blocks\] block fake has Lip 0\.5, not below"):
            DecompositionResult(
                a0=Identity(), blocks=(FakeBlock(),), r1=1.0, epsilon=0.25
            )

    def test_block_count_is_derived(self):
        class SmallBlock:
            lip_sampled = 0.1

        blocks = (SmallBlock(), SmallBlock())
        result = DecompositionResult(a0=Identity(), blocks=blocks, r1=1.0, epsilon=0.25)
        assert result.j == 2
        with pytest.raises(TypeError):
            DecompositionResult(a0=Identity(), blocks=(), j=2, r1=1.0, epsilon=0.25)


def count_calls(monkeypatch, name: str) -> list:
    """Record the calls ``decompose`` makes to ``opdisc.decompose.<name>``."""
    module = importlib.import_module("opdisc.decompose")
    real, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestOnePass:
    """``decompose`` runs every stage once and peels a tail only off a
    proper subspace W."""

    def test_no_tail_is_peeled_on_the_whole_space(self, monkeypatch):
        calls = count_calls(monkeypatch, "peel_tail")
        result = decompose(mixing_bilipschitz_layer(16), 0.25, 1.0)
        assert result.diagnostics["w"]["w_dim"] == 16
        assert calls == []
        assert not any(isinstance(b, TailBlock) for b in result.blocks)

    def test_a_small_ball_samples_its_tail_out_to_radius_1(self, monkeypatch):
        layer = make_layer(
            Space(BasisSpec(ambient_dim=64)), seed=71, lip_g=0.5, rank=64, decay=2.0
        )
        module = importlib.import_module("opdisc.decompose")
        peel_tail, radii = module.peel_tail, []

        def recorded(*args, **kwargs):
            radii.append(kwargs["sample_radius"])
            return peel_tail(*args, **kwargs)

        monkeypatch.setattr(module, "peel_tail", recorded)
        decompose(layer, 0.25, 0.25)
        assert radii == [1.0]

    def test_a_compressing_frame_peels_its_tail_once(self, monkeypatch):
        layer = make_layer(
            Space(BasisSpec(ambient_dim=64)), seed=71, lip_g=0.5, rank=64, decay=2.0
        )
        calls = count_calls(monkeypatch, "peel_tail")
        result = decompose(layer, 0.25, 1.0)
        assert result.diagnostics["w"]["w_dim"] < 64
        assert len(calls) == 1
        assert isinstance(result.blocks[-1], TailBlock)

    def test_many_blocks_take_one_path_pass_at_a_fixed_tolerance(self, monkeypatch):
        calls = count_calls(monkeypatch, "path_blocks")
        result = decompose(mixing_bilipschitz_layer(16), 0.05, 1.0, composite_tol=1e-6)
        assert result.j == 24
        assert len(calls) == 1
        assert result.diagnostics["block_tol"] == 1e-6 / 64

    def test_the_core_is_differentiated_once(self, monkeypatch):
        # the linear stage and the scaling path read one Df|₀; the
        # fixed-point inverter takes no Jacobian of its own
        calls = count_calls(monkeypatch, "central_differences")
        result = decompose(mixing_bilipschitz_layer(16), 0.25, 1.0)
        assert result.diagnostics["inverter"] == "fixed_point"
        assert len(calls) == 1
        assert not np.any(calls[0][1])


@pytest.fixture(scope="module")
def factored(flip_layer):
    """(layer, result, verify points) for criterion 4's mixing layer
    (Banach), the κ = 2 flip layer (Newton) and a finite-rank layer whose
    factorization appends a tail block."""
    tail_layer = make_layer(
        Space(BasisSpec(ambient_dim=64)), seed=71, lip_g=0.5, rank=64, decay=2.0
    )
    cases = {
        "mixing": (mixing_bilipschitz_layer(16), 0),
        "flip": (flip_layer, 4),
        "tail": (tail_layer, 0),
    }
    out = {}
    for name, (layer, seed) in cases.items():
        result = decompose(layer, 0.25, 1.0, seed=seed)
        # decompose's own verify points
        xs = ball_samples(layer.dim, 1.0, 200, seed=seed + 7)
        out[name] = (layer, result, xs)
    return out


@pytest.mark.parametrize("name", ["mixing", "flip", "tail"])
def test_blocks_are_read_only(factored, name):
    for b in factored[name][1].blocks:
        for attr in ("lip_sampled", "label"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(b, attr, None)


def cold_composite(result, xs):
    """The composite with every block evaluated on its own, started cold."""
    x = eval_map(result.a0, xs)
    for b in result.blocks:
        x = b.eval_array(x)
    return x


def path_block_count(result) -> int:
    return sum(b.label.startswith("path") for b in result.blocks)


class TestWarmComposite:
    """The composite starts each path block (and the tail) at the previous
    path block's preimage; every block still solves to its own tol."""

    def test_layers_cover_both_inverters_and_the_tail(self, factored):
        assert factored["mixing"][1].diagnostics["inverter"] == "fixed_point"
        assert factored["flip"][1].diagnostics["inverter"] == "newton"
        tail_result = factored["tail"][1]
        assert isinstance(tail_result.blocks[-1], TailBlock)
        assert path_block_count(tail_result) >= 1

    @pytest.mark.parametrize("name", ["mixing", "flip", "tail"])
    def test_warm_composite_matches_the_cold_loop(self, factored, name):
        layer, result, xs = factored[name]
        warm = result.eval_array(xs)
        assert np.max(np.linalg.norm(warm - cold_composite(result, xs), axis=1)) <= 1e-6
        assert np.max(np.linalg.norm(warm - layer.eval_array(xs), axis=1)) <= 1e-6
        single = result.eval_array(xs[3])
        assert single.shape == (layer.dim,)
        assert np.linalg.norm(single - warm[3]) <= 1e-6

    @pytest.mark.parametrize("name", ["mixing", "tail"])
    def test_each_start_is_accepted_at_its_first_evaluation(self, factored, name, monkeypatch):
        layer, result, xs = factored[name]
        module = importlib.import_module("opdisc.decompose")
        solve = module.banach_solve
        evaluations = []

        def recorded(*args, **kwargs):
            sol = solve(*args, **kwargs)
            evaluations.append(len(sol.residuals))
            return sol

        monkeypatch.setattr(module, "banach_solve", recorded)
        result.eval_array(xs)
        # the first path block starts at t = 0, a linear solve
        has_tail = isinstance(result.blocks[-1], TailBlock)
        assert evaluations == [1] * (path_block_count(result) - 1 + has_tail)
        evaluations.clear()
        cold_composite(result, xs)
        assert min(evaluations) > 1

    def test_a_missing_middle_block_misses_the_layer(self, factored):
        layer, result, xs = factored["mixing"]
        paths = [i for i, b in enumerate(result.blocks) if b.label.startswith("path")]
        assert len(paths) >= 3
        gutted = DecompositionResult(
            a0=result.a0,
            blocks=tuple(b for i, b in enumerate(result.blocks) if i != paths[1]),
            r1=result.r1,
            epsilon=result.epsilon,
        )
        gap = np.max(np.linalg.norm(gutted.eval_array(xs) - layer.eval_array(xs), axis=1))
        assert gap > 100 * 1e-6

    def test_single_block_checks_start_cold(self, monkeypatch):
        layer = mixing_bilipschitz_layer(16)
        frame, _ = choose_w(layer, 0.01)
        core = CoreCompressedLayer(layer, frame)
        kappa = layer.contraction
        module = importlib.import_module("opdisc.decompose")
        invert = module._invert
        starts = []

        def recorded(f, ys, kappa, tol, **kwargs):
            starts.append(kwargs.get("start"))
            return invert(f, ys, kappa, tol, **kwargs)

        monkeypatch.setattr(module, "_invert", recorded)
        peel_tail(layer, core, 0.25, 1e-9, kappa, 4, 2.0)
        assert starts and all(s is None for s in starts)
        starts.clear()
        blocks, _ = path_blocks(ScalingPath(core, frame.dim, kappa), 0.25, 1.0, 0.7, 1.3, 1e-9,
                                seed=6)
        assert blocks
        assert starts and all(s is None for s in starts)


class TestInverterChoice:
    """κ alone picks the inverter: Banach at rate κ when κ < 1, and Newton
    only at κ ≥ 1, where Banach has no rate."""

    @pytest.mark.parametrize(
        "kappa, seed, blocks", [(0.7, 3, 8), (0.7, 11, 9), (0.95, 3, 23)]
    )
    def test_mixing_layers(self, kappa, seed, blocks):
        result = decompose(mixing_bilipschitz_layer(16, kappa=kappa, seed=seed), 0.4, 1.0)
        assert result.diagnostics["contraction_product"] < 1.0
        assert result.diagnostics["inverter"] == "fixed_point"
        # Banach and Newton give these layers the same blocks
        assert result.j == blocks

    def test_no_banach_rate_at_kappa_one_or_more(self, flip_layer):
        result = decompose(flip_layer, epsilon=0.4, r1=1.0)
        assert result.diagnostics["contraction_product"] >= 1.0
        assert result.diagnostics["inverter"] == "newton"

    @pytest.mark.parametrize("kappa, solver", [
        (0.0, "banach_solve"), (0.999, "banach_solve"), (1.0, "_newton_invert"),
        (1.5, "_newton_invert"),
    ])
    def test_invert_runs_newton_from_kappa_one(self, kappa, solver, monkeypatch):
        solvers = ("banach_solve", "_newton_invert")
        calls = {name: count_calls(monkeypatch, name) for name in solvers}
        # B = diag(0, min(κ, 0.5)) is bounded by every κ here
        d = np.array([1.0, 1.0 + min(kappa, 0.5)])
        ys = np.array([[0.7, -1.1], [0.2, 0.4]])
        xs = _invert(lambda v: d * v, ys, kappa, 1e-10)
        assert {name: len(c) for name, c in calls.items()} == {
            name: int(name == solver) for name in calls}
        assert np.max(np.linalg.norm(d * xs - ys, axis=1)) <= 1e-10

    @pytest.mark.parametrize("kappa", [0.5, 1.0])
    @pytest.mark.parametrize("shape", [(2,), (3, 2, 2)])
    def test_both_arms_take_one_target_or_a_stack(self, kappa, shape):
        d = np.array([1.0, 1.5])
        ys = np.random.default_rng(5).standard_normal(shape)
        xs = _invert(lambda v: d * v, ys, kappa, 1e-10)
        assert xs.shape == ys.shape
        assert np.max(np.linalg.norm(d * xs - ys, axis=-1)) <= 1e-10


def poison(monkeypatch, owner, name: str, caller: str) -> None:
    """Make ``owner.<name>`` answer NaN in every entry of its result when
    the function named ``caller`` calls it, and truly otherwise."""
    real = getattr(owner, name)

    def nan_like(out):
        if isinstance(out, tuple):
            return tuple(nan_like(o) for o in out)
        return np.full_like(out, np.nan) if isinstance(out, np.ndarray) else math.nan

    def poisoned(*args, **kwargs):
        out = real(*args, **kwargs)
        return nan_like(out) if sys._getframe(1).f_code.co_name == caller else out

    monkeypatch.setattr(owner, name, poisoned)


class TestFailClosed:
    """A NaN in a checked quantity fails the stage that checks it."""

    module = importlib.import_module("opdisc.decompose")

    def test_a_nan_tail_roundtrip_fails_peel_tail(self, smooth_layer, monkeypatch):
        frame, _ = choose_w(smooth_layer, 1e-6)
        core = CoreCompressedLayer(smooth_layer, frame)
        poison(monkeypatch, self.module, "eval_map", "peel_tail")
        with pytest.raises(StageError, match=r"^\[peel_tail\] factor roundtrip error nan"):
            peel_tail(smooth_layer, core, 0.25, 1e-9, 0.2, 9, 2.0)

    def test_a_nan_tail_lipschitz_fails_peel_tail(self, smooth_layer, monkeypatch):
        frame, _ = choose_w(smooth_layer, 1e-6)
        core = CoreCompressedLayer(smooth_layer, frame)
        poison(monkeypatch, self.module, "_measure", "peel_tail")
        with pytest.raises(StageError, match=r"^\[peel_tail\] sampled Lip .* is nan"):
            peel_tail(smooth_layer, core, 0.25, 1e-9, 0.2, 9, 2.0)

    def test_a_nan_core_deviation_fails_build_fw(self, smooth_layer, monkeypatch):
        poison(monkeypatch, LiftedBlock, "eval_array", "decompose")
        with pytest.raises(StageError, match=r"^\[build_fw\] core deviation nan"):
            decompose(smooth_layer, 0.25, 1.0, seed=3)

    def test_a_nan_product_error_fails_linear_path(self, smooth_layer, monkeypatch):
        poison(monkeypatch, self.module, "spectral_norm", "linear_path_blocks")
        with pytest.raises(
            StageError, match=r"^\[linear_path\] linear factor product misses .* by nan"
        ):
            decompose(smooth_layer, 0.25, 1.0, seed=3)
