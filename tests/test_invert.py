"""Banach inversion of residual blocks and chains, and the damped Newton kernel."""

import collections
import importlib
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opdisc.invert import (
    ChainInverseResult,
    DomainError,
    InversionError,
    InversionTrace,
    _apriori_iterations,
    banach_solve,
    invert_chain,
    newton_solve,
)
from opdisc.layers import CoordinateNetwork, ResidualChain
from opdisc.monotone import (
    ball_samples,
    bilipschitz_estimate,
    contraction_certificate,
    pairwise_alpha,
)
from opdisc.operators import FiniteRankOperator, Identity, Reflection, activation_from_name
from opdisc.serialize import canonical_json
from opdisc.spectral import StageError


def zero_net(n: int) -> CoordinateNetwork:
    return CoordinateNetwork(
        (np.zeros((n, n)),), (np.zeros(n),), activation_from_name("identity")
    )


def first_coordinate_net(n: int, gain: float = 0.5) -> CoordinateNetwork:
    w = np.zeros((n, n))
    w[0, 0] = gain
    return CoordinateNetwork((w,), (np.zeros(n),), activation_from_name("identity"))


def seeded_chain(
    dim=16, prefix=None, blocks=3, bound=0.5, seed=3, activation=None
) -> ResidualChain:
    return ResidualChain.seeded(
        dim,
        dim if prefix is None else prefix,
        blocks,
        block_bound=bound,
        activation=activation,
        bias_scale=0.1,
        seed=seed,
    )


def roundtrips(chain, xs, tol=1e-10) -> tuple:
    """The worst inverse-after-forward and forward-after-inverse errors of
    a chain on the points xs, each inverted as one batch."""
    back = invert_chain(chain, None, chain.eval_array(xs), tol=tol).x
    forth = chain.eval_array(invert_chain(chain, None, xs, tol=tol).x)
    return (float(np.max(np.linalg.norm(back - xs, axis=-1))),
            float(np.max(np.linalg.norm(forth - xs, axis=-1))))


class CountedMap:
    """Wraps a map and counts how often it is evaluated."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


class TestBanachKernel:
    def test_single_target_reports_one_row(self):
        d = np.array([1.0, 1.5])
        sol = banach_solve(lambda v: d * v, np.array([0.7, -1.1]), 0.5, 1e-10)
        assert sol.x.shape == (2,)
        assert sol.counts.shape == sol.budgets.shape == (1,)
        hist = sol.history(0)
        assert len(hist) == sol.counts[0] <= sol.budgets[0]
        assert hist[0] == pytest.approx(0.55)
        assert hist[-1] <= 1e-10 < hist[-2]
        assert np.linalg.norm(d * sol.x - [0.7, -1.1]) == hist[-1]

    def test_overclaimed_rate_exhausts_derived_budget(self):
        # B = -0.9 Id is claimed to be a 0.5-contraction, so the residual
        # decays by 0.9 per step, not by q = 0.5
        f = CountedMap(lambda v: 0.1 * v)
        y = np.ones(3)
        tol = 1e-10
        budget = _apriori_iterations(np.linalg.norm(0.1 * y - y), 0.5, tol)
        with pytest.raises(InversionError) as err:
            banach_solve(f, y, 0.5, tol)
        message = str(err.value)
        assert message.startswith("[invert]")
        assert f"budget of {budget} evaluations" in message
        assert f.calls == budget

    def test_spent_budget_names_the_row(self):
        ys = np.zeros((3, 3))
        ys[2] = 1.0
        with pytest.raises(InversionError, match=r"^\[invert\] .*\(row 2, last residual"):
            banach_solve(lambda v: 0.1 * v, ys, 0.5, 1e-10)

    @pytest.mark.parametrize("bad_call", [1, 3])
    def test_nan_map_stops_after_first_nonfinite_residual(self, bad_call):
        def f(v):
            return np.full_like(v, np.nan) if counted.calls == bad_call else 1.5 * v

        counted = CountedMap(f)
        # row 0 converges at once, so only row 1 keeps the batch iterating
        ys = np.array([[0.0, 0.0], [1.0, -2.0]])
        with pytest.raises(InversionError, match=rf"^\[invert\] .* evaluation {bad_call} .*nan"):
            banach_solve(counted, ys, 0.5, 1e-10)
        assert counted.calls == bad_call

    def test_start_at_the_solution_returns_after_one_evaluation(self):
        d = np.array([1.0, 1.5])
        f = CountedMap(lambda v: d * v)
        y = np.array([0.7, -1.5])
        x_star = y / d
        sol = banach_solve(f, y, 0.5, 1e-10, start=x_star)
        assert f.calls == 1
        assert sol.counts.tolist() == sol.budgets.tolist() == [1]
        assert np.array_equal(sol.x, x_star)
        # the budget comes from the residual at the start: y's is 0.75
        cold = banach_solve(f, y, 0.5, 1e-10, start=y)
        assert cold.budgets[0] == _apriori_iterations(0.75, 0.5, 1e-10) > 1

    def test_start_of_another_shape_is_refused(self):
        f = CountedMap(lambda v: 1.5 * v)
        with pytest.raises(ValueError, match=r"start has shape \(1, 2\), but y has shape \(2,\)"):
            banach_solve(f, np.ones(2), 0.5, 1e-10, start=np.ones((1, 2)))
        assert f.calls == 0

    def test_non_finite_start_is_a_non_finite_residual(self):
        f = CountedMap(lambda v: 1.5 * v)
        start = np.array([[0.0, 0.0], [np.nan, 1.0]])
        with pytest.raises(InversionError, match=r"^\[invert\] .* not finite at evaluation 1 "):
            banach_solve(f, np.ones((2, 2)), 0.5, 1e-10, start=start)
        assert f.calls == 1

    def test_radius_refuses_iterates_outside_the_ball(self):
        f = CountedMap(lambda v: v + 2.0)
        with pytest.raises(DomainError, match=r"^\[invert\] iterate 2 lies outside"):
            banach_solve(f, np.array([0.1]), 0.0, 1e-10, radius=1.0)
        # the second iterate is refused before the map is evaluated there
        assert f.calls == 1
        sol = banach_solve(f, np.array([0.1]), 0.0, 1e-10, radius=2.0)
        assert sol.x[0] == pytest.approx(-1.9)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        q=st.floats(min_value=0.0, max_value=0.9),
        m=st.integers(min_value=1, max_value=5),
        rows=st.integers(min_value=1, max_value=6),
        tol=st.sampled_from([1e-6, 1e-9, 1e-12]),
    )
    def test_batched_rows_match_row_by_row_solves(self, seed, q, m, rows, tol):
        # a row-wise map (a coordinate permutation inside tanh, scaled by q)
        # evaluates a row the same way alone or in a batch
        rng = np.random.default_rng(seed)
        perm = rng.permutation(m)
        b = rng.standard_normal(m)
        f = lambda v: v + q * np.tanh(v[..., perm] + b)
        ys = 3.0 * rng.standard_normal((rows, m))
        batch = banach_solve(f, ys, q, tol)
        assert np.all(batch.counts <= batch.budgets)
        assert np.max(np.linalg.norm(f(batch.x) - ys, axis=1)) <= tol
        for i, y in enumerate(ys):
            single = banach_solve(f, y, q, tol)
            assert single.counts[0] == batch.counts[i]
            assert single.budgets[0] == batch.budgets[i]
            assert single.history(0) == batch.history(i)
            # a converged row holds its iterate while the batch steps on
            assert np.array_equal(single.x, batch.x[i])

    @pytest.mark.parametrize("q", [0.25, 0.5, 0.9])
    def test_exact_rate_stops_its_known_distance_short_of_the_budget(self, q):
        # B = q·Id shrinks every residual by exactly q, and the budget aims
        # at tol·(1 − q), which the iteration reaches log(1 − q)/log q
        # steps after tol; the ceilings of both counts add one either way
        xs = ball_samples(16, 1.0, 100, seed=53)
        sol = banach_solve(lambda v: v + q * v, xs, q, 1e-10)
        short = math.ceil(math.log(1.0 - q) / math.log(q))
        slack = sol.budgets - sol.counts
        assert short - 1 <= slack.min() and slack.max() <= short + 1


def arctan_newton(ys, start, calls):
    """``newton_solve`` on f(x) = arctan(x) + 0.01·x coordinatewise, merit
    ||f(x) − y||, recording the rows of every ``evaluate`` call."""

    def evaluate(x, rows):
        calls.append(len(rows))
        res = np.arctan(x) + 0.01 * x - ys[rows]
        rnorm = np.linalg.norm(res, axis=-1)
        return res, rnorm, rnorm

    def direction(x, res):
        return res * (1.0 + x * x) / (1.01 + 0.01 * x * x)

    return newton_solve(evaluate, direction, start, 1e-12, "invert")


def scripted_newton(trial_residual, trial_merit, calls):
    """``newton_solve`` on one row that starts at residual norm and merit 1
    and sees ``trial_residual`` and ``trial_merit`` at every trial."""

    def evaluate(x, rows):
        calls.append(len(rows))
        start = x[:, 0] == 0.0
        rnorm = np.where(start, 1.0, trial_residual)
        return x - 1.0, rnorm, np.where(start, 1.0, trial_merit)

    return newton_solve(evaluate, lambda x, res: res, np.zeros((1, 1)), 1e-3, "newton")


class TestNewtonKernel:
    @pytest.mark.parametrize("far", [False, True])
    def test_a_batch_equals_its_rows_solved_alone(self, far):
        ys = np.random.default_rng(0).uniform(-1.5, 1.5, (16, 2))
        # from 3·sign(y) − y the first full steps overshoot, so rows backtrack
        starts = 3.0 * np.sign(ys) - ys if far else np.zeros_like(ys)
        calls = []
        batch = arctan_newton(ys, starts, calls)
        steps = np.count_nonzero(batch.scales, axis=0)
        assert len(set(steps)) > 1
        assert (batch.scales[batch.scales > 0.0].min() < 1.0) == far
        # trials per round of each row solved alone: λ = 2^(1 - trials)
        trials = collections.defaultdict(int)
        alone = []
        for i in range(len(ys)):
            single_calls = []
            single = arctan_newton(ys[i : i + 1], starts[i : i + 1], single_calls)
            alone.append(len(single_calls))
            assert np.max(np.abs(single.x[0] - batch.x[i])) <= 1e-12
            # a row holds once it is below tol, so its history is a prefix
            assert len(single.residuals) == steps[i] + 1
            history = batch.residuals[: steps[i] + 1, i]
            np.testing.assert_array_equal(single.residuals[:, 0], history)
            for k, lam in enumerate(single.scales[1:, 0]):
                trials[k] = max(trials[k], 1 + round(-math.log2(lam)))
        # the rows of a round search together: one call per trial of the
        # round's slowest search, so without backtracking the batch makes
        # no more calls than its slowest row alone
        assert len(calls) == 1 + sum(trials.values())
        if not far:
            assert len(calls) == max(alone)
        assert len(calls) < sum(alone)

    def test_a_merit_tie_that_lowers_the_residual_is_accepted(self):
        calls = []
        sol = scripted_newton(1e-4, 1.0, calls)
        assert sol.x.tolist() == [[1.0]] and sol.residuals.tolist() == [[1.0], [1e-4]]
        assert sol.scales.tolist() == [[0.0], [1.0]] and len(calls) == 2

    @pytest.mark.parametrize("trial_residual", [1.0, 2.0])
    def test_a_merit_tie_that_does_not_lower_the_residual_is_refused(self, trial_residual):
        calls = []
        stagnated = r"^\[newton\] Newton line search stagnated at residual 1$"
        with pytest.raises(StageError, match=stagnated):
            scripted_newton(trial_residual, 1.0, calls)
        # one evaluation at the start, then λ = 1, ½, … down to 2^-33 ≥ 1e-10
        assert len(calls) == 1 + 34

    def test_a_lower_merit_is_accepted_even_at_a_higher_residual(self, monkeypatch):
        # the accepted step ends the one permitted step above tol
        monkeypatch.setattr(importlib.import_module("opdisc.invert"), "NEWTON_STEPS", 1)
        stopped = r"did not reach tol=0.001 in 1 steps \(last residual 2\)"
        with pytest.raises(StageError, match=stopped):
            scripted_newton(2.0, 0.5, [])


def one_block(net, *, ambient=None, ball_radius=None):
    """The one-block chain x + embed(net(prefix(x))) on ``ambient`` coordinates;
    with ``ball_radius``, certified on that ball at delta = 0.5."""
    delta = None if ball_radius is None else 0.5
    return ResidualChain(ambient or net.n_in, net.n_in, (net,), delta, ball_radius)


class TestBlockFixedPoint:
    """One-block chains: the fixed-point inversion of a single residual block."""

    def test_zero_network_returns_y_immediately(self):
        y = np.linspace(-1.0, 1.0, 6)
        out = invert_chain(one_block(zero_net(6)), None, y)
        assert np.array_equal(out.x, y)
        assert out.trace.iteration_counts == (1,)
        assert out.trace.final_residuals == (0.0,)

    def test_first_coordinate_closed_form(self):
        y = np.array([3.0, -1.0, 2.0, 0.5])
        x = invert_chain(one_block(first_coordinate_net(4)), None, y, tol=1e-12).x
        assert abs(x[0] - y[0] / 1.5) <= 1e-12
        np.testing.assert_allclose(x[1:], y[1:], rtol=0, atol=0)

    def test_unit_y_at_half_delta_needs_at_most_forty_iterations(self):
        net = CoordinateNetwork.seeded(8, 8, target_bound=0.5, seed=21)
        y = np.zeros(8)
        y[2] = 1.0
        assert np.linalg.norm(y) == 1.0
        out = invert_chain(one_block(net), None, y, tol=1e-10)
        assert out.trace.iteration_counts[0] <= 40
        assert np.linalg.norm(out.x + net.eval_array(out.x) - y) <= 1e-10

    def test_iterations_stay_below_apriori_bound(self):
        net = CoordinateNetwork.seeded(8, 8, target_bound=0.7, bias_scale=0.2, seed=5)
        y = ball_samples(8, 2.0, 1, seed=9)[0]
        trace = invert_chain(one_block(net), None, y, tol=1e-11).trace
        assert trace.iteration_counts[0] <= trace.apriori_bounds[0]

    def test_residuals_strictly_decreasing_and_ratio_near_delta(self):
        net = CoordinateNetwork.seeded(6, 6, target_bound=0.6, seed=2)
        y = ball_samples(6, 1.5, 1, seed=4)[0]
        trace = invert_chain(one_block(net), None, y, tol=1e-10).trace
        hist = trace.residual_histories[0]
        assert len(hist) > 5
        for a, b in zip(hist[1:], hist[2:]):
            assert b < a
        assert np.median(trace.contraction_ratios[0]) <= 0.6 + 0.05

    def test_tail_coordinates_pass_through_exactly(self):
        net = CoordinateNetwork.seeded(3, 3, target_bound=0.4, seed=7)
        y = np.arange(1.0, 9.0)
        x = invert_chain(one_block(net, ambient=8), None, y).x
        assert np.array_equal(x[3:], y[3:])

    def test_refuses_uncertified_block(self):
        net = CoordinateNetwork.seeded(4, 4, target_bound=1.5, seed=0)
        with pytest.raises(ValueError, match=r"no contraction certificate \(bound 1.5\)"):
            invert_chain(one_block(net), None, np.zeros(4))

    def test_refuses_unbounded_activation_without_ball_certificate(self):
        net = CoordinateNetwork.seeded(
            4, 4, target_bound=0.3, activation=activation_from_name("recu"), seed=0
        )
        with pytest.raises(ValueError, match=r"no contraction certificate \(bound inf\)"):
            invert_chain(one_block(net), None, np.zeros(4))
        with pytest.raises(ValueError, match="no global Lipschitz certificate"):
            replace(one_block(net), delta=0.5)

    def test_ball_certificate_admits_cubed_rectifier_blocks(self):
        w = 0.05 * np.eye(3)
        net = CoordinateNetwork(
            (w, w), (np.zeros(3), np.zeros(3)), activation_from_name("recu")
        )
        y = np.array([0.5, -0.25, 0.1])
        out = invert_chain(one_block(net, ball_radius=2.0), None, y)
        assert out.trace.deltas[0] < 1e-3
        assert np.linalg.norm(out.x + net.eval_array(out.x) - y) <= 1e-10

    def test_ball_local_block_refuses_iterates_outside_its_ball(self):
        # a cubed-rectifier block is certified on the unit ball only; its
        # output bias throws the second iterate out of the ball
        w = 0.05 * np.eye(3)
        net = CoordinateNetwork(
            (w, w), (np.zeros(3), np.array([2.0, 0.0, 0.0])), activation_from_name("recu")
        )
        chain = one_block(net, ball_radius=1.0)
        with pytest.raises(DomainError, match=r"^\[invert\] iterate 2 lies outside"):
            invert_chain(chain, None, np.array([0.1, 0.0, 0.0]))
        # a target outside the ball is refused before the block sees it
        with pytest.raises(DomainError, match=r"iterate 1 .* > 1$"):
            invert_chain(chain, None, np.array([0.0, 1.5, 0.0]))
        # only the prefix is the block's input: a large tail is no violation
        unbiased = CoordinateNetwork(
            (w, w), (np.zeros(3), np.zeros(3)), activation_from_name("recu")
        )
        x = invert_chain(
            one_block(unbiased, ambient=4, ball_radius=1.0),
            None,
            np.array([0.5, -0.25, 0.1, 40.0]),
        ).x
        assert x[3] == 40.0
        # a globally certified block ignores the ball
        tanh_net = CoordinateNetwork.seeded(3, 3, target_bound=0.5, seed=1)
        x = invert_chain(one_block(tanh_net, ball_radius=1.0), None, np.array([5.0, 0.0, 0.0])).x
        assert np.linalg.norm(x + tanh_net.eval_array(x) - [5.0, 0.0, 0.0]) <= 1e-10

    def test_domain_error_names_the_row_outside_the_ball(self):
        w = 0.05 * np.eye(3)
        net = CoordinateNetwork(
            (w, w), (np.zeros(3), np.zeros(3)), activation_from_name("recu")
        )
        ys = np.zeros((2, 3, 3))
        ys[1, 0] = [0.0, 1.5, 0.0]
        ys[1, 2] = [0.0, 0.0, 1.2]
        with pytest.raises(DomainError, match=r"iterate 1 .*: row 3 has \|x\| = 1.5 > 1$"):
            invert_chain(one_block(net, ball_radius=1.0), None, ys)

    def test_argument_validation(self):
        chain = one_block(zero_net(3))
        with pytest.raises(ValueError, match="tolerance"):
            invert_chain(chain, None, np.zeros(3), tol=0.0)
        with pytest.raises(ValueError, match=r"3 coordinates on its last axis, got shape \(2,\)"):
            invert_chain(chain, None, np.zeros(2))
        with pytest.raises(ValueError, match=r"got shape \(4, 2\)"):
            invert_chain(chain, None, np.zeros((4, 2)))
        rect = CoordinateNetwork(
            (np.zeros((2, 3)),), (np.zeros(2),), activation_from_name("identity")
        )
        with pytest.raises(ValueError, match="square"):
            ResidualChain(3, 3, (rect,))

    @settings(max_examples=25, deadline=None)
    @given(
        delta=st.floats(min_value=0.05, max_value=0.85),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_convergence_and_restart_consistency(self, delta, seed):
        net = CoordinateNetwork.seeded(
            4, 4, target_bound=delta, bias_scale=0.2, seed=seed
        )
        chain = one_block(net)
        y = ball_samples(4, 1.0, 1, seed=seed + 1)[0]
        tol = 1e-10
        out = invert_chain(chain, None, y, tol=tol)
        x = out.x
        assert np.linalg.norm(x + net.eval_array(x) - y) <= tol
        assert out.trace.iteration_counts[0] <= out.trace.apriori_bounds[0]
        # restarting from the image of the answer returns the answer
        x_again = invert_chain(chain, None, x + net.eval_array(x), tol=tol).x
        assert np.linalg.norm(x_again - x) <= 2 * tol / (1.0 - delta)


class TestInversionTrace:
    def test_field_lengths_must_agree(self):
        with pytest.raises(ValueError, match="one entry per block"):
            InversionTrace((3,), (1e-11, 1e-12), ((0.1, 0.01, 1e-3),), (5,), (0.5,), 1e-10)

    def test_history_length_must_match_count(self):
        with pytest.raises(ValueError, match="disagrees with its count"):
            InversionTrace((2,), (1e-11,), ((0.1, 0.01, 1e-3),), (5,), (0.5,), 1e-10)

    def test_rising_residual_rejected(self):
        with pytest.raises(ValueError, match="residual rose"):
            InversionTrace(
                (4,), (1e-11,), ((0.1, 0.01, 0.02, 1e-3),), (9,), (0.5,), 1e-10
            )

    def test_median_ratio_above_delta_rejected(self):
        hist = (0.1, 0.09, 0.08, 0.07)
        with pytest.raises(ValueError, match="median contraction ratio"):
            InversionTrace((4,), (1e-11,), (hist,), (9,), (0.5,), 1e-10)

    def test_count_beyond_apriori_bound_rejected(self):
        hist = (0.1, 0.01, 1e-3)
        with pytest.raises(ValueError, match="a priori bound"):
            InversionTrace((3,), (1e-4,), (hist,), (2,), (0.5,), 1e-10)

    def test_contraction_ratios_are_not_a_constructor_argument(self):
        args = ((2,), (1e-12,), ((0.1, 0.04),), (40,), (0.5,), 1e-10)
        with pytest.raises(TypeError):
            InversionTrace(*args, ((0.9,),))
        with pytest.raises(TypeError):
            InversionTrace(*args, contraction_ratios=((0.9,),))
        assert InversionTrace(*args).contraction_ratios == ((0.04 / 0.1,),)

    def test_as_dict_is_json_ready(self):
        trace = InversionTrace((2,), (1e-12,), ((0.1, 0.04),), (40,), (0.5,), 1e-10)
        blob = json.loads(canonical_json(trace))
        assert blob["iteration_counts"] == [2]
        assert blob["contraction_ratios"] == [[0.04 / 0.1]]
        assert blob["deltas"] == [0.5]


class TestChainInverse:
    def test_reflection_head_is_its_own_inverse(self):
        # the head is inverted last, by applying itself to the chain's preimage
        chain, refl = seeded_chain(dim=5, blocks=1, bound=0.5, seed=7), Reflection.first_axis(5)
        y = np.arange(1.0, 6.0)
        x = invert_chain(chain, refl, y).x
        np.testing.assert_array_equal(x, refl.eval_array(invert_chain(chain, Identity(), y).x))

    @pytest.mark.parametrize("head", [Identity(), Reflection.first_axis(16)])
    def test_three_block_half_delta_roundtrip(self, head):
        chain = seeded_chain(dim=16, blocks=3, bound=0.5, seed=17)
        xs = ball_samples(16, 1.0, 100, seed=23)
        ys = chain.eval_array(head.eval_array(xs))
        worst = 0.0
        for x_true, y in zip(xs, ys):
            x_rec = invert_chain(chain, head, y).x
            worst = max(worst, float(np.linalg.norm(x_rec - x_true)))
        assert worst <= 1e-8

    def test_roundtrip_stays_below_reported_target(self):
        chain = seeded_chain(dim=8, blocks=4, bound=0.6, seed=29)
        y = chain.eval_array(ball_samples(8, 1.0, 1, seed=31)[0])
        out = invert_chain(chain, None, y, tol=1e-9)
        fwd = chain.eval_array(out.x)
        assert np.linalg.norm(fwd - y) <= out.roundtrip_target

    def test_roundtrip_satisfies_bilipschitz_bound(self):
        chain = seeded_chain(dim=8, blocks=3, bound=0.5, seed=41)
        tol = 1e-10
        est = bilipschitz_estimate(chain.eval_array, r=1.5, n=128, seed=43, dim=8)
        xs = ball_samples(8, 1.0, 50, seed=47)
        chain_tol = 3 * tol
        cap = chain_tol / (1.0 - est.c_lower) if est.c_lower < 1.0 else np.inf
        for x_true in xs:
            y = chain.eval_array(x_true)
            x_rec = invert_chain(chain, None, y, tol=tol).x
            assert np.linalg.norm(x_rec - x_true) <= cap

    def test_trace_follows_forward_block_order(self):
        dim = 4
        nets = (
            CoordinateNetwork.seeded(dim, dim, target_bound=0.2, seed=1),
            CoordinateNetwork.seeded(dim, dim, target_bound=0.7, seed=2),
        )
        chain = ResidualChain(dim, dim, nets)
        y = chain.eval_array(ball_samples(dim, 1.0, 1, seed=3)[0])
        out = invert_chain(chain, None, y)
        np.testing.assert_allclose(out.trace.deltas, (0.2, 0.7), rtol=1e-12)
        # the low-contraction block converges in fewer iterations
        assert out.trace.iteration_counts[0] < out.trace.iteration_counts[1]

    def test_certified_wrapper_chains_are_accepted(self):
        chain = seeded_chain(dim=6, blocks=2, bound=0.4, seed=53)
        certified = replace(chain, delta=0.45)
        y = chain.eval_array(ball_samples(6, 1.0, 1, seed=59)[0])
        x_raw = invert_chain(chain, None, y).x
        x_cert = invert_chain(certified, None, y).x
        np.testing.assert_allclose(x_cert, x_raw, atol=1e-9)

    def test_uncertified_chain_refused(self):
        chain = seeded_chain(dim=4, blocks=2, bound=1.2, seed=61)
        with pytest.raises(ValueError, match="no contraction certificate"):
            invert_chain(chain, None, np.zeros(4))

    def test_non_involutive_head_refused(self):
        chain = seeded_chain(dim=2, blocks=1, bound=0.5, seed=0)
        with pytest.raises(TypeError, match="identity or a reflection; got FiniteRankOperator"):
            invert_chain(chain, FiniteRankOperator.seeded(2, 1, seed=0), np.zeros(2))
        with pytest.raises(TypeError, match="identity or a reflection; got str"):
            invert_chain(chain, "flip", np.zeros(2))
        for not_a_chain in (("not", "a", "chain"), None):
            with pytest.raises(TypeError, match="cannot invert"):
                invert_chain(not_a_chain, None, np.zeros(2))

    def test_ball_local_chain_refuses_targets_outside_its_ball(self):
        blocks = ResidualChain.seeded(
            8, 8, 3, block_bound=0.5, activation=activation_from_name("recu"),
            bias_scale=0.0, seed=5,
        )
        chain = replace(blocks, delta=0.5, ball_radius=1.0)
        assert chain.radii == (1.0,) * 3
        y = np.eye(8)[0]
        out = invert_chain(chain, None, 0.5 * y)
        assert np.linalg.norm(chain.eval_array(out.x) - 0.5 * y) <= out.roundtrip_target
        for norm in (3.0, 10.0, 30.0):
            with pytest.raises(DomainError, match=r"^\[invert\] iterate 1 lies outside"):
                invert_chain(chain, None, norm * y)
        # the same blocks with a global certificate of their own are not
        # confined: a ball-local chain of tanh blocks inverts far targets
        tanh_chain = replace(seeded_chain(dim=8, seed=5), delta=0.5, ball_radius=1.0)
        far = invert_chain(tanh_chain, None, 30.0 * y)
        assert np.linalg.norm(tanh_chain.eval_array(far.x) - 30.0 * y) <= far.roundtrip_target

    def test_ball_local_rates_are_read_not_recomputed(self, monkeypatch):
        blocks = ResidualChain.seeded(
            8, 8, 3, block_bound=0.5, activation=activation_from_name("recu"),
            bias_scale=0.0, seed=5,
        )
        chain = replace(blocks, delta=0.5, ball_radius=1.0)
        ball_bound, radii = CoordinateNetwork.ball_bound, []

        def counted(net, r):
            radii.append(r)
            return ball_bound(net, r)

        monkeypatch.setattr(CoordinateNetwork, "ball_bound", counted)
        out = invert_chain(chain, None, 0.5 * np.eye(8)[0])
        assert radii == []
        assert out.trace.deltas == chain.rates

    def test_identity_chain_roundtrips_exactly(self):
        certified = replace(ResidualChain(5, 5, (zero_net(5),)), delta=0.5)
        assert roundtrips(certified, ball_samples(5, 1.0, 16, seed=0)) == (0.0, 0.0)
        alpha = pairwise_alpha(certified, r=1.0, n=16, seed=1).alpha
        assert abs(alpha - 1.0) <= 1e-12

    def test_high_delta_groupsort_chain_roundtrips(self):
        chain = ResidualChain.seeded(
            12,
            12,
            3,
            block_bound=0.9,
            activation=activation_from_name("groupsort2"),
            bias_scale=0.1,
            seed=73,
        )
        certified = replace(chain, delta=0.9)
        xs = ball_samples(12, 1.0, 40, seed=5)
        assert max(roundtrips(certified, xs, tol=1e-9)) <= 1e-6
        floor = contraction_certificate(0.9)
        assert floor == pytest.approx(0.1)
        for i, net in enumerate(certified.blocks):
            block = ResidualChain(12, 12, (net,))
            assert pairwise_alpha(block, r=1.0, n=40, seed=6 + i).alpha >= floor - 1e-6

    def test_batch_result_has_one_trace_per_target(self):
        chain = seeded_chain(dim=4, blocks=2, bound=0.3, seed=71)
        out = invert_chain(chain, None, np.ones((2, 3, 4)))
        assert out.x.shape == (2, 3, 4)
        assert len(out.traces) == 6
        with pytest.raises(ValueError, match="one trace per target"):
            out.trace

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rows=st.integers(min_value=2, max_value=20),
        prefix=st.integers(min_value=1, max_value=6),
        bound=st.floats(min_value=0.05, max_value=0.85),
        reflect=st.booleans(),
    )
    def test_batch_agrees_with_row_by_row_inversions(self, seed, rows, prefix, bound, reflect):
        chain = seeded_chain(dim=6, prefix=prefix, blocks=3, bound=bound, seed=seed)
        head = Reflection.first_axis(6) if reflect else Identity()
        ys = chain.eval_array(ball_samples(6, 2.0, rows, seed=seed + 1))
        batch = invert_chain(chain, head, ys)
        assert batch.x.shape == ys.shape and len(batch.traces) == rows
        for y, x, trace in zip(ys, batch.x, batch.traces):
            # the trace is its own audit: rebuilding it re-runs the checks
            InversionTrace(trace.iteration_counts, trace.final_residuals,
                           trace.residual_histories, trace.apriori_bounds,
                           trace.deltas, trace.tol)
            assert all(c <= b for c, b in zip(trace.iteration_counts, trace.apriori_bounds))
            single = invert_chain(chain, head, y)
            # the last block is inverted first, from the same targets
            assert trace.iteration_counts[-1] == single.trace.iteration_counts[-1]
            assert trace.apriori_bounds[-1] == single.trace.apriori_bounds[-1]
            assert np.linalg.norm(x - single.x) <= 2 * batch.roundtrip_target

    def test_eval_calls_do_not_grow_with_targets(self, monkeypatch):
        chain = seeded_chain(dim=8, prefix=6, blocks=3, bound=0.6, seed=5)
        eval_array = CoordinateNetwork.eval_array
        calls = []

        def counted(net, x):
            calls.append(chain.blocks.index(net))
            return eval_array(net, x)

        monkeypatch.setattr(CoordinateNetwork, "eval_array", counted)

        def per_block(ys):
            calls.clear()
            invert_chain(chain, None, ys)
            return [calls.count(i) for i in range(len(chain.blocks))]

        ys = ball_samples(8, 1.5, 100, seed=7)
        slowest = np.max([per_block(y) for y in ys], axis=0)
        assert per_block(ys) == slowest.tolist()


class TestChainCertificate:
    def test_delta_at_or_above_one_refused_at_certification(self):
        chain = seeded_chain(dim=4, blocks=2, bound=0.4, seed=79)
        with pytest.raises(ValueError, match=r"must lie in \(0, 1\)"):
            replace(chain, delta=1.5)

    def test_unbounded_activation_needs_ball_certificate(self):
        chain = ResidualChain.seeded(
            4, 4, 2, block_bound=0.3, activation=activation_from_name("recu"), seed=83
        )
        with pytest.raises(ValueError, match="no global Lipschitz certificate"):
            replace(chain, delta=0.5)
