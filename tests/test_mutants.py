"""Every acceptance check must be able to fail.

Each mutant is a monkeypatch on a module the criterion reaches, named in
its row, and the criterion that guards the patched code must fail under it,
by the check named next to the mutant.  A mutant that no criterion can kill
yet is a listed survivor: it names why it survives and the ROADMAP item
that will kill it, and it must pass every criterion that reads the patched
name, so that killing it is an edit to this file.
"""

import collections
import dataclasses
import importlib

import numpy as np
import pytest

from opdisc.acceptance import CRITERIA
from opdisc.invert import _first_iterate
from opdisc.spectral import StageError

ACCEPTANCE = importlib.import_module("opdisc.acceptance")
DECOMPOSE = importlib.import_module("opdisc.decompose")
DISCRETIZE = importlib.import_module("opdisc.discretize")
INVERT_MODULE = importlib.import_module("opdisc.invert")
LAYERS = importlib.import_module("opdisc.layers")
MONOTONE = importlib.import_module("opdisc.monotone")
INVERT, TRANSPORT, PATH_BLOCKS = DECOMPOSE._invert, DECOMPOSE._transport, DECOMPOSE.path_blocks
SPECTRAL_NORM, FOLD = LAYERS.spectral_norm, LAYERS.NeuralOperatorLayer.fold
COMPOSITE = DECOMPOSE.DecompositionResult.eval_array
SUP_QUOTIENT, PAIRWISE_ALPHA, BALL_SAMPLES = (
    MONOTONE._sup_quotient, MONOTONE.pairwise_alpha, MONOTONE.ball_samples
)
APRIORI = INVERT_MODULE._apriori_iterations
CRITERION = {num: criterion for num, _, criterion in CRITERIA}


def _without_middle_block(*args, **kwargs):
    blocks, diag = PATH_BLOCKS(*args, **kwargs)
    del blocks[len(blocks) // 2]
    return blocks, diag


def _nan_in_one_row(self, x):
    y = np.array(COMPOSITE(self, x))
    y[len(y) // 2] = np.nan
    return y


def _alpha_plus_0_2(*args, **kwargs):
    estimate = PAIRWISE_ALPHA(*args, **kwargs)
    return dataclasses.replace(estimate, alpha=estimate.alpha + 0.2)


def _on_small_sphere(dim, r, n, seed=0):
    xs = BALL_SAMPLES(dim, r, n, seed)
    return xs * (1e-3 * r / np.linalg.norm(xs, axis=1))[:, None]


# name -> (criterion, patched module or class, patched name, mutant,
#          message of the failure, opening with the [name] of the check or
#          decompose stage that kills it)
MUTANTS = {
    # a block inverter 1e4 times sloppier than its tolerance: only the cold
    # composite shows it, the warm one starts every block near its preimage
    "invert-tol-1e4": (
        4,
        DECOMPOSE,
        "_invert",
        lambda f, ys, kappa, tol, **kw: INVERT(f, ys, kappa, 1e4 * tol, **kw),
        r"^\[cold_composite_gap\] ",
    ),
    "invert-returns-start": (
        4,
        DECOMPOSE,
        "_invert",
        lambda f, ys, kappa, tol, *, start=None: _first_iterate(ys, start),
        r"^\[path_blocks\] refinement exceeded the block cap",
    ),
    "cutoff-radius-r2/8": (
        4,
        DECOMPOSE,
        "_transport",
        lambda path, t_lo, t_hi, r2, *rest: TRANSPORT(path, t_lo, t_hi, r2 / 8, *rest),
        r"^\[verify\] composite reproduces the layer only to",
    ),
    "middle-path-block-dropped": (
        4,
        DECOMPOSE,
        "path_blocks",
        _without_middle_block,
        r"^\[verify\] composite reproduces the layer only to",
    ),
    # one NaN row must fail the composite check, not slip past a fold that
    # skips NaN
    "composite-nan-row": (
        4,
        DECOMPOSE.DecompositionResult,
        "eval_array",
        _nan_in_one_row,
        r"^\[verify\] composite reproduces the layer only to nan",
    ),
    # the core's fold without its leave end: criterion 4's frame is -I, so
    # the core's residual comes out with its sign flipped
    "core-fold-drops-leave": (
        4,
        LAYERS.NeuralOperatorLayer,
        "fold",
        lambda self, enter=None, leave=None: FOLD(self, enter),
        r"^\[build_fw\] core deviation ",
    ),
    # every certified stage norm 10% low: the layer's contraction bound is
    # then optimistic, and a block inverter at that rate runs out of steps
    "stage-norm-under-reported": (
        4,
        LAYERS,
        "spectral_norm",
        lambda w: 0.9 * SPECTRAL_NORM(w),
        r"^\[path_blocks\] \[invert\] fixed-point iteration did not reach tol",
    ),
    # criterion 6's known-answer check against numpy's SVD norm sees an
    # under-reported stage norm before any roundtrip
    "stage-norm-x0.9": (
        6,
        LAYERS,
        "spectral_norm",
        lambda w: 0.9 * SPECTRAL_NORM(w),
        r"^\[worst_stage_norm_ratio\] 0\.(9|89999)\d* is not >= ",
    ),
    "stage-norm-x0.7": (
        6,
        LAYERS,
        "spectral_norm",
        lambda w: 0.7 * SPECTRAL_NORM(w),
        r"^\[worst_stage_norm_ratio\] 0\.(7|69999)\d* is not >= ",
    ),
    # the structural floor 1 - 3κ instead of 1 - κ: criterion 1 checks the
    # lowest floor it reads, at seed 7 whose κ rounds highest, against the
    # 0.5 its layers are certified at
    "certificate-floor-1-3kappa": (
        1,
        ACCEPTANCE,
        "contraction_certificate",
        lambda kappa: 1.0 - 3.0 * kappa if kappa < 1.0 else None,
        r"^\[structural_floor\] -0\.5\d* is not >= 0\.4999\d* at layer seed 7$",
    ),
    # ten times the a priori budget still bounds every count, so only the
    # known-rate case can see it
    "apriori-budget-x10": (
        5,
        INVERT_MODULE,
        "_apriori_iterations",
        lambda *a: 10 * APRIORI(*a),
        r"^\[known_rate_slack\] \d+ is not <= 2 for x -> x \+ 0\.5x$",
    ),
}

# name -> (patched modules, patched name, mutant, criteria that read the
#          patched name, why each of them passes, the ROADMAP item that
#          will kill it)
SURVIVORS = {
    "sup-quotient-halved": (
        (ACCEPTANCE, DECOMPOSE),
        "_sup_quotient",
        lambda xs, ys: 0.5 * SUP_QUOTIENT(xs, ys),
        (4,),
        "criterion 4 bounds the sampled residual Lipschitz constants from "
        "above only, and halving them keeps them below epsilon",
        "item 26: its linear symmetric layer has a known quotient, checked "
        "two-sided to 1e-12",
    ),
    "sampled-alpha+0.2": (
        (DISCRETIZE, ACCEPTANCE),
        "pairwise_alpha",
        _alpha_plus_0_2,
        (1, 2, 4, 6),
        "every sampled modulus is checked from below only, against a floor "
        "that an inflated estimate clears more easily",
        "item 26: its linear symmetric layer has the known modulus 1 + ω², "
        "checked two-sided to 1e-12",
    ),
    "acceptance-samples-on-sphere-1e-3r": (
        (ACCEPTANCE,),
        "ball_samples",
        _on_small_sphere,
        (3, 4, 5, 6, 10),
        "every check on these samples is one-sided (a sampled Lipschitz "
        "constant below epsilon, a gap or an iteration count below its "
        "bound), and points near 0 only move each to its safe side",
        "item 4: the sandwich's adversarial side searches the whole ball",
    ),
    "acceptance-samples-cut-to-4": (
        (ACCEPTANCE,),
        "ball_samples",
        lambda dim, r, n, seed=0: BALL_SAMPLES(dim, r, min(n, 4), seed),
        (3, 4, 5, 6, 10),
        "fewer samples give fewer pairs, and every one-sided check on them "
        "(a maximum below its bound, a minimum above its floor) gets easier",
        "item 4: the sandwich's adversarial side searches the whole ball",
    ),
}


def _assert_killed(name, monkeypatch):
    criterion, owner, attr, mutant, failure = MUTANTS[name]
    monkeypatch.setattr(owner, attr, mutant)
    with pytest.raises(StageError, match=failure):
        CRITERION[criterion]()


def _rows(criterion):
    return [name for name, row in MUTANTS.items() if row[0] == criterion]


@pytest.mark.parametrize("name", _rows(4))
def test_decompose_mutant_fails_criterion_4(name, monkeypatch):
    _assert_killed(name, monkeypatch)


@pytest.mark.parametrize("name", _rows(6))
def test_stage_norm_mutant_fails_criterion_6(name, monkeypatch):
    _assert_killed(name, monkeypatch)


@pytest.mark.parametrize("name", [name for name, row in MUTANTS.items() if row[0] not in (4, 6)])
def test_mutant_fails_its_criterion(name, monkeypatch):
    _assert_killed(name, monkeypatch)


@pytest.mark.parametrize("name", list(SURVIVORS))
def test_a_listed_survivor_passes_every_criterion_that_reads_it(name, monkeypatch):
    owners, attr, mutant, criteria, _, _ = SURVIVORS[name]
    for owner in owners:
        monkeypatch.setattr(owner, attr, mutant)
    for num in criteria:
        try:
            CRITERION[num]()
        except StageError as err:
            pytest.fail(
                f"criterion {num} now kills the survivor {name} ({err}); "
                "move it to MUTANTS and record the move in CHANGES.md"
            )


def test_every_row_runs_against_criteria_that_read_its_name(monkeypatch):
    """One pass of the suite with every patched name counted: a mutant's
    criterion reads the name, and a survivor lists every criterion that does."""
    sites = {(row[1], row[2]) for row in MUTANTS.values()}
    sites |= {(owner, row[1]) for row in SURVIVORS.values() for owner in row[0]}
    readers = collections.defaultdict(set)
    current = []
    for owner, attr in sites:
        def counted(*args, _site=(owner, attr), _original=getattr(owner, attr), **kwargs):
            readers[_site].add(current[-1])
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    for num, _, criterion in CRITERIA:
        current.append(num)
        criterion()
    unread = [name for name, row in MUTANTS.items() if row[0] not in readers[row[1], row[2]]]
    assert unread == []
    listed = {name: set(row[3]) for name, row in SURVIVORS.items()}
    read = {
        name: set().union(*(readers[owner, row[1]] for owner in row[0]))
        for name, row in SURVIVORS.items()
    }
    assert listed == read
