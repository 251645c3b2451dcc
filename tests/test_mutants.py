"""Every acceptance check must be able to fail.

Each mutant is a monkeypatch on a module the criterion reaches, named in
its row, and the criterion that guards the patched code must fail under it,
by the check named next to the mutant.
"""

import importlib

import numpy as np
import pytest

from opdisc.acceptance import (
    criterion_block_factorization,
    criterion_invertible_chain_certificates,
)
from opdisc.invert import _first_iterate

DECOMPOSE = importlib.import_module("opdisc.decompose")
LAYERS = importlib.import_module("opdisc.layers")
INVERT, TRANSPORT, PATH_BLOCKS = DECOMPOSE._invert, DECOMPOSE._transport, DECOMPOSE.path_blocks
SPECTRAL_NORM = LAYERS.spectral_norm
COMPOSITE = DECOMPOSE.DecompositionResult.eval_array


def _without_middle_block(*args, **kwargs):
    blocks, diag = PATH_BLOCKS(*args, **kwargs)
    del blocks[len(blocks) // 2]
    return blocks, diag


def _nan_in_one_row(self, x):
    y = np.array(COMPOSITE(self, x))
    y[len(y) // 2] = np.nan
    return y


# name -> (patched module or class, patched name, mutant, message of the failure)
MUTANTS = {
    # a block inverter 1e4 times sloppier than its tolerance: only the cold
    # composite shows it, the warm one starts every block near its preimage
    "invert-tol-1e4": (
        DECOMPOSE,
        "_invert",
        lambda f, ys, kappa, tol, **kw: INVERT(f, ys, kappa, 1e4 * tol, **kw),
        r"^cold blocks miss the layer",
    ),
    "invert-returns-start": (
        DECOMPOSE,
        "_invert",
        lambda f, ys, kappa, tol, *, start=None: _first_iterate(ys, start),
        r"^\[path_blocks\] refinement exceeded the block cap",
    ),
    "cutoff-radius-r2/8": (
        DECOMPOSE,
        "_transport",
        lambda path, t_lo, t_hi, r2, *rest: TRANSPORT(path, t_lo, t_hi, r2 / 8, *rest),
        r"^\[verify\] composite reproduces the layer only to",
    ),
    "middle-path-block-dropped": (
        DECOMPOSE,
        "path_blocks",
        _without_middle_block,
        r"^\[verify\] composite reproduces the layer only to",
    ),
    # one NaN row must fail the composite check, not slip past a fold that
    # skips NaN
    "composite-nan-row": (
        DECOMPOSE.DecompositionResult,
        "eval_array",
        _nan_in_one_row,
        r"^\[verify\] composite reproduces the layer only to nan",
    ),
    # every certified stage norm 10% low: the layer's contraction bound is
    # then optimistic, and a block inverter priced by it runs out of steps
    "stage-norm-under-reported": (
        LAYERS,
        "spectral_norm",
        lambda w: 0.9 * SPECTRAL_NORM(w),
        r"^\[path_blocks\] \[invert\] fixed-point iteration did not reach tol",
    ),
}


@pytest.mark.parametrize("name", list(MUTANTS))
def test_decompose_mutant_fails_criterion_4(name, monkeypatch):
    module, attr, mutant, failure = MUTANTS[name]
    monkeypatch.setattr(module, attr, mutant)
    with pytest.raises((AssertionError, DECOMPOSE.DecompositionError), match=failure):
        criterion_block_factorization()


# every certified stage norm under-reported by this factor: criterion 6's
# known-answer check against numpy's SVD norm sees it before any roundtrip
UNDER_REPORTING = {"stage-norm-x0.9": 0.9, "stage-norm-x0.7": 0.7}


@pytest.mark.parametrize("name", list(UNDER_REPORTING))
def test_stage_norm_mutant_fails_criterion_6(name, monkeypatch):
    factor = UNDER_REPORTING[name]
    monkeypatch.setattr(LAYERS, "spectral_norm", lambda w: factor * SPECTRAL_NORM(w))
    with pytest.raises(AssertionError, match=rf"^a certified stage norm is {factor:g} times"):
        criterion_invertible_chain_certificates()
