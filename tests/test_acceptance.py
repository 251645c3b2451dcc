"""One test per numbered acceptance criterion.

Each test drives the same ``criterion_*`` function the ``accept`` command
runs, so the pass/fail line ``pytest -v`` prints here is the acceptance
verdict for that criterion.  The hard checks (tolerances, budgets)
live inside the criterion functions; the asserts below re-state the
headline numbers from the returned detail, and from its ``checks``
records, so a failure message shows the measurement, not just a stack
trace.
"""

import ast
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import opdisc.acceptance as acceptance
from opdisc.acceptance import (
    CRITERIA,
    criterion_block_factorization,
    criterion_compression_continuity,
    criterion_fem_rates,
    criterion_fixed_point_inversion,
    criterion_galerkin_singularity,
    criterion_invertible_chain_certificates,
    criterion_isotopy_crossing,
    criterion_monotonicity_under_compression,
    criterion_orientation_tracking,
    criterion_range_tail_convergence,
    run_suite,
)
from opdisc.serialize import write_json
from opdisc.spectral import StageError

SRC = Path(acceptance.__file__).resolve().parent


def checked(detail: dict, name: str) -> list:
    """The values that the checks named ``name`` recorded in ``detail``."""
    return [record.get("value") for record in detail["checks"] if record["name"] == name]


def test_criterion_01_monotonicity_under_compression():
    detail = criterion_monotonicity_under_compression()
    assert detail["layers"] == 50
    assert checked(detail, "sampled_alpha")[0] >= 0.5 - 1e-6
    # the wall time is the suite's "elapsed", kept out of the details: its
    # check records the budget alone
    assert "elapsed_s" not in detail
    assert [r for r in detail["checks"] if r["name"] == "elapsed_s"] == [
        {"name": "elapsed_s", "op": "<", "bound": 60.0, "where": ""}]


def test_criterion_02_range_tail_convergence():
    detail = criterion_range_tail_convergence()
    tails = detail["decay_tails"]
    assert all(b < a for a, b in zip(tails, tails[1:]))
    assert checked(detail, "tail_below_rank")[0] > 1e-9
    assert all(v <= 1e-12 for v in detail["tails_at_or_above_rank"].values())


def test_criterion_03_compression_continuity():
    detail = criterion_compression_continuity()
    assert checked(detail, "worst_ratio_deviation")[0] <= 0.10
    for sub, amb in zip(detail["subspace_errors"], detail["ambient_errors"]):
        assert sub <= amb + 1e-15


def test_criterion_04_block_factorization():
    detail = criterion_block_factorization()
    assert detail["blocks"] >= 1
    (lips,) = [r for r in detail["checks"] if r["name"] == "block_lips_resampled"]
    assert max(detail["block_lips_resampled"]) == lips["value"] < lips["bound"] == 0.25
    assert checked(detail, "composite_gap")[0] <= 1e-6
    assert min(detail["block_alphas"]) >= 1.0 - 0.25 - 1e-6
    assert checked(detail, "loglog_slope")[0] <= 2.3


def test_criterion_05_fixed_point_inversion():
    detail = criterion_fixed_point_inversion()
    assert checked(detail, "worst_roundtrip")[0] <= 1e-8
    assert checked(detail, "worst_iteration_slack")[0] <= 0
    (known,) = [r for r in detail["checks"] if r["name"] == "known_rate_slack"]
    assert known["value"] <= known["bound"] == 2


def test_criterion_04_fails_on_a_nan_block_lipschitz_constant(monkeypatch):
    # builtin max keeps the finite first value and drops a later NaN
    calls = []

    def nan_second(xs, ys):
        calls.append(None)
        return math.nan if len(calls) == 2 else sup_quotient(xs, ys)

    sup_quotient = acceptance._sup_quotient
    monkeypatch.setattr(acceptance, "_sup_quotient", nan_second)
    with pytest.raises(StageError, match=r"^\[block_lips_resampled\] nan is not < 0\.25$"):
        criterion_block_factorization()
    assert len(calls) >= 3


def test_criterion_06_invertible_chain_certificates():
    detail = criterion_invertible_chain_certificates()
    assert checked(detail, "roundtrip_inverse_of_forward")[0] <= 1e-6
    assert checked(detail, "roundtrip_forward_of_inverse")[0] <= 1e-6
    assert min(detail["block_alphas"]) >= 1.0 - detail["delta"] - 1e-6
    assert detail["refusal_message"]


def test_criterion_06_fails_on_a_nan_block_modulus(monkeypatch):
    estimate, seeds = acceptance.pairwise_alpha, []

    def nan_middle(*args, **kwargs):
        seeds.append(kwargs["seed"])
        result = estimate(*args, **kwargs)
        return dataclasses.replace(result, alpha=math.nan) if len(seeds) == 2 else result

    monkeypatch.setattr(acceptance, "pairwise_alpha", nan_middle)
    with pytest.raises(StageError, match=r"^\[block_alphas\] nan is not >= 0\.0999"):
        criterion_invertible_chain_certificates()
    assert seeds == [64, 65, 66]


def test_criterion_07_galerkin_singularity():
    detail = criterion_galerkin_singularity()
    assert abs(detail["five_mode_det_at_star"]) < 1e-10
    assert abs(detail["one_mode_s_star"] - 0.5) <= 1e-9


def test_criterion_08_isotopy_crossing():
    detail = criterion_isotopy_crossing()
    assert abs(detail["t_star"] - detail["t_star_expected"]) <= 1e-6
    assert detail["t_star_expected"] == pytest.approx(7.0 / 18.0)
    assert checked(detail, "worst_orthogonality_defect")[0] <= 1e-10


def test_criterion_08_fails_on_a_nan_path_matrix(monkeypatch):
    # the fold starts at 0.0, so builtin max drops a NaN wherever it falls
    matrix = acceptance.aligned_truncation_matrix

    def nan_at_half(t, m):
        full = matrix(t, m)
        return np.full_like(full, math.nan) if t == 0.5 else full

    monkeypatch.setattr(acceptance, "aligned_truncation_matrix", nan_at_half)
    with pytest.raises(StageError, match=r"^\[worst_orthogonality_defect\] nan is not <= 1e-10$"):
        criterion_isotopy_crossing()


def test_criterion_09_fem_rates():
    detail = criterion_fem_rates()
    for name in ("zero", "linear"):
        for ratio in detail[name]["ratios"]:
            assert 1.7 <= ratio <= 2.3
        energies = detail[name]["newton_energies"]
        assert all(b < a for a, b in zip(energies, energies[1:]))


def test_criterion_10_orientation_tracking():
    detail = criterion_orientation_tracking()
    assert checked(detail, "monotone_sign_changes") == [0]
    assert detail["monotone_points_checked"] > 0
    assert abs(detail["scalar_flip_estimate"] - 0.5) <= 1e-6


class TestSuiteRunner:
    def test_criteria_are_numbered_one_to_ten(self):
        assert [num for num, _, _ in CRITERIA] == list(range(1, 11))
        names = [name for _, name, _ in CRITERIA]
        assert len(set(names)) == len(names)
        assert all(callable(fn) for _, _, fn in CRITERIA)

    def test_subset_runs_in_numeric_order(self):
        results = run_suite([8, 7])
        assert [r["criterion"] for r in results] == [7, 8]
        for r in results:
            assert r["passed"] is True
            assert r["elapsed"] >= 0.0
            assert isinstance(r["detail"], dict)

    def test_unknown_numbers_are_refused(self):
        with pytest.raises(ValueError, match="unknown criterion numbers"):
            run_suite([7, 42])

    def test_a_failing_criterion_is_reported_not_raised(self, monkeypatch):
        def boom():
            raise RuntimeError("measured the wrong universe")

        monkeypatch.setattr(
            acceptance, "CRITERIA", ((1, "doomed", boom),), raising=True
        )
        results = run_suite()
        assert len(results) == 1
        assert results[0]["passed"] is False
        assert results[0]["detail"] == {
            "error": "RuntimeError: measured the wrong universe", "stage": None
        }

    def test_a_missing_certificate_fails_by_name(self, monkeypatch):
        # a None floor, not a TypeError from None - 1e-6
        monkeypatch.setattr(acceptance, "contraction_certificate", lambda kappa: None)
        records = run_suite([4, 6])
        assert [(r["passed"], r["detail"]["stage"]) for r in records] == [
            (False, "structural_floor"), (False, "structural_floor")
        ]
        assert records[0]["detail"]["error"] == (
            "StageError: [structural_floor] None is not >= 0.749999999999"
        )

    def test_a_scan_without_a_crossing_fails_by_name(self, monkeypatch):
        # no one-mode crossing, not an IndexError from stars[0]
        scan = acceptance.singularity_scan

        def no_one_mode_crossing(kind, n, **kwargs):
            found = scan(kind, n, **kwargs)
            return dataclasses.replace(found, stars=()) if n == 1 else found

        monkeypatch.setattr(acceptance, "singularity_scan", no_one_mode_crossing)
        (record,) = run_suite([7])
        assert record["passed"] is False
        assert record["detail"] == {
            "error": "StageError: [one_mode_crossings] 0 is not >= 1",
            "stage": "one_mode_crossings",
        }

    def test_worst_alpha_is_finite(self, monkeypatch):
        # tiny smoke configuration: two layers, cheap sampling
        monkeypatch.setattr(acceptance, "_LAYERS", 2)
        monkeypatch.setattr(acceptance, "_SAMPLES", 16)
        detail = criterion_monotonicity_under_compression()
        assert math.isfinite(checked(detail, "sampled_alpha")[0])
        assert detail["layers"] == 2

    def test_each_elapsed_is_the_criterions_wall_time(self):
        before = time.perf_counter()
        (record,) = run_suite([7])
        assert 0.0 <= record["elapsed"] <= time.perf_counter() - before

    def test_a_failed_check_holds_under_python_O(self):
        """``python -O`` strips every ``assert``; a check is a raise, so with
        the structural certificate patched to 5.0 criterion 6 still fails,
        and its record names the check."""
        probe = (
            "import json, opdisc.acceptance as acceptance\n"
            "acceptance.contraction_certificate = lambda kappa: 5.0\n"
            "(record,) = acceptance.run_suite([6])\n"
            "print(json.dumps([record['passed'], record['detail'].get('stage')]))\n"
        )
        path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-O", "-c", probe], env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, check=True,
        )
        assert json.loads(done.stdout) == [False, "block_alphas"]


def test_every_check_writes_its_record(tmp_path):
    """Each ``_check("name", ...)`` in a criterion's source leaves a record
    of that name in the criterion's ``checks`` after one run of the suite,
    and no other name does: an op, a bound, a location and, but for the
    wall-time budget, a value.  The details are strict JSON."""
    names = {}
    for node in ast.parse((SRC / "acceptance.py").read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("criterion_"):
            names[node.name] = {
                call.args[0].value for call in ast.walk(node)
                if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_check"}
    numbers = {fn.__name__: num for num, _, fn in CRITERIA}
    assert set(names) == set(numbers)
    details = {r["criterion"]: r["detail"] for r in run_suite()}
    for fn, wanted in names.items():
        checks = details[numbers[fn]]["checks"]
        assert {record["name"] for record in checks} == wanted, fn
        for record in checks:
            budget = set() if record["name"] == "elapsed_s" else {"value"}
            assert set(record) == {"name", "op", "bound", "where"} | budget, record
    write_json(tmp_path / "acceptance.json", details)


def test_a_passing_infinite_value_is_recorded_as_text():
    """An empty np.diff read with ``initial=-inf`` passes a ``< 0`` check;
    its record must still be strict JSON."""
    def step():
        acceptance._check("residual_step", np.max(np.diff([1.0]), initial=-math.inf), "<", 0.0)
        return {}

    detail = acceptance._criterion(step)()
    assert detail == {"checks": [
        {"name": "residual_step", "op": "<", "bound": 0.0, "where": "", "value": "-inf"}]}
    json.dumps(detail, allow_nan=False)


def test_the_package_holds_no_assert():
    """Every check in the package raises a named error: no ``assert``, which
    ``python -O`` strips, and no ``AssertionError``, which names no stage."""
    found = [
        f"{path.stem}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
        or (isinstance(node, ast.Name) and node.id == "AssertionError")
    ]
    assert found == []
