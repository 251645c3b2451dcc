import dataclasses
import importlib
import json
import math
import multiprocessing
import os
import re
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from opdisc import acceptance, cli, serialize
from opdisc.cli import SOURCES, main, run_config
from opdisc.discretize import convergence_scan
from opdisc.layers import CoordinateNetNonlinearity, NemytskiiNonlinearity, make_layer
from opdisc.monotone import ball_samples
from opdisc.serialize import blob_hash, chain_from_spec, layer_from_spec, space_from_config


# every spec kind's (key table, build), one dict per spec reader
SPEC_KINDS = (serialize.OPERATORS, serialize.NETWORKS, serialize.NONLINEARITIES,
              serialize.LAYERS, serialize.CHAINS, serialize.HEADS)


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def layer_file(tmp_path):
    path = tmp_path / "layer.json"
    path.write_text(
        json.dumps(
            {
                "schema": 1,
                "space": {"basis": "fourier", "ambient_dim": 8},
                "layer": {"kind": "seeded_layer", "seed": 3, "lip_g": 0.5},
            }
        )
    )
    return path


CHAIN_SPEC = {
    "kind": "seeded_chain",
    "ambient_dim": 6,
    "num_blocks": 2,
    "seed": 9,
    "delta": 0.5,
}


@pytest.fixture()
def chain_and_target(tmp_path):
    chain_path = tmp_path / "chain.json"
    chain_path.write_text(json.dumps({"schema": 1, "chain": CHAIN_SPEC}))
    cert = chain_from_spec(CHAIN_SPEC)
    x = np.linspace(-0.3, 0.4, 6)
    y = cert.eval_array(x)
    y_path = tmp_path / "y.json"
    y_path.write_text(json.dumps({"schema": 1, "y": y.tolist()}))
    return chain_path, y_path, x


def _bad_monotone_check(layer):
    return {"name": "bad", "kind": "monotone-check", "seed": 0,
            "space": {"basis": "fourier", "ambient_dim": 4}, "layer": layer}


def _bad_invert(chain, head=None):
    exp = {"name": "bad", "kind": "invert", "seed": 0, "chain": chain,
           "y": [0.1, -0.2, 0.3, 0.05]}
    return exp if head is None else {**exp, "head": head}


_OPERATOR = {"kind": "seeded_finite_rank", "rank": 2, "seed": 1}

# One experiment per spec reader, each with a string where that reader's
# object belongs.
NON_OBJECT_SPECS = {
    "operator": _bad_monotone_check(
        {"kind": "layer", "in_op": "x", "out_op": _OPERATOR, "nonlin": {"kind": "zero"}}
    ),
    "network": _bad_invert(
        {"kind": "residual_chain", "ambient_dim": 4, "prefix_n": 4, "blocks": ["x"]}
    ),
    "nonlinearity": _bad_monotone_check(
        {"kind": "layer", "in_op": _OPERATOR, "out_op": _OPERATOR, "nonlin": "x"}
    ),
    "layer": _bad_monotone_check("x"),
    "chain": _bad_invert("x"),
    "head": _bad_invert(
        {"kind": "seeded_chain", "ambient_dim": 4, "num_blocks": 3, "seed": 51,
         "delta": 0.5},
        "reflection",
    ),
}


_SEEDED_CHAIN = {"kind": "seeded_chain", "ambient_dim": 4, "num_blocks": 3, "seed": 51,
                 "delta": 0.5}


def _bad_number_spec(reader: str, value):
    """One experiment whose ``reader`` spec carries ``value`` where a count
    belongs."""
    if reader == "space":
        return {**_bad_monotone_check({"kind": "seeded_layer", "seed": 3, "lip_g": 0.5}),
                "space": {"basis": "fourier", "ambient_dim": value}}
    if reader == "operator":
        return _bad_monotone_check({"kind": "layer", "out_op": _OPERATOR,
                                    "in_op": {**_OPERATOR, "rank": value},
                                    "nonlin": {"kind": "zero"}})
    if reader == "network":
        net = {"kind": "seeded_coordinate_network", "n_in": 4, "n_out": 4, "seed": value,
               "target_bound": 0.5}
        return _bad_invert({"kind": "residual_chain", "ambient_dim": 4, "prefix_n": 4,
                            "blocks": [net]})
    if reader == "nonlinearity":
        net = {"kind": "seeded_coordinate_network", "n_in": 4, "n_out": 4, "seed": 1}
        return _bad_monotone_check(
            {"kind": "layer", "in_op": _OPERATOR, "out_op": _OPERATOR,
             "nonlin": {"kind": "coordinate_net", "net": net, "ambient_dim": value}}
        )
    if reader == "layer":
        return _bad_monotone_check({"kind": "seeded_layer", "seed": 3, "rank": value})
    if reader == "chain":
        return _bad_invert({**_SEEDED_CHAIN, "num_blocks": value})
    assert reader == "head"
    return _bad_invert(_SEEDED_CHAIN, {"kind": "reflection", "axis_dim": value})


BAD_NUMBER_READERS = ("space", "operator", "network", "nonlinearity", "layer", "chain", "head")


def write_config(tmp_path, experiments, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"schema": 1, "experiments": experiments}))
    return path


OTHER_CHAIN_SPEC = {**CHAIN_SPEC, "seed": 10, "num_blocks": 3}


def _invert(name, chain, shift):
    return {"name": name, "kind": "invert", "seed": 0, "chain": chain,
            "y": (np.linspace(-0.3, 0.4, 6) + shift).tolist()}


# the build log of a batch that builds each of the two chain specs once
BOTH_CHAINS = sorted(json.dumps(spec, sort_keys=True) for spec in (CHAIN_SPEC, OTHER_CHAIN_SPEC))

# six inversions over two chain specs, interleaved
INVERT_BATCH = [
    _invert(f"inv{i}", CHAIN_SPEC if i % 2 == 0 else OTHER_CHAIN_SPEC, 0.05 * i)
    for i in range(6)
]


def _run_batch(experiments, out_dir, jobs=1):
    return run_config({"schema": 1, "experiments": experiments}, out_dir, jobs, None)


@pytest.fixture()
def two_cpus(monkeypatch):
    """Two usable CPUs, so that a --jobs 2 batch forks on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture()
def chain_builds(monkeypatch, tmp_path):
    """A call that lists every chain spec ``cli`` has built, in the runner
    and in the children a ``--jobs`` batch forks: each build appends a line
    to one file, in call order within each process."""
    log = tmp_path / "chain-builds.log"
    original = cli.chain_from_spec

    def counted(spec):
        with open(log, "a") as out:
            out.write(json.dumps(spec, sort_keys=True) + "\n")
        # a slow build widens the window in which racing threads could both
        # miss the memo
        time.sleep(0.01)
        return original(spec)

    monkeypatch.setattr(cli, "chain_from_spec", counted)
    return lambda: log.read_text().splitlines() if log.exists() else []


class TestBatchMode:
    def test_monotone_check_reads_the_discretize_scan_alphas(self, tmp_path):
        """A monotone-check and a discretize-scan of one layer, seed, sample
        count and dims report the same prefix moduli: both read one
        convergence_scan, and each estimate hash is that scan row's."""
        shared = {"seed": 5, "samples": 24, "dims": [1, 3, 6, 8],
                  "space": {"basis": "fourier", "ambient_dim": 8},
                  "layer": {"kind": "seeded_layer", "seed": 3, "lip_g": 0.5}}
        outcomes = _run_batch([{"name": "mono", "kind": "monotone-check", **shared},
                               {"name": "scan", "kind": "discretize-scan", **shared}], tmp_path)
        assert [o["status"] for o in outcomes] == ["ok", "ok"], outcomes
        rows = json.loads((tmp_path / "mono.json").read_text())["scan"]
        lines = (tmp_path / "scan.csv").read_text().strip().split("\n")
        assert [row["alpha_hat"] for row in rows] == [float(line.split(",")[3]) for line in lines[1:]]
        layer = layer_from_spec(shared["layer"], space_from_config(shared["space"]))
        scan = convergence_scan(layer.eval_array, shared["dims"], n=24, seed=5, dim=8)
        assert [row["dim"] for row in rows] == scan.column("dim")
        for row, want in zip(rows, scan.rows):
            assert row["estimate_hash"] == blob_hash(want["estimate"])

    def test_runs_every_experiment(self, runner, tmp_path):
        cfg = write_config(
            tmp_path,
            [
                {"name": "iso", "kind": "nogo-isotopy", "seed": 0, "m": 3, "grid": 21},
                {
                    "name": "gal",
                    "kind": "nogo-galerkin",
                    "seed": 0,
                    "path_kind": "a",
                    "n": 1,
                    "grid": 21,
                },
            ],
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert (out / "iso.csv").exists() and (out / "iso.json").exists()
        assert (out / "gal.csv").exists() and (out / "gal.json").exists()
        assert "ok" in result.output

    def test_jobs_flag_gives_identical_artifacts(self, runner, tmp_path):
        experiments = [
            {"name": "iso", "kind": "nogo-isotopy", "seed": 0, "m": 3, "grid": 21},
            {
                "name": "gal",
                "kind": "nogo-galerkin",
                "seed": 0,
                "path_kind": "b",
                "n": 3,
                "grid": 21,
            },
            {
                "name": "trig",
                "kind": "nogo-galerkin",
                "seed": 0,
                "path_kind": "a",
                "n": 5,
                "grid": 21,
            },
            # two inversions sharing one chain spec
            *INVERT_BATCH[:3:2],
        ]
        cfg = write_config(tmp_path, experiments)
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        assert runner.invoke(main, ["--config", str(cfg), "--out", str(serial)]).exit_code == 0
        assert (
            runner.invoke(
                main, ["--config", str(cfg), "--out", str(parallel), "--jobs", "2"]
            ).exit_code
            == 0
        )
        for stem in ("iso", "gal", "trig"):
            for ext in (".csv", ".json"):
                assert (serial / f"{stem}{ext}").read_bytes() == (
                    parallel / f"{stem}{ext}"
                ).read_bytes()
        for stem in ("inv0", "inv2"):
            assert (serial / f"{stem}.json").read_bytes() == (
                parallel / f"{stem}.json"
            ).read_bytes()

    def test_empty_experiment_list_is_a_quiet_success(self, runner, tmp_path):
        cfg = write_config(tmp_path, [])
        out = tmp_path / "out"
        result = runner.invoke(main, ["--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 0
        assert not out.exists()

    def test_unknown_experiment_key_is_a_config_error(self, runner, tmp_path):
        cfg = write_config(
            tmp_path,
            [{"name": "x", "kind": "nogo-isotopy", "seed": 0, "m": 3, "bogus": 1}],
        )
        result = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert "config-error" in result.output

    def test_missing_seed_is_a_config_error(self, runner, tmp_path):
        cfg = write_config(tmp_path, [{"name": "x", "kind": "nogo-isotopy", "m": 3}])
        result = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert "explicit seed" in result.output

    def test_unknown_kind_is_a_config_error(self, runner, tmp_path):
        cfg = write_config(tmp_path, [{"name": "x", "kind": "frobnicate", "seed": 0}])
        result = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 1

    def test_duplicate_names_are_refused(self, runner, tmp_path):
        exp = {"name": "same", "kind": "nogo-isotopy", "seed": 0, "m": 3}
        cfg = write_config(tmp_path, [exp, dict(exp)])
        result = runner.invoke(main, ["--config", str(cfg), "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert "unique" in result.output

    def test_failed_check_exits_2_with_report(self, runner, tmp_path):
        cfg = write_config(
            tmp_path,
            [
                {
                    "name": "toohigh",
                    "kind": "monotone-check",
                    "seed": 1,
                    "space": {"basis": "fourier", "ambient_dim": 8},
                    "layer": {"kind": "seeded_layer", "seed": 1, "lip_g": 0.5},
                    # the pair quotient cannot exceed 1 + lip, so this floor
                    # fails deterministically
                    "floor": 2.0,
                    "samples": 16,
                }
            ],
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 2
        failures = json.loads((out / "failures.json").read_text())
        assert failures["failed"][0]["name"] == "toohigh"
        assert "fell below" in failures["failed"][0]["error"]
        assert failures["failed"][0]["stage"] == "floor"
        report = json.loads((out / "toohigh.json").read_text())
        assert report["pass"] is False

    def test_group_seed_overrides_every_experiment(self, runner, tmp_path):
        cfg = write_config(
            tmp_path,
            [
                {
                    "name": "seeded",
                    "kind": "monotone-check",
                    "seed": 7,
                    "space": {"basis": "fourier", "ambient_dim": 8},
                    "layer": {"kind": "seeded_layer", "seed": 7, "lip_g": 0.4},
                    "samples": 16,
                }
            ],
        )
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["--config", str(cfg), "--out", str(out), "--seed", "99"]
        )
        assert result.exit_code == 0, result.output
        assert json.loads((out / "seeded.json").read_text())["seed"] == 99

    def test_config_without_schema_tag_is_refused(self, runner, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiments": []}))
        result = runner.invoke(main, ["--config", str(path), "--out", str(tmp_path / "o")])
        assert result.exit_code == 1

    def test_no_config_and_no_subcommand_prints_help(self, runner):
        result = runner.invoke(main, [])
        assert result.exit_code == 0
        assert "Usage:" in result.output

    def test_nemytskii_layer_evaluates_batches(self, runner, tmp_path):
        space = {"basis": "fourier", "ambient_dim": 8}
        layer = {
            "kind": "layer",
            "in_op": {"kind": "seeded_finite_rank", "rank": 4, "seed": 1},
            "out_op": {"kind": "seeded_finite_rank", "rank": 4, "seed": 2},
            "nonlin": {"kind": "nemytskii", "activation": "scaled_leaky(0.4)"},
        }
        f = layer_from_spec(layer, space_from_config(space))
        xs = ball_samples(8, 1.0, 5, seed=10)
        rows = np.stack([f.eval_array(x) for x in xs])
        assert np.abs(f.eval_array(xs) - rows).max() <= 1e-12 * np.abs(rows).max()

        exp = {"name": "nem", "kind": "monotone-check", "seed": 5, "samples": 32,
               "dims": [2, 5, 8], "space": space, "layer": layer}
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["--config", str(write_config(tmp_path, [exp])), "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        report = json.loads((out / "nem.json").read_text())
        # values of the row-at-a-time evaluation this batched path replaced
        expected = [0.9655942125136553, 0.964818342991572, 0.9721362266614287]
        got = [row["alpha_hat"] for row in report["scan"]]
        assert got == pytest.approx(expected, rel=1e-12)
        assert report["pass"]

    def test_ball_local_chain_refuses_targets_outside_its_ball(self, runner, tmp_path):
        chain = {"kind": "seeded_chain", "ambient_dim": 8, "num_blocks": 3, "seed": 5,
                 "delta": 0.5, "activation": "recu", "ball_radius": 1.0, "bias_scale": 0}
        experiments = [
            {"name": f"norm{norm:g}", "kind": "invert", "seed": 0, "chain": chain,
             "y": (norm * np.eye(8)[0]).tolist()}
            for norm in (0.5, 3, 10, 30)
        ]
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["--config", str(write_config(tmp_path, experiments)), "--out", str(out)]
        )
        assert result.exit_code == 2, result.output
        status = [line.split()[::2] for line in result.stdout.splitlines()]
        assert status == [["ok", "norm0.5"], ["failed", "norm3"], ["failed", "norm10"],
                          ["failed", "norm30"]]
        assert [line.split(":")[0] for line in result.stderr.splitlines()] == [
            "failed in norm3", "failed in norm10", "failed in norm30"]
        failed = json.loads((out / "failures.json").read_text())["failed"]
        assert [f["name"] for f in failed] == ["norm3", "norm10", "norm30"]
        for f in failed:
            assert f["error_type"] == "DomainError"
            assert f["stage"] == "invert"
            assert f["error"].startswith("[invert] iterate 1 lies outside the certified ball")
        trace = json.loads((out / "norm0.5.json").read_text())["trace"]
        assert "max_iter" not in trace
        assert len(trace["iteration_counts"]) == 3

    def test_decompose_failure_names_its_stage(self, runner, tmp_path):
        exp = {"name": "recu", "kind": "decompose", "seed": 0,
               "space": {"basis": "fourier", "ambient_dim": 8},
               "layer": {"kind": "seeded_layer", "seed": 5, "rank": 4, "lip_g": 0.4,
                         "activation": "recu"},
               "epsilon": 0.25, "radius": 1.0}
        out = tmp_path / "out"
        result = runner.invoke(main, ["--config", str(write_config(tmp_path, [exp])),
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        failed = json.loads((out / "failures.json").read_text())["failed"]
        assert failed[0]["error_type"] == "StageError"
        assert failed[0]["error"].startswith("[estimate] ")
        assert failed[0]["stage"] == "estimate"

    def test_inverter_failure_names_its_stage(self, runner, tmp_path, monkeypatch):
        # the path blocks of this kappa = 0.9 layer need more than one Newton step
        monkeypatch.setattr(importlib.import_module("opdisc.invert"), "NEWTON_STEPS", 1)
        exp = {"name": "newton", "kind": "decompose", "seed": 0,
               "space": {"basis": "abstract_orthonormal", "ambient_dim": 3},
               "layer": {"kind": "seeded_layer", "seed": 3, "lip_g": 0.9,
                         "activation": "tanh"},
               "epsilon": 0.25, "radius": 1.0}
        out = tmp_path / "out"
        result = runner.invoke(main, ["--config", str(write_config(tmp_path, [exp])),
                                      "--out", str(out)])
        assert result.exit_code == 2, result.output
        failed = json.loads((out / "failures.json").read_text())["failed"]
        assert failed[0]["error"].startswith("[path_blocks] [invert] Newton did not reach")
        assert failed[0]["stage"] == "path_blocks"


def _nemytskii_check(name, activation):
    return {
        "name": name, "kind": "monotone-check", "seed": 5, "samples": 16, "dims": [2, 8],
        "space": {"basis": "fourier", "ambient_dim": 8},
        "layer": {
            "kind": "layer",
            "in_op": {"kind": "seeded_finite_rank", "rank": 4, "seed": 1},
            "out_op": {"kind": "seeded_finite_rank", "rank": 4, "seed": 2},
            "nonlin": {"kind": "nemytskii", "activation": activation},
        },
    }


def _seeded_layer_check(name, activation):
    return {
        "name": name, "kind": "monotone-check", "seed": 5, "samples": 16, "dims": [2, 8],
        "space": {"basis": "fourier", "ambient_dim": 8},
        "layer": {"kind": "seeded_layer", "seed": 3, "lip_g": 0.5, "activation": activation},
    }


def _chain_inversion(name, activation):
    return _invert(name, {**CHAIN_SPEC, "activation": activation}, 0.0)


class TestActivationNames:
    """A bad activation name is a config error naming its reader; the rest
    of the batch still runs."""

    @pytest.mark.parametrize(
        "make,bad,good,message",
        [
            (_nemytskii_check, "tanh(2)", "tanh",
             "nonlinearity: activation 'tanh' takes no parameter, got 'tanh(2)'"),
            (_nemytskii_check, "scaled_leaky", "scaled_leaky(0.4)",
             "nonlinearity: activation 'scaled_leaky' needs a parameter"),
            (_nemytskii_check, "tanh(", "tanh", "nonlinearity: unknown activation 'tanh('"),
            (_nemytskii_check, "groupsort2", "tanh",
             "nonlinearity: a Nemytskii map needs an entrywise activation; "
             "'groupsort2' is not"),
            (_nemytskii_check, "scaled_leaky(-1)", "scaled_leaky(1)",
             "nonlinearity: activation 'scaled_leaky(-1)': the scale -1 must be nonnegative"),
            (_seeded_layer_check, "tanh(2)", "tanh",
             "layer: activation 'tanh' takes no parameter, got 'tanh(2)'"),
            (_chain_inversion, "groupsort2(2)", "groupsort2",
             "chain: activation 'groupsort2' takes no parameter, got 'groupsort2(2)'"),
            (_chain_inversion, "leaky_relu(0.3", "leaky_relu(0.3)",
             "chain: unknown activation 'leaky_relu(0.3'"),
        ],
        ids=["nemytskii-parameter", "nemytskii-missing", "nemytskii-malformed",
             "nemytskii-groupsort2", "nemytskii-negative-scale",
             "seeded-layer-parameter", "chain-parameter", "chain-malformed"],
    )
    def test_a_bad_name_is_a_config_error(self, runner, tmp_path, make, bad, good, message):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, [make("bad", bad), make("good", good)])
        result = runner.invoke(main, ["--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert f"config-error in bad: {message}" in result.output
        assert "ok  " in result.output and "good" in result.output
        assert (out / "good.json").exists()
        assert not (out / "bad.json").exists()
        assert not (out / "failures.json").exists()


@pytest.mark.usefixtures("two_cpus")
class TestBuildMemo:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_shared_chains_give_the_artifacts_of_lone_runs(self, tmp_path, jobs):
        batch = tmp_path / "batch"
        outcomes = _run_batch(INVERT_BATCH, batch, jobs)
        assert [o["status"] for o in outcomes] == ["ok"] * 6
        for exp in INVERT_BATCH:
            alone = tmp_path / exp["name"]
            assert _run_batch([exp], alone)[0]["status"] == "ok"
            name = f"{exp['name']}.json"
            assert (batch / name).read_bytes() == (alone / name).read_bytes()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_distinct_chain_is_built_once(self, tmp_path, chain_builds, jobs):
        _run_batch(INVERT_BATCH, tmp_path, jobs)
        assert sorted(chain_builds()) == BOTH_CHAINS

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_a_chain_two_tasks_name_is_built_once(self, tmp_path, chain_builds, jobs):
        # one chain under two tols: two tasks, each in its own process at
        # --jobs 2, so the runner and the child each build the chain
        batch = [INVERT_BATCH[0], {**INVERT_BATCH[2], "tol": 1e-8}, INVERT_BATCH[1]]
        assert cli._tasks(batch) == [(0,), (1,), (2,)]
        outcomes = _run_batch(batch, tmp_path, jobs)
        assert [o["status"] for o in outcomes] == ["ok"] * 3
        twice = [json.dumps(CHAIN_SPEC, sort_keys=True)] if jobs == 2 else []
        assert sorted(chain_builds()) == sorted(BOTH_CHAINS + twice)

    def test_a_bad_chain_is_not_memoized(self, tmp_path, chain_builds):
        bad = {"kind": "no_such_chain"}
        outcomes = _run_batch(
            [_invert("bad0", bad, 0.0), INVERT_BATCH[0], _invert("bad1", bad, 0.1)],
            tmp_path,
        )
        assert [o["status"] for o in outcomes] == ["config-error", "ok", "config-error"]
        assert outcomes[0]["error"] == outcomes[2]["error"]
        assert "no_such_chain" in outcomes[0]["error"]
        # both experiments naming the bad spec tried to build it
        assert len(chain_builds()) == 3

    def test_racing_threads_build_each_chain_once(self, tmp_path, chain_builds):
        batch = [
            _invert(f"r{i}", CHAIN_SPEC if i % 2 == 0 else OTHER_CHAIN_SPEC, 0.01 * i)
            for i in range(16)
        ]
        outcomes = []
        worker = threading.Thread(
            target=lambda: outcomes.extend(_run_batch(batch, tmp_path, jobs=4))
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker.start()
            worker.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert [o["status"] for o in outcomes] == ["ok"] * 16
        assert sorted(chain_builds()) == BOTH_CHAINS

    def test_the_memo_lives_for_one_run(self, tmp_path, chain_builds):
        _run_batch(INVERT_BATCH, tmp_path / "first")
        _run_batch(INVERT_BATCH, tmp_path / "second")
        assert len(chain_builds()) == 4


BALL_CHAIN = {"kind": "seeded_chain", "ambient_dim": 8, "num_blocks": 3, "seed": 5,
              "delta": 0.5, "activation": "recu", "ball_radius": 1.0, "bias_scale": 0}


def _ball_invert(name, norm):
    return {"name": name, "kind": "invert", "seed": 0, "chain": BALL_CHAIN,
            "y": (norm * np.eye(8)[0]).tolist()}


# every outcome status; the failures leave the chain's certified ball
MIXED_BATCH = [
    _ball_invert("inside", 0.5),
    _ball_invert("outside", 3),
    {"name": "iso", "kind": "nogo-isotopy", "seed": 0, "m": 3, "grid": 21},
    _invert("bad-chain", {"kind": "no_such_chain"}, 0.0),
    _ball_invert("far", 10),
]


def _assert_no_child_left():
    """No child process of this one is running or waits to be reaped."""
    # active_children sees multiprocessing's children, waitpid every fork
    assert not multiprocessing.active_children()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# a batch whose one nogo-isotopy task is dealt to the runner at --jobs 2 and
# one where it is dealt to the forked child
ISOTOPY_SHARES = {"runner-share": MIXED_BATCH[2:], "child-share": MIXED_BATCH}


@pytest.mark.usefixtures("two_cpus")
class TestWorkerProcesses:
    def test_outcomes_and_failures_do_not_depend_on_jobs(self, runner, tmp_path):
        cfg = write_config(tmp_path, MIXED_BATCH)
        outcomes, reports = [], []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            outcomes.append(_run_batch(MIXED_BATCH, out, jobs))
            _assert_no_child_left()
            result = runner.invoke(
                main, ["--config", str(cfg), "--out", str(out), "--jobs", str(jobs)]
            )
            assert result.exit_code == 1, result.output
            reports.append((out / "failures.json").read_bytes())
        statuses = [o["status"] for o in outcomes[0]]
        assert statuses == ["ok", "failed", "ok", "config-error", "failed"]
        assert outcomes[0][1]["stage"] == "invert"
        assert outcomes[0] == outcomes[1]
        assert reports[0] == reports[1]

    def test_a_clean_batch_leaves_no_child(self, tmp_path):
        outcomes = _run_batch([ISOTOPY, *INVERT_BATCH], tmp_path, 2)
        assert [o["status"] for o in outcomes] == ["ok"] * 7
        _assert_no_child_left()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_an_unexpected_error_stops_the_batch_and_its_workers(
        self, tmp_path, monkeypatch, jobs
    ):
        def broken(exp, memo):
            raise KeyError("not an outcome a batch records")

        # forked children inherit the patched table
        monkeypatch.setitem(cli.RUNNERS, "nogo-isotopy", broken)
        with pytest.raises(KeyError, match="not an outcome"):
            _run_batch(MIXED_BATCH, tmp_path, jobs)
        _assert_no_child_left()

    @pytest.mark.parametrize("share", list(ISOTOPY_SHARES))
    @pytest.mark.parametrize("error", [KeyError, KeyboardInterrupt])
    def test_an_error_in_either_share_leaves_no_child(self, tmp_path, monkeypatch, error, share):
        batch = ISOTOPY_SHARES[share]
        tasks = cli._tasks(batch)
        runner_share, child_share = cli._deal(tasks, 2)
        isotopy = [t for t, task in enumerate(tasks) if batch[task[0]]["kind"] == "nogo-isotopy"]
        assert isotopy == (runner_share if share == "runner-share" else child_share)[:1]

        def broken(exp, memo):
            raise error("not an outcome a batch records")

        monkeypatch.setitem(cli.RUNNERS, "nogo-isotopy", broken)
        with pytest.raises(error, match="not an outcome") as caught:
            _run_batch(batch, tmp_path, 2)
        notes = getattr(caught.value, "__notes__", [])
        assert any("raised in forked worker" in n for n in notes) == (share == "child-share")
        _assert_no_child_left()

    def test_the_runner_kills_and_reaps_a_child_when_it_fails(self, tmp_path, monkeypatch):
        # the child's share sleeps long past the runner's own failure
        def slow(exp, memo):
            time.sleep(60)

        def broken(exp, memo):
            raise KeyError("the runner's own share failed")

        monkeypatch.setitem(cli.RUNNERS, "nogo-isotopy", broken)
        monkeypatch.setitem(cli.RUNNERS, "nogo-galerkin", slow)
        batch = [ISOTOPY, {"name": "gal", "kind": "nogo-galerkin", "seed": 0,
                           "path_kind": "a", "n": 1}]
        assert cli._deal(cli._tasks(batch), 2) == [[0], [1]]
        start = time.monotonic()
        with pytest.raises(KeyError, match="own share failed"):
            _run_batch(batch, tmp_path, 2)
        assert time.monotonic() - start < 30
        _assert_no_child_left()

    def test_a_child_that_dies_unheard_fails_the_batch(self, tmp_path, monkeypatch):
        monkeypatch.setitem(cli.RUNNERS, "nogo-isotopy", lambda exp, memo: os._exit(3))
        with pytest.raises(RuntimeError, match="exited with code 3 without sending"):
            _run_batch(MIXED_BATCH, tmp_path, 2)
        _assert_no_child_left()

    def test_a_one_job_batch_forks_nothing_and_runs_in_config_order(
        self, tmp_path, monkeypatch
    ):
        def fork():
            raise AssertionError("a --jobs 1 batch forked")

        ran = []
        run_task = cli._run_task

        def logged(batch, task):
            ran.append(task)
            return run_task(batch, task)

        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(cli, "_run_task", logged)
        outcomes = _run_batch([ISOTOPY, *INVERT_BATCH], tmp_path, 1)
        assert [o["status"] for o in outcomes] == ["ok"] * 7
        # the invert groups are the bigger tasks, yet run after the isotopy
        assert ran == [(0,), (1, 3, 5), (2, 4, 6)]

    def test_an_empty_batch_forks_nothing(self, tmp_path, monkeypatch):
        def fork():
            raise AssertionError("an empty batch forked")

        monkeypatch.setattr(os, "fork", fork)
        assert _run_batch([], tmp_path, 2) == []
        _assert_no_child_left()

    def test_tasks_are_dealt_biggest_first_round_robin(self):
        tasks = [(0,), (1, 2, 3), (4,), (5, 6), (7,)]
        assert cli._deal(tasks, 2) == [[0, 1, 4], [2, 3]]
        assert cli._deal(tasks, 3) == [[1, 2], [3, 4], [0]]

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_is_a_config_error(self, runner, tmp_path, jobs):
        cfg = write_config(tmp_path, MIXED_BATCH[2:3])
        out = tmp_path / "out"
        result = runner.invoke(main, ["--config", str(cfg), "--out", str(out), f"--jobs={jobs}"])
        assert result.exit_code == 1
        assert f"--jobs must be at least 1, got {jobs}" in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "jobs,experiments,cpus,workers",
        [(10**6, 171, 2, 2), (2, 1, 2, 1), (1, 171, 2, 1), (4, 3, 8, 3)],
    )
    def test_workers_are_capped_by_jobs_experiments_and_cpus(
        self, jobs, experiments, cpus, workers
    ):
        assert cli._worker_count(jobs, experiments, cpus) == workers


# chains whose invert experiments a batch solves as one stack: two heads,
# a prefix chain and a ball-local chain
GROUP_CHAINS = {
    "identity": (CHAIN_SPEC, None),
    "reflection": (CHAIN_SPEC, {"kind": "reflection", "axis_dim": 6}),
    "prefix": ({"kind": "seeded_chain", "ambient_dim": 8, "prefix_n": 5, "num_blocks": 3,
                "seed": 4, "delta": 0.7}, {"kind": "identity"}),
    "ball-local": (BALL_CHAIN, {"kind": "reflection", "axis_dim": 8}),
}
# a second task, so that a batch at --jobs 2 forks its workers
ISOTOPY = {"name": "iso", "kind": "nogo-isotopy", "seed": 0, "m": 3, "grid": 5}


def test_a_batch_runs_here_without_fork_or_an_affinity_mask(tmp_path, monkeypatch):
    # run_config's platform arms: no os.fork (Windows), no
    # os.sched_getaffinity (macOS) and a CPU count the system cannot tell
    monkeypatch.delattr(os, "fork", raising=False)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    outcomes = _run_batch([ISOTOPY, *INVERT_BATCH], tmp_path / "here", 2)
    assert [o["status"] for o in outcomes] == ["ok"] * 7
    monkeypatch.undo()
    _run_batch([ISOTOPY, *INVERT_BATCH], tmp_path / "alone", 1)
    assert _artifacts(tmp_path / "here") == _artifacts(tmp_path / "alone")


def _group(chain: str, norms, tol=None, seed=0) -> list[dict]:
    spec, head = GROUP_CHAINS[chain]
    dim = spec["ambient_dim"]
    rng = np.random.default_rng(seed)
    experiments = []
    for i, norm in enumerate(norms):
        y = rng.standard_normal(dim)
        exp = {"name": f"{chain}-{i}", "kind": "invert", "seed": i, "chain": spec,
               "y": (norm * y / np.linalg.norm(y)).tolist()}
        exp.update({key: value for key, value in (("head", head), ("tol", tol)) if value})
        experiments.append(exp)
    return experiments


def _artifacts(out: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


def _one_at_a_time(experiments, out: Path) -> tuple[list, dict]:
    """Each experiment in a batch of its own, where nothing is stacked."""
    outcomes = [_run_batch([exp], out)[0] for exp in experiments]
    return outcomes, _artifacts(out)


class TestGroupedInversions:
    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(
        chain=st.sampled_from(sorted(GROUP_CHAINS)),
        norms=st.lists(st.floats(0.0, 0.9), min_size=2, max_size=6),
        tol=st.sampled_from([None, 1e-8]),
        seed=st.integers(0, 2**16),
    )
    def test_a_stacked_group_equals_one_at_a_time(self, tmp_path_factory, chain, norms, tol, seed):
        batch = [ISOTOPY, *_group(chain, norms, tol, seed)]
        alone = _one_at_a_time(batch, tmp_path_factory.mktemp("alone"))
        for jobs in (1, 2):
            out = tmp_path_factory.mktemp(f"jobs{jobs}")
            assert (_run_batch(batch, out, jobs), _artifacts(out)) == alone

    def test_the_group_is_one_task_solved_once(self, tmp_path, monkeypatch):
        calls = []
        original = cli.invert_chain

        def counted(chain, head, y, **kw):
            calls.append(np.shape(y))
            return original(chain, head, y, **kw)

        monkeypatch.setattr(cli, "invert_chain", counted)
        batch = [*_group("identity", [0.1, 0.2]), ISOTOPY, *_group("prefix", [0.3, 0.4, 0.5])]
        assert cli._tasks(batch) == [(0, 1), (2,), (3, 4, 5)]
        outcomes = _run_batch(batch, tmp_path)
        assert [o["name"] for o in outcomes] == [exp["name"] for exp in batch]
        assert calls == [(2, 1, 6), (3, 1, 8)]

    @pytest.mark.parametrize("far", [0.5, 10.0], ids=["solved-stacked", "domain-error"])
    def test_a_mixed_group_ends_each_experiment_as_alone(self, tmp_path, far):
        batch = [ISOTOPY, *_group("ball-local", [0.3, 0.2, far])]
        batch[2]["y"] = [0.1, 0.2]  # not one number per chain dim
        alone = _one_at_a_time(batch, tmp_path / "alone")
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            outcomes = _run_batch(batch, out, jobs)
            assert (outcomes, _artifacts(out)) == alone
        statuses = [o["status"] for o in outcomes]
        assert statuses == ["ok", "ok", "config-error", "ok" if far < 1 else "failed"]
        if far > 1:
            assert outcomes[3]["stage"] == "invert"
            assert outcomes[3]["error_type"] == "DomainError"

    @pytest.mark.parametrize(
        "exp",
        [{"name": "no-chain", "kind": "invert", "seed": 0, "y": [0.0]},
         {"name": "set-tol", "kind": "invert", "seed": 0, "chain": CHAIN_SPEC,
          "y": [0.0] * 6, "tol": {1e-8}}],
        ids=["no-chain", "not-json"],
    )
    def test_an_experiment_without_a_canonical_key_runs_alone(self, exp):
        assert cli._invert_key(exp) is None
        assert cli._tasks([exp, {**exp, "name": "twin"}]) == [(0,), (1,)]


_FAIL_SPACE = {"basis": "abstract_orthonormal", "ambient_dim": 4}
_FAIL_LAYER = {"kind": "seeded_layer", "seed": 3, "lip_g": 0.5, "activation": "tanh"}
_FAIL_DECOMPOSE = {"kind": "decompose", "seed": 0, "space": _FAIL_SPACE, "layer": _FAIL_LAYER,
                   "epsilon": 0.25, "radius": 1.0}
_FAIL_SCAN = {"seed": 0, "space": _FAIL_SPACE, "layer": _FAIL_LAYER, "samples": 4, "dims": [1, 4]}
_FAIL_CHAIN = {"kind": "seeded_chain", "ambient_dim": 4, "num_blocks": 2, "seed": 3, "delta": 0.5}
# a chain whose one block has Lipschitz bound 1.5, so it has no contraction rate
_UNCERTIFIED_CHAIN = {"kind": "residual_chain", "ambient_dim": 4, "prefix_n": 4, "blocks": [
    {"kind": "coordinate_network", "weights": [(1.5 * np.eye(4)).tolist()],
     "biases": [[0, 0, 0, 0]], "activation": "tanh"}]}

# experiment name: (the experiment, and its outcome's stage, error_type and
# error), one row per stage a config can fail in
FAILURE_TABLE = {
    "decompose-radius-1e300": (
        {**_FAIL_DECOMPOSE, "radius": 1e300}, "estimate", "StageError",
        "[estimate] need 0 < c_lower <= c_upper, got (nan, nan)"),
    "decompose-radius-1e-300": (
        {**_FAIL_DECOMPOSE, "radius": 1e-300, "n_verify": 1}, "estimate", "StageError",
        "[estimate] [bilipschitz_estimate] all sampled pairs were degenerate"),
    "decompose-epsilon-1e-300": (
        {**_FAIL_DECOMPOSE, "epsilon": 1e-300}, "choose_w", "StageError",
        "[choose_w] frame tails for the in operator are not below h=4.16667e-302: "
        "2.04217e-16, 2.06879e-16"),
    "decompose-composite_tol-1e-300": (
        {**_FAIL_DECOMPOSE, "composite_tol": 1e-300}, "path_blocks", "StageError",
        "[path_blocks] [invert] Newton line search stagnated at residual 2.23773e-16"),
    "invert-tol-1e-300": (
        {"kind": "invert", "seed": 0, "chain": _FAIL_CHAIN, "y": [0.1, 0.2, 0, 0], "tol": 1e-300},
        "invert", "InversionError",
        "[invert] fixed-point iteration did not reach tol=1e-300 within its derived budget of "
        "998 evaluations at rate q=0.5 (row 0, last residual 5.55112e-17)"),
    "invert-y-1e300": (
        {"kind": "invert", "seed": 0, "chain": _FAIL_CHAIN, "y": [1e300, 0, 0, 0]},
        "invert", "InversionError",
        "[invert] fixed-point residual is not finite at evaluation 1 (last residual inf)"),
    "invert-outside-ball": (
        {"kind": "invert", "seed": 0, "chain": BALL_CHAIN, "y": [3.0] + [0.0] * 7},
        "invert", "DomainError",
        "[invert] iterate 1 lies outside the certified ball: row 0 has |x| = 3 > 1"),
    "invert-uncertified-chain": (
        {"kind": "invert", "seed": 0, "chain": _UNCERTIFIED_CHAIN, "y": [0.1, 0.2, 0, 0]},
        "invert", "StageError",
        "[invert] block 0 carries no contraction certificate (bound 1.5); give the chain a "
        "contraction bound delta, and a ball_radius for a ball-local one"),
    "monotone-check-radius-1e154": (
        {**_FAIL_SCAN, "kind": "monotone-check", "radius": 1e154}, "pairwise_alpha", "StageError",
        "[pairwise_alpha] sampled alpha in dimension 1 is nan, not a finite modulus"),
    "discretize-scan-radius-1e-300": (
        {**_FAIL_SCAN, "kind": "discretize-scan", "radius": 1e-300}, "pairwise_alpha",
        "StageError", "[pairwise_alpha] all sampled pairs were degenerate"),
    "fem-solve-tol-1e-300": (
        {"kind": "fem-solve", "seed": 0, "g": "cubic", "mesh": [4, 8], "tol": 1e-300},
        "newton", "StageError",
        "[newton] Newton line search stagnated at residual 3.82908e-14"),
    "monotone-check-floor-2": (
        {"kind": "monotone-check", "seed": 1, "space": _FAIL_SPACE, "layer": _FAIL_LAYER,
         "floor": 2.0, "samples": 16}, "floor", "CheckFailure",
        "[floor] sampled alpha 0.92854 fell below the certified floor 2"),
    # its report holds the infinity that failure_runs patches in
    "quant-report-inf": (
        {"kind": "quant-report", "seed": 0, "space": _FAIL_SPACE, "layer": _FAIL_LAYER,
         "dims": [1, 2], "samples": 8}, "write_json", "StageError",
        "[write_json] quant-report-inf.json: Out of range float values are not JSON "
        "compliant: inf"),
}


@pytest.fixture(scope="class")
def failure_runs(tmp_path_factory):
    """The failure table run as one batch at --jobs 1 and at --jobs 2: for
    each job count, the outcomes by name, failures.json and the files made."""
    experiments = [{"name": name, **exp} for name, (exp, *_) in FAILURE_TABLE.items()]
    runs = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        patch.setattr(cli, "functor_a_error", lambda *a, **k: math.inf)
        for jobs in (1, 2):
            out = tmp_path_factory.mktemp(f"jobs{jobs}")
            with np.errstate(invalid="ignore", over="ignore"):
                outcomes = _run_batch(experiments, out, jobs)
            with pytest.raises(SystemExit, match="^2$"):
                cli._finish(outcomes, out)
            runs[jobs] = ({o["name"]: o for o in outcomes}, (out / "failures.json").read_text(),
                          sorted(path.name for path in out.iterdir()))
    return runs


class TestFailClosed:
    @pytest.mark.parametrize("name", list(FAILURE_TABLE))
    def test_a_failure_names_its_stage_at_any_jobs(self, failure_runs, name):
        _, stage, error_type, error = FAILURE_TABLE[name]
        outcomes, failures, files = failure_runs[1]
        assert outcomes[name]["status"] == "failed"
        assert outcomes[name]["stage"] == stage
        assert outcomes[name]["error_type"] == error_type
        assert outcomes[name]["error"] == error
        assert outcomes[name] in json.loads(failures)["failed"]
        assert failure_runs[2][:2] == (outcomes, failures)
        # only a floor failure carries its artifact; a refused report leaves no file
        written = [f for f in files if f.startswith(f"{name}.")]
        assert written == ([f"{name}.json"] if stage == "floor" else [])
        assert failure_runs[2][2] == files

    @pytest.mark.parametrize("kind", ["monotone-check", "discretize-scan"])
    def test_a_non_finite_modulus_fails_monotone_check(self, tmp_path, kind):
        # |dx|^2 overflows at radius 1e300, so every sampled quotient is NaN
        exp = {"name": "huge", "kind": kind, "seed": 0, "radius": 1e300,
               "samples": 4, "space": {"basis": "abstract_orthonormal", "ambient_dim": 3},
               "layer": {"kind": "seeded_layer", "seed": 3, "lip_g": 0.5,
                         "activation": "tanh"}, "dims": [1, 3]}
        with np.errstate(invalid="ignore", over="ignore"):
            (outcome,) = _run_batch([exp], tmp_path)
        assert outcome["status"] == "failed"
        assert outcome["stage"] == "pairwise_alpha"
        assert outcome["error_type"] == "StageError"
        assert "not a finite modulus" in outcome["error"]
        assert list(tmp_path.glob("huge*")) == []

    @pytest.mark.parametrize("kind", ["monotone-check", "discretize-scan"])
    def test_all_degenerate_pairs_name_their_stage(self, tmp_path, kind):
        # |dx|^2 falls below 1e-24 at radius 1e-13, so every sampled pair is
        # skipped; the failure used to carry no stage
        exp = {"name": "tiny", "kind": kind, "seed": 0, "radius": 1e-13,
               "samples": 4, "space": {"basis": "abstract_orthonormal", "ambient_dim": 3},
               "layer": {"kind": "seeded_layer", "seed": 3, "lip_g": 0.5,
                         "activation": "tanh"}, "dims": [1, 3]}
        (outcome,) = _run_batch([exp], tmp_path)
        assert outcome["status"] == "failed"
        assert outcome["stage"] == "pairwise_alpha"
        assert "all sampled pairs were degenerate" in outcome["error"]

    def test_a_block_at_epsilon_fails_at_stage_blocks(self, tmp_path, monkeypatch):
        # the assembled result checks its blocks outside every decompose
        # stage; that check used to record stage null
        module = importlib.import_module("opdisc.decompose")
        path_blocks = module.path_blocks

        def first_block_at_epsilon(path, epsilon, *args, **kwargs):
            blocks, diag = path_blocks(path, epsilon, *args, **kwargs)
            return [dataclasses.replace(blocks[0], lip_sampled=epsilon), *blocks[1:]], diag

        monkeypatch.setattr(module, "path_blocks", first_block_at_epsilon)
        outcomes = _run_batch([{"name": "lip-at-eps", **_FAIL_DECOMPOSE}], tmp_path)
        with pytest.raises(SystemExit, match="^2$"):
            cli._finish(outcomes, tmp_path)
        (entry,) = json.loads((tmp_path / "failures.json").read_text())["failed"]
        assert entry["stage"] == "blocks"
        assert entry["error_type"] == "StageError"
        assert re.match(r"\[blocks\] block \S+ has Lip 0\.25, not below epsilon=0\.25$",
                        entry["error"])


class TestNumericFields:
    @pytest.mark.parametrize(
        "key,value",
        [("n", "x"), ("grid", "many"), ("bisect_tol", "tiny"), ("n", 5.7), ("grid", None)],
    )
    def test_a_bad_number_is_a_config_error(self, runner, tmp_path, key, value):
        exp = {"name": "g", "kind": "nogo-galerkin", "seed": 0, "path_kind": "a",
               "n": 3, "grid": 21, key: value}
        out = tmp_path / "out"
        result = runner.invoke(main, ["--config", str(write_config(tmp_path, [exp])),
                                      "--out", str(out)])
        assert result.exit_code == 1
        assert "config-error" in result.output
        outcome = _run_batch([exp], out)[0]
        assert outcome["status"] == "config-error"
        assert f"experiment 'g': {key} must be" in outcome["error"]
        assert not (out / "failures.json").exists()
        assert not (out / "g.csv").exists()

    def test_a_non_numeric_tolerance_is_a_config_error(self, tmp_path):
        exp = {**INVERT_BATCH[0], "tol": "tiny"}
        outcome = _run_batch([exp], tmp_path)[0]
        assert outcome["status"] == "config-error"
        assert "tol must be a number, got 'tiny'" in outcome["error"]

    def test_an_integral_float_counts_as_its_integer(self, tmp_path):
        exp = {"name": "g", "kind": "nogo-galerkin", "seed": 0, "path_kind": "a",
               "n": 5, "grid": 21}
        as_int, as_float = tmp_path / "int", tmp_path / "float"
        assert _run_batch([exp], as_int)[0]["status"] == "ok"
        assert _run_batch([{**exp, "n": 5.0, "grid": 21.0}], as_float)[0]["status"] == "ok"
        for ext in (".csv", ".json"):
            assert (as_int / f"g{ext}").read_bytes() == (as_float / f"g{ext}").read_bytes()

    def test_fractional_dims_are_refused(self, tmp_path):
        exp = {"name": "d", "kind": "discretize-scan", "seed": 0,
               "space": {"basis": "fourier", "ambient_dim": 8},
               "layer": {"kind": "seeded_layer", "seed": 3, "lip_g": 0.5},
               "dims": [2, 4.5], "samples": 8}
        outcome = _run_batch([exp], tmp_path)[0]
        assert outcome["status"] == "config-error"
        assert "dims must be integers" in outcome["error"]


def _scan_on(name, space):
    return {"name": name, "kind": "discretize-scan", "seed": 0, "space": space,
            "layer": {"kind": "seeded_layer", "seed": 3, "lip_g": 0.5},
            "dims": [1, 2], "samples": 8}


class TestSpaceSpecs:
    """A space that cannot be built is a config error naming the space
    reader, not a failed check; its valid twin in the same batch runs."""

    @pytest.mark.parametrize(
        "bad,good,message",
        [
            ({"basis": "chebyshev", "ambient_dim": 4}, {"basis": "fourier", "ambient_dim": 4},
             "space: unknown basis kind 'chebyshev'"),
            ({"basis": "fem_hat", "ambient_dim": 4},
             {"basis": "abstract_orthonormal", "ambient_dim": 4},
             "space: unknown basis kind 'fem_hat'"),
            ({"basis": "fourier", "ambient_dim": 0}, {"basis": "fourier", "ambient_dim": 2},
             "space: ambient_dim must be a positive integer"),
            ({"basis": "fourier", "ambient_dim": 4, "quadrature": 0},
             {"basis": "fourier", "ambient_dim": 4, "quadrature": 1},
             "space: quadrature_panels must be positive"),
        ],
        ids=["chebyshev", "fem-hat", "zero-dim", "zero-quadrature"],
    )
    def test_a_bad_space_is_a_config_error(self, runner, tmp_path, bad, good, message):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, [_scan_on("bad", bad), _scan_on("good", good)])
        result = runner.invoke(main, ["--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert f"config-error in bad: {message}" in result.output
        assert (out / "good.csv").exists()
        assert not (out / "bad.csv").exists()
        assert not (out / "failures.json").exists()


_FOURIER4 = {"basis": "fourier", "ambient_dim": 4}
_SEEDED_LAYER = {"kind": "seeded_layer", "seed": 3, "lip_g": 0.5}

# the parameters of one small valid experiment of each kind
ONE_OF_EACH_KIND = {
    "monotone-check": {"space": _FOURIER4, "layer": _SEEDED_LAYER, "dims": [4],
                       "samples": 8},
    "discretize-scan": {"space": _FOURIER4, "layer": _SEEDED_LAYER, "dims": [1, 2],
                        "samples": 8},
    "decompose": {"space": _FOURIER4, "layer": _SEEDED_LAYER, "epsilon": 0.4,
                  "radius": 1.0, "n_verify": 8},
    "invert": {"chain": CHAIN_SPEC, "y": [0.0] * 6},
    "nogo-galerkin": {"path_kind": "a", "n": 1, "grid": 5},
    "nogo-isotopy": {"m": 3, "grid": 5},
    "fem-solve": {"g": "zero", "mesh": [2, 4]},
    "quant-report": {"space": _FOURIER4, "layer": _SEEDED_LAYER, "dims": [1, 2],
                     "samples": 8},
}


class TestArtifactNames:
    @pytest.mark.parametrize("kind", sorted(ONE_OF_EACH_KIND))
    def test_an_out_key_is_a_config_error(self, runner, tmp_path, kind):
        # every artifact is named after its experiment, whose name is unique
        assert kind in cli.RUNNERS and len(ONE_OF_EACH_KIND) == len(cli.RUNNERS)
        params = {"kind": kind, "seed": 0, **ONE_OF_EACH_KIND[kind]}
        out = tmp_path / "out"
        cfg = write_config(
            tmp_path, [{"name": "good", **params}, {"name": "bad", "out": "custom", **params}]
        )
        result = runner.invoke(main, ["--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert f"ok  {kind}  good" in result.output
        assert f"config-error in bad: {kind}: unknown keys ['out']" in result.output
        assert all(path.name.startswith("good.") for path in out.iterdir())

    def test_every_kind_writes_one_envelope(self, tmp_path):
        # an integral float seed is read as an int, and written as one
        experiments = [{"name": kind, "kind": kind, "seed": 3.0, **params}
                       for kind, params in ONE_OF_EACH_KIND.items()]
        outcomes = _run_batch(experiments, tmp_path)
        assert [o["status"] for o in outcomes] == ["ok"] * len(experiments)
        for kind in ONE_OF_EACH_KIND:
            report = json.loads((tmp_path / f"{kind}.json").read_text())
            envelope = {key: report[key] for key in ("schema", "name", "kind", "seed")}
            assert envelope == {"schema": 1, "name": kind, "kind": kind, "seed": 3}
            assert type(report["seed"]) is int


class TestRefusedExperimentValues:
    """A value that its kind's key table refuses is a config error (exit 1)
    naming the kind and the key, found before any kernel runs or any
    artifact is written."""

    @pytest.mark.parametrize(
        "kind,key,value",
        [
            ("monotone-check", "samples", 1),
            ("nogo-galerkin", "grid", 1),
            ("nogo-isotopy", "bisect_tol", 0),
            ("fem-solve", "tol", -1),
            ("quant-report", "radius", -1),
            ("decompose", "composite_tol", -1),
            ("monotone-check", "radius", -1),
            ("discretize-scan", "samples", 0),
            ("invert", "tol", -1),
            ("nogo-isotopy", "seed", "abc"),
            ("nogo-galerkin", "seed", 2.5),
            ("fem-solve", "seed", None),
            ("invert", "seed", "x"),
            ("invert", "seed", True),
            ("invert", "y", [True, False, 0.0, 0.0, 0.0, 0.0]),
            ("nogo-isotopy", "m", "3"),
            ("decompose", "epsilon", 1.0),
            ("decompose", "epsilon", 2.0),
        ],
    )
    def test_a_refused_value_is_a_config_error(self, runner, tmp_path, kind, key, value):
        exp = {"name": "bad", "kind": kind, "seed": 0, **ONE_OF_EACH_KIND[kind], key: value}
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["--config", str(write_config(tmp_path, [exp])), "--out", str(out)]
        )
        assert result.exit_code == 1, result.output
        assert f"config-error in bad: {kind} experiment 'bad': {key} must be" in result.output
        # no failures.json and no artifact
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [("floor", "abc"), ("samples", 1)])
    def test_a_key_off_the_taken_branch_is_checked(self, tmp_path, key, value):
        # a layer without a structural certificate is recorded as rejected,
        # and its run never uses floor or samples
        exp = {"name": "wild", "kind": "monotone-check", "seed": 0, "space": _FOURIER4,
               "layer": {**_SEEDED_LAYER, "lip_g": 1.5}}
        assert _run_batch([exp], tmp_path / "good")[0]["status"] == "ok"
        assert json.loads((tmp_path / "good" / "wild.json").read_text())["rejected"] is True
        outcome = _run_batch([{**exp, key: value}], tmp_path / "bad")[0]
        assert outcome["status"] == "config-error"
        assert f"monotone-check experiment 'wild': {key} must be" in outcome["error"]
        assert not (tmp_path / "bad").exists()


def _key_table(keys: dict, flags: bool = True) -> list[str]:
    """The README table of one block of experiment keys, or of spec keys
    (``flags=False``: they have no flag column)."""
    head = "| key | type | default | check |" + (" flag |" if flags else "")
    rows = [head, "|---" * head.count(" |") + "|"]
    for key, entry in keys.items():
        if entry.default is cli._REQUIRED:
            default = "required"
        elif entry.default is None:
            default = "derived"
        else:
            default = f"`{json.dumps(entry.default)}`"
        check = "—" if entry.check is None else entry.check.text
        row = f"| `{key}` | {entry.type.name} | {default} | {check} |"
        if flags:
            flag = "—" if entry.flag is None else f"`{entry.flag.opt}`"
            if entry.flag is not None and entry.flag.load is not None:
                flag += " (file)"
            row += f" {flag} |"
        rows.append(row)
    return rows


def _readme_key_tables(heading: str) -> dict:
    """The tables of one README key section, by their label."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split(f"### {heading}\n", 1)[1].split("\n#", 1)[0]
    tables: dict = {}
    label = None
    for line in section.splitlines():
        if line.endswith(":") and not line.startswith("|"):
            label = line[:-1].strip("`")
        elif line.startswith("|"):
            tables.setdefault(label, []).append(line)
    return tables


def test_readme_key_tables_match_the_cli_table():
    expected = {"Every kind": _key_table(cli.SHARED_KEYS)}
    expected.update({kind: _key_table(keys) for kind, keys in cli.KEYS.items()})
    assert set(cli.KEYS) == set(cli.RUNNERS)
    assert _readme_key_tables("Experiment keys") == expected
    # the spec kinds that take keys besides their kind
    specs = {"space": _key_table(serialize.SPACE_KEYS, flags=False)}
    for kinds in SPEC_KINDS:
        specs.update({kind: _key_table(keys, flags=False)
                      for kind, (keys, _) in kinds.items() if keys})
    assert _readme_key_tables("Spec keys") == specs


class TestNemytskiiSpace:
    @pytest.mark.parametrize("activation", ["scaled_leaky(0.5)", "tanh"])
    def test_a_coefficient_only_space_is_a_config_error(self, runner, tmp_path, activation):
        exp = {"name": "nem", "kind": "monotone-check", "seed": 0, "samples": 8,
               "space": {"basis": "abstract_orthonormal", "ambient_dim": 8},
               "layer": {"kind": "layer", "in_op": _OPERATOR, "out_op": _OPERATOR,
                         "nonlin": {"kind": "nemytskii", "activation": activation}}}
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["--config", str(write_config(tmp_path, [exp])), "--out", str(out)]
        )
        assert result.exit_code == 1, result.output
        assert "basis kind 'abstract_orthonormal' has no pointwise realization" in (
            result.output
        )
        assert not (out / "failures.json").exists()

    @pytest.mark.parametrize("panels", [2, 4, None])
    def test_the_bound_is_the_discrete_maps(self, tmp_path, panels):
        """x − 0.9·B·W·(Bᵀx): 0.1·x on L², but its discrete bound is
        0.9·λ_max(G).  At 2 panels that is above 1 and the layer is
        rejected; at 4 it passes on the floor 1 − 0.9·λ_max(G), which
        certified 0.1 and failed before.  With the identity activation the
        map is the identity network, exact at every quadrature, so its bound
        is 0.9 and it passes on the floor 0.1."""
        eye = np.eye(16).tolist()
        space = {"basis": "fourier", "ambient_dim": 16}
        if panels is not None:
            space["quadrature"] = panels
        exps = [{"name": name, "kind": "monotone-check", "seed": 3, "samples": 64,
                 "space": space,
                 "layer": {"kind": "layer",
                           "in_op": {"kind": "finite_rank", "omegas": [1] * 16, "psi": eye,
                                     "phi": eye},
                           "out_op": {"kind": "finite_rank", "omegas": [0.9] * 16, "psi": eye,
                                      "phi": (-np.eye(16)).tolist()},
                           "nonlin": {"kind": "nemytskii", "activation": activation}}}
                for name, activation in (("nem", "leaky_relu(1)"), ("exact", "identity"))]
        outcomes = _run_batch(exps, tmp_path)
        assert [o["status"] for o in outcomes] == ["ok", "ok"], outcomes
        exact = json.loads((tmp_path / "exact.json").read_text())
        assert exact["contraction"] == 0.9
        assert exact["pass"] and not exact["rejected"]
        assert exact["floor"] == 1.0 - 0.9
        assert exact["alpha_min"] == pytest.approx(0.1, abs=1e-9)
        gram_max = space_from_config(space).quadrature_gram_max
        report = json.loads((tmp_path / "nem.json").read_text())
        assert report["contraction"] == 0.9 * gram_max
        if panels == 2:
            assert gram_max > 2.0
            assert report["rejected"]
            assert "contraction bound is not below one" in report["reason"]
            return
        assert report["pass"] and not report["rejected"]
        assert report["floor"] == 1.0 - 0.9 * gram_max
        if panels == 4:
            assert report["floor"] < 0.05 < report["alpha_min"]


class TestSeededLayerNonlin:
    @pytest.mark.parametrize(
        "nonlin,cls",
        [("nemytskii", NemytskiiNonlinearity),
         ("affine_contraction", CoordinateNetNonlinearity)],
    )
    def test_a_config_chooses_the_nonlinearity(self, tmp_path, nonlin, cls):
        space_spec = {"basis": "fourier", "ambient_dim": 8}
        path = tmp_path / "layer.json"
        path.write_text(json.dumps({
            "schema": 1,
            "space": space_spec,
            "layer": {"kind": "seeded_layer", "seed": 5, "lip_g": 0.4, "nonlin": nonlin},
        }))
        read = cli._layer_file(path)
        space = space_from_config(read["space"])
        layer = layer_from_spec(read["layer"], space)
        assert isinstance(layer.nonlin, cls)
        xs = ball_samples(8, 1.0, 16, seed=2)
        want = make_layer(space, nonlin=nonlin, lip_g=0.4, seed=5).eval_array(xs)
        assert np.array_equal(layer.eval_array(xs), want)


_NET = {"kind": "seeded_coordinate_network", "n_in": 4, "n_out": 4, "seed": 1}


class TestRefusedSpecValues:
    """A value that an object's constructor refuses is a config error naming
    the spec reader (exit 1), not a failed run (exit 2)."""

    @pytest.mark.parametrize(
        "exp,message",
        [
            ({**_bad_monotone_check({"kind": "seeded_layer", "seed": 3, "rank": 100}),
              "space": {"basis": "fourier", "ambient_dim": 8}},
             "layer: rank must lie in 1..8"),
            (_bad_monotone_check({"kind": "seeded_layer", "seed": 3, "lip_g": -1}),
             "layer: lip_g target must be nonnegative"),
            (_bad_monotone_check({"kind": "layer", "in_op": {**_OPERATOR, "rank": 100},
                                  "out_op": _OPERATOR, "nonlin": {"kind": "zero"}}),
             "operator: omegas, psi, phi must agree on the rank"),
            (_bad_invert({"kind": "residual_chain", "ambient_dim": 4, "prefix_n": 4,
                          "blocks": [{**_NET, "target_bound": -1}]}),
             "network: target Lipschitz bound must be nonnegative"),
            (_bad_invert({**_SEEDED_CHAIN, "prefix_n": 9}),
             "chain: prefix dimension must lie in 1..ambient_dim"),
            (_bad_invert({**_SEEDED_CHAIN, "delta": 1.5}),
             "chain: contraction bound must lie in (0, 1), got 1.5"),
            # a ball radius is only read under a delta; it used to be dropped
            (_bad_invert({"kind": "seeded_chain", "ambient_dim": 8, "num_blocks": 2,
                          "seed": 5, "activation": "recu", "ball_radius": 1.0}),
             "chain: ball_radius needs a contraction bound delta"),
        ],
        ids=["layer-rank", "layer-lip-g", "operator-rank", "network-target-bound",
             "chain-prefix-n", "chain-delta", "chain-ball-radius-without-delta"],
    )
    def test_a_refused_value_is_a_config_error(self, runner, tmp_path, exp, message):
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["--config", str(write_config(tmp_path, [exp])), "--out", str(out)]
        )
        assert result.exit_code == 1, result.output
        assert f"config-error in bad: {message}" in result.output
        assert not (out / "failures.json").exists()

    def test_a_zero_hidden_width_spares_the_rest_of_the_batch(self, runner, tmp_path):
        # a zero width used to escape the reader as a ZeroDivisionError that
        # stopped the whole batch before any outcome line
        bad = _bad_monotone_check({"kind": "seeded_layer", "seed": 3, "hidden": [0]})
        after = {"name": "after", "kind": "nogo-isotopy", "seed": 0, "m": 3, "grid": 11}
        out = tmp_path / "out"
        cfg = write_config(tmp_path, [bad, after])
        result = runner.invoke(main, ["--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        lines = [line.split() for line in result.output.splitlines()]
        assert lines[:2] == [["config-error", "monotone-check", "bad"],
                             ["ok", "nogo-isotopy", "after"]]
        assert "config-error in bad: layer: hidden must" in result.output
        assert (out / "after.json").exists()


class TestSubcommands:
    def test_nogo_isotopy_artifacts(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["--out", str(out), "nogo-isotopy", "--m", "7", "--grid", "41"]
        )
        assert result.exit_code == 0, result.output
        lines = (out / "nogo-isotopy.csv").read_text().splitlines()
        assert lines[0] == "t,det,min_sv"
        assert len(lines) == 42
        blob = json.loads((out / "nogo-isotopy.json").read_text())
        assert blob["det_endpoint_signs"] == [1, -1]
        assert abs(blob["crossings"][0][0] - 7.0 / 18.0) < 1e-6

    def test_nogo_galerkin_artifacts(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["--out", str(out), "nogo-galerkin", "--kind", "a", "--n", "5", "--grid", "41"],
        )
        assert result.exit_code == 0, result.output
        lines = (out / "nogo-galerkin.csv").read_text().splitlines()
        assert lines[0] == "s,det,min_sv"
        blob = json.loads((out / "nogo-galerkin.json").read_text())
        assert blob["det_endpoint_signs"] == [1, -1]
        assert abs(blob["det_at_star"]) < 1e-10

    def test_nogo_galerkin_refuses_even_n(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["--out", str(tmp_path / "o"), "nogo-galerkin", "--kind", "a", "--n", "4"],
        )
        assert result.exit_code == 1
        assert "odd" in result.output

    def test_fem_solve_artifacts(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["--out", str(out), "fem-solve", "--g", "linear", "--mesh", "16,32,64"],
        )
        assert result.exit_code == 0, result.output
        lines = (out / "fem-solve.csv").read_text().splitlines()
        assert lines[0] == "cells,h1_error,ratio"
        last_ratio = lines[-1].split(",")[2]
        assert last_ratio == "nan"
        blob = json.loads((out / "fem-solve.json").read_text())
        for ratio in blob["ratios"]:
            assert 1.7 <= ratio <= 2.3
        assert blob["newton"]["energies"][-1] < blob["newton"]["energies"][0]

    def test_fem_solve_refuses_non_nesting_meshes(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["--out", str(tmp_path / "o"), "fem-solve", "--g", "zero", "--mesh", "10,24"],
        )
        assert result.exit_code == 1
        assert "divide" in result.output

    @pytest.mark.parametrize("mesh", ["1,2", "0,2"])
    def test_fem_solve_refuses_a_mesh_below_two_cells(self, runner, tmp_path, mesh):
        out = tmp_path / "o"
        result = runner.invoke(
            main, ["--out", str(out), "fem-solve", "--g", "zero", "--mesh", mesh]
        )
        assert result.exit_code == 1
        assert "at least 2 cells" in result.output
        assert not (out / "failures.json").exists()

    def test_fem_solve_config_mesh_must_be_integers(self, runner, tmp_path):
        config = write_config(
            tmp_path,
            [{"name": "f", "kind": "fem-solve", "seed": 0, "g": "zero", "mesh": [8, "x"]}],
        )
        result = runner.invoke(main, ["--config", str(config), "--out", str(tmp_path / "o")])
        assert result.exit_code == 1
        assert "config-error" in result.output

    @pytest.mark.parametrize(
        "command,flag",
        [
            ("monotone-check", "--dims"),
            ("discretize-scan", "--dims"),
            ("quant-report", "--dims"),
            ("fem-solve", "--mesh"),
        ],
    )
    def test_comma_list_flags_refuse_non_integers(self, runner, tmp_path, command, flag):
        result = runner.invoke(main, ["--out", str(tmp_path / "o"), command, flag, "16,abc"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a clean exit, no traceback
        assert f"{flag} wants comma-separated integers" in result.output

    @pytest.mark.parametrize(
        "command,flag,where",
        [("monotone-check", "--layer", "layer file"), ("invert", "--chain", "chain file"),
         ("invert", "--y", "y file")],
    )
    def test_a_bad_file_flag_is_a_clean_config_error(self, runner, tmp_path, command, flag,
                                                     where):
        # a refused file used to escape as a SpecError traceback
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": 2}))
        result = runner.invoke(main, ["--out", str(tmp_path / "o"), command, flag, str(bad)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"Error: {where}:" in result.output

    @pytest.mark.parametrize(
        "text,args,message",
        [
            ('{"schema": 1,', ["--config", "FILE"], "not valid JSON"),
            ('{"schema": 1,', ["--config", "FILE", "nogo-isotopy", "--m", "7"], "not valid JSON"),
            ('{"schema": 1,', ["monotone-check", "--layer", "FILE"], "not valid JSON"),
            ("[1, 2]", ["--config", "FILE", "nogo-isotopy", "--m", "7"],
             "config: expected an object, got list"),
            ('{"m": 7}', ["--config", "FILE", "nogo-isotopy"],
             "every experiment carries an explicit seed"),
        ],
    )
    def test_a_malformed_config_file_is_a_clean_config_error(self, runner, tmp_path, text,
                                                             args, message):
        # unparsable JSON, a non-object config and a seedless one used to
        # escape as tracebacks
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "o"
        args = [str(bad) if a == "FILE" else a for a in args]
        result = runner.invoke(main, ["--out", str(out), *args])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Error: " in result.output and message in result.output
        assert "Traceback" not in result.output
        assert not out.exists()

    def test_monotone_check_report(self, runner, tmp_path, layer_file):
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            [
                "--out",
                str(out),
                "monotone-check",
                "--layer",
                str(layer_file),
                "--samples",
                "24",
            ],
        )
        assert result.exit_code == 0, result.output
        blob = json.loads((out / "monotone-check.json").read_text())
        assert blob["pass"] is True and blob["rejected"] is False
        assert blob["alpha_min"] >= blob["floor"] - 1e-6
        for row in blob["scan"]:
            assert row["estimate_hash"] == blob_hash(row["estimate"])

    def test_monotone_check_spreads_its_default_dims(self, runner, tmp_path):
        layer = tmp_path / "layer16.json"
        layer.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "space": {"basis": "fourier", "ambient_dim": 16},
                    "layer": {"kind": "seeded_layer", "seed": 3, "lip_g": 0.5},
                }
            )
        )
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["--out", str(out), "monotone-check", "--layer", str(layer), "--samples", "8"],
        )
        assert result.exit_code == 0, result.output
        blob = json.loads((out / "monotone-check.json").read_text())
        assert [row["dim"] for row in blob["scan"]] == [1, 3, 5, 7, 9, 11, 13, 16]

    def test_a_failed_subcommand_exits_2_with_a_report(self, runner, tmp_path):
        cfg = tmp_path / "single.json"
        cfg.write_text(
            json.dumps(
                {
                    "name": "toohigh",
                    "kind": "monotone-check",
                    "seed": 1,
                    "space": {"basis": "fourier", "ambient_dim": 8},
                    "layer": {"kind": "seeded_layer", "seed": 1, "lip_g": 0.5},
                    # above 1 + lip, the largest pair quotient there can be
                    "floor": 2.0,
                    "samples": 16,
                }
            )
        )
        out = tmp_path / "out"
        result = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "monotone-check"])
        assert result.exit_code == 2
        assert result.stdout == "      failed  monotone-check  toohigh\n"
        assert result.stderr.startswith("failed in toohigh: [floor] sampled alpha")
        failed = json.loads((out / "failures.json").read_text())["failed"]
        assert [o["name"] for o in failed] == ["toohigh"]
        assert json.loads((out / "toohigh.json").read_text())["pass"] is False

    def test_monotone_check_records_a_rejection(self, runner, tmp_path):
        # a residual bound above 1 certifies nothing: the run records that
        # and succeeds, because a rejection is a finding, not a failure
        layer = tmp_path / "wild.json"
        layer.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "space": {"basis": "fourier", "ambient_dim": 8},
                    "layer": {"kind": "seeded_layer", "seed": 1, "lip_g": 1.5},
                }
            )
        )
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["--out", str(out), "monotone-check", "--layer", str(layer)]
        )
        assert result.exit_code == 0, result.output
        blob = json.loads((out / "monotone-check.json").read_text())
        assert blob["rejected"] is True
        assert "reason" in blob

    def test_discretize_scan_artifacts(self, runner, tmp_path, layer_file):
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            [
                "--out",
                str(out),
                "discretize-scan",
                "--layer",
                str(layer_file),
                "--dims",
                "2,4,8",
                "--samples",
                "24",
            ],
        )
        assert result.exit_code == 0, result.output
        lines = (out / "discretize-scan.csv").read_text().splitlines()
        assert lines[0] == "dim,functor_a_error,weak_error,alpha_hat"
        assert len(lines) == 4
        meta = json.loads((out / "discretize-scan.json").read_text())
        assert meta["schema"] == 1

    def test_dims_outside_the_space_are_refused(self, runner, tmp_path, layer_file):
        result = runner.invoke(
            main,
            [
                "--out",
                str(tmp_path / "o"),
                "discretize-scan",
                "--layer",
                str(layer_file),
                "--dims",
                "2,4,16",
            ],
        )
        assert result.exit_code == 1
        assert "1..8" in result.output

    def test_decompose_result_is_replayable(self, runner, tmp_path, layer_file):
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            [
                "--out",
                str(out),
                "decompose",
                "--layer",
                str(layer_file),
                "--epsilon",
                "0.4",
                "--radius",
                "1.0",
            ],
        )
        assert result.exit_code == 0, result.output
        blob = json.loads((out / "decompose.json").read_text())
        assert blob["j"] >= 1
        replay = blob["replay"]
        assert replay["epsilon"] == 0.4 and replay["seed"] == 0
        assert replay["layer"] == {"kind": "seeded_layer", "seed": 3, "lip_g": 0.5}

    def test_invert_recovers_the_preimage(self, runner, tmp_path, chain_and_target):
        chain_path, y_path, x = chain_and_target
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["--out", str(out), "invert", "--chain", str(chain_path), "--y", str(y_path)],
        )
        assert result.exit_code == 0, result.output
        blob = json.loads((out / "invert.json").read_text())
        assert np.max(np.abs(np.asarray(blob["x"]) - x)) < 1e-8
        assert blob["trace"]["iteration_counts"]
        assert blob["roundtrip_target"] < 1e-8

    def test_invert_max_iter_is_a_config_error(self, runner, tmp_path):
        # the iteration budget is derived, not set
        exp = {**INVERT_BATCH[0], "max_iter": 10}
        out = tmp_path / "out"
        result = runner.invoke(main, ["--config", str(write_config(tmp_path, [exp])),
                                      "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert "config-error in inv0: invert: unknown keys ['max_iter']" in result.output
        outcome = _run_batch([exp], out)[0]
        assert outcome["status"] == "config-error"
        assert "unknown keys ['max_iter']" in outcome["error"]
        single = tmp_path / "single.json"
        single.write_text(json.dumps({"schema": 1, **exp}))
        result = runner.invoke(main, ["--config", str(single), "--out", str(out), "invert"])
        assert result.exit_code == 1
        assert "max_iter" in result.output
        assert not (out / "failures.json").exists()
        result = runner.invoke(main, ["--out", str(out), "invert", "--max-iter", "5"])
        assert "No such option" in result.output

    def test_invert_rejects_wrong_length_target(self, runner, tmp_path, chain_and_target):
        chain_path, _, _ = chain_and_target
        bad = tmp_path / "bad_y.json"
        bad.write_text(json.dumps({"schema": 1, "y": [0.0, 1.0]}))
        result = runner.invoke(
            main,
            [
                "--out",
                str(tmp_path / "o"),
                "invert",
                "--chain",
                str(chain_path),
                "--y",
                str(bad),
            ],
        )
        assert result.exit_code == 1
        assert "finite numbers" in result.output

    @pytest.mark.parametrize(
        "e", [[[0.5, 0.5], [0.5, 0.5]], [1.0, 0.0, 0.0]], ids=["nested", "short"]
    )
    def test_invert_refuses_a_bad_reflection_head(self, runner, tmp_path, e):
        # a nested e used to be flattened into a reflection nobody asked for,
        # and a short one ended as a failed run (exit 2) instead of a config error
        exp = {
            "name": "inv",
            "kind": "invert",
            "seed": 0,
            "chain": {"kind": "seeded_chain", "ambient_dim": 4, "num_blocks": 3,
                      "seed": 51, "delta": 0.5},
            "head": {"kind": "reflection", "e": e},
            "y": [0.1, -0.2, 0.3, 0.05],
        }
        out = tmp_path / "out"
        cfg = write_config(tmp_path, [exp])
        result = runner.invoke(main, ["--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert "config-error" in result.output
        assert not (out / "inv.json").exists()
        assert not (out / "failures.json").exists()

    @pytest.mark.parametrize("reader", sorted(NON_OBJECT_SPECS))
    def test_a_non_object_spec_is_a_config_error(self, runner, tmp_path, reader):
        # a string where a spec object belongs used to escape as an
        # AttributeError and stop the whole batch
        after = {"name": "after", "kind": "nogo-isotopy", "seed": 0, "m": 3, "grid": 11}
        out = tmp_path / "out"
        cfg = write_config(tmp_path, [NON_OBJECT_SPECS[reader], after])
        result = runner.invoke(main, ["--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Traceback" not in result.output
        lines = [line.split() for line in result.output.splitlines()]
        assert lines[0][0] == "config-error" and lines[0][-1] == "bad"
        assert lines[1] == ["ok", "nogo-isotopy", "after"]
        assert (out / "after.json").exists()

    @pytest.mark.parametrize("value", ["eight", 2.7], ids=["string", "fractional"])
    @pytest.mark.parametrize("reader", BAD_NUMBER_READERS)
    def test_a_bad_spec_number_is_a_config_error(self, runner, tmp_path, reader, value):
        # a string count used to end as a failed run (exit 2) and a
        # fractional one was truncated without a word
        after = {"name": "after", "kind": "nogo-isotopy", "seed": 0, "m": 3, "grid": 11}
        out = tmp_path / "out"
        cfg = write_config(tmp_path, [_bad_number_spec(reader, value), after])
        result = runner.invoke(main, ["--config", str(cfg), "--out", str(out)])
        assert result.exit_code == 1, result.output
        lines = [line.split() for line in result.output.splitlines()]
        assert lines[0][0] == "config-error" and lines[0][-1] == "bad"
        assert lines[1] == ["ok", "nogo-isotopy", "after"]
        assert not (out / "failures.json").exists()
        assert not (out / "bad.json").exists()
        outcome = _run_batch([_bad_number_spec(reader, value)], tmp_path / "direct")[0]
        assert f"must be an integer, got {value!r}" in outcome["error"]

    def test_the_bad_number_specs_are_valid_with_a_count(self, tmp_path):
        outcomes = _run_batch(
            [{**_bad_number_spec(r, 4), "name": r} for r in BAD_NUMBER_READERS], tmp_path
        )
        assert [o["status"] for o in outcomes] == ["ok"] * len(BAD_NUMBER_READERS)

    def test_quant_report_artifacts(self, runner, tmp_path, layer_file):
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            [
                "--out",
                str(out),
                "quant-report",
                "--layer",
                str(layer_file),
                "--dims",
                "2,4,8",
                "--samples",
                "24",
            ],
        )
        assert result.exit_code == 0, result.output
        lines = (out / "quant-report.csv").read_text().splitlines()
        assert lines[0] == "dim,epsilon_v"
        assert len(lines) == 4
        blob = json.loads((out / "quant-report.json").read_text())
        assert len(blob["rows"]) == 3

    def test_subcommand_csv_is_byte_reproducible(self, runner, tmp_path):
        blobs = []
        for tag in ("one", "two"):
            out = tmp_path / tag
            result = runner.invoke(
                main,
                ["--out", str(out), "nogo-galerkin", "--kind", "b", "--n", "7", "--grid", "31"],
            )
            assert result.exit_code == 0
            blobs.append((out / "nogo-galerkin.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_multi_experiment_config_refuses_a_subcommand(self, runner, tmp_path):
        cfg = write_config(
            tmp_path, [{"name": "iso", "kind": "nogo-isotopy", "seed": 0, "m": 3}]
        )
        result = runner.invoke(
            main,
            ["--config", str(cfg), "--out", str(tmp_path / "o"), "nogo-isotopy", "--m", "3"],
        )
        assert result.exit_code == 1
        assert "without a subcommand" in result.output

    def test_single_experiment_config_backs_a_subcommand(self, runner, tmp_path):
        cfg = tmp_path / "single.json"
        cfg.write_text(
            json.dumps(
                {"name": "iso3", "kind": "nogo-isotopy", "seed": 0, "m": 3, "grid": 21}
            )
        )
        out = tmp_path / "out"
        result = runner.invoke(
            main, ["--config", str(cfg), "--out", str(out), "nogo-isotopy"]
        )
        assert result.exit_code == 0, result.output
        assert (out / "iso3.csv").exists()

    @pytest.mark.parametrize("schema", [99, True, "1"])
    def test_a_single_experiment_config_reads_its_schema(self, runner, tmp_path, schema):
        cfg = tmp_path / "single.json"
        cfg.write_text(json.dumps({"schema": schema, "name": "iso3", "kind": "nogo-isotopy",
                                   "seed": 0, "m": 3, "grid": 21}))
        out = tmp_path / "out"
        result = runner.invoke(main, ["--config", str(cfg), "--out", str(out), "nogo-isotopy"])
        assert result.exit_code == 1, result.output
        assert f"config: unsupported schema {schema!r}" in result.output
        assert not out.exists()


# every subcommand's options as its --help lists them: flag and metavar
HELP_OPTIONS = {
    "monotone-check": ["--layer FILE", "--dims TEXT", "--radius FLOAT", "--samples INTEGER",
                       "--seed INTEGER", "--name TEXT", "--help"],
    "discretize-scan": ["--layer FILE", "--dims TEXT", "--radius FLOAT", "--samples INTEGER",
                        "--seed INTEGER", "--name TEXT", "--help"],
    "decompose": ["--layer FILE", "--epsilon FLOAT", "--radius FLOAT", "--seed INTEGER",
                  "--name TEXT", "--help"],
    "invert": ["--chain FILE", "--y FILE", "--tol FLOAT", "--seed INTEGER", "--name TEXT",
               "--help"],
    "nogo-galerkin": ["--kind [a|b]", "--n INTEGER", "--grid INTEGER", "--bisect-tol FLOAT",
                      "--seed INTEGER", "--name TEXT", "--help"],
    "nogo-isotopy": ["--m INTEGER", "--grid INTEGER", "--bisect-tol FLOAT", "--seed INTEGER",
                     "--name TEXT", "--help"],
    "fem-solve": ["--g [cubic|linear|zero]", "--mesh TEXT", "--seed INTEGER", "--name TEXT",
                  "--help"],
    "quant-report": ["--layer FILE", "--dims TEXT", "--radius FLOAT", "--samples INTEGER",
                     "--seed INTEGER", "--name TEXT", "--help"],
}


@pytest.mark.parametrize("kind", sorted(HELP_OPTIONS))
def test_subcommand_help_lists_its_options(runner, kind):
    assert kind in cli.RUNNERS and len(HELP_OPTIONS) == len(cli.RUNNERS)
    result = runner.invoke(main, [kind, "--help"])
    assert result.exit_code == 0, result.output
    options = re.findall(r"^  (--\S+(?: \S+)?)", result.output, re.MULTILINE)
    assert options == HELP_OPTIONS[kind]


def _quant_rows(tmp_path, nonlin: dict) -> list[dict]:
    """quant-report rows at prefixes 2 and 4 of R^8 for the layer
    x -> x + P nonlin(P x), where P projects onto the last coordinate."""
    last = [[0.0] * 7 + [1.0]]
    project = {"kind": "finite_rank", "omegas": [1.0], "psi": last, "phi": last}
    exp = {"name": "quant", "kind": "quant-report", "seed": 0, "samples": 16, "dims": [2, 4],
           "space": {"basis": "abstract_orthonormal", "ambient_dim": 8},
           "layer": {"kind": "layer", "in_op": project, "out_op": project, "nonlin": nonlin}}
    (outcome,) = _run_batch([exp], tmp_path)
    assert outcome["status"] == "ok", outcome
    return json.loads((tmp_path / "quant.json").read_text())["rows"]


class TestQuantReport:
    def test_identity_layer_reports_zero_rows(self, tmp_path):
        rows = _quant_rows(tmp_path, {"kind": "zero"})
        assert rows == [{"dim": 2, "epsilon_v": 0.0}, {"dim": 4, "epsilon_v": 0.0}]

    def test_a_constant_tail_is_measured_at_every_prefix(self, tmp_path):
        shift = {"kind": "affine", "matrix": [[0.0] * 8] * 8, "bias": [0.0] * 7 + [0.01]}
        rows = _quant_rows(tmp_path, shift)
        assert [row["dim"] for row in rows] == [2, 4]
        assert [row["epsilon_v"] for row in rows] == [pytest.approx(0.01)] * 2

    def test_known_sources_cover_the_reactions(self):
        assert set(SOURCES) == {"zero", "linear", "cubic"}


class TestAccept:
    def test_subset_runs_and_reports(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, ["--out", str(out), "accept", "--only", "7,8"])
        assert result.exit_code == 0, result.output
        assert result.output.count("PASS") == 2
        blob = json.loads((out / "acceptance.json").read_text())
        assert [r["criterion"] for r in blob["results"]] == [7, 8]
        assert all(r["passed"] for r in blob["results"])

    def test_rejects_nonsense_numbers(self, runner, tmp_path):
        result = runner.invoke(
            main, ["--out", str(tmp_path / "o"), "accept", "--only", "seven"]
        )
        assert result.exit_code == 1

    def test_rejects_unknown_criteria(self, runner, tmp_path):
        result = runner.invoke(
            main, ["--out", str(tmp_path / "o"), "accept", "--only", "42"]
        )
        assert result.exit_code != 0
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert "Error: unknown criterion numbers: [42]" in result.output
        assert "Traceback" not in result.output

    def test_a_failing_criterion_exits_2_with_failures(self, runner, tmp_path, monkeypatch):
        def broken():
            raise AssertionError("deliberately broken")

        criteria = tuple(
            (num, name, broken if num == 7 else fn) for num, name, fn in acceptance.CRITERIA
        )
        monkeypatch.setattr(acceptance, "CRITERIA", criteria)
        out = tmp_path / "out"
        result = runner.invoke(main, ["--out", str(out), "accept", "--only", "7,8"])
        assert result.exit_code == 2
        assert "FAIL  criterion  7" in result.output and "PASS  criterion  8" in result.output
        failed = json.loads((out / "failures.json").read_text())["failed"]
        assert [r["criterion"] for r in failed] == [7]
        assert failed[0]["detail"] == {"error": "AssertionError: deliberately broken",
                                       "stage": None}
