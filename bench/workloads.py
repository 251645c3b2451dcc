"""The three seeded workloads of the opdisc benchmark.

A workload turns a workload seed into inputs (``generate``), runs one pass
over those inputs through opdisc's public entry points (``run_pass``) and
checks a pass's outputs (``check``).  A pass returns one ``OpResult`` per
operation; ``digest`` hashes an operation's artifacts, so two repetitions
can be compared bit for bit.  Digests are taken outside the timed pass.

Why these three (the benchmark's README says more):

* ``factorize`` is the ``decompose`` sweep of acceptance criterion 4 on
  seeded mixing layers.  Small-m, row-at-a-time map evaluation inside the
  damped and Newton inverters does almost all the work, so batching and
  Anderson-style changes show here first.
* ``certify`` is a jobs-1 ``run_config`` batch of monotonicity, prefix
  discretization and quantization reports at m in {16, 64, 256}: the same
  ``layers`` code used as large-m single-row GEMV, plus heavy layer
  construction; ``decompose`` does no work.
* ``solve`` is a jobs-2 ``run_config`` batch of chain inversions, FEM
  solves and no-go scans.  It barely touches map evaluation (batching
  should leave it unchanged) and is the only workload where the thread
  pool and peak memory matter.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


def _opdisc(name: str):
    """An opdisc submodule, looked up at call time so tracing sees the call."""
    return importlib.import_module(f"opdisc.{name}")


def _plain(obj):
    """JSON-ready copy of nested containers holding numpy values."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


def json_digest(obj) -> str:
    """sha256 of a canonical JSON form; floats keep every bit (repr)."""
    text = json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def files_digest(paths) -> str:
    """sha256 over the names and bytes of artifact files, in name order."""
    h = hashlib.sha256()
    for path in sorted(paths, key=lambda p: p.name):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _sub_seeds(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng(seed)
    return [int(s) for s in rng.integers(0, 2**31, size=count)]


@dataclass
class OpResult:
    """One operation of a pass: its output, or the error it raised."""

    error: str | None = None
    output: object = None


# ---------------------------------------------------------------------------
# factorize: decompose on mixing bilipschitz layers
# ---------------------------------------------------------------------------


class Factorize:
    name = "factorize"
    jobs = 1
    why = (
        "decompose sweep of criterion 4: row-at-a-time core-map calls in the "
        "damped and Newton inverters dominate, so batching shows here first"
    )
    dim = 16
    epsilons = (0.4, 0.25, 0.2, 0.1, 0.05)
    # contraction 0.7 leaves a monotonicity margin below decompose's 0.2
    # threshold, so this layer runs the Newton inverter and the
    # finite-difference Jacobian
    newton_kappa = 0.7
    newton_epsilon = 0.4
    radius = 1.0
    # criterion 4 resamples 64 points for the block constants; the same
    # fresh points check the composite (decompose verifies 200 of its own)
    check_samples = 64

    def generate(self, seed: int) -> dict:
        acceptance = _opdisc("acceptance")
        layer_seed, newton_seed, check_seed = _sub_seeds(seed, 3)
        layer = acceptance.mixing_bilipschitz_layer(self.dim, seed=layer_seed)
        newton = acceptance.mixing_bilipschitz_layer(
            self.dim, kappa=self.newton_kappa, seed=newton_seed
        )
        ops = [(f"eps{e:g}", layer, e) for e in self.epsilons]
        ops.append((f"newton-eps{self.newton_epsilon:g}", newton, self.newton_epsilon))
        return {"ops": ops, "check_seed": check_seed}

    def run_pass(self, inputs: dict, out_dir: Path) -> dict:
        decompose = _opdisc("decompose")
        results = {}
        for name, layer, eps in inputs["ops"]:
            try:
                res = decompose.decompose(layer, eps, self.radius, seed=0)
            except (RuntimeError, ValueError, AssertionError) as err:
                results[name] = OpResult(f"{type(err).__name__}: {err}")
                continue
            results[name] = OpResult(output=res)
        return results

    def digest(self, name: str, result: OpResult, out_dir: Path) -> str:
        res = result.output
        return json_digest(
            {
                "j": res.j,
                "epsilon": res.epsilon,
                "r1": res.r1,
                "diagnostics": res.diagnostics,
                "blocks": [[getattr(b, "label", "?"), b.lip_sampled] for b in res.blocks],
            }
        )

    def check(self, inputs: dict, results: dict, out_dir: Path) -> dict:
        """Criterion 4's thresholds: every block's resampled residual Lip is
        below epsilon, and the composite reproduces the layer to 1e-6."""
        ball_samples = _opdisc("monotone").ball_samples
        xs = ball_samples(self.dim, self.radius, self.check_samples, seed=inputs["check_seed"])
        failures = {}
        for name, layer, eps in inputs["ops"]:
            if results[name].error:
                continue
            res = results[name].output
            problems = []
            for k, block in enumerate(res.blocks):
                lip = _pairwise_residual_lip(block, xs)
                if not lip < eps:
                    problems.append(f"block {k} resampled residual Lip {lip:.6g} >= {eps}")
            gap = float(
                np.max(np.linalg.norm(res.eval_array(xs) - layer.eval_array(xs), axis=1))
            )
            if not gap <= 1e-6:
                problems.append(f"composite gap {gap:.3g} > 1e-6")
            failures[name] = problems
        return failures


def _pairwise_residual_lip(block, xs: np.ndarray) -> float:
    """max over sample pairs of |(B(x)-x) - (B(y)-y)| / |x-y|."""
    res = block.eval_array(xs) - xs
    i, j = np.triu_indices(xs.shape[0], k=1)
    dx = np.linalg.norm(xs[i] - xs[j], axis=1)
    dr = np.linalg.norm(res[i] - res[j], axis=1)
    good = dx > 0.0
    return float(np.max(dr[good] / dx[good]))


# ---------------------------------------------------------------------------
# config batches through cli.run_config
# ---------------------------------------------------------------------------


class _Batch:
    """A config batch through ``cli.run_config``; artifacts are files."""

    jobs = 1

    def run_pass(self, inputs: dict, out_dir: Path, jobs: int | None = None) -> dict:
        cli = _opdisc("cli")
        outcomes = cli.run_config(inputs["config"], out_dir, jobs or self.jobs, None)
        return {
            o["name"]: OpResult(None if o["status"] == "ok" else f"{o['status']}: {o.get('error')}")
            for o in outcomes
        }

    def digest(self, name: str, result: OpResult, out_dir: Path) -> str:
        return files_digest(p for p in out_dir.glob(f"{name}.*") if p.is_file())


def _csv_column(path: Path, column: str) -> list[float]:
    with open(path, newline="") as fh:
        rows = csv.DictReader(line for line in fh if not line.startswith("#"))
        return [float(row[column]) for row in rows]


def _load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


class Certify(_Batch):
    name = "certify"
    why = (
        "jobs-1 prefix certificates at m in {16, 64, 256}: large-m single-row "
        "GEMV and layer construction; decompose does no work"
    )
    ambient_dims = (16, 64, 256)
    kinds = ("monotone-check", "discretize-scan", "quant-report")
    samples = 128
    prefix_count = 8

    def generate(self, seed: int) -> dict:
        seeds = iter(_sub_seeds(seed, len(self.ambient_dims) * len(self.kinds)))
        experiments = []
        for m in self.ambient_dims:
            dims = sorted({int(d) for d in np.linspace(1, m, self.prefix_count)})
            for kind in self.kinds:
                s = next(seeds)
                experiments.append(
                    {
                        "name": f"{kind}-m{m}",
                        "kind": kind,
                        "seed": s,
                        "space": {"basis": "fourier", "ambient_dim": m},
                        "layer": {"kind": "seeded_layer", "seed": s, "lip_g": 0.5, "rank": 8},
                        "dims": dims,
                        "samples": self.samples,
                    }
                )
        return {"config": {"schema": 1, "experiments": experiments}}

    def check(self, inputs: dict, results: dict, out_dir: Path) -> dict:
        """Every prefix modulus is at least its floor; every range-tail
        column of the CSV reports is finite."""
        failures = {}
        for exp in inputs["config"]["experiments"]:
            name, kind = exp["name"], exp["kind"]
            if results[name].error:
                continue
            problems = []
            if kind == "monotone-check":
                report = _load(out_dir / f"{name}.json")
                if report.get("rejected", True):
                    problems.append("layer was refused a monotonicity certificate")
                for row in report.get("scan", []):
                    if not row["alpha_hat"] >= report["floor"] - 1e-6:
                        problems.append(
                            f"prefix {row['dim']}: modulus {row['alpha_hat']:.6g} "
                            f"below floor {report['floor']:.6g}"
                        )
            else:
                column = "functor_a_error" if kind == "discretize-scan" else "epsilon_v"
                values = _csv_column(out_dir / f"{name}.csv", column)
                if len(values) != len(exp["dims"]) or not all(map(math.isfinite, values)):
                    problems.append(f"range-tail column {column} is not finite: {values}")
            failures[name] = problems
        return failures


class Solve(_Batch):
    name = "solve"
    jobs = 2
    why = (
        "jobs-2 batch of chain inversions, FEM solves and no-go scans: thread "
        "pool and peak memory; batched map evaluation should not move it"
    )
    chains = 4
    targets_per_chain = 40
    chain_dim = 16
    chain_blocks = 3
    delta = 0.9
    fem_mesh = (16, 32, 64, 128, 256)
    galerkin_n = (5, 11, 21)
    isotopy_m = (7, 15, 31)

    def generate(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        # the two FEM solves come first so that both pool workers start on
        # them together: their dense hat matrices always overlap, which keeps
        # peak memory a property of the batch, not of thread timing
        experiments = [
            {"name": f"fem-{g}", "kind": "fem-solve", "seed": 0, "g": g, "mesh": list(self.fem_mesh)}
            for g in ("linear", "cubic")
        ]
        for kind in ("a", "b"):
            for n in self.galerkin_n:
                experiments.append(
                    {"name": f"galerkin-{kind}{n}", "kind": "nogo-galerkin", "seed": 0,
                     "path_kind": kind, "n": n}
                )
        for m in self.isotopy_m:
            experiments.append({"name": f"isotopy-m{m}", "kind": "nogo-isotopy", "seed": 0, "m": m})
        for c in range(self.chains):
            chain_seed = int(rng.integers(0, 2**31))
            chain = {
                "kind": "seeded_chain",
                "ambient_dim": self.chain_dim,
                "num_blocks": self.chain_blocks,
                "seed": chain_seed,
                "delta": self.delta,
            }
            for t in range(self.targets_per_chain):
                y = rng.standard_normal(self.chain_dim)
                y *= rng.uniform() ** (1.0 / self.chain_dim) / np.linalg.norm(y)
                experiments.append(
                    {"name": f"invert-c{c}-t{t}", "kind": "invert", "seed": chain_seed,
                     "chain": chain, "y": y.tolist()}
                )
        return {"config": {"schema": 1, "experiments": experiments}}

    def check(self, inputs: dict, results: dict, out_dir: Path) -> dict:
        """Each inversion round-trips within its roundtrip_target; FEM H1
        ratios lie in [1.7, 2.3]; every no-go scan brackets its crossing."""
        chain_from_spec = _opdisc("serialize").chain_from_spec
        chains = {}
        failures = {}
        for exp in inputs["config"]["experiments"]:
            name, kind = exp["name"], exp["kind"]
            if results[name].error:
                continue
            report = _load(out_dir / f"{name}.json")
            problems = []
            if kind == "invert":
                key = exp["chain"]["seed"]
                if key not in chains:
                    chains[key] = chain_from_spec(exp["chain"])
                x = np.asarray(report["x"])
                gap = float(np.linalg.norm(chains[key].eval_array(x) - np.asarray(exp["y"])))
                if not gap <= report["roundtrip_target"]:
                    problems.append(
                        f"roundtrip {gap:.3g} exceeds its target {report['roundtrip_target']:.3g}"
                    )
            elif kind == "fem-solve":
                ratios = report["ratios"]
                if len(ratios) != len(self.fem_mesh) - 1 or not all(1.7 <= r <= 2.3 for r in ratios):
                    problems.append(f"H1 ratios {ratios} leave [1.7, 2.3]")
            elif kind == "nogo-galerkin":
                if not _brackets(report["s_grid"], report["dets"], report["s_star"]):
                    problems.append(f"crossing s*={report['s_star']} is not bracketed")
            else:
                crossings = report["crossings"]
                if not crossings or not all(
                    _brackets(report["t_grid"], report["dets"], t) for t, _, _ in crossings
                ):
                    problems.append(f"crossings {crossings} are not bracketed")
            failures[name] = problems
        return failures


def _brackets(grid, dets, star: float) -> bool:
    """True when a determinant sign change on the grid encloses ``star``."""
    for lo, hi, d_lo, d_hi in zip(grid, grid[1:], dets, dets[1:]):
        if lo <= star <= hi and (d_lo * d_hi < 0.0 or d_lo == 0.0 or d_hi == 0.0):
            return True
    return False


WORKLOADS = {w.name: w for w in (Factorize(), Certify(), Solve())}
