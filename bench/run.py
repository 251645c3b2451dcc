"""opdisc benchmark: one seeded workload, timed or traced, with output checks.

Run from the root of a checkout:

    python3 bench/run.py --workload factorize --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it is a JSON report with machine facts, per-pass times, the
artifact digest and ``failed_frac``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread per worker keeps every workload at or below nproc threads
# (solve runs two workers) and keeps timings steady on a shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

SETUP_SAMPLES = 5
MIN_PASSES = 2
OUT_DIR = ".bench_out"

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_opdisc(root: Path) -> None:
    """Import opdisc from the checkout's src/, and from nowhere else."""
    src = root / "src"
    if not (src / "opdisc" / "__init__.py").is_file():
        raise SystemExit(f"bench: no opdisc sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import opdisc

    if Path(opdisc.__file__).resolve().parent != (src / "opdisc").resolve():
        raise SystemExit(f"bench: imported opdisc from {opdisc.__file__}, not from {src}")


def _setup_times(args) -> list[float]:
    """Fresh-process seconds to import opdisc and generate the inputs.

    The child prints the wall clock once its inputs exist: waiting for it
    with a timeout polls in 50 ms steps, too coarse to time its exit.
    """
    cmd = [
        sys.executable, __file__, "--setup-only",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    times = []
    for _ in range(SETUP_SAMPLES):
        start = time.time()
        done = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=120)
        times.append(float(done.stdout.split()[-1]) - start)
    return times


def _blas_threads() -> int:
    """Threads OpenBLAS reports, or the pinned value if it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes = []
        get.restype = ctypes.c_int
        return int(get())
    return BLAS_THREADS


def machine_facts(workload, seed: int) -> dict:
    import platform

    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(Path.cwd().parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, env=env, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "worker_threads": workload.jobs,
        "git_commit": commit,
        "workload": workload.name,
        "seed": seed,
    }


class Session:
    """Passes of one workload with their artifact checks and digests."""

    def __init__(self, workload, out_root: Path):
        self.workload = workload
        self.out_root = out_root
        self.walls: list[float] = []
        self.reference: dict | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, inputs: dict) -> float:
        """One timed pass; the first is checked, later ones must match it."""
        out_dir = self.out_root / f"pass{len(self.walls)}"
        out_dir.mkdir(parents=True)
        start = time.perf_counter()
        results = self.workload.run_pass(inputs, out_dir)
        wall = time.perf_counter() - start
        self.walls.append(wall)
        self.attempted += len(results)
        digests = {}
        for name, res in results.items():
            if res.error:
                self.failures.append(f"pass {len(self.walls)}: {name}: {res.error}")
            else:
                digests[name] = self.workload.digest(name, res, out_dir)
        if self.reference is None:
            self.reference = digests
            checks = self.workload.check(inputs, results, out_dir)
            for name, problems in checks.items():
                if problems:
                    self.failures.append(f"pass 1: {name}: " + "; ".join(problems))
        else:
            for name, digest in digests.items():
                if digest != self.reference.get(name):
                    self.failures.append(f"pass {len(self.walls)}: {name}: digest differs from pass 1")
        shutil.rmtree(out_dir)
        return wall

    def digest(self) -> str:
        joined = "\n".join(f"{n} {d}" for n, d in sorted((self.reference or {}).items()))
        return hashlib.sha256(joined.encode()).hexdigest()


def main(argv=None) -> int:
    args = _parse(argv)
    root = Path.cwd()
    _import_opdisc(root)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; know {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        workload.generate(args.seed)
        print(repr(time.time()))
        return 0

    out_root = root / OUT_DIR / f"{workload.name}-{args.seed}-{os.getpid()}"
    session = Session(workload, out_root)
    report = {"facts": machine_facts(workload, args.seed)}
    try:
        if args.trace:
            metrics = _traced(args, workload, session, report)
        else:
            setup = _setup_times(args)
            inputs = workload.generate(args.seed)
            start = time.perf_counter()
            while len(session.walls) < MIN_PASSES or time.perf_counter() - start < args.seconds:
                session.run(inputs)
            values = {
                "wall_s": statistics.median(session.walls),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
            report["setup_samples_s"] = setup
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    failed = len(session.failures)
    report.update(
        {
            "pass_walls_s": session.walls,
            "digest": session.digest(),
            "failed_frac": failed / session.attempted,
            "failures": session.failures[:20],
        }
    )
    for name, metric in metrics.items():
        print(f"  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    print(f"  {'failed_frac':<28} {report['failed_frac']:>14.6g} ({failed} of {session.attempted})")
    print(json.dumps(report, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": session.attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def _traced(args, workload, session, report) -> dict:
    """An untraced reference pass, then the same pass traced."""
    from tracer import Tracer

    inputs = workload.generate(args.seed)
    untraced = session.run(inputs)
    tracer = Tracer()
    tracer.install()
    try:
        # generating the inputs again, traced, shows the layer builds
        traced = session.run(workload.generate(args.seed))
    finally:
        tracer.uninstall()
    table = tracer.span_table()
    report["spans"] = tracer.span_count()
    trace_file = Path(OUT_DIR) / f"trace-{workload.name}-seed{args.seed}.json"
    trace_file.parent.mkdir(exist_ok=True)
    trace_file.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    report["span_table"] = str(trace_file)
    return tracer.metrics(table, traced, untraced, workload.jobs)


if __name__ == "__main__":
    sys.exit(main())
