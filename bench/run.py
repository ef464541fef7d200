"""swarmlab benchmark: end-to-end and per-layer metrics of three workloads.

    python3 bench/run.py --workload sim-mill --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload scan-mill --seed 0 --seconds 30 --trace 1
    python3 bench/run.py --smoke

The package is imported from ``src/`` next to this directory. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``. The line before it records the environment. Run
records and spans go to ``.bench_run/``. See bench/README.md.
"""

from __future__ import annotations

import os
import sys

# Concurrency pins, set before numpy loads: one BLAS thread (at most nproc),
# no scan or sweep worker pool (workers=1 is also passed explicitly), one
# process.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("SWARMLAB_WORKERS", None)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from probe import REFERENCE_S, Sampler, timed_kernel  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_run"
SETUP_REPS = 5

END_TO_END = {"wall_ref_s": "s", "cpu_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "sim.rhs_ms": "ms", "sim.rhs_evals": "count", "sim.rhs_s": "s", "sim.rhs_share": "ratio",
    "sim.steps_accepted": "count", "sim.steps_rejected": "count", "sim.accept_ratio": "ratio",
    "sim.integrator_self_s": "s", "sim.metrics_ms": "ms", "sim.samples": "count",
    "sim.share": "ratio",
    "potentials.deriv_ms": "ms", "potentials.kernel_ms": "ms", "potentials.share": "ratio",
    "spectra.envelope_ms": "ms", "spectra.envelope_s": "s", "spectra.modes": "count",
    "spectra.coupling_ms": "ms", "spectra.share": "ratio",
    "rings.solve_ms": "ms", "rings.trig_moment_ms": "ms", "rings.solves": "count",
    "rings.share": "ratio",
    "regions.cells": "count", "regions.invalid_cells": "count", "regions.cell_ms": "ms",
    "regions.self_s": "s", "regions.share": "ratio",
    "cli.self_s": "s", "cli.share": "ratio",
    "process.wall_s": "s", "process.cpu_s": "s", "process.probe_ms": "ms",
    "process.minor_faults": "count",
    "checks.items": "count", "checks.error_rate": "ratio",
    "trace.overhead_s": "s",
}


def fresh_import():
    """Import swarmlab (and its CLI) anew from src/, dropping any earlier copy."""
    for name in [m for m in sys.modules if m == "swarmlab" or m.startswith("swarmlab.")]:
        del sys.modules[name]
    sl = importlib.import_module("swarmlab")
    importlib.import_module("swarmlab.cli")
    if Path(sl.__file__).resolve().parent != SRC / "swarmlab":
        raise ImportError(f"swarmlab imported from {sl.__file__}, not from {SRC}")
    return sl


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref[5:]
    return ref


def environment(seed):
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += sum(1 for line in data.decode().splitlines() if line.strip())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: blas[k].get("name") for k in ("blas", "lapack")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_lapack": blas,
        "thread_vars": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "swarmlab_workers_env": os.environ.get("SWARMLAB_WORKERS"),
        "workers": 1,
        "processes": 1,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_nonblank_lines": lines,
        "seed": seed,
    }


def _median_kernel():
    return statistics.median(timed_kernel()[0] for _ in range(3))


class Run:
    """One workload in one process: set-up, timed passes, checks, optional trace.

    Every time is also kept scaled to the reference speed of ``probe``: the
    set-up by kernel runs just before and after it, a pass by kernel runs
    sampled during it.
    """

    def __init__(self, cls, seed, size, workdir):
        self.setup, self.setup_ref = [], []
        for _ in range(SETUP_REPS):
            before = _median_kernel()
            t0 = time.perf_counter()
            sl = fresh_import()
            self.w = cls(sl, seed, size, workdir)
            self.setup.append(time.perf_counter() - t0)
            speed = REFERENCE_S / statistics.mean((before, _median_kernel()))
            self.setup_ref.append(self.setup[-1] * speed)
        self.first = None  # items of the first pass, the reference for later passes
        self.first_failed = set()
        self.attempted = 0
        self.failed = 0
        self.crashed = False
        self.passes = []

    def one_pass(self, tracer=None):
        """Time one pass, then check its items; returns False after a crash."""
        k = len(self.passes)
        gc.collect()
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        try:
            with Sampler() as sampler:
                w0, c0 = time.perf_counter(), time.process_time()
                if tracer is None:
                    raw = self.w.call(k)
                else:
                    with tracer.span(self.w.entry):
                        raw = self.w.call(k)
                wall, cpu = time.perf_counter() - w0, time.process_time() - c0
                inside = list(sampler.samples)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
            wall -= sum(w for w, _ in inside)
            cpu -= sum(c for _, c in inside)
            items = self.w.items(k, raw)
            failed = self.w.check(items)
            if self.first is None:
                self.first = items
                failed |= self.w.oracle(items)
                self.first_failed = failed
            else:
                failed |= {i for i in range(self.w.count) if items[i:i + 1] != self.first[i:i + 1]}
        except Exception:  # a crash fails the pass and ends the run
            traceback.print_exc()
            self.crashed = True
            self.attempted += self.w.count
            self.failed += self.w.count
            return False
        self.passes.append({
            "traced": tracer is not None, "wall_s": wall, "cpu_s": cpu,
            "speed": sampler.speed, "samples": len(inside), "minor_faults": faults,
        })
        self.attempted += self.w.count
        self.failed += len(failed)
        return True

    def median(self, key, traced=False, ref=False):
        """Median of a per-pass number over the untraced (or traced) passes."""
        return statistics.median(p[key] * (p["speed"] if ref else 1.0)
                                 for p in self.passes if p["traced"] == traced)

    def measure(self, seconds):
        start = time.perf_counter()
        while self.one_pass():
            if time.perf_counter() - start + self.median("wall_s") > seconds:
                break

    def trace(self, seconds, tracer):
        """Untraced reference pass, replay of the layers, then traced and untraced passes."""
        start = time.perf_counter()
        if not self.one_pass():
            return None
        try:
            failed, layers = self.w.replay(tracer, self.first)
        except Exception:
            traceback.print_exc()
            self.crashed = True
            return None
        self.failed += len(failed - self.first_failed)
        traced = True
        while self.one_pass(tracer if traced else None):
            pass_s = statistics.median(p["wall_s"] for p in self.passes)
            if any(p["traced"] for p in self.passes) and time.perf_counter() - start + pass_s > seconds:
                break
            traced = not traced
        if self.crashed:
            return None
        return layers


def run(name, seed, seconds, trace, size="full"):
    """Run one workload; returns (result line, run record)."""
    cls = WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    run_id = f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}-{time.time_ns()}"
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        r = Run(cls, seed, size, Path(tmp))
        tracer = Tracer(name, run_id) if trace else None
        if trace:
            layers = r.trace(seconds, tracer)
        else:
            r.measure(seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {}
    if r.crashed:
        pass  # no metrics from a run whose program raised
    elif trace:
        wall = r.median("wall_s")
        values = dict.fromkeys(PER_LAYER, 0.0)
        values.update(layers(wall))
        values.update({
            "process.wall_s": wall,
            "process.cpu_s": r.median("cpu_s"),
            "process.probe_ms": 1e3 * REFERENCE_S / r.median("speed"),
            "process.minor_faults": r.median("minor_faults"),
            "checks.items": r.attempted,
            "checks.error_rate": r.failed / r.attempted,
            "trace.overhead_s": (r.median("wall_s", traced=True, ref=True)
                                 - r.median("wall_s", ref=True)),
        })
        metrics = {k: {"value": values[k], "unit": u} for k, u in PER_LAYER.items()}
        tracer.write(OUT_DIR / f"spans-{run_id}.jsonl")
    else:
        values = {
            "wall_ref_s": r.median("wall_s", ref=True),
            "cpu_ref_s": r.median("cpu_s", ref=True),
            "setup_s": statistics.median(r.setup_ref),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    result = {
        "correct": not r.crashed and r.failed == 0,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "item": cls.item,
        "size": size,
        "run_id": run_id,
        "environment": environment(seed),
        "seconds": seconds,
        "reference_kernel_s": REFERENCE_S,
        "setup_s": r.setup,
        "setup_ref_s": r.setup_ref,
        "passes": r.passes,
        "span_self_s": tracer.self_times() if trace else None,
        "result": result,
    }
    (OUT_DIR / f"record-{run_id}.json").write_text(json.dumps(record, indent=2) + "\n")
    return result, record


def smoke():
    """Every workload at reduced size, untraced and traced: names, units, checks."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in spec["workloads"]:
        for trace in (False, True):
            result, _ = run(w["name"], seed=1, seconds=1, trace=trace, size="smoke")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            label = f"{w['name']} trace={int(trace)}"
            if got != want[trace]:
                problems.append(f"{label}: metrics {sorted(got)} != {sorted(want[trace])}")
            if not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
                problems.append(f"{label}: checks did not pass: {result}")
            print(f"{label}: attempted {result['attempted']} failed {result['failed']}")
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at reduced size and check the output format")
    args = parser.parse_args(argv)
    if not (SRC / "swarmlab" / "__init__.py").is_file():
        print(f"error: no swarmlab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"environment": record["environment"]}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
