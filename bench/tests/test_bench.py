"""Tests of the benchmark itself: smoke mode, metric tables and output checks.

    python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))


def test_smoke_emits_every_metric_and_runs_the_checks():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    for name in run.WORKLOADS:
        assert f"{name} trace=0" in proc.stdout and f"{name} trace=1" in proc.stdout


def test_metric_tables_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sim-mill", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _bad_am(items):
    code, text, stats = items[0]
    lines = text.strip().split("\n")
    lines[-1] = ",".join(lines[-1].split(",")[:-1] + ["0.5"])
    return [(code, "\n".join(lines) + "\n", stats)]


def _flip_class(items):
    flip = {"stable": "unstable", "unstable": "stable", "marginal": "unstable"}
    return [(x, y, flip[c], m, k) for x, y, c, m, k in items]


def _scale_max_real(items):
    return [(x, y, c, repr(float(m) * 1.01 + 1e-3), k) for x, y, c, m, k in items]


CORRUPTIONS = [
    ("sim-mill", _bad_am),
    ("ensemble-cs", lambda items: [(v, 0.99) for v, _ in items]),
    ("ensemble-cs", lambda items: [(v, p - 1e-12) for v, p in items]),
    ("scan-mill", _flip_class),
    ("scan-mill", _scale_max_real),
    ("scan-mill", lambda items: items[:-1]),
    ("separatrix", lambda items: [(a, b, t, 0.06) for a, b, t, _ in items]),
    ("separatrix", lambda items: [(a, b + 0.1, t, g + 0.1) for a, b, t, g in items]),
    ("separatrix", lambda items: [(a, float("nan"), t, g) for a, _, t, g in items]),
]


@pytest.mark.parametrize("name,corrupt", CORRUPTIONS)
def test_checks_flag_corrupted_output(name, corrupt, tmp_path):
    r = run.Run(run.WORKLOADS[name], 3, "smoke", tmp_path)
    assert r.one_pass() and r.failed == 0
    bad = corrupt(list(r.first))
    assert r.w.check(bad) | r.w.oracle(bad)
