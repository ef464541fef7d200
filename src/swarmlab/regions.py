"""Parameter-plane stability scans and boundary location.

Each grid cell records the worst mode in range and its verdict through
spectra._worst_mode, which builds no per-mode reports.  Cells are
independent pure computations, so they can be mapped over a thread pool;
results are gathered in cell-index order and never depend on the worker
count.  Cells violating domain constraints (b >= a, or a failed radius
solve) are classified invalid rather than dropped.

Serialization is a CSV with header ``x,y,classification,max_real,
critical_mode`` (floats in shortest round-trip form) plus a JSON sidecar
carrying the full grid description and version metadata.
"""

from __future__ import annotations

import datetime
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .spectra import Classification, _worst_mode, mode_envelope

__all__ = [
    "GridSpec",
    "RegionMap",
    "RegionCell",
    "scan_flock",
    "scan_cs_flock",
    "scan_mill",
    "scan_speed_b",
    "separatrix_check",
    "gamma_sweep",
]

# points of separatrix_check's coarse scan for the first stable b
_COARSE = 9

# the GridSpec.fixed keys a scan reads
_FIXED_KEYS = ("n", "m_max", "alpha", "gamma", "speed", "a")


@dataclass(frozen=True)
class GridSpec:
    """Axes and fixed parameters of a scan.

    ``fixed`` holds whatever the model needs beyond the two axes, from
    n, m_max, alpha, gamma, speed and (for the speed-b scan) a.
    """

    x_name: str
    x_min: float
    x_max: float
    x_count: int
    y_name: str
    y_min: float
    y_max: float
    y_count: int
    fixed: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.x_count < 2 or self.y_count < 2:
            raise ValueError("grid axes need at least 2 points")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("grid ranges need min < max")

    @property
    def x_values(self):
        return np.linspace(self.x_min, self.x_max, self.x_count)

    @property
    def y_values(self):
        return np.linspace(self.y_min, self.y_max, self.y_count)

    def to_dict(self):
        return {
            "x": {"name": self.x_name, "min": self.x_min, "max": self.x_max, "count": self.x_count},
            "y": {"name": self.y_name, "min": self.y_min, "max": self.y_max, "count": self.y_count},
            "fixed": dict(self.fixed),
        }


@dataclass(frozen=True)
class RegionCell:
    x: float
    y: float
    classification: Classification
    max_real: float | None
    critical_mode: int | None
    error: str | None = None


@dataclass
class RegionMap:
    """Scan result: cells in x-major order (x outer loop, y inner)."""

    spec: GridSpec
    model: str
    cells: list
    metadata: dict

    def classification_grid(self):
        """Cell classifications as an (x_count, y_count) object array."""
        grid = np.empty((self.spec.x_count, self.spec.y_count), dtype=object)
        for idx, cell in enumerate(self.cells):
            grid[idx // self.spec.y_count, idx % self.spec.y_count] = cell.classification
        return grid

    def csv_text(self):
        lines = ["x,y,classification,max_real,critical_mode"]
        for c in self.cells:
            mr = "" if c.max_real is None else repr(c.max_real)
            cm = "" if c.critical_mode is None else str(c.critical_mode)
            lines.append(f"{c.x!r},{c.y!r},{c.classification.value},{mr},{cm}")
        return "\n".join(lines) + "\n"

    def sidecar_json(self):
        return json.dumps(
            {"model": self.model, "grid": self.spec.to_dict(), "metadata": self.metadata},
            indent=2,
            sort_keys=True,
        ) + "\n"

    def write(self, path_prefix):
        csv_path = f"{path_prefix}.csv"
        json_path = f"{path_prefix}.json"
        with open(csv_path, "w", newline="\n") as fh:
            fh.write(self.csv_text())
        with open(json_path, "w", newline="\n") as fh:
            fh.write(self.sidecar_json())
        return [csv_path, json_path]


def _metadata(model, m_max):
    from . import __version__

    return {
        "model": model,
        "artifact_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "m_max": m_max,
    }


def _pool_size(workers, jobs, cpus):
    """Threads for a pool: the requested count, capped by jobs and cores.

    A worker count below 1 is a ValueError.
    """
    if not workers >= 1:
        raise ValueError(f"need workers >= 1, got workers={workers!r}")
    return max(1, min(workers, jobs, cpus))


def map_jobs(fn, jobs, workers):
    """[fn(*job) for job in jobs], on a thread pool when more than one fits."""
    size = _pool_size(workers, len(jobs), os.cpu_count() or 1)
    if size == 1:
        return [fn(*job) for job in jobs]
    with ThreadPoolExecutor(max_workers=size) as pool:
        return list(pool.map(lambda job: fn(*job), jobs))


def _invalid(x, y, msg):
    return RegionCell(
        x=x, y=y, classification=Classification.INVALID,
        max_real=None, critical_mode=None, error=msg,
    )


def _cell(x, y, model, a, b, fixed):
    """Worst mode and verdict of one grid cell at exponents (a, b).

    spectra._worst_mode decides the route: max_real is the largest shape
    eigenvalue for the flock and the mill at speed 0, and the largest 4x4
    real part for flock-cs and the spinning mill.
    """
    if b >= a:
        return _invalid(x, y, "requires b < a")
    try:
        m, max_real, verdict = _worst_mode(
            model, a, b, fixed["n"], fixed["m_max"],
            alpha=fixed["alpha"], gamma=fixed["gamma"], speed=fixed["speed"],
        )
    except (ValueError, ArithmeticError) as exc:
        return _invalid(x, y, str(exc))
    return RegionCell(x=x, y=y, classification=verdict, max_real=max_real, critical_mode=m)


def _resolve_m_max(n, m_max):
    """The top mode of a scan, (n-1)//2 by default; modes start at 2."""
    m_max = (n - 1) // 2 if m_max is None else m_max
    if m_max < 2:
        raise ValueError(f"need m_max >= 2, got m_max={m_max} for n={n}")
    return m_max


def _scan(spec, label, model, workers, a=None):
    """Map _cell over the grid in x-major order.

    The axes are (a, b), or (speed, b) at the fixed exponent ``a`` when
    one is given; unset fixed entries take n=1000, alpha=gamma=1, speed 0.
    A fixed key outside _FIXED_KEYS, m_max < 2, an alpha or gamma that is
    not finite and positive, or a speed that is not finite and nonnegative
    is a ValueError, raised before any cell runs.
    """
    f = spec.fixed
    unknown = sorted(set(f) - set(_FIXED_KEYS))
    if unknown:
        raise ValueError(f"unknown fixed keys {unknown}; allowed: {', '.join(_FIXED_KEYS)}")
    n = int(f.get("n", 1000))
    fixed = {
        "n": n, "m_max": _resolve_m_max(n, f.get("m_max")),
        "alpha": float(f.get("alpha", 1.0)), "gamma": float(f.get("gamma", 1.0)),
        "speed": float(f.get("speed", 0.0)),
    }
    for key in ("alpha", "gamma"):
        if not 0 < fixed[key] < math.inf:
            raise ValueError(f"need finite {key} > 0, got {key}={fixed[key]}")
    if not 0 <= fixed["speed"] < math.inf:
        raise ValueError(f"need finite speed >= 0, got speed={fixed['speed']}")
    points = [(float(x), float(y)) for x in spec.x_values for y in spec.y_values]
    if a is None:
        jobs = [(x, y, model, x, y, fixed) for x, y in points]
    else:
        jobs = [(x, y, model, a, y, {**fixed, "speed": x}) for x, y in points]
    cells = map_jobs(_cell, jobs, workers)
    return RegionMap(
        spec=spec, model=label, cells=cells, metadata=_metadata(label, fixed["m_max"])
    )


def scan_flock(spec, workers=1):
    """Stability map of the propulsion flock over the (a, b) plane.

    Per cell (spectra._worst_mode): solve the flock radius, apply the
    det/trace criterion to every mode (the verdict spectrum --model flock
    reports too), record the worst shape eigenvalue and its mode.
    """
    return _scan(spec, "flock", "flock", workers)


def scan_cs_flock(spec, workers=1):
    """Stability map of the alignment flock: scan_flock's verdicts, with
    max_real spectra._worst_mode's largest 4x4 real part (varies with gamma)."""
    return _scan(spec, "flock-cs", "flock-cs", workers)


def scan_mill(spec, workers=1):
    """Stability map of the mill ring over (a, b) at fixed speed.

    At speed 0 the mill problem degenerates to the flock one, so those
    cells take the flock criterion and the map equals scan_flock; at
    speed > 0 spectra._worst_mode bands the 4x4 eigenvalues (classify's rule).
    """
    return _scan(spec, "mill", "mill", workers)


def scan_speed_b(spec, workers=1):
    """Mill stability over the (speed, b) plane at fixed exponent a.

    The speed-0 column is the flock problem and, through spectra._worst_mode
    as in scan_mill, takes the flock criterion.
    """
    return _scan(spec, "mill-speed-b", "mill", workers, a=float(spec.fixed["a"]))


def _mode_range_stable(a, b, n, m_max):
    return _worst_mode("flock", a, b, n, m_max)[2] is Classification.STABLE


def separatrix_check(a_values, n, m_max=None, steps=40):
    """Locate the lower stability boundary in b and compare to a/(a-1).

    For each a: coarse-scan b in (0.5, a - 0.05) for the first stable
    point, then bisect ``steps`` times on the stable/unstable transition
    below it.  Returns rows (a, b_boundary, a/(a-1), gap) with signed
    gap = b_boundary - a/(a-1); nan boundary when no stable b exists in
    the window.  An m_max (default (n-1)//2) below 2, any a <= 1 (no
    limit curve) or steps < 0 is a ValueError, raised before any solve.
    """
    m_max = _resolve_m_max(n, m_max)
    a_values = [float(a) for a in a_values]
    if not all(a > 1.0 for a in a_values):
        raise ValueError(f"separatrix needs every a > 1, got {a_values}")
    if steps < 0:
        raise ValueError(f"need steps >= 0, got steps={steps}")
    rows = []
    for a in a_values:
        target = a / (a - 1.0)
        lo_edge, hi_edge = 0.5, a - 0.05
        grid = np.linspace(lo_edge, hi_edge, _COARSE)
        stable_b = None
        prev = lo_edge
        for bval in grid:
            if _mode_range_stable(a, float(bval), n, m_max):
                stable_b = float(bval)
                break
            prev = float(bval)
        if stable_b is None:
            rows.append((a, float("nan"), target, float("nan")))
            continue
        lo, hi = prev, stable_b  # unstable at lo (or window edge), stable at hi
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            if _mode_range_stable(a, mid, n, m_max):
                hi = mid
            else:
                lo = mid
        boundary = 0.5 * (lo + hi)
        rows.append((a, boundary, target, boundary - target))
    return rows


def gamma_sweep(a, b, n, m, gamma_values):
    """Worst eigenvalue real part of the alignment-flock mode matrix per gamma.

    The magnitude varies with gamma; the sign never does.
    """
    rows = []
    for gamma in gamma_values:
        summary, _ = mode_envelope(
            "flock-cs", a, b, n, gamma=float(gamma), m_min=m, m_max=m
        )
        rows.append((float(gamma), summary.max_real))
    return rows
