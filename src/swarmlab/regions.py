"""Parameter-plane stability scans and boundary location.

Each grid cell records the worst mode in range and its verdict through
spectra._worst_modes, which builds no per-mode reports.  Cells run in
blocks: consecutive valid cells at one speed, at most _BLOCK_MODES modes
per block and at least one block per pool thread, whose modes go through
every stage as one stack.  A cell gives the same bytes in any block, so
blocks are mapped over a thread pool; results are gathered in
cell-index order and never depend on the worker count.  A scan owns one
rings._workspace per thread that runs its blocks: the blocks write their
mode-sized arrays into its buffers, which it keeps while the block size
stays the same and drops when the scan returns or raises.  Cells violating
domain constraints (b >= a, a failed radius solve, a non-finite mode
matrix) are classified invalid rather than dropped.

Serialization is a CSV with header ``x,y,classification,max_real,
critical_mode`` (floats in shortest round-trip form) plus a JSON sidecar
carrying the full grid description and version metadata.
"""

from __future__ import annotations

import datetime
import itertools
import json
import os
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .potentials import _check_fields, _number
from .rings import _workspace
from .spectra import Classification, _require_modes, _worst_modes, mode_envelope

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

# Modes per scan block: cells per block = max(1, _BLOCK_MODES // modes per
# cell), a cell counting at least the (n - 1)//2 - 1 modes of the default
# range (see _scan).  A spinning-mill block at n = 1000 costs about 0.54 ms
# of per-call overhead plus 0.16 ms per cell (a least-squares fit to the
# best of 40 calls in a workspace, 1 to 16 cells; 2 cores, numpy 2.4.6), so
# fewer, larger blocks win until the peak RSS grows.  The 4x4 route writes
# its mode-sized arrays into the scan's workspace, whose buffers hold about
# 45 float64 per mode (a spinning mill's velocity block is per cell, and the
# two transforms share one rfft row); a block allocates about 7 more per
# mode.  10-second bench/run.py scan-mill runs (seeds 71-72) read wall_ref_s
# and peak RSS as follows, with 0 minor faults per pass at every cap: 3,072
# modes (6 cells) 0.161-0.165 s and 44.78 MB; 4,096 (8 cells) 0.144-0.146 s
# and 45.43-45.61 MB; 5,120 (10) 0.133 s and 45.66-45.80 MB; 6,144 (12)
# 0.134-0.135 s and 46.12 MB; 7,168 (14) 0.124-0.126 s and 46.66-46.72 MB;
# 8,192 (16) 0.116-0.122 s and 46.98-47.03 MB.  With per-mode velocity
# blocks and two rfft rows (about 58 float64 per mode), 3,072 modes read
# 0.162-0.163 s and 45.26-45.36 MB.  In 30-second runs alternating with that
# layout (45.16-45.48 MB), 5,120 modes read 0.140-0.141 s and 45.86-45.88
# MB, 5,632 (11 cells) 0.135-0.138 s and 45.93-45.98 MB, and 6,144
# 0.128-0.136 s but 46.14-46.45 MB, 0.8-1.3 MB above the runs beside it
# (medians 0.92 and 0.98 MB above): 5,632 is the largest cap whose peak RSS
# stayed within 1 MB.
_BLOCK_MODES = 5632

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
        _check_fields(self, "x_count", "y_count", ge=2, integer=True)
        for name in ("x_min", "x_max", "y_min", "y_max"):
            _number(name, getattr(self, name))  # checked, kept as given for the sidecar
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


def _metadata(model, m_max, cells, seconds, cells_per_block):
    """Sidecar metadata: versions, the top mode, the scan's wall seconds,
    its cell count, the cap on cells per block and a tally of the invalid
    cells' reasons."""
    from . import __version__

    return {
        "model": model,
        "artifact_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "m_max": m_max,
        "seconds": seconds,
        "cells": len(cells),
        "cells_per_block": cells_per_block,
        "invalid_reasons": dict(Counter(c.error for c in cells if c.error is not None)),
    }


def _pool_size(workers, jobs, cpus):
    """Threads for a pool: the requested count, capped by jobs and cores.

    A count that is not an integer >= 1 (or is a bool) is a ValueError.
    """
    return max(1, min(_number("workers", workers, ge=1, integer=True), jobs, cpus))


def map_stacks(fn, items, cap, workers, key=lambda item: None):
    """fn over stacks of consecutive items, its outputs flattened in item order.

    A stack holds items of one key, at most ``cap`` of them but few enough
    that each pool thread gets one, and fn returns one output per item.
    Thread t of the pool runs stacks t, t + threads, ... inside one
    rings._workspace, which it drops when they are done or one raises.
    A bad worker count is a ValueError before fn runs.
    """
    threads = _pool_size(workers, len(items), os.cpu_count() or 1)
    size = max(1, min(cap, -(-len(items) // threads)))
    stacks = []
    for _, run in itertools.groupby(items, key):
        run = list(run)
        stacks += [run[i : i + size] for i in range(0, len(run), size)]

    def share(t):
        with _workspace():
            return [fn(stack) for stack in stacks[t::threads]]

    if threads == 1:
        return [out for outs in share(0) for out in outs]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        shares = list(pool.map(share, range(threads)))
    return [out for i in range(len(stacks)) for out in shares[i % threads][i // threads]]


def _invalid(x, y, msg):
    return RegionCell(
        x=x, y=y, classification=Classification.INVALID,
        max_real=None, critical_mode=None, error=msg,
    )


def _with_invalid(cells, solved):
    """The RegionCells ``solved`` gives for the cells (x, y, a, b) with
    b < a, in order, with an invalid one for each other cell."""
    solved = iter(solved)
    return [next(solved) if b < a else _invalid(x, y, "requires b < a") for x, y, a, b in cells]


def _block(model, fixed, speed, cells):
    """RegionCells of a block of grid cells (x, y, a, b) at one speed.

    spectra._worst_modes decides the route: max_real is the largest shape
    eigenvalue for the flock and the mill at speed 0, and the largest 4x4
    real part for flock-cs and the spinning mill.  A cell with b >= a is
    invalid before any work (a scan's blocks hold none).  If the block
    raises, each of its cells runs again as a block of one, so a cell whose
    radius solve fails or whose mode matrix is not finite gets the reason
    it gets alone, and the other cells keep their results.  The block runs
    in the open rings._workspace keyed by its count of valid cells, so a
    workspace holds the buffers of one block size at a time.
    """
    valid = [cell for cell in cells if cell[3] < cell[2]]
    _, _, a, b = np.array(valid).reshape(-1, 4).T
    try:
        with _workspace(len(valid)):
            found = _worst_modes(
                model, a, b, fixed["n"], fixed["m_max"], fixed["alpha"], fixed["gamma"], speed
            ) if valid else []
    except (ValueError, ArithmeticError) as exc:
        if len(valid) == 1:
            solved = iter([_invalid(*valid[0][:2], str(exc))])
        else:
            solved = (_block(model, fixed, speed, [cell])[0] for cell in valid)
    else:
        solved = (
            RegionCell(x=x, y=y, classification=verdict, max_real=max_real, critical_mode=m)
            for (x, y, _, _), (m, max_real, verdict) in zip(valid, found)
        )
    return _with_invalid(cells, solved)


def _resolve_m_max(n, m_max):
    """The top mode of a scan, (n-1)//2 by default; modes run from 2 to n - 2.

    A bool or non-integer n or m_max is a ValueError that names it.
    """
    n = _number("n", n, integer=True)
    m_max = _number("m_max", (n - 1) // 2 if m_max is None else m_max, ge=2, integer=True)
    _require_modes(n, m_max)
    return m_max


def _scan(spec, label, model, workers, a=None):
    """Map _block over the grid in x-major order.

    The axes are (a, b), or (speed, b) at the fixed exponent ``a`` when
    one is given; unset fixed entries take n=1000, alpha=gamma=1, speed 0.
    Cells with b >= a are invalid before any work; the others, consecutive
    at one speed, are cut into blocks of at most _BLOCK_MODES modes (the
    sidecar's cells_per_block), but at least one block per pool thread, so
    every block but a speed's last has the same size.  The scan owns one
    rings._workspace per thread that runs blocks (map_stacks), dropped when
    the scan returns or raises.  A fixed key outside _FIXED_KEYS, a
    non-integer n or m_max, m_max outside [2, n - 2], an alpha or gamma
    that is not finite and positive, a speed that is not finite and
    nonnegative, or a bad worker count is a ValueError, raised before any
    cell runs.
    """
    start = time.perf_counter()
    f = spec.fixed
    unknown = sorted(set(f) - set(_FIXED_KEYS))
    if unknown:
        raise ValueError(f"unknown fixed keys {unknown}; allowed: {', '.join(_FIXED_KEYS)}")
    n = f.get("n", 1000)
    fixed = {
        "n": n, "m_max": _resolve_m_max(n, f.get("m_max")),
        "alpha": _number("alpha", f.get("alpha", 1.0), gt=0),
        "gamma": _number("gamma", f.get("gamma", 1.0), gt=0),
        "speed": _number("speed", f.get("speed", 0.0), ge=0),
    }
    points = [(float(x), float(y)) for x in spec.x_values for y in spec.y_values]
    if a is None:
        grid, speed = [(x, y, x, y) for x, y in points], lambda cell: fixed["speed"]
    else:
        grid, speed = [(x, y, a, y) for x, y in points], lambda cell: cell[0]
    # a cell also holds three n-length weight and rfft rows, so it counts as
    # at least the default range's modes: a small m_max adds no cells
    cap = max(1, _BLOCK_MODES // (max(fixed["m_max"], (n - 1) // 2) - 1))
    solved = map_stacks(
        lambda block: _block(model, fixed, speed(block[0]), block),
        [cell for cell in grid if cell[3] < cell[2]], cap, workers, key=speed,
    )
    cells = _with_invalid(grid, solved)
    metadata = _metadata(label, fixed["m_max"], cells, time.perf_counter() - start, cap)
    return RegionMap(spec=spec, model=label, cells=cells, metadata=metadata)


def scan_flock(spec, workers=1):
    """Stability map of the propulsion flock over the (a, b) plane.

    Per cell (spectra._worst_modes): solve the flock radius, apply the
    det/trace criterion to every mode (the verdict spectrum --model flock
    reports too), record the worst shape eigenvalue and its mode.
    """
    return _scan(spec, "flock", "flock", workers)


def scan_cs_flock(spec, workers=1):
    """Stability map of the alignment flock: scan_flock's verdicts, with
    max_real spectra._worst_modes' largest 4x4 real part (varies with gamma)."""
    return _scan(spec, "flock-cs", "flock-cs", workers)


def scan_mill(spec, workers=1):
    """Stability map of the mill ring over (a, b) at fixed speed.

    At speed 0 the mill problem degenerates to the flock one, so those
    cells take the flock criterion and the map equals scan_flock; at
    speed > 0 spectra._worst_modes bands the 4x4 eigenvalues (classify's rule).
    """
    return _scan(spec, "mill", "mill", workers)


def scan_speed_b(spec, workers=1):
    """Mill stability over the (speed, b) plane at fixed exponent a.

    The speed-0 column is the flock problem and, through spectra._worst_modes
    as in scan_mill, takes the flock criterion.
    """
    return _scan(spec, "mill-speed-b", "mill", workers, a=_number("a", spec.fixed["a"], gt=0))


def _mode_range_stable(a, b, n, m_max):
    return _worst_modes("flock", a, b, n, m_max)[0][2] is Classification.STABLE


@_workspace()
def separatrix_check(a_values, n, m_max=None, steps=40):
    """Locate the lower stability boundary in b and compare to a/(a-1).

    For each a: coarse-scan b in (0.5, a - 0.05) for the first stable
    point, then bisect ``steps`` times on the stable/unstable transition
    below it.  Returns rows (a, b_boundary, a/(a-1), gap) with signed
    gap = b_boundary - a/(a-1); nan boundary when no stable b exists in
    the window.  A non-integer n or m_max, an m_max (default (n-1)//2)
    outside [2, n - 2], any a that is not finite and > 1 (no limit curve)
    or steps that is not an integer >= 0 is a ValueError, raised before
    any solve.  Each call's solves share one rings._workspace, dropped on
    return.
    """
    m_max = _resolve_m_max(n, m_max)
    a_values = [_number("a", a, gt=1) for a in a_values]
    steps = _number("steps", steps, ge=0, integer=True)
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
    for gamma in [_number("gamma", g, gt=0) for g in gamma_values]:
        summary, _ = mode_envelope("flock-cs", a, b, n, gamma=gamma, m_min=m, m_max=m)
        rows.append((gamma, summary.max_real))
    return rows
