"""The benchmark workloads.

A workload builds its inputs from the workload seed (the set-up), runs one
pass through a public swarmlab entry point (the timed part), turns the pass
output into items (runs, members, cells or a-values), and checks every item.
In a traced run it also replays the pass through the public functions of each
layer and estimates per-layer numbers from those spans.

The swarmlab package is handed in by the caller, because set-up re-imports
it; no module here imports swarmlab itself.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import sys
from dataclasses import replace

import numpy as np

# repetitions of each small layer call in a replay; their median is reported
REPS = 10


def _cli(sl, argv):
    """Run ``swarmlab <argv>`` in-process with its console output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = sl.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    if code:
        sys.stderr.write(err.getvalue())
    return code


def _csv_rows(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _finite(*values):
    return all(math.isfinite(v) for v in values)


def _distances(x):
    diff = x[None, :, :] - x[:, None, :]
    d = np.hypot(diff[..., 0], diff[..., 1])
    np.fill_diagonal(d, 1.0)
    return d


def _metric_row(sl, state, reference, s_ref):
    """The per-sample order parameters, through the public metric functions."""
    speeds = np.hypot(*state.velocities.T)
    return (
        sl.metric_cluster(state, reference),
        sl.metric_fatten(state, reference),
        float(np.max(np.abs(speeds - s_ref))),
        sl.metric_polarization(state),
        sl.metric_angular_momentum(state),
    )


def _time_sim_calls(sl, tr, config, states, reference, s_ref):
    """Spans around rhs, the pair-potential and kernel calls, and the metrics.

    Each call cycles through the saved states, as the integrator moves from
    state to state; repeating one state back to back reads about 10% faster.
    """
    dists = [_distances(st.positions) for st in states]
    calls = [("sim.rhs", lambda i: sl.rhs(states[i], config)),
             ("potentials.deriv", lambda i: config.potential.deriv(dists[i])),
             ("sim.metrics", lambda i: _metric_row(sl, states[i], reference, s_ref))]
    if config.alignment is not None:
        calls.append(("potentials.kernel", lambda i: config.alignment.value(dists[i])))
    for name, call in calls:
        for _ in range(REPS):
            for i in range(len(states)):
                with tr.span(name):
                    call(i)


def _sim_layers(tr, wall, integrate_s, stats, samples):
    """sim.* and potentials.* numbers from the spans and the integrator counts."""
    rhs_ms = tr.median_ms("sim.rhs")
    metrics_ms = tr.median_ms("sim.metrics")
    deriv_ms = tr.median_ms("potentials.deriv")
    kernel_ms = tr.median_ms("potentials.kernel")
    evals = stats["rhs_evals"]
    accepted, rejected = stats["steps_accepted"], stats["steps_rejected"]
    rhs_s = rhs_ms * evals / 1e3
    potentials_s = (deriv_ms + kernel_ms) * evals / 1e3
    return {
        "sim.rhs_ms": rhs_ms,
        "sim.rhs_evals": evals,
        "sim.rhs_s": rhs_s,
        "sim.rhs_share": rhs_s / wall,
        "sim.steps_accepted": accepted,
        "sim.steps_rejected": rejected,
        "sim.accept_ratio": accepted / (accepted + rejected),
        "sim.integrator_self_s": integrate_s - rhs_s - samples * metrics_ms / 1e3,
        "sim.metrics_ms": metrics_ms,
        "sim.samples": samples,
        "sim.share": (integrate_s - potentials_s) / wall,
        "potentials.deriv_ms": deriv_ms,
        "potentials.kernel_ms": kernel_ms,
        "potentials.share": potentials_s / wall,
    }


def _time_trig_moment(sl, tr, n, alpha, reps):
    for _ in range(reps):
        with tr.span("rings.trig_moment"):
            sl.trig_moment(n, alpha)


class SimMill:
    """``swarmlab simulate`` on one seeded propulsion mill ring."""

    name = "sim-mill"
    item = "run"
    entry = "cli.main"
    A, B, SPEED, ALPHA, BETA, NOISE = 5.0, 1.25, 0.5, 1.0, 4.0, 1e-2
    SAMPLES = 10
    SIZES = {"full": {"n": 200, "t_final": 20.0}, "smoke": {"n": 40, "t_final": 2.0}}

    def __init__(self, sl, seed, size, workdir):
        self.sl, self.workdir = sl, workdir
        self.n, t_final = self.SIZES[size]["n"], self.SIZES[size]["t_final"]
        self.count = 1
        self.pot = sl.PowerLaw(self.A, self.B)
        self.ring = sl.mill_ring(self.pot, self.n, self.SPEED)
        sigma_pos, sigma_vel = self.NOISE * self.ring.radius, self.NOISE * self.SPEED
        data = {
            "model": "propulsion",
            "potential": {"kind": "power-law", "a": self.A, "b": self.B},
            "n": self.n,
            "t_final": t_final,
            "propulsion": {"alpha": self.ALPHA, "beta": self.BETA},
            "seed": seed,
            "sample_every": t_final / self.SAMPLES,
            "ic": {
                "kind": "mill",
                "speed": self.SPEED,
                "perturbation": {"kind": "noise", "sigma_pos": sigma_pos, "sigma_vel": sigma_vel},
            },
        }
        self.config_path = workdir / "sim-mill.json"
        self.config_path.write_text(json.dumps(data))
        # the config and initial state the CLI derives from that file
        self.config = sl.SimConfig(
            model="propulsion", potential=self.pot, n=self.n, t_final=t_final,
            propulsion=sl.Propulsion(self.ALPHA, self.BETA), seed=seed,
            sample_every=t_final / self.SAMPLES,
        )
        self.initial = sl.ic_mill_ring(
            self.ring, perturbation=sl.RandomNoise(sigma_pos, sigma_vel),
            rng=np.random.default_rng(seed),
        )

    def call(self, k):
        return _cli(self.sl, ["simulate", "--config", str(self.config_path),
                              "--out", str(self.workdir / f"sim{k}")])

    def items(self, k, code):
        if code != 0:
            return [(code, None, None)]
        text = (self.workdir / f"sim{k}_metrics.csv").read_text()
        manifest = json.loads((self.workdir / f"sim{k}.manifest.json").read_text())
        return [(code, text, json.dumps(manifest["parameters"]["stats"], sort_keys=True))]

    def check(self, items):
        """Exit code 0 (the distance guard did not trip), finite metrics, final am > 0.99."""
        code, text, _ = items[0]
        if code != 0:
            return {0}
        rows = [{k: float(v) for k, v in r.items()} for r in _csv_rows(text)]
        ok = all(_finite(*r.values()) for r in rows) and rows[-1]["angular_momentum"] > 0.99
        return set() if ok else {0}

    def oracle(self, items):
        return set()

    def replay(self, tr, items):
        sl = self.sl
        for _ in range(REPS):
            with tr.span("rings.mill_ring"):
                sl.mill_ring(self.pot, self.n, self.SPEED)
        _time_trig_moment(sl, tr, self.n, self.A, REPS)
        with tr.span("sim.integrate"):
            res = sl.integrate(self.config, self.initial, reference=self.ring)
        # the replay must be the run the CLI made, or its numbers mean nothing
        failed = set() if res.metrics.csv_text() == items[0][1] else {0}
        _time_sim_calls(sl, tr, self.config, res.states, self.ring, self.SPEED)
        stats = json.loads(items[0][2])

        def layers(wall):
            integrate_s = tr.total("sim.integrate")
            solve_s = tr.median_ms("rings.mill_ring") / 1e3
            cli_self = statistics.median(tr.durations("cli.main")) - integrate_s - solve_s
            out = _sim_layers(tr, wall, integrate_s, stats, len(res.states))
            out.update({
                "rings.solve_ms": 1e3 * solve_s,
                "rings.trig_moment_ms": tr.median_ms("rings.trig_moment"),
                "rings.solves": 1,
                "rings.share": solve_s / wall,
                "cli.self_s": cli_self,
                "cli.share": cli_self / wall,
            })
            return out

        return failed, layers


class EnsembleCS:
    """``bifurcation_sweep`` over b for seeded Cucker-Smale flocks, one worker."""

    name = "ensemble-cs"
    item = "member"
    entry = "sim.bifurcation_sweep"
    A, GAMMA, IC_SPEED, B_LO, B_HI, NOISE = 5.0, 1.0, 1.0, 1.0, 1.6, 1e-3
    SAMPLES = 10
    SIZES = {
        "full": {"members": 32, "n": 32, "t_final": 50.0},
        "smoke": {"members": 4, "n": 12, "t_final": 5.0},
    }
    # members replayed by the untraced run's momentum check
    CHECKED = 2

    def __init__(self, sl, seed, size, workdir):
        self.sl = sl
        k, self.n, t_final = (self.SIZES[size][key] for key in ("members", "n", "t_final"))
        rng = np.random.default_rng(seed)
        # one value per stratum of [B_LO, B_HI], so every seed spans the range
        width = (self.B_HI - self.B_LO) / k
        self.values = [float(v) for v in self.B_LO + (np.arange(k) + rng.uniform(size=k)) * width]
        self.count = k
        self.pert = sl.RandomNoise(self.NOISE, self.NOISE)
        self.config = sl.SimConfig(
            model="cucker-smale", potential=sl.PowerLaw(self.A, self.values[0]), n=self.n,
            t_final=t_final, alignment=sl.AlignmentKernel(self.GAMMA), seed=seed * k,
            sample_every=t_final / self.SAMPLES,
        )
        self.check_members = sorted(rng.choice(k, size=min(self.CHECKED, k), replace=False))

    def call(self, k):
        return self.sl.bifurcation_sweep(
            self.config, "b", self.values, ic_kind="flock", metric="polarization",
            perturbation=self.pert, ic_speed=self.IC_SPEED, workers=1,
        )

    def items(self, k, rows):
        return list(rows)

    def check(self, items):
        """One row per value, in order, each with final polarization > 0.999."""
        failed = set()
        for i, v in enumerate(self.values):
            value, pol = items[i] if i < len(items) else (None, float("nan"))
            if value != v or not (_finite(pol) and pol > 0.999):
                failed.add(i)
        return failed

    def _replay_member(self, i, tr=None):
        """Member i rebuilt from the inputs the sweep documents and integrated."""
        sl = self.sl
        pot = sl.PowerLaw(self.A, self.values[i])
        cfg = replace(self.config, potential=pot, seed=self.config.seed + i)
        rng = np.random.default_rng(cfg.seed)
        with tr.span("rings.flock_ring") if tr else contextlib.nullcontext():
            ring = sl.flock_ring(pot, self.n, self.IC_SPEED)
        state = sl.ic_flock_ring(ring, perturbation=self.pert, rng=rng)
        with tr.span("sim.integrate") if tr else contextlib.nullcontext():
            res = sl.integrate(cfg, state, reference=ring)
        return cfg, ring, state, res

    @staticmethod
    def _momentum_drift(initial, final):
        """Change of total momentum relative to the summed speeds (Cucker-Smale conserves it)."""
        p0 = initial.velocities.sum(axis=0)
        p1 = final.velocities.sum(axis=0)
        return float(np.linalg.norm(p1 - p0) / np.sum(np.hypot(*initial.velocities.T)))

    def _member_ok(self, items, i, state, res):
        same = float(res.metrics.polarization[-1]) == items[i][1]
        return same and self._momentum_drift(state, res.final_state) < 1e-9

    def oracle(self, items):
        """Replay seeded members: same final polarization, momentum conserved."""
        failed = set()
        for i in self.check_members:
            _, _, state, res = self._replay_member(int(i))
            if not self._member_ok(items, int(i), state, res):
                failed.add(int(i))
        return failed

    def replay(self, tr, items):
        sl = self.sl
        stats = {"rhs_evals": 0, "steps_accepted": 0, "steps_rejected": 0}
        samples = 0
        failed = set()
        saved = []
        for i in range(len(self.values)):
            cfg, ring, state, res = self._replay_member(i, tr)
            if not self._member_ok(items, i, state, res):
                failed.add(i)
            for key in stats:
                stats[key] += res.stats[key]
            samples += len(res.states)
            saved.append((cfg, ring, res.states[0], res.states[-1]))
        for cfg, ring, first, last in saved:
            _time_sim_calls(sl, tr, cfg, (first, last), ring, self.IC_SPEED)
        _time_trig_moment(sl, tr, self.n, self.A, REPS)

        def layers(wall):
            rings_s = tr.total("rings.flock_ring")
            out = _sim_layers(tr, wall, tr.total("sim.integrate"), stats, samples)
            out.update({
                "rings.solve_ms": tr.median_ms("rings.flock_ring"),
                "rings.trig_moment_ms": tr.median_ms("rings.trig_moment"),
                "rings.solves": len(self.values),
                "rings.share": rings_s / wall,
            })
            return out

        return failed, layers


class ScanMill:
    """``swarmlab region --model mill`` on a seeded window of the (a, b) plane."""

    name = "scan-mill"
    item = "cell"
    entry = "cli.main"
    A_LO, A_HI, B_LO, B_HI, SPEED, ALPHA = 3.0, 7.0, 0.5, 2.5, 0.5, 1.0
    SIZES = {"full": {"count": 20, "n": 1000}, "smoke": {"count": 4, "n": 60}}
    # direct-sum oracle: cells checked, and modes sampled per cell besides the critical one
    ORACLE_CELLS, ORACLE_MODES = 3, 7

    def __init__(self, sl, seed, size, workdir):
        self.sl, self.workdir = sl, workdir
        count, self.n = self.SIZES[size]["count"], self.SIZES[size]["n"]
        self.rng = np.random.default_rng(seed)
        # shift the window by up to half a cell along each axis
        da, db = (float(u) for u in self.rng.uniform(-0.5, 0.5, size=2)
                  * [(self.A_HI - self.A_LO) / (count - 1), (self.B_HI - self.B_LO) / (count - 1)])
        fixed = {"n": self.n, "speed": self.SPEED, "alpha": self.ALPHA}
        self.spec = sl.GridSpec("a", self.A_LO + da, self.A_HI + da, count,
                                "b", self.B_LO + db, self.B_HI + db, count, fixed=fixed)
        s = self.spec
        self.argv = [
            "region", "--model", "mill", "--grid",
            f"a:{s.x_min!r}:{s.x_max!r}:{count}", f"b:{s.y_min!r}:{s.y_max!r}:{count}",
            "--fixed", *(f"{k}={v!r}" for k, v in fixed.items()), "--workers", "1",
        ]
        self.cells = [(float(x), float(y)) for x in s.x_values for y in s.y_values]
        self.count = len(self.cells)

    def call(self, k):
        return _cli(self.sl, [*self.argv, "--out", str(self.workdir / f"scan{k}")])

    def items(self, k, code):
        if code != 0:
            return []
        rows = _csv_rows((self.workdir / f"scan{k}.csv").read_text())
        return [tuple(r.values()) for r in rows]

    def check(self, items):
        """One row per cell on the grid, valid class, finite max_real, mode in band."""
        failed = set()
        m_max = (self.n - 1) // 2
        for i, (x, y) in enumerate(self.cells):
            try:
                rx, ry, cls, max_real, mode = items[i]
                ok = (float(rx), float(ry)) == (x, y) and cls in ("stable", "unstable", "marginal")
                ok = ok and _finite(float(max_real)) and 2 <= int(mode) <= m_max
            except (IndexError, ValueError):
                ok = False
            if not ok:
                failed.add(i)
        return failed

    def _direct(self, a, b, m):
        """Worst real part and class of mode m through the direct-sum matrix."""
        sl = self.sl
        mat = sl.mill_mode_matrix(a, b, self.n, m, self.ALPHA, self.SPEED)
        vals = sl.eig4(mat)
        tol = 1e-8 * max(1.0, mat.max_norm)
        return float(np.max(vals.real)), sl.classify(vals, tol=tol).value, tol

    def oracle(self, items):
        """Seeded cells recomputed through mill_mode_matrix + eig4 + classify.

        The critical mode must reproduce the cell's class and max_real, and no
        sampled mode may exceed the cell's maximum.
        """
        failed = set()
        m_max = (self.n - 1) // 2
        valid = [i for i, row in enumerate(items) if row[2] != "invalid"]
        picks = self.rng.choice(valid, size=min(self.ORACLE_CELLS, len(valid)), replace=False)
        for i in (int(p) for p in picks):
            _, _, cls, max_real, mode = items[i]
            a, b = self.cells[i]
            max_real, mode = float(max_real), int(mode)
            crit_re, crit_cls, tol = self._direct(a, b, mode)
            ok = crit_cls == cls and abs(crit_re - max_real) <= tol
            others = [m for m in range(2, m_max + 1) if m != mode]
            for m in self.rng.choice(others, size=min(self.ORACLE_MODES, len(others)), replace=False):
                re, _, tol = self._direct(a, b, int(m))
                ok = ok and re <= max_real + tol
            if not ok:
                failed.add(i)
        return failed

    def replay(self, tr, items):
        sl = self.sl
        with tr.span("regions.scan_mill"):
            region = sl.scan_mill(self.spec, workers=1)
        failed = set()
        modes = 0
        for i, (a, b) in enumerate(self.cells):
            with tr.span("spectra.mode_envelope"):
                summary, reports = sl.mode_envelope(
                    "mill", a, b, self.n, alpha=self.ALPHA, gamma=1.0, speed=self.SPEED)
            with tr.span("rings.mill_ring"):
                sl.mill_ring(sl.PowerLaw(a, b), self.n, self.SPEED)
            modes += len(reports)
            cell = region.cells[i]
            row = (repr(a), repr(b), summary.classification.value,
                   repr(summary.max_real), str(summary.m))
            scanned = (repr(cell.x), repr(cell.y), cell.classification.value,
                       repr(cell.max_real), str(cell.critical_mode))
            if i >= len(items) or not items[i] == row == scanned:
                failed.add(i)
        a_c, b_c = self.cells[len(self.cells) // 2]
        _time_trig_moment(sl, tr, self.n, a_c, REPS)
        coupling_ms = _coupling_ms(sl, tr, a_c, b_c, self.n, REPS)
        cells = len(self.cells)

        def layers(wall):
            scan_s = tr.total("regions.scan_mill")
            envelope_s = tr.total("spectra.mode_envelope")
            solve_s = tr.total("rings.mill_ring")
            cli_self = statistics.median(tr.durations("cli.main")) - scan_s
            regions_self = scan_s - envelope_s
            return {
                "spectra.envelope_ms": tr.median_ms("spectra.mode_envelope"),
                "spectra.envelope_s": envelope_s,
                "spectra.modes": modes,
                "spectra.coupling_ms": coupling_ms,
                "spectra.share": (envelope_s - solve_s) / wall,
                "rings.solve_ms": tr.median_ms("rings.mill_ring"),
                "rings.trig_moment_ms": tr.median_ms("rings.trig_moment"),
                "rings.solves": cells,
                "rings.share": solve_s / wall,
                "regions.cells": cells,
                "regions.invalid_cells": sum(1 for row in items if row[2] == "invalid"),
                "regions.cell_ms": 1e3 * scan_s / cells,
                "regions.self_s": regions_self,
                "regions.share": regions_self / wall,
                "cli.self_s": cli_self,
                "cli.share": cli_self / wall,
            }

        return failed, layers


def _coupling_ms(sl, tr, a, b, n, reps):
    """det_asymptotics time minus the flock radius solve it starts with."""
    for _ in range(reps):
        with tr.span("rings.flock_ring"):
            sl.flock_ring(sl.PowerLaw(a, b), n)
        with tr.span("spectra.det_asymptotics"):
            sl.det_asymptotics(a, b, n, [2, 3])
    return tr.median_ms("spectra.det_asymptotics") - tr.median_ms("rings.flock_ring")


class Separatrix:
    """``separatrix_check`` at large n for two seeded exponents a."""

    name = "separatrix"
    item = "a-value"
    entry = "regions.separatrix_check"
    # one a from each stratum, so every seed costs about the same
    STRATA = ((3.0, 4.0), (4.0, 5.0))
    COARSE = 9  # separatrix_check's default coarse grid
    GAP_TOL = 0.05  # the tolerance of acceptance criterion 7
    REPS = 3  # a radius solve at n = 1e5 takes about 0.07 s
    SIZES = {
        "full": {"n": 100000, "m_max": 10000, "steps": 40},
        "smoke": {"n": 20000, "m_max": 2000, "steps": 12},
    }

    def __init__(self, sl, seed, size, workdir):
        self.sl = sl
        self.n, self.m_max, self.steps = (self.SIZES[size][k] for k in ("n", "m_max", "steps"))
        rng = np.random.default_rng(seed)
        self.a_values = [float(rng.uniform(lo, hi)) for lo, hi in self.STRATA]
        self.count = len(self.a_values)

    def call(self, k):
        return self.sl.separatrix_check(self.a_values, self.n, m_max=self.m_max, steps=self.steps)

    def items(self, k, rows):
        return list(rows)

    def check(self, items):
        """One finite row per a; the boundary lies within the criterion-7 tolerance of a/(a-1)."""
        failed = set()
        for i, a in enumerate(self.a_values):
            ok = i < len(items) and items[i][0] == a and _finite(*items[i])
            gap = items[i][1] - a / (a - 1.0) if ok else math.nan
            if not (ok and abs(gap) < self.GAP_TOL and items[i][3] == gap):
                failed.add(i)
        return failed

    def oracle(self, items):
        return set()

    def replay(self, tr, items):
        sl = self.sl
        solves = 0
        coupling_ms = []
        for a, boundary, _, _ in items:
            # the coarse scan stops at its first stable b, taken to be the
            # first grid point at or above the boundary; then `steps` bisections
            grid = np.linspace(0.5, a - 0.05, self.COARSE)
            solves += int(np.searchsorted(grid, boundary)) + 1 + self.steps
            coupling_ms.append(_coupling_ms(sl, tr, a, boundary, self.n, self.REPS))
            _time_trig_moment(sl, tr, self.n, a, self.REPS)
        solve = tr.median_ms("rings.flock_ring")
        coupling = float(np.mean(coupling_ms))
        rings_s = solves * solve / 1e3
        spectra_s = solves * coupling / 1e3

        def layers(wall):
            regions_self = wall - rings_s - spectra_s
            return {
                "spectra.coupling_ms": coupling,
                "spectra.share": spectra_s / wall,
                "rings.solve_ms": solve,
                "rings.trig_moment_ms": tr.median_ms("rings.trig_moment"),
                "rings.solves": solves,
                "rings.share": rings_s / wall,
                "regions.self_s": regions_self,
                "regions.share": regions_self / wall,
            }

        return set(), layers


WORKLOADS = {w.name: w for w in (SimMill, EnsembleCS, ScanMill, Separatrix)}
