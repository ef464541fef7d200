"""Acceptance suite: one test and one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; criterion 12 is in the slow suite (deselect with ``-m "not
slow"``).  Each test pins its tolerances inline and also enforces the
runtime budget for the criterion.
"""

import math
import time

import numpy as np
import pytest

from swarmlab.cli import _ufunc_fingerprint
from swarmlab.potentials import AlignmentKernel, PowerLaw, Propulsion
from swarmlab.regions import GridSpec, gamma_sweep, scan_cs_flock, scan_flock, scan_mill, separatrix_check
from swarmlab.rings import RadiusProblem, continuum_radius, flock_ring, solve_radius
from swarmlab.sim import (
    ModePerturbation,
    RandomNoise,
    SimConfig,
    SwarmState,
    _sweep,
    ic_flock_ring,
    integrate,
)
from swarmlab.spectra import (
    cs_flock_mode_matrix,
    det_asymptotics,
    eig4,
    flock_mode_matrix,
    mill_mode_matrix,
    mode_envelope,
    theorem_witness,
)

SEED = 20260823


def _conclude(num, name, ok, detail, started, budget):
    elapsed = time.time() - started
    in_budget = elapsed < budget
    verdict = "PASS" if (ok and in_budget) else "FAIL"
    print(f"{verdict} [{num:02d}] {name}: {detail} [{elapsed:.1f}s / {budget:.0f}s]")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert in_budget, f"criterion {num} ({name}) took {elapsed:.1f}s, budget {budget}s"


def test_criterion_01_radius_closed_form():
    started = time.time()
    target = 3.0 ** -0.5
    errs = []
    for n in (5, 100, 1000):
        ring = solve_radius(RadiusProblem(potential=PowerLaw(4, 2), n=n, speed=0.0))
        errs.append(abs(ring.radius - target))
    ok = max(errs) < 1e-10
    _conclude(1, "radius closed form (4,2)", ok,
              f"max |R - 3^-1/2| = {max(errs):.2e} (tol 1e-10, N=5/100/1000)",
              started, 1.0)


def test_criterion_02_discrete_to_continuum():
    started = time.time()
    ok = True
    details = []
    for a, b in ((3, 1.5), (5, 2), (4, 0.5)):
        pot = PowerLaw(a, b)
        limit = continuum_radius(a, b, 0.0)
        errs = [
            abs(solve_radius(RadiusProblem(potential=pot, n=n, speed=0.0)).radius - limit)
            for n in (10, 100, 1000, 10000)
        ]
        # exactly-representable roots can hit 0.0 early, so non-strict
        monotone = all(e1 >= e2 for e1, e2 in zip(errs, errs[1:]))
        ok = ok and monotone and errs[-1] < 1e-3
        details.append(f"({a},{b}): final {errs[-1]:.2e}, monotone {monotone}")
    _conclude(2, "discrete-to-continuum radius", ok,
              "; ".join(details) + " (tol 1e-3 at N=1e4)", started, 5.0)


def test_criterion_03_mode_one_zero_modes():
    started = time.time()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(20):
        a = rng.uniform(2.5, 7.0)
        b = rng.uniform(0.3, 0.8 * a)
        n = int(rng.integers(8, 400))
        alpha = rng.uniform(0.3, 3.0)
        beta = rng.uniform(0.3, 3.0)
        gamma = rng.uniform(0.3, 3.0)
        worst = max(
            worst,
            min(abs(eig4(flock_mode_matrix(a, b, n, 1, Propulsion(alpha, beta))))),
            min(abs(eig4(cs_flock_mode_matrix(a, b, n, 1, gamma)))),
            # rotating rings trade the zero for an exact +i*omega pair, so
            # the mills are drawn on their speed-0 degeneracy surface
            min(abs(eig4(mill_mode_matrix(a, b, n, 1, alpha, 0.0)))),
        )
    ok = worst < 1e-8
    _conclude(3, "first-mode zero eigenvalue", ok,
              f"worst min |eig| over 20 draws x 3 models = {worst:.2e} (tol 1e-8)",
              started, 1.0)


def test_criterion_04_reduced_theorem_equivalence():
    started = time.time()
    rng = np.random.default_rng(SEED)
    mismatches = 0
    decisive = 0
    for _ in range(200):
        a = rng.uniform(2.5, 7.0)
        b = rng.uniform(0.3, 0.8 * a)
        n = int(rng.integers(8, 2001))
        m = int(rng.integers(2, max(3, (n - 1) // 2 + 1)))
        alpha = rng.uniform(0.3, 3.0)
        beta = rng.uniform(0.3, 3.0)
        mat = flock_mode_matrix(a, b, n, m, Propulsion(alpha, beta))
        max_re = float(np.max(eig4(mat).real))
        if abs(max_re) <= 1e-8 * max(1.0, mat.max_norm):
            continue  # inside the tolerance band: no sign to compare
        decisive += 1
        # the shape matrix is the flock matrix's rows 3-4, columns 1-2
        e = mat.entries
        D, T = e[2, 0] * e[3, 1] - e[2, 1] * e[3, 0], e[2, 0] + e[3, 1]
        if (max_re < 0) != (D > 0 and T < 0):
            mismatches += 1
    ok = mismatches == 0 and decisive >= 140
    _conclude(4, "4x4 sign vs determinant/trace criterion", ok,
              f"{decisive}/200 decisive draws, {mismatches} sign mismatches",
              started, 10.0)


def test_criterion_05_full_system_witness():
    started = time.time()
    failures = []
    for a, b in ((4, 2), (3, 2.5), (5, 0.5)):
        for n in (8, 12, 16):
            for coupling in (Propulsion(1.0, 1.0), AlignmentKernel(1.0)):
                if not theorem_witness(a, b, n, coupling)["agree"]:
                    failures.append((a, b, n, type(coupling).__name__))
    ok = not failures
    _conclude(5, "full-system stability witness", ok,
              f"agree on 18/18 cases" if ok else f"disagreements: {failures}",
              started, 60.0)


def test_criterion_06_determinant_asymptotics():
    started = time.time()
    table, slope = det_asymptotics(5, 1.5, 100000, [2 ** k for k in range(6, 13)])
    dets = [abs(d) for _, d in table]
    tail = dets[-4:]  # m = 512 .. 4096, the largest decade
    monotone = all(x > y for x, y in zip(tail, tail[1:]))
    ok = abs(slope + 0.5) < 0.1 and monotone
    _conclude(6, "shape-determinant decay", ok,
              f"log-log slope {slope:.4f} (want -0.5 +/- 0.1), "
              f"|det| monotone to 0 over m=512..4096: {monotone}",
              started, 60.0)


def test_criterion_07_separatrix_limit():
    started = time.time()
    rows = separatrix_check([3.0, 5.0], 100000, m_max=10000)
    gaps = {a: gap for a, _, _, gap in rows}
    ok = all(abs(g) < 0.05 for g in gaps.values())
    _conclude(7, "lower boundary vs a/(a-1)", ok,
              ", ".join(f"a={a:g}: gap {g:+.4f}" for a, g in gaps.items())
              + " (tol 0.05, N=1e5, m_max=1e4)",
              started, 300.0)


def test_criterion_08_reference_classifications():
    started = time.time()
    wrong = []
    for a, b in ((3, 2.5), (5, 4.1), (7, 1.5), (5, 1.1), (5, 0.5), (7, 0.5)):
        summary, _ = mode_envelope("flock", a, b, 1000)
        if summary.classification.value != "unstable":
            wrong.append(("flock", a, b, summary.classification.value))
    for (a, b), want in (((5, 1.25), "stable"), ((5, 0.5), "unstable"), ((5, 3.5), "unstable")):
        summary, _ = mode_envelope("mill", a, b, 1000, alpha=1.0, speed=0.5)
        if summary.classification.value != want:
            wrong.append(("mill", a, b, summary.classification.value))
    spec_kw = dict(x_name="a", x_min=2.6, x_max=6.8, x_count=20,
                   y_name="b", y_min=0.3, y_max=2.4, y_count=20)
    flock_grid = scan_flock(GridSpec(fixed={"n": 200, "m_max": 30}, **spec_kw)).classification_grid()
    mill_grid = scan_mill(
        GridSpec(fixed={"n": 200, "m_max": 30, "speed": 0.0}, **spec_kw)
    ).classification_grid()
    degenerate_equal = np.array_equal(flock_grid, mill_grid)
    ok = not wrong and degenerate_equal
    _conclude(8, "reference-point classifications", ok,
              ("all 9 points match" if not wrong else f"wrong: {wrong}")
              + f"; speed-0 mill == flock on 20x20: {degenerate_equal}",
              started, 300.0)


def test_criterion_09_alignment_strength_independence():
    started = time.time()
    grids = []
    for gamma in (0.5, 1.0, 2.0):
        spec = GridSpec("a", 2.6, 6.8, 10, "b", 0.3, 2.4, 10,
                        fixed={"n": 200, "m_max": 30, "gamma": gamma})
        grids.append(scan_cs_flock(spec).classification_grid())
    identical = all(np.array_equal(grids[0], g) for g in grids[1:])
    signs_ok = True
    for a, b, m in ((3, 2.5, 5), (5, 1.5, 3)):
        rows = gamma_sweep(a, b, 100, m, [0.5, 1.0, 2.0, 4.0])
        signs_ok = signs_ok and len({np.sign(v) for _, v in rows}) == 1
    ok = identical and signs_ok
    _conclude(9, "alignment-strength independence", ok,
              f"10x10 verdicts identical for gamma 0.5/1/2: {identical}; "
              f"sweep signs constant: {signs_ok}",
              started, 30.0)


def test_criterion_10_integrator_convergence():
    started = time.time()
    s0 = 0.25
    s = s0 * math.exp(20.0) / (1.0 - s0 + s0 * math.exp(20.0))
    exact = math.sqrt(s)

    def endpoint_error(rtol, atol):
        cfg = SimConfig(model="propulsion", potential=PowerLaw(4, 2), n=1,
                        t_final=10.0, propulsion=Propulsion(1.0, 1.0),
                        rtol=rtol, atol=atol, sample_every=10.0)
        st = SwarmState(t=0.0, positions=np.zeros((1, 2)),
                        velocities=np.array([[0.5, 0.0]]))
        res = integrate(cfg, st)
        return abs(np.hypot(*res.final_state.velocities[0]) - exact)

    default_err = endpoint_error(1e-6, 1e-9)
    ladder = [endpoint_error(r, r * 1e-3)
              for r in (1e-4, 1e-5, 1e-6, 1e-7)]
    decreasing = all(e1 > e2 for e1, e2 in zip(ladder, ladder[1:]))
    ok = default_err < 1e-6 and decreasing and ladder[0] / ladder[-1] > 50
    _conclude(10, "integrator logistic convergence", ok,
              f"|v(10)| error {default_err:.2e} at defaults (tol 1e-6); "
              f"errors per tolerance decade {['%.2e' % e for e in ladder]}",
              started, 1.0)


def test_criterion_11_linear_nonlinear_consistency():
    started = time.time()
    # (a) stable ring mode decay vs the reduced 4x4, fitted on [0, 3]
    n, m, xi = 64, 3, 1e-4
    pot = PowerLaw(4, 2)
    ring = flock_ring(pot, n, speed=1.0)
    st = ic_flock_ring(ring, perturbation=ModePerturbation(m=m, xi_plus=xi))
    cfg = SimConfig(model="propulsion", potential=pot, n=n, t_final=3.0,
                    propulsion=Propulsion(1.0, 1.0), rtol=1e-9, atol=1e-12,
                    sample_every=0.25)
    res = integrate(cfg, st, reference=ring)
    theta = 2.0 * np.pi * np.arange(1, n + 1) / n
    to_c = np.array([1.0, 1.0j])
    amps = []
    for s in res.states:
        z = (s.positions - s.positions.mean(axis=0)) @ to_c
        dz = z * np.exp(-1j * theta) - ring.radius
        vz = (s.velocities - s.velocities.mean(axis=0)) @ to_c
        dvz = vz * np.exp(-1j * theta)
        comps = (
            np.mean(dz * np.exp(-1j * m * theta)),
            np.conj(np.mean(dz * np.exp(1j * m * theta))),
            np.mean(dvz * np.exp(-1j * m * theta)),
            np.conj(np.mean(dvz * np.exp(1j * m * theta))),
        )
        amps.append(math.sqrt(sum(abs(c) ** 2 for c in comps)) / ring.radius)
    mat = flock_mode_matrix(4, 2, n, m, Propulsion(1.0, 1.0)).entries
    u = np.array([xi, 0.0, 0.0, 0.0], dtype=complex)
    t = 0.0
    pred = []
    for ts in res.metrics.t:
        while t < ts - 1e-12:
            h = min(1e-3, ts - t)
            k1 = mat @ u
            k2 = mat @ (u + 0.5 * h * k1)
            k3 = mat @ (u + 0.5 * h * k2)
            k4 = mat @ (u + h * k3)
            u = u + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t += h
        pred.append(float(np.linalg.norm(u)))
    slope_meas = np.polyfit(res.metrics.t, np.log(amps), 1)[0]
    slope_pred = np.polyfit(res.metrics.t, np.log(pred), 1)[0]
    rate_rel = abs(slope_meas - slope_pred) / abs(slope_pred)

    # (b) fattening instability actually fattens the ring
    pot_b = PowerLaw(5, 0.5)
    ring_b = flock_ring(pot_b, 200, speed=1.0)
    cfg_b = SimConfig(model="propulsion", potential=pot_b, n=200, t_final=100.0,
                      propulsion=Propulsion(1.0, 1.0), sample_every=10.0)
    res_b = integrate(cfg_b, ic_flock_ring(ring_b), reference=ring_b)
    eta_final = float(res_b.metrics.eta_rel[-1])

    ok = rate_rel < 0.20 and eta_final > 0.05
    _conclude(11, "trajectory vs linear theory", ok,
              f"mode-3 decay rate off by {rate_rel * 100:.2f}% (tol 20%); "
              f"(5,0.5) ring fattens to eta_rel {eta_final:.3f} by t=100 (need >0.05)",
              started, 300.0)


def _wilson_interval(hits, trials):
    """95% Wilson score interval for a binomial fraction hits/trials."""
    z = 1.96
    p = hits / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@pytest.mark.slow
def test_criterion_12_pattern_switching():
    started = time.time()
    workers = 2  # results do not depend on it; the flock half's stacks share 2 threads

    def end_state(result):
        pol = float(result.metrics.polarization[-1])
        am = float(result.metrics.angular_momentum[-1])
        kind = "mill" if pol < 0.2 and am > 0.8 else "flock" if pol > 0.9 else "other"
        return kind, pol, am

    # flock ring at (4, 0.001, speed 0.1): linear theory puts it unstable
    # (mode 49, Re lambda ~ 4.33), and two attractors compete, a mill and a
    # fat flock (eta_rel ~ 0.28).  An unperturbed run leaves the choice to
    # roundoff, so the numpy build picks it.  The claim is therefore stated
    # over K seeded realizations (seeds SEED + k), each kicked by noise of
    # 1e-6 of the ring's radius and speed, far below any scale the linear
    # theory resolves.  The paper supports that the switch happens, not how
    # often, so at least one mill is required; the mill fraction (0.4-0.6
    # in seeded runs so far) is reported, not asserted.
    K = 12
    pot_b = PowerLaw(4, 0.001)
    radius_b = solve_radius(RadiusProblem(pot_b, 100)).radius  # the noise scale
    cfg_b = SimConfig(model="propulsion", potential=pot_b, n=100, t_final=400.0,
                      propulsion=Propulsion(1.0, 100.0), sample_every=100.0, seed=SEED)
    kinds = [end_state(res)[0] for res in _sweep(
        cfg_b, "b", [0.001] * K, ic_kind="flock", ic_speed=0.1,
        perturbation=RandomNoise(1e-6 * radius_b, 1e-6 * 0.1), workers=workers,
    )]
    mills, flocks = kinds.count("mill"), kinds.count("flock")
    others = K - mills - flocks
    mill_lo, mill_hi = _wilson_interval(mills, K)
    flock_to_mill = mills >= 1

    # mill ring at (4, 0.0005, speed 0.01) with a seeded kick of the
    # sweep's default size (1e-3 of the ring's radius and speed): the
    # ring blows up into a chaotic fat annulus, transiently re-organizes
    # into rotation, and the rotation gives way to full alignment (a fat
    # flock, eta_rel 0.28) by t=300.  The competing attractor is a fat
    # mill, and it is the usual outcome: at this sigma, seeds 200-209 gave
    # 1 flock in 10 and seeds 300-319 and 400-419 gave 4 in 40, so 5 of 50
    # seeded runs (0.10) end as flocks.  Seed 4 is a pinned minority
    # realization, so this half shows that the switch exists, not how
    # often it happens.  Which attractor seed 4 reaches depends on the
    # numpy build, named by the ufunc fingerprint below, and on the pair
    # kernel's form (powers of the squared distance) and in-order pair
    # summation, which
    # tests/test_sim.py::TestRhs::test_pair_terms_summed_left_to_right pins.
    cfg_a = SimConfig(model="propulsion", potential=PowerLaw(4, 0.0005), n=100,
                      t_final=2000.0, propulsion=Propulsion(1.0, 1.0 / 0.01 ** 2),
                      sample_every=500.0, seed=4)
    (res_a,) = _sweep(cfg_a, "b", [0.0005], ic_kind="mill", ic_speed=0.01)
    kind_a, pol_a, am_a = end_state(res_a)
    mill_to_flock = kind_a == "flock"

    ok = flock_to_mill and mill_to_flock
    _conclude(12, "pattern switching", ok,
              f"flock->mill over {K} seeds (mill: pol<0.2 and am>0.8; flock: pol>0.9): "
              f"{mills} mill / {flocks} flock / {others} other, mill fraction "
              f"{mills / K:.2f} (95% CI {mill_lo:.2f}-{mill_hi:.2f}), need >=1 mill: {flock_to_mill}; "
              f"mill->flock pol {pol_a:.3f} (>0.9): {mill_to_flock} "
              f"(final am {am_a:.3f}); ufuncs {_ufunc_fingerprint()[:16]}, "
              f"{workers} workers",
              started, 600.0)
