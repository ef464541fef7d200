import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import swarmlab.sim as sim_module
from swarmlab.potentials import AlignmentKernel, Morse, PowerLaw, Propulsion
from swarmlab.rings import flock_ring, mill_ring, ring_positions
from swarmlab.sim import (
    MetricSeries,
    ModePerturbation,
    RandomNoise,
    SimConfig,
    SimulationError,
    SwarmState,
    bifurcation_sweep,
    ic_flock_ring,
    ic_mill_ring,
    integrate,
    metric_angular_momentum,
    metric_cluster,
    metric_fatten,
    metric_polarization,
    rhs,
)
from swarmlab.spectra import cs_flock_mode_matrix, eig4


def propulsion_config(pot, n, t_final, alpha=1.0, beta=1.0, **kw):
    return SimConfig(
        model="propulsion", potential=pot, n=n, t_final=t_final,
        propulsion=Propulsion(alpha, beta), **kw,
    )


def left_to_right_dv(x, v, cfg):
    """dv from a Python loop adding each particle's pair terms in index order."""
    n = x.shape[0]
    dist = np.hypot(x[:, 0, None] - x[:, 0], x[:, 1, None] - x[:, 1])
    np.fill_diagonal(dist, 1.0)

    def pair_sum(w, u):
        acc = np.zeros((n, 2))
        for j in range(n):
            for l in range(n):
                if l != j:
                    acc[j] += w[j, l] * (u[l] - u[j])
        return acc / n

    dv = pair_sum(cfg.potential.deriv(dist) / dist, x)
    if cfg.model == "propulsion":
        for j in range(n):
            speed2 = v[j, 0] * v[j, 0] + v[j, 1] * v[j, 1]
            dv[j] += (cfg.propulsion.alpha - cfg.propulsion.beta * speed2) * v[j]
    else:
        dv += pair_sum(cfg.alignment.value(dist), v)
    return dv


class TestRhs:
    def test_single_particle_on_speed(self):
        cfg = propulsion_config(PowerLaw(4, 2), 1, 1.0)
        st = SwarmState(t=0.0, positions=np.zeros((1, 2)), velocities=np.array([[1.0, 0.0]]))
        dx, dv = rhs(st, cfg)
        assert np.array_equal(dx, [[1.0, 0.0]])
        assert np.allclose(dv, 0.0, atol=1e-15)

    def test_pair_at_equilibrium_distance_is_propulsion_only(self):
        # k'(1) = 0 for PowerLaw(2,1): the interaction contributes nothing
        cfg = propulsion_config(PowerLaw(2, 1), 2, 1.0, alpha=1.0, beta=1.0)
        v = np.array([[0.5, 0.0], [0.5, 0.0]])
        st = SwarmState(
            t=0.0, positions=np.array([[0.0, 0.0], [1.0, 0.0]]), velocities=v
        )
        _, dv = rhs(st, cfg)
        expect = (1.0 - 0.25) * v
        assert np.allclose(dv, expect, atol=1e-14)

    def test_flock_ring_is_steady(self):
        pot = PowerLaw(5, 1.5)
        ring = flock_ring(pot, 40, speed=0.5)
        cfg = propulsion_config(pot, 40, 1.0, alpha=1.0, beta=4.0)  # speed 0.5
        st = ic_flock_ring(ring)
        _, dv = rhs(st, cfg)
        assert np.max(np.abs(dv)) < 1e-11

    def test_mill_ring_is_centripetal(self):
        pot = PowerLaw(5, 1.5)
        ring = mill_ring(pot, 40, 0.5)
        cfg = propulsion_config(pot, 40, 1.0, alpha=1.0, beta=4.0)
        st = ic_mill_ring(ring)
        _, dv = rhs(st, cfg)
        expect = -(ring.omega**2) * st.positions
        assert np.max(np.abs(dv - expect)) < 1e-11

    def test_guard_violation_names_pair(self):
        cfg = propulsion_config(PowerLaw(2, 1), 3, 1.0, min_distance_guard=10.0)
        st = SwarmState(t=0.0, positions=np.array([[0.0, 0.0], [1.0, 0.0], [30.0, 0.0]]),
                        velocities=np.zeros((3, 2)))
        with pytest.raises(SimulationError, match="particles 0 and 1"):
            rhs(st, cfg)

    def test_guard_names_closest_pair_in_row_order(self):
        cfg = propulsion_config(PowerLaw(2, 1), 4, 1.0, min_distance_guard=1.0)
        x = np.array([[0.0, 0.0], [10.0, 0.0], [10.5, 0.0], [30.0, 0.0]])
        st = SwarmState(t=0.0, positions=x, velocities=np.zeros((4, 2)))
        with pytest.raises(SimulationError, match="particles 1 and 2 at distance 5.000e-01"):
            rhs(st, cfg)

    def test_guard_tie_names_first_pair_in_row_order(self):
        # (0, 3) and (1, 2) are both 0.5 apart; (0, 3) comes first in row
        # order, (1, 2) first in column order
        cfg = propulsion_config(PowerLaw(2, 1), 4, 1.0, min_distance_guard=1.0)
        x = np.array([[20.0, 0.0], [0.0, 0.0], [0.5, 0.0], [20.5, 0.0]])
        st = SwarmState(t=0.0, positions=x, velocities=np.zeros((4, 2)))
        with pytest.raises(SimulationError, match="particles 0 and 3 at distance 5.000e-01"):
            rhs(st, cfg)

    @pytest.mark.parametrize("pot", [PowerLaw(4.5, 1.75),
                                     Morse(C_A=1.5, C_R=2.0, l_A=2.5, l_R=0.5)])
    def test_pair_weights_evaluated_once_per_pair(self, monkeypatch, pot):
        n = 9
        rng = np.random.default_rng(4)
        st = SwarmState(t=0.0, positions=rng.standard_normal((n, 2)),
                        velocities=rng.standard_normal((n, 2)))
        cfg = SimConfig(model="cucker-smale", potential=pot, n=n, t_final=1.0,
                        alignment=AlignmentKernel(0.75))
        # the first RHS for a potential and a kernel also caches their weight
        # at distance 1, which fills the diagonal of the weight matrix
        rhs(st, cfg)
        sizes = {"deriv": [], "value": [], "power": []}
        for cls, name in ((type(pot), "deriv"), (AlignmentKernel, "value")):
            def spy(self, r, *args, _method=getattr(cls, name), _name=name, **kw):
                sizes[_name].append(np.size(r))
                return _method(self, r, *args, **kw)
            monkeypatch.setattr(cls, name, spy)

        def power(r, *args, _power=np.power, **kw):
            sizes["power"].append(np.size(r))
            return _power(r, *args, **kw)

        monkeypatch.setattr(np, "power", power)
        rhs(st, cfg)
        # k'(r) is one deriv call, or for a power law one np.power per
        # exponent; g(r) is one value call, which makes one np.power
        m = n * (n - 1) // 2
        if isinstance(pot, PowerLaw):
            assert sizes == {"deriv": [], "value": [m], "power": [m, m, m]}
        else:
            assert sizes == {"deriv": [m], "value": [m], "power": [m]}

    @pytest.mark.parametrize("model, pot", [
        ("propulsion", PowerLaw(5, 1.25)),
        ("propulsion", Morse(C_A=1.0, C_R=2.0, l_A=2.0, l_R=0.5)),
        ("cucker-smale", PowerLaw(5, 1.25)),
    ])
    def test_pair_terms_summed_left_to_right(self, model, pot):
        # the reproducibility contract: bit-equal to an in-order Python sum
        n = 24
        rng = np.random.default_rng(11)
        theta = 2 * np.pi * np.arange(n) / n
        x = 0.6 * np.column_stack([np.cos(theta), np.sin(theta)])
        x += np.array([40.0, -30.0]) + 1e-2 * rng.standard_normal((n, 2))
        v = 0.5 * rng.standard_normal((n, 2))
        if model == "propulsion":
            cfg = propulsion_config(pot, n, 1.0, alpha=1.0, beta=4.0)
        else:
            cfg = SimConfig(model=model, potential=pot, n=n, t_final=1.0,
                            alignment=AlignmentKernel(1.0))
        _, dv = rhs(SwarmState(t=0.0, positions=x, velocities=v), cfg)
        assert np.array_equal(dv, left_to_right_dv(x, v, cfg))
        # states back to back through one stack kernel whose buffers start
        # as NaN, alone and then stacked with another: nothing of the
        # earlier contents or of the other member reaches any result
        kernel = sim_module._Kernel(n, cfg.model, 2)
        for array in kernel.buffers:
            array.fill(np.nan)
        for index in kernel.indices:
            index.fill(-1)  # take's mode="clip" would read entry 0 if bind missed one
        x2, v2 = 1.3 * x[::-1], -v
        states = [(x, v), (x2, v2)]
        y = np.array([np.concatenate([xs.ravel(), vs.ravel()]) for xs, vs in states])
        out = np.empty_like(y)
        for rows in ([0], [1, 0]):
            kernel.bind([cfg] * len(rows), [0.0] * len(rows))
            kernel(y[rows], out[: len(rows)])
            for row, i in enumerate(rows):
                xs, vs = states[i]
                _, dv_fresh = rhs(SwarmState(t=0.0, positions=xs, velocities=vs), cfg)
                assert np.array_equal(out[row, 2 * n :].reshape(n, 2), dv_fresh)
        assert np.array_equal(out[0, 2 * n :].reshape(n, 2), left_to_right_dv(x2, v2, cfg))
        # the weight matrix of the first member, weights[:, 0] in the
        # [l, member, j] layout (of the last block: velocities under
        # Cucker-Smale), holds the weight at distance 1 on its diagonal, where
        # the offsets are zero, as an evaluation on all n^2 entries does
        one = np.ones(1)
        unit = cfg.alignment.value(one) if cfg.alignment else pot.deriv(one) / one
        assert kernel.weights.shape == (n, 2, n)
        assert np.array_equal(np.diag(kernel.weights[:, 0]), np.full(n, unit[0]))

    def test_cs_rhs_matches_direct_sum(self):
        pot = PowerLaw(3, 1.5)
        cfg = SimConfig(model="cucker-smale", potential=pot, n=3, t_final=1.0,
                        alignment=AlignmentKernel(1.2))
        x = np.array([[0.0, 0.0], [1.1, 0.2], [-0.4, 0.9]])
        v = np.array([[0.3, 0.0], [0.0, -0.2], [0.1, 0.5]])
        st = SwarmState(t=0.0, positions=x, velocities=v)
        _, dv = rhs(st, cfg)
        expect = np.zeros_like(dv)
        kern = AlignmentKernel(1.2)
        for j in range(3):
            for l in range(3):
                if l == j:
                    continue
                d = np.linalg.norm(x[j] - x[l])
                expect[j] += pot.deriv(d) / d * (x[l] - x[j]) / 3
                expect[j] += float(kern.value(d)) * (v[l] - v[j]) / 3
        assert np.allclose(dv, expect, atol=1e-14)


class TestIntegrate:
    def test_logistic_speed_relaxation(self):
        cfg = propulsion_config(PowerLaw(4, 2), 1, 10.0, sample_every=1.0)
        st = SwarmState(t=0.0, positions=np.zeros((1, 2)), velocities=np.array([[0.5, 0.0]]))
        res = integrate(cfg, st)
        s0 = 0.25
        for state in res.states:
            s = s0 * math.exp(2 * state.t) / (1.0 - s0 + s0 * math.exp(2 * state.t))
            assert np.hypot(*state.velocities[0]) == pytest.approx(math.sqrt(s), abs=1e-6)

    def test_error_drops_with_tolerance(self):
        s0 = 0.25
        s = s0 * math.exp(20.0) / (1.0 - s0 + s0 * math.exp(20.0))
        exact = math.sqrt(s)
        errors = []
        for rtol, atol in [(1e-4, 1e-7), (1e-5, 1e-8), (1e-6, 1e-9), (1e-7, 1e-10)]:
            cfg = propulsion_config(PowerLaw(4, 2), 1, 10.0, rtol=rtol, atol=atol,
                                    sample_every=10.0)
            st = SwarmState(t=0.0, positions=np.zeros((1, 2)),
                            velocities=np.array([[0.5, 0.0]]))
            res = integrate(cfg, st)
            errors.append(abs(np.hypot(*res.final_state.velocities[0]) - exact))
        for worse, better in zip(errors, errors[1:]):
            assert better < worse / 2

    def test_sampling_grid_and_stats(self):
        cfg = propulsion_config(PowerLaw(4, 2), 1, 2.5, sample_every=1.0)
        st = SwarmState(t=0.0, positions=np.zeros((1, 2)), velocities=np.array([[0.5, 0.0]]))
        res = integrate(cfg, st)
        assert np.allclose(res.metrics.t, [0.0, 1.0, 2.0, 2.5])
        assert res.stats["steps_accepted"] > 0
        assert res.stats["rhs_evals"] > 6 * res.stats["steps_accepted"]
        assert 0 < res.stats["h_min"] <= res.stats["h_median"] <= res.stats["h_max"] <= 2.5
        assert res.stats["min_pair_distance"] is None  # one particle has no pairs
        assert "momentum_drift" not in res.stats

    def test_pair_distance_and_momentum_stats(self):
        pot = PowerLaw(4, 2)
        ring = flock_ring(pot, 12, speed=1.0)
        st = ic_flock_ring(ring, perturbation=RandomNoise(1e-2, 1e-2),
                           rng=np.random.default_rng(3))
        cfg = SimConfig(model="cucker-smale", potential=pot, n=12, t_final=5.0,
                        alignment=AlignmentKernel(1.0))
        res = integrate(cfg, st, reference=ring)

        def closest_pair(s):
            d = np.hypot(*(s.positions[:, None] - s.positions).T)
            return float(np.min(d[~np.eye(12, dtype=bool)]))

        # the initial state is one of the RHS evaluations; the other samples
        # are interpolated, so they bound the minimum only loosely
        assert res.stats["min_pair_distance"] <= closest_pair(st)
        assert res.stats["min_pair_distance"] > 0.9 * min(map(closest_pair, res.states))
        assert res.stats["momentum_drift"] < 1e-12

    @staticmethod
    def traced_mill_run(monkeypatch, hook):
        """Integrate a perturbed n = 200 mill for 0.2 time units under
        tracemalloc; kernel evaluation k (from 1) runs as hook(k, evaluate)."""
        pot = PowerLaw(5, 1.25)
        ring = mill_ring(pot, 200, 0.5)
        st = ic_mill_ring(ring, perturbation=RandomNoise(1e-2 * ring.radius, 5e-3),
                          rng=np.random.default_rng(1))
        cfg = propulsion_config(pot, 200, 0.2, alpha=1.0, beta=4.0, sample_every=0.2)
        kernel = sim_module._Kernel.__call__
        calls = itertools.count(1)

        def traced(self, *args):
            return hook(next(calls), lambda: kernel(self, *args))

        monkeypatch.setattr(sim_module._Kernel, "__call__", traced)
        tracemalloc.start()
        try:
            integrate(cfg, st)
        finally:
            tracemalloc.stop()

    def test_steps_reuse_the_kernel_buffers(self, monkeypatch):
        # once the run's buffers exist, one whole step (its six RHS
        # evaluations and the stepper's own arrays) never holds one more
        # (n, n) array; tracemalloc sees numpy's data allocations
        window = {}

        def hook(k, evaluate):
            if k == 3:  # first stage of the first step; evaluations 1-2 start the run
                tracemalloc.reset_peak()
                window["start"] = tracemalloc.get_traced_memory()[0]
            elif k == 9:  # first stage of the second step
                window["peak"] = tracemalloc.get_traced_memory()[1]
            return evaluate()

        self.traced_mill_run(monkeypatch, hook)
        assert window["peak"] - window["start"] < 200 * 200 * 8

    def test_one_evaluation_allocates_less_than_its_pair_count(self, monkeypatch):
        # the kernel owns writeable gather and mirror indices, so np.take
        # copies no index array of the m = n(n - 1)/2 pairs per evaluation
        growth = []

        def hook(k, evaluate):
            if k != 5:
                return evaluate()
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            result = evaluate()
            growth.append(tracemalloc.get_traced_memory()[1] - start)
            return result

        self.traced_mill_run(monkeypatch, hook)
        assert len(growth) == 1 and growth[0] < 200 * 199 // 2 * 8

    def test_last_step_ends_exactly_at_t_final(self):
        # here the step cut to end at t_final starts below t_final / 2, where
        # t + (t_final - t) can round one ulp short of t_final; the run then
        # needed a further step below the underflow guard and raised
        tf = 2.83822632013108
        cfg = propulsion_config(PowerLaw(4, 2), 1, tf, sample_every=tf)
        st = SwarmState(t=0.0, positions=np.zeros((1, 2)), velocities=np.array([[1.0, 0.0]]))
        res = integrate(cfg, st)
        assert list(res.metrics.t) == [0.0, tf]
        assert res.stats["h_max"] > 0.5 * tf

    def test_nan_derivative_is_a_step_underflow(self):
        # two coincident particles with the guard off make the first
        # derivative NaN, so the first step size is NaN; the run used to
        # reject NaN steps at t = 0 forever
        cfg = propulsion_config(PowerLaw(5, 1.25), 3, 1.0, alpha=1.0, beta=4.0,
                                min_distance_guard=0.0)
        x = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
        st = SwarmState(t=0.0, positions=x, velocities=np.zeros((3, 2)))
        with np.errstate(invalid="ignore"), pytest.raises(SimulationError, match="h=nan"):
            integrate(cfg, st)

    def test_n_mismatch_rejected(self):
        cfg = propulsion_config(PowerLaw(4, 2), 3, 1.0)
        st = SwarmState(t=0.0, positions=np.zeros((2, 2)), velocities=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            integrate(cfg, st)

    def test_deterministic_repeats(self):
        pot = PowerLaw(4, 2)
        ring = flock_ring(pot, 20, speed=0.5)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(7)
            st = ic_flock_ring(ring, perturbation=RandomNoise(1e-3, 1e-3), rng=rng)
            cfg = propulsion_config(pot, 20, 5.0, alpha=1.0, beta=4.0, seed=7)
            res = integrate(cfg, st, reference=ring)
            runs.append(res)
        assert runs[0].metrics.csv_text() == runs[1].metrics.csv_text()
        assert np.array_equal(runs[0].final_state.positions, runs[1].final_state.positions)

    def test_steady_flock_translates_rigidly(self):
        pot = PowerLaw(5, 1.5)
        ring = flock_ring(pot, 30, speed=0.3)
        cfg = propulsion_config(pot, 30, 10.0, alpha=0.9, beta=10.0,
                                rtol=1e-9, atol=1e-12, sample_every=10.0)
        st = ic_flock_ring(ring)
        res = integrate(cfg, st)
        x0, x1 = st.positions, res.final_state.positions
        d0 = np.linalg.norm(x0[:, None, :] - x0[None, :, :], axis=-1)
        d1 = np.linalg.norm(x1[:, None, :] - x1[None, :, :], axis=-1)
        mask = ~np.eye(30, dtype=bool)
        assert np.max(np.abs(d1[mask] - d0[mask]) / d0[mask]) < 1e-6
        # the centroid actually moved at the drift speed
        assert np.linalg.norm(x1.mean(axis=0) - x0.mean(axis=0)) == pytest.approx(3.0, rel=1e-6)

    def test_steady_mill_preserves_radii_over_one_period(self):
        pot = PowerLaw(5, 1.25)
        ring = mill_ring(pot, 30, 0.5)
        period = 2 * math.pi / ring.omega
        cfg = propulsion_config(pot, 30, period, alpha=1.0, beta=4.0,
                                rtol=1e-9, atol=1e-12, sample_every=period)
        st = ic_mill_ring(ring)
        res = integrate(cfg, st, reference=ring)
        x = res.final_state.positions
        radii = np.hypot(*(x - x.mean(axis=0)).T)
        assert np.max(np.abs(radii - ring.radius) / ring.radius) < 1e-6

    def test_asymptotic_speed_reached(self):
        pot = PowerLaw(4, 2)
        ring = flock_ring(pot, 20, speed=0.5)
        rng = np.random.default_rng(3)
        st = ic_flock_ring(ring, perturbation=RandomNoise(1e-3, 1e-2), rng=rng)
        cfg = propulsion_config(pot, 20, 30.0, alpha=1.0, beta=4.0, sample_every=30.0)
        res = integrate(cfg, st)
        speeds = np.hypot(*res.final_state.velocities.T)
        assert np.max(np.abs(speeds - 0.5)) < 1e-3

    def test_cluster_error_stays_bounded_on_stable_ring(self):
        # alignment damping acts mode by mode, so on this stable ring the
        # perturbation decays and the cluster error stays within 2x its start
        pot = PowerLaw(4, 2)
        ring = flock_ring(pot, 100)
        st = ic_flock_ring(ring, perturbation=ModePerturbation(m=3, xi_plus=1e-3))
        cfg = SimConfig(model="cucker-smale", potential=pot, n=100, t_final=50.0,
                        alignment=AlignmentKernel(1.0), sample_every=5.0)
        res = integrate(cfg, st, reference=ring)
        mu = res.metrics.mu_rel
        assert mu[0] > 0
        assert max(mu) <= 2.0 * mu[0]

    def test_cluster_error_drift_scales_with_propulsion(self):
        # self-propulsion damps velocities along the fixed drift direction
        # only, which feeds the neutral shape modes of this a = 2b ring at a
        # rate proportional to alpha: weak propulsion keeps the start bounded
        # while order-one propulsion ramps it secularly
        pot = PowerLaw(4, 2)

        def final_ratio(alpha, beta):
            ring = flock_ring(pot, 100, speed=math.sqrt(alpha / beta))
            st = ic_flock_ring(ring, perturbation=ModePerturbation(m=3, xi_plus=1e-3))
            cfg = propulsion_config(pot, 100, 50.0, alpha=alpha, beta=beta,
                                    sample_every=10.0)
            res = integrate(cfg, st, reference=ring)
            return res.metrics.mu_rel[-1] / res.metrics.mu_rel[0]

        assert final_ratio(0.01, 1.0) <= 2.0
        assert final_ratio(1.0, 1.0) > 4.0

    def test_linear_regime_matches_mode_matrix(self):
        # alignment coupling keeps the mode decomposition exact, so the
        # fitted amplitude decay matches the 4x4 leading eigenvalue
        n, m = 64, 3
        pot = PowerLaw(5, 1.5)
        ring = flock_ring(pot, n)
        st = ic_flock_ring(ring, perturbation=ModePerturbation(m=m, xi_plus=1e-4))
        cfg = SimConfig(model="cucker-smale", potential=pot, n=n, t_final=20.0,
                        alignment=AlignmentKernel(1.0), rtol=1e-9, atol=1e-12,
                        sample_every=0.5)
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
            amps.append(np.sqrt(sum(abs(c) ** 2 for c in comps)) / ring.radius)
        slope = np.polyfit(res.metrics.t, np.log(amps), 1)[0]
        target = float(np.max(eig4(cs_flock_mode_matrix(5, 1.5, n, m, 1.0)).real))
        assert target < 0
        assert slope == pytest.approx(target, rel=0.2)


class TestInitialConditions:
    def test_unperturbed_flock_ring(self):
        ring = flock_ring(PowerLaw(4, 2), 12, speed=0.7)
        st = ic_flock_ring(ring, direction=(0.0, 2.0))
        assert np.allclose(st.positions, ring_positions(ring), atol=1e-14)
        assert np.allclose(st.velocities, np.tile([0.0, 0.7], (12, 1)), atol=1e-14)

    def test_mode_perturbation_centroid_free(self):
        ring = flock_ring(PowerLaw(4, 2), 16)
        for m in (2, 5, 14):
            st = ic_flock_ring(ring, perturbation=ModePerturbation(m=m, xi_plus=1e-3,
                                                                   xi_minus=2e-3j))
            assert np.linalg.norm(st.positions.mean(axis=0)) < 1e-12

    def test_mode_perturbation_range_checked(self):
        ring = flock_ring(PowerLaw(4, 2), 16)
        with pytest.raises(ValueError):
            ic_flock_ring(ring, perturbation=ModePerturbation(m=15, xi_plus=1e-3))
        with pytest.raises(ValueError):
            ModePerturbation(m=1, xi_plus=1e-3)

    def test_noise_centered_exactly(self):
        ring = flock_ring(PowerLaw(4, 2), 25, speed=0.4)
        rng = np.random.default_rng(11)
        st = ic_flock_ring(ring, perturbation=RandomNoise(1e-2, 1e-2), rng=rng)
        ref = ring_positions(ring)
        assert np.linalg.norm((st.positions - ref).mean(axis=0)) < 1e-14
        assert np.linalg.norm(st.velocities.mean(axis=0) - [0.4, 0.0]) < 1e-14

    def test_noise_requires_rng(self):
        ring = flock_ring(PowerLaw(4, 2), 8)
        with pytest.raises(ValueError):
            ic_flock_ring(ring, perturbation=RandomNoise(1e-2, 0.0))

    def test_mill_orientation_sets_rotation_sense(self):
        ring = mill_ring(PowerLaw(4, 2), 10, 0.5)
        ccw = ic_mill_ring(ring, orientation=1)
        cw = ic_mill_ring(ring, orientation=-1)
        cross = lambda st: np.sum(
            st.positions[:, 0] * st.velocities[:, 1]
            - st.positions[:, 1] * st.velocities[:, 0]
        )
        assert cross(ccw) > 0
        assert cross(cw) < 0
        assert np.allclose(np.hypot(*ccw.velocities.T), 0.5, atol=1e-12)

    def test_mill_orientation_validated(self):
        ring = mill_ring(PowerLaw(4, 2), 10, 0.5)
        with pytest.raises(ValueError):
            ic_mill_ring(ring, orientation=0)

    def test_state_validation(self):
        with pytest.raises(ValueError):
            SwarmState(t=0.0, positions=np.zeros((3, 2)), velocities=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            SwarmState(t=0.0, positions=np.full((2, 2), np.inf),
                       velocities=np.zeros((2, 2)))


class TestMetrics:
    def test_cluster_zero_on_rotated_ring(self):
        ring = flock_ring(PowerLaw(4, 2), 30)
        x = ring_positions(ring)
        c, s = np.cos(0.37), np.sin(0.37)
        Q = np.array([[c, -s], [s, c]])
        st = SwarmState(t=0.0, positions=x @ Q.T, velocities=np.zeros((30, 2)))
        assert metric_cluster(st, ring) < 1e-12

    def test_cluster_three_point_collapse(self):
        # N particles on 3 cluster points: closed form sqrt(N/3 - 1)
        n = 12
        angles = np.repeat([0.0, 2 * np.pi / 3, 4 * np.pi / 3], n // 3)
        x = np.column_stack([np.cos(angles), np.sin(angles)])
        st = SwarmState(t=0.0, positions=x, velocities=np.zeros((n, 2)))
        assert metric_cluster(st, None) == pytest.approx(math.sqrt(n / 3 - 1), rel=1e-6)

    def test_cluster_relabel_invariant(self, rng):
        ring = flock_ring(PowerLaw(4, 2), 20)
        x = ring_positions(ring)
        perm = rng.permutation(20)
        st = SwarmState(t=0.0, positions=x[perm], velocities=np.zeros((20, 2)))
        assert metric_cluster(st, ring) < 1e-12

    def test_fatten_reference_cases(self):
        ring = flock_ring(PowerLaw(4, 2), 24)
        x = ring_positions(ring)
        zeros = np.zeros((24, 2))
        assert metric_fatten(SwarmState(t=0, positions=x, velocities=zeros), ring) < 1e-12
        assert metric_fatten(
            SwarmState(t=0, positions=x * 1.1, velocities=zeros), ring
        ) == pytest.approx(0.1, abs=1e-12)
        assert metric_fatten(
            SwarmState(t=0, positions=zeros, velocities=zeros), ring
        ) == pytest.approx(1.0, abs=1e-12)

    def test_fatten_sees_symmetric_band(self):
        # half the particles pushed out, half pulled in: the mean radius
        # barely moves but the spread must register
        ring = flock_ring(PowerLaw(4, 2), 24)
        x = ring_positions(ring)
        scale = np.where(np.arange(24) % 2 == 0, 1.2, 0.8)
        st = SwarmState(t=0, positions=x * scale[:, None], velocities=np.zeros((24, 2)))
        assert metric_fatten(st, ring) == pytest.approx(0.2, abs=1e-3)

    def test_polarization_and_angular_momentum_flock(self):
        ring = flock_ring(PowerLaw(4, 2), 16, speed=0.8)
        st = ic_flock_ring(ring)
        assert metric_polarization(st) == pytest.approx(1.0, abs=1e-12)
        assert metric_angular_momentum(st) < 1e-10

    def test_polarization_and_angular_momentum_mill(self):
        ring = mill_ring(PowerLaw(4, 2), 16, 0.5)
        st = ic_mill_ring(ring)
        assert metric_polarization(st) < 1e-12
        assert metric_angular_momentum(st) == pytest.approx(1.0, abs=1e-12)

    def test_antipodal_pair_mill(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        v = np.array([[0.0, 1.0], [0.0, -1.0]])
        st = SwarmState(t=0.0, positions=x, velocities=v)
        assert metric_polarization(st) == 0.0
        assert metric_angular_momentum(st) == pytest.approx(1.0)

    def test_metrics_csv_column_order(self):
        series = MetricSeries(
            t=np.array([0.0]), mu_rel=np.array([1.0]), eta_rel=np.array([2.0]),
            speed_dev=np.array([3.0]), polarization=np.array([4.0]),
            angular_momentum=np.array([5.0]),
        )
        lines = series.csv_text().splitlines()
        assert lines[0] == "t,mu_rel,eta_rel,speed_dev,polarization,angular_momentum"
        assert lines[1] == "0.0,1.0,2.0,3.0,4.0,5.0"


def sweep_inputs(cfg, parameter, values, ic_kind, perturbation=None, ic_speed=None):
    """(config, initial state, ring) of each member, as bifurcation_sweep documents them."""
    inputs = []
    for k, value in enumerate(values):
        pot, prop, speed = cfg.potential, cfg.propulsion, ic_speed
        if parameter == "b":
            pot = PowerLaw(pot.a, value)
        else:
            prop, speed = Propulsion(value**2 * prop.beta, prop.beta), value
        speed = prop.asymptotic_speed if speed is None else speed
        member = replace(cfg, potential=pot, propulsion=prop, seed=cfg.seed + k)
        ring = (flock_ring if ic_kind == "flock" else mill_ring)(pot, cfg.n, speed)
        start = ic_flock_ring if ic_kind == "flock" else ic_mill_ring
        pert = perturbation or RandomNoise(1e-3 * ring.radius, 1e-3 * max(speed, 1e-3))
        state = start(ring, perturbation=pert, rng=np.random.default_rng(member.seed))
        inputs.append((member, state, ring))
    return inputs


def assert_stack_equals_separate_runs(inputs):
    """One stack of the members gives each the metrics, final state and stats
    of its own integrate run."""
    runs = [sim_module._Run(cfg, state, ring) for cfg, state, ring in inputs]
    sim_module._integrate(runs)
    alone = []
    for run, (cfg, state, ring) in zip(runs, inputs):
        stacked, single = run.result(), integrate(cfg, state, reference=ring)
        assert stacked.metrics.csv_text() == single.metrics.csv_text()
        for attr in ("positions", "velocities"):
            got = getattr(stacked.final_state, attr)
            assert got.tobytes() == getattr(single.final_state, attr).tobytes()
        assert stacked.stats == single.stats
        alone.append(single)
    # the members step in lockstep but take their own numbers of steps
    assert len({res.stats["rhs_evals"] for res in alone}) > 1
    return alone


class TestBifurcationSweep:
    # 4n = 132 is not a multiple of 8; at a = 3 every member's d^(a - 1)
    # takes np.power's exponent-2 path, and b = 1.5 gives d^(b - 1) its
    # exponent-0.5 path
    @pytest.mark.parametrize("n, a", [
        pytest.param(32, 5, id="32"), pytest.param(33, 5, id="33"), pytest.param(32, 3, id="32-a3"),
    ])
    def test_cs_stack_equals_separate_runs(self, n, a):
        cfg = SimConfig(model="cucker-smale", potential=PowerLaw(a, 1.2), n=n, t_final=8.0,
                        alignment=AlignmentKernel(1.0), seed=21, sample_every=1.5)
        values = [1.05, 1.2, 1.35, 1.5, 1.65]
        alone = assert_stack_equals_separate_runs(
            sweep_inputs(cfg, "b", values, "flock", ic_speed=0.8))
        rows = bifurcation_sweep(cfg, "b", values, metric="polarization", ic_speed=0.8)
        assert rows == [(v, res.metrics.polarization[-1]) for v, res in zip(values, alone)]

    # runs of equal exponents, adjacent and not, next to distinct ones: b - 1
    # = 0.5 and 2 take np.power's own loops, and at a = 3 so does a - 1 = 2
    @pytest.mark.parametrize("a, values", [
        pytest.param(5, [1.5, 1.2, 1.5, 3.0, 3.0, 1.35], id="a5"),
        pytest.param(3, [1.5, 1.2, 1.5, 2.5, 2.5, 1.35], id="a3"),
    ])
    def test_cs_stack_with_repeated_exponents_equals_separate_runs(self, a, values):
        cfg = SimConfig(model="cucker-smale", potential=PowerLaw(a, 1.2), n=32, t_final=6.0,
                        alignment=AlignmentKernel(1.0), seed=5, sample_every=1.5)
        inputs = sweep_inputs(cfg, "b", values, "flock", ic_speed=0.8)
        # one np.power call per run of equal a - 1 and per run of equal b - 1
        kernel = sim_module._Kernel(cfg.n, cfg.model, len(values))
        kernel.bind([member for member, _, _ in inputs], [0.0] * len(values))
        first, second = kernel.powers
        assert [(rows.start, rows.stop) for rows, _ in first] == [(0, 6)]
        assert [(rows.start, rows.stop) for rows, _ in second] == [
            (0, 1), (1, 2), (2, 3), (3, 5), (5, 6)]
        alone = assert_stack_equals_separate_runs(inputs)
        rows = bifurcation_sweep(cfg, "b", values, metric="polarization", ic_speed=0.8)
        assert rows == [(v, res.metrics.polarization[-1]) for v, res in zip(values, alone)]

    def test_propulsion_b_stack_at_large_n_equals_separate_runs(self):
        # a small stack of many particles, where the kernel's K*n-long inner
        # loops are barely longer than n
        cfg = propulsion_config(PowerLaw(5, 1.5), 64, 3.0, alpha=1.0, beta=4.0, seed=8,
                                sample_every=1.0)
        assert_stack_equals_separate_runs(sweep_inputs(cfg, "b", [1.5, 1.25, 1.5], "flock"))

    def test_mill_speed_stack_equals_separate_runs(self):
        cfg = propulsion_config(PowerLaw(5, 1.25), 20, 4.0, alpha=1.0, beta=4.0, seed=4,
                                sample_every=0.75)
        values = [0.3, 0.45, 0.6, 0.8]
        alone = assert_stack_equals_separate_runs(sweep_inputs(cfg, "speed", values, "mill"))
        rows = bifurcation_sweep(cfg, "speed", values, ic_kind="mill", metric="angular_momentum")
        assert rows == [(v, res.metrics.angular_momentum[-1]) for v, res in zip(values, alone)]

    @staticmethod
    def integrate_with_a_nan_stage(runs, monkeypatch):
        """Integrate runs as one stack, with a NaN in the first member's
        third stage of the first trial step; returns the advance calls as
        (run, err, accepted, h before, h after)."""
        kernel, advance = sim_module._Kernel.__call__, sim_module._Run.advance
        calls, decisions = itertools.count(1), []

        def poisoned(self, y, out):
            found = kernel(self, y, out)
            if next(calls) == 5:  # evaluations 1-2 start the run
                out[0, 0] = np.nan
            return found

        def traced(self, err, *args):
            h = self.h
            accepted = advance(self, err, *args)
            decisions.append((self, err, accepted, h, self.h))
            return accepted

        with monkeypatch.context() as patch:
            patch.setattr(sim_module._Kernel, "__call__", poisoned)
            patch.setattr(sim_module._Run, "advance", traced)
            sim_module._integrate(runs)
        return decisions

    def test_nan_error_norm_rejects_the_step(self, monkeypatch):
        # a trial step with a NaN stage (an overflow, say) has a NaN error
        # norm: the step is rejected and retried at h * _FAC_MIN, and the
        # run recovers; in a stack the other member does not see it
        cfg = SimConfig(model="cucker-smale", potential=PowerLaw(5, 1.2), n=12, t_final=2.0,
                        alignment=AlignmentKernel(1.0), seed=2, sample_every=1.0)
        inputs = sweep_inputs(cfg, "b", [1.2, 1.4], "flock", ic_speed=0.8)
        results = []
        for members in (inputs[:1], inputs):
            runs = [sim_module._Run(*member) for member in members]
            decisions = self.integrate_with_a_nan_stage(runs, monkeypatch)
            run, err, accepted, h, h_next = decisions[0]
            assert run is runs[0] and math.isnan(err) and not accepted
            assert h_next == h * sim_module._FAC_MIN
            res = runs[0].result()
            assert res.stats["steps_rejected"] >= 1
            assert np.isfinite(res.final_state.positions).all()
            assert np.isfinite(res.metrics.polarization).all()
            results.append(res)
        alone, stacked = results
        assert stacked.metrics.csv_text() == alone.metrics.csv_text()
        assert stacked.final_state.positions.tobytes() == alone.final_state.positions.tobytes()
        assert stacked.stats == alone.stats
        clean = integrate(*inputs[1])
        other = runs[1].result()
        assert other.metrics.csv_text() == clean.metrics.csv_text()
        assert other.stats == clean.stats

    @pytest.mark.parametrize("values", [[2.5, 3.0], [3.0, 2.5]],
                             ids=["lower-trips-later", "lower-trips-first"])
    def test_guard_trips_raise_the_lower_member_error(self, values):
        # at a guard of 0.29 the b = 3.0 ring (neighbours 0.2894 apart) trips
        # on its first evaluation, and the b = 2.5 ring (0.2917) trips later,
        # once the velocity noise has moved a pair closer
        cfg = SimConfig(model="cucker-smale", potential=PowerLaw(5, 2.0), n=12, t_final=4.0,
                        alignment=AlignmentKernel(1.0), seed=0, sample_every=4.0,
                        min_distance_guard=0.29)
        pert = RandomNoise(0.0, 0.3)
        inputs = sweep_inputs(cfg, "b", values, "flock", perturbation=pert, ic_speed=1.0)
        messages = []
        for member, state, ring in inputs:
            with pytest.raises(SimulationError) as alone:
                integrate(member, state, reference=ring)
            messages.append(str(alone.value))
        assert messages[values.index(3.0)].endswith("below the guard 2.900e-01")
        with pytest.raises(SimulationError) as swept:
            bifurcation_sweep(cfg, "b", values, metric="polarization", perturbation=pert,
                              ic_speed=1.0)
        assert str(swept.value) == messages[0]

    def test_single_value_equals_direct_run(self):
        pot = PowerLaw(5, 1.5)
        cfg = propulsion_config(pot, 30, 5.0, alpha=1.0, beta=4.0, seed=5,
                                sample_every=5.0)
        rows = bifurcation_sweep(cfg, "b", [1.5], ic_kind="flock", metric="cluster")
        assert len(rows) == 1
        ring = flock_ring(pot, 30, 0.5)
        rng = np.random.default_rng(5)
        st = ic_flock_ring(
            ring, perturbation=RandomNoise(1e-3 * ring.radius, 1e-3 * 0.5), rng=rng
        )
        res = integrate(cfg, st, reference=ring)
        assert rows[0] == (1.5, pytest.approx(res.metrics.mu_rel[-1], rel=1e-12))

    def test_worker_count_invariance(self):
        # two workers cut the members into two stacks (at n = 64 one stack
        # would hold eight of the ten), each with its own kernel buffers, so
        # stacks that run at once on the thread pool cannot disturb each other
        pot = PowerLaw(5, 1.5)
        cases = ((20, 2.0, [1.2, 1.5]), (120, 1.0, [1.2, 1.5]),
                 (64, 1.0, [1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9, 2.0]))
        for n, t_final, values in cases:
            cfg = propulsion_config(pot, n, t_final, alpha=1.0, beta=4.0, seed=9,
                                    sample_every=t_final)
            one = bifurcation_sweep(cfg, "b", values, metric="fatten", workers=1)
            two = bifurcation_sweep(cfg, "b", values, metric="fatten", workers=2)
            assert one == two
        assert sim_module._STACK_ENTRIES // 64**2 < len(values)
        for (_, eta), (member, state, ring) in zip(one, sweep_inputs(cfg, "b", values, "flock")):
            assert eta == integrate(member, state, reference=ring).metrics.eta_rel[-1]

    def test_speed_parameter_rebuilds_propulsion(self):
        pot = PowerLaw(5, 1.25)
        cfg = propulsion_config(pot, 20, 2.0, alpha=1.0, beta=4.0, sample_every=2.0)
        rows = bifurcation_sweep(cfg, "speed", [0.3, 0.6], ic_kind="mill",
                                 metric="angular_momentum")
        assert [v for v, _ in rows] == [0.3, 0.6]
        assert all(0.0 <= m <= 1.0 for _, m in rows)

    def test_cs_members_start_at_ic_speed(self):
        # member k is the direct run at its b and seed base + k, from a flock
        # ring drifting at ic_speed (a CS config has no speed of its own)
        cfg = SimConfig(model="cucker-smale", potential=PowerLaw(5, 1.25), n=20,
                        t_final=2.0, alignment=AlignmentKernel(1.0), seed=11,
                        sample_every=2.0)
        rows = bifurcation_sweep(cfg, "b", [1.25, 1.5], metric="polarization", ic_speed=0.7)
        for k, (b, pol) in enumerate(rows):
            pot = PowerLaw(5, b)
            ring = flock_ring(pot, 20, 0.7)
            st = ic_flock_ring(ring, perturbation=RandomNoise(1e-3 * ring.radius, 1e-3 * 0.7),
                               rng=np.random.default_rng(11 + k))
            member = replace(cfg, potential=pot, seed=11 + k)
            assert pol == integrate(member, st, reference=ring).metrics.polarization[-1]
        with pytest.raises(ValueError, match="ic_speed"):
            bifurcation_sweep(cfg, "b", [1.25])

    def test_speed_sweep_overrides_ic_speed(self):
        # on a speed sweep each member starts at its own value; ic_speed is unused
        pot = PowerLaw(5, 1.25)
        cfg = propulsion_config(pot, 20, 2.0, alpha=1.0, beta=4.0, seed=2, sample_every=2.0)
        rows = bifurcation_sweep(cfg, "speed", [0.3, 0.6], ic_kind="mill",
                                 metric="angular_momentum", ic_speed=5.0)
        for k, (speed, am) in enumerate(rows):
            ring = mill_ring(pot, 20, speed)
            st = ic_mill_ring(ring, perturbation=RandomNoise(1e-3 * ring.radius, 1e-3 * speed),
                              rng=np.random.default_rng(2 + k))
            member = replace(cfg, propulsion=Propulsion(speed**2 * 4.0, 4.0), seed=2 + k)
            assert am == integrate(member, st, reference=ring).metrics.angular_momentum[-1]

    def test_parameter_validation(self, monkeypatch):
        cfg = propulsion_config(PowerLaw(5, 1.5), 10, 1.0)
        with pytest.raises(ValueError):
            bifurcation_sweep(cfg, "gamma", [1.0])
        with pytest.raises(ValueError):
            bifurcation_sweep(cfg, "b", [1.0], ic_kind="blob")

        # a bad metric is rejected before any member is integrated
        def no_integrate(*args, **kwargs):
            raise AssertionError("integrate ran before the metric was checked")

        monkeypatch.setattr(sim_module, "integrate", no_integrate)
        monkeypatch.setattr(sim_module, "_integrate", no_integrate)
        with pytest.raises(ValueError, match="angular_momentum"):
            bifurcation_sweep(cfg, "b", [1.0, 1.2], metric="pol")
        # so is a worker count below 1
        for workers in (0, -5):
            with pytest.raises(ValueError, match=f"got workers={workers}"):
                bifurcation_sweep(cfg, "b", [1.0, 1.2], workers=workers)

    @pytest.mark.parametrize("workers", [1.5, True])
    def test_non_integer_workers_rejected_before_any_member(self, workers, monkeypatch):
        def no_integrate(*args, **kwargs):
            raise AssertionError("a member ran")

        monkeypatch.setattr(sim_module, "_integrate", no_integrate)
        cfg = propulsion_config(PowerLaw(5, 1.5), 10, 1.0)
        with pytest.raises(ValueError, match=f"got workers={workers!r}"):
            bifurcation_sweep(cfg, "b", [1.0, 1.2, 1.4], workers=workers)

    def test_threshold_crossings(self):
        # either stability boundary shows up as a jump in its end metric:
        # clustering past the upper one, fattening below the lower one.
        # b = 1.9 lies past the linear upper boundary (between b = 1.65 and
        # 1.7 at a = 5, n = 200), but its growth is slow enough that the
        # cluster metric stays small up to t = 100: the first assertion pins
        # a threshold that holds at t = 100, not the linear boundary
        cfg = propulsion_config(PowerLaw(5, 1.5), 200, 100.0, alpha=6.25,
                                beta=1.0, seed=7, sample_every=10.0)
        pert = RandomNoise(1e-5, 1e-5)
        cluster = dict(bifurcation_sweep(cfg, "b", [1.9, 2.2], metric="cluster",
                                         perturbation=pert))
        assert cluster[1.9] < 0.05
        assert cluster[2.2] > 0.2
        fatten = dict(bifurcation_sweep(cfg, "b", [0.6, 1.6], metric="fatten",
                                        perturbation=pert))
        assert fatten[0.6] > 0.05
        assert fatten[1.6] < 0.02
