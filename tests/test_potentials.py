import math

import numpy as np
import pytest

from swarmlab.potentials import AlignmentKernel, Morse, PowerLaw, Propulsion
from swarmlab.sim import SimConfig, SwarmState, rhs


def propulsion_dv(prop, positions, velocities, pot=PowerLaw(3.0, 1.5)):
    """Accelerations rhs gives the propulsion model at one state."""
    positions = np.asarray(positions, dtype=float)
    cfg = SimConfig(model="propulsion", potential=pot, n=len(positions),
                    t_final=1.0, propulsion=prop)
    state = SwarmState(t=0.0, positions=positions,
                       velocities=np.asarray(velocities, dtype=float))
    return rhs(state, cfg)[1]


class TestPowerLaw:
    def test_deriv_closed_form(self):
        pot = PowerLaw(4.0, 2.0)
        r = np.array([0.5, 1.0, 2.0, 3.7])
        assert np.allclose(pot.deriv(r), r**3 - r)

    def test_deriv_matches_finite_difference(self, rng):
        pot = PowerLaw(3.5, 1.2)
        h = 1e-6
        for r in rng.uniform(0.3, 3.0, size=10):
            fd = (pot.value(r + h) - pot.value(r - h)) / (2 * h)
            assert pot.deriv(r) == pytest.approx(fd, rel=1e-8)

    def test_second_deriv_matches_finite_difference(self, rng):
        pot = PowerLaw(5.0, 1.5)
        h = 1e-5
        for r in rng.uniform(0.3, 3.0, size=10):
            fd = (pot.deriv(r + h) - pot.deriv(r - h)) / (2 * h)
            assert pot.second_deriv(r) == pytest.approx(fd, rel=1e-7)

    def test_sign_structure(self):
        # repulsive below r=1, attractive above, zero force exactly at 1
        pot = PowerLaw(4.0, 2.0)
        assert pot.deriv(0.5) < 0
        assert pot.deriv(1.0) == 0.0
        assert pot.deriv(2.0) > 0

    def test_exponent_validation(self):
        with pytest.raises(ValueError):
            PowerLaw(2.0, 2.0)
        with pytest.raises(ValueError):
            PowerLaw(2.0, 3.0)
        with pytest.raises(ValueError):
            PowerLaw(2.0, 0.0)
        with pytest.raises(ValueError):
            PowerLaw(2.0, -1.0)

    @pytest.mark.parametrize("a, b, named", [
        (math.inf, 1.0, "a=inf"), (3.0, math.nan, "b=nan"), (math.nan, 1.0, "a=nan"),
    ])
    def test_non_finite_exponent_is_named(self, a, b, named):
        with pytest.raises(ValueError, match=f"need finite [ab] > .*, got {named}"):
            PowerLaw(a, b)


class TestMorse:
    def test_deriv_matches_finite_difference(self, rng):
        pot = Morse(C_A=0.5, C_R=1.0, l_A=2.0, l_R=0.5)
        h = 1e-6
        for r in rng.uniform(0.1, 5.0, size=10):
            fd = (pot.value(r + h) - pot.value(r - h)) / (2 * h)
            assert pot.deriv(r) == pytest.approx(fd, rel=1e-8)

    def test_second_deriv_matches_finite_difference(self, rng):
        pot = Morse(C_A=0.5, C_R=1.0, l_A=2.0, l_R=0.5)
        h = 1e-5
        for r in rng.uniform(0.1, 5.0, size=10):
            fd = (pot.deriv(r + h) - pot.deriv(r - h)) / (2 * h)
            assert pot.second_deriv(r) == pytest.approx(fd, rel=1e-7)

    def test_long_range_attraction_short_range_repulsion(self):
        pot = Morse(C_A=0.5, C_R=1.0, l_A=2.0, l_R=0.5)
        assert pot.deriv(0.05) < 0
        assert pot.deriv(4.0) > 0

    def test_positivity_validation(self):
        for bad in (
            dict(C_A=0.0, C_R=1.0, l_A=2.0, l_R=0.5),
            dict(C_A=0.5, C_R=-1.0, l_A=2.0, l_R=0.5),
            dict(C_A=0.5, C_R=1.0, l_A=0.0, l_R=0.5),
            dict(C_A=0.5, C_R=1.0, l_A=2.0, l_R=-0.1),
        ):
            with pytest.raises(ValueError):
                Morse(**bad)

    @pytest.mark.parametrize("name, value", [("C_A", math.inf), ("C_R", math.nan),
                                             ("l_A", math.inf), ("l_R", math.nan)])
    def test_non_finite_parameter_is_named(self, name, value):
        params = {**dict(C_A=0.5, C_R=1.0, l_A=2.0, l_R=0.5), name: value}
        with pytest.raises(ValueError, match=f"finite {name} > 0, got {name}={value}"):
            Morse(**params)


class TestPropulsion:
    def test_asymptotic_speed(self):
        assert Propulsion(1.0, 4.0).asymptotic_speed == 0.5
        assert Propulsion(1.0, 100.0).asymptotic_speed == pytest.approx(0.1)

    def test_term_vanishes_at_asymptotic_speed(self):
        # a lone particle feels only propulsion
        prop = Propulsion(2.0, 8.0)
        for v in ([0.5, 0.0], [0.0, -0.5], [0.3, 0.4]):
            out = propulsion_dv(prop, [[0.0, 0.0]], [v])
            assert np.allclose(out, 0.0, atol=1e-15)

    def test_term_accelerates_slow_brakes_fast(self):
        prop = Propulsion(1.0, 1.0)
        slow = propulsion_dv(prop, [[0.0, 0.0]], [[0.5, 0.0]])
        fast = propulsion_dv(prop, [[0.0, 0.0]], [[2.0, 0.0]])
        assert slow[0, 0] > 0
        assert fast[0, 0] < 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Propulsion(0.0, 1.0)
        with pytest.raises(ValueError):
            Propulsion(1.0, -1.0)

    @pytest.mark.parametrize("alpha, beta, needle", [(math.inf, 4.0, "alpha=inf"),
                                                     (1.0, math.nan, "beta=nan")])
    def test_non_finite_value_is_named(self, alpha, beta, needle):
        with pytest.raises(ValueError, match=needle):
            Propulsion(alpha, beta)


class TestAlignmentKernel:
    def test_value_and_monotonicity(self):
        k = AlignmentKernel(1.0)
        assert k.value(0.0) == 1.0
        assert k.value(1.0) == pytest.approx(0.5)
        r = np.linspace(0.0, 10.0, 50)
        g = k.value(r)
        assert np.all(g > 0)
        assert np.all(np.diff(g) < 0)

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            AlignmentKernel(0.0)
        with pytest.raises(ValueError):
            AlignmentKernel(-2.0)
        with pytest.raises(ValueError, match="gamma=inf"):
            AlignmentKernel(math.inf)


class TestForceHelpers:
    def test_pairwise_force_oddness_and_rotation(self, rng):
        # the pair force as rhs applies it: at rest, two particles pull on
        # each other equally and oppositely, and rotating a whole state
        # rotates its accelerations
        prop = Propulsion(1.0, 1.0)
        x = rng.uniform(-2, 2, size=(6, 2)) + np.array([3.0, 0.0])
        for offset in x:
            dv = propulsion_dv(prop, [[0.0, 0.0], offset], np.zeros((2, 2)))
            assert np.allclose(dv[0], -dv[1], atol=1e-12)
        v = rng.uniform(-1, 1, size=(6, 2))
        dv = propulsion_dv(prop, x, v)
        c, s = np.cos(0.7), np.sin(0.7)
        Q = np.array([[c, -s], [s, c]])
        assert np.allclose(propulsion_dv(prop, x @ Q.T, v @ Q.T), dv @ Q.T, atol=1e-12)


def pair_distances(n, rng):
    """An (n, n) table of positive distances, as the pair kernel passes it."""
    return rng.uniform(0.05, 4.0, size=(n, n))


class TestOutArrays:
    # deriv must give exactly its two scalar-exponent np.power calls, and the
    # in-place alignment path (the spectral coupling rows) exactly the plain
    # expression; exponents 2.0, 0.5 and 1.0 are where numpy has fast paths
    @pytest.mark.parametrize("a, b", [(3.0, 1.5), (2.0, 1.5), (3.0, 2.0),
                                      (5.0, 1.25), (4, 0.0005)])
    def test_power_law_deriv(self, a, b, rng):
        pot = PowerLaw(a, b)
        r = pair_distances(60, rng)
        expect = np.power(r, a - 1.0) - np.power(r, b - 1.0)
        assert np.array_equal(pot.deriv(r), expect)

    @pytest.mark.parametrize("gamma", [1.0, 0.5, 2.0, 1.3])
    def test_alignment_value(self, gamma, rng):
        kernel = AlignmentKernel(gamma)
        r = pair_distances(60, rng)
        expect = (1.0 + r * r) ** (-gamma)
        out = np.full_like(r, np.nan)
        assert kernel.value(r, out=out) is out
        assert np.array_equal(out, expect)
        assert np.array_equal(kernel.value(r), expect)
