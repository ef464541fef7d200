import math
from array import array
from itertools import repeat

import numpy as np
import pytest

from swarmlab import rings
from swarmlab.potentials import Morse, PowerLaw
from swarmlab.regions import separatrix_check
from swarmlab.rings import (
    RadiusProblem,
    RingSolution,
    beta_fn,
    continuum_radius,
    flock_ring,
    mill_ring,
    radius_residual,
    ring_positions,
    sine_moment_limit,
    solve_radius,
    solve_radius_all,
    trig_moment,
)

CANONICAL_MORSE = Morse(C_A=0.5, C_R=1.0, l_A=2.0, l_R=0.5)


def _separatrix_bench_a():
    # the two a values the separatrix benchmark draws at each of seeds 0-3
    return [
        float(np.random.default_rng(seed).uniform(lo, hi))
        for seed in range(4)
        for lo, hi in ((3.0, 4.0), (4.0, 5.0))
    ]


class TestTrigMoment:
    def test_even_exponents_bit_exact(self):
        # closed form binom(2k,k)/4^k holds for every n above k
        for n in (3, 5, 7, 64, 333, 1000):
            assert trig_moment(n, 2) == 0.5
            assert trig_moment(n, 4) == 0.375
        assert trig_moment(10, 6) == 0.3125
        assert trig_moment(11, 8) == 35.0 / 128.0

    def test_closed_form_matches_direct_sum(self):
        for n, alpha in [(5, 2), (9, 4), (32, 6)]:
            direct = sum(math.sin(p * math.pi / n) ** alpha for p in range(n)) / n
            assert trig_moment(n, alpha) == pytest.approx(direct, rel=1e-14)

    def test_fractional_exponent_against_independent_sum(self):
        for n, alpha in [(7, 1.5), (40, 3.7), (100, 0.5)]:
            terms = np.sin(np.arange(n) * np.pi / n) ** alpha
            ref = float(np.sum(np.sort(terms))) / n
            assert trig_moment(n, alpha) == pytest.approx(ref, rel=1e-13)

    def test_odd_integer_exponent(self):
        n = 5
        ref = sum(math.sin(p * math.pi / n) ** 3 for p in range(n)) / n
        assert trig_moment(5, 3) == pytest.approx(ref, rel=1e-15)

    def test_limit_consistency(self):
        # 2^(alpha-1) S_alpha approaches the continuum moment
        for alpha in (1.5, 2.0, 3.0, 4.0):
            val = 2.0 ** (alpha - 1.0) * trig_moment(4000, alpha)
            assert val == pytest.approx(sine_moment_limit(alpha), abs=1e-6)

    def test_domain_validation(self):
        # twice each: the solver's memo must not store a raised error as a value
        for moment in (trig_moment, rings._moment):
            for _ in range(2):
                with pytest.raises(ValueError):
                    moment(2, 2)
                with pytest.raises(ValueError):
                    moment(5, -1)

    def test_equals_generator_sum_bit_for_bit(self):
        # the table route sums the same libm sin/pow values with fsum, so it
        # reproduces the per-term generator exactly; the a values are those
        # of the separatrix benchmark at seeds 0-3
        bench_a = [
            float(np.random.default_rng(seed).uniform(lo, hi))
            for seed in range(4)
            for lo, hi in ((3.0, 4.0), (4.0, 5.0))
        ]
        for n in (3, 7, 1000, 100000):
            alphas = (0.0, 0.5, 1.25, 3.3, 5.0) + (tuple(bench_a) if n == 100000 else ())
            for alpha in alphas:
                ref = math.fsum(math.sin(p * math.pi / n) ** alpha for p in range(n)) / n
                assert trig_moment(n, alpha) == ref, (n, alpha)

    def test_non_finite_alpha_is_named(self):
        for moment in (trig_moment, rings._moment):
            for alpha in (math.inf, math.nan):
                with pytest.raises(ValueError, match=f"need finite alpha >= 0, got alpha={alpha}"):
                    moment(10, alpha)

    def test_equals_fsum_of_pow_bit_for_bit(self):
        # the numpy route (float_power terms, exact level sum) against
        # fsum over Python's pow on the same libm sine table
        rng = np.random.default_rng(13)
        for n in (3, 7, 32, 200, 1000, 100000, 2**20 + 1):
            alphas = rng.uniform(0.0, 12.0, 2 if n > 100000 else 6).tolist() + [1.0, 3.0]
            for alpha in alphas:
                ref = math.fsum(map(pow, rings._sines(n), repeat(alpha))) / n
                assert trig_moment(n, alpha) == ref, (n, alpha)

    def test_float_power_is_libm_pow(self):
        # trig_moment's bits rest on np.float_power's float64 loop calling
        # libm pow per element, as Python's pow does (np.power differs from
        # it on about 5% of these terms); checked at the separatrix
        # benchmark's a values and the coarse b grid below the first one
        table = rings._sines(100000)
        a_values = _separatrix_bench_a()
        b_values = np.linspace(0.5, a_values[0] - 0.05, 9).tolist()
        for alpha in a_values + b_values:
            ref = array("d", map(pow, table, repeat(alpha)))
            assert np.float_power(np.frombuffer(table), alpha).tobytes() == ref.tobytes(), alpha

    def test_caches_are_bounded(self):
        # _sines keeps n-length tables; _moment keeps floats, enough for one
        # 20-value scan column and its S_a, but fewer than the ~88 distinct
        # moments of a separatrix pass, so no pass hits an earlier one's
        assert rings._sines.cache_info().maxsize <= 8
        assert 21 <= rings._moment.cache_info().maxsize < 88

    def test_an_a_row_reuses_the_previous_rows_s_b(self):
        rings._moment.cache_clear()
        for a in (3.5, 4.5):
            for b in np.linspace(0.5, 2.5, 20).tolist():
                flock_ring(PowerLaw(a, b), 500)
        info = rings._moment.cache_info()
        assert (info.hits, info.misses) == (58, 22)

    def test_solves_at_fixed_a_reuse_s_a(self):
        rings._moment.cache_clear()
        for b in (1.1, 1.2, 1.3):
            flock_ring(PowerLaw(3.5, b), 2000)
        info = rings._moment.cache_info()
        assert (info.hits, info.misses) == (2, 4)


class TestWorkspace:
    def test_scratch_reuses_buffers_only_inside_a_workspace(self):
        assert rings._scratch((3,)) is not rings._scratch((3,))
        with rings._workspace():
            x = rings._scratch((3,))
            with rings._workspace():  # a nested one reuses the open one
                assert rings._scratch((3,)) is x
            assert rings._scratch((3,)) is x
            assert rings._scratch((2, 3)) is not x
            # a complex buffer of the same shape is another buffer
            z = rings._scratch((3,), complex)
            assert z.dtype == complex and z is not x
            assert rings._scratch((3,), complex) is z
            assert rings._scratch((3,), float) is x
        assert not hasattr(rings._workspaces, "buffers")
        assert rings._scratch((3,), complex) is not rings._scratch((3,), complex)
        assert rings._scratch((3,), complex).dtype == complex

    def test_a_keyed_workspace_holds_one_key_at_a_time(self):
        with rings._workspace():
            x = rings._scratch((3,))
            with rings._workspace():  # no key: the open buffers stay
                assert rings._scratch((3,)) is x
            with rings._workspace(6):  # a new key drops them
                y = rings._scratch((3,))
                assert y is not x
            with rings._workspace(6):  # the same key keeps them
                assert rings._scratch((3,)) is y
            assert rings._scratch((3,)) is y
            with rings._workspace(4):
                assert rings._scratch((3,)) is not y
        assert not hasattr(rings._workspaces, "buffers")

    def test_moments_keep_their_bytes_in_a_workspace(self):
        cases = [(100001, 1.37), (7, 0.5), (2000, 3.3), (2001, 0.9)]
        fresh = [trig_moment(n, alpha) for n, alpha in cases]
        with rings._workspace():
            for _ in range(2):
                assert [trig_moment(n, alpha) for n, alpha in cases] == fresh


class TestExactSum:
    @staticmethod
    def check(x):
        assert rings._exact_sum(x.copy(), np.empty_like(x)) == math.fsum(x.tolist())

    def test_single_term_and_zeros(self):
        for x in ([0.7], [-1.0], [5e-324], [0.0], [0.0] * 1000):
            self.check(np.array(x))

    def test_all_ones_at_the_size_limit_of_the_first_level(self):
        # at n = 2^L - 1 the first level's partial sums reach the largest
        # multiple of ulp(c) the constants allow, just below 2^52 ulps;
        # n = 2^21 starts the next L
        for n in (2**21 - 1, 2**21):
            assert rings._exact_sum(np.ones(n), np.empty(n)) == math.fsum(repeat(1.0, n)) == n

    def test_terms_from_one_down_to_subnormals(self):
        rng = np.random.default_rng(5)
        for size in (10, 1000, 50000):
            x = np.ldexp(rng.random(size), -rng.integers(0, 1080, size))
            x[0] = 1.0
            self.check(x)
            self.check(x * rng.choice([-1.0, 1.0], size))
        # the sum of the first two is a tie; the subnormal decides it
        self.check(np.array([1.0, 2.0**-53, 5e-324]))

    def test_size_just_above_a_power_of_two(self):
        rng = np.random.default_rng(9)
        x = rng.random(2**16 + 1) ** rng.uniform(0.5, 40.0)
        self.check(x)
        self.check(x - 0.5)


class TestBetaAndLimits:
    def test_beta_closed_forms(self):
        assert beta_fn(1.0, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert beta_fn(0.5, 0.5) == pytest.approx(math.pi, rel=1e-14)
        assert beta_fn(2.5, 1.5) == pytest.approx(math.pi / 16.0, rel=1e-13)
        # symmetry
        assert beta_fn(3.2, 1.7) == pytest.approx(beta_fn(1.7, 3.2), rel=1e-14)

    def test_beta_validation(self):
        with pytest.raises(ValueError):
            beta_fn(0.0, 1.0)
        with pytest.raises(ValueError):
            beta_fn(1.0, -2.0)

    def test_sine_moment_limit_values(self):
        assert sine_moment_limit(2.0) == pytest.approx(1.0, rel=1e-14)
        assert sine_moment_limit(4.0) == pytest.approx(3.0, rel=1e-14)
        assert sine_moment_limit(1.0) == pytest.approx(2.0 / math.pi, rel=1e-14)


# one call per number from outside, named as its ValueError names it
OUTSIDE = {
    "a": lambda v: continuum_radius(v, 2),
    "b": lambda v: continuum_radius(4, v),
    "speed": lambda v: continuum_radius(4, 2, v),
    "x": lambda v: beta_fn(v, 1),
    "y": lambda v: beta_fn(1, v),
    "alpha": sine_moment_limit,
    "R": lambda v: radius_residual(RadiusProblem(potential=PowerLaw(4, 2), n=20), v),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, True])
@pytest.mark.parametrize("name", list(OUTSIDE))
def test_outside_numbers_are_named(name, bad):
    # continuum_radius(4, 2, nan) returned 1000, beta_fn(inf, 1) and
    # radius_residual(problem, inf) nan, and True ran as 1
    with pytest.raises(ValueError, match=f"got {name}={bad!r}$"):
        OUTSIDE[name](bad)


class TestSolveRadius:
    def test_quartic_quadratic_closed_form(self):
        # (2R)^2 = S_2/S_4 = 4/3 for a=4, b=2, independent of n
        for n in (5, 100, 1000):
            sol = solve_radius(RadiusProblem(potential=PowerLaw(4, 2), n=n))
            assert sol.radius == pytest.approx(3.0**-0.5, abs=1e-12)
            assert sol.kind == "flock"

    def test_residual_vanishes_at_root(self):
        prob = RadiusProblem(potential=PowerLaw(3, 1.5), n=50)
        sol = solve_radius(prob)
        assert abs(radius_residual(prob, sol.radius)) < 1e-12

    def test_residual_sign_structure(self):
        prob = RadiusProblem(potential=PowerLaw(4, 2), n=20)
        R = solve_radius(prob).radius
        assert radius_residual(prob, 0.5 * R) < 0
        assert radius_residual(prob, 2.0 * R) > 0

    def test_auto_bracket_expansion(self):
        # a fast mill's root lies above the default bracket's top (1e3), so
        # the top widens by factors of 4 (to 16,000) before the bisection
        prob = RadiusProblem(potential=PowerLaw(1.5, 0.5), n=30, speed=1e3)
        sol = solve_radius(prob)
        assert sol.radius > 1e3
        assert abs(radius_residual(prob, sol.radius)) < 1e-10
        assert radius_residual(prob, sol.radius * (1 - 1e-9)) < 0 < radius_residual(
            prob, sol.radius * (1 + 1e-9)
        )

    def test_mill_radius_grows_with_speed(self):
        pot = PowerLaw(4, 2)
        r0 = solve_radius(RadiusProblem(potential=pot, n=60)).radius
        r1 = solve_radius(RadiusProblem(potential=pot, n=60, speed=0.3)).radius
        r2 = solve_radius(RadiusProblem(potential=pot, n=60, speed=0.6)).radius
        assert r0 < r1 < r2

    def test_mill_solution_fields(self):
        sol = solve_radius(RadiusProblem(potential=PowerLaw(5, 2), n=40, speed=0.5))
        assert sol.kind == "mill"
        assert sol.omega == pytest.approx(0.5 / sol.radius, rel=1e-12)

    def test_morse_canonical_root(self):
        prob = RadiusProblem(potential=CANONICAL_MORSE, n=100, bracket=(0.01, 10.0))
        sol = solve_radius(prob)
        assert sol.radius == pytest.approx(1.1863109197394057, abs=1e-9)
        assert abs(radius_residual(prob, sol.radius)) < 1e-12

    def test_morse_requires_bracket(self):
        with pytest.raises(ValueError):
            solve_radius(RadiusProblem(potential=CANONICAL_MORSE, n=100))

    def test_morse_no_root_at_speed(self):
        # the centrifugal term pushes the balance out of reach in this window
        prob = RadiusProblem(
            potential=CANONICAL_MORSE, n=100, speed=0.3, bracket=(0.01, 10.0)
        )
        with pytest.raises(ArithmeticError):
            solve_radius(prob)
        assert solve_radius_all(prob) == []

    def test_solve_radius_all_finds_single_root(self):
        prob = RadiusProblem(potential=CANONICAL_MORSE, n=100, bracket=(0.01, 10.0))
        roots = solve_radius_all(prob)
        assert len(roots) == 1
        assert roots[0].radius == pytest.approx(solve_radius(prob).radius, abs=1e-9)

    def test_solve_radius_all_powerlaw_matches(self):
        prob = RadiusProblem(potential=PowerLaw(4, 2), n=12, bracket=(0.05, 5.0))
        roots = solve_radius_all(prob)
        assert len(roots) == 1
        assert roots[0].radius == pytest.approx(3.0**-0.5, abs=1e-10)

    def test_solve_radius_all_needs_bracket(self):
        with pytest.raises(ValueError):
            solve_radius_all(RadiusProblem(potential=PowerLaw(4, 2), n=12))


class TestRingConstructors:
    def test_flock_ring_records_drift(self):
        ring = flock_ring(PowerLaw(4, 2), 64, speed=0.25)
        assert ring.kind == "flock"
        assert ring.speed == 0.25
        assert ring.omega == 0.0
        # drift does not move the radius
        assert ring.radius == pytest.approx(flock_ring(PowerLaw(4, 2), 64).radius)

    def test_mill_ring_requires_positive_speed(self):
        with pytest.raises(ValueError):
            mill_ring(PowerLaw(4, 2), 64, 0.0)

    def test_ring_positions_geometry(self):
        ring = flock_ring(PowerLaw(4, 2), 8)
        x = ring_positions(ring)
        assert x.shape == (8, 2)
        assert np.allclose(np.hypot(x[:, 0], x[:, 1]), ring.radius, atol=1e-14)
        # first particle sits at angle 2 pi / n, last closes the circle at angle 0
        assert np.allclose(x[-1], [ring.radius, 0.0], atol=1e-12)
        assert x[0] == pytest.approx(
            [ring.radius * math.cos(2 * math.pi / 8), ring.radius * math.sin(2 * math.pi / 8)]
        )

    def test_ring_solution_validation(self):
        with pytest.raises(ValueError):
            RingSolution(n=2, radius=1.0, speed=0.0, omega=0.0, kind="flock")
        with pytest.raises(ValueError):
            RingSolution(n=5, radius=-1.0, speed=0.0, omega=0.0, kind="flock")
        with pytest.raises(ValueError):
            RingSolution(n=5, radius=1.0, speed=0.5, omega=0.1, kind="mill")
        with pytest.raises(ValueError):
            RingSolution(n=5, radius=1.0, speed=0.0, omega=0.2, kind="flock")
        with pytest.raises(ValueError):
            RingSolution(n=5, radius=1.0, speed=0.0, omega=0.0, kind="blob")

    def test_radius_problem_validation(self):
        with pytest.raises(TypeError):
            RadiusProblem(potential="not-a-potential", n=10)
        with pytest.raises(ValueError):
            RadiusProblem(potential=PowerLaw(4, 2), n=10, bracket=(2.0, 1.0))
        with pytest.raises(ValueError):
            RadiusProblem(potential=PowerLaw(4, 2), n=10, speed=-0.5)

    @pytest.mark.parametrize("run, needle", [
        (lambda: RadiusProblem(PowerLaw(5, 1.5), 20.5), "n=20.5"),
        (lambda: flock_ring(PowerLaw(4, 2), 10, math.nan), "speed=nan"),
        (lambda: RadiusProblem(PowerLaw(4, 2), 10, bracket=(0.1, math.inf)), "hi=inf"),
    ], ids=["radius-problem-n-float", "flock-ring-speed-nan", "bracket-hi-inf"])
    def test_unusable_number_is_named(self, run, needle):
        # n 20.5 used to solve at (4, 2), and a NaN speed came back on the ring
        with pytest.raises(ValueError, match=f"got {needle}"):
            run()


def test_repeated_separatrix_rows_identical():
    # memoized moments must not change a second pass in the same process
    first = separatrix_check([3.0], n=500, steps=30)
    assert separatrix_check([3.0], n=500, steps=30) == first


class TestContinuum:
    def test_closed_form_quartic_quadratic(self):
        # beta-function ratio collapses to (4/3)^(1/2)/2 = 3^(-1/2)
        assert continuum_radius(4, 2) == pytest.approx(3.0**-0.5, rel=1e-14)

    def test_matches_beta_closed_form(self):
        # the discrete solve with limit moments against the speed-0 root
        # (1/2) (B((b+1)/2, 1/2) / B((a+1)/2, 1/2))^(1/(a-b)) on 27 x 30 (a, b)
        for a in np.linspace(1.2, 9.0, 27):
            for b in a * np.linspace(0.05, 0.95, 30):
                ratio = beta_fn(0.5 * (b + 1.0), 0.5) / beta_fn(0.5 * (a + 1.0), 0.5)
                closed = 0.5 * ratio ** (1.0 / (a - b))
                assert continuum_radius(a, b) == pytest.approx(closed, rel=1e-14, abs=0.0)

    def test_discrete_converges_to_continuum(self):
        target = continuum_radius(3, 1.5)
        errors = []
        for n in (10, 100, 1000):
            sol = solve_radius(RadiusProblem(potential=PowerLaw(3, 1.5), n=n))
            errors.append(abs(sol.radius - target))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-6

    def test_continuum_with_speed_larger(self):
        assert continuum_radius(4, 2, speed=0.5) > continuum_radius(4, 2)

    def test_continuum_residual_at_root(self):
        R = continuum_radius(5, 1.5, speed=0.3)
        psi_a, psi_b = sine_moment_limit(5), sine_moment_limit(1.5)
        assert psi_a * R**4 - psi_b * R**0.5 - 0.09 / R == pytest.approx(0.0, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            continuum_radius(2, 2)
        with pytest.raises(ValueError):
            continuum_radius(4, 2, speed=-1.0)
