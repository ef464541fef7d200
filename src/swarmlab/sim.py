"""Direct particle simulation of the swarming models.

Integrates N particles under pairwise attraction/repulsion with either
self-propulsion/friction ("propulsion" model) or velocity alignment
("cucker-smale" model), from ring initial conditions with constrained
perturbations.  The integrator is an embedded Dormand-Prince 5(4) pair
with PI step-size control and a quartic continuous extension, so
trajectories are sampled on an exact uniform time grid independent of
the adaptive steps.

Each particle's pair terms are added left to right in particle index, so
a run is reproducible bit for bit given the elementwise hypot, pow and
exp of the numpy build (which the CLI manifest records).  The pair
kernel evaluates hypot, k'(r)/r and g(r) once per unordered pair and
mirrors the weights into a symmetric (n, n) matrix.  That this matches
an evaluation over all n^2 entries bit for bit rests on the exact
antisymmetry of IEEE subtraction (x_l - x_j = -(x_j - x_l)), on hypot
being even, and on elementwise ufunc results that do not depend on an
element's position in the array.  A stack builds one kernel for its
members and a new one whenever a member leaves (``rhs`` builds one per
call); every entry of a kernel's arrays is written before it is read.

Runs are integrated as stacks that step in lockstep: ``integrate`` is a
stack of one, and a seeded ensemble (``_sweep``, which bifurcation_sweep
reads one final metric from) stacks consecutive members.  Each
member of a stack equals its own ``integrate`` run bit for bit, because
every stacked operation does for each member's row what the single run
does: ufuncs act per element, the stage sums are one gemv per member (a
stacked np.matmul), each error norm is the pairwise sum of one row (a
row-wise np.mean), each pair sum adds its terms in index order (an
add.reduce over l, which is never the innermost axis), and the step-size
control stays per-member Python float arithmetic (libm pow, not
np.power).  The kernel lays the full offsets and weights out as
[component, l, member, j], so its multiply and sum run on K*n-long inner
loops, and it calls np.power once per run of members that share an
exponent value, always with a scalar exponent, as PowerLaw.deriv does.

Order parameters: cluster error (sorted angular-gap deviation), fatten
error (mean-radius deviation), speed deviation, polarization, and
normalized angular momentum; bifurcation sweeps run one simulation per
parameter value under a fixed seed policy.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from .potentials import AlignmentKernel, PowerLaw, Propulsion, _check_fields, _number
from .regions import map_stacks
from .rings import flock_ring, mill_ring

__all__ = [
    "SimulationError",
    "SwarmState",
    "SimConfig",
    "ModePerturbation",
    "RandomNoise",
    "MetricSeries",
    "SimResult",
    "rhs",
    "integrate",
    "ic_flock_ring",
    "ic_mill_ring",
    "metric_cluster",
    "metric_fatten",
    "metric_polarization",
    "metric_angular_momentum",
    "bifurcation_sweep",
]


class SimulationError(RuntimeError):
    """Hard numerical failure: guard-distance violation or step underflow."""


@dataclass(frozen=True)
class SwarmState:
    """Snapshot of the particle system; arrays are treated as immutable."""

    t: float
    positions: np.ndarray
    velocities: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.positions, dtype=float)
        v = np.asarray(self.velocities, dtype=float)
        if x.shape != v.shape or x.ndim != 2 or x.shape[1] != 2:
            raise ValueError("positions and velocities must both be (n, 2)")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(v))):
            raise ValueError("state entries must be finite")
        object.__setattr__(self, "positions", x)
        object.__setattr__(self, "velocities", v)

    @property
    def n(self):
        return self.positions.shape[0]


_MODELS = ("propulsion", "cucker-smale")


@dataclass(frozen=True)
class SimConfig:
    """Run setup; exactly one of propulsion / alignment must match the model.

    The potential is a PowerLaw, whose exponents the pair kernel takes.
    """

    model: str
    potential: PowerLaw
    n: int
    t_final: float
    propulsion: Propulsion | None = None
    alignment: AlignmentKernel | None = None
    rtol: float = 1e-6
    atol: float = 1e-9
    seed: int = 0
    sample_every: float = 1.0
    min_distance_guard: float | None = None

    def __post_init__(self):
        if self.model not in _MODELS:
            raise ValueError(f"model must be one of {_MODELS}")
        if not isinstance(self.potential, PowerLaw):
            raise TypeError(
                f"simulations take a PowerLaw potential, got {type(self.potential).__name__}"
            )
        if self.model == "propulsion" and self.propulsion is None:
            raise ValueError("propulsion model needs a Propulsion")
        if self.model == "cucker-smale" and self.alignment is None:
            raise ValueError("cucker-smale model needs an AlignmentKernel")
        _check_fields(self, "n", ge=1, integer=True)
        _check_fields(self, "seed", ge=0, integer=True)
        _check_fields(self, "t_final", "rtol", "atol", "sample_every", gt=0)
        if self.min_distance_guard is not None:
            _check_fields(self, "min_distance_guard", ge=0)


@dataclass(frozen=True)
class ModePerturbation:
    """Ring deformation h_j = xi_plus e^{i m theta_j} + xi_minus e^{-i m theta_j}.

    Applied multiplicatively to positions; sums to zero exactly for
    2 <= m <= n-2, so the centroid stays put.
    """

    m: int
    xi_plus: complex = 0.0
    xi_minus: complex = 0.0

    def __post_init__(self):
        _check_fields(self, "m", ge=2, integer=True)
        for key in ("xi_plus", "xi_minus"):
            xi = getattr(self, key)
            if isinstance(xi, bool) or not (isinstance(xi, numbers.Complex) and cmath.isfinite(xi)):
                raise ValueError(f"need a finite complex {key}, got {key}={xi!r}")


@dataclass(frozen=True)
class RandomNoise:
    """Gaussian position/velocity noise, mean-centered after sampling."""

    sigma_pos: float = 0.0
    sigma_vel: float = 0.0

    def __post_init__(self):
        _check_fields(self, "sigma_pos", "sigma_vel", ge=0)


@dataclass(frozen=True)
class MetricSeries:
    """Per-sample order parameters; fatten is nan without a reference ring."""

    t: np.ndarray
    mu_rel: np.ndarray
    eta_rel: np.ndarray
    speed_dev: np.ndarray
    polarization: np.ndarray
    angular_momentum: np.ndarray

    def csv_text(self):
        lines = ["t,mu_rel,eta_rel,speed_dev,polarization,angular_momentum"]
        for i in range(len(self.t)):
            lines.append(
                ",".join(
                    repr(float(col[i]))
                    for col in (
                        self.t,
                        self.mu_rel,
                        self.eta_rel,
                        self.speed_dev,
                        self.polarization,
                        self.angular_momentum,
                    )
                )
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SimResult:
    config: SimConfig
    states: list
    metrics: MetricSeries
    stats: dict = field(default_factory=dict)

    @property
    def final_state(self):
        return self.states[-1]


# ---------------------------------------------------------------------------
# right-hand side
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=4)
def _triangle(n):
    """Read-only indices (upper, pair) of the m = n(n - 1)/2 pairs l < j.

    ``upper`` holds the flat (n, n) index l*n + j of each pair in row
    order, and ``pair`` the number of the pair of each (n, n) entry, in
    both triangles, with m on the diagonal.
    """
    rows, cols = np.triu_indices(n, 1)
    pair = np.full((n, n), rows.size)
    pair[rows, cols] = pair[cols, rows] = np.arange(rows.size)
    upper = rows * n + cols
    upper.flags.writeable = pair.flags.writeable = False
    return upper, pair


def _groups(values):
    """(rows, value) for each run of consecutive members with equal values."""
    groups, start = [], 0
    for value, same in itertools.groupby(values):
        stop = start + len(list(same))
        groups.append((slice(start, stop), value))
        start = stop
    return groups


class _Kernel:
    """The pair kernel of a stack of K runs of n particles, one per config.

    One call takes the states (K, 4n) of its members, each its positions
    then its velocities flattened, and writes their derivatives.  The full
    offsets and weights are laid out [component, l, member, j]:
    offsets[c, l, k, j] = u_l - u_j of member k and weights[l, k, j].  So
    the multiply and the add.reduce over l run on K*n-long inner loops, and
    l, never the innermost axis, is summed in index order for each
    particle.  The member axis is not innermost ([c, l, j, k]): that made
    the subtract's inner loops K long and lost where K is small (713-745
    against 537-554 us per evaluation at K = 3, n = 100 Cucker-Smale),
    and it was no faster at K = 32, n = 32 (773 against 737-752 us).  The
    offsets hold the positions, then under Cucker-Smale the velocities.
    Distances and weights are evaluated once per pair l < j, packed in row
    order per member, and mirrored into the symmetric weights (see the
    module docstring for why this is bit for bit).  The potential weights
    take one np.power call per run of consecutive members with equal a - 1
    and one per run with equal b - 1, each with the scalar exponent
    PowerLaw.deriv passes (numpy has separate loops for some scalar
    exponents, so per-row exponents would change results), then one
    subtract and one divide over the stack.  The alignment kernels take
    one value call per run of equal kernels.  Every array entry is written
    before it is read, so no result depends on earlier calls or on the
    other members.  A stack whose members change builds a new kernel.
    """

    def __init__(self, configs, guards):
        k, n = len(configs), configs[0].n
        self.n = n
        self.propulsion = configs[0].model == "propulsion"
        self.upper, self.pair = _triangle(n)
        m = self.upper.size
        self.guard = np.array(guards, dtype=float)
        self.powers = (_groups([c.potential.a - 1.0 for c in configs]),
                       _groups([c.potential.b - 1.0 for c in configs]))
        if self.propulsion:
            self.alpha = np.array([[c.propulsion.alpha] for c in configs])
            self.beta = np.array([[c.propulsion.beta] for c in configs])
        else:
            self.alignments = _groups([c.alignment for c in configs])
        # the offsets, weights, packed pairs (per member a value for each
        # pair and a slot for the diagonal, in two rows: dx and dy, then
        # the potential and the alignment weights), distances (with an inf
        # slot, so that one particle finds no pair) and pair sums
        self.offsets, self.weights = np.empty((2, n, k, n)), np.empty((n, k, n))
        self.pairs, self.dist = np.empty((2, k, m + 1)), np.empty((k, m + 1))
        self.sums = np.empty((1 if self.propulsion else 2, 2, k, n))
        # take's indices: new, writeable arrays, since np.take copies a
        # read-only one on each call.  pairs[c, k, p] = offsets[c, l, k, j]
        # for pair p = (l, j), at the flat index l*K*n + k*n + j = upper[p]
        # + l*(K - 1)*n + k*n, and weights[l, k, j] = pairs[0, k, pair[l, j]];
        # built in place, so that no index-sized temporary is made
        gather, mirror = np.empty((k, m + 1), dtype=np.intp), np.empty((n, k, n), dtype=np.intp)
        np.floor_divide(self.upper, n, out=gather[0, :m])
        gather[0, :m] *= (k - 1) * n
        gather[0, :m] += self.upper
        gather[1:, :m] = gather[0, :m]
        gather[:, m] = 0
        gather += np.arange(k)[:, None] * n
        mirror[...] = self.pair[:, None, :]
        mirror += np.arange(k)[:, None] * (m + 1)
        self.gather, self.mirror = gather.reshape(-1), mirror.reshape(-1)

    def _offsets(self, u):
        """Write the offsets of the (K, n, 2) points u into the buffer."""
        np.subtract(u.transpose(2, 1, 0)[..., None], u.transpose(2, 0, 1)[:, None],
                    out=self.offsets)

    def _pair_sum(self, out):
        """out[c, k, j] = sum over l, in index order, of w_lj offsets[c, l, k, j],
        with the weights w mirrored from the first row of the packed pairs."""
        # mode="clip" (the indices are in range) lets take write straight into out
        self.pairs.take(self.mirror, out=self.weights.reshape(-1), mode="clip")
        np.multiply(self.weights, self.offsets, out=self.offsets)
        np.add.reduce(self.offsets, axis=1, out=out)

    def __call__(self, y, out):
        """Write the derivatives of the K states ``y`` into ``out`` (K, 4n).

        Returns the closest pair distance of each member (inf for one
        particle) and {row: SimulationError} for the members closer than
        their guard, whose rows are finished on unit distances.
        """
        k, n = y.shape[0], self.n
        pairs, dist, sums = self.pairs, self.dist, self.sums
        self._offsets(y[:, : 2 * n].reshape(k, n, 2))
        for c in range(2):
            self.offsets[c].take(self.gather, out=pairs[c].reshape(-1), mode="clip")
        w, work = pairs[0, :, :-1], pairs[1, :, :-1]
        d = dist[:, :-1]
        np.hypot(w, work, out=d)
        dist[:, -1] = np.inf
        nearest = dist.argmin(axis=1)
        dmin = dist[np.arange(k), nearest]
        failed = {}
        for r in np.flatnonzero(dmin < self.guard):
            j, l = divmod(int(self.upper[nearest[r]]), n)
            failed[int(r)] = SimulationError(
                f"particles {j} and {l} at distance {dmin[r]:.3e} "
                f"below the guard {self.guard[r]:.3e}"
            )
            d[r] = 1.0
        for rows, exponent in self.powers[0]:
            np.power(d[rows], exponent, out=w[rows])
        for rows, exponent in self.powers[1]:
            np.power(d[rows], exponent, out=work[rows])
        np.subtract(w, work, out=w)
        w /= d
        if not self.propulsion:
            for rows, alignment in self.alignments:
                alignment.value(d[rows], out=work[rows])
        # The diagonal's weight only multiplies u_j - u_j, which is +0.0 for
        # finite u and NaN whatever the weight otherwise.  An evaluation on
        # all n^2 entries puts k'(1)/1 = 1 - 1 = 0.0 or g(1) > 0 there, so
        # its diagonal products are +0.0 too, and a zero slot is bit for bit.
        pairs[:, :, -1] = 0.0
        self._pair_sum(sums[0])
        if not self.propulsion:
            pairs[0] = pairs[1]  # the alignment weights, where the mirror reads
            self._offsets(y[:, 2 * n :].reshape(k, n, 2))
            self._pair_sum(sums[1])
        sums /= n
        # the velocities and accelerations, component first: [c, k, j]
        v = y[:, 2 * n :].reshape(k, n, 2).transpose(2, 0, 1)
        dv = out[:, 2 * n :].reshape(k, n, 2).transpose(2, 0, 1)
        out[:, : 2 * n] = y[:, 2 * n :]
        if self.propulsion:
            speed2 = v[0] * v[0] + v[1] * v[1]
            np.add(sums[0], (self.alpha - self.beta * speed2) * v, out=dv)
        else:
            np.add(sums[0], sums[1], out=dv)
        return dmin, failed


def _default_guard(config, x0):
    if config.min_distance_guard is not None:
        return config.min_distance_guard
    center = x0.mean(axis=0)
    mean_radius = float(np.mean(np.hypot(*(x0 - center).T)))
    return 1e-9 * max(mean_radius, 1e-3)


def rhs(state, config):
    """Time derivatives (dx, dv) of the chosen model at the given state.

    Each call builds one one-member _Kernel, whose set-up is a
    share of the call's time that grows as n shrinks (integrate builds one
    kernel per run).
    """
    n = state.n
    if n != config.n:
        raise ValueError(f"state has n={n}, config says n={config.n}")
    y = np.concatenate([state.positions.ravel(), state.velocities.ravel()])[None]
    out = np.empty_like(y)
    _, failed = _Kernel([config], [_default_guard(config, state.positions)])(y, out)
    if failed:
        raise failed[0]
    return state.velocities.copy(), out[0, 2 * n :].reshape(n, 2)


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) with continuous extension
# ---------------------------------------------------------------------------

_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_E = np.array(
    [
        71 / 57600,
        0.0,
        -71 / 16695,
        71 / 1920,
        -17253 / 339200,
        22 / 525,
        -1 / 40,
    ]
)
# continuous-extension weights for the 7 stages (quartic in the step fraction)
_DP_D = np.array(
    [
        -12715105075 / 11282082432,
        0.0,
        87487479700 / 32700410799,
        -10690763975 / 1880347072,
        701980252875 / 199316789632,
        -1453857185 / 822651844,
        69997945 / 29380423,
    ]
)

_SAFETY = 0.9
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_PI_ALPHA = 0.7 / 5.0
_PI_BETA = 0.4 / 5.0


def _error_norms(err, scale):
    """RMS of err / scale over each row, as floats."""
    return np.sqrt(np.mean((err / scale) ** 2, axis=1)).tolist()


def _initial_steps(f, y0, f0, rtol, atol, spans):
    """First step size of each row of y0; f0 holds the derivatives at y0.

    Calls f once, on y0 + h0 * f0.
    """
    scale = atol + rtol * np.abs(y0)
    d0 = _error_norms(y0, scale)
    d1 = _error_norms(f0, scale)
    h0 = [1e-6 if (a < 1e-5 or b < 1e-5) else 0.01 * a / b for a, b in zip(d0, d1)]
    f1 = f(y0 + np.array(h0)[:, None] * f0)
    steps = []
    for h, n1, n2, span in zip(h0, d1, _error_norms(f1 - f0, scale), spans):
        d2 = n2 / h
        if max(n1, d2) <= 1e-15:
            h1 = max(1e-6, h * 1e-3)
        else:
            h1 = (0.01 / max(n1, d2)) ** 0.2
        steps.append(min(100 * h, h1, span))
    return steps


class _DenseSegment:
    """Quartic interpolant over one accepted step."""

    def __init__(self, t_old, h, y_old, y_new, K):
        dy = y_new - y_old
        self.t_old = t_old
        self.h = h
        self.r1 = y_old
        self.r2 = dy
        self.r3 = h * K[0] - dy
        self.r4 = dy - h * K[6] - self.r3
        self.r5 = h * (_DP_D @ K)

    def __call__(self, t):
        th = (t - self.t_old) / self.h
        return self.r1 + th * (
            self.r2 + (1.0 - th) * (self.r3 + th * (self.r4 + (1.0 - th) * self.r5))
        )


def _speed_reference(config, initial):
    if config.model == "propulsion":
        return config.propulsion.asymptotic_speed
    speeds = np.hypot(*initial.velocities.T)
    return float(np.mean(speeds))


def _momentum_drift(v0, v1):
    """|sum v1 - sum v0| / sum |v0|; absolute when the swarm starts at rest."""
    drift = float(np.linalg.norm(v1.sum(axis=0) - v0.sum(axis=0)))
    scale = float(np.sum(np.hypot(v0[:, 0], v0[:, 1])))
    return drift / scale if scale > 0 else drift


def _metric_row(state, reference, s_ref):
    mu = metric_cluster(state, reference)
    # fattening needs a reference radius; without one the column is NaN
    eta = metric_fatten(state, reference) if reference is not None else float("nan")
    speeds = np.hypot(*state.velocities.T)
    return (
        mu,
        eta,
        float(np.max(np.abs(speeds - s_ref))),
        metric_polarization(state),
        metric_angular_momentum(state),
    )


class _Run:
    """One member of a stack: its inputs, step control, samples and outcome."""

    def __init__(self, config, initial, reference):
        x0, v0 = initial.positions, initial.velocities
        n = x0.shape[0]
        if n != config.n:
            raise ValueError(f"initial state has n={n}, config says n={config.n}")
        self.config, self.initial, self.reference = config, initial, reference
        self.guard = _default_guard(config, x0)
        self.y0 = np.concatenate([x0.ravel(), v0.ravel()])
        self.t = t0 = initial.t
        self.tf = tf = t0 + config.t_final
        self.underflow = 1e-12 * (tf - t0)
        n_samples = int(math.floor(config.t_final / config.sample_every + 1e-9))
        times = [t0 + i * config.sample_every for i in range(n_samples + 1)]
        if times[-1] < tf - 1e-9 * config.sample_every:
            times.append(tf)
        times[-1] = tf
        self.sample_times = times
        self.si = 0
        self.s_ref = _speed_reference(config, initial)
        self.states, self.rows = [], []
        self.h, self.err_prev = None, 1.0  # h comes from _initial_steps
        self.accepted_h, self.rejected = [], 0
        self.closest = math.inf
        self.y_final = self.error = None

    def sample(self, t, y):
        n = self.config.n
        st = SwarmState(
            t=float(t),
            positions=y[: 2 * n].reshape(n, 2).copy(),
            velocities=y[2 * n :].reshape(n, 2).copy(),
        )
        self.states.append(st)
        self.rows.append(_metric_row(st, self.reference, self.s_ref))

    def sample_start(self):
        """Sample y0 at the sample times that lie at the start time."""
        t0, times = self.t, self.sample_times
        while self.si < len(times) and times[self.si] <= t0 + 1e-14 * max(1.0, abs(t0)):
            self.sample(times[self.si], self.y0)
            self.si += 1

    def advance(self, err, y, y_new, stages):
        """Accept or reject the step of size self.h from y by its error norm.

        An accepted step samples the times it covers, from the quartic
        interpolant where a time falls strictly inside it.
        """
        h = self.h
        if err == 0.0:
            factor = _FAC_MAX
        else:
            factor = _SAFETY * err ** (-_PI_ALPHA) * self.err_prev**_PI_BETA
        if not err <= 1.0:  # a NaN norm rejects the step too
            self.rejected += 1
            self.h = h * min(1.0, max(_FAC_MIN, factor))
            return False
        # the step cut to end at tf lands there exactly, not an ulp short
        t_new = self.tf if h == self.tf - self.t else self.t + h
        times, seg = self.sample_times, None
        while self.si < len(times) and times[self.si] <= t_new + 1e-10 * h:
            ts = times[self.si]
            if ts >= t_new:
                self.sample(ts, y_new)
            else:
                if seg is None:
                    seg = _DenseSegment(self.t, h, y, y_new, stages)
                self.sample(ts, seg(ts))
            self.si += 1
        self.accepted_h.append(h)
        self.t = t_new
        self.h = h * min(_FAC_MAX, max(_FAC_MIN, factor))
        self.err_prev = max(err, 1e-10)
        return True

    def result(self):
        """The SimResult, or the run's SimulationError raised."""
        if self.error is not None:
            raise self.error
        config, n = self.config, self.config.n
        accepted = len(self.accepted_h)
        stats = {
            "steps_accepted": accepted,
            "steps_rejected": self.rejected,
            "rhs_evals": 2 + 6 * (accepted + self.rejected),
            "h_min": min(self.accepted_h),
            "h_max": max(self.accepted_h),
            "h_median": float(np.median(self.accepted_h)),
            "min_pair_distance": self.closest if n > 1 else None,
        }
        if config.model == "cucker-smale":
            v1 = self.y_final[2 * n :].reshape(n, 2)
            stats["momentum_drift"] = _momentum_drift(self.initial.velocities, v1)
        cols = np.array(self.rows, dtype=float).T if self.rows else np.zeros((5, 0))
        metrics = MetricSeries(
            t=np.array([s.t for s in self.states]),
            mu_rel=cols[0],
            eta_rel=cols[1],
            speed_dev=cols[2],
            polarization=cols[3],
            angular_momentum=cols[4],
        )
        return SimResult(config=config, states=self.states, metrics=metrics, stats=stats)


def _integrate(runs):
    """Integrate runs that share a model, n and tolerances as one stack.

    The runs step in lockstep, one stacked RHS evaluation per stage, and
    each keeps its own t, h, error history, sample cursor and accept or
    reject decision.  A run leaves the stack when it reaches its end time
    (so its statistics count only its own steps), or when its RHS trips
    the guard or its step underflows; it then records its SimulationError.
    """
    if not runs:
        return
    cfg = runs[0].config
    n, rtol, atol = cfg.n, cfg.rtol, cfg.atol
    kernel = _Kernel([run.config for run in runs], [run.guard for run in runs])
    active = list(range(len(runs)))  # the stack's rows, as indices into runs
    y = np.array([run.y0 for run in runs])
    stages = np.empty((len(runs), 7, 4 * n))
    closest = np.full(len(runs), math.inf)

    def evaluate(z, out):
        dmin, failed = kernel(z, out)
        np.fmin(closest, dmin, out=closest)
        for row, exc in failed.items():
            if runs[active[row]].error is None:
                runs[active[row]].error = exc
        return out

    def prune():
        """Drop the runs that failed or finished."""
        nonlocal kernel, active, y, stages, closest
        keep = []
        for row, i in enumerate(active):
            run = runs[i]
            if run.error is None and run.t < run.tf:
                keep.append(row)
            else:
                run.closest, run.y_final = float(closest[row]), y[row].copy()
        if len(keep) < len(active):
            active = [active[row] for row in keep]
            y, stages, closest = y[keep], stages[keep], closest[keep]
            kernel = None  # freed before its successor is built, which bounds the peak memory
            if active:
                kernel = _Kernel([runs[i].config for i in active], [runs[i].guard for i in active])

    evaluate(y, stages[:, 0])
    spans = [run.tf - run.t for run in runs]
    scratch = stages[:, 1]
    steps = _initial_steps(lambda z: evaluate(z, scratch), y, stages[:, 0], rtol, atol, spans)
    for run, h in zip(runs, steps):
        run.h = h
    prune()
    for i in active:
        runs[i].sample_start()
    while active:
        for i in active:
            run = runs[i]
            run.h = min(run.h, run.tf - run.t)
            if not run.h >= run.underflow:  # a NaN step (a NaN derivative) underflows too
                run.error = SimulationError(
                    f"step size underflow at t={run.t:.6g} (h={run.h:.3e}); "
                    "the problem is stiffer than the tolerances allow"
                )
        prune()
        if not active:
            break
        h = np.array([runs[i].h for i in active])[:, None]
        for s in range(1, 7):
            evaluate(y + h * np.matmul(_DP_A[s], stages[:, :s]), stages[:, s])
        y_new = y + h * np.matmul(_DP_B, stages)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        errs = _error_norms(h * np.matmul(_DP_E, stages), scale)
        accepted = [
            row for row, (i, err) in enumerate(zip(active, errs))
            if runs[i].error is None and runs[i].advance(err, y[row], y_new[row], stages[row])
        ]
        y[accepted] = y_new[accepted]
        stages[accepted, 0] = stages[accepted, 6]
        prune()


def integrate(config, initial, reference=None):
    """Run the model from ``initial`` for config.t_final time units.

    Samples states on the uniform grid set by config.sample_every (always
    including both endpoints) via the integrator's continuous extension,
    and evaluates the metric series at each sample; ``reference`` is the
    ring used by the cluster/fatten metrics (omit for free runs).
    Raises SimulationError on guard-distance violation or step underflow.
    """
    run = _Run(config, initial, reference)
    _integrate([run])
    return run.result()


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------


def _apply_perturbation(ring, perturbation, rng):
    """Perturbed complex ring positions plus velocity noise (if any)."""
    n = ring.n
    theta = 2.0 * np.pi * np.arange(1, n + 1) / n
    z = ring.radius * np.exp(1j * theta)
    vel_noise = np.zeros((n, 2))
    if perturbation is None:
        pass
    elif isinstance(perturbation, ModePerturbation):
        m = perturbation.m
        if not 2 <= m <= n - 2:
            raise ValueError(f"mode m={m} must lie in [2, n-2] for n={n}")
        h = perturbation.xi_plus * np.exp(1j * m * theta) + perturbation.xi_minus * np.exp(
            -1j * m * theta
        )
        z = ring.radius * np.exp(1j * theta) * (1.0 + h)
    elif isinstance(perturbation, RandomNoise):
        if rng is None:
            raise ValueError("noise perturbations need an rng")
        dx = perturbation.sigma_pos * rng.standard_normal((n, 2))
        dx -= dx.mean(axis=0)
        z = z + dx[:, 0] + 1j * dx[:, 1]
        vel_noise = perturbation.sigma_vel * rng.standard_normal((n, 2))
        vel_noise -= vel_noise.mean(axis=0)
    else:
        raise TypeError("perturbation must be ModePerturbation or RandomNoise")
    positions = np.column_stack([z.real, z.imag])
    return positions, vel_noise


def ic_flock_ring(ring, direction=(1.0, 0.0), perturbation=None, rng=None):
    """Ring positions with all velocities speed * direction (plus noise)."""
    e = np.array([_number(f"direction[{i}]", x) for i, x in enumerate(direction)])
    norm = float(np.linalg.norm(e))
    if e.shape != (2,) or norm == 0:
        raise ValueError(f"need a nonzero 2-vector direction, got direction={direction!r}")
    e = e / norm
    positions, vel_noise = _apply_perturbation(ring, perturbation, rng)
    velocities = np.tile(ring.speed * e, (ring.n, 1)) + vel_noise
    return SwarmState(t=0.0, positions=positions, velocities=velocities)


def ic_mill_ring(ring, orientation=1, perturbation=None, rng=None):
    """Ring positions with tangential velocities of magnitude ring.speed.

    orientation +1 rotates counter-clockwise, -1 clockwise; the tangent
    is taken at the perturbed positions.
    """
    if isinstance(orientation, bool) or orientation not in (1, -1):
        raise ValueError(f"orientation must be +1 or -1, got orientation={orientation!r}")
    positions, vel_noise = _apply_perturbation(ring, perturbation, rng)
    radii = np.hypot(positions[:, 0], positions[:, 1])
    tangent = np.column_stack([-positions[:, 1], positions[:, 0]]) / radii[:, None]
    velocities = orientation * ring.speed * tangent + vel_noise
    return SwarmState(t=0.0, positions=positions, velocities=velocities)


def _start_ring(config, kind, speed=None):
    """The ring a run of ``config`` starts on, and the ic function that
    seeds its state: a ``kind`` ("flock" or "mill") ring at ``speed``, by
    default the propulsion's asymptotic speed.  A Cucker-Smale config has
    no speed of its own, so it needs one."""
    if speed is None:
        if config.propulsion is None:
            raise ValueError("cucker-smale runs need a start speed (ic.speed, ic_speed)")
        speed = config.propulsion.asymptotic_speed
    if kind == "flock":
        return flock_ring(config.potential, config.n, speed), ic_flock_ring
    if kind == "mill":
        return mill_ring(config.potential, config.n, speed), ic_mill_ring
    raise ValueError(f"unknown ic kind {kind!r}")


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def metric_cluster(state, reference):
    """Relative deviation of sorted angular gaps from the uniform ring.

    Zero (to roundoff) for any rigid rotation or relabeling of a perfect
    ring; grows toward sqrt(n/k - 1) when the particles collapse onto k
    clusters.
    """
    x = state.positions
    n = x.shape[0]
    center = x.mean(axis=0)
    rel = x - center
    ang = np.sort(np.arctan2(rel[:, 1], rel[:, 0]))
    gaps = np.empty(n)
    gaps[:-1] = np.diff(ang)
    gaps[-1] = 2.0 * np.pi - (ang[-1] - ang[0])
    gaps = np.sort(gaps)
    target = 2.0 * np.pi / n
    return float(np.linalg.norm(gaps - target) / (target * math.sqrt(n)))


def metric_fatten(state, reference):
    """Relative radial spread about the reference ring radius.

    Root-mean-square of |x_j - center| - R over particles, divided by R:
    the relative error of the center-of-mass-distance vector against the
    uniform-ring value.  Zero on any rigid motion of the ring, 0.1 for a
    ring uniformly scaled by 1.1, 1 with every particle at the center,
    and of order the annulus width when a fattening instability spreads
    the ring into a band (a symmetric band barely moves the mean radius,
    so a mean-based reduction would miss it).
    """
    x = state.positions
    center = x.mean(axis=0)
    r = np.hypot(*(x - center).T)
    return float(np.sqrt(np.mean((r - reference.radius) ** 2)) / reference.radius)


def metric_polarization(state):
    """|sum v| / sum |v|: 1 for perfect alignment, 0 for a balanced mill."""
    v = state.velocities
    total = float(np.linalg.norm(v.sum(axis=0)))
    denom = float(np.sum(np.hypot(v[:, 0], v[:, 1])))
    return total / denom if denom > 0 else 0.0


def metric_angular_momentum(state):
    """|sum (x - xbar) x v| / sum |x - xbar||v|, in [0, 1]."""
    x = state.positions
    v = state.velocities
    rel = x - x.mean(axis=0)
    cross = rel[:, 0] * v[:, 1] - rel[:, 1] * v[:, 0]
    denom = float(np.sum(np.hypot(rel[:, 0], rel[:, 1]) * np.hypot(v[:, 0], v[:, 1])))
    return abs(float(cross.sum())) / denom if denom > 0 else 0.0


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


# bifurcation_sweep metric name -> MetricSeries column
_SWEEP_METRICS = {"cluster": "mu_rel", "fatten": "eta_rel",
                  "polarization": "polarization", "angular_momentum": "angular_momentum"}


# A sweep stack holds at most this many pair entries, members times n^2.
# Per member, one Cucker-Smale evaluation took (2 cores, numpy 2.4.6, best
# of interleaved rounds) 45 us alone and 14-16 us in stacks of 14-56 at
# n = 24; 51 us alone, 22, 24, 25 and 29 us in stacks of 16, 32, 64 and 128
# at n = 32; 79 us alone and 50-52 us (7-14 members) at n = 48; 107 us
# alone, 87 us (4-8) and 94 us (16) at n = 64.  At n = 100, propulsion took
# 149 us alone and 133, 125 and 147 us in stacks of 3, 6 and 12.  Whole
# sweeps agree: 64 Cucker-Smale members at n = 32 took 0.97 s under this
# cap (two stacks of 32) and 1.06 and 1.03 s under 2^16 and 2^17, while 12
# propulsion members at n = 100 took 0.87 s (stacks of 3) against 0.72 and
# 0.65 s.  A larger cap would slow n = 32, so the cap stays where small n
# is fastest.  At the cap the kernel arrays and indices take about 1.5 MiB.
_STACK_ENTRIES = 2**15


def _sweep_member(config, parameter, value, index, ic_kind, perturbation, ic_speed):
    """The run of member ``index``: its config, seeded initial state and ring."""
    pot = config.potential
    prop = config.propulsion
    if parameter == "b":
        pot = replace(pot, b=value)
    else:
        if prop is None:
            raise ValueError("speed sweeps need the propulsion model")
        prop = replace(prop, alpha=value**2 * prop.beta)
    cfg = replace(config, potential=pot, propulsion=prop, seed=config.seed + index)
    speed = value if parameter == "speed" and ic_speed is not None else ic_speed
    ring, start = _start_ring(cfg, ic_kind, speed)
    pert = perturbation or RandomNoise(1e-3 * ring.radius, 1e-3 * max(ring.speed, 1e-3))
    state = start(ring, perturbation=pert, rng=np.random.default_rng(cfg.seed))
    return _Run(cfg, state, ring)


def _sweep(config, parameter, values, ic_kind="flock", perturbation=None, ic_speed=None,
           workers=1):
    """One SimResult per parameter value, in value order.

    Members are seeded config.seed + index and integrated in stacks of at
    most _STACK_ENTRIES // n^2 consecutive runs, at least one per pool
    thread; each result is the one ``integrate`` gives that run, for any
    worker count.  A bad ``parameter``, ``ic_kind``, ``ic_speed`` or worker
    count is a ValueError before any member runs.
    """
    if parameter not in ("b", "speed"):
        raise ValueError("parameter must be 'b' or 'speed'")
    if ic_kind not in ("flock", "mill"):
        raise ValueError("ic_kind must be 'flock' or 'mill'")
    if ic_speed is not None:
        ic_speed = _number("ic_speed", ic_speed, ge=0)

    def stack(members):
        # A member whose set-up fails ends the stack.  The members before it
        # are integrated first and their error wins, as in a sequential sweep.
        runs, setup_error = [], None
        for index, value in members:
            try:
                runs.append(_sweep_member(config, parameter, value, index, ic_kind,
                                          perturbation, ic_speed))
            except (ValueError, TypeError, ArithmeticError) as exc:
                setup_error = exc
                break
        _integrate(runs)
        results = [run.result() for run in runs]
        if setup_error is not None:
            raise setup_error
        return results

    members = list(enumerate(values))
    return map_stacks(stack, members, _STACK_ENTRIES // config.n**2, workers)


def bifurcation_sweep(
    config,
    parameter,
    values,
    ic_kind="flock",
    metric="cluster",
    perturbation=None,
    ic_speed=None,
    workers=1,
):
    """One simulation per parameter value; returns rows (value, final metric).

    Member i runs at values[i], seeded config.seed + i, from centered noise
    of 1e-3 of the ring's radius and speed unless ``perturbation`` is given.
    ``_sweep`` stacks the members, so the rows do not depend on the worker
    count.  A bad ``parameter``, ``ic_kind``, ``metric``, value or worker
    count is a ValueError before any member runs.
    """
    if metric not in _SWEEP_METRICS:
        raise ValueError(f"metric must be one of {', '.join(_SWEEP_METRICS)}")
    values = [_number(parameter, v) for v in values]
    results = _sweep(config, parameter, values, ic_kind, perturbation, ic_speed, workers)
    column = _SWEEP_METRICS[metric]
    return [(v, float(getattr(res.metrics, column)[-1])) for v, res in zip(values, results)]
