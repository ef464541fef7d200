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
element's position in the array.  The kernel writes into buffers that
one ``integrate`` call allocates for all its RHS evaluations (``rhs``
allocates its own); every entry is written before it is read, so results
do not depend on them.

Order parameters: cluster error (sorted angular-gap deviation), fatten
error (mean-radius deviation), speed deviation, polarization, and
normalized angular momentum; bifurcation sweeps run one simulation per
parameter value under a fixed seed policy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .potentials import AlignmentKernel, Morse, PowerLaw, Propulsion
from .regions import map_jobs
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
    """Run setup; exactly one of propulsion / alignment must match the model."""

    model: str
    potential: object
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
        if not isinstance(self.potential, (PowerLaw, Morse)):
            raise TypeError("potential must be PowerLaw or Morse")
        if self.model == "propulsion" and self.propulsion is None:
            raise ValueError("propulsion model needs a Propulsion")
        if self.model == "cucker-smale" and self.alignment is None:
            raise ValueError("cucker-smale model needs an AlignmentKernel")
        if self.n < 1:
            raise ValueError("need n >= 1")
        if not self.t_final > 0:
            raise ValueError("t_final must be positive")
        if not (self.rtol > 0 and self.atol > 0):
            raise ValueError("tolerances must be positive")
        if not self.sample_every > 0:
            raise ValueError("sample_every must be positive")


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
        if self.m < 2:
            raise ValueError("mode perturbations need m >= 2")


@dataclass(frozen=True)
class RandomNoise:
    """Gaussian position/velocity noise, mean-centered after sampling."""

    sigma_pos: float = 0.0
    sigma_vel: float = 0.0

    def __post_init__(self):
        if self.sigma_pos < 0 or self.sigma_vel < 0:
            raise ValueError("noise amplitudes must be nonnegative")


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


def _kernel_buffers(n):
    """Scratch for the RHS of n particles, as the pair (full, packed).

    ``full`` is (4, n, n): the offsets dx and dy, the weight matrix f and a
    product array.  ``packed`` holds 3m + 1 entries, m = n(n - 1)/2: the
    two offsets of each pair l < j in row order (later the pair weights
    and a work row), then the m distances and an inf slot, so that the
    argmin for one particle finds no pair.  Every entry is written before
    it is read, so results do not depend on earlier contents.

    Weights are evaluated once per pair and mirrored, so bit identity with
    an evaluation over all n^2 entries rests on three facts: x_l - x_j is
    exactly -(x_j - x_l) in IEEE arithmetic, hypot is even in each
    argument, and an elementwise ufunc's result does not depend on the
    element's position in its array.
    """
    m = n * (n - 1) // 2
    return np.empty((4, n, n)), np.empty(3 * m + 1)


@functools.lru_cache(maxsize=4)
def _triangle(n):
    """Read-only flat (n, n) indices (upper, lower) of the pairs l < j.

    ``upper`` holds l*n + j in row order and ``lower`` the mirrored j*n + l.
    They are shared by every run of n particles.  np.take copies a
    read-only index array on each call; fancy assignment reads it in
    place, which is why _mirror assigns.
    """
    rows, cols = np.triu_indices(n, 1)
    upper, lower = rows * n + cols, cols * n + rows
    upper.flags.writeable = lower.flags.writeable = False
    return upper, lower


@functools.lru_cache(maxsize=32)
def _unit_weight(kernel):
    """k'(1)/1 of a potential or g(1) of an alignment kernel.

    This is the weight on the diagonal of f, where the offsets are zero.
    It comes from the same ufuncs as the pair weights, so each diagonal
    product is the same signed zero as in a full (n, n) evaluation.
    """
    one = np.ones(1)
    w = kernel.value(one) if isinstance(kernel, AlignmentKernel) else kernel.deriv(one) / one
    return float(w[0])


def _mirror(w, f, upper, lower, unit):
    """Write the packed pair weights w into both triangles of f, unit on its diagonal."""
    flat = f.reshape(-1)
    flat[upper] = w
    flat[lower] = w
    flat[:: f.shape[0] + 1] = unit


def _pair_sum(w, ox, oy, prod):
    """sum_l w[l, j] * o[l, j] for each particle j, added left to right in l.

    ``prod`` is (n, n) scratch for the products.
    """
    acc = np.empty((w.shape[1], 2))
    for k, o in enumerate((ox, oy)):
        np.multiply(w, o, out=prod).sum(axis=0, out=acc[:, k])
    return acc


def _accelerations(x, v, model, potential, propulsion, alignment, guard, buffers):
    """Accelerations and the closest pair distance (inf for one particle).

    Offsets are stored transposed, dx[l, j] = x_l - x_j, so the sums over
    the contiguous axis 0 add each particle's pair terms in index order.
    Distances and weights are evaluated once per pair l < j and mirrored
    into the symmetric f.  Every array lives in ``buffers`` (see
    _kernel_buffers) and is overwritten before it is read, so no result
    depends on earlier calls.
    """
    n = x.shape[0]
    full, packed = buffers
    dx, dy, f, prod = full
    upper, lower = _triangle(n)
    m = upper.size
    offsets, dist = packed[: 2 * m].reshape(2, m), packed[2 * m :]
    w, work = offsets
    d = dist[:m]
    np.subtract(x[:, 0, None], x[:, 0], out=dx)
    np.subtract(x[:, 1, None], x[:, 1], out=dy)
    # mode="clip" (the indices are in range) lets take write straight into out
    full[:2].reshape(2, -1).take(upper, axis=1, out=offsets, mode="clip")
    np.hypot(w, work, out=d)
    dist[m] = np.inf
    k = int(dist.argmin())
    dmin = float(dist[k])
    if dmin < guard:
        j, l = divmod(int(upper[k]), n)
        raise SimulationError(
            f"particles {j} and {l} at distance {dmin:.3e} below the guard {guard:.3e}"
        )
    potential.deriv(d, out=w, work=work)
    w /= d
    _mirror(w, f, upper, lower, _unit_weight(potential))
    dv = _pair_sum(f, dx, dy, prod) / n
    if model == "propulsion":
        speed2 = np.sum(v * v, axis=1)
        dv += (propulsion.alpha - propulsion.beta * speed2)[:, None] * v
    else:
        _mirror(alignment.value(d, out=w), f, upper, lower, _unit_weight(alignment))
        np.subtract(v[:, 0, None], v[:, 0], out=dx)
        np.subtract(v[:, 1, None], v[:, 1], out=dy)
        dv += _pair_sum(f, dx, dy, prod) / n
    return dv, dmin


def _default_guard(config, x0):
    if config.min_distance_guard is not None:
        return config.min_distance_guard
    center = x0.mean(axis=0)
    mean_radius = float(np.mean(np.hypot(*(x0 - center).T)))
    return 1e-9 * max(mean_radius, 1e-3)


def rhs(state, config):
    """Time derivatives (dx, dv) of the chosen model at the given state."""
    guard = _default_guard(config, state.positions)
    dv, _ = _accelerations(
        state.positions,
        state.velocities,
        config.model,
        config.potential,
        config.propulsion,
        config.alignment,
        guard,
        _kernel_buffers(state.n),
    )
    return state.velocities.copy(), dv


# ---------------------------------------------------------------------------
# Dormand-Prince 5(4) with continuous extension
# ---------------------------------------------------------------------------

_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
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


def _error_norm(err, scale):
    return float(np.sqrt(np.mean((err / scale) ** 2)))


def _initial_step(f, t0, y0, f0, rtol, atol, t_span):
    scale = atol + rtol * np.abs(y0)
    d0 = _error_norm(y0, scale)
    d1 = _error_norm(f0, scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    f1 = f(t0 + h0, y0 + h0 * f0)
    d2 = _error_norm(f1 - f0, scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_span)


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


def _integrate_adaptive(f, t0, tf, y0, rtol, atol, sample_times, on_sample):
    """Core stepper; calls on_sample(t, y) at each requested time."""
    t = t0
    y = y0.copy()
    k1 = f(t, y)
    stats = {"steps_accepted": 0, "steps_rejected": 0, "rhs_evals": 2}
    accepted_h = []
    h = _initial_step(f, t0, y0, k1, rtol, atol, tf - t0)
    err_prev = 1.0
    si = 0
    while si < len(sample_times) and sample_times[si] <= t0 + 1e-14 * max(1.0, abs(t0)):
        on_sample(sample_times[si], y)
        si += 1
    underflow = 1e-12 * (tf - t0)
    while t < tf:
        h = min(h, tf - t)
        if h < underflow:
            raise SimulationError(
                f"step size underflow at t={t:.6g} (h={h:.3e}); "
                "the problem is stiffer than the tolerances allow"
            )
        K = np.empty((7, y.size))
        K[0] = k1
        for i in range(1, 7):
            yi = y + h * (_DP_A[i] @ K[:i])
            K[i] = f(t + _DP_C[i] * h, yi)
        stats["rhs_evals"] += 6
        y_new = y + h * (_DP_B @ K)
        err_vec = h * (_DP_E @ K)
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = _error_norm(err_vec, scale)
        if err <= 1.0:
            # the step cut to end at tf lands there exactly, not an ulp short
            t_new = tf if h == tf - t else t + h
            seg = _DenseSegment(t, h, y, y_new, K)
            while si < len(sample_times) and sample_times[si] <= t_new + 1e-10 * h:
                ts = sample_times[si]
                on_sample(ts, y_new if ts >= t_new else seg(ts))
                si += 1
            accepted_h.append(h)
            t, y, k1 = t_new, y_new, K[6]
            if err == 0.0:
                factor = _FAC_MAX
            else:
                factor = _SAFETY * err ** (-_PI_ALPHA) * err_prev**_PI_BETA
            h *= min(_FAC_MAX, max(_FAC_MIN, factor))
            err_prev = max(err, 1e-10)
        else:
            stats["steps_rejected"] += 1
            factor = _SAFETY * err ** (-_PI_ALPHA) * err_prev**_PI_BETA
            h *= min(1.0, max(_FAC_MIN, factor))
    stats.update(steps_accepted=len(accepted_h), h_min=min(accepted_h),
                 h_max=max(accepted_h), h_median=float(np.median(accepted_h)))
    return y, stats


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


def integrate(config, initial, reference=None):
    """Run the model from ``initial`` for config.t_final time units.

    Samples states on the uniform grid set by config.sample_every (always
    including both endpoints) via the integrator's continuous extension,
    and evaluates the metric series at each sample; ``reference`` is the
    ring used by the cluster/fatten metrics (omit for free runs).
    Raises SimulationError on guard-distance violation or step underflow.
    """
    x0, v0 = initial.positions, initial.velocities
    n = x0.shape[0]
    if n != config.n:
        raise ValueError(f"initial state has n={n}, config says n={config.n}")
    guard = _default_guard(config, x0)
    y0 = np.concatenate([x0.ravel(), v0.ravel()])
    buffers = _kernel_buffers(n)
    closest = math.inf

    def f(t, y):
        nonlocal closest
        x = y[: 2 * n].reshape(n, 2)
        v = y[2 * n :].reshape(n, 2)
        dv, dmin = _accelerations(
            x, v, config.model, config.potential,
            config.propulsion, config.alignment, guard, buffers,
        )
        closest = min(closest, dmin)
        return np.concatenate([v.ravel(), dv.ravel()])

    t0 = initial.t
    tf = t0 + config.t_final
    n_samples = int(math.floor(config.t_final / config.sample_every + 1e-9))
    sample_times = [t0 + i * config.sample_every for i in range(n_samples + 1)]
    if sample_times[-1] < tf - 1e-9 * config.sample_every:
        sample_times.append(tf)
    sample_times[-1] = tf

    s_ref = _speed_reference(config, initial)
    states = []
    rows = []

    def on_sample(t, y):
        st = SwarmState(
            t=float(t),
            positions=y[: 2 * n].reshape(n, 2).copy(),
            velocities=y[2 * n :].reshape(n, 2).copy(),
        )
        states.append(st)
        rows.append(_metric_row(st, reference, s_ref))

    y_final, stats = _integrate_adaptive(
        f, t0, tf, y0, config.rtol, config.atol, sample_times, on_sample
    )
    stats["min_pair_distance"] = closest if n > 1 else None
    if config.model == "cucker-smale":
        stats["momentum_drift"] = _momentum_drift(v0, y_final[2 * n :].reshape(n, 2))
    cols = np.array(rows, dtype=float).T if rows else np.zeros((5, 0))
    metrics = MetricSeries(
        t=np.array([s.t for s in states]),
        mu_rel=cols[0],
        eta_rel=cols[1],
        speed_dev=cols[2],
        polarization=cols[3],
        angular_momentum=cols[4],
    )
    return SimResult(config=config, states=states, metrics=metrics, stats=stats)


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
    e = np.asarray(direction, dtype=float)
    norm = float(np.linalg.norm(e))
    if norm == 0:
        raise ValueError("direction must be a nonzero vector")
    e = e / norm
    positions, vel_noise = _apply_perturbation(ring, perturbation, rng)
    velocities = np.tile(ring.speed * e, (ring.n, 1)) + vel_noise
    return SwarmState(t=0.0, positions=positions, velocities=velocities)


def ic_mill_ring(ring, orientation=1, perturbation=None, rng=None):
    """Ring positions with tangential velocities of magnitude ring.speed.

    orientation +1 rotates counter-clockwise, -1 clockwise; the tangent
    is taken at the perturbed positions.
    """
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    positions, vel_noise = _apply_perturbation(ring, perturbation, rng)
    radii = np.hypot(positions[:, 0], positions[:, 1])
    tangent = np.column_stack([-positions[:, 1], positions[:, 0]]) / radii[:, None]
    velocities = orientation * ring.speed * tangent + vel_noise
    return SwarmState(t=0.0, positions=positions, velocities=velocities)


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


def _sweep_one(config, parameter, value, index, ic_kind, metric, perturbation, ic_speed):
    pot = config.potential
    prop = config.propulsion
    if parameter == "b":
        if not isinstance(pot, PowerLaw):
            raise TypeError("b sweeps need a PowerLaw potential")
        pot = replace(pot, b=float(value))
    else:
        if prop is None:
            raise ValueError("speed sweeps need the propulsion model")
        prop = replace(prop, alpha=float(value) ** 2 * prop.beta)
    cfg = replace(config, potential=pot, propulsion=prop, seed=config.seed + index)
    if ic_speed is not None:
        speed = float(ic_speed) if parameter != "speed" else float(value)
    elif prop is not None:
        speed = prop.asymptotic_speed
    else:
        raise ValueError("cucker-smale sweeps need ic_speed")
    rng = np.random.default_rng(cfg.seed)
    if ic_kind == "flock":
        ring = flock_ring(pot, cfg.n, speed)
        pert = perturbation or RandomNoise(1e-3 * ring.radius, 1e-3 * max(speed, 1e-3))
        state = ic_flock_ring(ring, perturbation=pert, rng=rng)
    else:
        ring = mill_ring(pot, cfg.n, speed)
        pert = perturbation or RandomNoise(1e-3 * ring.radius, 1e-3 * max(speed, 1e-3))
        state = ic_mill_ring(ring, perturbation=pert, rng=rng)
    result = integrate(cfg, state, reference=ring)
    series = getattr(result.metrics, _SWEEP_METRICS[metric])
    return float(value), float(series[-1])


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

    Runs are independent and seeded base_seed + index, so the table is
    reproducible and insensitive to the worker count.  The default
    perturbation is small centered noise scaled to the ring.  A bad
    ``parameter``, ``ic_kind`` or ``metric`` is a ValueError before any
    member runs.
    """
    if parameter not in ("b", "speed"):
        raise ValueError("parameter must be 'b' or 'speed'")
    if ic_kind not in ("flock", "mill"):
        raise ValueError("ic_kind must be 'flock' or 'mill'")
    if metric not in _SWEEP_METRICS:
        raise ValueError(f"metric must be one of {', '.join(_SWEEP_METRICS)}")
    jobs = [
        (config, parameter, float(v), i, ic_kind, metric, perturbation, ic_speed)
        for i, v in enumerate(values)
    ]
    return map_jobs(_sweep_one, jobs, workers)
