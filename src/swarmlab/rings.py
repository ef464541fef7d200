"""Ring radii for flock and mill states, discrete and continuum.

N particles equally spaced on a circle of radius R balance pairwise
attraction/repulsion against the centrifugal pull of rigid rotation.
The chord from particle 0 to particle p has length 2R sin(p pi / N), and
the radial force balance reads

    (1/N) sum_{p=1}^{N-1} sin(p pi / N) k'(2R sin(p pi / N)) = speed^2 / R

with speed = R * omega for a rotating mill and 0 for a translating flock
(a flock ring is the static balance; its common drift speed does not enter
the shape).  For the power-law potential the left side collapses to
(2R)^(a-1) S_a - (2R)^(b-1) S_b with the moments S_alpha computed by
:func:`trig_moment`, which is what makes large-N scans cheap.

As N grows, S_alpha tends to B((alpha+1)/2, 1/2) / pi, and the continuum
radius (:func:`continuum_radius`) is the same solve with those limits.

Reproducibility: every radius rests on libm ``sin``, ``pow`` and ``exp``
and on correctly rounded sums, so two machines with the same C library
give the same bits.  The moments reach libm ``pow`` through numpy's
``float_power`` loop, which calls it term by term (a test pins that it
equals Python's ``pow``), and add the terms exactly, to the value
``math.fsum`` gives.  One table of sines per n serves every moment, every
Morse chord sum and every chord of the coupling weights that
:mod:`swarmlab.spectra` builds from the radius; those weights take their
powers from ``np.power``, so they also depend on the numpy build.

Work arrays: the n-length terms of a moment, the chord, weight and rfft
arrays of :mod:`swarmlab.spectra` and the mode-sized arrays of its 4x4
scan route come from :func:`_scratch`.  Inside a :func:`_workspace`
(``separatrix_check`` opens one per call, a scan one per thread) it hands
the calling thread the same buffer for the same shape and dtype every
time, so a call's ~88 solves at n = 1e5 map their arrays once; outside
one it returns a fresh ``np.empty``.  Either way the same ufuncs run on
the same values in the same order, so the bytes of every result are the
same.
"""

from __future__ import annotations

import contextlib
import functools
import math
import threading
from array import array
from dataclasses import dataclass

import numpy as np

from .potentials import Morse, PowerLaw, _check_fields, _number

__all__ = [
    "RingSolution",
    "RadiusProblem",
    "trig_moment",
    "radius_residual",
    "solve_radius",
    "solve_radius_all",
    "flock_ring",
    "mill_ring",
    "beta_fn",
    "sine_moment_limit",
    "continuum_radius",
    "ring_positions",
]

# default search interval for power-law roots; every known case has R = O(1)
_DEFAULT_BRACKET = (1e-6, 1e3)
_MAX_EXPANSION = 1e12
# root bracket width at which bisection stops
_TOLERANCE = 1e-12
# uniform grid cells over which solve_radius_all looks for sign changes
_SEGMENTS = 1024


@dataclass(frozen=True)
class RingSolution:
    """An N-particle ring state.

    ``kind`` is ``"flock"`` (rigid translation, omega = 0) or ``"mill"``
    (rigid rotation with omega = speed / radius).
    """

    n: int
    radius: float
    speed: float
    omega: float
    kind: str

    def __post_init__(self):
        _check_fields(self, "n", ge=3, integer=True)
        _check_fields(self, "radius", gt=0)
        _check_fields(self, "speed", ge=0)
        if self.kind not in ("flock", "mill"):
            raise ValueError(f"ring kind must be 'flock' or 'mill', got {self.kind!r}")
        if self.kind == "flock" and self.omega != 0.0:
            raise ValueError("flock rings have omega = 0")
        if self.kind == "mill":
            if abs(self.radius * self.omega - self.speed) > 1e-9 * max(1.0, self.speed):
                raise ValueError("mill rings need radius * omega = speed")


@dataclass(frozen=True)
class RadiusProblem:
    """Root-finding setup for the ring radius.

    ``speed`` is the centrifugal speed R*omega entering the balance (0 for
    flocks).  ``bracket`` of None means the default power-law interval with
    geometric expansion; Morse problems must supply one explicitly, with
    finite ends 0 < lo < hi.
    """

    potential: object
    n: int
    speed: float = 0.0
    bracket: tuple | None = None

    def __post_init__(self):
        if not isinstance(self.potential, (PowerLaw, Morse)):
            raise TypeError("potential must be PowerLaw or Morse")
        _check_fields(self, "n", ge=3, integer=True)
        _check_fields(self, "speed", ge=0)
        if self.bracket is not None:
            lo, hi = self.bracket
            lo = _number("lo", lo, gt=0)
            object.__setattr__(self, "bracket", (lo, _number("hi", hi, gt=lo)))


# the open workspace of each thread: buffers {(shape, dtype): array} and the
# key they were made under, or no attributes
_workspaces = threading.local()


@contextlib.contextmanager
def _workspace(key=None):
    """Let :func:`_scratch` reuse one buffer per shape and dtype in this
    thread until the outermost ``with`` exits, which drops them all.  A
    nested one reuses the open workspace, but a nested one with a ``key``
    other than None and than the key the buffers were made under drops them
    first: a scan's blocks give their cell count, so its workspace holds the
    buffers of one block size at a time."""
    if hasattr(_workspaces, "buffers"):
        if key is not None and key != _workspaces.key:
            _workspaces.buffers, _workspaces.key = {}, key
        yield
        return
    _workspaces.buffers, _workspaces.key = {}, key
    try:
        yield
    finally:
        del _workspaces.buffers, _workspaces.key


def _scratch(shape, dtype=float):
    """An uninitialized array of this shape and dtype: the open workspace's
    buffer for the pair, or a new one when none is open.  A caller may not
    keep it past its own return, since the next caller of that pair writes
    over it, and two arrays it holds at once need two different pairs."""
    buffers = getattr(_workspaces, "buffers", None)
    if buffers is None:
        return np.empty(shape, dtype)
    key = shape, np.dtype(dtype)
    if key not in buffers:
        buffers[key] = np.empty(shape, dtype)
    return buffers[key]


def _pair_rows(n, rows=2):
    """A (rows, 2 (n//2 + 1)) scratch buffer: rows of n terms (two: a
    moment's terms and work row, or a cell's chords and powers), or (viewed
    as complex) of the n//2 + 1 bins of an rfft of length n, one per cell."""
    return _scratch((rows, 2 * (n // 2 + 1)))


def _rfft_rows(n, shape):
    """Complex rows (shape + (n//2 + 1,)) for one rfft of length n per cell:
    :func:`_pair_rows` with a row per cell, at least two, so a lone cell's
    transform takes the first of the rows its solve and weights used."""
    cells = math.prod(shape)
    return _pair_rows(n, max(2, cells))[:cells].view(complex).reshape(shape + (-1,))


@functools.lru_cache(maxsize=2)
def _sines(n):
    """sin(p pi / n) for p = 0..n-1 from libm, one table per recent n.

    The cached array is shared: callers read or copy it, never write it.
    """
    return array("d", (math.sin(p * math.pi / n) for p in range(n)))


def _exact_sum(r, hi):
    """Correctly rounded sum of float64 terms with |r| <= 1 (the value
    ``math.fsum`` gives over them); ``r`` and the work array ``hi``, of
    r's size, are overwritten.

    An error-free level split: each level rounds the remainder to
    multiples of ulp(c) as hi = (r + c) - c, adds hi, and keeps r - hi.
    With n < 2^L terms, c_k = 1.5 * 2^(L - k (53 - L)) and |r| <= 2^(-k (53 - L))
    at level k, every hi and r - hi is exact and every partial sum of hi
    is a multiple of ulp(c_k) below 2^52 ulps, so ``hi.sum()`` is exact in
    any order.  The step 2^(L - 53) must shrink as n grows: with the same
    first c, a fixed step of 2^-32 keeps this bound only below 2^21 terms,
    and the split needs n < 2^52.  Nothing n-length is allocated here.
    """
    L = r.size.bit_length()
    c = 1.5 * 2.0**L
    sums = []
    # once ulp(c) <= 2^-1074 a level takes every remainder whole, so the
    # loop ends with r == 0 within this many levels
    for _ in range((L + 1022) // (53 - L) + 2):
        np.add(r, c, out=hi)
        hi -= c
        r -= hi
        sums.append(hi.sum())
        if not r.any():
            break
        c *= 2.0 ** (L - 53)
    return math.fsum(sums)


def trig_moment(n, alpha):
    """Moment S_alpha = (1/n) sum_{p=0}^{n-1} sin(p pi / n)^alpha.

    Even integer exponents take the exact closed form
    S_{2k} = binom(2k, k) / 4^k (valid while n > k, since the discrete
    Fourier comb kills every binomial cross term); in particular
    S_2 = 1/2 and S_4 = 3/8 bit-exactly.  Other exponents sum the terms
    exactly and round once.  2^(alpha-1) S_alpha tends to
    :func:`sine_moment_limit` as n grows.

    The terms are libm ``sin`` and ``pow`` values (``np.float_power``
    calls the C library's ``pow`` per element) and the sum is
    :func:`_exact_sum`, so the result equals ``math.fsum`` over Python's
    ``pow`` terms bit for bit and depends on the C library.  The terms
    and the sum's work array are the two rows of :func:`_pair_rows`.
    """
    n = _number("n", n, ge=3, integer=True)
    alpha = _number("alpha", alpha, ge=0)
    if alpha == int(alpha) and int(alpha) % 2 == 0 and n > alpha // 2:
        k = int(alpha) // 2
        return math.comb(2 * k, k) / 4**k
    terms, hi = _pair_rows(n)[:, :n]
    np.float_power(np.frombuffer(_sines(n)), alpha, out=terms)
    return _exact_sum(terms, hi) / n


# moments for the radius solves: an x-major (a, b) scan keeps one column's
# S_b (20 b values on the bench grid) and its S_a across rows, while the
# ~88 distinct moments of one separatrix pass still evict everything older,
# so repeated passes never hit across passes
_moment = functools.lru_cache(maxsize=32)(trig_moment)


def _power_residual(potential, s_a, s_b, s2):
    """The power-law balance (2R)^(a-1) s_a - (2R)^(b-1) s_b - s2 / R and
    its derivative in R, for moments s_a and s_b (discrete or limit)."""
    ea, eb = potential.a - 1.0, potential.b - 1.0

    def residual(R):
        d = 2.0 * R
        return d**ea * s_a - d**eb * s_b - s2 / R

    def residual_deriv(R):
        d = 2.0 * R
        return 2.0 * ea * d ** (ea - 1.0) * s_a - 2.0 * eb * d ** (eb - 1.0) * s_b + s2 / (R * R)

    return residual, residual_deriv


def _residual_fn(potential, n, speed):
    """Build a cheap scalar residual R -> balance defect.

    Power laws precompute the two trig moments so each call is O(1);
    the Morse route sums chords term by term.
    """
    s2 = speed * speed
    if isinstance(potential, PowerLaw):
        return _power_residual(potential, _moment(n, potential.a), _moment(n, potential.b), s2)

    sines = _sines(n)[1:].tolist()

    def residual(R):
        om2 = s2 / (R * R)
        terms = []
        for s in sines:
            d = 2.0 * R * s
            kd = (potential.C_A / potential.l_A) * math.exp(-d / potential.l_A) - (
                potential.C_R / potential.l_R
            ) * math.exp(-d / potential.l_R)
            terms.append(s * (kd - om2 * d))
        return math.fsum(terms) / n

    return residual, None


def radius_residual(problem, R):
    """Radial force balance defect at candidate radius R.

    Zero at a ring radius; negative when short-range repulsion (or the
    centrifugal term) wins, positive when attraction wins.
    """
    residual, _ = _residual_fn(problem.potential, problem.n, problem.speed)
    return residual(_number("R", R, gt=0))


def _bisect(residual, lo, hi, f_lo, tol):
    # classic bisection; interval width drops below tol
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        f_mid = residual(mid)
        if f_mid == 0.0:
            return mid
        if (f_lo < 0) == (f_mid < 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _refine(residual, residual_deriv, lo, hi, f_lo, tol):
    root = _bisect(residual, lo, hi, f_lo, tol)
    if residual_deriv is not None:
        # two Newton steps restore the digits bisection left on the table
        for _ in range(2):
            d = residual_deriv(root)
            if d == 0.0:
                break
            step = residual(root) / d
            cand = root - step
            if lo < cand < hi:
                root = cand
    return root


def _expand_bracket(residual, what):
    """Widen the default bracket by factors of 4 until it straddles the root.

    Returns (lo, hi, residual(lo)) with residual(lo) < 0 < residual(hi);
    ``what`` names the root in the error.
    """
    lo, hi = _DEFAULT_BRACKET
    f_lo = residual(lo)
    while f_lo >= 0 and lo > 1.0 / _MAX_EXPANSION:
        lo /= 4.0
        f_lo = residual(lo)
    f_hi = residual(hi)
    while f_hi <= 0 and hi < _MAX_EXPANSION:
        hi *= 4.0
        f_hi = residual(hi)
    if f_lo >= 0 or f_hi <= 0:
        raise ArithmeticError(f"failed to bracket {what}")
    return lo, hi, f_lo


def _make_ring(problem, root):
    if problem.speed > 0:
        return RingSolution(
            n=problem.n,
            radius=root,
            speed=problem.speed,
            omega=problem.speed / root,
            kind="mill",
        )
    return RingSolution(n=problem.n, radius=root, speed=0.0, omega=0.0, kind="flock")


def solve_radius(problem):
    """Find the ring radius for the given problem.

    Power laws have a unique root (repulsion wins for small R, attraction
    for large R, and the residual crosses once); the default bracket is
    expanded geometrically until it straddles the sign change.  Morse
    problems must carry an explicit bracket with a sign change inside.
    Returns a mill ring when problem.speed > 0, a flock ring otherwise;
    raises ArithmeticError when no root is bracketed.
    """
    residual, residual_deriv = _residual_fn(problem.potential, problem.n, problem.speed)
    if problem.bracket is not None:
        lo, hi = problem.bracket
        f_lo, f_hi = residual(lo), residual(hi)
        if f_lo == 0.0:
            return _make_ring(problem, lo)
        if f_hi == 0.0:
            return _make_ring(problem, hi)
        if (f_lo < 0) == (f_hi < 0):
            raise ArithmeticError(
                f"no sign change in bracket ({lo:g}, {hi:g}); "
                "widen it or use solve_radius_all"
            )
    elif isinstance(problem.potential, PowerLaw):
        lo, hi, f_lo = _expand_bracket(residual, "a ring radius after expansion")
    else:
        raise ValueError("Morse problems need an explicit bracket")
    root = _refine(residual, residual_deriv, lo, hi, f_lo, _TOLERANCE)
    return _make_ring(problem, root)


def solve_radius_all(problem):
    """All ring radii inside the problem's bracket, sorted ascending.

    Scans the bracket on a uniform grid, refines every sign change by
    bisection.  Returns [] when the bracket holds no root; general
    potentials (Morse in particular) can hold several.
    """
    if problem.bracket is None:
        raise ValueError("solve_radius_all needs an explicit bracket")
    residual, residual_deriv = _residual_fn(problem.potential, problem.n, problem.speed)
    lo, hi = problem.bracket
    grid = np.linspace(lo, hi, _SEGMENTS + 1)
    values = [residual(float(x)) for x in grid]
    roots = []
    for i in range(_SEGMENTS):
        f0, f1 = values[i], values[i + 1]
        if f0 == 0.0:
            roots.append(float(grid[i]))
        elif (f0 < 0) != (f1 < 0):
            roots.append(
                _refine(
                    residual,
                    residual_deriv,
                    float(grid[i]),
                    float(grid[i + 1]),
                    f0,
                    _TOLERANCE,
                )
            )
    if values[-1] == 0.0:
        roots.append(float(grid[-1]))
    return [_make_ring(problem, r) for r in sorted(roots)]


def flock_ring(potential, n, speed=0.0):
    """Flock ring: static shape balance, common drift at ``speed``.

    The drift does not enter the radius; it is recorded on the solution
    for downstream use (stability matrices, initial conditions).
    """
    sol = solve_radius(RadiusProblem(potential=potential, n=n, speed=0.0))
    return RingSolution(n=n, radius=sol.radius, speed=speed, omega=0.0, kind="flock")


def mill_ring(potential, n, speed):
    """Mill ring rotating at omega = speed / radius; the speed must be > 0."""
    speed = _number("speed", speed, gt=0)
    return solve_radius(RadiusProblem(potential=potential, n=n, speed=speed))


def beta_fn(x, y):
    """Euler Beta function B(x, y) = Gamma(x) Gamma(y) / Gamma(x + y)."""
    x, y = _number("x", x, gt=0), _number("y", y, gt=0)
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))


def sine_moment_limit(alpha):
    """Large-n limit of 2^(alpha-1) * trig_moment(n, alpha).

    Equals 2^(alpha-1)/pi * B((alpha+1)/2, 1/2); gives 1 at alpha=2,
    3 at alpha=4, 2/pi at alpha=1.
    """
    alpha = _number("alpha", alpha, gt=0)
    return 2.0 ** (alpha - 1.0) / math.pi * beta_fn(0.5 * (alpha + 1.0), 0.5)


def continuum_radius(a, b, speed=0.0):
    """Ring radius in the infinite-particle limit of the power-law model.

    The discrete balance of :func:`solve_radius` with each moment S_alpha
    replaced by its limit B((alpha+1)/2, 1/2) / pi, solved the same way; at
    speed 0 the root is R = (1/2) (B((b+1)/2,1/2) / B((a+1)/2,1/2))^(1/(a-b)).
    """
    potential = PowerLaw(a, b)
    speed = _number("speed", speed, ge=0)
    s_a, s_b = (sine_moment_limit(x) / 2.0 ** (x - 1.0) for x in (potential.a, potential.b))
    residual, residual_deriv = _power_residual(potential, s_a, s_b, speed * speed)
    lo, hi, f_lo = _expand_bracket(residual, "the continuum radius")
    return _refine(residual, residual_deriv, lo, hi, f_lo, _TOLERANCE)


def ring_positions(ring):
    """Particle positions R (cos t_j, sin t_j), t_j = 2 pi j / n, j = 1..n."""
    j = np.arange(1, ring.n + 1, dtype=float)
    theta = 2.0 * math.pi * j / ring.n
    return ring.radius * np.column_stack([np.cos(theta), np.sin(theta)])
