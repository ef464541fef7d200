"""Linear stability of ring states: reduced 4x4 mode matrices and full Jacobians.

A mode-m perturbation moves particle j by h_j = xi_plus e^{i m theta_j}
+ xi_minus e^{-i m theta_j} (complex position offsets relative to the
ring).  Linearizing the dynamics in the co-rotating amplitudes
(xi_plus, conj(xi_minus)) and their time derivatives gives a 4x4 system
per mode whose first two rows are always [0 0 1 0], [0 0 0 1].

The position block is the symmetric 2x2 shape matrix
[[I1(m), I2(m)], [I2(m), I1(-m)]] built from pair-weight sums over the
ring chords; the velocity block encodes the damping mechanism:
self-propulsion (rank-1 per particle), velocity alignment (diagonal,
strictly negative for interior modes), or mill rotation (complex,
frequency-shifted).  The shape matrix being negative definite
(det > 0 and trace < 0) is equivalent to mode stability.

Scans take one route, _worst_modes, over a block of cells at a time:
one rfft per weight vector over the block's rows, one assembly, one
eigensolve of the sampled modes, one certificate call and one eigensolve
of the modes left open; only the radius solves and weight rows are per
cell.  A lone cell is a block of one.  For flock-cs and the spinning mill it
eigensolves a sample of modes and then only the modes that a
Routh-Hurwitz certificate with a rigorous rounding-error bound
(_routh_below) cannot place strictly below the sample's worst mode and
band; each cell's output is that of solving every mode alone, bit for
bit.  mode_envelope solves every mode, since it prints every mode.

For cross-validation at small N the module also assembles the full
2N x 2N interaction Hessian and the 4N x 4N Jacobians, whose spectra
must agree in sign with the reduced criterion (theorem_witness).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .potentials import AlignmentKernel, Morse, PowerLaw, Propulsion
from .rings import RadiusProblem, _sines, ring_positions, solve_radius

__all__ = [
    "Classification",
    "ShapeMatrix",
    "ModeMatrix",
    "SpectralReport",
    "pair_weights",
    "mode_self_coupling",
    "mode_cross_coupling",
    "shape_matrix",
    "det_trace",
    "alignment_damping",
    "flock_mode_matrix",
    "cs_flock_mode_matrix",
    "mill_mode_matrix",
    "eig4",
    "classify",
    "mode_envelope",
    "det_asymptotics",
    "full_hessian",
    "full_flock_jacobian",
    "full_cs_jacobian",
    "dense_eigvals",
    "theorem_witness",
]


class Classification(str, Enum):
    """Outcome of a stability check.  Marginal is reported, never coerced."""

    STABLE = "stable"
    UNSTABLE = "unstable"
    MARGINAL = "marginal"
    INVALID = "invalid"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class ShapeMatrix:
    """Symmetric 2x2 position block of a mode matrix."""

    entries: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=float)
        if e.shape != (2, 2):
            raise ValueError("shape matrix must be 2x2")
        if not np.all(np.isfinite(e)):
            raise ValueError("shape matrix entries must be finite")
        if e[0, 1] != e[1, 0]:
            raise ValueError("shape matrix must have equal off-diagonal entries")
        object.__setattr__(self, "entries", e)


@dataclass(frozen=True)
class ModeMatrix:
    """4x4 linearization of one perturbation mode.

    ``model`` is one of ``"flock"``, ``"flock-cs"``, ``"mill"``; ``params``
    snapshots the inputs (a, b, n, m, radius, and alpha/gamma/omega/speed
    as applicable).  Rows 1-2 are the identity coupling of positions to
    velocities; only the mill variant is complex (when omega != 0).
    """

    entries: np.ndarray
    model: str
    params: dict

    def __post_init__(self):
        e = np.asarray(self.entries)
        if e.shape != (4, 4):
            raise ValueError("mode matrix must be 4x4")
        top = np.array([[0, 0, 1, 0], [0, 0, 0, 1]], dtype=e.dtype)
        if not np.array_equal(e[:2], top):
            raise ValueError("mode matrix rows 1-2 must be [0 0 1 0], [0 0 0 1]")
        object.__setattr__(self, "entries", e)

    @property
    def max_norm(self):
        return float(np.max(np.abs(self.entries)))


@dataclass(frozen=True)
class SpectralReport:
    """Eigenvalues and verdict for one mode."""

    m: int
    eigenvalues: tuple
    max_real: float
    classification: Classification


def _require_powerlaw(a, b):
    if not (a > b > 0):
        raise ValueError(f"power-law exponents need a > b > 0, got a={a}, b={b}")


def pair_weights(a, b, radius, n, p):
    """Per-chord weights (w1, w2) entering the mode coupling sums.

    With d = 2 radius sin(p pi / n) the weights are
    w1 = (-a d^(a-2) + b d^(b-2)) / (2n) and
    w2 = (-(a-2) d^(a-2) + (b-2) d^(b-2)) / (2n); w1 multiplies the
    self-coupling phase factors, w2 the cross-coupling ones.
    """
    _require_powerlaw(a, b)
    if not 1 <= p <= n - 1:
        raise ValueError("chord index p must satisfy 1 <= p <= n-1")
    d = 2.0 * radius * math.sin(p * math.pi / n)
    da = d ** (a - 2.0)
    db = d ** (b - 2.0)
    w1 = (-a * da + b * db) / (2.0 * n)
    w2 = (-(a - 2.0) * da + (b - 2.0) * db) / (2.0 * n)
    return w1, w2


def _phase_sum(w, n, j, k, label):
    """Re sum_p w_p (e^{2 pi i p j / n} - e^{2 pi i p k / n}) over p = 1..n-1.

    The imaginary part cancels by the p <-> n-p symmetry; it must stay
    within roundoff of sum |w_p|, then is discarded.  The real part
    itself can be 0 (mode n - 1).
    """
    re, im = [], []
    for p, wp in zip(range(1, n), w):
        tj, tk = 2.0 * math.pi * p * j / n, 2.0 * math.pi * p * k / n
        re.append(wp * (math.cos(tj) - math.cos(tk)))
        im.append(wp * (math.sin(tj) - math.sin(tk)))
    im, scale = math.fsum(im), math.fsum(map(abs, w))
    if not abs(im) <= 1e-10 * scale:
        raise ArithmeticError(
            f"{label}: imaginary part {im:.3e} not negligible against weights {scale:.3e}"
        )
    return math.fsum(re)


def mode_self_coupling(a, b, radius, n, m):
    """Diagonal entry I1(m) of the shape matrix (I1(-m) for negated m):
    the phase sum of the w1 weights at j = 0, k = m + 1."""
    _require_powerlaw(a, b)
    w1 = [pair_weights(a, b, radius, n, p)[0] for p in range(1, n)]
    return _phase_sum(w1, n, 0, m + 1, "mode_self_coupling")


def mode_cross_coupling(a, b, radius, n, m):
    """Off-diagonal entry I2(m) of the shape matrix, even in m and zero at
    m = 1: the phase sum of the w2 weights at j = m, k = 1."""
    _require_powerlaw(a, b)
    w2 = [pair_weights(a, b, radius, n, p)[1] for p in range(1, n)]
    return _phase_sum(w2, n, m, 1, "mode_cross_coupling")


# ---------------------------------------------------------------------------
# fast all-modes route: cosine transforms of the weight vectors
# ---------------------------------------------------------------------------


def _fold(k, n):
    """Map any integer phase index onto the rfft bin range [0, n//2]."""
    k = np.asarray(k) % n
    return np.minimum(k, n - k)


def _chords(R, n):
    """Chord lengths 2R sin(p pi / n), p = 1..n-1, from the radius solve's
    libm sine table (read, never written)."""
    return 2.0 * R * np.frombuffer(_sines(n))[1:]


def _weight_vectors(a, b, radius, n, w=None):
    # w1 = (-a d^(a-2) + b d^(b-2)) / 2n, w2 = (-(a-2) d^(a-2) + (b-2) d^(b-2)) / 2n,
    # zero at p = 0, built in place in that operation order, into the zeroed
    # (2, n) rows ``w`` when given.  The chords are libm sines, but ``**``
    # (np.power) follows the numpy build, unlike the radius moments' libm
    # pow through np.float_power.
    d = _chords(radius, n)
    da = d ** (a - 2.0)
    d **= b - 2.0
    w = np.zeros((2, n)) if w is None else w
    w1, w2 = w[0, 1:], w[1, 1:]
    np.multiply(-a, da, out=w1)
    np.multiply(-(a - 2.0), da, out=w2)
    for row, coef in ((w1, b), (w2, b - 2.0)):
        row += np.multiply(coef, d, out=da)
        row /= 2.0 * n
    return w[0], w[1]


def _ring_radius(potential, n, speed):
    return solve_radius(RadiusProblem(potential=potential, n=n, speed=speed)).radius


def _ring_couplings(a, b, n, speed, ms):
    """Ring radius R and the couplings I1(m), I1(-m), I2(m) for modes ``ms``.

    a, b and speed are one cell's numbers, or a block's arrays: then R has
    one entry per cell and each coupling is laid out [mode, cell].  Each
    cell solves its radius and builds its weight rows; one rfft over the
    w1 rows and one over the w2 rows (the bytes of one rfft per row) give
    the cosine sums c[k] = sum_p w_p cos(2 pi p k / n); then
    I1(m) = c1[0] - c1[fold(m+1)] and I2(m) = c2[fold(m)] - c2[1].  Agrees
    with the direct-summation route to roundoff (tested).
    """
    a, b, speed = np.broadcast_arrays(a, b, speed)
    R = np.empty(a.shape)
    w = np.zeros((2,) + a.shape + (n,))
    rows = np.moveaxis(w, 0, -2)  # each cell's (2, n) weight rows
    for i in np.ndindex(a.shape):
        cell = float(a[i]), float(b[i])
        R[i] = _ring_radius(PowerLaw(*cell), n, float(speed[i]))
        _weight_vectors(*cell, R[i], n, rows[i])
    R = R[()]
    c1, c2 = (np.fft.rfft(wk).real.T for wk in w)
    i1_plus = c1[0] - c1[_fold(ms + 1, n)]
    i1_minus = c1[0] - c1[_fold(ms - 1, n)]
    i2 = c2[_fold(ms, n)] - c2[1]
    return R, i1_plus, i1_minus, i2


def shape_matrix(a, b, n, m, speed=0.0):
    """Shape matrix [[I1(m), I2(m)], [I2(m), I1(-m)]] at the solved radius.

    ``speed`` > 0 solves the mill radius (centrifugal balance) first;
    speed 0 gives the flock ring.
    """
    R = _ring_radius(PowerLaw(a, b), n, speed)
    i1p, i1m, i2 = _direct_couplings(a, b, R, n, m)
    return ShapeMatrix(entries=np.array([[i1p, i2], [i2, i1m]]))


def det_trace(sm):
    """Determinant and trace of a shape matrix; stability needs D>0 and T<0."""
    e = sm.entries
    return (
        float(e[0, 0] * e[1, 1] - e[0, 1] * e[1, 0]),
        float(e[0, 0] + e[1, 1]),
    )


def alignment_damping(gamma, radius, n, m, sign):
    """Velocity-alignment damping J_+ (sign=+1) or J_- (sign=-1) at mode m.

    (1/n) sum_p g(d_p) (cos(2 pi p (m+sign)/n) - 1) with d_p the true
    chord length 2 radius sin(p pi / n); each term is <= 0.  The phase
    sum's imaginary part cancels by symmetry and is asserted negligible.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    kernel = AlignmentKernel(gamma)
    g = [float(kernel.value(2.0 * radius * math.sin(p * math.pi / n))) for p in range(1, n)]
    return _phase_sum(g, n, m + sign, 0, "alignment_damping") / n


def _assemble(model, i1p, i1m, i2, alpha=1.0, jp=0.0, jm=0.0, omega=0.0):
    """Stack of mode matrices (..., 4, 4) from coupling arrays (...).

    Rows 1-2 are [0 0 1 0], [0 0 0 1].  Rows 3-4 put the shape block
    [[I1(m), I2(m)], [I2(m), I1(-m)]] beside the velocity block: flock
    [[-alpha, -alpha], [-alpha, -alpha]], flock-cs diag(J+(m), J-(m)),
    mill [[-alpha, alpha], [alpha, -alpha]].  At omega != 0 the mill stack
    is complex: the rotating frame adds omega^2 to the shape diagonal,
    -+ i omega alpha to shape rows 3/4 and -+ 2 i omega to the velocity
    diagonal.  A block's omega has one entry per cell, which broadcasts
    against the couplings' last (cell) axis.
    """
    if model != "flock-cs" and not 0 < alpha < math.inf:
        raise ValueError(f"need alpha > 0 and finite, got alpha={alpha}")
    i1p, i1m, i2 = np.atleast_1d(i1p, i1m, i2)
    spinning = model == "mill" and np.any(omega != 0.0)
    A = np.zeros(i1p.shape + (4, 4), dtype=complex if spinning else float)
    A[..., 0, 2] = A[..., 1, 3] = 1.0
    A[..., 2, 0] = i1p
    A[..., 2, 1] = A[..., 3, 0] = i2
    A[..., 3, 1] = i1m
    if model == "flock":
        A[..., 2:, 2:] = -alpha
    elif model == "flock-cs":
        A[..., 2, 2] = jp
        A[..., 3, 3] = jm
    elif model == "mill":
        A[..., 2, 2] = A[..., 3, 3] = -alpha
        A[..., 2, 3] = A[..., 3, 2] = alpha
        if spinning:
            w = omega
            A[..., 2, 0] = -1j * w * alpha + w * w + i1p
            A[..., 2, 1] = -1j * w * alpha + i2
            A[..., 3, 0] = 1j * w * alpha + i2
            A[..., 3, 1] = 1j * w * alpha + w * w + i1m
            A[..., 2, 2] = -alpha - 2j * w
            A[..., 3, 3] = -alpha + 2j * w
    else:
        raise ValueError(f"unknown model {model!r}")
    return A


def _direct_couplings(a, b, R, n, m):
    """I1(m), I1(-m), I2(m) by direct summation (the reference route)."""
    return (
        mode_self_coupling(a, b, R, n, m),
        mode_self_coupling(a, b, R, n, -m),
        mode_cross_coupling(a, b, R, n, m),
    )


def flock_mode_matrix(a, b, n, m, prop):
    """Mode matrix for the self-propelled flock ring.

    Rows 3-4: [I1(m), I2(m), -alpha, -alpha], [I2(m), I1(-m), -alpha,
    -alpha].  The velocity block is the rank-1 propulsion damping
    projected onto the mode amplitudes; its trace -2 alpha matches
    -2 beta |u0|^2, so only alpha enters.

    The eigenvalues give a sign, not a rate.  The damping acts along the
    fixed drift direction, which couples lab-frame modes k and -k, so no
    exact per-mode 4x4 exists: the largest real part agrees in sign with
    the shape-rule verdict, but it is not a growth rate (0.2441 here
    against 0.0817 from the full Jacobian at (5, 1.9, 64, alpha = 1)).
    """
    if not isinstance(prop, Propulsion):
        raise TypeError("prop must be a Propulsion")
    R = _ring_radius(PowerLaw(a, b), n, 0.0)
    al = prop.alpha
    entries = _assemble("flock", *_direct_couplings(a, b, R, n, m), alpha=al)[0]
    return ModeMatrix(
        entries=entries,
        model="flock",
        params={"a": a, "b": b, "n": n, "m": m, "radius": R, "alpha": al},
    )


def cs_flock_mode_matrix(a, b, n, m, gamma):
    """Mode matrix for the flock ring with velocity-alignment coupling.

    Rows 3-4: [I1(m), I2(m), J+(m), 0], [I2(m), I1(-m), 0, J-(m)];
    the velocity block is diagonal by construction.
    """
    if isinstance(gamma, AlignmentKernel):
        gamma = gamma.gamma
    R = _ring_radius(PowerLaw(a, b), n, 0.0)
    jp = alignment_damping(gamma, R, n, m, +1)
    jm = alignment_damping(gamma, R, n, m, -1)
    entries = _assemble(
        "flock-cs", *_direct_couplings(a, b, R, n, m), jp=jp, jm=jm
    )[0]
    return ModeMatrix(
        entries=entries,
        model="flock-cs",
        params={"a": a, "b": b, "n": n, "m": m, "radius": R, "gamma": gamma},
    )


def mill_mode_matrix(a, b, n, m, alpha, speed):
    """Mode matrix for the rotating mill ring (counter-clockwise, omega > 0).

    Rows 3-4:
      [-i omega alpha + omega^2 + I1(m), -i omega alpha + I2(m), -alpha - 2 i omega, alpha]
      [ i omega alpha + I2(m),  i omega alpha + omega^2 + I1(-m), alpha, -alpha + 2 i omega]
    Real at speed 0, where the velocity block degenerates to
    [[-alpha, alpha], [alpha, -alpha]].
    """
    if speed < 0:
        raise ValueError("speed must be nonnegative")
    R = _ring_radius(PowerLaw(a, b), n, speed)
    w = speed / R
    entries = _assemble(
        "mill", *_direct_couplings(a, b, R, n, m), alpha=alpha, omega=w
    )[0]
    return ModeMatrix(
        entries=entries,
        model="mill",
        params={
            "a": a,
            "b": b,
            "n": n,
            "m": m,
            "radius": R,
            "alpha": alpha,
            "speed": speed,
            "omega": w,
        },
    )


def eig4(mat):
    """Eigenvalues of a 4x4 mode matrix, sorted by descending real part.

    Contract (tested): each eigenvalue leaves (mat - lambda I) with
    smallest singular value below 1e-9 times the matrix max-norm, and
    the eigenvalue sum/product reconstruct trace/determinant to 1e-9
    relative.
    """
    entries = mat.entries if isinstance(mat, ModeMatrix) else np.asarray(mat)
    if entries.shape != (4, 4):
        raise ValueError("eig4 expects a 4x4 matrix")
    if not np.all(np.isfinite(entries)):
        raise ValueError("eig4 needs finite entries")
    try:
        vals = np.linalg.eigvals(entries)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - numpy converges here
        raise ArithmeticError(f"eigenvalue iteration failed: {exc}") from exc
    return _sorted_eigs(vals)


def _sorted_eigs(vals):
    """Eigenvalues along the last axis by descending real, then imaginary part."""
    order = np.lexsort((-vals.imag, -vals.real), axis=-1)
    return np.take_along_axis(vals, order, axis=-1)


# verdict per severity band; over several modes the worst band wins
_VERDICTS = (Classification.STABLE, Classification.MARGINAL, Classification.UNSTABLE)


def _severity(max_re, tol):
    """Band of each largest real part: 0 below -tol, 2 above tol, else 1 (nan too)."""
    return np.where(max_re > tol, 2, np.where(max_re < -tol, 0, 1))


def classify(eigenvalues, tol=1e-8):
    """Stability verdict from eigenvalue real parts.

    Unstable if some real part exceeds tol, stable if all lie below -tol,
    marginal otherwise.  This is the rule for the spinning mill, the one
    ring without a shape-matrix reduction (see _shape_severity).
    """
    vals = np.asarray(eigenvalues, dtype=complex)
    return _VERDICTS[_severity(np.max(vals.real), tol)]


def _shape_severity(ms, n, i1p, i1m, i2):
    """Largest shape eigenvalue mu1 and severity band of each mode in ``ms``.

    A ring at rest is stable in mode m exactly when its shape matrix is
    negative definite (det > 0, trace < 0: mu1 < 0); mu1 is banded at
    1e-8 max(1, |I1(m)|, |I1(-m)|, |I2(m)|).  Mode +-1 (mod n) holds the
    translation as a structural zero (I1(-1) = I2(1) = 0), so its mu1 is
    the other diagonal entry, the trace.  The self-conjugate mode needs no
    special case: its undamped 4x4 pair +- i sqrt(-(I1 - I2)) is stable
    exactly when the shape matrix is negative definite.
    """
    half_diff = 0.5 * (i1p - i1m)
    mu1 = 0.5 * (i1p + i1m) + np.sqrt(half_diff * half_diff + i2 * i2)
    k = np.asarray(ms) % n
    k = k.reshape(k.shape + (1,) * (mu1.ndim - k.ndim))  # modes lead, cells follow
    mu1 = np.where((k == 1) | (k == n - 1), i1p + i1m, mu1)
    norms = np.maximum(1.0, np.maximum(np.abs(i1p), np.maximum(np.abs(i1m), np.abs(i2))))
    return mu1, _severity(mu1, 1e-8 * norms)


def _alignment_tables(gamma, R, n, ms):
    """J+(m), J-(m) for modes ``ms`` from one cosine transform of g(d_p),
    laid out [mode, cell] for a block's radii R."""
    R = np.asarray(R)
    gv = np.zeros(R.shape + (n,))
    gv[..., 1:] = AlignmentKernel(gamma).value(_chords(R[..., None], n))
    gc = np.moveaxis(np.fft.rfft(gv).real, -1, 0) / n
    return gc[_fold(ms + 1, n)] - gc[0], gc[_fold(ms - 1, n)] - gc[0]


_ENVELOPE_MODELS = ("flock", "flock-cs", "mill")


def _mode_stack(model, a, b, n, ms, alpha, gamma, speed):
    """Mode matrices (k, 4, 4) of modes ``ms``, their tolerances and shape bands.

    For a block (arrays a and b at one speed) the stack is [mode, cell],
    (k, B, 4, 4).  The tolerance of mode m is 1e-8 max(1, |A_m|),
    classify's rule, taken over rows 3-4: rows 1-2 hold only 0 and 1.
    Rings at rest take their bands from _shape_severity; the spinning mill
    gets None and bands its largest real parts at the tolerance.
    """
    speed = speed if model == "mill" else 0.0
    R, i1p, i1m, i2 = _ring_couplings(a, b, n, speed, ms)
    jp, jm = _alignment_tables(gamma, R, n, ms) if model == "flock-cs" else (0.0, 0.0)
    A = _assemble(model, i1p, i1m, i2, alpha=alpha, jp=jp, jm=jm, omega=speed / R)
    tol = 1e-8 * np.maximum(1.0, np.abs(A[..., 2:, :]).max(axis=(-2, -1)))
    bands = _shape_severity(ms, n, i1p, i1m, i2)[1] if speed == 0.0 else None
    return A, tol, bands


# unit roundoff of float64, and the relative error bounds of the
# certificate's first two stages (see _routh_below)
_U = 2.0**-53
_QUARTIC_ERR = 32 * _U
_PRODUCT_ERR = 8 * _U


def _shifted_quartic(S, V, c, minus):
    """Coefficients (5, k), constant first, of det(mu^2 I - mu V' - S').

    S and V are (2, 2, k) blocks, V' = V - 2cI and S' = S + cV - c^2 I, so
    the quartic is the characteristic polynomial
    p(lambda) = det(lambda^2 I - lambda V - S) of [[0, I], [S, V]] at
    lambda = mu + c.  With moduli for S, V and c and np.add for ``minus``
    the same lines give each coefficient's magnitude bound, every term
    counted positive.
    """
    w0, w1 = minus(V[0, 0], c), minus(V[1, 1], c)
    t00, t11 = S[0, 0] + c * w0, S[1, 1] + c * w1
    t01, t10 = S[0, 1] + c * V[0, 1], S[1, 0] + c * V[1, 0]
    u0, u1 = minus(w0, c), minus(w1, c)
    q = np.ones((5, len(c)), dtype=np.result_type(S, c))
    q[3] = minus(0.0, u0 + u1)
    q[2] = minus(minus(u0 * u1, V[0, 1] * V[1, 0]), t00 + t11)
    q[1] = minus(minus(u0 * t11 + u1 * t00, V[0, 1] * t10), V[1, 0] * t01)
    q[0] = minus(t00 * t11, t01 * t10)
    return q


def _routh_below(A, c):
    """Whether every eigenvalue of A[i] has real part below c[i], certified.

    A[i] = [[0, I], [S, V]] has characteristic polynomial
    p(lambda) = det(lambda^2 I - lambda V - S).  Its roots lie left of c
    exactly when q(mu) = p(mu + c) is Hurwitz, and, as conjugation keeps
    real parts, exactly when the real degree-8 polynomial r = q q-bar is
    (q-bar has the conjugate coefficients; Bilharz 1944, Frank 1946).
    Routh's test decides r: its roots all have Re < 0 iff every
    first-column entry of its Routh array is positive.

    True is a proof, up to an error bound carried through every stage
    (u = 2^-53; Higham, Accuracy and Stability of Numerical Algorithms,
    sections 3.1 and 3.6):
    - Each coefficient of q is at most 9 roundings deep in
      _shifted_quartic (a product counts the roundings of both factors),
      each of relative error at most 3u (a complex product's is
      sqrt(2) gamma_2), so it is off by at most
      ((1 + 3u)^9 - 1) qbar_t <= e_t = 32u qbar_t, with qbar_t the same
      lines evaluated on moduli.
    - r_t = sum over i + j = t of Re(q_i conj q_j).  With m = |fl(q)|, the
      computed r_t is off by at most sum (2 m_i + e_i) e_j from q's error
      and 8u sum m_i m_j from its own products and five-term sums.
    - Each Routh row is a' - t b' with t = a_0 / b_0.  With bounds on a and
      b, and b_0 above its bound, t is off by at most
      (e(a_0) + |t| e(b_0)) / (b_0 - e(b_0)) + u |t|, and each new entry by
      e(a') + |t| e(b') + e(t) (|b'| + e(b')) + 2u (|a'| + |t| |b'|).
    A pivot counts as positive only above twice its bound.  The factor 2
    covers the terms of relative size u that the bounds leave out and the
    rounding of the bounds' own arithmetic, which adds and multiplies
    nonnegative numbers.  A non-finite entry or bound, or a pivot not above
    twice its bound, gives False, and the caller solves the mode.
    """
    k = len(c)
    M = A[:, 2:].transpose(1, 2, 0)
    S, V = M[:, :2], M[:, 2:]
    with np.errstate(all="ignore"):
        q = _shifted_quartic(S, V, c, np.subtract)
        err = _QUARTIC_ERR * _shifted_quartic(np.abs(S), np.abs(V), np.abs(c), np.add)
        err[4] = 0.0  # the leading 1 is exact
        # r_t = sum over i of qr_i qr_(t-i) + qi_i qi_(t-i), and its bound
        # er_t = sum over i of (2 m_i + e_i) e_(t-i) + 8u m_i m_(t-i)
        qr, qi, mod = q.real, q.imag, np.abs(q)
        lead, scaled = 2.0 * mod + err, _PRODUCT_ERR * mod
        r, er = np.zeros((2, 9, k))
        for i in range(5):
            r[i : i + 5] += qr[i] * qr + qi[i] * qi
            er[i : i + 5] += lead[i] * err + scaled[i] * mod
        del q, err, qr, qi, mod, lead, scaled  # keep a block's peak memory down
        ok = np.isfinite(c) & np.isfinite(er).all(axis=0)
        # Routh rows and their bounds, zero padded to width 5:
        # [r8 r6 r4 r2 r0], [r7 r5 r3 r1 0], then row i + 2 from rows i and i + 1
        a, ea = r[8::-2], er[8::-2]
        b, eb = np.zeros((2, 5, k))
        b[:4], eb[:4] = r[7::-2], er[7::-2]
        for i in range(7):
            w = (8 - i) // 2  # the entries of row i + 2
            ok &= b[0] > 2.0 * eb[0]
            t = a[0] / b[0]
            at = np.abs(t)
            et = (ea[0] + at * eb[0]) / (b[0] - eb[0]) + _U * at
            a1, b1, eb1 = a[1 : w + 1], b[1 : w + 1], eb[1 : w + 1]
            mb1 = np.abs(b1)
            new, enew = np.zeros((2, 5, k))
            new[:w] = a1 - t * b1
            enew[:w] = (
                ea[1 : w + 1] + at * (eb1 + 2.0 * _U * mb1) + et * (mb1 + eb1)
                + 2.0 * _U * np.abs(a1)
            )
            a, ea, b, eb = b, eb, new, enew
        return ok & (b[0] > 2.0 * eb[0])


def _top_real(A):
    """Largest eigenvalue real part of each matrix in the stack: the one
    _sorted_eigs puts first."""
    return np.linalg.eigvals(A).real.max(axis=1)


def _worst_modes(model, a, b, n, m_max, alpha=1.0, gamma=1.0, speed=0.0):
    """[(m, max_real, verdict)] over modes 2..m_max for each cell of a block.

    The one route of region scans and the separatrix: a, b are the
    block's arrays (or one cell's numbers) at one speed, and the block
    takes every stage at once, laid out [mode, cell].  Each matrix is
    solved on its own and every other operation acts per element, so a
    cell gives the same bytes in any block.  No SpectralReport is built.
    The flock and the mill at speed 0 rank modes by the largest shape
    eigenvalue mu1 with no eigensolve; flock-cs and the spinning mill rank
    them by the largest 4x4 real part.  The verdict is the worst band, and
    ties go to the lowest mode.

    The 4x4 route eigensolves only the modes it must.  It solves a sample
    (modes 2, 3, m_max and every 25th), whose largest real part is best.
    Every other mode m gets c_m = min(best, edge) - tol_m, where tol_m is
    the mode's band tolerance and edge is the upper end of the sample's
    worst band (-tol_m stable, +tol_m marginal, +inf unstable; +inf for
    flock-cs, whose bands are the shape bands of every mode).  A mode
    whose roots _routh_below certifies left of c_m is skipped; the rest
    are solved.  A skipped mode's exact roots lie more than tol_m below
    best and below its band edge, and eigvals' own error is far smaller
    than tol_m: at most 2.1e-15 max(1, |A|) against 40-digit roots on
    1,960 modes of the n = 1000, speed 0.5 mill grid.  So a skipped mode
    would have ranked strictly below best, never tying, in no worse band:
    mode, max_real and verdict are those of solving every mode, bit for
    bit.
    """
    ms = np.arange(2, m_max + 1)
    if model == "flock" or (model == "mill" and speed == 0.0):
        _, i1p, i1m, i2 = _ring_couplings(a, b, n, 0.0, ms)
        top, bands = _shape_severity(ms, n, i1p, i1m, i2)
    else:
        A, tol, shape_bands = _mode_stack(model, a, b, n, ms, alpha, gamma, speed)
        sample = np.zeros(tol.shape, dtype=bool)
        sample[::25] = sample[:2] = sample[-1] = True
        top = np.full(tol.shape, -np.inf)  # skipped modes stay at -inf, band 0
        top[sample] = _top_real(A[sample])
        if shape_bands is None:
            edge = np.choose(_severity(top, tol).max(axis=0), (-tol, tol, np.inf))
        else:
            edge = np.inf
        c = np.minimum(top.max(axis=0), edge) - tol
        rest = ~sample
        A = A[rest]  # the full stack is freed before the certificate's arrays
        certified = _routh_below(A, c[rest])
        rest[rest] = ~certified
        top[rest] = _top_real(A[~certified])
        bands = _severity(top, tol) if shape_bands is None else shape_bands
    worst = top.argmax(axis=0)
    found = np.take_along_axis(top, worst[None], axis=0)[0]
    return [
        (int(ms[w]), float(x), _VERDICTS[v])
        for w, x, v in zip(*np.atleast_1d(worst, found, bands.max(axis=0)))
    ]


def _worst_mode(model, a, b, n, m_max, alpha=1.0, gamma=1.0, speed=0.0):
    """(m, max_real, verdict) of one cell: _worst_modes on a block of one."""
    return _worst_modes(model, a, b, n, m_max, alpha, gamma, speed)[0]


def mode_envelope(
    model, a, b, n, *, alpha=1.0, gamma=1.0, speed=0.0, m_min=2, m_max=None
):
    """Sorted 4x4 eigenvalues and verdict of every mode in [m_min, m_max].

    Returns (summary, reports); ``summary`` is the report with the largest
    real part, carrying the aggregate verdict (stable only if every mode
    is; unstable if any is).  The bands are _mode_stack's, the ones the
    scans' _worst_modes takes; only this function builds reports, and it
    solves every mode, since it prints every mode.  Mode
    n - m mirrors mode m, so the default m_max = (n-1)//2 leaves out only
    the self-conjugate mode n/2 of an even ring.  m_min = 1 takes in the
    translation mode, whose structural zero the cosine tables give exactly.
    """
    if model not in _ENVELOPE_MODELS:
        raise ValueError(f"model must be one of {_ENVELOPE_MODELS}")
    if m_max is None:
        m_max = (n - 1) // 2
    if not 1 <= m_min <= m_max:
        raise ValueError("need 1 <= m_min <= m_max")
    ms = np.arange(m_min, m_max + 1)
    A, tol, severity = _mode_stack(model, a, b, n, ms, alpha, gamma, speed)
    vals = _sorted_eigs(np.linalg.eigvals(A))
    max_re = vals[:, 0].real
    if severity is None:
        severity = _severity(max_re, tol)
    reports = [
        SpectralReport(
            m=int(m), eigenvalues=tuple(row), max_real=float(mr), classification=_VERDICTS[band]
        )
        for m, row, mr, band in zip(ms, vals, max_re, severity)
    ]
    worst = reports[int(np.argmax(max_re))]
    return replace(worst, classification=_VERDICTS[severity.max()]), reports


def det_asymptotics(a, b, n, m_values):
    """det(shape matrix) over the modes plus the log-log decay slope.

    Returns (table, slope) with table rows (m, det).  The determinant
    decays like a power of m with exponent 1-b for b in (1,2), so there
    is no spectral gap at large mode numbers.
    """
    ms = np.asarray(sorted(int(m) for m in m_values))
    if np.any(ms < 2) or np.any(ms > n - 2):
        raise ValueError("modes must lie in [2, n-2]")
    _, i1p, i1m, i2 = _ring_couplings(a, b, n, 0.0, ms)
    dets = i1p * i1m - i2 * i2
    slope = float(np.polyfit(np.log(ms), np.log(np.abs(dets)), 1)[0])
    return [(int(m), float(d)) for m, d in zip(ms, dets)], slope


# ---------------------------------------------------------------------------
# full-system oracle
# ---------------------------------------------------------------------------


def full_hessian(potential, positions):
    """2N x 2N interaction Hessian at the given configuration.

    Block (j,l), j != l, is hess(k)(x_j - x_l)/N where hess(k) is the
    second derivative of the radial pair potential; diagonal blocks are
    minus the row sums, so rigid translations are in the kernel exactly
    and the matrix is symmetric by construction.
    """
    if not isinstance(potential, (PowerLaw, Morse)):
        raise TypeError("potential must be PowerLaw or Morse")
    x = np.asarray(positions, dtype=float)
    n = x.shape[0]
    H = np.zeros((2 * n, 2 * n))
    for j in range(n):
        for l in range(n):
            if l == j:
                continue
            dx = x[j] - x[l]
            r = float(np.hypot(dx[0], dx[1]))
            rhat = dx / r
            kd = float(potential.deriv(r))
            kdd = float(potential.second_deriv(r))
            block = kdd * np.outer(rhat, rhat) + (kd / r) * (
                np.eye(2) - np.outer(rhat, rhat)
            )
            block /= n
            H[2 * j : 2 * j + 2, 2 * l : 2 * l + 2] = block
            H[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] -= block
    return H


def full_flock_jacobian(hessian, prop, direction=(1.0, 0.0)):
    """4N x 4N Jacobian [[0, Id], [hessian, -2 beta u0 u0^T]] of the flock.

    The drift direction is rotated to the first axis by default; the
    per-particle damping block is -2 alpha e e^T with e the unit drift
    direction (beta |u0|^2 = alpha).
    """
    H = np.asarray(hessian, dtype=float)
    two_n = H.shape[0]
    e = np.asarray(direction, dtype=float)
    e = e / np.linalg.norm(e)
    damp = -2.0 * prop.alpha * np.outer(e, e)
    L = np.zeros((2 * two_n, 2 * two_n))
    L[:two_n, two_n:] = np.eye(two_n)
    L[two_n:, :two_n] = H
    for j in range(two_n // 2):
        L[two_n + 2 * j : two_n + 2 * j + 2, two_n + 2 * j : two_n + 2 * j + 2] = damp
    return L


def full_cs_jacobian(hessian, kernel, positions):
    """4N x 4N Jacobian [[0, Id], [hessian, -G]] of the alignment flock.

    (G v)_j = (1/N) sum_l g(|x_j - x_l|)(v_j - v_l); G is positive
    semi-definite with kernel spanned by the two rigid translations.
    """
    H = np.asarray(hessian, dtype=float)
    x = np.asarray(positions, dtype=float)
    n = x.shape[0]
    if H.shape[0] != 2 * n:
        raise ValueError("hessian size does not match positions")
    G = np.zeros((2 * n, 2 * n))
    for j in range(n):
        for l in range(n):
            if l == j:
                continue
            g = float(kernel.value(float(np.hypot(*(x[j] - x[l]))))) / n
            G[2 * j, 2 * l] -= g
            G[2 * j + 1, 2 * l + 1] -= g
            G[2 * j, 2 * j] += g
            G[2 * j + 1, 2 * j + 1] += g
    L = np.zeros((4 * n, 4 * n))
    L[: 2 * n, 2 * n :] = np.eye(2 * n)
    L[2 * n :, : 2 * n] = H
    L[2 * n :, 2 * n :] = -G
    return L


def dense_eigvals(matrix):
    """Eigenvalues of a real matrix up to 128 x 128.

    Symmetric inputs (to 1e-12 relative) take the symmetric path and
    return real eigenvalues sorted descending; general inputs return
    complex eigenvalues sorted by descending real part.  Same residual
    contract as eig4.
    """
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("dense_eigvals expects a square matrix")
    if A.shape[0] > 128:
        raise ValueError("dense_eigvals is capped at 128 x 128")
    scale = max(1.0, float(np.max(np.abs(A))))
    symmetric = np.max(np.abs(A - A.T)) <= 1e-12 * scale
    return _sorted_eigs(np.linalg.eigvalsh(A) if symmetric else np.linalg.eigvals(A))


def theorem_witness(a, b, n, coupling):
    """Check reduced-vs-full stability agreement at one small-N ring.

    Builds the flock ring, its interaction Hessian, and the full Jacobian
    for the given coupling (Propulsion or AlignmentKernel).  ``agree``
    states that the Hessian has a positive eigenvalue exactly when the
    Jacobian has an eigenvalue with positive real part, with tolerance
    bands wide enough to absorb the structural zero modes (translations and
    rotation, whose defective zeros split by roughly sqrt(eps) under
    finite-precision eigensolvers; hence the wider 1e-6 band on L).
    """
    if n > 32:
        raise ValueError("theorem_witness is a small-N oracle; use n <= 32")
    pot = PowerLaw(a, b)
    sol = solve_radius(RadiusProblem(potential=pot, n=n, speed=0.0))
    x = ring_positions(sol)
    H = full_hessian(pot, x)
    if isinstance(coupling, Propulsion):
        L = full_flock_jacobian(H, coupling)
    elif isinstance(coupling, AlignmentKernel):
        L = full_cs_jacobian(H, coupling, x)
    else:
        raise TypeError("coupling must be Propulsion or AlignmentKernel")
    mu = dense_eigvals(H)
    mu1 = float(mu[0])
    lam = np.linalg.eigvals(L)
    max_re = float(np.max(lam.real))
    tol_mu = 1e-8 * max(1.0, float(np.max(np.abs(H))))
    tol_l = 1e-6 * max(1.0, float(np.max(np.abs(L))))
    return {
        "mu1": mu1,
        "max_re_L": max_re,
        "agree": (mu1 > tol_mu) == (max_re > tol_l),
        "tol_mu": tol_mu,
        "tol_L": tol_l,
    }
