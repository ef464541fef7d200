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
one rfft per weight vector over the block's rows, blocks for every mode,
assembly only for the modes solved: one eigensolve of the sampled modes,
one certificate call over the blocks and one eigensolve of the modes left
open; only the radius solves and weight rows are per cell.  A lone cell
is a block of one.  For flock-cs and the spinning mill it eigensolves a
sample of modes and then only the modes that a Routh-Hurwitz certificate
with a rigorous rounding-error bound (_routh_below) cannot place strictly
below the sample's worst mode and band; each cell's output is that of
solving every mode alone, bit for bit.  That route writes its mode-sized
arrays (S, the certificate's rows, the masks and the top rows) into
rings._scratch buffers, so inside a rings._workspace (a scan opens one per
thread) a block of a size seen before makes them no more.  mode_envelope
solves every mode, since it prints every mode.

The builders flock_mode_matrix, cs_flock_mode_matrix and mill_mode_matrix
are the one public way into the reference route, _row_couplings: one mode
from one particle's Cartesian pair blocks (_pair_blocks) applied to the
mode's displacements, sharing no code with the rfft tables.  Each coupling
is an entry of the built matrix e: I1(m) = e[2, 0], I2(m) = e[2, 1],
I1(-m) = e[3, 1] (so the shape matrix is e[2:, :2], bare but for a
spinning mill), and for flock-cs J+(m) = e[2, 2], J-(m) = e[3, 3].

For cross-validation at small N the module also assembles the full
2N x 2N interaction Hessian from the same pair blocks, and the 4N x 4N
Jacobians, whose spectra must agree in sign with the reduced criterion
(theorem_witness).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .potentials import AlignmentKernel, Morse, PowerLaw, Propulsion, _number
from .rings import (RadiusProblem, _pair_rows, _rfft_rows, _scratch, _sines, ring_positions,
                    solve_radius)

__all__ = [
    "Classification",
    "ModeMatrix",
    "SpectralReport",
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


# ---------------------------------------------------------------------------
# fast all-modes route: cosine transforms of the weight vectors
# ---------------------------------------------------------------------------


def _fold(k, n):
    """Map any integer phase index onto the rfft bin range [0, n//2]."""
    k = np.asarray(k) % n
    return np.minimum(k, n - k)


def _chords(R, n, out=None):
    """Chord lengths 2R sin(p pi / n), p = 1..n-1, from the radius solve's
    libm sine table (read, never written), into ``out`` when given."""
    return np.multiply(2.0 * R, np.frombuffer(_sines(n))[1:], out=out)


def _weight_vectors(a, b, radius, n, w=None):
    # w1 = (-a d^(a-2) + b d^(b-2)) / 2n, w2 = (-(a-2) d^(a-2) + (b-2) d^(b-2)) / 2n,
    # zero at p = 0, built in place in that operation order into the (2, n)
    # rows ``w`` (scratch rows when None).  d and d^(a-2) take the first
    # n - 1 entries of the two _pair_rows; d^(a-2) raises a copy of d in
    # place, as d^(b-2) raises d, so both take ``**``'s shortcut exponents.
    # The chords are libm sines, but ``**`` (np.power) follows the numpy
    # build, unlike the radius moments' libm pow through np.float_power.
    d, da = _pair_rows(n)[:, : n - 1]
    _chords(radius, n, out=d)
    np.copyto(da, d)
    da **= a - 2.0
    d **= b - 2.0
    w = _scratch((2, n)) if w is None else w
    w[:, 0] = 0.0
    w1, w2 = w[0, 1:], w[1, 1:]
    np.multiply(-a, da, out=w1)
    np.multiply(-(a - 2.0), da, out=w2)
    for row, coef in ((w1, b), (w2, b - 2.0)):
        row += np.multiply(coef, d, out=da)
        row /= 2.0 * n
    return w[0], w[1]


def _ring_couplings(a, b, n, speed, ms):
    """Ring radius R and the couplings I1(m), I1(-m), I2(m) for modes ``ms``.

    a, b and speed are one cell's numbers, or a block's arrays: then R has
    one entry per cell and each coupling is laid out [mode, cell].  Each
    cell solves its radius and builds its weight rows; one rfft over the
    w1 rows and one over the w2 rows (the bytes of one rfft per row) give
    the cosine sums c[k] = sum_p w_p cos(2 pi p k / n); then
    I1(m) = c1[0] - c1[fold(m+1)] and I2(m) = c2[fold(m)] - c2[1].  Agrees
    with the pair-block reference route to roundoff (tested).  The weight rows
    are a rings._scratch buffer; the w2 transform writes over the w1
    transform's rows (_rfft_rows) once I1(+-m) are read from them.  R and
    the couplings are new arrays.
    """
    a, b, speed = np.broadcast_arrays(a, b, speed)
    R = np.empty(a.shape)
    w = _scratch((2,) + a.shape + (n,))
    rows = np.moveaxis(w, 0, -2)  # each cell's (2, n) weight rows
    for i in np.ndindex(a.shape):
        cell = float(a[i]), float(b[i])
        problem = RadiusProblem(potential=PowerLaw(*cell), n=n, speed=float(speed[i]))
        R[i] = solve_radius(problem).radius
        _weight_vectors(*cell, R[i], n, rows[i])
    R = R[()]
    c = _rfft_rows(n, a.shape)
    ck = np.fft.rfft(w[0], out=c).real.T  # c1, then (a view of c) c2
    i1_plus = ck[0] - ck[_fold(ms + 1, n)]
    i1_minus = ck[0] - ck[_fold(ms - 1, n)]
    np.fft.rfft(w[1], out=c)
    i2 = ck[_fold(ms, n)] - ck[1]
    return R, i1_plus, i1_minus, i2


def _blocks(model, i1p, i1m, i2, alpha=1.0, jp=0.0, jm=0.0, omega=0.0):
    """Shape and velocity blocks S, V of rows 3-4 of the mode matrices, from
    coupling arrays (...).

    S is the shape block [[I1(m), I2(m)], [I2(m), I1(-m)]] and V the
    velocity block: flock [[-alpha, -alpha], [-alpha, -alpha]], flock-cs
    diag(J+(m), J-(m)), mill [[-alpha, alpha], [alpha, -alpha]].  At
    omega != 0 the mill blocks are complex: the rotating frame adds
    omega^2 to the shape diagonal, -+ i omega alpha to shape rows 1/2 and
    -+ 2 i omega to the velocity diagonal.  A block's omega has one entry
    per cell, broadcasting against the couplings' last (cell) axis.  S is
    a (2, 2, ...) rings._scratch buffer; only flock-cs's V depends on m,
    S's twin in one (2, 2, 2, ...) buffer, and any other is a new (2, 2) +
    omega's shape array with no mode axis.
    """
    if model != "flock-cs":
        alpha = _number("alpha", alpha, gt=0)
    i1p, i1m, i2 = np.atleast_1d(i1p, i1m, i2)
    spinning = model == "mill" and np.any(omega != 0.0)
    dtype = complex if spinning else float
    S, V = _scratch((2, 2, 2) + i1p.shape) if model == "flock-cs" else (
        _scratch((2, 2) + i1p.shape, dtype), np.empty((2, 2) + np.shape(omega), dtype))
    S[0, 0] = i1p
    S[0, 1] = S[1, 0] = i2
    S[1, 1] = i1m
    if model == "flock":
        V[...] = -alpha
    elif model == "flock-cs":
        V[0, 0], V[0, 1], V[1, 0], V[1, 1] = jp, 0.0, 0.0, jm
    elif model == "mill":
        V[0, 0] = V[1, 1] = -alpha
        V[0, 1] = V[1, 0] = alpha
        if spinning:  # in place: S's entries are the couplings cast to complex
            w = omega
            S[0, 0] += -1j * w * alpha + w * w
            S[0, 1] += -1j * w * alpha
            S[1, 0] += 1j * w * alpha
            S[1, 1] += 1j * w * alpha + w * w
            V[0, 0] = -alpha - 2j * w
            V[1, 1] = -alpha + 2j * w
    else:
        raise ValueError(f"unknown model {model!r}")
    return S, V


def _assemble(S, V, solve=None):
    """Mode matrices [[0, I], [S, V]] of blocks S (2, 2, ...) and V, whose
    trailing dims broadcast against S's (a per-cell V has no mode axis): a
    (..., 4, 4) stack, or (k, 4, 4) of the k modes where the mask ``solve``
    is True.  Rows 1-2 are [0 0 1 0], [0 0 0 1]."""
    S, V = (np.moveaxis(X, (0, 1), (-2, -1)) for X in (S, V))
    V = np.broadcast_to(V, S.shape)
    if solve is not None:
        S, V = S[solve], V[solve]
    A = np.zeros(S.shape[:-2] + (4, 4), dtype=np.result_type(S, V))
    A[..., 0, 2] = A[..., 1, 3] = 1.0
    A[..., 2:, :2] = S
    A[..., 2:, 2:] = V
    return A


def _pair_blocks(potential, dx, n):
    """Pair Hessian blocks (k''(r) rr^T + (k'(r)/r)(I - rr^T)) / n, (..., 2, 2),
    of the offsets dx (..., 2), with r = |dx| and rr^T the outer product of
    dx / r.  The block of x_j - x_l is the derivative of particle j's pair
    acceleration in x_l: block (j, l) of the interaction Hessian."""
    r = np.hypot(dx[..., 0], dx[..., 1])
    rhat = dx / r[..., None]
    rr = rhat[..., :, None] * rhat[..., None, :]
    kd, kdd = potential.deriv(r), potential.second_deriv(r)
    block = kdd[..., None, None] * rr + (kd / r)[..., None, None] * (np.eye(2) - rr)
    block /= n
    return block


def _alignment_blocks(kernel, dx, n):
    """Alignment blocks g(|dx|) I / n, (..., 2, 2), of the offsets dx (..., 2):
    the derivative of one particle's alignment acceleration in the other's
    velocity."""
    return (kernel.value(np.hypot(dx[..., 0], dx[..., 1])) / n)[..., None, None] * np.eye(2)


def _mode_response(blocks, k):
    """(A, B) of the response h(c) = sum_l B_l (u_l - u_n) = A c + B conj(c),
    as complex numbers, of one particle with blocks B_1..B_(n-1) (n - 1, 2, 2)
    to the input u_l = c e^(2 pi i (k l mod n) / n): A = (h(1) - i h(i)) / 2,
    B = (h(1) + i h(i)) / 2.  With k l mod n in integers, k = 0 mod n is an
    exact translation, and its A and B exact zeros.  A and B are real: an
    imaginary part above 1e-10 of the blocks' summed moduli is an
    ArithmeticError."""
    n = len(blocks) + 1
    d = np.exp(2j * np.pi * (k * np.arange(1, n) % n) / n) - 1.0  # u_l - u_n at c = 1
    inputs = np.array([[d.real, d.imag], [-d.imag, d.real]])  # c = 1, c = i
    h1, hi = np.einsum("lij,cjl->ci", blocks, inputs) @ (1, 1j)
    readings = (h1 - 1j * hi) / 2.0, (h1 + 1j * hi) / 2.0
    scale = float(np.abs(blocks).sum())
    for h in readings:
        if not abs(h.imag) <= 1e-10 * scale:
            raise ArithmeticError(f"phase {k}: imaginary part {h.imag:.3e} not "
                                  f"negligible against blocks {scale:.3e}")
    return tuple(float(h.real) for h in readings)


def _row_couplings(potential, ring, m, kernel=None):
    """[I1(m), I1(-m), I2(m)], then J+(m), J-(m) with a kernel: the reference
    route, one mode from the Cartesian blocks of one particle of the ring.

    The particle is the last of ring_positions, at angle 2 pi, so its
    (radial, tangential) frame is the lab frame.  Mode m moves particle l by
    e^(i theta_l) (xi+ e^(i m theta_l) + xi- e^(-i m theta_l)): xi+ is the
    input of phase k = 1 + m, xi- that of k = 1 - m.  Through _pair_blocks
    the xi+ input reads A = I1(m), B = I2(m) and the xi- input A = I1(-m),
    B = I2(m); through _alignment_blocks their A are J+(m) and J-(m).  I2(m)
    is the xi- input's B unless the xi+ input is the translation
    (m = -1 mod n), so every coupling of the translation is an exact zero.
    No chord formula, sine table or rfft enters.
    """
    n = ring.n
    x = ring_positions(ring)
    dx = x[-1] - x[:-1]
    blocks = _pair_blocks(potential, dx, n)
    (i1p, i2p), (i1m, i2m) = (_mode_response(blocks, k) for k in (1 + m, 1 - m))
    couplings = [i1p, i1m, i2p if (1 + m) % n == 0 else i2m]
    if kernel is not None:
        blocks = _alignment_blocks(kernel, dx, n)
        couplings += [_mode_response(blocks, k)[0] for k in (1 + m, 1 - m)]
    return couplings


def _reference_ring(a, b, n, m, speed=0.0):
    """The checked mode m, the power law and its ring at ``speed``."""
    m = _number("m", m, integer=True)
    potential = PowerLaw(a, b)
    return m, potential, solve_radius(RadiusProblem(potential=potential, n=n, speed=speed))


def flock_mode_matrix(a, b, n, m, prop):
    """Mode matrix for the self-propelled flock ring.

    Rows 3-4: [I1(m), I2(m), -alpha, -alpha], [I2(m), I1(-m), -alpha,
    -alpha], with the couplings from the pair-block reference
    _row_couplings.  The velocity block is the rank-1 propulsion damping
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
    m, pot, ring = _reference_ring(a, b, n, m)
    al = prop.alpha
    entries = _assemble(*_blocks("flock", *_row_couplings(pot, ring, m), alpha=al))[0]
    return ModeMatrix(entries, "flock", {"a": a, "b": b, "n": n, "m": m, "radius": ring.radius,
                                         "alpha": al})


def cs_flock_mode_matrix(a, b, n, m, gamma):
    """Mode matrix for the flock ring with velocity-alignment coupling.

    Rows 3-4: [I1(m), I2(m), J+(m), 0], [I2(m), I1(-m), 0, J-(m)], all from
    _row_couplings; the velocity block is diagonal by construction.  With g
    the alignment kernel at the chords d_p,
    J+-(m) = (1/n) sum_p g(d_p) (cos(2 pi p (m +- 1) / n) - 1) <= 0.
    """
    kernel = gamma if isinstance(gamma, AlignmentKernel) else AlignmentKernel(gamma)
    m, pot, ring = _reference_ring(a, b, n, m)
    i1p, i1m, i2, jp, jm = _row_couplings(pot, ring, m, kernel)
    entries = _assemble(*_blocks("flock-cs", i1p, i1m, i2, jp=jp, jm=jm))[0]
    return ModeMatrix(entries, "flock-cs", {"a": a, "b": b, "n": n, "m": m,
                                            "radius": ring.radius, "gamma": kernel.gamma})


def mill_mode_matrix(a, b, n, m, alpha, speed):
    """Mode matrix for the rotating mill ring (counter-clockwise, omega > 0).

    Rows 3-4, with the couplings from _row_couplings and the rotating
    frame's terms from _blocks:
      [-i omega alpha + omega^2 + I1(m), -i omega alpha + I2(m), -alpha - 2 i omega, alpha]
      [ i omega alpha + I2(m),  i omega alpha + omega^2 + I1(-m), alpha, -alpha + 2 i omega]
    Real at speed 0, where the velocity block degenerates to
    [[-alpha, alpha], [alpha, -alpha]].
    """
    m, pot, ring = _reference_ring(a, b, n, m, speed)
    w = speed / ring.radius
    entries = _assemble(*_blocks("mill", *_row_couplings(pot, ring, m), alpha=alpha, omega=w))[0]
    return ModeMatrix(entries, "mill", {"a": a, "b": b, "n": n, "m": m, "radius": ring.radius,
                                        "alpha": alpha, "speed": speed, "omega": w})


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


def _shape_severity(ms, n, i1p, i1m, i2, banded=True):
    """Largest shape eigenvalue mu1 and severity band of each mode in
    ``ms``; the bands are None unless ``banded``.

    A ring at rest is stable in mode m exactly when its shape matrix is
    negative definite (det > 0, trace < 0: mu1 < 0); mu1 is banded at
    1e-8 max(1, |I1(m)|, |I1(-m)|, |I2(m)|).  Mode +-1 (mod n) holds the
    translation as a structural zero (I1(-1) = I2(1) = 0), so its mu1 is
    the other diagonal entry, the trace.  The self-conjugate mode needs no
    special case: its undamped 4x4 pair +- i sqrt(-(I1 - I2)) is stable
    exactly when the shape matrix is negative definite.
    """
    # mu1 = 0.5 (I1(m) + I1(-m)) + sqrt(half_diff^2 + I2(m)^2), in place
    root = np.subtract(i1p, i1m)
    root *= 0.5
    root *= root
    mu1 = np.multiply(i2, i2)
    root += mu1
    np.add(i1p, i1m, out=mu1)
    mu1 *= 0.5
    mu1 += np.sqrt(root, out=root)
    k = np.asarray(ms) % n
    translation = np.flatnonzero((k == 1) | (k == n - 1))  # rows of mu1
    mu1[translation] = i1p[translation] + i1m[translation]
    if not banded:
        return mu1, None
    norms = np.maximum(1.0, np.maximum(np.abs(i1p), np.maximum(np.abs(i1m), np.abs(i2))))
    return mu1, _severity(mu1, 1e-8 * norms)


def _alignment_tables(gamma, R, n, ms):
    """J+(m), J-(m) for modes ``ms`` from one cosine transform of g(d_p),
    laid out [mode, cell] for a block's radii R.  g(d_p) and its transform
    take the weight and rfft rows of _ring_couplings, which are done with
    them by then, and J+- are the rows of a rings._scratch (2, modes, ...)."""
    R = np.asarray(R)
    gv = _scratch((2,) + R.shape + (n,))[0]
    gv[..., 0] = 0.0
    AlignmentKernel(gamma).value(_chords(R[..., None], n, out=gv[..., 1:]), out=gv[..., 1:])
    gc = np.moveaxis(np.fft.rfft(gv, out=_rfft_rows(n, R.shape)).real, -1, 0)
    gc /= n
    jp, jm = _scratch((2,) + ms.shape + R.shape)
    for j, k in ((jp, ms + 1), (jm, ms - 1)):
        np.take(gc, _fold(k, n), axis=0, out=j)
        j -= gc[0]
    return jp, jm


_ENVELOPE_MODELS = ("flock", "flock-cs", "mill")


def _mode_stack(model, a, b, n, ms, alpha, gamma, speed):
    """Blocks S (2, 2, k) and V of modes ``ms`` (_blocks'), their
    tolerances, shape bands and largest shape eigenvalues mu1.

    For a block (arrays a and b at one speed) the modes lead and the cells
    follow: S is (2, 2, k, B), V (2, 2, k, B) for flock-cs and else
    (2, 2, B), the rest (k, B).  The tolerance of mode m is 1e-8 max(1,
    |A_m|), classify's rule, taken over S and V, the rows 3-4 of A_m =
    [[0, I], [S, V]]: rows 1-2 hold only 0 and 1.  Rings at rest take their
    bands from _shape_severity; the spinning mill gets None and bands its
    largest real parts at the tolerance.  mu1 is the shape block's at rest,
    without the rotating frame's terms.  The rest are new arrays.
    """
    speed = speed if model == "mill" else 0.0
    R, i1p, i1m, i2 = _ring_couplings(a, b, n, speed, ms)
    jp, jm = _alignment_tables(gamma, R, n, ms) if model == "flock-cs" else (0.0, 0.0)
    S, V = _blocks(model, i1p, i1m, i2, alpha=alpha, jp=jp, jm=jm, omega=speed / R)
    mu1, bands = _shape_severity(ms, n, i1p, i1m, i2, banded=speed == 0.0)
    del i1p, i1m, i2  # done with: free their memory before tol's
    tol = np.abs(S[0, 0])  # the largest entry modulus, one entry at a time
    for x in (S[0, 1], S[1, 0], S[1, 1], V[0, 0], V[0, 1], V[1, 0], V[1, 1]):
        np.maximum(tol, np.abs(x), out=tol)
    np.maximum(1.0, tol, out=tol)
    tol *= 1e-8
    return S, V, tol, bands, mu1


# unit roundoff of float64, and the relative error bound of the shifted
# quartic's coefficients (see _routh_below)
_U = 2.0**-53
_QUARTIC_ERR = 32 * _U


def _shifted_quartic(S, V, c, minus, q, tmp):
    """Coefficients, constant first, of det(mu^2 I - mu V' - S'), written
    into the rows q (5,) + c.shape; the six rows ``tmp`` hold the terms.

    S and V are (2, 2, ...) blocks whose trailing dims broadcast against
    c's; V' = V - 2cI and S' = S + cV - c^2 I, so the quartic is the
    characteristic polynomial p(lambda) = det(lambda^2 I - lambda V - S)
    of [[0, I], [S, V]] at lambda = mu + c.  With moduli for S, V and c
    and np.add for ``minus`` the same lines give each coefficient's
    magnitude bound, every term counted positive.
    """
    w0, w1, t00, t11, t01, t10 = tmp
    minus(V[0, 0], c, out=w0)
    minus(V[1, 1], c, out=w1)
    for t, s, v in ((t00, S[0, 0], w0), (t11, S[1, 1], w1), (t01, S[0, 1], V[0, 1]),
                    (t10, S[1, 0], V[1, 0])):
        np.add(s, np.multiply(c, v, out=t), out=t)  # s + c v
    u0, u1 = minus(w0, c, out=w0), minus(w1, c, out=w1)
    p = q[0]  # q0 comes last, so its row holds the products until then
    q[4] = 1.0
    minus(0.0, np.add(u0, u1, out=q[3]), out=q[3])
    # q2 = (u0 u1 - V01 V10) - (t00 + t11), V01 V10 formed at V's size
    np.copyto(p, V[0, 1] * V[1, 0])
    minus(np.multiply(u0, u1, out=q[2]), p, out=q[2])
    minus(q[2], np.add(t00, t11, out=p), out=q[2])
    # q1 = ((u0 t11 + u1 t00) - V01 t10) - V10 t01
    np.add(np.multiply(u0, t11, out=q[1]), np.multiply(u1, t00, out=p), out=q[1])
    minus(q[1], np.multiply(V[0, 1], t10, out=p), out=q[1])
    minus(q[1], np.multiply(V[1, 0], t01, out=p), out=q[1])
    # q0 = t00 t11 - t01 t10, with u0's row for the product
    minus(np.multiply(t00, t11, out=q[0]), np.multiply(t01, t10, out=u0), out=q[0])
    return q


def _routh_below(S, V, c):
    """Whether every eigenvalue of A_i = [[0, I], [S_i, V_i]] has real part
    below c[i], certified; S and V are (2, 2, ...) blocks whose trailing
    dims broadcast against c's (a per-cell V has no mode axis).

    The roots of p(lambda) = det(lambda^2 I - lambda V - S), A_i's
    characteristic polynomial, lie left of c iff the monic quartic
    q(mu) = p(mu + c) is Hurwitz.  Routh's test runs on q itself (Bilharz
    1944, Frank 1946).  With f(w) = q(i w) = P(w) + i Q(w), P and Q real,
    highest power first P = [1, Im q3, -Re q2, -Im q1, Re q0] and
    -Q = [Re q3, Im q2, -Re q1, -Im q0].  q is Hurwitz iff the chain
    F0 = P, F1 = -Q, F(j+1) = -rem(F(j-1), F(j)) has positive pivots, the
    coefficients of w^3, w^2, w and 1 in F1..F4:
    - q is Hurwitz iff f's roots (q's turned by -i) lie in Im w > 0.  With
      no real root (a common root of P and Q), arg f rises by (4 - 2j) pi
      over the real line, j the roots in Im w < 0; as f ~ w^4 at both
      ends, that is pi times the Cauchy index of -Q/P = -tan(arg f).  So q
      is Hurwitz iff the index is 4; a common root leaves at most 3.
    - By Sturm's theorem (Gantmacher, The Theory of Matrices, vol. 2,
      XV.2-3) the index is V(-inf) - V(+inf), V counting sign changes
      along the chain: 4 iff the chain has five members, of degrees 4 to
      0, and V(+inf) = 0, every pivot having the sign of 1.
    Dividing A (degree d) by B takes two Routh steps against the pivot
    B[0]: A1 = A[1:] - (A[0] / B[0]) B[1:], B zero padded, and then
    R = -(A1[1:] - (A1[0] / B[0]) B[1:]).

    True is a proof, up to an error bound carried through every stage
    (u = 2^-53; Higham, Accuracy and Stability of Numerical Algorithms,
    sections 3.1 and 3.6):
    - Each coefficient of q is at most 9 roundings deep in
      _shifted_quartic (a product counts the roundings of both factors),
      each of relative error at most 3u (a complex product's is
      sqrt(2) gamma_2), so it is off by at most
      ((1 + 3u)^9 - 1) qbar_t <= e_t = 32u qbar_t, with qbar_t the same
      lines evaluated on moduli; so is each entry of P and -Q.
    - A Routh step a' - t b', t = a_0 / b_0, with a and b known to within
      e(a) and e(b) and b_0 > e(b_0), has t off by at most
      (e(a_0) + |t| e(b_0)) / (b_0 - e(b_0)) + u |t|, and each new entry
      by e(a') + |t| e(b') + e(t) (|b'| + e(b')) + 2u (|a'| + |t| |b'|).
    A pivot counts as positive only if finite and above twice its bound,
    so the exact pivot exceeds b_0 - e(b_0) > 0.  The factor 2 covers the
    terms of relative size u that the bounds leave out and the rounding
    of the bounds' own arithmetic, on nonnegative numbers.  A non-finite
    c or bound, or a pivot not counted positive, gives False, and the
    caller solves the mode.
    """
    shape = c.shape
    # 28 rows of c's shape in one rings._scratch buffer: the chain's A and B
    # rows and their bounds (X and EX six rows, Y and EY five, with room for
    # the zero pads), the step rows T and the rows |t| and b_0 - e(b_0); t
    # and e(t) overwrite A[0] and its bound, which no step reads again.
    # Before the chain, the moduli of S, V and c take rows 0-8 and the
    # bound's terms rows 22-27 while the bound goes into EX; then q takes
    # rows 16-20 and its terms rows 0-5 while P and -Q go into X and Y.  A
    # complex q takes rows 16-25, its terms rows 0-11 and c rows 26-27, two
    # to a complex row, leaving EX's bounds in rows 12-15.
    R = _scratch((28,) + shape)
    X, Y, EX, EY, T = R[0:6], R[6:11], R[11:17], R[17:22], R[22:26]
    at, low = R[26:28]
    ok, flag = _scratch((2, c.size), bool).reshape((2,) + shape)

    def complex_rows(rows):
        return rows.reshape(-1).view(complex).reshape((-1,) + shape)

    def pivot_ok(b0, eb0):  # ok &= (b0 > 2 e(b0)) & (b0 < inf)
        np.logical_and(ok, np.greater(b0, np.multiply(eb0, 2.0, out=low), out=flag), out=ok)
        np.logical_and(ok, np.less(b0, np.inf, out=flag), out=ok)

    with np.errstate(all="ignore"):
        # the bounds: EX = [0, e3, e2, e1, e0] (the leading 1 is exact),
        # later EY = [e3, e2, e1, e0, 0]
        aS, ac = R[0:4].reshape((2, 2) + shape), R[8]
        aV = R[4:8].reshape(-1)[: V.size].reshape(V.shape)
        np.abs(S, out=aS)
        np.abs(V, out=aV)
        np.abs(c, out=ac)
        _shifted_quartic(aS, aV, ac, np.add, EX[4::-1], R[22:28])
        EX[:5] *= _QUARTIC_ERR
        np.isfinite(c, out=ok)
        ok &= np.isfinite(EX[1:5].max(axis=0, out=low), out=flag)
        # f(w) = q(i w), highest power first: rows P = Re f into X and
        # -Q = -Im f, zero padded to width 5, into Y; both are sign flips
        # of q's parts
        if np.result_type(S, V, c).kind == "c":
            cz = complex_rows(R[26:28])[0]  # c cast once, not in every product
            np.copyto(cz, c)
            q = _shifted_quartic(S, V, cz, np.subtract, complex_rows(R[16:26]),
                                 complex_rows(R[0:12]))
            np.copyto(X[1], q[3].imag)
            np.negative(q[1].imag, out=X[3])
            np.copyto(Y[1], q[2].imag)
            np.negative(q[0].imag, out=Y[3])
        else:
            q = _shifted_quartic(S, V, c, np.subtract, R[16:21], R[0:6])
            X[1] = X[3] = Y[1] = Y[3] = 0.0
        X[0], Y[4], EX[0] = 1.0, 0.0, 0.0
        np.copyto(X[4], q[0].real)
        np.negative(q[2].real, out=X[2])
        np.copyto(Y[0], q[3].real)
        np.negative(q[1].real, out=Y[2])
        EY[:4], EY[4] = EX[1:5], 0.0
        (a, ea, oa), (b, eb, ob) = (X, EX, 0), (Y, EY, 0)
        for d in (4, 3, 2):  # divide A (degree d) by B, both of width d + 1
            B, EB = b[ob : ob + d + 1], eb[ob : ob + d + 1]
            pivot_ok(B[0], EB[0])
            np.subtract(B[0], EB[0], out=low)
            for w in (d, d - 1):  # A1 from A, then -R from A1, in place
                A, EA, tw = a[oa : oa + w + 1], ea[oa : oa + w + 1], T[:w]
                Bw, EBw = B[1 : w + 1], EB[1 : w + 1]
                t = np.divide(A[0], B[0], out=A[0])
                np.abs(t, out=at)
                et = np.add(EA[0], np.multiply(at, EB[0], out=tw[0]), out=EA[0])
                et /= low
                et += np.multiply(_U, at, out=tw[0])
                # e(A1) = e(A[1:]) + |t| slope + e(t) wide + 2u |A[1:]|, with
                # slope = e(Bw) + 2u |Bw| and wide = |Bw| + e(Bw)
                slope = np.add(EBw, np.multiply(np.abs(Bw, out=tw), 2.0 * _U, out=tw), out=tw)
                EA[1:] += np.multiply(at, slope, out=tw)
                wide = np.add(np.abs(Bw, out=tw), EBw, out=tw)
                EA[1:] += np.multiply(et, wide, out=tw)
                EA[1:] += np.multiply(np.abs(A[1:], out=tw), 2.0 * _U, out=tw)
                A[1:] -= np.multiply(t, Bw, out=tw)
                oa += 1
            # the remainder, negated and zero padded, is the next B; B less
            # its pad is the next A
            a[oa + d - 1] = ea[oa + d - 1] = 0.0
            np.negative(a[oa : oa + d - 1], out=a[oa : oa + d - 1])
            (a, ea, oa), (b, eb, ob) = (b, eb, ob), (a, ea, oa)
        pivot_ok(b[ob], eb[ob])
    return ok


# the upper edge of a band over its tolerance: -1, 1, inf (see _worst_modes)
_EDGES = np.array([-1.0, 1.0, np.inf])


def _mode_range(n, m_min, m_max):
    """n and the top mode m_max, default (n - 1)//2, of the modes m_min..m_max,
    checked before any mode array is made: n an integer >= 3 and m_max an
    integer in [m_min, n - 2], since modes n - 1 and n fold onto the
    translation and the uniform mode.  A bad one is a ValueError naming it."""
    n = _number("n", n, ge=3, integer=True)
    m_max = _number("m_max", (n - 1) // 2 if m_max is None else m_max, ge=m_min, integer=True)
    if m_max > n - 2:
        raise ValueError(f"need m_max <= n - 2, got m_max={m_max} for n={n}")
    return n, m_max


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
    (modes 2, 3, m_max and the cell's argmax of the shape eigenvalue mu1,
    which _mode_stack computes from the couplings it has in hand), whose
    largest real part is best.
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
    bit.  That holds for any sample that is not empty, so the sample sets
    only which modes are solved: a poor mu1 ranking costs time, never
    bytes.  On the n = 1000, speed 0.5 mill grid mu1's argmax finds the
    worst mode well enough that a cell solves 3.4 of its 498 modes.
    """
    ms = np.arange(2, m_max + 1)
    if model == "flock" or (model == "mill" and speed == 0.0):
        _, i1p, i1m, i2 = _ring_couplings(a, b, n, 0.0, ms)
        top, bands = _shape_severity(ms, n, i1p, i1m, i2)
        band = bands.max(axis=0)
    else:
        S, V, tol, shape_bands, mu1 = _mode_stack(model, a, b, n, ms, alpha, gamma, speed)
        if tol.ndim == 1:  # a lone cell: a block of one
            S, V, tol, mu1 = S[..., None], V[..., None], tol[:, None], mu1[:, None]
        # rings._scratch rows (modes, cells): the largest real parts and c,
        # then the solve mask
        top, c = _scratch((2,) + tol.shape)
        solve = _scratch(tol.shape, bool)
        solve.fill(False)
        solve[:2] = solve[-1] = True
        np.put_along_axis(solve, mu1.argmax(axis=0)[None], True, axis=0)
        top.fill(-np.inf)  # skipped modes stay at -inf, band 0
        top[solve] = _top_real(_assemble(S, V, solve))
        # c = min(best, edge) - tol, edge = tol times -1, 1 or inf by band
        edge = np.inf if shape_bands is not None else _EDGES[_severity(top, tol).max(axis=0)]
        np.minimum(top.max(axis=0), np.multiply(tol, edge, out=c), out=c)
        c -= tol
        # the certificate reads every mode's blocks in place, the sampled
        # ones too (their answers go unread): cheaper than a masked copy
        np.logical_not(np.logical_or(solve, _routh_below(S, V, c), out=solve), out=solve)
        top[solve] = _top_real(_assemble(S, V, solve))
        band = (_severity(top, tol) if shape_bands is None else shape_bands).max(axis=0)
    worst = top.argmax(axis=0)
    found = np.take_along_axis(top, worst[None], axis=0)[0]
    return [
        (int(ms[w]), float(x), _VERDICTS[v])
        for w, x, v in zip(*np.atleast_1d(worst, found, band))
    ]


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
    A non-integer n, m_min or m_max, m_min < 1, m_max < m_min, n < 3 or an
    m_max past n - 2 is a ValueError (see _mode_range).
    """
    if model not in _ENVELOPE_MODELS:
        raise ValueError(f"model must be one of {_ENVELOPE_MODELS}")
    m_min = _number("m_min", m_min, ge=1, integer=True)
    n, m_max = _mode_range(n, m_min, m_max)
    ms = np.arange(m_min, m_max + 1)
    S, V, tol, severity, _ = _mode_stack(model, a, b, n, ms, alpha, gamma, speed)
    vals = _sorted_eigs(np.linalg.eigvals(_assemble(S, V)))
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
    is no spectral gap at large mode numbers.  A mode that is not an
    integer (2.7, 3.0, True) or lies outside [2, n-2], an n that is not an
    integer >= 3, no mode at all or fewer than two distinct modes (a slope
    needs two points) is a ValueError.
    """
    ms = sorted(_number("m", m, ge=2, integer=True) for m in m_values)
    if not ms:
        raise ValueError("need at least one mode, got an empty m_values")
    if ms[0] == ms[-1]:
        raise ValueError(f"need two distinct modes for a slope, got only the modes {[ms[0]]}")
    n, _ = _mode_range(n, 2, ms[-1])
    ms = np.asarray(ms)
    _, i1p, i1m, i2 = _ring_couplings(a, b, n, 0.0, ms)
    dets = i1p * i1m - i2 * i2
    slope = float(np.polyfit(np.log(ms), np.log(np.abs(dets)), 1)[0])
    return [(int(m), float(d)) for m, d in zip(ms, dets)], slope


# ---------------------------------------------------------------------------
# full-system oracle
# ---------------------------------------------------------------------------


def _pair_matrix(x, block):
    """The 2N x 2N matrix of positions x (N, 2) whose block (j, l), j != l,
    is block(x_j - x_l), offsets (..., 2) to blocks (..., 2, 2), and whose
    diagonal blocks are minus their row's sum, so rigid translations are in
    its kernel exactly.  l is not the innermost axis of the sum, so the
    blocks are added in index order: the bytes are a loop's over pairs."""
    n = x.shape[0]
    pairs = ~np.eye(n, dtype=bool)
    blocks = np.zeros((n, n, 2, 2))
    blocks[pairs] = block((x[:, None] - x[None, :])[pairs])
    diagonal = np.arange(n)
    blocks[diagonal, diagonal] = np.subtract(0.0, np.add.reduce(blocks, axis=1))
    return blocks.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)


def full_hessian(potential, positions):
    """2N x 2N interaction Hessian at the given configuration.

    Block (j, l), j != l, is _pair_blocks of x_j - x_l: hess(k)(x_j - x_l)/N,
    where hess(k) is the second derivative of the radial pair potential.
    Diagonal blocks are minus the row sums (_pair_matrix), so the matrix is
    symmetric by construction.
    """
    if not isinstance(potential, (PowerLaw, Morse)):
        raise TypeError("potential must be PowerLaw or Morse")
    x = np.asarray(positions, dtype=float)
    return _pair_matrix(x, lambda dx: _pair_blocks(potential, dx, x.shape[0]))


def full_flock_jacobian(hessian, prop):
    """4N x 4N Jacobian [[0, Id], [hessian, -2 beta u0 u0^T]] of the flock.

    The drift runs along the first axis, so the per-particle damping block
    is -2 alpha e1 e1^T (beta |u0|^2 = alpha).
    """
    H = np.asarray(hessian, dtype=float)
    two_n = H.shape[0]
    damp = -2.0 * prop.alpha * np.diag([1.0, 0.0])
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
    # pair blocks 0 - g I / N keep +0.0 off their diagonals, as a loop's -= does
    G = _pair_matrix(x, lambda dx: np.subtract(0.0, _alignment_blocks(kernel, dx, n)))
    L = np.zeros((4 * n, 4 * n))
    L[: 2 * n, 2 * n :] = np.eye(2 * n)
    L[2 * n :, : 2 * n] = H
    L[2 * n :, 2 * n :] = -G
    return L


# The dense oracles' size cap: dense_eigvals takes matrices up to this
# order, and theorem_witness rings whose 4n x 4n Jacobian fits it.
_DENSE_ORDER = 128


def dense_eigvals(matrix):
    """Eigenvalues of a real matrix up to _DENSE_ORDER x _DENSE_ORDER.

    Symmetric inputs (to 1e-12 relative) take the symmetric path and
    return real eigenvalues sorted descending; general inputs return
    complex eigenvalues sorted by descending real part.  Same residual
    contract as eig4.
    """
    A = np.asarray(matrix, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("dense_eigvals expects a square matrix")
    if A.shape[0] > _DENSE_ORDER:
        raise ValueError(f"dense_eigvals is capped at {_DENSE_ORDER} x {_DENSE_ORDER}")
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
    if 4 * n > _DENSE_ORDER:
        raise ValueError(f"theorem_witness is a small-N oracle; use n <= {_DENSE_ORDER // 4}")
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
