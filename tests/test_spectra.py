import math
import tracemalloc

import numpy as np
import pytest

import swarmlab.spectra as spectra_module
from swarmlab import regions, rings
from swarmlab.potentials import AlignmentKernel, Morse, PowerLaw, Propulsion
from swarmlab.regions import _block
from swarmlab.rings import (
    RadiusProblem, _sines, flock_ring, mill_ring, ring_positions, solve_radius,
)
from swarmlab.sim import ModePerturbation, SimConfig, ic_flock_ring, ic_mill_ring, integrate
from swarmlab.spectra import (
    Classification,
    ModeMatrix,
    _weight_vectors,
    _worst_modes,
    classify,
    cs_flock_mode_matrix,
    dense_eigvals,
    det_asymptotics,
    eig4,
    flock_mode_matrix,
    full_cs_jacobian,
    full_flock_jacobian,
    full_hessian,
    mill_mode_matrix,
    mode_envelope,
    theorem_witness,
)

# the pair-block reference builders, one mode each, for the input checks they share
BUILDERS = {
    "flock": lambda a, b, n, m: flock_mode_matrix(a, b, n, m, Propulsion(1.0, 1.0)),
    "flock-cs": lambda a, b, n, m: cs_flock_mode_matrix(a, b, n, m, 1.0),
    "mill": lambda a, b, n, m: mill_mode_matrix(a, b, n, m, 1.0, 0.3),
}


def shape(a, b, n, m):
    """The shape matrix [[I1(m), I2(m)], [I2(m), I1(-m)]] of the ring at
    rest: rows 3-4, columns 1-2 of the speed-0 mill's mode matrix."""
    return mill_mode_matrix(a, b, n, m, 1.0, 0.0).entries[2:, :2]


def det_and_trace(sm):
    """Determinant and trace of a shape matrix; stability needs D > 0 and T < 0."""
    return sm[0, 0] * sm[1, 1] - sm[0, 1] * sm[1, 0], sm[0, 0] + sm[1, 1]


class TestBuilderInputs:
    @pytest.mark.parametrize("a, b, named", [
        (math.inf, 1, "a=inf"), (5, math.nan, "b=nan"), (2, 3, "a=2"),
    ])
    @pytest.mark.parametrize("model", list(BUILDERS))
    def test_unusable_input_is_named(self, model, a, b, named):
        with pytest.raises(ValueError, match=named):
            BUILDERS[model](a, b, 10, 2)

    @pytest.mark.parametrize("n", [1, 0, 2.5, True])
    @pytest.mark.parametrize("model", list(BUILDERS))
    def test_ring_size_is_named(self, model, n):
        with pytest.raises(ValueError, match=f"n={n}"):
            BUILDERS[model](4, 2, n, 2)

    @pytest.mark.parametrize("m", [True, 2.0, 2.5])
    @pytest.mark.parametrize("model", list(BUILDERS))
    def test_mode_is_named(self, model, m):
        # True used to build mode 1, 2.0 mode 2, and 2.5 raised an
        # ArithmeticError from the phase sum
        with pytest.raises(ValueError, match=f"got m={m}$"):
            BUILDERS[model](5, 1.5, 30, m)


class TestCouplings:
    @pytest.mark.parametrize("a, b", [(4.0, 2.0), (3.0, 1.0), (2.5, 1.5), (3.7, 1.3), (5.2, 0.6)])
    def test_weight_vectors_equal_the_plain_expression(self, a, b):
        # in-place build against the expression it replaced, bit for bit;
        # (a, b) cover ``**``'s shortcut exponents a - 2, b - 2 in {2, 1, 0.5, 0, -1}
        for n, R in ((7, 0.9), (1001, 0.58)):
            d = 2.0 * R * np.frombuffer(_sines(n))[1:]
            da, db = d ** (a - 2.0), d ** (b - 2.0)
            w1, w2 = np.zeros(n), np.zeros(n)
            w1[1:] = (-a * da + b * db) / (2.0 * n)
            w2[1:] = (-(a - 2.0) * da + (b - 2.0) * db) / (2.0 * n)
            got1, got2 = _weight_vectors(a, b, R, n)
            assert got1.tobytes() == w1.tobytes() and got2.tobytes() == w2.tobytes()

    def test_hand_values_four_particles(self):
        # four particles at the quartic/quadratic radius 3^-1/2: every
        # coupling is a short rational expression that was worked out by hand
        assert shape(4, 2, 4, 2)[0, 0] == pytest.approx(-1.0, rel=1e-12)
        assert shape(4, 2, 4, -2)[0, 0] == pytest.approx(-1.0, rel=1e-12)
        assert shape(4, 2, 4, 2)[0, 1] == pytest.approx(-1.0 / 3.0, rel=1e-12)

    def test_cross_coupling_zero_at_m1(self):
        # cos(m phi) - cos(phi) vanishes termwise
        assert shape(4, 2, 4, 1)[0, 1] == 0.0
        assert shape(3.7, 0.9, 17, 1)[0, 1] == 0.0

    def test_self_coupling_zero_at_minus_one(self):
        # the (m+1) phase is identically zero
        assert shape(4, 2, 4, -1)[0, 0] == 0.0
        assert shape(5.1, 2.3, 23, -1)[0, 0] == 0.0

    def test_cross_coupling_even_in_m(self):
        for m in (2, 3, 5, 9):
            assert shape(4.2, 1.7, 21, m)[0, 1] == pytest.approx(
                shape(4.2, 1.7, 21, -m)[0, 1], rel=1e-13
            )

    def test_periodicity_in_n(self):
        assert shape(4, 2, 12, 3)[0, 0] == pytest.approx(shape(4, 2, 12, 3 + 12)[0, 0], rel=1e-12)


class TestWorkspace:
    ms = np.arange(2, 400)

    @staticmethod
    def raw(*arrays):
        return [np.asarray(x).tobytes() for x in arrays]

    @pytest.mark.parametrize("a, b, n, speed", [
        (5.0, 1.37, 1001, 0.3),
        (3.3, 1.2, 1000, 0.0),
        (np.array([5.0, 3.3]), np.array([1.37, 1.2]), 1001, np.array([0.3, 0.0])),
    ], ids=["odd-n", "even-n", "2-cell-block"])
    def test_couplings_keep_their_bytes(self, a, b, n, speed):
        fresh = self.raw(*spectra_module._ring_couplings(a, b, n, speed, self.ms))
        with rings._workspace():
            for _ in range(2):
                got = spectra_module._ring_couplings(a, b, n, speed, self.ms)
                assert self.raw(*got) == fresh

    def test_results_do_not_alias_the_workspace(self):
        with rings._workspace():
            first = spectra_module._ring_couplings(5.0, 1.37, 1001, 0.3, self.ms)
            kept = self.raw(*first)
            spectra_module._ring_couplings(3.3, 1.2, 1001, 0.0, self.ms)
            assert self.raw(*first) == kept

    @pytest.mark.parametrize("model", ["mill", "flock-cs"])
    def test_block_cells_and_reports_do_not_alias_the_workspace(self, model):
        # a second block of the same shape writes over every buffer the
        # first one used; what the first returned keeps its bytes
        fixed = {"n": 200, "m_max": 99, "alpha": 1.0, "gamma": 0.7, "speed": 0.5}
        cells = [[(a, b, a, b) for a, b in ((4.0, 1.0), (5.5, 2.2))],
                 [(a, b, a, b) for a, b in ((3.2, 0.7), (6.5, 1.4))]]
        with rings._workspace():
            first = _block(model, fixed, fixed["speed"], cells[0])
            kept = repr(first)
            assert repr(_block(model, fixed, fixed["speed"], cells[1])) != kept
            assert repr(first) == kept
            envelope = mode_envelope(model, 4.0, 1.0, 200, gamma=0.7, speed=0.5)
            kept = repr(envelope)
            assert repr(mode_envelope(model, 3.2, 0.7, 200, gamma=0.7, speed=0.5)) != kept
            assert repr(envelope) == kept
        assert repr(envelope) == repr(mode_envelope(model, 4.0, 1.0, 200, gamma=0.7, speed=0.5))

    def test_repeat_solves_allocate_no_n_length_array(self):
        # after the first solve, a cell with a new b (its moment summed
        # afresh) writes every n-length array into the workspace's buffers
        n = 20000
        with rings._workspace():
            _worst_modes("flock", 3.7, 1.31, n, 200)
            rings._moment.cache_clear()
            tracemalloc.start()
            try:
                _worst_modes("flock", 3.7, 1.37, n, 200)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 8 * n

    def test_repeat_blocks_allocate_little_per_mode(self):
        # a second spinning-mill block of the same shape writes the 4x4
        # route's mode-sized arrays (S, the certificate's rows, the masks
        # and the top rows) into the workspace's buffers: what it still
        # allocates (the couplings, tolerances and mu1, about 7 float64 per
        # mode) stays under 12 float64 per mode, where a block outside a
        # workspace takes about 46
        n, cells = 1000, 3
        modes = ((n - 1) // 2 - 1) * cells
        a, b = np.linspace(3.2, 6.8, cells), np.linspace(0.6, 2.4, cells)
        with rings._workspace():
            _worst_modes("mill", a, b, n, (n - 1) // 2, speed=0.5)
            rings._moment.cache_clear()
            tracemalloc.start()
            try:
                _worst_modes("mill", a + 0.05, b + 0.05, n, (n - 1) // 2, speed=0.5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 12 * 8 * modes

    @pytest.mark.parametrize("model, bound", [("mill", 46), ("flock-cs", 58)])
    def test_a_scan_block_holds_few_float64_per_mode(self, model, bound, monkeypatch):
        # the workspace of one scan block at n = 1000 (the cap's cells):
        # the certificate's 28 rows, S, the weight and rfft rows, top and c;
        # a spinning mill's velocity block is per cell, with no mode axis
        n, m_max = 1000, 499
        cells = regions._BLOCK_MODES // (m_max - 1)
        a, b = np.linspace(3.2, 6.8, cells), np.linspace(0.6, 2.4, cells)
        velocity, blocks = [], spectra_module._blocks

        def recording(*args, **kwargs):
            S, V = blocks(*args, **kwargs)
            velocity.append(V.shape)
            return S, V

        monkeypatch.setattr(spectra_module, "_blocks", recording)
        with rings._workspace():
            _worst_modes(model, a, b, n, m_max, gamma=0.7, speed=0.5)
            held = sum(x.nbytes for x in rings._workspaces.buffers.values())
        assert held <= bound * 8 * (m_max - 1) * cells
        assert velocity == [(2, 2, cells) if model == "mill" else (2, 2, m_max - 1, cells)]


class TestShapeMatrix:
    def test_hand_matrix_and_criterion(self):
        sm = shape(4, 2, 4, 2)
        assert np.allclose(sm, [[-1.0, -1.0 / 3.0], [-1.0 / 3.0, -1.0]], atol=1e-12)
        D, T = det_and_trace(sm)
        assert D == pytest.approx(8.0 / 9.0, rel=1e-12)
        assert T == pytest.approx(-2.0, rel=1e-12)

    def test_m1_singular(self):
        for n in (7, 20, 101):
            D, T = det_and_trace(shape(3.5, 1.2, n, 1))
            assert abs(D) < 1e-10


class TestAlignmentDamping:
    # J+(m) and J-(m) are the diagonal of the flock-cs velocity block

    def test_hand_value_four_particles(self):
        e = cs_flock_mode_matrix(4, 2, 4, 2, 1.0).entries
        assert e[2, 2] == pytest.approx(-18.0 / 35.0, rel=1e-12)
        assert e[3, 3] == pytest.approx(-18.0 / 35.0, rel=1e-12)

    def test_zero_at_m1_minus(self):
        # cos(0) - 1 vanishes termwise
        assert cs_flock_mode_matrix(4.5, 1.7, 12, 1, 1.0).entries[3, 3] == 0.0
        assert cs_flock_mode_matrix(3.3, 0.7, 31, 1, 2.5).entries[3, 3] == 0.0

    def test_nonpositive(self, rng):
        for _ in range(10):
            gamma = rng.uniform(0.3, 3.0)
            a = rng.uniform(2.5, 7.0)
            b = rng.uniform(0.3, 0.8 * a)
            n = int(rng.integers(4, 40))
            m = int(rng.integers(1, n - 1))
            e = cs_flock_mode_matrix(a, b, n, m, gamma).entries
            assert e[2, 2] <= 0.0 and e[3, 3] <= 0.0


class TestModeMatrices:
    def test_flock_rows(self):
        mat = flock_mode_matrix(4, 2, 4, 2, Propulsion(1.0, 1.0))
        e = mat.entries
        assert np.array_equal(e[0], [0, 0, 1, 0])
        assert np.array_equal(e[1], [0, 0, 0, 1])
        assert np.allclose(e[2], [-1.0, -1.0 / 3.0, -1.0, -1.0], atol=1e-12)
        assert np.allclose(e[3], [-1.0 / 3.0, -1.0, -1.0, -1.0], atol=1e-12)

    def test_flock_velocity_block_spectrum(self):
        # rank-1 damping: eigenvalues {0, -2 alpha}
        mat = flock_mode_matrix(5, 1.5, 30, 4, Propulsion(1.7, 0.4))
        block = mat.entries[2:, 2:]
        vals = np.sort(np.linalg.eigvals(block).real)
        assert vals == pytest.approx([-2 * 1.7, 0.0], abs=1e-12)

    def test_flock_classification_stable_case(self):
        rep_input = flock_mode_matrix(4, 2, 4, 2, Propulsion(1.0, 1.0))
        vals = eig4(rep_input)
        assert classify(vals) in (Classification.STABLE, Classification.MARGINAL)
        assert float(np.max(vals.real)) < 1e-8

    def test_cs_diagonal_velocity_block(self):
        mat = cs_flock_mode_matrix(5, 1.5, 20, 3, 1.0)
        assert mat.entries[2, 3] == 0.0
        assert mat.entries[3, 2] == 0.0

    def test_cs_accepts_kernel_object(self):
        direct = cs_flock_mode_matrix(5, 1.5, 20, 3, 0.7)
        boxed = cs_flock_mode_matrix(5, 1.5, 20, 3, AlignmentKernel(0.7))
        assert np.array_equal(direct.entries, boxed.entries)

    def test_mill_speed_zero_real_with_exchange_block(self):
        mat = mill_mode_matrix(5, 1.5, 24, 3, 0.8, 0.0)
        assert mat.entries.dtype == np.dtype(float)
        assert np.allclose(mat.entries[2:, 2:], [[-0.8, 0.8], [0.8, -0.8]])
        flock = flock_mode_matrix(5, 1.5, 24, 3, Propulsion(1.0, 1.0))
        assert np.allclose(mat.entries[2:, :2], flock.entries[2:, :2], atol=1e-12)

    def test_mill_complex_assembly(self):
        a, b, n, m, alpha, speed = 5.0, 1.5, 24, 3, 0.8, 0.5
        mat = mill_mode_matrix(a, b, n, m, alpha, speed)
        R = mat.params["radius"]
        w = speed / R
        assert mat.params["omega"] == pytest.approx(w)
        # the couplings at the mill radius from the rfft route, which agrees
        # with the pair-block reference to roundoff
        R_fft, *couplings = spectra_module._ring_couplings(a, b, n, speed, np.array([m]))
        assert R_fft == R
        i1p, i1m, i2 = (float(c[0]) for c in couplings)
        expect = np.array(
            [
                [-1j * w * alpha + w * w + i1p, -1j * w * alpha + i2, -alpha - 2j * w, alpha],
                [1j * w * alpha + i2, 1j * w * alpha + w * w + i1m, alpha, -alpha + 2j * w],
            ]
        )
        assert np.allclose(mat.entries[2:], expect, atol=1e-12)

    @pytest.mark.parametrize("n", [1000, 1001])
    @pytest.mark.parametrize("model, alpha, gamma, speed", [
        ("flock-cs", 1.0, 0.8, 0.0), ("mill", 0.9, 1.0, 0.4),
    ])
    def test_reference_matches_the_rfft_tables(self, model, alpha, gamma, speed, n):
        # the builders' pair-block route against the production blocks
        a, b = 5.0, 1.9
        ms = np.array([2, 3, n // 3, (n - 1) // 2])
        S, V, *_ = spectra_module._mode_stack(model, a, b, n, ms, alpha, gamma, speed)
        for m, tables in zip(ms, spectra_module._assemble(S, V)):
            if model == "mill":
                e = mill_mode_matrix(a, b, n, int(m), alpha, speed).entries
            else:
                e = cs_flock_mode_matrix(a, b, n, int(m), gamma).entries
            assert np.all(np.abs(e - tables) <= 1e-12 * np.maximum(1.0, np.abs(tables)))

    def test_builders_share_no_code_with_the_rfft_route(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the reference route reached the rfft route")

        for name in ("_ring_couplings", "_weight_vectors", "_chords", "_sines"):
            monkeypatch.setattr(spectra_module, name, refuse)
        monkeypatch.setattr(np.fft, "rfft", refuse)
        for build in BUILDERS.values():
            assert np.all(np.isfinite(build(5, 1.9, 64, 3).entries))

    def test_reference_refuses_an_imaginary_reading(self):
        # a lone block breaks the ring's l <-> n - l symmetry
        blocks = np.zeros((5, 2, 2))
        blocks[0] = np.eye(2)
        with pytest.raises(ArithmeticError, match="imaginary part"):
            spectra_module._mode_response(blocks, 2)

    def test_mill_rotation_sign_invariance(self):
        # flipping omega conjugates the matrix, so real parts are unchanged
        mat = mill_mode_matrix(5, 1.5, 24, 3, 0.8, 0.5)
        flipped = np.conj(mat.entries)
        re_fwd = np.sort(np.linalg.eigvals(mat.entries).real)
        re_bwd = np.sort(np.linalg.eigvals(flipped).real)
        assert re_fwd == pytest.approx(re_bwd, abs=1e-12)

    def test_mill_m1_neutral_mode_at_rotation_frequency(self):
        # the rotating frame moves the m=1 zero mode to exactly i*omega
        for (a, b, n, alpha, speed) in [
            (4, 2, 30, 1.0, 0.5),
            (3, 1.5, 50, 0.7, 0.2),
            (5, 0.5, 40, 2.0, 1.0),
        ]:
            mat = mill_mode_matrix(a, b, n, 1, alpha, speed)
            w = mat.params["omega"]
            vals = eig4(mat)
            assert float(np.min(np.abs(vals - 1j * w))) < 1e-12 * max(1.0, w)

    def test_mode_n_minus_one_mirrors_mode_one(self):
        # I1(m) sums to exactly 0 at m = n - 1, so the imaginary-part guard
        # must be scaled by the weights, not by the real part
        cases = [
            (lambda m: flock_mode_matrix(5, 1.25, 100, m, Propulsion(1, 1)), 100),
            (lambda m: mill_mode_matrix(6, 2.5, 24, m, 1.0, 1.0), 24),
            (lambda m: cs_flock_mode_matrix(5, 1.25, 100, m, 1.0), 100),
        ]
        for build, n in cases:
            hi, lo = build(n - 1).entries, build(1).entries
            # mode n - 1 is mode -1: the shape block with its diagonal swapped
            assert np.allclose(hi[2:, :2].real, lo[2:, :2].real[::-1, ::-1], atol=1e-12)

    def test_mode_matrix_validation(self):
        with pytest.raises(ValueError):
            ModeMatrix(entries=np.zeros((4, 4)), model="flock", params={})
        with pytest.raises(ValueError):
            ModeMatrix(entries=np.zeros((3, 3)), model="flock", params={})
        with pytest.raises(TypeError):
            flock_mode_matrix(4, 2, 10, 2, prop=None)


class TestEig4:
    def test_identity(self):
        vals = eig4(np.eye(4))
        assert vals == pytest.approx([1, 1, 1, 1])

    def test_diagonal_exact(self):
        vals = eig4(np.diag([1.0, -2.0, 3.0j, -3.0j]))
        assert set(np.round(vals, 12)) == {1.0, -2.0, 3.0j, -3.0j}

    def test_companion_square_roots(self):
        mu1, mu2 = -0.49, 2.25
        A = np.zeros((4, 4))
        A[0, 2] = A[1, 3] = 1.0
        A[2, 0], A[3, 1] = mu1, mu2
        vals = eig4(A)
        expect = {1.5, -1.5, 0.7j, -0.7j}
        for lam in vals:
            assert min(abs(lam - e) for e in expect) < 1e-12

    def test_residual_and_reconstruction_contract(self, rng):
        mats = [rng.standard_normal((4, 4)) for _ in range(20)]
        mats += [
            flock_mode_matrix(
                rng.uniform(2.5, 6.0), rng.uniform(0.3, 2.0), 20, 3, Propulsion(1.0, 1.0)
            ).entries
            for _ in range(5)
        ]
        for A in mats:
            vals = eig4(A)
            scale = max(1.0, float(np.max(np.abs(A))))
            for lam in vals:
                smin = np.linalg.svd(A - lam * np.eye(4), compute_uv=False)[-1]
                assert smin < 1e-9 * scale
            assert np.sum(vals) == pytest.approx(np.trace(A), rel=1e-9, abs=1e-9 * scale)
            assert np.prod(vals) == pytest.approx(
                np.linalg.det(A), rel=1e-9, abs=1e-9 * scale**4
            )

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            eig4(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            eig4(np.full((4, 4), np.nan))


class TestClassify:
    def test_plain_verdicts(self):
        assert classify([-1, -2, -3, -4]) == Classification.STABLE
        assert classify([1e-4, -1, -1, -2]) == Classification.UNSTABLE
        assert classify([0.0, -1, -2, -3]) == Classification.MARGINAL


def assert_matches_direct(rep, mat):
    """An envelope report against the builder's matrix of the same mode.

    The eigenvalues must match eig4.  A non-rotating ring's verdict must
    match det/trace of the builder's shape matrix; mode 1 judges only
    I1(1), beside the structural zero I1(-1) = I2(1) = 0.  A spinning
    mill's verdict must match classify of the eig4 spectrum.
    """
    direct = eig4(mat)
    assert np.allclose(np.array(rep.eigenvalues), direct, atol=1e-10)
    p = mat.params
    if p.get("omega", 0.0) != 0.0:
        tol = 1e-8 * max(1.0, mat.max_norm)
        assert rep.classification == classify(direct, tol=tol)
        return
    sm = mat.entries[2:, :2]
    if rep.m == 1:
        stable = sm[0, 0] < 0
    else:
        D, T = det_and_trace(sm)
        stable = D > 0 and T < 0
    # the cases below are decisive: no mode sits inside the tolerance band
    assert rep.classification == (Classification.STABLE if stable else Classification.UNSTABLE)


class TestEnvelope:
    def test_worst_mode_is_reported(self):
        summary, reports = mode_envelope("flock", 5, 0.5, 200)
        assert summary.classification == Classification.UNSTABLE
        assert summary.m == 99  # fattening blows up at the shortest wavelength
        assert summary.max_real == pytest.approx(2.189, abs=0.05)
        assert len(reports) == 98  # modes 2..99

    def test_stable_parameters_never_flagged_unstable(self):
        # rank-1 propulsion damping leaves the shortest wavelengths barely
        # damped, so some 4x4 real parts lie inside a 1e-8 band; the verdict
        # comes from the shape matrices, which are clearly negative definite
        summary, reports = mode_envelope("flock", 5, 1.5, 100)
        assert summary.classification == Classification.STABLE
        assert all(r.classification == Classification.STABLE for r in reports)
        assert all(r.max_real < 0 for r in reports)
        # the positions-only criterion is clean at the same parameters
        for m in (2, 10, 30, 49):
            D, T = det_and_trace(shape(5, 1.5, 100, m))
            assert D > 1e-8 and T < -1e-8

    def test_degenerate_family_reports_marginal(self):
        # the quartic/quadratic pair has det = 0 in every mode m >= 3
        summary, _ = mode_envelope("flock", 4, 2, 200)
        assert summary.classification == Classification.MARGINAL
        assert abs(summary.max_real) < 1e-7

    def test_envelope_agrees_with_single_mode_route(self):
        prop = Propulsion(1.0, 1.0)
        _, reports = mode_envelope("flock", 4.5, 1.3, 24, alpha=1.0, m_min=1)
        assert [r.m for r in reports] == list(range(1, 12))
        for rep in reports:
            assert_matches_direct(rep, flock_mode_matrix(4.5, 1.3, 24, rep.m, prop))

    def test_cs_envelope_agrees_with_single_mode_route(self):
        _, reports = mode_envelope("flock-cs", 4.5, 1.3, 24, gamma=0.8, m_min=1)
        assert reports[0].m == 1
        for rep in reports:
            assert_matches_direct(rep, cs_flock_mode_matrix(4.5, 1.3, 24, rep.m, 0.8))

    def test_mill_envelope_agrees_with_single_mode_route(self):
        _, reports = mode_envelope("mill", 4.5, 1.3, 24, alpha=0.9, speed=0.4, m_min=1)
        assert reports[0].m == 1
        for rep in reports:
            assert_matches_direct(rep, mill_mode_matrix(4.5, 1.3, 24, rep.m, 0.9, 0.4))

    def test_chords_come_from_the_libm_sine_table(self, monkeypatch):
        # the FFT route reads its chord sines from the radius solve's table,
        # so no spectral number depends on numpy's sin, and it never writes
        # into the shared table
        def cases():
            return [
                repr(mode_envelope("flock", 5, 1.25, 201)),
                repr(mode_envelope("flock-cs", 5, 1.25, 201, gamma=0.7)),
                repr(mode_envelope("mill", 5, 1.25, 201, speed=0.5)),
                repr(_worst_modes("flock", 5, 1.25, 201, 100)[0]),
            ]

        expected = cases()
        table = _sines(201).tolist()

        def no_sin(*args, **kwargs):
            raise AssertionError("numpy sin called")

        monkeypatch.setattr(np, "sin", no_sin)
        assert cases() == expected
        assert _sines(201).tolist() == table

    def test_mode_range_nesting(self):
        # the stable set over modes {2..m'} contains the one over {2..m}
        # for m' <= m: widening the range can only add instability
        summary_narrow, _ = mode_envelope("flock", 5, 0.5, 200, m_max=3)
        summary_wide, _ = mode_envelope("flock", 5, 0.5, 200)
        assert summary_narrow.classification == Classification.STABLE
        assert summary_wide.classification == Classification.UNSTABLE
        assert summary_wide.m == 99

    def test_validation(self):
        with pytest.raises(ValueError):
            mode_envelope("nope", 4, 2, 10)
        with pytest.raises(ValueError):
            mode_envelope("flock", 4, 2, 10, m_min=5, m_max=3)
        with pytest.raises(ValueError):
            mode_envelope("flock", 4, 2, 10, m_min=0, m_max=3)
        # m_max 4.5 used to die with an IndexError and m_min true ran mode 1
        with pytest.raises(ValueError, match="got m_max=4.5"):
            mode_envelope("flock", 4, 2, 20, m_max=4.5)
        with pytest.raises(ValueError, match="got m_min=True"):
            mode_envelope("flock", 4, 2, 20, m_min=True, m_max=3)


VERDICTS = (Classification.STABLE, Classification.MARGINAL, Classification.UNSTABLE)


def full_solve(ms, A, shape_bands):
    """(m, repr(max_real), verdict) from eigvals of every matrix in the stack.

    The spinning mill bands each mode at 1e-8 max(1, |A_m|), classify's
    rule; a ring at rest takes the given shape bands.
    """
    top = np.linalg.eigvals(A).real.max(axis=1)
    if shape_bands is None:
        tol = 1e-8 * np.maximum(1.0, np.abs(A).max(axis=(1, 2)))
        shape_bands = np.where(top > tol, 2, np.where(top < -tol, 0, 1))
    worst = int(np.argmax(top))
    return int(ms[worst]), repr(float(top[worst])), VERDICTS[shape_bands.max()]


def assembled_stack(model, a, b, n, alpha=1.0, gamma=1.0, speed=0.0):
    """Modes 2..(n-1)//2, their matrices from _assemble, the shape bands of
    a ring at rest (None for the spinning mill) and each mode's largest
    shape eigenvalue mu1."""
    ms = np.arange(2, (n - 1) // 2 + 1)
    speed = speed if model == "mill" else 0.0
    R, i1p, i1m, i2 = spectra_module._ring_couplings(a, b, n, speed, ms)
    if model == "flock-cs":
        jp, jm = spectra_module._alignment_tables(gamma, R, n, ms)
    else:
        jp, jm = 0.0, 0.0
    blocks = spectra_module._blocks(
        model, i1p, i1m, i2, alpha=alpha, jp=jp, jm=jm, omega=speed / R
    )
    A = spectra_module._assemble(*blocks)
    mu1, bands = spectra_module._shape_severity(ms, n, i1p, i1m, i2)
    return ms, A, (bands if speed == 0.0 else None), mu1


def split(A):
    """Blocks S, V (2, 2, k) of a stack of mode matrices [[0, I], [S, V]]."""
    return A[:, 2:, :2].transpose(1, 2, 0).copy(), A[:, 2:, 2:].transpose(1, 2, 0).copy()


def block_stack(roots):
    """Mode matrices [[0, I], [S, V]] with diagonal S and V, whose
    eigenvalues are the given pairs: roots[i] = ((r1, r2), (r3, r4))."""
    A = np.zeros((len(roots), 4, 4), dtype=complex)
    A[:, 0, 2] = A[:, 1, 3] = 1.0
    for i, pairs in enumerate(roots):
        for j, (r1, r2) in enumerate(pairs):
            A[i, 2 + j, 2 + j] = r1 + r2
            A[i, 2 + j, j] = -r1 * r2
    return A


@pytest.fixture
def solved_rows(monkeypatch):
    """The matrices _worst_modes eigensolves, in call order."""
    rows, top_real = [], spectra_module._top_real

    def recording(A):
        rows.extend(A)
        return top_real(A)

    monkeypatch.setattr(spectra_module, "_top_real", recording)
    return rows


class TestWorstModeCertificate:
    @pytest.mark.parametrize("model, n, kw", [
        ("mill", 200, {"speed": 0.2}),
        ("mill", 64, {"speed": 0.05}),
        ("mill", 501, {"speed": 1.0, "alpha": 0.8}),
        ("flock-cs", 200, {"gamma": 1.0}),
        ("flock-cs", 120, {"gamma": 0.5}),
    ])
    def test_equals_solving_every_mode(self, model, n, kw, solved_rows):
        ranked = cells = 0
        for a in (3.0, 4.2, 5.4, 7.0):
            for b in (0.5, 1.1, 1.7, 2.5):
                start = len(solved_rows)
                got = _worst_modes(model, a, b, n, (n - 1) // 2, **kw)[0]
                ms, A, bands, mu1 = assembled_stack(model, a, b, n, **kw)
                assert (got[0], repr(got[1]), got[2]) == full_solve(ms, A, bands)
                # the mode of the largest shape eigenvalue is in the sample
                top_shape = A[np.argmax(mu1)]
                assert any(np.array_equal(row, top_shape) for row in solved_rows[start:])
                ranked += len(ms)
                cells += 1
        # the certificate did skip modes, and with mu1's argmax in the sample
        # it leaves few besides the sample's three or four
        assert len(solved_rows) < 0.5 * ranked
        assert len(solved_rows) <= 4 * cells

    @pytest.mark.parametrize("model, a, b, kw", [
        ("mill", 4.0, 1.0, {"speed": 0.2}),
        ("flock-cs", 5.0, 1.6, {"gamma": 1.0}),
    ])
    def test_a_mode_tied_with_or_near_the_worst_is_solved(self, model, a, b, kw, monkeypatch,
                                                          solved_rows):
        n, low = 200, 10  # low: a mode index the sample leaves out
        ms, A, bands, _ = assembled_stack(model, a, b, n, **kw)
        worst = int(np.argmax(np.linalg.eigvals(A).real.max(axis=1)))
        assert worst > low
        # mu1 puts the worst mode into the sample, so the sample's best is
        # the tied value itself
        mu1 = np.zeros(len(ms))
        mu1[worst] = 1.0
        # the worst matrix with every eigenvalue moved left by half its
        # tolerance: V - 2 delta I and S + delta V - delta^2 I
        delta = 0.5e-8 * max(1.0, np.abs(A[worst]).max())
        near = A[worst].copy()
        near[2:, :2] += delta * A[worst, 2:, 2:] - delta**2 * np.eye(2)
        near[2:, 2:] -= 2.0 * delta * np.eye(2)
        stack = spectra_module._mode_stack
        for copy, expected_mode in ((A[worst], ms[low]), (near, ms[worst])):
            patched = A.copy()
            patched[low] = copy

            def with_copy(*args, patched=patched):
                _, _, tol, bands, _ = stack(*args)
                tol[low] = 1e-8 * max(1.0, np.abs(patched[low]).max())
                return (*split(patched), tol, bands, mu1)

            monkeypatch.setattr(spectra_module, "_mode_stack", with_copy)
            solved_rows.clear()
            got = _worst_modes(model, a, b, n, ms[-1], **kw)[0]
            assert (got[0], repr(got[1]), got[2]) == full_solve(ms, patched, bands)
            assert got[0] == expected_mode
            assert any(np.array_equal(row, copy) for row in solved_rows)
            assert len(solved_rows) < len(ms) // 2

    def test_marginal_cell_with_per_mode_tolerances(self, monkeypatch, solved_rows):
        # the sampled modes (2, 3, 31 and 27, mu1's argmax) are stable at
        # their tolerance 1e-8 |A| = 3e-8; mode 12 has entries near 1000, so
        # its tolerance is 1e-5 and its largest real part -2e-6 is marginal:
        # the cell is marginal
        ms = np.arange(2, 32)
        roots = [((-0.01 - 0.001 * i, -1.0), (-1.0, -2.0)) for i in range(len(ms))]
        for i in (0, 1, 25, 29):
            roots[i] = ((-1e-7, -1.0), (-1.0, -2.0))
        roots[10] = ((-2e-6, -1000.0), (-1.0, -2.0))
        A = block_stack(roots)
        tol = 1e-8 * np.maximum(1.0, np.abs(A).max(axis=(1, 2)))
        mu1 = np.zeros(len(ms))
        mu1[25] = 1.0
        monkeypatch.setattr(
            spectra_module, "_mode_stack", lambda *args: (*split(A), tol, None, mu1)
        )
        got = _worst_modes("mill", 5.0, 1.2, 64, 31, speed=0.1)[0]
        assert (got[0], repr(got[1]), got[2]) == full_solve(ms, A, None)
        assert got[2] is Classification.MARGINAL
        assert len(solved_rows) < len(ms)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    # index 1 (mode 3) is in the fixed sample; index 10 (mode 12) gets a
    # NaN or inf mu1, so mu1's argmax puts it into the sample
    @pytest.mark.parametrize("index", [1, 10], ids=["fixed-sample", "mu1-argmax"])
    @pytest.mark.parametrize("model", ["mill", "flock-cs"])
    def test_non_finite_entries_give_the_eigvals_reason(self, model, index, bad, monkeypatch):
        couplings = spectra_module._ring_couplings

        def poisoned(*args):
            R, i1p, i1m, i2 = couplings(*args)
            i1p = i1p.copy()
            i1p[index] = bad
            return R, i1p, i1m, i2

        monkeypatch.setattr(spectra_module, "_ring_couplings", poisoned)
        _, A, _, _ = assembled_stack(model, 5.0, 1.2, 200, speed=0.2)
        with pytest.raises(np.linalg.LinAlgError) as solved:
            np.linalg.eigvals(A)
        fixed = {"n": 200, "m_max": 99, "alpha": 1.0, "gamma": 1.0, "speed": 0.2}
        cell = _block(model, fixed, fixed["speed"], [(5.0, 1.2, 5.0, 1.2)])[0]
        assert cell.classification is Classification.INVALID
        assert cell.error == str(solved.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("model", ["mill", "flock-cs"])
    def test_a_non_finite_mode_outside_the_sample_is_solved(self, model, bad, monkeypatch):
        # a non-finite coupling makes its own mu1 the argmax, so the test
        # above samples it; a non-finite velocity entry (a shape entry for
        # the mill, whose velocity block has no mode axis) leaves mu1
        # finite, so the certificate must refuse the mode and eigvals reject it
        stack, index = spectra_module._mode_stack, 10

        def poisoned(*args):
            S, V, tol, bands, mu1 = stack(*args)
            assert np.argmax(mu1) != index
            (V if model == "flock-cs" else S)[0, 1, index] = bad
            return S, V, tol, bands, mu1

        monkeypatch.setattr(spectra_module, "_mode_stack", poisoned)
        with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
            _worst_modes(model, 5.0, 1.2, 200, 99, speed=0.2)

    @pytest.mark.parametrize("root, c", [(0.25 + 0.5j, 0.25), (0.5, 0.5), (-3.0 + 2.0j, -3.0)])
    def test_refuses_a_root_on_the_shifted_axis(self, root, c):
        A = block_stack([((root, -4.0), (-4.5 + 1.0j, -5.0))])
        assert not spectra_module._routh_below(*split(A), np.array([c]))[0]
        assert not spectra_module._routh_below(*split(A), np.array([c - 1e-9]))[0]
        assert spectra_module._routh_below(*split(A), np.array([c + 1e-6]))[0]
        for bad in (math.nan, math.inf, -math.inf):
            assert not spectra_module._routh_below(*split(A), np.array([bad]))[0]

    def test_refuses_exact_roots_on_the_axis_at_random(self):
        # dyadic roots with few bits make S and V exact, so one root lies on
        # Re = c exactly; the computed pivots are then rounding noise, and
        # only the error bounds keep the certificate from accepting them
        rng = np.random.default_rng(11)
        k = 400
        c = rng.integers(-64, 64, k) / 16.0
        on_axis = c + 1j * rng.integers(0, 64, k) / 16.0
        on_axis[::2] = c[::2]  # real roots too
        left = c[:, None] - rng.integers(1, 64, (k, 3)) / 16.0 + 1j * rng.integers(-64, 64, (k, 3)) / 16.0
        roots = [((r, x), (y, z)) for r, (x, y, z) in zip(on_axis, left)]
        A = block_stack(roots)
        assert not spectra_module._routh_below(*split(A), c).any()
        assert spectra_module._routh_below(*split(A), c + 1e-3).all()

    def test_never_certifies_below_a_solved_root(self):
        # random complex and real mode matrices spanning six decades of scale
        rng = np.random.default_rng(3)
        scale = 10.0 ** rng.uniform(-3, 3, size=(800, 1, 1))
        A = np.zeros((800, 4, 4), dtype=complex)
        A[:, 0, 2] = A[:, 1, 3] = 1.0
        A[:, 2:] = rng.standard_normal((800, 2, 4)) * scale
        A[:400, 2:] += 1j * rng.standard_normal((400, 2, 4)) * scale[:400]
        for stack in (A[:400], A[400:].real.copy()):
            top = np.linalg.eigvals(stack).real.max(axis=1)
            norm = np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))
            assert not spectra_module._routh_below(*split(stack), top - 1e-12 * norm).any()
            assert spectra_module._routh_below(*split(stack), top + 1e-6 * norm).mean() > 0.99

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_decides_random_quartics_by_their_roots(self, real):
        # seeded quartics over six decades of scale, every root's real part
        # at least 1e-6 scale from c on either side: one root (for a real
        # quartic, its conjugate too) from 1e-6 to 1 scale, log-uniform, the
        # others from 1e-3 to 1 scale.  Two complex roots both within about
        # 1e-5 scale of c can fall below the bound; the caller then solves it
        rng = np.random.default_rng(27)
        k = 2000
        scale = 10.0 ** rng.uniform(-3, 3, k)
        c = scale * rng.uniform(-1, 1, k)
        gap = rng.uniform(1e-3, 1, (k, 4))
        gap[:, 0] = 10.0 ** rng.uniform(-6, 0, k)
        side = np.where(rng.random((k, 4)) < 0.85, -1.0, 1.0)
        re = c[:, None] + side * scale[:, None] * gap
        roots = re + 1j * scale[:, None] * rng.uniform(-1, 1, (k, 4))
        if real:  # two conjugate pairs or four real roots
            pairs = rng.random(k)[:, None] < 0.5
            roots[:, 1::2] = np.where(pairs, roots[:, ::2].conj(), re[:, 1::2])
            roots[:, ::2] = np.where(pairs, roots[:, ::2], re[:, ::2])
        A = block_stack([((r1, r2), (r3, r4)) for r1, r2, r3, r4 in roots])
        if real:
            assert not A.imag.any()
            A = A.real.copy()
        left = (roots.real < c[:, None]).all(axis=1)
        assert 0.3 < left.mean() < 0.7
        np.testing.assert_array_equal(spectra_module._routh_below(*split(A), c), left)


class TestPerCellVelocity:
    """A velocity block per cell (no mode axis) gives the bytes of the same
    block repeated for every mode, inf and NaN entries included."""

    @staticmethod
    def block(rng, real):
        modes, cells = 40, 5
        def draw(*shape):
            x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)
            return x if real else x + 1j * rng.standard_normal(shape)
        S, V, c = draw(2, 2, modes, cells), draw(2, 2, cells), draw(modes, cells).real
        for x in (S, V, c):
            x.reshape(-1)[rng.choice(x.size, max(1, x.size // 20), replace=False)] = (
                rng.choice([0.0, np.inf, -np.inf, np.nan], max(1, x.size // 20)))
        return S, V, c, np.repeat(V[:, :, None], modes, axis=2)

    @pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
    def test_same_bytes_as_a_velocity_block_per_mode(self, real):
        rng = np.random.default_rng(29)
        for _ in range(20):
            S, V, c, per_mode = self.block(rng, real)
            got = spectra_module._routh_below(S, V, c)
            assert got.shape == c.shape and got.tobytes() == (
                spectra_module._routh_below(S, per_mode, c).tobytes())
            flat = (2, 2, c.size)
            assert got.tobytes() == spectra_module._routh_below(
                S.reshape(flat), per_mode.reshape(flat), c.reshape(-1)).tobytes()
            quartics = []
            for blocks in ((S, V), (S, per_mode)):
                dtype = np.result_type(S, V)
                q, tmp = np.empty((5,) + c.shape, dtype), np.empty((6,) + c.shape, dtype)
                with np.errstate(all="ignore"):
                    spectra_module._shifted_quartic(*blocks, c, np.subtract, q, tmp)
                quartics.append(q.tobytes())
            assert quartics[0] == quartics[1]
            solve = rng.random(c.shape) < 0.3
            for mask in (None, solve):
                assert spectra_module._assemble(S, V, mask).tobytes() == (
                    spectra_module._assemble(S, per_mode, mask).tobytes())
        assert got.any() and not got.all()


class TestCsReduction:
    def test_cs_4x4_sign_matches_det_trace(self, rng):
        # flock-cs verdicts come from the shape matrix, so its 4x4 matrix is
        # checked against det/trace here, independently of the envelope
        decisive = mismatches = 0
        for _ in range(100):
            a = rng.uniform(2.5, 7.0)
            b = rng.uniform(0.3, 0.8 * a)
            n = int(rng.integers(8, 401))
            m = int(rng.integers(2, n // 2 + 1))
            mat = cs_flock_mode_matrix(a, b, n, m, rng.uniform(0.3, 3.0))
            max_re = float(np.max(eig4(mat).real))
            if abs(max_re) <= 1e-8 * max(1.0, mat.max_norm):
                continue  # inside the tolerance band: no sign to compare
            decisive += 1
            D, T = det_and_trace(mat.entries[2:, :2])
            mismatches += (max_re < 0) != (D > 0 and T < 0)
        assert mismatches == 0
        assert decisive >= 60


# a bad n or an empty mode list is a ValueError naming it: these used to
# name m_max (the first two), or raise a TypeError or an IndexError
@pytest.mark.parametrize("call, needle", [
    (lambda: mode_envelope("flock", 5, 1.9, 10.0), "got n=10.0"),
    (lambda: mode_envelope("flock", 5, 1.9, True), "got n=True"),
    (lambda: det_asymptotics(5, 1.9, 10.0, [2, 3]), "got n=10.0"),
    (lambda: det_asymptotics(5, 1.9, 64, []), "at least one mode"),
    (lambda: det_asymptotics(5, 1.9, 64, [5]), r"two distinct modes.*\[5\]"),
    (lambda: det_asymptotics(5, 1.9, 64, [5, 5]), r"two distinct modes.*\[5\]"),
], ids=["envelope-n-float", "envelope-n-bool", "det-n-float", "det-no-modes",
        "det-one-mode", "det-one-distinct-mode"])
def test_bad_mode_range_is_named(call, needle):
    with pytest.raises(ValueError, match=needle):
        call()


class TestDetAsymptotics:
    def test_table_matches_shape_matrices(self):
        table, _ = det_asymptotics(5, 1.5, 64, [2, 5, 11, 30])
        for m, det in table:
            D, _ = det_and_trace(shape(5, 1.5, 64, m))
            assert det == pytest.approx(D, rel=1e-10, abs=1e-12)

    def test_mode_domain_validation(self):
        with pytest.raises(ValueError):
            det_asymptotics(5, 1.5, 64, [1, 5])
        with pytest.raises(ValueError):
            det_asymptotics(5, 1.5, 64, [2, 63])

    @pytest.mark.parametrize("m", [2.7, 3.0, True])
    def test_non_integer_mode_is_named(self, m):
        # 2.7 used to run as mode 2, and True as mode 1
        with pytest.raises(ValueError, match=f"got m={m}$"):
            det_asymptotics(5, 1.5, 100, [m, 3, 4])


def loop_hessian(potential, x):
    """The interaction Hessian by a loop over ordered pairs, one block each."""
    n = len(x)
    H = np.zeros((2 * n, 2 * n))
    for j in range(n):
        for l in range(n):
            if l != j:
                dx = x[j] - x[l]
                r = float(np.hypot(dx[0], dx[1]))
                rr = np.outer(dx / r, dx / r)
                kd, kdd = float(potential.deriv(r)), float(potential.second_deriv(r))
                block = (kdd * rr + (kd / r) * (np.eye(2) - rr)) / n
                H[2 * j : 2 * j + 2, 2 * l : 2 * l + 2] = block
                H[2 * j : 2 * j + 2, 2 * j : 2 * j + 2] -= block
    return H


def loop_alignment(kernel, x):
    """The alignment matrix G by a loop over ordered pairs."""
    n = len(x)
    G = np.zeros((2 * n, 2 * n))
    for j in range(n):
        for l in range(n):
            if l != j:
                g = float(kernel.value(float(np.hypot(*(x[j] - x[l]))))) / n
                for c in (0, 1):
                    G[2 * j + c, 2 * l + c] -= g
                    G[2 * j + c, 2 * j + c] += g
    return G


class TestFullSystem:
    @pytest.mark.parametrize("potential, n, bracket", [
        (PowerLaw(5, 1.9), 13, None), (PowerLaw(3.3, 0.7), 40, None),
        (Morse(C_A=0.5, C_R=1.0, l_A=2.0, l_R=0.5), 12, (0.01, 10.0)),
    ])
    def test_dense_matrices_equal_the_pair_loops(self, potential, n, bracket, rng):
        # the broadcast assembly adds in the loops' order and keeps their
        # signed zeros, so the bytes are equal, on a ring and off it
        x0 = ring_positions(solve_radius(RadiusProblem(potential=potential, n=n, bracket=bracket)))
        for x in (x0, x0 + 1e-3 * rng.standard_normal((n, 2))):
            H = full_hessian(potential, x)
            assert H.tobytes() == loop_hessian(potential, x).tobytes()
            kernel = AlignmentKernel(0.7)
            minus_G = full_cs_jacobian(H, kernel, x)[2 * n :, 2 * n :]
            assert minus_G.tobytes() == (-loop_alignment(kernel, x)).tobytes()

    def test_hessian_two_particle_hand_value(self):
        pot = PowerLaw(2, 1)
        H = full_hessian(pot, np.array([[0.0, 0.0], [1.0, 0.0]]))
        expect = np.array(
            [
                [-0.5, 0.0, 0.5, 0.0],
                [0.0, 0.0, 0.0, 0.0],
                [0.5, 0.0, -0.5, 0.0],
                [0.0, 0.0, 0.0, 0.0],
            ]
        )
        assert np.allclose(H, expect, atol=1e-14)

    def test_hessian_symmetry_and_translations(self):
        ring = flock_ring(PowerLaw(3, 1.5), 9)
        x = ring_positions(ring)
        H = full_hessian(PowerLaw(3, 1.5), x)
        assert np.max(np.abs(H - H.T)) < 1e-12 * max(1.0, np.max(np.abs(H)))
        n = 9
        e1 = np.tile([1.0, 0.0], n)
        e2 = np.tile([0.0, 1.0], n)
        assert np.max(np.abs(H @ e1)) < 1e-10
        assert np.max(np.abs(H @ e2)) < 1e-10

    def test_hessian_rotation_generator_in_kernel(self):
        ring = flock_ring(PowerLaw(3, 1.5), 9)
        x = ring_positions(ring)
        H = full_hessian(PowerLaw(3, 1.5), x)
        rot = np.column_stack([-x[:, 1], x[:, 0]]).ravel()
        assert np.max(np.abs(H @ rot)) < 1e-10

    def test_hessian_morse_accepted(self):
        pot = Morse(C_A=0.5, C_R=1.0, l_A=2.0, l_R=0.5)
        sol = solve_radius(
            RadiusProblem(potential=pot, n=12, bracket=(0.01, 10.0))
        )
        x = ring_positions(sol)
        H = full_hessian(pot, x)
        e1 = np.tile([1.0, 0.0], 12)
        assert np.max(np.abs(H @ e1)) < 1e-10

    def test_flock_jacobian_structure(self):
        ring = flock_ring(PowerLaw(4, 2), 6)
        x = ring_positions(ring)
        H = full_hessian(PowerLaw(4, 2), x)
        L = full_flock_jacobian(H, Propulsion(1.3, 1.3))
        assert L.shape == (24, 24)
        assert np.array_equal(L[:12, 12:], np.eye(12))
        assert np.array_equal(L[12:, :12], H)
        damp = L[12:14, 12:14]
        assert np.allclose(damp, [[-2.6, 0.0], [0.0, 0.0]])

    def test_cs_jacobian_kernel_and_psd(self):
        ring = flock_ring(PowerLaw(4, 2), 7)
        x = ring_positions(ring)
        H = full_hessian(PowerLaw(4, 2), x)
        L = full_cs_jacobian(H, AlignmentKernel(1.0), x)
        G = -L[14:, 14:]
        assert np.max(np.abs(G - G.T)) < 1e-12
        assert np.min(np.linalg.eigvalsh(G)) > -1e-12
        e1 = np.tile([1.0, 0.0], 7)
        assert np.max(np.abs(G @ e1)) < 1e-12

    def test_quadratic_eigenvalue_identity(self):
        # lambda^2 (x.x) + 2 alpha lambda sum (x_j . e)^2 = x.(H x) for each
        # eigenpair, with all products taken bilinearly
        pot = PowerLaw(3, 1.5)
        ring = flock_ring(pot, 6)
        x = ring_positions(ring)
        H = full_hessian(pot, x)
        alpha = 0.9
        L = full_flock_jacobian(H, Propulsion(alpha, 0.9))
        vals, vecs = np.linalg.eig(L)
        scale = max(1.0, float(np.max(np.abs(H))))
        checked = 0
        for lam, w in zip(vals, vecs.T):
            pos = w[:12]
            norm2 = pos @ pos
            if abs(norm2) < 0.1 * np.vdot(pos, pos).real:
                continue  # near-isotropic position part; identity degenerates
            first = pos[0::2]
            resid = lam * lam * norm2 + 2 * alpha * lam * (first @ first) - pos @ (H @ pos)
            assert abs(resid) < 1e-6 * scale * max(1.0, abs(lam) ** 2)
            checked += 1
        assert checked >= 12

    def test_simulated_flock_grows_at_the_full_jacobian_rate(self):
        # a mode-3 seed of an unstable flock grows at the top real part of
        # the full linearization (0.0817), far below the 4x4 route's 0.2441:
        # the propulsion damping acts along the drift, which couples mode m
        # with m +- 2, so the 4x4 is not exact for the flock
        pot, n, prop = PowerLaw(5, 1.9), 64, Propulsion(1.0, 1.0)
        ring = flock_ring(pot, n, prop.asymptotic_speed)
        cfg = SimConfig(model="propulsion", potential=pot, n=n, t_final=60.0, propulsion=prop,
                        rtol=1e-10, atol=1e-13)
        seeded = ic_flock_ring(ring, perturbation=ModePerturbation(3, 1e-8))
        metrics = integrate(cfg, seeded, reference=ring).metrics
        late = metrics.t >= 30.0
        simulated = np.polyfit(metrics.t[late], np.log(metrics.eta_rel[late]), 1)[0]
        L = full_flock_jacobian(full_hessian(pot, ring_positions(ring)), prop)
        full = float(np.max(np.linalg.eigvals(L).real))
        reduced = float(eig4(flock_mode_matrix(5, 1.9, n, 3, prop))[0].real)
        assert abs(simulated - full) < 0.05 * full
        assert simulated < 0.5 * reduced

    def test_simulated_mill_grows_at_the_4x4_rate(self):
        # in the co-rotating frame the mill's Jacobian commutes with rotation,
        # so its mode-m 4x4 is exact: a mode-3 seed grows at the 4x4's top
        # real part (0.12724; the next mode sits at 0.0099), unlike the flock
        pot, n, prop = PowerLaw(6, 2.5), 24, Propulsion(1.0, 1.0)
        ring = mill_ring(pot, n, 1.0)
        cfg = SimConfig(model="propulsion", potential=pot, n=n, t_final=40.0, propulsion=prop,
                        rtol=1e-8, atol=1e-11)
        seeded = ic_mill_ring(ring, perturbation=ModePerturbation(3, 1e-8))
        metrics = integrate(cfg, seeded, reference=ring).metrics
        late = metrics.t >= 15.0
        simulated = np.polyfit(metrics.t[late], np.log(metrics.eta_rel[late]), 1)[0]
        summary, _ = mode_envelope("mill", 6, 2.5, n, alpha=1.0, speed=1.0, m_min=3, m_max=3)
        assert abs(simulated - summary.max_real) < 0.02 * summary.max_real

    def test_dense_eigvals_symmetric_descending(self):
        A = np.diag([3.0, -1.0, 2.0])
        vals = dense_eigvals(A)
        assert np.array_equal(vals, [3.0, 2.0, -1.0])

    def test_dense_eigvals_residual_contract(self, rng):
        A = rng.standard_normal((12, 12))
        vals = dense_eigvals(A)
        scale = max(1.0, float(np.max(np.abs(A))))
        for lam in vals:
            smin = np.linalg.svd(A - lam * np.eye(12), compute_uv=False)[-1]
            assert smin < 1e-9 * scale

    def test_dense_eigvals_size_cap(self):
        with pytest.raises(ValueError):
            dense_eigvals(np.zeros((129, 129)))

    def test_witness_small_case(self):
        rec = theorem_witness(4, 2, 8, Propulsion(1.0, 1.0))
        assert rec["agree"] is True

    def test_witness_size_cap(self):
        with pytest.raises(ValueError):
            theorem_witness(4, 2, 64, Propulsion(1.0, 1.0))
        with pytest.raises(TypeError):
            theorem_witness(4, 2, 8, "neither")
