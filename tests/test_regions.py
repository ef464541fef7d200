import json
import os
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from swarmlab.regions import (
    GridSpec,
    _pool_size,
    RegionMap,
    gamma_sweep,
    scan_cs_flock,
    scan_flock,
    scan_mill,
    scan_speed_b,
    separatrix_check,
)
from swarmlab import regions, rings, spectra
from swarmlab.spectra import Classification, mill_mode_matrix, mode_envelope


def small_spec(**fixed):
    return GridSpec("a", 3.0, 7.0, 3, "b", 0.5, 2.5, 3, fixed=fixed)


class TestGridSpec:
    def test_axis_values(self):
        spec = small_spec(n=100)
        assert np.allclose(spec.x_values, [3.0, 5.0, 7.0])
        assert np.allclose(spec.y_values, [0.5, 1.5, 2.5])

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec("a", 3.0, 7.0, 1, "b", 0.5, 2.5, 3)
        with pytest.raises(ValueError):
            GridSpec("a", 7.0, 3.0, 3, "b", 0.5, 2.5, 3)
        with pytest.raises(ValueError):
            GridSpec("a", 3.0, 7.0, 3, "b", 2.5, 2.5, 3)

    def test_to_dict_round_trip(self):
        spec = small_spec(n=64, m_max=10)
        d = spec.to_dict()
        assert d["x"] == {"name": "a", "min": 3.0, "max": 7.0, "count": 3}
        assert d["fixed"] == {"n": 64, "m_max": 10}


class TestScanFlock:
    def test_reference_classifications(self):
        # worked out once at N=1000 and frozen; the x=a, y=b grid covers
        # clustering (small b relative to a), the stable wedge, and the
        # upper instability
        result = scan_flock(small_spec(n=1000))
        got = {
            (c.x, c.y): c.classification for c in result.cells
        }
        assert got[(3.0, 1.5)] == Classification.STABLE
        assert got[(5.0, 1.5)] == Classification.STABLE
        assert got[(3.0, 2.5)] == Classification.UNSTABLE
        assert got[(5.0, 0.5)] == Classification.UNSTABLE
        assert got[(5.0, 2.5)] == Classification.UNSTABLE
        assert got[(7.0, 0.5)] == Classification.UNSTABLE
        assert got[(7.0, 1.5)] == Classification.UNSTABLE
        assert got[(7.0, 2.5)] == Classification.UNSTABLE

    def test_reference_worst_modes(self):
        result = scan_flock(small_spec(n=1000))
        by_xy = {(c.x, c.y): c for c in result.cells}
        # repulsion-dominated cells break at the shortest wavelength
        assert by_xy[(5.0, 0.5)].critical_mode == 499
        assert by_xy[(5.0, 0.5)].max_real == pytest.approx(25.36, abs=0.05)
        # the upper instability is a long-wavelength clustering mode
        assert by_xy[(5.0, 2.5)].critical_mode == 3
        assert by_xy[(3.0, 2.5)].critical_mode == 5

    def test_invalid_cells_kept(self):
        spec = GridSpec("a", 1.0, 2.0, 2, "b", 1.5, 2.5, 2, fixed={"n": 50})
        result = scan_flock(spec)
        invalid = [c for c in result.cells if c.classification == Classification.INVALID]
        assert len(invalid) == 3  # only (a=2, b=1.5) satisfies b < a
        assert all(c.error for c in invalid)
        assert len(result.cells) == 4

    def test_worker_count_does_not_change_bytes(self):
        spec = small_spec(n=200)
        one = scan_flock(spec, workers=1)
        four = scan_flock(spec, workers=4)
        assert one.csv_text() == four.csv_text()

    @pytest.mark.parametrize("scan, axis, fixed", [
        (scan_mill, "a", {"speed": 0.5}),
        (scan_cs_flock, "a", {"gamma": 0.7}),
        (scan_speed_b, "speed", {"a": 5.0}),
    ], ids=["mill", "flock-cs", "speed-b"])
    def test_4x4_routes_give_the_same_bytes_on_two_workers(self, scan, axis, fixed, monkeypatch):
        # m_max = 198 caps a block at _BLOCK_MODES // 197 cells, so each
        # pool thread runs several blocks; the speed-b scan cuts one block
        # per speed
        blocks, worst_modes = [], regions._worst_modes

        def recording(model, a, *args):
            blocks.append((threading.get_ident(), len(a), id(rings._workspaces.buffers)))
            return worst_modes(model, a, *args)

        monkeypatch.setattr(regions, "_worst_modes", recording)
        lo = 0.0 if axis == "speed" else 3.0
        spec = GridSpec(axis, lo, lo + 4.0, 8, "b", 0.5, 2.5, 8,
                        fixed={"n": 200, "m_max": 198, **fixed})
        one = scan(spec, workers=1)
        assert not hasattr(rings._workspaces, "buffers")
        serial, blocks[:] = blocks[:], []
        two = scan(spec, workers=2)
        assert not hasattr(rings._workspaces, "buffers")
        assert one.csv_text() == two.csv_text()
        # each thread kept one workspace across its blocks of one size
        for run in (serial, blocks):
            for thread in {t for t, _, _ in run}:
                mine = [(size, ws) for t, size, ws in run if t == thread]
                assert len({ws for size, ws in mine if size == mine[0][0]}) == 1
        assert max(len([b for b in serial if b[1] == size]) for _, size, _ in serial) > 1
        if (os.cpu_count() or 1) > 1:
            assert len({t for t, _, _ in blocks}) == 2
            assert threading.get_ident() not in {t for t, _, _ in blocks}

    def test_a_failing_scan_drops_its_workspaces(self, monkeypatch):
        def failing(*args):
            raise RuntimeError("stop")

        monkeypatch.setattr(regions, "_worst_modes", failing)
        for workers in (1, 2):
            with pytest.raises(RuntimeError, match="stop"):
                scan_mill(small_spec(n=50, speed=0.5), workers=workers)
            assert not hasattr(rings._workspaces, "buffers")

    def test_pool_size_capped_by_jobs_and_cores(self):
        # pure arithmetic: no pool is built for these requests
        assert _pool_size(10**6, 400, 2) == 2
        assert _pool_size(10**6, 3, 64) == 3
        assert _pool_size(4, 400, 8) == 4
        assert _pool_size(8, 1, 8) == 1
        assert _pool_size(8, 0, 8) == 1

    @pytest.mark.parametrize("workers", [0, -5])
    def test_workers_below_one_rejected_before_any_cell(self, workers, monkeypatch):
        def no_block(*args):
            raise AssertionError("a block ran")

        monkeypatch.setattr(regions, "_block", no_block)
        with pytest.raises(ValueError, match="need an integer workers >= 1, "
                                             f"got workers={workers}"):
            scan_mill(small_spec(n=50, speed=0.5), workers=workers)

    @pytest.mark.parametrize("workers", [2.5, 1.0, True, "2"])
    def test_non_integer_workers_rejected_before_any_cell(self, workers, monkeypatch):
        def no_block(*args):
            raise AssertionError("a block ran")

        monkeypatch.setattr(regions, "_block", no_block)
        for scan in (scan_flock, scan_mill):
            with pytest.raises(ValueError, match=re.escape(f"got workers={workers!r}")):
                scan(small_spec(n=50, speed=0.5), workers=workers)
        with pytest.raises(ValueError, match=re.escape(
                f"need an integer workers >= 1, got workers={workers!r}")):
            _pool_size(workers, 10, 2)
        assert _pool_size(np.int64(2), 10, 4) == 2

    # n 20.7 used to scan n = 20, m_max 5.5 died with an IndexError, and n
    # true asked for m_max >= 2
    @pytest.mark.parametrize("run, needle", [
        (lambda: scan_flock(GridSpec("a", 4, 5, 2, "b", 1.5, 2, 2, fixed={"n": 20.7})), "n=20.7"),
        (lambda: scan_flock(GridSpec("a", 4, 5, 2, "b", 1.5, 2, 2, fixed={"n": True})), "n=True"),
        (lambda: scan_flock(GridSpec("a", 4, 5, 2, "b", 1.5, 2, 2, fixed={"n": 20, "m_max": 5.5})),
         "m_max=5.5"),
        (lambda: separatrix_check([3.0], 40, m_max=5.5), "m_max=5.5"),
    ], ids=["scan-n-float", "scan-n-bool", "scan-m_max-float", "separatrix-m_max-float"])
    def test_non_integer_n_or_m_max_rejected_before_any_cell(self, run, needle, monkeypatch):
        def no_solve(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(regions, "_block", no_solve)
        monkeypatch.setattr(regions, "_mode_range_stable", no_solve)
        with pytest.raises(ValueError, match=re.escape(f"got {needle}")):
            run()

    # a true alpha and speed used to scan at 1, a true a at a = 1, steps
    # 2.5 bisected three times, a true gamma ran gamma 1 and a true grid
    # bound spanned the axis from 1
    @pytest.mark.parametrize("run, needle", [
        (lambda: scan_flock(GridSpec("a", 4, 5, 2, "b", 1.5, 2, 2,
                                     fixed={"n": 20, "alpha": True, "speed": True})), "alpha=True"),
        (lambda: scan_speed_b(GridSpec("speed", 0, 1, 2, "b", 1.5, 2, 2,
                                       fixed={"n": 20, "a": True})), "a=True"),
        (lambda: separatrix_check([3.0], 40, steps=2.5), "steps=2.5"),
        (lambda: gamma_sweep(4, 2, 20, 3, [1.0, True]), "gamma=True"),
        (lambda: GridSpec("a", 4, 5, 2, "b", True, 2, 2, fixed={"n": 20}), "y_min=True"),
    ], ids=["scan-alpha-bool", "speed-b-a-bool", "separatrix-steps-float", "gamma-sweep-bool",
            "grid-bound-bool"])
    def test_unusable_number_rejected_before_any_cell(self, run, needle, monkeypatch):
        def no_solve(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(regions, "_block", no_solve)
        monkeypatch.setattr(regions, "_mode_range_stable", no_solve)
        with pytest.raises(ValueError, match=re.escape(f"got {needle}")):
            run()

    def test_subgrid_cells_match_full_grid(self):
        full = scan_flock(small_spec(n=100))
        sub = scan_flock(GridSpec("a", 3.0, 7.0, 2, "b", 0.5, 2.5, 2, fixed={"n": 100}))
        full_map = {(c.x, c.y): c for c in full.cells}
        for c in sub.cells:
            ref = full_map[(c.x, c.y)]
            assert c.classification == ref.classification
            assert c.max_real == ref.max_real
            assert c.critical_mode == ref.critical_mode


class TestScanVariants:
    def test_cs_matches_flock_classifications(self):
        spec = GridSpec("a", 2.5, 7.0, 4, "b", 0.3, 3.1, 4, fixed={"n": 200})
        flock = scan_flock(spec)
        cs = scan_cs_flock(GridSpec("a", 2.5, 7.0, 4, "b", 0.3, 3.1, 4,
                                    fixed={"n": 200, "gamma": 1.0}))
        for cf, cc in zip(flock.cells, cs.cells):
            assert cf.classification == cc.classification

    def test_mill_speed_zero_equals_flock(self):
        spec = GridSpec("a", 2.5, 7.0, 5, "b", 0.3, 3.1, 5, fixed={"n": 200})
        flock = scan_flock(spec)
        mill0 = scan_mill(GridSpec("a", 2.5, 7.0, 5, "b", 0.3, 3.1, 5,
                                   fixed={"n": 200, "speed": 0.0, "alpha": 1.0}))
        for cf, cm in zip(flock.cells, mill0.cells):
            assert cf.classification == cm.classification

    def test_mill_reference_points(self):
        spec = GridSpec("a", 5.0, 6.0, 2, "b", 0.5, 1.25, 2,
                        fixed={"n": 1000, "speed": 0.5, "alpha": 1.0})
        result = scan_mill(spec)
        by_xy = {(c.x, c.y): c.classification for c in result.cells}
        assert by_xy[(5.0, 1.25)] == Classification.STABLE
        assert by_xy[(5.0, 0.5)] == Classification.UNSTABLE

    def test_speed_b_scan_and_degenerate_column(self):
        spec = GridSpec("speed", 0.0, 0.5, 2, "b", 0.8, 1.42, 2,
                        fixed={"n": 200, "a": 5.0, "alpha": 1.0})
        result = scan_speed_b(spec)
        by_xy = {(c.x, c.y): c.classification for c in result.cells}
        assert by_xy[(0.5, 1.42)] == Classification.STABLE
        assert by_xy[(0.5, 0.8)] == Classification.UNSTABLE
        # the speed=0 column reduces to the flock problem
        flock = scan_flock(GridSpec("a", 5.0, 6.0, 2, "b", 0.8, 1.42, 2,
                                    fixed={"n": 200}))
        flock_at = {c.y: c.classification for c in flock.cells if c.x == 5.0}
        assert by_xy[(0.0, 0.8)] == flock_at[0.8]
        assert by_xy[(0.0, 1.42)] == flock_at[1.42]

    def test_speed_b_requires_fixed_a(self):
        spec = GridSpec("speed", 0.1, 0.5, 2, "b", 0.8, 1.4, 2, fixed={"n": 100})
        with pytest.raises(KeyError):
            scan_speed_b(spec)


class TestSpectrumAgreement:
    """mode_envelope (spectrum) and the region scans give one verdict."""

    def test_flock_grid_verdicts_agree(self):
        spec = GridSpec("a", 2.6, 6.8, 20, "b", 0.3, 2.4, 20, fixed={"n": 1000})
        region = scan_flock(spec)
        differ = []
        for cell in region.cells:
            if cell.classification is Classification.INVALID:
                continue
            summary, _ = mode_envelope("flock", cell.x, cell.y, 1000)
            if summary.classification != cell.classification:
                differ.append((cell.x, cell.y))
        assert differ == []

    @pytest.mark.parametrize("a, b, n, want", [
        (4, 2, 64, Classification.MARGINAL),  # det S = 0 in every mode m >= 3
        (5, 1.25, 1000, Classification.STABLE),
        (3, 1.5, 1000, Classification.STABLE),
    ])
    def test_pinned_verdicts(self, a, b, n, want):
        summary, _ = mode_envelope("flock", a, b, n)
        cell = scan_flock(GridSpec("a", a, a + 1, 2, "b", b, b + 0.1, 2, fixed={"n": n})).cells[0]
        assert (cell.x, cell.y) == (a, b)
        assert summary.classification == cell.classification == want

    @pytest.mark.parametrize("scan, model, fixed", [
        (scan_cs_flock, "flock-cs", {"gamma": 0.7}),
        (scan_mill, "mill", {"alpha": 0.9, "speed": 0.5}),
    ])
    def test_4x4_cells_equal_the_envelope_summary(self, scan, model, fixed):
        region = scan(GridSpec("a", 2.6, 6.8, 4, "b", 0.3, 2.4, 4, fixed={"n": 120, **fixed}))
        for cell in region.cells:
            if cell.classification is Classification.INVALID:
                continue
            summary, _ = mode_envelope(model, cell.x, cell.y, 120, **fixed)
            assert (cell.classification, cell.max_real, cell.critical_mode) == (
                summary.classification, summary.max_real, summary.m)

    @pytest.mark.parametrize("scan", [scan_flock, scan_mill])
    def test_rest_cells_report_the_top_shape_eigenvalue(self, scan):
        # scan_mill at the default speed 0 is the flock problem
        region = scan(GridSpec("a", 2.6, 6.8, 4, "b", 0.3, 2.4, 4, fixed={"n": 120}))
        for cell in region.cells:
            if cell.classification is Classification.INVALID:
                continue
            # the shape matrix is the speed-0 mill's rows 3-4, columns 1-2
            sm = mill_mode_matrix(cell.x, cell.y, 120, cell.critical_mode, 1.0, 0.0).entries[2:, :2]
            mu1 = np.linalg.eigvalsh(sm)[-1]
            assert cell.max_real == pytest.approx(mu1, rel=1e-12)

    def test_scans_build_no_reports(self, monkeypatch):
        def no_report(*args, **kwargs):
            raise AssertionError("SpectralReport built")

        monkeypatch.setattr(spectra, "SpectralReport", no_report)
        spec = GridSpec("a", 3.0, 5.0, 2, "b", 1.0, 2.0, 2, fixed={"n": 60, "speed": 0.5})
        for scan in (scan_flock, scan_cs_flock, scan_mill):
            cells = scan(spec).cells
            assert all(c.classification is not Classification.INVALID for c in cells)
        speed_b = GridSpec("speed", 0.0, 0.5, 2, "b", 1.0, 2.0, 2, fixed={"n": 60, "a": 5.0})
        assert all(c.error is None for c in scan_speed_b(speed_b).cells)
        assert separatrix_check([3.0], n=100, steps=4)[0][1] > 0.5


def outcome(cell):
    return cell.critical_mode, repr(cell.max_real), cell.classification, cell.error


class TestBlocks:
    """Scans run consecutive cells as one stack; each cell is what it is alone."""

    @pytest.mark.parametrize("n", [32, 64])
    @pytest.mark.parametrize("scan, fixed", [
        (scan_mill, {"speed": 0.5}),
        (scan_cs_flock, {"gamma": 0.7}),
        (scan_flock, {}),
        (scan_speed_b, {"a": 5.0}),
    ], ids=["mill", "flock-cs", "flock", "speed-b"])
    def test_each_cell_equals_the_cell_alone(self, n, scan, fixed, monkeypatch):
        blocks, worst_modes = [], regions._worst_modes

        def recording(model, a, *args):
            blocks.append((model, len(a)))
            return worst_modes(model, a, *args)

        monkeypatch.setattr(regions, "_worst_modes", recording)
        if scan is scan_speed_b:  # a speed-0 column, and b >= a cells
            spec = GridSpec("speed", 0.0, 0.9, 4, "b", 0.4, 5.5, 5, fixed={"n": n, **fixed})
        else:
            spec = GridSpec("a", 1.5, 7.0, 4, "b", 0.4, 3.0, 5, fixed={"n": n, **fixed})
        cells = scan(spec).cells
        assert max(size for _, size in blocks) > 1
        model = blocks[0][0]
        lone = {"n": n, "m_max": (n - 1) // 2, "alpha": 1.0,
                "gamma": fixed.get("gamma", 1.0), "speed": fixed.get("speed", 0.0)}
        for cell in cells:
            if scan is scan_speed_b:
                alone = regions._block(model, lone, cell.x, [(cell.x, cell.y, 5.0, cell.y)])[0]
            else:
                alone = regions._block(model, lone, lone["speed"],
                                       [(cell.x, cell.y, cell.x, cell.y)])[0]
            assert outcome(cell) == outcome(alone)
        assert any(cell.error == "requires b < a" for cell in cells)

    @pytest.mark.parametrize("scan, axis, fixed", [
        (scan_mill, "a", {"speed": 0.5}),
        (scan_speed_b, "speed", {"a": 5.0}),
    ], ids=["mill", "speed-b"])
    def test_blocks_are_cut_from_valid_cells(self, scan, axis, fixed, monkeypatch):
        # a grid that straddles b = a: blocks hold only b < a cells, so every
        # block but each speed's last has cells_per_block of them, and the
        # invalid rows go back in grid order, as each cell gives alone
        blocks, worst_modes = [], regions._worst_modes

        def recording(model, a, b, *args):
            assert (np.asarray(b) < np.asarray(a)).all()
            blocks.append((args[-1], len(a)))
            return worst_modes(model, a, b, *args)

        monkeypatch.setattr(regions, "_worst_modes", recording)
        monkeypatch.setattr(regions, "_BLOCK_MODES", 7 * 30)  # 7 cells at n = 64
        if axis == "speed":
            spec = GridSpec("speed", 0.0, 0.9, 4, "b", 0.4, 7.0, 13, fixed={"n": 64, **fixed})
        else:
            spec = GridSpec("a", 1.5, 7.0, 6, "b", 0.4, 3.0, 7, fixed={"n": 64, **fixed})
        result = scan(spec)
        assert result.metadata["cells_per_block"] == 7
        speeds = list(dict.fromkeys(speed for speed, _ in blocks))
        assert len(speeds) == (4 if axis == "speed" else 1)
        for speed in speeds:
            sizes = [size for s, size in blocks if s == speed]
            assert sizes[:-1] == [7] * (len(sizes) - 1) and 0 < sizes[-1] <= 7
        invalid = sum(y >= fixed.get("a", x) for x in spec.x_values for y in spec.y_values)
        assert invalid == (16 if axis == "speed" else 5)
        assert sum(size for _, size in blocks) == len(result.cells) - invalid
        lone = {"n": 64, "m_max": 31, "alpha": 1.0, "gamma": 1.0, "speed": fixed.get("speed")}
        alone = [
            regions._block("mill", lone, cell.x if axis == "speed" else lone["speed"],
                           [(cell.x, cell.y, fixed.get("a", cell.x), cell.y)])[0]
            for cell in result.cells
        ]
        assert result.csv_text() == RegionMap(spec, result.model, alone, {}).csv_text()
        assert result.metadata["invalid_reasons"] == {"requires b < a": invalid}

    def test_a_poisoned_cell_leaves_its_block_alone(self, monkeypatch):
        # one cell gets a NaN coupling; its grid also holds b >= a cells
        spec = GridSpec("a", 1.5, 6.0, 4, "b", 0.5, 2.5, 4, fixed={"n": 64, "speed": 0.5})
        clean = scan_mill(spec)
        bad = (float(spec.x_values[2]), float(spec.y_values[1]))
        couplings = spectra._ring_couplings

        def poisoned(*args):
            R, i1p, i1m, i2 = couplings(*args)
            i1p = i1p.copy()
            i1p[5, (np.asarray(args[0]) == bad[0]) & (np.asarray(args[1]) == bad[1])] = np.nan
            return R, i1p, i1m, i2

        monkeypatch.setattr(spectra, "_ring_couplings", poisoned)
        region = scan_mill(spec)
        with pytest.raises(np.linalg.LinAlgError) as solved:
            np.linalg.eigvals(np.full((1, 4, 4), np.nan))
        for before, after in zip(clean.cells, region.cells):
            if (after.x, after.y) == bad:
                assert after.classification is Classification.INVALID
                assert after.error == str(solved.value)
            else:
                assert outcome(after) == outcome(before)
        meta = region.metadata
        assert meta["cells"] == 16 and meta["seconds"] > 0
        assert meta["invalid_reasons"] == {"requires b < a": 2, str(solved.value): 1}
        assert clean.metadata["invalid_reasons"] == {"requires b < a": 2}
        # the fallback's blocks of one ran in the scan's workspace, gone now
        assert not hasattr(rings._workspaces, "buffers")


class TestSerialization:
    def test_csv_layout(self):
        result = scan_flock(GridSpec("a", 3.0, 5.0, 2, "b", 1.0, 2.0, 2,
                                     fixed={"n": 50}))
        lines = result.csv_text().splitlines()
        assert lines[0] == "x,y,classification,max_real,critical_mode"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[0]) == 3.0
        assert first[2] in {"stable", "unstable", "marginal", "invalid"}
        # shortest round-trip: parsing back gives the same float
        cell = result.cells[0]
        assert float(first[3]) == cell.max_real

    def test_sidecar_and_write(self, tmp_path):
        result = scan_flock(GridSpec("a", 3.0, 5.0, 2, "b", 1.0, 2.0, 2,
                                     fixed={"n": 50}))
        paths = result.write(str(tmp_path / "map"))
        assert [p.rsplit(".", 1)[1] for p in paths] == ["csv", "json"]
        sidecar = json.loads((tmp_path / "map.json").read_text())
        assert sidecar["model"] == "flock"
        assert sidecar["grid"]["x"]["count"] == 2
        assert sidecar["metadata"]["artifact_version"]
        assert sidecar["metadata"]["m_max"] == 24  # the default (n-1)//2
        assert (tmp_path / "map.csv").read_text() == result.csv_text()

    def test_sidecar_records_the_block_cap(self, tmp_path, monkeypatch):
        # n = 50 scans modes 2..24: _BLOCK_MODES // 23 cells per block
        spec = GridSpec("a", 3.0, 5.0, 2, "b", 1.0, 2.0, 2, fixed={"n": 50, "speed": 0.5})
        result = scan_mill(spec)
        assert result.metadata["cells_per_block"] == regions._BLOCK_MODES // 23
        result.write(str(tmp_path / "map"))
        sidecar = json.loads((tmp_path / "map.json").read_text())
        assert sidecar["metadata"]["cells_per_block"] == regions._BLOCK_MODES // 23
        # a cap below one cell's modes still cuts blocks of one cell
        sizes, worst_modes = [], regions._worst_modes

        def recording(model, a, *args):
            sizes.append(len(a))
            return worst_modes(model, a, *args)

        monkeypatch.setattr(regions, "_worst_modes", recording)
        monkeypatch.setattr(regions, "_BLOCK_MODES", 10)
        capped = scan_mill(spec)
        assert capped.metadata["cells_per_block"] == 1 and sizes == [1] * 4
        assert capped.csv_text() == result.csv_text()
        # a cell of a small m_max still holds n-length weight and rfft rows:
        # it counts as the default range's 23 modes, not its own 4
        monkeypatch.setattr(regions, "_BLOCK_MODES", 3 * 23)
        few = scan_mill(GridSpec("a", 3.0, 5.0, 2, "b", 1.0, 2.0, 2,
                                 fixed={"n": 50, "m_max": 5, "speed": 0.5}))
        assert few.metadata["cells_per_block"] == 3

    def test_classification_grid_shape(self):
        result = scan_flock(small_spec(n=50))
        grid = result.classification_grid()
        assert grid.shape == (3, 3)
        # x-major ordering: row index follows the a axis
        assert grid[0, 2] == result.cells[2].classification


class TestSeparatrix:
    def test_boundary_approaches_limit_curve(self):
        rows_coarse = separatrix_check([3.0], n=500, steps=30)
        rows_fine = separatrix_check([3.0], n=5000, steps=30)
        (_, b_coarse, target, gap_coarse) = rows_coarse[0]
        (_, b_fine, _, gap_fine) = rows_fine[0]
        assert target == pytest.approx(1.5)
        # finite mode ranges miss the worst short wavelengths, so the
        # boundary sits below the m = infinity curve and rises toward it
        assert b_coarse < b_fine < target
        assert abs(gap_fine) < abs(gap_coarse) < 0.05

    def test_threads_get_the_serial_rows(self):
        # each thread solves in its own workspace; a short switch interval
        # interleaves their solves between numpy calls
        jobs = [[3.0, 4.5], [3.5], [2.5, 5.0], [4.0]]
        serial = [separatrix_check(a, n=2001, steps=12) for a in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=len(jobs)) as pool:
                futures = [pool.submit(separatrix_check, a, n=2001, steps=12) for a in jobs]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_frozen_boundary_values(self):
        rows = separatrix_check([3.0], n=500, steps=30)
        assert rows[0][1] == pytest.approx(1.46824, abs=1e-4)


class TestGammaSweep:
    def test_sign_constant_negative(self):
        rows = gamma_sweep(5, 1.5, 100, 3, [0.5, 1.0, 2.0, 4.0])
        assert [g for g, _ in rows] == [0.5, 1.0, 2.0, 4.0]
        assert all(v < 0 for _, v in rows)
        # rate depends on gamma even though the sign never moves
        values = [v for _, v in rows]
        assert max(values) - min(values) > 0.01

    def test_sign_constant_positive(self):
        # mode 5 drives the (3, 2.5) clustering instability at N=100
        rows = gamma_sweep(3, 2.5, 100, 5, [0.5, 1.0, 2.0, 4.0])
        assert all(v > 0 for _, v in rows)

    def test_frozen_values(self):
        rows = gamma_sweep(3, 2.5, 100, 5, [1.0])
        assert rows[0][1] == pytest.approx(0.0081934, abs=1e-6)
