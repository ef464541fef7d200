"""Every demo imports cleanly, so a demo that names a removed or renamed
function fails here.  Each demo runs only under ``__main__``, so importing
runs nothing.  The demos that finish in about half a second also run."""

import importlib.util
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))

# the demos that run, with main's arguments (mode_spectrum_tour takes
# sys.argv, here with its default parameters); fattening_and_clustering
# (about 15 s) and pattern_switch (about 7 s) only import
FAST = {"linear_theory_check": (), "mode_spectrum_tour": (["mode_spectrum_tour.py"],),
        "ring_radius_tour": (), "stability_region_map": ()}


def load(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demos_are_found():
    assert len(DEMOS) >= 6
    assert set(FAST) <= {path.stem for path in DEMOS}


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_imports(path):
    assert callable(load(path).main)


@pytest.mark.parametrize("name", FAST)
def test_fast_demo_runs(name, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # stability_region_map writes region_demo.csv/.json
    load(DEMO_DIR / f"{name}.py").main(*FAST[name])
    out = capsys.readouterr().out
    assert out.strip()
    if name == "ring_radius_tour":
        # the two Morse rings at speed 0.10, which only solve_radius_all finds
        assert "speed 0.10: radii 1.324048, 9.373296" in out
