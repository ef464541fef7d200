"""Command line front end.

Subcommands map one-to-one to the package's experiment types::

    swarmlab radius      ring radius for given potential / speed
    swarmlab spectrum    per-mode eigenvalues and classification (CSV)
    swarmlab region      parameter-plane stability map (CSV + JSON sidecar)
    swarmlab separatrix  lower stability boundary vs the a/(a-1) curve
    swarmlab gamma-sweep alignment-strength sweep of the worst eigenvalue
    swarmlab simulate    direct particle run from a JSON config
    swarmlab bifurcate   metric-vs-parameter sweep of simulations
    swarmlab validate    fast built-in invariant suite

Each ``cmd_*`` parses its arguments, computes, writes its data files and
returns ``(parameters, outputs, seed)``; :func:`main` alone maps
exceptions to exit codes and writes the JSON run manifest.  Exit codes:
0 success, 2 usage error (ValueError, TypeError, KeyError, OSError),
3 numerical failure (ArithmeticError, SimulationError), 4 validation
failure.  Errors are a single ``error: ...`` line on stderr.  ``--workers``
(default 1) sets the worker count of ``region`` and ``bifurcate``; results
never depend on it.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import hashlib
import json
import os
import platform
import sys

import numpy as np

from . import __version__
from .potentials import AlignmentKernel, Morse, PowerLaw, Propulsion
from .regions import (
    GridSpec,
    gamma_sweep,
    scan_cs_flock,
    scan_flock,
    scan_mill,
    scan_speed_b,
    separatrix_check,
)
from .rings import (
    RadiusProblem,
    continuum_radius,
    radius_residual,
    solve_radius,
    trig_moment,
)
from .sim import (
    ModePerturbation,
    RandomNoise,
    SimConfig,
    SimulationError,
    _start_ring,
    bifurcation_sweep,
    integrate,
)
from .spectra import (
    cs_flock_mode_matrix,
    eig4,
    flock_mode_matrix,
    mill_mode_matrix,
    mode_envelope,
    theorem_witness,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4


class _Parser(argparse.ArgumentParser):
    """argparse with single-line machine-parsable errors."""

    def error(self, message):
        raise SystemExit(_fail(EXIT_USAGE, message))


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    return code


def _now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


@functools.lru_cache(maxsize=1)
def _ufunc_fingerprint():
    """sha256 of the elementwise ufuncs that bit-for-bit results rest on.

    Simulations rest on np.hypot, np.power (whose scalar exponents 0.5, 2
    and -1 take their own loops) and np.exp, ring radii on np.float_power;
    each is evaluated on a fixed probe, so two builds that give one result
    for this probe agree on it to the last bit.  The pair kernel passes
    every other exponent as a (rows, 1) column, one np.power call per run
    of members, so the probe holds such a call too.
    """
    x = np.geomspace(1e-3, 1e3, 1001)
    results = [np.hypot(x, x[::-1]), np.float_power(x, 1.7), np.exp(-x / 8)]
    results += [np.power(x, e) for e in (0.5, 2.0, -1.0, 1.7)]
    results.append(np.power(x, np.array([[1.7], [-0.3], [4.0]])))
    return hashlib.sha256(b"".join(r.tobytes() for r in results)).hexdigest()


def _write_manifest(prefix, command, parameters, outputs, started, seed):
    manifest = {
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "artifact_version": __version__,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "nproc": os.cpu_count(),
            "ufunc_fingerprint": _ufunc_fingerprint(),
        },
        "started": started,
        "finished": _now(),
        "outputs": outputs,
    }
    with open(f"{prefix}.manifest.json", "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_text(path, text):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    return path


def _write_csv(path, header, lines):
    return _write_text(path, "\n".join([header, *lines]) + "\n")


def _flags(args):
    """The parsed flags of a command, as its manifest records them."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}


def _float_list(text, flag):
    values = [float(v) for v in text.split(",") if v]
    if not values:
        raise ValueError(f"empty {flag}")
    return values


# ---------------------------------------------------------------------------
# radius
# ---------------------------------------------------------------------------


def _potential_from_args(args):
    if args.morse:
        if args.a is not None or args.b is not None:
            raise ValueError("--morse excludes --a and --b")
        ca, cr, la, lr = args.morse
        return Morse(C_A=ca, C_R=cr, l_A=la, l_R=lr)
    if args.a is None or args.b is None:
        raise ValueError("need --a and --b (or --morse)")
    return PowerLaw(args.a, args.b)


def cmd_radius(args):
    problem = RadiusProblem(
        potential=_potential_from_args(args),
        n=args.n,
        speed=args.speed,
        bracket=tuple(args.bracket) if args.bracket else None,
    )
    ring = solve_radius(problem)
    residual = radius_residual(problem, ring.radius)
    print(f"R={ring.radius!r} omega={ring.omega!r} residual={residual!r} kind={ring.kind}")
    parameters = {**_flags(args), "radius": ring.radius, "omega": ring.omega, "residual": residual}
    return parameters, [], None


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def cmd_spectrum(args):
    if args.m is not None and args.m_max is not None:
        raise ValueError("--m excludes --m-max")
    if args.m is None and args.m_max is None:
        args.m_max = (args.n - 1) // 2
    m_min, m_max = (2, args.m_max) if args.m is None else (args.m, args.m)
    _, rows = mode_envelope(
        args.model, args.a, args.b, args.n,
        alpha=args.alpha, gamma=args.gamma, speed=args.speed,
        m_min=m_min, m_max=m_max,
    )
    lines = []
    for r in rows:
        res = ",".join(repr(float(v.real)) for v in r.eigenvalues)
        ims = ",".join(repr(float(v.imag)) for v in r.eigenvalues)
        lines.append(f"{r.m},{res},{ims},{r.classification.value}")
    csv_path = _write_csv(
        f"{args.out}.csv", "m,re1,re2,re3,re4,im1,im2,im3,im4,classification", lines
    )
    return _flags(args), [csv_path], None


# ---------------------------------------------------------------------------
# region
# ---------------------------------------------------------------------------


def _parse_axis(text):
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(f"grid axis must be name:min:max:count, got {text!r}")
    return parts[0], float(parts[1]), float(parts[2]), int(parts[3])


def _parse_fixed(pairs):
    fixed = {}
    int_keys = {"n", "m_max"}
    for item in pairs or []:
        if "=" not in item:
            raise ValueError(f"--fixed entries must be key=value, got {item!r}")
        key, value = item.split("=", 1)
        key = key.replace("-", "_")
        fixed[key] = int(value) if key in int_keys else float(value)
    return fixed


_REGION_SCANS = {
    "flock": scan_flock,
    "flock-cs": scan_cs_flock,
    "mill": scan_mill,
    "speed-b": scan_speed_b,
}


def cmd_region(args):
    spec = GridSpec(
        *_parse_axis(args.grid[0]), *_parse_axis(args.grid[1]), fixed=_parse_fixed(args.fixed)
    )
    region = _REGION_SCANS[args.model](spec, workers=args.workers)
    outputs = region.write(args.out)
    parameters = {"model": args.model, "grid": spec.to_dict(), "workers": args.workers}
    return parameters, outputs, None


def cmd_separatrix(args):
    a_values = _float_list(args.a_list, "--a-list")
    rows = separatrix_check(a_values, args.n, m_max=args.m_max, steps=args.steps)
    csv_path = _write_csv(
        f"{args.out}.csv",
        "a,b_boundary,a_over_a_minus_1,gap",
        (f"{a!r},{boundary!r},{target!r},{gap!r}" for a, boundary, target, gap in rows),
    )
    return {**_flags(args), "a_list": a_values}, [csv_path], None


def cmd_gamma_sweep(args):
    gammas = _float_list(args.gamma_list, "--gamma-list")
    rows = gamma_sweep(args.a, args.b, args.n, args.m, gammas)
    csv_path = _write_csv(
        f"{args.out}.csv", "gamma,max_re", (f"{g!r},{max_re!r}" for g, max_re in rows)
    )
    return {**_flags(args), "gamma_list": gammas}, [csv_path], None


# ---------------------------------------------------------------------------
# simulate / bifurcate
# ---------------------------------------------------------------------------


def _potential_from_json(data):
    kind = data.get("kind", "power-law")
    if kind == "power-law":
        return PowerLaw(data["a"], data["b"])
    raise ValueError(f"unknown potential kind {kind!r}")


def _perturbation_from_json(data):
    if data is None:
        return None
    kind = data.get("kind")
    if kind == "mode":
        return ModePerturbation(
            m=data["m"],
            xi_plus=data.get("xi_plus", 0.0),
            xi_minus=data.get("xi_minus", 0.0),
        )
    if kind == "noise":
        return RandomNoise(
            sigma_pos=data.get("sigma_pos", 0.0),
            sigma_vel=data.get("sigma_vel", 0.0),
        )
    raise ValueError(f"unknown perturbation kind {kind!r}")


_SIM_OVERRIDES = ("t_final", "seed", "n", "rtol", "atol", "sample_every")
# the SimConfig fields a config may leave out, to take SimConfig's defaults
_SIM_OPTIONAL = ("rtol", "atol", "seed", "sample_every", "min_distance_guard")


def _load_sim_config(args):
    """The SimConfig of --config with flag overrides, and its resolved JSON."""
    with open(args.config) as fh:
        data = json.load(fh)
    for key in _SIM_OVERRIDES:
        value = getattr(args, key)
        if value is not None:
            data[key] = value
    config = SimConfig(
        model=data["model"],
        potential=_potential_from_json(data["potential"]),
        n=data["n"],
        t_final=data["t_final"],
        propulsion=Propulsion(**data["propulsion"]) if "propulsion" in data else None,
        alignment=AlignmentKernel(**data["alignment"]) if "alignment" in data else None,
        **{key: data[key] for key in _SIM_OPTIONAL if key in data},
    )
    data.update({key: getattr(config, key) for key in _SIM_OVERRIDES})
    return config, data


def _ring_and_state(config, ic_data):
    kind = ic_data.get("kind", "flock")
    perturbation = _perturbation_from_json(ic_data.get("perturbation"))
    ring, start = _start_ring(config, kind, ic_data.get("speed"))
    key, ignored = ("direction", "orientation") if kind == "flock" else ("orientation", "direction")
    if ignored in ic_data:
        raise ValueError(f"a {kind} ring does not take ic.{ignored}")
    options = {key: ic_data[key]} if key in ic_data else {}
    rng = np.random.default_rng(config.seed)
    return ring, start(ring, perturbation=perturbation, rng=rng, **options)


def cmd_simulate(args):
    config, data = _load_sim_config(args)
    ring, state = _ring_and_state(config, data.get("ic", {}))
    result = integrate(config, state, reference=ring)
    outputs = [_write_text(f"{args.out}_metrics.csv", result.metrics.csv_text())]
    if args.traj:
        lines = (
            f"{st.t!r},{j},{st.positions[j,0]!r},{st.positions[j,1]!r},"
            f"{st.velocities[j,0]!r},{st.velocities[j,1]!r}"
            for st in result.states
            for j in range(st.n)
        )
        outputs.append(_write_csv(f"{args.out}_trajectory.csv", "t,j,x,y,vx,vy", lines))
    parameters = {"config": data, "ring_radius": ring.radius, "stats": result.stats}
    return parameters, outputs, config.seed


def cmd_bifurcate(args):
    config, data = _load_sim_config(args)
    values = _float_list(args.values, "--values")
    ic_data = data.get("ic", {})
    for key in ("direction", "orientation"):
        if key in ic_data:
            raise ValueError(f"bifurcate does not take ic.{key}; its members start from the default")
    rows = bifurcation_sweep(
        config,
        args.param,
        values,
        ic_kind=ic_data.get("kind", "flock"),
        metric=args.metric,
        perturbation=_perturbation_from_json(ic_data.get("perturbation")),
        ic_speed=ic_data.get("speed"),
        workers=args.workers,
    )
    csv_path = _write_csv(
        f"{args.out}.csv", "value,metric", (f"{value!r},{metric!r}" for value, metric in rows)
    )
    parameters = {"config": data, "param": args.param, "values": values, "metric": args.metric,
                  "seed_policy": "base_seed + value_index"}
    return parameters, [csv_path], config.seed


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _check_trig_exact():
    return all(abs(trig_moment(n, 2) - 0.5) == 0.0 for n in (5, 64, 333))


def _check_radius():
    ring = solve_radius(RadiusProblem(potential=PowerLaw(4, 2), n=1000, speed=0.0))
    return abs(ring.radius - 3 ** (-0.5)) < 1e-10


def _check_continuum():
    return abs(continuum_radius(4, 2, 0.0) - 3 ** (-0.5)) < 1e-12


def _check_zero_modes():
    a, b, n = 4.5, 1.7, 40
    flock = eig4(flock_mode_matrix(a, b, n, 1, Propulsion(1.3, 1.0)))
    cs = eig4(cs_flock_mode_matrix(a, b, n, 1, 0.8))
    mill0 = eig4(mill_mode_matrix(a, b, n, 1, 1.3, 0.0))
    mill = mill_mode_matrix(a, b, n, 1, 1.3, 0.5)
    omega = mill.params["omega"]
    lam = eig4(mill)
    return (
        min(abs(flock)) < 1e-8
        and min(abs(cs)) < 1e-8
        and min(abs(mill0)) < 1e-8
        and min(abs(lam - 1j * omega)) < 1e-8
    )


def _check_shape_hand_values():
    sm = mill_mode_matrix(4, 2, 4, 2, 1.0, 0.0).entries[2:, :2]
    d, t = sm[0, 0] * sm[1, 1] - sm[0, 1] * sm[1, 0], sm[0, 0] + sm[1, 1]
    target = np.array([[-1.0, -1 / 3], [-1 / 3, -1.0]])
    return np.max(np.abs(sm - target)) < 1e-12 and abs(d - 8 / 9) < 1e-12 and abs(t + 2) < 1e-12


def _check_eig_contract():
    mat = flock_mode_matrix(5, 1.5, 64, 3, Propulsion(1.0, 1.0))
    vals = eig4(mat)
    norm = mat.max_norm
    for lam in vals:
        resid = np.linalg.svd(mat.entries - lam * np.eye(4), compute_uv=False)[-1]
        if resid > 1e-9 * max(1.0, norm):
            return False
    tr = np.trace(mat.entries)
    det = np.linalg.det(mat.entries)
    return (
        abs(vals.sum() - tr) < 1e-9 * max(1.0, abs(tr))
        and abs(np.prod(vals) - det) < 1e-9 * max(1.0, abs(det))
    )


def _check_witness():
    ok = True
    for a, b in ((4, 2), (5, 0.5)):
        ok = ok and theorem_witness(a, b, 8, Propulsion(1.0, 1.0))["agree"]
        ok = ok and theorem_witness(a, b, 8, AlignmentKernel(1.0))["agree"]
    return ok


def _check_coupling_zeros():
    sm = mill_mode_matrix(4.5, 1.7, 23, 1, 1.0, 0.0).entries[2:, :2]
    return sm[0, 1] == 0.0 and sm[1, 1] == 0.0


_VALIDATIONS = [
    ("trig moment S2 exact", _check_trig_exact),
    ("radius closed form (4,2)", _check_radius),
    ("continuum radius closed form", _check_continuum),
    ("mode-1 zero modes", _check_zero_modes),
    ("shape matrix hand values", _check_shape_hand_values),
    ("eigenvalue residual contract", _check_eig_contract),
    ("full-system witness n=8", _check_witness),
    ("coupling structural zeros", _check_coupling_zeros),
]


def cmd_validate(args):
    failures = 0
    results = {}
    for name, fn in _VALIDATIONS:
        try:
            ok = bool(fn())
        except Exception as exc:  # a crash is a failure, not an abort
            ok = False
            results[name] = f"raised {exc!r}"
        results.setdefault(name, "ok" if ok else "failed")
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failures += 0 if ok else 1
    return {"results": results, "failures": failures}, [], None


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def build_parser():
    parser = _Parser(prog="swarmlab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"swarmlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("radius", help="solve a ring radius")
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--speed", type=float, default=0.0)
    p.add_argument("--morse", type=float, nargs=4, metavar=("C_A", "C_R", "L_A", "L_R"))
    p.add_argument("--bracket", type=float, nargs=2, metavar=("LO", "HI"))
    p.add_argument("--out", default="swarmlab_radius")
    p.set_defaults(func=cmd_radius)

    p = sub.add_parser("spectrum", help="per-mode eigenvalue table")
    p.add_argument("--model", choices=("flock", "flock-cs", "mill"), required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int)
    p.add_argument("--m-max", dest="m_max", type=int)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--speed", type=float, default=0.0)
    p.add_argument("--out", default="swarmlab_spectrum")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("region", help="stability map over a parameter grid")
    p.add_argument("--model", choices=tuple(_REGION_SCANS), required=True)
    p.add_argument("--grid", nargs=2, required=True, metavar=("X", "Y"),
                   help="axis specs name:min:max:count (x then y)")
    p.add_argument("--fixed", nargs="*", metavar="K=V")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="swarmlab_region")
    p.set_defaults(func=cmd_region)

    p = sub.add_parser("separatrix", help="lower stability boundary vs a/(a-1)")
    p.add_argument("--a-list", dest="a_list", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m-max", dest="m_max", type=int)
    p.add_argument("--steps", type=int, default=40)
    p.add_argument("--out", default="swarmlab_separatrix")
    p.set_defaults(func=cmd_separatrix)

    p = sub.add_parser("gamma-sweep", help="alignment-strength eigenvalue sweep")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--gamma-list", dest="gamma_list", required=True)
    p.add_argument("--out", default="swarmlab_gamma_sweep")
    p.set_defaults(func=cmd_gamma_sweep)

    # --config and its overrides, shared by simulate and bifurcate
    sim_flags = _Parser(add_help=False)
    sim_flags.add_argument("--config", required=True)
    sim_flags.add_argument("--t-final", dest="t_final", type=float)
    sim_flags.add_argument("--seed", type=int)
    sim_flags.add_argument("--n", type=int)
    sim_flags.add_argument("--rtol", type=float)
    sim_flags.add_argument("--atol", type=float)
    sim_flags.add_argument("--sample-every", dest="sample_every", type=float)
    p = sub.add_parser("simulate", parents=[sim_flags],
                       help="run one simulation from a JSON config")
    p.add_argument("--out", default="swarmlab_sim")
    p.add_argument("--traj", action="store_true", help="also write the trajectory CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bifurcate", parents=[sim_flags],
                       help="sweep a parameter over simulations")
    p.add_argument("--param", choices=("b", "speed"), required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--metric", choices=("cluster", "fatten", "polarization", "angular_momentum"),
                   default="cluster")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="swarmlab_bifurcation")
    p.set_defaults(func=cmd_bifurcate)

    p = sub.add_parser("validate", help="run the fast invariant suite")
    p.add_argument("--out", default="swarmlab_validate")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None):
    """Run one subcommand and return its exit code (see the module docstring)."""
    args = build_parser().parse_args(argv)
    started = _now()
    try:
        parameters, outputs, seed = args.func(args)
    except (ArithmeticError, SimulationError) as exc:
        return _fail(EXIT_NUMERICAL, exc)
    except KeyError as exc:
        return _fail(EXIT_USAGE, f"missing key {exc}")
    except (ValueError, TypeError, OSError) as exc:
        return _fail(EXIT_USAGE, exc)
    if outputs:
        print(f"wrote {', '.join(outputs)}")
    _write_manifest(args.out, args.command, parameters, outputs, started, seed)
    if args.command == "validate" and parameters["failures"]:
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
