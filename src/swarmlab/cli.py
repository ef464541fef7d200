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

Every command writes a JSON run manifest referencing its output files.
Exit codes: 0 success, 2 usage error, 3 numerical failure, 4 validation
failure.  Errors are a single ``error: ...`` line on stderr.  The
SWARMLAB_WORKERS environment variable (or --workers) sets the worker
count; results never depend on it.
"""

from __future__ import annotations

import argparse
import datetime
import json
import platform
import sys

import numpy as np

from . import __version__
from .potentials import AlignmentKernel, Morse, PowerLaw, Propulsion
from .regions import (
    GridSpec,
    gamma_sweep,
    resolve_workers,
    scan_cs_flock,
    scan_flock,
    scan_mill,
    scan_speed_b,
    separatrix_check,
)
from .rings import (
    RadiusProblem,
    continuum_radius,
    flock_ring,
    mill_ring,
    radius_residual,
    solve_radius,
    trig_moment,
)
from .sim import (
    ModePerturbation,
    RandomNoise,
    SimConfig,
    SimulationError,
    bifurcation_sweep,
    ic_flock_ring,
    ic_mill_ring,
    integrate,
)
from .spectra import (
    cs_flock_mode_matrix,
    det_trace,
    eig4,
    flock_mode_matrix,
    mill_mode_matrix,
    mode_envelope,
    mode_cross_coupling,
    mode_self_coupling,
    shape_matrix,
    theorem_witness,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4


class _Parser(argparse.ArgumentParser):
    """argparse with single-line machine-parsable errors."""

    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fail(code, message):
    print(f"error: {message}", file=sys.stderr)
    return code


def _now():
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _write_manifest(prefix, command, parameters, outputs, started, seed=None):
    path = f"{prefix}.manifest.json"
    manifest = {
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "artifact_version": __version__,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
        "started": started,
        "finished": _now(),
        "outputs": outputs,
    }
    with open(path, "w", newline="\n") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_text(path, text):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# radius
# ---------------------------------------------------------------------------


def _potential_from_args(args):
    if getattr(args, "morse", None):
        ca, cr, la, lr = args.morse
        return Morse(C_A=ca, C_R=cr, l_A=la, l_R=lr)
    if args.a is None or args.b is None:
        raise ValueError("need --a and --b (or --morse)")
    return PowerLaw(args.a, args.b)


def cmd_radius(args):
    started = _now()
    try:
        potential = _potential_from_args(args)
        problem = RadiusProblem(
            potential=potential,
            n=args.n,
            speed=args.speed,
            bracket=tuple(args.bracket) if args.bracket else None,
        )
    except (ValueError, TypeError) as exc:
        return _fail(EXIT_USAGE, exc)
    try:
        ring = solve_radius(problem)
    except ValueError as exc:
        return _fail(EXIT_NUMERICAL, exc)
    residual = radius_residual(problem, ring.radius)
    print(f"R={ring.radius!r} omega={ring.omega!r} residual={residual!r} kind={ring.kind}")
    _write_manifest(
        args.out,
        "radius",
        {
            "a": args.a,
            "b": args.b,
            "morse": args.morse,
            "n": args.n,
            "speed": args.speed,
            "bracket": args.bracket,
            "radius": ring.radius,
            "omega": ring.omega,
            "residual": residual,
        },
        [],
        started,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------


def cmd_spectrum(args):
    started = _now()
    if args.m is None and args.m_max is None:
        args.m_max = (args.n - 1) // 2
    m_min, m_max = (2, args.m_max) if args.m is None else (args.m, args.m)
    try:
        _, rows = mode_envelope(
            args.model, args.a, args.b, args.n,
            alpha=args.alpha, gamma=args.gamma, speed=args.speed,
            m_min=m_min, m_max=m_max,
        )
    except (ValueError, TypeError) as exc:
        return _fail(EXIT_USAGE, exc)
    except ArithmeticError as exc:
        return _fail(EXIT_NUMERICAL, exc)
    lines = ["m,re1,re2,re3,re4,im1,im2,im3,im4,classification"]
    for r in rows:
        res = ",".join(repr(float(v.real)) for v in r.eigenvalues)
        ims = ",".join(repr(float(v.imag)) for v in r.eigenvalues)
        lines.append(f"{r.m},{res},{ims},{r.classification.value}")
    csv_path = _write_text(f"{args.out}.csv", "\n".join(lines) + "\n")
    print(f"wrote {csv_path}")
    _write_manifest(
        args.out,
        "spectrum",
        {
            "model": args.model, "a": args.a, "b": args.b, "n": args.n,
            "m": args.m, "m_max": args.m_max, "alpha": args.alpha,
            "beta": args.beta, "gamma": args.gamma, "speed": args.speed,
        },
        [csv_path],
        started,
    )
    return EXIT_OK


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
    started = _now()
    try:
        x_axis = _parse_axis(args.grid[0])
        y_axis = _parse_axis(args.grid[1])
        fixed = _parse_fixed(args.fixed)
        spec = GridSpec(
            x_name=x_axis[0], x_min=x_axis[1], x_max=x_axis[2], x_count=x_axis[3],
            y_name=y_axis[0], y_min=y_axis[1], y_max=y_axis[2], y_count=y_axis[3],
            fixed=fixed,
        )
        scan = _REGION_SCANS[args.model]
        workers = resolve_workers(args.workers)
    except (ValueError, KeyError) as exc:
        return _fail(EXIT_USAGE, exc)
    try:
        region = scan(spec, workers=workers)
    except (ValueError, ArithmeticError) as exc:
        return _fail(EXIT_NUMERICAL, exc)
    outputs = region.write(args.out)
    print(f"wrote {outputs[0]} and {outputs[1]}")
    _write_manifest(
        args.out,
        "region",
        {"model": args.model, "grid": spec.to_dict(), "workers": args.workers},
        outputs,
        started,
    )
    return EXIT_OK


def cmd_separatrix(args):
    started = _now()
    try:
        a_values = [float(v) for v in args.a_list.split(",") if v]
        if not a_values:
            raise ValueError("empty --a-list")
    except ValueError as exc:
        return _fail(EXIT_USAGE, exc)
    try:
        rows = separatrix_check(a_values, args.n, m_max=args.m_max, steps=args.steps)
    except (ValueError, ArithmeticError) as exc:
        return _fail(EXIT_NUMERICAL, exc)
    lines = ["a,b_boundary,a_over_a_minus_1,gap"]
    for a, boundary, target, gap in rows:
        lines.append(f"{a!r},{boundary!r},{target!r},{gap!r}")
    csv_path = _write_text(f"{args.out}.csv", "\n".join(lines) + "\n")
    print(f"wrote {csv_path}")
    _write_manifest(
        args.out,
        "separatrix",
        {"a_list": a_values, "n": args.n, "m_max": args.m_max, "steps": args.steps},
        [csv_path],
        started,
    )
    return EXIT_OK


def cmd_gamma_sweep(args):
    started = _now()
    try:
        gammas = [float(v) for v in args.gamma_list.split(",") if v]
        if not gammas:
            raise ValueError("empty --gamma-list")
        if args.m < 1:
            raise ValueError("need --m >= 1")
    except ValueError as exc:
        return _fail(EXIT_USAGE, exc)
    try:
        rows = gamma_sweep(args.a, args.b, args.n, args.m, gammas)
    except (ValueError, ArithmeticError) as exc:
        return _fail(EXIT_NUMERICAL, exc)
    lines = ["gamma,max_re"]
    for gamma, max_re in rows:
        lines.append(f"{gamma!r},{max_re!r}")
    csv_path = _write_text(f"{args.out}.csv", "\n".join(lines) + "\n")
    print(f"wrote {csv_path}")
    _write_manifest(
        args.out,
        "gamma-sweep",
        {"a": args.a, "b": args.b, "n": args.n, "m": args.m, "gamma_list": gammas},
        [csv_path],
        started,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate / bifurcate
# ---------------------------------------------------------------------------


def _potential_from_json(data):
    kind = data.get("kind", "power-law")
    if kind == "power-law":
        return PowerLaw(data["a"], data["b"])
    if kind == "morse":
        return Morse(C_A=data["C_A"], C_R=data["C_R"], l_A=data["l_A"], l_R=data["l_R"])
    raise ValueError(f"unknown potential kind {kind!r}")


def _perturbation_from_json(data):
    if data is None:
        return None
    kind = data.get("kind")
    if kind == "mode":
        return ModePerturbation(
            m=int(data["m"]),
            xi_plus=complex(data.get("xi_plus", 0.0)),
            xi_minus=complex(data.get("xi_minus", 0.0)),
        )
    if kind == "noise":
        return RandomNoise(
            sigma_pos=float(data.get("sigma_pos", 0.0)),
            sigma_vel=float(data.get("sigma_vel", 0.0)),
        )
    raise ValueError(f"unknown perturbation kind {kind!r}")


_SIM_OVERRIDES = ("t_final", "seed", "n", "rtol", "atol", "sample_every")


def _load_sim_config(args):
    with open(args.config) as fh:
        data = json.load(fh)
    for key in _SIM_OVERRIDES:
        value = getattr(args, key, None)
        if value is not None:
            data[key] = value
    config = SimConfig(
        model=data["model"],
        potential=_potential_from_json(data["potential"]),
        n=int(data["n"]),
        t_final=float(data["t_final"]),
        propulsion=Propulsion(**data["propulsion"]) if "propulsion" in data else None,
        alignment=AlignmentKernel(**data["alignment"]) if "alignment" in data else None,
        rtol=float(data.get("rtol", 1e-6)),
        atol=float(data.get("atol", 1e-9)),
        seed=int(data.get("seed", 0)),
        sample_every=float(data.get("sample_every", 1.0)),
        min_distance_guard=data.get("min_distance_guard"),
    )
    return config, data


def _ring_and_state(config, ic_data):
    kind = ic_data.get("kind", "flock")
    speed = ic_data.get("speed")
    if speed is None:
        if config.propulsion is None:
            raise ValueError("cucker-smale configs need ic.speed")
        speed = config.propulsion.asymptotic_speed
    perturbation = _perturbation_from_json(ic_data.get("perturbation"))
    rng = np.random.default_rng(config.seed)
    if kind == "flock":
        ring = flock_ring(config.potential, config.n, float(speed))
        direction = ic_data.get("direction", (1.0, 0.0))
        state = ic_flock_ring(ring, direction=direction, perturbation=perturbation, rng=rng)
    elif kind == "mill":
        ring = mill_ring(config.potential, config.n, float(speed))
        orientation = int(ic_data.get("orientation", 1))
        state = ic_mill_ring(ring, orientation=orientation, perturbation=perturbation, rng=rng)
    else:
        raise ValueError(f"unknown ic kind {kind!r}")
    return ring, state


def _trajectory_csv(states):
    lines = ["t,j,x,y,vx,vy"]
    for st in states:
        for j in range(st.n):
            lines.append(
                f"{st.t!r},{j},{st.positions[j,0]!r},{st.positions[j,1]!r},"
                f"{st.velocities[j,0]!r},{st.velocities[j,1]!r}"
            )
    return "\n".join(lines) + "\n"


def cmd_simulate(args):
    started = _now()
    try:
        config, data = _load_sim_config(args)
        ring, state = _ring_and_state(config, data.get("ic", {}))
    except (OSError, KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
        return _fail(EXIT_USAGE, exc)
    try:
        result = integrate(config, state, reference=ring)
    except SimulationError as exc:
        return _fail(EXIT_NUMERICAL, exc)
    outputs = [_write_text(f"{args.out}_metrics.csv", result.metrics.csv_text())]
    if args.traj:
        outputs.append(_write_text(f"{args.out}_trajectory.csv", _trajectory_csv(result.states)))
    print(f"wrote {', '.join(outputs)}")
    data_resolved = dict(data)
    data_resolved.update(
        {"rtol": config.rtol, "atol": config.atol, "seed": config.seed,
         "t_final": config.t_final, "n": config.n, "sample_every": config.sample_every}
    )
    _write_manifest(
        args.out,
        "simulate",
        {"config": data_resolved, "ring_radius": ring.radius, "stats": result.stats},
        outputs,
        started,
        seed=config.seed,
    )
    return EXIT_OK


def cmd_bifurcate(args):
    started = _now()
    try:
        config, data = _load_sim_config(args)
        values = [float(v) for v in args.values.split(",") if v]
        if not values:
            raise ValueError("empty --values")
        ic_data = data.get("ic", {})
        perturbation = _perturbation_from_json(ic_data.get("perturbation"))
    except (OSError, KeyError, ValueError, TypeError, json.JSONDecodeError) as exc:
        return _fail(EXIT_USAGE, exc)
    try:
        rows = bifurcation_sweep(
            config,
            args.param,
            values,
            ic_kind=ic_data.get("kind", "flock"),
            metric=args.metric,
            perturbation=perturbation,
            ic_speed=ic_data.get("speed"),
            workers=args.workers,
        )
    except SimulationError as exc:
        return _fail(EXIT_NUMERICAL, exc)
    except (ValueError, TypeError) as exc:
        return _fail(EXIT_USAGE, exc)
    lines = ["value,metric"]
    for value, metric in rows:
        lines.append(f"{value!r},{metric!r}")
    csv_path = _write_text(f"{args.out}.csv", "\n".join(lines) + "\n")
    print(f"wrote {csv_path}")
    _write_manifest(
        args.out,
        "bifurcate",
        {"config": data, "param": args.param, "values": values, "metric": args.metric,
         "seed_policy": "base_seed + value_index"},
        [csv_path],
        started,
        seed=config.seed,
    )
    return EXIT_OK


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
    sm = shape_matrix(4, 2, 4, 2)
    d, t = det_trace(sm)
    target = np.array([[-1.0, -1 / 3], [-1 / 3, -1.0]])
    return np.max(np.abs(sm.entries - target)) < 1e-12 and abs(d - 8 / 9) < 1e-12 and abs(t + 2) < 1e-12


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
    ring = flock_ring(PowerLaw(4.5, 1.7), 23)
    return (
        mode_cross_coupling(4.5, 1.7, ring.radius, 23, 1) == 0.0
        and mode_self_coupling(4.5, 1.7, ring.radius, 23, -1) == 0.0
    )


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
    started = _now()
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
    _write_manifest(
        args.out, "validate", {"results": results, "failures": failures}, [], started
    )
    return EXIT_OK if failures == 0 else EXIT_VALIDATION


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
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--speed", type=float, default=0.0)
    p.add_argument("--out", default="swarmlab_spectrum")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("region", help="stability map over a parameter grid")
    p.add_argument("--model", choices=tuple(_REGION_SCANS), required=True)
    p.add_argument("--grid", nargs=2, required=True, metavar=("X", "Y"),
                   help="axis specs name:min:max:count (x then y)")
    p.add_argument("--fixed", nargs="*", metavar="K=V")
    p.add_argument("--workers", type=int)
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

    p = sub.add_parser("simulate", help="run one simulation from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="swarmlab_sim")
    p.add_argument("--traj", action="store_true", help="also write the trajectory CSV")
    p.add_argument("--t-final", dest="t_final", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--rtol", type=float)
    p.add_argument("--atol", type=float)
    p.add_argument("--sample-every", dest="sample_every", type=float)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bifurcate", help="sweep a parameter over simulations")
    p.add_argument("--config", required=True)
    p.add_argument("--param", choices=("b", "speed"), required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--metric", choices=("cluster", "fatten", "polarization", "angular_momentum"),
                   default="cluster")
    p.add_argument("--workers", type=int)
    p.add_argument("--t-final", dest="t_final", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--rtol", type=float)
    p.add_argument("--atol", type=float)
    p.add_argument("--sample-every", dest="sample_every", type=float)
    p.add_argument("--out", default="swarmlab_bifurcation")
    p.set_defaults(func=cmd_bifurcate)

    p = sub.add_parser("validate", help="run the fast invariant suite")
    p.add_argument("--out", default="swarmlab_validate")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
