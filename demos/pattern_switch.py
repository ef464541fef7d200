"""A translating flock that gives up and becomes a rotating mill.

Starts N=100 particles on an exact flock ring with nearly no repulsion
(a=4, b=0.001) at drift speed 0.1.  The ring is unstable here: the
symmetry breaks and the cloud goes through a chaotic transient.  Two
attractors compete, a compact rotating mill and a fat flock (eta_rel
about 0.28), and this unperturbed run leaves the choice to roundoff, so
the outcome depends on the numpy build.  Seeded runs with 1e-6 relative
noise land in both: seeds 100-111 gave 5 mills and 7 fat flocks, and
the 12 seeds of acceptance criterion 12 gave 7 mills and 5 fat flocks
(numpy 2.4.6).  If it mills, polarization trades places with angular
momentum along the way; the final `kind` line reports which state this
run reached, by acceptance criterion 12's rule on the final sample: a
mill has polarization < 0.2 and angular momentum > 0.8, a flock has
polarization > 0.9, and anything else is "other".

Run:  python demos/pattern_switch.py           (metrics timeline)
      python demos/pattern_switch.py --csv     (also dump per-sample CSV)
"""

import sys

from swarmlab.potentials import PowerLaw, Propulsion
from swarmlab.rings import flock_ring
from swarmlab.sim import SimConfig, ic_flock_ring, integrate


def main(argv):
    pot = PowerLaw(4, 0.001)
    speed = 0.1
    ring = flock_ring(pot, 100, speed=speed)
    cfg = SimConfig(
        model="propulsion", potential=pot, n=100, t_final=400.0,
        propulsion=Propulsion(1.0, 1.0 / speed**2), sample_every=25.0,
    )
    print(f"flock ring R={ring.radius:.4f}, drift speed {speed}; integrating to t=400")
    result = integrate(cfg, ic_flock_ring(ring), reference=ring)

    m = result.metrics
    print(f"\n  {'t':>5} {'polarization':>13} {'ang.momentum':>13}")
    for i in range(len(m.t)):
        pol, am = m.polarization[i], m.angular_momentum[i]
        gauge = "P" * int(pol * 20) + "-" * (20 - int(pol * 20))
        print(f"  {m.t[i]:>5.0f} {pol:>13.3f} {am:>13.3f}   [{gauge}]")

    pol, am = m.polarization[-1], m.angular_momentum[-1]
    kind = "mill" if pol < 0.2 and am > 0.8 else "flock" if pol > 0.9 else "other"
    print(f"\nfinal state: polarization {pol:.3f}, angular momentum {am:.3f} -> {kind}")
    print(f"accepted steps: {result.stats['steps_accepted']}, "
          f"rhs evaluations: {result.stats['rhs_evals']}")

    if "--csv" in argv:
        with open("pattern_switch_metrics.csv", "w", newline="\n") as fh:
            fh.write(m.csv_text())
        print("wrote pattern_switch_metrics.csv")


if __name__ == "__main__":
    main(sys.argv[1:])
