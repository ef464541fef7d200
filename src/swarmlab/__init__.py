"""Numerical laboratory for ring states of second-order swarming models.

The package covers the full pipeline for flock and mill ring solutions of
self-propelled particle models with pairwise interaction forces:

* ``potentials``  pair potentials, propulsion, and alignment kernels
* ``rings``       ring radius equations, discrete and continuum
* ``spectra``     reduced 4x4 mode matrices and full-system Jacobians
* ``regions``     parameter-plane stability scans and boundary location
* ``sim``         direct particle simulation and order-parameter metrics
* ``cli``         command line front end (``swarmlab <subcommand>``)
"""

__version__ = "0.1.0"

from .potentials import PowerLaw, Morse, Propulsion, AlignmentKernel
from .rings import (
    RingSolution,
    RadiusProblem,
    trig_moment,
    radius_residual,
    solve_radius,
    solve_radius_all,
    flock_ring,
    mill_ring,
    beta_fn,
    sine_moment_limit,
    continuum_radius,
    ring_positions,
)
from .spectra import (
    ModeMatrix,
    SpectralReport,
    Classification,
    flock_mode_matrix,
    cs_flock_mode_matrix,
    mill_mode_matrix,
    eig4,
    classify,
    mode_envelope,
    det_asymptotics,
    full_hessian,
    full_flock_jacobian,
    full_cs_jacobian,
    dense_eigvals,
    theorem_witness,
)
from .regions import (
    GridSpec,
    RegionCell,
    RegionMap,
    scan_flock,
    scan_cs_flock,
    scan_mill,
    scan_speed_b,
    separatrix_check,
    gamma_sweep,
)
from .sim import (
    SimulationError,
    SwarmState,
    SimConfig,
    ModePerturbation,
    RandomNoise,
    MetricSeries,
    SimResult,
    rhs,
    integrate,
    ic_flock_ring,
    ic_mill_ring,
    metric_cluster,
    metric_fatten,
    metric_polarization,
    metric_angular_momentum,
    bifurcation_sweep,
)
