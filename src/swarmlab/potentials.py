"""Pair potentials, self-propulsion, and velocity-alignment kernels.

The particle model integrates, for j = 1..N,

    x_j' = v_j
    v_j' = (alpha - beta |v_j|^2) v_j + (1/N) sum_{l != j} grad W(x_l - x_j)

with a radial pair potential W(x) = k(|x|).  The gradient convention makes
k'(r) > 0 attractive: the force on j points toward a neighbour at distance r
whenever k'(r) > 0.  The alignment variant replaces the propulsion term with
a Cucker-Smale average (1/N) sum_l g(|x_j - x_l|)(v_l - v_j).

The potential family is closed: a power-law difference and a Morse pair,
with no hook for user-defined potentials.  Simulations, mode matrices and
scans take power laws only.  Morse reaches the ring radius solvers (with an
explicit bracket) and the full interaction Hessian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PowerLaw",
    "Morse",
    "Propulsion",
    "AlignmentKernel",
]


def _require_positive(obj, label, *names):
    """Refuse a named parameter that is not finite and > 0, naming its value."""
    for name in names:
        value = getattr(obj, name)
        if not 0 < value < math.inf:
            raise ValueError(f"{label} needs finite {name} > 0, got {name}={value}")


@dataclass(frozen=True)
class PowerLaw:
    """Power-law pair interaction k(r) = r^a / a - r^b / b with a > b > 0.

    The exponent a controls long-range attraction, b short-range repulsion.
    k'(r) = r^(a-1) - r^(b-1) vanishes at r = 1, is negative (repulsive)
    below and positive (attractive) above.
    """

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError(
                f"power-law exponents must be finite, got a={self.a}, b={self.b}"
            )
        if not (self.a > self.b > 0):
            raise ValueError(
                f"power-law exponents need a > b > 0, got a={self.a}, b={self.b}"
            )

    def value(self, r):
        return np.asarray(r) ** self.a / self.a - np.asarray(r) ** self.b / self.b

    def deriv(self, r):
        """k'(r) = r^(a-1) - r^(b-1), exact analytic form.

        Two np.power calls with scalar exponents, as the simulator's pair
        kernel makes them.
        """
        r = np.asarray(r, dtype=float)
        return np.power(r, self.a - 1.0) - np.power(r, self.b - 1.0)

    def second_deriv(self, r):
        r = np.asarray(r, dtype=float)
        return (self.a - 1.0) * r ** (self.a - 2.0) - (self.b - 1.0) * r ** (self.b - 2.0)


@dataclass(frozen=True)
class Morse:
    """Morse pair interaction, k(r) = C_R exp(-r/l_R) - C_A exp(-r/l_A).

    All four parameters are strictly positive.  With the attractive range
    longer than the repulsive one (l_A > l_R), k'(r) > 0 at long range
    (attraction toward distant particles, same force convention as
    :class:`PowerLaw`) and k'(r) < 0 near contact when C_R/l_R > C_A/l_A.
    """

    C_A: float
    C_R: float
    l_A: float
    l_R: float

    def __post_init__(self):
        _require_positive(self, "Morse potential", "C_A", "C_R", "l_A", "l_R")

    def value(self, r):
        r = np.asarray(r, dtype=float)
        return self.C_R * np.exp(-r / self.l_R) - self.C_A * np.exp(-r / self.l_A)

    def deriv(self, r):
        """k'(r) = (C_A/l_A) exp(-r/l_A) - (C_R/l_R) exp(-r/l_R)."""
        r = np.asarray(r, dtype=float)
        return (self.C_A / self.l_A) * np.exp(-r / self.l_A) - (
            self.C_R / self.l_R
        ) * np.exp(-r / self.l_R)

    def second_deriv(self, r):
        r = np.asarray(r, dtype=float)
        return (self.C_R / self.l_R**2) * np.exp(-r / self.l_R) - (
            self.C_A / self.l_A**2
        ) * np.exp(-r / self.l_A)


@dataclass(frozen=True)
class Propulsion:
    """Self-propulsion / friction pair: acceleration (alpha - beta |v|^2) v.

    Drives every particle toward the asymptotic speed sqrt(alpha/beta).
    """

    alpha: float
    beta: float

    def __post_init__(self):
        _require_positive(self, "propulsion", "alpha", "beta")

    @property
    def asymptotic_speed(self):
        return float(np.sqrt(self.alpha / self.beta))


@dataclass(frozen=True)
class AlignmentKernel:
    """Cucker-Smale communication rate g(r) = (1 + r^2)^(-gamma), gamma > 0.

    Strictly positive and strictly decreasing in r.
    """

    gamma: float

    def __post_init__(self):
        _require_positive(self, "alignment kernel", "gamma")

    def value(self, r, out=None):
        """g(r); with ``out`` given, the result is written there in place."""
        r = np.asarray(r, dtype=float)
        s = np.add(1.0, np.multiply(r, r, out=out), out=out)
        return np.power(s, -self.gamma, out=out)
