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

Every number that comes from outside (a config, a flag, a grid, a
caller) passes one check, :func:`_number`, which every module imports
from here; its docstring states the rule.
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


# the types _number takes for an integer field and for a real one
_INTEGERS = (int, np.integer)
_REALS = (int, float, np.integer, np.floating)


def _number(name, value, *, gt=None, ge=None, integer=False):
    """The field ``name``'s ``value``, checked by the one rule for numbers
    from outside:

    - it is an int, a float or a numpy real scalar; a bool is refused;
    - it is finite, and > ``gt`` or >= ``ge`` when that bound is given;
    - an integer field (``integer``) needs an integral type, so 12.0 is
      refused.

    Strings are refused, not parsed: the CLI parses its flag strings and
    passes JSON values through unchanged.  Returns the value as a float,
    or as an int for an integer field; otherwise raises a ValueError that
    names the field and its value.
    """
    if (
        isinstance(value, _INTEGERS if integer else _REALS) and not isinstance(value, bool)
        and -math.inf < value < math.inf
        and (gt is None or value > gt) and (ge is None or value >= ge)
    ):
        return int(value) if integer else float(value)
    bound = f" > {gt}" if gt is not None else f" >= {ge}" if ge is not None else ""
    kind = "an integer" if integer else "finite"
    raise ValueError(f"need {kind} {name}{bound}, got {name}={value!r}")


def _check_fields(obj, *names, gt=None, ge=None, integer=False):
    """Store each named field of a frozen dataclass as _number returns it."""
    for name in names:
        value = _number(name, getattr(obj, name), gt=gt, ge=ge, integer=integer)
        object.__setattr__(obj, name, value)


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
        _check_fields(self, "b", gt=0)
        _check_fields(self, "a", gt=self.b)

    def value(self, r):
        return np.asarray(r) ** self.a / self.a - np.asarray(r) ** self.b / self.b

    def deriv(self, r):
        """k'(r) = r^(a-1) - r^(b-1), exact analytic form.

        Two np.power calls with scalar exponents.  The simulator's pair
        kernel gives each member these bits: it passes a - 1 and b - 1 as
        scalars when they are 2, 0.5 or -1, which numpy computes in loops of
        their own, and otherwise in one call with a column of exponents,
        which matches the scalar calls bit for bit.
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
        _check_fields(self, "C_A", "C_R", "l_A", "l_R", gt=0)

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
        _check_fields(self, "alpha", "beta", gt=0)

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
        _check_fields(self, "gamma", gt=0)

    def value(self, r, out=None):
        """g(r); with ``out`` given, the result is written there in place."""
        r = np.asarray(r, dtype=float)
        s = np.add(1.0, np.multiply(r, r, out=out), out=out)
        return np.power(s, -self.gamma, out=out)
