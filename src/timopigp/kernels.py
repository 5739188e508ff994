"""Closed-form covariance kernels for the multi-output beam model.

Every beam quantity is a linear differential operator applied to the latent
bending-deflection process, so each (co)variance kernel is a linear
combination of mixed partial derivatives of the squared-exponential base
kernel.  The SE derivatives follow the Hermite-polynomial recursion

    d^n/du^n exp(-u^2/2) = (-1)^n He_n(u) exp(-u^2/2),

with the coefficient tables below generated once from He_{n+1} = u He_n -
n He_{n-1} and committed as source; the test suite validates every order
against finite differences.

The kernels read four fields of a ``gp.Theta``: sigma_s2, ell, EI and kGA.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from timopigp.quantities import QuantityKind

if TYPE_CHECKING:
    from timopigp.gp import Theta

MAX_ORDER = 4

# Probabilists' Hermite polynomials He_0 .. He_8, highest power first.
_HERMITE = (
    (1.0,),
    (1.0, 0.0),
    (1.0, 0.0, -1.0),
    (1.0, 0.0, -3.0, 0.0),
    (1.0, 0.0, -6.0, 0.0, 3.0),
    (1.0, 0.0, -10.0, 0.0, 15.0, 0.0),
    (1.0, 0.0, -15.0, 0.0, 45.0, 0.0, -15.0),
    (1.0, 0.0, -21.0, 0.0, 105.0, 0.0, -105.0, 0.0),
    (1.0, 0.0, -28.0, 0.0, 210.0, 0.0, -420.0, 0.0, 105.0),
)


def se_base(x, x_prime, params: Theta):
    """Squared-exponential base kernel sigma_s^2 exp(-(x-x')^2 / 2 ell^2)."""
    u = (np.asarray(x, float) - np.asarray(x_prime, float)) / params.ell
    return params.sigma_s2 * np.exp(-0.5 * u * u)


def se_derivative(m: int, n: int, x, x_prime, params: Theta):
    """Mixed partial d^m/dx^m d^n/dx'^n of the SE base kernel.

    With u = (x - x')/ell the closed form is
    sigma_s^2 (-1)^m ell^-(m+n) He_{m+n}(u) exp(-u^2/2).
    """
    if not (0 <= m <= MAX_ORDER and 0 <= n <= MAX_ORDER):
        raise ValueError(f"derivative orders must be in 0..{MAX_ORDER}")
    u = (np.asarray(x, float) - np.asarray(x_prime, float)) / params.ell
    sign = -1.0 if m % 2 else 1.0
    try:
        scale = params.sigma_s2 * sign * params.ell ** (-(m + n))
    except OverflowError:  # tiny ell: a non-finite covariance, named later
        scale = sign * math.inf
    return scale * np.polyval(_HERMITE[m + n], u) * np.exp(-0.5 * u * u)


# Operator terms per quantity: (scalar coefficient builder, z power,
# derivative order).  The Timoshenko deflection/rotation/strain operators
# carry shear corrections scaled by a = EI/kGA; moments, shears and loads
# are identical at both levels.
def _terms(kind: QuantityKind, params: Theta, timoshenko: bool):
    a = params.EI / params.kGA
    if kind is QuantityKind.DEFLECTION:
        return ((1.0, 0, 0), (-a, 0, 2)) if timoshenko else ((1.0, 0, 0),)
    if kind is QuantityKind.ROTATION:
        return ((1.0, 0, 1), (-a, 0, 3)) if timoshenko else ((1.0, 0, 1),)
    if kind is QuantityKind.STRAIN:
        return ((-1.0, 1, 2), (a, 1, 4)) if timoshenko else ((-1.0, 1, 2),)
    if kind is QuantityKind.MOMENT:
        return ((params.EI, 0, 2),)
    if kind is QuantityKind.SHEAR:
        return ((params.EI, 0, 3),)
    if kind is QuantityKind.LOAD:
        return ((params.EI, 0, 4),)
    raise ValueError(f"unknown quantity kind {kind!r}")


def _combine(i, j, x, x_prime, params, z, z_prime, timoshenko):
    if i is QuantityKind.STRAIN and z is None:
        raise ValueError("kernel with a strain first index requires z")
    if j is QuantityKind.STRAIN and z_prime is None:
        raise ValueError("kernel with a strain second index requires z_prime")
    total = 0.0
    for ci, pi, m in _terms(i, params, timoshenko):
        for cj, pj, n in _terms(j, params, timoshenko):
            term = (ci * cj) * se_derivative(m, n, x, x_prime, params)
            if pi:
                term = term * np.asarray(z, float)
            if pj:
                term = term * np.asarray(z_prime, float)
            total = total + term
    return total


def kernel(i: QuantityKind, j: QuantityKind, x, x_prime,
           params: Theta, z=None, z_prime=None):
    """Timoshenko-level covariance between quantities i at x and j at x'.

    Broadcasts over array inputs; strain indices require the matching
    depth argument.  Satisfies kernel(i, j, x, x') = kernel(j, i, x', x).
    """
    return _combine(i, j, x, x_prime, params, z, z_prime, timoshenko=True)


def bernoulli_kernel(i: QuantityKind, j: QuantityKind, x, x_prime,
                     params: Theta, z=None, z_prime=None):
    """Covariance for the shear-rigid (Euler-Bernoulli) beam quantities."""
    return _combine(i, j, x, x_prime, params, z, z_prime, timoshenko=False)
