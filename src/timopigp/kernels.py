"""Closed-form covariance kernels for the multi-output beam model.

Every beam quantity is a linear differential operator applied to the latent
bending-deflection process, so each (co)variance kernel is a linear
combination of mixed partial derivatives of the squared-exponential base
kernel.  The SE derivatives follow the Hermite-polynomial recursion

    d^n/du^n exp(-u^2/2) = (-1)^n He_n(u) exp(-u^2/2),

with the coefficient tables below generated once from He_{n+1} = u He_n -
n He_{n-1} and committed as source; the test suite validates every order
against finite differences.

``OPERATORS`` is the one operator table; the layout-cached engine in ``gp``
evaluates it for every covariance the package computes.  ``kernel``
evaluates it block by block and no module calls it: it is the reference
the tests check against sympy and check the engine against bit for bit.

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
HERMITE = (
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
    scale = _scale(m % 2, m + n, params)
    return scale * np.polyval(HERMITE[m + n], u) * np.exp(-0.5 * u * u)


def _scale(odd: int, order: int, params: Theta) -> float:
    """sigma_s^2 (-1)^m ell^-(m+n) for m odd or even and order m + n."""
    sign = -1.0 if odd else 1.0
    try:
        return params.sigma_s2 * sign * params.ell ** (-order)
    except OverflowError:  # tiny ell: a non-finite covariance, named later
        return sign * math.inf


# Operator terms per quantity: (coefficient code, z power, derivative
# order), the codes indexing ``_coefficients``.  The Timoshenko
# deflection/rotation/strain operators carry a second, shear-correction term
# scaled by a = EI/kGA; their first terms alone are the shear-rigid
# (Euler-Bernoulli) operators.  Moments, shears and loads are identical at
# both levels.
ONE, MINUS_ONE, SHEAR, MINUS_SHEAR, BENDING = range(5)
N_COEFFICIENTS = 5
OPERATORS = {
    QuantityKind.DEFLECTION: ((ONE, 0, 0), (MINUS_SHEAR, 0, 2)),
    QuantityKind.ROTATION: ((ONE, 0, 1), (MINUS_SHEAR, 0, 3)),
    QuantityKind.STRAIN: ((MINUS_ONE, 1, 2), (SHEAR, 1, 4)),
    QuantityKind.MOMENT: ((BENDING, 0, 2),),
    QuantityKind.SHEAR: ((BENDING, 0, 3),),
    QuantityKind.LOAD: ((BENDING, 0, 4),),
}


def _coefficients(params: Theta) -> tuple:
    a = params.EI / params.kGA
    return (1.0, -1.0, a, -a, params.EI)


def term_factors(params: Theta) -> np.ndarray:
    """The scalars of the operator terms at one set of parameters.

    One array: the five coefficients, indexed by coefficient code, then
    the SE derivative scales sigma_s^2 ell^-k for k = 0 .. 2 MAX_ORDER,
    then the same scales negated.  A term with codes i, j and orders
    m, n is multiplied by c_i c_j and by the scale of k = m + n, negated
    for odd m: the floats ``kernel`` multiplies it by.
    """
    s2, ell, orders = params.sigma_s2, params.ell, range(2 * MAX_ORDER + 1)
    try:  # _scale's floats (s2 * 1.0 is exact) without a call per order
        scales = [s2 * ell ** -k for k in orders]
    except OverflowError:  # a tiny ell
        scales = [_scale(0, k, params) for k in orders]
    # The odd-m scale is the even one negated: sign flips are exact.
    return np.array([*_coefficients(params), *scales,
                     *[-v for v in scales]])


def kernel(i: QuantityKind, j: QuantityKind, x, x_prime,
           params: Theta, z=None, z_prime=None):
    """Timoshenko-level covariance between quantities i at x and j at x'.

    Broadcasts over array inputs; strain indices require the matching
    depth argument.  Satisfies kernel(i, j, x, x') = kernel(j, i, x', x).
    """
    for kind in (i, j):
        if kind not in OPERATORS:
            raise ValueError(f"unknown quantity kind {kind!r}")
    if i is QuantityKind.STRAIN and z is None:
        raise ValueError("kernel with a strain first index requires z")
    if j is QuantityKind.STRAIN and z_prime is None:
        raise ValueError("kernel with a strain second index requires z_prime")
    coef = _coefficients(params)
    total = 0.0
    for ci, pi, m in OPERATORS[i]:
        for cj, pj, n in OPERATORS[j]:
            term = (coef[ci] * coef[cj]) * se_derivative(m, n, x, x_prime,
                                                         params)
            if pi:
                term = term * np.asarray(z, float)
            if pj:
                term = term * np.asarray(z_prime, float)
            total = total + term
    return total
