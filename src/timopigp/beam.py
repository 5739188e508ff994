"""Analytic Timoshenko beam: simply supported span under a uniform load.

Closed forms come from integrating the beam relations

    q = EI w_b'''',   M = EI w_b'',   V = M',   phi = w_b' - V/kGA,
    w  = w_b + w_s with w_s' = -V/kGA,   eps = -z phi',

with w(0) = w(L) = 0 and M(0) = M(L) = 0.  The fields are used to generate
ground truth and noisy synthetic measurements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from timopigp.data import Dataset
from timopigp.quantities import QuantityKind


@dataclass(frozen=True)
class BeamConfig:
    """Geometry, stiffness and loading of one simply supported beam scenario."""

    L: float
    EI_true: float
    kGA_true: float
    q0: float
    h: float = 0.1

    def __post_init__(self):
        for name in ("L", "EI_true", "kGA_true", "h"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)!r}")
        if not math.isfinite(self.q0):
            raise ValueError(f"q0 must be finite, got {self.q0!r}")


@dataclass(frozen=True)
class NoiseSpec:
    """White-noise level for synthetic measurements.

    Exactly one of ``snr`` (noise std = max|field| / snr) or ``sigma_n``
    (fixed std in the quantity's units) must be given.
    """

    snr: float | None = None
    sigma_n: float | None = None
    seed: int = 0

    def __post_init__(self):
        if (self.snr is None) == (self.sigma_n is None):
            raise ValueError("exactly one of snr / sigma_n must be set")
        if self.snr is not None and not self.snr > 0:
            raise ValueError("snr must be positive")
        if self.sigma_n is not None and self.sigma_n < 0:
            raise ValueError("sigma_n must be non-negative")


def _check_x(cfg: BeamConfig, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > cfg.L):
        raise ValueError(f"positions must lie in [0, {cfg.L}]")
    return x


def bending_deflection(cfg: BeamConfig, x) -> np.ndarray:
    x = _check_x(cfg, x)
    q0, L, EI = cfg.q0, cfg.L, cfg.EI_true
    return q0 / (24.0 * EI) * (x**4 - 2.0 * L * x**3 + L**3 * x)


def shear_deflection(cfg: BeamConfig, x) -> np.ndarray:
    x = _check_x(cfg, x)
    return cfg.q0 * x * (cfg.L - x) / (2.0 * cfg.kGA_true)


def analytic_field(cfg: BeamConfig, quantity: QuantityKind, x, z=None):
    """Closed-form Timoshenko solution for the requested quantity at x.

    Strain queries require the depth ``z`` from the neutral axis,
    |z| <= h/2.  Scalar input returns a scalar.
    """
    x = _check_x(cfg, x)
    q0, L, EI, kGA = cfg.q0, cfg.L, cfg.EI_true, cfg.kGA_true

    if quantity is QuantityKind.DEFLECTION:
        out = bending_deflection(cfg, x) + shear_deflection(cfg, x)
    elif quantity is QuantityKind.ROTATION:
        out = (q0 / (24.0 * EI) * (4.0 * x**3 - 6.0 * L * x**2 + L**3)
               - q0 * (x - L / 2.0) / kGA)
    elif quantity is QuantityKind.STRAIN:
        if z is None:
            raise ValueError("strain queries require a depth z")
        z = np.asarray(z, dtype=float)
        if np.any(np.abs(z) > cfg.h / 2.0 + 1e-12):
            raise ValueError("|z| must not exceed h/2")
        out = -z * (q0 * (x**2 - L * x) / (2.0 * EI) - q0 / kGA)
    elif quantity is QuantityKind.MOMENT:
        out = q0 * (x**2 - L * x) / 2.0
    elif quantity is QuantityKind.SHEAR:
        out = q0 * (x - L / 2.0)
    elif quantity is QuantityKind.LOAD:
        out = np.full_like(x, q0)
    else:
        raise ValueError(f"unknown quantity {quantity!r}")
    return out if out.ndim else float(out)


def field_max(cfg: BeamConfig, quantity: QuantityKind, z=None) -> float:
    """Peak |field| over 2001 span points, to convert an SNR to a noise std."""
    x = np.linspace(0.0, cfg.L, 2001)
    if quantity is QuantityKind.STRAIN:
        z = cfg.h / 2.0 if z is None else np.max(np.abs(np.asarray(z, float)))
    vals = analytic_field(cfg, quantity, x, z=z)
    return float(np.max(np.abs(vals)))


def synthesize_dataset(cfg: BeamConfig, quantity: QuantityKind, locations,
                       noise: NoiseSpec, z=None, label: str = "",
                       learn_noise: bool = False) -> Dataset:
    """Sample the analytic field at ``locations`` and add i.i.d. white noise.

    Deterministic for a fixed ``noise.seed``.  With ``snr`` set, the noise
    std is max|field| / snr, with the peak taken over the whole span.
    """
    x = _check_x(cfg, np.atleast_1d(np.asarray(locations, dtype=float)))
    if x.size == 0:
        raise ValueError("locations must not be empty")
    z_arr = None
    if quantity is QuantityKind.STRAIN:
        if z is None:
            raise ValueError("strain datasets require a depth z")
        z_arr = np.broadcast_to(np.asarray(z, dtype=float), x.shape).copy()

    field = np.asarray(analytic_field(cfg, quantity, x, z=z_arr), dtype=float)
    if noise.sigma_n is not None:
        sigma = noise.sigma_n
    else:
        sigma = field_max(cfg, quantity, z=z_arr) / noise.snr

    rng = np.random.default_rng(noise.seed)
    y = field + sigma * rng.standard_normal(x.shape)
    return Dataset(kind=quantity, x=x, y=y, z=z_arr, sigma_n=sigma,
                   learn_noise=learn_noise, label=label)
