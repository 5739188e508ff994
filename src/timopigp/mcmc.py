"""Random-walk Metropolis-Hastings over the GP hyperparameter posterior.

Each prior says which coordinate its parameter is sampled in, and is flat
in it: ``LogFlat`` in log(value), so positivity holds by construction and
the log transform's Jacobian joins the target, ``UniformBounded`` in the
value itself.  A chain's priors are the caller's boxes for EI and kGA and
``LogFlat`` for the rest (signal variance, length scale, noise stds).  The
Gaussian proposal is symmetric, so the proposal ratio cancels.

One ``ThetaCodec`` maps parameter names to ``Theta`` fields: the chain's
start vector and steps, its draws' Thetas and a chain CSV's header all go
through it.  A chain builds its data layout and its list of priors once,
in parameter order.  Each step undoes the log transform, checks
positivity, builds the Theta and scores it with ``log_posterior``: the
priors' log densities summed in that order plus
``gp.log_marginal_likelihood``.  Each log-target evaluation lands in one
count: a rejection by cause (prior support, invalid theta, non-finite K,
ill-conditioned K) or the jitter level its factorization used.
"""

from __future__ import annotations

import math
import numbers
import operator
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from timopigp import gp
from timopigp.errors import (IllConditionedModelError,
                             NonFiniteCovarianceError, StuckChainError)
from timopigp.gp import Theta

# The proposal step of a parameter that proposal_scale leaves out.
DEFAULT_STEP = 0.1

# Why a log-target evaluation had zero density.
REJECTIONS = ("prior_support", "invalid_theta", "non_finite_covariance",
              "ill_conditioned")


@dataclass(frozen=True)
class LogFlat:
    """Uniform in log(value) on the positive half-line, and sampled there.

    The prior of every parameter but the stiffnesses: the kernel variance,
    the length scale and the noise levels.  It is improper, and flat in the
    log does not give the length scale a top.  With EI, kGA and the noise
    at their true values (r = 0.3, SNR 100, support BCs), the log target
    maximised over the kernel variance rises from 86.1 at ell = 0.46 to
    98.7 at ell = 3, so a chain creeps up that ridge.
    """

    log_coordinate = True

    def log_density(self, value: float) -> float:
        return -float(np.log(value)) if value > 0 else -np.inf


@dataclass(frozen=True)
class UniformBounded:
    """Uniform on [lo, hi], and sampled in the value itself."""

    lo: float
    hi: float
    log_coordinate = False

    def __post_init__(self):
        if not -math.inf < self.lo < self.hi < math.inf:
            raise ValueError("UniformBounded requires finite lo < hi, got "
                             f"{self.lo!r}, {self.hi!r}")
        object.__setattr__(self, "_inside", -float(np.log(self.hi - self.lo)))

    def log_density(self, value: float) -> float:
        if self.lo <= value <= self.hi:
            return self._inside
        return -np.inf


@dataclass(frozen=True)
class McmcConfig:
    n_total: int = 25000
    n_b: int = 5000
    n_t: int = 10
    proposal_scale: float | dict = DEFAULT_STEP
    seed: int = 0
    adapt: bool = True

    def __post_init__(self):
        if not 0 <= self.n_b < self.n_total:
            raise ValueError("require 0 <= n_b < n_total")
        if self.n_t < 1:
            raise ValueError("thinning stride must be >= 1")
        scales = self.proposal_scale
        for key in scales if isinstance(scales, dict) else ():
            if key not in Theta.FIELDS \
                    and not key.startswith(ThetaCodec.NOISE):
                raise ValueError(f"proposal_scale key {key!r} is not a "
                                 "parameter")
        for v in scales.values() if isinstance(scales, dict) else [scales]:
            if isinstance(v, bool) or not isinstance(v, numbers.Real) \
                    or not 0 < v < math.inf:
                raise ValueError("proposal scales must be positive and "
                                 f"finite numbers, got {v!r}")


class ThetaCodec:
    """Parameter vectors <-> Theta, by name.

    ``names`` holds each of ``FIELDS`` once and one ``sigma_n:<label>``
    per learned noise level, in any order.  A chain's names are the
    fields, then its start point's noise labels (``of``); a chain CSV's
    are its header.
    """

    FIELDS = Theta.FIELDS
    NOISE = "sigma_n:"

    def __init__(self, names):
        self.names = list(names)
        for name in self.names:
            if name not in self.FIELDS and not name.startswith(self.NOISE):
                raise ValueError(f"column {name!r} is not a parameter")
            if self.names.count(name) > 1:
                raise ValueError(f"column {name!r} appears twice")
        for name in self.FIELDS:
            if name not in self.names:
                raise ValueError(f"no {name!r} column")
        noise = [i for i, name in enumerate(self.names)
                 if name not in self.FIELDS]
        self.labels = [self.names[i][len(self.NOISE):] for i in noise]
        # The fields in Theta's order, then the noise levels.
        self._take = operator.itemgetter(
            *[self.names.index(name) for name in self.FIELDS], *noise)

    @classmethod
    def of(cls, theta: Theta) -> ThetaCodec:
        return cls(list(cls.FIELDS)
                   + [cls.NOISE + label for label in theta.sigma_n])

    def theta(self, values) -> Theta:
        """The Theta of one vector: a list of floats in ``names`` order."""
        v = self._take(values)
        return Theta(*v[:4], sigma_n=dict(zip(self.labels, v[4:])))

    @classmethod
    def vector(cls, theta: Theta) -> np.ndarray:
        """Theta's vector in the order of ``of(theta)``'s names."""
        return np.array([getattr(theta, name) for name in cls.FIELDS]
                        + list(theta.sigma_n.values()), dtype=float)


@dataclass
class PosteriorChain:
    """Post burn-in, thinned draws with acceptance diagnostics.

    ``target_counts`` holds the log-target evaluations, the zero-density
    ones by cause (``REJECTIONS``) and, per jitter level, the ones that
    factorized K at it; the last two add up to the first.
    """

    param_names: list
    draws: np.ndarray
    acceptance_rate: float
    target_counts: dict = field(default_factory=dict)

    @property
    def thetas(self) -> list:
        """One Theta per draw.  Each access builds the list anew, so a
        caller binds it once."""
        codec = ThetaCodec(self.param_names)
        return [codec.theta(row) for row in self.draws.tolist()]

    def __len__(self) -> int:
        return len(self.draws)


def log_posterior(layout: gp.Layout, theta: Theta, values, table,
                  counts: Counter) -> float:
    """Unnormalized log posterior: log prior plus log marginal likelihood.

    ``values`` is theta's parameter vector in the order of ``table``, the
    log densities of its names' priors; the log prior sums them in that
    order.  The value is -inf off the prior's
    support and for a K that cannot be factorized; ``counts`` gets one
    count, the cause (``REJECTIONS``) or the jitter level.
    """
    lp = 0.0
    for log_density, v in zip(table, values):
        lp += log_density(v)
    if not math.isfinite(lp):
        counts["prior_support"] += 1
        return -math.inf
    try:
        lml, level = gp.log_marginal_likelihood(layout, theta)
    except NonFiniteCovarianceError:
        counts["non_finite_covariance"] += 1
        return -math.inf
    except IllConditionedModelError:
        counts["ill_conditioned"] += 1
        return -math.inf
    counts[level] += 1
    return lml + lp


def random_walk_metropolis(log_target, x0, cfg: McmcConfig, scales):
    """Generic symmetric-proposal MH core in unconstrained coordinates.

    ``scales`` holds the proposal std of each coordinate of ``x0``.
    Returns (kept draws, acceptance rate).  Proposal scales optionally
    adapt towards ~30% acceptance during burn-in and are frozen
    afterwards.
    """
    rng = np.random.default_rng(cfg.seed)
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    d = x.size
    scales = np.asarray(scales, dtype=float)

    lt = log_target(x)
    if not np.isfinite(lt):
        raise ValueError("initial point has zero posterior density")

    kept = []
    accepts = 0
    window_accepts = 0
    window = 50
    stuck_limit = 10 * max(cfg.n_b, 100)
    # Growth is damped and capped: an over-accepting burn-in phase (e.g. a
    # drift along a flat ridge) must not inflate the scales so far that the
    # frozen post-burn-in chain stops moving entirely.
    scale_hi = 5.0 * scales
    scale_lo = 1e-4 * scales
    for i in range(cfg.n_total):
        prop = x + scales * rng.standard_normal(d)
        lt_prop = log_target(prop)
        a = rng.random()  # uniform() on [0, 1): the same draw, less overhead
        # A zero-density proposal is never taken, not even at a = 0.
        if math.isfinite(lt_prop) and np.log(a) <= lt_prop - lt:
            x, lt = prop, lt_prop
            accepts += 1
            window_accepts += 1
        if accepts == 0 and i + 1 >= stuck_limit:
            raise StuckChainError(i + 1, {"scales": scales.tolist(),
                                          "log_target": float(lt)})
        if cfg.adapt and i < cfg.n_b and (i + 1) % window == 0:
            rate = window_accepts / window
            if rate < 0.25:
                scales = np.maximum(scales * 0.8, scale_lo)
            elif rate > 0.40:
                scales = np.minimum(scales * 1.1, scale_hi)
            window_accepts = 0
        if i >= cfg.n_b and (i - cfg.n_b) % cfg.n_t == 0:
            kept.append(x.copy())
    return np.asarray(kept), accepts / cfg.n_total


def run_chain(datasets, bcs, priors: dict, cfg: McmcConfig,
              theta0: Theta) -> PosteriorChain:
    """Sample the hyperparameter posterior; deterministic under fixed seed.

    ``priors`` holds the box of EI and of kGA; every parameter it leaves
    out gets ``LogFlat``, and a key that names no parameter of the chain
    is refused.  Each is sampled in its prior's coordinate.
    """
    codec = ThetaCodec.of(theta0)
    names = codec.names
    for key in priors:
        if key not in names:
            raise ValueError(f"priors key {key!r} names no parameter of "
                             "the chain")
    for name in ("EI", "kGA"):
        if name not in priors:
            raise ValueError(f"no prior box for {name}")
    prior_list = [priors.get(name, LogFlat()) for name in names]
    log_mask = np.array([prior.log_coordinate for prior in prior_list])
    x0 = ThetaCodec.vector(theta0)
    if np.any(x0[log_mask] <= 0):
        raise ValueError("log-transformed parameters must start positive")
    s0 = x0.copy()
    s0[log_mask] = np.log(x0[log_mask])

    # Linear-space parameters get proposal steps relative to their start
    # value; log-space parameters step in log units directly.
    ps = cfg.proposal_scale
    steps = ps if isinstance(ps, dict) else dict.fromkeys(names, ps)
    for key in steps:
        if key not in names:
            raise ValueError(f"proposal_scale key {key!r} names no learned "
                             "noise level")
    scales = np.array([steps.get(name, DEFAULT_STEP) for name in names],
                      dtype=float)
    scales[~log_mask] *= np.abs(x0[~log_mask])
    layout = gp.data_layout(datasets, bcs)
    table = [prior.log_density for prior in prior_list]
    log_index = np.flatnonzero(log_mask)
    log_positions = log_index.tolist()
    counts = Counter()

    def log_target(s):
        counts["evaluations"] += 1
        logs = s.take(log_index)
        values = s.tolist()
        for i, v in zip(log_positions, np.exp(logs).tolist()):
            values[i] = v
        if min(values) <= 0:
            counts["prior_support"] += 1
            return -np.inf
        try:
            theta = codec.theta(values)
        except ValueError:
            counts["invalid_theta"] += 1
            return -np.inf
        lp = log_posterior(layout, theta, values, table, counts)
        if not math.isfinite(lp):
            return -np.inf
        # Jacobian of the log transform.
        return lp + float(np.add.reduce(logs))

    # exp overflows to inf past a log-scale value of ~709: Theta refuses
    # the inf, so the chain counts it without a warning.
    with np.errstate(over="ignore"):
        draws_s, acc = random_walk_metropolis(log_target, s0, cfg,
                                              scales=scales)
    draws = draws_s.copy()
    draws[:, log_mask] = np.exp(draws_s[:, log_mask])
    target_counts = {
        "evaluations": counts["evaluations"],
        "rejected": {cause: counts[cause] for cause in REJECTIONS},
        "jitter": {repr(level): counts[level]
                   for level in (0.0,) + gp.JITTER_LADDER},
    }
    return PosteriorChain(param_names=names, draws=draws,
                          acceptance_rate=acc, target_counts=target_counts)


def summarize(chain: PosteriorChain) -> dict:
    """Per-parameter mean, std and 5/25/50/75/95 % quantiles of the draws."""
    if len(chain) == 0:
        raise ValueError("chain is empty")
    out = {}
    for i, name in enumerate(chain.param_names):
        col = chain.draws[:, i]
        out[name] = {
            "mean": float(np.mean(col)),
            "std": float(np.std(col)),
            "quantiles": {f"q{int(100 * q):02d}": float(np.quantile(col, q))
                          for q in (0.05, 0.25, 0.5, 0.75, 0.95)},
        }
    return out


def effective_sample_size(x: np.ndarray) -> float:
    """Initial-positive-sequence ESS estimate for one chain component."""
    x = np.asarray(x, float)
    n = x.size
    if n < 4:
        return float(n)
    xc = x - x.mean()
    var = float(xc @ xc) / n
    if var == 0:
        return float(n)
    rho_sum = 0.0
    for lag in range(1, n // 2):
        rho = float(xc[:-lag] @ xc[lag:]) / ((n - lag) * var)
        if rho <= 0.0:
            break
        rho_sum += rho
    return float(n / (1.0 + 2.0 * rho_sum))
