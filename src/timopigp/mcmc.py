"""Random-walk Metropolis-Hastings over the GP hyperparameter posterior.

Scale-like parameters (signal variance, length scale, noise stds) are
sampled in log space so positivity holds by construction, with the
corresponding Jacobian terms added to the transformed-space target.  The
stiffness parameters keep linear coordinates because their priors are
bounded-uniform in linear units.  The Gaussian proposal is symmetric, so
the proposal ratio cancels in the acceptance probability.

One ``ThetaCodec`` maps parameter names to ``Theta`` fields and says
which are sampled in log space: the chain's start vector and steps, its
draws' Thetas and a chain CSV's header all go through it.  A chain builds
its data layout and its prior once, a table of each parameter's log
density in parameter order.  Each step undoes the log transform, checks
positivity, builds the Theta and scores it with ``log_posterior``: the
table summed in that order plus ``gp.log_marginal_likelihood``.  Each
log-target evaluation lands in one count: a rejection by cause (prior
support, invalid theta, non-finite K, ill-conditioned K) or the jitter
level its factorization used.
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

LOG_PARAMS = ("sigma_s2", "ell")

# Why a log-target evaluation had zero density.
REJECTIONS = ("prior_support", "invalid_theta", "non_finite_covariance",
              "ill_conditioned")


@dataclass(frozen=True)
class Flat:
    """Improper uniform prior on the positive half-line."""

    def log_density(self, value: float) -> float:
        return 0.0 if value > 0 else -np.inf


@dataclass(frozen=True)
class LogFlat:
    """Jeffreys-type prior for positive scales: uniform in log(value).

    This is the default for the kernel variance, length scale and noise
    levels.  A prior flat in the linear value leaves the posterior with a
    non-decaying plateau as the length scale and signal variance grow
    together, so chains drift into arbitrarily long length scales; flat in
    the log removes that improperness while staying uninformative about
    the order of magnitude.
    """

    def log_density(self, value: float) -> float:
        return -float(np.log(value)) if value > 0 else -np.inf


@dataclass(frozen=True)
class UniformBounded:
    lo: float
    hi: float

    def __post_init__(self):
        if not -math.inf < self.lo < self.hi < math.inf:
            raise ValueError("UniformBounded requires finite lo < hi, got "
                             f"{self.lo!r}, {self.hi!r}")

    def log_density(self, value: float) -> float:
        if self.lo <= value <= self.hi:
            return -np.log(self.hi - self.lo)
        return -np.inf


@dataclass(frozen=True)
class McmcConfig:
    n_total: int = 25000
    n_b: int = 5000
    n_t: int = 10
    proposal_scale: float | dict = 0.1
    seed: int = 0
    adapt: bool = True

    def __post_init__(self):
        if not 0 <= self.n_b < self.n_total:
            raise ValueError("require 0 <= n_b < n_total")
        if self.n_t < 1:
            raise ValueError("thinning stride must be >= 1")
        scales = self.proposal_scale
        for v in scales.values() if isinstance(scales, dict) else [scales]:
            if isinstance(v, bool) or not isinstance(v, numbers.Real) \
                    or not 0 < v < math.inf:
                raise ValueError("proposal scales must be positive and "
                                 f"finite numbers, got {v!r}")


class ThetaCodec:
    """Parameter vectors <-> Theta, by name.

    ``names`` holds each of ``FIELDS`` once and one ``sigma_n:<label>``
    per learned noise level, in any order; ``is_log`` flags the entries
    sampled in log space.  A chain's names are the fields, then its
    start point's noise labels (``of``); a chain CSV's are its header.
    """

    FIELDS = ("sigma_s2", "ell", "EI", "kGA")
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
        self.is_log = np.array([self.log_space(name) for name in self.names])
        # The fields in Theta's order, then the noise levels.
        self._take = operator.itemgetter(
            *[self.names.index(name) for name in self.FIELDS], *noise)

    @classmethod
    def of(cls, theta: Theta) -> ThetaCodec:
        return cls(list(cls.FIELDS)
                   + [cls.NOISE + label for label in theta.sigma_n])

    @classmethod
    def log_space(cls, name: str) -> bool:
        """Scale-like parameters are sampled in log space."""
        return name in LOG_PARAMS or name.startswith(cls.NOISE)

    def theta(self, values) -> Theta:
        """The Theta of one vector: a list of floats in ``names`` order."""
        v = self._take(values)
        return Theta(*v[:4], sigma_n=dict(zip(self.labels, v[4:])))

    @staticmethod
    def vector(theta: Theta) -> np.ndarray:
        """Theta's vector in the order of ``of(theta)``'s names."""
        return np.array([theta.sigma_s2, theta.ell, theta.EI, theta.kGA,
                         *theta.sigma_n.values()], dtype=float)


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
    log_posterior_trace: np.ndarray
    seed: int
    target_counts: dict = field(default_factory=dict)

    @property
    def thetas(self) -> list:
        """One Theta per draw.  Each access builds the list anew, so a
        caller binds it once."""
        codec = ThetaCodec(self.param_names)
        return [codec.theta(row) for row in self.draws.tolist()]

    def __len__(self) -> int:
        return len(self.draws)


def default_prior(name: str):
    """Scale-like parameters get LogFlat, everything else Flat."""
    return LogFlat() if ThetaCodec.log_space(name) else Flat()


def _prior_table(names, priors: dict) -> list:
    """Each parameter's log density, in ``names`` order."""
    return [priors.get(name, default_prior(name)).log_density
            for name in names]


def log_posterior(layout: gp.Layout, theta: Theta, values, table,
                  counts: Counter) -> float:
    """Unnormalized log posterior: log prior plus log marginal likelihood.

    ``values`` is theta's parameter vector in the order of ``table``, the
    prior table of its names (``_prior_table``); the log prior sums the
    table's densities in that order.  The value is -inf off the prior's
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


def random_walk_metropolis(log_target, x0, cfg: McmcConfig,
                           scales=None):
    """Generic symmetric-proposal MH core in unconstrained coordinates.

    Returns (kept draws, acceptance rate, kept log-target values).  Proposal
    scales optionally adapt towards ~30% acceptance during burn-in and are
    frozen afterwards.
    """
    rng = np.random.default_rng(cfg.seed)
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    d = x.size
    if scales is None:
        scales = np.full(d, float(cfg.proposal_scale)
                         if np.isscalar(cfg.proposal_scale) else 0.1)
    scales = np.broadcast_to(np.asarray(scales, float), (d,)).copy()

    lt = log_target(x)
    if not np.isfinite(lt):
        raise ValueError("initial point has zero posterior density")

    kept, kept_lt = [], []
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
        a = rng.uniform()
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
            kept_lt.append(lt)
    return (np.asarray(kept), accepts / cfg.n_total,
            np.asarray(kept_lt))


def run_chain(datasets, bcs, priors: dict, cfg: McmcConfig,
              theta0: Theta) -> PosteriorChain:
    """Sample the hyperparameter posterior; deterministic under fixed seed."""
    codec = ThetaCodec.of(theta0)
    names, is_log = codec.names, codec.is_log
    x0 = ThetaCodec.vector(theta0)
    if np.any(x0[is_log] <= 0):
        raise ValueError("log-transformed parameters must start positive")
    s0 = x0.copy()
    s0[is_log] = np.log(x0[is_log])

    # Linear-space parameters get proposal steps relative to their start
    # value; log-space parameters step in log units directly.
    base = float(cfg.proposal_scale) if np.isscalar(cfg.proposal_scale) \
        else 0.1
    scales = np.full(len(names), base)
    if not np.isscalar(cfg.proposal_scale):
        for i, name in enumerate(names):
            scales[i] = cfg.proposal_scale.get(name, base)
    scales[~is_log] *= np.abs(x0[~is_log])
    layout = gp.data_layout(datasets, bcs)
    table = _prior_table(names, priors)
    log_index = np.flatnonzero(is_log)
    counts = Counter()

    def log_target(s):
        counts["evaluations"] += 1
        logs = s.take(log_index)
        vec = s.copy()
        vec[log_index] = np.exp(logs)
        if vec.min() <= 0:
            counts["prior_support"] += 1
            return -np.inf
        values = vec.tolist()
        try:
            theta = codec.theta(values)
        except ValueError:
            counts["invalid_theta"] += 1
            return -np.inf
        lp = log_posterior(layout, theta, values, table, counts)
        if not math.isfinite(lp):
            return -np.inf
        # Jacobian of the log transform.
        return lp + float(logs.sum())

    # exp overflows to inf past a log-scale value of ~709: Theta refuses
    # the inf, so the chain counts it without a warning.
    with np.errstate(over="ignore"):
        draws_s, acc, lts = random_walk_metropolis(log_target, s0, cfg,
                                                   scales=scales)
    draws = draws_s.copy()
    draws[:, is_log] = np.exp(draws_s[:, is_log])
    target_counts = {
        "evaluations": counts["evaluations"],
        "rejected": {cause: counts[cause] for cause in REJECTIONS},
        "jitter": {repr(level): counts[level]
                   for level in (0.0,) + gp.JITTER_LADDER},
    }
    return PosteriorChain(param_names=names, draws=draws,
                          acceptance_rate=acc, log_posterior_trace=lts,
                          seed=cfg.seed, target_counts=target_counts)


def summarize(chain: PosteriorChain,
              quantiles=(0.05, 0.25, 0.5, 0.75, 0.95)) -> dict:
    """Per-parameter sample statistics of the posterior draws."""
    if len(chain) == 0:
        raise ValueError("chain is empty")
    out = {}
    for i, name in enumerate(chain.param_names):
        col = chain.draws[:, i]
        out[name] = {
            "mean": float(np.mean(col)),
            "std": float(np.std(col)),
            "quantiles": {f"q{int(100 * q):02d}": float(np.quantile(col, q))
                          for q in quantiles},
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
