"""Random-walk Metropolis-Hastings over the GP hyperparameter posterior.

Scale-like parameters (signal variance, length scale, noise stds) are
sampled in log space so positivity holds by construction, with the
corresponding Jacobian terms added to the transformed-space target.  The
stiffness parameters keep linear coordinates because their priors are
bounded-uniform in linear units.  The Gaussian proposal is symmetric, so
the proposal ratio cancels in the acceptance probability.

A chain builds its prior once: a table of each parameter's log density in
parameter order, summed per step in that order, the path ``log_prior``
takes too.  Each log-target evaluation lands in one count: a rejection by
cause (prior support, invalid theta, non-finite K, ill-conditioned K) or
the jitter level its factorization used.
"""

from __future__ import annotations

import math
import numbers
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


@dataclass
class PosteriorChain:
    """Post burn-in, thinned draws with acceptance diagnostics.

    ``target_counts`` holds the log-target evaluations, the zero-density
    ones by cause (``REJECTIONS``) and, per jitter level, the ones that
    factorized K at it; the last two add up to the first.
    """

    param_names: list
    draws: np.ndarray
    thetas: list
    acceptance_rate: float
    log_posterior_trace: np.ndarray
    seed: int
    target_counts: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.thetas)


def _param_layout(theta0: Theta):
    names = ["sigma_s2", "ell", "EI", "kGA"]
    names += [f"sigma_n:{label}" for label in theta0.sigma_n]
    is_log = [name in LOG_PARAMS or name.startswith("sigma_n:")
              for name in names]
    return names, np.array(is_log)


def _theta_to_vector(theta: Theta, names) -> np.ndarray:
    out = []
    for name in names:
        if name.startswith("sigma_n:"):
            out.append(theta.sigma_n[name.split(":", 1)[1]])
        else:
            out.append(getattr(theta, name))
    return np.array(out, dtype=float)


def _vector_to_theta(vec: np.ndarray, names) -> Theta:
    kw = {"sigma_n": {}}
    for name, value in zip(names, vec):
        if name.startswith("sigma_n:"):
            kw["sigma_n"][name.split(":", 1)[1]] = float(value)
        else:
            kw[name] = float(value)
    return Theta(**kw)


def thetas_from_draws(draws: np.ndarray, names) -> list:
    """One Theta per row of a draws matrix with columns ``names``."""
    return [_vector_to_theta(v, names) for v in draws]


def default_prior(name: str):
    """Scale-like parameters get LogFlat, everything else Flat."""
    if name in LOG_PARAMS or name.startswith("sigma_n:"):
        return LogFlat()
    return Flat()


def _prior_table(names, priors: dict) -> list:
    """Each parameter's log density, in ``names`` order."""
    return [priors.get(name, default_prior(name)).log_density
            for name in names]


def _prior_sum(table, values) -> float:
    """Sum of the prior log densities in table order; -inf off support."""
    total = 0.0
    for log_density, value in zip(table, values):
        total += log_density(value)
    return total if math.isfinite(total) else -math.inf


def log_prior(theta: Theta, priors: dict) -> float:
    names, _ = _param_layout(theta)
    return _prior_sum(_prior_table(names, priors),
                      _theta_to_vector(theta, names).tolist())


def _log_likelihood(layout: gp.Layout, theta: Theta, counts: Counter) -> float:
    """Log marginal likelihood, -inf for a K that cannot be factorized.

    ``counts`` gets one count: the failure's cause or the jitter level.
    """
    try:
        model = gp.factorize(layout, theta)
    except NonFiniteCovarianceError:
        counts["non_finite_covariance"] += 1
        return -math.inf
    except IllConditionedModelError:
        counts["ill_conditioned"] += 1
        return -math.inf
    counts[model.jitter] += 1
    return gp.log_marginal_likelihood(model)


def log_posterior(theta: Theta, datasets, bcs, priors: dict,
                  layout: gp.Layout | None = None) -> float:
    """Unnormalized log posterior: marginal likelihood plus log prior.

    ``layout`` is ``gp.data_layout(datasets, bcs)``, for a caller that
    evaluates many thetas on the same data.
    """
    lp = log_prior(theta, priors)
    if not np.isfinite(lp):
        return -np.inf
    if layout is None:
        layout = gp.data_layout(datasets, bcs)
    return _log_likelihood(layout, theta, Counter()) + lp


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
    names, is_log = _param_layout(theta0)
    x0 = _theta_to_vector(theta0, names)
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
    labels = list(theta0.sigma_n)
    counts = Counter()

    def log_target(s):
        counts["evaluations"] += 1
        vec = s.copy()
        vec[is_log] = np.exp(s[is_log])
        if (vec <= 0).any():
            counts["prior_support"] += 1
            return -np.inf
        values = vec.tolist()
        try:
            theta = Theta(*values[:4], sigma_n=dict(zip(labels, values[4:])))
        except ValueError:
            counts["invalid_theta"] += 1
            return -np.inf
        lp = _prior_sum(table, values)
        if lp == -math.inf:
            counts["prior_support"] += 1
            return -np.inf
        lp = _log_likelihood(layout, theta, counts) + lp
        if not math.isfinite(lp):
            return -np.inf
        # Jacobian of the log transform.
        return lp + float(s[is_log].sum())

    draws_s, acc, lts = random_walk_metropolis(log_target, s0, cfg,
                                               scales=scales)
    draws = draws_s.copy()
    draws[:, is_log] = np.exp(draws_s[:, is_log])
    thetas = thetas_from_draws(draws, names)
    target_counts = {
        "evaluations": counts["evaluations"],
        "rejected": {cause: counts[cause] for cause in REJECTIONS},
        "jitter": {repr(level): counts[level]
                   for level in (0.0,) + gp.JITTER_LADDER},
    }
    return PosteriorChain(param_names=names, draws=draws, thetas=thetas,
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
