"""Random-walk Metropolis-Hastings over the GP hyperparameter posterior.

Scale-like parameters (signal variance, length scale, noise stds) are
sampled in log space so positivity holds by construction, with the
corresponding Jacobian terms added to the transformed-space target.  The
stiffness parameters keep linear coordinates because their priors are
bounded-uniform in linear units.  The Gaussian proposal is symmetric, so
the proposal ratio cancels in the acceptance probability.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from timopigp import gp
from timopigp.errors import (IllConditionedModelError,
                             NonFiniteCovarianceError, StuckChainError)
from timopigp.gp import Theta

LOG_PARAMS = ("sigma_s2", "ell")


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
        if not self.lo < self.hi:
            raise ValueError("UniformBounded requires lo < hi")

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


@dataclass
class PosteriorChain:
    """Post burn-in, thinned draws with acceptance diagnostics."""

    param_names: list
    draws: np.ndarray
    thetas: list
    acceptance_rate: float
    log_posterior_trace: np.ndarray
    seed: int

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


def default_prior(name: str):
    """Scale-like parameters get LogFlat, everything else Flat."""
    if name in LOG_PARAMS or name.startswith("sigma_n:"):
        return LogFlat()
    return Flat()


def log_prior(theta: Theta, priors: dict) -> float:
    names, _ = _param_layout(theta)
    vec = _theta_to_vector(theta, names)
    total = 0.0
    for name, value in zip(names, vec):
        spec = priors.get(name, default_prior(name))
        total += spec.log_density(value)
        if not np.isfinite(total):
            return -np.inf
    return total

def log_posterior(theta: Theta, datasets, bcs, priors: dict) -> float:
    """Unnormalized log posterior: marginal likelihood plus log prior."""
    lp = log_prior(theta, priors)
    if not np.isfinite(lp):
        return -np.inf
    try:
        model = gp.assemble(datasets, bcs, theta)
    except (IllConditionedModelError, NonFiniteCovarianceError):
        return -np.inf
    return gp.log_marginal_likelihood(model) + lp


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
        if np.log(a) <= lt_prop - lt:
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

    def log_target(s):
        vec = s.copy()
        vec[is_log] = np.exp(s[is_log])
        if np.any(vec <= 0):
            return -np.inf
        try:
            theta = _vector_to_theta(vec, names)
        except ValueError:
            return -np.inf
        lp = log_posterior(theta, datasets, bcs, priors)
        if not np.isfinite(lp):
            return -np.inf
        # Jacobian of the log transform.
        return lp + float(np.sum(s[is_log]))

    draws_s, acc, lts = random_walk_metropolis(log_target, s0, cfg,
                                               scales=scales)
    draws = draws_s.copy()
    draws[:, is_log] = np.exp(draws_s[:, is_log])
    thetas = [_vector_to_theta(v, names) for v in draws]
    return PosteriorChain(param_names=names, draws=draws, thetas=thetas,
                          acceptance_rate=acc, log_posterior_trace=lts,
                          seed=cfg.seed)


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
