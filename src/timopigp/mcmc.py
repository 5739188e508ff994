"""Random-walk Metropolis-Hastings over the GP hyperparameter posterior.

Each prior says which coordinate its parameter is sampled in and gives
its log density in that coordinate: ``LogFlat`` is flat in log(value), so
positivity holds by construction, and ``UniformBounded`` in the value
itself.  A chain's priors are the caller's boxes for EI and kGA and
``LogFlat`` for the rest (signal variance, length scale, noise stds).  The
Gaussian proposal is symmetric, so the proposal ratio cancels.

One ``ThetaCodec`` maps parameter names to ``Theta`` fields: the chain's
start vector and steps, its draws' Thetas and a chain CSV's header all go
through it.  A chain builds its data layout and its list of priors once,
in parameter order.  Each step exponentiates the log coordinates, checks
positivity, builds the Theta and scores it with ``log_posterior``, the
chain's whole target: ``gp.log_marginal_likelihood`` plus each prior's
log density in its sampling coordinate, with no Jacobian term.  Each
log-target evaluation lands in one count: a rejection by cause (prior
support, invalid theta, non-finite K, ill-conditioned K) or the jitter
level its factorization used.

``run_lockstep`` steps chains whose data sit at one set of sites
together, each with its own Generator and rules (``_walk``, the walk
that ``random_walk_metropolis`` drives too): their covariances are
evaluated as one stack, and each chain's draws and counts are its
``run_chain``'s bit for bit.
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
    """Uniform in log(value) on the positive half-line, and sampled there:
    its log density in that coordinate is 0 for a positive value.

    The prior of every parameter but the stiffnesses: the kernel variance,
    the length scale and the noise levels.  It is improper, and flat in the
    log does not give the length scale a top.  With EI, kGA and the noise
    at their true values (r = 0.3, SNR 100, support BCs), the log target
    maximised over the kernel variance rises from 86.1 at ell = 0.46 to
    98.7 at ell = 3, so a chain creeps up that ridge.
    """

    log_coordinate = True
    # The support, 0 excluded: a chain refuses a value <= 0 before it
    # asks any prior.
    lo, hi = 0.0, math.inf

    def log_density(self, value: float) -> float:
        return 0.0 if value > 0 else -np.inf


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
                  counts: Counter, K=None) -> float:
    """The chain's target: log prior plus log marginal likelihood.

    ``values`` is theta's parameter vector in the order of ``table``, the
    log densities of its names' priors, each in its sampling coordinate;
    the log prior sums them in that order.  The value is -inf off the
    prior's support and for a K that cannot be factorized; ``counts``
    gets one count, the cause (``REJECTIONS``) or the jitter level.
    ``K``, if given, is the layout's covariance at theta from a stacked
    ``gp.evaluate``.
    """
    lp = 0.0
    for log_density, v in zip(table, values):
        lp += log_density(v)
    if not math.isfinite(lp):
        counts["prior_support"] += 1
        return -math.inf
    try:
        lml, level = gp.log_marginal_likelihood(layout, theta, K)
    except NonFiniteCovarianceError:
        counts["non_finite_covariance"] += 1
        return -math.inf
    except IllConditionedModelError:
        counts["ill_conditioned"] += 1
        return -math.inf
    counts[level] += 1
    return lml + lp


def _walk(x0, cfg: McmcConfig, scales):
    """``random_walk_metropolis``'s walk as a generator: it yields the
    start, then each step's proposal, is sent the log target of each, and
    returns (kept draws, acceptance rate)."""
    rng = np.random.default_rng(cfg.seed)
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    d = x.size
    scales = np.asarray(scales, dtype=float)

    lt = yield x
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
        lt_prop = yield prop
        a = rng.random()  # uniform() on [0, 1): the same draw, less overhead
        # A zero-density proposal is never taken, not even at a = 0.
        if math.isfinite(lt_prop) and np.log(a) <= lt_prop - lt:
            x, lt = prop, lt_prop
            accepts += 1
            window_accepts += 1
        if accepts == 0 and i + 1 >= stuck_limit:
            raise StuckChainError(i + 1, {"scales": scales.tolist(),
                                          "log_target": float(lt)})
        if i < cfg.n_b and (i + 1) % window == 0:
            rate = window_accepts / window
            if rate < 0.25:
                scales = np.maximum(scales * 0.8, scale_lo)
            elif rate > 0.40:
                scales = np.minimum(scales * 1.1, scale_hi)
            window_accepts = 0
        if i >= cfg.n_b and (i - cfg.n_b) % cfg.n_t == 0:
            kept.append(x.copy())
    return np.asarray(kept), accepts / cfg.n_total


def random_walk_metropolis(log_target, x0, cfg: McmcConfig, scales):
    """Generic symmetric-proposal MH core in unconstrained coordinates.

    ``scales`` holds the proposal std of each coordinate of ``x0``.
    Returns (kept draws, acceptance rate).  Proposal scales adapt towards
    ~30% acceptance during burn-in and are frozen afterwards.
    """
    walk = _walk(x0, cfg, scales)
    step = walk.send
    try:
        x = next(walk)
        while True:
            x = step(log_target(x))
    except StopIteration as done:
        return done.value


class _Chain:
    """One chain's fixed parts, set up as ``run_chain`` describes: its
    codec, priors in parameter order, log-coordinate mask, start in
    sampling coordinates, proposal scales, data layout and counts."""

    def __init__(self, priors: dict, cfg: McmcConfig, theta0: Theta,
                 layout: gp.Layout):
        self.codec = codec = ThetaCodec.of(theta0)
        self.names = names = codec.names
        for key in priors:
            if key not in names:
                raise ValueError(f"priors key {key!r} names no parameter "
                                 "of the chain")
        for name in ("EI", "kGA"):
            if name not in priors:
                raise ValueError(f"no prior box for {name}")
        self.priors = [priors.get(name, LogFlat()) for name in names]
        self.log_mask = np.array([p.log_coordinate for p in self.priors])
        self.log_index = np.flatnonzero(self.log_mask)
        x0 = ThetaCodec.vector(theta0)
        if np.any(x0[self.log_mask] <= 0):
            raise ValueError("log-transformed parameters must start "
                             "positive")
        self.s0 = x0.copy()
        self.s0[self.log_mask] = np.log(x0[self.log_mask])

        # Linear-space parameters get proposal steps relative to their
        # start value; log-space parameters step in log units directly.
        ps = cfg.proposal_scale
        steps = ps if isinstance(ps, dict) else dict.fromkeys(names, ps)
        for key in steps:
            if key not in names:
                raise ValueError(f"proposal_scale key {key!r} names no "
                                 "learned noise level")
        self.scales = np.array([steps.get(name, DEFAULT_STEP)
                                for name in names], dtype=float)
        self.scales[~self.log_mask] *= np.abs(x0[~self.log_mask])
        self.cfg, self.layout = cfg, layout
        self.table = [prior.log_density for prior in self.priors]
        self.counts = Counter()

    def result(self, draws_s: np.ndarray, acc: float) -> PosteriorChain:
        draws = draws_s.copy()
        draws[:, self.log_mask] = np.exp(draws_s[:, self.log_mask])
        counts = self.counts
        target_counts = {
            "evaluations": counts["evaluations"],
            "rejected": {cause: counts[cause] for cause in REJECTIONS},
            "jitter": {repr(level): counts[level]
                       for level in (0.0,) + gp.JITTER_LADDER},
        }
        return PosteriorChain(param_names=self.names, draws=draws,
                              acceptance_rate=acc,
                              target_counts=target_counts)


def run_chain(datasets, bcs, priors: dict, cfg: McmcConfig,
              theta0: Theta) -> PosteriorChain:
    """Sample the hyperparameter posterior; deterministic under fixed seed.

    ``priors`` holds the box of EI and of kGA; every parameter it leaves
    out gets ``LogFlat``, and a key that names no parameter of the chain
    is refused.  Each is sampled in its prior's coordinate.
    """
    return _sample(_Chain(priors, cfg, theta0, gp.data_layout(datasets, bcs)))


def _sample(chain: _Chain) -> PosteriorChain:
    """A chain set up (``_Chain``), sampled alone."""
    codec, layout, table = chain.codec, chain.layout, chain.table
    log_index, counts = chain.log_index, chain.counts

    def log_target(s):
        counts["evaluations"] += 1
        v = s.copy()
        v[log_index] = np.exp(s[log_index])
        values = v.tolist()
        if min(values) <= 0:
            counts["prior_support"] += 1
            return -np.inf
        try:
            theta = codec.theta(values)
        except ValueError:
            counts["invalid_theta"] += 1
            return -np.inf
        return log_posterior(layout, theta, values, table, counts)

    # exp overflows to inf past a log-scale value of ~709: Theta refuses
    # the inf, so the chain counts it without a warning.
    with np.errstate(over="ignore"):
        draws_s, acc = random_walk_metropolis(log_target, chain.s0,
                                              chain.cfg, scales=chain.scales)
    return chain.result(draws_s, acc)


# The most stacked term elements (chains times a layout's terms) that
# run_lockstep steps at once; more chains run as consecutive groups.  A
# stack's cost per theta rises past about 25 000 of them: the sweep's
# 2 500-term layout read 15-16 us per theta at 8 to 10 chains and 30 us
# at 12 or more (2-vCPU VM), so it steps 6 chains at a time.
STACK_ELEMENTS = 1 << 14


def run_lockstep(runs) -> list:
    """``run_chain`` of each run, the chains stepped together.

    ``runs`` holds one ``(datasets, bcs, priors, cfg, theta0)`` per chain,
    as ``run_chain`` takes them; their entries sit at one set of sites,
    and their priors sample the same names in the same coordinates.  Each
    chain keeps its own Generator, priors, data, noise, proposal scales
    and rules (``_walk``), and its draws, acceptance rate and counts are
    its ``run_chain``'s bit for bit: at each step the chains' proposals
    are mapped to Thetas as one block, their covariances evaluated as one
    stack, and each is scored by ``log_posterior`` from its member of
    the stack.  Runs that would stack more than ``STACK_ELEMENTS`` term
    elements are stepped in consecutive groups.

    Returns per run its PosteriorChain, or the exception that
    ``run_chain`` raises for it (a chain that fails leaves the others'
    draws as they are).
    """
    out, chains = [None] * len(runs), []
    base = None
    for k, (datasets, bcs, priors, cfg, theta0) in enumerate(runs):
        if base is None:
            layout = base = gp.data_layout(datasets, bcs)
        else:
            layout = base.over(gp.order_entries(datasets, bcs))
        try:
            chains.append((k, _Chain(priors, cfg, theta0, layout)))
        except ValueError as exc:
            out[k] = exc
    if not chains:
        return out
    if any(c.names != chains[0][1].names
           or (c.log_mask != chains[0][1].log_mask).any()
           for _, c in chains):
        raise ValueError("lock-step chains must sample the same names in "
                         "the same coordinates")
    per = max(1, STACK_ELEMENTS // base.term_index.size)
    for at in range(0, len(chains), per):
        group = [chain for _, chain in chains[at:at + per]]
        # One chain has nothing to step together with: run_chain's own
        # loop spares it the block bookkeeping (0.83x as fast per step in
        # lock-step at the sweep's scenario).
        done = _step_together(group, base) if len(group) > 1 \
            else [_alone(group[0])]
        for (k, _), result in zip(chains[at:at + per], done):
            out[k] = result
    return out


def _alone(chain: _Chain):
    """``_sample(chain)``, or the exception a chain fails with."""
    try:
        return _sample(chain)
    except (ValueError, StuckChainError) as exc:
        return exc


def _step_together(chains, base: gp.Layout) -> list:
    """Each chain's PosteriorChain, or the exception it failed with;
    ``base`` is the layout whose stacked ``evaluate`` serves all."""
    out = [None] * len(chains)
    walks = [_walk(chain.s0, chain.cfg, chain.scales) for chain in chains]
    points = [next(walk) for walk in walks]  # the starts
    live = list(range(len(chains)))
    # exp overflows as in run_chain, and is counted as there.
    with np.errstate(over="ignore"):
        while live:  # until a chain ends
            members = [chains[j] for j in live]
            support = (np.array([[p.lo for p in c.priors] for c in members]),
                       np.array([[p.hi for p in c.priors] for c in members]))
            ended = False
            while not ended:
                lts = _log_targets(members, base, support,
                                   np.array([points[j] for j in live]))
                for j, lt in zip(live, lts):
                    try:
                        points[j] = walks[j].send(lt)
                    except StopIteration as done:
                        out[j], ended = chains[j].result(*done.value), True
                    except (ValueError, StuckChainError) as exc:
                        out[j], ended = exc, True
            live = [j for j in live if out[j] is None]
    return out


def _log_targets(chains, base: gp.Layout, support: tuple,
                 S: np.ndarray) -> list:
    """Each chain's log target at its row of S: ``run_chain``'s log
    target, with the covariances of the rows that map to a Theta inside
    their priors' ``support`` (one (lo, hi) row per chain) evaluated as
    one stack."""
    V = S.copy()
    np.exp(S, out=V, where=chains[0].log_mask)
    lo, hi = support
    inside = ((lo <= V) & (V <= hi)).all(axis=1).tolist()
    out = [-math.inf] * len(chains)
    scored, stacked = [], []
    for j, (chain, values) in enumerate(zip(chains, V.tolist())):
        chain.counts["evaluations"] += 1
        if min(values) <= 0:
            chain.counts["prior_support"] += 1
            continue
        try:
            theta = chain.codec.theta(values)
        except ValueError:
            chain.counts["invalid_theta"] += 1
            continue
        scored.append((j, theta, values))
        if inside[j]:
            stacked.append(theta)
    # A row off the support gets no member: log_posterior rejects it
    # before it asks for one.
    K = iter(gp.evaluate(base, stacked) if stacked else ())
    for j, theta, values in scored:
        chain = chains[j]
        out[j] = log_posterior(chain.layout, theta, values, chain.table,
                               chain.counts, next(K) if inside[j] else None)
    return out


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
