"""Greedy sensor placement over a candidate grid.

Three criteria are supported: the physics-informed conditional entropy
(full multi-output kernel with boundary conditions), a plain SE-kernel
entropy baseline, and a plain SE-kernel mutual-information baseline.  The
baselines are blind to the physical domain, so they yield the same sets
for deflection and rotation candidates; the physics-informed criterion
couples domains through the cross-covariance kernels.  Placement is
pre-data: only locations and kernel parameters enter the scores.

Every score is read from one prior covariance Sigma per candidate pool:
the pool's covariance conditioned on the BCs (``Prior.conditioned``,
Sigma = K_cc - K_cb K_bb^-1 K_bc) for the physics criterion, the SE base
kernel for the baselines.  A candidate scores 0.5 ln(2 pi e C_jj), C_jj
floored at 1e-12 of its prior variance; observing it conditions C, which
starts at Sigma, by the rank-1 downdate C <- C - c c^T / (C_jj + delta).
delta, the noise of a placed sensor, is 0 for physics and 1e-8 sigma_s^2
for the baselines, whose dense-grid SE covariance is singular to working
precision.  Mutual information (Krause, Singh & Guestrin, JMLR 2008)
subtracts the entropy of 1/diag(P) - delta over U, the unselected set,
P = (Sigma_UU + delta I)^-1: inverted once per pool, and each pick
dropped from P by its Schur complement, the same rank-1 downdate.  MI
scores within a relative 1e-6 of the best tie, and the lowest index
wins; the others tie only when equal.  A joint entropy sums the physics
scores of a set in order, each given those before it: ``set_entropy``
walks one set and the exhaustive map every subset of the candidates,
depth first, scoring the last three picks of each prefix in one
vectorized step.  A ``Prior`` holds the BCs' K_bb factorized once and
each pool's Sigma built once, so one ``place`` command shares them across
kinds, criteria and the map, and a greedy's set reads its Sigma from the
pool's.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from timopigp import gp, kernels
from timopigp.errors import EntropyOverflowError, EnumerationGuardError
from timopigp.gp import JITTER_LADDER, Theta
from timopigp.quantities import BLOCK_INDEX, QuantityKind

_LOG_2PIE = math.log(2.0 * math.pi * math.e)

# Relative tolerance within which mutual-information scores tie.  An MI
# score subtracts the entropy of 1 / P_ii - delta, P the precision of
# Sigma_UU + delta I, so its rounding error scales with cond(Sigma_UU +
# delta I) eps: up to about 8e-7 on 121 candidates at ell = L/8, where
# cond is 3-4e9.  A fresh inverse per step and the downdated P gave
# scores up to 6e-8 apart there, more than the gaps that decide some
# picks.  Scores within this tolerance of the maximum tie and the lowest
# index wins, so the pick does not hinge on how P was rounded.  The
# physics and entropy scores tie only at equality.
_MI_TIE = 1e-6

# Largest pool whose Sigma a Prior reads sub-blocks from.  A sub-block is
# the fresh Sigma of its sensors bit for bit only while BLAS forms each
# element of K_Sb K_bb^-1 K_bS alike at both sizes: checked for pools of
# up to this size (tests/test_placement.py); from about 190 sensors up,
# OpenBLAS 0.3.31's dgemm (Haswell kernels) rounds some elements
# otherwise.
_HELD_POOL_MAX = 128


class PlacementCriterion(Enum):
    PHYSICS_INFORMED_ENTROPY = "physics"
    ENTROPY = "entropy"
    MUTUAL_INFORMATION = "mi"


@dataclass
class PlacementProblem:
    """Candidate grid, budget and model for one placement run.

    ``prior`` is the ``Prior`` of ``bcs`` and ``params``; problems that
    share one share its K_bb factorization and conditioned covariances.
    """

    candidates: np.ndarray
    kinds: list
    n_sensors: int
    params: Theta
    bcs: list = field(default_factory=list)
    criterion: PlacementCriterion = PlacementCriterion.PHYSICS_INFORMED_ENTROPY
    joint_budget: bool = False
    prior: Prior | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.prior is None:
            self.prior = Prior(self.bcs, self.params)
        elif self.prior.bcs is not self.bcs or \
                self.prior.theta != self.params:
            raise ValueError("prior was built for other BCs or parameters")
        self.candidates = np.atleast_1d(np.asarray(self.candidates, float))
        if isinstance(self.kinds, QuantityKind):
            self.kinds = [self.kinds] * self.candidates.size
        if len(self.kinds) != self.candidates.size:
            raise ValueError("kinds must match candidates one-to-one")
        if any(k is QuantityKind.STRAIN for k in self.kinds):
            raise ValueError("strain candidates are not supported; place "
                             "sensors in the x-only domains")
        if self.n_sensors < 0:
            raise ValueError("n_sensors must be non-negative")
        if self.n_sensors > self.candidates.size and not self.joint_budget \
                and len(set(self.kinds)) == 1:
            raise ValueError("n_sensors exceeds candidate count")


@dataclass
class PlacementResult:
    """Ordered greedy selections with per-step entropy gains."""

    selected: list            # (location, kind) in selection order
    step_entropies: list
    criterion: PlacementCriterion
    set_entropy: float | None = None


def _require_distinct(sensors):
    """A repeated (x, kind) sensor makes a joint Sigma singular."""
    locs = [(round(x, 12), kind) for x, kind in sensors]
    if len(set(locs)) != len(locs):
        raise ValueError("selected sensors must be distinct")


class Prior:
    """The physics-informed prior of one (BCs, theta).

    ``conditioned(sensors)`` is (diag(K_SS), Sigma) of (x, kind) sensors
    in their order, Sigma = K_SS - K_Sb K_bb^-1 K_bS.  K_bb is factorized
    by ``gp.assemble([], bcs, theta)`` on first use, and each sensor list's
    pair is built once and kept, read-only, for the Prior's lifetime: one
    Prior per command shares them across its kinds, criteria and map.  A
    list that a held pool of at most ``_HELD_POOL_MAX`` sensors covers is
    read from that pool's pair, so a greedy's set is not built again.
    Repeated sensors give a singular Sigma, which the downdates tolerate.
    """

    def __init__(self, bcs, theta: Theta):
        self.bcs = bcs
        self.theta = theta
        self._conditioned = {}
        self._positions = {}    # held pool: {sensor: position}

    @functools.cached_property
    def bc_model(self) -> gp.CovarianceModel:
        return gp.assemble([], self.bcs, self.theta)

    def conditioned(self, sensors) -> tuple:
        key = tuple(sensors)
        if key not in self._conditioned:
            pair = self._from_held(key) or self._condition(key)
            for a in pair:
                a.flags.writeable = False
            self._conditioned[key] = pair
            if len(key) <= _HELD_POOL_MAX:
                self._positions[key] = {s: i for i, s in enumerate(key)}
        return self._conditioned[key]

    def _from_held(self, sensors):
        """The pair of ``sensors`` as the sub-block, in their order, of a
        held pool's pair that holds them all; None if no pool does."""
        for pool, where in self._positions.items():
            if all(s in where for s in sensors):
                pos = [where[s] for s in sensors]
                prior, sigma = self._conditioned[pool]
                return prior[pos], sigma[np.ix_(pos, pos)]
        return None

    def _condition(self, sensors) -> tuple:
        entries = [gp.Points(kind, np.array([x for x, _ in run], float))
                   for kind, run in itertools.groupby(sensors,
                                                      key=lambda s: s[1])]
        if not self.bcs:
            k = gp.check_finite(gp.covariance(entries, self.theta))
            return np.diag(k).copy(), k
        # K_SS and K_Sb are the sensor rows of one covariance over the
        # sensors followed by the BCs.
        model = self.bc_model
        k = gp.covariance(entries + list(model.entries), self.theta)
        n = len(sensors)
        ks = k[:n, n:]
        return (np.diag(k)[:n].copy(),
                gp.check_finite(k[:n, :n] - ks @ model.solve(ks.T)))


def _entropy_from_var(var):
    return 0.5 * (_LOG_2PIE + np.log(var))


def _observe(C, j, delta, floor):
    """Condition C in place on candidate j observed with noise delta."""
    c = C[:, j].copy()
    C -= np.outer(c, c) / max(C[j, j] + delta, floor)


def _greedy_single(problem: PlacementProblem, pool):
    """Greedy selection over one pool of candidate indices."""
    if problem.criterion is PlacementCriterion.PHYSICS_INFORMED_ENTROPY:
        sensors = [(float(problem.candidates[i]), problem.kinds[i])
                   for i in pool]
        prior, sigma = problem.prior.conditioned(sensors)
        delta = 0.0
    else:
        x = problem.candidates[pool]
        sigma = kernels.se_base(x[:, None], x[None, :], problem.params)
        prior = np.diag(sigma)
        delta = JITTER_LADDER[2] * problem.params.sigma_s2
    floor = JITTER_LADDER[0] * prior
    mutual = problem.criterion is PlacementCriterion.MUTUAL_INFORMATION
    C = sigma.copy()
    if mutual:
        # The precision of the unselected set U, which starts as the pool.
        prec = np.linalg.inv(sigma + delta * np.eye(len(pool)))
    free = np.ones(len(pool), bool)
    selected, step_entropies = [], []
    for _ in range(min(problem.n_sensors, len(pool))):
        scores = _entropy_from_var(np.maximum(np.diag(C), floor))
        if mutual:
            # var(y_i | the rest of U) = 1 / P_ii - delta.
            u = np.flatnonzero(free)
            scores[u] -= _entropy_from_var(
                np.maximum(1.0 / np.diag(prec)[u] - delta, floor[u]))
        scores[~free] = -np.inf
        j = _pick(scores, _MI_TIE if mutual else 0.0)
        selected.append(pool[j])
        step_entropies.append(float(scores[j]))
        free[j] = False
        _observe(C, j, delta, floor[j])
        if mutual:
            # Dropping j from U is its Schur complement in the precision,
            # P <- P - p p^T / P_jj: the same rank-1 downdate, O(n^2).
            _observe(prec, j, 0.0, 0.0)
    return selected, step_entropies


def _pick(scores, tie):
    """The lowest index whose score is within tie * max(1, |max|) of the
    maximum; tie = 0 is numpy's first-max argmax."""
    best = scores.max()
    return int(np.argmax(scores >= best - tie * max(1.0, abs(best))))


def greedy_place(problem: PlacementProblem) -> PlacementResult:
    """Iterative argmax placement; ties break on the lowest candidate
    index, MI scores tying within ``_MI_TIE`` of the best.

    With heterogeneous candidate kinds the budget applies per domain by
    default (n_sensors in each), or jointly with ``joint_budget=True``.
    """
    kinds_present = sorted(set(problem.kinds),
                           key=lambda k: BLOCK_INDEX[k])
    if problem.joint_budget or len(kinds_present) == 1:
        pools = [list(range(problem.candidates.size))]
    else:
        pools = [[i for i, k in enumerate(problem.kinds) if k is kind]
                 for kind in kinds_present]

    selected, gains = [], []
    for pool in pools:
        idx, step_h = _greedy_single(problem, pool)
        selected += [(float(problem.candidates[i]), problem.kinds[i])
                     for i in idx]
        gains += step_h

    result = PlacementResult(selected=selected, step_entropies=gains,
                             criterion=problem.criterion)
    if selected:
        result.set_entropy = set_entropy(selected, problem)
    return result


def set_entropy(selected, problem: PlacementProblem) -> float:
    """Joint Gaussian entropy of a selected sensor set under the PI prior."""
    return float(_subset_entropies(selected, problem, len(selected))[0])


def _subset_entropies(sensors, problem: PlacementProblem, k):
    """Chain-rule entropies of the k-subsets of distinct (x, kind) sensors
    under the PI prior, in lexicographic order.

    A frame is a prefix: its block's first candidate, the block's C given
    the prefix, the prefix's entropy, the picks it needs and the positions
    left to pick, last first, so rows fill ``raw`` from its end.  A final
    pick replaces its frame, which bounds memory as k nears n.  The last
    three picks of a prefix score at once (``_last_three``); the last two
    do so only at the root of a k = 2 map, from the block's triangle.  The
    walk runs with overflow raising: a set conditioned in order, without
    pivoting, can grow past the float range, and its rows would be
    meaningless.
    """
    if k == 0:
        raise ValueError("selection must be non-empty")
    _require_distinct(sensors)
    prior, sigma = problem.prior.conditioned(sensors)
    floor = JITTER_LADDER[0] * prior
    n = len(sensors)
    if k == 1:
        return _entropy_from_var(np.maximum(np.diag(sigma), floor))
    raw = np.empty(math.comb(n, k))
    end = raw.size
    frames = [(0, sigma, 0.0, k, iter(range(n - k, -1, -1)))]
    with np.errstate(over="raise"):
        try:
            while frames:
                start, C, h, need, picks = frames[-1]
                var = np.maximum(np.diag(C), floor[start:])
                if need <= 3:
                    last = _last_three if need == 3 else _last_two
                    rows = last(C, var, floor[start:], h)
                    raw[end - rows.size:end] = rows
                    end -= rows.size
                    frames.pop()
                    continue
                t = next(picks)
                if t == 0:
                    frames.pop()
                block = C[t:, t:].copy()
                _observe(block, 0, 0.0, var[t])
                frames.append((start + t + 1, block[1:, 1:],
                               h + _entropy_from_var(var[t]), need - 1,
                               iter(range(var.size - t - need, -1, -1))))
        except FloatingPointError:
            raise EntropyOverflowError(n, k) from None
    return raw


def _last_two(C, var, floor, h):
    """Rows of the pairs t < a of the whole pool, lexicographic."""
    t, a = np.triu_indices(var.size, 1)
    c = C[a, t]
    return (h + _entropy_from_var(var)[t]) + \
        _entropy_from_var(np.maximum(var[a] - c * c / var[t], floor[a]))


def _last_three(C, var, floor, h):
    """Rows of a prefix's triples t < a < b of its block C, lexicographic.

    Each row is ``_observe``'s arithmetic on t and then a, in its order,
    read from C's lower triangle:
    ((h + H(var_t)) + H(v_a)) + H(max(v_b - c c / v_a, floor_b)), where
    v_x = max(C_xx - C_xt C_xt / var_t, floor_x) and
    c = C_ba - C_bt C_at / var_t.
    """
    t, x, ta, tb, ab = _triples(var.size)
    c_xt = C[x, t]
    var_t = var.take(t)
    # Per pair (t, x): x's variance given t, and the prefix's entropy
    # with t and then x.
    v = np.maximum(np.diag(C).take(x) - c_xt * c_xt / var_t, floor.take(x))
    h_tx = (h + _entropy_from_var(var).take(t)) + _entropy_from_var(v)
    c = c_xt.take(ab) - c_xt.take(tb) * c_xt.take(ta) / var_t.take(ta)
    v_b = v.take(tb) - c * c / v.take(ta)
    return h_tx.take(ta) + _entropy_from_var(
        np.maximum(v_b, floor.take(x).take(tb)))


@functools.lru_cache(maxsize=64)
def _triples(m):
    """The index tables of an m-candidate block: its pairs (t, x), t < x,
    lexicographic, and per lexicographic triple t < a < b the positions of
    its pairs (t, a), (t, b) and (a, b) among them."""
    i, j, k = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(m), 3)),
        np.intp, 3 * math.comb(m, 3)).reshape(-1, 3).T
    # Pair (i, j), i < j, is number i (2 m - i - 3) / 2 + j - 1.
    tables = np.triu_indices(m, 1) + tuple(
        p * (2 * m - p - 3) // 2 + q - 1 for p, q in ((i, j), (i, k), (j, k)))
    for table in tables:
        table.flags.writeable = False
    return tables


def exhaustive_entropy_map(problem: PlacementProblem,
                           max_combos: int = 300_000,
                           full_scale: bool = False) -> list:
    """Rank every sensor subset by min-max normalized joint entropy.

    Rows are the subsets in lexicographic order, each with its
    ``set_entropy`` normalized over all rows.  Only single-domain
    problems are enumerable; the guard refuses counts above
    ``max_combos`` unless ``full_scale`` lifts it.  A row of a 31 x 4 map
    costs 0.28-0.33 us, Sigma and the row list included (2-vCPU VM, one
    BLAS thread), so a map at the guard takes about a tenth of a second;
    the C(31, 7) = 2.6 M rows walk in about 1.2 s.  The walk raises
    EntropyOverflowError where conditioning a subset overflows.
    """
    if len(set(problem.kinds)) != 1:
        raise ValueError("exhaustive maps require a single-domain problem")
    n_p = problem.candidates.size
    n_s = problem.n_sensors
    n_combos = math.comb(n_p, n_s)
    if n_combos > max_combos and not full_scale:
        raise EnumerationGuardError(n_combos, max_combos)
    raw = _subset_entropies([(float(x), problem.kinds[0])
                             for x in problem.candidates], problem, n_s)
    lo, hi = raw.min(), raw.max()
    span = hi - lo if hi > lo else 1.0
    return list(zip(itertools.combinations(range(n_p), n_s),
                    ((raw - lo) / span).tolist()))
