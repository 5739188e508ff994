"""Greedy sensor placement over a candidate grid.

Three criteria are supported: the physics-informed conditional entropy
(full multi-output kernel with boundary conditions), a plain SE-kernel
entropy baseline, and a plain SE-kernel mutual-information baseline.  The
baselines are blind to the physical domain, so they yield the same sets
for deflection and rotation candidates; the physics-informed criterion
couples domains through the cross-covariance kernels.  Placement is
pre-data: only locations and kernel parameters enter the scores.

Every score is read from one prior covariance Sigma per candidate pool:
the pool's covariance conditioned on the BCs (``conditioned_covariance``,
Sigma = K_cc - K_cb K_bb^-1 K_bc) for the physics criterion, the SE base
kernel for the baselines.  A candidate scores 0.5 ln(2 pi e C_jj), C_jj
floored at 1e-12 of its prior variance; observing it conditions C, which
starts at Sigma, by the rank-1 downdate C <- C - c c^T / (C_jj + delta).
delta, the noise of a placed sensor, is 0 for physics and 1e-8 sigma_s^2
for the baselines, whose dense-grid SE covariance is singular to working
precision.  Mutual information (Krause, Singh & Guestrin, JMLR 2008)
subtracts the entropy of 1/diag((Sigma_UU + delta I)^-1) - delta over U,
the unselected set.  A joint entropy sums the physics scores of a set in
order, each given those before it: ``set_entropy`` walks one set and the
exhaustive map every subset of the candidates, depth first.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from timopigp import gp, kernels
from timopigp.errors import EnumerationGuardError
from timopigp.gp import JITTER_LADDER, Theta
from timopigp.quantities import BLOCK_INDEX, QuantityKind

_LOG_2PIE = math.log(2.0 * math.pi * math.e)


class PlacementCriterion(Enum):
    PHYSICS_INFORMED_ENTROPY = "physics"
    ENTROPY = "entropy"
    MUTUAL_INFORMATION = "mi"


@dataclass
class PlacementProblem:
    """Candidate grid, budget and model for one placement run."""

    candidates: np.ndarray
    kinds: list
    n_sensors: int
    params: Theta
    bcs: list = field(default_factory=list)
    criterion: PlacementCriterion = PlacementCriterion.PHYSICS_INFORMED_ENTROPY
    joint_budget: bool = False

    def __post_init__(self):
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


def conditioned_covariance(sensors, bcs, theta: Theta):
    """(diag(K_SS), Sigma) of (x, kind) sensors in their order.

    Sigma = K_SS - K_Sb K_bb^-1 K_bS, K_bb factorized by ``gp.assemble([],
    bcs, theta)``.  Repeated sensors give a singular Sigma, which the
    downdates tolerate.
    """
    entries = [gp.Points(kind, np.array([x for x, _ in run], float))
               for kind, run in itertools.groupby(sensors, key=lambda s: s[1])]
    if not bcs:
        k = gp.check_finite(gp.covariance(entries, theta))
        return np.diag(k).copy(), k
    # K_SS and K_Sb are the sensor rows of one covariance over the sensors
    # followed by the BCs.
    model = gp.assemble([], bcs, theta)
    k = gp.covariance(entries + list(model.entries), theta)
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


def conditional_entropy(x_star, kind: QuantityKind, placed, bcs,
                        params: Theta) -> float:
    """Entropy 0.5 ln(2 pi e sigma^2) of one candidate given placed sensors.

    The physics greedy's arithmetic: Sigma over the placed sensors and
    then x_star, downdated on each placed sensor in turn.
    """
    sensors = list(placed) + [(float(x_star), kind)]
    prior, C = conditioned_covariance(sensors, bcs, params)
    floor = JITTER_LADDER[0] * prior
    for j in range(len(placed)):
        _observe(C, j, 0.0, floor[j])
    return float(_entropy_from_var(max(C[-1, -1], floor[-1])))


def _greedy_single(problem: PlacementProblem, pool):
    """Greedy selection over one pool of candidate indices."""
    if problem.criterion is PlacementCriterion.PHYSICS_INFORMED_ENTROPY:
        sensors = [(float(problem.candidates[i]), problem.kinds[i])
                   for i in pool]
        prior, sigma = conditioned_covariance(sensors, problem.bcs,
                                              problem.params)
        delta = 0.0
    else:
        x = problem.candidates[pool]
        sigma = kernels.se_base(x[:, None], x[None, :], problem.params)
        prior = np.diag(sigma)
        delta = JITTER_LADDER[2] * problem.params.sigma_s2
    floor = JITTER_LADDER[0] * prior
    mutual = problem.criterion is PlacementCriterion.MUTUAL_INFORMATION
    C = sigma.copy()
    free = np.ones(len(pool), bool)
    selected, step_entropies = [], []
    for _ in range(min(problem.n_sensors, len(pool))):
        scores = _entropy_from_var(np.maximum(np.diag(C), floor))
        if mutual:
            # var(y_i | the other unselected) from the precision matrix.
            u = np.flatnonzero(free)
            prec = np.linalg.inv(sigma[np.ix_(u, u)] + delta * np.eye(u.size))
            scores[u] -= _entropy_from_var(
                np.maximum(1.0 / np.diag(prec) - delta, floor[u]))
        scores[~free] = -np.inf
        j = int(np.argmax(scores))  # first max = lowest index
        selected.append(pool[j])
        step_entropies.append(float(scores[j]))
        free[j] = False
        _observe(C, j, delta, floor[j])
    return selected, step_entropies


def greedy_place(problem: PlacementProblem) -> PlacementResult:
    """Iterative argmax placement; ties break on the lowest candidate index.

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
    two picks (t, a), t < a, score at once from the block's triangle.
    """
    if k == 0:
        raise ValueError("selection must be non-empty")
    _require_distinct(sensors)
    prior, sigma = conditioned_covariance(sensors, problem.bcs,
                                          problem.params)
    floor = JITTER_LADDER[0] * prior
    n = len(sensors)
    if k == 1:
        return _entropy_from_var(np.maximum(np.diag(sigma), floor))
    raw = np.empty(math.comb(n, k))
    end = raw.size
    frames = [(0, sigma, 0.0, k, iter(range(n - k, -1, -1)))]
    while frames:
        start, C, h, need, picks = frames[-1]
        var = np.maximum(np.diag(C), floor[start:])
        if need == 2:
            t, a = np.triu_indices(var.size, 1)
            c = C[a, t]
            raw[end - t.size:end] = (h + _entropy_from_var(var)[t]) + \
                _entropy_from_var(np.maximum(var[a] - c * c / var[t],
                                             floor[start:][a]))
            end -= t.size
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
    return raw


def exhaustive_entropy_map(problem: PlacementProblem,
                           max_combos: int = 300_000,
                           full_scale: bool = False) -> list:
    """Rank every sensor subset by min-max normalized joint entropy.

    Rows are the subsets in lexicographic order, each with its
    ``set_entropy`` normalized over all rows.  Only single-domain
    problems are enumerable; the guard refuses counts above
    ``max_combos`` unless ``full_scale`` lifts it.  A row of a 31 x 4 map
    costs 1.2-1.9 us (2-vCPU VM, one BLAS thread), so a map at the guard
    takes about half a second; the C(31, 7) = 2.6 M rows walk in about 7 s.
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
    return [(subset, float((h - lo) / span)) for subset, h in
            zip(itertools.combinations(range(n_p), n_s), raw)]
