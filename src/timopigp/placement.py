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
kernel for the baselines.  The greedy scores each free candidate by
0.5 ln(2 pi e C_ii), C_ii floored at 1e-12 of its prior variance, takes
the first maximum j and conditions C, which starts at Sigma, on it by the
rank-1 downdate C <- C - c c^T / (C_jj + delta).  delta, the noise of a
placed sensor, is 0 for physics and 1e-8 sigma_s^2 for the baselines,
whose dense-grid SE covariance is singular to working precision.  Mutual
information (Krause, Singh & Guestrin, JMLR 2008) subtracts the entropy
of 1/diag((Sigma_UU + delta I)^-1) - delta over the unselected set U.
``set_entropy`` scores Sigma of a set; the exhaustive map scores principal
submatrices of one Sigma over all candidates.
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


def _conditioned(sensors, bcs, theta: Theta):
    """Prior diagonal and BC-conditioned covariance of (x, kind) sensors."""
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
    prior, C = _conditioned(sensors, bcs, params)
    floor = JITTER_LADDER[0] * prior
    for j in range(len(placed)):
        _observe(C, j, 0.0, floor[j])
    return float(_entropy_from_var(max(C[-1, -1], floor[-1])))


def _greedy_single(problem: PlacementProblem, pool):
    """Greedy selection over one pool of candidate indices."""
    if problem.criterion is PlacementCriterion.PHYSICS_INFORMED_ENTROPY:
        sensors = [(float(problem.candidates[i]), problem.kinds[i])
                   for i in pool]
        prior, sigma = _conditioned(sensors, problem.bcs, problem.params)
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


def conditioned_covariance(selected, problem: PlacementProblem) -> np.ndarray:
    """Prior covariance of (x, kind) sensors, conditioned on the BCs.

    Sigma = K_SS - K_Sb K_bb^-1 K_bS in the order of ``selected``, with
    K_bb factorized by ``gp.assemble([], bcs, theta)``.  Repeated sensors
    give a singular Sigma, which the greedy's downdates tolerate.
    """
    return _conditioned(selected, problem.bcs, problem.params)[1]


def _gaussian_entropy(sigma: np.ndarray) -> float:
    """0.5 ln det(2 pi e Sigma), up the jitter ladder if Sigma is singular."""
    k = sigma.shape[0]
    diag = np.maximum(np.diag(sigma), 1e-300)
    for level in (0.0,) + JITTER_LADDER:
        sign, logdet = np.linalg.slogdet(sigma + level * np.diag(diag))
        if sign > 0 and np.isfinite(logdet):
            return float(0.5 * (k * _LOG_2PIE + logdet))
    # Singular beyond the ladder: floor the log-determinant.
    eig = np.linalg.eigvalsh(sigma)
    eig = np.maximum(eig, JITTER_LADDER[-1] * max(diag.max(), 1e-300))
    return float(0.5 * (k * _LOG_2PIE + np.sum(np.log(eig))))


def set_entropy(selected, problem: PlacementProblem) -> float:
    """Joint Gaussian entropy of a selected sensor set under the PI prior."""
    if not selected:
        raise ValueError("selection must be non-empty")
    _require_distinct(selected)
    return _gaussian_entropy(conditioned_covariance(selected, problem))


def exhaustive_entropy_map(problem: PlacementProblem,
                           max_combos: int = 300_000,
                           full_scale: bool = False) -> list:
    """Rank every sensor subset by min-max normalized joint entropy.

    Only single-domain problems are enumerable; the guard refuses counts
    above ``max_combos`` unless ``full_scale`` lifts it.
    """
    if len(set(problem.kinds)) != 1:
        raise ValueError("exhaustive maps require a single-domain problem")
    n_p = problem.candidates.size
    n_s = problem.n_sensors
    n_combos = math.comb(n_p, n_s)
    if n_combos > max_combos and not full_scale:
        raise EnumerationGuardError(n_combos, max_combos)
    if n_s == 0:
        raise ValueError("selection must be non-empty")

    sensors = [(float(x), problem.kinds[0]) for x in problem.candidates]
    _require_distinct(sensors)
    sigma = conditioned_covariance(sensors, problem)
    subsets = list(itertools.combinations(range(n_p), n_s))
    raw = np.asarray([_gaussian_entropy(sigma[np.ix_(subset, subset)])
                      for subset in subsets])
    lo, hi = raw.min(), raw.max()
    span = hi - lo if hi > lo else 1.0
    return [(subset, float((h - lo) / span))
            for subset, h in zip(subsets, raw)]
