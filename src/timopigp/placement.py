"""Greedy sensor placement over a candidate grid.

Three criteria are supported: the physics-informed conditional entropy
(full multi-output kernel with boundary conditions), a plain SE-kernel
entropy baseline, and a plain SE-kernel mutual-information baseline.  The
baselines are blind to the physical domain, so they yield the same sets
for deflection and rotation candidates; the physics-informed criterion
couples domains through the cross-covariance kernels.  Placement is
pre-data: only locations and kernel parameters enter the scores.

Joint entropies come from one conditioned covariance, Sigma = K_SS -
K_Sb K_bb^-1 K_bS of ``gp.covariance`` blocks (``conditioned_covariance``).
``set_entropy`` uses Sigma of its set; the exhaustive map builds Sigma once
over all candidates and scores each subset from a principal submatrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.linalg import cholesky

from timopigp import gp, kernels
from timopigp.data import Dataset
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


def _placed_datasets(placed):
    """Group placed (x, kind) sensors into zero-valued noiseless datasets."""
    by_kind = {}
    for x, kind in placed:
        by_kind.setdefault(kind, []).append(x)
    return [Dataset(kind=kind, x=np.asarray(xs, float), y=np.zeros(len(xs)))
            for kind, xs in by_kind.items()]


def _pi_conditional_var(x_star, kind, placed, bcs, params):
    """Physics-informed conditional variance, floored at the jitter level."""
    x_star = np.atleast_1d(np.asarray(x_star, float))
    k_diag = np.atleast_1d(np.asarray(
        kernels.kernel(kind, kind, x_star, x_star, params), float))
    datasets = _placed_datasets(placed)
    if not datasets and not bcs:
        return k_diag, JITTER_LADDER[0] * k_diag
    model = gp.assemble(datasets, bcs, params)
    var = gp.predict(model, kind, x_star).var
    floor = max(model.jitter, JITTER_LADDER[0]) * k_diag
    return var, floor


def conditional_entropy(x_star, kind: QuantityKind, placed, bcs,
                        params: Theta) -> float:
    """Entropy 0.5 ln(2 pi e sigma^2) of one candidate given placed sensors."""
    var, floor = _pi_conditional_var(x_star, kind, placed, bcs, params)
    var = np.maximum(var, floor)
    return float(0.5 * (_LOG_2PIE + np.log(var[0])))


def _se_conditional_var(x_star, placed_x, params):
    """SE-kernel conditional variance, ignoring kinds and BCs."""
    x_star = np.atleast_1d(np.asarray(x_star, float))
    prior = np.full(x_star.shape, params.sigma_s2)
    if len(placed_x) == 0:
        return prior
    xs = np.asarray(placed_x, float)
    K = kernels.se_base(xs[:, None], xs[None, :], params)
    K = K + JITTER_LADDER[2] * params.sigma_s2 * np.eye(xs.size)
    L = cholesky(K, lower=True)
    ks = kernels.se_base(xs[:, None], x_star[None, :], params)
    v = np.linalg.solve(L, ks)
    return np.maximum(prior - np.sum(v * v, axis=0),
                      JITTER_LADDER[0] * params.sigma_s2)


def _entropy_from_var(var):
    return 0.5 * (_LOG_2PIE + np.log(var))


def _greedy_single(problem: PlacementProblem, idx_pool):
    """Greedy selection over one pool of candidate indices."""
    xs = problem.candidates
    kinds = problem.kinds
    params = problem.params
    crit = problem.criterion
    n_pick = min(problem.n_sensors, len(idx_pool))

    selected, step_entropies = [], []
    remaining = list(idx_pool)
    for _ in range(n_pick):
        placed = [(xs[i], kinds[i]) for i in selected]
        scores = np.empty(len(remaining))
        if crit is PlacementCriterion.PHYSICS_INFORMED_ENTROPY:
            # Vectorize per kind group within the remaining pool.
            by_kind = {}
            for pos, i in enumerate(remaining):
                by_kind.setdefault(kinds[i], []).append(pos)
            for kind, positions in by_kind.items():
                x_eval = xs[[remaining[p] for p in positions]]
                var, floor = _pi_conditional_var(x_eval, kind, placed,
                                                 problem.bcs, params)
                scores[positions] = _entropy_from_var(np.maximum(var, floor))
        elif crit is PlacementCriterion.ENTROPY:
            placed_x = [xs[i] for i in selected]
            var = _se_conditional_var(xs[remaining], placed_x, params)
            scores[:] = _entropy_from_var(var)
        elif crit is PlacementCriterion.MUTUAL_INFORMATION:
            placed_x = [xs[i] for i in selected]
            var_s = _se_conditional_var(xs[remaining], placed_x, params)
            h_s = _entropy_from_var(var_s)
            for pos, i in enumerate(remaining):
                rest = [xs[j] for j in idx_pool
                        if j != i and j not in selected]
                var_r = _se_conditional_var(xs[i], rest, params)
                scores[pos] = h_s[pos] - _entropy_from_var(var_r)[0]
        else:
            raise ValueError(f"unknown criterion {crit!r}")

        best = remaining[int(np.argmax(scores))]  # first max = lowest index
        selected.append(best)
        step_entropies.append(float(np.max(scores)))
        remaining.remove(best)
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
    K_bb factorized by ``gp.assemble([], bcs, theta)``.  The sensors must
    be distinct, or Sigma is singular.
    """
    locs = [(round(x, 12), kind) for x, kind in selected]
    if len(set(locs)) != len(locs):
        raise ValueError("selected sensors must be distinct")
    theta = problem.params
    entries = [gp.Points(kind, np.array([x for x, _ in run], float))
               for kind, run in itertools.groupby(selected,
                                                  key=lambda s: s[1])]
    sigma = gp.covariance(entries, theta)
    if problem.bcs:
        model = gp.assemble([], problem.bcs, theta)
        ks = gp.covariance(entries, theta, model.entries)
        sigma = sigma - ks @ model.solve(ks.T)
    return gp.check_finite(sigma)


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

    kind = problem.kinds[0]
    sigma = conditioned_covariance(
        [(float(x), kind) for x in problem.candidates], problem)
    subsets = list(itertools.combinations(range(n_p), n_s))
    raw = np.asarray([_gaussian_entropy(sigma[np.ix_(subset, subset)])
                      for subset in subsets])
    lo, hi = raw.min(), raw.max()
    span = hi - lo if hi > lo else 1.0
    return [(subset, float((h - lo) / span))
            for subset, h in zip(subsets, raw)]
