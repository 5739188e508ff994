"""Greedy sensor placement over a candidate grid.

Three criteria are supported: the physics-informed conditional entropy
(full multi-output kernel with boundary conditions), a plain SE-kernel
entropy baseline, and a plain SE-kernel mutual-information baseline.  The
baselines are blind to the physical domain, so they yield the same sets
for deflection and rotation candidates; the physics-informed criterion
couples domains through the cross-covariance kernels.  Placement is
pre-data: only locations and kernel parameters enter the scores.  One
greedy runs over all of a problem's candidates under one budget, so
candidates of mixed kinds are placed jointly; a budget per kind is one
problem per kind.

Every score is read from one prior covariance Sigma of the candidates:
their covariance conditioned on the BCs (``Prior.conditioned``,
Sigma = K_cc - K_cb K_bb^-1 K_bc) for the physics criterion, the SE base
kernel for the baselines.  A candidate scores 0.5 ln(2 pi e C_jj), C_jj
floored at ``VARIANCE_FLOOR`` of its prior variance; observing it
conditions C, which starts at Sigma, by the rank-1 downdate
C <- C - c c^T / (C_jj + delta).  delta, the noise of a placed sensor,
is 0 for physics and ``SENSOR_NOISE`` sigma_s^2 for the baselines, whose
dense-grid SE covariance is singular to working precision.  Mutual
information (Krause, Singh & Guestrin, JMLR 2008) subtracts the entropy
of 1/diag(P) - delta over U, the unselected set, P = (Sigma_UU +
delta I)^-1: inverted at the first step, and each pick dropped from P by
its Schur complement, the same rank-1 downdate.  MI scores within a
relative 1e-6 of the best tie, and the lowest index wins; the others tie
only when equal.  The greedy keeps only diag(C), diag(P) and the picked
columns (``_Downdated``, the left-looking form of pivoted Cholesky):
the t-th pick's column costs O(t n), a greedy O(k^2 n) in place of the
dense downdate's O(k n^2), with the same floats.  The baselines ignore
the kinds, so a ``Prior`` runs each once per candidate grid and budget
and every kind reuses its picks.  A joint entropy sums the physics
scores of a set in order, each given those before it: ``set_entropy``
walks one set, a greedy its selection's sub-block of the candidates'
physics Sigma (None where that overflows), and the exhaustive map every
subset of the candidates, depth first, scoring the last picks of each
prefix, up to three, by one rule in one vectorized step.  A ``Prior``
holds the BCs' K_bb factorized once and each sensor list's Sigma built
once, so one ``place`` command shares them across kinds, criteria and
the map.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from timopigp import gp, kernels
from timopigp.errors import EntropyOverflowError, EnumerationGuardError
from timopigp.gp import Theta
from timopigp.quantities import QuantityKind

_LOG_2PIE = math.log(2.0 * math.pi * math.e)

VARIANCE_FLOOR = 1e-12
SENSOR_NOISE = 1e-8
# The most subsets an entropy map enumerates unless told otherwise.
MAX_COMBOS = 300_000

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


class PlacementCriterion(Enum):
    PHYSICS_INFORMED_ENTROPY = "physics"
    ENTROPY = "entropy"
    MUTUAL_INFORMATION = "mi"


@dataclass
class PlacementProblem:
    """Candidate grid, budget and model for one placement run.

    ``n_sensors`` is one budget over all candidates, whatever their
    kinds.  ``prior`` holds the BCs and the parameters; problems that
    share one share its K_bb factorization and conditioned covariances.
    """

    candidates: np.ndarray
    kinds: list
    n_sensors: int
    prior: Prior
    criterion: PlacementCriterion = PlacementCriterion.PHYSICS_INFORMED_ENTROPY

    def __post_init__(self):
        self.candidates = np.atleast_1d(np.asarray(self.candidates, float))
        if self.candidates.size == 0:
            raise ValueError("placement needs at least one candidate")
        if isinstance(self.kinds, QuantityKind):
            self.kinds = [self.kinds] * self.candidates.size
        if len(self.kinds) != self.candidates.size:
            raise ValueError("kinds must match candidates one-to-one")
        if any(k is QuantityKind.STRAIN for k in self.kinds):
            raise ValueError("strain candidates are not supported; place "
                             "sensors in the x-only domains")
        if self.n_sensors < 0:
            raise ValueError("n_sensors must be non-negative")
        if self.n_sensors > self.candidates.size:
            raise ValueError("n_sensors exceeds candidate count")

    @property
    def params(self) -> Theta:
        return self.prior.theta

    @property
    def bcs(self) -> list:
        return self.prior.bcs


@dataclass
class PlacementResult:
    """Ordered greedy selections with per-step entropy gains."""

    selected: list            # (location, kind) in selection order
    step_entropies: list
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
    Prior per command shares them across its kinds, criteria and map.
    Repeated sensors give a singular Sigma, which the downdates tolerate.
    ``baseline`` runs a domain-blind greedy once per (criterion, candidate
    grid, budget) and keeps its picks and step entropies, which every
    kind's problem on that grid shares.
    """

    def __init__(self, bcs, theta: Theta):
        self.bcs = bcs
        self.theta = theta
        self._conditioned = {}
        self._baselines = {}

    @functools.cached_property
    def bc_model(self) -> gp.CovarianceModel:
        return gp.assemble([], self.bcs, self.theta)

    def conditioned(self, sensors) -> tuple:
        key = tuple(sensors)
        if key not in self._conditioned:
            pair = self._condition(key)
            for a in pair:
                a.flags.writeable = False
            self._conditioned[key] = pair
        return self._conditioned[key]

    def baseline(self, criterion, candidates, n_sensors) -> tuple:
        """(picks, step entropies) of the SE-kernel greedy of ``criterion``
        on the ``candidates`` grid, whatever their kinds."""
        key = (criterion, candidates.tobytes(), n_sensors)
        if key not in self._baselines:
            sigma = kernels.se_base(candidates[:, None], candidates[None, :],
                                    self.theta)
            self._baselines[key] = _greedy(
                sigma, np.diag(sigma), SENSOR_NOISE * self.theta.sigma_s2,
                criterion is PlacementCriterion.MUTUAL_INFORMATION, n_sensors)
        return self._baselines[key]

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


def greedy_place(problem: PlacementProblem) -> PlacementResult:
    """Iterative argmax placement of ``n_sensors`` among all candidates,
    of whatever kinds; ties break on the lowest candidate index, MI
    scores tying within ``_MI_TIE`` of the best.  The set's entropy is
    read from its sub-block of the candidates' physics Sigma; it is None
    where conditioning the set in pick order overflows, as it can for a
    baseline's set, picked without the physics pivots."""
    sensors = [(float(x), kind)
               for x, kind in zip(problem.candidates, problem.kinds)]
    physics = problem.prior.conditioned(sensors)
    if problem.criterion is PlacementCriterion.PHYSICS_INFORMED_ENTROPY:
        picks, step_entropies = _greedy(physics[1], physics[0], 0.0, False,
                                        problem.n_sensors)
    else:
        picks, step_entropies = problem.prior.baseline(
            problem.criterion, problem.candidates, problem.n_sensors)
    picks = list(picks)
    selected = [sensors[i] for i in picks]
    result = PlacementResult(selected, list(step_entropies))
    if picks:
        _require_distinct(selected)
        try:
            result.set_entropy = float(_subset_entropies(
                (physics[0][picks], physics[1][np.ix_(picks, picks)]),
                len(picks))[0])
        except EntropyOverflowError:
            pass
    return result


class _Downdated:
    """M conditioned by rank-1 downdates on picked columns, held as its
    diagonal and the picked columns: the left-looking form of diagonally
    pivoted Cholesky (Harbrecht, Peters & Schneider, Appl. Numer. Math.
    2012).

    ``observe(j, d)`` is ``_observe``'s M <- M - c c^T / d with c column j
    of the current M.  That column is M[:, j] minus the terms
    (c_s c_s[j]) / d_s of the columns picked before, subtracted in pick
    order, row by row, so it holds the floats the dense downdate holds, in
    O(t n) at the t-th pick.  It holds up to k picks.
    """

    def __init__(self, m, k):
        self.m = m
        self.diag = np.diag(m).copy()
        self.cols = np.empty((k, m.shape[0]))
        self.terms = np.empty_like(self.cols)
        self.pivots = np.empty(k)
        self.t = 0

    def observe(self, j, d):
        t = self.t
        h, terms = self.cols[:t], self.terms[:t + 1]
        terms[0] = self.m[:, j]
        np.multiply(h, h[:, j, None], out=terms[1:])
        np.divide(terms[1:], self.pivots[:t, None], out=terms[1:])
        c = np.subtract.reduce(terms, axis=0, out=self.cols[t])
        self.pivots[t] = d
        self.diag -= c * c / d
        self.t = t + 1


def _precision(sigma, delta, u):
    """(Sigma_UU + delta I)^-1 over the candidates u, zero elsewhere."""
    prec = np.zeros_like(sigma)
    prec[np.ix_(u, u)] = np.linalg.inv(sigma[np.ix_(u, u)]
                                       + delta * np.eye(u.size))
    return prec


def _greedy(sigma, prior, delta, mutual, k):
    """The picks and step entropies of k greedy steps over Sigma, each
    pick observed with noise delta; MI scores if ``mutual``.

    C and MI's precision P are ``_Downdated``: a step costs O(t n) and a
    greedy O(k^2 n) after P's O(n^3) inverse.  No downdate follows the
    final pick.  ``_precision`` inverts P over the free candidates U: at
    the first MI step, when U is all of them, and again where a free P_ii
    is not positive, which would become a zero pivot (rounding can leave
    P indefinite as U shrinks: a 31 x 31 grid at ell = L/8 does so with
    five candidates left).  Downdates run with overflow raising, which is
    EntropyOverflowError.
    """
    n = prior.size
    floor = VARIANCE_FLOOR * prior
    free = np.ones(n, bool)
    C, P = _Downdated(sigma, k), None
    picks, step_entropies = [], []
    with np.errstate(over="raise"):
        try:
            for t in range(k):
                scores = _entropy_from_var(np.maximum(C.diag, floor))
                if mutual:
                    u = np.flatnonzero(free)
                    if P is None or not (P.diag[u] > 0.0).all():
                        P = _Downdated(_precision(sigma, delta, u), k)
                    # var(y_i | the rest of U) = 1 / P_ii - delta.
                    scores[u] -= _entropy_from_var(
                        np.maximum(1.0 / P.diag[u] - delta, floor[u]))
                scores[~free] = -np.inf
                j = _pick(scores, _MI_TIE if mutual else 0.0)
                picks.append(j)
                step_entropies.append(float(scores[j]))
                free[j] = False
                if t == k - 1:
                    break
                C.observe(j, max(C.diag[j] + delta, floor[j]))
                if mutual:
                    # Dropping j from U is its Schur complement in the
                    # precision, P <- P - p p^T / P_jj, P_jj > 0.
                    P.observe(j, P.diag[j])
        except FloatingPointError:
            raise EntropyOverflowError(n, k) from None
    return tuple(picks), tuple(step_entropies)


def _pick(scores, tie):
    """The lowest index whose score is within tie * max(1, |max|) of the
    maximum; tie = 0 is numpy's first-max argmax."""
    best = scores.max()
    return int(np.argmax(scores >= best - tie * max(1.0, abs(best))))


def set_entropy(selected, problem: PlacementProblem) -> float:
    """Joint Gaussian entropy of a selected sensor set under the PI prior."""
    if not selected:
        raise ValueError("selection must be non-empty")
    _require_distinct(selected)
    return float(_subset_entropies(problem.prior.conditioned(selected),
                                   len(selected))[0])


def _subset_entropies(pair, k):
    """Chain-rule entropies of the k-subsets of distinct sensors, in
    lexicographic order, from their (diag(K_SS), Sigma) ``pair``.

    A frame is a prefix: its block's first candidate, the block's C given
    the prefix, the prefix's entropy, the picks it needs and the positions
    left to pick, last first, so rows fill ``raw`` from its end.  A final
    pick replaces its frame, which bounds memory as k nears n.  The last
    picks of a prefix, three or all k if fewer, score at once
    (``_last_picks``).  The walk runs with overflow raising: a set
    conditioned in order, without pivoting, can grow past the float
    range, and its rows would be meaningless.
    """
    if k == 0:
        raise ValueError("selection must be non-empty")
    prior, sigma = pair
    floor = VARIANCE_FLOOR * prior
    n = prior.size
    raw = np.empty(math.comb(n, k))
    end = raw.size
    frames = [(0, sigma, 0.0, k, iter(range(n - k, -1, -1)))]
    with np.errstate(over="raise"):
        try:
            while frames:
                start, C, h, need, picks = frames[-1]
                var = np.maximum(np.diag(C), floor[start:])
                if need <= 3:
                    rows = _last_picks(C, var, floor[start:], h, need)
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


def _last_picks(C, var, floor, h, need):
    """Rows of a prefix's last ``need`` <= 3 picks from its block C,
    lexicographic, each case built on the one before.

    Each row is ``_observe``'s arithmetic on the picks in their order,
    read from C's lower triangle: a single t scores h + H(var_t); a pair
    t < x adds H(v_x), v_x = max(C_xx - C_xt C_xt / var_t, floor_x); a
    triple t < a < b adds H(max(v_b - c c / v_a, floor_b)) to its pair
    (t, a), c = C_ba - C_bt C_at / var_t.
    """
    h_t = h + _entropy_from_var(var)
    if need == 1:
        return h_t
    tables = np.triu_indices(var.size, 1) if need == 2 else \
        _triples(var.size)
    t, x = tables[:2]
    c_xt = C[x, t]
    var_t = var.take(t)
    v = np.maximum(np.diag(C).take(x) - c_xt * c_xt / var_t, floor.take(x))
    h_tx = h_t.take(t) + _entropy_from_var(v)
    if need == 2:
        return h_tx
    _, _, ta, tb, ab = tables
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
                           max_combos: float = MAX_COMBOS) -> np.ndarray:
    """Rank every sensor subset by min-max normalized joint entropy.

    Returns one float64 per subset, the subsets
    ``itertools.combinations(range(n), k)`` of the n candidates in that
    lexicographic order: each subset's ``set_entropy`` normalized over
    all of them (``data.write_map_csv`` writes them with their subsets).
    The walk's array is normalized in place, 8 bytes a row.  Only
    single-domain problems are enumerable; the guard refuses counts
    above ``max_combos``, which ``math.inf`` lifts.  A row of a 31 x 5
    map costs about 0.11 us, Sigma included, and the C(31, 7) = 2.6 M
    rows take about 0.9 s (2-vCPU VM, one BLAS thread); writing a row
    costs about 0.75 us more, most of it its float's repr.  The walk
    raises EntropyOverflowError where conditioning a subset overflows.
    """
    if len(set(problem.kinds)) != 1:
        raise ValueError("exhaustive maps require a single-domain problem")
    n_s = problem.n_sensors
    n_combos = math.comb(problem.candidates.size, n_s)
    if n_combos > max_combos:
        raise EnumerationGuardError(n_combos, max_combos)
    sensors = [(float(x), problem.kinds[0]) for x in problem.candidates]
    _require_distinct(sensors)
    raw = _subset_entropies(problem.prior.conditioned(sensors), n_s)
    lo, hi = raw.min(), raw.max()
    raw -= lo
    raw /= hi - lo if hi > lo else 1.0
    return raw
