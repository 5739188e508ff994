"""Tests for entropy-based greedy sensor placement."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timopigp import gp, kernels, placement
from timopigp.data import BoundaryCondition, Dataset
from timopigp.errors import (EntropyOverflowError, EnumerationGuardError,
                             NonFiniteCovarianceError)
from timopigp.gp import Theta
from timopigp.placement import (PlacementCriterion, PlacementProblem,
                                exhaustive_entropy_map, greedy_place,
                                set_entropy)
from timopigp.quantities import QuantityKind

PARAMS = Theta(sigma_s2=1.0, ell=0.125, EI=1.0, kGA=3.0)
LOG_2PIE = math.log(2.0 * math.pi * math.e)


def support_bcs():
    return [BoundaryCondition(kind=QuantityKind.DEFLECTION,
                              x=np.array([0.0, 1.0]))]


def problem(kinds, criterion, n_sensors=7, n_candidates=31, bcs=None,
            params=PARAMS):
    return PlacementProblem(candidates=np.linspace(0.0, 1.0, n_candidates),
                            kinds=kinds, n_sensors=n_sensors,
                            prior=placement.Prior(bcs or [], params),
                            criterion=criterion)


def selected_x(result):
    return sorted(x for x, _ in result.selected)


def conditional_entropy(x_star, kind, placed, bcs, params):
    """Entropy 0.5 ln(2 pi e sigma^2) of one candidate given placed sensors.

    The physics greedy's arithmetic: Sigma over the placed sensors and
    then x_star, downdated on each placed sensor in turn.
    """
    sensors = list(placed) + [(float(x_star), kind)]
    prior, sigma = placement.Prior(bcs, params).conditioned(sensors)
    C = sigma.copy()
    floor = gp.JITTER_LADDER[0] * prior
    for j in range(len(placed)):
        placement._observe(C, j, 0.0, floor[j])
    return float(placement._entropy_from_var(max(C[-1, -1], floor[-1])))


class TestConditionalEntropy:
    def test_unconditioned_value(self):
        k = float(kernels.kernel(QuantityKind.DEFLECTION,
                                 QuantityKind.DEFLECTION, 0.5, 0.5, PARAMS))
        h = conditional_entropy(0.5, QuantityKind.DEFLECTION, [], [], PARAMS)
        assert h == pytest.approx(0.5 * (LOG_2PIE + math.log(k)), rel=1e-9)

    def test_unit_variance_entropy(self):
        # A kernel with unit prior variance gives H = 0.5 ln(2 pi e).
        p = Theta(sigma_s2=1.0, ell=1e6, EI=1.0, kGA=1e12)
        h = conditional_entropy(0.5, QuantityKind.DEFLECTION, [], [], p)
        assert h == pytest.approx(0.5 * LOG_2PIE, abs=1e-6)
        assert 0.5 * LOG_2PIE == pytest.approx(1.4189385332046727)

    def test_observed_point_floors_at_jitter(self):
        h_free = conditional_entropy(0.5, QuantityKind.DEFLECTION, [], [],
                                     PARAMS)
        h_obs = conditional_entropy(
            0.5, QuantityKind.DEFLECTION,
            [(0.5, QuantityKind.DEFLECTION)], [], PARAMS)
        assert h_obs < h_free - 5.0

    def test_observed_point_scores_at_floor(self):
        """Observing a point leaves it no variance; its score is the
        floor, 1e-12 of the prior variance."""
        k = float(kernels.kernel(QuantityKind.DEFLECTION,
                                 QuantityKind.DEFLECTION, 0.5, 0.5, PARAMS))
        h_obs = conditional_entropy(
            0.5, QuantityKind.DEFLECTION,
            [(0.5, QuantityKind.DEFLECTION)], [], PARAMS)
        assert h_obs == pytest.approx(0.5 * (LOG_2PIE + math.log(1e-12 * k)))

    def test_boundary_condition_reduces_entropy(self):
        h_free = conditional_entropy(0.05, QuantityKind.DEFLECTION, [], [],
                                     PARAMS)
        h_bc = conditional_entropy(0.05, QuantityKind.DEFLECTION, [],
                                   support_bcs(), PARAMS)
        assert h_bc < h_free


class TestGreedyPlace:
    def test_budget_exhausts_candidates(self):
        p = problem(QuantityKind.DEFLECTION,
                    PlacementCriterion.PHYSICS_INFORMED_ENTROPY,
                    n_sensors=5, n_candidates=5)
        res = greedy_place(p)
        assert sorted(selected_x(res)) == \
            pytest.approx(list(np.linspace(0.0, 1.0, 5)))

    def test_pinned_candidates_score_at_floor(self):
        """With the budget covering the supports, the w candidates the BCs
        pin come last, each scored at the floor: 1e-12 of its prior
        variance."""
        p = problem(QuantityKind.DEFLECTION,
                    PlacementCriterion.PHYSICS_INFORMED_ENTROPY,
                    n_sensors=5, n_candidates=5, bcs=support_bcs())
        res = greedy_place(p)
        k = float(kernels.kernel(QuantityKind.DEFLECTION,
                                 QuantityKind.DEFLECTION, 0.0, 0.0, PARAMS))
        assert sorted(x for x, _ in res.selected[-2:]) == [0.0, 1.0]
        assert res.step_entropies[-2:] == pytest.approx(
            [0.5 * (LOG_2PIE + math.log(1e-12 * k))] * 2, rel=1e-12)

    def test_over_budget_single_domain_rejected(self):
        with pytest.raises(ValueError):
            problem(QuantityKind.DEFLECTION, PlacementCriterion.ENTROPY,
                    n_sensors=6, n_candidates=5)

    def test_deterministic(self):
        for crit in PlacementCriterion:
            a = greedy_place(problem(QuantityKind.DEFLECTION, crit))
            b = greedy_place(problem(QuantityKind.DEFLECTION, crit))
            assert a.selected == b.selected

    def test_domain_blind_criteria_match_across_domains(self):
        """Entropy and MI ignore physics, so w and phi give the same sets."""
        for crit in (PlacementCriterion.ENTROPY,
                     PlacementCriterion.MUTUAL_INFORMATION):
            xw = selected_x(greedy_place(problem(QuantityKind.DEFLECTION,
                                                 crit, bcs=support_bcs())))
            xp = selected_x(greedy_place(problem(QuantityKind.ROTATION,
                                                 crit, bcs=support_bcs())))
            assert xw == pytest.approx(xp)

    def test_physics_informed_respects_supports(self):
        """Deflection sensors avoid the pinned ends; rotation sensors with
        unconstrained end rotations occupy both ends."""
        res_w = greedy_place(problem(
            QuantityKind.DEFLECTION,
            PlacementCriterion.PHYSICS_INFORMED_ENTROPY,
            bcs=support_bcs()))
        xs_w = selected_x(res_w)
        assert 0.0 not in xs_w and 1.0 not in xs_w

        res_phi = greedy_place(problem(
            QuantityKind.ROTATION,
            PlacementCriterion.PHYSICS_INFORMED_ENTROPY,
            bcs=support_bcs()))
        xs_phi = selected_x(res_phi)
        assert 0.0 in xs_phi and 1.0 in xs_phi

    def test_entropy_gains_monotone_decreasing(self):
        res = greedy_place(problem(QuantityKind.DEFLECTION,
                                   PlacementCriterion.ENTROPY))
        gains = res.step_entropies
        assert all(gains[i] >= gains[i + 1] - 1e-9
                   for i in range(len(gains) - 1))

    def test_joint_budget(self):
        """Mixed w and phi candidates share one budget: the greedy places
        n_sensors in all, its set entropy is set_entropy's, and a budget
        above the candidate count is refused."""
        cands = np.concatenate([np.linspace(0, 1, 11), np.linspace(0, 1, 11)])
        kinds = ([QuantityKind.DEFLECTION] * 11 +
                 [QuantityKind.ROTATION] * 11)
        p = PlacementProblem(candidates=cands, kinds=kinds, n_sensors=4,
                             prior=placement.Prior([], PARAMS),
                             criterion=PlacementCriterion.
                             PHYSICS_INFORMED_ENTROPY)
        res = greedy_place(p)
        assert len(res.selected) == 4
        assert res.set_entropy == set_entropy(res.selected, p)
        with pytest.raises(ValueError, match="exceeds"):
            PlacementProblem(candidates=cands, kinds=kinds, n_sensors=23,
                             prior=p.prior)

    def test_no_candidates_rejected(self):
        with pytest.raises(ValueError, match="candidate"):
            problem(QuantityKind.DEFLECTION, PlacementCriterion.ENTROPY,
                    n_sensors=0, n_candidates=0)

    def test_strain_candidates_rejected(self):
        with pytest.raises(ValueError):
            problem(QuantityKind.STRAIN, PlacementCriterion.ENTROPY)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            problem(QuantityKind.DEFLECTION, PlacementCriterion.ENTROPY,
                    n_sensors=-1)

    def test_zero_budget(self):
        res = greedy_place(problem(QuantityKind.DEFLECTION,
                                   PlacementCriterion.ENTROPY, n_sensors=0))
        assert res.selected == []
        assert res.set_entropy is None

    def test_physics_informed_outscores_baselines(self):
        """The physics-informed sets carry at least as much joint entropy
        under the physics-informed prior as the domain-blind sets."""
        for kind in (QuantityKind.DEFLECTION, QuantityKind.ROTATION):
            ref = problem(kind, PlacementCriterion.PHYSICS_INFORMED_ENTROPY,
                          bcs=support_bcs())
            res_pi = greedy_place(ref)
            h_pi = set_entropy(res_pi.selected, ref)
            for crit in (PlacementCriterion.ENTROPY,
                         PlacementCriterion.MUTUAL_INFORMATION):
                res = greedy_place(problem(kind, crit, bcs=support_bcs()))
                h = set_entropy(res.selected, ref)
                assert h_pi >= h - 1e-9

    def test_cross_domain_information(self):
        """A rotation sensor within a length scale of a deflection candidate
        reduces that candidate's physics-informed entropy."""
        x0 = 0.5
        h_free = conditional_entropy(x0, QuantityKind.DEFLECTION, [], [],
                                     PARAMS)
        h_near = conditional_entropy(
            x0, QuantityKind.DEFLECTION,
            [(x0 + 0.5 * PARAMS.ell, QuantityKind.ROTATION)], [], PARAMS)
        assert h_near < h_free

    def test_deflection_correlation_lag_shrinks_with_rigidity(self):
        """The first zero crossing of the deflection kernel moves closer to
        the origin as the beam becomes more shear-dominated."""
        lags = []
        for r in (0.01, 1.0, 100.0):
            p = Theta(sigma_s2=1.0, ell=0.125, EI=1.0,
                      kGA=3.0 / r)
            taus = np.linspace(0.0, 1.5, 3001)
            vals = np.atleast_1d(kernels.kernel(
                QuantityKind.DEFLECTION, QuantityKind.DEFLECTION,
                taus, 0.0, p))
            neg = np.nonzero(vals < 0.0)[0]
            lags.append(taus[neg[0]] if neg.size else np.inf)
        assert lags[0] > lags[1] > lags[2]


class TestConditionedCovariance:
    def test_matches_scalar_kernels_and_bc_conditioning(self):
        """Sigma = K_SS - K_Sb K_bb^-1 K_bS, in selection order, for a
        mixed-kind set."""
        sel = [(0.3, QuantityKind.ROTATION), (0.7, QuantityKind.DEFLECTION),
               (0.2, QuantityKind.DEFLECTION), (0.9, QuantityKind.ROTATION)]
        p = problem([QuantityKind.DEFLECTION] * 4,
                    PlacementCriterion.PHYSICS_INFORMED_ENTROPY,
                    n_sensors=2, n_candidates=4, bcs=support_bcs())
        _, got = placement.Prior(p.bcs, PARAMS).conditioned(sel)
        K = np.array([[float(kernels.kernel(ki, kj, xi, xj, PARAMS))
                       for xj, kj in sel] for xi, ki in sel])
        xb = np.array([0.0, 1.0])
        w = QuantityKind.DEFLECTION
        Kbb = np.atleast_2d(kernels.kernel(w, w, xb[:, None], xb[None, :],
                                           PARAMS))
        Ksb = np.array([kernels.kernel(k, w, x, xb, PARAMS) for x, k in sel])
        want = K - Ksb @ np.linalg.solve(Kbb, Ksb.T)
        np.testing.assert_allclose(got, want, rtol=1e-9,
                                   atol=1e-12 * np.max(np.abs(K)))

    def test_non_finite_named(self):
        p = problem(QuantityKind.DEFLECTION,
                    PlacementCriterion.PHYSICS_INFORMED_ENTROPY,
                    params=Theta(sigma_s2=1.0, ell=1e-200, EI=1.0, kGA=3.0))
        with pytest.raises(NonFiniteCovarianceError):
            set_entropy([(0.2, QuantityKind.DEFLECTION),
                         (0.6, QuantityKind.DEFLECTION)], p)


class TestSetEntropy:
    def test_single_sensor_matches_conditional_entropy(self):
        p = problem(QuantityKind.DEFLECTION,
                    PlacementCriterion.PHYSICS_INFORMED_ENTROPY,
                    bcs=support_bcs())
        sel = [(0.4, QuantityKind.DEFLECTION)]
        h_set = set_entropy(sel, p)
        h_cond = conditional_entropy(0.4, QuantityKind.DEFLECTION, [],
                                     support_bcs(), PARAMS)
        assert h_set == pytest.approx(h_cond, rel=1e-6)

    @pytest.mark.parametrize("ell,sigma_s2", [(0.125, 0.5), (0.125, 1.0),
                                              (0.1125, 0.5)])
    def test_pinned_sensor_scores_at_floor(self, ell, sigma_s2):
        """A w sensor on a w BC has no variance left; it scores the
        greedy's floor, 1e-12 of its prior variance, whatever rounding
        residue the conditioning leaves."""
        params = Theta(sigma_s2=sigma_s2, ell=ell, EI=1.0, kGA=3.0)
        p = problem(QuantityKind.DEFLECTION,
                    PlacementCriterion.PHYSICS_INFORMED_ENTROPY,
                    n_sensors=4, n_candidates=12, bcs=support_bcs(),
                    params=params)
        k = float(kernels.kernel(QuantityKind.DEFLECTION,
                                 QuantityKind.DEFLECTION, 0.0, 0.0, params))
        assert set_entropy([(0.0, QuantityKind.DEFLECTION)], p) == \
            pytest.approx(0.5 * (LOG_2PIE + math.log(1e-12 * k)), rel=1e-12)

    def test_duplicates_rejected(self):
        p = problem(QuantityKind.DEFLECTION, PlacementCriterion.ENTROPY)
        with pytest.raises(ValueError):
            set_entropy([(0.4, QuantityKind.DEFLECTION),
                         (0.4, QuantityKind.DEFLECTION)], p)

    def test_empty_rejected(self):
        p = problem(QuantityKind.DEFLECTION, PlacementCriterion.ENTROPY)
        with pytest.raises(ValueError):
            set_entropy([], p)

    def test_submodular_ordering(self):
        p = problem(QuantityKind.DEFLECTION, PlacementCriterion.ENTROPY)
        spread = [(x, QuantityKind.DEFLECTION) for x in (0.1, 0.5, 0.9)]
        clumped = [(x, QuantityKind.DEFLECTION) for x in (0.48, 0.5, 0.52)]
        assert set_entropy(spread, p) > set_entropy(clumped, p)


class TestExhaustiveEntropyMap:
    def test_full_selection_normalizes_to_unity(self):
        p = problem(QuantityKind.DEFLECTION,
                    PlacementCriterion.PHYSICS_INFORMED_ENTROPY,
                    n_sensors=5, n_candidates=5)
        values = exhaustive_entropy_map(p)
        assert len(values) == 1
        # A single subset spans a zero range; it normalizes to 0 by the
        # min-max convention with unit span fallback.
        assert values[0] == pytest.approx(0.0)

    def test_all_subsets_enumerated_and_normalized(self):
        p = problem(QuantityKind.DEFLECTION,
                    PlacementCriterion.PHYSICS_INFORMED_ENTROPY,
                    n_sensors=2, n_candidates=6)
        values = exhaustive_entropy_map(p)
        assert len(values) == math.comb(6, 2)
        vals = np.array(values)
        assert vals.min() == pytest.approx(0.0)
        assert vals.max() == pytest.approx(1.0)

    def test_single_sensor_map_equals_variance_ranking(self):
        p = problem(QuantityKind.DEFLECTION,
                    PlacementCriterion.PHYSICS_INFORMED_ENTROPY,
                    n_sensors=1, n_candidates=6, bcs=support_bcs())
        h_map = np.array(exhaustive_entropy_map(p))
        h_cond = np.array([
            conditional_entropy(x, QuantityKind.DEFLECTION, [],
                                support_bcs(), PARAMS)
            for x in p.candidates])
        # Pinned ends carry (numerically) no information and rank lowest.
        assert set(np.argsort(h_map)[:2]) == {0, 5}
        # Interior candidates rank identically under both scores whenever
        # the conditional entropies are not tied.
        for i in range(1, 5):
            for j in range(1, 5):
                if h_cond[i] - h_cond[j] > 1e-6:
                    assert h_map[i] > h_map[j]

    def test_guard_raises_with_remedy(self):
        p = problem(QuantityKind.DEFLECTION,
                    PlacementCriterion.PHYSICS_INFORMED_ENTROPY,
                    n_sensors=7, n_candidates=31)
        with pytest.raises(EnumerationGuardError) as exc_info:
            exhaustive_entropy_map(p)
        assert "--full-scale" in str(exc_info.value)

    def test_multi_domain_rejected(self):
        cands = np.concatenate([np.linspace(0, 1, 4), np.linspace(0, 1, 4)])
        kinds = [QuantityKind.DEFLECTION] * 4 + [QuantityKind.ROTATION] * 4
        p = PlacementProblem(candidates=cands, kinds=kinds, n_sensors=2,
                             prior=placement.Prior([], PARAMS),
                             criterion=PlacementCriterion.ENTROPY)
        with pytest.raises(ValueError):
            exhaustive_entropy_map(p)

    @pytest.mark.parametrize("kind", [QuantityKind.DEFLECTION,
                                      QuantityKind.ROTATION],
                             ids=lambda k: k.code)
    @pytest.mark.parametrize("bcs", ["free", "bcs", "wM"])
    def test_map_equals_per_subset_entropy(self, kind, bcs):
        """The one-Sigma map is exactly the normalized set_entropy of each
        subset, which conditions that subset on the BCs by itself, and
        a subset without a pinned candidate has the entropy
        0.5 ln det(2 pi e Sigma)."""
        bc_list = BC_SETS["w" if bcs == "bcs" else bcs]
        # A w candidate on a w BC is pinned: its Sigma is singular.
        pinned = {0.0, 1.0} if bc_list and kind is W else set()
        for n_sensors in (1, 2, 3, 4, 6, 9):
            p = problem(kind, PlacementCriterion.PHYSICS_INFORMED_ENTROPY,
                        n_sensors=n_sensors, n_candidates=9, bcs=bc_list)
            values = exhaustive_entropy_map(p)
            assert len(values) == math.comb(9, n_sensors)
            assert values.dtype == np.float64
            rows = list(zip(itertools.combinations(range(9), n_sensors),
                            values))
            assert [s for s, _ in rows] == \
                list(itertools.combinations(range(9), n_sensors))
            sets = [[(float(p.candidates[i]), kind) for i in subset]
                    for subset, _ in rows]
            raw = np.array([set_entropy(s, p) for s in sets])
            lo, hi = raw.min(), raw.max()
            span = hi - lo if hi > lo else 1.0
            assert [v for _, v in rows] == \
                [float((h - lo) / span) for h in raw]

            for s, h in zip(sets, raw):
                if pinned & {x for x, _ in s}:
                    continue
                sign, logdet = np.linalg.slogdet(
                    placement.Prior(p.bcs, PARAMS).conditioned(s)[1])
                assert sign > 0
                assert abs(h - 0.5 * (len(s) * LOG_2PIE + logdet)) <= \
                    1e-12 * max(1.0, abs(h))

    def test_zero_sensor_map_rejected(self):
        p = problem(QuantityKind.DEFLECTION,
                    PlacementCriterion.PHYSICS_INFORMED_ENTROPY,
                    n_sensors=0, n_candidates=5)
        with pytest.raises(ValueError):
            exhaustive_entropy_map(p)

    def test_duplicate_candidates_rejected(self):
        p = PlacementProblem(candidates=np.array([0.2, 0.4, 0.4, 0.8]),
                             kinds=QuantityKind.DEFLECTION, n_sensors=2,
                             prior=placement.Prior([], PARAMS))
        with pytest.raises(ValueError, match="distinct"):
            exhaustive_entropy_map(p)

    def test_greedy_near_optimal(self):
        p = problem(QuantityKind.DEFLECTION,
                    PlacementCriterion.PHYSICS_INFORMED_ENTROPY,
                    n_sensors=3, n_candidates=10, bcs=support_bcs())
        rows = list(zip(itertools.combinations(range(10), 3),
                        exhaustive_entropy_map(p)))
        best = max(v for _, v in rows)
        res = greedy_place(p)
        picked = frozenset(int(round(x * 9)) for x, _ in res.selected)
        by_subset = {frozenset(s): v for s, v in rows}
        assert by_subset[picked] >= 0.95 * best


W, PHI = QuantityKind.DEFLECTION, QuantityKind.ROTATION
BC_SETS = {
    "free": [],
    "w": [BoundaryCondition(kind=W, x=np.array([0.0, 1.0]))],
    "wM": [BoundaryCondition(kind=W, x=np.array([0.0, 1.0])),
           BoundaryCondition(kind=QuantityKind.MOMENT,
                             x=np.array([0.0, 1.0]))],
}


def pool_problem(pool, criterion, bcs, candidates=None, n_sensors=7,
                 params=PARAMS):
    """A single-kind pool, or w and phi candidates under one budget."""
    x = np.linspace(0.0, 1.0, 31) if candidates is None else candidates
    prior = placement.Prior(bcs, params)
    if pool == "w+phi":
        return PlacementProblem(candidates=np.concatenate([x, x]),
                                kinds=[W] * x.size + [PHI] * x.size,
                                n_sensors=n_sensors, prior=prior,
                                criterion=criterion)
    return PlacementProblem(candidates=x, kinds={"w": W, "phi": PHI}[pool],
                            n_sensors=n_sensors, prior=prior,
                            criterion=criterion)


@pytest.mark.parametrize("bcs", sorted(BC_SETS))
@pytest.mark.parametrize("pool", ["w", "phi", "w+phi"])
def test_physics_step_entropies_sum_to_set_entropy(pool, bcs):
    """Greedy steps are conditional entropies, so by the chain rule they
    add up to the joint entropy of the selected set."""
    res = greedy_place(pool_problem(
        pool, PlacementCriterion.PHYSICS_INFORMED_ENTROPY, BC_SETS[bcs]))
    h = res.set_entropy
    assert abs(sum(res.step_entropies) - h) <= 1e-9 * max(1.0, abs(h))


@pytest.mark.parametrize("crit", list(PlacementCriterion),
                         ids=lambda c: c.value)
@pytest.mark.parametrize("kind", [W, PHI], ids=lambda k: k.code)
def test_repeated_candidate_selected_once(crit, kind):
    """A second copy of a placed candidate carries no information, and
    the downdates stay finite on the singular Sigma it makes."""
    p = PlacementProblem(candidates=np.append(np.linspace(0.0, 1.0, 11), 0.5),
                         kinds=kind, n_sensors=7,
                         prior=placement.Prior(support_bcs(), PARAMS),
                         criterion=crit)
    res = greedy_place(p)
    xs = [x for x, _ in res.selected]
    assert len(xs) == 7 and xs.count(0.5) <= 1
    assert np.all(np.isfinite(res.step_entropies))


def _oracle_se_var(x_star, given, params):
    """SE conditional variance by a Cholesky of the given sensors' kernel,
    each observed with noise 1e-8 sigma_s^2."""
    x_star = np.atleast_1d(np.asarray(x_star, float))
    if len(given) == 0:
        return np.full(x_star.shape, params.sigma_s2)
    g = np.asarray(given, float)
    K = kernels.se_base(g[:, None], g[None, :], params) + \
        1e-8 * params.sigma_s2 * np.eye(g.size)
    v = np.linalg.solve(np.linalg.cholesky(K),
                        kernels.se_base(g[:, None], x_star[None, :], params))
    return np.maximum(params.sigma_s2 - np.sum(v * v, axis=0),
                      1e-12 * params.sigma_s2)


def _oracle_physics_var(x_star, kind, placed, bcs, params):
    """Physics conditional variance from a GP on the placed sensors."""
    k_diag = np.asarray(kernels.kernel(kind, kind, x_star, x_star, params))
    by_kind = {}
    for x, k in placed:
        by_kind.setdefault(k, []).append(x)
    datasets = [Dataset(kind=k, x=np.array(xs), y=np.zeros(len(xs)))
                for k, xs in by_kind.items()]
    if not datasets and not bcs:
        return np.maximum(k_diag, 1e-12 * k_diag)
    model = gp.assemble(datasets, bcs, params)
    var = gp.predict(model, kind, x_star).var
    return np.maximum(var, max(model.jitter, 1e-12) * k_diag)


def _oracle_greedy(problem):
    """The greedy with every score computed by explicit conditioning."""
    xs, kind, params = problem.candidates, problem.kinds[0], problem.params
    crit = problem.criterion
    selected, steps = [], []
    remaining = list(range(xs.size))
    for _ in range(problem.n_sensors):
        if crit is PlacementCriterion.PHYSICS_INFORMED_ENTROPY:
            var = _oracle_physics_var(xs[remaining], kind,
                                      [(xs[i], kind) for i in selected],
                                      problem.bcs, params)
        else:
            var = _oracle_se_var(xs[remaining], xs[selected], params)
        scores = 0.5 * (LOG_2PIE + np.log(var))
        if crit is PlacementCriterion.MUTUAL_INFORMATION:
            for pos, i in enumerate(remaining):
                rest = [xs[j] for j in remaining if j != i]
                scores[pos] -= 0.5 * (LOG_2PIE + np.log(
                    _oracle_se_var(xs[i], rest, params)[0]))
        pos = int(np.argmax(scores))
        selected.append(remaining.pop(pos))
        steps.append(float(scores[pos]))
    return selected, steps


@pytest.mark.parametrize("bcs", ["free", "w"])
@pytest.mark.parametrize("kind", ["w", "phi"])
@pytest.mark.parametrize("crit", list(PlacementCriterion),
                         ids=lambda c: c.value)
def test_greedy_matches_explicit_conditioning(crit, kind, bcs):
    """On sorted random candidates (no mirror ties) the downdated greedy
    picks what explicit conditioning picks, step by step."""
    x = np.sort(np.random.default_rng(5).uniform(0.0, 1.0, 25))
    p = pool_problem(kind, crit, BC_SETS[bcs], candidates=x, n_sensors=6)
    want_idx, want_steps = _oracle_greedy(p)
    res = greedy_place(p)
    assert [x_ for x_, _ in res.selected] == [float(x[i]) for i in want_idx]
    tol = 1e-6 if crit is PlacementCriterion.MUTUAL_INFORMATION else 1e-9
    np.testing.assert_allclose(res.step_entropies, want_steps, rtol=0,
                               atol=tol)


def _reference_subset_entropies(pair, k):
    """The frame-by-frame walk: every prefix down to two picks left is
    conditioned by ``_observe``, and the last two picks score from the
    block's triangle."""
    prior, sigma = pair
    floor = 1e-12 * prior
    n = prior.size
    if k == 1:
        return placement._entropy_from_var(np.maximum(np.diag(sigma), floor))
    raw = np.empty(math.comb(n, k))
    end = raw.size
    frames = [(0, sigma, 0.0, k, iter(range(n - k, -1, -1)))]
    while frames:
        start, C, h, need, picks = frames[-1]
        var = np.maximum(np.diag(C), floor[start:])
        if need == 2:
            t, a = np.triu_indices(var.size, 1)
            c = C[a, t]
            raw[end - t.size:end] = \
                (h + placement._entropy_from_var(var)[t]) + \
                placement._entropy_from_var(
                    np.maximum(var[a] - c * c / var[t], floor[start:][a]))
            end -= t.size
            frames.pop()
            continue
        t = next(picks)
        if t == 0:
            frames.pop()
        block = C[t:, t:].copy()
        placement._observe(block, 0, 0.0, var[t])
        frames.append((start + t + 1, block[1:, 1:],
                       h + placement._entropy_from_var(var[t]), need - 1,
                       iter(range(var.size - t - need, -1, -1))))
    return raw


@settings(max_examples=150, deadline=None)
@given(nk=st.integers(1, 14).flatmap(
           lambda n: st.tuples(st.just(n), st.integers(1, n))),
       kind=st.sampled_from([W, PHI]), bcs=st.sampled_from(sorted(BC_SETS)),
       ell=st.floats(0.05, 1.0), sigma_s2=st.floats(0.1, 10.0))
# Each depth of the last picks' rule on a larger pool, its pinned ends
# scored at the floor.
@example(nk=(40, 1), kind=W, bcs="w", ell=0.125, sigma_s2=1.0)
@example(nk=(40, 2), kind=W, bcs="w", ell=0.125, sigma_s2=1.0)
@example(nk=(40, 3), kind=W, bcs="w", ell=0.125, sigma_s2=1.0)
def test_walk_matches_frame_by_frame_reference(nk, kind, bcs, ell, sigma_s2):
    """The walk's rows are the frame-by-frame walk's bit for bit, and it
    raises EntropyOverflowError exactly where that walk overflows."""
    n, k = nk
    params = Theta(sigma_s2=sigma_s2, ell=ell, EI=1.0, kGA=3.0)
    _check_walk(kind, n, k, params, BC_SETS[bcs])


def test_overflowing_walk_named():
    """37 of 40 nearly collinear w candidates overflow a downdate."""
    assert _check_walk(W, 40, 37, PARAMS, BC_SETS["w"]) == "overflow"


def _check_walk(kind, n, k, params, bcs):
    pair = placement.Prior(bcs, params).conditioned(
        [(float(x), kind) for x in np.linspace(0.0, 1.0, n)])
    try:
        with np.errstate(over="raise"):
            want = _reference_subset_entropies(pair, k)
    except FloatingPointError:
        with pytest.raises(EntropyOverflowError):
            placement._subset_entropies(pair, k)
        return "overflow"
    got = placement._subset_entropies(pair, k)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    return "equal"


def _mi_problem(x, params, kind=W, bcs=(), n_sensors=7):
    return PlacementProblem(candidates=x, kinds=kind, n_sensors=n_sensors,
                            prior=placement.Prior(list(bcs), params),
                            criterion=PlacementCriterion.MUTUAL_INFORMATION)


def _picks(result, x):
    return [int(np.flatnonzero(x == x_)[0]) for x_, _ in result.selected]


@pytest.mark.parametrize("seed", range(10))
def test_mi_downdated_precision_tracks_a_fresh_inverse(seed):
    """After each MI pick, the precision downdated by the pick's Schur
    complement has the diagonal of a fresh inverse of Sigma_UU + delta I
    over the unselected U.  On these pools cond(Sigma + delta I) stays
    below 1e7, and the diagonal within 1e-8 relative."""
    x = np.sort(np.random.default_rng(seed).uniform(0.0, 1.0, 25))
    params = Theta(sigma_s2=1.0, ell=0.01, EI=1.0, kGA=3.0)
    picks = _picks(greedy_place(_mi_problem(x, params, n_sensors=12)), x)
    sigma = kernels.se_base(x[:, None], x[None, :], params)
    noisy = sigma + 1e-8 * params.sigma_s2 * np.eye(x.size)
    assert np.linalg.cond(noisy) < 1e7
    prec = np.linalg.inv(noisy)
    free = np.ones(x.size, bool)
    for j in picks:
        placement._observe(prec, j, 0.0, 0.0)
        free[j] = False
        u = np.flatnonzero(free)
        np.testing.assert_allclose(np.diag(prec)[u],
                                   np.diag(np.linalg.inv(noisy[np.ix_(u, u)])),
                                   rtol=1e-8, atol=0)


class TestTieRule:
    TIE = placement._MI_TIE

    @pytest.mark.parametrize("best", [5.0, -5.0, 0.1])
    def test_within_tolerance_lower_index_wins(self, best):
        gap = 0.9 * self.TIE * max(1.0, abs(best))
        assert placement._pick(np.array([-np.inf, best - gap, best]),
                               self.TIE) == 1

    @pytest.mark.parametrize("best", [5.0, -5.0, 0.1])
    def test_beyond_tolerance_maximum_wins(self, best):
        gap = 1.1 * self.TIE * max(1.0, abs(best))
        assert placement._pick(np.array([-np.inf, best - gap, best]),
                               self.TIE) == 2

    def test_zero_tolerance_is_first_max(self):
        scores = np.array([-np.inf, 1.0, np.nextafter(1.0, 2.0), 1.0,
                           np.nextafter(1.0, 2.0)])
        assert placement._pick(scores, 0.0) == int(np.argmax(scores)) == 2


def _inverse_per_step_mi(problem):
    """The MI greedy with the unselected set's precision inverted afresh
    at every step, picking by the same tie rule."""
    x, params = problem.candidates, problem.params
    sigma = kernels.se_base(x[:, None], x[None, :], params)
    delta = 1e-8 * params.sigma_s2
    floor = 1e-12 * np.diag(sigma)
    C = sigma.copy()
    free = np.ones(x.size, bool)
    picks = []
    for _ in range(problem.n_sensors):
        u = np.flatnonzero(free)
        prec = np.linalg.inv(sigma[np.ix_(u, u)] + delta * np.eye(u.size))
        scores = placement._entropy_from_var(np.maximum(np.diag(C), floor))
        scores[u] -= placement._entropy_from_var(
            np.maximum(1.0 / np.diag(prec) - delta, floor[u]))
        scores[~free] = -np.inf
        j = placement._pick(scores, placement._MI_TIE)
        picks.append(j)
        free[j] = False
        placement._observe(C, j, delta, floor[j])
    return picks


def _benchmark_prior(seed):
    """The place benchmark's prior at one seed: length scale within 10 %
    of L/8 and signal variance within a factor 2 of 1, L = 1."""
    rng = np.random.default_rng(seed)
    ell = 0.125 * float(np.exp(rng.uniform(np.log(0.9), np.log(1.1))))
    sigma_s2 = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
    return Theta(sigma_s2=sigma_s2, ell=ell, EI=1.0, kGA=3.0)


@pytest.mark.parametrize("kind", [W, PHI], ids=lambda k: k.code)
@pytest.mark.parametrize("grid", [(121, 7), (12, 4)], ids=str)
def test_mi_sets_match_inverse_per_step_on_benchmark_grids(grid, kind):
    """The downdated precision and a fresh inverse per step pick the same
    MI sets on the place benchmark's grids and priors (seeds 1-20, w BCs):
    their rounding differs by less than the tie tolerance."""
    n, k = grid
    x = np.linspace(0.0, 1.0, n)
    for seed in range(1, 21):
        p = _mi_problem(x, _benchmark_prior(seed), kind, BC_SETS["w"], k)
        assert _picks(greedy_place(p), x) == _inverse_per_step_mi(p), seed


# The largest candidate count checked below.  From about 190 sensors up,
# OpenBLAS 0.3.31's dgemm (Haswell kernels) rounds some elements of
# K_Sb K_bb^-1 K_bS otherwise at different matrix sizes, so a sub-block
# can differ from the fresh Sigma at rounding level.
SUB_BLOCK_MAX = 128


@settings(max_examples=60, deadline=None)
@given(data=st.data(), bcs=st.sampled_from(sorted(BC_SETS)),
       ell=st.floats(0.05, 1.0), sigma_s2=st.floats(0.1, 10.0))
def test_held_pool_sub_block_is_the_fresh_sigma(data, bcs, ell, sigma_s2):
    """The index sub-block, in a set's own order, of the pair a Prior
    holds for the candidates is the pair a fresh build of the set gives,
    bit for bit, for up to SUB_BLOCK_MAX candidates of mixed kinds in any
    order, under each BC set: a greedy's set entropy reads it."""
    n = data.draw(st.integers(1, SUB_BLOCK_MAX), label="n")
    x = data.draw(st.permutations(np.linspace(0.0, 1.0, n).tolist()),
                  label="x")
    kinds = data.draw(st.lists(st.sampled_from([W, PHI, QuantityKind.MOMENT,
                                                QuantityKind.SHEAR]),
                               min_size=n, max_size=n), label="kinds")
    pool = list(zip(x, kinds))
    order = data.draw(st.permutations(range(n)), label="order")
    idx = order[:data.draw(st.integers(1, n))]
    params = Theta(sigma_s2=sigma_s2, ell=ell, EI=1.0, kGA=3.0)
    prior, sigma = placement.Prior(BC_SETS[bcs], params).conditioned(pool)
    want = placement.Prior(BC_SETS[bcs], params)._condition(
        [pool[i] for i in idx])
    for a, b in zip((prior[idx], sigma[np.ix_(idx, idx)]), want):
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.mark.parametrize("extra", [0, 1])
def test_set_entropy_reads_the_greedy_pool(monkeypatch, extra):
    """A physics greedy builds Sigma once, for its candidates, and its
    set's entropy reads the candidates' sub-block, at any pool size."""
    n = SUB_BLOCK_MAX + extra
    built = []
    real = placement.Prior._condition
    monkeypatch.setattr(placement.Prior, "_condition",
                        lambda self, s: built.append(len(s))
                        or real(self, s))
    greedy_place(pool_problem("w", PlacementCriterion.PHYSICS_INFORMED_ENTROPY,
                              BC_SETS["w"],
                              candidates=np.linspace(0.0, 1.0, n)))
    assert built == [n]


def _dense_greedy(problem):
    """The greedy with C, and MI's precision P, downdated whole by
    ``_observe`` after every pick but the last, P inverted afresh over
    the free candidates when a free P_ii is not positive: the picks, step
    entropies and the set's entropy from the pool's physics Sigma, None
    where conditioning the set in pick order overflows."""
    x, params = problem.candidates, problem.params
    physics = problem.prior.conditioned(
        [(float(x_), kind) for x_, kind in zip(x, problem.kinds)])
    if problem.criterion is PlacementCriterion.PHYSICS_INFORMED_ENTROPY:
        prior, sigma = physics
        delta = 0.0
    else:
        sigma = kernels.se_base(x[:, None], x[None, :], params)
        prior = np.diag(sigma)
        delta = 1e-8 * params.sigma_s2
    mutual = problem.criterion is PlacementCriterion.MUTUAL_INFORMATION
    floor = 1e-12 * prior
    n, k = x.size, problem.n_sensors
    C = sigma.copy()
    if mutual:
        prec = np.linalg.inv(sigma + delta * np.eye(n))
    free = np.ones(n, bool)
    picks, steps = [], []
    for t in range(k):
        scores = placement._entropy_from_var(np.maximum(np.diag(C), floor))
        if mutual:
            u = np.flatnonzero(free)
            if not (np.diag(prec)[u] > 0.0).all():
                prec = np.zeros_like(sigma)
                prec[np.ix_(u, u)] = np.linalg.inv(
                    sigma[np.ix_(u, u)] + delta * np.eye(u.size))
            scores[u] -= placement._entropy_from_var(
                np.maximum(1.0 / np.diag(prec)[u] - delta, floor[u]))
        scores[~free] = -np.inf
        j = placement._pick(scores, placement._MI_TIE if mutual else 0.0)
        picks.append(j)
        steps.append(float(scores[j]))
        free[j] = False
        if t < k - 1:
            placement._observe(C, j, delta, floor[j])
            if mutual:
                placement._observe(prec, j, 0.0, 0.0)
    try:
        h = float(placement._subset_entropies(
            (physics[0][picks], physics[1][np.ix_(picks, picks)]), k)[0])
    except EntropyOverflowError:
        h = None
    return picks, steps, h


def _assert_same_greedy(result, picks, steps, h, problem):
    assert result.selected == [(float(problem.candidates[i]),
                                problem.kinds[i]) for i in picks]
    assert [s.hex() for s in result.step_entropies] == \
        [s.hex() for s in steps]
    if h is None:
        assert result.set_entropy is None
    else:
        assert result.set_entropy.hex() == h.hex()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), pool=st.sampled_from(["w", "phi", "w+phi"]),
       bcs=st.sampled_from(sorted(BC_SETS)),
       crit=st.sampled_from(list(PlacementCriterion)),
       ell=st.floats(0.05, 1.0), sigma_s2=st.floats(0.1, 10.0))
def test_column_greedy_is_the_dense_greedy(data, pool, bcs, crit, ell,
                                           sigma_s2):
    """The greedy that keeps only the picked columns picks, scores and
    sums what the dense downdate does, bit for bit, on up to 250
    candidates with any budget up to all of them."""
    m = data.draw(st.integers(1, 125 if pool == "w+phi" else 250),
                  label="m")
    n = 2 * m if pool == "w+phi" else m
    k = data.draw(st.one_of(st.just(n), st.integers(1, n)), label="k")
    p = pool_problem(pool, crit, BC_SETS[bcs],
                     candidates=np.linspace(0.0, 1.0, m), n_sensors=k,
                     params=Theta(sigma_s2=sigma_s2, ell=ell, EI=1.0,
                                  kGA=3.0))
    picks, steps, h = _dense_greedy(p)
    if p.criterion is PlacementCriterion.PHYSICS_INFORMED_ENTROPY:
        prior, sigma = p.prior.conditioned(
            [(float(x), kind) for x, kind in zip(p.candidates, p.kinds)])
        got = placement._greedy(sigma, prior, 0.0, False, k)
    else:
        got = p.prior.baseline(p.criterion, p.candidates, k)
    assert list(got[0]) == picks
    assert [s.hex() for s in got[1]] == [s.hex() for s in steps]
    # A set picked without the physics pivots, as an MI set of most of a
    # fine grid, can overflow its chain-rule entropy: h is then None.
    _assert_same_greedy(greedy_place(p), picks, steps, h, p)


@pytest.mark.parametrize("n", [31, 60, 121])
def test_mi_full_budget_refreshes_the_precision(monkeypatch, n):
    """Placing every candidate by MI at ell = L/8, rounding leaves the
    downdated precision with a non-positive free P_ii a few picks before
    the end; P, first inverted over all n candidates, is inverted afresh
    over the free ones, every score stays finite, no RuntimeWarning is
    raised, and the picks are the dense greedy's."""
    built = []
    real = placement._precision
    monkeypatch.setattr(placement, "_precision",
                        lambda sigma, delta, u: built.append(u.size)
                        or real(sigma, delta, u))
    x = np.linspace(0.0, 1.0, n)
    p = _mi_problem(x, PARAMS, n_sensors=n)
    res = greedy_place(p)
    assert built[0] == n
    assert built[1:] and max(built[1:]) <= 10
    assert np.all(np.isfinite(res.step_entropies))
    _assert_same_greedy(res, *_dense_greedy(p), p)


def test_baselines_run_once_per_prior(monkeypatch):
    """One Prior runs the entropy and MI greedies once for a grid and
    budget, whatever the kind; each kind's result is a fresh Prior's,
    bit for bit, its set entropy read from that kind's physics Sigma."""
    runs = []
    real = placement._greedy
    monkeypatch.setattr(placement, "_greedy",
                        lambda *a: runs.append(a[3]) or real(*a))
    x = np.linspace(0.0, 1.0, 31)
    shared = placement.Prior(BC_SETS["w"], PARAMS)
    got = {(crit, kind): greedy_place(PlacementProblem(
        candidates=x, kinds=kind, n_sensors=7, prior=shared, criterion=crit))
        for crit in PlacementCriterion for kind in (W, PHI)}
    # The physics greedy once per kind, the entropy and MI greedies once.
    assert runs == [False, False, False, True]
    for (crit, kind), res in got.items():
        want = greedy_place(pool_problem(kind.code, crit, BC_SETS["w"]))
        assert res.selected == want.selected
        assert [h.hex() for h in res.step_entropies] == \
            [h.hex() for h in want.step_entropies]
        assert res.set_entropy.hex() == want.set_entropy.hex()


@pytest.mark.parametrize("crit", list(PlacementCriterion),
                         ids=lambda c: c.value)
def test_greedy_overflow_named(crit):
    """A signal variance of 1e160 overflows the first downdate: the
    greedy raises EntropyOverflowError, not a RuntimeWarning."""
    p = pool_problem("w", crit, BC_SETS["w"],
                     candidates=np.linspace(0.0, 1.0, 12), n_sensors=3,
                     params=Theta(sigma_s2=1e160, ell=0.125, EI=1.0,
                                  kGA=3.0))
    with pytest.raises(EntropyOverflowError, match="sigma_s2"):
        greedy_place(p)
