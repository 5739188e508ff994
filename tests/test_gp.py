"""Tests for covariance assembly, marginal likelihood and prediction."""

import importlib.machinery
import itertools
import os
import re
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from timopigp import beam, experiments, gp, kernels
from timopigp.beam import BeamConfig, NoiseSpec
from timopigp.data import BoundaryCondition, Dataset
from timopigp.errors import IllConditionedModelError, NonFiniteCovarianceError
from timopigp.gp import Theta
from timopigp.placement import PlacementCriterion
from timopigp.quantities import QuantityKind

THETA = Theta(sigma_s2=1.0, ell=0.3, EI=1.0, kGA=3.0)
CFG = BeamConfig(L=1.0, EI_true=1.0, kGA_true=3.0, q0=1.0)


def w_dataset(x, sigma=0.0, label="w"):
    x = np.atleast_1d(np.asarray(x, float))
    y = beam.analytic_field(CFG, QuantityKind.DEFLECTION, x)
    return Dataset(kind=QuantityKind.DEFLECTION, x=x, y=np.atleast_1d(y),
                   sigma_n=sigma, label=label)


def support_bc():
    return BoundaryCondition(kind=QuantityKind.DEFLECTION,
                             x=np.array([0.0, CFG.L]))


class TestAssemble:
    def test_single_point_variance(self):
        ds = Dataset(kind=QuantityKind.DEFLECTION, x=[0.5], y=[0.0])
        theta = Theta(sigma_s2=2.0, ell=1e6, EI=1.0, kGA=1e12)
        model = gp.assemble([ds], [], theta)
        # With an effectively infinite length scale the shear correction
        # vanishes and the (1, 1) entry is the raw signal variance.
        assert model.K[0, 0] == pytest.approx(2.0, rel=1e-6)

    def test_diagonal_gets_noise_off_diagonal_does_not(self):
        ds = Dataset(kind=QuantityKind.DEFLECTION, x=[0.2, 0.8], y=[0.0, 0.0],
                     sigma_n=0.5)
        model = gp.assemble([ds], [], THETA)
        params = THETA
        k00 = kernels.kernel(QuantityKind.DEFLECTION, QuantityKind.DEFLECTION,
                             0.2, 0.2, params)
        k01 = kernels.kernel(QuantityKind.DEFLECTION, QuantityKind.DEFLECTION,
                             0.2, 0.8, params)
        assert model.K[0, 0] == pytest.approx(k00 + 0.25, rel=1e-12)
        assert model.K[0, 1] == pytest.approx(k01, rel=1e-12)

    def test_cross_block_uses_cross_kernel(self):
        ds_w = Dataset(kind=QuantityKind.DEFLECTION, x=[0.3], y=[0.0],
                       sigma_n=0.1)
        ds_m = Dataset(kind=QuantityKind.MOMENT, x=[0.7], y=[0.0],
                       sigma_n=0.2)
        model = gp.assemble([ds_w, ds_m], [], THETA)
        params = THETA
        want = kernels.kernel(QuantityKind.DEFLECTION, QuantityKind.MOMENT,
                              0.3, 0.7, params)
        assert model.K[0, 1] == pytest.approx(want, rel=1e-12)
        assert model.K[1, 0] == pytest.approx(want, rel=1e-12)

    def test_matrix_symmetry(self):
        datasets = [w_dataset(np.linspace(0.1, 0.9, 5), sigma=0.01),
                    Dataset(kind=QuantityKind.ROTATION,
                            x=np.linspace(0.15, 0.85, 4), y=np.zeros(4),
                            sigma_n=0.02, label="phi")]
        model = gp.assemble(datasets, [support_bc()], THETA)
        assert np.max(np.abs(model.K - model.K.T)) < 1e-12

    def test_block_order_is_fixed(self):
        ds_m = Dataset(kind=QuantityKind.MOMENT, x=[0.5], y=[0.0])
        ds_w = Dataset(kind=QuantityKind.DEFLECTION, x=[0.5], y=[0.0])
        model = gp.assemble([ds_m, ds_w], [], THETA)
        assert model.entries[0].kind is QuantityKind.DEFLECTION
        assert model.entries[1].kind is QuantityKind.MOMENT

    def test_empty_model_rejected(self):
        with pytest.raises(ValueError):
            gp.assemble([], [], THETA)

    def test_jitter_reported(self):
        # Two coincident noiseless points force at least one ladder step.
        ds = Dataset(kind=QuantityKind.DEFLECTION, x=[0.5, 0.5], y=[0.0, 0.0])
        model = gp.assemble([ds], [], THETA)
        assert model.jitter in (0.0,) + gp.JITTER_LADDER
        assert model.jitter > 0.0

    def test_non_finite_covariance_named(self):
        # ell**-8 overflows: the kernels give inf/NaN instead of raising,
        # and assembly names the matrix before trying the jitter ladder.
        theta = Theta(sigma_s2=1.0, ell=1e-200, EI=1.0, kGA=3.0)
        with pytest.raises(NonFiniteCovarianceError, match="non-finite"):
            gp.assemble([w_dataset([0.3, 0.6])], [support_bc()], theta)

    def test_positive_semidefinite(self):
        datasets = [w_dataset(np.linspace(0.05, 0.95, 12), sigma=0.0)]
        model = gp.assemble(datasets, [support_bc()], THETA)
        eig = np.linalg.eigvalsh(model.K)
        assert eig.min() >= -1e-8 * np.trace(model.K)


class TestFactorizeLapack:
    """``factorize`` calls LAPACK directly: scipy's bits at every level."""

    @staticmethod
    def model_of(monkeypatch, K):
        # Five noiseless rows: the layout adds nothing to the given K.
        layout = gp.data_layout([], [BoundaryCondition(
            kind=QuantityKind.DEFLECTION, x=np.linspace(0.0, 1.0, 5))])
        monkeypatch.setattr(gp, "evaluate", lambda layout, theta: K.copy())
        return gp.factorize(layout, THETA)

    @staticmethod
    def matrix(delta):
        """A K whose smallest eigenvalue is about -delta: a 2 x 2 block
        [[1, 1 + delta], [1 + delta, 1]] beside an SPD 3 x 3 block."""
        a = np.random.default_rng(5).standard_normal((3, 3))
        K = np.zeros((5, 5))
        K[:2, :2] = [[1.0, 1.0 + delta], [1.0 + delta, 1.0]]
        K[2:, 2:] = a @ a.T + np.eye(3)
        return K

    @pytest.mark.parametrize("level", (0.0,) + gp.JITTER_LADDER)
    def test_chol_and_solve_match_scipy(self, monkeypatch, level):
        # Eigenvalue -0.3 level: fails one rung below, passes at ``level``.
        K = self.matrix(-0.5 if level == 0.0 else 0.3 * level)
        model = self.model_of(monkeypatch, K)
        assert model.jitter == level
        diag = np.maximum(np.diag(K), 1e-300)
        Kj = K if level == 0.0 else K + np.diag(level * diag)
        L = scipy.linalg.cholesky(Kj, lower=True)
        assert same_bits(model.chol, L)
        rng = np.random.default_rng(1)
        for b in (rng.standard_normal(5), rng.standard_normal((3, 5)).T):
            assert same_bits(model.solve(b),
                             scipy.linalg.cho_solve((L, True), b))

    def test_every_level_failing_raises(self, monkeypatch):
        with pytest.raises(IllConditionedModelError) as info:
            self.model_of(monkeypatch, self.matrix(0.3))
        assert info.value.attempted_levels == (0.0,) + gp.JITTER_LADDER

    def test_predict_matches_solve_triangular(self):
        model = gp.assemble([w_dataset([0.2, 0.5, 0.8], sigma=0.01)],
                            [support_bc()], THETA)
        x = np.linspace(0.0, 1.0, 7)
        pred = gp.predict(model, QuantityKind.DEFLECTION, x)
        ks = gp.evaluate(gp.Layout([gp.Points(QuantityKind.DEFLECTION, x)],
                                   model.entries), THETA)
        v = scipy.linalg.solve_triangular(model.chol, ks.T, lower=True)
        k_diag = kernels.kernel(QuantityKind.DEFLECTION,
                                QuantityKind.DEFLECTION, x, x, THETA)
        want = np.maximum(k_diag - np.sum(v * v, axis=0), 0.0)
        assert same_bits(pred.var, want)


def test_lapack_loader_names_the_directory_searched(monkeypatch):
    """Without scipy's ``_flapack`` extension the import fails by name:
    there is no second path to LAPACK."""
    monkeypatch.setattr(importlib.machinery.PathFinder, "find_spec",
                        lambda *args: None)
    where = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    with pytest.raises(ImportError, match=re.escape(where)):
        gp._load_lapack()


class TestLogMarginalLikelihood:
    def test_standard_normal_zero(self):
        theta = Theta(sigma_s2=1.0, ell=1e8, EI=1.0, kGA=1e15)
        ds = Dataset(kind=QuantityKind.DEFLECTION, x=[0.5], y=[0.0])
        layout = gp.data_layout([ds], [])
        # K = [1], y = 0: log N(0 | 0, 1) = -0.5 ln(2 pi)
        assert gp.log_marginal_likelihood(layout, theta)[0] == \
            pytest.approx(-0.9189385332046727, rel=1e-9)

    def test_standard_normal_one(self):
        theta = Theta(sigma_s2=1.0, ell=1e8, EI=1.0, kGA=1e15)
        ds = Dataset(kind=QuantityKind.DEFLECTION, x=[0.5], y=[1.0])
        layout = gp.data_layout([ds], [])
        assert gp.log_marginal_likelihood(layout, theta)[0] == \
            pytest.approx(-0.5 - 0.9189385332046727, rel=1e-9)

    def test_against_dense_gaussian(self):
        x = np.linspace(0.1, 0.9, 5)
        ds = w_dataset(x, sigma=0.05)
        model = gp.assemble([ds], [], THETA)
        K = model.K + model.jitter * np.diag(np.diag(model.K))
        y = model.y
        sign, logdet = np.linalg.slogdet(K)
        want = (-0.5 * y @ np.linalg.solve(K, y) - 0.5 * logdet
                - 0.5 * y.size * np.log(2.0 * np.pi))
        lml, level = gp.log_marginal_likelihood(gp.data_layout([ds], []),
                                                THETA)
        assert level == model.jitter
        assert lml == pytest.approx(want, rel=1e-10)

    def test_invariant_to_dataset_ordering(self):
        ds_w = w_dataset([0.2, 0.7], sigma=0.03)
        ds_m = Dataset(kind=QuantityKind.MOMENT, x=[0.4], y=[-0.12],
                       sigma_n=0.02, label="M")
        a, _ = gp.log_marginal_likelihood(gp.data_layout([ds_w, ds_m], []),
                                          THETA)
        b, _ = gp.log_marginal_likelihood(gp.data_layout([ds_m, ds_w], []),
                                          THETA)
        assert a == pytest.approx(b, rel=1e-12)


class TestPredict:
    def test_interpolates_noiseless_data(self):
        x = np.linspace(0.1, 0.9, 7)
        model = gp.assemble([w_dataset(x, sigma=0.0)], [support_bc()], THETA)
        pred = gp.predict(model, QuantityKind.DEFLECTION, x)
        truth = beam.analytic_field(CFG, QuantityKind.DEFLECTION, x)
        np.testing.assert_allclose(pred.mean, truth, rtol=1e-8,
                                   atol=1e-8 * np.max(np.abs(truth)))

    def test_boundary_condition_collapse(self):
        model = gp.assemble([w_dataset([0.3, 0.6], sigma=0.01)],
                            [support_bc()], THETA)
        pred = gp.predict(model, QuantityKind.DEFLECTION,
                          np.array([0.0, 1.0]))
        prior = float(kernels.kernel(QuantityKind.DEFLECTION,
                                     QuantityKind.DEFLECTION, 0.0, 0.0,
                                     THETA))
        assert np.max(np.abs(pred.mean)) < 1e-4 * prior
        assert np.max(pred.var) <= 10.0 * max(model.jitter,
                                              gp.JITTER_LADDER[0]) * prior

    def test_posterior_variance_shrinks(self):
        xq = np.linspace(0.0, 1.0, 21)
        params = THETA
        prior = np.atleast_1d(kernels.kernel(
            QuantityKind.DEFLECTION, QuantityKind.DEFLECTION, xq, xq, params))
        model = gp.assemble([w_dataset([0.25, 0.5, 0.75], sigma=0.01)], [],
                            THETA)
        pred = gp.predict(model, QuantityKind.DEFLECTION, xq)
        assert np.all(pred.var <= prior * (1.0 + 1e-9))

    def test_information_monotone_in_data(self):
        xq = 0.5
        small = gp.assemble([w_dataset([0.3], sigma=0.02)], [], THETA)
        big = gp.assemble([w_dataset([0.3, 0.45, 0.7], sigma=0.02)], [],
                          THETA)
        v_small = gp.predict(small, QuantityKind.DEFLECTION, xq).var[0]
        v_big = gp.predict(big, QuantityKind.DEFLECTION, xq).var[0]
        assert v_big <= v_small + 1e-12

    def test_variance_nonnegative(self):
        model = gp.assemble([w_dataset(np.linspace(0.1, 0.9, 9), sigma=0.0)],
                            [support_bc()], THETA)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            pred = gp.predict(model, QuantityKind.DEFLECTION,
                              np.linspace(0.0, 1.0, 41))
        assert np.all(pred.var >= 0.0)

    def test_strain_requires_depth(self):
        model = gp.assemble([w_dataset([0.4], sigma=0.1)], [], THETA)
        with pytest.raises(ValueError):
            gp.predict(model, QuantityKind.STRAIN, 0.5)

    def test_derived_fields_from_dense_data(self):
        """Dense deflection + load data recovers moment and shear."""
        theta = Theta(sigma_s2=1.0, ell=0.15, EI=CFG.EI_true,
                      kGA=CFG.kGA_true)
        xw = np.linspace(0.0, 1.0, 33)[1:-1]
        datasets = [w_dataset(xw, sigma=0.0),
                    Dataset(kind=QuantityKind.LOAD, x=xw,
                            y=np.full(xw.size, CFG.q0), sigma_n=1e-6,
                            label="q")]
        bcs = [support_bc()]
        model = gp.assemble(datasets, bcs, theta)
        xq = np.linspace(0.0, 1.0, 41)
        for kind in (QuantityKind.MOMENT, QuantityKind.SHEAR):
            pred = gp.predict(model, kind, xq)
            truth = beam.analytic_field(CFG, kind, xq)
            nrmse = (np.sqrt(np.mean((pred.mean - truth) ** 2))
                     / np.max(np.abs(truth)))
            assert nrmse < 1e-3

    def test_moment_shear_independent_of_stiffness(self):
        """With load data and moment BCs, M and V predictions are pure
        statics and cannot depend on the stiffness values."""
        xq = np.linspace(0.1, 0.9, 9)
        xd = np.linspace(0.0, 1.0, 23)[1:-1]
        bcs = [BoundaryCondition(kind=QuantityKind.MOMENT,
                                 x=np.array([0.0, 1.0]))]
        preds = {}
        for EI, kGA in [(1.0, 3.0), (2.5, 0.7)]:
            theta = Theta(sigma_s2=1.0, ell=0.2, EI=EI, kGA=kGA)
            datasets = [Dataset(kind=QuantityKind.LOAD, x=xd,
                                y=np.full(xd.size, 1.0), sigma_n=1e-8,
                                label="q")]
            model = gp.assemble(datasets, bcs, theta)
            preds[(EI, kGA)] = {
                kind: gp.predict(model, kind, xq).mean
                for kind in (QuantityKind.MOMENT, QuantityKind.SHEAR)}
        for kind in (QuantityKind.MOMENT, QuantityKind.SHEAR):
            a = preds[(1.0, 3.0)][kind]
            b = preds[(2.5, 0.7)][kind]
            np.testing.assert_allclose(a, b, rtol=1e-6,
                                       atol=1e-6 * np.max(np.abs(a)))

    def test_non_finite_query_block_named(self):
        # At this ell the deflection K is finite, but the shear query's
        # cross-covariance (derivative order 5) overflows.
        theta = Theta(sigma_s2=1.0, ell=1e-35, EI=1.0, kGA=3.0)
        model = gp.assemble([w_dataset([0.3, 0.6], sigma=0.01)], [], theta)
        gp.predict(model, QuantityKind.DEFLECTION, np.array([0.45]))
        with pytest.raises(NonFiniteCovarianceError, match="non-finite"):
            gp.predict(model, QuantityKind.SHEAR, np.array([0.45]))


class TestPredictMixture:
    def test_single_draw_degenerates_to_predict(self):
        model_theta = THETA
        datasets = [w_dataset([0.3, 0.7], sigma=0.05)]
        single = gp.predict(gp.assemble(datasets, [], model_theta),
                            QuantityKind.DEFLECTION, [0.5])
        [mix] = gp.predict_mixture(datasets, [], [model_theta],
                                   [(QuantityKind.DEFLECTION, [0.5], None)])
        assert mix.mean[0] == pytest.approx(single.mean[0], rel=1e-12)
        assert mix.var[0] == pytest.approx(single.var[0], rel=1e-12)

    def test_two_draw_moment_formula(self):
        datasets = [w_dataset([0.3, 0.7], sigma=0.05)]
        thetas = [Theta(sigma_s2=1.0, ell=0.3, EI=1.0, kGA=3.0),
                  Theta(sigma_s2=0.5, ell=0.4, EI=1.3, kGA=2.0)]
        singles = [gp.predict(gp.assemble(datasets, [], t),
                              QuantityKind.DEFLECTION, [0.5])
                   for t in thetas]
        [mix] = gp.predict_mixture(datasets, [], thetas,
                                   [(QuantityKind.DEFLECTION, [0.5], None)])
        mus = np.array([s.mean[0] for s in singles])
        vs = np.array([s.var[0] for s in singles])
        assert mix.mean[0] == pytest.approx(mus.mean(), rel=1e-12)
        want_var = vs.mean() + np.mean((mus - mus.mean()) ** 2)
        assert mix.var[0] == pytest.approx(want_var, rel=1e-12)

    def test_one_assembly_per_draw_for_all_queries(self, monkeypatch):
        datasets = [w_dataset([0.3, 0.7], sigma=0.05)]
        thetas = [Theta(sigma_s2=1.0, ell=0.3, EI=1.0, kGA=3.0),
                  Theta(sigma_s2=0.5, ell=0.4, EI=1.3, kGA=2.0)]
        queries = [(QuantityKind.DEFLECTION, [0.2, 0.5], None),
                   (QuantityKind.MOMENT, [0.4], None),
                   (QuantityKind.STRAIN, [0.6], [0.05])]
        alone = [gp.predict_mixture(datasets, [], thetas, [q])[0]
                 for q in queries]
        calls = []
        real = gp.factorize
        monkeypatch.setattr(gp, "factorize",
                            lambda *a: calls.append(1) or real(*a))
        together = gp.predict_mixture(datasets, [], thetas, queries)
        assert len(calls) == len(thetas)
        for a, b in zip(alone, together):
            assert a.kind is b.kind
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.var, b.var)

    def test_layouts_built_once_per_query(self, monkeypatch):
        """Each query's layouts are built once, not once per draw, and the
        bytes are those of a per-draw ``predict``."""
        datasets = [w_dataset([0.3, 0.7], sigma=0.05),
                    Dataset(kind=QuantityKind.STRAIN, x=[0.4, 0.6],
                            y=[0.0, 0.0], z=[0.05, -0.05], sigma_n=1e-3,
                            label="eps")]
        bcs = [support_bc()]
        queries = [(QuantityKind.DEFLECTION, [0.2, 0.5], None),
                   (QuantityKind.STRAIN, [0.1, 0.6, 0.9], [0.05, -0.05, 0.05]),
                   (QuantityKind.SHEAR, [0.4], None)]
        thetas = [Theta(sigma_s2=1.0, ell=0.3, EI=1.0, kGA=3.0),
                  Theta(sigma_s2=0.5, ell=0.4, EI=1.3, kGA=2.0),
                  Theta(sigma_s2=0.8, ell=0.35, EI=0.9, kGA=2.5)]
        builds = []

        class Counted(gp.Layout):
            def __init__(self, *args, **kwargs):
                builds.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(gp, "Layout", Counted)
        gp.predict_mixture(datasets, bcs, thetas[:1], queries)  # warm caches
        builds.clear()
        gp.predict_mixture(datasets, bcs, thetas[:1], queries)
        one_draw = len(builds)
        builds.clear()
        mixed = gp.predict_mixture(datasets, bcs, thetas, queries)
        assert len(builds) == one_draw
        monkeypatch.undo()

        layout = gp.data_layout(datasets, bcs)
        models = [gp.factorize(layout, t) for t in thetas]
        for (kind, x, z), got in zip(queries, mixed):
            preds = [gp.predict(m, kind, x, z) for m in models]
            means = np.asarray([p.mean for p in preds])
            variances = np.asarray([p.var for p in preds])
            mu = means.mean(axis=0)
            var = variances.mean(axis=0) + np.mean((means - mu) ** 2, axis=0)
            assert got.mean.tobytes() == mu.tobytes()
            assert got.var.tobytes() == var.tobytes()

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            gp.predict_mixture([w_dataset([0.5], sigma=0.1)], [], [],
                               [(QuantityKind.DEFLECTION, [0.5], None)])


class TestTheta:
    @pytest.mark.parametrize("kw", [dict(sigma_s2=0.0), dict(ell=-0.1),
                                    dict(EI=0.0), dict(kGA=-1.0)])
    def test_positivity(self, kw):
        base = dict(sigma_s2=1.0, ell=1.0, EI=1.0, kGA=1.0)
        base.update(kw)
        with pytest.raises(ValueError):
            Theta(**base)

    @pytest.mark.parametrize("kw", [dict(sigma_s2=float("inf")),
                                    dict(ell=float("nan")),
                                    dict(EI=float("inf")),
                                    dict(kGA=float("nan"))])
    def test_non_finite_rejected_by_name(self, kw):
        base = dict(sigma_s2=1.0, ell=1.0, EI=1.0, kGA=1.0)
        base.update(kw)
        with pytest.raises(ValueError, match=next(iter(kw))):
            Theta(**base)

    def test_non_finite_noise_rejected(self):
        with pytest.raises(ValueError):
            Theta(sigma_s2=1.0, ell=1.0, EI=1.0, kGA=1.0,
                  sigma_n={"w": float("inf")})

    def test_hash_ignores_noise(self):
        a = Theta(sigma_s2=1.0, ell=0.3, EI=1.0, kGA=3.0, sigma_n={"w": 0.1})
        b = Theta(sigma_s2=1.0, ell=0.3, EI=1.0, kGA=3.0, sigma_n={"w": 0.2})
        assert hash(a) == hash(b) and a != b
        assert len({a, b, Theta(sigma_s2=1.0, ell=0.3, EI=1.0,
                                kGA=3.0)}) == 3

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            Theta(sigma_s2=1.0, ell=1.0, EI=1.0, kGA=1.0,
                  sigma_n={"w": -0.1})

    def test_learned_noise_overrides_dataset(self):
        ds = Dataset(kind=QuantityKind.DEFLECTION, x=[0.2, 0.8],
                     y=[0.0, 0.0], sigma_n=0.1, learn_noise=True, label="w")
        theta = Theta(sigma_s2=1.0, ell=0.3, EI=1.0, kGA=3.0,
                      sigma_n={"w": 0.5})
        model = gp.assemble([ds], [], theta)
        params = theta
        k00 = kernels.kernel(QuantityKind.DEFLECTION, QuantityKind.DEFLECTION,
                             0.2, 0.2, params)
        assert model.K[0, 0] == pytest.approx(k00 + 0.25, rel=1e-12)


# ---------------------------------------------------------------------------
# The layout engine against a block loop of ``kernels.kernel`` calls: the
# block builder ``gp.covariance`` had before the engine, kept here as the
# oracle.

def reference_covariance(rows, theta, cols=None):
    symmetric = cols is None
    cols = rows if symmetric else cols

    def slices(entries):
        ends = list(itertools.accumulate((len(e.x) for e in entries),
                                         initial=0))
        return [slice(a, b) for a, b in zip(ends, ends[1:])]

    r_sl = slices(rows)
    c_sl = r_sl if symmetric else slices(cols)
    K = np.empty((r_sl[-1].stop, c_sl[-1].stop))
    with np.errstate(over="ignore", invalid="ignore"):
        for a, ea in enumerate(rows):
            for b in range(a if symmetric else 0, len(cols)):
                eb = cols[b]
                block = kernels.kernel(
                    ea.kind, eb.kind, ea.x[:, None], eb.x[None, :], theta,
                    z=None if ea.z is None else ea.z[:, None],
                    z_prime=None if eb.z is None else eb.z[None, :])
                K[r_sl[a], c_sl[b]] = block
                if symmetric and b != a:
                    K[c_sl[b], r_sl[a]] = block.T
    return K


def reference_assembled(datasets, bcs, theta):
    """The assembled K before factorization: blocks plus noise."""
    entries = gp.order_entries(datasets, bcs)
    K = reference_covariance(entries, theta)
    start = 0
    for e in entries:
        idx = np.arange(start, start + len(e.x))
        start += len(e.x)
        sig = theta.sigma_n.get(e.label, e.sigma_n) if e.learn_noise \
            else e.sigma_n
        if sig > 0:
            K[idx, idx] += sig**2
    return K


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


@st.composite
def entry_lists(draw, max_entries=4):
    out = []
    for _ in range(draw(st.integers(1, max_entries))):
        kind = draw(st.sampled_from(list(QuantityKind)))
        n = draw(st.integers(1, 4))
        x = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n,
                                   max_size=n)))
        z = None
        if kind is QuantityKind.STRAIN:
            z = np.array(draw(st.lists(st.floats(-0.1, 0.1), min_size=n,
                                       max_size=n)))
        out.append(gp.Points(kind, x, z))
    return out


@st.composite
def thetas(draw, ell=log_uniform(-2.0, 0.5)):
    return Theta(sigma_s2=draw(log_uniform(-3.0, 3.0)), ell=draw(ell),
                 EI=draw(log_uniform(-2.0, 2.0)),
                 kGA=draw(log_uniform(-2.0, 2.0)))


@st.composite
def data_and_bcs(draw):
    datasets = [Dataset(kind=p.kind, x=p.x, y=np.zeros(p.x.size), z=p.z,
                        sigma_n=draw(st.sampled_from([0.0, 1e-3, 0.1])),
                        learn_noise=draw(st.booleans()), label=f"d{i}")
                for i, p in enumerate(draw(entry_lists()))]
    bcs = [BoundaryCondition(kind=p.kind, x=p.x, z=p.z)
           for p in draw(entry_lists(max_entries=2))] \
        if draw(st.booleans()) else []
    return datasets, bcs


def identify_scenario():
    """(datasets, BCs) of the identify benchmark: r = 0.3, SNR 100, 7 + 7
    physics-placed w and phi sensors, the informed load at the w sites and
    w and M BCs at both ends."""
    beam_cfg = experiments.scenario_beam(0.3)
    w_locs, phi_locs = (
        experiments.sensor_set(beam_cfg, kind,
                               PlacementCriterion.PHYSICS_INFORMED_ENTROPY)
        for kind in (QuantityKind.DEFLECTION, QuantityKind.ROTATION))
    datasets = experiments.synth_identification_data(
        beam_cfg, w_locs, phi_locs, snr=100.0, seed=21)
    return datasets, experiments.support_bcs(beam_cfg)


class TestLayoutEngine:
    """K from the layout engine is bit for bit the block loop's K."""

    @settings(max_examples=200, deadline=None)
    @given(rows=entry_lists(), cols=st.none() | entry_lists(),
           theta=thetas())
    def test_covariance_matches_block_loop(self, rows, cols, theta):
        assert same_bits(gp.evaluate(gp.Layout(rows, cols), theta),
                         reference_covariance(rows, theta, cols))

    @settings(max_examples=100, deadline=None)
    @given(data=data_and_bcs(), theta=thetas(),
           noise=st.floats(1e-4, 1.0))
    def test_assembled_matrix_matches_block_loop(self, data, theta, noise):
        datasets, bcs = data
        theta = Theta(theta.sigma_s2, theta.ell, theta.EI, theta.kGA,
                      sigma_n={d.label: noise for d in datasets[::2]})
        K = gp.evaluate(gp.data_layout(datasets, bcs), theta)
        try:
            model = gp.assemble(datasets, bcs, theta)
        except IllConditionedModelError:
            model = None
        want = reference_assembled(datasets, bcs, theta)
        if model is not None:
            assert same_bits(model.K, want)
        assert same_bits(K, reference_covariance(
            gp.order_entries(datasets, bcs), theta))

    @settings(max_examples=100, deadline=None)
    @given(rows=entry_lists(), cols=st.none() | entry_lists(),
           theta=thetas(ell=log_uniform(-323.0, -30.0)))
    def test_tiny_length_scale_non_finite_pattern(self, rows, cols, theta):
        got = gp.evaluate(gp.Layout(rows, cols), theta)
        want = reference_covariance(rows, theta, cols)
        assert same_bits(got, want)
        n_bad = int(np.sum(~np.isfinite(want)))
        if n_bad:
            with pytest.raises(NonFiniteCovarianceError,
                               match=f"{n_bad} of "):
                gp.check_finite(got)

    @settings(max_examples=50, deadline=None)
    @given(data=data_and_bcs(),
           theta=thetas(ell=log_uniform(-323.0, -30.0)))
    def test_tiny_length_scale_assembly_names_count(self, data, theta):
        datasets, bcs = data
        want = reference_assembled(datasets, bcs, theta)
        n_bad = int(np.sum(~np.isfinite(want)))
        if n_bad:
            with pytest.raises(NonFiniteCovarianceError,
                               match=f": {n_bad} of "):
                gp.assemble(datasets, bcs, theta)

    def test_sign_fold_keeps_nan_bits(self):
        """Odd-degree terms at negative differences (w-phi, w-V) at a tiny
        length scale: the reference's NaNs carry the sign bit that a
        multiplication by -1.0 keeps and a negation would flip."""
        rows = [gp.Points(QuantityKind.DEFLECTION, np.array([0.2, 0.7])),
                gp.Points(QuantityKind.ROTATION, np.array([0.5])),
                gp.Points(QuantityKind.SHEAR, np.array([0.1, 0.9]))]
        cols = [gp.Points(QuantityKind.ROTATION, np.array([0.9, 0.3])),
                gp.Points(QuantityKind.DEFLECTION, np.array([0.6]))]
        theta = Theta(sigma_s2=1.0, ell=1e-300, EI=1.0, kGA=3.0)
        for c in (None, cols):
            want = reference_covariance(rows, theta, c)
            assert np.isnan(want).any()
            assert same_bits(gp.evaluate(gp.Layout(rows, c), theta), want)

    def test_identify_layout_matches_block_loop(self):
        """The identify benchmark's n = 25 layout (w, phi and q sensors
        physics-placed on a 31-point grid, w and M BCs at both ends: 556
        table entries over 38 distances), bit for bit the block loop's
        K at 200 thetas with ell in [1e-3, 1e3], and at 40 with a tiny ell,
        inf and NaN entries with the reference's sign bits included."""
        layout = gp.data_layout(*identify_scenario())
        assert layout.shape == (25, 25)
        rng = np.random.default_rng(15)
        non_finite = {"inf": 0, "nan": 0}
        for i in range(240):
            ell = 10.0 ** (rng.uniform(-3.0, 3.0) if i < 200
                           else rng.uniform(-300.0, -20.0))
            theta = Theta(sigma_s2=10.0 ** rng.uniform(-3.0, 3.0), ell=ell,
                          EI=10.0 ** rng.uniform(-2.0, 2.0),
                          kGA=10.0 ** rng.uniform(-2.0, 2.0))
            want = reference_covariance(list(layout.rows), theta)
            assert same_bits(gp.evaluate(layout, theta), want), theta
            non_finite["inf"] += int(np.isinf(want).sum())
            non_finite["nan"] += int(np.isnan(want).sum())
        assert non_finite["inf"] > 0 and non_finite["nan"] > 0

    def test_layout_reused_across_thetas(self):
        datasets = [w_dataset(np.linspace(0.1, 0.9, 5), sigma=0.01),
                    Dataset(kind=QuantityKind.STRAIN, x=[0.3, 0.6],
                            y=[0.0, 0.0], z=[0.05, -0.05], sigma_n=1e-3,
                            label="eps")]
        bcs = [support_bc(), BoundaryCondition(kind=QuantityKind.MOMENT,
                                               x=[0.0, 1.0])]
        layout = gp.data_layout(datasets, bcs)
        for theta in (THETA, Theta(sigma_s2=0.2, ell=0.7, EI=3.0, kGA=0.5)):
            a = gp.factorize(layout, theta)
            b = gp.assemble(datasets, bcs, theta)
            assert same_bits(a.K, b.K) and same_bits(a.chol, b.chol)

    def test_empty_entries(self):
        empty = [gp.Points(QuantityKind.ROTATION, np.zeros(0))]
        assert gp.covariance(empty, THETA).shape == (0, 0)
        model = gp.assemble([w_dataset([0.3, 0.6], sigma=0.01)], [], THETA)
        assert gp.evaluate(gp.Layout(empty, model.entries),
                           THETA).shape == (0, 2)
        pred = gp.predict(model, QuantityKind.ROTATION, np.zeros(0))
        assert pred.mean.shape == pred.var.shape == (0,)

    def test_strain_without_depths_rejected(self):
        with pytest.raises(ValueError, match="requires z"):
            gp.Layout([gp.Points(QuantityKind.STRAIN, np.array([0.5]))])
