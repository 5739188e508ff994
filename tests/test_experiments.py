"""Tests for experiment scaffolding: scenarios, seeds and sweep plumbing."""

import hashlib

import numpy as np
import pytest

from timopigp import experiments, kernels, mcmc
from timopigp.errors import StuckChainError
from timopigp.experiments import (SweepTask, default_theta0, deflection_bcs,
                                  replication_seed, scenario_beam,
                                  sensor_set, stiffness_priors, support_bcs,
                                  synth_identification_data)
from timopigp.gp import Theta
from timopigp.mcmc import McmcConfig, UniformBounded
from timopigp.placement import PlacementCriterion
from timopigp.quantities import QuantityKind


class TestScenarioBeam:
    @pytest.mark.parametrize("r", [1e-3, 0.1, 1.0, 100.0])
    def test_requested_rigidity(self, r):
        assert scenario_beam(r).rigidity == pytest.approx(r, rel=1e-12)

    def test_boundary_conditions(self):
        beam = scenario_beam(1.0)
        bcs = deflection_bcs(beam)
        assert len(bcs) == 1
        np.testing.assert_array_equal(bcs[0].x, [0.0, beam.L])
        full = support_bcs(beam)
        assert [bc.kind for bc in full] == [QuantityKind.DEFLECTION,
                                            QuantityKind.MOMENT]


class TestReplicationSeed:
    def test_deterministic(self):
        assert replication_seed(42, 3, 7) == replication_seed(42, 3, 7)

    def test_distinct_across_cells(self):
        seeds = {replication_seed(42, p, rep)
                 for p in range(4) for rep in range(25)}
        assert len(seeds) == 100

    def test_root_seed_matters(self):
        assert replication_seed(1, 0, 0) != replication_seed(2, 0, 0)


class TestSynthData:
    def test_labels_and_informed_load(self):
        beam = scenario_beam(1.0)
        w_locs = np.array([0.25, 0.5, 0.75])
        phi_locs = np.array([0.1, 0.9])
        datasets = synth_identification_data(beam, w_locs, phi_locs,
                                             snr=20.0, seed=3)
        labels = {ds.label: ds for ds in datasets}
        assert set(labels) == {"w", "phi", "q"}
        assert labels["w"].learn_noise and labels["phi"].learn_noise
        assert not labels["q"].learn_noise
        np.testing.assert_array_equal(labels["q"].x, w_locs)
        np.testing.assert_allclose(labels["q"].y, beam.q0)
        assert labels["q"].sigma_n == pytest.approx(
            experiments.LOAD_NOISE_FACTOR * beam.q0)

    def test_ndp_tiles_locations(self):
        beam = scenario_beam(1.0)
        datasets = synth_identification_data(beam, [0.3, 0.6], None,
                                             snr=20.0, seed=3, ndp=3)
        w = next(ds for ds in datasets if ds.label == "w")
        np.testing.assert_array_equal(w.x, [0.3, 0.6] * 3)

    def test_deterministic(self):
        beam = scenario_beam(1.0)
        a = synth_identification_data(beam, [0.3, 0.6], [0.5], 20.0, seed=9)
        b = synth_identification_data(beam, [0.3, 0.6], [0.5], 20.0, seed=9)
        for da, db in zip(a, b):
            np.testing.assert_array_equal(da.y, db.y)


class TestPriorsAndStart:
    def test_priors_scale_with_truth(self):
        beam = scenario_beam(0.01)  # kGA = 300
        priors = stiffness_priors(beam, {})
        assert isinstance(priors["EI"], UniformBounded)
        assert priors["kGA"].lo == pytest.approx(0.5 * beam.kGA_true)
        assert priors["kGA"].hi == pytest.approx(1.5 * beam.kGA_true)

    def test_theta0_midpoints_and_noise(self):
        beam = scenario_beam(1.0)
        datasets = synth_identification_data(beam, [0.3, 0.5, 0.7], None,
                                             snr=20.0, seed=1)
        priors = stiffness_priors(beam, {})
        theta0 = default_theta0(datasets, beam, priors)
        assert theta0.EI == pytest.approx(beam.EI_true)
        assert theta0.kGA == pytest.approx(beam.kGA_true)
        assert theta0.ell == pytest.approx(beam.L / 4.0)
        assert set(theta0.sigma_n) == {"w"}
        assert theta0.sigma_n["w"] > 0


    @pytest.mark.parametrize("kind", [QuantityKind.DEFLECTION,
                                      QuantityKind.ROTATION])
    def test_theta0_gain_is_the_prior_variance(self, kind):
        """sigma_s2 starts at var(y) / (k(x, x) / sigma_s2) of the first
        deflection dataset, or else the first dataset: here w or phi."""
        beam = scenario_beam(1.0)     # a = EI / kGA = 1/3; ell0 = L/4
        locs = [0.3, 0.5, 0.7]
        w, phi = (locs, None) if kind is QuantityKind.DEFLECTION \
            else (None, locs)
        datasets = synth_identification_data(beam, w, phi, snr=20.0, seed=1)
        assert datasets[0].kind is kind
        theta0 = default_theta0(datasets, beam, stiffness_priors(beam, {}))
        unit = Theta(sigma_s2=1.0, ell=theta0.ell, EI=theta0.EI,
                     kGA=theta0.kGA)
        gain = float(kernels.kernel(kind, kind, 0.0, 0.0, unit))
        assert np.var(datasets[0].y) / theta0.sigma_s2 == \
            pytest.approx(gain, rel=1e-12)


class TestSensorSet:
    def test_size_and_range(self):
        beam = scenario_beam(1.0)
        xs = sensor_set(beam, QuantityKind.DEFLECTION,
                        PlacementCriterion.PHYSICS_INFORMED_ENTROPY)
        assert xs.size == 7
        assert np.all((0.0 <= xs) & (xs <= beam.L))
        assert np.all(np.diff(xs) > 0)

    # Default physics sets on 31 candidates, as candidate indices (x * 30).
    # The greedy breaks near-exact ties, so any reordering of the
    # covariance arithmetic would move these.
    PINNED = {
        1e-3: ([3, 7, 11, 15, 19, 23, 27], [0, 8, 11, 15, 19, 22, 30]),
        1e-2: ([3, 7, 13, 16, 19, 24, 27], [0, 9, 12, 15, 19, 22, 30]),
        0.3: ([3, 6, 9, 12, 18, 21, 27], [0, 6, 13, 15, 21, 23, 30]),
        1.0: ([2, 9, 12, 18, 20, 24, 27], [0, 6, 13, 15, 22, 24, 30]),
        100.0: ([3, 6, 12, 15, 21, 24, 27], [0, 6, 13, 15, 22, 24, 30]),
    }

    @pytest.mark.parametrize("r", sorted(PINNED))
    def test_physics_sets_pinned(self, r):
        beam = scenario_beam(r)
        for kind, want in zip((QuantityKind.DEFLECTION, QuantityKind.ROTATION),
                              self.PINNED[r]):
            xs = sensor_set(beam, kind,
                            PlacementCriterion.PHYSICS_INFORMED_ENTROPY)
            assert [int(round(x * 30)) for x in xs] == want


def test_chain_pinned():
    """A short chain at the acceptance 4 scenario, pinned to its bytes.

    The covariance arithmetic feeds every accept/reject decision, so any
    reordering of it moves the draws; the hash is that of the block-loop
    assembly that preceded the layout engine.  The bytes also depend on
    the numpy and LAPACK builds (exp and Cholesky rounding), so a new
    toolchain may move them without any change to the code.
    """
    beam = scenario_beam(0.3)
    w_locs, phi_locs = (
        sensor_set(beam, kind, PlacementCriterion.PHYSICS_INFORMED_ENTROPY)
        for kind in (QuantityKind.DEFLECTION, QuantityKind.ROTATION))
    datasets = synth_identification_data(beam, w_locs, phi_locs, snr=100.0,
                                         seed=21)
    chain = experiments.identify(datasets, support_bcs(beam), beam,
                                 McmcConfig(n_total=300, n_b=100, n_t=1,
                                            seed=101))
    assert chain.draws.shape == (200, 6)
    assert hashlib.sha256(chain.draws.tobytes()).hexdigest() == (
        "0b688f0a402e9c1ee2b8672e8094cb293becb5260e901405ecbfdfbacc3227f2")


class TestSweeps:
    def test_failed_replications_are_recorded(self, monkeypatch):
        """A replication whose identification raises is recorded with its
        error, without aborting the sweep."""
        def fail(*args, **kwargs):
            raise StuckChainError(10)

        monkeypatch.setattr(experiments, "identify", fail)
        res = experiments._run_sweep_task(SweepTask(
            beam_r=1.0, snr=20.0, ndp=1, seed=1, chain_seed=2,
            mcmc=McmcConfig(n_total=10, n_b=5, n_t=1)))
        assert res == {"error": repr(StuckChainError(10))}

    def test_aggregate_handles_failures(self):
        agg = experiments._aggregate([
            {"EI_mean": 1.0, "EI_std": 0.1, "kGA_mean": 1.0, "kGA_std": 0.2,
             "acceptance": 0.3},
            {"error": "boom"}])
        assert agg["n_reps"] == 1
        assert agg["n_failed"] == 1
        assert agg["EI_mean"] == pytest.approx(1.0)
        assert agg["kGA_post_std"] == pytest.approx(0.2)

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv(experiments.THREADS_ENV, "3")
        assert experiments.worker_count() == 3
        monkeypatch.setenv(experiments.THREADS_ENV, "0")
        assert experiments.worker_count() == 1


class TestEffectiveSampleSize:
    def test_iid_near_n(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4000)
        ess = mcmc.effective_sample_size(x)
        assert 0.7 * x.size < ess < 1.3 * x.size

    def test_correlated_much_smaller(self):
        rng = np.random.default_rng(1)
        x = np.cumsum(rng.standard_normal(4000)) * 0.05
        assert mcmc.effective_sample_size(x) < 400

    def test_constant_series(self):
        assert mcmc.effective_sample_size(np.ones(100)) == 100.0
