"""Tests for experiment scaffolding: scenarios, seeds and sweep plumbing."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from timopigp import beam as beam_mod
from timopigp import cli, experiments, kernels, mcmc
from timopigp.beam import NoiseSpec
from timopigp.data import Dataset
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
        beam = scenario_beam(r)
        assert 3.0 * beam.EI_true / (beam.L**2 * beam.kGA_true) == \
            pytest.approx(r, rel=1e-12)

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

    # sha256 of each dataset's x, y, z, sigma_n, label and learn_noise at
    # r = 0.3, on sensor_set's physics-placed w and phi sites there.
    PINNED = {
        "w+phi": (dict(snr=100.0, seed=21), "ac584b2e5b1d1176f7ef1b6be7b95cb7"
                  "979da679653f9d0fcebb61c3f574fd84"),
        "w+phi, ndp 3": (dict(snr=20.0, seed=5, ndp=3), "735191c0a67eb1685d9"
                         "2635e606eddcd93a5a1225fb2a6c2d41191a3777ada93"),
        "phi": (dict(snr=20.0, seed=7), "66f795bfded835ff8ddf24bf3826d83c11c"
                "d37913ed2d8364f801f9b66442d7e")}

    @pytest.mark.parametrize("case", list(PINNED))
    def test_pinned_bytes(self, case):
        kwargs, digest = self.PINNED[case]
        w = [0.1, 0.2, 0.3, 0.4, 0.6, 0.7, 0.9] if "w" in case else None
        phi = [0.0, 0.2, 0.43333333333333335, 0.5, 0.7, 0.7666666666666666,
               1.0]
        h = hashlib.sha256()
        for ds in synth_identification_data(scenario_beam(0.3), w, phi,
                                            **kwargs):
            h.update(ds.x.tobytes() + ds.y.tobytes())
            h.update(b"-" if ds.z is None else ds.z.tobytes())
            h.update(np.float64(ds.sigma_n).tobytes())
            h.update(f"{ds.label},{ds.learn_noise};".encode())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("w,phi", [(None, None), ([], None),
                                       (None, []), ([], np.array([]))],
                             ids=["none", "w-empty", "phi-empty", "empty"])
    def test_no_locations_named(self, w, phi):
        with pytest.raises(ValueError, match="needs w or phi locations"):
            synth_identification_data(scenario_beam(1.0), w, phi, 20.0,
                                      seed=1)

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


    @pytest.mark.parametrize("kind", [
        QuantityKind.DEFLECTION, QuantityKind.ROTATION, QuantityKind.STRAIN,
        QuantityKind.MOMENT, QuantityKind.SHEAR, QuantityKind.LOAD])
    def test_theta0_gain_is_the_prior_variance(self, kind):
        """sigma_s2 starts at var(y) / (k(x, x) / sigma_s2) of the first
        deflection dataset, or else the first dataset, of any kind: a
        strain's k at its first depth."""
        beam = scenario_beam(1.0)     # a = EI / kGA = 1/3; ell0 = L/4
        z = [0.05, -0.03, 0.02] if kind is QuantityKind.STRAIN else None
        ref = beam_mod.synthesize_dataset(beam, kind, [0.3, 0.5, 0.7],
                                          NoiseSpec(snr=20.0, seed=1), z=z)
        theta0 = default_theta0([ref], beam, stiffness_priors(beam, {}))
        unit = Theta(sigma_s2=1.0, ell=theta0.ell, EI=theta0.EI,
                     kGA=theta0.kGA)
        depth = None if z is None else z[0]
        gain = float(kernels.kernel(kind, kind, 0.0, 0.0, unit, z=depth,
                                    z_prime=depth))
        assert np.var(ref.y) / theta0.sigma_s2 == \
            pytest.approx(gain, rel=1e-12)

    def test_theta0_strain_on_the_neutral_axis_is_not_de_scaled(self):
        """A strain reference whose first depth is 0 has prior variance 0
        there: sigma_s2 starts at var(y), not at a division by zero."""
        beam = scenario_beam(1.0)
        ref = beam_mod.synthesize_dataset(
            beam, QuantityKind.STRAIN, [0.3, 0.5, 0.7],
            NoiseSpec(snr=20.0, seed=1), z=[0.0, 0.05, -0.05])
        theta0 = default_theta0([ref], beam, stiffness_priors(beam, {}))
        assert theta0.sigma_s2 == np.var(ref.y)

    def test_chain_does_not_depend_on_dataset_order(self):
        """identify on the datasets in reverse order writes the same
        chain: its parameters follow the block order."""
        beam = scenario_beam(1.0)
        datasets = synth_identification_data(beam, [0.25, 0.5, 0.75],
                                             [0.1, 0.9], snr=20.0, seed=3)
        cfg = McmcConfig(n_total=200, n_b=50, n_t=2, seed=5)
        chains = [experiments.identify(order, support_bcs(beam), beam, cfg)
                  for order in (datasets, datasets[::-1])]
        assert chains[1].param_names == chains[0].param_names
        assert chains[1].draws.tobytes() == chains[0].draws.tobytes()

    def test_chain_does_not_depend_on_same_kind_order(self):
        """Two w datasets in either order write the same chain: the
        datasets of one kind follow their labels."""
        beam = scenario_beam(1.0)
        w1, w2 = (beam_mod.synthesize_dataset(
            beam, QuantityKind.DEFLECTION, np.array(x),
            NoiseSpec(snr=20.0, seed=seed), label=label)
            for x, seed, label in (([0.2, 0.5, 0.8], 1, "w1"),
                                   ([0.3, 0.6], 2, "w2")))
        experiments.set_noise([w1, w2], {}, {})
        cfg = McmcConfig(n_total=200, n_b=50, n_t=2, seed=5)
        chains = [experiments.identify(order, support_bcs(beam), beam, cfg)
                  for order in ([w1, w2], [w2, w1])]
        assert chains[0].param_names[-2:] == ["sigma_n:w1", "sigma_n:w2"]
        assert chains[1].param_names == chains[0].param_names
        assert chains[1].draws.tobytes() == chains[0].draws.tobytes()


class TestNoiseRule:
    """``experiments.set_noise`` gives the held level and the learned
    flag that README states for each kind, sigma_n and learn_noise."""

    Y = [0.1, -0.3, 0.2]
    GIVEN = 0.02
    # (kind, sigma_n given) -> (level, learned when learn_noise is absent)
    RULE = {("w", False): (0.05 * np.std(Y), True),
            ("phi", False): (0.05 * np.std(Y), True),
            ("q", False): (experiments.LOAD_NOISE_FACTOR * 0.3, False),
            ("w", True): (GIVEN, False),
            ("phi", True): (GIVEN, False),
            ("q", True): (GIVEN, False)}

    @pytest.mark.parametrize("learn", [None, True, False],
                             ids=["absent", "true", "false"])
    @pytest.mark.parametrize("kind,given", list(RULE))
    def test_level_and_flag(self, kind, given, learn):
        ds = Dataset(kind=QuantityKind(kind), x=[0.2, 0.5, 0.8], y=self.Y,
                     label="d")
        experiments.set_noise([ds], {"d": self.GIVEN} if given else {},
                              {} if learn is None else {"d": learn})
        level, learned = self.RULE[kind, given]
        assert ds.sigma_n == pytest.approx(level, rel=1e-15)
        assert ds.learn_noise is (learned if learn is None else learn)

    def test_own_level_is_kept(self):
        """A study dataset carries its simulated level: learned from it."""
        ds = Dataset(kind=QuantityKind.DEFLECTION, x=[0.2, 0.5],
                     y=[0.1, 0.2], sigma_n=0.004, label="w")
        experiments.set_noise([ds], {}, {})
        assert ds.sigma_n == 0.004 and ds.learn_noise


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


def _cli(*args):
    """The command line in a process of its own on one BLAS thread, with
    a RuntimeWarning an error, as it is in this suite's own process: its
    stderr, after an exit 0, which is asserted."""
    path = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           "-m", "timopigp.cli", *map(str, args)], env=env,
                          stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stderr


# The place benchmark's grids, (candidates, sensors, entropy map), and the
# sha256 of each file `place` writes on them at the benchmark's prior of
# seed 17: every criterion and kind, w BCs at both ends.
# Each kind's map is one file, copied for every criterion.
_MAP_PINNED = {
    "w": "8176e109c733b463a29a04d309e49f196a87fcf31f63f40731d427be2e0a1bfa",
    "phi": "e3cdb89f10cbc9af663cca72527ed312dece539ad10735c9782d683ae640377e",
}
PLACE_PINNED = {
    (121, 7, False): {"placement.json": "b0a0b7f763764a98ca70a4f53f176030"
                                        "efe669bcb7f25215a21ed54fc1e94947"},
    (12, 4, True): {"placement.json": "d39ccfaa7afaf57855c5989202d054b6"
                                      "f7c140992765fa2c56aa266c05a99ead",
                    **{f"entropy_map_{crit}_{kind}.csv": digest
                       for crit in ("physics", "entropy", "mi")
                       for kind, digest in _MAP_PINNED.items()}},
}


@pytest.mark.parametrize("grid", sorted(PLACE_PINNED), ids=str)
def test_place_pinned(tmp_path, grid):
    """`place` on the benchmark's grids, pinned to its bytes.

    It runs in a process of its own on one BLAS thread: the MI greedy's
    121 x 121 inverse rounds otherwise on more threads.  Like
    ``test_chain_pinned``, the digests also depend on the numpy and BLAS
    builds, so a new toolchain may move them.
    """
    n, k, with_map = grid
    rng = np.random.default_rng(17)
    ell = 0.125 * float(np.exp(rng.uniform(np.log(0.9), np.log(1.1))))
    sigma_s2 = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
    cfg = {"version": 1, "seed": 17,
           "beam": {"L": 1.0, "EI": 1.0, "kGA": 3.0, "q0": 1.0},
           "bcs": [{"kind": "w", "locations": [0.0, 1.0]}],
           "placement": {"n_candidates": n, "n_sensors": k,
                         "kinds": ["w", "phi"],
                         "criteria": ["physics", "entropy", "mi"],
                         "ell": ell, "sigma_s2": sigma_s2,
                         "entropy_map": with_map}}
    config = tmp_path / "place.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    _cli("place", "--config", config, "--out", out)
    written = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in out.iterdir() if path.name != "manifest.json"}
    assert written == PLACE_PINNED[grid]


@pytest.mark.parametrize("n", [31, 121])
def test_place_mi_full_budget(tmp_path, n):
    """`place` with every candidate placed by MI, where rounding leaves
    the downdated precision indefinite before the last picks: exit 0
    without a RuntimeWarning, every candidate placed once and every step
    entropy finite."""
    cfg = {"version": 1, "seed": 1,
           "beam": {"L": 1.0, "EI": 1.0, "kGA": 3.0, "q0": 1.0},
           "bcs": [{"kind": "w", "locations": [0.0, 1.0]}],
           "placement": {"n_candidates": n, "n_sensors": n,
                         "kinds": ["w"], "criteria": ["mi"]}}
    config = tmp_path / "place.json"
    config.write_text(json.dumps(cfg))
    _cli("place", "--config", config, "--out", tmp_path / "out")
    [result] = json.loads((tmp_path / "out" / "placement.json").read_text())
    assert sorted(s["x"] for s in result["selected"]) == \
        np.linspace(0.0, 1.0, n).tolist()
    assert np.all(np.isfinite(result["step_entropies"]))


def test_place_set_entropy_overflow_is_null(tmp_path):
    """`place` of all 230 w candidates at ell = 0.1 without BCs: the MI
    set, conditioned in pick order without the physics pivots, overflows
    its chain-rule entropy.  Every criterion's picks and step entropies
    are written, MI's set entropy as null with one stderr line naming the
    criterion and the kind, and the command exits 0."""
    cfg = {"version": 1, "seed": 1,
           "beam": {"L": 1.0, "EI": 1.0, "kGA": 3.0, "q0": 1.0},
           "placement": {"n_candidates": 230, "n_sensors": 230, "ell": 0.1,
                         "kinds": ["w"],
                         "criteria": ["physics", "entropy", "mi"]}}
    config = tmp_path / "place.json"
    config.write_text(json.dumps(cfg))
    stderr = _cli("place", "--config", config, "--out", tmp_path / "out")
    results = json.loads((tmp_path / "out" / "placement.json").read_text())
    assert [(r["criterion"], r["set_entropy"] is None) for r in results] \
        == [("physics", False), ("entropy", False), ("mi", True)]
    for r in results:
        assert len(r["selected"]) == 230
        assert np.all(np.isfinite(r["step_entropies"]))
    assert stderr.splitlines() == [
        "warning: placement mi w: the set's entropy overflowed; "
        "set_entropy is null"]


# The identify benchmark's scenario (r = 0.3, SNR 100, 7 physics-placed w
# and phi sensors, an informed load at the w sites, w and M BCs at both
# ends) with a short chain, and the sha256 of each prediction `predict`
# writes from it.
PREDICT_CONFIG = {
    "version": 1, "seed": 23,
    "beam": {"L": 1.0, "EI": 1.0, "kGA": 10.0, "q0": 1.0},
    "bcs": [{"kind": "w", "locations": [0.0, 1.0]},
            {"kind": "M", "locations": [0.0, 1.0]}],
    "datasets": [
        {"kind": "w", "label": "w", "snr": 100,
         "placement": {"criterion": "physics", "n_sensors": 7, "kind": "w"}},
        {"kind": "phi", "label": "phi", "snr": 100,
         "placement": {"criterion": "physics", "n_sensors": 7,
                       "kind": "phi"}},
        {"kind": "q", "label": "q", "sigma_n": 1e-6,
         "placement": {"criterion": "physics", "n_sensors": 7, "kind": "w"}}],
    "priors": {"EI": {"lo_factor": 0.5, "hi_factor": 1.5},
               "kGA": {"lo_factor": 0.5, "hi_factor": 1.5}},
    "mcmc": {"n_total": 600, "n_b": 200, "n_t": 5},
    "predict": {"max_draws": 20, "n_grid": 101, "kinds": ["w", "M", "V"]},
}
PREDICT_PINNED = {
    "pred_w.csv": "fc4449833a23e5d1e8d22132be2e8c95"
                  "3781792765c12282f286d7da27d014fb",
    "pred_M.csv": "34dc9fb6efba5a07b56a3054c5a457e1"
                  "85d1cf7657c0baf475cceea11759b786",
    "pred_V.csv": "acc0916057f891d5c2f97a4588c27be8"
                  "e75f2029c1205cb8bfbd6a41a7fa6660",
}


def test_predict_pinned(tmp_path):
    """`simulate`, `identify` and `predict` in processes of their own on
    one BLAS thread, as ``test_place_pinned`` runs `place`; the
    predictions are pinned to their bytes, which, like the other pinned
    digests, also depend on the numpy and BLAS builds."""
    config = tmp_path / "identify.json"
    config.write_text(json.dumps(PREDICT_CONFIG))
    out = tmp_path / "out"
    data = [out / f"data_{label}.csv" for label in ("w", "phi", "q")]
    for args in (["simulate"], ["identify", "--data", *data],
                 ["predict", "--chain", out / "chain.csv", "--data", *data]):
        _cli(*args, "--config", config, "--out", out)
    written = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("pred_w.csv", "pred_M.csv", "pred_V.csv")}
    assert written == PREDICT_PINNED


class TestSweeps:
    def test_failed_replications_are_recorded(self, monkeypatch):
        """A replication whose chain raises is recorded with its error,
        without aborting the sweep."""
        def fail(*args, **kwargs):
            raise StuckChainError(10)

        monkeypatch.setattr(experiments, "default_theta0", fail)
        res = experiments._run_sweep_part([SweepTask(
            beam_r=1.0, snr=20.0, ndp=1, seed=1, chain_seed=2,
            mcmc=McmcConfig(n_total=10, n_b=5, n_t=1))])
        assert res == [{"error": repr(StuckChainError(10))}]

    def test_unexpected_error_fails_one_replication(self, monkeypatch):
        """An error that lock-step does not expect, raised by one chain,
        fails that replication alone: the part's chains run again one by
        one, and the others' results are their lock-step results."""
        tasks = [SweepTask(beam_r=1.0, snr=20.0, ndp=1, seed=seed,
                           chain_seed=seed + 10,
                           mcmc=McmcConfig(n_total=60, n_b=20, n_t=2))
                 for seed in range(3)]
        want = experiments._run_sweep_part(tasks)
        real = mcmc._walk

        def walk(x0, cfg, scales):
            if cfg.seed == 11:
                raise RuntimeError("boom")
            return real(x0, cfg, scales)
        monkeypatch.setattr(mcmc, "_walk", walk)
        got = experiments._run_sweep_part(tasks)
        assert got[1] == {"error": repr(RuntimeError("boom"))}
        assert "error" not in want[1]
        assert [got[0], got[2]] == [want[0], want[2]]

    def test_aggregate_handles_failures(self):
        agg = experiments._aggregate([
            {"EI_mean": 1.0, "EI_std": 0.1, "kGA_mean": 1.0, "kGA_std": 0.2},
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

    def test_worker_count_follows_affinity(self, monkeypatch):
        """One allowed CPU of eight (taskset -c 0, a cpuset) is one
        worker; the environment still overrides it, and without an
        affinity call the CPU count sizes the pool."""
        monkeypatch.delenv(experiments.THREADS_ENV, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        assert experiments.worker_count() == 1
        monkeypatch.setenv(experiments.THREADS_ENV, "3")
        assert experiments.worker_count() == 3
        monkeypatch.delenv(experiments.THREADS_ENV)
        monkeypatch.delattr(os, "sched_getaffinity")
        assert experiments.worker_count() == 8


# A study in a process of its own, its argv[1] a JSON (study, values,
# settings): its aggregates and failures as JSON pairs on stdout.
STUDY_CHILD = """
import json, sys
from timopigp import experiments
from timopigp.mcmc import McmcConfig
study, values, settings = json.loads(sys.argv[1])
points = experiments.sweep_study(study, values, 3, 7, McmcConfig(
    n_total=300, n_b=100, n_t=5), **settings)
print(json.dumps([[value, points[value]] for value in values]))
"""

STUDY_CASES = {"noise": ([10, 50], {"r": 1.0}),
               "rigidity": ([0.01, 1.0], {"snr": 20.0}),
               "ndp": ([1, 2], {"snr": 20.0})}


def reference_study(study, values, settings) -> list:
    """STUDY_CHILD's pairs, one ``run_chain`` per replication, as the
    study ran its replications before they stepped together."""
    spec = experiments.STUDIES[study]
    out = []
    for p, value in enumerate(values):
        setting = {"beam_r": settings.get("r", 1.0),
                   "snr": settings.get("snr", 10.0), "ndp": 1,
                   spec.field: value}
        beam = scenario_beam(setting["beam_r"])
        sites = [sensor_set(beam, kind,
                            PlacementCriterion.PHYSICS_INFORMED_ENTROPY)
                 for kind in (QuantityKind.DEFLECTION, QuantityKind.ROTATION)]
        results, failures = [], []
        for rep in range(3):
            seed = replication_seed(7, spec.offset + p, rep)
            datasets = synth_identification_data(
                beam, *sites, snr=setting["snr"], seed=seed,
                ndp=setting["ndp"])
            priors = stiffness_priors(beam, {})
            try:
                chain = mcmc.run_chain(
                    datasets, support_bcs(beam), priors,
                    McmcConfig(n_total=300, n_b=100, n_t=5,
                               seed=seed ^ 0x9E37),
                    default_theta0(datasets, beam, priors))
            except Exception as exc:
                results.append({"error": repr(exc)})
                failures.append({"replication": rep, "seed": seed,
                                 "error": repr(exc)})
                continue
            stats = mcmc.summarize(chain)
            results.append({f"{name}_{field}": stats[name][field] / truth
                            for name, truth in (("EI", beam.EI_true),
                                                ("kGA", beam.kGA_true))
                            for field in ("mean", "std")})
        out.append([value, dict(experiments._aggregate(results),
                                failures=failures)])
    return json.loads(json.dumps(out))


def study_in_child(threads, study, values, settings) -> list:
    """STUDY_CHILD under ``TIMO_PIGP_THREADS=threads`` and ``-X dev``,
    with a ResourceWarning an error and the wait bounded."""
    path = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path,
               TIMO_PIGP_THREADS=str(threads))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::ResourceWarning",
         "-W", "error::RuntimeWarning", "-c", STUDY_CHILD,
         json.dumps([study, values, settings])],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return json.loads(proc.stdout)


@pytest.mark.parametrize("study", list(STUDY_CASES))
def test_study_bytes_do_not_depend_on_workers(study):
    """A study's aggregates and failures with one worker (each group of
    replications at one set of sites in lock-step) and with two (parts
    of 2 and 1 in lock-step) are the per-replication run_chain
    reference's, float for float."""
    values, settings = STUDY_CASES[study]
    want = reference_study(study, values, settings)
    for threads in (1, 2):
        assert study_in_child(threads, study, values, settings) == want


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
