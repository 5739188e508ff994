"""Tests for priors, the Metropolis-Hastings core and chain summaries."""

from collections import Counter

import numpy as np
import pytest
from scipy.linalg import LinAlgError, cho_solve, cholesky

from timopigp import beam, gp, mcmc
from timopigp.beam import BeamConfig, NoiseSpec
from timopigp.data import BoundaryCondition, Dataset
from timopigp.errors import StuckChainError
from timopigp.gp import Theta
from timopigp.mcmc import (LogFlat, McmcConfig, ThetaCodec,
                           UniformBounded, log_posterior,
                           random_walk_metropolis, run_chain, summarize)
from timopigp.quantities import QuantityKind

CFG = BeamConfig(L=1.0, EI_true=1.0, kGA_true=3.0, q0=1.0)
BOXES = {"EI": UniformBounded(0.5, 1.5), "kGA": UniformBounded(1.5, 4.5)}


def tiny_problem(seed=0, sigma=0.05):
    x = np.array([0.25, 0.5, 0.75])
    truth = beam.analytic_field(CFG, QuantityKind.DEFLECTION, x)
    rng = np.random.default_rng(seed)
    ds = Dataset(kind=QuantityKind.DEFLECTION, x=x,
                 y=truth * (1.0 + sigma * rng.standard_normal(3)),
                 sigma_n=sigma * np.max(np.abs(truth)), label="w")
    bcs = [BoundaryCondition(kind=QuantityKind.DEFLECTION,
                             x=np.array([0.0, 1.0]))]
    return [ds], bcs


def score(theta, datasets, bcs, priors, counts, layout=None):
    """``log_posterior`` of theta, its vector and its priors' densities
    built as a chain builds them: ``LogFlat`` where ``priors`` has none."""
    codec = ThetaCodec.of(theta)
    if layout is None:
        layout = gp.data_layout(datasets, bcs)
    table = [priors.get(name, LogFlat()).log_density for name in codec.names]
    return log_posterior(layout, theta, ThetaCodec.vector(theta).tolist(),
                         table, counts)


class TestPriors:
    def test_log_flat(self):
        """Flat in the log coordinate it is sampled in: 0 at every
        positive value."""
        for value in (1.0, np.e, 1e-300, 1e300):
            assert LogFlat().log_density(value) == 0.0
        assert LogFlat().log_density(0.0) == -np.inf
        assert LogFlat().log_density(-3.0) == -np.inf

    def test_uniform_bounded(self):
        u = UniformBounded(0.5, 1.5)
        assert u.log_density(1.0) == pytest.approx(-np.log(1.0))
        assert u.log_density(0.4) == -np.inf
        assert u.log_density(1.6) == -np.inf
        u2 = UniformBounded(0.0, 4.0)
        assert u2.log_density(2.0) == pytest.approx(-np.log(4.0))

    def test_uniform_bounded_validation(self):
        with pytest.raises(ValueError):
            UniformBounded(1.0, 1.0)
        with pytest.raises(ValueError):
            UniformBounded(2.0, 1.0)

    def test_each_prior_names_its_coordinate(self):
        assert LogFlat().log_coordinate is True
        assert UniformBounded(0.5, 1.5).log_coordinate is False

    def test_log_prior_sums(self):
        """LogFlat's 0 for sigma_s2 and ell plus the boxes'."""
        datasets, bcs = tiny_problem()
        theta = Theta(sigma_s2=2.0, ell=0.5, EI=1.0, kGA=3.0)
        want = -np.log(1.0) - np.log(3.0)
        lml, _ = gp.log_marginal_likelihood(gp.data_layout(datasets, bcs),
                                            theta)
        lp = score(theta, datasets, bcs, BOXES, Counter()) - lml
        assert lp == pytest.approx(want)

    def test_log_prior_outside_support(self):
        datasets, bcs = tiny_problem()
        theta = Theta(sigma_s2=1.0, ell=0.5, EI=2.0, kGA=3.0)
        counts = Counter()
        assert score(theta, datasets, bcs, BOXES, counts) == -np.inf
        assert counts == {"prior_support": 1}


class TestLogPosterior:
    def test_flat_priors_reduce_to_marginal_likelihood(self):
        """Each prior is flat in its own coordinate: LogFlat's density is
        1, and so is that of boxes one unit wide."""
        datasets, bcs = tiny_problem()
        theta = Theta(sigma_s2=1.0, ell=1.0, EI=1.0, kGA=3.0)
        priors = {"EI": UniformBounded(0.5, 1.5),
                  "kGA": UniformBounded(2.5, 3.5)}
        model = gp.assemble(datasets, bcs, theta)
        want, level = gp.log_marginal_likelihood(
            gp.data_layout(datasets, bcs), theta)
        assert level == model.jitter
        counts = Counter()
        assert score(theta, datasets, bcs, priors, counts) == \
            pytest.approx(want, rel=1e-12)
        assert counts == {level: 1}

    def test_target_is_evidence_plus_box_constants(self):
        """At a fixed theta with a learned noise level, the target is the
        log evidence plus the two boxes' constants: no Jacobian term."""
        datasets, bcs = tiny_problem()
        datasets[0].learn_noise = True
        theta = Theta(sigma_s2=0.02, ell=0.3, EI=1.1, kGA=2.7,
                      sigma_n={"w": 0.004})
        lml, _ = gp.log_marginal_likelihood(gp.data_layout(datasets, bcs),
                                            theta)
        assert score(theta, datasets, bcs, BOXES, Counter()) == \
            lml + (-np.log(1.0) - np.log(3.0))

    def test_non_finite_covariance_is_zero_density(self):
        datasets, bcs = tiny_problem()
        theta = Theta(sigma_s2=1.0, ell=1e-200, EI=1.0, kGA=3.0,
                      sigma_n={})
        counts = Counter()
        assert score(theta, datasets, bcs, BOXES, counts) == -np.inf
        assert counts == {"non_finite_covariance": 1}

    def test_outside_prior_support(self):
        datasets, bcs = tiny_problem()
        theta = Theta(sigma_s2=0.01, ell=0.3, EI=3.0, kGA=3.0)
        assert score(theta, datasets, bcs, BOXES, Counter()) == -np.inf

    def test_prebuilt_layout_gives_the_same_value(self):
        """One layout scores many thetas as a fresh one scores each."""
        datasets, bcs = tiny_problem()
        layout = gp.data_layout(datasets, bcs)
        for theta in (Theta(sigma_s2=0.01, ell=0.3, EI=1.0, kGA=3.0),
                      Theta(sigma_s2=1.0, ell=1e-200, EI=1.0, kGA=3.0)):
            assert score(theta, datasets, bcs, BOXES, Counter(), layout) == \
                score(theta, datasets, bcs, BOXES, Counter())


def chain_of(draws, names):
    return mcmc.PosteriorChain(param_names=names, draws=np.asarray(draws),
                               acceptance_rate=0.3)


class TestThetasFromDraws:
    def test_columns_map_to_fields_and_noise(self):
        names = ["sigma_s2", "ell", "EI", "kGA", "sigma_n:w"]
        draws = np.array([[0.5, 0.2, 1.1, 2.9, 0.01],
                          [0.6, 0.3, 1.2, 3.1, 0.02]])
        thetas = chain_of(draws, names).thetas
        assert thetas[1] == Theta(sigma_s2=0.6, ell=0.3, EI=1.2, kGA=3.1,
                                  sigma_n={"w": 0.02})
        assert len(thetas) == 2

    def test_invalid_draw_rejected(self):
        chain = chain_of([[0.5, 0.2, -1.0, 3.0]],
                         ["sigma_s2", "ell", "EI", "kGA"])
        with pytest.raises(ValueError, match="EI"):
            chain.thetas


class TestThetaCodec:
    def test_columns_read_by_name_in_any_order(self):
        names = ["EI", "sigma_n:w", "ell", "kGA", "sigma_s2", "sigma_n:phi"]
        codec = ThetaCodec(names)
        theta = Theta(sigma_s2=0.6, ell=0.3, EI=1.2, kGA=3.1,
                      sigma_n={"w": 0.02, "phi": 0.05})
        assert codec.theta([1.2, 0.02, 0.3, 3.1, 0.6, 0.05]) == theta
        assert codec.theta([1.2, 0.02, 0.3, 3.1, 0.6, 0.05]).sigma_n == \
            theta.sigma_n

    def test_of_a_theta_lists_fields_then_noise(self):
        theta = Theta(sigma_s2=0.6, ell=0.3, EI=1.2, kGA=3.1,
                      sigma_n={"w": 0.02})
        codec = ThetaCodec.of(theta)
        assert codec.names == ["sigma_s2", "ell", "EI", "kGA", "sigma_n:w"]
        assert ThetaCodec.vector(theta).tolist() == [0.6, 0.3, 1.2, 3.1,
                                                     0.02]
        assert codec.theta(ThetaCodec.vector(theta).tolist()) == theta

    @pytest.mark.parametrize("names,message", [
        (["sigma_s2", "ell", "EI"], "no 'kGA' column"),
        (["sigma_s2", "ell", "EI", "kGA", "foo"],
         "column 'foo' is not a parameter"),
        (["sigma_s2", "ell", "EI", "kGA", "EI"], "column 'EI' appears twice"),
    ])
    def test_bad_names_are_named(self, names, message):
        with pytest.raises(ValueError, match=message):
            ThetaCodec(names)

    def test_chain_thetas_are_its_draws(self):
        names = ["sigma_n:w", "EI", "sigma_s2", "kGA", "ell"]
        chain = chain_of([[0.01, 1.1, 0.5, 2.9, 0.2],
                          [0.02, 1.2, 0.6, 3.1, 0.3]], names)
        assert chain.thetas == [
            Theta(sigma_s2=0.5, ell=0.2, EI=1.1, kGA=2.9, sigma_n={"w": 0.01}),
            Theta(sigma_s2=0.6, ell=0.3, EI=1.2, kGA=3.1, sigma_n={"w": 0.02})]
        assert len(chain) == 2


class TestRandomWalkMetropolis:
    def test_standard_gaussian_moments(self):
        """Long chain on log N(0,1) reproduces its first two moments."""
        cfg = McmcConfig(n_total=250000, n_b=2000, n_t=5, seed=42)
        draws, acc = random_walk_metropolis(
            lambda x: -0.5 * float(x[0] ** 2), np.array([0.0]), cfg,
            scales=[2.4])
        x = draws[:, 0]
        # Effective sample size should comfortably exceed 1e4 draws.
        rho1 = np.corrcoef(x[:-1], x[1:])[0, 1]
        ess = x.size * (1 - rho1) / (1 + rho1)
        assert ess > 1e4
        assert rho1 < 0.3
        assert abs(np.mean(x)) < 0.05
        assert abs(np.var(x) - 1.0) < 0.1
        assert 0.1 < acc < 0.9

    def test_small_steps_accept_almost_always(self):
        cfg = McmcConfig(n_total=2000, n_b=0, n_t=1, seed=1)
        _, acc = random_walk_metropolis(
            lambda x: -0.5 * float(x[0] ** 2), np.array([0.3]), cfg,
            scales=[1e-8])
        assert acc > 0.999

    def test_detailed_balance_two_halves(self):
        """Transitions A->B and B->A between the half-lines balance."""
        cfg = McmcConfig(n_total=60000, n_b=0, n_t=1, seed=9)
        draws, _ = random_walk_metropolis(
            lambda x: -0.5 * float(x[0] ** 2), np.array([0.1]), cfg,
            scales=[1.5])
        x = draws[:, 0]
        ab = np.sum((x[:-1] < 0) & (x[1:] >= 0))
        ba = np.sum((x[:-1] >= 0) & (x[1:] < 0))
        assert abs(ab - ba) <= max(3.0 * np.sqrt(ab + ba), 5.0)

    def test_reproducible_bitwise(self):
        cfg = McmcConfig(n_total=500, n_b=100, n_t=2, seed=7)
        target = lambda x: -0.5 * float(np.sum(x**2))
        a, acc_a = random_walk_metropolis(target, np.zeros(2), cfg,
                                          scales=[0.1, 0.1])
        b, acc_b = random_walk_metropolis(target, np.zeros(2), cfg,
                                          scales=[0.1, 0.1])
        np.testing.assert_array_equal(a, b)
        assert acc_a == acc_b

    def test_stuck_chain_raises(self):
        def spike(x):
            return 0.0 if abs(float(x[0])) < 1e-300 else -np.inf

        cfg = McmcConfig(n_total=2000, n_b=0, n_t=1, seed=3)
        with pytest.raises(StuckChainError):
            random_walk_metropolis(spike, np.array([0.0]), cfg,
                                   scales=[0.1])

    def test_bad_start_rejected(self):
        cfg = McmcConfig(n_total=100, n_b=0, n_t=1, seed=0)
        with pytest.raises(ValueError):
            random_walk_metropolis(lambda x: -np.inf, np.array([0.0]), cfg,
                                   scales=[0.1])

    def test_zero_density_proposal_never_accepted(self, monkeypatch):
        # random() may return exactly 0, and log(0) <= -inf - lt holds.
        class ZeroUniform:
            def standard_normal(self, d):
                return np.ones(d)

            def random(self):
                return 0.0

        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed=None: ZeroUniform())
        cfg = McmcConfig(n_total=20, n_b=0, n_t=1, seed=0)
        draws, acc = random_walk_metropolis(
            lambda x: 0.0 if x[0] == 0.0 else -np.inf, np.array([0.0]), cfg,
            scales=[0.1])
        assert acc == 0.0
        assert np.all(draws == 0.0)


class TestRunChain:
    def test_tiny_beam_chain(self):
        datasets, bcs = tiny_problem()
        priors = {"EI": UniformBounded(0.5, 1.5),
                  "kGA": UniformBounded(1.5, 4.5)}
        theta0 = Theta(sigma_s2=0.01, ell=0.25, EI=1.0, kGA=3.0)
        cfg = McmcConfig(n_total=600, n_b=200, n_t=4, seed=11)
        chain = run_chain(datasets, bcs, priors, cfg, theta0)
        assert len(chain) == (600 - 200 + 3) // 4
        assert chain.draws.shape == (len(chain), len(chain.param_names))
        # Bounded priors are never violated and positivity always holds.
        names = chain.param_names
        assert np.all(chain.draws > 0.0)
        ei = chain.draws[:, names.index("EI")]
        kga = chain.draws[:, names.index("kGA")]
        assert np.all((0.5 <= ei) & (ei <= 1.5))
        assert np.all((1.5 <= kga) & (kga <= 4.5))

    def test_learned_noise_parameter_present(self):
        datasets, bcs = tiny_problem()
        datasets[0].learn_noise = True
        priors = {"EI": UniformBounded(0.5, 1.5),
                  "kGA": UniformBounded(1.5, 4.5)}
        theta0 = Theta(sigma_s2=0.01, ell=0.25, EI=1.0, kGA=3.0,
                       sigma_n={"w": 1e-3})
        cfg = McmcConfig(n_total=300, n_b=100, n_t=2, seed=5)
        chain = run_chain(datasets, bcs, priors, cfg, theta0)
        assert "sigma_n:w" in chain.param_names
        col = chain.draws[:, chain.param_names.index("sigma_n:w")]
        assert np.all(col > 0.0)

    def test_reproducible(self):
        datasets, bcs = tiny_problem()
        priors = {"EI": UniformBounded(0.5, 1.5),
                  "kGA": UniformBounded(1.5, 4.5)}
        theta0 = Theta(sigma_s2=0.01, ell=0.25, EI=1.0, kGA=3.0)
        cfg = McmcConfig(n_total=400, n_b=100, n_t=2, seed=13)
        a = run_chain(datasets, bcs, priors, cfg, theta0)
        b = run_chain(datasets, bcs, priors, cfg, theta0)
        np.testing.assert_array_equal(a.draws, b.draws)
        assert a.acceptance_rate == b.acceptance_rate

    def test_nonpositive_start_rejected(self):
        datasets, bcs = tiny_problem()
        theta0 = Theta(sigma_s2=1.0, ell=1.0, EI=1.0, kGA=1.0)
        cfg = McmcConfig(n_total=100, n_b=10, n_t=1, seed=0)
        # Theta itself enforces positivity, so drive the failure through a
        # zero learned-noise start instead.
        datasets[0].learn_noise = True
        theta0 = Theta(sigma_s2=1.0, ell=1.0, EI=1.0, kGA=3.0,
                       sigma_n={"w": 0.0})
        with pytest.raises(ValueError, match="must start positive"):
            run_chain(datasets, bcs, BOXES, cfg, theta0)

    @pytest.mark.parametrize("missing", ["EI", "kGA"])
    def test_missing_box_is_named(self, missing):
        datasets, bcs = tiny_problem()
        theta0 = Theta(sigma_s2=0.01, ell=0.25, EI=1.0, kGA=3.0)
        cfg = McmcConfig(n_total=100, n_b=10, n_t=1, seed=0)
        priors = {name: box for name, box in BOXES.items()
                  if name != missing}
        with pytest.raises(ValueError, match=f"no prior box for {missing}$"):
            run_chain(datasets, bcs, priors, cfg, theta0)

    def test_prior_key_naming_no_parameter_is_refused(self):
        """A prior for a name the chain does not sample is an error that
        names it; a chain that learns w's noise takes its prior."""
        datasets, bcs = tiny_problem()
        theta0 = Theta(sigma_s2=0.01, ell=0.25, EI=1.0, kGA=3.0)
        cfg = McmcConfig(n_total=100, n_b=10, n_t=1, seed=0)
        for key in ("EII", "sigma_n:w"):
            priors = dict(BOXES, **{key: UniformBounded(5.0, 6.0)})
            with pytest.raises(ValueError,
                               match=f"priors key '{key}' names no parameter"):
                run_chain(datasets, bcs, priors, cfg, theta0)
        datasets[0].learn_noise = True
        theta0 = Theta(sigma_s2=0.01, ell=0.25, EI=1.0, kGA=3.0,
                       sigma_n={"w": 0.01})
        chain = run_chain(datasets, bcs, dict(BOXES, **{"sigma_n:w":
                                                        LogFlat()}),
                          cfg, theta0)
        assert chain.draws.tobytes() == \
            run_chain(datasets, bcs, BOXES, cfg, theta0).draws.tobytes()


def slow_target(datasets, bcs, priors, names, counts):
    """The chain's log target spelled out, one name and one step at a time.

    Per-name priors, each in its sampling coordinate (``LogFlat`` is 0 on
    the positive values), then the dense K plus noise, scipy's
    ``cholesky`` up the jitter ladder and ``cho_solve`` for the evidence.
    ``counts`` gets what the chain counts.
    """
    entries = gp.order_entries(datasets, bcs)
    y = np.concatenate([e.y for e in entries])
    is_log = np.array([n in ("sigma_s2", "ell") or n.startswith("sigma_n:")
                       for n in names])

    def target(s):
        counts["evaluations"] += 1
        vec = s.copy()
        # As in run_chain: an overflow to inf is counted, not warned of.
        with np.errstate(over="ignore"):
            vec[is_log] = np.exp(s[is_log])
        if np.any(vec <= 0):
            counts["prior_support"] += 1
            return -np.inf
        kw = {"sigma_n": {}}
        for name, value in zip(names, vec):
            if name.startswith("sigma_n:"):
                kw["sigma_n"][name.split(":", 1)[1]] = float(value)
            else:
                kw[name] = float(value)
        try:
            theta = Theta(**kw)
        except ValueError:
            counts["invalid_theta"] += 1
            return -np.inf
        lp = 0.0
        for name, value in zip(names, vec):
            lp += priors[name].log_density(value) if name in priors else 0.0
        if not np.isfinite(lp):
            counts["prior_support"] += 1
            return -np.inf
        K = gp.covariance(entries, theta)
        start = 0
        for e in entries:
            idx = np.arange(start, start + len(e.x))
            start += len(e.x)
            sig = theta.sigma_n.get(e.label, e.sigma_n) if e.learn_noise \
                else e.sigma_n
            if sig > 0:
                K[idx, idx] += sig**2
        if not np.all(np.isfinite(K)):
            counts["non_finite_covariance"] += 1
            return -np.inf
        diag = np.maximum(np.diag(K), 1e-300)
        for level in (0.0,) + gp.JITTER_LADDER:
            try:
                L = cholesky(K if level == 0.0 else K + np.diag(level * diag),
                             lower=True)
            except LinAlgError:
                continue
            counts[repr(level)] += 1
            break
        else:
            counts["ill_conditioned"] += 1
            return -np.inf
        log_det = 2.0 * float(np.sum(np.log(np.diag(L))))
        lml = float(-0.5 * y @ cho_solve((L, True), y) - 0.5 * log_det
                    - 0.5 * y.size * np.log(2.0 * np.pi))
        return lml + lp

    return target, is_log


def lean_scenario(scales):
    """(datasets, bcs, priors, cfg, theta0) of a 400-step chain with w and
    M BCs, a learned noise level and the given proposal scales."""
    datasets, bcs = tiny_problem()
    datasets[0].learn_noise = True
    bcs.append(BoundaryCondition(kind=QuantityKind.MOMENT,
                                 x=np.array([0.0, 1.0])))
    priors = {"EI": UniformBounded(0.8, 1.2),
              "kGA": UniformBounded(2.5, 3.5)}
    theta0 = Theta(sigma_s2=0.01, ell=0.25, EI=1.0, kGA=3.0,
                   sigma_n={"w": 1e-3})
    cfg = McmcConfig(n_total=400, n_b=100, n_t=1, seed=3,
                     proposal_scale=scales)
    return datasets, bcs, priors, cfg, theta0


class TestLeanStep:
    """``run_chain``'s step against the slow target, bit for bit."""

    @pytest.mark.parametrize("scales,hits", [
        (0.1, ["prior_support"]),
        ({"ell": 40.0}, ["prior_support", "non_finite_covariance",
                         "1e-12"]),
        ({"sigma_s2": 400.0}, ["prior_support", "invalid_theta"])])
    def test_chain_equals_slow_path(self, monkeypatch, scales, hits):
        datasets, bcs, priors, cfg, theta0 = lean_scenario(scales)
        seen = {}
        real = mcmc.random_walk_metropolis

        def spy(log_target, x0, cfg, scales):
            seen.update(x0=x0.copy(), scales=scales.copy())
            return real(log_target, x0, cfg, scales=scales)

        monkeypatch.setattr(mcmc, "random_walk_metropolis", spy)
        chain = run_chain(datasets, bcs, priors, cfg, theta0)

        counts = Counter()
        target, is_log = slow_target(datasets, bcs, priors,
                                     chain.param_names, counts)
        draws_s, acc = real(target, seen["x0"], cfg, scales=seen["scales"])
        draws = draws_s.copy()
        draws[:, is_log] = np.exp(draws_s[:, is_log])
        assert chain.acceptance_rate == acc > 0.0
        assert chain.draws.tobytes() == draws.tobytes()

        got = chain.target_counts
        assert got["evaluations"] == counts["evaluations"]
        assert got["rejected"] == {c: counts[c] for c in mcmc.REJECTIONS}
        assert got["jitter"] == {level: counts[level]
                                 for level in got["jitter"]}
        for hit in hits:
            assert counts[hit] > 0, hit

    @pytest.mark.parametrize("scales", [
        0.1, {"ell": 40.0}, {"sigma_s2": 400.0}])
    def test_chain_keeps_the_traced_names(self, monkeypatch, scales):
        """The chain scores each theta through the functions the
        benchmark's tracer wraps by name: ``mcmc.log_posterior`` once per
        evaluation that reaches the prior table (one per Theta built that
        Theta accepts), ``gp.log_marginal_likelihood`` once per evaluation
        counted at a jitter level or as a K that cannot be factorized, and
        ``gp.evaluate`` once per log marginal likelihood."""
        calls = Counter()

        def counted(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        counted(mcmc, "log_posterior")
        counted(gp, "log_marginal_likelihood")
        counted(gp, "evaluate")
        counted(ThetaCodec, "theta")
        got = run_chain(*lean_scenario(scales)).target_counts
        rejected = got["rejected"]
        assert calls["log_marginal_likelihood"] == calls["evaluate"] == (
            sum(got["jitter"].values()) + rejected["non_finite_covariance"]
            + rejected["ill_conditioned"]) > 0
        assert calls["log_posterior"] == \
            calls["theta"] - rejected["invalid_theta"]
        # Proposals off the stiffness box stop at the prior table.
        assert calls["log_posterior"] > calls["log_marginal_likelihood"]

    @pytest.mark.filterwarnings("error")
    def test_overflowing_proposal_is_silent(self):
        """A log-scale proposal that overflows exp is rejected as
        invalid_theta without a RuntimeWarning."""
        chain = run_chain(*lean_scenario({"sigma_s2": 400.0}))
        assert chain.target_counts["rejected"]["invalid_theta"] > 0

    @pytest.mark.filterwarnings("error")
    def test_overflowing_noise_variance_is_non_finite(self):
        """A learned noise level past 1.3e154, whose square overflows, is
        a K with inf entries, counted as non_finite_covariance; the chain
        used to raise OverflowError.  In lock-step it is the same."""
        run = lean_scenario({"sigma_n:w": 400.0})
        chain = run_chain(*run)
        assert chain.target_counts["rejected"]["non_finite_covariance"] > 0
        assert same_chain(mcmc.run_lockstep([run] * 3)[1], chain)

    def test_ill_conditioned_proposals_are_counted(self, monkeypatch):
        """A proposal whose K fails every rung of the jitter ladder has
        zero density, counted as ill_conditioned, and the chain runs on.
        Here the Cholesky fails wherever the correlation of the first two
        rows, w at x = 0.25 and 0.5, is above the start's, as it is for a
        longer length scale."""
        datasets, bcs = tiny_problem()
        theta0 = Theta(sigma_s2=0.01, ell=0.25, EI=1.0, kGA=3.0)

        def correlation(K):
            return K[0, 1] / np.sqrt(K[0, 0] * K[1, 1])
        top = correlation(gp.assemble(datasets, bcs, theta0).K)
        real = gp.dpotrf

        def dpotrf(K, lower=0, clean=0):
            if correlation(K) > top:
                return K, 1
            return real(K, lower=lower, clean=clean)
        monkeypatch.setattr(gp, "dpotrf", dpotrf)
        cfg = McmcConfig(n_total=300, n_b=100, n_t=2, seed=11)
        chain = run_chain(datasets, bcs, BOXES, cfg, theta0)
        counts = chain.target_counts
        assert counts["rejected"]["ill_conditioned"] > 0
        assert sum(counts["rejected"].values()) + \
            sum(counts["jitter"].values()) == cfg.n_total + 1
        assert len(chain) == (cfg.n_total - cfg.n_b) // cfg.n_t

    def test_counts_add_up_to_evaluations(self):
        datasets, bcs = tiny_problem()
        priors = {"EI": UniformBounded(0.5, 1.5),
                  "kGA": UniformBounded(1.5, 4.5)}
        theta0 = Theta(sigma_s2=0.01, ell=0.25, EI=1.0, kGA=3.0)
        cfg = McmcConfig(n_total=300, n_b=100, n_t=2, seed=11)
        counts = run_chain(datasets, bcs, priors, cfg, theta0).target_counts
        assert counts["evaluations"] == cfg.n_total + 1
        assert set(counts["rejected"]) == set(mcmc.REJECTIONS)
        assert set(counts["jitter"]) == {
            repr(level) for level in (0.0,) + gp.JITTER_LADDER}
        assert sum(counts["rejected"].values()) + \
            sum(counts["jitter"].values()) == cfg.n_total + 1
        assert all(isinstance(v, int) for v in counts["rejected"].values())


def lockstep_runs(b):
    """b chains at the sites of ``lean_scenario``: each with its own data,
    noise, prior boxes, start, seed, burn-in, keep stride, length and
    proposal scales, the scales cycling through ``TestLeanStep``'s."""
    runs = []
    for k in range(b):
        datasets, bcs = tiny_problem(seed=k, sigma=0.05 * (1 + k % 3))
        datasets[0].learn_noise = True
        bcs.append(BoundaryCondition(kind=QuantityKind.MOMENT,
                                     x=np.array([0.0, 1.0])))
        priors = {"EI": UniformBounded(0.8 - 0.02 * k, 1.2 + 0.02 * k),
                  "kGA": UniformBounded(2.5, 3.5 + 0.1 * k)}
        theta0 = Theta(sigma_s2=0.01 * (1 + 0.1 * k), ell=0.25, EI=1.0,
                       kGA=3.0, sigma_n={"w": 1e-3})
        scales = (0.1, {"ell": 40.0}, {"sigma_s2": 400.0})[k % 3]
        cfg = McmcConfig(n_total=300 + 20 * k, n_b=80 + 10 * k,
                         n_t=1 + k % 3, seed=k, proposal_scale=scales)
        runs.append((datasets, bcs, priors, cfg, theta0))
    return runs


def same_chain(a, b):
    return (a.param_names == b.param_names
            and a.draws.tobytes() == b.draws.tobytes()
            and a.acceptance_rate == b.acceptance_rate
            and a.target_counts == b.target_counts)


class TestLockstep:
    """``run_lockstep`` gives each chain its ``run_chain`` bit for bit."""

    @pytest.mark.parametrize("b", [3, 4, 7])
    def test_each_chain_is_its_run_chain(self, monkeypatch, b):
        """Proposals are rejected for every cause: off the prior support,
        an overflowing log-scale step (invalid_theta), a K with inf or
        NaN, and a K that a Cholesky stub fails up the whole jitter
        ladder wherever the correlation of its first two rows, w at
        x = 0.25 and 0.5, is above every start's."""
        runs = lockstep_runs(b)

        def correlation(K):
            return K[0, 1] / np.sqrt(K[0, 0] * K[1, 1])
        top = max(correlation(gp.assemble(datasets, bcs, theta0).K)
                  for datasets, bcs, _, _, theta0 in runs)
        real = gp.dpotrf

        def dpotrf(K, lower=0, clean=0):
            if correlation(K) > top:
                return K, 1
            return real(K, lower=lower, clean=clean)
        monkeypatch.setattr(gp, "dpotrf", dpotrf)

        got = mcmc.run_lockstep(runs)
        hits = Counter()
        for run, chain in zip(runs, got):
            assert same_chain(chain, run_chain(*run))
            hits.update({cause: n for cause, n in
                         chain.target_counts["rejected"].items() if n})
            hits.update({level: n for level, n in
                         chain.target_counts["jitter"].items() if n})
        assert set(hits) >= {*mcmc.REJECTIONS, "0.0"}
        assert any(chain.acceptance_rate > 0.0 for chain in got)

    def test_failed_chains_fail_alone(self):
        """A chain whose start has zero density and a chain that never
        accepts fail with run_chain's exception text; the others' draws
        are their run_chain's and the same as in a group without them."""
        runs = lockstep_runs(4)
        datasets, bcs, priors, cfg, theta0 = runs[1]
        runs[1] = (datasets, bcs, priors, cfg,
                   Theta(theta0.sigma_s2, theta0.ell, 2.0, theta0.kGA,
                         sigma_n=theta0.sigma_n))
        datasets, bcs, priors, cfg, theta0 = runs[2]
        runs[2] = (datasets, bcs, priors,
                   McmcConfig(n_total=1100, n_b=50, n_t=1, seed=2,
                              proposal_scale=1e3), theta0)
        got = mcmc.run_lockstep(runs)
        for k, cls in ((1, ValueError), (2, StuckChainError)):
            assert type(got[k]) is cls
            with pytest.raises(cls) as raised:
                run_chain(*runs[k])
            assert str(got[k]) == str(raised.value)
        assert "initial point has zero posterior density" in str(got[1])
        assert "no proposal accepted in 1000 steps" in str(got[2])
        alone = mcmc.run_lockstep([runs[0], runs[3]])
        for k, chain in zip((0, 3), alone):
            assert same_chain(got[k], run_chain(*runs[k]))
            assert same_chain(got[k], chain)

    @pytest.mark.parametrize("per", [2, 3])
    def test_consecutive_groups_are_each_run_chain(self, monkeypatch, per):
        """With room in the stack for ``per`` chains' terms, five chains
        are stepped in consecutive groups (the last of per = 2 a chain
        alone), each still its run_chain."""
        runs = lockstep_runs(5)
        datasets, bcs = runs[0][:2]
        terms = gp.data_layout(datasets, bcs).term_index.size
        monkeypatch.setattr(mcmc, "STACK_ELEMENTS", per * terms + terms // 2)
        evaluate, sizes = gp.evaluate, []

        def spy(layout, theta):
            if not isinstance(theta, Theta):
                sizes.append(len(theta))
            return evaluate(layout, theta)
        monkeypatch.setattr(gp, "evaluate", spy)
        got = mcmc.run_lockstep(runs)
        assert max(sizes, default=1) == per
        for run, chain in zip(runs, got):
            assert same_chain(chain, run_chain(*run))

    def test_chains_at_other_sites_refused(self):
        runs = lockstep_runs(3)
        datasets, bcs, priors, cfg, theta0 = runs[1]
        moved = [Dataset(kind=d.kind, x=d.x + 0.05, y=d.y,
                         sigma_n=d.sigma_n, learn_noise=True, label=d.label)
                 for d in datasets]
        runs[1] = (moved, bcs, priors, cfg, theta0)
        with pytest.raises(ValueError, match="not at the layout's sites"):
            mcmc.run_lockstep(runs)


class TestSummarize:
    def _chain(self, draws, names=("EI",)):
        draws = np.asarray(draws, float)
        return mcmc.PosteriorChain(param_names=list(names), draws=draws,
                                   acceptance_rate=0.3)

    def test_constant_chain(self):
        s = summarize(self._chain([[2.0]] * 10))
        assert s["EI"]["mean"] == pytest.approx(2.0)
        assert s["EI"]["std"] == 0.0
        assert s["EI"]["quantiles"]["q50"] == pytest.approx(2.0)

    def test_two_values(self):
        s = summarize(self._chain([[1.0], [3.0]]))
        assert s["EI"]["mean"] == pytest.approx(2.0)
        assert s["EI"]["std"] == pytest.approx(1.0)

    def test_quantile_keys(self):
        s = summarize(self._chain([[v] for v in np.linspace(0, 1, 101)]))
        assert set(s["EI"]["quantiles"]) == {"q05", "q25", "q50", "q75",
                                             "q95"}
        assert s["EI"]["quantiles"]["q05"] == pytest.approx(0.05, abs=1e-9)
        assert s["EI"]["quantiles"]["q95"] == pytest.approx(0.95, abs=1e-9)

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            summarize(self._chain(np.zeros((0, 1))))


class TestMcmcConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            McmcConfig(n_total=100, n_b=100, n_t=1)
        with pytest.raises(ValueError):
            McmcConfig(n_total=100, n_b=-1, n_t=1)
        with pytest.raises(ValueError):
            McmcConfig(n_total=100, n_b=10, n_t=0)
        McmcConfig(n_total=100, n_b=0, n_t=1)

    def test_proposal_scale_keys_name_parameters(self):
        McmcConfig(proposal_scale={"ell": 0.2, "EI": 0.05, "sigma_n:w": 0.3})
        for key in ("EII", "sigma_n", "noise:w"):
            with pytest.raises(ValueError,
                               match=f"key '{key}' is not a parameter"):
                McmcConfig(proposal_scale={key: 0.2})
