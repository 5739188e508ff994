"""Acceptance suite: ten end-to-end criteria, one pass/fail line each.

Every criterion's test prints ``ACCEPTANCE <n> <title>: PASS|FAIL`` before
asserting so that the run log carries a one-line verdict per criterion (run
with ``-s`` or check captured output).  Criteria that involve sampling use
frozen seeds and are fully deterministic.
"""

import dataclasses
import itertools
import json
import math
import time

import numpy as np
import pytest
import sympy as sp

from timopigp import beam as beam_mod
from timopigp import cli, experiments, gp, kernels, mcmc, placement
from timopigp.beam import BeamConfig
from timopigp.data import Dataset
from timopigp.gp import Theta
from timopigp.mcmc import McmcConfig, UniformBounded
from timopigp.placement import (PlacementCriterion, PlacementProblem,
                                greedy_place, set_entropy)
from timopigp.quantities import BLOCK_ORDER, QuantityKind

ALL_KINDS = list(BLOCK_ORDER)


def report(num, title, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE {num} {title}: {status}{suffix}")
    return ok


# ---------------------------------------------------------------------------
# 1. Kernel correctness against independent oracles.

def _symbolic_pair_table():
    x, xp, s2, ell, EI, kGA = sp.symbols("x xp s2 ell EI kGA", positive=True)
    se = s2 * sp.exp(-((x - xp) ** 2) / (2 * ell**2))
    a = EI / kGA
    ops = {
        QuantityKind.DEFLECTION: lambda e, v: e - a * sp.diff(e, v, 2),
        QuantityKind.ROTATION: lambda e, v: sp.diff(e, v, 1)
        - a * sp.diff(e, v, 3),
        QuantityKind.STRAIN: lambda e, v: -sp.diff(e, v, 2)
        + a * sp.diff(e, v, 4),
        QuantityKind.MOMENT: lambda e, v: EI * sp.diff(e, v, 2),
        QuantityKind.SHEAR: lambda e, v: EI * sp.diff(e, v, 3),
        QuantityKind.LOAD: lambda e, v: EI * sp.diff(e, v, 4),
    }
    table = {}
    for i, oi in ops.items():
        for j, oj in ops.items():
            table[(i, j)] = sp.lambdify((x, xp, s2, ell, EI, kGA),
                                        oj(oi(se, x), xp), "numpy")
    return table


def test_acceptance_1_kernel_correctness():
    t0 = time.time()
    params = Theta(sigma_s2=1.7, ell=0.35, EI=1.3, kGA=2.1)
    rng = np.random.default_rng(2024)
    xs = rng.uniform(0.0, 1.0, 200)
    xps = rng.uniform(0.0, 1.0, 200)

    # All 25 derivative orders against Richardson-extrapolated central
    # differences of the next-lower closed-form order.
    h = 1e-4 * params.ell

    def central(m, n, step):
        if m > 0:
            return (kernels.se_derivative(m - 1, n, xs + step, xps, params)
                    - kernels.se_derivative(m - 1, n, xs - step, xps,
                                            params)) / (2.0 * step)
        return (kernels.se_derivative(m, n - 1, xs, xps + step, params)
                - kernels.se_derivative(m, n - 1, xs, xps - step,
                                        params)) / (2.0 * step)

    max_rel_d = 0.0
    for m in range(0, 5):
        for n in range(0, 5):
            got = kernels.se_derivative(m, n, xs, xps, params)
            if m == 0 and n == 0:
                fd = kernels.se_base(xs, xps, params)
            else:
                fd = (4.0 * central(m, n, h / 2) - central(m, n, h)) / 3.0
            scale = params.sigma_s2 / params.ell ** (m + n)
            max_rel_d = max(max_rel_d,
                            float(np.max(np.abs(got - fd)) / scale))

    # All 36 quantity pairs against the symbolic operator oracle.
    table = _symbolic_pair_table()
    max_rel_p = 0.0
    z, zp = 0.04, -0.03
    for i in ALL_KINDS:
        for j in ALL_KINDS:
            kw = {}
            if i is QuantityKind.STRAIN:
                kw["z"] = z
            if j is QuantityKind.STRAIN:
                kw["z_prime"] = zp
            got = kernels.kernel(i, j, xs, xps, params, **kw)
            want = np.asarray(table[(i, j)](
                xs, xps, params.sigma_s2, params.ell, params.EI,
                params.kGA), float)
            if i is QuantityKind.STRAIN:
                want = want * z
            if j is QuantityKind.STRAIN:
                want = want * zp
            scale = max(float(np.max(np.abs(want))), 1e-30)
            max_rel_p = max(max_rel_p,
                            float(np.max(np.abs(got - want)) / scale))

    elapsed = time.time() - t0
    ok = max_rel_d < 1e-6 and max_rel_p < 1e-6 and elapsed < 10.0
    assert report(1, "kernel correctness", ok,
                  f"derivative rel {max_rel_d:.2e}, pair rel {max_rel_p:.2e},"
                  f" {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Shear-rigid limit.

def _shear_rigid_kernel(i, j, x, xp, params, z=None, z_prime=None):
    """The Euler-Bernoulli kernel: the first term of each quantity's
    operator in ``kernels.OPERATORS``, the one without kGA."""
    coef = kernels._coefficients(params)
    (ci, pi, m), (cj, pj, n) = kernels.OPERATORS[i][0], kernels.OPERATORS[j][0]
    out = (coef[ci] * coef[cj]) * kernels.se_derivative(m, n, x, xp, params)
    return out * (z if pi else 1.0) * (z_prime if pj else 1.0)


def test_acceptance_2_shear_rigid_limit():
    t0 = time.time()
    L = 1.0
    params = Theta(sigma_s2=1.0, ell=0.2, EI=1.0, kGA=1e12 / L**2)
    xs = np.linspace(0.0, L, 21)
    worst = 0.0
    for i, j in [(QuantityKind.DEFLECTION, QuantityKind.DEFLECTION),
                 (QuantityKind.ROTATION, QuantityKind.ROTATION),
                 (QuantityKind.STRAIN, QuantityKind.STRAIN),
                 (QuantityKind.DEFLECTION, QuantityKind.ROTATION),
                 (QuantityKind.DEFLECTION, QuantityKind.STRAIN),
                 (QuantityKind.ROTATION, QuantityKind.STRAIN)]:
        kw = {}
        if i is QuantityKind.STRAIN:
            kw["z"] = 0.05
        if j is QuantityKind.STRAIN:
            kw["z_prime"] = 0.05
        timo = kernels.kernel(i, j, xs[:, None], xs[None, :], params, **kw)
        eb = _shear_rigid_kernel(i, j, xs[:, None], xs[None, :], params,
                                 **kw)
        worst = max(worst, float(np.max(np.abs(timo - eb))))
    elapsed = time.time() - t0
    ok = worst < 1e-6 * params.sigma_s2 and elapsed < 5.0
    assert report(2, "shear-rigid kernel limit", ok,
                  f"max gap {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. Field reconstruction from dense noiseless data.

def _nrmse(pred, truth):
    return float(np.sqrt(np.mean((pred - truth) ** 2))
                 / np.max(np.abs(truth)))


def _dense_reconstruction(with_bcs):
    beam = experiments.scenario_beam(1.0)
    theta = Theta(sigma_s2=1.0, ell=0.15, EI=beam.EI_true, kGA=beam.kGA_true)
    xd = np.linspace(0.0, beam.L, 27)[1:-1]
    datasets = [
        Dataset(kind=QuantityKind.DEFLECTION, x=xd,
                y=beam_mod.analytic_field(beam, QuantityKind.DEFLECTION, xd),
                sigma_n=0.0, label="w"),
        Dataset(kind=QuantityKind.LOAD, x=xd,
                y=np.full(xd.size, beam.q0), sigma_n=1e-6, label="q"),
    ]
    bcs = experiments.deflection_bcs(beam) if with_bcs else []
    model = gp.assemble(datasets, bcs, theta)
    xq = np.linspace(0.0, beam.L, 101)
    out = {}
    for kind in (QuantityKind.DEFLECTION, QuantityKind.MOMENT,
                 QuantityKind.SHEAR):
        pred = gp.predict(model, kind, xq)
        out[kind] = _nrmse(pred.mean, beam_mod.analytic_field(beam, kind, xq))
    return out


def test_acceptance_3_reconstruction_accuracy():
    t0 = time.time()
    with_bcs = _dense_reconstruction(True)
    without = _dense_reconstruction(False)
    elapsed = time.time() - t0
    ok = (all(v < 1e-3 for v in with_bcs.values())
          and without[QuantityKind.MOMENT] > with_bcs[QuantityKind.MOMENT]
          and elapsed < 30.0)
    detail = (f"w {with_bcs[QuantityKind.DEFLECTION]:.2e}, "
              f"M {with_bcs[QuantityKind.MOMENT]:.2e}, "
              f"V {with_bcs[QuantityKind.SHEAR]:.2e}, "
              f"M w/o BCs {without[QuantityKind.MOMENT]:.2e}, "
              f"{elapsed:.1f}s")
    assert report(3, "dense-data field reconstruction", ok, detail)


# ---------------------------------------------------------------------------
# 4. Stiffness identification with and without boundary conditions.

# Scenario in which the data can identify both stiffnesses: on the grid
# r in {1, 0.3, 0.1} x SNR in {5, 20, 100} it is the one point where both
# exact-physics relative standard deviations are <= IDENTIFIABLE_REL_SD.
IDENTIFICATION_R = 0.3
IDENTIFICATION_SNR = 100.0
IDENTIFIABLE_REL_SD = 0.1


def _identification_sensors(beam):
    w_locs = experiments.sensor_set(
        beam, QuantityKind.DEFLECTION,
        PlacementCriterion.PHYSICS_INFORMED_ENTROPY)
    phi_locs = experiments.sensor_set(
        beam, QuantityKind.ROTATION,
        PlacementCriterion.PHYSICS_INFORMED_ENTROPY)
    return w_locs, phi_locs


def _compliance_rel_sd(beam, w_locs, phi_locs, snr):
    """Relative Fisher standard deviations of 1/EI and 1/kGA.

    The closed-form w and phi are linear in the compliances c = (1/EI,
    1/kGA), so doubling a stiffness halves its compliance term and
    f(EI) - f(2 EI) = (c_EI / 2) df/dc_EI exactly.  With the white noise
    of ``synthesize_dataset`` (max|field| / snr) this gives the exact
    Fisher information in log-compliance for the parametric model with
    known load and supports: a lower bound on what any fit of these
    sensors can resolve.
    """
    rows = []
    for kind, x in ((QuantityKind.DEFLECTION, w_locs),
                    (QuantityKind.ROTATION, phi_locs)):
        f = beam_mod.analytic_field(beam, kind, x)
        d_ei = 2.0 * (f - beam_mod.analytic_field(
            dataclasses.replace(beam, EI_true=2.0 * beam.EI_true), kind, x))
        d_kga = 2.0 * (f - beam_mod.analytic_field(
            dataclasses.replace(beam, kGA_true=2.0 * beam.kGA_true), kind,
            x))
        sigma = beam_mod.field_max(beam, kind) / snr
        rows.append(np.column_stack([d_ei, d_kga]) / sigma)
    jac = np.vstack(rows)
    cov = np.linalg.inv(jac.T @ jac)
    return float(np.sqrt(cov[0, 0])), float(np.sqrt(cov[1, 1]))


def _identification_arm(bcs, beam, datasets, chain_seed):
    cfg = McmcConfig(n_total=25000, n_b=5000, n_t=10, seed=chain_seed)
    chain = experiments.identify(datasets, bcs, beam, cfg)
    stats = mcmc.summarize(chain)
    names = chain.param_names
    return {
        "EI_mean": stats["EI"]["mean"] / beam.EI_true,
        "EI_std": stats["EI"]["std"] / beam.EI_true,
        "kGA_mean": stats["kGA"]["mean"] / beam.kGA_true,
        "kGA_std": stats["kGA"]["std"] / beam.kGA_true,
        "EI_ess": mcmc.effective_sample_size(
            chain.draws[:, names.index("EI")]),
        "kGA_ess": mcmc.effective_sample_size(
            chain.draws[:, names.index("kGA")]),
    }


def test_acceptance_4_identifiability_precondition():
    """The precondition separates identified from unidentified scenarios.

    At r = 1 and SNR 20 shear carries 76 % of the midspan deflection and
    the 1/EI and 1/kGA columns are almost collinear (correlation -0.994):
    even the exact physics leaves 1/EI with a relative s.d. of about 0.79,
    so acceptance 4 must refuse to run there.
    """
    beam = experiments.scenario_beam(1.0)
    sd_ei, sd_kga = _compliance_rel_sd(beam, *_identification_sensors(beam),
                                       snr=20.0)
    assert sd_ei > IDENTIFIABLE_REL_SD
    assert sd_ei == pytest.approx(0.79, abs=0.01)
    assert sd_kga == pytest.approx(0.23, abs=0.01)


@pytest.mark.slow
def test_acceptance_4_stiffness_identification():
    """Boundary conditions sharpen Bayesian stiffness identification.

    With the support BCs the posterior means land near truth, and both
    stiffness marginals are tighter than without them.

    The clauses only test identification when the data can bound both
    stiffnesses, so the test first asserts that precondition with the
    exact physics (``_compliance_rel_sd``): both relative s.d.s of the
    compliances must be <= 0.1 at the test's own sensor sets.  The
    scenario r = 0.3 (shear fraction 0.49), SNR 100 meets it (0.070 and
    0.068).  The earlier scenario, r = 1 at SNR 20, does not: there 1/EI
    has a relative s.d. of 0.79 and 1/kGA of 0.23, correlated at -0.994,
    so nothing bounds EI from above.  Both arms' EI marginals were then
    the bounded-uniform prior box [0.5, 1.5] sliced by the compliance
    ridge: over chain seeds 101, 1, 2, 3 the with-BC EI was 1.03-1.13
    +/- 0.25-0.30 (the prior's own 1.0 +/- 0.29), with an EI ESS of 6-28
    per 2000 kept draws, the no-BC EI piled against the top edge, and a
    box widened to [0.2, 3.0] moved both arms to its top edge.  The EI
    clauses measured the prior there, not the BCs.
    """
    beam = experiments.scenario_beam(IDENTIFICATION_R)
    w_locs, phi_locs = _identification_sensors(beam)
    sd_ei, sd_kga = _compliance_rel_sd(beam, w_locs, phi_locs,
                                       IDENTIFICATION_SNR)
    precondition = (f"exact-physics rel sd 1/EI {sd_ei:.3f}, "
                    f"1/kGA {sd_kga:.3f}")
    if max(sd_ei, sd_kga) > IDENTIFIABLE_REL_SD:
        report(4, "stiffness identification", False,
               precondition + ": scenario cannot identify EI and kGA")
        pytest.fail(precondition + f" > {IDENTIFIABLE_REL_SD}")

    datasets = experiments.synth_identification_data(
        beam, w_locs, phi_locs, snr=IDENTIFICATION_SNR, seed=21)
    with_bc = _identification_arm(experiments.support_bcs(beam), beam,
                                  datasets, chain_seed=101)
    without = _identification_arm([], beam, datasets, chain_seed=101)

    clauses = {
        "EI mean in [1.00, 1.30]": 1.00 <= with_bc["EI_mean"] <= 1.30,
        "kGA mean in [0.85, 1.15]": 0.85 <= with_bc["kGA_mean"] <= 1.15,
        "kGA std ordering": with_bc["kGA_std"] < without["kGA_std"],
        "EI std ordering": with_bc["EI_std"] < without["EI_std"],
    }

    def arm_detail(arm):
        return (f"EI {arm['EI_mean']:.3f}±{arm['EI_std']:.3f}"
                f" (ESS {arm['EI_ess']:.0f})"
                f" kGA {arm['kGA_mean']:.3f}±{arm['kGA_std']:.3f}"
                f" (ESS {arm['kGA_ess']:.0f})")

    detail = (f"r {IDENTIFICATION_R}, SNR {IDENTIFICATION_SNR:.0f}, "
              f"{precondition}; with BCs {arm_detail(with_bc)}; "
              f"without {arm_detail(without)}; "
              + ", ".join(f"{k}: {'ok' if v else 'FAILED'}"
                          for k, v in clauses.items()))
    ok = all(clauses.values())
    report(4, "stiffness identification", ok, detail)
    assert ok, detail


# ---------------------------------------------------------------------------
# 5. Posterior spread shrinks with signal-to-noise ratio.

@pytest.mark.slow
def test_acceptance_5_noise_trend():
    t0 = time.time()
    cfg = McmcConfig(n_total=4000, n_b=1500, n_t=5)
    points = experiments.sweep_study("noise", [5, 20, 100], replications=50,
                                     root_seed=42, cfg=cfg)
    elapsed = time.time() - t0
    ei_lo, ei_hi = points[100]["EI_post_std"], points[5]["EI_post_std"]
    kga_lo, kga_hi = points[100]["kGA_post_std"], points[5]["kGA_post_std"]
    ok = (ei_lo < 0.5 * ei_hi and kga_lo < 0.5 * kga_hi
          and elapsed < 1800.0)
    detail = (f"EI std {ei_hi:.3f}->{ei_lo:.3f}, "
              f"kGA std {kga_hi:.3f}->{kga_lo:.3f}, {elapsed:.0f}s")
    assert report(5, "noise trend", ok, detail)


# ---------------------------------------------------------------------------
# 6. Rigidity sweep: each stiffness is identified in its dominant regime.

@pytest.mark.slow
def test_acceptance_6_rigidity_trend():
    t0 = time.time()
    cfg = McmcConfig(n_total=4000, n_b=1500, n_t=5)
    points = experiments.sweep_study("rigidity", [1e-3, 1e-2, 1.0, 1e2],
                                     replications=8, root_seed=42, cfg=cfg)
    elapsed = time.time() - t0
    ei_err = abs(points[1e-3]["EI_mean"] - 1.0)
    kga_err = abs(points[1e2]["kGA_mean"] - 1.0)
    ok = ei_err <= 0.05 and kga_err <= 0.05 and elapsed < 1200.0
    detail = (f"EI err at r=1e-3: {ei_err:.3f}, "
              f"kGA err at r=1e2: {kga_err:.3f}, {elapsed:.0f}s")
    assert report(6, "rigidity trend", ok, detail)


# ---------------------------------------------------------------------------
# 7. Sensor placement behavior.

def test_acceptance_7_placement():
    t0 = time.time()
    beam = experiments.scenario_beam(1.0)
    params = experiments.placement_params(beam)
    bcs = experiments.deflection_bcs(beam)

    def place(kind, criterion, n_sensors=7, n_candidates=31, use_bcs=True):
        problem = PlacementProblem(
            candidates=np.linspace(0.0, beam.L, n_candidates), kinds=kind,
            n_sensors=n_sensors,
            prior=placement.Prior(bcs if use_bcs else [], params),
            criterion=criterion)
        return problem, greedy_place(problem)

    # (a) Domain-blind criteria coincide across domains.
    blind_ok = True
    for crit in (PlacementCriterion.ENTROPY,
                 PlacementCriterion.MUTUAL_INFORMATION):
        _, res_w = place(QuantityKind.DEFLECTION, crit)
        _, res_p = place(QuantityKind.ROTATION, crit)
        xw = sorted(x for x, _ in res_w.selected)
        xp = sorted(x for x, _ in res_p.selected)
        blind_ok = blind_ok and np.allclose(xw, xp)

    # (b) The physics-informed sets respect the supports.
    _, res_w = place(QuantityKind.DEFLECTION,
                     PlacementCriterion.PHYSICS_INFORMED_ENTROPY)
    _, res_p = place(QuantityKind.ROTATION,
                     PlacementCriterion.PHYSICS_INFORMED_ENTROPY)
    xs_w = [x for x, _ in res_w.selected]
    xs_p = [x for x, _ in res_p.selected]
    support_ok = (0.0 not in xs_w and beam.L not in xs_w
                  and 0.0 in xs_p and beam.L in xs_p)

    # (c) Greedy selection is near-optimal on a brute-forceable problem.
    problem, res = place(QuantityKind.DEFLECTION,
                         PlacementCriterion.PHYSICS_INFORMED_ENTROPY,
                         n_sensors=3, n_candidates=10)
    rows = list(zip(itertools.combinations(range(10), 3),
                    placement.exhaustive_entropy_map(problem)))
    best = max(v for _, v in rows)
    picked = frozenset(int(round(x * 9)) for x, _ in res.selected)
    by_subset = {frozenset(s): v for s, v in rows}
    greedy_norm = by_subset[picked]
    greedy_ok = greedy_norm >= 0.95 * best

    elapsed = time.time() - t0
    ok = blind_ok and support_ok and greedy_ok and elapsed < 120.0
    detail = (f"blind match {blind_ok}, supports {support_ok}, "
              f"greedy {greedy_norm:.3f} of max {best:.3f}, {elapsed:.1f}s")
    assert report(7, "sensor placement", ok, detail)


# ---------------------------------------------------------------------------
# 8. Mixture predictive moments vs. Monte Carlo.

def test_acceptance_8_mixture_moments():
    t0 = time.time()
    beam = experiments.scenario_beam(1.0)
    x = np.array([0.3, 0.7])
    y = beam_mod.analytic_field(beam, QuantityKind.DEFLECTION, x)
    datasets = [Dataset(kind=QuantityKind.DEFLECTION, x=x, y=y,
                        sigma_n=0.002, label="w")]
    thetas = [Theta(sigma_s2=1.0, ell=0.3, EI=1.0, kGA=3.0),
              Theta(sigma_s2=0.5, ell=0.4, EI=1.3, kGA=2.0),
              Theta(sigma_s2=2.0, ell=0.25, EI=0.8, kGA=4.0)]
    x_star = [0.5]
    [mix] = gp.predict_mixture(datasets, [], thetas,
                               [(QuantityKind.DEFLECTION, x_star, None)])
    singles = [gp.predict(gp.assemble(datasets, [], t),
                          QuantityKind.DEFLECTION, x_star) for t in thetas]
    mus = np.array([s.mean[0] for s in singles])
    sds = np.array([np.sqrt(s.var[0]) for s in singles])

    rng = np.random.default_rng(314)
    n = 10**6
    comp = rng.integers(0, len(thetas), n)
    samples = mus[comp] + sds[comp] * rng.standard_normal(n)
    mc_mean = samples.mean()
    mc_var = samples.var()
    elapsed = time.time() - t0
    rel_mean = abs(mix.mean[0] - mc_mean) / max(abs(mc_mean),
                                                math.sqrt(mc_var))
    rel_var = abs(mix.var[0] - mc_var) / mc_var
    ok = rel_mean < 1e-2 and rel_var < 1e-2 and elapsed < 60.0
    detail = (f"mean rel {rel_mean:.2e}, var rel {rel_var:.2e}, "
              f"{elapsed:.1f}s")
    assert report(8, "mixture prediction moments", ok, detail)


# ---------------------------------------------------------------------------
# 9. Sampler sanity on an analytic target.

def test_acceptance_9_sampler_sanity():
    t0 = time.time()
    cfg = McmcConfig(n_total=250000, n_b=2000, n_t=5, seed=42)
    draws, acc, _ = mcmc.random_walk_metropolis(
        lambda x: -0.5 * float(x[0] ** 2), np.array([0.0]), cfg,
        scales=[2.4])
    x = draws[:, 0]
    ess = mcmc.effective_sample_size(x)
    mean_ok = abs(np.mean(x)) < 0.05
    var_ok = abs(np.var(x) - 1.0) < 0.1
    ess_ok = ess > 1e4

    # Bounded-uniform support is honored exactly on a beam chain.
    beam = experiments.scenario_beam(1.0)
    datasets = experiments.synth_identification_data(
        beam, np.linspace(0.2, 0.8, 4), None, snr=20.0, seed=6)
    priors = experiments.stiffness_priors(beam, {})
    chain = experiments.identify(datasets, experiments.support_bcs(beam),
                                 beam, McmcConfig(n_total=1200, n_b=400,
                                                  n_t=2, seed=8),
                                 priors=priors)
    names = chain.param_names
    ei = chain.draws[:, names.index("EI")]
    kga = chain.draws[:, names.index("kGA")]
    bounds_ok = (np.all((priors["EI"].lo <= ei) & (ei <= priors["EI"].hi))
                 and np.all((priors["kGA"].lo <= kga)
                            & (kga <= priors["kGA"].hi)))
    elapsed = time.time() - t0
    ok = mean_ok and var_ok and ess_ok and bounds_ok and elapsed < 60.0
    detail = (f"mean {np.mean(x):+.3f}, var {np.var(x):.3f}, "
              f"ess {ess:.0f}, bounds {bounds_ok}, {elapsed:.1f}s")
    assert report(9, "sampler sanity", ok, detail)


# ---------------------------------------------------------------------------
# 10. End-to-end determinism under a fixed root seed.

def test_acceptance_10_determinism(tmp_path):
    cfg = {"version": 1,
           "beam": {"L": 1.0, "EI": 1.0, "kGA": 3.0, "q0": 1.0},
           "seed": 42,
           "datasets": [{"kind": "w", "grid": 7, "snr": 20, "label": "w"},
                        {"kind": "phi", "grid": 5, "snr": 20,
                         "label": "phi"}],
           "mcmc": {"n_total": 400, "n_b": 150, "n_t": 5},
           "study": {"noise": {"snrs": [10, 50], "replications": 2}}}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))

    pairs = []
    for tag in ("a", "b"):
        out_sim = tmp_path / f"sim_{tag}"
        out_study = tmp_path / f"study_{tag}"
        assert cli.main(["simulate", "--config", str(cfg_path),
                         "--out", str(out_sim)]) == 0
        assert cli.main(["study", "--study", "noise", "--config",
                         str(cfg_path), "--out", str(out_study)]) == 0
        pairs.append({
            "data_w": (out_sim / "data_w.csv").read_bytes(),
            "data_phi": (out_sim / "data_phi.csv").read_bytes(),
            "study": (out_study / "study_noise.csv").read_bytes(),
        })
    ok = all(pairs[0][k] == pairs[1][k] for k in pairs[0])
    assert report(10, "determinism", ok,
                  "byte-identical CSVs across reruns")
