"""Reusable experiment building blocks: scenarios, identification, sweeps.

Everything here is deterministic under a root seed.  Sweep replications
draw their seeds from a counter-based scheme keyed on (sweep point,
replication), so parallel execution order cannot change results.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from timopigp import beam as beam_mod
from timopigp import mcmc
from timopigp.beam import BeamConfig, NoiseSpec
from timopigp.data import BoundaryCondition, Dataset
from timopigp.gp import Theta
from timopigp.mcmc import McmcConfig, UniformBounded
from timopigp.placement import (PlacementCriterion, PlacementProblem,
                                Prior, greedy_place)
from timopigp.quantities import QuantityKind

THREADS_ENV = "TIMO_PIGP_THREADS"

LOAD_NOISE_FACTOR = 1e-6  # effectively exact informed load, numerically safe


def worker_count() -> int:
    """``TIMO_PIGP_THREADS``, else the CPUs this process may run on: its
    affinity mask, which ``taskset`` and cgroup cpusets narrow, where the
    platform has one."""
    env = os.environ.get(THREADS_ENV)
    cpus = len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else os.cpu_count()
    try:
        return max(1, int(env or cpus or 1))
    except ValueError:
        raise ValueError(f"{THREADS_ENV} is not an integer: {env!r}") from None


def scenario_beam(r: float) -> BeamConfig:
    """Simply supported unit scenario (L = EI = q0 = 1, h = 0.1) with the
    rigidity factor r = 3 EI / (L^2 kGA)."""
    return BeamConfig(L=1.0, EI_true=1.0, kGA_true=3.0 / r, q0=1.0, h=0.1)


def deflection_bcs(beam: BeamConfig) -> list:
    return [BoundaryCondition(kind=QuantityKind.DEFLECTION,
                              x=np.array([0.0, beam.L]))]


def support_bcs(beam: BeamConfig) -> list:
    """Full simple-support conditions: zero deflection and zero moment.

    Moment-free ends complete the fourth-order problem; without them the
    latent deflection keeps a free cubic component that degrades stiffness
    identifiability.
    """
    ends = np.array([0.0, beam.L])
    return [BoundaryCondition(kind=QuantityKind.DEFLECTION, x=ends),
            BoundaryCondition(kind=QuantityKind.MOMENT, x=ends)]


def placement_params(beam: BeamConfig, ell: float | None = None,
                     sigma_s2: float = 1.0) -> Theta:
    """Pre-data kernel parameters for placement (no learned theta exists)."""
    return Theta(sigma_s2=sigma_s2,
                 ell=ell if ell is not None else beam.L / 8.0,
                 EI=beam.EI_true, kGA=beam.kGA_true)


def sensor_set(beam: BeamConfig, kind: QuantityKind,
               criterion: PlacementCriterion,
               n_sensors: int = 7, n_candidates: int = 31,
               ell: float | None = None, with_bcs: bool = True) -> np.ndarray:
    """Greedy sensor locations for one domain on an equidistant grid."""
    problem = PlacementProblem(
        candidates=np.linspace(0.0, beam.L, n_candidates),
        kinds=kind,
        n_sensors=n_sensors,
        prior=Prior(deflection_bcs(beam) if with_bcs else [],
                    placement_params(beam, ell=ell)),
        criterion=criterion,
    )
    result = greedy_place(problem)
    return np.array(sorted(x for x, _ in result.selected))


def synth_identification_data(beam: BeamConfig, w_locs, phi_locs, snr: float,
                              seed: int, ndp: int = 1) -> list:
    """Noisy deflection + rotation data with the informed load dataset."""
    datasets = []
    sub = np.random.SeedSequence(seed).generate_state(2)
    if w_locs is not None and len(w_locs):
        locs = np.tile(np.asarray(w_locs, float), ndp)
        datasets.append(beam_mod.synthesize_dataset(
            beam, QuantityKind.DEFLECTION, locs,
            NoiseSpec(snr=snr, seed=int(sub[0])),
            label="w", learn_noise=True))
    if phi_locs is not None and len(phi_locs):
        locs = np.tile(np.asarray(phi_locs, float), ndp)
        datasets.append(beam_mod.synthesize_dataset(
            beam, QuantityKind.ROTATION, locs,
            NoiseSpec(snr=snr, seed=int(sub[1])),
            label="phi", learn_noise=True))
    base = w_locs if w_locs is not None and len(w_locs) else phi_locs
    q_locs = np.asarray(base, float)
    datasets.append(Dataset(
        kind=QuantityKind.LOAD, x=q_locs, y=np.full(q_locs.size, beam.q0),
        sigma_n=LOAD_NOISE_FACTOR * abs(beam.q0), label="q"))
    return datasets


# A stiffness prior's (lo, hi) factors on the true value, by default.
PRIOR_FACTORS = (0.5, 1.5)


def stiffness_priors(beam: BeamConfig, factors: dict) -> dict:
    """Bounded-uniform stiffness priors: ``factors[name]``, a (lo, hi)
    pair, times the true EI and kGA.  EI's pair is
    ``PRIOR_FACTORS`` unless given, and kGA's is EI's unless given."""
    ei = factors.get("EI", PRIOR_FACTORS)
    kga = factors.get("kGA", ei)
    return {
        "EI": UniformBounded(ei[0] * beam.EI_true, ei[1] * beam.EI_true),
        "kGA": UniformBounded(kga[0] * beam.kGA_true,
                              kga[1] * beam.kGA_true),
    }


def default_theta0(datasets, beam: BeamConfig, priors: dict) -> Theta:
    """Start point: the midpoints of the EI and kGA boxes, data
    heuristics for the rest."""
    EI0, kGA0 = (0.5 * (priors[name].lo + priors[name].hi)
                 for name in ("EI", "kGA"))
    ell0 = beam.L / 4.0

    w_sets = [d for d in datasets if d.kind is QuantityKind.DEFLECTION]
    ref = w_sets[0] if w_sets else datasets[0]
    y_var = float(np.var(ref.y)) or 1.0
    # De-scale by the diagonal amplification of the reference quantity's
    # kernel so sigma_s2 starts near the latent process scale.
    a = EI0 / kGA0
    if ref.kind is QuantityKind.DEFLECTION:
        gain = 1.0 + 2.0 * a / ell0**2 + 3.0 * (a / ell0**2) ** 2
    elif ref.kind is QuantityKind.ROTATION:
        gain = (1.0 / ell0**2 + 6.0 * a / ell0**4
                + 15.0 * a**2 / ell0**6)
    else:
        gain = 1.0
    sigma_s2_0 = max(y_var / gain, 1e-300)

    sigma_n0 = {}
    for ds in datasets:
        if ds.learn_noise:
            init = ds.sigma_n if ds.sigma_n > 0 else 0.05 * np.std(ds.y)
            sigma_n0[ds.label] = float(max(init, 1e-12))
    return Theta(sigma_s2=sigma_s2_0, ell=ell0, EI=EI0, kGA=kGA0,
                 sigma_n=sigma_n0)


def identify(datasets, bcs, beam: BeamConfig, cfg: McmcConfig,
             priors: dict | None = None) -> mcmc.PosteriorChain:
    """Run the stiffness-identification chain for one scenario from
    ``default_theta0``."""
    priors = priors if priors is not None else stiffness_priors(beam, {})
    return mcmc.run_chain(datasets, bcs, priors, cfg,
                          default_theta0(datasets, beam, priors))


def replication_seed(root_seed: int, point: int, rep: int) -> int:
    """Counter-based child seed; independent of execution order."""
    seq = np.random.SeedSequence(entropy=root_seed, spawn_key=(point, rep))
    return int(seq.generate_state(1)[0])


@dataclass(frozen=True)
class SweepTask:
    """One replication: support BCs and sensor_set's 7 physics-placed
    w sensors and 7 physics-placed phi sensors, each set placed on its
    own 31 candidates."""

    beam_r: float
    snr: float
    ndp: int
    seed: int
    chain_seed: int
    mcmc: McmcConfig


def _run_sweep_task(task: SweepTask) -> dict:
    beam = scenario_beam(task.beam_r)
    w_locs, phi_locs = (
        sensor_set(beam, kind, PlacementCriterion.PHYSICS_INFORMED_ENTROPY)
        for kind in (QuantityKind.DEFLECTION, QuantityKind.ROTATION))
    datasets = synth_identification_data(beam, w_locs, phi_locs,
                                         snr=task.snr, seed=task.seed,
                                         ndp=task.ndp)
    cfg = replace(task.mcmc, seed=task.chain_seed)
    try:
        chain = identify(datasets, support_bcs(beam), beam, cfg)
    except Exception as exc:  # per-point failures recorded, sweep continues
        return {"error": repr(exc)}
    stats = mcmc.summarize(chain)
    return {
        "EI_mean": stats["EI"]["mean"] / beam.EI_true,
        "EI_std": stats["EI"]["std"] / beam.EI_true,
        "kGA_mean": stats["kGA"]["mean"] / beam.kGA_true,
        "kGA_std": stats["kGA"]["std"] / beam.kGA_true,
    }


def run_sweep(tasks: list) -> list:
    """Execute replication tasks, on a process pool if there are workers."""
    n_workers = worker_count()
    if n_workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor  # sweeps only
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            return list(pool.map(_run_sweep_task, tasks))
    return [_run_sweep_task(t) for t in tasks]


def _aggregate(point_results: list) -> dict:
    ok = [r for r in point_results if "error" not in r]
    out = {"n_reps": len(ok), "n_failed": len(point_results) - len(ok)}
    if not ok:
        return out
    for param in ("EI", "kGA"):
        means = np.array([r[f"{param}_mean"] for r in ok])
        stds = np.array([r[f"{param}_std"] for r in ok])
        out[f"{param}_mean"] = float(means.mean())
        out[f"{param}_mean_std"] = float(means.std())
        out[f"{param}_post_std"] = float(stds.mean())
        out[f"{param}_ci_lo"] = float(means.mean() - 1.96 * stds.mean())
        out[f"{param}_ci_hi"] = float(means.mean() + 1.96 * stds.mean())
    return out


class Study(NamedTuple):
    """A sweep study: its swept setting and what it reads from a config.

    ``offset`` shifts the point index, which keeps the replication seeds of
    studies that share a root seed disjoint; ``settings`` names the fixed
    ``sweep_study`` arguments the study takes from its config section.
    """

    offset: int
    field: str
    config_key: str
    default: tuple
    settings: tuple


STUDIES = {"noise": Study(0, "snr", "snrs", (5, 10, 20, 50, 100), ("r",)),
           "rigidity": Study(1000, "beam_r", "r_values",
                             (1e-3, 1e-2, 1.0, 1e2), ("snr",)),
           "ndp": Study(2000, "ndp", "values", (1, 2, 5, 10), ("snr",))}


def sweep_study(study: str, values, replications: int, root_seed: int,
                cfg: McmcConfig, snr: float = 10.0, r: float = 1.0) -> dict:
    """Replicated identification at each value of one swept setting.

    ``noise`` sweeps the SNR at rigidity ``r``, ``rigidity`` sweeps r at
    ``snr``, and ``ndp`` sweeps the data points per sensor at ``snr`` and
    ``r``.  Returns the aggregate of each value's replications, with
    ``failures``: the replication index, seed and error of each that
    failed.
    """
    spec = STUDIES[study]
    points = {}
    for p, value in enumerate(values):
        setting = {"beam_r": r, "snr": snr, "ndp": 1,
                   spec.field: int(value) if spec.field == "ndp" else value}
        seeds = [replication_seed(root_seed, spec.offset + p, rep)
                 for rep in range(replications)]
        points[value] = [SweepTask(**setting, seed=seed,
                                   chain_seed=seed ^ 0x9E37, mcmc=cfg)
                         for seed in seeds]
    results = iter(run_sweep([t for tasks in points.values() for t in tasks]))
    out = {}
    for value, tasks in points.items():
        done = [next(results) for _ in tasks]
        out[value] = dict(_aggregate(done), failures=[
            {"replication": rep, "seed": task.seed, "error": res["error"]}
            for rep, (task, res) in enumerate(zip(tasks, done))
            if "error" in res])
    return out

