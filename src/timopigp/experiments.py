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
from timopigp import gp, mcmc
from timopigp.beam import BeamConfig, NoiseSpec
from timopigp.data import BoundaryCondition
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


def _own_noise(ds) -> float:
    """A dataset's own noise level: its sigma_n, else 0.05 std(y)."""
    return ds.sigma_n if ds.sigma_n > 0 else 0.05 * float(np.std(ds.y))


def set_noise(datasets, levels: dict, learn: dict) -> None:
    """Set each dataset's noise, by its label: a level in ``levels`` (not
    None) is held, a load is held at ``LOAD_NOISE_FACTOR`` max|q|, and any
    other dataset is learned from its own level (``_own_noise``).  A flag
    in ``learn`` sets whether a dataset's level is learned."""
    for ds in datasets:
        level, load = levels.get(ds.label), ds.kind is QuantityKind.LOAD
        ds.sigma_n = level if level is not None else (
            LOAD_NOISE_FACTOR * max(float(np.max(np.abs(ds.y))), 1e-300)
            if load else _own_noise(ds))
        ds.learn_noise = learn.get(ds.label, level is None and not load)


def synth_identification_data(beam: BeamConfig, w_locs, phi_locs, snr: float,
                              seed: int, ndp: int = 1) -> list:
    """Noisy deflection + rotation data, ``ndp`` points per site, with the
    informed load: exact, once at each site of the first set given."""
    sub = np.random.SeedSequence(seed).generate_state(2)
    plan = [(kind, label, np.asarray(locs, float), ndp,
             NoiseSpec(snr=snr, seed=int(s)))
            for kind, label, locs, s in (
                (QuantityKind.DEFLECTION, "w", w_locs, sub[0]),
                (QuantityKind.ROTATION, "phi", phi_locs, sub[1]))
            if locs is not None and len(locs)]
    if not plan:
        raise ValueError("synth_identification_data needs w or phi "
                         "locations")
    plan.append((QuantityKind.LOAD, "q", plan[0][2], 1,
                 NoiseSpec(sigma_n=0.0)))
    datasets = [beam_mod.synthesize_dataset(
        beam, kind, np.tile(locs, reps), noise, label=label)
        for kind, label, locs, reps, noise in plan]
    set_noise(datasets, {}, {})
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
    heuristics for the rest, from the datasets in block order."""
    datasets = gp.order_entries(datasets, [])
    EI0, kGA0 = (0.5 * (priors[name].lo + priors[name].hi)
                 for name in ("EI", "kGA"))
    ell0 = beam.L / 4.0

    ref = datasets[0]  # the first w dataset, if any: w leads block order
    y_var = float(np.var(ref.y)) or 1.0
    # De-scale by the reference quantity's prior variance at unit sigma_s2
    # (at its first depth for strain; 1 where that variance is 0), so
    # sigma_s2 starts near the latent process scale.
    point = gp.Points(ref.kind, np.zeros(1), None if ref.z is None
                      else ref.z[:1])
    gain = float(gp.covariance([point], Theta(1.0, ell0, EI0, kGA0))[0, 0])
    sigma_s2_0 = max(y_var / (gain or 1.0), 1e-300)

    sigma_n0 = {ds.label: float(max(_own_noise(ds), 1e-12))
                for ds in datasets if ds.learn_noise}
    return Theta(sigma_s2=sigma_s2_0, ell=ell0, EI=EI0, kGA=kGA0,
                 sigma_n=sigma_n0)


def _chain_run(datasets, bcs, beam: BeamConfig, cfg: McmcConfig,
               priors: dict | None = None) -> tuple:
    """``run_chain``'s arguments for ``identify``."""
    priors = priors if priors is not None else stiffness_priors(beam, {})
    return datasets, bcs, priors, cfg, default_theta0(datasets, beam, priors)


def identify(datasets, bcs, beam: BeamConfig, cfg: McmcConfig,
             priors: dict | None = None) -> mcmc.PosteriorChain:
    """Run the stiffness-identification chain for one scenario from
    ``default_theta0``."""
    return mcmc.run_chain(*_chain_run(datasets, bcs, beam, cfg, priors))


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


def _attempt(fn, *args):
    """fn(*args), or the exception it raised: a replication's failure is
    recorded and the sweep continues."""
    try:
        return fn(*args)
    except Exception as exc:
        return exc


def _run_sweep_part(tasks: list) -> list:
    """The results of replications at one set of sites (one beam_r and
    ndp): one sensor_set pair, then the chains in lock-step
    (``mcmc.run_lockstep``).  If that raises, each chain runs alone
    (``identify``), so the error is one replication's; the draws are the
    same either way."""
    beam = scenario_beam(tasks[0].beam_r)
    w_locs, phi_locs = (
        sensor_set(beam, kind, PlacementCriterion.PHYSICS_INFORMED_ENTROPY)
        for kind in (QuantityKind.DEFLECTION, QuantityKind.ROTATION))
    bcs = support_bcs(beam)
    inputs = [(synth_identification_data(beam, w_locs, phi_locs,
                                         snr=task.snr, seed=task.seed,
                                         ndp=task.ndp),
               bcs, beam, replace(task.mcmc, seed=task.chain_seed))
              for task in tasks]
    runs = [_attempt(_chain_run, *args) for args in inputs]
    try:
        done = iter(mcmc.run_lockstep(
            [run for run in runs if isinstance(run, tuple)]))
        chains = [next(done) if isinstance(run, tuple) else run
                  for run in runs]
    except Exception:  # one chain's error, found again when run alone
        chains = [_attempt(identify, *args) for args in inputs]
    out = []
    for chain in chains:
        if isinstance(chain, Exception):
            out.append({"error": repr(chain)})
            continue
        stats = mcmc.summarize(chain)
        out.append({
            "EI_mean": stats["EI"]["mean"] / beam.EI_true,
            "EI_std": stats["EI"]["std"] / beam.EI_true,
            "kGA_mean": stats["kGA"]["mean"] / beam.kGA_true,
            "kGA_std": stats["kGA"]["std"] / beam.kGA_true,
        })
    return out


def run_sweep(tasks: list) -> list:
    """Execute replication tasks, on a process pool if there are workers.

    The tasks at one set of sites form a group, and each group is split
    into ``worker_count()`` contiguous parts (``_run_sweep_part``).  The
    results, in task order, do not depend on the parts.
    """
    n_workers = worker_count()
    groups = {}
    for i, task in enumerate(tasks):
        groups.setdefault((task.beam_r, task.ndp), []).append(i)
    parts = [part.tolist() for group in groups.values()
             for part in np.array_split(group, min(n_workers, len(group)))]
    jobs = [[tasks[i] for i in part] for part in parts]
    if n_workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor  # sweeps only
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            done = list(pool.map(_run_sweep_part, jobs))
    else:
        done = [_run_sweep_part(job) for job in jobs]
    out = [None] * len(tasks)
    for part, results in zip(parts, done):
        for i, result in zip(part, results):
            out[i] = result
    return out


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

