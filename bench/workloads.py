"""The three workloads: inputs from a seed, one round of commands, checks.

Each workload drives ``timopigp.cli.main`` in this process, as a user's
command sequence would, and checks what the commands wrote against
values computed here, apart from the package, or against properties the
method must have.  A round is the same commands on the same inputs every
time, so every round of a run must write byte-identical files.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from timopigp import cli

L, Q0, EI = 1.0, 1.0, 1.0


@dataclass
class Round:
    """Timings and operation counts of one round of a workload."""

    wall_s: float
    work_per_s: float
    command_s: dict
    attempted: int
    failed: int
    extra: dict = field(default_factory=dict)


def run_cli(argv) -> tuple:
    """(exit code, wall seconds) of one command through timopigp.cli.main."""
    t0 = time.perf_counter()
    try:
        rc = cli.main([str(a) for a in argv])
    except Exception:  # a crash is a failed operation; the run goes on
        traceback.print_exc()
        rc = -1
    return rc, time.perf_counter() - t0


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _read_csv(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)


class Workload:
    """Shared round bookkeeping; subclasses define inputs and checks."""

    name = ""

    def __init__(self, seed: int, out: Path):
        self.seed = seed
        self.out = out
        self._first_digest = None

    def output_files(self) -> list:
        raise NotImplementedError

    def check_repeat(self) -> list:
        """Every round writes the same bytes as the first round."""
        digest = _digest(self.output_files())
        if self._first_digest is None:
            self._first_digest = digest
            return []
        if digest != self._first_digest:
            return [f"{self.name}: outputs differ from the first round's"]
        return []


# ---------------------------------------------------------------------------

class Identify(Workload):
    """simulate -> identify -> predict at the acceptance 4 scenario.

    r = 0.3 (kGA = 10), SNR 100, 7 physics-placed w and 7 physics-placed
    phi sensors, an informed load at the w sites and the support BCs
    (w and M at both ends): n = 25.  The seed draws the noise of the data
    and the chain's seed.
    """

    name = "identify"
    KGA = 10.0
    N_TOTAL, N_B, N_T = 6000, 2000, 5
    DRAWS, GRID = 100, 101
    PRIOR = (0.5, 1.5)
    RIDGE_TOL = 0.02   # posterior midspan deflection within 2 % of truth
    PRED_TOL = 0.05    # predictions within 5 % of the field's peak

    def __init__(self, seed, out):
        super().__init__(seed, out)
        self.data_seed, self.chain_seed = (
            int(v) for v in np.random.SeedSequence(seed).generate_state(2))
        self.cfg = out / "identify.json"
        self.data = [out / f"data_{k}.csv" for k in ("w", "phi", "q")]

    def generate(self):
        placed = {"criterion": "physics", "n_sensors": 7}
        cfg = {
            "version": 1,
            "seed": self.data_seed,
            "beam": {"L": L, "EI": EI, "kGA": self.KGA, "q0": Q0},
            "bcs": [{"kind": "w", "locations": [0.0, L]},
                    {"kind": "M", "locations": [0.0, L]}],
            "datasets": [
                {"kind": "w", "placement": dict(placed, kind="w"),
                 "snr": 100, "label": "w"},
                {"kind": "phi", "placement": dict(placed, kind="phi"),
                 "snr": 100, "label": "phi"},
                {"kind": "q", "placement": dict(placed, kind="w"),
                 "sigma_n": 1e-6 * Q0, "label": "q"},
            ],
            "priors": {"EI": {"lo_factor": self.PRIOR[0],
                              "hi_factor": self.PRIOR[1]},
                       "kGA": {"lo_factor": self.PRIOR[0],
                               "hi_factor": self.PRIOR[1]}},
            "mcmc": {"n_total": self.N_TOTAL, "n_b": self.N_B,
                     "n_t": self.N_T},
            "predict": {"max_draws": self.DRAWS, "n_grid": self.GRID,
                        "kinds": ["w", "M", "V"]},
        }
        _write_json(self.cfg, cfg)
        rc, _ = run_cli(["simulate", "--config", self.cfg, "--out", self.out])
        if rc != 0:
            raise RuntimeError(f"simulate exited with {rc}")

    def run_round(self) -> Round:
        common = ["--config", self.cfg, "--out", self.out,
                  "--seed", self.chain_seed]
        rc_id, t_id = run_cli(["identify", *common, "--data", *self.data])
        rc_pr, t_pr = run_cli(["predict", *common,
                               "--chain", self.out / "chain.csv",
                               "--data", *self.data])
        extra = {"predict.draws_per_s": self.DRAWS * 3 / t_pr}
        if rc_id == 0:
            ess = json.loads((self.out / "diagnostics.json").read_text())
            ess_min = min(ess["ess"]["EI"], ess["ess"]["kGA"])
            extra.update({"identify.ess_min": ess_min,
                          "identify.ess_per_s": ess_min / t_id})
        return Round(wall_s=t_id + t_pr, work_per_s=self.N_TOTAL / t_id,
                     command_s={"identify": t_id, "predict": t_pr},
                     attempted=2, failed=(rc_id != 0) + (rc_pr != 0),
                     extra=extra)

    def output_files(self):
        return [self.out / n for n in ("chain.csv", "summary.json",
                                       "diagnostics.json", "pred_w.csv",
                                       "pred_M.csv", "pred_V.csv")]

    @staticmethod
    def deflection(x, ei, kga):
        """Closed-form Timoshenko deflection of the loaded simple span."""
        return (Q0 / (24.0 * ei) * (x**4 - 2.0 * L * x**3 + L**3 * x)
                + Q0 * x * (L - x) / (2.0 * kga))

    def expected(self, kind, x):
        """Closed-form statics and deflection, computed here."""
        if kind == "M":
            return Q0 * x * (x - L) / 2.0
        if kind == "V":
            return Q0 * (x - L / 2.0)
        return self.deflection(x, EI, self.KGA)

    def check(self, rnd: Round) -> list:
        if rnd.failed:
            return []
        errors = []
        rows = _read_csv(self.out / "chain.csv")
        kept = (self.N_TOTAL - self.N_B + self.N_T - 1) // self.N_T
        if len(rows) != kept:
            errors.append(f"chain has {len(rows)} draws, expected {kept}")
        draws = {}
        for name, truth in (("EI", EI), ("kGA", self.KGA)):
            draws[name] = col = np.array([float(r[name]) for r in rows])
            lo, hi = self.PRIOR[0] * truth, self.PRIOR[1] * truth
            if not np.all((col >= lo) & (col <= hi)):
                errors.append(f"{name} draws leave the prior box "
                              f"[{lo}, {hi}]")
        # The data fix the stiffnesses along the ridge of constant midspan
        # deflection; along it the posterior sits off the truth (see the
        # README), so "near the truth" is checked across the ridge.
        w_mid = float(np.mean(self.deflection(L / 2, draws["EI"],
                                              draws["kGA"])))
        w_true = float(self.deflection(L / 2, EI, self.KGA))
        if not abs(w_mid / w_true - 1.0) <= self.RIDGE_TOL:
            errors.append(f"posterior midspan deflection {w_mid:.5g} is not "
                          f"within {self.RIDGE_TOL:.0%} of {w_true:.5g}")
        for kind in ("w", "M", "V"):
            pred = _read_csv(self.out / f"pred_{kind}.csv")
            x = np.array([float(r["x"]) for r in pred])
            mean = np.array([float(r["mean"]) for r in pred])
            var = np.array([float(r["var"]) for r in pred])
            if x.size != self.GRID:
                errors.append(f"pred_{kind}: {x.size} points, "
                              f"expected {self.GRID}")
                continue
            truth = self.expected(kind, x)
            err = float(np.max(np.abs(mean - truth)))
            peak = float(np.max(np.abs(truth)))
            if not err <= self.PRED_TOL * peak:
                errors.append(f"pred_{kind}: max error {err:.3g} exceeds "
                              f"{self.PRED_TOL:.0%} of the peak {peak:.3g}")
            if not np.all(var >= 0.0):
                errors.append(f"pred_{kind}: negative variance")
        return errors + self.check_repeat()


# ---------------------------------------------------------------------------

class Sweep(Workload):
    """study --study noise at r = 1: SNR 5, 20, 100 x REPS replications.

    Short chains (4000 steps, 1500 burn-in, stride 5) on the study's own
    process pool.  The seed is the study's root seed.
    """

    name = "sweep"
    SNRS = (5, 20, 100)
    REPS = 2
    N_TOTAL, N_B, N_T = 4000, 1500, 5

    def __init__(self, seed, out):
        super().__init__(seed, out)
        self.cfg = out / "sweep.json"
        self.csv = out / "study_noise.csv"

    def generate(self):
        _write_json(self.cfg, {
            "version": 1,
            "seed": self.seed,
            "mcmc": {"n_total": self.N_TOTAL, "n_b": self.N_B,
                     "n_t": self.N_T},
            "study": {"noise": {"snrs": list(self.SNRS),
                                "replications": self.REPS, "r": 1.0}},
        })

    def run_round(self) -> Round:
        rc, t = run_cli(["study", "--config", self.cfg, "--out", self.out,
                         "--study", "noise"])
        total = len(self.SNRS) * self.REPS
        failed = total
        if rc == 0:
            failed = sum(int(r["n_failed"]) for r in _read_csv(self.csv))
        return Round(wall_s=t, work_per_s=(total - failed) / t,
                     command_s={"study": t}, attempted=total, failed=failed)

    def output_files(self):
        return [self.csv]

    def check(self, rnd: Round) -> list:
        if rnd.failed == rnd.attempted:
            return []
        errors = []
        rows = {float(r["sweep_value"]): r for r in _read_csv(self.csv)}
        if sorted(rows) != sorted(float(s) for s in self.SNRS):
            return [f"study rows {sorted(rows)} != SNRs {self.SNRS}"]
        for snr, r in rows.items():
            if int(r["n_reps"]) + int(r["n_failed"]) != self.REPS:
                errors.append(f"SNR {snr}: n_reps + n_failed != "
                              f"{self.REPS}")
        lo, hi = rows[float(max(self.SNRS))], rows[float(min(self.SNRS))]
        # kGA is identified at r = 1, so its spread must halve.  EI is not
        # (its exact-physics relative s.d. is ~0.16 at SNR 100, against
        # the prior box's 0.29), so over a few replications it need only
        # shrink; acceptance 5 tests the halving on 50.
        for p, factor in (("EI", 1.0), ("kGA", 0.5)):
            a, b = float(lo[f"{p}_post_std"]), float(hi[f"{p}_post_std"])
            if not a < factor * b:
                errors.append(f"{p} posterior s.d. at SNR {max(self.SNRS)} "
                              f"({a:.4g}) is not below {factor:g} x that "
                              f"at SNR {min(self.SNRS)} ({b:.4g})")
        return errors + self.check_repeat()


# ---------------------------------------------------------------------------

class Place(Workload):
    """place with physics, entropy and mi x w and phi on two grids.

    A fine grid runs greedy placement only; a coarse grid also writes the
    exhaustive entropy map of every criterion and kind.  The seed draws
    the prior's length scale within 10 % of L/8 and its signal variance
    within a factor 2 of 1.
    """

    name = "place"
    CRITERIA = ("physics", "entropy", "mi")
    KINDS = ("w", "phi")
    FINE = (121, 7)     # (candidates, sensors)
    COARSE = (12, 4)
    CHAIN_RULE_TOL = 1e-9

    def __init__(self, seed, out):
        super().__init__(seed, out)
        rng = np.random.default_rng(seed)
        self.ell = L / 8.0 * float(np.exp(rng.uniform(np.log(0.9),
                                                      np.log(1.1))))
        self.sigma_s2 = float(np.exp(rng.uniform(np.log(0.5), np.log(2.0))))
        self.dirs = {"greedy": out / "greedy", "map": out / "map"}

    def _config(self, grid, with_map):
        n, k = grid
        return {
            "version": 1,
            "seed": self.seed,
            "beam": {"L": L, "EI": EI, "kGA": 3.0, "q0": Q0},
            "bcs": [{"kind": "w", "locations": [0.0, L]}],
            "placement": {"n_candidates": n, "n_sensors": k,
                          "kinds": list(self.KINDS),
                          "criteria": list(self.CRITERIA),
                          "ell": self.ell, "sigma_s2": self.sigma_s2,
                          "entropy_map": with_map},
        }

    def generate(self):
        for key, grid, with_map in (("greedy", self.FINE, False),
                                    ("map", self.COARSE, True)):
            self.dirs[key].mkdir(parents=True, exist_ok=True)
            _write_json(self.out / f"place_{key}.json",
                        self._config(grid, with_map))

    def run_round(self) -> Round:
        times, failed = {}, 0
        for key in ("greedy", "map"):
            rc, times[key] = run_cli(["place", "--config",
                                      self.out / f"place_{key}.json",
                                      "--out", self.dirs[key]])
            failed += rc != 0
        n, k = self.COARSE
        rows = math.comb(n, k) * len(self.CRITERIA) * len(self.KINDS)
        return Round(wall_s=times["greedy"] + times["map"],
                     work_per_s=rows / times["map"], command_s=times,
                     attempted=2, failed=failed,
                     extra={"place.greedy_s": times["greedy"]})

    def output_files(self):
        files = [d / "placement.json" for d in self.dirs.values()]
        return files + sorted(self.dirs["map"].glob("entropy_map_*.csv"))

    def _check_sets(self, key, grid) -> list:
        n, k = grid
        errors = []
        results = json.loads((self.dirs[key] / "placement.json").read_text())
        if len(results) != len(self.CRITERIA) * len(self.KINDS):
            return [f"{key}: {len(results)} placements written"]
        xs = {}
        candidates = np.linspace(0.0, L, n)
        for res in results:
            tag = f"{key} {res['criterion']}/{res['kind']}"
            sel = sorted(s["x"] for s in res["selected"])
            xs[res["criterion"], res["kind"]] = sel
            if len(set(sel)) != k or not all(
                    np.isclose(candidates, x, rtol=0, atol=1e-12).any()
                    for x in sel):
                errors.append(f"{tag}: not {k} distinct candidates")
            if res["criterion"] != "physics":
                continue
            # Greedy step entropies are conditional entropies, so their
            # sum is the joint entropy of the set (chain rule).
            gap = abs(sum(res["step_entropies"]) - res["set_entropy"])
            if not gap <= self.CHAIN_RULE_TOL * max(1.0,
                                                    abs(res["set_entropy"])):
                errors.append(f"{tag}: step entropies miss set_entropy "
                              f"by {gap:.3g}")
            ends = {0.0, L} & set(sel)
            if res["kind"] == "w" and ends:
                errors.append(f"{tag}: a w sensor sits on a support")
            if res["kind"] == "phi" and ends != {0.0, L}:
                errors.append(f"{tag}: phi set lacks an end")
        for crit in self.CRITERIA:
            if crit != "physics" and xs[crit, "w"] != xs[crit, "phi"]:
                errors.append(f"{key} {crit}: domain-blind criterion gave "
                              f"different w and phi sets")
        return errors

    def check(self, rnd: Round) -> list:
        if rnd.failed:
            return []
        errors = self._check_sets("greedy", self.FINE)
        errors += self._check_sets("map", self.COARSE)
        n, k = self.COARSE
        for crit in self.CRITERIA:
            for kind in self.KINDS:
                path = self.dirs["map"] / f"entropy_map_{crit}_{kind}.csv"
                rows = _read_csv(path)
                h = np.array([float(r["normalized_entropy"]) for r in rows])
                subsets = {r["subset"] for r in rows}
                if len(rows) != math.comb(n, k) or len(subsets) != len(rows):
                    errors.append(f"{path.name}: {len(rows)} rows, "
                                  f"expected C({n},{k})")
                elif h.min() != 0.0 or h.max() != 1.0:
                    errors.append(f"{path.name}: values span "
                                  f"[{h.min()}, {h.max()}], not [0, 1]")
        return errors + self.check_repeat()


WORKLOADS = {w.name: w for w in (Identify, Sweep, Place)}
