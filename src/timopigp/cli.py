"""Command-line front end: simulate | place | identify | predict | study.

Configs are versioned JSON; all tabular output is CSV.  Every run writes a
manifest listing the produced files with their generating seed and the
config hash, and all randomness flows from a single root seed expanded
per (sweep point, replication).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from timopigp import beam as beam_mod
from timopigp import experiments, gp, mcmc, placement
from timopigp.beam import BeamConfig, NoiseSpec
from timopigp.data import (BoundaryCondition, read_datasets_csv,
                           write_datasets_csv)
from timopigp.errors import (DataFormatError, EnumerationGuardError,
                             IllConditionedModelError,
                             NonFiniteCovarianceError, StuckChainError)
from timopigp.mcmc import McmcConfig, PosteriorChain
from timopigp.placement import (PlacementCriterion, PlacementProblem,
                                greedy_place)
from timopigp.quantities import QuantityKind

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

CONFIG_VERSION = 1


class ConfigError(Exception):
    pass


def load_config(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    if cfg.get("version") != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version "
                          f"{cfg.get('version')!r}; expected {CONFIG_VERSION}")
    return cfg


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def beam_from_config(cfg: dict) -> BeamConfig:
    try:
        b = cfg["beam"]
        return BeamConfig(L=float(b["L"]), EI_true=float(b["EI"]),
                          kGA_true=float(b["kGA"]), q0=float(b["q0"]),
                          h=float(b.get("h", 0.1)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid beam section: {exc}") from None


def _kind(code: str) -> QuantityKind:
    try:
        return QuantityKind.from_code(code)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _criterion(code: str) -> PlacementCriterion:
    for crit in PlacementCriterion:
        if crit.value == code:
            return crit
    raise ConfigError(f"unknown placement criterion {code!r}")


def mcmc_from_config(cfg: dict, seed: int) -> McmcConfig:
    m = cfg.get("mcmc", {})
    try:
        return McmcConfig(n_total=int(m.get("n_total", 25000)),
                          n_b=int(m.get("n_b", 5000)),
                          n_t=int(m.get("n_t", 10)),
                          proposal_scale=m.get("proposal_scale", 0.1),
                          seed=seed,
                          adapt=bool(m.get("adapt", True)))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid mcmc section: {exc}") from None


def priors_from_config(cfg: dict, beam: BeamConfig) -> dict:
    """Bounded stiffness priors: factors of the true EI (and kGA)."""
    pr = cfg.get("priors", {})
    try:
        ei = pr.get("EI", {})
        priors = experiments.stiffness_priors(
            beam, lo=float(ei.get("lo_factor", 0.5)),
            hi=float(ei.get("hi_factor", 1.5)))
        if "kGA" in pr:
            priors["kGA"] = mcmc.UniformBounded(
                float(pr["kGA"].get("lo_factor", 0.5)) * beam.kGA_true,
                float(pr["kGA"].get("hi_factor", 1.5)) * beam.kGA_true)
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid priors section: {exc}") from None
    return priors


def bcs_from_config(cfg: dict, beam: BeamConfig) -> list:
    out = []
    for i, spec in enumerate(cfg.get("bcs", [])):
        try:
            bc = BoundaryCondition(
                kind=_kind(spec["kind"]),
                x=np.asarray(spec["locations"], float),
                y=np.asarray(spec["values"], float)
                if "values" in spec else None)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid bc entry: {exc}") from None
        off = bc.x[(bc.x < 0.0) | (bc.x > beam.L)]
        if off.size:
            raise ConfigError(f"bcs[{i}] ({bc.kind.code}): location "
                              f"{float(off[0])!r} is off the span "
                              f"[0, {beam.L!r}]")
        out.append(bc)
    return out


def read_data(paths, beam: BeamConfig) -> list:
    """Datasets from CSV files, each row's x checked against the span."""
    datasets = []
    for path in paths:
        datasets.extend(read_datasets_csv(path, span=beam.L))
    return datasets


def resolve_locations(spec: dict, beam: BeamConfig) -> np.ndarray:
    """Dataset locations: explicit list, interior grid, or placement ref."""
    if "locations" in spec:
        return np.asarray(spec["locations"], float)
    if "grid" in spec:
        n = int(spec["grid"])
        if spec.get("include_ends", False):
            return np.linspace(0.0, beam.L, n)
        return np.linspace(0.0, beam.L, n + 2)[1:-1]
    if "placement" in spec:
        p = spec["placement"]
        return experiments.sensor_set(
            beam, _kind(p.get("kind", spec["kind"])),
            _criterion(p.get("criterion", "physics")),
            n_sensors=int(p.get("n_sensors", 7)),
            n_candidates=int(p.get("n_candidates", 31)),
            ell=p.get("ell"),
            with_bcs=bool(p.get("with_bcs", True)))
    raise ConfigError("dataset needs 'locations', 'grid' or 'placement'")


def _write_manifest(out_dir: Path, cfg: dict, seed: int, outputs: dict):
    manifest = {
        "config_sha256": config_hash(cfg),
        "root_seed": seed,
        "outputs": outputs,
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)


def cmd_simulate(cfg: dict, out_dir: Path, seed: int) -> int:
    beam = beam_from_config(cfg)
    outputs = {}
    datasets = []
    for i, spec in enumerate(cfg.get("datasets", [])):
        kind = _kind(spec["kind"])
        locs = resolve_locations(spec, beam)
        ndp = int(spec.get("ndp", 1))
        if ndp < 1:
            raise ConfigError("ndp must be >= 1")
        locs = np.tile(locs, ndp)
        ds_seed = experiments.replication_seed(seed, i, 0)
        if spec.get("sigma_n") is not None:
            noise = NoiseSpec(sigma_n=float(spec["sigma_n"]), seed=ds_seed)
        elif spec.get("snr") is not None:
            noise = NoiseSpec(snr=float(spec["snr"]), seed=ds_seed)
        else:
            noise = NoiseSpec(sigma_n=0.0, seed=ds_seed)
        ds = beam_mod.synthesize_dataset(
            beam, kind, locs, noise, z=spec.get("z"),
            label=spec.get("label", f"ds{i}"),
            learn_noise=bool(spec.get("learn_noise", False)))
        datasets.append(ds)
        outputs[f"data_{ds.label}.csv"] = {"seed": ds_seed}
        write_datasets_csv(out_dir / f"data_{ds.label}.csv", [ds])
    _write_manifest(out_dir, cfg, seed, outputs)
    return EXIT_OK


def cmd_place(cfg: dict, out_dir: Path, seed: int,
              full_scale: bool = False) -> int:
    beam = beam_from_config(cfg)
    p = cfg.get("placement")
    if p is None:
        raise ConfigError("config lacks a placement section")
    n_candidates = int(p.get("n_candidates", 31))
    n_sensors = int(p.get("n_sensors", 7))
    params = experiments.placement_params(beam, ell=p.get("ell"),
                                          sigma_s2=p.get("sigma_s2", 1.0))
    bcs = bcs_from_config(cfg, beam)
    candidates = np.linspace(0.0, beam.L, n_candidates)
    kinds = [_kind(k) for k in p.get("kinds", ["w"])]
    criteria = [_criterion(c) for c in p.get("criteria", ["physics"])]

    # The map does not depend on the criterion: one per kind, written for
    # each criterion.
    maps = {}
    if p.get("entropy_map", False):
        for kind in kinds:
            maps[kind] = placement.exhaustive_entropy_map(
                PlacementProblem(candidates=candidates, kinds=kind,
                                 n_sensors=n_sensors, params=params, bcs=bcs),
                max_combos=int(p.get("max_combos", 300_000)),
                full_scale=full_scale)

    results = []
    outputs = {}
    for crit in criteria:
        for kind in kinds:
            problem = PlacementProblem(candidates=candidates, kinds=kind,
                                       n_sensors=n_sensors, params=params,
                                       bcs=bcs, criterion=crit)
            res = greedy_place(problem)
            results.append({
                "criterion": crit.value,
                "kind": kind.code,
                "selected": [{"x": x, "kind": k.code}
                             for x, k in res.selected],
                "step_entropies": res.step_entropies,
                "set_entropy": res.set_entropy,
                "params": {"sigma_s2": params.sigma_s2, "ell": params.ell,
                           "EI": params.EI, "kGA": params.kGA},
            })
            if kind in maps:
                name = f"entropy_map_{crit.value}_{kind.code}.csv"
                with open(out_dir / name, "w", newline="",
                          encoding="utf-8") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(["subset", "normalized_entropy"])
                    for subset, h in maps[kind]:
                        writer.writerow(["|".join(map(str, subset)), repr(h)])
                outputs[name] = {"seed": seed}

    with open(out_dir / "placement.json", "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
    outputs["placement.json"] = {"seed": seed}
    _write_manifest(out_dir, cfg, seed, outputs)
    return EXIT_OK


def _noise_level(label: str, key: str, value) -> float:
    try:
        sigma = float(value)
    except (TypeError, ValueError):
        sigma = math.nan
    if not 0 <= sigma < math.inf:
        raise ConfigError(f"dataset {label!r}: {key} must be a non-negative "
                          f"finite number, got {value!r}")
    return sigma


def _apply_dataset_config(datasets: list, cfg: dict, beam: BeamConfig):
    """Attach noise treatment from the config to CSV-loaded datasets."""
    by_label = {spec.get("label"): spec for spec in cfg.get("datasets", [])}
    for ds in datasets:
        spec = by_label.get(ds.label, {})
        if "sigma_n" in spec and spec["sigma_n"] is not None:
            ds.sigma_n = _noise_level(ds.label, "sigma_n", spec["sigma_n"])
            ds.learn_noise = bool(spec.get("learn_noise", False))
        elif ds.kind is QuantityKind.LOAD:
            ds.sigma_n = experiments.LOAD_NOISE_FACTOR * \
                max(float(np.max(np.abs(ds.y))), 1e-300)
            ds.learn_noise = False
        else:
            ds.sigma_n = _noise_level(
                ds.label, "sigma_n_init", spec.get("sigma_n_init", 0.0)) \
                or 0.05 * float(np.std(ds.y))
            ds.learn_noise = bool(spec.get("learn_noise", True))


def _write_chain_csv(path, chain: PosteriorChain):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(chain.param_names)
        for row in chain.draws:
            writer.writerow([repr(float(v)) for v in row])


def _read_chain_csv(path) -> PosteriorChain:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            names = next(reader)
        except StopIteration:
            raise DataFormatError(path, 1, "empty chain file") from None
        rows = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(names):
                raise DataFormatError(path, line_no,
                                      f"expected {len(names)} fields, "
                                      f"got {len(row)}")
            try:
                values = [float(v) for v in row]
            except ValueError as exc:
                raise DataFormatError(path, line_no, str(exc)) from None
            for name, value in zip(names, values):
                if not np.isfinite(value):
                    raise DataFormatError(path, line_no,
                                          f"{name} must be finite, got "
                                          f"{value!r}")
            rows.append(values)
    draws = np.asarray(rows)
    thetas = mcmc.thetas_from_draws(draws, names)
    return PosteriorChain(param_names=names, draws=draws, thetas=thetas,
                          acceptance_rate=float("nan"),
                          log_posterior_trace=np.array([]), seed=-1)


def _dump_kernel_matrix(out_dir, datasets, bcs, theta):
    model = gp.assemble(datasets, bcs, theta)
    np.savetxt(out_dir / "kernel_matrix.csv", model.K, delimiter=",")


def cmd_identify(cfg: dict, out_dir: Path, seed: int, data_paths,
                 dump_kernels: bool = False) -> int:
    beam = beam_from_config(cfg)
    datasets = read_data(data_paths, beam)
    if not datasets:
        raise DataFormatError(data_paths[0] if data_paths else "<none>", 1,
                              "no datasets loaded")
    _apply_dataset_config(datasets, cfg, beam)
    bcs = bcs_from_config(cfg, beam)
    priors = priors_from_config(cfg, beam)
    mcfg = mcmc_from_config(cfg, seed)
    theta0 = experiments.default_theta0(datasets, beam, priors)
    if dump_kernels:
        _dump_kernel_matrix(out_dir, datasets, bcs, theta0)
    chain = experiments.identify(datasets, bcs, beam, mcfg, priors=priors,
                                 theta0=theta0)

    _write_chain_csv(out_dir / "chain.csv", chain)
    stats = mcmc.summarize(chain)
    summary = {name: s for name, s in stats.items()}
    summary["EI_normalized"] = stats["EI"]["mean"] / beam.EI_true
    summary["kGA_normalized"] = stats["kGA"]["mean"] / beam.kGA_true
    with open(out_dir / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    diagnostics = {
        "acceptance_rate": chain.acceptance_rate,
        "seed": seed,
        "ess": {name: mcmc.effective_sample_size(chain.draws[:, i])
                for i, name in enumerate(chain.param_names)},
        "log_target": chain.target_counts,
    }
    with open(out_dir / "diagnostics.json", "w", encoding="utf-8") as fh:
        json.dump(diagnostics, fh, indent=2, sort_keys=True)
    _write_manifest(out_dir, cfg, seed, {
        "chain.csv": {"seed": seed},
        "summary.json": {"seed": seed},
        "diagnostics.json": {"seed": seed},
    })
    return EXIT_OK


def _write_prediction_csv(path, pred: gp.Prediction):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "x", "z", "mean", "var"])
        for i in range(pred.x_star.size):
            z = "" if pred.z_star is None else repr(float(pred.z_star[i]))
            writer.writerow([pred.kind.code, repr(float(pred.x_star[i])), z,
                             repr(float(pred.mean[i])),
                             repr(float(pred.var[i]))])


def cmd_predict(cfg: dict, out_dir: Path, seed: int, chain_path,
                data_paths) -> int:
    beam = beam_from_config(cfg)
    datasets = read_data(data_paths, beam)
    _apply_dataset_config(datasets, cfg, beam)
    bcs = bcs_from_config(cfg, beam)
    chain = _read_chain_csv(chain_path)
    pcfg = cfg.get("predict", {})
    max_draws = int(pcfg.get("max_draws", 100))
    if len(chain.thetas) > max_draws:
        idx = np.linspace(0, len(chain.thetas) - 1, max_draws).astype(int)
        chain.thetas = [chain.thetas[i] for i in idx]
        chain.draws = chain.draws[idx]

    n_grid = int(pcfg.get("n_grid", 101))
    x_star = np.linspace(0.0, beam.L, n_grid)
    queries = []
    for code in pcfg.get("kinds", ["w"]):
        kind = _kind(code)
        if kind is QuantityKind.STRAIN:
            sg = pcfg.get("strain_grid", {"nx": 31, "nz": 11})
            xs = np.linspace(0.0, beam.L, int(sg["nx"]))
            zs = np.linspace(-beam.h / 2.0, beam.h / 2.0, int(sg["nz"]))
            xx, zz = np.meshgrid(xs, zs, indexing="ij")
            queries.append((kind, xx.ravel(), zz.ravel()))
        else:
            queries.append((kind, x_star, None))
    outputs = {}
    for pred in gp.predict_mixture(datasets, bcs, chain, queries):
        name = f"pred_{pred.kind.code}.csv"
        _write_prediction_csv(out_dir / name, pred)
        outputs[name] = {"seed": seed}
    _write_manifest(out_dir, cfg, seed, outputs)
    return EXIT_OK


def cmd_study(cfg: dict, out_dir: Path, seed: int, study_name: str,
              full_scale: bool = False) -> int:
    scfg = cfg.get("study", {}).get(study_name)
    if scfg is None:
        raise ConfigError(f"config lacks study.{study_name}")
    mcfg = mcmc_from_config(cfg, seed)
    reps = int(scfg.get("replications", 50))
    if full_scale:
        reps = int(scfg.get("full_replications", 1000))

    study = experiments.STUDIES[study_name]
    settings = {k: float(scfg[k]) for k in study.settings if k in scfg}
    points = experiments.sweep_study(
        study_name, scfg.get(study.config_key, study.default), reps, seed,
        mcfg, **settings)

    name = f"study_{study_name}.csv"
    fields = ["sweep_value", "n_reps", "n_failed",
              "EI_mean", "EI_mean_std", "EI_post_std", "EI_ci_lo", "EI_ci_hi",
              "kGA_mean", "kGA_mean_std", "kGA_post_std", "kGA_ci_lo",
              "kGA_ci_hi"]
    with open(out_dir / name, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(fields)
        for value, agg in points.items():
            writer.writerow([repr(float(value))] +
                            [repr(agg[k]) if k in agg else ""
                             for k in fields[1:]])
    _write_manifest(out_dir, cfg, seed, {name: {"seed": seed}})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timopigp",
        description="Physics-informed GP toolkit for static Timoshenko beams")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="root seed (overrides config)")

    p = sub.add_parser("simulate", help="synthesize noisy datasets")
    common(p)
    p = sub.add_parser("place", help="run sensor placement criteria")
    common(p)
    p.add_argument("--full-scale", action="store_true",
                   help="lift enumeration and replication guards")
    p = sub.add_parser("identify", help="MH stiffness identification")
    common(p)
    p.add_argument("--data", nargs="+", required=True,
                   help="dataset CSV files")
    p.add_argument("--dump-kernels", action="store_true",
                   help="dump the assembled covariance matrix as CSV")
    p = sub.add_parser("predict", help="mixture predictions from a chain")
    common(p)
    p.add_argument("--chain", required=True, help="chain CSV from identify")
    p.add_argument("--data", nargs="+", required=True,
                   help="dataset CSV files used in training")
    p = sub.add_parser("study", help="replicated sweep studies")
    common(p)
    p.add_argument("--study", required=True,
                   choices=list(experiments.STUDIES))
    p.add_argument("--full-scale", action="store_true",
                   help="lift enumeration and replication guards")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None \
            else int(cfg.get("seed", 0))
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"error: cannot create output dir: {exc}", file=sys.stderr)
            return EXIT_DATA

        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir, seed)
        if args.command == "place":
            return cmd_place(cfg, out_dir, seed,
                             full_scale=args.full_scale)
        if args.command == "identify":
            return cmd_identify(cfg, out_dir, seed, args.data,
                                dump_kernels=args.dump_kernels)
        if args.command == "predict":
            return cmd_predict(cfg, out_dir, seed, args.chain, args.data)
        if args.command == "study":
            return cmd_study(cfg, out_dir, seed, args.study,
                             full_scale=args.full_scale)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, EnumerationGuardError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, FileNotFoundError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (IllConditionedModelError, NonFiniteCovarianceError,
            StuckChainError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
