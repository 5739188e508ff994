"""Command-line front end: simulate | place | identify | predict | study.

Configs are versioned JSON; all tabular output is CSV.  A command takes
every output path from its run's ``Run``, which records the file with its
generating seed; ``main`` writes that record and the config hash as
manifest.json.  All randomness flows from a single root seed expanded
per (sweep point, replication).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from timopigp import beam as beam_mod
from timopigp import experiments, gp, mcmc, placement
from timopigp.beam import BeamConfig, NoiseSpec
from timopigp.data import (BoundaryCondition, finite_floats, read_csv,
                           read_datasets_csv, write_csv, write_datasets_csv,
                           write_map_csv)
from timopigp.errors import (DataFormatError, EntropyOverflowError,
                             EnumerationGuardError, IllConditionedModelError,
                             NonFiniteCovarianceError, StuckChainError)
from timopigp.mcmc import McmcConfig
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
    """The JSON object at ``path``: version 1, each key in CONFIG_KEYS."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh, object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    version = cfg.get("version") if isinstance(cfg, dict) else None
    if not _real(version) or version != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {version!r}; "
                          f"expected {CONFIG_VERSION}")
    _check_keys(cfg, CONFIG_KEYS, "config")
    return cfg


def _unique_keys(pairs) -> dict:
    """A JSON object of ``pairs``; a key given twice is a ConfigError."""
    keys = [key for key, _ in pairs]
    for key in keys:
        if keys.count(key) > 1:
            raise ConfigError(f"key {key!r} appears twice in one object")
    return dict(pairs)


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _read(spec: dict, where: str, key: str, parse, default=...):
    """``parse(spec[key])``, or ``parse(default)`` when the key is absent.

    Every config value is read here.  A null where the default is None
    reads as absent.  A missing key without a default (``...``), or a
    value that ``parse`` refuses with a TypeError, ValueError or
    OverflowError, is a ConfigError "<where>: <key> ..." quoting the
    parser's docstring, which says what it accepts.
    """
    value = spec.get(key, default)
    if value is None and default is None:
        return None
    if value is ...:
        raise ConfigError(f"{where}: {key} is missing")
    try:
        return parse(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{where}: {key} must be {parse.__doc__}, "
                          f"got {value!r}") from None


def _parser(what: str, test=None, convert=None):
    """A parser of the values ``test`` accepts, through ``convert``."""
    def parse(value):
        if test is not None and not test(value):
            raise ValueError
        return value if convert is None else convert(value)
    parse.__doc__ = what
    return parse


def _real(value, low=-math.inf, above=False) -> bool:
    """A finite JSON number, not a boolean, at least ``low`` (or above)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value)
            and (value > low if above else value >= low))


def _list(parse, what: str):
    return _parser(what, lambda v: isinstance(v, (list, tuple)),
                   lambda v: [parse(item) for item in v])


_switch = _parser("true or false", lambda v: isinstance(v, bool))
_label = _parser("a non-empty string without / or \\", lambda v: (
    isinstance(v, str) and v and not set(v) & set("/\\")))
_section = _parser("an object", lambda v: isinstance(v, dict))
# Not finite: the entries that check a value's finiteness name it.
_number = _parser("a number", lambda v: _real(v) or isinstance(v, float),
                  float)
_finite = _parser("a finite number", _real, float)
_level = _parser("a non-negative finite number", lambda v: _real(v, 0.0),
                 float)
# Kept as written: placement.json echoes the prior's sigma_s2 and ell.
_scale = _parser("a positive finite number", lambda v: _real(v, 0.0, True))
_positive = _parser(_scale.__doc__, convert=lambda v: float(_scale(v)))
_count = _parser("a whole number >= 0",
                 lambda v: _real(v, 0.0) and v == int(v), int)
_repeats = _parser("a whole number >= 1",
                   lambda v: _real(v, 1.0) and v == int(v), int)
_kind = _parser("a quantity code (w, phi, eps, M, V or q)",
                convert=QuantityKind)
_criterion = _parser("a placement criterion (physics, entropy or mi)",
                     convert=PlacementCriterion)
_numbers = _list(_number, "a list of numbers")
_positives = _list(_positive, "a list of positive finite numbers")
_depths = _parser("a number or a list of numbers", convert=lambda v:
                  _numbers(v) if isinstance(v, list) else _finite(v))
_scales = _parser("a positive finite number or an object of them",
                  lambda v: all(_real(s, 0.0, True) for s in (
                      v.values() if isinstance(v, dict) else [v])))
_kinds = _list(_kind, "a list of quantity codes")
_criteria = _list(_criterion, "a list of placement criteria")
_sections = _list(_section, "a list of objects")


# The mcmc section's keys, McmcConfig's fields but the seed, and parsers.
_MCMC = {"n_total": _count, "n_b": _count, "n_t": _repeats,
         "proposal_scale": _scales}


def _keys(*values, **sections) -> dict:
    """A section's accepted keys: None marks a value, a table a section
    and a one-table list a list of sections."""
    return dict(dict.fromkeys(values), **sections)


# Every key that a reader below reads, by section.  A dataset takes what
# simulate reads and the noise treatment that identify and predict read;
# a study's section takes its swept list, replications and its settings.
CONFIG_KEYS = _keys(
    "version", "seed",
    beam=_keys("L", "EI", "kGA", "q0", "h"),
    bcs=[_keys("kind", "locations", "values")],
    datasets=[_keys("kind", "label", "locations", "grid", "include_ends",
                    "ndp", "sigma_n", "snr", "z", "learn_noise",
                    placement=_keys("kind", "criterion", "n_sensors",
                                    "n_candidates", "ell", "with_bcs"))],
    priors=_keys(EI=_keys("lo_factor", "hi_factor"),
                 kGA=_keys("lo_factor", "hi_factor")),
    mcmc=_keys(*_MCMC),
    predict=_keys("max_draws", "n_grid", "kinds",
                  strain_grid=_keys("nx", "nz")),
    placement=_keys("n_candidates", "n_sensors", "kinds", "criteria", "ell",
                    "sigma_s2", "entropy_map"),
    study=_keys(**{name: _keys(study.config_key, "replications",
                               *study.settings)
                   for name, study in experiments.STUDIES.items()}))


def _check_keys(spec, table, where: str):
    """Refuse a key of ``spec`` that ``table`` does not declare, at every
    depth, as "<where>: unknown key".  A value of another type than its
    table's is left to the reader that parses it."""
    if isinstance(table, list):
        for i, item in enumerate(spec if isinstance(spec, list) else ()):
            _check_keys(item, table[0], f"{where}[{i}]")
    elif isinstance(table, dict) and isinstance(spec, dict):
        for key, value in spec.items():
            if key not in table:
                raise ConfigError(f"{where}: unknown key {key!r}")
            _check_keys(value, table[key],
                        key if where == "config" else f"{where}.{key}")


def beam_from_config(cfg: dict) -> BeamConfig:
    b = _read(cfg, "config", "beam", _section)
    return BeamConfig(L=_read(b, "beam", "L", _positive),
                      EI_true=_read(b, "beam", "EI", _positive),
                      kGA_true=_read(b, "beam", "kGA", _positive),
                      q0=_read(b, "beam", "q0", _finite),
                      h=_read(b, "beam", "h", _positive, BeamConfig.h))


def mcmc_from_config(cfg: dict, seed: int) -> McmcConfig:
    m = _read(cfg, "config", "mcmc", _section, {})
    try:
        return McmcConfig(seed=seed, **{
            key: _read(m, "mcmc", key, parse, getattr(McmcConfig, key))
            for key, parse in _MCMC.items()})
    except ValueError as exc:   # n_b against n_total
        raise ConfigError(f"mcmc: {exc}") from None


def priors_from_config(cfg: dict, beam: BeamConfig) -> dict:
    """Bounded-uniform stiffness priors (``experiments.stiffness_priors``)
    from each stiffness's own section of positive lo_factor < hi_factor."""
    pr = _read(cfg, "config", "priors", _section, {})
    factors = {}
    for name in ("EI", "kGA"):
        if name in pr:
            where = f"priors.{name}"
            spec = _read(pr, "priors", name, _section)
            lo, hi = factors[name] = tuple(
                _read(spec, where, key, _positive, default)
                for key, default in zip(("lo_factor", "hi_factor"),
                                        experiments.PRIOR_FACTORS))
            if not lo < hi:
                raise ConfigError(f"{where}: lo_factor must be below "
                                  f"hi_factor, got {lo!r} and {hi!r}")
    return experiments.stiffness_priors(beam, factors)


def bcs_from_config(cfg: dict, beam: BeamConfig) -> list:
    out = []
    for i, spec in enumerate(_read(cfg, "config", "bcs", _sections, [])):
        where = f"bcs[{i}]"
        try:
            bc = BoundaryCondition(
                kind=_read(spec, where, "kind", _kind),
                x=_read(spec, where, "locations", _numbers),
                y=_read(spec, where, "values", _numbers, None))
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        off = bc.x[(bc.x < 0.0) | (bc.x > beam.L)]
        if off.size:
            raise ConfigError(f"{where} ({bc.kind.code}): location "
                              f"{float(off[0])!r} is off the span "
                              f"[0, {beam.L!r}]")
        out.append(bc)
    return out


def _budget(p: dict, where: str, sensors=_count) -> tuple:
    """(n_sensors, n_candidates) of a placement section: at least one
    candidate, and no more sensors than candidates."""
    n_sensors = _read(p, where, "n_sensors", sensors, 7)
    n_candidates = _read(p, where, "n_candidates", _count, 31)
    if n_candidates == 0:
        raise ConfigError(f"{where}: n_candidates: placement needs at least "
                          "one candidate")
    if n_sensors > n_candidates:
        raise ConfigError(f"{where}: n_sensors exceeds candidate count "
                          f"({n_sensors} > {n_candidates})")
    return n_sensors, n_candidates


def _entries(spec: dict, where: str, key: str, parse, default) -> list:
    """A list of distinct values, at least one: each names an output."""
    values = _read(spec, where, key, parse, default)
    if not values or len(set(values)) < len(values):
        raise ConfigError(f"{where}: {key}: needs at least one entry and "
                          f"no repeats, got {spec.get(key)!r}")
    return values


def resolve_locations(spec: dict, beam: BeamConfig, where: str,
                      kind: QuantityKind) -> np.ndarray:
    """Dataset locations from exactly one of an explicit list, an interior
    grid and a placement reference."""
    given = [key for key in ("locations", "grid", "placement") if key in spec]
    if len(given) != 1:
        raise ConfigError(f"{where}: needs one of 'locations', 'grid' or "
                          f"'placement', got {given or 'none'}")
    if "include_ends" in spec and given != ["grid"]:
        raise ConfigError(f"{where}: include_ends needs grid")
    (key,) = given
    if key == "locations":
        locs = _read(spec, where, "locations", _numbers)
    elif key == "grid":
        n = _read(spec, where, "grid", _count)
        locs = np.linspace(0.0, beam.L, n) \
            if _read(spec, where, "include_ends", _switch, False) \
            else np.linspace(0.0, beam.L, n + 2)[1:-1]
    else:
        p = _read(spec, where, "placement", _section)
        where, key = f"{where}.placement", "n_sensors"
        locs = experiments.sensor_set(
            beam, _read(p, where, "kind", _kind, kind),
            _read(p, where, "criterion", _criterion, "physics"),
            *_budget(p, where),
            ell=_read(p, where, "ell", _scale, None),
            with_bcs=_read(p, where, "with_bcs", _switch, True))
    if not len(locs):
        raise ConfigError(f"{where}: {key}: locations must not be empty")
    return np.asarray(locs)


def _dataset_specs(cfg: dict) -> dict:
    """The config's datasets as {name: (i, entry)}, in order: entry i is
    named by its ``label``, else ``ds<i>``, and no two share a name."""
    specs = {}
    for i, spec in enumerate(_read(cfg, "config", "datasets", _sections, [])):
        label = _read(spec, f"datasets[{i}]", "label", _label, f"ds{i}")
        if label != label.strip():  # the dataset CSV reader strips ids
            raise ConfigError(f"datasets[{i}]: label {label!r} starts or "
                              "ends with whitespace")
        if label in specs:
            raise ConfigError(f"datasets[{i}]: label {label!r} is also "
                              f"datasets[{specs[label][0]}]'s")
        specs[label] = (i, spec)
    return specs


class Run:
    """One command run's writer: it makes the output directory, and every
    output path comes from ``path``, which records the file's seed."""

    def __init__(self, out_dir, seed: int):
        self.out_dir, self.seed, self.outputs = Path(out_dir), seed, {}
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def path(self, name: str, seed: int | None = None) -> Path:
        self.outputs[name] = {"seed": self.seed if seed is None else seed}
        return self.out_dir / name


def _write_json(path: Path, value, sort_keys: bool = False):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(value, fh, indent=2, sort_keys=sort_keys)


def cmd_simulate(cfg: dict, run: Run, args) -> int:
    beam = beam_from_config(cfg)
    made = []
    for label, (i, spec) in _dataset_specs(cfg).items():
        where = f"datasets[{i}]"
        kind = _read(spec, where, "kind", _kind)
        if spec.get("z") is not None and kind is not QuantityKind.STRAIN:
            raise ConfigError(f"{where}: z needs kind eps, got {kind.code!r}")
        locs = resolve_locations(spec, beam, where, kind)
        locs = np.tile(locs, _read(spec, where, "ndp", _repeats, 1))
        ds_seed = experiments.replication_seed(run.seed, i, 0)
        sigma_n = _read(spec, where, "sigma_n", _level, None)
        snr = _read(spec, where, "snr", _positive, None)
        if sigma_n is not None and snr is not None:
            raise ConfigError(f"{where}: sigma_n and snr exclude each other")
        noise = NoiseSpec(snr=snr, seed=ds_seed) if snr is not None \
            else NoiseSpec(sigma_n=sigma_n or 0.0, seed=ds_seed)
        made.append((ds_seed, beam_mod.synthesize_dataset(
            beam, kind, locs, noise, z=_read(spec, where, "z", _depths, None),
            label=label)))
    # Every entry is made before the first file is written.
    for ds_seed, ds in made:
        write_datasets_csv(run.path(f"data_{ds.label}.csv", ds_seed), [ds])
    return EXIT_OK


def cmd_place(cfg: dict, run: Run, args) -> int:
    beam = beam_from_config(cfg)
    p = _read(cfg, "config", "placement", _section)
    entropy_map = _read(p, "placement", "entropy_map", _switch, False)
    # A map ranks subsets of at least one sensor.
    n_sensors, n_candidates = _budget(p, "placement",
                                      _repeats if entropy_map else _count)
    params = experiments.placement_params(
        beam, ell=_read(p, "placement", "ell", _scale, None),
        sigma_s2=_read(p, "placement", "sigma_s2", _scale, 1.0))
    bcs = bcs_from_config(cfg, beam)
    candidates = np.linspace(0.0, beam.L, n_candidates)
    kinds = _entries(p, "placement", "kinds", _kinds, ["w"])
    criteria = _entries(p, "placement", "criteria", _criteria, ["physics"])

    # One prior for every problem: K_bb is factorized once, and each
    # kind's candidate Sigma built once for its map and its greedies.
    # Each kind is its own problem, with its own budget of n_sensors.
    prior = placement.Prior(bcs, params)
    if entropy_map:
        maps = {kind: placement.exhaustive_entropy_map(
            PlacementProblem(candidates=candidates, kinds=kind,
                             n_sensors=n_sensors, prior=prior),
            max_combos=math.inf if args.full_scale else placement.MAX_COMBOS)
            for kind in kinds}
        for kind, values in maps.items():
            # The map does not depend on the criterion: its rows are
            # formatted once and written to each criterion's file.
            paths = [run.path(f"entropy_map_{crit.value}_{kind.code}.csv")
                     for crit in criteria]
            write_map_csv(paths, n_candidates, n_sensors, values)

    results = []
    for crit in criteria:
        for kind in kinds:
            res = greedy_place(PlacementProblem(
                candidates=candidates, kinds=kind, n_sensors=n_sensors,
                prior=prior, criterion=crit))
            if res.selected and res.set_entropy is None:
                print(f"warning: placement {crit.value} {kind.code}: the "
                      "set's entropy overflowed; set_entropy is null",
                      file=sys.stderr)
            results.append({
                "criterion": crit.value,
                "kind": kind.code,
                "selected": [{"x": x, "kind": k.code}
                             for x, k in res.selected],
                "step_entropies": res.step_entropies,
                "set_entropy": res.set_entropy,
                "params": {name: getattr(params, name)
                           for name in gp.Theta.FIELDS},
            })

    _write_json(run.path("placement.json"), results)
    return EXIT_OK


def read_model_inputs(cfg: dict, data_paths) -> tuple:
    """(beam, datasets, BCs) for identify and predict.

    The datasets of the CSV files, each row's x checked against the span,
    noise set (``experiments.set_noise``) by their config entries.  A
    dataset id in a second file (or the same file twice) is refused, and
    so is an entry with noise keys that names no loaded dataset.
    """
    beam = beam_from_config(cfg)
    origin = {}
    for path in data_paths:
        for ds in read_datasets_csv(path, beam.L):
            if ds.label in origin:
                raise DataFormatError(path, 1, f"dataset {ds.label!r} is "
                                      f"also in {origin[ds.label][0]}")
            origin[ds.label] = path, ds
    datasets = [ds for _, ds in origin.values()]
    if not datasets:
        raise DataFormatError(data_paths[0] if data_paths else "<none>", 1,
                              "no datasets loaded")
    specs = _dataset_specs(cfg)
    loaded = [ds.label for ds in gp.order_entries(datasets, [])]
    for label, (i, spec) in specs.items():
        if label not in loaded and (spec.get("sigma_n") is not None
                                    or spec.get("learn_noise") is not None):
            raise ConfigError(f"datasets[{i}]: label {label!r} sets a noise "
                              "key but names no dataset of --data (loaded: "
                              f"{', '.join(map(repr, loaded))})")
    levels, learn = {}, {}
    for label in loaded:
        spec, where = specs.get(label, (None, {}))[1], f"dataset {label!r}"
        levels[label] = _read(spec, where, "sigma_n", _level, None)
        if "learn_noise" in spec:  # a null is refused, not read as absent
            learn[label] = _read(spec, where, "learn_noise", _switch)
    experiments.set_noise(datasets, levels, learn)
    return beam, datasets, bcs_from_config(cfg, beam)


def cmd_identify(cfg: dict, run: Run, args) -> int:
    beam, datasets, bcs = read_model_inputs(cfg, args.data)
    priors = priors_from_config(cfg, beam)
    mcfg = mcmc_from_config(cfg, run.seed)
    if args.dump_kernels:
        # K at the chain's start point.
        theta0 = experiments.default_theta0(datasets, beam, priors)
        np.savetxt(run.path("kernel_matrix.csv"),
                   gp.assemble(datasets, bcs, theta0).K, delimiter=",")
    chain = experiments.identify(datasets, bcs, beam, mcfg, priors=priors)

    write_csv(run.path("chain.csv"), chain.param_names, chain.draws.tolist())
    stats = mcmc.summarize(chain)
    _write_json(run.path("summary.json"), dict(
        stats, EI_normalized=stats["EI"]["mean"] / beam.EI_true,
        kGA_normalized=stats["kGA"]["mean"] / beam.kGA_true), sort_keys=True)
    _write_json(run.path("diagnostics.json"), {
        "acceptance_rate": chain.acceptance_rate,
        "seed": run.seed,
        "ess": {name: mcmc.effective_sample_size(chain.draws[:, i])
                for i, name in enumerate(chain.param_names)},
        "log_target": chain.target_counts,
    }, sort_keys=True)
    return EXIT_OK


def cmd_predict(cfg: dict, run: Run, args) -> int:
    beam, datasets, bcs = read_model_inputs(cfg, args.data)
    learned = sorted(ds.label for ds in datasets if ds.learn_noise)

    def chain_row(names):
        codec = mcmc.ThetaCodec(names)
        if sorted(codec.labels) != learned:
            raise ValueError(f"noise columns for {sorted(codec.labels)}, but "
                             f"the config learns the noise of {learned}")
        return lambda fields: codec.theta(finite_floats(names, fields))

    thetas = read_csv(args.chain, chain_row, empty="empty chain file")
    if not thetas:  # a header without rows
        raise DataFormatError(args.chain, 1, "empty chain file")
    pcfg = _read(cfg, "config", "predict", _section, {})
    max_draws = _read(pcfg, "predict", "max_draws", _repeats, 100)
    if len(thetas) > max_draws:
        idx = np.linspace(0, len(thetas) - 1, max_draws).astype(int)
        thetas = [thetas[i] for i in idx]

    x_star = np.linspace(0.0, beam.L,
                         _read(pcfg, "predict", "n_grid", _repeats, 101))
    queries = []
    for kind in _entries(pcfg, "predict", "kinds", _kinds, ["w"]):
        if kind is QuantityKind.STRAIN:
            sg = _read(pcfg, "predict", "strain_grid", _section, {})
            where = "predict.strain_grid"
            xs = np.linspace(0.0, beam.L, _read(sg, where, "nx", _repeats, 31))
            zs = np.linspace(-beam.h / 2.0, beam.h / 2.0,
                             _read(sg, where, "nz", _repeats, 11))
            xx, zz = np.meshgrid(xs, zs, indexing="ij")
            queries.append((kind, xx.ravel(), zz.ravel()))
        else:
            queries.append((kind, x_star, None))
    for pred in gp.predict_mixture(datasets, bcs, thetas, queries):
        n = pred.x_star.size
        z = [None] * n if pred.z_star is None else pred.z_star
        write_csv(run.path(f"pred_{pred.kind.code}.csv"),
                  ["kind", "x", "z", "mean", "var"],
                  zip([pred.kind.code] * n, pred.x_star, z, pred.mean,
                      pred.var))
    return EXIT_OK


def cmd_study(cfg: dict, run: Run, args) -> int:
    where = f"study.{args.study}"
    scfg = _read(_read(cfg, "config", "study", _section, {}), "study",
                 args.study, _section)
    mcfg = mcmc_from_config(cfg, run.seed)
    reps = _read(scfg, where, "replications", _repeats, 50)

    study = experiments.STUDIES[args.study]
    settings = {k: _read(scfg, where, k, _positive)
                for k in study.settings if k in scfg}
    points = experiments.sweep_study(
        args.study, _read(scfg, where, study.config_key, _positives,
                          study.default), reps, run.seed, mcfg, **settings)

    fields = ["sweep_value", "n_reps", "n_failed"] + [
        f"{p}_{stat}" for p in ("EI", "kGA")
        for stat in ("mean", "mean_std", "post_std", "ci_lo", "ci_hi")]
    write_csv(run.path(f"study_{args.study}.csv"), fields,
              ([value] + [agg.get(k) for k in fields[1:]]
               for value, agg in points.items()))
    failures = f"study_{args.study}_failures.json"
    _write_json(run.path(failures), [dict(sweep_value=value, **failure)
                                     for value, agg in points.items()
                                     for failure in agg["failures"]])
    n_failed = sum(agg["n_failed"] for agg in points.values())
    if n_failed and not any(agg["n_reps"] for agg in points.values()):
        print(f"numerical failure: no replication succeeded ({n_failed} "
              f"failed); see {failures}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="timopigp",
        description="Physics-informed GP toolkit for static Timoshenko beams")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, func):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="root seed (overrides config)")
        return p

    command("simulate", "synthesize noisy datasets", cmd_simulate)
    p = command("place", "run sensor placement criteria", cmd_place)
    p.add_argument("--full-scale", action="store_true",
                   help="lift the entropy map's enumeration guard")
    p = command("identify", "MH stiffness identification", cmd_identify)
    p.add_argument("--data", nargs="+", required=True,
                   help="dataset CSV files")
    p.add_argument("--dump-kernels", action="store_true",
                   help="dump the assembled covariance matrix as CSV")
    p = command("predict", "mixture predictions from a chain", cmd_predict)
    p.add_argument("--chain", required=True, help="chain CSV from identify")
    p.add_argument("--data", nargs="+", required=True,
                   help="dataset CSV files used in training")
    p = command("study", "replicated sweep studies", cmd_study)
    p.add_argument("--study", required=True,
                   choices=list(experiments.STUDIES))
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        seed = args.seed if args.seed is not None \
            else _read(cfg, "config", "seed", _count, 0)
        run = Run(args.out, seed)
        status = args.func(cfg, run, args)
        _write_json(run.out_dir / "manifest.json", {
            "config_sha256": config_hash(cfg), "root_seed": seed,
            "outputs": run.outputs}, sort_keys=True)
        return status
    except (ConfigError, EnumerationGuardError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataFormatError, FileNotFoundError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (IllConditionedModelError, NonFiniteCovarianceError,
            EntropyOverflowError, StuckChainError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
