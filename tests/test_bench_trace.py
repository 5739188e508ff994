"""The benchmark's tracer runs around the command line.

``bench/spans.Tracer`` wraps every public function of the package's
layers, and some of its observers read their function's arguments and
results: ``mcmc.run_chain``'s fourth argument, the model ``gp.assemble``
returns, ``placement.set_entropy``'s problem.  A changed argument
contract would break only a traced benchmark run.  This test runs small
``simulate``, ``identify``, ``predict`` and ``place`` commands and one
``set_entropy`` call under the tracer, then asks it for every
``per_layer`` figure of ``BENCHMARK.json`` that ``bench/run.py`` asks it
for.  It only imports from ``bench/``.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

from timopigp import cli, placement
from timopigp.gp import Theta
from timopigp.quantities import QuantityKind

ROOT = Path(__file__).resolve().parents[1]

# The per_layer figures that bench/run.py takes from its untraced round,
# not from the tracer.
FROM_THE_ROUND = {"trace.overhead_ratio", "cli.identify.ess_min",
                  "cli.identify.ess_per_s", "cli.predict.draws_per_s",
                  "cli.place.greedy_s"}


def _spans():
    spec = importlib.util.spec_from_file_location("spans",
                                                  ROOT / "bench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_commands_answer_every_figure(tmp_path):
    placed = {"criterion": "physics", "n_sensors": 5}
    cfg = {
        "version": 1, "seed": 3,
        "beam": {"L": 1.0, "EI": 1.0, "kGA": 10.0, "q0": 1.0},
        "bcs": [{"kind": "w", "locations": [0.0, 1.0]}],
        "datasets": [
            {"kind": "w", "placement": dict(placed, kind="w"), "snr": 100,
             "label": "w"},
            {"kind": "phi", "placement": dict(placed, kind="phi"),
             "snr": 100, "label": "phi"}],
        "priors": {"EI": {"lo_factor": 0.5, "hi_factor": 1.5},
                   "kGA": {"lo_factor": 0.5, "hi_factor": 1.5}},
        "mcmc": {"n_total": 200, "n_b": 100, "n_t": 5},
        "predict": {"max_draws": 5, "n_grid": 11, "kinds": ["w"]},
        "placement": {"n_candidates": 12, "n_sensors": 3,
                      "kinds": ["w", "phi"],
                      "criteria": ["physics", "entropy", "mi"],
                      "entropy_map": True},
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    data = [out / f"data_{label}.csv" for label in ("w", "phi")]
    commands = (["simulate"], ["identify", "--data", *data],
                ["predict", "--chain", out / "chain.csv", "--data", *data],
                ["place"])
    w = QuantityKind.DEFLECTION
    problem = placement.PlacementProblem(
        candidates=np.linspace(0.0, 1.0, 5), kinds=w, n_sensors=2,
        prior=placement.Prior([], Theta(sigma_s2=1.0, ell=0.125, EI=1.0,
                                        kGA=3.0)))

    tracer = _spans().Tracer()
    tracer.install()
    try:
        for argv in commands:
            assert cli.main([*map(str, argv), "--config", str(config),
                             "--out", str(out)]) == 0, argv[0]
        placement.set_entropy([(0.25, w), (0.75, w)], problem)
    finally:
        tracer.uninstall()

    listed = [entry["name"] for entry in
              json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    asked = [name for name in listed if name not in FROM_THE_ROUND]
    figures = tracer.layer_metrics(asked)
    assert sorted(figures) == sorted(asked)
    for name in ("gp.assemble.calls", "gp.predict.calls",
                 "mcmc.log_posterior.calls", "placement.greedy_place.calls",
                 "experiments.sensor_set.calls"):
        assert figures[name] > 0, name
    assert figures["placement.set_entropy.calls"] == 1
    assert figures["placement.set_entropy.distinct_ratio"] == 1.0
    assert figures["placement.exhaustive_entropy_map.calls"] == 2
    assert 0.0 < figures["mcmc.acceptance_ratio"] < 1.0
    assert 0.0 < figures["gp.assemble.first_try_ratio"] <= 1.0
    assert all(row["raised"] == 0
               for row in tracer.function_table().values())
