"""End-to-end tests of the command-line interface."""

import ast
import contextlib
import copy
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from timopigp import beam, cli, experiments, gp, mcmc, placement
from timopigp.beam import BeamConfig
from timopigp.data import CSV_HEADER
from timopigp.errors import StuckChainError
from timopigp.quantities import QuantityKind

BEAM = {"L": 1.0, "EI": 1.0, "kGA": 3.0, "q0": 1.0}
CFG_OBJ = BeamConfig(L=1.0, EI_true=1.0, kGA_true=3.0, q0=1.0)


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run(args):
    return cli.main([str(a) for a in args])


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSimulate:
    def test_noiseless_matches_oracle(self, tmp_path):
        cfg = {"version": 1, "beam": BEAM, "seed": 5,
               "datasets": [{"kind": "w", "locations": [0.25, 0.5, 0.75],
                             "sigma_n": 0.0, "label": "w"}]}
        out = tmp_path / "out"
        assert run(["simulate", "--config", write_config(tmp_path, cfg),
                    "--out", out]) == 0
        rows = read_rows(out / "data_w.csv")
        assert [r["quantity"] for r in rows] == ["w"] * 3
        truth = beam.analytic_field(CFG_OBJ, QuantityKind.DEFLECTION,
                                    np.array([0.25, 0.5, 0.75]))
        got = np.array([float(r["value"]) for r in rows])
        np.testing.assert_allclose(got, truth, rtol=1e-14)

    def test_ndp_repeats_locations(self, tmp_path):
        cfg = {"version": 1, "beam": BEAM, "seed": 5,
               "datasets": [{"kind": "w", "locations": [0.3, 0.6],
                             "snr": 20, "ndp": 3, "label": "w"}]}
        out = tmp_path / "out"
        assert run(["simulate", "--config", write_config(tmp_path, cfg),
                    "--out", out]) == 0
        rows = read_rows(out / "data_w.csv")
        xs = [float(r["x"]) for r in rows]
        assert xs == [0.3, 0.6] * 3
        # Repeated points carry independent noise realizations.
        vals = [float(r["value"]) for r in rows]
        assert len(set(vals)) == 6

    def test_grid_locations_are_interior(self, tmp_path):
        cfg = {"version": 1, "beam": BEAM, "seed": 0,
               "datasets": [{"kind": "M", "grid": 5, "sigma_n": 0.0,
                             "label": "M"}]}
        out = tmp_path / "out"
        assert run(["simulate", "--config", write_config(tmp_path, cfg),
                    "--out", out]) == 0
        xs = np.array([float(r["x"]) for r in read_rows(out / "data_M.csv")])
        np.testing.assert_allclose(xs, np.linspace(0, 1, 7)[1:-1])

    def test_byte_identical_reruns(self, tmp_path):
        cfg = {"version": 1, "beam": BEAM, "seed": 77,
               "datasets": [{"kind": "w", "grid": 7, "snr": 10,
                             "label": "w"}]}
        cfg_path = write_config(tmp_path, cfg)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["simulate", "--config", cfg_path, "--out", out_a]) == 0
        assert run(["simulate", "--config", cfg_path, "--out", out_b]) == 0
        assert (out_a / "data_w.csv").read_bytes() == \
            (out_b / "data_w.csv").read_bytes()

    def test_manifest_written(self, tmp_path):
        cfg = {"version": 1, "beam": BEAM, "seed": 3,
               "datasets": [{"kind": "w", "grid": 3, "snr": 10,
                             "label": "w"}]}
        out = tmp_path / "out"
        assert run(["simulate", "--config", write_config(tmp_path, cfg),
                    "--out", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["root_seed"] == 3
        assert manifest["config_sha256"] == cli.config_hash(cfg)
        assert "data_w.csv" in manifest["outputs"]


class TestExitCodes:
    def test_bad_version(self, tmp_path):
        cfg = {"version": 99, "beam": BEAM}
        assert run(["simulate", "--config", write_config(tmp_path, cfg),
                    "--out", tmp_path / "o"]) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("version", [True, "1", [1]])
    def test_version_must_be_the_number(self, tmp_path, capsys, version):
        cfg = {"version": version, "beam": BEAM,
               "datasets": [{"kind": "w", "grid": 3, "label": "w"}]}
        assert run(["simulate", "--config", write_config(tmp_path, cfg),
                    "--out", tmp_path / "o"]) == cli.EXIT_CONFIG
        assert "unsupported config version" in capsys.readouterr().err

    def test_config_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1]")
        assert run(["simulate", "--config", path,
                    "--out", tmp_path / "o"]) == cli.EXIT_CONFIG
        assert "Traceback" not in capsys.readouterr().err

    def test_config_not_json_named(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text('{"version": 1,')
        assert run(["simulate", "--config", path,
                    "--out", tmp_path / "o"]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"config error: invalid JSON in {path}: ")

    @pytest.mark.parametrize("rows,at", [
        (["quantity,x,value,z,dataset_id", "w,0.5,0.01,,w"],
         "1: expected header quantity,x,z,value,dataset_id"),
        ([",".join(CSV_HEADER), "w,0.5,,0.01,a", "phi,0.5,,0.01,a"],
         "3: dataset 'a' mixes quantities w and phi"),
        ([",".join(CSV_HEADER), "eps,0.5,0.05,0.01,e", "eps,0.5,,0.01,e"],
         "3: strain rows require a z value")],
        ids=["header", "mixed-quantities", "strain-without-z"])
    def test_dataset_csv_refused_at_line(self, tmp_path, capsys, rows, at):
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(rows) + "\n")
        code = run(["identify", "--config",
                    write_config(tmp_path, {"version": 1, "beam": BEAM}),
                    "--out", tmp_path / "o", "--data", bad])
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err.strip() == f"data error: {bad}:{at}"

    def test_missing_config(self, tmp_path):
        assert run(["simulate", "--config", tmp_path / "nope.json",
                    "--out", tmp_path / "o"]) == cli.EXIT_CONFIG

    def test_output_dir_that_cannot_be_made_is_a_data_error(self, tmp_path,
                                                             capsys):
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory\n")
        cfg = {"version": 1, "beam": BEAM,
               "datasets": [{"kind": "w", "grid": 3, "label": "w"}]}
        assert run(["simulate", "--config", write_config(tmp_path, cfg),
                    "--out", taken]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(taken) in err

    def test_unknown_quantity(self, tmp_path):
        cfg = {"version": 1, "beam": BEAM,
               "datasets": [{"kind": "xyz", "grid": 3, "label": "a"}]}
        assert run(["simulate", "--config", write_config(tmp_path, cfg),
                    "--out", tmp_path / "o"]) == cli.EXIT_CONFIG

    def test_unknown_study(self, tmp_path):
        cfg = {"version": 1, "beam": BEAM, "study": {}}
        code = run(["study", "--study", "noise",
                    "--config", write_config(tmp_path, cfg),
                    "--out", tmp_path / "o"])
        assert code == cli.EXIT_CONFIG

    def test_missing_data_file(self, tmp_path):
        cfg = {"version": 1, "beam": BEAM}
        code = run(["identify", "--config", write_config(tmp_path, cfg),
                    "--out", tmp_path / "o",
                    "--data", tmp_path / "missing.csv"])
        assert code == cli.EXIT_DATA

    def test_malformed_csv_reports_line(self, tmp_path, capsys):
        cfg = {"version": 1, "beam": BEAM}
        bad = tmp_path / "bad.csv"
        bad.write_text("quantity,x,z,value,dataset_id\n"
                       "w,0.5,,0.01,w\n"
                       "w,not_a_number,,0.01,w\n")
        code = run(["identify", "--config", write_config(tmp_path, cfg),
                    "--out", tmp_path / "o", "--data", bad])
        assert code == cli.EXIT_DATA
        assert ":3:" in capsys.readouterr().err

    @pytest.mark.parametrize("row,field", [("w,0.5,,nan,w", "value"),
                                           ("w,inf,,0.01,w", "x"),
                                           ("eps,0.5,-inf,0.01,e", "z")])
    def test_non_finite_csv_value_reports_line(self, tmp_path, capsys, row,
                                               field):
        cfg = {"version": 1, "beam": BEAM}
        bad = tmp_path / "bad.csv"
        bad.write_text("quantity,x,z,value,dataset_id\n"
                       "w,0.25,,0.01,w\n" + row + "\n")
        code = run(["identify", "--config", write_config(tmp_path, cfg),
                    "--out", tmp_path / "o", "--data", bad])
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert f"bad.csv:3: {field} must be finite" in err

    @pytest.mark.parametrize("command", ["identify", "predict"])
    def test_off_span_csv_row_named(self, tmp_path, capsys, command):
        cfg = {"version": 1, "beam": BEAM}
        bad = tmp_path / "bad.csv"
        bad.write_text("quantity,x,z,value,dataset_id\n"
                       "w,1.0,,0.01,w\n"
                       "w,3.5,,0.01,w\n")
        extra = ["--chain", tmp_path / "chain.csv"] \
            if command == "predict" else []
        code = run([command, "--config", write_config(tmp_path, cfg),
                    "--out", tmp_path / "o", "--data", bad] + extra)
        assert code == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert "bad.csv:3: dataset 'w': x = 3.5 is off the span [0, 1.0]" \
            in err

    @pytest.mark.parametrize("bcs,message", [
        ([{"kind": "w", "locations": [0.0, 2.5]}],
         "bcs[0] (w): location 2.5 is off the span [0, 1.0]"),
        ([{"kind": "w", "locations": [0.0, 1.0]},
          {"kind": "M", "locations": [-0.1, 1.0]}],
         "bcs[1] (M): location -0.1 is off the span [0, 1.0]")])
    def test_off_span_boundary_condition_named(self, tmp_path, capsys, bcs,
                                               message):
        cfg = {"version": 1, "beam": BEAM, "seed": 0, "bcs": bcs,
               "placement": {"n_candidates": 9, "n_sensors": 2}}
        code = run(["place", "--config", write_config(tmp_path, cfg),
                    "--out", tmp_path / "o"])
        assert code == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("bc,message", [
        ({"kind": "w", "locations": [0.0, float("inf")]}, "x must be finite"),
        ({"kind": "w", "locations": [0.0, 1.0], "values": [0.0, float("nan")]},
         "y must be finite"),
        ({"kind": "w", "locations": [0.0, 1.0], "values": [0.0]},
         "bcs[0]: x and y must be equal-length"),
        ({"kind": "w", "locations": []},
         "bcs[0]: x and y must be equal-length, non-empty vectors")])
    def test_bad_boundary_condition_named(self, tmp_path, capsys, bc,
                                          message):
        cfg = {"version": 1, "beam": BEAM, "seed": 0, "bcs": [bc],
               "placement": {"n_candidates": 9, "n_sensors": 2}}
        code = run(["place", "--config", write_config(tmp_path, cfg),
                    "--out", tmp_path / "o"])
        assert code == cli.EXIT_CONFIG
        assert message in capsys.readouterr().err

    def test_enumeration_guard_mentions_flag(self, tmp_path, capsys):
        """C(31, 6) = 736 281 subsets exceed placement.MAX_COMBOS: the map
        is refused before any entropy is computed, and nothing written."""
        cfg = {"version": 1, "beam": BEAM, "seed": 0,
               "placement": {"n_candidates": 31, "n_sensors": 6,
                             "kinds": ["w"], "criteria": ["physics"],
                             "entropy_map": True}}
        code = run(["place", "--config", write_config(tmp_path, cfg),
                    "--out", tmp_path / "o"])
        assert code == cli.EXIT_CONFIG
        assert "--full-scale" in capsys.readouterr().err
        assert not (tmp_path / "o" / "placement.json").exists()

    @staticmethod
    def place_config(tmp_path, **placement_kw):
        cfg = {"version": 1, "beam": BEAM, "seed": 0,
               "bcs": [{"kind": "w", "locations": [0.0, 1.0]}],
               "placement": dict({"n_candidates": 9, "n_sensors": 2,
                                  "kinds": ["w"], "criteria": ["physics"]},
                                 **placement_kw)}
        # A literal 1e400 parses as inf, as it would from a user's file.
        text = json.dumps(cfg).replace('"@inf"', "1e400")
        path = tmp_path / "config.json"
        path.write_text(text)
        return str(path)

    def test_non_finite_signal_variance_names_field(self, tmp_path, capsys):
        code = run(["place", "--config",
                    self.place_config(tmp_path, sigma_s2="@inf"),
                    "--out", tmp_path / "o"])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "sigma_s2" in err and "finite" in err

    def test_tiny_length_scale_names_non_finite_covariance(self, tmp_path,
                                                          capsys):
        code = run(["place", "--config",
                    self.place_config(tmp_path, ell=1e-200),
                    "--out", tmp_path / "o"])
        assert code == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "non-finite covariance" in err
        assert "Traceback" not in err

    def test_overflowing_entropy_map_named(self, tmp_path, capsys):
        """A 37-of-40 w map at ell = 0.125 conditions nearly collinear
        candidates until a downdate overflows: exit 4 with a message, no
        RuntimeWarning and no rows."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["place", "--config",
                        self.place_config(tmp_path, n_candidates=40,
                                          n_sensors=37, ell=0.125,
                                          entropy_map=True),
                        "--out", tmp_path / "o"])
        assert code == cli.EXIT_NUMERICAL
        assert "37 of 40 sensors overflowed" in capsys.readouterr().err
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        assert not list((tmp_path / "o").glob("entropy_map_*.csv"))

    def test_overflowing_greedy_names_signal_variance(self, tmp_path,
                                                      capsys):
        """At sigma_s2 = 1e160 the greedy's first downdate overflows:
        exit 4 with one line on stderr that names sigma_s2, and no
        RuntimeWarning."""
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["place", "--config",
                        self.place_config(
                            tmp_path, n_candidates=12, n_sensors=3,
                            sigma_s2=1e160,
                            criteria=["physics", "entropy", "mi"]),
                        "--out", tmp_path / "o"])
        assert code == cli.EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "sigma_s2" in err
        assert err.startswith("numerical failure: joint entropies of 3 of "
                              "12 sensors overflowed")
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]


class TestPlace:
    def test_zero_sensors_succeeds(self, tmp_path):
        cfg = {"version": 1, "beam": BEAM, "seed": 0,
               "placement": {"n_candidates": 11, "n_sensors": 0,
                             "kinds": ["w"], "criteria": ["physics"]}}
        out = tmp_path / "out"
        assert run(["place", "--config", write_config(tmp_path, cfg),
                    "--out", out]) == 0
        results = json.loads((out / "placement.json").read_text())
        assert results[0]["selected"] == []

    def test_selected_sets_and_entropy_map(self, tmp_path):
        cfg = {"version": 1, "beam": BEAM, "seed": 0,
               "bcs": [{"kind": "w", "locations": [0.0, 1.0]}],
               "placement": {"n_candidates": 9, "n_sensors": 2,
                             "kinds": ["w", "phi"],
                             "criteria": ["physics", "entropy"],
                             "entropy_map": True}}
        out = tmp_path / "out"
        assert run(["place", "--config", write_config(tmp_path, cfg),
                    "--out", out]) == 0
        results = json.loads((out / "placement.json").read_text())
        assert len(results) == 4
        for res in results:
            assert len(res["selected"]) == 2
        rows = read_rows(out / "entropy_map_physics_w.csv")
        assert len(rows) == 36
        vals = np.array([float(r["normalized_entropy"]) for r in rows])
        assert vals.min() == pytest.approx(0.0)
        assert vals.max() == pytest.approx(1.0)

    def test_entropy_map_once_per_kind(self, tmp_path, monkeypatch):
        """One map per kind, formatted once and written to every
        criterion's file, and one K_bb factorization for the whole
        command."""
        calls, writes, factorized = [], [], []
        real = placement.exhaustive_entropy_map
        monkeypatch.setattr(placement, "exhaustive_entropy_map",
                            lambda p, **kw: calls.append(p.kinds[0])
                            or real(p, **kw))
        real_write = cli.write_map_csv
        monkeypatch.setattr(cli, "write_map_csv",
                            lambda paths, *a: writes.append(paths)
                            or real_write(paths, *a))
        real_assemble = gp.assemble
        monkeypatch.setattr(gp, "assemble",
                            lambda *a: factorized.append(a[1])
                            or real_assemble(*a))
        criteria = ["physics", "entropy", "mi"]
        cfg = {"version": 1, "beam": BEAM, "seed": 0,
               "bcs": [{"kind": "w", "locations": [0.0, 1.0]}],
               "placement": {"n_candidates": 8, "n_sensors": 3,
                             "kinds": ["w", "phi"], "criteria": criteria,
                             "entropy_map": True}}
        out = tmp_path / "out"
        assert run(["place", "--config", write_config(tmp_path, cfg),
                    "--out", out]) == 0
        assert calls == [QuantityKind.DEFLECTION, QuantityKind.ROTATION]
        assert len(writes) == 2 and len(factorized) == 1
        for kind in ("w", "phi"):
            maps = [(out / f"entropy_map_{c}_{kind}.csv").read_bytes()
                    for c in criteria]
            assert maps[0] == maps[1] == maps[2]



@pytest.fixture(scope="module")
def workflow(tmp_path_factory):
    """simulate -> identify -> predict round trip with a short chain."""
    tmp_path = tmp_path_factory.mktemp("workflow")
    sim_cfg = {"version": 1, "beam": BEAM, "seed": 21,
               "datasets": [
                   {"kind": "w", "grid": 7, "snr": 50, "label": "w"},
                   {"kind": "phi", "grid": 7, "snr": 50, "label": "phi"},
                   {"kind": "q", "grid": 7, "sigma_n": 0.0,
                    "label": "q"}]}
    out_sim = tmp_path / "sim"
    assert run(["simulate", "--config",
                write_config(tmp_path, sim_cfg, "sim.json"),
                "--out", out_sim]) == 0

    id_cfg = {"version": 1, "beam": BEAM, "seed": 101,
              "bcs": [{"kind": "w", "locations": [0.0, 1.0]},
                      {"kind": "M", "locations": [0.0, 1.0]}],
              "mcmc": {"n_total": 800, "n_b": 300, "n_t": 5},
              "predict": {"kinds": ["w", "M", "eps"], "n_grid": 21,
                          "max_draws": 10,
                          "strain_grid": {"nx": 5, "nz": 5}}}
    id_path = write_config(tmp_path, id_cfg, "id.json")
    data = [out_sim / f"data_{label}.csv"
            for label in ("w", "phi", "q")]
    out_id = tmp_path / "ident"
    assert run(["identify", "--config", id_path, "--out", out_id,
                "--data"] + data) == 0
    out_pred = tmp_path / "pred"
    assert run(["predict", "--config", id_path, "--out", out_pred,
                "--chain", out_id / "chain.csv", "--data"] + data) == 0
    return tmp_path, out_id, out_pred


def w_chain(out_id, n_rows):
    """The workflow chain's header and first rows without its phi noise
    column: a model of data_w.csv alone learns w's noise only."""
    with open(out_id / "chain.csv", newline="") as fh:
        names, *rows = list(csv.reader(fh))[:n_rows + 1]
    drop = names.index("sigma_n:phi")
    return [r[:drop] + r[drop + 1:] for r in [names] + rows]


class TestIdentifyPredict:
    def test_identify_outputs(self, workflow):
        _, out_id, _ = workflow
        summary = json.loads((out_id / "summary.json").read_text())
        assert 0.5 <= summary["EI_normalized"] <= 1.5
        assert 0.5 <= summary["kGA_normalized"] <= 1.5
        diag = json.loads((out_id / "diagnostics.json").read_text())
        assert 0.0 < diag["acceptance_rate"] < 1.0
        assert "EI" in diag["ess"]
        rows = read_rows(out_id / "chain.csv")
        assert len(rows) == (800 - 300 + 4) // 5

    def test_predict_respects_supports(self, workflow):
        _, _, out_pred = workflow
        rows = read_rows(out_pred / "pred_w.csv")
        by_x = {float(r["x"]): float(r["mean"]) for r in rows}
        span = max(abs(v) for v in by_x.values())
        assert abs(by_x[0.0]) < 1e-3 * span
        assert abs(by_x[1.0]) < 1e-3 * span

    def test_predict_strain_antisymmetric_in_depth(self, workflow):
        _, _, out_pred = workflow
        rows = read_rows(out_pred / "pred_eps.csv")
        table = {(round(float(r["x"]), 9), round(float(r["z"]), 9)):
                 float(r["mean"]) for r in rows}
        scale = max(abs(v) for v in table.values())
        for (x, z), v in table.items():
            assert abs(v + table[(x, round(-z, 9))]) < \
                1e-6 * max(scale, 1e-300)

    def test_query_block_overflow_named(self, workflow, capsys):
        # At ell = 1e-35 the deflection covariance is finite, but a shear
        # query's cross-covariance (derivative order 5) overflows.
        tmp_path, out_id, _ = workflow
        names, row = w_chain(out_id, 1)
        row[names.index("ell")] = "1e-35"
        chain = tmp_path / "tiny_ell_chain.csv"
        chain.write_text(",".join(names) + "\n" + ",".join(row) + "\n")
        cfg = {"version": 1, "beam": BEAM,
               "bcs": [{"kind": "w", "locations": [0.0, 1.0]}],
               "predict": {"kinds": ["V"], "n_grid": 5}}
        code = run(["predict", "--config",
                    write_config(tmp_path, cfg, "tiny_ell.json"),
                    "--out", tmp_path / "tiny_ell_pred", "--chain", chain,
                    "--data", tmp_path / "sim" / "data_w.csv"])
        assert code == cli.EXIT_NUMERICAL
        assert "non-finite covariance" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_non_finite_chain_value_reports_line(self, workflow, capsys,
                                                 value):
        tmp_path, out_id, _ = workflow
        names, row = w_chain(out_id, 1)
        row[names.index("EI")] = value
        chain = tmp_path / "bad_chain.csv"
        chain.write_text(",".join(names) + "\n" + ",".join(row) + "\n")
        cfg = {"version": 1, "beam": BEAM}
        code = run(["predict", "--config",
                    write_config(tmp_path, cfg, "bad_chain.json"),
                    "--out", tmp_path / "bad_chain_pred", "--chain", chain,
                    "--data", tmp_path / "sim" / "data_w.csv"])
        assert code == cli.EXIT_DATA
        assert "bad_chain.csv:2: EI must be finite" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("bad", [0, 1])
    def test_invalid_theta_row_reports_line(self, workflow, capsys, bad):
        """Every row is checked, the middle one too, which thinning three
        rows to two drops."""
        tmp_path, out_id, _ = workflow
        names, *rows = w_chain(out_id, 3)
        rows[bad][names.index("EI")] = "-1.0"
        chain = tmp_path / "bad_theta_chain.csv"
        chain.write_text("\n".join(",".join(r) for r in [names] + rows)
                         + "\n")
        cfg = {"version": 1, "beam": BEAM, "predict": {"max_draws": 2}}
        code = run(["predict", "--config",
                    write_config(tmp_path, cfg, "bad_theta.json"),
                    "--out", tmp_path / "bad_theta_pred", "--chain", chain,
                    "--data", tmp_path / "sim" / "data_w.csv"])
        assert code == cli.EXIT_DATA
        assert f"bad_theta_chain.csv:{bad + 2}: EI must be positive and " \
            "finite, got -1.0" in capsys.readouterr().err

    @pytest.mark.parametrize("header,message", [
        (["sigma_s2", "ell", "EI"], "no 'kGA' column"),
        (["sigma_s2", "ell", "EI", "kGA", "foo"],
         "column 'foo' is not a parameter")])
    def test_chain_header_refused_by_column(self, workflow, capsys, header,
                                            message):
        tmp_path, _, _ = workflow
        chain = tmp_path / "bad_header_chain.csv"
        chain.write_text(",".join(header) + "\n"
                         + ",".join(["1.0"] * len(header)) + "\n")
        code = run(["predict", "--config", tmp_path / "id.json",
                    "--out", tmp_path / "bad_header_pred", "--chain", chain,
                    "--data", tmp_path / "sim" / "data_w.csv"])
        err = capsys.readouterr().err
        assert code == cli.EXIT_DATA
        assert f"bad_header_chain.csv:1: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["", "sigma_s2,ell,EI,kGA\n"],
                             ids=["no-header", "header-only"])
    def test_empty_chain_file_named(self, workflow, capsys, text):
        """A chain file without rows is a data error at its first line,
        whether or not it has a header."""
        tmp_path, _, _ = workflow
        chain = tmp_path / "empty.csv"
        chain.write_text(text)
        cfg = {"version": 1, "beam": BEAM,
               "datasets": [{"label": "w", "learn_noise": False}]}
        out = tmp_path / "empty_chain_pred"
        code = run(["predict", "--config",
                    write_config(tmp_path, cfg, "empty_chain.json"),
                    "--out", out, "--chain", chain,
                    "--data", tmp_path / "sim" / "data_w.csv"])
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err.strip() == \
            f"data error: {chain}:1: empty chain file"
        assert list(out.iterdir()) == []

    def test_chain_columns_read_by_name(self, workflow):
        """A chain CSV with its columns in another order predicts the
        same bytes."""
        tmp_path, out_id, out_pred = workflow
        with open(out_id / "chain.csv", newline="") as fh:
            rows = [row[::-1] for row in csv.reader(fh)]
        chain = tmp_path / "reversed_chain.csv"
        with open(chain, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        out = tmp_path / "reversed_pred"
        data = [tmp_path / "sim" / f"data_{label}.csv"
                for label in ("w", "phi", "q")]
        assert run(["predict", "--config", tmp_path / "id.json",
                    "--out", out, "--chain", chain, "--data"] + data) == 0
        for name in ("pred_w.csv", "pred_M.csv", "pred_eps.csv"):
            assert (out / name).read_bytes() == (out_pred / name).read_bytes()

    def test_dump_kernels_writes_the_starting_covariance(self, workflow):
        """kernel_matrix.csv is K at the chain's start point, exactly: the
        savetxt format keeps every bit of a float."""
        tmp_path, _, _ = workflow
        cfg = {"version": 1, "beam": BEAM, "seed": 3,
               "bcs": [{"kind": "w", "locations": [0.0, 1.0]}],
               "datasets": [{"label": "w", "sigma_n": 1e-4}],
               "mcmc": {"n_total": 20, "n_b": 10, "n_t": 1}}
        data = [tmp_path / "sim" / f"data_{label}.csv"
                for label in ("w", "phi")]
        out = tmp_path / "dump"
        assert run(["identify", "--config",
                    write_config(tmp_path, cfg, "dump.json"), "--out", out,
                    "--dump-kernels", "--data"] + data) == 0
        beam_cfg, datasets, bcs = cli.read_model_inputs(cfg, data)
        theta0 = experiments.default_theta0(
            datasets, beam_cfg, cli.priors_from_config(cfg, beam_cfg))
        K = gp.assemble(datasets, bcs, theta0).K
        np.testing.assert_array_equal(
            np.loadtxt(out / "kernel_matrix.csv", delimiter=","), K)

    @pytest.mark.parametrize("labels", [("q", "phi", "w"), ("q", "phi")],
                             ids="-".join)
    def test_chain_does_not_depend_on_file_order(self, workflow, labels):
        """The datasets are read in block order: the files in reverse
        order write the chain.csv of the files in order."""
        tmp_path, _, _ = workflow
        config = tmp_path / "id.json"
        chains = []
        for order in (sorted(labels, key=["w", "phi", "q"].index), labels):
            out = tmp_path / ("order_" + "_".join(order))
            assert run(["identify", "--config", config, "--out", out,
                        "--data"] + [tmp_path / "sim" / f"data_{label}.csv"
                                     for label in order]) == 0
            chains.append((out / "chain.csv").read_bytes())
        assert chains[0] == chains[1]

    def test_predict_refuses_header_only_data(self, workflow, capsys):
        """predict, like identify, refuses data that hold no rows."""
        tmp_path, out_id, _ = workflow
        empty = tmp_path / "header_only.csv"
        empty.write_text(",".join(CSV_HEADER) + "\n")
        for command in (["identify"],
                        ["predict", "--chain", out_id / "chain.csv"]):
            assert run(command + ["--config", tmp_path / "id.json",
                                  "--out", tmp_path / "header_only",
                                  "--data", empty]) == 3
            assert "no datasets loaded" in capsys.readouterr().err

    @pytest.mark.parametrize("twice", [False, True],
                             ids=["copy", "same-file"])
    @pytest.mark.parametrize("command", ["identify", "predict"])
    def test_dataset_id_in_two_files_refused(self, workflow, capsys,
                                             command, twice):
        """A dataset id loaded from two --data files, or from one file
        given twice, exits 3 naming the id and both files: it is not read
        as one dataset of twice the rows."""
        tmp_path, out_id, _ = workflow
        data = [tmp_path / "sim" / f"data_{label}.csv"
                for label in ("w", "phi", "q")]
        first = second = data[0]
        if not twice:
            second = tmp_path / "data_w_copy.csv"
            second.write_bytes(first.read_bytes())
        args = [command, "--config", tmp_path / "id.json",
                "--out", tmp_path / f"two_{command}_{twice}",
                "--data", *data, second]
        if command == "predict":
            args += ["--chain", out_id / "chain.csv"]
        assert run(args) == cli.EXIT_DATA
        assert capsys.readouterr().err.strip() == (
            f"data error: {second}:1: dataset 'w' is also in {first}")

    def test_manifest_lists_outputs(self, workflow):
        _, out_id, out_pred = workflow
        m_id = json.loads((out_id / "manifest.json").read_text())
        assert set(m_id["outputs"]) == {"chain.csv", "summary.json",
                                        "diagnostics.json"}
        m_pred = json.loads((out_pred / "manifest.json").read_text())
        assert "pred_w.csv" in m_pred["outputs"]


class TestDatasetLabels:
    """Config entry i names the dataset of its label, else ds<i>, in
    simulate and in the noise treatment of identify and predict."""

    SHORT = {"n_total": 40, "n_b": 10, "n_t": 2}

    def test_unlabelled_entry_is_ds_i(self, tmp_path):
        """The entry of simulate's ds0 holds ds0's noise in identify."""
        cfg = {"version": 1, "beam": BEAM, "seed": 3, "mcmc": self.SHORT,
               "datasets": [{"kind": "w", "grid": 7, "snr": 50,
                             "learn_noise": False}]}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert run(["simulate", "--config", path, "--out", out]) == 0
        assert run(["identify", "--config", path, "--out", out,
                    "--data", out / "data_ds0.csv"]) == 0
        header = (out / "chain.csv").read_text().splitlines()[0]
        assert header == "sigma_s2,ell,EI,kGA"

    @pytest.mark.parametrize("command", ["identify", "predict"])
    @pytest.mark.parametrize("noise", [{"sigma_n": 1e-4},
                                       {"learn_noise": False}],
                             ids=lambda d: next(iter(d)))
    def test_noise_entry_of_no_loaded_dataset_named(self, workflow, capsys,
                                                    command, noise):
        tmp_path, out_id, _ = workflow
        cfg = {"version": 1, "beam": BEAM, "mcmc": self.SHORT,
               "datasets": [{"label": "W", **noise}]}
        out = tmp_path / f"unmatched_{command}_{next(iter(noise))}"
        args = [command, "--config", write_config(tmp_path, cfg, "W.json"),
                "--out", out, "--data", tmp_path / "sim" / "data_w.csv"]
        if command == "predict":
            args += ["--chain", out_id / "chain.csv"]
        assert run(args) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.strip() == (
            "config error: datasets[0]: label 'W' sets a noise key but "
            "names no dataset of --data (loaded: 'w')")
        assert list(out.iterdir()) == []

    def test_entry_without_noise_keys_may_name_no_dataset(self, workflow):
        """A simulate-only entry does not need its data loaded."""
        tmp_path, _, _ = workflow
        cfg = {"version": 1, "beam": BEAM, "mcmc": self.SHORT,
               "datasets": [{"kind": "phi", "grid": 7, "snr": 50,
                             "label": "phi"}]}
        assert run(["identify", "--config",
                    write_config(tmp_path, cfg, "phi.json"), "--out",
                    tmp_path / "phi_unloaded", "--data",
                    tmp_path / "sim" / "data_w.csv"]) == 0

    @pytest.mark.parametrize("command", ["simulate", "identify"])
    def test_repeated_label_named(self, workflow, capsys, command):
        tmp_path, _, _ = workflow
        cfg = {"version": 1, "beam": BEAM, "mcmc": self.SHORT,
               "datasets": [{"kind": "q", "grid": 7, "sigma_n": 0.0,
                             "label": "q"},
                            {"kind": "q", "grid": 7, "sigma_n": 1.0,
                             "label": "q"}]}
        out = tmp_path / f"repeated_{command}"
        args = [command, "--config", write_config(tmp_path, cfg, "qq.json"),
                "--out", out]
        if command == "identify":
            args += ["--data", tmp_path / "sim" / "data_q.csv"]
        assert run(args) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.strip() == (
            "config error: datasets[1]: label 'q' is also datasets[0]'s")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("label", [" w", "w ", "\tw"])
    def test_label_with_outer_whitespace_refused(self, workflow, capsys,
                                                 label):
        """The dataset CSV reader strips ids, so such a label would name
        no dataset of its own simulate run: every command refuses it."""
        tmp_path, _, _ = workflow
        cfg = {"version": 1, "beam": BEAM, "seed": 3, "mcmc": self.SHORT,
               "datasets": [{"kind": "w", "grid": 7, "snr": 50,
                             "label": label, "learn_noise": False}]}
        path = write_config(tmp_path, cfg, "padded.json")
        message = (f"config error: datasets[0]: label {label!r} starts or "
                   "ends with whitespace")
        out = tmp_path / "padded"
        assert run(["simulate", "--config", path, "--out", out]) == \
            cli.EXIT_CONFIG
        assert capsys.readouterr().err.strip() == message
        assert run(["identify", "--config", path, "--out", out / "id",
                    "--data", tmp_path / "sim" / "data_w.csv"]) == \
            cli.EXIT_CONFIG
        assert capsys.readouterr().err.strip() == message

    def test_empty_label_named(self, tmp_path, capsys):
        cfg = {"version": 1, "beam": BEAM,
               "datasets": [{"kind": "w", "grid": 3, "label": ""}]}
        assert run(["simulate", "--config", write_config(tmp_path, cfg),
                    "--out", tmp_path / "out"]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.strip() == (
            "config error: datasets[0]: label must be a non-empty string "
            "without / or \\, got ''")


class TestLoadNoise:
    """A q dataset without sigma_n keeps the load rule's level, held
    fixed unless its entry sets learn_noise."""

    SHORT = {"n_total": 40, "n_b": 10, "n_t": 2}

    @pytest.mark.parametrize("learn,header", [
        (None, "sigma_s2,ell,EI,kGA,sigma_n:w"),
        (False, "sigma_s2,ell,EI,kGA,sigma_n:w"),
        (True, "sigma_s2,ell,EI,kGA,sigma_n:w,sigma_n:q")],
        ids=["absent", "false", "true"])
    def test_learn_noise_read_on_q(self, workflow, monkeypatch, learn,
                                   header):
        tmp_path, _, _ = workflow
        starts = []
        real = experiments.default_theta0

        def spy(*args):
            starts.append(real(*args))
            return starts[-1]
        monkeypatch.setattr(experiments, "default_theta0", spy)
        entry = {"label": "q"} if learn is None \
            else {"label": "q", "learn_noise": learn}
        path = write_config(tmp_path, {"version": 1, "beam": BEAM,
                                       "mcmc": self.SHORT,
                                       "datasets": [entry]},
                            f"q_{learn}.json")
        data = [tmp_path / "sim" / f"data_{label}.csv"
                for label in ("w", "q")]
        out = tmp_path / f"q_{learn}"
        assert run(["identify", "--config", path, "--out", out,
                    "--data"] + data) == 0
        assert (out / "chain.csv").read_text().splitlines()[0] == header
        if learn:
            q = read_rows(data[1])
            level = experiments.LOAD_NOISE_FACTOR * max(
                abs(float(row["value"])) for row in q)
            assert starts[0].sigma_n["q"] == pytest.approx(level,
                                                           rel=1e-12)
        assert run(["predict", "--config", path, "--out", out / "pred",
                    "--chain", out / "chain.csv", "--data"] + data) == 0


class TestPredictChainNoise:
    """predict refuses a chain whose sigma_n columns are not the noise
    levels that its config learns for --data, at the chain's header."""

    SHORT = {"n_total": 40, "n_b": 10, "n_t": 2}

    @pytest.mark.parametrize("identify_learns", [False, True])
    def test_noise_columns_must_be_the_learned_levels(
            self, workflow, capsys, identify_learns):
        tmp_path, _, _ = workflow
        data = tmp_path / "sim" / "data_w.csv"
        name = f"noise_{identify_learns}"

        def config(learn):
            return write_config(tmp_path, {
                "version": 1, "beam": BEAM, "mcmc": self.SHORT,
                "datasets": [{"label": "w", "learn_noise": learn}]},
                f"{name}_{learn}.json")

        out_id = tmp_path / f"{name}_id"
        assert run(["identify", "--config", config(identify_learns),
                    "--out", out_id, "--data", data]) == 0
        chain = out_id / "chain.csv"
        out = tmp_path / f"{name}_pred"
        assert run(["predict", "--config", config(not identify_learns),
                    "--out", out, "--chain", chain, "--data", data]) == \
            cli.EXIT_DATA
        chain_noise, config_noise = (["w"], []) if identify_learns \
            else ([], ["w"])
        assert capsys.readouterr().err.strip() == (
            f"data error: {chain}:1: noise columns for {chain_noise}, but "
            f"the config learns the noise of {config_noise}")
        assert list(out.iterdir()) == []


class TestConfigRepeatedKey:
    """A key given twice in one JSON object is refused, not last-wins."""

    @pytest.mark.parametrize("text,key", [
        ('{"version": 1, "seed": 1, "seed": 2, "beam": %s}', "seed"),
        ('{"version": 1, "beam": %s, '
         '"mcmc": {"n_total": 100, "n_total": 50000}}', "n_total")],
        ids=["top", "nested"])
    def test_repeated_key_named(self, tmp_path, capsys, text, key):
        path = tmp_path / "config.json"
        path.write_text(text % json.dumps(BEAM))
        out = tmp_path / "out"
        assert run(["simulate", "--config", path, "--out", out]) == \
            cli.EXIT_CONFIG
        assert capsys.readouterr().err.strip() == (
            f"config error: key {key!r} appears twice in one object")
        assert not out.exists()


class TestSimulateDatasetRules:
    """simulate refuses a dataset value that would do nothing or that
    cannot name its file, by entry and key."""

    @pytest.mark.parametrize("entry,message", [
        ({"grid": 3, "locations": [0.2, 0.4]},
         "needs one of 'locations', 'grid' or 'placement', got "
         "['locations', 'grid']"),
        ({"locations": [0.2], "placement": {"n_sensors": 2}},
         "needs one of 'locations', 'grid' or 'placement', got "
         "['locations', 'placement']"),
        ({"locations": [0.2, 0.4], "include_ends": True},
         "include_ends needs grid"),
        ({"grid": 3, "z": 0.05}, "z needs kind eps, got 'w'"),
        ({"grid": 3, "snr": 50, "sigma_n": 0.01},
         "sigma_n and snr exclude each other"),
        ({"grid": 3, "label": "../escaped"},
         "label must be a non-empty string without / or \\, got "
         "'../escaped'"),
        ({"grid": 3, "label": "a\\b"},
         "label must be a non-empty string without / or \\, got "
         "'a\\\\b'")],
        ids=["grid-locations", "locations-placement", "include_ends", "z",
             "sigma_n-snr", "label-slash", "label-backslash"])
    def test_refused_by_entry_and_key(self, tmp_path, capsys, entry,
                                      message):
        cfg = {"version": 1, "beam": BEAM,
               "datasets": [{"kind": "w", "grid": 3, "sigma_n": 0.0,
                             "label": "w"},
                            dict({"kind": "w", "label": "w2"}, **entry)]}
        out = tmp_path / "out"
        assert run(["simulate", "--config", write_config(tmp_path, cfg),
                    "--out", out]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.strip() == \
            f"config error: datasets[1]: {message}"
        assert not (out / "manifest.json").exists()

    def test_refused_entry_leaves_no_file(self, tmp_path, capsys):
        """Every entry is checked before the first file is written."""
        cfg = {"version": 1, "beam": BEAM,
               "datasets": [{"kind": "w", "grid": 3, "label": "w"},
                            {"kind": "phi", "grid": 5, "z": 0.1}]}
        out = tmp_path / "out"
        assert run(["simulate", "--config", write_config(tmp_path, cfg),
                    "--out", out]) == cli.EXIT_CONFIG
        assert capsys.readouterr().err.strip() == \
            "config error: datasets[1]: z needs kind eps, got 'phi'"
        assert list(out.iterdir()) == []

    def test_identify_reads_only_its_keys(self, workflow):
        """identify reads a dataset's label and noise keys: the keys that
        simulate refuses together leave it as it was."""
        tmp_path, _, _ = workflow
        cfg = {"version": 1, "beam": BEAM, "mcmc": {"n_total": 40,
                                                    "n_b": 10, "n_t": 2},
               "datasets": [{"kind": "w", "label": "w", "grid": 3,
                             "locations": [0.2], "include_ends": True,
                             "z": 0.05, "snr": 50, "sigma_n": 0.01}]}
        out = tmp_path / "identify_keys"
        assert run(["identify", "--config",
                    write_config(tmp_path, cfg, "keys.json"), "--out", out,
                    "--data", tmp_path / "sim" / "data_w.csv"]) == 0
        # sigma_n holds w's noise fixed: the chain has no sigma_n:w.
        assert (out / "chain.csv").read_text().splitlines()[0] == \
            "sigma_s2,ell,EI,kGA"


class TestManifest:
    """Each command's manifest lists exactly the files its run wrote,
    each with its seed."""

    def listed(self, out, cfg_seed):
        manifest = json.loads((out / "manifest.json").read_text())
        written = {path.name for path in out.iterdir()}
        assert set(manifest["outputs"]) == written - {"manifest.json"}
        assert manifest["root_seed"] == cfg_seed
        return manifest["outputs"]

    def test_simulate(self, tmp_path):
        cfg = {"version": 1, "beam": BEAM, "seed": 8,
               "datasets": [{"kind": "w", "grid": 3, "snr": 10,
                             "label": "w"},
                            {"kind": "eps", "grid": 3, "z": 0.05,
                             "sigma_n": 0.0, "label": "e"}]}
        out = tmp_path / "out"
        assert run(["simulate", "--config", write_config(tmp_path, cfg),
                    "--out", out]) == 0
        assert self.listed(out, 8) == {
            f"data_{label}.csv": {"seed": experiments.replication_seed(8, i,
                                                                       0)}
            for i, label in enumerate(["w", "e"])}

    def test_place_with_entropy_map(self, tmp_path):
        cfg = {"version": 1, "beam": BEAM, "seed": 4,
               "placement": {"n_candidates": 6, "n_sensors": 2,
                             "kinds": ["w", "phi"],
                             "criteria": ["physics", "entropy"],
                             "entropy_map": True}}
        out = tmp_path / "out"
        assert run(["place", "--config", write_config(tmp_path, cfg),
                    "--out", out]) == 0
        outputs = self.listed(out, 4)
        assert len(outputs) == 5
        assert {value["seed"] for value in outputs.values()} == {4}

    def test_identify_dump_kernels_and_predict(self, workflow):
        tmp_path, out_id, _ = workflow
        data = [tmp_path / "sim" / f"data_{label}.csv"
                for label in ("w", "phi", "q")]
        cfg = {"version": 1, "beam": BEAM, "seed": 5,
               "mcmc": {"n_total": 40, "n_b": 10, "n_t": 2},
               "predict": {"kinds": ["w", "eps"], "n_grid": 5,
                           "max_draws": 3,
                           "strain_grid": {"nx": 3, "nz": 3}}}
        config = write_config(tmp_path, cfg, "manifest.json")
        out = tmp_path / "manifest_identify"
        assert run(["identify", "--config", config, "--out", out,
                    "--dump-kernels", "--data"] + data) == 0
        assert set(self.listed(out, 5)) == {
            "kernel_matrix.csv", "chain.csv", "summary.json",
            "diagnostics.json"}
        out = tmp_path / "manifest_predict"
        assert run(["predict", "--config", config, "--out", out, "--chain",
                    out_id / "chain.csv", "--data"] + data) == 0
        assert set(self.listed(out, 5)) == {"pred_w.csv", "pred_eps.csv"}

    def test_study(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TIMO_PIGP_THREADS", "1")
        cfg = {"version": 1, "beam": BEAM, "seed": 6,
               "mcmc": {"n_total": 60, "n_b": 20, "n_t": 2},
               "study": {"noise": {"snrs": [20], "replications": 1}}}
        out = tmp_path / "out"
        assert run(["study", "--study", "noise", "--config",
                    write_config(tmp_path, cfg), "--out", out]) == 0
        assert set(self.listed(out, 6)) == {"study_noise.csv",
                                            "study_noise_failures.json"}


@pytest.mark.parametrize("cfg", [{}, {"mcmc": {}}], ids=["absent", "empty"])
def test_mcmc_defaults_are_mcmc_config_defaults(cfg):
    assert cli.mcmc_from_config(cfg, 7) == mcmc.McmcConfig(seed=7)


def test_kga_prior_takes_ei_factors_without_its_own_section():
    beam_cfg = cli.beam_from_config({"beam": BEAM})
    ei = {"lo_factor": 0.8, "hi_factor": 1.25}

    def priors(section):
        return cli.priors_from_config({"priors": section}, beam_cfg)

    assert priors({}) == {"EI": mcmc.UniformBounded(0.5, 1.5),
                          "kGA": mcmc.UniformBounded(1.5, 4.5)} == \
        experiments.stiffness_priors(beam_cfg, {})
    assert priors({"EI": ei})["kGA"] == mcmc.UniformBounded(0.8 * 3.0,
                                                            1.25 * 3.0)
    # A kGA section of its own: its missing factors take the defaults.
    assert priors({"EI": ei, "kGA": {"lo_factor": 0.9}})["kGA"] == \
        mcmc.UniformBounded(0.9 * 3.0, 1.5 * 3.0)


class TestStudy:
    def test_noise_study_runs_and_reproduces(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TIMO_PIGP_THREADS", "2")
        cfg = {"version": 1, "beam": BEAM, "seed": 42,
               "mcmc": {"n_total": 400, "n_b": 150, "n_t": 5},
               "study": {"noise": {"snrs": [10, 50], "replications": 2}}}
        cfg_path = write_config(tmp_path, cfg)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(["study", "--study", "noise", "--config", cfg_path,
                    "--out", out_a]) == 0
        assert run(["study", "--study", "noise", "--config", cfg_path,
                    "--out", out_b]) == 0
        assert (out_a / "study_noise.csv").read_bytes() == \
            (out_b / "study_noise.csv").read_bytes()
        rows = read_rows(out_a / "study_noise.csv")
        assert [float(r["sweep_value"]) for r in rows] == [10.0, 50.0]
        for r in rows:
            assert int(r["n_reps"]) + int(r["n_failed"]) == 2
        failures = json.loads(
            (out_a / "study_noise_failures.json").read_text())
        assert len(failures) == sum(int(r["n_failed"]) for r in rows)

    def test_failed_replication_is_recorded(self, tmp_path, monkeypatch):
        """A replication that raises is listed with its sweep value,
        replication index, seed and error in study_noise_failures.json."""
        monkeypatch.setenv("TIMO_PIGP_THREADS", "1")
        real, calls = experiments.identify, []

        def second_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise StuckChainError(7)
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "identify", second_fails)
        cfg = {"version": 1, "beam": BEAM, "seed": 42,
               "mcmc": {"n_total": 200, "n_b": 50, "n_t": 5},
               "study": {"noise": {"snrs": [10, 50], "replications": 2}}}
        out = tmp_path / "out"
        assert run(["study", "--study", "noise", "--config",
                    write_config(tmp_path, cfg), "--out", out]) == 0
        failures = json.loads((out / "study_noise_failures.json").read_text())
        assert failures == [{"sweep_value": 10, "replication": 1,
                             "seed": experiments.replication_seed(42, 0, 1),
                             "error": repr(StuckChainError(7))}]
        assert [int(r["n_failed"]) for r in
                read_rows(out / "study_noise.csv")] == [1, 0]
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {"study_noise.csv",
                                            "study_noise_failures.json"}

    def test_no_replication_succeeded_exits_4(self, tmp_path, monkeypatch,
                                              capsys):
        """A step for a noise level that the sweep does not learn fails
        every replication: the CSV and the failures file are written as
        ever, and the command exits 4 with the count and the file."""
        monkeypatch.setenv("TIMO_PIGP_THREADS", "1")
        cfg = {"version": 1, "beam": BEAM, "seed": 42,
               "mcmc": {"n_total": 200, "n_b": 50, "n_t": 5,
                        "proposal_scale": {"sigma_n:x": 50.0}},
               "study": {"noise": {"snrs": [20], "replications": 1}}}
        out = tmp_path / "out"
        assert run(["study", "--study", "noise", "--config",
                    write_config(tmp_path, cfg), "--out", out]) == \
            cli.EXIT_NUMERICAL
        assert ("no replication succeeded (1 failed); see "
                "study_noise_failures.json") in capsys.readouterr().err
        assert [(int(r["n_reps"]), int(r["n_failed"])) for r in
                read_rows(out / "study_noise.csv")] == [(0, 1)]
        [failure] = json.loads(
            (out / "study_noise_failures.json").read_text())
        assert "sigma_n:x" in failure["error"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {"study_noise.csv",
                                            "study_noise_failures.json"}

    @pytest.mark.parametrize("value", ["two", "1.5", " "])
    def test_threads_env_not_an_integer_named(self, tmp_path, monkeypatch,
                                              capsys, value):
        monkeypatch.setenv("TIMO_PIGP_THREADS", value)
        cfg = {"version": 1, "beam": BEAM, "seed": 42,
               "mcmc": {"n_total": 200, "n_b": 50, "n_t": 5},
               "study": {"noise": {"snrs": [10, 50], "replications": 1}}}
        assert run(["study", "--study", "noise", "--config",
                    write_config(tmp_path, cfg),
                    "--out", tmp_path / "o"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"TIMO_PIGP_THREADS is not an integer: {value!r}" in err


def test_import_stays_light():
    """A fresh ``import timopigp.cli`` loads neither scipy.linalg's package
    nor the process pool: LAPACK comes from scipy's extension module, and
    only a sweep imports its pool."""
    path = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    heavy = ("scipy.linalg", "concurrent.futures.process", "multiprocessing")
    code = ("import sys, timopigp.cli; "
            f"print([m for m in {heavy!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# ---------------------------------------------------------------------------
# Input fuzz: one bad CSV field or config field at a time.  Every mutation
# makes the input invalid, so identify must refuse it with exit code 3
# (data) or 2 (config) and a message, without an exception escaping main.

FUZZ_CONFIG = {"version": 1, "beam": dict(BEAM, h=0.1),
               "bcs": [{"kind": "w", "locations": [0.0, 1.0]}],
               "datasets": [{"label": "w", "sigma_n": 1e-4}],
               "priors": {"EI": {"lo_factor": 0.5, "hi_factor": 1.5},
                          "kGA": {"lo_factor": 0.5, "hi_factor": 1.5}},
               "mcmc": {"n_total": 30, "n_b": 10, "n_t": 1,
                        "proposal_scale": 0.1}}
FUZZ_X = [0.2, 0.35, 0.5, 0.65, 0.8]


def fuzz_rows():
    y = beam.analytic_field(CFG_OBJ, QuantityKind.DEFLECTION,
                            np.array(FUZZ_X))
    return [["w", repr(x), "", repr(float(v)), "w"] for x, v in zip(FUZZ_X, y)]


def _is_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


NON_NUMERIC = st.sampled_from(["abc", "1.2.3", "0x10", "--1", "one"]) | \
    st.text(max_size=8).filter(lambda t: t.strip() and
                               not _is_float(t.strip()))
NON_FINITE = st.sampled_from(["nan", "inf", "-inf", "1e999", "-Infinity"])
OFF_SPAN = st.sampled_from(["-0.5", "1.5", "-1e-9", "1.0000001", "1e300"])

CSV_MUTATIONS = st.one_of(
    st.tuples(st.just("x"), NON_NUMERIC | NON_FINITE | OFF_SPAN |
              st.just("")),
    st.tuples(st.just("value"), NON_NUMERIC | NON_FINITE | st.just("")),
    st.tuples(st.just("z"), NON_NUMERIC | NON_FINITE),
    st.tuples(st.just("quantity"), st.sampled_from(["", "xyz", "W", "e"])),
    st.tuples(st.just("fields"), st.sampled_from([-1, 1, 2])))

# (path into the config, replacement): a replacement of None deletes the
# key; each value is invalid at its path.
BAD_NUMBERS = ["abc", [], {}, float("nan"), float("inf"), float("-inf")]
CONFIG_MUTATIONS = st.one_of(
    st.tuples(st.sampled_from([("beam", "L"), ("beam", "EI"),
                               ("beam", "kGA")]),
              st.sampled_from(BAD_NUMBERS + [None, 0.0, -1.0])),
    st.tuples(st.just(("beam", "h")), st.sampled_from(BAD_NUMBERS + [0.0])),
    st.tuples(st.just(("beam", "q0")), st.sampled_from(BAD_NUMBERS + [None])),
    st.tuples(st.sampled_from([("mcmc", "n_total"), ("mcmc", "n_b"),
                               ("mcmc", "n_t")]),
              st.sampled_from(BAD_NUMBERS + [-1])),
    st.tuples(st.just(("mcmc", "proposal_scale")),
              st.sampled_from(["abc", [], float("nan"), float("inf"), 0.0,
                               -0.1, {"ell": "abc"}, {"EII": 0.2}])),
    st.tuples(st.just(("priors", "EI", "lo_factor")),
              st.sampled_from(BAD_NUMBERS + [2.0, 0.0, -1.0])),
    st.tuples(st.just(("priors", "kGA", "hi_factor")),
              st.sampled_from(BAD_NUMBERS + [0.4])),
    st.tuples(st.sampled_from([("priors", "EI"), ("priors", "kGA")]),
              st.sampled_from([5, "abc", []])),
    st.tuples(st.just(("bcs", 0, "kind")), st.sampled_from([None, "xyz", 3])),
    st.tuples(st.just(("bcs", 0, "locations")),
              st.sampled_from([None, "abc", [float("nan"), 1.0],
                               [0.0, 1.5], [-0.1], [[0.0], 1.0]])),
    st.tuples(st.just(("datasets", 0, "sigma_n")),
              st.sampled_from(["abc", [], float("nan"), float("inf"),
                               -1e-3])),
    st.tuples(st.sampled_from([("beam",), ("version",)]), st.none()))

# Every config switch with a config that reads it: (command, config, path
# to the switch, how the error names its section).  Only JSON true and
# false are switch values.
SIMULATE_CONFIG = {"version": 1, "beam": BEAM,
                   "datasets": [{"kind": "w", "grid": 3, "sigma_n": 0.0,
                                 "label": "w"}]}
SWITCHES = [
    ("identify", FUZZ_CONFIG, ("datasets", 0, "learn_noise"), "dataset 'w'"),
    ("identify", dict(FUZZ_CONFIG, datasets=[{"label": "w"}]),
     ("datasets", 0, "learn_noise"), "dataset 'w'"),
    ("predict", dict(FUZZ_CONFIG, datasets=[{"label": "w"}]),
     ("datasets", 0, "learn_noise"), "dataset 'w'"),
    ("simulate", SIMULATE_CONFIG, ("datasets", 0, "include_ends"),
     "datasets[0]"),
    ("simulate", dict(SIMULATE_CONFIG, datasets=[
        {"kind": "w", "sigma_n": 0.0, "label": "w",
         "placement": {"n_sensors": 2, "n_candidates": 6}}]),
     ("datasets", 0, "placement", "with_bcs"), "datasets[0].placement"),
    ("place", {"version": 1, "beam": BEAM,
               "placement": {"n_candidates": 6, "n_sensors": 2}},
     ("placement", "entropy_map"), "placement")]
NOT_BOOLEANS = st.sampled_from(["false", "true", "no", "", 0, 1, 0.0, None,
                                [], {}]) | st.text(max_size=5)


def _fuzz_run(directory, rows, cfg, command="identify"):
    data = directory / "data.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["quantity", "x", "z", "value", "dataset_id"])
        writer.writerows(rows)
    config = directory / "config.json"
    config.write_text(json.dumps(cfg))
    args = [command, "--config", config, "--out", directory / "out"]
    if command in ("identify", "predict"):
        args += ["--data", data]
    if command == "predict":
        # A sigma_n:w column where the config learns w's noise, as
        # identify writes it.
        w = (cfg.get("datasets") or [{}])[0]
        learned = w.get("learn_noise", "sigma_n" not in w) is True
        chain = directory / "chain.csv"
        chain.write_text("sigma_s2,ell,EI,kGA" + ",sigma_n:w" * learned
                         + "\n1.0,0.125,1.0,3.0" + ",0.01" * learned + "\n")
        args += ["--chain", chain]
    if command == "study":
        args += ["--study", "noise"]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = run(args)
    return code, err.getvalue()


def _switched(cfg, path, value):
    cfg = copy.deepcopy(cfg)
    parent = cfg
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return cfg


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestInputFuzz:
    def test_unmutated_inputs_run(self, fuzz_dir):
        code, err = _fuzz_run(fuzz_dir, fuzz_rows(), FUZZ_CONFIG)
        assert code == cli.EXIT_OK, err

    @settings(max_examples=150, deadline=None)
    @given(row=st.integers(0, len(FUZZ_X) - 1), mutation=CSV_MUTATIONS)
    def test_bad_csv_field_is_a_data_error(self, fuzz_dir, row, mutation):
        rows = fuzz_rows()
        field, value = mutation
        if field == "fields":
            rows[row] = rows[row][:value] if value < 0 else \
                rows[row] + ["0.0"] * value
        else:
            rows[row][["quantity", "x", "z", "value"].index(field)] = value
        code, err = _fuzz_run(fuzz_dir, rows, FUZZ_CONFIG)
        assert code == cli.EXIT_DATA, (mutation, err)
        assert err.startswith("data error: ") and f":{row + 2}: " in err

    @settings(max_examples=150, deadline=None)
    @given(mutation=CONFIG_MUTATIONS)
    def test_bad_config_field_is_a_config_error(self, fuzz_dir, mutation):
        path, value = mutation
        cfg = copy.deepcopy(FUZZ_CONFIG)
        parent = cfg
        for key in path[:-1]:
            parent = parent[key]
        if value is None:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        code, err = _fuzz_run(fuzz_dir, fuzz_rows(), cfg)
        assert code == cli.EXIT_CONFIG, (mutation, err)
        assert err.startswith("config error: ") and len(err) > 15

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("case", SWITCHES,
                             ids=lambda c: f"{c[0]}-{c[2][-1]}")
    def test_boolean_switch_runs(self, fuzz_dir, case, value):
        command, cfg, path, _ = case
        code, err = _fuzz_run(fuzz_dir, fuzz_rows(),
                              _switched(cfg, path, value), command)
        assert code == cli.EXIT_OK, err

    @settings(max_examples=100, deadline=None)
    @given(case=st.sampled_from(SWITCHES), value=NOT_BOOLEANS)
    def test_non_boolean_switch_is_a_config_error(self, fuzz_dir, case,
                                                 value):
        """A string such as "false" is refused by name, not read as
        Python truth."""
        command, cfg, path, where = case
        code, err = _fuzz_run(fuzz_dir, fuzz_rows(),
                              _switched(cfg, path, value), command)
        assert code == cli.EXIT_CONFIG, (case, value, err)
        assert err.startswith(f"config error: {where}: {path[-1]} must be "
                              "true or false"), err


# The other commands' configs and the top-level seed: one value at a time,
# in the BAD_NUMBERS style plus a scalar where a list belongs and a list
# where a scalar belongs.  Every value is read by the CLI's one config
# reader, so each mutation exits 2 with "config error: <where>: <key>".
# (json writes 1e400 as Infinity, which reads back as the same inf.)
FUZZ_SIMULATE = {"version": 1, "beam": BEAM, "datasets": [
    {"kind": "w", "grid": 3, "snr": 20, "ndp": 2, "label": "w"},
    {"kind": "phi", "sigma_n": 0.0, "label": "phi",
     "placement": {"n_sensors": 2, "n_candidates": 6, "ell": 0.2}},
    {"kind": "M", "locations": [0.25, 0.5], "sigma_n": 0.0, "label": "M"}]}
FUZZ_PLACE = {"version": 1, "beam": BEAM, "seed": 0,
              "bcs": [{"kind": "w", "locations": [0.0, 1.0]}],
              "placement": {"n_candidates": 6, "n_sensors": 2,
                            "kinds": ["w"], "criteria": ["physics"],
                            "sigma_s2": 1.0, "ell": 0.2,
                            "entropy_map": True}}
FUZZ_PREDICT = dict(FUZZ_CONFIG, predict={
    "kinds": ["w", "eps"], "n_grid": 5, "max_draws": 2,
    "strain_grid": {"nx": 3, "nz": 3}})
FUZZ_STUDY = {"version": 1, "beam": BEAM, "seed": 0,
              "mcmc": {"n_total": 30, "n_b": 10, "n_t": 1},
              "study": {"noise": {"snrs": [20], "replications": 1,
                                  "r": 1.0}}}
FUZZ_BASES = {"simulate": FUZZ_SIMULATE, "place": FUZZ_PLACE,
              "identify": FUZZ_CONFIG, "predict": FUZZ_PREDICT,
              "study": FUZZ_STUDY}

BAD_VALUES = {
    "count": BAD_NUMBERS + [None, [4], -1, 2.5, True, "7"],
    "number": BAD_NUMBERS + [[1], 0.0, -1.0, True, "1.0"],
    "list": [None, 5, 1.0, "w", {}, True, ["xyz"], [[1]], [True]],
    "object": [None, 5, "abc", [], [1], True]}
# (command, path to the value, how the error names its section, type).
FUZZ_FIELDS = [
    ("simulate", ("datasets", 0, "grid"), "datasets[0]", "count"),
    ("simulate", ("datasets", 0, "ndp"), "datasets[0]", "count"),
    ("simulate", ("datasets", 0, "snr"), "datasets[0]", "number"),
    ("simulate", ("datasets", 1, "placement"), "datasets[1]", "object"),
    ("simulate", ("datasets", 1, "placement", "n_sensors"),
     "datasets[1].placement", "count"),
    ("simulate", ("datasets", 1, "placement", "n_candidates"),
     "datasets[1].placement", "count"),
    ("simulate", ("datasets", 1, "placement", "ell"),
     "datasets[1].placement", "number"),
    ("simulate", ("datasets", 2, "locations"), "datasets[2]", "list"),
    ("simulate", ("datasets",), "config", "list"),
    ("place", ("placement",), "config", "object"),
    ("place", ("placement", "n_candidates"), "placement", "count"),
    ("place", ("placement", "n_sensors"), "placement", "count"),
    ("place", ("placement", "sigma_s2"), "placement", "number"),
    ("place", ("placement", "ell"), "placement", "number"),
    ("place", ("placement", "kinds"), "placement", "list"),
    ("place", ("placement", "criteria"), "placement", "list"),
    ("place", ("bcs",), "config", "list"),
    ("predict", ("predict",), "config", "object"),
    ("predict", ("predict", "max_draws"), "predict", "count"),
    ("predict", ("predict", "n_grid"), "predict", "count"),
    ("predict", ("predict", "kinds"), "predict", "list"),
    ("predict", ("predict", "strain_grid"), "predict", "object"),
    ("predict", ("predict", "strain_grid", "nx"), "predict.strain_grid",
     "count"),
    ("predict", ("predict", "strain_grid", "nz"), "predict.strain_grid",
     "count"),
    ("study", ("study", "noise"), "study", "object"),
    ("study", ("study", "noise", "snrs"), "study.noise", "list"),
    ("study", ("study", "noise", "r"), "study.noise", "number"),
    ("study", ("study", "noise", "replications"), "study.noise", "count"),
] + [(command, ("seed",), "config", "count") for command in FUZZ_BASES]

# The one-field mutations that ended in a traceback before the config
# reader: (command, path, value, how the error names its section).
TRACEBACK_CASES = [
    ("place", ("placement", "n_sensors"), [4], "placement"),
    ("place", ("placement", "sigma_s2"), "abc", "placement"),
    ("place", ("placement", "n_candidates"), float("inf"), "placement"),
    ("place", ("seed",), [1], "config"),
    ("simulate", ("datasets", 0, "grid"), [3], "datasets[0]"),
    ("simulate", ("datasets", 0, "snr"), [1], "datasets[0]"),
    ("simulate", ("datasets", 0, "ndp"), float("inf"), "datasets[0]"),
    ("study", ("study", "noise", "snrs"), 5, "study.noise"),
    ("study", ("study", "noise", "r"), [1], "study.noise")]

# One misspelled key per section: (command, path to the key, its value,
# the message).  Every key is checked as the config loads, whichever
# command runs and whether or not it reads the section.
MISSPELLED_KEYS = [
    ("simulate", ("sead",), 3, "config: unknown key 'sead'"),
    ("simulate", ("beam", "EJ"), 1.0, "beam: unknown key 'EJ'"),
    ("place", ("bcs", 0, "location"), [0.0, 1.0],
     "bcs[0]: unknown key 'location'"),
    ("simulate", ("datasets", 0, "sigma"), 0.0,
     "datasets[0]: unknown key 'sigma'"),
    ("simulate", ("datasets", 1, "placement", "n_candidate"), 6,
     "datasets[1].placement: unknown key 'n_candidate'"),
    ("identify", ("datasets", 0, "sigma_n_int"), 1e-4,
     "datasets[0]: unknown key 'sigma_n_int'"),
    ("identify", ("priors", "Ei"), {"lo_factor": 0.5},
     "priors: unknown key 'Ei'"),
    ("identify", ("priors", "EI", "lo"), 0.5, "priors.EI: unknown key 'lo'"),
    ("identify", ("mcmc", "n_burn"), 10, "mcmc: unknown key 'n_burn'"),
    ("predict", ("predict", "ngrid"), 5, "predict: unknown key 'ngrid'"),
    ("predict", ("predict", "strain_grid", "ny"), 3,
     "predict.strain_grid: unknown key 'ny'"),
    ("place", ("placement", "critera"), ["mi"],
     "placement: unknown key 'critera'"),
    ("study", ("study", "nosie"), {}, "study: unknown key 'nosie'"),
    ("study", ("study", "noise", "snr"), 20.0,
     "study.noise: unknown key 'snr'"),
    ("study", ("study", "rigidity"), {"r_values": [1.0], "r": 1.0},
     "study.rigidity: unknown key 'r'"),
    # The ndp study runs at r = 1, so its section declares no r.
    ("study", ("study", "ndp"), {"values": [1], "r": 1.0},
     "study.ndp: unknown key 'r'")]

# The knobs that gave a setting a second way in, each with its one knob:
# a dataset's sigma_n (with learn_noise), a study's replications and
# placement.MAX_COMBOS, which place --full-scale lifts; and mcmc.adapt,
# a switch no run turned off: burn-in always adapts the steps.
REMOVED_KNOBS = [
    ("identify", ("mcmc", "adapt"), False, "mcmc: unknown key 'adapt'"),
    ("identify", ("datasets", 0, "sigma_n_init"), 1e-3,
     "datasets[0]: unknown key 'sigma_n_init'"),
    ("study", ("study", "noise", "full_replications"), 5,
     "study.noise: unknown key 'full_replications'"),
    ("place", ("placement", "max_combos"), 100,
     "placement: unknown key 'max_combos'")]


def _every_declared_key(table):
    """A config holding every key of ``table``, each value a placeholder."""
    if isinstance(table, list):
        return [_every_declared_key(table[0])]
    return {key: 1 if sub is None else _every_declared_key(sub)
            for key, sub in table.items()}


def _declared_keys(table):
    """(value keys, section keys) that ``table`` declares at every depth."""
    if isinstance(table, list):
        return _declared_keys(table[0])
    values = {key for key, sub in table.items() if sub is None}
    sections = set(table) - values
    for sub in table.values():
        if sub is not None:
            sub_values, sub_sections = _declared_keys(sub)
            values |= sub_values
            sections |= sub_sections
    return values, sections


class TestConfigFuzz:
    @pytest.mark.parametrize("command", list(FUZZ_BASES))
    def test_unmutated_config_runs(self, fuzz_dir, command):
        code, err = _fuzz_run(fuzz_dir, fuzz_rows(), FUZZ_BASES[command],
                              command)
        assert code == cli.EXIT_OK, err

    @pytest.mark.parametrize("case", FUZZ_FIELDS,
                             ids=lambda c: f"{c[0]}-{c[1][-1]}")
    def test_bad_value_named_by_section_and_key(self, fuzz_dir, case):
        command, path, where, kind = case
        for value in BAD_VALUES[kind]:
            code, err = _fuzz_run(
                fuzz_dir, fuzz_rows(),
                _switched(FUZZ_BASES[command], path, value), command)
            assert code == cli.EXIT_CONFIG, (value, err)
            assert err.startswith(f"config error: {where}: {path[-1]} "), \
                (value, err)

    def test_a_null_optional_value_reads_as_absent(self, fuzz_dir):
        cfg = _switched(FUZZ_PLACE, ("placement", "ell"), None)
        code, err = _fuzz_run(fuzz_dir, fuzz_rows(), cfg, "place")
        assert code == cli.EXIT_OK, err
        results = json.loads((fuzz_dir / "out" / "placement.json")
                             .read_text())
        assert results[0]["params"]["ell"] == 1.0 / 8.0

    @pytest.mark.parametrize("case", TRACEBACK_CASES,
                             ids=lambda c: f"{c[0]}-{c[1][-1]}-{c[2]!r}")
    def test_former_tracebacks_are_config_errors(self, fuzz_dir, case):
        command, path, value, where = case
        code, err = _fuzz_run(
            fuzz_dir, fuzz_rows(),
            _switched(FUZZ_BASES[command], path, value), command)
        assert code == cli.EXIT_CONFIG, err
        assert err.startswith(f"config error: {where}: {path[-1]} must be ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command,path,value,message", [
        ("identify", ("mcmc", "n_t"), 0,
         "mcmc: n_t must be a whole number >= 1, got 0"),
        ("identify", ("mcmc", "n_b"), 30,
         "mcmc: require 0 <= n_b < n_total"),
        ("predict", ("predict", "max_draws"), 0,
         "predict: max_draws must be a whole number >= 1, got 0"),
        ("place", ("placement", "n_sensors"), 0,
         "placement: n_sensors must be a whole number >= 1, got 0"),
        ("identify", ("mcmc", "proposal_scale"), {"EII": 0.2},
         "mcmc: proposal_scale key 'EII' is not a parameter"),
        ("identify", ("mcmc", "proposal_scale"), {"sigma_n:w": 50.0},
         "proposal_scale key 'sigma_n:w' names no learned noise level"),
        ("identify", ("priors", "EI", "lo_factor"), 0.0,
         "priors.EI: lo_factor must be a positive finite number, got 0.0"),
        ("identify", ("priors", "EI", "lo_factor"), -1.0,
         "priors.EI: lo_factor must be a positive finite number, got -1.0"),
        ("identify", ("priors", "kGA", "hi_factor"), 0,
         "priors.kGA: hi_factor must be a positive finite number, got 0"),
        ("identify", ("priors", "EI"), {"lo_factor": -3, "hi_factor": 1},
         "priors.EI: lo_factor must be a positive finite number, got -3"),
        ("identify", ("priors", "EI"), {"lo_factor": 2.0},
         "priors.EI: lo_factor must be below hi_factor, got 2.0 and 1.5"),
        ("identify", ("priors", "kGA", "hi_factor"), 0.5,
         "priors.kGA: lo_factor must be below hi_factor, got 0.5 and 0.5"),
        ("predict", ("predict", "n_grid"), 0,
         "predict: n_grid must be a whole number >= 1, got 0"),
        ("predict", ("predict", "strain_grid", "nx"), 0,
         "predict.strain_grid: nx must be a whole number >= 1, got 0"),
        ("predict", ("predict", "strain_grid", "nz"), 0,
         "predict.strain_grid: nz must be a whole number >= 1, got 0"),
        ("study", ("study", "noise", "replications"), 0,
         "study.noise: replications must be a whole number >= 1, got 0")],
        ids=["n_t", "n_b", "max_draws", "n_sensors", "scale_key",
             "scale_noise", "lo_zero", "lo_negative", "hi_zero",
             "lo_negative_box", "lo_above_hi", "empty_box", "n_grid", "nx",
             "nz", "replications"])
    def test_out_of_range_value_named(self, fuzz_dir, command, path, value,
                                      message):
        """Values of the right type that the model cannot take (a zero
        stride, a burn-in as long as the chain, no draws, a map of no
        sensors: FUZZ_PLACE asks for a map, a step for no parameter, a
        stiffness box that is empty or reaches zero, a count that would
        size an output of no rows) name their section and key."""
        code, err = _fuzz_run(fuzz_dir, fuzz_rows(),
                              _switched(FUZZ_BASES[command], path, value),
                              command)
        assert code == cli.EXIT_CONFIG, err
        assert err.startswith(f"config error: {message}"), err

    @pytest.mark.parametrize("command,path,value,message", [
        ("place", ("placement", "n_candidates"), 0,
         "placement: n_candidates: placement needs at least one candidate"),
        ("place", ("placement", "n_sensors"), 7,
         "placement: n_sensors exceeds candidate count (7 > 6)"),
        ("simulate", ("datasets", 0, "grid"), 0,
         "datasets[0]: grid: locations must not be empty"),
        ("simulate", ("datasets", 1, "placement", "n_sensors"), 0,
         "datasets[1].placement: n_sensors: locations must not be empty"),
        ("simulate", ("datasets", 1, "placement", "n_candidates"), 0,
         "datasets[1].placement: n_candidates: placement needs at least "
         "one candidate"),
        ("simulate", ("datasets", 1, "placement", "n_sensors"), 7,
         "datasets[1].placement: n_sensors exceeds candidate count "
         "(7 > 6)"),
        ("simulate", ("datasets", 2, "locations"), [],
         "datasets[2]: locations: locations must not be empty")],
        ids=["n_candidates", "n_sensors", "grid", "placed_n_sensors",
             "placed_n_candidates", "placed_budget", "locations"])
    def test_no_location_or_candidate_named(self, fuzz_dir, command, path,
                                            value, message):
        """A grid without candidates, a budget above the grid and a
        dataset without locations name their section and key."""
        code, err = _fuzz_run(fuzz_dir, fuzz_rows(),
                              _switched(FUZZ_BASES[command], path, value),
                              command)
        assert code == cli.EXIT_CONFIG, err
        assert err.startswith(f"config error: {message}"), err

    @pytest.mark.parametrize("command,path,entry", [
        ("place", ("placement", "kinds"), "w"),
        ("place", ("placement", "criteria"), "mi"),
        ("predict", ("predict", "kinds"), "w")],
        ids=["place-kinds", "place-criteria", "predict-kinds"])
    def test_empty_or_repeated_list_named(self, fuzz_dir, command, path,
                                          entry):
        """Each entry of a kinds or criteria list names an output: an
        empty list would write none, FUZZ_PLACE's map included, and a
        repeat would write one twice.  Both name their section and key."""
        for value in ([], [entry, entry]):
            code, err = _fuzz_run(fuzz_dir, fuzz_rows(),
                                  _switched(FUZZ_BASES[command], path, value),
                                  command)
            assert code == cli.EXIT_CONFIG, (value, err)
            assert err == (f"config error: {path[0]}: {path[1]}: needs at "
                           f"least one entry and no repeats, got {value!r}\n")

    def test_kinds_string_is_not_read_per_character(self, fuzz_dir):
        cfg = _switched(FUZZ_PLACE, ("placement", "kinds"), "w")
        code, err = _fuzz_run(fuzz_dir, fuzz_rows(), cfg, "place")
        assert code == cli.EXIT_CONFIG
        assert err.startswith("config error: placement: kinds must be a list "
                              "of quantity codes, got 'w'"), err

    @pytest.mark.parametrize("case", MISSPELLED_KEYS + REMOVED_KNOBS,
                             ids=lambda c: f"{c[0]}-{c[1][-1]}")
    def test_unknown_key_named_by_section(self, tmp_path, case):
        """Refused as the config loads: no output directory is made."""
        command, path, value, message = case
        code, err = _fuzz_run(tmp_path, fuzz_rows(),
                              _switched(FUZZ_BASES[command], path, value),
                              command)
        assert code == cli.EXIT_CONFIG, err
        assert err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_study_full_scale_flag_is_gone(self, fuzz_dir, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run(["study", "--study", "noise", "--config", "c.json",
                 "--out", fuzz_dir / "out", "--full-scale"])
        assert exc_info.value.code == cli.EXIT_CONFIG
        assert "unrecognized arguments: --full-scale" in \
            capsys.readouterr().err

    def test_config_of_every_declared_key_loads(self, tmp_path):
        cfg = dict(_every_declared_key(cli.CONFIG_KEYS), version=1)
        assert cli.load_config(write_config(tmp_path, cfg)) == cfg

    def test_every_key_read_is_declared(self):
        """Each key literal of a _read or _entries call in cli.py is in
        CONFIG_KEYS, a section where the call parses an object or a list
        of them and a value elsewhere, so a key the readers take is never
        refused."""
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        reads = {(node.args[2].value,
                  getattr(node.args[3], "id", "") in ("_section", "_sections"))
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name)
                 and node.func.id in ("_read", "_entries")
                 and isinstance(node.args[2], ast.Constant)}
        values, sections = _declared_keys(cli.CONFIG_KEYS)
        assert len(reads) > 30
        assert not {key for key, section in reads
                    if key not in (sections if section else values)}
