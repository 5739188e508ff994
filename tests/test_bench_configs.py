"""The benchmark's workloads write configs that the CLI loads.

A config key that no reader declares exits 2 (``cli.CONFIG_KEYS``), so a
key that the package stops declaring would otherwise show up only as a
failed benchmark run.  Each workload of ``bench/workloads.py`` generates
its inputs here, and every config it writes goes through
``cli.load_config``.  The test only imports from ``bench/``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from timopigp import cli

ROOT = Path(__file__).resolve().parents[1]


def _workloads():
    """bench/workloads.py as a module of its own name (its dataclasses
    look their module up in sys.modules)."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", ROOT / "bench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_configs_load(tmp_path, monkeypatch, name):
    written = []
    write_json = workloads._write_json

    def record(path, obj):
        written.append(path)
        write_json(path, obj)

    monkeypatch.setattr(workloads, "_write_json", record)
    workloads.WORKLOADS[name](7, tmp_path).generate()
    assert written
    for path in written:
        assert cli.load_config(path)["version"] == cli.CONFIG_VERSION
