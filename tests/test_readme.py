"""README's library quick start and its example config run as written.

The quick start uses public names such as ``experiments.PlacementCriterion``
and ``chain.thetas``, and the CLI's config rules apply to the example; a
change that removes a name or refuses the example fails here, not when a
reader tries it.
"""

import json
import re
from pathlib import Path

from timopigp import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text("utf-8"),
                        re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    assert "mean" in capsys.readouterr().out
    pred = namespace["pred"]
    assert pred.mean.shape == pred.var.shape == (51,)


def test_example_config_simulates(tmp_path):
    blocks = re.findall(r"```json\n(.*?)```", README.read_text("utf-8"), re.S)
    assert len(blocks) == 1
    path = tmp_path / "cfg.json"
    path.write_text(blocks[0], encoding="utf-8")
    assert cli.load_config(path) == json.loads(blocks[0])
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(path), "--out",
                     str(out)]) == cli.EXIT_OK
    assert {p.name for p in out.iterdir()} == {
        "data_w.csv", "data_phi.csv", "data_q.csv", "manifest.json"}
