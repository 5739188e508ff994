"""README's library quick start runs as written.

It uses public names such as ``experiments.PlacementCriterion`` and
``chain.thetas``; a change that removes one fails here, not when a
reader tries it.
"""

import re
from pathlib import Path

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
