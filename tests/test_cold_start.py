"""numpy is a first-use import: the rule, search, report and play paths
never load it, and learning loads it when it first computes. Those paths
load no ``statistics`` either, nor the number modules it pulls in, nor
``learning`` itself. Every module imports cleanly as the first one a fresh
interpreter loads."""

from __future__ import annotations

import ast
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from dhumbal import learning, neuralnet as nn

SRC = Path(__file__).resolve().parent.parent / "src"

# a fresh interpreter: play and report without learning, numpy or statistics,
# then learn with numpy
COLD_START = """
import json, random, sys
from contextlib import redirect_stdout
from io import StringIO

from dhumbal import cli, neuralnet as nn, search

with redirect_stdout(StringIO()):
    assert cli.main(["tournament", "rule", "--rounds", "2", "--out", "run"]) == 0
    assert cli.main(["report", "--records", "run/records.csv"]) == 0
before = sorted(name for name in sys.modules if name.startswith("numpy.") or name in (
    "statistics", "_statistics", "fractions", "decimal", "_decimal", "numbers",
    "dhumbal.learning"))

from dhumbal import learning

core = learning.DQNAgentCore(learning.DQNConfig(), seed=3)
env = learning.RoundEnv(learning.default_opponents(), random.Random(4))
state, mask, _ = env.reset()
print(json.dumps({
    "before": before,
    "loaded": "numpy.random" in sys.modules and learning.np is sys.modules["numpy"],
    "net": nn.net_to_doc(core.net),
    "q": nn.forward(core.net, state).tolist(),
    "mask": mask.tolist(),
}))
"""


def test_commands_run_without_numpy_and_learning_loads_it(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", COLD_START], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["before"] == []
    assert result["loaded"]
    # the same numbers as the eagerly loaded numpy of this process
    core = learning.DQNAgentCore(learning.DQNConfig(), seed=3)
    state, mask, _ = learning.RoundEnv(learning.default_opponents(), random.Random(4)).reset()
    assert result["net"] == nn.net_to_doc(core.net)
    assert result["q"] == nn.forward(core.net, state).tolist()
    assert result["mask"] == mask.tolist()


@pytest.mark.parametrize(
    "module", sorted(path.stem for path in (SRC / "dhumbal").glob("*.py")))
def test_each_module_imports_first(module):
    """An import cycle shows only for some import orders (learning imports
    arena, and arena imports learning inside ``build_agent``), so each
    module is imported first by a fresh interpreter."""
    name = "dhumbal" if module == "__init__" else f"dhumbal.{module}"
    done = subprocess.run([sys.executable, "-c", f"import {name}"],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_numpy_is_imported_in_one_place():
    imports = []
    for path in sorted((SRC / "dhumbal").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imports += [(path.name, a.name) for a in node.names if a.name.startswith("numpy")]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
                imports.append((path.name, node.module))
    assert imports == []
    assert nn.np is sys.modules["numpy"]
    assert learning.np is nn.np


class TestLazyImport:
    def test_loaded_module_is_returned_as_it_is(self):
        assert nn._lazy_import("json") is json

    def test_missing_module_raises_at_import(self):
        with pytest.raises(ModuleNotFoundError, match="no_such_module_here"):
            nn._lazy_import("no_such_module_here")

    def test_body_runs_on_first_attribute_access(self, tmp_path, monkeypatch):
        (tmp_path / "lazy_probe.py").write_text(
            "import sys\nsys.lazy_probe_runs += 1\nVALUE = 7\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        monkeypatch.setattr(sys, "lazy_probe_runs", 0, raising=False)
        try:
            module = nn._lazy_import("lazy_probe")
            assert sys.lazy_probe_runs == 0
            assert module.VALUE == 7
            assert sys.lazy_probe_runs == 1
            assert nn._lazy_import("lazy_probe") is module
        finally:
            sys.modules.pop("lazy_probe", None)
