"""The library keeps one debug runtime: compiled node arrays.

The row-at-a-time tree provenance runtime and the interpreted Holistic
objective live only as test oracles (``tests/oracles/``).  These checks
pin that premise: no public entry point takes a ``provenance=`` or
``engine=`` selector again, the library never imports the oracles, and
the tree builders do not creep back into ``src/repro``.
"""

import ast
import inspect
from pathlib import Path

import pytest

from repro.core.interventions import RelabelDebugger
from repro.core.rain import RainDebugger
from repro.experiments.common import run_method
from repro.relational.context import QueryRuntime
from repro.relational.executor import ExecutionCache, Executor
from repro.relaxation.objective import (
    RelaxedComplaintObjective,
    batched_case_objectives,
)

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

ENTRY_POINTS = {
    "Executor.execute": Executor.execute,
    "QueryRuntime": QueryRuntime,
    "ExecutionCache": ExecutionCache,
    "RainDebugger": RainDebugger,
    "RelabelDebugger": RelabelDebugger,
    "RelabelDebugger.run": RelabelDebugger.run,
    "run_method": run_method,
    "RelaxedComplaintObjective": RelaxedComplaintObjective,
    "batched_case_objectives": batched_case_objectives,
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_no_runtime_selector_parameter(name):
    parameters = inspect.signature(ENTRY_POINTS[name]).parameters
    assert not {"provenance", "engine"} & set(parameters), name


def test_src_repro_imports_nothing_from_tests():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[0] == "tests" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_tree_builders_stay_out_of_src_repro():
    retired = (
        "def symbolic_bool(",
        "def symbolic_num(",
        "_predict_reference",
        "_intern_sites_reference",
    )
    offenders = [
        f"{path.name}: {marker}"
        for path in sorted(SRC.rglob("*.py"))
        for marker in retired
        if marker in path.read_text()
    ]
    assert offenders == []
