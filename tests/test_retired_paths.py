"""The library keeps one debug runtime (node arrays) and one TwoStep encoder.

The row-at-a-time tree provenance runtime, the interpreted Holistic
objective, the tree-walking ILP encoder, tree materialization and the
expression classes live only as test oracles (``tests/oracles/``).
These checks pin that premise: no public entry point takes a
``provenance=`` or ``engine=`` selector again, the library never imports
the oracles, and neither the tree builders nor any tree-expression
identifier creeps back into ``src/repro``.
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


# The tree encoder, tree materialization and the expression classes live
# only in tests/oracles/ (tree_encoder.py, tree_lineage.py, tree_expr.py).
RETIRED_TREE_IDENTIFIERS = {
    # the second encoder and its tree walk
    "CompiledILPEncoder", "_ExprKey", "_aux_key", "_aux_cache",
    "_compiled_value_affine", "bool_affine", "num_affine",
    "_linearize_and", "_linearize_or", "_linearize_product",
    # materializing pool nodes as trees
    "to_expr", "to_exprs", "node_for_expr", "_materialize_one",
    "_expr_cache", "_expr_nodes", "linear_frontier_terms", "linear_atom_terms",
    # tree accessors of the result and complaint types
    "cell_polynomial", "group_polynomial_by_key", "tuple_condition",
    "candidate_conditions", "cell_polys", "polynomial", "_lineage_condition",
    # the expression classes and their helpers
    "BoolExpr", "TrueExpr", "FalseExpr", "PredIs", "AndExpr", "OrExpr",
    "NotExpr", "NumExpr", "ConstNum", "BoolAsNum", "AddExpr", "MulExpr",
    "DivExpr", "LinearSum", "pred_value", "evaluate_bool_batch",
    "assignment_from_predictions",
}


def _identifiers(tree: ast.AST):
    """Every name a module defines, reads, imports or accesses as attribute."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1]
            if node.asname:
                yield node.asname


def test_tree_expressions_stay_out_of_src_repro():
    offenders = sorted(
        f"{path.relative_to(SRC)}: {name}"
        for path in SRC.rglob("*.py")
        for name in set(_identifiers(ast.parse(path.read_text())))
        & RETIRED_TREE_IDENTIFIERS
    )
    assert offenders == []
