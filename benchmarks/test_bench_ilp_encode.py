"""Array-lowered ILP encoding: encode wall clock + exact program parity.

The fig6-shaped join workload across selection / COUNT / grouped
SUM-AVG complaint shapes.  ``repro.experiments.ilp_encode`` times the
library encoder (``make_encoder``); this bench times the tree-walking
test oracle (``tests/oracles/tree_encoder.py``) on the same scenarios
and pins the acceptance properties of the array encoder:

- the emitted program is IDENTICAL to the tree encoder's (variable
  count, objective, constraint rows and coefficient order — names
  aside), so branch & bound enumerates the same optima in the same
  order (checked on a small companion workload per shape) and TwoStep
  removal orders are bit-identical;
- array lowering (bulk aux-variable blocks + CSR constraint blocks
  straight from the NodePool) beats the tree walk by at least 2x on
  every aggregate scenario, at least 3x summed over them;
- cross-complaint aux dedup fires on the aggregate scenarios, where
  COUNT/SUM/AVG cells over the same group share member conditions.

The selection row is reported but carries no speedup floor: a handful
of tuple complaints touch a sliver of the pool, so the array encoder's
one-time pool canonicalization dominates there.  No benchmark workload
has this complaint-sparse shape.
"""

from conftest import save_and_print

from repro.experiments import ilp_encode
from repro.ilp import make_encoder
from repro.relational import Executor
from tests.oracles.tree_encoder import (
    make_tree_encoder,
    optima_trace,
    program_signature,
)

WORKLOAD = {"n_left": 240, "n_right": 160, "n_keys": 8, "depth": 4, "rounds": 3}
MAX_SOLUTIONS = 8
NODE_LIMIT = 1500


def tree_reference_rows(n_left, n_right, n_keys, depth, rounds, seed=0):
    """Per scenario: tree encode seconds, program identity, order parity."""
    executor = Executor(
        ilp_encode.build_join_database(
            n_left=n_left, n_right=n_right, n_keys=n_keys, seed=seed
        )
    )
    # The timing programs are too large to branch & bound inside the
    # bench budget, so enumeration-order parity runs on a small companion
    # workload per scenario shape; at timing scale the programs are
    # verified *identical*, which pins the enumeration order a fortiori.
    parity_executor = Executor(
        ilp_encode.build_join_database(n_left=24, n_right=16, n_keys=6, seed=seed)
    )
    parity_scenarios = {
        name: (plan, complaints_fn)
        for name, plan, complaints_fn in ilp_encode.build_scenarios(seed=seed, depth=2)
    }
    rows = {}
    for name, plan, complaints_fn in ilp_encode.build_scenarios(seed=seed, depth=depth):
        tree_s, tree_encoder = ilp_encode.time_encode(
            executor, plan, complaints_fn, make_tree_encoder, rounds
        )
        library = make_encoder(
            tree_encoder.result, complaints_fn(tree_encoder.result)
        )
        parity_plan, parity_fn = parity_scenarios[name]
        parity_result = parity_executor.execute(parity_plan, debug=True)
        parity_tree = make_tree_encoder(parity_result, parity_fn(parity_result))
        parity_library = make_encoder(parity_result, parity_fn(parity_result))
        rows[name] = {
            "tree_encode_s": tree_s,
            "program_identical": (
                program_signature(tree_encoder.program)
                == program_signature(library.program)
                and program_signature(parity_tree.program)
                == program_signature(parity_library.program)
            ),
            "order_matches": optima_trace(
                parity_tree.program, MAX_SOLUTIONS, NODE_LIMIT
            ) == optima_trace(parity_library.program, MAX_SOLUTIONS, NODE_LIMIT),
        }
    return rows


def test_bench_ilp_encode(benchmark, out_dir):
    result = benchmark.pedantic(
        ilp_encode.run, kwargs=WORKLOAD, rounds=1, iterations=1,
    )
    reference = tree_reference_rows(**WORKLOAD)
    aggregate = [name for name in reference if name != "selection"]
    reference["AGGREGATE_TOTAL"] = {
        "tree_encode_s": sum(reference[name]["tree_encode_s"] for name in aggregate),
        "program_identical": all(reference[n]["program_identical"] for n in aggregate),
        "order_matches": all(reference[n]["order_matches"] for n in aggregate),
    }
    for row in result.rows:
        row.update(reference[row["scenario"]])
        row["speedup"] = row["tree_encode_s"] / row["encode_s"]
    result.notes.append(
        "tree_encode_s = the tree-walking oracle encoder (expr materialization "
        "+ per-node add_constraint); speedup = tree_encode_s / encode_s; "
        "programs must be identical up to var names."
    )
    save_and_print(result, out_dir)

    rows = {row["scenario"]: row for row in result.rows}
    assert set(rows) == {
        "selection", "count", "grouped_sum_avg", "AGGREGATE_TOTAL"
    }
    for row in result.rows:
        assert row["program_identical"], row
        assert row["order_matches"], row
    assert rows["count"]["speedup"] >= 2.0, rows["count"]
    assert rows["grouped_sum_avg"]["speedup"] >= 2.0, rows["grouped_sum_avg"]
    assert rows["AGGREGATE_TOTAL"]["speedup"] >= 3.0, rows["AGGREGATE_TOTAL"]
    assert rows["grouped_sum_avg"]["aux_reused"] > 0
