"""Multi-query serving: plan dedup against the tree oracle's replay.

The fig8 Adult substrate scaled to a serving workload: one complaint case
per aggregate group of Q6/Q7 (12 cases over 2 distinct plans).  The bench
pins the serving layer's acceptance properties, all deterministic:

- the deduped removal order is IDENTICAL to the tree oracle's replay
  (``tests.oracles.tree_provenance.tree_reference``), which re-executes
  every case;
- the workload has 2 distinct plans, and each iteration runs 2
  executions and saves the other 10.
"""

from conftest import save_and_print

from repro.experiments import serving
from tests.oracles.tree_provenance import tree_reference

KWARGS = {"n_query": 2000, "max_removals": 20}


def test_bench_serving(benchmark, out_dir):
    result = benchmark.pedantic(serving.run, kwargs=KWARGS, rounds=1, iterations=1)
    save_and_print(result, out_dir)
    with tree_reference():
        tree = serving.run(**KWARGS)

    assert result.series["removal_order"] == tree.series["removal_order"]
    (deduped,) = result.rows
    assert deduped["distinct_plans"] == 2
    assert deduped["hits"] and all(hits == 10 for hits in deduped["hits"]), deduped
    assert all(misses == 2 for misses in deduped["misses"]), deduped
    (replay,) = tree.rows
    assert all(misses == 12 for misses in replay["misses"]), replay
