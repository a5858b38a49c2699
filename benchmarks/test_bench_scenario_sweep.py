"""Corruption-rate sweep over the ENRON / Adult paper scenarios.

Per (scenario, rate) cell: the library's ILP encode wall clock and one
deterministic branch & bound solve (``repro.experiments.scenario_sweep``),
plus — from the tree-walking test oracle — the tree encode wall clock
and program parity up to variable naming.  The ENRON rows grade Table
3's labelling-function rule by the fraction of token-matching emails it
relabels; the Adult rows reuse Figure 8's flip fraction.

The asserts here are qualitative — every cell present, every program
pair identical, every solve optimal.  These single-table scenarios
carry flat provenance, so no encode-speedup floor applies; that floor
lives in ``test_bench_ilp_encode`` on the fig6-shaped join workload.
"""

from conftest import save_and_print

from repro.experiments import scenario_sweep
from repro.experiments.ilp_encode import time_encode
from repro.ilp import make_encoder
from repro.relational import Executor, plan_sql
from tests.oracles.tree_encoder import make_tree_encoder, program_signature

WORKLOAD = {"rates": (0.5, 1.0), "flip_fractions": (0.3, 0.5),
            "n_train": 400, "n_query": 1200, "rounds": 3}


def tree_reference_rows(rates, flip_fractions, n_train, n_query, rounds, seed=0):
    """``(scenario, rate) -> tree encode seconds and program identity``."""
    rows = {}
    for name, rate, database, case in scenario_sweep.scenarios(
        rates, flip_fractions, n_train, n_query, seed
    ):
        tree_s, tree_encoder = time_encode(
            Executor(database),
            plan_sql(case.query, database),
            lambda _result: case.complaints,
            make_tree_encoder,
            rounds,
        )
        library = make_encoder(tree_encoder.result, case.complaints)
        rows[name, rate] = {
            "tree_encode_s": tree_s,
            "program_identical": program_signature(tree_encoder.program)
            == program_signature(library.program),
        }
    return rows


def test_bench_scenario_sweep(benchmark, out_dir):
    result = benchmark.pedantic(
        scenario_sweep.run, kwargs=WORKLOAD, rounds=1, iterations=1,
    )
    reference = tree_reference_rows(**WORKLOAD)
    for row in result.rows:
        row.update(reference[row["scenario"], row["rate"]])
        row["speedup"] = row["tree_encode_s"] / row["encode_s"]
    save_and_print(result, out_dir)

    cells = {(row["scenario"], row["rate"]) for row in result.rows}
    assert cells == {
        ("enron_http", 0.5), ("enron_http", 1.0),
        ("enron_deal", 0.5), ("enron_deal", 1.0),
        ("adult_q6_gender", 0.3), ("adult_q6_gender", 0.5),
        ("adult_q7_age", 0.3), ("adult_q7_age", 0.5),
    }
    for row in result.rows:
        assert row["program_identical"], row
        assert row["solve_status"].startswith("optimal"), row
        assert row["tree_encode_s"] > 0 and row["encode_s"] > 0
