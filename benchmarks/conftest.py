"""Benchmark harness conventions.

Every benchmark wraps one experiment module from ``repro.experiments`` in
``benchmark.pedantic(..., rounds=1, iterations=1)`` (the experiments are
minutes-scale parameter sweeps, not microbenchmarks), writes the rendered
result table to ``<basetemp>/benchmark-tables/<name>.txt``, and asserts
the paper's qualitative shape — orderings and directions, never absolute
numbers.

A test run never rewrites the committed tables in ``benchmarks/out/``;
regenerate those on purpose with
``python -m repro.cli run <experiment> --out benchmarks/out``.  Pass
``--basetemp <dir>`` to keep a run's tables at a known path.
"""

from __future__ import annotations

from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def out_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("benchmark-tables", numbered=False)


def save_and_print(result, out_dir: Path) -> None:
    path = result.save(out_dir)
    print(f"\n{result.table()}\n[saved to {path}]")
