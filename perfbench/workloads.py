"""The benchmark's workloads: session inputs generated from the workload seed.

Each session gets a data seed derived from ``(workload seed, session
index)``; from it the workload builds the datasets, corrupts the training
labels, fits the initial model and registers the queried relation, all
before the session is timed.  Why each workload exists is recorded in
``README.md`` next to this file.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from repro.experiments.common import build_dblp_setting

# Layers every session crosses, whatever the ranker.
LOOP_LAYERS = (
    "relational.plan", "relational.execute", "complaints.drain", "ml.fit",
    "core.rank", "influence.rank",
)


@dataclass
class SessionInputs:
    """Everything one debug session is constructed from."""

    database: object
    model_name: str
    X_train: np.ndarray
    y_train: np.ndarray
    cases: list
    corrupted: np.ndarray
    initial_params: np.ndarray

    def reset(self) -> None:
        """Restore the fitted parameters a session starts from."""
        self.database.model(self.model_name).set_params(self.initial_params)


@dataclass(frozen=True)
class Workload:
    method: str
    max_removals: int
    build: Callable[[int], SessionInputs]
    #: Layers whose spans must fire in a traced run (see spans.SEAMS).
    layers: tuple[str, ...]


def session_seed(workload_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([workload_seed, index]).generate_state(1)[0])


def _dblp(seed: int, n_train: int, n_query: int,
          corruption: float = 0.5) -> SessionInputs:
    setting = build_dblp_setting(corruption, n_train=n_train, n_query=n_query,
                                 seed=seed)
    return SessionInputs(
        setting.database, setting.model_name, setting.X_train,
        setting.y_corrupted, [setting.case], setting.corrupted_indices,
        setting.model.get_params(),
    )


WORKLOADS = {
    "dblp-holistic": Workload(
        "holistic", 50, partial(_dblp, n_train=400, n_query=16000),
        LOOP_LAYERS + ("relaxation.objective",),
    ),
    "dblp-twostep": Workload(
        "twostep", 50, partial(_dblp, n_train=400, n_query=2000),
        LOOP_LAYERS + ("ilp.encode", "ilp.enumerate", "ilp.lp_solve"),
    ),
    # 30% of matches flipped, not 50%: at 50% the flipped records are as
    # common as clean matches, InfLoss ranks them near chance (AUCCR about
    # 0.1, varying by half between seeds), and a run's mean AUCCR tracks
    # which seeds it drew rather than the ranking.
    "dblp-infloss": Workload(
        "infloss", 100, partial(_dblp, n_train=1000, n_query=2000, corruption=0.3),
        LOOP_LAYERS,
    ),
}
