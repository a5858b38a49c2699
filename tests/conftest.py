"""Shared fixtures: small fitted models and databases."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml import LogisticRegression, SoftmaxRegression
from repro.relational import Database, Relation

@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture()
def binary_problem():
    """A small, linearly separable-ish binary classification problem."""
    rng = np.random.default_rng(7)
    n, d = 60, 4
    X = rng.normal(size=(n, d))
    w = np.asarray([1.5, -2.0, 0.5, 0.0])
    y = (X @ w + 0.2 * rng.normal(size=n) > 0).astype(int)
    return X, y


@pytest.fixture()
def fitted_binary_model(binary_problem):
    X, y = binary_problem
    model = LogisticRegression((0, 1), n_features=X.shape[1], l2=1e-2)
    model.fit(X, y, warm_start=False)
    return model


@pytest.fixture()
def multiclass_problem():
    rng = np.random.default_rng(11)
    n, d, k = 90, 5, 3
    centers = rng.normal(scale=2.0, size=(k, d))
    y = rng.integers(k, size=n)
    X = centers[y] + rng.normal(scale=0.7, size=(n, d))
    return X, y


@pytest.fixture()
def fitted_multiclass_model(multiclass_problem):
    X, y = multiclass_problem
    model = SoftmaxRegression((0, 1, 2), n_features=X.shape[1], l2=1e-2)
    model.fit(X, y, warm_start=False)
    return model


@pytest.fixture()
def simple_db(fitted_binary_model):
    """Database with one relation of queried features + the binary model."""
    rng = np.random.default_rng(3)
    X_query = rng.normal(size=(25, 4))
    db = Database()
    db.add_relation(
        Relation(
            "R",
            {
                "features": X_query,
                "id": np.arange(25),
                "flag": (np.arange(25) % 2 == 0).astype(int),
            },
        )
    )
    db.add_model("m", fitted_binary_model)
    return db
