"""Shared fixtures and the ``slow`` marker for the test suite.

Tier-1 (`pytest -q`) must stay fast, so fleet stress tests and other
long-running checks carry ``@pytest.mark.slow`` and are skipped unless
explicitly requested with ``--runslow`` or ``-m slow`` (see the
Makefile's ``test-slow`` target).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.problems import (
    make_classification,
    make_jacobi_instance,
    make_lasso,
    make_logistic,
    make_regression,
    make_ridge,
    random_flow_network,
    random_quadratic,
)


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run tests marked @pytest.mark.slow (fleet stress tests etc.)",
    )


def pytest_configure(config: pytest.Config) -> None:
    config.addinivalue_line(
        "markers", "slow: long-running test, excluded from tier-1 (`--runslow` to include)"
    )


def pytest_collection_modifyitems(config: pytest.Config, items: list[pytest.Item]) -> None:
    if config.getoption("--runslow") or "slow" in (config.getoption("-m") or ""):
        return
    skip_slow = pytest.mark.skip(reason="slow test: pass --runslow or -m slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_jacobi():
    """A 10-dim strictly dominant Jacobi operator with known fixed point."""
    return make_jacobi_instance(10, dominance=0.5, seed=7)


@pytest.fixture
def lasso_problem():
    data = make_regression(80, 12, sparsity=0.4, noise_std=0.1, seed=3)
    return make_lasso(data, l1=0.05, l2=0.1)


@pytest.fixture
def ridge_problem():
    data = make_regression(60, 10, seed=4)
    return make_ridge(data, l2=0.2)


@pytest.fixture
def logistic_problem():
    data = make_classification(100, 8, seed=5)
    return make_logistic(data, l2=0.3)


@pytest.fixture
def quadratic_problem():
    return random_quadratic(12, condition=8.0, seed=6)


@pytest.fixture
def flow_network():
    return random_flow_network(12, arc_density=0.25, seed=8)


@pytest.fixture()
def count_runs(monkeypatch):
    """Count actual scenario executions (resumed or cached rows must not run).

    Executions happen through two routes: solo calls (via
    ``_run_scenario_inner``) and batched lockstep groups (via
    ``run_scenario_batch``, which never reaches the solo plumbing).
    Both are counted; scenarios a batch hands back to the solo
    fallback are counted once, by the batch wrapper.  In-process
    executors only (serial, thread).
    """
    import repro.runtime.fleet as fleet_mod
    import repro.runtime.simulator.batched as batched_mod

    calls: list[str] = []
    inner = fleet_mod._run_scenario_inner
    batch = batched_mod.run_scenario_batch
    in_batch = [False]

    def counting(spec, **kwargs):
        if not in_batch[0]:
            calls.append(spec.key)
        return inner(spec, **kwargs)

    def counting_batch(specs, **kwargs):
        calls.extend(s.key for s in specs)
        in_batch[0] = True
        try:
            return batch(specs, **kwargs)
        finally:
            in_batch[0] = False

    monkeypatch.setattr(fleet_mod, "_run_scenario_inner", counting)
    monkeypatch.setattr(batched_mod, "run_scenario_batch", counting_batch)
    return calls


@pytest.fixture
def store_files():
    """Snapshot a store directory as ``{relative path: bytes}``.

    Two snapshots compare equal iff the same files exist with the same
    contents, so a test can assert that an operation wrote nothing.
    """

    def snapshot(root) -> "dict[str, bytes]":
        import pathlib

        root = pathlib.Path(root)
        return {
            str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()
        }

    return snapshot
