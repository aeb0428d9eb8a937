"""Cross-study result cache: completed-anywhere scenarios never re-run.

``run_grid(cache=...)`` consults a content-addressed store before
executing any scenario and writes finished rows back, so overlapping
studies become incremental work.  The contract under test: cache hits
skip execution while staying bit-identical to a cold run, the
``REPRO_SWEEP_CACHE`` environment variable supplies the default cache,
``cache=False`` opts out, and the ``keep_traces`` completeness rule
holds for cached rows exactly as it does for resumed ones.
"""

from __future__ import annotations

import repro.runtime.fleet as fleet_mod
from repro.runtime.fleet import CACHE_ENV_VAR, run_grid
from repro.runtime.sweep_store import SweepStore
from repro.scenarios.spec import ScenarioGrid


def _grid(n_seeds: int = 2, **overrides) -> ScenarioGrid:
    defaults = dict(
        problems=(("jacobi", {"n": 8}),),
        delays=("zero", "uniform"),
        n_seeds=n_seeds,
        max_iterations=60,
        tol=1e-6,
    )
    defaults.update(overrides)
    return ScenarioGrid(**defaults)


class TestCacheHits:
    def test_warm_cache_skips_all_execution(self, tmp_path, count_runs):
        grid = _grid()
        cache = tmp_path / "cache"
        cold = run_grid(grid.expand(), store=tmp_path / "a", cache=cache,
                        executor="serial")
        assert len(count_runs) == grid.size
        warm = run_grid(grid.expand(), store=tmp_path / "b", cache=cache,
                        executor="serial")
        assert len(count_runs) == grid.size  # not one more execution
        assert warm.digest() == cold.digest()
        # The second store is complete and self-contained regardless.
        assert len(SweepStore(tmp_path / "b", create=False).completed()) == grid.size

    def test_overlapping_study_runs_only_new_scenarios(self, tmp_path, count_runs):
        # Two studies sharing half their scenarios (same content
        # hashes): the second executes only its unshared half.
        specs = _grid(n_seeds=3).expand()
        half, full = specs[: len(specs) // 2], specs
        cache = tmp_path / "cache"
        run_grid(half, store=tmp_path / "a", cache=cache, executor="serial")
        first = len(count_runs)
        assert first == len(half)
        run_grid(full, store=tmp_path / "b", cache=cache, executor="serial")
        assert len(count_runs) - first == len(full) - len(half)

    def test_cache_without_store(self, tmp_path, count_runs):
        # The cache also serves in-memory runs (no sweep store at all).
        grid = _grid(n_seeds=1)
        cache = tmp_path / "cache"
        a = run_grid(grid.expand(), cache=cache, executor="serial")
        b = run_grid(grid.expand(), cache=cache, executor="serial")
        assert len(count_runs) == grid.size
        assert a.digest() == b.digest()

    def test_any_finished_store_works_as_cache(self, tmp_path, count_runs):
        # A previous sweep's store *is* a cache: content addressing is
        # the whole interface.
        grid = _grid(n_seeds=1)
        run_grid(grid.expand(), store=tmp_path / "earlier", executor="serial")
        n = len(count_runs)
        run_grid(grid.expand(), store=tmp_path / "later",
                 cache=tmp_path / "earlier", executor="serial")
        assert len(count_runs) == n


class TestCacheResolution:
    def test_env_var_supplies_default_cache(self, tmp_path, count_runs, monkeypatch):
        grid = _grid(n_seeds=1)
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "envcache"))
        run_grid(grid.expand(), store=tmp_path / "a", executor="serial")
        n = len(count_runs)
        run_grid(grid.expand(), store=tmp_path / "b", executor="serial")
        assert len(count_runs) == n  # second run fully cache-hit

    def test_cache_false_disables_even_with_env(self, tmp_path, count_runs, monkeypatch):
        grid = _grid(n_seeds=1)
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "envcache"))
        run_grid(grid.expand(), store=tmp_path / "a", cache=False,
                 executor="serial")
        run_grid(grid.expand(), store=tmp_path / "b", cache=False,
                 executor="serial")
        assert len(count_runs) == 2 * grid.size  # everything executed twice

    def test_cache_aliasing_the_store_is_dropped(self, tmp_path, count_runs):
        # cache pointing at the run's own store would be pure churn;
        # it is silently ignored rather than double-written.
        grid = _grid(n_seeds=1)
        store = tmp_path / "a"
        fleet = run_grid(grid.expand(), store=store, cache=store,
                         executor="serial")
        assert len(count_runs) == grid.size
        assert not fleet.failures()

    def test_failed_scenarios_are_not_cached(self, tmp_path):
        grid = _grid(n_seeds=1, problems=(("jacobi", {"n": 8}),))
        specs = grid.expand()
        cache = tmp_path / "cache"

        def boom(spec, **kwargs):
            raise RuntimeError("injected")

        orig = fleet_mod._run_scenario_inner
        fleet_mod._run_scenario_inner = boom
        try:
            fleet = run_grid(specs, cache=cache, executor="serial")
        finally:
            fleet_mod._run_scenario_inner = orig
        assert len(fleet.failures()) == len(specs)
        assert SweepStore(cache, create=True).completed() == set()
        # After the failure the cold scenarios really execute and land
        # in the cache.
        ok = run_grid(specs, cache=cache, executor="serial")
        assert not ok.failures()
        assert len(SweepStore(cache, create=True).completed()) == len(specs)


class TestCacheTraceRule:
    def test_traceless_cache_rows_do_not_satisfy_keep_traces(
        self, tmp_path, count_runs
    ):
        grid = _grid(n_seeds=1)
        cache = tmp_path / "cache"
        run_grid(grid.expand(), store=tmp_path / "a", cache=cache,
                 executor="serial")  # no traces kept -> cache rows traceless
        n = len(count_runs)
        fleet = run_grid(grid.expand(), store=tmp_path / "b", cache=cache,
                         keep_traces=True, executor="serial")
        assert len(count_runs) == 2 * n  # every scenario re-ran for its trace
        store = SweepStore(tmp_path / "b", create=False)
        assert all(store.has_trace(r.content_hash) for r in fleet.ok())

    def test_traced_cache_rows_satisfy_keep_traces(self, tmp_path, count_runs):
        grid = _grid(n_seeds=1)
        cache = tmp_path / "cache"
        run_grid(grid.expand(), store=tmp_path / "a", cache=cache,
                 keep_traces=True, executor="serial")
        n = len(count_runs)
        fleet = run_grid(grid.expand(), store=tmp_path / "b", cache=cache,
                         keep_traces=True, executor="serial")
        assert len(count_runs) == n  # traces came from the cache
        store = SweepStore(tmp_path / "b", create=False)
        for r in fleet.ok():
            assert store.has_trace(r.content_hash)
            assert r.trace_path == str(store.trace_path(r.content_hash))


class TestCacheShardInteraction:
    """ISSUE 6: the cache composes with multi-host sharding.

    One host arrives with a warm cross-study cache (its shard fully
    satisfied without executing), the other runs cold; the merged store
    must certify bit-identically with an uncached single-host sweep.
    """

    def test_warm_and_cold_shards_merge_to_single_host_digest(
        self, tmp_path, count_runs
    ):
        grid = _grid(n_seeds=2)  # 4 scenarios, 2 per shard
        shard0, shard1 = grid.shard(2, 0), grid.shard(2, 1)

        # Uncached single-host reference.
        run_grid(grid.expand(), store=tmp_path / "single", cache=False,
                 executor="serial")
        baseline = len(count_runs)
        single = SweepStore(tmp_path / "single", create=False)

        # An earlier, unrelated study happens to have computed shard 0's
        # scenarios into the shared cache.
        cache = tmp_path / "cache"
        run_grid(shard0, cache=cache, executor="serial")
        warm_fill = len(count_runs) - baseline
        assert warm_fill == len(shard0)

        # Host 0 is fully cache-hit, host 1 runs cold.
        run_grid(shard0, store=tmp_path / "h0", cache=cache, executor="serial")
        assert len(count_runs) - baseline == warm_fill  # zero new executions
        run_grid(shard1, store=tmp_path / "h1", cache=False, executor="serial")
        assert len(count_runs) - baseline == warm_fill + len(shard1)

        merged = SweepStore(tmp_path / "merged").merge(
            tmp_path / "h0", tmp_path / "h1"
        )
        assert merged.digest() == single.digest()
        assert merged.fleet_result().scenario_count == grid.size

    def test_cache_hit_shard_store_is_complete_for_merge(self, tmp_path):
        # The cache-satisfied host's store must be self-contained: rows
        # present on disk, not references into the cache directory.
        grid = _grid(n_seeds=1)
        shard0 = grid.shard(2, 0)
        cache = tmp_path / "cache"
        run_grid(shard0, cache=cache, executor="serial")
        run_grid(shard0, store=tmp_path / "h0", cache=cache, executor="serial")
        store = SweepStore(tmp_path / "h0", create=False)
        assert len(store.completed()) == len(shard0)
        for spec in shard0:
            assert store.load_result_by_hash(spec.content_hash) is not None
