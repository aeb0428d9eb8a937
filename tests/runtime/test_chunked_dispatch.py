"""Chunked fleet dispatch: packing, validation, bit-identity.

One pool task now carries a cost-balanced *chunk* of scenarios instead
of a single pickled spec, so per-task IPC amortizes over grids of many
small scenarios.  The contract under test: chunk packing covers every
spec exactly once with balanced expected cost, and the resulting
``FleetResult`` is bit-identical to serial and to per-task dispatch on
every executor.
"""

from __future__ import annotations

import pytest

from repro.runtime.fleet import (
    _AUTO_CHUNKS_PER_WORKER,
    _pack_chunks,
    _run_chunk,
    run_fleet,
    run_grid,
    run_scenario,
)
from repro.runtime.simulator.batched import batchable
from repro.scenarios.spec import ScenarioGrid, ScenarioSpec


def _grid(n_seeds: int = 4, **overrides) -> ScenarioGrid:
    defaults = dict(
        problems=(("jacobi", {"n": 8}),),
        delays=("zero", "uniform"),
        n_seeds=n_seeds,
        max_iterations=60,
        tol=1e-6,
    )
    defaults.update(overrides)
    return ScenarioGrid(**defaults)


def _indexed(specs):
    return list(enumerate(specs))


class TestPackChunks:
    def test_auto_targets_four_tasks_per_worker(self):
        specs = _grid(n_seeds=32).expand()  # 64 scenarios
        chunks = _pack_chunks(_indexed(specs), "auto", workers=4)
        assert len(chunks) == 16  # 4 x 4 workers
        covered = sorted(i for chunk in chunks for i, _ in chunk)
        assert covered == list(range(len(specs)))

    def test_auto_never_exceeds_spec_count(self):
        specs = _grid(n_seeds=1).expand()  # 2 scenarios
        chunks = _pack_chunks(_indexed(specs), "auto", workers=8)
        assert len(chunks) == 2
        assert all(len(c) == 1 for c in chunks)

    def test_explicit_size_bounds_chunks(self):
        specs = _grid(n_seeds=5).expand()  # 10 scenarios
        chunks = _pack_chunks(_indexed(specs), 4, workers=1)
        assert len(chunks) == 3  # ceil(10 / 4)
        assert max(len(c) for c in chunks) <= 4
        covered = sorted(i for chunk in chunks for i, _ in chunk)
        assert covered == list(range(10))

    def test_single_chunk_when_size_swallows_all(self):
        specs = _grid(n_seeds=2).expand()
        chunks = _pack_chunks(_indexed(specs), 1000, workers=2)
        assert len(chunks) == 1
        assert [i for i, _ in chunks[0]] == list(range(len(specs)))

    def test_empty_input(self):
        assert _pack_chunks([], "auto", workers=4) == []

    def test_cost_balanced_not_count_balanced(self):
        # 2 heavy specs (10000 iterations) + 6 light ones (100): with 2
        # chunks, each heavy spec must land in its own chunk instead of
        # both stacking into one straggler task.  The heavy specs differ
        # in problem size, so they are two batch groups, not one.
        heavy = [
            ScenarioSpec(problem="jacobi", problem_params={"n": 8 + s},
                         seed=s, max_iterations=10_000)
            for s in range(2)
        ]
        light = [
            ScenarioSpec(problem="jacobi", seed=10 + s, max_iterations=100)
            for s in range(6)
        ]
        chunks = _pack_chunks(_indexed(heavy + light), 4, workers=1)
        assert len(chunks) == 2
        heavy_per_chunk = [
            sum(1 for _, sp in chunk if sp.max_iterations == 10_000)
            for chunk in chunks
        ]
        assert sorted(heavy_per_chunk) == [1, 1]

    def test_explicit_size_is_a_hard_cap_under_heterogeneous_costs(self):
        # Cost balancing must not overflow an explicit chunk_size: one
        # heavy spec pulls the light ones toward the other chunks, but
        # no chunk may exceed the cap (callers cap per-task memory and
        # kill-loss granularity with it).
        heavy = [ScenarioSpec(problem="jacobi", seed=0, max_iterations=10_000)]
        light = [
            ScenarioSpec(problem="jacobi", seed=1 + s, max_iterations=100)
            for s in range(9)
        ]
        chunks = _pack_chunks(_indexed(heavy + light), 4, workers=1)
        assert max(len(c) for c in chunks) <= 4
        covered = sorted(i for chunk in chunks for i, _ in chunk)
        assert covered == list(range(10))

    def test_submission_order_within_chunks(self):
        specs = _grid(n_seeds=8).expand()
        for chunk in _pack_chunks(_indexed(specs), "auto", workers=2):
            indices = [i for i, _ in chunk]
            assert indices == sorted(indices)

    def test_deterministic_layout(self):
        specs = _grid(n_seeds=8).expand()
        a = _pack_chunks(_indexed(specs), "auto", workers=3)
        b = _pack_chunks(_indexed(specs), "auto", workers=3)
        assert [[i for i, _ in c] for c in a] == [[i for i, _ in c] for c in b]


class TestGroupAwarePacking:
    """Chunks carry whole batch groups, or slices of at least two."""

    @pytest.mark.parametrize("workers", [1, 2, 8, 64])
    @pytest.mark.parametrize("n_seeds", [5, 24])
    def test_groups_reach_the_engine_whole_or_paired(self, workers, n_seeds):
        specs = _grid(n_seeds=n_seeds, steerings=("cyclic", "random-subset"),
                      max_iterations=40).expand()
        chunks = _pack_chunks(_indexed(specs), "auto", workers=workers)
        chunk_of = {i: c for c, chunk in enumerate(chunks) for i, _ in chunk}
        groups: dict = {}
        for i, spec in enumerate(specs):
            assert batchable(spec)
            groups.setdefault(spec.batch_key, []).append(i)
        n_chunks = min(len(specs), _AUTO_CHUNKS_PER_WORKER * workers)
        share = sum(s.max_iterations for s in specs) / n_chunks
        for members in groups.values():
            for i in members:
                mates = [j for j in members
                         if j != i and chunk_of[j] == chunk_of[i]]
                assert mates, (workers, i)
            if len(members) * specs[members[0]].max_iterations <= share:
                assert len({chunk_of[i] for i in members}) == 1

    def test_split_groups_stay_contiguous_and_balanced(self):
        specs = _grid(n_seeds=32).expand()  # 2 groups of 32
        chunks = _pack_chunks(_indexed(specs), "auto", workers=2)
        assert len(chunks) == 8 and {len(c) for c in chunks} == {8}
        members: dict = {}
        for i, spec in enumerate(specs):
            members.setdefault(spec.batch_key, []).append(i)
        for chunk in chunks:
            assert len({sp.batch_key for _, sp in chunk}) == 1
            group = members[chunk[0][1].batch_key]
            pos = [group.index(i) for i, _ in chunk]
            assert pos == list(range(pos[0], pos[0] + len(chunk)))

    def test_unbatchable_specs_pack_one_by_one(self):
        specs = _grid(n_seeds=4, backends=("flexible",)).expand()
        chunks = _pack_chunks(_indexed(specs), "auto", workers=2)
        assert len(chunks) == len(specs)


class TestChunkSizeValidation:
    @pytest.mark.parametrize("bad", [0, -3, "big", 2.5, True])
    def test_rejected_by_run_fleet(self, bad):
        specs = _grid(n_seeds=1).expand()
        with pytest.raises(ValueError, match="chunk_size"):
            run_fleet(specs, executor="serial", chunk_size=bad)

    def test_rejected_by_run_grid(self, tmp_path):
        specs = _grid(n_seeds=1).expand()
        with pytest.raises(ValueError, match="chunk_size"):
            run_grid(specs, store=tmp_path / "s", chunk_size=0)


class TestChunkedBitIdentity:
    def test_run_chunk_matches_individual_runs(self):
        specs = list(_grid(n_seeds=2).expand())
        chunked = _run_chunk(run_scenario, specs)
        singles = [run_scenario(s) for s in specs]
        for c, s in zip(chunked, singles):
            assert c.key == s.key
            assert c.iterations == s.iterations
            assert c.final_residual == s.final_residual

    def test_thread_chunked_matches_serial(self):
        specs = _grid(n_seeds=3).expand()
        serial = run_fleet(specs, executor="serial")
        chunked = run_fleet(specs, executor="thread", max_workers=3, chunk_size="auto")
        per_task = run_fleet(specs, executor="thread", max_workers=3, chunk_size=1)
        assert chunked.digest() == serial.digest() == per_task.digest()
        for rs, rc in zip(serial.results, chunked.results):
            assert rs.key == rc.key
            assert rs.iterations == rc.iterations
            assert rs.final_residual == rc.final_residual

    def test_chunked_run_grid_streams_per_scenario(self, tmp_path):
        specs = _grid(n_seeds=3).expand()
        store_dir = tmp_path / "chunked"
        fleet = run_grid(
            specs, store=store_dir, executor="thread", max_workers=2,
            chunk_size=2,
        )
        from repro.runtime.sweep_store import SweepStore

        store = SweepStore(store_dir, create=False)
        assert len(store.completed()) == len(specs)
        assert store.digest() == fleet.digest()

    def test_thread_mixed_grid_matches_serial_and_solo(self):
        # Exact engine (batched), flexible engine (always solo) and a
        # lockstep simulator (batched) in one grid on a thread pool.
        engine = _grid(n_seeds=3, backends=("exact", "flexible")).expand()
        sim = ScenarioGrid(
            problems=(("jacobi", {"n": 8}),), kind="simulator",
            machines=(("lockstep", {"n_processors": 4}),), n_seeds=3,
            max_iterations=60, tol=1e-6,
        ).expand()
        specs = list(engine) + list(sim)
        thread = run_fleet(specs, executor="thread", max_workers=2)
        serial = run_fleet(specs, executor="serial")
        solo = run_fleet(specs, executor="thread", max_workers=2, batch=False)
        assert not thread.failures()
        assert thread.digest() == serial.digest() == solo.digest()

    @pytest.mark.slow
    def test_process_chunked_matches_serial(self):
        specs = _grid(n_seeds=2).expand()
        serial = run_fleet(specs, executor="serial")
        chunked = run_fleet(specs, executor="process", max_workers=2, chunk_size="auto")
        assert chunked.digest() == serial.digest()


class TestPackingEdges:
    """ISSUE 6 bugfix: degenerate packings never emit empty chunks."""

    def test_auto_on_single_scenario_grid(self):
        specs = _grid(n_seeds=1, delays=("zero",)).expand()
        assert len(specs) == 1
        chunks = _pack_chunks(_indexed(specs), "auto", workers=4)
        assert chunks == [[(0, specs[0])]]

    def test_explicit_size_larger_than_grid_has_no_empty_chunks(self):
        specs = _grid(n_seeds=1).expand()  # 2 scenarios
        for size in (3, 10, 10_000):
            chunks = _pack_chunks(_indexed(specs), size, workers=3)
            assert all(chunk for chunk in chunks), size
            covered = sorted(i for chunk in chunks for i, _ in chunk)
            assert covered == list(range(len(specs)))

    @pytest.mark.parametrize("chunk_size", ["auto", 1, 7, 10_000])
    @pytest.mark.parametrize("workers", [1, 3, 16])
    def test_never_any_empty_chunk(self, chunk_size, workers):
        specs = _grid(n_seeds=2).expand()  # 4 scenarios
        chunks = _pack_chunks(_indexed(specs), chunk_size, workers=workers)
        assert all(len(chunk) >= 1 for chunk in chunks)
        covered = sorted(i for chunk in chunks for i, _ in chunk)
        assert covered == list(range(len(specs)))

    def test_oversized_explicit_chunk_runs_end_to_end(self, tmp_path):
        # chunk_size far beyond the grid used to be an easy way to get
        # a degenerate packing; the fleet must run it like any other.
        specs = _grid(n_seeds=1).expand()
        big = run_fleet(specs, executor="thread", max_workers=2,
                        chunk_size=10_000)
        ref = run_fleet(specs, executor="serial", chunk_size=1)
        assert not big.failures()
        assert big.digest() == ref.digest()

    def test_validation_errors_name_the_argument(self):
        specs = _grid(n_seeds=1).expand()
        with pytest.raises(ValueError, match=r'chunk_size must be "auto"'):
            run_fleet(specs, executor="serial", chunk_size="huge")
        with pytest.raises(ValueError, match="chunk_size must be >= 1"):
            run_fleet(specs, executor="serial", chunk_size=0)
        with pytest.raises(ValueError, match="chunk_size"):
            run_fleet(specs, executor="serial", chunk_size=2.5)
