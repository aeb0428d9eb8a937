"""Packed columnar SweepStore: digest preservation, sealing, O(changed) merge.

The acceptance contract of the million-row store refactor: a packed
store's digest is byte-identical to the same rows in the flat legacy
layout (pinned by a golden constant computed with the pre-refactor
code), kill/resume and shard-merge keep certifying bit-identically,
merge edge cases at batch boundaries behave (overlap, killed partial
merge, flat-legacy sources), and ``store migrate`` upgrades flat
stores in place without changing their digest.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.runtime.fleet import FleetResult, ScenarioResult, run_grid
from repro.runtime.sweep_store import SweepStore, digest_rows
from repro.scenarios.spec import ScenarioGrid, ScenarioSpec

#: digest_rows over ``_synth_rows(20)`` computed with the pre-refactor
#: flat-layout code — the byte-identity anchor for the packed layout.
GOLDEN_DIGEST = "82c73a80abf4940868a869386fdb8025d7e19cadb4fce1e3f37fe3dc8925d60c"


def _synth_rows(n: int) -> "list[ScenarioResult]":
    """Deterministic rows exercising every digest-relevant value shape:
    non-finite residuals (inf/nan), None-able optional fields, empty
    and non-empty info dicts."""
    rows = []
    for i in range(n):
        spec = ScenarioSpec(problem="jacobi", seed=i,
                            max_iterations=50 + i % 7, tol=1e-6)
        fr = (1e-9 * (i + 1), float("inf"), float("nan"))[i % 3]
        fe = None if i % 4 == 0 else 1e-3 * i
        st = None if i % 5 == 0 else 0.5 * i
        ttt = (float("inf"), None, 0.1 * i, 0.1 * i, 0.1 * i, 0.1 * i)[i % 6]
        rows.append(ScenarioResult(
            key=spec.key, spec=spec, iterations=i, converged=(i % 2 == 0),
            final_residual=fr, final_error=fe, sim_time=st, time_to_tol=ttt,
            wall_time=0.01 * i, info={"i": i} if i % 2 else {},
        ))
    return rows


def _fill(store: SweepStore, rows: "list[ScenarioResult]") -> SweepStore:
    store.write_manifest([r.spec for r in rows])
    for r in rows:
        store.write_result(r)
    return store


def _grid(n_seeds: int = 2, **overrides) -> ScenarioGrid:
    defaults = dict(
        problems=(("jacobi", {"n": 8}),),
        delays=("zero", "uniform"),
        steerings=("cyclic",),
        n_seeds=n_seeds,
        max_iterations=80,
        tol=1e-6,
    )
    defaults.update(overrides)
    return ScenarioGrid(**defaults)


class TestDigestPreservation:
    def test_golden_digest_rows(self):
        rows = _synth_rows(20)
        assert digest_rows(
            [(r.content_hash, r) for r in rows]
        ) == GOLDEN_DIGEST

    def test_flat_store_matches_golden(self, tmp_path):
        store = _fill(SweepStore(tmp_path / "flat", layout="flat"),
                      _synth_rows(20))
        assert store.layout == "flat"
        assert store.digest() == GOLDEN_DIGEST

    def test_packed_store_matches_golden_sealed_and_unsealed(self, tmp_path):
        rows = _synth_rows(20)
        store = _fill(SweepStore(tmp_path / "p"), rows)
        assert store.layout == "packed"
        # Unsealed: every row still in the append-log.
        assert store.digest() == GOLDEN_DIGEST
        store.flush()
        assert not any(
            p for p in (tmp_path / "p" / "shards").rglob("log/*.json")
        )
        # Sealed: digest now folds over the columnar batches.
        assert store.digest() == GOLDEN_DIGEST
        # And a cold re-open agrees.
        assert SweepStore(tmp_path / "p", create=False).digest() == GOLDEN_DIGEST

    def test_mixed_batches_and_logs(self, tmp_path):
        rows = _synth_rows(20)
        store = SweepStore(tmp_path / "p", batch_rows=4)
        _fill(store, rows)  # seals every 4 rows; stragglers stay logged
        assert store.digest() == GOLDEN_DIGEST

    def test_run_grid_packed_digest_matches_fleet(self, tmp_path):
        specs = _grid().expand()
        fleet = run_grid(specs, store=tmp_path / "s", executor="serial")
        store = SweepStore(tmp_path / "s", create=False)
        assert store.layout == "packed"
        assert store.digest() == fleet.digest()


class TestRoundTrip:
    def test_rows_reload_identically_after_seal(self, tmp_path):
        rows = _synth_rows(20)
        store = _fill(SweepStore(tmp_path / "p"), rows)
        store.flush()
        for r in rows:
            loaded = store.load_result_by_hash(r.content_hash)
            # JSON-dict comparison: nan != nan under dataclass eq, but
            # the persisted sentinel forms compare exactly.
            assert loaded.to_json_dict() == r.to_json_dict()
        assert store.load_result_by_hash("0" * 16) is None

    def test_fleet_result_stitches_in_manifest_order(self, tmp_path):
        rows = _synth_rows(10)
        store = _fill(SweepStore(tmp_path / "p"), rows)
        store.flush()
        stitched = store.fleet_result()
        assert [r.key for r in stitched.results] == [r.key for r in rows]
        assert stitched.executor == "store"
        assert stitched.wall_time == pytest.approx(
            sum(r.wall_time for r in rows)
        )

    def test_read_manifest_keeps_legacy_shape(self, tmp_path):
        rows = _synth_rows(5)
        store = _fill(SweepStore(tmp_path / "p"), rows)
        doc = store.read_manifest()
        assert doc["scenario_count"] == 5
        assert [s["hash"] for s in doc["scenarios"]] == [
            r.content_hash for r in rows
        ]
        assert doc["scenarios"][0]["spec"]["problem"] == "jacobi"

    def test_error_rows_are_not_persisted(self, tmp_path):
        spec = ScenarioSpec(problem="jacobi", seed=1)
        row = ScenarioResult(key=spec.key, spec=spec, error="boom")
        store = SweepStore(tmp_path / "p")
        store.write_result(row)
        assert store.completed() == set()
        assert store.load_result(spec) is None


class TestSealing:
    def test_seal_threshold(self, tmp_path):
        rows = _synth_rows(9)
        store = SweepStore(tmp_path / "p", batch_rows=3, prefix_len=0)
        store.write_manifest([r.spec for r in rows])
        shard = tmp_path / "p" / "shards"
        for i, r in enumerate(rows):
            store.write_result(r)
        # prefix_len=0 puts everything in one shard: 9 rows at
        # batch_rows=3 seal exactly three batches, log empty.
        assert len(list(shard.rglob("batch-*.npz"))) == 3
        assert not list(shard.rglob("log/*.json"))
        assert store.digest() == digest_rows(
            [(r.content_hash, r) for r in rows]
        )

    def test_flush_is_idempotent_and_flat_noop(self, tmp_path):
        store = _fill(SweepStore(tmp_path / "p"), _synth_rows(4))
        store.flush()
        store.flush()
        assert store.digest() == SweepStore(tmp_path / "p", create=False).digest()
        flat = _fill(SweepStore(tmp_path / "f", layout="flat"), _synth_rows(4))
        flat.flush()  # must not throw or move files
        assert (tmp_path / "f" / "results").is_dir()


class TestDiscard:
    def test_discard_logged_and_sealed_rows(self, tmp_path):
        rows = _synth_rows(8)
        store = SweepStore(tmp_path / "p", batch_rows=4, prefix_len=0)
        _fill(store, rows)  # first 8 rows -> two sealed batches
        extra = _synth_rows(9)[-1]
        store.write_result(extra)  # stays in the log
        assert len(store.completed()) == 9

        store.discard_result(extra.content_hash)  # log unlink
        assert extra.content_hash not in store.completed()
        victim = rows[2].content_hash
        store.discard_result(victim)  # batch rewrite
        assert victim not in store.completed()
        assert store.load_result_by_hash(victim) is None
        survivors = [r for r in rows if r.content_hash != victim]
        assert store.digest() == digest_rows(
            [(r.content_hash, r) for r in survivors]
        )
        # Cold re-open agrees (no stale on-disk leftovers).
        assert SweepStore(tmp_path / "p", create=False).completed() == {
            r.content_hash for r in survivors
        }


class TestCompletedCache:
    def test_completed_returns_a_copy(self, tmp_path):
        store = _fill(SweepStore(tmp_path / "p"), _synth_rows(5))
        got = store.completed()
        got.add("bogus")
        assert "bogus" not in store.completed()

    def test_write_result_updates_cache_without_rescan(self, tmp_path, monkeypatch):
        rows = _synth_rows(6)
        store = SweepStore(tmp_path / "p")
        store.write_manifest([r.spec for r in rows])
        for r in rows[:3]:
            store.write_result(r)
        assert len(store.completed()) == 3  # cache primed here
        # A full re-scan after this point is a satellite regression
        # (every completed() rescan starts by listing the shards).
        monkeypatch.setattr(
            store, "_shard_prefixes",
            lambda: pytest.fail("completed() re-scanned the store"),
        )
        for r in rows[3:]:
            store.write_result(r)
            assert r.content_hash in store.completed()


class TestMergeEdgeCases:
    """Satellite: merge behavior at batch boundaries."""

    def _two_overlapping_stores(self, tmp_path, n=20, overlap=8):
        rows = _synth_rows(n)
        cut_a, cut_b = (n + overlap) // 2, (n - overlap) // 2
        a = _fill(SweepStore(tmp_path / "a", batch_rows=4), rows[:cut_a])
        b = _fill(SweepStore(tmp_path / "b", batch_rows=4), rows[cut_b:])
        a.flush(), b.flush()
        return rows, a, b

    def test_overlapping_rows_merge_once(self, tmp_path):
        rows, a, b = self._two_overlapping_stores(tmp_path)
        merged = SweepStore(tmp_path / "m").merge(a, b)
        assert len(merged.completed()) == len(rows)
        assert merged.digest() == digest_rows(
            [(r.content_hash, r) for r in rows]
        )
        # Union manifest keeps first-occurrence order.
        assert merged.manifest_hashes() == list(dict.fromkeys(
            [r.content_hash for r in rows[:14]]
            + [r.content_hash for r in rows[6:]]
        ))

    def test_remerge_after_killed_partial_merge(self, tmp_path):
        rows, a, b = self._two_overlapping_stores(tmp_path)
        merged = SweepStore(tmp_path / "m").merge(a)
        # Simulate a merge killed before its fingerprint log landed:
        # rows/batches are on disk but merge_log.json is gone.
        (tmp_path / "m" / "merge_log.json").unlink()
        reopened = SweepStore(tmp_path / "m", create=False)
        reopened.merge(a, b)
        assert len(reopened.completed()) == len(rows)
        full = digest_rows([(r.content_hash, r) for r in rows])
        assert reopened.digest() == full
        # And a full re-merge is a no-op, not a corruption.
        batches_before = sorted(
            p.name for p in (tmp_path / "m" / "shards").rglob("batch-*.npz")
        )
        reopened.merge(a, b)
        batches_after = sorted(
            p.name for p in (tmp_path / "m" / "shards").rglob("batch-*.npz")
        )
        assert batches_after == batches_before
        assert reopened.digest() == full

    def test_unchanged_source_units_are_skipped_without_reading_rows(
        self, tmp_path, monkeypatch
    ):
        rows, a, b = self._two_overlapping_stores(tmp_path)
        merged = SweepStore(tmp_path / "m").merge(a, b)
        full = merged.digest()
        # O(changed): a re-merge of unchanged sources must not load a
        # single row document from them.
        for src in (a, b):
            monkeypatch.setattr(
                src, "_unit_docs",
                lambda *args: pytest.fail("re-merge read rows of an unchanged source"),
            )
        merged.merge(a, b)
        assert merged.digest() == full

    def test_flat_legacy_source_merges_into_packed_dest(self, tmp_path):
        rows = _synth_rows(16)
        flat = _fill(SweepStore(tmp_path / "flat", layout="flat"), rows[:10])
        packed = _fill(SweepStore(tmp_path / "packed", batch_rows=4), rows[8:])
        packed.flush()
        merged = SweepStore(tmp_path / "m").merge(flat, packed)
        assert len(merged.completed()) == len(rows)
        assert merged.digest() == digest_rows(
            [(r.content_hash, r) for r in rows]
        )

    def test_merge_copies_traces_from_packed_sources(self, tmp_path):
        grid = _grid(n_seeds=1)
        d0, d1 = tmp_path / "s0", tmp_path / "s1"
        run_grid(grid.shard(2, 0), store=d0, keep_traces=True, executor="serial")
        run_grid(grid.shard(2, 1), store=d1, keep_traces=True, executor="serial")
        merged = SweepStore(tmp_path / "m").merge(d0, d1)
        for h in merged.manifest_hashes():
            assert merged.has_trace(h)
            assert merged.load_result_by_hash(h).trace_path == str(
                merged.trace_path(h)
            )

    def test_source_gaining_rows_is_remerged(self, tmp_path):
        rows = _synth_rows(12)
        src = _fill(SweepStore(tmp_path / "src", batch_rows=4), rows[:8])
        merged = SweepStore(tmp_path / "m").merge(src)
        assert len(merged.completed()) == 8
        # The source completes more scenarios: its unit fingerprints
        # change, so an incremental re-merge picks exactly those up.
        _fill(src, rows)  # manifest now covers all 12
        merged.merge(src)
        assert len(merged.completed()) == 12
        assert merged.digest() == digest_rows(
            [(r.content_hash, r) for r in rows]
        )


class TestOnePassResume:
    def test_resume_reads_each_batch_once_and_writes_nothing(
        self, tmp_path, monkeypatch, store_files, count_runs
    ):
        specs = list(_grid(n_seeds=20).expand())  # 40 rows
        store = SweepStore(tmp_path / "p", prefix_len=0, batch_rows=2)
        cold = run_grid(specs, store=store, executor="serial")
        batches = store._batch_paths("")
        assert len(batches) > 16  # more batches than the decode LRU holds
        before = store_files(tmp_path / "p")
        count_runs.clear()

        opened: list[str] = []
        real_load = np.load

        def counting_load(file, *args, **kwargs):
            opened.append(str(file))
            return real_load(file, *args, **kwargs)

        monkeypatch.setattr(np, "load", counting_load)
        resumed = run_grid(specs, resume=tmp_path / "p", executor="serial")
        monkeypatch.undo()

        assert count_runs == []
        assert store_files(tmp_path / "p") == before
        assert resumed.digest() == cold.digest()
        # One listing of the completed set plus one decode per batch.
        assert len(opened) <= 2 * len(batches)
        assert max(opened.count(str(bp)) for bp in batches) <= 2

    def test_sparse_lookup_decodes_only_batches_it_needs(self, tmp_path, monkeypatch):
        specs = list(_grid(n_seeds=20).expand())  # 40 rows
        run_grid(specs, store=SweepStore(tmp_path / "p", prefix_len=0, batch_rows=2),
                 executor="serial")
        store = SweepStore(tmp_path / "p", create=False)
        assert len(store._batch_paths("")) == 20

        decoded: list = []
        real_cols = SweepStore._batch_cols

        def counting_cols(self, path):
            decoded.append(path)
            return real_cols(self, path)

        monkeypatch.setattr(SweepStore, "_batch_cols", counting_cols)
        wanted = specs[:3]
        rows = store.load_complete_results(wanted)
        assert set(rows) == {s.content_hash for s in wanted}
        # The whole shard is one prefix here; only the wanted rows'
        # batches decode, not all 20.
        assert len(set(decoded)) <= len(wanted)


class TestMigrate:
    def test_migrate_preserves_digest_and_rows(self, tmp_path):
        rows = _synth_rows(20)
        store = _fill(SweepStore(tmp_path / "s", layout="flat"), rows)
        before = store.digest()
        assert before == GOLDEN_DIGEST
        after = store.migrate()
        assert after == before
        assert store.layout == "packed"
        assert not (tmp_path / "s" / "results").exists()
        # Cold re-open detects packed and reloads every row.
        reopened = SweepStore(tmp_path / "s", create=False)
        assert reopened.layout == "packed"
        assert reopened.digest() == before
        for r in rows:
            assert (
                reopened.load_result_by_hash(r.content_hash).to_json_dict()
                == r.to_json_dict()
            )
        assert reopened.manifest_hashes() == [r.content_hash for r in rows]

    def test_migrate_packed_store_is_noop(self, tmp_path):
        store = _fill(SweepStore(tmp_path / "p"), _synth_rows(6))
        d = store.digest()
        assert store.migrate() == d
        assert store.layout == "packed"

    def test_migrate_preserves_fleet_json(self, tmp_path):
        specs = _grid(n_seeds=1).expand()
        run_grid(specs, store=SweepStore(tmp_path / "s", layout="flat"),
                 executor="serial")
        store = SweepStore(tmp_path / "s", create=False)
        assert store.layout == "flat"
        live = FleetResult.from_json((tmp_path / "s" / "fleet.json").read_text())
        store.migrate()
        assert (tmp_path / "s" / "fleet.json").is_file()
        assert store.fleet_result().digest() == live.digest()

    def test_migrate_rolls_back_on_mismatch(self, tmp_path, monkeypatch):
        rows = _synth_rows(8)
        store = _fill(SweepStore(tmp_path / "s", layout="flat"), rows)
        before = store.digest()
        real_append = SweepStore._append_batch

        def corrupting(self, prefix, docs):
            docs = {h: {**doc, "iterations": 999} for h, doc in docs.items()}
            return real_append(self, prefix, docs)

        monkeypatch.setattr(SweepStore, "_append_batch", corrupting)
        with pytest.raises(RuntimeError, match="digest mismatch"):
            store.migrate()
        assert store.layout == "flat"
        assert not (tmp_path / "s" / "shards").exists()
        assert store.digest() == before


class TestFleetView:
    def test_view_matches_materialized_aggregates(self, tmp_path):
        specs = _grid().expand()
        run_grid(specs, store=tmp_path / "s", executor="serial")
        store = SweepStore(tmp_path / "s", create=False)
        (tmp_path / "s" / "fleet.json").unlink()
        view = store.fleet_view()
        fleet = store.fleet_result()
        assert view.scenario_count == fleet.scenario_count
        assert view.wall_time == pytest.approx(fleet.wall_time)
        assert view.digest() == fleet.digest()
        assert view.converged_fraction() == fleet.converged_fraction()
        assert view.group_medians(
            by=("problem", "delays"),
            metrics=("iterations", "converged", "final_residual"),
        ) == fleet.group_medians(
            by=("problem", "delays"),
            metrics=("iterations", "converged", "final_residual"),
        )
        assert view.failures() == ()
        # results is re-iterable (report renders iterate it twice).
        assert len(list(view.results)) == len(list(view.results))

    def test_view_rejects_unknown_metric(self, tmp_path):
        store = _fill(SweepStore(tmp_path / "p"), _synth_rows(4))
        with pytest.raises(KeyError, match="unknown metric"):
            store.fleet_view().group_medians(metrics=("bogus",))

    def test_lazy_fleet_from_store(self, tmp_path):
        from repro.analysis.fleet import fleet_from_store, render_study_report

        specs = _grid().expand()
        run_grid(specs, store=tmp_path / "s", executor="serial")
        (tmp_path / "s" / "fleet.json").unlink()
        view = fleet_from_store(tmp_path / "s", lazy=True)
        eager = fleet_from_store(tmp_path / "s")
        assert view.digest() == eager.digest()
        # The standard report renders from the view without materializing.
        assert render_study_report(view) == render_study_report(eager)


class TestStoreCLI:
    def test_digest_json(self, tmp_path, capsys):
        rows = _synth_rows(10)
        _fill(SweepStore(tmp_path / "p"), rows).flush()
        assert main(["store", "digest", str(tmp_path / "p"), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["digest"] == digest_rows([(r.content_hash, r) for r in rows])
        assert doc["layout"] == "packed"
        assert doc["rows"] == 10
        assert doc["scenarios"] == 10

    def test_merge_json(self, tmp_path, capsys):
        rows = _synth_rows(12)
        _fill(SweepStore(tmp_path / "a", batch_rows=4), rows[:8]).flush()
        _fill(SweepStore(tmp_path / "b", batch_rows=4), rows[6:]).flush()
        out = tmp_path / "m"
        assert main(["store", "merge", "--out", str(out),
                     str(tmp_path / "a"), str(tmp_path / "b"), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scenarios"] == 12
        assert doc["completed"] == 12
        assert doc["digest"] == digest_rows([(r.content_hash, r) for r in rows])

    def test_migrate_cli(self, tmp_path, capsys):
        rows = _synth_rows(10)
        _fill(SweepStore(tmp_path / "s", layout="flat"), rows)
        assert main(["store", "migrate", str(tmp_path / "s"), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["migrated"] is True
        assert doc["layout_before"] == "flat"
        assert doc["layout"] == "packed"
        assert doc["digest"] == doc["digest_before"]
        assert doc["rows"] == 10
        # Second migrate: already packed, still rc 0.
        assert main(["store", "migrate", str(tmp_path / "s")]) == 0
        out = capsys.readouterr().out
        assert "already packed" in out

    def test_migrate_missing_store_errors(self, tmp_path, capsys):
        assert main(["store", "migrate", str(tmp_path / "nope")]) == 2
        assert "no sweep store" in capsys.readouterr().err


class TestRatesFromStore:
    def test_rates_from_store_streams_traces(self, tmp_path):
        from repro.analysis.rates import fit_geometric_rate, rates_from_store

        specs = _grid(n_seeds=1).expand()
        run_grid(specs, store=tmp_path / "s", keep_traces=True,
                 executor="serial")
        store = SweepStore(tmp_path / "s", create=False)
        fits = rates_from_store(store)
        assert set(fits) == {s.key for s in specs}
        any_key = specs[0].key
        trace = store.load_trace(specs[0].content_hash)
        assert fits[any_key] == fit_geometric_rate(trace.residuals)
