"""The four benchmark workloads and the one pipeline they all run.

Each workload is a :class:`~repro.api.config.StudyConfig` built from the
benchmark's seed (it becomes ``master_seed``); the program only ever
sees that config, written out as a study TOML file.  The pipeline is
the public front door end to end, in three stages:

    set-up:  study TOML -> Study.from_file -> Study.specs -> SweepStore
    cold:    Study.run (-> run_grid -> SweepStore rows) -> store.digest()
    warm:    Study.resume over the complete store; Study.result().report()

``store-roundtrip`` runs the grid as two shards into two stores and
merges them before the digest.
"""

from __future__ import annotations

import os
import pathlib
import random
import shutil
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.api import Study, StudyConfig
from repro.api.config import ExecutionSpec, SolverRef, StoreSpec
from repro.runtime.fleet import run_scenario
from repro.runtime.simulator.batched import batchable
from repro.runtime.sweep_store import DIGEST_FIELDS, SweepStore, digest_rows


@dataclass(frozen=True)
class Workload:
    """A named study builder; why each exists is recorded in BENCHMARK.json."""

    name: str
    build: Callable[[int, str], StudyConfig]
    #: Run the grid as this many ``shard=(i, shards)`` runs plus a merge.
    shards: int = 0
    #: Batchable rows re-run solo through ``fleet.run_scenario`` per run.
    sample: int = 8


def _batched_sweep(seed: int, out: str) -> StudyConfig:
    return StudyConfig(
        name="batched-sweep",
        problems=(("jacobi", {"n": 48}), "ridge"),
        solver=SolverRef(kind="engine", backends=("exact",),
                         max_iterations=250, tol=0.0),
        steerings=("cyclic", "random-subset"),
        delays=("zero", "uniform"),
        n_seeds=24,
        master_seed=seed,
        store=StoreSpec(out=out),
        execution=ExecutionSpec(executor="process", max_workers=os.cpu_count() or 1),
    )


def _solo_traced(seed: int, out: str) -> StudyConfig:
    return StudyConfig(
        name="solo-traced",
        problems=("jacobi",),
        solver=SolverRef(kind="engine", backends=("exact", "flexible"),
                         max_iterations=3000, tol=1e-8),
        steerings=("cyclic", "random-subset"),
        delays=("out-of-order", "uniform"),
        n_seeds=4,
        master_seed=seed,
        store=StoreSpec(out=out, keep_traces=True),
        execution=ExecutionSpec(executor="serial"),
    )


def _faulty_cluster(seed: int, out: str) -> StudyConfig:
    procs = {"n_processors": 8}
    return StudyConfig(
        name="faulty-cluster",
        problems=(("jacobi", {"n": 24}),),
        solver=SolverRef(kind="simulator", max_iterations=120, tol=0.0),
        machines=tuple((m, procs) for m in ("flexible", "heterogeneous", "wan", "lockstep")),
        faults=("none", "crash-restart", "limplock", "lossy-channel"),
        topologies=("native", ("two-tier", {"rack_size": 4})),
        n_seeds=2,
        master_seed=seed,
        store=StoreSpec(out=out),
        execution=ExecutionSpec(executor="serial"),
    )


def _store_roundtrip(seed: int, out: str) -> StudyConfig:
    return StudyConfig(
        name="store-roundtrip",
        problems=(("jacobi", {"n": 6}),),
        solver=SolverRef(kind="engine", backends=("exact",),
                         max_iterations=20, tol=0.0),
        delays=("zero", "uniform"),
        n_seeds=400,
        master_seed=seed,
        store=StoreSpec(out=out),
        execution=ExecutionSpec(executor="serial"),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("batched-sweep", _batched_sweep),
        Workload("solo-traced", _solo_traced),
        Workload("faulty-cluster", _faulty_cluster),
        Workload("store-roundtrip", _store_roundtrip, shards=2, sample=16),
    )
}


def serial_config(config: StudyConfig) -> StudyConfig:
    """The same study on the serial executor, with the same chunk layout."""
    workers = config.execution.max_workers or os.cpu_count() or 1
    return replace(config, execution=replace(
        config.execution, executor="serial", max_workers=workers))


class FirstRow:
    """Times the first return of ``SweepStore.write_result`` after :meth:`arm`.

    The one hook of the untraced run: it wraps the class method for the
    lifetime of the object and is removed by :meth:`close`.
    """

    def __init__(self) -> None:
        self.t0 = 0.0
        self.first: "float | None" = None
        self._original = SweepStore.write_result
        original = self._original

        def write_result(store: SweepStore, result: Any) -> Any:
            path = original(store, result)
            if self.first is None:
                self.first = time.perf_counter() - self.t0
            return path

        SweepStore.write_result = write_result  # type: ignore[method-assign]

    def arm(self, t0: float) -> None:
        self.t0, self.first = t0, None

    def close(self) -> None:
        SweepStore.write_result = self._original  # type: ignore[method-assign]


@dataclass
class Cold:
    """One cold run of the grid into fresh stores, up to ``store.digest()``."""

    rows: list[Any]
    store_digest: str
    run_s: float
    store_dirs: list[str]
    #: Per ``Study.run`` call, seconds from the call to its first stored row.
    first_rows_s: "list[float]" = field(default_factory=list)


def open_study(study_path: pathlib.Path) -> Study:
    """The set-up steps: load the study config, expand its specs, open its store."""
    study = Study.from_file(study_path)
    study.specs()
    SweepStore(study.config.store.out)
    return study


def cold_run(workload: Workload, study: Study,
             first_row: "FirstRow | None" = None) -> Cold:
    """``Study.run`` (or one run per shard and a merge) then the digest."""
    out = study.config.store.out
    shard_outs = [f"{out}-shard{i}" for i in range(workload.shards)]
    firsts: list[float] = []

    def run(**kwargs: Any) -> Any:
        t = time.perf_counter()
        if first_row is not None:
            first_row.arm(t)
        result = study.run(**kwargs)
        if first_row is not None:
            firsts.append(time.perf_counter() - t if first_row.first is None
                          else first_row.first)
        return result

    t0 = time.perf_counter()
    if workload.shards:
        parts = [run(out=p, shard=(i, workload.shards)) for i, p in enumerate(shard_outs)]
        store = SweepStore(out).merge(*(part.store for part in parts))
        rows = [r for part in parts for r in part.results]
    else:
        result = run()
        store = result.store
        rows = list(result.results)
    store_digest = store.digest()
    return Cold(rows=rows, store_digest=store_digest, run_s=time.perf_counter() - t0,
                store_dirs=[out, *shard_outs], first_rows_s=firsts)


def timed(fn: Callable[[], Any]) -> "tuple[Any, float]":
    t0 = time.perf_counter()
    return fn(), time.perf_counter() - t0


def resume(study: Study) -> "tuple[Any, float]":
    """``Study.resume`` over the complete store: loads every row, runs nothing."""
    return timed(study.resume)


def report(study: Study) -> "tuple[str, float]":
    """``Study.result(out).report()`` over the store."""
    return timed(lambda: study.result().report())


def fresh_stores(config: StudyConfig, workload: Workload) -> None:
    """Delete the stores a previous pass left behind."""
    out = config.store.out
    for path in (out, *(f"{out}-shard{i}" for i in range(workload.shards))):
        shutil.rmtree(path, ignore_errors=True)


def fleet_digest(rows: "list[Any]") -> str:
    return digest_rows((r.content_hash, r) for r in rows if r.error is None)


def check_cold(cold: Cold, *, pinned: "str | None", sample: int, seed: int,
               problems: "list[str]") -> int:
    """Correctness checks of one cold run; returns the number of failed rows.

    Rows with an error fail.  A digest disagreement (store vs in-memory
    fleet, or the pinned value at the default seed) fails every row.  A
    seeded sample of batchable rows is re-run solo through
    ``fleet.run_scenario`` (``sample`` rows; ``0`` skips it) and every
    row that differs from its stored twin, info counters included, fails.
    """
    rows = cold.rows
    failed = sum(1 for r in rows if r.error is not None)
    expected = fleet_digest(rows)
    digests = {"store": cold.store_digest}
    if pinned is not None:
        digests["pinned"] = pinned
    for label, value in digests.items():
        if value != expected:
            problems.append(f"{label} digest {value} != fleet digest {expected}")
            return len(rows)

    eligible = [r for r in rows if r.error is None and batchable(r.spec)]
    for row in random.Random(seed).sample(eligible, min(sample, len(eligible))):
        again = run_scenario(row.spec)
        same = (again.error is None
                and all(_same(getattr(row, f), getattr(again, f)) for f in DIGEST_FIELDS)
                and row.info == again.info)
        if not same:
            problems.append(f"row {row.key} differs when re-run solo")
            failed += 1
    return failed


def check_resume(resumed: Any, cold: Cold, problems: "list[str]") -> int:
    """The resumed fleet and its store must both certify the cold digest.

    Returns the number of failed rows: all of them on a mismatch.
    """
    for label, value in (("resumed fleet", resumed.digest()),
                         ("resumed store", resumed.store.digest())):
        if value != cold.store_digest:
            problems.append(f"{label} digest {value} != cold digest {cold.store_digest}")
            return len(cold.rows)
    return 0


def check_report(text: str, cold: Cold, problems: "list[str]") -> int:
    """A report must render; returns the number of failed rows."""
    if text.strip():
        return 0
    problems.append("empty report")
    return len(cold.rows)


def _same(a: Any, b: Any) -> bool:
    return a == b or (a != a and b != b)  # nan equals nan here
