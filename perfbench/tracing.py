"""In-memory spans around the calls into each layer's public functions.

The benchmark never edits the program: :class:`Tracer` replaces module
and class attributes of ``repro`` with thin timing wrappers for the
duration of one traced pipeline and restores them afterwards.  Every
wrapped call appends one span ``[name, start, end, parent, scenario]``
(``parent`` is the index of the enclosing span, ``-1`` at the top;
``scenario`` is the key of the scenario the call works for, inherited
from the enclosing span) and bumps the counters named for it, so ratios
are measured where the work happens.

A layer's self time is the duration of its spans minus the part their
child spans cover; the self times of all spans add up to the duration
of the top-level spans, which is what ``spans.coverage`` compares with
the traced wall time.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import time
from collections import Counter, defaultdict
from typing import Any, Callable

#: Machine-kind backends whose solo runs count simulator phases.
SIM_BACKENDS = ("vectorized", "reference", "batched-lockstep")


class Tracer:
    """Spans and counters for one traced pipeline run."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._scenario: list[Any] = [None]
        self._undo: list[Callable[[], None]] = []
        #: The specs of each batched call, in call order; grouped after
        #: the run so the bookkeeping stays outside every span.
        self.batches: list[list[Any]] = []
        self.trace_files: list[pathlib.Path] = []
        #: ``(backend, iterations, phases_completed)`` per backend execute.
        self.executes: list[tuple[str, int, float]] = []

    # -- span recording ------------------------------------------------
    def _wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        *,
        scenario: "Callable[..., Any] | None" = None,
        after: "Callable[[Any, tuple, dict], None] | None" = None,
    ) -> Callable[..., Any]:
        spans, stack, scen = self.spans, self._stack, self._scenario
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            sid = scenario(*args, **kwargs) if scenario is not None else scen[-1]
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, sid]
            stack.append(len(spans))
            spans.append(rec)
            scen.append(sid)
            counts[name] += 1
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                scen.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def patch(self, owner: Any, attr: str, name: str, **kw: Any) -> None:
        """Wrap ``owner.attr`` (a function, method or property) as span ``name``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, property):
            replacement: Any = property(self._wrap(name, original.fget, **kw))
        elif isinstance(original, classmethod):
            replacement = classmethod(self._wrap(name, original.__func__, **kw))
        else:
            replacement = self._wrap(name, original, **kw)
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def patch_instance(self, obj: Any, attr: str, name: str, **kw: Any) -> None:
        """Shadow a bound method on one object (removed again on restore)."""
        setattr(obj, attr, self._wrap(name, getattr(obj, attr), **kw))
        self._undo.append(lambda: delattr(obj, attr))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- analysis ------------------------------------------------------
    def self_times(self) -> "dict[str, float]":
        """Span name -> summed self time (duration minus child durations)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[k]
        return dict(out)

    def total_times(self) -> "dict[str, float]":
        """Span name -> summed duration, children included."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return dict(out)

    def layer_self_times(self) -> "dict[str, float]":
        out: dict[str, float] = defaultdict(float)
        for name, secs in self.self_times().items():
            out[name.split(".")[0]] += secs
        return dict(out)

    def write_spans(self, path: pathlib.Path, header: "dict[str, Any]") -> None:
        """Write the header and every span as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, sid in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "scenario": sid}) + "\n")


def _spec_key(spec: Any, *args: Any, **kwargs: Any) -> str:
    return spec.key


def _batch_id(specs: Any, *args: Any, **kwargs: Any) -> str:
    return f"batch[{specs[0].key}+{len(specs) - 1}]" if specs else "batch[]"


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    import repro.analysis.fleet as analysis_fleet
    import repro.api.study as study_mod
    import repro.core.history as history
    import repro.core.trace as core_trace
    import repro.runtime.backends as backends
    import repro.runtime.fleet as fleet
    import repro.runtime.simulator.batched as batched
    import repro.runtime.sweep_store as sweep_store
    import repro.scenarios.registry as registry
    from repro.api.config import StudyConfig
    from repro.scenarios.spec import ScenarioSpec

    p = tracer.patch
    # api: config -> specs is the compile step; the rest is glue.
    p(study_mod.Study, "from_file", "api.compile")
    p(StudyConfig, "specs", "api.compile")
    p(study_mod.Study, "shard_specs", "api.compile")
    for attr in ("run", "result"):
        p(study_mod.Study, attr, "api.study")
    for attr in ("report", "digest"):
        p(study_mod.StudyResult, attr, "api.study")

    # scenarios: ingredient construction and content addressing.
    for attr in ("make_problem", "make_steering", "make_delays", "make_machine",
                 "make_fault", "make_topology", "build_batch"):
        p(registry, attr, "scenarios.construct")
    p(ScenarioSpec, "content_hash", "scenarios.content_hash")

    # runtime.fleet: the grid runner, chunks and solo rows.
    p(fleet, "run_grid", "fleet.run_grid")
    p(study_mod, "run_grid", "fleet.run_grid")  # imported by name there
    p(fleet, "_run_chunk", "fleet.chunk")
    p(fleet, "run_scenario", "fleet.run_scenario", scenario=_spec_key)
    p(fleet.FleetResult, "digest", "fleet.digest")

    # runtime.simulator.batched: the lockstep batch entry point.
    def _after_batch(result: Any, args: tuple, kwargs: dict) -> None:
        tracer.batches.append(list(args[0]))

    p(batched, "run_scenario_batch", "batched.run", scenario=_batch_id,
      after=_after_batch)

    # runtime.backends: one wrapper per registered backend object.
    def _after_execute(name: str) -> "Callable[[Any, tuple, dict], None]":
        def after(result: Any, args: tuple, kwargs: dict) -> None:
            phases = float(result.stats.get("phases_completed", 0.0))
            tracer.executes.append((name, int(result.iterations), phases))
        return after

    for name in ("exact", "flexible", *SIM_BACKENDS):
        obj = backends.get_backend(name)
        tracer.patch_instance(obj, "execute", f"backends.execute.{name}",
                              after=_after_execute(name))

    # core: delayed-vector assembly and trace persistence.
    p(history.VectorHistory, "assemble", "core.assemble")

    def _after_save(result: Any, args: tuple, kwargs: dict) -> None:
        tracer.trace_files.append(pathlib.Path(result))

    p(core_trace.TraceStore, "save", "tracestore.save", after=_after_save)

    # runtime.sweep_store: writes, seals, merges, digests and loads.
    S = sweep_store.SweepStore
    for attr, name in (("write_result", "store.write"), ("flush", "store.flush"),
                       ("merge", "store.merge"), ("digest", "store.digest"),
                       ("load_complete_result", "store.load"),
                       ("write_manifest", "store.manifest"),
                       ("write_fleet", "store.manifest")):
        p(S, attr, name)

    # analysis: the study report.
    p(analysis_fleet, "render_study_report", "analysis.report")


def solo_rows_inside_batches(tracer: Tracer) -> "list[int]":
    """Solo ``run_scenario`` spans nested under each ``batched.run`` span."""
    spans = tracer.spans
    owner: dict[int, int] = {}  # batched.run span index -> its position
    for k, (name, _, _, _, _) in enumerate(spans):
        if name == "batched.run":
            owner[k] = len(owner)
    counts = [0] * len(owner)
    for name, _, _, parent, _ in spans:
        if name != "fleet.run_scenario":
            continue
        while parent >= 0 and parent not in owner:
            parent = spans[parent][3]
        if parent >= 0:
            counts[owner[parent]] += 1
    return counts


def tree_bytes(*roots: "str | os.PathLike[str]", skip: "tuple[str, ...]" = ()) -> int:
    """Total size of the regular files under ``roots``, except names in ``skip``."""
    total = 0
    for root in roots:
        for dirpath, _, files in os.walk(root):
            for f in files:
                if f not in skip:
                    total += os.path.getsize(os.path.join(dirpath, f))
    return total
