"""End-to-end benchmark of the study pipeline: study TOML -> store -> digest.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workload seed becomes the study's ``master_seed``; the program only
receives the generated :class:`~repro.api.config.StudyConfig`, written
as a study TOML file under ``.bench_work/``.  Workloads, metric names
and units are those of ``BENCHMARK.json``.

``--trace 0`` measures the end-to-end metrics with no instrumentation
beyond one hook on ``SweepStore.write_result`` (for ``first_row_s``).
``setup_s`` is the median over fresh interpreters that import ``repro``,
load the config, expand the specs and open the store.  After one untimed
warm-up pass, three stages share ``--seconds`` (see ``SHARES``),
interleaved so that each samples the whole run: cold runs into fresh
stores (``scenarios_per_s``, ``first_row_s``), resumes over the complete
store (``resume_s``) and reports over it (``report_s``).
``scenarios_per_s`` is every cold row over every cold second;
``first_row_s`` has one sample per ``Study.run`` call (two per cold run
on sharded workloads); ``first_row_s``, ``resume_s`` and ``report_s``
are the means of their samples, which are printed.  ``peak_rss_mb`` is
the largest resident set of this process and its children.

``--trace 1`` runs the same pipeline on the serial executor, alternating
untraced passes with passes traced by :mod:`tracing`, and reports the
per-layer metrics: self times as medians over traced passes, counts from
the first (every later traced pass must repeat them exactly, or the run
is marked incorrect as a determinism failure).  The spans of the last
traced pass are written to ``.bench_work/spans/``.

Every pass is checked (see :func:`workloads.check`); the last line of
standard output is the JSON result ``{"correct", "attempted", "failed",
"metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
#: Share of an untraced run given to each stage: cold runs into fresh
#: stores, resumes over the complete store, reports over it.  Cold runs
#: are the dearest samples, so they get most of the time; a resume or a
#: report still follows every cold run (see ``run_untraced``).
SHARES = {"cold": 0.7, "resume": 0.15, "report": 0.15}
#: The samples each stage adds to (cold adds to ``first_row_s`` too).
STAGE_SAMPLES = {"cold": "scenarios_per_s", "resume": "resume_s", "report": "report_s"}
#: ``spans.coverage`` must lie within this distance of 1.
COVERAGE_TOLERANCE = 0.05
#: Per-layer metrics that must repeat exactly from one traced pass to the next.
EXACT_UNITS = ("count", "B")
EXACT_RATIOS = ("batched.fraction", "batched.group_size_mean")
SIM_COUNTERS = ("phases_completed", "messages_sent", "messages_dropped")
FAULT_COUNTERS = ("fault_crashes", "fault_repairs", "fault_drops", "fault_downtime_drops",
                  "fault_limp_episodes")


def host_shape() -> "dict[str, object]":
    """The machine and toolchain a result was measured on."""
    import importlib.util

    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    numba = importlib.util.find_spec("numba") is not None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": "present" if numba else "absent",
        "jit": "available" if numba else "off",
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def pinned_digest(workload: str, seed: int, problems: "list[str]") -> "str | None":
    if seed != DEFAULT_SEED:
        return None
    pins = json.loads((HERE / "pins.json").read_text())["digests"]
    if workload not in pins:
        problems.append(f"no digest pinned for {workload!r} at seed {seed}")
        return "missing"
    return pins[workload]


# ----------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ----------------------------------------------------------------------

def measure_setup(study_path: pathlib.Path, config, workload) -> "list[float]":
    from workloads import fresh_stores

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    times = []
    for _ in range(SETUP_REPEATS):
        fresh_stores(config, workload)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(study_path)],
                       cwd=ROOT, env=env, check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


def run_untraced(workload, config, study_path, seed, seconds, problems):
    from workloads import (FirstRow, check_cold, check_report, check_resume, cold_run,
                           fresh_stores, open_study, report, resume)

    setups = measure_setup(study_path, config, workload)
    pinned = pinned_digest(workload.name, seed, problems)
    samples: dict[str, list[float]] = {
        "scenarios_per_s": [], "first_row_s": [], "resume_s": [], "report_s": []}
    spent = dict.fromkeys(SHARES, 0.0)
    attempted = failed = 0
    cold_rows, cold_s = 0, 0.0
    hook = FirstRow()

    def run_cold():
        nonlocal attempted, failed
        fresh_stores(config, workload)
        study = open_study(study_path)
        cold = cold_run(workload, study, hook)
        failed += check_cold(cold, pinned=pinned, seed=seed, problems=problems,
                             sample=0 if attempted else workload.sample)
        attempted += len(cold.rows)
        return study, cold

    try:
        # Warm-up, untimed: one pass of every stage, so that lazy set-up
        # inside the process is not charged to the first samples.
        study, cold = run_cold()
        failed += check_resume(resume(study)[0], cold, problems)
        failed += check_report(report(study)[0], cold, problems)

        t_begin = time.perf_counter()
        while not (time.perf_counter() - t_begin >= seconds
                   and all(samples.values())):
            # A stage with fewer samples than cold goes next; otherwise the
            # stage furthest behind its share.  So every metric samples the
            # whole run, and a dear resume is not starved by its share.
            # Each sample starts from a collected heap, so garbage left by
            # the previous one is not charged to it.
            n_cold = len(samples["scenarios_per_s"])
            lagging = [k for k in SHARES if len(samples[STAGE_SAMPLES[k]]) < n_cold]
            stage = lagging[0] if lagging else min(SHARES, key=lambda k: spent[k] / SHARES[k])
            gc.collect()
            t0 = time.perf_counter()
            if stage == "cold":
                study, cold = run_cold()
                cold_rows += len(cold.rows)
                cold_s += cold.run_s
                samples["scenarios_per_s"].append(len(cold.rows) / cold.run_s)
                samples["first_row_s"].extend(cold.first_rows_s)
            elif stage == "resume":
                resumed, secs = resume(study)
                failed += check_resume(resumed, cold, problems)
                samples["resume_s"].append(secs)
            else:
                text, secs = report(study)
                failed += check_report(text, cold, problems)
                samples["report_s"].append(secs)
            spent[stage] += time.perf_counter() - t0
    finally:
        hook.close()

    samples["setup_s"] = setups
    for name, values in samples.items():
        print(f"samples {name}: " + " ".join(f"{v:.4g}" for v in values))
    # Stage timings are means over the run, not medians: on a shared host
    # the CPU can switch between two speeds about 1.4x apart for seconds at a time,
    # so a median jumps to whichever state held most samples, while the
    # mean moves with the share of time spent in each.  The throughput is
    # every cold row over every cold second.  Set-up stays a median of
    # fresh interpreters.
    metrics = {name: statistics.fmean(values) for name, values in samples.items()}
    metrics["setup_s"] = statistics.median(setups)
    metrics["scenarios_per_s"] = cold_rows / cold_s
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, attempted, min(failed, attempted)


# ----------------------------------------------------------------------
# --trace 1: per-layer metrics
# ----------------------------------------------------------------------

def layer_metrics(tracer, cold, total_s: float, resume_window, construct_s: float,
                  problems) -> "dict[str, float]":
    """Per-layer metrics of one traced pass."""
    from repro.runtime.simulator.batched import batchable

    from tracing import SIM_BACKENDS, solo_rows_inside_batches, tree_bytes

    st = tracer.self_times()
    total = tracer.total_times()
    layer = tracer.layer_self_times()
    calls = tracer.counts
    rows = cold.rows
    m: dict[str, float] = {
        "api.compile_s": st.get("api.compile", 0.0),
        "scenarios.construct_s": st.get("scenarios.construct", 0.0),
        "scenarios.construct_calls": calls["scenarios.construct"],
        "scenarios.content_hash_s": st.get("scenarios.content_hash", 0.0),
        "scenarios.content_hash_calls": calls["scenarios.content_hash"],
        "fleet.self_s": layer.get("fleet", 0.0),
        "fleet.chunks": calls["fleet.chunk"],
        "fleet.solo_rows": calls["fleet.run_scenario"],
    }

    # Batched layer: rows a batch call returned without a solo run, and
    # fallbacks = solo rows of eligible groups of two or more.
    solo_inside = solo_rows_inside_batches(tracer)
    batched_rows = fallback = 0
    group_sizes: list[int] = []
    for specs, solo in zip(tracer.batches, solo_inside):
        groups: dict[str, int] = {}
        for spec in specs:
            if batchable(spec):
                groups[spec.batch_key] = groups.get(spec.batch_key, 0) + 1
        group_sizes.extend(groups.values())
        eligible = sum(n for n in groups.values() if n >= 2)
        batched_rows += len(specs) - solo
        fallback += solo - (len(specs) - eligible)
    n_batchable = sum(1 for r in rows if batchable(r.spec))
    m.update({
        "batched.self_s": st.get("batched.run", 0.0),
        "batched.construct_s": construct_s,
        "batched.rows": batched_rows,
        "batched.fraction": batched_rows / n_batchable if n_batchable else 0.0,
        "batched.group_size_mean": statistics.fmean(group_sizes) if group_sizes else 0.0,
        "batched.fallback_rows": fallback,
    })

    iters: dict[str, int] = {}
    phases = 0.0
    for name, its, ph in tracer.executes:
        iters[name] = iters.get(name, 0) + its
        phases += ph
    for name in ("exact", "flexible", "vectorized"):
        span = f"backends.execute.{name}"
        m[f"backends.execute_s.{name}"] = st.get(span, 0.0)
        m[f"backends.execute_calls.{name}"] = calls[span]
    m["core.iterations"] = iters.get("exact", 0) + iters.get("flexible", 0)
    for name in ("exact", "flexible"):
        busy = total.get(f"backends.execute.{name}", 0.0)
        m[f"core.iter_per_s.{name}"] = iters.get(name, 0) / busy if busy else 0.0
    m["core.assemble_s"] = st.get("core.assemble", 0.0)
    m["core.assemble_calls"] = calls["core.assemble"]
    m["tracestore.save_s"] = st.get("tracestore.save", 0.0)
    m["tracestore.bytes"] = sum(p.stat().st_size for p in tracer.trace_files)

    sim_busy = sum(total.get(f"backends.execute.{b}", 0.0) for b in SIM_BACKENDS)
    m["simulator.phases_per_s"] = phases / sim_busy if sim_busy else 0.0
    # Exact counters every simulator row carries in its info (faults: when injected).
    for layer_name, keys in (("simulator", SIM_COUNTERS), ("faults", FAULT_COUNTERS)):
        for k in keys:
            m[f"{layer_name}.{k}"] = sum(float(r.info.get(k, 0.0)) for r in rows)
    m["faults.fault_max_staleness"] = max(
        (float(r.info.get("fault_max_staleness", 0.0)) for r in rows), default=0.0)

    m.update({
        "store.write_s": st.get("store.write", 0.0),
        "store.writes": calls["store.write"],
        "store.flush_s": st.get("store.flush", 0.0),
        "store.merge_s": st.get("store.merge", 0.0),
        "store.digest_s": st.get("store.digest", 0.0),
        "store.load_s": st.get("store.load", 0.0),
        "store.loads": calls["store.load"],
        # fleet.json records wall-clock times, so its length varies.
        "store.bytes": tree_bytes(*cold.store_dirs, skip=("fleet.json",)),
        "analysis.report_s": st.get("analysis.report", 0.0),
        "spans.coverage": sum(st.values()) / total_s,
    })

    # Resume over a complete store must execute nothing.
    lo, hi = resume_window
    for name, start, _, _, _ in tracer.spans:
        if lo <= start <= hi and name in ("fleet.run_scenario", "batched.run"):
            problems.append(f"resume executed work ({name})")
            break
    return m


def pipeline_pass(workload, study_path):
    """Set-up, cold run, one resume and one report; returns what the checks need."""
    from workloads import cold_run, open_study, report, resume

    t0 = time.perf_counter()
    study = open_study(study_path)
    cold = cold_run(workload, study)
    t1 = time.perf_counter()
    resumed, _ = resume(study)
    t2 = time.perf_counter()
    text, _ = report(study)
    return cold, resumed, text, time.perf_counter() - t0, (t1, t2)


def run_traced(workload, config, study_path, seed, seconds, problems, spans_path, units):
    import repro.runtime.simulator.batched as batched

    import tracing
    from workloads import check_cold, check_report, check_resume, fresh_stores

    pinned = pinned_digest(workload.name, seed, problems)
    untraced, traced_walls, passes = [], [], []
    attempted = failed = 0
    last = None

    def checked(result, sample: int) -> None:
        nonlocal attempted, failed
        cold, resumed, text = result[:3]
        failed += check_cold(cold, pinned=pinned, seed=seed, problems=problems,
                             sample=sample)
        failed += check_resume(resumed, cold, problems) + check_report(text, cold, problems)
        attempted += len(cold.rows)

    t_begin = time.perf_counter()
    while len(passes) < 2 or time.perf_counter() - t_begin < seconds:
        fresh_stores(config, workload)
        result = pipeline_pass(workload, study_path)
        checked(result, 0)
        untraced.append(result[3])

        fresh_stores(config, workload)
        tracer = tracing.Tracer()
        c0 = batched.construction_seconds()
        tracing.install(tracer)
        try:
            result = pipeline_pass(workload, study_path)
        finally:
            tracer.restore()
        construct_s = batched.construction_seconds() - c0
        checked(result, 0 if passes else workload.sample)
        cold, _, _, total_s, window = result
        traced_walls.append(total_s)
        passes.append(layer_metrics(tracer, cold, total_s, window, construct_s, problems))
        last = tracer

    metrics: dict[str, float] = {}
    for name, unit in units.items():
        if name == "spans.overhead":
            continue
        values = [p[name] for p in passes]
        if unit in EXACT_UNITS or name in EXACT_RATIOS:
            if any(v != values[0] for v in values):
                problems.append(f"determinism failure: {name} = {values} across passes")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["spans.overhead"] = (statistics.median(traced_walls)
                                 / statistics.median(untraced) - 1.0)
    if abs(metrics["spans.coverage"] - 1.0) > COVERAGE_TOLERANCE:
        problems.append(f"spans.coverage {metrics['spans.coverage']:.4f} is more than "
                        f"{COVERAGE_TOLERANCE} from 1")
    last.write_spans(spans_path, {"workload": workload.name, "seed": seed,
                                  "host": host_shape()})
    print(f"passes {len(passes)} traced + {len(untraced)} untraced; spans in {spans_path}")
    return metrics, attempted, min(failed, attempted)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, serial_config

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in doc["per_layer" if args.trace else "end_to_end"]}
    why = {w["name"]: w["why"] for w in doc["workloads"]}[workload.name]

    run_dir = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(run_dir / "tmp")
    tempfile.tempdir = str(run_dir / "tmp")

    host = host_shape()
    print("host " + json.dumps(host))
    print(f"workload {workload.name}: {why}")
    problems: list[str] = []
    out = os.path.relpath(run_dir / "store", ROOT)
    os.chdir(ROOT)
    try:
        config = workload.build(args.seed, out)
        if args.trace:
            config = serial_config(config)
        study_path = run_dir / "study.toml"
        study_path.write_text(config.to_toml())
        print(f"study {config.name}: {config.size} scenarios, hash {config.content_hash}")
        if args.trace:
            spans_path = WORK / "spans" / f"{workload.name}-seed{args.seed}.jsonl"
            metrics, attempted, failed = run_traced(
                workload, config, study_path, args.seed, args.seconds, problems, spans_path,
                units)
        else:
            metrics, attempted, failed = run_untraced(
                workload, config, study_path, args.seed, args.seconds, problems)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for p in dict.fromkeys(problems):
        print(f"problem: {p}", file=sys.stderr)
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"metrics not computed: {missing}")
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:>16.6g} {unit}")
    if not args.trace:
        print(f"  {'failed_fraction':34s} {failed / max(attempted, 1):>16.6g} ratio")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
