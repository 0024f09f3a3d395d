"""The timed run (end-to-end metrics) and the traced run (per-layer metrics).

Both return ``{"problems": [...], "attempted": n, "metrics": {...}}``;
``run.py`` turns that into the result line.
"""

from __future__ import annotations

import bisect
import functools
import gc
import hashlib
import heapq
import os
import resource
import statistics
import time
from collections import Counter
from typing import Dict, Iterator, List, Sequence

from check import gate, neutrality, rebuild
from drive import CellRun, drive, measure_setup
from tracer import LAYERS, SPANS, LayerTracer
from workloads import Cell

#: Extra service constructions before each drive, for the set-up median.
SETUP_SAMPLES_PER_DRIVE = 2
#: Spans written to the Chrome trace, at most (whole runs only).
TRACE_SPAN_LIMIT = 100_000
#: Seconds :func:`speed_probe` takes at the reference speed, about its
#: median on the machine the bounds were set on (a 2.1 GHz Xeon vCPU,
#: Python 3.11).  Wall times are reported at that speed.
REFERENCE_PROBE_S = 0.060


def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def quantile(samples: Sequence[float], share: float) -> float:
    """The mid-distribution quantile: linear between tied values.

    Each distinct value ``v`` sits at ``P(X < v) + P(X = v) / 2``; the
    quantile interpolates between those points.  Without ties this is the
    usual type-5 sample quantile.  Simulated turnarounds are whole build
    minutes with many ties, and a plain order statistic would jump from
    one tied value to the next as the input shifts slightly.
    """
    counts = Counter(samples)
    values = sorted(counts)
    below = 0
    points = []
    for value in values:
        points.append((below + counts[value] / 2) / len(samples))
        below += counts[value]
    index = bisect.bisect_left(points, share)
    if index == 0:
        return values[0]
    if index == len(values):
        return values[-1]
    low, high = points[index - 1], points[index]
    weight = (share - low) / (high - low)
    return values[index - 1] + weight * (values[index] - values[index - 1])


def speed_probe() -> float:
    """Seconds this machine takes, right now, for a fixed computation.

    The computation uses no program code, only the kind of interpreter
    work the service's hot path does: chained dict lookups, hashing of
    file contents and a heap of scored tuples.  The machine's speed swings
    by 15-70% over seconds to minutes; probes interleaved with the drives
    measure that swing, and dividing it out leaves what the program
    itself costs.  Over eight deep-burst runs on eight seeds this cut the
    spread of ``cell_wall_s`` (quartile distance over median) from 13% to
    5%.  The collector is off during the probe, so the size of the
    benchmark's own heap does not enter its time.
    """
    gc.disable()
    try:
        return _probe_work()
    finally:
        gc.enable()


def _probe_work() -> float:
    started = time.perf_counter()
    # Layered dicts walked top-down, like overlay chains; hashing of file
    # contents, like target hashing; a heap of scored tuples, like build
    # selection.
    layers = [{} for _ in range(12)]
    for index in range(12_000):
        layers[index % 12][f"pkg{index % 211}/src_{index}.py"] = (
            f"# module {index}\nVALUE = {index}\n"
        )
    found = 0
    for index in range(12_000):
        path = f"pkg{(index * 7) % 211}/src_{(index * 7919) % 12_000}.py"
        for layer in layers:
            content = layer.get(path)
            if content is not None:
                found += len(content)
                break
    for layer in layers:
        for path, content in layer.items():
            hashlib.sha256((path + content).encode()).hexdigest()
    heap: List[tuple] = []
    for index in range(12_000):
        heapq.heappush(heap, ((index * 2654435761) % 10_007 / 10_007.0, index))
    while heap:
        heapq.heappop(heap)
    return time.perf_counter() - started


def _schedule(cells: List[Cell], seconds: float, minimum: int) -> Iterator[Cell]:
    """Cells round-robin until ``seconds`` passed and ``minimum`` were driven.

    The machine's speed drifts over seconds, so what steadies a run's
    figures is measuring over the whole ``seconds`` and over many distinct
    cells; interleaving makes a slow stretch weigh on all cells alike.
    """
    started = time.perf_counter()
    count = 0
    while count < minimum or time.perf_counter() - started < seconds:
        yield cells[count % len(cells)]
        count += 1


def _check(run: CellRun, rebuilt: set, problems: List[str]) -> CellRun:
    """Gate one drive, rebuild its cell's mainline once, drop its repository.

    Done right after each drive, off the clock, so that finished drives
    do not pile up repositories whose garbage-collection cost would slow
    the drives after them.
    """
    problems.extend(gate(run))
    if run.cell.label not in rebuilt:
        rebuilt.add(run.cell.label)
        problems.extend(rebuild(run))
    run.repo = None
    return run


def _neutrality(runs: List[CellRun]) -> List[str]:
    """Outcome mismatches across ``runs``; prints each cell's digest."""
    digests, mismatches = neutrality(runs)
    for label, digest in digests.items():
        print(f"fingerprint {label} {digest}")
    return mismatches


def timed_run(cells: List[Cell], seconds: float, scratch_dir: str) -> dict:
    setup_samples: List[float] = []
    probes: List[float] = []
    runs: List[CellRun] = []
    problems: List[str] = []
    rebuilt: set = set()
    # Every cell once, and one twice, so that neutrality is always checked.
    for cell in _schedule(cells, seconds, len(cells) + 1):
        probes.append(speed_probe())
        setup_samples.extend(
            measure_setup(cell, scratch_dir) for _ in range(SETUP_SAMPLES_PER_DRIVE)
        )
        runs.append(_check(drive(cell, scratch_dir), rebuilt, problems))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    setup_samples.extend(run.setup_s for run in runs)
    walls: Dict[str, List[float]] = {}
    for run in runs:
        walls.setdefault(run.cell.label, []).append(run.wall_s)
    cell_wall_s = statistics.fmean(statistics.median(w) for w in walls.values())
    submit_ms = [call * 1e3 for run in runs for call in run.submit_s]
    submit_p50, submit_p90 = quantile(submit_ms, 0.5), quantile(submit_ms, 0.9)
    speed = REFERENCE_PROBE_S / statistics.median(probes)
    first = runs[: len(cells)]
    decisions = sum(len(run.decisions) for run in first)
    landed = sum(run.landed for run in first)
    sim_minutes = sum(run.sim_minutes for run in first)
    builds = sum(run.builds_started for run in first)

    problems.extend(_neutrality(runs))
    print(
        f"{len(runs)} drives of {len(cells)} cells; samples: "
        f"cell_wall_s {len(runs)} drives, submit_ms {len(submit_ms)} calls, "
        f"turnaround {decisions} decisions, setup_s {len(setup_samples)}, "
        f"speed probe {len(probes)}"
    )
    print(
        f"machine speed {speed:.4f} x reference; unscaled: cell_wall_s "
        f"{cell_wall_s:.4f}, submit_ms_p50 {submit_p50:.4f}, "
        f"submit_ms_p90 {submit_p90:.4f}"
    )
    return {
        "problems": problems,
        "attempted": sum(len(run.cell.changes) for run in runs),
        "metrics": {
            "cell_wall_s": _metric(cell_wall_s * speed, "ref_s"),
            "submit_ms_p50": _metric(submit_p50 * speed, "ref_ms"),
            "submit_ms_p90": _metric(submit_p90 * speed, "ref_ms"),
            # Per cell, then averaged: pooled, a burst's p90 would be set by
            # the one or two cells whose queues drain last.
            "turnaround_min_p50": _metric(
                statistics.fmean(quantile(run.turnaround_min, 0.5) for run in first),
                "sim_min",
            ),
            "turnaround_min_p90": _metric(
                statistics.fmean(quantile(run.turnaround_min, 0.9) for run in first),
                "sim_min",
            ),
            "landed_per_hour": _metric(landed / sim_minutes * 60.0, "1/sim_h"),
            "builds_per_decision": _metric(builds / decisions, "builds/decision"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
            "setup_s": _metric(statistics.median(setup_samples), "s"),
        },
    }


def traced_run(cells: List[Cell], seconds: float, scratch_dir: str, trace_path: str) -> dict:
    tracer = LayerTracer()
    untraced: List[CellRun] = []
    traced: List[CellRun] = []
    problems: List[str] = []
    rebuilt: set = set()
    for cell in _schedule(cells, seconds, 1):
        untraced.append(_check(drive(cell, scratch_dir), rebuilt, problems))
        recording = functools.partial(tracer.recording, cell.label)
        traced.append(
            _check(drive(cell, scratch_dir, recording=recording), rebuilt, problems)
        )

    per_run = 1.0 / len(traced)
    traced_wall = sum(run.wall_s for run in traced)
    untraced_wall = sum(run.wall_s for run in untraced)
    metrics: Dict[str, Dict[str, object]] = {}
    for name in dict.fromkeys(name for _, _, name in SPANS):
        metrics[f"{name}.calls"] = _metric(tracer.calls[name] * per_run, "count")
        metrics[f"{name}.self_s"] = _metric(tracer.self_s[name] * per_run, "s")
    for layer, layer_s in tracer.layer_self_s().items():
        metrics[f"{layer}.self_s"] = _metric(layer_s * per_run, "s")
    build_minutes = sum(run.build_minutes for run in traced)
    plan_calls = sum(run.plan_calls for run in traced)
    steps = tracer.steps_executed + tracer.steps_cached
    metrics.update(
        {
            "planner.plan_skip_ratio": _metric(
                sum(run.plan_calls_skipped for run in traced) / plan_calls, "ratio"
            ),
            "planner.builds_started": _metric(
                sum(run.builds_started for run in traced) * per_run, "count"
            ),
            "planner.builds_aborted": _metric(
                sum(run.builds_aborted for run in traced) * per_run, "count"
            ),
            "planner.wasted_build_frac": _metric(
                sum(run.wasted_minutes for run in traced) / build_minutes, "ratio"
            ),
            "planner.worker_utilization": _metric(
                statistics.fmean(run.worker_utilization for run in traced), "ratio"
            ),
            "buildsys.steps_executed": _metric(tracer.steps_executed * per_run, "count"),
            "buildsys.step_cache_hit_ratio": _metric(
                tracer.steps_cached / steps if steps else 0.0, "ratio"
            ),
            "vcs.overlay_lookups": _metric(tracer.overlay_lookups * per_run, "count"),
            "vcs.overlay_hops_per_lookup": _metric(
                tracer.overlay_hops / tracer.overlay_lookups
                if tracer.overlay_lookups
                else 0.0,
                "ratio",
            ),
            "journal.bytes": _metric(
                sum(run.journal_bytes for run in traced) * per_run, "bytes"
            ),
            "other.self_s": _metric(
                (traced_wall - sum(tracer.covered_s.values())) * per_run, "s"
            ),
            "trace.overhead_frac": _metric(
                (traced_wall - untraced_wall) / untraced_wall, "ratio"
            ),
        }
    )

    print(tracer.table(traced_wall))
    written = tracer.write_chrome_trace(trace_path, TRACE_SPAN_LIMIT)
    print(
        f"{len(traced)} traced drives, {len(tracer.spans)} spans; "
        f"{written} runs written to {os.path.basename(trace_path)}"
    )
    problems.extend(_neutrality(untraced + traced))
    ranked = sorted(
        LAYERS, key=lambda layer: metrics[f"{layer}.self_s"]["value"], reverse=True
    )
    print("layers by self time: " + ", ".join(ranked))
    return {
        "problems": problems,
        "attempted": sum(len(run.cell.changes) for run in untraced + traced),
        "metrics": metrics,
    }
