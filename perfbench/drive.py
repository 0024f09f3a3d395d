"""Drive one cell through a fresh default ``CoreService`` and time it.

The service is the default single-process stack: inline builds, the
monolithic queue and analyzer, no batching, and the
``StaticPredictor(success=0.9, conflict=0.05)`` that ``run_cell`` uses.
"""

from __future__ import annotations

import contextlib
import copy
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, ContextManager, Dict, Iterator, List, Optional, Tuple

from repro.journal.fingerprint import fingerprint_digest
from repro.journal.sink import JournalWriter
from repro.predictor.predictors import StaticPredictor
from repro.service.core import CoreService, CoreServiceConfig
from repro.strategies.submitqueue import SubmitQueueStrategy
from repro.vcs.repository import Repository

from workloads import Cell


@dataclass
class CellRun:
    """What one drive of one cell measured and produced."""

    cell: Cell
    setup_s: float
    wall_s: float
    submit_s: List[float]
    #: ``(change_id, committed, at)`` in decision order.
    decisions: Tuple[Tuple[str, bool, float], ...]
    #: Simulated minutes from each change's submission to its decision.
    turnaround_min: List[float]
    digest: str
    sim_minutes: float
    builds_started: int
    builds_aborted: int
    build_minutes: float
    wasted_minutes: float
    plan_calls: int
    plan_calls_skipped: int
    worker_utilization: float
    pending_after: int
    journal_bytes: int
    #: The service's repository; dropped once the run has been checked.
    repo: Optional[Repository]

    @property
    def landed(self) -> int:
        return sum(1 for _, committed, _ in self.decisions if committed)


def build_service(cell: Cell, journal_dir: Optional[str]) -> CoreService:
    config = (
        CoreServiceConfig(journal=JournalWriter(journal_dir))
        if journal_dir is not None
        else CoreServiceConfig()
    )
    return CoreService(
        Repository(dict(cell.files)),
        SubmitQueueStrategy(StaticPredictor(success=0.9, conflict=0.05)),
        config=config,
    )


@contextlib.contextmanager
def _journal_dir(cell: Cell, scratch_dir: str) -> Iterator[Optional[str]]:
    """A fresh journal directory for a journaled cell, removed afterwards."""
    if not cell.journaled:
        yield None
        return
    root = tempfile.mkdtemp(prefix="journal-", dir=scratch_dir)
    try:
        yield os.path.join(root, "journal")
    finally:
        shutil.rmtree(root, ignore_errors=True)


def measure_setup(cell: Cell, scratch_dir: str) -> float:
    """Wall seconds to construct the repository and service, as drive() does."""
    with _journal_dir(cell, scratch_dir) as journal_dir:
        started = time.perf_counter()
        service = build_service(cell, journal_dir)
        elapsed = time.perf_counter() - started
        service.close()
        service.journal.close()
    return elapsed


def drive(
    cell: Cell,
    scratch_dir: str,
    recording: Callable[[], ContextManager] = contextlib.nullcontext,
) -> CellRun:
    """Run ``cell`` once on a fresh service.

    ``recording()`` is entered just before the first submit and left just
    after the last decision; the traced run installs and removes its
    wrappers there, so only the cell itself is traced.
    """
    with _journal_dir(cell, scratch_dir) as journal_dir:
        started = time.perf_counter()
        service = build_service(cell, journal_dir)
        setup_s = time.perf_counter() - started
        batch = copy.deepcopy(cell.changes)
        submitted_at: Dict[str, float] = {}
        submit_s: List[float] = []
        decisions = []
        with recording():
            started = time.perf_counter()
            for change in batch:
                submitted_at[change.change_id] = service.clock.now
                call = time.perf_counter()
                service.submit(change)
                submit_s.append(time.perf_counter() - call)
                if cell.one_at_a_time:
                    decisions.extend(service.pump())
            if not cell.one_at_a_time:
                decisions = service.pump()
            wall_s = time.perf_counter() - started
        stats = service.planner.stats
        journal = service.journal
        journal_bytes = getattr(journal, "bytes_written", 0)
        run = CellRun(
            cell=cell,
            setup_s=setup_s,
            wall_s=wall_s,
            submit_s=submit_s,
            decisions=tuple((d.change_id, d.committed, d.at) for d in decisions),
            turnaround_min=[d.at - submitted_at[d.change_id] for d in decisions],
            digest=fingerprint_digest(service),
            sim_minutes=service.clock.now,
            builds_started=stats.builds_started,
            builds_aborted=stats.builds_aborted,
            build_minutes=stats.build_minutes,
            wasted_minutes=stats.wasted_minutes,
            plan_calls=stats.plan_calls,
            plan_calls_skipped=stats.plan_calls_skipped,
            worker_utilization=service.planner.workers.utilization(
                service.clock.now
            ),
            pending_after=service.planner.pending_count(),
            journal_bytes=journal_bytes,
            repo=service.repo,
        )
        service.close()
        journal.close()
    return run
