"""Correctness gate and outcome-neutrality check, run outside the clock.

Every problem found is one failed operation; the run reports them in
``failed`` and is ``correct`` only when there are none.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.buildsys.executor import BuildExecutor

from drive import CellRun

#: Mainline commits a fresh executor rebuilds per cell, besides the head.
REBUILD_SAMPLE = 4


def gate(run: CellRun) -> List[str]:
    """Decision invariants for one drive: each is one failure."""
    cell = run.cell
    problems: List[str] = []
    submitted = [change.change_id for change in cell.changes]
    decided = Counter(change_id for change_id, _, _ in run.decisions)
    for change_id in submitted:
        if decided[change_id] != 1:
            problems.append(f"{change_id} decided {decided[change_id]} times")
    for change_id in set(decided) - set(submitted):
        problems.append(f"{change_id} decided but never submitted")
    if run.pending_after:
        problems.append(f"{run.pending_after} changes still pending")
    landed = {change_id for change_id, committed, _ in run.decisions if committed}
    for change_id in sorted(cell.broken & landed):
        problems.append(f"broken change {change_id} landed")
    for first, second in cell.pairs:
        if first in landed and second in landed:
            problems.append(f"both halves of conflicting pair {first}/{second} landed")
    for index, green in enumerate(run.repo.mainline_green_flags()):
        if not green:
            problems.append(f"mainline commit {index} is marked red")
    return problems


def rebuild(run: CellRun) -> List[str]:
    """A fresh executor rebuilds the head and a seeded sample of commits."""
    history = run.repo.mainline_history()
    rng = np.random.default_rng(run.cell.seed)
    sample = min(REBUILD_SAMPLE, len(history) - 1)
    picks = sorted(int(i) for i in rng.choice(len(history) - 1, sample, replace=False))
    executor = BuildExecutor()
    problems = []
    for index in picks + [len(history) - 1]:
        report = executor.build(run.repo.snapshot(history[index]))
        if not report.success:
            failure = report.first_failure()
            problems.append(f"mainline commit {index} builds red: {failure.log}")
    return problems


def neutrality(runs: Sequence[CellRun]) -> Tuple[Dict[str, str], List[str]]:
    """Digest and decisions must match across every drive of one cell.

    Returns the digest per cell (information only) and the mismatches.
    """
    first: Dict[str, CellRun] = {}
    problems: List[str] = []
    for run in runs:
        label = run.cell.label
        reference = first.setdefault(label, run)
        if run.digest != reference.digest or run.decisions != reference.decisions:
            problems.append(f"{label}: outcome differs between repetitions")
    return {label: run.digest for label, run in first.items()}, problems
