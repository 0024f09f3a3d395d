"""The benchmark's workloads: seeded synthetic monorepos plus change lists.

Every workload is a list of *cells*.  A cell is one base snapshot and the
changes one client sends to one fresh ``CoreService``.  Each cell's seed
is derived from the ``--seed`` argument, so the same seed always mints the
same cells; pooling several cells per run keeps a run's figures close to
the workload's average rather than to one monorepo's shape.

All inputs are minted here, before any clock starts.  The program sees
only the generated ``files`` dict and ``Change`` list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Tuple

import numpy as np

from repro.changes.change import Change
from repro.parallel.workload import FIGURE12_SPEC, mint_cell
from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo

#: The wider monorepo the trickle workload runs on (4x the figure-12 files).
TRICKLE_SPEC = MonorepoSpec(
    layers=(16, 24, 32, 24, 16), fan_in=2, files_per_target=4
)

#: One 40-change block of the mixed workload, repeated three times.
#: ``C`` clean, ``B`` broken, ``A``/``a`` first/second half of a
#: conflicting pair (halves pair up first-in first-out), ``S`` structural.
MIXED_BLOCK = "CCBCACSCCaCBCACCSCaB" "CCBCACSCCaCBCCCSCCBC"
MIXED_BLOCKS = 3


@dataclass(frozen=True)
class Cell:
    """One client session against one fresh service."""

    label: str
    seed: int
    files: Dict[str, str]
    changes: List[Change]
    #: ``True``: submit one change, pump until it is decided, then send the
    #: next.  ``False``: submit every change back to back, then pump once.
    one_at_a_time: bool = False
    #: Attach a ``JournalWriter`` to the service.
    journaled: bool = False
    #: Changes minted with ``make_broken_change``; none may land.
    broken: FrozenSet[str] = frozenset()
    #: ``make_conflicting_pair`` halves; at most one of each pair may land.
    pairs: Tuple[Tuple[str, str], ...] = ()


def mint_deep_burst(seed: int) -> Cell:
    """The figure-12 cell: 160 clean changes on 56 targets, one burst."""
    files, changes = mint_cell(seed, count=160, spec=FIGURE12_SPEC)
    return Cell(f"deep-burst/{seed}", seed, files, changes)


def mint_trickle(seed: int) -> Cell:
    """One clean change per (target, source file), sent one at a time."""
    synth = SyntheticMonorepo(TRICKLE_SPEC, seed=seed)
    changes = [
        synth.make_clean_change(name, source_index=index)
        for name in synth.target_names()
        for index in range(TRICKLE_SPEC.files_per_target)
    ]
    order = np.random.default_rng(seed).permutation(len(changes))
    return Cell(
        f"trickle/{seed}",
        seed,
        synth.repo.snapshot().to_dict(),
        [changes[int(position)] for position in order],
        one_at_a_time=True,
    )


def mint_mixed(seed: int) -> Cell:
    """Clean, broken, conflicting-pair and BUILD-adding changes, journaled.

    The mix is fixed by :data:`MIXED_BLOCK` (60% clean, 15% broken, 15%
    pair halves, 10% structural); the seed picks the monorepo and the
    targets of broken changes and pairs.  Clean edits walk the targets
    with stride 5, so some re-edit a file and are rejected as textual
    conflicts, as in the figure-12 cell.
    """
    synth = SyntheticMonorepo(FIGURE12_SPEC, seed=seed)
    targets = synth.target_names()
    changes: List[Change] = []
    broken: List[str] = []
    pairs: List[Tuple[str, str]] = []
    second_halves: List[Change] = []
    for kind in MIXED_BLOCK * MIXED_BLOCKS:
        position = len(changes)
        if kind == "C":
            change = synth.make_clean_change(
                targets[(5 * position) % len(targets)],
                source_index=(position // len(targets)) % 2,
            )
        elif kind == "B":
            change = synth.make_broken_change()
            broken.append(change.change_id)
        elif kind == "S":
            change = synth.make_structural_change()
        elif kind == "A":
            change, second = synth.make_conflicting_pair()
            pairs.append((change.change_id, second.change_id))
            second_halves.append(second)
        else:
            change = second_halves.pop(0)
        changes.append(change)
    return Cell(
        f"mixed-journaled/{seed}",
        seed,
        synth.repo.snapshot().to_dict(),
        changes,
        journaled=True,
        broken=frozenset(broken),
        pairs=tuple(pairs),
    )


@dataclass(frozen=True)
class Workload:
    name: str
    mint: Callable[[int], Cell]
    #: Cells minted per run.
    cells: int


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("deep-burst", mint_deep_burst, cells=10),
        Workload("trickle", mint_trickle, cells=8),
        Workload("mixed-journaled", mint_mixed, cells=10),
    )
}


def mint(workload: Workload, seed: int) -> List[Cell]:
    """The run's cells; the same ``seed`` always gives the same cells."""
    # Index the workload into the seed sequence so workloads sharing a
    # --seed still get independent monorepos.
    index = list(WORKLOADS).index(workload.name)
    seeds = np.random.SeedSequence([seed, index]).generate_state(workload.cells)
    return [workload.mint(int(cell_seed)) for cell_seed in seeds]
