"""Synthetic build steps driven by in-source directives.

Real compilers and test runners are replaced by two directives planted in
source content, which is what lets the workload layer mint changes with
*known* ground truth (section 8's evaluation needs individually-broken and
really-conflicting changes on demand):

``# FAIL:<step>``
    The owning target fails exactly that step kind (e.g. ``unit_test``).

``# CONFLICT:<token>``
    One occurrence visible to a target is harmless; two or more occurrences
    of the *same* token in its transitive source closure fail its test
    steps.  A pair of changes each planting one occurrence thus passes
    individually and fails combined — a real semantic conflict with no
    textual overlap.

Compile and artifact steps are not conflict-sensitive: a conflict is two
changes that each build but whose *combination* breaks tests.

Steps read directives through a :class:`DirectiveIndex`: one slot per
target holding its own FAIL tally and its closure's CONFLICT marks, exact
for the target digest it was built at and rebuilt from the dependencies'
slots when that digest moves, so a step-cache miss scans only the
target's own sources.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, Iterable, Mapping, NamedTuple, Optional, Tuple

from repro.buildsys.graph import BuildGraph
from repro.buildsys.hashing import TargetHasher
from repro.buildsys.target import Target
from repro.types import Path, StepKind, TargetName

FAIL_DIRECTIVE = re.compile(r"#\s*FAIL:([A-Za-z_]+)")
CONFLICT_DIRECTIVE = re.compile(r"#\s*CONFLICT:([^\s#]+)")

#: Step kinds that two combined CONFLICT tokens break.
CONFLICT_SENSITIVE_STEPS = frozenset(
    {StepKind.UNIT_TEST, StepKind.INTEGRATION_TEST, StepKind.UI_TEST}
)


@dataclass(frozen=True)
class StepSpec:
    """Identity of one build step: which target, which kind."""

    target: TargetName
    kind: StepKind


@dataclass(frozen=True)
class StepResult:
    """Outcome of one step: pass/fail, a log line, and cache provenance."""

    spec: StepSpec
    passed: bool
    log: str = ""
    cached: bool = False


def scan_directives(
    sources: Iterable[str],
) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Count FAIL and CONFLICT directives across source contents.

    Returns ``(fails, conflicts)``: step-name -> occurrences and
    conflict-token -> occurrences.
    """
    fails: Dict[str, int] = {}
    conflicts: Dict[str, int] = {}
    for text in sources:
        for match in FAIL_DIRECTIVE.finditer(text):
            step = match.group(1)
            fails[step] = fails.get(step, 0) + 1
        for match in CONFLICT_DIRECTIVE.finditer(text):
            token = match.group(1)
            conflicts[token] = conflicts.get(token, 0) + 1
    return fails, conflicts


class DirectiveSlot(NamedTuple):
    """One target's directive summary, exact wherever its digest is ``digest``.

    ``fails`` tallies the FAIL directives in the target's own sources.
    ``marks`` maps each target of the transitive closure (the target
    itself included) that plants CONFLICT tokens to that target's own
    token tally; ``colliding`` lists, sorted, the tokens whose tallies
    sum to two or more over ``marks``.
    """

    digest: str
    fails: Mapping[str, int]
    marks: Mapping[TargetName, Mapping[str, int]]
    colliding: Tuple[str, ...]


#: Shared by every target with no FAIL directive / no CONFLICT token in
#: its closure (the common case), so such slots allocate no tallies.
_NO_FAILS: Mapping[str, int] = MappingProxyType({})
_NO_MARKS: Mapping[TargetName, Mapping[str, int]] = MappingProxyType({})


class DirectiveIndex:
    """Per-target directive slots, rebuilt only where a target digest moved.

    Each target name owns one :class:`DirectiveSlot`.  An Algorithm-1
    digest pins the contents of the target's whole closure, so a slot
    whose digest matches the requested one is exact and is served as is.
    A stale slot is rebuilt from its own sources plus its dependencies'
    slots (dependencies first, iteratively), which costs O(own sources +
    deps) instead of a rescan of the closure's text.

    Closure marks are keyed by *closure target name*, never by path: a
    source file owned by two closure targets counts once per owner, as
    the plain rescan of every closure target's sources counts it.

    ``reused`` counts slot reads served as the slot stood (the requested
    target's, or a dependency's while a dependent is rebuilt); ``rebuilt``
    counts slots rebuilt, dependencies included.  The store holds one slot
    per target name, and :meth:`trim` against each new mainline head's
    graph drops the names only speculative graphs declared (a rejected
    BUILD-adding change's targets), so the store stays within the graph's
    size plus one round's additions and needs no capacity setting.
    """

    __slots__ = ("_slots", "reused", "rebuilt")

    def __init__(self) -> None:
        self._slots: Dict[TargetName, DirectiveSlot] = {}
        self.reused = 0
        self.rebuilt = 0

    def __len__(self) -> int:
        return len(self._slots)

    def __contains__(self, name: object) -> bool:
        return name in self._slots

    def clear(self) -> None:
        """Drop every slot; the counters keep accumulating."""
        self._slots.clear()

    def trim(self, graph: BuildGraph) -> None:
        """Keep the store no larger than ``graph``.

        Once it holds more slots than ``graph`` declares targets, the slots
        of targets ``graph`` does not declare are dropped (a rebuild later
        is exact, only slower).
        """
        if len(self._slots) > len(graph):
            stale = [name for name in self._slots if name not in graph]
            for name in stale:
                del self._slots[name]

    def slot(
        self,
        graph: BuildGraph,
        snapshot: Mapping[Path, str],
        name: TargetName,
        digest_of: Callable[[TargetName], str],
    ) -> DirectiveSlot:
        """The slot of ``name`` in ``snapshot``, whose digests ``digest_of`` gives."""
        slots = self._slots
        digest = digest_of(name)
        current = slots.get(name)
        if current is not None and current.digest == digest:
            self.reused += 1
            return current
        # Post-order over the stale part of the closure: a target is
        # rebuilt only after every dependency slot it reads is current.
        stack = [(name, digest, False)]
        while stack:
            node, node_digest, ready = stack.pop()
            if ready:
                target = graph.target(node)
                slots[node] = self._rebuild(target, node_digest, snapshot)
                self.rebuilt += 1
                continue
            current = slots.get(node)
            if current is not None and current.digest == node_digest:
                continue  # a diamond reached it twice
            stack.append((node, node_digest, True))
            for dep in graph.target(node).deps:
                dep_digest = digest_of(dep)
                current = slots.get(dep)
                if current is not None and current.digest == dep_digest:
                    self.reused += 1
                else:
                    stack.append((dep, dep_digest, False))
        return slots[name]

    def _rebuild(
        self, target: Target, digest: str, snapshot: Mapping[Path, str]
    ) -> DirectiveSlot:
        fails, own = scan_directives(snapshot.get(path, "") for path in target.srcs)
        slots = self._slots
        inherited = [
            slots[dep] for dep in target.deps if slots[dep].marks is not _NO_MARKS
        ]
        if not own:
            if not inherited:
                return DirectiveSlot(digest, fails or _NO_FAILS, _NO_MARKS, ())
            if len(inherited) == 1:
                only = inherited[0]
                return DirectiveSlot(
                    digest, fails or _NO_FAILS, only.marks, only.colliding
                )
        marks: Dict[TargetName, Mapping[str, int]] = {}
        for dep_slot in inherited:
            marks.update(dep_slot.marks)
        if own:
            marks[target.name] = own
        totals: Dict[str, int] = {}
        for tally in marks.values():
            for token, count in tally.items():
                totals[token] = totals.get(token, 0) + count
        colliding = tuple(
            sorted(token for token, count in totals.items() if count >= 2)
        )
        return DirectiveSlot(digest, fails or _NO_FAILS, marks, colliding)


def step_outcome(target: Target, kind: StepKind, slot: DirectiveSlot) -> StepResult:
    """The result of running ``kind`` on ``target``, given its directive slot.

    FAIL directives act on the target's *own* sources; CONFLICT tokens are
    counted over the transitive dependency closure, because a conflict
    between a dependency's change and a dependent's change only surfaces
    when the dependent's tests see both.
    """
    spec = StepSpec(target.name, kind)
    if slot.fails.get(kind.value):
        return StepResult(
            spec,
            passed=False,
            log=f"{target.name} {kind.value}: FAIL:{kind.value} directive present",
        )
    if slot.colliding and kind in CONFLICT_SENSITIVE_STEPS:
        return StepResult(
            spec,
            passed=False,
            log=(
                f"{target.name} {kind.value}: conflicting tokens "
                + ", ".join(slot.colliding)
            ),
        )
    return StepResult(spec, passed=True, log=f"{target.name} {kind.value}: ok")


def evaluate_step(
    graph: BuildGraph,
    target: Target,
    kind: StepKind,
    snapshot: Mapping[Path, str],
    index: Optional[DirectiveIndex] = None,
    digest_of: Optional[Callable[[TargetName], str]] = None,
) -> StepResult:
    """Run one synthetic step hermetically against a snapshot.

    Directives are read through ``index`` (a fresh one when omitted), keyed
    by ``digest_of``'s Algorithm-1 digests (computed over ``snapshot`` when
    omitted).  See :func:`step_outcome` for the rules.
    """
    if index is None:
        index = DirectiveIndex()
    if digest_of is None:
        digest_of = TargetHasher(graph, snapshot).hash_of
    return step_outcome(
        target, kind, index.slot(graph, snapshot, target.name, digest_of)
    )
