"""Equations 1–5: the probabilistic model behind speculation.

Notation (section 4.2): for a build ``B_{S.C}`` that applies change ``C``
on top of an assumed-committed set ``S`` of its conflicting ancestors,

* the build's *conditional success* probability generalizes Equation 4::

      P_succ(B_{S.C} | S committed) = P_succ(C) - Σ_{a∈S} P_conf(a, C)

  (a change fails on a stack either on its own or by conflicting with a
  stacked change; pairwise conflict probabilities union-bound the latter);

* the probability the build's result is *needed* generalizes Equations
  1–3 and 5: the realized outcome set of ``C``'s ancestors must equal
  ``S``::

      P_needed(B_{S.C}) = Π_{a∈S} P_commit(a) · Π_{a∈anc(C)\\S} (1 - P_commit(a))

* ``P_commit(a)`` — the probability an ancestor ends up committing — is
  estimated in submission order with the multiplicative form::

      P_commit(C) = P_succ(C) · Π_{a∈anc(C)} (1 - P_commit(a)·P_conf(a, C))

  For small conflict probabilities this agrees with the paper's
  subtraction (Equation 4 is its first-order expansion), but it does not
  saturate at zero when a change has hundreds of conflicting ancestors —
  which real monorepo queues do (Figure 1's dense conflict regime).
  Already-decided ancestors contribute exactly 0 or 1, which is how build
  values sharpen as outcomes arrive (the "react to build successes or
  failures" behaviour of section 4.2.1).
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
)

from repro.types import ChangeId

#: Probability a change commits, per change id.
CommitProbabilities = Dict[ChangeId, float]
#: Per change, ``P_conf(ancestor, change)`` aligned with its ancestor list;
#: ``None`` marks an entry not asked for yet.
ConflictVectors = Dict[ChangeId, List[Optional[float]]]


def _clamp(p: float) -> float:
    return min(1.0, max(0.0, p))


def _sweep(
    remaining: List[ChangeId],
    ancestors: Mapping[ChangeId, Sequence[ChangeId]],
    p_success: Callable[[ChangeId], float],
    p_conflict: Callable[[ChangeId, ChangeId], float],
    result: CommitProbabilities,
    conflicts: Optional[ConflictVectors] = None,
) -> None:
    """Worklist fixpoint over ``remaining``, writing into ``result``.

    With change reordering (section 10) the ancestor DAG need not follow
    submission order, so sweep until a fixpoint, processing each change
    once all its ancestors are known.

    ``conflicts`` maps a change to its ``P_conf(ancestor, change)`` vector,
    aligned with ``ancestors[change]``.  An entry is asked of
    ``p_conflict`` the first time an ancestor with non-zero ``P_commit``
    needs it and kept, so a caller that holds the vectors across sweeps
    pays one lookup per pair instead of a predictor call.  Entries of
    ancestors whose ``P_commit`` is 0 are never read.  Missing vectors are
    created in ``conflicts``.
    """
    if conflicts is None:
        conflicts = {}
    while remaining:
        deferred: List[ChangeId] = []
        progressed = False
        for change_id in remaining:
            change_ancestors = ancestors.get(change_id, ())
            vector = conflicts.get(change_id)
            if vector is None:
                vector = conflicts[change_id] = [None] * len(change_ancestors)
            ancestor_probs = list(map(result.get, change_ancestors))
            if None in ancestor_probs:
                deferred.append(change_id)  # an ancestor is not swept yet
                continue
            p = p_success(change_id)
            for index, p_anc in enumerate(ancestor_probs):
                if p_anc > 0.0:
                    p_conf = vector[index]
                    if p_conf is None:
                        p_conf = vector[index] = p_conflict(
                            change_ancestors[index], change_id
                        )
                    p *= 1.0 - p_anc * p_conf
            result[change_id] = _clamp(p)
            progressed = True
        if not progressed:
            raise KeyError(
                "ancestor cycle or missing ancestors for: "
                + ", ".join(sorted(deferred)[:5])
            )
        remaining = deferred


def estimate_commit_probabilities(
    order: Sequence[ChangeId],
    ancestors: Mapping[ChangeId, Sequence[ChangeId]],
    p_success: Callable[[ChangeId], float],
    p_conflict: Callable[[ChangeId, ChangeId], float],
    decided: Optional[Mapping[ChangeId, bool]] = None,
) -> CommitProbabilities:
    """Estimate ``P_commit`` for every change, in submission order.

    ``order`` must list changes oldest-first; every ancestor of a change
    must appear earlier in ``order`` or in ``decided``.
    """
    decided = decided or {}
    result: CommitProbabilities = {}
    for change_id, committed in decided.items():
        result[change_id] = 1.0 if committed else 0.0
    _sweep(
        [cid for cid in order if cid not in result],
        ancestors,
        p_success,
        p_conflict,
        result,
    )
    return result


def dirty_cone(
    order: Sequence[ChangeId],
    ancestors: Mapping[ChangeId, Sequence[ChangeId]],
    dirty: Iterable[ChangeId],
) -> Set[ChangeId]:
    """The dirty set plus every change downstream of it.

    A change's ``P_commit`` depends only on its own inputs and its
    ancestors' ``P_commit``, so a change whose inputs moved invalidates
    exactly its descendant cone in the ancestor DAG — everything else may
    reuse the previous epoch's value unchanged.
    """
    descendants: Dict[ChangeId, List[ChangeId]] = {}
    for change_id in order:
        for ancestor_id in ancestors.get(change_id, ()):
            descendants.setdefault(ancestor_id, []).append(change_id)
    cone: Set[ChangeId] = set(dirty)
    frontier: List[ChangeId] = list(cone)
    while frontier:
        node = frontier.pop()
        for child in descendants.get(node, ()):
            if child not in cone:
                cone.add(child)
                frontier.append(child)
    return cone


def estimate_commit_probabilities_incremental(
    order: Sequence[ChangeId],
    ancestors: Mapping[ChangeId, Sequence[ChangeId]],
    p_success: Callable[[ChangeId], float],
    p_conflict: Callable[[ChangeId, ChangeId], float],
    decided: Optional[Mapping[ChangeId, bool]] = None,
    previous: Optional[Mapping[ChangeId, float]] = None,
    dirty: Optional[Iterable[ChangeId]] = None,
    cone: Optional[Set[ChangeId]] = None,
    conflicts: Optional[ConflictVectors] = None,
) -> "tuple[CommitProbabilities, int]":
    """Dirty-set ``P_commit`` estimation seeded by a previous epoch.

    ``previous`` maps change ids to last epoch's values and ``dirty``
    names the changes whose inputs moved since (new arrivals, changed
    ancestor lists, refreshed ``P_succ``, newly decided ancestors).  Only
    the downstream cone of the dirty set is re-swept; everything else
    reuses its previous value bit-for-bit.  A caller that already holds
    that cone passes it as ``cone`` instead of ``dirty``; ``conflicts``
    carries conflict vectors across calls (see :func:`_sweep`).  Returns
    ``(result, reused)`` where ``reused`` counts the changes answered
    from ``previous``.

    The result is identical to :func:`estimate_commit_probabilities`
    provided ``previous`` itself came from the same recurrence and
    ``dirty`` covers every input change — the recurrence is a pure
    function of each change's inputs and its ancestors' values.
    """
    decided = decided or {}
    if previous is None or (dirty is None and cone is None):
        return (
            estimate_commit_probabilities(
                order, ancestors, p_success, p_conflict, decided
            ),
            0,
        )
    if cone is None:
        cone = dirty_cone(order, ancestors, dirty)
    result: CommitProbabilities = {}
    for change_id, committed in decided.items():
        result[change_id] = 1.0 if committed else 0.0
    reused = 0
    remaining: List[ChangeId] = []
    for change_id in order:
        if change_id in result:
            continue
        if change_id in cone or change_id not in previous:
            remaining.append(change_id)
        else:
            result[change_id] = previous[change_id]
            reused += 1
    _sweep(remaining, ancestors, p_success, p_conflict, result, conflicts)
    return result, reused


def p_needed(
    assumed: Iterable[ChangeId],
    all_ancestors: Iterable[ChangeId],
    commit_probabilities: Mapping[ChangeId, float],
) -> float:
    """Probability the build keyed by ``assumed`` will decide its change.

    Equations 1–3/5 generalized: each ancestor in the assumed set must
    commit, each ancestor outside it must not.
    """
    assumed_set = set(assumed)
    probability = 1.0
    for ancestor_id in all_ancestors:
        p_commit = commit_probabilities[ancestor_id]
        probability *= p_commit if ancestor_id in assumed_set else (1.0 - p_commit)
        if probability == 0.0:
            break
    return probability


def conditional_success(
    p_success_alone: float,
    conflict_probabilities: Iterable[float],
) -> float:
    """Equation 4 generalized: success probability on top of a stack."""
    p = p_success_alone - sum(conflict_probabilities)
    return _clamp(p)
