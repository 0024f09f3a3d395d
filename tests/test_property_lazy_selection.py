"""Property test: incremental, lazily materialized selection ≡ a cold engine.

One :class:`SpeculationEngine` keeps everything it may carry across
epochs: the dirty cone, per-change conflict vectors, first-node values
and enumerators built only when the merge heap pops a change's first
node.  A second engine calls ``invalidate_carry_over()`` before every
round, so it recomputes all of that from nothing.  Across random scripts
of arrivals, speculation-counter bumps, decisions, budget changes and
reorders (which leave submission order non-topological, so the dirty
cone must follow ancestor edges backwards through the queue) both must
return the same ``ScoredBuild`` lists, floats bit-identical, under a
static and a learned predictor.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.changes.change import Change, Developer, GroundTruth, next_change_id
from repro.changes.state import ChangeRecord
from repro.predictor.features import CONFLICT_FEATURES, SUCCESS_FEATURES
from repro.predictor.logistic import LogisticRegression
from repro.predictor.predictors import LearnedPredictor, StaticPredictor
from repro.speculation.engine import SpeculationEngine

DEVS = [Developer(f"lazy-dev{i}", tenure_years=float(i)) for i in range(3)]

ARRIVE, DECIDE, BUMP, REORDER, BUDGET = range(5)

#: (op kind, selector seed, verdict/counter flavour).
step_strategy = st.tuples(
    st.sampled_from([ARRIVE, ARRIVE, ARRIVE, DECIDE, BUMP, REORDER, BUDGET]),
    st.integers(min_value=0, max_value=2**20),
    st.booleans(),
)


def _static():
    return StaticPredictor(success=0.85, conflict=0.2)


def _learned():
    """A small fitted model whose answers vary per change and per pair."""
    rng = np.random.default_rng(3)
    success_x = rng.normal(size=(40, len(SUCCESS_FEATURES)))
    conflict_x = rng.normal(size=(40, len(CONFLICT_FEATURES)))
    return LearnedPredictor(
        LogisticRegression().fit(success_x, (success_x[:, 0] > 0).astype(int)),
        LogisticRegression().fit(conflict_x, (conflict_x[:, 1] > 0).astype(int)),
    )


def _mint_change(seed):
    return Change(
        change_id=next_change_id(),
        revision_id="R1",
        developer=DEVS[seed % len(DEVS)],
        ground_truth=GroundTruth(
            individually_ok=True,
            target_names=frozenset({f"//t{seed % 5}", f"//t{seed % 7}"}),
        ),
        features={"n_lines_added": float(seed % 97), "n_commits": 1.0 + seed % 3},
    )


def _has_cycle(pending_ids, ancestors):
    indegree = {cid: 0 for cid in pending_ids}
    children = {}
    for cid in pending_ids:
        for ancestor in ancestors.get(cid, ()):
            if ancestor in indegree:
                indegree[cid] += 1
                children.setdefault(ancestor, []).append(cid)
    ready = [cid for cid, degree in indegree.items() if degree == 0]
    seen = 0
    while ready:
        node = ready.pop()
        seen += 1
        for child in children.get(node, ()):
            indegree[child] -= 1
            if indegree[child] == 0:
                ready.append(child)
    return seen != len(pending_ids)


def _run_script(steps, make_predictor):
    incremental = SpeculationEngine(make_predictor())
    cold = SpeculationEngine(make_predictor())
    pending, ancestors, records, decided, changes_by_id = [], {}, {}, {}, {}
    budget = 3
    for kind, seed, flag in steps:
        if kind == ARRIVE:
            change = _mint_change(seed)
            ancestors[change.change_id] = [
                c.change_id
                for index, c in enumerate(pending)
                if (seed >> (index % 20)) & 1
            ]
            pending.append(change)
            records[change.change_id] = ChangeRecord(change=change)
            changes_by_id[change.change_id] = change
        elif kind == DECIDE:
            ready = [
                c for c in pending
                if all(a in decided for a in ancestors[c.change_id])
            ]
            if ready:
                victim = ready[seed % len(ready)]
                decided[victim.change_id] = flag
                pending = [c for c in pending if c is not victim]
        elif kind == BUMP:
            if pending:
                record = records[pending[seed % len(pending)].change_id]
                if flag:
                    record.speculations_succeeded += 1
                else:
                    record.speculations_failed += 1
        elif kind == REORDER:
            # The planner's edge swap: ``behind`` jumps ahead of one of its
            # pending ancestors, which now lists ``behind`` as an ancestor
            # although it was submitted first.
            pending_ids = {c.change_id for c in pending}
            candidates = [
                c for c in pending
                if any(a in pending_ids for a in ancestors[c.change_id])
            ]
            if candidates:
                behind = candidates[seed % len(candidates)].change_id
                choices = [a for a in ancestors[behind] if a in pending_ids]
                ahead = choices[seed % len(choices)]
                ancestors[behind].remove(ahead)
                ancestors[ahead].append(behind)
                if _has_cycle(pending_ids, ancestors):
                    ancestors[ahead].remove(behind)
                    ancestors[behind].append(ahead)
        else:
            budget = 1 + seed % 9

        warm_selection = incremental.select_builds(
            pending, ancestors, records, decided, budget,
            changes_by_id=changes_by_id,
        )
        cold.invalidate_carry_over()
        cold_selection = cold.select_builds(
            pending, ancestors, records, decided, budget,
            changes_by_id=changes_by_id,
        )
        # Frozen-dataclass equality: same keys in the same order, and the
        # floats (value, p_needed, conditional_success) bit-identical.
        assert warm_selection == cold_selection
    return incremental


class TestLazyIncrementalSelection:
    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(step_strategy, min_size=1, max_size=30))
    def test_static_predictor(self, steps):
        _run_script(steps, _static)

    @settings(max_examples=40, deadline=None)
    @given(steps=st.lists(step_strategy, min_size=1, max_size=30))
    def test_learned_predictor(self, steps):
        _run_script(steps, _learned)


def test_reorder_then_bump_reaches_the_moved_descendant():
    """The cone follows ancestor edges that point backwards in the queue."""
    steps = [(ARRIVE, 0, False), (ARRIVE, 1, False), (ARRIVE, 2, False)]
    # Two swaps leave the queue c0, c1, c2 with c0 listing c1 and c1
    # listing c2 as ancestors; c3 then arrives listing c0.  Bumping c2
    # moves P_commit of c1, c0 and c3 in turn, and the cone reaches c0
    # only by looking back past c1.
    steps += [(REORDER, 0, False), (REORDER, 1, False), (ARRIVE, 1, False)]
    _run_script(steps + [(BUDGET, 8, False), (BUMP, 2, True)], _learned)


def test_budget_bounds_enumerator_builds():
    """Changes whose first node is never popped build no enumerator."""
    engine = SpeculationEngine(_static())
    pending = [_mint_change(seed) for seed in range(12)]
    ancestors = {c.change_id: [] for c in pending}
    records = {c.change_id: ChangeRecord(change=c) for c in pending}
    selection = engine.select_builds(pending, ancestors, records, {}, budget=2)
    assert len(selection) == 2
    assert engine.stats.enumerators_rebuilt == 2
    # The next round pops the same two first nodes from carried enumerators.
    records[pending[-1].change_id].speculations_failed += 1
    engine.select_builds(pending, ancestors, records, {}, budget=2)
    assert engine.stats.enumerators_reused == 2
    assert engine.stats.enumerators_rebuilt == 2
