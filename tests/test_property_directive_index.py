"""Property test: indexed step evaluation ≡ the full-closure rescan.

:class:`~repro.buildsys.steps.DirectiveIndex` answers every step from
per-target slots rebuilt only where a target digest moved.  The reference
below is the plain rescan the index replaced: FAIL directives over the
target's own sources, CONFLICT tokens over the sources of the target and
of every transitive dependency, read afresh from the snapshot.  On random
DAGs (diamonds, files owned by two targets, absent files, FAIL and
CONFLICT directives) and along derivation chains of content and BUILD
edits that reuse one index, the two must agree on every target and step
kind, log text included — through ``evaluate_step``, the executor and the
process worker.
"""

import itertools
from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buildsys.executor import BuildContext, BuildExecutor
from repro.buildsys.loader import load_build_graph, render_build_file
from repro.buildsys.steps import (
    CONFLICT_SENSITIVE_STEPS,
    DirectiveIndex,
    StepResult,
    StepSpec,
    evaluate_step,
    scan_directives,
)
from repro.buildsys.target import Target
from repro.obs.recorder import Recorder
from repro.parallel.backend import ProcessBuildBackend
from repro.parallel.payload import BuildRequest
from repro.parallel.worker import execute_request
from repro.planner.controller import FullStackBuildController
from repro.speculation.tree import BuildKey
from repro.types import StepKind
from repro.vcs.patch import FileOp, OpKind, Patch
from repro.workload.repo_synth import MonorepoSpec, SyntheticMonorepo


def reference_evaluate(graph, target, kind, snapshot) -> StepResult:
    """The full-closure rescan: every closure source read and scanned anew."""
    spec = StepSpec(target.name, kind)
    fails, _ = scan_directives(snapshot.get(path, "") for path in target.srcs)
    if fails.get(kind.value):
        return StepResult(
            spec,
            passed=False,
            log=f"{target.name} {kind.value}: FAIL:{kind.value} directive present",
        )
    if kind in CONFLICT_SENSITIVE_STEPS:
        closure_paths = list(target.srcs)
        for dep in sorted(graph.transitive_deps(target.name)):
            closure_paths.extend(graph.target(dep).srcs)
        _, conflicts = scan_directives(
            snapshot.get(path, "") for path in closure_paths
        )
        colliding = sorted(token for token, count in conflicts.items() if count >= 2)
        if colliding:
            return StepResult(
                spec,
                passed=False,
                log=(
                    f"{target.name} {kind.value}: conflicting tokens "
                    + ", ".join(colliding)
                ),
            )
    return StepResult(spec, passed=True, log=f"{target.name} {kind.value}: ok")


# -- a tiny monorepo model: declarations + file contents ---------------------

PACKAGES = ("p", "q")
FILES = ("a.py", "b.py", "c.py")
LINES = (
    "# FAIL:unit_test\n",
    "# FAIL:compile\n",
    "# CONFLICT:x\n",
    "# CONFLICT:y\n",
    "#CONFLICT:x # trailing\n",
    "value = 1\n",
)
STEP_SETS = (
    (StepKind.COMPILE, StepKind.UNIT_TEST),
    (StepKind.COMPILE, StepKind.UNIT_TEST, StepKind.INTEGRATION_TEST),
    (StepKind.UNIT_TEST, StepKind.UI_TEST, StepKind.ARTIFACT),
)

#: One declaration: (package, own file names, dep indices, steps).
Decl = Tuple[str, Tuple[str, ...], Tuple[int, ...], Tuple[StepKind, ...]]


def _label(decls: List[Decl], index: int) -> str:
    return f"//{decls[index][0]}:t{index}"


def render(decls: List[Decl], contents: Dict[str, Optional[str]]) -> Dict[str, str]:
    """The snapshot: one BUILD file per package plus every present source."""
    snapshot: Dict[str, str] = {}
    for package in PACKAGES:
        targets = [
            Target(
                _label(decls, index),
                srcs=tuple(f"{package}/{name}" for name in srcs),
                deps=tuple(_label(decls, dep) for dep in deps),
                steps=steps,
            )
            for index, (owner, srcs, deps, steps) in enumerate(decls)
            if owner == package
        ]
        if targets:
            snapshot[f"{package}/BUILD"] = render_build_file(targets)
    for path, content in contents.items():
        if content is not None:
            snapshot[path] = content
    return snapshot


def patch_between(before: Dict[str, str], after: Dict[str, str]) -> Patch:
    """The add/modify/delete patch turning ``before`` into ``after``."""
    ops = []
    for path in sorted(set(before) | set(after)):
        old, new = before.get(path), after.get(path)
        if old == new:
            continue
        if new is None:
            ops.append(FileOp(OpKind.DELETE, path))
        elif old is None:
            ops.append(FileOp(OpKind.ADD, path, new))
        else:
            ops.append(FileOp(OpKind.MODIFY, path, new, base_content=old))
    return Patch(ops)


contents_st = st.one_of(
    st.none(), st.lists(st.sampled_from(LINES), max_size=3).map("".join)
)


@st.composite
def decl_for(draw, index: int) -> Decl:
    package = draw(st.sampled_from(PACKAGES))
    srcs = tuple(
        sorted(draw(st.lists(st.sampled_from(FILES), max_size=3, unique=True)))
    )
    deps: Tuple[int, ...] = ()
    if index:
        deps = tuple(
            sorted(
                draw(
                    st.lists(
                        st.integers(0, index - 1), max_size=3, unique=True
                    )
                )
            )
        )
    return package, srcs, deps, draw(st.sampled_from(STEP_SETS))


@st.composite
def chains(draw):
    """A random DAG, its contents, and a chain of content/BUILD edits."""
    count = draw(st.integers(2, 7))
    decls = [draw(decl_for(index)) for index in range(count)]
    paths = [f"{package}/{name}" for package in PACKAGES for name in FILES]
    contents = {path: draw(contents_st) for path in paths}
    edits = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            edits.append(("content", draw(st.sampled_from(paths)), draw(contents_st)))
        else:
            index = draw(st.integers(0, count - 1))
            edits.append(("build", index, draw(decl_for(index))))
    return decls, contents, edits


def snapshots_of(decls, contents, edits) -> List[Dict[str, str]]:
    """The root snapshot followed by one snapshot per edit."""
    decls, contents = list(decls), dict(contents)
    snapshots = [render(decls, contents)]
    for edit in edits:
        if edit[0] == "content":
            contents[edit[1]] = edit[2]
        else:
            decls[edit[1]] = edit[2]
        snapshots.append(render(decls, contents))
    return snapshots


def _key(result: StepResult) -> tuple:
    return (result.spec, result.passed, result.log, result.cached)


def assert_index_matches_reference(
    context: BuildContext, index: DirectiveIndex
) -> None:
    graph, snapshot = context.graph, context.snapshot
    digest_of = context.hashes.__getitem__
    for target in graph:
        for kind in StepKind:
            expected = _key(reference_evaluate(graph, target, kind, snapshot))
            indexed = evaluate_step(graph, target, kind, snapshot, index, digest_of)
            assert _key(indexed) == expected
            assert _key(evaluate_step(graph, target, kind, snapshot)) == expected


_base_ids = itertools.count()


@given(chain=chains())
@settings(max_examples=80, deadline=None)
def test_indexed_evaluation_matches_full_rescan(chain):
    decls, contents, edits = chain
    snapshots = snapshots_of(decls, contents, edits)
    index = DirectiveIndex()
    executor = BuildExecutor()
    root = context = BuildContext.load(snapshots[0])
    assert_index_matches_reference(context, index)
    patches = []
    for before, after in zip(snapshots, snapshots[1:]):
        patch = patch_between(before, after)
        patches.append(patch)
        previous = context
        context = context.derive(patch.apply(context.snapshot), patch.paths)
        assert dict(context.snapshot) == after
        assert_index_matches_reference(context, index)
        # The executor's own index, carried along the chain: every step it
        # evaluates (a cache miss) must equal the reference.
        report = executor.build_between(previous, context)
        for result in report.results:
            if not result.cached:
                target = context.graph.target(result.spec.target)
                expected = reference_evaluate(
                    context.graph, target, result.spec.kind, context.snapshot
                )
                assert _key(result) == _key(expected)

    # The worker folds the same chain as assumed patches onto the root and
    # evaluates through its module-level index.
    request = BuildRequest(
        build_id=0,
        change_id=f"C{len(patches)}",
        base_commit_id=f"directive-base-{next(_base_ids)}",
        base_snapshot=snapshots[0],
        assumed=tuple((f"C{position}", p) for position, p in enumerate(patches[:-1])),
        patch=patches[-1],
    )
    response = execute_request(request)
    assert response.error is None and response.merge_conflict is None
    final = load_build_graph(snapshots[-1])
    expected_order = context.affected_against(root)
    assert list(response.targets) == expected_order[: len(response.targets)]
    for step in response.steps:
        expected = reference_evaluate(
            final, final.target(step.target), step.kind, snapshots[-1]
        )
        assert (step.passed, step.log) == (expected.passed, expected.log)
        assert step.digest == context.hashes[step.target]


def _diamond(tokens: Dict[str, str]) -> Dict[str, str]:
    """t0 <- t1, t2 <- t3, with t1 and t2 both owning ``p/shared.py``."""
    decl = [
        ("t0", ["base.py"], []),
        ("t1", ["shared.py", "left.py"], ["//p:t0"]),
        ("t2", ["shared.py"], ["//p:t0"]),
        ("t3", ["top.py"], ["//p:t1", "//p:t2"]),
    ]
    build = render_build_file(
        [
            Target(
                f"//p:{name}",
                srcs=tuple(f"p/{src}" for src in srcs),
                deps=tuple(deps),
                steps=(StepKind.COMPILE, StepKind.UNIT_TEST),
            )
            for name, srcs, deps in decl
        ]
    )
    snapshot = {"p/BUILD": build}
    for src in ("base.py", "shared.py", "left.py", "top.py"):
        snapshot[f"p/{src}"] = tokens.get(src, "value = 1\n")
    return snapshot


def test_file_owned_by_two_closure_targets_counts_twice():
    """One token in a file two closure targets own collides at the top."""
    snapshot = _diamond({"shared.py": "# CONFLICT:x\n"})
    graph = load_build_graph(snapshot)
    index = DirectiveIndex()
    for name, collides in (("//p:t1", False), ("//p:t2", False), ("//p:t3", True)):
        target = graph.target(name)
        result = evaluate_step(graph, target, StepKind.UNIT_TEST, snapshot, index)
        assert _key(result) == _key(
            reference_evaluate(graph, target, StepKind.UNIT_TEST, snapshot)
        )
        assert result.passed is not collides
    assert "conflicting tokens x" in evaluate_step(
        graph, graph.target("//p:t3"), StepKind.UNIT_TEST, snapshot, index
    ).log


def test_diamond_dependency_counts_once():
    """A token below a diamond reaches the top through two paths, once."""
    snapshot = _diamond({"base.py": "# CONFLICT:x\n"})
    graph = load_build_graph(snapshot)
    top = graph.target("//p:t3")
    assert evaluate_step(graph, top, StepKind.UNIT_TEST, snapshot).passed
    snapshot["p/top.py"] = "# CONFLICT:x\n"
    assert not evaluate_step(graph, top, StepKind.UNIT_TEST, snapshot).passed


def test_slots_are_reused_until_a_digest_moves():
    """An unchanged closure is served from its slots; an edit rebuilds only
    the edited target and its dependents."""
    snapshot = _diamond({"left.py": "# FAIL:unit_test\n"})
    context = BuildContext.load(snapshot)
    index = DirectiveIndex()
    digest_of = context.hashes.__getitem__
    for name in ("//p:t0", "//p:t1", "//p:t2", "//p:t3"):
        index.slot(context.graph, context.snapshot, name, digest_of)
    # Each rebuild read its dependencies' current slots: t1, t2 read t0;
    # t3 read t1 and t2.
    assert (index.reused, index.rebuilt) == (4, 4)
    index.slot(context.graph, context.snapshot, "//p:t3", digest_of)
    assert (index.reused, index.rebuilt) == (5, 4)
    patch = Patch.modifying({"p/left.py": "# CONFLICT:x\n"})
    edited = context.derive(patch.apply(context.snapshot), patch.paths)
    slot = index.slot(
        edited.graph, edited.snapshot, "//p:t3", edited.hashes.__getitem__
    )
    # t1 and t3 moved and were rebuilt; t2 and t0 were read as they stood.
    assert (index.reused, index.rebuilt) == (7, 6)
    assert slot.marks == {"//p:t1": {"x": 1}}
    assert len(index) == 4


def test_slot_counters_reach_stats_and_metrics():
    """Inline builds publish their slot counts to the controller's stats
    and to the recorder's Prometheus text."""
    synth = SyntheticMonorepo(MonorepoSpec(layers=(2, 3, 2), fan_in=2), seed=3)
    recorder = Recorder()
    controller = FullStackBuildController(synth.repo, recorder=recorder)
    change = synth.make_clean_change(synth.target_names(0)[0])
    changes = {change.change_id: change}
    controller.execute(BuildKey(change.change_id), changes)
    stats = controller.stats
    assert stats.directive_slots_rebuilt > 0 and stats.directive_slots_reused > 0
    registry = recorder.registry
    assert (
        registry.counter("executor_directive_slots_reused_total").value
        == stats.directive_slots_reused
    )
    assert (
        registry.counter("executor_directive_slots_rebuilt_total").value
        == stats.directive_slots_rebuilt
    )
    text = recorder.prometheus_text()
    assert "# TYPE executor_directive_slots_reused_total counter" in text
    assert "# TYPE executor_directive_slots_rebuilt_total counter" in text


def test_mainline_advance_trims_speculative_target_slots():
    """Slots of a target only a speculative graph declared (a BUILD-adding
    change that never landed) are dropped when the mainline advances."""
    synth = SyntheticMonorepo(MonorepoSpec(layers=(2, 3, 2), fan_in=2), seed=3)
    controller = FullStackBuildController(synth.repo)
    structural = synth.make_structural_change()
    clean = synth.make_clean_change(synth.target_names(0)[0])
    changes = {change.change_id: change for change in (structural, clean)}
    controller.execute(BuildKey(structural.change_id), changes)
    index = controller.executor.directives
    speculative = load_build_graph(structural.patch.apply(synth.repo.snapshot()))
    (added,) = set(speculative.names()) - set(synth.graph.names())
    assert added in index
    controller.execute(BuildKey(clean.change_id), changes)
    controller.on_commit(clean, changes)
    assert added not in index
    assert len(index) <= len(synth.graph)


def test_process_pool_workers_match_reference():
    """A real two-process pool evaluates a conflicting stack through the
    worker-side index exactly as the reference does."""
    snapshot = _diamond({})
    first = Patch.modifying({"p/left.py": "# CONFLICT:x\n"})
    second = Patch.modifying({"p/top.py": "# CONFLICT:x\n"})
    third = Patch.modifying({"p/base.py": "# FAIL:compile\n"})
    stacks = [
        ((), first),
        ((), second),
        ((("A", first),), second),
        ((("A", first), ("B", second)), third),
    ]
    requests = [
        BuildRequest(
            build_id=position,
            change_id=f"S{position}",
            base_commit_id="directive-pool-base",
            base_snapshot=snapshot,
            assumed=assumed,
            patch=patch,
        )
        for position, (assumed, patch) in enumerate(stacks)
    ]
    with ProcessBuildBackend(2) as backend:
        responses = backend.run_batch(requests)
    assert len(responses) == len(requests)
    failures = []
    for (assumed, patch), response in zip(stacks, responses):
        assert response.error is None and response.merge_conflict is None
        merged = dict(snapshot)
        for _, other in assumed:
            merged = other.apply(merged).to_dict()
        merged = patch.apply(merged).to_dict()
        graph = load_build_graph(merged)
        for step in response.steps:
            expected = reference_evaluate(
                graph, graph.target(step.target), step.kind, merged
            )
            assert (step.passed, step.log) == (expected.passed, expected.log)
            if not step.passed:
                failures.append(step.log)
    assert failures == [
        "//p:t3 unit_test: conflicting tokens x",
        "//p:t0 compile: FAIL:compile directive present",
    ]
