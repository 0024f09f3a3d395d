"""Per-epoch reuse below the speculation engine: overlays and digests.

* A :class:`SnapshotOverlay` built over another overlay collapses into one
  layer; it must behave exactly like the nested chain it replaces.
* Every :class:`BuildContext` derived over a speculation prefix tree shares
  its root's digest memo, yet its hashes equal a from-scratch
  :class:`TargetHasher` over its own snapshot.
* The memo dies with its base context, and the controller reports the
  digests it computed and the digests the memo served.
"""

import gc
import weakref
from typing import Dict, Iterator, Mapping, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.buildsys.executor import BuildContext
from repro.buildsys.hashing import DigestMemo, TargetHasher
from repro.buildsys.loader import load_build_graph
from repro.changes.change import Change, Developer
from repro.errors import PatchConflictError
from repro.obs.recorder import Recorder
from repro.planner.controller import FullStackBuildController
from repro.types import BuildKey
from repro.vcs.patch import FileOp, OpKind, Patch, SnapshotOverlay

from .conftest import TINY_FILES

DEV = Developer("reuse-dev")
PATHS = [f"p{i}.txt" for i in range(8)]


class NestedOverlay(Mapping):
    """The reference: one uncollapsed layer per delta, lookups walk the chain."""

    def __init__(self, base: Mapping, delta: Dict[str, Optional[str]]) -> None:
        self._base = base
        self._delta = dict(delta)

    def __getitem__(self, path):
        if path in self._delta:
            content = self._delta[path]
            if content is None:
                raise KeyError(path)
            return content
        return self._base[path]

    def __iter__(self) -> Iterator[str]:
        yield from (p for p in self._base if p not in self._delta)
        yield from (p for p, c in self._delta.items() if c is not None)

    def __len__(self) -> int:
        return sum(1 for _ in self)


#: One layer: per path, (op code, content seed); op codes 0 add/modify,
#: 1 delete, 2 leave alone.  Invalid ops for the current state are skipped.
layer_strategy = st.lists(
    st.tuples(st.sampled_from(PATHS), st.integers(0, 2), st.integers(0, 3)),
    max_size=5,
    unique_by=lambda item: item[0],
)


def _patch_for(layer, current: Mapping) -> Patch:
    ops = []
    for path, code, seed in layer:
        present = path in current
        if code == 0:
            content = f"{path} v{seed}\n"
            if present:
                ops.append(FileOp(OpKind.MODIFY, path, content, current[path]))
            else:
                ops.append(FileOp(OpKind.ADD, path, content))
        elif code == 1 and present:
            ops.append(FileOp(OpKind.DELETE, path))
    return Patch(ops)


class TestCollapsedOverlay:
    @settings(max_examples=80, deadline=None)
    @given(
        base_keys=st.lists(st.sampled_from(PATHS), unique=True),
        layers=st.lists(layer_strategy, min_size=1, max_size=7),
    )
    def test_matches_nested_chain(self, base_keys, layers):
        base = {path: f"{path} base\n" for path in base_keys}
        collapsed: Mapping = base
        nested: Mapping = base
        for layer in layers:
            patch = _patch_for(layer, nested)
            collapsed = patch.apply(collapsed)
            nested = NestedOverlay(nested, patch.delta())
        assert isinstance(collapsed, SnapshotOverlay)
        assert collapsed._base is base  # one hop to the base, never a chain
        assert list(collapsed) == list(nested)
        assert len(collapsed) == len(nested)
        expected = dict(nested.items())
        assert collapsed == expected
        assert not collapsed != expected
        for path in PATHS:
            assert (path in collapsed) == (path in nested)
            assert collapsed.get(path) == nested.get(path)
            assert collapsed.get(path, "dflt") == nested.get(path, "dflt")
            if path in nested:
                assert collapsed[path] == nested[path]
            else:
                with pytest.raises(KeyError):
                    collapsed[path]
        assert collapsed.to_dict() == expected

    def test_delete_then_readd_resolves_in_one_layer(self):
        base = {"a": "1", "b": "2"}
        gone = SnapshotOverlay(base, {"a": None})
        back = SnapshotOverlay(gone, {"a": "3", "c": "4"})
        assert back._base is base
        assert list(back) == ["b", "a", "c"]
        assert back["a"] == "3"
        with pytest.raises(KeyError):
            gone["a"]
        assert "a" not in gone and len(gone) == 1


def _source_patch(base, path, suffix):
    return Patch.modifying({path: base[path] + suffix}, base=base)


def _patch_pool(base):
    """Content edits plus BUILD rewrites (steps change, new source, new package)."""
    pool = [
        _source_patch(base, path, suffix)
        for path in ("base/base.py", "lib/lib.py", "app/app.py", "tool/tool.py")
        for suffix in ("# one\n", "# two\n")
    ]
    pool.append(
        Patch.modifying(
            {
                "app/BUILD": "target(name = 'app', srcs = ['app.py'],"
                " deps = ['//lib:lib'], steps = ['compile'])\n"
            },
            base=base,
        )
    )
    pool.append(
        Patch(
            [
                *Patch.modifying(
                    {
                        "tool/BUILD": "target(name = 'tool', srcs = ['tool.py',"
                        " 'extra.py'], deps = [])\n"
                    },
                    base=base,
                ),
                *Patch.adding({"tool/extra.py": "EXTRA = 5\n"}),
            ]
        )
    )
    pool.append(
        Patch.adding(
            {
                "newpkg/BUILD": "target(name = 'new', srcs = ['new.py'],"
                " deps = ['//base:base'])\n",
                "newpkg/new.py": "NEW = 1\n",
            }
        )
    )
    return pool


class TestSharedDigestMemo:
    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(st.integers(0, 63), st.integers(0, 10)),
            min_size=1,
            max_size=12,
        )
    )
    def test_derived_hashes_match_from_scratch(self, steps):
        base = dict(TINY_FILES)
        pool = _patch_pool(base)
        root = BuildContext.load(base)
        contexts = [root]
        for parent_pick, patch_pick in steps:
            parent = contexts[parent_pick % len(contexts)]
            patch = pool[patch_pick % len(pool)]
            try:
                child = parent.derive(patch.apply(parent.snapshot), patch.paths)
            except PatchConflictError:
                continue
            assert child.digest_memo is root.digest_memo
            scratch = TargetHasher(
                load_build_graph(child.snapshot), child.snapshot
            ).all_hashes()
            assert child.hashes == scratch
            contexts.append(child)

    def test_sibling_prefixes_share_digests(self):
        base = dict(TINY_FILES)
        root = BuildContext.load(base)
        tool = _source_patch(base, "tool/tool.py", "# t\n")
        app = _source_patch(base, "app/app.py", "# a\n")
        # Two prefixes that differ only in the tool package.
        left = root.derive(tool.apply(base), tool.paths)
        right = root
        left_app = left.derive(app.apply(left.snapshot), app.paths)
        right_app = right.derive(app.apply(right.snapshot), app.paths)
        assert (left_app.rehashed, left_app.digests_served) == (1, 0)
        # //app:app has the same sources and dependency digests over both
        # prefixes, so the second derivation takes it from the memo.
        assert (right_app.rehashed, right_app.digests_served) == (0, 1)
        assert left_app.hashes["//app:app"] == right_app.hashes["//app:app"]

    def test_new_root_starts_an_empty_memo(self):
        root = BuildContext.load(dict(TINY_FILES))
        patch = _source_patch(dict(TINY_FILES), "lib/lib.py", "# l\n")
        child = root.derive(patch.apply(root.snapshot), patch.paths)
        assert len(root.digest_memo) > 0
        advanced = child.as_root()
        assert isinstance(advanced.digest_memo, DigestMemo)
        assert advanced.digest_memo is not root.digest_memo
        assert len(advanced.digest_memo) == 0


def _change(change_id, patch):
    return Change(change_id=change_id, revision_id="R1", developer=DEV, patch=patch)


class TestMemoLifetimeAndCounters:
    def test_memo_released_when_base_context_evicted(self, monorepo):
        controller = FullStackBuildController(monorepo.repo)
        first = monorepo.make_clean_change()
        changes = {first.change_id: first}
        controller.execute(BuildKey(first.change_id), changes)
        memo = weakref.ref(controller._base_context().digest_memo)
        assert len(memo()) > 0
        controller.on_commit(first, changes)
        gc.collect()
        assert memo() is not None  # the old base is still memoized...
        assert len(memo()) == 0  # ...but its digests died with the advance
        for _ in range(FullStackBuildController.BASE_CONTEXT_CAPACITY):
            change = monorepo.make_clean_change()
            changes[change.change_id] = change
            controller.execute(BuildKey(change.change_id), changes)
            controller.on_commit(change, changes)
        gc.collect()
        assert memo() is None

    def test_counters_reach_stats_and_metrics(self, monorepo):
        recorder = Recorder()
        controller = FullStackBuildController(monorepo.repo, recorder=recorder)
        chain = [
            monorepo.make_clean_change(target)
            for target in monorepo.target_names(0)[:3]
        ]
        changes = {change.change_id: change for change in chain}
        # The same change built over two different prefixes re-derives its
        # dirty closure; the second derivation is served from the memo.
        controller.execute(BuildKey(chain[2].change_id), changes)
        controller.execute(
            BuildKey(chain[2].change_id, frozenset({chain[0].change_id})),
            changes,
        )
        controller.execute(
            BuildKey(chain[2].change_id, frozenset({chain[1].change_id})),
            changes,
        )
        stats = controller.stats
        assert stats.targets_rehashed > 0
        assert stats.digests_served > 0
        registry = recorder.registry
        assert (
            registry.counter("executor_digests_computed_total").value
            == stats.targets_rehashed
        )
        assert (
            registry.counter("executor_digests_served_total").value
            == stats.digests_served
        )
        text = recorder.prometheus_text()
        assert "# TYPE executor_digests_served_total counter" in text
        assert "# TYPE executor_digests_computed_total counter" in text


def test_overlay_collapse_keeps_repository_reads(tiny_repo):
    """Stacked patches applied to a repository snapshot read back intact."""
    snapshot = tiny_repo.snapshot()
    edits = [
        _source_patch(dict(TINY_FILES), "lib/lib.py", "# a\n"),
        Patch.adding({"extra/x.py": "X\n"}),
        Patch.deleting(["tool/tool.py"]),
    ]
    view = snapshot
    for patch in edits:
        view = patch.apply(view)
    assert view._base is snapshot
    assert view["lib/lib.py"].endswith("# a\n")
    assert "tool/tool.py" not in view
    assert view["extra/x.py"] == "X\n"
