"""Algorithm 1: deterministic target hashes over one snapshot.

A target's hash digests

* its structural declaration (label, source list, step list),
* the *content* of each of its sources (with presence/absence encoded
  distinctly from empty content), and
* the hashes of its direct dependencies — which transitively cover the
  whole dependency closure.

Consequences the rest of the system (and the property tests) rely on:
hashing is pure — same graph + files, same hashes; editing any file in a
target's transitive closure changes its hash; and touching anything
*outside* that closure never does.  Hashes are computed once per target in
dependency-first order and memoized.

Two incremental shortcuts keep analysis cheap at scale (the section-7.1
story: a change touching 3 files pays for its reverse-dependency closure,
not the whole repo):

* :meth:`TargetHasher.hash_of` digests only the requested target's
  dependency (ancestor) chain, never the whole graph;
* a hasher *seeded* with a prior hash map and a dirty set recomputes only
  the dirty targets' reverse-dependency closure — everything outside that
  closure reuses the seed digest verbatim (skyframe-style dirty-set
  invalidation).  :func:`dirty_targets` derives a sound dirty set from the
  touched paths plus structural diffs between two graphs;
* a hasher given a :class:`DigestMemo` looks each digest up by exactly
  its inputs before computing it, so sibling snapshots that share a
  target's sources and dependency digests (speculation prefixes over one
  base) pay for that digest once.
"""

from __future__ import annotations

import hashlib
from itertools import repeat
from typing import Dict, Iterable, Mapping, Optional, Set, Tuple

from repro.buildsys.graph import BuildGraph
from repro.buildsys.target import Target
from repro.types import Path, TargetName

_SEPARATOR = b"\x00"
_MISSING = b"<missing>"


def dirty_targets(
    base_graph: BuildGraph,
    graph: BuildGraph,
    touched_paths: Iterable[Path],
) -> Set[TargetName]:
    """Targets of ``graph`` whose seed hash (from ``base_graph``'s map) is stale.

    A target is dirty when a touched path is one of its sources, or when
    its declaration differs from ``base_graph``'s (new targets included).
    Targets structurally shared between the graphs (the common case after
    :func:`repro.buildsys.loader.reload_packages`) are identity-compared
    first, so the scan costs O(targets) pointer checks plus O(touched).

    Reverse-dependency propagation is *not* included — callers (and the
    seeded :class:`TargetHasher`) expand the closure themselves.
    """
    dirty: Set[TargetName] = set()
    for path in touched_paths:
        dirty.update(graph.targets_owning(path))
    if graph is base_graph:
        return dirty  # no BUILD file touched: no declaration can differ
    for target in graph:
        if target.name in dirty:
            continue
        if target.name not in base_graph:
            dirty.add(target.name)
            continue
        base_target = base_graph.target(target.name)
        if base_target is target:
            continue
        if base_target.definition() != target.definition():
            dirty.add(target.name)
    return dirty


class DigestMemo(Dict[tuple, str]):
    """Algorithm-1 digests keyed by exactly their inputs.

    A key is ``(target, contents, dep_digests)``: the :class:`Target`
    itself (label, sources, deps and steps), the content of each source as
    the snapshot holds it (``None`` when absent), and the digest of each
    dependency, in declaration order.  The digest is a pure function of
    those inputs, so a hit returns the very string a recomputation would
    produce, whichever snapshot asked.  The key holds the objects, never
    their ``id()``, so a recycled address cannot alias a dead entry.

    One memo serves every context derived from one mainline base (see
    :class:`repro.buildsys.executor.BuildContext`); the build controller
    empties it when the base advances.
    """


class TargetHasher:
    """Hashes targets of one graph against one file snapshot.

    Without seeds every digest is computed on demand.  With
    ``seed_hashes``/``dirty``, digests outside the dirty set's
    reverse-dependency closure are taken from the seed map — the caller
    guarantees the seeds were computed on a graph/snapshot pair that
    differs from this one only at the dirty targets (see
    :func:`dirty_targets`).  With ``memo``, every digest still to be
    produced is first looked up in it by its inputs.

    ``computed`` counts digests actually computed (not served from
    ``memo``); ``dirty_closure`` is the set a seeded hasher will recompute
    (empty when unseeded).
    """

    def __init__(
        self,
        graph: BuildGraph,
        files: Mapping[Path, str],
        seed_hashes: Optional[Mapping[TargetName, str]] = None,
        dirty: Optional[Iterable[TargetName]] = None,
        memo: Optional[DigestMemo] = None,
    ) -> None:
        self._graph = graph
        self._files = files
        self._memo: Dict[TargetName, str] = {}
        self._digest_memo = memo
        self.computed = 0
        self.dirty_closure: Set[TargetName] = set()
        if seed_hashes is not None:
            self.dirty_closure = graph.transitive_dependents(
                name for name in (dirty or ()) if name in graph
            )
            self._memo = {
                name: digest
                for name, digest in seed_hashes.items()
                if name in graph and name not in self.dirty_closure
            }

    def _feed(self, hasher, tag: bytes, payload: bytes) -> None:
        hasher.update(tag)
        hasher.update(str(len(payload)).encode("ascii"))
        hasher.update(_SEPARATOR)
        hasher.update(payload)

    def _digest(self, target: Target) -> str:
        contents = tuple(map(self._files.get, target.srcs))
        dep_digests = tuple(
            map(self._memo.get, target.deps, repeat("<unknown>"))
        )
        if self._digest_memo is not None:
            key = (target, contents, dep_digests)
            digest = self._digest_memo.get(key)
            if digest is not None:
                return digest
        hasher = hashlib.sha256()
        self._feed(hasher, b"name", target.name.encode("utf-8"))
        for kind in target.steps:
            self._feed(hasher, b"step", kind.value.encode("utf-8"))
        for src, content in zip(target.srcs, contents):
            self._feed(hasher, b"src", src.encode("utf-8"))
            if content is None:
                self._feed(hasher, b"absent", _MISSING)
            else:
                self._feed(hasher, b"content", content.encode("utf-8"))
        for dep, dep_digest in zip(target.deps, dep_digests):
            self._feed(hasher, b"dep", dep.encode("utf-8"))
            self._feed(hasher, b"dephash", dep_digest.encode("ascii"))
        digest = hasher.hexdigest()
        self.computed += 1
        if self._digest_memo is not None:
            self._digest_memo[key] = digest
        return digest

    def _compute(self, names: Iterable[TargetName]) -> None:
        """Digest ``names`` (skipping memoized ones) dependencies-first.

        A cyclic subgraph fails with DependencyCycleError rather than
        hashing garbage.
        """
        missing = [name for name in names if name not in self._memo]
        if not missing:
            return
        for name in self._graph.induced_order(missing):
            self._memo[name] = self._digest(self._graph.target(name))

    def hash_of(self, name: TargetName) -> str:
        """Algorithm-1 hash of one target (raises for unknown targets).

        Digests only the target's ancestor chain (its transitive deps and
        itself), not the whole graph.
        """
        self._graph.target(name)
        if name not in self._memo:
            chain = self._graph.transitive_deps(name)
            chain.add(name)
            self._compute(chain)
        return self._memo[name]

    def all_hashes(self) -> Dict[TargetName, str]:
        """Name-to-hash for every target in the graph."""
        if len(self._memo) != len(self._graph):
            self._compute(self._graph.names())
        return dict(self._memo)


def incremental_hashes(
    base_graph: BuildGraph,
    base_hashes: Mapping[TargetName, str],
    graph: BuildGraph,
    files: Mapping[Path, str],
    touched_paths: Iterable[Path],
    memo: Optional[DigestMemo] = None,
) -> Tuple[Dict[TargetName, str], Set[TargetName], int]:
    """Rehash ``graph`` reusing ``base_hashes`` where provably unchanged.

    Returns ``(hashes, dirty_closure, computed)``: the full hash map, the
    set of targets that had to be rehashed (dirty seeds plus their
    reverse-dependency closure), and how many of those digests were
    computed; ``memo`` (see :class:`TargetHasher`) served the rest.
    """
    seeds = dirty_targets(base_graph, graph, touched_paths)
    hasher = TargetHasher(
        graph, files, seed_hashes=base_hashes, dirty=seeds, memo=memo
    )
    hashes = hasher.all_hashes()
    return hashes, hasher.dirty_closure, hasher.computed
