"""Unit tests for repro.vcs.repository."""

import pytest

from repro.errors import PatchConflictError, UnknownCommitError, UnknownFileError
from repro.vcs.patch import Patch
from repro.vcs.repository import Repository


@pytest.fixture
def repo():
    return Repository({"a.py": "a0", "b.py": "b0"})


class TestBasics:
    def test_initial_snapshot(self, repo):
        snapshot = repo.snapshot()
        assert snapshot["a.py"] == "a0"
        assert len(snapshot) == 2

    def test_unknown_commit_raises(self, repo):
        with pytest.raises(UnknownCommitError):
            repo.commit("nope")

    def test_contains(self, repo):
        assert repo.head() in repo
        assert "nope" not in repo

    def test_empty_repo(self):
        repo = Repository()
        assert len(repo.snapshot()) == 0
        assert repo.is_green()


class TestCommits:
    def test_commit_to_mainline_advances_head(self, repo):
        old_head = repo.head()
        commit = repo.commit_to_mainline(Patch.modifying({"a.py": "a1"}))
        assert repo.head() == commit.commit_id
        assert commit.parent_id == old_head
        assert repo.snapshot()["a.py"] == "a1"

    def test_history_is_ordered(self, repo):
        first = repo.commit_to_mainline(Patch.modifying({"a.py": "a1"}))
        second = repo.commit_to_mainline(Patch.modifying({"a.py": "a2"}))
        history = repo.mainline_history()
        assert history[-2:] == [first.commit_id, second.commit_id]

    def test_make_commit_does_not_move_head(self, repo):
        head = repo.head()
        side = repo.make_commit(head, Patch.modifying({"a.py": "side"}))
        assert repo.head() == head
        assert repo.snapshot(side.commit_id)["a.py"] == "side"
        assert repo.snapshot()["a.py"] == "a0"

    def test_conflicting_patch_rejected(self, repo):
        patch = Patch.modifying({"missing.py": "x"})
        with pytest.raises(PatchConflictError):
            repo.commit_to_mainline(patch)

    def test_deletion_layers(self, repo):
        repo.commit_to_mainline(Patch.deleting(["b.py"]))
        snapshot = repo.snapshot()
        assert "b.py" not in snapshot
        with pytest.raises(KeyError):
            snapshot["b.py"]
        with pytest.raises(UnknownFileError):
            snapshot.read("b.py")

    def test_layered_lookup_walks_chain(self, repo):
        for i in range(5):
            repo.commit_to_mainline(Patch.modifying({"a.py": f"a{i + 1}"}))
        # b.py was never touched; the lookup must walk back to the root.
        assert repo.snapshot()["b.py"] == "b0"
        assert repo.snapshot()["a.py"] == "a5"

    def test_snapshot_to_dict_flattens(self, repo):
        repo.commit_to_mainline(Patch.adding({"c.py": "c0"}))
        assert repo.snapshot().to_dict() == {
            "a.py": "a0",
            "b.py": "b0",
            "c.py": "c0",
        }


class TestGreenness:
    def test_green_by_default(self, repo):
        repo.commit_to_mainline(Patch.modifying({"a.py": "a1"}))
        assert repo.is_green()
        assert repo.green_fraction() == 1.0

    def test_red_commit_breaks_greenness(self, repo):
        commit = repo.commit_to_mainline(
            Patch.modifying({"a.py": "broken"}), green=False
        )
        assert not repo.is_green()
        assert repo.green_fraction() == 0.5
        assert not repo.commit(commit.commit_id).green

    def test_mark_red(self, repo):
        commit = repo.commit_to_mainline(Patch.modifying({"a.py": "a1"}))
        repo.mark_red(commit.commit_id)
        assert not repo.is_green()


class TestBranches:
    def test_branch_create_and_advance(self, repo):
        branch_point = repo.create_branch("feature")
        assert repo.branch_head("feature") == branch_point
        side = repo.make_commit(branch_point, Patch.modifying({"a.py": "f1"}))
        repo.advance_branch("feature", side.commit_id)
        assert repo.branch_head("feature") == side.commit_id

    def test_duplicate_branch_rejected(self, repo):
        repo.create_branch("feature")
        with pytest.raises(ValueError):
            repo.create_branch("feature")

    def test_cannot_advance_mainline_directly(self, repo):
        commit = repo.make_commit(repo.head(), Patch.modifying({"a.py": "x"}))
        with pytest.raises(ValueError):
            repo.advance_branch(Repository.MAINLINE, commit.commit_id)

    def test_unknown_branch(self, repo):
        with pytest.raises(UnknownCommitError):
            repo.branch_head("nope")


class TestAncestry:
    def test_ancestors_walks_to_root(self, repo):
        root = repo.head()
        first = repo.commit_to_mainline(Patch.modifying({"a.py": "a1"}))
        chain = list(repo.ancestors(first.commit_id))
        assert chain == [first.commit_id, root]

    def test_distance_to_mainline_measures_staleness(self, repo):
        base = repo.head()
        for i in range(3):
            repo.commit_to_mainline(Patch.modifying({"a.py": f"a{i}"}))
        assert repo.distance_to_mainline(base) == 3
        assert repo.distance_to_mainline(repo.head()) == 0

    def test_distance_for_non_mainline_commit_raises(self, repo):
        side = repo.make_commit(repo.head(), Patch.modifying({"a.py": "s"}))
        with pytest.raises(UnknownCommitError):
            repo.distance_to_mainline(side.commit_id)


def _walk(repo, commit_id, path):
    """Reference lookup: walk the commit chain newest-first."""
    for cid in repo.ancestors(commit_id):
        delta = repo.commit(cid).delta
        if path in delta:
            if delta[path] is None:
                raise KeyError(path)
            return delta[path]
    raise KeyError(path)


class TestHeadFiles:
    """The flat HEAD map must answer exactly what the chain walk answers."""

    COMMITS = 2100

    @pytest.fixture
    def long_mainline(self):
        import random

        rng = random.Random(7)
        repo = Repository({f"f{i}.py": f"v0-{i}" for i in range(40)})
        model = dict(repo.snapshot().to_dict())
        checkpoints = {repo.head(): dict(model)}
        held = {repo.head(): repo.snapshot()}
        for step in range(self.COMMITS):
            path = f"f{rng.randrange(60)}.py"
            if path in model and rng.random() < 0.3:
                patch = Patch.deleting([path])
                del model[path]
            elif path in model:
                patch = Patch.modifying({path: f"v{step}"}, base=model)
                model[path] = f"v{step}"
            else:
                patch = Patch.adding({path: f"v{step}"})
                model[path] = f"v{step}"
            repo.commit_to_mainline(patch)
            if step % 300 == 0:
                checkpoints[repo.head()] = dict(model)
                held[repo.head()] = repo.snapshot()
        return repo, model, checkpoints, held

    def test_head_lookups_equal_chain_walk(self, long_mainline):
        repo, model, _, _ = long_mainline
        assert repo.mainline_length() > 2000
        head = repo.snapshot()
        for path in [f"f{i}.py" for i in range(60)] + ["never.py"]:
            try:
                expected = _walk(repo, head.commit_id, path)
            except KeyError:
                assert path not in model
                assert path not in head
                with pytest.raises(KeyError):
                    head[path]
                continue
            assert head[path] == expected == model[path]
        assert head.to_dict() == model

    def test_head_lookup_is_one_hop(self, long_mainline, monkeypatch):
        repo, model, _, _ = long_mainline
        head = repo.snapshot()
        walked = []
        original = repo.commit
        monkeypatch.setattr(
            repo, "commit", lambda cid: walked.append(cid) or original(cid)
        )
        for path in model:
            assert head[path] == model[path]
        assert walked == []

    def test_older_snapshots_keep_their_versions(self, long_mainline):
        repo, _, checkpoints, held = long_mainline
        for commit_id, expected in checkpoints.items():
            for snapshot in (repo.snapshot(commit_id), held[commit_id]):
                assert snapshot.to_dict() == expected
                for path in [f"f{i}.py" for i in range(60)]:
                    assert snapshot.get(path) == expected.get(path)

    def test_side_commit_off_head_sees_its_own_delta(self, long_mainline):
        repo, model, _, _ = long_mainline
        path = sorted(model)[0]
        side = repo.make_commit(repo.head(), Patch.deleting([path]))
        side_view = repo.snapshot(side.commit_id)
        with pytest.raises(KeyError):
            side_view[path]
        assert repo.snapshot()[path] == model[path]
