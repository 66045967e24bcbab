"""Random block trees: ancestry laws, markers, endorsement exactness.

A random tree is generated as a parent-index list: block ``i + 1``
attaches to a uniformly chosen earlier block, with strictly increasing
rounds — every reachable fork shape.  The SFT invariants are checked
against brute-force reference implementations.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.endorsement import EndorsementTracker
from repro.core.strong_vote import VotingHistory
from tests.conftest import (
    BruteForceEndorsementOracle,
    ChainBuilder,
    intervals_brute_force,
    marker_brute_force,
)


@st.composite
def tree_shapes(draw, max_blocks=12):
    """A list of parent indices (-1 = genesis) defining a block tree."""
    size = draw(st.integers(2, max_blocks))
    parents = []
    for index in range(size):
        parents.append(draw(st.integers(-1, index - 1)))
    return parents


def build_tree(parents):
    builder = ChainBuilder(f=1)
    blocks = []
    for index, parent_index in enumerate(parents):
        parent = builder.genesis if parent_index < 0 else blocks[parent_index]
        blocks.append(builder.block(parent, round_number=index + 1))
    return builder, blocks


class TestAncestryLaws:
    @given(tree_shapes())
    @settings(max_examples=60)
    def test_ancestor_iff_on_parent_path(self, parents):
        builder, blocks = build_tree(parents)
        paths = {}
        for block in blocks:
            path = {b.id() for b in builder.store.iter_ancestors(block.id())}
            paths[block.id()] = path
        for a in blocks:
            for b in blocks:
                expected = a.id() in paths[b.id()]
                assert builder.store.is_ancestor(a.id(), b.id()) == expected

    @given(tree_shapes())
    @settings(max_examples=60)
    def test_common_ancestor_is_deepest_shared(self, parents):
        builder, blocks = build_tree(parents)
        for a in blocks:
            for b in blocks:
                ancestor = builder.store.common_ancestor(a.id(), b.id())
                path_a = [
                    blk.id() for blk in builder.store.iter_ancestors(a.id())
                ]
                path_b = {
                    blk.id() for blk in builder.store.iter_ancestors(b.id())
                }
                shared = [bid for bid in path_a if bid in path_b]
                assert ancestor.id() == shared[0]  # path is tip-first

    @given(tree_shapes())
    @settings(max_examples=60)
    def test_conflicts_symmetric_and_irreflexive(self, parents):
        builder, blocks = build_tree(parents)
        for a in blocks:
            assert not builder.store.conflicts(a.id(), a.id())
            for b in blocks:
                assert builder.store.conflicts(
                    a.id(), b.id()
                ) == builder.store.conflicts(b.id(), a.id())


@st.composite
def trees_with_votes(draw, max_blocks=10, max_votes=8):
    parents = draw(tree_shapes(max_blocks=max_blocks))
    # Vote targets must have increasing rounds (the DiemBFT voting rule);
    # index order ensures increasing rounds since round = index + 1.
    indices = draw(
        st.lists(
            st.integers(0, len(parents) - 1),
            min_size=1,
            max_size=min(max_votes, len(parents)),
            unique=True,
        ).map(sorted)
    )
    return parents, indices


class TestMarkerAgainstBruteForce:
    @given(trees_with_votes())
    @settings(max_examples=80)
    def test_tips_based_marker_equals_full_history(self, tree_and_votes):
        parents, vote_indices = tree_and_votes
        builder, blocks = build_tree(parents)
        for mode in ("round", "height"):
            history = VotingHistory(builder.store, mode=mode)
            for index in vote_indices:
                block = blocks[index]
                assert history.marker_for(block) == marker_brute_force(
                    history, block
                ), f"mode={mode} at round {block.round}"
                history.record_vote(block)

    @given(trees_with_votes())
    @settings(max_examples=80)
    def test_intervals_equal_brute_force(self, tree_and_votes):
        parents, vote_indices = tree_and_votes
        builder, blocks = build_tree(parents)
        history = VotingHistory(builder.store, mode="round")
        for index in vote_indices:
            block = blocks[index]
            assert history.intervals_for(block) == intervals_brute_force(
                history, block
            )
            history.record_vote(block)

    @given(trees_with_votes())
    @settings(max_examples=80)
    def test_marker_interval_consistency(self, tree_and_votes):
        # I ⊇ [marker+1, r] and marker+? — the marker equals the largest
        # excluded value below r (or 0 if nothing is excluded).
        parents, vote_indices = tree_and_votes
        builder, blocks = build_tree(parents)
        history = VotingHistory(builder.store, mode="round")
        for index in vote_indices:
            block = blocks[index]
            marker = history.marker_for(block)
            intervals = history.intervals_for(block)
            for round_number in range(marker + 1, block.round + 1):
                assert round_number in intervals
            if marker > 0:
                assert marker not in intervals
            history.record_vote(block)


@st.composite
def vote_streams(draw, max_blocks=10, max_votes=14, voters=4):
    parents = draw(tree_shapes(max_blocks=max_blocks))
    count = draw(st.integers(1, max_votes))
    votes = []
    for _ in range(count):
        block_index = draw(st.integers(0, len(parents) - 1))
        voter = draw(st.integers(0, voters - 1))
        marker = draw(st.integers(0, max_blocks + 1))
        votes.append((block_index, voter, marker))
    return parents, votes


class TestEndorsementTrackerExactness:
    @given(vote_streams())
    @settings(max_examples=80)
    def test_round_mode_matches_oracle(self, stream):
        parents, votes = stream
        builder, blocks = build_tree(parents)
        tracker = EndorsementTracker(builder.store, mode="round")
        oracle = BruteForceEndorsementOracle(builder.store, mode="round")
        for block_index, voter, marker in votes:
            vote = builder.vote(blocks[block_index], voter, marker=marker)
            tracker.add_vote(vote)
            oracle.add_vote(vote)
        for block in blocks:
            assert tracker.endorsers(block.id()) == oracle.endorsers(
                block.id()
            ), f"round {block.round}"

    @given(vote_streams())
    @settings(max_examples=60)
    def test_height_mode_matches_oracle_at_every_k(self, stream):
        parents, votes = stream
        builder, blocks = build_tree(parents)
        tracker = EndorsementTracker(builder.store, mode="height")
        oracle = BruteForceEndorsementOracle(builder.store, mode="height")
        for block_index, voter, marker in votes:
            vote = builder.vote(blocks[block_index], voter, marker=marker)
            tracker.add_vote(vote)
            oracle.add_vote(vote)
        max_height = max(block.height for block in blocks)
        for block in blocks:
            for k in range(1, max_height + 2):
                assert tracker.endorsers_at(block.id(), k) == oracle.endorsers(
                    block.id(), k
                ), f"height {block.height} k={k}"

    @given(vote_streams(max_votes=10))
    @settings(max_examples=60)
    def test_interval_votes_match_oracle(self, stream):
        parents, votes = stream
        builder, blocks = build_tree(parents)
        tracker = EndorsementTracker(builder.store, mode="round")
        oracle = BruteForceEndorsementOracle(builder.store, mode="round")
        for block_index, voter, marker in votes:
            block = blocks[block_index]
            # Translate the marker into its interval form [marker+1, r],
            # plus a low probe interval to exercise unions.
            intervals = ((marker + 1, max(block.round, marker + 1)),)
            if marker % 3 == 0:
                intervals = ((1, 1),) + intervals
            vote = builder.vote(block, voter, marker=marker, intervals=intervals)
            tracker.add_vote(vote)
            oracle.add_vote(vote)
        for block in blocks:
            assert tracker.endorsers(block.id()) == oracle.endorsers(
                block.id()
            ), f"round {block.round}"

    @given(vote_streams())
    @settings(max_examples=40)
    def test_endorser_counts_monotone(self, stream):
        parents, votes = stream
        builder, blocks = build_tree(parents)
        tracker = EndorsementTracker(builder.store, mode="round")
        previous = {block.id(): 0 for block in blocks}
        for block_index, voter, marker in votes:
            tracker.add_vote(
                builder.vote(blocks[block_index], voter, marker=marker)
            )
            for block in blocks:
                count = tracker.count(block.id())
                assert count >= previous[block.id()]
                previous[block.id()] = count
