"""Seeded property tests: endorsement/strength invariants on random traces.

Random block trees, vote sequences, and marker assignments are drawn
from a seeded ``random.Random`` (deterministic per seed, no external
dependencies) and fed to the core SFT accounting.  The invariants:

* endorser counts never decrease as votes accrue, and never exceed the
  set of voters seen so far;
* the incremental :class:`EndorsementTracker` agrees exactly with the
  :class:`BruteForceEndorsementOracle` reference;
* :meth:`CommitTracker.strength_of` never decreases, never exceeds the
  ``2f`` cap, never exceeds what the voter universe can endorse
  (``strength + f + 1 <= #voters``), and its timelines are dense with
  non-decreasing first-reach times.
"""

import random

import pytest

from repro.core.commit_rules import CommitTracker
from repro.core.endorsement import EndorsementTracker
from repro.core.resilience import max_strength
from tests.conftest import BruteForceEndorsementOracle

SEEDS = (0, 1, 2, 3, 4)


def _grow_tree(builder, rng, steps: int) -> list:
    """A random block tree with strictly increasing rounds and forks."""
    blocks = [builder.genesis]
    next_round = 1
    for _ in range(steps):
        # Bias towards recent blocks so chains grow, but fork freely.
        parent = rng.choice(blocks[-5:])
        block = builder.block(parent, next_round)
        next_round += 1
        blocks.append(block)
    return blocks[1:]


def _random_vote(builder, rng, blocks, n: int):
    block = rng.choice(blocks)
    voter = rng.randrange(n)
    if rng.random() < 0.6:
        marker = 0
    else:
        marker = rng.randrange(0, block.round + 2)
    return builder.vote(block, voter, marker=marker)


class TestEndorsementProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_counts_monotone_and_bounded(self, builder_f2, seed):
        rng = random.Random(f"endorse:{seed}")
        blocks = _grow_tree(builder_f2, rng, steps=12)
        tracker = EndorsementTracker(builder_f2.store, mode="round")
        seen_voters: set = set()
        previous: dict = {}
        for _ in range(80):
            vote = _random_vote(builder_f2, rng, blocks, builder_f2.n)
            tracker.add_vote(vote)
            seen_voters.add(vote.voter)
            for block in blocks:
                count = tracker.count(block.id())
                assert count >= previous.get(block.id(), 0), (
                    "endorser count decreased"
                )
                assert count <= len(seen_voters)
                previous[block.id()] = count

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("mode", ("round", "height"))
    def test_tracker_matches_brute_force(self, builder_f2, seed, mode):
        rng = random.Random(f"oracle:{mode}:{seed}")
        blocks = _grow_tree(builder_f2, rng, steps=12)
        tracker = EndorsementTracker(builder_f2.store, mode=mode)
        oracle = BruteForceEndorsementOracle(builder_f2.store, mode=mode)
        for _ in range(80):
            vote = _random_vote(builder_f2, rng, blocks, builder_f2.n)
            tracker.add_vote(vote)
            oracle.add_vote(vote)
        for block in blocks:
            if mode == "round":
                # endorsers_at is a height-mode query; round-mode walks
                # stop early and do not keep the coverage it needs.
                assert tracker.endorsers(block.id()) == oracle.endorsers(
                    block.id()
                ), f"round-mode mismatch at round {block.round}"
                continue
            for k in (0, 1, block.height, block.height + 2):
                assert tracker.endorsers_at(block.id(), k) == oracle.endorsers(
                    block.id(), k
                ), f"k={k} mismatch at round {block.round}"


def _random_certified_chains(builder, rng, rounds: int):
    """Certified, consecutive-round chains (with forks) plus their QCs.

    Returns the QCs in creation order; markers are random but small so
    both sound and lying voters appear.
    """
    qcs = []
    tips = [builder.genesis]
    next_round = 1
    for _ in range(rounds):
        parent = rng.choice(tips[-3:])
        block = builder.block(parent, next_round)
        voters = rng.sample(range(builder.n), builder.quorum())
        markers = {
            voter: rng.randrange(0, next_round + 1)
            for voter in voters
            if rng.random() < 0.4
        }
        qcs.append(builder.certify(block, voters=voters, markers=markers))
        tips.append(block)
        next_round += 1
    return qcs


class TestStrengthProperties:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_strength_monotone_capped_and_voter_bounded(self, builder_f2, seed):
        rng = random.Random(f"strength:{seed}")
        f = builder_f2.f
        tracker = EndorsementTracker(builder_f2.store, mode="round")
        commits = CommitTracker(
            builder_f2.store, f, rule="diembft", endorsement=tracker
        )
        qcs = _random_certified_chains(builder_f2, rng, rounds=14)
        seen_voters: set = set()
        previous: dict = {}
        now = 0.0
        for qc in qcs:
            now += 1.0
            tracker.add_strong_qc(qc, now)
            commits.on_new_qc(qc, now)
            seen_voters.update(vote.voter for vote in qc.votes)
            for block in builder_f2.store.all_blocks():
                strength = commits.strength_of(block.id())
                assert strength >= previous.get(block.id(), -1), (
                    "strength decreased"
                )
                previous[block.id()] = strength
                assert strength <= max_strength(f)
                if strength >= 0:
                    assert strength >= f, "strong commits start at level f"
                    assert strength + f + 1 <= len(seen_voters), (
                        "strength exceeds what the voter universe can endorse"
                    )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_timelines_dense_with_monotone_times(self, builder_f2, seed):
        rng = random.Random(f"timeline:{seed}")
        f = builder_f2.f
        tracker = EndorsementTracker(builder_f2.store, mode="round")
        commits = CommitTracker(
            builder_f2.store, f, rule="diembft", endorsement=tracker
        )
        now = 0.0
        for qc in _random_certified_chains(builder_f2, rng, rounds=14):
            now += 1.0
            tracker.add_strong_qc(qc, now)
            commits.on_new_qc(qc, now)
        for _block_id, timeline in commits.timelines():
            levels = sorted(timeline.first_reach)
            assert levels == list(range(0, timeline.current + 1))
            times = [timeline.first_reach[level] for level in levels]
            assert times == sorted(times)
