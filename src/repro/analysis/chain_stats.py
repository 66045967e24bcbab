"""Chain-level statistics: forks, round utilization, QC diversity.

These are the quantities the paper's Section 4 narrative reasons
about — how often rounds are wasted, how diverse consecutive
strong-QCs are, and how deep forks get under Byzantine leaders.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class ChainStats:
    """Summary of one replica's view of the chain."""

    blocks_total: int
    blocks_committed: int
    max_round: int
    committed_rounds: int
    skipped_rounds: int
    fork_blocks: int
    max_fork_depth: int
    mean_qc_size: float
    qc_diversity: float


def collect_chain_stats(replica) -> ChainStats:
    """Compute :class:`ChainStats` from a replica's store and commits."""
    store = replica.store
    tracker = replica.commit_tracker

    committed_ids = set(tracker.committed)
    committed_rounds = {
        event.round for event in tracker.commit_order if event.round > 0
    }
    max_round = max(committed_rounds, default=0)

    # Fork accounting: blocks that are not ancestors of the latest
    # committed block.
    fork_blocks = 0
    max_fork_depth = 0
    if tracker.commit_order:
        tip_id = tracker.commit_order[-1].block_id
        for block in store.all_blocks():
            block_id = block.id()
            if block_id in committed_ids:
                continue
            if store.is_ancestor(block_id, tip_id) or store.is_ancestor(
                tip_id, block_id
            ):
                continue  # main branch: committed prefix or fresh tip
            fork_blocks += 1
            # Depth of this fork branch above the common ancestor.
            ancestor = store.common_ancestor(block_id, tip_id)
            max_fork_depth = max(max_fork_depth, block.height - ancestor.height)

    # QC sizes and diversity over the committed chain.
    sizes = []
    voter_sets = []
    for event in tracker.commit_order:
        qc = store.qc_for(event.block_id)
        if qc is not None and qc.votes:
            sizes.append(len(qc.voters()))
            voter_sets.append(qc.voters())
    mean_qc_size = sum(sizes) / len(sizes) if sizes else 0.0
    diversity = _mean_pairwise_difference(voter_sets)

    return ChainStats(
        blocks_total=len(store) - 1,  # exclude genesis
        blocks_committed=len(
            [event for event in tracker.commit_order if event.round > 0]
        ),
        max_round=max_round,
        committed_rounds=len(committed_rounds),
        skipped_rounds=max_round - len(committed_rounds),
        fork_blocks=fork_blocks,
        max_fork_depth=max_fork_depth,
        mean_qc_size=mean_qc_size,
        qc_diversity=diversity,
    )


def _mean_pairwise_difference(voter_sets) -> float:
    """Mean symmetric-difference fraction between consecutive QCs.

    0 means every QC has identical membership (no diversity — strong
    commits crawl); 1 means consecutive QCs are disjoint.
    """
    if len(voter_sets) < 2:
        return 0.0
    total = 0.0
    pairs = 0
    for current, following in zip(voter_sets, voter_sets[1:]):
        union = len(current | following)
        if union == 0:
            continue
        total += len(current ^ following) / union
        pairs += 1
    return total / pairs if pairs else 0.0
