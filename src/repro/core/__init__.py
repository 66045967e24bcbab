"""The paper's primary contribution: Strengthened Fault Tolerance.

This package is protocol-agnostic: it implements markers and
generalized interval votes (Sections 3.2 and 3.4), endorsement
accounting, and the strong commit rules, parameterized by whether
conflicts are measured in *rounds* (SFT-DiemBFT) or *heights*
(SFT-Streamlet, Appendix D).
"""

from repro.core.commit_rules import CommitEvent, CommitTracker, StrongCommitEvent
from repro.core.endorsement import EndorsementTracker
from repro.core.intervals import IntervalSet
from repro.core.resilience import (
    StrengthTimeline,
    level_for_ratio,
    max_strength,
    ratio_grid,
)
from repro.core.strong_vote import VotingHistory

__all__ = [
    "IntervalSet",
    "VotingHistory",
    "EndorsementTracker",
    "CommitTracker",
    "CommitEvent",
    "StrongCommitEvent",
    "StrengthTimeline",
    "level_for_ratio",
    "max_strength",
    "ratio_grid",
]
