"""Global safety/liveness invariant oracle over finished runs.

The fuzzer (:mod:`repro.fuzz`) throws randomized adversarial schedules
at the protocols; this module is the judge.  Given a finished cluster
it checks the full trace against the paper's guarantees:

* **Definition 1** — under ``t`` actual Byzantine faults, no two
  conflicting blocks are both ``x``-strong committed for any
  ``x >= t`` (Appendix C is exactly a violation of this under naive
  vote counting);
* **prefix consistency** — every honest replica's committed sequence
  is a single chain, and any two honest replicas agree on the block at
  every height they have both committed (BFT SMR safety, Section 2);
* **strength monotonicity** — per :class:`~repro.core.resilience.StrengthTimeline`,
  strength levels are dense, first-reach times never decrease with
  level, and no block exceeds the ``2f`` cap;
* **post-GST liveness** — once the network stabilizes (after GST and
  after every partition heals), commits resume within a bounded number
  of rounds, provided the fault mix leaves liveness intact.

Violations found under deliberately *naive* endorsement accounting
(``naive_accounting = True`` — the flawed scheme Appendix C refutes)
are marked ``expected``: the fuzzer reporting them is the machine
working, not the protocol failing.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.resilience import max_strength

#: Names of every invariant this oracle knows how to check.
INVARIANTS = (
    "definition-1",
    "prefix-consistency",
    "strength-monotonicity",
    "double-vote",
    "post-gst-liveness",
)


@dataclass(frozen=True, slots=True)
class InvariantViolation:
    """One broken invariant, with a human-readable diagnostic.

    ``expected`` marks counterexamples the run was *designed* to
    produce (naive accounting); they do not count as failures.
    """

    invariant: str
    detail: str
    expected: bool = False

    def to_dict(self) -> dict:
        return {
            "invariant": self.invariant,
            "detail": self.detail,
            "expected": self.expected,
        }


def invariant_report(violations) -> dict:
    """A picklable, JSON-friendly summary of an oracle pass.

    ``ok`` means no *unexpected* violations; deliberate naive-accounting
    counterexamples are listed but do not clear the flag.
    """
    violations = list(violations)
    return {
        "ok": not any(not violation.expected for violation in violations),
        "violations": [violation.to_dict() for violation in violations],
    }


def honest_observers(cluster) -> list:
    """Observer replicas that are neither crashed nor behaviour-overridden."""
    return [
        replica
        for replica in cluster.observer_replicas()
        if not replica.crashed
        and replica.replica_id not in cluster.byzantine_ids
    ]


# ----------------------------------------------------------------------
# Definition 1
# ----------------------------------------------------------------------


def check_definition_1(replicas, actual_faults: int, expected: bool = False):
    """No conflicting ``x``-strong commits for ``x >= t`` (Definition 1).

    Every block some replica holds at strength ``>= t`` is paired with
    every other such block; a pair the strongest holder's store sees as
    conflicting is one violation, at the weaker of the two levels.
    """
    strong: dict = {}
    for replica in replicas:
        for block_id, timeline in replica.commit_tracker.timelines():
            if timeline.current >= actual_faults:
                stored = strong.get(block_id)
                if stored is None or timeline.current > stored[0]:
                    strong[block_id] = (timeline.current, replica)
    violations = []
    items = list(strong.items())
    for i, (block_a, (level_a, replica_a)) in enumerate(items):
        store = replica_a.store
        for block_b, (level_b, _replica_b) in items[i + 1:]:
            if block_a not in store or block_b not in store:
                continue
            if store.conflicts(block_a, block_b):
                violations.append(
                    InvariantViolation(
                        invariant="definition-1",
                        detail=(
                            f"conflicting blocks {block_a.short()} and "
                            f"{block_b.short()} are both >= "
                            f"{min(level_a, level_b)}-strong committed "
                            f"under t = {actual_faults} actual faults"
                        ),
                        expected=expected,
                    )
                )
    return violations


# ----------------------------------------------------------------------
# prefix consistency
# ----------------------------------------------------------------------


def chain_disagreements(chains) -> list:
    """Cross-replica agreement: one block per height across replicas.

    ``chains`` maps a replica id to its committed ``(height, block_id)``
    sequence; block ids are digests on the simulator and hex strings on
    the TCP tier.  Each replica that committed a different block at a
    height than the first replica seen there is one violation.
    """
    first: dict = {}
    violations = []
    for replica_id, chain in chains.items():
        for height, block_id in chain:
            seen_id, seen_by = first.setdefault(height, (block_id, replica_id))
            if seen_id != block_id:
                violations.append(
                    InvariantViolation(
                        invariant="prefix-consistency",
                        detail=(
                            f"height {height}: replica {replica_id} "
                            f"committed {str(block_id)[:10]} but replica "
                            f"{seen_by} committed {str(seen_id)[:10]}"
                        ),
                    )
                )
    return violations


def check_prefix_consistency(replicas):
    """Committed chains are per-replica chains and cross-replica consistent.

    A replica that joined through a checkpoint snapshot legitimately
    jumps from its pre-partition history straight to the checkpoint
    height (the skipped prefix is certified by the 2f+1 checkpoint
    digest, not by local commit events); those recorded join heights
    are excused from the per-replica gap and parent-linkage checks.
    Cross-replica agreement at every height (:func:`chain_disagreements`)
    is still enforced in full.
    """
    violations = []
    chains = {}
    for replica in replicas:
        events = sorted(
            replica.commit_tracker.commit_order, key=lambda event: event.height
        )
        snapshot_heights = getattr(
            replica.commit_tracker, "snapshot_heights", frozenset()
        )
        for previous, event in zip(events, events[1:]):
            if event.height in snapshot_heights:
                continue
            if event.height != previous.height + 1:
                violations.append(
                    InvariantViolation(
                        invariant="prefix-consistency",
                        detail=(
                            f"replica {replica.replica_id} committed "
                            f"height {event.height} after height "
                            f"{previous.height} (gap in the chain)"
                        ),
                    )
                )
            block = replica.store.maybe_get(event.block_id)
            if block is not None and block.parent_id != previous.block_id:
                violations.append(
                    InvariantViolation(
                        invariant="prefix-consistency",
                        detail=(
                            f"replica {replica.replica_id}: committed "
                            f"block {event.block_id.short()} at height "
                            f"{event.height} does not extend the "
                            f"committed block at height {previous.height}"
                        ),
                    )
                )
        chains[replica.replica_id] = [
            (event.height, event.block_id) for event in events
        ]
    return violations + chain_disagreements(chains)


# ----------------------------------------------------------------------
# strength monotonicity
# ----------------------------------------------------------------------


def check_strength_monotonicity(replicas):
    """Per-timeline sanity: dense levels, monotone times, ``2f`` cap."""
    violations = []
    for replica in replicas:
        tracker = replica.commit_tracker
        cap = max_strength(tracker.f)
        for block_id, timeline in tracker.timelines():
            current = timeline.current
            if current > cap:
                violations.append(
                    InvariantViolation(
                        invariant="strength-monotonicity",
                        detail=(
                            f"replica {replica.replica_id}: block "
                            f"{block_id.short()} reports strength {current} "
                            f"beyond the 2f = {cap} cap"
                        ),
                    )
                )
            levels = sorted(timeline.first_reach)
            if current >= 0 and levels != list(range(0, current + 1)):
                violations.append(
                    InvariantViolation(
                        invariant="strength-monotonicity",
                        detail=(
                            f"replica {replica.replica_id}: block "
                            f"{block_id.short()} timeline levels {levels} "
                            f"are not dense up to current={current}"
                        ),
                    )
                )
            previous_time = None
            for level in levels:
                reached = timeline.first_reach[level]
                if previous_time is not None and reached < previous_time:
                    violations.append(
                        InvariantViolation(
                            invariant="strength-monotonicity",
                            detail=(
                                f"replica {replica.replica_id}: block "
                                f"{block_id.short()} reached level {level} "
                                f"at {reached:g}, earlier than level "
                                f"{level - 1} at {previous_time:g}"
                            ),
                        )
                    )
                previous_time = reached
    return violations


# ----------------------------------------------------------------------
# double votes
# ----------------------------------------------------------------------


def check_double_votes(cluster) -> list:
    """No replica's vote certifies two different blocks in one round.

    The oracle scans every certificate any honest observer recorded and
    builds a ``(round, voter) -> block`` map; a voter appearing in two
    same-round QCs for different blocks equivocated its vote.  Declared
    Byzantine replicas are excused — a Byzantine voter may sign
    anything, and the adversarial leaders deliberately manufacture the
    forks these QCs certify.  *Not* excused: crash-recovery replicas
    and the scripted amnesiacs (``wal_restore = False``).  A recovered
    replica re-voting a pre-crash round is exactly the durability bug
    the WAL exists to prevent, and the amnesia differential relies on
    this check firing when the WAL is taken away.
    """
    excused = {
        replica.replica_id
        for replica in cluster.replicas
        if replica.replica_id in cluster.byzantine_ids
        and getattr(replica, "wal_restore", True)
    }
    first_seen: dict[tuple, object] = {}
    reported: set = set()
    violations = []
    for replica in honest_observers(cluster):
        for qc in replica.store.all_qcs():
            for vote in qc.votes:
                if vote.voter in excused:
                    continue
                key = (qc.round, vote.voter)
                existing = first_seen.get(key)
                if existing is None:
                    first_seen[key] = qc.block_id
                elif existing != qc.block_id and key not in reported:
                    reported.add(key)
                    violations.append(
                        InvariantViolation(
                            invariant="double-vote",
                            detail=(
                                f"replica {vote.voter} voted for both "
                                f"{existing.short()} and "
                                f"{qc.block_id.short()} in round "
                                f"{qc.round} (durable voting record "
                                f"violated)"
                            ),
                        )
                    )
    return violations


# ----------------------------------------------------------------------
# post-GST liveness
# ----------------------------------------------------------------------


def recovery_time(spec) -> float:
    """When the run reaches its final stable configuration: after GST,
    after every partition heals, after the last scheduled crash, and
    after every crash-recovery replica has restarted."""
    recovery = max(spec.gst, 0.0)
    for window in spec.partitions:
        recovery = max(recovery, window.end)
    if spec.faults.crash:
        recovery = max(recovery, spec.faults.crash_at)
    if spec.faults.recover or spec.faults.amnesia:
        recovery = max(recovery, spec.faults.recover_at + spec.faults.downtime)
    return recovery


def _per_round_s(spec) -> float:
    """A round's nominal pacing: Streamlet's fixed slot, or the
    DiemBFT-family base timeout."""
    if spec.protocol in ("streamlet", "sft-streamlet"):
        return spec.streamlet_slot()
    return spec.round_timeout


def liveness_bound_s(spec) -> float:
    """How long after recovery commits must resume (seconds).

    A generous budget: ~12 fault-free rounds plus twice the longest
    no-progress window (pacemaker timeouts back off during a stall, so
    the first post-recovery round can take that long to time out).
    """
    stall = max(spec.gst, 0.0)
    for window in spec.partitions:
        stall = max(stall, window.end - window.start)
    return 12.0 * _per_round_s(spec) + 2.0 * stall


def liveness_applicable(spec) -> bool:
    """Whether the fault mix leaves the liveness guarantee intact.

    Two preconditions:

    * a reachable quorum — at most ``f`` replicas permanently
      non-voting (crashed or silent; lazy voters whose delay rivals
      the round timeout count too);
    * a *committing leader window* in the round-robin rotation.  A
      DiemBFT-family commit needs three consecutive rounds with
      correct proposers **plus** a correct next leader to aggregate the
      final QC (votes go to the leader of ``r + 1``; a crashed
      aggregator silently loses them) — four consecutive correct slots.
      Streamlet certifies by broadcast, so three suffice.  The fuzzer
      found the degenerate case: ``n = 4`` with one crash has no such
      window, and the chain grows forever without a single commit.

    With the block-sync / catch-up subprotocol enabled
    (``spec.sync_enabled``) both preconditions relax, and the two
    fuzzer finds above become *live* schedules the oracle judges:

    * timeout-attached votes let every replica aggregate a QC whose
      collector crashed, so the DiemBFT window shrinks to three slots
      (closes rotation starvation);
    * a withholding leader whose reach still covers a quorum no longer
      poisons its slot — the round certifies, and the skipped replicas
      fetch the block through sync (closes withhold outcast).
    """
    f = spec.resolved_f()
    non_voting = spec.faults.non_voting()
    if not spec.sync_enabled:
        # Without block-sync a reborn replica can never rebuild its
        # volatile block store, and the WAL's certified floor keeps it
        # safe but mute — it is a permanent non-voter, exactly like a
        # crash that never came back.
        non_voting += spec.faults.recover + spec.faults.amnesia
    if spec.faults.lazy and spec.faults.lazy_delay >= _per_round_s(spec) / 2:
        non_voting += spec.faults.lazy
    if non_voting > f:
        return False
    streamlet = spec.protocol in ("streamlet", "sft-streamlet")
    if streamlet and spec.reorder_window:
        # Streamlet's lock-step slot budgets exactly one proposal hop
        # plus one vote hop at worst-case delay; a replica refuses any
        # proposal arriving outside its slot.  At-least-once reordering
        # adds up to ``reorder_window`` per hop on top of that, so a
        # slot too short for the inflated round trip breaks the
        # synchrony assumption liveness is conditioned on — the fuzzer
        # found schedules with no Byzantine faults at all that stall at
        # zero commits this way.  (DiemBFT-family timeouts back off and
        # retry, so bounded reordering only slows them down.)
        needed = 2.0 * (spec.max_delay() + spec.jitter
                        + spec.reorder_window) + 0.005
        if _per_round_s(spec) < needed:
            return False
    if streamlet:
        # Linear vote collection routes Streamlet votes to the leader
        # of ``r + 1`` instead of broadcasting, so certifying the three
        # commit rounds additionally needs their three collectors
        # correct — four consecutive correct slots, like pre-sync
        # DiemBFT.  (Streamlet has no timeout-vote recovery, so
        # ``sync_enabled`` does not win the window back.)
        window = 4 if getattr(spec, "linear_votes", False) else 3
    else:
        # DiemBFT-family votes already go point-to-point to the next
        # leader, so ``linear_votes`` does not change its window.
        window = 3 if spec.sync_enabled else 4
    return _longest_correct_leader_run(spec) >= window


def _withhold_reaches_quorum(spec, leader_id: int) -> bool:
    """Whether a withholding leader's proposals can still certify.

    Mirrors the behaviour's reach arithmetic: replicas
    ``0 .. cutoff-1`` receive the proposal, plus the leader itself.
    """
    cutoff = int(spec.n * spec.faults.withhold_reach)
    voters = cutoff + (1 if leader_id >= cutoff else 0)
    return voters >= 2 * spec.resolved_f() + 1


def _longest_correct_leader_run(spec) -> int:
    """Longest cyclic run of replica ids whose led rounds still commit.

    Lazy, silent, marker-lying, and sync-withholding replicas propose
    and aggregate honestly (a silent leader's block is certified by the
    other ``2f + 1`` voters), so their slots stay usable.  Crashed
    leaders lose the votes they should aggregate, equivocators split
    their round's votes, and withholders may starve part of the
    network — those slots cannot anchor a committing 3-chain, except
    that with sync enabled a quorum-reaching withholder's slot still
    certifies (the skipped replicas catch up out of band).
    """
    assigned = spec.faults.assignments(spec.n)
    faulty = set()
    for name, ids in assigned.items():
        if name in ("crash", "equivocate", "recover", "amnesia"):
            # Crash-recovery replicas do come back, but their slots are
            # dead during the downtime and only trustworthy again after
            # catch-up — conservatively keep them out of the window.
            faulty.update(ids)
        elif name == "withhold":
            for replica_id in ids:
                if not (
                    spec.sync_enabled
                    and _withhold_reaches_quorum(spec, replica_id)
                ):
                    faulty.add(replica_id)
    if not faulty:
        return spec.n
    alive = [replica_id not in faulty for replica_id in range(spec.n)]
    best = run = 0
    for flag in alive + alive:  # doubled to account for cyclic wrap
        run = run + 1 if flag else 0
        best = max(best, run)
    return min(best, spec.n)


def check_post_gst_liveness(cluster, spec):
    """Commits resume within :func:`liveness_bound_s` of stabilization.

    This is a *system*-progress check: up to ``f`` honest replicas may
    individually stay starved (e.g. a withholding leader whose reach
    covers a quorum permanently outcasts the replicas it skips — a real
    schedule the fuzzer found; without a block-sync path they can never
    certify the withheld rounds).  Individual starvation is the health
    monitor's domain (Section 5 outcast detection); the liveness
    invariant fires when the cluster as a whole stalls.  Skipped (empty
    result) when the run is too short to judge or the fault mix breaks
    liveness outright.
    """
    if spec is None or not liveness_applicable(spec):
        return []
    recovery = recovery_time(spec)
    bound = liveness_bound_s(spec)
    if spec.duration - recovery < bound:
        return []  # not enough post-recovery budget to judge
    observers = honest_observers(cluster)
    if not observers:
        return []
    stalled = []
    for replica in observers:
        if not any(
            recovery < event.committed_at <= recovery + bound
            for event in replica.commit_tracker.commit_order
        ):
            stalled.append(replica.replica_id)
    required = max(1, len(observers) - spec.resolved_f())
    if len(observers) - len(stalled) >= required:
        return []
    return [
        InvariantViolation(
            invariant="post-gst-liveness",
            detail=(
                f"only {len(observers) - len(stalled)} of {len(observers)} "
                f"honest replicas committed within {bound:g}s of "
                f"stabilization at t={recovery:g}s (stalled: {stalled}; "
                f"need {required})"
            ),
        )
    ]


# ----------------------------------------------------------------------
# the full oracle
# ----------------------------------------------------------------------


def check_cluster_invariants(cluster, spec=None) -> list:
    """Run every invariant over a finished cluster.

    ``spec`` (a :class:`~repro.experiments.spec.ScenarioSpec`) supplies
    the fault/schedule context: the actual fault count ``t`` for
    Definition 1, the naive-accounting flag, and the liveness window.
    Without it, ``t`` falls back to the cluster's override/crash count
    and the liveness check is skipped.
    """
    replicas = honest_observers(cluster)
    if spec is not None:
        actual_faults = spec.faults.byzantine_total()
        naive = bool(spec.naive_accounting)
    else:
        crashed = sum(1 for replica in cluster.replicas if replica.crashed)
        actual_faults = len(
            cluster.byzantine_ids
            | {r.replica_id for r in cluster.replicas if r.crashed}
        ) if crashed else len(cluster.byzantine_ids)
        naive = cluster.config.naive_accounting
    violations = []
    violations.extend(check_definition_1(replicas, actual_faults, expected=naive))
    violations.extend(check_prefix_consistency(replicas))
    violations.extend(check_strength_monotonicity(replicas))
    violations.extend(check_double_votes(cluster))
    violations.extend(check_post_gst_liveness(cluster, spec))
    return violations


# ----------------------------------------------------------------------
# scripted (Appendix C) runs
# ----------------------------------------------------------------------


def check_appendix_c(result, naive: bool) -> list:
    """Definition 1 over an Appendix C construction (Figure 9).

    ``result`` is a :class:`~repro.adversary.scripted.ScenarioResult`.
    With ``t = f + 1`` actual faults, the naive scheme double-counts
    chain-switching honest voters and certifies two conflicting
    ``(f+1)``-strong commits — flagged here as an *expected*
    Definition-1 violation.  SFT's markers must keep the same
    construction safe.
    """
    t = result.f + 1
    if naive:
        if not result.naive_violates_definition_1():
            return []
        return [
            InvariantViolation(
                invariant="definition-1",
                detail=(
                    f"naive accounting: conflicting blocks at rounds "
                    f"{result.main_block_round} and {result.fork_block_round} "
                    f"reach strengths {result.naive_main_strength} and "
                    f"{result.naive_fork_strength}, both >= t = {t} "
                    f"(Appendix C counterexample)"
                ),
                expected=True,
            )
        ]
    if result.sft_is_safe():
        return []
    return [
        InvariantViolation(
            invariant="definition-1",
            detail=(
                f"SFT accounting: conflicting blocks at rounds "
                f"{result.main_block_round} and {result.fork_block_round} "
                f"reach strengths {result.sft_main_strength} and "
                f"{result.sft_fork_strength}, both >= t = {t}"
            ),
        )
    ]
