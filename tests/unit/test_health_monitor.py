"""QC-diversity health monitoring (Section 5)."""

import pytest

from repro.analysis.health import QCDiversityMonitor


class TestObservation:
    def test_appearances_counted(self, builder):
        monitor = QCDiversityMonitor(builder.n)
        block = builder.block(builder.genesis, 1)
        qc = builder.certify(block, voters=(0, 1, 2))
        monitor.observe_qc(qc)
        report = {h.replica_id: h for h in monitor.report()}
        assert report[0].qc_appearances == 1
        assert report[3].qc_appearances == 0
        assert report[0].last_seen_round == 1

    def test_observe_chain_walks_commits(self, builder):
        from repro.core.commit_rules import CommitTracker

        tracker = CommitTracker(builder.store, f=builder.f, rule="diembft")
        blocks = builder.chain(builder.genesis, [1, 2, 3])
        for block in blocks:
            tracker.on_new_qc(builder.store.qc_for(block.id()), now=1.0)
        monitor = QCDiversityMonitor(builder.n)
        observed = monitor.observe_chain(builder.store, tracker.commit_order)
        assert observed == 1  # only B_1 committed; genesis QC has no votes

    def test_out_of_range_voters_ignored(self, builder):
        monitor = QCDiversityMonitor(2)
        block = builder.block(builder.genesis, 1)
        qc = builder.certify(block, voters=(0, 1, 3))
        monitor.observe_qc(qc)
        assert monitor.qc_count() == 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            QCDiversityMonitor(0)


class TestDiagnosis:
    def _monitor_with(self, builder, voter_sets):
        monitor = QCDiversityMonitor(builder.n)
        parent = builder.genesis
        for round_number, voters in enumerate(voter_sets, start=1):
            block = builder.block(parent, round_number)
            qc = builder.certify(block, voters=voters)
            monitor.observe_qc(qc)
            parent = block
        return monitor

    def test_outcasts_detected(self, builder):
        monitor = self._monitor_with(
            builder, [(0, 1, 2), (0, 1, 2), (0, 1, 2)]
        )
        outcasts = {
            health.replica_id for health in monitor.report()
            if health.is_outcast()
        }
        assert outcasts == {3}

    def test_stragglers_by_rate(self, builder):
        monitor = self._monitor_with(
            builder, [(0, 1, 2), (0, 1, 2), (0, 1, 3)]
        )
        stragglers = {
            h.replica_id for h in monitor.report() if h.appearance_rate < 0.5
        }
        assert stragglers == {3}

    def test_report_sorted_worst_first(self, builder):
        monitor = self._monitor_with(builder, [(0, 1, 2), (0, 1, 2)])
        report = monitor.report()
        assert report[0].replica_id == 3

    def test_max_achievable_strength(self, builder):
        # f=1, n=4; only 3 participants → cap = 3 - 1 - 1 = 1 = f.
        monitor = self._monitor_with(builder, [(0, 1, 2)])
        assert monitor.max_achievable_strength(builder.f) == builder.f
        # All four appear → cap = 2f.
        monitor2 = self._monitor_with(builder, [(0, 1, 2, 3)])
        assert monitor2.max_achievable_strength(builder.f) == 2 * builder.f

    def test_window_expires_old_appearances(self, builder):
        monitor = QCDiversityMonitor(builder.n, window=2)
        parent = builder.genesis
        for round_number, voters in enumerate(
            [(3, 0, 1), (0, 1, 2), (0, 1, 2)], start=1
        ):
            block = builder.block(parent, round_number)
            monitor.observe_qc(builder.certify(block, voters=voters))
            parent = block
        # Replica 3 appeared only in the expired first QC.
        report = {h.replica_id: h for h in monitor.report()}
        assert report[3].qc_appearances == 0
        assert monitor.qc_count() == 2
