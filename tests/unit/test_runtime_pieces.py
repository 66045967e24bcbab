"""ScenarioSpec derived pieces, mempool, metrics helpers, report formatting."""

import pytest

from repro.analysis.ascii_chart import line_chart
from repro.analysis.report import (
    format_fig7_table,
    format_series_csv,
    format_simple_table,
)
from repro.experiments.spec import ScenarioSpec
from repro.runtime.client import Mempool, attach
from repro.runtime.metrics import LatencyReport, percentile
from repro.types.block import Block
from repro.types.transaction import Payload, Transaction


class TestSpecDerivedPieces:
    def test_default_f_from_n(self):
        assert ScenarioSpec(n=100).resolved_f() == 33
        assert ScenarioSpec(n=7).resolved_f() == 2

    def test_explicit_f_wins(self):
        assert ScenarioSpec(n=10, f=3).resolved_f() == 3

    def test_with_overrides_copies(self):
        base = ScenarioSpec(n=7)
        changed = base.with_overrides(delta=0.2)
        assert changed.delta == 0.2
        assert base.delta == 0.1
        assert changed.n == 7

    def test_observer_stride(self):
        config = ScenarioSpec(n=10, observers=3)
        assert config.observer_ids() == (0, 3, 6, 9)

    def test_observer_all(self):
        config = ScenarioSpec(n=4, observers="all")
        assert config.observer_ids() == (0, 1, 2, 3)

    def test_observer_explicit(self):
        config = ScenarioSpec(n=10, observers=(1, 5))
        assert config.observer_ids() == (1, 5)

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(protocol="pbft")

    def test_unknown_topology_rejected(self):
        with pytest.raises(ValueError):
            ScenarioSpec(topology="mesh").build_topology()

    def test_asymmetric_requires_n_100(self):
        with pytest.raises(ValueError):
            ScenarioSpec(topology="asymmetric", n=10).build_topology()

    def test_streamlet_round_duration_derived(self):
        config = ScenarioSpec(
            protocol="streamlet", n=7, topology="uniform", uniform_delay=0.01,
            jitter=0.002,
        )
        replica_config = config.replica_config(0)
        assert replica_config.round_duration >= 2 * (0.01 + 0.002)

    def test_replica_config_observer_flag(self):
        config = ScenarioSpec(n=10, observers=(0,))
        assert config.replica_config(0).observer
        assert not config.replica_config(5).observer


class TestMempool:
    def _txn(self, sequence):
        return Transaction(client_id=1, sequence=sequence)

    def test_submit_and_payload(self):
        mempool = Mempool(max_block_transactions=2)
        for sequence in range(3):
            mempool.submit(self._txn(sequence))
        payload = mempool.make_payload(now=0.0)
        assert payload.tx_count() == 2
        # Transactions stay pending until committed.
        assert mempool.pending_count() == 3

    def test_large_transactions_fill_by_count(self):
        mempool = Mempool(max_block_transactions=3)
        for sequence in range(5):
            mempool.submit(
                Transaction(client_id=1, sequence=sequence, payload=bytes(4096))
            )
        assert mempool.make_payload(now=0.0).tx_count() == 3

    def test_remove_committed(self):
        mempool = Mempool()
        txn = self._txn(0)
        mempool.submit(txn)
        mempool.remove_committed([txn])
        assert mempool.pending_count() == 0

    def test_duplicate_submissions_deduplicated(self):
        mempool = Mempool()
        txn = self._txn(0)
        mempool.submit(txn)
        mempool.submit(txn)
        assert mempool.pending_count() == 1

    def test_stop_and_wait_re_proposes_same_front(self):
        mempool = Mempool(max_block_transactions=2)
        for sequence in range(4):
            mempool.submit(self._txn(sequence))
        first = mempool.make_payload(now=0.0)
        second = mempool.make_payload(now=0.1)
        assert first.transactions == second.transactions

    def test_pipelined_drains_skip_in_flight(self):
        mempool = Mempool(
            max_block_transactions=2, pipelined=True, inflight_timeout=1.0
        )
        for sequence in range(4):
            mempool.submit(self._txn(sequence))
        first = mempool.make_payload(now=0.0)
        second = mempool.make_payload(now=0.1)
        assert first.transactions != second.transactions
        assert {t.sequence for t in first.transactions} == {0, 1}
        assert {t.sequence for t in second.transactions} == {2, 3}

    def test_pipelined_in_flight_expires(self):
        # A batch whose proposal went nowhere becomes eligible again
        # once the in-flight timeout lapses.
        mempool = Mempool(
            max_block_transactions=2, pipelined=True, inflight_timeout=1.0
        )
        mempool.submit(self._txn(0))
        first = mempool.make_payload(now=0.0)
        assert mempool.make_payload(now=0.5).tx_count() == 0
        redo = mempool.make_payload(now=1.5)
        assert redo.transactions == first.transactions

    def test_commit_clears_in_flight(self):
        mempool = Mempool(pipelined=True, inflight_timeout=10.0)
        txn = self._txn(0)
        mempool.submit(txn)
        mempool.make_payload(now=0.0)
        mempool.remove_committed([txn])
        assert mempool.pending_count() == 0
        assert mempool._in_flight == {}

    def test_resubmission_is_not_counted_twice(self):
        mempool = Mempool()
        txn = self._txn(0)
        assert mempool.submit(txn) == txn.txid()
        assert mempool.submit(self._txn(0)) == txn.txid()
        assert mempool.submitted == 1

    def test_remove_committed_counts_what_was_pending(self):
        mempool = Mempool()
        for sequence in range(3):
            mempool.submit(self._txn(sequence))
        committed = [self._txn(0), self._txn(1), self._txn(7)]
        assert mempool.remove_committed(committed) == 2
        # The same block committed again removes nothing.
        assert mempool.remove_committed(committed) == 0
        assert mempool.pending_count() == 1

    def test_exclude_skips_but_keeps_queue_position(self):
        mempool = Mempool(max_block_transactions=10)
        txns = [self._txn(sequence) for sequence in range(5)]
        for txn in txns:
            mempool.submit(txn)
        carried = {txns[1].txid(), txns[3].txid()}
        payload = mempool.make_payload(0.0, carried)
        assert payload.transactions == (txns[0], txns[2], txns[4])
        # Nothing was marked or moved: once the chain that carried them
        # is abandoned (they are no longer excluded) they are back, in
        # their original order.
        assert mempool.make_payload(0.1, set()).transactions == tuple(txns)

    def test_exclude_still_fills_the_caps_from_what_follows(self):
        txns = [self._txn(sequence) for sequence in range(6)]
        carried = {txns[0].txid(), txns[1].txid()}
        by_count = Mempool(max_block_transactions=3)
        for txn in txns:
            by_count.submit(txn)
        assert by_count.make_payload(0.0, carried).transactions == (
            txns[2], txns[3], txns[4],
        )

    def test_exclude_composes_with_pipelined(self):
        mempool = Mempool(
            max_block_transactions=2, pipelined=True, inflight_timeout=1.0
        )
        txns = [self._txn(sequence) for sequence in range(5)]
        for txn in txns:
            mempool.submit(txn)
        first = mempool.make_payload(0.0, {txns[0].txid()})
        assert first.transactions == (txns[1], txns[2])
        # 1 and 2 are in flight, 3 is excluded: only 0 and 4 remain.
        second = mempool.make_payload(0.1, {txns[3].txid()})
        assert second.transactions == (txns[0], txns[4])
        # An excluded entry was never marked in flight.
        assert txns[3].txid() not in mempool._in_flight

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_empty_exclude_changes_nothing(self, pipelined):
        def filled():
            mempool = Mempool(
                max_block_transactions=3,
                pipelined=pipelined, inflight_timeout=0.25,
            )
            for sequence in range(8):
                mempool.submit(self._txn(sequence))
            return mempool

        plain, with_exclude = filled(), filled()
        for step in range(6):
            now = 0.1 * step
            assert (
                with_exclude.make_payload(now, set()).transactions
                == plain.make_payload(now).transactions
            )
        assert with_exclude._in_flight == plain._in_flight

    def test_payload_source_skips_what_the_parent_chain_carries(self):
        spec = ScenarioSpec(n=4, protocol="diembft", seeds=(1,))
        replica = spec.build(1).build().replicas[0]
        mempool = Mempool(max_block_transactions=2)
        attach(replica, mempool, lambda block, now, removed: None)
        txns = [self._txn(sequence) for sequence in range(4)]
        for txn in txns:
            mempool.submit(txn)

        def extend(parent, *transactions):
            block = Block(
                parent_id=parent.id(), qc=replica.store.qc_for(parent.id()),
                round=parent.round + 1, height=parent.height + 1, proposer=0,
                payload=Payload(transactions=transactions),
            )
            replica.store.add_block(block)
            return block

        # genesis - first - parent   <- the proposal extends this
        #               \_ sibling   (abandoned)
        first = extend(replica.genesis, txns[0])
        parent = extend(first, txns[1])
        extend(first, txns[2])
        assert replica.payload_source(0.0, parent.id()).transactions == (
            txns[2], txns[3],
        )
        assert replica.payload_source(0.0, first.id()).transactions == (
            txns[1], txns[2],
        )


class TestPercentile:
    def test_quantile_zero_rejected(self):
        # q=0 would silently clamp to the minimum sample.
        with pytest.raises(ValueError):
            percentile([1.0, 2.0], 0.0)

    def test_quantile_above_one_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0, 2.0], 1.1)

    def test_negative_quantile_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], -0.5)

    def test_empty_samples_return_none(self):
        assert percentile([], 0.5) is None

    def test_exact_boundary_rank_median(self):
        # Nearest-rank: ceil(0.5 * 4) = 2 → the 2nd smallest sample,
        # exactly at the rank boundary (no interpolation).
        assert percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.0
        assert percentile([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_exact_boundary_rank_p99(self):
        # ceil(0.99 * 100) = 99 → the 99th smallest of 100 samples.
        samples = [float(value) for value in range(100, 0, -1)]
        assert percentile(samples, 0.99) == 99.0
        # With exactly 100 samples, q=1.0 is the maximum.
        assert percentile(samples, 1.0) == 100.0

    def test_result_is_always_a_sample(self):
        samples = [0.31, 0.17, 0.99, 0.42, 0.58]
        for quantile in (0.01, 0.25, 0.5, 0.75, 0.99, 1.0):
            assert percentile(samples, quantile) in samples


class TestLatencyReport:
    def test_reached_fraction(self):
        report = LatencyReport(
            ratio=1.5, level=49, mean_latency=2.0, samples=30, eligible=40
        )
        assert report.reached_fraction() == 0.75

    def test_reached_fraction_empty(self):
        report = LatencyReport(
            ratio=1.5, level=49, mean_latency=None, samples=0, eligible=0
        )
        assert report.reached_fraction() == 0.0


class TestReportFormatting:
    def test_simple_table_alignment(self):
        table = format_simple_table(
            ["a", "bb"], [[1, 2.5], [None, 30]], title="T"
        )
        lines = table.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert "—" in table
        assert "2.500" in table

    def test_fig7_table_shape(self):
        series = {
            "δ=100ms": [
                LatencyReport(1.0, 33, 4.5, 100, 100),
                LatencyReport(2.0, 66, 9.5, 80, 100),
            ],
            "δ=200ms": [
                LatencyReport(1.0, 33, 5.5, 100, 100),
                LatencyReport(2.0, 66, None, 0, 100),
            ],
        }
        table = format_fig7_table(series, title="Figure 7a")
        assert "Figure 7a" in table
        assert "1.0" in table and "2.0" in table
        assert "9.500" in table
        assert "—" in table  # unreached level renders as dash

    def test_series_csv(self):
        series = [LatencyReport(1.0, 33, 4.5, 100, 120)]
        csv = format_series_csv(series, label="sym")
        assert "ratio,level,mean_latency_s,samples,eligible" in csv
        assert "1.0,33,4.500000,100,120" in csv


class TestAsciiChart:
    def test_chart_renders_points(self):
        chart = line_chart(
            {"a": [(1.0, 2.0), (2.0, 4.0)], "b": [(1.0, 3.0)]},
            width=20,
            height=5,
        )
        assert "legend" in chart
        assert "*" in chart and "o" in chart

    def test_chart_skips_none(self):
        chart = line_chart({"a": [(1.0, None), (2.0, 4.0)]}, width=10, height=4)
        assert "(no data)" not in chart

    def test_chart_empty(self):
        assert line_chart({"a": []}) == "(no data)"
