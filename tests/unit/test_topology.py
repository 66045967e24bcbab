"""Geo topologies (Figure 6)."""

import pytest

from repro.experiments.spec import ScenarioSpec
from repro.net.topology import (
    AB_DELAY,
    AsymmetricTopology,
    RegionTopology,
    SymmetricTopology,
    UniformTopology,
)


class TestUniform:
    def test_self_delay_zero(self):
        topology = UniformTopology(5, delay=0.01)
        assert topology.delay(2, 2) == 0.0
        assert topology.delay(0, 4) == 0.01

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            UniformTopology(0)


class TestSymmetric:
    def test_paper_split_100(self):
        topology = SymmetricTopology(100, delta=0.1)
        assert topology.region_sizes == (34, 33, 33)
        assert topology.n == 100

    def test_regions_assigned_contiguously(self):
        topology = SymmetricTopology(100, delta=0.1, intra_delay=0.001)
        # Regions are [0, 33], [34, 66] and [67, 99].
        for a, b in ((0, 33), (34, 66), (67, 99)):
            assert topology.delay(a, b) == 0.001
        for a, b in ((33, 34), (66, 67)):
            assert topology.delay(a, b) == 0.1

    def test_cross_region_delay_is_delta(self):
        topology = SymmetricTopology(100, delta=0.1, intra_delay=0.001)
        assert topology.delay(0, 99) == 0.1
        assert topology.delay(0, 1) == 0.001
        assert topology.delay(40, 50) == 0.001

    def test_delay_symmetric(self):
        topology = SymmetricTopology(100, delta=0.1)
        assert topology.delay(3, 80) == topology.delay(80, 3)

    def test_describe_mentions_delta(self):
        assert "100ms" in SymmetricTopology(100, delta=0.1).describe()


class TestAsymmetric:
    def test_paper_regions(self):
        topology = AsymmetricTopology(delta=0.1)
        assert topology.region_sizes == (45, 45, 10)
        assert topology.n == 100

    def test_ab_fast_c_slow(self):
        topology = AsymmetricTopology(delta=0.1)
        a, b, c = 0, 45, 90
        assert topology.delay(a, b) == 0.02
        assert topology.delay(a, c) == 0.1
        assert topology.delay(b, c) == 0.1
        assert topology.delay(c, c + 1) == 0.001

    def test_describe_names_ab_delay(self):
        assert AB_DELAY == 0.02
        assert "A↔B=20ms" in AsymmetricTopology(delta=0.1).describe()

    def test_max_delay_counts_ab_delay_when_delta_is_smaller(self):
        spec = ScenarioSpec(topology="asymmetric", delta=0.005)
        assert spec.max_delay() == AB_DELAY
        uniform = ScenarioSpec(topology="uniform", uniform_delay=0.005)
        assert uniform.max_delay() < AB_DELAY

    def test_replicas_in_region(self):
        topology = AsymmetricTopology(delta=0.1)
        assert sum(topology.region_sizes[:2]) == 90
        assert topology.region_sizes[2] == 10


class TestRegionTopology:
    def test_missing_pair_rejected(self):
        with pytest.raises(ValueError):
            RegionTopology((2, 2, 2), {(0, 1): 0.1, (0, 2): 0.1})

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError):
            RegionTopology((2, 0), {(0, 1): 0.1})

    def test_inter_delays_order_insensitive(self):
        topology = RegionTopology((1, 1), {(1, 0): 0.05})
        assert topology.delay(0, 1) == 0.05
        assert topology.delay(1, 0) == 0.05
