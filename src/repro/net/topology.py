"""Geo-distribution delay models (Figure 6).

A topology maps ``(src, dst)`` replica pairs to one-way base delays.
Two concrete shapes mirror the paper's evaluation:

* **symmetric**: replicas split evenly into 3 regions, fixed delay δ
  between any cross-region pair (Figure 6 left: 34/33/33);
* **asymmetric**: regions A, B, C with 45/45/10 replicas; A↔B is
  20 ms while C↔A and C↔B are δ (Figure 6 right).

Intra-region delay defaults to 1 ms (same-AZ neighbours).
"""

from __future__ import annotations


class Topology:
    """Base class: a delay function over replica pairs."""

    def __init__(self, n: int) -> None:
        if n <= 0:
            raise ValueError("topology needs at least one replica")
        self.n = n

    def delay(self, src: int, dst: int) -> float:
        """One-way base delay in seconds from ``src`` to ``dst``."""
        raise NotImplementedError

    def region_of(self, replica_id: int) -> int:
        """Region index of a replica (0 for flat topologies)."""
        del replica_id
        return 0

    def describe(self) -> str:
        return f"{type(self).__name__}(n={self.n})"


class UniformTopology(Topology):
    """Every pair of distinct replicas has the same delay."""

    def __init__(self, n: int, delay: float = 0.001) -> None:
        super().__init__(n)
        self._delay = delay

    def delay(self, src: int, dst: int) -> float:
        return 0.0 if src == dst else self._delay


class RegionTopology(Topology):
    """Replicas grouped into regions with a per-region-pair delay table.

    ``region_sizes`` lists the number of replicas per region (assigned
    contiguously by id).  ``inter_delays[(i, j)]`` gives the one-way
    delay between regions ``i`` and ``j``; pairs may be specified in
    either order.  ``intra_delay`` applies within a region.
    """

    def __init__(
        self,
        region_sizes,
        inter_delays: dict,
        intra_delay: float = 0.001,
    ) -> None:
        sizes = tuple(int(size) for size in region_sizes)
        if any(size <= 0 for size in sizes):
            raise ValueError("every region needs at least one replica")
        super().__init__(sum(sizes))
        self.region_sizes = sizes
        self.intra_delay = intra_delay
        self._inter = {}
        for (a, b), value in inter_delays.items():
            self._inter[(a, b)] = value
            self._inter[(b, a)] = value
        self._region_of = []
        for region, size in enumerate(sizes):
            self._region_of.extend([region] * size)
        for i in range(len(sizes)):
            for j in range(i + 1, len(sizes)):
                if (i, j) not in self._inter:
                    raise ValueError(f"missing inter-region delay for ({i}, {j})")

    def region_of(self, replica_id: int) -> int:
        return self._region_of[replica_id]

    def delay(self, src: int, dst: int) -> float:
        if src == dst:
            return 0.0
        region_src = self._region_of[src]
        region_dst = self._region_of[dst]
        if region_src == region_dst:
            return self.intra_delay
        return self._inter[(region_src, region_dst)]

    def replicas_in_region(self, region: int) -> tuple:
        start = sum(self.region_sizes[:region])
        return tuple(range(start, start + self.region_sizes[region]))


class SymmetricTopology(RegionTopology):
    """Figure 6 (left): 3 regions, even split, uniform cross-region δ."""

    def __init__(self, n: int = 100, delta: float = 0.100, intra_delay: float = 0.001):
        base = n // 3
        remainder = n - 3 * base
        sizes = [base + (1 if i < remainder else 0) for i in range(3)]
        inter = {(0, 1): delta, (0, 2): delta, (1, 2): delta}
        super().__init__(sizes, inter, intra_delay)
        self.delta = delta

    def describe(self) -> str:
        sizes = "/".join(str(size) for size in self.region_sizes)
        return f"symmetric({sizes}, δ={self.delta * 1000:.0f}ms)"


#: Figure 6's A↔B delay in the asymmetric topology, in seconds.
AB_DELAY = 0.020


class AsymmetricTopology(RegionTopology):
    """Figure 6 (right): A=45, B=45, C=10; A↔B 20 ms; C↔{A,B} = δ."""

    def __init__(
        self,
        delta: float = 0.100,
        n_a: int = 45,
        n_b: int = 45,
        n_c: int = 10,
        intra_delay: float = 0.001,
    ):
        inter = {(0, 1): AB_DELAY, (0, 2): delta, (1, 2): delta}
        super().__init__((n_a, n_b, n_c), inter, intra_delay)
        self.delta = delta

    def describe(self) -> str:
        sizes = "/".join(str(size) for size in self.region_sizes)
        return (
            f"asymmetric({sizes}, A↔B={AB_DELAY * 1000:.0f}ms, "
            f"δ={self.delta * 1000:.0f}ms)"
        )
