"""Machine-speed calibration that cancels host contention.

On a shared host the CPU speed seen by one process drifts in regimes
of ten to thirty seconds: the same cold flow takes 0.7x to 1.5x its
median depending on what the neighbours run.  A median over one run
cannot remove that, because a whole run can sit in one regime.

Each timed section is therefore bracketed by a fixed kernel that has
nothing to do with ``repro`` and its seconds are scaled by
``REFERENCE_S / kernel seconds``: the time the section would have
taken with the kernel at its reference speed.  The kernel mixes the
two kinds of pure-Python work the flows do — heap Dijkstra over a
seeded random graph (the router) and swap moves priced by net
bounding boxes (the annealers) — because the mix tracks the flows'
slowdowns better than either half alone.  Raw seconds stay in the
human-readable report.  The kernel never changes, so both sides of a
comparison scale alike.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time
from typing import Dict, List, Tuple

#: The kernel's seconds at the reference speed (an idle 2.1 GHz x86
#: vCPU); only the ratio to it matters.
REFERENCE_S = 0.0100

_NODES = 1000
_FANOUT = 6
_SOURCES = (0, 500)
_CELLS = 300
_NETS = 600
_MOVES = 70


class Calibrator:
    """Runs the reference kernel and turns raw seconds into scaled ones."""

    def __init__(self, samples: int = 3) -> None:
        rng = random.Random(20131)
        self.adjacency = [
            [(rng.randrange(_NODES), rng.random()) for _ in range(_FANOUT)]
            for _ in range(_NODES)
        ]
        self.nets = [
            [rng.randrange(_CELLS) for _ in range(4)] for _ in range(_NETS)
        ]
        self.nets_of: Dict[int, List[int]] = {}
        for index, net in enumerate(self.nets):
            for cell in net:
                self.nets_of.setdefault(cell, []).append(index)
        self.samples = samples

    def _search(self) -> None:
        adjacency = self.adjacency
        for source in _SOURCES:
            dist = [float("inf")] * _NODES
            dist[source] = 0.0
            heap = [(0.0, source)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist[u]:
                    continue
                for v, w in adjacency[u]:
                    nd = d + w
                    if nd < dist[v]:
                        dist[v] = nd
                        heapq.heappush(heap, (nd, v))

    def _anneal(self) -> None:
        rng = random.Random(5)
        pos: Dict[int, Tuple[int, int]] = {
            cell: (cell % 20, cell // 20) for cell in range(_CELLS)
        }
        nets, nets_of = self.nets, self.nets_of

        def cost(touched) -> int:
            total = 0
            for n in touched:
                xs = [pos[c][0] for c in nets[n]]
                ys = [pos[c][1] for c in nets[n]]
                total += max(xs) - min(xs) + max(ys) - min(ys)
            return total

        for _ in range(_MOVES):
            a, b = rng.randrange(_CELLS), rng.randrange(_CELLS)
            touched = set(nets_of.get(a, ())) | set(nets_of.get(b, ()))
            before = cost(touched)
            pos[a], pos[b] = pos[b], pos[a]
            if cost(touched) > before and rng.random() < 0.5:
                pos[a], pos[b] = pos[b], pos[a]

    def kernel(self) -> float:
        """Seconds of one kernel run (searches plus annealing moves)."""
        start = time.perf_counter()
        self._search()
        self._anneal()
        return time.perf_counter() - start

    def probe(self) -> List[float]:
        return [self.kernel() for _ in range(self.samples)]

    @staticmethod
    def factor(before: List[float], after: List[float]) -> float:
        """Scale of a section bracketed by *before* and *after* probes."""
        return REFERENCE_S / statistics.median(before + after)
