"""The one search-kernel module behind every PathFinder core.

TRoute, MDR routing and the bit-sharing sweeps all route through
:class:`~repro.route.router.PathFinderRouter`, so every connection
search runs one of the kernel families here:

``scalar_search`` / ``scalar_search_timed``
    The pure-Python reference loops (the router object is duck-typed
    in).  They price nodes lazily and define bit-exactness.

:class:`HeapSearch`
    The native exact A* kernel of the vectorized core: one C heap
    search (``astar.c``) over the split CSR graph, the numpy price
    vectors, a static-bit ``uint8`` mask, the node coordinates and
    the per-node delays, all read in place.  Timed and untimed
    searches differ only in how an edge is priced.  The library is
    built on first import and cached (:mod:`repro.utils.native`);
    :data:`NATIVE` says whether it loaded.  It is bit-identical to
    the scalar reference: the heap key ``(f, g, node)`` is a total
    order over distinct entries and a push needs a strict
    ``ng < dist``, so any correct binary heap pops the same sequence
    as :mod:`heapq`; the library is compiled with
    ``-ffp-contract=off`` and no fast-math, so the float expressions
    keep the reference grouping unfused; and route edges come back as
    Python ``int`` triples.
"""

from __future__ import annotations

import ctypes
import functools
import heapq
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from repro.arch.rrg import SINK as _SINK, WIRE as _WIRE
from repro.utils.native import NativeBuildError, load_library

try:  # numpy is optional at import time: the scalar reference path
    import numpy as np  # must stay importable without it.
except ImportError:  # pragma: no cover - exercised implicitly
    np = None  # type: ignore[assignment]

#: C source of the native kernel (shipped as package data).
KERNEL_SOURCE = Path(__file__).with_name("astar.c")

try:
    _LIB: Optional[ctypes.CDLL] = load_library(KERNEL_SOURCE)
    NATIVE_ERROR: Optional[str] = None
except NativeBuildError as _exc:
    _LIB = None
    NATIVE_ERROR = str(_exc)

#: Whether the native search kernel is loaded.  Without it
#: ``PathFinderRouter(...)`` dispatches to the scalar reference.
NATIVE = _LIB is not None


@dataclass
class RouterStats:
    """Profiling counters of the search kernels.

    Filled by the scalar and heap kernels (pass a ``RouterStats`` to
    the router's ``stats=`` keyword) and surfaced through the
    ``router_*`` phases of ``repro bench-exec`` (BENCH_exec.json
    schema 6), where the per-core pop counts attribute exactly what a
    tighter heuristic saves.
    """

    #: heap extractions, including stale entries.
    pops: int = 0
    #: heap insertions, including the start seeds.
    pushes: int = 0
    #: nodes settled: pops that survive the staleness check and
    #: expand their fanout.
    settled: int = 0
    #: connection searches run.
    searches: int = 0


# -- scalar reference kernels ---------------------------------------------
#
# Moved verbatim from PathFinderRouter._route_connection /
# _route_connection_timed; the router object is duck-typed in.  The
# kernels return the edge list of the found path, or None when the
# sink is unreachable (the caller owns the RoutingError message).


def scalar_search(
    router, request, pres_fac: float
) -> Optional[List[Tuple[int, int, int]]]:
    """Reference multi-source A* (untimed): ``_node_cost`` inlined
    into the relaxation loop with the per-connection-constant parts
    hoisted out, so decisions are bit-identical to the pure cost
    model while avoiding a method call per scanned edge."""
    rrg = router.rrg
    target = request.sink
    node_x = rrg.node_x
    node_y = rrg.node_y
    tx, ty = node_x[target], node_y[target]
    net_salt = zlib.crc32(request.net.encode())
    astar_fac = router.astar_fac
    net = request.net
    # Lookahead heuristic: the same scaled per-target list the
    # vectorized kernel reads, so enabling it keeps the two cores
    # bit-identical to each other.
    lookahead = router.lookahead
    lk = (
        lookahead.cost_list_scaled(target, astar_fac)
        if lookahead is not None
        else None
    )
    stats = router.stats
    n_pops = n_pushes = n_settled = 0

    # Per-connection-constant context of the cost model.
    kinds = rrg.node_kind
    caps = rrg.node_capacity
    bases = router._base
    hist = router._hist
    refs_by_mode = [
        (router._occ[mode], router._net_mode_refs.get((net, mode)))
        for mode in request.modes
    ]
    net_affinity = router.net_affinity
    use_net_affinity = net_affinity < 1.0
    other_refs = (
        [
            refs
            for mode in range(router.n_modes)
            if mode not in request.modes
            and (refs := router._net_mode_refs.get((net, mode)))
        ]
        if use_net_affinity
        else []
    )
    bit_affinity = router.bit_affinity
    other_bit_refs = (
        [
            router._bit_refs[mode]
            for mode in range(router.n_modes)
            if mode not in request.modes
        ]
        if bit_affinity < 1.0
        else []
    )
    use_bit_affinity = bool(other_bit_refs)

    row_ptr = router._row_ptr
    edge_dst = router._edge_dst
    edge_bit = router._edge_bit
    dist = router._dist
    dist_epoch = router._dist_epoch
    visited = router._visited_epoch
    parent_node = router._parent_node
    parent_bit = router._parent_bit
    price = router._price
    price_over0 = router._price_over0
    price_noise = router._price_noise
    price_epoch = router._price_epoch
    router._epoch += 1
    epoch = router._epoch
    heappush = heapq.heappush
    heappop = heapq.heappop

    # Multi-source A*: the net's existing route tree (nodes it
    # occupies in every requested mode) is free to start from, so
    # connections naturally branch off their net's trunk.  Beyond
    # the frontier every node costs >= 1, which keeps the Manhattan
    # heuristic admissible.
    starts = {request.source}
    starts.update(router._trunk_nodes(request))
    heap: List[Tuple[float, float, int]] = []
    for start in starts:
        dist[start] = 0.0
        dist_epoch[start] = epoch
        if lk is not None:
            heappush(heap, (lk[start], 0.0, start))
        else:
            dx = node_x[start] - tx
            if dx < 0:
                dx = -dx
            dy = node_y[start] - ty
            if dy < 0:
                dy = -dy
            heappush(heap, (astar_fac * (dx + dy), 0.0, start))
    n_pushes += len(heap)
    found = target in starts
    while heap:
        _f, g, node = heappop(heap)
        n_pops += 1
        if visited[node] == epoch:
            continue
        visited[node] = epoch
        n_settled += 1
        if node == target:
            found = True
            break
        for e in range(row_ptr[node], row_ptr[node + 1]):
            nxt = edge_dst[e]
            if visited[nxt] == epoch:
                continue
            # -- _node_cost, inlined --------------------------------
            # The bit-independent part of a node's price is fixed
            # for the whole search; compute it on first touch and
            # reuse it for every further incoming edge.
            if price_epoch[nxt] == epoch:
                cost = price[nxt]
                overuse_zero = price_over0[nxt]
                noise = price_noise[nxt]
            else:
                kind = kinds[nxt]
                if kind == _SINK and nxt != target:
                    visited[nxt] = epoch  # never enter this sink
                    continue
                cap = caps[nxt]
                overuse = 0
                for occ, refs in refs_by_mode:
                    occ_after = occ[nxt] + (
                        0 if refs is not None and nxt in refs
                        else 1
                    )
                    if occ_after > cap:
                        overuse += occ_after - cap
                cost = (bases[nxt] + hist[nxt]) * (
                    1.0 + pres_fac * overuse
                )
                if (
                    use_net_affinity
                    and kind == _WIRE
                    and overuse == 0
                ):
                    for refs in other_refs:
                        if nxt in refs:
                            cost *= net_affinity
                            break
                noise = (
                    (net_salt ^ (nxt * 0x9E3779B9)) & 0xFFFF
                ) / 0xFFFF
                overuse_zero = overuse == 0
                price[nxt] = cost
                price_over0[nxt] = overuse_zero
                price_noise[nxt] = noise
                price_epoch[nxt] = epoch
            bit = edge_bit[e]
            if use_bit_affinity and bit >= 0 and overuse_zero:
                bit_cost = cost
                for bit_refs in other_bit_refs:
                    if not bit_refs.get(bit):
                        break
                else:
                    bit_cost = cost * bit_affinity
                # Grouped exactly as the reference _node_cost
                # (g + (cost + noise)): float addition is not
                # associative and a one-ULP difference flips
                # equal-cost tie-breaks.
                ng = g + (bit_cost + 0.01 * noise)
            else:
                ng = g + (cost + 0.01 * noise)
            # -------------------------------------------------------
            if dist_epoch[nxt] != epoch or ng < dist[nxt]:
                dist[nxt] = ng
                dist_epoch[nxt] = epoch
                parent_node[nxt] = node
                parent_bit[nxt] = bit
                n_pushes += 1
                if lk is not None:
                    heappush(heap, (ng + lk[nxt], ng, nxt))
                else:
                    dx = node_x[nxt] - tx
                    if dx < 0:
                        dx = -dx
                    dy = node_y[nxt] - ty
                    if dy < 0:
                        dy = -dy
                    heappush(
                        heap, (ng + astar_fac * (dx + dy), ng, nxt)
                    )
    if stats is not None:
        stats.searches += 1
        stats.pops += n_pops
        stats.pushes += n_pushes
        stats.settled += n_settled
    if not found:
        return None
    edges: List[Tuple[int, int, int]] = []
    node = target
    while node not in starts:
        edges.append((parent_node[node], node, parent_bit[node]))
        node = parent_node[node]
    edges.reverse()
    return edges


def scalar_search_timed(
    router, request, pres_fac: float, crit: float
) -> Optional[List[Tuple[int, int, int]]]:
    """Timed twin of :func:`scalar_search`.

    Identical search structure (same scratch arrays, same congestion
    pricing and per-node cache, same trunk seeding), but every edge
    is priced VPR-style as ``crit * delay + (1 - crit) * congestion``
    with ``delay`` the DelayModel edge delay (destination-node
    intrinsic delay plus a switch delay when the edge carries a
    configuration bit).  The A* weight shrinks accordingly, so the
    heuristic stays as admissible as the untimed one."""
    rrg = router.rrg
    target = request.sink
    node_x = rrg.node_x
    node_y = rrg.node_y
    tx, ty = node_x[target], node_y[target]
    net_salt = zlib.crc32(request.net.encode())
    net = request.net
    inv_crit = 1.0 - crit
    model = router.timing.model
    switch_delay = model.switch_delay
    node_delay = router._node_delay
    astar_fac = (
        inv_crit * router.astar_fac + crit * model.wire_delay
    )
    # Lookahead: blend the unscaled cost/delay lower-bound vectors per
    # push — identical expression (and grouping) to the heap kernel's,
    # so both cores stay bit-identical with the lookahead on.
    lookahead = router.lookahead
    if lookahead is not None:
        lkc = lookahead.cost_list(target)
        lkd = lookahead.delay_list(target)
        lk_a = inv_crit * router.astar_fac
        lk_b = crit
    else:
        lkc = lkd = None
        lk_a = lk_b = 0.0
    stats = router.stats
    n_pops = n_pushes = n_settled = 0

    kinds = rrg.node_kind
    caps = rrg.node_capacity
    bases = router._base
    hist = router._hist
    refs_by_mode = [
        (router._occ[mode], router._net_mode_refs.get((net, mode)))
        for mode in request.modes
    ]
    net_affinity = router.net_affinity
    use_net_affinity = net_affinity < 1.0
    other_refs = (
        [
            refs
            for mode in range(router.n_modes)
            if mode not in request.modes
            and (refs := router._net_mode_refs.get((net, mode)))
        ]
        if use_net_affinity
        else []
    )
    bit_affinity = router.bit_affinity
    other_bit_refs = (
        [
            router._bit_refs[mode]
            for mode in range(router.n_modes)
            if mode not in request.modes
        ]
        if bit_affinity < 1.0
        else []
    )
    use_bit_affinity = bool(other_bit_refs)

    row_ptr = router._row_ptr
    edge_dst = router._edge_dst
    edge_bit = router._edge_bit
    dist = router._dist
    dist_epoch = router._dist_epoch
    visited = router._visited_epoch
    parent_node = router._parent_node
    parent_bit = router._parent_bit
    price = router._price
    price_over0 = router._price_over0
    price_noise = router._price_noise
    price_epoch = router._price_epoch
    router._epoch += 1
    epoch = router._epoch
    heappush = heapq.heappush
    heappop = heapq.heappop

    starts = {request.source}
    starts.update(router._trunk_nodes(request))
    heap: List[Tuple[float, float, int]] = []
    for start in starts:
        dist[start] = 0.0
        dist_epoch[start] = epoch
        if lkc is not None:
            heappush(
                heap,
                (lk_a * lkc[start] + lk_b * lkd[start], 0.0, start),
            )
        else:
            dx = node_x[start] - tx
            if dx < 0:
                dx = -dx
            dy = node_y[start] - ty
            if dy < 0:
                dy = -dy
            heappush(heap, (astar_fac * (dx + dy), 0.0, start))
    n_pushes += len(heap)
    found = target in starts
    while heap:
        _f, g, node = heappop(heap)
        n_pops += 1
        if visited[node] == epoch:
            continue
        visited[node] = epoch
        n_settled += 1
        if node == target:
            found = True
            break
        for e in range(row_ptr[node], row_ptr[node + 1]):
            nxt = edge_dst[e]
            if visited[nxt] == epoch:
                continue
            # Congestion price: same per-node cache and the same
            # arithmetic as the untimed loop.
            if price_epoch[nxt] == epoch:
                cost = price[nxt]
                overuse_zero = price_over0[nxt]
                noise = price_noise[nxt]
            else:
                kind = kinds[nxt]
                if kind == _SINK and nxt != target:
                    visited[nxt] = epoch
                    continue
                cap = caps[nxt]
                overuse = 0
                for occ, refs in refs_by_mode:
                    occ_after = occ[nxt] + (
                        0 if refs is not None and nxt in refs
                        else 1
                    )
                    if occ_after > cap:
                        overuse += occ_after - cap
                cost = (bases[nxt] + hist[nxt]) * (
                    1.0 + pres_fac * overuse
                )
                if (
                    use_net_affinity
                    and kind == _WIRE
                    and overuse == 0
                ):
                    for refs in other_refs:
                        if nxt in refs:
                            cost *= net_affinity
                            break
                noise = (
                    (net_salt ^ (nxt * 0x9E3779B9)) & 0xFFFF
                ) / 0xFFFF
                overuse_zero = overuse == 0
                price[nxt] = cost
                price_over0[nxt] = overuse_zero
                price_noise[nxt] = noise
                price_epoch[nxt] = epoch
            bit = edge_bit[e]
            if use_bit_affinity and bit >= 0 and overuse_zero:
                congestion = cost
                for bit_refs in other_bit_refs:
                    if not bit_refs.get(bit):
                        break
                else:
                    congestion = cost * bit_affinity
                congestion += 0.01 * noise
            else:
                congestion = cost + 0.01 * noise
            delay = node_delay[nxt]
            if bit >= 0:
                delay += switch_delay
            ng = g + (inv_crit * congestion + crit * delay)
            if dist_epoch[nxt] != epoch or ng < dist[nxt]:
                dist[nxt] = ng
                dist_epoch[nxt] = epoch
                parent_node[nxt] = node
                parent_bit[nxt] = bit
                n_pushes += 1
                if lkc is not None:
                    heappush(
                        heap,
                        (
                            ng
                            + (lk_a * lkc[nxt] + lk_b * lkd[nxt]),
                            ng,
                            nxt,
                        ),
                    )
                else:
                    dx = node_x[nxt] - tx
                    if dx < 0:
                        dx = -dx
                    dy = node_y[nxt] - ty
                    if dy < 0:
                        dy = -dy
                    heappush(
                        heap, (ng + astar_fac * (dx + dy), ng, nxt)
                    )
    if stats is not None:
        stats.searches += 1
        stats.pops += n_pops
        stats.pushes += n_pushes
        stats.settled += n_settled
    if not found:
        return None
    edges: List[Tuple[int, int, int]] = []
    node = target
    while node not in starts:
        edges.append((parent_node[node], node, parent_bit[node]))
        node = parent_node[node]
    edges.reverse()
    return edges


# -- native heap kernel (vectorized core) ---------------------------------


class _Workspace(ctypes.Structure):
    """Mirror of ``workspace_t`` in ``astar.c``."""

    _fields_ = [
        ("n_nodes", ctypes.c_int64),
        ("n_bits", ctypes.c_int64),
        *[
            (name, ctypes.c_void_p)
            for name in (
                "row_ptr", "sink_ptr", "edge_dst", "edge_bit",
                "node_x", "node_y", "nd", "nds", "dist", "stamp",
                "parent_node", "parent_bit", "heap",
            )
        ],
        ("heap_cap", ctypes.c_int64),
        ("path", ctypes.c_void_p),
        ("path_cap", ctypes.c_int64),
        ("epoch", ctypes.c_int64),
        ("pops", ctypes.c_int64),
        ("pushes", ctypes.c_int64),
        ("settled", ctypes.c_int64),
    ]


if _LIB is not None:
    _astar = _LIB.repro_astar
    _astar.restype = ctypes.c_int64
    _astar.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64,
        ctypes.c_int64, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_void_p, ctypes.c_int, ctypes.c_double,
        ctypes.c_double, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_double,
    ]

_ERRORS = {
    -2: "node id out of range",
    -3: "heap capacity exceeded",
    -4: "path longer than the graph",
    -5: "timed search on a router without node delays",
}


@functools.lru_cache(maxsize=None)
def warn_fallback() -> None:
    """Warn, once per process, that routing falls back to the scalar
    reference because the native kernel is unavailable."""
    warnings.warn(
        f"native search kernel unavailable ({NATIVE_ERROR}); routing "
        "with the slower scalar reference core",
        RuntimeWarning,
        stacklevel=3,
    )


def _address(array) -> Optional[int]:
    """Data pointer of a numpy array (None passes NULL)."""
    return None if array is None else array.ctypes.data


class HeapSearch:
    """Workspace of the native kernel for one routing-resource graph.

    Holds the split CSR view (per node: edges into non-sink nodes,
    then edges into sinks, each in adjacency order — a blocked sink is
    skipped either way and relaxations of different destinations are
    independent, so the split cannot change a decision), the node
    coordinates, the per-node delays of timed routing and the reusable
    search scratch.  Vector arguments of :meth:`search` are data
    pointers, checked by :meth:`vector` and :meth:`static_mask`, so
    callers can cache them with their price vectors.
    """

    def __init__(
        self, rrg, node_delay=None, switch_delay: float = 0.0
    ) -> None:
        if _LIB is None:
            raise RuntimeError(
                f"native search kernel unavailable: {NATIVE_ERROR}"
            )
        n = rrg.n_nodes
        row_ptr, edge_dst, edge_bit = (
            np.asarray(a, np.int64) for a in rrg.neighbor_arrays()
        )
        src = np.repeat(np.arange(n, dtype=np.int64), np.diff(row_ptr))
        to_sink = np.asarray(rrg.node_kind, np.int64)[edge_dst] == _SINK
        order = np.lexsort((to_sink, src))
        self.n_bits = int(edge_bit.max()) + 1 if edge_bit.size else 0
        arrays = {
            "row_ptr": row_ptr,
            "sink_ptr": row_ptr[:-1]
            + np.bincount(src[~to_sink], minlength=n),
            "edge_dst": edge_dst[order],
            "edge_bit": edge_bit[order],
            "node_x": np.asarray(rrg.node_x, np.int64),
            "node_y": np.asarray(rrg.node_y, np.int64),
            "dist": np.empty(n, np.float64),
            "stamp": np.zeros(n, np.int64),
            "parent_node": np.empty(n, np.int64),
            "parent_bit": np.empty(n, np.int64),
            # (f, g, node) entries; every settled node pushes at most
            # its fan-out, so starts plus edges bound the heap.
            "heap": np.empty(3 * (n + edge_dst.size + 1), np.float64),
            "path": np.empty(3 * max(n, 1), np.int64),
        }
        if node_delay is not None:
            nd = np.asarray(node_delay, np.float64)
            arrays["nd"] = nd
            arrays["nds"] = nd + switch_delay
        self._arrays = arrays
        ws = _Workspace(n_nodes=n, n_bits=self.n_bits)
        for name, array in arrays.items():
            setattr(ws, name, _address(array))
        ws.heap_cap = n + edge_dst.size + 1
        ws.path_cap = n
        self._ws = ws
        self._ws_addr = ctypes.addressof(ws)
        self._starts = np.empty(n, np.int64)
        self._starts_addr = _address(self._starts)
        self._path = arrays["path"]

    def vector(self, array) -> Optional[int]:
        """Data pointer of a per-node ``float64`` vector, after checking
        its dtype, length and layout (None passes NULL).  The caller
        keeps *array* alive while the pointer is in use."""
        if array is None:
            return None
        if (
            array.dtype != np.float64
            or array.shape != (self._ws.n_nodes,)
            or not array.flags.c_contiguous
        ):
            raise ValueError(
                f"expected a contiguous float64 vector of "
                f"{self._ws.n_nodes} nodes, got {array.dtype} "
                f"{array.shape}"
            )
        return array.ctypes.data

    def static_mask(self, static_set) -> Tuple["np.ndarray", int]:
        """``uint8`` mask over bit ids, 1 for the bits in
        *static_set*, and its data pointer."""
        mask = np.zeros(self.n_bits, np.uint8)
        mask[np.fromiter(static_set, np.int64, len(static_set))] = 1
        return mask, mask.ctypes.data

    def search(
        self,
        starts,
        target: int,
        pn: int,
        pnA: int,
        mask: Optional[int] = None,
        timed: bool = False,
        crit: float = 0.0,
        fac: float = 0.0,
        hc: Optional[int] = None,
        hd: Optional[int] = None,
        lk_a: float = 0.0,
        stats: Optional[RouterStats] = None,
    ) -> Optional[List[Tuple[int, int, int]]]:
        """One multi-source A* search; the path's ``(from, to, bit)``
        edges, or None when *target* is unreachable.

        Untimed, an edge costs ``pn[v]`` (``pnA[v]`` when its bit is
        set in *mask*); timed, ``inv_crit * that + crit * delay``.
        The heuristic is ``fac * manhattan(v, target)``, or the
        lookahead: ``hc[v]`` alone (untimed, pre-scaled) or
        ``lk_a * hc[v] + crit * hd[v]`` (timed).  Raises
        ``RuntimeError`` on out-of-range input."""
        k = len(starts)
        self._starts[:k] = list(starts)
        m = _astar(
            self._ws_addr, self._starts_addr, k, target, pn, pnA,
            mask, timed, crit, fac, hc, hd, lk_a,
        )
        if m < -1:
            raise RuntimeError(f"native search kernel: {_ERRORS[m]}")
        if stats is not None:
            ws = self._ws
            stats.searches += 1
            stats.pops += ws.pops
            stats.pushes += ws.pushes
            stats.settled += ws.settled
        if m < 0:
            return None
        flat = self._path[: 3 * m].tolist()
        return list(zip(flat[0::3], flat[1::3], flat[2::3]))
