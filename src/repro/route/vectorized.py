"""Vectorized PathFinder negotiation core (numpy pricing, native search).

:class:`VectorizedPathFinderRouter` re-implements the connection
search of :class:`~repro.route.router.PathFinderRouter` around a
simple observation: during one connection search the congestion state
is frozen — occupancy, history, the net's own reference counts and the
bit-sharing reference counts only change *between* searches.  A node's
price is therefore a pure function of the node for the whole search,
so instead of pricing nodes lazily one dict probe at a time, the
router prices the **entire graph at once** as numpy array math:

``price = (base + history) * (1 + pres_fac * overuse) [* affinities]``
``edge cost = crit * delay + (1 - crit) * (price + noise)``

The search itself is the native exact A* kernel
(:class:`~repro.route.searchkernel.HeapSearch`), which reads the price
vectors, a ``uint8`` mask of the static bits, the split CSR graph, the
node coordinates and the per-node delays in place and computes the
Manhattan heuristic ``astar_fac * (|dx| + |dy|)`` inline.  The
bit-sharing discount's occupancy gate is folded into the discounted
price vector itself (``where(overused, plain, discounted)``), so the
kernel only tests the edge's bit against the mask.

**Bit identity.**  Every float expression keeps the reference
implementation's exact operation order and grouping (float addition is
not associative; a one-ULP difference flips equal-cost tie-breaks), so
the vectorized search makes byte-identical decisions: identical
routes, wirelength, iteration counts, search counters and
cached-result pickles.  The only structural liberty taken is scanning
a node's sink-bound edges after its other edges — legal because a
blocked sink is skipped either way, relaxations of different
destination nodes are independent, and the heap pops entries in value
order regardless of push order.  The A/B property test
(``tests/test_router_equivalence.py``) asserts bit-identity across
circuit families, pricing modes and connection shapes, and
``REPRO_SCALAR_ROUTER=1`` swaps the scalar reference back in at
construction time (the nightly CI runs the whole tier-1 suite that way
so the reference path cannot rot).

**Price-vector reuse.**  Connections of one net route consecutively,
and adding or removing a route of the *same net* whose activation set
is a subset of a priced connection's cannot change that connection's
prices: for every mode the route and the pricing context share,
occupancy and the net's own reference counts move together, so
``occ_after = occ + (0 if already else 1)`` is invariant; modes
outside the route's set are untouched, and a subset activation set
cannot reach the pricing context's *other*-mode affinity state.  The
router therefore keeps one price entry per activation set of the
current net (TRoute requests mix ``{0}``, ``{1}`` and ``{0, 1}``
connections of one net), drops an entry only when an update escapes
its subset guarantee, and clears the lot when the net or the
present-cost factor moves on or when the negotiation loop raises
history costs (the ``_history_updated`` hook — ``pres_fac`` alone
would not cover it, since ``pres_fac_mult`` may be 1.0) — one vector
build prices a whole net's fan-out.
"""

from __future__ import annotations

import zlib
from typing import Dict, FrozenSet, Optional, Tuple

import numpy as np

from repro.arch.rrg import WIRE
from repro.route.router import (
    ConnectionRoute,
    PathFinderRouter,
    RouteRequest,
    RoutingError,
)
from repro.route.searchkernel import HeapSearch

#: Knuth's multiplicative-hash constant — must match the scalar
#: reference's per-(net, node) tie-break jitter exactly.
_NOISE_MUL = 0x9E3779B9


class VectorizedPathFinderRouter(PathFinderRouter):
    """PathFinder with array-level pricing; bit-identical to scalar.

    Everything outside pricing and the search (occupancy bookkeeping,
    the negotiation main loop, bit-sharing sweeps, trunk seeding) is
    inherited; only the containers the array math reads — occupancy
    and history — become numpy arrays.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        rrg = self.rrg
        n = rrg.n_nodes
        # numpy twins of the congestion state.  Scalar bookkeeping
        # (`occ[node] += 1`) works unchanged on them; the price build
        # reads them whole.
        self._occ = [
            np.zeros(n, dtype=np.int64) for _ in range(self.n_modes)
        ]
        self._hist = np.zeros(n, dtype=np.float64)
        # Immutable per-graph vectors.
        self._np_base = np.asarray(self._base, dtype=np.float64)
        self._np_cap = np.asarray(rrg.node_capacity, dtype=np.int64)
        self._wire_mask = (
            np.asarray(rrg.node_kind, dtype=np.int64) == WIRE
        )
        # Per-node part of the tie-break jitter; XORing the net salt
        # in is the only per-search step.
        self._noise_mul = np.arange(n, dtype=np.int64) * _NOISE_MUL
        switch_delay = (
            self.timing.model.switch_delay if self.timing else 0.0
        )
        self._kernel = HeapSearch(rrg, self._node_delay, switch_delay)
        # Per-net noise vector (nets route consecutively, so a
        # one-entry cache hits for every connection after the first).
        self._noise_salt: Optional[int] = None
        self._noise01: Optional[np.ndarray] = None
        # Price entries of the current (net, pres_fac), one per
        # activation set; see the module docstring for the
        # reuse-safety argument behind _invalidate_prices.
        self._price_net: Optional[str] = None
        self._price_pres: Optional[float] = None
        self._price_entries: Dict[FrozenSet[int], Tuple] = {}
        self._n_nodes = n

    def _init_scratch(self, n: int) -> None:
        """The native kernel keeps its own scratch (see
        :class:`~repro.route.searchkernel.HeapSearch`), so the scalar
        core's nine O(n) scratch arrays are never allocated here."""

    # -- cache invalidation --------------------------------------------------

    def _history_updated(self) -> None:
        # Price vectors fold history costs in; entries built against
        # the old history are stale the moment the negotiation loop
        # raises it.  (The (net, pres_fac) key alone does not cover
        # this: pres_fac_mult may be 1.0.)
        self._price_entries.clear()

    def _invalidate_prices(self, route: ConnectionRoute) -> None:
        entries = self._price_entries
        if not entries:
            return
        if route.request.net != self._price_net:
            entries.clear()
            return
        modes = route.request.modes
        for key in [k for k in entries if not modes <= k]:
            del entries[key]

    def _add_route(self, route: ConnectionRoute) -> None:
        super()._add_route(route)
        self._invalidate_prices(route)

    def _remove_route(self, route: ConnectionRoute) -> None:
        super()._remove_route(route)
        self._invalidate_prices(route)

    def _rebuild_state(
        self, routes: Dict[int, ConnectionRoute]
    ) -> None:
        self._price_entries.clear()
        for occ in self._occ:
            occ[:] = 0
        self._net_mode_refs.clear()
        self._overused.clear()
        for refs in self._bit_refs:
            refs.clear()
        for route in routes.values():
            self._add_route(route)

    # -- array-level pricing -------------------------------------------------

    def _price_arrays(
        self, request: RouteRequest, pres_fac: float
    ):
        """Whole-graph numpy price state of one connection search.

        Returns ``(pn_np, pnA_np, static_set)`` where
        ``pn = cost + 0.01 * noise`` (the additive edge term of the
        untimed loop), ``pnA`` its bit-affinity-discounted twin
        *already gated on zero overuse* (``pnA == pn`` wherever the
        node is overused, exactly like the scalar guard; None when no
        discount can apply), and ``static_set`` the switch bits
        currently on in every mode outside the activation set.  Every
        expression mirrors the scalar reference's grouping.
        """
        net = request.net
        modes = request.modes
        salt = zlib.crc32(net.encode())
        if self._noise_salt != salt:
            # Same ints, same single division, same 0.01 scale as the
            # scalar `0.01 * (((salt ^ node*MUL) & 0xFFFF) / 0xFFFF)`.
            self._noise01 = 0.01 * (
                ((self._noise_mul ^ salt) & 0xFFFF) / 0xFFFF
            )
            self._noise_salt = salt
        noise01 = self._noise01

        cap = self._np_cap
        overuse: Optional[np.ndarray] = None
        for mode in modes:
            # occ_after = occ + (0 if net already there else 1);
            # overuse accumulates max(occ_after - cap, 0) per mode.
            occ_after = self._occ[mode] + 1
            refs = self._net_mode_refs.get((net, mode))
            if refs:
                occ_after[
                    np.fromiter(refs.keys(), np.int64, len(refs))
                ] -= 1
            occ_after -= cap
            np.maximum(occ_after, 0, out=occ_after)
            overuse = (
                occ_after if overuse is None else overuse + occ_after
            )
        cost = (self._np_base + self._hist) * (
            1.0 + pres_fac * overuse
        )
        if self.net_affinity < 1.0:
            other: set = set()
            for mode in range(self.n_modes):
                if mode not in modes:
                    refs = self._net_mode_refs.get((net, mode))
                    if refs:
                        other.update(refs.keys())
            if other:
                idx = np.fromiter(other, np.int64, len(other))
                sel = idx[
                    self._wire_mask[idx] & (overuse[idx] == 0)
                ]
                cost[sel] *= self.net_affinity

        pn_np = cost + noise01
        pnA_np = None
        static_set: set = set()
        if self.bit_affinity < 1.0 and len(modes) < self.n_modes:
            static = None
            for mode in range(self.n_modes):
                if mode in modes:
                    continue
                bits = self._bit_refs[mode].keys()
                static = (
                    set(bits) if static is None
                    else static & set(bits)
                )
                if not static:
                    break
            static_set = static or set()
            # No discountable bit means no edge can diverge from the
            # plain price — skip the discounted twin entirely.
            if static_set:
                pnA_np = np.where(
                    overuse == 0,
                    cost * self.bit_affinity + noise01,
                    pn_np,
                )
        return pn_np, pnA_np, static_set

    def _make_price_entry(
        self, request: RouteRequest, pres_fac: float
    ) -> Tuple:
        """Build one cached price entry: the numpy vectors (kept alive
        here) and their data pointers for the native kernel.  Without
        a live bit discount the kernel gets ``pnA = pn`` and no mask,
        which evaluates the exact no-discount expressions."""
        kernel = self._kernel
        pn, pnA, static_set = self._price_arrays(request, pres_fac)
        if pnA is None:
            return (pn,), kernel.vector(pn), kernel.vector(pn), None
        mask, mask_ptr = kernel.static_mask(static_set)
        return (
            (pn, pnA, mask), kernel.vector(pn), kernel.vector(pnA),
            mask_ptr,
        )

    def _price_vectors(
        self, request: RouteRequest, pres_fac: float
    ) -> Tuple:
        """Cached price entry per activation set of the current
        (net, pres_fac) — see the module docstring for the
        reuse-safety argument behind ``_invalidate_prices``."""
        net = request.net
        modes = request.modes
        if (
            net != self._price_net
            or pres_fac != self._price_pres
        ):
            self._price_entries.clear()
            self._price_net = net
            self._price_pres = pres_fac
        entry = self._price_entries.get(modes)
        if entry is None:
            entry = self._make_price_entry(request, pres_fac)
            self._price_entries[modes] = entry
        return entry

    # -- search --------------------------------------------------------------

    def _route_connection(
        self, request: RouteRequest, pres_fac: float
    ) -> ConnectionRoute:
        """Native twin of the scalar multi-source A* searches: untimed,
        or criticality-blended (``g + (inv_crit * congestion + crit *
        delay)``, the scalar grouping) for a timing-critical
        connection.  The heuristic is the Manhattan distance scaled by
        the (blended) A* weight, computed inline by the kernel, or the
        lookahead's per-target vectors."""
        crit = 0.0
        if self.timing is not None:
            crit = self.timing.criticality.get(request.conn_id, 0.0)
        _arrays, pn, pnA, mask = self._price_vectors(request, pres_fac)
        target = request.sink
        lookahead = self.lookahead
        # The lookahead vectors stay referenced by these locals for
        # the duration of the call (their cache may evict them).
        hc_arr = hd_arr = None
        lk_a = 0.0
        if crit > 0.0:
            inv_crit = 1.0 - crit
            fac = (
                inv_crit * self.astar_fac
                + crit * self.timing.model.wire_delay
            )
            if lookahead is not None:
                hc_arr = lookahead.cost_array(target)
                hd_arr = lookahead.delay_array(target)
                lk_a = inv_crit * self.astar_fac
        else:
            fac = self.astar_fac
            if lookahead is not None:
                hc_arr = lookahead.cost_array_scaled(target, fac)
        kernel = self._kernel
        edges = kernel.search(
            self._seed(request), target, pn, pnA, mask,
            crit > 0.0, crit, fac, kernel.vector(hc_arr),
            kernel.vector(hd_arr), lk_a, self.stats,
        )
        if edges is None:
            raise self._no_path(request)
        return ConnectionRoute(request, edges)

    def _seed(self, request: RouteRequest) -> set:
        """Start set (source + the net's trunk) of one search."""
        starts = {request.source}
        starts.update(self._trunk_nodes(request))
        return starts

    def _no_path(self, request: RouteRequest) -> RoutingError:
        rrg = self.rrg
        return RoutingError(
            f"no path from {rrg.describe(request.source)} to "
            f"{rrg.describe(request.sink)}"
        )
