"""Scalar / vectorized router equivalence (the bit-identity contract).

The vectorized negotiation core (:mod:`repro.route.vectorized`, numpy
pricing plus the native search kernel) must make byte-identical
decisions to the scalar reference in :mod:`repro.route.router`:
identical edge lists, wirelength, iteration counts and bit sets, and
identical search counters (searches, pops, pushes, settled), across
circuit families, pricing modes (untimed, timing-driven), affinity
settings, lookahead and multi-mode activation shapes.  These tests
route the same workloads through both cores and compare results field
by field.
"""

import os

import pytest

from repro.arch.architecture import size_for_circuits
from repro.arch.rrg import build_rrg
from repro.core.combined_placement import merge_with_combined_placement
from repro.core.merge import MergeStrategy
from repro.core.flow import FlowOptions
from repro.gen.spec import build_circuit
from repro.gen.suites import suite_pair_specs
from repro.place.placer import place_circuit
from repro.route.lookahead import build_lookahead
from repro.route.router import (
    PathFinderRouter,
    RouteRequest,
    RoutingError,
    ScalarPathFinderRouter,
    scalar_router_forced,
)
from repro.route.searchkernel import HeapSearch, RouterStats
from repro.route.troute import (
    lut_circuit_connections,
    requests_from_connections,
    route_lut_circuit,
    route_tunable_circuit,
)
from repro.route.vectorized import VectorizedPathFinderRouter

FAMILIES = ("datapath", "fsm", "xbar", "klut")


def _assert_identical(a, b):
    """Two RoutingResults must match bit for bit."""
    assert a.iterations == b.iterations
    assert a.n_modes == b.n_modes
    assert a.routes.keys() == b.routes.keys()
    for conn_id in a.routes:
        ra, rb = a.routes[conn_id], b.routes[conn_id]
        assert ra.request == rb.request
        assert ra.edges == rb.edges, f"connection {conn_id} diverged"
    for mode in range(a.n_modes):
        assert a.bits_on(mode) == b.bits_on(mode)
        assert a.total_wirelength(mode) == b.total_wirelength(mode)


def _pair_fixture(family, seed=0):
    pair_name, specs = suite_pair_specs(
        family, seed=seed, k=4, scale="tiny", limit=1
    )[0]
    modes = [build_circuit(spec) for spec in specs]
    ios = set()
    for circuit in modes:
        ios.update(circuit.inputs)
        ios.update(circuit.outputs)
    arch = size_for_circuits(
        max(c.n_luts() for c in modes), len(ios), k=4,
        channel_width=8, slack=1.2,
    )
    rrg = build_rrg(arch)
    schedule = FlowOptions(seed=seed, inner_num=0.1).schedule()
    placements = [
        place_circuit(c, arch, seed=seed + i, schedule=schedule)
        for i, c in enumerate(modes)
    ]
    return pair_name, modes, arch, rrg, placements, schedule


class TestDispatch:
    def test_default_is_vectorized(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALAR_ROUTER", raising=False)
        _n, _m, _a, rrg, _p, _s = _pair_fixture("xbar")
        assert isinstance(
            PathFinderRouter(rrg), VectorizedPathFinderRouter
        )
        assert not scalar_router_forced()

    def test_env_escape_hatch_selects_scalar(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALAR_ROUTER", "1")
        _n, _m, _a, rrg, _p, _s = _pair_fixture("xbar")
        router = PathFinderRouter(rrg)
        assert type(router) is PathFinderRouter
        assert scalar_router_forced()

    def test_explicit_classes_ignore_env(self, monkeypatch):
        _n, _m, _a, rrg, _p, _s = _pair_fixture("xbar")
        monkeypatch.setenv("REPRO_SCALAR_ROUTER", "1")
        assert isinstance(
            VectorizedPathFinderRouter(rrg),
            VectorizedPathFinderRouter,
        )
        monkeypatch.delenv("REPRO_SCALAR_ROUTER")
        assert type(ScalarPathFinderRouter(rrg)) is (
            ScalarPathFinderRouter
        )


class TestLutEquivalence:
    """Single-mode (MDR-style) routing, untimed and timing-driven."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_untimed(self, family, monkeypatch):
        _n, modes, _arch, rrg, placements, _s = _pair_fixture(family)
        for circuit, placement in zip(modes, placements):
            monkeypatch.setenv("REPRO_SCALAR_ROUTER", "1")
            scalar = route_lut_circuit(circuit, placement, rrg)
            monkeypatch.delenv("REPRO_SCALAR_ROUTER")
            vector = route_lut_circuit(circuit, placement, rrg)
            _assert_identical(scalar, vector)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_timing_driven(self, family, monkeypatch):
        timing = FlowOptions(
            seed=0, inner_num=0.1, timing_driven=True
        ).criticality()
        _n, modes, _arch, rrg, placements, _s = _pair_fixture(family)
        for circuit, placement in zip(modes, placements):
            monkeypatch.setenv("REPRO_SCALAR_ROUTER", "1")
            scalar = route_lut_circuit(
                circuit, placement, rrg, timing=timing
            )
            monkeypatch.delenv("REPRO_SCALAR_ROUTER")
            vector = route_lut_circuit(
                circuit, placement, rrg, timing=timing
            )
            _assert_identical(scalar, vector)


class TestTunableEquivalence:
    """Multi-mode TRoute with net/bit affinities and sharing sweeps —
    the pricing paths the scalar reference exercises per edge."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_troute(self, family):
        name, modes, arch, rrg, _p, schedule = _pair_fixture(family)
        tunable, _ = merge_with_combined_placement(
            name, modes, arch,
            strategy=MergeStrategy.WIRE_LENGTH, seed=0,
            schedule=schedule,
        )
        conns = tunable.site_connections()
        kwargs = dict(
            net_affinity=0.5, bit_affinity=0.3, sharing_passes=2
        )
        os.environ["REPRO_SCALAR_ROUTER"] = "1"
        try:
            scalar = route_tunable_circuit(
                rrg, conns, len(modes), **kwargs
            )
        finally:
            os.environ.pop("REPRO_SCALAR_ROUTER", None)
        vector = route_tunable_circuit(
            rrg, conns, len(modes), **kwargs
        )
        _assert_identical(scalar, vector)

    def test_mixed_activation_sets(self):
        """Connections with {0}, {1} and {0, 1} activation sets of
        the *same* nets stress the price-entry subset invalidation."""
        name, modes, arch, rrg, placements, _s = _pair_fixture(
            "datapath"
        )
        conns = []
        for mode, (circuit, placement) in enumerate(
            zip(modes, placements)
        ):
            for net, src, dst, _m in lut_circuit_connections(
                circuit, placement, mode=mode
            ):
                # Fold per-mode nets onto shared names so one net
                # carries different activation sets.
                shared = net.split(":", 1)[1]
                conns.append((shared, src, dst, frozenset((mode,))))
        requests = requests_from_connections(rrg, conns)
        scalar = ScalarPathFinderRouter(
            rrg, n_modes=2, net_affinity=0.6, bit_affinity=0.4,
            sharing_passes=1,
        ).route(requests)
        vector = VectorizedPathFinderRouter(
            rrg, n_modes=2, net_affinity=0.6, bit_affinity=0.4,
            sharing_passes=1,
        ).route(requests)
        _assert_identical(scalar, vector)

    def test_constant_pres_fac_history_invalidation(self):
        """With pres_fac_mult=1.0 the present-cost factor never
        changes, so only the _history_updated hook keeps the price
        cache from serving vectors built against stale history costs
        (regression: the cache key alone relied on pres_fac moving
        with every history bump)."""
        from repro.arch.architecture import FpgaArchitecture
        from repro.route.router import RouteRequest

        # A congested crossing that needs several negotiation
        # iterations (history must accumulate).
        arch = FpgaArchitecture(nx=4, ny=4, channel_width=4, k=4)
        g = build_rrg(arch)
        reqs = []
        cid = 0
        for x in range(1, 5):
            reqs.append(RouteRequest(
                cid, f"d{cid}", g.clb_opin[(x, 1)],
                g.clb_sink[(5 - x, 4)], frozenset((0,)),
            ))
            cid += 1
            reqs.append(RouteRequest(
                cid, f"d{cid}", g.clb_opin[(x, 4)],
                g.clb_sink[(5 - x, 1)], frozenset((0,)),
            ))
            cid += 1
        kwargs = dict(pres_fac_mult=1.0, pres_fac_first=1.0,
                      acc_fac=2.0, max_iterations=40)
        scalar = ScalarPathFinderRouter(g, **kwargs).route(reqs)
        vector = VectorizedPathFinderRouter(g, **kwargs).route(reqs)
        assert scalar.iterations > 1  # history actually negotiated
        _assert_identical(scalar, vector)

    def test_unroutable_raises_in_both(self):
        from repro.arch.architecture import FpgaArchitecture
        from repro.route.router import RouteRequest

        arch = FpgaArchitecture(nx=2, ny=2, channel_width=1, k=4)
        g = build_rrg(arch)
        reqs = [
            RouteRequest(i, f"n{i}", g.clb_opin[(1 + i % 2, 1)],
                         g.clb_sink[(2, 2)], frozenset((0,)))
            for i in range(4)
        ] + [
            RouteRequest(4, "p", g.pad_opin[(1, 0, 0)],
                         g.clb_sink[(2, 2)], frozenset((0,))),
        ]
        with pytest.raises(RoutingError):
            ScalarPathFinderRouter(g, max_iterations=4).route(reqs)
        with pytest.raises(RoutingError):
            VectorizedPathFinderRouter(
                g, max_iterations=4
            ).route(reqs)


def _counters(stats):
    return (stats.searches, stats.pops, stats.pushes, stats.settled)


@pytest.fixture
def native_calls(monkeypatch):
    """Record what every native search saw: ``(n_starts, timed,
    static mask, lookahead)``."""
    calls = []
    search = HeapSearch.search

    def spy(self, starts, target, pn, pnA, mask, timed, crit, fac, hc,
            *rest):
        calls.append((len(starts), timed, mask is not None,
                      hc is not None))
        return search(self, starts, target, pn, pnA, mask, timed, crit,
                      fac, hc, *rest)

    monkeypatch.setattr(HeapSearch, "search", spy)
    return calls


def _scalar_then_native(monkeypatch, route):
    """``route(stats)`` under the forced scalar reference, then under
    the default (native) dispatch; both results must match exactly,
    search counters included."""
    runs = []
    for forced in (True, False):
        if forced:
            monkeypatch.setenv("REPRO_SCALAR_ROUTER", "1")
        else:
            monkeypatch.delenv("REPRO_SCALAR_ROUTER", raising=False)
        stats = RouterStats()
        runs.append((route(stats), stats))
    (scalar, scalar_stats), (native, native_stats) = runs
    _assert_identical(scalar, native)
    assert _counters(scalar_stats) == _counters(native_stats)
    assert native_stats.pops >= native_stats.settled > 0


class TestNativeCounters:
    """Native kernel vs scalar reference: routes *and* the RouterStats
    counters (the pop-count identity the benchmark's per-layer
    counters rely on)."""

    @pytest.mark.parametrize("timed", [False, True], ids=["untimed", "timed"])
    @pytest.mark.parametrize("lookahead", [False, True],
                             ids=["manhattan", "lookahead"])
    def test_lut_routing(self, timed, lookahead, monkeypatch,
                         native_calls):
        timing = (
            FlowOptions(seed=0, inner_num=0.1, timing_driven=True)
            .criticality() if timed else None
        )
        _n, modes, _a, rrg, placements, _s = _pair_fixture("datapath")
        kwargs = {}
        if lookahead:
            kwargs["lookahead"] = build_lookahead(
                rrg, timing.model if timed else None
            )
        _scalar_then_native(
            monkeypatch,
            lambda stats: route_lut_circuit(
                modes[0], placements[0], rrg, timing=timing,
                stats=stats, **kwargs,
            ),
        )
        assert any(call[1] is timed for call in native_calls)
        assert all(call[3] is lookahead for call in native_calls)

    def test_bit_sharing_and_trunk_starts(self, monkeypatch,
                                          native_calls):
        name, modes, arch, rrg, _p, schedule = _pair_fixture("datapath")
        tunable, _ = merge_with_combined_placement(
            name, modes, arch,
            strategy=MergeStrategy.WIRE_LENGTH, seed=0,
            schedule=schedule,
        )
        conns = tunable.site_connections()
        _scalar_then_native(
            monkeypatch,
            lambda stats: route_tunable_circuit(
                rrg, conns, len(modes), net_affinity=0.5,
                bit_affinity=0.3, sharing_passes=2, stats=stats,
            ),
        )
        # The discount was live (a non-empty static mask) and
        # connections started from their net's trunk.
        assert any(call[2] for call in native_calls)
        assert any(call[0] > 1 for call in native_calls)

    def test_unreachable_sink_same_error(self):
        from repro.arch.architecture import FpgaArchitecture

        g = build_rrg(FpgaArchitecture(nx=2, ny=2, channel_width=2, k=4))
        # A sink has no fan-out: a search starting at one reaches
        # nothing.
        request = RouteRequest(
            0, "n", g.clb_sink[(1, 1)], g.clb_sink[(2, 2)],
            frozenset((0,)),
        )
        outcomes = []
        for core in (ScalarPathFinderRouter, VectorizedPathFinderRouter):
            stats = RouterStats()
            with pytest.raises(RoutingError) as info:
                core(g, stats=stats).route([request])
            outcomes.append((str(info.value), _counters(stats)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0].startswith("no path from ")
