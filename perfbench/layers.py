"""Which repro entry points the traced run wraps, and their metrics.

Every wrapped name is the attribute the flow looks up at call time,
so the trace follows the real code path:

========================  =============================================
span                      wrapped attribute
========================  =============================================
``gen.build``             ``repro.gen.spec.build_circuit`` (the
                          benchmark's own set-up calls; synthesis runs
                          inside it)
``arch.build_rrg``        ``repro.core.flow.build_rrg``
``place.place``           ``repro.core.flow.place_circuit``
``core.combined_place``   ``repro.core.flow.merge_with_combined_placement``
``core.tplace``           ``repro.core.flow.tplace``
``route.lut``             ``repro.core.flow.route_lut_circuit``
``route.troute``          ``repro.core.flow.route_tunable_circuit``
``timing.criticality``    ``repro.timing.criticality``'s
                          ``lut_connection_criticalities``,
                          ``tunable_connection_criticalities`` and
                          ``PlacementTimingCost.refresh_criticalities``
``timing.sta``            ``repro.timing.sta``'s ``mdr_arc_delays``,
                          ``dcs_arc_delays``, ``routed_critical_path``
``exec.cache.get/put``    ``StageCache.get`` / ``StageCache.put``
``exec.fingerprint``      ``StageCache.key``
========================  =============================================
"""

from __future__ import annotations

import statistics
from typing import Dict, List

from perfbench.spans import Span, Tracer, layer_totals

LAYER_SPANS = (
    "gen.build", "arch.build_rrg", "place.place", "core.combined_place",
    "core.tplace", "route.lut", "route.troute", "timing.criticality",
    "timing.sta", "exec.cache.get", "exec.cache.put", "exec.fingerprint",
)

#: Per-layer metrics reported by every ``--trace 1`` run, with units.
PER_LAYER_METRICS = {
    "route.troute_s": "s",
    "route.troute.pops": "count",
    "route.troute.pushes": "count",
    "route.troute.searches": "count",
    "route.troute.iterations": "count",
    "route.troute.settled_ratio": "ratio",
    "route.pops_per_s": "1/s",
    "route.lut_s": "s",
    "route.lut.pops": "count",
    "route.lut.searches": "count",
    "route.lut.iterations": "count",
    "place.place_s": "s",
    "place.moves": "count",
    "place.accept_ratio": "ratio",
    "core.combined_place_s": "s",
    "core.combined_place.moves": "count",
    "core.tplace_s": "s",
    "core.tplace.moves": "count",
    "timing.criticality_s": "s",
    "timing.sta_s": "s",
    "arch.build_rrg_s": "s",
    "arch.rrg_nodes": "count",
    "gen.build_s": "s",
    "exec.cache.get_ms": "ms",
    "exec.cache.put_ms": "ms",
    "exec.cache.hits": "count",
    "exec.cache.misses": "count",
    "exec.cache.corrupt": "count",
    "exec.cache.hit_ratio": "ratio",
    "exec.fingerprint_ms": "ms",
    "exec.jobs.queue_wait_ms": "ms",
    "exec.jobs.service_ms": "ms",
    "serve.submit_ms": "ms",
    "serve.result_ms": "ms",
    "serve.dedup_ratio": "ratio",
    "serve.latency_ms.p95": "ms",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.uncovered_frac": "ratio",
}


def _router_before(args: tuple, kwargs: dict) -> None:
    from repro.route.searchkernel import RouterStats

    kwargs.setdefault("stats", RouterStats())


def _router_after(result, args, kwargs, _token) -> Dict[str, float]:
    stats = kwargs["stats"]
    return {
        "pops": stats.pops,
        "pushes": stats.pushes,
        "searches": stats.searches,
        "settled": stats.settled,
        "iterations": result.iterations,
    }


def _anneal_counters(stats) -> Dict[str, float]:
    if stats is None:
        return {}
    return {"moves": stats.n_moves, "accepted": stats.n_accepted}


def install_flow_layers(tracer: Tracer) -> None:
    """Wrap the place, route, arch, timing and gen entry points."""
    import repro.core.flow as flow
    import repro.gen.spec as spec
    import repro.timing.criticality as criticality
    import repro.timing.sta as sta

    tracer.wrap(spec, "build_circuit", "gen.build")
    tracer.wrap(
        flow, "build_rrg", "arch.build_rrg",
        after=lambda rrg, a, k, t: {"nodes": rrg.n_nodes},
    )
    tracer.wrap(
        flow, "place_circuit", "place.place",
        after=lambda out, a, k, t: _anneal_counters(out.stats),
    )
    tracer.wrap(
        flow, "merge_with_combined_placement", "core.combined_place",
        after=lambda out, a, k, t: _anneal_counters(out[1].stats),
    )
    tracer.wrap(
        flow, "tplace", "core.tplace",
        after=lambda stats, a, k, t: _anneal_counters(stats),
    )
    for attr, name in (
        ("route_lut_circuit", "route.lut"),
        ("route_tunable_circuit", "route.troute"),
    ):
        tracer.wrap(flow, attr, name, before=_router_before,
                    after=_router_after)
    for attr in (
        "lut_connection_criticalities", "tunable_connection_criticalities"
    ):
        tracer.wrap(criticality, attr, "timing.criticality")
    tracer.wrap(
        criticality.PlacementTimingCost, "refresh_criticalities",
        "timing.criticality",
    )
    for attr in ("mdr_arc_delays", "dcs_arc_delays",
                 "routed_critical_path"):
        tracer.wrap(sta, attr, "timing.sta")


def install_exec_layers(tracer: Tracer) -> None:
    """Wrap the stage cache's get/put/key (the exec layer)."""
    from repro.exec.cache import StageCache

    def get_before(args, kwargs) -> int:
        return args[0].stats.corrupt

    def get_after(out, args, kwargs, corrupt_before) -> Dict[str, float]:
        return {
            "hit": int(out[0]),
            "corrupt": args[0].stats.corrupt - corrupt_before,
        }

    tracer.wrap(StageCache, "get", "exec.cache.get", before=get_before,
                after=get_after)
    tracer.wrap(StageCache, "put", "exec.cache.put")
    tracer.wrap(StageCache, "key", "exec.fingerprint")


def _median_ms(values: List[float]) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


def layer_metrics(
    spans: List[Span], n_flows: int, n_builds: int
) -> Dict[str, float]:
    """Per-layer metrics from a traced pass.

    Seconds are self time per flow (``gen.build_s`` per circuit
    build); counters are per flow; ``*_ms`` are medians per call.
    """
    totals = layer_totals(spans, LAYER_SPANS)
    per_flow = max(1, n_flows)

    def secs(name: str) -> float:
        return totals[name]["self"] / per_flow

    def count(name: str, key: str) -> float:
        return totals[name].get(key, 0) / per_flow

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    troute, lut = totals["route.troute"], totals["route.lut"]
    place = totals["place.place"]
    gets = [s for s in spans if s.name == "exec.cache.get"]
    hits = sum(s.counters.get("hit", 0) for s in gets)
    corrupt = sum(s.counters.get("corrupt", 0) for s in gets)
    route_pops = troute.get("pops", 0) + lut.get("pops", 0)
    route_self = troute["self"] + lut["self"]
    rrg = totals["arch.build_rrg"]
    return {
        "route.troute_s": secs("route.troute"),
        "route.troute.pops": count("route.troute", "pops"),
        "route.troute.pushes": count("route.troute", "pushes"),
        "route.troute.searches": count("route.troute", "searches"),
        "route.troute.iterations": count("route.troute", "iterations"),
        "route.troute.settled_ratio": ratio(
            troute.get("settled", 0), troute.get("pops", 0)
        ),
        "route.pops_per_s": ratio(route_pops, route_self),
        "route.lut_s": secs("route.lut"),
        "route.lut.pops": count("route.lut", "pops"),
        "route.lut.searches": count("route.lut", "searches"),
        "route.lut.iterations": count("route.lut", "iterations"),
        "place.place_s": secs("place.place"),
        "place.moves": count("place.place", "moves"),
        "place.accept_ratio": ratio(
            place.get("accepted", 0), place.get("moves", 0)
        ),
        "core.combined_place_s": secs("core.combined_place"),
        "core.combined_place.moves": count("core.combined_place", "moves"),
        "core.tplace_s": secs("core.tplace"),
        "core.tplace.moves": count("core.tplace", "moves"),
        "timing.criticality_s": secs("timing.criticality"),
        "timing.sta_s": secs("timing.sta"),
        "arch.build_rrg_s": secs("arch.build_rrg"),
        "arch.rrg_nodes": ratio(rrg.get("nodes", 0), rrg["calls"]),
        "gen.build_s": ratio(
            totals["gen.build"]["seconds"], max(1, n_builds)
        ),
        "exec.cache.get_ms": _median_ms([s.seconds for s in gets]),
        "exec.cache.put_ms": _median_ms(
            [s.seconds for s in spans if s.name == "exec.cache.put"]
        ),
        "exec.cache.hits": hits / per_flow,
        "exec.cache.misses": (len(gets) - hits) / per_flow,
        "exec.cache.corrupt": corrupt,
        "exec.cache.hit_ratio": ratio(hits, len(gets)),
        "exec.fingerprint_ms": _median_ms(
            [s.seconds for s in spans if s.name == "exec.fingerprint"]
        ),
    }
