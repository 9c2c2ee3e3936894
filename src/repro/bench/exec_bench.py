"""Benchmark of the execution subsystem — emits ``BENCH_exec.json``.

The default workload is the harness's FIR suite shape: *n*
independent two-mode FIR pairs (the paper pairs low-pass *i* with
high-pass *i*), each an independent synth→place→route run;
``--workload`` swaps in any registered suite of :mod:`repro.gen`
(tiny scale).  Three measurements:

* ``serial_cold``   — the seed execution model: one process, no cache;
* ``parallel_cold`` — the same workload fanned over *workers*
  processes into a fresh stage cache;
* ``parallel_warm`` — an identical rerun against the now-populated
  cache (every pair resolves to one ``multimode`` cache hit);
* ``timing_driven_cold`` — the workload rerun with
  ``timing_driven=True``, recording the timing-driven trajectory:
  wall-clock plus the mean routed MDR critical delay against the
  wirelength-driven baseline's.
* ``router_vectorized`` — an A/B of the PathFinder negotiation cores
  on the routing phase alone: one pair per generator family at
  router-bench scale is placed and merged once, then its MDR routes
  (untimed and timing-driven) and its TRoute run are timed under the
  scalar reference (``REPRO_SCALAR_ROUTER=1``) and under the
  vectorized default, interleaved best-of-N.  The bench asserts both
  cores return bit-identical edge lists before reporting the
  speedup.
* ``router_vectorized.lookahead`` — the same workload with the
  precomputed lookahead heuristic (:mod:`repro.route.lookahead`),
  alone and paired with partial rip-up, under both the scalar and
  vectorized cores.  The bench asserts scalar+lookahead ==
  vectorized+lookahead bit-identity and reports heap-pop counts per
  leg, so the search-space shrinkage is tracked alongside the
  wall-clocks.

Results are bit-for-bit identical across all paths (the bench
asserts this on the reconfiguration-cost totals and the routed edge
lists), so the speedups are pure execution-subsystem wins.  The JSON
report records wall-clocks, per-stage breakdowns, and the headline
ratios so future PRs can track the perf trajectory.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
import textwrap
import time
from typing import Dict, List, Optional, Tuple

from repro.bench.fir import generate_fir_circuit
from repro.core.flow import FlowOptions
from repro.exec.cache import StageCache
from repro.exec.progress import ProgressLog
from repro.exec.scheduler import Scheduler, Task
from repro.bench.harness import _pair_worker
from repro.core.flow import unpack_result

#: v3: adds the ``router_vectorized`` phase (scalar vs vectorized
#: PathFinder core A/B on the routing phase).
#: v4: adds a ``router_*`` phase for a third, non-exact core.
#: v5: per-core heap-pop counters on every router leg, plus the
#: ``lookahead`` sub-phase (precomputed-lookahead heuristic and
#: partial rip-up, scalar/vectorized bit-identity asserted).
#: v6: drops the v4 phase with the core it measured.
SCHEMA_VERSION = 6

#: Generator families of the router A/B workload.
ROUTER_BENCH_FAMILIES = ("datapath", "fsm", "xbar", "klut")


def workload_kinds() -> List[str]:
    """Valid ``--workload`` values: the legacy FIR shape plus every
    registered suite of the workload registry."""
    from repro.gen import registered_suites

    return ["fir_pairs"] + list(registered_suites())


def _registry_workload(
    kind: str, n_pairs: int, k: int = 4
) -> List[Tuple[str, tuple]]:
    """*n_pairs* mode pairs of a registered suite at tiny scale."""
    from repro.gen import suite_pairs

    return [
        (name, tuple(modes))
        for name, modes in suite_pairs(
            kind, k=k, scale="tiny", limit=n_pairs
        )
    ]


def _fir_pair_workload(
    n_pairs: int, k: int = 4, n_taps: int = 4, n_nonzero: int = 3
) -> List[Tuple[str, tuple]]:
    """*n_pairs* independent low-pass/high-pass FIR pairs.

    The default 4-tap filters keep one full bench run (serial +
    parallel + warm) in the minutes range; ``--taps 8`` reproduces the
    harness's full-size filters.
    """
    pairs = []
    for i in range(n_pairs):
        lowpass = generate_fir_circuit(
            "lowpass", seed=i, n_taps=n_taps, n_nonzero=n_nonzero,
            k=k, name=f"fir_lp{i}",
        )
        highpass = generate_fir_circuit(
            "highpass", seed=i, n_taps=n_taps, n_nonzero=n_nonzero,
            k=k, name=f"fir_hp{i}",
        )
        pairs.append((f"fir_{i}", (lowpass, highpass)))
    return pairs


def _run_workload(
    pairs: List[Tuple[str, tuple]],
    options: FlowOptions,
    workers: int,
    cache: StageCache,
) -> Tuple[float, ProgressLog, List[float], list]:
    """(wall seconds, merged progress, cost signature, results)."""
    scheduler = Scheduler(workers)
    progress = ProgressLog()
    cache_root = str(cache.root) if cache.enabled else None
    tasks = [
        Task(_pair_worker, (name, modes, options, cache_root,
                            cache.enabled), name=name)
        for name, modes in pairs
    ]
    start = time.perf_counter()
    outcomes = scheduler.run(tasks)
    elapsed = time.perf_counter() - start
    signature = []
    results = []
    for packed, records in outcomes:
        progress.extend(records)
        result = unpack_result(packed)
        results.append(result)
        signature.append(result.mdr.cost.total)
        for dcs in result.dcs.values():
            signature.append(dcs.cost.total)
    return elapsed, progress, signature, results


def _mean_critical_delay(results: list) -> float:
    """Mean routed MDR critical delay over all pairs and modes."""
    delays = [
        d
        for result in results
        for d in result.mdr.per_mode_critical_delay()
    ]
    return sum(delays) / len(delays) if delays else 0.0


def _measure_baseline_src(
    src_path: str,
    n_pairs: int,
    n_taps: int,
    inner_num: float,
    seed: int,
) -> Optional[Dict[str, object]]:
    """Serially run the same workload against another source tree.

    Used to quantify the execution subsystem against the *seed* code
    in a subprocess (`PYTHONPATH` pointed at the old tree).  The old
    tree regenerates its own circuits, so this is a wall-clock
    baseline, not a bit-level comparison.
    """
    script = textwrap.dedent(
        f"""
        import json, time
        from repro.bench.fir import generate_fir_circuit
        from repro.core.flow import FlowOptions, implement_multi_mode
        pairs = []
        for i in range({n_pairs}):
            lp = generate_fir_circuit('lowpass', seed=i,
                n_taps={n_taps}, n_nonzero=3, k=4, name=f'fir_lp{{i}}')
            hp = generate_fir_circuit('highpass', seed=i,
                n_taps={n_taps}, n_nonzero=3, k=4, name=f'fir_hp{{i}}')
            pairs.append((f'fir_{{i}}', [lp, hp]))
        start = time.perf_counter()
        for name, modes in pairs:
            implement_multi_mode(
                name, modes,
                FlowOptions(seed={seed}, inner_num={inner_num}),
            )
        print(json.dumps(
            {{"seconds": round(time.perf_counter() - start, 3)}}
        ))
        """
    )
    env = dict(os.environ, PYTHONPATH=src_path)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=3600,
        )
        if proc.returncode != 0:
            return None
        data = json.loads(proc.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, ValueError, OSError):
        return None
    return {"src": src_path, "seconds": data["seconds"]}


def _router_bench_workload(scale: str, seed: int) -> List[Tuple]:
    """One placed-and-merged pair per generator family at *scale*.

    Everything that is not routing (synthesis, placement, merging)
    happens here, outside the timed section, so the A/B below times
    the PathFinder negotiation alone — the phase the vectorized core
    rewrites.
    """
    from repro.arch.architecture import size_for_circuits
    from repro.arch.rrg import build_rrg
    from repro.core.combined_placement import (
        merge_with_combined_placement,
    )
    from repro.core.merge import MergeStrategy
    from repro.gen.spec import build_circuit
    from repro.gen.suites import suite_pair_specs
    from repro.place.placer import place_circuit

    options = FlowOptions(seed=seed, inner_num=0.1)
    schedule = options.schedule()
    # The medium datapath pair saturates the 8-track channels the
    # smaller scales route comfortably in (it needs 10; 12 leaves
    # headroom); widen rather than shrink the workload so the A/B
    # keeps its larger search space.
    channel_width = 12 if scale == "medium" else 8
    workload = []
    for family in ROUTER_BENCH_FAMILIES:
        pair_name, specs = suite_pair_specs(
            family, seed=seed, k=4, scale=scale, limit=1
        )[0]
        modes = [build_circuit(spec) for spec in specs]
        ios = set()
        for circuit in modes:
            ios.update(circuit.inputs)
            ios.update(circuit.outputs)
        arch = size_for_circuits(
            max(c.n_luts() for c in modes), len(ios), k=4,
            channel_width=channel_width, slack=1.2,
        )
        rrg = build_rrg(arch)
        placements = [
            place_circuit(
                c, arch, seed=seed + i, schedule=schedule
            )
            for i, c in enumerate(modes)
        ]
        tunable, _ = merge_with_combined_placement(
            pair_name, modes, arch,
            strategy=MergeStrategy.WIRE_LENGTH, seed=seed,
            schedule=schedule,
        )
        workload.append(
            (pair_name, modes, placements, rrg,
             tunable.site_connections())
        )
    return workload


def run_router_bench(
    scale: str = "quick",
    seed: int = 0,
    rounds: int = 2,
) -> Dict[str, object]:
    """A/B the scalar and vectorized PathFinder cores.

    Routes each pair's modes conventionally (untimed and
    timing-driven) plus its merged tunable circuit (TRoute with the
    flow's affinity/sharing defaults), once per core per round,
    interleaved; reports best-of-*rounds* wall-clocks.  Raises
    ``AssertionError`` if the scalar and vectorized cores' routes are
    not bit-identical.

    Four additional legs run the lookahead heuristic: scalar and
    vectorized with lookahead alone, and both again with partial
    rip-up added.  Each lookahead pair must be bit-identical across
    cores (the heuristic changes results *versus Manhattan*, never
    between the exact cores), and every leg reports its heap-pop
    count so the ``pops`` block quantifies the search-space
    shrinkage directly.
    """
    from repro.route.lookahead import build_lookahead
    from repro.route.searchkernel import RouterStats
    from repro.route.troute import (
        route_lut_circuit,
        route_tunable_circuit,
    )

    workload = _router_bench_workload(scale, seed)
    timing = FlowOptions(
        seed=seed, inner_num=0.1, timing_driven=True
    ).criticality()
    defaults = FlowOptions()

    # The lookahead tables are a per-architecture precomputation the
    # flow memoizes in the stage cache; build them outside the timed
    # sections (with the delay model: the timed legs need the delay
    # tables) but report the one-shot build cost alongside.
    build_start = time.perf_counter()
    lk_tables = [
        build_lookahead(rrg, timing.model)
        for _n, _m, _p, rrg, _c in workload
    ]
    lk_build_seconds = time.perf_counter() - build_start

    def run(
        scalar: bool = False,
        lookahead: bool = False,
        partial: bool = False,
    ):
        old = os.environ.pop("REPRO_SCALAR_ROUTER", None)
        if scalar:
            os.environ["REPRO_SCALAR_ROUTER"] = "1"
        stats = RouterStats()
        kwargs: Dict[str, object] = {"stats": stats}
        if partial:
            kwargs["partial_ripup"] = True
        try:
            start = time.perf_counter()
            signature = []
            wirelength = 0
            for index, (
                _name, modes, placements, rrg, conns
            ) in enumerate(workload):
                if lookahead:
                    kwargs["lookahead"] = lk_tables[index]
                for circuit, placement in zip(modes, placements):
                    result = route_lut_circuit(
                        circuit, placement, rrg, **kwargs
                    )
                    signature.append(sorted(
                        (cid, tuple(r.edges))
                        for cid, r in result.routes.items()
                    ))
                    wirelength += result.total_wirelength(0)
                for circuit, placement in zip(modes, placements):
                    result = route_lut_circuit(
                        circuit, placement, rrg, timing=timing,
                        **kwargs
                    )
                    signature.append(sorted(
                        (cid, tuple(r.edges))
                        for cid, r in result.routes.items()
                    ))
                    wirelength += result.total_wirelength(0)
                result = route_tunable_circuit(
                    rrg, conns, len(modes),
                    net_affinity=defaults.net_affinity,
                    bit_affinity=defaults.bit_affinity,
                    sharing_passes=defaults.sharing_passes,
                    **kwargs,
                )
                signature.append(sorted(
                    (cid, tuple(r.edges))
                    for cid, r in result.routes.items()
                ))
                wirelength += sum(
                    result.total_wirelength(m)
                    for m in range(len(modes))
                )
            seconds = time.perf_counter() - start
            return seconds, signature, wirelength, stats
        finally:
            os.environ.pop("REPRO_SCALAR_ROUTER", None)
            if old is not None:
                os.environ["REPRO_SCALAR_ROUTER"] = old

    #: leg label -> run() kwargs; bit-identity groups asserted below.
    legs = {
        "scalar": dict(scalar=True),
        "vectorized": dict(),
        "lk_scalar": dict(scalar=True, lookahead=True),
        "lk_vectorized": dict(lookahead=True),
        "lkpr_scalar": dict(scalar=True, lookahead=True, partial=True),
        "lkpr_vectorized": dict(lookahead=True, partial=True),
    }
    best = {name: float("inf") for name in legs}
    sigs: Dict[str, object] = {}
    wls: Dict[str, int] = {}
    pops: Dict[str, int] = {}
    for _round in range(max(1, rounds)):
        for name, leg_kwargs in legs.items():
            seconds, sig, wl, stats = run(**leg_kwargs)
            sigs[name] = sig
            wls[name] = wl
            pops[name] = stats.pops
            best[name] = min(best[name], seconds)
    if sigs["scalar"] != sigs["vectorized"]:
        raise AssertionError(
            "scalar and vectorized routers disagree: the cores must "
            "be bit-identical"
        )
    if sigs["lk_scalar"] != sigs["lk_vectorized"]:
        raise AssertionError(
            "scalar and vectorized routers disagree under the "
            "lookahead heuristic: the cores must be bit-identical"
        )
    if sigs["lkpr_scalar"] != sigs["lkpr_vectorized"]:
        raise AssertionError(
            "scalar and vectorized routers disagree under lookahead "
            "+ partial rip-up: the cores must be bit-identical"
        )
    n_connections = sum(
        len(conns) for _n, _m, _p, _r, conns in workload
    )
    scalar_best, vector_best = best["scalar"], best["vectorized"]
    vector_wl = wls["vectorized"]
    return {
        "workload": {
            "suites": list(ROUTER_BENCH_FAMILIES),
            "scale": scale,
            "n_pairs": len(workload),
            "n_tunable_connections": n_connections,
            "seed": seed,
        },
        "rounds": max(1, rounds),
        "scalar_seconds": round(scalar_best, 3),
        "vectorized_seconds": round(vector_best, 3),
        "speedup": round(scalar_best / vector_best, 3),
        "results_identical": True,
        # Heap pops per leg (deterministic).
        "pops": dict(sorted(pops.items())),
        "lookahead": {
            "table_build_seconds": round(lk_build_seconds, 3),
            "scalar_seconds": round(best["lk_scalar"], 3),
            "vectorized_seconds": round(best["lk_vectorized"], 3),
            "speedup_vs_manhattan_vectorized": round(
                vector_best / best["lk_vectorized"], 3
            ),
            "results_identical": True,
            "total_wirelength": wls["lk_vectorized"],
            "wirelength_ratio_vs_manhattan": round(
                wls["lk_vectorized"] / vector_wl, 4
            ) if vector_wl else None,
            "pop_reduction_vs_manhattan": round(
                pops["vectorized"] / pops["lk_vectorized"], 3
            ) if pops["lk_vectorized"] else None,
            "partial_ripup": {
                "seconds": round(best["lkpr_vectorized"], 3),
                "results_identical": True,
                "total_wirelength": wls["lkpr_vectorized"],
                "wirelength_ratio_vs_manhattan": round(
                    wls["lkpr_vectorized"] / vector_wl, 4
                ) if vector_wl else None,
                "pops": pops["lkpr_vectorized"],
            },
        },
    }


def run_exec_bench(
    workers: int = 4,
    n_pairs: int = 4,
    inner_num: float = 0.1,
    seed: int = 0,
    cache_dir: Optional[str] = None,
    verbose: bool = False,
    pairs: Optional[List[Tuple[str, tuple]]] = None,
    n_taps: int = 4,
    baseline_src: Optional[str] = None,
    workload: str = "fir_pairs",
    router_scale: str = "quick",
) -> Dict[str, object]:
    """Run the measurements; returns the report dict.

    *workload* selects the circuit source: ``"fir_pairs"`` (the
    historical shape) or any registered suite of :mod:`repro.gen`
    (materialised at tiny scale).  *pairs* overrides either (tests
    inject tiny circuits so the bench path is exercised in seconds).
    *router_scale* sizes the ``router_vectorized`` A/B workload
    (tests drop it to ``"tiny"``).
    """
    options = FlowOptions(seed=seed, inner_num=inner_num)
    injected = pairs is not None
    if pairs is None:
        if workload == "fir_pairs":
            pairs = _fir_pair_workload(n_pairs, n_taps=n_taps)
        elif workload in workload_kinds():
            pairs = _registry_workload(workload, n_pairs)
        else:
            raise ValueError(
                f"unknown workload kind {workload!r}; registered: "
                f"{', '.join(workload_kinds())}"
            )
    n_pairs = len(pairs)
    if cache_dir is None:
        cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    else:
        # The cold phase clears its cache; confine that to a bench-own
        # subdirectory so pointing --cache-dir at the shared stage
        # cache can never wipe accumulated results.
        cache_dir = os.path.join(cache_dir, "exec-bench")

    def log(message: str) -> None:
        if verbose:
            print(message, flush=True)

    log(f"workload: {n_pairs} two-mode FIR pairs "
        f"({sum(c.n_luts() for _n, m in pairs for c in m)} LUTs)")

    log("serial cold (seed execution model) ...")
    disabled = StageCache(enabled=False)
    t_serial, p_serial, sig_serial, _res = _run_workload(
        pairs, options, workers=1, cache=disabled
    )
    log(f"  {t_serial:.1f}s")

    log(f"parallel cold ({workers} workers, fresh cache) ...")
    cold_cache = StageCache(cache_dir)
    cold_cache.clear()
    t_cold, p_cold, sig_cold, res_cold = _run_workload(
        pairs, options, workers=workers, cache=cold_cache
    )
    log(f"  {t_cold:.1f}s")

    log("parallel warm (same cache) ...")
    warm_cache = StageCache(cache_dir)
    t_warm, p_warm, sig_warm, _res = _run_workload(
        pairs, options, workers=workers, cache=warm_cache
    )
    log(f"  {t_warm:.1f}s")

    if not (sig_serial == sig_cold == sig_warm):
        raise AssertionError(
            "bench paths disagree: serial/cold/warm results must be "
            "bit-identical"
        )

    # Timing-driven trajectory: the same workload with the
    # criticality model threaded through placement and routing; its
    # stage keys differ from the wirelength-driven run's, so both
    # coexist in the same cache directory.
    log(f"timing-driven cold ({workers} workers, same cache dir) ...")
    timed_options = FlowOptions(
        seed=seed, inner_num=inner_num, timing_driven=True
    )
    t_timed, p_timed, _sig, res_timed = _run_workload(
        pairs, timed_options, workers=workers,
        cache=StageCache(cache_dir),
    )
    log(f"  {t_timed:.1f}s")
    baseline_delay = _mean_critical_delay(res_cold)
    timed_delay = _mean_critical_delay(res_timed)

    log("router A/B (scalar vs vectorized vs lookahead, "
        f"{router_scale} scale) ...")
    router_phase = run_router_bench(scale=router_scale, seed=seed)
    lookahead_phase = router_phase["lookahead"]
    log(
        f"  scalar {router_phase['scalar_seconds']:.1f}s, "
        f"vectorized {router_phase['vectorized_seconds']:.1f}s "
        f"({router_phase['speedup']:.2f}x), "
        f"lookahead {lookahead_phase['vectorized_seconds']:.1f}s "
        f"({lookahead_phase['pop_reduction_vs_manhattan']:.2f}x "
        "fewer pops)"
    )

    baseline = None
    if baseline_src and workload != "fir_pairs":
        log(
            "skipping --baseline-src: the seed tree only knows the "
            "fir_pairs workload"
        )
        baseline_src = None
    if baseline_src:
        log(f"seed-baseline serial run against {baseline_src} ...")
        baseline = _measure_baseline_src(
            baseline_src, n_pairs, n_taps, inner_num, seed
        )
        if baseline:
            log(f"  {baseline['seconds']:.1f}s")

    report = {
        "schema_version": SCHEMA_VERSION,
        "workload": {
            "kind": "injected" if injected else workload,
            "n_pairs": n_pairs,
            "n_mode_circuits": 2 * n_pairs,
            "n_luts": sum(
                c.n_luts() for _n, m in pairs for c in m
            ),
            "inner_num": inner_num,
            "seed": seed,
        },
        "workers": workers,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "serial_cold": {
            "seconds": round(t_serial, 3),
            "stages": p_serial.breakdown(),
        },
        "parallel_cold": {
            "seconds": round(t_cold, 3),
            "stages": p_cold.breakdown(),
        },
        "parallel_warm": {
            "seconds": round(t_warm, 3),
            "stages": p_warm.breakdown(),
        },
        "timing_driven_cold": {
            "seconds": round(t_timed, 3),
            "stages": p_timed.breakdown(),
            "mdr_mean_critical_delay": round(timed_delay, 4),
            "wirelength_mdr_mean_critical_delay": round(
                baseline_delay, 4
            ),
            "critical_delay_ratio_vs_wirelength": round(
                timed_delay / baseline_delay, 4
            ) if baseline_delay > 0 else None,
        },
        "router_vectorized": router_phase,
        "speedup_cold_vs_serial": round(t_serial / t_cold, 3),
        "warm_fraction_of_cold": round(t_warm / t_cold, 4),
        "results_identical": True,
    }
    if baseline:
        report["seed_serial_baseline"] = {
            "seconds": baseline["seconds"],
            "src": baseline["src"],
            "note": (
                "same workload executed serially by the seed "
                "implementation (pre repro.exec, pre hot-path "
                "optimisation)"
            ),
        }
        report["speedup_cold_vs_seed_serial"] = round(
            baseline["seconds"] / t_cold, 3
        )
    return report


def write_bench_json(report: Dict[str, object], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")
