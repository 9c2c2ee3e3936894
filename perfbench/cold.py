"""Cold multi-mode flows: route-, place- and timing-bound workloads.

Each workload is a fixed corpus of suite pairs and one set of flow
options.  A run builds the corpus circuits (set-up), then implements
pairs one at a time, serially, each with a fresh temporary stage
cache, until the summed flow time reaches the run length (always at
least one full pass).  The seed orders the flows within each pass.

One flow is ``repro.api.implement`` (MDR plus both DCS strategies)
plus the routed STA behind the Fmax ratios, as a campaign record
reports them.  Output checks run between flows, outside the timing.
"""

from __future__ import annotations

import gc
import math
import random
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from perfbench import checks
from perfbench.calibrate import Calibrator
from perfbench.layers import (
    install_exec_layers,
    install_flow_layers,
    layer_metrics,
)
from perfbench.report import Outcome, peak_rss_mb
from perfbench.spans import Tracer, self_times

#: How many times set-up (circuit generation and synthesis) repeats;
#: ``setup_s`` is the median.
SETUP_REPEATS = 3


@dataclass(frozen=True)
class ColdWorkload:
    """A fixed corpus of suite pairs and the flow knobs.

    ``suites`` holds ``(suite, scale, pairs)``: the suite's first
    *pairs* pairs at *scale*.
    """

    name: str
    suites: Tuple[Tuple[str, str, int], ...]
    inner_num: float
    timing_driven: bool = False

    def options(self):
        from repro.api import FlowOptions

        return FlowOptions(
            inner_num=self.inner_num, timing_driven=self.timing_driven
        )

    def pair_specs(self, scale: Optional[str] = None, limit=None):
        """(pair name, specs) of the corpus; suites use seed 0."""
        from repro.gen.suites import suite_pair_specs

        pairs = []
        for suite, suite_scale, n_pairs in self.suites:
            pairs += suite_pair_specs(
                suite, seed=0, scale=scale or suite_scale,
                limit=min(n_pairs, limit or n_pairs),
            )
        return pairs


WORKLOADS: Dict[str, ColdWorkload] = {
    "route-bound": ColdWorkload(
        "route-bound",
        suites=(("datapath", "tiny", 2), ("xbar", "quick", 2)),
        inner_num=0.1,
    ),
    "place-bound": ColdWorkload(
        "place-bound",
        suites=(("fsm", "tiny", 2), ("xbar", "tiny", 2)),
        inner_num=1.0,
    ),
    "timing-driven": ColdWorkload(
        "timing-driven",
        # Pairs of one size class (1.5-2.1 s each): the median over
        # pair medians stays put, where mixing in small fsm pairs made
        # it jump between the size groups.
        suites=(("klut", "tiny", 2), ("datapath", "tiny", 2)),
        inner_num=0.3,
        timing_driven=True,
    ),
}


def build_corpus(pairs) -> Tuple[List[Tuple[str, list]], float]:
    """Build every pair's circuits; returns them and the seconds taken.

    Looks ``build_circuit`` up on its module at call time, so a traced
    run sees the ``gen.build`` spans.
    """
    import repro.gen.spec as gen_spec

    start = time.perf_counter()
    built = [
        (name, [gen_spec.build_circuit(spec) for spec in specs])
        for name, specs in pairs
    ]
    return built, time.perf_counter() - start


def flow_qor(result) -> Dict[str, Tuple[float, ...]]:
    """The QoR a campaign record reports (routed STA included)."""
    result.mdr.per_mode_fmax()
    qor: Dict[str, Tuple[float, ...]] = {}
    for strategy in sorted(result.dcs, key=lambda s: s.value):
        result.dcs[strategy].per_mode_fmax()
        qor[strategy.value] = (
            result.speedup(strategy),
            result.wirelength_ratio(strategy),
        ) + tuple(result.frequency_ratios(strategy))
    return qor


def run_flow(name: str, modes: list, options, work_dir: str):
    """One cold flow on a fresh stage cache; returns result, QoR, s."""
    from repro.api import implement
    from repro.exec.cache import StageCache

    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=work_dir)
    try:
        start = time.perf_counter()
        result = implement(
            name, modes, options, workers=1, cache=StageCache(cache_dir)
        )
        qor = flow_qor(result)
        seconds = time.perf_counter() - start
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return result, qor, seconds


def gmean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class PassResult:
    #: Calibrated seconds per pair (see :mod:`perfbench.calibrate`).
    times: Dict[str, List[float]]
    raw: Dict[str, List[float]]
    qor: Dict[str, Dict[str, Tuple[float, ...]]]
    attempted: int
    failed: int
    problems: List[str]


def run_passes(
    corpus: List[Tuple[str, list]],
    options,
    rng: random.Random,
    seconds: float,
    work_dir: str,
    check: Callable = checks.check_flow,
    max_flows: Optional[int] = None,
    tracer: Optional[Tracer] = None,
    calibrator: Optional[Calibrator] = None,
) -> PassResult:
    """Run seeded-order passes over *corpus* until *seconds* of flow.

    Each pair's QoR must repeat bit for bit on every rerun.  With
    *max_flows* the run stops after that many flows instead.  With a
    *calibrator* every flow is bracketed by calibration probes and
    ``times`` holds calibrated seconds.
    """
    times: Dict[str, List[float]] = {name: [] for name, _ in corpus}
    raw: Dict[str, List[float]] = {name: [] for name, _ in corpus}
    qor: Dict[str, Dict[str, Tuple[float, ...]]] = {}
    problems: List[str] = []
    attempted = failed = 0
    measured = 0.0
    while True:
        order = list(corpus)
        rng.shuffle(order)
        for name, modes in order:
            if max_flows is not None and attempted >= max_flows:
                break
            attempted += 1
            gc.collect()
            before = calibrator.probe() if calibrator else []
            try:
                if tracer is not None:
                    tracer.flow = f"{name}#{attempted}"
                    with tracer.span("flow"):
                        result, flow_q, secs = run_flow(
                            name, modes, options, work_dir
                        )
                else:
                    result, flow_q, secs = run_flow(
                        name, modes, options, work_dir
                    )
            except Exception as exc:  # a failed flow is counted, not fatal
                failed += 1
                problems.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            scale = (
                calibrator.factor(before, calibrator.probe())
                if calibrator else 1.0
            )
            measured += secs
            found = check(result, modes)
            if name in qor and qor[name] != flow_q:
                found.append(f"{name}: QoR differs between reruns")
            qor.setdefault(name, flow_q)
            if found:
                failed += 1
                problems += found
            else:
                times[name].append(secs * scale)
                raw[name].append(secs)
        done_pass = all(times[name] for name, _ in corpus)
        if max_flows is not None:
            if attempted >= max_flows:
                break
        elif measured >= seconds and (done_pass or problems):
            break
    return PassResult(times, raw, qor, attempted, failed, problems)


def qor_metrics(qor: Dict[str, Dict[str, Tuple[float, ...]]]):
    speedups, wl_ratios, fmax_ratios = [], [], []
    for per_strategy in qor.values():
        for values in per_strategy.values():
            speedups.append(values[0])
            wl_ratios.append(values[1])
            fmax_ratios.extend(values[2:])
    return {
        "reconfig_speedup.gmean": (gmean(speedups), "x", len(speedups)),
        "wirelength_ratio.gmean": (gmean(wl_ratios), "x", len(wl_ratios)),
        "fmax_ratio.gmean": (gmean(fmax_ratios), "x", len(fmax_ratios)),
    }


def run_cold(
    workload: ColdWorkload,
    seed: int,
    seconds: float,
    trace: bool,
    work_dir: str,
    scale: Optional[str] = None,
    limit: Optional[int] = None,
    check: Callable = checks.check_flow,
) -> Outcome:
    """Run one cold workload; *scale*/*limit* shrink it for self-tests."""
    rng = random.Random(seed)
    pairs = workload.pair_specs(scale, limit)
    calibrator = Calibrator()
    setup = []
    for _ in range(SETUP_REPEATS):
        before = calibrator.probe()
        corpus, secs = build_corpus(pairs)
        setup.append(secs * calibrator.factor(before, calibrator.probe()))
    options = workload.options()
    outcome = Outcome(seed=seed)
    if not trace:
        res = run_passes(corpus, options, rng, seconds, work_dir, check,
                         calibrator=calibrator)
        raw = [t for ts in res.raw.values() for t in ts]
        if raw:
            outcome.notes.append(
                f"raw (uncalibrated) flow_s.p50 {statistics.median(raw):.4f}"
            )
        samples = [t for ts in res.times.values() for t in ts]
        per_pair = [statistics.median(ts) for ts in res.times.values() if ts]
        outcome.attempted, outcome.failed = res.attempted, res.failed
        outcome.problems = res.problems
        if samples:
            # Passes are whole, so every pair has the same weight; the
            # median of per-pair medians stays put when the corpus
            # mixes flow sizes, where a pooled median would jump
            # between the size groups.
            p50 = statistics.median(per_pair)
            n = len(samples)
            outcome.add("flow_s.p50", p50, "s", n)
            outcome.add("flows_per_min", 60.0 * n / sum(samples), "1/min", n)
            outcome.add("latency_ms.p50", 1000.0 * p50, "ms", n)
            outcome.add("requests_per_s", n / sum(samples), "1/s", n)
        if res.qor:
            for name, (value, unit, n) in qor_metrics(res.qor).items():
                outcome.add(name, value, unit, n)
        outcome.add("setup_s", statistics.median(setup), "s", len(setup))
        outcome.add("peak_rss_mb", peak_rss_mb(), "MB", 1)
        return outcome

    # Traced run: an untraced pass that also warms the process up, the
    # same flows traced, then untraced again; the overhead compares
    # the traced pass with the second untraced one, both warm.
    n = len(corpus)
    first = run_passes(corpus, options, random.Random(seed), 0.0,
                       work_dir, check, max_flows=n, calibrator=calibrator)
    tracer = Tracer()
    install_flow_layers(tracer)
    install_exec_layers(tracer)
    try:
        corpus_traced, _ = build_corpus(pairs)
        traced = run_passes(corpus_traced, options, random.Random(seed),
                            0.0, work_dir, check, max_flows=n,
                            tracer=tracer, calibrator=calibrator)
    finally:
        tracer.restore()
    plain = run_passes(corpus, options, random.Random(seed), 0.0,
                       work_dir, check, max_flows=n, calibrator=calibrator)
    passes = (first, traced, plain)
    outcome.attempted = sum(p.attempted for p in passes)
    outcome.failed = sum(p.failed for p in passes)
    outcome.problems = [msg for p in passes for msg in p.problems]
    if not first.qor == traced.qor == plain.qor:
        outcome.failed += 1
        outcome.problems.append("traced QoR differs from untraced QoR")
    n_builds = sum(len(specs) for _, specs in pairs)
    metrics = layer_metrics(tracer.spans, n, n_builds)
    metrics.update(_serve_placeholders())
    flows = [s for s in tracer.spans if s.name == "flow"]
    flow_total = sum(s.seconds for s in flows)
    selfs = self_times(tracer.spans)
    uncovered = sum(
        own for span, own in zip(tracer.spans, selfs) if span.name == "flow"
    )
    # Overhead from calibrated flow times, so host drift between the
    # two passes does not read as tracing cost.
    untraced_total = sum(sum(ts) for ts in plain.times.values())
    traced_total = sum(sum(ts) for ts in traced.times.values())
    metrics["trace.overhead_s"] = (traced_total - untraced_total) / max(1, n)
    metrics["trace.overhead_frac"] = (
        traced_total / untraced_total - 1.0 if untraced_total else 0.0
    )
    metrics["trace.uncovered_frac"] = (
        uncovered / flow_total if flow_total else 0.0
    )
    outcome.layer = metrics
    outcome.tracer = tracer
    return outcome


def _serve_placeholders() -> Dict[str, float]:
    """Serve-only layers do no work on a cold in-process flow."""
    return {
        "exec.jobs.queue_wait_ms": 0.0,
        "exec.jobs.service_ms": 0.0,
        "serve.submit_ms": 0.0,
        "serve.result_ms": 0.0,
        "serve.dedup_ratio": 0.0,
        "serve.latency_ms.p95": 0.0,
    }
