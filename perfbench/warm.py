"""Warm ``repro serve`` replay over a stage cache filled in set-up.

Set-up builds the ci-smoke grid's circuits (median of several
builds), fills a fresh stage cache with a cold ``run_campaign`` of the
grid on 2 process workers (its records are the reference payloads),
and boots the server.

The measured loop is a series of rounds.  Each round boots a fresh
``FlowServer`` with 2 process workers over the filled cache, and a
closed loop of 2 client threads sends every distinct grid flow once
(it runs on the worker pool as a stage-cache hit) and then again (it
attaches to the completed record: a dedup).  A client waits for each
flow on the SSE events stream, then fetches the result.  The seed
orders the flows and splits them between the clients.  Rounds repeat
until the summed round time reaches the run length.
"""

from __future__ import annotations

import contextlib
import functools
import http.client
import json
import os
import random
import statistics
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Tuple

from perfbench import checks
from perfbench.calibrate import Calibrator
from perfbench.cold import build_corpus, qor_metrics
from perfbench.layers import (
    install_exec_layers,
    install_flow_layers,
    layer_metrics,
)
from perfbench.report import Outcome, percentile, peak_rss_mb
from perfbench.spans import Span, Tracer, self_times

PRESET = "ci-smoke"
SETUP_REPEATS = 3
WORKERS = 2
CLIENTS = 2
#: Campaign record keys that identify a run rather than its QoR.
_RECORD_HEADER = {"schema", "campaign", "suite", "pair", "variant",
                  "seed", "key"}
_TERMINAL = {"done", "failed", "cancelled"}


def grid(scale: Optional[str] = None, limit: Optional[int] = None):
    """The preset (optionally shrunk) and its (label, submission) list."""
    from dataclasses import replace

    from repro.bench.campaign import PRESETS, campaign_runs
    from repro.serve.service import workload_spec_dict

    spec = PRESETS[PRESET]
    if scale is not None or limit is not None:
        spec = replace(
            spec,
            scale=scale or spec.scale,
            pairs_per_suite=limit or spec.pairs_per_suite,
            suites=spec.suites[:2] if limit else spec.suites,
        )
    flows = []
    for suite, pair, specs, variant, seed in campaign_runs(spec):
        options = spec.flow_options(variant, seed)
        flows.append((f"{suite}/{pair}/{variant.label}", {
            "name": pair,
            "modes": [workload_spec_dict(s) for s in specs],
            "options": options.to_dict(),
            "strategies": list(variant.strategies),
        }))
    return spec, flows


# -- client ---------------------------------------------------------------


def _http(port: int, method: str, path: str, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        conn.close()


def _events(port: int, flow_id: str) -> List[str]:
    """States of the flow's SSE events, up to the terminal one."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    seen: List[str] = []
    try:
        conn.request("GET", f"/v1/flows/{flow_id}/events")
        response = conn.getresponse()
        while True:
            line = response.fp.readline()
            if not line:
                break
            if line.startswith(b"data: "):
                seen.append(json.loads(line[6:])["state"])
                if seen[-1] in _TERMINAL:
                    break
    finally:
        conn.close()
    return seen


@dataclass
class Request:
    label: str
    latency: float = 0.0
    deduped: bool = False
    cache_hit: Optional[bool] = None
    status: int = 0
    payload: Optional[dict] = None
    error: str = ""


def _send(port: int, label: str, body: dict,
          tracer: Optional[Tracer]) -> Request:
    req = Request(label)

    def span(name):
        if tracer is None:
            return contextlib.nullcontext()
        return tracer.span(name)

    start = time.perf_counter()
    with span("serve.request"):
        with span("serve.submit"):
            status, sub = _http(port, "POST", "/v1/flows", body)
        if status not in (200, 202):
            req.status, req.error = status, str(sub)
            return req
        req.deduped = bool(sub.get("deduped"))
        with span("serve.events"):
            _events(port, sub["id"])
        with span("serve.result"):
            req.status, result = _http(
                port, "GET", f"/v1/flows/{sub['id']}/result"
            )
    req.latency = time.perf_counter() - start
    if req.status != 200:
        req.error = str(result)
        return req
    req.payload = result["result"]
    req.cache_hit = result.get("stage_cache_hit")
    return req


def _client(port: int, flows: List[Tuple[str, dict]], out: List[Request],
            tracer: Optional[Tracer]) -> None:
    """Closed loop: every flow once (hits), then every flow again."""
    for _ in range(2):
        for label, body in flows:
            if tracer is not None:
                tracer.set_thread_flow(label)
            try:
                out.append(_send(port, label, body, tracer))
            except (OSError, ValueError, KeyError) as exc:
                out.append(Request(label, error=f"{type(exc).__name__}: "
                                                f"{exc}"))


# -- job-graph timing ---------------------------------------------------------


def install_jobs_layer(tracer: Tracer, sink: List[Tuple[float, float]]):
    """Time each job from ``JobGraph.submit`` to dispatch and to done.

    While the pool has a free worker the graph dispatches inside
    ``submit`` (the job is already running when the SSE stream opens,
    so no ``pending`` event reaches a client); the queue wait is then
    the submit call itself.  Otherwise a state listener stamps the
    dispatch.  Appends ``(queue_wait_s, service_s)`` to *sink*.
    """
    from repro.exec.jobs import JobGraph, JobState

    def before(args, kwargs) -> float:
        return time.perf_counter()

    def after(job, args, kwargs, entered) -> Dict[str, float]:
        if args[1] is _warm_job:
            return {}
        returned = time.perf_counter()
        dispatched = [returned if job.state is not JobState.PENDING
                      else None]

        def listener(_job, state) -> None:
            now = time.perf_counter()
            if state is JobState.RUNNING:
                dispatched[0] = now
            elif state is JobState.DONE and dispatched[0] is not None:
                sink.append((dispatched[0] - entered, now - dispatched[0]))

        job.on_state(listener)
        return {}

    tracer.wrap(JobGraph, "submit", "exec.jobs.submit", before=before,
                after=after)


# -- worker-side tracing -----------------------------------------------------

#: The traced run's tracer; pool workers forked from this process
#: inherit it (and the wrappers that record into it).
_WORKER_TRACER: Optional[Tracer] = None


def traced_job(trace_dir: str, *args):
    """Pool job body of a traced round: the normal campaign worker,
    with the worker's exec-layer spans appended to a per-process file.
    """
    global _WORKER_TRACER
    from repro.bench.campaign import _campaign_run_worker

    if _WORKER_TRACER is None:  # a spawned (not forked) worker
        _WORKER_TRACER = Tracer()
        install_exec_layers(_WORKER_TRACER)
    tracer = _WORKER_TRACER
    tracer.reset_after_fork()
    index = tracer.open("exec.job", flow=args[0])
    try:
        return _campaign_run_worker(*args)
    finally:
        tracer.close(index)
        path = os.path.join(trace_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps([asdict(s) for s in tracer.spans]))
            handle.write("\n")


def _merge_worker_spans(tracer: Tracer, trace_dir: str) -> int:
    """Append every worker job's spans to *tracer*; returns jobs."""
    jobs = 0
    for name in sorted(os.listdir(trace_dir)):
        if not name.startswith("worker-"):
            continue
        with open(os.path.join(trace_dir, name)) as handle:
            for line in handle:
                base = len(tracer.spans)
                for raw in json.loads(line):
                    span = Span(**raw)
                    if span.parent is not None:
                        span.parent += base
                    tracer.spans.append(span)
                jobs += 1
    return jobs


# -- rounds -------------------------------------------------------------------


def _warm_job(name, specs, options, strategies, cache_dir):
    """Pool warm-up: hold the worker briefly, so each of the pool's
    workers takes one job, then run one cached flow."""
    from repro.bench.campaign import _campaign_run_worker

    time.sleep(0.02)
    return _campaign_run_worker(name, specs, options, strategies,
                                cache_dir, True)


@dataclass
class Round:
    boot: float
    wall: float
    #: Calibration kernel seconds taken around the round.
    probes: List[float]
    requests: List[Request] = field(default_factory=list)


def serve_round(cache_dir: str, flows, rng: random.Random,
                calibrator: Calibrator,
                tracer: Optional[Tracer] = None,
                trace_dir: Optional[str] = None) -> Round:
    from repro.exec.cache import StageCache
    from repro.serve.server import FlowServer
    from repro.serve.service import FlowService, FlowSubmission

    boot_start = time.perf_counter()
    runner = (
        functools.partial(traced_job, trace_dir) if trace_dir else None
    )
    service = FlowService(workers=WORKERS, cache=StageCache(cache_dir),
                          runner=runner)
    server = FlowServer(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        if not server.ready.wait(60):
            raise RuntimeError("flow server did not start")
        # Boot is set-up: fork both pool workers and take each through
        # one cached flow, and open the HTTP path once, so the timed
        # requests see a warm server.  The warm-up jobs bypass the
        # service, so no flow is registered and every timed first
        # submission still runs on the pool.
        submission = FlowSubmission.from_dict(flows[0][1])
        warm = [
            service.graph.submit(
                _warm_job, submission.name, submission.specs,
                submission.options,
                tuple(s.value for s in submission.strategies),
                cache_dir,
            )
            for _ in range(WORKERS)
        ]
        service.graph.wait(warm)
        _http(server.port, "GET", "/v1/healthz")
        boot = time.perf_counter() - boot_start
        order = list(flows)
        rng.shuffle(order)
        outs: List[List[Request]] = [[] for _ in range(CLIENTS)]
        clients = [
            threading.Thread(
                target=_client,
                args=(server.port, order[i::CLIENTS], outs[i], tracer),
            )
            for i in range(CLIENTS)
        ]
        before = calibrator.probe()
        start = time.perf_counter()
        for client in clients:
            client.start()
        for client in clients:
            client.join(120)
        wall = time.perf_counter() - start
        if any(client.is_alive() for client in clients):
            raise RuntimeError("a client did not finish within 120 s")
        probes = before + calibrator.probe()
    finally:
        server.stop()
        thread.join(120)
    return Round(boot, wall, probes, [r for out in outs for r in out])


def _payload_qor(payloads: Dict[str, dict]):
    """The cold workloads' QoR metrics over served payloads."""
    return qor_metrics({
        label: {
            strategy: (row["speedup"], row["wirelength_ratio"],
                       *row["frequency_ratios"])
            for strategy, row in payload["dcs"].items()
        }
        for label, payload in payloads.items()
    })


def _check_requests(requests: List[Request], reference: Dict[str, dict]
                    ) -> Tuple[int, List[str]]:
    failed, problems = 0, []
    for req in requests:
        found = []
        if req.error or req.payload is None:
            found.append(f"{req.label}: request failed: "
                         f"{req.status} {req.error}")
        else:
            found += checks.check_payload(
                req.label, req.payload, reference[req.label]
            )
            if not req.deduped and req.cache_hit is not True:
                found.append(f"{req.label}: executed flow missed the "
                             "filled stage cache")
        if found:
            failed += 1
            problems += found
    return failed, problems


def _fill(cache_dir: str, spec) -> Tuple[Dict[str, dict], float]:
    """Cold campaign of the grid into *cache_dir*: reference payloads."""
    from repro.api import run_campaign
    from repro.exec.cache import StageCache

    start = time.perf_counter()
    result = run_campaign(spec, workers=WORKERS,
                          cache=StageCache(cache_dir))
    seconds = time.perf_counter() - start
    reference = {
        f"{r['suite']}/{r['pair']}/{r['variant']}": {
            k: v for k, v in r.items() if k not in _RECORD_HEADER
        }
        for r in result.records
    }
    return reference, seconds


def _round_stats(rnd: Round, scale: float) -> Optional[Dict[str, float]]:
    """Calibrated latency percentiles and rates of one round."""
    ok = [r for r in rnd.requests if not r.error]
    latencies = [scale * r.latency for r in ok]
    hits = [scale * r.latency for r in ok if not r.deduped]
    if not hits:
        return None
    wall = scale * rnd.wall
    return {
        "p50": statistics.median(latencies),
        "p95": percentile(latencies, 95),
        "hit_p50": statistics.median(hits),
        "per_s": len(latencies) / wall,
        "hits_per_s": len(hits) / wall,
    }


def _rounds(cache_dir, flows, rng, seconds, calibrator, max_rounds=None,
            tracer=None, trace_dir=None) -> List[Round]:
    rounds: List[Round] = []
    measured = 0.0
    while True:
        rounds.append(serve_round(cache_dir, flows, rng, calibrator,
                                  tracer, trace_dir))
        measured += rounds[-1].wall
        if max_rounds is not None:
            if len(rounds) >= max_rounds:
                break
        elif measured >= seconds:
            break
    return rounds


def run_warm(seed: int, seconds: float, trace: bool, work_dir: str,
             scale: Optional[str] = None,
             limit: Optional[int] = None) -> Outcome:
    """Run the warm-serve workload; *scale*/*limit* shrink it."""
    spec, flows = grid(scale, limit)
    from repro.bench.campaign import campaign_runs

    unique_specs = sorted(
        {s for _, _, specs, _, _ in campaign_runs(spec) for s in specs},
        key=lambda s: s.name,
    )
    pairs = [(s.name, [s]) for s in unique_specs]
    calibrator = Calibrator()
    builds = []
    for _ in range(SETUP_REPEATS):
        before = calibrator.probe()
        secs = build_corpus(pairs)[1]
        builds.append(secs * calibrator.factor(before, calibrator.probe()))
    cache_dir = os.path.join(work_dir, "stage-cache")
    before = calibrator.probe()
    reference, fill_s = _fill(cache_dir, spec)
    fill_s *= calibrator.factor(before, calibrator.probe())
    rng = random.Random(seed)
    outcome = Outcome(seed=seed)
    # Rounds are short: one kernel run on each side of a round.
    round_calibrator = Calibrator(samples=1)

    if not trace:
        rounds = _rounds(cache_dir, flows, rng, seconds, round_calibrator)
        requests = [r for rnd in rounds for r in rnd.requests]
        outcome.attempted = len(requests)
        outcome.failed, outcome.problems = _check_requests(
            requests, reference
        )
        # One scale for the whole run: a round is too short for its own
        # two kernel runs to track the host, and per-round factors
        # would add their noise to every latency percentile.
        scale = Calibrator.factor(
            [p for rnd in rounds for p in rnd.probes], []
        )
        stats = [st for st in (_round_stats(rnd, scale) for rnd in rounds)
                 if st is not None]
        boot = scale * statistics.median(rnd.boot for rnd in rounds)

        # Each figure is the median over rounds of that round's value:
        # a burst of host contention spoils the rounds it hits, not
        # the run's figure.
        def over_rounds(key: str) -> float:
            return statistics.median(st[key] for st in stats)

        n_requests = sum(len(rnd.requests) for rnd in rounds)
        n_hits = sum(
            not r.deduped for rnd in rounds for r in rnd.requests
        )
        raw = [r.latency for rnd in rounds for r in rnd.requests]
        outcome.notes.append(
            f"raw (uncalibrated) latency_ms.p50 "
            f"{1000 * statistics.median(raw):.4f}, "
            f"raw requests_per_s "
            f"{len(raw) / sum(rnd.wall for rnd in rounds):.2f}"
        )
        if stats:
            # Not an end-to-end metric: between runs on a shared host
            # it moved by 0.13-0.42 (IQR/median), more than any bound.
            outcome.notes.append(
                f"latency_ms.p95 {1000 * over_rounds('p95'):.4f} "
                "(median over rounds; unbounded)"
            )
        outcome.add("setup_s", statistics.median(builds) + fill_s + boot,
                    "s", SETUP_REPEATS)
        if stats:
            outcome.add("flow_s.p50", over_rounds("hit_p50"), "s", n_hits)
            outcome.add("flows_per_min", 60.0 * over_rounds("hits_per_s"),
                        "1/min", n_hits)
            outcome.add("latency_ms.p50", 1000.0 * over_rounds("p50"),
                        "ms", n_requests)
            outcome.add("requests_per_s", over_rounds("per_s"), "1/s",
                        n_requests)
        for name, (value, unit, n) in _payload_qor(reference).items():
            outcome.add(name, value, unit, n)
        outcome.add("peak_rss_mb", peak_rss_mb(), "MB", 1)
        return outcome

    # Traced run: untraced rounds for half the time, then as many
    # traced rounds.
    plain = _rounds(cache_dir, flows, rng, seconds / 2, round_calibrator)
    global _WORKER_TRACER
    tracer = Tracer()
    install_flow_layers(tracer)
    install_exec_layers(tracer)
    trace_dir = os.path.join(work_dir, "worker-spans")
    os.makedirs(trace_dir, exist_ok=True)
    _WORKER_TRACER = tracer
    job_times: List[Tuple[float, float]] = []
    install_jobs_layer(tracer, job_times)
    try:
        build_corpus(pairs)
        traced = _rounds(cache_dir, flows, rng, 0.0, round_calibrator,
                         max_rounds=len(plain), tracer=tracer,
                         trace_dir=trace_dir)
    finally:
        _WORKER_TRACER = None
        tracer.restore()
    jobs = _merge_worker_spans(tracer, trace_dir)
    requests = [r for rnd in plain + traced for r in rnd.requests]
    outcome.attempted = len(requests)
    outcome.failed, outcome.problems = _check_requests(requests, reference)
    traced_reqs = [r for rnd in traced for r in rnd.requests]
    metrics = layer_metrics(tracer.spans, max(1, jobs), len(pairs))

    def median_ms(values):
        values = [v for v in values if v is not None]
        return 1000.0 * statistics.median(values) if values else 0.0

    def span_ms(name):
        return median_ms([s.seconds for s in tracer.spans if s.name == name])

    metrics["exec.jobs.queue_wait_ms"] = median_ms(
        [wait for wait, _ in job_times]
    )
    metrics["exec.jobs.service_ms"] = median_ms(
        [service for _, service in job_times]
    )
    metrics["serve.submit_ms"] = span_ms("serve.submit")
    metrics["serve.result_ms"] = span_ms("serve.result")
    metrics["serve.latency_ms.p95"] = 1000.0 * percentile(
        [r.latency for r in traced_reqs if not r.error] or [0.0], 95
    )
    metrics["serve.dedup_ratio"] = (
        sum(r.deduped for r in traced_reqs) / max(1, len(traced_reqs))
    )
    def calibrated_wall(rounds: List[Round]) -> float:
        probes = [p for rnd in rounds for p in rnd.probes]
        return Calibrator.factor(probes, []) * sum(r.wall for r in rounds)

    plain_wall = calibrated_wall(plain)
    traced_wall = calibrated_wall(traced)
    metrics["trace.overhead_s"] = (traced_wall - plain_wall) / len(traced)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    selfs = self_times(tracer.spans)
    req_spans = [(s, own) for s, own in zip(tracer.spans, selfs)
                 if s.name == "serve.request"]
    total = sum(s.seconds for s, _ in req_spans)
    metrics["trace.uncovered_frac"] = (
        sum(own for _, own in req_spans) / total if total else 0.0
    )
    outcome.layer = metrics
    outcome.tracer = tracer
    return outcome
