"""Tests of the compile service (``repro.serve``).

Three layers:

* **Wire validation** — ``FlowSubmission.from_dict`` rejects malformed
  payloads with explicit errors; the fingerprint is the campaign
  stage-cache key (stable, and sensitive to every input).
* **Service semantics** (stub runner, no HTTP) — in-flight dedup,
  retry-after-failure, per-tenant quotas, drain.
* **End-to-end over HTTP** — a real server executes a real tiny flow
  once for two identical submissions, and the payload is bit-identical
  to running the campaign worker directly.
"""

import json
import threading
import time

import pytest

from repro.bench.campaign import _campaign_run_worker
from repro.exec.cache import StageCache
from repro.exec.jobs import JobState
from repro.exec.progress import StageRecord
from repro.serve import (
    FlowService,
    FlowSubmission,
    QuotaExceeded,
    ServiceDraining,
    SubmissionError,
)
from repro.serve.client import ServeClient, ServeError, pair_submission
from repro.serve.server import FlowServer


def mode_dict(name, seed=0, taps=3):
    return {
        "kind": "fir", "name": name, "seed": seed, "k": 4,
        "params": {"taps": taps},
    }


def submission_dict(seed=0, tenant="default", priority="batch", **extra):
    body = {
        "modes": [
            mode_dict(f"lp{seed}", seed=seed),
            mode_dict(f"hp{seed}", seed=seed, taps=4),
        ],
        "options": {"inner_num": 0.1, "seed": seed},
        "tenant": tenant,
        "priority": priority,
    }
    body.update(extra)
    return body


def make_submission(**kwargs):
    return FlowSubmission.from_dict(submission_dict(**kwargs))


# ---------------------------------------------------------------------------
# wire validation + fingerprints
# ---------------------------------------------------------------------------


class TestSubmissionValidation:
    @pytest.mark.smoke
    def test_minimal_payload_parses(self):
        sub = FlowSubmission.from_dict({"modes": [mode_dict("m0")]})
        assert sub.name == "m0"
        assert sub.tenant == "default"
        assert sub.priority == "batch"
        assert [s.value for s in sub.strategies] == [
            "edge_matching", "wire_length",
        ]

    @pytest.mark.parametrize("payload,match", [
        ("nope", "must be a JSON object"),
        ({}, "'modes' must be a non-empty list"),
        ({"modes": []}, "'modes' must be a non-empty list"),
        ({"modes": [mode_dict("m")], "mode": 1}, "unknown submission key"),
        ({"modes": [{"kind": "warp", "name": "m"}]},
         "unknown workload kind"),
        ({"modes": [{"kind": "fir"}]}, "'name' must be a non-empty"),
        ({"modes": [mode_dict("m")], "options": {"sed": 1}},
         "options: unknown FlowOptions key"),
        ({"modes": [mode_dict("m")], "options": {"k": 1}},
         "options: FlowOptions.k"),
        ({"modes": [mode_dict("m")], "strategies": ["zigzag"]},
         "unknown merge strategy"),
        ({"modes": [mode_dict("m")], "priority": "urgent"},
         "unknown priority"),
        ({"modes": [mode_dict("m")], "tenant": ""},
         "'tenant' must be a non-empty string"),
        ({"modes": [mode_dict("m")], "options": {"batched_placer": True}},
         "options: unknown FlowOptions key"),
    ])
    def test_malformed_payloads_rejected(self, payload, match):
        with pytest.raises(SubmissionError, match=match):
            FlowSubmission.from_dict(payload)

    def test_round_trip(self):
        sub = make_submission(seed=2, tenant="t", priority="interactive")
        again = FlowSubmission.from_dict(
            json.loads(json.dumps(sub.to_dict()))
        )
        assert again == sub
        assert again.fingerprint() == sub.fingerprint()


class TestFingerprint:
    def test_stable_across_equivalent_wire_forms(self):
        # inner_num 0.1 typed as float either way; option order and
        # omitted-default keys must not split the fingerprint.
        a = FlowSubmission.from_dict(submission_dict())
        payload = submission_dict()
        payload["options"] = {"seed": 0, "inner_num": 0.1, "k": 4}
        b = FlowSubmission.from_dict(payload)
        assert a.fingerprint() == b.fingerprint()

    def test_sensitive_to_every_input(self):
        base = make_submission().fingerprint()
        assert make_submission(seed=1).fingerprint() != base
        other_opts = FlowSubmission.from_dict(
            submission_dict(options={"inner_num": 0.2, "seed": 0})
        )
        assert other_opts.fingerprint() != base
        other_strat = FlowSubmission.from_dict(
            submission_dict(strategies=["wire_length"])
        )
        assert other_strat.fingerprint() != base

    def test_tenant_and_priority_do_not_split_identity(self):
        # Dedup is about the computed artefact; who asked, and how
        # urgently, must not fork the cache key.
        a = make_submission(tenant="alice", priority="interactive")
        b = make_submission(tenant="bob", priority="batch")
        assert a.fingerprint() == b.fingerprint()


# ---------------------------------------------------------------------------
# service semantics (stub runner)
# ---------------------------------------------------------------------------


def stub_service(runner, **kwargs):
    kwargs.setdefault("workers", 2)
    return FlowService(
        use_threads=True,
        cache=StageCache(None, enabled=False),
        runner=runner,
        **kwargs,
    )


def ok_runner(name, specs, options, strategies, root, enabled):
    return (
        {"name": name, "seed": options.seed},
        [StageRecord("campaign", name, 0.0, False)],
    )


def fail_runner(name, specs, options, strategies, root, enabled):
    raise RuntimeError("flow exploded")


def wait_terminal(record, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not record.state.terminal:
        if time.monotonic() > deadline:
            raise TimeoutError(f"{record.id} still {record.state}")
        time.sleep(0.01)


class TestFlowService:
    def test_identical_inflight_submissions_collapse(self):
        release = threading.Event()

        def gated(name, *rest):
            release.wait(10)
            return ok_runner(name, *rest)

        service = stub_service(gated)
        try:
            first, deduped1 = service.submit(make_submission(tenant="a"))
            second, deduped2 = service.submit(make_submission(tenant="b"))
            assert (deduped1, deduped2) == (False, True)
            assert second is first
            assert first.n_submissions == 2
            assert first.tenants == {"a", "b"}
            release.set()
            wait_terminal(first)
            assert first.state is JobState.DONE
            assert service.n_executed == 1
            assert service.n_deduped == 1
        finally:
            release.set()
            service.shutdown()

    def test_completed_flow_still_dedups(self):
        service = stub_service(ok_runner)
        try:
            record, _ = service.submit(make_submission())
            wait_terminal(record)
            again, deduped = service.submit(make_submission())
            assert deduped is True
            assert again is record
        finally:
            service.shutdown()

    def test_failed_flow_retries_under_fresh_record(self):
        service = stub_service(fail_runner)
        try:
            record, _ = service.submit(make_submission())
            wait_terminal(record)
            assert record.state is JobState.FAILED
            assert "flow exploded" in record.error
            retry, deduped = service.submit(make_submission())
            assert deduped is False
            assert retry.id != record.id
        finally:
            service.shutdown()

    def test_tenant_quota_rejects_excess_active_flows(self):
        release = threading.Event()

        def gated(name, *rest):
            release.wait(10)
            return ok_runner(name, *rest)

        service = stub_service(gated, tenant_quota=1)
        try:
            service.submit(make_submission(seed=0, tenant="t"))
            with pytest.raises(QuotaExceeded) as info:
                service.submit(make_submission(seed=1, tenant="t"))
            assert info.value.tenant == "t"
            assert (info.value.active, info.value.quota) == (1, 1)
            # A different tenant is unaffected; a deduped attach to an
            # existing flow costs nothing and is never rejected.
            _, deduped = service.submit(make_submission(seed=0, tenant="t"))
            assert deduped is True
            service.submit(make_submission(seed=2, tenant="other"))
            assert service.n_quota_rejected == 1
        finally:
            release.set()
            service.shutdown()

    def test_drain_refuses_new_submissions(self):
        service = stub_service(ok_runner)
        try:
            record, _ = service.submit(make_submission())
            assert service.drain(timeout=10) is True
            assert record.state is JobState.DONE
            with pytest.raises(ServiceDraining):
                service.submit(make_submission(seed=9))
        finally:
            service.shutdown()


# ---------------------------------------------------------------------------
# end-to-end over HTTP (real flow, tiny FIR pair)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("serve-cache")
    service = FlowService(
        workers=2,
        use_threads=True,
        cache=StageCache(str(cache_dir)),
        tenant_quota=4,
    )
    server = FlowServer(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    assert server.ready.wait(10)
    client = ServeClient(server.url, timeout=120)
    yield service, server, client
    server.stop()
    thread.join(timeout=10)


def tiny_fir_submission():
    return pair_submission(
        "fir", scale="tiny", options={"inner_num": 0.1}
    )


class TestServerEndToEnd:
    def test_concurrent_identical_submissions_run_once(self, served):
        service, _server, client = served
        body = tiny_fir_submission()
        first = client.submit(body)
        second = client.submit(body)
        assert first["deduped"] is False
        assert second["deduped"] is True
        assert second["id"] == first["id"]
        assert second["fingerprint"] == first["fingerprint"]
        assert second["n_submissions"] == 2

        status = client.wait(first["id"], timeout=300)
        assert status["state"] == "done"
        result = client.result(first["id"])

        # The server executed the pair exactly once...
        stats = client.stats()
        assert stats["executed"] == 1
        assert stats["deduped"] == 1

        # ...the fingerprint is the campaign stage key of the same
        # submission, and the payload is bit-identical to running the
        # worker directly (fresh, uncached) on the same inputs.
        submission = FlowSubmission.from_dict(body)
        assert result["fingerprint"] == submission.fingerprint()
        payload, _records = _campaign_run_worker(
            submission.name,
            submission.specs,
            submission.options,
            tuple(s.value for s in submission.strategies),
            None,
            False,
        )
        assert result["result"] == json.loads(json.dumps(payload))

    def test_resubmission_after_completion_dedups(self, served):
        _service, _server, client = served
        response = client.submit(tiny_fir_submission())
        assert response["deduped"] is True
        assert response["state"] == "done"

    def test_events_stream_ends_terminal(self, served):
        _service, _server, client = served
        flow_id = client.submit(tiny_fir_submission())["id"]
        events = list(client.events(flow_id, timeout=300))
        assert events
        assert events[-1]["state"] == "done"

    def test_submission_error_maps_to_400(self, served):
        _service, _server, client = served
        with pytest.raises(ServeError) as info:
            client.submit({"modes": [], "bogus": 1})
        assert info.value.status == 400

    def test_unknown_flow_maps_to_404(self, served):
        _service, _server, client = served
        with pytest.raises(ServeError) as info:
            client.result("flow-999999")
        assert info.value.status == 404

    def test_healthz_and_stats(self, served):
        _service, _server, client = served
        assert client.healthz()["status"] == "ok"
        stats = client.stats()
        assert stats["executor"] == "thread"
        assert stats["cache_enabled"] is True


class TestServerAdmin:
    def test_quota_resize_drain_over_http(self):
        service = FlowService(
            workers=1,
            use_threads=True,
            cache=StageCache(None, enabled=False),
            tenant_quota=1,
            runner=ok_runner,
        )
        server = FlowServer(service, port=0)
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        assert server.ready.wait(10)
        client = ServeClient(server.url, timeout=30)
        release = threading.Event()
        try:
            assert client.resize(2) == {"workers": 2}

            original = service.runner

            def gated(name, *rest):
                release.wait(10)
                return original(name, *rest)

            service.runner = gated
            first = client.submit(submission_dict(seed=0, tenant="t"))
            assert first["deduped"] is False
            with pytest.raises(ServeError) as info:
                client.submit(submission_dict(seed=1, tenant="t"))
            assert info.value.status == 429
            assert info.value.payload["quota"] == 1
            release.set()

            drained = client.drain(stop=False)
            assert drained == {"drained": True, "stopped": False}
            with pytest.raises(ServeError) as info:
                client.submit(submission_dict(seed=2, tenant="t"))
            assert info.value.status == 503
            assert client.healthz()["status"] == "draining"
        finally:
            release.set()
            server.stop()
            thread.join(timeout=10)
