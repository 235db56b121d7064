"""Tests for repro.service: queue/store units, endpoint contracts,
fair-share scheduling, dedup, retries and worker crash recovery.

Server tests boot a real :class:`CampaignService` on a daemon thread
(port 0 → OS-picked) and talk to it over HTTP with the stdlib client,
exactly as a remote user would.  Campaign specs live in
``tests/service_specs.py`` and are always submitted by reference.
"""

import dataclasses
import http.client
import json
import threading
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.campaign import CampaignRunner, resolve_spec_ref
from repro.service import (
    ServiceClient,
    ServiceError,
    SharedResultStore,
    execute_chunk_by_ref,
    run_worker,
    start_in_thread,
)
from repro.service.jobs import Chunk, JobRequest, SubmitError
from repro.service.queue import FairShareQueue, QueueFull

SPECS = str(Path(__file__).parent / "service_specs.py")


def ref(name):
    return f"{SPECS}::{name}"


def serial_fingerprint(name, root_seed=None):
    """Fingerprint of a plain single-process CampaignRunner execution —
    the ground truth every service execution must match bit-for-bit."""
    campaign = resolve_spec_ref(ref(name))
    if root_seed is not None:
        campaign = dataclasses.replace(campaign, root_seed=root_seed)
    return CampaignRunner(campaign, workers=1,
                          use_cache=False).run().fingerprint()


@contextmanager
def serve(**kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("workers", 1)
    handle = start_in_thread(**kwargs)
    try:
        yield handle, ServiceClient(handle.url)
    finally:
        handle.stop()


def make_chunk(chunk_id, tenant, priority="normal", points=1,
               job_id="j1"):
    tasks = [(i, {"x": i}, 1) for i in range(points)]
    return Chunk(chunk_id=chunk_id, job_id=job_id, tenant=tenant,
                 priority=priority, tasks=tasks)


# ---------------------------------------------------------------------------
# FairShareQueue units
# ---------------------------------------------------------------------------


class TestFairShareQueue:
    def test_round_robin_between_equal_tenants(self):
        queue = FairShareQueue()
        for i in range(3):
            queue.push(make_chunk(f"a{i}", "a"))
        for i in range(3):
            queue.push(make_chunk(f"b{i}", "b"))
        order = [queue.pop().chunk_id for _ in range(6)]
        assert order == ["a0", "b0", "a1", "b1", "a2", "b2"]
        assert queue.pop() is None

    def test_weighted_tenant_served_proportionally(self):
        queue = FairShareQueue(weights={"big": 2.0})
        for i in range(20):
            queue.push(make_chunk(f"big{i}", "big"))
            queue.push(make_chunk(f"small{i}", "small"))
        first_nine = [queue.pop().tenant for _ in range(9)]
        # 2:1 service ratio — and the weight-1 tenant is never starved
        assert first_nine.count("big") == 6
        assert first_nine.count("small") == 3

    def test_priority_lanes_within_tenant(self):
        queue = FairShareQueue()
        queue.push(make_chunk("low", "a", priority="low"))
        queue.push(make_chunk("normal", "a", priority="normal"))
        queue.push(make_chunk("high", "a", priority="high"))
        order = [queue.pop().chunk_id for _ in range(3)]
        assert order == ["high", "normal", "low"]

    def test_fifo_within_lane(self):
        queue = FairShareQueue()
        for i in range(4):
            queue.push(make_chunk(f"c{i}", "a"))
        assert [queue.pop().chunk_id for _ in range(4)] \
            == ["c0", "c1", "c2", "c3"]

    def test_backpressure_counts_points_not_chunks(self):
        queue = FairShareQueue(max_depth=5)
        queue.push(make_chunk("c1", "a", points=3))
        assert queue.depth() == 3
        assert queue.has_capacity(2)
        assert not queue.has_capacity(3)
        with pytest.raises(QueueFull) as excinfo:
            queue.push(make_chunk("c2", "a", points=3))
        assert excinfo.value.pending == 3
        assert excinfo.value.requested == 3
        # force bypasses the bound (requeues must never be dropped)
        queue.push(make_chunk("c2", "a", points=3), force=True)
        assert queue.depth() == 6

    def test_pop_skips_cancelled_chunks(self):
        queue = FairShareQueue()
        cancelled = make_chunk("dead", "a")
        cancelled.cancelled = True
        queue.push(cancelled)
        queue.push(make_chunk("live", "a"))
        assert queue.pop().chunk_id == "live"
        assert queue.pop() is None

    def test_discard_job_removes_only_that_job(self):
        queue = FairShareQueue()
        queue.push(make_chunk("c1", "a", points=2, job_id="j1"))
        queue.push(make_chunk("c2", "a", points=3, job_id="j2"))
        assert queue.discard_job("j1") == 2
        assert queue.depth() == 3
        assert queue.pop().chunk_id == "c2"


# ---------------------------------------------------------------------------
# SharedResultStore units
# ---------------------------------------------------------------------------


class TestSharedResultStore:
    def test_single_flight_claim(self, tmp_path):
        store = SharedResultStore(tmp_path)
        assert store.try_claim("k1", owner="alice")
        assert not store.try_claim("k1", owner="bob")
        # re-asserting one's own claim is idempotent
        assert store.try_claim("k1", owner="alice")
        assert store.claimed_elsewhere("k1", "bob")
        assert not store.claimed_elsewhere("k1", "alice")
        store.release("k1", owner="alice")
        assert store.try_claim("k1", owner="bob")

    def test_release_respects_owner(self, tmp_path):
        store = SharedResultStore(tmp_path)
        store.try_claim("k1", owner="alice")
        store.release("k1", owner="bob")  # not bob's claim: no-op
        assert store.claim_info("k1")["owner"] == "alice"

    def test_stale_claim_taken_over(self, tmp_path):
        store = SharedResultStore(tmp_path, claim_ttl=10.0)
        assert store.try_claim("k1", owner="crashed", now=1000.0)
        # within the TTL the claim holds ...
        assert not store.try_claim("k1", owner="next", now=1005.0)
        # ... after it, the next claimant atomically takes over
        assert store.try_claim("k1", owner="next", now=1011.0)
        assert store.claim_info("k1")["owner"] == "next"

    def test_publish_stores_result_and_releases_claim(self, tmp_path):
        from repro.campaign.records import RunRecord

        store = SharedResultStore(tmp_path)
        store.try_claim("k1", owner="alice")
        record = RunRecord(index=0, params={"x": 1, "seed": 7},
                           seed=7, status="ok",
                           metrics={"y": 2.0})
        store.publish("k1", record, owner="alice")
        assert store.claim_info("k1") is None
        hit = store.get("k1")
        assert hit.metrics == {"y": 2.0}
        # published keys can no longer be claimed
        assert not store.try_claim("k1", owner="bob")


# ---------------------------------------------------------------------------
# JobRequest / chunk execution units
# ---------------------------------------------------------------------------


class TestJobRequest:
    def test_requires_spec(self):
        with pytest.raises(SubmitError):
            JobRequest.from_payload({})

    def test_rejects_unknown_priority(self):
        with pytest.raises(SubmitError):
            JobRequest.from_payload({"spec": "s.py", "priority": "max"})

    def test_rejects_bad_numbers(self):
        for field, value in (("limit", 0), ("chunk_size", 0),
                             ("limit", "many"), ("timeout", "soon")):
            with pytest.raises(SubmitError):
                JobRequest.from_payload({"spec": "s.py", field: value})

    def test_defaults_and_coercion(self):
        request = JobRequest.from_payload(
            {"spec": "s.py", "retries": "3", "chunk_size": 4,
             "root_seed": 9})
        assert request.tenant == "default"
        assert request.priority == "normal"
        assert request.retries == 3
        assert request.chunk_size == 4
        assert request.root_seed == 9


def test_execute_chunk_by_ref_runs_points():
    campaign = resolve_spec_ref(ref("quick"))
    from repro.campaign import plan_records

    records = plan_records(campaign)
    tasks = [(r.index, r.params, 1) for r in records[:3]]
    outcomes = execute_chunk_by_ref(ref("quick"), tasks, None)["outcomes"]
    assert [o["index"] for o in outcomes] == [0, 1, 2]
    for outcome, record in zip(outcomes, records):
        assert outcome["status"] == "ok"
        assert outcome["metrics"]["y"] == record.params["x"] * 2.0
        json.dumps(outcome)  # wire-safe


# ---------------------------------------------------------------------------
# Endpoint contracts
# ---------------------------------------------------------------------------


def test_submit_stream_results_end_to_end(tmp_path):
    out_dir = tmp_path / "out"
    with serve(workers=1, out_dir=out_dir) as (handle, client):
        assert client.health()["ok"]
        job = client.submit(ref("quick"), tenant="ana")
        assert job["state"] in ("queued", "running")
        assert job["total"] == 8

        streamed = list(client.stream(job["id"]))
        assert len(streamed) == 8
        assert [entry["seq"] for entry in streamed] == list(range(8))
        assert sorted(entry["index"] for entry in streamed) \
            == list(range(8))
        assert all(entry["status"] == "ok" for entry in streamed)
        assert all(entry["source"] == "executed" for entry in streamed)

        status = client.wait(job["id"], timeout=10)
        assert status["state"] == "done"
        assert status["executed"] == 8
        assert status["wait_seconds"] is not None
        assert status["run_seconds"] is not None

        results = client.results(job["id"])
        assert results["fingerprint"] == serial_fingerprint("quick")
        assert results["metrics"]["y"]["count"] == 8
        assert results["metrics"]["y"]["mean"] == pytest.approx(7.0)

        # the job's JSONL record log was written, one line per point
        log = out_dir / "jobs" / job["id"] / "records.jsonl"
        lines = [json.loads(line) for line
                 in log.read_text().splitlines()]
        assert len(lines) == 8

        assert client.jobs(tenant="ana")[0]["id"] == job["id"]
        assert client.jobs(tenant="nobody") == []


def test_resubmit_is_fully_cached(tmp_path):
    with serve(workers=1, store_dir=tmp_path / "store") as (_, client):
        first = client.submit(ref("quick"))
        done = client.wait(first["id"], timeout=10)
        assert done["executed"] == 8

        second = client.submit(ref("quick"))
        done = client.wait(second["id"], timeout=10)
        assert done["cached"] == 8
        assert done["executed"] == 0
        assert client.results(first["id"])["fingerprint"] \
            == client.results(second["id"])["fingerprint"]


def test_error_contracts(tmp_path):
    with serve(workers=1) as (handle, client):
        with pytest.raises(ServiceError) as excinfo:
            client.status("j99999")
        assert excinfo.value.status == 404

        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/jobs", {"tenant": "x"})
        assert excinfo.value.status == 400

        with pytest.raises(ServiceError) as excinfo:
            client.submit(str(tmp_path / "missing.py"))
        assert excinfo.value.status == 400

        with pytest.raises(ServiceError) as excinfo:
            client._request("DELETE", "/v1/jobs")
        assert excinfo.value.status == 405
        assert "POST" in excinfo.value.payload["allowed"]

        with pytest.raises(ServiceError) as excinfo:
            client._request("POST", "/v1/jobs",
                            {"spec": ref("quick"), "priority": "mega"})
        assert excinfo.value.status == 400


def test_broken_spec_rejected_with_422():
    with serve(workers=1) as (_, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit(ref("broken"))
        assert excinfo.value.status == 422
        payload = excinfo.value.payload
        assert payload["campaign"] == "broken"
        diagnostics = json.dumps(payload["diagnostics"])
        assert "src.out" in diagnostics  # names the unbound port
        # nothing was admitted
        assert client.jobs() == []


def test_nondeterministic_spec_rejected_with_422():
    """A model whose processing() draws from the global random state is
    refused at submit time with the behavioral-lint diagnostic."""
    with serve(workers=1) as (_, client):
        with pytest.raises(ServiceError) as excinfo:
            client.submit(ref("noisy"))
        assert excinfo.value.status == 422
        payload = excinfo.value.payload
        assert payload["campaign"] == "noisy"
        diagnostics = json.dumps(payload["diagnostics"])
        assert "CODE001" in diagnostics
        assert "random.random" in diagnostics
        assert client.jobs() == []


def test_backpressure_returns_429():
    with serve(workers=0, max_pending_points=4) as (_, client):
        accepted = client.submit(ref("quick"), limit=4)
        assert accepted["total"] == 4
        with pytest.raises(ServiceError) as excinfo:
            client.submit(ref("quick"))
        assert excinfo.value.status == 429
        assert excinfo.value.payload["pending"] == 4
        assert excinfo.value.payload["limit"] == 4
        # the first job's 4 in-flight points dedup away; only the 4
        # genuinely new points count against the bound
        assert excinfo.value.payload["requested"] == 4


def test_sse_stream_framing():
    with serve(workers=1) as (handle, client):
        job = client.submit(ref("quick"), chunk_size=8)
        client.wait(job["id"], timeout=10)

        connection = http.client.HTTPConnection(
            handle.service.host, handle.service.port, timeout=10)
        try:
            connection.request(
                "GET", f"/v1/jobs/{job['id']}/stream?sse=1")
            response = connection.getresponse()
            assert response.status == 200
            assert response.getheader("Content-Type") \
                .startswith("text/event-stream")
            body = response.read().decode()
        finally:
            connection.close()
        events = [block for block in body.split("\n\n") if block]
        assert len(events) == 9  # 8 points + terminator
        assert all(event.startswith("data: ")
                   for event in events[:8])
        assert events[-1].startswith("event: end")
        json.loads(events[0][len("data: "):])


def test_cancel_stops_queued_work():
    with serve(workers=1) as (_, client):
        job = client.submit(ref("slow"), chunk_size=1)
        stream = client.stream(job["id"])
        first = next(stream)  # at least one point computed
        assert first["status"] == "ok"
        cancelled = client.cancel(job["id"])
        assert cancelled["state"] == "cancelled"
        # idempotent
        assert client.cancel(job["id"])["state"] == "cancelled"
        # the stream terminates rather than hanging
        remaining = list(stream)
        status = client.status(job["id"])
        assert status["state"] == "cancelled"
        assert status["completed"] == 1 + len(remaining)
        assert status["completed"] < status["total"]


# ---------------------------------------------------------------------------
# Scheduling behavior over HTTP
# ---------------------------------------------------------------------------


def test_fair_share_small_tenant_finishes_during_big_sweep():
    with serve(workers=1) as (_, client):
        big = client.submit(ref("slow"), tenant="big", chunk_size=1)
        small = client.submit(ref("slow-small"), tenant="small",
                              chunk_size=1)
        done = client.wait(small["id"], timeout=15)
        assert done["state"] == "done"
        # round-robin interleaving: the 2-point tenant finished while
        # the 8-point tenant still has work in flight
        big_status = client.status(big["id"])
        assert big_status["state"] == "running"
        assert big_status["completed"] < big_status["total"]
        client.wait(big["id"], timeout=15)


def test_two_tenants_dedup_computes_each_point_once(tmp_path):
    with serve(workers=1, store_dir=tmp_path / "store",
               out_dir=tmp_path / "out") as (handle, client):
        job_a = client.submit(ref("slow"), tenant="ana", chunk_size=2)
        job_b = client.submit(ref("slow"), tenant="ben", chunk_size=2)
        done_a = client.wait(job_a["id"], timeout=20)
        done_b = client.wait(job_b["id"], timeout=20)

        # the overlapping sweep was computed exactly once fleet-wide
        assert done_a["executed"] == 8
        assert done_b["executed"] == 0
        assert done_b["cached"] + done_b["deduped"] == 8
        assert done_a["ok"] == done_b["ok"] == 8

        expected = serial_fingerprint("slow")
        assert client.results(job_a["id"])["fingerprint"] == expected
        assert client.results(job_b["id"])["fingerprint"] == expected

        metrics = client.metrics()
        counters = metrics["counters"]
        assert counters["service.points.executed"] == 8


def test_retry_recovers_transient_failures(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TEST_FLAKY_DIR", str(tmp_path))
    with serve(workers=1) as (_, client):
        job = client.submit(ref("flaky"), retries=1, chunk_size=1)
        done = client.wait(job["id"], timeout=15)
        assert done["state"] == "done"
        assert done["ok"] == 2
        records = list(client.stream(job["id"]))
        assert all(record["attempts"] == 2 for record in records)
        assert client.metrics()["counters"][
            "service.points.retried"] == 2


def test_retries_exhausted_marks_point_failed(tmp_path, monkeypatch):
    # retries=0: the single transient failure is final
    monkeypatch.setenv("REPRO_TEST_FLAKY_DIR", str(tmp_path))
    with serve(workers=1) as (_, client):
        job = client.submit(ref("flaky"), retries=0, chunk_size=1)
        done = client.wait(job["id"], timeout=15)
        assert done["state"] == "done"
        assert done["failed"] == 2
        records = list(client.stream(job["id"]))
        assert all(record["status"] == "failed" for record in records)
        assert all("transient flake" in record["error"]
                   for record in records)


def _failure_artifacts(directory):
    """``{file name: the diagnostic fields every executor must agree
    on}`` for one ``failures/`` directory."""
    return {
        path.name: {key: json.loads(path.read_text())[key]
                    for key in ("failure_kind", "params", "attempts",
                                "message")}
        for path in sorted(Path(directory).iterdir())}


def test_failure_artifacts_match_across_executors(tmp_path,
                                                  monkeypatch):
    # retries=0: both flaky points fail once, finally
    markers = tmp_path / "markers-runner"
    markers.mkdir()
    monkeypatch.setenv("REPRO_TEST_FLAKY_DIR", str(markers))
    CampaignRunner(resolve_spec_ref(ref("flaky")), retries=0,
                   use_cache=False, out_dir=tmp_path / "runner").run()
    expected = _failure_artifacts(tmp_path / "runner" / "failures")
    assert sorted(expected) == ["run_00000.diagnostic.json",
                                "run_00001.diagnostic.json"]
    assert expected["run_00000.diagnostic.json"]["message"] \
        == "RuntimeError: transient flake"

    # the service's local pool
    markers = tmp_path / "markers-pool"
    markers.mkdir()
    monkeypatch.setenv("REPRO_TEST_FLAKY_DIR", str(markers))
    with serve(workers=1, out_dir=tmp_path / "pool") as (_, client):
        job = client.submit(ref("flaky"), retries=0)
        assert client.wait(job["id"], timeout=15)["failed"] == 2
    assert _failure_artifacts(
        tmp_path / "pool" / "jobs" / job["id"] / "failures") == expected

    # a pull-worker; the second job joins the first's points in flight
    markers = tmp_path / "markers-worker"
    markers.mkdir()
    monkeypatch.setenv("REPRO_TEST_FLAKY_DIR", str(markers))
    with serve(workers=0, out_dir=tmp_path / "remote") as (handle,
                                                           client):
        leader = client.submit(ref("flaky"), retries=0)
        follower = client.submit(ref("flaky"), retries=0)
        assert run_worker(handle.url, worker_id="w", poll=0.05,
                          max_chunks=1) == 1
        assert client.wait(leader["id"], timeout=15)["failed"] == 2
        done = client.wait(follower["id"], timeout=15)
        assert done["failed"] == 2
        assert done["deduped"] == 2
    for job in (leader, follower):
        assert _failure_artifacts(
            tmp_path / "remote" / "jobs" / job["id"] / "failures") \
            == expected


# ---------------------------------------------------------------------------
# Remote worker plane
# ---------------------------------------------------------------------------


def test_remote_worker_executes_and_crash_is_recovered(tmp_path):
    with serve(workers=0, store_dir=tmp_path / "store",
               lease_timeout=0.75) as (handle, client):
        job = client.submit(ref("quick"), chunk_size=4)

        # a "crashed" worker: leases one chunk and never completes it
        crashed = client.lease("crasher")
        assert crashed is not None
        assert crashed["job_id"] == job["id"]
        assert len(crashed["tasks"]) == 4

        # a real worker drains everything, including the re-queued
        # chunk once its lease expires
        worker = threading.Thread(
            target=run_worker,
            args=(handle.url,),
            kwargs={"worker_id": "real", "poll": 0.05, "max_idle": 4.0},
            daemon=True)
        worker.start()
        done = client.wait(job["id"], timeout=20)
        worker.join(timeout=10)

        # no lost and no duplicated points
        assert done["state"] == "done"
        assert done["executed"] == 8
        assert done["completed"] == 8
        assert client.results(job["id"])["fingerprint"] \
            == serial_fingerprint("quick")
        counters = client.metrics()["counters"]
        assert counters["service.chunks.requeued"] >= 1


def test_duplicate_chunk_completion_is_dropped():
    with serve(workers=0) as (_, client):
        job = client.submit(ref("quick"), chunk_size=8)
        lease = client.lease("w1")
        outcomes = execute_chunk_by_ref(
            lease["spec"], [tuple(task) for task in lease["tasks"]],
            lease.get("timeout"))["outcomes"]
        first = client.complete("w1", lease["job_id"],
                                lease["chunk_id"], outcomes)
        assert first["accepted"]
        second = client.complete("w1", lease["job_id"],
                                 lease["chunk_id"], outcomes)
        assert not second["accepted"]
        done = client.wait(job["id"], timeout=10)
        assert done["executed"] == 8
        assert done["completed"] == 8

        # idle queue → 204 → None
        assert client.lease("w1") is None


def test_completion_ignores_outcomes_for_other_tasks():
    with serve(workers=0) as (handle, client):
        job = client.submit(ref("quick"), chunk_size=4)
        lease = client.lease("w1")
        assert [task[0] for task in lease["tasks"]] == [0, 1, 2, 3]
        outcomes = execute_chunk_by_ref(
            lease["spec"], [tuple(task) for task in lease["tasks"]],
            lease.get("timeout"))["outcomes"]
        forged = [dict(outcomes[0], index=4, metrics={"forged": 1.0}),
                  dict(outcomes[0], index="x", metrics={"forged": 2.0})]
        assert client.complete("w1", lease["job_id"], lease["chunk_id"],
                               outcomes + forged)["accepted"]
        status = client.status(job["id"])
        assert status["completed"] == 4
        assert status["executed"] == 4
        # index 4 was never finalized: its own chunk is still leasable
        assert run_worker(handle.url, worker_id="real", poll=0.05,
                          max_chunks=1) == 1
        done = client.wait(job["id"], timeout=10)
        assert done["state"] == "done"
        assert done["executed"] == 8
        results = client.results(job["id"])
        assert results["fingerprint"] == serial_fingerprint("quick")
        assert "forged" not in results["metrics"]


def test_service_metrics_expose_queue_and_job_timings(tmp_path):
    with serve(workers=1, store_dir=tmp_path / "store") as (_, client):
        job = client.submit(ref("quick"))
        client.wait(job["id"], timeout=10)
        metrics = client.metrics()
        assert "queue.depth" in metrics["gauges"]
        histograms = metrics["histograms"]
        assert histograms["job.wait_seconds"]["count"] >= 1
        assert histograms["job.run_seconds"]["count"] >= 1
        assert metrics["counters"]["service.jobs.completed"] == 1


# ---------------------------------------------------------------------------
# fleet observability: stitched traces, /metrics, per-tenant usage
# ---------------------------------------------------------------------------


def prom_value(text, line_prefix):
    """The sample value for an exact series prefix, or None."""
    for line in text.splitlines():
        if line.startswith(line_prefix + " "):
            return float(line.split()[-1])
    return None


class TestFleetObservability:
    def test_two_process_job_one_stitched_trace(self, tmp_path):
        from repro.observe import validate_chrome_trace
        from repro.observe.fleet import TraceContext

        with serve(workers=1) as (handle, client):
            job = client.submit(ref("slow"), tenant="ana",
                                chunk_size=1)
            stop = threading.Event()
            worker = threading.Thread(
                target=run_worker, args=(handle.url,),
                kwargs={"worker_id": "pull-1", "poll": 0.02,
                        "stop_when": stop.is_set}, daemon=True)
            worker.start()
            try:
                done = client.wait(job["id"], timeout=30)
            finally:
                stop.set()
                worker.join(timeout=10)
            assert done["state"] == "done"

            trace = client.job_trace(job["id"])
            assert validate_chrome_trace(trace) == []

            other = trace["otherData"]
            # one job, one trace id, carried across every boundary
            context = TraceContext.parse(other["traceparent"])
            assert len(context.trace_id) == 32
            # spans from at least two processes (the server plus an
            # executor; with both planes active, three)
            assert other["processes"] >= 2
            process_names = {
                event["args"]["name"]
                for event in trace["traceEvents"]
                if event.get("ph") == "M"
                and event["name"] == "process_name"}
            assert any(name.startswith("server")
                       for name in process_names)
            assert any(not name.startswith("server")
                       for name in process_names)

            names = {event["name"]
                     for event in trace["traceEvents"]
                     if event.get("ph") in ("X", "i")}
            # the documented service span taxonomy (TUTORIAL §12)
            assert {"job.submit", "job.run", "queue.wait",
                    "chunk.run", "point.run"} <= names

            # the worker plane contributed real point spans
            point_spans = [event for event in trace["traceEvents"]
                           if event.get("ph") == "X"
                           and event["name"] == "point.run"]
            assert len(point_spans) == 8
            assert all(event["dur"] >= 0 for event in point_spans)

    def test_lease_carries_job_trace_context(self):
        from repro.observe.fleet import TraceContext

        with serve(workers=0) as (_, client):
            job = client.submit(ref("quick"), chunk_size=4)
            lease = client.lease("w1")
            context = TraceContext.parse(lease["traceparent"])
            trace = client.job_trace(job["id"])
            job_context = TraceContext.parse(
                trace["otherData"]["traceparent"])
            # chunk context is a child: same trace, different span
            assert context.trace_id == job_context.trace_id
            assert context.span_id != job_context.span_id

    def test_prometheus_reconciles_with_job_records(self, tmp_path):
        from repro.observe import validate_prometheus_text

        out_dir = tmp_path / "out"
        with serve(workers=1, out_dir=out_dir) as (_, client):
            job = client.submit(ref("quick"), tenant="ana")
            done = client.wait(job["id"], timeout=10)
            assert done["state"] == "done"

            log = out_dir / "jobs" / job["id"] / "records.jsonl"
            records = [json.loads(line)
                       for line in log.read_text().splitlines()]
            executed = sum(1 for record in records
                           if record["source"] == "executed")

            text = client.prometheus()
            assert validate_prometheus_text(text) == []
            assert prom_value(
                text, 'service_points_total{kind="executed"}') \
                == executed
            assert prom_value(
                text, 'service_points_total'
                '{kind="executed",tenant="ana"}') == executed
            assert prom_value(
                text, 'service_jobs_total{event="completed"}') == 1
            assert prom_value(
                text, 'service_point_seconds_count{tenant="ana"}') \
                == executed

    def test_usage_endpoint_accounts_per_tenant(self, tmp_path):
        with serve(workers=1,
                   store_dir=tmp_path / "store") as (_, client):
            first = client.submit(ref("quick"), tenant="ana")
            client.wait(first["id"], timeout=10)
            second = client.submit(ref("quick"), tenant="ana")
            client.wait(second["id"], timeout=10)

            usage = client.usage("ana")
            assert usage["tenant"] == "ana"
            assert usage["jobs"]["total"] == 2
            assert usage["points"]["executed"] == 8
            assert usage["points"]["cached"] == 8
            assert usage["points"]["failed"] == 0
            assert usage["cache_hit_ratio"] == pytest.approx(0.5)
            # the cached job never queued a chunk, so only the first
            # job's dispatch contributes queue-wait observations
            assert usage["queue_wait_seconds"]["count"] >= 1
            assert usage["point_seconds"]["count"] == 8

            with pytest.raises(ServiceError) as excinfo:
                client.usage("nobody")
            assert excinfo.value.status == 404

    def test_usage_counts_failures_by_kind(self, tmp_path,
                                           monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAKY_DIR", str(tmp_path))
        with serve(workers=1) as (_, client):
            job = client.submit(ref("flaky"), tenant="bob",
                                retries=0, chunk_size=1)
            done = client.wait(job["id"], timeout=15)
            assert done["failed"] == 2
            usage = client.usage("bob")
            assert usage["points"]["failed"] == 2
            assert sum(usage["failure_kinds"].values()) \
                == usage["points"]["failed"]

    def test_observe_off_serverwide_disables_tracing(self):
        with serve(workers=1, observe="off") as (_, client):
            job = client.submit(ref("quick"))
            client.wait(job["id"], timeout=10)
            with pytest.raises(ServiceError) as excinfo:
                client.job_trace(job["id"])
            assert excinfo.value.status == 404
            # lease/complete still work untraced, and /metrics still
            # serves the server's own registry
            assert "service_jobs_total" in client.prometheus()

    def test_observe_off_per_job(self):
        with serve(workers=0) as (_, client):
            job = client.submit(ref("quick"), chunk_size=8,
                                observe=False)
            lease = client.lease("w1")
            assert lease.get("traceparent") is None
            outcomes = execute_chunk_by_ref(
                lease["spec"],
                [tuple(task) for task in lease["tasks"]],
                lease.get("timeout"))["outcomes"]
            client.complete("w1", lease["job_id"],
                            lease["chunk_id"], outcomes)
            client.wait(job["id"], timeout=10)
            with pytest.raises(ServiceError) as excinfo:
                client.job_trace(job["id"])
            assert excinfo.value.status == 404

    def test_traced_overhead_within_documented_bound(self):
        import time as time_module

        def timed_run(observe, repeats=3):
            best = float("inf")
            for _ in range(repeats):
                with serve(workers=1,
                           observe=observe) as (_, client):
                    start = time_module.perf_counter()
                    job = client.submit(ref("quick"))
                    client.wait(job["id"], timeout=10, poll=0.02)
                    best = min(best,
                               time_module.perf_counter() - start)
            return best

        # Same contract as tests/test_observe.py::TestOverhead, at
        # the service tier: tracing every chunk and shipping segments
        # stays within 2x of the untraced service (absolute floor
        # absorbs scheduler/poll jitter on a sub-second job).
        disabled = timed_run("off")
        enabled = timed_run("on")
        assert enabled <= max(2.0 * disabled, disabled + 0.25), (
            f"fleet telemetry overhead too high: {enabled:.4f}s vs "
            f"{disabled:.4f}s untraced")
