"""Cold child sessions of the benchmark workloads.

Every session is a fresh interpreter, as a user's batch invocation, a
simulation script or a service start would be, so each one pays and
measures its own set-up::

    python3 sessions.py {preflight,sim,service} '<json arguments>'

The last line of standard output is one JSON object with the session's
timings and the outputs the parent checks.  ``spawned`` in the
arguments is the parent's ``time.monotonic()`` just before the spawn;
Linux's monotonic clock is shared by all processes, so ``ready -
spawned`` is the set-up time including interpreter start and imports.
"""

import json
import os
import sys
import time

from common import SPEC_REF, Spans, derive_seed, pin_to_one_cpu, use_repo_paths

use_repo_paths()


def limited(campaign, root_seed, limit):
    """``campaign`` with another root seed and its first ``limit`` points,
    the same customization the service applies to a submitted job."""
    import dataclasses

    from repro.campaign import FixedPoints

    return dataclasses.replace(
        campaign, root_seed=root_seed,
        space=FixedPoints(campaign.points()[:limit]))


def delivered_samples(records):
    """Sink samples of every completed point, executed or served."""
    return sum(record["metrics"]["samples"] for record in records
               if record["status"] == "ok")


def preflight(args, spans):
    """One batch invocation: a cold process runs the campaign through
    ``CampaignRunner`` with the default ``verify="auto"`` and a fresh
    out/cache directory."""
    from repro.campaign import CampaignRunner, resolve_spec_ref

    with spans.span("campaign.resolve"):
        campaign = limited(resolve_spec_ref(SPEC_REF), args["seed"],
                           args["limit"])
    ready = time.monotonic()
    runner = CampaignRunner(campaign, workers=args["workers"],
                            out_dir=args["out"])
    with spans.span("campaign.run"):
        start = time.perf_counter()
        results = runner.run()
        run_s = time.perf_counter() - start
    records = [record.to_dict() for record in results]
    return {
        "setup_s": ready - args["spawned"],
        "run_s": run_s,
        "points": len(records),
        "failed": len(results.failed()),
        "stats": runner.stats,
        "fingerprint": results.fingerprint(),
        "samples": delivered_samples(records),
    }


def sim(args, spans):
    """Long simulations: build → elaborate → run each model, then check
    its stream against the scalar engine on a short prefix."""
    import hashlib

    import numpy as np

    from campaigns import build_model
    from models import sink_streams
    from repro.core import SimTime, Simulator

    ready = time.monotonic()
    jobs = []
    prefixes = []
    for name, seed, duration_us in args["models"]:
        start = time.perf_counter()
        with spans.span("model.build", model=name):
            top = build_model(name, seed)
            simulator = Simulator(top)
        with spans.span("model.elaborate", model=name):
            simulator.elaborate()
        with spans.span("model.run", model=name):
            run_start = time.perf_counter()
            simulator.run(SimTime(duration_us, "us"))
            run_s = time.perf_counter() - run_start
        job_s = time.perf_counter() - start
        _, samples = sink_streams(top)
        snapshot = simulator.metrics_snapshot()
        jobs.append({
            "model": name,
            "duration_us": duration_us,
            "job_s": job_s,
            "run_s": run_s,
            "samples": len(samples),
            "digest": hashlib.sha256(samples.tobytes()).hexdigest(),
            "counters": {key: snapshot[key] for key in args["counters"]},
        })
        prefixes.append(samples[:int(args["prefix_us"]) + 1])
    for job, prefix, (name, seed, _) in zip(jobs, prefixes, args["models"]):
        top = build_model(name, seed)
        scalar = Simulator(top, tdf_block=False)
        scalar.run(SimTime(args["prefix_us"], "us"))
        _, reference = sink_streams(top)
        job["scalar_match"] = bool(np.array_equal(reference, prefix))
    return {"setup_s": ready - args["spawned"], "jobs": jobs}


def tenant_jobs(seed, tenant, size):
    """A tenant's endless job sequence: ``(root_seed, limit)`` pairs.

    Jobs come in families sharing a root seed: the first job of a
    family runs ``size`` new points, the second extends it to
    ``2 * size``, so half of its points repeat the first job's and are
    served from the store.  Every job executes exactly ``size`` points,
    and no job is repeated whole.
    """
    family = 0
    while True:
        root = derive_seed(seed, "tenant", tenant, family)
        yield root, size
        yield root, 2 * size
        family += 1


def service(args, spans):
    """A service with two local workers under a closed loop of two
    tenants, each keeping one job outstanding."""
    from repro.service import ServiceClient, start_in_thread

    handle = start_in_thread(port=0, workers=args["workers"],
                             out_dir=args["out"], store_dir=args["store"],
                             observe="on")
    try:
        client = ServiceClient(handle.url)
        warm = client.submit(SPEC_REF, tenant="warmup",
                             root_seed=derive_seed(args["seed"], "warmup"),
                             limit=2 * args["size"])
        client.wait(warm["id"], timeout=60.0, poll=args["poll"])
        ready = time.monotonic()
        return _closed_loop(args, spans, client, ready)
    finally:
        handle.stop()


def _closed_loop(args, spans, client, ready):
    tenants = [f"t{k}" for k in range(args["tenants"])]
    sequences = {t: tenant_jobs(args["seed"], t, args["size"])
                 for t in tenants}
    outstanding = {}
    jobs = []

    def submit(tenant):
        root, limit = next(sequences[tenant])
        with spans.span("service.submit", tenant=tenant):
            start = time.perf_counter()
            job = client.submit(SPEC_REF, tenant=tenant, root_seed=root,
                                limit=limit)
        outstanding[tenant] = {"id": job["id"], "tenant": tenant,
                               "root_seed": root, "limit": limit,
                               "submitted": start,
                               "submit_s": time.perf_counter() - start}

    loop_start = time.perf_counter()
    deadline = loop_start + args["window"]
    for tenant in tenants:
        submit(tenant)
    last_done = loop_start
    while outstanding:
        time.sleep(args["poll"])
        for tenant in list(outstanding):
            job = outstanding[tenant]
            with spans.span("service.status", tenant=tenant):
                status = client.status(job["id"])
            if status["state"] not in ("done", "cancelled"):
                continue
            last_done = time.perf_counter()
            job["latency_s"] = last_done - job["submitted"]
            job["state"] = status["state"]
            jobs.append(job)
            del outstanding[tenant]
            if last_done < deadline:
                submit(tenant)
    window_s = last_done - loop_start

    samples = points = failed = 0
    for job in jobs:
        with spans.span("service.results"):
            result = client.results(job["id"])
        job["fingerprint"] = result["fingerprint"]
        job["counts"] = result["counts"]
        points += result["counts"]["completed"]
        failed += result["counts"]["failed"]
        path = os.path.join(args["out"], "jobs", job["id"], "records.jsonl")
        with open(path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle if line.strip()]
        samples += delivered_samples(records)
    usage = {tenant: client.usage(tenant) for tenant in tenants}
    return {
        "setup_s": ready - args["spawned"],
        "window_s": window_s,
        "jobs": jobs,
        "points": points,
        "failed": failed,
        "samples": samples,
        "usage": usage,
    }


SESSIONS = {"preflight": preflight, "sim": sim, "service": service}


def main(argv):
    pin_to_one_cpu()
    kind, args = argv[1], json.loads(argv[2])
    spans = Spans(enabled=bool(args.get("trace")))
    result = SESSIONS[kind](args, spans)
    result["spans"] = spans.records
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)
