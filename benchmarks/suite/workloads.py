"""The three benchmark workloads: cold sessions, output checks, metrics.

Each workload runs cold child sessions (``sessions.py``) until its time
budget is spent, checks every output against an oracle computed here,
and reduces the sessions to the end-to-end metrics.
"""

import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

from common import (
    HERE,
    SPEC_REF,
    child_env,
    derive_seed,
    peak_rss_mb,
    quantile,
    timing_summary,
)

WHY = {
    "campaign_preflight": (
        "cold batch campaign with verify='auto': static pre-flight does "
        "most of the work, simulation little; a batch CLI user pays it on "
        "every invocation"),
    "sim_long": (
        "long direct simulations of the three perf models: TDF, sparse ELN "
        "and mixed TDF+CT do almost all the work; verify, campaign and "
        "service do none"),
    "service_tenants": (
        "campaign service, two tenants in a closed loop with partial "
        "repeats: queue, store, HTTP and fleet telemetry do most of the "
        "work; pre-flight checks only the first point of a job"),
}

#: work counters of ``Simulator.metrics_snapshot()`` checked exactly.
COUNTERS = ("tdf.activations", "tdf.periods", "solver.steps",
            "solver.factorizations", "solver.refactorizations",
            "kernel.delta_cycles")

#: TDF modules per model, and whether it embeds a CT solver.
TDF_MODULES = {"adc_chain": 8, "mixed_chain": 5, "eln_ladder": 3}
HAS_SOLVER = {"adc_chain": False, "mixed_chain": True, "eln_ladder": True}
#: ``Simulator``'s default ``tdf_batch``: cluster periods per kernel wake-up.
TDF_BATCH = 16
#: distinct-timestep factorizations of the CT models, per duration in µs
#: (float rounding of the sample times yields a few distinct steps).
FACTORIZATIONS = {
    ("mixed_chain", 1000): 12, ("mixed_chain", 95000): 18,
    ("eln_ladder", 500): 11, ("eln_ladder", 28000): 16,
}

#: sizes of a measured run; ``SMOKE`` shrinks every one of them.
FULL = {
    "workers": 2,
    "min_sessions": 3,
    "preflight_points": 30,
    # about 0.5, 1.0 and 1.5 s each: job times form three separate
    # clusters, so job_p50_s and job_p75_s fall inside a cluster
    "sim_models": (("adc_chain", 80000), ("eln_ladder", 28000),
                   ("mixed_chain", 95000)),
    "prefix_us": 2000,
    "service_size": 6,
    "service_sessions": 3,
    "poll": 0.01,
    "session_timeout": 150.0,
}
SMOKE = dict(FULL, min_sessions=1, preflight_points=3,
             sim_models=(("adc_chain", 2000), ("mixed_chain", 1000),
                         ("eln_ladder", 500)),
             prefix_us=200, service_size=1, service_sessions=1,
             session_timeout=60.0)


def expected_counters(model, duration_us):
    """Exact work counters of one run of ``model`` for ``duration_us``
    at the 1 µs base timestep."""
    periods = int(duration_us) + 1
    steps = int(duration_us) if HAS_SOLVER[model] else 0
    return {
        "tdf.activations": TDF_MODULES[model] * periods,
        "tdf.periods": periods,
        "solver.steps": steps,
        "solver.factorizations": FACTORIZATIONS.get(
            (model, int(duration_us)), 0),
        "solver.refactorizations": 0,
        "kernel.delta_cycles": math.ceil(periods / TDF_BATCH),
    }


def spawn(kind, args, timeout):
    """Run one cold session; ``(result or None, wall seconds)``."""
    payload = json.dumps(dict(args, spawned=time.monotonic()))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "sessions.py"), kind, payload],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env(), start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException as exc:
        # the session and its workers share one process group
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if not isinstance(exc, subprocess.TimeoutExpired):
            raise
        sys.stderr.write(f"{kind} session timed out after {timeout:g}s\n")
        return None, time.perf_counter() - start
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(f"{kind} session failed:\n{err[-4000:]}\n")
        return None, wall
    return json.loads(out.strip().splitlines()[-1]), wall


def sessions_until(budget_s, min_sessions, kind, args_for, timeout, spans):
    """Run sessions back to back until ``budget_s`` is spent (at least
    ``min_sessions``); session ``k`` gets ``args_for(k)``.  Returns
    ``[(result or None, wall)]``."""
    runs = []
    start = time.perf_counter()
    while len(runs) < min_sessions or time.perf_counter() - start < budget_s:
        result, wall = spawn(kind, args_for(len(runs)), timeout)
        if result is not None:
            spans.extend(result.pop("spans"))
        runs.append((result, wall))
    return runs


def _oracle_results(seed, limit):
    """The same points run serially in this process with pre-flight off."""
    from repro.campaign import CampaignRunner, resolve_spec_ref
    from sessions import limited

    campaign = limited(resolve_spec_ref(SPEC_REF), seed, limit)
    return CampaignRunner(campaign, workers=1, verify="off",
                          use_cache=False).run()


def campaign_preflight(seed, seconds, cfg, work, spans):
    root = derive_seed(seed, "preflight")
    limit = cfg["preflight_points"]
    runs = sessions_until(
        seconds, cfg["min_sessions"], "preflight",
        lambda k: {"seed": root, "limit": limit, "workers": cfg["workers"],
                   "out": os.path.join(work, f"preflight{k}"),
                   "trace": spans.enabled},
        cfg["session_timeout"], spans)
    oracle = _oracle_results(root, limit).fingerprint()
    attempted = failed = 0
    ok = [r for r, _ in runs if r is not None]
    for result, _ in runs:
        attempted += limit
        if (result is None or result["fingerprint"] != oracle
                or result["stats"]["static"] != 0):
            failed += limit
        else:
            failed += result["failed"]
    return {
        "attempted": attempted, "failed": failed,
        "setup_s": [r["setup_s"] for r in ok],
        "job_s": [wall for r, wall in runs if r is not None],
        "points_per_s": statistics.median(r["points"] / r["run_s"]
                                          for r in ok),
        "samples_per_s": statistics.median(r["samples"] / r["run_s"]
                                           for r in ok),
        "notes": {"points_per_invocation": limit, "invocations": len(runs)},
    }


def sim_long(seed, seconds, cfg, work, spans):
    models = [[name, derive_seed(seed, "sim", name), duration]
              for name, duration in cfg["sim_models"]]
    runs = sessions_until(
        seconds, cfg["min_sessions"], "sim",
        lambda k: {"models": models, "prefix_us": cfg["prefix_us"],
                   "counters": list(COUNTERS), "trace": spans.enabled},
        cfg["session_timeout"], spans)
    attempted = failed = 0
    digests = {}
    jobs = []
    for result, _ in runs:
        attempted += len(models)
        if result is None:
            failed += len(models)
            continue
        for job in result["jobs"]:
            name, duration = job["model"], job["duration_us"]
            expected = expected_counters(name, duration)
            good = (job["scalar_match"]
                    and job["samples"] == int(duration) + 1
                    and job["counters"] == {k: float(v)
                                            for k, v in expected.items()}
                    and digests.setdefault(name, job["digest"])
                    == job["digest"])
            failed += not good
            jobs.append(job)
    ok = [r for r, _ in runs if r is not None]
    return {
        "attempted": attempted, "failed": failed,
        "setup_s": [r["setup_s"] for r in ok],
        "job_s": [job["job_s"] for job in jobs],
        # one cycle through the models, each at its median time
        "points_per_s": len(models) / sum(
            statistics.median(job["job_s"] for job in jobs
                              if job["model"] == name)
            for name, _, _ in models),
        "samples_per_s": sum(
            int(duration) + 1 for _, _, duration in models) / sum(
            statistics.median(job["run_s"] for job in jobs
                              if job["model"] == name)
            for name, _, _ in models),
        "notes": {"durations_us": dict(cfg["sim_models"]),
                  "sessions": len(runs)},
    }


def service_args(seed, window, cfg, directory, trace):
    """Arguments of one service session with fresh job and store dirs."""
    return {"seed": seed, "size": cfg["service_size"], "window": window,
            "workers": cfg["workers"], "poll": cfg["poll"], "tenants": 2,
            "trace": trace, "out": os.path.join(directory, "out"),
            "store": os.path.join(directory, "store")}


def service_tenants(seed, seconds, cfg, work, spans):
    runs = []
    window = seconds / cfg["service_sessions"]
    for k in range(cfg["service_sessions"]):
        args = service_args(derive_seed(seed, "service", k), window, cfg,
                            os.path.join(work, f"service{k}"), spans.enabled)
        result, _ = spawn("service", args, cfg["session_timeout"])
        if result is not None:
            spans.extend(result.pop("spans"))
        runs.append(result)
    ok = [r for r in runs if r is not None]
    jobs = [job for r in ok for job in r["jobs"]]
    attempted = sum(job["counts"]["total"] for job in jobs)
    failed = sum(job["counts"]["failed"] for job in jobs)
    # a session that died lost at least one job per tenant
    attempted += 2 * cfg["service_size"] * (len(runs) - len(ok))
    failed += 2 * cfg["service_size"] * (len(runs) - len(ok))
    by_seed = {}
    for job in jobs:
        by_seed.setdefault(job["root_seed"], []).append(job)
    from repro.campaign import CampaignResults

    for root, family in sorted(by_seed.items()):
        records = _oracle_results(root, max(j["limit"] for j in family))
        for job in family:
            expected = CampaignResults(
                records.records[:job["limit"]]).fingerprint()
            if job["state"] != "done" or job["fingerprint"] != expected:
                failed += job["counts"]["total"] - job["counts"]["failed"]
    completed = sum(job["counts"]["completed"] for job in jobs)
    repeated = sum(job["counts"]["cached"] + job["counts"]["deduped"]
                   for job in jobs)
    return {
        "attempted": attempted, "failed": failed,
        "setup_s": [r["setup_s"] for r in ok],
        "job_s": [job["latency_s"] for job in jobs],
        "points_per_s": statistics.median(r["points"] / r["window_s"]
                                          for r in ok),
        "samples_per_s": statistics.median(r["samples"] / r["window_s"]
                                           for r in ok),
        "notes": {"jobs": len(jobs), "repeated_share": repeated / completed,
                  "points_per_job": [cfg["service_size"],
                                     2 * cfg["service_size"]]},
    }


WORKLOADS = {
    "campaign_preflight": campaign_preflight,
    "sim_long": sim_long,
    "service_tenants": service_tenants,
}

#: end-to-end metrics: name -> unit (every workload reports all).
END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "samples_per_s": "1/s",
    "job_p50_s": "s",
    "job_p75_s": "s",
    "peak_rss_mb": "MB",
}


def end_to_end(outcome):
    """Reduce a workload outcome to the end-to-end metrics, with the
    sample count and reported percentile of each timing."""
    setup = timing_summary(outcome["setup_s"])
    jobs = timing_summary(outcome["job_s"])
    return {
        "setup_s": (setup["median"], setup),
        "points_per_s": (outcome["points_per_s"], None),
        "samples_per_s": (outcome["samples_per_s"], None),
        "job_p50_s": (statistics.median(outcome["job_s"]), jobs),
        "job_p75_s": (quantile(outcome["job_s"], 0.75), jobs),
        "peak_rss_mb": (peak_rss_mb(), None),
    }
