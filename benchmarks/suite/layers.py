"""Traced pass: the per-layer table.

Times calls into each layer's public functions from here, one span per
call (see :class:`common.Spans`), and reads the exact work counters of
``Simulator.metrics_snapshot()``.  Nothing inside ``src/`` is
instrumented.  Every entry names the end-to-end metric, and the
workload, that it should move.
"""

import os
import statistics

from campaigns import MODEL_NAMES
from common import SPEC_REF, derive_seed, one_cpu
from workloads import COUNTERS, expected_counters, service_args, spawn

PREFLIGHT = "points_per_s @ campaign_preflight; sim_long unchanged"
SIMULATE = "samples_per_s @ sim_long; points_per_s elsewhere, slightly"
STATS = "failed_frac, points_per_s @ campaign_preflight"
STORE = "points_per_s, job_p50_s @ service_tenants"
SERVICE = "job_p50_s, job_p75_s @ service_tenants"
OBSERVE = "points_per_s @ service_tenants; sim_long unchanged"

#: per-layer metric name -> (unit, what it should move)
LAYERS = {}
for _model in MODEL_NAMES:
    for _stage in ("build", "verify.graph", "verify.code", "elaborate",
                   "metrics"):
        LAYERS[f"{_stage}.ms.{_model}"] = ("ms", PREFLIGHT)
    LAYERS[f"simulate.ms.{_model}"] = ("ms", SIMULATE)
    for _counter in COUNTERS:
        LAYERS[f"{_counter}.{_model}"] = ("count", SIMULATE)
for _kind in ("executed", "cached", "static", "retried"):
    LAYERS[f"campaign.points.{_kind}"] = ("count", STATS)
for _name in ("cache.put.ms", "cache.get.ms", "store.publish.ms",
              "store.get.ms"):
    LAYERS[_name] = ("ms", STORE)
LAYERS["service.submit.ms"] = ("ms", SERVICE)
LAYERS["service.queue_wait_p50_s"] = ("s", SERVICE)
for _kind in ("executed", "cached", "deduped"):
    LAYERS[f"service.points.{_kind}"] = ("count", SERVICE)
LAYERS["service.store_hit_ratio"] = ("ratio", SERVICE)
for _model in MODEL_NAMES:
    LAYERS[f"observe.overhead.on.{_model}"] = ("ratio", OBSERVE)
LAYERS["observe.overhead.fine.mixed_chain"] = ("ratio", OBSERVE)
LAYERS["trace.overhead_ratio"] = (
    "ratio", "none: untraced/traced points_per_s of the named workload")

#: probe sizes for a measured run and for the smoke run.
PROBE_FULL = {"stage_reps": 5, "observe_reps": 3, "campaign_points": 12,
              "cache_records": 60, "service_window": 2.0,
              "observe_us": {"adc_chain": 20000, "mixed_chain": 5000,
                             "eln_ladder": 2500}}
PROBE_SMOKE = {"stage_reps": 1, "observe_reps": 1, "campaign_points": 3,
               "cache_records": 3, "service_window": 0.5,
               "observe_us": {"adc_chain": 500, "mixed_chain": 500,
                              "eln_ladder": 200}}


def _ms(values):
    return 1e3 * statistics.median(values)


def point_stages(seed, reps, spans):
    """The per-point stages of a build-style campaign, one call each."""
    from campaigns import BENCH, build, metrics
    from repro.verify import verify_model

    extra = [(f"{BENCH.name}.build", build), (f"{BENCH.name}.metrics", metrics)]
    clean = True
    for rep in range(reps):
        for model in MODEL_NAMES:
            params = {"model": model, "seed": derive_seed(seed, "stage", rep)}
            with spans.span("build", model=model):
                simulator = build(params)
            with spans.span("verify.graph", model=model):
                graph = verify_model(simulator.top, ignore=["CODE"])
            with spans.span("verify.code", model=model):
                code = verify_model(simulator.top, select=["CODE"],
                                    extra_code=extra)
            with spans.span("elaborate", model=model):
                simulator.elaborate()
            simulator.run(BENCH.duration)
            with spans.span("metrics", model=model):
                metrics(simulator.top)
            clean &= not graph.diagnostics and not code.diagnostics
    out = {}
    for model in MODEL_NAMES:
        for stage in ("build", "verify.graph", "verify.code", "elaborate",
                      "metrics"):
            out[f"{stage}.ms.{model}"] = _ms(spans.durations(stage, model=model))
    return out, clean


def long_runs(seed, sim_models, spans):
    """One long run per model: its time and its exact work counters."""
    from campaigns import build_model
    from repro.core import SimTime, Simulator

    out = {}
    exact = True
    for model, duration_us in sim_models:
        simulator = Simulator(build_model(model, derive_seed(seed, "long", model)))
        simulator.elaborate()
        with spans.span("simulate", model=model):
            simulator.run(SimTime(duration_us, "us"))
        out[f"simulate.ms.{model}"] = _ms(spans.durations("simulate", model=model))
        snapshot = simulator.metrics_snapshot()
        for name, value in expected_counters(model, duration_us).items():
            out[f"{name}.{model}"] = snapshot[name]
            exact &= snapshot[name] == value
    return out, exact


def observe_overhead(seed, durations, reps, spans):
    """``Simulator.run`` time at an observe level over the time with it off."""
    from campaigns import build_model
    from repro.core import SimTime, Simulator

    levels = [(model, "on") for model in MODEL_NAMES] + [("mixed_chain", "fine")]
    out = {}
    for model, level in levels:
        for rep in range(reps):
            for observe in (None, level):
                simulator = Simulator(
                    build_model(model, derive_seed(seed, "observe", rep)),
                    observe=observe)
                simulator.elaborate()
                with spans.span("observe.run", model=model,
                                level=observe or "off"):
                    simulator.run(SimTime(durations[model], "us"))
        off = statistics.median(spans.durations("observe.run", model=model,
                                                level="off"))
        on = statistics.median(spans.durations("observe.run", model=model,
                                               level=level))
        out[f"observe.overhead.{level}.{model}"] = on / off
    return out


def campaign_and_stores(seed, points, records_n, work, spans):
    """``CampaignRunner.stats`` of a cold build-style campaign, then
    ``ResultCache`` and ``SharedResultStore`` calls on its records."""
    from repro.campaign import CampaignRunner, ResultCache, resolve_spec_ref
    from repro.service import SharedResultStore
    from sessions import limited

    campaign = limited(resolve_spec_ref(SPEC_REF),
                       derive_seed(seed, "probe"), points)
    runner = CampaignRunner(campaign, workers=2,
                            out_dir=os.path.join(work, "probe_campaign"))
    with spans.span("campaign.run"):
        results = runner.run()
    out = {f"campaign.points.{kind}": runner.stats[kind]
           for kind in ("executed", "cached", "static", "retried")}
    records = [results[k % len(results)] for k in range(records_n)]
    keys = [f"{k:064x}" for k in range(records_n)]
    cache = ResultCache(os.path.join(work, "probe_cache"))
    store = SharedResultStore(os.path.join(work, "probe_store"))
    hits = 0
    for key, record in zip(keys, records):
        with spans.span("cache.put"):
            cache.put(key, record)
        with spans.span("store.publish"):
            store.publish(key, record)
    for key in keys:
        with spans.span("cache.get"):
            hits += cache.get(key) is not None
        with spans.span("store.get"):
            hits += store.get(key) is not None
    for name in ("cache.put", "cache.get", "store.publish", "store.get"):
        out[f"{name}.ms"] = _ms(spans.durations(name))
    ok = (runner.stats["static"] == 0 and runner.stats["failed"] == 0
          and hits == 2 * records_n)
    return out, ok


def service_probe(seed, window, cfg, work, spans):
    """A short traced service session: admission, queue wait, store hits."""
    args = service_args(derive_seed(seed, "service-probe"), window, cfg,
                        os.path.join(work, "probe_service"), trace=True)
    result, _ = spawn("service", args, cfg["session_timeout"])
    if result is None:
        raise RuntimeError("the service probe session failed")
    submits = [r["end"] - r["start"] for r in result["spans"]
               if r["name"] == "service.submit"]
    usage = result["usage"]
    points = {kind: sum(u["points"][kind] for u in usage.values())
              for kind in ("executed", "cached", "deduped")}
    completed = sum(points.values())
    waits = [u["queue_wait_seconds"]["p50"] for u in usage.values()
             if u["queue_wait_seconds"] is not None]
    out = {"service.submit.ms": _ms(submits),
           "service.queue_wait_p50_s": statistics.median(waits),
           "service.store_hit_ratio": (points["cached"] + points["deduped"])
           / completed}
    for kind, value in points.items():
        out[f"service.points.{kind}"] = value
    return out, result["failed"] == 0


def per_layer(seed, cfg, probe, work, spans):
    """Every per-layer metric except the tracing overhead; ``(metrics,
    checks passed, checks made)``."""
    table = {}
    checks = []
    with one_cpu():
        stages, clean = point_stages(seed, probe["stage_reps"], spans)
        runs, exact = long_runs(seed, cfg["sim_models"], spans)
        table.update(observe_overhead(seed, probe["observe_us"],
                                      probe["observe_reps"], spans))
    table.update(stages)
    table.update(runs)
    checks += [clean, exact]
    stores, ok = campaign_and_stores(seed, probe["campaign_points"],
                                     probe["cache_records"], work, spans)
    table.update(stores)
    checks.append(ok)
    service, ok = service_probe(seed, probe["service_window"], cfg, work,
                                spans)
    table.update(service)
    checks.append(ok)
    return table, sum(checks), len(checks)
