"""Tests for the campaign engine (`repro.campaign`).

Covers the acceptance criteria of the campaign subsystem: declarative
parameter spaces, bit-identical serial vs. multi-process execution of
a 16-point Monte Carlo ADC campaign, cache hit/miss behavior across
invocations, failure handling (retry once, then ``status="failed"``
without killing the campaign), per-run timeouts, the aggregation API,
and the ``python -m repro.campaign`` CLI.
"""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.campaign import (
    Campaign,
    CampaignResults,
    CampaignRunner,
    Corners,
    FixedPoints,
    MonteCarlo,
    RunRecord,
    Sweep,
    cache_key,
    run_campaign,
)
from repro.lib import PipelinedAdc, as_generator

REPO_ROOT = Path(__file__).resolve().parents[1]


# ---------------------------------------------------------------------------
# model under test: a fast Monte Carlo sample of the pipelined ADC
# (module-level so it pickles into worker processes)
# ---------------------------------------------------------------------------

def adc_mc_run(params):
    """Tiny pipelined-ADC mismatch sample: conversion RMS error with
    and without digital calibration."""
    rng = as_generator(params["seed"])
    n_stages = int(params.get("n_stages", 6))
    gain_errors = rng.normal(0.0, params.get("mismatch_rms", 0.01),
                             n_stages)
    adc = PipelinedAdc(n_stages=n_stages, backend_bits=3,
                       gain_errors=gain_errors.tolist(),
                       noise_rms=1e-5, seed=rng)
    x = 0.9 * np.sin(2 * np.pi * 0.0371 * np.arange(128))
    cal = adc.convert_array(x, calibrated=True)
    raw = adc.convert_array(x, calibrated=False)
    return {
        "rms_err_cal": float(np.sqrt(np.mean((cal - x) ** 2))),
        "rms_err_raw": float(np.sqrt(np.mean((raw - x) ** 2))),
        "max_gain_error": float(np.max(np.abs(gain_errors))),
    }


def crashing_run(params):
    if params["mc_index"] == 1:
        raise RuntimeError("deliberate crash")
    return {"value": params["mc_index"] * 10.0}


def slow_run(params):
    time.sleep(params.get("sleep", 5.0))  # verify: allow[CODE002]
    return {"slept": params.get("sleep", 5.0)}


def dying_run(params):
    if params["x"] == 1:
        os._exit(3)  # the worker process dies mid-chunk
    return {"x": float(params["x"])}


def noisy_run(params):
    return {"y": random.random()}


def busy_run(params):
    # ~0.25 s of real CPU+sleep work per run for the speedup check.
    deadline = time.perf_counter() + 0.25
    acc = 0.0
    while time.perf_counter() < deadline:
        acc += float(np.sum(np.random.default_rng(0).normal(size=256)))
        time.sleep(0.005)
    return {"acc": acc}


def adc_campaign(n=16, **kwargs):
    return Campaign(
        name="adc-mc",
        space=MonteCarlo(n, base={"mismatch_rms": 0.01}),
        run=adc_mc_run,
        root_seed=42,
        **kwargs,
    )


# ---------------------------------------------------------------------------
# parameter spaces
# ---------------------------------------------------------------------------

def test_sweep_grid():
    sweep = Sweep({"a": [1, 2, 3], "b": [10, 20]})
    points = sweep.points()
    assert len(points) == len(sweep) == 6
    assert points[0] == {"a": 1, "b": 10}
    assert points[-1] == {"a": 3, "b": 20}
    assert len({tuple(sorted(p.items())) for p in points}) == 6


def test_corners_and_montecarlo():
    corners = Corners({"slow": {"r": 120.0}, "fast": {"r": 20.0}})
    assert {p["corner"] for p in corners.points()} == {"slow", "fast"}
    mc = MonteCarlo(3, base={"sigma": 0.01})
    assert [p["mc_index"] for p in mc.points()] == [0, 1, 2]
    assert all(p["sigma"] == 0.01 for p in mc.points())


def test_space_composition():
    product = Sweep({"g": [1, 2]}) * MonteCarlo(3)
    assert len(product) == 6
    combined = product + FixedPoints([{"g": 99}])
    assert len(combined) == 7
    assert combined.points()[-1] == {"g": 99}


def test_campaign_validation():
    with pytest.raises(ValueError):
        Campaign(name="x", space=MonteCarlo(1))  # neither run nor build
    with pytest.raises(ValueError):
        Campaign(name="x", space=MonteCarlo(1), run=adc_mc_run,
                 build=lambda p: None)  # both
    with pytest.raises(ValueError):
        Campaign(name="x", space=MonteCarlo(1),
                 build=lambda p: None)  # build without duration


# ---------------------------------------------------------------------------
# determinism: serial vs. multi-process
# ---------------------------------------------------------------------------

def test_serial_vs_parallel_bit_identical(tmp_path):
    """16-point Monte Carlo ADC campaign: a serial run and a 4-worker
    run produce identical JSONL records (volatile fields excluded)."""
    serial = CampaignRunner(adc_campaign(16), workers=1,
                            use_cache=False,
                            out_dir=tmp_path / "serial").run()
    parallel = CampaignRunner(adc_campaign(16), workers=4,
                              use_cache=False,
                              out_dir=tmp_path / "parallel").run()
    assert len(serial) == len(parallel) == 16
    assert all(r.status == "ok" for r in serial)
    assert serial.fingerprint() == parallel.fingerprint()

    read_s = CampaignResults.read_jsonl(tmp_path / "serial"
                                        / "records.jsonl")
    read_p = CampaignResults.read_jsonl(tmp_path / "parallel"
                                        / "records.jsonl")
    assert [r.deterministic_dict() for r in read_s] == \
           [r.deterministic_dict() for r in read_p]
    # per-run seeds are spawned from the root and all distinct
    seeds = [r.seed for r in serial]
    assert len(set(seeds)) == 16


def test_deterministic_across_invocations():
    first = run_campaign(adc_campaign(8), use_cache=False)
    second = run_campaign(adc_campaign(8), use_cache=False)
    assert first.fingerprint() == second.fingerprint()


def test_seed_key_disabled():
    campaign = Campaign(name="fixed", space=MonteCarlo(3),
                        run=crashing_run, seed_key=None, root_seed=0)
    results = run_campaign(campaign, use_cache=False, retries=0)
    assert all("seed" not in r.params for r in results)
    assert all(r.seed is None for r in results)


# ---------------------------------------------------------------------------
# caching
# ---------------------------------------------------------------------------

def test_cache_hit_miss_across_invocations(tmp_path):
    """Second invocation of an identical campaign: 100% cache hits,
    zero simulator executions."""
    first = CampaignRunner(adc_campaign(6), workers=1,
                           cache_dir=tmp_path / "cache")
    results_1 = first.run()
    assert first.stats == {"total": 6, "cached": 0, "executed": 6,
                           "retried": 0, "static": 0, "failed": 0}

    second = CampaignRunner(adc_campaign(6), workers=1,
                            cache_dir=tmp_path / "cache")
    results_2 = second.run()
    assert second.stats["executed"] == 0
    assert second.stats["cached"] == 6
    assert all(r.cached for r in results_2)
    assert results_1.fingerprint() == results_2.fingerprint()


def test_cache_only_executes_changed_points(tmp_path):
    base = Campaign(name="grow", space=MonteCarlo(4),
                    run=adc_mc_run, root_seed=7)
    runner = CampaignRunner(base, cache_dir=tmp_path / "cache")
    runner.run()
    # grow the campaign: 4 old points + 2 new ones
    grown = Campaign(name="grow", space=MonteCarlo(6),
                     run=adc_mc_run, root_seed=7)
    runner_2 = CampaignRunner(grown, cache_dir=tmp_path / "cache")
    results = runner_2.run()
    assert runner_2.stats["cached"] == 4
    assert runner_2.stats["executed"] == 2
    assert len(results) == 6


def test_cache_keys_on_params_and_code():
    params = {"a": 1, "seed": 5}
    base = cache_key("c", params, "v1")
    assert cache_key("c", params, "v1") == base
    assert cache_key("c", {"a": 2, "seed": 5}, "v1") != base
    assert cache_key("c", params, "v2") != base
    assert cache_key("other", params, "v1") != base


def test_code_version_change_invalidates(tmp_path):
    campaign = adc_campaign(3, code_version="v1")
    runner = CampaignRunner(campaign, cache_dir=tmp_path / "cache")
    runner.run()
    bumped = adc_campaign(3, code_version="v2")
    runner_2 = CampaignRunner(bumped, cache_dir=tmp_path / "cache")
    runner_2.run()
    assert runner_2.stats["executed"] == 3  # all misses


# ---------------------------------------------------------------------------
# failure handling
# ---------------------------------------------------------------------------

def test_failed_run_retried_once_then_recorded(tmp_path):
    campaign = Campaign(name="crashy", space=MonteCarlo(4),
                        run=crashing_run, root_seed=0)
    runner = CampaignRunner(campaign, workers=2,
                            cache_dir=tmp_path / "cache")
    results = runner.run()
    assert len(results) == 4  # the campaign survived the crash
    failed = [r for r in results if r.status == "failed"]
    assert len(failed) == 1
    assert failed[0].params["mc_index"] == 1
    assert failed[0].attempts == 2           # retried once
    assert "deliberate crash" in failed[0].error
    assert failed[0].metrics == {}
    assert [r.params["mc_index"] for r in results.ok()] == [0, 2, 3]
    assert runner.stats["retried"] == 1
    assert runner.stats["failed"] == 1
    # failures are not cached: a rerun re-executes only the bad point
    runner_2 = CampaignRunner(campaign, workers=1,
                              cache_dir=tmp_path / "cache")
    runner_2.run()
    assert runner_2.stats["cached"] == 3
    assert runner_2.stats["executed"] == 2   # 1 point × (1 + 1 retry)


@pytest.mark.skipif(not hasattr(__import__("signal"), "SIGALRM"),
                    reason="needs SIGALRM")
def test_per_run_timeout():
    campaign = Campaign(
        name="slow",
        space=FixedPoints([{"sleep": 5.0}, {"sleep": 0.0}]),
        run=slow_run, root_seed=0)
    runner = CampaignRunner(campaign, workers=1, timeout=0.3,
                            retries=0, use_cache=False)
    start = time.perf_counter()
    results = runner.run()
    assert time.perf_counter() - start < 4.0  # did not sleep 5 s
    assert results[0].status == "failed"
    assert "RunTimeout" in results[0].error
    assert results[1].status == "ok"


def test_worker_process_death_does_not_lose_the_campaign(tmp_path):
    campaign = Campaign(name="dying", space=Sweep({"x": [0, 1, 2, 3]}),
                        run=dying_run, root_seed=0)
    runner = CampaignRunner(campaign, workers=2, retries=1,
                            chunk_size=1, use_cache=False,
                            out_dir=tmp_path)
    results = runner.run()
    # every point is settled; the pool breakage may fail others too
    assert all(r.status in ("ok", "failed") for r in results)
    record = results[1]
    assert record.status == "failed"
    assert record.failure_kind == "retryable"
    assert record.attempts == 2
    assert "worker pool failure" in record.error
    assert (tmp_path / "records.jsonl").is_file()
    diagnostic = json.loads(
        (tmp_path / "failures" / "run_00001.diagnostic.json")
        .read_text())
    assert diagnostic["attempts"] == 2


def test_run_campaign_is_linted_before_dispatch(tmp_path):
    campaign = Campaign(name="noisy-run", space=Sweep({"x": [0, 1, 2]}),
                        run=noisy_run, root_seed=0)
    runner = CampaignRunner(campaign, use_cache=False, out_dir=tmp_path)
    results = runner.run()
    assert [(r.status, r.failure_kind) for r in results] \
        == [("failed", "static")] * 3
    assert runner.stats["static"] == 3
    assert runner.stats["executed"] == 0
    diagnostic = json.loads(
        (tmp_path / "failures" / "run_00002.diagnostic.json")
        .read_text())
    assert diagnostic["failure_kind"] == "static"
    assert "CODE001" in {d["rule"] for d in
                         diagnostic["verification"]["diagnostics"]}


# ---------------------------------------------------------------------------
# aggregation API
# ---------------------------------------------------------------------------

def test_results_aggregation():
    records = [
        RunRecord(index=0, params={"g": 1}, seed=1,
                  metrics={"snr": 40.0}),
        RunRecord(index=1, params={"g": 2}, seed=2,
                  metrics={"snr": 50.0}),
        RunRecord(index=2, params={"g": 2}, seed=3,
                  metrics={"snr": 60.0}),
        RunRecord(index=3, params={"g": 3}, seed=4, status="failed",
                  error="x"),
    ]
    results = CampaignResults(records)
    assert results.mean("snr") == 50.0
    assert results.min("snr") == 40.0
    assert results.max("snr") == 60.0
    assert results.percentile("snr", 50) == 50.0
    assert results.where(g=2).mean("snr") == 55.0
    assert results.yield_fraction(lambda m: m["snr"] >= 50.0) \
        == pytest.approx(2 / 3)
    assert len(results.failed()) == 1

    headers, rows = results.to_table()
    assert headers == ["run", "status", "g", "snr"]
    assert len(rows) == 4
    assert rows[3][1] == "failed"
    table = results.format_table()
    assert "snr" in table and "failed" in table

    summary = results.summary()
    assert summary["runs"] == 4
    assert summary["ok"] == 3
    assert summary["failed"] == 1


def test_jsonl_roundtrip(tmp_path):
    results = run_campaign(adc_campaign(4), use_cache=False)
    path = tmp_path / "records.jsonl"
    results.write_jsonl(path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 4
    assert all(isinstance(json.loads(line), dict) for line in lines)
    loaded = CampaignResults.read_jsonl(path)
    assert loaded.fingerprint() == results.fingerprint()
    assert [r.to_dict() for r in loaded] == \
           [r.to_dict() for r in results]


# ---------------------------------------------------------------------------
# parallel speedup (acceptance: >= 2x with 4 workers on >= 4 cores)
# ---------------------------------------------------------------------------

@pytest.mark.skipif((os.cpu_count() or 1) < 4,
                    reason="needs a 4-core machine")
def test_parallel_speedup_4_workers():
    campaign = Campaign(name="busy", space=MonteCarlo(8),
                        run=busy_run, root_seed=0)
    start = time.perf_counter()
    run_campaign(campaign, workers=1, use_cache=False)
    serial_time = time.perf_counter() - start
    start = time.perf_counter()
    run_campaign(campaign, workers=4, use_cache=False)
    parallel_time = time.perf_counter() - start
    assert serial_time / parallel_time >= 2.0


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

CLI_SPEC = """
from repro.campaign import Campaign, Sweep

def run(params):
    return {"double": params["x"] * 2.0}

CAMPAIGN = Campaign(name="cli-smoke",
                    space=Sweep({"x": [1.0, 2.0, 3.0, 4.0]}),
                    run=run, root_seed=0)
"""


def _cli(args, tmp_path):
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro.campaign", *args],
        capture_output=True, text=True, env=env, cwd=tmp_path,
        timeout=120)


def test_cli_runs_spec_and_writes_records(tmp_path):
    spec = tmp_path / "spec.py"
    spec.write_text(CLI_SPEC)
    out = tmp_path / "out"
    result = _cli([str(spec), "--workers", "2", "--out", str(out)],
                  tmp_path)
    assert result.returncode == 0, result.stderr
    assert "4 runs" in result.stdout
    assert "cli-smoke" in result.stdout
    records = CampaignResults.read_jsonl(out / "records.jsonl")
    assert sorted(r.metrics["double"] for r in records) \
        == [2.0, 4.0, 6.0, 8.0]
    # second CLI invocation: all four points served from cache
    rerun = _cli([str(spec), "--workers", "2", "--out", str(out)],
                 tmp_path)
    assert rerun.returncode == 0, rerun.stderr
    assert "4 cached, 0 executed" in rerun.stdout


def test_cli_list_and_limit(tmp_path):
    spec = tmp_path / "spec.py"
    spec.write_text(CLI_SPEC)
    listing = _cli([str(spec), "--list"], tmp_path)
    assert listing.returncode == 0, listing.stderr
    assert "cli-smoke: 4 points" in listing.stdout
    limited = _cli([str(spec), "--limit", "2", "--no-cache"],
                   tmp_path)
    assert limited.returncode == 0, limited.stderr
    assert "2 runs" in limited.stdout


# ---------------------------------------------------------------------------
# build= factory style
# ---------------------------------------------------------------------------

def _build_tone_sim(params):
    from repro.core import SimTime, Simulator
    from repro.core.module import Module
    from repro.lib import SineSource, TdfSink

    class Top(Module):
        def __init__(self):
            super().__init__("top")
            from repro.tdf.signal import TdfSignal
            self.src = SineSource(
                "src", frequency=params["freq"], amplitude=1.0,
                parent=self, timestep=SimTime(100, "us"))
            self.sink = TdfSink("sink", parent=self)
            sig = TdfSignal("sig")
            self.src.out(sig)
            self.sink.inp(sig)

        def metrics(self):
            samples = np.asarray(self.sink.samples)
            return {"rms": float(np.sqrt(np.mean(samples ** 2))),
                    "n": int(len(samples))}

    return Simulator(Top())


def test_build_factory_campaign():
    from repro.core import SimTime

    campaign = Campaign(
        name="tone", space=Sweep({"freq": [50.0, 100.0]}),
        build=_build_tone_sim, duration=SimTime(100, "ms"),
        seed_key=None)
    results = run_campaign(campaign, workers=2, use_cache=False)
    assert all(r.status == "ok" for r in results)
    for record in results:
        assert record.metrics["n"] >= 1000
        assert record.metrics["rms"] == pytest.approx(np.sqrt(0.5),
                                                      rel=0.01)


# ---------------------------------------------------------------------------
# concurrent cache writers and torn-line-free JSONL appends
# (regression tests for the service-grade hardening of the cache)
# ---------------------------------------------------------------------------

def _cache_hammer(directory, worker_tag, iterations):
    """Hammer one cache dir: interleaved puts and gets over a small,
    deliberately colliding key set.  Any exception (torn read, partial
    file, JSON error) fails the process."""
    from repro.campaign.cache import ResultCache

    cache = ResultCache(directory)
    keys = [f"deadbeef{i:02d}" for i in range(5)]
    for step in range(iterations):
        key = keys[step % len(keys)]
        cache.put(key, RunRecord(
            index=step, params={"x": step, "seed": step}, seed=step,
            status="ok",
            metrics={"y": float(step), "who": float(worker_tag)}))
        hit = cache.get(keys[(step * 7 + worker_tag) % len(keys)])
        if hit is not None:
            # an entry is visible fully or not at all — never torn
            assert hit.status == "ok"
            assert "y" in hit.metrics


def test_cache_survives_two_process_hammer(tmp_path):
    import multiprocessing

    context = multiprocessing.get_context("fork")
    workers = [
        context.Process(target=_cache_hammer,
                        args=(tmp_path, tag, 300))
        for tag in (1, 2)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
        assert worker.exitcode == 0
    # no staging litter left behind, and every entry parses
    leftovers = [p for p in tmp_path.iterdir()
                 if p.suffix == ".tmp"]
    assert leftovers == []
    from repro.campaign.cache import ResultCache

    cache = ResultCache(tmp_path)
    for i in range(5):
        record = cache.get(f"deadbeef{i:02d}")
        assert record is not None
        assert record.status == "ok"


def _jsonl_hammer(path, tag, count):
    from repro.campaign.records import JsonlAppender

    appender = JsonlAppender(path)
    for i in range(count):
        appender.append({"tag": tag, "i": i, "pad": "x" * 256})
    appender.close()


def test_jsonl_appends_are_atomic_across_processes(tmp_path):
    import multiprocessing

    path = tmp_path / "records.jsonl"
    context = multiprocessing.get_context("fork")
    writers = [
        context.Process(target=_jsonl_hammer, args=(path, tag, 400))
        for tag in (1, 2)
    ]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=60)
        assert writer.exitcode == 0
    lines = path.read_text().splitlines()
    assert len(lines) == 800
    seen = {1: set(), 2: set()}
    for line in lines:
        entry = json.loads(line)  # no torn or interleaved lines
        seen[entry["tag"]].add(entry["i"])
    assert seen[1] == set(range(400))
    assert seen[2] == set(range(400))


def test_jsonl_appender_fsync_and_close(tmp_path):
    from repro.campaign.records import JsonlAppender

    path = tmp_path / "records.jsonl"
    appender = JsonlAppender(path, fsync=True)
    appender.append({"a": 1})
    appender.append(RunRecord(index=0, params={"seed": 1}, seed=1,
                              status="ok", metrics={"m": 1.0}))
    appender.close()
    appender.close()  # idempotent
    with pytest.raises(ValueError):
        appender.append({"late": True})
    lines = [json.loads(line)
             for line in path.read_text().splitlines()]
    assert lines[0] == {"a": 1}
    assert lines[1]["metrics"] == {"m": 1.0}


def test_jsonl_appender_truncate_vs_append(tmp_path):
    from repro.campaign.records import JsonlAppender

    path = tmp_path / "records.jsonl"
    first = JsonlAppender(path)
    first.append({"run": 1})
    first.close()
    resumed = JsonlAppender(path)
    resumed.append({"run": 2})
    resumed.close()
    assert len(path.read_text().splitlines()) == 2
    fresh = JsonlAppender(path, truncate=True)
    fresh.append({"run": 3})
    fresh.close()
    assert [json.loads(line) for line
            in path.read_text().splitlines()] == [{"run": 3}]
