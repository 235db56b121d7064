"""The repo benchmark: three workloads through the public APIs.

    python3 benchmarks/suite/run.py --workload campaign_preflight \
        --seed 1 --seconds 25 --trace 0
    python3 benchmarks/suite/run.py --smoke

Workloads (see ``workloads.WHY``): ``campaign_preflight`` (cold batch
campaigns through ``CampaignRunner`` with ``verify="auto"``),
``sim_long`` (long ``Simulator`` runs of the perf models) and
``service_tenants`` (the campaign service under two closed-loop
tenants).  All inputs derive from ``--seed``, and every output is
checked against an oracle.  ``BENCHMARK.json`` gates the first and the
last: on a shared host the single-threaded ``sim_long`` drifts with the
speed of its CPU by more than any bound allows; its layers stay measured
in the traced pass (``simulate.ms.*`` and exact work counters).

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the traced pass: the per-layer table, plus the
workload run untraced and traced for half the time each, whose ratio
is the tracing overhead.  ``--smoke`` runs all three workloads and the
traced pass at tiny sizes.

A table for people goes to standard output first; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Exit
code 2 means the package or the perf models are missing.
"""

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile

from common import WORK, Spans, missing_inputs, use_repo_paths


def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_rows(header, rows):
    widths = [max(len(_fmt(r[i])) for r in [header, *rows]) + 2
              for i in range(len(header))]
    for row in [header, *rows]:
        print("".join(_fmt(v).ljust(w) for v, w in zip(row, widths)).rstrip())


def measure(workload, seed, seconds, cfg, work):
    """Tracing off: the end-to-end metrics of one workload."""
    from workloads import END_TO_END, WHY, WORKLOADS, end_to_end

    outcome = WORKLOADS[workload](seed, seconds, cfg, work, Spans(enabled=False))
    metrics = end_to_end(outcome)
    print(f"workload {workload} (seed {seed}, {seconds:g} s): {WHY[workload]}")
    for key, value in outcome["notes"].items():
        print(f"  {key}: {value}")
    rows = []
    for name, (value, timing) in metrics.items():
        if timing is None:
            rows.append([name, END_TO_END[name], "-", value, "-", "-"])
        else:
            pct = f"p{round(100 * timing['pct'])}" if timing["pct"] else "-"
            rows.append([name, END_TO_END[name], timing["n"], value, pct,
                         timing["pct_value"]])
    rows.append(["failed_frac", "ratio", outcome["attempted"],
                 outcome["failed"] / outcome["attempted"], "-", "-"])
    print_rows(["metric", "unit", "n", "value", "pct", "pct_value"], rows)
    return {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": value, "unit": END_TO_END[name]}
                    for name, (value, _) in metrics.items()},
    }


def traced(workload, seed, seconds, cfg, probe, work):
    """Tracing on: the per-layer table and the tracing overhead."""
    from layers import LAYERS, per_layer
    from workloads import WORKLOADS

    spans = Spans(enabled=True)
    table, passed, made = per_layer(seed, cfg, probe,
                                    os.path.join(work, "probe"), spans)
    run = WORKLOADS[workload]
    plain = run(seed, seconds / 2, cfg, os.path.join(work, "plain"),
                Spans(enabled=False))
    spanned = run(seed, seconds / 2, cfg, os.path.join(work, "traced"), spans)
    table["trace.overhead_ratio"] = (plain["points_per_s"]
                                     / spanned["points_per_s"])
    print(f"traced pass for {workload} (seed {seed}); the tracing overhead "
          "is trace.overhead_ratio: untraced over traced points_per_s, "
          f"{seconds / 2:g} s each")
    print_rows(["metric", "unit", "value", "should move"],
               [[name, unit, table[name], moves]
                for name, (unit, moves) in LAYERS.items()])
    print("self time by span (s):")
    print_rows(["span", "self_s"], sorted(spans.self_times().items(),
                                          key=lambda item: -item[1]))
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"spans-{workload}-seed{seed}.json")
    spans.dump(path)
    print(f"spans written to {path}")
    attempted = plain["attempted"] + spanned["attempted"] + made
    failed = plain["failed"] + spanned["failed"] + (made - passed)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": table[name], "unit": unit}
                    for name, (unit, _) in LAYERS.items()},
    }


def smoke(seed, work):
    """All three workloads and the traced pass at tiny sizes."""
    from layers import PROBE_SMOKE
    from workloads import SMOKE, WORKLOADS

    results = {}
    for workload in WORKLOADS:
        results[workload] = measure(workload, seed, 1.0, SMOKE,
                                    os.path.join(work, workload))
    results["trace"] = traced("campaign_preflight", seed, 1.0, SMOKE,
                              PROBE_SMOKE, os.path.join(work, "trace"))
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{part}.{name}": metric
                    for part, r in results.items()
                    for name, metric in r["metrics"].items()},
    }


def _terminate(signum, frame):
    sys.exit(128 + signum)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["campaign_preflight",
                                               "sim_long", "service_tenants"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads and the traced pass, tiny sizes")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    missing = missing_inputs()
    if missing:
        sys.stderr.write("benchmark inputs missing: " + ", ".join(missing) + "\n")
        return 2
    use_repo_paths()
    # a terminated run still stops its sessions and removes its files
    signal.signal(signal.SIGTERM, _terminate)
    from layers import PROBE_FULL
    from workloads import FULL

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        if args.smoke:
            result = smoke(args.seed, work)
        elif args.trace:
            result = traced(args.workload, args.seed, args.seconds, FULL,
                            PROBE_FULL, work)
        else:
            result = measure(args.workload, args.seed, args.seconds, FULL, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
