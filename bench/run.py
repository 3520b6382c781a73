"""Benchmark for the causal-channels command line.

Run from the root of a checkout:

    python3 bench/run.py --workload compose-wide --seed 1 --seconds 20 --trace 0

It generates the workload's inputs from the seed, measures set-up time in
fresh interpreters, drives ``causal_channels.cli.main`` in a client process of
its own (``client.py``), checks every report against an independent oracle
(``oracle.py``) outside the timed region, and prints a summary followed by one
JSON line.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics from spans recorded around calls into each module.
See NOTES.md for the workloads and what each metric should respond to.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402
from tracer import ROOT, TARGETS, layer_times  # noqa: E402

# At least ten timed requests must lie beyond p90.
MIN_REQUESTS = 100
# Fresh interpreters timed before and again after the client, so that set-up
# time sees the machine over the whole run.
SETUP_REPEATS = 6
CLIENT_TIMEOUT_S = 170
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
SETUP_SNIPPET = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import causal_channels.cli as cli\n"
    "cli.build_parser()\n"
    "t1 = time.perf_counter()\n"
    "if not cli.__file__.startswith(sys.argv[1]):\n"
    "    sys.exit('imported ' + cli.__file__ + ', not the checkout package')\n"
    "print(t1 - t0)\n"
)
COUNTERS = (
    "serialize.bytes_in", "serialize.bytes_out", "composition.kraus_out", "channels.choi_dim",
    "causal.rebuilt_alphabet_max", "procmat.strategies_checked", "simplex.lp_rows",
    "simplex.lp_cols",
)


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_setup(src, env):
    """Import-plus-parser times of fresh interpreters; the first run is discarded."""
    times = []
    for _ in range(SETUP_REPEATS + 1):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(src)],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(out.stdout.strip()))
    return times[1:]


def prepare(workload, seed, work):
    """Generate one pass of requests and write their files under ``work``."""
    requests = inputs.generate(workload, seed)
    plan = []
    for j, req in enumerate(requests):
        rdir = work / f"req{j:03d}"
        rdir.mkdir(parents=True)
        bytes_in = inputs.write_files(req, rdir)
        argv = [str(rdir / a) if a in req["files"] else a for a in req["argv"]]
        out = rdir / "report.json"
        plan.append({
            "argv": argv + ["--out", str(out)],
            "out": str(out),
            "kept": str(rdir / "first-report.json"),
            "bytes_in": bytes_in,
        })
    return requests, plan


def run_client(plan, work, seconds, trace, env):
    plan_path = work / "plan.json"
    doc = {
        "src": str(Path.cwd() / "src"),
        "requests": plan,
        "seconds": seconds,
        "max_seconds": max(2.5 * seconds, seconds + 30),
        "min_requests": 0 if trace else MIN_REQUESTS,
        "trace": trace,
        "spans": str(work / "spans.jsonl"),
        "result": str(work / "result.json"),
    }
    plan_path.write_text(json.dumps(doc))
    subprocess.run(
        [sys.executable, str(HERE / "client.py"), str(plan_path)],
        env=env, timeout=CLIENT_TIMEOUT_S, check=True,
    )
    return json.loads((work / "result.json").read_text())


def check_reports(requests, plan, result):
    """Oracle verdict for every request's first report; later runs must repeat it."""
    failed = set()
    for j, (req, item, first) in enumerate(zip(requests, plan, result["first"])):
        try:
            with open(item["kept"], encoding="utf-8") as fh:
                report = json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError):
            report = None
        why = oracle.check(req, first["code"], report)
        if why is not None:
            print(f"FAIL {req['kind']}: {why}")
            failed.add(j)
    for j, why in result["errors"]:
        print(f"FAIL {requests[j]['kind']}: {why}")
        failed.add(j)
    return failed


def latency_stats(samples):
    ms = [s * 1000.0 for _, s in samples]
    return {
        "p50": statistics.median(ms),
        "p90": percentile(ms, 90),
        "rate": len(ms) / sum(ms) * 1000.0,
        "count": len(ms),
    }


def end_to_end(result, failed, setup_s):
    samples = result["samples"]["untraced"]
    lat = latency_stats(samples)
    bad = sum(1 for j, _ in samples if j in failed)
    beyond = sum(1 for _, s in samples if s * 1000.0 > lat["p90"])
    print(f"requests timed: {lat['count']} in {result['passes']} passes of "
          f"{len(result['first'])}; {beyond} beyond p90; failed {bad}; "
          f"fail_share {bad / lat['count']:.4f}")
    metrics = {
        "latency_p50_ms": (lat["p50"], "ms"),
        "latency_p90_ms": (lat["p90"], "ms"),
        "requests_per_s": (lat["rate"], "1/s"),
        "ok_share": ((lat["count"] - bad) / lat["count"], "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (result["maxrss_kb"] / 1024.0, "MB"),
    }
    return lat["count"], bad, True, metrics


def per_layer(result, work, failed):
    spans = [json.loads(line) for line in (work / "spans.jsonl").read_text().splitlines()]
    per_request = layer_times(spans)
    n = len(per_request)
    names = sorted({span for _, _, span, _ in TARGETS})
    layers = sorted({name.split(".")[0] for name in names} | {ROOT})
    totals = {name: 0.0 for name in names + [ROOT]}
    calls = {layer: 0 for layer in layers}
    counts = {key: 0 for key in COUNTERS}
    worst_gap = 0.0
    for tag, entry in per_request.items():
        for name, val in entry["self"].items():
            totals[name] += val
        for layer, val in entry["calls"].items():
            calls[layer] += val
        for key, val in entry["counts"].items():
            counts[key] += val
        wall = result["samples"]["traced"][tag][1]
        worst_gap = max(worst_gap, abs(sum(entry["self"].values()) - wall) / wall)
    untraced = latency_stats(result["samples"]["untraced"])
    traced_lat = latency_stats(result["samples"]["traced"])
    overhead = (traced_lat["p50"] - untraced["p50"]) / untraced["p50"]
    print(f"traced requests: {n}; worst gap between summed self times and wall time "
          f"{worst_gap:.4f}; tracing overhead on p50 {overhead:+.4f}")
    metrics = {}
    for name in [ROOT] + names:
        metric = "cli.self_ms" if name == ROOT else f"{name}_ms"
        metrics[metric] = (totals[name] / n * 1000.0, "ms")
    for layer in layers:
        metrics[f"{layer}.calls"] = (calls[layer] / n, "count")
    for key in COUNTERS:
        unit = "bytes" if key.startswith("serialize.bytes") else "count"
        metrics[key] = (counts[key] / n, unit)
    metrics["trace.overhead_share"] = (overhead, "ratio")
    metrics["trace.attribution_gap_share"] = (worst_gap, "ratio")
    ok = worst_gap <= 0.05
    if not ok:
        print("FAIL layer self times do not add up to the traced wall time within 5 %")
    samples = result["samples"]["untraced"] + result["samples"]["traced"]
    bad = sum(1 for j, _ in samples if j in failed)
    return len(samples), bad, ok, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "causal_channels" / "cli.py").is_file():
        sys.stderr.write("error: run from the root of a causal-channels checkout "
                         "(src/causal_channels/cli.py not found)\n")
        return 2
    env = dict(os.environ, **PINNED)
    env.pop("PYTHONPATH", None)
    work = HERE / "_work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        requests, plan = prepare(args.workload, args.seed, work)
        setup_times = [] if args.trace else measure_setup(src, env)
        result = run_client(plan, work, args.seconds, args.trace, env)
        if not args.trace:
            setup_times += measure_setup(src, env)
        failed = check_reports(requests, plan, result)
        if args.trace:
            attempted, bad, ok, metrics = per_layer(result, work, failed)
        else:
            attempted, bad, ok, metrics = end_to_end(result, failed,
                                                     statistics.median(setup_times))
    finally:
        for rdir in work.glob("req*"):
            shutil.rmtree(rdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{name:45s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": ok and not failed,
        "attempted": attempted,
        "failed": bad,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
