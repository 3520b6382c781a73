"""One closed-loop client driving ``causal_channels.cli.main`` in-process.

Usage: ``python3 client.py PLAN.json`` (run by ``run.py`` in a process of its
own, so that ``ru_maxrss`` covers this workload alone).  The plan lists the
requests of one pass.  The client makes one untimed warm-up pass, keeping the
first report of every request for the oracle, then repeats whole passes until
the time budget is spent and enough requests are done.  Every later report
must be byte-identical to the first one, since the program promises
deterministic reports.

In trace mode every request runs twice per pass, untraced and then traced,
so both samples see the same mix and the same machine state.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import time


def _digest(path):
    try:
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()
    except FileNotFoundError:
        return None


def main(plan_path):
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    from causal_channels import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(plan["src"]) + os.sep):
        raise SystemExit(f"imported {cli.__file__}, not the checkout's package")
    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()

    requests = plan["requests"]

    def run_main(argv):
        try:
            return cli.main(argv)
        except Exception as exc:  # a raising request is a failed request
            return f"raised {type(exc).__name__}: {exc}"

    def call(req):
        t0 = time.perf_counter()
        code = run_main(req["argv"])
        return code, time.perf_counter() - t0

    def traced_call(req, tag):
        tracer.install()
        try:
            t0 = time.perf_counter()
            tracer.begin(tag, {"serialize.bytes_in": req["bytes_in"]})
            code = run_main(req["argv"])
            tracer.end()
            return code, time.perf_counter() - t0
        finally:
            tracer.uninstall()

    first = []
    for req in requests:
        code, _ = call(req)
        first.append({"code": code, "digest": _digest(req["out"])})
        if os.path.exists(req["out"]):
            shutil.copyfile(req["out"], req["kept"])

    samples = {"untraced": [], "traced": []}
    modes = ("untraced", "traced") if tracer is not None else ("untraced",)
    errors = []
    start = time.perf_counter()
    passes = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= plan["max_seconds"] or (
            elapsed >= plan["seconds"] and len(samples["untraced"]) >= plan["min_requests"]
        ):
            break
        for j, req in enumerate(requests):
            for mode in modes:
                if os.path.exists(req["out"]):
                    os.remove(req["out"])  # a run that writes nothing must not pass
                if mode == "traced":
                    code, seconds = traced_call(req, len(samples["traced"]))
                else:
                    code, seconds = call(req)
                samples[mode].append([j, seconds])
                if code != first[j]["code"] or _digest(req["out"]) != first[j]["digest"]:
                    errors.append([j, f"{mode} run gave exit {code} or a report other than "
                                      f"the warm-up run's (exit {first[j]['code']})"])
        passes += 1

    result = {
        "first": first,
        "samples": samples,
        "errors": errors,
        "passes": passes,
        "elapsed_s": time.perf_counter() - start,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.write(plan["spans"])
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
