#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs a short traced and untraced run of every workload in BENCHMARK.json
and checks that:
  * each run prints every metric BENCHMARK.json names for its mode, and
    every printed name matches [A-Za-z0-9_.-]+;
  * the last stdout line is the result object with exactly the keys
    correct, attempted, failed and metrics;
  * the trace file of a traced run parses as Chrome trace-event JSON;
  * each output check fires: a run with one deliberately corrupted output
    (--break serve_output | ledger | val_loss) exits nonzero and reports
    "correct": false.
Exits nonzero if any check fails.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the benchmark's own build step)

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")
SHORT_SECONDS = "3"
failures = []


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def invoke(workload, trace, extra=()):
    cmd = [run.BINARY, "--workload", workload, "--seed", "7",
           "--seconds", SHORT_SECONDS, "--trace", str(trace)] + list(extra)
    p = subprocess.run(cmd, capture_output=True, text=True)
    last = p.stdout.strip().splitlines()[-1] if p.stdout.strip() else "{}"
    try:
        result = json.loads(last)
    except ValueError:
        result = {}
    return p.returncode, result, p.stderr


def check_trace(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return "unreadable: %s" % e
    events = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(events, list) or not events:
        return "no traceEvents list"
    for e in events:
        if e.get("ph") != "X" or not isinstance(e.get("name"), str):
            return "bad event %r" % (e,)
        if not all(isinstance(e.get(k), (int, float)) for k in ("ts", "dur", "pid", "tid")):
            return "event without numeric ts/dur/pid/tid: %r" % (e,)
    return None


def main():
    run.build()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}
    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            extra = []
            trace_path = os.path.join(run.BUILD, "selftest-trace-%s.json" % name)
            if trace:
                extra = ["--trace-out", trace_path]
            rc, result, err = invoke(name, trace, extra)
            tag = "%s --trace %d" % (name, trace)
            check(rc == 0, "%s exits 0 (stderr: %s)" % (tag, err.strip()[-300:]))
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  "%s prints the result object last" % tag)
            metrics = result.get("metrics", {})
            missing = [m for m in expected[trace] if m not in metrics]
            check(not missing, "%s emits every named metric %s" % (tag, missing or ""))
            bad = [m for m in metrics if not NAME.match(m)]
            check(not bad, "%s metric names match [A-Za-z0-9_.-]+ %s" % (tag, bad or ""))
            check(result.get("correct") is True and result.get("failed") == 0,
                  "%s outputs are correct" % tag)
            if trace:
                problem = check_trace(trace_path)
                check(problem is None,
                      "%s trace parses as Chrome trace-event JSON %s" % (tag, problem or ""))
    # The cheapest workload exercises the deliberately broken outputs.
    for broken in ("serve_output", "ledger", "val_loss"):
        rc, result, _ = invoke("train_ingest", 0, ["--break", broken])
        check(rc != 0 and result.get("correct") is False,
              "check fires on a corrupted %s" % broken)
    print("selftest: %d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
