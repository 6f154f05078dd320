#!/usr/bin/env python3
"""Self-test of the end-to-end benchmark at toy sizes.

Run from the root of a checkout:

    python3 benchmark/selftest.py

Builds the benchmark (as benchmark/run.py does), then for every workload
in BENCHMARK.json runs l2l_bench at toy size, untraced and traced, and
checks that each run passes its own oracles and prints exactly the
metrics BENCHMARK.json names, each with its unit, in the table and in the
JSON line. Finally it injects one fault per oracle -- a recorded score
altered on semester-real, one design's routing cut on flow-designs -- and
checks that ok_ratio drops below 1 and l2l_bench exits non-zero.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the build step and binary location)

FAILURES = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def drive(workload, trace, *extra):
    cmd = [run.BINARY, "--work-dir", run.BUILD, "--workload", workload,
           "--seed", "1", "--seconds", "0.2", "--trace", str(trace), "--toy"]
    proc = subprocess.run(cmd + list(extra), capture_output=True, text=True,
                          timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    table = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "#":
            table[parts[1]] = parts[3]
    return proc.returncode, result, table


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    run.build()
    for name in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, table = drive(name, trace)
            label = "%s --trace %d" % (name, trace)
            check(code == 0 and result.get("correct") is True,
                  label + ": exits 0 with correct=true")
            check(result.get("failed") == 0 and result.get("attempted", 0) >= 1,
                  label + ": attempted >= 1 and failed == 0")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result.get("metrics", {}).items()}
            check(got == want, label + ": JSON metrics and units match BENCHMARK.json")
            check(table == want, label + ": table prints every metric with its unit")
            if trace == 0:
                ok_ratio = result["metrics"]["ok_ratio"]["value"]
                check(ok_ratio == 1.0, label + ": ok_ratio reads 1")

    for workload, fault in (("semester-real", "score"), ("flow-designs", "routing")):
        code, result, _ = drive(workload, 0, "--corrupt", fault)
        ok_ratio = result.get("metrics", {}).get("ok_ratio", {}).get("value", 1.0)
        label = "%s --corrupt %s" % (workload, fault)
        check(code != 0 and result.get("correct") is False,
              label + ": exits non-zero with correct=false")
        check(ok_ratio < 1.0, label + ": ok_ratio drops below 1 (%r)" % ok_ratio)

    print("%d check(s) failed" % len(FAILURES) if FAILURES else "all checks passed")
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()
