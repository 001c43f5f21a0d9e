#!/usr/bin/env python3
"""ninf-bench: build the benchmark from the sources beside it, run a workload
and print its metrics.  The last line of stdout is one JSON object.

  python3 ninf_bench/run.py --workload small_calls --seed 1 --seconds 10 --trace 0
  python3 ninf_bench/run.py --workload all --seed 1      # every workload
  python3 ninf_bench/run.py --self-check                 # short run + validation

Run it from the repository root.  It builds into .bench_build/ninf_bench
(cmake, Release), so the first run takes about half a minute longer.
Exit status: 0 ok, 1 wrong reply or failed self-check, 2 usage, 3 build
failure or a run that did not finish.  See ninf_bench/README.md.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ninf_bench")
BINARY = os.path.join(BUILD, "ninf_bench")
RUN_TIMEOUT_S = 170
# Run by `--workload all` but not listed in BENCHMARK.json: its per-call
# CPU depends on the light:heavy call mix, which host load shifts (README).
ANALYSIS_WORKLOADS = ["mixed_hol"]


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", "4"],
                   check=True, stdout=sys.stderr)


def run_workload(workload, seed, seconds, trace):
    """Run the benchmark binary once; returns (exit code, stdout lines)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans",
                os.path.join(spans, f"{workload}-seed{seed}.trace.json")]
    env = dict(os.environ)
    env.pop("NINF_TRACE", None)  # the program's own tracer changes framing
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"ninf_bench: {workload} did not finish in {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3, []
    return proc.returncode, proc.stdout.splitlines()


def load_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def validate(doc, metrics_spec, positive):
    """Problems with one result document, as a list of strings."""
    problems = []
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"top-level keys {sorted(doc)}")
        return problems
    if doc["correct"] is not True:
        problems.append("correct is not true")
    for key in ("attempted", "failed"):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool):
            problems.append(f"{key} is not an integer")
    if isinstance(doc["attempted"], int) and doc["attempted"] < 1:
        problems.append("attempted < 1")
    if doc["failed"] != 0:
        problems.append(f"{doc['failed']} failed calls")
    want = {m["name"]: m["unit"] for m in metrics_spec}
    got = doc["metrics"]
    if set(got) != set(want):
        problems.append(f"metric names differ: missing "
                        f"{sorted(set(want) - set(got))}, extra "
                        f"{sorted(set(got) - set(want))}")
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            continue
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            problems.append(f"{name}: bad entry {m}")
        elif (not isinstance(m["value"], (int, float))
              or not math.isfinite(m["value"])):
            problems.append(f"{name}: value {m['value']!r} is not a number")
        elif positive and m["value"] <= 0:
            problems.append(f"{name}: value {m['value']} is not positive")
    return problems


def self_check(workload, seconds):
    """Short traced and untraced runs of one workload, then validate both
    documents against BENCHMARK.json and check the span file."""
    contract = load_contract()
    failures = []
    for trace, spec, positive in ((0, contract["end_to_end"], True),
                                  (1, contract["per_layer"], False)):
        code, lines = run_workload(workload, 1, seconds, trace)
        if code != 0 or not lines:
            failures.append(f"trace {trace}: exit {code}")
            continue
        try:
            doc = json.loads(lines[-1])
        except json.JSONDecodeError as e:
            failures.append(f"trace {trace}: last line is not JSON ({e})")
            continue
        failures += [f"trace {trace}: {p}" for p in validate(doc, spec, positive)]
    spans = os.path.join(BUILD, "spans", f"{workload}-seed1.trace.json")
    try:
        with open(spans) as f:
            events = json.load(f)["traceEvents"]
        if not events:
            failures.append("span file holds no events")
    except (OSError, ValueError, KeyError) as e:
        failures.append(f"span file: {e}")
    for f in failures:
        print(f"self-check: {f}")
    print(json.dumps({"self_check": workload, "ok": not failures}))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", nargs="?", const="small_calls",
                        metavar="WORKLOAD",
                        help="validate a short run of WORKLOAD (small_calls)")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"ninf_bench: build failed: {e}", file=sys.stderr)
        return 3
    if args.self_check:
        return self_check(args.self_check, 2)

    if args.workload != "all":
        code, lines = run_workload(args.workload, args.seed, args.seconds,
                                   args.trace)
        print("\n".join(lines), flush=True)
        return code

    summary, worst = {}, 0
    names = [w["name"] for w in load_contract()["workloads"]]
    for name in names + ANALYSIS_WORKLOADS:
        code, lines = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, code)
        summary[name] = json.loads(lines[-1]) if code in (0, 1) and lines else None
    print(json.dumps(summary))
    return worst


if __name__ == "__main__":
    sys.exit(main())
