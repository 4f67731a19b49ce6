#!/usr/bin/env python3
"""End-to-end benchmark of the CoverMe reproduction.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is table2_native, source_jit, service_churn, or `all` for every
workload in turn. The script builds the perfbench binary in Release under
.bench_build/ (the first run of a checkout compiles the library), runs the
workload, checks its outputs, and prints as its last line one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer ones with --trace 1. It exits 1 when
an output check fails, 2 on bad usage, 3 when the build fails, and 4 when
the checkout holds no library sources to build. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ["table2_native", "source_jit", "service_churn"]
# The seed whose cells and digests perfbench/expected/ pins.
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(root, build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B",
                     build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    make = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"]
    return subprocess.run(make, stdout=sys.stderr).returncode == 0


def declared_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def expected_checks(root, workload, seed, result):
    """Compares a run of the default seed with the pinned digests and Table-2
    cells. Returns (attempted, failure messages)."""
    if seed != DEFAULT_SEED:
        return 0, []
    with open(os.path.join(root, "perfbench", "expected",
                           "seed%d.json" % DEFAULT_SEED)) as f:
        want = json.load(f)[workload]
    failures = []
    attempted = 1
    if result["digest"] != want["digest"]:
        failures.append("%s: workload digest %s, expected %s"
                        % (workload, result["digest"], want["digest"]))
    for got, exp in zip((result["cells"] or {}).get("rows", []),
                        want.get("rows", [])):
        attempted += 1
        if got != exp:
            failures.append("%s: row %s is %s, expected %s"
                            % (workload, exp["function"], got, exp))
    if len((result["cells"] or {}).get("rows", [])) != len(want.get("rows", [])):
        attempted += 1
        failures.append("%s: row count differs from the expected file"
                        % workload)
    return attempted, failures


def run_workload(root, binary, args, workload):
    """Runs one workload; returns (attempted, failed, messages, metrics), or
    None when the binary produced no result."""
    run_dir = os.path.join(root, ".bench_build", "run-%d" % os.getpid())
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", run_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s: timed out after %d s" % (workload, RUN_TIMEOUT_S))
        shutil.rmtree(run_dir, ignore_errors=True)
        return None
    spans_dir = os.path.join(root, ".bench_build", "spans")
    for name in os.listdir(run_dir):
        if name.startswith("spans-"):
            os.makedirs(spans_dir, exist_ok=True)
            shutil.move(os.path.join(run_dir, name),
                        os.path.join(spans_dir, name))
    shutil.rmtree(run_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("%s: no result (exit code %d)" % (workload, proc.returncode))
        return None
    for line in lines[:-1]:
        print(line)
    failures = []
    if proc.returncode != (1 if result["failed"] else 0):
        failures.append("%s: exit code %d" % (workload, proc.returncode))
    names = declared_metrics(root, args.trace)
    if sorted(names) != sorted(result["metrics"]):
        failures.append("%s: printed metrics differ from BENCHMARK.json"
                        % workload)
    exp_attempted, exp_failures = (0, []) if args.write_expected else \
        expected_checks(root, workload, args.seed, result)
    attempted = result["attempted"] + 2 + exp_attempted
    failures += exp_failures
    failed = result["failed"] + len(failures)
    if result["failed"]:
        failures.append("%s: %d output checks failed (see above)"
                        % (workload, result["failed"]))
    if args.write_expected:
        path = os.path.join(root, "perfbench", "expected", "seed%d.json"
                            % args.seed)
        pinned = {}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if os.path.isfile(path):
            with open(path) as f:
                pinned = json.load(f)
        pinned[workload] = {"digest": result["digest"]}
        if result["cells"]:
            pinned[workload]["rows"] = result["cells"]["rows"]
        with open(path, "w") as f:
            json.dump(pinned, f, indent=1, sort_keys=True)
            f.write("\n")
    metrics = {name: result["metrics"][name] for name in names
               if name in result["metrics"]}
    return attempted, failed, failures, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--write-expected", action="store_true",
                        help="pin this seed's digests and Table-2 cells in "
                             "perfbench/expected/ (after a deliberate change "
                             "of results)")
    args = parser.parse_args()

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        log("run.py: no CoverMe sources here; run it from the root of a "
            "source checkout")
        return 4
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not build(root, build_dir):
        log("run.py: build failed")
        return 3
    binary = os.path.join(build_dir, "perfbench")

    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    attempted, failed, failures, metrics = 0, 0, [], {}
    for workload in workloads:
        outcome = run_workload(root, binary, args, workload)
        if outcome is None:
            return 1
        w_attempted, w_failed, w_failures, w_metrics = outcome
        attempted += w_attempted
        failed += w_failed
        failures += w_failures
        for name, metric in w_metrics.items():
            key = name if len(workloads) == 1 else workload + "/" + name
            metrics[key] = metric
            print("%-16s %-36s %.6g %s" % (workload, name, metric["value"],
                                           metric["unit"]))
    for failure in failures:
        log("FAILED: " + failure)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
