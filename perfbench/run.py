#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload batch_paper --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The first run configures and builds the
driver (Release) under $CARGO_TARGET_DIR/perfbench (default .bench_build);
later runs only check the build. Workload constants come from
perfbench/workloads.json, metric names and units from BENCHMARK.json.

--trace 0 prints every end-to-end metric; --trace 1 runs the workload once
untraced and once traced and prints every per-layer metric, including the
traced-minus-untraced difference of each end-to-end metric. The last line of
standard output is one JSON object; the exit code is 0 only when every output
check passed and the run was valid.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402

# Variables that would change what a timed run measures: a persistent cache
# turns cold work warm, a trace directory turns tracing on, REDS_FULL changes
# bench sizes. Cleared for the driver, which also refuses them.
PINNED_ENV = ("REDS_CACHE_DIR", "REDS_TRACE_DIR", "REDS_FULL")
DRIVER_TIMEOUT_S = 170


def build(root):
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"], check=True,
                   stdout=subprocess.DEVNULL)
    return build_dir, os.path.join(build_dir, "perfbench_driver")


def flags(section):
    out = []
    for key, value in section.items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        out += ["--" + key, str(value)]
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", help="also keep the driver's raw report here")
    args = parser.parse_args()

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "workloads.json")) as f:
        config = json.load(f)
    if args.workload not in config["workloads"]:
        sys.exit("unknown workload " + args.workload)

    try:
        build_dir, driver = build(root)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)

    run_dir = os.path.join(build_dir, "run-%d" % os.getpid())
    os.makedirs(run_dir, exist_ok=True)
    report_path = os.path.join(run_dir, "report.json")
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", report_path,
           "--out_dir", os.path.relpath(run_dir, root)]
    cmd += flags(config["common"]) + flags(config["workloads"][args.workload])
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, timeout=DRIVER_TIMEOUT_S)
        if proc.returncode != 0:
            sys.exit("perfbench: driver exited with %d" % proc.returncode)
        with open(report_path) as f:
            report = json.load(f)
        if args.report:
            shutil.copyfile(report_path, args.report)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: driver ran longer than %d s" % DRIVER_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    sys.exit(summarize(args, bench, config, report))


def summarize(args, bench, config, report):
    """Prints the human-readable report and the result line; returns the
    exit code."""
    e2e_names = [m["name"] for m in bench["end_to_end"]]
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    phases = report["phases"]
    lines = ["workload %s  seed %d  seconds %d  trace %d" % (
        args.workload, args.seed, args.seconds, args.trace)]
    lines.append("env: build %s  nproc %d  simd_level %d" % (
        report["build_type"], report["env"]["nproc"], report["env"]["simd_level"]))
    valid = True
    try:
        e2e = {name: stats.e2e_metrics(phase, e2e_names)
               for name, phase in phases.items()}
    except ValueError as e:
        lines.append("INVALID run: %s" % e)
        e2e = None
        valid = False

    limits = config["common"]
    lag_limit = config["gen_lag_fraction"] * min(
        limits["limit_ms." + c] for c in ("replay", "warm", "stream", "cold"))
    for name, phase in phases.items():
        ok, p99 = stats.generator_lag_ok(phase, lag_limit)
        if p99 > 0:
            lines.append("%s generator lateness p99 %.3f ms (limit %.3f ms)%s" % (
                name, p99, lag_limit, "" if ok else "  INVALID run"))
        valid = valid and ok
        for cls, counts in sorted(phase["classes"].items()):
            lines.append("%s %-6s sent %5d  completed %5d  shed %5d  failed %5d" % (
                name, cls, counts["sent"], counts["completed"], counts["shed"],
                counts["failed"]))

    if e2e is not None:
        for name in e2e_names:
            row = "  ".join("%s %.6g" % (p, e2e[p][name]) for p in sorted(e2e))
            lines.append("%-16s %-6s %s" % (name, units[name], row))
    correct = True
    for check in report["checks"]:
        lines.append("check %-52s %s  %s" % (
            check["name"], "ok" if check["ok"] else "FAIL", check["detail"]))
        correct = correct and check["ok"]

    attempted = sum(p["attempted"] for p in phases.values())
    failed = sum(p["failed"] for p in phases.values())
    if e2e is not None:
        if args.trace:
            names = [m["name"] for m in bench["per_layer"]]
            metrics = stats.layer_metrics(phases["traced"], e2e["untraced"],
                                          e2e["traced"], report["env"], names)
        else:
            metrics = e2e["untraced"]
        result = stats.result_object(correct and valid, attempted, failed,
                                     metrics, units)
        problems = stats.validate_result(result, bench, args.trace)
        if problems:
            lines.append("INVALID result: %s" % "; ".join(problems))
            valid = False
    for line in lines:
        print(line)
    if e2e is None:
        return 1
    result["correct"] = correct and valid
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    main()
