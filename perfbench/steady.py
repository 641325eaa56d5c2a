#!/usr/bin/env python3
"""Steadiness and A/B tool for the benchmark.

Run a workload once per seed and report each end-to-end metric's median,
quartiles and spread against its bound (a steady metric keeps its spread
below a third of the bound):

    python3 perfbench/steady.py run --workload serve_mixed --seeds 1-10 \
        --out results.json

Compare two such result files with the bounds comparator (the second file's
median may be worse than the first's by at most the bound):

    python3 perfbench/steady.py compare parent.json child.json
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import stats  # noqa: E402


def seeds_arg(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out += list(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(args):
    bench = load_bench()
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0 or not last.startswith("{"):
            sys.stdout.write(proc.stdout)
            sys.exit("seed %d failed (exit %d)" % (seed, proc.returncode))
        result = json.loads(last)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print("seed %d done" % seed, flush=True)
    report(bench, values)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "seeds": args.seeds, "values": values}, f, indent=1)


def report(bench, values):
    print("%-16s %12s %12s %12s %8s %6s %s" % (
        "metric", "median", "q1", "q3", "spread", "bound", "steady"))
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = stats.quartiles(v)
        s = stats.spread(v)
        steady = "yes" if m["name"] == "setup_s" or s < m["bound"] / 3 else "NO"
        print("%-16s %12.6g %12.6g %12.6g %8.4f %6.3f %s" % (
            m["name"], med, q1, q3, s, m["bound"], steady))


def compare(args):
    bench = load_bench()
    with open(args.parent) as f:
        parent = json.load(f)["values"]
    with open(args.child) as f:
        child = json.load(f)["values"]
    ok_all = True
    for m in bench["end_to_end"]:
        name = m["name"]
        worse = stats.worsening(stats.median(parent[name]), stats.median(child[name]),
                                m["better"])
        ok = stats.within_bound(parent[name], child[name], m["better"], m["bound"])
        ok_all = ok_all and ok
        print("%-16s parent %12.6g child %12.6g worse %+8.4f bound %.3f %s" % (
            name, stats.median(parent[name]), stats.median(child[name]), worse,
            m["bound"], "ok" if ok else "WORSE"))
    sys.exit(0 if ok_all else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", type=seeds_arg, required=True)
    r.add_argument("--seconds", type=int, default=0)
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("parent")
    c.add_argument("child")
    args = parser.parse_args()
    run(args) if args.cmd == "run" else compare(args)


if __name__ == "__main__":
    main()
