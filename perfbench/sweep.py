#!/usr/bin/env python3
"""Runs the benchmark over several seeds per workload and summarizes it.

Run from the repository root:

    python3 perfbench/sweep.py                       # every workload, seeds 1-10, end-to-end metrics
    python3 perfbench/sweep.py --trace 1 --seeds 1   # every per-layer metric of every workload
    python3 perfbench/sweep.py --workloads serve-open --seeds 1-3 --rate 4000

For each workload and metric it prints the median, the quartile spread as
a share of the median (statistics.quantiles(values, n=4)), and the range,
plus the host steal each run saw. These are the figures README.md records.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys

WORKLOADS = ["search-k10", "search-dc", "rpc-k2", "serve-open"]


def seeds(arg):
    out = []
    for part in arg.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--seeds", default="1-10", type=seeds)
    ap.add_argument("--seconds", default=None, help="defaults to BENCHMARK.json run_seconds")
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    ap.add_argument("--rate", default=None, help="serve-open arrival rate override")
    args = ap.parse_args()
    seconds = args.seconds or str(json.load(open("BENCHMARK.json"))["run_seconds"])
    failed = False
    for wl in args.workloads.split(","):
        values, steal = {}, []
        for seed in args.seeds:
            cmd = ["bash", "perfbench/run.sh", "--workload", wl, "--seed", str(seed),
                   "--seconds", seconds, "--trace", args.trace]
            if args.rate:
                cmd += ["--rate", args.rate]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                failed = True
                continue
            res = json.loads(lines[-1])
            m = re.search(r"host steal ([0-9.]+)s over ([0-9.]+)s", proc.stdout)
            if m:
                steal.append(float(m.group(1)) / float(m.group(2)))
            print(f"{wl} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} steal={steal[-1] if m else float('nan'):.1%}", flush=True)
            failed |= not res["correct"] or res["failed"] > 0
            for name, v in res["metrics"].items():
                values.setdefault(name, []).append(v["value"])
            # Wall-clock latency diagnostics (not metrics; see README.md).
            d = re.search(r"round wall p50 ([0-9.]+)ms, (p\d+) ([0-9.]+)ms", proc.stdout) or \
                re.search(r"latency from due p50 ([0-9.]+)ms (p99) ([0-9.]+)ms", proc.stdout)
            if d:
                values.setdefault("(diagnostic) latency_ms_p50", []).append(float(d.group(1)))
                values.setdefault(f"(diagnostic) latency_ms_{d.group(2)}", []).append(float(d.group(3)))
        print(f"== {wl}: {len(args.seeds)} runs, steal share of wall time "
              f"{min(steal, default=0):.1%}..{max(steal, default=0):.1%}")
        for name, vs in values.items():
            med = statistics.median(vs)
            if len(vs) >= 2:
                q = statistics.quantiles(vs, n=4)
                spread = (q[2] - q[0]) / med if med else float("nan")
            else:
                spread = float("nan")
            print(f"   {name:34s} median {med:12.5g}  quartile spread {spread:6.1%}  "
                  f"range {min(vs):.5g}..{max(vs):.5g}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
