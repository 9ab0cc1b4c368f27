"""Run the benchmark over several workloads and seeds and summarize.

    python3 perfbench/sweep.py                        # every workload, seed 1
    python3 perfbench/sweep.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/sweep.py --trace 1 --workloads warm-cache

Prints every metric by name and unit for each workload: the median over
the seeds, the first and third quartile (``statistics.quantiles(n=4)``)
and their distance as a share of the median.  ``--out`` also writes the
runs and the summary as JSON, with the run record of the host.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)

import run as bench  # noqa: E402


def seeds(text: str) -> list:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(values: list) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    ap.add_argument("--seeds", type=seeds, default=[1])
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    report = {"record": bench.run_record(), "seconds": args.seconds,
              "trace": args.trace, "workloads": {}}
    status = 0
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            result = json.loads(lines[-1])
            result["seed"] = seed
            runs.append(result)
            flag = "" if result["correct"] else "  INCORRECT"
            print(f"{workload} seed {seed}: {result['attempted']} jobs, "
                  f"{result['failed']} failed{flag}", flush=True)
            if not result["correct"]:
                status = 1
        if not runs:
            continue
        names = list(runs[0]["metrics"])
        summary = {}
        print(f"\n{workload}: {len(runs)} runs")
        print(f"  {'metric':32s} {'unit':6s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s}")
        for name in names:
            unit = runs[0]["metrics"][name]["unit"]
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["unit"] = unit
            summary[name] = s
            print(f"  {name:32s} {unit:6s} {s['median']:12.6g} "
                  f"{s.get('q1', float('nan')):12.6g} "
                  f"{s.get('q3', float('nan')):12.6g} "
                  f"{s.get('spread', float('nan')):7.3f}")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"  {'failed_frac':32s} {'ratio':6s} {failed / attempted:12.6g}"
              f"  ({failed} of {attempted} jobs)\n")
        report["workloads"][workload] = {"summary": summary, "runs": runs,
                                         "failed": failed,
                                         "attempted": attempted}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
