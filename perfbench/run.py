"""cswalls benchmark: one workload, one seed, every metric on stdout.

    python3 perfbench/run.py --workload cold-walls --seed 1 --seconds 30 \\
        --trace 0

Each workload runs in fresh interpreters (``worker.py``) started from the
repository root, driving ``cswalls.cli.run`` in-process as one closed-loop
client.  ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced pass plus the tracing overhead.  The last
line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
run record (Python, nproc, platform, commit) and readable detail.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

sys.path.insert(0, HERE)

from worker import PROBE_REF_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
BUDGET_S = 170.0
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 85.0, 80.0, 75.0, 50.0)

END_TO_END_UNITS = {
    "makespan_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith(("_frac", "_ratio", "_yield")):
        return "ratio"
    if name.endswith("bytes_out"):
        return "bytes"
    if name.endswith(("_s", ".s")):
        return "s"
    return "count"


def tail(values):
    """(percentile, value, samples beyond) at the highest percentile of
    TAIL_PERCENTILES with at least ten samples beyond it (nearest rank);
    (100.0, max, 0) when there are too few samples for any."""
    xs = sorted(values)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return p, xs[rank - 1], n - rank
    return 100.0, xs[-1], 0


def run_record() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit(),
    }


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, *ref.split("/"))
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


class WorkerError(Exception):
    pass


def run_worker(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode]
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise WorkerError("time budget spent before the worker started")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker exceeded the time budget")
    if proc.returncode != 0:
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n"
                          f"{proc.stderr.strip()}")
    return json.loads(proc.stdout)


def end_to_end(setups, main) -> tuple:
    per_job = main["job_s"]
    pct, tail_value, beyond = tail(per_job)
    metrics = {
        "makespan_s": sum(per_job),
        "job_p50_s": statistics.median(per_job),
        "job_tail_s": tail_value,
        "setup_s": statistics.median(w["setup_s"] for w in setups),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    raw = main["job_raw_s"]
    passes = main["makespans"]
    notes = [
        f"times are normalized to a probe time of {PROBE_REF_S * 1e3:g} ms; "
        f"the median probe took {main['probe_s'] * 1e3:.4g} ms",
        f"makespan_s: sum of the {len(per_job)} jobs' fastest latencies over "
        f"{len(passes)} passes (raw {sum(raw):.4g} s; pass wall-clock "
        f"fastest {min(passes):.4g} s, median "
        f"{statistics.median(passes):.4g} s)",
        f"job_p50_s: raw {statistics.median(raw):.4g} s; job_tail_s: "
        f"p{pct:g} with {beyond} jobs beyond it, raw {tail(raw)[1]:.4g} s",
        f"setup_s: median of {len(setups)} fresh interpreters, raw "
        f"{statistics.median(w['setup_raw_s'] for w in setups):.4g} s",
    ]
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, notes


def per_layer(traced) -> tuple:
    untraced = statistics.median(traced["untraced"])
    metrics = dict(traced["layers"])
    metrics["trace.makespan_s"] = traced["makespan"]
    metrics["trace.overhead_frac"] = (traced["makespan"] - untraced) / untraced
    metrics["trace.covered_frac"] = traced["top_level_s"] / traced["makespan"]
    notes = [f"trace.overhead_frac: traced pass against the median of "
             f"{len(traced['untraced'])} untraced passes in the same process",
             f"{traced['spans']} spans written to {traced['spans_file']}; "
             f"traced worker peak RSS {traced['peak_rss_mb']:.1f} MB",
             "self time by span name (s, calls):"]
    for name, calls, own in traced["self_times"][:20]:
        notes.append(f"  {own:10.4f}  {calls:8d}  {name}")
    return {k: (v, layer_unit(k)) for k, v in metrics.items()}, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "cswalls", "cli.py")):
        print(f"error: no cswalls sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = perf_counter() + BUDGET_S
    try:
        if args.trace:
            traced = run_worker(args, "trace", deadline)
            docs = [traced]
            metrics, notes = per_layer(traced)
        else:
            setups = [run_worker(args, "setup", deadline)
                      for _ in range(SETUP_SAMPLES - 1)]
            main_doc = run_worker(args, "measure", deadline)
            docs = setups + [main_doc]
            metrics, notes = end_to_end(docs, main_doc)
    except (WorkerError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(d["attempted"] for d in docs)
    failures = [f for d in docs for f in d["failures"]]
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    print("record " + json.dumps(run_record(), sort_keys=True))
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for line in failures[:20]:
        print(f"FAILED {line}")
    result = {
        "correct": not failures and attempted >= 1,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
