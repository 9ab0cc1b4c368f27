"""One fresh interpreter running one workload: set-up, then timed passes.

Started by ``run.py``; prints one JSON document on stdout.  Modes:

* ``setup``   import ``cswalls`` and do the workload's set-up, then stop;
* ``measure`` set up, then repeat the job list until ``--seconds`` have
  passed (at least once), untraced;
* ``trace``   set up, run one untraced warm-up pass and one traced pass,
  then untraced passes for the rest of ``--seconds``; derive the
  per-layer metrics from the traced pass's spans and the tracing
  overhead from the untraced passes.

Every job's exit code and output bytes are checked against ``refs.json``.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REFS = os.path.join(HERE, "refs.json")

#: seconds between two probes of the host's speed
PROBE_EVERY_S = 0.05
#: probes nearest to a job in time that estimate the host's speed during it
PROBE_WINDOW = 15
#: probe duration that normalized times are scaled to
PROBE_REF_S = 4e-4

sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def probe() -> float:
    """Duration of one fixed unit of pure-Python rational arithmetic, the
    kind of work the program spends its time on; it reads the speed the
    host gives this process at the moment."""
    t0 = perf_counter()
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i, i + 7)
    return perf_counter() - t0


def normalize(samples, probes) -> list:
    """Scale (start, latency) samples to the host speed at which a probe
    takes PROBE_REF_S: each latency is divided by the median duration of
    the PROBE_WINDOW probes nearest to its start."""
    times = [t for t, _ in probes]
    out = []
    for t, x in samples:
        k = bisect.bisect(times, t)
        lo = max(0, min(k - PROBE_WINDOW // 2, len(probes) - PROBE_WINDOW))
        window = [d for _, d in probes[lo:lo + PROBE_WINDOW]]
        out.append(x * PROBE_REF_S / statistics.median(window))
    return out


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def load_refs() -> dict:
    with open(REFS, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check(job, code, stdout: str, svg, refs: dict):
    """None when the job matches its reference, else a reason."""
    ref = refs.get(job.key)
    if ref is None:
        return "no reference"
    if code != ref[0]:
        return f"exit {code}, reference {ref[0]}"
    if digest(stdout.encode()) != ref[1]:
        return "stdout differs"
    if job.writes_svg and (svg is None or digest(svg) != ref[2]):
        return "svg differs"
    return None


class Runner:
    """Runs jobs through ``cli.run`` in-process with an empty environment."""

    def __init__(self, tmp: str, refs: dict):
        from cswalls.cli import run

        self.run = run
        self.tmp = tmp
        self.refs = refs
        self.attempted = 0
        self.failures = []
        self.probes = []  # (start, duration)
        self._dirs = 0
        self._last_probe = float("-inf")

    def fresh_dir(self) -> str:
        self._dirs += 1
        path = os.path.join(self.tmp, f"d{self._dirs}")
        os.mkdir(path)
        return path

    def pass_(self, jobs, cache, on_job=None):
        """Run each job once; return (makespan, per-job (start, latency)).

        ``cache`` is the shared cache dir, or None for a fresh empty one
        per job.  A probe runs between jobs every PROBE_EVERY_S.  Output
        is checked after the timed loop.
        """
        slots = []
        for job in jobs:
            c = (cache or self.fresh_dir()) if job.uses_cache else None
            out = (os.path.join(self.fresh_dir(), "walls.svg")
                   if job.writes_svg else None)
            slots.append((job, job.resolve(c, out), out))
        run = self.run
        lat = []
        results = []
        t_pass = perf_counter()
        for i, (job, argv, _) in enumerate(slots):
            if on_job is not None:
                on_job(i)
            if perf_counter() - self._last_probe >= PROBE_EVERY_S:
                self.probes.append((perf_counter(), probe()))
                self._last_probe = perf_counter()
            stdout, stderr = io.StringIO(), io.StringIO()
            t0 = perf_counter()
            try:
                code = run(argv, stdout, stderr, {})
            except Exception as exc:  # a crash is a failed job, not a stop
                code = f"raised {type(exc).__name__}: {exc}"
            lat.append((t0, perf_counter() - t0))
            results.append((code, stdout.getvalue()))
        makespan = perf_counter() - t_pass
        for (job, _, out), (code, stdout) in zip(slots, results):
            svg = None
            if out is not None and os.path.exists(out):
                with open(out, "rb") as fh:
                    svg = fh.read()
            self.attempted += 1
            reason = (code if isinstance(code, str)
                      else check(job, code, stdout, svg, self.refs))
            if reason is not None:
                self.failures.append(f"{job.key}: {reason}")
        self._clear(keep=cache)
        return makespan, lat

    def _clear(self, keep):
        for name in os.listdir(self.tmp):
            path = os.path.join(self.tmp, name)
            if path != keep:
                shutil.rmtree(path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "measure", "trace"))
    args = ap.parse_args(argv)

    jobs = workloads.jobs_for(args.workload, args.seed)
    setup_jobs = workloads.setup_jobs_for(args.workload, args.seed)
    refs = load_refs()
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        return _work(args, jobs, setup_jobs, refs, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _work(args, jobs, setup_jobs, refs, tmp) -> int:
    t0 = perf_counter()
    import cswalls.cli  # the timed fresh import

    if not cswalls.cli.__file__.startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"imported cswalls from {cswalls.cli.__file__}")
    runner = Runner(tmp, refs)
    cache = None
    if setup_jobs:
        cache = runner.fresh_dir()
        runner.pass_(setup_jobs, cache)
    setup_raw = perf_counter() - t0
    speed = statistics.median(probe() for _ in range(PROBE_WINDOW))
    doc = {"setup_s": setup_raw * PROBE_REF_S / speed,
           "setup_raw_s": setup_raw}
    if args.mode == "measure":
        makespans, samples = _passes(runner, jobs, cache, args.seconds)
        doc.update(
            makespans=makespans,
            job_s=[min(normalize(s, runner.probes)) for s in samples],
            job_raw_s=[min(x for _, x in s) for s in samples],
            probe_s=statistics.median(d for _, d in runner.probes),
        )
    elif args.mode == "trace":
        t_start = perf_counter()
        warm_up, _ = runner.pass_(jobs, cache)
        tracer = tracing.Tracer()
        untraced_run = runner.run
        runner.run = tracer.wrap(tracing.RUN, untraced_run)

        def on_job(i):
            tracer.current_job = i

        with tracer.patched():
            makespan, _ = runner.pass_(jobs, cache, on_job)
        runner.run = untraced_run
        left = args.seconds - (perf_counter() - t_start)
        untraced, _ = _passes(runner, jobs, cache, left)
        spans = tracer.spans()
        selfs = tracing.self_times(spans)
        doc.update(makespan=makespan, untraced=[warm_up] + untraced,
                   spans=len(spans),
                   layers=tracing.layer_metrics(spans, selfs),
                   self_times=tracing.self_time_table(spans, selfs),
                   top_level_s=sum(r[2] - r[1] for r in spans if r[3] < 0),
                   spans_file=_write_spans(args, spans, selfs))
    doc.update(
        attempted=runner.attempted,
        failures=runner.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    json.dump(doc, sys.stdout)
    return 0


def _passes(runner, jobs, cache, seconds):
    """Repeat the job list until ``seconds`` have passed (at least once);
    return pass makespans and each job's (start, latency) samples."""
    makespans, samples = [], [[] for _ in jobs]
    t_end = perf_counter() + seconds
    while True:
        makespan, lat = runner.pass_(jobs, cache)
        makespans.append(makespan)
        for acc, x in zip(samples, lat):
            acc.append(x)
        if perf_counter() >= t_end:
            return makespans, samples


def _write_spans(args, spans, selfs) -> str:
    path = os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.tsv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("idx\tname\tstart\tend\tparent\tjob\tsize\tself\n")
        for idx, (row, own) in enumerate(zip(spans, selfs)):
            name, start, end, parent, job, size = row
            fh.write(f"{idx}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t"
                     f"{job}\t{'' if size != size else int(size)}\t"
                     f"{own:.9f}\n")
    return os.path.relpath(path, ROOT)


if __name__ == "__main__":
    sys.exit(main())
