"""Every job the benchmark can run, replayed against its stored reference.

`perfbench/workloads.py` lists each workload's finite job universe and
`perfbench/refs.json` holds each job's exit code and the SHA-256 prefixes
of its stdout and SVG file, computed without a warm cache.  Both are only
read here.  A `cold-walls` job runs into a fresh empty cache directory;
the jobs of one `warm-cache` class share one, filled by the class's first
job, so every later one is a cache hit.
"""

import hashlib
import io
import json
import os
import sys

import pytest

import cswalls.cli as cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench")
sys.path.insert(0, BENCH)

import workloads  # noqa: E402

with open(os.path.join(BENCH, "refs.json"), encoding="utf-8") as _fh:
    REFS = json.load(_fh)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _replay(job, cache, out_dir) -> list:
    """[exit code, stdout digest, SVG digest or ""], as `refs.json` holds
    them."""
    out = os.path.join(out_dir, "walls.svg")
    stdout = io.StringIO()
    code = cli.run(job.resolve(cache, out), stdout, io.StringIO(), {})
    svg = ""
    if job.writes_svg:
        with open(out, "rb") as fh:
            svg = _digest(fh.read())
        os.remove(out)
    return [code, _digest(stdout.getvalue().encode()), svg]


def _class_of(job) -> tuple:
    """The class, genus, model and rank bound that a class job names."""
    return tuple(job.argv[job.argv.index(flag) + 1] for flag in
                 ("--class", "--genus", "--model", "--rank-bound"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_benchmark_jobs_match_their_references(workload, tmp_path,
                                               monkeypatch):
    jobs = workloads.universe(workload)
    assert jobs
    enumerated = []
    enumerate_walls = cli.enumerate_walls

    def counted(*args):
        enumerated.append(args[0])
        return enumerate_walls(*args)

    monkeypatch.setattr(cli, "enumerate_walls", counted)
    caches = {}  # the warm class -> its shared cache directory
    drift = []
    for i, job in enumerate(jobs):
        cache = None
        if job.uses_cache:
            if workload == "warm-cache":
                key = _class_of(job)
                if key not in caches:
                    caches[key] = str(tmp_path / f"warm{len(caches)}")
                cache = caches[key]
            else:
                cache = str(tmp_path / f"cold{i}")
        got = _replay(job, cache, str(tmp_path))
        if got != REFS[job.key]:
            drift.append(f"{job.key}: {got} != {REFS[job.key]}")
    assert not drift, "\n".join(drift[:20])
    if workload == "warm-cache":
        # one enumeration per class, by its first job: the others are hits
        assert len(enumerated) == len(caches)
