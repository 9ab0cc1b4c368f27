"""Regenerate ``refs.json``: exit code and output digests of every job any
seed can produce, computed without a warm cache.

    python3 perfbench/make_refs.py

Run it only when the benchmark's job universe changes.  A change to the
program must leave the stored references valid: the benchmark counts a
job whose bytes differ as failed.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import sys
import tempfile

import worker
import workloads


def main() -> int:
    from cswalls.cli import run

    refs = {}
    os.makedirs(worker.OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="refs-", dir=worker.OUT_DIR)
    try:
        for name in workloads.WORKLOADS:
            for job in workloads.universe(name):
                if job.key in refs:
                    continue
                cache = tempfile.mkdtemp(dir=tmp)
                out = os.path.join(cache, "walls.svg")
                stdout = io.StringIO()
                code = run(job.resolve(cache, out), stdout, io.StringIO(), {})
                if code != job.expect_exit:
                    print(f"{job.key}: exit {code}, expected "
                          f"{job.expect_exit}", file=sys.stderr)
                    return 1
                svg = ""
                if job.writes_svg:
                    with open(out, "rb") as fh:
                        svg = worker.digest(fh.read())
                refs[job.key] = [code, worker.digest(stdout.getvalue().encode()),
                                 svg]
                shutil.rmtree(cache)
            print(f"{name}: {len(refs)} references so far", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(worker.REFS, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
