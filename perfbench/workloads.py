"""Seeded job lists for the three benchmark workloads.

A job is one ``cswalls.cli.run`` call.  Its argv may hold two
placeholders, filled in per run: ``{cache}`` (a cache directory) and
``{out}`` (an SVG output path).  ``Job.key`` is the argv with the
placeholders left in; it indexes the reference digests in ``refs.json``.

Every workload draws its jobs from a finite universe that does not depend
on the seed, so ``make_refs.py`` can store a reference for every job any
seed can produce.  The seed only chooses which members of the universe a
run uses.  This module must not import ``cswalls``: the worker generates
jobs before it times the package import.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

CACHE = "{cache}"
OUT = "{out}"

WORKLOADS = ("cold-walls", "warm-cache", "point-queries")

#: (genus, model) pairs every class workload covers
MODELS = ((2, "general"), (5, "mercat"))

#: class pools by rank kind; the seed draws d and n, the kind fixes r
RANK_OF_KIND = {"zero": 0, "nonzero": 2}
D_RANGE = range(1, 5)
N_RANGE = range(-1, 4)

#: rank bound -> classes per (rank kind, model) cell; 44 jobs in all
COLD_PER_RANK_BOUND = {1: 8, 2: 2, 3: 1}
#: the warm classes come from a narrower band of d, where the rank-two
#: classes have 64-101 walls each, so that the job mix, and with it the
#: median and tail job, stays the same from seed to seed
WARM_D_RANGE = range(3, 5)
WARM_RANK_BOUND = 1
WARM_PER_CELL = {"zero": 2, "nonzero": 4}

POINT_COMMANDS = (
    "euler", "serre", "dual", "mutate", "project", "bn", "region",
    "charge", "nu", "mualpha", "ray", "feasible", "classify", "glue",
)
REJECTIONS = (
    "ray-rank-zero", "mercat-low-genus", "classify-inconsistent-lifts",
    "glue-b-nonnegative", "mutate-not-exceptional", "mualpha-negative",
)
POINT_PER_COMMAND = 27
POINT_PER_REJECTION = 7  # 6 * 7 = 42 of 420 jobs, a fixed 10 % share
POINT_POOL_PER_COMMAND = 60
POINT_POOL_PER_REJECTION = 20
_POINT_POOL_SEED = 20251101

FLAGS = ("stable_O0", "stable_pt", "stable_sheafO", "stable_OO")


@dataclass(frozen=True)
class Job:
    argv: Tuple[str, ...]
    expect_exit: int
    stratum: str

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def writes_svg(self) -> bool:
        return OUT in self.argv

    @property
    def uses_cache(self) -> bool:
        return CACHE in self.argv

    def resolve(self, cache: Optional[str], out: Optional[str]) -> list:
        """argv with the placeholders replaced by real paths."""
        fill = {CACHE: cache, OUT: out}
        return [fill.get(a, a) for a in self.argv]


# --- class workloads ---------------------------------------------------------


def class_pool(kind: str, d_range=D_RANGE) -> List[Tuple[int, int, int]]:
    r = RANK_OF_KIND[kind]
    return [(r, d, n) for d in d_range for n in N_RANGE]


def _class_args(cls, genus: int, model: str, rank_bound: int) -> tuple:
    return ("--class", "%d,%d,%d" % cls, "--genus", str(genus),
            "--model", model, "--rank-bound", str(rank_bound))


def walls_json_job(cls, genus, model, rank_bound, stratum) -> Job:
    return Job(("walls",) + _class_args(cls, genus, model, rank_bound)
               + ("--format", "json", "--cache-dir", CACHE), 0, stratum)


def warm_jobs_for(cls, genus, model, stratum) -> List[Job]:
    """The six cache-reading jobs the warm workload runs per class."""
    base = _class_args(cls, genus, model, WARM_RANK_BOUND)
    cache = ("--cache-dir", CACHE)
    jobs = [Job(("walls",) + base + ("--format", fmt) + cache, 0, stratum)
            for fmt in ("json", "csv", "text")]
    jobs += [Job(("chambers",) + base + ("--format", fmt) + cache, 0, stratum)
             for fmt in ("json", "text")]
    jobs.append(Job(("plot",) + base + cache + ("--out", OUT), 0, stratum))
    return jobs


def _cells():
    for kind in RANK_OF_KIND:
        for genus, model in MODELS:
            yield kind, genus, model


def cold_walls(seed: int) -> List[Job]:
    """Classes per (rank kind, model, rank bound) cell, each enumerated
    into a fresh empty cache directory."""
    rng = random.Random(f"cold-walls:{seed}")
    jobs = []
    for kind, genus, model in _cells():
        for rb, k in COLD_PER_RANK_BOUND.items():
            stratum = f"{kind}/{model}/rb{rb}"
            for cls in rng.sample(class_pool(kind), k):
                jobs.append(walls_json_job(cls, genus, model, rb, stratum))
    rng.shuffle(jobs)
    return jobs


def warm_classes(seed: int) -> List[Tuple[tuple, int, str, str]]:
    """(class, genus, model, stratum) for each class the warm set-up caches."""
    rng = random.Random(f"warm-cache:{seed}")
    out = []
    for kind, genus, model in _cells():
        pool = class_pool(kind, WARM_D_RANGE)
        for cls in rng.sample(pool, WARM_PER_CELL[kind]):
            out.append((cls, genus, model, f"{kind}/{model}"))
    return out


def warm_setup(seed: int) -> List[Job]:
    """Cache-filling jobs: one cold ``walls --format json`` per class."""
    return [walls_json_job(cls, g, m, WARM_RANK_BOUND, s)
            for cls, g, m, s in warm_classes(seed)]


def warm_cache(seed: int) -> List[Job]:
    rng = random.Random(f"warm-cache-order:{seed}")
    jobs = [j for cls, g, m, s in warm_classes(seed)
            for j in warm_jobs_for(cls, g, m, s)]
    rng.shuffle(jobs)
    return jobs


# --- point queries -----------------------------------------------------------


def _chi(e, v, g: int) -> int:
    """Euler pairing on (r, d, n) triples; used only to pick exceptional
    classes for ``mutate`` without importing the package."""
    twist = v[1] + v[0] * (1 - g)
    return e[0] * twist - e[1] * v[0] + e[2] * (v[2] - twist)


def _rat(rng, lo=-12, hi=12, max_den=6) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, max_den))


def _cls(rng, rank_zero: Optional[bool] = None) -> tuple:
    r = rng.randint(-3, 3)
    if rank_zero is True:
        r = 0
    elif rank_zero is False and r == 0:
        r = rng.choice((1, 2, 3))
    return (r, rng.randint(-6, 6), rng.randint(-6, 6))


def _c(cls) -> str:
    return "%d,%d,%d" % cls


def _pt(b, w) -> str:
    return f"{b},{w}"


def _phase(re: Fraction, im: Fraction) -> float:
    return math.atan2(float(im), float(re)) / math.pi


def _nonzero_complex(rng) -> tuple:
    while True:
        z = (_rat(rng, -6, 6, 4), _rat(rng, -6, 6, 4))
        if z != (0, 0):
            return z


def _classify_args(rng, consistent: bool) -> tuple:
    """Charge data with lifts on the principal phases; an inconsistent
    set moves one lift by half a turn, which the program must reject."""
    zs = [_nonzero_complex(rng) for _ in range(3)]
    lifts = [repr(_phase(*z)) for z in zs]
    if consistent:
        lifts = [x if rng.random() < 0.8 else "-" for x in lifts]
    else:
        i = rng.randrange(3)
        lifts[i] = repr(_phase(*zs[i]) + 0.5)
    flags = [f for f in FLAGS if rng.random() < 0.6]
    args = tuple(f"--z{i + 1}={z[0]},{z[1]}" for i, z in enumerate(zs))
    args += (f"--lifts={','.join(lifts)}",)
    if flags:
        args += (f"--flags={','.join(flags)}",)
    return args


def _exceptional(rng, g: int) -> tuple:
    while True:
        e = (rng.randint(0, 2), rng.randint(-3, 3), rng.randint(-3, 3))
        if _chi(e, e, g) == 1:
            return e


def _not_exceptional(rng, g: int) -> tuple:
    while True:
        e = _cls(rng)
        if _chi(e, e, g) != 1:
            return e


def _accepted(rng, cmd: str, genus: int, model: str) -> tuple:
    if cmd == "euler":
        return (f"--v1={_c(_cls(rng))}", f"--v2={_c(_cls(rng))}")
    if cmd in ("serre", "dual", "feasible"):
        return (f"--class={_c(_cls(rng))}",)
    if cmd == "mutate":
        return (f"--e={_c(_exceptional(rng, genus))}",
                f"--class={_c(_cls(rng))}")
    if cmd == "project":
        return (f"--class={_c(_cls(rng, rank_zero=False))}",)
    if cmd == "bn":
        return (f"--at={_rat(rng)}",)
    if cmd in ("region", "glue"):
        b = _rat(rng)
        if cmd == "glue":
            b = -abs(b) - Fraction(1, 7)
        return (f"--point={_pt(b, _rat(rng, 1, 16, 4))}",)
    if cmd in ("charge", "nu"):
        return (f"--class={_c(_cls(rng))}",
                f"--point={_pt(_rat(rng), _rat(rng))}")
    if cmd == "mualpha":
        return (f"--class={_c(_cls(rng))}", f"--alpha={_rat(rng, 0, 12)}")
    if cmd == "ray":
        alpha = _rat(rng, 1, 12) * rng.choice((1, -1))
        return (f"--class={_c(_cls(rng, rank_zero=False))}",
                f"--alpha={alpha}")
    if cmd == "classify":
        return _classify_args(rng, consistent=True)
    raise ValueError(cmd)


def _rejected(rng, kind: str, genus: int, model: str) -> tuple:
    """(command, args, genus, model) of a documented exit-1 rejection."""
    if kind == "ray-rank-zero":
        return ("ray", (f"--class={_c(_cls(rng, rank_zero=True))}",
                        f"--alpha={_rat(rng, 1, 12)}"), genus, model)
    if kind == "mercat-low-genus":
        cmd = rng.choice(("bn", "region"))
        args = (f"--at={_rat(rng)}",) if cmd == "bn" else (
            f"--point={_pt(_rat(rng), _rat(rng, 1, 16, 4))}",)
        return (cmd, args, rng.choice((2, 3)), "mercat")
    if kind == "classify-inconsistent-lifts":
        return ("classify", _classify_args(rng, consistent=False),
                genus, model)
    if kind == "glue-b-nonnegative":
        b = abs(_rat(rng))
        return ("glue", (f"--point={_pt(b, _rat(rng, 1, 16, 4))}",),
                genus, model)
    if kind == "mutate-not-exceptional":
        return ("mutate", (f"--e={_c(_not_exceptional(rng, genus))}",
                           f"--class={_c(_cls(rng))}"), genus, model)
    if kind == "mualpha-negative":
        return ("mualpha", (f"--class={_c(_cls(rng))}",
                            f"--alpha={-_rat(rng, 1, 12)}"), genus, model)
    raise ValueError(kind)


def _point_job(rng, cmd, args, genus, model, expect, stratum) -> Job:
    fmt = rng.choice(("text", "json"))
    return Job((cmd,) + args + (f"--genus={genus}", f"--model={model}",
                                f"--format={fmt}"), expect, stratum)


def point_pool() -> dict:
    """stratum -> list of jobs; the fixed universe point-queries samples."""
    rng = random.Random(_POINT_POOL_SEED)
    pool = {}
    for cmd in POINT_COMMANDS:
        jobs = []
        for i in range(POINT_POOL_PER_COMMAND):
            genus, model = MODELS[i % len(MODELS)]
            args = _accepted(rng, cmd, genus, model)
            jobs.append(_point_job(rng, cmd, args, genus, model, 0, cmd))
        pool[cmd] = jobs
    for kind in REJECTIONS:
        jobs = []
        for i in range(POINT_POOL_PER_REJECTION):
            genus, model = MODELS[i % len(MODELS)]
            cmd, args, genus, model = _rejected(rng, kind, genus, model)
            jobs.append(_point_job(rng, cmd, args, genus, model, 1,
                                   f"reject/{kind}"))
        pool[f"reject/{kind}"] = jobs
    return pool


def point_queries(seed: int) -> List[Job]:
    rng = random.Random(f"point-queries:{seed}")
    jobs = []
    for stratum, members in point_pool().items():
        k = (POINT_PER_REJECTION if stratum.startswith("reject/")
             else POINT_PER_COMMAND)
        jobs.extend(rng.sample(members, k))
    rng.shuffle(jobs)
    return jobs


# --- dispatch ----------------------------------------------------------------


def jobs_for(workload: str, seed: int) -> List[Job]:
    """The fixed job list one pass of the workload runs."""
    if workload == "cold-walls":
        return cold_walls(seed)
    if workload == "warm-cache":
        return warm_cache(seed)
    if workload == "point-queries":
        return point_queries(seed)
    raise ValueError(f"unknown workload {workload!r}")


def setup_jobs_for(workload: str, seed: int) -> List[Job]:
    """Jobs the workload's set-up runs once before timing."""
    return warm_setup(seed) if workload == "warm-cache" else []


def universe(workload: str) -> List[Job]:
    """Every job any seed can put in the workload's pass or set-up."""
    jobs = []
    if workload == "cold-walls":
        for kind, genus, model in _cells():
            for rb in COLD_PER_RANK_BOUND:
                for cls in class_pool(kind):
                    jobs.append(walls_json_job(cls, genus, model, rb,
                                               f"{kind}/{model}/rb{rb}"))
    elif workload == "warm-cache":
        for kind, genus, model in _cells():
            for cls in class_pool(kind, WARM_D_RANGE):
                stratum = f"{kind}/{model}"
                jobs.append(walls_json_job(cls, genus, model,
                                           WARM_RANK_BOUND, stratum))
                jobs.extend(warm_jobs_for(cls, genus, model, stratum))
    elif workload == "point-queries":
        for members in point_pool().values():
            jobs.extend(members)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs
