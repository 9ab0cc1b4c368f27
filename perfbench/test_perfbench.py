"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import collections
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _classes(jobs):
    return {job.argv[job.argv.index("--class") + 1] for job in jobs}


def test_job_lists_are_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        assert workloads.jobs_for(name, 7) == workloads.jobs_for(name, 7)
        assert (workloads.setup_jobs_for(name, 7)
                == workloads.setup_jobs_for(name, 7))


def test_another_seed_keeps_strata_and_changes_classes():
    for name in workloads.WORKLOADS:
        a, b = workloads.jobs_for(name, 1), workloads.jobs_for(name, 2)
        count = collections.Counter
        assert count(j.stratum for j in a) == count(j.stratum for j in b)
        assert {j.key for j in a} != {j.key for j in b}
    cold_a = workloads.jobs_for("cold-walls", 1)
    cold_b = workloads.jobs_for("cold-walls", 2)
    assert _classes(cold_a) != _classes(cold_b)
    warm_a = workloads.warm_classes(1)
    warm_b = workloads.warm_classes(2)
    assert [c for c, *_ in warm_a] != [c for c, *_ in warm_b]
    assert ([(g, m) for _, g, m, _ in warm_a]
            == [(g, m) for _, g, m, _ in warm_b])


def test_point_queries_reject_a_fixed_share():
    for seed in (1, 2, 3):
        jobs = workloads.jobs_for("point-queries", seed)
        rejected = [j for j in jobs if j.expect_exit == 1]
        assert len(rejected) * 10 == len(jobs)
        assert all(j.stratum.startswith("reject/") for j in rejected)


def test_every_job_of_a_seed_has_a_reference():
    refs = worker.load_refs()
    for name in workloads.WORKLOADS:
        universe = {j.key for j in workloads.universe(name)}
        assert universe <= set(refs)
        for seed in (1, 2, 99):
            jobs = (workloads.jobs_for(name, seed)
                    + workloads.setup_jobs_for(name, seed))
            assert {j.key for j in jobs} <= universe
            for j in jobs:
                assert refs[j.key][0] == j.expect_exit


def test_tail_takes_the_highest_percentile_with_ten_beyond():
    ladder = bench.TAIL_PERCENTILES
    for n in (20, 39, 40, 48, 72, 99, 100, 420, 1000, 20000):
        xs = list(range(n))
        pct, value, beyond = bench.tail(xs)
        assert beyond >= 10
        assert n - beyond == value + 1
        higher = [p for p in ladder if p > pct]
        for p in higher:
            rank = -(-p * n // 100)
            assert n - rank < 10
    assert bench.tail(list(range(48)))[::2] == (75.0, 12)
    assert bench.tail(list(range(420)))[::2] == (95.0, 21)
    assert bench.tail(list(range(15))) == (100.0, 14, 0)


def _span(name, start, end, parent):
    return (name, float(start), float(end), parent, 0, float("nan"))


def test_self_time_subtracts_children_on_nested_spans():
    spans = [
        _span("a", 0, 10, -1),
        _span("b", 1, 4, 0),
        _span("c", 2, 3, 1),
        _span("d", 3, 6, 0),   # overlaps b: the union [1, 6] counts once
        _span("e", 9, 12, 0),  # runs past its parent: clipped at 10
        _span("f", 20, 21, -1),
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 1.0, 3.0, 3.0, 1.0]


def test_layer_metrics_count_hits_misses_and_candidates():
    spans = [
        _span("cli.run", 0, 10, -1),
        _span("cli.cached_walls", 1, 9, 0),
        _span("walls.enumerate_walls", 2, 8, 1),
        _span("walls.wall_line", 3, 4, 2),
        _span("walls.wall_line", 4, 5, 2),
        _span("cli.run", 10, 20, -1),
        _span("cli.cached_walls", 11, 12, 5),
        _span("walls.wall_line", 13, 14, 5),  # not inside an enumeration
    ]
    spans[2] = spans[2][:5] + (3.0,)
    m = tracing.layer_metrics(spans, tracing.self_times(spans))
    assert (m["cli.cache_hits"], m["cli.cache_misses"]) == (1, 1)
    assert m["cli.cache_hit_ratio"] == 0.5
    assert m["walls.candidates"] == 2
    assert m["walls.walls_out"] == 3
    assert m["walls.wall_yield"] == 1.5
    assert m["walls.enumerate_self_s"] == 4.0
    assert m["cli.self_s"] == 2.0 + 8.0


def test_normalize_divides_out_the_host_speed_around_each_job():
    probes = [(float(t), 4e-4 if t < 15 else 8e-4) for t in range(30)]
    samples = [(2.0, 1.0), (25.0, 2.0), (29.5, 0.5)]
    assert worker.normalize(samples, probes) == [1.0, 1.0, 0.25]


def _runner(tmp, refs):
    return worker.Runner(tmp, refs)


def _tmpdir():
    os.makedirs(worker.OUT_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix="test-", dir=worker.OUT_DIR)


def test_a_corrupted_reference_digest_fails_the_job():
    job = workloads.point_pool()["euler"][0]
    refs = worker.load_refs()
    tmp = _tmpdir()
    try:
        good = _runner(tmp, refs)
        good.pass_([job], None)
        assert good.attempted == 1 and good.failures == []

        code, out, svg = refs[job.key]
        bad_digest = ("0" if out[0] != "0" else "1") + out[1:]
        bad = _runner(tmp, dict(refs, **{job.key: [code, bad_digest, svg]}))
        bad.pass_([job], None)
        assert bad.attempted == 1
        assert bad.failures == [f"{job.key}: stdout differs"]

        wrong_exit = _runner(tmp, dict(refs, **{job.key: [1, out, svg]}))
        wrong_exit.pass_([job], None)
        assert wrong_exit.failures == [f"{job.key}: exit 0, reference 1"]
    finally:
        shutil.rmtree(tmp)


def test_tracer_records_calls_where_callers_look_them_up():
    from cswalls import cli, envelopes, walls

    job = workloads.walls_json_job((0, 1, 0), 2, "general", 1, "t")
    tmp = _tmpdir()
    try:
        runner = _runner(tmp, worker.load_refs())
        tracer = tracing.Tracer()
        runner.run = tracer.wrap(tracing.RUN, runner.run)
        original_call = envelopes.PLFunction.__call__
        with tracer.patched():
            assert cli.enumerate_walls is walls.enumerate_walls
            assert hasattr(cli.enumerate_walls, "__wrapped__")
            assert hasattr(walls.find_delta, "__wrapped__")
            assert envelopes.PLFunction.__call__ is not original_call
            runner.pass_([job], None)
        assert runner.failures == []
        assert not hasattr(cli.enumerate_walls, "__wrapped__")
        assert not hasattr(walls.find_delta, "__wrapped__")
        assert envelopes.PLFunction.__call__ is original_call
    finally:
        shutil.rmtree(tmp)
    spans = tracer.spans()
    parents = {(row[0], spans[row[3]][0] if row[3] >= 0 else None)
               for row in spans}
    assert ("cli.cached_walls", "cli.run") in parents
    assert ("walls.enumerate_walls", "cli.cached_walls") in parents
    assert ("walls.wall_line", "walls.enumerate_walls") in parents
    assert any(name == tracing.PL_EVAL for name, _ in parents)
    m = tracing.layer_metrics(spans, tracing.self_times(spans))
    assert m["cli.cache_misses"] == 1 and m["walls.candidates"] > 0


def test_benchmark_json_names_every_metric_the_run_prints():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == bench.END_TO_END_UNITS
    names = list(tracing.layer_metrics([], [])) + [
        "trace.makespan_s", "trace.overhead_frac", "trace.covered_frac"]
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layers == {n: bench.layer_unit(n) for n in names}
