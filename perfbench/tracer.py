"""Spans around the calls into each ``cswalls`` module, recorded from the
benchmark's own files, and the per-layer metrics derived from them.

``Tracer.patched()`` replaces each traced function in every ``cswalls``
module that holds it, so a call is recorded wherever its caller looks the
name up (``enumerate_walls`` in both ``cli`` and ``walls``; ``find_delta``
and friends as module globals of ``walls``; ``PLFunction.__call__`` on the
class).  Spans stay in memory as columns: name, start, end, parent span,
job id, and an optional size (walls returned, bytes written, ...).
"""

from __future__ import annotations

import contextlib
import sys
from array import array
from time import perf_counter

#: (defining module, attribute, span name, size of the result or None)
TARGETS = (
    ("cli", "build_parser", "cli.build_parser", None),
    ("cli", "cached_walls", "cli.cached_walls", None),
    ("cli", "render_walls", "cli.render_walls", None),
    ("walls", "enumerate_walls", "walls.enumerate_walls", len),
    ("walls", "wall_line", "walls.wall_line", None),
    ("walls", "find_delta", "walls.find_delta", None),
    ("walls", "delta_certificate", "walls.delta_certificate", None),
    ("walls", "support_form_value", "walls.support_form_value", None),
    ("walls", "chamber_decomposition", "walls.chamber_decomposition",
     lambda report: len(report.chambers)),
    ("walls", "ray_line", "walls.ray_line", None),
    ("walls", "bogomolov_verdict", "walls.bogomolov_verdict", None),
    ("envelopes", "region_uc", "envelopes.region_uc", None),
    ("envelopes", "region_uf", "envelopes.region_uf", None),
    ("envelopes", "make_model", "envelopes.make_model", None),
    ("jsonio", "dumps", "jsonio.dumps", len),
    ("jsonio", "walls_to_json", "jsonio.walls_to_json", None),
    ("jsonio", "walls_from_json", "jsonio.walls_from_json", None),
    ("jsonio", "chamber_report_to_json", "jsonio.chamber_report_to_json",
     None),
    ("jsonio", "gl_element_to_json", "jsonio.gl_element_to_json", None),
    ("svg", "render_svg", "svg.render_svg", len),
    ("lattice", "euler", "lattice.euler", None),
    ("lattice", "serre_class", "lattice.serre_class", None),
    ("lattice", "dual_class", "lattice.dual_class", None),
    ("lattice", "mutate_left", "lattice.mutate_left", None),
    ("lattice", "project", "lattice.project", None),
    ("charges", "central_charge", "charges.central_charge", None),
    ("charges", "nu", "charges.nu", None),
    ("charges", "mu_alpha", "charges.mu_alpha", None),
    ("charges", "gluing_presentation", "charges.gluing_presentation", None),
    ("classify", "full_classification", "classify.full_classification",
     None),
)
PL_EVAL = "envelopes.pl_eval"
RUN = "cli.run"

ENCODERS = ("jsonio.dumps", "jsonio.walls_to_json",
            "jsonio.chamber_report_to_json", "jsonio.gl_element_to_json")

NO_SIZE = float("nan")


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.size = array("d")
        self.current_job = -1
        self._stack = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn, size=None):
        """fn, recording one span per call."""
        nid = self._id(name)
        stack = self._stack
        names, starts, ends = self.name_id, self.start, self.end
        parents, jobs, sizes = self.parent, self.job, self.size

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.current_job)
            sizes.append(NO_SIZE)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if size is not None:
                sizes[idx] = size(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers in every loaded ``cswalls`` module."""
        from cswalls import envelopes

        by_id = {}
        for mod_name, attr, name, size in TARGETS:
            fn = getattr(sys.modules[f"cswalls.{mod_name}"], attr)
            by_id[id(fn)] = (fn, self.wrap(name, fn, size))
        undo = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "cswalls" and not mod_name.startswith("cswalls."):
                continue
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    undo.append((module, attr, value))
        call = envelopes.PLFunction.__call__
        envelopes.PLFunction.__call__ = self.wrap(PL_EVAL, call)
        undo.append((envelopes.PLFunction, "__call__", call))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def spans(self):
        """(name, start, end, parent, job, size) rows, in call order."""
        return [(self.names[n], s, e, p, j, z) for n, s, e, p, j, z in zip(
            self.name_id, self.start, self.end, self.parent, self.job,
            self.size)]


def self_times(spans) -> list:
    """Duration of each span minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping
    children are counted once.
    """
    children = {}
    for idx, row in enumerate(spans):
        if row[3] >= 0:
            children.setdefault(row[3], []).append((row[1], row[2]))
    out = []
    for idx, row in enumerate(spans):
        lo, hi = row[1], row[2]
        covered = 0.0
        reach = lo
        for a, b in sorted(children.get(idx, ())):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out.append((hi - lo) - covered)
    return out


def _has_ancestor(spans, idx: int, name: str) -> bool:
    p = spans[idx][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def layer_metrics(spans, selfs) -> dict:
    """Per-layer numbers of one traced pass (times in s, sizes as counts);
    ``selfs`` is ``self_times(spans)``."""
    count, total, self_sum, size_sum = {}, {}, {}, {}
    for row, own in zip(spans, selfs):
        name = row[0]
        count[name] = count.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + (row[2] - row[1])
        self_sum[name] = self_sum.get(name, 0.0) + own
        if row[5] == row[5]:  # not NaN
            size_sum[name] = size_sum.get(name, 0.0) + row[5]

    def n(name):
        return count.get(name, 0)

    def t(name):
        return total.get(name, 0.0)

    enumerating = {row[3] for row in spans
                   if row[0] == "walls.enumerate_walls"}
    candidates = 0
    hits = misses = 0
    for idx, row in enumerate(spans):
        if row[0] == "walls.wall_line" and _has_ancestor(
                spans, idx, "walls.enumerate_walls"):
            candidates += 1
        elif row[0] == "cli.cached_walls":
            if idx in enumerating:
                misses += 1
            else:
                hits += 1
    encode_s = sum(row[2] - row[1] for idx, row in enumerate(spans)
                   if row[0] in ENCODERS
                   and not any(_has_ancestor(spans, idx, e)
                               for e in ENCODERS))

    def from_dispatch(prefix):
        return sum(row[2] - row[1] for row in spans
                   if row[0].startswith(prefix)
                   and row[3] >= 0 and spans[row[3]][0] == RUN)

    walls_out = size_sum.get("walls.enumerate_walls", 0.0)
    return {
        "walls.enumerate_self_s": self_sum.get("walls.enumerate_walls", 0.0),
        "walls.candidates": candidates,
        "walls.walls_out": int(walls_out),
        "walls.wall_yield": walls_out / candidates if candidates else 0.0,
        "walls.find_delta_calls": n("walls.find_delta"),
        "walls.find_delta_s": t("walls.find_delta"),
        "walls.delta_certificate_calls": n("walls.delta_certificate"),
        "walls.support_form_calls": n("walls.support_form_value"),
        "walls.support_form_s": t("walls.support_form_value"),
        "envelopes.pl_eval_calls": n(PL_EVAL),
        "envelopes.pl_eval_s": t(PL_EVAL),
        "envelopes.region_uc_s": t("envelopes.region_uc"),
        "envelopes.region_uf_calls": n("envelopes.region_uf"),
        "envelopes.make_model_s": t("envelopes.make_model"),
        "walls.chamber_decomposition_s": t("walls.chamber_decomposition"),
        "walls.chambers_out": int(
            size_sum.get("walls.chamber_decomposition", 0.0)),
        "cli.cached_walls_s": t("cli.cached_walls"),
        "cli.cache_hits": hits,
        "cli.cache_misses": misses,
        "cli.cache_hit_ratio": hits / (hits + misses) if hits + misses
        else 0.0,
        "jsonio.encode_s": encode_s,
        "jsonio.decode_s": t("jsonio.walls_from_json"),
        "jsonio.bytes_out": int(size_sum.get("jsonio.dumps", 0.0)),
        "cli.render_walls_s": t("cli.render_walls"),
        "svg.render_s": t("svg.render_svg"),
        "svg.bytes_out": int(size_sum.get("svg.render_svg", 0.0)),
        "cli.build_parser_s": t("cli.build_parser"),
        "cli.self_s": self_sum.get(RUN, 0.0),
        "classify.s": from_dispatch("classify."),
        "charges.s": from_dispatch("charges."),
        "lattice.s": from_dispatch("lattice."),
    }


def self_time_table(spans, selfs) -> list:
    """(name, calls, total self time) per span name, largest first."""
    calls, own = {}, {}
    for row, s in zip(spans, selfs):
        calls[row[0]] = calls.get(row[0], 0) + 1
        own[row[0]] = own.get(row[0], 0.0) + s
    return sorted(((k, calls[k], own[k]) for k in own),
                  key=lambda r: -r[2])
