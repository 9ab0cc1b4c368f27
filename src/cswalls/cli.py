"""Command-line front end.

Deterministic by construction: identical argv, configuration, and cache
state produce byte-identical output.  Configuration resolution order is
command-line flags, then the JSON file named by CSWALLS_CONFIG, then
built-in defaults.  Domain errors exit 1, usage errors exit 2.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import re
import sys
import tempfile
from dataclasses import dataclass
from typing import Optional

from . import __version__
from .charges import (
    ChargeData,
    ComplexRational,
    PlanePoint,
    central_charge,
    gluing_presentation,
    mu_alpha,
    nu,
)
from .classify import full_classification
from .envelopes import BNModel, make_model, model_from_json, region_uc, region_uf
from .errors import CswallsError, DomainError, GenusOutOfRange
from .jsonio import (
    chamber_report_to_json,
    dumps,
    gl_element_to_json,
    rat,
    unrat,
    walls_from_json,
    walls_to_json,
)
from .lattice import NumClass, dual_class, euler, mutate_left, project, serre_class
from .svg import render_svg
from .walls import (
    Window,
    bogomolov_verdict,
    chamber_decomposition,
    enumerate_walls,
    ray_line,
)

DEFAULTS = {
    "genus": 2,
    "model": "general",
    "window": "-4,4,1/4,8",
    "rank_bound": 3,
    "tol": 1e-9,
    "format": "text",
    "cache_dir": None,
}

CONFIG_ENV = "CSWALLS_CONFIG"

# let argparse treat tokens like "-3,3,1/2,6" or "-1,2,0" as option values
_NEGATIVE_VALUE = re.compile(r"^-\d+([.,/]\S*)?$")


@dataclass
class Config:
    genus: int
    model_name: str
    window: Window
    rank_bound: int
    tol: float
    format: str
    cache_dir: Optional[str]

    def model(self) -> BNModel:
        if self.model_name.startswith("user:"):
            path = self.model_name[5:]
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise CswallsError(f"cannot load user model {path}: {exc}")
            return model_from_json(doc, self.genus)
        return make_model(self.model_name, self.genus)


def parse_class(text: str) -> NumClass:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"a class is r,d,n; got {text!r}")
    return NumClass(*(int(p) for p in parts))


def parse_rat(text: str):
    """A rational argument; a malformed one is a usage error (argparse
    reports it from a `type=` callback, `run` after parsing)."""
    try:
        return rat(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def parse_finite(text: str) -> float:
    """A float argument; NaN and infinities are usage errors."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def parse_point(text: str) -> PlanePoint:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"a point is b,w; got {text!r}")
    return PlanePoint(parse_rat(parts[0]), parse_rat(parts[1]))


def parse_window(text: str) -> Window:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError(f"a window is bmin,bmax,wmin,wmax; got {text!r}")
    return Window(*(parse_rat(p) for p in parts))


def _load_config_file(environ) -> dict:
    path = environ.get(CONFIG_ENV)
    if not path:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CswallsError(f"cannot read {CONFIG_ENV} file {path}: {exc}")
    if not isinstance(doc, dict):
        raise CswallsError(f"{CONFIG_ENV} file must hold a JSON object")
    unknown = set(doc) - set(DEFAULTS)
    if unknown:
        raise CswallsError(f"unknown config keys {sorted(unknown)}")
    return doc


def resolve_config(args, environ) -> Config:
    file_cfg = _load_config_file(environ)

    def pick(name, flag_value):
        if flag_value is not None:
            return flag_value
        if name in file_cfg and file_cfg[name] is not None:
            return file_cfg[name]
        return DEFAULTS[name]

    genus = int(pick("genus", args.genus))
    model_name = str(pick("model", args.model))
    window_text = pick("window", args.window)
    window = (
        window_text if isinstance(window_text, Window)
        else parse_window(str(window_text))
    )
    rank_bound = int(pick("rank_bound", args.rank_bound))
    tol = float(pick("tol", args.tol))
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")
    fmt = str(pick("format", args.format))
    cache_dir = pick("cache_dir", args.cache_dir)
    if fmt not in ("json", "csv", "text"):
        raise CswallsError(f"unknown format {fmt!r}")
    if genus < 1:
        raise GenusOutOfRange(f"genus must be >= 1, got {genus}")
    if model_name == "mercat" and genus <= 3:
        raise GenusOutOfRange("the mercat model needs genus >= 4")
    if model_name == "elliptic" and genus != 1:
        raise GenusOutOfRange("the elliptic model needs genus 1")
    if rank_bound < 0:
        raise CswallsError(f"rank_bound must be >= 0, got {rank_bound}")
    return Config(genus, model_name, window, rank_bound, tol, fmt, cache_dir)


# --- wall cache -----------------------------------------------------------


def _cache_key(v: NumClass, cfg: Config, model: BNModel) -> dict:
    win = cfg.window
    return {
        "class": list(v.as_tuple()),
        "genus": cfg.genus,
        "window": [unrat(win.b_min), unrat(win.b_max),
                   unrat(win.w_min), unrat(win.w_max)],
        "rank_bound": cfg.rank_bound,
        "model": model.fingerprint(),
        "version": __version__,
    }


def cached_walls(v: NumClass, cfg: Config, model: BNModel, stderr) -> tuple:
    """(walls, docs): the walls of v, read from the cache entry when it
    holds them, and the `walls_to_json` documents of a freshly computed
    result that went into a new entry (None otherwise)."""
    key = _cache_key(v, cfg, model)
    entry_path = None
    if cfg.cache_dir:
        digest = hashlib.sha256(
            json.dumps(key, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        entry_path = os.path.join(cfg.cache_dir, f"{digest}.json")
        try:
            with open(entry_path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            if isinstance(doc, dict) and doc.get("key") == key:
                return walls_from_json(doc["walls"]), None
        except (OSError, json.JSONDecodeError, KeyError, ValueError,
                TypeError, CswallsError):
            pass  # corrupt or mismatched entries are recomputed
    walls = enumerate_walls(v, cfg.genus, cfg.window, cfg.rank_bound, model)
    docs = None
    if entry_path is not None:
        docs = walls_to_json(walls)
        try:
            os.makedirs(cfg.cache_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=cfg.cache_dir, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                # json.dumps (not json.dump) runs the C encoder
                fh.write(json.dumps({"key": key, "walls": docs},
                                    sort_keys=True, separators=(",", ":")))
            os.replace(tmp, entry_path)
        except OSError as exc:
            print(f"warning: cache write failed: {exc}", file=stderr)
    return walls, docs


# --- renderers -------------------------------------------------------------


def _triple_text(v: NumClass) -> str:
    return f"{v.r},{v.d},{v.n}"


def render_walls(walls, fmt: str, out, docs=None) -> None:
    """Write the walls in `fmt`; `docs`, when given, are their
    `walls_to_json` documents."""
    if fmt == "json":
        out.write(dumps(walls_to_json(walls) if docs is None else docs))
        return
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["owner", "line_A", "line_B", "line_C", "nu", "seg_b0",
             "seg_w0", "seg_b1", "seg_w1", "im_positive", "q_nonneg",
             "feasibility", "region", "destabilizers"]
        )
        for w in walls:
            verdicts = dict(w.verdicts)
            writer.writerow(
                [
                    _triple_text(w.owner),
                    w.line.A, w.line.B, w.line.C,
                    "inf" if w.nu_value == math.inf else unrat(w.nu_value),
                    unrat(w.segment[0].b), unrat(w.segment[0].w),
                    unrat(w.segment[1].b), unrat(w.segment[1].w),
                    verdicts["im_positive"].value,
                    verdicts["q_nonneg"].value,
                    verdicts["feasibility"].value,
                    verdicts["region"].value,
                    ";".join(_triple_text(d) for d in w.destabilizers),
                ]
            )
        return
    for w in walls:
        verdicts = dict(w.verdicts)
        nu_text = "inf" if w.nu_value == math.inf else unrat(w.nu_value)
        out.write(
            f"{w.line.A}*b + {w.line.B}*w = {w.line.C}  nu={nu_text}  "
            f"segment [{unrat(w.segment[0].b)},{unrat(w.segment[0].w)}]"
            f"..[{unrat(w.segment[1].b)},{unrat(w.segment[1].w)}]  "
            f"q={verdicts['q_nonneg'].value}"
            f" feas={verdicts['feasibility'].value}"
            f" region={verdicts['region'].value}  "
            f"witnesses {';'.join(_triple_text(d) for d in w.destabilizers)}\n"
        )


def _print_value(value, fmt, out, as_json):
    if fmt == "json":
        out.write(dumps(as_json))
    else:
        out.write(f"{value}\n")


# --- argument parsing -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Accepts negative-looking option values and, given `streams` =
    (stdout, stderr), writes its usage, help and version text there
    instead of to the process's streams."""

    def __init__(self, *a, streams=None, **kw):
        super().__init__(*a, **kw)
        self._negative_number_matcher = _NEGATIVE_VALUE
        self._streams = streams

    def _print_message(self, message, file=None):
        if self._streams is not None:
            file = self._streams[0 if file is sys.stdout else 1]
        super()._print_message(message, file)


def build_parser(streams=None) -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--genus", type=int, default=None)
    common.add_argument("--model", default=None,
                        help="general | mercat | elliptic | user:<path>")
    common.add_argument("--window", default=None,
                        help="bmin,bmax,wmin,wmax (rationals)")
    common.add_argument("--rank-bound", dest="rank_bound", type=int,
                        default=None)
    common.add_argument("--tol", type=float, default=None)
    common.add_argument("--format", default=None,
                        choices=["json", "csv", "text"])
    common.add_argument("--cache-dir", dest="cache_dir", default=None)

    parser = _Parser(prog="cswalls", description=__doc__, streams=streams)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND",
                                parser_class=_Parser)

    def cmd(name, **kw):
        return sub.add_parser(name, parents=[common], streams=streams, **kw)

    p = cmd("euler", help="Euler pairing of two classes")
    p.add_argument("--v1", required=True, type=parse_class)
    p.add_argument("--v2", required=True, type=parse_class)

    p = cmd("serre", help="numerical Serre functor on a class")
    p.add_argument("--class", dest="cls", required=True, type=parse_class)

    p = cmd("dual", help="numerical dual functor on a class")
    p.add_argument("--class", dest="cls", required=True, type=parse_class)

    p = cmd("mutate", help="left mutation through an exceptional class")
    p.add_argument("--e", required=True, type=parse_class)
    p.add_argument("--class", dest="cls", required=True, type=parse_class)

    p = cmd("project", help="projection (d/r, n/r) of a class")
    p.add_argument("--class", dest="cls", required=True, type=parse_class)

    p = cmd("bn", help="envelope values of the active model at a point")
    p.add_argument("--at", required=True, type=parse_rat)

    p = cmd("region", help="membership verdicts for a point")
    p.add_argument("--point", required=True, type=parse_point)

    p = cmd("charge", help="central charge of a class at a point")
    p.add_argument("--class", dest="cls", required=True, type=parse_class)
    p.add_argument("--point", required=True, type=parse_point)

    p = cmd("nu", help="slice slope of a class at a point")
    p.add_argument("--class", dest="cls", required=True, type=parse_class)
    p.add_argument("--point", required=True, type=parse_point)

    p = cmd("mualpha", help="classical slope of a class")
    p.add_argument("--class", dest="cls", required=True, type=parse_class)
    p.add_argument("--alpha", required=True, type=parse_rat)

    p = cmd("walls", help="enumerate walls of a class")
    p.add_argument("--class", dest="cls", required=True, type=parse_class)

    p = cmd("chambers", help="chamber decomposition of a class")
    p.add_argument("--class", dest="cls", required=True, type=parse_class)

    p = cmd("ray", help="large-volume ray line of a class")
    p.add_argument("--class", dest="cls", required=True, type=parse_class)
    p.add_argument("--alpha", required=True, type=parse_rat)

    p = cmd("feasible", help="Bogomolov-type feasibility verdict")
    p.add_argument("--class", dest="cls", required=True, type=parse_class)

    p = cmd("classify", help="classify charge data into regions")
    p.add_argument("--z1", required=True, help="re,im (rationals)")
    p.add_argument("--z2", required=True)
    p.add_argument("--z3", required=True)
    p.add_argument("--lifts", default=None,
                   help="phi1,phi2,phi3 (floats, '-' for unknown)")
    p.add_argument("--flags", default="",
                   help="comma list from stable_O0,stable_pt,"
                        "stable_sheafO,stable_OO")

    p = cmd("glue", help="gluing presentation of a slice point with b<0")
    p.add_argument("--point", required=True, type=parse_point)

    p = cmd("plot", help="render walls of a class to SVG")
    p.add_argument("--class", dest="cls", required=True, type=parse_class)
    p.add_argument("--out", required=True)

    return parser


def _parse_complex(text: str) -> ComplexRational:
    parts = text.split(",")
    if len(parts) != 2:
        raise CswallsError(f"a complex value is re,im; got {text!r}")
    return ComplexRational(parse_rat(parts[0]), parse_rat(parts[1]))


def run(argv, stdout=None, stderr=None, environ=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    environ = environ if environ is not None else os.environ
    parser = build_parser((stdout, stderr))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.command is None:
        parser.print_usage(stderr)
        return 2
    try:
        cfg = resolve_config(args, environ)
        return _dispatch(args, cfg, stdout, stderr)
    except CswallsError as exc:
        print(f"error: {exc}", file=stderr)
        return 1
    except (ValueError, ZeroDivisionError, argparse.ArgumentTypeError) as exc:
        print(f"usage error: {exc}", file=stderr)
        return 2


def _dispatch(args, cfg: Config, out, err) -> int:
    fmt = cfg.format
    cmd = args.command

    if cmd == "euler":
        value = euler(args.v1, args.v2, cfg.genus)
        _print_value(value, fmt, out, {"euler": value})
    elif cmd == "serre":
        v = serre_class(args.cls, cfg.genus)
        _print_value(_triple_text(v), fmt, out, {"class": list(v.as_tuple())})
    elif cmd == "dual":
        v = dual_class(args.cls)
        _print_value(_triple_text(v), fmt, out, {"class": list(v.as_tuple())})
    elif cmd == "mutate":
        v = mutate_left(args.e, args.cls, cfg.genus)
        _print_value(_triple_text(v), fmt, out, {"class": list(v.as_tuple())})
    elif cmd == "project":
        b, w = project(args.cls)
        _print_value(f"{unrat(b)},{unrat(w)}", fmt, out,
                     {"point": [unrat(b), unrat(w)]})
    elif cmd == "bn":
        model = cfg.model()
        lo, hi = model.lower(args.at), model.upper(args.at)
        text = (f"model={model.name} genus={cfg.genus} "
                f"exact={str(model.exact).lower()} "
                f"lower({unrat(args.at)})={unrat(lo)} "
                f"upper({unrat(args.at)})={unrat(hi)}")
        _print_value(text, fmt, out, {
            "model": model.name, "genus": cfg.genus, "exact": model.exact,
            "at": unrat(args.at), "lower": unrat(lo), "upper": unrat(hi),
        })
    elif cmd == "region":
        model = cfg.model()
        uc = region_uc(args.point.as_tuple(), model)
        uf = (
            region_uf(args.point.as_tuple(), cfg.genus)
            if cfg.genus >= 4 else None
        )
        uf_text = "n/a" if uf is None else str(uf).lower()
        _print_value(f"UC: {uc.value}\nUf: {uf_text}", fmt, out,
                     {"uc": uc.value, "uf": uf})
    elif cmd == "charge":
        z = central_charge(args.cls, args.point)
        _print_value(str(z), fmt, out, {"charge": [unrat(z.re), unrat(z.im)]})
    elif cmd == "nu":
        value = nu(args.cls, args.point)
        text = "inf" if value == math.inf else unrat(value)
        _print_value(text, fmt, out, {"nu": text})
    elif cmd == "mualpha":
        value = mu_alpha(args.cls, args.alpha)
        text = "inf" if value == math.inf else unrat(value)
        _print_value(text, fmt, out, {"mu_alpha": text})
    elif cmd == "walls":
        model = cfg.model()
        walls, docs = cached_walls(args.cls, cfg, model, err)
        render_walls(walls, fmt, out, docs)
    elif cmd == "chambers":
        model = cfg.model()
        walls, _ = cached_walls(args.cls, cfg, model, err)
        report = chamber_decomposition(args.cls, walls, cfg.window, model)
        doc = chamber_report_to_json(report)
        if fmt == "json":
            out.write(dumps(doc))
        else:
            out.write(f"kind={doc['kind']} chambers={len(doc['chambers'])}\n")
            for ch in doc["chambers"]:
                out.write(
                    f"  [{ch['index']}] {ch['kind']} bounds={ch['bounds']} "
                    f"meets_window={str(ch['meets_window']).lower()} "
                    f"sample={ch['sample'][0]},{ch['sample'][1]} "
                    f"region={ch['region']}\n"
                )
    elif cmd == "ray":
        line = ray_line(args.cls, args.alpha)
        _print_value(f"{line.A},{line.B},{line.C}", fmt, out,
                     {"line": list(line.as_tuple())})
    elif cmd == "feasible":
        verdict = bogomolov_verdict(args.cls, cfg.genus)
        _print_value(verdict.value, fmt, out, {"verdict": verdict.value})
    elif cmd == "classify":
        lifts = (None, None, None)
        if args.lifts:
            parts = args.lifts.split(",")
            if len(parts) != 3:
                raise CswallsError("lifts must be phi1,phi2,phi3")
            lifts = tuple(
                None if p == "-" else parse_finite(p) for p in parts
            )
        flags = frozenset(f for f in args.flags.split(",") if f)
        data = ChargeData(
            _parse_complex(args.z1), _parse_complex(args.z2),
            _parse_complex(args.z3), lifts, flags, cfg.tol,
        )
        result = full_classification(data, cfg.model(), cfg.tol)
        doc = result.to_json()
        if fmt == "json":
            out.write(dumps(doc))
        else:
            type_b = doc["typeB"]
            out.write(f"in_UA: {doc['in_UA']}\n")
            out.write(f"in_UB: {doc['in_UB']}\n")
            if type_b is not None:
                out.write(
                    f"typeB: point={type_b['point'][0]},"
                    f"{type_b['point'][1]} region={type_b['region']}\n"
                )
            out.write(f"second_branch: {doc['second_branch']}\n")
            for note in doc["notes"]:
                out.write(f"note: {note}\n")
    elif cmd == "glue":
        el = gluing_presentation(args.point)
        doc = gl_element_to_json(el)
        doc["f0"] = el.lift_at_zero()
        if fmt == "json":
            out.write(dumps(doc))
        else:
            m = doc["m"]
            out.write(
                f"M=[[{m[0][0]},{m[0][1]}],[{m[1][0]},{m[1][1]}]] "
                f"winding={doc['winding']} f0={doc['f0']!r}\n"
            )
    elif cmd == "plot":
        model = cfg.model()
        walls, _ = cached_walls(args.cls, cfg, model, err)
        render_svg(walls, cfg.window, args.out, model=model, owner=args.cls)
    else:  # pragma: no cover - argparse restricts the choices
        raise CswallsError(f"unknown command {cmd}")
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
