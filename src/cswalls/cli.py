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
    classification_to_json,
    complex_to_json,
    dumps,
    gl_element_to_json,
    model_to_json,
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

#: the JSON type each CSWALLS_CONFIG value must have (null leaves it unset)
_CONFIG_TYPES = {"genus": "integer", "model": "string", "window": "string",
                 "rank_bound": "integer", "tol": "number", "format": "string",
                 "cache_dir": "string"}
_JSON_TYPES = {"integer": int, "number": (int, float), "string": str}

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


def parse_lifts(text: str) -> tuple:
    """Three phase lifts phi1,phi2,phi3, each a float or '-' for unknown;
    a wrong count, NaN or an infinity is a usage error."""
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"lifts must be phi1,phi2,phi3, got {text!r}")
    lifts = tuple(None if p == "-" else float(p) for p in parts)
    if not all(x is None or math.isfinite(x) for x in lifts):
        raise argparse.ArgumentTypeError(
            f"lifts must be finite numbers, got {text!r}")
    return lifts


def parse_rats(text: str, count: int = 2) -> tuple:
    """`count` comma-separated rationals (a point b,w or a complex value
    re,im by default); a wrong count or a malformed one is a usage error."""
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(
            f"expected {count} comma-separated rationals, got {text!r}")
    return tuple(parse_rat(p) for p in parts)


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
    for name, value in doc.items():
        kind = _CONFIG_TYPES[name]
        if value is not None and (isinstance(value, bool) or
                                  not isinstance(value, _JSON_TYPES[kind])):
            raise ValueError(f"{CONFIG_ENV} value {name!r} must be a JSON "
                             f"{kind}, got {json.dumps(value)}")
    return doc


def resolve_config(args, environ) -> Config:
    file_cfg = _load_config_file(environ)

    def pick(name, flag_value):
        if flag_value is not None:
            return flag_value
        if name in file_cfg and file_cfg[name] is not None:
            return file_cfg[name]
        return DEFAULTS[name]

    genus = pick("genus", args.genus)
    model_name = pick("model", args.model)
    window = Window(*parse_rats(pick("window", args.window), 4))
    rank_bound = pick("rank_bound", args.rank_bound)
    tol = float(pick("tol", args.tol))
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite positive number, got {tol}")
    fmt = pick("format", args.format)
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
        # the model document as a string, as cache entries have held it
        "model": json.dumps(model_to_json(model), sort_keys=True,
                            separators=(",", ":")),
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


def _num_text(x) -> str:
    return "inf" if x == math.inf else unrat(x)


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
                    _num_text(w.nu_value),
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
        out.write(
            f"{w.line.A}*b + {w.line.B}*w = {w.line.C}  "
            f"nu={_num_text(w.nu_value)}  "
            f"segment [{unrat(w.segment[0].b)},{unrat(w.segment[0].w)}]"
            f"..[{unrat(w.segment[1].b)},{unrat(w.segment[1].w)}]  "
            f"q={verdicts['q_nonneg'].value}"
            f" feas={verdicts['feasibility'].value}"
            f" region={verdicts['region'].value}  "
            f"witnesses {';'.join(_triple_text(d) for d in w.destabilizers)}\n"
        )


# --- commands ----------------------------------------------------------------


def _answer(key: str, value) -> tuple:
    """(text, document) of a one-value answer; a tuple prints as one
    comma-separated row and encodes as a JSON array."""
    if isinstance(value, tuple):
        return ",".join(map(str, value)), {key: value}
    return str(value), {key: value}


def _bn(a, cfg, *_):
    model = cfg.model()
    at, lo, hi = (unrat(x) for x in (a.at, model.lower(a.at),
                                     model.upper(a.at)))
    text = (f"model={model.name} genus={cfg.genus} "
            f"exact={str(model.exact).lower()} "
            f"lower({at})={lo} upper({at})={hi}")
    return text, {"model": model.name, "genus": cfg.genus,
                  "exact": model.exact, "at": at, "lower": lo, "upper": hi}


def _region(a, cfg, *_):
    uc = region_uc(a.point, cfg.model())
    uf = region_uf(a.point, cfg.genus) if cfg.genus >= 4 else None
    uf_text = "n/a" if uf is None else str(uf).lower()
    return f"UC: {uc.value}\nUf: {uf_text}", {"uc": uc.value, "uf": uf}


def _charge(a, *_):
    z = central_charge(a.cls, PlanePoint(*a.point))
    return str(z), {"charge": complex_to_json(z)}


def _walls(a, cfg, out, err):
    walls, docs = cached_walls(a.cls, cfg, cfg.model(), err)
    render_walls(walls, cfg.format, out, docs)


def _chambers(a, cfg, out, err):
    model = cfg.model()
    walls, _ = cached_walls(a.cls, cfg, model, err)
    doc = chamber_report_to_json(
        chamber_decomposition(a.cls, walls, cfg.window, model))
    lines = [f"kind={doc['kind']} chambers={len(doc['chambers'])}"]
    lines += [
        f"  [{ch['index']}] {ch['kind']} bounds={ch['bounds']} "
        f"meets_window={str(ch['meets_window']).lower()} "
        f"sample={ch['sample'][0]},{ch['sample'][1]} region={ch['region']}"
        for ch in doc["chambers"]
    ]
    return "\n".join(lines), doc


def _classify(a, cfg, *_):
    flags = frozenset(f for f in a.flags.split(",") if f)
    z1, z2, z3 = (ComplexRational(*z) for z in (a.z1, a.z2, a.z3))
    data = ChargeData(z1, z2, z3, a.lifts, flags, cfg.tol)
    result = full_classification(data, cfg.model(), cfg.tol)
    doc = classification_to_json(result)
    lines = [f"in_UA: {doc['in_UA']}", f"in_UB: {doc['in_UB']}"]
    type_b = doc["typeB"]
    if type_b is not None:
        lines.append(f"typeB: point={type_b['point'][0]},{type_b['point'][1]}"
                     f" region={type_b['region']}")
    lines.append(f"second_branch: {doc['second_branch']}")
    lines += [f"note: {note}" for note in doc["notes"]]
    return "\n".join(lines), doc


def _glue(a, *_):
    el = gluing_presentation(PlanePoint(*a.point))
    doc = gl_element_to_json(el)
    doc["f0"] = el.lift_at_zero()
    m = doc["m"]
    return (f"M=[[{m[0][0]},{m[0][1]}],[{m[1][0]},{m[1][1]}]] "
            f"winding={doc['winding']} f0={doc['f0']!r}"), doc


def _plot(a, cfg, out, err):
    model = cfg.model()
    walls, _ = cached_walls(a.cls, cfg, model, err)
    render_svg(walls, cfg.window, a.out, model=model, owner=a.cls)


def _required(flag: str, parse=None, **kw) -> tuple:
    return flag, dict(required=True, type=parse, **kw)


_CLASS = _required("--class", parse_class, dest="cls")
_POINT = _required("--point", parse_rats)
_ALPHA = _required("--alpha", parse_rat)

#: name -> (help, arguments as (flag, `add_argument` keywords), handler).
#: A handler takes (args, config, stdout, stderr) and returns its answer
#: as (text, JSON document), or writes its own output and returns None.
COMMANDS = {
    "euler": ("Euler pairing of two classes",
              [_required("--v1", parse_class), _required("--v2", parse_class)],
              lambda a, cfg, *_: _answer("euler",
                                         euler(a.v1, a.v2, cfg.genus))),
    "serre": ("numerical Serre functor on a class", [_CLASS],
              lambda a, cfg, *_: _answer(
                  "class", serre_class(a.cls, cfg.genus).as_tuple())),
    "dual": ("numerical dual functor on a class", [_CLASS],
             lambda a, *_: _answer("class", dual_class(a.cls).as_tuple())),
    "mutate": ("left mutation through an exceptional class",
               [_required("--e", parse_class), _CLASS],
               lambda a, cfg, *_: _answer(
                   "class", mutate_left(a.e, a.cls, cfg.genus).as_tuple())),
    "project": ("projection (d/r, n/r) of a class", [_CLASS],
                lambda a, *_: _answer("point",
                                      tuple(map(unrat, project(a.cls))))),
    "bn": ("envelope values of the active model at a point",
           [_required("--at", parse_rat)], _bn),
    "region": ("membership verdicts for a point", [_POINT], _region),
    "charge": ("central charge of a class at a point", [_CLASS, _POINT],
               _charge),
    "nu": ("slice slope of a class at a point", [_CLASS, _POINT],
           lambda a, *_: _answer(
               "nu", _num_text(nu(a.cls, PlanePoint(*a.point))))),
    "mualpha": ("classical slope of a class", [_CLASS, _ALPHA],
                lambda a, *_: _answer(
                    "mu_alpha", _num_text(mu_alpha(a.cls, a.alpha)))),
    "walls": ("enumerate walls of a class", [_CLASS], _walls),
    "chambers": ("chamber decomposition of a class", [_CLASS], _chambers),
    "ray": ("large-volume ray line of a class", [_CLASS, _ALPHA],
            lambda a, *_: _answer("line",
                                  ray_line(a.cls, a.alpha).as_tuple())),
    "feasible": ("Bogomolov-type feasibility verdict", [_CLASS],
                 lambda a, cfg, *_: _answer(
                     "verdict", bogomolov_verdict(a.cls, cfg.genus).value)),
    "classify": ("classify charge data into regions",
                 [_required("--z1", parse_rats, help="re,im (rationals)"),
                  _required("--z2", parse_rats), _required("--z3", parse_rats),
                  ("--lifts", dict(
                      type=parse_lifts, default=(None, None, None),
                      help="phi1,phi2,phi3 (floats, '-' for unknown)")),
                  ("--flags", dict(
                      default="", help="comma list from stable_O0,stable_pt,"
                                       "stable_sheafO,stable_OO"))],
                 _classify),
    "glue": ("gluing presentation of a slice point with b<0", [_POINT], _glue),
    "plot": ("render walls of a class to SVG",
             [_CLASS, _required("--out")], _plot),
}


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
    for name, (help_text, arguments, _) in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], streams=streams,
                           help=help_text)
        for flag, kw in arguments:
            p.add_argument(flag, **kw)
    return parser


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
        answer = COMMANDS[args.command][2](args, cfg, stdout, stderr)
        if answer is not None:
            text, doc = answer
            stdout.write(dumps(doc) if cfg.format == "json" else text + "\n")
    except CswallsError as exc:
        print(f"error: {exc}", file=stderr)
        return 1
    except (ValueError, ZeroDivisionError, argparse.ArgumentTypeError) as exc:
        print(f"usage error: {exc}", file=stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
