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
from .envelopes import (INTEGER, BNModel, make_model, model_from_json, rat,
                        region_uc, region_uf)
from .errors import CswallsError, DomainError, GenusOutOfRange
from .jsonio import (
    BOOLEANS,
    classification_to_json,
    complex_to_json,
    dumps,
    dumps_chamber_report,
    dumps_wall_records,
    gl_element_to_json,
    records_from_rows,
    slope_text,
    unrat,
    wall_rows,
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

FORMATS = ("json", "csv", "text")

#: a decimal as --tol and each --lifts part take it: an optional sign,
#: ASCII digits with an optional point (at least one digit), and an
#: optional exponent
DECIMAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


def parse_int(text: str) -> int:
    """An integer setting (--genus, --rank-bound): `envelopes.INTEGER`, an
    optional sign and ASCII digits."""
    if INTEGER.fullmatch(text) is None:
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


# argparse names a `type=` callback in its message for a value it refuses:
# "invalid int value: 'x'", as for `type=int`
parse_int.__name__ = "int"


def parse_decimal(text: str) -> float:
    """A finite float written in the `DECIMAL` grammar; anything else, NaN
    and an infinity included, is a usage error."""
    if DECIMAL.fullmatch(text) and math.isfinite(float(text)):
        return float(text)
    raise argparse.ArgumentTypeError(
        f"expected a finite decimal number, got {text!r}")


#: name -> (default, the JSON type a CSWALLS_CONFIG value must have, the
#: `add_argument` keywords of its flag --<name with dashes>).  A setting
#: no flag gives takes its file value, else its default; a null file
#: value leaves it unset.
SETTINGS = {
    "genus": (2, "integer", dict(type=parse_int)),
    "model": ("general", "string",
              dict(help="general | mercat | elliptic | user:<path>")),
    "window": ("-4,4,1/4,8", "string",
               dict(help="bmin,bmax,wmin,wmax (rationals)")),
    "rank_bound": (3, "integer", dict(type=parse_int)),
    "tol": (1e-9, "number", dict(type=parse_decimal)),
    "format": ("text", "string", dict(choices=FORMATS)),
    "cache_dir": (None, "string", {}),
}

CONFIG_ENV = "CSWALLS_CONFIG"
_JSON_TYPES = {"integer": int, "number": (int, float), "string": str}

# let argparse treat tokens like "-3,3,1/2,6", "-,0.5,-" or "-.5,1,-" as
# option values: no flag starts with "-" and a digit, "." or ","
_NEGATIVE_VALUE = re.compile(r"^-[\d.,]")
#: setting name -> its flag
_FLAGS = {name: "--" + name.replace("_", "-") for name in SETTINGS}


#: what reading a JSON file can raise: OSError, ValueError (a byte that is
#: not UTF-8, JSONDecodeError, json's refusal of an integer of more than
#: 4,300 digits) and RecursionError (nesting too deep for the decoder)
_JSON_READ_ERRORS = (OSError, ValueError, RecursionError)


def _read_json(path: str):
    """The document in the UTF-8 JSON file at `path`; raises one of
    `_JSON_READ_ERRORS` when there is none."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_model(args) -> BNModel:
    """The envelope model that the resolved settings `args` name."""
    if args.model.startswith("user:"):
        path = args.model[5:]
        try:
            doc = _read_json(path)
        except _JSON_READ_ERRORS as exc:
            raise CswallsError(f"cannot load user model {path}: {exc}")
        return model_from_json(doc, args.genus)
    return make_model(args.model, args.genus)


def parse_class(text: str) -> NumClass:
    """A class r,d,n, each part an optional sign and ASCII digits."""
    parts = text.split(",")
    if len(parts) != 3 or not all(map(INTEGER.fullmatch, parts)):
        raise ValueError(f"a class is r,d,n; got {text!r}")
    return NumClass(*map(int, parts))


def parse_rat(text: str):
    """A rational argument; a malformed one is a usage error (argparse
    reports it from a `type=` callback, `run` after parsing)."""
    try:
        return rat(text)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def parse_lifts(text: str) -> tuple:
    """Three phase lifts phi1,phi2,phi3, each a `parse_decimal` float or
    '-' for unknown; a wrong count or a bad lift is a usage error."""
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"lifts must be phi1,phi2,phi3, got {text!r}")
    return tuple(None if p == "-" else parse_decimal(p) for p in parts)


def parse_rats(text: str, count: int = 2) -> tuple:
    """`count` comma-separated rationals (a point b,w or a complex value
    re,im by default); a wrong count or a malformed one is a usage error."""
    parts = text.split(",")
    if len(parts) != count:
        raise ValueError(
            f"expected {count} comma-separated rationals, got {text!r}")
    return tuple(parse_rat(p) for p in parts)


def _load_config_file(environ) -> dict:
    """The settings in the file CSWALLS_CONFIG names, or {} when unset.
    A file that cannot be read, is not a JSON object or has an unknown key
    is a domain error (exit 1); a value of the wrong JSON type is a usage
    error (exit 2)."""
    path = environ.get(CONFIG_ENV)
    if not path:
        return {}
    try:
        doc = _read_json(path)
    except _JSON_READ_ERRORS as exc:
        raise CswallsError(f"cannot read {CONFIG_ENV} file {path}: {exc}")
    if not isinstance(doc, dict):
        raise CswallsError(f"{CONFIG_ENV} file must hold a JSON object")
    unknown = set(doc) - set(SETTINGS)
    if unknown:
        raise CswallsError(f"unknown config keys {sorted(unknown)}")
    for name, value in doc.items():
        kind = SETTINGS[name][1]
        if value is not None and (isinstance(value, bool) or
                                  not isinstance(value, _JSON_TYPES[kind])):
            raise ValueError(f"{CONFIG_ENV} value {name!r} must be a JSON "
                             f"{kind}, got {json.dumps(value)}")
    return doc


def resolve_config(args, environ) -> None:
    """Give every setting no flag set its file value, else its default,
    in the namespace `args`; parse the window and check the settings."""
    file_cfg = _load_config_file(environ)
    for name, (default, _, _) in SETTINGS.items():
        if getattr(args, name) is None:
            value = file_cfg.get(name)
            setattr(args, name, default if value is None else value)
    args.window = Window(*parse_rats(args.window, 4))
    try:
        tol = args.tol = float(args.tol)
    except OverflowError:  # a JSON integer beyond the float range
        raise ValueError("tol must be a finite positive number, got an "
                         "integer beyond the float range") from None
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be a finite positive number, got {tol}")
    if args.format not in FORMATS:
        raise CswallsError(f"unknown format {args.format!r}")
    if args.genus < 1:
        raise GenusOutOfRange(f"genus must be >= 1, got {args.genus}")
    if args.model == "mercat" and args.genus <= 3:
        raise GenusOutOfRange("the mercat model needs genus >= 4")
    if args.model == "elliptic" and args.genus != 1:
        raise GenusOutOfRange("the elliptic model needs genus 1")
    if args.rank_bound < 0:
        raise CswallsError(f"rank_bound must be >= 0, got {args.rank_bound}")


# --- wall cache -----------------------------------------------------------


def _cache_key(v: NumClass, args, model: BNModel) -> dict:
    win = args.window
    return {
        "class": list(v.as_tuple()),
        "genus": args.genus,
        "window": [unrat(x) for x in (win.b_min, win.b_max, win.w_min,
                                      win.w_max)],
        "rank_bound": args.rank_bound,
        "model": model.key_text,
        "version": __version__,
    }


def cached_walls(v: NumClass, args, model: BNModel, stderr) -> list:
    """The wall records of v that `enumerate_walls` writes: rebuilt from
    the cache entry's rows when `records_from_rows` accepts them, else
    enumerated (and written to a new entry as rows when a cache directory
    is set)."""
    key = _cache_key(v, args, model)
    entry_path = None
    if args.cache_dir:
        digest = hashlib.sha256(
            json.dumps(key, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()
        entry_path = os.path.join(args.cache_dir, f"{digest}.json")
        try:
            doc = _read_json(entry_path)
        except _JSON_READ_ERRORS:
            doc = None  # unreadable entries are recomputed
        # so are mismatched ones and any row enumerate_walls cannot write
        if isinstance(doc, dict) and doc.get("key") == key:
            records = records_from_rows(doc.get("walls"), v)
            if records is not None:
                return records
    records = enumerate_walls(v, args.genus, args.window, args.rank_bound,
                              model)
    if entry_path is not None:
        tmp = None
        try:
            os.makedirs(args.cache_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=args.cache_dir, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                # json.dumps (not json.dump) runs the C encoder
                fh.write(json.dumps(
                    {"key": key, "walls": wall_rows(records)},
                    sort_keys=True, separators=(",", ":")))
            os.replace(tmp, entry_path)
        except OSError as exc:
            print(f"warning: cache write failed: {exc}", file=stderr)
            if tmp is not None:  # the write or the replace failed
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
    return records


# --- renderers -------------------------------------------------------------


def render_walls(records, fmt: str, out) -> None:
    """Write walls, given as their `enumerate_walls` records, in `fmt`."""
    if fmt == "json":
        out.write(dumps_wall_records(records))
        return
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(
            ["owner", "line_A", "line_B", "line_C", "nu", "seg_b0",
             "seg_w0", "seg_b1", "seg_w1", "im_positive", "q_nonneg",
             "feasibility", "region", "destabilizers"]
        )
    for rec in records:
        a, b, c = rec["line"]
        (b0, w0), (b1, w1) = rec["segment"]
        checks = rec["verdicts"]
        witnesses = ";".join(["%d,%d,%d" % tuple(d)
                              for d in rec["destabilizers"]])
        if fmt == "csv":
            writer.writerow(
                ["%d,%d,%d" % tuple(rec["owner"]), a, b, c, rec["nu"],
                 b0, w0, b1, w1, checks["im_positive"], checks["q_nonneg"],
                 checks["feasibility"], checks["region"], witnesses]
            )
        else:
            out.write(
                f"{a}*b + {b}*w = {c}  nu={rec['nu']}  "
                f"segment [{b0},{w0}]..[{b1},{w1}]  q={checks['q_nonneg']}"
                f" feas={checks['feasibility']} region={checks['region']}  "
                f"witnesses {witnesses}\n"
            )


# --- commands ----------------------------------------------------------------


def _answer(key: str, value) -> tuple:
    """(text, document) of a one-value answer; a tuple prints as one
    comma-separated row and encodes as a JSON array."""
    if isinstance(value, tuple):
        return ",".join(map(str, value)), {key: value}
    return str(value), {key: value}


def _bn(a, *_):
    model = load_model(a)
    at, lo, hi = (unrat(x) for x in (a.at, model.lower(a.at),
                                     model.upper(a.at)))
    text = (f"model={model.name} genus={a.genus} "
            f"exact={str(model.exact).lower()} "
            f"lower({at})={lo} upper({at})={hi}")
    return text, {"model": model.name, "genus": a.genus,
                  "exact": model.exact, "at": at, "lower": lo, "upper": hi}


def _region(a, *_):
    uc = region_uc(a.point, load_model(a))
    uf = region_uf(a.point, a.genus) if a.genus >= 4 else None
    uf_text = "n/a" if uf is None else str(uf).lower()
    return f"UC: {uc.value}\nUf: {uf_text}", {"uc": uc.value, "uf": uf}


def _charge(a, *_):
    z = central_charge(a.cls, PlanePoint(*a.point))
    return str(z), {"charge": complex_to_json(z)}


def _walls(a, out, err):
    render_walls(cached_walls(a.cls, a, load_model(a), err), a.format, out)


def _chambers(a, out, err):
    model = load_model(a)
    rep = chamber_decomposition(a.cls, cached_walls(a.cls, a, model, err),
                                a.window, model)
    if a.format == "json":
        out.write(dumps_chamber_report(rep))
        return
    lines = [f"kind={rep.kind} chambers={len(rep.chambers)}"]
    lines += [
        f"  [{ch['index']}] {ch['kind']} bounds={ch['bounds']} "
        f"meets_window={BOOLEANS[ch['meets_window']]} "
        f"sample={ch['sample'][0]},{ch['sample'][1]} region={ch['region']}"
        for ch in rep.chambers
    ]
    out.write("\n".join(lines) + "\n")


def _classify(a, *_):
    flags = frozenset(f for f in a.flags.split(",") if f)
    z1, z2, z3 = (ComplexRational(*z) for z in (a.z1, a.z2, a.z3))
    data = ChargeData(z1, z2, z3, a.lifts, flags, a.tol)
    result = full_classification(data, load_model(a))
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


def _plot(a, out, err):
    model = load_model(a)
    render_svg(cached_walls(a.cls, a, model, err), a.window, a.out,
               model=model, owner=a.cls)


def _required(flag: str, parse=None, **kw) -> tuple:
    return flag, dict(required=True, type=parse, **kw)


_CLASS = _required("--class", parse_class, dest="cls")
_POINT = _required("--point", parse_rats)
_ALPHA = _required("--alpha", parse_rat)

#: name -> (help, arguments as (flag, `add_argument` keywords), handler).
#: A handler takes (args, stdout, stderr), `args` holding the settings too,
#: and returns its answer as (text, JSON document), or writes its own
#: output and returns None.
COMMANDS = {
    "euler": ("Euler pairing of two classes",
              [_required("--v1", parse_class), _required("--v2", parse_class)],
              lambda a, *_: _answer("euler", euler(a.v1, a.v2, a.genus))),
    "serre": ("numerical Serre functor on a class", [_CLASS],
              lambda a, *_: _answer(
                  "class", serre_class(a.cls, a.genus).as_tuple())),
    "dual": ("numerical dual functor on a class", [_CLASS],
             lambda a, *_: _answer("class", dual_class(a.cls).as_tuple())),
    "mutate": ("left mutation through an exceptional class",
               [_required("--e", parse_class), _CLASS],
               lambda a, *_: _answer(
                   "class", mutate_left(a.e, a.cls, a.genus).as_tuple())),
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
               "nu", slope_text(nu(a.cls, PlanePoint(*a.point))))),
    "mualpha": ("classical slope of a class", [_CLASS, _ALPHA],
                lambda a, *_: _answer(
                    "mu_alpha", slope_text(mu_alpha(a.cls, a.alpha)))),
    "walls": ("enumerate walls of a class", [_CLASS], _walls),
    "chambers": ("chamber decomposition of a class", [_CLASS], _chambers),
    "ray": ("large-volume ray line of a class", [_CLASS, _ALPHA],
            lambda a, *_: _answer("line", ray_line(a.cls, a.alpha))),
    "feasible": ("Bogomolov-type feasibility verdict", [_CLASS],
                 lambda a, *_: _answer(
                     "verdict", bogomolov_verdict(a.cls, a.genus).value)),
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


def build_parser(streams=None, only=None) -> argparse.ArgumentParser:
    """The cswalls parser; with only the sub-parser of command `only`."""
    parser = _Parser(prog="cswalls", description=__doc__, streams=streams)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND",
                                parser_class=_Parser)
    commands = COMMANDS if only is None else {only: COMMANDS[only]}
    for name, (help_text, arguments, _) in commands.items():
        p = sub.add_parser(name, streams=streams, help=help_text)
        for setting, (_, _, kw) in SETTINGS.items():
            # None marks a setting no flag gave, for `resolve_config` to fill
            p.add_argument(_FLAGS[setting], dest=setting, default=None, **kw)
        for flag, kw in arguments:
            p.add_argument(flag, **kw)
    return parser


def run(argv, stdout=None, stderr=None, environ=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    environ = environ if environ is not None else os.environ
    # help, version, usage and unknown-command text need every sub-parser
    only = argv[0] if argv and argv[0] in COMMANDS else None
    parser = build_parser((stdout, stderr), only)
    try:
        # a setting flag (or a prefix of one, as argparse allows) before
        # the command would be reported as an invalid command name
        flag = argv[0].partition("=")[0] if argv else ""
        if len(flag) > 2 and any(f.startswith(flag) for f in _FLAGS.values()):
            parser.error(f"{flag} must follow the command name "
                         f"(cswalls COMMAND {flag} ...)")
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    if args.command is None:
        parser.print_usage(stderr)
        return 2
    try:
        resolve_config(args, environ)
        answer = COMMANDS[args.command][2](args, stdout, stderr)
        if answer is not None:
            text, doc = answer
            stdout.write(dumps(doc) if args.format == "json" else text + "\n")
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
