import hashlib
import io
import json
import sys
import xml.etree.ElementTree as ET
from fractions import Fraction as F

import pytest

from cswalls.cli import run
from cswalls.jsonio import walls_from_json, walls_to_json


def invoke(argv, environ=None):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, stdout=out, stderr=err, environ=environ or {})
    return code, out.getvalue(), err.getvalue()


def test_euler_example():
    code, out, err = invoke(["euler", "--genus", "2", "--v1", "0,0,1",
                             "--v2", "1,0,0"])
    assert (code, out) == (0, "1\n")


def test_serre_example():
    code, out, _ = invoke(["serre", "--genus", "2", "--class", "0,0,1"])
    assert (code, out) == (0, "1,2,2\n")


def test_dual_mutate_project():
    assert invoke(["dual", "--class", "2,3,1"])[1] == "-1,3,1\n"
    assert invoke(["mutate", "--e", "0,0,1", "--class", "2,3,1",
                   "--genus", "3"])[1] == "2,3,-1\n"
    assert invoke(["project", "--class", "2,3,1"])[1] == "3/2,1/2\n"


def test_bn_region_charge_nu_mualpha_ray_feasible():
    code, out, _ = invoke(["bn", "--at", "1", "--genus", "2"])
    assert code == 0 and "lower(1)=0" in out and "upper(1)=3/2" in out
    code, out, _ = invoke(["region", "--point=-1,1", "--genus", "4"])
    assert "UC: In" in out and "Uf: false" in out
    code, out, _ = invoke(["region", "--point", "1,2", "--genus", "5"])
    assert "Uf: true" in out
    assert invoke(["charge", "--class", "1,0,0", "--point=-2,3"])[1] == "3+2i\n"
    assert invoke(["nu", "--class", "2,3,1", "--point", "0,2"])[1] == "-1\n"
    assert invoke(["nu", "--class", "1,2,5", "--point", "2,9"])[1] == "inf\n"
    assert invoke(["mualpha", "--class", "2,3,1", "--alpha", "2"])[1] == "5/2\n"
    assert invoke(["ray", "--class", "2,3,1", "--alpha", "1"])[1] == "1,1,2\n"
    assert invoke(["feasible", "--class", "1,1,3", "--genus", "5"])[1] == "Excluded\n"


def test_exit_codes():
    code, _, err = invoke(["project", "--class", "0,1,0"])
    assert code == 1 and "error:" in err
    code, _, _ = invoke(["euler", "--v1", "1,2", "--v2", "0,0,1"])
    assert code == 2
    code, _, _ = invoke(["unknown-cmd"])
    assert code == 2
    code, _, _ = invoke([])
    assert code == 2
    # mercat model rejected at parse time for small genus
    code, _, err = invoke(["bn", "--at", "1", "--genus", "2",
                           "--model", "mercat"])
    assert code == 1 and "mercat" in err


@pytest.mark.parametrize("model", ["nope", "user", "Mercat"])
def test_an_unknown_model_name_is_refused_by_every_command(model):
    # euler reads no model, yet a name that is not built in is refused
    code, out, err = invoke(["euler", "--v1", "1,0,0", "--v2", "0,0,1",
                             "--model", model])
    assert (code, out) == (1, "") and "error:" in err


WALL_ARGS = ["walls", "--class", "2,3,1", "--genus", "2",
             "--window", "-3,3,1/2,6", "--rank-bound", "3"]


def test_walls_json_round_trip():
    code, out, _ = invoke(WALL_ARGS + ["--format", "json"])
    assert code == 0
    docs = json.loads(out)
    assert isinstance(docs, list) and docs
    walls = walls_from_json(docs)
    assert walls_to_json(walls) == docs
    text = json.dumps(walls_to_json(walls), sort_keys=True, indent=2) + "\n"
    assert text == out


def test_walls_byte_determinism():
    a = invoke(WALL_ARGS + ["--format", "json"])
    b = invoke(WALL_ARGS + ["--format", "json"])
    assert a == b
    c = invoke(WALL_ARGS + ["--format", "csv"])
    d = invoke(WALL_ARGS + ["--format", "csv"])
    assert c == d


def test_walls_csv_shape():
    code, out, _ = invoke(WALL_ARGS + ["--format", "csv"])
    lines = out.strip().split("\n")
    header = lines[0].split(",")
    assert header[:5] == ["owner", "line_A", "line_B", "line_C", "nu"]
    assert len(lines) > 1
    assert lines[1].startswith('"2,3,1"')


def test_cache_equals_no_cache(tmp_path):
    cache = tmp_path / "cache"
    base = invoke(WALL_ARGS + ["--format", "json"])
    first = invoke(WALL_ARGS + ["--format", "json",
                                "--cache-dir", str(cache)])
    second = invoke(WALL_ARGS + ["--format", "json",
                                 "--cache-dir", str(cache)])
    assert base == first == second
    entries = list(cache.glob("*.json"))
    assert len(entries) == 1
    # corrupt entries are ignored and recomputed
    entries[0].write_text("{ not json")
    third = invoke(WALL_ARGS + ["--format", "json",
                                "--cache-dir", str(cache)])
    assert third == base
    # stale keys (other version/params) are ignored
    doc = json.loads(entries[0].read_text())
    doc["key"]["version"] = "0.0.0"
    entries[0].write_text(json.dumps(doc))
    fourth = invoke(WALL_ARGS + ["--format", "json",
                                 "--cache-dir", str(cache)])
    assert fourth == base


def test_cache_reads_indented_entries_and_writes_compact_ones(
        tmp_path, monkeypatch):
    import cswalls.cli as cli
    from cswalls.jsonio import dumps

    cache = tmp_path / "cache"
    base = invoke(WALL_ARGS + ["--format", "json"])
    assert invoke(WALL_ARGS + ["--format", "json",
                               "--cache-dir", str(cache)]) == base
    (entry,) = cache.glob("*.json")
    text = entry.read_text()
    doc = json.loads(text)
    # compact JSON with sorted keys, named by the digest of the compact key
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(json.dumps(
        doc["key"], sort_keys=True, separators=(",", ":")).encode())
    assert entry.name == digest.hexdigest() + ".json"
    # an entry in the older indented form is a hit, read without enumerating
    indented = dumps(doc)
    entry.write_text(indented)

    def must_not_enumerate(*args):
        raise AssertionError("enumerate_walls called on a cache hit")

    expected = {fmt: invoke(WALL_ARGS + ["--format", fmt])
                for fmt in ("csv", "text")}
    expected["json"] = base
    monkeypatch.setattr(cli, "enumerate_walls", must_not_enumerate)
    for fmt in ("json", "csv", "text"):
        assert invoke(WALL_ARGS + ["--format", fmt,
                                   "--cache-dir", str(cache)]) == expected[fmt]
    assert entry.read_text() == indented


CSV_HEADER = ("owner,line_A,line_B,line_C,nu,seg_b0,seg_w0,seg_b1,seg_w1,"
              "im_positive,q_nonneg,feasibility,region,destabilizers\n")


@pytest.mark.parametrize("fmt, expected", [
    ("text", ""), ("csv", CSV_HEADER), ("json", "[]\n")])
def test_walls_at_rank_bound_zero_print_no_rows(fmt, expected, tmp_path):
    argv = ["walls", "--class", "2,3,1", "--rank-bound", "0",
            "--format", fmt]
    cache = ["--cache-dir", str(tmp_path)]
    # without a cache, then cold and warm with one
    for extra in ([], cache, cache):
        assert invoke(argv + extra) == (0, expected, "")


def test_chambers_command():
    code, out, _ = invoke(["chambers", "--class", "2,3,1", "--genus", "2",
                           "--window", "-3,3,1/2,6", "--rank-bound", "2",
                           "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "pencil"
    assert doc["owner"] == [2, 3, 1]
    assert len(doc["chambers"]) >= 2


def test_classify_command():
    code, out, _ = invoke([
        "classify", "--z1=-1,0", "--z2", "0,1", "--z3", "3,2",
        "--lifts", "1,0.5,0.18716704181099878",
        "--flags", "stable_O0,stable_pt,stable_sheafO",
        "--genus", "4", "--format", "json",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["in_UA"] == "Yes" and doc["in_UB"] == "Yes"
    assert doc["typeB"] == {"point": ["-2", "3"], "region": "In"}


def test_glue_command():
    code, out, _ = invoke(["glue", "--point=-1,2", "--format", "json"])
    doc = json.loads(out)
    assert doc["m"] == [["1/2", "-1"], ["1/2", "0"]]
    assert doc["winding"] == 0
    assert doc["f0"] == pytest.approx(0.25)
    code, _, err = invoke(["glue", "--point", "1,2"])
    assert code == 1


def test_config_file_resolution(tmp_path):
    cfg = tmp_path / "conf.json"
    cfg.write_text(json.dumps({"genus": 5, "format": "json"}))
    env = {"CSWALLS_CONFIG": str(cfg)}
    code, out, _ = invoke(["euler", "--v1", "0,0,1", "--v2", "1,0,0"],
                          environ=env)
    assert code == 0
    assert json.loads(out) == {"euler": 4}  # g - 1 at g = 5
    # flags beat the file
    code, out, _ = invoke(["euler", "--v1", "0,0,1", "--v2", "1,0,0",
                           "--genus", "2", "--format", "text"], environ=env)
    assert out == "1\n"
    # unknown keys rejected
    cfg.write_text(json.dumps({"bogus": 1}))
    code, _, err = invoke(["euler", "--v1", "0,0,1", "--v2", "1,0,0"],
                          environ=env)
    assert code == 1 and "unknown config keys" in err



@pytest.mark.parametrize("content", [
    b'{"genus": 2, "model": "gen\xffral"}',
    b'{"genus": 1%s}' % (b"0" * 4300),
    b"[" * 200_000 + b"]" * 200_000,
], ids=["not-utf8", "integer-too-long", "nested-too-deep"])
def test_unreadable_config_file_is_a_domain_error(content, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    code, out, err = invoke(["euler", "--v1", "0,0,1", "--v2", "1,0,0"],
                            {"CSWALLS_CONFIG": str(cfg)})
    assert (code, out) == (1, "")
    assert f"cannot read CSWALLS_CONFIG file {cfg}" in err


#: per setting: a CSWALLS_CONFIG value and a flag value, neither the default
SETTING_VALUES = {
    "genus": (5, 3),
    "model": ("user:a.json", "user:b.json"),
    "window": ("-1,1,1,2", "0,2,1/2,3"),
    "rank_bound": (1, 2),
    "tol": (1e-6, 0.5),
    "format": ("json", "csv"),
    "cache_dir": ("a", "b"),
}


def _resolved(name, value):
    """`value` of setting `name` in the form `resolve_config` leaves it."""
    if name == "window":
        from cswalls.walls import Window
        return Window(*(F(x) for x in value.split(",")))
    return value


@pytest.mark.parametrize("name", sorted(SETTING_VALUES))
def test_config_file_resolution_per_setting(name, tmp_path):
    from cswalls.cli import SETTINGS, build_parser, resolve_config

    assert set(SETTING_VALUES) == set(SETTINGS)
    cfg = tmp_path / "conf.json"

    def resolve(doc, *argv):
        cfg.write_text(json.dumps(doc))
        args = build_parser().parse_args(["dual", "--class", "2,3,1", *argv])
        resolve_config(args, {"CSWALLS_CONFIG": str(cfg)})
        return getattr(args, name)

    file_value, flag_value = SETTING_VALUES[name]
    default = SETTINGS[name][0]
    flag = "--" + name.replace("_", "-")
    assert resolve({name: file_value}) == _resolved(name, file_value)
    assert resolve({name: file_value}, f"{flag}={flag_value}") == (
        _resolved(name, flag_value))
    assert resolve({name: None}) == _resolved(name, default)
    assert resolve({}) == _resolved(name, default)


def test_user_model_via_cli(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "lower": [["-1", "0", "0"], ["0", "1", "0"]],
        "upper": [["-1", "0", "0"], ["0", "1", "0"]],
        "exact": True,
    }))
    code, out, _ = invoke(["bn", "--at", "3", "--genus", "1",
                           "--model", f"user:{model}"])
    assert code == 0
    assert "exact=true" in out and "lower(3)=3" in out


@pytest.mark.parametrize("lower, exact", [
    ([["-1", "0", "0"], ["0", 0.1, "0"]], False),  # a float is inexact
    ([["-1", "0", "0"], ["0", "1/0", "0"]], False),
    ([["-1", "0", "0"], ["0", "1", "0"]], "false"),  # not a JSON boolean
    # outside the rational grammar: sign, digits, optional /digits
    ([["-1", "0", "0"], ["0", "1e5000", "0"]], False),
    ([["-1", "0", "0"], ["0", "1e3", "0"]], False),
    ([["-1", "0", "0"], ["0", "0.5", "0"]], False),
    ([["-1", "0", "0"], ["0", " 1", "0"]], False),
    ([["-1", "0", "0"], ["0", "1_0", "0"]], False),
    ([["-1", "0", "0"], ["0", "1/-2", "0"]], False),
], ids=["float", "zero-denominator", "string-exact", "huge-exponent",
        "exponent", "decimal", "space", "underscore", "signed-denominator"])
def test_user_model_rejects_inexact_or_mistyped_input(lower, exact, tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "lower": lower, "upper": [["-1", "0", "0"], ["0", "1", "0"]],
        "exact": exact,
    }))
    code, out, err = invoke(["bn", "--at", "1", "--genus", "1",
                             "--model", f"user:{model}"])
    assert (code, out) == (1, "") and "malformed user model" in err


def test_user_model_accepts_json_integers_and_signs(tmp_path):
    model = tmp_path / "model.json"
    model.write_text(json.dumps({
        "lower": [[-1, "+0", 0], [0, 1, "-0/7"]],
        "upper": [["-1", 0, 0], ["0", "2/2", 0]],
        "exact": True,
    }))
    code, out, _ = invoke(["bn", "--at", "3", "--genus", "1",
                           "--model", f"user:{model}"])
    assert code == 0 and "lower(3)=3 upper(3)=3" in out


def test_user_model_with_an_integer_too_long_for_json_is_a_load_error(
        tmp_path):
    # json refuses integers of more than 4,300 digits with a ValueError
    model = tmp_path / "model.json"
    model.write_text('{"lower": [[-1, 0, 0], [0, 1, %s]], "upper": '
                     '[[-1, 0, 0], [0, 1, 0]], "exact": false}'
                     % ("1" + "0" * 4300))
    code, out, err = invoke(["bn", "--at", "1", "--genus", "2",
                             "--model", f"user:{model}"])
    assert (code, out) == (1, "") and "cannot load user model" in err


def test_user_model_nested_too_deep_for_json_is_a_load_error(tmp_path):
    # json.load raises RecursionError on this
    model = tmp_path / "model.json"
    model.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = invoke(["bn", "--at", "1", "--genus", "2",
                             "--model", f"user:{model}"])
    assert (code, out) == (1, "") and "cannot load user model" in err


def test_user_model_file_is_read_again_on_every_run(tmp_path):
    # built-in models are built once per process; outside input is not
    model = tmp_path / "model.json"
    argv = ["bn", "--at", "1", "--genus", "2", "--model", f"user:{model}"]
    lower = [["0", "0", "0"], ["0", "0", "0"], ["1", "1", "0"]]

    def write(lower, upper_at_0):
        model.write_text(json.dumps({"lower": lower, "upper": [
            ["0", "0", "0"], ["0", "1/2", upper_at_0], ["2", "1", "1"]],
            "exact": False}))

    write(lower, "1")
    assert invoke(argv) == (0, "model=user genus=2 exact=false "
                               "lower(1)=0 upper(1)=3/2\n", "")
    write(lower, "2")
    assert invoke(argv) == (0, "model=user genus=2 exact=false "
                               "lower(1)=0 upper(1)=5/2\n", "")
    write([["0", "0", "0"], ["0", "0", "3"], ["2", "1", "1"]], "1")
    code, out, err = invoke(argv)
    assert (code, out) == (1, "") and "exceeds" in err


def test_tall_user_envelope_is_not_an_error(tmp_path):
    # upper = 10^4000 on [0, 2): a midpoint just left of 0 needs a delta
    # about 2^-13300 times its headroom
    path = tmp_path / "tall.json"
    path.write_text(json.dumps({
        "lower": JUMP_MODEL["lower"],
        "upper": [["0", "0", "0"], ["0", "0", "1" + "0" * 4000],
                  ["2", "1", "1"]],
        "exact": False,
    }))
    code, out, err = invoke(["walls", "--class", "2,3,1", "--rank-bound", "1",
                             "--genus", "2", "--model", f"user:{path}"])
    assert (code, err) == (0, "") and out


PLOT_ARGS = ["plot", "--class", "2,3,1", "--genus", "2",
             "--window", "-3,3,1/2,6", "--rank-bound", "3"]


def test_plot_svg_well_formed_and_invertible(tmp_path):
    out_path = tmp_path / "walls.svg"
    code, _, _ = invoke(PLOT_ARGS + ["--out", str(out_path)])
    assert code == 0
    text = out_path.read_text()
    root = ET.fromstring(text)  # well-formed XML
    assert root.tag.endswith("svg")

    code, json_out, _ = invoke(WALL_ARGS + ["--format", "json"])
    walls = walls_from_json(json.loads(json_out))
    lines = [w.line for w in walls]

    # documented affine map for window [-3,3]x[1/2,6]
    b_min, b_max, w_min, w_max = F(-3), F(3), F(1, 2), F(6)
    sx = F(500) / (b_max - b_min)
    sy = F(520) / (w_max - w_min)

    ns = "{http://www.w3.org/2000/svg}"
    polys = [el for el in root.iter(ns + "polyline")
             if el.get("stroke") == "#1f4fa0"]
    assert len(polys) == len(walls)
    for poly, line in zip(polys, lines):
        for pair in poly.get("points").split():
            x_txt, y_txt = pair.split(",")
            b = F(x_txt) / sx - F(60) / sx + b_min
            w = w_min + (F(560) - F(y_txt)) / sy
            residual = line[0] * b + line[1] * w - line[2]
            assert abs(residual) < F(1, 10**6)


def test_plot_byte_determinism(tmp_path):
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    invoke(PLOT_ARGS + ["--out", str(p1)])
    invoke(PLOT_ARGS + ["--out", str(p2)])
    assert p1.read_bytes() == p2.read_bytes()


def test_plot_empty_walls(tmp_path):
    out_path = tmp_path / "empty.svg"
    code, _, _ = invoke(["plot", "--class", "1,0,0", "--genus", "2",
                         "--window=-3,-1,1/2,6", "--rank-bound", "0",
                         "--out", str(out_path)])
    assert code == 0
    root = ET.fromstring(out_path.read_text())
    ns = "{http://www.w3.org/2000/svg}"
    polys = [el for el in root.iter(ns + "polyline")]
    # envelopes only, no wall polylines
    assert all(el.get("stroke") != "#1f4fa0" for el in polys)
    assert len(polys) >= 2


def test_svg_write_failure_raises_io_error(tmp_path):
    from cswalls.errors import IoError
    from cswalls.svg import render_svg
    from cswalls.walls import Window
    from fractions import Fraction

    win = Window(Fraction(-1), Fraction(1), Fraction(1), Fraction(2))
    with pytest.raises(IoError):
        render_svg([], win, str(tmp_path / "no" / "such" / "dir" / "x.svg"))
    # plot command surfaces it as exit code 1
    code, _, err = invoke(["plot", "--class", "2,3,1", "--genus", "2",
                           "--rank-bound", "0",
                           "--out", str(tmp_path / "nope" / "x.svg")])
    assert code == 1 and "cannot write SVG" in err


@pytest.mark.parametrize("other", ["owner", "records"])
def test_svg_refuses_walls_of_another_class(other):
    from cswalls.envelopes import make_model
    from cswalls.errors import DomainError
    from cswalls.lattice import NumClass
    from cswalls.svg import render_svg
    from cswalls.walls import Window, enumerate_walls

    model = make_model("general", 2)
    win = Window(-4, 4, 1, 8)
    records = enumerate_walls(NumClass(2, 3, 1), 2, win, 2, model)
    assert records
    if other == "owner":
        kwargs = {"owner": NumClass(1, 0, 0)}
    else:
        records = records + enumerate_walls(NumClass(1, 0, 0), 2, win, 2,
                                            model)
        kwargs = {}
    with pytest.raises(DomainError, match="several classes"):
        render_svg(records, win, None, model, **kwargs)


def test_failed_cache_write_leaves_no_temp_file(tmp_path, monkeypatch):
    import errno
    import os

    def replace(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    cache = tmp_path / "cache"
    base = invoke(WALL_ARGS + ["--format", "json"])
    monkeypatch.setattr(os, "replace", replace)
    code, out, err = invoke(WALL_ARGS + ["--format", "json",
                                         "--cache-dir", str(cache)])
    assert (code, out) == (0, base[1])
    assert "warning: cache write failed" in err
    assert list(cache.iterdir()) == []


def test_cache_entry_not_an_object_is_recomputed(tmp_path):
    cache = tmp_path / "cache"
    base = invoke(WALL_ARGS + ["--format", "json"])
    invoke(WALL_ARGS + ["--format", "json", "--cache-dir", str(cache)])
    (entry,) = cache.glob("*.json")
    good = entry.read_text()
    for text in ("[1,2]", "null", '"walls"', "3"):
        entry.write_text(text)
        again = invoke(WALL_ARGS + ["--format", "json",
                                    "--cache-dir", str(cache)])
        assert again == base
        assert entry.read_text() == good


#: one change each to the wall rows of a cache entry of MALFORMED_ARGS,
#: [line, witnesses, lo, hi, feasibility, im_positive, q_nonneg, region]
#: per wall, mostly to the first row.  When entries held the records
#: themselves, "segment-three-points" made `walls --format csv|text` exit
#: 2, and "line-doubled", "extra-key" and "records-reordered" were
#: printed by `walls --format json` as they stood.  The last ten are
#: rows of records that the enumerator never writes but that the record
#: check once accepted
MALFORMED = {
    "segment-three-points": lambda rows: rows[0].insert(4, rows[0][2]),
    "line-doubled": lambda rows: rows[0].__setitem__(
        0, [2 * x for x in rows[0][0]]),
    "extra-key": lambda rows: rows[0].append(1),
    "bad-rational": lambda rows: rows[0].__setitem__(
        2, [2 * x for x in rows[0][2]]),
    "line-zero-normal": lambda rows: rows[0].__setitem__(0, [0, 0, 1]),
    "verdict-missing": lambda rows: rows[0].pop(),
    "records-reordered": lambda rows: rows.reverse(),
    "record-repeated": lambda rows: rows.append(rows[-1]),
    "destabilizers-reordered": lambda rows: next(
        r for r in rows if len(r[1]) > 1)[1].reverse(),
    "destabilizers-empty": lambda rows: rows[0].__setitem__(1, []),
    "segment-reversed": lambda rows: rows[0].__setitem__(
        slice(2, 4), rows[0][3:1:-1]),
    "segment-one-point": lambda rows: rows[0].__setitem__(3, rows[0][2]),
    "line-vertical": lambda rows: rows[-1].__setitem__(0, [1, 0, 1]),
    # (0, 1, -4) on 8*b + 2*w = 13 replaced by (0, 1, 5), off that line
    "destabilizer-off-line": lambda rows: rows[0].__setitem__(
        1, [[0, 1, 5]]),
    # verdicts that are `Check` values but never the enumerator's: it
    # writes im_positive as Pass, q_nonneg and region as Pass or Unknown
    "im-positive-unknown": lambda rows: rows[0].__setitem__(5, "Unknown"),
    "q-nonneg-fail": lambda rows: rows[0].__setitem__(6, "Fail"),
    "region-fail": lambda rows: rows[0].__setitem__(7, "Fail"),
    # witnesses on the line that the search at rank bound 1 never yields:
    # the complement (2, 2, 5) of (0, 1, -4), of rank 2, and (0, 2, -8),
    # a rank-zero class that is not primitive
    "destabilizer-beyond-rank-bound": lambda rows: rows[0].__setitem__(
        1, [[0, 1, -4], [2, 2, 5]]),
    "destabilizer-not-primitive": lambda rows: rows[0].__setitem__(
        1, [[0, 2, -8]]),
}
MALFORMED_ARGS = ["--class", "2,3,1", "--genus", "2", "--window=-3,3,1/2,6",
                  "--rank-bound", "1"]
MALFORMED_COMMANDS = [["walls", "--format", "json"],
                      ["walls", "--format", "csv"],
                      ["walls", "--format", "text"],
                      ["chambers", "--format", "json"],
                      ["plot"]]


def _outputs(command, extra, tmp_path):
    """(exit code, stdout, stderr, the plot file's bytes or None)."""
    argv = command[:1] + MALFORMED_ARGS + command[1:] + extra
    svg = tmp_path / "walls.svg"
    if command[0] == "plot":
        argv += ["--out", str(svg)]
    got = invoke(argv)
    return got + (svg.read_bytes() if command[0] == "plot" else None,)


@pytest.mark.parametrize("mutation", sorted(MALFORMED))
def test_malformed_wall_records_are_recomputed(mutation, tmp_path):
    cache = tmp_path / "cache"
    extra = ["--cache-dir", str(cache)]
    expected = [_outputs(c, [], tmp_path) for c in MALFORMED_COMMANDS]
    assert all(got[0] == 0 for got in expected)
    assert _outputs(MALFORMED_COMMANDS[0], extra, tmp_path) == expected[0]
    (entry,) = cache.glob("*.json")
    good = entry.read_text()
    for command, want in zip(MALFORMED_COMMANDS, expected):
        doc = json.loads(entry.read_text())
        MALFORMED[mutation](doc["walls"])
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert text != entry.read_text()  # True == 1, but not as text
        entry.write_text(text)
        assert _outputs(command, extra, tmp_path) == want, command
        # the entry is rewritten with the rows of a fresh enumeration
        assert entry.read_text() == good


def test_cache_entry_of_whole_records_is_recomputed_and_rewritten_as_rows(
        tmp_path, monkeypatch):
    import cswalls.cli as cli

    cache = tmp_path / "cache"
    extra = ["--cache-dir", str(cache)]
    command = MALFORMED_COMMANDS[0]
    expected = _outputs(command, [], tmp_path)
    assert _outputs(command, extra, tmp_path) == expected
    (entry,) = cache.glob("*.json")
    good = entry.read_text()
    # the layout entries had before they held rows: the key and the
    # records that `walls --format json` prints
    doc = json.loads(good)
    doc["walls"] = json.loads(expected[1])
    entry.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    enumerated = []
    enumerate_walls = cli.enumerate_walls

    def counted(*args):
        enumerated.append(args[0])
        return enumerate_walls(*args)

    monkeypatch.setattr(cli, "enumerate_walls", counted)
    assert _outputs(command, extra, tmp_path) == expected
    assert len(enumerated) == 1 and entry.read_text() == good


def test_cache_entry_nested_too_deep_is_recomputed(tmp_path):
    cache = tmp_path / "cache"
    extra = ["--cache-dir", str(cache)]
    command = MALFORMED_COMMANDS[0]
    expected = _outputs(command, [], tmp_path)
    assert _outputs(command, extra, tmp_path) == expected
    (entry,) = cache.glob("*.json")
    good = entry.read_text()
    # json.load raises RecursionError on this
    depth = 100_000
    entry.write_text('{"walls": ' + "[" * depth + "]" * depth + "}")
    assert _outputs(command, extra, tmp_path) == expected
    assert entry.read_text() == good


@pytest.mark.parametrize("argv", [
    ["region", "--point", "1/0,1"],
    ["region", "--point", "1,x"],
    ["bn", "--at", "1/0"],
    ["mualpha", "--class", "2,3,1", "--alpha", "1/0"],
    ["ray", "--class", "2,3,1", "--alpha", "one"],
    ["glue", "--point=-1/0,2"],
    ["walls", "--class", "2,3,1", "--window", "1/0,1,0,1"],
    ["classify", "--z1", "1/0,1", "--z2", "1,1", "--z3", "0,1"],
    ["classify", "--z1", "1,2,3", "--z2", "1,1", "--z3", "0,1"],
    ["classify", "--z1", "1,1", "--z2", "-1,1", "--z3", "0,1",
     "--lifts", "1,0.5"],
    # parsed before the configuration, whose genus is wrong for the model
    ["classify", "--z1", "1,2,3", "--z2", "1,1", "--z3", "0,1",
     "--model", "mercat", "--genus", "2"],
    ["classify", "--z1", "1,1", "--z2", "1,1", "--z3", "0,1",
     "--lifts", "1,2", "--model", "mercat", "--genus", "2"],
    # outside the grammar: an optional sign, digits, an optional /digits
    ["bn", "--at", "0.5"],
    ["bn", "--at", "1e3"],
    ["bn", "--at", "1e5000"],
    ["bn", "--at", "1_0"],
    ["bn", "--at", " 1"],
    ["bn", "--at", "1/-2"],
    ["region", "--point", "1e3,1"],
    ["mualpha", "--class", "2,3,1", "--alpha", "2.0"],
    ["walls", "--class", "2,3,1", "--window", "0.5,1,0,1"],
    ["classify", "--z1", "1,1e2", "--z2", "1,1", "--z3", "0,1"],
])
def test_malformed_rational_arguments_are_usage_errors(argv):
    code, out, _ = invoke(argv)
    assert (code, out) == (2, "")


@pytest.mark.parametrize("part", ["1_0", "١", " 1", "1 ", "+ 1", "1.0",
                                  "1e1", "0x1", "", "1/1", "+-1", "１"])
def test_class_parts_outside_the_integer_grammar_are_usage_errors(part):
    # an optional sign and ASCII digits, the integer half of a rational
    for argv in (["euler", "--v1", f"{part},0,1", "--v2", "1,0,0"],
                 ["serre", "--class", f"2,{part},1"]):
        code, out, err = invoke(argv)
        assert (code, out) == (2, "") and "invalid parse_class value" in err


@pytest.mark.parametrize("flag", ["--genus", "--rank-bound"])
@pytest.mark.parametrize("value", ["1_0", "٥", " 2", "2 ", "2.0", "0x2"])
def test_integer_settings_outside_the_integer_grammar_are_usage_errors(
        flag, value):
    code, out, err = invoke(["feasible", "--class", "2,3,1",
                             f"{flag}={value}"])
    assert (code, out) == (2, "")
    assert f"argument {flag}: invalid int value: {value!r}" in err


@pytest.mark.parametrize("at, text", [
    ("+3", "3"), ("-3", "-3"), ("007", "7"), ("6/4", "3/2"), ("-0/5", "0")])
def test_rationals_in_the_grammar_are_accepted(at, text):
    code, out, _ = invoke(["bn", f"--at={at}", "--format", "json"])
    assert code == 0 and json.loads(out)["at"] == text


CLASSIFY_ARGS = ["classify", "--z1", "1,1", "--z2", "-1,1", "--z3", "0,1"]


@pytest.mark.parametrize("extra", [
    ["--tol", "nan"], ["--tol", "inf"], ["--lifts", "nan,-,-"],
    ["--lifts=-,-inf,-"], ["--tol", "-1"], ["--tol", "0"],
])
def test_non_finite_floats_are_usage_errors(extra):
    code, out, err = invoke(CLASSIFY_ARGS + extra)
    assert (code, out) == (2, "") and "finite" in err


@pytest.mark.parametrize("value", ["1_0", "١", " 1", "1 ", "1.e", "e3", ".",
                                   "0x1", "1e999", "nan", "-inf", "infinity"])
def test_decimals_outside_the_decimal_grammar_are_usage_errors(value):
    for extra in ([f"--tol={value}"], [f"--lifts={value},-,-"]):
        code, out, err = invoke(CLASSIFY_ARGS + extra)
        assert (code, out) == (2, "")
        assert f"expected a finite decimal number, got {value!r}" in err


@pytest.mark.parametrize("value", ["+2", "1.", ".5", "1e-3", "2E+1", "007"])
def test_decimals_in_the_grammar_are_accepted(value):
    for extra in ([f"--tol={value}"], [f"--lifts={value},-,-"]):
        # a lift may disagree with its charge (exit 1), but it parses
        assert invoke(CLASSIFY_ARGS + extra)[0] != 2


@pytest.mark.parametrize("doc, message", [
    ('{"tol": NaN}', "finite"),
    ('{"tol": -1}', "positive"),
    ('{"tol": true}', "JSON number"),
    ('{"cache_dir": 5}', "JSON string"),
    ('{"rank_bound": 1.5}', "JSON integer"),
    ('{"genus": true}', "JSON integer"),
    ('{"genus": "2"}', "JSON integer"),
    ('{"tol": 1%s}' % ("0" * 400), "finite"),
], ids=["tol-nan", "tol-negative", "tol-bool", "cache_dir-int",
        "rank_bound-float", "genus-bool", "genus-string", "tol-huge"])
def test_bad_config_values_are_usage_errors(doc, message, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(doc)
    code, out, err = invoke(CLASSIFY_ARGS, {"CSWALLS_CONFIG": str(cfg)})
    assert (code, out) == (2, "") and message in err


def test_argparse_output_goes_to_the_given_streams(capsys):
    code, out, err = invoke(["euler", "--v1", "1,2", "--v2", "0,0,1"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: cswalls euler") and "error:" in err
    assert invoke(["--version"]) == (0, "0.1.0\n", "")
    code, out, err = invoke(["walls", "--help"])
    assert (code, err) == (0, "") and out.startswith("usage: cswalls walls")
    assert capsys.readouterr() == ("", "")


#: a genus-2 user model whose upper envelope jumps down at 1/2
JUMP_MODEL = {
    "lower": [["0", "0", "0"], ["0", "0", "0"], ["1", "1", "0"]],
    "upper": [["0", "0", "0"], ["0", "3/4", "1"],
              ["1/2", "1/3", "11/8"], ["2", "1", "1"]],
    "exact": False,
}


def test_upper_envelope_jumping_down_is_not_an_error(tmp_path):
    path = tmp_path / "jump.json"
    path.write_text(json.dumps(JUMP_MODEL))
    code, out, err = invoke(["walls", "--class", "0,2,0", "--genus", "2",
                             "--rank-bound", "2", "--model", f"user:{path}"])
    assert (code, err) == (0, "") and "2*w = 3" in out


#: file names of the cache entries that `WALL_ARGS` writes at each
#: (genus, model), fixed so that existing cache directories keep hitting
GOLDEN_CACHE_NAMES = {
    ("2", "general"):
        "e99d15989bf17b7e19ebe40ce9e2cd7fa6cb8e4e2bb0fc70e3d2c4601ec3e0c1",
    ("5", "mercat"):
        "79b92b4ec00b14f13fc2add981c7428aa0472778b46e8b5efc90f99f8d248170",
    ("1", "elliptic"):
        "6da08fc58d2f9b9fd117e853381d0f6962d191059986d6dd567c76c7661c7076",
    ("2", "user"):
        "4126c715783925fcfb6dbb79de1c4b7de58859e01dde506692e569bfc055bcef",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CACHE_NAMES))
def test_cache_entry_names_golden(case, tmp_path):
    genus, model = case
    if model == "user":
        path = tmp_path / "jump.json"
        path.write_text(json.dumps(JUMP_MODEL))
        model = f"user:{path}"
    cache = tmp_path / "cache"
    code, _, _ = invoke(WALL_ARGS + ["--genus", genus, "--model", model,
                                     "--cache-dir", str(cache)])
    assert code == 0
    assert [p.name for p in cache.iterdir()] == [
        GOLDEN_CACHE_NAMES[case] + ".json"]


#: sha256 of the bytes of the cache entry of (2, 3, 1), general genus 2,
#: window -3,3,1/2,6 and rank bound 2: the key and the wall rows, fixed so
#: that a change to the entry layout changes this on purpose
GOLDEN_CACHE_ENTRY_SHA256 = (
    "e9f43638ed61d2bfbbd291d0f2ac09f3e570e2f6928eb032bbfbbaa164e87929")


def test_cache_entry_bytes_golden(tmp_path):
    cache = tmp_path / "cache"
    code, _, _ = invoke(WALL_ARGS[:-1] + ["2", "--cache-dir", str(cache)])
    assert code == 0
    (entry,) = cache.glob("*.json")
    assert (hashlib.sha256(entry.read_bytes()).hexdigest()
            == GOLDEN_CACHE_ENTRY_SHA256)


#: sha256 of `walls --format json` at rank bound 3 with the default
#: window, fixed so that a faster enumerator must keep every output byte
GOLDEN_WALLS_SHA256 = {
    ("2,3,1", "2", "general"):
        "84da04b01f1f2aa29894881f16eefd9548d2eb72dfcd8e653739d91993246b5d",
    ("2,4,0", "5", "mercat"):
        "62f1214f968e8ecf2ed65b7c71d12621eab4aae5e7490efcfc01342f92ca1eff",
    ("0,3,1", "2", "general"):
        "3f8471d408395d9d7ba6423bbd4497e34122b6dd1a9f5ddd199b1a570b49874a",
}


#: the same at rank bound 8 for (2,3,1): 442 walls (g=2 general) and 404
#: (g=5 mercat), the gate of a faster high-rank enumerator
GOLDEN_WALLS_RANK_8_SHA256 = {
    ("2,3,1", "2", "general"):
        "dbcc3d683ce1a77ca75dd3883f3974d3d9f51a57f0f6e1d776168bca02e5868d",
    ("2,3,1", "5", "mercat"):
        "076d8713062d5a05a9a86fd199c12cedf5495c039e73ecbc399d0b4065b696fc",
}


#: the same at rank bound 16: 1,153 walls (g=2 general) and 971 (g=5
#: mercat), where most of a run is the per-line work that the two-process
#: split shares out
GOLDEN_WALLS_RANK_16_SHA256 = {
    ("2,3,1", "2", "general"):
        "87d90205b9d9beb8ea63b502ed4ffed7e934474011d0a121bebc1d57643f25bf",
    ("2,3,1", "5", "mercat"):
        "fb4bd22ff4788abd54f23cd9717736cfc1e695cc65c0460552dc226b839de899",
}


#: the same at rank bound 32 for (2,3,1) at g=2 general: 3,108 walls in
#: about 2.5 s, where the per-group certificate work dominates
GOLDEN_WALLS_RANK_32_SHA256 = {
    ("2,3,1", "2", "general"):
        "437d734ccfa58797afec9234a4e465cfe4aa942330a57c592ed1f0d8f7288745",
}


def _walls_json_digest(case, rank_bound):
    cls, genus, model = case
    code, out, _ = invoke(["walls", "--class", cls, "--genus", genus,
                           "--model", model, "--rank-bound", rank_bound,
                           "--format", "json"])
    assert code == 0
    return hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(GOLDEN_WALLS_SHA256))
def test_walls_json_golden_digest(case):
    assert _walls_json_digest(case, "3") == GOLDEN_WALLS_SHA256[case]


@pytest.mark.parametrize("case", sorted(GOLDEN_WALLS_RANK_8_SHA256))
def test_walls_json_golden_digest_rank_bound_8(case):
    assert (_walls_json_digest(case, "8")
            == GOLDEN_WALLS_RANK_8_SHA256[case])


@pytest.mark.parametrize("case", sorted(GOLDEN_WALLS_RANK_16_SHA256))
def test_walls_json_golden_digest_rank_bound_16(case):
    assert (_walls_json_digest(case, "16")
            == GOLDEN_WALLS_RANK_16_SHA256[case])


@pytest.mark.parametrize("case", sorted(GOLDEN_WALLS_RANK_32_SHA256))
def test_walls_json_golden_digest_rank_bound_32(case):
    assert (_walls_json_digest(case, "32")
            == GOLDEN_WALLS_RANK_32_SHA256[case])


def test_walls_command_builds_no_wall_objects(tmp_path, monkeypatch):
    # the enumerator writes the records that the cache and the renderers
    # read, so neither a cold run nor a cache hit builds a Wall; it orders
    # its lines in integers, and the record writer, not the generic
    # `dumps`, prints them
    import cswalls.cli as cli
    import cswalls.jsonio as jsonio
    import cswalls.walls as walls

    def refuse(*args, **kwargs):
        raise AssertionError("a wall object was built")

    for module, name in ((jsonio, "wall_to_json"), (jsonio, "wall_from_json"),
                         (walls, "Wall"), (walls, "PlanePoint"),
                         (walls, "Fraction"), (cli, "dumps")):
        monkeypatch.setattr(module, name, refuse)
    case = ("2,3,1", "2", "general")
    argv = ["walls", "--class", case[0], "--genus", case[1], "--model",
            case[2], "--rank-bound", "3", "--format", "json",
            "--cache-dir", str(tmp_path / "cache")]
    for _ in range(2):  # cold, then a cache hit
        code, out, err = invoke(argv)
        assert (code, err) == (0, "")
        assert (hashlib.sha256(out.encode()).hexdigest()
                == GOLDEN_WALLS_SHA256[case])
    assert len(list((tmp_path / "cache").iterdir())) == 1


#: sha256 of `chambers --class <class> --genus 2 --model general
#: --rank-bound 3 --format json` with the default window: a pencil, strips,
#: and the one window chamber of the zero-rank class with no walls
GOLDEN_CHAMBERS_JSON_SHA256 = {
    "2,3,1":
        "13222c137420e2d766a9e32c5cb4443059f14995690546f47678b50c781de430",
    "0,4,1":
        "c2c36472b90f8159ab144d847d844aef0db82c6ab266a8ae75ee5a594b0e4453",
    "0,0,1":
        "3f0397cb27cc975a20b12db0eaeb6711e3f7e2245aca61b490ab727c0a71f731",
}


@pytest.mark.parametrize("cls", list(GOLDEN_CHAMBERS_JSON_SHA256))
def test_chambers_command_builds_no_chamber_objects(cls, tmp_path,
                                                    monkeypatch):
    # the decomposition writes chamber records from its integer samples,
    # and the report writer, not the generic `dumps`, prints them
    import cswalls.cli as cli
    import cswalls.walls as walls

    def refuse(*args, **kwargs):
        raise AssertionError("a chamber object was built")

    for module, name in ((walls, "Fraction"), (walls, "PlanePoint"),
                         (cli, "dumps")):
        monkeypatch.setattr(module, name, refuse)
    argv = ["chambers", "--class", cls, "--genus", "2", "--model",
            "general", "--rank-bound", "3", "--format", "json",
            "--cache-dir", str(tmp_path / "cache")]
    for _ in range(2):  # cold, then a cache hit
        code, out, err = invoke(argv)
        assert (code, err) == (0, "")
        assert (hashlib.sha256(out.encode()).hexdigest()
                == GOLDEN_CHAMBERS_JSON_SHA256[cls])
    assert len(list((tmp_path / "cache").iterdir())) == 1


#: sha256 of the stdout of four `chambers` commands of the warm-cache
#: benchmark at rank bound 1 with the default window: the projection
#: (2, 0) of (2, 4, 0) lies below the window, so 65 of its 132 sectors miss
#: it; (2, 3, 2) is read against the Mercat model; (0, 4, 1) and (0, 3, 2)
#: are cut into strips
GOLDEN_WARM_CHAMBERS_SHA256 = {
    ("2,4,0", "2", "general", "json"):
        "319e0ea0f31c19ab17d62a102f5cbe01812283b7a06f1fd1aba38a8b759da04d",
    ("2,3,2", "5", "mercat", "text"):
        "ff9a59b7449d478ccde6f0c042dd93cae75fa0faed62725f416c5e0337b64f34",
    ("0,4,1", "2", "general", "json"):
        "6a9c2be44a6f52d37c42388584ff5e440ff9934352a7d479421d02a9bc9d3382",
    ("0,3,2", "5", "mercat", "text"):
        "24b8604d2a27ae5d6997763286647119fb006d6d1e332b7bf2b0a1c451a9ca8a",
}


@pytest.mark.parametrize("case", list(GOLDEN_WARM_CHAMBERS_SHA256))
def test_warm_chambers_golden_digest(case, tmp_path):
    cls, genus, model, fmt = case
    argv = ["chambers", "--class", cls, "--genus", genus, "--model", model,
            "--rank-bound", "1", "--format", fmt,
            "--cache-dir", str(tmp_path / "cache")]
    for _ in range(2):  # cold, then a cache hit
        code, out, err = invoke(argv)
        assert (code, err) == (0, "")
        assert (hashlib.sha256(out.encode()).hexdigest()
                == GOLDEN_WARM_CHAMBERS_SHA256[case])


#: one fixed argv per command; `plot` also takes `--out <path>`
CLI_CASES = {
    "euler": ["--genus", "2", "--v1", "0,0,1", "--v2", "1,0,0"],
    "serre": ["--genus", "2", "--class", "0,0,1"],
    "dual": ["--class", "2,3,1"],
    "mutate": ["--e", "0,0,1", "--class", "2,3,1", "--genus", "3"],
    "project": ["--class", "2,3,1"],
    "bn": ["--at", "3/2", "--genus", "5", "--model", "mercat"],
    "region": ["--point", "1,2", "--genus", "5"],
    "charge": ["--class", "1,0,0", "--point=-2,3"],
    "nu": ["--class", "2,3,1", "--point", "0,2"],
    "mualpha": ["--class", "2,3,1", "--alpha", "2"],
    "walls": ["--class", "2,3,1", "--genus", "2", "--window=-3,3,1/2,6",
              "--rank-bound", "2"],
    "chambers": ["--class", "2,3,1", "--genus", "2", "--window=-3,3,1/2,6",
                 "--rank-bound", "2"],
    "ray": ["--class", "2,3,1", "--alpha", "1"],
    "feasible": ["--class", "1,1,3", "--genus", "5"],
    "classify": ["--z1=-1,0", "--z2", "0,1", "--z3", "3,2",
                 "--lifts", "1,0.5,0.18716704181099878",
                 "--flags", "stable_O0,stable_pt,stable_sheafO",
                 "--genus", "4"],
    "glue": ["--point=-1,2"],
    "plot": ["--class", "2,3,1", "--genus", "2", "--rank-bound", "1"],
}

#: sha256 of the stdout of each command in each --format, of
#: `<command> --help` and of `cswalls --help`, each with exit code 0, so
#: that a rewrite of the front end keeps every byte
GOLDEN_CLI_SHA256 = {
    ("cswalls", "help"):
        "a45c9b134700922d511a57d5789a3416ebdce07712d70bfce0500f8a377d6291",
    ("euler", "text"):
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
    ("euler", "json"):
        "d70b6119a8a26f7725fb743419f3056c60c0c31b0ef61c9270bba021e991a913",
    ("euler", "help"):
        "fff7bbce746aeb12743ab27e56a3e2241ee696cd73a7c6147c2c6dbb2ae62050",
    ("serre", "text"):
        "efac2f91799570cc54e7d8044b465173481a29f7ac58073fe322227b922dfba3",
    ("serre", "json"):
        "96db17739566ee7604aa27872eb4be9defa7bb7ea90ecdf0878150880f8d3da9",
    ("serre", "help"):
        "63d8c5c011944ed5c3e2037b9145af11f9706faff86aa392b0b398bd8725a730",
    ("serre", "csv"):
        "efac2f91799570cc54e7d8044b465173481a29f7ac58073fe322227b922dfba3",
    ("dual", "text"):
        "93d7c567427242714d418efec594816f0c222034e43de2577528cf2a68e15403",
    ("dual", "json"):
        "5aace8bc9d60161e7e53fa8760ed459cfdf56ae2e298a333be76530f4423a1fe",
    ("dual", "help"):
        "bf20a191ad658fa19c707f13592a46c2e6195965ad12d731232d1cd2cf72e888",
    ("mutate", "text"):
        "42f43d728fc911c930ff0c824a157ac259710d5263c5ccc975d0b9e86d99959c",
    ("mutate", "json"):
        "aec5f0b379f3b736af4c7384c75395b6ab42e47b38e09e46cd658bdeeedc6e4d",
    ("mutate", "help"):
        "6ee5b069ae1f86e006b605346f2c76fd550d0ca9d04d6df2c25d2712b261d052",
    ("project", "text"):
        "fe78bafc4531300f55ad9b80fe022a1026705054cdc59e26447b941fb099ed20",
    ("project", "json"):
        "90d62e13b2da968b718ffc8a61c881d6d56d6a30e66278e0a1ecf18515457e8e",
    ("project", "help"):
        "bb498ff295fcd4ae42f134f62035f161d82d9ce3c6849daba10d532911e2fa37",
    ("bn", "text"):
        "4062aa0022b894442391a3b7a9ee901209e30c2381d758611833c093982b434c",
    ("bn", "json"):
        "5dde1a894bc234d8b7087758bc9572675caa6a17533a888727ab6ae969664ed9",
    ("bn", "help"):
        "2de908e3cfc216e7c5ddabf7f2348ad53ae1fb36ef5ff277bb7214e8b8c70f6a",
    ("region", "text"):
        "4465c13ee7064afbc6e75e38587594c772c1a19811cc0dada2caba4253df5b7d",
    ("region", "json"):
        "e1c80f0283ae2674e352b001185e2825cfde46aea2aa47f4bcb3fe62549e2781",
    ("region", "help"):
        "b21c83f9ba403f70281364ec6c17ffd9a8931106f31f1a5b9303030db2ec20dc",
    ("charge", "text"):
        "eb246eebebc0486fdca534641d54047489b8fa901f0977c5a91a0e06838bd509",
    ("charge", "json"):
        "8452b66479bccfe05089d51cd61022fefad825c591c756ddcf33e61d842d3387",
    ("charge", "help"):
        "1ec0c108f36ff9ef86075ebe8160bd6d2b54fe2b8088769d9f54d254b9cc4a7c",
    ("nu", "text"):
        "ee3aa64bb94a50845d5024cd4bd20202a4567aed5cd5328c0d97e9920775fc28",
    ("nu", "json"):
        "1946a969b37a74c37cb40391669c7eb74764d91ba387da7dcc6e138cef297629",
    ("nu", "help"):
        "c36698ec462d6b483279771be1800e9267494c45ecb4111f29a83681d9c48d55",
    ("mualpha", "text"):
        "6a214bbd7c4b3acae2321c0a34a2cf2737062e3f1a024cce803e36fbbb3a5ed5",
    ("mualpha", "json"):
        "0ca5ea1523ef913079bafa5636c881fdb8c198d7e63aacd6cf821dd202ec7b31",
    ("mualpha", "help"):
        "f8bbe717bd21d019968899ae773925f9deb8ce750e412e5e834711fa65ef052f",
    ("walls", "text"):
        "87c7ff3601d17b64df94c05dff06e2661d49c9c1df006671d6f77d6debcfe74d",
    ("walls", "csv"):
        "abd8c5a9b29c6fdc1a4ed78219ef949ed9c1d593e37516c63f3d8d085da66ec4",
    ("walls", "json"):
        "e5821f95ad6d92bacd16c6e983f9bfded1481e18fd1a39b89e2b4a638631aaa4",
    ("walls", "help"):
        "85d0f87559ff2a67535b51918a7ab4504085283c4d067605dd946045f352215b",
    ("chambers", "text"):
        "b1287465ef6e73a44b27a47345124c5f95d7fee8dcec26793299aa68095faecc",
    ("chambers", "json"):
        "357bb422f1ac721a0eeb4e429e72f4c40063dc10500adbf02de11131a298ce03",
    ("chambers", "help"):
        "2f09c7b47448dd48f5cc0135375e4686281f409dcdacc459c399d6820fd5bf73",
    ("ray", "text"):
        "f93bb9618e747e0e37d87f18ff7eb1a1edb5e90a500d77131b38d6b5e91753bb",
    ("ray", "json"):
        "bf627a18b53a03cb7d5f6822706cfee99a5dbd89f7a7c4d8492c8ffb65f74d3b",
    ("ray", "help"):
        "1ae7ffa963234c9c6b4f0c2f2b87bec654bfb9a56dcea5fb8ec329f5c14cbf02",
    ("feasible", "text"):
        "0a13933e94919d87069a15b4944dfbe95c456b275130927a09550b8fb4ba16b9",
    ("feasible", "json"):
        "ae36ec33d67b28225bed942e492ee23cc792975e13ac3e23d6e5664b0c4dec3f",
    ("feasible", "help"):
        "2bb80dae5c4d496b45f2f0422a5a37e32b000e7d930772f9132ffe3e18f868b8",
    ("classify", "text"):
        "c24122ac879d8c393117f8237762c211ac132b95a2a7397a2dd7ae6a613152c8",
    ("classify", "json"):
        "3bc7e3edc6cb0bf5ef43615e121e54b956a9e94d1b6bdce601e8858c65e50895",
    ("classify", "help"):
        "3c2f75b4ecac40b50068093ce019183573f6ac749dbeccf9c7b6af0ffb11c86c",
    ("glue", "text"):
        "0a21319b09fbcc126cd2f1e43a7e123d405c554cb4fb916c8bca48cd708b2a98",
    ("glue", "json"):
        "07e151ef7e458652a172f3694dbbd3b82d38c1b14884a3c5dccce30ff2e2c2c2",
    ("glue", "help"):
        "2f0bcaef5f94659632133e224dd93ba10fec475a7b4b04bd6af2fec2acff5e89",
    ("plot", "text"):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("plot", "json"):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("plot", "help"):
        "51b5ce07a827dc9ab572bbbaca36f3a5c526b1b44154f63b7e92cbcf31093f8b",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_CLI_SHA256))
def test_cli_golden_digest(case, tmp_path, monkeypatch):
    cmd, mode = case
    if mode == "help":
        if sys.version_info[:2] != (3, 11):
            pytest.skip("the help digests are of Python 3.11's argparse")
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to this width
        argv = ["--help"] if cmd == "cswalls" else [cmd, "--help"]
    else:
        argv = [cmd] + CLI_CASES[cmd] + ["--format", mode]
        if cmd == "plot":
            argv += ["--out", str(tmp_path / "walls.svg")]
    code, out, _ = invoke(argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_CLI_SHA256[case]


_EULER = ["euler", "--v1", "0,0,1", "--v2", "1,0,0"]
_EMPTY = hashlib.sha256(b"").hexdigest()

#: argv -> (exit code, sha256 of stdout, sha256 of stderr) on the argparse
#: paths: help, version, usage errors and option spellings, so that the
#: parser can be built differently without a byte of this text changing
GOLDEN_ARGPARSE = {
    "no-args": (
        [], 2,
        _EMPTY,
        "83314d9a536f36e299831bb29b67501022e1c314d8b80913924116aa6ae162c0"),
    "help": (
        ["--help"], 0,
        "a45c9b134700922d511a57d5789a3416ebdce07712d70bfce0500f8a377d6291",
        _EMPTY),
    "version": (
        ["--version"], 0,
        "e9dd8507f4bf0c6f42458e41aea833ad0bd3f6127272335eee9bf4d58541ed67",
        _EMPTY),
    "unknown-command": (
        ["bogus"], 2,
        _EMPTY,
        "b4017e8f384f66cfb27d92bf6e74aeb72a75e89509e9f6c4d9b6d38b2a9db883"),
    "abbreviated-command": (
        ["eul"], 2,
        _EMPTY,
        "ca435d5ba6552c3db45605c4f9fa23c59cfcafbb8e5b53046116af575d300a33"),
    "command-without-flags": (
        ["euler"], 2,
        _EMPTY,
        "770ac2994bb289d8e4ba8f1f851fad5f9373a8f8674a430caa4ecbe8969fd2a7"),
    "bad-value": (
        ["euler", "--v1", "1,2", "--v2", "0,0,1"], 2,
        _EMPTY,
        "7a7952cb7d583ff3861aef5cc9e9ef3da66e7d99c68d624c8628774e0e2a6907"),
    "missing-required-flag": (
        ["euler", "--v1", "0,0,1"], 2,
        _EMPTY,
        "aad01913ee646e87cbbfe9fe3effe7fc435628ec60825fc9b40212a84250d9b6"),
    "trailing-unknown-flag": (
        _EULER + ["--bogus"], 2,
        _EMPTY,
        "69ed4c6a1c840de212db7a0ddceb879c212c126f95e34a35aae7f03215448b4a"),
    "extra-positional": (
        _EULER + ["extra"], 2,
        _EMPTY,
        "d0fca6730b820dfb124af8638621b45efaea7c5d8fad60a71e3f643f17729625"),
    "option-before-command": (
        ["--genus", "2"] + _EULER, 2,
        _EMPTY,
        "eabf9d437556aba635342d705d011c817ec607c426b296333cbd2d33593f9bb4"),
    "format-xml": (
        _EULER + ["--format", "xml"], 2,
        _EMPTY,
        "0e80770a975dfcbc7d0633e70fdd516c1baef443ce415082477fbcc07c8c1388"),
    "abbreviated-option": (
        _EULER + ["--rank", "x"], 2,
        _EMPTY,
        "984e8c0979190d66e9b5776cfa76b2ca4cf28038a1964b31e17c882b0b032daf"),
    "abbreviated-option-accepted": (
        _EULER + ["--rank-b", "0"], 0,
        "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
        _EMPTY),
    "missing-option-value": (
        _EULER + ["--genus"], 2,
        _EMPTY,
        "37552bb82a857f59b917425093a33231e8e507f6e9b42f457c3a7dd15059ed4d"),
    "command-help-short": (
        ["euler", "-h"], 0,
        "fff7bbce746aeb12743ab27e56a3e2241ee696cd73a7c6147c2c6dbb2ae62050",
        _EMPTY),
    "command-version": (
        _EULER + ["--version"], 2,
        _EMPTY,
        "d0e9676aa316b57625c4d0da22cc799224ee19ad44aeb08b5805336c03f85488"),
    "negative-value": (
        ["dual", "--class", "-1,2,0"], 0,
        "6b2a5ff680a694ec985ff7f97884f484653a99f85c41bbe0b7a16afaaefd0346",
        _EMPTY),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_ARGPARSE))
def test_argparse_paths_golden(case, monkeypatch):
    if sys.version_info[:2] != (3, 11):
        pytest.skip("the argparse digests are of Python 3.11's argparse")
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to this width
    argv, code, out_sha, err_sha = GOLDEN_ARGPARSE[case]
    got, out, err = invoke(argv)
    assert (got, hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256(err.encode()).hexdigest()) == (code, out_sha,
                                                           err_sha), err


@pytest.mark.parametrize("argv, flag", [
    (["--genus", "2"] + _EULER, "--genus"),
    (["--genus=2"] + _EULER, "--genus"),
    (["--gen", "2"] + _EULER, "--gen"),
    (["--rank-bound", "2", "walls", "--class", "2,3,1"], "--rank-bound"),
    (["--format", "json"], "--format"),
])
def test_setting_flag_before_the_command_is_a_usage_error(argv, flag):
    code, out, err = invoke(argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: {flag} must follow the command name "
                        f"(cswalls COMMAND {flag} ...)\n")


@pytest.mark.parametrize("lifts", ["-,0.5,-", "-.5,0.5,-", "-,-,-"])
def test_leading_minus_lifts_in_the_space_form(lifts):
    # a value starting with "-" and a digit, "." or "," is not a flag
    argv = ["classify", "--z1", "0,-1", "--z2", "0,1", "--z3", "3,2"]
    spaced = invoke(argv + ["--lifts", lifts])
    assert spaced == invoke(argv + [f"--lifts={lifts}"])
    assert spaced[0] == 0 and spaced[1]


#: sha256 of the file `plot --out` writes at rank bound 2 with the default
#: window.  "jump" is JUMP_MODEL (its upper envelope jumps down at 2) with
#: a point override on the upper envelope, which a model file cannot hold;
#: the general model's override at 2 and the jump model's draw the
#: envelope circles
GOLDEN_SVG_SHA256 = {
    ("2,3,1", "2", "general"):
        "81dde07f9128f1057a514d563aaf2e42db889459269b3092f7b00100e9cd870b",
    ("2,3,1", "5", "mercat"):
        "0fca77027de559a6b95b3cec026ea287289dfa73573c50045c9f3994041d7233",
    ("0,3,1", "2", "general"):
        "72629809f668d25a698c318c413c5a14e7c0031e8c710406cd30361175a4b87f",
    ("2,3,1", "2", "jump"):
        "636aebe2601a1d2f1bdd77b7d084e58f32b98ba2d486d498388f9cd7ced9bc58",
}


def _jump_model_with_override():
    from cswalls.envelopes import PLFunction, make_model, model_from_json

    base = model_from_json(JUMP_MODEL, 2)
    up = base.upper
    upper = PLFunction(up.pieces, up.left_slope, up.left_value,
                       ((F(1), F(3)),))
    return make_model("user", 2, (base.lower, upper, False))


@pytest.mark.parametrize("case", sorted(GOLDEN_SVG_SHA256))
def test_plot_svg_golden_digest(case, tmp_path, monkeypatch):
    cls, genus, model = case
    if model == "jump":
        import cswalls.cli as cli

        monkeypatch.setattr(cli, "load_model",
                            lambda args: _jump_model_with_override())
    path = tmp_path / "walls.svg"
    code, _, err = invoke(["plot", "--class", cls, "--genus", genus,
                           "--model", model, "--rank-bound", "2",
                           "--out", str(path)])
    assert (code, err) == (0, "")
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN_SVG_SHA256[case]


@pytest.mark.parametrize("genus, model", [("2", "general"), ("5", "mercat")])
@pytest.mark.parametrize("cls", ["2,3,1", "0,3,1"])
def test_chambers_and_plot_cache_equals_no_cache(cls, genus, model, tmp_path,
                                                 monkeypatch):
    import cswalls.cli as cli

    base = ["--class", cls, "--genus", genus, "--model", model,
            "--rank-bound", "2"]
    cache = ["--cache-dir", str(tmp_path / "cache")]

    def outputs(extra):
        got = [invoke(["chambers"] + base + ["--format", fmt] + extra)
               for fmt in ("json", "text")]
        svg = tmp_path / "walls.svg"
        got.append(invoke(["plot"] + base + ["--out", str(svg)] + extra))
        got.append(svg.read_bytes())
        return got

    # without a cache, then cold: the first job writes the entry
    expected = outputs([])
    assert expected[0][0] == 0 and expected[0][1]
    assert outputs(cache) == expected
    assert len(list((tmp_path / "cache").glob("*.json"))) == 1

    def must_not_enumerate(*args):
        raise AssertionError("enumerate_walls called on a cache hit")

    monkeypatch.setattr(cli, "enumerate_walls", must_not_enumerate)
    assert outputs(cache) == expected
