import hashlib
import io
import json
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

    csv_base = invoke(WALL_ARGS + ["--format", "csv"])
    monkeypatch.setattr(cli, "enumerate_walls", must_not_enumerate)
    for fmt, expected in (("json", base), ("csv", csv_base)):
        assert invoke(WALL_ARGS + ["--format", fmt,
                                   "--cache-dir", str(cache)]) == expected
    assert entry.read_text() == indented


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
            residual = line.A * b + line.B * w - line.C
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


def test_jsonio_round_trips():
    import io as _io
    from fractions import Fraction
    from cswalls.charges import (ComplexRational, GLElement, PlanePoint,
                                 type_b_triple)
    from cswalls.classify import full_classification
    from cswalls.envelopes import make_model
    from cswalls.jsonio import (chamber_report_from_json,
                                chamber_report_to_json,
                                classification_from_json,
                                complex_from_json, complex_to_json,
                                gl_element_from_json, gl_element_to_json,
                                model_from_full_json, model_to_json)
    from cswalls.lattice import NumClass
    from cswalls.walls import Window, chamber_decomposition, enumerate_walls

    z = ComplexRational(Fraction(-3, 7), Fraction(5))
    assert complex_from_json(complex_to_json(z)) == z

    el = GLElement(Fraction(1, 2), Fraction(-1), Fraction(1, 2),
                   Fraction(0), -2)
    assert gl_element_from_json(gl_element_to_json(el)) == el

    model = make_model("mercat", 5)
    assert model_from_full_json(model_to_json(model)) == model

    win = Window(Fraction(-2), Fraction(2), Fraction(1, 2), Fraction(3))
    walls = enumerate_walls(NumClass(2, 3, 1), 5, win, 2, model)
    rep = chamber_decomposition(NumClass(2, 3, 1), walls, win, model)
    assert chamber_report_from_json(chamber_report_to_json(rep)) == rep

    data = type_b_triple(PlanePoint(Fraction(-1), Fraction(2)),
                         with_lifts=True,
                         flags=frozenset({"stable_O0", "stable_pt",
                                          "stable_sheafO"}))
    res = full_classification(data, model)
    assert classification_from_json(res.to_json()) == res


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


def test_cache_entry_not_an_object_is_recomputed(tmp_path):
    cache = tmp_path / "cache"
    base = invoke(WALL_ARGS + ["--format", "json"])
    invoke(WALL_ARGS + ["--format", "json", "--cache-dir", str(cache)])
    (entry,) = cache.glob("*.json")
    for text in ("[1,2]", "null", '"walls"', "3"):
        entry.write_text(text)
        again = invoke(WALL_ARGS + ["--format", "json",
                                    "--cache-dir", str(cache)])
        assert again == base
        assert json.loads(entry.read_text())["walls"] == json.loads(base[1])


@pytest.mark.parametrize("argv", [
    ["region", "--point", "1/0,1"],
    ["region", "--point", "1,x"],
    ["bn", "--at", "1/0"],
    ["mualpha", "--class", "2,3,1", "--alpha", "1/0"],
    ["ray", "--class", "2,3,1", "--alpha", "one"],
    ["glue", "--point=-1/0,2"],
    ["walls", "--class", "2,3,1", "--window", "1/0,1,0,1"],
    ["classify", "--z1", "1/0,1", "--z2", "1,1", "--z3", "0,1"],
])
def test_malformed_rational_arguments_are_usage_errors(argv):
    code, out, _ = invoke(argv)
    assert (code, out) == (2, "")


CLASSIFY_ARGS = ["classify", "--z1", "1,1", "--z2", "-1,1", "--z3", "0,1"]


@pytest.mark.parametrize("extra", [
    ["--tol", "nan"], ["--tol", "inf"], ["--lifts", "nan,-,-"],
    ["--lifts=-,-inf,-"],
])
def test_non_finite_floats_are_usage_errors(extra):
    code, out, err = invoke(CLASSIFY_ARGS + extra)
    assert (code, out) == (2, "") and "finite" in err


def test_non_finite_tol_from_config_is_a_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"tol": NaN}')
    code, out, err = invoke(CLASSIFY_ARGS, {"CSWALLS_CONFIG": str(cfg)})
    assert (code, out) == (2, "") and "finite" in err


def test_argparse_output_goes_to_the_given_streams(capsys):
    code, out, err = invoke(["euler", "--v1", "1,2", "--v2", "0,0,1"])
    assert (code, out) == (2, "")
    assert err.startswith("usage: cswalls euler") and "error:" in err
    assert invoke(["--version"]) == (0, "0.1.0\n", "")
    code, out, err = invoke(["walls", "--help"])
    assert (code, err) == (0, "") and out.startswith("usage: cswalls walls")
    assert capsys.readouterr() == ("", "")


def test_upper_envelope_jumping_down_is_not_an_error(tmp_path):
    path = tmp_path / "jump.json"
    path.write_text(json.dumps({
        "lower": [["0", "0", "0"], ["0", "0", "0"], ["1", "1", "0"]],
        "upper": [["0", "0", "0"], ["0", "3/4", "1"],
                  ["1/2", "1/3", "11/8"], ["2", "1", "1"]],
        "exact": False,
    }))
    code, out, err = invoke(["walls", "--class", "0,2,0", "--genus", "2",
                             "--rank-bound", "2", "--model", f"user:{path}"])
    assert (code, err) == (0, "") and "2*w = 3" in out


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


@pytest.mark.parametrize("case", sorted(GOLDEN_WALLS_SHA256))
def test_walls_json_golden_digest(case):
    cls, genus, model = case
    code, out, _ = invoke(["walls", "--class", cls, "--genus", genus,
                           "--model", model, "--rank-bound", "3",
                           "--format", "json"])
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == GOLDEN_WALLS_SHA256[case]
