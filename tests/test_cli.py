import json
from fractions import Fraction
from pathlib import Path

import pytest

import tropcyl as tc
from tropcyl.cli import run
from tropcyl.serialize import spine_to_json


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"self_intersections": [0, -1, 0, 0]}))
    return str(path)


@pytest.fixture
def spine_file(tmp_path):
    s = tc.family_spine(2, 0, 1, 1)
    path = tmp_path / "spine.json"
    path.write_text(json.dumps(spine_to_json(s)))
    return str(path)


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


class TestBase:
    def test_report(self, capsys, pair_file):
        code, report = run_json(capsys, ["base", pair_file])
        assert code == 0
        assert report["cones"] == 4
        assert report["fan_closure"] is None
        assert report["positive"] is True
        assert report["monodromy"] == [[1, 0], [1, 1]]
        assert report["monodromy_is_identity"] is False

    def test_toric_pair(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"self_intersections": [0, 0, 0, 0]}))
        code, report = run_json(capsys, ["base", str(path)])
        assert code == 0
        assert report["monodromy_is_identity"] is True
        assert report["fan_closure"] == [[1, 0], [0, 1], [-1, 0], [0, -1]]

    def test_invalid_pair_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"self_intersections": [0, 0]}))
        code, report = run_json(capsys, ["base", str(path)])
        assert code == 1
        assert report["error"] == "InvalidPair"

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text("{not json")
        assert run(["base", str(path)]) == 2

    def test_missing_file_exit_2(self):
        assert run(["base", "/nonexistent/pair.json"]) == 2


class TestValidate:
    def test_valid_spine(self, capsys, pair_file, spine_file):
        code, report = run_json(capsys, ["validate", pair_file, spine_file])
        assert code == 0
        assert report == {"valid": True, "violations": []}

    @pytest.mark.parametrize("where, key, value", [
        ("edges", "cone", "x"),
        ("edges", "cone", 1.7),
        ("edges", "tail", 0),
        ("vertices", "cone", True),
        ("vertices", "origin", "no"),
        ("vertices", "coords", [True, "0/1"]),
        ("pair", "self_intersections", [True, 0, 0]),
    ], ids=["edge-cone-str", "edge-cone-float", "edge-tail-int",
            "vertex-cone-bool", "origin-str", "coord-bool", "pair-bool"])
    def test_mistyped_field_exit_2(self, capsys, pair_file, spine_file,
                                   tmp_path, where, key, value):
        spine = json.loads(Path(spine_file).read_text())
        if where == "pair":
            path = tmp_path / "bad_pair.json"
            path.write_text(json.dumps({key: value}))
            argv = ["validate", str(path), spine_file]
        else:
            spine[where][0][key] = value
            path = tmp_path / "bad_spine.json"
            path.write_text(json.dumps(spine))
            argv = ["validate", pair_file, str(path)]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("tropcyl: ")

    def test_origin_vertex_reported(self, capsys, pair_file, tmp_path):
        bad = {
            "vertices": [
                {"id": "a", "origin": True},
                {"id": "b", "cone": 0, "coords": ["1/1", "2/1"]},
            ],
            "edges": [{"tail": "a", "head": "b", "cone": 0,
                       "direction": [1, 2], "length": "1/1"}],
            "boundary": ["a", "b"],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, report = run_json(capsys, ["validate", pair_file, str(path)])
        assert code == 1
        assert not report["valid"]
        assert any(v["code"] == "origin-image" for v in report["violations"])


class TestExtend:
    def test_report_and_roundtrip(self, capsys, pair_file, spine_file, tmp_path):
        code, report = run_json(capsys, ["extend", pair_file, spine_file])
        assert code == 0
        assert report["extendable"] is True
        assert report["steps"] == 3
        assert report["curve_class"] == {"D_2": 1}
        # the emitted extended spine re-parses and re-validates
        path = tmp_path / "ext.json"
        path.write_text(json.dumps(report["extended_spine"]))
        base = tc.del_pezzo_base()
        back = tc.serialize.spine_from_json(base, report["extended_spine"])
        assert tc.validate_extended_spine(base, back) == []
        assert report["cylinder"]["legs"] == [["o1", "v0"]]

    def test_not_extendable(self, capsys, tmp_path):
        pair = tmp_path / "p.json"
        pair.write_text(json.dumps({"self_intersections": [-2, -2, -2, -2]}))
        base = tc.build_base(tc.LooijengaPair((-2, -2, -2, -2)))
        spine = tc.make_tree(
            [tc.Vertex("a", base.point(0, 2, 1)),
             tc.Vertex("b", base.point(0, 1, 1))],
            [tc.make_edge("a", "b", 0, (-1, 0), 1)],
            ("a", "b"),
        )
        sp = tmp_path / "s.json"
        sp.write_text(json.dumps(spine_to_json(spine)))
        code, report = run_json(
            capsys, ["extend", str(pair), str(sp), "--max-steps", "50"])
        assert code == 1
        assert report["error"] == "NotExtendable"


class TestCount:
    def test_plain(self, capsys):
        code, report = run_json(capsys, ["count", "--l", "5", "--m", "3", "--n", "2"])
        assert code == 0
        assert report["count"] == 10
        assert report["oracle"] == 10
        assert report["match"] is True
        assert report["symmetry"] is True

    def test_with_height_goes_through_matcher(self, capsys):
        code, report = run_json(
            capsys, ["count", "--l", "2", "--m", "0", "--n", "1", "--b", "7/3"])
        assert code == 0
        assert report["count"] == 2
        assert report["b"] == "7/3"

    def test_nonpositive_height_is_domain_error(self, capsys):
        code, report = run_json(
            capsys, ["count", "--l", "2", "--m", "0", "--n", "1", "--b", "0"])
        assert code == 1
        assert report["error"] == "InvalidArgument"

    def test_invalid_l(self, capsys):
        code, report = run_json(capsys, ["count", "--l", "0", "--m", "0", "--n", "0"])
        assert code == 1
        assert report["error"] == "InvalidQuery"


class TestSymmetryCmd:
    def test_report(self, capsys):
        code, report = run_json(capsys, ["symmetry", "--l", "4", "--m", "-1", "--n", "2"])
        assert code == 0
        assert report["forward"] == 6
        assert report["symmetric"] is True


class TestTrace:
    def test_points(self, capsys):
        code, report = run_json(capsys, [
            "trace", "--l", "2", "--m", "0", "--n", "1", "--b", "1",
            "--t=-1,0,1"])
        assert code == 0
        pts = report["points"]
        assert pts[0] == {"t": "-1/1", "cone": 2, "coords": ["2/1", "0/1"]}
        assert pts[1] == {"t": "0/1", "cone": 1, "coords": ["1/1", "0/1"]}
        assert pts[2] == {"t": "1/1", "cone": 0, "coords": ["2/1", "1/1"]}


class TestTable:
    def test_rows(self, capsys):
        code, report = run_json(capsys, ["table", "--l-max", "2"])
        assert code == 0
        rows = {(r["l"], r["m"]): r["counts"] for r in report["rows"]}
        assert rows[(0, 0)] == [1]
        assert rows[(1, 0)] == [1, 1]
        assert rows[(2, 0)] == [1, 2, 1]

    def test_m_independence(self, capsys):
        code, report = run_json(
            capsys, ["table", "--l-max", "1", "--m-min", "-3", "--m-max", "-3"])
        assert code == 0
        rows = {(r["l"], r["m"]): r["counts"] for r in report["rows"]}
        assert rows[(1, -3)] == [1, 1]

    def test_zero_rows_rejected(self, capsys):
        code, report = run_json(capsys, ["table", "--l-max", "0"])
        assert code == 1
        assert report["error"] == "InvalidQuery"

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "table.json"
        code, report = run_json(capsys, ["table", "--l-max", "3", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text()) == report


class TestDeterminism:
    def test_byte_identical_reports(self, capsys, pair_file, spine_file):
        run(["extend", pair_file, spine_file])
        first = capsys.readouterr().out
        run(["extend", pair_file, spine_file])
        second = capsys.readouterr().out
        assert first == second


class TestUsage:
    def test_no_command_exit_2(self, capsys):
        assert run([]) == 2

    def test_unknown_command_exit_2(self, capsys):
        assert run(["frobnicate"]) == 2
