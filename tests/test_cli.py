import argparse
import io
import json
import os
import shlex
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tropcyl as tc
from tropcyl import wallcross
from tropcyl.cli import (
    BASE_BITS, COMMANDS, TRACE_DIGITS, _command_parser, _parse, _top_parser, run)
from tropcyl.errors import brief
from tropcyl.serialize import spine_to_json
from subset_oracle import subset_count
import argv_oracle


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

    def test_length_cap(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"self_intersections": [-2] * 1001}))
        code, report = run_json(capsys, ["base", str(path)])
        assert code == 1
        assert report == {"error": "InvalidQuery",
                          "detail": "base is capped at l = 1000, got 1001"}

    @pytest.mark.parametrize("entries, bits", [
        ([-10 ** 100] * 50, 50 * 333),
        ([-10 ** 3999 - 7] * 1000, 1000 * 13285),
    ], ids=["50-entries-of-101-digits", "1000-entries-of-4000-digits"])
    def test_bit_cap(self, capsys, tmp_path, entries, bits):
        # the first used to end in a bare ValueError from `str` of a report
        # integer, the second to run for minutes; both now stop before any
        # lattice work
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"self_intersections": entries}))
        start = time.perf_counter()
        code, report = run_json(capsys, ["base", str(path)])
        assert time.perf_counter() - start < 1
        assert code == 1
        assert report == {"error": "InvalidQuery", "detail": (
            f"base is capped at {BASE_BITS} bits of |d| + 1 over the entries d, got {bits}")}

    def test_bit_cap_admits_a_pair_at_the_cap(self, capsys, tmp_path):
        # four entries -2^3499 have 4 * 3500 bits, the cap; one more bit is refused
        at_cap = [-2 ** 3499] * 4
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"self_intersections": at_cap}))
        code, report = run_json(capsys, ["base", str(path)])
        assert code == 0
        pair = tc.LooijengaPair(at_cap)
        (a, b), (c, d) = tc.monodromy(pair)
        assert report["monodromy"] == [[a, b], [c, d]]
        assert report["monodromy_trace"] == a + d
        assert report["positive"] is tc.is_positive(pair)
        path.write_text(json.dumps({"self_intersections": at_cap[1:] + [-2 ** 3500]}))
        code, report = run_json(capsys, ["base", str(path)])
        assert code == 1
        assert report["detail"].endswith(f"got {BASE_BITS + 1}")

    def test_long_semidefinite_cycle(self, capsys, tmp_path):
        # 2^30 principal minors: decided by elimination instead
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"self_intersections": [-2] * 30}))
        code, report = run_json(capsys, ["base", str(path)])
        assert code == 0
        assert report["positive"] is False

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
        ("top", "vertices", 5),
        ("top", "edges", 7),
        ("top", "boundary", [["a"], "b"]),
    ], ids=["edge-cone-str", "edge-cone-float", "edge-tail-int",
            "vertex-cone-bool", "origin-str", "coord-bool", "pair-bool",
            "vertices-int", "edges-int", "boundary-list"])
    def test_mistyped_field_exit_2(self, capsys, pair_file, spine_file,
                                   tmp_path, where, key, value):
        spine = json.loads(Path(spine_file).read_text())
        if where == "pair":
            path = tmp_path / "bad_pair.json"
            path.write_text(json.dumps({key: value}))
            argv = ["validate", str(path), spine_file]
        elif where == "top":
            spine[key] = value
            path = tmp_path / "bad_spine.json"
            path.write_text(json.dumps(spine))
            argv = ["validate", pair_file, str(path)]
        else:
            spine[where][0][key] = value
            path = tmp_path / "bad_spine.json"
            path.write_text(json.dumps(spine))
            argv = ["validate", pair_file, str(path)]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("tropcyl: ")

    @pytest.mark.parametrize("where, entry", [("vertices", "vertex"), ("edges", "edge")])
    def test_long_bad_entry_keeps_the_message_short(self, capsys, pair_file, spine_file,
                                                   tmp_path, where, entry):
        spine = json.loads(Path(spine_file).read_text())
        spine[where][0] = list(range(200_000))
        path = tmp_path / "big.json"
        path.write_text(json.dumps(spine))
        assert run(["validate", pair_file, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"tropcyl: bad {entry} entry [0, 1, 2, ")
        assert len(captured.err) < 100

    @pytest.mark.parametrize("where, key, value", [
        ("edges", "direction", [0, 0]),
        ("edges", "length", "0/1"),
        ("edges", "length", "-1/1"),
        ("top", "boundary", ["v1", "zz"]),
    ], ids=["zero-direction", "zero-length", "negative-length", "boundary-missing"])
    def test_degenerate_spine_is_structural_error(self, capsys, pair_file, spine_file,
                                                  tmp_path, where, key, value):
        # well-typed but degenerate values parse, and the structure check
        # reports them as a domain error
        spine = json.loads(Path(spine_file).read_text())
        if where == "top":
            spine[key] = value
        else:
            spine[where][0][key] = value
        path = tmp_path / "bad_spine.json"
        path.write_text(json.dumps(spine))
        code, report = run_json(capsys, ["validate", pair_file, str(path)])
        assert code == 1
        assert report["error"] == "StructuralError"

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

    @pytest.mark.parametrize("max_steps, code", [
        ("100000", 0), ("1", 1), ("100001", 1), ("0", 1), ("-1", 1),
        ("1000000000", 1)])
    def test_max_steps_bounds(self, capsys, pair_file, spine_file,
                              max_steps, code):
        # the family spine needs 3 steps: 1 runs out, the rest are refused
        got, report = run_json(capsys, ["extend", pair_file, spine_file,
                                        f"--max-steps={max_steps}"])
        assert got == code
        if code == 0:
            assert report["steps"] == 3
        else:
            expected = "NotExtendable" if max_steps == "1" else "InvalidQuery"
            assert report["error"] == expected

    def test_report_integer_past_the_str_limit(self, capsys, tmp_path):
        # used to end in a bare ValueError traceback from `%d` in the writer
        pair = tmp_path / "p.json"
        pair.write_text(json.dumps({"self_intersections": [0, -10 ** 2200, -10 ** 2200, 0]}))
        code, report = run_json(capsys, ["extend", str(pair), str(DATA / "spiral_start.json"),
                                         "--max-steps", "20"])
        assert code == 1
        assert report == {"error": "InvalidQuery", "detail": (
            f"the extend report has an integer of more than "
            f"{sys.get_int_max_str_digits()} digits")}

    @pytest.mark.parametrize("entry, max_steps", [(-4, 100_000), (-10 ** 1000, 100)])
    def test_hyperbolic_spiral_ends_at_once(self, capsys, tmp_path, entry, max_steps):
        # the cast used to run for its whole budget: an estimated 40 minutes for
        # (-4)^4 at 100,000 steps, and 13.5 s for (-10^1000)^4 at 100
        pair = tmp_path / "p.json"
        pair.write_text(json.dumps({"self_intersections": [entry] * 4}))
        start = time.perf_counter()
        code = run(["extend", str(pair), str(DATA / "spiral_start.json"),
                    "--max-steps", str(max_steps)])
        assert time.perf_counter() - start < 1
        assert code == 1
        assert capsys.readouterr().out == (
            f'{{"detail": "extension not finished after {max_steps} steps", '
            f'"error": "NotExtendable"}}\n')


class TestLongIds:
    """A vertex id of 200,000 characters is shown cut to 60 in a message;
    each of these used to repeat it in full."""

    LONG = "v" * 200_000

    def _spine(self, tmp_path, vertex_ids, edges):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "vertices": [{"id": vid, "cone": 0, "coords": [f"{k}/1", "1/1"]}
                         for k, vid in enumerate(vertex_ids, 1)],
            "edges": edges, "boundary": ["a", "b"]}))
        return str(path)

    def test_duplicate_id(self, capsys, tmp_path):
        spine = self._spine(tmp_path, [self.LONG, self.LONG], [])
        assert run(["validate", str(DATA / "dp.json"), spine]) == 2
        err = capsys.readouterr().err
        assert err == f"tropcyl: duplicate vertex id {brief(self.LONG)}\n"
        assert len(err) < 100

    def test_missing_head(self, capsys, tmp_path):
        spine = self._spine(tmp_path, ["a", "b"], [
            {"tail": "a", "head": self.LONG, "cone": 0, "direction": [1, 0],
             "length": "1/1"}])
        code, report = run_json(capsys, ["validate", str(DATA / "dp.json"), spine])
        assert code == 1
        assert report == {"error": "StructuralError",
                          "detail": f"edge ('a', {brief(self.LONG)}) references missing vertex"}
        assert len(report["detail"]) < 100


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

    def test_height_of_5000_digits_keeps_the_exit_contract(self):
        # used to count, then end in a bare ValueError traceback writing b
        _check_exit_contract(["count", "--l", "2", "--m", "0", "--n", "1", "--b", "1e5000"])

    @pytest.mark.parametrize("b", ["1" + "0" * TRACE_DIGITS, "1/" + "1" * (TRACE_DIGITS + 1),
                                   "-" + "7" * 4300],
                             ids=["numerator", "denominator", "4300-digits"])
    def test_height_past_the_digit_cap(self, capsys, b):
        code, report = run_json(capsys, ["count", "--l", "2", "--m", "0", "--n", "1",
                                         f"--b={b}"])
        assert code == 1
        assert report["error"] == "InvalidQuery"
        assert report["detail"] == (f"count takes the numerator and denominator of --b "
                                    f"of at most {TRACE_DIGITS} digits")

    def test_height_at_the_digit_cap(self, capsys):
        top = "9" * TRACE_DIGITS
        code, report = run_json(capsys, ["count", "--l", "2", "--m", "0", "--n", "1",
                                         "--b", f"{top}/{top[1:]}8"])
        assert code == 0
        assert report["count"] == 2
        assert report["b"] == f"{top}/{top[1:]}8"

    @pytest.mark.parametrize("command", ["count", "symmetry"])
    def test_l_above_cap(self, capsys, command):
        code, report = run_json(capsys, [command, "--l", "1001", "--m", "0", "--n", "0"])
        assert code == 1
        assert report["error"] == "InvalidQuery"
        assert "1000" in report["detail"]


class TestCountOracle:
    def test_oracle_is_the_subset_count(self, capsys):
        for l in range(1, wallcross.ORACLE_L_MAX + 1):
            for n in range(-1, l + 2):
                code, report = run_json(
                    capsys, ["count", f"--l={l}", f"--m={l % 5 - 2}", f"--n={n}"])
                assert code == 0
                assert report["oracle"] == subset_count(l, n), (l, n)
                assert report["match"] is True, (l, n)

    def test_table_rows_are_the_subset_counts(self, capsys):
        code, report = run_json(capsys, ["table", "--l-max", "20",
                                         "--m-min=-1", "--m-max=1"])
        assert code == 0
        assert report["verified"] is True
        assert [(r["l"], r["m"], r["counts"]) for r in report["rows"]] == [
            (l, m, [subset_count(l, n) for n in range(l + 1)])
            for m in (-1, 0, 1) for l in range(21)]


class TestOneShearEachWay:
    @pytest.mark.parametrize("argv", [
        ["count", "--l", "5", "--m", "3", "--n", "2"],
        ["count", "--l", "400", "--m", "-1", "--n", "7"],
        ["count", "--l", "2", "--m", "0", "--n", "1", "--b", "7/3"],
        ["symmetry", "--l", "4", "--m", "-1", "--n", "2"],
    ], ids=["count", "count-no-oracle", "count-b", "symmetry"])
    def test_each_direction_applied_once(self, capsys, monkeypatch, argv):
        # one coefficient read forwards (sign 1) and one backwards (sign -1),
        # and no whole shear image
        calls = []
        read = wallcross._shear_coefficient

        def counted(a, b, sign, j):
            calls.append(sign)
            return read(a, b, sign, j)

        monkeypatch.setattr(wallcross, "_shear_coefficient", counted)
        monkeypatch.setattr(wallcross, "focus_focus_apply",
                            lambda s: calls.append("focus_focus_apply"))
        code, _ = run_json(capsys, argv)
        assert code == 0
        assert sorted(calls) == [-1, 1]


class TestSymmetryCmd:
    def test_report(self, capsys):
        code, report = run_json(capsys, ["symmetry", "--l", "4", "--m", "-1", "--n", "2"])
        assert code == 0
        assert report["forward"] == 6
        assert report["symmetric"] is True

    def test_report_carries_the_backward_count(self, capsys, monkeypatch):
        # the backward count is reported as computed, not echoed from the
        # forward one, so a disagreement shows both values
        monkeypatch.setattr(tc.cli, "backward_count",
                            lambda q: wallcross.count(q) + 1)
        code, report = run_json(capsys, ["symmetry", "--l", "4", "--m", "-1", "--n", "2"])
        assert code == 1
        assert (report["forward"], report["backward"], report["symmetric"]) == (6, 7, False)


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

    def test_point_at_the_origin(self, capsys):
        # height 0 puts the central vertex, and so the trace at t = 0, at
        # the origin, which the report writes with no cone
        code, report = run_json(capsys, [
            "trace", "--l", "1", "--m", "0", "--n", "0", "--b", "0", "--t", "0"])
        assert code == 0
        assert report["points"] == [{"origin": True, "t": "0/1"}]

    def test_digit_cap(self, capsys):
        # an output coordinate past 4300 digits used to end in a bare
        # ValueError from the point writer
        nines = "9" * 4000
        code, report = run_json(capsys, ["trace", "--l", "3", "--m", "2", "--n", "1",
                                         "--b", f"{nines}/7", f"--t=1/{nines}"])
        assert code == 1
        assert report["error"] == "InvalidQuery"
        assert f"at most {TRACE_DIGITS} digits" in report["detail"]

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_every_input_at_the_cap(self, capsys, sign):
        top = "9" * TRACE_DIGITS
        code, report = run_json(capsys, [
            "trace", "--l", top, f"--m={sign}{top}", f"--n={sign}{top}",
            f"--b={sign}{top}/{'9' * (TRACE_DIGITS - 1)}8",
            f"--t={sign}{top}/{'9' * (TRACE_DIGITS - 1)}7,{top},-{top},1/{top}"])
        assert code == 0
        assert len(report["points"]) == 4

    @pytest.mark.parametrize("slot", range(6))
    def test_each_input_past_the_cap(self, capsys, slot):
        args = ["1", "0", "1", "1/1", "0/1", "1/1"]
        args[slot] = ("-1/1" if slot == 4 else "1") + "0" * TRACE_DIGITS
        l, m, n, b, t0, t1 = args
        code, report = run_json(capsys, ["trace", "--l", l, f"--m={m}", f"--n={n}",
                                         f"--b={b}", f"--t={t0},{t1}"])
        assert code == 1
        assert report["error"] == "InvalidQuery"


class TestExponentBound:
    """A --b or --t string whose exponent passes `serialize.EXPONENT_MAX`
    is malformed input, refused before `Fraction` builds its power of 10."""

    @pytest.mark.parametrize("argv", [
        ["count", "--l", "2", "--m", "0", "--n", "1", "--b", "1e10000000"],
        ["trace", "--l", "1", "--m", "0", "--n", "0", "--b", "1e10000000", "--t", "0"],
        ["trace", "--l", "1", "--m", "0", "--n", "0", "--b", "1", "--t=0,-1e-10000000"],
    ], ids=["count-b", "trace-b", "trace-t"])
    def test_refused_at_once(self, capsys, argv):
        start = time.perf_counter()
        code = run(argv)
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("tropcyl: bad rational ")
        assert "exponent beyond" in captured.err
        assert elapsed < 1


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

    @pytest.mark.parametrize("m_min, m_max, code", [
        (-50, 49, 0), (-50, 50, 1), (0, 10**9, 1), (1, 0, 1), (5, 5, 0),
        # len() of a range past sys.maxsize raised a bare OverflowError
        (-10**22, 10**22, 1)])
    def test_m_range_cap(self, capsys, m_min, m_max, code):
        got, report = run_json(capsys, ["table", "--l-max", "1",
                                        f"--m-min={m_min}", f"--m-max={m_max}"])
        assert got == code
        if code:
            assert report["error"] == "InvalidQuery"
        else:
            assert report["m_values"] == list(range(m_min, m_max + 1))

    def test_out_is_unrecognized(self, capsys):
        # the report goes to stdout only; there is no --out file
        assert run(["table", "--l-max", "3", "--out", "x"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == \
            "tropcyl: error: unrecognized arguments: --out x"


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

    def test_readme_command_lines_parse(self, capsys):
        # each `tropcyl ...` line of the README's sh blocks is a valid argv
        text = README.read_text(encoding="utf-8")
        lines = [shlex.split(line, comments=True)
                 for block in text.split("```sh\n")[1:]
                 for line in block.split("```")[0].splitlines()
                 if line.startswith("tropcyl ")]
        assert {argv[1] for argv in lines} == set(COMMANDS)
        for argv in lines:
            try:
                _parse(argv[1:])
            except SystemExit:
                pytest.fail(f"{' '.join(argv)}: {capsys.readouterr().err}")


DATA = Path(__file__).parent / "data"
README = Path(__file__).resolve().parent.parent / "README.md"

# Reports of the subcommands captured before a faster path replaced the
# old one (adjacency indexed once per tree; positivity by elimination
# instead of principal minors; one exact shear per count image); the
# inputs are in tests/data and the expected stdout in tests/data/golden.
GOLDEN = [
    ("base_dp", 0, ["base", "dp.json"]),
    ("base_m2x4", 0, ["base", "m2x4.json"]),
    ("base_toric_blowup", 0, ["base", "toric_blowup.json"]),
    ("base_nonpositive_10", 0, ["base", "nonpositive_10.json"]),
    ("base_m2x14", 0, ["base", "m2x14.json"]),
    ("validate_family_2_0_1", 0, ["validate", "dp.json", "family_2_0_1.json"]),
    ("extend_family_2_0_1", 0, ["extend", "dp.json", "family_2_0_1.json"]),
    ("validate_family_5_-3_2", 0, ["validate", "dp.json", "family_5_-3_2.json"]),
    ("extend_family_5_-3_2", 0, ["extend", "dp.json", "family_5_-3_2.json"]),
    ("validate_family_8_4_8", 0, ["validate", "dp.json", "family_8_4_8.json"]),
    ("extend_family_8_4_8", 0, ["extend", "dp.json", "family_8_4_8.json"]),
    ("validate_turn16", 0, ["validate", "turn16.json", "turn16_start.json"]),
    ("extend_turn16", 0, ["extend", "turn16.json", "turn16_start.json"]),
    ("validate_spiral", 0, ["validate", "m2x4.json", "spiral_start.json"]),
    ("extend_spiral", 1,
     ["extend", "m2x4.json", "spiral_start.json", "--max-steps", "200"]),
    ("validate_spiral_400", 0, ["validate", "m2x4.json", "spiral_400.json"]),
    ("extend_spiral_400", 1,
     ["extend", "m2x4.json", "spiral_400.json", "--max-steps", "200"]),
    ("count_5_3_2", 0, ["count", "--l", "5", "--m", "3", "--n", "2"]),
    ("count_20_-5_9", 0, ["count", "--l", "20", "--m", "-5", "--n", "9"]),
    ("count_400_4_133", 0, ["count", "--l", "400", "--m", "4", "--n", "133"]),
    ("count_1000_0_500", 0,
     ["count", "--l", "1000", "--m", "0", "--n", "500"]),
    ("count_2_0_1_b7-3", 0,
     ["count", "--l", "2", "--m", "0", "--n", "1", "--b", "7/3"]),
    ("symmetry_4_-1_2", 0, ["symmetry", "--l", "4", "--m", "-1", "--n", "2"]),
    ("symmetry_400_-9_7", 0,
     ["symmetry", "--l", "400", "--m", "-9", "--n", "7"]),
    ("table_20_-3", 0, ["table", "--l-max", "20", "--m-min=-3", "--m-max=-3"]),
    ("table_6_-2_2", 0, ["table", "--l-max", "6", "--m-min=-2", "--m-max=2"]),
    ("table_lmax_0", 1, ["table", "--l-max", "0"]),
    ("table_lmax_21", 1, ["table", "--l-max", "21"]),
    ("trace_2_0_1", 0,
     ["trace", "--l", "2", "--m", "0", "--n", "1", "--b", "1", "--t=-1,0,1/2"]),
]


def _check_golden(capsys, name, code, argv):
    argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
    assert run(argv) == code, name
    expected = (DATA / "golden" / f"{name}.out").read_text()
    assert capsys.readouterr().out == expected, name


class TestGolden:
    @pytest.mark.parametrize("name, code, argv", GOLDEN,
                             ids=[case[0] for case in GOLDEN])
    def test_report_is_byte_identical(self, capsys, name, code, argv):
        _check_golden(capsys, name, code, argv)


class TestCachedParser:
    """`run` parses a command with that command's parser alone, built on
    first use and reused by every later `run`; no call may build a parser
    again or leave state in one that changes a later call."""

    def test_first_call_builds_only_its_own_parser(self, capsys):
        _command_parser.cache_clear()
        _top_parser.cache_clear()
        assert run(["count", "--l", "5", "--m", "3", "--n", "2"]) == 0
        capsys.readouterr()
        assert _command_parser.cache_info().currsize == 1
        assert _top_parser.cache_info().currsize == 0

    def test_no_state_between_calls(self, capsys, monkeypatch):
        parsers = {name: _command_parser(name) for name in COMMANDS}
        top = _top_parser()
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        for case in GOLDEN:
            _check_golden(capsys, *case)
        assert run(["count", "--l", "x", "--m", "0", "--n", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid int value" in captured.err
        assert run(["count", "--l", "0", "--m", "0", "--n", "0", "extra"]) == 2
        assert "unrecognized arguments: extra" in capsys.readouterr().err
        assert run(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: tropcyl")
        assert run(["count", "--l", "0", "--m", "0", "--n", "0"]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == "InvalidQuery"
        for case in reversed(GOLDEN):
            _check_golden(capsys, *case)
        assert built == []
        assert all(_command_parser(name) is parsers[name] for name in COMMANDS)
        assert _top_parser() is top


class TestHelp:
    """The top-level help lists exactly the commands of `cli.COMMANDS`, in
    order and with their help, and each command has help of its own."""

    def test_top_level_help_lists_the_commands(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "120")
        assert run(["--help"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == f"usage: tropcyl [-h] {{{','.join(COMMANDS)}}} ..."
        listed = [line.split(None, 1) for line in out.splitlines()
                  if line.startswith("    ") and not line.startswith("     ")]
        assert listed == [[name, help_] for name, (help_, _, _) in COMMANDS.items()]

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_command_help(self, capsys, name):
        assert run([name, "--help"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(f"usage: tropcyl {name} ")
        assert captured.err == ""


# Integers and strings that mean something somewhere in a pair or spine
# file, so that mutations often get past the schema checks.
_SMALL_INTS = st.integers(-3, 3)
_WORDS = st.sampled_from(["1/2", "0/1", "-1/3", "3/1", "5/2", "1/0",
                          "unbounded", "v0", "v1", "v2", "a", "b", "x1"])
# A fixed alphabet: plain st.text() first builds a Unicode table, which
# takes seconds in a checkout without a .hypothesis cache.
_TEXT = st.text(alphabet='av01/-x "\\\n\u00e9\u2013', max_size=4)
_LEAVES = (st.none() | st.booleans() | _SMALL_INTS | st.integers()
           | st.floats() | _TEXT | _WORDS)
_KEYS = _TEXT | st.sampled_from(
    ["self_intersections", "vertices", "edges", "boundary", "id", "cone",
     "coords", "origin", "tail", "head", "direction", "length"])
ANY_JSON = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_KEYS, inner, max_size=3),
    max_leaves=4)


@st.composite
def mutated(draw, doc):
    """`doc`, a non-empty dict or list, with one value at some depth
    deleted, or replaced by a value of the same JSON type, a leaf value or
    arbitrary JSON.  Each level stops or descends with even odds, so top
    level entries are hit as often as leaves."""
    key = draw(st.sampled_from(sorted(doc) if isinstance(doc, dict)
                               else range(len(doc))))
    out = doc.copy()
    old = doc[key]
    if isinstance(old, (dict, list)) and old and draw(st.booleans()):
        out[key] = draw(mutated(old))
        return out
    how = draw(st.sampled_from(["same", "leaf", "json", "delete"]))
    if how == "delete":
        del out[key]
    elif how == "same" and isinstance(old, int) and not isinstance(old, bool):
        out[key] = draw(_SMALL_INTS)
    elif how == "same" and isinstance(old, str):
        out[key] = draw(_WORDS)
    else:
        out[key] = draw(ANY_JSON if how == "json" else _LEAVES)
    return out


def _load(name):
    return json.loads((DATA / name).read_text())


# Matching pair and spine files; the pairs have at most 8 entries, so
# `base` stays cheap.
VALID = st.sampled_from([
    (_load("dp.json"), _load("family_2_0_1.json")),
    (_load("dp.json"), _load("family_5_-3_2.json")),
    (_load("m2x4.json"), _load("spiral_start.json")),
    ({"self_intersections": [-1, -2, 0, 3, -1, -2, 0, -3]},
     _load("spiral_start.json")),
])
FILES = st.one_of(
    VALID.flatmap(lambda files: st.tuples(st.just(files[0]), mutated(files[1]))),
    VALID.flatmap(lambda files: st.tuples(mutated(files[0]), st.just(files[1]))),
    st.tuples(ANY_JSON, ANY_JSON))


# Heights and parameter values for `--b` and `--t`, well-formed or not.
_FRACS = st.sampled_from(["1", "7/3", "-1/2", "0", "2/4", "1/0", "x", ""])
_L = st.integers(-2, 1002)  # around 1 <= l <= L_MAX and the oracle's 20
_M = st.integers(-30, 30)


@st.composite
def query_argv(draw):
    """Well-formed argv of count, symmetry, table or trace: argparse
    accepts it, so the command itself decides the exit code."""
    command = draw(st.sampled_from(["count", "symmetry", "table", "trace"]))
    if command == "table":
        l_max = draw(st.integers(-1, 22))
        # long m-ranges only on small tables; 0 values means min > max
        width = draw(st.integers(0, 101 if l_max <= 3 else 2))
        m_min = draw(_M)
        return [command, f"--l-max={l_max}", f"--m-min={m_min}",
                f"--m-max={m_min + width - 1}"]
    l = draw(_L)
    argv = [command, f"--l={l}", f"--m={draw(_M)}",
            f"--n={draw(st.integers(-2, max(l, 0) + 2))}"]
    if command == "trace":
        ts = draw(st.lists(_FRACS, max_size=3))
        argv += [f"--b={draw(_FRACS)}", "--t=" + ",".join(ts)]
    elif command == "count" and draw(st.booleans()):
        argv.append(f"--b={draw(_FRACS)}")
    return argv


def _check_exit_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("tropcyl: ") and err.count("\n") == 1
    else:
        assert out.endswith("\n") and out.count("\n") == 1
        assert isinstance(json.loads(out), dict)
    assert "Traceback" not in err


class TestFuzz:
    @settings(max_examples=60, deadline=2000)
    @given(command=st.sampled_from(["base", "validate", "extend"]),
           files=FILES)
    def test_exit_contract(self, tmp_path_factory, command, files):
        d = tmp_path_factory.getbasetemp()
        for name, doc in zip(("fuzz_pair.json", "fuzz_spine.json"), files):
            (d / name).write_text(json.dumps(doc))
        argv = [command, str(d / "fuzz_pair.json")]
        if command != "base":
            argv.append(str(d / "fuzz_spine.json"))
        if command == "extend":
            argv += ["--max-steps", "50"]
        _check_exit_contract(argv)

    @settings(max_examples=60, deadline=2000)
    @given(argv=query_argv())
    def test_query_exit_contract(self, argv):
        _check_exit_contract(argv)


def _outcome(run_, argv):
    """(exit code, stdout, stderr) of `run_(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run_(argv)
    return code, out.getvalue(), err.getvalue()


_COUNT = ["count", "--l", "5", "--m", "3", "--n", "2"]
_EXTEND = ["extend", "dp.json", "family_2_0_1.json"]
ORACLE_ARGV = [
    # --opt=value and --opt value, negative values
    ["count", "--l=5", "--m=-3", "--n=2"],
    ["count", "--l", "5", "--m", "-3", "--n", "-1"],
    ["count", "--l", "2", "--m=0", "--n", "1", "--b=7/3"],
    ["count", "--l", "2", "--m", "0", "--n", "1", "--b", "-1/2"],
    ["symmetry", "--n", "2", "--m", "-1", "--l", "4"],
    ["table", "--l-max", "3", "--m-min", "-2", "--m-max", "-1"],
    ["trace", "--l", "2", "--m", "0", "--n", "1", "--b", "1", "--t=-1,0,1/2"],
    [*_EXTEND, "--max-steps", "2"],
    [*_EXTEND, "--max-steps=-1"],
    # abbreviations and repeated options
    [*_EXTEND, "--max", "5"],
    [*_EXTEND, "--max-s=5"],
    ["table", "--l-m", "3"],
    ["table", "--l-max", "3", "--m-m", "0"],
    [*_COUNT, "--l", "6"],
    [*_COUNT, "--b", "1", "--b", "7/3"],
    [*_EXTEND, "--max-steps", "1", "--max-steps", "50"],
    # usage errors
    ["count", "--l", "5", "--m", "3"],
    ["count"],
    ["base"],
    ["validate", "dp.json"],
    ["extend"],
    [*_COUNT, "extra"],
    [*_COUNT, "extra", "--more"],
    ["base", "dp.json", "dp.json"],
    [*_COUNT, "--", "x"],
    ["count", "--", "--l", "5"],
    ["count", "--l", "x", "--m", "0", "--n", "0"],
    ["count", "--l", "5.0", "--m", "0", "--n", "0"],
    ["table", "--l-max", "1", "--m-min", "1e3"],
    [*_EXTEND, "--max-steps", "ten"],
    ["trace", "--l", "2", "--m", "0", "--n", "1", "--b", "1", "--t", "-1,0"],
    [*_COUNT, "--b"],
    [*_COUNT, "--b="],
    [*_COUNT, "--x", "1"],
    [*_COUNT, "-x"],
    # the top-level parser
    [],
    ["--help"],
    ["-h"],
    ["--he"],
    ["-h", "count"],
    ["nope"],
    ["nope", "--l", "1"],
    ["Count", "--l", "1"],
    ["--version"],
    ["--version", *_COUNT],
    ["-x", "base", "dp.json"],
    ["-x", "count"],
    ["--"],
    ["--", "count"],
    ["--", *_COUNT],
    *([name, "--help"] for name in COMMANDS),
    *([name, "-h", "--l", "x"] for name in COMMANDS),
    *([name, "--he"] for name in COMMANDS),
]


class TestParserOracle:
    """`run` and the two-pass parse of `argv_oracle` give the same exit
    code, stdout and stderr, byte for byte, on well-formed argv, usage
    errors and help."""

    @pytest.mark.parametrize("argv", [case[2] for case in GOLDEN] + ORACLE_ARGV,
                             ids=[case[0] for case in GOLDEN]
                             + [" ".join(argv) or "empty" for argv in ORACLE_ARGV])
    def test_same_bytes(self, monkeypatch, argv):
        monkeypatch.chdir(DATA)
        assert _outcome(run, argv) == _outcome(argv_oracle.run, argv)

    @settings(max_examples=60, deadline=None)
    @given(argv=query_argv())
    def test_same_bytes_on_queries(self, argv):
        assert _outcome(run, argv) == _outcome(argv_oracle.run, argv)


SRC = Path(__file__).resolve().parent.parent / "src"


class TestProcess:
    """`python -m tropcyl.cli` run as its own process, which covers `main`,
    `sys.exit` and the flush of stdout at exit: the stdout bytes and the
    exit code of a success, a domain error, a malformed spine file and
    input files that are not readable JSON."""

    def _run(self, argv):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        return subprocess.run([sys.executable, "-m", "tropcyl.cli", *argv], cwd=DATA,
                              env=env, capture_output=True, timeout=60)

    @pytest.mark.parametrize("name, code, argv", [
        ("extend_family_2_0_1", 0, ["extend", "dp.json", "family_2_0_1.json"]),
        ("extend_spiral", 1,
         ["extend", "m2x4.json", "spiral_start.json", "--max-steps", "200"]),
    ], ids=["extend_family_2_0_1", "extend_spiral"])
    def test_report_bytes_and_exit_code(self, name, code, argv):
        out = self._run(argv)
        assert out.returncode == code
        assert out.stdout == (DATA / "golden" / f"{name}.out").read_bytes()
        assert out.stderr == b""

    def test_malformed_spine_exit_2(self, tmp_path):
        spine = tmp_path / "spine.json"
        spine.write_text(json.dumps({"vertices": "x", "edges": [], "boundary": []}))
        out = self._run(["extend", "dp.json", str(spine)])
        assert out.returncode == 2
        assert out.stdout == b""
        assert out.stderr.startswith(b"tropcyl: ")

    @pytest.mark.parametrize("content", [
        b'\xff{"self_intersections": [0, -1, 0, 0]}',
        b"[" * 100_000,
        b'{"self_intersections": [' + b"9" * 4301 + b"]}",
    ], ids=["not-utf-8", "deeper-than-recursion-limit", "int-of-4301-digits"])
    @pytest.mark.parametrize("command", ["base", "validate", "extend"])
    def test_unreadable_json_file_exit_2(self, tmp_path, command, content):
        # each used to end in a bare traceback, with exit 1 and no report
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        out = self._run([command, str(bad)] if command == "base"
                        else [command, "dp.json", str(bad)])
        assert out.returncode == 2
        assert out.stdout == b""
        assert out.stderr.startswith(b"tropcyl: ") and out.stderr.count(b"\n") == 1
