from fractions import Fraction

import pytest

import tropcyl as tc
from tropcyl.serialize import (
    SchemaError,
    cylinder_to_json,
    frac_to_str,
    pair_from_json,
    parse_frac,
    spine_from_json,
    spine_to_json,
)

F = Fraction


class TestRationals:
    def test_roundtrip(self):
        for x in (F(3, 2), F(-1, 7), F(5), F(0)):
            assert parse_frac(frac_to_str(x)) == x

    def test_lowest_terms(self):
        assert frac_to_str(F(6, 4)) == "3/2"
        assert frac_to_str(F(2, -4)) == "-1/2"
        assert frac_to_str(3) == "3/1"  # an int is still wrapped

    def test_plain_integers_accepted(self):
        assert parse_frac("7") == 7
        assert parse_frac(3) == 3

    def test_garbage_rejected(self):
        with pytest.raises(SchemaError):
            parse_frac("1/0")
        with pytest.raises(SchemaError):
            parse_frac("x")
        with pytest.raises(SchemaError):
            parse_frac(1.5)


def _fraction_parse(s):
    """The parse before the `int` fast path: every string through `Fraction`."""
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {s!r}") from exc


def _parse_outcome(parse, s):
    try:
        x = parse(s)
    except SchemaError as exc:
        return ("raise", str(exc))
    assert type(x) is Fraction, (s, x)
    return ("value", x)


ODD_STRINGS = (
    "7", "-7", "0", "-0/1", "0/5", "01/2", "-007/3", "1/01", "1/00", "1/0",
    "-1/0", "--3", "--3/2", "-/2", "1/", "/2", "/", "-", "", "+1/2", " 1/2",
    "1/2 ", "1 / 2", "1_0/3", "1/1_0", "1.5", "1e3", "1/-2", "1/+2", "1//2",
    "1/2/3", "x", "1/x", "١/٢", "-٣/4", "3/٤", "²/3", "1/²", "１/２",
    "1" * 5000 + "/3", "1/" + "7" * 5000,
)


class TestParseFastPath:
    """Canonical "p/q" strings are read with `int`; every string parses to
    the `Fraction` value, or fails with the message, of the `Fraction`
    parse."""

    def test_canonical_grid(self):
        for p in range(-40, 41):
            for q in range(1, 41):
                s = f"{p}/{q}"
                assert _parse_outcome(parse_frac, s) == ("value", F(p, q)), s

    @pytest.mark.parametrize("s", ODD_STRINGS, ids=range(len(ODD_STRINGS)))
    def test_matches_fraction_parse(self, s):
        assert _parse_outcome(parse_frac, s) == _parse_outcome(_fraction_parse, s)


class TestPairFile:
    def test_parse(self):
        pair = pair_from_json({"self_intersections": [0, -1, 0, 0]})
        assert pair.self_intersections == (0, -1, 0, 0)

    def test_bad_shapes(self):
        with pytest.raises(SchemaError):
            pair_from_json({"pair": [1, 1, 1]})
        with pytest.raises(SchemaError):
            pair_from_json({"self_intersections": "nope"})
        with pytest.raises(SchemaError):
            pair_from_json({"self_intersections": [1, 1.5, 1]})


class TestSpineFile:
    def test_roundtrip_spine(self, del_pezzo):
        s = tc.family_spine(3, -1, 2, F(5, 4))
        back = spine_from_json(del_pezzo, spine_to_json(s))
        assert back == s

    def test_roundtrip_extended(self, del_pezzo):
        res = tc.extend(del_pezzo, tc.family_spine(2, -1, 1, 1))
        back = spine_from_json(del_pezzo, spine_to_json(res.extended))
        assert back == res.extended
        assert tc.validate_extended_spine(del_pezzo, back) == []

    def test_roundtrip_cylinder_body(self, del_pezzo):
        res = tc.extend(del_pezzo, tc.family_spine(2, 0, 2, 1))
        cyl = tc.cylinder_in_b(del_pezzo, res.extended)
        data = cylinder_to_json(cyl)
        assert data["legs"]
        back = spine_from_json(del_pezzo, data)
        assert back == cyl.tree

    def test_wall_points_canonicalized_on_parse(self, del_pezzo):
        data = {
            "vertices": [
                {"id": "a", "cone": 0, "coords": ["0/1", "2/1"]},
                {"id": "b", "cone": 1, "coords": ["2/1", "1/1"]},
            ],
            "edges": [
                {"tail": "a", "head": "b", "cone": 1,
                 "direction": [0, 1], "length": "1/1"},
            ],
            "boundary": ["a", "b"],
        }
        tree = spine_from_json(del_pezzo, data)
        assert tree.position("a") == del_pezzo.point(1, 2, 0)

    def test_missing_sections(self, del_pezzo):
        with pytest.raises(SchemaError):
            spine_from_json(del_pezzo, {"vertices": [], "edges": []})

    def test_bad_direction(self, del_pezzo):
        data = {
            "vertices": [{"id": "a", "cone": 0, "coords": ["1/1", "1/1"]}],
            "edges": [{"tail": "a", "head": "b", "cone": 0,
                       "direction": [0.5, 1], "length": "unbounded"}],
            "boundary": ["a", "b"],
        }
        with pytest.raises(SchemaError):
            spine_from_json(del_pezzo, data)
