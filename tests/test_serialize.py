import copy
import json
import time
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

import tropcyl as tc
from tropcyl.errors import brief
from tropcyl.serialize import (
    EXPONENT_MAX,
    SchemaError,
    extend_report,
    frac_to_str,
    pair_from_json,
    parse_frac,
    spine_from_json,
    spine_text,
    spine_to_json,
)

from tropcyl.extension import spine_legs
from tropcyl.spines import _ends_match

from cylinder_oracle import as_fraction_edge, fraction_make_edge
from point_oracle import (
    as_ints,
    fraction_coords_in_cone,
    fraction_parse_frac,
    fraction_spine_from_json,
    fraction_spine_to_json,
    split_ends_match,
)
from ray_oracle import outcome
from report_oracle import dict_spine_to_json

F = Fraction


class TestRationals:
    def test_roundtrip(self):
        for x in (F(3, 2), F(-1, 7), F(5), F(0)):
            assert parse_frac(frac_to_str(x)) == x

    def test_lowest_terms(self):
        assert frac_to_str(F(6, 4)) == "3/2"
        assert frac_to_str(F(2, -4)) == "-1/2"
        assert frac_to_str(3) == "3/1"  # an int prints over 1

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
        raise SchemaError(f"bad rational {brief(s)}") from exc


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


# exponents past EXPONENT_MAX; `Fraction("1e10000000")` alone takes seconds
BEYOND_EXPONENT = ("1e10000000", "-2.5E-10000000", "1e+000" + "9" * 4000,
                   f"1e{EXPONENT_MAX + 1}", f" 7e-{EXPONENT_MAX + 1} ", "1e" + "9" * 5000)


class TestExponentBound:
    """A rational string whose exponent would build a power of 10 past the
    4300 digits `int` reads is refused before `Fraction` builds it."""

    @pytest.mark.parametrize("s", [f"1e{EXPONENT_MAX}", f"-3.5e-{EXPONENT_MAX}",
                                   f"1E+0_{EXPONENT_MAX}", "1e٣", "1e-0"],
                             ids=range(5))
    def test_at_the_bound_matches_fraction_parse(self, s):
        assert _parse_outcome(parse_frac, s) == _parse_outcome(_fraction_parse, s)

    @pytest.mark.parametrize("s", BEYOND_EXPONENT, ids=range(len(BEYOND_EXPONENT)))
    def test_beyond_the_bound_is_refused_at_once(self, s):
        start = time.perf_counter()
        with pytest.raises(SchemaError, match="^bad rational "):
            parse_frac(s)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("path", [("vertices", 0, "coords", 0), ("edges", 0, "length")],
                             ids=["coordinate", "length"])
    def test_spine_string_beyond_the_bound(self, del_pezzo, path):
        data = _with(_family_json(), path, "1e10000000")
        start = time.perf_counter()
        with pytest.raises(SchemaError, match="exponent beyond"):
            spine_from_json(del_pezzo, data)
        assert time.perf_counter() - start < 1


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
        spine = tc.family_spine(2, 0, 2, 1)
        res = tc.extend(del_pezzo, spine)
        cyl = tc.cylinder_in_b(del_pezzo, res.extended)
        data = json.loads(extend_report(
            res, spine_legs(del_pezzo, spine, res.extended)))["cylinder"]
        assert data["legs"] == [list(leg) for leg in cyl.legs] != []
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
        assert tree.vertex("a").position == del_pezzo.point(1, 2, 0)

    def test_missing_sections(self, del_pezzo):
        with pytest.raises(SchemaError):
            spine_from_json(del_pezzo, {"vertices": [], "edges": []})

    def test_non_object(self, del_pezzo):
        with pytest.raises(SchemaError, match="^spine file must be a JSON object$"):
            spine_from_json(del_pezzo, [])

    def test_three_coords(self, del_pezzo):
        data = _with(_family_json(), ("vertices", 0, "coords"), ["1/1", "1/1", "1/1"])
        with pytest.raises(SchemaError, match="^vertex 'v0' coords must be a pair$"):
            spine_from_json(del_pezzo, data)

    def test_bad_direction(self, del_pezzo):
        data = {
            "vertices": [{"id": "a", "cone": 0, "coords": ["1/1", "1/1"]}],
            "edges": [{"tail": "a", "head": "b", "cone": 0,
                       "direction": [0.5, 1], "length": "unbounded"}],
            "boundary": ["a", "b"],
        }
        with pytest.raises(SchemaError):
            spine_from_json(del_pezzo, data)


DATA = Path(__file__).resolve().parent / "data"


def _family_json(l=3, m=-1, n=2, b=F(5, 4)):
    return spine_to_json(tc.family_spine(l, m, n, b))


def _with(data, path, value):
    """A deep copy of `data` with the entry at `path` set to `value`."""
    data = copy.deepcopy(data)
    *head, last = path
    target = data
    for key in head:
        target = target[key]
    target[last] = value
    return data


ODD_VALUES = (
    "1.0", " 1 ", "1e5", "١/1", "0x1", "nan", "inf", "1_0/1", "1" * 5000 + "/1",
    "2/4", "-1/2", "0/1", "1/0", "", True, False, 1.5, float("nan"), [1], {"a": 1},
    None, 3, -1, 10 ** 30,
)
# (where in the family spine file, the values put there)
PARSE_TABLE = (
    (("vertices", 0, "coords", 0), ODD_VALUES),
    (("vertices", 2, "coords", 1), ODD_VALUES),
    (("edges", 0, "length"), ODD_VALUES + ("unbounded",)),
    (("vertices", 1, "cone"), (10 ** 30, -7, True, 1.0, "0", None)),
    (("edges", 1, "cone"), (10 ** 30, -7, True, 1.0, "0", None)),
    (("edges", 0, "direction"), ([True, 1], [1.0, 0], [1], "ab", [10 ** 30, 1], [0, 0])),
    (("edges", 0, "tail"), ("nope", 3, None, "v2")),
    (("vertices", 0, "id"), (3, None, "v1", "w")),
    (("vertices", 1, "origin"), ("yes", 1, True, False)),
    (("vertices", 0), ("v0", None, {"id": "v0"}, {"id": "v0", "cone": 1})),
    (("edges", 1), ([], {"tail": "v0"})),
    (("boundary",), (["v1", "zz"], ["zz", "yy"], [1, 2], "ab", ["v1"], ["v2", "v1"])),
    (("vertices",), ({}, "x")),
)


def _table():
    base = _family_json()
    for path, values in PARSE_TABLE:
        for value in values:
            yield path, value, _with(base, path, value)


# the pair file each spine file under tests/data is read against
SPINE_PAIRS = {"family": "dp.json", "spiral": "m2x4.json", "turn16": "turn16.json"}


def _spine_files():
    """(base, data) for every spine file under tests/data."""
    out = []
    for path in sorted(DATA.glob("*.json")):
        data = json.loads(path.read_text())
        if "vertices" in data:
            pair = next(v for k, v in SPINE_PAIRS.items() if path.name.startswith(k))
            ds = json.loads((DATA / pair).read_text())["self_intersections"]
            out.append((tc.build_base(tuple(ds)), data))
    assert len(out) == 6
    return out


def _built_trees():
    """(base, tree) for a family-spine grid, spiral and one-turn prefixes,
    one-turn extensions and their cylinders (whose legs end at the
    origin)."""
    dp = tc.del_pezzo_base()
    for l, m, n, b in product((1, 2, 4), (-2, 0, 3), range(3), (F(1), F(3, 2), F(7, 3))):
        yield dp, tc.family_spine(l, m, max(0, min(n, l)), b)
    m2x4 = tc.build_base((-2,) * 4)
    tree = tc.make_tree(
        [tc.Vertex("a", m2x4.point(1, 2, 1)), tc.Vertex("b", m2x4.point(1, 1, 1))],
        [tc.make_edge("a", "b", 1, (-1, 0), 1)], ("a", "b"))
    for k in range(40):
        tree, _, _ = tc.extend_step(m2x4, tree, tree.boundary[1])
        if k % 13 == 0:
            yield m2x4, tree
    for k in (3, 7, 12):
        base = tc.build_base((-2,) * (k - 1) + (-1,))
        spine = tc.make_tree(
            [tc.Vertex("a", base.point(0, F(2, 3), F(1, 5))),
             tc.Vertex("b", base.point(0, F(1, 3), F(1, 5)))],
            [tc.make_edge("a", "b", 0, (-1, 0), F(1, 3))], ("a", "b"))
        prefix, finished = spine, False
        while not finished and len(prefix.vertices) < k:
            # the end "b" winds once round the origin before it leaves
            prefix, _, finished = tc.extend_step(base, prefix, prefix.boundary[1])
        yield base, prefix
        ext = tc.extend(base, spine).extended
        yield base, ext
        yield base, tc.cylinder_in_b(base, ext).tree


def _dumped(write, parse, base, data):
    return json.dumps(write(parse(base, data)), sort_keys=True)


class TestSpineParseParity:
    """The one-pass integer parse gives the tree, or the exception type and
    message, of the `Fraction` parse in `point_oracle`; and the writer
    gives the reference's bytes."""

    @pytest.mark.parametrize("s", ODD_STRINGS + ODD_VALUES,
                             ids=range(len(ODD_STRINGS + ODD_VALUES)))
    def test_parse_frac_matches_reference(self, s):
        assert outcome(parse_frac, s) == outcome(fraction_parse_frac, s)

    def test_malformed_and_non_canonical_files(self, del_pezzo):
        kinds = set()
        for path, value, data in _table():
            got = outcome(spine_from_json, del_pezzo, data)
            assert got == outcome(fraction_spine_from_json, del_pezzo, data), (path, value)
            kinds.add(got[0] if got[0] == "value" else got[1])
        assert kinds == {"value", SchemaError}

    def test_text_writer_matches_dict_writer(self):
        trees = ([spine_from_json(base, data) for base, data in _spine_files()]
                 + [tree for _, tree in _built_trees()])
        for tree in trees:
            assert spine_text(tree) == json.dumps(dict_spine_to_json(tree), sort_keys=True)

    def test_round_trip_matches_reference(self):
        cases = _spine_files() + [(base, spine_to_json(tree))
                                  for base, tree in _built_trees()]
        for base, data in cases:
            got = _dumped(spine_to_json, spine_from_json, base, data)
            assert got == _dumped(fraction_spine_to_json, fraction_spine_from_json,
                                  base, data)


class TestEdgeLengthsInIntegers:
    """An edge stores its length as the coprime integers (N, D): the parse
    gives the `Fraction` of the reference parse in lowest terms, the
    endpoint check on (N, D) agrees with the `Fraction` check, and the
    writer prints the reference's "p/q"."""

    def test_parse_check_and_write_match_the_fraction_form(self):
        cases = _spine_files() + [(base, spine_to_json(tree))
                                  for base, tree in _built_trees()]
        cases += [(tc.del_pezzo_base(), data) for _, _, data in _table()]
        bounded = 0
        for base, data in cases:
            try:
                tree = spine_from_json(base, data)
            except SchemaError:
                continue
            expected = []
            for item in data["edges"]:
                length = item["length"]
                expected.append(fraction_make_edge(
                    item["tail"], item["head"], item["cone"] % base.l, tuple(item["direction"]),
                    None if length == "unbounded" else fraction_parse_frac(length)))
            expected.sort(key=lambda e: (e.tail, e.head))
            assert [as_fraction_edge(e) for e in tree.edges] == expected
            ids = {v.id for v in tree.vertices}
            written = spine_to_json(tree)["edges"]
            for e, entry, ref in zip(tree.edges, written, expected):
                if e.ratio is None:
                    assert entry["length"] == "unbounded"
                    continue
                n, d = e.ratio
                assert d > 0 and F(n, d) == ref.length and (n, d) == (
                    ref.length.numerator, ref.length.denominator)
                assert entry["length"] == f"{ref.length.numerator}/{ref.length.denominator}"
                ends = [tree.vertex(x).position if x in ids else None for x in (e.tail, e.head)]
                if None in ends:
                    continue
                ref_ends = [fraction_coords_in_cone(base, x, e.cone) for x in ends]
                if None in ref_ends:
                    continue
                bounded += 1
                assert _ends_match(*map(as_ints, ref_ends), e.ratio, e.direction) == \
                    split_ends_match(*ref_ends, ref.length, e.direction)
        assert bounded > 100


EDGE_KEYS = ("tail", "head", "cone", "direction", "length")


class TestEdgeKeyRead:
    """The five keys of an edge entry are read at once; a missing one is
    named as the check of one key at a time named it, the first in
    tail, head, cone, direction, length order, and a `bool` stays no
    integer."""

    @pytest.mark.parametrize("missing", [(k,) for k in EDGE_KEYS]
                             + list(combinations(EDGE_KEYS, 2)),
                             ids=lambda keys: "-".join(keys))
    def test_missing_keys_name_the_first(self, del_pezzo, missing):
        data = _family_json()
        for key in missing:
            del data["edges"][1][key]
        got = outcome(spine_from_json, del_pezzo, data)
        assert got == outcome(fraction_spine_from_json, del_pezzo, data)
        assert got == ("raise", SchemaError, f'edge entry needs "{missing[0]}"')

    @pytest.mark.parametrize("flag", [True, False])
    @pytest.mark.parametrize("path", [("cone",), ("direction", 0), ("direction", 1)],
                             ids=lambda path: "-".join(map(str, path)))
    def test_bool_cone_or_direction_is_rejected(self, del_pezzo, path, flag):
        data = _with(_family_json(), ("edges", 0, *path), flag)
        got = outcome(spine_from_json, del_pezzo, data)
        assert got == outcome(fraction_spine_from_json, del_pezzo, data)
        assert got[:2] == ("raise", SchemaError)


E5000 = 10 ** 5000


class TestBadEntriesAreBrief:
    """A bad entry, a long int among them, is shown by `brief` in the
    message: it stays short, and formatting it cannot raise."""

    @pytest.mark.parametrize("data, message", [
        ({"vertices": [E5000], "edges": [], "boundary": ["a", "b"]},
         "bad vertex entry <int of 5001 digits>"),
        ({"vertices": [], "edges": [E5000], "boundary": ["a", "b"]},
         "bad edge entry <int of 5001 digits>"),
        ({"vertices": [[E5000, 1]], "edges": [], "boundary": ["a", "b"]},
         "bad vertex entry [<int of 5001 digits>, 1]"),
    ], ids=["vertex", "edge", "nested"])
    def test_long_int_entry(self, del_pezzo, data, message):
        with pytest.raises(SchemaError) as info:
            spine_from_json(del_pezzo, data)
        assert str(info.value) == message

    def test_long_entry_and_rational(self, del_pezzo):
        data = {"vertices": [list(range(200_000))], "edges": [], "boundary": ["a", "b"]}
        with pytest.raises(SchemaError, match="^bad vertex entry ") as info:
            spine_from_json(del_pezzo, data)
        assert len(str(info.value)) < 100
        data = _with(_family_json(), ("vertices", 0, "coords", 0), "1/" + "7" * 5000)
        with pytest.raises(SchemaError, match="^vertex 'v0': bad rational '1/777") as info:
            spine_from_json(del_pezzo, data)
        assert len(str(info.value)) < 100
