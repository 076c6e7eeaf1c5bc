"""The bundled theories, the JSON input format, and its validation."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from emergent import (
    NotCentreless,
    NotTransitive,
    ParseError,
    ResourceLimit,
    load_theory,
    symmetric_group,
    theory_from_dict,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
MAKE_FIXTURES = FIXTURES.parent / "scripts" / "make_fixtures.py"

S3_DOC = {"degree": 3, "generators": {"global": [[1, 0, 2], [1, 2, 0]]}}


def test_symmetric_group_orders():
    for n, order in ((2, 2), (3, 6), (4, 24)):
        group = symmetric_group(n)
        assert group.degree == n
        assert group.order == order


def test_symmetric_group_needs_two_points():
    with pytest.raises(ParseError):
        symmetric_group(1)


def test_named_theories_shapes(request):
    # The session theories t1-t5 are the bundled fixtures, read by load_theory.
    shapes = {
        "t1": (3, 6),
        "t2": (9, 36),
        "t3": (6, 36),
        "t4": (27, 216),
        "t5": (4, 24),
    }
    for name, (degree, order) in shapes.items():
        theory = request.getfixturevalue(name)
        assert theory.degree == degree
        assert theory.group.order == order


def test_fixtures_regenerate_byte_for_byte(tmp_path):
    # The fixtures are the only definition of the bundled theories, so the
    # script that writes them must reproduce every committed file exactly.
    proc = subprocess.run(
        [sys.executable, str(MAKE_FIXTURES), "--out", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in FIXTURES.glob("*.json"))
    assert "bad_syntax.json" in written
    for name in written:
        assert (tmp_path / name).read_bytes() == (FIXTURES / name).read_bytes(), name


def test_diagonal_theory_is_every_two_sided_translation(t3):
    points = symmetric_group(3).elements
    index = {x: i for i, x in enumerate(points)}
    expected = {
        tuple(index[a * x * b.inverse()] for x in points) for a in points for b in points
    }
    assert [tuple(g) for g in t3.group] == sorted(expected)


def test_diagonal_theory_factors_act_freely(t3):
    # The six points are themselves group elements, so any nontrivial
    # one-sided translation moves every point.
    theory = t3
    ident = theory.group.identity
    free = [
        g
        for g in theory.group.elements
        if g != ident and all(g[p] != p for p in theory.points)
    ]
    assert len(free) >= 10


def test_theory_from_dict_minimal():
    theory, named = theory_from_dict(S3_DOC)
    assert theory.degree == 3
    assert theory.group.order == 6
    assert named == {}


def test_theory_from_dict_subgroups():
    data = json.loads((FIXTURES / "s3x3.json").read_text())
    theory, named = theory_from_dict(data)
    assert theory.group.order == 36
    assert set(named) == {"rows", "cols"}
    assert named["rows"].order == 6
    assert named["cols"].order == 6
    # Row permutations never change the column index.
    for g in named["rows"].members:
        assert all(g[p] % 3 == p % 3 for p in theory.points)
    for g in named["cols"].members:
        assert all(g[p] // 3 == p // 3 for p in theory.points)


@pytest.mark.parametrize(
    "data",
    [
        [1, 2, 3],
        {"generators": {"global": [[1, 0]]}},
        {"degree": 2},
        {"degree": 0, "generators": {"global": []}},
        {"degree": "3", "generators": {"global": []}},
        {"degree": 3, "generators": {"global": []}, "limits": [1]},
        {"degree": 3, "generators": {"global": []}, "limits": {"max_order": 0}},
        {"degree": 3, "generators": {"global": []}, "limits": {"max_order": "big"}},
        {"degree": 3, "generators": [[1, 0, 2]]},
        {"degree": 3, "generators": {"local": [[1, 0, 2]]}},
        {"degree": 3, "generators": {"global": "abc"}},
        {"degree": 3, "generators": {"global": [["a", "b", "c"]]}},
        {"degree": 3, "generators": {"global": [[1, 0]]}},
        {"degree": 3, "generators": {"global": [[0, 0, 1]]}},
        {**S3_DOC, "subgroups": [0]},
        {**S3_DOC, "subgroups": {"sub": "01"}},
        {**S3_DOC, "subgroups": {"sub": [0, 5]}},
        # JSON booleans are not integers, although Python's bool is an int.
        {"degree": True, "generators": {"global": [[0]]}},
        {**S3_DOC, "limits": {"max_order": True}},
        {"degree": 3, "generators": {"global": [[True, False, 2]]}},
        {**S3_DOC, "subgroups": {"a": [True]}},
    ],
)
def test_theory_from_dict_rejects_malformed(data):
    with pytest.raises(ParseError):
        theory_from_dict(data)


def test_theory_from_dict_rejects_invalid_theories():
    with pytest.raises(NotTransitive):
        theory_from_dict({"degree": 4, "generators": {"global": [[1, 0, 2, 3]]}})
    with pytest.raises(NotCentreless):
        theory_from_dict({"degree": 2, "generators": {"global": [[1, 0]]}})


def test_theory_from_dict_order_cap():
    capped = {**S3_DOC, "limits": {"max_order": 2}}
    with pytest.raises(ResourceLimit):
        theory_from_dict(capped)


def test_max_order_argument_replaces_only_the_limit():
    capped = {**S3_DOC, "limits": {"max_order": 2}}
    theory, _ = theory_from_dict(capped, max_order=6)
    assert theory.group.order == 6
    with pytest.raises(ResourceLimit):
        theory_from_dict(S3_DOC, max_order=2)
    with pytest.raises(ParseError):
        theory_from_dict({**S3_DOC, "limits": [1]}, max_order=6)
    with pytest.raises(ParseError):
        theory_from_dict(S3_DOC, max_order=0)
    with pytest.raises(ParseError):
        theory_from_dict(S3_DOC, max_order=True)


def test_load_theory_good_fixtures():
    expected = {
        "s3": (3, 6, {}),
        "s4": (4, 24, {}),
        "s3x3": (9, 36, {"rows": 6, "cols": 6}),
        "s3x3x3": (27, 216, {"first": 6, "second": 6, "third": 6}),
        "s3_diagonal": (6, 36, {"left": 6, "right": 6}),
    }
    for name, (degree, order, subs) in expected.items():
        theory, named = load_theory(FIXTURES / f"{name}.json")
        assert theory.degree == degree
        assert theory.group.order == order
        assert {k: v.order for k, v in named.items()} == subs


def test_load_theory_bad_fixtures():
    with pytest.raises(ParseError):
        load_theory(FIXTURES / "bad_syntax.json")
    with pytest.raises(ParseError):
        load_theory(FIXTURES / "bad_permutation.json")
    with pytest.raises(NotTransitive):
        load_theory(FIXTURES / "not_transitive.json")
    with pytest.raises(NotCentreless):
        load_theory(FIXTURES / "not_centreless.json")
    with pytest.raises(ResourceLimit):
        load_theory(FIXTURES / "s3_capped.json")
    with pytest.raises(ParseError):
        load_theory(FIXTURES / "no_such_file.json")


def test_theory_round_trip():
    # Every element listed as a generator, and each named subgroup as the
    # indices of its members, describes the same theory again.
    theory, named = load_theory(FIXTURES / "s3x3.json")
    elements = theory.group.elements
    index = {g: i for i, g in enumerate(elements)}
    data = {
        "degree": theory.degree,
        "generators": {"global": [list(g) for g in elements]},
        "subgroups": {
            name: [index[g] for g in sub.members] for name, sub in named.items()
        },
    }
    again, named_again = theory_from_dict(data)
    assert again.group.elements == theory.group.elements
    assert set(named_again) == set(named)
    for key in named:
        assert named_again[key].members == named[key].members
