"""Boundary descriptors, their functions, and pointwise limit checks."""

import itertools
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from horoprod import verify
from horoprod.boundary import (
    boundary_limit_check,
    evaluate,
    hm_coordinates,
    level_point,
    parse_point,
    ray_point,
    standard_catalog,
    vertex_point,
)
from horoprod.product import (BASE, HoroProduct, ProductVertex, busemann_rows,
                              product_busemann)
from horoprod.rays import BranchingRay, GAMMA, level_sequence, parse_ray
from horoprod.tree import TreeSpec, VertexAddress, height
from test_cli_golden import MIXED

R3 = TreeSpec.regular(3)
R4 = TreeSpec.regular(4)
LINE = TreeSpec.line()
DL33 = HoroProduct(R3, R3)


def pv(text):
    return ProductVertex.parse(text)


def va(text):
    return VertexAddress.parse(text)


def test_point_text_round_trip():
    points = [
        ray_point(1, GAMMA),
        ray_point(2, BranchingRay(0, (0,), (1,))),
        vertex_point(1, va("0;0")),
        vertex_point(2, va("1;")),
        level_point(-2),
    ]
    for p in points:
        assert parse_point(str(p)) == p
    assert [str(p).partition(":")[0] for p in points] == [
        "C1", "C2", "T1", "T2", "Z"]
    assert str(level_point(-2)) == "Z:-2"
    assert str(ray_point(1, GAMMA)) == "C1:gamma"
    with pytest.raises(ValueError, match="unknown boundary tag"):
        parse_point("Q:3")
    with pytest.raises(ValueError, match="unparsable boundary point 'Z:x'"):
        parse_point("Z:x")


# Numerals as typed: canonical ones, and texts that int() would also read.
_NUMERALS = st.one_of(
    st.integers(-2, 12).map(str),
    st.sampled_from(["00", "007", "-0", "+1", "1_0", " 2", "2 ", "\u0663",
                     "", "x"]))


@st.composite
def _words(draw):
    return ".".join(draw(st.lists(_NUMERALS, max_size=3)))


@st.composite
def _vertex_texts(draw):
    sep = draw(st.sampled_from([";", ";", ";", "", ";;"]))
    return draw(_NUMERALS) + sep + draw(_words())


@st.composite
def _ray_texts(draw):
    return (draw(_NUMERALS) + ";" + draw(_words()) + "("
            + draw(_words()) + draw(st.sampled_from([")", ")", "", ")("])))


@st.composite
def _point_texts(draw):
    tag = draw(st.sampled_from(["C1", "C2", "T1", "T2", "Z", "C3", "z", ""]))
    sep = draw(st.sampled_from([":", ":", "", "::"]))
    payload = draw(st.one_of(_NUMERALS, _vertex_texts(), _ray_texts(),
                             st.just("gamma"), st.text(max_size=6)))
    return tag + sep + payload


@st.composite
def _edited(draw, texts):
    """One of the texts, as it stands or with one character inserted,
    replaced or dropped."""
    text = draw(st.sampled_from(texts))
    i = draw(st.integers(0, len(text)))
    c = draw(st.sampled_from("0123456789-;.|():_ \u0663"))
    return draw(st.sampled_from([text, text[:i] + c + text[i:],
                                 text[:i] + c + text[i + 1:],
                                 text[:i] + text[i + 1:]]))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_edited([str(p) for p in standard_catalog(DL33)]),
                 _point_texts(), st.text(max_size=12)))
@example("C2:1;0(1.0)")
@example("C1:0;0(0)")
@example("Z:-12")
@example("Z:1_0")
def test_parse_point_accepts_only_its_own_text(text):
    try:
        p = parse_point(text)
    except ValueError:
        return
    assert str(p) == text


@settings(max_examples=200, deadline=None)
@given(st.one_of(_edited([str(v) for v in DL33.ball(2)]),
                 st.tuples(_vertex_texts(), _vertex_texts()).map("|".join),
                 st.text(max_size=12)))
@example("0;0.1|2;")
@example("0;0|0;")
@example("0;|0;0_1")
def test_parse_vertex_accepts_only_its_own_text(text):
    try:
        v = ProductVertex.parse(text)
    except ValueError:
        return
    assert str(v) == text


def test_hm_coordinates():
    assert hm_coordinates(level_point(3)) == (GAMMA, GAMMA, 3)
    y1 = va("0;0")
    assert hm_coordinates(vertex_point(1, y1)) == (y1, GAMMA, 1)
    xi2 = BranchingRay(0, (), (0,))
    assert hm_coordinates(ray_point(2, xi2)) == (GAMMA, xi2, -math.inf)
    y2 = va("1;")
    assert hm_coordinates(vertex_point(2, y2)) == (GAMMA, y2, 1)
    assert hm_coordinates(pv("0;0|1;")) == (y1, y2, 1)


def test_theta_round_trip():
    points = [
        ray_point(1, BranchingRay(1, (), (0,))),
        ray_point(2, GAMMA),
        vertex_point(1, va("1;0")),
        vertex_point(2, va("2;")),
        level_point(0),
    ]
    assert len({hm_coordinates(p) for p in points}) == len(points)


@pytest.mark.parametrize("product", [
    DL33, HoroProduct(R3, R4), HoroProduct(R3, LINE), HoroProduct(LINE, R3),
    HoroProduct(TreeSpec.from_json(MIXED["tree1"]),
                TreeSpec.from_json(MIXED["tree2"]))],
    ids=["dl33", "dl34", "r3_line", "line_r3", "mixed"])
def test_rows_of_every_anchor_kind_are_evaluate(product):
    anchors = (standard_catalog(product, levels=range(-5, 6), vertex_radius=3)
               + product.ball(3))
    ys = product.ball(4)
    rows = busemann_rows([hm_coordinates(a) for a in anchors], ys)
    assert rows == [[evaluate(a, y) for y in ys] for a in anchors]


def test_eval_examples():
    y = pv("0;0|1;")
    assert evaluate(level_point(1), y) == 1
    for w in DL33.ball(3):
        assert evaluate(ray_point(1, GAMMA), w) == height(w.x1)
        assert evaluate(ray_point(2, GAMMA), w) == height(w.x2)
    assert evaluate(vertex_point(2, va("1;")), BASE) == 0


def test_eval_vanishes_at_base():
    for p in standard_catalog(DL33):
        assert evaluate(p, BASE) == 0
    assert evaluate(BASE, BASE) == 0
    z = pv("0;0|1;")
    assert evaluate(z, BASE) == 0


def test_interior_anchor_is_busemann():
    z = pv("0;0.1|2;")
    for y in DL33.ball(3):
        assert evaluate(z, y) == product_busemann(z, y)


def test_pinned_vertex_formulas_match_direct_limits():
    # the two pinned-vertex families evaluate exactly like the limits
    # of anchored Busemann functions with one coordinate frozen
    for payload in R3.ball(2):
        k = -height(payload)
        tail = []
        for v in level_sequence(R3, k):
            tail.append(v)
            if v.branch > 4:
                break
        anchors2 = [ProductVertex(t, payload) for t in tail[-3:]]
        anchors1 = [ProductVertex(payload, t) for t in tail[-3:]]
        for y in DL33.ball(3):
            want2 = evaluate(vertex_point(2, payload), y)
            assert all(product_busemann(a, y) == want2 for a in anchors2)
            want1 = evaluate(vertex_point(1, payload), y)
            assert all(product_busemann(a, y) == want1 for a in anchors1)


def test_catalog_shape():
    catalog = standard_catalog(DL33)
    assert len(catalog) >= 40
    tags = {str(p).partition(":")[0] for p in catalog}
    assert tags == {"C1", "C2", "T1", "T2", "Z"}
    assert len(set(map(str, catalog))) == len(catalog)


# The coordinates (xi1, xi2, eta) each tag stands for, read off its text.
TAG_TRIPLES = {
    "C1": lambda t: (parse_ray(t), GAMMA, math.inf),
    "C2": lambda t: (GAMMA, parse_ray(t), -math.inf),
    "T1": lambda t: (va(t), GAMMA, height(va(t))),
    "T2": lambda t: (GAMMA, va(t), -height(va(t))),
    "Z": lambda t: (GAMMA, GAMMA, int(t)),
}


@pytest.mark.parametrize("product", [
    DL33,
    HoroProduct(TreeSpec.from_json(MIXED["tree1"]),
                TreeSpec.from_json(MIXED["tree2"])),
    HoroProduct(R3, LINE), HoroProduct(LINE, LINE)],
    ids=["DL33", "MIXED", "R3xline", "linexline"])
def test_catalog_points_are_their_coordinates(product):
    catalog = standard_catalog(product)
    tags = set()
    for p in catalog:
        assert parse_point(str(p)) == p
        tag, _, rest = str(p).partition(":")
        tags.add(tag)
        assert (p.xi1, p.xi2, p.eta) == TAG_TRIPLES[tag](rest)
        assert hm_coordinates(p) == (p.xi1, p.xi2, p.eta)
    assert tags == set(TAG_TRIPLES)


@pytest.mark.parametrize("make", [lambda: ray_point(3, GAMMA),
                                  lambda: vertex_point(0, va("0;"))],
                         ids=["ray-side-3", "vertex-side-0"])
def test_points_live_in_tree_1_or_2(make):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value).startswith("side must be 1 or 2, got ")


def test_levels_drain_into_heights():
    seq_up = [level_point(k) for k in range(1, 9)]
    up = ray_point(1, GAMMA)
    # stabilization happens once the level clears the ball's heights:
    # every prefix that reaches index 4 ends on the target, and the
    # first three terms do not
    assert not any(boundary_limit_check(DL33, seq_up[:i + 1], up, 4)
                   for i in range(4, len(seq_up)))
    assert boundary_limit_check(DL33, seq_up[:3], up, 4)
    seq_down = [level_point(-k) for k in range(1, 9)]
    assert not boundary_limit_check(DL33, seq_down, ray_point(2, GAMMA), 4)


def test_pinned_points_march_to_ray():
    ray = BranchingRay(0, (), (1,))
    seq = [vertex_point(1, ray.vertex(n)) for n in range(1, 12)]
    assert not boundary_limit_check(DL33, seq, ray_point(1, ray), 3)


def test_ray_families_closed_under_ray_limits():
    # descriptors along converging eventually periodic rays stabilize
    # onto the limit ray's function, in both coordinates
    limit = BranchingRay(0, (), (0,))
    seq1 = [ray_point(1, BranchingRay(0, (0,) * n, (1,))) for n in range(1, 10)]
    assert not boundary_limit_check(DL33, seq1, ray_point(1, limit), 3)
    seq2 = [ray_point(2, BranchingRay(0, (0,) * n, (1,))) for n in range(1, 10)]
    assert not boundary_limit_check(DL33, seq2, ray_point(2, limit), 3)


def test_limit_check_reports_violations():
    violations = boundary_limit_check(DL33, [level_point(0)] * 4,
                                      level_point(1), 2)
    assert violations
    witness = violations[0]
    assert witness["expected"] != witness["last_value"]


def test_lipschitz_on_sample():
    from horoprod.product import product_dist

    catalog = standard_catalog(DL33)[::5]
    ball = DL33.ball(3)
    for p in catalog:
        vals = [evaluate(p, y) for y in ball]
        for (i, v), (j, w) in itertools.combinations(enumerate(ball), 2):
            assert abs(vals[i] - vals[j]) <= product_dist(v, w)


def _reference_limit_check(product, seq, target, radius):
    """The violations as a per-vertex loop of ``evaluate`` calls, against
    which the row-based check is compared."""
    violations = []
    for y in product.ball(radius):
        want = evaluate(target, y)
        value = evaluate(seq[-1], y) if seq else None
        if value != want:
            violations.append({"vertex": str(y), "expected": want,
                               "last_value": value})
    return violations


def test_limit_check_matches_reference_loop(monkeypatch):
    calls = []

    def recorded(product, seq, target, radius):
        calls.append((product, seq, target, radius))
        return boundary_limit_check(product, seq, target, radius)

    monkeypatch.setattr(verify, "boundary_limit_check", recorded)
    assert verify.closure_suite().ok
    assert len(calls) == 6
    calls += [(DL33, [level_point(0)] * 4, level_point(1), 2),
              (DL33, [], ray_point(1, GAMMA), 2)]
    for args in calls:
        assert boundary_limit_check(*args) == _reference_limit_check(*args)
    assert boundary_limit_check(*calls[-2])
    empty = boundary_limit_check(*calls[-1])
    assert len(empty) == len(DL33.ball(2))
    assert all(v["last_value"] is None for v in empty)
