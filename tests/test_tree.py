"""Tree addresses, metric, heights, degree rules, serialization."""

import json
import time
import tracemalloc
from collections import deque
from itertools import starmap

import pytest
from hypothesis import given, strategies as st

from horoprod import tree
from horoprod.product import HoroProduct
from horoprod.tree import (
    AddressError,
    CustomRule,
    ExplicitCore,
    Line,
    ORIGIN,
    RankedBall,
    RayPeriodic,
    Regular,
    SpecError,
    TableTooLarge,
    TreeSpec,
    VertexAddress,
    busemann,
    down_move,
    gamma_ward,
    height,
    meet_depth,
    origin_dist,
    tree_dist,
    vertex_busemann,
)

R3 = TreeSpec.regular(3)
R4 = TreeSpec.regular(4)
LINE = TreeSpec.line()


def v(text):
    return VertexAddress.parse(text)


@st.composite
def addresses(draw, spec=R3, max_branch=5, max_depth=4):
    branch = draw(st.integers(0, max_branch))
    cur = VertexAddress(branch, ())
    for _ in range(draw(st.integers(0, max_depth))):
        count = spec.label_count(cur.branch, cur.suffix)
        if count == 0:
            break
        letter = draw(st.integers(0, count - 1))
        cur = VertexAddress(cur.branch, cur.suffix + (letter,))
    return cur


# -- addresses ----------------------------------------------------------------

def test_parse_and_format():
    assert str(v("0;")) == "0;"
    assert str(v("2;0.1.0")) == "2;0.1.0"
    assert v("0;") == ORIGIN
    assert v("3;") == VertexAddress(3, ())
    with pytest.raises(AddressError):
        VertexAddress.parse("17")
    with pytest.raises(AddressError):
        VertexAddress.parse("a;b")
    with pytest.raises(AddressError):
        VertexAddress(-1, ())


@given(addresses())
def test_text_round_trip(a):
    assert VertexAddress.parse(str(a)) == a


def test_gamma_ward():
    assert gamma_ward(v("0;0.1")) == v("0;0")
    assert gamma_ward(v("3;")) == v("4;")
    assert gamma_ward(ORIGIN) == v("1;")


def test_height():
    assert height(ORIGIN) == 0
    assert height(v("3;")) == -3
    assert height(v("1;0")) == 0


def test_dist_examples():
    assert tree_dist(v("2;0"), v("2;0")) == 0
    assert tree_dist(v("0;0"), v("2;")) == 3
    assert tree_dist(v("0;0.0"), v("0;0.1")) == 2


def test_busemann_examples():
    assert vertex_busemann(v("4;0.1"), ORIGIN) == 0
    assert vertex_busemann(v("2;"), v("0;0")) == 1
    assert vertex_busemann(v("0;0"), v("0;0.1")) == 0


@pytest.mark.parametrize("spec", [R3, TreeSpec.ray_periodic((3, 2), (2, 3))],
                         ids=["regular3", "ray_periodic"])
def test_busemann_of_a_vertex_is_its_definition(spec):
    ball = spec.ball(3)
    for z in ball:
        for y in ball:
            assert busemann(z, y) == vertex_busemann(z, y), (z, y)


@given(addresses(), addresses())
def test_dist_symmetry_and_zero(a, b):
    assert tree_dist(a, b) == tree_dist(b, a)
    assert (tree_dist(a, b) == 0) == (a == b)


@given(addresses(), addresses(), addresses())
def test_busemann_lipschitz(z, a, b):
    assert abs(vertex_busemann(z, a) - vertex_busemann(z, b)) <= tree_dist(a, b)


def test_triangle_inequality_exhaustive():
    ball = R3.ball(5)
    assert len(ball) == 94
    for a in ball:
        for b in ball:
            dab = tree_dist(a, b)
            for c in ball:
                assert dab <= tree_dist(a, c) + tree_dist(c, b)


def test_height_is_confluent_distance_difference():
    for a in R3.ball(5):
        c = VertexAddress(a.branch, ())
        assert height(a) == tree_dist(a, c) - tree_dist(ORIGIN, c)


# -- degrees and neighbors -----------------------------------------------------

def test_degree_examples():
    assert R3.degree(ORIGIN) == 3
    assert R3.degree(v("2;")) == 3
    assert LINE.degree(v("5;")) == 2
    with pytest.raises(AddressError):
        R3.degree(v("1;2"))


def test_neighbors_examples():
    assert set(R3.neighbors(ORIGIN)) == {v("1;"), v("0;0"), v("0;1")}
    assert set(R3.neighbors(v("1;"))) == {v("0;"), v("2;"), v("1;0")}
    assert set(R3.neighbors(v("0;0"))) == {v("0;"), v("0;0.0"), v("0;0.1")}


def test_neighbor_heights():
    for spec in (R3, R4, LINE):
        for a in spec.ball(4):
            ns = spec.neighbors(a)
            assert len(ns) == spec.degree(a)
            below = [b for b in ns if height(b) == height(a) - 1]
            above = [b for b in ns if height(b) == height(a) + 1]
            assert below == [gamma_ward(a)]
            assert len(above) == spec.degree(a) - 1


def test_ball_counts():
    assert len(R3.ball(0)) == 1
    assert len(R3.ball(1)) == 4
    assert len(R3.ball(2)) == 10
    assert [len(LINE.ball(r)) for r in range(4)] == [1, 3, 5, 7]


def test_dist_equals_bfs_over_neighbors():
    ball = R3.ball(4)
    members = set(ball)
    for src in ball:
        seen = {src: 0}
        queue = deque([src])
        while queue:
            cur = queue.popleft()
            if seen[cur] >= 8:
                continue
            for nxt in R3.neighbors(cur):
                if nxt not in seen:
                    seen[nxt] = seen[cur] + 1
                    queue.append(nxt)
        for dst in ball:
            assert seen[dst] == tree_dist(src, dst), (src, dst)


@given(addresses(spec=R4, max_branch=3, max_depth=3),
       addresses(spec=R4, max_branch=3, max_depth=3))
def test_meet_depth_properties(a, b):
    assert meet_depth(a, ORIGIN) == 0
    assert meet_depth(a, a) == origin_dist(a)
    assert 0 <= meet_depth(a, b) <= min(origin_dist(a), origin_dist(b))
    assert meet_depth(a, b) == meet_depth(b, a)


# -- validation ----------------------------------------------------------------

def test_validate_examples():
    assert TreeSpec(Regular(3), 3).validate() is None
    bad = TreeSpec(Line(), 3).validate()
    assert bad is not None and bad.witness == ORIGIN
    core = TreeSpec.explicit_core_of(R3, 2, 2)
    entries = tuple((t, 1 if t == "1;0" else d) for t, d in core.family.entries)
    leafy = TreeSpec(ExplicitCore(entries, 2, 2), 2)
    violation = leafy.validate()
    assert violation is not None
    assert violation.witness == v("1;0")


def test_is_valid_is_linear_in_the_address_length():
    # each letter is checked against a prefix grown in place, not a
    # slice, so 200,000 letters take well under a second
    word = (0,) * 200_000
    start = time.perf_counter()
    assert LINE.is_valid(VertexAddress(0, word))
    assert not LINE.is_valid(VertexAddress(0, word + (1,)))
    assert time.perf_counter() - start < 5


def test_validate_core_consistency():
    core = TreeSpec.explicit_core_of(R3, 2, 2)
    assert core.validate() is None
    # the witness is the first unlisted address in breadth-first order
    for absent, witness in ((("2;",), "2;"), (("1;0", "2;"), "2;"),
                            (("2;", "0;1"), "0;1")):
        missing = tuple(e for e in core.family.entries if e[0] not in absent)
        violation = TreeSpec(ExplicitCore(missing, 2, 2), 2).validate()
        assert violation.message == "core is missing a reachable address"
        assert violation.witness == v(witness)
    extra = core.family.entries + (("9;", 3),)
    assert TreeSpec(ExplicitCore(extra, 2, 2), 2).validate() is not None


def test_malformed_families():
    with pytest.raises(SpecError):
        RayPeriodic((), (2,))
    with pytest.raises(SpecError):
        ExplicitCore((("0;", 3),), 0, 1)
    with pytest.raises(SpecError):
        Regular(1)
    with pytest.raises(SpecError):
        TreeSpec(Regular(3), 4)


def test_ball_refuses_negative_radius():
    with pytest.raises(ValueError) as info:
        R3.ball(-1)
    assert str(info.value) == "radius must be >= 0"


def test_core_tail_degree_violation():
    violation = TreeSpec.explicit_core_of(R3, 2, 2, min_degree=3).validate()
    assert violation.message == "tail degree 2 < 3"
    assert violation.witness == v("3;")


def test_ray_periodic_degrees():
    spec = TreeSpec.ray_periodic([3, 2], [2, 3])
    assert spec.degree(ORIGIN) == 3
    assert spec.degree(v("1;")) == 2
    assert spec.degree(v("2;")) == 3
    assert spec.degree(v("0;0")) == 2
    assert spec.degree(v("0;0.0")) == 3
    assert spec.validate() is None
    flagged = TreeSpec.ray_periodic([3, 2], [2, 3], min_degree=3)
    violation = flagged.validate()
    assert violation is not None and violation.witness == v("1;")


def test_custom_rule_usable_for_structure():
    from horoprod.tree import CustomRule

    spec = TreeSpec(CustomRule(lambda b, s: 4 if b == 0 else 3), 3)
    assert spec.degree(ORIGIN) == 4
    assert len(spec.ball(2)) > len(R3.ball(2))
    assert spec.validate() is None


def test_custom_rule_validation_probes_to_radius_8():
    assert CustomRule.PROBE_RADIUS == 8
    for dist, found in ((9, False), (8, True)):
        rule = CustomRule(lambda b, s, dist=dist: 2 if b + len(s) == dist else 3)
        violation = TreeSpec(rule, 3).validate()
        assert (violation is not None) == found
        if found:
            assert origin_dist(violation.witness) == 8


# Each family's degree rule as its docstring states it, written out
# independently of the library's rule objects.
_BUMPY = TreeSpec.ray_periodic((3, 4), (4, 3))
FAMILY_DEGREES = [
    (R3, lambda a: 3),
    (LINE, lambda a: 2),
    (TreeSpec.ray_periodic((3, 4), (3,)),
     lambda a: 3 if a.suffix else (3, 4)[a.branch % 2]),
    (_BUMPY,
     lambda a: (4, 3)[(len(a.suffix) - 1) % 2] if a.suffix else (3, 4)[a.branch % 2]),
    # core copied from an irregular tree, so the tail differs from it
    (TreeSpec.explicit_core_of(_BUMPY, 3, 3),
     lambda a: _BUMPY.degree(a) if origin_dist(a) <= 3 else 3),
]


def _custom_rule(branch, suffix):
    return 4 if branch == 0 else 3 + len(suffix) % 2


def _custom_degree(a):
    return _custom_rule(a.branch, a.suffix)


@pytest.mark.parametrize("spec,degree", FAMILY_DEGREES + [
    (TreeSpec(CustomRule(_custom_rule), 3), _custom_degree)])
def test_position_rule_matches_address_rule(spec, degree):
    # the rule reads a (branch, suffix) position, suffix as any sequence
    for a in spec.ball(6):
        parent_links = 2 if a.branch and not a.suffix else 1
        expected = max(0, degree(a) - parent_links)
        assert spec.family.degree_at(a.branch, list(a.suffix)) == degree(a)
        assert spec.label_count(a.branch, list(a.suffix)) == expected
        assert spec.label_count(a.branch, a.suffix) == expected


def test_core_rule_reports_unlisted_address():
    core = TreeSpec(ExplicitCore((("0;", 3),), 1, 3), 2)
    with pytest.raises(SpecError):
        core.label_count(0, [0])
    assert core.label_count(0, [0, 1]) == 2  # past the radius


def test_core_reads_any_suffix_sequence_by_address():
    # the walk asks with its suffix list, other callers with tuples; the
    # text of an address shows only in the errors and witnesses
    core = TreeSpec.explicit_core_of(_BUMPY, 3, 3).family
    for a in _BUMPY.ball(3):
        assert core.degree_at(a.branch, list(a.suffix)) \
            == core.degree_at(a.branch, a.suffix) == _BUMPY.degree(a)
    with pytest.raises(SpecError, match="in-radius address 0;0.1$"):
        ExplicitCore((("0;", 3),), 2, 3).degree_at(0, [0, 1])
    # of two unreachable entries, the witness is the least text
    extra = core.entries + (("9;", 3), ("10;", 3))
    violation = TreeSpec(ExplicitCore(extra, 3, 3), 2).validate()
    assert violation.message == "core lists an unreachable address"
    assert violation.witness == v("10;")


# -- serialization -------------------------------------------------------------

@pytest.mark.parametrize("spec", [
    R3, R4, LINE,
    TreeSpec.ray_periodic([3, 2], [2, 3]),
    TreeSpec.explicit_core_of(R3, 2, 2),
    TreeSpec.regular(2),
    TreeSpec(Line(), 3),
    TreeSpec.ray_periodic([4], [3, 5, 3], min_degree=3),
    TreeSpec.explicit_core_of(TreeSpec.ray_periodic([3, 4], [3]), 3, 4, 3),
])
def test_spec_json_round_trip(spec):
    data = spec.to_json()
    assert TreeSpec.from_json(data) == spec
    assert TreeSpec.from_json(json.loads(json.dumps(data))) == spec


def test_custom_rule_not_serializable():
    from horoprod.tree import CustomRule

    with pytest.raises(SpecError):
        TreeSpec(CustomRule(lambda branch, suffix: 3), 2).to_json()


def _text_ranked_ball(spec, radius):
    """The reference table: ``ball`` sorted by address text, with each
    coordinate's ``up_moves`` and ``down_move`` read through that order
    as offsets from its own rank, the moves empty exactly at the radius
    and the down 0 where it leaves the ball."""
    order = sorted(spec.ball(radius), key=str)
    rank = {(a.branch, a.suffix): r for r, a in enumerate(order)}
    inner = [origin_dist(a) < radius for a in order]
    return RankedBall(
        [a.suffix[-1] if a.suffix else -1 for a in order],
        [rank.get(down_move(a.branch, a.suffix), r) - r
         for r, a in enumerate(order)],
        [tuple(rank[m] - r for m in spec.up_moves(a.branch, a.suffix))
         if i else () for r, (a, i) in enumerate(zip(order, inner))],
        [rank[(b, ())] for b in range(radius + 1)])


RANKED = {
    "regular3": (R3, 6),
    "regular12": (TreeSpec.regular(12), 3),         # labels past one digit
    "line14": (LINE, 14),                           # branches past one digit
    "line3000": (LINE, 3000),                       # deeper than recursion goes
    "ray_periodic": (TreeSpec.ray_periodic((2, 3), (3, 2)), 8),
    "core_regular3": (TreeSpec.explicit_core_of(R3, 3, 3), 6),
    "core_line": (TreeSpec.explicit_core_of(LINE, 4, 2), 12),
    "custom": (TreeSpec(CustomRule(lambda b, s: 3 + (b + len(s)) % 3)), 5),
    "radius0": (R3, 0),
    "radius1": (R3, 1),
}


@pytest.mark.parametrize("label", RANKED)
def test_ranked_ball_matches_text_sorted_reference(label):
    spec, radius = RANKED[label]
    table = spec.ranked_ball(radius)
    assert table == _text_ranked_ball(spec, radius)
    # every address reads back, one at a time and all at once
    addresses = table.addresses()
    assert [table.address(r) for r in range(len(addresses))] == addresses
    assert (list(starmap(VertexAddress, addresses))
            == sorted(spec.ball(radius), key=str))


def test_ranked_ball_peak_is_its_table():
    # the ranks come from one walk, so nothing larger than the table
    # itself (no texts, no second numbering) is alive while it is built
    tracemalloc.start()
    try:
        table = R4.ranked_ball(9)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table.labels) == 39_365
    assert peak <= 1.2 * kept, (peak, kept)


def test_ball_graph_peak_per_vertex():
    # tables, codes and edges are flat ints, keys are built when read, and
    # only the newest layer's positions are held: 157 B a vertex here
    # against 371 B with per-vertex suffixes, keys and a whole-ball dict
    dl34 = HoroProduct(R3, R4)
    tracemalloc.start()
    try:
        keys, edges = dl34.ball_graph(8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(keys) == 16_226
    assert peak / len(keys) <= 200, peak / len(keys)


@pytest.mark.parametrize("label", ["regular4", "core", "custom", "line"])
def test_table_budget_refuses_one_past_the_table(monkeypatch, label):
    # the budget counts every entry before it is numbered, on the copied
    # uniform subtrees (regular4), the walked ones (custom) and both
    spec, radius = {
        "regular4": (R4, 5),
        "core": (TreeSpec.explicit_core_of(R3, 2, 3), 4),
        "custom": (TreeSpec(CustomRule(lambda b, s: 3 + (b + len(s)) % 3)), 4),
        "line": (LINE, 30),
    }[label]
    size = len(spec.ranked_ball(radius).labels)
    monkeypatch.setattr(tree, "TABLE_BUDGET", size)
    assert len(spec.ranked_ball(radius).labels) == size
    monkeypatch.setattr(tree, "TABLE_BUDGET", size - 1)
    with pytest.raises(TableTooLarge):
        spec.ranked_ball(radius)
    # the ray alone is radius + 1 entries
    monkeypatch.setattr(tree, "TABLE_BUDGET", radius)
    with pytest.raises(TableTooLarge):
        spec.ranked_ball(radius)
