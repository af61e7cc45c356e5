"""Product vertices, adjacency, the closed-form metric and its oracle."""

import ast
from bisect import bisect
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from horoprod import verify
from horoprod.product import (
    BASE,
    HeightMismatch,
    HoroProduct,
    ProductVertex,
    busemann_rows,
    product_busemann,
    product_dist,
    product_height,
    product_key,
)
from horoprod.tree import (CustomRule, TreeSpec, VertexAddress, gamma_ward,
                           height, origin_dist, tree_dist)

R3 = TreeSpec.regular(3)
R4 = TreeSpec.regular(4)
LINE = TreeSpec.line()
DL33 = HoroProduct(R3, R3)
DL34 = HoroProduct(R3, R4)
DL3LINE = HoroProduct(R3, LINE)
MIXED = HoroProduct(TreeSpec.ray_periodic((3, 4), (3,)),
                    TreeSpec.explicit_core_of(R3, 3, 3))
# the core ends at origin distance 2, well inside the balls tested
CORE = HoroProduct(TreeSpec.explicit_core_of(R4, 2, 3), R3)
PERIODIC = HoroProduct(TreeSpec.ray_periodic((2, 3), (3, 2)),
                       TreeSpec.ray_periodic((4,), (3,)))
CUSTOM = HoroProduct(TreeSpec(CustomRule(
    lambda b, s: 4 if (b + len(s)) % 3 == 0 else 3), 3), R3)


def pv(text):
    return ProductVertex.parse(text)


def test_vertex_construction():
    assert product_height(BASE) == 0
    ok = DL33.vertex(VertexAddress.parse("0;0"), VertexAddress.parse("1;"))
    assert product_height(ok) == 1
    with pytest.raises(HeightMismatch) as err:
        ProductVertex(VertexAddress.parse("0;0"), VertexAddress.parse("0;"))
    assert (err.value.h1, err.value.h2) == (1, 0)


def test_vertex_text_round_trip():
    for text in ("0;|0;", "0;0|1;", "2;0.1|1;0", "0;1.0.1|3;"):
        assert str(pv(text)) == text


def test_neighbors_base():
    ns = DL33.neighbors(BASE)
    assert len(ns) == 4
    assert set(map(str, ns)) == {"0;0|1;", "0;1|1;", "1;|0;0", "1;|0;1"}
    assert pv("0;0|1;") in ns  # climbing into the first tree's child 0


def test_neighbor_counts():
    assert all(len(DL3LINE.neighbors(v)) == 3 for v in DL3LINE.ball(2))
    assert len(DL34.neighbors(BASE)) == 5
    for v in DL33.ball(3):
        assert len(DL33.neighbors(v)) == DL33.degree(v) == 4


def test_edges_change_height_by_one():
    for v in DL33.ball(3):
        for w in DL33.neighbors(v):
            assert abs(product_height(v) - product_height(w)) == 1
            assert height(w.x1) + height(w.x2) == 0


def test_dist_examples():
    a = pv("0;0|1;")
    b = pv("0;1|1;")
    assert product_dist(a, a) == 0
    assert product_dist(BASE, a) == 1
    assert product_dist(a, b) == 2


def test_dist_bfs_examples():
    assert DL33.dist_bfs(BASE, BASE, 5) == 0
    assert DL33.dist_bfs(BASE, pv("0;0|1;"), 3) == 1
    far = pv("2;|0;0.0")
    assert product_dist(BASE, far) == 2
    assert DL33.dist_bfs(BASE, far, 1) is None
    assert DL33.dist_bfs(BASE, far, 2) == 2


@pytest.mark.parametrize("call,message", [
    (lambda: DL33.ball(-1), "radius must be >= 0"),
    (lambda: DL33.dist_bfs(BASE, BASE, -1), "radius_cap must be >= 0"),
], ids=["ball", "dist-bfs"])
def test_negative_radius_refused(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_busemann_examples():
    z = pv("0;0|1;")
    y = pv("0;1|1;")
    assert product_busemann(z, BASE) == 0
    assert product_busemann(z, y) == 1
    for y in DL33.ball(3):
        assert product_busemann(BASE, y) == product_dist(BASE, y)


def test_busemann_identity_on_ball():
    ball = DL33.ball(3)
    for z in ball:
        base_d = product_dist(z, BASE)
        for y in ball:
            assert product_busemann(z, y) == product_dist(z, y) - base_d


def test_ball_sizes():
    assert [len(DL33.ball(r)) for r in range(5)] == [1, 5, 15, 39, 92]
    # second route: filter a larger ball by the closed-form distance
    big = DL33.ball(4)
    assert sum(1 for v in big if product_dist(BASE, v) <= 2) == 15


def test_ball_deterministic_and_valid():
    once = [str(v) for v in DL33.ball(3)]
    again = [str(v) for v in DL33.ball(3)]
    assert once == again
    assert len(once) == len(set(once))


def test_dist_lower_bounds():
    ball = DL33.ball(4)
    for v in ball:
        for w in ball:
            d = product_dist(v, w)
            assert d >= tree_dist(v.x1, w.x1)
            assert d >= tree_dist(v.x2, w.x2)
            assert d >= abs(product_height(v) - product_height(w))


@st.composite
def ball_vertices(draw, product=DL33, radius=3):
    ball = product.ball(radius)
    return ball[draw(st.integers(0, len(ball) - 1))]


@settings(max_examples=60, deadline=None)
@given(ball_vertices(), ball_vertices())
def test_formula_matches_bfs(v, w):
    assert DL33.dist_bfs(v, w, 12) == product_dist(v, w)


def _coordinate(draw, spec, h, reach):
    """A vertex of the tree at height h and origin distance >= reach.
    Its labels are random, so it may share any prefix with a ball."""
    lo = max(0, -h, -(-(reach - h) // 2))
    branch = draw(st.integers(lo, lo + 3))
    v = VertexAddress(branch, ())
    for _ in range(branch + h):
        label = draw(st.integers(0, spec.label_count(v.branch, v.suffix) - 1))
        v = VertexAddress(branch, v.suffix + (label,))
    return v


def _coords(z):
    return (z.x1, z.x2, height(z.x1))


@st.composite
def rows_inputs(draw):
    """Ball vertices of a product (repeats allowed), their reaches and
    height cap, and anchors on both sides of those bounds."""
    product = draw(st.sampled_from([DL33, DL34, MIXED]))
    ball = product.ball(draw(st.integers(0, 3)))
    ys = draw(st.lists(st.sampled_from(ball), min_size=1, max_size=40))
    reach1 = max(origin_dist(y.x1) for y in ys)
    reach2 = max(origin_dist(y.x2) for y in ys)
    cap = max(abs(product_height(y)) for y in ys)
    anchors = []
    for _ in range(draw(st.integers(1, 6))):
        h = draw(st.integers(-cap - 3, cap + 3))
        anchors.append(ProductVertex(
            _coordinate(draw, product.tree1, h, draw(st.integers(0, reach1 + 3))),
            _coordinate(draw, product.tree2, -h, draw(st.integers(0, reach2 + 3)))))
    return product, ys, (reach1, reach2, cap), anchors


@settings(max_examples=150, deadline=None)
@given(rows_inputs())
def test_busemann_rows_are_product_busemann(case):
    _, ys, _, anchors = case
    assert busemann_rows([_coords(z) for z in anchors], ys) == [
        [product_busemann(z, y) for y in ys] for z in anchors]


@settings(max_examples=100, deadline=None)
@given(rows_inputs(), st.booleans(), st.data())
def test_busemann_rows_share_past_reach_and_cap(case, up, data):
    """An anchor past both reaches and the height cap, and its neighbour
    one step further out, get one row object."""
    product, ys, (reach1, reach2, cap), _ = case
    h = data.draw(st.integers(cap, cap + 2)) * (1 if up else -1)
    z = ProductVertex(_coordinate(data.draw, product.tree1, h, reach1 + 1),
                      _coordinate(data.draw, product.tree2, -h, reach2 + 1))
    if up:
        w = ProductVertex(VertexAddress(z.x1.branch, z.x1.suffix + (0,)),
                          gamma_ward(z.x2))
    else:
        w = ProductVertex(gamma_ward(z.x1),
                          VertexAddress(z.x2.branch, z.x2.suffix + (0,)))
    first, second = busemann_rows([_coords(z), _coords(w)], ys)
    assert first is second
    assert second == [product_busemann(w, y) for y in ys]


def _ball_graph_rows(product, radius):
    """The neighbour rows of ``ball_graph(radius)``, read from its flat
    edge list after checking it: the keys are the ball's, each edge is
    listed once as positions a < b whose ends lie in consecutive
    breadth-first layers, and row i holds, in some order, the
    neighbours of vertex i that lie in the ball."""
    keys, edges = product.ball_graph(radius)
    verts = product.ball(radius)
    assert keys == list(map(product_key, verts))
    pairs = list(zip(edges[::2], edges[1::2]))
    assert 2 * len(pairs) == len(edges) and len(set(pairs)) == len(pairs)
    # position i lies in layer bisect(ends, i)
    ends = [len(product.ball(r)) for r in range(radius)]
    rows = [[] for _ in keys]
    for a, b in pairs:
        assert a < b and bisect(ends, b) == bisect(ends, a) + 1
        rows[a].append(b)
        rows[b].append(a)
    index = {v: i for i, v in enumerate(verts)}
    for v, i in index.items():
        inside = [index[w] for w in product.neighbors(v) if w in index]
        assert sorted(rows[i]) == sorted(inside)
    return rows


def test_ball_graph_is_the_edge_relation():
    rows = _ball_graph_rows(DL33, 3)
    # DL(3,3) is 4-regular, and an inner vertex's neighbours all lie in
    # the ball
    inner = len(DL33.ball(2))
    assert {len(row) for row in rows[:inner]} == {4}
    assert all(len(row) < 4 for row in rows[inner:])


def _tree_level_neighbors(product, v):
    """The product edge relation written out from the two trees' own
    neighbour rules: up moves first, then down moves."""
    down1, down2 = gamma_ward(v.x1), gamma_ward(v.x2)
    return ([ProductVertex(u, down2) for u in product.tree1.up_neighbors(v.x1)]
            + [ProductVertex(down1, u) for u in product.tree2.up_neighbors(v.x2)])


@pytest.mark.parametrize("product,radius", [
    (CORE, 5), (PERIODIC, 5), (CUSTOM, 4),
    *((MIXED, radius) for radius in range(4, 9)),
], ids=["explicit-core", "ray-periodic", "custom-rule",
        *(f"mixed-{radius}" for radius in range(4, 9))])
def test_key_relation_matches_tree_relation(product, radius):
    for v in product.ball(radius):
        assert product.neighbors(v) == _tree_level_neighbors(product, v)
    _ball_graph_rows(product, radius)


def test_ball_order_is_layers_sorted_by_text():
    ball = MIXED.ball(4)
    depths = [MIXED.dist_bfs(BASE, v, 4) for v in ball]
    assert depths == sorted(depths)
    for d in range(5):
        layer = [v for v, k in zip(ball, depths) if k == d]
        assert layer == sorted(layer, key=lambda v: (str(v.x1), str(v.x2)))
    # nothing within the radius is left out
    inside = set(ball)
    for v in ball:
        for w in MIXED.neighbors(v):
            assert w in inside or MIXED.dist_bfs(BASE, w, 4) is None


def _reference_ball(product, radius):
    """Breadth-first layers over ``neighbors``, each layer sorted by
    (str(x1), str(x2))."""
    layers, seen = [[BASE]], {BASE}
    for _ in range(radius):
        nxt = {w for v in layers[-1] for w in product.neighbors(v)} - seen
        seen |= nxt
        layers.append(sorted(nxt, key=lambda v: (str(v.x1), str(v.x2))))
    return layers


LINE_LINE = HoroProduct(LINE, LINE)
R12_R3 = HoroProduct(TreeSpec.regular(12), R3)


@pytest.mark.parametrize("product,radius,widest,reorders", [
    (LINE_LINE, 11, 11, False), (LINE_LINE, 14, 14, False),
    (R12_R3, 3, 10, True), (CUSTOM, 4, 4, False),
], ids=["line-line-11", "line-line-14", "regular12-regular3", "custom-rule"])
def test_ball_order_past_one_digit(product, radius, widest, reorders):
    # widest: the largest branch or label in the ball; reorders: whether
    # sorting as text (label 10 before 2) differs from sorting as
    # numbers.  On two lines a layer holds two vertices whose first
    # coordinates differ in their first character, so only the texts of
    # branches 10 and up are pinned there, not a reordering.
    layers = _reference_ball(product, radius)
    expected = [v for layer in layers for v in layer]
    assert max(n for v in expected for u in (v.x1, v.x2)
               for n in (u.branch, *u.suffix)) == widest
    numeric = [v for layer in layers for v in sorted(layer, key=product_key)]
    assert (numeric != expected) == reorders
    assert product.ball(radius) == expected
    _ball_graph_rows(product, radius)


def test_geometry_modules_import_no_numpy():
    # the library loads numpy only where it computes with it (ROADMAP
    # item 11), so the tree and product geometry must not import it
    src = Path(verify.__file__).parent
    for name in ("tree.py", "product.py"):
        modules = set()
        for node in ast.walk(ast.parse((src / name).read_text())):
            if isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module:
                modules.add(node.module)
        assert not {m for m in modules if m.split(".")[0] == "numpy"}, name


def test_dist_bfs_respects_cap():
    ball = MIXED.ball(3)
    for v in ball[::5]:
        for w in ball:
            d = product_dist(v, w)
            for cap in range(d - 1, d + 2):
                if cap >= 0:
                    assert MIXED.dist_bfs(v, w, cap) == (d if d <= cap else None)


def test_bitset_sweep_matches_dist_bfs():
    # 104 sources: two uint64 words, and degrees 4 and 5 plus the cut at
    # the ball's rim give a ragged neighbour table
    radius = 4
    keys, edges = MIXED.ball_graph(2 * radius)
    rows = _ball_graph_rows(MIXED, 2 * radius)
    verts = MIXED.ball(2 * radius)
    sources = len(MIXED.ball(radius))
    assert sources > 64 and len(set(map(len, rows))) > 2
    # the scattered neighbour table is the one padded row by row, up to
    # the order within each row
    n = len(keys)
    table = np.full((n, max(map(len, rows))), n, dtype=np.int32)
    for v, row in enumerate(rows):
        table[v, :len(row)] = sorted(row)
    built = verify._neighbour_table(n, edges)
    assert built.dtype == table.dtype
    assert np.array_equal(np.sort(built, axis=1), table)
    dist, levels = verify._bitset_distances(n, edges, sources)
    assert (dist == dist.T).all() and (np.diag(dist) == 0).all()
    assert levels == dist.max() == 2 * radius
    for i in range(sources):
        for j in range(i + 1, sources):
            assert dist[i, j] == MIXED.dist_bfs(verts[i], verts[j], 2 * radius)


@pytest.mark.parametrize("product,radius", [
    (MIXED, 4), (CORE, 3), (PERIODIC, 3), (CUSTOM, 3),
], ids=["mixed", "explicit-core", "ray-periodic", "custom-rule"])
def test_dist_matrix_is_product_dist(product, radius):
    vs = product.ball(radius)
    assert (verify._dist_matrix(vs).tolist()
            == [[product_dist(v, w) for w in vs] for v in vs])


def test_oracle_reports_first_corrupted_pair(monkeypatch):
    targets = DL33.ball(2)
    true_matrix = verify._dist_matrix
    # (14, 14) is the last of the 15 * 15 pairs compared
    assert len(targets) == 15
    for i, j in ((3, 7), (14, 14)):
        v, w = targets[i], targets[j]

        def off_by_one(vs):
            dist = true_matrix(vs)
            if vs == targets:
                dist[i, j] += 1
            return dist

        with monkeypatch.context() as patch:
            patch.setattr(verify, "_dist_matrix", off_by_one)
            result = verify.metric_oracle_suite(radius=2, radius34=1)
        assert not result.ok
        details = result.details["dl33"]
        assert details["pairs_checked"] == i * len(targets) + j + 1
        assert details["witness"] == {"v": str(v), "w": str(w),
                                      "formula": product_dist(v, w) + 1,
                                      "bfs": product_dist(v, w)}
        assert details["witness"]["bfs"] == DL33.dist_bfs(v, w, 4)
        assert details["bfs_levels"] == 4
        assert details["graph_vertices"] == len(DL33.ball(4))


def test_oracle_builds_vertices_only_for_the_sources(monkeypatch):
    built = []
    post_init = ProductVertex.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(ProductVertex, "__post_init__", counting)
    result = verify.metric_oracle_suite(radius=2, radius34=1)
    monkeypatch.undo()
    assert result.ok
    # the 2R graphs hold 92 and 22 vertices; only the R balls (15 and 6)
    # are built
    assert result.details["dl33"]["graph_vertices"] > len(DL33.ball(2))
    assert len(built) == len(DL33.ball(2)) + len(DL34.ball(1))
    assert set(built) == set(DL33.ball(2) + DL34.ball(1))


def test_oracle_counters():
    result = verify.metric_oracle_suite(radius=2, radius34=2)
    assert result.ok
    for label, product in (("dl33", DL33), ("dl34", DL34)):
        details = result.details[label]
        assert details["ball_size"] == len(product.ball(2))
        assert details["pairs_checked"] == details["ball_size"] ** 2
        assert details["graph_vertices"] == len(product.ball(4))
        assert details["bfs_levels"] == 4
