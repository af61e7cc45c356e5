"""The horospheric product of two pointed trees.

Vertices are pairs (x1, x2) with height1(x1) + height2(x2) = 0; two
pairs are adjacent when both coordinates are adjacent, which forces one
coordinate to step toward its distinguished end while the other steps
away.  With base point (o1, o2) the graph distance has the closed form

    d(x, y) = d1(x1, y1) + d2(x2, y2) - |height1(x1) - height1(y1)|

and every Busemann function of the compactification, not only the
vertex-anchored ones, decomposes into single-tree Busemann values plus
a level term (``busemann_at``).  Both facts are verified against a
breadth-first oracle by the test-suite; the library itself always uses
the closed forms.

Enumeration reads one edge relation, the two trees' moves
(``TreeSpec.up_moves`` and ``down_move``), and never a closed form.
``neighbors`` and ``dist_bfs`` apply it to keys, the plain tuples
(branch1, suffix1, branch2, suffix2) of ``product_key``.  ``ball`` and
``ball_graph`` apply it once per tree coordinate: each tree's radius
ball becomes a table (``TreeSpec.ranked_ball``) that numbers its
coordinates in the order of their texts and holds each inner
coordinate's moves as those numbers.  A product vertex is then the one
int r1 * n2 + r2 of its coordinates' ranks (n2 is the size of the
second table), and ints order as the pairs of texts do.  Output order
is deterministic: breadth-first layers, each sorted by the textual
form.  ``neighbors`` and ``ball`` hand out ProductVertex objects;
``ball_graph`` hands out the keys of the ball in that order, with the
induced graph as one flat list of edges, which the metric oracle
sweeps.  Every edge joins consecutive layers, so each is listed once,
from its end nearer the base, and the rim, the vertices at exactly the
radius, is never expanded.  So a ProductVertex is built only for a
vertex that a caller asks for.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from .tree import (RankedBall, SpecError, TreeSpec, VertexAddress, busemann,
                   down_move, height, origin_dist, tree_dist)
from .rays import level_busemann


class HeightMismatch(ValueError):
    def __init__(self, h1: int, h2: int):
        super().__init__(f"heights must sum to zero, got {h1} + {h2}")
        self.h1 = h1
        self.h2 = h2


@dataclass(frozen=True, slots=True)
class ProductVertex:
    x1: VertexAddress
    x2: VertexAddress

    def __post_init__(self):
        h1, h2 = height(self.x1), height(self.x2)
        if h1 + h2 != 0:
            raise HeightMismatch(h1, h2)

    def __str__(self):
        return f"{self.x1}|{self.x2}"

    @classmethod
    def parse(cls, text: str) -> "ProductVertex":
        left, sep, right = text.partition("|")
        if not sep:
            raise ValueError(f"missing '|' in product vertex {text!r}")
        return cls(VertexAddress.parse(left), VertexAddress.parse(right))


BASE = ProductVertex(VertexAddress(0, ()), VertexAddress(0, ()))

Key = tuple     # (branch1, suffix1, branch2, suffix2)


def product_key(v: ProductVertex) -> Key:
    return (v.x1.branch, v.x1.suffix, v.x2.branch, v.x2.suffix)


def product_height(v: ProductVertex) -> int:
    return height(v.x1)


def product_dist(v: ProductVertex, w: ProductVertex) -> int:
    """Exact graph distance via the closed form."""
    return (tree_dist(v.x1, w.x1) + tree_dist(v.x2, w.x2)
            - abs(height(v.x1) - height(w.x1)))


def busemann_at(coords: tuple, y: ProductVertex) -> int:
    """The Busemann function with coordinates (xi1, xi2, eta) at y:
    busemann(xi1, y1) + busemann(xi2, y2) + |eta| - |eta - height(y1)|,
    where xi1 and xi2 are vertices or ends and eta an integer or +-inf."""
    xi1, xi2, eta = coords
    return busemann(xi1, y.x1) + busemann(xi2, y.x2) + level_busemann(eta, y.x1)


def product_busemann(z: ProductVertex, y: ProductVertex) -> int:
    """d(z, y) - d(z, base), written through single-tree Busemann values."""
    return busemann_at((z.x1, z.x2, height(z.x1)), y)


def busemann_rows(coords: Sequence[tuple],
                  ys: Sequence[ProductVertex]) -> list[list[int]]:
    """``[[busemann_at(c, y) for y in ys] for c in coords]``, where
    coordinates that no y can tell apart share one row object.

    Here Ds is the largest origin_dist of a side-s coordinate of the ys
    and H the largest |height| of the ys.  A row is the sum of three
    tables: over the distinct first coordinates, the distinct second
    coordinates, and the heights -H..H.  It is computed once per key
    (xi1.vertex(D1), xi2.vertex(D2), clamp(eta, -H, H)), and the key
    fixes the row:

    - per tree, busemann(xi, u) = origin_dist(u) - 2 meet_depth(xi, u),
      and meet_depth(xi, u) <= origin_dist(u) <= D reads xi's origin
      path only up to depth D, which xi.vertex(D) keeps;
    - with |k| <= H, |eta| - |eta - k| is k for every eta >= H and -k
      for every eta <= -H, so the clamped height gives the same term.
    """
    firsts = list(dict.fromkeys(y.x1 for y in ys))
    seconds = list(dict.fromkeys(y.x2 for y in ys))
    at1 = {u: i for i, u in enumerate(firsts)}
    at2 = {u: i for i, u in enumerate(seconds)}
    reach1 = max(map(origin_dist, firsts), default=0)
    reach2 = max(map(origin_dist, seconds), default=0)
    cap = max((abs(height(u)) for u in firsts), default=0)
    # the third column indexes the heights -cap..cap
    cols = [(at1[y.x1], at2[y.x2], height(y.x1) + cap) for y in ys]
    rows: dict[tuple, list[int]] = {}
    out = []
    for xi1, xi2, eta in coords:
        key = (xi1.vertex(reach1), xi2.vertex(reach2), min(max(eta, -cap), cap))
        row = rows.get(key)
        if row is None:
            p1, p2, eta = key
            t1 = [busemann(p1, u) for u in firsts]
            t2 = [busemann(p2, u) for u in seconds]
            t3 = [abs(eta) - abs(eta - k) for k in range(-cap, cap + 1)]
            row = rows[key] = [t1[i] + t2[j] + t3[k] for i, j, k in cols]
        out.append(row)
    return out


@dataclass(frozen=True)
class HoroProduct:
    tree1: TreeSpec
    tree2: TreeSpec

    def __post_init__(self):
        for label, spec in (("tree1", self.tree1), ("tree2", self.tree2)):
            # a rule that can only be probed out to a radius is not checked
            if spec.family.decidable:
                violation = spec.validate()
                if violation is not None:
                    raise SpecError(f"{label}: {violation.message}"
                                    f" at {violation.witness}")

    @property
    def base(self) -> ProductVertex:
        return BASE

    def tree(self, side: int) -> TreeSpec:
        """The factor tree on the given side, 1 or 2."""
        return self.tree1 if side == 1 else self.tree2

    def vertex(self, x1: VertexAddress, x2: VertexAddress) -> ProductVertex:
        """Construct a vertex, checking canonicality and the height law."""
        self.tree1.require_valid(x1)
        self.tree2.require_valid(x2)
        return ProductVertex(x1, x2)

    def parse_vertex(self, text: str) -> ProductVertex:
        v = ProductVertex.parse(text)
        return self.vertex(v.x1, v.x2)

    def degree(self, v: ProductVertex) -> int:
        return (self.tree1.family.degree_at(v.x1.branch, v.x1.suffix)
                + self.tree2.family.degree_at(v.x2.branch, v.x2.suffix) - 2)

    def _key_neighbors(self, key: Key) -> list[Key]:
        """The edge relation on keys: up moves (the first coordinate
        climbs while the second steps toward its end), then down moves."""
        b1, s1, b2, s2 = key
        down1, down2 = down_move(b1, s1), down_move(b2, s2)
        return ([(*up, *down2) for up in self.tree1.up_moves(b1, s1)]
                + [(*down1, *up) for up in self.tree2.up_moves(b2, s2)])

    def neighbors(self, v: ProductVertex) -> list[ProductVertex]:
        """Up moves (first coordinate climbs) then down moves."""
        return [ProductVertex(VertexAddress(b1, s1), VertexAddress(b2, s2))
                for b1, s1, b2, s2 in self._key_neighbors(product_key(v))]

    def _ball(self, radius: int,
              graph: bool) -> tuple[list[int], RankedBall, RankedBall, list[int]]:
        """The radius ball as vertex codes in output order, the two
        trees' ``ranked_ball`` tables that the codes index, and, when
        ``graph`` is set, its edges as one flat list of positions
        a0, b0, a1, b1, ...

        The code of a vertex is r1 * n2 + r2, where r1 and r2 are its
        coordinates' ranks in the tables and n2 is the size of the
        second one, so codes order as (str(x1), str(x2)) do.  Every
        edge moves both coordinates by one tree edge, so each coordinate
        of the ball lies in its tree's radius ball, and an inner
        vertex's coordinates lie below the radius, where the tables hold
        their moves.  Every edge changes the height by one, and a
        vertex's distance from the base has the parity of its height, so
        every edge joins consecutive layers: each layer below the radius
        is expanded once and keeps its edges into the next.
        """
        first = self.tree1.ranked_ball(radius)
        second = (first if self.tree2 == self.tree1
                  else self.tree2.ranked_ball(radius))
        n2 = len(second.branches)
        ups1 = [None if u is None else [r * n2 for r in u] for u in first.ups]
        down1 = [None if d is None else d * n2 for d in first.downs]
        ups2, down2 = second.ups, second.downs
        # "0;" is the least text, so the base is code 0
        index = {0: 0}
        layer = [0]
        edges = []
        for _ in range(radius):
            ranks = [divmod(c, n2) for c in layer]
            # each vertex's up moves (the first coordinate climbs), then
            # its down moves, each kind flat over the layer
            ups = [u + down2[r2] for r1, r2 in ranks for u in ups1[r1]]
            downs = [down1[r1] + u for r1, r2 in ranks for u in ups2[r2]]
            # the next layer: this layer's neighbours not yet in the ball
            outer = len(index)
            layer = sorted(set(ups).union(downs).difference(index))
            index.update(zip(layer, range(outer, outer + len(layer))))
            if graph:
                # the edges into the next layer, each from its inner end
                here = range(outer - len(ranks), outer)
                tails = chain(
                    (a for a, (r1, r2) in zip(here, ranks) for _ in ups1[r1]),
                    (a for a, (r1, r2) in zip(here, ranks) for _ in ups2[r2]))
                for a, b in zip(tails, map(index.__getitem__, chain(ups, downs))):
                    if b >= outer:
                        edges += a, b
        return list(index), first, second, edges

    def ball(self, radius: int) -> list[ProductVertex]:
        """All vertices within the radius of the base point.

        Breadth-first layers; each layer sorted by textual form.
        """
        codes, first, second, _ = self._ball(radius, False)
        # every place of a leafless tree's ball is some vertex's coordinate
        firsts = list(map(VertexAddress, first.branches, first.suffixes))
        seconds = (firsts if second is first
                   else list(map(VertexAddress, second.branches, second.suffixes)))
        n2 = len(seconds)
        return [ProductVertex(firsts[c // n2], seconds[c % n2]) for c in codes]

    def dist_bfs(self, v: ProductVertex, w: ProductVertex,
                 radius_cap: int) -> int | None:
        """Breadth-first distance using only the edge relation.

        Returns None when the distance exceeds the cap.  This is the
        independent oracle for the closed-form distance; it never calls
        ``product_dist``.  The search grows from both ends, a whole layer
        of the smaller side at a time, and the two sides stay disjoint
        until one touches the other: a path shorter than that first
        contact would have met an earlier layer, so it gives the distance.
        """
        if radius_cap < 0:
            raise ValueError("radius_cap must be >= 0")
        start, goal = product_key(v), product_key(w)
        if start == goal:
            return 0
        near, far = {start: 0}, {goal: 0}
        near_layer, far_layer = [start], [goal]
        for _ in range(radius_cap):     # each pass deepens one side by a layer
            if len(near_layer) > len(far_layer):
                near, far, near_layer, far_layer = far, near, far_layer, near_layer
            depth = near[near_layer[0]] + 1
            nxt = []
            for k in near_layer:
                for n in self._key_neighbors(k):
                    if n in far:
                        return depth + far[n]
                    if n not in near:
                        near[n] = depth
                        nxt.append(n)
            near_layer = nxt
        return None

    def ball_graph(self, radius: int) -> tuple[list[Key], list[int]]:
        """The induced graph on the radius ball: the keys of its vertices
        and its edges, one flat list of positions a0, b0, a1, b1, ...

        Key i is that of ``ball(radius)[i]``.  Each edge is listed once,
        from its end a nearer the base, so a < b.  Built from the edge
        relation alone, so breadth-first sweeps over it stay independent
        of the closed-form distance.
        """
        codes, first, second, edges = self._ball(radius, True)
        b1, s1 = first.branches, first.suffixes
        b2, s2 = second.branches, second.suffixes
        n2 = len(b2)
        keys = [(b1[r1], s1[r1], b2[r2], s2[r2])
                for r1, r2 in (divmod(c, n2) for c in codes)]
        return keys, edges
