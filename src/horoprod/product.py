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
ball becomes a table of ints (``TreeSpec.ranked_ball``) that numbers
its coordinates in the order of their texts and holds each one's
moves as offsets between those numbers, and no address.  A product
vertex is then the one int r1 * n2 + r2 of its coordinates' ranks (n2
is the size of the second table), ints order as the pairs of texts
do, and moving the coordinates by offsets d1 and d2 moves it by
d1 * n2 + d2.  The ball grows a breadth-first layer at a time: every
edge joins consecutive layers, so a layer's neighbours outside the
layer before it make the next one, which is sorted as ints and is the
only layer whose positions are looked up.  Output order is
deterministic: breadth-first layers, each sorted by the textual form.
``neighbors`` and ``ball`` hand out ProductVertex objects;
``ball_graph`` hands out the ball's keys in that order, each built when
it is read (``BallKeys``), with the induced graph as one flat
``array('q')`` of edges, which the metric oracle reads without a copy.
Each edge is listed once, from its end nearer the base, and the rim,
the vertices at exactly the radius, is never expanded.  So a key or a
ProductVertex is built only for a vertex that a caller asks for.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, count, repeat, starmap
from operator import add, mul
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

    def _ball(self, radius: int, graph: bool) -> tuple[
            Sequence[int], RankedBall, RankedBall, Sequence[int]]:
        """The radius ball as vertex codes in output order, the two
        trees' ``ranked_ball`` tables that the codes index, and, when
        ``graph`` is set, its edges as positions a0, b0, a1, b1, ...
        (then both are ``array('q')``).

        The code of a vertex is r1 * n2 + r2, where r1 and r2 are its
        coordinates' ranks in the tables and n2 is the size of the
        second one, so codes order as (str(x1), str(x2)) do.  Every
        edge moves both coordinates by one tree edge, so each coordinate
        of the ball lies in its tree's radius ball, and an inner
        vertex's coordinates lie below the radius, where the tables hold
        their moves.  Every edge changes the height by one, and a
        vertex's distance from the base has the parity of its height, so
        every edge joins consecutive layers: a layer's neighbours not in
        the layer before it make the next layer, and each layer below
        the radius keeps its edges into the next.
        """
        first = self.tree1.ranked_ball(radius)
        second = (first if self.tree2 == self.tree1
                  else self.tree2.ranked_ball(radius))
        n2 = len(second.labels)
        ups1, downs1 = first.ups, first.downs
        ups2, downs2 = second.ups, second.downs
        # "0;" is the least text, so the base is code 0.  ``ball_graph``
        # keeps the codes, so it holds them and the edges flat; ``ball``
        # makes an object of every code anyway.
        if graph:
            from array import array     # loaded here: few commands need it
            codes, edges = array("q", [0]), array("q")
        else:
            codes, edges = [0], []
        before, layer = [], [0]
        for _ in range(radius):
            r1s = [c // n2 for c in layer]
            r2s = [c % n2 for c in layer]
            climbs = list(map(ups1.__getitem__, r1s))
            rises = list(map(ups2.__getitem__, r2s))
            # each vertex's up moves (the first coordinate climbs, the
            # second steps down), then its down moves, each kind flat
            # over the layer; tree offsets d1, d2 move a code by d1 * n2 + d2
            steps = map(add, layer, map(downs2.__getitem__, r2s))
            near = [c + u * n2 for c, us in zip(steps, climbs) for u in us]
            steps = map(add, layer,
                        map(mul, map(downs1.__getitem__, r1s), repeat(n2)))
            near += [c + u for c, us in zip(steps, rises) for u in us]
            del r1s, r2s, steps     # before the sets and dicts below
            new = set(near)
            new.difference_update(before)
            before, layer = layer, sorted(new)
            del new     # before the positions below are built
            outer = len(codes)
            codes.extend(layer)
            if graph:
                # the edges into the new layer, each from its inner end; a
                # move back finds no position, and no new position is 0
                heads = list(map(dict(zip(layer, count(outer))).get, near))
                here = range(outer - len(before), outer)
                tails = chain.from_iterable(
                    map(repeat, chain(here, here), map(len, chain(climbs, rises))))
                edges.extend(
                    chain.from_iterable(compress(zip(tails, heads), heads)))
        return codes, first, second, edges

    def ball(self, radius: int) -> list[ProductVertex]:
        """All vertices within the radius of the base point.

        Breadth-first layers; each layer sorted by textual form.
        """
        codes, first, second, _ = self._ball(radius, False)
        # every place of a leafless tree's ball is some vertex's coordinate
        firsts = list(starmap(VertexAddress, first.addresses()))
        seconds = (firsts if second is first
                   else list(starmap(VertexAddress, second.addresses())))
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

    def ball_graph(self, radius: int) -> tuple["BallKeys", Sequence[int]]:
        """The induced graph on the radius ball: the keys of its vertices
        and its edges, one flat ``array('q')`` of positions a0, b0, a1,
        b1, ...

        Key i is that of ``ball(radius)[i]``; each is built when it is
        read.  Each edge is listed once, from its end a nearer the base,
        so a < b.  Built from the edge relation alone, so breadth-first
        sweeps over it stay independent of the closed-form distance.
        """
        codes, first, second, edges = self._ball(radius, True)
        return BallKeys(codes, first, second), edges


class BallKeys:
    """The keys of a ball's vertices in ball order (``ball_graph``), each
    built from its code and the two tree tables when it is read: an
    index gives one key, a slice a list of them."""

    def __init__(self, codes: Sequence[int], first: RankedBall,
                 second: RankedBall):
        self.codes, self.first, self.second = codes, first, second

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return list(map(self._key, self.codes[i]))
        return self._key(self.codes[i])

    def _key(self, code: int) -> Key:
        r1, r2 = divmod(code, len(self.second.labels))
        return (*self.first.address(r1), *self.second.address(r2))
