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

Enumeration never materializes the trees.  It runs on keys, the plain
tuples (branch1, suffix1, branch2, suffix2) of ``product_key``, through
one key-level edge relation built from the two degree rules;
``neighbors``, ``ball``, ``ball_graph`` and ``dist_bfs`` all read it.
Output order is deterministic: breadth-first layers, each sorted by the
textual form.  ``neighbors`` and ``ball`` hand out ProductVertex
objects; ``ball_graph`` hands out the keys of the ball in that order,
with the induced graph as integer adjacency lists, which the metric
oracle sweeps.  An inner vertex lists its neighbours in edge-relation
order; the rim, the vertices at exactly the radius, is never expanded,
and a rim vertex's list is read back from the inner lists, in
ascending index.  So a ProductVertex is built only for a vertex that a
caller asks for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .tree import (SpecError, TreeSpec, VertexAddress, address_text, busemann,
                   height, origin_dist, tree_dist)
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
BASE_KEY = (0, (), 0, ())


def product_key(v: ProductVertex) -> Key:
    return (v.x1.branch, v.x1.suffix, v.x2.branch, v.x2.suffix)


def _vertices(keys: Iterable[Key]) -> list[ProductVertex]:
    """The vertices with these keys.  Vertices with an equal coordinate
    share its VertexAddress, so a large ball holds fewer objects."""
    addresses: dict[tuple, VertexAddress] = {}

    def address(branch, suffix):
        a = addresses.get((branch, suffix))
        if a is None:
            a = addresses[branch, suffix] = VertexAddress(branch, suffix)
        return a

    return [ProductVertex(address(b1, s1), address(b2, s2))
            for b1, s1, b2, s2 in keys]


def _sort_key(key: Key) -> tuple[str, str]:
    """(str(x1), str(x2)) of the vertex with this key."""
    b1, s1, b2, s2 = key
    return address_text(b1, s1), address_text(b2, s2)


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
        self.tree1.require_valid(v.x1)
        self.tree2.require_valid(v.x2)
        return v

    def degree(self, v: ProductVertex) -> int:
        return (self.tree1.family.degree_at(v.x1.branch, v.x1.suffix)
                + self.tree2.family.degree_at(v.x2.branch, v.x2.suffix) - 2)

    def _key_neighbors(self, key: Key) -> list[Key]:
        """The edge relation on keys: up moves (the first coordinate
        climbs while the second steps toward its end), then down moves."""
        b1, s1, b2, s2 = key
        down1 = (b1, s1[:-1]) if s1 else (b1 + 1, ())
        down2 = (b2, s2[:-1]) if s2 else (b2 + 1, ())
        out = [(b1 - 1, (), *down2)] if b1 and not s1 else []
        out.extend((b1, s1 + (j,), *down2)
                   for j in range(self.tree1.label_count(b1, s1)))
        if b2 and not s2:
            out.append((*down1, b2 - 1, ()))
        out.extend((*down1, b2, s2 + (j,))
                   for j in range(self.tree2.label_count(b2, s2)))
        return out

    def neighbors(self, v: ProductVertex) -> list[ProductVertex]:
        """Up moves (first coordinate climbs) then down moves."""
        return _vertices(self._key_neighbors(product_key(v)))

    def _ball_index(self, radius: int) -> tuple[dict[Key, int], int]:
        """The radius ball as a map from key to output position, in
        output order, and the position where its rim (the vertices at
        exactly the radius) starts."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        index = {BASE_KEY: 0}
        frontier = [BASE_KEY]
        for _ in range(radius):
            # text is unique per vertex, so the sort fixes the order
            frontier = sorted({n for k in frontier for n in self._key_neighbors(k)
                               if n not in index}, key=_sort_key)
            index.update(zip(frontier, range(len(index), len(index) + len(frontier))))
        return index, len(index) - len(frontier)

    def ball(self, radius: int) -> list[ProductVertex]:
        """All vertices within the radius of the base point.

        Breadth-first layers; each layer sorted by textual form.
        """
        return _vertices(self._ball_index(radius)[0])

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

    def ball_graph(self, radius: int) -> tuple[list[Key], list[list[int]]]:
        """The induced graph on the radius ball: the keys of its vertices
        and their integer adjacency lists.

        Key i is that of ``ball(radius)[i]``.  An inner vertex lists its
        in-ball neighbours in edge-relation order.  A rim vertex, at
        exactly the radius, is not expanded: every edge changes the
        height by one, and a vertex's distance from the base has the
        parity of its height, so every edge joins consecutive
        breadth-first layers.  A rim vertex's in-ball neighbours thus
        all lie one layer in, and its list is read back from the inner
        lists, in ascending index.  Built from the edge relation alone,
        so breadth-first sweeps over it stay independent of the
        closed-form distance.
        """
        index, rim = self._ball_index(radius)
        keys = list(index)
        adj = [[j for j in map(index.get, self._key_neighbors(k)) if j is not None]
               for k in keys[:rim]]
        rim_adj = [[] for _ in range(len(keys) - rim)]
        for i, ns in enumerate(adj):
            for j in ns:
                if j >= rim:
                    rim_adj[j - rim].append(i)
        adj.extend(rim_adj)
        return keys, adj
