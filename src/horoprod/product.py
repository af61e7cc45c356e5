"""The horospheric product of two pointed trees.

Vertices are pairs (x1, x2) with height1(x1) + height2(x2) = 0; two
pairs are adjacent when both coordinates are adjacent, which forces one
coordinate to step toward its distinguished end while the other steps
away.  With base point (o1, o2) the graph distance has the closed form

    d(x, y) = d1(x1, y1) + d2(x2, y2) - |height1(x1) - height1(y1)|

and every Busemann function anchored at a vertex decomposes into
single-tree Busemann values plus height corrections.  Both facts are
verified against a breadth-first oracle by the test-suite; the library
itself always uses the closed forms.

Ball enumeration never materializes the trees: neighbors are generated
lazily from the two degree rules, and output order is deterministic
(breadth-first layers, each layer sorted by the textual form).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .tree import (SpecError, TreeSpec, VertexAddress, gamma_ward, height,
                   origin_dist, tree_dist)


class HeightMismatch(ValueError):
    def __init__(self, h1: int, h2: int):
        super().__init__(f"heights must sum to zero, got {h1} + {h2}")
        self.h1 = h1
        self.h2 = h2


@dataclass(frozen=True)
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


def product_height(v: ProductVertex) -> int:
    return height(v.x1)


def product_dist(v: ProductVertex, w: ProductVertex) -> int:
    """Exact graph distance via the closed form."""
    return (tree_dist(v.x1, w.x1) + tree_dist(v.x2, w.x2)
            - abs(height(v.x1) - height(w.x1)))


def product_busemann(z: ProductVertex, y: ProductVertex, *, check: bool = False) -> int:
    """d(z, y) - d(z, base), written through single-tree Busemann values.

    With check=True the same number is recomputed from two distance
    calls and the two routes are asserted equal.
    """
    h = height(z.x1)
    value = (tree_dist(z.x1, y.x1) - origin_dist(z.x1)
             + tree_dist(z.x2, y.x2) - origin_dist(z.x2)
             - abs(h - height(y.x1)) + abs(h))
    if check:
        direct = product_dist(z, y) - product_dist(z, BASE)
        assert value == direct, (z, y, value, direct)
    return value


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
        return self.tree1._degree(v.x1) + self.tree2._degree(v.x2) - 2

    def neighbors(self, v: ProductVertex) -> list[ProductVertex]:
        """Up moves (first coordinate climbs) then down moves."""
        down2 = gamma_ward(v.x2)
        out = [ProductVertex(u, down2) for u in self.tree1.up_neighbors(v.x1)]
        down1 = gamma_ward(v.x1)
        out.extend(ProductVertex(down1, u) for u in self.tree2.up_neighbors(v.x2))
        return out

    def ball(self, radius: int) -> list[ProductVertex]:
        """All vertices within the radius of the base point.

        Breadth-first layers; each layer sorted by textual form.
        """
        if radius < 0:
            raise ValueError("radius must be >= 0")
        seen = {BASE}
        out = [BASE]
        frontier = [BASE]
        for _ in range(radius):
            nxt = []
            for v in frontier:
                for w in self.neighbors(v):
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            nxt.sort(key=lambda w: (str(w.x1), str(w.x2)))
            out.extend(nxt)
            frontier = nxt
        return out

    def dist_bfs(self, v: ProductVertex, w: ProductVertex,
                 radius_cap: int) -> int | None:
        """Breadth-first distance using only the edge relation.

        Returns None when the distance exceeds the cap.  This is the
        independent oracle for the closed-form distance; it never calls
        ``product_dist``.
        """
        if radius_cap < 0:
            raise ValueError("radius_cap must be >= 0")
        if v == w:
            return 0
        dist = {v: 0}
        queue = deque([v])
        while queue:
            cur = queue.popleft()
            d = dist[cur]
            if d == radius_cap:
                continue
            for nxt in self.neighbors(cur):
                if nxt not in dist:
                    if nxt == w:
                        return d + 1
                    dist[nxt] = d + 1
                    queue.append(nxt)
        return None

    def ball_graph(self, radius: int) -> tuple[list[ProductVertex], list[list[int]]]:
        """The induced graph on the radius ball, as integer adjacency lists.

        Built from the edge relation alone so breadth-first sweeps over
        it stay independent of the closed-form distance.
        """
        verts = self.ball(radius)
        index = {v: i for i, v in enumerate(verts)}
        adj: list[list[int]] = [[] for _ in verts]
        for v, i in index.items():
            for w in self.neighbors(v):
                j = index.get(w)
                if j is not None:
                    adj[i].append(j)
        return verts, adj
