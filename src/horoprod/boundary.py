"""Boundary points of the product compactification and their functions.

A boundary point is a payload plus the side it lives on.  Its tag, on
the wire ``C1:<ray>``, ``C2:<ray>``, ``T1:<vertex>``, ``T2:<vertex>`` or
``Z:<k>``, is the payload's kind (C an end, T a vertex, Z a level)
followed by its side, the tree the payload lives in:

  C<side>  an end of tree <side>; the height coordinate is +infinity on
           side 1 and -infinity on side 2
  T<side>  a vertex of tree <side>, reached when the other coordinate
           runs off to its end: the vertex pins its own coordinate, and
           the height coordinate is its height, negated on side 2
  Z        an integer horocycle level, on neither side, reached by
           sequences whose height freezes while both coordinates diverge

``PointKind.side`` and ``PointKind.is_ray`` read the tag, and every rule
below reads the side once.  A point is its own function: it evaluates
as an integer-valued function on product vertices (``evaluate``), and
these are exactly the pointwise limits of the vertex-anchored Busemann
functions, so no wrapper stands between the two.  A point, or a
product vertex, is read as its coordinates (``hm_coordinates``): a
point of each tree's compactification and a height.  Every kind then
evaluates through the one formula of ``product.busemann_at``, two
single-tree Busemann values plus a level term, with no rule of its own,
and a whole ball at once through ``product.busemann_rows``, which is
how ``boundary_limit_check`` reads it.

The closure points at height +/-infinity over the pair (gamma1, gamma2)
are represented as C1:gamma and C2:gamma; they already belong to the
ray families, so no extra variants exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .rays import GAMMA, BranchingRay, Ray, parse_ray, require_valid_ray
from .tree import VertexAddress, height, parse_decimal
from .product import HoroProduct, ProductVertex, busemann_at, busemann_rows


class PointKind(Enum):
    RAY1 = "C1"
    RAY2 = "C2"
    VERTEX1 = "T1"
    VERTEX2 = "T2"
    LEVEL = "Z"

    def __init__(self, tag: str):
        # the tag is the payload's kind letter followed by its side
        self._side = int(tag[1:]) if tag[1:] else None
        self._is_ray = tag[0] == "C"

    @property
    def side(self) -> int | None:
        """The tree the payload lives in: 1, 2, or None for a level."""
        return self._side

    @property
    def is_ray(self) -> bool:
        """Whether the payload is an end, not a vertex or a level."""
        return self._is_ray


@dataclass(frozen=True)
class BoundaryPoint:
    kind: PointKind
    payload: Ray | VertexAddress | int

    def __str__(self):
        return f"{self.kind.value}:{self.payload}"


def ray_point(side: int, ray: Ray) -> BoundaryPoint:
    return BoundaryPoint(PointKind(f"C{side}"), ray)


def vertex_point(side: int, v: VertexAddress) -> BoundaryPoint:
    return BoundaryPoint(PointKind(f"T{side}"), v)


def level_point(k: int) -> BoundaryPoint:
    return BoundaryPoint(PointKind("Z"), k)


def parse_point(text: str) -> BoundaryPoint:
    """The point whose ``str`` is the text.  Any other text, an end not
    in its shortest form included, raises ValueError."""
    tag, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"unparsable boundary point {text!r}")
    try:
        kind = PointKind(tag)
    except ValueError:
        raise ValueError(f"unknown boundary tag {tag!r}") from None
    if kind.is_ray:
        ray = parse_ray(rest)
        if str(ray) != rest:
            raise ValueError(f"boundary point {text!r} is not in shortest"
                             f" form, which is {kind.value}:{ray}")
        return BoundaryPoint(kind, ray)
    if kind.side is not None:
        return BoundaryPoint(kind, VertexAddress.parse(rest))
    try:
        return level_point(parse_decimal(rest))
    except ValueError:
        raise ValueError(f"unparsable boundary point {text!r}") from None


def require_valid_point(product: HoroProduct, p: BoundaryPoint) -> None:
    if p.kind.side is None:
        return
    spec = product.tree(p.kind.side)
    if p.kind.is_ray:
        require_valid_ray(spec, p.payload)
    else:
        spec.require_valid(p.payload)


def hm_coordinates(p: BoundaryPoint | ProductVertex):
    """The triple (first-tree part, second-tree part, height coordinate);
    a product vertex (x1, x2) is (x1, x2, height(x1))."""
    if isinstance(p, ProductVertex):
        return (p.x1, p.x2, height(p.x1))
    side = p.kind.side
    if side is None:
        return (GAMMA, GAMMA, p.payload)
    eta = math.inf if p.kind.is_ray else height(p.payload)
    return (p.payload, GAMMA, eta) if side == 1 else (GAMMA, p.payload, -eta)


def evaluate(anchor: BoundaryPoint | ProductVertex, y: ProductVertex) -> int:
    """The integer value at y of the function attached to the anchor.

    Interior anchors evaluate as d(anchor, y) - d(anchor, base); every
    anchor vanishes at the base point.
    """
    return busemann_at(hm_coordinates(anchor), y)


# -- limit checks ------------------------------------------------------------

def boundary_limit_check(product: HoroProduct,
                         seq: Sequence[BoundaryPoint | ProductVertex],
                         target: BoundaryPoint | ProductVertex,
                         test_ball_radius: int) -> list[dict]:
    """The violations of pointwise stabilization of a finite descriptor
    sequence onto a target, over the test ball; none means it stabilized.

    A finite sequence stabilizes onto the target at a vertex exactly
    when its last term evaluates like the target there, so only the
    last term is read, from the same ``busemann_rows`` call as the
    target.  Each vertex where it disagrees (or, for an empty sequence,
    every vertex) is a violation witness.
    """
    ball = product.ball(test_ball_radius)
    anchors = [target, *seq[-1:]]
    want, *last = busemann_rows([hm_coordinates(a) for a in anchors], ball)
    values = last[0] if last else [None] * len(ball)
    return [{"vertex": str(y), "expected": w, "last_value": v}
            for y, w, v in zip(ball, want, values) if v != w]


def standard_catalog(product: HoroProduct,
                     levels: Iterable[int] = (-2, -1, 0, 1, 2),
                     vertex_radius: int = 2,
                     ) -> list[BoundaryPoint]:
    """A deterministic descriptor catalog covering all five variants.

    Every payload is chosen to be visible to a radius-3 ball: levels
    stay small, rays split within depth 3, and vertex payloads skip the
    ray vertices of depth >= 2 (those mimic the height functions inside
    small balls; they first disagree at distance 4).  The verification
    suite asserts pairwise pointwise separation on the radius-3 ball.
    """
    recipes = [
        GAMMA,
        BranchingRay(0, (), (0,)),
        BranchingRay(0, (), (1,)),
        BranchingRay(0, (), (0, 1)),
        BranchingRay(0, (), (1, 0)),
        BranchingRay(0, (0,), (1,)),
        BranchingRay(0, (1,), (0,)),
        BranchingRay(1, (), (0,)),
        BranchingRay(1, (0,), (1,)),
        BranchingRay(2, (), (0,)),
    ]
    catalog: list[BoundaryPoint] = [level_point(k) for k in levels]
    for side in (1, 2):
        catalog.extend(ray_point(side, r) for r in recipes
                       if r.is_valid(product.tree(side)))
    for side in (1, 2):
        catalog.extend(vertex_point(side, v)
                       for v in product.tree(side).ball(vertex_radius)
                       if v.suffix or v.branch < 2)
    return catalog
