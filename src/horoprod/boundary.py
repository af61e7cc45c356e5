"""Boundary points of the product compactification and their functions.

A point of the height compactification is its coordinates
(``xi1``, ``xi2``, ``eta``): a vertex or end of each tree, and a
height in Z or +/-infinity.  The points off the interior are

  C1  (xi, gamma, +inf)     an end xi of the first tree
  C2  (gamma, xi, -inf)     an end xi of the second tree
  T1  (v, gamma, h(v))      a vertex v of the first tree, reached when
                            the second coordinate runs off to gamma
  T2  (gamma, v, -h(v))     the same with the trees swapped
  Z   (gamma, gamma, k)     an integer horocycle level, reached by
                            sequences whose height freezes while both
                            coordinates diverge

The tag is the point's text only: ``str`` reads it off the coordinates
as ``C1:<ray>``, ``C2:<ray>``, ``T1:<vertex>``, ``T2:<vertex>`` or
``Z:<k>``, and ``parse_point`` reads it back through ``ray_point``,
``vertex_point`` and ``level_point``.  The closure points at height
+/-infinity over the pair (gamma1, gamma2) are C1:gamma and C2:gamma.

A point is its own function: it evaluates as an integer-valued function
on product vertices (``evaluate``), and these are exactly the pointwise
limits of the vertex-anchored Busemann functions.  A point, or a
product vertex (x1, x2, h(x1)), is read as its coordinates
(``hm_coordinates``), and every point evaluates through the one formula
of ``product.busemann_at``, two single-tree Busemann values plus a
level term, and a whole ball at once through ``product.busemann_rows``,
which is how ``boundary_limit_check`` reads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .rays import GAMMA, BranchingRay, Ray, parse_ray, require_valid_ray
from .tree import VertexAddress, height, parse_decimal
from .product import HoroProduct, ProductVertex, busemann_at, busemann_rows


@dataclass(frozen=True)
class BoundaryPoint:
    """The point (xi1, xi2, eta) of the height compactification."""

    xi1: Ray | VertexAddress
    xi2: Ray | VertexAddress
    eta: int | float

    def __str__(self):
        if self.eta == math.inf:
            return f"C1:{self.xi1}"
        if self.eta == -math.inf:
            return f"C2:{self.xi2}"
        if self.xi1 != GAMMA:
            return f"T1:{self.xi1}"
        if self.xi2 != GAMMA:
            return f"T2:{self.xi2}"
        return f"Z:{self.eta}"


def _on_side(side: int, xi: Ray | VertexAddress, eta: int | float
             ) -> BoundaryPoint:
    """xi in tree ``side``, gamma in the other, and eta negated on side 2."""
    if side == 1:
        return BoundaryPoint(xi, GAMMA, eta)
    if side == 2:
        return BoundaryPoint(GAMMA, xi, -eta)
    raise ValueError(f"side must be 1 or 2, got {side!r}")


def ray_point(side: int, ray: Ray) -> BoundaryPoint:
    return _on_side(side, ray, math.inf)


def vertex_point(side: int, v: VertexAddress) -> BoundaryPoint:
    return _on_side(side, v, height(v))


def level_point(k: int) -> BoundaryPoint:
    return BoundaryPoint(GAMMA, GAMMA, k)


def parse_point(text: str) -> BoundaryPoint:
    """The point whose ``str`` is the text.  Any other text, an end not
    in its shortest form included, raises ValueError."""
    tag, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"unparsable boundary point {text!r}")
    if tag in ("C1", "C2"):
        ray = parse_ray(rest)
        if str(ray) != rest:
            raise ValueError(f"boundary point {text!r} is not in shortest"
                             f" form, which is {tag}:{ray}")
        return ray_point(int(tag[1]), ray)
    if tag in ("T1", "T2"):
        return vertex_point(int(tag[1]), VertexAddress.parse(rest))
    if tag != "Z":
        raise ValueError(f"unknown boundary tag {tag!r}")
    try:
        return level_point(parse_decimal(rest))
    except ValueError:
        raise ValueError(f"unparsable boundary point {text!r}") from None


def require_valid_point(product: HoroProduct, p: BoundaryPoint) -> None:
    """Raise AddressError unless each tree coordinate exists in its tree."""
    for side, xi in ((1, p.xi1), (2, p.xi2)):
        spec = product.tree(side)
        if isinstance(xi, VertexAddress):
            spec.require_valid(xi)
        else:
            require_valid_ray(spec, xi)


def hm_coordinates(p: BoundaryPoint | ProductVertex):
    """The triple (first-tree part, second-tree part, height coordinate);
    a product vertex (x1, x2) is (x1, x2, height(x1))."""
    if isinstance(p, ProductVertex):
        return (p.x1, p.x2, height(p.x1))
    return (p.xi1, p.xi2, p.eta)


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
    """A deterministic descriptor catalog covering all five tags.

    Every coordinate is chosen to be visible to a radius-3 ball: levels
    stay small, rays split within depth 3, and vertex points skip the
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
