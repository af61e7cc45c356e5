"""Boundary points of the product compactification and their functions.

A boundary point carries one of five payloads, written on the wire as
``C1:<ray>``, ``C2:<ray>``, ``T1:<vertex>``, ``T2:<vertex>``, ``Z:<k>``:

  RAY1     an end of the first tree; the height coordinate is +infinity
  RAY2     an end of the second tree; height coordinate -infinity
  VERTEX1  a vertex of the first tree, reached when the second
           coordinate runs off to its end while the first stays put
  VERTEX2  symmetric, a vertex of the second tree
  LEVEL    an integer horocycle level reached by sequences whose height
           freezes while both coordinates diverge

Each point evaluates as an integer-valued function on product vertices
(``evaluate``); these are exactly the pointwise limits of the
vertex-anchored Busemann functions.  The VERTEX2 evaluation applies the
level correction to the second coordinate with the payload's own
height; through the height-sum law this is the same number as the
first-coordinate correction with the negated level, and the empirical
limit suite pins the choice down against direct Busemann limits.

The closure points at height +/-infinity over the pair (gamma1, gamma2)
are represented as RAY1(gamma) and RAY2(gamma); they already belong to
the ray families, so no extra variants exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .rays import (
    GAMMA,
    Ray,
    level_busemann,
    parse_ray,
    ray_busemann,
    require_valid_ray,
)
from .tree import VertexAddress, height, vertex_busemann
from .product import HoroProduct, ProductVertex, product_busemann


class PointKind(Enum):
    RAY1 = "C1"
    RAY2 = "C2"
    VERTEX1 = "T1"
    VERTEX2 = "T2"
    LEVEL = "Z"


@dataclass(frozen=True)
class BoundaryPoint:
    kind: PointKind
    payload: Ray | VertexAddress | int

    def __str__(self):
        return f"{self.kind.value}:{self.payload}"


def ray_point1(ray: Ray) -> BoundaryPoint:
    return BoundaryPoint(PointKind.RAY1, ray)


def ray_point2(ray: Ray) -> BoundaryPoint:
    return BoundaryPoint(PointKind.RAY2, ray)


def vertex_point1(v: VertexAddress) -> BoundaryPoint:
    return BoundaryPoint(PointKind.VERTEX1, v)


def vertex_point2(v: VertexAddress) -> BoundaryPoint:
    return BoundaryPoint(PointKind.VERTEX2, v)


def level_point(k: int) -> BoundaryPoint:
    return BoundaryPoint(PointKind.LEVEL, k)


def parse_point(text: str) -> BoundaryPoint:
    tag, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"unparsable boundary point {text!r}")
    if tag in ("C1", "C2"):
        ray = parse_ray(rest)
        return ray_point1(ray) if tag == "C1" else ray_point2(ray)
    if tag in ("T1", "T2"):
        v = VertexAddress.parse(rest)
        return vertex_point1(v) if tag == "T1" else vertex_point2(v)
    if tag == "Z":
        return level_point(int(rest))
    raise ValueError(f"unknown boundary tag {tag!r}")


def require_valid_point(product: HoroProduct, p: BoundaryPoint) -> None:
    if p.kind is PointKind.RAY1:
        require_valid_ray(product.tree1, p.payload)
    elif p.kind is PointKind.RAY2:
        require_valid_ray(product.tree2, p.payload)
    elif p.kind is PointKind.VERTEX1:
        product.tree1.require_valid(p.payload)
    elif p.kind is PointKind.VERTEX2:
        product.tree2.require_valid(p.payload)


def hm_coordinates(p: BoundaryPoint):
    """The triple (first-tree part, second-tree part, height coordinate)."""
    if p.kind is PointKind.RAY1:
        return (p.payload, GAMMA, math.inf)
    if p.kind is PointKind.RAY2:
        return (GAMMA, p.payload, -math.inf)
    if p.kind is PointKind.VERTEX1:
        return (p.payload, GAMMA, height(p.payload))
    if p.kind is PointKind.VERTEX2:
        return (GAMMA, p.payload, -height(p.payload))
    return (GAMMA, GAMMA, p.payload)


def point_from_hm(coords) -> BoundaryPoint:
    """Inverse of ``hm_coordinates`` on boundary triples."""
    first, second, eta = coords
    if eta == math.inf:
        return ray_point1(first)
    if eta == -math.inf:
        return ray_point2(second)
    if isinstance(first, VertexAddress):
        return vertex_point1(first)
    if isinstance(second, VertexAddress):
        return vertex_point2(second)
    return level_point(eta)


def evaluate(anchor: BoundaryPoint | ProductVertex, y: ProductVertex) -> int:
    """The integer value at y of the function attached to the anchor.

    Interior anchors evaluate as d(anchor, y) - d(anchor, base); every
    anchor vanishes at the base point.
    """
    if isinstance(anchor, ProductVertex):
        return product_busemann(anchor, y)
    k = anchor.kind
    p = anchor.payload
    if k is PointKind.RAY1:
        return ray_busemann(p, y.x1)
    if k is PointKind.RAY2:
        return ray_busemann(p, y.x2)
    if k is PointKind.VERTEX1:
        return (vertex_busemann(p, y.x1) + height(y.x2)
                + level_busemann(height(p), y.x1))
    if k is PointKind.VERTEX2:
        return (vertex_busemann(p, y.x2) + height(y.x1)
                + level_busemann(height(p), y.x2))
    return level_busemann(p, y.x1)


@dataclass(frozen=True)
class HoroFunction:
    """A tagged integer-valued function on the product graph.

    Built from a descriptor it is the compactification isomorphism:
    the same payload, read as a function.
    """

    anchor: BoundaryPoint | ProductVertex

    def __call__(self, y: ProductVertex) -> int:
        return evaluate(self.anchor, y)

    def __str__(self):
        if isinstance(self.anchor, ProductVertex):
            return f"I:{self.anchor}"
        return str(self.anchor)


# -- limit checks ------------------------------------------------------------

@dataclass(frozen=True)
class StabilizationReport:
    ok: bool
    radius: int
    entries: tuple[tuple[str, int], ...]  # (vertex text, stabilization index)
    violations: tuple[dict, ...]

    def payload(self) -> dict:
        return {
            "ok": self.ok,
            "radius": self.radius,
            "stabilized_at": {t: i for t, i in self.entries},
            "violations": list(self.violations),
        }


def boundary_limit_check(product: HoroProduct,
                         seq: Sequence[BoundaryPoint | ProductVertex],
                         target: HoroFunction | BoundaryPoint | ProductVertex,
                         test_ball_radius: int) -> StabilizationReport:
    """Pointwise stabilization of a descriptor sequence onto a target.

    For each vertex of the test ball, records the first index from
    which every later term evaluates like the target; a vertex whose
    last term still disagrees becomes a violation witness.
    """
    if isinstance(target, HoroFunction):
        target = target.anchor
    ball = product.ball(test_ball_radius)
    entries = []
    violations = []
    for y in ball:
        want = evaluate(target, y)
        values = [evaluate(p, y) for p in seq]
        stab = len(values)
        for i in range(len(values) - 1, -1, -1):
            if values[i] != want:
                break
            stab = i
        if stab == len(values):
            violations.append({
                "vertex": str(y),
                "expected": want,
                "last_value": values[-1] if values else None,
            })
        else:
            entries.append((str(y), stab))
    return StabilizationReport(not violations, test_ball_radius,
                               tuple(entries), tuple(violations))


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
    from .rays import BranchingRay, validate_ray

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
    catalog.extend(ray_point1(r) for r in recipes if validate_ray(product.tree1, r))
    catalog.extend(ray_point2(r) for r in recipes if validate_ray(product.tree2, r))
    for spec, make in ((product.tree1, vertex_point1), (product.tree2, vertex_point2)):
        catalog.extend(make(v) for v in spec.ball(vertex_radius)
                       if v.suffix or v.branch < 2)
    return catalog
