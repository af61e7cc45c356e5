"""Symbolic sequence families in the product and their limit classification.

Structured families come with generators whose limiting behavior is
decidable, so classification is exact:

  EventuallyConstant  the constant sequence at a vertex
  RadialRay           one coordinate marches along an end, the other is
                      paired at the opposite height (see below)
  Horocyclic          both coordinates enumerate a horocycle level, in
                      canonical order (increasing branch index, then
                      word order), which forces divergence
  FixedFirst          first coordinate pinned, second enumerates its level
  FixedSecond         second coordinate pinned, first enumerates its level
  Alternating         interleaves horocycle levels; at least two distinct
                      levels means no limit
  Custom              an arbitrary generator, classified heuristically
                      over a finite window (verdicts are marked so)

Each family is one class that answers every question about itself;
``classify``, ``stabilization_bound`` and ``family_from_json`` (one
table of kinds) are the module-level entry points.  Those that take a
product and a family (also ``terms``, ``agreement`` and
``empirical_pointwise_check``) refuse, once per call, a family naming a
vertex or end the product lacks (``require_valid``).  A Custom verdict is
read over the indices ``CUSTOM_WINDOW``; ``agreement`` checks a verdict
empirically over ``EXTRA_WINDOW`` indices past the stabilization bound.

Pairing rule for RadialRay: the opposite coordinate must sit at the
negated height, on the path of one end, the partner end.  That is the
pairing end when one other than the distinguished end is given, else
the canonical end ``CANONICAL_END`` = 0;(0).  Heights below minus the
end's branch, which its path never reaches, are taken on the
distinguished ray.  Since heights drive the classification, the
pairing only matters when the marching coordinate heads to the
distinguished end, in which case the partner end names the boundary
point.

A report keeps its limit as one anchor, the boundary point or interior
vertex; its payload spells that anchor out as its point, its two tree
coordinates and its function's text.  Every report records which
height limits land in the trees' infinite level sets, under two
readings: per divergent component (used by the classifier; a pinned
coordinate imposes no condition) and the literal simultaneous reading
(reported for comparison, since it would reject sequences whose
convergence the empirical suite confirms).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

from .tree import (FieldCodec, Report, VertexAddress, height, int_tuple,
                   strict_int, to_payload)
from .rays import (
    BranchingRay,
    FSet,
    GAMMA,
    Ray,
    f_set,
    level_prefix_count,
    level_sequence,
    level_size,
    parse_ray,
    random_ray,
    require_valid_ray,
)
from .product import HoroProduct, ProductVertex, busemann_rows, product_height
from .boundary import (
    BoundaryPoint,
    hm_coordinates,
    level_point,
    ray_point,
    vertex_point,
)


CUSTOM_WINDOW = (0, 80)    # the indices a Custom verdict is read from
EXTRA_WINDOW = 55          # indices checked past a stabilization bound
RANDOM_VERTEX_DIST = 3     # the largest origin distance of a random vertex
CANONICAL_END = BranchingRay(0, (), (0,))  # a RadialRay's default partner end


class FamilyExhausted(RuntimeError):
    """A divergent enumeration ran out of vertices (finite level set)."""


# -- reports ------------------------------------------------------------------

INTERIOR = "interior"
BOUNDARY = "boundary"
NOT_CONVERGENT = "not_convergent"
NOT_DECIDED = "not_decided"


@dataclass(frozen=True)
class LimitReport(Report):
    """A verdict and the one point it converges to: ``anchor`` is the
    boundary point, the interior vertex, or None when there is no limit.
    The anchor is its own Busemann function (``evaluate``)."""

    status: str
    anchor: BoundaryPoint | ProductVertex | None = None
    eta: int | float | None = None
    window: tuple[int, int] | None = None
    f_flags: dict | None = None
    notes: tuple[str, ...] = ()

    @property
    def heuristic(self) -> bool:
        """A verdict read off a finite window of terms."""
        return self.window is not None

    def payload(self) -> dict:
        """The fields, with the anchor spelled out as ``hm_point`` or
        ``interior`` (whichever it is), its two tree coordinates, and
        ``busemann``: its text, ``I:<vertex>`` for an interior vertex."""
        out = super().payload()
        del out["anchor"]
        a = self.anchor
        inner = isinstance(a, ProductVertex)
        comp1, comp2, _ = (None, None, None) if a is None else hm_coordinates(a)
        spelled = {"hm_point": None if inner else a,
                   "interior": a if inner else None,
                   "component1": comp1, "component2": comp2,
                   "busemann": f"I:{a}" if inner else a}
        return {**out, **to_payload(spelled), "heuristic": self.heuristic}


@dataclass(frozen=True)
class EmpiricalReport(Report):
    convergent: bool
    window: tuple[int, int]
    radius: int
    points_checked: int
    matched_target: bool | None
    violations: tuple[dict, ...]


# -- helpers shared by the families --------------------------------------------

def _pair(side: int, v: VertexAddress, other: VertexAddress) -> ProductVertex:
    """The product vertex with v at the given side and other at the other."""
    return ProductVertex(v, other) if side == 1 else ProductVertex(other, v)


def _partner(h: int, end: BranchingRay) -> VertexAddress:
    """The vertex of height h on the end's path, or on the distinguished
    ray when h lies below minus the end's branch."""
    if h > -end.branch:
        return end.vertex(h + 2 * end.branch)
    return GAMMA.vertex(-h)


def _flags(product, eta, divergent1, divergent2) -> dict:
    """Whether eta is in tree 1's level set and -eta in tree 2's."""
    infinite = eta in (math.inf, -math.inf)
    lit1 = infinite or f_set(product.tree1) == FSet.ALL
    lit2 = infinite or f_set(product.tree2) == FSet.ALL
    per1 = lit1 if divergent1 else True
    per2 = lit2 if divergent2 else True
    return {
        "literal": lit1 and lit2,
        "per_divergent_component": per1 and per2,
    }


def _limit(product, anchor: BoundaryPoint | ProductVertex,
           **extra) -> LimitReport:
    """The report of a sequence converging to the anchor, a boundary
    point or an interior vertex it settles at.  The height is the
    anchor's third ``hm_coordinates``, and a coordinate diverges
    exactly when the anchor's coordinate on its side is an end."""
    xi1, xi2, eta = hm_coordinates(anchor)
    status = INTERIOR if isinstance(anchor, ProductVertex) else BOUNDARY
    return LimitReport(status, anchor, eta, f_flags=_flags(
        product, eta, not isinstance(xi1, VertexAddress),
        not isinstance(xi2, VertexAddress)), **extra)


def _reached(report: LimitReport, note: str) -> LimitReport:
    """The boundary report, unless a divergent coordinate's level set
    is finite: then no sequence gets there, and the verdict is
    NOT_CONVERGENT with the same height and flags."""
    if report.f_flags["per_divergent_component"]:
        return report
    return LimitReport(NOT_CONVERGENT, eta=report.eta, f_flags=report.f_flags,
                       notes=(note,))


# -- sequence families ----------------------------------------------------------

class SequenceFamily(FieldCodec):
    """Base of the sequence families.

    Each family answers ``stream(product, start=0)``, its terms from
    index ``start`` on, reached without listing the terms before it;
    ``classify(product)``, where they go; ``stabilization_bound(product,
    radius)``; ``require_valid(product)``; and ``describe()``, the label
    reports list it by.  In JSON it is its ``kind`` plus its fields.
    """

    kind: ClassVar[str | None] = None

    def require_valid(self, product) -> None:
        """Raise AddressError unless every vertex and end the family
        names exists in the product, each in the tree of its side."""

    def to_json(self) -> dict:
        return {"kind": self.kind, **super().to_json()}


@dataclass(frozen=True)
class EventuallyConstant(SequenceFamily):
    kind = "eventually_constant"
    parsers = {"vertex": ProductVertex.parse}
    vertex: ProductVertex

    def stream(self, product, start=0):
        return itertools.repeat(self.vertex)

    def require_valid(self, product):
        product.vertex(self.vertex.x1, self.vertex.x2)

    def classify(self, product):
        return _limit(product, self.vertex)

    def stabilization_bound(self, product, radius):
        return 1

    def describe(self):
        return f"const[{self.vertex}]"


@dataclass(frozen=True)
class RadialRay(SequenceFamily):
    kind = "radial_ray"
    parsers = {"tree": strict_int, "ray": parse_ray, "pairing": parse_ray}
    tree: int  # 1 or 2: which coordinate marches along the end
    ray: Ray
    pairing: Ray | None = None

    def __post_init__(self):
        if type(self.tree) is not int or self.tree not in (1, 2):
            raise ValueError("tree must be 1 or 2")

    @property
    def partner_end(self) -> BranchingRay:
        """The end the opposite coordinate climbs: the pairing end, or
        ``CANONICAL_END`` when the pairing is None or gamma."""
        return CANONICAL_END if self.pairing in (None, GAMMA) else self.pairing

    def stream(self, product, start=0):
        end = self.partner_end
        for n in itertools.count(start):
            v = self.ray.vertex(n)
            yield _pair(self.tree, v, _partner(-height(v), end))

    def require_valid(self, product):
        require_valid_ray(product.tree(self.tree), self.ray)
        if self.pairing is not None:
            require_valid_ray(product.tree(3 - self.tree), self.pairing)

    def classify(self, product):
        if self.ray != GAMMA:
            return _limit(product, ray_point(self.tree, self.ray))
        # marching to gamma, the partner's climb names the boundary point
        return _limit(product, ray_point(3 - self.tree, self.partner_end))

    def stabilization_bound(self, product, radius):
        b_march = self.ray.split_depth(GAMMA) or 0
        return radius + 2 + 2 * (b_march + self.partner_end.branch)

    def describe(self):
        pairing = "-" if self.pairing is None else str(self.pairing)
        return f"radial[t{self.tree};{self.ray};{pairing}]"


@dataclass(frozen=True)
class Horocyclic(SequenceFamily):
    kind = "horocyclic"
    parsers = {"level": strict_int}
    level: int

    def __post_init__(self):
        if type(self.level) is not int:
            raise ValueError(f"level must be an integer, got {self.level!r}")

    def stream(self, product, start=0):
        k = self.level
        for v1, v2 in zip(level_sequence(product.tree1, k, start),
                          level_sequence(product.tree2, -k, start)):
            yield ProductVertex(v1, v2)
        # one level set ended, or both did before start
        raise self._exhausted()

    def _exhausted(self) -> FamilyExhausted:
        k = self.level
        return FamilyExhausted(f"a level set at height {k} or {-k} is finite")

    def length(self, product) -> int | float:
        """How many terms there are: the smaller level set's size."""
        return min(level_size(product.tree1, self.level),
                   level_size(product.tree2, -self.level))

    def classify(self, product):
        return _reached(_limit(product, level_point(self.level)),
                        "a level enumeration is finite, no divergent sequence exists")

    def stabilization_bound(self, product, radius):
        c1 = level_prefix_count(product.tree1, self.level, radius)
        c2 = level_prefix_count(product.tree2, -self.level, radius)
        return max(c1, c2)

    def describe(self):
        return f"horocyclic[{self.level}]"


@dataclass(frozen=True)
class _Pinned(SequenceFamily):
    """One coordinate pinned at ``vertex``, the other enumerating the
    opposite level; ``side`` (1 or 2) names the pinned coordinate."""

    side: ClassVar[int]
    parsers = {"vertex": VertexAddress.parse}
    vertex: VertexAddress

    def stream(self, product, start=0):
        free = 3 - self.side
        k = -height(self.vertex)
        tree = product.tree(free)
        for t in level_sequence(tree, k, start):
            yield _pair(self.side, self.vertex, t)
        found = "empty" if level_size(tree, k) == 0 else "finite"
        raise FamilyExhausted(f"level set at height {k} of tree {free} is {found}")

    def require_valid(self, product):
        product.tree(self.side).require_valid(self.vertex)

    def classify(self, product):
        return _reached(_limit(product, vertex_point(self.side, self.vertex)),
                        "the divergent coordinate's level set is finite")

    def stabilization_bound(self, product, radius):
        return level_prefix_count(product.tree(3 - self.side),
                                  -height(self.vertex), radius)

    def describe(self):
        return f"fixed{self.side}[{self.vertex}]"


class FixedFirst(_Pinned):
    kind = "fixed_first"
    side = 1


class FixedSecond(_Pinned):
    kind = "fixed_second"
    side = 2


@dataclass(frozen=True)
class Alternating(SequenceFamily):
    kind = "alternating"
    parsers = {"levels": int_tuple}
    levels: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ValueError("levels must be nonempty")
        if any(type(k) is not int for k in self.levels):
            raise ValueError(f"levels must be integers, got {self.levels!r}")

    def stream(self, product, start=0):
        # term n is term n // m of stream n % m; stream i opens at the
        # first of its terms at or past start
        m = len(self.levels)
        inner = [Horocyclic(k) for k in self.levels]
        streams = [h.stream(product, (start - i + m - 1) // m)
                   for i, h in enumerate(inner)]
        try:
            for n in itertools.count(start):
                yield next(streams[n % m])
        except FamilyExhausted:
            # the family ends at its first missing term, which may come
            # before start: stream i's is term m * length + i
            first = min(range(m),
                        key=lambda i: m * inner[i].length(product) + i)
            raise inner[first]._exhausted() from None

    def classify(self, product):
        if len(set(self.levels)) == 1:
            return Horocyclic(self.levels[0]).classify(product)
        return LimitReport(NOT_CONVERGENT,
                           notes=("height oscillates between distinct levels",))

    def stabilization_bound(self, product, radius):
        inner = max(Horocyclic(k).stabilization_bound(product, radius)
                    for k in self.levels)
        return inner * len(self.levels)

    def describe(self):
        return f"alternating[{','.join(map(str, self.levels))}]"


@dataclass(frozen=True)
class Custom(SequenceFamily):
    """An arbitrary indexed generator."""

    generator: Callable[[int], ProductVertex]
    label: str = "custom"

    def stream(self, product, start=0):
        return (self.generator(n) for n in itertools.count(start))

    def classify(self, product):
        """Heuristics over the indices ``CUSTOM_WINDOW``.

        A verdict here is evidence, not proof; it is always marked
        heuristic and carries the window it was read from.
        """
        try:
            n0, n1 = CUSTOM_WINDOW
            seq = list(itertools.islice(self.stream(product, n0), n1 - n0))
        except FamilyExhausted as exc:
            return LimitReport(NOT_CONVERGENT, window=CUSTOM_WINDOW,
                               notes=(str(exc),))
        tail = seq[len(seq) // 2:]
        heights = [product_height(v) for v in tail]
        if all(v == tail[0] for v in tail):
            return _limit(product, tail[0], window=CUSTOM_WINDOW)
        if all(h == heights[0] for h in heights):
            return _window_bounded(product, tail, heights[0])
        up = all(b > a for a, b in zip(heights, heights[1:]))
        down = all(b < a for a, b in zip(heights, heights[1:]))
        if up or down:
            return _window_unbounded(product, tail, up)
        return LimitReport(NOT_CONVERGENT, window=CUSTOM_WINDOW,
                           notes=("heights neither stabilize nor diverge in window",))

    def stabilization_bound(self, product, radius):
        """A fixed default, reported as heuristic."""
        return 40

    def describe(self):
        return f"custom[{self.label}]"

    def to_json(self):
        raise ValueError("custom generators are not serializable")


FAMILY_KINDS = {cls.kind: cls for cls in (EventuallyConstant, RadialRay,
                                          Horocyclic, FixedFirst, FixedSecond,
                                          Alternating)}


def terms(product: HoroProduct, family: SequenceFamily,
          stop: int, start: int = 0) -> list[ProductVertex]:
    """The family's terms with indices start..stop-1."""
    if start < 0:
        raise ValueError("start must be >= 0")
    family.require_valid(product)
    return list(itertools.islice(family.stream(product, start),
                                 max(stop - start, 0)))


# -- classification -----------------------------------------------------------

def classify(product: HoroProduct, family: SequenceFamily) -> LimitReport:
    """Where the family goes in the height compactification.

    Structured kinds are decided exactly from their parameters; Custom
    generators get a verdict over ``CUSTOM_WINDOW`` marked ``heuristic``.  The
    report keeps the one point the family converges to, its ``anchor``;
    read as a function (``evaluate``, interior anchors included) that
    point is the limit function, so the two compactification views are
    one object.
    """
    family.require_valid(product)
    return family.classify(product)


def _diverging(coords) -> bool:
    # at bounded height each branch holds finitely many vertices, so a
    # divergent sequence never repeats and its branch index creeps out;
    # level enumerations may plateau on one branch for a long stretch,
    # which is why distance growth is not required here
    if len(set(coords)) != len(coords):
        return False
    branches = [c.branch for c in coords]
    return all(b >= a for a, b in zip(branches, branches[1:]))


def _window_bounded(product, tail, k):
    xs1 = [v.x1 for v in tail]
    xs2 = [v.x2 for v in tail]
    const1 = all(x == xs1[0] for x in xs1)
    const2 = all(x == xs2[0] for x in xs2)
    if const1 and _diverging(xs2):
        point = vertex_point(1, xs1[0])
    elif const2 and _diverging(xs1):
        point = vertex_point(2, xs2[0])
    elif _diverging(xs1) and _diverging(xs2):
        point = level_point(k)
    else:
        return LimitReport(NOT_CONVERGENT, window=CUSTOM_WINDOW, eta=k,
                           f_flags=_flags(product, k, not const1, not const2),
                           notes=("bounded height but components wander",))
    return _limit(product, point, window=CUSTOM_WINDOW)


def _window_unbounded(product, tail, up):
    eta = math.inf if up else -math.inf
    coords = [v.x1 for v in tail] if up else [v.x2 for v in tail]
    branches = [c.branch for c in coords]
    toward_gamma = (all(b2 >= b1 for b1, b2 in zip(branches, branches[1:]))
                    and branches[-1] - branches[0] >= max(2, len(tail) // 4))
    if toward_gamma:
        return _limit(
            product, ray_point(1 if up else 2, GAMMA), window=CUSTOM_WINDOW,
            notes=("limit is the height function of a distinguished end",))
    return LimitReport(NOT_DECIDED, eta=eta, window=CUSTOM_WINDOW,
                       notes=("diverging heights, but the escaping end cannot "
                              "be read off a finite window",))


# -- empirical convergence ----------------------------------------------------

def stabilization_bound(product: HoroProduct, family: SequenceFamily,
                        radius: int) -> int:
    """A sound index past which structured families have stabilized on
    the radius ball (heights past the ball and meet depths settled).

    Custom generators get a fixed default, reported as heuristic.
    """
    family.require_valid(product)
    return family.stabilization_bound(product, radius)


MAX_VIOLATIONS = 8


def empirical_pointwise_check(product: HoroProduct, family: SequenceFamily,
                              window: tuple[int, int], radius: int,
                              target: BoundaryPoint | ProductVertex | None
                              = None) -> EmpiricalReport:
    """Exact pointwise test over a window of indices and a test ball.

    For every ball vertex the anchored Busemann values across the
    window must be constant and, when a target anchor (a boundary point
    or an interior vertex, such as a report's ``anchor``) is supplied,
    equal to the target's value.  Violations carry the witnessing index; the
    scan stops at ``MAX_VIOLATIONS`` of them.  The values are the rows
    of ``busemann_rows`` over the terms' coordinates followed by the
    target's, so terms that agree on the ball share one row, and only
    rows that differ from the first are scanned vertex by vertex.
    """
    family.require_valid(product)
    return _pointwise_check(product, family, window, radius, target,
                            product.ball(radius))


def _pointwise_check(product, family, window, radius, target, ball):
    """``empirical_pointwise_check`` on the radius ball, built by the
    caller, so a check of many families builds it once."""
    n0, n1 = window
    if not (0 <= n0 < n1):
        raise ValueError("window must satisfy 0 <= n0 < n1")
    try:
        seq = list(itertools.islice(family.stream(product, n0), n1 - n0))
    except FamilyExhausted as exc:
        return EmpiricalReport(False, window, radius, 0, None,
                               ({"reason": str(exc)},))
    anchors = seq if target is None else [*seq, target]
    rows = busemann_rows([hm_coordinates(a) for a in anchors], ball)
    want = None if target is None else rows.pop()
    # only the terms whose row differs from the first can witness a jump
    moved = [(n0 + i, row) for i, row in enumerate(rows) if row != rows[0]]
    violations: list[dict] = []
    matched = None if target is None else True
    for j, y in enumerate(ball):
        first = rows[0][j]
        for index, row in moved:
            if row[j] != first:
                violations.append({"vertex": str(y), "index": index,
                                   "value": row[j], "previous": first})
                break
        else:
            if want is not None and first != want[j]:
                matched = False
                violations.append({"vertex": str(y), "value": first,
                                   "expected": want[j]})
        if len(violations) >= MAX_VIOLATIONS:
            break
    convergent = not any("previous" in v or "reason" in v for v in violations)
    return EmpiricalReport(convergent, window, radius, len(ball), matched,
                           tuple(violations))


@dataclass(frozen=True)
class IsomorphismSummary:
    total: int
    undecided: int
    # one {"family", "status", "window", "violations"} per disagreement
    disagreements: tuple[dict, ...]

    @property
    def agreed(self) -> int:
        return self.total - self.undecided - len(self.disagreements)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    def payload(self) -> dict:
        out = {
            "total": self.total,
            "agreed": self.agreed,
            "undecided": self.undecided,
            "disagreements": [d["family"] for d in self.disagreements],
        }
        if self.disagreements:
            out["witness"] = self.disagreements[0]
        return out


def agreement(product: HoroProduct, family: SequenceFamily, rep: LimitReport,
              radius: int, window: tuple[int, int] | None = None,
              ) -> tuple[EmpiricalReport, bool]:
    """The empirical check of a decided classification ``rep`` of the
    family, and whether the two routes agree.

    The window defaults to the family's stabilization bound and
    ``EXTRA_WINDOW`` indices past it.  Agreement means: both routes
    converge and the empirical values equal the classified limit
    function pointwise, or both routes report non-convergence.
    """
    family.require_valid(product)
    return _agreement(product, family, rep, radius, window,
                      product.ball(radius))


def _agreement(product, family, rep, radius, window, ball):
    """``agreement`` on the radius ball, built by the caller."""
    if window is None:
        n0 = family.stabilization_bound(product, radius)
        window = (n0, n0 + EXTRA_WINDOW)
    emp = _pointwise_check(product, family, window, radius, rep.anchor, ball)
    if rep.status in (INTERIOR, BOUNDARY):
        return emp, emp.convergent and emp.matched_target is True
    return emp, not emp.convergent


def isomorphism_check(product: HoroProduct,
                      families: Sequence[SequenceFamily],
                      radius: int = 4) -> IsomorphismSummary:
    """Symbolic classification against empirical pointwise convergence,
    family by family through ``agreement``.  Families the window
    heuristic cannot decide are counted separately.  Every family is
    checked on one radius ball.
    """
    ball = product.ball(radius)
    disagreements = []
    undecided = 0
    for family in families:
        rep = classify(product, family)
        if rep.status == NOT_DECIDED:
            undecided += 1
            continue
        emp, agreed = _agreement(product, family, rep, radius, None, ball)
        if not agreed:
            disagreements.append({"family": family.describe(),
                                  "status": rep.status,
                                  "window": list(emp.window),
                                  "violations": list(emp.violations)})
    return IsomorphismSummary(len(families), undecided, tuple(disagreements))


# -- realizability ------------------------------------------------------------

def realizability(product: HoroProduct, p: BoundaryPoint) -> tuple[bool, str | None]:
    """Whether some interior sequence converges to the descriptor.

    At a finite height, each tree whose coordinate is gamma needs its
    level sets infinite (that coordinate diverges at a fixed height).
    At height +infinity (-infinity) only the first (second) tree's
    coordinate matters: other ends are always reachable, and gamma
    needs that tree's level sets infinite (heights must climb while
    hugging the distinguished ray).
    """
    needed = [side for side, xi in ((1, p.xi1), (2, p.xi2)) if xi == GAMMA]
    if math.isinf(p.eta):
        needed = [side for side in needed if (side == 1) == (p.eta > 0)]
    finite = [side for side in needed
              if f_set(product.tree(side)) != FSet.ALL]
    if not finite:
        return True, None
    name = "first" if finite[0] == 1 else "second"
    if math.isinf(p.eta):
        return False, (f"heights cannot climb along the {name} tree's "
                       "distinguished ray: its levels are finite")
    return False, f"the {name} tree has finite horocycle levels"


# -- randomized family generation ----------------------------------------------

def _random_vertex(spec, rng: random.Random) -> VertexAddress:
    branch = rng.randrange(0, RANDOM_VERTEX_DIST + 1)
    word = []
    for _ in range(RANDOM_VERTEX_DIST - branch):
        count = spec.label_count(branch, word)
        if count == 0 or rng.random() < 0.4:
            break
        word.append(rng.randrange(count))
    return VertexAddress(branch, tuple(word))


def _random_product_vertex(product, rng) -> ProductVertex:
    x1 = _random_vertex(product.tree1, rng)
    pool = list(itertools.islice(level_sequence(product.tree2, -height(x1)), 6))
    return ProductVertex(x1, rng.choice(pool))


def random_families(product: HoroProduct, count: int, seed: int,
                    ) -> list[SequenceFamily]:
    """A reproducible mix of all structured kinds plus custom wrappers."""
    rng = random.Random(seed)
    out: list[SequenceFamily] = []
    # a diagonal climbs one tree off its distinguished ray, which needs
    # that tree's levels infinite; its bit is drawn even where only one
    # side has them, so the draws after it do not move
    sides = [side for side in (1, 2) if f_set(product.tree(side)) == FSet.ALL]

    def ray(side):
        return random_ray(product.tree(side), rng, 3, 4)

    def diagonal():
        side = sides[0] if rng.random() < 0.5 else sides[-1]
        return _diagonal_custom(product, toward_first=side == 1)

    makers = [
        lambda: EventuallyConstant(_random_product_vertex(product, rng)),
        lambda: RadialRay(1, ray(1), None if rng.random() < 0.5 else ray(2)),
        lambda: RadialRay(2, ray(2), None if rng.random() < 0.5 else ray(1)),
        lambda: RadialRay(1, GAMMA, None if rng.random() < 0.5 else ray(2)),
        lambda: RadialRay(2, GAMMA, None),
        lambda: Horocyclic(rng.randrange(-4, 5)),
        lambda: FixedFirst(_random_vertex(product.tree1, rng)),
        lambda: FixedSecond(_random_vertex(product.tree2, rng)),
        lambda: Alternating((rng.randrange(-2, 3), rng.randrange(-2, 3))),
        lambda: _shifted_custom(Horocyclic(rng.randrange(-3, 4)),
                                rng.randrange(1, 9)),
        lambda: _shifted_custom(FixedSecond(_random_vertex(product.tree2, rng)),
                                rng.randrange(1, 9)),
        *([diagonal] if sides else []),
    ]
    i = 0
    while len(out) < count:
        out.append(makers[i % len(makers)]())
        i += 1
    return out


@dataclass(frozen=True)
class _Shifted(Custom):
    """A custom wrapper whose terms are those of ``inner`` from index
    ``offset`` on, streamed from there; its windows are sized from
    ``inner`` instead of the blind default."""

    generator: None = None
    inner: SequenceFamily | None = None
    offset: int = 0

    def stream(self, product, start=0):
        return self.inner.stream(product, start + self.offset)

    def stabilization_bound(self, product, radius):
        return self.inner.stabilization_bound(product, radius) + self.offset


def _shifted_custom(inner: SequenceFamily, offset: int) -> Custom:
    return _Shifted(label=f"shifted+{offset}:{inner.describe()}",
                    inner=inner, offset=offset)


def _diagonal_custom(product, toward_first: bool) -> Custom:
    """Heights diverge while the climbing coordinate hugs its own
    distinguished ray, so the limit is that ray's height function.  The
    n-th term climbs to height n below the first ray vertex at or past
    z_n with a labeled child, which exists where the levels are
    infinite."""
    count = product.tree(1 if toward_first else 2).label_count

    def gen(n: int) -> ProductVertex:
        b = next(b for b in itertools.count(n) if count(b, ()))
        deep = VertexAddress(b, (0,) * (n + b))
        ray_side = VertexAddress(n, ())
        if toward_first:
            return ProductVertex(deep, ray_side)
        return ProductVertex(ray_side, deep)

    side = "first" if toward_first else "second"
    return Custom(gen, label=f"diagonal-to-gamma[{side}]")


# -- serialization ------------------------------------------------------------

def family_from_json(data: dict) -> SequenceFamily:
    """Any serializable family, read through FAMILY_KINDS; the inverse of
    its ``to_json``."""
    try:
        kind = data["kind"]
        if kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {kind!r}")
        return FAMILY_KINDS[kind].from_json(data)
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed family description: {exc}") from exc
