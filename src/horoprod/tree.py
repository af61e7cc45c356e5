"""Pointed rooted trees with exact integer geometry.

A tree here is locally finite, leafless (every vertex has degree >= 2),
rooted at a base vertex, and pointed at a distinguished end: the ray
z_0 = origin, z_1, z_2, ...  A vertex is addressed by a pair
(branch, suffix): ``branch`` is the index of the ray vertex where the
path from the origin leaves the ray, and ``suffix`` is the word of child
labels walked off the ray from there.  The empty suffix addresses the
ray vertex itself, so every vertex has exactly one address.

Child labels: the origin has labels 0..deg-2, a ray vertex z_n (n >= 1)
has labels 0..deg-3 (its other two neighbors are z_{n-1} and z_{n+1}),
and an off-ray vertex has labels 0..deg-2 (one neighbor is its parent).

A vertex answers ``meet_depth(w)`` and ``vertex(step)`` as the ends of
``rays`` do, so ``busemann`` reads a vertex and an end alike.

The height of a vertex is len(suffix) - branch: moving toward the
distinguished end decreases it by one, every other move increases it by
one.  All quantities are exact integers; no floats appear anywhere in
this module.  Values are immutable and operations are pure, so
everything is safe to share between threads.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from typing import Callable, ClassVar, Iterator, NamedTuple, Sequence


class AddressError(ValueError):
    """Raised for addresses that do not exist in the given tree."""


class SpecError(ValueError):
    """Raised for structurally malformed tree descriptions."""


@dataclass(frozen=True, slots=True)
class VertexAddress:
    """Canonical coordinates of a tree vertex: ray index plus child word."""

    branch: int
    suffix: tuple[int, ...] = ()

    def __post_init__(self):
        if self.branch < 0:
            raise AddressError(f"negative branch index: {self.branch}")
        if self.suffix and min(self.suffix) < 0:
            raise AddressError(f"negative child label in {self.suffix!r}")

    def __str__(self):
        return address_text(self.branch, self.suffix)

    @classmethod
    def parse(cls, text: str) -> "VertexAddress":
        head, sep, tail = text.partition(";")
        if not sep:
            raise AddressError(f"missing ';' in vertex address {text!r}")
        try:
            branch = parse_decimal(head)
            suffix = tuple(map(parse_decimal, tail.split("."))) if tail else ()
        except ValueError as exc:
            raise AddressError(f"unparsable vertex address {text!r}") from exc
        return cls(branch, suffix)

    def meet_depth(self, w: "VertexAddress") -> int:
        """Length of the common initial segment of the two origin paths."""
        if self.branch != w.branch:
            return min(self.branch, w.branch)
        n = 0
        for a, b in zip(self.suffix, w.suffix):
            if a != b:
                break
            n += 1
        return self.branch + n

    def vertex(self, step: int) -> "VertexAddress":
        """The vertex at the given depth on the origin path of this one."""
        if step <= self.branch:
            return VertexAddress(step, ())
        return VertexAddress(self.branch, self.suffix[: step - self.branch])


ORIGIN = VertexAddress(0, ())

_DECIMAL = re.compile(r"0|-?[1-9][0-9]*")


def parse_decimal(text: str) -> int:
    """An integer written in canonical ASCII decimal: ``0``, or an
    optional ``-`` and digits without a leading zero.  ``int()`` would
    also take spaces, underscores, ``+``, leading zeros and non-ASCII
    digits, and so read one number from many texts."""
    if _DECIMAL.fullmatch(text) is None:
        raise ValueError(f"not a canonical decimal integer: {text!r}")
    return int(text)


def address_text(branch: int, suffix: Sequence[int]) -> str:
    """The text form of the address (branch, suffix)."""
    return f"{branch};" + ".".join(map(str, suffix))


def origin_dist(v: VertexAddress) -> int:
    """Graph distance from the origin: ray part plus off-ray part."""
    return v.branch + len(v.suffix)


def height(v: VertexAddress) -> int:
    """Busemann value of the distinguished end at v."""
    return len(v.suffix) - v.branch


def down_move(branch: int, suffix: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The (branch, suffix) one step closer to the distinguished end."""
    return (branch, suffix[:-1]) if suffix else (branch + 1, ())


def gamma_ward(v: VertexAddress) -> VertexAddress:
    """The unique neighbor one step closer to the distinguished end."""
    return VertexAddress(*down_move(v.branch, v.suffix))


# the plain function, so the distance kernel pays no attribute lookup
meet_depth = VertexAddress.meet_depth


def tree_dist(v: VertexAddress, w: VertexAddress) -> int:
    """Exact graph distance between two addresses of one tree."""
    return origin_dist(v) + origin_dist(w) - 2 * meet_depth(v, w)


def vertex_busemann(z: VertexAddress, y: VertexAddress) -> int:
    """d(z, y) - d(z, origin), the Busemann function anchored at z."""
    return tree_dist(z, y) - origin_dist(z)


def busemann(x, y: VertexAddress) -> int:
    """Busemann function of x, a vertex or an end: d(o, y) minus twice
    the meet depth (``vertex_busemann`` for a vertex, height for gamma)."""
    return origin_dist(y) - 2 * x.meet_depth(y)


TABLE_BUDGET = 1 << 24
"""The most entries a ``ranked_ball`` table may hold: about 16 times
the largest in use, the 1.06 M of ``regular(4)`` at radius 12."""


class TableTooLarge(ValueError):
    """Raised when a ball's table would pass ``TABLE_BUDGET`` entries."""

    def __init__(self, radius: int):
        super().__init__(f"the tree's radius-{radius} ball has more than"
                         f" {TABLE_BUDGET} vertices")


class UndecidableFamilyError(Exception):
    """Raised when a decision procedure meets a custom degree rule."""


def to_payload(value):
    """The JSON form of a value: None, a bool, an int or a str as it is,
    +-inf as "+inf"/"-inf", a tuple or list as a list and a dict as a
    dict (their items through this rule), anything else as its text."""
    if value is None or isinstance(value, (int, str)):  # bool is an int
        return value
    if isinstance(value, float) and math.isinf(value):
        return "+inf" if value > 0 else "-inf"
    if isinstance(value, (tuple, list)):
        return [to_payload(item) for item in value]
    if isinstance(value, dict):
        return {key: to_payload(item) for key, item in value.items()}
    return str(value)


class Report:
    """A frozen dataclass whose payload is its fields through
    ``to_payload``."""

    def payload(self) -> dict:
        return {f.name: to_payload(getattr(self, f.name))
                for f in fields(self)}


@dataclass(frozen=True)
class Violation(Report):
    message: str
    witness: VertexAddress | None = None


class FieldCodec:
    """JSON for a frozen dataclass through the fields named in
    ``parsers``, which maps each to the function that reads it back.
    A field is written through ``to_payload`` and left out when None."""

    parsers: ClassVar[dict[str, Callable]] = {}

    def to_json(self) -> dict:
        return {name: to_payload(value) for name in self.parsers
                if (value := getattr(self, name)) is not None}

    @classmethod
    def from_json(cls, data: dict):
        return cls(**{name: read_field(name, parse, data[name])
                      for name, parse in cls.parsers.items()
                      if data.get(name) is not None})


def read_field(name: str, parse: Callable, value):
    """parse(value), with a TypeError that names the field."""
    try:
        return parse(value)
    except TypeError as exc:
        raise TypeError(f"{name}: {exc}") from None


def strict_int(value) -> int:
    """A JSON integer as it stands: bool, float and text are refused, as
    in walk configs, rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def int_tuple(values) -> tuple[int, ...]:
    return tuple(strict_int(v) for v in values)


# -- tree families -----------------------------------------------------------
#
# A family answers degree_at(branch, suffix) for a position given as a
# branch index and any sequence of child labels, which it reads and does
# not keep, so the walk kernel can ask about its mutable suffix list and
# no caller builds an address.

class DegreeRule(FieldCodec):
    """Base of the tree families.

    Each family answers ``degree_at(branch, suffix)``, the degree of a
    position, which ``TreeSpec.label_count`` turns into a child-label
    count.  It also answers ``violation(spec)`` (a degree below
    ``spec.min_degree``, with a witness), ``branching_bound()`` (the
    largest ray index with a labeled child; None if unbounded) and
    ``ray_letters_to_check(ray)`` (how many letters of a branching end
    decide that it exists).  A rule that is not ``decidable`` answers
    the first and the last by probing: out to
    ``CustomRule.PROBE_RADIUS`` and over ``CustomRule.PROBE_LETTERS``
    letters.  Each family also answers ``uniform_below(branch,
    depth)``: whether, below any one position of that branch and suffix
    length, the label count of a position is fixed by its depth, so the
    words there count and rank as mixed-radix numbers (a rule that is
    not ``decidable`` never says so).  In JSON a family is its ``kind``
    plus its fields.
    """

    kind: ClassVar[str | None] = None
    decidable: ClassVar[bool] = True

    def constant_counts(self) -> int | None:
        """The number of upward neighbors every vertex has, or None when
        it varies (or is not known up front)."""
        return None


@dataclass(frozen=True)
class Regular(DegreeRule):
    kind = "regular"
    parsers = {"degree": strict_int}
    degree: int

    def __post_init__(self):
        if self.degree < 2:
            raise SpecError(f"regular degree must be >= 2, got {self.degree}")

    def degree_at(self, branch, suffix):
        return self.degree

    def violation(self, spec):
        if self.degree < spec.min_degree:
            return Violation(f"degree {self.degree} < {spec.min_degree}", ORIGIN)
        return None

    def branching_bound(self):
        return None if self.degree >= 3 else 0

    def ray_letters_to_check(self, ray):
        return len(ray.prefix) + len(ray.cycle)

    def uniform_below(self, branch, depth):
        return True

    def constant_counts(self):
        return self.degree - 1


@dataclass(frozen=True)
class Line(Regular):
    """The two-ended path: the regular tree of degree 2."""

    kind = "line"
    parsers = {}
    degree: int = field(default=2, init=False)


@dataclass(frozen=True)
class RayPeriodic(DegreeRule):
    """Degrees cycle along the ray and, separately, with off-ray depth.

    deg(z_n) = ray_degrees[n % len(ray_degrees)]; an off-ray vertex whose
    suffix has length L >= 1 gets off_ray_degrees[(L - 1) % len(...)].
    """

    kind = "ray_periodic"
    parsers = {"ray_degrees": int_tuple, "off_ray_degrees": int_tuple}
    ray_degrees: tuple[int, ...]
    off_ray_degrees: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ray_degrees", tuple(self.ray_degrees))
        object.__setattr__(self, "off_ray_degrees", tuple(self.off_ray_degrees))
        if not self.ray_degrees or not self.off_ray_degrees:
            raise SpecError("degree cycles must be nonempty")
        if min(self.ray_degrees + self.off_ray_degrees) < 1:
            raise SpecError("degrees must be positive")

    def degree_at(self, branch, suffix):
        if suffix:
            return self.off_ray_degrees[(len(suffix) - 1) % len(self.off_ray_degrees)]
        return self.ray_degrees[branch % len(self.ray_degrees)]

    def violation(self, spec):
        flag = spec.min_degree
        for n, d in enumerate(self.ray_degrees):
            if d < flag:
                return Violation(f"ray degree {d} < {flag}", VertexAddress(n, ()))
        for i, d in enumerate(self.off_ray_degrees):
            if d < flag:
                witness = VertexAddress(0, (0,) * (i + 1))
                return Violation(f"off-ray degree {d} < {flag}", witness)
        return None

    def branching_bound(self):
        return None if any(d >= 3 for d in self.ray_degrees) else 0

    def ray_letters_to_check(self, ray):
        return (len(ray.prefix)
                + math.lcm(len(ray.cycle), len(self.off_ray_degrees))
                + len(ray.cycle))

    def uniform_below(self, branch, depth):
        return True


@dataclass(frozen=True)
class ExplicitCore(DegreeRule):
    """Explicitly listed degrees out to a radius, constant degree beyond.

    ``entries`` lists (address text, degree) for every vertex with
    origin distance <= radius; all deeper vertices get ``tail_degree``.
    ``degree_map`` holds the same degrees keyed by ``VertexAddress``.
    """

    kind = "explicit_core"
    entries: tuple[tuple[str, int], ...]
    radius: int
    tail_degree: int

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(sorted(self.entries)))
        if self.tail_degree < 2:
            raise SpecError(f"tail degree must be >= 2, got {self.tail_degree}")
        if self.radius < 0:
            raise SpecError("core radius must be >= 0")
        degree_map = {}
        for text, deg in self.entries:
            v = VertexAddress.parse(text)
            if deg < 1:
                raise SpecError(f"listed degree must be positive at {text!r}")
            degree_map[v] = deg
        object.__setattr__(self, "degree_map", degree_map)

    def degree_at(self, branch, suffix):
        if branch + len(suffix) > self.radius:
            return self.tail_degree
        try:
            return self.degree_map[VertexAddress(branch, tuple(suffix))]
        except KeyError:
            raise SpecError("core does not list in-radius address "
                            + address_text(branch, suffix)) from None

    def violation(self, spec):
        flag = spec.min_degree
        derived = []
        for layer in spec.layers(self.radius):  # checked before it is expanded
            missing = [v for v in layer if v not in self.degree_map]
            if missing:
                return Violation("core is missing a reachable address", missing[0])
            derived += layer
        extra = set(self.degree_map).difference(derived)
        if extra:
            return Violation("core lists an unreachable address",
                             min(extra, key=str))
        for v in derived:
            d = self.degree_map[v]
            if d < flag:
                return Violation(f"degree {d} < {flag}", v)
        if self.tail_degree < flag:
            return Violation(f"tail degree {self.tail_degree} < {flag}",
                             VertexAddress(self.radius + 1, ()))
        return None

    def branching_bound(self):
        return None if self.tail_degree >= 3 else self.radius

    def ray_letters_to_check(self, ray):
        return (max(self.radius - ray.branch, 0)
                + len(ray.prefix) + len(ray.cycle))

    def uniform_below(self, branch, depth):
        # every position past the core has the tail degree
        return branch + depth >= self.radius

    def to_json(self):
        return {"core": dict(self.entries), "radius": self.radius,
                "tail_degree": self.tail_degree}

    @classmethod
    def from_json(cls, data: dict) -> "ExplicitCore":
        entries = tuple((t, read_field(f"core {t}", strict_int, d))
                        for t, d in data["core"].items())
        return cls(entries, read_field("radius", strict_int, data["radius"]),
                   read_field("tail_degree", strict_int, data["tail_degree"]))


@dataclass(frozen=True)
class CustomRule(DegreeRule):
    """An arbitrary ``degree_at(branch, suffix)`` callback, which reads
    ``suffix`` as any sequence and does not keep it.  Usable for
    evaluation and simulation; decision procedures refuse it, validation
    probes it out to ``PROBE_RADIUS``, a ray check reads
    ``PROBE_LETTERS`` letters, and serialization refuses it."""

    decidable = False
    PROBE_RADIUS = 8
    PROBE_LETTERS = 64
    degree_at: Callable[[int, Sequence[int]], int]

    def violation(self, spec):
        for v in spec.ball(self.PROBE_RADIUS):
            d = self.degree_at(v.branch, v.suffix)
            if d < spec.min_degree:
                return Violation(f"degree {d} < {spec.min_degree}", v)
        return None

    def branching_bound(self):
        raise UndecidableFamilyError("level-set decisions need a decidable family")

    def ray_letters_to_check(self, ray):
        return self.PROBE_LETTERS

    def uniform_below(self, branch, depth):
        return False

    def to_json(self):
        raise SpecError("custom degree rules are not serializable")


TREE_FAMILIES = {cls.kind: cls for cls in (Regular, Line, RayPeriodic, ExplicitCore)}


class RankedBall(NamedTuple):
    """A tree's radius ball numbered in the order of the address texts
    (``TreeSpec.ranked_ball``), as flat lists indexed by rank:

    - ``labels[r]``, the last letter of r's suffix, or -1 on the ray;
    - ``downs[r]``, the offset d - r of the rank d of r's ``down_move``,
      or 0 where that leaves the ball (the ray vertex at the radius);
      off the ray, d is r's parent;
    - ``ups[r]``, the offsets u - r of the ranks u of r's ``up_moves``,
      as one tuple shared by every rank whose moves lie alike, and
      empty at exactly the radius, where moves may leave the ball;

    and ``ray[b]``, the rank of the ray vertex of branch b.  No address
    is kept: ``address`` reads one back along the downs, and
    ``addresses`` reads them all."""

    labels: list[int]
    downs: list[int]
    ups: list[tuple[int, ...]]
    ray: list[int]

    def address(self, rank: int) -> tuple[int, tuple[int, ...]]:
        """The (branch, suffix) of a rank."""
        labels, downs, word = self.labels, self.downs, []
        while labels[rank] >= 0:
            word.append(labels[rank])
            rank += downs[rank]
        return self.ray.index(rank), tuple(reversed(word))

    def addresses(self) -> list[tuple[int, tuple[int, ...]]]:
        """``address`` of every rank, built in rank order, where each
        parent comes before its children."""
        branch = {rank: b for b, rank in enumerate(self.ray)}
        out = []
        for rank, (label, down) in enumerate(zip(self.labels, self.downs)):
            if label < 0:
                out.append((branch[rank], ()))
            else:
                b, s = out[rank + down]
                out.append((b, s + (label,)))
        return out


def _text_order(n: int, memo: dict) -> tuple[list[int], list[int]]:
    """The labels 0..n-1 in the order of their texts ("10" before "2"),
    and the place of each label in that order; ``memo`` keeps them by n."""
    if n not in memo:
        order = sorted(range(n), key=str)
        memo[n] = order, sorted(range(n), key=order.__getitem__)
    return memo[n]


def _uniform_table(radices: Sequence[int], text_orders: dict) -> tuple:
    """The ``RankedBall`` rows (labels, downs, ups) of a subtree whose
    vertices at depth i below its root have radices[i] children each,
    numbered from its root as rank 0, whose label and down are left -1
    and 0.  Below the root, each child's subtree has the table of the
    remaining radices, so the table is that one repeated once per child
    in text order, and since its offsets hold wherever it lands, ``ups``
    repeats the same tuples.  It is built from the deepest level up in
    reversed order, where a root comes last, so a level with a single
    child appends its root in place."""
    labels, downs, ups = [-1], [0], [()]
    for n in reversed(radices):
        m = len(labels)
        order, places = _text_order(n, text_orders)
        labels *= n
        downs *= n
        ups *= n
        # the copy k from the start holds the child of text place n-1-k
        labels[m - 1::m] = order[::-1]
        downs[m - 1::m] = range(-1 - m * (n - 1), 0, m)
        labels.append(-1)
        downs.append(0)
        ups.append(tuple(1 + m * i for i in places))
    labels.reverse()
    downs.reverse()
    ups.reverse()
    return labels, downs, ups


@dataclass(frozen=True)
class TreeSpec:
    """A pointed tree given by a degree rule plus the minimum-degree flag."""

    family: DegreeRule
    min_degree: int = 2

    def __post_init__(self):
        if self.min_degree not in (2, 3):
            raise SpecError(f"min_degree must be 2 or 3, got {self.min_degree}")

    # convenience constructors used all over the test-suite and scripts
    @classmethod
    def regular(cls, degree: int, min_degree: int | None = None) -> "TreeSpec":
        if min_degree is None:
            min_degree = 3 if degree >= 3 else 2
        return cls(Regular(degree), min_degree)

    @classmethod
    def line(cls) -> "TreeSpec":
        return cls(Line(), 2)

    @classmethod
    def ray_periodic(cls, ray_degrees, off_ray_degrees, min_degree=2) -> "TreeSpec":
        return cls(RayPeriodic(tuple(ray_degrees), tuple(off_ray_degrees)), min_degree)

    @classmethod
    def explicit_core_of(cls, template: "TreeSpec", radius: int,
                         tail_degree: int, min_degree: int = 2) -> "TreeSpec":
        """Freeze the ball of ``template`` to the given radius as a core."""
        entries = tuple(
            (str(v), template.degree(v)) for v in template.ball(radius)
        )
        return cls(ExplicitCore(entries, radius, tail_degree), min_degree)

    # -- degree rule ---------------------------------------------------------

    def degree(self, v: VertexAddress) -> int:
        """Total neighbor count of a canonical address."""
        self.require_valid(v)
        return self.family.degree_at(v.branch, v.suffix)

    def label_count(self, branch: int, suffix: Sequence[int]) -> int:
        """Labeled children below (branch, suffix): a ray vertex past the
        origin spends two neighbors on the ray, any other vertex one on
        its parent.  0 means none."""
        d = self.family.degree_at(branch, suffix)
        return max(0, d - 2 if branch and not suffix else d - 1)

    # -- structure -----------------------------------------------------------

    def is_valid(self, v: VertexAddress) -> bool:
        """Whether each letter of v's suffix is a child label of the
        prefix before it.  The prefix is one word grown a letter at a
        time, which families read and do not keep."""
        count, word = self.label_count, []
        for letter in v.suffix:
            if letter >= count(v.branch, word):
                return False
            word.append(letter)
        return True

    def require_valid(self, v: VertexAddress) -> None:
        if not self.is_valid(v):
            raise AddressError(f"address {v} does not exist in this tree")

    def neighbors(self, v: VertexAddress) -> list[VertexAddress]:
        """All adjacent addresses; first entry is the gamma-ward one."""
        self.require_valid(v)
        return [gamma_ward(v)] + self.up_neighbors(v)

    def up_neighbors(self, v: VertexAddress) -> list[VertexAddress]:
        """The neighbors of height(v) + 1, in ``up_moves`` order."""
        return [VertexAddress(b, s) for b, s in self.up_moves(v.branch, v.suffix)]

    def up_moves(self, branch: int,
                 suffix: tuple[int, ...]) -> list[tuple[int, tuple[int, ...]]]:
        """The (branch, suffix) of each neighbor of height + 1: the ray
        vertex before a ray vertex past the origin, then the children in
        label order.  With ``down_move`` this is the edge relation that
        every enumeration reads."""
        ups = [(branch - 1, ())] if branch and not suffix else []
        ups.extend((branch, suffix + (j,))
                   for j in range(self.label_count(branch, suffix)))
        return ups

    def ball(self, radius: int) -> list[VertexAddress]:
        """Every address within the given distance of the origin (BFS order)."""
        if radius < 0:
            raise ValueError("radius must be >= 0")
        return [v for layer in self.layers(radius) for v in layer]

    def layers(self, radius: int) -> Iterator[list[VertexAddress]]:
        """``ball(radius)`` one distance at a time; a layer is expanded
        only when the next one is asked for."""
        layer = [ORIGIN]
        yield layer
        for depth in range(radius):
            # a neighbor is new exactly when it lies farther out, and
            # each vertex past the origin has one neighbor nearer it
            layer = [VertexAddress(b, s) for v in layer
                     for b, s in (down_move(v.branch, v.suffix),
                                  *self.up_moves(v.branch, v.suffix))
                     if b + len(s) > depth]
            yield layer

    def ranked_ball(self, radius: int) -> RankedBall:
        """The ball as the table that product balls are built from.

        Every (branch, suffix) within the radius gets a rank, its index
        in the order of the address texts.  That order is a preorder:
        branches in the order of their "b;" texts ("10;" before "1;"),
        and within a branch a word before its extensions, with labels in
        the order of their texts ("10" before "2").  One depth-first
        walk over ``up_moves`` numbers it, with an explicit stack, so no
        text is built and no radius is too deep.  Below an off-ray
        vertex that the family calls ``uniform_below``, the label counts
        go by depth alone, so the walk copies that subtree's table
        (``_uniform_table``) in one step instead of walking it.

        Raises ``TableTooLarge`` before the table would pass
        ``TABLE_BUDGET`` entries.
        """
        if radius < 0:
            raise ValueError("radius must be >= 0")
        size = radius + 1                   # entries numbered or promised
        if size > TABLE_BUDGET:
            raise TableTooLarge(radius)
        labels, downs, ups = [], [], []
        ray = [0] * (radius + 1)            # the rank of each ray vertex
        walked = {}     # rank -> the ranks of its up moves, once known
        text_orders = {}
        shape = rows = None     # the last uniform table and its radices
        family, count = self.family, self.label_count
        for b in sorted(range(radius + 1), key=lambda b: f"{b};"):
            ray[b] = len(labels)
            stack = [(-1, 0, -1, ())]   # (parent rank, its move, label, suffix)
            while stack:
                parent, move, label, s = stack.pop()
                rank = len(labels)
                if parent >= 0:
                    walked[parent][move] = rank
                depth = b + len(s)
                if depth < radius and s and family.uniform_below(b, len(s)):
                    word = list(s)
                    radices = []
                    for _ in range(radius - depth):
                        radices.append(count(b, word))
                        word.append(0)
                    entries = 1
                    for n in reversed(radices):
                        entries = 1 + n * entries
                    size += entries - 1
                    if size > TABLE_BUDGET:
                        raise TableTooLarge(radius)
                    if radices != shape:
                        rows = None     # drop the last table before the next
                        shape, rows = radices, _uniform_table(radices, text_orders)
                    labels += rows[0]
                    downs += rows[1]
                    ups += rows[2]
                    labels[rank], downs[rank] = label, parent - rank
                    continue
                labels.append(label)
                downs.append(parent - rank if parent >= 0 else 0)
                if depth == radius:
                    ups.append(())
                    continue
                n = count(b, s)
                size += n
                if size > TABLE_BUDGET:
                    raise TableTooLarge(radius)
                # the ray move comes first; a ray vertex's is filled below
                first = 1 if b and not s else 0
                walked[rank] = [0] * (first + n)
                ups.append(())
                stack.extend((rank, first + j, j, s + (j,))
                             for j in reversed(_text_order(n, text_orders)[0]))
        # a ray vertex below the radius moves along the ray: down to the
        # next ray vertex, and up to the one before it past the origin
        for b in range(radius):
            downs[ray[b]] = ray[b + 1] - ray[b]
            if b:
                walked[ray[b]][0] = ray[b - 1]
        for rank, moves in walked.items():
            ups[rank] = tuple(u - rank for u in moves)
        return RankedBall(labels, downs, ups, ray)

    # -- validation ----------------------------------------------------------

    def validate(self) -> Violation | None:
        """None when every derivable degree is >= min_degree.

        Decidable families are checked exactly; a CustomRule is checked
        out to ``CustomRule.PROBE_RADIUS`` only.
        """
        return self.family.violation(self)

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {"family": self.family.kind, **self.family.to_json(),
                "min_degree": self.min_degree}

    @classmethod
    def from_json(cls, data: dict) -> "TreeSpec":
        try:
            kind = data["family"]
            min_degree = read_field("min_degree", strict_int,
                                    data.get("min_degree", 2))
            if kind not in TREE_FAMILIES:
                raise SpecError(f"unknown tree family {kind!r}")
            return cls(TREE_FAMILIES[kind].from_json(data), min_degree)
        except (KeyError, TypeError, AttributeError) as exc:
            raise SpecError(f"malformed tree description: {exc}") from exc
