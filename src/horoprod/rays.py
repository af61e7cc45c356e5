"""Ends of a pointed tree and horocycle levels.

A boundary point is a non-backtracking infinite path from the origin:
either the distinguished end itself (``GAMMA``) or a path that follows
the distinguished ray up to some vertex and then walks an eventually
periodic word of child labels.  Eventually periodic ends are dense in
the full end space and keep every comparison exact and terminating;
arbitrary ends can still be probed through their vertex sequences.

Both kinds of end answer the same four questions: ``vertex(step)``,
``meet_depth(v)``, ``split_depth(other)`` and ``is_valid(spec)``.  The
distinguished end answers as a branching end whose branch lies past
every vertex.  The boundary metric 2^(-N) between two ends is never
materialized as a float; ``split_depth`` returns the exponent N as an
exact integer.

Level sets: H_k collects the vertices of height k.  Whether H_k is
infinite does not depend on k.  Sketch: a vertex of height k either is
the ray vertex z_{-k} or lies in the subtree hanging off some ray
vertex z_n with at least one labeled child, at suffix depth n + k.
Each such subtree meets H_k in finitely many vertices (local
finiteness) and, because no vertex is a leaf, in at least one vertex
whenever n + k >= 1.  So H_k is infinite exactly when infinitely many
ray vertices carry a labeled child, independently of k; the set of
infinite levels is all of Z or empty.  ``f_set`` implements that
dichotomy and the level-counting oracle cross-checks it.

Words are checked, counted, ranked and sampled on plain (branch,
suffix) positions through ``TreeSpec.label_count``: ``TreeSpec.is_valid``
is the one rule behind ``BranchingRay.is_valid``, ``level_prefix_count``
and ``level_sequence`` read a level set as blocks of mixed-radix words,
so a count lists no vertex and a stream starts at any index, and
``random_ray`` draws the ends that the verification suites and the
random families use.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from random import Random
from typing import Iterator

from .tree import (
    AddressError,
    TreeSpec,
    VertexAddress,
    height,
    parse_decimal,
)


@dataclass(frozen=True)
class GammaEnd:
    """The distinguished end the tree is pointed at: a branching end
    whose branch lies past every vertex."""

    def vertex(self, step: int) -> VertexAddress:
        """The step-th vertex along the end's path from the origin."""
        if step < 0:
            raise ValueError("step must be >= 0")
        return VertexAddress(step, ())

    def meet_depth(self, v: VertexAddress) -> int:
        """Length of the common initial segment of v's origin path and the end."""
        return v.branch

    def split_depth(self, other: Ray) -> int | None:
        """Exponent N with boundary gap 2^(-N); None when the ends coincide."""
        return None if other == self else other.split_depth(self)

    def is_valid(self, spec: TreeSpec) -> bool:
        return True

    def __str__(self):
        return "gamma"


@dataclass(frozen=True)
class BranchingRay:
    """An end leaving the distinguished ray at z_branch, then walking
    ``prefix`` followed by ``cycle`` repeated forever.

    Construction normalizes to the unique shortest representation, so
    structural equality coincides with equality of ends.
    """

    branch: int
    prefix: tuple[int, ...]
    cycle: tuple[int, ...]

    def __post_init__(self):
        prefix = tuple(self.prefix)
        cycle = tuple(self.cycle)
        if not cycle:
            raise ValueError("cycle must be nonempty")
        if self.branch < 0:
            raise ValueError("negative branch index")
        if any(c < 0 for c in prefix + cycle):
            raise ValueError("negative child label")
        for p in range(1, len(cycle)):
            if len(cycle) % p == 0 and cycle == cycle[:p] * (len(cycle) // p):
                cycle = cycle[:p]
                break
        while prefix and prefix[-1] == cycle[-1]:
            prefix = prefix[:-1]
            cycle = (cycle[-1],) + cycle[:-1]
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "cycle", cycle)

    def word(self, length: int) -> tuple[int, ...]:
        """The first ``length`` letters: the prefix, then the cycle
        repeated."""
        repeats = length // len(self.cycle) + 1
        return (self.prefix + self.cycle * repeats)[:length]

    def vertex(self, step: int) -> VertexAddress:
        if step <= self.branch:
            return GAMMA.vertex(step)
        return VertexAddress(self.branch, self.word(step - self.branch))

    def meet_depth(self, v: VertexAddress) -> int:
        return v.meet_depth(VertexAddress(self.branch, self.word(len(v.suffix))))

    def split_depth(self, other: Ray) -> int | None:
        # distinct ends part somewhere, so doubling the compared
        # stretch of this end's path ends
        if other == self:
            return None
        n = self.branch + 1
        while (depth := other.meet_depth(self.vertex(n))) >= n:
            n *= 2
        return depth

    def is_valid(self, spec: TreeSpec) -> bool:
        """Whether every letter of the end is a legal child label.

        Exact for the decidable families; a CustomRule is probed over the
        first ``CustomRule.PROBE_LETTERS`` letters only.
        """
        n = spec.family.ray_letters_to_check(self)
        return spec.is_valid(self.vertex(self.branch + n))

    def __str__(self):
        pre = ".".join(str(c) for c in self.prefix)
        cyc = ".".join(str(c) for c in self.cycle)
        return f"{self.branch};{pre}({cyc})"


GAMMA = GammaEnd()
Ray = GammaEnd | BranchingRay


def parse_ray(text: str) -> Ray:
    if text == "gamma":
        return GAMMA
    head, sep, tail = text.partition(";")
    if not sep or not tail.endswith(")") or "(" not in tail:
        raise ValueError(f"unparsable ray {text!r}")
    pre_text, _, cyc_text = tail[:-1].partition("(")
    try:
        branch = parse_decimal(head)
        prefix = tuple(map(parse_decimal, pre_text.split("."))) if pre_text else ()
        cycle = tuple(map(parse_decimal, cyc_text.split("."))) if cyc_text else ()
    except ValueError as exc:
        raise ValueError(f"unparsable ray {text!r}") from exc
    return BranchingRay(branch, prefix, cycle)


def level_busemann(k: int | float, v: VertexAddress) -> int:
    """Busemann limit attached to horocycle level k: |k| - |k - height|.
    Clamping k into [-|height|, |height|] keeps the value, and gives the
    limit +-height at k = +-inf in integer arithmetic."""
    h = height(v)
    k = min(max(k, -abs(h)), abs(h))
    return abs(k) - abs(k - h)


def random_ray(spec: TreeSpec, rng: Random, max_branch: int,
               max_letters: int) -> BranchingRay:
    """A branching end drawn from ``rng``.

    Each attempt draws a branch index in 0..max_branch, then a word of
    1..max_letters letters, each uniform over the labels of its
    position, then a cut that splits the word into prefix and cycle.
    An attempt that meets a position without children, or whose end
    does not exist, is drawn again, up to 64 times.
    """
    count = spec.label_count
    for _ in range(64):
        branch = rng.randrange(0, max_branch + 1)
        word = []
        for _ in range(rng.randrange(1, max_letters + 1)):
            n = count(branch, word)
            if n == 0:
                break
            word.append(rng.randrange(n))
        else:
            cut = rng.randrange(0, len(word))
            ray = BranchingRay(branch, tuple(word[:cut]), tuple(word[cut:]))
            if ray.is_valid(spec):
                return ray
    raise RuntimeError("could not sample a ray")


def require_valid_ray(spec: TreeSpec, ray: Ray) -> None:
    if not ray.is_valid(spec):
        raise AddressError(f"ray {ray} does not exist in this tree")


# -- level sets ---------------------------------------------------------------

class FSet:
    """Verdict on which horocycle levels are infinite."""

    ALL = "all_integers"
    EMPTY = "empty"


def f_set(spec: TreeSpec) -> str:
    """FSet.ALL when every level is infinite, FSet.EMPTY when none is."""
    return FSet.EMPTY if spec.family.branching_bound() is not None else FSet.ALL


def _level_blocks(spec: TreeSpec, k: int
                  ) -> Iterator[tuple[int, tuple[int, ...], list[int]]]:
    """The height-k vertices in level order, as blocks (branch, stem,
    radices).  A block holds the words stem + digits, where digit j runs
    below radices[j]; read as a mixed-radix number with the first digit
    most significant, the digits rank the block's prod(radices) words in
    word order.  A branch's stems are its words down to the first depth
    that is ``uniform_below``: the empty word, except inside an explicit
    core.  Terminates when the level set is finite."""
    family = spec.family
    bound = family.branching_bound()
    count = spec.label_count
    for n in itertools.count(max(0, -k)):
        if bound is not None and n > max(bound, -k):
            return
        length = n + k
        stems = [()]
        for depth in range(length):
            if family.uniform_below(n, depth):
                break
            stems = [w + (a,) for w in stems for a in range(count(n, w))]
        for stem in stems:
            # below a uniform stem, the all-zero word stands for its depth
            word = list(stem)
            radices = []
            while len(word) < length:
                radices.append(count(n, word))
                word.append(0)
            yield n, stem, radices


def level_sequence(spec: TreeSpec, k: int,
                   start: int = 0) -> Iterator[VertexAddress]:
    """The height-k vertices, by increasing branch index then word order,
    from the start-th on.  Blocks before it are skipped by their size,
    the start-th word is read from its mixed-radix digits, and each next
    word is the digits plus one.

    Terminates when the level set is finite; otherwise never exhausts.
    """
    if start < 0:
        raise ValueError("start must be >= 0")
    for n, stem, radices in _level_blocks(spec, k):
        size = math.prod(radices)
        if start >= size:
            start -= size
            continue
        digits = []
        for radix in reversed(radices):
            start, digit = divmod(start, radix)
            digits.append(digit)
        digits.reverse()
        while True:
            yield VertexAddress(n, stem + tuple(digits))
            j = len(digits) - 1
            while j >= 0 and digits[j] == radices[j] - 1:
                digits[j] = 0
                j -= 1
            if j < 0:
                break
            digits[j] += 1


def level_prefix_count(spec: TreeSpec, k: int, max_branch: int) -> int:
    """How many height-k vertices have branch index <= max_branch: the
    sizes of the level's blocks, added up without listing a vertex."""
    total = 0
    for n, _, radices in _level_blocks(spec, k):
        if n > max_branch:
            break
        total += math.prod(radices)
    return total


def level_size(spec: TreeSpec, k: int) -> int | float:
    """|H_k|: the sizes of the level's blocks added up, or math.inf when
    the level set is infinite."""
    if f_set(spec) == FSet.ALL:
        return math.inf
    return sum(math.prod(radices) for _, _, radices in _level_blocks(spec, k))


def level_count(spec: TreeSpec, k: int, radius: int) -> int:
    """|H_k within the radius ball|, by brute-force ball filtering.

    Deliberately independent of ``level_sequence`` and
    ``level_prefix_count`` so the routes can check each other.
    """
    return sum(1 for v in spec.ball(radius) if height(v) == k)

