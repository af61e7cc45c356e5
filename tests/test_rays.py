"""Ends, their Busemann functions, horocycle levels, the level dichotomy."""

import hashlib
import itertools
import json
import math
from random import Random

import pytest

from horoprod import verify
from horoprod.limits import (CANONICAL_END, Alternating, FamilyExhausted,
                             FixedFirst, Horocyclic, _partner, random_families,
                             terms)
from horoprod.product import HoroProduct
from horoprod.rays import (
    BranchingRay,
    FSet,
    GAMMA,
    f_set,
    level_busemann,
    level_count,
    level_prefix_count,
    level_sequence,
    level_size,
    parse_ray,
    random_ray,
)
from horoprod.tree import (CustomRule, ExplicitCore, ORIGIN, TreeSpec,
                           UndecidableFamilyError, VertexAddress, busemann,
                           height)

R3 = TreeSpec.regular(3)
R4 = TreeSpec.regular(4)
LINE = TreeSpec.line()


def v(text):
    return VertexAddress.parse(text)


# -- representation ------------------------------------------------------------

def test_parse_and_format():
    assert parse_ray("gamma") is GAMMA
    ray = parse_ray("0;0.1(0.1)")
    assert ray == BranchingRay(0, (0, 1), (0, 1))
    assert parse_ray(str(ray)) == ray
    assert str(parse_ray("2;(0)")) == "2;(0)"
    with pytest.raises(ValueError):
        parse_ray("0;0.1")


def test_normalization():
    assert BranchingRay(0, (0,), (0,)) == BranchingRay(0, (), (0,))
    assert BranchingRay(1, (), (0, 1, 0, 1)) == BranchingRay(1, (), (0, 1))
    # prefix letter absorbed by rotating the cycle
    assert BranchingRay(0, (1,), (0, 1)) == BranchingRay(0, (), (1, 0))
    assert BranchingRay(0, (), (0,)) != BranchingRay(0, (), (1,))
    assert BranchingRay(0, (), (0,)) != BranchingRay(1, (), (0,))
    with pytest.raises(ValueError):
        BranchingRay(0, (), ())


def test_validity():
    assert BranchingRay(0, (), (1,)).is_valid(R3)
    assert not BranchingRay(0, (), (2,)).is_valid(R3)
    assert BranchingRay(1, (), (0,)).is_valid(R3)
    assert not BranchingRay(1, (), (1, 0)).is_valid(R3)  # z_1 has one label
    assert BranchingRay(0, (), (0,)).is_valid(LINE)
    assert not BranchingRay(0, (), (1,)).is_valid(LINE)
    assert not BranchingRay(1, (), (0,)).is_valid(LINE)
    assert GAMMA.is_valid(LINE)
    periodic = TreeSpec.ray_periodic([3], [3, 2])
    # vertices at even depth >= 2 have a single label, so only cycles
    # placing letter 0 there survive
    assert BranchingRay(0, (), (0, 1)).is_valid(periodic)
    assert not BranchingRay(0, (), (1, 0)).is_valid(periodic)
    assert not BranchingRay(0, (), (1, 1)).is_valid(periodic)


def test_custom_rule_ray_check_reads_64_letters():
    # label 1 vanishes at one suffix length: the end 0;(1) is rejected
    # only if that length is among the 64 letters read
    assert CustomRule.PROBE_LETTERS == 64
    for length, valid in ((64, True), (63, False)):
        rule = CustomRule(lambda b, s, n=length: 2 if len(s) == n else 3)
        assert BranchingRay(0, (), (1,)).is_valid(TreeSpec(rule, 2)) == valid


@pytest.mark.parametrize("degree,digest", [
    (3, "5f444b1c51fcbdabc5f82808f54097ab594da07ed503753fc617f7048ee3c7bd"),
    (4, "649f759cad6d52468992d048146fa3e28c86e73cc67140955e2bdf56a6dc3394"),
])
def test_sampled_rays_are_pinned(degree, digest):
    # the ends the pointwise-limits suite marches along
    rays = verify._sample_rays(TreeSpec.regular(degree), 50, 4213)
    text = json.dumps([str(r) for r in rays])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_random_ray_redraws_dead_ends():
    # on the line only the origin has a labeled child, so every draw
    # that leaves the ray further out is drawn again
    for seed in range(20):
        assert random_ray(LINE, Random(seed), 3, 4) == BranchingRay(0, (), (0,))


def test_ray_vertices():
    ray = BranchingRay(1, (), (0,))
    assert [str(ray.vertex(n)) for n in range(4)] == \
        ["0;", "1;", "1;0", "1;0.0"]
    assert GAMMA.vertex(5) == v("5;")
    for end in (ray, GAMMA):
        with pytest.raises(ValueError):
            end.vertex(-1)


# -- confluents and Busemann values ---------------------------------------------

def test_confluent_examples():
    # the confluent of v and an end, the farthest vertex shared by
    # [origin, v] and the end, sits at their meet depth on v's path
    def confluent(a, end):
        return a.vertex(end.meet_depth(a))

    assert confluent(v("3;"), GAMMA) == v("3;")
    assert confluent(v("0;0.1"), BranchingRay(0, (), (0,))) == v("0;0")
    assert confluent(v("2;"), BranchingRay(0, (), (0,))) == ORIGIN
    assert GAMMA.meet_depth(v("2;0.1")) == 2
    assert BranchingRay(3, (), (0,)).meet_depth(v("2;1")) == 2


def test_ray_busemann_examples():
    assert busemann(BranchingRay(2, (), (0,)), ORIGIN) == 0
    assert busemann(GAMMA, v("2;")) == -2
    assert busemann(BranchingRay(0, (), (0,)), v("2;")) == 2


def test_ray_busemann_is_height_for_gamma():
    for a in R3.ball(4):
        assert busemann(GAMMA, a) == height(a)


def test_level_busemann_examples():
    assert level_busemann(0, ORIGIN) == 0
    assert level_busemann(3, v("0;0")) == 1
    assert level_busemann(-2, v("1;")) == 1
    for k in range(-4, 5):
        assert level_busemann(k, ORIGIN) == 0
    for a in R3.ball(3):
        assert level_busemann(0, a) == -abs(height(a))


def test_level_busemann_at_infinite_levels_is_height():
    for a in R3.ball(4):
        assert level_busemann(math.inf, a) == height(a)
        assert level_busemann(-math.inf, a) == -height(a)


def test_ray_split_depth():
    assert GAMMA.split_depth(GAMMA) is None
    assert GAMMA.split_depth(BranchingRay(3, (), (0,))) == 3
    assert BranchingRay(0, (), (0,)).split_depth(
        BranchingRay(0, (), (0, 1))) == 1
    r = BranchingRay(2, (0, 1), (1, 0))
    assert r.split_depth(r) is None
    assert BranchingRay(0, (), (0,)).split_depth(
        BranchingRay(1, (), (0,))) == 0


def _letter(end, i):
    """The i-th letter of a branching end by the modular rule: the
    reference that ``BranchingRay.word`` is checked against."""
    if i < len(end.prefix):
        return end.prefix[i]
    return end.cycle[(i - len(end.prefix)) % len(end.cycle)]


def _steps(end, n):
    """The first n steps of the end's path from the origin: "up" along
    the distinguished ray, then child labels."""
    if end == GAMMA:
        return ["up"] * n
    return ["up"] * min(n, end.branch) + [_letter(end, i)
                                          for i in range(n - end.branch)]


def test_split_depth_matches_first_differing_step():
    # two ends split where their paths first differ; 80 steps pass every
    # branch (<= 4), prefix (<= 5) and cycle lcm (<= 20) drawn here
    rng = Random(2205)
    ends = [GAMMA] + [random_ray(spec, rng, 4, 5)
                      for spec in (R3, R4) for _ in range(40)]
    for a in ends:
        for b in ends:
            want = next((i for i, (x, y) in enumerate(zip(_steps(a, 80),
                                                          _steps(b, 80)))
                         if x != y), None)
            assert a.split_depth(b) == want == b.split_depth(a), (a, b)


WORD_SPECS = {"regular3": R3, "regular4": R4,
              "ray_periodic": TreeSpec.ray_periodic((2, 3), (3, 2)),
              "core": TreeSpec.explicit_core_of(R4, 2, 3)}


@pytest.mark.parametrize("label", WORD_SPECS)
def test_branching_word_matches_letter_rule(label):
    # vertex(step) at every length from 0 (the ray vertices) through the
    # prefix and across three cycles, and meet_depth against the common
    # stretch of the two origin paths, over the ball and past it along
    # the end, where a changed last letter leaves the end one step early
    spec = WORD_SPECS[label]
    rng = Random(2801)
    ball = spec.ball(6)
    for end in [random_ray(spec, rng, 3, 6) for _ in range(12)]:
        far = end.branch + len(end.prefix) + 3 * len(end.cycle)
        for step in range(far + 1):
            word = tuple(_letter(end, i) for i in range(step - end.branch))
            assert end.vertex(step) == VertexAddress(min(step, end.branch),
                                                     word), (end, step)
        along = [end.vertex(n) for n in range(end.branch + 1, far + 1)]
        off = [VertexAddress(a.branch, a.suffix[:-1] + (a.suffix[-1] + 1,))
               for a in along]
        for a in ball + along + off:
            path = ["up"] * a.branch + list(a.suffix)
            steps = _steps(end, len(path))
            want = next((i for i, (x, y) in enumerate(zip(path, steps))
                         if x != y), len(path))
            assert end.meet_depth(a) == want, (end, a)


def test_stabilization_along_ray():
    # anchored values along a ray settle to the ray's function
    from horoprod.tree import vertex_busemann

    ray = BranchingRay(1, (0,), (1,))
    ball = R3.ball(4)
    for y in ball:
        want = busemann(ray, y)
        for n in range(7, 15):
            assert vertex_busemann(ray.vertex(n), y) == want


# -- level sets ------------------------------------------------------------------

def test_level_count_examples():
    assert level_count(LINE, 2, 5) == 1
    assert level_count(R3, 0, 0) == 1
    # brute force: the only height-0 vertices within distance 2 are the
    # origin and the single labeled child of z_1
    assert sorted(str(a) for a in R3.ball(2) if height(a) == 0) == ["0;", "1;0"]
    assert level_count(R3, 0, 2) == 2


def test_level_sequence_matches_ball_filter():
    for spec in (R3, R4, LINE):
        for k in range(-3, 4):
            from_ball = sorted(str(a) for a in spec.ball(8) if height(a) == k)
            from_stream = []
            for a in level_sequence(spec, k):
                if 2 * a.branch + k > 8:
                    # later elements sit at distance 2*branch + k > 8
                    break
                from_stream.append(a)
            filtered = sorted(str(a) for a in from_stream
                              if a.branch + len(a.suffix) <= 8)
            assert filtered == from_ball, (spec, k)


def test_level_sequence_order():
    seq = list(itertools.islice(level_sequence(R3, 0), 8))
    assert [str(a) for a in seq] == \
        ["0;", "1;0", "2;0.0", "2;0.1", "3;0.0.0", "3;0.0.1", "3;0.1.0", "3;0.1.1"]
    branches = [a.branch for a in seq]
    assert branches == sorted(branches)


def test_level_sequence_finite_on_line():
    assert [str(a) for a in level_sequence(LINE, 2)] == ["0;0.0"]
    assert [str(a) for a in level_sequence(LINE, -1)] == ["1;"]


# -- counting and ranking level sets ---------------------------------------------

def _words_below(count, branch, suffix, length):
    """The vertices ``length`` letters below (branch, suffix) in word
    order, listed one by one: the reference for counting and ranking."""
    if length == 0:
        yield VertexAddress(branch, suffix)
        return
    for letter in range(count(branch, suffix)):
        yield from _words_below(count, branch, suffix + (letter,), length - 1)


def _reference_level(spec, k):
    bound = spec.family.branching_bound()
    for n in itertools.count(max(0, -k)):
        if bound is not None and n > max(bound, -k):
            return
        yield from _words_below(spec.label_count, n, (), n + k)


# every address of the ball of radius 2, with uneven degrees
IRREGULAR_CORE = TreeSpec(ExplicitCore(
    (("0;", 4), ("1;", 3), ("2;", 5), ("0;0", 2), ("0;1", 3), ("0;2", 4),
     ("1;0", 3), ("0;0.0", 3), ("0;1.0", 2), ("0;1.1", 4), ("0;2.0", 3),
     ("0;2.1", 2), ("0;2.2", 3)), 2, 3), 2)
COUNTED = {"regular3": R3, "regular4": R4, "line": LINE,
           "ray_periodic": TreeSpec.ray_periodic((3, 4), (3,)),
           "core": TreeSpec.explicit_core_of(R3, 3, 3),
           "irregular_core": IRREGULAR_CORE,
           "finite_core": TreeSpec.explicit_core_of(R3, 2, 2),
           "finite_ray_periodic": TreeSpec.ray_periodic((2,), (3,))}


def test_irregular_core_is_a_tree():
    assert IRREGULAR_CORE.validate() is None


@pytest.mark.parametrize("label", list(COUNTED))
def test_level_prefix_count_matches_ball_filter(label):
    # a height-k vertex at branch n lies at distance 2n + k from the origin
    spec = COUNTED[label]
    for k in range(-3, 4):
        for radius in range(5):
            assert level_prefix_count(spec, k, (radius - k) // 2) == \
                level_count(spec, k, radius), (k, radius)


@pytest.mark.parametrize("label", list(COUNTED))
def test_level_sequence_from_any_start_matches_enumeration(label):
    spec = COUNTED[label]
    for k in (-3, -1, 0, 2, 3):
        want = list(itertools.islice(_reference_level(spec, k), 2000))
        for start in (0, 1, 37, 500, 1999, 2500):
            got = list(itertools.islice(level_sequence(spec, k, start),
                                        max(2000 - start, 0)))
            assert got == want[start:], (k, start)


@pytest.mark.parametrize("k", [-1000, -12, 1000])
def test_level_sequence_far_start_lands_in_its_branch(k):
    # the start-th vertex sits at the branch whose prefix counts
    # bracket the index
    for spec in (R3, COUNTED["ray_periodic"], COUNTED["irregular_core"]):
        for start in (2 ** 40 + 3, 3 ** 300 + 1):
            first, second = itertools.islice(level_sequence(spec, k, start), 2)
            n = first.branch
            assert height(first) == k and spec.is_valid(first)
            assert level_prefix_count(spec, k, n - 1) <= start \
                < level_prefix_count(spec, k, n)
            assert second == next(level_sequence(spec, k, start + 1))


def test_level_sequence_refuses_negative_start():
    with pytest.raises(ValueError, match="start must be >= 0"):
        next(level_sequence(R3, 0, -1))


def test_counting_refuses_custom_rule():
    spec = TreeSpec(CustomRule(lambda branch, suffix: 3), 2)
    with pytest.raises(UndecidableFamilyError):
        level_prefix_count(spec, 0, 3)


STREAMED = {"dl33": HoroProduct(R3, R3), "dl3line": HoroProduct(R3, LINE),
            "general": HoroProduct(COUNTED["ray_periodic"], COUNTED["core"]),
            "finite": HoroProduct(R3, COUNTED["finite_ray_periodic"]),
            "two_finite": HoroProduct(LINE, COUNTED["finite_ray_periodic"])}


def _stream_run(product, family, start, limit):
    """The texts of up to ``limit`` terms from ``start``, and the message
    the stream ran out with (None if it did not)."""
    out = []
    try:
        for t in itertools.islice(family.stream(product, start), limit):
            out.append(str(t))
    except FamilyExhausted as exc:
        return out, str(exc)
    return out, None


@pytest.mark.parametrize("label", list(STREAMED))
def test_streams_from_any_start(label):
    # every kind of family, custom wrappers included: the stream from
    # start is the stream from 0 past start, and a finite one runs out
    # at the same index with the same message
    product = STREAMED[label]
    families = random_families(product, 24, 11)
    runs = [_stream_run(product, family, 0, 100) for family in families]
    for start in (1, 2, 5, 13, 40, 99):
        fresh = random_families(product, 24, 11)
        for family, (whole, message) in zip(fresh, runs):
            got = _stream_run(product, family, start, 100 - start)
            assert got == (whole[start:], message), (family.describe(), start)
        for family, (whole, message) in zip(families, runs):
            if message is None:
                assert [str(t) for t in terms(product, family, 100, start)] \
                    == whole[start:]


def test_pinned_stream_past_a_finite_level_says_finite():
    family = FixedFirst(VertexAddress(0, (0,)))    # tree 2 level -1: one vertex
    product = STREAMED["dl3line"]
    for start in (0, 1, 5):
        with pytest.raises(FamilyExhausted,
                           match="level set at height -1 of tree 2 is finite"):
            terms(product, family, 10, start)


def test_alternating_past_a_huge_finite_level_counts_its_end():
    # tree 2's level 1000 holds 2**999 vertices: a stream opened past its
    # end runs out at once, and the first missing term is counted, not
    # reached by listing the terms before it
    product = STREAMED["finite"]
    size = 2 ** 999
    assert level_prefix_count(product.tree2, 1000, 0) == size
    message = "a level set at height -1000 or 1000 is finite"
    for family in (Horocyclic(-1000), Alternating((-1000,))):
        assert len(terms(product, family, size, size - 3)) == 3
        with pytest.raises(FamilyExhausted, match=message):
            terms(product, family, size + 5, size)
    pair = Alternating((-1000, -1000))
    assert len(terms(product, pair, 2 * size, 2 * size - 3)) == 3
    for start in (2 * size - 3, 2 * size + 1, 5 * size):
        with pytest.raises(FamilyExhausted, match=message):
            terms(product, pair, start + 9, start)
    # level 2 of tree 2 is small, so the mixed family ends there first,
    # even for a stream opened far past it
    with pytest.raises(FamilyExhausted, match="height 2 or -2 is finite"):
        terms(product, Alternating((-1000, 2)), size + 5, size)


def test_level_size_is_zero_a_count_or_infinite():
    # an origin of degree 1 is a leaf, which validation refuses, and
    # every positive level of such a tree is empty
    leaf = TreeSpec(ExplicitCore((("0;", 1),), 0, 2), 2)
    assert leaf.validate() is not None
    assert [level_size(leaf, k) for k in (-2, 0, 1, 2)] == [1, 1, 0, 0]
    for label in ("line", "finite_core", "finite_ray_periodic"):
        spec = COUNTED[label]
        for k in range(-3, 4):
            assert level_size(spec, k) == level_count(spec, k, 12), (label, k)
    for label in ("regular3", "ray_periodic", "core", "irregular_core"):
        assert level_size(COUNTED[label], -2) == math.inf


def test_f_set():
    assert f_set(R3) == FSet.ALL
    assert f_set(LINE) == FSet.EMPTY
    assert f_set(TreeSpec.explicit_core_of(R3, 4, 2)) == FSet.EMPTY
    assert f_set(TreeSpec.explicit_core_of(LINE, 2, 3)) == FSet.ALL
    assert f_set(TreeSpec.ray_periodic([2, 3], [2])) == FSet.ALL
    # bushy subtrees cannot rescue a branchless ray
    assert f_set(TreeSpec.ray_periodic([2], [3, 2])) == FSet.EMPTY
    with pytest.raises(UndecidableFamilyError):
        f_set(TreeSpec(CustomRule(lambda branch, suffix: 3), 2))


def test_f_set_consistent_with_counting_oracle():
    specs = [R3, LINE, TreeSpec.explicit_core_of(R3, 3, 2),
             TreeSpec.ray_periodic([2], [3, 2])]
    for spec in specs:
        infinite = f_set(spec) == FSet.ALL
        for k in (-2, 0, 1):
            lo, hi = level_count(spec, k, 9), level_count(spec, k, 11)
            assert (hi > lo) == infinite, (spec, k, lo, hi)


def test_canonical_at_height():
    for spec in (R3, LINE):
        for h in range(-4, 5):
            a = _partner(h, CANONICAL_END)
            assert height(a) == h
            assert a.branch + len(a.suffix) == abs(h)
            spec.require_valid(a)
