"""Nearest-neighbor biased random walks on the product graph.

Each step climbs with probability ``p_up`` (uniform over the first
coordinate's upward neighbors, the second coordinate forced toward its
end) and otherwise descends symmetrically.  Per step the walker computes
its distance from the base point (closed form, never breadth-first),
its height, and the Busemann value of each configured probe end, and
keeps every ``record_stride``-th of them (none at stride 0).

A coordinate is its ray index m and the stack of child labels below
z_m.  The height h fixes both stack depths, m1 + h on tree 1 and m2 - h
on tree 2, so the distance from the base is 2(m1 + m2) - |h|.

One solver (``_block_steps``) turns a block of draws, each step's
direction ``up`` and the number ``c`` of the upward neighbor it climbs
to, into these values in numpy.  The height is the running sum of the
steps, and each ray index is minus a floor of the height walk: the
floor follows the height, except that a climb that pushes a letter
opens an excursion, and the floor stays at its level until the height
returns to it.  Only the outermost excursions count (``_floor``).  A
branching-ray probe tracks L, the length of the prefix of the suffix
that follows the ray, as the floor of the stack depth, whose excursions
open at the pushes of a letter other than the ray's.  Inside an
excursion the floor stands still, so the stack depth returns to a level
exactly when the height walk does: one sort of the height walk's
crossings serves every floor of a block.  A gamma probe is the height
on tree 1 and minus the height on tree 2, so its series and slope are
the height's.

Two draw sources feed it, chosen from the families' ``constant_counts``:

- Regular and Line trees give every vertex d - 1 upward neighbors, so
  the letters on a stack never matter and no stack is kept
  (``_constant_draws``).  When every step takes the same number of
  MT19937 words (three on two trees of degree 3: two for ``random()``,
  one for ``getrandbits(1)``; two on two lines) a block's draws are
  sliced from one ``MT19937.random_raw`` call of numpy's bit generator,
  which continues the trajectory's ``Random`` word for word from its
  state (``_decode_words``); otherwise they are drawn call by call.  A
  walk that records nothing (stride 0) runs in flat memory.
- Any other family keeps each suffix as a list and asks the tree spec
  how many children a position has (``TreeSpec.label_count`` on the
  family's degree: the degree cycles for RayPeriodic, the core table
  for ExplicitCore inside its radius, the callback for a CustomRule),
  one step at a time (``_suffix_draws``).  No address is built per
  step.  Its up move, ``_climber``, is the one ``step`` replays.

Walks instantiate integrable ergodic increments over a Bernoulli
source, which makes the law-of-large-numbers drift identities testable:
the escape speed equals the distance slope, the height slope matches it
in absolute value, probes on ends away from the escape direction climb
at the speed, and the height function of the escape side falls at the
speed.  ``drift_report`` checks exactly that, and flags the unbiased
zero-speed regime instead of asserting anything there.

Reproducibility: trajectory i draws from its own Mersenne Twister
seeded with (seed << 32) ^ (i * 0x9E3779B1), recorded in the summary as
the rng identifier.  Identical configs give bit-identical results;
trajectories are independent and merged in index order.

Slopes are exact rationals: integer least squares over the second half
of each trajectory (the first half is discarded as burn-in), averaged
across trajectories with the spread reported as a standard error.  The
sums behind them are Python ints, folded in block by block as the walk
runs, so slopes are exact at every length and a walk keeps only the
values it records.  Blocks are cut at the half.  A walk that records
nothing (stride 0) reads no value of the first half, so there it
carries only the state that every later value depends on: the height,
the two floors and each probe's L.  It solves each of those floors at
the last step of a block only, as the lowest level whose excursion is
still open (``_last_floor``).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, Sequence

import numpy as np

from .tree import TreeSpec, VertexAddress, gamma_ward
from .rays import GAMMA, Ray, parse_ray, require_valid_ray
from .product import HoroProduct, ProductVertex

RNG_ID = "mt19937/per-trajectory seed (seed<<32)^(i*0x9E3779B1)"
ZERO_SPEED_THRESHOLD = 0.05     # |mean speed| up to this is the zero-speed regime

_P_UP = re.compile(r"[0-9]+(?:\.[0-9]+|/0*[1-9][0-9]*)?")


def parse_p_up(text) -> Fraction:
    """An up-bias as a walk file gives it: a string of ASCII digits with
    at most one ``/`` or ``.``, as in ``"1"``, ``"4/5"`` or ``"0.5"``
    (every ``str`` of a Fraction in [0, 1] is one).  Anything else, a
    zero denominator included, raises ``ValueError``; the range is
    ``WalkConfig``'s to check."""
    if not isinstance(text, str) or _P_UP.fullmatch(text) is None:
        raise ValueError("p_up must be a fraction or decimal in ASCII "
                         f"digits, such as '4/5' or '0.5', got {text!r}")
    return Fraction(text)


@dataclass(frozen=True)
class WalkConfig:
    product: HoroProduct
    p_up: Fraction
    steps: int
    seed: int
    trajectories: int
    probes: tuple[tuple[int, Ray], ...] = ()
    record_stride: int = 1  # 0 keeps summaries only
    max_total_steps: int | None = None

    def __post_init__(self):
        for name in ("steps", "seed", "trajectories", "record_stride",
                     "max_total_steps"):
            value = getattr(self, name)
            if value is None and name == "max_total_steps":
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if isinstance(self.p_up, bool) or not isinstance(self.p_up, (Fraction, int)):
            raise ValueError(f"p_up must be a Fraction or an integer, got {self.p_up!r}")
        object.__setattr__(self, "p_up", Fraction(self.p_up))
        object.__setattr__(self, "probes", tuple(self.probes))
        if not 0 <= self.p_up <= 1:
            raise ValueError("p_up must lie in [0, 1]")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.trajectories < 1:
            raise ValueError("trajectories must be >= 1")
        if self.record_stride < 0:
            raise ValueError("record_stride must be >= 0")
        if self.max_total_steps is not None and self.max_total_steps < 1:
            raise ValueError("max_total_steps must be >= 1")
        for tree, ray in self.probes:
            if type(tree) is not int or tree not in (1, 2):
                raise ValueError(f"probe tree must be 1 or 2, got {tree!r}")
            require_valid_ray(self.product.tree(tree), ray)

    def to_json(self) -> dict:
        return {
            "spec": {"tree1": self.product.tree1.to_json(),
                     "tree2": self.product.tree2.to_json()},
            "p_up": str(self.p_up),
            "steps": self.steps,
            "seed": self.seed,
            "trajectories": self.trajectories,
            "probes": [{"tree": t, "ray": str(r)} for t, r in self.probes],
            "record_stride": self.record_stride,
            "max_total_steps": self.max_total_steps,
        }

    @classmethod
    def from_json(cls, data: dict) -> "WalkConfig":
        try:
            product = HoroProduct(TreeSpec.from_json(data["spec"]["tree1"]),
                                  TreeSpec.from_json(data["spec"]["tree2"]))
            probes = tuple((p["tree"], parse_ray(p["ray"]))
                           for p in data.get("probes", ()))
            return cls(product, parse_p_up(data["p_up"]), data["steps"],
                       data["seed"], data["trajectories"], probes,
                       data.get("record_stride", 1),
                       data.get("max_total_steps"))
        except (AttributeError, TypeError) as exc:
            raise ValueError(f"malformed walk config: {exc}") from exc


@dataclass(frozen=True)
class TrajectoryStats:
    index: int
    steps: int
    record_stride: int
    dist: np.ndarray | None     # recorded every stride steps, index 0 first
    height: np.ndarray | None
    probe_values: tuple[np.ndarray, ...]
    dist_slope: Fraction | None         # None below 2 steps
    height_slope: Fraction | None
    probe_slopes: tuple[Fraction | None, ...]
    final_dist: int
    final_height: int


@dataclass(frozen=True)
class WalkResult:
    config: WalkConfig
    trajectories: tuple[TrajectoryStats, ...]
    partial: bool


def _trajectory_seed(seed: int, index: int) -> int:
    return (seed << 32) ^ (index * 0x9E3779B1)


def _climber(rng: Random, spec: TreeSpec):
    """The up move of one coordinate of ``spec``, drawing from ``rng``.

    ``climb(m, s)`` draws a uniform upward neighbor of the position (ray
    index ``m``, suffix list ``s``) and returns its number ``c``.  The
    neighbors are numbered as ``TreeSpec.up_neighbors`` lists them: the
    ray vertex above first, then the labeled children.  A child's label
    is pushed onto ``s``; the ray vertex above is not, and the caller
    moves there (``m - 1``) when ``m`` is positive and ``s`` is still
    empty.  One neighbor takes no draw, two take one bit, more take one
    ``randrange``.
    """
    getrandbits = rng.getrandbits
    randrange = rng.randrange
    count = spec.label_count

    def climb(m: int, s: list[int]) -> int:
        ray = 1 if m and not s else 0
        cnt = count(m, s) + ray
        c = 0 if cnt == 1 else getrandbits(1) if cnt == 2 else randrange(cnt)
        if c >= ray:
            s.append(c - ray)
        return c

    return climb


def step(product: HoroProduct, v: ProductVertex, rng: Random,
         p_up: float) -> ProductVertex:
    """One walk step; deterministic in the rng state and history.

    It draws exactly as ``simulate`` does, through the same up move, so
    a trajectory replays step by step from its rng seed.
    """
    up = rng.random() < p_up
    x, other, tree = ((v.x1, v.x2, product.tree1) if up
                      else (v.x2, v.x1, product.tree2))
    branch = x.branch
    suffix = list(x.suffix)
    _climber(rng, tree)(branch, suffix)
    if branch and not suffix:
        branch -= 1
    moved = VertexAddress(branch, tuple(suffix))
    if up:
        return ProductVertex(moved, gamma_ward(other))
    return ProductVertex(gamma_ward(other), moved)


def _unpack(codes) -> tuple[np.ndarray, np.ndarray]:
    """``(up, c)`` from steps packed as ``c << 1 | up``."""
    code = np.array(codes, dtype=np.int64)
    return code & 1 == 1, code >> 1


def _suffix_draws(rng: Random, p: float, spec1: TreeSpec, spec2: TreeSpec):
    """The draws of the walk on any two trees, as a generator:
    ``send(n)`` runs n more steps and returns their ``(up, c)``.

    Each coordinate keeps its suffix list, which the trees' label
    counts read through ``_climber``.
    """
    rand = rng.random
    climb1 = _climber(rng, spec1)
    climb2 = _climber(rng, spec2)
    codes: list[int] = []
    add = codes.append
    m1 = m2 = 0
    s1: list[int] = []
    s2: list[int] = []
    n = yield
    while True:
        for _ in range(n):
            if rand() < p:
                add(climb1(m1, s1) << 1 | 1)
                if m1 and not s1:
                    m1 -= 1
                if s2:
                    s2.pop()
                else:
                    m2 += 1
            else:
                add(climb2(m2, s2) << 1)
                if m2 and not s2:
                    m2 -= 1
                if s1:
                    s1.pop()
                else:
                    m1 += 1
        out = _unpack(codes)
        codes.clear()
        n = yield out


def _constant_draws(rng: Random, p: float, count1: int, count2: int,
                    bit_generator: Callable):
    """``_suffix_draws`` on two trees whose every vertex has ``count1``
    (``count2``) upward neighbors, where no suffix is needed: sliced
    from one run of words of numpy's ``MT19937``, continued from the
    state of ``rng``, when each step takes the same number of them
    (``_decode_words``), else drawn call by call from ``rng``.  The
    ``MT19937`` is ``bit_generator()``, whose state is then set."""
    # MT19937 words per step when that number is fixed: two for random()
    # and, on two trees of degree 3, one for the climb's getrandbits(1)
    words = 3 if count1 == count2 == 2 else 2 if count1 == count2 == 1 else 0
    n = yield
    if words:
        bits = bit_generator()
        bits.state = _mt19937_state(rng)
        while True:
            n = yield _decode_words(bits, n, words, p)
    rand = rng.random
    # fn(arg) draws among c upward neighbors as _climber does
    (draw1, arg1), (draw2, arg2) = (
        (int, 0) if c == 1 else (rng.getrandbits, 1) if c == 2
        else (rng.randrange, c) for c in (count1, count2))
    while True:
        n = yield _unpack([draw1(arg1) << 1 | 1 if rand() < p
                           else draw2(arg2) << 1 for _ in range(n)])


def _mt19937():
    """A numpy ``MT19937``, imported here: numpy.random costs every other
    walk and command its import time and memory."""
    from numpy.random import MT19937
    return MT19937()


def _mt19937_state(rng: Random) -> dict:
    """The state of ``rng`` as numpy's ``MT19937.state``: the 624-word
    key and the position of the next word in it."""
    *key, pos = rng.getstate()[1]
    return {"bit_generator": "MT19937",
            "state": {"key": np.array(key, dtype=np.uint32), "pos": pos}}


def _decode_words(bits, n: int, words: int,
                  p: float) -> tuple[np.ndarray, np.ndarray]:
    """``(up, c)`` of the next n steps at ``words`` words per step, sliced
    from ``bits.random_raw(words * n)``, the next words of the Mersenne
    Twister in the order ``Random`` draws them.  ``random()`` is
    (w0 >> 5) * 2**26 + (w1 >> 6) over 2**53, so it falls below p
    exactly when that integer falls below ceil(p * 2**53);
    ``getrandbits(1)`` is the top bit of its word."""
    w = bits.random_raw(words * n).reshape(n, words)
    r = (w[:, 0] >> 5) << 26 | w[:, 1] >> 6
    up = r < math.ceil(p * 2 ** 53)
    c = w[:, 2] >> 31 if words == 3 else np.zeros(n, dtype=np.uint64)
    return up, c.astype(np.int64)


def _crossings(keys: np.ndarray) -> np.ndarray:
    """For each step, the index of the next step that crosses the same
    edge (``keys`` holds each edge's lower end), or ``len(keys)``."""
    n = len(keys)
    # a block spans fewer than 2**15 levels, so the stable sort is a
    # radix sort on int16
    order = np.argsort((keys - keys.min()).astype(np.int16), kind="stable")
    ordered = keys[order]
    following = np.full(n, n, dtype=np.int64)
    following[:-1] = np.where(ordered[1:] == ordered[:-1], order[1:], n)
    after = np.empty(n, dtype=np.int64)
    after[order] = following
    return after


def _floor(x: np.ndarray, keys: np.ndarray, after: np.ndarray,
           opens: np.ndarray, f0: int) -> np.ndarray:
    """The floor f <= x of a walk ``x`` over one block, whose steps are
    -1, 0 or +1 (a step of 0 crosses no edge; its key matches no edge's).

    On the floor (f = x) f follows x, except that an up step in
    ``opens`` opens an excursion: f keeps its level until x next returns
    to it, at the next crossing of the same edge (``after``).  Inside an
    excursion f is x at its start.  Excursions nest, so a time lies
    inside one exactly when the running maximum of the ends of those
    opened so far lies beyond it.  ``f0`` is f at time 0, below x[0]
    when an excursion from the last block is still open.
    """
    n = len(keys)
    # index j holds time j - 1; index 0 is a floor point at level f0
    xs = np.concatenate(([f0], x))
    end = np.zeros(n + 2, dtype=np.int64)
    if x[0] > f0:
        back = np.flatnonzero(keys == f0)
        end[1] = back[0] + 2 if len(back) else n + 2
    starts = np.flatnonzero(opens)
    end[starts + 2] = after[starts] + 2
    index = np.arange(n + 2)
    inside = np.maximum.accumulate(end) > index
    return xs[np.maximum.accumulate(np.where(inside, 0, index))][1:]


def _last_floor(x: np.ndarray, opens: np.ndarray, f0: int) -> int:
    """The floor that ``_floor`` solves, at the block's last step only:
    the lowest level whose excursion is still open.  That is f0 if x
    never returns to it, else the lowest x_j over the steps j in
    ``opens`` whose level x never returns to after j, else x[-1].  x
    stays above such a level, so the first of them is the lowest."""
    low = np.minimum.accumulate(x[::-1])[::-1]      # low[j] = min(x[j:])
    if low[0] > f0:
        return f0
    lasting = opens & (low[1:] > x[:-1])
    j = lasting.argmax()
    return int(x[j] if lasting[j] else x[-1])


def _letters(ray, depth: np.ndarray) -> np.ndarray:
    """The letter of ``ray.word`` at each depth."""
    pre, cyc = len(ray.prefix), len(ray.cycle)
    table = np.array(ray.prefix + ray.cycle, dtype=np.int64)
    return table[np.where(depth < pre, depth, pre + (depth - pre) % cyc)]


def _block_steps(draws, rays):
    """The walk solved a block at a time in numpy, as a generator:
    ``send((n, full))`` takes the next n ``(up, c)`` from ``draws``.  A
    full block returns the per-step dist, height and branching-ray probe
    values (``rays``, in order) as int64 arrays; a carry block (``full``
    false) returns None and only carries the walk's state (h, the floors
    and each probe's L) to its last step.

    The height is the running sum of the steps.  Each tree's ray index
    is minus the floor of its height walk (h on tree 1, -h on tree 2),
    whose excursions open at the climbs that push a letter: all of them
    but a climb from a ray vertex to the one above (``c == 0`` there).
    A branching-ray probe's matched length L is the floor of the stack
    depth e = x - floor, whose excursions open at the pushes of a letter
    other than the ray's at that depth; the letter pushed at a ray
    vertex is ``c - 1``.  A full block solves every floor at every step
    (``_floor``) on one sort of the height walk's crossings (``after``):
    inside an excursion the floor stands still, so e returns to a level
    exactly when the height walk does.  A carry block solves each floor
    at its last step only (``_last_floor``).
    """
    next(draws)
    h = 0
    floors = [0, 0]             # -m1 and -m2
    matched = [0] * len(rays)   # each probe's L
    n, full = yield
    while True:
        up, c = draws.send(n)
        hs = np.empty(n + 1, dtype=np.int64)
        hs[0] = h
        np.cumsum(2 * up - 1, out=hs[1:])
        hs[1:] += h
        if full:
            keys = hs[:-1] - ~up    # lower end of each step's edge
            after = _crossings(keys)
            edges = (keys, -1 - keys)
        walks = []      # each tree's (x, floor, floor at step 0)
        for i, (x, climbs) in enumerate(((hs, up), (-hs, ~up))):
            opens = climbs & ((x[:-1] >= 0) | (c != 0))
            f0 = floors[i]
            if full:
                f = _floor(x, edges[i], after, opens, f0)
                floors[i] = int(f[-1])
            else:
                f = floors[i] = _last_floor(x, opens, f0)
            walks.append((x, f, f0))
        if full:
            m1, m2 = -walks[0][1], -walks[1][1]
            out = [2 * (m1 + m2)[1:] - np.abs(hs[1:]), hs[1:]]
        for j, (tree, ray) in enumerate(rays):
            x, f, f0 = walks[tree - 1]
            # In a carry block f is the last step's floor, so x - f is
            # the stack depth from the floor's last move on, which leaves
            # it at 0.  Before that move it can lie below 0, as before a
            # climb up the ray; clipped, it opens no excursion there, and
            # none opened at 0 or above before the move lasts past it.
            e = np.maximum(x - f, 0)
            letter = c - ((e[:-1] == 0) & (x[:-1] < 0))
            opens = (e[1:] > e[:-1]) & (letter != _letters(ray, e[:-1]))
            if not full:
                matched[j] = _last_floor(e, opens, matched[j])
                continue
            # x's crossings serve e, which returns to a level when x
            # does; until e first returns to L, f is f0, so e's keys
            # are x's less f0
            L = _floor(e, edges[tree - 1] - f0, after, opens, matched[j])
            matched[j] = int(L[-1])
            m, b = -f, ray.branch
            value = np.where(m != b, m + e - 2 * np.minimum(m, b),
                             e - m - 2 * L)
            out.append(value[1:])
        h = int(hs[-1])
        n, full = yield out if full else None


# Steps in a block: the unit of the block kernel and of the folds of the
# per-step values into records and sums.  It bounds the walk's memory
# when record_stride is 0.
_CHUNK = 8192


def _run_trajectory(config: WalkConfig, index: int, budget: int | None,
                    bit_generator: Callable) -> TrajectoryStats:
    rng = Random(_trajectory_seed(config.seed, index))
    steps = config.steps if budget is None else min(config.steps, budget)
    stride = config.record_stride

    # The series are dist, height and each branching-ray probe.  A gamma
    # probe reads the height: h on tree 1 and -h on tree 2, since
    # len(s1) - m1 = h and len(s2) - m2 = -h.  So each probe reads one
    # series with a sign.
    rays = []
    reads = []
    for tree, ray in config.probes:
        if ray == GAMMA:
            reads.append((1, 1 if tree == 1 else -1))
        else:
            reads.append((2 + len(rays), 1))
            rays.append((tree, ray))

    spec1, spec2 = config.product.tree1, config.product.tree2
    count1 = spec1.family.constant_counts()
    count2 = spec2.family.constant_counts()
    p = float(config.p_up)
    if count1 is not None and count2 is not None:
        draws = _constant_draws(rng, p, count1, count2, bit_generator)
    else:
        draws = _suffix_draws(rng, p, spec1, spec2)
    walk = _block_steps(draws, rays)
    next(walk)

    # A fold keeps every stride-th value and adds the values of the
    # fitted half (steps half..steps) to exact sums for the slopes.
    # Blocks are cut at the half, so that an unrecorded walk, of which
    # nothing reads a value before the half, carries only its state
    # through the blocks before it: the values from the half on depend
    # on nothing else.
    zero = np.zeros(1, dtype=np.int64)
    records = [[zero] for _ in range(2 + len(rays))]
    sums = [[0, 0] for _ in records]
    half = steps // 2
    # each block's first step, and the step past the last block; step 0
    # is no block's, so the half's block starts at step 1 or later
    start = max(half, 1)
    cuts = [*range(1, start, _CHUNK), *range(start, steps + 1, _CHUNK),
            steps + 1]
    dist = h = 0
    for first, end in zip(cuts, cuts[1:]):
        fitted = first >= half
        series = walk.send((end - first, fitted or stride))
        if series is None:
            continue
        for values, record, total in zip(series, records, sums):
            if stride:
                record.append(values[-first % stride::stride].copy())
            if fitted:
                sum_y, sum_ny = _chunk_sums(values, first)
                total[0] += sum_y
                total[1] += sum_ny
        dist, h = int(series[0][-1]), int(series[1][-1])

    slopes = [_half_slope(steps, sum_y, sum_ny) for sum_y, sum_ny in sums]
    arrays = [np.concatenate(r) if stride else None for r in records]
    return TrajectoryStats(
        index=index, steps=steps, record_stride=stride,
        dist=arrays[0], height=arrays[1],
        probe_values=tuple(sign * arrays[i] for i, sign in reads)
        if stride else (),
        dist_slope=slopes[0], height_slope=slopes[1],
        probe_slopes=tuple(None if slopes[i] is None else sign * slopes[i]
                           for i, sign in reads),
        final_dist=dist, final_height=h)


def _chunk_sums(values, first: int) -> tuple[int, int]:
    """sum(y_n) and sum(n * y_n) for values y_first, y_first+1, ...,
    as exact Python ints.  The prefix sums P_k add up to
    sum((len - k) * y_k), whence sum(n * y_n) = (first + len) * sum_y
    - sum(P_k).  They are taken in int64 on y - y_first, which moves by
    at most one a step, so they cannot wrap at any length."""
    values = np.asarray(values, dtype=np.int64)
    size = len(values)
    y0 = int(values[0])
    prefix = np.cumsum(values - y0)
    sum_y = int(prefix[-1]) + size * y0
    sum_prefix = int(prefix.sum()) + y0 * size * (size + 1) // 2
    return sum_y, (first + size) * sum_y - sum_prefix


def _sum_squares(n: int) -> int:
    return n * (n + 1) * (2 * n + 1) // 6


def _half_slope(n_total: int, sum_y: int, sum_ny: int) -> Fraction | None:
    """Exact least-squares slope of y_n against n over n = n_total // 2
    .. n_total, given sum(y_n) and sum(n * y_n) over that range.

    Sums of n and n^2 are closed forms; everything is a Python int, so
    the returned Fraction is exact at any length.  None below 2 steps.
    """
    if n_total < 2:
        return None
    start = n_total // 2
    count = n_total - start + 1
    sx = (start + n_total) * count // 2
    sxx = _sum_squares(n_total) - _sum_squares(start - 1)
    return Fraction(count * sum_ny - sx * sum_y, count * sxx - sx * sx)


def simulate(config: WalkConfig) -> WalkResult:
    """Run all trajectories; deterministic in the config.

    A ``max_total_steps`` budget truncates remaining trajectories and
    marks the result partial instead of discarding finished work.
    """
    out = []
    budget = config.max_total_steps
    partial = False
    # one MT19937 at most, as its constructor seeds it at a cost that
    # would recur per trajectory; trajectories run one after another,
    # and each sets the state it continues
    bit_generator = functools.cache(_mt19937)
    for i in range(config.trajectories):
        if budget is not None and budget <= 0:
            partial = True
            break
        stats = _run_trajectory(config, i, budget, bit_generator)
        if stats.steps < config.steps:
            partial = True
        if budget is not None:
            budget -= stats.steps
        out.append(stats)
    return WalkResult(config, tuple(out), partial)


def _mean_se(values: Sequence[Fraction]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n == 1:
        return float(mean), 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return float(mean), float(var ** 0.5) / n ** 0.5


@dataclass(frozen=True)
class SpeedEstimate:
    mean: float
    stderr: float
    per_trajectory: tuple[Fraction, ...]

    @property
    def exact_mean(self) -> Fraction:
        return sum(self.per_trajectory) / len(self.per_trajectory)


def estimate_speed(result: WalkResult) -> SpeedEstimate:
    """Distance slope against step index, averaged over trajectories."""
    slopes = tuple(t.dist_slope for t in result.trajectories)
    if not slopes:
        raise ValueError("no trajectories")
    if any(s is None for s in slopes):
        raise ValueError("speed estimation needs at least 2 steps")
    if all(t.final_dist == 0 and t.dist_slope == 0 for t in result.trajectories):
        raise ValueError("degenerate all-zero trajectories")
    mean, se = _mean_se(slopes)
    return SpeedEstimate(mean, se, slopes)


def drift_report(result: WalkResult, tolerance: float = 0.05) -> dict:
    """Law-of-large-numbers drift checks on a finished simulation.

    In the biased regime: |height slope| must match the speed, probes
    away from the escape direction must climb at the speed, and the
    escape side's distinguished-end probe must fall at the speed.  A
    mean speed of at most ``ZERO_SPEED_THRESHOLD`` is the zero-speed
    regime, which is only flagged, never asserted against.
    """
    config = result.config
    speed = estimate_speed(result)
    height_mean, height_se = _mean_se(
        tuple(t.height_slope for t in result.trajectories))
    probe_stats = []
    for j, (tree, ray) in enumerate(config.probes):
        mean, se = _mean_se(tuple(t.probe_slopes[j] for t in result.trajectories))
        probe_stats.append({"tree": tree, "ray": str(ray),
                            "slope": mean, "stderr": se})
    report = {
        "rng": RNG_ID,
        "config": config.to_json(),
        "partial": result.partial,
        "speed": {"mean": speed.mean, "stderr": speed.stderr},
        "height_slope": {"mean": height_mean, "stderr": height_se},
        "probes": probe_stats,
        "exact": {"speed_is_one": speed.exact_mean == 1,
                  "height_slope_is_one": all(
                      t.height_slope == 1 for t in result.trajectories),
                  "height_slope_is_minus_one": all(
                      t.height_slope == -1 for t in result.trajectories)},
    }
    if abs(speed.mean) <= ZERO_SPEED_THRESHOLD:
        report["regime"] = "zero_speed"
        report["checks"] = {"zero_speed_flagged": True}
        report["ok"] = True
        return report
    report["regime"] = "biased"
    sign = 1 if height_mean > 0 else -1
    checks = {
        "speed_positive": speed.mean > 0,
        "height_slope_matches_speed":
            abs(height_mean - sign * speed.mean) <= tolerance,
    }
    escape = (2, "gamma") if sign > 0 else (1, "gamma")
    probe_checks = []
    for entry in probe_stats:
        is_escape_side = (entry["tree"], entry["ray"]) == escape
        expected = -speed.mean if is_escape_side else speed.mean
        probe_checks.append({
            "tree": entry["tree"], "ray": entry["ray"],
            "escape_side": is_escape_side,
            "expected": expected,
            "within_tolerance": abs(entry["slope"] - expected) <= tolerance,
        })
    checks["probes_within_tolerance"] = all(p["within_tolerance"]
                                            for p in probe_checks)
    report["sign"] = sign
    report["probe_checks"] = probe_checks
    report["checks"] = checks
    report["ok"] = all(checks.values())
    return report


# Rows of a trace formatted at a time: few enough that their Python ints
# stay a small part of the process's memory.
_TRACE_ROWS = 256


def write_trace_csv(path, stats: TrajectoryStats, probe_count: int) -> None:
    """One trace as CSV: n,dist,height,probe_0,...  (recorded stride)."""
    if stats.record_stride == 0:
        raise ValueError("trajectory was run without records")
    header = "n,dist,height" + "".join(f",probe_{j}" for j in range(probe_count))
    columns = (np.arange(len(stats.dist)) * stats.record_stride, stats.dist,
               stats.height, *stats.probe_values)
    line = ",".join(["%d"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(stats.dist), _TRACE_ROWS):
            rows = zip(*(c[lo:lo + _TRACE_ROWS].tolist() for c in columns))
            fh.writelines(line % values for values in rows)
