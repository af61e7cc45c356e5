"""Nearest-neighbor biased random walks on the product graph.

Each step climbs with probability ``p_up`` (uniform over the first
coordinate's upward neighbors, the second coordinate forced toward its
end) and otherwise descends symmetrically.  Per step the walker computes
its distance from the base point (closed form, never breadth-first),
its height, and the Busemann value of each configured probe end, and
keeps every ``record_stride``-th of them (none at stride 0).

A coordinate is its ray index m and the stack of child labels below
z_m.  The height h fixes both stack depths, m1 + h on tree 1 and m2 - h
on tree 2, so the distance from the base is 2(m1 + m2) - |h|.  When
both families have constant label counts (Regular and Line) the walker
keeps only (m1, m2, h): the letters on a stack never matter there, and
a walk that records nothing (stride 0) runs in flat memory.  Any other
family keeps each suffix as a list and asks the family how many
children a position has (the degree cycles for RayPeriodic, the core
table for ExplicitCore inside its radius; only a CustomRule builds an
address per step).  The up move is written once per path: ``_climber``
for suffix lists, which ``step`` shares, and the inline draws of
``_depth_steps``.

Probes cost O(1) per step.  A gamma probe is the height on tree 1 and
minus the height on tree 2, so its series and slope are the height's.
A branching-ray probe keeps the length of the prefix of the suffix that
follows the ray (``_advance_rays``).

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
sums behind them are Python ints, folded in chunk by chunk as the walk
runs, so slopes are exact at every length and a walk keeps only the
values it records.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from random import Random
from typing import Sequence

import numpy as np

from .tree import TreeSpec, VertexAddress, gamma_ward
from .rays import GammaEnd, Ray, parse_ray, require_valid_ray
from .product import HoroProduct, ProductVertex

RNG_ID = "mt19937/per-trajectory seed (seed<<32)^(i*0x9E3779B1)"


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
            spec = self.product.tree1 if tree == 1 else self.product.tree2
            require_valid_ray(spec, ray)

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
            return cls(product, data["p_up"], data["steps"], data["seed"],
                       data["trajectories"], probes,
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


def _climber(rng: Random):
    """The up move of one coordinate of any family, drawing from ``rng``.

    ``climb(m, s, count)`` moves the position (ray index ``m``, suffix
    list ``s``, extended in place) to a uniformly drawn upward neighbor
    and returns its ray index.  The neighbors are numbered as
    ``TreeSpec.up_neighbors`` lists them: the ray vertex above first,
    then the labeled children.  ``count`` is the family's
    ``label_count``.  One neighbor takes no draw, two take one bit, more
    take one ``randrange``; ``_draw`` is the same rule for a fixed count.
    """
    getrandbits = rng.getrandbits
    randrange = rng.randrange

    def climb(m: int, s: list[int], count) -> int:
        ray = 1 if m and not s else 0
        cnt = count(m, s) + ray
        c = 0 if cnt == 1 else getrandbits(1) if cnt == 2 else randrange(cnt)
        if c < ray:
            return m - 1
        s.append(c - ray)
        return m

    return climb


def _no_draw(_count: int) -> int:
    return 0


def _draw(rng: Random, count: int):
    """``(fn, arg)`` such that ``fn(arg)`` draws uniformly from
    ``range(count)`` by ``_climber``'s rule."""
    if count == 1:
        return _no_draw, count
    if count == 2:
        return rng.getrandbits, 1
    return rng.randrange, count


def step(product: HoroProduct, v: ProductVertex, rng: Random,
         p_up: float) -> ProductVertex:
    """One walk step; deterministic in the rng state and history.

    It draws exactly as ``simulate`` does, through the same up move, so
    a trajectory replays step by step from its rng seed.
    """
    up = rng.random() < p_up
    x, other, tree = ((v.x1, v.x2, product.tree1) if up
                      else (v.x2, v.x1, product.tree2))
    suffix = list(x.suffix)
    branch = _climber(rng)(x.branch, suffix, tree.family.label_count)
    moved = VertexAddress(branch, tuple(suffix))
    if up:
        return ProductVertex(moved, gamma_ward(other))
    return ProductVertex(gamma_ward(other), moved)


def _advance_rays(rays: list[list], m: int, depth: int, c: int) -> None:
    """Step the branching-ray probes of one coordinate and record their
    values, in O(1) each.

    A probe is ``[L, branch, want, letter, append]``: ``L`` is the
    length of the prefix of the coordinate's suffix that follows the
    ray's letters, and ``want = letter(L)`` the letter that extends it.
    The coordinate is now at ray index ``m`` and stack depth ``depth``.
    ``c`` is the letter this step pushed, or else -1 or the top letter,
    neither of which can extend the match (a top letter at index ``L``
    already failed to).  A pop clamps ``L`` to the depth, and a push of
    ``want`` at depth ``L`` extends it.  ``L`` matters only where ``m``
    is the ray's branch, and ``m`` changes only at depth 0, where ``L``
    is 0; so it is updated only there.  The value is the Busemann
    function m + depth - 2 meet.
    """
    for probe in rays:
        L, branch, want, letter, append = probe
        if m != branch:
            append(m + depth - 2 * (m if m < branch else branch))
            continue
        if L > depth:
            probe[0] = L = depth
            probe[2] = letter(L)
        elif L == depth - 1 and c == want:
            probe[0] = L = depth
            probe[2] = letter(L)
        append(depth - m - 2 * L)


def _depth_steps(rng: Random, p: float, counts1, counts2, add_dist,
                 add_height, rays1, rays2):
    """The walk on two constant-count trees, as a generator: ``send(n)``
    runs n more steps and returns the distance and height after them.

    A coordinate is its ray index alone: the height fixes its stack
    depth, m1 + h on tree 1 and m2 - h on tree 2, and with constant
    counts the letters on the stack never matter.  A climb draws as
    ``_climber`` does; its letter is kept only for the ray probes.
    """
    rand = rng.random
    root1, n_root1 = _draw(rng, counts1[0])
    ray1, n_ray1 = _draw(rng, counts1[1] + 1)
    up1, n_up1 = _draw(rng, counts1[2])
    root2, n_root2 = _draw(rng, counts2[0])
    ray2, n_ray2 = _draw(rng, counts2[1] + 1)
    up2, n_up2 = _draw(rng, counts2[2])
    probing = bool(rays1 or rays2)
    m1 = m2 = h = dist = 0
    n = yield
    while True:
        for _ in range(n):
            if rand() < p:
                # tree 1 pushes letter c1, or climbs to the ray vertex above
                # (c1 = -1); tree 2 pops or slides toward its end
                if m1 + h:
                    c1 = up1(n_up1)
                elif m1:
                    c1 = ray1(n_ray1) - 1
                    if c1 < 0:
                        m1 -= 1
                else:
                    c1 = root1(n_root1)
                c2 = -1
                if m2 <= h:
                    m2 += 1
                h += 1
            else:
                if m2 - h:
                    c2 = up2(n_up2)
                elif m2:
                    c2 = ray2(n_ray2) - 1
                    if c2 < 0:
                        m2 -= 1
                else:
                    c2 = root2(n_root2)
                c1 = -1
                if m1 + h <= 0:
                    m1 += 1
                h -= 1
            # the two origin distances add up to 2 * (m1 + m2)
            dist = 2 * (m1 + m2) - (h if h >= 0 else -h)
            add_dist(dist)
            add_height(h)
            if probing:
                # _advance_rays, written out per coordinate
                e = m1 + h
                for probe in rays1:
                    L, branch, want, letter, append = probe
                    if m1 != branch:
                        append(m1 + e - 2 * (m1 if m1 < branch else branch))
                        continue
                    if L > e:
                        probe[0] = L = e
                        probe[2] = letter(L)
                    elif L == e - 1 and c1 == want:
                        probe[0] = L = e
                        probe[2] = letter(L)
                    append(e - m1 - 2 * L)
                e = m2 - h
                for probe in rays2:
                    L, branch, want, letter, append = probe
                    if m2 != branch:
                        append(m2 + e - 2 * (m2 if m2 < branch else branch))
                        continue
                    if L > e:
                        probe[0] = L = e
                        probe[2] = letter(L)
                    elif L == e - 1 and c2 == want:
                        probe[0] = L = e
                        probe[2] = letter(L)
                    append(e - m2 - 2 * L)
        n = yield dist, h


def _suffix_steps(rng: Random, p: float, count1, count2, add_dist,
                  add_height, rays1, rays2):
    """``_depth_steps`` for any families: each coordinate keeps its
    suffix list, which ``count1``/``count2`` (the families'
    ``label_count``) read."""
    rand = rng.random
    climb = _climber(rng)
    probing = bool(rays1 or rays2)
    m1 = m2 = h = dist = 0
    s1: list[int] = []
    s2: list[int] = []
    n = yield
    while True:
        for _ in range(n):
            if rand() < p:
                m1 = climb(m1, s1, count1)
                if s2:
                    s2.pop()
                else:
                    m2 += 1
                h += 1
            else:
                m2 = climb(m2, s2, count2)
                if s1:
                    s1.pop()
                else:
                    m1 += 1
                h -= 1
            dist = 2 * (m1 + m2) - (h if h >= 0 else -h)
            add_dist(dist)
            add_height(h)
            if probing:
                _advance_rays(rays1, m1, len(s1), s1[-1] if s1 else -1)
                _advance_rays(rays2, m2, len(s2), s2[-1] if s2 else -1)
        n = yield dist, h


# Steps between folds of the per-step values into records and sums; it
# bounds the walk's memory when record_stride is 0.
_CHUNK = 8192


def _run_trajectory(config: WalkConfig, index: int,
                    budget: int | None) -> tuple[TrajectoryStats, int]:
    rng = Random(_trajectory_seed(config.seed, index))
    steps = config.steps if budget is None else min(config.steps, budget)
    stride = config.record_stride

    # Per-step values of dist, height and each branching-ray probe, since
    # the last fold.  A gamma probe reads the height: h on tree 1 and -h
    # on tree 2, since len(s1) - m1 = h and len(s2) - m2 = -h.  So each
    # probe reads one series with a sign.
    chunks: list[list[int]] = [[], []]
    rays: tuple[list, list] = ([], [])
    reads = []
    for tree, ray in config.probes:
        if isinstance(ray, GammaEnd):
            reads.append((1, 1 if tree == 1 else -1))
            continue
        chunk: list[int] = []
        rays[tree - 1].append([0, ray.branch, ray.letter(0), ray.letter,
                                chunk.append])
        reads.append((len(chunks), 1))
        chunks.append(chunk)

    family1 = config.product.tree1.family
    family2 = config.product.tree2.family
    counts1 = family1.constant_counts()
    counts2 = family2.constant_counts()
    p = float(config.p_up)
    add = (chunks[0].append, chunks[1].append) + rays
    if counts1 and counts2:
        walk = _depth_steps(rng, p, counts1, counts2, *add)
    else:
        walk = _suffix_steps(rng, p, family1.label_count, family2.label_count,
                             *add)
    next(walk)

    # A fold keeps every stride-th value and adds the values of the
    # fitted half (steps half..steps) to exact sums for the slopes; a
    # chunk ends at half - 1 so that it never straddles that boundary.
    records: list[list[int]] = [[0] for _ in chunks]
    sums = [[0, 0] for _ in chunks]
    half = steps // 2
    ends = {steps, half - 1, *range(_CHUNK, steps, _CHUNK)}
    dist = h = done = 0
    for end in sorted(e for e in ends if e > 0):
        dist, h = walk.send(end - done)
        first = done + 1        # step index of each chunk's first value
        for chunk, record, total in zip(chunks, records, sums):
            if stride:
                record.extend(chunk[-first % stride::stride])
            if first >= half:
                sum_y, sum_ny = _chunk_sums(chunk, first)
                total[0] += sum_y
                total[1] += sum_ny
            chunk.clear()
        done = end

    slopes = [_half_slope(steps, sum_y, sum_ny) for sum_y, sum_ny in sums]
    arrays = [np.array(r, dtype=np.int64) if stride else None for r in records]
    stats = TrajectoryStats(
        index=index, steps=steps, record_stride=stride,
        dist=arrays[0], height=arrays[1],
        probe_values=tuple(sign * arrays[i] for i, sign in reads)
        if stride else (),
        dist_slope=slopes[0], height_slope=slopes[1],
        probe_slopes=tuple(None if slopes[i] is None else sign * slopes[i]
                           for i, sign in reads),
        final_dist=dist, final_height=h)
    return stats, steps


def _chunk_sums(values: list[int], first: int) -> tuple[int, int]:
    """sum(y_n) and sum(n * y_n) for values y_first, y_first+1, ...,
    as exact Python ints.  The prefix sums P_k add up to
    sum((len - k) * y_k), whence sum(n * y_n) = (first + len) * sum_y
    - sum(P_k)."""
    sum_y = sum(values)
    return sum_y, (first + len(values)) * sum_y - sum(accumulate(values))


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
    for i in range(config.trajectories):
        if budget is not None and budget <= 0:
            partial = True
            break
        stats, used = _run_trajectory(config, i, budget)
        if stats.steps < config.steps:
            partial = True
        if budget is not None:
            budget -= used
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


def drift_report(result: WalkResult, tolerance: float = 0.05,
                 zero_speed_threshold: float = 0.05) -> dict:
    """Law-of-large-numbers drift checks on a finished simulation.

    In the biased regime: |height slope| must match the speed, probes
    away from the escape direction must climb at the speed, and the
    escape side's distinguished-end probe must fall at the speed.  The
    zero-speed regime is only flagged, never asserted against.
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
    if abs(speed.mean) <= zero_speed_threshold:
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


def write_trace_csv(path, stats: TrajectoryStats, probe_count: int) -> None:
    """One trace as CSV: n,dist,height,probe_0,...  (recorded stride)."""
    if stats.record_stride == 0:
        raise ValueError("trajectory was run without records")
    header = "n,dist,height" + "".join(f",probe_{j}" for j in range(probe_count))
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for k in range(len(stats.dist)):
            n = k * stats.record_stride
            row = [str(n), str(int(stats.dist[k])), str(int(stats.height[k]))]
            row.extend(str(int(p[k])) for p in stats.probe_values)
            fh.write(",".join(row) + "\n")
