"""Nearest-neighbor biased random walks on the product graph.

Each step climbs with probability ``p_up`` (uniform over the first
coordinate's upward neighbors, the second coordinate forced toward its
end) and otherwise descends symmetrically.  Per step the walker computes
its distance from the base point (closed form, never breadth-first),
its height, and the Busemann value of each configured probe end, and
keeps every ``record_stride``-th of them (none at stride 0).

The walker holds each coordinate as a (branch, suffix) position and
asks the tree family how many children a position has: a constant
triple for Regular and Line, the degree cycles for RayPeriodic, the
core table for ExplicitCore only inside its radius.  Only a CustomRule
builds an address per step, so a step costs O(1) for every decidable
family.  The up move is written once, in ``_climber``, and both
coordinates and ``step`` use it.  The height moves by one per step, and
the distance from the base is read as 2(m1 + m2) - |h| from the two ray
indices m1, m2 and the height h, since the two heights cancel.

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

import operator
from dataclasses import dataclass
from fractions import Fraction
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
    """The up move of one coordinate, drawing from ``rng``.

    ``climb(m, s, fast, count)`` moves the position (ray index ``m``,
    suffix list ``s``, extended in place) to a uniformly drawn upward
    neighbor and returns its ray index.  The neighbors are numbered as
    ``TreeSpec.up_neighbors`` lists them: the ray vertex above first,
    then the labeled children.  ``fast`` is the family's constant
    counts or None, ``count`` its ``label_count``.  One neighbor takes
    no draw, two take one bit, more take one ``randrange``.
    """
    getrandbits = rng.getrandbits
    randrange = rng.randrange

    def climb(m: int, s: list[int], fast, count) -> int:
        if s:
            cnt = fast[2] if fast else count(m, s)
            s.append(0 if cnt == 1 else
                     getrandbits(1) if cnt == 2 else randrange(cnt))
            return m
        if fast:
            cnt = fast[0] if m == 0 else fast[1] + 1
        else:
            cnt = count(m, s) + (1 if m else 0)
        c = 0 if cnt == 1 else getrandbits(1) if cnt == 2 else randrange(cnt)
        if m:
            if c == 0:
                return m - 1
            c -= 1
        s.append(c)
        return m

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
    suffix = list(x.suffix)
    branch = _climber(rng)(x.branch, suffix, None, tree.family.label_count)
    moved = VertexAddress(branch, tuple(suffix))
    if up:
        return ProductVertex(moved, gamma_ward(other))
    return ProductVertex(gamma_ward(other), moved)


def _compile_probe(tree: int, ray: Ray):
    """(coordinate index, gamma flag, branch, letter function)."""
    if isinstance(ray, GammaEnd):
        return (tree, True, 0, None)
    return (tree, False, ray.branch, ray.letter)


# Steps between folds of the per-step values into records and sums; it
# bounds the walk's memory when record_stride is 0.
_CHUNK = 8192


def _run_trajectory(config: WalkConfig, index: int,
                    budget: int | None) -> tuple[TrajectoryStats, int]:
    rng = Random(_trajectory_seed(config.seed, index))
    p = float(config.p_up)
    steps = config.steps if budget is None else min(config.steps, budget)
    stride = config.record_stride
    fast1 = config.product.tree1.family.constant_counts()
    fast2 = config.product.tree2.family.constant_counts()
    count1 = config.product.tree1.family.label_count
    count2 = config.product.tree2.family.label_count
    probes = tuple(_compile_probe(t, r) for t, r in config.probes)

    # Per-step values of dist, height and each probe, since the last fold.
    # A fold keeps every stride-th value and adds the values of the
    # fitted half (steps half..steps) to exact sums for the slopes; a
    # chunk ends at half - 1 so that it never straddles that boundary.
    chunks: list[list[int]] = [[] for _ in range(2 + len(probes))]
    records: list[list[int]] = [[0] for _ in chunks]
    sums = [[0, 0] for _ in chunks]
    add_dist = chunks[0].append
    add_height = chunks[1].append
    probe_slots = [(chunk.append,) + spec
                   for chunk, spec in zip(chunks[2:], probes)]
    half = steps // 2
    ends = {steps, half - 1, *range(_CHUNK, steps, _CHUNK)}

    m1 = 0
    s1: list[int] = []
    m2 = 0
    s2: list[int] = []
    dist = h = 0
    rand = rng.random
    climb = _climber(rng)
    done = 0
    for end in sorted(e for e in ends if e > 0):
        for _ in range(end - done):
            if rand() < p:
                # first coordinate climbs, second slides toward its end
                m1 = climb(m1, s1, fast1, count1)
                if s2:
                    s2.pop()
                else:
                    m2 += 1
                h += 1
            else:
                m2 = climb(m2, s2, fast2, count2)
                if s1:
                    s1.pop()
                else:
                    m1 += 1
                h -= 1
            # len(s1) = m1 + h and len(s2) = m2 - h, so the two origin
            # distances add up to 2 * (m1 + m2)
            dist = 2 * (m1 + m2) - (h if h >= 0 else -h)
            add_dist(dist)
            add_height(h)
            for append, which, is_gamma, rb, letter in probe_slots:
                if which == 1:
                    m, s = m1, s1
                else:
                    m, s = m2, s2
                if is_gamma:
                    append(len(s) - m)
                    continue
                if m != rb:
                    meet = m if m < rb else rb
                else:
                    i = 0
                    for letter_val in s:
                        if letter_val != letter(i):
                            break
                        i += 1
                    meet = m + i
                append(m + len(s) - 2 * meet)
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
        probe_values=tuple(arrays[2:]) if stride else (),
        dist_slope=slopes[0], height_slope=slopes[1],
        probe_slopes=tuple(slopes[2:]),
        final_dist=dist, final_height=h)
    return stats, steps


def _chunk_sums(values: list[int], first: int) -> tuple[int, int]:
    """sum(y_n) and sum(n * y_n) for values y_first, y_first+1, ...,
    as exact Python ints."""
    sum_y = sum(values)
    return sum_y, first * sum_y + sum(map(operator.mul, range(len(values)), values))


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
