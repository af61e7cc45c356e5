"""Walk simulator: determinism, exact degenerate cases, drift checks."""

import dataclasses
import operator
import os
import statistics
import subprocess
import sys
import textwrap
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from random import Random

import numpy as np
import pytest
from numpy.random import MT19937

from horoprod.product import BASE, HoroProduct, product_dist, product_height
from horoprod.rays import BranchingRay, GAMMA
from horoprod.tree import (CustomRule, TreeSpec, VertexAddress, busemann,
                           height, origin_dist)
from horoprod.walk import (
    _CHUNK,
    TrajectoryStats,
    WalkConfig,
    _block_steps,
    _chunk_sums,
    _crossings,
    _decode_words,
    _floor,
    _half_slope,
    _last_floor,
    _mt19937_state,
    _trajectory_seed,
    drift_report,
    estimate_speed,
    simulate,
    step,
    write_trace_csv,
)

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

R3 = TreeSpec.regular(3)
DL33 = HoroProduct(R3, R3)
PROBES = ((1, GAMMA), (2, GAMMA),
          (1, BranchingRay(0, (), (1,))), (2, BranchingRay(0, (), (1,))))


def make(p_up, steps=200, seed=11, trajectories=2, **kw):
    return WalkConfig(DL33, Fraction(p_up), steps, seed, trajectories,
                      PROBES, **kw)


def test_step_moves_to_neighbors():
    nbrs = set(DL33.neighbors(BASE))
    for seed in range(12):
        v = step(DL33, BASE, Random(seed), 0.5)
        assert v in nbrs
    ups = {w for w in nbrs if product_height(w) == 1}
    downs = nbrs - ups
    for seed in range(8):
        assert step(DL33, BASE, Random(seed), 1.0) in ups
        assert step(DL33, BASE, Random(seed), 0.0) in downs


def test_step_deterministic():
    a = step(DL33, BASE, Random(5), 0.7)
    b = step(DL33, BASE, Random(5), 0.7)
    assert a == b


def test_config_validation():
    with pytest.raises(ValueError):
        make("3/2")
    with pytest.raises(ValueError):
        WalkConfig(DL33, Fraction(1, 2), 10, 1, 0)
    with pytest.raises(Exception):
        WalkConfig(DL33, Fraction(1, 2), 10, 1, 1,
                   probes=((1, BranchingRay(0, (), (2,))),))


@pytest.mark.parametrize("p_up", [0.8, "1_0/2_0", " 1/2", True])
def test_config_refuses_loose_p_up(p_up):
    # a float, a text or a bool is not read as a fraction; walk files go
    # through parse_p_up instead
    with pytest.raises(ValueError, match="p_up"):
        WalkConfig(DL33, p_up, 10, 1, 1)


def test_config_takes_integer_p_up():
    assert WalkConfig(DL33, 1, 10, 1, 1).p_up == Fraction(1)


def test_zero_steps_single_record():
    result = simulate(WalkConfig(DL33, Fraction(1, 2), 0, 3, 1, PROBES))
    t = result.trajectories[0]
    assert list(t.dist) == [0]
    assert list(t.height) == [0]
    assert all(list(p) == [0] for p in t.probe_values)


def test_monotone_cases_exact():
    up = simulate(make(1, steps=150))
    for t in up.trajectories:
        assert list(t.dist) == list(range(151))
        assert list(t.height) == list(range(151))
        assert t.dist_slope == 1 and t.height_slope == 1
        assert list(t.probe_values[1]) == [-n for n in range(151)]
    down = simulate(make(0, steps=150))
    for t in down.trajectories:
        assert list(t.dist) == list(range(151))
        assert list(t.height) == [-n for n in range(151)]


def test_per_step_invariants():
    result = simulate(make("2/3", steps=400, trajectories=3))
    for t in result.trajectories:
        dd = np.diff(t.dist)
        dh = np.diff(t.height)
        assert np.all(np.abs(dd) <= 1)
        assert np.all(np.abs(dh) == 1)


def test_records_match_walk_replay():
    config = make("2/3", steps=60, trajectories=1)
    t = simulate(config).trajectories[0]
    # replay through the edge relation with the same derived stream
    rng = Random(_trajectory_seed(config.seed, 0))
    v = BASE
    for n in range(1, 61):
        v = step(DL33, v, rng, float(config.p_up))
        assert product_dist(BASE, v) == t.dist[n]
        assert product_height(v) == t.height[n]
    assert height(v.x1) + height(v.x2) == 0


BUMPY = HoroProduct(TreeSpec.ray_periodic([3, 4], [4, 3]), R3)
CUSTOM_PRODUCT = HoroProduct(TreeSpec(CustomRule(
    lambda b, s: 4 if (b + len(s)) % 3 == 0 else 3), 3), R3)


def test_replay_on_irregular_trees():
    # degree rules without constant label counts use the generic path;
    # a custom rule answers each count from its callback
    for product in (BUMPY, CUSTOM_PRODUCT):
        config = WalkConfig(product, Fraction(3, 5), 80, 13, 1, PROBES)
        t = simulate(config).trajectories[0]
        rng = Random(_trajectory_seed(13, 0))
        v = product.base
        for n in range(1, 81):
            v = step(product, v, rng, 0.6)
            assert product_dist(product.base, v) == t.dist[n]
            assert product_height(v) == t.height[n]
        assert np.all(np.abs(np.diff(t.height)) == 1)


def test_bit_identical_reruns():
    a = simulate(make("3/5", steps=300, trajectories=4))
    b = simulate(make("3/5", steps=300, trajectories=4))
    for ta, tb in zip(a.trajectories, b.trajectories):
        assert np.array_equal(ta.dist, tb.dist)
        assert ta.probe_slopes == tb.probe_slopes
    assert a.trajectories[0].height_slope != a.trajectories[1].height_slope \
        or a.trajectories[0].final_height != a.trajectories[1].final_height


def test_estimate_speed():
    result = simulate(make(1, steps=100))
    est = estimate_speed(result)
    assert est.exact_mean == 1
    assert est.mean == 1.0
    with pytest.raises(ValueError):
        estimate_speed(simulate(make(1, steps=1)))


def test_estimate_speed_refuses_empty_and_all_zero_results():
    result = simulate(make(1, steps=10))
    with pytest.raises(ValueError) as info:
        estimate_speed(dataclasses.replace(result, trajectories=()))
    assert str(info.value) == "no trajectories"
    still = tuple(dataclasses.replace(t, final_dist=0, dist_slope=Fraction(0))
                  for t in result.trajectories)
    with pytest.raises(ValueError) as info:
        estimate_speed(dataclasses.replace(result, trajectories=still))
    assert str(info.value) == "degenerate all-zero trajectories"


def test_drift_report_biased():
    result = simulate(make("9/10", steps=4000, trajectories=6, record_stride=0))
    report = drift_report(result, tolerance=0.08)
    assert report["regime"] == "biased"
    assert report["ok"], report["checks"]
    escape = [p for p in report["probe_checks"] if p["escape_side"]]
    assert [(p["tree"], p["ray"]) for p in escape] == [(2, "gamma")]


def test_drift_report_mirrored():
    result = simulate(make("1/10", steps=4000, trajectories=6, record_stride=0))
    report = drift_report(result, tolerance=0.08)
    assert report["sign"] == -1
    assert report["ok"], report["checks"]
    escape = [p for p in report["probe_checks"] if p["escape_side"]]
    assert [(p["tree"], p["ray"]) for p in escape] == [(1, "gamma")]


def test_drift_report_zero_speed():
    result = simulate(make("1/2", steps=4000, trajectories=6, record_stride=0))
    report = drift_report(result)
    assert report["regime"] == "zero_speed"
    assert report["checks"]["zero_speed_flagged"]
    assert abs(report["speed"]["mean"]) <= 0.05


def test_resource_cap_marks_partial():
    config = WalkConfig(DL33, Fraction(1, 2), 100, 7, 5, PROBES,
                        max_total_steps=250)
    result = simulate(config)
    assert result.partial
    assert len(result.trajectories) < 5 or \
        any(t.steps < 100 for t in result.trajectories)


def test_trace_csv(tmp_path):
    config = make("1/2", steps=20, trajectories=1, record_stride=2)
    result = simulate(config)
    path = tmp_path / "trace.csv"
    write_trace_csv(path, result.trajectories[0], len(PROBES))
    lines = path.read_text().splitlines()
    assert lines[0] == "n,dist,height,probe_0,probe_1,probe_2,probe_3"
    assert len(lines) == 12  # header + 11 records at stride 2
    assert lines[1].startswith("0,0,0")


def test_trace_csv_needs_records(tmp_path):
    result = simulate(make("1/2", steps=20, trajectories=1, record_stride=0))
    path = tmp_path / "trace.csv"
    with pytest.raises(ValueError) as info:
        write_trace_csv(path, result.trajectories[0], len(PROBES))
    assert str(info.value) == "trajectory was run without records"
    assert not path.exists()


def test_config_json_round_trip():
    config = make("4/5", steps=50, trajectories=2, record_stride=5)
    data = config.to_json()
    again = WalkConfig.from_json(data)
    assert again == config
    assert again.p_up == Fraction(4, 5)


def reference_half_slope(values):
    """Least-squares slope over the second half, by brute-force int sums."""
    n_total = len(values) - 1
    start = n_total // 2
    xs = range(start, n_total + 1)
    ys = [int(y) for y in values[start:]]
    count = len(ys)
    sx, sy = sum(xs), sum(ys)
    sxx = sum(x * x for x in xs)
    sxy = sum(map(operator.mul, xs, ys))
    return Fraction(count * sxy - sx * sy, count * sxx - sx * sx)


CORE_PRODUCT = HoroProduct(TreeSpec.ray_periodic((3, 4), (3,)),
                           TreeSpec.explicit_core_of(R3, 3, 3))


def test_replay_across_core_boundary():
    # the walk leaves the core of the second tree, where the tail degree rules
    config = WalkConfig(CORE_PRODUCT, Fraction(1, 5), 400, 21, 1, PROBES)
    t = simulate(config).trajectories[0]
    rng = Random(_trajectory_seed(21, 0))
    v = CORE_PRODUCT.base
    deepest = 0
    for n in range(1, 401):
        v = step(CORE_PRODUCT, v, rng, 0.2)
        deepest = max(deepest, origin_dist(v.x2))
        assert product_dist(CORE_PRODUCT.base, v) == t.dist[n]
        assert product_height(v) == t.height[n]
    assert deepest > 3
    assert t.final_dist == product_dist(CORE_PRODUCT.base, v)


@pytest.mark.parametrize("product", [DL33, BUMPY, CORE_PRODUCT, CUSTOM_PRODUCT],
                         ids=["regular", "ray-periodic", "explicit-core",
                              "custom-rule"])
def test_step_moves_along_edge_relation(product):
    # product.neighbors is the key-level edge relation of the product,
    # written without the walk's up move
    rng = Random(17)
    v = product.base
    for p_up, count in ((0.5, 1000), (0.8, 500), (0.2, 1000)):
        for _ in range(count):
            peek = Random()
            peek.setstate(rng.getstate())
            rise = 1 if peek.random() < p_up else -1
            w = step(product, v, rng, p_up)
            assert w in product.neighbors(v)
            assert product_height(w) - product_height(v) == rise
            v = w
    # the last phase climbed the second tree far past CORE_PRODUCT's core
    assert product_height(v) < -100


@pytest.mark.parametrize("spec", [R3, TreeSpec.line()])
def test_constant_counts_match_family_rule(spec):
    up = spec.family.constant_counts()
    for a in spec.ball(6):
        assert len(spec.up_neighbors(a)) == up


@pytest.mark.parametrize("product", [
    HoroProduct(TreeSpec.ray_periodic((3, 4), (3,)),
                TreeSpec.ray_periodic((4,), (3, 4))),
    CUSTOM_PRODUCT], ids=["ray-periodic", "custom-rule"])
def test_general_walk_builds_no_addresses(monkeypatch, product):
    config = WalkConfig(product, Fraction(3, 5), 20_000, 2, 1, PROBES,
                        record_stride=0)
    built = 0
    check = VertexAddress.__post_init__

    def counting(self):
        nonlocal built
        built += 1
        check(self)

    monkeypatch.setattr(VertexAddress, "__post_init__", counting)
    t = simulate(config).trajectories[0]
    assert t.steps == 20_000 and built == 0


@pytest.mark.parametrize("steps", [2, 3, 97, 400])
@pytest.mark.parametrize("product", [DL33, CORE_PRODUCT])
def test_streamed_slopes_match_records(product, steps):
    config = WalkConfig(product, Fraction(2, 3), steps, 4, 2, PROBES)
    for t in simulate(config).trajectories:
        assert t.dist_slope == reference_half_slope(t.dist)
        assert t.height_slope == reference_half_slope(t.height)
        assert t.probe_slopes == tuple(reference_half_slope(p)
                                       for p in t.probe_values)


def test_record_stride_keeps_every_kth_value():
    full = simulate(make("3/5", steps=103, trajectories=2))
    for stride in (0, 4, 103, 200):
        thin = simulate(make("3/5", steps=103, trajectories=2,
                             record_stride=stride))
        for a, b in zip(full.trajectories, thin.trajectories):
            assert (a.dist_slope, a.height_slope, a.probe_slopes) == \
                (b.dist_slope, b.height_slope, b.probe_slopes)
            assert (a.final_dist, a.final_height) == (b.final_dist, b.final_height)
            if stride == 0:
                assert b.dist is None and b.probe_values == ()
                continue
            assert np.array_equal(a.dist[::stride], b.dist)
            assert np.array_equal(a.height[::stride], b.height)
            for pa, pb in zip(a.probe_values, b.probe_values):
                assert np.array_equal(pa[::stride], pb)


def test_slope_exact_past_int64():
    # at this length the second half's sum of n^2 exceeds int64
    n_total = 5_000_000
    rng = np.random.default_rng(3)
    values = np.concatenate(
        ([0], np.cumsum(rng.choice(np.array([-1, 1]), n_total, p=[0.2, 0.8]))))
    start = n_total // 2
    ys = values[start:].tolist()
    sum_y = sum_ny = 0
    for lo in range(0, len(ys), 8192):    # folded chunk by chunk, as a walk does
        chunk_y, chunk_ny = _chunk_sums(ys[lo:lo + 8192], start + lo)
        sum_y += chunk_y
        sum_ny += chunk_ny
    slope = _half_slope(n_total, sum_y, sum_ny)
    assert slope == reference_half_slope(values)
    assert abs(float(slope) - 0.6) < 0.01


def assert_same_stats(a, b):
    for name in TrajectoryStats.__dataclass_fields__:
        x, y = getattr(a, name), getattr(b, name)
        if name == "probe_values":
            assert len(x) == len(y)
            assert all(np.array_equal(u, v) for u, v in zip(x, y))
        elif isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            assert np.array_equal(x, y), name
        else:
            assert x == y, name


def constant_rule(degree):
    return TreeSpec(CustomRule(lambda branch, suffix: degree), 2)


@pytest.mark.parametrize("degrees", [(3, 3), (4, 4), (3, 4), (2, 4), (3, 2),
                                     (2, 2)],
                         ids=lambda d: f"deg{d[0]}x{d[1]}")
def test_constant_custom_rule_walks_like_regular(degrees):
    # a constant-degree custom rule keeps suffix lists and asks its rule,
    # the regular tree keeps none: the two must draw alike.
    # Both draw sources feed the same block solver, so this compares the
    # draws only; test_values_match_replay_across_blocks checks what the
    # solver carries from one block to the next.
    regular = HoroProduct(*(TreeSpec.regular(d) for d in degrees))
    custom = HoroProduct(*(constant_rule(d) for d in degrees))
    assert regular.tree1.family.constant_counts() is not None
    assert custom.tree1.family.constant_counts() is None
    probes = [(1, GAMMA), (2, GAMMA)]
    for tree, degree in enumerate(degrees, 1):
        if degree >= 3:
            probes += [(tree, BranchingRay(2, (0, 1), (1, 0))),
                       (tree, BranchingRay(1, (0,), (1,))),
                       (tree, BranchingRay(0, (1,), (0,)))]
    runs = [(p_up, 1500, 2, stride, None)
            for p_up in (Fraction(1, 5), Fraction(1, 2), Fraction(4, 5))
            for stride in (1, 7)]
    # longer than two blocks, and a budget that ends the second
    # trajectory inside a block
    runs += [(p_up, 20_000, 1, stride, None)
             for p_up in (Fraction(1, 2), Fraction(4, 5)) for stride in (0, 7)]
    runs.append((Fraction(3, 5), 20_000, 2, 7, 31_000))
    for p_up, steps, trajectories, stride, budget in runs:
        a, b = (simulate(WalkConfig(product, p_up, steps, 8, trajectories,
                                    probes, record_stride=stride,
                                    max_total_steps=budget))
                for product in (regular, custom))
        assert a.partial == b.partial == (budget is not None)
        for ta, tb in zip(a.trajectories, b.trajectories, strict=True):
            assert_same_stats(ta, tb)


# branching ends past the origin, with a prefix, on both trees
REGULAR_RAYS = ((1, BranchingRay(2, (0, 1), (1, 0))),
                (2, BranchingRay(1, (0,), (1,))))
BUMPY_RAYS = REGULAR_RAYS + ((1, BranchingRay(1, (1,), (2, 1))),)


@pytest.mark.parametrize("product, rays", [(DL33, REGULAR_RAYS),
                                           (BUMPY, BUMPY_RAYS)],
                         ids=["regular", "ray-periodic"])
def test_probe_values_match_busemann_along_replay(product, rays):
    probes = PROBES + rays
    for p_up, seed in ((Fraction(3, 5), 5), (Fraction(1, 5), 6),
                       (Fraction(1, 2), 7)):
        config = WalkConfig(product, p_up, 300, seed, 1, probes)
        t = simulate(config).trajectories[0]
        rng = Random(_trajectory_seed(seed, 0))
        v = product.base
        for n in range(1, 301):
            v = step(product, v, rng, float(p_up))
            for (tree, ray), series in zip(probes, t.probe_values):
                x = v.x1 if tree == 1 else v.x2
                assert series[n] == busemann(ray, x), (n, tree, str(ray))


def following_probes(product):
    """Probes on the ends that follow the walker's suffixes at the end of
    the first block of trajectory 0 at seed 9 and up-bias 1/2, so that
    its walk carries their matched lengths at full length."""
    rng = Random(_trajectory_seed(9, 0))
    v = product.base
    for _ in range(_CHUNK):
        v = step(product, v, rng, 0.5)
    return tuple((tree, BranchingRay(x.branch, x.suffix, (0,)))
                 for tree, x in ((1, v.x1), (2, v.x2)))


@pytest.mark.parametrize("product", [DL33, BUMPY, CORE_PRODUCT],
                         ids=["regular", "ray-periodic", "explicit-core"])
def test_values_match_replay_across_blocks(product):
    # the solver carries its height, floors and matched lengths from one
    # block of 8,192 steps to the next; a replay through the edge
    # relation checks every value of a walk over more than two blocks.
    # Two more probes follow the walker's suffixes at the end of the
    # first block, so their matched lengths are carried at full length.
    probes = PROBES + REGULAR_RAYS + following_probes(product)
    steps = 17_000
    config = WalkConfig(product, Fraction(1, 2), steps, 9, 1, probes)
    t = simulate(config).trajectories[0]
    rng = Random(_trajectory_seed(9, 0))
    v = product.base
    for n in range(1, steps + 1):
        v = step(product, v, rng, 0.5)
        assert t.dist[n] == product_dist(product.base, v), n
        assert t.height[n] == product_height(v), n
        for (tree, ray), series in zip(probes, t.probe_values):
            x = v.x1 if tree == 1 else v.x2
            assert series[n] == busemann(ray, x), (n, tree, str(ray))


def test_last_floor_is_the_per_step_floor_at_the_end():
    # the burn-in's floor at a block's last step against the per-step
    # floor, on short walks of steps -1, 0 and +1 (a step of 0 crosses
    # no edge: its key lies below every level), with excursions opened
    # at random up steps, and one from f0 open at the start or not
    rng = np.random.default_rng(26)
    for _ in range(3000):
        n = int(rng.integers(1, 40))
        x = np.concatenate(([0], np.cumsum(rng.integers(-1, 2, n))))
        x += int(rng.integers(0, 4))
        f0 = int(x[0] - rng.integers(0, 3))
        rise = np.diff(x)
        keys = np.where(rise != 0, x[:-1] - (rise < 0), min(x.min(), f0) - 1)
        opens = (rise > 0) & (rng.random(n) < 0.5)
        per_step = _floor(x, keys, _crossings(keys), opens, f0)
        assert _last_floor(x, opens, f0) == per_step[-1], (x, opens, f0)


LINES = HoroProduct(TreeSpec.line(), TreeSpec.line())


@pytest.mark.parametrize("steps", [3_000, 2 * (_CHUNK + 1), 20_000,
                                   4 * _CHUNK + 1_000],
                         ids=["one-block", "half-on-edge", "half-mid-block",
                              "five-blocks"])
@pytest.mark.parametrize("product, probes, follow", [
    (DL33, PROBES + REGULAR_RAYS, True),
    (DL33, PROBES[:3], False),
    (LINES, PROBES[:2] + ((1, BranchingRay(0, (), (0,))),
                          (2, BranchingRay(0, (), (0,)))), False),
    (HoroProduct(R3, TreeSpec.regular(4)), PROBES + REGULAR_RAYS, True),
    (BUMPY, PROBES + BUMPY_RAYS, True),
    (CORE_PRODUCT, PROBES + REGULAR_RAYS, True)],
    ids=["regular", "one-tree-probed", "lines", "call-by-call",
         "ray-periodic", "explicit-core"])
def test_unrecorded_burn_in_matches_recorded_walk(product, probes, follow,
                                                  steps):
    # a walk that records nothing carries only its state through the
    # first half, where a recorded walk solves every value: slopes and
    # final values must agree, also for probes whose matched lengths
    # are long when they are carried
    if follow:
        probes += following_probes(product)
    for p_up in (Fraction(1, 2), Fraction(1, 5), Fraction(4, 5)):
        recorded, unrecorded = (
            simulate(WalkConfig(product, p_up, steps, 9, 2, probes,
                                record_stride=stride)).trajectories
            for stride in (1, 0))
        for a, b in zip(recorded, unrecorded, strict=True):
            assert (a.dist_slope, a.height_slope, a.probe_slopes) == \
                (b.dist_slope, b.height_slope, b.probe_slopes)
            assert (a.final_dist, a.final_height) == \
                (b.final_dist, b.final_height)


def test_unrecorded_burn_in_solves_no_floor(monkeypatch):
    # a walk that records nothing solves its floors per step only over
    # steps half..steps, on one sort of the crossings per block whatever
    # its probes: both trees' floors, then each branching probe's L
    steps = 4 * _CHUNK
    crossed, floored = [], []       # steps of each call's block

    def counting_crossings(keys):
        crossed.append(len(keys))
        return _crossings(keys)

    def counting_floor(x, keys, *args):
        floored.append(len(keys))
        return _floor(x, keys, *args)

    monkeypatch.setattr("horoprod.walk._crossings", counting_crossings)
    monkeypatch.setattr("horoprod.walk._floor", counting_floor)
    for probes in ((), PROBES + REGULAR_RAYS):
        crossed.clear()
        floored.clear()
        config = WalkConfig(DL33, Fraction(4, 5), steps, 3, 1, probes,
                            record_stride=0)
        assert simulate(config).trajectories[0].steps == steps
        assert sum(crossed) == steps - steps // 2 + 1
        floors = 2 + sum(ray != GAMMA for _, ray in probes)
        assert floored == [n for n in crossed for _ in range(floors)]


def regular_draws(rng, p, d1, d2):
    """Random ``(up, c)`` for the block solver on two regular trees of
    degrees d1 and d2, where every vertex has d - 1 upward neighbors."""
    n = yield
    while True:
        up = rng.random(n) < p
        n = yield up, rng.integers(0, np.where(up, d1 - 1, d2 - 1))


def test_carried_blocks_solve_as_full_blocks():
    # A block that returns no value carries h, the floors and each
    # probe's L to its last step, so the full blocks after it must
    # return what they return after full blocks.  Short blocks at low
    # and high bias often end in a climb up the ray from below the
    # floor the block ends on: the stack depth there is below 0.
    rng = np.random.default_rng(27)
    for d1, d2 in ((3, 3), (3, 4), (4, 3)):
        for p in (0.2, 0.5, 0.8):
            rays = tuple(
                (tree, BranchingRay(
                    int(rng.integers(0, 3)),
                    tuple(rng.integers(0, d - 1, rng.integers(0, 4)).tolist()),
                    tuple(rng.integers(0, d - 1, rng.integers(1, 3)).tolist())))
                for tree, d in ((1, d1), (2, d2), (1, d1), (2, d2)))
            sizes = rng.integers(1, 61, 200).tolist()
            full = (rng.random(200) < 0.5).tolist()
            seed = int(rng.integers(2 ** 32))
            solved = []
            for modes in (full, [True] * len(full)):
                walk = _block_steps(
                    regular_draws(np.random.default_rng(seed), p, d1, d2),
                    rays)
                next(walk)
                solved.append([walk.send((n, f))
                               for n, f in zip(sizes, modes)])
            for k, (a, b) in enumerate(zip(*solved)):
                if full[k]:
                    assert len(a) == len(b) == 2 + len(rays)
                    for x, y in zip(a, b):
                        np.testing.assert_array_equal(x, y, err_msg=str(
                            (d1, d2, p, k, [str(r) for _, r in rays])))


def test_constant_count_walk_memory_is_flat():
    # a walk in numpy blocks keeps no suffix list and no per-step Python
    # object: doubling the steps of an unrecorded walk leaves its peak
    # allocation where it was
    def peak(steps):
        config = WalkConfig(DL33, Fraction(4, 5), steps, 3, 1,
                            record_stride=0)
        tracemalloc.start()
        try:
            simulate(config)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    short, long = peak(400_000), peak(800_000)
    assert long <= 1.1 * short, (short, long)


@pytest.mark.parametrize("p_up", [0.0, 1 / 3, 0.5, 0.8, 1.0])
def test_block_decoder_matches_draws_call_by_call(p_up):
    # On DL(3,3) every step takes three words of the Mersenne Twister:
    # random() takes two and the climb's getrandbits(1) is the top bit
    # of the third.  numpy's MT19937, set from a Random's state, must
    # continue that Random's stream word for word, also when the state
    # sits in the middle of its 624-word table (after a few random()).
    for warmup in (0, 5):
        calls = Random(41)
        for _ in range(warmup):
            calls.random()
        bits = MT19937()
        bits.state = _mt19937_state(calls)
        assert (bits.state["state"]["pos"] == 624) == (warmup == 0)
        for n in (1, 2500, 8192):
            up, c = _decode_words(bits, n, 3, p_up)
            expected = [(calls.random() < p_up, calls.getrandbits(1))
                        for _ in range(n)]
            assert list(zip(up.tolist(), c.tolist())) == expected
        # on two lines a step takes the two words of random() alone
        up, c = _decode_words(bits, 1000, 2, p_up)
        assert up.tolist() == [calls.random() < p_up for _ in range(1000)]
        assert not c.any()
        state, expected = bits.state["state"], _mt19937_state(calls)["state"]
        assert state["pos"] == expected["pos"]
        assert np.array_equal(state["key"], expected["key"])


def test_numpy_random_loads_only_for_fixed_word_walks():
    # numpy.random costs import time and memory, so neither the package
    # nor a walk on the suffix path loads it; a DL(3,3) walk, which
    # draws its words from numpy's MT19937, does
    code = textwrap.dedent("""
        import sys
        from fractions import Fraction
        from horoprod import HoroProduct, TreeSpec, WalkConfig, simulate
        loaded = ["numpy.random" in sys.modules]
        general = HoroProduct(
            TreeSpec.ray_periodic((3, 4), (3,)),
            TreeSpec.explicit_core_of(TreeSpec.regular(3), 3, 3))
        R3 = TreeSpec.regular(3)
        for product in (general, HoroProduct(R3, R3)):
            simulate(WalkConfig(product, Fraction(4, 5), 100, 1, 2))
            loaded.append("numpy.random" in sys.modules)
        print(loaded)
    """)
    run = subprocess.run([sys.executable, "-c", code], env=ENV,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[False, False, True]"


def test_degree_lookups_cost_under_twice_constant_degree():
    # on the suffix-list path a periodic degree sequence pays only for
    # its degree lookups against a constant one: medians of five
    # interleaved rounds of unprobed 20k-step walks, in CPU time
    bumpy, flat = (HoroProduct(spec, spec)
                   for spec in (TreeSpec.ray_periodic((3, 4), (4, 3)),
                                TreeSpec.ray_periodic((3,), (3,))))
    assert bumpy.tree1.family.constant_counts() is None
    assert flat.tree1.family.constant_counts() is None
    for p_up in (Fraction(1, 2), Fraction(4, 5)):
        seconds = ([], [])
        for seed in range(5):
            for product, out in zip((bumpy, flat), seconds):
                config = WalkConfig(product, p_up, 20_000, seed, 1,
                                    record_stride=0)
                start = time.process_time()
                simulate(config)
                out.append(time.process_time() - start)
        ratio = statistics.median(seconds[0]) / statistics.median(seconds[1])
        assert ratio < 2, (p_up, ratio, seconds)
