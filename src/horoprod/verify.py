"""Named verification suites, shared by the CLI and the test-suite.

Each suite is registered by ``_suite`` under its CLI id, in definition
order (``SUITES``), and returns ``(ok, details)``; the wrapper times it
and builds its one SuiteResult.  Details are JSON-ready, and a failing
suite always carries a minimal witness: checks yield their witnesses
lazily, and the first one is the failure.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, Iterator, Sequence

import numpy as np

from .tree import TreeSpec, busemann, height, tree_dist, vertex_busemann
from .rays import (
    BranchingRay,
    FSet,
    GAMMA,
    f_set,
    level_count,
    level_sequence,
    random_ray,
)
from .product import (HoroProduct, ProductVertex, busemann_rows,
                      product_busemann, product_dist, product_key)
from .boundary import (
    boundary_limit_check,
    hm_coordinates,
    level_point,
    ray_point,
    standard_catalog,
    vertex_point,
)
from .limits import (
    Horocyclic,
    empirical_pointwise_check,
    isomorphism_check,
    random_families,
    realizability,
    stabilization_bound,
)
from .walk import WalkConfig, drift_report, simulate


@dataclass
class SuiteResult:
    name: str
    ok: bool
    details: dict
    seconds: float

    def payload(self) -> dict:
        return {"suite": self.name, "ok": self.ok,
                "seconds": round(self.seconds, 3), **self.details}


SUITES: dict[str, Callable[..., SuiteResult]] = {}


def _suite(name: str):
    """Register a suite returning ``(ok, details)`` under its id ``name``;
    the registered callable times it and returns its SuiteResult."""
    def register(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs) -> SuiteResult:
            t0 = time.perf_counter()
            ok, details = fn(*args, **kwargs)
            return SuiteResult(name, ok, details, time.perf_counter() - t0)
        SUITES[name] = run
        return run
    return register


def _section(witnesses: Iterator[dict], **passed) -> dict:
    """``{"ok": True, **passed}``, or the first witness when there is one."""
    witness = next(witnesses, None)
    if witness is None:
        return {"ok": True, **passed}
    return {"ok": False, "witness": witness}


def _dl33() -> HoroProduct:
    r3 = TreeSpec.regular(3)
    return HoroProduct(r3, r3)


def _dl34() -> HoroProduct:
    return HoroProduct(TreeSpec.regular(3), TreeSpec.regular(4))


def _neighbour_table(n: int, edges: Sequence[int]) -> np.ndarray:
    """The graph on n vertices whose edges are the flat ``array('q')`` of
    positions a0, b0, a1, b1, ... as an int32 matrix, row v holding v's
    neighbours padded with n.  Both directions of every edge are sorted
    stably by tail, and one scatter fills the table: entry k of that
    order lands in its tail's row at column k minus the offset of the
    row."""
    pairs = np.frombuffer(edges, dtype=np.int64).astype(np.int32)
    tails, heads = pairs.reshape(-1, 2).T
    tails, heads = np.concatenate((tails, heads)), np.concatenate((heads, tails))
    order = np.argsort(tails, kind="stable")
    tails, heads = tails[order], heads[order]
    lengths = np.bincount(tails, minlength=n)
    table = np.full((n, lengths.max(initial=0)), n, dtype=np.int32)
    offsets = np.cumsum(lengths) - lengths
    table[tails, np.arange(len(tails)) - offsets[tails]] = heads
    return table


def _bitset_distances(n: int, edges: Sequence[int],
                      sources: int) -> tuple[np.ndarray, int]:
    """Graph distances among the first ``sources`` of n vertices joined by
    ``edges`` (flat, as ``ball_graph`` lists them), by one
    level-synchronous breadth-first sweep from all sources at once.

    Row v of the bit matrices holds one bit per source, packed into
    uint64 words.  Each level gathers the frontier rows of v's
    neighbours (the neighbour table is padded with index n, whose
    frontier row stays zero), ORs them together and keeps the bits v
    has not seen: those sources are at exactly this distance from v.
    The sweep stops once every source pair is reached or the frontier
    is empty; pairs never reached read -1.  Returns the distance matrix,
    indexed [source, target], and the number of levels swept.
    """
    table = _neighbour_table(n, edges)
    words = (sources + 63) // 64
    frontier = np.zeros((n + 1, words), dtype=np.uint64)
    ids = np.arange(sources)
    frontier[ids, ids >> 6] = np.left_shift(np.uint64(1), (ids & 63).astype(np.uint64))
    seen = frontier[:n].copy()
    reached = np.empty_like(seen)
    gathered = np.empty_like(seen)
    # dist[w, v]: target row w collects the bits of the sources reaching it
    dist = np.full((sources, sources), -1, dtype=np.int32)
    dist[ids, ids] = 0
    unreached = sources * sources - sources
    level = 0
    while unreached and frontier.any():
        level += 1
        reached.fill(0)
        for column in table.T:
            reached |= np.take(frontier, column, axis=0, out=gathered)
        reached &= np.invert(seen, out=gathered)
        seen |= reached
        frontier[:n] = reached
        bits = np.unpackbits(reached[:sources].astype("<u8").view(np.uint8),
                             axis=1, count=sources, bitorder="little").view(bool)
        dist[bits] = level
        unreached -= int(np.count_nonzero(bits))
    return dist.T, level


def _dist_matrix(vs: list[ProductVertex]) -> np.ndarray:
    """``[[product_dist(v, w) for w in vs] for v in vs]`` as one matrix.

    The closed form d1 + d2 - |h(v) - h(w)| on tables: -|h(v) - h(w)|
    over all pairs, plus ``tree_dist`` over the distinct first and over
    the distinct second coordinates, each gathered per pair.  Distances
    within a ball are at most its diameter, far inside int64.
    """
    h = np.fromiter((height(v.x1) for v in vs), np.int64, len(vs))
    dist = np.subtract.outer(h, h)
    np.negative(np.abs(dist, out=dist), out=dist)
    for side in ([v.x1 for v in vs], [v.x2 for v in vs]):
        us = list(dict.fromkeys(side))
        # tree_dist is symmetric and 0 on the diagonal: fill one triangle
        table = np.zeros((len(us), len(us)), dtype=np.int64)
        table[np.triu_indices(len(us), 1)] = [
            tree_dist(u, w) for i, u in enumerate(us) for w in us[i + 1:]]
        table += table.T
        at = {u: i for i, u in enumerate(us)}
        rows = np.fromiter(map(at.__getitem__, side), np.intp, len(side))
        dist += table[np.ix_(rows, rows)]
    return dist


def _all_pairs_bfs_check(product: HoroProduct, radius: int) -> dict:
    """Closed-form distance against breadth-first distance, all pairs.

    Any geodesic between two radius-R vertices stays inside the 2R
    ball (its points are within R of one endpoint), so a sweep over the
    induced 2R subgraph is exact.  The subgraph comes from the edge
    relation alone, as keys and a flat array of edges; its key list
    begins with the R ball, in the same order, so the sources are its
    first |ball(R)| vertices, the only keys built, and only they become
    ProductVertex objects.  All sources are swept at once, bit-parallel
    (``_bitset_distances``); then the whole distance matrix is compared
    with the closed form's (``_dist_matrix``), and the first
    disagreement in source-major order is the witness.
    """
    keys, edges = product.ball_graph(2 * radius)
    targets = product.ball(radius)
    if keys[:len(targets)] != list(map(product_key, targets)):
        raise AssertionError("the 2R ball must list the R ball first")
    counters = {"graph_vertices": len(keys)}
    dist, counters["bfs_levels"] = _bitset_distances(len(keys), edges,
                                                     len(targets))
    del keys, edges
    formula = _dist_matrix(targets)
    wrong = np.flatnonzero(formula != dist)
    if wrong.size:
        i, j = divmod(int(wrong[0]), len(targets))
        return {"ok": False, "pairs_checked": int(wrong[0]) + 1,
                "witness": {"v": str(targets[i]), "w": str(targets[j]),
                            "formula": int(formula[i, j]),
                            "bfs": int(dist[i, j])},
                **counters}
    return {"ok": True, "ball_size": len(targets),
            "pairs_checked": len(targets) ** 2, **counters}


@_suite("metric-oracle")
def metric_oracle_suite(radius: int = 6, radius34: int | None = None):
    """Distance formula == breadth-first oracle, exhaustively: DL(3,3)
    to ``radius``, DL(3,4) to ``radius34``, by default one less (at
    least 1)."""
    if radius34 is None:
        radius34 = max(radius - 1, 1)
    details = {label: _all_pairs_bfs_check(product, r)
               for label, product, r in (("dl33", _dl33(), radius),
                                         ("dl34", _dl34(), radius34))}
    return all(res["ok"] for res in details.values()), details


@_suite("lemma41")
def busemann_identity_suite(radius: int = 5):
    """Anchored Busemann decomposition == distance difference, all pairs."""
    product = _dl33()
    ball = product.ball(radius)
    checked = 0
    for z in ball:
        d_base = product_dist(z, product.base)
        for y in ball:
            checked += 1
            lhs = product_busemann(z, y)
            rhs = product_dist(z, y) - d_base
            if lhs != rhs:
                return False, {"pairs_checked": checked,
                               "witness": {"z": str(z), "y": str(y),
                                           "decomposition": lhs,
                                           "direct": rhs}}
    return True, {"ball_size": len(ball), "pairs_checked": checked}


def _sample_rays(spec: TreeSpec, count: int, seed: int) -> list:
    """``count`` distinct ends drawn by ``random_ray``."""
    rng = Random(seed)
    out = []
    while len(out) < count:
        ray = random_ray(spec, rng, 4, 5)
        if ray not in out:
            out.append(ray)
    return out


def _ray_limit_witnesses(rays, ball, radius: int):
    """Ball vertices where a ray's anchored Busemann values, marched far
    enough along it, miss the ray's function."""
    for ray in rays:
        # marching beyond radius + twice the branch point settles
        # every meet depth with ball vertices
        n0 = radius + 2 * ray.branch + len(ray.prefix) + 2
        marching = [ray.vertex(n) for n in range(n0, n0 + 12)]
        for y in ball:
            want = busemann(ray, y)
            for n, z in enumerate(marching, n0):
                got = vertex_busemann(z, y)
                if got != want:
                    yield {"ray": str(ray), "y": str(y),
                           "n": n, "got": got, "want": want}


def _meet_depth_witnesses(spec: TreeSpec, window: int):
    """Levels whose meet depths with the distinguished end look bounded
    over the first ``window`` vertices."""
    for k in range(-2, 3):
        meets = [GAMMA.meet_depth(v)
                 for v in itertools.islice(level_sequence(spec, k), window)]
        # unbounded over the window: never falls back, keeps making
        # progress past the midpoint, and clears an absolute floor
        monotone = all(b >= a for a, b in zip(meets, meets[1:]))
        if not (monotone and meets[-1] > meets[len(meets) // 2]
                and meets[-1] >= 3):
            yield {"k": k, "meets_head": meets[:10], "meets_tail": meets[-3:]}


def _cocycle_gap_witnesses(spec: TreeSpec, up_ray, seed: int):
    """Random test-ball pairs (x, y) whose distance gap d(x, r_n) -
    d(y, r_n) misses the end's cocycle busemann(x) - busemann(y),
    for r_n marching up ``up_ray`` and down the distinguished ray, whose
    cocycle is height(x) - height(y)."""
    test_ball = spec.ball(4)
    rng = Random(seed + 1)
    pairs = [(rng.choice(test_ball), rng.choice(test_ball))
             for _ in range(30)]
    reach = max(abs(height(v)) for v in test_ball)
    directions = [(direction, ray, [ray.vertex(n) for n in
                                    range(2 * up_ray.branch + reach + 12)])
                  for direction, ray in (("up", up_ray), ("down", GAMMA))]
    for x, y in pairs:
        # past the meet depths of x and y with either end
        n0 = 2 * up_ray.branch + max(abs(height(x)), abs(height(y))) + 2
        for direction, ray, marching in directions:
            want = busemann(ray, x) - busemann(ray, y)
            for n in range(n0, n0 + 10):
                gap = tree_dist(x, marching[n]) - tree_dist(y, marching[n])
                if gap != want:
                    yield {"direction": direction, "x": str(x), "y": str(y),
                           "n": n, "gap": gap, "want": want}


@_suite("pointwise-limits")
def tree_compactification_suite(rays_per_tree: int = 50, radius: int = 5,
                                window: int = 100, seed: int = 4213):
    """Single-tree convergence checks.

    (a) anchored Busemann values along a ray stabilize to the ray's
    function on a test ball; (b) bounded-height divergent families have
    unbounded meet depth with the distinguished end; (c) along height-
    divergent sequences, up a branching ray and down the distinguished
    one, the distance gap d(x, .) - d(y, .) stabilizes to the end's
    Busemann cocycle, which down the distinguished ray is the height
    difference.
    """
    details = {"rays": {}, "bounded_height": {}, "cocycle_gap": {}}
    for label, spec in (("regular3", TreeSpec.regular(3)),
                        ("regular4", TreeSpec.regular(4))):
        rays = _sample_rays(spec, rays_per_tree, seed)
        details["rays"][label] = _section(
            _ray_limit_witnesses(rays, spec.ball(radius), radius),
            count=len(rays))
        details["bounded_height"][label] = _section(
            _meet_depth_witnesses(spec, window))
        details["cocycle_gap"][label] = _section(
            _cocycle_gap_witnesses(spec, rays[0], seed))
    ok = all(section[label]["ok"]
             for section in details.values() for label in section)
    return ok, details


def _boundary_witnesses(product: HoroProduct, catalog, ball, sep_ball):
    """Catalog functions that are nonzero at the base, then pairs of ball
    vertices where one stretches distance, then pairs of functions that
    agree on the separation ball.  The values are rows of
    ``busemann_rows`` over the catalog's coordinates; the stretch check
    compares each row with ``_dist_matrix(ball)`` over all pairs i < j
    at once."""
    coords = [hm_coordinates(p) for p in catalog]
    for p, (value,) in zip(catalog, busemann_rows(coords, [product.base])):
        if value != 0:
            yield {"point": str(p), "base_value": value}
    first, second = np.triu_indices(len(ball), 1)
    dist = _dist_matrix(ball)[first, second]
    # one row at a time: the whole catalog's pair gaps would take
    # several MB for a sub-millisecond saving
    for p, vals in zip(catalog, busemann_rows(coords, ball)):
        vals = np.array(vals, dtype=np.int64)
        gaps = np.abs(vals[first] - vals[second])
        for m in np.flatnonzero(gaps > dist):
            yield {"point": str(p), "v": str(ball[first[m]]),
                   "w": str(ball[second[m]]), "gap": int(gaps[m]),
                   "dist": int(dist[m])}
    profiles = busemann_rows(coords, sep_ball)
    for i, j in itertools.combinations(range(len(catalog)), 2):
        if profiles[i] == profiles[j]:
            yield {"p": str(catalog[i]), "q": str(catalog[j])}


@_suite("boundary-functions")
def boundary_function_suite(lipschitz_radius: int = 4,
                            separation_radius: int = 3):
    """Catalog functions vanish at base, are 1-Lipschitz, and separate."""
    product = _dl33()
    catalog = standard_catalog(product)
    ball = product.ball(lipschitz_radius)
    sep_ball = product.ball(separation_radius)
    details = {"catalog_size": len(catalog),
               **_section(_boundary_witnesses(product, catalog, ball, sep_ball),
                          ball_size=len(ball), separation_ball=len(sep_ball))}
    return details["ok"], details


@_suite("isomorphism")
def isomorphism_suite(count_per_product: int = 120, radius: int = 4,
                      seed: int = 20260811):
    """Symbolic classification vs empirical limits on randomized families."""
    summaries = {
        label: isomorphism_check(
            product, random_families(product, count_per_product, seed), radius)
        for label, product in (("dl33", _dl33()), ("dl34", _dl34()))}
    details = {"seed": seed,
               **{label: s.payload() for label, s in summaries.items()},
               "total_families": sum(s.total for s in summaries.values())}
    return all(s.ok for s in summaries.values()), details


def _count_witnesses(spec: TreeSpec, verdict: str, radius: int):
    """Levels whose growth between radius - 2 and ``radius`` contradicts
    the level-set verdict: only infinite levels keep growing."""
    # levels gain vertices only at distances of matching parity, so
    # compare radii two apart; |k| <= 2 keeps the finite families'
    # saturation radius (twice the core radius plus |k|) below the
    # lower radius
    for k in range(-2, 3):
        lo = level_count(spec, k, radius - 2)
        hi = level_count(spec, k, radius)
        if (verdict == FSet.ALL) != (hi > lo):
            yield {"k": k, "count_lo": lo, "count_hi": hi, "verdict": verdict}


def _level_witnesses(dl33: HoroProduct, levels: int, radius: int):
    """Levels of DL(3,3) that are not realizable, or whose horocyclic
    family does not converge to the level point on the test ball."""
    for k in range(-levels, levels + 1):
        if not realizability(dl33, level_point(k))[0]:
            yield {"k": k, "reason": "not realizable"}
            continue
        family = Horocyclic(k)
        n0 = stabilization_bound(dl33, family, radius)
        emp = empirical_pointwise_check(dl33, family, (n0, n0 + 30), radius,
                                        level_point(k))
        if not (emp.convergent and emp.matched_target):
            yield {"k": k, "violations": list(emp.violations)}


@_suite("fset")
def fset_suite(radius: int = 12, witness_levels: int = 5,
               witness_radius: int = 3):
    """Level-set dichotomy against the counting oracle, plus level-point
    realizability with empirically converging witness families."""
    if radius < 8:
        raise ValueError("the level-counting oracle needs radius >= 8")
    r3 = TreeSpec.regular(3)
    line = TreeSpec.line()
    # the finite family's levels saturate at distance 2*core_radius + |k|,
    # which must fall at or below the lower comparison radius
    core_radius = min(4, (radius - 4) // 2)
    core_finite = TreeSpec.explicit_core_of(r3, core_radius, 2)
    core_infinite = TreeSpec.explicit_core_of(line, 2, 3)
    details = {}
    specs = {"regular3": r3, "line": line,
             "core_tail2": core_finite, "core_tail3": core_infinite}
    for label, spec in specs.items():
        verdict = f_set(spec)
        witness = next(_count_witnesses(spec, verdict, radius), None)
        details[label] = {"verdict": verdict, "oracle_agrees": witness is None}
        if witness:
            details[label]["witness"] = witness

    dl3line = HoroProduct(r3, line)
    realizable = [k for k in range(-witness_levels, witness_levels + 1)
                  if realizability(dl3line, level_point(k))[0]]
    details["dl3line_levels_not_realizable"] = not realizable
    if realizable:
        details["witness"] = {"k": realizable[0], "reason": "realizable on dl3line"}

    witness = next(_level_witnesses(_dl33(), witness_levels, witness_radius),
                   None)
    details["dl33_level_witnesses"] = witness is None
    if witness:
        details.setdefault("witness", witness)
    ok = (all(details[label]["oracle_agrees"] for label in specs)
          and details["dl3line_levels_not_realizable"]
          and details["dl33_level_witnesses"])
    return ok, details


@_suite("closure")
def closure_suite(radius: int = 4, level_span: int = 10):
    """Level points drain into the two height functions; pinned-vertex
    families reach both their ray limits and their level limits."""
    product = _dl33()
    ray = BranchingRay(0, (), (0,))
    checks = [
        ("levels_up_to_height1",
         [level_point(k) for k in range(1, level_span + 1)], ray_point(1, GAMMA)),
        ("levels_down_to_height2",
         [level_point(-k) for k in range(1, level_span + 1)], ray_point(2, GAMMA)),
        ("pinned_to_ray_limit",
         [vertex_point(1, ray.vertex(n)) for n in range(1, 14)],
         ray_point(1, ray)),
    ]
    for k in (-1, 0, 2):
        seq = []
        for i, v in enumerate(level_sequence(product.tree1, k)):
            seq.append(vertex_point(1, v))
            if v.branch > radius + 1 and i > 4:
                break
        checks.append((f"pinned_to_level_{k}", seq, level_point(k)))
    details = {}
    # the first failing check ends the suite and names the witness
    for name, seq, target in checks:
        violations = boundary_limit_check(product, seq, target, radius)
        details[name] = not violations
        if violations:
            details["witness"] = {"check": name, "violations": violations[:3]}
            return False, details
    return True, details


@_suite("walk-drift")
def walk_drift_suite(steps: int = 100_000, trajectories: int = 100,
                     seed: int = 90125, tolerance: float = 0.05):
    """Drift identities at up-bias 1.0, 0.8, 0.2; zero-speed flag at 0.5."""
    product = _dl33()
    probes = ((1, GAMMA), (2, GAMMA),
              (1, BranchingRay(0, (), (1,))), (2, BranchingRay(0, (), (1,))))
    details = {}
    for p_num, p_den, label in ((1, 1, "p1.0"), (4, 5, "p0.8"),
                                (1, 5, "p0.2"), (1, 2, "p0.5")):
        config = WalkConfig(product, Fraction(p_num, p_den), steps,
                            seed, trajectories, probes, record_stride=0)
        result = simulate(config)
        report = drift_report(result, tolerance)
        entry = {"regime": report["regime"],
                 "speed": report["speed"]["mean"],
                 "height_slope": report["height_slope"]["mean"],
                 "ok": report["ok"]}
        if label == "p1.0":
            entry["exact"] = (report["exact"]["speed_is_one"]
                              and report["exact"]["height_slope_is_one"])
            entry["ok"] = entry["ok"] and entry["exact"]
        if label == "p0.5":
            entry["zero_speed_flagged"] = report["regime"] == "zero_speed"
            entry["ok"] = entry["ok"] and entry["zero_speed_flagged"]
        if not entry["ok"]:
            entry["report"] = {k: report[k] for k in
                               ("speed", "height_slope", "checks")}
        details[label] = entry
    return all(entry["ok"] for entry in details.values()), details
