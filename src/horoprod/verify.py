"""Named verification suites, shared by the CLI and the test-suite.

Every suite returns a SuiteResult whose details are JSON-ready; a
failing suite always carries a minimal witness.  Suite ids (the CLI
contract): metric-oracle, lemma41, pointwise-limits, isomorphism,
fset, walk-drift, plus the extras boundary-functions and closure.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

import numpy as np

from .tree import TreeSpec, height, vertex_busemann
from .rays import (
    BranchingRay,
    FSet,
    GAMMA,
    f_set,
    level_count,
    level_sequence,
    ray_busemann,
    random_ray,
    ray_meet_depth,
    ray_vertex,
)
from .product import HoroProduct, product_busemann, product_dist, product_key
from .boundary import (
    HoroFunction,
    boundary_limit_check,
    evaluate,
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
    details: dict = field(default_factory=dict)
    seconds: float = 0.0

    def payload(self) -> dict:
        return {"suite": self.name, "ok": self.ok,
                "seconds": round(self.seconds, 3), **self.details}


def _timed(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        result.seconds = time.perf_counter() - t0
        return result
    return wrapper


def _dl33() -> HoroProduct:
    r3 = TreeSpec.regular(3)
    return HoroProduct(r3, r3)


def _dl34() -> HoroProduct:
    return HoroProduct(TreeSpec.regular(3), TreeSpec.regular(4))


def _bitset_distances(adj: list[list[int]], sources: int) -> tuple[np.ndarray, int]:
    """Graph distances among the first ``sources`` vertices of ``adj``, by
    one level-synchronous breadth-first sweep from all of them at once.

    Row v of the bit matrices holds one bit per source, packed into
    uint64 words.  Each level gathers the frontier rows of v's
    neighbours (the neighbour table is padded with index n, whose
    frontier row stays zero), ORs them together and keeps the bits v
    has not seen: those sources are at exactly this distance from v.
    The sweep stops once every source pair is reached or the frontier
    is empty; pairs never reached read -1.  Returns the distance matrix,
    indexed [source, target], and the number of levels swept.
    """
    n = len(adj)
    table = np.full((n, max(map(len, adj), default=0)), n, dtype=np.int32)
    for v, ns in enumerate(adj):
        table[v, :len(ns)] = ns
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


def _all_pairs_bfs_check(product: HoroProduct, radius: int) -> dict:
    """Closed-form distance against breadth-first distance, all pairs.

    Any geodesic between two radius-R vertices stays inside the 2R
    ball (its points are within R of one endpoint), so a sweep over the
    induced 2R subgraph is exact.  The subgraph comes from the edge
    relation alone, as keys and integer adjacency lists; its key list
    begins with the R ball, in the same order, so the sources are its
    first |ball(R)| vertices, and only they become ProductVertex
    objects.  All sources are swept at once, bit-parallel
    (``_bitset_distances``); then every pair is compared with
    ``product_dist``, source-major, and the first disagreement is the
    witness.
    """
    keys, adj = product.ball_graph(2 * radius)
    targets = product.ball(radius)
    assert keys[:len(targets)] == list(map(product_key, targets)), (
        "the 2R ball must list the R ball first")
    counters = {"graph_vertices": len(keys)}
    dist, counters["bfs_levels"] = _bitset_distances(adj, len(targets))
    for i, v in enumerate(targets):
        bfs = dist[i].tolist()
        formula = [product_dist(v, w) for w in targets]
        if formula != bfs:
            j = next(j for j, (f, b) in enumerate(zip(formula, bfs)) if f != b)
            return {"ok": False, "pairs_checked": i * len(targets) + j + 1,
                    "witness": {"v": str(v), "w": str(targets[j]),
                                "formula": formula[j], "bfs": bfs[j]},
                    **counters}
    return {"ok": True, "ball_size": len(targets),
            "pairs_checked": len(targets) ** 2, **counters}


@_timed
def metric_oracle_suite(radius33: int = 6, radius34: int = 5) -> SuiteResult:
    """Distance formula == breadth-first oracle, exhaustively."""
    details = {}
    ok = True
    for label, product, radius in (("dl33", _dl33(), radius33),
                                   ("dl34", _dl34(), radius34)):
        res = _all_pairs_bfs_check(product, radius)
        details[label] = res
        ok = ok and res["ok"]
    return SuiteResult("metric-oracle", ok, details)


@_timed
def busemann_identity_suite(radius: int = 5) -> SuiteResult:
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
                return SuiteResult("lemma41", False, {
                    "pairs_checked": checked,
                    "witness": {"z": str(z), "y": str(y),
                                "decomposition": lhs, "direct": rhs}})
    return SuiteResult("lemma41", True,
                       {"ball_size": len(ball), "pairs_checked": checked})


def _sample_rays(spec: TreeSpec, count: int, seed: int) -> list:
    """``count`` distinct ends drawn by ``random_ray``."""
    rng = Random(seed)
    out = []
    while len(out) < count:
        ray = random_ray(spec, rng, 4, 5)
        if ray not in out:
            out.append(ray)
    return out


@_timed
def tree_compactification_suite(rays_per_tree: int = 50, radius: int = 5,
                                window: int = 100, seed: int = 4213,
                                ) -> SuiteResult:
    """Single-tree convergence checks (suite id: pointwise-limits).

    (a) anchored Busemann values along a ray stabilize to the ray's
    function on a test ball; (b) bounded-height divergent families have
    unbounded meet depth with the distinguished end; (c) for height-
    divergent sequences the cocycle gap stabilizes to the predicted
    height difference.
    """
    details = {"rays": {}, "bounded_height": {}, "cocycle_gap": {}}
    for label, spec in (("regular3", TreeSpec.regular(3)),
                        ("regular4", TreeSpec.regular(4))):
        rays = _sample_rays(spec, rays_per_tree, seed)
        ball = spec.ball(radius)
        stab_fail = None
        for ray in rays:
            # marching beyond radius + twice the branch point settles
            # every meet depth with ball vertices
            n0 = radius + 2 * ray.branch + len(ray.prefix) + 2
            marching = [ray_vertex(ray, n) for n in range(n0, n0 + 12)]
            for y in ball:
                want = ray_busemann(ray, y)
                for n, z in enumerate(marching, n0):
                    got = vertex_busemann(z, y)
                    if got != want:
                        stab_fail = {"ray": str(ray), "y": str(y),
                                     "n": n, "got": got, "want": want}
                        break
                if stab_fail:
                    break
            if stab_fail:
                break
        details["rays"][label] = ({"ok": True, "count": len(rays)}
                                  if not stab_fail else
                                  {"ok": False, "witness": stab_fail})

        bounded_fail = None
        for k in range(-2, 3):
            meets = []
            for i, v in enumerate(level_sequence(spec, k)):
                if i >= window:
                    break
                meets.append(ray_meet_depth(v, GAMMA))
            # unbounded over the window: never falls back, keeps making
            # progress past the midpoint, and clears an absolute floor
            monotone = all(b >= a for a, b in zip(meets, meets[1:]))
            if not (monotone and meets[-1] > meets[len(meets) // 2]
                    and meets[-1] >= 3):
                bounded_fail = {"k": k, "meets_head": meets[:10],
                                "meets_tail": meets[-3:]}
                break
        details["bounded_height"][label] = ({"ok": True}
                                            if not bounded_fail else
                                            {"ok": False, "witness": bounded_fail})

        gap_fail = None
        test_ball = spec.ball(4)
        rng = Random(seed + 1)
        pairs = [(rng.choice(test_ball), rng.choice(test_ball))
                 for _ in range(30)]
        up_ray = rays[0]
        reach = max(abs(height(v)) for v in test_ball)
        up_heights = [height(ray_vertex(up_ray, n))
                      for n in range(2 * up_ray.branch + reach + 12)]
        for x, y in pairs:
            hx, hy = height(x), height(y)
            # heights +inf along a branching ray: gap -> height(y) - height(x)
            n0 = 2 * up_ray.branch + max(abs(hx), abs(hy)) + 2
            for n in range(n0, n0 + 10):
                hn = up_heights[n]
                gap = abs(hn - hx) - abs(hn - hy)
                if gap != hy - hx:
                    gap_fail = {"direction": "up", "x": str(x), "y": str(y),
                                "n": n, "gap": gap, "want": hy - hx}
                    break
            # heights -inf along the distinguished ray: gap -> height(x) - height(y)
            for n in range(n0, n0 + 10):
                hn = -n
                gap = abs(hn - hx) - abs(hn - hy)
                if gap != hx - hy:
                    gap_fail = {"direction": "down", "x": str(x), "y": str(y),
                                "n": n, "gap": gap, "want": hx - hy}
                    break
            if gap_fail:
                break
        details["cocycle_gap"][label] = ({"ok": True}
                                         if not gap_fail else
                                         {"ok": False, "witness": gap_fail})
    ok = all(section[label]["ok"]
             for section in details.values() for label in section)
    return SuiteResult("pointwise-limits", ok, details)


@_timed
def boundary_function_suite(lipschitz_radius: int = 4,
                            separation_radius: int = 3) -> SuiteResult:
    """Catalog functions vanish at base, are 1-Lipschitz, and separate."""
    product = _dl33()
    catalog = standard_catalog(product)
    details = {"catalog_size": len(catalog)}
    for p in catalog:
        if evaluate(p, product.base) != 0:
            return SuiteResult("boundary-functions", False,
                               {**details, "witness":
                                {"point": str(p), "base_value": evaluate(p, product.base)}})
    ball = product.ball(lipschitz_radius)
    pairs = [(i, j, product_dist(v, ball[j]))
             for i, v in enumerate(ball) for j in range(i + 1, len(ball))]
    for p in catalog:
        vals = [evaluate(p, y) for y in ball]
        for i, j, dist in pairs:
            if abs(vals[i] - vals[j]) > dist:
                return SuiteResult("boundary-functions", False, {
                    **details, "witness": {
                        "point": str(p), "v": str(ball[i]), "w": str(ball[j]),
                        "gap": abs(vals[i] - vals[j]), "dist": dist}})
    sep_ball = product.ball(separation_radius)
    profiles = [tuple(evaluate(p, y) for y in sep_ball) for p in catalog]
    for i in range(len(catalog)):
        for j in range(i + 1, len(catalog)):
            if profiles[i] == profiles[j]:
                return SuiteResult("boundary-functions", False, {
                    **details, "witness": {"p": str(catalog[i]),
                                           "q": str(catalog[j])}})
    details.update(ball_size=len(ball), separation_ball=len(sep_ball), ok=True)
    return SuiteResult("boundary-functions", True, details)


@_timed
def isomorphism_suite(count_per_product: int = 120, radius: int = 4,
                      seed: int = 20260811) -> SuiteResult:
    """Symbolic classification vs empirical limits on randomized families."""
    details = {"seed": seed}
    ok = True
    total = 0
    for label, product in (("dl33", _dl33()), ("dl34", _dl34())):
        families = random_families(product, count_per_product, seed)
        summary = isomorphism_check(product, families, radius)
        details[label] = summary.payload()
        ok = ok and summary.ok
        total += summary.total
    details["total_families"] = total
    return SuiteResult("isomorphism", ok, details)


@_timed
def fset_suite(max_radius: int = 12, witness_levels: int = 5,
               witness_radius: int = 3) -> SuiteResult:
    """Level-set dichotomy against the counting oracle, plus level-point
    realizability with empirically converging witness families."""
    if max_radius < 8:
        raise ValueError("the level-counting oracle needs max_radius >= 8")
    r3 = TreeSpec.regular(3)
    line = TreeSpec.line()
    # the finite family's levels saturate at distance 2*core_radius + |k|,
    # which must fall at or below the lower comparison radius
    core_radius = min(4, (max_radius - 4) // 2)
    core_finite = TreeSpec.explicit_core_of(r3, core_radius, 2)
    core_infinite = TreeSpec.explicit_core_of(line, 2, 3)
    details = {}
    ok = True
    specs = {"regular3": r3, "line": line,
             "core_tail2": core_finite, "core_tail3": core_infinite}
    for label, spec in specs.items():
        verdict = f_set(spec)
        counts_ok = True
        witness = None
        # levels gain vertices only at distances of matching parity, so
        # compare radii two apart; |k| <= 2 keeps the finite families'
        # saturation radius (twice the core radius plus |k|) below the
        # lower radius
        for k in range(-2, 3):
            lo = level_count(spec, k, max_radius - 2)
            hi = level_count(spec, k, max_radius)
            grows = hi > lo
            if (verdict == FSet.ALL) != grows:
                counts_ok = False
                witness = {"k": k, "count_lo": lo, "count_hi": hi,
                           "verdict": verdict}
                break
        details[label] = {"verdict": verdict, "oracle_agrees": counts_ok}
        if witness:
            details[label]["witness"] = witness
        ok = ok and counts_ok

    dl3line = HoroProduct(r3, line)
    realizable = [k for k in range(-witness_levels, witness_levels + 1)
                  if realizability(dl3line, level_point(k))[0]]
    details["dl3line_levels_not_realizable"] = not realizable
    ok = ok and not realizable
    if realizable:
        details["witness"] = {"k": realizable[0], "reason": "realizable on dl3line"}

    dl33 = _dl33()
    witness_ok = True
    witness_detail = None
    for k in range(-witness_levels, witness_levels + 1):
        if not realizability(dl33, level_point(k))[0]:
            witness_ok = False
            witness_detail = {"k": k, "reason": "not realizable"}
            break
        family = Horocyclic(k)
        n0 = stabilization_bound(dl33, family, witness_radius)
        emp = empirical_pointwise_check(dl33, family, (n0, n0 + 30),
                                        witness_radius,
                                        HoroFunction(level_point(k)))
        if not (emp.convergent and emp.matched_target):
            witness_ok = False
            witness_detail = {"k": k, "violations": list(emp.violations)}
            break
    details["dl33_level_witnesses"] = witness_ok
    if witness_detail:
        details.setdefault("witness", witness_detail)
    ok = ok and witness_ok
    return SuiteResult("fset", ok, details)


@_timed
def closure_suite(radius: int = 4, level_span: int = 10) -> SuiteResult:
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
         [vertex_point(1, ray_vertex(ray, n)) for n in range(1, 14)],
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
        report = boundary_limit_check(product, seq, target, radius)
        details[name] = report.ok
        if not report.ok:
            details["witness"] = {"check": name,
                                  "violations": list(report.violations[:3])}
            return SuiteResult("closure", False, details)
    return SuiteResult("closure", True, details)


@_timed
def walk_drift_suite(steps: int = 100_000, trajectories: int = 100,
                     seed: int = 90125, tolerance: float = 0.05,
                     ) -> SuiteResult:
    """Drift identities at up-bias 1.0, 0.8, 0.2; zero-speed flag at 0.5."""
    product = _dl33()
    probes = ((1, GAMMA), (2, GAMMA),
              (1, BranchingRay(0, (), (1,))), (2, BranchingRay(0, (), (1,))))
    details = {}
    ok = True
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
        ok = ok and entry["ok"]
    return SuiteResult("walk-drift", ok, details)


SUITES = {
    "metric-oracle": metric_oracle_suite,
    "lemma41": busemann_identity_suite,
    "pointwise-limits": tree_compactification_suite,
    "boundary-functions": boundary_function_suite,
    "isomorphism": isomorphism_suite,
    "fset": fset_suite,
    "closure": closure_suite,
    "walk-drift": walk_drift_suite,
}
