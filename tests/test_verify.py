"""Failing suites carry a witness that names what failed."""

import subprocess
import sys

import pytest

from horoprod import verify
from horoprod.boundary import boundary_limit_check, level_point, ray_point
from horoprod.limits import Custom, empirical_pointwise_check
from horoprod.product import BASE, ProductVertex, busemann_rows, product_busemann
from horoprod.rays import GAMMA, BranchingRay, GammaEnd
from horoprod.tree import VertexAddress, busemann, tree_dist
from horoprod.walk import drift_report
from test_scripts import ENV

ELSEWHERE = ProductVertex(VertexAddress(0, (0,)), VertexAddress(1, ()))


def test_isomorphism_failure_names_family_window_and_violations(monkeypatch):
    # at BASE over the whole classification window (0, 80), so it is
    # classified interior; the empirical window (40, 95) sees it leave
    leaver = Custom(lambda n: BASE if n < 80 else ELSEWHERE, label="leaver")
    monkeypatch.setattr(verify, "random_families",
                        lambda product, count, seed: [leaver])
    result = verify.isomorphism_suite(count_per_product=1)
    assert not result.ok
    for label in ("dl33", "dl34"):
        entry = result.details[label]
        assert entry["disagreements"] == ["custom[leaver]"]
        witness = entry["witness"]
        assert witness["family"] == "custom[leaver]"
        assert witness["status"] == "interior"
        assert witness["window"] == [40, 95]
        assert witness["violations"][0]["index"] == 80


@pytest.mark.parametrize("check,target", [
    ("levels_up_to_height1", ray_point(1, GAMMA)),
    ("levels_down_to_height2", ray_point(2, GAMMA)),
    ("pinned_to_ray_limit", ray_point(1, BranchingRay(0, (), (0,)))),
])
def test_closure_failure_names_check_and_violations(monkeypatch, check, target):
    def wrong_target(product, seq, want, radius):
        return boundary_limit_check(
            product, seq, level_point(0) if want == target else want, radius)

    monkeypatch.setattr(verify, "boundary_limit_check", wrong_target)
    result = verify.closure_suite()
    assert not result.ok
    assert result.details[check] is False
    witness = result.details["witness"]
    assert witness["check"] == check
    assert 1 <= len(witness["violations"]) <= 3
    assert set(witness["violations"][0]) == {"vertex", "expected", "last_value"}


def test_fset_failure_names_realizable_level(monkeypatch):
    monkeypatch.setattr(verify, "realizability", lambda product, point: (True, None))
    result = verify.fset_suite(witness_levels=2)
    assert not result.ok
    assert result.details["dl3line_levels_not_realizable"] is False
    assert result.details["witness"] == {"k": -2, "reason": "realizable on dl3line"}


def _wrong_level_target(product, family, window, radius, target):
    return empirical_pointwise_check(product, family, window, radius,
                                     level_point(7))


def _gamma_leaves_ray(gamma, step):
    return VertexAddress(0, (0,) * step)


def _rows_through(f):
    """``busemann_rows`` with f applied to every value."""
    return lambda coords, ys: [[f(v) for v in row]
                               for row in busemann_rows(coords, ys)]


# (suite, its arguments, the name the check reads in the verify module or
# an (owner, attribute) pair, its replacement); where a replacement
# breaks more than one check, the payload shows which witness comes first
FAILURES = {
    "lemma41": (verify.busemann_identity_suite, {"radius": 1},
                "product_busemann", lambda z, y: product_busemann(z, y) + 1),
    "pointwise-rays": (
        verify.tree_compactification_suite,
        {"rays_per_tree": 2, "radius": 1},
        "busemann", lambda x, y: busemann(x, y) + 1),
    "pointwise-bounded-height": (
        verify.tree_compactification_suite,
        {"rays_per_tree": 2, "radius": 1},
        (GammaEnd, "meet_depth"), lambda gamma, v: 0),
    "pointwise-cocycle-gap": (
        verify.tree_compactification_suite,
        {"rays_per_tree": 2, "radius": 1},
        "tree_dist", lambda v, w: tree_dist(v, w) + len(v.suffix) % 2),
    "pointwise-cocycle-gap-down": (
        verify.tree_compactification_suite,
        {"rays_per_tree": 2, "radius": 1},
        (GammaEnd, "vertex"), _gamma_leaves_ray),
    "boundary-base-value": (
        verify.boundary_function_suite,
        {"lipschitz_radius": 1},
        "busemann_rows", _rows_through(lambda v: 2 * v + 1)),
    "boundary-lipschitz": (
        verify.boundary_function_suite,
        {"lipschitz_radius": 1},
        "busemann_rows", _rows_through(lambda v: 2 * abs(v))),
    "boundary-separation": (
        verify.boundary_function_suite,
        {"lipschitz_radius": 1},
        "busemann_rows", _rows_through(lambda v: 0)),
    "fset-counting-oracle": (
        verify.fset_suite,
        {"radius": 8, "witness_levels": 1, "witness_radius": 1},
        "level_count", lambda spec, k, radius: 0),
    "fset-dl33-not-realizable": (
        verify.fset_suite,
        {"radius": 8, "witness_levels": 1, "witness_radius": 1},
        "realizability", lambda product, point: (False, None)),
    "fset-dl3line-witness-first": (
        verify.fset_suite,
        {"radius": 8, "witness_levels": 1, "witness_radius": 1},
        "realizability",
        lambda product, point: (product.tree1 is not product.tree2, None)),
    "fset-dl33-level-limit": (
        verify.fset_suite,
        {"radius": 8, "witness_levels": 1, "witness_radius": 1},
        "empirical_pointwise_check", _wrong_level_target),
    "walk-drift": (
        verify.walk_drift_suite, {"steps": 2000, "trajectories": 2},
        "drift_report",
        lambda result, tolerance: {**drift_report(result, tolerance),
                                   "ok": False}),
}

# each failing payload minus "seconds"
ALL_OK = {"regular3": {"ok": True}, "regular4": {"ok": True}}
RAYS_OK = {"regular3": {"ok": True, "count": 2},
           "regular4": {"ok": True, "count": 2}}
NO_GROWTH = {"k": -2, "meets_head": [0] * 10, "meets_tail": [0] * 3}
FSET_COUNTS_OK = {
    "regular3": {"verdict": "all_integers", "oracle_agrees": True},
    "line": {"verdict": "empty", "oracle_agrees": True},
    "core_tail2": {"verdict": "empty", "oracle_agrees": True},
    "core_tail3": {"verdict": "all_integers", "oracle_agrees": True},
}
FLAT_COUNT = {"k": -2, "count_lo": 0, "count_hi": 0, "verdict": "all_integers"}


def _drift(speed, speed_se, slope, slope_se, **extra):
    """A walk-drift entry whose checks all pass but whose ok is forced off."""
    return {"regime": "biased", "speed": speed, "height_slope": slope,
            "ok": False, **extra,
            "report": {"speed": {"mean": speed, "stderr": speed_se},
                       "height_slope": {"mean": slope, "stderr": slope_se},
                       "checks": {"speed_positive": True,
                                  "height_slope_matches_speed": True,
                                  "probes_within_tolerance": True}}}


FAILING_PAYLOADS = {
    "lemma41": {
        "suite": "lemma41", "ok": False, "pairs_checked": 1,
        "witness": {"z": "0;|0;", "y": "0;|0;", "decomposition": 1,
                    "direct": 0}},
    "pointwise-rays": {
        "suite": "pointwise-limits", "ok": False,
        "rays": {
            "regular3": {"ok": False, "witness": {
                "ray": "4;0(0.1.1)", "y": "0;", "n": 12, "got": 0, "want": 1}},
            "regular4": {"ok": False, "witness": {
                "ray": "4;0.2(0.1)", "y": "0;", "n": 13, "got": 0, "want": 1}}},
        "bounded_height": ALL_OK, "cocycle_gap": ALL_OK},
    "pointwise-bounded-height": {
        "suite": "pointwise-limits", "ok": False, "rays": RAYS_OK,
        "bounded_height": {
            "regular3": {"ok": False, "witness": NO_GROWTH},
            "regular4": {"ok": False, "witness": NO_GROWTH}},
        # the Busemann cocycle of gamma reads the patched meet depth too
        "cocycle_gap": {
            "regular3": {"ok": False, "witness": {
                "direction": "down", "x": "0;1.0.0.0", "y": "1;0.1.0", "n": 14,
                "gap": 2, "want": 0}},
            "regular4": {"ok": False, "witness": {
                "direction": "down", "x": "0;2.0.1.2", "y": "1;1.0", "n": 14,
                "gap": 3, "want": 1}}}},
    "pointwise-cocycle-gap": {
        "suite": "pointwise-limits", "ok": False, "rays": RAYS_OK,
        "bounded_height": ALL_OK,
        "cocycle_gap": {
            "regular3": {"ok": False, "witness": {
                "direction": "up", "x": "0;1.0.0.0", "y": "1;0.1.0", "n": 14,
                "gap": 1, "want": 2}},
            "regular4": {"ok": False, "witness": {
                "direction": "up", "x": "0;0", "y": "0;1.0", "n": 12,
                "gap": 0, "want": -1}}}},
    "pointwise-cocycle-gap-down": {
        "suite": "pointwise-limits", "ok": False, "rays": RAYS_OK,
        "bounded_height": ALL_OK,
        "cocycle_gap": {
            "regular3": {"ok": False, "witness": {
                "direction": "down", "x": "0;0", "y": "0;1", "n": 11,
                "gap": -2, "want": 0}},
            "regular4": {"ok": False, "witness": {
                "direction": "down", "x": "0;0", "y": "0;1.0", "n": 12,
                "gap": -3, "want": -1}}}},
    "boundary-base-value": {
        "suite": "boundary-functions", "ok": False, "catalog_size": 43,
        "witness": {"point": "Z:-2", "base_value": 1}},
    "boundary-lipschitz": {
        "suite": "boundary-functions", "ok": False, "catalog_size": 43,
        "witness": {"point": "Z:-2", "v": "0;|0;", "w": "0;0|1;", "gap": 2,
                    "dist": 1}},
    "boundary-separation": {
        "suite": "boundary-functions", "ok": False, "catalog_size": 43,
        "witness": {"p": "Z:-2", "q": "Z:-1"}},
    "fset-counting-oracle": {
        "suite": "fset", "ok": False, **FSET_COUNTS_OK,
        "regular3": {"verdict": "all_integers", "oracle_agrees": False,
                     "witness": FLAT_COUNT},
        "core_tail3": {"verdict": "all_integers", "oracle_agrees": False,
                       "witness": FLAT_COUNT},
        "dl3line_levels_not_realizable": True, "dl33_level_witnesses": True},
    "fset-dl33-not-realizable": {
        "suite": "fset", "ok": False, **FSET_COUNTS_OK,
        "dl3line_levels_not_realizable": True, "dl33_level_witnesses": False,
        "witness": {"k": -1, "reason": "not realizable"}},
    "fset-dl3line-witness-first": {
        "suite": "fset", "ok": False, **FSET_COUNTS_OK,
        "dl3line_levels_not_realizable": False, "dl33_level_witnesses": False,
        "witness": {"k": -1, "reason": "realizable on dl3line"}},
    "fset-dl33-level-limit": {
        "suite": "fset", "ok": False, **FSET_COUNTS_OK,
        "dl3line_levels_not_realizable": True, "dl33_level_witnesses": False,
        "witness": {"k": -1, "violations": [
            {"vertex": "0;0|1;", "value": -1, "expected": 1},
            {"vertex": "0;1|1;", "value": -1, "expected": 1},
            {"vertex": "1;|0;0", "value": 1, "expected": -1},
            {"vertex": "1;|0;1", "value": 1, "expected": -1}]}},
    "walk-drift": {
        "suite": "walk-drift", "ok": False,
        "p1.0": _drift(1.0, 0.0, 1.0, 0.0, exact=True),
        "p0.8": _drift(0.6202605418533562, 0.015155634784377299,
                       0.6203631219080321, 0.015183965734863938),
        "p0.2": _drift(0.613346210675552, 0.04609547338888656,
                       -0.6134936321163866, 0.04581111104464398),
        "p0.5": _drift(0.05852353634389563, 0.013155802281550786,
                       -0.03401832897641281, 0.042307165888004206,
                       zero_speed_flagged=False)},
}


@pytest.mark.parametrize("case", FAILURES)
def test_failure_payload_names_first_witness(monkeypatch, case):
    suite, kwargs, target, patched = FAILURES[case]
    owner, name = target if isinstance(target, tuple) else (verify, target)
    monkeypatch.setattr(owner, name, patched)
    payload = suite(**kwargs).payload()
    del payload["seconds"]
    assert payload == FAILING_PAYLOADS[case]


def test_oracle_order_check_survives_optimize():
    # the 2R graph must list the R ball first; with B(R) reordered the
    # suite raises, also under python -O, which strips assert statements
    code = (
        "from horoprod import verify\n"
        "from horoprod.product import HoroProduct\n"
        "ball = HoroProduct.ball\n"
        "HoroProduct.ball = lambda self, r: ball(self, r)[::-1]\n"
        "try:\n"
        "    verify.metric_oracle_suite(2)\n"
        "except AssertionError as exc:\n"
        "    print(exc)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout == "the 2R ball must list the R ball first\n", proc.stderr
