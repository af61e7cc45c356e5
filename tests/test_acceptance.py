"""Acceptance criteria, one test per criterion, exact tolerances.

Each test prints a single PASS/FAIL line (run with -s to see them live)
and asserts both the verdict and, where stated, the runtime budget.
"""

from horoprod import verify


def _report(number, name, result, budget=None):
    verdict = "PASS" if result.ok else "FAIL"
    line = f"ACCEPTANCE {number} ({name}): {verdict} [{result.seconds:.1f}s]"
    print(line, flush=True)
    assert result.ok, result.details
    if budget is not None:
        assert result.seconds < budget, (
            f"{name} took {result.seconds:.1f}s, budget {budget}s")


def test_criterion_1_metric_oracle():
    # DL(3,3) all pairs to radius 6, DL(3,4) to radius 5, exact, < 60 s
    result = verify.metric_oracle_suite(radius=6, radius34=5)
    _report(1, "metric-oracle", result, budget=60)
    assert result.details["dl33"]["pairs_checked"] == 452 ** 2
    assert result.details["dl34"]["pairs_checked"] == 648 ** 2


def test_criterion_2_busemann_identity():
    # anchored decomposition equals the distance difference on ball(5)
    result = verify.busemann_identity_suite(radius=5)
    _report(2, "lemma41", result)
    assert result.details["pairs_checked"] == 208 ** 2


def test_criterion_3_tree_compactification():
    # 50 eventually periodic rays per tree, window 100, radius 5, exact
    result = verify.tree_compactification_suite(
        rays_per_tree=50, radius=5, window=100, seed=4213)
    _report(3, "pointwise-limits", result)
    for tree in ("regular3", "regular4"):
        assert result.details["rays"][tree]["count"] == 50


def test_criterion_4_boundary_functions():
    # >= 40 descriptors: vanish at base, 1-Lipschitz on ball(4),
    # pairwise separated on ball(3)
    result = verify.boundary_function_suite(
        lipschitz_radius=4, separation_radius=3)
    _report(4, "boundary-functions", result)
    assert result.details["catalog_size"] >= 40


def test_criterion_5_isomorphism():
    # >= 200 randomized structured families over both products,
    # window >= 50 past the stabilization bound, radius 4, < 5 min
    result = verify.isomorphism_suite(
        count_per_product=120, radius=4, seed=20260811)
    _report(5, "isomorphism", result, budget=300)
    assert result.details["total_families"] >= 200
    for label in ("dl33", "dl34"):
        assert result.details[label]["disagreements"] == []


def test_criterion_6_level_sets():
    # dichotomy vs counting oracle to radius 12 on four trees; level
    # points unrealizable over the path, realizable with converging
    # witnesses for |k| <= 5 over the 3-regular pair
    result = verify.fset_suite(radius=12, witness_levels=5)
    _report(6, "fset", result)
    assert result.details["dl3line_levels_not_realizable"]
    assert result.details["dl33_level_witnesses"]


def test_criterion_7_closure_relations():
    # level points drain into the two height functions; pinned-vertex
    # sequences reach both ray and level limits, exact stabilization
    result = verify.closure_suite(radius=4, level_span=10)
    _report(7, "closure", result)


def test_criterion_8_walk_drift():
    # 100 trajectories x 1e5 steps at up-bias 1.0, 0.8, 0.2, 0.5;
    # exact at bias 1, drift identities within 0.05, zero speed flagged,
    # < 3 min
    result = verify.walk_drift_suite(
        steps=100_000, trajectories=100, seed=90125, tolerance=0.05)
    _report(8, "walk-drift", result, budget=180)
    assert result.details["p1.0"]["exact"]
    assert result.details["p0.5"]["zero_speed_flagged"]
    assert abs(result.details["p0.5"]["speed"]) <= 0.05
