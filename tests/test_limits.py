"""Sequence families: term generation, classification, empirical limits."""

import hashlib
import itertools
import json
import math

import pytest

from horoprod import limits
from horoprod.boundary import (
    evaluate,
    level_point,
    ray_point,
    vertex_point,
)
from horoprod.limits import (
    Alternating,
    Custom,
    EmpiricalReport,
    EventuallyConstant,
    FamilyExhausted,
    FixedFirst,
    FixedSecond,
    Horocyclic,
    RadialRay,
    agreement,
    classify,
    empirical_pointwise_check,
    family_from_json,
    isomorphism_check,
    random_families,
    realizability,
    stabilization_bound,
    terms,
)
from horoprod.product import (BASE, HoroProduct, ProductVertex, product_busemann,
                              product_height)
from horoprod.rays import BranchingRay, GAMMA, parse_ray
from horoprod.tree import (AddressError, CustomRule, TreeSpec,
                           UndecidableFamilyError, VertexAddress, height)

R3 = TreeSpec.regular(3)
R4 = TreeSpec.regular(4)
LINE = TreeSpec.line()
DL33 = HoroProduct(R3, R3)
DL34 = HoroProduct(R3, R4)
DL3LINE = HoroProduct(R3, LINE)


def va(text):
    return VertexAddress.parse(text)


def pv(text):
    return ProductVertex.parse(text)


# -- term generation ------------------------------------------------------------

def test_horocyclic_terms():
    seq = terms(DL33, Horocyclic(2), 40)
    assert all(product_height(x) == 2 for x in seq)
    assert len(set(seq)) == 40
    branches = [x.x1.branch for x in seq]
    assert branches == sorted(branches)


def test_horocyclic_exhausts_on_line():
    with pytest.raises(FamilyExhausted):
        terms(DL3LINE, Horocyclic(1), 10)


def test_radial_terms_march():
    ray = BranchingRay(0, (), (0,))
    seq = terms(DL33, RadialRay(1, ray), 10)
    assert [product_height(x) for x in seq] == list(range(10))
    assert all(height(x.x1) + height(x.x2) == 0 for x in seq)
    gamma_seq = terms(DL33, RadialRay(1, GAMMA), 6)
    assert [product_height(x) for x in gamma_seq] == [0, -1, -2, -3, -4, -5]


def test_radial_pairing_ray_is_used():
    pairing = BranchingRay(0, (), (1,))
    seq = terms(DL33, RadialRay(1, GAMMA, pairing), 8)
    # second coordinate follows the pairing end once heights climb
    assert seq[5].x2 == va("0;1.1.1.1.1")


def test_fixed_terms():
    fam = FixedSecond(va("1;"))
    seq = terms(DL33, fam, 12)
    assert all(x.x2 == va("1;") for x in seq)
    assert all(product_height(x) == 1 for x in seq)
    assert len(set(seq)) == 12


# -- classification ---------------------------------------------------------------

def test_classify_constant():
    rep = classify(DL33, EventuallyConstant(BASE))
    assert rep.status == "interior"
    assert rep.anchor == BASE
    assert rep.payload()["busemann"] == "I:0;|0;"


def test_classify_horocyclic():
    rep = classify(DL33, Horocyclic(2))
    assert rep.status == "boundary"
    assert rep.anchor == level_point(2)
    assert rep.eta == 2


def test_classify_radial():
    ray = BranchingRay(0, (), (0,))
    rep = classify(DL33, RadialRay(1, ray))
    assert rep.anchor == ray_point(1, ray)
    assert rep.eta == math.inf
    rep = classify(DL33, RadialRay(2, ray))
    assert rep.anchor == ray_point(2, ray)
    assert rep.eta == -math.inf
    rep = classify(DL33, RadialRay(1, GAMMA))
    assert rep.anchor == ray_point(2, BranchingRay(0, (), (0,)))
    assert rep.eta == -math.inf
    pairing = BranchingRay(1, (), (0,))
    rep = classify(DL33, RadialRay(1, GAMMA, pairing))
    assert rep.anchor == ray_point(2, pairing)


RADIAL_ENDS = (GAMMA,) + tuple(map(parse_ray, ("0;(1)", "2;1(0)", "3;(0.1)")))
# R3's ray vertex at branch 2 has one child off the ray, label 0
MISSING_IN_R3 = parse_ray("2;1(0)")


def _radial_grid():
    """Every marching end against every pairing, gamma and none
    included, on both sides of two products, and whether the family
    names 2;1(0) on an R3 side."""
    for product in (DL33, DL34):
        for tree in (1, 2):
            for ray in RADIAL_ENDS:
                for pairing in (None,) + RADIAL_ENDS:
                    family = RadialRay(tree, ray, pairing)
                    missing = any(end == MISSING_IN_R3 and product.tree(side) == R3
                                  for side, end in ((tree, ray),
                                                    (3 - tree, pairing)))
                    yield product, family, missing


def test_radial_ray_grid_is_pinned():
    rows = []
    for product, family, missing in _radial_grid():
        if not missing:
            rows.append([family.describe(),
                         [str(x) for x in terms(product, family, 16)],
                         stabilization_bound(product, family, 4),
                         classify(product, family).payload()])
    assert len(rows) == 55
    text = json.dumps(rows, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "aafe6c6430698d9ed2d34a55b94b8fda148ea027735684abef7c211e1ee1846a"


def test_radial_ray_grid_refuses_missing_ends():
    report = classify(DL33, Horocyclic(0))
    calls = (lambda p, f: terms(p, f, 16),
             lambda p, f: stabilization_bound(p, f, 4),
             classify,
             lambda p, f: empirical_pointwise_check(p, f, (0, 4), 2),
             lambda p, f: agreement(p, f, report, 2))
    refused = 0
    for product, family, missing in _radial_grid():
        if missing:
            refused += 1
            for call in calls:
                with pytest.raises(AddressError, match="2;1"):
                    call(product, family)
    assert refused == 25


def test_classify_pinned():
    rep = classify(DL33, FixedSecond(va("1;")))
    assert rep.anchor == vertex_point(2, va("1;"))
    assert rep.eta == 1
    rep = classify(DL33, FixedFirst(va("0;0")))
    assert rep.anchor == vertex_point(1, va("0;0"))
    assert rep.eta == 1


def test_busemann_limit_wrapper():
    assert classify(DL33, Horocyclic(-2)).anchor == level_point(-2)
    assert classify(DL33, FixedSecond(va("1;"))).anchor == \
        vertex_point(2, va("1;"))
    ray = BranchingRay(1, (), (0,))
    assert classify(DL33, RadialRay(2, ray)).anchor == ray_point(2, ray)
    assert classify(DL33, Alternating((0, 1))).anchor is None


def test_classify_alternating():
    assert classify(DL33, Alternating((0, 1))).status == "not_convergent"
    rep = classify(DL33, Alternating((2, 2)))
    assert rep.anchor == level_point(2)


def test_classify_respects_finite_levels():
    rep = classify(DL3LINE, Horocyclic(0))
    assert rep.status == "not_convergent"
    assert rep.f_flags["per_divergent_component"] is False
    rep = classify(DL3LINE, FixedFirst(va("0;0")))
    assert rep.status == "not_convergent"


def test_interpretation_split_on_pinned_families():
    # a pinned coordinate imposes no level condition: the per-component
    # reading accepts what the literal simultaneous reading rejects,
    # and the empirical route confirms convergence
    fam = FixedSecond(va("1;"))
    rep = classify(DL3LINE, fam)
    assert rep.status == "boundary"
    assert rep.f_flags["per_divergent_component"] is True
    assert rep.f_flags["literal"] is False
    n0 = stabilization_bound(DL3LINE, fam, 3)
    emp = empirical_pointwise_check(DL3LINE, fam, (n0, n0 + 25), 3, rep.anchor)
    assert emp.convergent and emp.matched_target


def test_classify_custom_window_heuristics():
    wrapped = Custom(lambda n: terms(DL33, Horocyclic(1), n + 3, n + 2)[0],
                     label="wrapped")
    rep = classify(DL33, wrapped)
    assert rep.heuristic
    assert rep.anchor == level_point(1)

    osc = Custom(lambda n: terms(DL33, Horocyclic(n % 2), n + 1, n)[0],
                 label="osc")
    assert classify(DL33, osc).status == "not_convergent"


def test_classify_custom_window_verdicts():
    # the second coordinate runs out along the distinguished ray at
    # height 0 while the first stays put: the first tree's vertex point
    fixed = Custom(lambda n: ProductVertex(va("0;"), VertexAddress(n, (0,) * n)))
    rep = classify(DL33, fixed)
    assert (rep.status, str(rep.anchor), rep.heuristic) == \
        ("boundary", "T1:0;", True)
    # bounded height, but both coordinates hop between two vertices
    hop = Custom(lambda n: BASE if n % 2 == 0 else pv("1;0|1;0"))
    assert classify(DL33, hop).payload() == {
        **NO_LIMIT, "status": "not_convergent", "eta": 0,
        "f_flags": {"literal": True, "per_divergent_component": True},
        "notes": ["bounded height but components wander"]}
    # heights climb, but tree 1 leaves the origin along 0;(0) with its
    # branch index fixed, so the window cannot name the escaping end
    climb = Custom(lambda n: ProductVertex(VertexAddress(0, (0,) * n),
                                           VertexAddress(n, ())))
    assert classify(DL33, climb).payload() == {
        **NO_LIMIT, "status": "not_decided", "eta": "+inf",
        "notes": ["diverging heights, but the escaping end cannot be read"
                  " off a finite window"]}
    summary = isomorphism_check(DL33, [climb])
    assert (summary.total, summary.undecided, summary.agreed) == (1, 1, 0)
    assert summary.ok
    # heights alternate between 0 and 1
    osc = Custom(lambda n: BASE if n % 2 == 0 else pv("0;0|1;"))
    assert classify(DL33, osc).payload() == {
        **NO_LIMIT, "status": "not_convergent",
        "notes": ["heights neither stabilize nor diverge in window"]}
    # a constant generator settles at its vertex, heuristically
    const = Custom(lambda n: pv("0;0|1;"))
    assert classify(DL33, const).payload() == {
        **NO_LIMIT, "status": "interior", "busemann": "I:0;0|1;",
        "component1": "0;0", "component2": "1;", "eta": 1,
        "f_flags": {"literal": True, "per_divergent_component": True},
        "interior": "0;0|1;", "notes": []}


# the payload of a window verdict with no limit point, before its
# status, height, flags and notes
NO_LIMIT = {"busemann": None, "component1": None, "component2": None,
            "eta": None, "f_flags": None, "heuristic": True, "hm_point": None,
            "interior": None, "window": [0, 80]}


def test_diagonal_customs_reach_the_distinguished_ends():
    from horoprod.limits import _diagonal_custom

    fam = _diagonal_custom(DL33, toward_first=True)
    rep = classify(DL33, fam)
    assert rep.status == "boundary"
    assert rep.anchor == ray_point(1, GAMMA)
    assert rep.heuristic
    assert any("height function" in note for note in rep.notes)
    n0 = stabilization_bound(DL33, fam, 3)
    emp = empirical_pointwise_check(DL33, fam, (n0, n0 + 20), 3, rep.anchor)
    assert emp.convergent and emp.matched_target


@pytest.mark.parametrize("product,climbed_side", [
    (DL3LINE, "first"), (HoroProduct(LINE, R3), "second"),
    (HoroProduct(TreeSpec.ray_periodic((2, 3), (3,)), LINE), "first"),
], ids=["r3_line", "line_r3", "periodic_line"])
def test_drawn_families_name_only_their_trees_addresses(product, climbed_side):
    # the line's levels are finite, so its diagonal cannot climb it; the
    # periodic tree's even ray vertices have no labeled child, so its
    # diagonal climbs below the next odd one
    families = random_families(product, 120, 20260811)
    diagonals = {f.describe() for f in families if "diagonal" in f.describe()}
    assert diagonals == {f"custom[diagonal-to-gamma[{climbed_side}]]"}
    for family in families:
        try:
            for v in itertools.islice(family.stream(product), 20):
                assert (product.tree1.is_valid(v.x1)
                        and product.tree2.is_valid(v.x2)), family.describe()
        except FamilyExhausted:
            pass


# -- empirical checks ---------------------------------------------------------------

def test_empirical_constant():
    emp = empirical_pointwise_check(DL33, EventuallyConstant(BASE), (0, 10), 2,
                                    BASE)
    assert emp.convergent and emp.matched_target


def test_empirical_horocyclic():
    fam = Horocyclic(1)
    n0 = stabilization_bound(DL33, fam, 3)
    emp = empirical_pointwise_check(DL33, fam, (n0, n0 + 30), 3,
                                    level_point(1))
    assert emp.convergent and emp.matched_target
    assert emp.violations == ()


def test_empirical_flags_oscillation():
    fam = Alternating((0, 1))
    emp = empirical_pointwise_check(DL33, fam, (4, 40), 3)
    assert not emp.convergent
    assert any("index" in v for v in emp.violations)


def test_empirical_rejects_wrong_target():
    fam = Horocyclic(1)
    n0 = stabilization_bound(DL33, fam, 3)
    emp = empirical_pointwise_check(DL33, fam, (n0, n0 + 20), 3,
                                    level_point(0))
    assert emp.convergent and emp.matched_target is False


def _reference_check(product, family, window, radius, target=None,
                     max_violations=8):
    """The empirical check as a plain double loop of ``product_busemann``
    calls, vertex-major, against which the row-based check is compared."""
    n0, n1 = window
    try:
        seq = terms(product, family, n1, n0)
    except FamilyExhausted as exc:
        return EmpiricalReport(False, window, radius, 0, None,
                               ({"reason": str(exc)},))
    ball = product.ball(radius)
    violations = []
    matched = None if target is None else True
    for y in ball:
        first = product_busemann(seq[0], y)
        for i, x in enumerate(seq):
            val = product_busemann(x, y)
            if val != first:
                violations.append({"vertex": str(y), "index": n0 + i,
                                   "value": val, "previous": first})
                break
        else:
            if target is not None and first != evaluate(target, y):
                matched = False
                violations.append({"vertex": str(y), "value": first,
                                   "expected": evaluate(target, y)})
        if len(violations) >= max_violations:
            break
    convergent = not any("previous" in v or "reason" in v for v in violations)
    return EmpiricalReport(convergent, window, radius, len(ball), matched,
                           tuple(violations))


@pytest.mark.parametrize("product", [DL33, DL34, DL3LINE],
                         ids=["dl33", "dl34", "r3_line"])
def test_empirical_check_matches_reference_loop(product, monkeypatch):
    radius = 3
    wrong = level_point(7)
    families = random_families(product, 12, seed=5) + [Alternating((0, 1))]
    violated = 0
    for family in families:
        n0 = stabilization_bound(product, family, radius)
        for target in (classify(product, family).anchor, None, wrong):
            for window in ((n0, n0 + 55), (0, 30), (3, 9)):
                for cap in (1, 8):
                    monkeypatch.setattr(limits, "MAX_VIOLATIONS", cap)
                    args = (product, family, window, radius, target)
                    emp = empirical_pointwise_check(*args)
                    assert emp == _reference_check(*args, cap), (family, window)
                    violated += any("index" in v for v in emp.violations)
    assert violated > 0


# -- the isomorphism property ---------------------------------------------------------

def test_canonical_families_agree():
    ray = BranchingRay(0, (), (1,))
    fams = [
        EventuallyConstant(pv("0;0|1;")),
        RadialRay(1, ray),
        RadialRay(2, ray),
        Horocyclic(-1),
        FixedFirst(va("1;")),
        FixedSecond(va("0;1")),
        Alternating((0, 1)),
    ]
    summary = isomorphism_check(DL33, fams, radius=3)
    assert summary.ok
    assert summary.total == summary.agreed == len(fams)
    assert classify(DL33, fams[4]).status == "boundary"
    assert classify(DL33, fams[6]).status == "not_convergent"


def test_randomized_families_agree_quick():
    fams = random_families(DL34, 30, seed=99)
    summary = isomorphism_check(DL34, fams, radius=3)
    assert summary.ok, summary.payload()


# -- realizability ---------------------------------------------------------------------

def test_realizability_levels():
    assert realizability(DL33, level_point(5))[0]
    for k in range(-4, 5):
        ok, reason = realizability(DL3LINE, level_point(k))
        assert not ok and "finite" in reason


def test_realizability_rays_and_vertices():
    delta = BranchingRay(0, (), (0,))
    assert realizability(DL3LINE, ray_point(2, delta))[0]
    assert not realizability(DL3LINE, ray_point(2, GAMMA))[0]
    assert realizability(DL3LINE, ray_point(1, GAMMA))[0]
    assert realizability(DL3LINE, vertex_point(2, va("3;")))[0]
    assert not realizability(DL3LINE, vertex_point(1, va("0;0")))[0]


def test_realizability_messages_for_both_factor_orders():
    first = "the first tree has finite horocycle levels"
    second = "the second tree has finite horocycle levels"
    climb = ("heights cannot climb along the {} tree's distinguished ray: "
             "its levels are finite")
    delta = BranchingRay(0, (), (0,))
    points = [level_point(2), vertex_point(1, va("0;0")), vertex_point(2, va("1;")),
              ray_point(1, GAMMA), ray_point(2, GAMMA), ray_point(1, delta),
              ray_point(2, delta)]
    expected = {
        DL3LINE: [second, second, None, None, climb.format("second"),
                  None, None],
        HoroProduct(LINE, R3): [first, None, first, climb.format("first"),
                                None, None, None],
        HoroProduct(LINE, LINE): [first, second, first, climb.format("first"),
                                  climb.format("second"), None, None],
    }
    for product, messages in expected.items():
        for p, message in zip(points, messages):
            assert realizability(product, p) == (message is None, message)


def test_realizability_decides_only_the_needed_level_sets():
    # a custom rule's level sets are undecidable, but a non-distinguished
    # end and every point that needs only the other tree ask nothing of them
    custom = HoroProduct(TreeSpec(CustomRule(lambda branch, suffix: 3), 2), R3)
    assert realizability(custom, ray_point(2, BranchingRay(0, (), (1,)))) \
        == (True, None)
    assert realizability(custom, ray_point(2, GAMMA)) == (True, None)
    assert realizability(custom, vertex_point(1, va("0;0"))) == (True, None)
    for p in (level_point(1), ray_point(1, GAMMA), vertex_point(2, va("1;"))):
        with pytest.raises(UndecidableFamilyError):
            realizability(custom, p)


def test_realizability_monotone_under_tree_growth():
    # replacing the path by a bushier tree never kills realizability
    points = [level_point(0), level_point(2), vertex_point(1, va("0;0")),
              vertex_point(2, va("1;")), ray_point(1, GAMMA), ray_point(2, GAMMA),
              ray_point(2, BranchingRay(0, (), (0,)))]
    for p in points:
        before, _ = realizability(DL3LINE, p)
        after, _ = realizability(DL33, p)
        assert after or not before


# -- serialization -----------------------------------------------------------------------

@pytest.mark.parametrize("family", [
    EventuallyConstant(ProductVertex.parse("0;0|1;")),
    RadialRay(2, BranchingRay(1, (), (0,)), GAMMA),
    RadialRay(1, GAMMA),
    Horocyclic(-3),
    FixedFirst(VertexAddress.parse("1;0")),
    FixedSecond(VertexAddress.parse("2;")),
    Alternating((0, 1)),
    EventuallyConstant(ProductVertex.parse("2;|0;1.0")),
    RadialRay(1, BranchingRay(0, (1,), (0, 1)), BranchingRay(2, (), (1,))),
    Horocyclic(0),
    FixedFirst(VertexAddress.parse("0;")),
    FixedSecond(VertexAddress.parse("0;1.0.1")),
    Alternating((2, -1, 2)),
])
def test_family_json_round_trip(family):
    assert family_from_json(family.to_json()) == family


def test_custom_not_serializable():
    with pytest.raises(ValueError):
        Custom(lambda n: BASE).to_json()


@pytest.mark.parametrize("family,text", [
    (EventuallyConstant(ProductVertex.parse("0;0|1;")), "const[0;0|1;]"),
    (RadialRay(2, BranchingRay(1, (), (0,)), GAMMA), "radial[t2;1;(0);gamma]"),
    (Horocyclic(-3), "horocyclic[-3]"),
    (FixedFirst(VertexAddress.parse("1;0")), "fixed1[1;0]"),
    (FixedSecond(VertexAddress.parse("2;")), "fixed2[2;]"),
    (Alternating((2, -1, 2)), "alternating[2,-1,2]"),
])
def test_family_describe(family, text):
    assert family.describe() == text


# -- input checks ------------------------------------------------------------------------

# test_cli.py's malformed-input cases reach the other family checks
@pytest.mark.parametrize("call,message", [
    (lambda: terms(DL33, Horocyclic(0), 3, -1), "start must be >= 0"),
    (lambda: empirical_pointwise_check(DL33, Horocyclic(0), (-1, 3), 1),
     "window must satisfy 0 <= n0 < n1"),
], ids=["terms-negative-start", "window-negative"])
def test_family_input_checks(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("make,message", [
    (lambda: RadialRay(True, parse_ray("0;(1)")), "tree must be 1 or 2"),
    (lambda: Horocyclic(2.0), "level must be an integer, got 2.0"),
    (lambda: Alternating((1, True)), "levels must be integers, got (1, True)"),
], ids=["radial-bool-tree", "horocyclic-float-level",
        "alternating-bool-level"])
def test_families_refuse_non_integer_fields(make, message):
    # as family_from_json refuses these, and WalkConfig a bool probe tree
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message
