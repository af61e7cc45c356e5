"""Failing suites carry a witness that names what failed."""

import pytest

from horoprod import verify
from horoprod.boundary import boundary_limit_check, level_point, ray_point
from horoprod.limits import Custom
from horoprod.product import BASE, ProductVertex
from horoprod.rays import GAMMA, BranchingRay
from horoprod.tree import VertexAddress

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
