"""The CLI file contract under mutation: a valid spec, family or walk
file with one key dropped or one field replaced by a value of the wrong
kind gives exit code 0, 1 or 2, never a traceback, and exit 2 is one
line on stderr with nothing on stdout."""

import contextlib
import io
import json
import os
import tempfile
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from horoprod.cli import main
from horoprod.limits import (Alternating, EventuallyConstant, FixedFirst,
                             Horocyclic, RadialRay)
from horoprod.product import HoroProduct, ProductVertex
from horoprod.rays import GAMMA, parse_ray
from horoprod.tree import TreeSpec, VertexAddress
from horoprod.walk import WalkConfig

# every magnitude is small, so each command's work stays small whatever
# the mutation leaves valid: degrees <= 6, |level| <= 8, steps <= 500
R3 = TreeSpec.regular(3)
TREES = [R3, TreeSpec.line(), TreeSpec.regular(6),
         TreeSpec.ray_periodic((3, 4), (3,)),
         TreeSpec.explicit_core_of(R3, 1, 3)]
PRODUCTS = [{"tree1": a.to_json(), "tree2": b.to_json()}
            for a, b in zip(TREES, TREES[1:] + TREES[:1])]
FAMILIES = [Horocyclic(8).to_json(), Horocyclic(-2).to_json(),
            RadialRay(1, parse_ray("0;(0)"), GAMMA).to_json(),
            FixedFirst(VertexAddress(1, (0,))).to_json(),
            EventuallyConstant(ProductVertex.parse("0;0|1;")).to_json(),
            Alternating((1, -1)).to_json()]
WALKS = [WalkConfig(HoroProduct(R3, R3), Fraction(1, 2), 500, 7, 3,
                    ((1, parse_ray("0;(0)")),), 1, 1000).to_json(),
         {"spec": PRODUCTS[3], "p_up": "4/5", "steps": 200, "seed": 1,
          "trajectories": 2}]

# (the kind of file read, the arguments before its path, those after it)
COMMANDS = [
    ("spec", ["validate", "--spec"], []),
    ("spec", ["ball", "--spec"], ["--radius", "2"]),
    ("spec", ["dist", "--spec"], ["0;|0;", "0;0|1;"]),
    ("spec", ["busemann", "--spec"], ["Z:1", "0;0|1;"]),
    ("spec", ["busemann", "--spec"], ["C1:gamma", "1;|0;0"]),
    ("family", ["classify", "--family"], ["--radius", "2"]),
    ("walk", ["walk", "--config"], []),
]

WRONG = st.one_of(st.none(), st.booleans(), st.sampled_from([0.5, 2.0, -3.5]),
                  st.sampled_from(["", "x", "3", "0;"]),
                  st.sampled_from([[], [3], ["0;"]]),
                  st.sampled_from([{}, {"family": "regular"}]),
                  st.integers(-8, -1))


def _documents(kind):
    if kind == "spec":
        return st.sampled_from(PRODUCTS + [p["tree1"] for p in PRODUCTS])
    if kind == "family":
        return st.builds(lambda spec, family: {"spec": spec, "family": family},
                         st.sampled_from(PRODUCTS), st.sampled_from(FAMILIES))
    return st.sampled_from(WALKS)


@st.composite
def _mutated(draw, kind):
    """A valid document of the kind with one key dropped or one value,
    at any depth, replaced by a value of the wrong kind."""
    doc = json.loads(json.dumps(draw(_documents(kind))))
    holder = doc
    while True:
        keys = list(holder) if isinstance(holder, dict) else list(range(len(holder)))
        key = draw(st.sampled_from(keys))
        inner = holder[key]
        if isinstance(inner, (dict, list)) and inner and draw(st.booleans()):
            holder = inner
            continue
        if isinstance(holder, dict) and draw(st.booleans()):
            del holder[key]
        else:
            holder[key] = draw(WRONG)
        return doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=2000, derandomize=True)
@given(st.data())
def test_mutated_files_keep_the_exit_contract(data):
    kind, head, tail = data.draw(st.sampled_from(COMMANDS))
    doc = data.draw(_mutated(kind))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code, out, err = _run(head + [path] + tail)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.count("\n") == 1 and err.startswith("error: ")
