"""Golden digests of the boundary and limit layers, per product.

For four products the sha256 of four JSON lists is pinned: the
``classify`` payloads of a seeded ``random_families`` draw, ``evaluate``
over ``standard_catalog`` x ``ball(3)``, and ``realizability`` and
``hm_coordinates`` over that catalog.  The two products with a line
factor reach the pinned-vertex points and the finite-level flags.

A refactor must leave every digest unchanged.  A change that alters an
output on purpose records the new digest here and says why.
"""

import hashlib
import json

import pytest

from horoprod.boundary import evaluate, hm_coordinates, standard_catalog
from horoprod.limits import classify, random_families, realizability
from horoprod.product import HoroProduct
from horoprod.tree import TreeSpec

R3 = TreeSpec.regular(3)
PRODUCTS = {
    "dl33": HoroProduct(R3, R3),
    "dl34": HoroProduct(R3, TreeSpec.regular(4)),
    "r3_line": HoroProduct(R3, TreeSpec.line()),
    "line_r3": HoroProduct(TreeSpec.line(), R3),
}
SEED = 20260811


def _outputs(product):
    catalog = standard_catalog(product)
    ball = product.ball(3)
    return {
        "classify": [classify(product, f).payload()
                     for f in random_families(product, 120, SEED)],
        "evaluate": [[evaluate(p, y) for y in ball] for p in catalog],
        "realizability": [list(realizability(product, p)) for p in catalog],
        "hm_coordinates": [[str(c) for c in hm_coordinates(p)]
                           for p in catalog],
    }


GOLDEN = {
    "dl33": {
        "classify": "82063f60c4e128a9325886d67e4dc31ddf02968f1b6d0eb656bc78aa4abdd626",
        "evaluate": "7b793664bd95eef84be2bbb5f3e97e1c63c64efb7be135e3e64e6602672bfbfc",
        "realizability": "7f13946da847ccff166c0186a4d34b22633dd006aa30e7ae849cb876253eef9d",
        "hm_coordinates": "a1edd0d5bc8b2705c27e9b99ef6eab5fed6fa27d0781db54ce337aa292039900",
    },
    "dl34": {
        "classify": "b4da45ed030444ca3524c8c65329826543ec39c8693259a6323e8524d31c7397",
        "evaluate": "9c2cb29f34da5c0108be89a42f2350b5da42478bb3df01dbc785c18fbf8dab2d",
        "realizability": "fb2c6b1d37e1ec403065a537889466b0c2f5d3d46e06f80e479b7fcf0726c44f",
        "hm_coordinates": "6b051a7df3cf05fa44fa68a478d30e1a574f1bd2f3f21a4b32776278fd9b0e1d",
    },
    # on the two line products the diagonal families climb the tree
    # whose levels are infinite (R3): the 6 (r3_line) and 8 (line_r3)
    # diagonals that climbed the line, through addresses it does not
    # have, now read C1:gamma and C2:gamma respectively
    "r3_line": {
        "classify": "dc9cd603ba243fbd5f15ab8f42f91d9b3cf2d2f9bcf7e11dc4d740ed29d503ef",
        "evaluate": "6482fff7f15ececcf023d1e96000d847073bd2bc59ac115f75c0147dc3ffb54b",
        "realizability": "a0be11d1e379c8bba0f86d8c0294c07b277f9db43fc362ab3da5b2eeac438642",
        "hm_coordinates": "65d101144e706359fab4e8bdf7e395e19c0af34f03f24882bb19434159ecb447",
    },
    "line_r3": {
        "classify": "0dc83435871892d83afb0fd28413391a4722b7020e9fdc2105062abf64dc92e2",
        "evaluate": "1027966f6431adfe130148425e178312e0c654d9e5f2055d03f045820ecd2606",
        "realizability": "06685e6aee9855b37334a8c88094889a03e781cc7da94bb29ba91b84737d2f99",
        "hm_coordinates": "feb2948894eeddae7b970a3c923f739ca51fdc5986a1ade085eab9f3a80a8f74",
    },
}


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_boundary_and_limit_outputs_pinned(name):
    outputs = _outputs(PRODUCTS[name])
    digests = {key: hashlib.sha256(json.dumps(value, sort_keys=True)
                                   .encode()).hexdigest()
               for key, value in outputs.items()}
    assert digests == GOLDEN[name]
