"""Golden CLI payloads: the sha256 of stdout and the exit code of a fixed
set of invocations.

A refactor must leave every digest unchanged.  A change that alters a
payload on purpose records the new digest here and says why.
"""

import hashlib
import json

import pytest

from horoprod.cli import main

DL33 = {"tree1": {"family": "regular", "degree": 3, "min_degree": 3},
        "tree2": {"family": "regular", "degree": 3, "min_degree": 3}}
MIXED = {"tree1": {"family": "ray_periodic", "ray_degrees": [3, 4],
                   "off_ray_degrees": [3]},
         "tree2": {"family": "explicit_core",
                   "core": {"0;": 3, "0;0": 3, "0;0.0": 3, "0;0.1": 3,
                            "0;1": 3, "0;1.0": 3, "0;1.1": 3, "1;": 3,
                            "1;0": 3, "2;": 3},
                   "radius": 2, "tail_degree": 4}}
PROBES = [{"tree": 1, "ray": "gamma"}, {"tree": 2, "ray": "gamma"},
          {"tree": 1, "ray": "0;(1)"}, {"tree": 2, "ray": "0;1(0)"}]

FILES = {
    "dl33": DL33,
    "mixed": MIXED,
    "line3": {"family": "line", "min_degree": 3},
    "bad_product": {"tree1": {"family": "ray_periodic", "ray_degrees": [3],
                              "off_ray_degrees": [1]},
                    "tree2": DL33["tree2"]},
    "fam_const": {"spec": DL33, "family": {"kind": "eventually_constant",
                                           "vertex": "0;0|1;"}},
    "fam_radial": {"spec": DL33, "family": {"kind": "radial_ray", "tree": 2,
                                            "ray": "gamma",
                                            "pairing": "0;1(0)"}},
    "fam_horo": {"spec": MIXED, "family": {"kind": "horocyclic", "level": -1}},
    "fam_fixed1": {"spec": DL33, "family": {"kind": "fixed_first",
                                            "vertex": "1;0"}},
    "fam_fixed2": {"spec": DL33, "family": {"kind": "fixed_second",
                                            "vertex": "0;1"}},
    "fam_alt": {"spec": DL33, "family": {"kind": "alternating",
                                         "levels": [1, 1]}},
    "walk_dl33": {"spec": DL33, "p_up": "4/5", "steps": 2000, "seed": 3,
                  "trajectories": 2, "probes": PROBES, "record_stride": 7},
    "walk_mixed": {"spec": MIXED, "p_up": "3/5", "steps": 2000, "seed": 4,
                   "trajectories": 2, "probes": PROBES},
}

# (argv with {file} placeholders, exit code, sha256 of stdout)
GOLDEN = [
    (["validate", "--spec", "{dl33}"], 0,
     "44aab3f0ef97e8e95ea7c30095c3020226809beb7a1c98c23853cbb767283b88"),
    (["validate", "--spec", "{mixed}"], 0,
     "44aab3f0ef97e8e95ea7c30095c3020226809beb7a1c98c23853cbb767283b88"),
    (["validate", "--spec", "{line3}"], 1,
     "c9454ea6ac60cc771b61a0a434adc4d80c542f19e44d4578bb1900ae49c904b3"),
    (["validate", "--spec", "{bad_product}"], 1,
     "00f30220b70085c6411c8a9b4b7b916381619bf284edaaff7bed9cb94dbfed76"),
    (["ball", "--spec", "{dl33}", "--radius", "3"], 0,
     "38536330e4226501dc33353648a2c897823b305282226902abed06cc44d2fb0f"),
    (["ball", "--spec", "{mixed}", "--radius", "3"], 0,
     "742f2a11ad9df6bc4585c8eb95f4db8bc01f03ba4207e8cd1791abdbf5b02bb0"),
    (["dist", "--spec", "{dl33}", "0;0.1|2;", "1;|0;1", "--oracle"], 0,
     "57ad94905ebdf05909bcf12a8b0060a02b45e28b12e8c98507c661d6a5f430b7"),
    (["dist", "--spec", "{mixed}", "0;1.1|2;", "3;|1;0.1.0.1", "--oracle"], 0,
     "9250bc839bf61ff1b336373b1bdf9043b15099edf24e04a5cd6a1aa2bad12d23"),
    (["busemann", "--spec", "{dl33}", "C1:0;1(0)", "0;0.1|2;"], 0,
     "1922a93772dba64aba273aa9ebc29f3f72df3aa54c3f755fcb03f55543abf351"),
    (["busemann", "--spec", "{dl33}", "C2:gamma", "1;|0;1"], 0,
     "74247f3be945c5995be3feadf2de9df6d6c8eca52c6c0d2e45c4c82c51fb67a1"),
    (["busemann", "--spec", "{dl33}", "T1:0;1", "0;0.1|2;"], 0,
     "c9ef5edf1e7e56247ae2908934bb099c7c4e17e40a625eb4bd6002d898b90e08"),
    (["busemann", "--spec", "{dl33}", "T2:1;0.1", "2;|0;1.1"], 0,
     "128502c48661a949d3c7f851beb7af6c7a8e0aa1e104e378d23940b18836599a"),
    (["busemann", "--spec", "{dl33}", "Z:-2", "1;|0;1"], 0,
     "540065c943c3a8ad153eb2dff8c7ec31411558e53ffdbbf6508088ac1490addf"),
    (["busemann", "--spec", "{dl33}", "0;1|1;", "0;0.1|2;"], 0,
     "3d8a19845ef4933b85756fcbf63e875fd61d47870e33faf98682e2d8578eaad9"),
    (["classify", "--family", "{fam_const}"], 0,
     "76a5f648de740704471cedd3cf143bbea87997576d24e71bd3cd8ece3e2569aa"),
    (["classify", "--family", "{fam_radial}"], 0,
     "ba566318dacc1482cd27244643b4db77bbe7ec826ea20f81a86a4875414510ad"),
    (["classify", "--family", "{fam_horo}", "--radius", "3"], 0,
     "d7c3f8991a0c35f0fed8d4648047f384562ce108dd5ec4fc19ffade4bad9b2c5"),
    (["classify", "--family", "{fam_fixed1}", "--radius", "3"], 0,
     "b1f3b9b0698bc996736e1db95bede830056bf7e52cec597651bc8e6d2edba082"),
    (["classify", "--family", "{fam_fixed2}", "--window", "30:60"], 0,
     "8c8395e73d2b11884b044f4f2d32fea4665eb4573aeb942efe3314bf73520248"),
    (["classify", "--family", "{fam_alt}", "--radius", "3"], 0,
     "610a2dd77e61f563a137849d60e70dfcdf9e6c7840a8d6842d27d8b8f2e75d79"),
    (["walk", "--config", "{walk_dl33}"], 0,
     "636b3ee2c539ac959daddbcb94bb7fad1a91a5ea007cf0d7071359672c10642c"),
    (["walk", "--config", "{walk_mixed}"], 0,
     "8a17037a26fb8182322ffc7ceedf075fae227b9f8888e9b60cc8ba9da5de9446"),
]


def _invoke(capsys, tmp_path, argv):
    paths = {}
    for name, data in FILES.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        paths[name] = str(path)
    code = main([arg.format(**paths) for arg in argv])
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("argv,code,digest", GOLDEN,
                         ids=[f"{g[0][0]}-{i}" for i, g in enumerate(GOLDEN)])
def test_golden_payload(capsys, tmp_path, argv, code, digest):
    assert _invoke(capsys, tmp_path, argv) == (code, digest)
