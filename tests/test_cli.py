"""Command-line contract: payloads, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from horoprod import cli, walk
from horoprod.cli import main
from test_scripts import ENV

DL33 = {"tree1": {"family": "regular", "degree": 3, "min_degree": 3},
        "tree2": {"family": "regular", "degree": 3, "min_degree": 3}}


@pytest.fixture
def dl33_file(tmp_path):
    path = tmp_path / "dl33.json"
    path.write_text(json.dumps(DL33))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_ok(capsys, dl33_file):
    code, out = run(capsys, "validate", "--spec", dl33_file)
    assert code == 0
    assert json.loads(out) == {"tree1": {"ok": True}, "tree2": {"ok": True}}


def test_validate_violation(capsys, tmp_path):
    path = tmp_path / "line3.json"
    path.write_text(json.dumps({"family": "line", "min_degree": 3}))
    code, out = run(capsys, "validate", "--spec", str(path))
    assert code == 1
    assert json.loads(out)["tree"]["witness"] == "0;"


def test_missing_file_is_usage_error(capsys):
    code, _ = run(capsys, "validate", "--spec", "/nonexistent/x.json")
    assert code == 2


def test_dist(capsys, dl33_file):
    code, out = run(capsys, "dist", "--spec", dl33_file, "0;|0;", "0;|0;")
    assert code == 0 and json.loads(out)["dist"] == 0
    code, out = run(capsys, "dist", "--spec", dl33_file,
                    "0;|0;", "0;0|1;", "--oracle")
    payload = json.loads(out)
    assert code == 0 and payload["dist"] == 1 and payload["oracle_agrees"]
    code, out = run(capsys, "dist", "--spec", dl33_file,
                    "0;0|1;", "0;1|1;", "--oracle")
    assert code == 0 and json.loads(out)["dist"] == 2


def test_dist_oracle_failures_exit_1(capsys, monkeypatch, dl33_file):
    # past the search radius the oracle has no answer, which is no agreement
    code, out = run(capsys, "dist", "--spec", dl33_file,
                    "0;|0;", "2;|0;0.0", "--oracle", "--radius", "1")
    assert code == 1
    assert json.loads(out) == {"v": "0;|0;", "w": "2;|0;0.0", "dist": 2,
                               "bfs": "out_of_range", "oracle_agrees": False}
    monkeypatch.setattr(cli.HoroProduct, "dist_bfs", lambda *args: 3)
    code, out = run(capsys, "dist", "--spec", dl33_file,
                    "0;|0;", "2;|0;0.0", "--oracle")
    assert code == 1
    assert json.loads(out)["bfs"] == 3
    assert not json.loads(out)["oracle_agrees"]


def test_dist_bad_vertex_syntax(capsys, dl33_file):
    code, _ = run(capsys, "dist", "--spec", dl33_file, "junk", "0;|0;")
    assert code == 2


def test_ball_json_lines(capsys, dl33_file):
    code, out = run(capsys, "ball", "--spec", dl33_file, "--radius", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert json.loads(lines[0]) == "0;|0;"


def test_busemann(capsys, dl33_file):
    code, out = run(capsys, "busemann", "--spec", dl33_file, "Z:1", "0;0|1;")
    assert code == 0 and json.loads(out)["value"] == 1
    code, out = run(capsys, "busemann", "--spec", dl33_file, "C1:gamma", "2;|0;0.0")
    assert code == 0 and json.loads(out)["value"] == -2
    # a bare vertex anchors an interior function
    code, out = run(capsys, "busemann", "--spec", dl33_file, "0;0|1;", "0;|0;")
    assert code == 0 and json.loads(out)["value"] == 0


def test_classify_horocyclic(capsys, tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(
        {"spec": DL33, "family": {"kind": "horocyclic", "level": 2}}))
    code, out = run(capsys, "classify", "--family", str(path))
    payload = json.loads(out)
    assert code == 0
    assert payload["symbolic"]["hm_point"] == "Z:2"
    assert payload["symbolic"]["busemann"] == "Z:2"
    assert payload["agreement"] is True


def test_classify_radial(capsys, tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(
        {"spec": DL33,
         "family": {"kind": "radial_ray", "tree": 1, "ray": "0;(0)"}}))
    code, out = run(capsys, "classify", "--family", str(path))
    payload = json.loads(out)
    assert code == 0
    assert payload["symbolic"]["hm_point"] == "C1:0;(0)"
    assert payload["symbolic"]["eta"] == "+inf"


def test_classify_explicit_window(capsys, tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(
        {"spec": DL33, "family": {"kind": "fixed_second", "vertex": "1;"}}))
    code, out = run(capsys, "classify", "--family", str(path),
                    "--radius", "3", "--window", "40:70")
    payload = json.loads(out)
    assert code == 0
    assert payload["symbolic"]["hm_point"] == "T2:1;"
    assert payload["empirical"]["window"] == [40, 70]
    assert payload["agreement"] is True


def test_classify_oscillator(capsys, tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(
        {"spec": DL33, "family": {"kind": "alternating", "levels": [0, 1]}}))
    code, out = run(capsys, "classify", "--family", str(path))
    payload = json.loads(out)
    assert code == 0
    assert payload["symbolic"]["status"] == "not_convergent"
    assert payload["empirical"]["convergent"] is False
    assert payload["agreement"] is True


DEEP = "0;" + ".".join(["0", "1"] * 100)  # 200 letters below the origin


@pytest.mark.parametrize("family", [
    {"kind": "horocyclic", "level": 1000},
    {"kind": "horocyclic", "level": -1000},
    {"kind": "fixed_first", "vertex": DEEP},
    {"kind": "fixed_first", "vertex": "200;"},
], ids=["level1000", "level-1000", "pinned-200-letters", "pinned-branch-200"])
def test_classify_far_levels(tmp_path, family):
    # the stabilization bound is counted and the window is reached
    # without listing the terms before it, whose number has hundreds of
    # digits here
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"spec": DL33, "family": family}))
    proc = subprocess.run(
        [sys.executable, "-m", "horoprod", "classify", "--family", str(path)],
        env=ENV, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.count("\n") == 1
    payload = json.loads(proc.stdout)
    assert payload["agreement"] is True
    assert payload["empirical"]["violations"] == []


FINITE_RAY_PERIODIC = {"family": "ray_periodic", "ray_degrees": [2],
                       "off_ray_degrees": [3]}


@pytest.mark.parametrize("tree1,tree2", [
    ({"family": "line"}, FINITE_RAY_PERIODIC),
    ({"family": "explicit_core", "radius": 2, "tail_degree": 2,
      "core": {"0;": 3, "0;0": 3, "0;0.0": 3, "0;0.1": 3, "0;1": 3,
               "0;1.0": 3, "0;1.1": 3, "1;": 3, "1;0": 3, "2;": 3}},
     FINITE_RAY_PERIODIC),
    ({"family": "line"}, {"family": "line"}),
], ids=["line", "finite-core", "line-line"])
def test_classify_window_past_two_finite_levels(capsys, tmp_path, tree1,
                                                tree2):
    # both level sets are finite and the window starts past the end of
    # both (on two lines, both hold one vertex): the family has run out,
    # which agrees with not_convergent
    path = tmp_path / "fam.json"
    path.write_text(json.dumps(
        {"spec": {"tree1": tree1, "tree2": tree2},
         "family": {"kind": "horocyclic", "level": -2}}))
    code, out = run(capsys, "classify", "--family", str(path))
    payload = json.loads(out)
    assert code == 0
    assert payload["symbolic"]["status"] == "not_convergent"
    assert payload["empirical"]["violations"] == [
        {"reason": "a level set at height -2 or 2 is finite"}]
    assert payload["agreement"] is True


def test_verify_quick_suite(capsys):
    code, out = run(capsys, "verify", "lemma41", "--radius", "3")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_verify_metric_oracle_radius(capsys):
    # --radius sets the DL(3,3) ball radius and DL(3,4) one less
    code, out = run(capsys, "verify", "metric-oracle", "--radius", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["dl33"]["pairs_checked"] == 225
    assert payload["dl34"]["pairs_checked"] == 36


def test_verify_radius_is_the_suites_radius(capsys):
    # DL(3,4) stays at radius 1 when --radius is 1, and fset reads
    # --radius as its own radius
    code, out = run(capsys, "verify", "metric-oracle", "--radius", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["dl33"]["pairs_checked"] == 25
    assert payload["dl34"]["pairs_checked"] == 36
    code, out = run(capsys, "verify", "fset", "--radius", "8")
    assert code == 0 and json.loads(out)["ok"] is True


def test_verify_unknown_suite(capsys):
    code, _ = run(capsys, "verify", "no-such-suite")
    assert code == 2


def test_walk(capsys, tmp_path):
    config = {"spec": DL33, "p_up": "1", "steps": 100, "seed": 5,
              "trajectories": 1,
              "probes": [{"tree": 1, "ray": "gamma"},
                         {"tree": 2, "ray": "gamma"}]}
    path = tmp_path / "walk.json"
    path.write_text(json.dumps(config))
    csv_path = tmp_path / "trace.csv"
    code, out = run(capsys, "walk", "--config", str(path),
                    "--csv", str(csv_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["speed"]["mean"] == 1.0
    assert payload["exact"]["speed_is_one"]
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "n,dist,height,probe_0,probe_1"
    assert len(lines) == 102


def test_walk_zero_trajectories_usage_error(capsys, tmp_path):
    config = {"spec": DL33, "p_up": "0.5", "steps": 10, "seed": 1,
              "trajectories": 0}
    path = tmp_path / "walk.json"
    path.write_text(json.dumps(config))
    code, _ = run(capsys, "walk", "--config", str(path))
    assert code == 2


def test_walk_resource_cap(capsys, tmp_path):
    config = {"spec": DL33, "p_up": "0.5", "steps": 100, "seed": 1,
              "trajectories": 5}
    path = tmp_path / "walk.json"
    path.write_text(json.dumps(config))
    code, out = run(capsys, "walk", "--config", str(path),
                    "--max-total-steps", "250")
    assert code == 1
    assert json.loads(out)["partial"] is True


def test_byte_identical_invocations(capsys, dl33_file):
    _, first = run(capsys, "ball", "--spec", dl33_file, "--radius", "2")
    _, second = run(capsys, "ball", "--spec", dl33_file, "--radius", "2")
    assert first == second


def test_module_entry_point(tmp_path):
    path = tmp_path / "dl33.json"
    path.write_text(json.dumps(DL33))
    proc = subprocess.run(
        [sys.executable, "-m", "horoprod", "validate", "--spec", str(path)],
        env=ENV, capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tree1"]["ok"] is True


def test_ball_past_the_table_budget_exits_2(tmp_path):
    # a degree of 10**30 passes validate; the ball's tree table refuses
    # it before it enumerates a single label
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "tree1": {"family": "regular", "degree": 10**30, "min_degree": 3},
        "tree2": DL33["tree2"]}))
    proc = subprocess.run(
        [sys.executable, "-m", "horoprod", "ball", "--spec", str(path),
         "--radius", "1"],
        env=ENV, capture_output=True, text=True, timeout=2)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("error: the tree's radius-1 ball has more than"
                           " 16777216 vertices\n")


def test_geometry_commands_load_no_numpy(tmp_path):
    # only walk and verify compute in numpy, so the CLI and a dist
    # command leave it unloaded and skip its import time
    path = tmp_path / "dl33.json"
    path.write_text(json.dumps(DL33))
    code = (
        "import sys\n"
        "from horoprod.cli import main\n"
        "loaded = ['numpy' in sys.modules]\n"
        f"code = main(['dist', '--spec', {str(path)!r}, '0;0|1;', '0;1|1;',"
        " '--oracle'])\n"
        "loaded.append('numpy' in sys.modules)\n"
        "print(code, loaded, file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert json.loads(proc.stdout)["dist"] == 2
    assert proc.stderr == "0 [False, False]\n"


def _walk_error(capsys, tmp_path, config):
    path = tmp_path / "walk.json"
    path.write_text(json.dumps(config))
    code = main(["walk", "--config", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_walk_non_integer_field_usage_error(capsys, tmp_path):
    config = {"spec": DL33, "p_up": "1/2", "steps": 10, "seed": 1,
              "trajectories": 1, "max_total_steps": "15"}
    code, out, err = _walk_error(capsys, tmp_path, config)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "max_total_steps" in err


def test_walk_invalid_spec_usage_error(capsys, tmp_path):
    spec = {"tree1": {"family": "ray_periodic", "ray_degrees": [3],
                      "off_ray_degrees": [1]},
            "tree2": DL33["tree2"]}
    config = {"spec": spec, "p_up": "1/2", "steps": 10, "seed": 1,
              "trajectories": 1}
    code, out, err = _walk_error(capsys, tmp_path, config)
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and "off-ray degree 1 < 2" in err


BAD_CORE = {"family": "explicit_core", "core": [1], "radius": 1,
            "tail_degree": 3}
DEGREE_ONE = {"tree1": {"family": "ray_periodic", "ray_degrees": [3],
                        "off_ray_degrees": [1]},
              "tree2": DL33["tree2"]}


@pytest.mark.parametrize("argv,data,message", [
    (["validate", "--spec"], {"tree1": BAD_CORE, "tree2": DL33["tree2"]},
     "malformed tree description"),
    (["classify", "--family"],
     {"spec": DL33, "family": {"kind": "radial_ray", "tree": 1, "ray": 5}},
     "malformed family description"),
    (["classify", "--family"], {"spec": DL33, "family": ["x"]},
     "malformed family description"),
    (["classify", "--family"], {"spec": [1], "family": {}},
     "does not describe a product"),
    (["ball", "--radius", "2", "--spec"], DEGREE_ONE, "off-ray degree 1 < 2"),
    (["dist", "0;|0;", "0;0|1;", "--spec"], DEGREE_ONE,
     "off-ray degree 1 < 2"),
    (["walk", "--config"],
     {"spec": DL33, "p_up": "1/2", "steps": 10, "seed": 1,
      "trajectories": 1, "max_total_steps": -1}, "max_total_steps"),
    (["walk", "--max-total-steps", "-1", "--config"],
     {"spec": DL33, "p_up": "1/2", "steps": 10, "seed": 1,
      "trajectories": 1}, "max_total_steps"),
    (["validate", "--spec"], [DL33], "does not hold a JSON object"),
    (["walk", "--config"],
     {"spec": DL33, "p_up": "1/2", "steps": 10, "seed": 1,
      "trajectories": 1, "max_total_steps": 0}, "max_total_steps"),
    (["validate", "--spec"],
     {"tree1": {"family": "regular", "degree": 3.7}, "tree2": DL33["tree2"]},
     "degree: expected an integer, got 3.7"),
    (["ball", "--radius", "1", "--spec"],
     {"tree1": {"family": "regular", "degree": "3"}, "tree2": DL33["tree2"]},
     "degree: expected an integer, got '3'"),
    (["validate", "--spec"],
     {"tree1": {"family": "ray_periodic", "ray_degrees": [3, 4.0],
                "off_ray_degrees": [3]}, "tree2": DL33["tree2"]},
     "ray_degrees: expected an integer, got 4.0"),
    (["validate", "--spec"],
     {"tree1": {"family": "explicit_core", "core": {"0;": 3.0}, "radius": 0,
                "tail_degree": 3}, "tree2": DL33["tree2"]},
     "core 0;: expected an integer, got 3.0"),
    (["validate", "--spec"],
     {"tree1": {"family": "explicit_core", "core": {"0;": 3}, "radius": 0,
                "tail_degree": True}, "tree2": DL33["tree2"]},
     "tail_degree: expected an integer, got True"),
    (["validate", "--spec"],
     {"tree1": {**DL33["tree1"], "min_degree": 3.0}, "tree2": DL33["tree2"]},
     "min_degree: expected an integer, got 3.0"),
    (["classify", "--family"],
     {"spec": DL33, "family": {"kind": "horocyclic", "level": 1.5}},
     "level: expected an integer, got 1.5"),
    (["classify", "--family"],
     {"spec": DL33, "family": {"kind": "radial_ray", "tree": "2",
                               "ray": "gamma"}},
     "tree: expected an integer, got '2'"),
    (["walk", "--config"],
     {"spec": DL33, "p_up": "1/2", "steps": 10, "seed": 1, "trajectories": 1,
      "probes": [{"tree": True, "ray": "gamma"}]},
     "probe tree must be 1 or 2, got True"),
    (["classify", "--family"],
     {"spec": DL33, "family": {"kind": "radial_ray", "tree": 1,
                               "ray": "0;(5)"}},
     "ray 0;(5) does not exist"),
    (["classify", "--family"],
     {"spec": DL33, "family": {"kind": "radial_ray", "tree": 2,
                               "ray": "gamma", "pairing": "0;(9)"}},
     "ray 0;(9) does not exist"),
    (["classify", "--family"],
     {"spec": DL33, "family": {"kind": "fixed_first", "vertex": "0;7"}},
     "address 0;7 does not exist"),
    (["classify", "--family"],
     {"spec": DL33, "family": {"kind": "fixed_second", "vertex": "0;0.9"}},
     "address 0;0.9 does not exist"),
    (["classify", "--family"],
     {"spec": DL33, "family": {"kind": "eventually_constant",
                               "vertex": "0;7|1;"}},
     "address 0;7 does not exist"),
    (["busemann", "Z:", "0;|0;", "--spec"], DL33,
     "unparsable boundary point 'Z:'"),
    (["busemann", "Z:1_0", "0;|0;", "--spec"], DL33,
     "unparsable boundary point 'Z:1_0'"),
    (["busemann", "Z: 2", "0;|0;", "--spec"], DL33,
     "unparsable boundary point 'Z: 2'"),
    (["busemann", "Z:\u0663", "0;|0;", "--spec"], DL33,
     "unparsable boundary point 'Z:\u0663'"),
    (["busemann", "Z:007", "0;|0;", "--spec"], DL33,
     "unparsable boundary point 'Z:007'"),
    (["busemann", "Z:-0", "0;|0;", "--spec"], DL33,
     "unparsable boundary point 'Z:-0'"),
    (["busemann", "Z:0", " 0;|0;", "--spec"], DL33,
     "unparsable vertex address ' 0;'"),
    (["dist", "0;|0;", "0;|0;1_0", "--spec"], DL33,
     "unparsable vertex address '0;1_0'"),
    (["busemann", "C1:0;(1_0)", "0;|0;", "--spec"], DL33,
     "unparsable ray '0;(1_0)'"),
    (["busemann", "C1:0;0(0)", "0;|0;", "--spec"], DL33,
     "not in shortest form, which is C1:0;(0)"),
    *((["walk", "--config"],
       {"spec": DL33, "p_up": p_up, "steps": 10, "seed": 1,
        "trajectories": 1},
       f"p_up must be a fraction or decimal in ASCII digits, such as "
       f"'4/5' or '0.5', got {p_up!r}")
      for p_up in (True, 0.8, "1_0/2_0", " 1/2", "1/0")),
    (["walk", "--config"],
     {"spec": DL33, "p_up": "1/2", "steps": 10, "seed": 1, "trajectories": 1,
      "probes": [{"tree": 1, "ray": "0;(7)"}]},
     "bad walk config: ray 0;(7) does not exist in this tree"),
    (["busemann", "C1:0;(2)", "0;|0;", "--spec"], DL33,
     "ray 0;(2) does not exist in this tree"),
    (["busemann", "C1:-1;(0)", "0;|0;", "--spec"], DL33,
     "negative branch index"),
    (["validate", "--spec"], {"x": 1},
     "holds neither a tree nor a product description"),
    (["classify", "--family"], {"family": {"kind": "horocyclic", "level": 0}},
     "family file needs 'spec' and 'family' entries"),
    (["walk", "--csv", "trace.csv", "--config"],
     {"spec": DL33, "p_up": "1/2", "steps": 10, "seed": 1, "trajectories": 1,
      "record_stride": 0},
     "config has record_stride 0, nothing to trace"),
    (["classify", "--family"], {"spec": DL33, "family": {"kind": "spiral"}},
     "unknown family kind 'spiral'"),
    (["classify", "--family"],
     {"spec": DL33, "family": {"kind": "radial_ray", "tree": 3,
                               "ray": "gamma"}},
     "tree must be 1 or 2"),
    (["classify", "--family"],
     {"spec": DL33, "family": {"kind": "alternating", "levels": []}},
     "levels must be nonempty"),
    (["classify", "--window", "5:2", "--family"],
     {"spec": DL33, "family": {"kind": "horocyclic", "level": 0}},
     "window must satisfy 0 <= n0 < n1"),
    (["validate", "--spec"],
     {"tree1": {"family": "star"}, "tree2": DL33["tree2"]},
     "unknown tree family 'star'"),
    (["validate", "--spec"],
     {"tree1": {"family": "ray_periodic", "ray_degrees": [3, 0],
                "off_ray_degrees": [3]}, "tree2": DL33["tree2"]},
     "degrees must be positive"),
    (["validate", "--spec"],
     {"tree1": {"family": "explicit_core", "core": {"0;": 3}, "radius": -1,
                "tail_degree": 3}, "tree2": DL33["tree2"]},
     "core radius must be >= 0"),
    (["validate", "--spec"],
     {"tree1": {"family": "explicit_core", "core": {"0;": 0}, "radius": 0,
                "tail_degree": 3}, "tree2": DL33["tree2"]},
     "listed degree must be positive at '0;'"),
    (["busemann", "T1:0;-1", "0;|0;", "--spec"], DL33,
     "negative child label in (-1,)"),
    (["busemann", "C2:0;(-1)", "0;|0;", "--spec"], DL33,
     "negative child label"),
    (["walk", "--config"],
     {"spec": DL33, "p_up": "1/2", "steps": -1, "seed": 1, "trajectories": 1},
     "steps must be >= 0"),
    (["walk", "--config"],
     {"spec": DL33, "p_up": "1/2", "steps": 10, "seed": 1, "trajectories": 1,
      "record_stride": -1},
     "record_stride must be >= 0"),
], ids=["validate-bad-core", "classify-ray-not-text",
        "classify-family-not-object", "classify-spec-not-object",
        "ball-invalid-spec", "dist-invalid-spec", "walk-negative-cap",
        "walk-negative-cap-flag", "validate-not-object", "walk-zero-cap",
        "validate-float-degree", "ball-text-degree", "validate-float-ray-degree",
        "validate-float-core-degree", "validate-bool-tail-degree",
        "validate-float-min-degree", "classify-float-level",
        "classify-text-tree", "walk-bool-probe-tree", "classify-missing-ray",
        "classify-missing-pairing", "classify-missing-fixed-first",
        "classify-missing-fixed-second", "classify-missing-constant",
        "busemann-empty-level", "busemann-underscore-level",
        "busemann-space-level", "busemann-arabic-indic-level",
        "busemann-leading-zero-level", "busemann-negative-zero-level",
        "busemann-space-vertex", "dist-underscore-label",
        "busemann-underscore-ray", "busemann-long-form-ray",
        "walk-bool-p-up", "walk-float-p-up", "walk-underscore-p-up",
        "walk-space-p-up", "walk-zero-denominator-p-up",
        "walk-missing-probe-ray", "busemann-missing-ray",
        "busemann-negative-branch", "validate-neither-tree-nor-product",
        "classify-missing-spec", "walk-csv-zero-stride",
        "classify-unknown-kind", "classify-radial-tree-3",
        "classify-no-levels", "classify-reversed-window",
        "validate-unknown-family", "validate-zero-ray-degree",
        "validate-negative-core-radius", "validate-zero-core-degree",
        "busemann-negative-label", "busemann-negative-ray-label",
        "walk-negative-steps", "walk-negative-stride"])
def test_malformed_input_usage_error(capsys, tmp_path, argv, data, message):
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    code = main(argv + [str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1 and message in captured.err


def test_non_json_file_usage_error(capsys, tmp_path):
    path = tmp_path / "input.json"
    path.write_text("not json\n")
    code = main(["validate", "--spec", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"{path} is not valid JSON" in captured.err


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_csv_usage_error(capsys, tmp_path, where):
    config = {"spec": DL33, "p_up": "1", "steps": 10, "seed": 5,
              "trajectories": 1, "probes": []}
    path = tmp_path / "walk.json"
    path.write_text(json.dumps(config))
    csv_path = tmp_path / "missing" / "t.csv" if where == "missing-dir" else tmp_path
    code = main(["walk", "--config", str(path), "--csv", str(csv_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"cannot write {csv_path}" in captured.err


@pytest.mark.parametrize("where", ["zero-stride", "missing-dir", "directory"])
def test_trace_request_checked_before_the_walk(capsys, monkeypatch, tmp_path,
                                               where):
    def no_walk(config):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(walk, "simulate", no_walk)
    config = {"spec": DL33, "p_up": "1", "steps": 10, "seed": 5,
              "trajectories": 2, "probes": [],
              "record_stride": 0 if where == "zero-stride" else 1}
    path = tmp_path / "walk.json"
    path.write_text(json.dumps(config))
    csv_path = {"zero-stride": tmp_path / "t.csv",
                "missing-dir": tmp_path / "missing" / "t.csv",
                "directory": tmp_path / "t.csv"}[where]
    if where == "directory":
        (tmp_path / "t.csv.0").mkdir()
    code = main(["walk", "--config", str(path), "--csv", str(csv_path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert ("record_stride 0" if where == "zero-stride"
            else f"cannot write {csv_path}.0") in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        (["t.csv.0", "walk.json"] if where == "directory" else ["walk.json"])


def test_trace_files_only_for_walked_trajectories(capsys, tmp_path):
    # a budget of 15 steps walks trajectory 0 and part of 1, and never
    # starts 2: only the first two traces are written
    config = {"spec": DL33, "p_up": "1", "steps": 10, "seed": 5,
              "trajectories": 3, "probes": []}
    path = tmp_path / "walk.json"
    path.write_text(json.dumps(config))
    csv_path = tmp_path / "t.csv"
    code = main(["walk", "--config", str(path), "--csv", str(csv_path),
                 "--max-total-steps", "15"])
    assert code == 1 and json.loads(capsys.readouterr().out)["partial"]
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["t.csv.0", "t.csv.1", "walk.json"]
    assert len((tmp_path / "t.csv.1").read_text().splitlines()) == 1 + 6


def test_trace_files_of_an_earlier_run_removed(capsys, tmp_path):
    # a full 3-trajectory run, then one that never starts trajectory 2:
    # the earlier run's trace of trajectory 2 is removed
    config = {"spec": DL33, "p_up": "1", "steps": 10, "seed": 5,
              "trajectories": 3, "probes": []}
    path = tmp_path / "walk.json"
    path.write_text(json.dumps(config))
    csv_path = tmp_path / "t.csv"
    assert main(["walk", "--config", str(path), "--csv", str(csv_path)]) == 0
    assert len((tmp_path / "t.csv.2").read_text().splitlines()) == 1 + 11
    code = main(["walk", "--config", str(path), "--csv", str(csv_path),
                 "--max-total-steps", "15"])
    assert code == 1 and json.loads(capsys.readouterr().out.splitlines()[-1])["partial"]
    assert sorted(p.name for p in tmp_path.iterdir()) == \
        ["t.csv.0", "t.csv.1", "walk.json"]
    assert len((tmp_path / "t.csv.1").read_text().splitlines()) == 1 + 6


@pytest.mark.parametrize("argv,message", [
    (["verify", "lemma41", "--seed", "5"],
     "suite lemma41 takes no --seed option"),
    (["verify", "closure", "--trajectories", "3"],
     "suite closure takes no --trajectories option"),
    (["verify", "boundary-functions", "--radius", "2"],
     "suite boundary-functions takes no --radius option"),
    (["ball", "--spec", "dl33.json", "--radius", "1_0"],
     "argument --radius: not a canonical decimal integer: '1_0'"),
    (["verify", "closure", "--radius", "٣"],
     "argument --radius: not a canonical decimal integer: '٣'"),
    (["verify", "walk-drift", "--seed", "07"],
     "argument --seed: not a canonical decimal integer: '07'"),
    (["verify", "walk-drift", "--steps", " 5"],
     "argument --steps: not a canonical decimal integer: ' 5'"),
    (["verify", "walk-drift", "--trajectories", "+2"],
     "argument --trajectories: not a canonical decimal integer: '+2'"),
    (["walk", "--config", "walk.json", "--max-total-steps", "1_0"],
     "argument --max-total-steps: not a canonical decimal integer: '1_0'"),
    (["classify", "--family", "family.json", "--window", "3:1_0"],
     "argument --window: window must look like 'n0:n1'"),
    (["classify", "--family", "family.json", "--window", "٣:9"],
     "argument --window: window must look like 'n0:n1'"),
    (["ball", "--spec", "dl33.json"],
     "the following arguments are required: --radius"),
    (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
    ([], "the following arguments are required: command"),
    (["verify", "fset", "--radius", "7"],
     "the level-counting oracle needs radius >= 8"),
], ids=["verify-unused-seed", "verify-unused-trajectories",
        "verify-unused-radius", "ball-underscore-radius",
        "verify-arabic-indic-radius", "verify-leading-zero-seed",
        "verify-space-steps", "verify-plus-trajectories",
        "walk-underscore-cap", "classify-underscore-window",
        "classify-arabic-indic-window", "ball-missing-radius",
        "unknown-command", "no-command", "verify-fset-radius-7"])
def test_malformed_option_usage_error(capsys, argv, message):
    # each is refused before any file is read or any suite runs
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and message in captured.err
