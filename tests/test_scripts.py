"""The experiment scripts run end to end on small inputs."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from horoprod import verify
from horoprod.walk import WalkConfig, simulate

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

# the eight --quick payloads without "seconds", as json.dumps(sort_keys=True)
QUICK_PAYLOADS_SHA256 = (
    "cb8792a76609fbec6beb36e9fc8d6142fbdb5fa18b448fee4267edd4f174e7cb")


def test_verify_all_quick(tmp_path):
    # the --quick overrides name suite parameters, so this run fails
    # when a suite stops taking one of them
    out = tmp_path / "suites.json"
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "verify_all.py"), "--quick",
         "--json", str(out)],
        env=ENV, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert len(lines) == 8 and all(line.startswith("PASS ") for line in lines)
    payloads = json.loads(out.read_text())
    assert [p["suite"] for p in payloads] == list(verify.SUITES)
    for payload in payloads:
        del payload["seconds"]
    digest = hashlib.sha256(json.dumps(payloads, sort_keys=True).encode())
    assert digest.hexdigest() == QUICK_PAYLOADS_SHA256


def test_walk_drift_experiment(tmp_path):
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "walk_drift_experiment.py"),
         "--outdir", str(tmp_path), "--steps", "2000", "--trajectories", "2"],
        env=ENV, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    reports = sorted(tmp_path.glob("drift_p*.json"))
    assert [r.name for r in reports] == ["drift_p1.json", "drift_p1_2.json",
                                         "drift_p1_5.json", "drift_p4_5.json"]
    assert len(run.stdout.splitlines()) == 4
    for report_path in reports:
        report = json.loads(report_path.read_text())
        assert report["ok"], report
        # the trace is the first trajectory, recorded to its last step
        trace = report_path.with_name(
            report_path.name.replace("drift", "trace")).with_suffix(".csv")
        last = trace.read_text().splitlines()[-1].split(",")
        first = simulate(WalkConfig.from_json(report["config"])).trajectories[0]
        assert int(last[0]) == first.steps == 2000
        assert int(last[1]) == first.final_dist


def test_traced_benchmark_workload_reports_every_layer():
    # the tracer wraps library entry points by name, and the end-to-end
    # benchmark runs untraced, so a renamed entry point shows only here
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "workload.py"),
         "--workload", "limits", "--seed", "1", "--trace", "1"],
        env=ENV, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["failed"] == 0, result["failures"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    missing = [m["name"] for m in declared
               if m["name"] != "trace.overhead_s"
               and m["name"] not in result["layers"]]
    assert missing == []


def test_traced_oracle_workload_reports_the_graph_layer():
    # the graph metrics come from the span on HoroProduct.ball_graph,
    # so a build that bypasses that entry point fails here
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "workload.py"),
         "--workload", "oracle", "--seed", "1", "--trace", "1"],
        env=ENV, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["failed"] == 0, result["failures"]
    layers = result["layers"]
    assert layers["verify.pairs_checked"] == 90_788
    assert layers["product.ball_graph_s"] > 0
    assert layers["product.ball_graph_vertices_per_s"] > 0


def test_readme_quickstart_runs():
    # the quickstart names public entry points, so a removed or renamed
    # one fails here and not only in the docs
    readme = (ROOT / "README.md").read_text()
    blocks = readme.split("```python\n")[1:]
    assert len(blocks) == 1
    code = blocks[0].split("```")[0]
    run = subprocess.run([sys.executable, "-c", code], env=ENV,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
