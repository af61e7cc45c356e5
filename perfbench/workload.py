"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 perfbench/workload.py --workload oracle --seed 1 --trace 0 --digest 1

``run.py`` starts this script once per repetition and reads the single
JSON object it prints.  Everything before the first timed call
(interpreter start, ``import horoprod``, building products and configs)
is the set-up the parent measures; the timed pass calls the library
only through public functions of ``verify``, ``limits``, ``product``,
``boundary`` and ``walk``; the outputs are checked after the pass.

With ``--trace 1`` the layers are wrapped by ``tracing.Tracer`` for the
timed pass and per-layer metrics are added to the output.  With
``--trace 0`` the tracing module is not even imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

try:
    import horoprod
except ImportError as exc:
    sys.exit(f"workload: cannot import horoprod from {SRC}: {exc}")
if os.path.dirname(os.path.dirname(os.path.abspath(horoprod.__file__))) != SRC:
    sys.exit(f"workload: horoprod was imported from {horoprod.__file__}, not {SRC}")

import numpy as np  # noqa: E402

from horoprod import verify, walk  # noqa: E402
from horoprod.product import HoroProduct, ProductVertex  # noqa: E402
from horoprod.rays import GAMMA, BranchingRay  # noqa: E402
from horoprod.tree import TreeSpec  # noqa: E402

# Seed whose walk summaries are pinned in DIGESTS.
DEFAULT_SEED = 1

# -- sizes ---------------------------------------------------------------------
# Each repetition takes a few seconds, so a run of run.py fits several
# of them and reports medians.

ORACLE_RADII = (("dl33", 5), ("dl34", 4))
LIMITS_FAMILIES = 24            # per product; a multiple of the 12 family makers
WALK_PROBED_STEPS = 20_000
WALK_PROBED_TRAJECTORIES = 8
WALK_LONG_STEPS = 4_000_000     # past the int64 range of the slope sums
WALK_LONG_TOLERANCE = 0.05      # about 80 standard errors at 4e6 steps
INT64_MAX = 2**63 - 1
GENERAL_SHORT = (2_000, 4)      # (steps, trajectories)
GENERAL_LONG = (8_000, 1)

DL33 = HoroProduct(TreeSpec.regular(3), TreeSpec.regular(3))
DL34 = HoroProduct(TreeSpec.regular(3), TreeSpec.regular(4))
PROBES = ((1, GAMMA), (2, GAMMA),
          (1, BranchingRay(0, (), (1,))), (2, BranchingRay(0, (), (1,))))
WALK_BIASES = (("p1", Fraction(1)), ("p4_5", Fraction(4, 5)),
               ("p1_5", Fraction(1, 5)), ("p1_2", Fraction(1, 2)))
GENERAL_BIASES = (("p4_5", Fraction(4, 5)), ("p1_5", Fraction(1, 5)))

# Trajectory-summary digests at DEFAULT_SEED, as produced by the walk
# kernel this benchmark was written against.  A kernel that changes the
# draw order changes them, and the run counts that as a failed check.
DIGESTS = {
    "walk": "46558150b6554165a26693aa76ba4bf5bda8b93bbcf96779d4e1b149fdb1f2c8",
    "walk-general": "035e32ea517227a82ec14036407ced2677e702eab273db09dbb96b2ba2522b3c",
}


class Checks:
    """Attempted and failed output checks of one repetition, plus the
    known defects: wrong outputs whose cause is established, reported
    by name but not counted as failed checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.known_defects: list[str] = []

    def add(self, name: str, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(name)

    def known(self, name: str) -> None:
        self.known_defects.append(name)


# -- oracle --------------------------------------------------------------------

def setup_oracle(seed):
    # fixed balls; the seed has nothing to draw here
    return {"products": {"dl33": DL33, "dl34": DL34}}


def run_oracle(inputs, span):
    radii = dict(ORACLE_RADII)
    return {"suite": verify.metric_oracle_suite(radii["dl33"], radii["dl34"])}


def check_oracle(inputs, out, checks):
    suite = out["suite"]
    for label, radius in ORACLE_RADII:
        expected = len(inputs["products"][label].ball(radius)) ** 2
        res = suite.details[label]
        verified = res["pairs_checked"] - (0 if res["ok"] else 1)
        good = res["ok"] and res["pairs_checked"] == expected
        checks.add(f"{label}.pairs", expected,
                   0 if good else max(expected - verified, 1))
    out["pairs_checked"] = sum(suite.details[label]["pairs_checked"]
                               for label, _ in ORACLE_RADII)


# -- limits --------------------------------------------------------------------

def setup_limits(seed):
    return {"seed": seed}


def run_limits(inputs, span):
    return {"isomorphism": verify.isomorphism_suite(
                count_per_product=LIMITS_FAMILIES, seed=inputs["seed"]),
            "boundary": verify.boundary_function_suite()}


def check_limits(inputs, out, checks):
    iso = out["isomorphism"]
    for label in ("dl33", "dl34"):
        summary = iso.details[label]
        checks.add(f"{label}.families", LIMITS_FAMILIES,
                   len(summary["disagreements"])
                   + abs(summary["total"] - LIMITS_FAMILIES))
    checks.add("boundary_functions", 1, 0 if out["boundary"].ok else 1)
    out["families"] = sum(iso.details[label]["total"] for label in ("dl33", "dl34"))
    out["undecided"] = sum(iso.details[label]["undecided"] for label in ("dl33", "dl34"))
    out["disagreements"] = sum(len(iso.details[label]["disagreements"])
                               for label in ("dl33", "dl34"))


# -- walk ----------------------------------------------------------------------

def setup_walk(seed):
    probed = [(label, walk.WalkConfig(DL33, p, WALK_PROBED_STEPS, seed,
                                      WALK_PROBED_TRAJECTORIES, PROBES,
                                      record_stride=0))
              for label, p in WALK_BIASES]
    long = walk.WalkConfig(DL33, Fraction(4, 5), WALK_LONG_STEPS, seed, 1,
                           record_stride=0)
    return {"probed": probed, "long": long}


def _simulate_probed(probed, span):
    results = []
    for label, config in probed:
        with span("walk.simulate." + label, _steps(config)):
            result = walk.simulate(config)
        results.append((label, result, walk.drift_report(result)))
    return results


def run_walk(inputs, span):
    probed = _simulate_probed(inputs["probed"], span)
    with span("walk.simulate.long", _steps(inputs["long"])):
        long = walk.simulate(inputs["long"])
    return {"probed": probed, "long": long}


def check_walk(inputs, out, checks):
    for label, _, report in out["probed"]:
        for name, ok in report["checks"].items():
            checks.add(f"{label}.{name}", 1, 0 if ok else 1)
        if label == "p1":
            for flag in ("speed_is_one", "height_slope_is_one"):
                checks.add(f"p1.exact.{flag}", 1, 0 if report["exact"][flag] else 1)
        if label == "p1_2":
            checks.add("p1_2.zero_speed_flagged", 1,
                       0 if report["regime"] == "zero_speed" else 1)
    # the exact drift at p_up = 4/5 is 2p - 1 = 3/5
    long = out["long"].trajectories[0]
    speed = long.final_dist / long.steps
    checks.add("long.speed", 1, 0 if abs(speed - 0.6) <= WALK_LONG_TOLERANCE else 1)
    slope = float(long.dist_slope)
    out["long_dist_slope"] = slope
    if abs(slope - 0.6) <= WALK_LONG_TOLERANCE:
        checks.add("long.dist_slope", 1, 0)
    elif _slope_sums_wrap(long.steps):
        # walk._half_slope sums in int64 and these sums wrap: a known
        # defect, reported by name and in walk.long_dist_slope_error
        checks.known("long.dist_slope: int64 slope sums wrap")
    else:
        checks.add("long.dist_slope", 1, 1)
    out["steps"] = (sum(t.steps for _, r, _ in out["probed"] for t in r.trajectories)
                    + out["long"].trajectories[0].steps)


def _slope_sums_wrap(steps: int) -> bool:
    """Whether the sum of squared step indices over the second half of a
    trajectory, one of the least-squares sums of a slope, exceeds int64."""
    def squares(m):
        return m * (m + 1) * (2 * m + 1) // 6
    return squares(steps) - squares(steps // 2 - 1) > INT64_MAX


def digest_walk(seed):
    probed = _simulate_probed(setup_walk(seed)["probed"], _no_span)
    return summary_digest((label, result) for label, result, _ in probed)


# -- walk-general ----------------------------------------------------------------

def setup_walk_general(seed):
    general = HoroProduct(TreeSpec.ray_periodic((3, 4), (3,)),
                          TreeSpec.explicit_core_of(TreeSpec.regular(3), 3, 3))
    configs = []
    for label, p in GENERAL_BIASES:
        for kind, (steps, count) in (("short", GENERAL_SHORT), ("long", GENERAL_LONG)):
            configs.append((f"{kind}.{label}", kind,
                            walk.WalkConfig(general, p, steps, seed, count,
                                            record_stride=1)))
    tmp_parent = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(tmp_parent, exist_ok=True)
    return {"configs": configs, "tmpdir": tempfile.mkdtemp(dir=tmp_parent)}


def _simulate_general(inputs, span):
    results = []
    traces = []
    for label, kind, config in inputs["configs"]:
        with span("walk.simulate.general." + kind, _steps(config)):
            result = walk.simulate(config)
        for t in result.trajectories:
            path = os.path.join(inputs["tmpdir"], f"{label}.{t.index}.csv")
            walk.write_trace_csv(path, t, len(config.probes))
            traces.append((path, t))
        results.append((label, result))
    return results, traces


def run_walk_general(inputs, span):
    results, traces = _simulate_general(inputs, span)
    return {"results": results, "traces": traces}


def check_walk_general(inputs, out, checks):
    rows = 0
    for path, t in out["traces"]:
        with open(path) as fh:
            lines = fh.read().splitlines()
        last_dist = int(lines[-1].split(",")[1]) if len(lines) > 1 else None
        good = len(lines) == t.steps + 2 and last_dist == t.final_dist
        checks.add(f"trace.{os.path.basename(path)}", 1, 0 if good else 1)
        rows += len(lines) - 1
    out["trace_rows"] = rows
    out["steps"] = sum(t.steps for _, r in out["results"] for t in r.trajectories)


def digest_walk_general(seed):
    inputs = setup_walk_general(seed)
    try:
        results, _ = _simulate_general(inputs, _no_span)
    finally:
        cleanup(inputs)
    return summary_digest(results)


def cleanup(inputs):
    tmpdir = inputs.get("tmpdir")
    if tmpdir:
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmpdir))
        except OSError:
            pass    # another repetition's directory is still there


# -- shared ----------------------------------------------------------------------

def _no_span(name, work=0):
    return nullcontext()


def _steps(config) -> int:
    return config.steps * config.trajectories


def summary_digest(results) -> str:
    """sha256 over every trajectory summary: final position, exact
    slopes and, when recorded, the series themselves."""
    h = hashlib.sha256()
    for label, result in results:
        for t in result.trajectories:
            h.update(repr((label, t.index, t.steps, t.final_dist, t.final_height,
                           str(t.dist_slope), str(t.height_slope),
                           tuple(map(str, t.probe_slopes)))).encode())
            for series in (t.dist, t.height, *t.probe_values):
                if series is not None:
                    h.update(np.asarray(series, dtype="<i8").tobytes())
    return h.hexdigest()


WORKLOADS = {
    "oracle": (setup_oracle, run_oracle, check_oracle, None),
    "limits": (setup_limits, run_limits, check_limits, None),
    "walk": (setup_walk, run_walk, check_walk, digest_walk),
    "walk-general": (setup_walk_general, run_walk_general, check_walk_general,
                     digest_walk_general),
}


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _quantile(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer, out, kernel_ns, dist_traced_ns) -> dict:
    """Per-layer metrics of one traced repetition; 0 where the workload
    does not exercise the layer."""
    m = {}
    calls = {name: n for name, (n, _) in out["snapshot"].items()}
    ms = 1e3

    suite_s = tracer.total("verify.metric_oracle_suite")
    graph_s = tracer.total("product.ball_graph")
    bfs_s = (suite_s - graph_s - calls["product.dist"] * dist_traced_ns * 1e-9
             if suite_s else 0.0)
    pairs = out.get("pairs_checked", 0)
    m["verify.oracle_bfs_s"] = bfs_s
    m["verify.oracle_pairs_per_s"] = pairs / bfs_s if bfs_s > 0 else 0.0
    m["verify.pairs_checked"] = pairs

    vertices = tracer.work("product.ball_graph")
    m["product.ball_graph_s"] = graph_s
    m["product.ball_graph_vertices_per_s"] = vertices / graph_s if graph_s else 0.0
    m["product.dist_calls"] = calls["product.dist"]
    m["product.dist_ns"] = kernel_ns["product.dist"]
    m["product.busemann_calls"] = calls["product.busemann"]
    m["product.busemann_ns"] = kernel_ns["product.busemann"]
    m["product.ball_calls"] = tracer.count("product.ball")
    m["product.ball_s"] = tracer.total("product.ball")

    m["tree.tree_dist_calls"] = calls["tree.tree_dist"]
    m["tree.tree_dist_ns"] = kernel_ns["tree.tree_dist"]
    m["tree.label_count_calls"] = calls["tree.label_count"]
    m["tree.label_count_ns"] = kernel_ns["tree.label_count"]

    gen = tracer.generated
    m["rays.level_sequence_vertices"] = gen["vertices"]
    m["rays.level_sequence_vertices_per_s"] = (gen["vertices"] / gen["seconds"]
                                               if gen["seconds"] else 0.0)

    m["boundary.evaluate_calls"] = calls["boundary.evaluate"]
    for kind in ("C1", "C2", "T1", "T2", "Z", "I"):
        m[f"boundary.evaluate_ns.{kind}"] = kernel_ns.get("boundary.evaluate." + kind, 0.0)

    for metric, span in (("classify_ms", "limits.classify"),
                         ("stabilization_bound_ms", "limits.stabilization_bound"),
                         ("empirical_check_ms", "limits.empirical_check")):
        d = [x * ms for x in tracer.durations(span)]
        m[f"limits.{metric}.p50"] = statistics.median(d) if d else 0.0
        m[f"limits.{metric}.p90"] = _quantile(d, 90)
    m["limits.families"] = out.get("families", 0)
    m["limits.undecided"] = out.get("undecided", 0)
    m["limits.disagreements"] = out.get("disagreements", 0)

    def rate(span):
        t = tracer.total(span)
        return tracer.work(span) / t if t else 0.0

    for label, _ in WALK_BIASES:
        m[f"walk.steps_per_s.{label}"] = rate("walk.simulate." + label)
    m["walk.steps_per_s.long"] = rate("walk.simulate.long")
    m["walk.steps"] = out.get("steps", 0)
    d = [x * ms for x in tracer.durations("walk.drift_report")]
    m["walk.drift_report_ms"] = statistics.median(d) if d else 0.0
    slope = out.get("long_dist_slope")
    m["walk.long_dist_slope_error"] = abs(slope - 0.6) if slope is not None else 0.0
    short = rate("walk.simulate.general.short")
    long = rate("walk.simulate.general.long")
    m["walk.steps_per_s.general.short"] = short
    m["walk.steps_per_s.general.long"] = long
    m["walk.general_scaling"] = long / short if short else 0.0
    m["walk.trace_rows"] = out.get("trace_rows", 0)
    m["walk.trace_write_s"] = tracer.total("walk.write_trace_csv")
    return m


def kernel_costs(snapshot, counters) -> dict:
    """ns per call of each counted kernel over its own argument sample,
    run with the original functions (the tracer must be uninstalled)."""
    from tracing import ns_per_call

    costs = {}
    for name, (_, sample) in snapshot.items():
        original = counters[name][0]
        if name == "boundary.evaluate":
            by_kind: dict[str, list] = {}
            for args, kwargs in sample:
                anchor = args[0]
                kind = "I" if isinstance(anchor, ProductVertex) else anchor.kind.value
                by_kind.setdefault(kind, []).append((args, kwargs))
            for kind, part in by_kind.items():
                costs[f"{name}.{kind}"] = ns_per_call(original, part)
        costs[name] = ns_per_call(original, sample)
    return costs


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--digest", type=int, choices=(0, 1), default=0,
                    help="also check the walk digest at the default seed")
    args = ap.parse_args(argv)
    setup, run, check, digest = WORKLOADS[args.workload]

    inputs = setup(args.seed)
    tracer = None
    span = _no_span
    try:
        if args.trace:
            from tracing import Tracer, ns_per_call
            tracer = Tracer()
            tracer.install()
            span = tracer.span
        cpu0 = _cpu_seconds()
        t0 = time.monotonic()
        w0 = time.perf_counter()
        out = run(inputs, span)
        wall = time.perf_counter() - w0
        cpu = _cpu_seconds() - cpu0
        if tracer:
            out["snapshot"] = tracer.snapshot()
            # what a product_dist call cost inside the traced pass, wrapped
            # kernels included, so it can be taken out of the suite's span
            dist_traced_ns = ns_per_call(tracer.counters["product.dist"][1],
                                         out["snapshot"]["product.dist"][1])
            tracer.uninstall()
            kernel_ns = kernel_costs(out["snapshot"], tracer.counters)
        checks = Checks()
        check(inputs, out, checks)
        if args.digest and digest:
            got = digest(DEFAULT_SEED)
            checks.add("digest", 1, 0 if got == DIGESTS[args.workload] else 1)
            out["digest"] = got
    finally:
        if tracer:
            tracer.uninstall()
        cleanup(inputs)

    result = {
        "t0": t0,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "known_defects": checks.known_defects,
        "digest": out.get("digest"),
        "numpy": np.__version__,
    }
    if "long_dist_slope" in out:
        result["long_dist_slope"] = out["long_dist_slope"]
    if tracer:
        result["layers"] = layer_metrics(tracer, out, kernel_ns, dist_traced_ns)
        # [name, start, end, parent, work], times in seconds from the pass start
        result["spans"] = [[name, start - w0, end - w0, parent, work]
                           for name, start, end, parent, work in tracer.spans]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
