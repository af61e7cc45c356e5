"""Command-line front end.

Machine-first output: every command prints JSON (or JSON-lines for
``ball``) on stdout; ``--pretty`` only reformats it.  Exit codes:
0 success, 1 verification failure, 2 usage error, reported as one
line on stderr.  That covers the options too: integers are read as
canonical decimals (``tree.parse_decimal``), and ``verify`` refuses an
option its suite does not take.  Identical invocations produce
byte-identical payloads.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import sys

from .tree import TreeSpec, UndecidableFamilyError, parse_decimal
from .product import HoroProduct, product_dist
from .boundary import evaluate, parse_point, require_valid_point
from .limits import agreement, classify, family_from_json


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse, with its usage errors raised as UsageError, so they are
    reported in one line like every other usage error."""

    def error(self, message):
        raise UsageError(message)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError(f"{path} does not hold a JSON object")
    return data


def _load_specs(path: str) -> list[tuple[str, TreeSpec]]:
    data = _load_json(path)
    if "family" in data:
        return [("tree", TreeSpec.from_json(data))]
    if "tree1" in data and "tree2" in data:
        return [("tree1", TreeSpec.from_json(data["tree1"])),
                ("tree2", TreeSpec.from_json(data["tree2"]))]
    raise UsageError(f"{path} holds neither a tree nor a product description")


def _load_product(path: str, data: dict | None = None) -> HoroProduct:
    """The product in a spec file, or under its 'spec' entry."""
    data = _load_json(path) if data is None else data
    spec = data.get("spec", data)
    if not isinstance(spec, dict) or "tree1" not in spec or "tree2" not in spec:
        raise UsageError(f"{path} does not describe a product of two trees")
    return HoroProduct(TreeSpec.from_json(spec["tree1"]),
                       TreeSpec.from_json(spec["tree2"]))


def _emit(payload, pretty: bool) -> None:
    print(json.dumps(payload, indent=2 if pretty else None, sort_keys=True))


def cmd_validate(args) -> int:
    results = {}
    failed = False
    for label, spec in _load_specs(args.spec):
        violation = spec.validate()
        if violation is None:
            results[label] = {"ok": True}
        else:
            failed = True
            results[label] = {"ok": False, **violation.payload()}
    _emit(results, args.pretty)
    return 1 if failed else 0


def cmd_ball(args) -> int:
    product = _load_product(args.spec)
    for v in product.ball(args.radius):
        print(json.dumps(str(v)))
    return 0


def cmd_dist(args) -> int:
    product = _load_product(args.spec)
    v = product.parse_vertex(args.v)
    w = product.parse_vertex(args.w)
    formula = product_dist(v, w)
    payload = {"v": str(v), "w": str(w), "dist": formula}
    code = 0
    if args.oracle:
        cap = args.radius if args.radius is not None else formula + 2
        bfs = product.dist_bfs(v, w, cap)
        payload["bfs"] = bfs if bfs is not None else "out_of_range"
        payload["oracle_agrees"] = bfs == formula
        if bfs != formula:
            code = 1
    _emit(payload, args.pretty)
    return code


def cmd_busemann(args) -> int:
    product = _load_product(args.spec)
    if ":" in args.function:  # vertex forms never contain a colon
        anchor = parse_point(args.function)
        require_valid_point(product, anchor)
    else:
        anchor = product.parse_vertex(args.function)
    at = product.parse_vertex(args.at)
    _emit({"function": str(anchor), "at": str(at),
           "value": evaluate(anchor, at)}, args.pretty)
    return 0


def cmd_classify(args) -> int:
    data = _load_json(args.family)
    if "spec" not in data or "family" not in data:
        raise UsageError("family file needs 'spec' and 'family' entries")
    product = _load_product(args.family, data)
    try:
        family = family_from_json(data["family"])
    except ValueError as exc:
        raise UsageError(f"bad family file: {exc}") from exc
    report = classify(product, family)
    emp, agreed = agreement(product, family, report, args.radius, args.window)
    _emit({"symbolic": report.payload(), "empirical": emp.payload(),
           "agreement": agreed}, args.pretty)
    return 0 if agreed else 1


def cmd_verify(args) -> int:
    from . import verify
    suite_fn = verify.SUITES.get(args.suite)
    if suite_fn is None:
        raise UsageError(f"unknown suite {args.suite!r}; choose from "
                         + ", ".join(sorted(verify.SUITES)))
    accepted = inspect.signature(suite_fn).parameters
    kwargs = {}
    for name in ("radius", "seed", "steps", "trajectories"):
        value = getattr(args, name)
        if value is None:
            continue
        if name not in accepted:
            raise UsageError(f"suite {args.suite} takes no --{name} option")
        kwargs[name] = value
    result = suite_fn(**kwargs)
    print(f"{'PASS' if result.ok else 'FAIL'} {result.name} "
          f"({result.seconds:.1f}s)", file=sys.stderr)
    _emit(result.payload(), args.pretty)
    return 0 if result.ok else 1


def _writing(path: str, write) -> None:
    """write(), with an OSError reported as a usage error naming path."""
    try:
        write()
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def cmd_walk(args) -> int:
    from .walk import WalkConfig, drift_report, simulate, write_trace_csv
    data = _load_json(args.config)
    try:
        config = WalkConfig.from_json(data)
    except (KeyError, ValueError) as exc:
        raise UsageError(f"bad walk config: {exc}") from exc
    if args.max_total_steps is not None:
        config = dataclasses.replace(config, max_total_steps=args.max_total_steps)
    paths = [args.csv if config.trajectories == 1 else f"{args.csv}.{i}"
             for i in range(config.trajectories)] if args.csv else []
    if paths and config.record_stride == 0:
        raise UsageError("config has record_stride 0, nothing to trace")
    for path in paths:
        # open each trace before the walk, and leave no new file behind
        new = not os.path.exists(path)
        _writing(path, lambda: open(path, "a").close())
        if new:
            os.remove(path)
    result = simulate(config)
    for stats, path in zip(result.trajectories, paths):
        _writing(path, lambda: write_trace_csv(path, stats, len(config.probes)))
    for path in paths[len(result.trajectories):]:
        # an earlier run's trace of a trajectory this run never walked
        if os.path.exists(path):
            _writing(path, lambda: os.remove(path))
    report = drift_report(result)
    _emit(report, args.pretty)
    return 1 if result.partial else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="horoprod",
        description="Exact geometry of horospheric products of pointed trees")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--pretty", action="store_true",
                       help="indent the JSON output")
        return p

    p = add("validate", cmd_validate, "check degree rules of a tree or product")
    p.add_argument("--spec", required=True, help="tree or product JSON file")

    p = add("ball", cmd_ball, "stream a product ball as JSON-lines")
    p.add_argument("--spec", required=True)
    p.add_argument("--radius", type=_decimal, required=True)

    p = add("dist", cmd_dist, "closed-form distance, optionally BFS-checked")
    p.add_argument("--spec", required=True)
    p.add_argument("v", help="product vertex, e.g. '0;0|1;'")
    p.add_argument("w")
    p.add_argument("--oracle", action="store_true")
    p.add_argument("--radius", type=_decimal, help="breadth-first search cap")

    p = add("busemann", cmd_busemann, "evaluate a boundary or vertex function")
    p.add_argument("--spec", required=True)
    p.add_argument("function",
                   help="'C1:<ray>', 'C2:<ray>', 'T1:<vertex>', 'T2:<vertex>',"
                        " 'Z:<k>', or a product vertex for interior anchors")
    p.add_argument("at", help="product vertex to evaluate at")

    p = add("classify", cmd_classify, "limit classification of a family file")
    p.add_argument("--family", required=True, help="JSON with spec and family")
    p.add_argument("--radius", type=_decimal, default=4)
    p.add_argument("--window", type=_parse_window,
                   help="explicit empirical window 'n0:n1'")

    p = add("verify", cmd_verify, "run a named verification suite")
    p.add_argument("suite")
    p.add_argument("--radius", type=_decimal)
    p.add_argument("--seed", type=_decimal)
    p.add_argument("--steps", type=_decimal)
    p.add_argument("--trajectories", type=_decimal)

    p = add("walk", cmd_walk, "simulate biased walks from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--csv", help="trace output path (suffixed per trajectory)")
    p.add_argument("--max-total-steps", type=_decimal,
                   help="resource cap; exceeding it flags a partial result")
    return parser


def _decimal(text: str) -> int:
    try:
        return parse_decimal(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_window(text: str) -> tuple[int, int]:
    try:
        a, b = text.split(":")
        return parse_decimal(a), parse_decimal(b)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("window must look like 'n0:n1'") from exc


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except (UsageError, UndecidableFamilyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
