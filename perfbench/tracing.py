"""In-memory tracing of the library's layers, installed from outside.

Nothing inside ``src/`` knows about this module.  ``Tracer.install``
replaces public entry points of the horoprod modules with wrappers and
``Tracer.uninstall`` puts the originals back, so an untraced process
runs the library exactly as shipped.

Two kinds of wrapper:

- spans, for calls made at most a few thousand times per run: each
  call appends ``[name, start, end, parent, work]`` to ``Tracer.spans``
  (``parent`` is the index of the enclosing span, -1 at top level;
  ``work`` is an optional size, such as the number of vertices a ball
  holds or the number of steps a simulation ran);
- counters, for kernels called up to millions of times (``tree_dist``,
  ``product_dist``, ``product_busemann``, ``evaluate``,
  ``label_count``): a call count plus an evenly spaced sample of
  arguments.  Their cost per call is measured afterwards by
  ``ns_per_call`` on that sample, since a span per call would swamp
  the numbers.

``level_sequence`` is a generator, so it gets a third wrapper that
counts the vertices it yields and the time spent producing them.
"""

from __future__ import annotations

import functools
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

from horoprod import boundary, limits, product, rays, tree, verify, walk

SAMPLE_CAP = 2048

# (module or class, attribute, span name, work measure or None)
SPANNED = (
    (verify, "metric_oracle_suite", "verify.metric_oracle_suite", None),
    (verify, "isomorphism_suite", "verify.isomorphism_suite", None),
    (verify, "boundary_function_suite", "verify.boundary_function_suite", None),
    (product.HoroProduct, "ball_graph", "product.ball_graph", lambda r: len(r[0])),
    (product.HoroProduct, "ball", "product.ball", len),
    (limits, "classify", "limits.classify", None),
    (limits, "stabilization_bound", "limits.stabilization_bound", None),
    (limits, "empirical_pointwise_check", "limits.empirical_check", None),
    (walk, "drift_report", "walk.drift_report", None),
    (walk, "write_trace_csv", "walk.write_trace_csv", None),
)

COUNTED = (
    (tree, "tree_dist", "tree.tree_dist"),
    (product, "product_dist", "product.dist"),
    (product, "product_busemann", "product.busemann"),
    (boundary, "evaluate", "boundary.evaluate"),
    (tree.TreeSpec, "label_count", "tree.label_count"),
)


def _counted(fn):
    """Wrap fn with a call counter and an evenly spaced argument sample.

    The sample keeps every stride-th call; when it reaches SAMPLE_CAP it
    drops every other entry and the stride doubles, so it always spans
    the whole run.
    """
    calls = 0
    due = 1
    stride = 1
    sample = []

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        nonlocal calls, due, stride
        calls += 1
        if calls == due:
            sample.append((args, kwargs))
            due += stride
            if len(sample) == SAMPLE_CAP:
                del sample[1::2]
                stride *= 2
        return fn(*args, **kwargs)

    wrapper.snapshot = lambda: (calls, list(sample))
    return wrapper


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.counters: dict[str, tuple] = {}   # name -> (original, wrapper)
        self.generated = {"vertices": 0, "seconds": 0.0}

    @contextmanager
    def span(self, name: str, work: int = 0):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i, work)

    def _open(self, name: str) -> int:
        i = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, 0])
        self._stack.append(i)
        self.spans[i][1] = perf_counter()
        return i

    def _close(self, i: int, work: int) -> None:
        self.spans[i][2] = perf_counter()
        self.spans[i][4] = work
        self._stack.pop()

    def _spanned(self, fn, name, measure):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(i, measure(result) if measure and result is not None else 0)
        return wrapper

    def _generator(self, fn):
        stats = self.generated

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                t = perf_counter()
                try:
                    v = next(it)
                except StopIteration:
                    stats["seconds"] += perf_counter() - t
                    return
                stats["seconds"] += perf_counter() - t
                stats["vertices"] += 1
                yield v
        return wrapper

    def _replace(self, owner, attr, new) -> None:
        """Point every reference to owner.attr inside horoprod at new."""
        old = owner.__dict__[attr]
        if isinstance(owner, type):
            self._undo.append((owner, attr, old))
            setattr(owner, attr, new)
            return
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("horoprod"):
                continue
            for name, val in list(vars(mod).items()):
                if val is old:
                    self._undo.append((mod, name, old))
                    setattr(mod, name, new)

    def install(self) -> None:
        for owner, attr, name, measure in SPANNED:
            self._replace(owner, attr,
                          self._spanned(owner.__dict__[attr], name, measure))
        for owner, attr, name in COUNTED:
            fn = owner.__dict__[attr]
            wrapper = _counted(fn)
            self.counters[name] = (fn, wrapper)
            self._replace(owner, attr, wrapper)
        self._replace(rays, "level_sequence",
                      self._generator(rays.__dict__["level_sequence"]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- reading the trace ---------------------------------------------------

    def durations(self, name: str) -> list[float]:
        """Durations of the spans with this name, leaving out those nested
        in a span of the same name (recursive calls)."""
        return [s[2] - s[1] for s in self.spans
                if s[0] == name and not self._inside(s[3], name)]

    def _inside(self, parent: int, name: str) -> bool:
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def work(self, name: str) -> int:
        return sum(s[4] for s in self.spans if s[0] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def snapshot(self) -> dict[str, tuple[int, list]]:
        """name -> (calls, argument sample) for every counted kernel."""
        return {name: w.snapshot() for name, (_, w) in self.counters.items()}


def ns_per_call(fn, sample, min_seconds: float = 0.02, trials: int = 3) -> float:
    """Median over trials of the mean ns per call of fn over the sample."""
    if not sample:
        return 0.0
    results = []
    for _ in range(trials):
        n = 0
        t0 = perf_counter()
        while True:
            for args, kwargs in sample:
                fn(*args, **kwargs)
            n += len(sample)
            elapsed = perf_counter() - t0
            if elapsed >= min_seconds:
                break
        results.append(elapsed / n * 1e9)
    return statistics.median(results)
