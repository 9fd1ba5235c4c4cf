"""Spans around calls into the library's public functions, for the traced run.

A wrapper is installed by rebinding every module attribute of ``hyperbck``
that holds the original function, so calls are traced however they are
looked up: ``hyperbck.corpus.hk_axioms_hold_raw`` from the model search,
``hyperbck.category.is_hom`` from the constructions, the deferred
``from .corpus import enumerate_hyper_bck`` of the mono probe.  Wrappers
around ``lru_cache`` functions call the cached original.  Functions called
tens of millions of times per run (``iter_bits``, ``Carrier.__len__``) are
not wrapped; their cost stays in their callers' self time.

Each span records a name, start, end, parent span and op id.  Spans stay in
memory in flat arrays and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Iterator

# module -> functions wrapped in the traced run, in report order
TRACED = {
    "cli": ("main",),
    "corpus": ("enumerate_hyper_bck", "canonical_table", "enumerate_fuzzy_assignments"),
    "core": ("hk_axioms_hold_raw", "hk_axioms_hold", "validate_hyper_bck"),
    "fuzzy": ("validate_fuzzy", "fuzzy_condition_holds"),
    "morphisms": (
        "is_hom",
        "is_fuzzy_hom",
        "fuzzy_hom_via_cuts",
        "enumerate_homs",
        "check_mono_equivalence",
    ),
    "category": (
        "product",
        "mediate_product",
        "equalizer",
        "pullback",
        "coequalizer",
        "mediate_coequalizer",
        "enumerate_regular_congruences",
    ),
    "io": ("render_structure", "parse_structure", "parse_hom_document"),
}

TAIL_LADDER = (0.99999, 0.9999, 0.999, 0.99, 0.9)
MIN_BEYOND = 10


class Tracer:
    """In-memory span store plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = 0
        self.counts: Counter = Counter()
        self.searches: dict[int, Counter] = defaultdict(Counter)  # model search by size

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add_span(self, name: str, start: float, end: float, parent: int = -1, op: int = 0) -> int:
        """Append a finished span (for spans built by hand); returns its index."""
        self.name.append(self.name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.op.append(op)
        return len(self.start) - 1

    def parent_name(self) -> str | None:
        """Name of the span enclosing the current call, if any."""
        return self.names[self.name[self.stack[-1]]] if self.stack else None

    def wrap(
        self,
        name: str,
        fn: Callable,
        after: Callable | None = None,
        on_error: Callable | None = None,
    ) -> Callable:
        """A traced stand-in for ``fn``; ``after(args, result)`` runs once the span closes."""
        nid = self.name_id(name)
        names, starts, ends, parents, ops, stack = (
            self.name,
            self.start,
            self.end,
            self.parent,
            self.op,
            self.stack,
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            ends[idx] = clock()
            starts[idx] = t0
            stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__bench_traced__ = name
        return traced

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its child spans cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def root_time(self) -> float:
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0)

    def write(self, path: Path) -> None:
        """Write all spans: one JSON header line, then the columns' raw bytes."""
        columns = [
            ("name", self.name),
            ("start", self.start),
            ("end", self.end),
            ("parent", self.parent),
            ("op", self.op),
        ]
        header = {
            "names": self.names,
            "count": len(self.start),
            "columns": [[col, arr.typecode] for col, arr in columns],
        }
        with path.open("wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, arr in columns:
                arr.tofile(fh)


def read_spans(path: Path) -> Tracer:
    """Load a span file written by :meth:`Tracer.write`."""
    tracer = Tracer()
    with path.open("rb") as fh:
        header = json.loads(fh.readline())
        for name in header["names"]:
            tracer.name_id(name)
        for col, _ in header["columns"]:
            getattr(tracer, col).fromfile(fh, header["count"])
    return tracer


def _counter_hooks(tracer: Tracer, lib: SimpleNamespace) -> dict[str, dict]:
    """The counts measured at function boundaries, keyed by traced name."""
    counts = tracer.counts
    search_parent = "corpus.enumerate_hyper_bck"
    claim_cls = lib.core.ClaimViolation

    def leaf(args, ok):
        counts["core.hk_axioms_hold_raw.true"] += ok
        if tracer.parent_name() == search_parent:
            search = tracer.searches[args[0]]
            search["leaves"] += 1
            search["survivors"] += ok

    def canonical(args, best):
        tracer.searches[args[0]]["canonical_kept"] += best == tuple(args[2])

    def assignments(args, out):
        counts["corpus.assignments_kept"] += len(out)
        counts["corpus.assignments_tried"] += len(args[1]) ** len(args[0].carrier)

    def violations(args, rep):
        counts["core.violations_reported"] += len(rep.violations)

    def claim(exc):
        parent = tracer.parent_name()
        if isinstance(exc, claim_cls) and not (parent or "").startswith("category."):
            counts["category.claim_violations"] += 1

    hooks: dict[str, dict] = {
        "core.hk_axioms_hold_raw": {"after": leaf},
        "corpus.canonical_table": {"after": canonical},
        "corpus.enumerate_fuzzy_assignments": {"after": assignments},
        "core.validate_hyper_bck": {"after": violations},
        "io.render_structure": {
            "after": lambda args, text: counts.update({"io.render_structure.bytes": len(text)})
        },
        "io.parse_structure": {
            "after": lambda args, obj: counts.update({"io.parse_structure.bytes": len(args[0])})
        },
    }
    for fn in TRACED["category"]:
        hooks[f"category.{fn}"] = {"on_error": claim}
    return hooks


@contextmanager
def installed(tracer: Tracer, lib: SimpleNamespace) -> Iterator[dict[str, Callable]]:
    """Rebind every ``hyperbck`` module attribute holding a traced function.

    Yields the originals by traced name; on exit every rebound attribute is
    its original object again.
    """
    modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "hyperbck"]
    hooks = _counter_hooks(tracer, lib)
    originals: dict[str, Callable] = {}
    rebound: list[tuple[object, str, Callable]] = []
    try:
        for mod_name, fns in TRACED.items():
            module = getattr(lib, mod_name)
            for fn_name in fns:
                name = f"{mod_name}.{fn_name}"
                original = getattr(module, fn_name)
                originals[name] = original
                wrapper = tracer.wrap(name, original, **hooks.get(name, {}))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            rebound.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        yield originals
    finally:
        for mod, attr, original in reversed(rebound):
            setattr(mod, attr, original)


def percentile_rank(n: int, q: float) -> int:
    """1-based nearest rank of percentile ``q`` among ``n`` sorted samples."""
    return min(n, max(1, -(-round(q * 1_000_000) * n // 1_000_000)))


def tail(sorted_values: list[float]) -> tuple[float, float]:
    """The highest ladder percentile with at least ten samples beyond it.

    Returns ``(percentile, value)``; with fewer than twenty samples no rung
    qualifies and the median stands in, reported as percentile 0.5.
    """
    n = len(sorted_values)
    for q in TAIL_LADDER:
        if n - percentile_rank(n, q) >= MIN_BEYOND:
            return q, sorted_values[percentile_rank(n, q) - 1]
    return 0.5, statistics.median(sorted_values)


def report(
    tracer: Tracer,
    lib: SimpleNamespace,
    originals: dict[str, Callable],
    traced_wall: float,
    untraced_wall: float,
) -> tuple[dict[str, float], dict]:
    """Per-layer metrics from the spans, plus the details behind them."""
    own = tracer.self_times()
    by_name: dict[str, list[float]] = {}
    self_sum: Counter = Counter()
    for i, nid in enumerate(tracer.name):
        name = tracer.names[nid]
        by_name.setdefault(name, []).append(tracer.end[i] - tracer.start[i])
        self_sum[name] += own[i]

    metrics: dict[str, float] = {}
    tails: dict[str, float] = {}
    module_self: Counter = Counter()
    for mod_name, fns in TRACED.items():
        module_self[mod_name] += 0.0
        for fn_name in fns:
            name = f"{mod_name}.{fn_name}"
            durations = sorted(by_name.get(name, []))
            metrics[f"{name}.calls"] = len(durations)
            metrics[f"{name}.self_s"] = self_sum[name]
            module_self[mod_name] += self_sum[name]
            if durations:
                q, value = tail(durations)
                metrics[f"{name}.p50_us"] = statistics.median(durations) * 1e6
                metrics[f"{name}.tail_us"] = value * 1e6
                tails[name] = q
            else:
                metrics[f"{name}.p50_us"] = 0.0
                metrics[f"{name}.tail_us"] = 0.0
    for mod_name, total in module_self.items():
        metrics[f"{mod_name}.self_s"] = total

    c = tracer.counts
    # the search counters describe the largest search of the run
    search = tracer.searches[max(tracer.searches)] if tracer.searches else Counter()
    leaves, survivors, kept = search["leaves"], search["survivors"], search["canonical_kept"]
    raw_calls = metrics["core.hk_axioms_hold_raw.calls"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def hit_ratio(fn: Callable) -> float:
        info = fn.cache_info()
        return ratio(info.hits, info.hits + info.misses)

    metrics.update(
        {
            "corpus.leaves_checked": leaves,
            "corpus.leaf_yield": ratio(survivors, leaves),
            "corpus.canonical_kept_ratio": ratio(kept, survivors),
            "corpus.assignment_yield": ratio(
                c["corpus.assignments_kept"], c["corpus.assignments_tried"]
            ),
            "core.hk_axioms_hold_raw.true_ratio": ratio(c["core.hk_axioms_hold_raw.true"], raw_calls),
            "core.violations_reported": c["core.violations_reported"],
            "morphisms.enumerate_homs.hit_ratio": hit_ratio(originals["morphisms.enumerate_homs"]),
            "category.enumerate_regular_congruences.hit_ratio": hit_ratio(
                originals["category.enumerate_regular_congruences"]
            ),
            "category.claim_violations": c["category.claim_violations"],
            "io.render_structure.bytes": c["io.render_structure.bytes"],
            "io.parse_structure.bytes": c["io.parse_structure.bytes"],
            "bench.unattributed_s": traced_wall - tracer.root_time(),
            "bench.trace_overhead_s": traced_wall - untraced_wall,
        }
    )
    shares = sorted(
        ((self_sum[n] / traced_wall, n) for n in self_sum if traced_wall), reverse=True
    )
    details = {
        "spans": len(tracer.start),
        "traced_wall_s": traced_wall,
        "tail_percentile": tails,
        "searches": {str(n): dict(sorted(s.items())) for n, s in sorted(tracer.searches.items())},
        "self_share": {n: round(s, 4) for s, n in shares},
        "module_self_s": {m: round(t, 4) for m, t in module_self.most_common()},
    }
    return metrics, details
