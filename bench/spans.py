"""In-memory span recorder for the traced benchmark run.

The recorder replaces module-level names of the program with wrappers
that record one span per call: name, start, end, parent span and the
counts read off the call's result.  Spans stay in memory until the run
writes them out.  Nothing inside the program is instrumented; a wrapper
sees a call only where the pipeline looks the name up in its module.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional


def _graph_size(args, g):
    return {"nodes": len(g.nodes), "edges": sum(map(len, g.succ))}


def _parsed(args, spec):
    return {"bytes": len(args["text"].encode()), "states": len(spec.states)}


# (module, attribute, span name, counts read off the bound arguments and
# the result).  The span name is where the function is defined, so a
# name imported into another module keeps its own layer.
TARGETS = (
    ("popverify.verifier", "compile_rules", "models.compile_rules",
     lambda args, rs: {"rules": len(rs.rules)}),
    ("popverify.verifier", "explore", "verifier.explore", _graph_size),
    ("popverify.verifier", "label_stability", "verifier.label_stability", None),
    ("popverify.verifier", "verdict", "verifier.verdict",
     lambda args, v: {"input": str(args["x"])}),
    ("popverify.verifier", "sweep", "verifier.sweep",
     lambda args, r: {"inputs": len(r.entries), "budget_failures": len(r.budget_failures)}),
    ("popverify.verifier", "fair_run", "verifier.fair_run",
     lambda args, t: {"steps": t.steps}),
    ("popverify.verifier", "minimal_unstable", "verifier.minimal_unstable",
     lambda args, a: {"unstable": len(a.unstable), "minimal": len(a.minimal)}),
    ("popverify.protofile", "parse", "protofile.parse", _parsed),
    ("popverify.protofile", "emit", "protofile.emit", None),
    ("popverify.transforms", "two_way_to_queued_tokens",
     "transforms.two_way_to_queued_tokens", None),
    ("popverify.semilinear", "parse_predicate", "semilinear.parse_predicate", None),
    ("popverify.cli", "parse_predicate", "semilinear.parse_predicate", None),
    ("popverify.cli", "main", "cli.main", None),
)


class LayerMissing(RuntimeError):
    """A name the recorder wraps is gone from its module."""


def resolve_targets() -> list:
    """Look up every wrapped name; raise if one disappeared, so that a
    refactor cannot silently drop a layer metric."""
    found = []
    for module_name, attr, span_name, counts in TARGETS:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise LayerMissing(
                f"{module_name}.{attr} is missing; the benchmark times the "
                f"{span_name} layer through it"
            )
        found.append((module, attr, span_name, counts, fn))
    return found


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Optional[int] = None
    attrs: dict = field(default_factory=dict)


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._targets = resolve_targets()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(Span(name, 0.0, parent=self._open[-1] if self._open else None))
        self._open.append(idx)
        self.spans[idx].start = time.perf_counter()
        try:
            yield self.spans[idx]
        finally:
            self.spans[idx].end = time.perf_counter()
            self._open.pop()

    def _wrapper(self, fn: Callable, span_name: str, counts):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(span_name) as sp:
                result = fn(*args, **kwargs)
            if counts is not None:
                sp.attrs.update(counts(sig.bind(*args, **kwargs).arguments, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        for module, attr, span_name, counts, fn in self._targets:
            setattr(module, attr, self._wrapper(fn, span_name, counts))
        try:
            yield self
        finally:
            for module, attr, _, _, fn in self._targets:
                setattr(module, attr, fn)

    def roots(self, name: str) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.parent is None and s.name == name]

    def layers(self, root: int) -> dict:
        """Per-layer totals over the spans below one root span.

        Each layer gets ``calls``, ``self_s`` (duration minus the time its
        child spans cover), ``total_s``, the sum of every numeric count,
        and ``max_<count>``.
        """
        below = self._below(root)
        child_time = defaultdict(float)
        for i in below:
            s = self.spans[i]
            child_time[s.parent] += s.end - s.start
        out: dict = defaultdict(lambda: defaultdict(float))
        for i in below:
            s = self.spans[i]
            layer = out[s.name]
            layer["calls"] += 1
            layer["total_s"] += s.end - s.start
            layer["self_s"] += s.end - s.start - child_time[i]
            for key, value in s.attrs.items():
                if isinstance(value, int):
                    layer[key] += value
                    layer["max_" + key] = max(layer["max_" + key], value)
        return out

    def children_attrs(self, root: int, parent_name: str, child_name: str) -> list:
        """(parent attrs, child attrs) for each child_name span whose
        parent is a parent_name span below ``root``."""
        pairs = []
        for i in self._below(root):
            s, p = self.spans[i], self.spans[self.spans[i].parent]
            if s.name == child_name and p.name == parent_name:
                pairs.append((p.attrs, s.attrs))
        return pairs

    def _below(self, root: int) -> range:
        """Indices of the spans below ``root``.  Calls nest, so they are
        the spans recorded after it up to the first one outside it."""
        end = root + 1
        while end < len(self.spans) and self.spans[end].start < self.spans[root].end:
            end += 1
        return range(root + 1, end)

    def write(self, path) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.attrs] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "attrs"], "spans": rows}, fh)
