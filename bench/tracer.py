"""Spans around calls into the library's layers, recorded from outside it.

The tracer replaces the names one module uses to call another (for example
``sec_transfer.transfer.decompose``) with wrappers that record a span: name,
start, end, parent span and thread.  Nested calls therefore become child
spans, and a layer's self time is its spans' duration minus the time their
children cover.  Spans stay in memory and are written out once, at the end
of the run.  Nothing in the package is edited; the wrappers are removed
when the traced pass ends.

Spans opened on a worker thread with no open span of their own take the
innermost open span of the thread that started the pass as their parent,
so the sampling chunks ``monte_carlo_max`` hands to its thread pool are
counted as its children.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _mb(path) -> float:
    return os.path.getsize(path) / 1e6


def _decompose_counts(args, result) -> dict:
    built = len(args[1].blocks) ** 2
    useful = sum(1 for e1, e2 in result.coh_blocks if e1 == e2)
    return {"blocks_built": built, "useful": useful}


def _samples(args, kwargs) -> int:
    return int(args[2] if len(args) > 2 else kwargs["count"])


# (module, name the module calls, span name, counts from (args, kwargs, result))
LAYER_CALLS = [
    ("cli", "decompose", "states.decompose", lambda a, k, r: _decompose_counts(a, r)),
    ("cli", "analyze", "transfer.analyze", None),
    ("cli", "transfer_direct", "transfer.transfer_direct", None),
    ("cli", "maximize_transfer_exact", "optimize.maximize_transfer_exact", None),
    ("cli", "optimal_diagonal_unitary", "optimize.optimal_diagonal_unitary", None),
    ("cli", "monte_carlo_max", "optimize.monte_carlo_max", None),
    ("cli", "classify_flow", "classify.classify_flow", None),
    ("cli", "thermal_product", "classify.constructors", None),
    ("cli", "passive_max_active_product", "classify.constructors", None),
    ("cli", "max_transfer_2q", "qubits.max_transfer_2q", None),
    ("cli", "plane_scan", "qubits.plane_scan", lambda a, k, r: {"rows": len(r)}),
    ("cli", "sample_haar", "unitaries.sample_haar", None),
    ("formats", "load_problem", "formats.load_problem", lambda a, k, r: {"mb": _mb(a[0])}),
    ("formats", "BipartiteState", "states.admit", None),
    ("formats", "build_joint_spectrum", "spectra.build_joint_spectrum",
     lambda a, k, r: {"blocks": len(r.blocks)}),
    ("formats", "transfer_report_to_json", "formats.to_json", None),
    ("formats", "optimization_result_to_json", "formats.to_json", None),
    ("formats", "flow_classification_to_json", "formats.to_json", None),
    ("formats", "dump_json", "formats.dump_json", lambda a, k, r: {"mb": _mb(a[1])}),
    ("formats", "write_plane_scan_csv", "formats.write_plane_scan_csv",
     lambda a, k, r: {"mb": _mb(a[1])}),
    ("transfer", "decompose", "states.decompose", lambda a, k, r: _decompose_counts(a, r)),
    ("transfer", "transfer_direct", "transfer.transfer_direct", None),
    ("transfer", "evolve", "unitaries.evolve", None),
    ("transfer", "transfer_diagonal", "transfer.blockwise", None),
    ("transfer", "transfer_coherent", "transfer.blockwise", None),
    ("optimize", "decompose", "states.decompose", lambda a, k, r: _decompose_counts(a, r)),
    ("optimize", "sample_haar_blocks", "unitaries.sample_haar_blocks",
     lambda a, k, r: {"samples": _samples(a, k)}),
    ("optimize", "batch_transfers", "transfer.batch_transfers", None),
    ("optimize", "transfer_direct", "transfer.transfer_direct", None),
    ("classify", "decompose", "states.decompose", lambda a, k, r: _decompose_counts(a, r)),
    ("unitaries", "sample_haar_blocks", "unitaries.sample_haar_blocks",
     lambda a, k, r: {"samples": _samples(a, k)}),
    ("verify", "run_all", "verify.run_all", None),
]


class Tracer:
    """Collects spans in memory; one instance per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._home = self._stack()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else (self._home[-1] if self._home else None)
        record = Span(next(self._ids), name, parent.id if parent else None,
                      threading.get_ident(), time.perf_counter())
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrap(self, fn, name: str, counter=None):
        @functools.wraps(fn, updated=())
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counter is not None:
                record.counts = counter(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, package: str = "sec_transfer"):
        """Swap every name in LAYER_CALLS for its traced wrapper, then restore."""
        saved = []
        try:
            for module_name, attr, span_name, counter in LAYER_CALLS:
                module = importlib.import_module(f"{package}.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, span_name, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        Path(path).write_text(json.dumps([asdict(s) for s in self.spans]), encoding="utf-8")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (children on two threads may overlap)."""
    total = 0.0
    reach = float("-inf")
    for lo, hi in sorted(intervals):
        lo = max(lo, reach)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: summed duration minus the time child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        inner = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
        out[s.name] += (s.end - s.start) - _covered(inner)
    return dict(out)


def count_totals(spans: list[Span]) -> dict[str, float]:
    """Per ``<span name>.<count>``: the sum over all spans of that name."""
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        for key, value in s.counts.items():
            out[f"{s.name}.{key}"] += value
    return dict(out)


def child_time(spans: list[Span], parent: Span) -> float:
    """Time covered by the direct children of one span."""
    return _covered([(c.start, c.end) for c in spans if c.parent == parent.id])
