"""Spans around the benchmark's calls into copartial's layers.

The benchmark never reaches inside the package: a traced run hands the op
code a namespace whose public functions are wrapped, so every call the
benchmark makes into ``delay``, ``semantics``, ``laws``, ``fixpoint``,
``nested``, ``reccode`` or ``lazy`` (and every ``cli`` child process) becomes
a span.  Spans live in memory and are written out when the run ends.

A traced call holds its arguments until it returns, so a traced ``run_for``
keeps alive every step it forces; ``trace.overhead_ratio`` includes that.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter_ns
from types import SimpleNamespace

MODULES = ("delay", "semantics", "laws", "fixpoint", "nested", "reccode", "lazy")


class Tracer:
    """Records ``[name, start_ns, end_ns, parent, op]`` for each span."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op: int | None = None

    def call(self, name, fn, *args, **kwargs):
        record = [name, 0, 0, self._open[-1] if self._open else None, self.op]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = perf_counter_ns()
            self._open.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        traced.__name__ = fn.__name__
        return traced

    def total_s(self, name: str, first: int = 0) -> float:
        """Summed duration of the spans called ``name``, from span ``first`` on."""
        return sum(s[2] - s[1] for s in self.spans[first:] if s[0] == name) / 1e9

    def self_times_s(self) -> dict[str, float]:
        """Self time per layer: span duration minus what its children cover.

        A span's layer is its name up to the first dot; the harness's own
        root spans are named ``bench.*``.
        """
        covered = [0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _parent, _op), inner in zip(self.spans, covered):
            totals[name.split(".", 1)[0]] += (end - start - inner) / 1e9
        return dict(totals)

    def dump(self, path, phase: str) -> None:
        with open(path, "a") as f:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                f.write(json.dumps({"phase": phase, "id": i, "name": name,
                                    "start_ns": start, "end_ns": end,
                                    "parent": parent, "op": op}) + "\n")


def load_package() -> SimpleNamespace:
    """The package's layer modules, untraced."""
    return SimpleNamespace(**{m: importlib.import_module(f"copartial.{m}") for m in MODULES})


def traced_package(raw: SimpleNamespace, tracer: Tracer) -> SimpleNamespace:
    """Same names as ``raw``, with every public function wrapped in a span.

    Classes and constants pass through unchanged so ``isinstance`` checks
    on results keep working.
    """
    layers = {}
    for m in MODULES:
        mod = getattr(raw, m)
        layers[m] = SimpleNamespace(**{
            name: tracer.wrap(f"{m}.{name}", obj) if inspect.isfunction(obj) else obj
            for name in mod.__all__
            for obj in (getattr(mod, name),)
        })
    return SimpleNamespace(**layers)
