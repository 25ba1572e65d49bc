"""Spans for the traced benchmark run, recorded from outside the program.

``install(tracer)`` replaces attributes of flatlink's modules with wrappers
that open a span around each call, or around each resumption of the iterator
a call returns (the stages are lazy generators, so their work happens while
the consumer iterates).  Spans nest by the dynamic call stack: a span's
``self_s`` is its busy time minus the busy time of the spans opened inside
it, so every traced second lands in exactly one span's self time.

Hot calls (one per item or per line) are aggregated: all activations of one
name under one parent span and stage share a span, which records the first
start, the last end, the busy and self seconds and the activation count.

A hook whose target no longer exists, or whose signature no longer fits, is
reported as missing and left out; the metrics that need it are then absent.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time
from typing import Iterable, Iterator

# Span names of the stage calls the benchmark makes.
STAGE_SPANS = {
    "compile": "kb_compile.compile_kb",
    "join2": "link_join.join2",
    "join3": "link_join.join3",
    "validate": "tools.validate",
    "stats": "tools.stats",
}

# (hook, module, attribute path, kind, span name).  Kinds: "call" times the
# call; "iter" times each resumption of the returned iterator; "group_by" and
# "external_sort" also time the engine's input streams and reduce functions,
# which belong to the calling stage.
HOOKS = [
    ("kb_compile.iter_triples", "flatlink.kb_compile", "iter_triples", "iter", "rdf_ingest.iter_triples"),
    ("kb_compile.record_from_triples", "flatlink.kb_compile", "record_from_triples", "call", "flat_record.record_from_triples"),
    ("kb_compile.serialize_record", "flatlink.kb_compile", "serialize_record", "call", "flat_record.serialize_record"),
    ("engine.run_group_by", "flatlink.engine", "run_group_by", "group_by", "engine.run_group_by"),
    ("engine.external_sort", "flatlink.engine", "external_sort", "external_sort", "engine.external_sort"),
    ("engine.ExternalSorter.add", "flatlink.engine", "ExternalSorter.add", "call", "engine.ExternalSorter.add"),
    ("engine.ExternalSorter.iter_sorted", "flatlink.engine", "ExternalSorter.iter_sorted", "iter", "engine.ExternalSorter.iter_sorted"),
    ("link_join.load_ground_truth", "flatlink.link_join", "load_ground_truth", "iter", "link_join.load_ground_truth"),
    ("link_join.parse_link_line", "flatlink.link_join", "parse_link_line", "call", "link_join.parse_link_line"),
    ("tools.parse_link_line", "flatlink.tools", "parse_link_line", "call", "link_join.parse_link_line"),
    ("tools.parse_record", "flatlink.tools", "parse_record", "call", "flat_record.parse_record"),
]

_LEADING_PARAMS = {
    "group_by": ("inputs", "key_fn", "reduce_fn"),
    "external_sort": ("items",),
}

# Spans whose self time belongs to the stage that opened them: the stage call
# itself, the input streams it hands the engine and its reduce functions.
_STAGE_OWNED = {
    "engine.run_group_by.input",
    "engine.run_group_by.reduce",
    "engine.external_sort.input",
}


class Span:
    __slots__ = ("id", "name", "stage", "parent", "start", "end", "busy_s", "self_s", "calls")

    def __init__(self, id: int, name: str, stage: str, parent: int | None):
        self.id = id
        self.name = name
        self.stage = stage
        self.parent = parent
        self.start = self.end = None
        self.busy_s = self.self_s = 0.0
        self.calls = 0

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Keeps spans in memory; one instance per traced process."""

    def __init__(self) -> None:
        self.stage = ""
        self.spans: list[Span] = []
        self._index: dict[tuple[str, int, str], Span] = {}
        self._stack: list[list] = []  # [span, start, busy seconds of children]

    def reset(self) -> None:
        self.spans = []
        self._index = {}

    def enter(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        parent_id = parent.id if parent is not None else None
        key = (name, -1 if parent_id is None else parent_id, self.stage)
        span = self._index.get(key)
        if span is None:
            span = self._index[key] = Span(len(self.spans), name, self.stage, parent_id)
            self.spans.append(span)
        now = time.perf_counter()
        if span.start is None:
            span.start = now
        self._stack.append([span, now, 0.0])

    def exit(self) -> None:
        span, start, children = self._stack.pop()
        now = time.perf_counter()
        busy = now - start
        span.busy_s += busy
        span.self_s += busy - children
        span.calls += 1
        span.end = now
        if self._stack:
            self._stack[-1][2] += busy

    def iterate(self, name: str, iterable: Iterable) -> Iterator:
        """Yield from `iterable`, timing each resumption under span `name`."""
        it = iter(iterable)
        try:
            while True:
                self.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.exit()
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()

    def timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return wrapper


def _wrap(tracer: Tracer, kind: str, name: str, orig):
    if kind == "call":
        return tracer.timed(name, orig)
    if kind == "iter":
        return lambda *args, **kwargs: tracer.iterate(name, orig(*args, **kwargs))
    if kind == "group_by":
        def run_group_by(inputs, key_fn, reduce_fn, *args, **kwargs):
            streams = [(tag, tracer.iterate(name + ".input", s)) for tag, s in inputs]

            def reduce(key, tagged):
                return tracer.iterate(name + ".reduce", reduce_fn(key, tagged))

            return tracer.iterate(name, orig(streams, key_fn, reduce, *args, **kwargs))

        return run_group_by

    def external_sort(items, *args, **kwargs):
        return tracer.iterate(name, orig(tracer.iterate(name + ".input", items), *args, **kwargs))

    return external_sort


def install(tracer: Tracer) -> tuple[list, set[str]]:
    """Wrap every hook that resolves; returns (undo list, missing hook names)."""
    undo = []
    missing = set()
    for hook, module_name, path, kind, name in HOOKS:
        try:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            orig = getattr(owner, attr)
            if kind in _LEADING_PARAMS:
                params = tuple(inspect.signature(orig).parameters)
                if params[: len(_LEADING_PARAMS[kind])] != _LEADING_PARAMS[kind]:
                    raise TypeError(f"signature changed: {params}")
        except (ImportError, AttributeError, TypeError, ValueError):
            missing.add(hook)
            continue
        setattr(owner, attr, _wrap(tracer, kind, name, orig))
        undo.append((owner, attr, orig))
    return undo, missing


def uninstall(undo: list) -> None:
    for owner, attr, orig in reversed(undo):
        setattr(owner, attr, orig)


# Metric -> hooks it needs.  Self times need every hook: the time of a
# missing hook would land in some other span's self time.
_ALL_HOOKS = frozenset(h[0] for h in HOOKS)
NEEDS = {
    "rdf_ingest.parse_s": {"kb_compile.iter_triples"},
    "flat_record.build_s": {"kb_compile.record_from_triples", "kb_compile.serialize_record"},
    "flat_record.records_built": {"kb_compile.record_from_triples"},
    "flat_record.parse_s": {"tools.parse_record"},
    "flat_record.records_parsed": {"tools.parse_record"},
    "kb_compile.self_s": _ALL_HOOKS,
    "engine.group_by_self_s": _ALL_HOOKS,
    "engine.add_s": {"engine.ExternalSorter.add"},
    "engine.merge_s": {"engine.ExternalSorter.iter_sorted"},
    "engine.external_sort_s": {"engine.external_sort"},
    "link_join.join2_self_s": _ALL_HOOKS,
    "link_join.join3_self_s": _ALL_HOOKS,
    "link_join.gt_load_s": {"link_join.load_ground_truth"},
    "link_join.parse_link_line_s": {"link_join.parse_link_line", "tools.parse_link_line"},
    "tools.validate_self_s": _ALL_HOOKS,
    "tools.stats_self_s": _ALL_HOOKS,
}


def layer_times(spans: list[Span], missing: set[str]) -> dict[str, float]:
    """Per-layer seconds and call counts of one traced round."""

    def total(attr: str, names: set[str], stage: str | None = None) -> float:
        return sum(
            getattr(s, attr) for s in spans
            if s.name in names and (stage is None or s.stage == stage)
        )

    def owned(stage: str) -> float:
        return total("self_s", _STAGE_OWNED | {STAGE_SPANS[stage]}, stage)

    metrics = {
        "rdf_ingest.parse_s": total("self_s", {"rdf_ingest.iter_triples"}),
        "flat_record.build_s": total(
            "busy_s", {"flat_record.record_from_triples", "flat_record.serialize_record"}
        ),
        "flat_record.records_built": total("calls", {"flat_record.record_from_triples"}),
        "flat_record.parse_s": total("busy_s", {"flat_record.parse_record"}),
        "flat_record.records_parsed": total("calls", {"flat_record.parse_record"}),
        "kb_compile.self_s": owned("compile"),
        "engine.group_by_self_s": total("self_s", {"engine.run_group_by"}),
        "engine.add_s": total("busy_s", {"engine.ExternalSorter.add"}),
        "engine.merge_s": total("busy_s", {"engine.ExternalSorter.iter_sorted"}),
        "engine.external_sort_s": total("busy_s", {"engine.external_sort"})
        - total("busy_s", {"engine.external_sort.input"}),
        "link_join.join2_self_s": owned("join2"),
        "link_join.join3_self_s": owned("join3"),
        "link_join.gt_load_s": total("self_s", {"link_join.load_ground_truth"}),
        "link_join.parse_link_line_s": total("busy_s", {"link_join.parse_link_line"}),
        "tools.validate_self_s": owned("validate"),
        "tools.stats_self_s": owned("stats"),
    }
    return {k: v for k, v in metrics.items() if not (NEEDS[k] & missing)}


def write_spans(path: str, rounds: list[list[Span]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for n, spans in enumerate(rounds):
            for span in spans:
                fh.write(json.dumps({"round": n, **span.as_dict()}) + "\n")


def median_dict(rows: list[dict[str, float]]) -> dict[str, float]:
    """Per-key lower median over rows, so that counts stay whole; keys
    absent from any row are dropped."""
    if not rows:
        return {}
    keys = set(rows[0]).intersection(*rows[1:])
    return {k: statistics.median_low(r[k] for r in rows) for k in keys}
