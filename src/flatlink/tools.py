"""Post-processing utilities: seeded sampling, type filtering, stats, validation.

All tools are single-pass and streaming; sampled or filtered lines are
copied byte-identically, so link ids and provenance survive.  validate,
filter-type and stats judge a line by one function, ``_line_records``: the
head check and the linkage-line split it takes from ``link_join``, the
ones join2 and join3 use, then a check of each record by its escaped
tokens (``record_tokens``), with no ``EntityRecord`` built; ``parse_record``
runs only on a record the quick test cannot clear, to name its fault.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator

from .engine import atomic_output
from .errors import FlatlinkError
from .flat_record import parse_record, record_tokens, unescape_token
# parse_link_line is not called here; it stays for the benchmark's trace hook.
from .link_join import line_text, parse_link_line, split_link_line  # noqa: F401

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

MODES = ("entity", "link2", "link3")
SIDES = ("first", "second", "third", "any", "all")

_ARITY = {"entity": 1, "link2": 2, "link3": 3}


@dataclass
class SampleSpec:
    n: int
    seed: int

    def validate(self) -> None:
        if self.n < 0:
            raise FlatlinkError("sample size must be >= 0")


def sample_lines(in_path: str, spec: SampleSpec, out_path: str) -> int:
    """Reservoir-sample min(n, total) lines, preserving input order.

    Algorithm R with Python's Mersenne Twister: the generator is seeded with
    spec.seed; the first n lines fill the reservoir without drawing; every
    later line i (0-based) draws j = Random.randrange(i + 1) and replaces
    reservoir slot j when j < n.  Identical (file, n, seed) always produce
    byte-identical output.
    """
    spec.validate()
    rng = random.Random(spec.seed)
    reservoir: list[tuple[int, bytes]] = []
    with open(in_path, "rb") as fh:
        for i, line in enumerate(fh):
            if i < spec.n:
                reservoir.append((i, line))
                continue
            j = rng.randrange(i + 1)
            if j < spec.n:
                reservoir[j] = (i, line)
    reservoir.sort()
    with atomic_output(out_path) as out:
        for _, line in reservoir:
            out.write(line)
    return len(reservoir)


@dataclass
class TypeFilterSpec:
    type_uri: str
    side: str = "any"
    type_predicate: str = RDF_TYPE

    def validate(self, mode: str) -> None:
        if self.side not in SIDES:
            raise FlatlinkError(f"unknown side {self.side!r}")
        positional = {"first": 1, "second": 2, "third": 3}.get(self.side)
        if positional is not None and positional > _ARITY[mode]:
            raise FlatlinkError(f"side {self.side!r} is invalid for mode {mode!r}")


@dataclass
class FilterReport:
    lines_read: int = 0
    lines_kept: int = 0
    lines_skipped: int = 0  # unparseable

    def as_kv(self) -> str:
        return (
            f"lines_read={self.lines_read} lines_kept={self.lines_kept} "
            f"lines_skipped={self.lines_skipped}"
        )


def _checked_tokens(slot: str) -> list[str]:
    tokens = record_tokens(slot)
    if tokens is None:
        parse_record(slot)  # raises the reason, or accepts the slot after all
        tokens = slot.split("\t")
    return tokens


def _line_records(raw: bytes, mode: str) -> tuple[str | None, list[list[str]]]:
    """The one judge of a line for validate, filter-type and stats: its link
    id (None in entity mode) and the escaped tokens of its records, or a
    FlatlinkError giving the reason.  The head check and the linkage split
    are join2's and join3's own; record_tokens clears a record without
    building it, and parse_record names the reason of one it cannot clear."""
    line = raw.rstrip(b"\n")
    if mode == "entity":
        return None, [_checked_tokens(line_text(line))]
    fields = split_link_line(line, _ARITY[mode])
    records = [_checked_tokens(slot.decode("utf-8")) for slot in fields[2::2]]
    return fields[0].decode("utf-8"), records


def _type_values(tokens: list[str], type_predicate: str) -> Iterator[str]:
    """The URI values under type_predicate; literal values are skipped.  A
    key compares after unescaping, since a guard may prefix any token."""
    for key, value in zip(tokens[1::2], tokens[2::2]):
        if (unescape_token(key) if "\\" in key else key) == type_predicate:
            if not value.startswith('""'):
                yield unescape_token(value)


def _has_type(tokens: list[str], spec: TypeFilterSpec) -> bool:
    return spec.type_uri in _type_values(tokens, spec.type_predicate)


def _matches(records: list[list[str]], spec: TypeFilterSpec) -> bool:
    if spec.side == "any":
        return any(_has_type(r, spec) for r in records)
    if spec.side == "all":
        return all(_has_type(r, spec) for r in records)
    index = {"first": 0, "second": 1, "third": 2}[spec.side]
    return _has_type(records[index], spec)


def filter_by_type(
    in_path: str,
    spec: TypeFilterSpec,
    out_path: str,
    mode: str,
    report: FilterReport | None = None,
) -> int:
    """Copy the lines whose designated record(s) carry the type; returns count kept."""
    if mode not in MODES:
        raise FlatlinkError(f"unknown mode {mode!r}")
    spec.validate(mode)
    if report is None:
        report = FilterReport()
    with open(in_path, "rb") as fh, atomic_output(out_path) as out:
        for raw in fh:
            report.lines_read += 1
            try:
                _, records = _line_records(raw, mode)
            except FlatlinkError:
                report.lines_skipped += 1
                continue
            if _matches(records, spec):
                out.write(raw)
                report.lines_kept += 1
    return report.lines_kept


@dataclass
class StatsReport:
    mode: str = "entity"
    lines: int = 0
    bytes: int = 0
    unparseable: int = 0
    slot_entities: list[int] = field(default_factory=list)  # distinct URIs per slot
    top_types: list[tuple[str, int]] = field(default_factory=list)

    def as_kv(self) -> str:
        slots = ",".join(str(c) for c in self.slot_entities)
        types = " ".join(f"type:{uri}={n}" for uri, n in self.top_types)
        base = (
            f"mode={self.mode} lines={self.lines} bytes={self.bytes} "
            f"unparseable={self.unparseable} slot_entities={slots}"
        )
        return f"{base} {types}".rstrip()

    def as_text(self) -> str:
        out = [
            f"lines:       {self.lines}",
            f"bytes:       {self.bytes}",
            f"unparseable: {self.unparseable}",
        ]
        for i, count in enumerate(self.slot_entities, 1):
            out.append(f"slot {i} distinct entities: {count}")
        if self.top_types:
            out.append("top types:")
            for uri, n in self.top_types:
                out.append(f"  {n:>10}  {uri}")
        return "\n".join(out)


def stats(
    in_path: str,
    mode: str,
    type_predicate: str = RDF_TYPE,
    top_k: int = 10,
) -> StatsReport:
    """Single-pass line/byte counts, per-slot distinct entities, type histogram."""
    if mode not in MODES:
        raise FlatlinkError(f"unknown mode {mode!r}")
    if top_k < 0:
        raise FlatlinkError("top_k must be >= 0")
    report = StatsReport(mode=mode)
    slot_uris: list[set[str]] = [set() for _ in range(_ARITY[mode])]
    histogram: Counter[str] = Counter()
    with open(in_path, "rb") as fh:
        for raw in fh:
            report.lines += 1
            report.bytes += len(raw)
            try:
                _, records = _line_records(raw, mode)
            except FlatlinkError:
                report.unparseable += 1
                continue
            for slot, tokens in enumerate(records):
                slot_uris[slot].add(unescape_token(tokens[0]))
                histogram.update(_type_values(tokens, type_predicate))
    report.slot_entities = [len(s) for s in slot_uris]
    report.top_types = sorted(histogram.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
    return report


@dataclass
class ValidationReport:
    ok_lines: int = 0
    violations: list[tuple[int, str]] = field(default_factory=list)
    violation_count: int = 0
    violation_cap: int = 100

    def flag(self, line_no: int, reason: str) -> None:
        self.violation_count += 1
        if len(self.violations) < self.violation_cap:
            self.violations.append((line_no, reason))

    def as_kv(self) -> str:
        return f"ok_lines={self.ok_lines} violations={self.violation_count}"


def validate(in_path: str, mode: str) -> ValidationReport:
    """Flag each line that _line_records rejects, and each repeated link id.

    Violations are data findings, not failures; callers decide the exit
    status.  Link ids are tracked in a streaming set sized by file line
    count.
    """
    if mode not in MODES:
        raise FlatlinkError(f"unknown mode {mode!r}")
    report = ValidationReport()
    seen_ids: set[str] = set()
    with open(in_path, "rb") as fh:
        for line_no, raw in enumerate(fh, 1):
            try:
                link_id, _ = _line_records(raw, mode)
            except FlatlinkError as exc:
                report.flag(line_no, str(exc))
                continue
            if link_id is not None:
                if link_id in seen_ids:
                    report.flag(line_no, f"duplicate link id {link_id!r}")
                    continue
                seen_ids.add(link_id)
            report.ok_lines += 1
    return report
