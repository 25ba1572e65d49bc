"""Post-processing utilities: seeded sampling, type filtering, stats, validation.

Every tool reads its input once, a line at a time; sampled or filtered
lines are copied byte-identically, so link ids and provenance survive.
Not every tool holds bounded memory: sample holds its reservoir, validate
every link id, and stats every distinct URI of each slot and every type.

validate, filter-type and stats judge a line by one function,
``_line_records``: the head check (``line_text``) and the linkage-line
split (``split_link_line``, which names each fault of a line's cut, link
id and group count) that join2 and join3 use, then a quick check of each
record (``record_ok``), with no ``EntityRecord`` built; ``parse_record``
runs only on a record the quick check cannot clear, to name its fault.
validate only judges; filter-type and stats also split each record into
its escaped tokens.  A linkage line is decoded once, as its link id and
record slots; the whole line is decoded only to name a fault.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .engine import atomic_output, open_input
from .errors import FlatlinkError
from .flat_record import parse_record, record_ok, record_tokens, unescape_token
# parse_link_line is not called here; it stays for the benchmark's trace hook.
from .link_join import line_text, parse_link_line, split_link_line  # noqa: F401
from .rdf_ingest import _CR

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

MODES = ("entity", "link2", "link3")
SIDES = ("first", "second", "third", "any", "all")

_ARITY = {"entity": 1, "link2": 2, "link3": 3}
# The record slot a positional side names, 0-based.
_SLOT = {"first": 0, "second": 1, "third": 2}


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
    with atomic_output(out_path) as out, open_input(in_path) as fh:
        for i, line in enumerate(fh):
            if i < spec.n:
                reservoir.append((i, line))
                continue
            j = rng.randrange(i + 1)
            if j < spec.n:
                reservoir[j] = (i, line)
        reservoir.sort()
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
        if self.side in _SLOT and _SLOT[self.side] >= _ARITY[mode]:
            raise FlatlinkError(f"side {self.side!r} is invalid for mode {mode!r}")


@dataclass
class FilterReport:
    lines_read: int = 0
    lines_kept: int = 0
    lines_skipped: int = 0  # unparseable


def _checked_tokens(slot: str) -> list[str]:
    tokens = record_tokens(slot)
    if tokens is None:
        parse_record(slot)  # raises the reason, or accepts the slot after all
        tokens = slot.split("\t")
    return tokens


def _check_record(slot: str) -> None:
    """_checked_tokens for validate, which reads no token: no list is built."""
    if not record_ok(slot):
        parse_record(slot)  # raises the reason, or accepts the slot after all


def _line_records(
    raw: bytes, mode: str, read: Callable[[str], object] = _checked_tokens
) -> tuple[str | None, list]:
    """The one judge of a line for validate, filter-type and stats: its link
    id (None in entity mode) and what `read` returns for each of its
    records, or a FlatlinkError giving the reason.  The head check and the
    linkage split are join2's and join3's own; `read` judges one decoded
    record slot, by default returning its escaped tokens.

    A link line is decoded once, a piece at a time: the id and the slots
    meet at ASCII bytes, so the line is UTF-8 exactly when every piece is.
    The head check runs on the whole line only on a fault, so a raw CR or a
    UTF-8 fault still comes first, with the decoder's reason for the line.
    """
    line = raw.rstrip(b"\n")
    if mode == "entity":
        return None, [read(line_text(line))]
    if _CR in line:
        line_text(line)  # raises: a raw CR is the first fault of any line
    try:
        fields = split_link_line(line, _ARITY[mode])
        link_id = fields[0].decode("utf-8")
        records = [read(slot.decode("utf-8")) for slot in fields[2::2]]
    except (FlatlinkError, UnicodeDecodeError):
        line_text(line)  # a UTF-8 fault anywhere in the line comes first
        raise
    return link_id, records


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
    return _has_type(records[_SLOT[spec.side]], spec)


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
    with atomic_output(out_path) as out, open_input(in_path) as fh:
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
    with open_input(in_path) as fh:
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


VIOLATION_CAP = 100  # violations a ValidationReport lists; it counts them all


@dataclass
class ValidationReport:
    ok_lines: int = 0
    violations: list[tuple[int, str]] = field(default_factory=list)
    violation_count: int = 0

    def flag(self, line_no: int, reason: str) -> None:
        self.violation_count += 1
        if len(self.violations) < VIOLATION_CAP:
            self.violations.append((line_no, reason))


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
    with open_input(in_path) as fh:
        for line_no, raw in enumerate(fh, 1):
            try:
                link_id, _ = _line_records(raw, mode, _check_record)
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
