"""Compile a knowledge base's raw triple files into one flat entity file.

A URI gets a line iff it occurs as the subject of at least one parseable
triple; subjects spread over multiple input files merge into a single
record.  Output lines are sorted ascending by subject URI and the whole run
is byte-deterministic for fixed inputs and config.

Items ``subject TAB predicate TAB seq8 kind lexical`` are built straight
from the triple bytes that ``iter_triple_bytes`` yields a part at a time,
cut by one ``findall`` a part from the groups of its block regex, or of
the escaped twin for a part with a backslash, wherever a line has the
regex's shape.  Each part's items are encoded in one list comprehension
and fed, chained, to ``engine.external_sort``, which sorts them as they
are; one part's triples and items, at most about 8 KiB of input, are held
outside the sort budget.  One pass over the sorted stream (``_records``)
groups each subject's items into raw tokens and drops duplicate values;
``flat_record.record_line_bytes`` escapes and writes the line.  Each line
is byte-equal to ``serialize_record(record_from_triples(...))`` of the
triples that the reference reader ``iter_triples`` (text mode and the
character parser, no regex) reads from the same files, which
``reference_lines`` computes in memory.
"""

from __future__ import annotations

import contextlib
import itertools
import struct
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from . import engine
from .errors import FlatlinkError
from .flat_record import (
    LABEL_RE,
    record_from_triples,
    record_line_bytes,
    serialize_record,
)
from .rdf_ingest import ParseReport, Triple, iter_triple_bytes, iter_triples

_SEQ = struct.Struct(">Q")
# Offsets into an item's value `seq8 kind lexical`.
_KIND = _SEQ.size
_LEXICAL = _KIND + 1
_LITERAL = ord("L")


@dataclass
class KbSpec:
    label: str
    input_paths: list[str]
    output_path: str

    def validate(self) -> None:
        if not LABEL_RE.fullmatch(self.label):
            raise FlatlinkError(
                f"bad KB label {self.label!r}: must match {LABEL_RE.pattern}"
            )


@dataclass
class CompileReport:
    label: str = ""
    entities: int = 0
    triples: int = 0
    skipped_lines: int = 0
    spill_runs: int = 0
    parse: ParseReport = field(default_factory=ParseReport)


def _records(items: Iterator[bytes], stats: engine.JobStats) -> Iterator[bytes]:
    # Sorted items `subject TAB predicate TAB seq8 kind lexical`: subject and
    # predicate hold no byte <= 0x20, so the first two TABs split them off,
    # and no further (seq8 may hold a TAB byte).  UTF-8 byte order is code
    # point order, so each subject's predicates come in record_from_triples'
    # key order with their values in input order.  Exact duplicate (kind,
    # lexical) values of one predicate keep their first occurrence, whose
    # value seeds the predicate's seen set.  Closes the sort when it ends or
    # fails, so its spill runs go at once.
    try:
        subject = predicate = None
        for item in items:
            key, pred, value = item.split(b"\t", 2)
            if key != subject:
                if subject is not None:
                    yield record_line_bytes(tokens, literals)
                stats.keys_reduced += 1
                subject, predicate = key, None
                tokens = [key]
                literals = []  # indices of the literal values, still unwrapped
            if pred != predicate:
                predicate, seen = pred, {value[_KIND:]}
            else:
                kind_lexical = value[_KIND:]
                if kind_lexical in seen:
                    continue
                seen.add(kind_lexical)
            if value[_KIND] == _LITERAL:
                literals.append(len(tokens) + 1)
            tokens.append(predicate)
            tokens.append(value[_LEXICAL:])
        if subject is not None:
            yield record_line_bytes(tokens, literals)
    finally:
        items.close()


def reference_lines(
    paths: Iterable[str], report: ParseReport | None = None
) -> list[bytes]:
    """compile_kb's output lines for the files `paths`, read through the
    reference reader iter_triples and built in memory through
    record_from_triples and serialize_record: the oracle its items and
    reduce must match byte for byte."""
    by_subject: dict[str, list[Triple]] = {}
    for path in paths:
        for triple in iter_triples(path, report):
            by_subject.setdefault(triple.subject, []).append(triple)
    return [
        serialize_record(record_from_triples(subject, by_subject[subject])).encode("utf-8")
        for subject in sorted(by_subject)
    ]


def compile_kb(
    spec: KbSpec,
    cfg: engine.ExecConfig,
    stats: engine.JobStats | None = None,
) -> CompileReport:
    """Run the wrapper stage for one KB; returns the summary report."""
    spec.validate()
    report = CompileReport(label=spec.label)
    if stats is None:
        stats = engine.JobStats()

    def blocks() -> Iterator[list[bytes]]:
        # Each block's items, subject TAB predicate TAB seq8 kind lexical.
        # Subject and predicate hold no byte <= 0x20, so byte order on the
        # item is (subject, predicate, seq) order and the TABs split it
        # unambiguously.
        seq = 0
        pack = _SEQ.pack
        for path in spec.input_paths:
            for triples, _ in iter_triple_bytes(path, report.parse):
                yield [
                    b"%b\t%b\t%b%b" % (subject, predicate, pack(n), value)
                    for n, (subject, predicate, value) in enumerate(triples, seq)
                ]
                seq += len(triples)

    items = blocks()
    lines = _records(engine.external_sort(itertools.chain.from_iterable(items), cfg, stats), stats)
    # A chain has no close(), so the sort cannot close the input files; the
    # closings do, and a failed write frees the sort's spill runs at once.
    with (
        engine.atomic_output(spec.output_path) as out,
        contextlib.closing(items),
        contextlib.closing(lines),
    ):
        for line in lines:
            out.write(line)
            out.write(b"\n")
            report.entities += 1
        if report.parse.triples_ok == 0:
            raise FlatlinkError(
                f"KB {spec.label!r}: no parseable triples in {spec.input_paths}"
            )

    report.triples = report.parse.triples_ok
    report.skipped_lines = report.parse.lines_skipped
    report.spill_runs = stats.spill_runs
    return report
