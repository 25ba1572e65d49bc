"""Streaming, fault-tolerant parsing of line-oriented N-Triples input.

Accepts the common single-line subset::

    <uri> <uri> (<uri> | "literal"(@lang | ^^<dtype>)?) .

Blank nodes are accepted as opaque ``_:label`` tokens in subject or object
position.  Language tags and datatype IRIs are dropped; only the literal's
lexical form is kept.  ``\\uXXXX`` / ``\\UXXXXXXXX`` escapes are decoded
during parsing; an escape body that is not exactly 4 or 8 hex digits, or
that names a surrogate code point, is malformed.  Files are decoded as UTF-8
line by line, so a line that is not valid UTF-8 is malformed too.  Malformed
lines never abort a stream: they are counted, sampled into the report, and
skipped.

A line without any backslash is first tried against one anchored regex for
``<uri> <uri> (<uri> | "literal"(@lang | ^^<dtype>)?) .`` with an optional
trailing comment.  It accepts exactly the lines of that shape that the
character parser accepts, and yields the same triple.  Every other line
(escapes, blank nodes, blanks, comments and anything malformed) goes to the
character parser, which alone decides error reasons.
"""

from __future__ import annotations

import gzip
import io
import os
import re
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

from .errors import NTriplesParseError

URI = "uri"
LITERAL = "literal"

# Decoded URIs must stay free of controls and spaces: downstream composite
# sort keys separate URI fields with a tab and rely on every URI byte
# comparing greater than 0x20.
_MIN_URI_CHAR = 0x20

_ECHAR = {
    "t": "\t",
    "b": "\b",
    "n": "\n",
    "r": "\r",
    "f": "\f",
    '"': '"',
    "'": "'",
    "\\": "\\",
}


_HEX = re.compile(r"[0-9A-Fa-f]*")

# open_text decodes with surrogateescape, which turns each byte that is not
# valid UTF-8 into a lone surrogate; strict UTF-8 never decodes to one.
_SURROGATE = re.compile("[\ud800-\udfff]")

# The fast path's line shape.  URI bodies hold no character <= U+0020, no '>'
# and no backslash; literal bodies no quote, backslash or raw tab; a language
# tag stops where the character parser's does, at whitespace or '.'.
_URI_BODY = r"[^\x00-\x20>\\]+"
_FAST_LINE = re.compile(
    rf"[ \t]*<({_URI_BODY})>[ \t]*<({_URI_BODY})>[ \t]*"
    rf'(?:<({_URI_BODY})>|"([^"\\\t]*)"(?:@[^\s.\\]+|\^\^<{_URI_BODY}>)?)'
    r"[ \t]*\.[ \t]*(?:#.*)?",
    re.DOTALL,
)


@dataclass(frozen=True)
class ObjectValue:
    """Object of a triple: either a URI reference or a bare literal."""

    kind: str  # URI or LITERAL
    lexical: str


@dataclass(frozen=True)
class Triple:
    subject: str
    predicate: str
    object: ObjectValue


@dataclass
class ParseReport:
    """Per-stream accounting; lines_total = ok + skipped + blank/comment."""

    lines_total: int = 0
    triples_ok: int = 0
    lines_skipped: int = 0
    lines_blank: int = 0
    first_errors: list[tuple[int, str]] = field(default_factory=list)
    error_cap: int = 20

    def record_error(self, line_no: int, reason: str) -> None:
        self.lines_skipped += 1
        if len(self.first_errors) < self.error_cap:
            self.first_errors.append((line_no, reason))

    def merge(self, other: "ParseReport") -> None:
        self.lines_total += other.lines_total
        self.triples_ok += other.triples_ok
        self.lines_skipped += other.lines_skipped
        self.lines_blank += other.lines_blank
        for entry in other.first_errors:
            if len(self.first_errors) >= self.error_cap:
                break
            self.first_errors.append(entry)


def _decode_uchar(text: str, i: int) -> tuple[str, int]:
    # text[i] is the backslash; only \uXXXX and \UXXXXXXXX reach here.
    code = text[i + 1 : i + 2]
    width = 4 if code == "u" else 8
    hexpart = text[i + 2 : i + 2 + width]
    if len(hexpart) != width:
        raise NTriplesParseError(f"truncated \\{code} escape")
    if not _HEX.fullmatch(hexpart):
        raise NTriplesParseError(f"bad \\{code} escape: {hexpart!r}")
    cp = int(hexpart, 16)
    if 0xD800 <= cp <= 0xDFFF:
        # A lone surrogate cannot be encoded as UTF-8 further downstream.
        raise NTriplesParseError(f"\\{code} escape is a surrogate code point")
    try:
        return chr(cp), i + 2 + width
    except ValueError:
        raise NTriplesParseError(f"\\{code} escape out of range") from None


def _read_uri(line: str, i: int, role: str) -> tuple[str, int]:
    if i >= len(line) or line[i] != "<":
        raise NTriplesParseError(f"expected <uri> for {role}")
    i += 1
    out: list[str] = []
    while i < len(line):
        c = line[i]
        if c == ">":
            uri = "".join(out)
            if not uri:
                raise NTriplesParseError(f"empty URI in {role}")
            if any(ord(ch) <= _MIN_URI_CHAR for ch in uri):
                raise NTriplesParseError(f"control or space character in {role} URI")
            return uri, i + 1
        if c == "\\" and line[i + 1 : i + 2] in ("u", "U"):
            ch, i = _decode_uchar(line, i)
            out.append(ch)
            continue
        if c == "\t":
            raise NTriplesParseError(f"raw tab inside {role} term")
        out.append(c)
        i += 1
    raise NTriplesParseError(f"unbalanced angle brackets in {role}")


def _read_bnode(line: str, i: int, role: str) -> tuple[str, int]:
    start = i
    i += 2  # past "_:"
    while i < len(line) and not line[i].isspace():
        i += 1
    label = line[start:i]
    if label == "_:":
        raise NTriplesParseError(f"empty blank node label in {role}")
    if any(ord(ch) <= _MIN_URI_CHAR for ch in label):
        raise NTriplesParseError(f"control character in {role} blank node label")
    return label, i


def _read_literal(line: str, i: int) -> tuple[str, int]:
    i += 1  # past opening quote
    out: list[str] = []
    while i < len(line):
        c = line[i]
        if c == '"':
            return "".join(out), i + 1
        if c == "\t":
            raise NTriplesParseError("raw tab inside literal")
        if c == "\\":
            nxt = line[i + 1 : i + 2]
            if nxt in ("u", "U"):
                ch, i = _decode_uchar(line, i)
                out.append(ch)
                continue
            if nxt in _ECHAR:
                out.append(_ECHAR[nxt])
                i += 2
                continue
            raise NTriplesParseError(f"unknown literal escape \\{nxt}")
        out.append(c)
        i += 1
    raise NTriplesParseError("unbalanced quotes in literal")


def _skip_ws(line: str, i: int) -> int:
    while i < len(line) and line[i] in (" ", "\t"):
        i += 1
    return i


def parse_ntriples_line(line: str) -> Triple | None:
    """Parse one physical line (no terminator).

    Returns None for blank lines and comment lines; raises
    NTriplesParseError for anything else that is not a well-formed triple.
    """
    if "\\" not in line:
        m = _FAST_LINE.fullmatch(line)
        if m is not None:
            subject, predicate, uri, lexical = m.groups()
            if uri is not None:
                return Triple(subject, predicate, ObjectValue(URI, uri))
            return Triple(subject, predicate, ObjectValue(LITERAL, lexical))
    return _parse_line_slow(line)


def _parse_line_slow(line: str) -> Triple | None:
    """The character parser: handles every line, escapes included."""
    i = _skip_ws(line, 0)
    if i == len(line) or line[i] == "#":
        return None

    if line.startswith("_:", i):
        subject, i = _read_bnode(line, i, "subject")
    else:
        subject, i = _read_uri(line, i, "subject")

    i = _skip_ws(line, i)
    predicate, i = _read_uri(line, i, "predicate")
    i = _skip_ws(line, i)

    if i >= len(line):
        raise NTriplesParseError("missing object term")
    c = line[i]
    if c == "<":
        uri, i = _read_uri(line, i, "object")
        obj = ObjectValue(URI, uri)
    elif line.startswith("_:", i):
        label, i = _read_bnode(line, i, "object")
        obj = ObjectValue(URI, label)
    elif c == '"':
        lexical, i = _read_literal(line, i)
        # Drop a language tag or datatype annotation, keeping lexical only.
        if line.startswith("@", i):
            i += 1
            start = i
            while i < len(line) and not line[i].isspace() and line[i] != ".":
                i += 1
            if i == start:
                raise NTriplesParseError("empty language tag")
        elif line.startswith("^^", i):
            _, i = _read_uri(line, i + 2, "datatype")
        obj = ObjectValue(LITERAL, lexical)
    else:
        raise NTriplesParseError("expected <uri>, _:label or quoted literal object")

    i = _skip_ws(line, i)
    if i >= len(line) or line[i] != ".":
        raise NTriplesParseError("missing terminal '.'")
    i = _skip_ws(line, i + 1)
    if i < len(line) and line[i] != "#":
        raise NTriplesParseError("trailing garbage after '.'")
    return Triple(subject, predicate, obj)


def _render_uri_char(c: str) -> str:
    if ord(c) <= _MIN_URI_CHAR or c in "<>\\":
        return f"\\u{ord(c):04X}"
    return c


def render_triple(triple: Triple) -> str:
    """Render back to one N-Triples line (inverse of parse up to dropped
    language/datatype annotations)."""

    def term(text: str) -> str:
        if text.startswith("_:"):
            return text
        return "<" + "".join(_render_uri_char(c) for c in text) + ">"

    if triple.object.kind == URI:
        obj = term(triple.object.lexical)
    else:
        body = (
            triple.object.lexical.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
            .replace("\t", "\\t")
        )
        obj = f'"{body}"'
    return f"{term(triple.subject)} {term(triple.predicate)} {obj} ."


def open_text(path: str | os.PathLike) -> io.TextIOBase:
    """Open a plain or gzip-compressed text file for reading.

    Bytes that are not valid UTF-8 decode to lone surrogates instead of
    raising, so one bad line cannot abort the rest of the file.
    """
    if str(path).endswith(".gz"):
        return io.TextIOWrapper(
            gzip.open(path, "rb"), encoding="utf-8", errors="surrogateescape"
        )
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


def iter_triples(
    source: str | os.PathLike | Iterable[str],
    report: ParseReport | None = None,
) -> Iterator[Triple]:
    """Yield triples from a path or an iterable of lines, filling `report`.

    Never materializes the input; malformed lines are skipped and counted.
    """
    if report is None:
        report = ParseReport()
    if isinstance(source, (str, os.PathLike)):
        with open_text(source) as fh:
            yield from iter_triples(fh, report)
        return
    for line_no, line in enumerate(source, 1):
        report.lines_total += 1
        if not line.isascii() and _SURROGATE.search(line):
            report.record_error(line_no, "not UTF-8")
            continue
        try:
            triple = parse_ntriples_line(line.rstrip("\r\n"))
        except NTriplesParseError as exc:
            report.record_error(line_no, str(exc))
            continue
        if triple is None:
            report.lines_blank += 1
            continue
        report.triples_ok += 1
        yield triple


def stream_triples(
    source: str | os.PathLike | Iterable[str],
    on_triple: Callable[[Triple], None],
    error_cap: int = 20,
) -> ParseReport:
    """Deliver every well-formed triple, in input order, to `on_triple`."""
    report = ParseReport(error_cap=error_cap)
    for triple in iter_triples(source, report):
        on_triple(triple)
    return report
