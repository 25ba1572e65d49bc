"""Streaming, fault-tolerant parsing of line-oriented N-Triples input.

Accepts the common single-line subset::

    <uri> <uri> (<uri> | "literal"(@lang | ^^<dtype>)?) .

Blank nodes are accepted as opaque ``_:label`` tokens in subject or object
position.  Language tags and datatype IRIs are dropped; only the literal's
lexical form is kept.  ``\\uXXXX`` / ``\\UXXXXXXXX`` escapes are decoded
during parsing; an escape body that is not exactly 4 or 8 hex digits, or
that names a surrogate code point or one above U+10FFFF, is malformed.
Files are decoded as UTF-8 line by line, so a line that is not valid UTF-8
is malformed too.  Malformed lines never abort a stream: they are counted,
sampled into the report, and skipped.

Every raw input, KB files and both ground-truth formats, is read as bytes
in blocks of whole lines of about 8 KiB, one block at a time, by one block
reader, plain or ``.gz``: it cuts each read of 8 KiB after its last LF or
CR, so a block stays near 8 KiB whether lines end in LF, CR LF or a lone
CR.  A file that cannot be opened, or a damaged ``.gz``, is one
``FlatlinkError``.  One splitter turns the blocks into parts
of UTF-8 lines, each ending in LF: it splits where text mode splits (LF, CR
LF, lone CR), counts each line and skips one that is not UTF-8, checking
UTF-8 a few hundred bytes at a time.  A UTF-8 block is one part, any other
block one part per UTF-8 line.  ``read_lines`` yields the lines of the
parts.  ``parse_ntriples_line`` is the character parser and the reference,
and alone names error reasons; ``iter_triples`` reads a file as text
through it.  Compile and ntriples-sameas ground truth
read ``iter_triple_bytes``, which yields one part at a time: its triples,
each the UTF-8 bytes of its subject, predicate and kind byte plus lexical
form, and their line numbers, with the part's errors recorded before it is
yielded.  Its line shape is ``(<uri> | _:label) <uri> (<uri> | _:label |
"literal"(@lang | ^^<dtype>)?) .`` with an optional trailing comment, where
URIs may hold ``\\u``/``\\U`` escapes and literals those and the ECHARs
(``\\t``, ``\\"``, ...); a datatype IRI or language tag holds no escape.

Each part is cut by one ``findall``.  A part with no backslash takes the
block regex, the line shape without its escape alternatives, which such a
part never needs; every other part takes its escaped twin, built from the
same pieces with possessive loops.  Both stop literal bodies and comments at
LF and end in a branch that takes any other line whole, so they yield one
tuple per line, and a triple is cut from its groups with no regex call per
line.  A part with no backslash whose lines all match becomes its triples in
one list comprehension; every other part goes line by line.  Its matched
bodies with a backslash are decoded by one codec call, joined by NUL:
``unicode_escape`` after ``backslashreplace``, which is sound because the
regex has proved that every backslash starts a well-formed escape that ends
inside its body.  Where a body holds a NUL or decodes to one, or the call
fails, each body is decoded alone.  A line the regex misses (blanks,
comments, escapes in a datatype or label, a byte in a label or tag where the
character parser might end it, and anything malformed), or whose own
decoding finds what the character parser rejects (a surrogate or
out-of-range code point, or a URI that decodes to a control or space
character), is decoded and handed to the character parser.  A line taken by
a regex yields the triple the character parser would.

``Triple`` and ``ObjectValue`` are named tuples, so each compares equal to
the plain tuple of its fields.
"""

from __future__ import annotations

import codecs
import gzip
import io
import os
import re
import zlib
from dataclasses import dataclass, field
from operator import itemgetter
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence

from .engine import open_input
from .errors import FlatlinkError, NTriplesParseError

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

# The surrogateescape error handler (iter_triples reads a path with it) turns
# each byte that is not valid UTF-8 into a lone surrogate; strict UTF-8 never
# decodes to one.
_SURROGATE = re.compile("[\ud800-\udfff]")

# The block regexes' line shape, after the W3C N-Triples grammar (UCHAR,
# ECHAR).  URI bodies hold no byte <= 0x20, no '>' and no backslash outside a
# well-formed UCHAR; literal bodies no quote, raw tab, LF or backslash outside
# a UCHAR or ECHAR; a blank node label no whitespace, control or backslash.
# Each body is an unrolled loop, normal* (special normal*)*, so a failing
# line cannot backtrack beyond linear time.  A datatype IRI holds no escape.
#
# The character parser ends a blank node label at whitespace, and a language
# tag at whitespace or '.', by str.isspace(), which also holds for the ASCII
# separators 0x1C-0x1F and for non-ASCII whitespace; a bytes \s knows only
# " \t\n\r\f\v".  So labels and tags here also leave out 0x1C-0x1F and
# every byte >= 0x80: a line with such a byte in a label or tag misses and
# goes to the character parser.
#
# Each loop's class is disjoint from what may follow it, so no match ever
# needs a loop to give a byte back, and a possessive loop (*+, ++, Python
# 3.11) matches the same bytes.  The escaped twin's loops are all possessive,
# so the engine keeps no backtracking state for them; the block regex got
# slower that way, so its loops stay greedy.
_UCHAR = r"\\(?:u[0-9A-Fa-f]{4}|U[0-9A-Fa-f]{8})"
_URI_CHARS = r"[^\x00-\x20>\\]"
_URI = rf"<(?=[^>])({_URI_CHARS}*+(?:{_UCHAR}{_URI_CHARS}*+)*+)>"
_LIT_CHARS = r'[^"\\\t\n]'
_LITERAL = rf'"({_LIT_CHARS}*+(?:(?:\\[tbnrf"\'\\]|{_UCHAR}){_LIT_CHARS}*+)*+)"'


def _block_regex(uri: str, literal: str, loop: str = "") -> re.Pattern[bytes]:
    """A regex that findall runs over a part of LF-ended lines, one tuple
    per line: the groups of the line shape with `uri` and `literal` for its
    URI and literal terms, then a last group that takes any other line
    whole.  `loop` follows each quantifier of the other pieces: "+" makes
    them possessive.  A URI body is never empty, and findall gives b"" for a
    group that took no part: a line with no subject group is an other line,
    and an object with no URI or blank-node group is a literal, the empty
    literal included."""
    space = rf"[ \t]*{loop}"
    bnode = rf"(_:[^\s\x00-\x20\\\x80-\xff]+{loop})(?!\S)"
    lang = rf"@[^\s.\\\x1c-\x1f\x80-\xff]+{loop}"
    return re.compile(
        (
            rf"^(?:{space}(?:{uri}|{bnode}){space}{uri}{space}"
            rf"(?:{uri}|{bnode}|{literal}(?:{lang}|\^\^<{_URI_CHARS}+{loop}>)?)"
            rf"{space}\.{space}(?:#[^\n]*{loop})?|(.*{loop}))$"
        ).encode("ascii"),
        re.MULTILINE,
    )


# A part with no backslash never needs an escape alternative, and the
# regex without them runs faster on it; a part with one takes the twin.
_BLOCK_LINES = _block_regex(rf"<({_URI_CHARS}+)>", rf'"({_LIT_CHARS}*)"')
_ESCAPED_LINES = _block_regex(_URI, _LITERAL, "+")
_CONTROL_OR_SPACE = re.compile(rb"[\x00-\x20]")
# The predicate group of a findall tuple of either block regex.
_PREDICATE = itemgetter(2)

# Byte values for `in` tests on bytes, here and in flat_record and
# link_join: `int in bytes` is one memchr, while `bytes in bytes` first tries
# its operand as an integer and pays for the TypeError, several times slower
# per line.
_BACKSLASH, _TAB, _LF, _CR = b"\\\t\n\r"


class ObjectValue(NamedTuple):
    """Object of a triple: either a URI reference or a bare literal."""

    kind: str  # URI or LITERAL
    lexical: str


class Triple(NamedTuple):
    subject: str
    predicate: str
    object: ObjectValue


@dataclass
class ParseReport:
    """Line accounting; lines_total = ok + skipped + blank/comment.

    Streams parsed into one report add up their counts, and each numbers
    its first_errors from its own line 1.
    """

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
    if cp > 0x10FFFF:
        # chr() raises OverflowError, not ValueError, from \U80000000 up.
        raise NTriplesParseError(f"\\{code} escape out of range")
    return chr(cp), i + 2 + width


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


# Decoding a bytes regex match raises ValueError where the character parser
# would reject the line; the caller then hands the line to it.
def _decode_escapes(body: bytes) -> bytes:
    """Decode the UCHARs and ECHARs of a UTF-8 body the escaped block regex
    matched.

    One codec call: unicode_escape reads the body's escapes, each of which
    means to Python what it means to N-Triples, after backslashreplace has
    written each non-ASCII character as a Python escape for it to read back.
    Sound only because the regex has proved that every backslash of the body
    starts a well-formed ECHAR or UCHAR.  A code point above U+10FFFF raises
    UnicodeDecodeError, and a surrogate fails the strict UTF-8 encoding.
    _cut_lines decodes a part's bodies together by one such call, and calls
    this on each body alone only when that call cannot stand for them.
    """
    if not body.isascii():
        body = body.decode("utf-8").encode("ascii", "backslashreplace")
    return body.decode("unicode_escape").encode("utf-8")


def _decode_bodies(bodies: list[bytes]) -> list[bytes] | None:
    """_decode_escapes of each of `bodies`, by one call on them joined by
    NUL, or None where that call cannot stand for one call a body: a body
    holds a NUL or decodes to one, or a body fails to decode.  Decoding
    keeps every NUL and adds one for each escape of U+0000, so the result
    splits into exactly one piece a body only when neither happens.  Exact
    because the regex has proved that each backslash starts an escape that
    ends inside its own body, so no escape spans a NUL."""
    try:
        decoded = _decode_escapes(b"\0".join(bodies)).split(b"\0")
    except UnicodeError:
        return None
    return decoded if len(decoded) == len(bodies) else None


def _decode_uri(body: bytes, decode: Callable[[bytes], bytes] = _decode_escapes) -> bytes:
    if _BACKSLASH not in body:
        return body
    uri = decode(body)
    if _CONTROL_OR_SPACE.search(uri):
        raise ValueError("control or space character")
    return uri


def parse_ntriples_line(line: str) -> Triple | None:
    """Parse one physical line (no terminator) with the character parser.

    Returns None for blank lines and comment lines; raises
    NTriplesParseError for anything else that is not a well-formed triple.
    """
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


def _open_bytes(path: str | os.PathLike) -> BinaryIO:
    return open_input(path, gzip.open if str(path).endswith(".gz") else open)


def iter_triples(
    source: str | os.PathLike | Iterable[str],
    report: ParseReport | None = None,
) -> Iterator[Triple]:
    """Yield triples from a path or an iterable of lines, filling `report`.

    The reference reader: text mode and the character parser.  Never
    materializes the input; malformed lines are skipped and counted.  A
    path, plain or .gz, is decoded with errors="surrogateescape", so a line
    that is not UTF-8 holds a lone surrogate and is skipped as "not UTF-8"
    instead of aborting the rest of the file.
    """
    if report is None:
        report = ParseReport()
    if isinstance(source, (str, os.PathLike)):
        with io.TextIOWrapper(_open_bytes(source), encoding="utf-8",
                              errors="surrogateescape") as fh:
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


def _blocks(path: str | os.PathLike) -> Iterator[bytes]:
    """The bytes of a plain or .gz file in blocks of whole lines, about
    8 KiB each.  Each read of 8 KiB is cut after its last LF or CR, but not
    after a CR that is its last byte, which an LF may follow; so every block
    but the last ends at an LF or a CR, and no CR LF spans two.  A read with
    no line end is held until one comes, so a long line is joined once.  A
    file that cannot be opened, or a damaged .gz, raises FlatlinkError
    naming the path."""
    held: list[bytes] = []
    try:
        with _open_bytes(path) as fh:
            while data := fh.read(1 << 13):
                end = max(data.rfind(b"\n"), data.rfind(b"\r", 0, -1)) + 1
                if not end:
                    held.append(data)
                    continue
                held.append(data[:end])
                yield b"".join(held)
                held = [data[end:]]
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise FlatlinkError(f"{path}: damaged gzip data: {exc}") from exc
    if last := b"".join(held):
        yield last


# The bytes _is_utf8 decodes at a time: their str holds at most 2 KiB.
_UTF8_SLICE = 512


def _is_utf8(data: bytes) -> bool:
    """True if `data` is UTF-8.  It is decoded a slice at a time, so no
    temporary str the size of a block grows the heap; a character cut at
    the end of a slice is left to the next."""
    at, end = 0, len(data)
    try:
        while at < end:
            stop = at + _UTF8_SLICE
            at += codecs.utf_8_decode(data[at:stop], "strict", stop >= end)[1]
    except UnicodeDecodeError:
        return False
    return True


def _utf8_parts(blocks: Iterable[bytes], report: ParseReport) -> Iterator[tuple[int, bytes]]:
    """(number of the line before it, part) of each part of `blocks`: UTF-8
    lines, each ending in LF, numbered from 1 across blocks.  A block is
    split where text mode splits (LF, CR LF, lone CR) and its lines are
    counted into report.lines_total before its first part is yielded.  A
    UTF-8 block is one part; a block that is not UTF-8 is one part per UTF-8
    line, each of its other lines recorded as "not UTF-8" in line order."""
    line_no = 0
    for block in blocks:
        if _CR in block:
            # bytes.splitlines() splits at LF, CR LF and a lone CR.
            block = b"\n".join(block.splitlines()) + b"\n"
        elif not block.endswith(b"\n"):
            block += b"\n"
        first = line_no
        line_no += block.count(b"\n")
        report.lines_total += line_no - first
        if block.isascii() or _is_utf8(block):
            yield first, block
            continue
        for before, line in enumerate(block.splitlines(True), first):
            if _is_utf8(line):
                yield before, line
            else:
                report.record_error(before + 1, "not UTF-8")


def read_lines(path: str | os.PathLike, report: ParseReport) -> Iterator[tuple[int, bytes]]:
    """(line number, line) of each UTF-8 line of a plain or .gz file, the
    lines of _utf8_parts: each counts into report.lines_total, and one that
    is not UTF-8 is skipped as "not UTF-8".  A file that cannot be opened,
    or a damaged .gz, raises FlatlinkError naming the path."""
    for first, part in _utf8_parts(_blocks(path), report):
        yield from enumerate(part.splitlines(), first + 1)


def _char_triple(
    line: bytes, line_no: int, report: ParseReport
) -> tuple[bytes, bytes, bytes] | None:
    """The triple the character parser reads from a UTF-8 line, as
    iter_triple_bytes yields it, or None once the line is counted as blank
    or as an error."""
    try:
        parsed = parse_ntriples_line(line.decode("utf-8"))
    except NTriplesParseError as exc:
        report.record_error(line_no, str(exc))
        return None
    if parsed is None:
        report.lines_blank += 1
        return None
    subject, predicate, (kind, lexical) = parsed
    return (
        subject.encode("utf-8"),
        predicate.encode("utf-8"),
        (b"L" if kind == LITERAL else b"U") + lexical.encode("utf-8"),
    )


def _decoded_triple(
    subject: bytes, predicate: bytes, obj: bytes, lexical: bytes,
    decode: Callable[[bytes], bytes],
) -> tuple[bytes, bytes, bytes]:
    """The triple of a line a block regex matched, from its groups, each
    body with a backslash decoded by `decode`; ValueError where the
    character parser would reject the line."""
    if obj:
        return (_decode_uri(subject, decode), _decode_uri(predicate, decode),
                b"U" + _decode_uri(obj, decode))
    if _BACKSLASH in lexical:
        lexical = decode(lexical)
    return _decode_uri(subject, decode), _decode_uri(predicate, decode), b"L" + lexical


# The bodies of a findall tuple that may hold an escape: the subject,
# predicate and object URIs and the literal.  A blank node label holds none.
_BODIES = itemgetter(0, 2, 3, 5)


def _cut_lines(
    part: bytes, rows: list[tuple[bytes, ...]], first: int, report: ParseReport
) -> tuple[list[tuple[bytes, bytes, bytes]], list[int]]:
    """The triples of `part`, UTF-8 lines that findall cut into `rows`, and
    their line numbers, one line at a time, the first line being first + 1.
    The matched bodies with a backslash are decoded together first
    (_decode_bodies), or each alone if they cannot be.  A matched line is
    cut from its groups and its decoded bodies; any other line, and a
    matched line whose decoding fails, is decoded and parsed by the
    character parser."""
    bodies = [body for row in rows for body in _BODIES(row) if _BACKSLASH in body]
    decoded = _decode_bodies(bodies)
    decode = _decode_escapes if decoded is None else dict(zip(bodies, decoded)).__getitem__
    triples, numbers = [], []
    lines = None  # the part split at LF, on its first undecodable line
    for line_no, row in enumerate(rows, first + 1):
        s_uri, s_bnode, predicate, o_uri, o_bnode, lexical, other = row
        subject = s_uri or s_bnode
        if not subject:
            triple = _char_triple(other, line_no, report)
        else:
            try:
                triple = _decoded_triple(subject, predicate, o_uri or o_bnode, lexical, decode)
            except ValueError:
                # findall keeps no matched line whole, so cut it from the part.
                if lines is None:
                    lines = part.split(b"\n")
                triple = _char_triple(lines[line_no - first - 1], line_no, report)
        if triple is not None:
            triples.append(triple)
            numbers.append(line_no)
    return triples, numbers


def _cut_blocks(
    blocks: Iterable[bytes], report: ParseReport
) -> Iterator[tuple[list[tuple[bytes, bytes, bytes]], Sequence[int]]]:
    """Yield, per part of `blocks` (_utf8_parts), its triples as
    iter_triple_bytes yields them and their line numbers, numbering lines
    from 1; each part is counted into `report` before it is yielded.

    One findall cuts the part.  A part with no backslash whose lines all
    match becomes its triples in one comprehension, their line numbers a
    range; every other part goes line by line (_cut_lines).
    """
    for first, part in _utf8_parts(blocks, report):
        escaped = _BACKSLASH in part
        # endpos leaves out the part's final LF, which would end one more line.
        rows = (_ESCAPED_LINES if escaped else _BLOCK_LINES).findall(part, 0, len(part) - 1)
        # The predicate group is set exactly where the line matched.
        if not escaped and b"" not in map(_PREDICATE, rows):
            triples = [
                (s_uri or s_bnode, predicate,
                 b"U" + o_uri if o_uri else b"U" + o_bnode if o_bnode else b"L" + lexical)
                for s_uri, s_bnode, predicate, o_uri, o_bnode, lexical, _ in rows
            ]
            numbers = range(first + 1, first + len(rows) + 1)
        else:
            triples, numbers = _cut_lines(part, rows, first, report)
        report.triples_ok += len(triples)
        yield triples, numbers


def iter_triple_bytes(
    path: str | os.PathLike, report: ParseReport
) -> Iterator[tuple[list[tuple[bytes, bytes, bytes]], Sequence[int]]]:
    """Yield, one part at a time, the part's triples as (subject,
    predicate, kind + lexical) in UTF-8 bytes, the kind byte b"U" or b"L",
    and each one's line number: in order, the triples iter_triples(path)
    yields, with `report` filled as it fills it, each part counted before
    it is yielded.  _cut_blocks cuts the parts of _blocks(path)."""
    return _cut_blocks(_blocks(path), report)
