"""Flat, single-line, non-recursive entity serialization.

One entity per line: ``uri TAB key TAB value TAB key TAB value ...``.
A key with n values contributes n adjacent (key, value) token pairs, so the
token stream stays strictly alternating and a single split plus one linear
scan recovers the record.  Literal values are wrapped in exactly two double
quotes (``""lexical""``); everything else is a URI reference.

Token escaping (bijective; applied to every token before it enters a line):

    \\   -> \\\\        tab -> \\t       newline -> \\n      CR -> \\r

and a ``\\s`` guard prefix is added when the escaped token would otherwise
collide with line structure, i.e. when it

  * matches the reserved sentinel shape ``<label>-instance`` used to delimit
    record slots inside linkage lines, or
  * starts with two double quotes, which would mimic the literal wrapper.

``unescape_token`` inverts this with one ``re.sub`` over ``\\(.?)``: each
backslash and the character after it become one mapped code, left to right,
so the first bad escape names the error.
``unescape_token(escape_token(x)) == x`` for every string x.

``escape_token_bytes`` applies the rule to UTF-8 bytes, and
``record_line_bytes`` writes ``serialize_record``'s line from a record's raw
UTF-8 tokens, so no other module restates the rule.  A record with no
``""`` or ``-instance`` in any token needs no guard, so its line is escaped
whole rather than token by token (unless a token holds a NUL), or not at
all when no token holds a backslash, TAB, LF or CR.

``parse_record`` builds a record and names the first fault of a bad line.
``record_ok`` is its quick stand-in for callers that only judge a line:
whole-line tests clear a well-formed line without building the record or
splitting the line.  A caller that reads a few tokens splits a line that
``record_ok`` clears.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import FlatRecordError
from .rdf_ingest import _BACKSLASH, _CR, _LF, _TAB, LITERAL, URI, ObjectValue, Triple

# Join labels are validated against this alphabet, so every registered
# sentinel token falls inside SENTINEL_SHAPE and the escape guard below is
# sufficient to keep record tokens sentinel-free.
LABEL_RE = re.compile(r"[a-z0-9][a-z0-9_.-]*")
SENTINEL_SUFFIX = "-instance"
SENTINEL_SHAPE = re.compile(LABEL_RE.pattern + re.escape(SENTINEL_SUFFIX))
_LABEL_BYTES = re.compile(LABEL_RE.pattern.encode("ascii"))
_SENTINEL_SUFFIX_BYTES = SENTINEL_SUFFIX.encode("ascii")


@dataclass
class EntityRecord:
    """An entity's full information set; serializes to exactly one line."""

    uri: str
    properties: dict[str, list[ObjectValue]]


def _needs_guard(escaped: str) -> bool:
    if SENTINEL_SHAPE.fullmatch(escaped):
        return True
    return escaped.startswith('""')


def escape_token(raw: str) -> str:
    esc = (
        raw.replace("\\", "\\\\")
        .replace("\t", "\\t")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )
    if _needs_guard(esc):
        esc = "\\s" + esc
    return esc


def escape_token_bytes(raw: bytes) -> bytes:
    """escape_token on UTF-8 bytes: equals escape_token(raw.decode()).encode().

    Every escaped and guard-relevant character is ASCII, and UTF-8 never
    puts an ASCII byte inside a multi-byte sequence.
    """
    esc = raw
    if _BACKSLASH in esc or _TAB in esc or _LF in esc or _CR in esc:
        esc = (
            esc.replace(b"\\", b"\\\\")
            .replace(b"\t", b"\\t")
            .replace(b"\n", b"\\n")
            .replace(b"\r", b"\\r")
        )
    if esc.startswith(b'""') or (
        esc.endswith(_SENTINEL_SUFFIX_BYTES)
        and _LABEL_BYTES.fullmatch(esc, 0, len(esc) - len(_SENTINEL_SUFFIX_BYTES))
    ):
        esc = b"\\s" + esc
    return esc


def record_line_bytes(tokens: list[bytes], literals: list[int]) -> bytes:
    """serialize_record's line, as UTF-8 bytes, from a record's raw UTF-8
    tokens ``uri, key, value, key, value, ...``; `literals` holds the indices
    of the literal values.  The caller gives up `tokens`: its literals may be
    wrapped in place.

    The tokens are checked once, joined by NUL; no pattern below holds a
    NUL, so the joined line holds one only where a token does.  A record
    whose tokens hold no ``""`` or ``-instance`` needs no guard.  If none
    holds a byte to escape either, its literals are wrapped and it is
    written as it is.  If one does and none holds a NUL, the NULs are just
    the token bounds: the literals are wrapped, and the line is escaped
    whole, then each NUL made a TAB; escaping changes no quote and no NUL,
    so this equals escaping token by token.  Any other record is escaped a
    token at a time.  The check line is freed before the output line is
    built, so a hub record holds no third copy.
    """
    line = b"\0".join(tokens)
    escape = _BACKSLASH in line or _TAB in line or _LF in line or _CR in line
    per_token = (
        line.find(b'""') >= 0
        or line.find(_SENTINEL_SUFFIX_BYTES) >= 0
        or (escape and line.count(b"\0") >= len(tokens))
    )
    del line
    if per_token:
        tokens = [escape_token_bytes(token) for token in tokens]
    for i in literals:
        tokens[i] = b'""' + tokens[i] + b'""'
    if per_token or not escape:
        return b"\t".join(tokens)
    return (
        b"\0".join(tokens)
        .replace(b"\\", b"\\\\")
        .replace(b"\t", b"\\t")
        .replace(b"\n", b"\\n")
        .replace(b"\r", b"\\r")
        .replace(b"\0", b"\t")
    )


# DOTALL, so that a backslash before a raw newline is an unknown code, not a
# dangling one; \s is the guard marker and contributes nothing.
_ESCAPE = re.compile(r"\\(.?)", re.DOTALL)
_ESCAPE_CODES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r", "s": ""}


def _unescape_code(match: re.Match) -> str:
    code = match.group(1)
    out = _ESCAPE_CODES.get(code)
    if out is None:
        if not code:
            raise FlatRecordError("dangling escape at end of token")
        raise FlatRecordError(f"unknown escape code \\{code}")
    return out


def unescape_token(token: str) -> str:
    if "\\" not in token:
        return token
    return _ESCAPE.sub(_unescape_code, token)


def _value_token(value: ObjectValue) -> str:
    if value.kind == LITERAL:
        return '""' + escape_token(value.lexical) + '""'
    return escape_token(value.lexical)


def literal_body(token: str) -> str:
    """The inside of a token that starts with two double quotes.  The escape
    guard keeps all other tokens from starting so, so in any position such a
    token must be a whole literal wrapper ``""lexical""``."""
    if len(token) < 4 or not token.endswith('""'):
        raise FlatRecordError(f"unbalanced literal quotes in token {token[:40]!r}")
    return token[2:-2]


def _parse_value_token(token: str) -> ObjectValue:
    if token.startswith('""'):
        return ObjectValue(LITERAL, unescape_token(literal_body(token)))
    return ObjectValue(URI, unescape_token(token))


def serialize_record(rec: EntityRecord) -> str:
    """Emit the one-line form; token count is 1 + 2 * (number of values)."""
    tokens = [escape_token(rec.uri)]
    for key, values in rec.properties.items():
        ekey = escape_token(key)
        for value in values:
            tokens.append(ekey)
            tokens.append(_value_token(value))
    return "\t".join(tokens)


# Every backslash of the line opens a known two-character code.  The loop is
# unrolled, and possessive (Python 3.11): its two classes are disjoint, so it
# never needs to give a byte back, and it runs in linear time; a backslash
# before a TAB fails it.
_CLEAN_ESCAPES = re.compile(r"[^\\]*+(?:\\[\\tnrs][^\\]*+)*+")
# A token after a TAB that is empty, opens with a guard, or opens a literal
# wrapper and does not close it.  The pattern starts with a TAB, so the
# engine tries it only at the line's TABs.
_SUSPECT_TOKEN = re.compile(r'\t(?:\t|\\s|""(?![^\t]*""(?:\t|\Z)))')


def record_ok(line: str) -> bool:
    """Whether whole-line tests prove that parse_record accepts a record
    line, with no token list built: the line's TABs plus one is the token
    count.

    The tests stand in for parse_record's checks.  They are conservative:
    False means only that they could not prove the line well-formed, and
    parse_record then gives the reason, or accepts the line after all.
    """
    tokens = line.count("\t") + 1
    if tokens == 1 or tokens % 2 == 0:
        return False
    # An empty or guarded URI, and one that opens a quote, are left to
    # parse_record: the codec writes no URI that opens with "" unguarded.
    # With every escape known, a token unescapes to "" only if it is \s
    # guards alone, and the codec guards only rare tokens (a leading "" or a
    # sentinel shape), so any token that opens with a guard is left to it too,
    # as is an empty token, key or value.
    if line[0] in '\t\\"' or _SUSPECT_TOKEN.search(line):
        return False
    return "\\" not in line or _CLEAN_ESCAPES.fullmatch(line) is not None


def parse_record(line: str) -> EntityRecord:
    """Single-pass, non-recursive inverse of serialize_record.

    Repeats of a key (adjacent or not) aggregate into one ordered value
    list; key order is first occurrence in the line.  A URI, key or value
    token that opens a literal wrapper must close it.
    """
    tokens = line.split("\t")
    if len(tokens) % 2 == 0:
        raise FlatRecordError(f"even token count ({len(tokens)})")
    if len(tokens) == 1:
        raise FlatRecordError("record has no properties")
    if tokens[0].startswith('""'):
        literal_body(tokens[0])
    uri = unescape_token(tokens[0])
    if not uri:
        raise FlatRecordError("empty record URI")
    properties: dict[str, list[ObjectValue]] = {}
    for i in range(1, len(tokens), 2):
        key = tokens[i]
        if key.startswith('""'):
            literal_body(key)
        key = unescape_token(key)
        if not key:
            raise FlatRecordError(f"empty key at token {i}")
        properties.setdefault(key, []).append(_parse_value_token(tokens[i + 1]))
    return EntityRecord(uri, properties)


def record_from_triples(subject: str, triples: list[Triple]) -> EntityRecord:
    """Aggregate all triples of one subject into a record.

    Exact duplicate (predicate, object) pairs collapse to one; keys are
    ordered lexicographically, values in first-occurrence order.
    """
    if not triples:
        raise FlatRecordError("an entity must be subject of at least one triple")
    grouped: dict[str, list[ObjectValue]] = {}
    seen: set[tuple[str, ObjectValue]] = set()
    for t in triples:
        if t.subject != subject:
            raise FlatRecordError(
                f"triple subject {t.subject!r} does not match record subject {subject!r}"
            )
        pair = (t.predicate, t.object)
        if pair in seen:
            continue
        seen.add(pair)
        grouped.setdefault(t.predicate, []).append(t.object)
    return EntityRecord(subject, {k: grouped[k] for k in sorted(grouped)})
