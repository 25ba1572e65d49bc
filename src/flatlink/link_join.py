"""Join entity files with sameAs ground truth into self-contained linkage files.

A 2-way line has five tab-delimited slots::

    <link id> TAB <labelL>-instance TAB <left record> TAB <labelR>-instance TAB <right record>

where each record slot is the verbatim line from the source entity file.
A 3-way line carries ``<idA>,<idB>`` in its first slot followed by three
(sentinel, record) groups.  Sentinels never occur inside record tokens (the
token escape layer guards them), so every line parses on its own with one
``re.split`` on ``TAB (<label>)-instance``, followed by a TAB or the end of
the line.  The rules of a flat line live here, for join2's entity lines,
join3's 2-way lines and every line of validate, filter-type and stats:
``line_text`` refuses a raw CR and bytes that are not UTF-8, and
``split_link_line`` runs the split on the bytes of a linkage line, handing
only a line it does not cut cleanly to ``parse_link_line`` and the link-id
rules, which name the fault.

join2 is two shuffles: keyed by right URI, then by left URI.  Inside one
left URI the second shuffle's values arrive sorted by right URI, so its
outputs are already in link-id order and need no third sort.  join3 is two
shuffles too: keyed by the shared URI, then by left link id.  Inside one
left id the second shuffle's values arrive sorted by right id, so the lines
leave in (idA, idB) order with no final sort.  The first shuffle keeps only
the left link ids of one shared URI in memory.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterator

from . import engine
from .errors import FlatRecordError, LinkJoinError
from .flat_record import LABEL_RE, SENTINEL_SUFFIX, literal_body, unescape_token
from .rdf_ingest import ParseReport, iter_triple_bytes, not_utf8

OWL_SAMEAS = "http://www.w3.org/2002/07/owl#sameAs"
GT_FORMATS = ("tsv-pairs", "ntriples-sameas")

# Byte values for `in` tests on bytes: `int in bytes` is one memchr, while
# `bytes in bytes` first tries its operand as an integer and pays for the
# TypeError, several times slower per line.
_CR = ord("\r")
_COMMA = ord(",")
_BACKSLASH = ord("\\")


def sentinel_for(label: str) -> str:
    if not LABEL_RE.fullmatch(label):
        raise LinkJoinError(f"bad KB label {label!r}: must match {LABEL_RE.pattern}")
    return label + SENTINEL_SUFFIX


def gen_link_id(prefix: str, n: int) -> str:
    """`<prefix>-<n>`, n >= 1 in plain decimal."""
    if n < 1:
        raise LinkJoinError("link counter must be >= 1")
    return f"{prefix}-{n}"


@dataclass
class LinkLine:
    link_id: str
    groups: list[tuple[str, str]]  # (label, verbatim record slot)


# A sentinel token with its leading tab; \Z, since $ would also match before
# a trailing newline.  split() puts each label between its neighbouring slots.
_SENTINEL_SPLIT = re.compile(
    "\t(" + LABEL_RE.pattern + ")" + re.escape(SENTINEL_SUFFIX) + r"(?=\t|\Z)"
)
# The same split on bytes.  It matches ASCII bytes only, and UTF-8 never puts
# an ASCII byte inside a multi-byte sequence, so on a UTF-8 line both splits
# cut at the same places.
_SENTINEL_SPLIT_BYTES = re.compile(_SENTINEL_SPLIT.pattern.encode("ascii"))


def parse_link_line(line: str) -> LinkLine:
    """Split one linkage line into its id and (label, record) groups.

    Any sentinel-shaped token opens a group; valid record tokens can never
    be sentinel-shaped, so no label registry is required.
    """
    link_id, *parts = _SENTINEL_SPLIT.split(line)
    if not link_id or link_id[0] == "\t":
        raise LinkJoinError("empty link id slot")
    if not parts or "\t" in link_id:
        raise LinkJoinError("expected a sentinel label after the link id")
    groups: list[tuple[str, str]] = []
    for label, slot in zip(parts[::2], parts[1::2]):
        if not slot:
            raise LinkJoinError(f"empty record slot under {label!r}")
        groups.append((label, slot[1:]))
    return LinkLine(link_id, groups)


@dataclass
class GtReport(ParseReport):
    """Ground-truth accounting: lines_total == pairs_ok + lines_skipped +
    lines_blank in either format, and first_errors come in line order.

    For ntriples-sameas, triples_ok also counts the triples that the sameAs
    filter skips.
    """

    pairs_ok: int = 0


_UNSAFE_URI_CHAR = re.compile(r"[\x00-\x20]")
_UNSAFE_URI_BYTE = re.compile(_UNSAFE_URI_CHAR.pattern.encode("ascii"))


def _safe_uri(uri: str) -> bool:
    return bool(uri) and _UNSAFE_URI_CHAR.search(uri) is None


def check_link_id(link_id: str) -> None:
    """The link-id rule of join3 and validate.  No character at or below
    U+0020, since a byte below TAB would sort join3's second shuffle out of
    idB order, and, as for every token, no unclosed literal wrapper."""
    if _UNSAFE_URI_CHAR.search(link_id):
        raise LinkJoinError(f"bad link id: {link_id!r} holds a control or space character")
    if link_id.startswith('""'):
        literal_body(link_id)


def line_text(line: bytes) -> str:
    """A flat line without its newline as text, or why it is none: a raw CR
    (the codec escapes CR, so one comes from elsewhere, a CRLF ending, say),
    or bytes that are not UTF-8.  The first check of every flat line."""
    if _CR in line:
        raise LinkJoinError("raw control byte 0x0d")
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LinkJoinError(f"not UTF-8: {exc.reason}") from None


def split_link_line(line: bytes, arity: int) -> list[bytes]:
    """[link id, label, record, label, record, ...] of a linkage line with
    `arity` record groups, or the reason it is not one.  A line that the
    bytes split does not cut into a clean id and `arity` non-empty slots goes
    to the text checks, which name its fault, or accept it after all."""
    text = line_text(line)
    parts = _SENTINEL_SPLIT_BYTES.split(line)
    link_id = parts[0]
    slots = parts[2::2]
    if (
        len(parts) == 2 * arity + 1
        and all(slots)
        and link_id
        and not link_id.startswith(b'""')
        and not _UNSAFE_URI_BYTE.search(link_id)
        and (arity != 2 or _COMMA not in link_id)
    ):
        # Each slot holds the tab after its sentinel, then the record.
        parts[2::2] = [slot[1:] for slot in slots]
        return parts
    parsed = parse_link_line(text)
    check_link_id(parsed.link_id)
    if len(parsed.groups) != arity:
        raise LinkJoinError(f"expected {arity} record groups, found {len(parsed.groups)}")
    if arity == 2 and "," in parsed.link_id:
        # join3 writes `idA,idB`, so ids `a,b` + `c` and `a` + `b,c` would share it.
        raise LinkJoinError(f"bad link id: {parsed.link_id!r} holds a comma")
    fields = [parsed.link_id] + [field for group in parsed.groups for field in group]
    return [field.encode("utf-8") for field in fields]


def _record_uri(record: bytes) -> bytes:
    """The raw URI of a record: its first token, unescaped when it holds a
    backslash.  It is a join key, cut off at the item's first tab, so it must
    be non-empty and hold no byte at or below 0x20."""
    uri = record.split(b"\t", 1)[0]
    if _BACKSLASH in uri:
        uri = unescape_token(uri.decode("utf-8")).encode("utf-8")
    if not uri or _UNSAFE_URI_BYTE.search(uri):
        raise LinkJoinError("empty URI or control or space character in URI")
    return uri


def load_ground_truth(
    path: str,
    format: str,
    sameas_uri: str = OWL_SAMEAS,
    report: GtReport | None = None,
) -> Iterator[tuple[str, str]]:
    """Stream (left, right) URI pairs from a ground-truth file.

    Pairs keep file orientation, and duplicates stream through: join2
    collapses them inside its shuffle, so no pair is held in memory here.
    """
    if format not in GT_FORMATS:
        raise LinkJoinError(f"unknown ground-truth format {format!r}")
    if report is None:
        report = GtReport()

    if format == "tsv-pairs":
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            for line_no, raw in enumerate(fh, 1):
                report.lines_total += 1
                line = raw.rstrip("\r\n")
                if not line:
                    report.lines_blank += 1
                    continue
                if not_utf8(line):
                    report.record_error(line_no, "not UTF-8")
                    continue
                fields = line.split("\t")
                if len(fields) != 2:
                    report.record_error(line_no, f"expected 2 fields, got {len(fields)}")
                    continue
                left, right = fields
                if not (_safe_uri(left) and _safe_uri(right)):
                    report.record_error(line_no, "empty URI or control/space character")
                    continue
                report.pairs_ok += 1
                yield left, right
    else:
        # Read through compile's bytes path, which yields what iter_triples
        # would, as UTF-8 bytes.  In a report that starts at zero, as join2's
        # does, lines_total is the number of the line that produced the
        # triple.  URIs and blank-node labels are non-empty and hold no byte
        # at or below 0x20, so the pairs keep the tsv-pairs URI rule
        # unchecked.  A sameas_uri with a lone surrogate (a command-line
        # argument that is not UTF-8) encodes to bytes no checked line holds.
        sameas = sameas_uri.encode("utf-8", "surrogatepass")
        for subject, predicate, obj in iter_triple_bytes(path, report):
            if predicate != sameas:
                report.record_error(report.lines_total, f"predicate is not {sameas_uri}")
                continue
            if obj[:1] != b"U":  # the kind byte
                report.record_error(report.lines_total, "sameAs object is a literal")
                continue
            report.pairs_ok += 1
            yield subject.decode("utf-8"), obj[1:].decode("utf-8")


@dataclass
class Join2Report:
    labels: tuple[str, str] = ("", "")
    pairs_read: int = 0
    pairs_unique: int = 0
    pairs_dropped_left: int = 0
    pairs_dropped_right: int = 0
    lines_emitted: int = 0
    gt_lines_skipped: int = 0
    spill_runs: int = 0

    def as_kv(self) -> str:
        return (
            f"labels={self.labels[0]},{self.labels[1]} pairs_read={self.pairs_read} "
            f"pairs_unique={self.pairs_unique} pairs_dropped_left={self.pairs_dropped_left} "
            f"pairs_dropped_right={self.pairs_dropped_right} lines_emitted={self.lines_emitted} "
            f"gt_lines_skipped={self.gt_lines_skipped} spill_runs={self.spill_runs}"
        )


def _iter_entity_items(path: str) -> Iterator[bytes]:
    # item = raw uri \t verbatim line; the uri field is the unescaped first
    # token, matching the raw URIs carried by ground-truth items.
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.rstrip(b"\n")
            if not line:
                raise LinkJoinError(f"{path}:{line_no}: blank line in entity file")
            # The line goes into the output verbatim, where validate judges it.
            try:
                line_text(line)
                uri = _record_uri(line)
            except (LinkJoinError, FlatRecordError) as exc:
                raise LinkJoinError(f"{path}:{line_no}: bad entity line: {exc}") from exc
            yield uri + b"\t" + line


def _entity_line(key: bytes, seen: bytes | None, item: bytes, side: str) -> bytes:
    """The entity line of a tag-0 item; one key has at most one."""
    if seen is not None:
        raise LinkJoinError(
            f"duplicate subject {key.decode('utf-8', 'replace')!r} in {side} entity file"
        )
    return item[len(key) + 2 :]


# Each reduce below reads an engine item `key TAB tag-byte rest` in place:
# the tag at item[len(key) + 1] and the rest from len(key) + 2 on.


def _reduce_by_right(key: bytes, items: Iterator[bytes]):
    # tag 0: the right entity line; tag 1: ground-truth items r \t l, sorted
    # by l with duplicates adjacent.  Yields l \t r \t right-line once per
    # unique pair, with an empty right line when r has none.
    at = len(key) + 1
    line = None
    prev = None
    for item in items:
        if item[at] == 0:
            line = _entity_line(key, line, item, "right")
        elif item != prev:
            prev = item
            yield item[at + 1 :] + b"\t" + key + b"\t" + (line or b"")


_DROPPED_LEFT = b"L"
_DROPPED_RIGHT = b"R"


def _reduce_by_left(sentinels: tuple[bytes, bytes], key: bytes, items: Iterator[bytes]):
    # tag 0: the left entity line; tag 1: _reduce_by_right's items, sorted by
    # r, so the matches of one key leave in link-id order.  A match is the
    # output line after its link id; a drop is one marker byte.
    s_left, s_right = sentinels
    at = len(key) + 1
    line = None
    for item in items:
        if item[at] == 0:
            line = _entity_line(key, line, item, "left")
        elif line is None:
            yield _DROPPED_LEFT
        else:
            right = item[item.index(b"\t", at + 1) + 1 :]
            if right:
                yield b"\t".join((b"", s_left, line, s_right, right)) + b"\n"
            else:
                yield _DROPPED_RIGHT


def join2(
    left_path: str,
    right_path: str,
    gt_path: str,
    gt_format: str,
    labels: tuple[str, str],
    out_path: str,
    cfg: engine.ExecConfig,
    sameas_uri: str = OWL_SAMEAS,
    stats: engine.JobStats | None = None,
) -> Join2Report:
    """Inner-join two entity files through the ground truth.

    One output line per unique ground-truth pair present on both sides;
    link ids count up from 1 in ascending (left uri, right uri) order, which
    is also the file order.
    """
    sentinel_left = sentinel_for(labels[0])
    sentinel_right = sentinel_for(labels[1])
    if labels[0] == labels[1]:
        raise LinkJoinError("join labels must be distinct")
    if stats is None:
        stats = engine.JobStats()
    gt_report = GtReport()
    report = Join2Report(labels=labels)

    def gt_items() -> Iterator[bytes]:
        for left, right in load_ground_truth(gt_path, gt_format, sameas_uri, gt_report):
            yield right.encode("utf-8") + b"\t" + left.encode("utf-8")

    by_right = engine.run_group_by(
        [(0, _iter_entity_items(right_path)), (1, gt_items())],
        engine.first_field,
        _reduce_by_right,
        cfg,
        stats=stats,
    )
    by_left = engine.run_group_by(
        # by_right first: the first shuffle drains, and its sorter's buffer
        # goes, before this one buffers the left file.  Tags set the order.
        [(1, by_right), (0, _iter_entity_items(left_path))],
        engine.first_field,
        functools.partial(
            _reduce_by_left, (sentinel_left.encode("utf-8"), sentinel_right.encode("utf-8"))
        ),
        cfg,
        stats=stats,
    )

    prefix = labels[0][0] + labels[1][0]
    with engine.atomic_output(out_path) as out:
        for tail in by_left:
            if tail == _DROPPED_LEFT:
                report.pairs_dropped_left += 1
            elif tail == _DROPPED_RIGHT:
                report.pairs_dropped_right += 1
            else:
                report.lines_emitted += 1
                out.write(gen_link_id(prefix, report.lines_emitted).encode("utf-8") + tail)

    report.pairs_read = gt_report.pairs_ok
    report.gt_lines_skipped = gt_report.lines_skipped
    report.pairs_unique = (
        report.pairs_dropped_left + report.pairs_dropped_right + report.lines_emitted
    )
    report.spill_runs = stats.spill_runs
    return report


@dataclass
class Join3Report:
    lines_left: int = 0
    lines_right: int = 0
    lines_emitted: int = 0
    spill_runs: int = 0

    def as_kv(self) -> str:
        return (
            f"lines_left={self.lines_left} lines_right={self.lines_right} "
            f"lines_emitted={self.lines_emitted} spill_runs={self.spill_runs}"
        )


def _iter_2way(
    path: str, shared_label: str, allowed: set[str]
) -> Iterator[tuple[bytes, bytes, str, dict[str, bytes]]]:
    """(shared URI, link id, other KB label, records by label) per 2-way line."""
    shared = shared_label.encode("ascii")
    with open(path, "rb") as fh:
        for line_no, raw in enumerate(fh, 1):
            try:
                link_id, label_a, slot_a, label_b, slot_b = split_link_line(
                    raw.rstrip(b"\n"), 2
                )
            except (LinkJoinError, FlatRecordError) as exc:
                raise LinkJoinError(f"{path}:{line_no}: {exc}") from exc
            if label_a == shared:
                other, shared_slot, other_slot = label_b, slot_a, slot_b
            elif label_b == shared:
                other, shared_slot, other_slot = label_a, slot_b, slot_a
            else:
                raise LinkJoinError(f"{path}:{line_no}: shared KB {shared_label!r} absent")
            if other == shared:
                raise LinkJoinError(f"{path}:{line_no}: one KB holds both records")
            other_label = other.decode("ascii")
            if other_label not in allowed:
                raise LinkJoinError(
                    f"{path}:{line_no}: KB {other_label!r} is not in the output order"
                )
            try:
                uri = _record_uri(shared_slot)
            except (LinkJoinError, FlatRecordError) as exc:
                raise LinkJoinError(f"{path}:{line_no}: bad entity line: {exc}") from exc
            yield uri, link_id, other_label, {shared_label: shared_slot, other_label: other_slot}


def _reduce_by_uri(key: bytes, items: Iterator[bytes]):
    # tag 0: left items `uri \t idA \t C \t record`; tag 1: right items
    # `uri \t idB \t label \t slot`.  Yields each left item once as
    # `idA \t \t C \t record`, whose empty field sorts before every idB,
    # then `idA \t idB \t label \t slot` per pair.  Only the ids are held.
    at = len(key) + 1
    ids = []
    for item in items:
        rest = item[at + 1 :]
        if item[at] == 0:
            id_a, record = rest.split(b"\t", 1)
            ids.append(id_a)
            yield id_a + b"\t\t" + record
        else:
            for id_a in ids:
                yield id_a + b"\t" + rest


def _reduce_by_left_id(left_path: str, key: bytes, items: Iterator[bytes]):
    # The left line comes first and its matches follow sorted by idB, so the
    # output lines leave in (idA, idB) order.  C's record goes where the left
    # record holds a newline.
    head = None
    id_a = key.decode("utf-8", "replace")
    start = len(key) + 2  # every item has tag 0
    for item in items:
        id_b, label, value = item[start:].split(b"\t", 2)
        if not id_b:
            if head is not None:
                raise LinkJoinError(
                    f"{left_path}: duplicate link id {id_a!r} in left linkage file"
                )
            missing = label
            head, tail = value.split(b"\n")
        elif label != missing:
            raise LinkJoinError(
                f"{id_a},{id_b.decode('utf-8', 'replace')}: line labels do not cover the output"
                f" order: the right line's KB {label.decode()!r} is not {missing.decode()!r}"
            )
        else:
            yield key + b"," + id_b + b"\t" + head + value + tail + b"\n"


def join3(
    ab_path: str,
    cb_path: str,
    shared_label: str,
    order: list[str],
    out_path: str,
    cfg: engine.ExecConfig,
    stats: engine.JobStats | None = None,
) -> Join3Report:
    """Join two 2-way linkage files on their shared KB's entity URIs.

    Every AB line pairs with every CB line holding the same shared-KB URI;
    the shared record is taken from the AB side.  Output is sorted by idA,
    then idB, and each first slot reads ``idA,idB``.  AB link ids must be
    unique; ids in both files must hold no control or space character and,
    so that no two pairs share an output id, no comma.
    """
    if len(order) != 3 or len(set(order)) != 3:
        raise LinkJoinError("order must list 3 distinct KB labels")
    if shared_label not in order:
        raise LinkJoinError(f"shared label {shared_label!r} missing from order")
    sentinels = {label: sentinel_for(label).encode("utf-8") for label in order}
    allowed = set(order)
    if stats is None:
        stats = engine.JobStats()
    report = Join3Report()

    def left_items() -> Iterator[bytes]:
        # record = the line's groups in output order, with a newline in
        # place of the record of C, the KB that the right line supplies.
        for uri, link_id, other_label, slots in _iter_2way(ab_path, shared_label, allowed):
            report.lines_left += 1
            (missing,) = allowed - set(slots)
            record = b"\t".join(
                sentinels[label] + b"\t" + slots.get(label, b"\n") for label in order
            )
            yield b"\t".join((uri, link_id, missing.encode("utf-8"), record))

    def right_items() -> Iterator[bytes]:
        for uri, link_id, other_label, slots in _iter_2way(cb_path, shared_label, allowed):
            report.lines_right += 1
            yield b"\t".join((uri, link_id, other_label.encode("utf-8"), slots[other_label]))

    by_uri = engine.run_group_by(
        [(0, left_items()), (1, right_items())],
        engine.first_field,
        _reduce_by_uri,
        cfg,
        stats=stats,
    )
    by_left_id = engine.run_group_by(
        [(0, by_uri)],
        engine.first_field,
        functools.partial(_reduce_by_left_id, ab_path),
        cfg,
        stats=stats,
    )
    with engine.atomic_output(out_path) as out:
        for line in by_left_id:
            out.write(line)
            report.lines_emitted += 1

    report.spill_runs = stats.spill_runs
    return report
