"""Join entity files with sameAs ground truth into self-contained linkage files.

A 2-way line has five tab-delimited slots::

    <link id> TAB <labelL>-instance TAB <left record> TAB <labelR>-instance TAB <right record>

where each record slot is the verbatim line from the source entity file.
A 3-way line carries ``<idA>,<idB>`` in its first slot followed by three
(sentinel, record) groups.  Sentinels never occur inside record tokens (the
token escape layer guards them), so every line parses on its own with one
``split`` on ``-instance TAB``: a chunk whose tail after its last TAB is a
label ends in a sentinel, and a sentinel may also end the line.  The rules
of a flat line live here, for join2's entity lines, join3's 2-way lines and
every line of validate, filter-type and stats: ``line_text`` refuses a raw
CR and bytes that are not UTF-8, and ``split_link_line`` cuts the bytes of
a linkage line and names each fault of its cut, its link id and its group
count itself.  The whole-line check is the caller's: join3 runs it on every
line, since it copies bytes, and the tools, which decode each piece they
read, run it only on a fault, so it still names a line's first fault.
Ground truth is read through ``rdf_ingest``'s block reader, tsv-pairs by
``read_lines`` and ntriples-sameas by ``iter_triple_bytes``, and its pairs
stay UTF-8 bytes into join2's items.

join2 is a merge join, because entity files strictly ascend by raw URI, the
join key: it sorts only the ground-truth items ``right TAB left`` and merges
them, grouped by right URI, with the right entity file as it reads it; then
it sorts those outputs ``left TAB right TAB right line`` and merges them,
grouped by left URI, with the left entity file.  Inside one left URI the
second sort's items arrive by right URI, so the lines leave in link-id order
with no third sort.  No entity line goes through a sort, and each merge reads
its file to the end, so every line is checked.

join3 is two sorts.  The first, the shuffle ``engine.run_group_by`` keyed by
the shared URI, merges the two files, so its items carry a tag byte; it keeps
only the left link ids of one shared URI in memory.  The second sorts its
outputs as they are, and join3 groups them by left link id.  Inside one left
id they arrive sorted by right id, so the lines leave in (idA, idB) order
with no final sort.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
from dataclasses import dataclass
from typing import Iterator

from . import engine
from .errors import FlatRecordError, LinkJoinError
from .flat_record import (
    _LABEL_BYTES, _SENTINEL_SUFFIX_BYTES, LABEL_RE, SENTINEL_SUFFIX, unescape_token,
)
from .rdf_ingest import (
    _BACKSLASH, _CONTROL_OR_SPACE, _CR, _TAB, ParseReport, iter_triple_bytes, read_lines,
)

OWL_SAMEAS = "http://www.w3.org/2002/07/owl#sameAs"
GT_FORMATS = ("tsv-pairs", "ntriples-sameas")

_COMMA = ord(",")  # an int for `in` tests, as rdf_ingest's byte values
# The kind byte that opens a URI object of iter_triple_bytes.
_URI_KIND = ord("U")


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


# Every sentinel token but one that ends the line is followed by a TAB.
_SENTINEL_TAB = _SENTINEL_SUFFIX_BYTES + b"\t"
_LABEL = _LABEL_BYTES.fullmatch


def _cut(line: bytes) -> list[bytes]:
    """[link id, label, record, label, record, ...] of a linkage line, or
    the fault of its cut: an empty id, no sentinel after it, or an empty
    record slot.

    A sentinel is a token after a TAB that is a label and ``-instance``, so
    one ``split`` on ``-instance`` TAB finds every candidate, and a line
    that ends in ``-instance`` gets one more, with no slot after it.  A
    chunk ends in a sentinel when its tail after its last TAB is a label; a
    chunk with no TAB of its own has the TAB that ends the chunk before it,
    and none if it opens the line.  Any other chunk is glued to the next,
    with its ``-instance`` TAB.  A sentinel right after another, or at the
    end of the line, leaves its slot missing (None), while a TAB there
    gives an empty slot.  Every cut byte is ASCII, and UTF-8 never puts an
    ASCII byte inside a multi-byte sequence, so this cuts a UTF-8 line
    where a text split would.
    """
    chunks = line.split(_SENTINEL_TAB)
    if line.endswith(_SENTINEL_SUFFIX_BYTES):
        chunks[-1] = chunks[-1][: -len(_SENTINEL_SUFFIX_BYTES)]
        chunks.append(None)
    last = chunks.pop()
    parts = []
    glued = b""  # the chunks since the last sentinel, each with its -instance TAB
    for chunk in chunks:
        head, tab, label = chunk.rpartition(b"\t")
        if _LABEL(label) and (tab or glued or parts):
            if tab:
                parts += glued + head, label
            elif glued:
                parts += glued[:-1], label
            else:
                parts += None, label  # right after another sentinel
            glued = b""
        else:
            glued += chunk + _SENTINEL_TAB
    if last is None:
        parts.append(glued[:-1] if glued else None)
    else:
        parts.append(glued + last)
    link_id = parts[0]
    if not link_id or link_id[0] == _TAB:
        raise LinkJoinError("empty link id slot")
    if len(parts) == 1 or _TAB in link_id:
        raise LinkJoinError("expected a sentinel label after the link id")
    if None in parts:
        label = parts[parts.index(None) - 1].decode("ascii")
        raise LinkJoinError(f"empty record slot under {label!r}")
    return parts


def parse_link_line(line: str) -> LinkLine:
    """Split one linkage line into its id and (label, record) groups.

    Any sentinel-shaped token opens a group; valid record tokens can never
    be sentinel-shaped, so no label registry is required.
    """
    link_id, *parts = [
        part.decode("utf-8", "surrogatepass")
        for part in _cut(line.encode("utf-8", "surrogatepass"))
    ]
    return LinkLine(link_id, list(zip(parts[::2], parts[1::2])))


@dataclass
class GtReport(ParseReport):
    """Ground-truth accounting: lines_total == pairs_ok + lines_skipped +
    lines_blank in either format, and first_errors come in line order.

    For ntriples-sameas, triples_ok also counts the triples that the sameAs
    filter skips.
    """

    pairs_ok: int = 0


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
    `arity` record groups, or its first fault: the cut, the link-id rule of
    join3 and validate (no byte at or below 0x20, which would sort join3's
    second sort out of idB order, and no opening literal wrapper, which
    join3 would copy into `idA,idB`), the group count.

    A raw CR or a UTF-8 fault comes before all of these, and the caller
    checks for it with ``line_text``: join3 first, the tools, which decode
    the pieces, only on a fault.  On a line that is not UTF-8 the id of a
    message may not decode, and UnicodeDecodeError leaves instead.
    """
    fields = _cut(line)
    link_id = fields[0]
    if _CONTROL_OR_SPACE.search(link_id):
        raise LinkJoinError(
            f"bad link id: {link_id.decode('utf-8')!r} holds a control or space character"
        )
    if link_id.startswith(b'""'):
        raise LinkJoinError(f"bad link id: {link_id.decode('utf-8')!r} opens a literal wrapper")
    if len(fields) != 2 * arity + 1:
        raise LinkJoinError(f"expected {arity} record groups, found {len(fields) // 2}")
    if arity == 2 and _COMMA in link_id:
        # join3 writes `idA,idB`, so ids `a,b` + `c` and `a` + `b,c` would share it.
        raise LinkJoinError(f"bad link id: {link_id.decode('utf-8')!r} holds a comma")
    return fields


def _record_uri(record: bytes) -> bytes:
    """The raw URI of a record: its first token, unescaped when it holds a
    backslash.  It is a join key, cut off at the item's first tab, so it must
    be non-empty and hold no byte at or below 0x20."""
    uri = record.split(b"\t", 1)[0]
    if _BACKSLASH in uri:
        uri = unescape_token(uri.decode("utf-8")).encode("utf-8")
    if not uri or _CONTROL_OR_SPACE.search(uri):
        raise LinkJoinError("empty URI or control or space character in URI")
    return uri


def load_ground_truth(
    path: str,
    format: str,
    sameas_uri: str = OWL_SAMEAS,
    report: GtReport | None = None,
) -> Iterator[tuple[bytes, bytes]]:
    """Stream (left, right) URI pairs as UTF-8 bytes from a ground-truth
    file, plain or .gz, any line ending: tsv-pairs through read_lines, and
    ntriples-sameas through iter_triple_bytes, compile's parser, which cuts
    each part's triples from one findall and yields them a part at a time
    with their line numbers.  Each part's errors, the reader's and the
    sameAs filter's, are recorded in line order under any error_cap.

    Pairs keep file orientation, and duplicates stream through: join2
    collapses them inside its first merge, so no pair is held in memory here.
    """
    if format not in GT_FORMATS:
        raise LinkJoinError(f"unknown ground-truth format {format!r}")
    if report is None:
        report = GtReport()

    if format == "tsv-pairs":
        unsafe = _CONTROL_OR_SPACE.search
        for line_no, line in read_lines(path, report):
            if not line:
                report.lines_blank += 1
                continue
            fields = line.split(b"\t")
            if len(fields) != 2:
                report.record_error(line_no, f"expected 2 fields, got {len(fields)}")
                continue
            left, right = fields
            if not (left and right) or unsafe(left) or unsafe(right):
                report.record_error(line_no, "empty URI or control/space character")
                continue
            report.pairs_ok += 1
            yield left, right
    else:
        # Compile's bytes path yields what iter_triples would, a part at a
        # time with each triple's line number, and its URIs and blank-node
        # labels keep the tsv-pairs URI rule.  The reader has recorded a
        # part's errors by the time the part comes, so this loop's errors
        # for the part are merged into them in line order, and the
        # first error_cap of the two stay.  A sameas_uri that is not UTF-8
        # (a lone surrogate from argv) matches no line.
        sameas = sameas_uri.encode("utf-8", "surrogatepass")
        kept = len(report.first_errors)
        for triples, line_nos in iter_triple_bytes(path, report):
            errors = []
            for (subject, predicate, obj), line_no in zip(triples, line_nos):
                if predicate != sameas:
                    errors.append((line_no, f"predicate is not {sameas_uri}"))
                elif obj[0] != _URI_KIND:
                    errors.append((line_no, "sameAs object is a literal"))
                else:
                    report.pairs_ok += 1
                    yield subject, obj[1:]
            if errors:
                report.lines_skipped += len(errors)
                merged = sorted(report.first_errors[kept:] + errors)
                report.first_errors[kept:] = merged[: report.error_cap - kept]
            kept = len(report.first_errors)


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


def _entity_lines(path: str, side: str) -> Iterator[tuple[bytes, bytes]]:
    """(raw URI, verbatim line) of each line of an entity file, every line
    checked; the raw URI is the unescaped first token, which ground-truth
    items carry.  URIs must strictly ascend, as compile writes them."""
    prev = b""
    with engine.open_input(path) as fh:
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
            if uri <= prev:
                text = uri.decode("utf-8", "replace")
                if uri == prev:
                    raise LinkJoinError(
                        f"{path}:{line_no}: duplicate subject {text!r} in {side} entity file"
                    )
                raise LinkJoinError(
                    f"{path}:{line_no}: entity file not sorted: subject {text!r} sorts"
                    " below the line before"
                )
            prev = uri
            yield uri, line


def _merge(
    items: Iterator[bytes],
    entities: Iterator[tuple[bytes, bytes]],
    reduce,
    stats: engine.JobStats,
):
    """Merge sorted items, grouped by first field, with the (URI, line) pairs
    of an entity file in the same order: yields from reduce(key, line or
    None, group) per key, and reads the file to its end, so every line is
    checked.  Closes both streams when it ends or fails."""
    try:
        # The file is read only once the first group is in, so a fault of the
        # right file comes before any of the left's.  uri is None at its end.
        uri, line = b"", None
        for key, group in itertools.groupby(items, key=engine.first_field):
            while uri is not None and uri < key:
                uri, line = next(entities, (None, None))
            stats.keys_reduced += 1
            yield from reduce(key, line if uri == key else None, group)
        for _ in entities:
            pass
    finally:
        items.close()
        entities.close()


def _reduce_by_right(key: bytes, line: bytes | None, items: Iterator[bytes]):
    # Ground-truth items r \t l of one r, sorted by l with duplicates
    # adjacent, and r's right entity line.  Yields l \t r \t right-line once
    # per unique pair, with an empty right line when r has none.
    tail = b"\t" + key + b"\t" + (line or b"")
    start = len(key) + 1
    prev = None
    for item in items:
        if item != prev:
            prev = item
            yield item[start:] + tail


def _reduce_by_left(
    sentinels: tuple[bytes, bytes],
    report: Join2Report,
    key: bytes,
    line: bytes | None,
    items: Iterator[bytes],
):
    # _reduce_by_right's items of one l, sorted by r, so they leave in link-id
    # order, and l's left entity line.  Yields each match's output line after
    # its link id, and counts each drop in the report: a pair missing on both
    # sides is dropped left.
    if line is None:
        report.pairs_dropped_left += sum(1 for _ in items)
        return
    s_left, s_right = sentinels
    head = b"\t".join((b"", s_left, line, s_right, b""))
    at = len(key) + 1
    for item in items:
        right = item[item.index(b"\t", at) + 1 :]
        if right:
            yield head + right + b"\n"
        else:
            report.pairs_dropped_right += 1


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
    is also the file order.  Each entity file's URIs must strictly ascend.
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
            yield right + b"\t" + left

    # The reduces are looked up here, at call time, so a patched one runs.
    by_right = _merge(
        engine.external_sort(gt_items(), cfg, stats),
        _entity_lines(right_path, "right"),
        _reduce_by_right,
        stats,
    )
    by_left = _merge(
        engine.external_sort(by_right, cfg, stats),
        _entity_lines(left_path, "left"),
        functools.partial(
            _reduce_by_left,
            (sentinel_left.encode("utf-8"), sentinel_right.encode("utf-8")),
            report,
        ),
        stats,
    )

    prefix = labels[0][0] + labels[1][0]
    # closing: a failed write frees the sorts' spill runs at once too.
    with engine.atomic_output(out_path) as out, contextlib.closing(by_left):
        for tail in by_left:
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


def _cut_2way(line: bytes, shared: bytes, others: dict[bytes, bytes]) -> tuple[bytes, ...]:
    """(shared URI, link id, other KB label, shared slot, other slot) of a
    2-way line, or its first fault, which names no location.  join3 copies
    the slots' bytes, so the whole line is checked first."""
    line_text(line)
    link_id, label_a, slot_a, label_b, slot_b = split_link_line(line, 2)
    if label_a == shared:
        other, shared_slot, other_slot = label_b, slot_a, slot_b
    elif label_b == shared:
        other, shared_slot, other_slot = label_a, slot_b, slot_a
    else:
        raise LinkJoinError(f"shared KB {shared.decode()!r} absent")
    if other == shared:
        raise LinkJoinError("one KB holds both records")
    if other not in others:
        raise LinkJoinError(f"KB {other.decode()!r} is not in the output order")
    try:
        uri = _record_uri(shared_slot)
    except (LinkJoinError, FlatRecordError) as exc:
        raise LinkJoinError(f"bad entity line: {exc}") from exc
    return uri, link_id, other, shared_slot, other_slot


def _iter_2way(path: str, shared: bytes, others: dict[bytes, bytes]) -> Iterator[tuple]:
    """_cut_2way of each line of a 2-way linkage file; a fault names its line."""
    with engine.open_input(path) as fh:
        for line_no, raw in enumerate(fh, 1):
            try:
                yield _cut_2way(raw.rstrip(b"\n"), shared, others)
            except LinkJoinError as exc:
                raise LinkJoinError(f"{path}:{line_no}: {exc}") from exc


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


def _reduce_by_left_id(left_path: str, right_path: str, key: bytes, items: Iterator[bytes]):
    # The left line comes first and its matches follow sorted by idB, so the
    # output lines leave in (idA, idB) order, and a right id listed twice on
    # the shared URI comes twice in a row.  C's record goes where the left
    # record holds a newline.
    head = None
    prev_b = None
    id_a = key.decode("utf-8", "replace")
    start = len(key) + 1
    for item in items:
        id_b, label, value = item[start:].split(b"\t", 2)
        if not id_b:
            if head is not None:
                raise LinkJoinError(
                    f"{left_path}: duplicate link id {id_a!r} in left linkage file"
                )
            missing = label
            head, tail = value.split(b"\n")
        elif id_b == prev_b:
            id_b = id_b.decode("utf-8", "replace")
            raise LinkJoinError(f"{right_path}: duplicate link id {id_b!r} in right linkage file")
        elif label != missing:
            raise LinkJoinError(
                f"{left_path} and {right_path}: {id_a},{id_b.decode('utf-8', 'replace')}: line"
                f" labels do not cover the output order: the right line's KB"
                f" {label.decode()!r} is not {missing.decode()!r}"
            )
        else:
            prev_b = id_b
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
    unique, and a CB link id must not repeat on one shared URI; ids in both
    files must hold no control or space character, must not open a literal
    wrapper and, so that no two pairs share an output id, hold no comma.
    """
    if len(order) != 3 or len(set(order)) != 3:
        raise LinkJoinError("order must list 3 distinct KB labels")
    if shared_label not in order:
        raise LinkJoinError(f"shared label {shared_label!r} missing from order")
    # Labels are bytes from here on, as lines hold them: the sentinel of each
    # in output order, and the KB that a line of each other KB lacks.
    tokens = [sentinel_for(label).encode("ascii") for label in order]
    sentinels = {token[: -len(SENTINEL_SUFFIX)]: token for token in tokens}
    shared = shared_label.encode("ascii")
    others = {a: b for a in sentinels for b in sentinels if shared != a != b != shared}
    if stats is None:
        stats = engine.JobStats()
    report = Join3Report()

    def left_items() -> Iterator[bytes]:
        # record = the line's groups in output order, with a newline in
        # place of the record of C, the KB that the right line supplies.
        for uri, link_id, other, shared_slot, other_slot in _iter_2way(ab_path, shared, others):
            report.lines_left += 1
            slots = {shared: shared_slot, other: other_slot}
            record = b"\t".join(
                sentinel + b"\t" + slots.get(label, b"\n") for label, sentinel in sentinels.items()
            )
            yield b"\t".join((uri, link_id, others[other], record))

    def right_items() -> Iterator[bytes]:
        for uri, link_id, other, _, other_slot in _iter_2way(cb_path, shared, others):
            report.lines_right += 1
            yield b"\t".join((uri, link_id, other, other_slot))

    by_uri = engine.run_group_by(
        [(0, left_items()), (1, right_items())],
        engine.first_field,
        _reduce_by_uri,
        cfg,
        stats=stats,
    )
    by_left_id = engine.external_sort(by_uri, cfg, stats)
    # closing: a failed write frees both sorts' spill runs at once too.
    with engine.atomic_output(out_path) as out, contextlib.closing(by_left_id):
        for key, group in itertools.groupby(by_left_id, key=engine.first_field):
            stats.keys_reduced += 1
            for line in _reduce_by_left_id(ab_path, cb_path, key, group):
                out.write(line)
                report.lines_emitted += 1

    report.spill_runs = stats.spill_runs
    return report
