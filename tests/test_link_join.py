import gzip
import os
import re
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatlink import engine, rdf_ingest
from flatlink.engine import ExecConfig, JobStats
from flatlink.errors import FlatlinkError, LinkJoinError
from flatlink.flat_record import EntityRecord, serialize_record
from flatlink.link_join import (
    GtReport,
    OWL_SAMEAS,
    LinkLine,
    gen_link_id,
    join2,
    join3,
    line_text,
    load_ground_truth,
    parse_link_line,
    sentinel_for,
    split_link_line,
)
from flatlink.rdf_ingest import LITERAL, URI, ObjectValue, iter_triples
from flatlink.flat_record import parse_record
from flatlink.tools import _line_records, validate


def cfg_for(tmp_path, **kw) -> ExecConfig:
    kw.setdefault("memory_budget_bytes", 1 << 20)
    kw.setdefault("spill_dir", str(tmp_path / "spill"))
    return ExecConfig(**kw)


def entity(uri: str, **props) -> tuple[str, str]:
    record = EntityRecord(
        uri,
        {k: [ObjectValue(URI, v) if v.startswith("http") else ObjectValue(LITERAL, v) for v in vs]
         for k, vs in sorted(props.items())},
    )
    return uri, serialize_record(record)


def write_entity_file(path, entities: dict[str, str]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for uri in sorted(entities):
            fh.write(entities[uri] + "\n")


def read_lines(path) -> list[str]:
    with open(path, "r", encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh]


# --- ground truth ----------------------------------------------------------

def test_gt_tsv_pairs(tmp_path):
    path = tmp_path / "gt.tsv"
    path.write_text("http://f/1\thttp://d/1\nhttp://f/2\thttp://d/2\n", encoding="utf-8")
    pairs = list(load_ground_truth(str(path), "tsv-pairs"))
    assert pairs == [(b"http://f/1", b"http://d/1"), (b"http://f/2", b"http://d/2")]


def test_gt_ntriples_sameas(tmp_path):
    path = tmp_path / "gt.nt"
    path.write_text(
        "<http://f/1> <http://www.w3.org/2002/07/owl#sameAs> <http://d/1> .\n"
        "<http://f/1> <http://other/pred> <http://d/9> .\n",
        encoding="utf-8",
    )
    report = GtReport()
    pairs = list(load_ground_truth(str(path), "ntriples-sameas", report=report))
    assert pairs == [(b"http://f/1", b"http://d/1")]
    assert report.pairs_ok == 1
    assert report.lines_skipped == 1  # the non-sameAs triple


def test_gt_duplicates_collapse(tmp_path):
    # Duplicates stream through the loader, which holds no set of pairs;
    # join2 collapses them in its shuffle (see the join2 oracle test).
    path = tmp_path / "gt.tsv"
    path.write_text("a\tb\na\tb\nc\td\n", encoding="utf-8")
    report = GtReport()
    pairs = list(load_ground_truth(str(path), "tsv-pairs", report=report))
    assert pairs == [(b"a", b"b"), (b"a", b"b"), (b"c", b"d")]
    assert report.pairs_ok == 3


def test_gt_malformed_lines_skipped(tmp_path):
    path = tmp_path / "gt.tsv"
    path.write_text("a\tb\tc\nonly-one-field\nok\tpair\nbad uri\tx\n", encoding="utf-8")
    report = GtReport()
    pairs = list(load_ground_truth(str(path), "tsv-pairs", report=report))
    assert pairs == [(b"ok", b"pair")]
    assert report.lines_skipped == 3
    assert report.pairs_ok == 1


def test_gt_invalid_utf8_line_is_skipped(tmp_path):
    path = tmp_path / "gt.tsv"
    path.write_bytes(b"a\tb\nc\xff\td\ne\tf\n")
    report = GtReport()
    pairs = list(load_ground_truth(str(path), "tsv-pairs", report=report))
    assert pairs == [(b"a", b"b"), (b"e", b"f")]
    assert report.lines_skipped == 1
    assert report.first_errors == [(2, "not UTF-8")]


@pytest.mark.parametrize("cap", [20, 1, 2])
def test_gt_ntriples_sameas_errors_in_line_order(tmp_path, cap):
    # One block: the parser's errors (lines 1 and 5) and the sameAs
    # filter's (2, 4 and 6) are recorded in line order, and a cap keeps the
    # first ones by line.
    path = tmp_path / "gt.nt"
    path.write_text(
        "<http://f/1> <http://www.w3.org/2002/07/owl#sameAs>\n"
        "<http://f/2> <http://other/pred> <http://d/2> .\n"
        "<http://f/3> <http://www.w3.org/2002/07/owl#sameAs> <http://d/3> .\n"
        "<http://f/4> <http://other/pred> <http://d/4> .\n"
        "not a triple\n"
        '<http://f/6> <http://www.w3.org/2002/07/owl#sameAs> "literal" .\n',
        encoding="utf-8",
    )
    report = GtReport(error_cap=cap)
    pairs = list(load_ground_truth(str(path), "ntriples-sameas", report=report))
    assert pairs == [(b"http://f/3", b"http://d/3")]
    expected = [
        (1, "missing object term"),
        (2, "predicate is not http://www.w3.org/2002/07/owl#sameAs"),
        (4, "predicate is not http://www.w3.org/2002/07/owl#sameAs"),
        (5, "expected <uri> for subject"),
        (6, "sameAs object is a literal"),
    ]
    assert report.first_errors == expected[:cap]
    assert report.lines_skipped == 5

    # A block with a line that is not UTF-8 is cut one part a line, and the
    # splitter's "not UTF-8" keeps its place between the filter's errors and
    # the parser's.
    path.write_bytes(
        b"<http://f/1> <http://other/pred> <http://d/1> .\n"
        b"<http://f/\xff> <http://www.w3.org/2002/07/owl#sameAs> <http://d/2> .\n"
        b"not a triple\n"
        b'<http://f/4> <http://www.w3.org/2002/07/owl#sameAs> "literal" .\n'
    )
    report = GtReport(error_cap=cap)
    assert list(load_ground_truth(str(path), "ntriples-sameas", report=report)) == []
    expected = [
        (1, "predicate is not http://www.w3.org/2002/07/owl#sameAs"),
        (2, "not UTF-8"),
        (3, "expected <uri> for subject"),
        (4, "sameAs object is a literal"),
    ]
    assert report.first_errors == expected[:cap]
    assert report.lines_skipped == 4


GT_TWO_ERRORS = {
    "tsv-pairs": ("only-one-field\nbad uri\tx\na\tb\n",
                  ["expected 2 fields, got 1", "empty URI or control/space character"]),
    "ntriples-sameas": (
        "<http://f/1> <http://other/pred> <http://d/1> .\n"
        '<http://f/2> <http://www.w3.org/2002/07/owl#sameAs> "literal" .\n'
        "<http://f/3> <http://www.w3.org/2002/07/owl#sameAs> <http://d/3> .\n",
        ["predicate is not http://www.w3.org/2002/07/owl#sameAs", "sameAs object is a literal"],
    ),
}


@pytest.mark.parametrize("fmt", sorted(GT_TWO_ERRORS))
def test_gt_errors_are_numbered_per_file(tmp_path, fmt):
    # Two files read into one report: each numbers its errors from its own
    # line 1, as ParseReport promises, not from the report's running count.
    text, reasons = GT_TWO_ERRORS[fmt]
    report = GtReport()
    for name in ("a", "b"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert len(list(load_ground_truth(str(path), fmt, report=report))) == 1
    expected = [(1, reasons[0]), (2, reasons[1])]
    assert report.first_errors == expected * 2
    assert report.lines_total == 6


GT_MIXED = {
    "tsv-pairs": "a\tb\n\nonly-one-field\n\nbad uri\tx\nc\td\n",
    "ntriples-sameas": (
        "<http://f/1> <http://www.w3.org/2002/07/owl#sameAs> <http://d/1> .\n"
        "\n"
        "# a comment\n"
        "not a triple\n"
        "<http://f/2> <http://other/pred> <http://d/2> .\n"
        '<http://f/3> <http://www.w3.org/2002/07/owl#sameAs> "literal" .\n'
        "<http://f/4> <http://www.w3.org/2002/07/owl#sameAs> <http://d/4> .\n"
    ),
}


@pytest.mark.parametrize("fmt", sorted(GT_MIXED))
def test_gt_line_counts_add_up(tmp_path, fmt):
    path = tmp_path / "gt"
    path.write_text(GT_MIXED[fmt], encoding="utf-8")
    report = GtReport()
    pairs = list(load_ground_truth(str(path), fmt, report=report))
    assert report.pairs_ok == len(pairs) == 2
    assert report.lines_blank == 2
    assert report.lines_skipped == (3 if fmt == "ntriples-sameas" else 2)
    assert report.lines_total == report.pairs_ok + report.lines_skipped + report.lines_blank


# Raw ntriples-sameas lines: escaped and non-ASCII URIs, a predicate that
# is sameAs only once its \u escape is decoded, blank nodes, literal objects,
# other predicates, lines the bytes regex leaves to the character parser,
# and lines that are not UTF-8, blank or comments.
_SAMEAS = b"<http://www.w3.org/2002/07/owl#sameAs>"
_GT_SUBJECTS = [b"<http://f/1>", b"<http://f/caf\\u00E9>", b"<http://f/" + "é中".encode() + b">",
                b"<http://f/\\U0001F600>", b"_:b1", b"<http://f/\\uD800>", b"<http://f/a\\u0020b>",
                b"_:b" + chr(0x85).encode(), b"<http://f/\xff>"]
_GT_PREDICATES = [_SAMEAS, _SAMEAS, b"<http://www.w3.org/2002/07/owl\\u0023sameAs>",
                  b"<http://other/p>", b"<http://f/s" + "â".encode() + b"me>"]
_GT_OBJECTS = [b"<http://d/1>", b"<http://d/" + "ü".encode() + b">", b"<http://d/\\u00FC>",
               b"_:b2", b'"literal"', b'"lit"@en', b'"\\u00E9"^^<http://x/dt>',
               b"<http://d/\\U00110000>"]
_GT_WHOLE = [b"", b"  ", b"# comment", b"not a triple", b"<http://f/1> " + _SAMEAS,
             b"\xef\xbb\xbf<http://f/1> " + _SAMEAS + b" <http://d/1> ."]


@st.composite
def _gt_raw_line(draw) -> bytes:
    if draw(st.integers(0, 4)) == 0:
        line = draw(st.sampled_from(_GT_WHOLE))
    else:
        line = b" ".join([
            draw(st.sampled_from(_GT_SUBJECTS)),
            draw(st.sampled_from(_GT_PREDICATES)),
            draw(st.sampled_from(_GT_OBJECTS)),
        ]) + draw(st.sampled_from([b" .", b".", b" . # note", b" . junk"]))
    return line + draw(st.sampled_from([b"\n", b"\r\n", b"\r"]))


def _check_gt_against_the_text_reader(data: bytes, suffix: str, sameas_uri: str, cap: int) -> None:
    # load_ground_truth reads raw bytes; the reference is the text reader
    # iter_triples with the loader's two rules applied to each triple.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "gt" + suffix)
        with open(path, "wb") as fh:
            fh.write(gzip.compress(data) if suffix.endswith(".gz") else data)
        report = GtReport(error_cap=cap)
        pairs = list(load_ground_truth(path, "ntriples-sameas", sameas_uri, report))
        expected, expected_pairs = GtReport(error_cap=cap), []
        for triple in iter_triples(path, expected):
            if triple.predicate != sameas_uri:
                expected.record_error(expected.lines_total, f"predicate is not {sameas_uri}")
            elif triple.object.kind != URI:
                expected.record_error(expected.lines_total, "sameAs object is a literal")
            else:
                expected.pairs_ok += 1
                expected_pairs.append(
                    (triple.subject.encode("utf-8"), triple.object.lexical.encode("utf-8"))
                )
    assert pairs == expected_pairs
    assert all(type(uri) is bytes for pair in pairs for uri in pair)
    fields = ("lines_total", "pairs_ok", "triples_ok", "lines_skipped", "lines_blank",
              "first_errors")
    assert [getattr(report, f) for f in fields] == [getattr(expected, f) for f in fields]
    assert report.lines_total == report.pairs_ok + report.lines_skipped + report.lines_blank


@pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("suffix", [".nt", ".nt.gz"])
def test_gt_ntriples_sameas_rows_match_the_text_reader(suffix, ending):
    lines = [b" ".join([s, p, o]) + b" ." for s in _GT_SUBJECTS for p in _GT_PREDICATES[1:]
             for o in _GT_OBJECTS] + _GT_WHOLE
    _check_gt_against_the_text_reader(ending.join(lines), suffix, OWL_SAMEAS, cap=1000)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_gt_raw_line(), max_size=16),
    st.sampled_from([".nt", ".nt.gz"]),
    # A lone surrogate, as argv decodes a --sameas-uri that is not UTF-8.
    st.sampled_from([OWL_SAMEAS, "http://f/sâme", "http://f/s\udcffme"]),
    st.sampled_from([1, 3, 20]),
)
def test_gt_ntriples_sameas_matches_the_text_reader(lines, suffix, sameas_uri, cap):
    _check_gt_against_the_text_reader(b"".join(lines), suffix, sameas_uri, cap)


@pytest.mark.parametrize("suffix", [".nt", ".nt.gz"])
def test_gt_ntriples_sameas_errors_name_their_lines_past_the_first_block(tmp_path, suffix):
    # A line's number comes with its triple from the block; the clean blocks
    # here are cut by the block regex.  The second block holds, in this
    # order, a wrong predicate, a malformed line and a literal object: the
    # parser has recorded the malformed line by the time the block comes,
    # and at every cap the errors still keep line order.
    lines = [b"<http://f/%d> %s <http://d/%d> ." % (i, _SAMEAS, i) for i in range(1, 401)]
    lines[149] = b"<http://f/150> <http://other/p> <http://d/150> ."
    lines[159] = b"<http://f/160> " + _SAMEAS
    lines[169] = b'<http://f/170> ' + _SAMEAS + b' "literal" .'
    lines[299] = b'<http://f/300> ' + _SAMEAS + b' "literal" .'
    data = b"".join(line + b"\n" for line in lines)
    path = tmp_path / ("gt" + suffix)
    path.write_bytes(gzip.compress(data) if suffix.endswith(".gz") else data)
    blocks = [block.count(b"\n") for block in rdf_ingest._blocks(path)]
    assert blocks[0] < 150 < 170 <= blocks[0] + blocks[1] < 300 <= sum(blocks[:3])
    expected = [
        (150, f"predicate is not {OWL_SAMEAS}"),
        (160, "missing object term"),
        (170, "sameAs object is a literal"),
        (300, "sameAs object is a literal"),
    ]
    for cap in (1, 2, GtReport().error_cap):
        report = GtReport(error_cap=cap)
        pairs = list(load_ground_truth(str(path), "ntriples-sameas", OWL_SAMEAS, report))
        assert report.first_errors == expected[:cap]
        assert pairs == [(b"http://f/%d" % i, b"http://d/%d" % i)
                         for i in range(1, 401) if i not in (150, 160, 170, 300)]
        assert (report.pairs_ok, report.lines_skipped, report.lines_total) == (396, 4, 400)


# Raw tsv-pairs rows: valid pairs, non-ASCII URIs, a BOM, blank lines, the
# wrong field count, an empty URI, a space or control byte in a URI, and
# bytes that are not UTF-8 (a lone continuation byte, a truncated sequence,
# an encoded surrogate, a byte UTF-8 never uses).
_TSV_ROWS = [
    b"\xef\xbb\xbfhttp://f/bom\thttp://d/bom", b"http://f/1\thttp://d/1", b"",
    b"http://f/" + "é中".encode() + b"\thttp://d/" + "ü".encode(), b"   ", b"only-one-field",
    b"a\tb\tc", b"\thttp://d/2", b"http://f/3\t", b"http://f/a b\thttp://d/3",
    b"http://f/4\thttp://d/\x01", b"http://f/5\x0b\thttp://d/5", b"http://f/6\thttp://d/6",
    b"http://f/\x80\thttp://d/7", b"http://f/8\thttp://d/\xc3", b"\xed\xa0\x80\thttp://d/9",
    b"http://f/\xff\thttp://d/10", b"\xc3\t", b"", b"http://f/1\thttp://d/1",
]


def _tsv_pairs_text_reader(path: str, cap: int) -> tuple[list[tuple[bytes, bytes]], GtReport]:
    # The reference: tsv-pairs read in text mode, as it once was, with
    # universal newlines and each byte that is not UTF-8 as a lone surrogate.
    report, pairs = GtReport(error_cap=cap), []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, raw in enumerate(fh, 1):
            report.lines_total += 1
            line = raw.rstrip("\r\n")
            fields = line.split("\t")
            if not line:
                report.lines_blank += 1
            elif re.search("[\ud800-\udfff]", line):
                report.record_error(line_no, "not UTF-8")
            elif len(fields) != 2:
                report.record_error(line_no, f"expected 2 fields, got {len(fields)}")
            elif not all(uri and not re.search("[\x00-\x20]", uri) for uri in fields):
                report.record_error(line_no, "empty URI or control/space character")
            else:
                report.pairs_ok += 1
                pairs.append(tuple(uri.encode("utf-8") for uri in fields))
    return pairs, report


@pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("suffix", [".tsv", ".tsv.gz"])
def test_gt_tsv_pairs_rows_match_the_text_reader(tmp_path, suffix, ending):
    # tsv-pairs reads plain or .gz files with any line ending through the
    # bytes reader; the reference reads the uncompressed bytes as text.
    data = ending.join(_TSV_ROWS)
    plain = tmp_path / "gt.tsv"
    plain.write_bytes(data)
    path = tmp_path / ("gt" + suffix)
    if suffix.endswith(".gz"):
        path.write_bytes(gzip.compress(data))
    report = GtReport(error_cap=1000)
    pairs = list(load_ground_truth(str(path), "tsv-pairs", report=report))
    expected_pairs, expected = _tsv_pairs_text_reader(str(plain), cap=1000)
    assert pairs == expected_pairs
    fields = ("lines_total", "pairs_ok", "triples_ok", "lines_skipped", "lines_blank",
              "first_errors")
    assert [getattr(report, f) for f in fields] == [getattr(expected, f) for f in fields]
    assert (report.lines_total, report.pairs_ok, report.lines_blank) == (len(_TSV_ROWS), 5, 2)


# Files of 4 blocks of about 8 KiB from valid pairs, which a splice may turn
# into a block that is not UTF-8 and so is split one part a line.  A spliced
# row is a _TSV_ROWS row, a blank or "   " line, or one that is not UTF-8,
# with its own LF, CR LF or lone CR.
_TSV_BASE = [b"http://f/%04d\thttp://d/" % i + "é".encode() + b"%04d" % (i * 7919 % 10000)
             for i in range(800)]
_TSV_SECOND_BLOCK = b"".join(row + b"\n" for row in _TSV_BASE)[: 1 << 13].count(b"\n")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, len(_TSV_BASE)),
            st.sampled_from(_TSV_ROWS + [b"", b"   ", b"\xff", b"http://f/\xe9\thttp://d/x"]),
            st.sampled_from([b"\n", b"\r\n", b"\r"]),
        ),
        max_size=8,
    ),
    st.booleans(),
    st.sampled_from([".tsv", ".tsv.gz"]),
    st.sampled_from([1, 3, 1000]),
)
# A blank line and a line that is not UTF-8 in one block: each UTF-8 line of
# such a block, the blank one too, is its own part.
@example(splices=[(_TSV_SECOND_BLOCK + 3, b"", b"\n"), (_TSV_SECOND_BLOCK + 3, b"\xff", b"\n")],
         final=True, suffix=".tsv", cap=1000)
@example(splices=[(len(_TSV_BASE), b"", b"\r")], final=False, suffix=".tsv.gz", cap=1000)
def test_gt_tsv_pairs_match_the_text_reader_across_blocks(splices, final, suffix, cap):
    rows = [(row, b"\n") for row in _TSV_BASE]
    for at, row, ending in splices:
        rows.insert(at, (row, ending))
    data = b"".join(row + ending for row, ending in rows)
    if not final:
        data = data[: -len(rows[-1][1])]
    with tempfile.TemporaryDirectory() as tmp:
        plain = os.path.join(tmp, "gt.tsv")
        with open(plain, "wb") as fh:
            fh.write(data)
        path = os.path.join(tmp, "gt" + suffix)
        if suffix.endswith(".gz"):
            with open(path, "wb") as fh:
                fh.write(gzip.compress(data))
        report = GtReport(error_cap=cap)
        pairs = list(load_ground_truth(path, "tsv-pairs", report=report))
        expected_pairs, expected = _tsv_pairs_text_reader(plain, cap)
        assert sum(1 for _ in rdf_ingest._blocks(plain)) >= 3
    assert pairs == expected_pairs
    assert report == expected  # every field, first_errors included


def test_gt_unknown_format(tmp_path):
    with pytest.raises(LinkJoinError):
        list(load_ground_truth("x", "csv"))


# --- link ids and line parsing ---------------------------------------------

def test_gen_link_id():
    assert gen_link_id("fd", 1) == "fd-1"
    assert gen_link_id("fd", 2093007) == "fd-2093007"
    with pytest.raises(LinkJoinError):
        gen_link_id("fd", 0)


def test_link_ids_unique_over_many():
    ids = {gen_link_id("fd", n) for n in range(1, 50_001)}
    assert len(ids) == 50_000


def test_sentinel_for_validates():
    assert sentinel_for("dbpedia") == "dbpedia-instance"
    with pytest.raises(LinkJoinError):
        sentinel_for("DBpedia")
    with pytest.raises(LinkJoinError):
        sentinel_for("")


def test_parse_link_line_registry_free():
    line = "fd-1\tfreebase-instance\tf1\tp\tv\tdbpedia-instance\td1\tq\tw"
    parsed = parse_link_line(line)
    assert parsed.link_id == "fd-1"
    assert parsed.groups == [("freebase", "f1\tp\tv"), ("dbpedia", "d1\tq\tw")]


def test_parse_link_line_guarded_token_stays_in_its_slot():
    # `\syago-instance` is an escaped record token, not a sentinel
    line = "id\tfreebase-instance\tx\tp\t\\syago-instance\tdbpedia-instance\td\tq\tv"
    parsed = parse_link_line(line)
    assert parsed.groups == [
        ("freebase", "x\tp\t\\syago-instance"),
        ("dbpedia", "d\tq\tv"),
    ]


@pytest.mark.parametrize(
    "line",
    [
        "",  # empty id slot
        "id-only",
        "id\tnot-a-sentinel-token\tx",
        "id\tfreebase-instance",  # empty record slot
        "id\tfreebase-instance\tx\tdbpedia-instance",  # trailing empty slot
    ],
)
def test_parse_link_line_errors(line):
    with pytest.raises(LinkJoinError):
        parse_link_line(line)


_PARENT_SENTINEL = re.compile(r"[a-z0-9][a-z0-9_.-]*-instance")


def reference_parse_link_line(line: str) -> LinkLine:
    """The token loop that parse_link_line's one split replaced."""
    tokens = line.split("\t")
    link_id = tokens[0]
    if not link_id:
        raise LinkJoinError("empty link id slot")
    if len(tokens) < 2 or not _PARENT_SENTINEL.fullmatch(tokens[1]):
        raise LinkJoinError("expected a sentinel label after the link id")
    groups = []
    label = None
    slot: list[str] = []
    for tok in tokens[1:]:
        if _PARENT_SENTINEL.fullmatch(tok):
            if label is not None:
                if not slot:
                    raise LinkJoinError(f"empty record slot under {label!r}")
                groups.append((label, "\t".join(slot)))
            label = tok[: -len("-instance")]
            slot = []
        else:
            slot.append(tok)
    if not slot:
        raise LinkJoinError(f"empty record slot under {label!r}")
    groups.append((label, "\t".join(slot)))
    return LinkLine(link_id, groups)


def outcome(fn, arg):
    """A return value, or the type and message of what was raised."""
    try:
        return fn(arg)
    except Exception as exc:
        return type(exc), str(exc)


# Line breaks that str.splitlines() or $ treat specially, NUL, quotes, the
# escape guard, and sentinel pieces that almost or exactly form a sentinel.
link_line_pieces = st.sampled_from(
    [
        "\t", "\\", "\n", "\r", "\x85", "\u2028", "\x00", '"', '""', "\\s",
        "-instance", "freebase", "dbpedia", "my-kb.2", "x", "Y", "_", ".", "-",
        "freebase-instance", "\tdbpedia-instance", "\tyago-instance\t", "fd-1",
        # A sentinel-like token with a label the shape refuses, a label that
        # ends in -instance, one that opens the line and one that ends it.
        "Foo-instance", "http://x/a-instance", "a-instance-instance", "dbpedia-instance\t",
        "\tyago-instance",
    ]
)
link_lines = st.one_of(
    st.lists(link_line_pieces, max_size=24).map("".join),
    st.text(alphabet="\tab-.\n\r\\", max_size=40),
)


@settings(max_examples=1500)
@given(link_lines)
def test_parse_link_line_matches_token_loop(line):
    assert outcome(parse_link_line, line) == outcome(reference_parse_link_line, line)


@pytest.mark.parametrize(
    "line, expected",
    [
        ("\tfreebase-instance\tx", "empty link id slot"),
        ("\t\tfreebase-instance\tx", "empty link id slot"),
        ("\tx", "empty link id slot"),
        ("id\tx\tfreebase-instance\ty", "expected a sentinel label after the link id"),
        ("id\tfreebase-instance\tdbpedia-instance\tx", "empty record slot under 'freebase'"),
        ("id\tfreebase-instance\tx\tdbpedia-instance\n", [("freebase", "x\tdbpedia-instance\n")]),
        ("id\tfreebase-instance\t\tdbpedia-instance\tx", [("freebase", ""), ("dbpedia", "x")]),
        ("id\ta-instance-instance\tx", [("a-instance", "x")]),
        # Chunks of the cut that are glued to the next: no label, no TAB
        # before it, and a line that ends in a token that is no sentinel.
        ("id\tfreebase-instance\tFoo-instance\tdbpedia-instance\tx",
         [("freebase", "Foo-instance"), ("dbpedia", "x")]),
        ("id\tfreebase-instance\tFoo-instance\tx\tdbpedia-instance\ty",
         [("freebase", "Foo-instance\tx"), ("dbpedia", "y")]),
        ("dbpedia-instance\tfreebase-instance\tx", [("freebase", "x")]),
        ("id\tfreebase-instance\tx\thttp://x/a-instance", [("freebase", "x\thttp://x/a-instance")]),
        ("id\tfreebase-instance\tx\tyago-instance", "empty record slot under 'yago'"),
        ("id\tfreebase-instance\tyago-instance", "empty record slot under 'freebase'"),
    ],
)
def test_parse_link_line_rows(line, expected):
    # expected: the groups, or the LinkJoinError message
    got = outcome(parse_link_line, line)
    assert got == outcome(reference_parse_link_line, line)
    assert got == (LinkJoinError, expected) or got.groups == expected



def reference_split_2way(line: bytes, arity: int) -> list[bytes]:
    """The line checks of join3, validate, filter-type and stats on decoded
    text, through the token loop above: raw CR (which text mode read as a
    line end), UTF-8, the line split, the link-id rule (no character at or
    below U+0020, and no opening literal wrapper, which join3 would copy
    into `idA,idB`), the group count and, at arity 2, the rule that a 2-way
    id holds no comma (join3 writes `idA,idB`)."""
    if b"\r" in line:
        raise LinkJoinError("raw control byte 0x0d")
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LinkJoinError(f"not UTF-8: {exc.reason}") from None
    parsed = reference_parse_link_line(text)
    link_id = parsed.link_id
    if re.search("[\x00-\x20]", link_id):
        raise LinkJoinError(f"bad link id: {link_id!r} holds a control or space character")
    if link_id.startswith('""'):
        raise LinkJoinError(f"bad link id: {link_id!r} opens a literal wrapper")
    if len(parsed.groups) != arity:
        raise LinkJoinError(f"expected {arity} record groups, found {len(parsed.groups)}")
    if arity == 2 and "," in link_id:
        raise LinkJoinError(f"bad link id: {link_id!r} holds a comma")
    fields = [link_id]
    for label, slot in parsed.groups:
        fields += [label, slot]
    return [f.encode("utf-8") for f in fields]


# Whole 2-way lines whose id and records draw on the characters that make
# the bytes split hand a line on: tabs, spaces, controls, quotes, sentinels.
_SLOT_TEXT = st.lists(
    st.sampled_from(["x", "\t", "\\s", "\t", '""', '"', " ", "\x01", "é", "yago-instance",
                     "\tyago-instance", "\r"]),
    max_size=6,
).map("".join)
two_way_lines = st.builds(
    lambda id_, a, left, b, right: f"{id_}\t{a}-instance\t{left}\t{b}-instance\t{right}",
    st.one_of(st.sampled_from(["fd-1", "", '""fd-1""', '""fd', "fd,1", ","]), _SLOT_TEXT),
    st.sampled_from(["freebase", "dbpedia"]),
    _SLOT_TEXT,
    st.sampled_from(["dbpedia", "yago"]),
    _SLOT_TEXT,
)
# 3-way lines as bytes: link3 ids, wrappers, sentinel-shaped text inside the
# slots, CR, and bytes that are not UTF-8 (a stray continuation byte, a cut
# sequence, an encoded surrogate, 0xFF).
_SLOT_BYTES = st.lists(
    st.sampled_from([b"x", b"\t", b"\\s", b'""', b" ", b"\x01", "é".encode(), b"\r",
                     b"\tyago-instance", b"yago-instance", b"\tdbpedia-instance\t",
                     b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xff",
                     b"Foo-instance", b"http://x/a-instance", b"a-instance-instance",
                     b"dbpedia-instance\t"]),
    max_size=6,
).map(b"".join)
three_way_lines = st.builds(
    lambda id_, a, left, b, mid, c, right: b"\t".join(
        (id_, a + b"-instance", left, b + b"-instance", mid, c + b"-instance", right)
    ),
    st.one_of(
        st.sampled_from([b"fd-1,yd-2", b"fd-1", b"", b'""fd-1,yd-2""', b'""fd-1,yd-2',
                         b",", b"fd-1,,yd-2", b"fd 1,yd-2", b"fd-1,yd-\xff"]),
        _SLOT_BYTES,
    ),
    st.sampled_from([b"dbpedia", b"freebase"]),
    _SLOT_BYTES,
    st.sampled_from([b"freebase", b"yago"]),
    _SLOT_BYTES,
    st.sampled_from([b"yago", b"dbpedia"]),
    _SLOT_BYTES,
)


def checked_split(line: bytes, arity: int) -> list[bytes]:
    """split_link_line after the head check, in join3's order."""
    line_text(line)
    return split_link_line(line, arity)


def reference_line_judge(line: bytes, arity: int) -> str:
    """The link id of a line that the text checks and parse_record accept
    in every slot, or the first fault."""
    fields = reference_split_2way(line, arity)
    for slot in fields[2::2]:
        parse_record(slot.decode("utf-8"))
    return fields[0].decode("utf-8")


@settings(max_examples=1500)
@given(st.one_of(link_lines.map(str.encode), two_way_lines.map(str.encode), three_way_lines))
def test_split_2way_matches_text_checks(line):
    # Every line at both arities: join3 and link2 mode split at 2, link3 at
    # 3.  join3 checks the whole line first; the tools, which get a line
    # with its newline, decode the pieces and check the whole line only on
    # a fault, and give the same first fault.
    for arity, mode in ((2, "link2"), (3, "link3")):
        assert outcome(lambda l: checked_split(l, arity), line) == outcome(
            lambda l: reference_split_2way(l, arity), line
        )
        assert outcome(lambda l: _line_records(l, mode)[0], line) == outcome(
            lambda l: reference_line_judge(l.rstrip(b"\n"), arity), line
        )


SPLIT_2WAY_ROWS = [
    (b"fd-1\tfreebase-instance\tf\tp\tv\tdbpedia-instance\td\tq\tw",
     [b"fd-1", b"freebase", b"f\tp\tv", b"dbpedia", b"d\tq\tw"]),
    (b"fd-1\tfreebase-instance\t\tdbpedia-instance\td",
     [b"fd-1", b"freebase", b"", b"dbpedia", b"d"]),
    (b'""fd-1""\tfreebase-instance\tf\tdbpedia-instance\td',
     (LinkJoinError, "bad link id: '\"\"fd-1\"\"' opens a literal wrapper")),
    (b'""fd-1\tfreebase-instance\tf\tdbpedia-instance\td',
     (LinkJoinError, "bad link id: '\"\"fd-1' opens a literal wrapper")),
    (b"fd 1\tfreebase-instance\tf\tdbpedia-instance\td",
     (LinkJoinError, "bad link id: 'fd 1' holds a control or space character")),
    (b"fd-1\tfreebase-instance\tf\tdbpedia-instance\td\r",
     (LinkJoinError, "raw control byte 0x0d")),
    (b"fd-1\tfreebase-instance\t\xff\tdbpedia-instance\td",
     (LinkJoinError, "not UTF-8: invalid start byte")),
    (b"fd-1\tfreebase-instance\tf",
     (LinkJoinError, "expected 2 record groups, found 1")),
    (b"fd-1\tfreebase-instance\tf\tdbpedia-instance",
     (LinkJoinError, "empty record slot under 'dbpedia'")),
    (b"fd-1\tfreebase-instance\tdbpedia-instance\td",
     (LinkJoinError, "empty record slot under 'freebase'")),
    (b"\tfreebase-instance\tf\tdbpedia-instance\td",
     (LinkJoinError, "empty link id slot")),
    (b"fd,1\tfreebase-instance\tf\tdbpedia-instance\td",
     (LinkJoinError, "bad link id: 'fd,1' holds a comma")),
    (b'""fd,1""\tfreebase-instance\tf\tdbpedia-instance\td',
     (LinkJoinError, "bad link id: '\"\"fd,1\"\"' opens a literal wrapper")),
    # The decoder's reason for the whole line: the slot alone would end in
    # the middle of a character ("unexpected end of data").
    (b"fd-1\tfreebase-instance\tf\xc3\tdbpedia-instance\td",
     (LinkJoinError, "not UTF-8: invalid continuation byte")),
    # A UTF-8 fault comes before a fault of the cut.
    (b"\tfreebase-instance\t\xff\tdbpedia-instance\td",
     (LinkJoinError, "not UTF-8: invalid start byte")),
]


@pytest.mark.parametrize("line, expected", SPLIT_2WAY_ROWS)
def test_split_2way_rows(line, expected):
    # expected: the fields, or the type and message of the error
    got = outcome(lambda l: checked_split(l, 2), line)
    assert got == outcome(lambda l: reference_split_2way(l, 2), line)
    assert got == expected


# A 3-way id holds one comma; the split accepts an empty record, which the
# record check refuses.
SPLIT_3WAY_ROWS = [
    (b"fd-1,yd-2\tdbpedia-instance\td\tp\tv\tfreebase-instance\tf\tp\tv\tyago-instance\ty\tp\tv",
     [b"fd-1,yd-2", b"dbpedia", b"d\tp\tv", b"freebase", b"f\tp\tv", b"yago", b"y\tp\tv"]),
    (b"fd-1,yd-2\tdbpedia-instance\td\tp\tv\tfreebase-instance\t\tyago-instance\ty\tp\tv",
     [b"fd-1,yd-2", b"dbpedia", b"d\tp\tv", b"freebase", b"", b"yago", b"y\tp\tv"]),
    (b"fd-1\tfreebase-instance\tf\tdbpedia-instance\td",
     (LinkJoinError, "expected 3 record groups, found 2")),
    (b'""fd-1,yd-2""\tdbpedia-instance\td\tfreebase-instance\tf\tyago-instance\ty',
     (LinkJoinError, "bad link id: '\"\"fd-1,yd-2\"\"' opens a literal wrapper")),
    (b"fd-1,yd-2\tdbpedia-instance\td\tp\tv\xc3"
     b"\tfreebase-instance\tf\tp\tv\tyago-instance\ty\tp\tv",
     (LinkJoinError, "not UTF-8: invalid continuation byte")),
    (b"\tdbpedia-instance\td\tp\tv\tfreebase-instance\t\xff\tyago-instance\ty\tp\tv",
     (LinkJoinError, "not UTF-8: invalid start byte")),
]


@pytest.mark.parametrize("line, expected", SPLIT_3WAY_ROWS)
def test_split_3way_rows(tmp_path, line, expected):
    got = outcome(lambda l: checked_split(l, 3), line)
    assert got == outcome(lambda l: reference_split_2way(l, 3), line)
    assert got == expected
    path = tmp_path / "dfy.links"
    path.write_bytes(line + b"\n")
    flags = validate(str(path), "link3").violations
    if isinstance(expected, tuple):
        assert flags == [(1, expected[1])]
    elif b"" in expected:
        assert flags == [(1, "record has no properties")]
    else:
        assert flags == []


@pytest.mark.parametrize(
    "line, reason", [(line, exp[1]) for line, exp in SPLIT_2WAY_ROWS if isinstance(exp, tuple)]
)
def test_join3_and_validate_give_one_reason_per_fault(tmp_path, line, reason):
    # The bad line is line 2 of the left file; join3 reads that file first.
    _, f1 = entity("http://f/1", name=["f"])
    _, d1 = entity("http://d/1", age=["1"])
    _, y1 = entity("http://y/1", label=["y"])
    fd = make_2way(tmp_path, "fd.links", "freebase", "dbpedia",
                   [("http://f/1", f1, "http://d/1", d1)])
    yd = make_2way(tmp_path, "yd.links", "yago", "dbpedia",
                   [("http://y/1", y1, "http://d/1", d1)])
    with open(fd, "ab") as fh:
        fh.write(line + b"\n")
    with pytest.raises(FlatlinkError) as excinfo:
        join3(fd, yd, "dbpedia", ["dbpedia", "freebase", "yago"],
              str(tmp_path / "out"), cfg_for(tmp_path))
    assert str(excinfo.value) == f"{fd}:2: {reason}"
    assert validate(fd, "link2").violations == [(2, reason)]


# --- join2 ------------------------------------------------------------------

def test_join2_paper_shape(tmp_path):
    f_uri, f_line = entity("http://f/1", name=["Joan"])
    d_uri, d_line = entity("http://d/1", age=["32"])
    a = tmp_path / "f.ents"
    b = tmp_path / "d.ents"
    write_entity_file(a, {f_uri: f_line})
    write_entity_file(b, {d_uri: d_line})
    gt = tmp_path / "gt.tsv"
    gt.write_text(f"{f_uri}\t{d_uri}\n", encoding="utf-8")
    out = tmp_path / "fd.links"

    report = join2(
        str(a), str(b), str(gt), "tsv-pairs", ("freebase", "dbpedia"), str(out),
        cfg_for(tmp_path),
    )
    lines = read_lines(out)
    assert lines == [
        f"fd-1\tfreebase-instance\t{f_line}\tdbpedia-instance\t{d_line}"
    ]
    assert report.lines_emitted == 1
    assert report.pairs_dropped_left == 0
    assert report.pairs_dropped_right == 0


def test_join2_dangling_pair_dropped(tmp_path):
    f_uri, f_line = entity("http://f/1", name=["x"])
    a = tmp_path / "f.ents"
    b = tmp_path / "d.ents"
    write_entity_file(a, {f_uri: f_line})
    write_entity_file(b, {})
    gt = tmp_path / "gt.tsv"
    gt.write_text("http://f/1\thttp://d/absent\n", encoding="utf-8")
    out = tmp_path / "fd.links"
    report = join2(
        str(a), str(b), str(gt), "tsv-pairs", ("freebase", "dbpedia"), str(out),
        cfg_for(tmp_path),
    )
    assert read_lines(out) == []
    assert report.lines_emitted == 0
    assert report.pairs_dropped_right == 1
    assert report.pairs_dropped_left == 0


def test_join2_skips_invalid_utf8_ground_truth_line(tmp_path):
    f_uri, f_line = entity("http://f/1", name=["x"])
    d_uri, d_line = entity("http://d/1", age=["1"])
    a = tmp_path / "f.ents"
    b = tmp_path / "d.ents"
    write_entity_file(a, {f_uri: f_line})
    write_entity_file(b, {d_uri: d_line})
    gt = tmp_path / "gt.tsv"
    gt.write_bytes(b"http://f/\xff\thttp://d/1\nhttp://f/1\thttp://d/1\n")
    out = tmp_path / "fd.links"
    report = join2(
        str(a), str(b), str(gt), "tsv-pairs", ("freebase", "dbpedia"), str(out),
        cfg_for(tmp_path),
    )
    assert read_lines(out) == [f"fd-1\tfreebase-instance\t{f_line}\tdbpedia-instance\t{d_line}"]
    assert report.gt_lines_skipped == 1
    assert report.pairs_read == 1


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 3")
def test_join2_output_validates_or_join2_refuses(tmp_path):
    # join2 checks only the join key of an entity line before it copies the
    # record, so a record that validate flags must be refused, not copied.
    left, right, gt = tmp_path / "f.ents", tmp_path / "d.ents", tmp_path / "gt.tsv"
    left.write_bytes(b'http://f/1\tk\t""broken\n')
    right.write_bytes(b'http://r/1\tk\t"ok"\n')
    gt.write_bytes(b"http://f/1\thttp://r/1\n")
    out = tmp_path / "fd.links"
    try:
        join2(str(left), str(right), str(gt), "tsv-pairs", ("freebase", "dbpedia"), str(out),
              cfg_for(tmp_path))
    except LinkJoinError:
        assert list(tmp_path.glob("fd.links*")) == []
    else:
        assert validate(str(out), "link2").violation_count == 0


@pytest.mark.parametrize("side", ["left", "right"])
def test_join2_duplicate_subject_is_error(tmp_path, spill_files, side):
    # Raised from a merge after the sort has spilled; no runs stay behind.
    f_lines = [entity(f"http://f/{i:03}", name=[f"n{i}"])[1] for i in range(100)]
    d_lines = [entity(f"http://d/{i:03}", age=[str(i)])[1] for i in range(100)]
    dup = f_lines if side == "left" else d_lines
    dup.insert(51, dup[50])
    a = tmp_path / "f.ents"
    a.write_text("".join(line + "\n" for line in f_lines), encoding="utf-8")
    b = tmp_path / "d.ents"
    b.write_text("".join(line + "\n" for line in d_lines), encoding="utf-8")
    gt = tmp_path / "gt.tsv"
    gt.write_text("".join(f"http://f/{i:03}\thttp://d/{i:03}\n" for i in range(100)),
                  encoding="utf-8")
    stats = JobStats()
    with pytest.raises(LinkJoinError) as excinfo:
        join2(
            str(a), str(b), str(gt), "tsv-pairs", ("freebase", "dbpedia"),
            str(tmp_path / "out"), cfg_for(tmp_path, memory_budget_bytes=2048),
            stats=stats,
        )
    path, host = (a, "f") if side == "left" else (b, "d")
    assert str(excinfo.value) == (
        f"{path}:52: duplicate subject 'http://{host}/050' in {side} entity file"
    )
    assert stats.spill_runs >= 1
    assert list((tmp_path / "spill").iterdir()) == []
    assert spill_files and all(f.closed for f in spill_files)


@pytest.mark.parametrize("side", ["left", "right"])
def test_join2_entity_uri_with_tab_is_error(tmp_path, side):
    # The URI `a<TAB>b` is written escaped; cut at its raw tab, its join key
    # would read `a` and join the pair a -> a with a corrupted record.
    ents = {"left": entity("a", name=["x"]), "right": entity("a", age=["1"])}
    ents[side] = entity("a\tb", name=["x"])
    a = tmp_path / "f.ents"
    b = tmp_path / "d.ents"
    write_entity_file(a, dict([ents["left"]]))
    write_entity_file(b, dict([ents["right"]]))
    gt = tmp_path / "gt.tsv"
    gt.write_text("a\ta\n", encoding="utf-8")
    with pytest.raises(LinkJoinError, match="control or space character in URI"):
        join2(
            str(a), str(b), str(gt), "tsv-pairs", ("freebase", "dbpedia"),
            str(tmp_path / "out"), cfg_for(tmp_path),
        )


@pytest.mark.parametrize("side", ["left", "right"])
def test_join2_entity_line_not_utf8_is_error(tmp_path, side):
    # The bad byte sits in a literal, past the URI token.
    lines = {
        "left": entity("http://f/1", name=["x"])[1],
        "right": entity("http://d/1", age=["1"])[1],
    }
    paths = {"left": tmp_path / "f.ents", "right": tmp_path / "d.ents"}
    for s, path in paths.items():
        tail = b'\tnote\t""bad \xff""' if s == side else b""
        path.write_bytes(lines[s].encode("utf-8") + tail + b"\n")
    gt = tmp_path / "gt.tsv"
    gt.write_text("http://f/1\thttp://d/1\n", encoding="utf-8")
    with pytest.raises(LinkJoinError) as excinfo:
        join2(
            str(paths["left"]), str(paths["right"]), str(gt), "tsv-pairs",
            ("freebase", "dbpedia"), str(tmp_path / "out"), cfg_for(tmp_path),
        )
    assert str(excinfo.value) == (
        f"{paths[side]}:1: bad entity line: not UTF-8: invalid start byte"
    )


@pytest.mark.parametrize("side", ["left", "right"])
def test_join2_entity_line_with_raw_cr_is_error(tmp_path, side):
    # A CRLF line would carry its CR into the link file, which validate flags.
    lines = {
        "left": entity("http://f/1", name=["x"])[1],
        "right": entity("http://d/1", age=["1"])[1],
    }
    paths = {"left": tmp_path / "f.ents", "right": tmp_path / "d.ents"}
    for s, path in paths.items():
        path.write_bytes(lines[s].encode("utf-8") + (b"\r\n" if s == side else b"\n"))
    gt = tmp_path / "gt.tsv"
    gt.write_text("http://f/1\thttp://d/1\n", encoding="utf-8")
    with pytest.raises(LinkJoinError) as excinfo:
        join2(
            str(paths["left"]), str(paths["right"]), str(gt), "tsv-pairs",
            ("freebase", "dbpedia"), str(tmp_path / "out"), cfg_for(tmp_path),
        )
    assert str(excinfo.value) == f"{paths[side]}:1: bad entity line: raw control byte 0x0d"


def test_join2_failure_after_spill_leaves_no_spill_files(tmp_path, spill_files):
    # A blank line after the first spill run aborts the job; its runs go too.
    left = [entity(f"http://f/{i:04}", name=[f"n{i}"])[1] for i in range(400)]
    a = tmp_path / "f.ents"
    a.write_text("\n".join(left[:200] + [""] + left[200:]) + "\n", encoding="utf-8")
    b = tmp_path / "d.ents"
    write_entity_file(b, dict([entity("http://d/1", age=["1"])]))
    gt = tmp_path / "gt.tsv"
    gt.write_text("".join(f"http://f/{i:04}\thttp://d/1\n" for i in range(400)),
                  encoding="utf-8")
    stats = JobStats()
    with pytest.raises(LinkJoinError, match="blank line") as excinfo:  # noqa: F841, held
        join2(
            str(a), str(b), str(gt), "tsv-pairs", ("freebase", "dbpedia"),
            str(tmp_path / "out"), cfg_for(tmp_path, memory_budget_bytes=2048),
            stats=stats,
        )
    assert stats.spill_runs >= 1
    assert list((tmp_path / "spill").iterdir()) == []
    assert spill_files and all(f.closed for f in spill_files)


@pytest.mark.parametrize("side", ["left", "right", "both"])
def test_join2_descending_entity_file_is_error(tmp_path, spill_files, side):
    # A URI below the one before it names its file and line, after the sorts
    # have spilled; no output, temp file or spill run stays behind.  The
    # right file's fault comes first.
    lines = {
        "left": [entity(f"http://f/{i:03}", name=[f"n{i}"])[1] for i in range(100)],
        "right": [entity(f"http://d/{i:03}", age=[str(i)])[1] for i in range(100)],
    }
    for s in ("left", "right") if side == "both" else (side,):
        lines[s].reverse()
    paths = {"left": tmp_path / "f.ents", "right": tmp_path / "d.ents"}
    for s, path in paths.items():
        path.write_text("".join(line + "\n" for line in lines[s]), encoding="utf-8")
    gt = tmp_path / "gt.tsv"
    gt.write_text("".join(f"http://f/{i:03}\thttp://d/{i:03}\n" for i in range(100)),
                  encoding="utf-8")
    outdir = tmp_path / "out"
    outdir.mkdir()
    stats = JobStats()
    with pytest.raises(LinkJoinError) as excinfo:
        join2(
            str(paths["left"]), str(paths["right"]), str(gt), "tsv-pairs",
            ("freebase", "dbpedia"), str(outdir / "fd.links"),
            cfg_for(tmp_path, memory_budget_bytes=2048), stats=stats,
        )
    named, host = ("left", "f") if side == "left" else ("right", "d")
    assert str(excinfo.value) == (
        f"{paths[named]}:2: entity file not sorted: subject 'http://{host}/098' sorts"
        " below the line before"
    )
    assert stats.spill_runs >= 1
    assert list(outdir.iterdir()) == []
    assert list((tmp_path / "spill").iterdir()) == []
    assert spill_files and all(f.closed for f in spill_files)


def test_join2_failure_after_output_lines_leaves_no_output(tmp_path, spill_files):
    # The duplicate subject sorts near the end of the left file, so the
    # second shuffle has emitted many lines when it raises; the old output
    # stays as it was and no temp file is left beside it.
    left = [entity(f"http://f/{i:03}", name=[f"n{i}"])[1] for i in range(200)]
    left.insert(191, left[190])
    right = [entity(f"http://d/{i:03}", age=[str(i)])[1] for i in range(200)]
    a = tmp_path / "f.ents"
    a.write_text("".join(line + "\n" for line in left), encoding="utf-8")
    b = tmp_path / "d.ents"
    b.write_text("".join(line + "\n" for line in right), encoding="utf-8")
    gt = tmp_path / "gt.tsv"
    gt.write_text("".join(f"http://f/{i:03}\thttp://d/{i:03}\n" for i in range(200)),
                  encoding="utf-8")
    out = tmp_path / "out"
    out.write_bytes(b"old\n")
    before = sorted(p.name for p in tmp_path.iterdir())
    stats = JobStats()
    with pytest.raises(LinkJoinError) as excinfo:
        join2(
            str(a), str(b), str(gt), "tsv-pairs", ("freebase", "dbpedia"), str(out),
            cfg_for(tmp_path, memory_budget_bytes=2048), stats=stats,
        )
    assert str(excinfo.value) == f"{a}:192: duplicate subject 'http://f/190' in left entity file"
    assert stats.spill_runs >= 1
    assert out.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before + ["spill"]
    assert list((tmp_path / "spill").iterdir()) == []
    assert spill_files and all(f.closed for f in spill_files)


def join2_oracle(a_lines, b_lines, pairs, labels):
    """Brute-force nested loop over all (pair, A, B) combinations."""
    unique = list(dict.fromkeys(pairs))
    matched = sorted((l, r) for l, r in unique if l in a_lines and r in b_lines)
    lines = [
        f"{labels[0]}-instance\t{a_lines[l]}\t{labels[1]}-instance\t{b_lines[r]}"
        for l, r in matched
    ]
    dropped_left = sum(1 for l, _ in unique if l not in a_lines)
    dropped_right = sum(1 for l, r in unique if l in a_lines and r not in b_lines)
    return lines, dropped_left, dropped_right


def test_join2_matches_nested_loop_oracle(tmp_path, rng):
    a_lines = dict(
        entity(f"http://f/{i}", name=[f"f{i}"], extra=[f"http://o/{i % 7}"])
        for i in range(200)
    )
    b_lines = dict(entity(f"http://d/{i}", age=[str(i)]) for i in range(200))
    pairs = []
    for _ in range(300):
        # ~10% dangling on the left only, ~10% on both sides (which counts
        # as dropped left), ~10% on the right only
        kind = rng.random()
        l = rng.randrange(300, 400) if kind < 0.2 else rng.randrange(200)
        r = rng.randrange(300, 400) if 0.1 <= kind < 0.3 else rng.randrange(200)
        pairs.append((f"http://f/{l}", f"http://d/{r}"))
    pairs += pairs[::10]  # duplicates collapse to one link
    a = tmp_path / "a.ents"
    b = tmp_path / "b.ents"
    write_entity_file(a, a_lines)
    write_entity_file(b, b_lines)
    gt = tmp_path / "gt.tsv"
    gt.write_text("".join(f"{l}\t{r}\n" for l, r in pairs), encoding="utf-8")
    out = tmp_path / "ab.links"

    stats = JobStats()
    report = join2(
        str(a), str(b), str(gt), "tsv-pairs", ("freebase", "dbpedia"), str(out),
        cfg_for(tmp_path, memory_budget_bytes=8 * 1024), stats=stats,
    )
    assert stats.spill_runs >= 2
    expected_lines, dropped_l, dropped_r = join2_oracle(
        a_lines, b_lines, pairs, ("freebase", "dbpedia")
    )
    got = read_lines(out)
    got_stripped = [line.split("\t", 1)[1] for line in got]
    assert got_stripped == expected_lines
    assert report.pairs_dropped_left == dropped_l
    assert report.pairs_dropped_right == dropped_r
    assert report.lines_emitted == len(expected_lines)
    assert report.pairs_unique == dropped_l + dropped_r + len(expected_lines)
    # ids are fd-1..fd-n in file order
    ids = [line.split("\t", 1)[0] for line in got]
    assert ids == [f"fd-{n}" for n in range(1, len(got) + 1)]


def test_join2_entity_in_multiple_links(tmp_path):
    # one left entity participating in two links
    a_lines = dict([entity("http://f/1", name=["x"])])
    b_lines = dict(
        [entity("http://d/1", age=["1"]), entity("http://d/2", age=["2"])]
    )
    a = tmp_path / "a.ents"
    b = tmp_path / "b.ents"
    write_entity_file(a, a_lines)
    write_entity_file(b, b_lines)
    gt = tmp_path / "gt.tsv"
    gt.write_text("http://f/1\thttp://d/1\nhttp://f/1\thttp://d/2\n", encoding="utf-8")
    out = tmp_path / "out.links"
    report = join2(
        str(a), str(b), str(gt), "tsv-pairs", ("freebase", "dbpedia"), str(out),
        cfg_for(tmp_path),
    )
    assert report.lines_emitted == 2


def test_join2_identical_labels_rejected(tmp_path):
    with pytest.raises(LinkJoinError):
        join2("a", "b", "gt", "tsv-pairs", ("x", "x"), "out", cfg_for(tmp_path))


# --- join3 ------------------------------------------------------------------

def make_2way(tmp_path, name, left_label, right_label, rows):
    """rows: list of (left_uri, left_line, right_uri, right_line)."""
    path = tmp_path / name
    prefix = left_label[0] + right_label[0]
    with open(path, "w", encoding="utf-8") as fh:
        for n, (_, left_line, _, right_line) in enumerate(rows, 1):
            fh.write(
                f"{prefix}-{n}\t{left_label}-instance\t{left_line}"
                f"\t{right_label}-instance\t{right_line}\n"
            )
    return str(path)


def test_join3_paper_shape(tmp_path):
    _, f1 = entity("http://f/1", name=["f"])
    _, d1 = entity("http://d/1", age=["32"])
    _, y1 = entity("http://y/1", label=["y"])
    fd = make_2way(tmp_path, "fd.links", "freebase", "dbpedia",
                   [("http://f/1", f1, "http://d/1", d1)])
    yd = make_2way(tmp_path, "yd.links", "yago", "dbpedia",
                   [("http://y/1", y1, "http://d/1", d1)])
    out = tmp_path / "dfy.links"
    report = join3(
        fd, yd, "dbpedia", ["dbpedia", "freebase", "yago"], str(out),
        cfg_for(tmp_path),
    )
    assert read_lines(out) == [
        f"fd-1,yd-1\tdbpedia-instance\t{d1}\tfreebase-instance\t{f1}\tyago-instance\t{y1}"
    ]
    assert report.lines_emitted == 1


def test_join3_unshared_uri_produces_nothing(tmp_path):
    _, f1 = entity("http://f/1", name=["f"])
    _, d1 = entity("http://d/1", age=["1"])
    _, d2 = entity("http://d/2", age=["2"])
    _, y1 = entity("http://y/1", label=["y"])
    fd = make_2way(tmp_path, "fd.links", "freebase", "dbpedia",
                   [("http://f/1", f1, "http://d/2", d2)])
    yd = make_2way(tmp_path, "yd.links", "yago", "dbpedia",
                   [("http://y/1", y1, "http://d/1", d1)])
    out = tmp_path / "dfy.links"
    report = join3(
        fd, yd, "dbpedia", ["dbpedia", "freebase", "yago"], str(out),
        cfg_for(tmp_path),
    )
    assert read_lines(out) == []
    assert report.lines_emitted == 0


def test_join3_cross_product_counts(tmp_path):
    # d3 has 2 FD links and 3 YD links -> exactly 6 lines
    _, d3 = entity("http://d/3", age=["3"])
    fd_rows = [(f"http://f/{i}", entity(f"http://f/{i}", name=[str(i)])[1], "http://d/3", d3)
               for i in range(2)]
    yd_rows = [(f"http://y/{i}", entity(f"http://y/{i}", label=[str(i)])[1], "http://d/3", d3)
               for i in range(3)]
    fd = make_2way(tmp_path, "fd.links", "freebase", "dbpedia", fd_rows)
    yd = make_2way(tmp_path, "yd.links", "yago", "dbpedia", yd_rows)
    out = tmp_path / "dfy.links"
    report = join3(
        fd, yd, "dbpedia", ["dbpedia", "freebase", "yago"], str(out),
        cfg_for(tmp_path),
    )
    assert report.lines_emitted == 6


def test_join3_second_sort_is_untagged_and_grouped_by_join3(tmp_path, monkeypatch):
    # Only the first sort merges two files, so only it is a shuffle whose
    # items carry a tag byte after the key's TAB; the second sorts the
    # shuffle's outputs `idA TAB ...` as they are.
    group_by_calls, sorted_items = [], []
    run_group_by, external_sort = engine.run_group_by, engine.external_sort

    def counting_group_by(*args, **kwargs):
        group_by_calls.append(args)
        return run_group_by(*args, **kwargs)

    def recording_sort(items, *args, **kwargs):
        def tap():
            seen = []
            for item in items:
                seen.append(item)
                yield item
            sorted_items.append(seen)  # the first sort's input ends first

        return external_sort(tap(), *args, **kwargs)

    monkeypatch.setattr(engine, "run_group_by", counting_group_by)
    monkeypatch.setattr(engine, "external_sort", recording_sort)
    _, d3 = entity("http://d/3", age=["3"])
    fd_rows = [(f"http://f/{i}", entity(f"http://f/{i}", name=[str(i)])[1], "http://d/3", d3)
               for i in range(2)]
    yd_rows = [(f"http://y/{i}", entity(f"http://y/{i}", label=[str(i)])[1], "http://d/3", d3)
               for i in range(3)]
    fd = make_2way(tmp_path, "fd.links", "freebase", "dbpedia", fd_rows)
    yd = make_2way(tmp_path, "yd.links", "yago", "dbpedia", yd_rows)
    stats = JobStats()
    report = join3(fd, yd, "dbpedia", ["dbpedia", "freebase", "yago"],
                   str(tmp_path / "dfy.links"), cfg_for(tmp_path), stats)
    assert report.lines_emitted == 6
    assert len(group_by_calls) == 1
    assert [len(items) for items in sorted_items] == [5, 8]  # 2 + 3 lines; 2 left + 6 pairs
    assert all(item[item.index(b"\t") + 1] != 0 for item in sorted_items[1])
    assert stats.keys_reduced == 3  # one shared URI, then two left ids


def _replace_id(line: str, new_id: str) -> str:
    return new_id + line[line.index("\t"):]


def join3_oracle(fd_rows, yd_rows, ids_a, ids_b):
    """Nested loop over all (fd line, yd line) pairs on one dbpedia URI, in the
    byte order of `idA TAB idB`; equal id pairs keep the byte order of lines."""
    pairs = []
    for id_a, (_, f_line, d_a, d_line) in zip(ids_a, fd_rows):
        for id_b, (_, y_line, d_b, _) in zip(ids_b, yd_rows):
            if d_a == d_b:
                line = (
                    f"{id_a},{id_b}\tdbpedia-instance\t{d_line}"
                    f"\tfreebase-instance\t{f_line}\tyago-instance\t{y_line}"
                )
                pairs.append((f"{id_a}\t{id_b}".encode(), line.encode(), line))
    return [line for *_, line in sorted(pairs)]


def test_join3_sum_of_products_oracle(tmp_path, rng):
    # random multiplicities per shared URI, plus a hub URI with several lines
    # on each side; |join3| must equal sum(m_u * n_u) and the bytes and order
    # must match a nested loop
    shared = [f"http://d/{i}" for i in range(30)] + ["http://d/hub"]
    d_lines = {u: entity(u, age=[u[-1]])[1] for u in shared}
    fd_rows, yd_rows = [], []
    m = {}
    n = {}
    for u in shared:
        m[u] = 5 if u.endswith("hub") else rng.randrange(0, 4)
        n[u] = 4 if u.endswith("hub") else rng.randrange(0, 4)
        for i in range(m[u]):
            f_uri = f"http://f/{u[-2:]}x{i}"
            fd_rows.append((f_uri, entity(f_uri, name=[str(i)])[1], u, d_lines[u]))
        for i in range(n[u]):
            y_uri = f"http://y/{u[-2:]}x{i}"
            yd_rows.append((y_uri, entity(y_uri, label=[str(i)])[1], u, d_lines[u]))
    fd = make_2way(tmp_path, "fd.links", "freebase", "dbpedia", fd_rows)
    yd = make_2way(tmp_path, "yd.links", "yago", "dbpedia", yd_rows)
    ids_a = [f"fd-{k}" for k in range(1, len(fd_rows) + 1)]
    ids_b = [f"yd-{k}" for k in range(1, len(yd_rows) + 1)]
    # two right lines on different shared URIs share one id
    assert yd_rows[0][2] != yd_rows[-1][2]
    ids_b[-1] = ids_b[0]
    lines = read_lines(yd)
    lines[-1] = _replace_id(lines[-1], ids_b[-1])
    (tmp_path / "yd.links").write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    assert len(fd_rows) >= 10 and len(yd_rows) >= 10
    out = tmp_path / "dfy.links"
    stats = JobStats()
    report = join3(
        fd, yd, "dbpedia", ["dbpedia", "freebase", "yago"], str(out),
        cfg_for(tmp_path, memory_budget_bytes=4 * 1024), stats=stats,
    )
    expected = sum(m[u] * n[u] for u in shared)
    assert report.lines_emitted == expected
    assert report.lines_left == len(fd_rows)
    assert report.lines_right == len(yd_rows)
    assert stats.spill_runs > 0
    assert read_lines(out) == join3_oracle(fd_rows, yd_rows, ids_a, ids_b)


def test_join3_reads_the_shared_group_first_or_second(tmp_path):
    # Both files put dbpedia's group first on some lines and second on the
    # others; join3 gives the bytes and report of the same rows with
    # dbpedia always second, at a spilling budget too.
    d_lines = [entity(f"http://d/{k}", age=[str(k)])[1] for k in range(7)]
    rows = {
        ("fd", "freebase"): [(entity(f"http://f/{i}", name=[str(i)])[1], d_lines[i % 7])
                             for i in range(20)],
        ("yd", "yago"): [(entity(f"http://y/{i}", label=[str(i)])[1], d_lines[i * 3 % 7])
                         for i in range(15)],
    }

    def write(name, label, flip):
        # dbpedia's group comes first on the lines whose number % 2 is flip.
        path = tmp_path / f"{name}-{flip}.links"
        with open(path, "w", encoding="utf-8") as fh:
            for n, (line, d_line) in enumerate(rows[name, label], 1):
                groups = [f"{label}-instance\t{line}", f"dbpedia-instance\t{d_line}"]
                if n % 2 == flip:
                    groups.reverse()
                fh.write("\t".join((f"{name}-{n}", *groups)) + "\n")
        return str(path)

    for budget in (1 << 20, 2048):
        outcomes = []
        for fd_flip, yd_flip in ((None, None), (1, 0), (0, 1)):
            out = tmp_path / "dfy.links"
            report = join3(
                write("fd", "freebase", fd_flip), write("yd", "yago", yd_flip), "dbpedia",
                ["dbpedia", "freebase", "yago"], str(out),
                cfg_for(tmp_path, memory_budget_bytes=budget),
            )
            outcomes.append((out.read_bytes(), report))
        assert outcomes[1] == outcomes[0] == outcomes[2]
        assert outcomes[0][1].lines_emitted == sum(
            1 for _, d in rows["fd", "freebase"] for _, e in rows["yd", "yago"] if d == e
        )
    assert outcomes[0][1].spill_runs > 0


def test_join3_bad_shared_uri_escape_names_file_and_line(tmp_path):
    _, f1 = entity("http://f/1", name=["f"])
    _, d1 = entity("http://d/1", age=["1"])
    _, y1 = entity("http://y/1", label=["y"])
    d_bad = "http://d/1\\" + d1[d1.index("\t"):]  # ends in a lone backslash
    fd = make_2way(tmp_path, "fd.links", "freebase", "dbpedia",
                   [("http://f/1", f1, "http://d/1", d1), ("http://f/1", f1, "", d_bad)])
    yd = make_2way(tmp_path, "yd.links", "yago", "dbpedia",
                   [("http://y/1", y1, "http://d/1", d1)])
    with pytest.raises(LinkJoinError, match=r"fd\.links:2: bad entity line: .*escape"):
        join3(
            fd, yd, "dbpedia", ["dbpedia", "freebase", "yago"],
            str(tmp_path / "out"), cfg_for(tmp_path),
        )


@pytest.mark.parametrize("side", ["left", "right"])
def test_join3_invalid_utf8_linkage_line_names_file_and_line(tmp_path, side):
    _, f1 = entity("http://f/1", name=["f"])
    _, d1 = entity("http://d/1", age=["1"])
    _, y1 = entity("http://y/1", label=["y"])
    fd = make_2way(tmp_path, "fd.links", "freebase", "dbpedia",
                   [("http://f/1", f1, "http://d/1", d1)])
    yd = make_2way(tmp_path, "yd.links", "yago", "dbpedia",
                   [("http://y/1", y1, "http://d/1", d1)])
    path = fd if side == "left" else yd
    with open(path, "ab") as fh:
        fh.write(b"xx-2\tfreebase-instance\thttp://f/\xff\tdbpedia-instance\thttp://d/2\n")
    with pytest.raises(LinkJoinError) as excinfo:
        join3(
            fd, yd, "dbpedia", ["dbpedia", "freebase", "yago"],
            str(tmp_path / "out"), cfg_for(tmp_path),
        )
    assert str(excinfo.value) == f"{path}:2: not UTF-8: invalid start byte"



@pytest.mark.parametrize("edit", ["crlf", "mid-line"])
def test_join3_raw_cr_in_linkage_line_names_file_and_line(tmp_path, edit):
    # Text mode read a CRLF file as if it were LF, and a CR inside a line as
    # a line end; validate flags both lines, so join3 refuses them too.
    _, f1 = entity("http://f/1", name=["f"])
    _, d1 = entity("http://d/1", age=["1"])
    _, y1 = entity("http://y/1", label=["y"])
    fd = make_2way(tmp_path, "fd.links", "freebase", "dbpedia",
                   [("http://f/1", f1, "http://d/1", d1)])
    yd = make_2way(tmp_path, "yd.links", "yago", "dbpedia",
                   [("http://y/1", y1, "http://d/1", d1)])
    with open(fd, "rb") as fh:
        data = fh.read()
    if edit == "crlf":
        data = data.replace(b"\n", b"\r\n")
    else:
        data = data.replace(b"\tdbpedia-instance", b"\r\tdbpedia-instance")
    with open(fd, "wb") as fh:
        fh.write(data)
    with pytest.raises(LinkJoinError) as excinfo:
        join3(
            fd, yd, "dbpedia", ["dbpedia", "freebase", "yago"],
            str(tmp_path / "out"), cfg_for(tmp_path),
        )
    assert str(excinfo.value) == f"{fd}:1: raw control byte 0x0d"
    assert not (tmp_path / "out").exists()


# (file, edit of its last line or None, message); file "both" makes the
# right file carry freebase + dbpedia like the left one.
JOIN3_INPUT_ERRORS = {
    "three-way": ("left", lambda l: l + "\tyago-instance\thttp://y/x\tp\tv",
                  "expected 2 record groups, found 3"),
    "three-way-right": ("right", lambda l: l + "\tfreebase-instance\thttp://f/x\tp\tv",
                        "expected 2 record groups, found 3"),
    "foreign-kb": ("left", lambda l: l.replace("freebase-instance", "wikidata-instance"),
                   "not in the output order"),
    "foreign-kb-right": ("right", lambda l: l.replace("yago-instance", "wikidata-instance"),
                         "not in the output order"),
    "uncovered": ("both", None, "do not cover the output order"),
    "duplicate-left-id": ("left", lambda l: _replace_id(l, "fd-1"), "duplicate link id"),
    "space-in-id": ("left", lambda l: _replace_id(l, "fd 60"), "bad link id"),
    "control-in-id": ("right", lambda l: _replace_id(l, "yd\x0160"), "bad link id"),
    "comma-in-id": ("left", lambda l: _replace_id(l, "fd,60"), "holds a comma"),
    "comma-in-id-right": ("right", lambda l: _replace_id(l, "yd,60"), "holds a comma"),
    "unclosed-wrapper-id": ("right", lambda l: _replace_id(l, '""yd-60'),
                            "opens a literal wrapper"),
    "one-kb-twice": ("right", lambda l: l.replace("yago-instance", "dbpedia-instance"),
                     "one KB holds both records"),
}


@pytest.mark.parametrize("case", sorted(JOIN3_INPUT_ERRORS))
def test_join3_input_errors_at_a_spilling_budget(tmp_path, spill_files, case):
    where, edit, message = JOIN3_INPUT_ERRORS[case]
    fd_rows, yd_rows = [], []
    for i in range(60):
        _, d = entity(f"http://d/{i}", age=[str(i)])
        fd_rows.append(("", entity(f"http://f/{i}", name=[str(i)])[1], "", d))
        yd_rows.append(("", entity(f"http://y/{i}", label=[str(i)])[1], "", d))
    fd = make_2way(tmp_path, "fd.links", "freebase", "dbpedia", fd_rows)
    right_label = "freebase" if where == "both" else "yago"
    yd = make_2way(tmp_path, "yd.links", right_label, "dbpedia", yd_rows)
    path = fd if where == "left" else yd
    if edit is not None:
        lines = read_lines(path)
        lines[-1] = edit(lines[-1])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(l + "\n" for l in lines))
    stats = JobStats()
    with pytest.raises(LinkJoinError, match=message) as excinfo:
        join3(
            fd, yd, "dbpedia", ["dbpedia", "freebase", "yago"], str(tmp_path / "out"),
            cfg_for(tmp_path, memory_budget_bytes=2048), stats=stats,
        )
    if case == "duplicate-left-id":
        assert fd in str(excinfo.value)  # the id belongs to two lines
    elif case == "uncovered":
        # The pair's labels clash only across the two files, so both are named.
        assert str(excinfo.value).startswith(f"{fd} and {yd}: ")
    elif edit is not None:
        assert f"{path}:60: " in str(excinfo.value)
    assert stats.spill_runs > 0
    assert list((tmp_path / "spill").iterdir()) == []
    assert spill_files and all(f.closed for f in spill_files)


def test_join3_traceability(tmp_path, rng):
    # every id pair must resolve to its two source lines with byte-identical
    # record slots
    _, d1 = entity("http://d/1", age=["1"])
    _, d2 = entity("http://d/2", age=["2"])
    fd_rows = [
        ("http://f/1", entity("http://f/1", name=["a"])[1], "http://d/1", d1),
        ("http://f/2", entity("http://f/2", name=["b"])[1], "http://d/2", d2),
    ]
    yd_rows = [
        ("http://y/1", entity("http://y/1", label=["c"])[1], "http://d/1", d1),
        ("http://y/2", entity("http://y/2", label=["d"])[1], "http://d/2", d2),
    ]
    fd = make_2way(tmp_path, "fd.links", "freebase", "dbpedia", fd_rows)
    yd = make_2way(tmp_path, "yd.links", "yago", "dbpedia", yd_rows)
    out = tmp_path / "dfy.links"
    join3(fd, yd, "dbpedia", ["dbpedia", "freebase", "yago"], str(out), cfg_for(tmp_path))

    fd_by_id = {parse_link_line(l).link_id: parse_link_line(l) for l in read_lines(fd)}
    yd_by_id = {parse_link_line(l).link_id: parse_link_line(l) for l in read_lines(yd)}
    for line in read_lines(out):
        parsed = parse_link_line(line)
        id_a, id_b = parsed.link_id.split(",")
        groups = dict(parsed.groups)
        src_a = dict(fd_by_id[id_a].groups)
        src_b = dict(yd_by_id[id_b].groups)
        assert groups["dbpedia"] == src_a["dbpedia"]
        assert groups["freebase"] == src_a["freebase"]
        assert groups["yago"] == src_b["yago"]


def test_join3_validates_order_and_shared(tmp_path):
    with pytest.raises(LinkJoinError):
        join3("a", "b", "dbpedia", ["dbpedia", "freebase"], "out", cfg_for(tmp_path))
    with pytest.raises(LinkJoinError):
        join3("a", "b", "wikidata", ["dbpedia", "freebase", "yago"], "out", cfg_for(tmp_path))


def test_join3_shared_uri_with_tab_is_error(tmp_path):
    # `http://d/1<TAB>x`, cut at its raw tab, would join on `http://d/1`.
    _, f1 = entity("http://f/1", name=["f"])
    _, d1 = entity("http://d/1", age=["1"])
    _, d1x = entity("http://d/1\tx", age=["1"])
    _, y1 = entity("http://y/1", label=["y"])
    fd = make_2way(tmp_path, "fd.links", "freebase", "dbpedia",
                   [("http://f/1", f1, "http://d/1\tx", d1x)])
    yd = make_2way(tmp_path, "yd.links", "yago", "dbpedia",
                   [("http://y/1", y1, "http://d/1", d1)])
    with pytest.raises(LinkJoinError, match="control or space character in URI"):
        join3(
            fd, yd, "dbpedia", ["dbpedia", "freebase", "yago"],
            str(tmp_path / "out"), cfg_for(tmp_path),
        )


@pytest.mark.parametrize("side", ["left", "right"])
def test_join3_rejects_a_comma_in_a_link_id(tmp_path, side):
    # join3 writes `idA,idB`, so left ids `a,b` and `a` with right ids `c`
    # and `b,c` on one shared URI would give two lines the id `a,b,c`.
    _, d1 = entity("http://d/1", age=["1"])
    fd = make_2way(tmp_path, "fd.links", "freebase", "dbpedia",
                   [("", entity(f"http://f/{i}", name=["f"])[1], "", d1) for i in range(2)])
    yd = make_2way(tmp_path, "yd.links", "yago", "dbpedia",
                   [("", entity(f"http://y/{i}", label=["y"])[1], "", d1) for i in range(2)])
    for path, ids in ((fd, ["a,b" if side == "left" else "a:b", "a"]),
                      (yd, ["c", "b,c" if side == "right" else "b:c"])):
        lines = [_replace_id(line, new_id) for line, new_id in zip(read_lines(path), ids)]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(line + "\n" for line in lines))
    bad, line_no, bad_id = (fd, 1, "a,b") if side == "left" else (yd, 2, "b,c")
    with pytest.raises(LinkJoinError) as excinfo:
        join3(
            fd, yd, "dbpedia", ["dbpedia", "freebase", "yago"],
            str(tmp_path / "out"), cfg_for(tmp_path),
        )
    assert str(excinfo.value) == f"{bad}:{line_no}: bad link id: {bad_id!r} holds a comma"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("link_id", ["fd-1", 'fd-1""', '""fd-1""', '""fd-1'])
def test_join3_output_validates_or_join3_gives_validates_reason(tmp_path, link_id):
    # join3 copies a left id into `idA,idB`, so it must refuse, for validate's
    # reason, an id whose 3-way line validate --mode link3 would flag.
    _, f1 = entity("http://f/1", name=["f"])
    _, d1 = entity("http://d/1", age=["1"])
    _, y1 = entity("http://y/1", label=["y"])
    fd = make_2way(tmp_path, "fd.links", "freebase", "dbpedia",
                   [("http://f/1", f1, "http://d/1", d1)])
    yd = make_2way(tmp_path, "yd.links", "yago", "dbpedia",
                   [("http://y/1", y1, "http://d/1", d1)])
    (tmp_path / "fd.links").write_text(_replace_id(read_lines(fd)[0], link_id) + "\n",
                                       encoding="utf-8")
    flags = validate(fd, "link2").violations
    out = tmp_path / "dfy.links"
    try:
        join3(fd, yd, "dbpedia", ["dbpedia", "freebase", "yago"], str(out), cfg_for(tmp_path))
    except LinkJoinError as exc:
        assert flags == [(1, str(exc).removeprefix(f"{fd}:1: "))]
        assert not out.exists()
    else:
        assert flags == []
        assert read_lines(out)[0].startswith(f"{link_id},yd-1\t")
        assert validate(str(out), "link3").violations == []


@pytest.mark.parametrize("copy", ["same-line", "other-line"])
def test_join3_refuses_a_right_id_repeated_on_one_shared_uri(tmp_path, copy):
    _, f1 = entity("http://f/1", name=["f"])
    _, d1 = entity("http://d/1", age=["1"])
    y_lines = [entity(f"http://y/{i}", label=["y"])[1] for i in range(2)]
    fd = make_2way(tmp_path, "fd.links", "freebase", "dbpedia",
                   [("http://f/1", f1, "http://d/1", d1)])
    yd = make_2way(tmp_path, "yd.links", "yago", "dbpedia",
                   [("", y, "", d1) for y in y_lines])
    first, second = read_lines(yd)
    second = first if copy == "same-line" else _replace_id(second, "yd-1")
    (tmp_path / "yd.links").write_text(f"{first}\n{second}\n", encoding="utf-8")
    assert validate(yd, "link2").violations == [(2, "duplicate link id 'yd-1'")]
    out = tmp_path / "dfy.links"
    with pytest.raises(LinkJoinError) as excinfo:
        join3(fd, yd, "dbpedia", ["dbpedia", "freebase", "yago"], str(out), cfg_for(tmp_path))
    assert str(excinfo.value) == f"{yd}: duplicate link id 'yd-1' in right linkage file"
    assert not out.exists()


def test_join3_shared_label_absent_from_line(tmp_path):
    _, f1 = entity("http://f/1", name=["f"])
    _, y1 = entity("http://y/1", label=["y"])
    bad = make_2way(tmp_path, "fy.links", "freebase", "yago",
                    [("http://f/1", f1, "http://y/1", y1)])
    with pytest.raises(LinkJoinError, match="absent"):
        join3(
            bad, bad, "dbpedia", ["dbpedia", "freebase", "yago"],
            str(tmp_path / "out"), cfg_for(tmp_path),
        )


# --- memory ------------------------------------------------------------------

@pytest.fixture
def live_buffer_peak(monkeypatch):
    """Records, at every add, the bytes that all of a job's sorters hold in
    their buffers once the item is in: the peak the budget must bound."""
    sorters = []
    peak = {"bytes": 0, "item": 0}

    class Recording(engine.ExternalSorter):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sorters.append(self)

        def add(self, item):
            charge = len(item) + engine._ITEM_OVERHEAD
            live = sum(s._buffer_bytes for s in sorters if s._buffer) + charge
            peak["bytes"] = max(peak["bytes"], live)
            peak["item"] = max(peak["item"], charge)
            super().add(item)

    monkeypatch.setattr(engine, "ExternalSorter", Recording)
    return peak


@pytest.mark.parametrize("stage", ["join2", "join3"])
def test_chained_sorts_hold_one_buffer_when_they_spill(tmp_path, live_buffer_peak, stage):
    # join2's second shuffle drains the first before it reads the left file,
    # and a sort that spilled holds no buffer while it merges.
    budget = 8 * 1024
    cfg = cfg_for(tmp_path, memory_budget_bytes=budget)
    stats = JobStats()
    d_lines = [entity(f"http://d/{i:03}", age=[str(i)])[1] for i in range(200)]
    if stage == "join2":
        a, b = tmp_path / "f.ents", tmp_path / "d.ents"
        write_entity_file(a, dict(entity(f"http://f/{i:03}", name=[f"n{i}"]) for i in range(200)))
        b.write_text("".join(line + "\n" for line in d_lines), encoding="utf-8")
        gt = tmp_path / "gt.tsv"
        gt.write_text("".join(f"http://f/{i:03}\thttp://d/{i:03}\n" for i in range(200)),
                      encoding="utf-8")
        report = join2(str(a), str(b), str(gt), "tsv-pairs", ("freebase", "dbpedia"),
                       str(tmp_path / "out"), cfg, stats=stats)
    else:
        fd = make_2way(tmp_path, "fd.links", "freebase", "dbpedia",
                       [("", entity(f"http://f/{i}", name=[str(i)])[1], "", d)
                        for i, d in enumerate(d_lines)])
        yd = make_2way(tmp_path, "yd.links", "yago", "dbpedia",
                       [("", entity(f"http://y/{i}", label=[str(i)])[1], "", d)
                        for i, d in enumerate(d_lines)])
        report = join3(fd, yd, "dbpedia", ["dbpedia", "freebase", "yago"],
                       str(tmp_path / "out"), cfg, stats=stats)
    assert report.lines_emitted == 200
    assert stats.spill_runs >= 4
    assert live_buffer_peak["bytes"] <= budget + live_buffer_peak["item"]


# --- self-containment -------------------------------------------------------

def test_linkage_lines_parse_after_shuffle(tmp_path, rng):
    rows = []
    for i in range(20):
        _, f = entity(f"http://f/{i}", name=[str(i)])
        _, d = entity(f"http://d/{i}", age=[str(i)])
        rows.append((f"http://f/{i}", f, f"http://d/{i}", d))
    path = make_2way(tmp_path, "fd.links", "freebase", "dbpedia", rows)
    lines = read_lines(path)
    rng.shuffle(lines)
    dropped = lines[: len(lines) // 2]  # any subset parses on its own
    for line in dropped:
        parsed = parse_link_line(line)
        assert len(parsed.groups) == 2
