import gzip
import io
import re
import time
import tracemalloc
import zlib
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatlink import rdf_ingest
from flatlink.errors import FlatlinkError, NTriplesParseError
from flatlink.rdf_ingest import (
    LITERAL,
    URI,
    ObjectValue,
    ParseReport,
    Triple,
    _cut_blocks,
    _decode_bodies,
    _decode_escapes,
    _decode_uri,
    iter_triple_bytes,
    iter_triples,
    parse_ntriples_line,
    read_lines,
    render_triple,
)

from conftest import (
    criterion8_lines,
    damage_gz,
    numbered_triples,
    synth_triples,
    text_numbered_triples,
)


def test_minimal_uri_triple():
    t = parse_ntriples_line("<http://x/a> <http://x/p> <http://x/b> .")
    assert t == Triple("http://x/a", "http://x/p", ObjectValue(URI, "http://x/b"))


def test_literal_triple():
    t = parse_ntriples_line('<http://x/a> <http://x/age> "32" .')
    assert t == Triple("http://x/a", "http://x/age", ObjectValue(LITERAL, "32"))


def test_missing_object_is_error():
    with pytest.raises(NTriplesParseError):
        parse_ntriples_line("<http://x/a> <http://x/p>")


@pytest.mark.parametrize("line", ["", "   ", "# a comment", "   # indented comment"])
def test_blank_and_comment_lines_skip(line):
    assert parse_ntriples_line(line) is None


@pytest.mark.parametrize(
    "line",
    [
        "<http://x/a> <http://x/p> <http://x/b>",  # no dot
        "<http://x/a> <http://x/p> .",  # no object
        "<http://x/a> <http://x/p <http://x/b> .",  # unbalanced bracket
        '<http://x/a> <http://x/p> "unclosed .',  # unbalanced quote
        '<http://x/a> <http://x/p> "a\tb" .',  # raw tab inside literal
        "<http://x/a\tb> <http://x/p> <http://x/c> .",  # raw tab inside uri
        "<http://x/a> <http://x/p> <http://x/b> . trailing",
        '<http://x/a> <http://x/p> "v"@ .',  # empty language tag
        "<http://x/a> <http://x/p> <> .",  # empty uri
        "<http://x/a> <http://x/p> <http://x/\\u0001b> .",  # control char via escape
        '<http://x/a> <http://x/p> "bad \\q escape" .',
        # \u and \U bodies are exactly 4 or 8 hex digits: no sign, space or _
        '<http://x/a> <http://x/p> "x\\u+041" .',
        '<http://x/a> <http://x/p> "x\\u 041" .',
        '<http://x/a> <http://x/p> "x\\u0_41" .',
        "<http://x/a> <http://x/p> <a\\u+041> .",
        '<http://x/a> <http://x/p> "x\\U-0000041" .',
        "<http://x/a\\U0000_041> <http://x/p> <http://x/b> .",
        # a line cut off inside an escape
        '<http://x/a> <http://x/p> "x\\u12',
    ],
)
def test_malformed_lines_raise(line):
    with pytest.raises(NTriplesParseError):
        parse_ntriples_line(line)


def test_language_tag_and_datatype_dropped():
    a = parse_ntriples_line('<http://x/a> <http://x/p> "chat"@fr .')
    b = parse_ntriples_line(
        '<http://x/a> <http://x/p> "32"^^<http://www.w3.org/2001/XMLSchema#int> .'
    )
    assert a.object == ObjectValue(LITERAL, "chat")
    assert b.object == ObjectValue(LITERAL, "32")


def test_blank_nodes_are_opaque_tokens():
    t = parse_ntriples_line("_:b1 <http://x/p> _:b2 .")
    assert t.subject == "_:b1"
    assert t.object == ObjectValue(URI, "_:b2")


def test_unicode_escapes_decode():
    t = parse_ntriples_line('<http://x/\\u00e9> <http://x/p> "caf\\u00e9 \\t end" .')
    assert t.subject == "http://x/é"
    assert t.object.lexical == "café \t end"


def test_literal_escape_codes():
    t = parse_ntriples_line('<http://x/a> <http://x/p> "q\\"q \\\\ n\\n r\\r" .')
    assert t.object.lexical == 'q"q \\ n\n r\r'


def test_stream_counts_malformed_and_blank():
    lines = [
        "<http://x/a> <http://x/p> <http://x/b> .",
        "this is not a triple",
        '<http://x/a> <http://x/q> "v" .',
        "",
        "# comment",
    ]
    report = ParseReport()
    got = list(iter_triples(lines, report))
    assert len(got) == 2
    assert report.lines_total == 5
    assert report.triples_ok == 2
    assert report.lines_skipped == 1
    assert report.lines_blank == 2
    assert report.first_errors[0][0] == 2
    assert report.lines_total == report.triples_ok + report.lines_skipped + report.lines_blank


def test_stream_empty_file():
    report = ParseReport()
    assert list(iter_triples([], report)) == []
    assert report.lines_total == 0
    assert report.triples_ok == 0


# Independent oracle: a regex-based per-line parser, deliberately different
# from the scanner under test.
_TERM = r"(<[^<>]*>|_:\S+)"
_LIT = r'"((?:[^"\\]|\\.)*)"(?:@(\S+)|\^\^<[^<>]*>)?'
_LINE = re.compile(rf"^\s*{_TERM}\s+(<[^<>]*>)\s+(?:{_TERM}|{_LIT})\s*\.\s*$")
_UNESCAPE = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}


def _ref_decode(text: str) -> str:
    def sub(m: re.Match) -> str:
        code = m.group(0)
        if code[1] in "uU":
            return chr(int(code[2:], 16))
        return _UNESCAPE[code[1]]

    return re.sub(r"\\u[0-9a-fA-F]{4}|\\U[0-9a-fA-F]{8}|\\.", sub, text)


def _ref_parse(line: str):
    if not line.strip() or line.lstrip().startswith("#"):
        return None
    m = _LINE.match(line)
    assert m, f"oracle cannot parse {line!r}"
    subj, pred, obj_term, lit, _lang = m.groups()

    def uri(term: str) -> str:
        return _ref_decode(term[1:-1]) if term.startswith("<") else term

    if obj_term is not None:
        obj = ObjectValue(URI, uri(obj_term))
    else:
        obj = ObjectValue(LITERAL, _ref_decode(lit))
    return Triple(uri(subj), pred[1:-1], obj)


def test_corpus_matches_reference_parser(rng):
    triples = synth_triples(rng, "x", 100, 30)
    lines = [render_triple(t) for t in triples]
    # sprinkle in comments, blanks and lang-tagged literals
    lines.insert(5, "# header comment")
    lines.insert(20, "")
    lines.append('<http://x/a> <http://x/p> "hola"@es .')
    expected = [t for t in (_ref_parse(line) for line in lines) if t is not None]

    report = ParseReport()
    got = list(iter_triples(lines, report))
    assert got == expected
    assert report.triples_ok == len(expected)
    assert report.lines_skipped == 0


def test_order_preserved_and_exactly_once(rng):
    triples = synth_triples(rng, "x", 50, 10)
    lines = [render_triple(t) for t in triples]
    got = list(iter_triples(lines))
    assert got == triples


def test_render_parse_idempotent(rng):
    awkward = [
        Triple("http://x/a", "http://x/p", ObjectValue(LITERAL, 'tab\there "q" \\ \n')),
        Triple("_:b1", "http://x/p", ObjectValue(URI, "_:b2")),
        Triple("http://x/é", "http://x/p", ObjectValue(URI, "http://y/<>")),
        Triple("http://x/a", "http://x/p", ObjectValue(LITERAL, "")),
    ] + synth_triples(rng, "x", 40, 10)
    for t in awkward:
        rendered = render_triple(t)
        assert parse_ntriples_line(rendered) == t


def test_gzip_and_plain_files(tmp_path, rng):
    import gzip

    triples = synth_triples(rng, "x", 30, 10)
    text = "".join(render_triple(t) + "\n" for t in triples)
    plain = tmp_path / "a.nt"
    plain.write_text(text, encoding="utf-8")
    zipped = tmp_path / "a.nt.gz"
    with gzip.open(zipped, "wt", encoding="utf-8") as fh:
        fh.write(text)
    assert list(iter_triples(str(plain))) == triples
    assert list(iter_triples(str(zipped))) == triples


@pytest.mark.parametrize("bad_first", [True, False])
@pytest.mark.parametrize("suffix", [".nt", ".nt.gz"])
def test_invalid_utf8_line_is_counted_and_skipped(tmp_path, suffix, bad_first):
    import gzip

    bad = b'<http://x/a> <http://x/p> "bad \xff byte" .\n'
    ok = b'<http://x/b> <http://x/q> "ok \xc3\xa9" .\n'
    data = bad + ok if bad_first else ok + bad
    path = tmp_path / ("kb" + suffix)
    path.write_bytes(gzip.compress(data) if suffix.endswith(".gz") else data)
    report = ParseReport()
    got = list(iter_triples(str(path), report))
    assert got == [Triple("http://x/b", "http://x/q", ObjectValue(LITERAL, "ok \u00e9"))]
    assert report.lines_total == 2
    assert report.lines_skipped == 1
    assert report.first_errors == [(1 if bad_first else 2, "not UTF-8")]


def test_streaming_is_bounded(rng):
    # 200k lines through a generator; peak heap growth must stay far below
    # the corpus size (~14 MB serialized).
    import tracemalloc

    def lines():
        for i in range(200_000):
            yield f'<http://x/e{i % 1000}> <http://x/p> "value {i}" .'

    count = 0
    tracemalloc.start()
    for _ in iter_triples(lines(), ParseReport()):
        count += 1
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert count == 200_000
    assert peak < 8 * 1024 * 1024


def test_error_cap_limits_report():
    lines = ["garbage"] * 100
    report = ParseReport(error_cap=5)
    assert list(iter_triples(lines, report)) == []
    assert report.lines_skipped == 100
    assert len(report.first_errors) == 5


@pytest.mark.parametrize(
    "escape", ["\\uD800", "\\udfff", "\\uDBFF", "\\U0000D8FF", "\\U0000DC00"]
)
def test_surrogate_escapes_are_malformed(escape):
    with pytest.raises(NTriplesParseError, match="surrogate"):
        parse_ntriples_line(f'<http://x/a> <http://x/p> "bad {escape} x" .')
    with pytest.raises(NTriplesParseError, match="surrogate"):
        parse_ntriples_line(f"<http://x/a{escape}> <http://x/p> <http://x/b> .")


def test_surrogate_escape_line_is_counted_and_skipped():
    lines = [
        '<http://x/a> <http://x/p> "bad \\uD800 surrogate" .',
        '<http://x/a> <http://x/q> "ok" .',
    ]
    report = ParseReport()
    got = list(iter_triples(lines, report))
    assert got == [Triple("http://x/a", "http://x/q", ObjectValue(LITERAL, "ok"))]
    assert report.lines_skipped == 1
    assert report.first_errors == [(1, "\\u escape is a surrogate code point")]


@pytest.mark.parametrize("escape", ["\\U00110000", "\\U80000000", "\\UFFFFFFFF"])
def test_out_of_range_escapes_are_malformed(escape):
    lines = [
        f'<http://x/a> <http://x/p> "bad {escape} x" .',
        f"<http://x/a{escape}> <http://x/p> <http://x/b> .",
        '<http://x/a> <http://x/q> "ok" .',
    ]
    report = ParseReport()
    got = list(iter_triples(lines, report))
    assert got == [Triple("http://x/a", "http://x/q", ObjectValue(LITERAL, "ok"))]
    assert report.first_errors == [(1, "\\U escape out of range"), (2, "\\U escape out of range")]


def test_escapes_next_to_surrogates_still_decode():
    t = parse_ntriples_line('<http://x/a> <http://x/p> "\\uD7FF\\uE000\\U0001F600" .')
    assert t.object.lexical == "\ud7ff\ue000\U0001f600"


# --- codec unescape ----------------------------------------------------------
# One codec call decodes a matched body.  It must refuse what the character
# parser refuses, and backslashreplace must not let a Python-only escape
# such as \xNN, or a non-ASCII character after an escaped backslash, read
# differently from N-Triples.


@pytest.mark.parametrize("escape", ["\\uD800", "\\uDFFF", "\\U00110000", "\\U80000000"])
def test_codec_unescape_rejects_surrogates_and_out_of_range(escape):
    with pytest.raises(ValueError):
        _decode_escapes(f"x{escape}y".encode())
    with pytest.raises(ValueError):
        _decode_uri(f"http://x/{escape}".encode())


@pytest.mark.parametrize("escape", ["\\u0020", "\\u000A", "\\u0000", "\\U0000001F"])
def test_codec_unescape_rejects_control_or_space_in_uri(escape):
    assert _decode_escapes(escape.encode()) == chr(int(escape[2:], 16)).encode()
    with pytest.raises(ValueError):
        _decode_uri(f"http://x/a{escape}b".encode())


@pytest.mark.parametrize(
    "body, decoded",
    [
        ("\\U0010FFFF", "\U0010ffff"),
        ("a\\\\xe9", "a\\xe9"),  # an escaped backslash, then x, e, 9: not U+00E9
        ("\\\\é", "\\é"),
        ("é\\\\", "é\\"),
        ("é\\\\中\\\\u0041", "é\\中\\u0041"),
        ("\\t\\b\\n\\r\\f\\\"\\'\\\\", "\t\b\n\r\f\"'\\"),
        ("caf\\u00E9 \\U0001F600 é", "café \U0001f600 é"),
    ],
)
def test_codec_unescape_decodes_like_the_character_parser(body, decoded):
    assert _decode_escapes(body.encode()) == decoded.encode()
    line = f'<http://x/a> <http://x/p> "{body}" .'
    assert parse_ntriples_line(line).object.lexical == decoded
    triples, _, char_calls = _cut(line)
    assert (triples, char_calls) == ([_bytes_of(parse_ntriples_line(line))], 0)


# --- block cutter vs character parser --------------------------------------


def _outcome(parse, line: str):
    try:
        return ("ok", parse(line))
    except NTriplesParseError as exc:
        return ("error", str(exc))


def _bytes_of(triple: Triple) -> tuple[bytes, bytes, bytes]:
    subject, predicate, (kind, lexical) = triple
    return subject.encode(), predicate.encode(), (b"L" if kind == LITERAL else b"U") + lexical.encode()


def _takes_fast_path(line: str) -> bool:
    """Whether the block regex that _cut_blocks picks for `line`, one line,
    takes it as a triple."""
    data = line.encode()
    regex = rdf_ingest._ESCAPED_LINES if b"\\" in data else rdf_ingest._BLOCK_LINES
    (groups,) = regex.findall(data)
    return bool(groups[0] or groups[1])


def _cut(line: str):
    """What _cut_blocks makes of `line`: the triples of the block it yields,
    its report, and how many lines it handed to the character parser."""
    report = ParseReport()
    with mock.patch.object(rdf_ingest, "parse_ntriples_line", wraps=parse_ntriples_line) as char:
        triples = [triple for _, triple in numbered_triples(_cut_blocks([line.encode()], report))]
    return triples, report, char.call_count


def _check_routing(line: str, fast: bool) -> None:
    # A line the regex takes is cut there, unless decoding shows that it is
    # bad; then the character parser decides the error reason.  A line the
    # regex misses always goes to the character parser.
    expected = _outcome(parse_ntriples_line, line)
    triples, report, char_calls = _cut(line)
    assert report.lines_total == 1
    assert char_calls == (0 if fast and expected[0] == "ok" else 1)
    if expected[0] == "error":
        assert (triples, report.first_errors) == ([], [(1, expected[1])])
    elif expected[1] is None:
        assert (triples, report.lines_blank) == ([], 1)
    else:
        assert triples == [_bytes_of(expected[1])]


@pytest.mark.parametrize(
    "line, fast",
    [
        ("<http://x/a> <http://x/p> <http://x/b> .", True),
        ('<http://x/a> <http://x/p> "v" .', True),
        ('<http://x/a> <http://x/p> "" .', True),
        ("<a><b><c>.", True),
        ('<a><b>"v"@en-GB.', True),
        ('\t <a>\t<b> "v"^^<http://x/int>\t.\t# note', True),
        ("<a> <b> <c> . # comment with \\ backslash", True),
        ('<a> <b> "v\x0bw\x85\xa0\x1c" .', True),
        ("<http://x/\xe9\x7f\x85> <b> <c> .", True),
        ('<a> <b> "v"@en^^<x> .', True),
        ('<a> <b> "v"@en\x0b.', False),
        ('<a> <b> "v"@ .', False),
        ('<a> <b> "v"^^<> .', False),
        ('<a> <b> "v"^^< > .', False),
        ('<a> <b> "v"^^x .', False),
        ('<a> <b> "v"^^<A> .', True),
        ('<a> <b> "v"^^<\\u0041> .', False),
        ('<a> <b> "a\tb" .', False),
        ("<a\tb> <p> <c> .", False),
        ("<a b> <p> <c> .", False),
        ("<a\x1c> <p> <c> .", False),
        ("<> <p> <c> .", False),
        ("<a> <p> <c", False),
        ('<a> <p> "v .', False),
        ("<a> <p> <c> . garbage", False),
        ("<a> <p> <c> .\x0b", False),
        ("_:b1 <p> <c> .", True),
        ("<a> <p> _:b2 .", True),
        ("_:a\x01 <p> <c> .", False),
        ("_:a<p> <c> .", False),
        ("<a> <p> _:b.", False),
        ('<a> <p> "caf\\u00e9" .', True),
        ('<a\\u00E9\\U0001F600> <p> "q\\"\\\\\\t\\b\\n\\r\\f\\\'" .', True),
        ("<a\\u0020b> <p> <c> .", True),
        ("<a\\uD800> <p> <c> .", True),
        ('<a> <p> "\\uD800" .', True),
        ("<a\\U00110000> <p> <c> .", True),
        ('<a> <p> "\\U00110000" .', True),
        ('<a> <p> "\\q" .', False),
        ("<a\\n> <p> <c> .", False),
        ("_:a\\b <p> <c> .", False),
        ("", False),
        ("# comment", False),
    ],
)
def test_fast_path_takes_exactly_its_shape(line, fast):
    assert _takes_fast_path(line) == fast
    _check_routing(line, fast)


@pytest.mark.parametrize(
    "line",
    [
        '<a> <p> "v"@en\x1c .',
        '<a> <p> "v"@e\x1fn .',
        '<a> <p> "v"@e\xa0n .',
        '<a> <p> "v"@en\u2028 .',
        "_:b\x1c <p> <c> .",
        "<a> <p> _:b\x1d .",
        "_:b\x85 <p> <c> .",
    ],
)
def test_bytes_fast_path_leaves_str_whitespace_to_the_character_parser(line):
    # str.isspace() holds for 0x1C-0x1F, U+0085, U+00A0 and U+2028, where the
    # character parser ends a language tag or label; a bytes \s does not.
    assert not _takes_fast_path(line)
    _check_routing(line, False)


_LONG_FAILING_LINES = {
    "unclosed-echar-literal": '<a> <p> "' + "\\t" * 100_000,
    "unclosed-literal": '<a> <p> "' + "a" * 100_000,
    "unclosed-uchar-uri": "<a" + "\\u0041" * 100_000 + " <p> <c> .",
    "unclosed-uri": "<a" + "b" * 100_000 + " <p> <c> .",
    "bad-escape-at-end": '<a> <p> "' + "\\u0041" * 100_000 + '\\q" .',
    "long-bnode-label": "_:" + "a" * 100_000 + "<p> <c> .",
}


@pytest.mark.parametrize("case", sorted(_LONG_FAILING_LINES))
def test_long_failing_line_parses_in_linear_time(case):
    # Nested quantifiers that can split a body two ways backtrack
    # exponentially on a failing line; the unrolled loops do not.
    line = _LONG_FAILING_LINES[case]
    start = time.perf_counter()
    triples, report, char_calls = _cut(line)
    assert (triples, report.lines_skipped, char_calls) == ([], 1, 1)
    with pytest.raises(NTriplesParseError):
        parse_ntriples_line(line)
    assert time.perf_counter() - start < 5.0


# Lines start from render_triple output.  Half are "clean": terms drawn from
# characters that stay raw when rendered (non-ASCII, DEL, NEL and NBSP; TAB
# and LF in literals once un-escaped below) or that render as well-formed
# escapes, a well-formed suffix and tail, and some non-ASCII characters
# rewritten as \u or \U escapes, so that they reach the fast path until an
# edit breaks them.  The others draw from every character class the two
# parsers treat apart.
_RAW = "abcxyz/:#.-_@^\x7f\x85\xa0é中"
_ANY = _RAW + '"<>\\ \t\n\r\x0b\x1c'


def _triples(alphabet: str, literal_alphabet: str):
    uris = st.text(st.sampled_from(alphabet), min_size=1, max_size=8).map(
        lambda s: "http://x/" + s
    )
    bnodes = st.sampled_from(["_:s", "_:b1", "_:x.y"])
    literals = st.text(st.sampled_from(literal_alphabet), max_size=8)
    objects = st.one_of(
        st.builds(ObjectValue, st.just(URI), uris),
        st.builds(ObjectValue, st.just(URI), bnodes),
        st.builds(ObjectValue, st.just(LITERAL), literals),
    )
    return st.builds(Triple, st.one_of(uris, bnodes), uris, objects)


_CLEAN_TRIPLES = _triples(_RAW + '<>"\\', _RAW + ' <>"\\\t\n\r\b\x0b\x1c')
_ANY_TRIPLES = _triples(_ANY, _ANY)
_UCHARS = ["\\u{:04X}", "\\u{:04x}", "\\U{:08X}"]
_SUFFIXES = ["", "@en", "@en-GB", "^^<http://x/dt>"]
_BAD_SUFFIXES = ["@", "@e\x0b", "@en\x1c", "@e\x1fn", "@e.", "^^<>", "^^dt", "^^<a b>"]
_TAILS = ["", " ", "\t", " # note", "#", " # a \\ b"]
_BAD_TAILS = [" garbage", ".", " . .", "\x0b"]
_INSERTS = list("\t\x0b\x85\xa0\x1c\x7fé\\\"<>#. @^")


@st.composite
def _adversarial_lines(draw) -> str:
    clean = draw(st.booleans())
    suffixes = _SUFFIXES if clean else _SUFFIXES + _BAD_SUFFIXES
    tails = _TAILS if clean else _TAILS + _BAD_TAILS
    line = render_triple(draw(_CLEAN_TRIPLES if clean else _ANY_TRIPLES))
    if line.endswith('" .'):
        line = line[:-2] + draw(st.sampled_from(suffixes)) + " ."
    line = draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(tails))
    if draw(st.booleans()):
        line = line.replace(" ", "")
    if clean or draw(st.booleans()):
        line = line.replace("\\t", "\t").replace("\\n", "\n")  # raw controls in literals
    if draw(st.booleans()):
        uchar = draw(st.sampled_from(_UCHARS))
        line = re.sub("[é中]", lambda m: uchar.format(ord(m[0])), line)
    for _ in range(draw(st.integers(0, 1 if clean else 2))):
        # Half the edits land just inside a term, where the parsers differ.
        inside = [j + 1 for j, c in enumerate(line) if c in '<"']
        if inside and draw(st.booleans()):
            i = draw(st.sampled_from(inside))
        else:
            i = draw(st.integers(0, len(line)))
        if draw(st.booleans()) and i < len(line):
            line = line[:i] + line[i + 1 :]  # drops a '>', '"', space, ...
        else:
            line = line[:i] + draw(st.sampled_from(_INSERTS)) + line[i:]
    return line


@settings(max_examples=600, deadline=None)
@given(_adversarial_lines())
def test_fast_path_matches_character_parser(line):
    # A raw LF, which the edits may leave in a literal, ends a line in the
    # cutter as in text mode: each line is routed alone, and all of them
    # cut as one block read as the text reader reads them, each triple with
    # its line number.
    for one in line.split("\n"):
        _check_routing(one, _takes_fast_path(one))
    expected = ParseReport()
    text = text_numbered_triples(io.StringIO(line), expected)
    report = ParseReport()
    assert numbered_triples(_cut_blocks([line.encode()], report)) == text
    assert report == expected


# Escaped lines the regex takes and whose bodies decode together, then one
# line each whose body the one codec call for the part cannot stand for: a
# raw NUL beside an escape, an escape to U+0000, a surrogate, a code point
# above U+10FFFF, and an escaped space in a URI, which decodes but fails the
# URI check.
_CLEAN_ESCAPED = [
    '<http://x/caf\\u00E9> <http://x/p> "a\\tb \\U0001F600 é" .',
    "<http://x/s> <http://x/p\\u0041> <http://x/o\\u00e9> .",
    '_:b <http://x/p> "é\\\\中\\"" .',
]
_ONE_BAD_BODY = [
    '<http://x/s> <http://x/p> "nul\x00\\t" .',
    '<http://x/s> <http://x/p> "nul\\u0000" .',
    '<http://x/s> <http://x/p> "\\uD800" .',
    "<http://x/s\\U00110000> <http://x/p> <http://x/o> .",
    '<http://x/a\\u0020b> <http://x/p> "v\\t" .',
]


@settings(max_examples=300, deadline=None)
@given(st.lists(_adversarial_lines(), min_size=2, max_size=8))
@example(_CLEAN_ESCAPED)
@example(_CLEAN_ESCAPED[:2] + [_ONE_BAD_BODY[0]] + _CLEAN_ESCAPED[2:])
@example(_CLEAN_ESCAPED[:2] + [_ONE_BAD_BODY[1]] + _CLEAN_ESCAPED[2:])
@example(_CLEAN_ESCAPED[:2] + [_ONE_BAD_BODY[2]] + _CLEAN_ESCAPED[2:])
@example(_CLEAN_ESCAPED[:2] + [_ONE_BAD_BODY[3]] + _CLEAN_ESCAPED[2:])
@example(_CLEAN_ESCAPED[:2] + [_ONE_BAD_BODY[4]] + _CLEAN_ESCAPED[2:])
def test_multi_line_parts_match_character_parser(lines):
    # Lines cut as one part, its escaped bodies decoded together, read as
    # the text reader reads them: the same triples, line numbers and report.
    block = "\n".join(lines)
    expected = ParseReport()
    text = text_numbered_triples(io.StringIO(block), expected)
    report = ParseReport()
    assert numbered_triples(_cut_blocks([block.encode()], report)) == text
    assert report == expected


@pytest.mark.parametrize("bad", _ONE_BAD_BODY[:4])
def test_decode_bodies_falls_back_where_one_call_cannot_stand_for_each(bad):
    bodies = [b for line in _CLEAN_ESCAPED for b in rdf_ingest._BODIES(
        rdf_ingest._ESCAPED_LINES.findall(line.encode())[0]) if b"\\" in b]
    assert len(bodies) == 5
    assert _decode_bodies(bodies) == [_decode_escapes(body) for body in bodies]
    (row,) = rdf_ingest._ESCAPED_LINES.findall(bad.encode())
    (body,) = [b for b in rdf_ingest._BODIES(row) if b"\\" in b]
    assert _decode_bodies(bodies[:3] + [body] + bodies[3:]) is None


def test_cut_lines_decodes_a_part_by_one_codec_call(monkeypatch):
    # A part whose bodies decode together takes one codec call; one bad body
    # among them makes each body decode alone, and sends only its own line
    # to the character parser.
    calls = _count_calls(monkeypatch, "_decode_escapes", "parse_ntriples_line")
    lines = _CLEAN_ESCAPED * 3
    report = ParseReport()
    assert len(numbered_triples(_cut_blocks(["\n".join(lines).encode()], report))) == 9
    assert calls == {"_decode_escapes": 1, "parse_ntriples_line": 0}
    calls.update(dict.fromkeys(calls, 0))
    lines.insert(4, _ONE_BAD_BODY[2])
    report = ParseReport()
    assert len(numbered_triples(_cut_blocks(["\n".join(lines).encode()], report))) == 9
    assert report.first_errors == [(5, "\\u escape is a surrogate code point")]
    assert calls == {"_decode_escapes": 1 + 5 * 3 + 1, "parse_ntriples_line": 1}


@pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"])
@pytest.mark.parametrize("shift", range(12))
def test_blocks_end_at_a_line_end_and_keep_cr_lf_whole(tmp_path, ending, shift):
    # A first line of 11 + `shift` bytes, then lines of 12, so that across
    # the shifts each byte of a line, the CR of a CR LF among them, falls on
    # the last byte of the first 8 KiB read; then one line of 10 reads.  A
    # block may start with what the read before it left after its cut.
    lines = [b"x" * (11 + shift - len(ending))] + [b"y" * (12 - len(ending))] * 2000
    lines.append(b"z" * (10 << 13))
    data = b"".join(line + ending for line in lines)
    path = tmp_path / "kb.nt"
    path.write_bytes(data)
    blocks = list(rdf_ingest._blocks(path))
    assert b"".join(blocks) == data
    assert all(block.endswith((b"\n", b"\r")) for block in blocks)
    assert not any(a.endswith(b"\r") and b.startswith(b"\n") for a, b in zip(blocks, blocks[1:]))
    assert max(len(block) for block in blocks[:-1]) <= (1 << 13) + 12
    assert blocks[-1] == b"z" * (10 << 13) + ending


@pytest.mark.parametrize(
    "damage, cause",
    [("truncated", EOFError), ("corrupt", zlib.error), ("header", gzip.BadGzipFile)],
)
def test_read_lines_names_a_damaged_gz_file(tmp_path, damage, cause):
    # Both readers share one block reader.  A whole gzip member of more than
    # one block comes first, so the damage lies past the first block, which
    # is read and yielded before the error.
    data = b"".join(b'<http://f/%d> <http://x/p> "v %d" .\n' % (i, i * 7919 % 1000)
                    for i in range(400))
    path = tmp_path / "kb.nt.gz"
    path.write_bytes(gzip.compress(data, mtime=0) + damage_gz(data, damage))
    message = f"^{re.escape(str(path))}: damaged gzip data: "
    # read_lines yields a line at a time, iter_triple_bytes a block of triples.
    for reader, count in ((read_lines, lambda _: 1), (iter_triple_bytes, lambda b: len(b[0]))):
        report = ParseReport()
        yielded = 0
        with pytest.raises(FlatlinkError, match=message) as info:
            for got in reader(path, report):
                yielded += count(got)
        assert type(info.value.__cause__) is cause
        assert yielded == report.lines_total == data[: 1 << 13].count(b"\n")


def _count_calls(monkeypatch, *names: str) -> dict[str, int]:
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, _name=name, _real=getattr(rdf_ingest, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(rdf_ingest, name, counting)
    return calls


def _escape(line: bytes) -> bytes:
    """A criterion-8 line with a UCHAR in each object URI and a UCHAR and an
    ECHAR in each name literal, so that every line holds a backslash."""
    return line.replace(b"/obj.org/", b"/obj.org\\u002F").replace(b'"name ', b'"na\\u006De\\t')


def test_only_missed_or_undecodable_lines_reach_the_character_parser(tmp_path, monkeypatch):
    # Files of 4 blocks, clean and escaped, LF and CR LF ended, are cut by
    # the block regexes alone, and a clean block by one comprehension, never
    # line by line (_cut_lines).  A malformed line and a line whose decoding
    # fails, both in the second block, reach the character parser, and only
    # they.
    calls = _count_calls(monkeypatch, "parse_ntriples_line", "_cut_lines")
    clean = criterion8_lines(50)
    bad = [b"garbage", b"<http://x/a> <http://x/p> <http://x/\\uD800> ."]
    path = tmp_path / "kb.nt"
    for lines, escaped in ((clean, False), ([_escape(line) for line in clean], True)):
        for ending in (b"\n", b"\r\n"):
            path.write_bytes(b"".join(line + ending for line in lines))
            assert path.stat().st_size > 3 << 13
            blocks = sum(1 for _ in rdf_ingest._blocks(path))
            report = ParseReport()
            assert len(numbered_triples(iter_triple_bytes(path, report))) == report.triples_ok
            assert report.triples_ok == len(lines)
            assert calls == {"parse_ntriples_line": 0, "_cut_lines": blocks if escaped else 0}
            calls.update(dict.fromkeys(calls, 0))

            path.write_bytes(b"".join(line + ending for line in lines[:200] + bad + lines[200:]))
            blocks = sum(1 for _ in rdf_ingest._blocks(path))
            report = ParseReport()
            assert len(numbered_triples(iter_triple_bytes(path, report))) == len(lines)
            # The bad lines give the second block a backslash.
            assert calls == {"parse_ntriples_line": 2, "_cut_lines": blocks if escaped else 1}
            assert report.first_errors == [
                (201, "expected <uri> for subject"),
                (202, "\\u escape is a surrogate code point"),
            ]
            calls.update(dict.fromkeys(calls, 0))


def test_iter_triple_bytes_holds_one_block_at_a_time(tmp_path):
    # Clean LF lines, escaped CR LF lines, which each block first rejoins
    # with LFs, and clean lines that end in a lone CR, which a reader that
    # cut blocks only at LF would read whole.
    path = tmp_path / "kb.nt"
    lines = criterion8_lines(3500)
    for data in (b"".join(line + b"\n" for line in lines),
                 b"".join(_escape(line) + b"\r\n" for line in lines),
                 b"".join(line + b"\r" for line in lines)):
        path.write_bytes(data)
        assert path.stat().st_size > 2_000_000
        tracemalloc.start()
        try:
            count = sum(len(triples) for triples, _ in iter_triple_bytes(path, ParseReport()))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 35_350
        assert peak < 512 << 10


def test_read_lines_holds_one_block_at_a_time(tmp_path):
    # Ground-truth rows that end in a lone CR: the blocks are cut at CR as
    # at LF, so the reader holds one block, not the file.
    path = tmp_path / "gt.tsv"
    path.write_bytes(b"".join(b"http://f/%07d\thttp://d/%07d\r" % (i, i * 7919 % 10**7)
                              for i in range(100_000)))
    assert path.stat().st_size > 2_800_000
    tracemalloc.start()
    try:
        count = sum(1 for _ in read_lines(path, ParseReport()))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 100_000
    assert peak < 512 << 10


def test_read_lines_checks_utf8_without_a_str_of_the_block(tmp_path):
    # Every line holds one 4-byte UTF-8 character, so no block is ASCII and
    # each is checked as UTF-8; a check that decoded a block whole would
    # make a str of 4 bytes a character.  Against an ASCII file of the same
    # lines and sizes, the peak stays within a few slices.
    peaks = {}
    for name, char in (("ascii", "wxyz"), ("utf8", "\U0001F600")):
        path = tmp_path / f"{name}.tsv"
        path.write_text("".join(f"http://a/{i}\thttp://b/{i}{char}\n" for i in range(12_000)),
                        encoding="utf-8")
        assert path.stat().st_size > 300_000
        tracemalloc.start()
        try:
            count = sum(1 for _ in read_lines(path, ParseReport()))
            _, peaks[name] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == 12_000
    assert peaks["utf8"] - peaks["ascii"] < 4 << 10


class _CountingSplits(bytes):
    """A part whose split() counts its calls."""

    splits = 0

    def split(self, *args):
        type(self).splits += 1
        return super().split(*args)


def test_cut_lines_splits_a_part_at_most_once():
    # Each matched line whose decoding fails is cut from the part; the part
    # is split on the first such line only, not again for each.
    bad = b'<http://x/s> <http://x/p> "v\\uD800" .'
    good = b'<http://x/s> <http://x/p> "v\\u00E9" .'
    part = _CountingSplits(b"\n".join([bad, good, bad, bad, good, bad]) + b"\n")
    rows = rdf_ingest._ESCAPED_LINES.findall(part, 0, len(part) - 1)
    report = ParseReport()
    triples, numbers = rdf_ingest._cut_lines(part, rows, 10, report)
    assert _CountingSplits.splits == 1
    assert numbers == [12, 15]
    assert triples == [(b"http://x/s", b"http://x/p", "Lvé".encode())] * 2
    assert report.first_errors == [
        (line_no, "\\u escape is a surrogate code point") for line_no in (11, 13, 14, 16)
    ]
    _CountingSplits.splits = 0
    rdf_ingest._cut_lines(_CountingSplits(good + b"\n"), rows[1:2], 0, ParseReport())
    assert _CountingSplits.splits == 0
