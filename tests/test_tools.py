import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flatlink.errors import FlatlinkError
from flatlink.flat_record import EntityRecord, parse_record, serialize_record
from flatlink.link_join import parse_link_line
from flatlink.rdf_ingest import LITERAL, URI, ObjectValue
from flatlink.tools import (
    RDF_TYPE,
    FilterReport,
    SampleSpec,
    TypeFilterSpec,
    filter_by_type,
    sample_lines,
    stats,
    validate,
)


def write_lines(path, lines):
    with open(path, "wb") as fh:
        for line in lines:
            fh.write(line if isinstance(line, bytes) else line.encode("utf-8"))
            fh.write(b"\n")


def read_binary_lines(path):
    with open(path, "rb") as fh:
        return fh.read().splitlines(keepends=True)


# --- sampling ---------------------------------------------------------------

def reference_reservoir(lines: list[bytes], n: int, seed: int) -> list[bytes]:
    """Independent Algorithm R over the documented generator."""
    rng = random.Random(seed)
    reservoir: list[tuple[int, bytes]] = []
    for i, line in enumerate(lines):
        if i < n:
            reservoir.append((i, line))
        else:
            j = rng.randrange(i + 1)
            if j < n:
                reservoir[j] = (i, line)
    return [line for _, line in sorted(reservoir)]


def test_sample_zero(tmp_path):
    src = tmp_path / "in"
    write_lines(src, [f"line{i}" for i in range(10)])
    out = tmp_path / "out"
    assert sample_lines(str(src), SampleSpec(0, 42), str(out)) == 0
    assert out.read_bytes() == b""


def test_sample_n_exceeds_population(tmp_path):
    src = tmp_path / "in"
    write_lines(src, [f"line{i}" for i in range(10)])
    out = tmp_path / "out"
    assert sample_lines(str(src), SampleSpec(100, 42), str(out)) == 10
    assert out.read_bytes() == src.read_bytes()


def test_sample_matches_reference_on_fixture(tmp_path):
    src = tmp_path / "in"
    lines = [f"fixture line {i}" for i in range(10)]
    write_lines(src, lines)
    out = tmp_path / "out"
    written = sample_lines(str(src), SampleSpec(2, 42), str(out))
    assert written == 2
    expected = reference_reservoir(
        [l.encode() + b"\n" for l in lines], 2, 42
    )
    assert read_binary_lines(out) == expected


def test_sample_deterministic_and_order_preserving(tmp_path, rng):
    src = tmp_path / "in"
    lines = [f"line {i} {rng.random()}" for i in range(5000)]
    write_lines(src, lines)
    out1 = tmp_path / "out1"
    out2 = tmp_path / "out2"
    sample_lines(str(src), SampleSpec(100, 7), str(out1))
    sample_lines(str(src), SampleSpec(100, 7), str(out2))
    assert out1.read_bytes() == out2.read_bytes()

    sampled = [l.decode().rstrip("\n") for l in read_binary_lines(out1)]
    positions = [lines.index(s) for s in sampled]
    assert positions == sorted(positions)
    assert len(set(positions)) == 100
    # matches the reference implementation over the whole file
    assert read_binary_lines(out1) == reference_reservoir(
        [l.encode() + b"\n" for l in lines], 100, 7
    )


def test_sample_negative_rejected(tmp_path):
    with pytest.raises(FlatlinkError):
        sample_lines("x", SampleSpec(-1, 0), "y")


# --- type filter -------------------------------------------------------------

FOOT = "http://x.org/t/FootballPlayer"
BAND = "http://x.org/t/Band"


def entity_line(uri, type_uri=None, **props):
    properties = {}
    if type_uri:
        properties[RDF_TYPE] = [ObjectValue(URI, type_uri)]
    for k, vs in props.items():
        properties[k] = [ObjectValue(LITERAL, v) for v in vs]
    return serialize_record(EntityRecord(uri, properties))


def link2_line(n, left, right):
    return f"fd-{n}\tfreebase-instance\t{left}\tdbpedia-instance\t{right}"


def test_filter_entity_kept_and_dropped(tmp_path):
    src = tmp_path / "in"
    keep = entity_line("http://x/1", FOOT, name=["a"])
    drop = entity_line("http://x/2", BAND, name=["b"])
    write_lines(src, [keep, drop])
    out = tmp_path / "out"
    kept = filter_by_type(str(src), TypeFilterSpec(FOOT), str(out), "entity")
    assert kept == 1
    assert read_binary_lines(out) == [keep.encode() + b"\n"]


def test_filter_all_side_drops_half_matches(tmp_path):
    src = tmp_path / "in"
    left = entity_line("http://f/1", FOOT)
    right = entity_line("http://d/1", BAND)
    write_lines(src, [link2_line(1, left, right)])
    out = tmp_path / "out"
    assert filter_by_type(str(src), TypeFilterSpec(FOOT, side="all"), str(out), "link2") == 0
    assert filter_by_type(str(src), TypeFilterSpec(FOOT, side="any"), str(out), "link2") == 1
    assert filter_by_type(str(src), TypeFilterSpec(FOOT, side="first"), str(out), "link2") == 1
    assert filter_by_type(str(src), TypeFilterSpec(FOOT, side="second"), str(out), "link2") == 0


def test_filter_side_arity_validation(tmp_path):
    with pytest.raises(FlatlinkError):
        filter_by_type("x", TypeFilterSpec(FOOT, side="third"), "y", "link2")
    with pytest.raises(FlatlinkError):
        filter_by_type("x", TypeFilterSpec(FOOT, side="second"), "y", "entity")


def brute_force_filter(lines, spec, mode):
    """Full parse of every record on every line; the independent oracle."""
    from flatlink.flat_record import parse_record
    from flatlink.link_join import parse_link_line

    kept = []
    for line in lines:
        if mode == "entity":
            records = [parse_record(line)]
        else:
            records = [parse_record(slot) for _, slot in parse_link_line(line).groups]
        hit = [
            any(
                v.kind == URI and v.lexical == spec.type_uri
                for v in r.properties.get(spec.type_predicate, [])
            )
            for r in records
        ]
        if spec.side == "any":
            ok = any(hit)
        elif spec.side == "all":
            ok = all(hit)
        else:
            ok = hit[{"first": 0, "second": 1, "third": 2}[spec.side]]
        if ok:
            kept.append(line)
    return kept


@pytest.mark.parametrize("side", ["first", "second", "any", "all"])
def test_filter_matches_brute_force(tmp_path, rng, side):
    lines = []
    for i in range(1000):
        left = entity_line(f"http://f/{i}", rng.choice([FOOT, BAND, None]), name=["x"])
        right = entity_line(f"http://d/{i}", rng.choice([FOOT, BAND, None]), age=["1"])
        lines.append(link2_line(i + 1, left, right))
    src = tmp_path / "in"
    write_lines(src, lines)
    out = tmp_path / "out"
    spec = TypeFilterSpec(FOOT, side=side)
    kept = filter_by_type(str(src), spec, str(out), "link2")
    expected = brute_force_filter(lines, spec, "link2")
    got = [l.decode().rstrip("\n") for l in read_binary_lines(out)]
    assert got == expected
    assert kept == len(expected)


def test_filter_skips_unparseable(tmp_path):
    src = tmp_path / "in"
    write_lines(src, ["garbage line with no tabs", entity_line("http://x/1", FOOT)])
    out = tmp_path / "out"
    kept = filter_by_type(str(src), TypeFilterSpec(FOOT), str(out), "entity")
    assert kept == 1


# --- stats -------------------------------------------------------------------

def test_stats_empty_file(tmp_path):
    src = tmp_path / "empty"
    src.write_bytes(b"")
    report = stats(str(src), "entity")
    assert report.lines == 0
    assert report.bytes == 0


def test_stats_counts_lines_and_bytes(tmp_path):
    src = tmp_path / "in"
    write_lines(src, [entity_line(f"http://x/{i}", FOOT) for i in range(3)])
    report = stats(str(src), "entity")
    assert report.lines == 3
    assert report.bytes == src.stat().st_size
    assert report.slot_entities == [3]


def test_stats_histogram_matches_recount(tmp_path, rng):
    lines = []
    counts = {FOOT: 0, BAND: 0}
    for i in range(500):
        t = rng.choice([FOOT, BAND, None])
        if t:
            counts[t] += 1
        lines.append(entity_line(f"http://x/{i}", t, name=["n"]))
    src = tmp_path / "in"
    write_lines(src, lines)
    report = stats(str(src), "entity", top_k=5)
    got = dict(report.top_types)
    assert got == {k: v for k, v in counts.items() if v}


def test_stats_link2_slots(tmp_path):
    src = tmp_path / "in"
    left = entity_line("http://f/1", FOOT)
    write_lines(src, [
        link2_line(1, left, entity_line("http://d/1", BAND)),
        link2_line(2, left, entity_line("http://d/2", BAND)),
    ])
    report = stats(str(src), "link2")
    assert report.slot_entities == [1, 2]  # f/1 twice, two distinct d's


# --- validate ----------------------------------------------------------------

def test_validate_clean_fixture(tmp_path):
    src = tmp_path / "in"
    write_lines(src, [
        link2_line(1, entity_line("http://f/1", FOOT), entity_line("http://d/1", BAND)),
        link2_line(2, entity_line("http://f/2", FOOT), entity_line("http://d/2", BAND)),
    ])
    report = validate(str(src), "link2")
    assert report.violation_count == 0
    assert report.ok_lines == 2


def test_validate_even_token_count_names_line(tmp_path):
    src = tmp_path / "in"
    write_lines(src, [entity_line("http://x/1", FOOT), "http://x/2\tkey"])
    report = validate(str(src), "entity")
    assert report.violation_count == 1
    assert report.violations[0][0] == 2
    assert "even" in report.violations[0][1]


def test_validate_duplicate_link_id(tmp_path):
    src = tmp_path / "in"
    line = link2_line(1, entity_line("http://f/1", FOOT), entity_line("http://d/1", BAND))
    write_lines(src, [line, line])
    report = validate(str(src), "link2")
    assert report.violation_count == 1
    assert "duplicate link id" in report.violations[0][1]


def test_validate_control_bytes_flagged(tmp_path):
    # CR is the one control byte the token codec never writes raw; the
    # others, TAB aside, pass through it and are legal record bytes.
    src = tmp_path / "in"
    write_lines(src, [b"http://x/1\tk\tv\x01x", b"http://x/2\tk\tv\rx", b"http://x/3\tk\tv\r"])
    report = validate(str(src), "entity")
    assert report.violations == [(2, "raw control byte 0x0d"), (3, "raw control byte 0x0d")]
    assert report.ok_lines == 1


def test_validate_accepts_compiled_control_characters(tmp_path):
    from flatlink.engine import ExecConfig
    from flatlink.kb_compile import KbSpec, compile_kb

    src = tmp_path / "kb.nt"
    src.write_text(
        '<http://x/a> <http://x/p> "x\\by\\f\\u0000\\u000B\\u001F\x01\x1c end" .\n',
        encoding="utf-8",
    )
    out = tmp_path / "kb.ents"
    report = compile_kb(KbSpec("kb", [str(src)], str(out)), ExecConfig())
    assert report.entities == 1
    assert out.read_bytes() == (
        b'http://x/a\thttp://x/p\t""x\x08y\x0c\x00\x0b\x1f\x01\x1c end""\n'
    )
    assert validate(str(out), "entity").violation_count == 0
    crlf = tmp_path / "crlf.ents"
    crlf.write_bytes(out.read_bytes().replace(b"\n", b"\r\n"))
    assert validate(str(crlf), "entity").violations == [(1, "raw control byte 0x0d")]


def test_validate_unbalanced_literal_quotes(tmp_path):
    src = tmp_path / "in"
    write_lines(src, ['http://x/1\tk\t""broken'])
    report = validate(str(src), "entity")
    assert report.violation_count == 1
    assert "quote" in report.violations[0][1]


def test_validate_fuzzed_corruption_never_crashes(tmp_path, rng):
    from flatlink.flat_record import parse_record

    lines = [
        link2_line(i, entity_line(f"http://f/{i}", FOOT, name=["joan c"]),
                   entity_line(f"http://d/{i}", BAND, age=["32"]))
        for i in range(1, 101)
    ]
    blob = bytearray("\n".join(lines).encode("utf-8"))
    flips = max(1, len(blob) // 100)
    for _ in range(flips):  # corrupt ~1% of bytes
        pos = rng.randrange(len(blob))
        blob[pos] = rng.randrange(256)
    src = tmp_path / "fuzz"
    src.write_bytes(bytes(blob) + b"\n")

    report = validate(str(src), "link2")  # must not raise

    # differential: every line either still parses fully or was flagged
    flagged = {line_no for line_no, _ in report.violations}
    with open(src, "rb") as fh:
        for line_no, raw in enumerate(fh, 1):
            try:
                text = raw.rstrip(b"\n").decode("utf-8")
                from flatlink.link_join import parse_link_line

                parsed = parse_link_line(text)
                assert len(parsed.groups) == 2
                for _, slot in parsed.groups:
                    parse_record(slot)
                still_ok = True
            except Exception:
                still_ok = False
            if not still_ok:
                assert line_no in flagged or report.violation_count > len(report.violations)


def test_validate_mode_checked():
    with pytest.raises(FlatlinkError):
        validate("x", "link9")


@pytest.mark.parametrize("call, message", [
    (lambda out: filter_by_type("absent", TypeFilterSpec(FOOT), out, "link9"),
     "unknown mode 'link9'"),
    (lambda out: filter_by_type("absent", TypeFilterSpec(FOOT, side="left"), out, "link2"),
     "unknown side 'left'"),
    (lambda out: stats("absent", "link9"), "unknown mode 'link9'"),
])
def test_library_calls_refuse_an_unknown_mode_or_side(tmp_path, call, message):
    # The CLI's choices never let these through; a library caller is refused
    # before any file is opened or written.
    with pytest.raises(FlatlinkError) as exc:
        call(str(tmp_path / "out"))
    assert str(exc.value) == message
    assert list(tmp_path.iterdir()) == []


# --- one judge per line -------------------------------------------------------

BAD_TYPED_LINES = {
    "crlf": entity_line("http://x/2", FOOT).encode() + b"\r",
    "unbalanced-quotes": f"http://x/2\t{RDF_TYPE}\t{FOOT}\tk\t\"\"broken".encode(),
}


@pytest.mark.parametrize("case", sorted(BAD_TYPED_LINES))
def test_filter_and_stats_skip_what_validate_flags(tmp_path, case):
    # Both bad lines carry the type, so a tool that parsed them would keep them.
    good = entity_line("http://x/1", FOOT).encode()
    src = tmp_path / "in"
    write_lines(src, [good, BAD_TYPED_LINES[case]])
    assert validate(str(src), "entity").violation_count == 1
    out = tmp_path / "out"
    report = FilterReport()
    assert filter_by_type(str(src), TypeFilterSpec(FOOT), str(out), "entity", report) == 1
    assert (report.lines_read, report.lines_skipped) == (2, 1)
    assert out.read_bytes() == good + b"\n"
    assert validate(str(out), "entity").violation_count == 0
    assert stats(str(src), "entity").unparseable == 1


@pytest.mark.parametrize("mode,link_id,reason", [
    ("link2", "fd 1", "bad link id: 'fd 1' holds a control or space character"),
    ("link3", "fd-1,yd\x011", "bad link id: 'fd-1,yd\\x011' holds a control or space character"),
    ("link2", '""fd-1', "bad link id: '\"\"fd-1' opens a literal wrapper"),
    ("link2", "fd,1", "bad link id: 'fd,1' holds a comma"),
])
def test_validate_applies_join3_link_id_rule(tmp_path, mode, link_id, reason):
    rec = entity_line("http://f/1", FOOT)
    groups = 2 if mode == "link2" else 3
    line = link_id + "".join(f"\t{kb}-instance\t{rec}" for kb in ("a", "b", "c")[:groups])
    src = tmp_path / "in"
    write_lines(src, [line])
    assert validate(str(src), mode).violations == [(1, reason)]
    assert stats(str(src), mode).unparseable == 1


def test_filter_out_may_name_its_input(tmp_path):
    src = tmp_path / "in"
    keep = entity_line("http://x/1", FOOT)
    write_lines(src, [keep, entity_line("http://x/2", BAND)])
    assert filter_by_type(str(src), TypeFilterSpec(FOOT), str(src), "entity") == 1
    assert src.read_bytes() == keep.encode() + b"\n"
    assert [p.name for p in tmp_path.iterdir()] == ["in"]


def test_sample_out_may_name_its_input(tmp_path):
    src = tmp_path / "in"
    lines = [f"line{i}" for i in range(10)]
    write_lines(src, lines)
    assert sample_lines(str(src), SampleSpec(3, 42), str(src)) == 3
    assert read_binary_lines(src) == reference_reservoir(
        [l.encode() + b"\n" for l in lines], 3, 42
    )


# Lines built from serialized records, then given at most one defect each.
_TEXT = st.text(alphabet='ab "\\\t\né-', min_size=1, max_size=6)
_RECORDS = st.builds(
    lambda uri, props, typed: EntityRecord(
        "http://x/" + uri,
        {**({RDF_TYPE: [ObjectValue(URI, FOOT)]} if typed else {}), **props},
    ),
    _TEXT,
    st.dictionaries(
        _TEXT,
        st.lists(st.builds(ObjectValue, st.sampled_from([URI, LITERAL]), _TEXT),
                 min_size=1, max_size=2),
        min_size=1, max_size=2,
    ),
    st.booleans(),
)
_MUTATIONS = (
    None, "cr", "utf8", "quote-uri", "quote-key", "quote-value", "quote-id",
    "backslash", "drop-tab", "space-id", "comma-id",
)
_ROWS = st.lists(
    st.tuples(
        st.sampled_from(["ab-1", "ab-2", "ab-3"]),
        st.lists(_RECORDS, min_size=3, max_size=3),
        st.sampled_from(_MUTATIONS),
        st.integers(min_value=0, max_value=10**6),
    ),
    min_size=1, max_size=8,
)


def _mutated_line(mode, link_id, records, mutation, at):
    """One line's bytes, with `mutation` applied at a spot picked by `at`."""
    groups = {"entity": 0, "link2": 2, "link3": 3}[mode]
    tokens, roles = [], []
    if groups:
        tokens.append(link_id if mode == "link2" else f"{link_id},cd-{at % 3}")
        roles.append("id")
    for label, rec in zip("abc", records[: groups or 1]):
        if groups:
            tokens.append(f"{label}-instance")
            roles.append("sentinel")
        record_tokens = serialize_record(rec).split("\t")
        tokens += record_tokens
        roles += ["uri"] + ["key", "value"] * (len(record_tokens) // 2)
    if mutation and mutation.startswith("quote-"):
        spots = [i for i, r in enumerate(roles) if r == mutation[len("quote-"):]]
        if spots:
            i = spots[at % len(spots)]
            tokens[i] = '""' + tokens[i]
    elif mutation in ("space-id", "comma-id") and groups:
        tokens[0] = tokens[0].replace("-", " " if mutation == "space-id" else ",", 1)
    text = "\t".join(tokens)
    if mutation == "drop-tab":
        tabs = [i for i, c in enumerate(text) if c == "\t"]
        i = tabs[at % len(tabs)]
        text = text[:i] + text[i + 1 :]
    elif mutation in ("cr", "backslash"):
        i = at % (len(text) + 1)
        text = text[:i] + ("\r" if mutation == "cr" else "\\") + text[i:]
    line = text.encode("utf-8")
    if mutation == "utf8":
        i = at % (len(line) + 1)
        line = line[:i] + b"\xff" + line[i:]
    return line


def _parent_validate(in_path: str, mode: str) -> dict[int, str]:
    """validate as it stood before one function judged each line: a raw CR
    check, the UTF-8 decode, a whole-line quote pass, then the line parse.
    Once the quote pass has passed, parse_record's own wrapper check cannot
    fire, so this copy flags what the old validate did, with its reasons."""
    arity = {"entity": 1, "link2": 2, "link3": 3}
    flagged, seen_ids = {}, set()
    with open(in_path, "rb") as fh:
        for line_no, raw in enumerate(fh, 1):
            stripped = raw.rstrip(b"\n")
            if b"\r" in stripped:
                flagged[line_no] = "raw control byte 0x0d"
                continue
            try:
                line = stripped.decode("utf-8")
            except UnicodeDecodeError as exc:
                flagged[line_no] = f"not UTF-8: {exc.reason}"
                continue
            bad = [
                t for t in line.split("\t")
                if t.startswith('""') and not (len(t) >= 4 and t.endswith('""'))
            ]
            if bad:
                flagged[line_no] = f"unbalanced literal quotes in token {bad[0][:40]!r}"
                continue
            try:
                if mode == "entity":
                    parse_record(line)
                else:
                    parsed = parse_link_line(line)
                    if len(parsed.groups) != arity[mode]:
                        raise FlatlinkError(
                            f"expected {arity[mode]} record groups, found {len(parsed.groups)}"
                        )
                    for _, slot in parsed.groups:
                        parse_record(slot)
            except FlatlinkError as exc:
                flagged[line_no] = str(exc)
                continue
            if mode != "entity":
                link_id = line.split("\t", 1)[0]
                if link_id in seen_ids:
                    flagged[line_no] = f"duplicate link id {link_id!r}"
                    continue
                seen_ids.add(link_id)
    return flagged


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mode=st.sampled_from(["entity", "link2", "link3"]), rows=_ROWS)
def test_tools_agree_on_every_line(tmp_path, mode, rows):
    src = tmp_path / "in"
    src.write_bytes(b"".join(_mutated_line(mode, *row) + b"\n" for row in rows))
    report = validate(str(src), mode)
    assert report.violation_count == len(report.violations)  # under the cap
    flagged = dict(report.violations)
    bad = [n for n, reason in flagged.items() if not reason.startswith("duplicate link id")]
    filtered = FilterReport()
    filter_by_type(str(src), TypeFilterSpec(FOOT), str(tmp_path / "out"), mode, filtered)
    assert stats(str(src), mode).unparseable == filtered.lines_skipped == len(bad)

    # The old validate's flags are a subset, with the same reason on lines
    # whose one defect is a raw CR, a bad byte or an unclosed wrapper in a
    # record; a line it accepted is flagged now only for its link id, and a
    # link id that opens a wrapper breaks the link-id rule.
    parent = _parent_validate(str(src), mode)
    assert set(parent) <= set(flagged)
    for line_no, (_, _, mutation, _) in enumerate(rows, 1):
        if line_no not in parent:
            assert line_no not in flagged or flagged[line_no].startswith("bad link id: ")
        elif mutation == "quote-id":
            reason = flagged[line_no]
            assert reason.startswith("bad link id: ") and reason.endswith(" opens a literal wrapper")
        elif mutation in ("cr", "utf8") or (mutation or "").startswith("quote-"):
            assert flagged[line_no] == parent[line_no]


# Each line's type key and values, as stats counts them and filter-type
# matches them: keys compare after unescaping, literals never count, and
# every occurrence of the key counts, adjacent or not.
TYPE_SPELLINGS = {
    "guarded-key": (f"http://x/1\t\\s{RDF_TYPE}\t{FOOT}", [FOOT]),
    "escaped-key": (f"http://x/1\t{RDF_TYPE[:-4]}\\stype\t{FOOT}", [FOOT]),
    "literal-value": (f'http://x/1\t{RDF_TYPE}\t""{FOOT}""', []),
    "guarded-literal-lookalike": (f'http://x/1\t{RDF_TYPE}\t\\s""{FOOT}""', [f'""{FOOT}""']),
    "nonadjacent-repeats": (
        f'http://x/1\t{RDF_TYPE}\t{FOOT}\thttp://x/name\t""n""\t{RDF_TYPE}\t{BAND}'
        f"\thttp://x/name\t\"\"m\"\"\t{RDF_TYPE}\t{FOOT}",
        [FOOT, BAND, FOOT],
    ),
}


@pytest.mark.parametrize("case", sorted(TYPE_SPELLINGS))
def test_stats_and_filter_read_type_values(tmp_path, case):
    line, types = TYPE_SPELLINGS[case]
    src = tmp_path / "in"
    write_lines(src, [line])
    report = stats(str(src), "entity")
    assert report.unparseable == 0
    assert dict(report.top_types) == {t: types.count(t) for t in types}
    for type_uri in (FOOT, BAND):
        kept = filter_by_type(str(src), TypeFilterSpec(type_uri), str(tmp_path / "out"), "entity")
        assert kept == (type_uri in types)
