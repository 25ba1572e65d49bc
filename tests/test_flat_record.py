import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatlink.errors import FlatRecordError
from flatlink.flat_record import (
    EntityRecord,
    escape_token,
    escape_token_bytes,
    parse_record,
    record_from_triples,
    record_line_bytes,
    record_ok,
    serialize_record,
    unescape_token,
)
from flatlink.rdf_ingest import LITERAL, URI, ObjectValue, Triple

TAB = "\t"


def test_escape_examples():
    assert escape_token("abc") == "abc"
    assert escape_token("a\tb") == "a\\tb"
    assert escape_token("a\nb") == "a\\nb"
    assert escape_token("a\\b") == "a\\\\b"
    assert escape_token("dbpedia-instance") == "\\sdbpedia-instance"


def test_escape_guards_literal_lookalikes():
    assert escape_token('""x""') == '\\s""x""'
    assert escape_token('""') == '\\s""'
    assert escape_token('"x"') == '"x"'


def test_unescape_errors():
    with pytest.raises(FlatRecordError):
        unescape_token("dangling\\")
    with pytest.raises(FlatRecordError):
        unescape_token("bad\\q")


def reference_unescape_token(token: str) -> str:
    """The character loop that unescape_token's one re.sub replaced."""
    if "\\" not in token:
        return token
    out: list[str] = []
    i = 0
    n = len(token)
    while i < n:
        c = token[i]
        if c != "\\":
            out.append(c)
            i += 1
            continue
        if i + 1 >= n:
            raise FlatRecordError("dangling escape at end of token")
        nxt = token[i + 1]
        if nxt == "\\":
            out.append("\\")
        elif nxt == "t":
            out.append("\t")
        elif nxt == "n":
            out.append("\n")
        elif nxt == "r":
            out.append("\r")
        elif nxt == "s":
            pass
        else:
            raise FlatRecordError(f"unknown escape code \\{nxt}")
        i += 2
    return "".join(out)


def outcome(fn, arg):
    """A return value, or the type and message of what was raised."""
    try:
        return fn(arg)
    except Exception as exc:
        return type(exc), str(exc)


# Every escape code, codes left bare, line breaks that `.` without DOTALL
# or $ treat specially, NUL, quotes and sentinel pieces.
escaped_pieces = st.sampled_from(
    [
        "\\", "\\\\", "\\t", "\\n", "\\r", "\\s", "\\q", "\\T", "t", "n", "s",
        "\t", "\n", "\r", "\x85", "\u2028", "\x00", '"', '""',
        "-instance", "dbpedia", "x", "\u00e9",
    ]
)
escaped_tokens = st.one_of(
    st.lists(escaped_pieces, max_size=16).map("".join),
    st.text(alphabet="\\tnrsq\n\x85", max_size=30),
)


@settings(max_examples=1500)
@given(escaped_tokens)
def test_unescape_token_matches_character_loop(token):
    assert outcome(unescape_token, token) == outcome(reference_unescape_token, token)


@pytest.mark.parametrize(
    "token, expected",
    [
        ("dangling\\", "dangling escape at end of token"),
        ("\\", "dangling escape at end of token"),
        ("\\\\\\", "dangling escape at end of token"),
        ("bad\\q", "unknown escape code \\q"),
        ("\\q\\", "unknown escape code \\q"),  # the first bad escape decides
        ("a\\\n", "unknown escape code \\\n"),
        ("\\\\\\t\\s\\n\\r", "\\\t\n\r"),
        ("\\sdbpedia-instance", "dbpedia-instance"),
    ],
)
def test_unescape_token_rows(token, expected):
    # expected: the unescaped token, or the FlatRecordError message
    got = outcome(unescape_token, token)
    assert got == outcome(reference_unescape_token, token)
    assert got in (expected, (FlatRecordError, expected))


# Tokens that attack every special case of the codec.
nasty_tokens = st.sampled_from(
    [
        "dbpedia-instance",
        "freebase-instance",
        "my-kb.2-instance",
        "-instance",
        "X-instance",
        '""32""',
        '""',
        '"""',
        '""""',
        '""x',
        'x""',
        "\\s",
        "\\",
        "a\tb",
        "a\nb\rc",
        "",
    ]
)
tokens = st.one_of(st.text(max_size=30), nasty_tokens)


@given(tokens)
def test_escape_round_trip(raw):
    escaped = escape_token(raw)
    assert "\t" not in escaped and "\n" not in escaped and "\r" not in escaped
    assert unescape_token(escaped) == raw


@given(tokens)
def test_bytes_escape_equals_str_escape(raw):
    assert escape_token_bytes(raw.encode("utf-8")) == escape_token(raw).encode("utf-8")


@pytest.mark.parametrize(
    "raw, escaped",
    [
        ("x-instancey", "x-instancey"),  # ends past the suffix
        ("x-instance", "\\sx-instance"),  # the sentinel shape
        ("X-instance", "X-instance"),  # the suffix, but no label
        ("a\tb-instance", "a\\tb-instance"),  # escaped, so no label
        ('""x', '\\s""x'),
        ('x""', 'x""'),
        ("\u00e9\\\r", "\u00e9\\\\\\r"),
    ],
)
def test_escape_token_bytes_rows(raw, escaped):
    assert escape_token(raw) == escaped
    assert escape_token_bytes(raw.encode("utf-8")) == escaped.encode("utf-8")


@given(tokens)
def test_escaped_tokens_never_look_reserved(raw):
    escaped = escape_token(raw)
    from flatlink.flat_record import SENTINEL_SHAPE

    assert SENTINEL_SHAPE.fullmatch(escaped) is None
    # a bare escaped token can never mimic the literal wrapper
    assert not escaped.startswith('""')


def test_serialize_examples():
    rec = EntityRecord(":e1", {":p": [ObjectValue(URI, ":v1")]})
    assert serialize_record(rec) == f":e1{TAB}:p{TAB}:v1"

    rec = EntityRecord(":e2", {":age": [ObjectValue(LITERAL, "32")]})
    assert serialize_record(rec) == f':e2{TAB}:age{TAB}""32""'

    rec = EntityRecord(
        ":e3", {":hasBrother": [ObjectValue(URI, ":b1"), ObjectValue(URI, ":b2")]}
    )
    line = serialize_record(rec)
    assert line == f":e3{TAB}:hasBrother{TAB}:b1{TAB}:hasBrother{TAB}:b2"
    # the two-element value list must survive a parse
    assert parse_record(line) == rec


def test_serialize_token_count_is_odd():
    rec = EntityRecord(
        ":e",
        {
            ":p": [ObjectValue(URI, ":a"), ObjectValue(URI, ":b")],
            ":q": [ObjectValue(LITERAL, "x")],
        },
    )
    line = serialize_record(rec)
    tokens = line.split(TAB)
    assert len(tokens) == 1 + 2 * 3
    assert "\n" not in line


def test_parse_inverse_of_serialize_simple():
    rec = parse_record(f":e1{TAB}:p{TAB}:v1")
    assert rec == EntityRecord(":e1", {":p": [ObjectValue(URI, ":v1")]})


@pytest.mark.parametrize(
    "line,reason",
    [
        (f":e1{TAB}:p", "even"),
        (":e1", "no properties"),
        (f"{TAB}:p{TAB}:v", "empty record URI"),
        (f":e1{TAB}{TAB}:v", "empty key"),
    ],
)
def test_parse_errors(line, reason):
    with pytest.raises(FlatRecordError) as exc:
        parse_record(line)
    assert reason.split()[0] in str(exc.value)


@pytest.mark.parametrize(
    "line,bad",
    [
        (f'""x{TAB}:p{TAB}:v', '""x'),
        (f':e{TAB}""p{TAB}:v', '""p'),
        (f':e{TAB}:p{TAB}""broken', '""broken'),
        (f':e{TAB}:p{TAB}""', '""'),
        (f':e{TAB}:p{TAB}"""', '"""'),
        (f':e{TAB}:p{TAB}:v{TAB}:q{TAB}""v"', '""v"'),
    ],
    ids=["uri", "key", "value", "bare-quotes", "three-quotes", "later-value"],
)
def test_parse_rejects_unbalanced_literal_wrapper(line, bad):
    # The escape guard keeps every token but a whole wrapper from starting
    # with two double quotes, in any position.
    with pytest.raises(FlatRecordError) as exc:
        parse_record(line)
    assert str(exc.value) == f"unbalanced literal quotes in token {bad!r}"


def test_parse_accepts_whole_wrappers_in_every_position():
    rec = parse_record(f'""e""{TAB}""p""{TAB}""""{TAB}""p""{TAB}""v""')
    assert rec == EntityRecord('""e""', {'""p""': [ObjectValue(LITERAL, ""), ObjectValue(LITERAL, "v")]})


def test_nonadjacent_repeated_keys_aggregate():
    line = f":e{TAB}:p{TAB}:a{TAB}:q{TAB}:x{TAB}:p{TAB}:b"
    rec = parse_record(line)
    assert rec.properties == {
        ":p": [ObjectValue(URI, ":a"), ObjectValue(URI, ":b")],
        ":q": [ObjectValue(URI, ":x")],
    }


def test_record_from_triples_basics():
    t = Triple(":s", ":p", ObjectValue(URI, ":o"))
    rec = record_from_triples(":s", [t])
    assert rec == EntityRecord(":s", {":p": [ObjectValue(URI, ":o")]})

    # exact duplicates collapse
    rec = record_from_triples(":s", [t, t])
    assert rec.properties == {":p": [ObjectValue(URI, ":o")]}

    # keys come out lexicographically ordered
    rec = record_from_triples(
        ":s",
        [
            Triple(":s", ":p2", ObjectValue(URI, ":a")),
            Triple(":s", ":p1", ObjectValue(URI, ":b")),
        ],
    )
    assert list(rec.properties) == [":p1", ":p2"]


def test_record_from_triples_duplicate_semantics(rng):
    # oracle: RDF set semantics computed on the raw (s, p, o) set
    triples = [
        Triple(":s", ":p", ObjectValue(URI, f":o{rng.randrange(5)}"))
        for _ in range(50)
    ]
    rec = record_from_triples(":s", triples)
    expected = {(t.predicate, t.object) for t in triples}
    got = {(p, v) for p, values in rec.properties.items() for v in values}
    assert got == expected
    # first-occurrence order within the key
    firsts = []
    seen = set()
    for t in triples:
        if t.object not in seen:
            seen.add(t.object)
            firsts.append(t.object)
    assert rec.properties[":p"] == firsts


def test_record_from_triples_errors():
    with pytest.raises(FlatRecordError):
        record_from_triples(":s", [])
    with pytest.raises(FlatRecordError):
        record_from_triples(":s", [Triple(":other", ":p", ObjectValue(URI, ":o"))])


values = st.one_of(
    st.builds(ObjectValue, st.just(URI), tokens),
    st.builds(ObjectValue, st.just(LITERAL), tokens),
)


def _dedup(vals: list[ObjectValue]) -> list[ObjectValue]:
    seen = set()
    out = []
    for v in vals:
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


records = st.builds(
    EntityRecord,
    uri=st.one_of(st.text(min_size=1, max_size=20), nasty_tokens.filter(bool)),
    properties=st.dictionaries(
        keys=st.one_of(st.text(min_size=1, max_size=15), nasty_tokens.filter(bool)),
        values=st.lists(values, min_size=1, max_size=4).map(_dedup),
        min_size=1,
        max_size=5,
    ),
)


@settings(max_examples=300)
@given(records)
# A lone LF or CR is the only byte that makes these records need escaping.
@example(EntityRecord("u", {"p": [ObjectValue(LITERAL, "a\nb")]}))
@example(EntityRecord("u", {"p": [ObjectValue(URI, "a\rb")]}))
# A NUL, a quote pair or a sentinel suffix sends the record a token at a time.
@example(EntityRecord("u\x00", {"p": [ObjectValue(LITERAL, "a\tb")]}))
@example(EntityRecord("u", {"p": [ObjectValue(LITERAL, '""\\')]}))
@example(EntityRecord("u", {"a-instance": [ObjectValue(URI, "\n")]}))
def test_record_line_bytes_equals_serialize_record(rec):
    tokens = [rec.uri.encode("utf-8")]
    literals = []
    for key, values in rec.properties.items():
        for value in values:
            if value.kind == LITERAL:
                literals.append(len(tokens) + 1)
            tokens += [key.encode("utf-8"), value.lexical.encode("utf-8")]
    assert record_line_bytes(tokens, literals) == serialize_record(rec).encode("utf-8")


@settings(max_examples=300)
@given(records)
def test_record_round_trip(rec):
    line = serialize_record(rec)
    assert "\n" not in line and "\r" not in line
    assert parse_record(line) == rec


@settings(max_examples=200)
@given(records)
def test_information_set_equivalence(rec):
    # flattening and regrouping reproduces the same (s, p, o) set
    triples = [Triple(rec.uri, k, v) for k, values in rec.properties.items() for v in values]
    rebuilt = record_from_triples(rec.uri, triples)
    assert {(k, v) for k, values in rebuilt.properties.items() for v in values} == {
        (t.predicate, t.object) for t in triples
    }


def test_self_containment_single_line():
    # a record line parses with no context: serialize two records and parse
    # each independently after shuffling
    r1 = EntityRecord(":a", {":p": [ObjectValue(URI, ":x")]})
    r2 = EntityRecord(":b", {":q": [ObjectValue(LITERAL, "l")]})
    lines = [serialize_record(r1), serialize_record(r2)]
    assert parse_record(lines[1]) == r2
    assert parse_record(lines[0]) == r1



# --- the quick record check ---------------------------------------------------

def record_via_tokens(line: str) -> EntityRecord:
    """parse_record's record, rebuilt from the tokens of a line that
    record_ok clears; a line it cannot clear gets parse_record's own
    verdict."""
    if not record_ok(line):
        return parse_record(line)
    tokens = line.split(TAB)
    properties: dict[str, list[ObjectValue]] = {}
    for key, value in zip(tokens[1::2], tokens[2::2]):
        if value.startswith('""'):
            obj = ObjectValue(LITERAL, unescape_token(value[2:-2]))
        else:
            obj = ObjectValue(URI, unescape_token(value))
        properties.setdefault(unescape_token(key), []).append(obj)
    return EntityRecord(unescape_token(tokens[0]), properties)


# Tabs, backslashes, the escape letters and a bad one, quote runs, a raw line
# break, a non-ASCII letter and whole guards.
record_pieces = st.sampled_from(
    [TAB, TAB, TAB, "\\", "\\\\", "\\s", "s", "t", "n", "r", "q", '"', '""', '"""',
     '""""', "\n", "é", "x"]
)
record_lines = st.one_of(
    st.lists(record_pieces, max_size=30).map("".join),
    records.map(serialize_record),
)


@settings(max_examples=1500)
@given(record_lines)
def test_record_ok_agrees_with_parse_record(line):
    assert outcome(record_via_tokens, line) == outcome(parse_record, line)
    # The judge clears only lines that parse_record accepts.
    if record_ok(line):
        assert isinstance(parse_record(line), EntityRecord)


Q3 = '"""'


@pytest.mark.parametrize(
    "line, cleared, reason",
    [
        (f"u\\{TAB}k{TAB}v", False, "dangling escape at end of token"),  # \ before TAB
        (f"u{TAB}k{TAB}v\\", False, "dangling escape at end of token"),
        (f"u{TAB}k{TAB}back\\\\slash", True, None),  # \\s is no guard
        (f"\\s{TAB}k{TAB}v", False, "empty record URI"),
        (f"\\s\\s{TAB}k{TAB}v", False, "empty record URI"),
        (f"u{TAB}\\s{TAB}v", False, "empty key at token 1"),
        (f"u{TAB}k{TAB}v{TAB}\\s\\s{TAB}v", False, "empty key at token 3"),
        (f"u{TAB}k{TAB}\\s", False, None),
        (f"u{TAB}k{TAB}\\s\\s", False, None),
        (f"\\su{TAB}k\\s{TAB}v", False, None),
        (f'u{TAB}k{TAB}""""', True, None),
        (f'""u""{TAB}""k""{TAB}""v""', False, None),
        (f'u{TAB}k{TAB}"""""', True, None),
        (f"{Q3}{TAB}k{TAB}v", False, f"unbalanced literal quotes in token {Q3!r}"),
        (f"u{TAB}{Q3}{TAB}v", False, f"unbalanced literal quotes in token {Q3!r}"),
        (f"u{TAB}k{TAB}{Q3}", False, f"unbalanced literal quotes in token {Q3!r}"),
        # A URI that opens with one quote, and an empty value.
        (f'"u{TAB}k{TAB}v', False, None),
        (f"u{TAB}k{TAB}{TAB}k{TAB}v", False, None),
        # Token counts, which the judge reads as the tabs plus one.
        ("u", False, "record has no properties"),
        (f"u{TAB}k", False, "even token count (2)"),
        (f"u{TAB}k{TAB}v{TAB}k", False, "even token count (4)"),
        (f"u{TAB}k{TAB}v{TAB}k{TAB}w", True, None),
    ],
)
def test_record_tokens_rows(line, cleared, reason):
    # cleared: whether the quick check alone accepts the line; reason: the
    # FlatRecordError message, or None where parse_record accepts the line.
    assert record_ok(line) == cleared
    got = outcome(record_via_tokens, line)
    assert got == outcome(parse_record, line)
    if reason is None:
        assert isinstance(got, EntityRecord)
    else:
        assert got == (FlatRecordError, reason)
