"""Seeded input corpora and expected results for the benchmark workloads.

``generate(workload, seed, out_dir, scale)`` writes one workload's input
files into ``out_dir`` and returns its plan: the stage calls to run, in
order, each with the results a correct run must produce.  The expected
results come from the generator's own knowledge of what it wrote (closed-form
counts) and from in-memory oracles that bypass the engine: compile output is
rebuilt with ``record_from_triples`` + ``serialize_record`` and sorted by
subject, and join outputs are rebuilt from the pair lists.  The same
(workload, seed, scale) always writes the same bytes.

This module runs in the orchestrating process, never in the timed one, so
nothing it allocates shows in the timed process's peak RSS.
"""

from __future__ import annotations

import gzip
import hashlib
import random
from dataclasses import dataclass

from flatlink.flat_record import record_from_triples, serialize_record
from flatlink.rdf_ingest import LITERAL, URI, ObjectValue, Triple

WORKLOADS = ("compile-clean", "compile-dirty", "join-spill")

MIB = 1024 * 1024
# Tight sort budgets (bytes) for the spilling workloads; compile-clean keeps
# the engine default so it sorts in memory.
DIRTY_BUDGET = 3 * MIB // 2
JOIN_BUDGET = MIB

# Sizes at scale 1.0, chosen so one round of stages takes one to two
# seconds on a 2-core x86 machine with CPython 3.11.
CLEAN_SUBJECTS = 4000
DIRTY_TRIPLES = 15000
JOIN_ENTITIES = 3500


def generate(workload: str, seed: int, out_dir: str, scale: float = 1.0) -> dict:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    if workload == "compile-clean":
        return _compile_clean(rng, out_dir, scale)
    if workload == "compile-dirty":
        return _compile_dirty(rng, out_dir, scale)
    return _join_spill(rng, out_dir, scale)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_gz(path: str, text: str) -> None:
    # mtime=0 and no stored name keep the gzip bytes a function of the text.
    with open(path, "wb") as raw, gzip.GzipFile("", "wb", 6, raw, mtime=0) as gz:
        gz.write(text.encode("utf-8"))


@dataclass
class _Line:
    text: str
    triple: Triple | None  # None: malformed, comment or blank
    malformed: bool = False


def _compile_call(label: str, files: list[tuple[str, list[_Line]]]) -> dict:
    """The compile call and its oracle; `files` is in the order compile reads them."""
    by_subject: dict[str, list[Triple]] = {}
    lines_total = triples = skipped = 0
    for _, lines in files:
        for line in lines:
            lines_total += 1
            if line.triple is not None:
                triples += 1
                by_subject.setdefault(line.triple.subject, []).append(line.triple)
            elif line.malformed:
                skipped += 1
    text = "".join(
        serialize_record(record_from_triples(s, by_subject[s])) + "\n"
        for s in sorted(by_subject)
    )
    return {
        "stage": "compile",
        "label": label,
        "inputs": [name for name, _ in files],
        "out": f"{label}.ents",
        "work": triples + skipped,
        "expect": {
            "sha256": _sha256(text.encode("utf-8")),
            "entities": len(by_subject),
            "lines_total": lines_total,
            "triples": triples,
            "skipped_lines": skipped,
        },
    }


# --- compile-clean: the acceptance suite's criterion-8 shape ------------------


def _compile_clean(rng: random.Random, out_dir: str, scale: float) -> dict:
    # 10 triples per subject (1 name + 3 predicates x 3 object links); every
    # 10th subject repeats its name triple, which compile must collapse.
    n_subjects = max(10, int(CLEAN_SUBJECTS * scale))
    offset = rng.randrange(997)
    lines: list[_Line] = []
    for i in range(n_subjects):
        uri = f"http://a.org/e{i:05}"
        name = Triple(uri, "http://p/name", ObjectValue(LITERAL, f"name {i}"))
        copies = 2 if i % 10 == 0 else 1
        lines.extend(_Line(f'<{uri}> <http://p/name> "name {i}" .', name) for _ in range(copies))
        for j in range(3):
            for k in range(3):
                obj = f"http://obj.org/o{(offset + i * 7 + j * 131 + k) % 997}"
                pred = f"http://a.org/p/{j}"
                lines.append(_Line(f"<{uri}> <{pred}> <{obj}> .", Triple(uri, pred, ObjectValue(URI, obj))))
    rng.shuffle(lines)
    _write(f"{out_dir}/kb.nt", "".join(line.text + "\n" for line in lines))
    return {
        "workload": "compile-clean",
        "budget": None,
        "calls": [_compile_call("alpha", [("kb.nt", lines)])],
    }


# --- compile-dirty: escapes, non-ASCII, heavy-tailed subjects, bad lines ------

_WORDS = [
    "alpha", "Zürich", "naïve", "café", "Ελληνικά", "日本語", "данные", "smile😀",
    "tab\there", "new\nline", 'say "hi"', "back\\slash", "cr\rx", "bell\bf\f", "it's",
    "x", "longer phrase with spaces", "ünïcödé", "€100", "ℵ0",
]
_URI_WORDS = ["Zürich", "São_Paulo", "東京", "Ωmega", "plain", "a<b>c", "x\\y", "emoji😀"]
_PREDICATES = [
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
    "http://www.w3.org/2000/01/rdf-schema#label",
    "http://dbpedia.org/ontology/abstract",
    "http://dbpedia.org/ontology/birthDate",
    "http://dbpedia.org/ontology/population",
    "http://dbpedia.org/property/name",
    "http://dbpedia.org/ontology/wikiPageWikiLink",
    "http://xmlns.com/foaf/0.1/homepage",
    "http://www.w3.org/2002/07/owl#sameAs",
    "http://dbpedia.org/ontology/für",
]
_DATATYPES = [
    "http://www.w3.org/2001/XMLSchema#integer",
    "http://www.w3.org/2001/XMLSchema#date",
    "http://www.w3.org/2001/XMLSchema#string",
]
_LANGS = ["en", "de", "fr", "ja", "en-GB", "zh-Hant"]
_ECHAR_OUT = {"\t": "\\t", "\b": "\\b", "\n": "\\n", "\r": "\\r", "\f": "\\f", '"': '\\"', "\\": "\\\\"}


def _uchar(c: str) -> str:
    cp = ord(c)
    return f"\\u{cp:04X}" if cp <= 0xFFFF else f"\\U{cp:08X}"


def _render_uri(rng: random.Random, uri: str) -> str:
    if uri.startswith("_:"):
        return uri
    out = []
    for c in uri:
        if c in "<>\\" or (ord(c) > 0x7E and rng.random() < 0.5):
            out.append(_uchar(c))
        else:
            out.append(c)
    return "<" + "".join(out) + ">"


def _render_literal(rng: random.Random, text: str) -> str:
    out = []
    for c in text:
        if c in _ECHAR_OUT:
            out.append(_ECHAR_OUT[c] if rng.random() < 0.7 else _uchar(c))
        elif ord(c) > 0x7E and rng.random() < 0.3:
            out.append(_uchar(c))
        else:
            out.append(c)
    return '"' + "".join(out) + '"'


def _dirty_object(rng: random.Random, shape: random.Random) -> tuple[ObjectValue, str]:
    """An object value and the N-Triples suffix after the literal, if any.

    `shape` picks the kind and length, `rng` the content.
    """
    roll = shape.random()
    if roll < 0.35:
        word = rng.choice(_URI_WORDS)
        return ObjectValue(URI, f"http://dbpedia.org/resource/{word}_{rng.randrange(500)}"), ""
    if roll < 0.40:
        return ObjectValue(URI, f"_:b{rng.randrange(1000)}"), ""
    n_words = shape.randrange(50, 400) if roll < 0.45 else shape.randrange(1, 6)
    text = " ".join(rng.choice(_WORDS) for _ in range(n_words))
    if roll < 0.70:
        return ObjectValue(LITERAL, text), ""
    if roll < 0.85:
        return ObjectValue(LITERAL, text), "@" + rng.choice(_LANGS)
    return ObjectValue(LITERAL, text), "^^<" + rng.choice(_DATATYPES) + ">"


def _dirty_line(rng: random.Random, triple: Triple, suffix: str) -> str:
    obj = triple.object
    if obj.kind == URI:
        rendered = _render_uri(rng, obj.lexical)
    else:
        rendered = _render_literal(rng, obj.lexical) + suffix
    sep = rng.choice([" ", " ", " ", "\t", "  "])
    # A blank node label runs to the next space, so it needs one before '.'.
    end = " ." if rendered.startswith("_:") else rng.choice([" .", " .", ".", " . # note"])
    return (
        _render_uri(rng, triple.subject) + sep + _render_uri(rng, triple.predicate)
        + sep + rendered + end
    )


# Each mutation turns a well-formed line into one the parser must reject.
_MALFORMED = [
    lambda s, p: f"<{s}> <{p}> <http://o.org/x>",  # missing terminal '.'
    lambda s, p: f'<{s}> <{p}> "unterminated .',  # unbalanced quotes
    lambda s, p: f'<{s}> <{p}> "bad \\q escape" .',  # unknown escape
    lambda s, p: f"<{s}> <{p}> .",  # missing object
    lambda s, p: f"<{s}> <{p}> <http://o.org/x> . trailing",  # garbage after '.'
    lambda s, p: f"<{s} <{p}> <http://o.org/x> .",  # unclosed subject
    lambda s, p: f'<{s}> <{p}> "bad \\u12G4" .',  # bad \u escape
    lambda s, p: f'<{s}> <{p}> "raw\ttab" .',  # raw tab in literal
    lambda s, p: f"<{s}> <{p}> 42 .",  # bare number object
]


def _compile_dirty(rng: random.Random, out_dir: str, scale: float) -> dict:
    target = max(50, int(DIRTY_TRIPLES * scale))
    cap = max(5, int(3000 * scale))
    # Subject sizes, object kinds and literal lengths come from one fixed
    # draw, the same for every seed, so that a heavy tail does not make one
    # seed's run much bigger than another's; the seed picks the text, the
    # escapes and the line order.
    shape = random.Random(f"compile-dirty-shape/{scale}")
    lines: list[_Line] = []
    n_ok = 0
    n = 0
    while n_ok < target:
        # Heavy-tailed subject sizes: Pareto(alpha=1.1), capped.
        size = min(cap, int(2 * shape.paretovariate(1.1)), target - n_ok)
        word = rng.choice(_URI_WORDS)
        subject = f"_:s{n}" if shape.random() < 0.02 else f"http://dbpedia.org/resource/{word}_{n}"
        n += 1
        for _ in range(size):
            obj, suffix = _dirty_object(rng, shape)
            triple = Triple(subject, rng.choice(_PREDICATES), obj)
            lines.append(_Line(_dirty_line(rng, triple, suffix), triple))
            if shape.random() < 0.02:  # exact duplicate, spelled differently
                lines.append(_Line(_dirty_line(rng, triple, suffix), triple))
        n_ok += size
    n_bad = len(lines) // 19  # about 5% of all lines
    for i in range(n_bad):
        s = f"http://dbpedia.org/resource/bad_{i}"
        lines.append(_Line(rng.choice(_MALFORMED)(s, rng.choice(_PREDICATES)), None, malformed=True))
    for i in range(len(lines) // 200):
        lines.append(_Line(rng.choice(["", "# comment", "   ", f"# dump part {i}"]), None))
    rng.shuffle(lines)
    half = len(lines) // 2
    files = [("part1.nt.gz", lines[:half]), ("part2.nt", lines[half:])]
    _write_gz(f"{out_dir}/part1.nt.gz", "".join(l.text + "\n" for l in files[0][1]))
    _write(
        f"{out_dir}/part2.nt",
        "".join(l.text + ("\r\n" if rng.random() < 0.1 else "\n") for l in files[1][1]),
    )
    return {
        "workload": "compile-dirty",
        "budget": DIRTY_BUDGET,
        "calls": [_compile_call("dbpedia", files)],
    }


# --- join-spill: entity files, dangling ground truth, a join3 hub -------------

_TYPES = [f"http://schema.org/T{i}" for i in range(12)]
# serialize_record leaves C0 controls other than tab, newline and CR raw, and
# validate flags any raw control byte, so link records keep to those three.
_JOIN_WORDS = [w for w in _WORDS if "\b" not in w and "\f" not in w]


def _entity_line(rng: random.Random, uri: str, i: int) -> str:
    triples = [
        Triple(uri, "http://www.w3.org/1999/02/22-rdf-syntax-ns#type", ObjectValue(URI, rng.choice(_TYPES))),
        Triple(uri, "http://x.org/p/name", ObjectValue(LITERAL, f"Entity {i} {rng.choice(_JOIN_WORDS)}")),
    ]
    for _ in range(rng.randrange(2, 7)):
        if rng.random() < 0.5:
            obj = ObjectValue(URI, f"http://x.org/r/{rng.randrange(10**6)}")
        else:
            obj = ObjectValue(LITERAL, " ".join(rng.choice(_JOIN_WORDS) for _ in range(rng.randrange(1, 8))))
        triples.append(Triple(uri, f"http://x.org/p/{rng.randrange(8)}", obj))
    return serialize_record(record_from_triples(uri, triples))


def _write_entities(rng: random.Random, out_dir: str, name: str, uris: list[str]) -> dict[str, str]:
    lines = {uri: _entity_line(rng, uri, i) for i, uri in enumerate(uris)}
    _write(f"{out_dir}/{name}", "".join(lines[u] + "\n" for u in sorted(lines)))
    return lines


def _gt(rng: random.Random, out_dir: str, name: str, pairs: list[tuple[str, str]]) -> int:
    rows = list(pairs)
    rows.extend(rng.sample(pairs, len(pairs) // 20))  # duplicates collapse
    rng.shuffle(rows)
    _write(f"{out_dir}/{name}", "".join(f"{l}\t{r}\n" for l, r in rows))
    return len(rows)


def _join2_oracle(
    left: dict[str, str], right: dict[str, str], pairs: list[tuple[str, str]],
    labels: tuple[str, str], prefix: str,
) -> tuple[list[str], list[tuple[str, str]], int, int]:
    unique = sorted(set(pairs))
    drop_left = sum(1 for l, _ in unique if l not in left)
    drop_right = sum(1 for l, r in unique if l in left and r not in right)
    links = [(l, r) for l, r in unique if l in left and r in right]
    lines = [
        f"{prefix}-{n}\t{labels[0]}-instance\t{left[l]}\t{labels[1]}-instance\t{right[r]}"
        for n, (l, r) in enumerate(links, 1)
    ]
    return lines, links, drop_left, drop_right


def _join_spill(rng: random.Random, out_dir: str, scale: float) -> dict:
    n = max(20, int(JOIN_ENTITIES * scale))
    hub_ab, hub_cb = max(3, n // 20), max(2, n // 500)
    d_uris = [f"http://dbpedia.org/resource/D{i}_{rng.choice(_URI_WORDS)}" for i in range(n)]
    f_uris = [f"http://rdf.freebase.com/ns/m.{i:06x}" for i in range(n)]
    y_uris = [f"http://yago-knowledge.org/resource/Y{i}" for i in range(n)]
    d = _write_entities(rng, out_dir, "dbpedia.ents", d_uris)
    f = _write_entities(rng, out_dir, "freebase.ents", f_uris)
    y = _write_entities(rng, out_dir, "yago.ents", y_uris)

    def pairs_for(side: list[str], hub_count: int, tag: str) -> list[tuple[str, str]]:
        # d_uris[0] is the hub: many lines on each side share it.
        pairs = [(side[i], d_uris[0]) for i in range(hub_count)]
        perm = list(range(1, n))
        rng.shuffle(perm)
        for i, j in zip(range(hub_count, n), perm):
            roll = rng.random()
            if roll < 0.10:
                pairs.append((f"http://missing.org/{tag}{i}", d_uris[j]))  # dangling left
            elif roll < 0.20:
                pairs.append((side[i], f"http://missing.org/d{j}"))  # dangling right
            else:
                pairs.append((side[i], d_uris[j]))
        return pairs

    fd_pairs = pairs_for(f_uris, hub_ab, "f")
    yd_pairs = pairs_for(y_uris, hub_cb, "y")
    gt_fd = _gt(rng, out_dir, "gt_fd.tsv", fd_pairs)
    gt_yd = _gt(rng, out_dir, "gt_yd.tsv", yd_pairs)

    calls = []
    link_files = {}
    for name, left, left_label, pairs, gt_name, gt_rows, prefix in (
        ("fd.links", f, "freebase", fd_pairs, "gt_fd.tsv", gt_fd, "fd"),
        ("yd.links", y, "yago", yd_pairs, "gt_yd.tsv", gt_yd, "yd"),
    ):
        lines, links, drop_left, drop_right = _join2_oracle(
            left, d, pairs, (left_label, "dbpedia"), prefix
        )
        text = "".join(line + "\n" for line in lines)
        link_files[name] = (lines, links, text)
        calls.append({
            "stage": "join2",
            "left": f"{left_label}.ents",
            "right": "dbpedia.ents",
            "gt": gt_name,
            "labels": [left_label, "dbpedia"],
            "out": name,
            "work": gt_rows,
            "expect": {
                "sha256": _sha256(text.encode("utf-8")),
                "pairs_read": gt_rows,
                "pairs_dropped_left": drop_left,
                "pairs_dropped_right": drop_right,
                "lines_emitted": len(lines),
            },
        })

    # join3 oracle: a per-URI cross product of fd and yd lines on the dbpedia
    # URI, sorted by the (idA, idB) byte pair.
    fd_lines, fd_links, fd_text = link_files["fd.links"]
    yd_lines, yd_links, _ = link_files["yd.links"]
    yd_by_d: dict[str, list[int]] = {}
    for k, (_, dr) in enumerate(yd_links):
        yd_by_d.setdefault(dr, []).append(k)
    out3 = []
    for a, (fl, dr) in enumerate(fd_links):
        for b in yd_by_d.get(dr, []):
            id_a, id_b = f"fd-{a + 1}", f"yd-{b + 1}"
            line = (
                f"{id_a},{id_b}\tdbpedia-instance\t{d[dr]}\tfreebase-instance\t{f[fl]}"
                f"\tyago-instance\t{y[yd_links[b][0]]}"
            )
            out3.append(((id_a + "\t" + id_b).encode("utf-8"), line))
    out3.sort()
    text3 = "".join(line + "\n" for _, line in out3)
    calls.append({
        "stage": "join3",
        "ab": "fd.links",
        "cb": "yd.links",
        "shared": "dbpedia",
        "order": ["dbpedia", "freebase", "yago"],
        "out": "dfy.links",
        "work": len(out3),
        "expect": {
            "sha256": _sha256(text3.encode("utf-8")),
            "lines_emitted": len(out3),
            "lines_left": len(fd_lines),
            "lines_right": len(yd_lines),
        },
    })
    calls.append({
        "stage": "validate",
        "in": "dfy.links",
        "mode": "link3",
        "work": len(out3),
        "expect": {"ok_lines": len(out3), "violations": 0},
    })
    calls.append({
        "stage": "stats",
        "in": "fd.links",
        "mode": "link2",
        "work": len(fd_lines),
        "expect": {
            "lines": len(fd_lines),
            "bytes": len(fd_text.encode("utf-8")),
            "slot_entities": [len({l for l, _ in fd_links}), len({r for _, r in fd_links})],
        },
    })
    return {"workload": "join-spill", "budget": JOIN_BUDGET, "calls": calls}
