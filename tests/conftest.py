"""Shared synthetic-data builders for the test suite."""

from __future__ import annotations

import gzip
import random

import pytest

from flatlink import engine
from flatlink.rdf_ingest import LITERAL, URI, ObjectValue, Triple, iter_triples

PREDICATES = [
    "http://x.org/p/name",
    "http://x.org/p/age",
    "http://x.org/p/knows",
    "http://x.org/p/hasBrother",
    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
]

TYPES = [
    "http://x.org/t/FootballPlayer",
    "http://x.org/t/CivilParish",
    "http://x.org/t/Band",
]


def subject_uri(kb: str, i: int) -> str:
    return f"http://{kb}.org/e{i}"


def random_object(rng: random.Random) -> ObjectValue:
    if rng.random() < 0.4:
        return ObjectValue(LITERAL, rng.choice(["32", "Joan Crax", "a b", "x,y", ""]))
    return ObjectValue(URI, f"http://obj.org/o{rng.randrange(500)}")


def synth_triples(
    rng: random.Random,
    kb: str,
    n_triples: int,
    n_subjects: int,
    typed: bool = False,
) -> list[Triple]:
    """Random triples over a fixed subject pool; every subject gets >= 1."""
    triples = []
    for s in range(n_subjects):
        subject = subject_uri(kb, s)
        triples.append(Triple(subject, rng.choice(PREDICATES), random_object(rng)))
        if typed:
            triples.append(
                Triple(
                    subject,
                    "http://www.w3.org/1999/02/22-rdf-syntax-ns#type",
                    ObjectValue(URI, rng.choice(TYPES)),
                )
            )
    while len(triples) < n_triples:
        subject = subject_uri(kb, rng.randrange(n_subjects))
        triples.append(Triple(subject, rng.choice(PREDICATES), random_object(rng)))
    rng.shuffle(triples)
    return triples


def damage_gz(data: bytes, damage: str) -> bytes:
    """`data` as a damaged .gz file: "truncated" cuts it at 200 bytes (gzip
    raises EOFError), "corrupt" flips 8 bytes mid-stream (zlib.error), and
    "header" leaves it uncompressed (BadGzipFile)."""
    packed = gzip.compress(data, mtime=0)
    if damage == "truncated":
        return packed[:200]
    if damage == "corrupt":
        return packed[:100] + bytes(b ^ 0xFF for b in packed[100:108]) + packed[108:]
    return data


def criterion8_lines(n_subjects: int) -> list[bytes]:
    """Escape-free N-Triples lines, without line ends, in the acceptance
    suite's criterion-8 shape: per subject a name literal, repeated for every
    10th subject, and 3 predicates x 3 object links; about 600 bytes a
    subject."""
    lines = []
    for i in range(n_subjects):
        uri = b"<http://a.org/e%05d>" % i
        lines += [b'%s <http://p/name> "name %d" .' % (uri, i)] * (2 if i % 10 == 0 else 1)
        lines += [b"%s <http://a.org/p/%d> <http://obj.org/o%d> ."
                  % (uri, j, (i * 7 + j * 131 + k) % 997) for j in range(3) for k in range(3)]
    return lines


def numbered_triples(blocks) -> list[tuple[int, tuple[bytes, bytes, bytes]]]:
    """(line number, triple) of every triple in `blocks`, as iter_triple_bytes
    yields them: each block's triples and their line numbers, one number a
    triple, ascending across blocks."""
    numbered = []
    for triples, line_nos in blocks:
        assert len(triples) == len(line_nos)
        numbered += zip(line_nos, triples)
    line_nos = [line_no for line_no, _ in numbered]
    assert line_nos == sorted(set(line_nos))
    return numbered


def text_numbered_triples(source, report) -> list[tuple[int, tuple[bytes, bytes, bytes]]]:
    """numbered_triples' list as the text reader iter_triples gives it, the
    triples in iter_triple_bytes' form: the reader has counted a triple's
    line into report.lines_total when it yields it."""
    return [
        (report.lines_total,
         (s.encode(), p.encode(), (b"L" if kind == LITERAL else b"U") + lexical.encode()))
        for s, p, (kind, lexical) in iter_triples(source, report)
    ]


def render_nt_lines(triples: list[Triple]) -> list[str]:
    from flatlink.rdf_ingest import render_triple

    return [render_triple(t) for t in triples]


def write_nt(path, triples: list[Triple]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in render_nt_lines(triples):
            fh.write(line + "\n")


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xF1A7)


@pytest.fixture
def spill_files(monkeypatch) -> list:
    """Every spill run file the engine makes in the test.  A run is an unnamed
    file, so one not yet freed shows as an open file here, never in a listing
    of the spill dir."""
    made = []
    init = engine._Spill.__init__

    def recording(self, *args):
        init(self, *args)
        made.append(self.file)

    monkeypatch.setattr(engine._Spill, "__init__", recording)
    return made
