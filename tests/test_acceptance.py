"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.
"""

import contextlib
import hashlib
import os
import random
import shutil
import time

import pytest

from flatlink.engine import ExecConfig, JobStats
from flatlink.flat_record import (
    EntityRecord,
    escape_token,
    parse_record,
    serialize_record,
)
from flatlink.kb_compile import KbSpec, compile_kb
from flatlink.link_join import join2, join3, parse_link_line
from flatlink.rdf_ingest import LITERAL, URI, ObjectValue
from flatlink.tools import SampleSpec, TypeFilterSpec, filter_by_type, sample_lines, validate
from flatlink.cli import main as cli_main

DEMO = os.path.join(os.path.dirname(__file__), os.pardir, "demo")


@contextlib.contextmanager
def criterion(n: int, title: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {n:2d} FAIL  {title}")
        raise
    elapsed = time.monotonic() - started
    print(f"[acceptance] criterion {n:2d} PASS  {title} ({elapsed:.1f}s)")


def cfg_for(tmp_path, **kw) -> ExecConfig:
    kw.setdefault("memory_budget_bytes", 1 << 22)
    kw.setdefault("spill_dir", str(tmp_path / "spill"))
    return ExecConfig(**kw)


# --- randomized record corpus (criteria 1 and 2) -----------------------------

NASTY = [
    "dbpedia-instance",
    "freebase-instance",
    "yago-instance",
    "my-kb.2-instance",
    '""32""',
    '""',
    '"""',
    '""x',
    'tab\there',
    "new\nline",
    "cr\rhere",
    "back\\slash",
    "\\s",
    "plain",
    "http://x.org/page?q=1&r=2",
]


def random_token(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.35:
        return rng.choice(NASTY)
    length = rng.randrange(1, 16)
    return "".join(
        rng.choice("ab \t\n\r\\\"-instance:/xyz09é仮") for _ in range(length)
    )


def random_record(rng: random.Random) -> EntityRecord:
    uri = random_token(rng) or "u"
    properties = {}
    for _ in range(rng.randrange(1, 5)):
        key = random_token(rng) or "k"
        seen = set()
        values = []
        for _ in range(rng.randrange(1, 4)):  # multi-valued keys
            kind = LITERAL if rng.random() < 0.5 else URI
            value = ObjectValue(kind, random_token(rng) if rng.random() < 0.9 else "")
            if value not in seen:
                seen.add(value)
                values.append(value)
        if key not in properties:
            properties[key] = values
    return EntityRecord(uri, properties)


@pytest.fixture(scope="module")
def record_corpus():
    rng = random.Random(0xACCE)
    return [random_record(rng) for _ in range(10_000)]


def test_criterion_1_codec_round_trip(record_corpus):
    with criterion(1, "codec round trip on 10k adversarial records"):
        started = time.monotonic()
        for rec in record_corpus:
            assert parse_record(serialize_record(rec)) == rec
        assert time.monotonic() - started < 5.0


def test_criterion_2_literal_convention(record_corpus, tmp_path):
    with criterion(2, "literals wrapped in exactly two double quotes"):
        fixture = tmp_path / "records.ents"
        literal_count = 0
        with open(fixture, "w", encoding="utf-8") as fh:
            for rec in record_corpus:
                line = serialize_record(rec)
                fh.write(line + "\n")
                value_tokens = set(line.split("\t")[2::2])
                # every literal must appear as escape(lexical) wrapped by
                # exactly one pair of '""' on each side
                for values in rec.properties.values():
                    for value in values:
                        if value.kind == LITERAL:
                            literal_count += 1
                            expected = '""' + escape_token(value.lexical) + '""'
                            assert expected in value_tokens
        assert literal_count > 1000
        report = validate(str(fixture), "entity")
        assert report.violation_count == 0, report.violations[:5]


def test_criterion_3_wrapper_oracle(tmp_path):
    with criterion(3, "compile matches in-memory group-by on 20 synthetic KBs"):
        started = time.monotonic()
        rng = random.Random(3)
        sizes = [1000] * 13 + [10_000] * 5 + [100_000] * 2
        for kb_index, size in enumerate(sizes):
            n_subjects = max(size // 10, 1)
            lines = []
            object_only = f"http://obj{kb_index}.org/never-a-subject"
            for i in range(size):
                s = f"http://kb{kb_index}.org/e{rng.randrange(n_subjects)}"
                if rng.random() < 0.3:
                    lines.append(
                        f'<{s}> <http://p.org/{rng.randrange(5)}> "lit {rng.randrange(50)}" .'
                    )
                else:
                    lines.append(
                        f"<{s}> <http://p.org/{rng.randrange(5)}> "
                        f"<http://obj.org/{rng.randrange(200)}> ."
                    )
            lines.append(f"<http://kb{kb_index}.org/e0> <http://p.org/x> <{object_only}> .")
            src = tmp_path / f"kb{kb_index}.nt"
            src.write_text("\n".join(lines) + "\n", encoding="utf-8")

            # independent oracle: reparse the lines naively and hash-group
            oracle = {}
            for line in lines:
                parts = line[:-2].split("> ", 2)
                s = parts[0][1:]
                p = parts[1][1:]
                obj = parts[2]
                if obj.startswith("<"):
                    value = (URI, obj[1:-1])
                else:
                    value = (LITERAL, obj[1:-1])
                oracle.setdefault(s, set()).add((p, value))

            out = tmp_path / f"kb{kb_index}.ents"
            report = compile_kb(
                KbSpec("kb", [str(src)], str(out)),
                cfg_for(tmp_path, memory_budget_bytes=1 << 21),
            )
            got = {}
            with open(out, "r", encoding="utf-8") as fh:
                for line in fh:
                    rec = parse_record(line.rstrip("\n"))
                    assert rec.uri not in got
                    got[rec.uri] = {
                        (k, (v.kind, v.lexical))
                        for k, values in rec.properties.items()
                        for v in values
                    }
            assert set(got) == set(oracle), f"entity set differs for kb{kb_index}"
            assert object_only not in got  # entity iff subject
            for s in oracle:
                assert got[s] == oracle[s], f"entity {s} differs in kb{kb_index}"
            assert report.entities == len(oracle)
        assert time.monotonic() - started < 60.0


def _random_join_instance(rng, tmp_path, tag):
    n_a = rng.randrange(50, 501)
    n_b = rng.randrange(50, 501)
    a_lines = {}
    for i in range(n_a):
        uri = f"http://a{tag}.org/e{i}"
        rec = EntityRecord(uri, {"http://p/name": [ObjectValue(LITERAL, f"a{i}")]})
        a_lines[uri] = serialize_record(rec)
    b_lines = {}
    for i in range(n_b):
        uri = f"http://b{tag}.org/e{i}"
        rec = EntityRecord(uri, {"http://p/name": [ObjectValue(LITERAL, f"b{i}")]})
        b_lines[uri] = serialize_record(rec)
    dangling = rng.uniform(0.1, 0.5)
    pairs = []
    for _ in range(rng.randrange(100, 301)):
        if rng.random() < dangling:
            if rng.random() < 0.5:
                pairs.append((f"http://a{tag}.org/missing{rng.randrange(99)}",
                              f"http://b{tag}.org/e{rng.randrange(n_b)}"))
            else:
                pairs.append((f"http://a{tag}.org/e{rng.randrange(n_a)}",
                              f"http://b{tag}.org/missing{rng.randrange(99)}"))
        else:
            pairs.append((f"http://a{tag}.org/e{rng.randrange(n_a)}",
                          f"http://b{tag}.org/e{rng.randrange(n_b)}"))
    base = tmp_path / f"j{tag}"
    base.mkdir()
    a_path = base / "a.ents"
    b_path = base / "b.ents"
    gt_path = base / "gt.tsv"
    with open(a_path, "w", encoding="utf-8") as fh:
        for uri in sorted(a_lines):
            fh.write(a_lines[uri] + "\n")
    with open(b_path, "w", encoding="utf-8") as fh:
        for uri in sorted(b_lines):
            fh.write(b_lines[uri] + "\n")
    gt_path.write_text("".join(f"{l}\t{r}\n" for l, r in pairs), encoding="utf-8")
    return a_lines, b_lines, pairs, a_path, b_path, gt_path, base


def test_criterion_4_join2_oracle(tmp_path):
    with criterion(4, "join2 equals nested-loop oracle on 50 random instances"):
        rng = random.Random(4)
        for tag in range(50):
            a_lines, b_lines, pairs, a_path, b_path, gt_path, base = (
                _random_join_instance(rng, tmp_path, tag)
            )
            out = base / "ab.links"
            report = join2(
                str(a_path), str(b_path), str(gt_path), "tsv-pairs",
                ("alpha", "beta"), str(out), cfg_for(base),
            )
            unique = list(dict.fromkeys(pairs))
            matched = sorted(
                (l, r) for l, r in unique if l in a_lines and r in b_lines
            )
            expected = [
                f"alpha-instance\t{a_lines[l]}\tbeta-instance\t{b_lines[r]}"
                for l, r in matched
            ]
            dropped_left = sum(1 for l, _ in unique if l not in a_lines)
            dropped_right = sum(
                1 for l, r in unique if l in a_lines and r not in b_lines
            )
            with open(out, "r", encoding="utf-8") as fh:
                got = [line.rstrip("\n").split("\t", 1)[1] for line in fh]
            assert got == expected
            assert report.pairs_dropped_left == dropped_left
            assert report.pairs_dropped_right == dropped_right
            assert report.lines_emitted == len(expected)


def test_criterion_5_join3_identity(tmp_path):
    with criterion(5, "3-way count identity, slot order, id traceability"):
        rng = random.Random(5)
        for round_no in range(10):
            base = tmp_path / f"r{round_no}"
            base.mkdir()
            shared = [f"http://d.org/e{i}" for i in range(rng.randrange(10, 40))]
            d_lines = {
                u: serialize_record(
                    EntityRecord(u, {"http://p/x": [ObjectValue(LITERAL, u[-1])]})
                )
                for u in shared
            }
            m, n = {}, {}
            ab_rows, cb_rows = [], []
            for u in shared:
                m[u] = rng.randrange(0, 4)
                n[u] = rng.randrange(0, 4)
                for i in range(m[u]):
                    f_uri = f"http://f.org/{u.rsplit('/e', 1)[1]}x{i}"
                    line = serialize_record(
                        EntityRecord(f_uri, {"http://p/n": [ObjectValue(LITERAL, str(i))]})
                    )
                    ab_rows.append((line, d_lines[u]))
                for i in range(n[u]):
                    y_uri = f"http://y.org/{u.rsplit('/e', 1)[1]}x{i}"
                    line = serialize_record(
                        EntityRecord(y_uri, {"http://p/n": [ObjectValue(LITERAL, str(i))]})
                    )
                    cb_rows.append((line, d_lines[u]))
            ab_path = base / "fd.links"
            cb_path = base / "yd.links"
            with open(ab_path, "w", encoding="utf-8") as fh:
                for i, (left, right) in enumerate(ab_rows, 1):
                    fh.write(f"fd-{i}\tfreebase-instance\t{left}\tdbpedia-instance\t{right}\n")
            with open(cb_path, "w", encoding="utf-8") as fh:
                for i, (left, right) in enumerate(cb_rows, 1):
                    fh.write(f"yd-{i}\tyago-instance\t{left}\tdbpedia-instance\t{right}\n")

            order = ["dbpedia", "freebase", "yago"]  # shared KB first
            out = base / "dfy.links"
            report = join3(str(ab_path), str(cb_path), "dbpedia", order, str(out),
                           cfg_for(base))
            assert report.lines_emitted == sum(m[u] * n[u] for u in shared)

            ab_by_id = {}
            with open(ab_path, "r", encoding="utf-8") as fh:
                for line in fh:
                    parsed = parse_link_line(line.rstrip("\n"))
                    ab_by_id[parsed.link_id] = dict(parsed.groups)
            cb_by_id = {}
            with open(cb_path, "r", encoding="utf-8") as fh:
                for line in fh:
                    parsed = parse_link_line(line.rstrip("\n"))
                    cb_by_id[parsed.link_id] = dict(parsed.groups)
            with open(out, "r", encoding="utf-8") as fh:
                for line in fh:
                    parsed = parse_link_line(line.rstrip("\n"))
                    assert [label for label, _ in parsed.groups] == order
                    id_a, id_b = parsed.link_id.split(",")
                    groups = dict(parsed.groups)
                    # byte-identical record slots traced back to both sources
                    assert groups["dbpedia"] == ab_by_id[id_a]["dbpedia"]
                    assert groups["freebase"] == ab_by_id[id_a]["freebase"]
                    assert groups["yago"] == cb_by_id[id_b]["yago"]


def _pipeline_outputs(workdir) -> list[tuple[str, str]]:
    out = workdir / "out"
    return [
        (str(out / "freebase.ents"), "entity"),
        (str(out / "dbpedia.ents"), "entity"),
        (str(out / "yago.ents"), "entity"),
        (str(out / "fd.links"), "link2"),
        (str(out / "yd.links"), "link2"),
        (str(out / "dfy.links"), "link3"),
    ]


def test_criterion_6_self_containment(tmp_path):
    with criterion(6, "shuffled copies and arbitrary subsets still parse"):
        workdir = tmp_path / "demo"
        shutil.copytree(DEMO, workdir)
        assert cli_main(["pipeline", "--config", str(workdir / "demo.cfg")]) == 0
        rng = random.Random(6)
        for path, mode in _pipeline_outputs(workdir):
            with open(path, "rb") as fh:
                lines = fh.readlines()
            rng.shuffle(lines)
            shuffled = tmp_path / (os.path.basename(path) + ".shuffled")
            shuffled.write_bytes(b"".join(lines))
            report = validate(str(shuffled), mode)
            assert report.violation_count == 0, (path, report.violations[:3])
            assert report.ok_lines == len(lines)
            # deleting any subset never breaks the remainder
            for _ in range(3):
                subset = [l for l in lines if rng.random() < 0.5]
                kept = tmp_path / "subset.tmp"
                kept.write_bytes(b"".join(subset))
                sub_report = validate(str(kept), mode)
                assert sub_report.violation_count == 0
                assert sub_report.ok_lines == len(subset)


def test_criterion_7_pipeline_determinism(tmp_path):
    with criterion(7, "two pipeline runs are byte-identical"):
        digests = []
        for name in ("run1", "run2"):
            workdir = tmp_path / name
            shutil.copytree(DEMO, workdir)
            assert cli_main(["pipeline", "--config", str(workdir / "demo.cfg")]) == 0
            digest = {}
            for path, _ in _pipeline_outputs(workdir):
                with open(path, "rb") as fh:
                    digest[os.path.basename(path)] = hashlib.sha256(fh.read()).hexdigest()
            digests.append(digest)
        assert digests[0] == digests[1]


def _expected_scale_pairs(kb: str, i: int) -> set[tuple[str, str, str]]:
    pairs = {("http://p/name", LITERAL, f"name {i}")}
    for j in range(3):
        for k in range(3):
            pairs.add(
                (
                    f"http://{kb}.org/p/{j}",
                    URI,
                    f"http://obj.org/o{(i * 7 + j * 131 + k) % 997}",
                )
            )
    return pairs


def _flatten(rec: EntityRecord) -> set[tuple[str, str, str]]:
    return {
        (key, v.kind, v.lexical)
        for key, values in rec.properties.items()
        for v in values
    }


def _write_scale_kb(path, kb: str, n_subjects: int, rng) -> int:
    # 10 triples per subject (1 name + 9 object links, 3 per predicate)
    lines = []
    for i in range(n_subjects):
        uri = f"http://{kb}.org/e{i:05}"
        lines.append(f'<{uri}> <http://p/name> "name {i}" .')
        if i % 10 == 0:  # exact duplicates must collapse
            lines.append(f'<{uri}> <http://p/name> "name {i}" .')
        for j in range(3):
            for k in range(3):
                obj = f"http://obj.org/o{(i * 7 + j * 131 + k) % 997}"
                lines.append(f"<{uri}> <http://{kb}.org/p/{j}> <{obj}> .")
    rng.shuffle(lines)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    return len(lines)


@pytest.mark.slow
def test_criterion_8_memory_bounded_scale(tmp_path):
    with criterion(8, "1M-triple pair compiles and joins under a 32 MiB budget"):
        started = time.monotonic()
        rng = random.Random(8)
        n_subjects = 50_000
        a_src = tmp_path / "a.nt"
        b_src = tmp_path / "b.nt"
        total = _write_scale_kb(a_src, "a", n_subjects, rng)
        total += _write_scale_kb(b_src, "b", n_subjects, rng)
        assert total >= 1_000_000

        cfg = ExecConfig(
            memory_budget_bytes=32 * 1024 * 1024,
            spill_dir=str(tmp_path / "spill"),
        )
        stats = JobStats()
        a_out = tmp_path / "a.ents"
        b_out = tmp_path / "b.ents"
        rep_a = compile_kb(KbSpec("alpha", [str(a_src)], str(a_out)), cfg, stats)
        rep_b = compile_kb(KbSpec("beta", [str(b_src)], str(b_out)), cfg, stats)
        assert rep_a.entities == n_subjects
        assert rep_b.entities == n_subjects
        assert stats.spill_runs >= 1  # the budget forced at least one spill

        # criterion-3-style check, streaming against the closed-form oracle;
        # 10 values per entity also proves the injected duplicates collapsed
        for kb, out in (("a", a_out), ("b", b_out)):
            with open(out, "r", encoding="utf-8") as fh:
                for i, line in enumerate(fh):
                    rec = parse_record(line.rstrip("\n"))
                    assert rec.uri == f"http://{kb}.org/e{i:05}"
                    assert _flatten(rec) == _expected_scale_pairs(kb, i), f"{kb} entity {i}"
                    assert sum(len(v) for v in rec.properties.values()) == 10

        gt_path = tmp_path / "gt.tsv"
        with open(gt_path, "w", encoding="utf-8") as fh:
            for i in range(40_000):
                fh.write(f"http://a.org/e{i:05}\thttp://b.org/e{i:05}\n")
            for i in range(10_000):  # dangling on each side
                fh.write(f"http://a.org/missing{i}\thttp://b.org/e{i:05}\n")
                fh.write(f"http://a.org/e{i:05}\thttp://b.org/missing{i}\n")

        links = tmp_path / "ab.links"
        report = join2(
            str(a_out), str(b_out), str(gt_path), "tsv-pairs",
            ("alpha", "beta"), str(links), cfg,
        )
        assert report.lines_emitted == 40_000
        assert report.pairs_dropped_left == 10_000
        assert report.pairs_dropped_right == 10_000

        # criteria 4..6-style checks on the joined output
        with open(links, "r", encoding="utf-8") as fh:
            for n, line in enumerate(fh, 1):
                parsed = parse_link_line(line.rstrip("\n"))
                assert parsed.link_id == f"ab-{n}"
                (label_l, slot_l), (label_r, slot_r) = parsed.groups
                assert (label_l, label_r) == ("alpha", "beta")
                if n % 977 == 0:  # spot-check record integrity
                    left = parse_record(slot_l)
                    right = parse_record(slot_r)
                    i = n - 1  # ids follow ascending (left, right) pair order
                    assert left.uri == f"http://a.org/e{i:05}"
                    assert _flatten(left) == _expected_scale_pairs("a", i)
                    assert _flatten(right) == _expected_scale_pairs("b", i)
        report6 = validate(str(links), "link2")
        assert report6.violation_count == 0
        elapsed = time.monotonic() - started
        assert elapsed < 600.0, f"scale smoke took {elapsed:.0f}s"


def test_criterion_9_sampling(tmp_path):
    with criterion(9, "reservoir sample of 10k lines matches the reference"):
        src = tmp_path / "big.links"
        with open(src, "w", encoding="utf-8") as fh:
            for i in range(120_000):
                fh.write(f"xy-{i + 1}\tx-instance\tu{i}\tp\tv\ty-instance\tw{i}\tq\tz\n")
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        spec = SampleSpec(n=10_000, seed=2016)
        assert sample_lines(str(src), spec, str(out1)) == 10_000
        assert sample_lines(str(src), spec, str(out2)) == 10_000
        assert out1.read_bytes() == out2.read_bytes()

        with open(src, "rb") as fh:
            all_lines = fh.readlines()
        rng = random.Random(2016)
        reservoir = []
        for i, line in enumerate(all_lines):
            if i < 10_000:
                reservoir.append((i, line))
            else:
                j = rng.randrange(i + 1)
                if j < 10_000:
                    reservoir[j] = (i, line)
        expected = b"".join(line for _, line in sorted(reservoir))
        assert out1.read_bytes() == expected

        source_set = set(all_lines)
        with open(out1, "rb") as fh:
            sampled = fh.readlines()
        assert len(sampled) == 10_000
        assert len(set(sampled)) == 10_000
        assert all(line in source_set for line in sampled)


def test_criterion_10_type_filter(tmp_path):
    with criterion(10, "type filter equals brute force for 4 sides"):
        rng = random.Random(10)
        rdf_type = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
        types = ["http://t/Player", "http://t/Band", None]
        lines = []
        for i in range(1000):
            recs = []
            for side, kb in enumerate(("f", "d")):
                props = {"http://p/name": [ObjectValue(LITERAL, f"{kb}{i}")]}
                t = rng.choice(types)
                if t:
                    props[rdf_type] = [ObjectValue(URI, t)]
                recs.append(serialize_record(EntityRecord(f"http://{kb}/{i}", props)))
            lines.append(f"fd-{i + 1}\tf-instance\t{recs[0]}\td-instance\t{recs[1]}")
        src = tmp_path / "fixture.links"
        src.write_text("".join(line + "\n" for line in lines), encoding="utf-8")

        for side in ("first", "second", "any", "all"):
            spec = TypeFilterSpec("http://t/Player", side=side)
            out = tmp_path / f"{side}.links"
            kept = filter_by_type(str(src), spec, str(out), "link2")

            expected = []
            for line in lines:
                groups = parse_link_line(line).groups
                hits = []
                for _, slot in groups:
                    rec = parse_record(slot)
                    hits.append(
                        any(
                            v.kind == URI and v.lexical == "http://t/Player"
                            for v in rec.properties.get(rdf_type, [])
                        )
                    )
                ok = {
                    "first": hits[0],
                    "second": hits[1],
                    "any": any(hits),
                    "all": all(hits),
                }[side]
                if ok:
                    expected.append(line)
            got = out.read_text(encoding="utf-8").splitlines()
            assert got == expected
            assert kept == len(expected)
