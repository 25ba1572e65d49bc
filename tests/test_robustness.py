"""A failed job leaves nothing behind, and every output of a run passes
validate.

The fault tests make one sort, one reduce, one record of compile or one
output write of compile, join2 or join3 raise part-way through a spilling
job.  The first property test runs compile x3, join2 x2
and join3 over generated N-Triples and ground truth of awkward shapes.  The
second runs `pipeline` on such inputs at three budgets: the outputs, or the
one refusal, are the same at each, and no spill run, temp file or open
descriptor is left.  The sweep runs the demo `pipeline` once per call of
each OS seam (spill create, write and read, output write, fsync, replace,
input open and read) with that call failing, and checks the same after
each run."""

import builtins
import contextlib
import errno
import functools
import gzip
import io
import itertools
import os
import pathlib
import shutil
import sys
import tempfile
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flatlink import cli, engine, kb_compile, link_join, rdf_ingest
from flatlink.engine import ExecConfig, JobStats
from flatlink.kb_compile import KbSpec, compile_kb
from flatlink.link_join import OWL_SAMEAS, join2, join3
from flatlink.tools import validate

from conftest import criterion8_lines

LABELS = ("freebase", "dbpedia", "yago")
ORDER = ["dbpedia", "freebase", "yago"]


class Injected(Exception):
    """The fault a test plants; not a FlatlinkError, as a bug would not be."""


def _write_kb(path, host: str, n: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(n):
            fh.write(f'<http://{host}/{i:03}> <http://x/name> "{host} {i}" .\n')
            fh.write(f"<http://{host}/{i:03}> <http://x/kind> <http://x/K{i % 3}> .\n")


def _stages(tmp_path) -> dict:
    """Each stage as a call (out, cfg, stats), over inputs made without
    faults: three KBs of 60 subjects, their entity files, ground truth in
    both formats, and the two 2-way linkage files of the demo's shape."""
    paths = {}
    for label in LABELS:
        paths[label] = str(tmp_path / f"{label}.nt")
        _write_kb(paths[label], label[0], 60)
        paths[label[0]] = str(tmp_path / f"{label}.ents")
        compile_kb(KbSpec(label, [paths[label]], paths[label[0]]), ExecConfig())
    gt_fd, gt_yd = tmp_path / "gt_fd.tsv", tmp_path / "gt_yd.nt"
    gt_fd.write_text("".join(f"http://f/{i:03}\thttp://d/{i:03}\n" for i in range(60)))
    gt_yd.write_text("".join(f"<http://y/{i:03}> <{OWL_SAMEAS}> <http://d/{i:03}> .\n"
                             for i in range(5, 60)))
    fd, yd = str(tmp_path / "fd.links"), str(tmp_path / "yd.links")
    join2(paths["f"], paths["d"], str(gt_fd), "tsv-pairs", ("freebase", "dbpedia"), fd,
          ExecConfig())
    join2(paths["y"], paths["d"], str(gt_yd), "ntriples-sameas", ("yago", "dbpedia"), yd,
          ExecConfig())
    return {
        "compile": lambda out, cfg, stats: compile_kb(
            KbSpec("freebase", [paths["freebase"]], out), cfg, stats),
        "join2": lambda out, cfg, stats: join2(
            paths["f"], paths["d"], str(gt_fd), "tsv-pairs", ("freebase", "dbpedia"), out,
            cfg, stats=stats),
        "join3": lambda out, cfg, stats: join3(fd, yd, "dbpedia", ORDER, out, cfg, stats),
    }


def _fail_at_add(monkeypatch, sort_no: int, k: int) -> None:
    # The k-th item added to the job's sort_no-th sorter raises.  A job's
    # sorts fill one after another, so the order of first adds is theirs.
    sorters = []
    counts = {}
    add = engine.ExternalSorter.add

    def failing_add(self, item):
        if self not in sorters:
            sorters.append(self)
        counts[id(self)] = counts.get(id(self), 0) + 1
        if sorters.index(self) + 1 == sort_no and counts[id(self)] == k:
            raise Injected(f"add {k} of sort {sort_no}")
        add(self, item)

    monkeypatch.setattr(engine.ExternalSorter, "add", failing_add)


def _fail_at_group(monkeypatch, module, name: str, n: int) -> None:
    # The reduce's n-th group raises after yielding its first output, if any.
    reduce = getattr(module, name)
    calls = itertools.count(1)

    def failing_reduce(*args):
        outputs = reduce(*args)
        if next(calls) == n:
            yield from itertools.islice(outputs, 1)
            raise Injected(f"group {n} of {name}")
        yield from outputs

    monkeypatch.setattr(module, name, failing_reduce)


def _fail_at_call(monkeypatch, module, name: str, n: int) -> None:
    # The n-th call of module.name raises.
    fn = getattr(module, name)
    calls = itertools.count(1)

    def failing_fn(*args):
        if next(calls) == n:
            raise Injected(f"call {n} of {name}")
        return fn(*args)

    monkeypatch.setattr(module, name, failing_fn)


def _fail_at_write(monkeypatch, n: int) -> None:
    # The output file's n-th write raises, as a full disk would.
    atomic_output = engine.atomic_output

    @contextlib.contextmanager
    def failing_output(path):
        with atomic_output(path) as out:
            write, writes = out.write, itertools.count(1)

            def failing_write(data):
                if next(writes) == n:
                    raise Injected(f"write {n}")
                return write(data)

            out.write = failing_write
            yield out

    monkeypatch.setattr(engine, "atomic_output", failing_output)


# fault id -> (stage, inject(monkeypatch))
FAULTS = {
    f"{stage}-add-sort{sort_no}": (stage, functools.partial(_fail_at_add, sort_no=sort_no, k=40))
    for stage, sort_no in [("compile", 1), ("join2", 1), ("join2", 2), ("join3", 1), ("join3", 2)]
}
FAULTS.update({
    f"{stage}-{name}-group{n}": (
        stage, functools.partial(_fail_at_group, module=module, name=name, n=n))
    for stage, module, name in [
        ("join2", link_join, "_reduce_by_right"),
        ("join2", link_join, "_reduce_by_left"),
        ("join3", link_join, "_reduce_by_uri"),
        ("join3", link_join, "_reduce_by_left_id"),
    ]
    for n in (1, 25)
})
FAULTS.update({
    f"compile-record_line_bytes-call{n}": (
        "compile",
        functools.partial(_fail_at_call, module=kb_compile, name="record_line_bytes", n=n))
    for n in (1, 25)
})
FAULTS.update({
    f"{stage}-write": (stage, functools.partial(_fail_at_write, n=25))
    for stage in ("compile", "join2", "join3")
})


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_injected_fault_leaves_no_output_and_no_spill(tmp_path, monkeypatch, spill_files, fault):
    stage, inject = FAULTS[fault]
    run = _stages(tmp_path)[stage]
    outdir, spill = tmp_path / "out", tmp_path / "spill"
    outdir.mkdir()
    out = outdir / "result"
    out.write_bytes(b"the output of an earlier run\n")
    inject(monkeypatch)
    stats = JobStats()
    with pytest.raises(Exception) as info:
        run(str(out), ExecConfig(memory_budget_bytes=1024, spill_dir=str(spill)), stats)
    assert isinstance(info.value, Injected) or isinstance(info.value.__cause__, Injected)
    assert stats.spill_runs > 0
    assert out.read_bytes() == b"the output of an earlier run\n"
    assert os.listdir(outdir) == ["result"]  # no <out>.<pid>.tmp
    assert list(spill.iterdir()) == []
    assert spill_files and all(f.closed for f in spill_files)  # freed with `info` held


@pytest.mark.parametrize("suffix", [".nt", ".nt.gz"])
def test_failed_compile_sort_closes_its_input_file(tmp_path, monkeypatch, spill_files, suffix):
    # compile's sort fails at its 40th item, in the first of four blocks.
    # The sort reads the blocks through a chain, which it cannot close, so
    # compile closes the input file itself, while the exception is still
    # held, and the sort frees its runs.
    opened = []
    open_bytes = rdf_ingest._open_bytes

    def recording(path):
        opened.append(open_bytes(path))
        return opened[-1]

    monkeypatch.setattr(rdf_ingest, "_open_bytes", recording)
    data = b"".join(line + b"\n" for line in criterion8_lines(50))
    assert len(data) > 3 << 13
    path = tmp_path / ("kb" + suffix)
    path.write_bytes(gzip.compress(data) if suffix.endswith(".gz") else data)
    _fail_at_add(monkeypatch, sort_no=1, k=40)
    stats = JobStats()
    cfg = ExecConfig(memory_budget_bytes=1024, spill_dir=str(tmp_path / "spill"))
    with pytest.raises(Injected) as info:  # noqa: F841, held
        compile_kb(KbSpec("kb", [str(path)], str(tmp_path / "kb.ents")), cfg, stats)
    assert stats.spill_runs > 0
    assert len(opened) == 1 and opened[0].closed
    assert spill_files and all(f.closed for f in spill_files)
    assert list((tmp_path / "spill").iterdir()) == []
    assert not (tmp_path / "kb.ents").exists()


# --- every output passes validate --------------------------------------------

# Subjects of each KB as raw N-Triples terms, each with its decoded URI as
# ground truth writes it (None: a blank node, which ground truth never names).
# Escapes decode to the same URI as raw UTF-8; a \ is a backslash in the
# URI, and a sentinel-shaped URI must stay inside its record slot.
_SUBJECTS = {
    host: [
        (f"<http://{host}/0>".encode(), f"http://{host}/0"),
        (f"<http://{host}/caf\\u00E9>".encode(), f"http://{host}/café"),
        (f"<http://{host}/café>".encode(), f"http://{host}/café"),
        (f"<http://{host}/a\\u005Cb>".encode(), f"http://{host}/a\\b"),
        (f"<http://{host}/\\U0001F600>".encode(), f"http://{host}/\U0001F600"),
        (b"<dbpedia-instance>", "dbpedia-instance"),
        (b"_:b1", None),
    ]
    for host in "fdy"
}
_PREDICATES = [b"<http://x/p>", b"<http://x/q\\u00E9>",
               b"<http://www.w3.org/1999/02/22-rdf-syntax-ns#type>", b"<yago-instance>"]
_OBJECTS = [
    b"<http://x/o>", b"<http://x/\\u00FC>", b"_:b2", b'"plain"', b'""', b'"tab\\there"',
    b'"nl\\nand cr\\r"', b'"\\"\\"x"', b'"a\\\\b"', b'"\\u00E9 \\U0001F600"', b'"\\uD800"',
    b'"\\U00110000"', b'"\\U80000000"', b'"raw \x01 \x0b \x0c \x1f \x7f"', "\"中文 ü\"".encode(),
    b'"bad \xff byte"', b'"\xc3"', b'"dbpedia-instance"', b'"v"@en', b'"1"^^<http://x/int>',
    b'"x\\q"',
]
_JUNK = [b"", b"   ", b"# a comment", b"not a triple", b"<http://x/a> <http://x/p>",
         b"\xff\xfe", b"<http://x/a\x01> <http://x/p> <http://x/o> ."]


@st.composite
def _kb_lines(draw, host: str) -> list[bytes]:
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(_JUNK)))
        else:
            subject = draw(st.sampled_from(_SUBJECTS[host]))[0]
            lines.append(b" ".join([subject, draw(st.sampled_from(_PREDICATES)),
                                    draw(st.sampled_from(_OBJECTS))]) + b" .")
    # One line every run keeps, so each KB compiles and each join matches.
    return lines + [f'<http://{host}/0> <http://x/p> "kept" .'.encode()]


@st.composite
def _gt_lines(draw, left: str, tsv: bool) -> list[bytes]:
    uris = {host: [uri.encode() for _, uri in _SUBJECTS[host] if uri] for host in (left, "d")}
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(_JUNK + [b"a\tb\tc", b"\xc3\tx"])))
            continue
        pair = draw(st.sampled_from(uris[left])), draw(st.sampled_from(uris["d"]))
        if tsv:
            lines.append(b"\t".join(pair))
        else:
            lines.append(b"<%b> <%b> <%b> ." % (pair[0], OWL_SAMEAS.encode(), pair[1]))
    kept = (b"http://%b/0" % left.encode(), b"http://d/0")
    return lines + [b"\t".join(kept) if tsv else b"<%b> <%b> <%b> ." % (
        kept[0], OWL_SAMEAS.encode(), kept[1])]


def _write(path: str, lines: list[bytes], ending: bytes) -> None:
    with open(path, "wb") as fh:
        fh.write(b"".join(line + ending for line in lines))


def _link_ids(path: str) -> list[bytes]:
    with open(path, "rb") as fh:
        return [line.split(b"\t", 1)[0] for line in fh]


@settings(max_examples=25, deadline=None)
@given(
    kbs=st.tuples(_kb_lines("f"), _kb_lines("d"), _kb_lines("y")),
    gt_fd=_gt_lines("f", tsv=True),
    gt_yd=_gt_lines("y", tsv=False),
    endings=st.lists(st.sampled_from([b"\n", b"\r\n"]), min_size=5, max_size=5),
    budget=st.sampled_from([256, 1 << 20]),
)
def test_every_output_passes_validate(kbs, gt_fd, gt_yd, endings, budget):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = ExecConfig(memory_budget_bytes=budget, spill_dir=os.path.join(tmp, "spill"))
        out = {}
        for label, lines, ending in zip(LABELS, kbs, endings):
            nt = os.path.join(tmp, f"{label}.nt")
            _write(nt, lines, ending)
            out[label] = os.path.join(tmp, f"{label}.ents")
            compile_kb(KbSpec(label, [nt], out[label]), cfg)
        _write(os.path.join(tmp, "gt_fd.tsv"), gt_fd, endings[3])
        _write(os.path.join(tmp, "gt_yd.nt"), gt_yd, endings[4])
        out["fd"] = os.path.join(tmp, "fd.links")
        out["yd"] = os.path.join(tmp, "yd.links")
        join2(out["freebase"], out["dbpedia"], os.path.join(tmp, "gt_fd.tsv"), "tsv-pairs",
              ("freebase", "dbpedia"), out["fd"], cfg)
        join2(out["yago"], out["dbpedia"], os.path.join(tmp, "gt_yd.nt"), "ntriples-sameas",
              ("yago", "dbpedia"), out["yd"], cfg)
        out["dfy"] = os.path.join(tmp, "dfy.links")
        report = join3(out["fd"], out["yd"], "dbpedia", ORDER, out["dfy"], cfg)
        assert report.lines_emitted >= 1  # the kept lines join through
        for name, path in out.items():
            mode = "entity" if name in LABELS else "link3" if name == "dfy" else "link2"
            result = validate(path, mode)
            assert (name, result.violation_count, result.violations) == (name, 0, [])
            if mode != "entity":
                ids = _link_ids(path)
                assert len(ids) == len(set(ids))
        assert os.listdir(os.path.join(tmp, "spill")) == []


# --- the three promises at spilling budgets -----------------------------------

_PIPELINE_CFG = """\
kb1.label=freebase
kb1.inputs=freebase.nt
kb1.out=out/freebase.ents
kb2.label=dbpedia
kb2.inputs=dbpedia.nt
kb2.out=out/dbpedia.ents
kb3.label=yago
kb3.inputs=yago.nt
kb3.out=out/yago.ents
link1.gt=gt_fd.tsv
link1.gt_format=tsv-pairs
link1.out=out/fd.links
link2.gt=gt_yd.nt
link2.gt_format=ntriples-sameas
link2.out=out/yd.links
join3.out=out/dfy.links
join3.order=dbpedia,freebase,yago
"""
_PIPELINE_OUTPUTS = ["freebase.ents", "dbpedia.ents", "yago.ents", "fd.links", "yd.links",
                     "dfy.links"]


@st.composite
def _gt_with_faults(draw, left: str, tsv: bool) -> list[bytes]:
    """_gt_lines with a duplicate of the pair every run keeps and a pair
    whose URIs no KB holds, in a drawn order."""
    lines = draw(_gt_lines(left, tsv))
    dangling = (b"http://%b/absent\thttp://d/absent" % left.encode() if tsv else
                b"<http://%b/absent> <%b> <http://d/absent> ." % (left.encode(),
                                                                  OWL_SAMEAS.encode()))
    return draw(st.permutations(lines + [lines[-1], dangling]))


def _open_fds() -> int | None:
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def _run_pipeline(tmp: str, budget_flag: list[str]) -> tuple[int, list[str], dict]:
    """cli pipeline's exit status, its error: lines and each output's bytes
    (None where missing); checks that it leaves no spill run, temp file or
    descriptor behind."""
    out_dir = os.path.join(tmp, "out")
    spill = os.path.join(tmp, "spill")
    stderr = io.StringIO()
    fds = _open_fds()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        status = cli.main(["pipeline", "--config", os.path.join(tmp, "pipe.cfg"),
                           "--spill-dir", spill, *budget_flag])
    assert _open_fds() == fds
    assert not os.path.isdir(spill) or os.listdir(spill) == []
    left = os.listdir(out_dir) if os.path.isdir(out_dir) else []
    assert set(left) <= set(_PIPELINE_OUTPUTS), left  # no <out>.<pid>.tmp
    outputs = {name: pathlib.Path(out_dir, name).read_bytes() if name in left else None
               for name in _PIPELINE_OUTPUTS}
    shutil.rmtree(out_dir, ignore_errors=True)
    errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
    return status, errors, outputs


@settings(max_examples=20, deadline=None)
@given(
    kbs=st.tuples(_kb_lines("f"), _kb_lines("d"), _kb_lines("y")),
    hub=st.integers(0, 40),
    gt_fd=_gt_with_faults("f", tsv=True),
    gt_yd=_gt_with_faults("y", tsv=False),
    endings=st.lists(st.sampled_from([b"\n", b"\r\n", b"\r"]), min_size=5, max_size=5),
)
# A refusal, drawn on every run: yago holds no parseable triple, so its
# compile fails after the other two KBs' sorts have spilled.
@example(
    kbs=([b'<http://f/0> <http://x/p> "kept" .'], [b'<http://d/0> <http://x/p> "kept" .'],
         [b"not a triple", b"\xff\xfe"]),
    hub=20,
    gt_fd=[b"http://f/0\thttp://d/0"],
    gt_yd=[b"<http://y/0> <%b> <http://d/0> ." % OWL_SAMEAS.encode()],
    endings=[b"\n", b"\r\n", b"\r", b"\n", b"\n"],
)
def test_pipeline_keeps_its_promises_at_every_budget(kbs, hub, gt_fd, gt_yd, endings):
    # A 64-byte budget spills every item as its own run, 4 KiB spills some
    # sorts and the default none; the outputs, or the one refusal, must not
    # depend on which.  The shared KB's hub subject holds `hub` more values.
    kbs = (kbs[0], kbs[1] + [b'<http://d/0> <http://x/hub> "v%d" .' % i for i in range(hub)],
           kbs[2])
    with tempfile.TemporaryDirectory() as tmp:
        for name, lines, ending in zip(["freebase.nt", "dbpedia.nt", "yago.nt", "gt_fd.tsv",
                                        "gt_yd.nt"], [*kbs, gt_fd, gt_yd], endings):
            _write(os.path.join(tmp, name), lines, ending)
        with open(os.path.join(tmp, "pipe.cfg"), "w", encoding="utf-8") as fh:
            fh.write(_PIPELINE_CFG)
        runs = [_run_pipeline(tmp, flag)
                for flag in (["--memory-budget", "64"], ["--memory-budget", "4096"], [])]
    status, errors, outputs = runs[0]
    assert all(run == runs[0] for run in runs[1:])
    if status == 0:
        assert errors == [] and None not in outputs.values()
    else:
        assert len(errors) == 1


# --- every OS seam fails at every call ----------------------------------------

# The OS calls a pipeline makes, each a seam where the sweep plants a fault.
# Both of atomic_output's fsyncs, the temp file's and its directory's, are
# one seam: their calls alternate.
SEAMS = ("spill create", "spill write", "spill read", "output write", "fsync", "replace",
         "input open", "input read")
_WRITE_SEAMS = {"spill write", "output write"}


class _Seams:
    """Counts each seam's calls in a run, and fails the k-th call of one:
    ENOSPC for a write, as a full disk would, and EIO for any other call."""

    def __init__(self):
        self.calls = dict.fromkeys(SEAMS, 0)
        self.fault: tuple[str, int] | None = None

    def hit(self, seam: str) -> None:
        self.calls[seam] += 1
        if self.fault == (seam, self.calls[seam]):
            code = errno.ENOSPC if seam in _WRITE_SEAMS else errno.EIO
            raise OSError(code, os.strerror(code))


def _plant_seams(monkeypatch, seams: _Seams) -> None:
    """Route every seam of the program's I/O through `seams`.  The buffered
    layers call their raw file's readinto and write by name, so a raw file
    of the class below passes each of them through its seam."""

    class SeamFile(io.FileIO):
        read_seam = write_seam = None

        def readinto(self, buffer):
            seams.hit(self.read_seam)
            return super().readinto(buffer)

        def write(self, data):
            seams.hit(self.write_seam)
            return super().write(data)

    class Output(engine._OutputFile, SeamFile):
        # _OutputFile's write reaches SeamFile's under its own error
        # wrapper, so a planted fault reads as a real one would.
        write_seam = "output write"

    make_temp, real_open = tempfile.TemporaryFile, open
    fsync, replace = os.fsync, os.replace

    def spill_file(*args, **kwargs):
        seams.hit("spill create")
        with make_temp(*args, **kwargs) as file:
            run = SeamFile(os.dup(file.fileno()), "r+")
        run.read_seam, run.write_seam = "spill read", "spill write"
        return run

    def input_open(file, mode="r", *args, **kwargs):
        if mode != "rb":
            return real_open(file, mode, *args, **kwargs)
        seams.hit("input open")
        raw = SeamFile(file)
        raw.read_seam = "input read"
        return io.BufferedReader(raw)

    def seam(name, fn):
        def call(*args):
            seams.hit(name)
            return fn(*args)
        return call

    monkeypatch.setattr(tempfile, "TemporaryFile", spill_file)
    monkeypatch.setattr(engine, "_OutputFile", Output)
    monkeypatch.setattr(os, "fsync", seam("fsync", fsync))
    monkeypatch.setattr(os, "replace", seam("replace", replace))
    # The stages open their inputs through builtin open, looked up when
    # called, or through open_input's default opener, bound when defined.
    monkeypatch.setattr(builtins, "open", input_open)
    monkeypatch.setattr(engine.open_input, "__defaults__", (input_open,))


def test_every_os_fault_fails_the_pipeline_cleanly(tmp_path, monkeypatch):
    # The demo pipeline at a budget where every stage spills, run once to
    # count each seam's calls and then once per call of each seam with that
    # call failing.  Each faulty run must refuse the job: exit 2 with one
    # error line, no temp output, no spill run, no descriptor left open, no
    # warning of a file never closed, and each output as it was before the
    # run or whole and new; after a failed directory fsync, the replace has
    # put the new file in place.
    demo = pathlib.Path(__file__).resolve().parent.parent / "demo"
    for path in demo.iterdir():
        if path.is_file():
            shutil.copy(path, tmp_path / ("pipe.cfg" if path.name == "demo.cfg" else path.name))
    tmp, out_dir = str(tmp_path), tmp_path / "out"
    budget = ["--memory-budget", "1024"]
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    seams = _Seams()
    _plant_seams(monkeypatch, seams)
    status, errors, new = _run_pipeline(tmp, budget)
    assert (status, errors) == (0, [])
    counts = dict(seams.calls)
    assert all(counts.values()), counts
    assert counts["fsync"] == 2 * counts["replace"] == 2 * len(_PIPELINE_OUTPUTS)
    # Half the outputs hold an earlier run's bytes, half are absent.
    before = {name: b"earlier\n" if i % 2 else None for i, name in enumerate(_PIPELINE_OUTPUTS)}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for seam, k in [(seam, k) for seam in SEAMS for k in range(1, counts[seam] + 1)]:
            out_dir.mkdir()
            for name, data in before.items():
                if data is not None:
                    (out_dir / name).write_bytes(data)
            seams.calls = dict.fromkeys(SEAMS, 0)
            seams.fault = (seam, k)
            status, errors, outputs = _run_pipeline(tmp, budget)
            assert (status, len(errors)) == (2, 1), (seam, k, errors)
            assert not caught and not unraisable, (
                seam, k, [str(w.message) for w in caught], unraisable)
            for name, data in outputs.items():
                assert data in (before[name], new[name]), (seam, k, name)
