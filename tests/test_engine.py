import collections
import errno
import gc
import io
import itertools
import os
import random
import signal
import stat
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatlink import engine
from flatlink.engine import (
    ExecConfig,
    JobStats,
    atomic_output,
    external_sort,
    first_field,
    run_group_by,
)
from flatlink.errors import EngineError


def cfg_for(tmp_path, **kw) -> ExecConfig:
    kw.setdefault("memory_budget_bytes", 1 << 20)
    kw.setdefault("spill_dir", str(tmp_path / "spill"))
    return ExecConfig(**kw)


# --- external sort ---------------------------------------------------------

def test_sort_already_sorted(tmp_path):
    items = [b"a\t1", b"b\t2", b"c\t3"]
    assert list(external_sort(iter(items), cfg_for(tmp_path))) == items


def test_sort_empty(tmp_path):
    assert list(external_sort(iter([]), cfg_for(tmp_path))) == []


def test_sort_spills_and_matches_in_memory_oracle(tmp_path):
    rng = random.Random(1)
    items = [
        f"k{rng.randrange(1000):04}\t{rng.randrange(3)}v{i}".encode() for i in range(20_000)
    ]
    reverse_sorted = sorted(items, reverse=True)
    stats = JobStats()
    got = list(
        external_sort(iter(reverse_sorted), cfg_for(tmp_path, memory_budget_bytes=64 * 1024), stats)
    )
    assert got == sorted(items)
    assert stats.spill_runs >= 2


def test_sort_cleans_spill_files(tmp_path):
    cfg = cfg_for(tmp_path, memory_budget_bytes=1024)
    items = [f"{i:05}\t".encode() + b"x" * 50 for i in range(2000)]
    list(external_sort(iter(items), cfg))
    assert list((tmp_path / "spill").iterdir()) == []


class _FullDisk(io.FileIO):
    """A spill run's raw file on a disk that fills after 300 bytes."""

    def write(self, data):
        if self.tell() + len(data) > 300:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(data)


def test_failed_spill_write_closes_its_file(tmp_path, monkeypatch):
    made = []
    temporary_file = tempfile.TemporaryFile

    def full_disk_file(**kwargs):
        with temporary_file(**kwargs) as raw:
            made.append(_FullDisk(os.dup(raw.fileno()), "r+b"))
        return made[-1]

    monkeypatch.setattr(engine.tempfile, "TemporaryFile", full_disk_file)
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    items = [f"{i:05}\t".encode() + b"x" * 50 for i in range(2000)]
    with warnings.catch_warnings():
        # As under CI's -W error::ResourceWarning: a file left open would
        # raise in its finalizer, which reports to sys.unraisablehook.
        warnings.simplefilter("error", ResourceWarning)
        with pytest.raises(OSError) as excinfo:
            list(external_sort(iter(items), cfg_for(tmp_path, memory_budget_bytes=4096)))
        assert excinfo.value.errno == errno.ENOSPC
        del excinfo  # its traceback holds the spill run
        gc.collect()
    assert unraisable == []
    assert len(made) == 1 and made[0].closed
    assert list((tmp_path / "spill").iterdir()) == []


@pytest.mark.parametrize("budget", [1024, 1 << 20])
def test_items_in_counts_the_items_of_every_sort(tmp_path, budget):
    # Spilled or held in memory, through external_sort or run_group_by.
    cfg = cfg_for(tmp_path, memory_budget_bytes=budget)
    stats = JobStats()
    items = [f"{i % 97:03}\t{i}".encode() for i in range(500)]
    assert list(external_sort(iter(items), cfg, stats)) == sorted(items)
    list(run_group_by([(0, iter(items)), (1, iter(items[:30]))], first_field, count_reduce,
                      cfg, stats))
    assert stats.items_in == 500 + 530
    assert (stats.spill_runs > 0) == (budget == 1024)


def test_group_by_sorts_through_external_sort(tmp_path, monkeypatch):
    # Every sort of every stage is one external_sort call, the name the
    # traced benchmark times sorts by; the shuffle's sort too.
    calls = []

    def recording(items, cfg, stats=None):
        calls.append(stats)
        return external_sort(items, cfg, stats)

    monkeypatch.setattr(engine, "external_sort", recording)
    stats = JobStats()
    items = [f"{i % 97:03}\t{i}".encode() for i in range(500)]
    list(run_group_by([(0, iter(items))], first_field, count_reduce, cfg_for(tmp_path), stats))
    assert calls == [stats]
    assert stats.items_in == 500 and stats.keys_reduced == 97


def test_failed_sort_closes_a_sort_that_feeds_it(tmp_path, monkeypatch, spill_files):
    # The second sort fails while it reads the first, spilled one; the first
    # frees its runs at once, while the exception is still held.
    sorters = []

    class FailingSecond(engine.ExternalSorter):
        def add(self, item):
            if self not in sorters:
                sorters.append(self)
            if len(sorters) == 2:
                raise OSError(errno.ENOSPC, "second sort fails")
            super().add(item)

    monkeypatch.setattr(engine, "ExternalSorter", FailingSecond)
    first_spill, second_spill = tmp_path / "first", tmp_path / "second"
    stats = JobStats()
    items = [f"{i:05}\t".encode() + b"x" * 50 for i in range(200)]
    first = external_sort(iter(items), ExecConfig(1024, str(first_spill)), stats)
    with pytest.raises(OSError, match="second sort fails") as excinfo:  # noqa: F841, held
        list(external_sort(first, ExecConfig(1024, str(second_spill))))
    assert stats.spill_runs > 0
    assert len(spill_files) == stats.spill_runs and all(f.closed for f in spill_files)
    assert list(first_spill.iterdir()) == []
    assert list(second_spill.iterdir()) == []


# --- group by --------------------------------------------------------------

def count_reduce(key, items):
    n = 0
    for _ in items:
        n += 1
    yield key + b":" + str(n).encode()


def untag(key, item):
    """(tag, input item) of an engine item `key TAB tag-byte rest`."""
    return item[len(key) + 1], key + b"\t" + item[len(key) + 2 :]


def test_word_count(tmp_path):
    items = [b"a\t", b"b\t", b"a\t"]
    out = list(
        run_group_by([(0, iter(items))], first_field, count_reduce, cfg_for(tmp_path))
    )
    assert sorted(out) == [b"a:2", b"b:1"]


def test_cogroup_sees_both_tags_once(tmp_path):
    calls = []

    def reduce_fn(key, items):
        groups = collections.defaultdict(list)
        for tag, value in (untag(key, item) for item in items):
            groups[tag].append(value)
        calls.append((key, dict(groups)))
        return []

    list(
        run_group_by(
            [(0, iter([b"k\tx"])), (1, iter([b"k\ty", b"k\tz"]))],
            first_field,
            reduce_fn,
            cfg_for(tmp_path),
        )
    )
    assert calls == [(b"k", {0: [b"k\tx"], 1: [b"k\ty", b"k\tz"]})]


def _group_oracle(tagged_inputs):
    """Single-pass in-memory hash grouping; the independent reference."""
    groups = collections.defaultdict(lambda: collections.defaultdict(list))
    for tag, items in tagged_inputs:
        for item in items:
            key = item.split(b"\t")[0]
            groups[key][tag].append(item)
    out = []
    for key, tags in groups.items():
        total = sum(len(v) for v in tags.values())
        out.append(key + b":" + str(total).encode())
    return out


def test_group_by_matches_oracle_under_tiny_budget(tmp_path):
    rng = random.Random(3)
    items0 = [f"k{rng.randrange(500)}\t{i}".encode() for i in range(30_000)]
    items1 = [f"k{rng.randrange(500)}\t{i}".encode() for i in range(10_000)]
    expected = _group_oracle([(0, items0), (1, items1)])

    got = list(
        run_group_by(
            [(0, iter(items0)), (1, iter(items1))],
            first_field,
            count_reduce,
            cfg_for(tmp_path, memory_budget_bytes=32 * 1024),
        )
    )
    assert sorted(got) == sorted(expected)


def test_group_by_deterministic_bytes(tmp_path):
    rng = random.Random(5)
    items = [f"k{rng.randrange(100)}\t{rng.random()}".encode() for i in range(5000)]

    def run():
        return b"\n".join(
            run_group_by(
                [(0, iter(items))],
                first_field,
                count_reduce,
                cfg_for(tmp_path, memory_budget_bytes=8 * 1024),
            )
        )

    assert run() == run()


def test_group_by_merged_is_globally_key_sorted(tmp_path):
    # The merge of all spill runs yields every key group in ascending order.
    items = [f"k{i:03}\tv".encode() for i in range(500)]
    random.Random(9).shuffle(items)
    stats = JobStats()
    out = list(
        run_group_by(
            [(0, iter(items))],
            first_field,
            lambda key, items: [key],
            cfg_for(tmp_path, memory_budget_bytes=4 * 1024),
            stats=stats,
        )
    )
    assert out == sorted(out)
    assert len(out) == 500
    assert stats.spill_runs >= 2


def test_group_values_arrive_tag_then_value_sorted(tmp_path):
    seen = []

    def reduce_fn(key, items):
        seen.extend(untag(key, item) for item in items)
        return []

    list(
        run_group_by(
            [(1, iter([b"k\t9", b"k\t1"])), (0, iter([b"k\t5", b"k\t0"]))],
            first_field,
            reduce_fn,
            cfg_for(tmp_path),
        )
    )
    assert seen == [(0, b"k\t0"), (0, b"k\t5"), (1, b"k\t1"), (1, b"k\t9")]


def test_reduce_failure_propagates_as_raised(tmp_path, spill_files):
    # A reduce bug surfaces as itself, as in every stage, and the failed
    # sort's spill runs still go.
    def boom(key, items):
        if key == b"bad":
            raise ValueError("nope")
        return []

    items = [b"ok%03d\tx" % i for i in range(300)] + [b"bad\ty"]
    stats = JobStats()
    with pytest.raises(ValueError, match="^nope$"):
        try:
            list(
                run_group_by(
                    [(0, iter(items))],
                    first_field,
                    boom,
                    cfg_for(tmp_path, memory_budget_bytes=2048),
                    stats,
                )
            )
        finally:
            # Looked at while the exception, and so its traceback, is alive.
            left_behind = list((tmp_path / "spill").iterdir())
            left_open = [f for f in spill_files if not f.closed]
    assert stats.spill_runs >= 2
    assert left_behind == [] and left_open == []


def _charge(item: bytes) -> int:
    """What the sorter charges for a buffered item: its real size, and its
    8-byte slot in the buffer list."""
    return sys.getsizeof(item) + 8


def _tagged(items):
    """The items a run_group_by sort sees from an input of tag 0."""
    return [item.replace(b"\t", b"\t\x00", 1) for item in items]


def _replayed_runs(items, budget) -> list[int]:
    """The sorter's spill rule replayed over `items`: the runs spilled
    before each item is added, then the runs in all.  A buffer spills once
    its charge reaches the budget, and a sort that spilled spills a
    non-empty tail as one more run."""
    before = []
    runs = charge = 0
    for item in items:
        before.append(runs)
        charge += _charge(item)
        if charge >= budget:
            runs, charge = runs + 1, 0
    return before + [runs + (1 if runs and charge else 0)]


def _noting_runs(items, stats, seen):
    """Yield `items`, noting before each the runs spilled so far: the sorter
    adds an item before it asks for the next."""
    for item in items:
        seen.append(stats.spill_runs)
        yield item


def test_memory_budget_bounds_sort_buffer(tmp_path):
    budget = 64 * 1024
    stats = JobStats()
    # ~10x the budget
    items = [b"k%06d\t" % i + b"v" * 50 for i in range(10_000)]
    seen = []
    list(external_sort(_noting_runs(items, stats, seen),
                       cfg_for(tmp_path, memory_budget_bytes=budget), stats))
    # Each run spills at the item whose charge takes the buffer to the
    # budget, so no buffer passes it by more than one item.
    assert seen + [stats.spill_runs] == _replayed_runs(items, budget)
    assert stats.spill_runs >= 2


def test_skewed_key_streams_through_reducer(tmp_path):
    # one key owns 50% of all items; a streaming reducer must finish with the
    # sorter spilling rather than buffering the whole group
    n = 20_000
    skewed = [b"hot\t%d" % i for i in range(n // 2)]
    rest = [b"k%d\t%d" % (i % 997, i) for i in range(n // 2)]
    stats = JobStats()
    seen = []
    out = list(
        run_group_by(
            [(0, _noting_runs(skewed + rest, stats, seen))],
            first_field,
            count_reduce,
            cfg_for(tmp_path, memory_budget_bytes=16 * 1024),
            stats=stats,
        )
    )
    assert (b"hot:%d" % (n // 2)) in out
    assert stats.spill_runs > 0
    # The sort sees each item with its tag byte.
    assert seen + [stats.spill_runs] == _replayed_runs(_tagged(skewed + rest), 16 * 1024)


def test_chained_in_memory_sorts_hold_about_one_buffer(tmp_path):
    # The first job's reduce yields new bytes, which the second job buffers
    # while the first job's sort, which never spilled, drains into it.  Each
    # item the first sort has yielded must be free by then.
    n = 20_000
    # Either sort's items, tagged, have this charge in all, and a budget one
    # byte over it holds each sort in memory.
    charge = n * _charge(b"k%06d\t\x00" % 0 + b"v" * 100)
    cfg = cfg_for(tmp_path, memory_budget_bytes=charge + 1)
    stats = JobStats()
    items = (b"k%06d\t" % (i * 7919 % n) + b"v" * 100 for i in range(n))

    def copy(key, group):
        for item in group:
            yield key + b"\t" + item[len(key) + 2 :]

    tracemalloc.start()
    try:
        first = run_group_by([(0, items)], first_field, copy, cfg, stats)
        for _ in run_group_by([(0, first)], first_field, lambda key, group: (), cfg, stats):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.spill_runs == 0 and stats.keys_reduced == 2 * n
    assert peak <= 1.5 * charge


@pytest.mark.slow
def test_group_by_million_items_16mib(tmp_path):
    rng = random.Random(16)
    keys = [f"k{rng.randrange(50_000)}".encode() for _ in range(1_000_000)]

    expected = collections.Counter(keys)
    got = run_group_by(
        [(0, (key + b"\t1" for key in keys))],
        first_field,
        count_reduce,
        cfg_for(tmp_path, memory_budget_bytes=16 * 1024 * 1024),
    )
    got_counts = {}
    for out in got:
        key, _, count = out.partition(b":")
        got_counts[key] = int(count)
    assert got_counts == expected


def test_empty_key_rejected(tmp_path):
    with pytest.raises(EngineError, match="empty key"):
        list(
            run_group_by(
                [(0, iter([b"\tx"]))],
                first_field,
                count_reduce,
                cfg_for(tmp_path),
            )
        )


# Keys from the bytes above 0x20, with some prefixes of others; payloads with
# the bytes that delimit items, lines and C strings.
_KEYS = st.one_of(
    st.sampled_from([b"a", b"a!", b"ab", b"b", b"\xff", b"a\xff"]),
    st.lists(st.integers(0x21, 0xFF), min_size=1, max_size=4).map(bytes),
)
_PAYLOADS = st.lists(st.sampled_from([b"\t", b"\n", b"\x00", b"x", b"\xff", b"!"]), max_size=6).map(
    b"".join
)
_TRIPLES = st.lists(st.tuples(_KEYS, st.integers(0, 2), _PAYLOADS), min_size=24, max_size=80)


@settings(max_examples=100, deadline=None)
@given(triples=_TRIPLES, spill=st.booleans())
def test_group_by_matches_tuple_sort_reference(tmp_path_factory, triples, spill):
    # The reference orders (key, tag, payload) tuples and groups them by key:
    # a key that is a prefix of another comes first, as its TAB sorts below
    # every key byte, and each key's items come by tag, then payload.
    expected = [
        (key, [(tag, payload) for _, tag, payload in group])
        for key, group in itertools.groupby(sorted(triples), key=lambda t: t[0])
    ]
    inputs = [
        (tag, [key + b"\t" + payload for key, t, payload in triples if t == tag])
        for tag in (2, 0, 1)
    ]
    # Two of the largest items fill the budget, so no run holds more than
    # three items' charge and the 24 or more items make at least 3 runs.
    charge = max(len(item) + 1 + engine._ITEM_OVERHEAD for _, items in inputs for item in items)
    tmp_path = tmp_path_factory.mktemp("group")
    cfg = cfg_for(tmp_path, memory_budget_bytes=2 * charge if spill else 1 << 20)
    got = []

    def record(key, items):
        got.append((key, [(item[len(key) + 1], item[len(key) + 2 :]) for item in items]))
        return []

    stats = JobStats()
    assert list(run_group_by(inputs, first_field, record, cfg, stats)) == []
    assert got == expected
    assert stats.spill_runs >= 3 if spill else stats.spill_runs == 0
    assert list((tmp_path / "spill").iterdir()) == []


@pytest.mark.parametrize("bad", [b"no tab", b"\tempty key", b""])
def test_item_without_a_key_field_rejected(tmp_path, bad, spill_files):
    items = [b"k%04d\tx" % i for i in range(500)] + [bad]
    stats = JobStats()
    with pytest.raises(EngineError, match="empty key or no TAB"):
        try:
            list(
                run_group_by(
                    [(0, iter(items))],
                    first_field,
                    count_reduce,
                    cfg_for(tmp_path, memory_budget_bytes=2048),
                    stats,
                )
            )
        finally:
            left_behind = list((tmp_path / "spill").iterdir())
            left_open = [f for f in spill_files if not f.closed]
    assert stats.spill_runs >= 2
    assert left_behind == [] and left_open == []


# Bytes cut off the run's end: into the last item, all of it, and all but
# the first byte of its length, which alone reads as a length of 0.
@pytest.mark.parametrize("cut", [1, 256, 259])
def test_truncated_spill_run_names_the_run(tmp_path, cut):
    # Items of 4 + 8 and 4 + 256 bytes: 272 in all.
    run = engine._Spill(str(tmp_path), [b"a\t\x00first", b"b\t\x00" + b"s" * 253])
    run.file.truncate(272 - cut)
    with pytest.raises(EngineError, match=f"truncated spill run in {tmp_path}"):
        list(run.read_items())
    assert run.file.closed


def test_item_charge_is_its_real_size(tmp_path):
    # A budget of exactly the items' charge spills them as one run at the
    # last item; one byte more holds them all.
    items = [b"k\t", b"key\t" + b"v" * 100, "ключ\tзначение".encode()]
    charge = sum(map(_charge, items))
    for budget, runs in [(charge, 1), (charge + 1, 0)]:
        stats = JobStats()
        cfg = cfg_for(tmp_path, memory_budget_bytes=budget)
        assert list(external_sort(iter(items), cfg, stats)) == sorted(items)
        assert stats.spill_runs == runs


def test_bad_config_rejected(tmp_path):
    with pytest.raises(EngineError, match="memory_budget_bytes"):
        list(external_sort(iter([]), ExecConfig(memory_budget_bytes=0)))
    with pytest.raises(EngineError, match="memory_budget_bytes"):
        list(run_group_by([], first_field, count_reduce, ExecConfig(memory_budget_bytes=0)))


def test_one_sorter_gets_the_whole_budget(tmp_path):
    # One sorter holds the tagged items' whole charge: a budget of exactly
    # that spills them as one run at the last item, and one byte more holds
    # them all.  A budget split between sorters would spill more runs.
    items = [b"k%05d\t" % i + b"v" * 8 for i in range(1000)]
    charge = sum(map(_charge, _tagged(items)))
    for budget, runs in [(charge, 1), (charge + 1, 0)]:
        stats = JobStats()
        out = list(
            run_group_by(
                [(0, iter(items))],
                first_field,
                count_reduce,
                cfg_for(tmp_path, memory_budget_bytes=budget),
                stats=stats,
            )
        )
        assert len(out) == 1000
        assert stats.spill_runs == runs


def test_spill_runs_are_never_visible_in_spill_dir(tmp_path):
    # Each run is an unnamed file: it takes disk space in spill_dir while
    # the sort merges, but no listing shows it, then or after.
    spill = tmp_path / "spill"
    seen = []

    def reduce_fn(key, items):
        seen.append(list(spill.iterdir()))
        yield from items

    stats = JobStats()
    items = [b"k%04d\tx" % i for i in range(2000)]
    list(
        run_group_by(
            [(0, iter(items))],
            first_field,
            reduce_fn,
            cfg_for(tmp_path, memory_budget_bytes=8 * 1024),
            stats,
        )
    )
    assert stats.spill_runs >= 2
    assert seen[0] == [] and seen[-1] == []
    assert list(spill.iterdir()) == []


_SIGKILLED_CHILD = """
import sys
from flatlink.engine import ExecConfig, JobStats, external_sort

stats = JobStats()


def items():
    for i in range(10**6):
        if stats.spill_runs == 3:
            print("spilled", flush=True)
            sys.stdin.read()  # the parent kills the sort here
        yield b"k%07d\\t" % (10**6 - i) + b"x" * 40


list(external_sort(items(), ExecConfig(256, sys.argv[1]), stats))
"""


def test_sigkilled_sort_leaves_its_spill_dir_empty(tmp_path):
    # No cleanup runs in a killed process: its runs are gone only because
    # the kernel frees an unnamed file when its last descriptor closes.
    spill = tmp_path / "spill"
    src = os.path.join(os.path.dirname(engine.__file__), os.pardir)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.abspath(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    child = subprocess.Popen([sys.executable, "-c", _SIGKILLED_CHILD, str(spill)], env=env,
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        assert child.stdout.readline() == b"spilled\n"
        fd_dir = f"/proc/{child.pid}/fd"
        if os.path.isdir(fd_dir):  # Linux: the three runs are open in spill
            targets = [os.readlink(os.path.join(fd_dir, fd)) for fd in os.listdir(fd_dir)]
            runs = os.path.join(os.path.realpath(spill), "")
            assert sum(t.startswith(runs) for t in targets) == 3
        assert list(spill.iterdir()) == []
    finally:
        child.kill()
        child.wait()
        child.stdin.close()
        child.stdout.close()
    assert child.returncode == -signal.SIGKILL
    assert list(spill.iterdir()) == []


_FEW_DESCRIPTORS_CHILD = """
import random
import resource
import sys
from flatlink.engine import ExecConfig, external_sort

soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
limit = 64 if soft == resource.RLIM_INFINITY else min(64, soft)
resource.setrlimit(resource.RLIMIT_NOFILE, (limit, hard))
rng = random.Random(12)
items = (rng.randbytes(41) for _ in range(200_000))
with open(sys.argv[2], "wb") as out:
    for item in external_sort(items, ExecConfig(16 * 1024, sys.argv[1])):
        out.write(item)
"""


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 12")
def test_sort_of_more_runs_than_descriptors_completes(tmp_path):
    # The child lowers its own soft descriptor limit to 64, and its sort
    # makes about 1,000 runs: a merge must not need a descriptor per run.
    pytest.importorskip("resource")
    src = os.path.join(os.path.dirname(engine.__file__), os.pardir)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.abspath(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = tmp_path / "sorted"
    child = subprocess.run(
        [sys.executable, "-c", _FEW_DESCRIPTORS_CHILD, str(tmp_path / "spill"), str(out)],
        env=env, capture_output=True,
    )
    assert child.returncode == 0
    rng = random.Random(12)
    assert out.read_bytes() == b"".join(sorted(rng.randbytes(41) for _ in range(200_000)))


# --- output files ------------------------------------------------------------


def test_atomic_output_replaces_target_on_success(tmp_path):
    target = tmp_path / "out"
    target.write_bytes(b"old\n")
    with atomic_output(str(target)) as out:
        out.write(b"new\n")
        assert target.read_bytes() == b"old\n"  # readers see the old file meanwhile
    assert target.read_bytes() == b"new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_atomic_output_failure_keeps_target_and_leaves_no_temp(tmp_path):
    target = tmp_path / "out"
    target.write_bytes(b"old\n")
    with pytest.raises(ZeroDivisionError):
        with atomic_output(str(target)) as out:
            out.write(b"partial")
            1 / 0
    assert target.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_atomic_output_that_cannot_replace_its_target_names_it(tmp_path):
    # The target turns into a non-empty directory while the block runs, so
    # os.replace fails: the error names the target, not the temp file, the
    # temp file goes and the directory stays as it is.
    target = tmp_path / "out"
    with pytest.raises(EngineError) as exc:
        with atomic_output(str(target)) as out:
            out.write(b"new\n")
            target.mkdir()
            (target / "kept").write_bytes(b"old\n")
    assert str(exc.value) == f"cannot write {target}: {os.strerror(errno.EISDIR)}"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert [p.name for p in target.iterdir()] == ["kept"]
    assert (target / "kept").read_bytes() == b"old\n"


def test_atomic_output_syncs_the_file_before_the_replace_and_its_dir_after(
    tmp_path, monkeypatch
):
    # A crash then leaves the old file or the whole new one: the bytes are
    # on disk before the new name points at them, and the name before the
    # stage ends.
    calls = []
    fsync, replace = os.fsync, os.replace

    def recording_fsync(fd):
        info = os.fstat(fd)
        calls.append(("dir fsync", info.st_ino) if stat.S_ISDIR(info.st_mode)
                     else ("file fsync", info.st_size))
        fsync(fd)

    def recording_replace(src, dst):
        calls.append(("replace", os.path.basename(dst)))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    monkeypatch.setattr(os, "replace", recording_replace)
    with atomic_output(str(tmp_path / "out")) as out:
        out.write(b"new\n")
    assert calls == [("file fsync", 4), ("replace", "out"), ("dir fsync", tmp_path.stat().st_ino)]
    assert (tmp_path / "out").read_bytes() == b"new\n"


def test_atomic_output_whose_fsync_fails_names_it_and_changes_nothing(tmp_path, monkeypatch):
    target = tmp_path / "out"
    target.write_bytes(b"old\n")

    def failing_fsync(fd):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(EngineError) as exc:
        with atomic_output(str(target)) as out:
            out.write(b"new\n")
    assert str(exc.value) == f"cannot write {target}: {os.strerror(errno.EIO)}"
    assert target.read_bytes() == b"old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_atomic_output_whose_dir_fsync_fails_names_it_after_the_replace(
    tmp_path, monkeypatch
):
    # The directory is synced after the rename, so the refusal comes with
    # the whole new file already under the output's name.
    target = tmp_path / "out"
    target.write_bytes(b"old\n")
    fsync = os.fsync

    def dir_failing_fsync(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", dir_failing_fsync)
    with pytest.raises(EngineError) as exc:
        with atomic_output(str(target)) as out:
            out.write(b"new\n")
    assert str(exc.value) == f"cannot write {target}: {os.strerror(errno.EIO)}"
    assert target.read_bytes() == b"new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out"]


def test_atomic_output_gets_the_mode_of_a_plainly_opened_file(tmp_path):
    # mkstemp would create 0600; a new file from open(path, "wb") gets
    # 0666 less the umask.
    old_mask = os.umask(0o027)
    try:
        with open(tmp_path / "plain", "wb"):
            pass
        with atomic_output(str(tmp_path / "atomic")):
            pass
    finally:
        os.umask(old_mask)
    assert (tmp_path / "atomic").stat().st_mode == (tmp_path / "plain").stat().st_mode
    assert (tmp_path / "atomic").stat().st_mode & 0o777 == 0o640
