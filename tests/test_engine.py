import collections
import errno
import gc
import io
import itertools
import os
import random
import sys
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


class _FullDisk(io.BufferedWriter):
    """A spill file on a disk that fills after 300 bytes."""

    def write(self, data):
        if self.tell() + len(data) > 300:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return super().write(data)


def test_failed_spill_write_closes_its_file(tmp_path, monkeypatch):
    monkeypatch.setattr(
        engine.os, "fdopen", lambda fd, mode, buffering: _FullDisk(io.FileIO(fd, "wb"), buffering)
    )
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
    assert list((tmp_path / "spill").iterdir()) == []


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


def test_reduce_failure_names_key(tmp_path):
    def boom(key, items):
        if key == b"bad":
            raise ValueError("nope")
        return []

    items = [b"ok%03d\tx" % i for i in range(300)] + [b"bad\ty"]
    stats = JobStats()
    with pytest.raises(EngineError, match="bad"):
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
    assert stats.spill_runs >= 2
    assert left_behind == []


def test_memory_budget_bounds_sort_buffer(tmp_path):
    budget = 64 * 1024
    stats = JobStats()
    # ~10x the budget
    items = [b"k%06d\t" % i + b"v" * 50 for i in range(10_000)]
    list(external_sort(iter(items), cfg_for(tmp_path, memory_budget_bytes=budget), stats))
    assert stats.spill_runs >= 2
    # per-item accounting grants a constant overhead on top of the raw bytes
    assert stats.peak_buffer_bytes <= budget + 200


def test_skewed_key_streams_through_reducer(tmp_path):
    # one key owns 50% of all items; a streaming reducer must finish with the
    # sorter spilling rather than buffering the whole group
    n = 20_000
    skewed = [b"hot\t%d" % i for i in range(n // 2)]
    rest = [b"k%d\t%d" % (i % 997, i) for i in range(n // 2)]
    stats = JobStats()
    out = list(
        run_group_by(
            [(0, iter(skewed + rest))],
            first_field,
            count_reduce,
            cfg_for(tmp_path, memory_budget_bytes=16 * 1024),
            stats=stats,
        )
    )
    assert (b"hot:%d" % (n // 2)) in out
    assert stats.spill_runs > 0
    assert stats.peak_buffer_bytes < 16 * 1024 + 200


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
def test_item_without_a_key_field_rejected(tmp_path, bad):
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
    assert stats.spill_runs >= 2
    assert left_behind == []


# Bytes cut off the run's end: into the last item, all of it, and all but
# the first byte of its length, which alone reads as a length of 0.
@pytest.mark.parametrize("cut", [1, 256, 259])
def test_truncated_spill_run_names_the_run(tmp_path, cut):
    run = engine._Spill(str(tmp_path))
    run.write_items([b"a\t\x00first", b"b\t\x00" + b"s" * 253])  # 4 + 8, then 4 + 256 bytes
    with open(run.path, "r+b") as fh:
        fh.truncate(272 - cut)
    with pytest.raises(EngineError, match=f"truncated spill run {run.path}"):
        list(run.read_items())
    assert not os.path.exists(run.path)


def test_item_charge_is_its_real_size(tmp_path):
    items = [b"k\t", b"key\t" + b"v" * 100, "ключ\tзначение".encode()]
    stats = JobStats()
    assert list(external_sort(iter(items), cfg_for(tmp_path), stats)) == sorted(items)
    assert stats.peak_buffer_bytes == sum(sys.getsizeof(item) + 8 for item in items)


def test_bad_config_rejected(tmp_path):
    with pytest.raises(EngineError, match="memory_budget_bytes"):
        list(external_sort(iter([]), ExecConfig(memory_budget_bytes=0)))
    with pytest.raises(EngineError, match="memory_budget_bytes"):
        list(run_group_by([], first_field, count_reduce, ExecConfig(memory_budget_bytes=0)))


def test_one_sorter_gets_the_whole_budget(tmp_path):
    # 1000 items of 57 charged bytes fit a 100 KB budget in one sorter; a
    # budget split between sorters would spill.
    items = [b"k%05d\t" % i + b"v" * 8 for i in range(1000)]
    stats = JobStats()
    out = list(
        run_group_by(
            [(0, iter(items))],
            first_field,
            count_reduce,
            cfg_for(tmp_path, memory_budget_bytes=100_000),
            stats=stats,
        )
    )
    assert len(out) == 1000
    assert stats.spill_runs == 0
    assert stats.peak_buffer_bytes > 100_000 // 2


def test_spill_dir_is_job_scoped_and_removed(tmp_path):
    spill = tmp_path / "spill"
    seen = []

    def reduce_fn(key, items):
        seen.append(sorted(p.name for p in spill.iterdir()))
        yield from items

    items = [b"k%04d\tx" % i for i in range(2000)]
    list(
        run_group_by(
            [(0, iter(items))],
            first_field,
            reduce_fn,
            cfg_for(tmp_path, memory_budget_bytes=8 * 1024),
        )
    )
    # While the job runs, its runs live in one subdirectory of spill_dir.
    assert len(seen[0]) == 1 and seen[0][0].startswith("flatlink-")
    assert list(spill.iterdir()) == []



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
