"""Local, deterministic map-shuffle-reduce with bounded-memory external sort.

Items are (key, tag, value) tuples of bytes/int/bytes.  Each job feeds all of
its items to one sorter that holds the whole memory budget.  The sorter
orders them by (key, tag, value), spilling length-prefixed runs to disk
whenever its buffer fills the budget, then merges the runs so that each key
group is reduced once, in ascending key order.  Two runs over the same inputs
are byte-identical, whatever the budget.

Spill run format (private, deleted when the job ends): a sequence of records
``<u32 key_len><u32 tag><u32 value_len><key bytes><value bytes>``, all
little-endian, in sorted order.

Every stage writes its output file through ``atomic_output``, so the file
appears whole or not at all.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import os
import shutil
import struct
import tempfile
from dataclasses import dataclass
from operator import itemgetter
from typing import BinaryIO, Callable, Iterable, Iterator

from .errors import EngineError, FlatlinkError

KeyedItem = tuple[bytes, int, bytes]  # (key, tag, value)

_RUN_HEADER = struct.Struct("<III")

# Rough per-item bookkeeping cost charged against the sort budget on top of
# the raw key/value bytes (tuple + object headers).
_ITEM_OVERHEAD = 64


@dataclass
class ExecConfig:
    memory_budget_bytes: int = 256 * 1024 * 1024
    spill_dir: str | None = None

    def validate(self) -> None:
        if self.memory_budget_bytes < 1:
            raise EngineError("memory_budget_bytes must be >= 1")


@dataclass
class JobStats:
    """Filled in as a job runs; spill_runs is the observable for scale tests.

    peak_buffer_bytes is the largest in-memory buffer one sort of the job
    held, which is that sort's whole footprint.  A sort that spilled holds
    no buffer while it merges, so sorts chained lazily (as in join2 and
    join3) hold two buffers at once only when the earlier one never
    spilled; this figure does not add those two up.
    """

    items_in: int = 0
    spill_runs: int = 0
    peak_buffer_bytes: int = 0
    keys_reduced: int = 0

    def saw_buffer(self, nbytes: int) -> None:
        if nbytes > self.peak_buffer_bytes:
            self.peak_buffer_bytes = nbytes


class _Spill:
    """One sorted run on disk."""

    def __init__(self, spill_dir: str):
        fd, self.path = tempfile.mkstemp(prefix="run-", suffix=".spill", dir=spill_dir)
        self._fh = os.fdopen(fd, "wb", buffering=1 << 16)

    def write_items(self, items: Iterable[KeyedItem]) -> None:
        write = self._fh.write
        for key, tag, value in items:
            write(_RUN_HEADER.pack(len(key), tag, len(value)))
            write(key)
            write(value)
        self._fh.close()

    def read_items(self) -> Iterator[KeyedItem]:
        try:
            with open(self.path, "rb", buffering=1 << 16) as fh:
                while True:
                    header = fh.read(_RUN_HEADER.size)
                    if not header:
                        return
                    if len(header) != _RUN_HEADER.size:
                        raise EngineError(f"truncated spill run {self.path}")
                    klen, tag, vlen = _RUN_HEADER.unpack(header)
                    key = fh.read(klen)
                    value = fh.read(vlen)
                    if len(key) != klen or len(value) != vlen:
                        raise EngineError(f"truncated spill run {self.path}")
                    yield key, tag, value
        finally:
            try:
                os.unlink(self.path)
            except OSError:
                pass


class ExternalSorter:
    """Buffers (key, tag, value) items, spilling sorted runs past the budget."""

    def __init__(self, budget_bytes: int, spill_dir: str, stats: JobStats | None = None):
        self.budget_bytes = max(budget_bytes, 1)
        self.spill_dir = spill_dir
        self.stats = stats if stats is not None else JobStats()
        self._buffer: list[KeyedItem] = []
        self._buffer_bytes = 0
        self._runs: list[_Spill] = []

    def add(self, item: KeyedItem) -> None:
        self._buffer.append(item)
        self._buffer_bytes += len(item[0]) + len(item[2]) + _ITEM_OVERHEAD
        if self._buffer_bytes >= self.budget_bytes:
            self._spill()

    def _spill(self) -> None:
        if not self._buffer:
            return
        self.stats.saw_buffer(self._buffer_bytes)
        self._buffer.sort()
        run = _Spill(self.spill_dir)
        run.write_items(self._buffer)
        self._runs.append(run)
        self.stats.spill_runs += 1
        self._buffer = []
        self._buffer_bytes = 0

    def iter_sorted(self) -> Iterator[KeyedItem]:
        """Consume the sorter: yields all items sorted by (key, tag, value).

        A sort that never spilled yields from memory.  One that did spills
        its tail as one more run and merges runs only, so it holds no buffer
        while a later sort of the same job fills its own.
        """
        if not self._runs:
            self.stats.saw_buffer(self._buffer_bytes)
            self._buffer.sort()
            yield from self._buffer
            self._buffer = []
            return
        self._spill()
        yield from heapq.merge(*[run.read_items() for run in self._runs])
        self._runs = []


def external_sort(
    items: Iterable[KeyedItem],
    cfg: ExecConfig,
    stats: JobStats | None = None,
) -> Iterator[KeyedItem]:
    """Sort an arbitrarily large stream by (key, tag, value)."""
    return _sorted(items, cfg, stats)


def _sorted(
    items: Iterable[KeyedItem], cfg: ExecConfig, stats: JobStats | None
) -> Iterator[KeyedItem]:
    # The sort path of external_sort and run_group_by: one sorter with the
    # whole budget in a job-scoped spill dir, made at the first item pulled
    # and removed when the merge ends or the generator is closed.
    cfg.validate()
    with _spill_scope(cfg) as spill_dir:
        sorter = ExternalSorter(cfg.memory_budget_bytes, spill_dir, stats)
        add = sorter.add
        for item in items:
            add(item)
        yield from sorter.iter_sorted()


@contextlib.contextmanager
def atomic_output(path: str) -> Iterator[BinaryIO]:
    """Open a temp file beside `path` for binary writing, and os.replace it
    onto `path` when the block ends cleanly; on any exception remove it and
    leave `path` as it was.

    A failed stage so leaves no partial output, and an output may name one
    of its stage's inputs.  The temp file is opened as `path` would be, so
    it gets the same mode (not mkstemp's 0o600).
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as out:
            yield out
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


@contextlib.contextmanager
def _spill_scope(cfg: ExecConfig) -> Iterator[str]:
    """A job-scoped spill directory, removed with its contents on exit.

    It is made inside cfg.spill_dir when one is set, else in the system temp
    dir, and removed on success and on failure alike.
    """
    if cfg.spill_dir:
        os.makedirs(cfg.spill_dir, exist_ok=True)
    path = tempfile.mkdtemp(prefix="flatlink-", dir=cfg.spill_dir or None)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


ReduceFn = Callable[[bytes, Iterator[tuple[int, bytes]]], Iterable[bytes]]


def run_group_by(
    inputs: list[tuple[int, Iterable[bytes]]],
    key_fn: Callable[[bytes], bytes],
    reduce_fn: ReduceFn,
    cfg: ExecConfig,
    stats: JobStats | None = None,
) -> Iterator[bytes]:
    """Group all tagged input items by key and reduce each group once.

    reduce_fn(key, tagged_values) sees the group's (tag, item) pairs sorted
    by (tag, item bytes) and must be pure.  Outputs come in ascending key
    order, each group's in the order reduce_fn yields them.
    """
    if stats is None:
        stats = JobStats()

    def keyed() -> Iterator[KeyedItem]:
        for tag, stream in inputs:
            n = 0
            for item in stream:
                key = key_fn(item)
                if not key:
                    raise EngineError("key_fn produced an empty key")
                yield key, tag, item
                n += 1
            stats.items_in += n

    # closing() removes the spill dir as soon as a reduce raises, even while
    # the raised exception's traceback keeps this frame alive.
    with contextlib.closing(_sorted(keyed(), cfg, stats)) as items:
        for key, group in itertools.groupby(items, key=itemgetter(0)):
            stats.keys_reduced += 1
            tagged = ((tag, value) for _, tag, value in group)
            try:
                yield from reduce_fn(key, tagged)
            except FlatlinkError:
                raise  # domain errors already name their context
            except Exception as exc:
                raise EngineError(f"reduce_fn failed for key {key!r}: {exc}") from exc
