"""Local, deterministic map-shuffle-reduce with bounded-memory external sort.

An engine item is one ``bytes`` object, ``key TAB tag-byte rest``: the key is
the input item's first TAB-delimited field, the tag byte names its input
stream, and rest is what followed the key's TAB.  Each job feeds all of its
items to one sorter that holds the whole memory budget.  The sorter orders
the bytes as they are, spilling sorted runs to disk whenever its buffer fills
the budget, then merges the runs, so each key's items are contiguous, by tag
and then rest, and each key group is reduced once.  No key holds a byte at or
below 0x20, so a key that is a prefix of another meets the TAB first and keys
come in ascending byte order.  Two runs over the same inputs are
byte-identical, whatever the budget.

Spill run format (private, deleted when the job ends): ``<u32 len><item>``
per item, the length little-endian, in sorted order.

Every stage writes its output file through ``atomic_output``, so the file
appears whole or not at all.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterable, Iterator

from .errors import EngineError, FlatlinkError

# What a buffered item costs on top of len(item): the rest of
# sys.getsizeof(item), and its slot in the buffer list (a 64-bit pointer).
_ITEM_OVERHEAD = sys.getsizeof(b"") + 8


def first_field(item: bytes) -> bytes:
    """The bytes before the item's first TAB: every stage's shuffle key, and
    the key of an engine item."""
    return item[: item.index(b"\t")]


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
    held, as an exact byte count: sys.getsizeof(item) plus an 8-byte list
    slot per item (the list's spare capacity aside).  A sort that spilled
    holds no buffer while it merges, so sorts chained lazily (as in join2
    and join3) hold two buffers at once only when the earlier one never
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

    def write_items(self, items: Iterable[bytes]) -> None:
        with self._fh as fh:
            write = fh.write
            for item in items:
                write(len(item).to_bytes(4, "little"))
                write(item)

    def read_items(self) -> Iterator[bytes]:
        try:
            with open(self.path, "rb", buffering=1 << 16) as fh:
                read = fh.read
                while header := read(4):
                    size = int.from_bytes(header, "little")
                    item = read(size)
                    if len(item) != size or len(header) != 4:
                        raise EngineError(f"truncated spill run {self.path}")
                    yield item
        finally:
            with contextlib.suppress(OSError):
                os.unlink(self.path)


class ExternalSorter:
    """Buffers byte-string items, spilling sorted runs past the budget."""

    def __init__(self, budget_bytes: int, spill_dir: str, stats: JobStats | None = None):
        self.budget_bytes = max(budget_bytes, 1)
        self.spill_dir = spill_dir
        self.stats = stats if stats is not None else JobStats()
        self._buffer: list[bytes] = []
        self._buffer_bytes = 0
        self._runs: list[_Spill] = []

    def add(self, item: bytes) -> None:
        self._buffer.append(item)
        self._buffer_bytes += len(item) + _ITEM_OVERHEAD
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

    def iter_sorted(self) -> Iterator[bytes]:
        """Consume the sorter: yields all items in ascending byte order.

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
    items: Iterable[bytes], cfg: ExecConfig, stats: JobStats | None = None
) -> Iterator[bytes]:
    """Sort an arbitrarily large stream of byte strings."""
    return _sorted(items, cfg, stats)


def _sorted(items: Iterable[bytes], cfg: ExecConfig, stats: JobStats | None) -> Iterator[bytes]:
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


def _tag_items(inputs: list[tuple[int, Iterable[bytes]]], stats: JobStats) -> Iterator[bytes]:
    # `key TAB rest` becomes `key TAB tag-byte rest`.  The replace adds a
    # byte only where it found a TAB, and a TAB in front is an empty key.
    for tag, stream in inputs:
        tab_tag = b"\t" + bytes((tag,))
        n = 0
        for item in stream:
            tagged = item.replace(b"\t", tab_tag, 1)
            if len(tagged) == len(item) or item[0] == 9:
                raise EngineError(f"input item has an empty key or no TAB: {item[:60]!r}")
            yield tagged
            n += 1
        stats.items_in += n


def run_group_by(
    inputs: list[tuple[int, Iterable[bytes]]],
    key_fn: Callable[[bytes], bytes],
    reduce_fn: Callable[[bytes, Iterator[bytes]], Iterable[bytes]],
    cfg: ExecConfig,
    stats: JobStats | None = None,
) -> Iterator[bytes]:
    """Group all tagged input items by key and reduce each group once.

    An input item is `key TAB rest` with a non-empty key, and a tag is one
    byte (0-255).  key_fn reads the key of an engine item back; every caller
    passes first_field.  reduce_fn(key, items) sees the group's engine items
    `key TAB tag-byte rest` sorted by (tag, rest bytes), finds the tag at
    item[len(key) + 1] and the rest from len(key) + 2 on, and must be pure.
    Outputs come in ascending key order, each group's in the order reduce_fn
    yields them.
    """
    if stats is None:
        stats = JobStats()
    # closing() removes the spill dir as soon as a reduce raises, even while
    # the raised exception's traceback keeps this frame alive.
    with contextlib.closing(_sorted(_tag_items(inputs, stats), cfg, stats)) as items:
        for key, group in itertools.groupby(items, key=key_fn):
            stats.keys_reduced += 1
            try:
                yield from reduce_fn(key, group)
            except FlatlinkError:
                raise  # domain errors already name their context
            except Exception as exc:
                raise EngineError(f"reduce_fn failed for key {key!r}: {exc}") from exc
