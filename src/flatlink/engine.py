"""Local, deterministic map-shuffle-reduce with bounded-memory external sort.

Every sort of every stage is one ``external_sort`` call: one sorter that
holds the whole memory budget orders byte strings as they are, spilling
sorted runs to disk whenever its buffer fills the budget, then merges the
runs.  Each stage groups the sorted output itself, except at join3's
first sort, the one sort that merges two inputs: the shuffle
``run_group_by`` sorts engine items through it, each one ``bytes`` object
``key TAB tag-byte rest``, where the key is the input item's first
TAB-delimited field, the tag byte names its input stream, and rest is what
followed the key's TAB.  So each key's items are contiguous, by tag and then
rest, and each key group is reduced once.  No key holds a byte at or below
0x20, so a key that is a prefix of another meets the TAB first and keys come
in ascending byte order.  Two runs over the same inputs are byte-identical,
whatever the budget.

Spill run format (private, in an unnamed file): ``<u32 len><item>`` per
item, the length little-endian, in sorted order.

Every stage writes its output file through ``atomic_output``, so the file
appears whole or not at all, and enters it before it reads any input.
"""

from __future__ import annotations

import contextlib
import heapq
import io
import itertools
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterable, Iterator

from .errors import EngineError, FlatlinkError

# What a buffered item costs on top of len(item): the rest of
# sys.getsizeof(item), and its slot in the buffer list (a 64-bit pointer).
_ITEM_OVERHEAD = sys.getsizeof(b"") + 8


def first_field(item: bytes) -> bytes:
    """The bytes before the item's first TAB: the key of an engine item, and
    of each item that join2 groups after its sorts."""
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
    """Filled in as a job runs, each count exact for the whole job;
    spill_runs is the observable for scale tests.

    items_in counts the items fed to every sort of the job, each one
    external_sort call; each sorter adds its count when it spills a run or
    starts to yield from memory, so counting costs nothing per item.
    """

    items_in: int = 0
    spill_runs: int = 0
    keys_reduced: int = 0


class _Spill:
    """One sorted run in an unnamed file, held open with no buffer until its
    merge reads and closes it: the kernel frees it then, or at process exit."""

    def __init__(self, spill_dir: str | None, items: Iterable[bytes]):
        self.spill_dir = spill_dir or tempfile.gettempdir()
        self.file = tempfile.TemporaryFile(dir=self.spill_dir, buffering=0)
        try:
            fh = io.BufferedWriter(self.file, 1 << 16)
            write = fh.write
            for item in items:
                write(len(item).to_bytes(4, "little"))
                write(item)
            fh.detach()  # flushes, and drops the buffer while the run waits
        except BaseException as exc:
            self.file.close()
            if isinstance(exc, OSError):
                # The run has no name, so a full disk names its dir.
                exc.filename = self.spill_dir
            raise

    def read_items(self) -> Iterator[bytes]:
        self.file.seek(0)
        with io.BufferedReader(self.file, 1 << 16) as fh:
            read = fh.read
            while header := read(4):
                size = int.from_bytes(header, "little")
                item = read(size)
                if len(item) != size or len(header) != 4:
                    raise EngineError(f"truncated spill run in {self.spill_dir}")
                yield item


class ExternalSorter:
    """Buffers byte-string items, spilling sorted runs past the budget."""

    def __init__(self, budget_bytes: int, spill_dir: str | None, stats: JobStats):
        self.budget_bytes = budget_bytes
        self.spill_dir = spill_dir
        self.stats = stats
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
        self.stats.items_in += len(self._buffer)
        self._buffer.sort()
        self._runs.append(_Spill(self.spill_dir, self._buffer))
        self.stats.spill_runs += 1
        self._buffer = []
        self._buffer_bytes = 0

    def iter_sorted(self) -> Iterator[bytes]:
        """Consume the sorter: yields all items in ascending byte order.

        A sort that never spilled yields from memory, popping each item off
        its buffer, so while a later sort of the same job fills its own it
        holds only the items not yet yielded.  One that did spills its tail
        as one more run and merges runs only, so it holds no buffer then.
        """
        if not self._runs:
            buffer = self._buffer
            self.stats.items_in += len(buffer)
            buffer.sort(reverse=True)
            while buffer:
                yield buffer.pop()
            return
        self._spill()
        yield from heapq.merge(*[run.read_items() for run in self._runs])

    def close(self) -> None:
        """Close every run, merged or not; each one's disk space goes."""
        for run in self._runs:
            run.file.close()


def make_dir(path: str, what: str) -> None:
    """Make directory `path` and its parents if missing; where that fails,
    raise an EngineError that reads `<what>: <OS reason>`."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        # makedirs raises "File exists" where a file holds the name.
        reason = "Not a directory" if isinstance(exc, FileExistsError) else exc.strerror
        raise EngineError(f"{what}: {reason}") from exc


def external_sort(
    items: Iterable[bytes], cfg: ExecConfig, stats: JobStats | None = None
) -> Iterator[bytes]:
    """Sort an arbitrarily large stream of byte strings.

    One sorter with the whole budget spills runs to unnamed files in
    cfg.spill_dir (made if missing) or the system temp dir.  Its runs, and
    its input, are closed when the merge ends or fails or the generator is
    closed, so an upstream sort feeding it (as join2's first sort feeds its
    second) frees its runs now, not when a traceback goes.
    """
    if stats is None:
        stats = JobStats()
    sorter = ExternalSorter(cfg.memory_budget_bytes, cfg.spill_dir, stats)
    try:
        cfg.validate()
        if cfg.spill_dir:
            make_dir(cfg.spill_dir, f"cannot use spill dir {cfg.spill_dir}")
        add = sorter.add
        for item in items:
            add(item)
        yield from sorter.iter_sorted()
    finally:
        sorter.close()
        if hasattr(items, "close"):
            items.close()


def open_input(path: str | os.PathLike, opener=open) -> BinaryIO:
    """opener(path, "rb"), builtin open by default: every input is read as
    bytes.  Where the file cannot be opened, raise a FlatlinkError that reads
    `cannot read <path>: <OS reason>`, as atomic_output names an output."""
    try:
        return opener(path, "rb")
    except OSError as exc:
        raise FlatlinkError(f"cannot read {path}: {exc.strerror}") from exc


@contextlib.contextmanager
def _writing(path: str) -> Iterator[None]:
    """Raise an OSError of the block as the EngineError that reads
    `cannot write <path>: <OS reason>`."""
    try:
        yield
    except OSError as exc:
        raise EngineError(f"cannot write {path}: {exc.strerror}") from exc


class _OutputFile(io.FileIO):
    """An output's temp file under its buffer: a write or flush that fails
    raises the EngineError that names the output as given, so a full disk
    is never read as a spill run's or an input's fault."""

    def __init__(self, tmp: str, path: str):
        super().__init__(tmp, "w")
        self.path = path

    def write(self, data) -> int:
        with _writing(self.path):
            return super().write(data)


@contextlib.contextmanager
def atomic_output(path: str) -> Iterator[BinaryIO]:
    """Open a temp file beside `path` for binary writing, and os.replace it
    onto `path` when the block ends cleanly; on any exception remove it and
    leave `path` as it was.

    A failed stage so leaves no partial output, and an output may name one
    of its stage's inputs.  The temp file is opened as `path` would be, so
    it gets the same mode, not a private temp file's 0o600.  A stage enters
    this before it reads any input, so a target that is a directory, or
    that cannot be opened or replaced, is refused with an EngineError that
    names `path` and the OS reason, never the temp name; so is a write,
    flush or fsync to it that fails.

    The temp file is fsynced before the replace and its directory after
    it, so a crash or power loss leaves either the old file or the whole
    new one, never the new name on a short file (Pillai et al., "All File
    Systems Are Not Created Equal", OSDI 2014).  A directory fsync that
    fails is refused the same way, but the whole new file is then already
    in place under `path`.
    """
    if os.path.isdir(path):
        raise EngineError(f"cannot write {path}: Is a directory")
    tmp = f"{path}.{os.getpid()}.tmp"
    with _writing(path):
        out = io.BufferedWriter(_OutputFile(tmp, path))
    try:
        with out:
            yield out
            out.flush()
            with _writing(path):
                os.fsync(out.fileno())
        with _writing(path):
            os.replace(tmp, path)
            dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _tag_items(inputs: list[tuple[int, Iterable[bytes]]]) -> Iterator[bytes]:
    # `key TAB rest` becomes `key TAB tag-byte rest`.  The replace adds a
    # byte only where it found a TAB, and a TAB in front is an empty key.
    for tag, stream in inputs:
        tab_tag = b"\t" + bytes((tag,))
        for item in stream:
            tagged = item.replace(b"\t", tab_tag, 1)
            if len(tagged) == len(item) or item[0] == 9:
                raise EngineError(f"input item has an empty key or no TAB: {item[:60]!r}")
            yield tagged


def run_group_by(
    inputs: list[tuple[int, Iterable[bytes]]],
    key_fn: Callable[[bytes], bytes],
    reduce_fn: Callable[[bytes, Iterator[bytes]], Iterable[bytes]],
    cfg: ExecConfig,
    stats: JobStats | None = None,
) -> Iterator[bytes]:
    """Group all tagged input items by key and reduce each group once; the
    engine items go through one external_sort call.

    An input item is `key TAB rest` with a non-empty key, and a tag is one
    byte (0-255).  key_fn reads the key of an engine item back; join3's
    first sort, the one caller, passes first_field (every other sort is an
    external_sort call whose stage groups the sorted items itself).
    reduce_fn(key, items) sees the group's engine items
    `key TAB tag-byte rest` sorted by (tag, rest bytes), finds the tag at
    item[len(key) + 1] and the rest from len(key) + 2 on, and must be pure;
    what it raises reaches the caller as raised.  Outputs come in ascending
    key order, each group's in the order reduce_fn yields them.
    """
    if stats is None:
        stats = JobStats()
    items = external_sort(_tag_items(inputs), cfg, stats)
    try:
        for key, group in itertools.groupby(items, key=key_fn):
            stats.keys_reduced += 1
            yield from reduce_fn(key, group)
    finally:
        # The sort and each input that closes free their runs and files now,
        # not when a traceback goes.
        for stream in [items, *(stream for _, stream in inputs)]:
            if hasattr(stream, "close"):
                stream.close()
