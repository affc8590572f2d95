"""Parts of a sample CSV, written or parsed by forked processes.

``serialize`` imports this module inside ``write_dataset_csv`` and
``read_dataset_csv``, so ``import infoloss`` neither compiles nor loads it
(nor ``signal``).
"""

from __future__ import annotations

import io
import os
import tempfile
import warnings
from functools import partial
from signal import SIGKILL

import numpy as np


class Children:
    """Forked children, each writing into its own unlinked temporary file.

    A context manager: on exit, whether its body returned or raised
    (``KeyboardInterrupt`` included), every child not yet reaped by ``wait``
    is killed and reaped, and every file is closed.
    """

    def __init__(self):
        self._pids: list[int | None] = []
        self.files: list = []

    def __enter__(self):
        return self

    def start(self, jobs) -> int:
        """Fork one child per job, in order, until a temporary file or a fork
        cannot be had; returns how many started.

        Child ``i`` runs ``job(self.files[i])`` and leaves by ``os._exit``,
        so it never flushes this process's buffers or prints a traceback: its
        status, 0 or 1, is all it reports.
        """
        for job in jobs:
            try:
                part = tempfile.TemporaryFile()
            except OSError:
                break
            try:
                # Python 3.12+ warns about fork when numpy's BLAS pool has
                # threads; raised as an error, the warning would lose the
                # child's pid.
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
            except OSError:
                part.close()
                break
            if pid == 0:
                status = 1
                try:
                    job(part)
                    part.flush()
                    status = 0
                finally:
                    os._exit(status)
            self._pids.append(pid)
            self.files.append(part)
        return len(self._pids)

    def wait(self, i: int) -> int:
        """Reap child ``i``; its exit code."""
        status = os.waitpid(self._pids[i], 0)[1]
        self._pids[i] = None
        return os.waitstatus_to_exitcode(status)

    def __exit__(self, *exc) -> None:
        for pid in self._pids:
            if pid is not None:
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
        for part in self.files:
            part.close()


class _ByteRange(io.FileIO):
    """Bytes ``start`` to ``stop`` of the file at ``path``.

    Only ``readinto`` stops at ``stop`` (``FileIO.read`` does not call it),
    so read it through an ``io.BufferedReader``.
    """

    def __init__(self, path, start: int, stop: int):
        super().__init__(path)
        self.seek(start)
        self._left = stop - start

    def readinto(self, buf) -> int:
        got = super().readinto(memoryview(buf)[: self._left])
        self._left -= got
        return got


def _line_parts(raw, cuts) -> list[tuple[int, int]]:
    r"""The byte ranges of the binary file ``raw`` between its start, each of
    the ascending ``cuts`` moved on to the next line start (just after a
    ``\n`` byte) and its end.  Empty ranges are dropped."""
    edges = [0]
    for cut in cuts:
        raw.seek(max(cut - 1, 0))
        raw.readline()
        edges.append(raw.tell())
    edges.append(os.fstat(raw.fileno()).st_size)
    return [(a, b) for a, b in zip(edges, edges[1:]) if a < b]


def _parse_part(parse, path, width: int, start: int, stop: int, part) -> None:
    """Parse bytes ``start`` to ``stop`` of ``path``, decoded as UTF-8, with
    ``parse(text, skiprows)``, the header skipped in the part that holds it,
    and write the float64 rows to the binary file ``part`` column by column.

    Runs in a forked child that exits next, so a warning (numpy's "no data"
    among them) is made an error there: every failure, and a width other
    than ``width``, sends the read back to the one-process path.
    """
    warnings.simplefilter("error")
    raw = io.BufferedReader(_ByteRange(path, start, stop))
    with io.TextIOWrapper(raw, encoding="utf-8", newline=None) as text:
        rows = parse(text, skiprows=0 if start else 1)
    if rows.shape[1] != width:
        raise ValueError(f"expected {width} fields, got {rows.shape[1]}")
    part.writelines(col.copy() for col in rows.T)


def read_parts(parse, path, width: int, processes: int) -> np.ndarray | None:
    r"""The body rows of the CSV at ``path``, cut into ``processes`` parts of
    about equal size at ``\n`` bytes and parsed by one forked child each.

    None when a temporary file or a fork cannot be had, a child fails, or
    a read back comes up short, so the one-process path decides.  This
    process holds only the result, a column-major array: each column of
    each child's rows comes back through its temporary file into its slice
    of the result.
    """
    with open(path, "rb") as raw, Children() as children:
        size = os.fstat(raw.fileno()).st_size
        parts = _line_parts(raw, [size * i // processes for i in range(1, processes)])
        jobs = (partial(_parse_part, parse, path, width, *part) for part in parts)
        if children.start(jobs) < len(parts) or any(map(children.wait, range(len(parts)))):
            return None
        counts = [os.fstat(f.fileno()).st_size // (8 * width) for f in children.files]
        arr = np.empty((sum(counts), width), order="F")
        first = 0
        for part, count in zip(children.files, counts):
            part.seek(0)
            for col in arr[first : first + count].T:
                if part.readinto(col) != col.nbytes:
                    return None
            first += count
        return arr
