"""File formats: JSON schemas for discrete objects, CSV for samples.

All error messages carry the path of the offending field (JSON) or the line
of the offending CSV row, and for a bad cell its column, so callers can
locate problems in hand-written inputs.  Floats are rendered with
``repr``, i.e. the shortest round-tripping decimal form, which keeps
identical inputs byte-identical across runs.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import threading
from collections.abc import Iterator
from functools import partial
from pathlib import Path

import numpy as np

from .discrete import DeterministicMap, DiscreteJoint, LossMatrix, _count, _usable_cores
from .partition import Dataset
from .portfolio import MarketModel


class SchemaError(ValueError):
    """Input does not match the expected schema; message includes the path."""


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise SchemaError(f"{path}: {message}")


def _object(obj, path) -> dict:
    _expect(isinstance(obj, dict), path, f"expected an object, got {type(obj).__name__}")
    return obj


def _require(obj: dict, key: str, path: str):
    if key not in _object(obj, path):
        raise SchemaError(f"{path}.{key}: missing field")
    return obj[key]


def _build(path, cls, *args, **kwargs):
    """``cls(*args, **kwargs)``, its validation errors reported at ``path``."""
    try:
        return cls(*args, **kwargs)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


def _positive_int(value, path: str) -> int:
    try:
        return _count(value, path)
    except ValueError:
        raise SchemaError(f"{path}: expected a positive integer, got {value!r}") from None


def _number_list(values, path: str, integer: bool = False) -> list:
    """The JSON list ``values``, each entry a number that float64 holds (with
    ``integer``, an integer that int64 holds), else a SchemaError at its path."""
    _expect(isinstance(values, list), path, "expected a list")
    kind, noun, dtype = (
        (int, "an integer", np.int64) if integer else ((int, float), "a number", np.float64)
    )
    out = []
    for i, v in enumerate(values):
        _expect(isinstance(v, kind) and not isinstance(v, bool), f"{path}[{i}]",
                f"expected {noun}, got {v!r}")
        try:
            out.append(dtype(v).item())
        except OverflowError:
            raise SchemaError(
                f"{path}[{i}]: expected {noun} in the {dtype.__name__} range"
            ) from None
    return out


def _number_rows(values, path: str, width: int | None = None) -> np.ndarray:
    """A nonempty list of rows of ``width`` numbers each, as a 2-D array.

    ``width`` None asks for a square matrix: as many numbers per row as rows.
    """
    _expect(isinstance(values, list) and values, path, "expected a nonempty list of rows")
    width = len(values) if width is None else width
    rows = []
    for i, row in enumerate(values):
        rows.append(_number_list(row, f"{path}[{i}]"))
        _expect(
            len(rows[-1]) == width, f"{path}[{i}]", f"expected {width} entries, got {len(rows[-1])}"
        )
    return np.asarray(rows)


def joint_to_dict(joint: DiscreteJoint) -> dict:
    return {
        "shape": list(joint.shape),
        "probs": [float(v) for v in joint.probs.ravel()],
    }


def joint_from_dict(obj, path: str = "joint") -> DiscreteJoint:
    shape = _require(obj, "shape", path)
    _expect(isinstance(shape, list) and len(shape) == 3, f"{path}.shape", "expected 3 axis sizes")
    for i, s in enumerate(shape):
        _positive_int(s, f"{path}.shape[{i}]")
    expected = shape[0] * shape[1] * shape[2]
    # No list is that long, and the count could be too long to format.
    _expect(expected <= sys.maxsize, f"{path}.shape",
            f"expected at most {sys.maxsize} entries in all")
    probs = _number_list(_require(obj, "probs", path), f"{path}.probs")
    _expect(
        len(probs) == expected,
        f"{path}.probs",
        f"expected {expected} entries for shape {shape}, got {len(probs)}",
    )
    return _build(path, DiscreteJoint, np.asarray(probs).reshape(shape))


def loss_to_dict(loss: LossMatrix) -> dict:
    return {"cost": [[float(v) for v in row] for row in loss.cost]}


def loss_from_dict(obj, path: str = "loss") -> LossMatrix:
    return _build(path, LossMatrix, _number_rows(_require(obj, "cost", path), f"{path}.cost"))


def map_to_dict(tmap: DeterministicMap) -> dict:
    return {"table": [int(v) for v in tmap.table], "n_z": int(tmap.n_z)}


def map_from_dict(obj, path: str = "map") -> DeterministicMap:
    table = _require(obj, "table", path)
    _expect(isinstance(table, list) and table, f"{path}.table", "expected a nonempty list")
    entries = _number_list(table, f"{path}.table", integer=True)
    # At least 1, so a negative entry is blamed on the table, not on n_z.
    n_z = _positive_int(obj.get("n_z", max(max(entries) + 1, 1)), f"{path}.n_z")
    return _build(path, DeterministicMap, table=np.asarray(entries, dtype=np.int64), n_z=n_z)


def market_to_dict(market: MarketModel) -> dict:
    return {
        "d_a": int(market.d_a),
        "returns": [[float(v) for v in row] for row in market.returns],
        "joint": joint_to_dict(market.joint),
        "map": map_to_dict(market.tmap),
    }


def market_from_dict(obj, path: str = "market") -> MarketModel:
    d_a = _positive_int(_require(obj, "d_a", path), f"{path}.d_a")
    returns = _number_rows(_require(obj, "returns", path), f"{path}.returns", d_a)
    joint = joint_from_dict(_require(obj, "joint", path), f"{path}.joint")
    tmap = map_from_dict(_require(obj, "map", path), f"{path}.map")
    return _build(path, MarketModel, returns=returns, joint=joint, tmap=tmap)


def load_json(path) -> dict:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError:
        raise SchemaError(f"{path}: not UTF-8 text") from None
    except ValueError as exc:  # also a literal beyond Python's int digit limit
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    return _object(obj, path)


def save_json(obj: dict, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def _header(d: int, d_prime: int) -> list[str]:
    return [f"x{i + 1}" for i in range(d)] + ["y"] + [f"z{i + 1}" for i in range(d_prime)]


# Rows formatted at a time.  Each block is one %-format over a flat tuple of
# its Python floats (``%r`` of a float is its ``repr``), so a writer holds one
# block of floats (a float and its tuple slot take 32 bytes against numpy's 8)
# and that block's text, whatever the length of the sample.
_WRITE_BLOCK = 1024
# Fewest rows per writer process.  On 2 vCPUs (Python 3.11.7, numpy 2.4.6;
# 21 alternating writes each) two processes were slower than one at 16 and
# 24 Ki rows, broke even at 32 Ki and were faster from 48 Ki, so a sample
# gets a second process from twice that crossover, 64 Ki rows.
_ROWS_PER_PROCESS = 32_768


def _row_blocks(data: Dataset, start: int, stop: int) -> Iterator[str]:
    """Rows ``start`` to ``stop`` of the sample CSV, one block of rows at a time."""
    line = ",".join(["%r"] * (data.d + 1 + data.d_prime)) + "\n"
    for first in range(start, stop, _WRITE_BLOCK):
        last = min(first + _WRITE_BLOCK, stop)
        rows = np.column_stack((data.x[first:last], data.y[first:last], data.z[first:last]))
        yield (line * len(rows)) % tuple(rows.ravel().tolist())


def _header_line(data: Dataset) -> str:
    return ",".join(_header(data.d, data.d_prime)) + "\n"


def dataset_to_csv(data: Dataset) -> str:
    """The sample CSV text, header x1..xd,y,z1..zd', as ``write_dataset_csv`` writes it."""
    return _header_line(data) + "".join(_row_blocks(data, 0, data.n))


def _processes(work: int, per_process: int) -> int:
    """Processes that share ``work`` units: at most one per usable core and
    per ``per_process`` units, and one where forking is unsafe (no POSIX
    ``os.fork``, or a second live thread)."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(_usable_cores(), work // per_process))


def _write_rows(data: Dataset, start: int, stop: int, part) -> None:
    """Rows ``start`` to ``stop`` of the sample CSV into the binary file ``part``."""
    for block in _row_blocks(data, start, stop):
        part.write(block.encode("ascii"))


def write_dataset_csv(data: Dataset, path) -> None:
    """Write ``data`` to ``path`` as a sample CSV, one block of rows at a time.

    The bytes are those of ``Path(path).write_text(dataset_to_csv(data))``,
    but the whole text is never held.  From ``2 * _ROWS_PER_PROCESS`` rows
    on, a POSIX process with no second thread splits the rows into one
    contiguous part per usable core (its CPU affinity, else
    ``os.cpu_count()``), each of at least ``_ROWS_PER_PROCESS`` rows.  A
    forked child formats each part after the first into a temporary file,
    one block at a time, while this process writes the first; the parts are
    then copied in, in order.  A child that fails raises OSError.  Whether
    the call returns or raises, no child and no temporary file is left.
    """
    from ._parts import Children

    w = _processes(data.n, _ROWS_PER_PROCESS)
    edges = [data.n * i // w for i in range(w + 1)]
    parts = list(zip(edges, edges[1:]))
    # Opened first, so a bad path fails before any child starts.
    with open(path, "w") as fh, Children() as children:
        forked = children.start(partial(_write_rows, data, *part) for part in parts[1:])
        fh.write(_header_line(data))
        fh.writelines(_row_blocks(data, *parts[0]))
        for i, (start, stop) in enumerate(parts[1:]):
            if i >= forked:
                fh.writelines(_row_blocks(data, start, stop))
                continue
            status = children.wait(i)
            if status:
                raise OSError(
                    f"{path}: the process formatting rows {start + 1}..{stop} "
                    f"exited with status {status}"
                )
            fh.flush()
            children.files[i].seek(0)
            shutil.copyfileobj(children.files[i], fh.buffer)


def _check_utf8(path, lineno: int, line: str) -> None:
    """Raise if ``line`` holds a lone surrogate: a byte that UTF-8 did not decode."""
    try:
        line.encode()
    except UnicodeEncodeError:
        raise SchemaError(f"{path}, line {lineno}: not UTF-8 text") from None


def _scan_rows(path, lines, width: int) -> list[list[float]]:
    """Parse the body lines one cell at a time: ``str.strip``, then ``float``.

    ``lines`` is the open file, past its header.  Blank lines are skipped.
    The first malformed line raises a SchemaError naming its 1-based line
    number and, for a bad cell in UTF-8 text, its column.
    """
    rows = []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != width:
            _check_utf8(path, lineno, line)
            raise SchemaError(
                f"{path}, line {lineno}: expected {width} fields, got {len(cells)}"
            )
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            _check_utf8(path, lineno, line)
            for col, cell in enumerate(cells, start=1):
                try:
                    float(cell)
                except ValueError:
                    raise SchemaError(
                        f"{path}, line {lineno}, column {col}: could not parse {cell!r}"
                    ) from None
            raise
    return rows


# Suffixes by which numpy's path opener decompresses a file.
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")
# How numpy parses the body, whole or one part per process.
_LOADTXT = dict(delimiter=",", comments=None, dtype=np.float64, ndmin=2, encoding="utf-8")
# Fewest file bytes per reader process.  On 2 vCPUs (Python 3.11.7, numpy
# 2.4.6; two runs of 21 alternating reads each) two processes lost to one at
# 0.5 and 1 MiB, broke even at 1.5 to 2 MiB and were faster from 3 MiB, so
# a file gets a second process from twice 2 MiB.
_BYTES_PER_PROCESS = 1 << 21


def read_dataset_csv(path) -> Dataset:
    r"""Parse a sample CSV with header x1..xd,y,z1..zd'.

    The dimensions d and d' are those the header declares.  The file is
    decoded as UTF-8, whatever the locale, and lines end at ``\n``, ``\r``
    or ``\r\n``; blank lines are skipped.  Each cell is read as ``float``
    reads it after ``str.strip``.  Parse failures report 1-based line
    numbers; a line holding a byte that UTF-8 does not decode fails as
    ``<path>, line N: not UTF-8 text``.

    ``np.loadtxt`` parses the body from the path, reading the file in
    chunks itself, so no copy of the text is held; it splits lines and
    strips cells by the same rules, and reads numbers with the parser
    ``float`` uses.  The line scanner streams the open file instead when
    numpy fails or finds the wrong width, and either locates the error or
    accepts what only ``float`` reads (whitespace-only lines, ``1_0``).  It
    also takes names ending in ``.gz``, ``.bz2``, ``.xz`` or ``.lzma``,
    which numpy would decompress.

    From ``2 * _BYTES_PER_PROCESS`` bytes on, in a POSIX process with no
    second thread, numpy's pass is split: the file is cut into one
    contiguous part per usable core (as ``write_dataset_csv`` counts them),
    each cut just after a ``\n`` byte (in UTF-8 that byte is only ever a
    newline), and a forked child parses each part.  This process then holds
    only the float64 result, which it reads back column by column from the
    children's temporary files, and the ``Dataset`` keeps that result's
    columns without copying them: one copy of the sample, where the
    one-process path holds two.  If a fork fails, a child fails or finds
    the wrong width, or a read back comes up short, the whole-file pass and
    the line scanner run as above, so values, messages and line numbers are
    the same either way.  No child and no temporary file is left.
    """
    # Escaped bytes fail numpy's strict pass and reach the scanner, which locates them.
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline()
        if not header.strip():
            raise SchemaError(f"{path}: empty file")
        _check_utf8(path, 1, header)
        names = [t.strip() for t in header.split(",")]
        if "y" not in names:
            raise SchemaError(f"{path}, line 1: header must contain a 'y' column")
        d_file = names.index("y")
        dp_file = len(names) - d_file - 1
        expected = _header(d_file, dp_file)
        if names != expected:
            raise SchemaError(
                f"{path}, line 1: header {names} does not match expected {expected}"
            )
        if d_file < 1:
            raise SchemaError(f"{path}, line 1: need at least one x column")
        width = len(names)
        # Stops at the first non-blank line, so numpy never sees an empty body.
        if not any(line.strip() for line in fh):
            raise SchemaError(f"{path}: empty dataset (header only)")
        arr = None
        if not str(path).endswith(_COMPRESSED):
            processes = _processes(os.fstat(fh.fileno()).st_size, _BYTES_PER_PROCESS)
            if processes > 1:
                from ._parts import read_parts

                arr = read_parts(partial(np.loadtxt, **_LOADTXT), path, width, processes)
            if arr is None:
                try:
                    # An absolute path, so numpy's opener cannot take it for a URL.
                    arr = np.loadtxt(Path(path).absolute(), skiprows=1, **_LOADTXT)
                except ValueError:
                    pass
        if arr is None or arr.shape[1] != width:
            fh.seek(0)
            fh.readline()
            arr = np.asarray(_scan_rows(path, fh, width), dtype=np.float64)
    # A column-major result (the forked read's) is the layout Dataset keeps.
    make = Dataset._adopt if arr.flags.f_contiguous else Dataset
    return _build(path, make, arr[:, :d_file], arr[:, d_file], arr[:, d_file + 1 :])
