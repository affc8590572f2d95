"""File formats: JSON schemas for discrete objects, CSV for samples.

All error messages carry the path of the offending field (JSON) or the line
and column of the offending cell (CSV) so callers can locate problems in
hand-written inputs.  Floats are rendered with ``repr``, i.e. the shortest
round-tripping decimal form, which keeps identical inputs byte-identical
across runs.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .discrete import DeterministicMap, DiscreteJoint, LossMatrix
from .partition import Dataset
from .portfolio import MarketModel

__all__ = [
    "SchemaError",
    "dataset_to_csv",
    "joint_from_dict",
    "joint_to_dict",
    "load_json",
    "loss_from_dict",
    "loss_to_dict",
    "map_from_dict",
    "map_to_dict",
    "market_from_dict",
    "market_to_dict",
    "read_dataset_csv",
    "save_json",
]


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
    _expect(
        isinstance(value, int) and not isinstance(value, bool) and value >= 1,
        path,
        f"expected a positive integer, got {value!r}",
    )
    return value


def _number_list(values, path: str) -> list[float]:
    _expect(isinstance(values, list), path, "expected a list")
    out = []
    for i, v in enumerate(values):
        _expect(
            isinstance(v, (int, float)) and not isinstance(v, bool),
            f"{path}[{i}]",
            f"expected a number, got {v!r}",
        )
        out.append(float(v))
    return out


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
    probs = _number_list(_require(obj, "probs", path), f"{path}.probs")
    expected = shape[0] * shape[1] * shape[2]
    _expect(
        len(probs) == expected,
        f"{path}.probs",
        f"expected {expected} entries for shape {shape}, got {len(probs)}",
    )
    return _build(path, DiscreteJoint, np.asarray(probs).reshape(shape))


def loss_to_dict(loss: LossMatrix) -> dict:
    return {"cost": [[float(v) for v in row] for row in loss.cost]}


def loss_from_dict(obj, path: str = "loss") -> LossMatrix:
    cost = _require(obj, "cost", path)
    _expect(isinstance(cost, list) and cost, f"{path}.cost", "expected a nonempty list of rows")
    rows = []
    for i, row in enumerate(cost):
        rows.append(_number_list(row, f"{path}.cost[{i}]"))
        _expect(
            len(rows[-1]) == len(rows[0]),
            f"{path}.cost[{i}]",
            f"row length {len(rows[-1])} != {len(rows[0])}",
        )
    return _build(path, LossMatrix, np.asarray(rows))


def map_to_dict(tmap: DeterministicMap) -> dict:
    return {"table": [int(v) for v in tmap.table], "n_z": int(tmap.n_z)}


def map_from_dict(obj, path: str = "map") -> DeterministicMap:
    table = _require(obj, "table", path)
    _expect(isinstance(table, list) and table, f"{path}.table", "expected a nonempty list")
    entries = []
    for i, v in enumerate(table):
        _expect(
            isinstance(v, int) and not isinstance(v, bool),
            f"{path}.table[{i}]",
            f"expected an integer, got {v!r}",
        )
        entries.append(v)
    n_z = _positive_int(obj.get("n_z", max(entries) + 1), f"{path}.n_z")
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
    raw = _require(obj, "returns", path)
    _expect(isinstance(raw, list) and raw, f"{path}.returns", "expected a nonempty list of rows")
    rows = []
    for i, row in enumerate(raw):
        rows.append(_number_list(row, f"{path}.returns[{i}]"))
        _expect(
            len(rows[-1]) == d_a,
            f"{path}.returns[{i}]",
            f"expected {d_a} assets, got {len(rows[-1])}",
        )
    joint = joint_from_dict(_require(obj, "joint", path), f"{path}.joint")
    tmap = map_from_dict(_require(obj, "map", path), f"{path}.map")
    return _build(path, MarketModel, returns=np.asarray(rows), joint=joint, tmap=tmap)


def load_json(path) -> dict:
    text = Path(path).read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    return _object(obj, path)


def save_json(obj: dict, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def _header(d: int, d_prime: int) -> list[str]:
    return [f"x{i + 1}" for i in range(d)] + ["y"] + [f"z{i + 1}" for i in range(d_prime)]


# Rows converted to Python floats at a time.  A Python float and its list slot
# take 32 bytes per cell against numpy's 8, so a whole-sample tolist() would
# add four times the sample's size to the writer's peak memory; one small block,
# released before the lines are joined, adds nothing measurable.
_WRITE_BLOCK = 1024


def dataset_to_csv(data: Dataset) -> str:
    lines = [",".join(_header(data.d, data.d_prime))]
    cols = data.columns()
    for start in range(0, len(cols), _WRITE_BLOCK):
        lines.extend(
            ",".join(map(repr, row)) for row in cols[start : start + _WRITE_BLOCK].tolist()
        )
    return "\n".join(lines) + "\n"


def _scan_rows(path, lines: list[str], width: int) -> list[list[float]]:
    """Parse the body lines one cell at a time with Python's ``float``.

    Blank lines are skipped.  The first malformed line raises a SchemaError
    naming its 1-based line number and, for a bad cell, its column.
    """
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise SchemaError(
                f"{path}, line {lineno}: expected {width} fields, got {len(cells)}"
            )
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            for col, cell in enumerate(cells, start=1):
                try:
                    float(cell)
                except ValueError:
                    raise SchemaError(
                        f"{path}, line {lineno}, column {col}: could not parse {cell.strip()!r}"
                    ) from None
            raise
    return rows


def read_dataset_csv(path, d: int | None = None, d_prime: int | None = None) -> Dataset:
    """Parse a sample CSV with header x1..xd,y,z1..zd'.

    Dimensions are inferred from the header and checked against ``d`` and
    ``d_prime`` when given.  Blank lines are skipped.  Parse failures report
    1-based line numbers.

    The body is parsed by one ``np.loadtxt`` pass over the lines.  When that
    fails or finds the wrong width, the line scanner parses them again and
    either locates the error or accepts what only ``float`` reads
    (whitespace-only lines, ``1_0``, non-ASCII digits).  Both paths read
    numbers with the parser ``float`` uses, so their values are identical.
    """
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].strip():
        raise SchemaError(f"{path}: empty file")
    names = [t.strip() for t in lines[0].split(",")]
    if "y" not in names:
        raise SchemaError(f"{path}, line 1: header must contain a 'y' column")
    d_file = names.index("y")
    dp_file = len(names) - d_file - 1
    expected = _header(d_file, dp_file)
    if names != expected:
        raise SchemaError(
            f"{path}, line 1: header {names} does not match expected {expected}"
        )
    if d is not None and d != d_file:
        raise SchemaError(f"{path}: header declares d={d_file}, flags declare d={d}")
    if d_prime is not None and d_prime != dp_file:
        raise SchemaError(
            f"{path}: header declares d_prime={dp_file}, flags declare d_prime={d_prime}"
        )
    if d_file < 1:
        raise SchemaError(f"{path}, line 1: need at least one x column")
    width = len(names)
    if not any(line.strip() for line in lines[1:]):
        raise SchemaError(f"{path}: empty dataset (header only)")
    try:
        arr = np.loadtxt(
            lines, delimiter=",", comments=None, dtype=np.float64, ndmin=2, skiprows=1
        )
    except ValueError:
        arr = None
    if arr is None or arr.shape[1] != width:
        arr = np.asarray(_scan_rows(path, lines, width), dtype=np.float64)
    return _build(path, Dataset, x=arr[:, :d_file], y=arr[:, d_file], z=arr[:, d_file + 1 :])
