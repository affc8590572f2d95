"""Tests for the JSON and CSV interchange formats."""

import codecs
import copy
import errno
import hashlib
import itertools
import os
import pickle
import re
import subprocess
import sys
import tempfile
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from infoloss import (
    Dataset,
    DeterministicMap,
    SchemaError,
    dataset_to_csv,
    gen_h0,
    gen_h1,
    gen_market,
    gen_random_joint,
    gen_random_loss,
    H0Config,
    H1Config,
    joint_from_dict,
    joint_to_dict,
    load_json,
    loss_from_dict,
    loss_to_dict,
    map_from_dict,
    map_to_dict,
    market_from_dict,
    market_to_dict,
    read_dataset_csv,
    save_json,
    write_dataset_csv,
)
from infoloss import _parts, serialize

from conftest import columns, traced_peak


class TestJointRoundTrip:
    def test_exact_round_trip(self):
        joint, _ = gen_random_joint((3, 4, 2), 0)
        back = joint_from_dict(joint_to_dict(joint))
        np.testing.assert_array_equal(back.probs, joint.probs)

    def test_row_major_flattening(self):
        joint, _ = gen_random_joint((2, 2, 2), 1)
        d = joint_to_dict(joint)
        assert d["shape"] == [2, 2, 2]
        assert d["probs"][1] == joint.probs[0, 0, 1]

    def test_missing_field_path(self):
        with pytest.raises(SchemaError, match="joint.probs: missing"):
            joint_from_dict({"shape": [2, 2, 2]})

    def test_wrong_entry_count(self):
        with pytest.raises(SchemaError, match="expected 8 entries"):
            joint_from_dict({"shape": [2, 2, 2], "probs": [1.0]})

    def test_non_number_entry_indexed(self):
        probs = [0.125] * 8
        probs[3] = "x"
        with pytest.raises(SchemaError, match=r"probs\[3\]"):
            joint_from_dict({"shape": [2, 2, 2], "probs": probs})

    def test_invalid_distribution_wrapped(self):
        with pytest.raises(SchemaError, match="sum"):
            joint_from_dict({"shape": [2, 2, 2], "probs": [1.0] * 8})


class TestLossAndMapRoundTrip:
    def test_loss_round_trip(self):
        loss = gen_random_loss(3, 2.0, 0)
        back = loss_from_dict(loss_to_dict(loss))
        np.testing.assert_array_equal(back.cost, loss.cost)

    def test_loss_ragged_rows(self):
        with pytest.raises(SchemaError, match=r"^loss\.cost\[1\]: expected 2 entries, got 1$"):
            loss_from_dict({"cost": [[0.0, 1.0], [1.0]]})

    def test_loss_rows_as_long_as_the_row_count(self):
        # A loss is square, so two rows of three costs fail at the first row.
        with pytest.raises(SchemaError, match=r"^loss\.cost\[0\]: expected 2 entries, got 3$"):
            loss_from_dict({"cost": [[0.0, 1.0, 2.0], [1.0, 0.0, 2.0]]})

    def test_map_round_trip(self):
        tmap = DeterministicMap(np.array([0, 2, 1, 0]), n_z=3)
        back = map_from_dict(map_to_dict(tmap))
        np.testing.assert_array_equal(back.table, tmap.table)
        assert back.n_z == 3

    def test_map_n_z_defaults_to_max(self):
        back = map_from_dict({"table": [0, 1, 1]})
        assert back.n_z == 2

    def test_map_rejects_float_entries(self):
        with pytest.raises(SchemaError, match=r"table\[1\]"):
            map_from_dict({"table": [0, 1.5]})

    def test_map_rejects_bool_entries(self):
        with pytest.raises(SchemaError, match=r"table\[0\]"):
            map_from_dict({"table": [True, 0]})


class TestMarketRoundTrip:
    def test_round_trip(self):
        market = gen_market(3, 4, 7)
        back = market_from_dict(market_to_dict(market))
        np.testing.assert_array_equal(back.returns, market.returns)
        np.testing.assert_array_equal(back.joint.probs, market.joint.probs)
        np.testing.assert_array_equal(back.tmap.table, market.tmap.table)

    def test_asset_count_mismatch(self):
        market = gen_market(2, 3, 0)
        d = market_to_dict(market)
        d["returns"][1] = [1.0]
        with pytest.raises(SchemaError,
                           match=r"^market\.returns\[1\]: expected 2 entries, got 1$"):
            market_from_dict(d)

    def test_nested_joint_path(self):
        market = gen_market(2, 3, 0)
        d = market_to_dict(market)
        del d["joint"]["probs"]
        with pytest.raises(SchemaError, match="market.joint.probs"):
            market_from_dict(d)


class TestPositiveIntegerFields:
    """Every positive-integer field reports its path and the offending value."""

    @pytest.mark.parametrize("loader, obj, message", [
        (joint_from_dict, {"shape": [2, 0, 2], "probs": []},
         "joint.shape[1]: expected a positive integer, got 0"),
        (joint_from_dict, {"shape": [2, True, 2], "probs": []},
         "joint.shape[1]: expected a positive integer, got True"),
        (map_from_dict, {"table": [0], "n_z": 0},
         "map.n_z: expected a positive integer, got 0"),
        (map_from_dict, {"table": [0], "n_z": -1},
         "map.n_z: expected a positive integer, got -1"),
        (market_from_dict, {"d_a": True},
         "market.d_a: expected a positive integer, got True"),
        (market_from_dict, {"d_a": "2"},
         "market.d_a: expected a positive integer, got '2'"),
    ])
    def test_message(self, loader, obj, message):
        with pytest.raises(SchemaError) as exc:
            loader(obj)
        assert str(exc.value) == message


# A JSON integer literal of 400 digits: json.loads reads it as a Python int
# that neither float64 nor int64 holds.
BIG = 10**400 - 1


class TestOutOfRangeNumbers:
    """An integer no float64 (int64 for a map table) holds is refused at its path."""

    @pytest.mark.parametrize("loader, obj, message", [
        (joint_from_dict, {"shape": [1, 2, 1], "probs": [BIG, 0.5]},
         "joint.probs[0]: expected a number in the float64 range"),
        (loss_from_dict, {"cost": [[0.0, 1.0], [1.0, -BIG]]},
         "loss.cost[1][1]: expected a number in the float64 range"),
        (map_from_dict, {"table": [0, BIG]},
         "map.table[1]: expected an integer in the int64 range"),
        (map_from_dict, {"table": [2**63]},
         "map.table[0]: expected an integer in the int64 range"),
        (market_from_dict, {"d_a": 1, "returns": [[BIG]]},
         "market.returns[0][0]: expected a number in the float64 range"),
        # Three 1500-digit axis sizes: their product is beyond the digits
        # Python formats, and no list is that long.
        (joint_from_dict, {"shape": [10**1500 - 1] * 3, "probs": [0.5, 0.5]},
         "joint.shape: expected at most 9223372036854775807 entries in all"),
        (joint_from_dict, {"shape": [2**62, 2, 1], "probs": [0.5, 0.5]},
         "joint.shape: expected at most 9223372036854775807 entries in all"),
    ], ids=["joint.probs", "loss.cost", "map.table", "map.table-int64", "market.returns",
            "joint.shape", "joint.shape-2**63"])
    def test_message(self, loader, obj, message):
        with pytest.raises(SchemaError) as exc:
            loader(obj)
        assert str(exc.value) == message

    def test_range_edges_read(self):
        # The largest float64 and int64 still read, as the float and int they are.
        top = np.finfo(np.float64).max
        assert loss_from_dict({"cost": [[int(top)]]}).cost[0, 0] == top
        assert map_from_dict({"table": [2**63 - 1]}).table.tolist() == [2**63 - 1]

    def test_literal_beyond_the_digit_limit(self, tmp_path):
        # json.loads refuses an int literal of over 4300 digits with a bare
        # ValueError; load_json names the file.
        path = tmp_path / "huge.json"
        path.write_text('{"probs": [' + "9" * 5000 + "]}")
        with pytest.raises(SchemaError) as exc:
            load_json(path)
        assert str(exc.value).startswith(f"{path}: invalid JSON: Exceeds the limit")


class TestJsonFiles:
    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "joint.json"
        joint, _ = gen_random_joint((2, 3, 2), 4)
        save_json(joint_to_dict(joint), path)
        assert path.read_text().endswith("\n")
        back = joint_from_dict(load_json(path))
        np.testing.assert_array_equal(back.probs, joint.probs)

    def test_invalid_json_reports_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SchemaError, match="invalid JSON"):
            load_json(path)

    @pytest.mark.parametrize("raw", [b'{"joint": "\xff"}', b'{"a": 1}\xa0', b"\xed\xb3\xbf{}"])
    def test_not_utf8_reports_path(self, tmp_path, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        with pytest.raises(SchemaError, match=re.escape(f"{path}: not UTF-8 text") + "$"):
            load_json(path)


class TestDatasetCsv:
    def test_round_trip(self, tmp_path):
        data = gen_h0(H0Config(n=50, seed=3))
        path = tmp_path / "data.csv"
        write_dataset_csv(data, path)
        back = read_dataset_csv(path)
        np.testing.assert_array_equal(back.x, data.x)
        np.testing.assert_array_equal(back.y, data.y)
        np.testing.assert_array_equal(back.z, data.z)

    def test_header_layout(self):
        data = Dataset(
            x=np.zeros((2, 3)), y=np.ones(2), z=np.full((2, 2), 0.5)
        )
        header = dataset_to_csv(data).splitlines()[0]
        assert header == "x1,x2,x3,y,z1,z2"

    def test_dim_inference_from_header(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("x1,x2,y,z1\n0.1,0.2,0.3,0.4\n")
        data = read_dataset_csv(path)
        assert data.d == 2 and data.d_prime == 1

    def test_bad_cell_line_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y,z1\n0.1,0.2,0.3\n0.4,oops,0.6\n")
        with pytest.raises(SchemaError, match="line 3, column 2"):
            read_dataset_csv(path)

    def test_field_count_mismatch_line(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("x1,y,z1\n0.1,0.2\n")
        with pytest.raises(SchemaError, match="line 2"):
            read_dataset_csv(path)

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x1,y,z1\n")
        with pytest.raises(SchemaError, match="header only"):
            read_dataset_csv(path)

    def test_missing_y_column(self, tmp_path):
        path = tmp_path / "noy.csv"
        path.write_text("x1,x2,z1\n0.1,0.2,0.3\n")
        with pytest.raises(SchemaError, match="'y'"):
            read_dataset_csv(path)

    def test_scrambled_header(self, tmp_path):
        path = tmp_path / "scrambled.csv"
        path.write_text("x1,z1,y\n0.1,0.2,0.3\n")
        with pytest.raises(SchemaError, match="does not match expected"):
            read_dataset_csv(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blanks.csv"
        path.write_text("x1,y,z1\n0.1,0.2,0.3\n\n0.4,0.5,0.6\n")
        data = read_dataset_csv(path)
        assert data.n == 2

    def test_full_precision_round_trip(self, tmp_path):
        # repr-formatted floats survive a write/read cycle bit-for-bit.
        value = 0.1234567890123456789
        data = Dataset(
            x=np.array([[value]]), y=np.array([value * 2]), z=np.array([[value * 3]])
        )
        path = tmp_path / "precise.csv"
        write_dataset_csv(data, path)
        back = read_dataset_csv(path)
        assert back.x[0, 0] == data.x[0, 0]
        assert back.y[0] == data.y[0]


def read_strict(path, text):
    """Write ``text`` byte for byte and read it back with warnings as errors.

    A lone surrogate U+DC80..U+DCFF in ``text`` is written as the byte it
    escapes, 0x80..0xFF, so a test can hold bytes that UTF-8 does not decode.
    """
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return read_dataset_csv(path)


@st.composite
def finite_samples(draw):
    """Datasets of finite float64 values with shape (n, d + 1 + d')."""
    d = draw(st.integers(1, 3))
    d_prime = draw(st.integers(0, 2))
    n = draw(st.integers(1, 12))
    cols = draw(
        arrays(np.float64, (n, d + 1 + d_prime),
               elements=st.floats(allow_nan=False, allow_infinity=False))
    )
    return Dataset(x=cols[:, :d], y=cols[:, d], z=cols[:, d + 1 :])


# Bodies after the header "x1,y,z1\n", and the rows each reads as.
ACCEPTED = {
    "crlf": ("0.1,0.2,0.3\r\n0.4,0.5,0.6\r\n", [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]),
    "no-final-newline": ("0.1,0.2,0.3\n0.4,0.5,0.6", [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]),
    "padding": (" 0.1 ,\t0.2,0.3\t\n0.4,  0.5 ,0.6\n", [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]),
    "empty-line": ("0.1,0.2,0.3\n\n0.4,0.5,0.6\n", [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]),
    "whitespace-line": ("0.1,0.2,0.3\n \t \n0.4,0.5,0.6\n", [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]),
    "underscore": ("1_0,0.2,0.3\n0.4,0.5,0.6\n", [[10.0, 0.2, 0.3], [0.4, 0.5, 0.6]]),
    "unicode-digit": ("\u0661,0.2,0.3\n0.4,0.5,0.6\n", [[1.0, 0.2, 0.3], [0.4, 0.5, 0.6]]),
    # Padding that float alone rejects (\x1f) in a file that is not ASCII.
    "padding-1f-nbsp": ("0.1\x1f,0.2,0.3\n0.4,0.5,\u00a00.6\n", [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]),
}

# (text, the message after the path that it raises).
ERRORS = {
    "header-only": ("x1,y,z1\n  \n\t\n", ": empty dataset (header only)"),
    "narrow-rows": ("x1,x2,y,z1\n1,2,3\n4,5,6\n", ", line 2: expected 4 fields, got 3"),
    "trailing-comma": ("x1,y,z1\n0.1,0.2,0.3\n0.4,0.5,\n", ", line 3, column 3: could not parse ''"),
    "empty-cell": ("x1,y,z1\n0.1,0.2,0.3\n0.4,,0.6\n", ", line 3, column 2: could not parse ''"),
    "nan": ("x1,y,z1\n0.1,nan,0.3\n", ": y: non-finite values"),
    "inf-x": ("x1,y,z1\n0.1,0.2,0.3\ninf,0.5,0.6\n", ": x: non-finite values"),
    "minus-inf-z": ("x1,y,z1\n0.1,0.2,0.3\n0.4,0.5,-inf\n", ": z: non-finite values"),
    "overflow-y-then-z": ("x1,y,z1\n0.1,1e999,0.3\n0.4,0.5,-inf\n", ": y: non-finite values"),
    "nan-x-and-y": ("x1,y,z1\n0.1,0.2,0.3\nnan,NaN,0.6\n", ": x: non-finite values"),
}


def disable_loadtxt(monkeypatch):
    """Make ``np.loadtxt`` fail, so every read goes through the line scanner."""

    def no_loadtxt(*args, **kwargs):
        raise ValueError("vectorised pass disabled")

    monkeypatch.setattr(np, "loadtxt", no_loadtxt)


class TestCsvParserParity:
    """Inputs at the edges of the CSV grammar read exactly as documented."""

    @pytest.mark.parametrize("case", list(ACCEPTED))
    def test_accepted_values(self, tmp_path, case):
        body, rows = ACCEPTED[case]
        data = read_strict(tmp_path / "in.csv", "x1,y,z1\n" + body)
        expected = np.array(rows)
        np.testing.assert_array_equal(data.x, expected[:, :1])
        np.testing.assert_array_equal(data.y, expected[:, 1])
        np.testing.assert_array_equal(data.z, expected[:, 2:])

    @pytest.mark.parametrize("sep", [",", " ,\t"])
    def test_vectorised_pass_matches_line_scanner(self, tmp_path, rng, monkeypatch, sep):
        cols = rng.standard_normal((300, 4)) * np.array([1.0, 1e-300, 1e300, 1e-7])
        data = Dataset(x=cols[:, :2], y=cols[:, 2], z=cols[:, 3:])
        text = dataset_to_csv(data).replace(",", sep)
        fast = read_strict(tmp_path / "in.csv", text)
        disable_loadtxt(monkeypatch)
        scanned = read_strict(tmp_path / "in.csv", text)
        for got, want in ((fast, scanned), (scanned, data)):
            assert got.x.tobytes() == want.x.tobytes()
            assert got.y.tobytes() == want.y.tobytes()
            assert got.z.tobytes() == want.z.tobytes()

    @pytest.mark.parametrize("case", list(ERRORS))
    def test_errors_located(self, tmp_path, case):
        text, message = ERRORS[case]
        path = tmp_path / "in.csv"
        with pytest.raises(SchemaError, match=re.escape(f"{path}{message}") + "$"):
            read_strict(path, text)


# Line breaks of ``str.splitlines`` that end no line of a CSV: each is
# whitespace to ``str.strip``, so it pads a cell or blanks a line.
LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
TWO_ROWS = [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]

# (text, rows it reads as, or the message after the path that it raises).
LINE_STRUCTURE = {
    **{
        f"{kind}-{ord(sep):x}": (text, want)
        for sep in LINE_BREAKS
        for kind, text, want in [
            ("in-cell", f"x1,y,z1\n0.1{sep},0.2,0.3\n", TWO_ROWS[:1]),
            ("before-cell", f"x1,y,z1\n0.1,0.2,{sep}0.3\n", TWO_ROWS[:1]),
            ("between-rows", f"x1,y,z1\n0.1,0.2,0.3{sep}0.4,0.5,0.6\n",
             ", line 2: expected 3 fields, got 5"),
            ("after-header", f"x1,y,z1{sep}0.1,0.2,0.3\n",
             f", line 1: header {['x1', 'y', f'z1{sep}0.1', '0.2', '0.3']} "
             f"does not match expected {['x1', 'y', 'z1', 'z2', 'z3']}"),
            ("blank-body", f"x1,y,z1\n{sep}\n \t{sep}\n", ": empty dataset (header only)"),
        ]
    },
    # \x1f is whitespace to str.strip (float alone rejects it), but no line break.
    "in-cell-1f": ("x1,y,z1\n0.1\x1f,0.2,0.3\n", TWO_ROWS[:1]),
    "before-cell-1f": ("x1,y,z1\n0.1,0.2,\x1f0.3\n", TWO_ROWS[:1]),
    "between-rows-1f": ("x1,y,z1\n0.1,0.2,0.3\x1f0.4,0.5,0.6\n",
                        ", line 2: expected 3 fields, got 5"),
    "blank-body-1f": ("x1,y,z1\n\x1f\n \x1f\t\n", ": empty dataset (header only)"),
    "whitespace-body": ("x1,y,z1\n \n\t\t\n\r\n", ": empty dataset (header only)"),
    "cr": ("x1,y,z1\r0.1,0.2,0.3\r0.4,0.5,0.6\r", TWO_ROWS),
    "cr-no-final": ("x1,y,z1\r0.1,0.2,0.3\r0.4,0.5,0.6", TWO_ROWS),
    "crlf": ("x1,y,z1\r\n0.1,0.2,0.3\r\n0.4,0.5,0.6\r\n", TWO_ROWS),
    "cr-crlf-lf": ("x1,y,z1\r\n0.1,0.2,0.3\r0.4,0.5,0.6\n", TWO_ROWS),
    "cr-blank-body": ("x1,y,z1\r\r\r", ": empty dataset (header only)"),
    "nul": ("x1,y,z1\n0.1\x00,0.2,0.3\n", ", line 2, column 1: could not parse '0.1\\x00'"),
    "header-no-newline": ("x1,y,z1", ": empty dataset (header only)"),
    "blank-first-line": ("\nx1,y,z1\n0.1,0.2,0.3\n", ": empty file"),
    "empty": ("", ": empty file"),
    # Bytes that UTF-8 does not decode (see read_strict), located by line.
    "not-utf8-cell": ("x1,y,z1\n0.1,0.2,0.3\n0.4,\udcff5,0.6\n", ", line 3: not UTF-8 text"),
    "not-utf8-header": ("x1,y\udcff,z1\n0.1,0.2,0.3\n", ", line 1: not UTF-8 text"),
    "not-utf8-width": ("x1,y,z1\n0.1,0.2\udcff\n", ", line 2: not UTF-8 text"),
    "not-utf8-blank": ("x1,y,z1\n0.1,0.2,0.3\r \udcff \r", ", line 3: not UTF-8 text"),
    "latin1-nbsp": ("x1,y,z1\n0.1,0.2,\udca00.3\n", ", line 2: not UTF-8 text"),
    "encoded-surrogate": ("x1,y,z1\n0.1,0.2,0.3\udced\udcb3\udcbf\n", ", line 2: not UTF-8 text"),
    "bad-cell-before-not-utf8": ("x1,y,z1\n0.1,oops,0.3\n\udcff\n",
                                 ", line 2, column 2: could not parse 'oops'"),
}

# Every edge-case file above, whole.
EDGE_TEXTS = {
    **{case: text for case, (text, _) in LINE_STRUCTURE.items()},
    **{f"accepted-{case}": "x1,y,z1\n" + body for case, (body, _) in ACCEPTED.items()},
    **{f"error-{case}": text for case, (text, _) in ERRORS.items()},
}


def check_read(path, text, want):
    """Read ``text`` from ``path``: the rows ``want``, or the SchemaError ``path + want``."""
    if isinstance(want, str):
        with pytest.raises(SchemaError, match=re.escape(f"{path}{want}") + "$"):
            read_strict(path, text)
        return
    data = read_strict(path, text)
    rows = np.array(want)
    np.testing.assert_array_equal(data.x, rows[:, :1])
    np.testing.assert_array_equal(data.y, rows[:, 1])
    np.testing.assert_array_equal(data.z, rows[:, 2:])


def read_outcome(path, text):
    """What reading ``text`` from ``path`` gives: the rows' shape and bytes, or
    the SchemaError's text."""
    try:
        rows = columns(read_strict(path, text))
        return rows.shape, rows.tobytes()
    except SchemaError as exc:
        return str(exc)


class TestCsvLineStructure:
    r"""Lines end at ``\n``, ``\r`` or ``\r\n``; ``str.strip`` finds blank lines and padding."""

    @pytest.mark.parametrize("case", sorted(LINE_STRUCTURE))
    def test_read_as_recorded(self, tmp_path, case):
        check_read(tmp_path / "in.csv", *LINE_STRUCTURE[case])

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_text_with_compressed_suffix(self, tmp_path, suffix):
        check_read(tmp_path / f"in.csv{suffix}", "x1,y,z1\n0.1,0.2,0.3\n0.4,0.5,0.6\n", TWO_ROWS)

    @pytest.mark.parametrize("case", sorted(EDGE_TEXTS))
    def test_scanner_reads_as_numpy(self, tmp_path, monkeypatch, case):
        path, text = tmp_path / "in.csv", EDGE_TEXTS[case]
        with_numpy = read_outcome(path, text)
        disable_loadtxt(monkeypatch)
        assert read_outcome(path, text) == with_numpy

    def test_path_that_parses_as_url_read_locally(self, tmp_path, monkeypatch):
        def no_network(*args, **kwargs):
            raise AssertionError("the reader opened a URL")

        monkeypatch.setattr("urllib.request.urlopen", no_network)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "host").mkdir(parents=True)
        (tmp_path / "http:" / "host" / "in.csv").write_text("x1,y,z1\n0.1,0.2,0.3\n")
        data = read_dataset_csv("http://host/in.csv")
        assert (data.x[0, 0], data.y[0], data.z[0, 0]) == (0.1, 0.2, 0.3)

    def test_compressed_suffixes_cover_numpy_openers(self):
        from numpy.lib import _datasource

        assert set(_datasource._file_openers.keys()) - {None} <= set(serialize._COMPRESSED)


class TestCsvScannerAtScale:
    """Line ends and cell errors far past the first read buffer of numpy and the scanner."""

    N = 30_000

    @pytest.fixture(scope="class")
    def sample(self):
        data = gen_h1(H1Config(n=self.N, seed=11))
        return data, dataset_to_csv(data)

    @staticmethod
    def assert_bit_equal(got, want):
        assert columns(got).tobytes() == columns(want).tobytes()

    @pytest.mark.parametrize("newline", ["\r\n", "\r", "\n"], ids=["crlf", "cr", "lf"])
    def test_line_ends_read_bit_equal(self, tmp_path, monkeypatch, sample, newline):
        data, text = sample
        text = text.replace("\n", newline)
        self.assert_bit_equal(read_strict(tmp_path / "in.csv", text), data)
        disable_loadtxt(monkeypatch)
        self.assert_bit_equal(read_strict(tmp_path / "in.csv", text), data)

    @staticmethod
    def crlf_with_last_row_cell(text, col, cell):
        lines = text.split("\n")
        cells = lines[-2].split(",")
        cells[col - 1] = cell
        lines[-2] = ",".join(cells)
        return "\r\n".join(lines)

    def test_underscore_in_last_row(self, tmp_path, sample):
        data, text = sample
        back = read_strict(tmp_path / "in.csv", self.crlf_with_last_row_cell(text, 1, "1_0"))
        assert back.x[-1, 0] == 10.0
        want = columns(data)
        want[-1, 0] = 10.0
        assert columns(back).tobytes() == want.tobytes()

    def test_bad_cell_in_last_row_located(self, tmp_path, sample):
        data, text = sample
        path = tmp_path / "in.csv"
        col = data.d + 1
        message = f"{path}, line {self.N + 1}, column {col}: could not parse 'oops'"
        with pytest.raises(SchemaError, match=re.escape(message) + "$"):
            read_strict(path, self.crlf_with_last_row_cell(text, col, "oops"))


class TestCsvWriter:
    def test_golden_bytes(self):
        data = Dataset(
            x=np.array([[5e-324, -0.0], [1e16, 1e-7]]),
            y=np.array([0.1 + 0.2, 2.0**53 + 2]),
            z=np.array([[-1e-300], [1.7976931348623157e308]]),
        )
        assert dataset_to_csv(data) == (
            "x1,x2,y,z1\n"
            "5e-324,-0.0,0.30000000000000004,-1e-300\n"
            "1e+16,1e-07,9007199254740994.0,1.7976931348623157e+308\n"
        )

    def test_matches_per_value_repr_across_blocks(self, rng):
        # 2500 rows span several of the writer's row blocks.
        data = Dataset(x=rng.random((2500, 2)), y=rng.standard_normal(2500), z=rng.random(2500))
        expected = [",".join(repr(float(v)) for v in row) for row in columns(data)]
        assert dataset_to_csv(data).split("\n") == ["x1,x2,y,z1", *expected, ""]

    @settings(max_examples=60, deadline=None)
    @given(finite_samples())
    def test_round_trip_bit_equal(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            back = read_strict(Path(tmp) / "data.csv", dataset_to_csv(data))
        for got, want in ((back.x, data.x), (back.y, data.y), (back.z, data.z)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.fixture
def fork_spy(monkeypatch, tmp_path):
    """Pids this process forks; temporary files go to ``tmp_path / "tmp"``."""
    (tmp_path / "tmp").mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "tmp"))
    pids = []
    fork = os.fork

    def spy():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


def use_cores(monkeypatch, count):
    monkeypatch.setattr(serialize, "_usable_cores", lambda: count)


def assert_clean(tmp_path):
    """No child is left to reap, and no temporary file."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert list((tmp_path / "tmp").iterdir()) == []


class TestForkedCsvWriter:
    """Parts formatted by forked children join into exactly the one-string text."""

    # Rows per process, patched down to one writer block so small samples
    # fork and the parts meet the 1024-row block edges.
    ROWS = 1024

    @pytest.fixture
    def forks(self, monkeypatch, fork_spy):
        """Pids the writer forks; temporary files go to ``tmp_path / "tmp"``."""
        monkeypatch.setattr(serialize, "_ROWS_PER_PROCESS", self.ROWS)
        return fork_spy

    @staticmethod
    def sample(n):
        return gen_h1(H1Config(n=n, seed=n))

    @pytest.mark.parametrize("n", [1, 1023, 1024, 2047, 2048, 2049, 3071, 3072, 3073, 4097, 5000])
    @pytest.mark.parametrize("processes", [1, 2, 3])
    def test_bytes_equal_the_text(self, monkeypatch, tmp_path, forks, processes, n):
        use_cores(monkeypatch, processes)
        data = self.sample(n)
        write_dataset_csv(data, tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_bytes() == dataset_to_csv(data).encode()
        assert len(forks) == min(processes, max(1, n // self.ROWS)) - 1
        assert_clean(tmp_path)

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, RuntimeError])
    def test_parent_raising_leaves_no_child(self, monkeypatch, tmp_path, forks, interrupt):
        # The parent's own part raises once both children run.
        use_cores(monkeypatch, 3)
        blocks = serialize._row_blocks

        def parent_raises(data, start, stop):
            if start == 0:
                raise interrupt
            return blocks(data, start, stop)

        monkeypatch.setattr(serialize, "_row_blocks", parent_raises)
        with pytest.raises(interrupt):
            write_dataset_csv(self.sample(3 * self.ROWS), tmp_path / "s.csv")
        assert len(forks) == 2
        assert_clean(tmp_path)

    def test_child_raising_is_an_os_error(self, monkeypatch, tmp_path, forks):
        use_cores(monkeypatch, 3)
        blocks = serialize._row_blocks

        def last_part_raises(data, start, stop):
            if stop == data.n and start > 0:
                raise ValueError("formatting failed")
            return blocks(data, start, stop)

        monkeypatch.setattr(serialize, "_row_blocks", last_part_raises)
        path = tmp_path / "s.csv"
        message = f"{path}: the process formatting rows 2049..3072 exited with status 1"
        with pytest.raises(OSError, match=re.escape(message) + "$"):
            write_dataset_csv(self.sample(3 * self.ROWS), path)
        assert_clean(tmp_path)

    def test_second_thread_keeps_one_process(self, monkeypatch, tmp_path, forks):
        use_cores(monkeypatch, 2)
        data = self.sample(4 * self.ROWS)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            write_dataset_csv(data, tmp_path / "s.csv")
        finally:
            release.set()
            thread.join()
        assert forks == []
        assert (tmp_path / "s.csv").read_bytes() == dataset_to_csv(data).encode()

    @pytest.mark.parametrize("failing", ["fork", "tempdir"])
    def test_no_fork_or_temp_file_keeps_one_process(self, monkeypatch, tmp_path, forks,
                                                     failing):
        use_cores(monkeypatch, 3)
        if failing == "fork":
            def no_fork():
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

            monkeypatch.setattr(os, "fork", no_fork)
        else:
            monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        data = self.sample(3 * self.ROWS + 5)
        write_dataset_csv(data, tmp_path / "s.csv")
        assert forks == []
        assert (tmp_path / "s.csv").read_bytes() == dataset_to_csv(data).encode()
        assert_clean(tmp_path)

    def test_fork_warning_loses_no_child(self, monkeypatch, tmp_path, forks):
        # Python 3.12+ warns in the parent, after forking, when the process
        # has native threads (numpy's BLAS pool); with warnings as errors
        # (this suite's setting) that would raise and lose the child's pid.
        use_cores(monkeypatch, 2)
        fork = os.fork

        def warning_fork():
            pid = fork()
            if pid:
                warnings.warn("This process is multi-threaded", DeprecationWarning)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        data = self.sample(2 * self.ROWS + 1)
        write_dataset_csv(data, tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_bytes() == dataset_to_csv(data).encode()
        assert len(forks) == 1
        assert_clean(tmp_path)

    def test_bad_path_forks_nothing(self, monkeypatch, tmp_path, forks):
        use_cores(monkeypatch, 2)
        with pytest.raises(FileNotFoundError):
            write_dataset_csv(self.sample(2 * self.ROWS), tmp_path / "missing" / "s.csv")
        assert forks == []


class TestForkedCsvReader:
    """Parts parsed by forked children join into exactly what one process reads."""

    @pytest.fixture
    def forks(self, monkeypatch, fork_spy):
        """Pids the reader forks; every file is big enough for a part per core."""
        monkeypatch.setattr(serialize, "_BYTES_PER_PROCESS", 1)
        return fork_spy

    @pytest.fixture
    def whole_file_passes(self, monkeypatch):
        """The ``np.loadtxt`` calls this process makes; a child's calls are its own."""
        calls = []
        loadtxt = np.loadtxt

        def spy(fname, *args, **kwargs):
            calls.append(fname)
            return loadtxt(fname, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        return calls

    @pytest.mark.parametrize("cores", [2, 3])
    @pytest.mark.parametrize("case", sorted(EDGE_TEXTS))
    def test_every_cut_reads_as_one_process(self, monkeypatch, tmp_path, forks, case, cores):
        path, text = tmp_path / "in.csv", EDGE_TEXTS[case]
        use_cores(monkeypatch, 1)
        want = read_outcome(path, text)
        assert forks == []
        use_cores(monkeypatch, cores)
        # Every choice of cut offsets, each layout of parts they give read once.
        line_parts, layouts = _parts._line_parts, set()
        for cuts in itertools.combinations_with_replacement(range(path.stat().st_size + 1),
                                                            cores - 1):
            with path.open("rb") as raw:
                layout = line_parts(raw, cuts)
            if tuple(layout) not in layouts:
                layouts.add(tuple(layout))
                monkeypatch.setattr(_parts, "_line_parts", lambda raw, cuts: layout)
                assert read_outcome(path, text) == want, layout
        if not isinstance(want, str):
            assert forks
        assert_clean(tmp_path)

    @pytest.fixture(scope="class")
    def sample(self):
        data = gen_h1(H1Config(n=TestCsvScannerAtScale.N, seed=11))
        return data, dataset_to_csv(data)

    @pytest.mark.parametrize("newline", ["\r\n", "\r", "\n"], ids=["crlf", "cr", "lf"])
    @pytest.mark.parametrize("cores", [2, 3])
    def test_line_ends_read_bit_equal(self, monkeypatch, tmp_path, forks, whole_file_passes,
                                      sample, newline, cores):
        # A "\r" file has no "\n" byte to cut at, so one child reads it whole.
        data, text = sample
        use_cores(monkeypatch, cores)
        back = read_strict(tmp_path / "in.csv", text.replace("\n", newline))
        assert columns(back).tobytes() == columns(data).tobytes()
        assert len(forks) == (1 if newline == "\r" else cores)
        assert whole_file_passes == []
        assert_clean(tmp_path)

    def test_bad_cell_in_last_part_located(self, monkeypatch, tmp_path, forks, sample):
        data, text = sample
        use_cores(monkeypatch, 3)
        path = tmp_path / "in.csv"
        col = data.d + 1
        message = f"{path}, line {data.n + 1}, column {col}: could not parse 'oops'"
        with pytest.raises(SchemaError, match=re.escape(message) + "$"):
            read_strict(path, TestCsvScannerAtScale.crlf_with_last_row_cell(text, col, "oops"))
        assert len(forks) == 3
        assert_clean(tmp_path)

    def small(self, tmp_path):
        """A 2000-row CSV written by one process, and its rows."""
        data = gen_h1(H1Config(n=2000, seed=12))
        path = tmp_path / "in.csv"
        path.write_text(dataset_to_csv(data))
        return path, columns(data)

    @pytest.mark.parametrize("header", ["x1,y", "x1,x2,x3,y,z1,z2"])
    def test_adopted_columns(self, monkeypatch, tmp_path, forks, header):
        # The forked read's Dataset keeps the columns of the one result array.
        width = header.count(",") + 1
        rows = np.random.default_rng(14).standard_normal((2000, width))
        path = tmp_path / "in.csv"
        path.write_text(header + "\n" + "".join(",".join(map(repr, row)) + "\n"
                                                for row in rows.tolist()))
        use_cores(monkeypatch, 1)
        one = read_dataset_csv(path)
        use_cores(monkeypatch, 2)
        forked = read_dataset_csv(path)
        assert len(forks) == 2
        assert columns(one).tobytes() == columns(forked).tobytes() == rows.tobytes()
        assert (forked.d, forked.d_prime) == (one.d, one.d_prime)
        assert forked.x.flags.f_contiguous and forked.z.flags.f_contiguous
        assert forked.x.base is forked.y.base is forked.z.base is not None
        assert not any(a.flags.writeable for a in (forked.x, forked.y, forked.z))
        for twin in (copy.deepcopy(forked), pickle.loads(pickle.dumps(forked))):
            assert columns(twin).tobytes() == columns(forked).tobytes()
            assert twin.x.flags.f_contiguous and twin.z.flags.f_contiguous
            assert not any(a.flags.writeable for a in (twin.x, twin.y, twin.z))
        assert_clean(tmp_path)

    def test_short_read_back_reads_in_one_process(self, monkeypatch, tmp_path, forks,
                                                  whole_file_passes):
        # Every read back from a child's file stops one byte short.
        use_cores(monkeypatch, 2)
        path, want = self.small(tmp_path)
        temporary_file = tempfile.TemporaryFile

        class ShortReads:
            def __init__(self):
                self.file = temporary_file()

            def __getattr__(self, name):
                return getattr(self.file, name)

            def readinto(self, buf):
                return self.file.readinto(memoryview(buf).cast("B")[:-1])

        monkeypatch.setattr(tempfile, "TemporaryFile", ShortReads)
        assert columns(read_dataset_csv(path)).tobytes() == want.tobytes()
        assert len(forks) == 2
        assert whole_file_passes == [path.absolute()]
        assert_clean(tmp_path)

    def test_failing_child_reads_in_one_process(self, monkeypatch, tmp_path, forks,
                                                whole_file_passes):
        use_cores(monkeypatch, 3)
        path, want = self.small(tmp_path)
        parse_part = _parts._parse_part
        size = path.stat().st_size
        ran = tmp_path / "ran"
        ran.mkdir()

        # Each child leaves a marker before it fails or delegates, so a stub
        # whose signature no longer matches the call cannot pass unnoticed.
        def last_part_fails(parse, path, width, start, stop, part):
            (ran / str(start)).touch()
            if stop == size:
                raise ValueError("parse failed")
            parse_part(parse, path, width, start, stop, part)

        monkeypatch.setattr(_parts, "_parse_part", last_part_fails)
        assert columns(read_dataset_csv(path)).tobytes() == want.tobytes()
        assert len(forks) == 3
        assert len(list(ran.iterdir())) == 3
        assert whole_file_passes == [path.absolute()]
        assert_clean(tmp_path)

    def test_parent_interrupt_leaves_no_child(self, monkeypatch, tmp_path, forks):
        # The parent is interrupted after reaping the first of three children;
        # the other two would take a minute, so they must be killed.
        use_cores(monkeypatch, 3)
        path, _ = self.small(tmp_path)
        parse_part, wait = _parts._parse_part, _parts.Children.wait

        def slow_after_the_first(parse, path, width, start, stop, part):
            if start > 0:
                time.sleep(60)
            parse_part(parse, path, width, start, stop, part)

        def interrupted(children, i):
            if i > 0:
                raise KeyboardInterrupt
            return wait(children, i)

        monkeypatch.setattr(_parts, "_parse_part", slow_after_the_first)
        monkeypatch.setattr(_parts.Children, "wait", interrupted)
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            read_dataset_csv(path)
        assert time.monotonic() - started < 30
        assert len(forks) == 3
        assert_clean(tmp_path)

    def test_blank_part_warns_nothing(self, tmp_path):
        # The file's second half is blank lines, so numpy finds no data in
        # the second part and warns.  The child fails instead, and the one
        # process read skips the blank lines: nothing reaches stderr.
        path, _ = self.small(tmp_path)
        with path.open("a") as fh:
            fh.write("\n" * path.stat().st_size)
        code = ("import sys; from infoloss import serialize; "
                "serialize._usable_cores = lambda: 2; serialize._BYTES_PER_PROCESS = 1; "
                "print(serialize.read_dataset_csv(sys.argv[1]).n)")
        proc = subprocess.run([sys.executable, "-c", code, str(path)],
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "2000\n", "")

    @pytest.mark.parametrize("forked", [0, 1])
    def test_failing_fork_reads_in_one_process(self, monkeypatch, tmp_path, forks, forked):
        # os.fork fails after `forked` children have started.
        use_cores(monkeypatch, 3)
        path, want = self.small(tmp_path)
        fork = os.fork

        def failing_fork():
            if len(forks) == forked:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", failing_fork)
        assert columns(read_dataset_csv(path)).tobytes() == want.tobytes()
        assert len(forks) == forked
        assert_clean(tmp_path)

    @pytest.mark.parametrize("why", ["thread", "compressed-suffix"])
    def test_read_in_one_process(self, monkeypatch, tmp_path, forks, why):
        use_cores(monkeypatch, 2)
        path, want = self.small(tmp_path)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        if why == "thread":
            thread.start()
        else:
            path = path.rename(path.with_suffix(".csv.gz"))
        try:
            back = read_dataset_csv(path)
        finally:
            release.set()
            if why == "thread":
                thread.join(timeout=10)
        assert not thread.is_alive()
        assert columns(back).tobytes() == want.tobytes()
        assert forks == []


# A Python that decodes text as ASCII by default: the C locale, with the
# UTF-8 mode that a C locale would otherwise turn on switched off.
ASCII_LOCALE = {"PYTHONUTF8": "0", "LC_ALL": "C"}
LOCALES = pytest.mark.parametrize("env", [{"PYTHONUTF8": "1"}, ASCII_LOCALE],
                                  ids=["utf8-mode", "ascii-locale"])

# Reads the CSV at argv[1] with two usable cores, first in one process, then
# with every file big enough to be cut into parts.  Prints the locale's
# encoding, then for each read the sha256 of its columns, the forks and the
# whole-file numpy passes this process made.
READ_BOTH_WAYS = """
import hashlib, locale, os, sys
import numpy as np
from infoloss import serialize
forks, passes = [], []
fork, loadtxt = os.fork, np.loadtxt
def fork_spy():
    pid = fork()
    if pid:
        forks.append(pid)
    return pid
def loadtxt_spy(*args, **kwargs):
    passes.append(args[0])
    return loadtxt(*args, **kwargs)
os.fork, np.loadtxt = fork_spy, loadtxt_spy
serialize._usable_cores = lambda: 2
print(locale.getpreferredencoding(False))
for per_process in (serialize._BYTES_PER_PROCESS, 1):
    serialize._BYTES_PER_PROCESS = per_process
    forks.clear()
    passes.clear()
    data = serialize.read_dataset_csv(sys.argv[1])
    rows = np.column_stack((data.x, data.y, data.z))
    print(hashlib.sha256(rows.tobytes()).hexdigest(), len(forks), len(passes))
"""


class TestLocale:
    """A file reads as UTF-8 whatever the locale, and a byte UTF-8 does not
    decode is one located error line."""

    @LOCALES
    def test_no_break_space_reads_bit_equal(self, tmp_path, env):
        data = gen_h1(H1Config(n=200, seed=13))
        lines = dataset_to_csv(data).split("\n")
        for i in (1, 100, -2):
            lines[i] = "\u00a0" + lines[i].replace(",", ",\u00a0", 1)
        path = tmp_path / "in.csv"
        path.write_text("\n".join(lines), encoding="utf-8")
        proc = subprocess.run([sys.executable, "-c", READ_BOTH_WAYS, str(path)],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, **env))
        assert (proc.returncode, proc.stderr) == (0, "")
        encoding, *reads = proc.stdout.splitlines()
        assert codecs.lookup(encoding).name == ("ascii" if env is ASCII_LOCALE else "utf-8")
        digest = hashlib.sha256(columns(data).tobytes()).hexdigest()
        # One process: one whole-file pass.  Forked: two parts, no fallback.
        assert reads == [f"{digest} 0 1", f"{digest} 2 0"]

    @LOCALES
    @pytest.mark.parametrize("command, raw, where", [
        ("test", b"x1,y,z1\n1,2,3\n4,\xff5,6\n", ", line 3"),
        ("bounds", b'{"joint": "\xff"}', ""),
    ], ids=["csv", "json"])
    def test_not_utf8_is_one_error_line(self, tmp_path, env, command, raw, where):
        path = tmp_path / "in"
        path.write_bytes(raw)
        proc = subprocess.run([sys.executable, "-m", "infoloss", command, "--input", str(path)],
                              capture_output=True, text=True, timeout=120,
                              env=dict(os.environ, **env))
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == f"error: {path}{where}: not UTF-8 text\n"


class TestCsvMemory:
    """Reading or writing a sample holds about one extra copy of it, not several."""

    N = 100_000

    def read_peak(self, tmp_path, monkeypatch, cores):
        """tracemalloc peak of reading a 1e5-row h1 CSV with ``cores`` usable cores,
        over the float array's size."""
        use_cores(monkeypatch, cores)
        data = gen_h1(H1Config(n=self.N, seed=5))
        path = tmp_path / "big.csv"
        write_dataset_csv(data, path)
        back, peak = traced_peak(read_dataset_csv, path)
        assert back.y.tobytes() == data.y.tobytes()
        return peak / (8 * data.n * (data.d + 1 + data.d_prime))

    def test_reader_peak(self, tmp_path, monkeypatch):
        # numpy's row-major result and the Dataset's column-major copy of it:
        # this path still holds two copies of the sample.
        ratio = self.read_peak(tmp_path, monkeypatch, 1)
        assert ratio <= 3, f"peak {ratio:.2f}x the float array"

    def test_forked_reader_peak(self, tmp_path, monkeypatch, fork_spy):
        # tracemalloc sees only this process: it holds the column-major
        # result, which the Dataset keeps, and np.isfinite's bool array of
        # x, while each child's text and rows stay outside the trace.
        ratio = self.read_peak(tmp_path, monkeypatch, 2)
        assert len(fork_spy) == 1 + 2  # the writer's child, then one reader child per core
        assert ratio <= 1.25, f"peak {ratio:.2f}x the float array"

    def test_writer_peak(self):
        data = gen_h1(H1Config(n=self.N, seed=5))
        text, peak = traced_peak(dataset_to_csv, data)
        assert peak <= 3 * len(text), f"peak {peak / len(text):.2f}x the CSV text"
