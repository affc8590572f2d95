"""Tests for the JSON and CSV interchange formats."""

import re
import tempfile
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
    gen_market,
    gen_random_joint,
    gen_random_loss,
    H0Config,
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
)

from conftest import write_dataset_csv


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
        with pytest.raises(SchemaError, match=r"cost\[1\]"):
            loss_from_dict({"cost": [[0.0, 1.0], [1.0]]})

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
        with pytest.raises(SchemaError, match=r"returns\[1\]"):
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
        (map_from_dict, {"table": [-3, -2]},
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

    def test_dim_flags_checked(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("x1,y,z1\n0.1,0.2,0.3\n")
        with pytest.raises(SchemaError, match="d=1"):
            read_dataset_csv(path, d=2)

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
    """Write ``text`` byte for byte and read it back with warnings as errors."""
    path.write_bytes(text.encode("utf-8"))
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


class TestCsvParserParity:
    """Inputs at the edges of the CSV grammar read exactly as documented."""

    @pytest.mark.parametrize(
        "body, rows",
        [
            ("0.1,0.2,0.3\r\n0.4,0.5,0.6\r\n", [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]),
            ("0.1,0.2,0.3\n0.4,0.5,0.6", [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]),
            (" 0.1 ,\t0.2,0.3\t\n0.4,  0.5 ,0.6\n", [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]),
            ("0.1,0.2,0.3\n\n0.4,0.5,0.6\n", [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]),
            ("0.1,0.2,0.3\n \t \n0.4,0.5,0.6\n", [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]]),
            ("1_0,0.2,0.3\n0.4,0.5,0.6\n", [[10.0, 0.2, 0.3], [0.4, 0.5, 0.6]]),
            ("\u0661,0.2,0.3\n0.4,0.5,0.6\n", [[1.0, 0.2, 0.3], [0.4, 0.5, 0.6]]),
        ],
        ids=["crlf", "no-final-newline", "padding", "empty-line", "whitespace-line",
             "underscore", "unicode-digit"],
    )
    def test_accepted_values(self, tmp_path, body, rows):
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

        def no_loadtxt(*args, **kwargs):
            raise ValueError("vectorised pass disabled")

        monkeypatch.setattr(np, "loadtxt", no_loadtxt)
        scanned = read_strict(tmp_path / "in.csv", text)
        for got, want in ((fast, scanned), (scanned, data)):
            assert got.x.tobytes() == want.x.tobytes()
            assert got.y.tobytes() == want.y.tobytes()
            assert got.z.tobytes() == want.z.tobytes()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("x1,y,z1\n  \n\t\n", ": empty dataset (header only)"),
            ("x1,x2,y,z1\n1,2,3\n4,5,6\n", ", line 2: expected 4 fields, got 3"),
            ("x1,y,z1\n0.1,0.2,0.3\n0.4,0.5,\n", ", line 3, column 3: could not parse ''"),
            ("x1,y,z1\n0.1,0.2,0.3\n0.4,,0.6\n", ", line 3, column 2: could not parse ''"),
            ("x1,y,z1\n0.1,nan,0.3\n", ": y: non-finite values"),
        ],
        ids=["header-only", "narrow-rows", "trailing-comma", "empty-cell", "nan"],
    )
    def test_errors_located(self, tmp_path, text, message):
        path = tmp_path / "in.csv"
        with pytest.raises(SchemaError, match=re.escape(f"{path}{message}") + "$"):
            read_strict(path, text)


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
        expected = [",".join(repr(float(v)) for v in row) for row in data.columns()]
        assert dataset_to_csv(data).split("\n") == ["x1,x2,y,z1", *expected, ""]

    @settings(max_examples=60, deadline=None)
    @given(finite_samples())
    def test_round_trip_bit_equal(self, data):
        with tempfile.TemporaryDirectory() as tmp:
            back = read_strict(Path(tmp) / "data.csv", dataset_to_csv(data))
        for got, want in ((back.x, data.x), (back.y, data.y), (back.z, data.z)):
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
