"""End-to-end tests of the command line interface."""

import ast
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import infoloss.montecarlo
import infoloss.selection
import infoloss.serialize
from infoloss import (
    Dataset,
    gen_market,
    gen_random_joint,
    SchemaError,
    joint_to_dict,
    loss_to_dict,
    map_from_dict,
    map_to_dict,
    market_to_dict,
    save_json,
    write_dataset_csv,
    zero_one_loss,
)
from infoloss.cli import EXIT_ERROR, EXIT_OK, EXIT_REJECT, build_parser, main
from infoloss.serialize import dataset_to_csv
from infoloss.synth import H1Config, gen_h1

from conftest import always_reject, traced_peak


def write_sample(path, rng, n=5000, dependent=False):
    x1 = rng.random(n)
    x2 = rng.random(n)
    z = rng.random(n)
    y = x2 + 0.05 * rng.standard_normal(n) if dependent else rng.random(n)
    data = Dataset(x=np.stack([x1, x2], axis=1), y=y, z=z[:, None])
    write_dataset_csv(data, path)
    return data


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.fixture(scope="module")
def h1_csv(tmp_path_factory):
    """A 3000-row h1 sample written by ``gen`` with seed 7."""
    stem = tmp_path_factory.mktemp("golden") / "h1"
    main(["gen", "--scenario", "h1", "--n", "3000", "--seed", "7", "--output", str(stem)])
    return stem.with_suffix(".csv")


class TestTestCommand:
    def test_independent_accepts_exit_zero(self, tmp_path, rng, capsys):
        csv = tmp_path / "indep.csv"
        write_sample(csv, rng)
        code = main(["test", "--input", str(csv), "--h", "0.25"])
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["reject"] is False
        assert set(out) == {
            "L_n", "t_n", "m", "m_prime", "m_dprime", "h", "reject", "vacuous", "type1_bound",
            "type1_trivial",
        }

    def test_short_sample_is_vacuous(self, tmp_path, capsys):
        # With the default schedule t_n = 3.158 at n = 1000, above L_n's
        # supremum of 2, so the test cannot reject and says so.
        stem = tmp_path / "short"
        main(["gen", "--scenario", "h1", "--n", "1000", "--seed", "7", "--output", str(stem)])
        capsys.readouterr()
        code = main(["test", "--input", str(stem.with_suffix(".csv"))])
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["t_n"] >= 2.0
        assert out["vacuous"] is True and out["reject"] is False

    def test_type1_bound_above_one_is_trivial(self, h1_csv, capsys):
        # At c1 = 1.5, 4 exp(-(c1^2/2 - log 2) m'') >= 1 for m'' <= 3; --h 0.5
        # gives m'' = 2 and a bound of 1.69, which bounds no probability.
        capsys.readouterr()
        main(["test", "--input", str(h1_csv), "--h", "0.5"])
        out = json.loads(capsys.readouterr().out)
        assert out["m_dprime"] == 2
        assert out["type1_bound"] == pytest.approx(1.6864, abs=1e-4)
        assert out["type1_trivial"] is True

    def test_dependent_rejects_exit_three(self, tmp_path, rng, capsys):
        csv = tmp_path / "dep.csv"
        n = 200_000
        x = rng.random(n)
        data = Dataset(x=x[:, None], y=x, z=rng.random((n, 1)))
        write_dataset_csv(data, csv)
        code = main(["test", "--input", str(csv), "--h", "0.1", "--c1", "1.2"])
        assert code == EXIT_REJECT
        assert json.loads(capsys.readouterr().out)["reject"] is True

    def test_output_file_written(self, tmp_path, rng, capsys):
        csv = tmp_path / "indep.csv"
        write_sample(csv, rng)
        out_json = tmp_path / "outcome.json"
        main(["test", "--input", str(csv), "--h", "0.25", "--output", str(out_json)])
        capsys.readouterr()
        assert json.loads(out_json.read_text())["reject"] is False

    def test_missing_file_exit_one(self, tmp_path, capsys):
        code = main(["test", "--input", str(tmp_path / "nope.csv")])
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_malformed_csv_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,y,z1\n0.1,oops,0.3\n")
        code = main(["test", "--input", str(bad)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_header_without_x_exit_one(self, tmp_path, capsys):
        csv = tmp_path / "no_x.csv"
        csv.write_text("y,z1\n0.1,0.3\n")
        code = main(["test", "--input", str(csv)])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {csv}, line 1: need at least one x column\n"

    def test_bad_c1_exit_one(self, tmp_path, rng, capsys):
        csv = tmp_path / "indep.csv"
        write_sample(csv, rng)
        code = main(["test", "--input", str(csv), "--c1", "0.5"])
        assert code == EXIT_ERROR
        assert "c1" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (("--c1", "inf"), "error: c1 must be finite"),
        (("--c1", "1e308", "--h", "0.05"), "error: threshold overflows: t_n = inf"),
    ])
    def test_non_finite_threshold_exit_one(self, h1_csv, capsys, flags, message):
        capsys.readouterr()
        code = main(["test", "--input", str(h1_csv), *flags])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)


class TestSharedTestFlags:
    """The --c1, --delta and --h flags of test, mc and select."""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["test", "mc", "select"])
    def test_non_finite_delta_exit_one(self, h1_csv, tmp_path, capsys, command, value):
        # select clamps a finite exponent that is too large for a step; a NaN
        # or infinite one is refused by all three commands with one error line.
        capsys.readouterr()
        io = ["--output", str(tmp_path / "mc")] if command == "mc" else ["--input", str(h1_csv)]
        code = main([command, *io, f"--delta={value}"])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: delta must be finite, got {float(value)}\n"
        assert list(tmp_path.iterdir()) == []


class TestGenCommand:
    def test_writes_csv_and_echo(self, tmp_path, capsys):
        stem = tmp_path / "sample"
        code = main([
            "gen", "--scenario", "h0", "--n", "100", "--seed", "5",
            "--output", str(stem),
        ])
        assert code == EXIT_OK
        csv_text = (tmp_path / "sample.csv").read_text()
        assert csv_text.splitlines()[0] == "x1,x2,y,z1"
        assert len(csv_text.splitlines()) == 101
        echo = json.loads((tmp_path / "sample.json").read_text())
        assert echo["scenario"] == "h0"
        assert echo["n"] == 100 and echo["seed"] == 5
        assert echo["atoms"] == [0.0, 0.25, 0.5, 0.75]

    # sha256 of the CSV and of the echo JSON for n = 1000, seed 7, default
    # parameters; they pin the generator draws and the echo's keys and order.
    GOLDEN = {
        "h0": ("cdaddcfd6ad0bc1613e7faf963180f8846510cfbc02263ac1c6b7fde9ee534f0",
               "93a15024c7b1c793f30d2592e254ee6a2b83d60c9a7e19156fb7ebb8d9bf450e"),
        "h1": ("3dcef3ef0c4e99ae5e5f32bc1ed0875224be1845f78920e31df8daa428ae04ac",
               "b781ed47a5b34f17e9196f49bfc5206101ab250a580ed3c89015c206b0224529"),
    }

    @pytest.mark.parametrize("scenario", sorted(GOLDEN))
    def test_golden_bytes(self, tmp_path, capsys, scenario):
        stem = tmp_path / scenario
        main(["gen", "--scenario", scenario, "--n", "1000", "--seed", "7",
              "--output", str(stem)])
        got = tuple(
            hashlib.sha256(stem.with_suffix(suffix).read_bytes()).hexdigest()
            for suffix in (".csv", ".json")
        )
        assert got == self.GOLDEN[scenario]

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag, field", [("--noise", "noise_scale"), ("--theta", "theta")])
    def test_non_finite_parameter_exit_one(self, tmp_path, capsys, flag, field, value):
        code = main(["gen", "--scenario", "h1", "--n", "10", f"{flag}={value}",
                     "--output", str(tmp_path / "s")])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: {field} must be finite")
        assert not (tmp_path / "s.csv").exists()

    def traced_gen_peak(self, tmp_path, monkeypatch, cores, n):
        """tracemalloc peak of an h1 `gen` of n rows, written by `cores` processes."""
        monkeypatch.setattr(infoloss.serialize, "_usable_cores", lambda: cores)
        assert infoloss.serialize._writer_processes(n) == cores
        main(["gen", "--scenario", "h1", "--n", "1000", "--output", str(tmp_path / "warm")])
        code, peak = traced_peak(main, ["gen", "--scenario", "h1", "--n", str(n), "--seed", "3",
                                        "--output", str(tmp_path / "s")])
        assert code == EXIT_OK
        return peak

    def test_peak_is_the_sample_plus_a_block(self, tmp_path, capsys, monkeypatch):
        # gen writes the CSV a block of rows at a time, so its traced peak is
        # the sample's 32 bytes per row (h1: x1, x2, y, z1) plus a fixed
        # allowance: about 0.25 MB for one block's floats and text and about
        # 0.6 MB for the generator's draw buffers.  Holding the CSV text, about
        # 62 bytes per row, would not fit.  One core: this process formats
        # every row.
        n, allowance = 100_000, 1 << 20
        peak = self.traced_gen_peak(tmp_path, monkeypatch, 1, n)
        assert (tmp_path / "s.csv").stat().st_size > 4 * allowance
        assert peak <= 32 * n + allowance, f"peak {peak / n:.1f} bytes per row"

    def test_forked_peak_is_the_sample_plus_a_block(self, tmp_path, capsys, monkeypatch):
        # Two cores split the 1e5 rows in two.  The bound is the one above,
        # for this process alone: the forked child, which also holds one
        # block at a time, is outside tracemalloc.
        n, allowance = 100_000, 1 << 20
        peak = self.traced_gen_peak(tmp_path, monkeypatch, 2, n)
        assert peak <= 32 * n + allowance, f"peak {peak / n:.1f} bytes per row"

    @pytest.mark.parametrize("n, cores", [
        pytest.param(n, cores, id=str(n) if cores == 1 else f"{n}-{cores}cores")
        for cores in (1, 2, 3) for n in (1023, 1024, 1025, 2049)
    ])
    def test_bytes_across_blocks(self, tmp_path, capsys, monkeypatch, n, cores):
        # The writer's 1024-row blocks join into exactly the one-string text,
        # also when up to `cores` processes, of 256 rows or more each, format
        # parts of it.
        monkeypatch.setattr(infoloss.serialize, "_usable_cores", lambda: cores)
        monkeypatch.setattr(infoloss.serialize, "_ROWS_PER_PROCESS", 256)
        main(["gen", "--scenario", "h1", "--n", str(n), "--seed", "4",
              "--output", str(tmp_path / "s")])
        text = dataset_to_csv(gen_h1(H1Config(n=n, seed=4)))
        assert len(text.splitlines()) == n + 1
        (tmp_path / "whole.csv").write_text(text)
        got = (tmp_path / "s.csv").read_bytes()
        assert got == text.encode() == (tmp_path / "whole.csv").read_bytes()

    def test_failed_writer_process_exit_one(self, tmp_path, capfd, monkeypatch):
        # A child that fails is one error line; capfd also sees what the
        # child itself might write to the inherited stderr.
        monkeypatch.setattr(infoloss.serialize, "_usable_cores", lambda: 2)
        monkeypatch.setattr(infoloss.serialize, "_ROWS_PER_PROCESS", 256)
        blocks = infoloss.serialize._row_blocks

        def child_raises(data, start, stop):
            if start > 0:
                raise ValueError("formatting failed")
            return blocks(data, start, stop)

        monkeypatch.setattr(infoloss.serialize, "_row_blocks", child_raises)
        code = main(["gen", "--scenario", "h1", "--n", "600", "--output", str(tmp_path / "s")])
        assert code == EXIT_ERROR
        out, err = capfd.readouterr()
        assert out == ""
        assert err == (f"error: {tmp_path / 's.csv'}: the process formatting rows 301..600 "
                       "exited with status 1\n")
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["gen", "--scenario", "h1", "--n", "500", "--seed", "9", "--theta", "0.7"]
        main(argv + ["--output", str(a)])
        main(argv + ["--output", str(b)])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_exit_one(self, tmp_path, capsys, seed):
        code = main(["gen", "--scenario", "h0", "--n", "10", "--seed", seed,
                     "--output", str(tmp_path / "s")])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: seed must be in [0, 2**64), got {seed}\n"
        assert not (tmp_path / "s.csv").exists()

    def test_h1_echo_carries_theta(self, tmp_path, capsys):
        stem = tmp_path / "alt"
        main(["gen", "--scenario", "h1", "--n", "50", "--theta", "0.9",
              "--output", str(stem)])
        echo = json.loads((tmp_path / "alt.json").read_text())
        assert echo["theta"] == 0.9

    def test_generated_file_round_trips_through_test(self, tmp_path, capsys):
        stem = tmp_path / "sample"
        main(["gen", "--scenario", "h0", "--n", "2000", "--seed", "0",
              "--output", str(stem)])
        capsys.readouterr()
        code = main(["test", "--input", str(tmp_path / "sample.csv"), "--h", "0.25"])
        assert code == EXIT_OK


class TestMcCommand:
    def test_writes_csv_and_json(self, tmp_path, capsys):
        stem = tmp_path / "mc"
        code = main([
            "mc", "--scenario", "h0", "--n-grid", "200,400", "--reps", "5",
            "--h", "0.25", "--output", str(stem),
        ])
        assert code == EXIT_OK
        lines = (tmp_path / "mc.csv").read_text().splitlines()
        assert lines[0] == "n,rejection_rate,mean_Ln,mean_tn,type1_bound"
        assert len(lines) == 3
        blob = json.loads((tmp_path / "mc.json").read_text())
        assert blob["plan"]["n_grid"] == [200, 400]
        assert len(blob["results"]) == 2
        assert [row["vacuous"] for row in blob["results"]] == [True, True]

    def test_burn_in_flag_removed_exit_two(self, tmp_path, capsys):
        # Burn-in follows from the threshold (each row's "vacuous"), so no
        # cut-off flag exists.
        with pytest.raises(SystemExit) as exc:
            main(["mc", "--n-grid", "200", "--reps", "2", "--min-n", "5",
                  "--output", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --min-n 5" in capsys.readouterr().err

    # The last seed overflows at replicate 1, whose seed is base + 1; the
    # plan refuses it before any replicate draws.
    @pytest.mark.parametrize("seed, reps, bad", [("-1", 1, -1), (str(2**64 - 1), 2, 2**64)])
    def test_out_of_range_seed_exit_one(self, tmp_path, capsys, monkeypatch, seed, reps, bad):
        draws = []
        for name in ("gen_h0", "gen_h1"):
            monkeypatch.setattr(infoloss.montecarlo, name, lambda cfg: draws.append(cfg))
        code = main(["mc", "--n-grid", "200", "--reps", str(reps), "--seed", seed,
                     "--output", str(tmp_path / "out")])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == (
            f"error: seed {seed} and reps {reps} give replicate seeds {seed} .. {bad}, "
            "outside [0, 2**64)\n"
        )
        assert draws == []
        assert not (tmp_path / "out.csv").exists()

    def test_thread_count_does_not_change_csv(self, tmp_path, capsys):
        argv = ["mc", "--scenario", "h1", "--n-grid", "300", "--reps", "6",
                "--h", "0.25", "--theta", "1.0"]
        main(argv + ["--threads", "1", "--output", str(tmp_path / "t1")])
        main(argv + ["--threads", "4", "--output", str(tmp_path / "t4")])
        assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t4.csv").read_bytes()

    def test_bad_grid_exit_one(self, tmp_path, capsys):
        code = main(["mc", "--n-grid", "400,200", "--reps", "2",
                     "--h", "0.25", "--output", str(tmp_path / "out")])
        assert code == EXIT_ERROR

    @pytest.mark.parametrize("grid, token", [("1000,", "''"), ("1e3", "'1e3'")])
    def test_non_integer_grid_names_flag(self, tmp_path, capsys, grid, token):
        code = main(["mc", "--n-grid", grid, "--reps", "2",
                     "--output", str(tmp_path / "out")])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: --n-grid: {token} is not an integer\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_non_positive_threads_exit_one(self, tmp_path, capsys, threads):
        code = main(["mc", "--n-grid", "200", "--reps", "2", "--h", "0.25",
                     "--threads", threads, "--output", str(tmp_path / "out")])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: threads must be >= 1, got {threads}\n"
        assert not (tmp_path / "out.csv").exists()

    def test_non_finite_theta_fails_before_any_replicate(self, tmp_path, capsys, monkeypatch):
        drawn = []
        monkeypatch.setattr(infoloss.montecarlo, "gen_h1", lambda cfg: drawn.append(cfg))
        code = main(["mc", "--scenario", "h1", "--theta", "nan", "--n-grid", "200",
                     "--reps", "2", "--output", str(tmp_path / "out")])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: theta must be finite and nonzero (0 is the null), got nan\n"
        )
        assert drawn == [] and not (tmp_path / "out.csv").exists()

    def test_infinite_c1_exit_one(self, tmp_path, capsys):
        code = main(["mc", "--n-grid", "200", "--reps", "2", "--c1", "inf",
                     "--output", str(tmp_path / "out")])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err.startswith("error: c1 must be finite")
        assert not (tmp_path / "out.csv").exists()


class TestBoundsCommand:
    def test_reports_certificate(self, tmp_path, capsys):
        joint, tmap = gen_random_joint((3, 4, 2), 0)
        path = tmp_path / "instance.json"
        save_json(
            {
                "joint": joint_to_dict(joint),
                "map": map_to_dict(tmap),
                "loss": loss_to_dict(zero_one_loss(3)),
            },
            path,
        )
        code = main(["bounds", "--input", str(path)])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"delta_I", "bound", "excess", "corollary", "holds"}
        assert report["holds"] is True

    def test_schema_error_exit_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        save_json({"joint": {"shape": [2, 2, 2]}}, path)
        code = main(["bounds", "--input", str(path)])
        assert code == EXIT_ERROR
        assert "probs" in capsys.readouterr().err

    @pytest.mark.parametrize("top, kind", [([1, 2], "list"), ("s", "str")])
    def test_non_object_top_level_exit_one(self, tmp_path, capsys, top, kind):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(top))
        code = main(["bounds", "--input", str(path)])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {path}: expected an object, got {kind}\n"

    @pytest.mark.parametrize("missing", [("joint",), ("map",), ("loss",), ("joint", "map", "loss")])
    def test_missing_field_exit_one(self, tmp_path, capsys, missing):
        joint, tmap = gen_random_joint((3, 4, 2), 0)
        instance = {
            "joint": joint_to_dict(joint),
            "map": map_to_dict(tmap),
            "loss": loss_to_dict(zero_one_loss(3)),
        }
        path = tmp_path / "instance.json"
        save_json({k: v for k, v in instance.items() if k not in missing}, path)
        code = main(["bounds", "--input", str(path)])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}.{missing[0]}: missing field\n"


    def test_negative_map_entry_blamed_on_the_table(self, tmp_path, capsys):
        # A map without n_z defaults it to max(table) + 1, at least 1, so the
        # table check reports a negative entry rather than n_z.
        message = "map: map.table: entries must lie in [0, 1)"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            map_from_dict({"table": [-1]})
        joint, _ = gen_random_joint((3, 1, 1), 0)
        instance = {"joint": joint_to_dict(joint), "map": {"table": [-1]},
                    "loss": loss_to_dict(zero_one_loss(3))}
        path = tmp_path / "instance.json"
        save_json(instance, path)
        code = main(["bounds", "--input", str(path)])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestOverflowingJoint:
    """A joint whose finite entries sum past float64 is one error line, no warning."""

    JOINT = {"shape": [1, 2, 1], "probs": [1e308, 1e308]}

    @pytest.mark.parametrize("command, instance, where", [
        ("bounds", {"joint": JOINT, "map": {"table": [0, 0]}, "loss": {"cost": [[0.0]]}},
         "joint"),
        ("portfolio", {"d_a": 1, "returns": [[1.0]], "joint": JOINT, "map": {"table": [0, 0]}},
         "market.joint"),
    ])
    def test_one_error_line(self, tmp_path, command, instance, where):
        path = tmp_path / "instance.json"
        save_json(instance, path)
        proc = subprocess.run(
            [sys.executable, "-m", "infoloss", command, "--input", str(path)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_ERROR
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: {where}: joint.probs: probabilities sum to inf, not 1\n"
        )


class TestOutOfRangeJsonNumber:
    """A JSON integer literal no float64 or int64 holds is one error line at its path."""

    JOINT = {"shape": [1, 2, 1], "probs": [0.5, 0.5]}

    @pytest.mark.parametrize("command, instance, digits, message", [
        ("bounds", {"joint": JOINT, "map": {"table": [0, "N"]}, "loss": {"cost": [[0.0]]}},
         400, "map.table[1]: expected an integer in the int64 range"),
        ("portfolio", {"d_a": 1, "returns": [["N"]], "joint": JOINT, "map": {"table": [0, 0]}},
         400, "market.returns[0][0]: expected a number in the float64 range"),
        ("bounds", {"joint": {"shape": [1, 2, 1], "probs": ["N", 0.5]}, "map": {"table": [0, 0]},
                    "loss": {"cost": [[0.0]]}},
         5000, "{path}: invalid JSON: Exceeds the limit (4300 digits)"),
        ("bounds", {"joint": {"shape": ["N", "N", "N"], "probs": [0.5, 0.5]},
                    "map": {"table": [0, 0]}, "loss": {"cost": [[0.0]]}},
         1500, "joint.shape: expected at most 9223372036854775807 entries in all"),
    ], ids=["map.table", "market.returns", "digit-limit", "joint.shape"])
    def test_one_error_line(self, tmp_path, command, instance, digits, message):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance).replace('"N"', "9" * digits))
        proc = subprocess.run(
            [sys.executable, "-m", "infoloss", command, "--input", str(path)],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == EXIT_ERROR
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: " + message.format(path=path))
        assert len(proc.stderr.splitlines()) == 1


class TestPortfolioCommand:
    def test_reports_growth_gap(self, tmp_path, capsys):
        market = gen_market(2, 3, 1)
        path = tmp_path / "market.json"
        save_json(market_to_dict(market), path)
        code = main(["portfolio", "--input", str(path)])
        assert code == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {
            "W_star", "W_star_X", "W_star_Z", "I_RX", "I_RZ", "gap", "mi_gap",
            "W_star_err", "W_star_X_err", "W_star_Z_err",
        }
        assert report["gap"] <= report["mi_gap"] + 1e-6


class TestSelectCommand:
    def test_selects_relevant_column(self, tmp_path, rng, capsys):
        csv = tmp_path / "dep.csv"
        n = 100_000
        x = rng.random((n, 2))
        y = x[:, 0] + 0.05 * rng.standard_normal(n)
        write_dataset_csv(Dataset(x=x, y=y, z=np.zeros((n, 1))), csv)
        code = main(["select", "--input", str(csv), "--h", "0.1"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        result = json.loads(captured.out)
        assert result["selected"] == ["x1"]
        assert result["accepted"] is True
        assert result["trace"][0]["added"] == "x1"
        assert result["trace"][-1]["vacuous"] is False
        assert captured.err == ""

    def test_vacuous_acceptance_warns_exit_zero(self, tmp_path, capsys):
        # y depends on x2 and x3, but at h = 0.34 the empty subset's t_n is
        # 4.21 against L_n = 0.835: accepted only because it cannot reject.
        rng = np.random.default_rng(0)
        n = 200_000
        x = rng.random((n, 3))
        y = x[:, 2] + 0.5 * x[:, 1] + 0.05 * rng.standard_normal(n)
        csv = tmp_path / "dep.csv"
        write_dataset_csv(Dataset(x=x, y=y, z=np.zeros((n, 1))), csv)
        code = main(["select", "--input", str(csv), "--h", "0.34"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        result = json.loads(captured.out)
        assert result["selected"] == [] and result["accepted"] is True
        assert result["trace"][-1]["vacuous"] is True
        assert captured.err == (
            "warning: t_n = 4.207 >= 2 at n = 200000, h = 0.34, so the test cannot reject "
            "and the acceptance is no evidence of sufficiency\n"
        )

    def test_no_accepted_subset_warns_exit_zero(self, tmp_path, rng, capsys, monkeypatch):
        monkeypatch.setattr(infoloss.selection, "run_test", always_reject)
        csv = tmp_path / "sample.csv"
        write_sample(csv, rng, n=100)
        code = main(["select", "--input", str(csv)])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert json.loads(captured.out)["accepted"] is False
        assert captured.err == "warning: no subset accepted; returning the full set\n"


class TestGoldenOutputs:
    """sha256 of what each command prints or writes for fixed inputs.

    They pin every record's keys, key order and values, so a refactor of the
    result types or the certificates cannot change an output byte unseen.
    """

    @pytest.mark.parametrize("flags, expected", [
        ((), "f8602960f93bec946ae5adcb5eca6c770a7d1dc36a04e419e2ed73e40abb6fcc"),
        (("--h", "0.1"), "499da88d01d1bc1382178dbf9f6d40f195ea390efd9cc292234e13b1be890b78"),
    ], ids=["default", "h0.1"])
    def test_test_stdout(self, h1_csv, capsys, flags, expected):
        capsys.readouterr()
        main(["test", "--input", str(h1_csv), *flags])
        assert sha256(capsys.readouterr().out) == expected

    def test_select_stdout(self, tmp_path, capsys):
        # y follows x1, so the trace holds a rejected step with candidate
        # scores and an accepted one.
        rng = np.random.default_rng(0)
        n = 100_000
        x = rng.random((n, 2))
        y = x[:, 0] + 0.05 * rng.standard_normal(n)
        csv = tmp_path / "dep.csv"
        write_dataset_csv(Dataset(x=x, y=y, z=np.zeros((n, 1))), csv)
        main(["select", "--input", str(csv), "--h", "0.1"])
        assert sha256(capsys.readouterr().out) == (
            "8eef66e279304d277ea17f248d7dd896ab8ae8db0d7f718ec43d7c307945042e"
        )

    def test_bounds_stdout(self, tmp_path, capsys):
        joint, tmap = gen_random_joint((3, 4, 2), 0)
        path = tmp_path / "instance.json"
        save_json({"joint": joint_to_dict(joint), "map": map_to_dict(tmap),
                   "loss": loss_to_dict(zero_one_loss(3))}, path)
        main(["bounds", "--input", str(path)])
        assert sha256(capsys.readouterr().out) == (
            "7fdb936d6c66ed0b0afe0eef8061bc150bec9c22af05d6a35ae6267095517b21"
        )

    def test_portfolio_stdout(self, tmp_path, capsys):
        path = tmp_path / "market.json"
        save_json(market_to_dict(gen_market(3, 6, 0)), path)
        main(["portfolio", "--input", str(path)])
        assert sha256(capsys.readouterr().out) == (
            "8bc4ce43c07cb1a5cfffa2f33e6aa40d1224388b9dbe17c853f4030c3b88f075"
        )

    def mc_digests(self, tmp_path, scenario):
        """sha256 of the CSV and of every JSON line but the measured wall times."""
        stem = tmp_path / "mc"
        main(["mc", "--scenario", scenario, "--n-grid", "1000,5000", "--reps", "10",
              "--threads", "2", "--output", str(stem)])
        lines = stem.with_suffix(".json").read_text().splitlines(keepends=True)
        kept = "".join(line for line in lines if '"wall_time":' not in line)
        return sha256(stem.with_suffix(".csv").read_text()), sha256(kept)

    def test_mc_files(self, tmp_path, capsys):
        assert self.mc_digests(tmp_path, "h1") == (
            "33d7a02201c4431ffa583c9f39d135e498380511ca7f01b5397c6716270689c4",
            "f3ca41e448dae01cf36e6dcedb1dadadfdf0da31bfabc84e5b9e6743dfeea0f3",
        )

    def test_mc_files_h0(self, tmp_path, capsys):
        # The h0 plan echoes "theta": null.
        assert self.mc_digests(tmp_path, "h0") == (
            "ac94c6b40decca05ff94666b06a0cf0261add7099a9f10ea0e41c852475f413b",
            "0c82a3a01628caa808b890b3c864b3b5c2321786de5b75b44a30976b424864f9",
        )


class TestArgparseBehavior:
    # Sample dimensions come from the CSV header, so no flag declares them;
    # and no long flag may be abbreviated, so a removed flag cannot parse as
    # the prefix of a live one (--d of --delta).
    @pytest.mark.parametrize("command, flag, value", [
        ("test", "--d", "2"),
        ("test", "--dprime", "1"),
        ("select", "--d", "2"),
        ("test", "--del", "0.2"),
        ("select", "--c", "1.5"),
    ])
    def test_removed_or_abbreviated_flag_exit_two(self, tmp_path, rng, capsys, command, flag,
                                                  value):
        csv = tmp_path / "sample.csv"
        write_sample(csv, rng, n=100)
        with pytest.raises(SystemExit) as exc:
            main([command, "--input", str(csv), flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["test", "select", "mc"])
    def test_subnormal_bandwidth_exit_one(self, h1_csv, tmp_path, capsys, command):
        # 1 / 5e-324 overflows to inf: one error line, not a traceback.
        source = (["--n-grid", "100", "--reps", "2", "--output", str(tmp_path / "mc")]
                  if command == "mc" else ["--input", str(h1_csv)])
        capsys.readouterr()
        assert main([command, *source, "--h", "5e-324"]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: partition too fine: flat cell ids would overflow int64\n"

    def test_readme_commands_parse(self):
        # Every command line in the README parses against the current flags.
        readme = Path(__file__).resolve().parent.parent / "README.md"
        commands = [line.strip() for line in readme.read_text().splitlines()
                    if line.strip().startswith("infoloss ")]
        seen = set()
        for line in commands:
            argv = shlex.split(line, comments=True)[1:]
            seen.add(build_parser().parse_args(argv).command)
        assert seen == {"test", "mc", "bounds", "portfolio", "gen", "select"}

    def test_every_export_is_reached_or_listed(self):
        # Each name the package exports is used by the package outside
        # __init__.py, a script or the benchmark, or README's "Python API"
        # list names it; the list names only exports.
        root = Path(__file__).resolve().parent.parent
        init = root / "src" / "infoloss" / "__init__.py"
        exported = {alias.name for node in ast.parse(init.read_text()).body
                    if isinstance(node, ast.ImportFrom) for alias in node.names}
        used = set()
        for path in [*(root / "src").rglob("*.py"), *(root / "scripts").rglob("*.py"),
                     *(root / "perfbench").rglob("*.py")]:
            if path != init:
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.Name):
                        used.add(node.id)
                    elif isinstance(node, ast.Attribute):
                        used.add(node.attr)
        readme = (root / "README.md").read_text()
        api = set(re.findall(r"^- `(\w+)", readme.split("\n## Python API\n")[1].split("\n## ")[0],
                             flags=re.M))
        assert api <= exported
        assert sorted(exported - used - api) == []
        # These imports are the one list of public names: no module keeps an
        # __all__ beside them.
        for path in (root / "src" / "infoloss").rglob("*.py"):
            assigned = {node.id for node in ast.walk(ast.parse(path.read_text()))
                        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
            assert "__all__" not in assigned, path

    def test_no_command_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_console_entry_point(self, tmp_path):
        # The module is executable as python -m infoloss.
        proc = subprocess.run(
            [sys.executable, "-m", "infoloss", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "test" in proc.stdout and "portfolio" in proc.stdout

    def test_import_loads_no_process_machinery(self):
        # The CSV reader and writer fork with os alone, through
        # infoloss._parts, which they import when called and which imports
        # signal; so a fresh `import infoloss` (most of the benchmark's
        # setup_s) loads none of these.
        src = Path(infoloss.serialize.__file__).parents[1]
        proc = subprocess.run(
            [sys.executable, "-c", "import infoloss; import sys; print(sorted(sys.modules))"],
            capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert proc.returncode == 0, proc.stderr
        loaded = set(ast.literal_eval(proc.stdout))
        assert "infoloss.serialize" in loaded
        heavy = {"multiprocessing", "concurrent.futures.process", "subprocess", "signal",
                 "infoloss._parts"}
        assert loaded & heavy == set()

    @pytest.mark.parametrize("command", ["test", "select"])
    def test_closed_stdout_exits_one_quietly(self, h1_csv, command):
        # The read end is closed before the child starts, so its write to
        # stdout fails with EPIPE on every run, not only when a reader such
        # as `head` happens to exit first.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "infoloss", command, "--input", str(h1_csv)],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == EXIT_ERROR
        assert "error:" not in proc.stderr
        assert "Exception ignored" not in proc.stderr

    def test_broken_pipe_on_output_file_is_an_error(self, h1_csv, tmp_path, monkeypatch,
                                                    capsys):
        # Only stdout's reader leaving is quiet: an --output FIFO whose reader
        # exits is a file error like any other.
        def broken_pipe(self, *args, **kwargs):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(Path, "write_text", broken_pipe)
        code = main(["test", "--input", str(h1_csv), "--output", str(tmp_path / "o.json")])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
