"""End-to-end tests of the command line interface."""

import json
import subprocess
import sys

import numpy as np
import pytest

from infoloss import (
    Dataset,
    gen_market,
    gen_random_joint,
    joint_to_dict,
    loss_to_dict,
    map_to_dict,
    market_to_dict,
    save_json,
    write_dataset_csv,
    zero_one_loss,
)
from infoloss.cli import EXIT_ERROR, EXIT_OK, EXIT_REJECT, main


def write_sample(path, rng, n=5000, dependent=False):
    x1 = rng.random(n)
    x2 = rng.random(n)
    z = rng.random(n)
    y = x2 + 0.05 * rng.standard_normal(n) if dependent else rng.random(n)
    data = Dataset(x=np.stack([x1, x2], axis=1), y=y, z=z[:, None])
    write_dataset_csv(data, path)
    return data


class TestTestCommand:
    def test_independent_accepts_exit_zero(self, tmp_path, rng, capsys):
        csv = tmp_path / "indep.csv"
        write_sample(csv, rng)
        code = main(["test", "--input", str(csv), "--h", "0.25"])
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["reject"] is False
        assert set(out) == {
            "L_n", "t_n", "m", "m_prime", "m_dprime", "h", "reject", "type1_bound",
        }

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

    def test_dim_flag_mismatch_exit_one(self, tmp_path, rng, capsys):
        csv = tmp_path / "indep.csv"
        write_sample(csv, rng)
        code = main(["test", "--input", str(csv), "--d", "5"])
        assert code == EXIT_ERROR

    def test_bad_c1_exit_one(self, tmp_path, rng, capsys):
        csv = tmp_path / "indep.csv"
        write_sample(csv, rng)
        code = main(["test", "--input", str(csv), "--c1", "0.5"])
        assert code == EXIT_ERROR
        assert "c1" in capsys.readouterr().err


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

    def test_byte_identical_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["gen", "--scenario", "h1", "--n", "500", "--seed", "9", "--theta", "0.7"]
        main(argv + ["--output", str(a)])
        main(argv + ["--output", str(b)])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

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
            "--h", "0.25", "--min-n", "300", "--output", str(stem),
        ])
        assert code == EXIT_OK
        lines = (tmp_path / "mc.csv").read_text().splitlines()
        assert lines[0] == "n,rejection_rate,mean_Ln,mean_tn,type1_bound"
        assert len(lines) == 3
        blob = json.loads((tmp_path / "mc.json").read_text())
        assert blob["plan"]["n_grid"] == [200, 400]
        assert len(blob["results"]) == 2

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
        result = json.loads(capsys.readouterr().out)
        assert result["selected"] == ["x1"]
        assert result["accepted"] is True
        assert result["trace"][0]["added"] == "x1"


class TestArgparseBehavior:
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
