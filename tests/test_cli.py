"""End-to-end tests of the command line interface."""

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

import infoloss.selection
from infoloss import (
    Dataset,
    gen_market,
    gen_random_joint,
    joint_to_dict,
    loss_to_dict,
    map_to_dict,
    market_to_dict,
    save_json,
    zero_one_loss,
)
from infoloss.cli import EXIT_ERROR, EXIT_OK, EXIT_REJECT, main

from conftest import always_reject, write_dataset_csv


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

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_non_positive_threads_exit_one(self, tmp_path, capsys, threads):
        code = main(["mc", "--n-grid", "200", "--reps", "2", "--h", "0.25",
                     "--threads", threads, "--output", str(tmp_path / "out")])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: threads must be >= 1, got {threads}\n"
        assert not (tmp_path / "out.csv").exists()

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
        ((), "db77c2e48772b644c645b93fb0ca8abe1a84cf33b915a84540646cc94a51f4e4"),
        (("--h", "0.1"), "5d536ad0170f59ed921cbdcc8f440b60460067c4d623685b68093926f2aacf44"),
    ])
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
            "3c4a2d8a79ca2f9ddbe1f6c99ee6551bb609f143de0c14936c169821bfb91a24"
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

    def test_mc_files(self, tmp_path, capsys):
        stem = tmp_path / "mc"
        main(["mc", "--scenario", "h1", "--n-grid", "1000,5000", "--reps", "10",
              "--threads", "2", "--output", str(stem)])
        assert sha256(stem.with_suffix(".csv").read_text()) == (
            "33d7a02201c4431ffa583c9f39d135e498380511ca7f01b5397c6716270689c4"
        )
        # Every JSON line but the measured wall times.
        lines = stem.with_suffix(".json").read_text().splitlines(keepends=True)
        kept = "".join(line for line in lines if '"wall_time":' not in line)
        assert sha256(kept) == (
            "3bdfe9f61e799c6c90091652c7d1c89c560a24e9e881d7c5b12c5037ef6fcb0d"
        )


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
