import json
import math

import numpy as np
import pytest

import cwishart as cw
from cwishart import cli
from cwishart.linalg import dumps_matrix


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def identity_model_dict(p, n):
    return {
        "p": p,
        "n": n,
        "theta": cw.matrix_to_dict(np.eye(p)),
        "shape": {"variant": "identity"},
    }


def zero_model_dict(p, n):
    return {
        "p": p,
        "n": n,
        "theta": cw.matrix_to_dict(np.eye(p)),
        "shape": {"variant": "custom", "matrix": cw.matrix_to_dict(np.zeros((n, n)))},
    }


class TestSample:
    def test_zero_shape_writes_zero_matrices(self, tmp_path):
        out = tmp_path / "out"
        config = write_config(
            tmp_path, "c.json",
            {"command": "sample", "model": zero_model_dict(2, 3),
             "trials": 2, "seed": 9, "out": str(out)},
        )
        assert cli.main(["--config", config]) == 0
        for i in range(2):
            w = cw.load_matrix(out / f"W.{i:03d}.json")
            assert np.array_equal(w, np.zeros((2, 2)))

    def test_same_seed_byte_identical(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            config = write_config(
                tmp_path, f"{name}.json",
                {"command": "sample", "model": identity_model_dict(2, 4),
                 "trials": 3, "seed": 77, "out": str(out)},
            )
            assert cli.main(["--config", config]) == 0
            outs.append(out)
        for i in range(3):
            a = (outs[0] / f"W.{i:03d}.json").read_bytes()
            b = (outs[1] / f"W.{i:03d}.json").read_bytes()
            assert a == b

    def test_trials_produce_numbered_suffixes(self, tmp_path):
        out = tmp_path / "out"
        config = write_config(
            tmp_path, "c.json",
            {"command": "sample", "model": identity_model_dict(2, 4),
             "trials": 3, "seed": 5, "out": str(out)},
        )
        assert cli.main(["--config", config]) == 0
        assert sorted(f.name for f in out.iterdir()) == [
            "W.000.json", "W.001.json", "W.002.json"
        ]

    def test_decoupled_outputs(self, tmp_path):
        out = tmp_path / "out"
        config = write_config(
            tmp_path, "c.json",
            {"command": "sample", "model": identity_model_dict(2, 4),
             "trials": 1, "seed": 5, "out": str(out), "decoupled": True},
        )
        assert cli.main(["--config", config]) == 0
        assert (out / "Wprime.000.json").exists()


class TestBound:
    def test_scalar_model_value(self, tmp_path, capsys):
        model = {
            "p": 1, "n": 1,
            "theta": cw.matrix_to_dict(np.eye(1)),
            "shape": {"variant": "custom", "matrix": cw.matrix_to_dict(np.eye(1))},
        }
        config = write_config(tmp_path, "c.json", {"command": "bound", "model": model})
        assert cli.main(["--config", config]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bound_value"] == pytest.approx(138.53889242173238)

    def test_convention_flag_changes_kappa(self, tmp_path, capsys):
        model = {
            "p": 2, "n": 2,
            "theta": cw.matrix_to_dict(np.eye(2)),
            "shape": {"variant": "diagonal", "entries": [2.0, 0.0]},
        }
        config = write_config(tmp_path, "c.json", {"command": "bound", "model": model})
        assert cli.main(["--config", config, "--convention", "frobenius"]) == 0
        frob = json.loads(capsys.readouterr().out)
        assert cli.main(["--config", config, "--convention", "ratio"]) == 0
        ratio = json.loads(capsys.readouterr().out)
        assert frob["kappa"] == pytest.approx(2.0)
        assert ratio["kappa"] == pytest.approx(1.0)
        assert frob["bound_value"] != ratio["bound_value"]

    def test_bound_past_the_largest_float_exits_two_with_no_report(self, tmp_path, capsys):
        # ||theta|| = 1e307 times a log factor of about 150 is inf, which JSON cannot hold.
        model = dict(identity_model_dict(2, 8), theta=cw.matrix_to_dict(np.diag([1e307, 1e307])))
        config = write_config(tmp_path, "c.json", {"command": "bound", "model": model})
        assert cli.main(["--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "inf or NaN" in captured.err

    def test_missing_model_file_is_config_error(self, tmp_path):
        config = write_config(
            tmp_path, "c.json", {"command": "bound", "model_path": "no_such_file.json"}
        )
        assert cli.main(["--config", config]) == 2


class TestVerify:
    def test_expectation_check_passes(self, tmp_path, capsys):
        config = write_config(
            tmp_path, "c.json",
            {"command": "verify", "check": "expectation",
             "model": identity_model_dict(2, 6), "trials": 1500, "seed": 3},
        )
        assert cli.main(["--config", config]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["check_name"] == "expectation"
        assert report["holds"] is True
        assert "config_digest" in report and report["master_seed"] == 3

    def test_unknown_check_lists_valid_names(self, tmp_path, capsys):
        config = write_config(
            tmp_path, "c.json",
            {"command": "verify", "check": "bogus", "model": identity_model_dict(2, 4)},
        )
        assert cli.main(["--config", config]) == 2
        err = capsys.readouterr().err
        for name in cli.CHECKS:
            assert name in err

    def test_dominance_check(self, tmp_path, capsys):
        config = write_config(
            tmp_path, "c.json",
            {"command": "verify", "check": "dominance",
             "model": identity_model_dict(2, 8), "trials": 500, "seed": 21},
        )
        assert cli.main(["--config", config]) == 0
        assert json.loads(capsys.readouterr().out)["holds"] is True

    def test_stddev_check(self, tmp_path, capsys):
        config = write_config(
            tmp_path, "c.json",
            {"command": "verify", "check": "stddev",
             "theta": cw.matrix_to_dict(np.diag([4.0, 1.0])), "a": [1.0, 1.0],
             "trials": 20000, "seed": 23},
        )
        assert cli.main(["--config", config]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["target"] == pytest.approx(5**0.5)
        assert report["holds"] is True

    @pytest.mark.parametrize("check", ["decoupling", "dominance"])
    def test_overflowing_statistics_exit_two_with_no_report(self, tmp_path, capsys, check):
        # Norms near 1e306 sum past the largest float: no mean is reported as Infinity.
        bad = dict(identity_model_dict(2, 8), theta=cw.matrix_to_dict(np.diag([1e306, 1e306])))
        config = write_config(
            tmp_path, "c.json",
            {"command": "verify", "check": check, "model": bad, "trials": 2048, "seed": 1},
        )
        assert cli.main(["--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "overflow" in captured.err

    def test_failing_check_maps_to_exit_one(self, tmp_path, monkeypatch):
        config = write_config(
            tmp_path, "c.json",
            {"command": "verify", "check": "expectation",
             "model": identity_model_dict(2, 4), "trials": 100, "seed": 1},
        )
        monkeypatch.setattr(cli, "_run_check", lambda cfg, workers: {"holds": False})
        assert cli.main(["--config", config]) == 1

    def test_flag_overrides_config_seed(self, tmp_path, capsys):
        config = write_config(
            tmp_path, "c.json",
            {"command": "verify", "check": "expectation",
             "model": identity_model_dict(2, 4), "trials": 200, "seed": 3},
        )
        assert cli.main(["--config", config, "--seed", "44"]) == 0
        assert json.loads(capsys.readouterr().out)["master_seed"] == 44


class TestNetcert:
    def test_identity_certificate(self, tmp_path, capsys):
        mat = tmp_path / "id.json"
        mat.write_text(dumps_matrix(np.eye(3)))
        config = write_config(
            tmp_path, "c.json", {"command": "netcert", "inputs": [str(mat)]}
        )
        assert cli.main(["--config", config]) == 0
        cert = json.loads(capsys.readouterr().out.strip())
        assert cert["holds"] is True
        assert cert["matrix_id"] == "id.json"

    def test_cap_exceeded_exit_three(self, tmp_path):
        mat = tmp_path / "big.json"
        mat.write_text(dumps_matrix(np.eye(15)))
        config = write_config(
            tmp_path, "c.json", {"command": "netcert", "inputs": [str(mat)]}
        )
        assert cli.main(["--config", config]) == 3

    def test_batch_certificates(self, tmp_path, capsys):
        rng = cw.generator(99)
        paths = []
        for i in range(5):
            path = tmp_path / f"m{i}.json"
            path.write_text(dumps_matrix(rng.standard_normal((6, 6))))
            paths.append(str(path))
        out = tmp_path / "certs"
        config = write_config(
            tmp_path, "c.json", {"command": "netcert", "inputs": paths, "out": str(out)}
        )
        assert cli.main(["--config", config]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        assert all(json.loads(line)["holds"] for line in lines)
        assert (out / "certificates.jsonl").read_text().strip().splitlines() == lines


class TestSweep:
    def scaling_config(self, tmp_path, out):
        return write_config(
            tmp_path, "c.json",
            {"command": "sweep", "sweep": "scaling", "p": 2,
             "n_grid": [8, 16, 32, 64], "family": {"variant": "identity"},
             "trials": 200, "seed": 11, "out": str(out)},
        )

    def test_scaling_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["--config", self.scaling_config(tmp_path, out)]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "p,n,mean,stderr,bound,ratio"
        assert len(lines) == 5
        summary = json.loads((out / "summary.json").read_text())
        assert summary["sweep"] == "scaling"
        assert summary["slope"] == pytest.approx(-0.5, abs=0.25)

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        for out in (out1, out2):
            config = self.scaling_config(tmp_path, out)
            assert cli.main(["--config", config]) == 0
        assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()

    def test_empty_grid_is_config_error(self, tmp_path):
        config = write_config(
            tmp_path, "c.json",
            {"command": "sweep", "sweep": "scaling", "p": 2, "n_grid": [],
             "trials": 10, "seed": 0, "out": str(tmp_path / "x")},
        )
        assert cli.main(["--config", config]) == 2

    def test_complexity_sweep(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = write_config(
            tmp_path, "c.json",
            {"command": "sweep", "sweep": "complexity", "p_grid": [2],
             "tolerance": 2.5, "family": {"variant": "identity"},
             "trials": 200, "seed": 13, "out": str(out)},
        )
        assert cli.main(["--config", config]) == 0
        summary = json.loads((out / "summary.json").read_text())
        rows = summary["table"]["rows"]
        assert rows[0]["theoretical_n"] >= rows[0]["empirical_n"]


class TestUsage:
    def test_no_command_anywhere(self, capsys):
        assert cli.main([]) == 2
        assert "command" in capsys.readouterr().err

    def test_command_from_positional(self, tmp_path, capsys):
        config = write_config(
            tmp_path, "c.json", {"model": identity_model_dict(1, 2)}
        )
        assert cli.main(["bound", "--config", config]) == 0
        assert json.loads(capsys.readouterr().out)["p"] == 1

    def test_workers_env_is_validated(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WISHART_THREADS", "not-a-number")
        config = write_config(
            tmp_path, "c.json",
            {"command": "verify", "check": "expectation",
             "model": identity_model_dict(2, 4), "trials": 100, "seed": 1},
        )
        assert cli.main(["--config", config]) == 2

    def test_workers_env_does_not_change_output(self, tmp_path, capsys, monkeypatch):
        config = write_config(
            tmp_path, "c.json",
            {"command": "verify", "check": "decoupling",
             "model": identity_model_dict(2, 8), "trials": 200, "seed": 31},
        )
        outputs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("WISHART_THREADS", threads)
            assert cli.main(["--config", config]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("threads", ["0", "-4"])
    def test_workers_env_must_be_positive(self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setenv("WISHART_THREADS", threads)
        config = write_config(
            tmp_path, "c.json",
            {"command": "verify", "check": "expectation",
             "model": identity_model_dict(2, 4), "trials": 100, "seed": 1},
        )
        assert cli.main(["--config", config]) == 2
        assert "workers must be at least 1" in capsys.readouterr().err

    def test_out_of_memory_exits_three(self, tmp_path, capsys, monkeypatch):
        def exhausted(cfg, workers):
            raise MemoryError()

        monkeypatch.setattr(cli, "_run_check", exhausted)
        config = write_config(tmp_path, "c.json", {"command": "verify", "check": "expectation"})
        assert cli.main(["--config", config]) == 3
        assert capsys.readouterr().err == "error: out of memory\n"


def _with(d, path, value):
    """Copy of the nested dict ``d`` with the key path ``path`` set to ``value``."""
    d = json.loads(json.dumps(d))
    target = d
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return d


DOMINANCE = {"command": "verify", "check": "dominance",
             "model": identity_model_dict(2, 8), "trials": 20, "seed": 1}
SCALING = {"command": "sweep", "sweep": "scaling", "p": 2, "n_grid": [8, 16, 32],
           "family": {"variant": "diagonal", "seed": 3}, "trials": 20, "seed": 1}
COMPLEXITY = {"command": "sweep", "sweep": "complexity", "p_grid": [2],
              "tolerance": 1e6, "trials": 20, "seed": 1}
BOUND = {"command": "bound", "model": identity_model_dict(2, 2)}
SAMPLE = {"command": "sample", "model": identity_model_dict(2, 2), "trials": 2, "seed": 1}
STDDEV = {"command": "verify", "check": "stddev", "theta": cw.matrix_to_dict(np.eye(2)),
          "a": [1.0, 0.0], "trials": 20, "seed": 1}
CONCENTRATION = {"command": "verify", "check": "concentration",
                 "model": identity_model_dict(3, 16), "direction": [1.0, 0.0, 0.0],
                 "t_grid": [0.0, 0.05], "trials": 20, "seed": 1}


class TestIntegerFields:
    """Non-integral numbers and bools exit 2 naming the field, never truncate."""

    @pytest.mark.parametrize(
        "base,path,value,field",
        [
            (DOMINANCE, ("model", "p"), 2.7, "p"),
            (DOMINANCE, ("model", "n"), 8.5, "n"),
            (DOMINANCE, ("model", "theta", "rows"), 2.5, "rows"),
            (DOMINANCE, ("model", "theta", "cols"), True, "cols"),
            (DOMINANCE, ("seed",), 1.5, "seed"),
            (DOMINANCE, ("trials",), 20.9, "trials"),
            (SCALING, ("p",), 2.7, "p"),
            (SCALING, ("n_grid",), [8, 16.5, 32], "n_grid"),
            (SCALING, ("family", "seed"), True, "family seed"),
            (COMPLEXITY, ("p_grid",), [2.5], "p_grid"),
        ],
        ids=["model-p", "model-n", "rows", "cols", "seed", "trials",
             "sweep-p", "n_grid", "family-seed", "p_grid"],
    )
    def test_rejected_with_field_name(self, tmp_path, capsys, base, path, value, field):
        cfg = _with(base, path, value)
        cfg["out"] = str(tmp_path / "out")
        assert cli.main(["--config", write_config(tmp_path, "c.json", cfg)]) == 2
        err = capsys.readouterr().err
        assert field in err and "must be an integer" in err

    def test_integral_float_seed_runs_as_its_integer(self, tmp_path, capsys):
        m = cw.model_from_dict(DOMINANCE["model"])
        as_float, as_int = (cw.check_bound_dominance(cw.TrialConfig(m, 20, seed)).to_dict()
                            for seed in (2.0, 2))
        assert as_float == as_int
        reports = []
        for seed in (2.0, 2):
            config = write_config(tmp_path, "c.json", _with(DOMINANCE, ("seed",), seed))
            assert cli.main(["--config", config]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        # The digest hashes the config as written, where 2.0 and 2 differ.
        assert reports[0].pop("config_digest") != reports[1].pop("config_digest")
        assert reports[0] == reports[1] and reports[0]["master_seed"] == 2

    def test_valid_configs_run(self, tmp_path):
        for i, base in enumerate((DOMINANCE, SCALING, COMPLEXITY, CONCENTRATION, STDDEV)):
            cfg = dict(base, out=str(tmp_path / f"out{i}"))
            assert cli.main(["--config", write_config(tmp_path, f"c{i}.json", cfg)]) == 0


class TestMalformedConfig:
    """A field of the wrong JSON type exits 2 naming the field, never with a traceback."""

    @pytest.mark.parametrize(
        "base,path,value,field",
        [
            (SCALING, ("family",), "identity", "family"),
            (SCALING, ("n_grid",), 16, "n_grid"),
            (DOMINANCE, ("model", "shape"), "identity", "shape"),
            (CONCENTRATION, ("t_grid",), 0.5, "t_grid"),
            (CONCENTRATION, ("t_grid",), [0.1, math.inf], "t_grid"),
            (CONCENTRATION, ("t_grid",), [0.1, math.nan], "t_grid"),
            (CONCENTRATION, ("t_grid",), [0.01 * i for i in range(65)], "t_grid"),
            (CONCENTRATION, ("direction",), [math.nan, 0.0, 0.0], "direction"),
            (BOUND, ("model", "n"), 10**310, "n must be at most"),
            (BOUND, ("model", "theta", "entries"), ["1.5", True, True, "2"], "entries"),
            (BOUND, ("model", "shape"), {"variant": "diagonal", "entries": ["1", "1"]},
             "diagonal entries"),
            (BOUND, ("model", "shape"), {"variant": "diagonal", "entries": [10**400, 1]},
             "diagonal entries"),
            (STDDEV, ("a",), [math.nan, 1.0], "a must hold finite numbers"),
            (STDDEV, ("trials",), 1e13, "trials"),
            (SAMPLE, ("trials",), 0, "trials"),
            (SAMPLE, ("trials",), -3, "trials"),
            (COMPLEXITY, ("tolerance",), math.nan, "tolerance must be a finite positive number"),
            (COMPLEXITY, ("tolerance",), 1e400, "tolerance must be a finite positive number"),
        ],
        ids=["family-string", "n_grid-number", "shape-string", "t_grid-number",
             "t_grid-infinite", "t_grid-nan", "t_grid-too-long", "direction-nan",
             "n-beyond-float", "theta-strings-and-bools", "diagonal-strings",
             "diagonal-beyond-float", "a-nan", "trials-beyond-cap", "sample-no-draws",
             "sample-negative-draws", "tolerance-nan",
             "tolerance-infinite"],
    )
    def test_rejected_with_field_name(self, tmp_path, capsys, base, path, value, field):
        cfg = _with(base, path, value)
        cfg["out"] = str(tmp_path / "out")
        assert cli.main(["--config", write_config(tmp_path, "c.json", cfg)]) == 2
        assert field in capsys.readouterr().err

    def test_format_option_is_gone(self, tmp_path):
        config = write_config(tmp_path, "c.json", {"model": identity_model_dict(1, 2)})
        with pytest.raises(SystemExit) as exc:
            cli.main(["bound", "--config", config, "--format", "json"])
        assert exc.value.code == 2
