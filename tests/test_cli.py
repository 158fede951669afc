import errno
import json
import math
import os
import time

import numpy as np
import pytest

import cwishart as cw
from cwishart import cli, verify
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


def huge_trace_model_dict():
    # B = diag(1e308, 1e308): every entry fits in a float, their sum Tr(B) does not.
    return {"p": 2, "n": 2, "theta": cw.matrix_to_dict(np.eye(2)),
            "shape": {"variant": "diagonal", "entries": [1e308, 1e308]}}


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

    @pytest.mark.parametrize("flag", ["no", 1, 0, None, [True]])
    def test_decoupled_must_be_a_bool(self, tmp_path, capsys, flag):
        # A truthy non-bool such as "no" must not draw W'; nothing is written.
        out = tmp_path / "out"
        config = write_config(
            tmp_path, "c.json",
            {"command": "sample", "model": identity_model_dict(2, 4),
             "trials": 1, "seed": 5, "out": str(out), "decoupled": flag},
        )
        assert cli.main(["--config", config]) == 2
        assert '"decoupled"' in capsys.readouterr().err
        assert not out.exists()


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

    def test_trace_past_the_largest_float_exits_two(self, tmp_path, capsys):
        config = write_config(
            tmp_path, "c.json", {"command": "bound", "model": huge_trace_model_dict()}
        )
        assert cli.main(["--config", config]) == 2
        assert capsys.readouterr().out == ""

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

    def test_dominance_does_not_read_a_convention_key(self, tmp_path, capsys):
        # Dominance checks the Frobenius-form bound only.  A "convention" key is hashed
        # into the digest like any key, but not read: with B = diag(2, 0) the ratio
        # form's kappa would be 1, not 2.
        model = {"p": 2, "n": 2, "theta": cw.matrix_to_dict(np.eye(2)),
                 "shape": {"variant": "diagonal", "entries": [2.0, 0.0]}}
        cfg = {"command": "verify", "check": "dominance", "model": model, "trials": 20, "seed": 5}
        reports = []
        for name, c in (("plain.json", cfg), ("ratio.json", dict(cfg, convention="ratio"))):
            assert cli.main(["--config", write_config(tmp_path, name, c)]) == 0
            reports.append(json.loads(capsys.readouterr().out))
        plain, ratio = reports
        assert plain.pop("config_digest") != ratio.pop("config_digest")
        assert ratio == plain
        assert (plain["bound"]["convention"], plain["bound"]["kappa"]) == ("frobenius", 2.0)

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

    @pytest.mark.parametrize("check", ["decoupling", "dominance"])
    def test_trace_past_the_largest_float_exits_two(self, tmp_path, capsys, check):
        # E(W) needs Tr(B), whose exact sum overflows: a usage error naming it, not a traceback.
        config = write_config(
            tmp_path, "c.json",
            {"command": "verify", "check": check, "model": huge_trace_model_dict(),
             "trials": 100, "seed": 1},
        )
        assert cli.main(["--config", config]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trace of B" in captured.err

    def test_concentration_of_zero_shape_exits_zero(self, tmp_path, capsys):
        # B = 0: every sigma equals mean_bound = 0, so no trial is in the t = 0 tail.
        zero = dict(identity_model_dict(2, 4), shape={"variant": "diagonal", "entries": [0.0] * 4})
        config = write_config(
            tmp_path, "c.json",
            {"command": "verify", "check": "concentration", "model": zero,
             "direction": [1.0, 0.0], "t_grid": [0.0, 0.5], "trials": 2000, "seed": 3},
        )
        assert cli.main(["--config", config]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["empirical_tails"] == [0.0, 0.0] and report["holds"] is True

    def test_failing_check_maps_to_exit_one(self, tmp_path, monkeypatch):
        config = write_config(
            tmp_path, "c.json",
            {"command": "verify", "check": "expectation",
             "model": identity_model_dict(2, 4), "trials": 100, "seed": 1},
        )
        monkeypatch.setattr(cli, "_run_check", lambda cfg: {"holds": False})
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

    def matrix_files(self, tmp_path, shapes):
        rng = cw.generator(98)
        paths = []
        for i, shape in enumerate(shapes):
            path = tmp_path / f"m{i}.json"
            path.write_text(dumps_matrix(rng.standard_normal(shape)))
            paths.append(str(path))
        return paths

    def test_mixed_sizes_print_the_per_file_lines(self, tmp_path, capsys):
        # One stack per size, and each line is the one that file alone prints.
        paths = self.matrix_files(tmp_path, [(3, 3), (6, 6), (3, 3)])
        alone = []
        for path in paths:
            config = write_config(tmp_path, "one.json", {"command": "netcert", "inputs": [path]})
            assert cli.main(["--config", config]) == 0
            alone.append(capsys.readouterr().out)
        config = write_config(tmp_path, "all.json", {"command": "netcert", "inputs": paths})
        assert cli.main(["--config", config]) == 0
        assert capsys.readouterr().out == "".join(alone)

    @pytest.mark.parametrize("shapes, code, message", [
        ([(3, 3), (15, 15), None], 3, "p <= 14"),
        ([(3, 3), (2, 3), (15, 15)], 2, "must be square"),
        ([(3, 3), None, (15, 15)], 2, "not found"),
    ], ids=["cap-before-missing", "non-square-before-cap", "missing-before-cap"])
    def test_first_bad_input_decides_the_error(self, tmp_path, capsys, shapes, code, message):
        # Every input is read before any is certified, in list order, so the
        # first bad one sets the exit code and the message; nothing is printed.
        paths = self.matrix_files(tmp_path, [s or (1, 1) for s in shapes])
        paths = [p if s else str(tmp_path / "missing.json") for p, s in zip(paths, shapes)]
        config = write_config(tmp_path, "c.json", {"command": "netcert", "inputs": paths})
        assert cli.main(["--config", config]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


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

    def test_back_to_back_calls_do_not_share_flags(self, tmp_path, capsys):
        # One parser serves every call: flags of one call must not reach the next.
        model = {"p": 2, "n": 2, "theta": cw.matrix_to_dict(np.eye(2)),
                 "shape": {"variant": "diagonal", "entries": [2.0, 0.0]}}
        bound = write_config(tmp_path, "bound.json", {"command": "bound", "model": model})
        stddev = write_config(
            tmp_path, "stddev.json",
            {"command": "verify", "check": "stddev", "theta": cw.matrix_to_dict(np.eye(2)),
             "a": [1.0, 0.0], "trials": 100, "seed": 3},
        )
        out = tmp_path / "out"
        assert cli.main(["--config", bound, "--convention", "ratio", "--out", str(out)]) == 0
        assert json.loads(capsys.readouterr().out)["kappa"] == pytest.approx(1.0)
        assert cli.main(["--config", bound]) == 0
        assert json.loads(capsys.readouterr().out)["kappa"] == pytest.approx(2.0)
        assert cli.main(["--config", stddev, "--seed", "44", "--trials", "50"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert (first["master_seed"], first["trials"]) == (44, 50)
        assert cli.main(["--config", stddev]) == 0
        second = json.loads(capsys.readouterr().out)
        assert (second["master_seed"], second["trials"]) == (3, 100)
        assert sorted(f.name for f in out.iterdir()) == ["bound.json"]

    def test_command_from_positional(self, tmp_path, capsys):
        config = write_config(
            tmp_path, "c.json", {"model": identity_model_dict(1, 2)}
        )
        assert cli.main(["bound", "--config", config]) == 0
        assert json.loads(capsys.readouterr().out)["p"] == 1

    def test_a_rerun_writes_the_same_bytes(self, tmp_path, capsys):
        # 4500 trials are five blocks, the last one partial.  The complexity
        # search builds the largest B the package builds (46 diagonals, up to
        # n of about 10^6).  Each run takes well under 20 s.
        rng = cw.generator(37)
        configs = [
            {"command": "verify", "check": "decoupling",
             "model": identity_model_dict(2, 8), "trials": 4500, "seed": 31},
            {"command": "verify", "check": "chaos",
             "theta": cw.matrix_to_dict(np.diag([1.0, 2.0, 3.0])),
             "matrices": [cw.matrix_to_dict(rng.standard_normal((3, 3))) for _ in range(8)],
             "trials": 4500, "seed": 41},
            {"command": "sweep", "sweep": "complexity", "p_grid": [8], "tolerance": 2.0,
             "family": {"variant": "diagonal", "seed": 5}, "trials": 200, "seed": 3},
        ]
        reports = []
        for i, payload in enumerate(configs):
            config = write_config(tmp_path, f"c{i}.json", payload)
            runs = []
            for rerun in range(2):
                out = tmp_path / f"out{i}-{rerun}"
                start = time.perf_counter()
                assert cli.main(["--config", config, "--out", str(out)]) == 0
                assert time.perf_counter() - start < 20.0
                files = {f.name: f.read_bytes() for f in out.iterdir()}
                runs.append((capsys.readouterr().out, files))
            assert runs[0] == runs[1]
            reports.append(json.loads(runs[0][0]))
        assert [report["lhs"]["trials"] for report in reports[:2]] == [4500, 4500]

    @pytest.mark.parametrize("threads", ["not-a-number", "0", "-4"])
    def test_the_threads_variable_is_not_read(self, tmp_path, capsys, monkeypatch, threads):
        # WISHART_THREADS once chose the worker count; a value it used to
        # reject now changes neither the exit code nor a byte of the report.
        config = write_config(
            tmp_path, "c.json",
            {"command": "verify", "check": "expectation",
             "model": identity_model_dict(2, 4), "trials": 2500, "seed": 1},
        )
        outputs = []
        for env in ({}, {"WISHART_THREADS": threads}):
            for name, value in env.items():
                monkeypatch.setenv(name, value)
            assert cli.main(["--config", config]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]

    def test_out_of_memory_exits_three(self, tmp_path, capsys, monkeypatch):
        def exhausted(cfg):
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
            (COMPLEXITY, ("p_grid",), [3, 0], "p_grid entries must be positive"),
            (COMPLEXITY, ("p_grid",), [3, -1], "p_grid entries must be positive"),
            (SCALING, ("n_grid",), [-4, 2, 8], "n must be positive, got n=-4"),
            (SCALING, ("n_grid",), [0, 2, 8], "n must be positive, got n=0"),
        ],
        ids=["family-string", "n_grid-number", "shape-string", "t_grid-number",
             "t_grid-infinite", "t_grid-nan", "t_grid-too-long", "direction-nan",
             "n-beyond-float", "theta-strings-and-bools", "diagonal-strings",
             "diagonal-beyond-float", "a-nan", "trials-beyond-cap", "sample-no-draws",
             "sample-negative-draws", "tolerance-nan",
             "tolerance-infinite", "p_grid-zero", "p_grid-negative", "diagonal-n-negative",
             "diagonal-n-zero"],
    )
    def test_rejected_with_field_name(self, tmp_path, capsys, monkeypatch, base, path, value,
                                      field):
        # Rejected before any trial: no block of draws is started.
        monkeypatch.setattr(verify, "generator", lambda seed: pytest.fail("a trial ran"))
        cfg = _with(base, path, value)
        cfg["out"] = str(tmp_path / "out")
        assert cli.main(["--config", write_config(tmp_path, "c.json", cfg)]) == 2
        assert field in capsys.readouterr().err

    def test_format_option_is_gone(self, tmp_path):
        config = write_config(tmp_path, "c.json", {"model": identity_model_dict(1, 2)})
        with pytest.raises(SystemExit) as exc:
            cli.main(["bound", "--config", config, "--format", "json"])
        assert exc.value.code == 2


class TestExitTwoLeavesNoReport:
    """A run that exits 2 prints no report and writes none."""

    @staticmethod
    def run_out_at_a_file(tmp_path, capsys, monkeypatch, command, below):
        """Exit code and stderr of ``command`` with out at file ``tmp_path/out``, or below it.

        The file is found before the work: the command itself never runs.
        """
        monkeypatch.setitem(cli.DISPATCH, command, lambda cfg: pytest.fail("command ran"))
        matrix = tmp_path / "a.json"
        matrix.write_text(dumps_matrix(np.eye(2)))
        base = {"verify": STDDEV, "bound": BOUND,
                "netcert": {"command": "netcert", "inputs": [str(matrix)]}}[command]
        out = tmp_path / "out"
        out.write_text("not a directory")
        cfg = dict(base, out=str(out / below))
        code = cli.main(["--config", write_config(tmp_path, "c.json", cfg)])
        captured = capsys.readouterr()
        assert captured.out == ""
        assert out.read_text() == "not a directory"
        return code, captured.err

    @pytest.mark.parametrize("command", ["verify", "bound", "netcert"])
    def test_out_naming_a_file_prints_nothing(self, tmp_path, capsys, monkeypatch, command):
        code, err = self.run_out_at_a_file(tmp_path, capsys, monkeypatch, command, "")
        assert code == 2 and "File exists" in err

    @pytest.mark.parametrize("below", ["sub", "sub/deeper"])
    @pytest.mark.parametrize("command", ["verify", "bound", "netcert"])
    def test_out_below_a_file_prints_nothing(self, tmp_path, capsys, monkeypatch, command, below):
        # The nearest existing ancestor of out is the file.
        code, err = self.run_out_at_a_file(tmp_path, capsys, monkeypatch, command, below)
        assert code == 2 and "Not a directory" in err

    @pytest.mark.parametrize("below", ["", "sub"], ids=["at", "below"])
    def test_out_at_or_below_a_dangling_link_prints_nothing(self, tmp_path, capsys, monkeypatch,
                                                            below):
        # Creating out would meet the link ("File exists"): found before the work too.
        monkeypatch.setitem(cli.DISPATCH, "verify", lambda cfg: pytest.fail("command ran"))
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "nowhere")
        cfg = dict(STDDEV, out=str(link / below))
        assert cli.main(["--config", write_config(tmp_path, "c.json", cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "File exists" in captured.err
        assert link.is_symlink() and not link.exists()

    @pytest.mark.parametrize("out", ["", 5, ["out"]], ids=["empty", "number", "list"])
    def test_an_out_that_is_not_a_path_exits_before_the_check_runs(self, tmp_path, capsys,
                                                                   monkeypatch, out):
        monkeypatch.setattr(cli, "_run_check", lambda cfg: pytest.fail("check ran"))
        cfg = dict(STDDEV, out=out)
        assert cli.main(["--config", write_config(tmp_path, "c.json", cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert '"out" must be a directory path' in captured.err

    @pytest.mark.parametrize(
        "base,report", [(STDDEV, "verify_stddev.json"), (SCALING, "sweep.csv")],
        ids=["verify", "sweep"])
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    def test_unread_key_json_cannot_hold_blames_the_config(self, tmp_path, capsys, monkeypatch,
                                                           base, report, value):
        # Found before any trial: no block of draws is started.
        monkeypatch.setattr(verify, "generator", lambda seed: pytest.fail("a trial ran"))
        out = tmp_path / "out"
        cfg = dict(base, note=value, out=str(out))
        assert cli.main(["--config", write_config(tmp_path, "c.json", cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config holds inf or NaN" in captured.err
        assert not (out / report).exists()


class TestExitTwoWritesNothing:
    """An output that cannot be opened exits 2 with no file created or changed.

    The last output of each command is blocked by a directory of its name, in an
    ``out`` that holds nothing else and in one holding a stale file under every
    other output name and one more that is no output.
    """

    CASES = {
        "sample": (dict(SAMPLE, decoupled=True),
                   ["W.000.json", "Wprime.000.json", "W.001.json", "Wprime.001.json"]),
        "bound": (BOUND, ["bound.json"]),
        "verify-stddev": (STDDEV, ["verify_stddev.json"]),
        "netcert": (None, ["certificates.jsonl"]),
        "sweep-scaling": (SCALING, ["sweep.csv", "summary.json"]),
        "sweep-complexity": (COMPLEXITY, ["sweep.csv", "summary.json"]),
    }

    @staticmethod
    def listing(directory):
        return {path.name: (None if path.is_dir() else path.read_bytes(), path.stat().st_ino)
                for path in directory.iterdir()}

    @pytest.mark.parametrize("stale", [False, True], ids=["fresh", "stale"])
    @pytest.mark.parametrize("name", list(CASES))
    def test_a_blocked_last_output_leaves_out_as_it_was(self, tmp_path, capsys, name, stale):
        cfg, outputs = self.CASES[name]
        cfg = cfg or _netcert_config(tmp_path)
        out = tmp_path / "out"
        (out / outputs[-1]).mkdir(parents=True)
        if stale:
            for i, filename in enumerate([*outputs[:-1], "other.json"]):
                (out / filename).write_bytes(b"stale %d\n" % i * 100)
        before = self.listing(out)
        assert _run_into(tmp_path, cfg, out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Is a directory" in captured.err
        assert self.listing(out) == before


def _netcert_config(tmp_path):
    inputs = []
    for i, p in enumerate((2, 3)):
        path = tmp_path / f"input{i}.json"
        path.write_text(dumps_matrix(cw.generator(80 + i).standard_normal((p, p))))
        inputs.append(str(path))
    return {"command": "netcert", "inputs": inputs}


def _run_into(tmp_path, cfg, out):
    config = write_config(tmp_path, f"{out.name}.json", dict(cfg, out=str(out)))
    return cli.main(["--config", config])


def _files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


class TestOutputsRewrittenInPlace:
    """An existing output is rewritten in place: never emptied, no stale tail left."""

    CONFIGS = {
        "sample": dict(SAMPLE, decoupled=True),
        "bound": BOUND,
        "verify-stddev": STDDEV,
        "verify-dominance": DOMINANCE,
        "sweep-scaling": SCALING,
        "sweep-complexity": COMPLEXITY,
    }

    @pytest.mark.parametrize("name", [*CONFIGS, "netcert"])
    def test_longer_stale_files_leave_the_bytes_of_a_fresh_run(self, tmp_path, name):
        cfg = self.CONFIGS.get(name) or _netcert_config(tmp_path)
        fresh, stale = tmp_path / "fresh", tmp_path / "stale"
        code = _run_into(tmp_path, cfg, fresh)
        want = _files(fresh)
        assert want
        stale.mkdir()
        junk = bytes(range(256)) * 40  # 10 KB, longer than every output
        for filename in want:
            (stale / filename).write_bytes(junk)
        assert _run_into(tmp_path, cfg, stale) == code
        assert _files(stale) == want

    def test_rerunning_sample_gives_the_same_bytes(self, tmp_path):
        out = tmp_path / "out"
        cfg = dict(SAMPLE, decoupled=True)
        assert _run_into(tmp_path, cfg, out) == 0
        first = _files(out)
        inodes = {name: (out / name).stat().st_ino for name in first}
        assert _run_into(tmp_path, cfg, out) == 0
        assert _files(out) == first
        assert {name: (out / name).stat().st_ino for name in first} == inodes

    def test_an_output_symlink_is_written_through(self, tmp_path, capsys):
        out, elsewhere = tmp_path / "out", tmp_path / "elsewhere"
        out.mkdir()
        elsewhere.mkdir()
        target = elsewhere / "report.json"
        target.write_text("stale " * 1000)
        (out / "bound.json").symlink_to(target)
        assert _run_into(tmp_path, BOUND, out) == 0
        assert (out / "bound.json").is_symlink()
        assert target.read_text() == capsys.readouterr().out

    @pytest.mark.parametrize("cfg,filename", [(SAMPLE, "W.001.json"), (BOUND, "bound.json")],
                             ids=["sample", "bound"])
    def test_an_output_name_that_is_a_directory_exits_two(self, tmp_path, capsys, cfg,
                                                          filename):
        out = tmp_path / "out"
        (out / filename).mkdir(parents=True)
        assert _run_into(tmp_path, cfg, out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Is a directory" in captured.err

    def test_a_read_only_output_exits_two(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        out.mkdir()
        report = out / "bound.json"
        report.write_text("read only\n")
        report.chmod(0o444)
        try:
            os.close(os.open(report, os.O_WRONLY))
        except PermissionError:
            pass
        else:
            # A superuser may write a read-only file: its write opens of this one
            # path meet the EACCES that anyone else's do.  O_EXCL still reports
            # the existing file first.
            real_open = os.open

            def read_only_open(path, flags, *args, **kwargs):
                if (os.fspath(path) == os.fspath(report) and flags & (os.O_WRONLY | os.O_RDWR)
                        and not flags & os.O_EXCL):
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
                return real_open(path, flags, *args, **kwargs)

            monkeypatch.setattr(os, "open", read_only_open)
        assert _run_into(tmp_path, BOUND, out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Permission denied" in captured.err
        assert report.read_text() == "read only\n"
