"""Tests of the benchmark's own checks: each accepts the program's right output
and rejects a deliberately wrong one.

    python3 bench/selftest.py
"""
import copy
import dataclasses
import math
import os
import shutil
import sys
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))
sys.path.insert(0, BENCH)

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from cwishart import bounds, linalg, model, netcert, verify  # noqa: E402


def fields(problems):
    return {p.split(":", 1)[0] for p in problems}


def flipped(report, key="holds"):
    wrong = copy.deepcopy(report)
    wrong[key] = not wrong[key]
    return wrong


class BoundChecks(unittest.TestCase):
    def setUp(self):
        rng = np.random.default_rng(1)
        self.b = rng.standard_normal((12, 12))
        self.theta = linalg.SpdMatrix(np.diag([1.0, 2.0, 0.5]))
        m = model.WishartModel(3, 12, self.theta, model.ShapeSpec.custom(self.b))
        self.m = m
        self.ref = checks.reference_bound(3, 12, self.b, self.theta.array)
        self.cfg = verify.TrialConfig(m, 50, 7)

    def test_program_bound_accepted(self):
        for convention in ("frobenius", "ratio"):
            report = bounds.deviation_bound(self.m, convention).to_dict()
            ref = checks.reference_bound(3, 12, self.b, self.theta.array, convention)
            self.assertEqual(checks.check_bound(report, ref), [])

    def test_sigma_off_by_1e7_rejected(self):
        report = bounds.deviation_bound(self.m).to_dict()
        report["sigma"] *= 1 + 1e-7
        self.assertEqual(fields(checks.check_bound(report, self.ref)), {"sigma"})

    def test_dominance_right_and_flipped(self):
        report = verify.check_bound_dominance(self.cfg).to_dict()
        self.assertEqual(checks.check_dominance(report, self.ref, 50), [])
        self.assertIn("holds", fields(checks.check_dominance(flipped(report), self.ref, 50)))

    def test_dominance_bound_below_mean_rejected(self):
        report = verify.check_bound_dominance(self.cfg).to_dict()
        report["bound"]["bound_value"] = report["empirical"]["mean"] / 2
        self.assertIn("bound.bound_value", fields(checks.check_dominance(report, self.ref, 50)))


class MonteCarloChecks(unittest.TestCase):
    def test_decoupling_right_and_flipped(self):
        m = model.WishartModel(2, 8, linalg.SpdMatrix.identity(2), model.ShapeSpec.skew_block())
        report = verify.check_wishart_decoupling(verify.TrialConfig(m, 50, 3)).to_dict()
        self.assertEqual(checks.check_decoupling(report, 50), [])
        self.assertEqual(fields(checks.check_decoupling(flipped(report), 50)), {"holds"})

    def test_chaos_lhs_inflated_rejected(self):
        family = [np.eye(3), np.ones((3, 3))]
        report = verify.check_chaos_decoupling(family, linalg.SpdMatrix.identity(3), 200, 4).to_dict()
        self.assertEqual(checks.check_decoupling(report, 200), [])
        report["lhs"]["mean"] = 3 * report["rhs"]["mean"]
        report["lhs"]["max"] = max(report["lhs"]["max"], report["lhs"]["mean"])
        self.assertEqual(fields(checks.check_decoupling(report, 200)), {"holds"})

    def test_expectation_trace_off_by_5_percent_rejected(self):
        theta = linalg.SpdMatrix.diagonal([1.0, 2.0])
        m = model.WishartModel(2, 4, theta, model.ShapeSpec.diagonal([2.0, 1.0, 1.0, 0.0]))
        report = verify.check_expectation(verify.TrialConfig(m, 500, 5)).to_dict()
        self.assertEqual(checks.check_expectation(report, 4.0, 4, theta.array, 500), [])
        self.assertIn("expected_matrix",
                      fields(checks.check_expectation(report, 4.2, 4, theta.array, 500)))
        self.assertIn("holds", fields(checks.check_expectation(flipped(report), 4.0, 4,
                                                               theta.array, 500)))

    def test_linear_form_wrong_target_rejected(self):
        theta = linalg.SpdMatrix.diagonal([4.0, 1.0])
        a = np.array([1.0, 1.0])
        report = verify.check_linear_form_std(theta, a, 2000, 9).to_dict()
        self.assertEqual(checks.check_linear_form(report, theta.array, a, 2000), [])
        wrong = dict(report, target=report["target"] * (1 + 1e-7))
        self.assertEqual(fields(checks.check_linear_form(wrong, theta.array, a, 2000)), {"target"})
        self.assertEqual(fields(checks.check_linear_form(flipped(report), theta.array, a, 2000)),
                         {"holds"})

    def test_concentration_right_and_tail_changed(self):
        m = model.WishartModel(3, 16, linalg.SpdMatrix.identity(3), model.ShapeSpec.identity())
        report = verify.check_concentration(m, [1.0, 0.0, 0.0], (0.0, 0.1), 2000, 7).to_dict()
        self.assertEqual(checks.check_concentration(report, 3, 16, np.eye(16), 2000), [])
        wrong = copy.deepcopy(report)
        wrong["theoretical_tails"][1] *= 1 + 1e-7
        self.assertEqual(fields(checks.check_concentration(wrong, 3, 16, np.eye(16), 2000)),
                         {"theoretical_tails[1]"})
        self.assertIn("holds", fields(checks.check_concentration(flipped(report), 3, 16,
                                                                 np.eye(16), 2000)))

    def test_lipschitz_violation_rejected(self):
        self.assertEqual(checks.check_lipschitz(0), [])
        self.assertEqual(fields(checks.check_lipschitz(1)), {"violations"})

    def test_sweep_slope_out_of_range_rejected(self):
        rows = [{"n": n, "mean": n ** -0.5, "trials": 10,
                 "bound": checks.reference_bound(2, n, np.eye(n), np.eye(2))["bound_value"]}
                for n in (4, 16, 64)]
        report = {"rows": rows, "slope": -0.5, "degenerate": False}
        self.assertEqual(checks.check_sweep(report, 2, (4, 16, 64), np.eye(2), 10), [])
        for r in rows:
            r["mean"] = r["n"] ** -0.7
        report["slope"] = -0.7
        self.assertEqual(fields(checks.check_sweep(report, 2, (4, 16, 64), np.eye(2), 10)),
                         {"slope"})

    def test_reference_mean_deviation(self):
        m = model.WishartModel(2, 8, linalg.SpdMatrix.identity(2), model.ShapeSpec.identity())
        stats = verify.estimate_mean_deviation(verify.TrialConfig(m, 2000, 11)).to_dict()
        ref = checks.reference_mean_deviation(2, 8, np.eye(8), np.eye(2), 2000, 12)
        self.assertEqual(checks.check_against_reference(stats, ref), [])
        shifted = dict(stats, mean=stats["mean"] + 10 * math.hypot(stats["stderr"], ref[1]))
        self.assertEqual(fields(checks.check_against_reference(shifted, ref)), {"empirical.mean"})


class CertificateChecks(unittest.TestCase):
    def test_brute_force_matches_program(self):
        a = np.random.default_rng(2).standard_normal((4, 4))
        self.assertAlmostEqual(checks.brute_force_reg_max(a),
                               netcert.max_bilinear_over_regular(a), places=12)
        self.assertEqual(len(checks.all_regular_vectors(4)), 3 ** 4 - 1)

    def test_certificate_right_and_wrong(self):
        a = np.random.default_rng(3).standard_normal((5, 5))
        cert = netcert.certify_norm_bound(a).to_dict()
        self.assertEqual(checks.check_certificate(cert, a, True), [])
        self.assertEqual(fields(checks.check_certificate(flipped(cert), a, True)), {"holds"})
        wrong = dict(cert, exact_norm=cert["exact_norm"] * (1 + 1e-7))
        self.assertEqual(fields(checks.check_certificate(wrong, a, True)), {"exact_norm"})
        wrong = dict(cert, reg_max=cert["reg_max"] * 0.99)
        self.assertEqual(fields(checks.check_certificate(wrong, a, True)), {"reg_max"})


class CliChecks(unittest.TestCase):
    def test_changed_byte_rejected(self):
        text = linalg.canonical_dumps({"holds": True, "mean": 0.125}) + "\n"
        self.assertEqual(checks.check_bytes("stdout", text, text), [])
        changed = text.replace("0.125", "0.126")
        self.assertEqual(fields(checks.check_bytes("stdout", changed, text)), {"stdout"})
        self.assertEqual(fields(checks.check_bytes("stdout", None, text)), {"stdout"})

    def test_cli_workload_ops_checked_end_to_end(self):
        # Every CLI op passes its check; a one-byte change in any output is caught.
        workdir = os.path.join(BENCH, "out", f"selftest-{os.getpid()}")
        try:
            wl = workloads.cli_files(3, workdir)
            for op in wl.ops:
                snap = op.snapshot(op.run())
                self.assertEqual(op.check(snap), [], op.name)
                wrong = copy.deepcopy(snap)
                if wrong.stdout:
                    wrong.stdout = wrong.stdout.replace(":", ";", 1)
                else:
                    name = sorted(wrong.files)[-1]
                    wrong.files[name] = wrong.files[name][:-2] + "\n"
                self.assertNotEqual(op.check(wrong), [], op.name)
                self.assertNotEqual(op.check(dataclasses.replace(snap, code=1)), [], op.name)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


class Classification(unittest.TestCase):
    def test_known_fault_counts_as_failed_only(self):
        op = workloads.Op("degenerate", lambda: None, lambda r: [],
                          known_fault=workloads.SIGMA_FAULT)
        self.assertEqual(run.classify(op, []), "ok")
        self.assertEqual(run.classify(op, ["bound.sigma: off", "bound.bound_value: off"]), "failed")
        self.assertEqual(run.classify(op, ["bound.sigma: off", "holds: flipped"]), "wrong")
        plain = workloads.Op("plain", lambda: None, lambda r: [])
        self.assertEqual(run.classify(plain, ["bound.sigma: off"]), "wrong")


if __name__ == "__main__":
    unittest.main()
