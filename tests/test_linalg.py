import errno
import json
import math
import os
import stat
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cwishart as cw
from cwishart.errors import InvalidMatrixError, NotPositiveDefiniteError
from cwishart.linalg import (
    Report,
    _write_texts,
    _spectral_norms,
    canonical_dumps,
    check_floats,
    check_int,
    check_seed,
    dumps_matrix,
    mix_seed,
    splitmix64,
)


# Inputs of the spectral-norm rule, each checked against np.linalg.svd (the
# near-degenerate 200 x 200 case is test_near_degenerate_matches_svd).
SVD_CASES = {
    **{f"stack-p{p}": cw.generator(300 + p).standard_normal((50, p, p)) for p in range(1, 13)},
    "wide": cw.generator(320).standard_normal((3, 17)),
    "tall": cw.generator(320).standard_normal((3, 17)).T,
    "scale-2^900": 2.0**900 * cw.generator(321).standard_normal((6, 6)),
    "scale-2^-900": 2.0**-900 * cw.generator(321).standard_normal((6, 6)),
    "zero": np.zeros((4, 3)),
    "subnormal": 2.0**-1060 * cw.generator(322).standard_normal((5, 4)),
    "subnormal-and-normal": np.array([[5e-324, 0.0], [1e-310, 3.0]]),
    # 2 x 2 Grams take the closed form: equal singular values, rank one, a zero
    # row, both ends of the range, subnormal entries next to normal ones.
    "2x2-orthogonal": 1.5 * np.linalg.qr(cw.generator(323).standard_normal((50, 2, 2)))[0],
    "2x2-rank-one": (cw.generator(324).standard_normal((50, 2, 1))
                     * cw.generator(325).standard_normal((50, 1, 2))),
    "2x2-zero-row": np.concatenate(
        (cw.generator(326).standard_normal((50, 1, 2)), np.zeros((50, 1, 2))), axis=1),
    "2x2-scale-2^1000": 2.0**1000 * cw.generator(327).standard_normal((50, 2, 2)),
    "2x2-scale-2^-1000": 2.0**-1000 * cw.generator(327).standard_normal((50, 2, 2)),
    "2x2-subnormal-and-normal": np.array([[[1e-310, 1.0], [5e-324, 2.0]],
                                          [[3.0, 2e-320], [-1e-308, 1e-300]],
                                          [[4e-323, -5e-324], [1.0, 1e-310]]]),
    "2x7-wide": cw.generator(328).standard_normal((50, 2, 7)),
    "7x2-tall": cw.generator(328).standard_normal((50, 7, 2)),
}


def _eigvalsh_route(a):
    """The spectral-norm rule with the top eigenvalue of every Gram matrix from eigvalsh."""
    _, exp = np.frexp(np.abs(a).max(axis=(-2, -1), keepdims=True))
    s = np.ldexp(a, -exp)
    st = s.swapaxes(-1, -2)
    gram = s @ st if s.shape[-2] <= s.shape[-1] else st @ s
    return np.ldexp(np.sqrt(np.maximum(np.linalg.eigvalsh(gram)[..., -1], 0.0)), exp[..., 0, 0])


class TestSpectralNorm:
    @pytest.mark.parametrize("name", list(SVD_CASES))
    def test_matches_svd(self, name):
        a = SVD_CASES[name]
        exact = np.linalg.svd(a, compute_uv=False)[..., 0]
        norms = _spectral_norms(a)
        assert norms.shape == a.shape[:-2]
        assert np.all(np.abs(norms - exact) <= 1e-13 * exact)
        if a.ndim == 2:
            assert cw.spectral_norm(a) == float(norms)

    def test_non_finite_matrix_is_inf_without_lapack(self, monkeypatch):
        # An overflowed Monte Carlo draw holds inf, or NaN from inf - inf.  Its norm
        # is inf, and eigvalsh, which fails to converge on it, never sees it; the
        # finite matrices of the stack keep their norms.
        good = cw.generator(330).standard_normal((3, 4))
        bad_inf, bad_nan = good.copy(), good.copy()
        bad_inf[1, 2], bad_nan[0, 0] = -np.inf, np.nan
        norms = _spectral_norms(np.array([good, bad_inf, good, bad_nan]))
        norm = float(_spectral_norms(good))
        assert norms.tolist() == [norm, np.inf, norm, np.inf]

        def eigvalsh(a):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        assert _spectral_norms(np.array([bad_inf, bad_nan])).tolist() == [np.inf, np.inf]

    @pytest.mark.parametrize("shape", [(2, 2), (2, 3), (2, 9), (3, 2), (9, 2)])
    def test_closed_form_matches_the_eigvalsh_route(self, shape):
        # 10^5 draws, half of them with rows and columns scaled by 2^-30 .. 2^30:
        # the closed form reads within 2 ulps of eigvalsh on these, 8 allowed.
        rng = cw.generator(331 + 10 * shape[0] + shape[1])
        a = rng.standard_normal((10**5, *shape))
        a[::2] *= (np.ldexp(1.0, rng.integers(-30, 31, (a.shape[0] // 2, shape[0], 1)))
                   * np.ldexp(1.0, rng.integers(-30, 31, (a.shape[0] // 2, 1, shape[1]))))
        want = _eigvalsh_route(a)
        assert np.all(np.abs(_spectral_norms(a) - want) <= 8 * np.spacing(want))

    @pytest.mark.parametrize("j", [-700, 700])
    @pytest.mark.parametrize("shape", [(2, 2), (2, 5), (5, 2), (1, 4), (4, 1)])
    def test_small_grams_scale_by_powers_of_two_bit_for_bit(self, shape, j):
        a = cw.generator(332).standard_normal((1000, *shape))
        assert np.array_equal(_spectral_norms(np.ldexp(a, j)), np.ldexp(_spectral_norms(a), j))

    def test_one_and_two_row_grams_never_call_eigvalsh(self, monkeypatch):
        stacks = [cw.generator(333).standard_normal((100, *shape))
                  for shape in [(1, 1), (1, 6), (6, 1), (2, 2), (2, 6), (6, 2)]]
        want = [np.linalg.svd(a, compute_uv=False)[..., 0] for a in stacks]

        def eigvalsh(a):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        for a, exact in zip(stacks, want):
            assert np.all(np.abs(_spectral_norms(a) - exact) <= 1e-13 * exact)
        assert cw.spectral_norm([[3.0, 4.0], [0.0, 0.0]]) == 5.0
        with pytest.raises(AssertionError, match="eigvalsh called"):
            _spectral_norms(stacks[0][:, :1] * np.ones((1, 3, 3)))

    def test_identity(self):
        assert cw.spectral_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_single_nonzero_singular_value(self):
        assert cw.spectral_norm([[0, 2], [0, 0]]) == pytest.approx(2.0, abs=1e-12)

    def test_random_unit_direction_oracle(self):
        # Lower-bound oracle: 1e6 seeded random unit directions x with the
        # exact inner maximum over y, i.e. ||Ax||.  The result must sit in
        # [oracle, oracle * (1 + 1e-3)].
        a = cw.generator(20240817).standard_normal((5, 5))
        result = cw.spectral_norm(a)
        rng = cw.generator(777)
        oracle = 0.0
        for _ in range(10):
            x = rng.standard_normal((100_000, 5))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            oracle = max(oracle, float(np.linalg.norm(x @ a.T, axis=1).max()))
        assert oracle <= result <= oracle * (1 + 1e-3)

    def test_near_degenerate_matches_svd(self):
        # 200 x 200 with s1 - s2 = 1e-6: an iterative solver stalls long
        # before converging here, an exact rule does not.
        rng = cw.generator(11)
        u, _ = np.linalg.qr(rng.standard_normal((200, 200)))
        v, _ = np.linalg.qr(rng.standard_normal((200, 200)))
        s = np.concatenate(([1.0, 1.0 - 1e-6], rng.uniform(0.05, 0.5, 198)))
        a = (u * s) @ v.T
        exact = np.linalg.svd(a, compute_uv=False)[0]
        assert cw.spectral_norm(a) == pytest.approx(exact, rel=1e-13)
        assert cw.spectral_norm(a) == pytest.approx(1.0, rel=1e-12)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidMatrixError):
            cw.spectral_norm([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(InvalidMatrixError):
            cw.spectral_norm([[np.inf, 0.0], [0.0, 1.0]])

    def test_dominated_by_frobenius(self):
        rng = cw.generator(2024)
        for _ in range(1000):
            r, c = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            a = rng.standard_normal((r, c))
            assert cw.spectral_norm(a) <= cw.frobenius_norm(a) + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(c=st.floats(-1e3, 1e3, allow_nan=False), seed=st.integers(0, 2**32))
    def test_scalar_homogeneity(self, c, seed):
        a = cw.generator(seed).standard_normal((4, 3))
        assert cw.spectral_norm(c * a) == pytest.approx(
            abs(c) * cw.spectral_norm(a), rel=1e-9, abs=1e-12
        )


class TestFrobeniusNorm:
    def test_identity(self):
        for n in (1, 3, 7):
            assert cw.frobenius_norm(np.eye(n)) == pytest.approx(math.sqrt(n))

    def test_zero(self):
        assert cw.frobenius_norm(np.zeros((4, 2))) == 0.0

    def test_hand_summation(self):
        # 1 + 4 + 9 + 16 = 30
        assert cw.frobenius_norm([[1, 2], [3, 4]]) == pytest.approx(math.sqrt(30))

    def test_equals_trace_form(self):
        a = cw.generator(5).standard_normal((3, 5))
        assert cw.frobenius_norm(a) == pytest.approx(math.sqrt(np.trace(a @ a.T)))

    def test_exact_under_power_of_two_scaling(self):
        # Summed at unit scale: the squares of 2^1000 A would overflow and those
        # of 2^-1000 A underflow, and the norm of 1e200 I fits in a float.
        a = cw.generator(6).standard_normal((3, 5))
        for j in (-1000, 1000):
            assert cw.frobenius_norm(np.ldexp(a, j)) == np.ldexp(cw.frobenius_norm(a), j)
        assert cw.frobenius_norm(1e200 * np.eye(2)) == pytest.approx(math.sqrt(2) * 1e200, rel=1e-15)


class TestSpdSqrt:
    def test_identity(self):
        root = cw.spd_sqrt(cw.SpdMatrix.identity(3))
        assert np.allclose(root, np.eye(3), atol=1e-14)

    def test_identity_root_is_exactly_i(self):
        # Whitening by an exact identity root only divides by n (model._whiten).
        for p in range(1, 17):
            theta = cw.SpdMatrix.identity(p)
            assert np.array_equal(theta._root, np.eye(p)) and theta._root_is_identity
        for theta in (cw.SpdMatrix.diagonal([1.0, 2.0]), cw.SpdMatrix(4 * np.eye(3))):
            assert not theta._root_is_identity

    def test_diagonal(self):
        root = cw.spd_sqrt(cw.SpdMatrix.diagonal([4.0, 9.0]))
        assert np.allclose(root, np.diag([2.0, 3.0]), atol=1e-12)

    def test_square_reproduces_input(self):
        g = cw.generator(99).standard_normal((6, 6))
        s = cw.SpdMatrix(g @ g.T + np.eye(6))
        root = cw.spd_sqrt(s)
        err = cw.frobenius_norm(root @ root - s.array)
        assert err <= 1e-10 * cw.frobenius_norm(s.array)

    def test_root_is_a_read_only_array(self):
        root = cw.spd_sqrt(cw.SpdMatrix.diagonal([4.0, 9.0]))
        assert type(root) is np.ndarray
        with pytest.raises(ValueError):
            root[0, 0] = 5.0

    def test_not_positive_definite_names_eigenvalue(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cw.SpdMatrix(np.diag([1.0, -2.0]))
        assert exc.value.eigenvalue == pytest.approx(-2.0)
        assert "-2" in str(exc.value)

    def test_asymmetric_rejected(self):
        with pytest.raises(InvalidMatrixError):
            cw.SpdMatrix([[1.0, 0.5], [0.1, 1.0]])

    def test_array_read_only(self):
        s = cw.SpdMatrix.identity(2)
        with pytest.raises(ValueError):
            s.array[0, 0] = 5.0


def _exact_det3(a):
    """Exact determinant of a 3 x 3 float matrix, in rationals."""
    (a, b, c), (d, e, f), (g, h, i) = [[Fraction(float(v)) for v in row] for row in a]
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


class TestSpdScale:
    """SpdMatrix certifies theta = 4**h U at U's scale, with no absolute floor."""

    def test_indefinite_theta_rejected(self):
        # Eigenvalues 1e8, 1 and -1e-9: rounding in eigvalsh is about 1e-8, so an
        # absolute 1e-10 positivity floor accepts about one in six of these.
        rng = np.random.default_rng(0)
        negative = 0
        for _ in range(500):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            theta = q @ np.diag([1e8, 1.0, -1e-9]) @ q.T
            theta = 0.5 * (theta + theta.T)
            det = _exact_det3(theta)
            negative += det < 0
            try:
                cw.SpdMatrix(theta)
            except NotPositiveDefiniteError:
                continue
            assert det > 0
        assert negative > 50

    def test_tiny_theta_accepted(self):
        s = cw.SpdMatrix(4.0**-20 * np.eye(3))
        assert np.array_equal(s._root, 2.0**-20 * np.eye(3))
        assert cw.SpdMatrix.diagonal([1e-11, 1e-11]).p == 2
        assert cw.SpdMatrix.diagonal([5e-324]).array[0, 0] == 5e-324

    def test_asymmetry_is_judged_against_the_largest_entry(self):
        with pytest.raises(InvalidMatrixError):
            cw.SpdMatrix([[1e-6, 1e-13], [0.0, 1e-6]])
        # Off by 1e-7 of the small entries, but by 1e-15 of the largest one.
        theta = cw.SpdMatrix(1e6 * np.array([[1.0, 1e-8], [1e-8 + 1e-15, 1.0]]))
        assert theta.p == 2

    def test_condition_number_is_capped_near_1e10(self):
        for j in (-30, 0, 30):
            assert cw.SpdMatrix.diagonal(np.ldexp([1.0, 1e-9], 2 * j).tolist()).p == 2
            with pytest.raises(NotPositiveDefiniteError):
                cw.SpdMatrix.diagonal(np.ldexp([1.0, 1e-11], 2 * j).tolist())

    def test_not_positive_definite_reports_at_theta_scale(self):
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cw.SpdMatrix(np.diag([2.0**600, -(2.0**600)]))
        assert exc.value.eigenvalue == -(2.0**600)
        assert exc.value.tolerance == np.ldexp(cw.linalg.SPD_EIG_TOL, 602)
        # h = 512: 4.0**h overflows, but the tolerance at theta's scale does not.
        with pytest.raises(NotPositiveDefiniteError) as exc:
            cw.SpdMatrix(np.diag([1.7e308, -1.0]))
        assert exc.value.tolerance == np.ldexp(cw.linalg.SPD_EIG_TOL, 1024)

    @pytest.mark.parametrize("j", [-505, -300, -20, 1, 255, 300, 510])
    def test_root_scales_exactly(self, j):
        g = cw.generator(97).standard_normal((5, 5))
        theta = cw.SpdMatrix(g @ g.T + np.eye(5))
        scaled = cw.SpdMatrix(np.ldexp(theta.array, 2 * j))
        assert np.array_equal(scaled._root, np.ldexp(theta._root, j))


class TestGaussianSampler:
    def test_same_seed_bit_identical(self):
        a = cw.generator(123).standard_normal((4, 7))
        b = cw.generator(123).standard_normal((4, 7))
        assert np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = cw.generator(1).standard_normal((3, 3))
        b = cw.generator(2).standard_normal((3, 3))
        assert np.any(a != b)

    def test_law_of_large_numbers(self):
        x = cw.generator(31415).standard_normal((1, 10**6))
        assert abs(x.mean()) < 4e-3
        assert abs(x.var() - 1.0) < 0.01

    def test_fourth_moment(self):
        x = cw.generator(2718).standard_normal((100, 10**4))
        m4 = float(np.mean(x.ravel() ** 4))
        assert abs(m4 - 3.0) <= 0.09

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            check_seed(-1)
        with pytest.raises(ValueError):
            check_seed(2**64)
        with pytest.raises(ValueError, match="seed must be an integer"):
            check_seed(1.5)
        with pytest.raises(ValueError, match="seed must be an integer"):
            check_seed(True)
        assert check_seed(2**64 - 1) == 2**64 - 1

    def test_check_int_rejects_non_integral(self):
        assert check_int(3, "p") == 3
        assert check_int(np.int64(3), "p") == 3
        assert check_int(2.0, "p") == 2
        for bad in (2.7, True, "3", None, float("inf")):
            with pytest.raises(ValueError, match="p must be an integer"):
                check_int(bad, "p")


class TestSeedMixing:
    def test_splitmix_reference_values(self):
        # First three outputs of a splitmix64 stream seeded with 0
        # (state advances by the golden gamma before each output).
        assert splitmix64(0) == 0xE220A8397B1DCDAF

    def test_substreams_disjoint(self):
        seen = {mix_seed(42, t) for t in range(100)}
        assert len(seen) == 100

    def test_mix_is_deterministic(self):
        assert mix_seed(7, 3) == mix_seed(7, 3)
        assert mix_seed(7, 3) != mix_seed(7, 4)
        assert mix_seed(7, 3) != mix_seed(8, 3)


class TestMatrixJson:
    def test_round_trip_exact(self):
        a = cw.generator(55).standard_normal((3, 4))
        d = json.loads(dumps_matrix(a))
        b = cw.matrix_from_dict(d)
        assert np.array_equal(a, b)

    def test_17_significant_digits(self):
        text = dumps_matrix(np.array([[1.0 / 3.0]]))
        assert "0.33333333333333331" in text

    @pytest.mark.parametrize("arr", [
        np.array([[-0.0, 0.0], [5e-324, -5e-324]]),
        np.array([[1.7976931348623157e308, -1.7976931348623157e308], [0.1, -0.1]]),
        np.array([[2.2250738585072014e-308, -2.2250738585072014e-308]]),
        np.array([[1.0 / 3.0, -1.0 / 3.0, 2.0 / 3.0]]),
        np.array([[1.0, -2.0, 3.0], [1e16, 2.0**53, 12345678.0]]),
        cw.generator(59).standard_normal((5, 7)) * np.logspace(-300, 295, 35).reshape(5, 7),
        cw.generator(61).standard_normal((3, 4)).T,
        cw.generator(62).standard_normal((6, 6)),
        cw.generator(63).standard_normal((80, 80)),
    ], ids=["zeros-and-subnormals", "extremes", "smallest-normal", "thirds", "integral",
            "random", "transposed", "random-6x6", "random-80x80"])
    def test_text_equals_the_per_scalar_format(self, arr):
        # Byte for byte the text of formatting float(v) for each numpy scalar.
        entries = ", ".join(f"{float(v):.17g}" for v in arr.ravel(order="C"))
        want = f'{{"rows": {arr.shape[0]}, "cols": {arr.shape[1]}, "entries": [{entries}]}}'
        assert dumps_matrix(arr) == want
        assert dumps_matrix(arr.tolist()) == want

    def test_row_major_layout(self):
        d = cw.matrix_to_dict(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert d["entries"] == [1.0, 2.0, 3.0, 4.0]

    def test_bad_entries_length(self):
        with pytest.raises(InvalidMatrixError):
            cw.matrix_from_dict({"rows": 2, "cols": 2, "entries": [1.0, 2.0]})

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidMatrixError):
            cw.matrix_from_dict({"rows": 1, "cols": 1, "entries": [float("nan")]})

    def test_file_round_trip(self, tmp_path):
        a = cw.generator(66).standard_normal((2, 5))
        path = tmp_path / "m.json"
        _write_texts([(path, dumps_matrix(a) + "\n")])
        assert np.array_equal(cw.load_matrix(path), a)


class TestWriteText:
    """The package's one file writer rewrites a file in place."""

    def test_new_file_gets_the_text_and_the_umask_mode(self, tmp_path):
        path = tmp_path / "new.txt"
        _write_texts([(path, "a\nb\n")])
        assert path.read_bytes() == b"a\nb\n"
        umask = os.umask(0)
        os.umask(umask)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    @pytest.mark.parametrize("old", [b"", b"short", b"x" * 10_000],
                             ids=["empty", "shorter", "longer"])
    def test_rewrite_leaves_exactly_the_new_text(self, tmp_path, old):
        path = tmp_path / "f.txt"
        path.write_bytes(old)
        _write_texts([(path, "new text\n")])
        assert path.read_bytes() == b"new text\n"

    def test_rewrite_keeps_the_inode_and_its_mode(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"x" * 4096)
        path.chmod(0o600)
        before = path.stat()
        _write_texts([(path, "y")])
        after = path.stat()
        assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o600)
        assert path.read_bytes() == b"y"

    def test_text_is_written_as_utf8(self, tmp_path):
        path = tmp_path / "f.txt"
        _write_texts([(path, "\u03b8 = I\n")])
        assert path.read_bytes() == "\u03b8 = I\n".encode("utf-8")

    def test_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "target.txt"
        target.write_bytes(b"z" * 1000)
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        _write_texts([(link, "through\n")])
        assert link.is_symlink()
        assert target.read_bytes() == b"through\n"

    def test_directory_raises_oserror(self, tmp_path):
        with pytest.raises(IsADirectoryError):
            _write_texts([(tmp_path, "x")])

    def test_a_target_that_cannot_be_opened_writes_nothing(self, tmp_path):
        # The directory fails to open after a new and an existing file were opened:
        # the new file is unlinked, the existing one keeps its bytes and its inode,
        # and the target after the directory is never created.
        old = tmp_path / "old.txt"
        old.write_bytes(b"old bytes\n")
        inode = old.stat().st_ino
        (tmp_path / "blocked").mkdir()
        with pytest.raises(IsADirectoryError):
            _write_texts([(tmp_path / "a.txt", "a\n"), (old, "new\n"),
                          (tmp_path / "blocked", "x"), (tmp_path / "b.txt", "b\n")])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocked", "old.txt"]
        assert (old.read_bytes(), old.stat().st_ino) == (b"old bytes\n", inode)

    def test_a_failed_write_unlinks_the_files_this_call_created(self, tmp_path, monkeypatch):
        old = tmp_path / "old.txt"
        old.write_bytes(b"old bytes\n")

        def disk_full(fd, size):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "ftruncate", disk_full)
        with pytest.raises(OSError, match="No space left"):
            _write_texts([(tmp_path / "a.txt", "a\n"), (old, "new\n")])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.txt"]
        assert old.read_bytes() == b"old bytes\n"


class TestReport:
    def test_fields_become_the_json_object(self):
        class Color(Enum):
            RED = "red"

        @dataclass(frozen=True)
        class Inner(Report):
            x: float

        @dataclass(frozen=True, eq=False)
        class Outer(Report):
            inner: Inner
            color: Color
            grid: np.ndarray
            items: tuple

        d = Outer(Inner(1.5), Color.RED, np.array([[1, 2], [3, 4]]), (True, (2, None))).to_dict()
        assert d == {"inner": {"x": 1.5}, "color": "red", "grid": [1.0, 2.0, 3.0, 4.0],
                     "items": [True, [2, None]]}
        assert all(type(v) is float for v in d["grid"])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_canonical_dumps_is_strict_json(self, bad):
        assert canonical_dumps({"b": [1.0], "a": 2}) == '{"a": 2, "b": [1.0]}'
        with pytest.raises(ValueError):
            canonical_dumps({"stats": {"stderr": bad}})

    def test_check_floats_names_the_field(self):
        assert check_floats([1, 2.5], "t").tolist() == [1.0, 2.5]
        for bad in (0.5, "ab", None, [[1.0]], [{}]):
            with pytest.raises(ValueError, match="t must be a list of numbers"):
                check_floats(bad, "t")

    @pytest.mark.parametrize("value,want", [
        # Numpy reals are numbers; a 1-D integer, float or object array gives its list's values.
        (np.array([1.5, 2.0]), [1.5, 2.0]),
        ([np.float64(1.5), np.int64(2)], [1.5, 2.0]),
        (np.array([3, -2**62], dtype=np.int64), [3.0, -2.0**62]),
        (np.array([0, 255], dtype=np.uint8), [0.0, 255.0]),
        (np.array([0.1, 2.0], dtype=np.float32), [float(np.float32(0.1)), 2.0]),
        (np.array([0.5, 2], dtype=object), [0.5, 2.0]),
        (np.array([], dtype=np.int64), []),
        # Strings and bools are rejected, not coerced, in a list or an array.
        (["1.5"], "t must be a list of numbers"),
        ([True, 2.0], "t must be a list of numbers"),
        ([1.0, False], "t must be a list of numbers"),
        ([1j], "t must be a list of numbers"),
        ([None], "t must be a list of numbers"),
        (np.array([True]), "t must be a list of numbers"),
        (np.array([1j]), "t must be a list of numbers"),
        (np.array(["1.5"]), "t must be a list of numbers"),
        (np.array([[1.0]]), "t must be a list of numbers"),
        (np.array(1.0), "t must be a list of numbers"),
        ([10**400], "t holds a number too large"),
        (np.array([1.0, np.nan], dtype=np.float32), "t must hold finite numbers"),
    ])
    def test_check_floats_rejects_non_numbers(self, value, want):
        if isinstance(want, str):
            with pytest.raises(ValueError, match=want):
                check_floats(value, "t")
            return
        got = check_floats(value, "t")
        assert got.dtype == np.float64 and got.ndim == 1 and got.tolist() == want
        assert not np.shares_memory(got, value)

    def test_check_floats_rejects_non_finite(self):
        for bad in ([1.0, math.inf], [-math.inf], [math.nan, 1.0], np.array([0.0, np.nan])):
            with pytest.raises(ValueError, match="t must hold finite numbers"):
                check_floats(bad, "t")
