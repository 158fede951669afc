import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cwishart as cw
from cwishart import netcert
from cwishart.errors import DimensionError, EnumerationCapError


def regular_matrix(p):
    """All 3^p - 1 regular vectors of R^p, stacked as rows: each nonzero t in
    {0, +-1}^p scaled by 1 / sqrt(s) for its support size s."""
    t = np.array([t for t in itertools.product((0, 1, -1), repeat=p) if any(t)], dtype=float)
    return t / np.sqrt(np.count_nonzero(t, axis=1))[:, None]


def structured_matrices(p, rng):
    """Inputs that stress the pruning: orthogonal (every ||A x|| = 1, so nothing
    is pruned), rank-1, all-ones (ties), zero, +-I and a small integer matrix."""
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    return [q, np.outer(rng.standard_normal(p), rng.standard_normal(p)), np.ones((p, p)),
            np.zeros((p, p)), np.eye(p), -np.eye(p),
            rng.integers(-2, 3, size=(p, p)).astype(np.float64)]


def unpruned_max(a):
    """Closed form over every cell's response (P_L[i] + P_R[j]) / sqrt(s), with nothing pruned.

    P_L and P_R are the partial responses of the full netcert._half_tables at
    the unit scale, in one piece: no blocks, no stack, x = 0 the one cell left
    out.  A pruned run reads its survivors' responses from the same partials,
    so alone or in a stack it must equal this bit for bit.
    """
    p = a.shape[0]
    exp = int(np.frexp(np.abs(a).max())[1])
    unit = np.ldexp(a, -exp)
    left, right, s_left, s_right, _ = netcert._half_tables(p, netcert._BLOCK_CELLS)
    h = left.shape[1]
    u = (left @ unit[:, :h].T)[:, None] + (right @ unit[:, h:].T)[None]
    s = s_left[:, None] + s_right
    u = u[s > 0] / np.sqrt(s[s > 0])[:, None]
    return math.ldexp(float(netcert._response_maxima(u).max()), exp)


def responses_max(a):
    """Closed form over A x for all 3^p - 1 regular x (one GEMM per 2^15 of them)."""
    p, best = a.shape[0], -math.inf
    for start in range(1, 3**p, 2**15):
        digits = np.arange(start, min(start + 2**15, 3**p))[:, None] // 3 ** np.arange(p) % 3
        t = np.where(digits == 2, -1.0, digits.astype(np.float64))
        x = t / np.sqrt(np.count_nonzero(t, axis=1))[:, None]
        best = max(best, float(netcert._response_maxima(x @ a.T).max()))
    return best


def certificate_cells(p):
    """The x of every cell the certificates enumerate (the blocks of
    netcert._half_tables), unscaled, as rows of {0, +-1}^p."""
    left, right, _, _, blocks = netcert._half_tables(p, netcert._BLOCK_CELLS)
    parts = []
    for rows, cols in blocks:
        lhs, rhs = left[rows], right[cols]
        parts.append(np.hstack([np.repeat(lhs, len(rhs), axis=0), np.tile(rhs, (len(lhs), 1))]))
    return np.concatenate(parts)


class TestEnumeration:
    """The certificates' cells are the regular vectors up to sign, each once."""

    def test_level_counts(self):
        s = np.count_nonzero(certificate_cells(4), axis=1)
        assert 2 * int(np.sum(s == 2)) == 24  # C(4,2) * 2^2

    def test_p1_is_plus_minus_one(self):
        cells = certificate_cells(1)
        assert cells.tolist() == [[1.0]]
        assert sorted(float(v[0]) for v in np.vstack([cells, -cells])) == [-1.0, 1.0]

    def test_p3_total_is_26(self):
        s = np.count_nonzero(certificate_cells(3), axis=1)
        assert (2 * np.bincount(s, minlength=4)).tolist() == [0, 6, 12, 8]
        assert 2 * len(s) == 3**3 - 1

    def test_counting_identity(self):
        for p in range(1, 11):
            cells = certificate_cells(p)
            assert np.count_nonzero(cells, axis=1).min() >= 1
            assert 2 * len(cells) == 3**p - 1

    def test_vectors_are_unit_and_distinct(self):
        t = certificate_cells(4)
        x = t / np.sqrt(np.count_nonzero(t, axis=1))[:, None]
        assert np.allclose(np.linalg.norm(x, axis=1), 1.0, atol=1e-12)
        both = {tuple(row) for row in np.vstack([x, -x])}
        assert len(both) == 2 * len(x)
        assert both == {tuple(row) for row in regular_matrix(4)}

    def test_cap_error_carries_count(self):
        # At the cap the blocks hold every cell; one past it, nothing is
        # enumerated and the error carries the count it would have needed.
        p = netcert.BILINEAR_CAP
        left, right, _, _, blocks = netcert._half_tables(p, netcert._BLOCK_CELLS)
        cells = sum(len(left[r]) * len(right[c]) for r, c in blocks)
        assert 2 * cells == 3**p - 1
        with pytest.raises(EnumerationCapError) as exc:
            cw.certify_norm_bound(np.eye(p + 1))
        assert exc.value.count == 3 ** (p + 1) - 1

    def test_invalid_sparsity(self):
        with pytest.raises(DimensionError):
            cw.RegularVector(3, 0, (), ())
        with pytest.raises(DimensionError):
            cw.RegularVector(3, 4, (0, 1, 2, 3), (1, 1, 1, 1))


class TestMaxRegularResponse:
    def test_single_spike(self):
        value, arg = cw.max_regular_response([1.0, 0.0, 0.0])
        assert value == pytest.approx(1.0)
        assert arg.s == 1 and arg.support == (0,) and arg.signs == (1,)

    def test_flat_vector_prefers_full_support(self):
        # |v_i| = 1/2 each: prefix sums / sqrt(s) are .5, .707, .866, 1.0.
        value, arg = cw.max_regular_response([0.5, 0.5, 0.5, 0.5])
        assert value == pytest.approx(1.0)
        assert arg.s == 4

    def test_signs_match_vector(self):
        value, arg = cw.max_regular_response([1.0, -1.0, 0.0])
        assert value == pytest.approx(math.sqrt(2.0))
        assert arg.support == (0, 1)
        assert arg.signs == (1, -1)

    def test_matches_enumeration_oracle(self):
        rng = cw.generator(808)
        mats = {p: regular_matrix(p) for p in range(2, 11)}
        for trial in range(1000):
            p = 2 + trial % 9
            v = rng.standard_normal(p)
            brute = float((mats[p] @ v).max())
            value, arg = cw.max_regular_response(v)
            assert abs(value - brute) <= 1e-12
            assert arg.to_array() @ v == pytest.approx(value, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32), p=st.integers(1, 8))
    def test_argmax_attains_value(self, seed, p):
        v = cw.generator(seed).standard_normal(p)
        value, arg = cw.max_regular_response(v)
        assert arg.to_array() @ v == pytest.approx(value, abs=1e-12)


class TestMaxBilinear:
    def test_identity(self):
        assert cw.max_bilinear_over_regular(np.eye(2)) == pytest.approx(1.0)

    def test_rotation_quarter_turn(self):
        # Exhaustive check over the 8 regular vectors of R^2 gives 1.
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        mat = regular_matrix(2)
        brute = float((mat @ a.T @ mat.T).max())
        assert brute == pytest.approx(1.0)
        assert cw.max_bilinear_over_regular(a) == pytest.approx(brute, abs=1e-12)

    def test_matches_pair_enumeration(self):
        # Brute force over all pairs, and bit for bit the maximum with nothing
        # pruned: a pruning rule that drops the maximizing row fails here.  The
        # Gaussians scaled by 1/64 have maxima below 1, where ||u||^2 < ||u||.
        # Then every matrix again, all sizes in one list and Gaussians at 2^+-j
        # scales among them, certified in one stack per size: each maximum is
        # still the one of its matrix alone.
        rng, structured = cw.generator(909), cw.generator(919)
        every = []
        for p in range(2, 8):
            mat = regular_matrix(p)
            gaussians = [rng.standard_normal((p, p)) for _ in range(20)]
            small = [g / 64 for g in gaussians]
            scaled = [np.ldexp(g, j) for g, j in zip(gaussians, (-600, -40, -1, 1, 40, 600))]
            for a in gaussians + small + structured_matrices(p, structured):
                brute = float((mat @ a @ mat.T).max())
                value = cw.max_bilinear_over_regular(a)
                assert abs(value - brute) <= 1e-12
                assert value == unpruned_max(a)
            every += gaussians + small + scaled + structured_matrices(p, structured)
        order = rng.permutation(len(every))
        certs = cw.certify_norm_bounds([every[i] for i in order])
        assert [c.reg_max for c in certs] == [unpruned_max(every[i]) for i in order]

    def test_best_carries_across_batches(self, monkeypatch):
        # 64-cell blocks split p = 7 into dozens, so pruning uses a running
        # maximum from earlier blocks: alone, and for each matrix of a stack.
        monkeypatch.setattr(netcert, "_BLOCK_CELLS", 64)
        rng = cw.generator(920)
        mat = regular_matrix(7)
        assert len(netcert._half_tables(7, 64)[-1]) > 20
        stack = [rng.standard_normal((7, 7)) for _ in range(10)] + structured_matrices(7, rng)
        for a in stack:
            value = cw.max_bilinear_over_regular(a)
            assert abs(value - float((mat @ a @ mat.T).max())) <= 1e-12
            assert value == unpruned_max(a)
        stacked = netcert._bilinear_maxima(np.array(stack))
        assert stacked.tolist() == [unpruned_max(a) for a in stack]

    def test_one_response_per_sign_pair(self):
        # The cells of the blocks are the regular x whose first nonzero entry is
        # +1: one of each pair +-x, and never x = 0.  Each block has at most
        # block_cells cells.
        for cells, p in itertools.product((netcert._BLOCK_CELLS, 64, 5, 1), range(1, 8)):
            left, right, s_left, s_right, blocks = netcert._half_tables(p, cells)
            assert left.shape[1] == p // 2 and right.shape[1] == p - p // 2
            assert np.array_equal(s_left, np.count_nonzero(left, axis=1))
            assert np.array_equal(s_right, np.count_nonzero(right, axis=1))
            xs = []
            for rows, cols in blocks:
                block = [np.concatenate((xl, xr)) for xl in left[rows] for xr in right[cols]]
                assert 1 <= len(block) <= cells
                xs += block
            xs = np.array(xs)
            assert xs.shape == ((3**p - 1) // 2, p)
            assert np.all(xs[np.arange(len(xs)), np.argmax(xs != 0, axis=1)] == 1.0)
            signed = {tuple(x) for x in xs} | {tuple(-x) for x in xs}
            assert len(signed) == 3**p - 1
            assert signed == {t for t in itertools.product((0.0, 1.0, -1.0), repeat=p) if any(t)}

    def test_margin_covers_rounding(self):
        # The closed form of the flat response (t, t, t) rounds above its own
        # computed norm.  The response of x = e_1, read from the partials (the
        # P_L row of e_1 plus the zero P_R row), is column 1 exactly.  Column 0
        # has the larger norm, seeds the batch, and is one ulp below column 1's
        # value: without the margin, or with it the wrong way, column 1 (the
        # maximum) would be pruned.
        t = 0.6571445789601502
        u = np.array([[0.0, t, t, t]])
        value = float(netcert._response_maxima(u)[0])
        a = np.zeros((4, 4))
        a[:, 0] = (np.nextafter(value, 0.0), 1e-4, 0.0, 0.0)
        a[:, 1] = u
        assert float(np.einsum("ij,ij->i", u, u)[0]) <= a[0, 0] ** 2
        assert float(a[:, 0] @ a[:, 0]) > float(u[0] @ u[0])
        assert cw.max_bilinear_over_regular(a) == value == unpruned_max(a)

    def test_tiny_and_huge_scales(self):
        # Pruning compares ||A x||^2, which would underflow at 1e-300 and
        # overflow at 1e300 without rescaling.
        rng = cw.generator(922)
        for scale in (1e-300, 1e300):
            a = scale * rng.standard_normal((5, 5))
            assert cw.max_bilinear_over_regular(a) == unpruned_max(a)
            assert cw.max_bilinear_over_regular(a) == pytest.approx(
                scale * cw.max_bilinear_over_regular(a / scale), rel=1e-12)
        # Subnormal entries: scaled up to unit scale by ldexp, exactly.
        for a in (np.array([[2.225073858507e-311]]), 1e-310 * rng.standard_normal((4, 4))):
            assert cw.max_bilinear_over_regular(a) == unpruned_max(a)
        # The enumeration runs at unit scale, so 2^j A gives 2^j times the maximum, exactly.
        a = rng.standard_normal((5, 5))
        for j in (-1000, -300, 300, 1000):
            assert cw.max_bilinear_over_regular(np.ldexp(a, j)) == np.ldexp(
                cw.max_bilinear_over_regular(a), j)

    def test_margin_is_needed(self, monkeypatch):
        # Negative control.  Column 1's response (0, t, t, t, 0), read exactly from
        # the partials, has a closed form one ulp above column 0's, a_00, but its
        # ||A x||^2 from the expansion is not above a_00^2.  best holds a_00 when
        # column 1's cell is tested (it is the largest entry, and column 0 has the
        # largest norm in the block), so a rule without the margin prunes the
        # maximum: alone, and in a stack, where the other matrices have their own
        # best.
        t = 0.6571445789601502
        value = float(netcert._response_maxima(np.array([[0.0, t, t, t, 0.0]]))[0])
        a = np.zeros((5, 5))
        a[:, 0] = (np.nextafter(value, 0.0), 0.0, 0.0, 0.0, 1e-4)
        a[:, 1] = (0.0, t, t, t, 0.0)
        rng = cw.generator(926)
        stack = np.array([rng.standard_normal((5, 5)) for _ in range(3)] + [a]
                         + structured_matrices(5, rng))
        assert cw.max_bilinear_over_regular(a) == value == unpruned_max(a)
        assert netcert._bilinear_maxima(stack)[3] == value
        monkeypatch.setattr(netcert, "_MARGIN", 0.0)
        assert cw.max_bilinear_over_regular(a) == np.nextafter(value, 0.0)
        assert netcert._bilinear_maxima(stack)[3] == np.nextafter(value, 0.0)

    @pytest.mark.parametrize("p", [10, 12])
    def test_matches_every_response(self, p):
        # Exhaustive: the closed form over all 3^p - 1 responses A x, computed
        # with no half tables, no expansion and no pruning.
        rng = cw.generator(924)
        q, _ = np.linalg.qr(rng.standard_normal((p, p)))
        for a in (rng.standard_normal((p, p)), rng.standard_normal((p, p)) / 64, q):
            assert abs(cw.max_bilinear_over_regular(a) - responses_max(a)) <= 1e-12

    def test_never_exceeds_spectral_norm(self):
        rng = cw.generator(910)
        for _ in range(100):
            a = rng.standard_normal((6, 6))
            assert cw.max_bilinear_over_regular(a) <= cw.spectral_norm(a) + 1e-12

    def test_transpose_symmetry(self):
        rng = cw.generator(911)
        for _ in range(25):
            a = rng.standard_normal((5, 5))
            assert cw.max_bilinear_over_regular(a) == pytest.approx(
                cw.max_bilinear_over_regular(a.T), abs=1e-12
            )

    def test_cap_error(self):
        with pytest.raises(EnumerationCapError) as exc:
            cw.max_bilinear_over_regular(np.eye(15))
        assert exc.value.count == 3**15 - 1

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            cw.max_bilinear_over_regular(np.zeros((2, 3)))


class TestCertifyNormBound:
    def test_identity_certificate(self):
        cert = cw.certify_norm_bound(np.eye(2))
        assert cert.exact_norm == pytest.approx(1.0)
        assert cert.reg_max == pytest.approx(1.0)
        assert cert.factor == 48  # 12 * ceil(ln 4)^2
        assert cert.holds

    def test_rank_one_regular_outer_product(self):
        u = cw.RegularVector(4, 2, (0, 1), (1, -1)).to_array()
        v = cw.RegularVector(4, 1, (2,), (1,)).to_array()
        cert = cw.certify_norm_bound(np.outer(u, v))
        assert cert.exact_norm == pytest.approx(1.0)
        assert cert.reg_max == pytest.approx(1.0)
        assert cert.holds

    def test_seeded_gaussian_batch_sandwich(self):
        rng = cw.generator(912)
        for _ in range(20):
            a = rng.standard_normal((6, 6))
            cert = cw.certify_norm_bound(a)
            assert cert.holds
            assert cert.reg_max <= cert.exact_norm + 1e-12
            assert cert.exact_norm <= cert.factor * cert.reg_max + 1e-9

    def test_negative_control_factor_below_ratio(self, monkeypatch):
        # With the factor shrunk to half of ||A|| / reg_max the claim is false.
        a = cw.generator(923).standard_normal((5, 5))
        cert = cw.certify_norm_bound(a)
        ratio = cert.exact_norm / cert.reg_max
        assert cert.holds and ratio > 1.0
        monkeypatch.setattr(netcert, "log_factor", lambda p: ratio / 24)
        shrunk = cw.certify_norm_bound(a)
        assert shrunk.factor == pytest.approx(ratio / 2)
        assert (shrunk.exact_norm, shrunk.reg_max) == (cert.exact_norm, cert.reg_max)
        assert not shrunk.holds

    def test_negative_control_far_below_one(self, monkeypatch):
        # ||A|| = 3.6e-12: the comparison is relative, so no slack hides a zero factor.
        a = 2.0**-40 * cw.generator(1).standard_normal((6, 6))
        assert cw.certify_norm_bound(a).holds
        monkeypatch.setattr(netcert, "log_factor", lambda p: 0)
        cert = cw.certify_norm_bound(a)
        assert cert.factor == 0 and 0.0 < cert.exact_norm < 1e-11
        assert not cert.holds

    def test_subnormal_certificate_is_exact(self):
        # Every entry 2^-1074: ||A|| and the regular maximum are both 3 * 2^-1074.
        cert = cw.certify_norm_bound(np.full((3, 3), 5e-324))
        assert cert.reg_max == cert.exact_norm == math.ldexp(3.0, -1074)
        assert cert.holds

    def test_at_the_enumeration_cap(self):
        # p = BILINEAR_CAP = 14, each well inside 20 s: a Gaussian A, and an orthogonal
        # one (every ||A x|| = 1, so nothing is pruned: the slowest input at the cap).
        rng = cw.generator(14)
        gaussian, past_cap = rng.standard_normal((14, 14)), rng.standard_normal((15, 15))
        for a in (gaussian, np.linalg.qr(rng.standard_normal((14, 14)))[0]):
            start = time.perf_counter()
            cert = cw.certify_norm_bound(a)
            assert time.perf_counter() - start < 20.0
            assert cert.holds and cert.reg_max <= cert.exact_norm
        start = time.perf_counter()
        with pytest.raises(EnumerationCapError):
            cw.certify_norm_bound(past_cap)
        assert time.perf_counter() - start < 20.0

    def test_matrix_id_stable(self):
        a = cw.generator(913).standard_normal((3, 3))
        assert cw.certify_norm_bound(a).matrix_id == cw.certify_norm_bound(a).matrix_id
        assert cw.certify_norm_bound(a, matrix_id="M1").matrix_id == "M1"

    def test_dict_fields(self):
        d = cw.certify_norm_bound(np.eye(3)).to_dict()
        assert set(d) == {"p", "matrix_id", "exact_norm", "reg_max", "factor", "holds"}


class TestCertifyNormBounds:
    def test_each_certificate_is_that_of_its_matrix_alone(self):
        # Sizes mixed in the list, up to the cap, ids given or hashed: the stack per
        # size gives every field of every certificate, in list order, bit for bit.
        rng = cw.generator(927)
        mats = [rng.standard_normal((p, p)) * 2.0 ** rng.integers(-8, 9)
                for p in (3, 6, 14, 3, 1, 6, 9, 3)]
        ids = ["a", None, "c", "d", "e", None, "g", "h"]
        start = time.perf_counter()
        certs = cw.certify_norm_bounds(mats, ids)
        assert time.perf_counter() - start < 20.0
        assert [c.to_dict() for c in certs] == [
            cw.certify_norm_bound(a, i).to_dict() for a, i in zip(mats, ids)]
        assert [c.to_dict() for c in cw.certify_norm_bounds(mats)] == [
            cw.certify_norm_bound(a).to_dict() for a in mats]
        assert cw.certify_norm_bounds([]) == []

    def test_first_bad_matrix_raises_before_any_is_certified(self, monkeypatch):
        # Each matrix is checked as it is drawn, so an error later in the list,
        # here one the iterable itself raises, never masks an earlier one.
        def matrices(*items):
            for item in items:
                if isinstance(item, Exception):
                    raise item
                yield item

        monkeypatch.setattr(netcert, "_bilinear_maxima", None)  # never reached
        missing = LookupError("no such matrix")
        with pytest.raises(EnumerationCapError):
            cw.certify_norm_bounds(matrices(np.eye(3), np.eye(15), missing))
        with pytest.raises(DimensionError, match="must be square"):
            cw.certify_norm_bounds(matrices(np.eye(3), np.zeros((2, 3)), np.eye(15)))
        with pytest.raises(LookupError):
            cw.certify_norm_bounds(matrices(np.eye(3), missing, np.eye(15)))

    def test_ids_must_match_the_matrices(self):
        with pytest.raises(ValueError, match="2 matrices but 1 matrix ids"):
            cw.certify_norm_bounds([np.eye(2), np.eye(2)], ["only"])

    def test_memory_does_not_grow_with_the_list(self):
        # The stack is worked in chunks of at most _BLOCK_CELLS (matrix, cell)
        # pairs, so 64 matrices at p = 10 peak near the most that one of them
        # does alone (its survivors set that), not at 64 blocks' worth.
        rng = cw.generator(928)
        mats = [rng.standard_normal((10, 10)) for _ in range(64)]

        def peak(matrices):
            tracemalloc.start()
            try:
                cw.certify_norm_bounds(matrices)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        cw.certify_norm_bounds(mats[:1])  # the half tables are cached on first use
        one, many = max(peak([a]) for a in mats), peak(mats)
        assert many <= 1.5 * one, (one, many)

