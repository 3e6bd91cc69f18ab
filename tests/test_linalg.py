"""Cholesky factorizations and moment permutations."""
import numpy as np
import pytest

from plfilt import (
    JointGaussian,
    NotPositiveDefiniteError,
    benchmark_function,
    cholesky_full,
    cholesky_partial,
    classify,
    kalman_update,
    match_full,
    match_pl,
    permute_moments,
    spherical_rule,
)
from plfilt.linalg import _right_form
from conftest import random_spd


def nearly_symmetric(rng, n):
    """A random SPD matrix plus an antisymmetric perturbation: its two
    triangles differ by less than half the factorizations' tolerance."""
    p = random_spd(rng, n)
    e = rng.uniform(-1.0, 1.0, (n, n))
    return p + 1e-11 * np.abs(p).max() * (e - e.T)


class TestCholeskyFull:
    def test_identity(self):
        assert np.array_equal(cholesky_full(np.eye(4)), np.eye(4))

    def test_hand_2x2(self):
        l = cholesky_full(np.array([[4.0, 2.0], [2.0, 5.0]]))
        assert np.array_equal(l, np.array([[2.0, 0.0], [1.0, 2.0]]))

    def test_reconstruction(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 30))
            p = random_spd(rng, n)
            l = cholesky_full(p)
            rel = np.linalg.norm(l @ l.T - p) / np.linalg.norm(p)
            assert rel <= 1e-12
            assert np.array_equal(l, np.tril(l))
            assert np.diag(l).min() > 0.0

    def test_not_positive_definite_reports_pivot(self, rng):
        p = random_spd(rng, 6)
        w, v = np.linalg.eigh(p)
        w[2] = -abs(w[2])  # flip one eigenvalue
        bad = v @ np.diag(w) @ v.T
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky_full(bad)
        assert 0 <= err.value.pivot < 6

    def test_asymmetry_rejected(self, rng):
        p = random_spd(rng, 5)
        p[0, 1] += 1.0
        with pytest.raises(ValueError, match="asymmetric"):
            cholesky_full(p)
        # NaN or inf, on or off the diagonal, fails the same check
        for entry, value in (((2, 2), np.nan), ((3, 1), np.nan), ((1, 3), np.nan), ((2, 2), np.inf)):
            q = random_spd(rng, 5)
            q[entry] = value
            with pytest.raises(ValueError, match="non-finite"):
                cholesky_full(q)
        # so does a symmetric non-finite pair or diagonal entry; an infinity
        # there passes the exact comparison and must be caught past dpotrf,
        # whose blocked path the 90x90 case takes
        for n, entry in ((5, ([3, 1], [1, 3])), (90, ([80, 10], [10, 80])), (5, (2, 2))):
            for value in (np.inf, -np.inf, np.nan):
                q = random_spd(rng, n)
                q[entry] = value
                with pytest.raises(ValueError, match="non-finite"):
                    cholesky_full(q)
                # and not as the indefinite pivot dpotrf stops at before it
                q[0, 0] = -1.0
                with pytest.raises(ValueError, match="non-finite"):
                    cholesky_full(q)

    def test_small_asymmetry_symmetrized(self, rng):
        p = random_spd(rng, 5)
        p[0, 1] += 1e-13
        l = cholesky_full(p)
        sym = 0.5 * (p + p.T)
        assert np.linalg.norm(l @ l.T - sym) / np.linalg.norm(sym) <= 1e-12


class TestCholeskyPartial:
    def test_full_case_matches(self, rng):
        p = random_spd(rng, 7)
        pc = cholesky_partial(p, 7)
        assert np.allclose(pc.column_block(), cholesky_full(p), atol=1e-14)

    def test_identity(self):
        pc = cholesky_partial(np.eye(5), 2)
        assert np.array_equal(pc.column_block(), np.eye(5)[:, :2])

    def test_matches_leading_columns(self, rng):
        p = random_spd(rng, 8)
        full = cholesky_full(p)
        pc = cholesky_partial(p, 3)
        assert np.abs(pc.column_block() - full[:, :3]).max() <= 1e-13
        assert pc.column_block().shape == (8, 3)

    def test_sweep_against_full(self, rng):
        # smaller version of the acceptance sweep
        for _ in range(100):
            n = int(rng.integers(2, 41))
            p = random_spd(rng, n)
            full = cholesky_full(p)
            for z in range(1, n + 1):
                pc = cholesky_partial(p, z)
                assert np.abs(pc.column_block() - full[:, :z]).max() <= 1e-13

    def test_pivot_limited_to_leading_block(self, rng):
        # indefiniteness hidden beyond the requested columns goes unseen
        p = random_spd(rng, 6)
        p[5, 5] = -1.0
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_full(p)
        p[4, 3] = p[3, 4] = np.nan  # so does a non-finite trailing entry
        pc = cholesky_partial(p, 2)  # must succeed: only pivots 0..1 touched
        assert np.diag(pc.column_block()).min() > 0.0

    @pytest.mark.parametrize(
        "entry, value",
        [
            ((1, 1), np.nan), ((4, 0), np.nan), ((0, 4), np.nan), ((0, 0), np.inf),
            # symmetric pairs: an infinite one passes the exact comparison
            (([4, 0], [0, 4]), np.inf), (([4, 0], [0, 4]), -np.inf), (([4, 0], [0, 4]), np.nan),
            (([1, 0], [0, 1]), np.inf), (([1, 0], [0, 1]), -np.inf), (([1, 0], [0, 1]), np.nan),
        ],
        ids=[
            "nan-diag", "nan-strip", "nan-leading-row", "inf-diag",
            "inf-pair-strip", "-inf-pair-strip", "nan-pair-strip",
            "inf-pair-leading", "-inf-pair-leading", "nan-pair-leading",
        ],
    )
    def test_non_finite_leading_block_rejected(self, rng, entry, value):
        p = random_spd(rng, 6)
        p[entry] = value
        with pytest.raises(ValueError, match="non-finite"):
            cholesky_partial(p, 2)

    @pytest.mark.parametrize(
        "n, z, pivot",
        [(9, 5, 0), (9, 5, 2), (9, 5, 4), (90, 80, 0), (90, 80, 40), (90, 80, 79)],
    )
    def test_leading_pivot_matches_full(self, rng, n, z, pivot):
        # pivot `pivot` of the factor becomes exactly -1; the minors before it stay SPD
        b = np.tril(rng.standard_normal((n, n)), -1) + np.diag(rng.uniform(1.0, 2.0, n))
        p = b @ b.T
        p[pivot, pivot] -= b[pivot, pivot] ** 2 + 1.0
        with pytest.raises(NotPositiveDefiniteError) as full_err:
            cholesky_full(p)
        with pytest.raises(NotPositiveDefiniteError) as part_err:
            cholesky_partial(p, z)
        assert part_err.value.pivot == full_err.value.pivot == pivot

    @pytest.mark.parametrize("n", [9, 27, 40, 90])
    def test_ill_conditioned_against_full(self, rng, n):
        # deviation relative to max|L| stays below 1e-15 * sqrt(cond)
        for cond in (1e2, 1e4, 1e6, 1e8, 1e10):
            for _ in range(3):
                q = np.linalg.qr(rng.standard_normal((n, n)))[0]
                p = (q * np.logspace(0, -np.log10(cond), n)) @ q.T
                p = 0.5 * (p + p.T)
                full = cholesky_full(p)
                for z in (1, n // 3, n - 1):
                    lead = full[:, :z]
                    dev = np.abs(cholesky_partial(p, z).column_block() - lead).max()
                    assert dev <= 1e-15 * np.sqrt(cond) * np.abs(lead).max()

    def test_failing_pivot_index(self):
        p = np.diag([1.0, -1.0, 1.0])
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky_partial(p, 3)
        assert err.value.pivot == 1

    def test_nearly_symmetric_same_triangle_as_full(self, rng):
        # both factorizations accept a tolerated asymmetry and must factor the
        # same triangle of it, which an asymmetry this size would show
        for n in (6, 27, 40):
            p = nearly_symmetric(rng, n)
            assert not np.array_equal(p, p.T)
            full = cholesky_full(p)
            for z in sorted({1, 2, n // 3, n - 1, n}):
                assert np.abs(cholesky_partial(p, z).column_block() - full[:, :z]).max() <= 1e-13

    def test_z_out_of_range(self, rng):
        p = random_spd(rng, 4)
        with pytest.raises(ValueError):
            cholesky_partial(p, 0)
        with pytest.raises(ValueError):
            cholesky_partial(p, 5)


class TestPermutation:
    """``permute_moments`` with a gather order given as an index array."""

    def test_identity_roundtrip(self, rng):
        m = rng.standard_normal(4)
        p = random_spd(rng, 4)
        m2, p2 = permute_moments(np.arange(4), m, p)
        assert np.array_equal(m, m2) and np.array_equal(p, p2)

    def test_hand_reversal(self):
        p = np.array([[1.0, 0.5], [0.5, 2.0]])
        m, p = permute_moments(np.array([1, 0]), np.array([1.0, 2.0]), p)
        assert np.array_equal(m, [2.0, 1.0])
        assert np.array_equal(p, [[2.0, 0.5], [0.5, 1.0]])

    def test_roundtrip_bit_identical(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 30))
            order = rng.permutation(n)
            m = rng.standard_normal(n)
            p = random_spd(rng, n)
            mb, pb = permute_moments(order, m, p)
            m2, p2 = permute_moments(np.argsort(order), mb, pb)
            assert np.array_equal(m, m2)
            assert np.array_equal(p, p2)

    def test_eigenvalues_preserved(self, rng):
        n = 12
        p = random_spd(rng, n)
        _, pb = permute_moments(rng.permutation(n), np.zeros(n), p)
        assert np.abs(np.linalg.eigvalsh(p) - np.linalg.eigvalsh(pb)).max() <= 1e-12 * n

    def test_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            permute_moments(np.arange(3), np.zeros(4), np.eye(4))
        with pytest.raises(ValueError):
            permute_moments(np.arange(4), np.zeros(4), np.eye(3))


@pytest.mark.parametrize("order", ["C", "F"])
def test_inputs_left_unmodified(rng, order):
    """No factorization, update or matcher writes to its inputs, whatever
    their memory order (guards any in-place LAPACK shortcut)."""
    x, z = 9, 3
    plf = benchmark_function(z, x - z, 7)
    rule = spherical_rule(x)
    m = rng.standard_normal(x)
    p = np.array(nearly_symmetric(rng, x), order=order)
    s = np.array(random_spd(rng, plf.y_dim), order=order)
    p_xy = np.array(rng.standard_normal((x, plf.y_dim)), order=order)
    m_y = rng.standard_normal(plf.y_dim)
    y = rng.standard_normal(plf.y_dim)
    inputs = (m, p, s, p_xy, m_y, y)
    before = [a.copy() for a in inputs]
    cholesky_full(p)
    cholesky_full(s)
    cholesky_partial(p, z)
    kalman_update(JointGaussian(m, m_y, p, p_xy, s), y)
    match_full(plf, m, p, rule)
    match_pl(plf, m, p, classify(rule, z))
    for a, b in zip(inputs, before):
        assert np.array_equal(a, b)


def _one_per_column(rng, inner, n, zero_cols=()):
    """An ``(inner, n)`` matrix with one random nonzero per column, and
    none in ``zero_cols``."""
    a = np.zeros((inner, n))
    a[rng.integers(0, inner, n), np.arange(n)] = rng.standard_normal(n)
    a[:, list(zero_cols)] = 0.0
    return a


def _two_in_column_4(a):
    """``a`` with exactly two nonzeros in column 4, the smallest excess
    the right form's check must see."""
    a[:, 4] = 0.0
    a[[3, 5], 4] = (1.5, -2.0)
    return a


def _paired(rng, n, order):
    """An ``(2 n, n)`` matrix whose column k holds ``v_k`` and ``-v_k`` in
    rows ``order[k]`` and ``order[n + k]``, zeros elsewhere."""
    a = np.zeros((2 * n, n))
    v = rng.uniform(0.5, 2.0, n)
    a[order[:n], np.arange(n)] = v
    a[order[n:], np.arange(n)] = -v
    return a


class TestRightLinearForm:
    """``_right_form(a)`` picks the form of ``M -> M @ a``."""

    CASES = {
        "one-per-column": (lambda rng: _one_per_column(rng, 60, 90), "_scaled_columns"),
        "zero-columns": (lambda rng: _one_per_column(rng, 60, 30, (0, 7)), "_scaled_columns"),
        "small": (lambda rng: _one_per_column(rng, 9, 9), "_scaled_columns"),
        "full-column": (
            lambda rng: np.where(np.arange(30) == 5, 1.0, _one_per_column(rng, 60, 30)),
            "_matmul_right",
        ),
        "two-in-a-column": (lambda rng: _two_in_column_4(_one_per_column(rng, 60, 30)), "_matmul_right"),
        "dense": (lambda rng: rng.standard_normal((60, 20)), "_matmul_right"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    @pytest.mark.parametrize("rows", [1, 70])
    def test_form_equals_dense_product(self, rng, case, rows):
        build, name = self.CASES[case]
        a = build(rng)
        form = _right_form(a)
        assert form.func.__name__ == name
        m = np.tril(rng.standard_normal((rows, a.shape[0])))  # exact zeros, as a factor has
        out = form(m)
        assert np.array_equal(out, m @ a)
        assert out.flags.c_contiguous

    @pytest.mark.parametrize(
        "order",
        [np.arange(60), np.r_[np.arange(59, 29, -1), np.arange(30)]],
        ids=["stepped", "reversed"],  # [I, -I], as a spherical rule's weighted points
    )
    @pytest.mark.parametrize("rows", [1, 70])
    def test_paired_columns_within_roundoff(self, rng, order, rows):
        """Columns holding exactly ``v`` and ``-v`` in evenly stepped rows
        take the difference of two views of ``M``; it agrees with the
        dense product to one rounding each in the difference and the
        scale."""
        a = _paired(rng, 30, order)
        form = _right_form(a)
        assert form.func.__name__ == "_paired_columns"
        m = rng.standard_normal((rows, 60))
        out = form(m)
        dense = m @ a
        assert np.abs(out - dense).max() <= 4 * np.finfo(float).eps * np.abs(dense).max()
        assert out.flags.c_contiguous

    @pytest.mark.parametrize("case", ["unequal", "same-sign", "shuffled"])
    def test_unmatched_pair_keeps_dense_product(self, rng, case):
        a = _paired(rng, 30, rng.permutation(60) if case == "shuffled" else np.arange(60))
        if case != "shuffled":
            a[33, 3] = (-1.5 if case == "unequal" else 1.0) * a[3, 3]
        assert _right_form(a).func.__name__ == "_matmul_right"
