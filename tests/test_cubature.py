"""Cubature rule construction, classification and deduplication."""
import itertools
import math

import numpy as np
import pytest

from plfilt import (
    CubatureRule,
    PartiallyLinearFunction,
    PointBudgetExceededError,
    RuleKind,
    classify,
    gauss_hermite_rule,
    hermite_1d,
    make_classified,
    match_full,
    match_pl,
    rule_checks,
    spherical_rule,
    unique_nonlinear,
    unscented_rule,
)
from conftest import random_spd


def hermite_recursion(p, x):
    """Independent He_p evaluation for residual checks."""
    h_prev, h = np.ones_like(x), np.asarray(x, dtype=float)
    if p == 0:
        return h_prev
    for k in range(1, p):
        h_prev, h = h, x * h - k * h_prev
    return h


class TestSpherical:
    def test_dim_1(self):
        rule = spherical_rule(1)
        assert np.array_equal(rule.weights, [0.5, 0.5])
        assert np.array_equal(rule.points, [[1.0, -1.0]])

    def test_dim_3(self):
        rule = spherical_rule(3)
        assert rule.count == 6
        assert np.allclose(rule.weights, 1.0 / 6.0)
        vals = np.unique(np.abs(rule.points))
        assert np.allclose(sorted(vals), [0.0, np.sqrt(3.0)])

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            spherical_rule(0)

    @pytest.mark.parametrize("x", [1, 2, 5, 17, 50])
    def test_assumptions(self, x):
        w_dev, m_dev, symmetric = rule_checks(spherical_rule(x))
        assert w_dev <= 1e-12
        assert m_dev <= 1e-10
        assert symmetric


class TestUnscented:
    def test_hand_example(self):
        # X=3, alpha=1, kappa=2: lambda = 2, scale sqrt(5)
        rule = unscented_rule(3, 1.0, 2.0)
        assert rule.count == 7
        assert rule.weights[0] == pytest.approx(0.4, abs=1e-15)
        assert np.allclose(rule.weights[1:], 0.1)
        assert np.allclose(np.abs(rule.points[:, 1:]).max(), np.sqrt(5.0))
        assert np.array_equal(rule.points[:, 0], np.zeros(3))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            unscented_rule(3, 0.0, 2.0)
        with pytest.raises(ValueError):
            unscented_rule(3, 1.0, -1.0)
        with pytest.raises(ValueError):
            unscented_rule(0, 1.0, 2.0)

    @pytest.mark.parametrize("x", [1, 2, 5, 13, 50])
    @pytest.mark.parametrize("alpha,kappa", [(1.0, 2.0), (0.5, 3.0)])
    def test_assumptions(self, x, alpha, kappa):
        w_dev, m_dev, symmetric = rule_checks(unscented_rule(x, alpha, kappa))
        assert w_dev <= 1e-12
        assert m_dev <= 1e-10
        assert symmetric

    def test_negative_central_weight_allowed(self):
        rule = unscented_rule(13, 0.5, 3.0)  # lambda = -9
        assert rule.weights[0] == pytest.approx(-9.0 / 4.0, abs=1e-13)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-12)


def _stacked_points(x, lead, c):
    """``c [0, I, -I]`` with ``lead`` zero columns, built from ``eye`` and
    ``hstack`` as the spherical and unscented rules once built them."""
    eye = np.eye(x)
    return c * np.hstack((np.zeros((x, lead)), eye, -eye)) + 0.0


class TestPairedConstruction:
    """The spherical and unscented points, written into a zeroed matrix,
    equal the ``eye``/``hstack`` construction bit for bit, with no
    ``-0.0``."""

    @staticmethod
    def assert_no_negative_zero(points):
        assert not np.signbit(points[points == 0.0]).any()

    def test_spherical(self):
        for x in range(1, 51):
            rule = spherical_rule(x)
            assert np.array_equal(rule.points, _stacked_points(x, 0, np.sqrt(x)))
            assert np.array_equal(rule.weights, np.full(2 * x, 1.0 / (2 * x)))
            self.assert_no_negative_zero(rule.points)

    @pytest.mark.parametrize(
        "alpha, kappa, centre_sign",
        [(1.0, 2.0, 1.0), (0.5, 3.0, -1.0)],  # alpha = 0.5: lambda < 0 from x = 2
        ids=["positive-centre", "negative-centre"],
    )
    def test_unscented(self, alpha, kappa, centre_sign):
        assert np.sign(unscented_rule(50, alpha, kappa).weights[0]) == centre_sign
        for x in range(1, 51):
            rule = unscented_rule(x, alpha, kappa)
            lam = alpha**2 * (x + kappa) - x
            denom = lam + x
            assert np.array_equal(rule.points, _stacked_points(x, 1, np.sqrt(denom)))
            weights = np.concatenate(([lam / denom], np.full(2 * x, 0.5 / denom)))
            assert np.array_equal(rule.weights, weights)
            self.assert_no_negative_zero(rule.points)


class TestHermite1d:
    def test_order_1(self):
        roots, weights = hermite_1d(1)
        assert np.array_equal(roots, [0.0])
        assert np.array_equal(weights, [1.0])

    def test_order_2(self):
        # He_2 = x^2 - 1: roots +-1, weights 2!/(2 He_1(+-1))^2 = 1/2
        roots, weights = hermite_1d(2)
        assert np.allclose(roots, [-1.0, 1.0], atol=1e-14)
        assert np.allclose(weights, [0.5, 0.5], atol=1e-14)

    def test_order_3(self):
        # He_3 = x^3 - 3x: roots 0, +-sqrt(3); weights 1/6, 2/3
        roots, weights = hermite_1d(3)
        assert np.allclose(roots, [-np.sqrt(3.0), 0.0, np.sqrt(3.0)], atol=1e-14)
        assert roots[1] == 0.0
        assert np.allclose(weights, [1.0 / 6.0, 2.0 / 3.0, 1.0 / 6.0], atol=1e-14)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            hermite_1d(0)

    @pytest.mark.parametrize("p", range(1, 10))
    def test_residual_and_symmetry(self, p):
        roots, weights = hermite_1d(p)
        assert np.abs(hermite_recursion(p, roots)).max() <= 1e-10
        assert np.all(np.diff(roots) > 0.0) or p == 1
        assert np.array_equal(roots, -roots[::-1])
        assert np.array_equal(weights, weights[::-1])
        assert weights.min() > 0.0
        assert abs(weights.sum() - 1.0) <= 1e-12


class TestGaussHermite:
    def test_2d_order_2(self):
        rule = gauss_hermite_rule(2, 2)
        assert rule.count == 4
        # tensor product of hermite_1d(2): points (+-1, +-1), weights 1/4
        expected = set(itertools.product([-1.0, 1.0], repeat=2))
        got = {tuple(rule.points[:, j]) for j in range(4)}
        assert got == expected
        assert np.allclose(rule.weights, 0.25)

    def test_1d_degenerates_to_quadrature(self):
        rule = gauss_hermite_rule(1, 3)
        roots, weights = hermite_1d(3)
        assert np.array_equal(rule.points[0], roots)
        assert np.array_equal(rule.weights, weights)

    def test_3d_order_3(self):
        rule = gauss_hermite_rule(3, 3)
        assert rule.count == 27
        w_dev, m_dev, symmetric = rule_checks(rule)
        assert w_dev <= 1e-12 and m_dev <= 1e-10 and symmetric

    def test_tensor_oracle(self):
        # independent reconstruction through itertools.product
        p, x = 3, 2
        roots, w1 = hermite_1d(p)
        expected = {}
        for ks in itertools.product(range(p), repeat=x):
            pt = tuple(roots[k] for k in ks)
            expected[pt] = math.prod(w1[k] for k in ks)
        rule = gauss_hermite_rule(x, p)
        for j in range(rule.count):
            pt = tuple(rule.points[:, j])
            assert pt in expected
            assert rule.weights[j] == pytest.approx(expected[pt], abs=1e-16)

    def test_order_below_2_rejected(self):
        with pytest.raises(ValueError):
            gauss_hermite_rule(2, 1)

    def test_budget(self):
        with pytest.raises(PointBudgetExceededError) as err:
            gauss_hermite_rule(10, 5, point_budget=1000)
        assert err.value.requested == 5**10
        assert err.value.budget == 1000

    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    @pytest.mark.parametrize("x", [1, 2, 3, 6])
    def test_assumptions(self, p, x):
        w_dev, m_dev, symmetric = rule_checks(gauss_hermite_rule(x, p))
        assert w_dev <= 1e-12
        assert m_dev <= 1e-10
        assert symmetric


def subsets(cr):
    """(weights, points) of the central, nonlinear and linear subsets,
    rebuilt from ``cr.base``."""
    pts = cr.base.points
    w = cr.base.weights
    nonlinear = pts[: cr.z_dim].any(axis=0)
    central = ~pts.any(axis=0)
    linear = ~nonlinear & ~central
    return tuple((w[s], pts[:, s]) for s in (central, nonlinear, linear))


def reassembled_pairs(cr):
    pairs = []
    for w_arr, xi_arr in subsets(cr):
        for j in range(w_arr.size):
            pairs.append((w_arr[j], tuple(xi_arr[:, j])))
    return sorted(pairs)


def sorted_columns(w, xi):
    rows = np.vstack((xi, w))
    return rows[:, np.lexsort(rows[::-1])]


class TestClassify:
    def test_spherical_5_2(self):
        cr = classify(spherical_rule(5), 2)
        assert (cr.n_c, cr.n_z, cr.n_l) == (0, 4, 6)

    def test_unscented_no_linear_points(self):
        cr = classify(unscented_rule(3, 1.0, 2.0), 3)
        assert (cr.n_c, cr.n_z, cr.n_l) == (1, 6, 0)

    def test_gauss_hermite_2d(self):
        cr = classify(gauss_hermite_rule(2, 3), 1)
        assert (cr.n_c, cr.n_z, cr.n_l) == (1, 6, 2)

    @pytest.mark.parametrize(
        "rule,z",
        [
            (spherical_rule(6), 2),
            (unscented_rule(5, 1.0, 2.0), 3),
            (gauss_hermite_rule(3, 3), 2),
            (gauss_hermite_rule(4, 2), 1),
        ],
        ids=["sc", "ut", "gh3", "gh2"],
    )
    def test_partition_recovers_rule(self, rule, z):
        cr = classify(rule, z)
        assert cr.n_c + cr.n_z + cr.n_l == rule.count
        assert [w.size for w, _ in subsets(cr)] == [cr.n_c, cr.n_z, cr.n_l]
        original = sorted(
            (rule.weights[j], tuple(rule.points[:, j])) for j in range(rule.count)
        )
        assert reassembled_pairs(cr) == original

    @pytest.mark.parametrize(
        "rule,z",
        [
            (spherical_rule(6), 2),
            (unscented_rule(5, 1.0, 2.0), 3),
            (gauss_hermite_rule(3, 3), 2),
        ],
        ids=["sc", "ut", "gh"],
    )
    def test_pairing_and_subsets(self, rule, z):
        cr = classify(rule, z)
        (w_c, xi_c), (w_z, xi_z), (w_l, xi_l) = subsets(cr)
        # central points are exactly zero
        assert not xi_c.any()
        # linear points vanish in the leading block but not overall
        if cr.n_l:
            assert not xi_l[:z].any()
            assert all(xi_l[:, j].any() for j in range(cr.n_l))
        # nonlinear points perturb the leading block
        assert all(xi_z[:z, j].any() for j in range(cr.n_z))
        # the linear subset is closed under exact negation, weights included
        assert np.array_equal(sorted_columns(w_l, xi_l), sorted_columns(w_l, -xi_l + 0.0))

    def test_w_cl(self):
        for rule, z in [(spherical_rule(5), 2), (unscented_rule(4, 1.0, 2.0), 2)]:
            cr = classify(rule, z)
            (w_c, _), _, (w_l, _) = subsets(cr)
            assert abs(cr.w_cl - (w_c.sum() + w_l.sum())) <= 1e-12

    def test_unpaired_linear_point_rejected(self):
        rule = spherical_rule(3)
        pts = rule.points.copy()
        pts[2, 2] *= 2.0  # a linear point for z = 1 loses its mirrored twin
        broken = CubatureRule(dim=3, weights=rule.weights.copy(), points=pts, kind=rule.kind)
        with pytest.raises(ValueError):
            classify(broken, 1)

    def test_zero_weight_central_point_kept(self):
        # alpha^2 (x + kappa) = x makes lambda exactly 0
        rule = unscented_rule(4, 0.5, 12.0)
        assert rule.weights[0] == 0.0
        cr = classify(rule, 2)
        assert cr.n_c == 1
        assert rule.count == 9

    def test_z_out_of_range(self):
        with pytest.raises(ValueError):
            classify(spherical_rule(3), 0)
        with pytest.raises(ValueError):
            classify(spherical_rule(3), 4)

    def test_deterministic(self):
        a = classify(gauss_hermite_rule(3, 3), 2)
        b = classify(gauss_hermite_rule(3, 3), 2)
        assert np.array_equal(a.unique.points, b.unique.points)
        assert np.array_equal(a.unique.weights, b.unique.weights)


class TestGroupingPrecondition:
    """``classify`` accepts exactly the rules on which merging the points
    that share a leading block keeps the structured sums exact."""

    @staticmethod
    def roadmap_rule():
        # point symmetric with unit weight sum and second moment, yet the
        # z-group at 1 has trailing sum sqrt(1.5)/6
        s = np.sqrt(1.5)
        half = np.array([[1.0, 1.0, 2.0], [s, 0.0, -2.0 * s]])
        points = np.hstack((np.zeros((2, 1)), half, -half + 0.0))
        weights = np.array([1 / 4] + [1 / 6, 1 / 6, 1 / 24] * 2)
        return CubatureRule(dim=2, weights=weights, points=points, kind=RuleKind("sc"))

    @staticmethod
    def asymmetric_rule():
        # 1-D points (-2, 0, 1) tensored with the 3-point Gauss-Hermite rule:
        # no point has a mirrored twin, but every z-group is symmetric in its
        # trailing coordinate and the weighted z-blocks sum to zero
        roots, w1 = hermite_1d(3)
        lead = np.array([-2.0, 0.0, 1.0])
        w_lead = np.array([1 / 6, 1 / 2, 1 / 3])
        points = np.vstack((np.repeat(lead, 3), np.tile(roots, 3)))
        weights = np.outer(w_lead, w1).ravel()
        return CubatureRule(dim=2, weights=weights, points=points, kind=RuleKind("sc"))

    def test_symmetric_rule_with_asymmetric_groups_refused(self):
        rule = self.roadmap_rule()
        w_dev, m_dev, symmetric = rule_checks(rule)
        assert w_dev <= 1e-15 and m_dev <= 1e-15 and symmetric
        with pytest.raises(ValueError, match="grouping precondition"):
            classify(rule, 1)

    def test_asymmetric_rule_meeting_precondition_matches_full(self, rng):
        rule = self.asymmetric_rule()
        cr = classify(rule, 1)
        assert (cr.n_c, cr.n_z, cr.n_l) == (1, 6, 2)
        assert cr.unique.points.tolist() == [[-2.0, 1.0]]
        plf = PartiallyLinearFunction(
            z_dim=1,
            x_dim=2,
            g=lambda v: np.sin(3.0 * v),
            g_dim=1,
            a=rng.standard_normal((2, 2)),
        )
        for _ in range(5):
            m = rng.standard_normal(2)
            p = random_spd(rng, 2)
            jf = match_full(plf, m, p, rule)
            jp = match_pl(plf, m, p, cr)
            for block in ("m_y", "p_xy", "p_yy"):
                assert np.abs(getattr(jf, block) - getattr(jp, block)).max() <= 1e-12

    @staticmethod
    def scaled_rule(weight_scale, point_scale):
        base = spherical_rule(5)
        return CubatureRule(
            dim=5,
            weights=weight_scale * base.weights,
            points=point_scale * base.points,
            kind=base.kind,
        )

    @pytest.mark.parametrize(
        "weight_scale, point_scale",
        [(0.5, np.sqrt(2.0)), (1.0, 1.1)],
        ids=["half-weights", "scaled-points"],
    )
    def test_non_unit_moments_refused(self, weight_scale, point_scale):
        # symmetric and grouped correctly, but the weight sum (0.5) or the
        # second moment (1.21 I) is off, which the closed-form linear sums
        # of match_pl cannot see
        with pytest.raises(ValueError, match="moment precondition"):
            classify(self.scaled_rule(weight_scale, point_scale), 2)

    RULES = {
        "sc-1": lambda: spherical_rule(1),
        "sc-40": lambda: spherical_rule(40),
        "ut-13": lambda: unscented_rule(13, 1.0, 2.0),
        "ut-13-negative-centre": lambda: unscented_rule(13, 0.5, 3.0),
        "gh3-4": lambda: gauss_hermite_rule(4, 3),
        "roadmap": lambda: TestGroupingPrecondition.roadmap_rule(),
        "asymmetric": lambda: TestGroupingPrecondition.asymmetric_rule(),
        "half-weights": lambda: TestGroupingPrecondition.scaled_rule(0.5, np.sqrt(2.0)),
        "scaled-points": lambda: TestGroupingPrecondition.scaled_rule(1.0, 1.1),
    }

    @pytest.mark.parametrize("name", list(RULES))
    def test_moment_deviations_match_dense_product(self, name):
        # the check reads the rule's cross form; it agrees with the dense
        # Xi W Xi^T to roundoff on paired and unpaired points alike
        rule = self.RULES[name]()
        w, pts = rule.weights, rule.points
        second = (pts * w) @ pts.T
        dense = (abs(float(w.sum()) - 1.0), float(np.abs(second - np.eye(rule.dim)).max()))
        assert np.abs(np.subtract(rule.moment_deviations, dense)).max() <= 1e-15

    @pytest.mark.parametrize(
        "rule, builds_form",
        [(spherical_rule(8), True), (unscented_rule(8, 1.0, 2.0), True), (gauss_hermite_rule(4, 3), False)],
        ids=["sc", "ut", "gh3"],
    )
    def test_moment_check_builds_cross_form_only_for_small_rules(self, rule, builds_form):
        # a grid larger than 2 dim + 1 points keeps no weighted copy of its
        # points after it is classified; the spherical and unscented rules
        # share the form with the sums
        classify(rule, 2)
        assert ("_cross_form" in vars(rule)) == builds_form

    def test_moments_computed_once_per_rule(self, monkeypatch):
        # fusion_model classifies one rule for two values of z; the X x X
        # second-moment product behind the moment check is formed once
        calls = []
        prop = CubatureRule.moment_deviations
        compute = prop.func
        monkeypatch.setattr(prop, "func", lambda rule: calls.append(1) or compute(rule))
        rule = spherical_rule(6)
        classify(rule, 1)
        classify(rule, 3)
        assert rule_checks(rule)[:2] == rule.moment_deviations
        assert len(calls) == 1

    def test_unique_blocks_in_lexicographic_order(self):
        uq = classify(gauss_hermite_rule(4, 3), 2).unique
        keys = [tuple(uq.points[:, j]) for j in range(uq.count)]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("field", ["weights", "points"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rule_refused(self, field, bad):
        rule = spherical_rule(3)
        arrays = {"weights": rule.weights.copy(), "points": rule.points.copy()}
        arrays[field].flat[1] = bad
        with pytest.raises(ValueError, match="finite"):
            CubatureRule(dim=3, kind=rule.kind, **arrays)

    def test_empty_rule_refused(self):
        with pytest.raises(ValueError, match="at least one point"):
            CubatureRule(dim=2, weights=np.empty(0), points=np.empty((2, 0)), kind=RuleKind("sc"))


class TestUniqueNonlinear:
    def test_spherical_no_duplicates(self):
        cr = classify(spherical_rule(5), 2)
        uq = unique_nonlinear(cr)
        assert uq.count == 4
        _, (w_z, _), _ = subsets(cr)
        assert np.array_equal(np.sort(uq.weights), np.sort(w_z))

    def test_unscented_no_duplicates(self):
        rule = unscented_rule(4, 1.0, 2.0)
        cr = classify(rule, 2)
        uq = unique_nonlinear(cr)
        lam = 1.0**2 * (4 + 2.0) - 4
        assert uq.count == 4
        assert np.allclose(uq.weights, 1.0 / (2.0 * (lam + 4)))

    def test_gauss_hermite_merging(self):
        cr = classify(gauss_hermite_rule(2, 3), 1)
        uq = unique_nonlinear(cr)
        assert uq.count == 2
        assert np.allclose(np.sort(uq.points[0]), [-np.sqrt(3.0), np.sqrt(3.0)], atol=1e-14)
        # merged weight: sum of the three grid weights sharing the block
        _, w1 = hermite_1d(3)
        assert np.allclose(uq.weights, w1[0] * w1.sum())

    @pytest.mark.parametrize(
        "rule,z",
        [
            (gauss_hermite_rule(3, 3), 2),
            (gauss_hermite_rule(4, 2), 2),
            (spherical_rule(7), 3),
            (unscented_rule(6, 1.0, 2.0), 2),
        ],
        ids=["gh33", "gh42", "sc", "ut"],
    )
    def test_brute_force_grouping(self, rule, z):
        cr = classify(rule, z)
        uq = unique_nonlinear(cr)
        # independent grouping of the nonlinear points by leading block
        _, (w_z, xi_z), _ = subsets(cr)
        groups = {}
        for j in range(cr.n_z):
            key = tuple(xi_z[:z, j])
            groups[key] = groups.get(key, 0.0) + w_z[j]
        assert uq.count == len(groups)
        assert len({tuple(uq.points[:, j]) for j in range(uq.count)}) == uq.count
        for j in range(uq.count):
            key = tuple(uq.points[:, j])
            assert uq.weights[j] == pytest.approx(groups[key], abs=1e-12)
        assert uq.weights.sum() == pytest.approx(w_z.sum(), abs=1e-12)

    @pytest.mark.parametrize(
        "p,x,z", [(2, 4, 2), (3, 4, 2), (3, 5, 3), (2, 5, 1)]
    )
    def test_expected_counts_gh(self, p, x, z):
        cr = classify(gauss_hermite_rule(x, p), z)
        uq = unique_nonlinear(cr)
        zero_blocks = 1 if p % 2 == 1 else 0
        assert uq.count == p**z - zero_blocks

    def test_cached(self):
        cr = classify(spherical_rule(4), 2)
        assert unique_nonlinear(cr) is unique_nonlinear(cr)

    @pytest.mark.parametrize("virtual", [False, True], ids=["materialized", "virtual"])
    def test_is_a_read_only_rule_of_dimension_z(self, virtual):
        kind = RuleKind("gh", order=3)
        cr = make_classified(kind, 5, 2, point_budget=10 if virtual else 3**5)
        assert (cr.base is not None) is not virtual
        uq = cr.unique
        assert isinstance(uq, CubatureRule)
        assert uq.dim == 2 and uq.kind == kind
        assert uq.points.shape == (2, uq.count)
        for arr in (uq.points, uq.weights):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1.0


class TestVirtualClassified:
    def test_matches_materialized(self):
        kind = RuleKind("gh", order=3)
        real = classify(gauss_hermite_rule(5, 3), 2)
        virt = make_classified(kind, 5, 2, point_budget=10)  # forces virtual form
        assert virt.base is None
        assert virt.count == real.count
        assert (virt.n_c, virt.n_z, virt.n_l) == (real.n_c, real.n_z, real.n_l)
        assert virt.w_cl == pytest.approx(real.w_cl, abs=1e-14)
        uq_real = unique_nonlinear(real)
        uq_virt = unique_nonlinear(virt)
        assert np.array_equal(uq_real.points, uq_virt.points)
        assert np.abs(uq_real.weights - uq_virt.weights).max() <= 1e-15

    def test_even_order_has_no_central_weight(self):
        virt = make_classified(RuleKind("gh", order=2), 40, 3, point_budget=10)
        assert virt.w_cl == 0.0
        assert virt.n_c == 0 and virt.n_l == 0
        assert virt.count == 2**40

    def test_materialized_when_within_budget(self):
        cr = make_classified(RuleKind("gh", order=2), 3, 1)
        assert cr.base is not None

    def test_non_gh_kinds_always_materialize(self):
        cr = make_classified(RuleKind("sc"), 30, 2, point_budget=10)
        assert cr.base is not None


class TestSymmetryProperty:
    @pytest.mark.parametrize(
        "rule",
        [spherical_rule(9), unscented_rule(9, 1.0, 2.0), gauss_hermite_rule(3, 4)],
        ids=["sc", "ut", "gh"],
    )
    def test_sorted_negation_identical(self, rule):
        pts = rule.points
        nonzero = pts[:, pts.any(axis=0)]
        a = nonzero[:, np.lexsort(nonzero[::-1])]
        neg = -nonzero + 0.0
        b = neg[:, np.lexsort(neg[::-1])]
        assert np.abs(a - b).max() <= 1e-14
