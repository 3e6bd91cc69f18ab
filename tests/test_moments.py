"""Moment matching: full cubature sums versus the structured fast path."""
import numpy as np
import pytest

from plfilt import (
    BearingSensorParams,
    CubatureRule,
    PartiallyLinearFunction,
    RuleKind,
    SingerParams,
    benchmark_function,
    classify,
    fusion_model,
    gauss_hermite_rule,
    hermite_1d,
    make_classified,
    make_rule,
    match_full,
    match_pl,
    spherical_rule,
    cholesky_full,
    cholesky_partial,
    unscented_rule,
)
from plfilt.linalg import _gathered_rows
from conftest import random_spd

RULES = {
    "sc": RuleKind("sc"),
    "ut_1_2": RuleKind("ut", alpha=1.0, kappa=2.0),
    "ut_05_3": RuleKind("ut", alpha=0.5, kappa=3.0),
    "gh2": RuleKind("gh", order=2),
    "gh3": RuleKind("gh", order=3),
}
BLOCKS = ("m_x", "m_y", "p_xx", "p_xy", "p_yy")


def trial_moments(rng, x):
    m = rng.standard_normal(x)
    p = random_spd(rng, x)
    return m, p


def linear_plf(z, l, a_mat):
    """Whole function linear: g passes the z block through."""
    x = z + l
    return PartiallyLinearFunction(
        z_dim=z, x_dim=x, g=lambda v: v.copy(), g_dim=z, a=a_mat
    )


class TestMatchFull:
    @pytest.mark.parametrize("kind", ["sc", "ut_1_2", "gh3"])
    def test_identity_function(self, rng, kind):
        x = 4
        rule = make_rule(RULES[kind], x)
        m, p = trial_moments(rng, x)
        joint = match_full(lambda v: v, m, p, rule)
        assert np.abs(joint.m_y - m).max() <= 1e-12 * (1 + np.abs(m).max())
        assert np.abs(joint.p_xy - p).max() <= 1e-12 * (1 + np.abs(p).max())
        assert np.abs(joint.p_yy - p).max() <= 1e-12 * (1 + np.abs(p).max())

    @pytest.mark.parametrize("kind", ["sc", "ut_1_2", "gh2"])
    def test_linear_function(self, rng, kind):
        # exact linear-Gaussian propagation oracle
        x, y = 5, 3
        b = rng.standard_normal((y, x))
        rule = make_rule(RULES[kind], x)
        m, p = trial_moments(rng, x)
        joint = match_full(lambda v: b @ v, m, p, rule)
        scale = 1 + np.abs(p).max()
        assert np.abs(joint.m_y - b @ m).max() <= 1e-10 * scale
        assert np.abs(joint.p_xy - p @ b.T).max() <= 1e-10 * scale
        assert np.abs(joint.p_yy - b @ p @ b.T).max() <= 1e-10 * scale

    def test_square_scalar_gh3(self):
        # E[x^2] = 1 and Var(x^2) = 2 for x ~ N(0,1); order 3 integrates
        # the degree-4 monomials exactly
        rule = gauss_hermite_rule(1, 3)
        joint = match_full(lambda v: v * v, np.zeros(1), np.eye(1), rule)
        assert joint.m_y[0] == pytest.approx(1.0, abs=1e-12)
        assert joint.p_yy[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_f_called_once_on_the_point_matrix(self, rng):
        x = 3
        rule = spherical_rule(x)
        m, p = trial_moments(rng, x)
        calls = []
        match_full(lambda v: (calls.append(v.copy()), v)[1], m, p, rule)
        assert len(calls) == 1
        l = np.linalg.cholesky(p)
        assert calls[0].shape == (x, rule.count)
        assert np.abs(calls[0] - (m[:, None] + l @ rule.points)).max() <= 1e-12

    @pytest.mark.parametrize(
        "f", [lambda v: v[:, :-1], lambda v: v[0], lambda v: v.sum()], ids=["n-1", "1d", "scalar"]
    )
    def test_wrong_column_count_refused(self, f):
        with pytest.raises(ValueError, match="column-wise"):
            match_full(f, np.zeros(3), np.eye(3), spherical_rule(3))

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            match_full(lambda v: v, np.zeros(3), np.eye(3), spherical_rule(4))


class TestPartiallyLinearFunction:
    def test_counter(self, rng):
        plf = benchmark_function(2, 3, 1)
        assert plf.g_eval_count == 0
        plf(np.arange(5.0)[:, None])
        assert plf.g_eval_count == 1
        plf.eval_g_batch(rng.standard_normal((2, 7)))
        assert plf.g_eval_count == 8
        plf.reset_g_eval_count()
        assert plf.g_eval_count == 0

    def test_batch_matches_loop(self, rng):
        # oracle per column: y = [v + ||v||^2 1; A x] with v = x[:z]
        z = 3
        plf = benchmark_function(z, 4, 2)
        xmat = rng.standard_normal((7, 5))
        batch = plf(xmat)
        for j in range(5):
            x = xmat[:, j]
            v = x[:z]
            ref = np.concatenate((v + np.dot(v, v), plf.a @ x))
            assert np.abs(batch[:, j] - ref).max() <= 1e-14
            assert np.abs(plf(x[:, None])[:, 0] - ref).max() <= 1e-14

    def test_single_point_g_refused(self, rng):
        # g must map a (z_dim, n) matrix column-wise; a g written for one
        # point returns the wrong shape and is refused, not looped over
        plf = PartiallyLinearFunction(
            z_dim=2, x_dim=3, g=lambda v: np.array([v.sum()]), g_dim=1, a=np.eye(3)
        )
        with pytest.raises(ValueError, match=r"expected \(1, 4\)"):
            plf.eval_g_batch(rng.standard_normal((2, 4)))
        with pytest.raises(ValueError, match=r"expected \(1, 1\)"):
            plf(np.ones(3)[:, None])
        with pytest.raises(ValueError, match="matrix of points"):
            plf(np.ones(3))  # a single point is one column, not a vector
        with pytest.raises(ValueError, match="column-wise"):
            match_pl(plf, np.zeros(3), np.eye(3), classify(spherical_rule(3), 2))

    def test_benchmark_values(self):
        plf = benchmark_function(2, 3, 0)
        assert np.array_equal(plf(np.zeros(5)[:, None])[:2, 0], np.zeros(2))
        out = plf.eval_g_batch(np.array([[1.0], [2.0]]))
        assert np.array_equal(out, [[6.0], [7.0]])

    def test_seed_determinism(self):
        a1 = benchmark_function(3, 10, 77).a
        a2 = benchmark_function(3, 10, 77).a
        assert np.array_equal(a1, a2)

    @pytest.mark.parametrize("name", ["a", "a1"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_map_refused(self, name, bad):
        # the exact forms of [A1; A] agree only on finite maps: a dense
        # product turns 0 * inf into NaN where a row gather would not
        maps = {"a": np.eye(3), "a1": np.zeros((1, 3))}
        maps[name][0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            PartiallyLinearFunction(z_dim=1, x_dim=3, g=lambda z: z, g_dim=1, **maps)

    def test_validation(self):
        with pytest.raises(ValueError):
            PartiallyLinearFunction(z_dim=0, x_dim=3, g=lambda z: z, g_dim=1, a=np.zeros((1, 3)))
        with pytest.raises(ValueError):
            PartiallyLinearFunction(z_dim=1, x_dim=3, g=lambda z: z, g_dim=1, a=np.zeros((1, 4)))
        with pytest.raises(ValueError):
            PartiallyLinearFunction(
                z_dim=1, x_dim=3, g=lambda z: z, g_dim=2, a=np.zeros((1, 3)), a1=np.zeros((1, 3))
            )


def _form(plf):
    """Which exact form ``plf`` applies its linear rows ``[A1; A]`` in."""
    func = plf._apply.func
    return {_gathered_rows: "gather", np.matmul: "dense"}.get(func, func.__name__)


def _sin_plf(a, z=2):
    x = a.shape[1]
    return PartiallyLinearFunction(z_dim=z, x_dim=x, g=np.sin, g_dim=z, a=a)


def _stub_plf(rng):
    """The flow stub's shape: two unequal 3x3 diagonal blocks with the (0,0)
    entry moved into a scalar ``g`` and row 0 kept as ``A1``."""
    stacked = np.kron(np.eye(2), rng.standard_normal((3, 3)))
    stacked[3:, 3:] = rng.standard_normal((3, 3))
    a11 = stacked[0, 0]
    stacked[0, 0] = 0.0
    return PartiallyLinearFunction(
        z_dim=1, x_dim=6, g=lambda v: a11 * v, g_dim=1, a=stacked[1:], a1=stacked[:1]
    )


def _with_entry(a, i, j, value):
    a = a.copy()
    a[i, j] = value
    return a


_PAIR_SWAP = np.eye(6)[[1, 0, 3, 2, 5, 4]]
_PAIR_BLOCKS = np.kron(np.eye(3), [[1.0, 2.0], [3.0, 4.0]])
_SHUFFLE = np.eye(6)[[2, 0, 5, 1, 3, 4]]  # row 3 is e_1


class TestLinearForms:
    """``PartiallyLinearFunction`` picks one exact form for ``[A1; A]``."""

    CASES = {
        "permutation": (lambda rng: _sin_plf(np.eye(6)[[3, 0, 5, 1, 4, 2]]), "gather"),
        "row-selection": (lambda rng: _sin_plf(np.eye(6)[[4, 1, 4, 0]]), "gather"),
        "unequal-blocks": (_stub_plf, "_block_diagonal"),
        "dense": (lambda rng: _sin_plf(rng.standard_normal((4, 6))), "dense"),
        # near-misses of the two cheap forms
        "entry-2": (lambda rng: _sin_plf(_with_entry(_PAIR_SWAP, 2, 3, 2.0)), "_block_diagonal"),
        "entry-minus-1": (
            lambda rng: _sin_plf(_with_entry(_PAIR_SWAP, 2, 3, -1.0)), "_block_diagonal"
        ),
        "off-block": (lambda rng: _sin_plf(_with_entry(_PAIR_BLOCKS, 1, 2, 0.5)), "dense"),
        "zero-row": (lambda rng: _sin_plf(_with_entry(_SHUFFLE, 3, 1, 0.0)), "dense"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_form_and_values(self, rng, case):
        build, form = self.CASES[case]
        plf = build(rng)
        assert _form(plf) == form
        xmat = rng.standard_normal((plf.x_dim, 5))
        gz = plf.eval_g_batch(xmat[: plf.z_dim])
        if plf.a1 is not None:
            gz = gz + plf.a1 @ xmat
        ref = np.vstack((gz, plf.a @ xmat))
        batch = plf(xmat)
        assert batch.shape == ref.shape
        assert np.abs(batch - ref).max() <= 1e-14 * (1 + np.abs(ref).max())
        single = plf(xmat[:, 2, None])[:, 0]
        assert np.abs(single - ref[:, 2]).max() <= 1e-14 * (1 + np.abs(ref).max())

    @pytest.mark.parametrize("case", list(CASES))
    def test_match_pl_equals_match_full(self, rng, case):
        plf = self.CASES[case][0](rng)
        rule = spherical_rule(plf.x_dim)
        cr = classify(rule, plf.z_dim)
        for _ in range(5):
            m, p = trial_moments(rng, plf.x_dim)
            jf = match_full(plf, m, p, rule)
            jp = match_pl(plf, m, p, cr)
            for block in BLOCKS:
                a_blk = getattr(jf, block)
                assert np.abs(a_blk - getattr(jp, block)).max() <= 1e-10 * (
                    1 + np.abs(a_blk).max()
                ), (case, block)

    def test_form_kept_in_step_with_the_map(self, rng):
        # the form is picked once, so the map it came from must not change:
        # the function keeps a read-only copy of the caller's matrix
        a = np.eye(6)[[3, 0, 5, 1, 4, 2]]
        plf = _sin_plf(a)
        x = rng.standard_normal((6, 1))
        before = plf(x)
        a[0] = 5.0
        assert np.array_equal(plf(x), before)
        with pytest.raises(ValueError, match="read-only"):
            plf.a[0, 0] = 5.0

    def test_fusion_model_forms(self):
        model = fusion_model(SingerParams(agents=3), BearingSensorParams())
        assert _form(model.flow) == "_block_diagonal"
        assert _form(model.measurement) == "gather"


def _pl_set(rule, z):
    return classify(rule, z)._zero_and_unique


def _asymmetric_rule():
    """A user-built rule of dimension 3 with ``kind`` "sc" whose points have
    no mirrored twins: 1-D points (-2, 0, 1) tensored with the 3-point
    Gauss-Hermite rule in two trailing coordinates."""
    roots, w1 = hermite_1d(3)
    lead, w_lead = np.array([-2.0, 0.0, 1.0]), np.array([1 / 6, 1 / 2, 1 / 3])
    points = np.stack(np.meshgrid(lead, roots, roots, indexing="ij")).reshape(3, 27)
    weights = np.multiply.outer(np.multiply.outer(w_lead, w1), w1).ravel()
    return CubatureRule(dim=3, weights=weights, points=points, kind=RuleKind("sc"))


# bound on the relative gap between match_full's p_xy and p_yy and the dense
# sums; the cases below measure at most 1e-14 over 200 trials each
DENSE_SUMS_RTOL = 1e-12


class TestPointForms:
    """Each rule picks one exact form for ``L -> L @ points``: a column
    gather and a scale when every point has at most one nonzero coordinate,
    the dense product otherwise.  Its forms for the output and cross
    covariance sums come from its points and weights too, never from its
    kind."""

    X = 60
    CASES = {
        "sc-27": (lambda: spherical_rule(27), "_scaled_columns"),
        "sc-60": (lambda: spherical_rule(60), "_scaled_columns"),
        "ut-27": (lambda: unscented_rule(27, 1.0, 2.0), "_scaled_columns"),
        "ut-60": (lambda: unscented_rule(60, 0.5, 3.0), "_scaled_columns"),
        # centre weight lambda / (lambda + X) = -19.5 / 7.5 = -2.6
        "ut-27-neg": (lambda: unscented_rule(27, 0.5, 3.0), "_scaled_columns"),
        "gh3": (lambda: gauss_hermite_rule(3, 3), "_matmul_right"),
        "asymmetric": (_asymmetric_rule, "_matmul_right"),
        # match_pl's set: a zero column, then the grouped nonlinear points
        "pl-sc-60-20": (lambda: _pl_set(spherical_rule(60), 20), "_scaled_columns"),
        "pl-sc-60-50": (lambda: _pl_set(spherical_rule(60), 50), "_scaled_columns"),
        "pl-ut-60-50": (lambda: _pl_set(unscented_rule(60, 1.0, 2.0), 50), "_scaled_columns"),
        "pl-gh3-4-2": (lambda: _pl_set(gauss_hermite_rule(4, 3), 2), "_matmul_right"),
    }
    FULL = [case for case in CASES if not case.startswith("pl-")]

    @pytest.mark.parametrize("case", list(CASES))
    def test_form_equals_dense_product(self, rng, case):
        build, name = self.CASES[case]
        rule = build()
        assert rule._point_form.func.__name__ == name
        assert rule._point_form is rule._point_form  # picked once, cached on the rule
        # a factor's leading columns, exact zeros above the diagonal included
        x = self.X if case.startswith("pl-") else rule.dim
        l = cholesky_partial(random_spd(rng, x), rule.dim).column_block()
        out = rule._point_form(l)
        assert np.array_equal(out, l @ rule.points)
        assert out.flags.c_contiguous

    @pytest.mark.parametrize("case", FULL)
    def test_match_full_bit_identical_to_dense(self, rng, case):
        """``m_y`` is the dense sum bit for bit.  ``p_xy``, a unit-space
        product, and ``p_yy``, rank-k updates, agree with the dense sums
        within :data:`DENSE_SUMS_RTOL`, and ``p_yy`` is exactly symmetric."""
        rule = self.CASES[case][0]()
        if case == "ut-27-neg":
            assert rule.weights[0] == pytest.approx(-2.6, rel=1e-12)
        plf = benchmark_function(2, rule.dim - 2, 3)
        for _ in range(3):
            m, p = trial_moments(rng, rule.dim)
            jt = match_full(plf, m, p, rule)
            dx = cholesky_full(p) @ rule.points
            ypts = plf(m[:, None] + dx)
            w = rule.weights
            m_y = ypts @ w
            dy = ypts - m_y[:, None]
            assert np.array_equal(jt.m_y, m_y)
            for got, dense in ((jt.p_xy, (dx * w) @ dy.T), (jt.p_yy, (dy * w) @ dy.T)):
                assert np.abs(got - dense).max() <= DENSE_SUMS_RTOL * np.abs(dense).max()
            assert np.array_equal(jt.p_yy, jt.p_yy.T)

    @pytest.mark.parametrize(
        "case, cross",
        [
            ("sc-27", "_paired_columns"),
            ("ut-27-neg", "_paired_columns"),
            ("gh3", "_matmul_right"),
            ("asymmetric", "_matmul_right"),
            # match_pl's sets: the sc/ut pairs' plus rows run downwards
            ("pl-sc-60-20", "_paired_columns"),
            ("pl-sc-60-50", "_paired_columns"),
            ("pl-ut-60-50", "_paired_columns"),
            ("pl-gh3-4-2", "_matmul_right"),
        ],
    )
    def test_sum_forms_follow_the_points(self, rng, case, cross):
        """The cross form pairs the columns only where the weighted points
        pair as ``±c eₖ``, whatever the rule's kind; both forms are set up
        once per rule and agree with the dense sums."""
        rule = self.CASES[case][0]()
        assert rule._cross_form.func.__name__ == cross
        assert rule._cross_form is rule._cross_form
        assert rule._gram_form is rule._gram_form
        d = rng.standard_normal((7, rule.count))
        w = rule.weights
        dense = (d * w) @ d.T
        gram = rule._gram_form(d)
        assert np.array_equal(gram, gram.T)
        assert np.abs(gram - dense).max() <= DENSE_SUMS_RTOL * np.abs(dense).max()
        dense = (d * w) @ rule.points.T
        assert np.abs(rule._cross_form(d) - dense).max() <= DENSE_SUMS_RTOL * np.abs(dense).max()

    @pytest.mark.parametrize("kind", ["sc", "ut_05_3"])
    def test_pl_set_built_once(self, kind):
        cr = classify(make_rule(RULES[kind], 12), 4)
        pts = cr._zero_and_unique
        assert pts is cr._zero_and_unique
        assert not pts.points[:, 0].any() and pts.weights[0] == cr.w_cl
        assert np.array_equal(pts.points[:, 1:], cr.unique.points)
        assert np.array_equal(pts.weights[1:], cr.unique.weights)


def _symmetry_plf(rng, form, with_a1):
    """A z=2, X=6 function whose stacked ``[A1; A]`` takes ``form``."""
    if form == "gather":
        stacked = np.eye(6)[[4, 2, 3, 0, 5, 1]]
    elif form == "_block_diagonal":
        stacked = np.kron(np.eye(3), rng.standard_normal((2, 2)))
    else:
        stacked = rng.standard_normal((6, 6))
    a1, a = (stacked[:2], stacked[2:]) if with_a1 else (None, stacked)
    return PartiallyLinearFunction(
        z_dim=2, x_dim=6, g=lambda v: np.sin(v) + v[::-1] ** 2, g_dim=2, a=a, a1=a1
    )


class TestExactSymmetry:
    """Both matchers return an exactly symmetric ``p_yy``."""

    @pytest.mark.parametrize("rule_name", ["sc", "ut_05_3"])
    @pytest.mark.parametrize("with_a1", [False, True], ids=["no-a1", "a1"])
    @pytest.mark.parametrize("form", ["gather", "_block_diagonal", "dense"])
    def test_pyy_exactly_symmetric(self, rng, form, with_a1, rule_name):
        plf = _symmetry_plf(rng, form, with_a1)
        assert _form(plf) == form
        rule = make_rule(RULES[rule_name], 6)
        if rule_name == "ut_05_3":
            assert rule.weights.min() < 0.0  # a negative central weight
        cr = classify(rule, 2)
        for _ in range(5):
            m, p = trial_moments(rng, 6)
            for joint in (match_full(plf, m, p, rule), match_pl(plf, m, p, cr)):
                assert np.array_equal(joint.p_yy, joint.p_yy.T)


class TestMatchPl:
    def test_whole_function_linear(self, rng):
        # g = identity on z, A = [0 I]: output is a permutation-free linear map
        z, l = 2, 3
        x = z + l
        a_mat = np.hstack((np.zeros((l, z)), np.eye(l)))
        plf = linear_plf(z, l, a_mat)
        b_full = np.vstack((np.hstack((np.eye(z), np.zeros((z, l)))), a_mat))
        cr = classify(spherical_rule(x), z)
        m, p = trial_moments(rng, x)
        joint = match_pl(plf, m, p, cr)
        scale = 1 + np.abs(p).max()
        assert np.abs(joint.m_y - b_full @ m).max() <= 1e-10 * scale
        assert np.abs(joint.p_xy - p @ b_full.T).max() <= 1e-10 * scale
        assert np.abs(joint.p_yy - b_full @ p @ b_full.T).max() <= 1e-10 * scale

    @pytest.mark.parametrize("kind", list(RULES))
    @pytest.mark.parametrize("dims", [(1, 1), (2, 3), (3, 5), (3, 10)])
    def test_oracle_equivalence_sweep(self, kind, dims):
        z, l = dims
        x = z + l
        plf = benchmark_function(z, l, 1000 + 10 * z + l)
        rule = make_rule(RULES[kind], x)
        cr = classify(rule, z)
        # fewer trials where the full grid is huge (gh order 3 at X=13)
        trials = 50 if rule.count <= 100_000 else 8
        for trial in range(trials):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(5, z, l, trial)))
            m, p = trial_moments(rng, x)
            jf = match_full(plf, m, p, rule)
            jp = match_pl(plf, m, p, cr)
            for block in BLOCKS:
                a_blk = getattr(jf, block)
                b_blk = getattr(jp, block)
                tol = 1e-9 * (1.0 + np.abs(a_blk).max())
                assert np.abs(a_blk - b_blk).max() <= tol, (kind, dims, block)

    @pytest.mark.parametrize("kind", ["sc", "ut_05_3", "gh3"])
    @pytest.mark.parametrize("dims", [(1, 4), (2, 3), (3, 5)])
    def test_g_block_is_match_full_on_the_reduced_rule(self, rng, kind, dims):
        """The ``g`` block is the plain sums on the ``z``-dimensional rule of
        the zero point and the grouped nonlinear points, through the
        z-block's own factor: mean and covariance bit for bit, and the
        cross covariance's leading rows to roundoff (the product with all
        ``X`` rows of the factor may round them otherwise)."""
        z, l = dims
        plf = benchmark_function(z, l, 3000 + 10 * z + l)
        cr = classify(make_rule(RULES[kind], z + l), z)
        g = plf.g_dim
        for _ in range(5):
            m, p = trial_moments(rng, z + l)
            jp = match_pl(plf, m, p, cr)
            jf = match_full(plf.eval_g_batch, m[:z], p[:z, :z], cr._zero_and_unique)
            assert np.array_equal(jp.m_y[:g], jf.m_y)
            assert np.array_equal(jp.p_yy[:g, :g], jf.p_yy)
            assert np.abs(jp.p_xy[:z, :g] - jf.p_xy).max() <= 1e-15 * np.abs(jf.p_xy).max()

    @pytest.mark.parametrize("kind", ["sc", "ut_1_2", "gh2", "gh3"])
    def test_pyy_near_positive_semidefinite(self, kind):
        # holds for rules with nonnegative weights; a negative central weight
        # (e.g. ut alpha=0.5, kappa=3 at larger X) can make the matched
        # covariance indefinite for strongly nonlinear functions, identically
        # so for both code paths
        for z, l in [(1, 1), (2, 3), (3, 10)]:
            x = z + l
            plf = benchmark_function(z, l, 2000 + 10 * z + l)
            cr = classify(make_rule(RULES[kind], x), z)
            for trial in range(20):
                rng = np.random.default_rng(np.random.SeedSequence(entropy=(6, z, l, trial)))
                m, p = trial_moments(rng, x)
                jp = match_pl(plf, m, p, cr)
                eig_min = np.linalg.eigvalsh(jp.p_yy).min()
                assert eig_min >= -1e-10 * np.trace(jp.p_yy)

    def test_linear_block_exact(self, rng):
        z, l = 3, 6
        x = z + l
        plf = benchmark_function(z, l, 31)
        a_mat = plf.a
        cr = classify(spherical_rule(x), z)
        m, p = trial_moments(rng, x)
        joint = match_pl(plf, m, p, cr)
        # bottom of the mean is exactly A m
        assert np.array_equal(joint.m_y[z:], a_mat @ m)
        # bottom-right covariance block is A P A^T up to assembly roundoff
        ref = a_mat @ (0.5 * (p + p.T)) @ a_mat.T
        assert np.abs(joint.p_yy[z:, z:] - ref).max() <= 1e-13 * (1 + np.abs(ref).max())

    def test_eval_count_law(self, rng):
        cases = [
            ("sc", 2, 5, 1 + 2 * 2),
            ("sc", 3, 10, 1 + 2 * 3),
            ("ut_1_2", 2, 5, 1 + 2 * 2),
            ("ut_1_2", 3, 10, 1 + 2 * 3),
            ("gh2", 3, 4, 1 + 2**3),  # even order: no zero z-block
            ("gh3", 3, 4, 1 + 3**3 - 1),  # odd order: zero z-block merged out
            ("gh3", 2, 5, 1 + 3**2 - 1),
        ]
        for kind, z, l, expected in cases:
            x = z + l
            plf = benchmark_function(z, l, 3)
            rule = make_rule(RULES[kind], x)
            cr = classify(rule, z)
            m, p = trial_moments(rng, x)
            plf.reset_g_eval_count()
            match_pl(plf, m, p, cr)
            assert plf.g_eval_count == expected, (kind, z, l)
            plf.reset_g_eval_count()
            match_full(plf, m, p, rule)
            assert plf.g_eval_count == rule.count

    def test_virtual_rule_requires_unique(self, rng):
        virt = make_classified(RuleKind("gh", order=3), 8, 2, point_budget=10)
        plf = benchmark_function(2, 6, 4)
        m, p = trial_moments(rng, 8)
        joint = match_pl(plf, m, p, virt)
        real = match_pl(plf, m, p, classify(gauss_hermite_rule(8, 3), 2))
        assert np.abs(joint.p_yy - real.p_yy).max() <= 1e-12 * (1 + np.abs(real.p_yy).max())

    def test_z_dim_mismatch(self, rng):
        plf = benchmark_function(2, 3, 4)
        cr = classify(spherical_rule(5), 3)
        m, p = trial_moments(rng, 5)
        with pytest.raises(ValueError):
            match_pl(plf, m, p, cr)

    def test_accepts_pre_addition_form(self, rng):
        x = 4
        plf = PartiallyLinearFunction(
            z_dim=1, x_dim=x, g=lambda v: v, g_dim=1,
            a=rng.standard_normal((3, x)), a1=rng.standard_normal((1, x)),
        )
        rule = spherical_rule(x)
        m, p = trial_moments(rng, x)
        jp = match_pl(plf, m, p, classify(rule, 1))
        jf = match_full(plf, m, p, rule)
        for block in BLOCKS:
            a_blk = getattr(jf, block)
            assert np.abs(a_blk - getattr(jp, block)).max() <= 1e-10 * (1 + np.abs(a_blk).max())


def sin_pre_addition(rng, z, l):
    """``y = [A1 x + sin(z); A2 x]`` with random dense A1 and A2."""
    x = z + l
    return PartiallyLinearFunction(
        z_dim=z, x_dim=x, g=lambda v: np.sin(v), g_dim=z,
        a=rng.standard_normal((l, x)), a1=rng.standard_normal((z, x)),
    )


class TestMatchGeneral:
    """``match_pl`` on the general form ``y = [A1 x + g(z); A2 x]``."""

    def test_zero_pre_addition_collapses(self, rng):
        z, l = 2, 3
        x = z + l
        base = benchmark_function(z, l, 9)
        with_a1 = PartiallyLinearFunction(
            z_dim=z, x_dim=x, g=base._g, g_dim=z, a=base.a, a1=np.zeros((z, x)),
        )
        cr = classify(spherical_rule(x), z)
        m, p = trial_moments(rng, x)
        ja = match_pl(with_a1, m, p, cr)
        jb = match_pl(base, m, p, cr)
        for block in BLOCKS:
            assert np.abs(getattr(ja, block) - getattr(jb, block)).max() <= 1e-14 * (
                1 + np.abs(getattr(jb, block)).max()
            )

    def test_zero_g_is_exact_linear(self, rng):
        z, x = 2, 6
        a1 = rng.standard_normal((z, x))
        a2 = rng.standard_normal((3, x))
        plf = PartiallyLinearFunction(
            z_dim=z, x_dim=x, g=lambda v: np.zeros_like(v), g_dim=z, a=a2, a1=a1,
        )
        stacked = np.vstack((a1, a2))
        cr = classify(unscented_rule(x, 1.0, 2.0), z)
        m, p = trial_moments(rng, x)
        joint = match_pl(plf, m, p, cr)
        scale = 1 + np.abs(p).max()
        assert np.abs(joint.m_y - stacked @ m).max() <= 1e-10 * scale
        assert np.abs(joint.p_xy - p @ stacked.T).max() <= 1e-10 * scale
        assert np.abs(joint.p_yy - stacked @ p @ stacked.T).max() <= 1e-10 * scale

    def test_sin_structure_against_full(self, rng):
        z, l = 2, 3
        plf = sin_pre_addition(rng, z, l)
        rule = unscented_rule(z + l, 1.0, 2.0)
        m, p = trial_moments(rng, z + l)
        jp = match_pl(plf, m, p, classify(rule, z))
        jf = match_full(plf, m, p, rule)  # stacked form evaluated at every point
        for block in BLOCKS:
            a_blk = getattr(jf, block)
            assert np.abs(a_blk - getattr(jp, block)).max() <= 1e-10 * (1 + np.abs(a_blk).max())

    def test_gauss_hermite_materialized_and_virtual(self, rng):
        z, l = 2, 4
        x = z + l
        plf = sin_pre_addition(rng, z, l)
        kind = RuleKind("gh", order=3)
        rule = make_rule(kind, x)
        m, p = trial_moments(rng, x)
        jf = match_full(plf, m, p, rule)
        real = make_classified(kind, x, z)
        virt = make_classified(kind, x, z, point_budget=10)
        assert real.base is not None and virt.base is None
        for cr in (real, virt):
            jp = match_pl(plf, m, p, cr)
            for block in BLOCKS:
                a_blk = getattr(jf, block)
                assert np.abs(a_blk - getattr(jp, block)).max() <= 1e-10 * (
                    1 + np.abs(a_blk).max()
                )

    def test_counter_shared(self, rng):
        z, l = 2, 3
        plf = sin_pre_addition(rng, z, l)
        cr = classify(spherical_rule(z + l), z)
        m, p = trial_moments(rng, z + l)
        plf.reset_g_eval_count()
        match_pl(plf, m, p, cr)
        assert plf.g_eval_count == 1 + 2 * z
