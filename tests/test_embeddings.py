"""Inner quadrature rules and the v0 / v1 embedding estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import msip.targets
from msip.embeddings import (
    ESTIMATORS,
    estimate_embeddings,
    mc_inner_quadrature,
    one_point_rule,
)
from msip.errors import (
    AnalyticUnavailableError,
    EstimatorUnavailableError,
    NonFiniteDensityError,
)
from msip.kernel import omega
from msip.targets import (
    TargetDensity,
    gmm_v0,
    gmm_v0_and_shift,
    make_benchmark,
)


def constant_target(log_value, dim=1):
    """pi(x) = exp(log_value) everywhere, with zero score."""
    def logp(x):
        return np.full(x.shape[0], log_value)

    return TargetDensity(
        dim=dim,
        base_log_density=logp,
        base_log_density_and_score=lambda x: (logp(x), np.zeros_like(x)),
        name="flat",
    )


def std_normal_target():
    def logp(x):
        return -0.5 * (np.sum(x**2, axis=1) + math.log(2.0 * math.pi))

    return TargetDensity(
        dim=1,
        base_log_density=logp,
        base_log_density_and_score=lambda x: (logp(x), -x),
        name="std-normal",
    )


class TestRules:
    def test_one_point_rule(self):
        assert np.array_equal(one_point_rule(3), np.zeros((1, 3)))

    def test_mc_rule_shape_and_weights(self):
        # The nodes are the seeded generator's draws, each weighted 1/Q:
        # v0 is omega times the mean density over the probes.
        nodes = mc_inner_quadrature(16, 2, rng_seed=5)
        assert np.array_equal(
            nodes, np.random.default_rng(5).standard_normal((16, 2)))
        t = make_benchmark("gmm", 2, seed=8)
        y = np.array([[3.0, 4.0]])
        v0 = estimate_embeddings(t, y, 0.5, nodes, "gf").v0_hat
        mean = np.exp(t.log_density(y + 0.5 * nodes)).mean()
        np.testing.assert_allclose(v0, omega(0.5, 2) * mean, rtol=1e-13)

    def test_mc_rule_deterministic(self):
        a = mc_inner_quadrature(8, 3, rng_seed=[1, 2])
        b = mc_inner_quadrature(8, 3, rng_seed=[1, 2])
        c = mc_inner_quadrature(8, 3, rng_seed=[1, 3])
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_mc_rule_node_statistics(self):
        q = 100_000
        nodes = mc_inner_quadrature(q, 2, rng_seed=9)
        bound = 4.0 / math.sqrt(q)
        assert np.all(np.abs(nodes.mean(axis=0)) < bound)

    def test_validation(self):
        with pytest.raises(ValueError, match="Q"):
            mc_inner_quadrature(0, 2, rng_seed=0)
        t = make_benchmark("gmm", 2, seed=8)
        Y = np.zeros((3, 2))
        for nodes, estimator, shape in (
            (np.zeros(2), "stein", r"\(2,\)"),
            (np.zeros((0, 2)), "gf", r"\(0, 2\)"),
            (np.zeros((4, 3)), "hybrid", r"\(4, 3\)"),
            (None, "gf", r"\(\)"),
        ):
            with pytest.raises(ValueError, match=r"Q x 2 array.*" + shape):
                estimate_embeddings(t, Y, 0.5, nodes, estimator, 0.5)


class TestOnePointExactness:
    def test_v0_is_omega_times_density(self):
        # flat pi = 0.5, d = 1, sigma = 1: v0 = sqrt(2 pi) * 0.5.
        t = constant_target(math.log(0.5))
        rule = one_point_rule(1)
        Y = np.array([[0.0], [3.0], [-1.5]])
        v0 = estimate_embeddings(t, Y, 1.0, rule, "gf").v0_hat
        np.testing.assert_allclose(
            v0, math.sqrt(2.0 * math.pi) * 0.5, rtol=1e-14
        )

    def test_gradient_free_v1_is_y_times_v0(self):
        t = std_normal_target()
        rule = one_point_rule(1)
        Y = np.array([[0.5], [2.0], [-1.0]])
        est = estimate_embeddings(t, Y, 1.0, rule, "gf")
        assert np.array_equal(est.v1_hat, Y * est.v0_hat[:, None])

    def test_stein_v1_vanishes_at_mean_plus_sigma_squared_score(self):
        # std normal, y = 2, sigma = 1: v1/v0 = y + sigma^2 s(y) = 0.
        t = std_normal_target()
        rule = one_point_rule(1)
        Y = np.array([[2.0]])
        est = estimate_embeddings(t, Y, 1.0, rule, "stein")
        assert abs(est.v1_hat[0, 0] / est.v0_hat[0]) < 1e-14

    def test_fredholm_ignores_passed_rule(self):
        t = std_normal_target()
        Y = np.array([[0.7], [-0.2]])
        wide = mc_inner_quadrature(32, 1, rng_seed=3)
        est = estimate_embeddings(t, Y, 1.0, wide, "fredholm")
        v0_expected = omega(1.0, 1) * np.exp(t.log_density(Y))
        np.testing.assert_allclose(est.v0_hat, v0_expected, rtol=1e-13)
        v1_expected = v0_expected[:, None] * (Y + 1.0 * t.score(Y))
        np.testing.assert_allclose(est.v1_hat, v1_expected, rtol=1e-13)
        assert est.density_evals == 2
        assert est.score_evals == 2


class TestAntitheticCancellation:
    def test_flat_density_single_pair_cancels_exactly(self):
        # One antithetic node pair on a flat density: the odd term of the
        # split form is an exact floating-point zero, so v1 == Y * v0.
        t = constant_target(math.log(0.75), dim=2)
        rule = np.array([[1.0, -2.0], [-1.0, 2.0]])
        Y = np.array([[2.0, -4.0], [0.5, 8.0]])
        est = estimate_embeddings(t, Y, 0.5, rule, "gf")
        assert np.array_equal(est.v1_hat, Y * est.v0_hat[:, None])

    def test_power_of_two_particles_reproduce_exactly(self):
        # With dyadic particle coordinates the ratio v1/v0 recovers Y
        # bit for bit (multiplying and dividing by v0 is exact scaling).
        t = constant_target(0.0, dim=1)
        rule = np.array([[1.0], [-1.0]])
        Y = np.array([[1.0], [2.0], [0.5], [-4.0]])
        est = estimate_embeddings(t, Y, 0.5, rule, "gf")
        assert np.array_equal(est.v1_hat / est.v0_hat[:, None], Y)


class TestHybrid:
    def make_inputs(self):
        t = make_benchmark("gmm", 2, seed=4)
        Y = np.random.default_rng(71).uniform(0.0, 7.5, size=(6, 2))
        rule = mc_inner_quadrature(10, 2, rng_seed=72)
        return t, Y, rule

    def hybrid(self, gamma):
        t, Y, rule = self.make_inputs()
        return estimate_embeddings(t, Y, 0.5, rule, "hybrid", gamma=gamma)

    def test_endpoints_bit_exact(self):
        # gf and stein are the hybrid at gamma 0 and 1; fredholm is stein
        # on the one-point rule.
        t, Y, rule = self.make_inputs()
        gf = estimate_embeddings(t, Y, 0.5, rule, "gf")
        st = estimate_embeddings(t, Y, 0.5, rule, "stein")
        for est, end in (
            (self.hybrid(0.0), gf),
            (self.hybrid(1.0), st),
            (estimate_embeddings(t, Y, 0.5, rule, "fredholm"),
             estimate_embeddings(t, Y, 0.5, one_point_rule(2), "stein")),
        ):
            assert np.array_equal(est.v1_hat, end.v1_hat)
            assert np.array_equal(est.v0_hat, end.v0_hat)
            assert est.density_evals == end.density_evals
            assert est.score_evals == end.score_evals

    def test_midpoint_is_elementwise_mean(self):
        t, Y, rule = self.make_inputs()
        gf = estimate_embeddings(t, Y, 0.5, rule, "gf").v1_hat
        st = estimate_embeddings(t, Y, 0.5, rule, "stein").v1_hat
        assert np.array_equal(self.hybrid(0.5).v1_hat, 0.5 * gf + 0.5 * st)

    def test_gamma_validated(self):
        for gamma in (-0.1, 1.1):
            with pytest.raises(ValueError, match="gamma"):
                self.hybrid(gamma)


class TestMonteCarloConsistency:
    def test_v0_estimate_converges_to_analytic(self):
        target = make_benchmark("gmm", 2, seed=6)
        Y = np.random.default_rng(73).uniform(0.0, 7.5, size=(4, 2))
        sigma = 0.5
        rule = mc_inner_quadrature(200_000, 2, rng_seed=74)
        v0_hat = estimate_embeddings(target, Y, sigma, rule, "gf").v0_hat
        v0 = gmm_v0(target.analytic, Y, sigma)
        np.testing.assert_allclose(v0_hat, v0, rtol=0.05)

    def test_stein_v1_converges_to_analytic(self):
        target = make_benchmark("gmm", 2, seed=6)
        Y = np.random.default_rng(75).uniform(0.0, 7.5, size=(4, 2))
        sigma = 0.5
        rule = mc_inner_quadrature(200_000, 2, rng_seed=76)
        est = estimate_embeddings(target, Y, sigma, rule, "stein")
        t = target.analytic
        v0, m = gmm_v0_and_shift(t, Y, sigma)
        v1 = v0[:, None] * m
        np.testing.assert_allclose(est.v1_hat, v1, rtol=0.05, atol=1e-4)

    def test_gf_and_stein_estimate_the_same_quantity(self):
        target = make_benchmark("gmm", 2, seed=6)
        Y = np.random.default_rng(77).uniform(0.0, 7.5, size=(4, 2))
        rule = mc_inner_quadrature(200_000, 2, rng_seed=78)
        gf = estimate_embeddings(target, Y, 0.5, rule, "gf")
        st = estimate_embeddings(target, Y, 0.5, rule, "stein")
        np.testing.assert_allclose(gf.v1_hat, st.v1_hat, rtol=0.1,
                                   atol=1e-4)


class TestNormalizationOffsets:
    def test_offset_scales_embeddings_linearly(self):
        target = make_benchmark("gmm", 2, seed=8)
        Y = np.random.default_rng(79).uniform(0.0, 7.5, size=(5, 2))
        rule = mc_inner_quadrature(20, 2, rng_seed=80)
        base = estimate_embeddings(target, Y, 0.5, rule, "stein")
        for c in (-40.0, 40.0):
            shifted = estimate_embeddings(
                target.with_offset(c), Y, 0.5, rule, "stein"
            )
            np.testing.assert_allclose(
                shifted.v0_hat, math.exp(c) * base.v0_hat, rtol=1e-12
            )
            np.testing.assert_allclose(
                shifted.v1_hat, math.exp(c) * base.v1_hat, rtol=1e-12
            )


class TestCountersAndErrors:
    def test_eval_counters_per_estimator(self):
        target = make_benchmark("gmm", 2, seed=8)
        Y = np.zeros((7, 2))
        rule = mc_inner_quadrature(9, 2, rng_seed=81)
        cases = {
            "gf": (63, 0),
            "stein": (63, 63),
            "fredholm": (7, 7),
            "hybrid": (63, 63),
            "analytic": (0, 0),
        }
        for name, (de, se) in cases.items():
            est = estimate_embeddings(target, Y, 0.5, rule, name,
                                      gamma=0.5)
            assert (est.density_evals, est.score_evals) == (de, se), name

    def test_hybrid_gamma_zero_skips_scores(self):
        target = make_benchmark("gmm", 2, seed=8)
        rule = mc_inner_quadrature(5, 2, rng_seed=82)
        est = estimate_embeddings(target, np.zeros((3, 2)), 0.5, rule,
                                  "hybrid", gamma=0.0)
        assert est.score_evals == 0

    def test_unknown_estimator_rejected(self):
        target = make_benchmark("gmm", 2, seed=8)
        with pytest.raises(ValueError, match="unknown estimator"):
            estimate_embeddings(target, np.zeros((1, 2)), 0.5,
                                one_point_rule(2), "magic")
        assert set(ESTIMATORS) == {"fredholm", "stein", "gf", "hybrid",
                                   "analytic"}

    def test_score_free_target_rejects_stein(self):
        t = TargetDensity(
            dim=1,
            base_log_density=lambda x: -np.sum(
                np.atleast_2d(x) ** 2, axis=1
            ),
        )
        with pytest.raises(EstimatorUnavailableError, match="score"):
            estimate_embeddings(t, np.zeros((2, 1)), 1.0,
                                one_point_rule(1), "stein")

    def test_non_finite_density_names_particles(self):
        def logp(x):
            X = np.atleast_2d(x)
            with np.errstate(divide="ignore"):
                return np.log(np.maximum(X[:, 0], 0.0))

        t = TargetDensity(dim=1, base_log_density=logp)
        Y = np.array([[1.0], [-1.0], [2.0], [-3.0]])
        with pytest.raises(NonFiniteDensityError) as info:
            estimate_embeddings(t, Y, 1.0, one_point_rule(1), "gf")
        assert info.value.particles == [1, 3]
        assert "particle(s) [1, 3]" in str(info.value)

    def test_shift_keeps_peaked_densities_finite(self):
        # Probes spanning a 1e4 log-density range must not overflow the
        # shifted weights.
        t = TargetDensity(
            dim=1,
            base_log_density=lambda x: -100.0 * np.sum(
                np.atleast_2d(x) ** 2, axis=1
            ),
        )
        Y = np.array([[0.0], [10.0]])
        rule = np.array([[0.0], [1.0]])
        v0 = estimate_embeddings(t, Y, 1.0, rule, "gf").v0_hat
        assert np.all(np.isfinite(v0)) and np.all(v0 >= 0.0)


class TestAnalytic:
    def test_reads_scaled_mixture_embeddings(self):
        target = make_benchmark("gmm", 2, seed=8).with_offset(1.5)
        Y = np.random.default_rng(83).uniform(0.0, 7.5, size=(4, 2))
        est = estimate_embeddings(target, Y, 0.5, None, "analytic")
        t = target.analytic
        v0 = gmm_v0(t, Y, 0.5) * math.exp(1.5)
        assert np.array_equal(est.v0_hat, v0)
        assert np.array_equal(
            est.v1_hat, v0[:, None] * gmm_v0_and_shift(t, Y, 0.5)[1]
        )

    def test_one_mixture_pass(self, monkeypatch):
        # v0 and the mean-shift points come from one evaluation of the
        # blurred mixture.
        target = make_benchmark("gmm", 2, seed=8)
        calls = []

        def counted(t, X, chols, score=False):
            calls.append((X.shape[0], score))
            return mixture(t, X, chols, score)

        mixture = msip.targets._mixture
        monkeypatch.setattr(msip.targets, "_mixture", counted)
        Y = np.random.default_rng(84).uniform(0.0, 7.5, size=(4, 2))
        estimate_embeddings(target, Y, 0.5, None, "analytic")
        assert calls == [(4, True)]

    def test_requires_a_mixture_target(self):
        with pytest.raises(AnalyticUnavailableError, match="funnel"):
            estimate_embeddings(make_benchmark("funnel", 2),
                                np.zeros((2, 2)), 0.5, None, "analytic")


# Each case: a target, its kernel bandwidth and a box for the particles in
# which every log-density stays far from underflow, also shifted by -40.
PROPERTY_TARGETS = {
    "gmm": (make_benchmark("gmm", 2, seed=8), 0.5, (-1.0, 8.0)),
    "gmm-3d": (make_benchmark("gmm", 3, seed=2), 0.5, (-1.0, 8.0)),
    "funnel": (make_benchmark("funnel", 2), 0.1, (-2.0, 2.0)),
    "himmelblau": (make_benchmark("himmelblau", 2), 0.05, (-4.0, 4.0)),
}
# derandomize: the same examples on every run and machine.
PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=200)


@st.composite
def embedding_cases(draw):
    """(target, sigma, Y, rule, estimator, gamma) for any estimator."""
    estimator = draw(st.sampled_from(ESTIMATORS))
    names = sorted(PROPERTY_TARGETS)
    if estimator == "analytic":
        names = ["gmm", "gmm-3d"]
    t, sigma, (lo, hi) = PROPERTY_TARGETS[draw(st.sampled_from(names))]
    m = draw(st.integers(1, 8))
    Y = draw(hnp.arrays(float, (m, t.dim), elements=st.floats(lo, hi)))
    rule = mc_inner_quadrature(draw(st.integers(1, 6)), t.dim,
                               rng_seed=draw(st.integers(0, 2**32 - 1)))
    gamma = draw(st.floats(0.0, 1.0))
    return t, sigma, Y, rule, estimator, gamma


class TestProperties:
    @PROPERTY
    @given(case=embedding_cases(), data=st.data())
    def test_rows_follow_permutations_bit_for_bit(self, case, data):
        t, sigma, Y, rule, estimator, gamma = case
        perm = np.array(data.draw(st.permutations(range(len(Y)))))
        base = estimate_embeddings(t, Y, sigma, rule, estimator, gamma)
        moved = estimate_embeddings(t, Y[perm], sigma, rule, estimator,
                                    gamma)
        assert np.array_equal(moved.v0_hat, base.v0_hat[perm])
        assert np.array_equal(moved.v1_hat, base.v1_hat[perm])

    @PROPERTY
    @given(case=embedding_cases(), c=st.floats(-40.0, 40.0))
    def test_log_density_offset_scales_by_exp_c(self, case, c):
        t, sigma, Y, rule, estimator, gamma = case
        base = estimate_embeddings(t, Y, sigma, rule, estimator, gamma)
        shifted = estimate_embeddings(t.with_offset(c), Y, sigma, rule,
                                      estimator, gamma)
        np.testing.assert_allclose(shifted.v0_hat,
                                   math.exp(c) * base.v0_hat, rtol=1e-12)
        np.testing.assert_allclose(shifted.v1_hat,
                                   math.exp(c) * base.v1_hat, rtol=1e-12)
