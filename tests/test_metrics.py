"""Evaluation metrics: exact and sample MMD, Stein discrepancy, coverage."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from msip.dynamics import MsipParams, msip_step, objective
from msip.errors import NonNormalizableError
from msip.kernel import KernelSpec, gram, se_kernel, solve, workspace
from msip.metrics import (
    IMQ_BETA,
    IMQ_C2,
    Mmd,
    ksd,
    ksd2,
    mode_coverage,
    normalize_weights,
    weighted_loglik,
)
from msip.targets import (
    GmmTarget,
    TargetDensity,
    from_gmm,
    gmm_v0,
    make_benchmark,
    normalized,
    reference_samples,
)

STD_NORMAL_GMM = GmmTarget(
    weights=np.array([1.0]), means=np.zeros((1, 1)), covs=np.ones((1, 1, 1))
)


class TestNormalizeWeights:
    def test_preserves_signs(self):
        np.testing.assert_array_equal(
            normalize_weights(np.array([3.0, -1.0])),
            np.array([1.5, -0.5]),
        )

    def test_near_zero_sum_rejected(self):
        with pytest.raises(NonNormalizableError, match="too close to zero"):
            normalize_weights(np.array([1e-13, -1e-13]))

    def test_already_normalized_fixed_point(self):
        w = np.array([0.25, 0.75])
        np.testing.assert_array_equal(normalize_weights(w), w)


class TestMmd2VsGmm:
    def test_single_particle_closed_form(self):
        # 1/sqrt(3) - 2/sqrt(2) + 1 for y = 0, w = 1, sigma = 1.
        val = Mmd(STD_NORMAL_GMM, 1.0)(np.zeros((1, 1)), np.ones(1))
        expected = 1.0 / math.sqrt(3.0) - 2.0 / math.sqrt(2.0) + 1.0
        assert val == pytest.approx(expected, rel=1e-12)
        assert val == pytest.approx(0.1631, abs=5e-5)

    def test_matches_penalized_objective_at_lam_zero(self):
        # With lam = 0 and optimal weights, MMD^2 = 2 F exactly.
        target = make_benchmark("gmm", 2, seed=14)
        p = MsipParams(kernel=KernelSpec(sigma=0.5, lam=0.0),
                       estimator="analytic")
        Y = reference_samples(target, 10, seed=15)
        w = msip_step(Y, target, p)[1]
        val = Mmd(target.analytic, 0.5)(Y, w)
        assert val == pytest.approx(2.0 * objective(Y, target, p),
                                    rel=1e-10, abs=1e-14)

    def test_equals_twice_objective_bitwise_at_criterion_8(self):
        # Acceptance criterion 8's configuration, where the identity holds
        # to the last bit ("identity gap 0"): the metric's plain SE matrix
        # and the objective's Gram must share their arithmetic.
        target = make_benchmark("gmm", 2, seed=0)
        rng = np.random.default_rng(3)
        Y = rng.uniform(0.0, 7.5, size=(25, 2))
        p = MsipParams(kernel=KernelSpec(0.5, 0.0), estimator="analytic")
        w = solve(gram(Y, p.kernel), gmm_v0(target.analytic, Y, 0.5))
        assert Mmd(target.analytic, 0.5)(Y, w) == \
            2.0 * objective(Y, target, p)

    def test_nonnegative_for_arbitrary_weights(self):
        rng = np.random.default_rng(141)
        target = make_benchmark("gmm", 2, seed=14).analytic
        for _ in range(20):
            Y = rng.uniform(0.0, 7.5, size=(6, 2))
            w = rng.standard_normal(6)
            assert Mmd(target, 0.5)(Y, w) >= 0.0

    def test_permutation_invariant(self):
        rng = np.random.default_rng(142)
        target = make_benchmark("gmm", 2, seed=14).analytic
        Y = rng.uniform(0.0, 7.5, size=(8, 2))
        w = rng.standard_normal(8)
        perm = rng.permutation(8)
        assert Mmd(target, 0.5)(Y[perm], w[perm]) == pytest.approx(
            Mmd(target, 0.5)(Y, w), rel=1e-12
        )

    def test_invariant_to_mixture_mass(self):
        t = make_benchmark("gmm", 2, seed=14).analytic
        t5 = GmmTarget(weights=5.0 * t.weights, means=t.means, covs=t.covs)
        rng = np.random.default_rng(143)
        Y = rng.uniform(0.0, 7.5, size=(5, 2))
        w = rng.standard_normal(5)
        assert Mmd(t5, 0.5)(Y, w) == pytest.approx(
            Mmd(t, 0.5)(Y, w), rel=1e-12
        )

    def test_decreases_as_configuration_matches_target(self):
        target = make_benchmark("gmm", 2, seed=14)
        good = reference_samples(target, 50, seed=16)
        bad = np.full((50, 2), 20.0)
        w = np.full(50, 0.02)
        t = target.analytic
        assert Mmd(t, 0.5)(good, w) < Mmd(t, 0.5)(bad, w)

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=200)
    @given(data=st.data(), name=st.sampled_from(["gmm", "gmm5-aniso-2d"]),
           M=st.integers(1, 8))
    def test_bounds_the_error_of_every_kernel_integral(self, data, name, M):
        # For f = k(., z), whose RKHS norm is 1, Cauchy-Schwarz gives
        # |sum_i w_i f(y_i) - E_pi f| <= MMD(Y, w) (Gretton et al. 2012).
        # MMD^2 is a difference of O(1) terms, and its square root
        # magnifies their rounding, hence the absolute slack.
        t = normalized(make_benchmark(name, 2, seed=0).analytic)
        coords = st.floats(-10.0, 10.0)
        Y = data.draw(hnp.arrays(float, (M, 2), elements=coords))
        w = data.draw(hnp.arrays(float, M, elements=st.floats(-1.0, 1.0)))
        z = data.draw(hnp.arrays(float, 2, elements=coords))
        spec = KernelSpec(0.5)
        gap = sum(wi * se_kernel(y, z, spec) for wi, y in zip(w, Y)) \
            - gmm_v0(t, z, 0.5)
        assert abs(gap) <= math.sqrt(Mmd(t, 0.5)(Y, w)) + 1e-7


class TestLentWorkspace:
    @pytest.mark.parametrize("M, d", [(1, 2), (25, 2), (130, 3), (400, 10)])
    def test_metrics_keep_their_bits(self, M, d):
        # In a trial's workspace, stale from the step before, the exact
        # MMD^2 and the KSD give the bits of calls that allocate.
        target = make_benchmark("gmm", d, seed=4)
        Y = reference_samples(target, M, seed=5)
        w = normalize_weights(np.random.default_rng(6).uniform(0.5, 1.5, M))
        S = target.score(Y)
        work = workspace(M)
        work[0].fill(np.nan)
        work[1].fill(np.nan)
        assert Mmd(target.analytic, 0.7)(Y, w, work=work) \
            == Mmd(target.analytic, 0.7)(Y, w)
        assert ksd(Y, w, S, 1.3, work=work) == ksd(Y, w, S, 1.3)
        assert not np.isnan(work[0]).any() and not np.isnan(work[1]).any()

    def test_sample_mmd_keeps_its_bits_and_writes_k(self):
        # Against a reference sample, the MMD^2 lends its plain SE matrix
        # the workspace's Gram buffer as the exact one does.
        rng = np.random.default_rng(152)
        Y = rng.standard_normal((70, 2))
        w = normalize_weights(rng.uniform(0.5, 1.5, 70))
        mmd = Mmd(rng.standard_normal((500, 2)), 0.8)
        work = workspace(70)
        work[0].fill(np.nan)
        assert mmd(Y, w, work=work) == mmd(Y, w)
        np.testing.assert_array_equal(work[0], gram(Y, KernelSpec(0.8, 0.0)))


class TestMmd2VsSamples:
    def test_self_comparison_is_tiny(self):
        target = make_benchmark("gmm", 2, seed=14)
        X = reference_samples(target, 400, seed=17)
        w = np.full(400, 1.0 / 400)
        assert abs(Mmd(X, 0.5)(X, w)) < 1e-10

    def test_agrees_with_exact_mmd_within_sampling_error(self):
        target = make_benchmark("gmm", 2, seed=14)
        t = target.analytic
        rng = np.random.default_rng(144)
        Y = rng.uniform(0.0, 7.5, size=(12, 2))
        w = np.full(12, 1.0 / 12)
        X = reference_samples(target, 4000, seed=18)
        exact = Mmd(t, 0.5)(Y, w)
        mmd = Mmd(X, 0.5)
        est, se = mmd.with_se(Y, w, n_boot=300, seed=19)
        assert est == mmd(Y, w)
        assert abs(est - exact) <= 4.0 * se + 2.0 / 4000

    def test_permutation_invariant_in_both_arguments(self):
        rng = np.random.default_rng(145)
        Y = rng.standard_normal((7, 2))
        w = rng.standard_normal(7)
        X = rng.standard_normal((30, 2))
        val = Mmd(X, 0.8)(Y, w)
        py, px = rng.permutation(7), rng.permutation(30)
        assert Mmd(X[px], 0.8)(Y[py], w[py]) == pytest.approx(
            val, rel=1e-10, abs=1e-14
        )

    def test_bootstrap_se_deterministic_and_scaled(self):
        rng = np.random.default_rng(146)
        Y = rng.standard_normal((5, 2))
        w = np.full(5, 0.2)
        X = rng.standard_normal((200, 2))
        a = Mmd(X, 0.7).with_se(Y, w, n_boot=100, seed=3)
        b = Mmd(X, 0.7).with_se(Y, w, n_boot=100, seed=3)
        assert a == b
        assert a[1] > 0.0


class TestKsd:
    def test_matches_brute_force_quadratic_form(self):
        target = make_benchmark("gmm", 2, seed=14)
        rng = np.random.default_rng(147)
        Y = rng.uniform(0.0, 7.5, size=(6, 2))
        w = rng.uniform(0.5, 1.5, size=6)
        bandwidth = 0.5
        wn = w / w.sum()
        S = target.score(Y)
        ell2 = bandwidth**2
        c2, beta = IMQ_C2, IMQ_BETA

        def k0(x, sx, y, sy):
            r2 = float(np.sum((x - y) ** 2))
            u = c2 + r2 / ell2
            k = u**beta
            dk_dy = (-beta * 2.0 / ell2) * (x - y) * u ** (beta - 1.0)
            dk_dx = -dk_dy
            trace = (
                -4.0 * beta * (beta - 1.0) * u ** (beta - 2.0) * r2 / ell2**2
                - 2.0 * Y.shape[1] * beta * u ** (beta - 1.0) / ell2
            )
            return (float(sx @ sy) * k + float(sx @ dk_dy)
                    + float(sy @ dk_dx) + trace)

        brute = sum(
            wn[i] * wn[j] * k0(Y[i], S[i], Y[j], S[j])
            for i in range(6) for j in range(6)
        )
        assert ksd2(Y, w, target.score(Y), bandwidth) == pytest.approx(
            brute, rel=1e-10)

    def test_nonnegative_for_signed_weights(self):
        target = make_benchmark("gmm", 2, seed=14)
        rng = np.random.default_rng(148)
        for _ in range(20):
            Y = rng.uniform(0.0, 7.5, size=(8, 2))
            # keep the sum well away from zero so normalization does not
            # amplify round-off in the quadratic form
            w = rng.standard_normal(8) + 1.0
            assert ksd2(Y, w, target.score(Y), 0.5) >= -1e-10

    def test_invariant_to_positive_weight_rescaling(self):
        target = make_benchmark("gmm", 2, seed=14)
        rng = np.random.default_rng(149)
        Y = rng.uniform(0.0, 7.5, size=(7, 2))
        w = rng.uniform(0.1, 1.0, size=7)
        assert ksd2(Y, 13.0 * w, target.score(Y), 0.5) == pytest.approx(
            ksd2(Y, w, target.score(Y), 0.5), rel=1e-12
        )

    def test_shrinks_toward_target_sample(self):
        target = make_benchmark("gmm", 2, seed=14)
        close = reference_samples(target, 60, seed=21)
        far = np.full((60, 2), 15.0) \
            + 0.1 * np.random.default_rng(150).standard_normal((60, 2))
        w = np.full(60, 1.0 / 60)
        assert ksd2(close, w, target.score(close), 0.5) \
            < ksd2(far, w, target.score(far), 0.5)

    def test_non_finite_score_names_particles(self):
        target = make_benchmark("funnel", 2)
        Y = np.array([[0.0, 0.0], [-800.0, 1.0]])
        # exp(800) overflows inside the funnel score
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match=r"particle\(s\) \[1\]"):
                ksd2(Y, np.array([0.5, 0.5]), target.score(Y), 0.5)

    def test_params_validated(self):
        Y = np.zeros((1, 2))
        with pytest.raises(ValueError, match="bandwidth"):
            ksd2(Y, np.ones(1), Y, 0.0)


class TestWeightedLoglik:
    def test_simple_average(self):
        target = from_gmm(
            GmmTarget(weights=np.array([1.0]), means=np.zeros((1, 1)),
                      covs=np.ones((1, 1, 1)))
        )
        Y = np.array([[0.0], [1.0]])
        logp = target.log_density(Y)
        w = np.array([0.5, 0.5])
        assert weighted_loglik(w, target.log_density(Y)) == pytest.approx(
            -float(logp.mean()), rel=1e-14
        )

    def test_unit_value_example(self):
        # Both particles at log-density -1 with weights (1/2, 1/2): 1.0.
        target = make_benchmark("himmelblau", 2).with_offset(-1.0)
        Y = np.array([[3.0, 2.0], [3.0, 2.0]])  # log pi = -1 at the optimum
        logp = target.log_density(Y)
        assert weighted_loglik(np.array([0.5, 0.5]), logp) == 1.0

    def test_zero_weight_particles_never_contribute(self):
        def logp(x):
            X = np.atleast_2d(x)
            with np.errstate(divide="ignore"):
                return np.log(np.maximum(1.0 - np.abs(X[:, 0]), 0.0))

        target = TargetDensity(dim=1, base_log_density=logp)
        Y = np.array([[0.0], [5.0]])  # log pi = 0 and -inf
        lp = target.log_density(Y)
        assert weighted_loglik(np.array([1.0, 0.0]), lp) == 0.0
        assert weighted_loglik(np.array([0.5, 0.5]), lp) == np.inf
        assert weighted_loglik(np.zeros(2), lp) == 0.0

    def test_offset_shifts_by_total_weight(self):
        target = make_benchmark("gmm", 2, seed=14)
        Y = reference_samples(target, 6, seed=22)
        w = np.random.default_rng(151).uniform(0.0, 1.0, size=6)
        base = weighted_loglik(w, target.log_density(Y))
        shifted = weighted_loglik(w, target.with_offset(3.0).log_density(Y))
        assert shifted == pytest.approx(base - 3.0 * w.sum(), rel=1e-12)


class TestModeCoverage:
    def test_counts_and_flags(self):
        modes = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        Y = np.array([[0.5, 0.0], [10.0, 0.4], [5.0, 5.0]])
        w = np.array([1.0, 1.0, 1.0])
        count, flags = mode_coverage(Y, w, modes, radius=1.0)
        assert count == 2
        assert flags.tolist() == [True, True, False]

    def test_weight_threshold_is_strict(self):
        # Normalized weight exactly 1/(10 M) does not count as heavy.
        modes = np.array([[0.0]])
        Y = np.array([[0.0], [5.0]])
        w_at = np.array([1.0 / 20.0, 19.0 / 20.0])
        count, _ = mode_coverage(Y, w_at, modes, radius=0.5)
        assert count == 0
        w_above = np.array([1.0 / 20.0 + 1e-9, 19.0 / 20.0 - 1e-9])
        count, _ = mode_coverage(Y, w_above, modes, radius=0.5)
        assert count == 1

    def test_radius_boundary_is_inclusive(self):
        modes = np.array([[0.0]])
        Y = np.array([[2.0]])
        count, _ = mode_coverage(Y, np.array([1.0]), modes, radius=2.0)
        assert count == 1

    def test_negative_weights_never_cover(self):
        modes = np.array([[0.0]])
        Y = np.array([[0.0], [3.0]])
        w = np.array([-0.5, 1.5])
        count, _ = mode_coverage(Y, w, modes, radius=1.0)
        assert count == 0

    def test_rejects_bad_radius_and_degenerate_weights(self):
        modes = np.array([[0.0]])
        with pytest.raises(ValueError, match="radius"):
            mode_coverage(np.zeros((1, 1)), np.ones(1), modes, radius=0.0)
        with pytest.raises(NonNormalizableError):
            mode_coverage(np.zeros((2, 1)), np.array([1.0, -1.0]), modes,
                          radius=1.0)
