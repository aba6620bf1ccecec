"""Target densities: mixture math, scores, analytic embeddings, fixtures."""

import math

import numpy as np
import pytest
from scipy.linalg import cholesky, solve_triangular
from scipy.stats import multivariate_normal

from msip.errors import EstimatorUnavailableError
from msip.kernel import KernelSpec, omega, se_kernel
from msip.targets import (
    BENCHMARK_NAMES,
    GmmTarget,
    TargetDensity,
    _funnel_logp,
    _funnel_logp_and_score,
    _mixture,
    from_gmm,
    gmm_c_pi,
    gmm_v0,
    gmm_v0_and_shift,
    make_benchmark,
    normalized,
    reference_samples,
)

STD_NORMAL_1D = GmmTarget(
    weights=np.array([1.0]),
    means=np.zeros((1, 1)),
    covs=np.ones((1, 1, 1)),
)


def random_mixture(seed, k=3, dim=2):
    rng = np.random.default_rng(seed)
    means = rng.uniform(-3.0, 3.0, size=(k, dim))
    covs = []
    for _ in range(k):
        A = rng.standard_normal((dim, dim))
        covs.append(A @ A.T + 0.3 * np.eye(dim))
    return GmmTarget(
        weights=rng.uniform(0.5, 2.0, size=k),
        means=means,
        covs=np.stack(covs),
    )


def fd_gradient(f, x, h=1e-6):
    g = np.empty_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


class TestGmmDensity:
    def test_standard_normal_at_origin(self):
        val = from_gmm(STD_NORMAL_1D).log_density(np.array([0.0]))
        assert val == pytest.approx(-0.5 * math.log(2.0 * math.pi),
                                    rel=1e-12)

    def test_matches_naive_mixture_sum(self):
        t = random_mixture(31)
        rng = np.random.default_rng(32)
        X = rng.uniform(-4.0, 4.0, size=(50, 2))
        naive = np.log(sum(
            m * multivariate_normal(mean=mu, cov=C).pdf(X)
            for m, mu, C in zip(t.weights, t.means, t.covs)
        ))
        np.testing.assert_allclose(from_gmm(t).log_density(X), naive,
                                   rtol=1e-10)

    def test_single_point_matches_batch(self):
        t = random_mixture(33)
        x = np.array([0.4, -1.1])
        batch = from_gmm(t).log_density(x[None, :])
        assert from_gmm(t).log_density(x) == batch[0]

    def test_far_tail_stays_finite(self):
        t = random_mixture(34)
        val = from_gmm(t).log_density(np.full(2, 1e3))
        assert np.isfinite(val) and val < -1e5

    def test_weight_scaling_shifts_log_density(self):
        t = random_mixture(35)
        t2 = GmmTarget(weights=2.0 * t.weights, means=t.means, covs=t.covs)
        x = np.array([0.3, 0.9])
        assert from_gmm(t2).log_density(x) == pytest.approx(
            from_gmm(t).log_density(x) + math.log(2.0), rel=1e-14
        )

    def test_rejects_wrong_dimension(self):
        t = random_mixture(36)
        with pytest.raises(ValueError, match="dim"):
            from_gmm(t).log_density(np.zeros(3))

    def test_rejects_nonpositive_weights(self):
        with pytest.raises(ValueError, match="positive"):
            GmmTarget(weights=np.array([1.0, 0.0]),
                      means=np.zeros((2, 1)), covs=np.ones((2, 1, 1)))

    @pytest.mark.parametrize("field, value", [
        ("weights", np.array([np.nan, 1.0])),
        ("means", np.array([[np.inf], [1.0]])),
        ("means", np.array([[np.nan], [1.0]])),
        ("covs", np.array([[[np.nan]], [[1.0]]])),
    ])
    def test_rejects_nonfinite_fields(self, field, value):
        fields = {"weights": np.ones(2), "means": np.zeros((2, 1)),
                  "covs": np.ones((2, 1, 1)), field: value}
        with pytest.raises(ValueError, match=f"mixture {field} must be"):
            GmmTarget(**fields)

    @pytest.mark.parametrize("fields, message", [
        # two weights, three means and covariances
        ({"weights": np.ones(2), "means": np.zeros((3, 1)),
          "covs": np.ones((3, 1, 1))},
         r"mixture means has shape \(3, 1\), expected \(2, d\)"),
        # three weights and means, two covariances
        ({"weights": np.ones(3), "means": np.zeros((3, 1)),
          "covs": np.ones((2, 1, 1))},
         r"mixture covs has shape \(2, 1, 1\), expected \(3, 1, 1\)"),
        ({"weights": np.ones((2, 1)), "means": np.zeros((2, 1)),
          "covs": np.ones((2, 1, 1))},
         r"mixture weights has shape \(2, 1\), expected \(k,\)"),
        ({"weights": np.ones(2), "means": np.zeros((2, 2)),
          "covs": np.ones((2, 2, 1))},
         r"mixture covs has shape \(2, 2, 1\), expected \(2, 2, 2\)"),
    ])
    def test_rejects_mismatched_shapes(self, fields, message):
        # at construction, not at the first evaluation
        with pytest.raises(ValueError, match=message):
            GmmTarget(**fields)

    def test_rejects_indefinite_covariance(self):
        covs = np.array([[[1.0, 2.0], [2.0, 1.0]]])
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            GmmTarget(weights=np.ones(1), means=np.zeros((1, 2)), covs=covs)


class TestGmmScore:
    def test_matches_finite_differences(self):
        t = random_mixture(41)
        rng = np.random.default_rng(42)
        for _ in range(20):
            x = rng.uniform(-3.0, 3.0, size=2)
            fd = fd_gradient(lambda p: from_gmm(t).log_density(p), x)
            np.testing.assert_allclose(from_gmm(t).score(x), fd,
                                       rtol=1e-5, atol=1e-7)

    def test_invariant_to_weight_scale(self):
        t = random_mixture(43)
        t4 = GmmTarget(weights=4.0 * t.weights, means=t.means, covs=t.covs)
        X = np.random.default_rng(44).standard_normal((10, 2))
        np.testing.assert_allclose(from_gmm(t4).score(X),
                                   from_gmm(t).score(X),
                                   rtol=1e-13)

    def test_finite_in_far_tail(self):
        t = random_mixture(45)
        assert np.all(np.isfinite(from_gmm(t).score(np.full(2, 1e3))))

    def test_single_gaussian_closed_form(self):
        s = from_gmm(STD_NORMAL_1D).score(np.array([1.7]))
        assert s[0] == pytest.approx(-1.7, rel=1e-13)


def reference_mixture(t, X, chols):
    """_mixture through scipy's solve_triangular, kept as reference."""
    lp = np.empty((X.shape[0], t.k))
    zs = []
    for k in range(t.k):
        L = chols[k]
        z = solve_triangular(L, (X - t.means[k]).T, lower=True,
                             check_finite=False)
        zs.append(z)
        logdet = np.sum(np.log(np.diag(L)))
        lp[:, k] = -0.5 * np.einsum("ij,ij->j", z, z) - logdet \
            - 0.5 * t.dim * math.log(2.0 * math.pi)
    lp += np.log(t.weights)
    m = lp.max(axis=1, keepdims=True)
    e = np.exp(lp - m)
    s = e.sum(axis=1)
    resp = e / s[:, None]
    out = np.zeros_like(X)
    for k in range(t.k):
        w = solve_triangular(chols[k].T, zs[k], lower=False,
                             check_finite=False)
        out -= resp[:, k, None] * w.T
    return m[:, 0] + np.log(s), out


class TestTriangularSolves:
    @pytest.mark.parametrize("dim", [1, 2, 10])
    @pytest.mark.parametrize("n", [1, 7])
    def test_mixture_matches_solve_triangular_bits(self, dim, n):
        # One point makes (X - mu).T both C- and F-contiguous, where a
        # solve with the factor's transpose rounds differently. The
        # factors themselves have the bits and layout of scipy's cholesky.
        t = random_mixture(61 + dim, k=4, dim=dim)
        X = 2.0 * np.random.default_rng(62).standard_normal((n, dim))
        for sigma, factors in ((0.0, t._factors),
                               (0.7, t.blurred_factors(0.7))):
            chols, logdets = factors
            for k, C in enumerate(t.covs):
                ref = cholesky(C + sigma**2 * np.eye(dim), lower=True)
                assert chols[k].flags.f_contiguous
                assert chols[k].tobytes(order="A") == ref.tobytes(order="A")
                assert logdets[k] == np.sum(np.log(np.diag(ref)))
            logp, score = _mixture(t, X, factors, score=True)
            ref_logp, ref_score = reference_mixture(t, X, chols)
            assert logp.tobytes() == ref_logp.tobytes()
            assert score.tobytes() == ref_score.tobytes()


def reference_c_pi(t, sigma):
    """gmm_c_pi through numpy's cholesky and scipy's solve_triangular,
    kept as reference."""
    d = t.dim
    total = 0.0
    for a in range(t.k):
        for b in range(t.k):
            L = np.linalg.cholesky(t.covs[a] + t.covs[b]
                                   + sigma**2 * np.eye(d))
            z = solve_triangular(L, t.means[a] - t.means[b], lower=True,
                                 check_finite=False)
            logn = -0.5 * (z @ z) - np.log(np.diag(L)).sum() \
                - 0.5 * d * math.log(2.0 * math.pi)
            total += t.weights[a] * t.weights[b] * math.exp(logn)
    return omega(sigma, d) * total


class TestCPi:
    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_matches_reference_bits(self, dim):
        for seed in range(20):
            t = random_mixture(seed, k=4, dim=dim)
            for sigma in (0.3, 0.7, 2.0):
                assert gmm_c_pi(t, sigma) == reference_c_pi(t, sigma)

    @pytest.mark.parametrize("name, dim", [("gmm", 10), ("gmm5-aniso-2d", 2)])
    def test_fixtures_match_reference_bits(self, name, dim):
        t = make_benchmark(name, dim).analytic
        for sigma in np.linspace(0.1, 5.0, 25):
            assert gmm_c_pi(t, sigma) == reference_c_pi(t, sigma)

    def test_general_10d_matches_reference(self):
        # numpy and scipy ship different LAPACK builds, whose Cholesky
        # factors of a general covariance can differ in the last bit
        # from d = 5 on, so here the values agree to rounding only.
        for seed in range(20):
            t = random_mixture(seed, k=4, dim=10)
            assert gmm_c_pi(t, 0.7) == pytest.approx(reference_c_pi(t, 0.7),
                                                     rel=1e-13)




class TestEmbeddings:
    def test_v0_standard_normal_origin(self):
        # omega * N(0; 0, 1 + sigma^2) with sigma = 1: 1/sqrt(2).
        val = gmm_v0(STD_NORMAL_1D, np.array([0.0]), 1.0)
        assert val == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)

    def test_grad_log_v0_single_gaussian(self):
        # grad log v0 = -(Sigma + sigma^2 I)^{-1} (y - mu) = -2/2 = -1 at
        # y = 2, so m = y + sigma^2 grad log v0 = 1; a single point is
        # squeezed back.
        v0, m = gmm_v0_and_shift(STD_NORMAL_1D, np.array([2.0]), 1.0)
        assert np.ndim(v0) == 0 and m.shape == (1,)
        assert v0 == gmm_v0(STD_NORMAL_1D, np.array([2.0]), 1.0)
        assert m[0] == pytest.approx(1.0, rel=1e-12)

    def test_shift_pass_keeps_the_bits_of_v0(self):
        t = random_mixture(59)
        Y = np.random.default_rng(60).uniform(-2.0, 2.0, size=(7, 2))
        v0, m = gmm_v0_and_shift(t, Y, 0.6)
        assert v0.tobytes() == gmm_v0(t, Y, 0.6).tobytes()
        _, score = _mixture(t, Y, t.blurred_factors(0.6), score=True)
        assert m.tobytes() == (Y + 0.6**2 * score).tobytes()

    def test_c_pi_standard_normal(self):
        # omega * N(0; 0, 2 Sigma + sigma^2 I) = 1/sqrt(3) in 1-D.
        assert gmm_c_pi(STD_NORMAL_1D, 1.0) == pytest.approx(
            1.0 / math.sqrt(3.0), rel=1e-12
        )

    def test_v0_matches_monte_carlo(self):
        t = random_mixture(51)
        target = from_gmm(t)
        sigma = 0.8
        spec = KernelSpec(sigma=sigma)
        X = reference_samples(target, 200_000, seed=52)
        mass = t.weights.sum()
        rng = np.random.default_rng(53)
        for _ in range(5):
            y = rng.uniform(-2.0, 2.0, size=2)
            vals = np.exp(-np.sum((X - y) ** 2, axis=1)
                          / (2.0 * sigma**2))
            # X samples the normalized mixture, so the unnormalized
            # integral needs the total mass back
            mc = mass * vals.mean()
            se = mass * vals.std() / math.sqrt(X.shape[0])
            assert abs(gmm_v0(t, y, sigma) - mc) <= 4.0 * se + 1e-12

    def test_v1_identity_matches_monte_carlo(self):
        # v1 = v0 * m, with m = y + sigma^2 grad log v0, should equal the
        # first kernel moment integral x kappa(x, y) pi(x) dx.
        t = random_mixture(54)
        target = from_gmm(t)
        sigma = 0.8
        X = reference_samples(target, 200_000, seed=55)
        mass = t.weights.sum()
        y = np.array([0.5, -0.3])
        k = np.exp(-np.sum((X - y) ** 2, axis=1) / (2.0 * sigma**2))
        scale = mass
        v0, m = gmm_v0_and_shift(t, y, sigma)
        v1 = v0 * m
        for j in range(2):
            mc = scale * (X[:, j] * k).mean()
            se = scale * (X[:, j] * k).std() / math.sqrt(X.shape[0])
            assert abs(v1[j] - mc) <= 4.0 * se + 1e-12

    def test_grad_log_v0_matches_finite_differences(self):
        # m(y) = y + sigma^2 grad log v0(y), the gradient by central
        # differences of log v0.
        t = random_mixture(56)
        sigma = 0.6
        rng = np.random.default_rng(57)
        for _ in range(10):
            y = rng.uniform(-2.0, 2.0, size=2)
            fd = fd_gradient(
                lambda p: math.log(gmm_v0(t, p, sigma)), y
            )
            np.testing.assert_allclose(
                gmm_v0_and_shift(t, y, sigma)[1], y + sigma**2 * fd,
                rtol=1e-5, atol=1e-7
            )

    def test_v0_scales_with_mixture_mass(self):
        t = random_mixture(58)
        t3 = GmmTarget(weights=3.0 * t.weights, means=t.means, covs=t.covs)
        y = np.array([0.2, 0.1])
        assert gmm_v0(t3, y, 0.5) == pytest.approx(
            3.0 * gmm_v0(t, y, 0.5), rel=1e-13
        )
        assert gmm_c_pi(t3, 0.5) == pytest.approx(
            9.0 * gmm_c_pi(t, 0.5), rel=1e-13
        )

    def test_normalized_unit_mass(self):
        t = random_mixture(59)
        tn = normalized(t)
        assert tn.weights.sum() == pytest.approx(1.0, rel=1e-15)
        x = np.array([1.0, -1.0])
        np.testing.assert_allclose(from_gmm(tn).score(x),
                                   from_gmm(t).score(x),
                                   rtol=1e-13)

    def test_v0_oracle_single_gaussian_closed_form(self):
        # Independent closed form for one isotropic component in 3-D.
        mu = np.array([0.5, -1.0, 2.0])
        tau2, sigma = 0.7, 0.9
        t = GmmTarget(weights=np.array([1.3]), means=mu[None, :],
                      covs=(tau2 * np.eye(3))[None, :, :])
        y = np.array([0.1, 0.4, 1.2])
        var = tau2 + sigma**2
        expected = (1.3 * omega(sigma, 3)
                    * math.exp(-np.sum((y - mu) ** 2) / (2.0 * var))
                    / (2.0 * math.pi * var) ** 1.5)
        assert gmm_v0(t, y, sigma) == pytest.approx(expected, rel=1e-12)


class TestTargetDensity:
    def test_offset_shifts_log_density_only(self):
        target = make_benchmark("gmm", 3, seed=5)
        shifted = target.with_offset(3.75)
        x = np.array([1.0, 2.0, 3.0])
        assert shifted.log_density(x) == target.log_density(x) + 3.75
        assert np.array_equal(shifted.score(x), target.score(x))

    def test_missing_score_raises(self):
        t = TargetDensity(dim=1, base_log_density=lambda x: -(x**2))
        assert not t.has_score
        with pytest.raises(EstimatorUnavailableError):
            t.score(np.zeros(1))
        with pytest.raises(EstimatorUnavailableError):
            t.log_density_and_score(np.zeros(1))

    @pytest.mark.parametrize("name", ["gmm", "funnel", "himmelblau"])
    def test_joint_call_matches_log_density(self, name):
        target = make_benchmark(name, 2, seed=5).with_offset(-2.5)
        X = np.random.default_rng(6).uniform(-2.0, 2.0, size=(7, 2))
        logp, score = target.log_density_and_score(X)
        assert np.array_equal(logp, target.log_density(X))
        assert score.shape == (7, 2)
        row_logp, row_score = target.log_density_and_score(X[3:4])
        one_logp, one_score = target.log_density_and_score(X[3])
        assert one_logp == row_logp[0]
        assert np.array_equal(one_score, row_score[0])
        assert target.log_density(X[3]) == row_logp[0]


class TestBenchmarks:
    def test_names(self):
        assert set(BENCHMARK_NAMES) == {
            "gmm", "gmm5-aniso-2d", "funnel", "himmelblau"
        }

    def test_gmm_construction(self):
        target = make_benchmark("gmm", 4, seed=9)
        t = target.analytic
        assert t.k == 5 and t.dim == 4
        assert np.all((t.means >= 0.0) & (t.means <= 7.5))
        np.testing.assert_array_equal(
            t.covs, np.broadcast_to(0.5 * np.eye(4), (5, 4, 4))
        )
        again = make_benchmark("gmm", 4, seed=9)
        assert np.array_equal(t.means, again.analytic.means)
        other = make_benchmark("gmm", 4, seed=10)
        assert not np.array_equal(t.means, other.analytic.means)

    def test_gmm5_aniso_geometry(self):
        t = make_benchmark("gmm5-aniso-2d", 2).analytic
        assert t.k == 5
        np.testing.assert_allclose(np.linalg.norm(t.means, axis=1), 8.0,
                                   rtol=1e-12)
        np.testing.assert_allclose(t.means[0], [0.0, 8.0], atol=1e-12)
        for C in t.covs:
            eig = np.sort(np.linalg.eigvalsh(C))
            np.testing.assert_allclose(eig, [0.12, 1.2], rtol=1e-12)
        with pytest.raises(ValueError, match="two-dimensional"):
            make_benchmark("gmm5-aniso-2d", 3)

    def test_funnel_values(self):
        target = make_benchmark("funnel", 2)
        origin = np.zeros(2)
        expected = -0.5 * math.log(2.0 * math.pi * 9.0) \
            - 0.5 * math.log(2.0 * math.pi)
        assert target.log_density(origin) == pytest.approx(expected,
                                                           rel=1e-12)
        np.testing.assert_allclose(target.score(origin), [-0.5, 0.0],
                                   atol=1e-14)
        with pytest.raises(ValueError, match="dim"):
            make_benchmark("funnel", 1)
        # the joint evaluation gives _funnel_logp's bytes and those of the
        # score written out on its own, also where exp(-x1) overflows
        rng = np.random.default_rng(63)
        for d in (2, 10):
            X = np.concatenate([s * rng.standard_normal((50, d))
                                for s in (0.1, 1.0, 3.0, 30.0)])
            X[:4, 0] = [-800.0, -710.0, 710.0, 800.0]
            x1, rest = X[:, 0], X[:, 1:]
            with np.errstate(over="ignore", invalid="ignore"):
                score = np.empty_like(X)
                score[:, 0] = -x1 / 9.0 - 0.5 * (
                    d - 1 - np.einsum("ij,ij->i", rest, rest) * np.exp(-x1))
                score[:, 1:] = -rest * np.exp(-x1)[:, None]
                lp, sc = _funnel_logp_and_score(X)
                want_lp = _funnel_logp(X)
            assert lp.tobytes() == want_lp.tobytes()
            assert sc.tobytes() == score.tobytes()

    def test_funnel_score_matches_finite_differences(self):
        target = make_benchmark("funnel", 3)
        rng = np.random.default_rng(61)
        for _ in range(10):
            x = rng.uniform(-1.5, 1.5, size=3)
            fd = fd_gradient(target.log_density, x)
            np.testing.assert_allclose(target.score(x), fd,
                                       rtol=1e-5, atol=1e-6)

    def test_himmelblau_values(self):
        target = make_benchmark("himmelblau", 2)
        opt = np.array([3.0, 2.0])
        assert target.log_density(opt) == 0.0
        np.testing.assert_allclose(target.score(opt), [0.0, 0.0],
                                   atol=1e-12)
        rng = np.random.default_rng(62)
        for _ in range(10):
            x = rng.uniform(-4.0, 4.0, size=2)
            fd = fd_gradient(target.log_density, x, h=1e-5)
            np.testing.assert_allclose(target.score(x), fd,
                                       rtol=1e-4, atol=1e-4)
        with pytest.raises(ValueError, match="two-dimensional"):
            make_benchmark("himmelblau", 3)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            make_benchmark("banana", 2)


class TestReferenceSamples:
    def test_deterministic(self):
        target = make_benchmark("gmm5-aniso-2d", 2)
        a = reference_samples(target, 100, seed=7)
        b = reference_samples(target, 100, seed=7)
        c = reference_samples(target, 100, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_gmm_moments(self):
        target = make_benchmark("gmm", 3, seed=1)
        t = target.analytic
        X = reference_samples(target, 40_000, seed=2)
        target_mean = (t.weights[:, None] * t.means).sum(axis=0) \
            / t.weights.sum()
        np.testing.assert_allclose(X.mean(axis=0), target_mean, atol=0.1)

    def test_funnel_marginal(self):
        target = make_benchmark("funnel", 2)
        X = reference_samples(target, 40_000, seed=3)
        assert X[:, 0].std() == pytest.approx(3.0, abs=0.1)

    def test_himmelblau_hits_all_four_basins(self):
        target = make_benchmark("himmelblau", 2)
        X = reference_samples(target, 4_000, seed=4)
        optima = np.array([
            [3.0, 2.0],
            [-2.805118, 3.131312],
            [-3.779310, -3.283186],
            [3.584428, -1.848127],
        ])
        for opt in optima:
            frac = (np.linalg.norm(X - opt, axis=1) < 1.0).mean()
            assert frac > 0.01


def test_se_kernel_consistent_with_v0_integrand():
    # The embedding's kernel and the Gram kernel are the same function.
    spec = KernelSpec(sigma=0.7)
    x = np.array([0.3, -0.2])
    y = np.array([-1.0, 0.5])
    direct = math.exp(-np.sum((x - y) ** 2) / (2.0 * 0.7**2))
    assert se_kernel(x, y, spec) == pytest.approx(direct, rel=1e-15)
