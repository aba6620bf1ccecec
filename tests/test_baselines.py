"""SVGD and consensus-based sampling baselines."""

import math

import numpy as np
import pytest

from msip.baselines import (
    CbsParams,
    SvgdParams,
    cbs_step,
    consensus_point,
    median_bandwidth,
    run_cbs,
    run_svgd,
    svgd_step,
)
from msip.errors import DegenerateConsensusError, DivergedRunError
from msip.targets import GmmTarget, TargetDensity, from_gmm, make_benchmark

STD_NORMAL = from_gmm(
    GmmTarget(weights=np.array([1.0]), means=np.zeros((1, 1)),
              covs=np.ones((1, 1, 1))),
    name="std-normal",
)


class TestParams:
    def test_svgd_validation(self):
        with pytest.raises(ValueError, match="eta"):
            SvgdParams(eta=0.0)
        with pytest.raises(ValueError, match="T"):
            SvgdParams(eta=0.1, T=0)
        with pytest.raises(ValueError, match="bandwidth"):
            SvgdParams(eta=0.1, bandwidth=0.0)
        with pytest.raises(ValueError, match="bandwidth"):
            SvgdParams(eta=0.1, bandwidth="auto")
        assert SvgdParams(eta=0.1).bandwidth == "median"
        assert SvgdParams(eta=0.1, bandwidth=0.25).bandwidth == 0.25

    def test_cbs_validation(self):
        with pytest.raises(ValueError, match="beta"):
            CbsParams(beta=0.0)
        with pytest.raises(ValueError, match="eta"):
            CbsParams(eta=-0.1)
        with pytest.raises(ValueError, match="T"):
            CbsParams(T=0)
        with pytest.raises(ValueError, match="noise_scale"):
            CbsParams(noise_scale=-1.0)
        assert CbsParams(noise_scale=0.0).noise_scale == 0.0


class TestMedianBandwidth:
    def test_few_particles_fall_back_to_one(self):
        assert median_bandwidth(np.zeros((1, 3))) == 1.0
        assert median_bandwidth(np.zeros((0, 3))) == 1.0

    def test_matches_manual_median(self):
        Y = np.array([[0.0], [1.0], [3.0]])
        # pairwise squared distances: 1, 9, 4 -> median 4
        expected = 4.0 / (2.0 * math.log(4.0))
        assert median_bandwidth(Y) == pytest.approx(expected, rel=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(111)
        Y = rng.standard_normal((9, 2))
        perm = rng.permutation(9)
        assert median_bandwidth(Y[perm]) == median_bandwidth(Y)

    def test_coincident_particles_floored(self):
        assert median_bandwidth(np.zeros((4, 2))) == 1e-12


class TestSvgdStep:
    def test_single_particle_is_gradient_ascent(self):
        p = SvgdParams(eta=0.25, bandwidth=1.0)
        Y = np.array([[2.0]])
        stepped = svgd_step(Y, STD_NORMAL, p)
        # k(y, y) = 1, repulsion empty: y + eta * score = 2 - 0.25 * 2
        assert stepped[0, 0] == 2.0 + 0.25 * (-2.0)

    def test_translation_equivariance(self):
        # Shifting the target and particles together shifts the update.
        t0 = make_benchmark("gmm", 2, seed=12)
        shift = np.array([2.5, -1.25])
        g = t0.analytic
        t1 = from_gmm(GmmTarget(weights=g.weights, means=g.means + shift,
                                covs=g.covs))
        p = SvgdParams(eta=0.1, bandwidth=0.5)
        Y = np.random.default_rng(112).uniform(0.0, 7.5, size=(8, 2))
        a = svgd_step(Y, t0, p) + shift
        b = svgd_step(Y + shift, t1, p)
        np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-12)

    def test_mirror_symmetry(self):
        # The standard normal is even, so the update commutes with y -> -y.
        p = SvgdParams(eta=0.2, bandwidth=0.7)
        Y = np.random.default_rng(113).standard_normal((6, 1))
        np.testing.assert_allclose(
            svgd_step(-Y, STD_NORMAL, p), -svgd_step(Y, STD_NORMAL, p),
            rtol=1e-13, atol=1e-15
        )

    def test_normalization_invariance_is_exact(self):
        t = make_benchmark("gmm", 2, seed=12)
        p = SvgdParams(eta=0.1)
        Y = np.random.default_rng(114).uniform(0.0, 7.5, size=(7, 2))
        assert np.array_equal(
            svgd_step(Y, t.with_offset(123.0), p), svgd_step(Y, t, p)
        )

    def test_pure_repulsion_spreads_particles(self):
        # Flat density: no attraction, so close particles move apart.
        flat = TargetDensity(
            dim=1,
            base_log_density=lambda x: np.zeros(x.shape[0]),
            base_log_density_and_score=lambda x: (np.zeros(x.shape[0]),
                                                  np.zeros_like(x)),
        )
        Y = np.array([[-0.1], [0.1]])
        stepped = svgd_step(Y, flat, SvgdParams(eta=0.1, bandwidth=1.0))
        assert stepped[1, 0] - stepped[0, 0] > 0.2


class TestRunSvgd:
    def test_deterministic_uniform_weights_and_counters(self):
        t = make_benchmark("gmm", 2, seed=12)
        p = SvgdParams(eta=0.5, T=25)
        Y0 = np.random.default_rng(115).uniform(0.0, 7.5, size=(10, 2))
        steps = []
        final_a, after = run_svgd(
            t, p, Y0, callbacks=[lambda it, Y, w, d: steps.append((w, d))])
        final_b, _ = run_svgd(t, p, Y0)
        assert np.array_equal(final_a.Y, final_b.Y)
        assert np.array_equal(final_a.w, np.full(10, 0.1))
        assert steps == [(None, {"density_evals": 0, "score_evals": 10,
                                 "frozen": []})] * 25
        assert after == {"density_evals": 0, "score_evals": 0}

    def test_contracts_toward_single_gaussian(self):
        p = SvgdParams(eta=0.5, T=300)
        Y0 = np.linspace(-4.0, 4.0, 12)[:, None]
        final, _ = run_svgd(STD_NORMAL, p, Y0)
        assert abs(final.Y.mean()) < 0.2
        assert 0.5 < final.Y.std() < 1.5

    def test_divergence_names_particles_and_iteration(self):
        p = SvgdParams(eta=1e300, T=5, bandwidth=1.0)
        Y0 = np.array([[1.0], [2.0]])
        seen = []
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(DivergedRunError,
                               match=r"particle\(s\) \[0, 1\] at "
                                     r"iteration \d"):
                run_svgd(STD_NORMAL, p, Y0,
                         callbacks=[lambda it, Y, w, d: seen.append(it)])
        # the iteration that diverged was seen by the callbacks
        assert seen and seen == list(range(len(seen)))

    def test_callbacks_see_every_iteration(self):
        seen = []
        p = SvgdParams(eta=0.1, T=3)
        run_svgd(STD_NORMAL, p, np.zeros((2, 1)),
                 callbacks=[lambda it, Y, w, diag: seen.append(it)])
        assert seen == [0, 1, 2]


class TestConsensus:
    def test_equal_densities_give_mean(self):
        flat = TargetDensity(
            dim=2,
            base_log_density=lambda x: np.zeros(np.atleast_2d(x).shape[0]),
        )
        Y = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 3.0]])
        c = consensus_point(Y, flat, CbsParams())
        np.testing.assert_allclose(c, Y.mean(axis=0), rtol=1e-14)

    def test_large_beta_selects_argmax(self):
        t = STD_NORMAL
        Y = np.array([[0.1], [1.0], [3.0]])
        c = consensus_point(Y, t, CbsParams(beta=1e4))
        assert c[0] == pytest.approx(0.1, abs=1e-8)

    def test_normalization_invariance(self):
        t = make_benchmark("gmm", 2, seed=12)
        Y = np.random.default_rng(116).uniform(0.0, 7.5, size=(6, 2))
        p = CbsParams(beta=0.9)
        # beta multiplies the offset log-density before the softmax's
        # max-subtraction, so the cancellation is near-exact, not bitwise
        np.testing.assert_allclose(
            consensus_point(Y, t.with_offset(77.0), p),
            consensus_point(Y, t, p),
            rtol=1e-12,
        )

    @pytest.mark.parametrize("beta", [0.9, 1.0, 37.5, 1e4])
    def test_weights_match_scipy_softmax_bits(self, beta):
        # With Y the identity the consensus point is the weight vector.
        softmax = pytest.importorskip("scipy.special").softmax
        rng = np.random.default_rng(117)
        for logp in (
            np.array([-3.2, 0.7, -np.inf, 5.1, -1e3, 0.7000000001]),
            np.array([-np.inf, -np.inf, 2.0]),
            rng.normal(0.0, 50.0, size=40),
            np.array([-7.5]),
        ):
            t = TargetDensity(
                dim=logp.size,
                base_log_density=lambda x, logp=logp: logp.copy(),
            )
            Y = np.eye(logp.size)
            c = consensus_point(Y, t, CbsParams(beta=beta))
            assert c.tobytes() == (softmax(beta * logp) @ Y).tobytes()

    def test_all_minus_inf_raises(self):
        nowhere = TargetDensity(
            dim=1,
            base_log_density=lambda x: np.full(
                np.atleast_2d(x).shape[0], -np.inf
            ),
        )
        with pytest.raises(DegenerateConsensusError):
            consensus_point(np.zeros((3, 1)), nowhere, CbsParams())


class TestCbs:
    def test_noise_free_full_step_collapses_to_consensus(self):
        t = STD_NORMAL
        p = CbsParams(eta=1.0, noise_scale=0.0)
        Y = np.array([[-1.0], [0.5], [2.0]])
        c = consensus_point(Y, t, p)
        stepped = cbs_step(Y, t, p, np.random.default_rng(0))
        np.testing.assert_allclose(stepped, np.broadcast_to(c, (3, 1)),
                                   rtol=1e-14)

    def test_noise_free_step_is_deterministic_contraction(self):
        t = STD_NORMAL
        p = CbsParams(eta=0.25, noise_scale=0.0)
        Y = np.array([[-2.0], [4.0]])
        c = consensus_point(Y, t, p)
        stepped = cbs_step(Y, t, p, np.random.default_rng(0))
        np.testing.assert_allclose(stepped, Y - 0.25 * (Y - c), rtol=1e-14)

    def test_noise_scale_controls_spread(self):
        t = STD_NORMAL
        Y = np.array([[-2.0], [4.0]])
        rng_state = 42
        small = cbs_step(Y, t, CbsParams(eta=0.25, noise_scale=0.1),
                         np.random.default_rng(rng_state))
        big = cbs_step(Y, t, CbsParams(eta=0.25, noise_scale=1.0),
                       np.random.default_rng(rng_state))
        drift = cbs_step(Y, t, CbsParams(eta=0.25, noise_scale=0.0),
                         np.random.default_rng(rng_state))
        np.testing.assert_allclose(
            (big - drift), 10.0 * (small - drift), rtol=1e-12, atol=1e-12
        )

    def test_run_deterministic_and_counts_density_evals(self):
        t = make_benchmark("gmm", 2, seed=12)
        p = CbsParams(eta=0.3, T=20, seed=5)
        Y0 = np.random.default_rng(117).uniform(0.0, 7.5, size=(8, 2))
        steps = []
        final_a, after = run_cbs(
            t, p, Y0, callbacks=[lambda it, Y, w, d: steps.append((w, d))])
        final_b, _ = run_cbs(t, p, Y0)
        assert np.array_equal(final_a.Y, final_b.Y)
        assert np.array_equal(final_a.w, np.full(8, 0.125))
        assert steps == [(None, {"density_evals": 8, "score_evals": 0,
                                 "frozen": []})] * 20
        assert after == {"density_evals": 0, "score_evals": 0}
        other = run_cbs(t, CbsParams(eta=0.3, T=20, seed=6), Y0)[0]
        assert not np.array_equal(other.Y, final_a.Y)

    def test_run_contracts_to_high_density_region(self):
        t = STD_NORMAL
        p = CbsParams(beta=2.0, eta=0.5, T=200, noise_scale=0.3, seed=1)
        Y0 = np.linspace(-6.0, 6.0, 10)[:, None]
        final, _ = run_cbs(t, p, Y0)
        assert np.all(np.abs(final.Y) < 3.0)
