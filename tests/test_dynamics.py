"""The damped mean-shift particle iteration and its penalized objective."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import msip.targets
from msip.dynamics import (
    ESTIMATORS,
    MsipParams,
    iterate,
    msip_step,
    objective,
    objective_gradient,
    run_msip,
)
from msip.errors import (
    AnalyticUnavailableError,
    DegenerateWeightError,
    DivergedRunError,
    NonFiniteDensityError,
)
from msip.embeddings import estimate_embeddings, mc_inner_quadrature
from msip.harness import build_params, parse_config
from msip.kernel import KernelSpec, gram, solve, workspace
from msip.targets import (
    GmmTarget,
    TargetDensity,
    from_gmm,
    gmm_v0,
    make_benchmark,
    normalized,
    reference_samples,
)

STD_NORMAL = from_gmm(
    GmmTarget(weights=np.array([1.0]), means=np.zeros((1, 1)),
              covs=np.ones((1, 1, 1))),
    name="std-normal",
)


# the mixtures of the map-gradient identity, by name
GRADIENT_TARGETS = {
    "gmm5-aniso-2d": make_benchmark("gmm5-aniso-2d", 2),
    "gmm": make_benchmark("gmm", 2, seed=0),
    "gmm-d10": make_benchmark("gmm", 10, seed=0),
}


def params(**kw):
    kw.setdefault("kernel", KernelSpec(sigma=0.5, lam=1e-6))
    kw.setdefault("estimator", "analytic")
    return MsipParams(**kw)


class TestMsipParams:
    def test_defaults(self):
        p = params()
        assert p.eta == 0.5 and p.T == 1000 and p.Q == 10
        assert p.gamma == 0.5 and p.bounds is None

    @pytest.mark.parametrize("eta", [0.0, -0.5, 1.5])
    def test_step_size_outside_half_open_interval_rejected(self, eta):
        # eta = 0 would freeze the iteration entirely, so the full step
        # eta = 1 is allowed but a zero step is not.
        with pytest.raises(ValueError, match="eta"):
            params(eta=eta)

    def test_full_step_allowed(self):
        assert params(eta=1.0).eta == 1.0

    def test_other_validation(self):
        with pytest.raises(ValueError, match="T"):
            params(T=0)
        with pytest.raises(ValueError, match="estimator"):
            params(estimator="exact")
        with pytest.raises(ValueError, match="Q"):
            params(Q=0)
        with pytest.raises(ValueError, match="gamma"):
            params(gamma=1.2)
        with pytest.raises(ValueError, match="bounds"):
            params(bounds=(3.0, -3.0))
        assert set(ESTIMATORS) == {
            "fredholm", "stein", "gf", "hybrid", "analytic"
        }


class TestMap:
    """The map Psi, as the step with eta = 1 and no bounds."""

    def test_single_gaussian_single_particle_value(self):
        # For a standard normal with M = 1, lam = 0, sigma = 1 the map is
        # the blurred posterior mean y / 2, so Psi(2) = 1.
        p = params(kernel=KernelSpec(sigma=1.0, lam=0.0), eta=1.0)
        psi, _, _ = msip_step(np.array([[2.0]]), STD_NORMAL, p)
        assert psi[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_permutation_equivariance(self):
        target = make_benchmark("gmm", 2, seed=3)
        p = params(eta=1.0)
        rng = np.random.default_rng(91)
        Y = rng.uniform(0.0, 7.5, size=(10, 2))
        perm = rng.permutation(10)
        psi, _, _ = msip_step(Y, target, p)
        psi_p, _, _ = msip_step(Y[perm], target, p)
        np.testing.assert_allclose(psi_p, psi[perm], rtol=1e-10,
                                   atol=1e-12)

    def test_normalization_offset_leaves_map_unchanged(self):
        target = make_benchmark("gmm", 2, seed=3)
        Y = np.random.default_rng(92).uniform(0.0, 7.5, size=(8, 2))
        for estimator in ("analytic", "stein", "gf"):
            p = params(estimator=estimator, eta=1.0)
            base, _, _ = msip_step(Y, target, p)
            for c in (-40.0, 40.0):
                shifted, _, _ = msip_step(Y, target.with_offset(c), p)
                np.testing.assert_allclose(shifted, base, rtol=1e-10,
                                           atol=1e-12)

    def test_degenerate_weight_raises_with_indices(self):
        target = make_benchmark("gmm", 2, seed=3)
        Y = np.vstack([
            reference_samples(target, 5, seed=93),
            [[500.0, 500.0]],
        ])
        with pytest.raises(DegenerateWeightError) as info:
            msip_step(Y, target, params(eta=1.0))
        assert info.value.particles == [5]
        assert "particle(s) [5]" in str(info.value)


class TestStep:
    def test_full_step_returns_map_output(self):
        # Psi(Y) = Z / w with K_lambda w = v0 and K_lambda Z = v1
        target = make_benchmark("gmm", 2, seed=3)
        Y = np.random.default_rng(94).uniform(0.0, 7.5, size=(6, 2))
        p = params(eta=1.0)
        est = estimate_embeddings(target, Y, p.kernel.sigma, None,
                                  "analytic")
        G = gram(Y, p.kernel)
        psi = solve(G, est.v1_hat) / solve(G, est.v0_hat)[:, None]
        Y_next, _, _ = msip_step(Y, target, p)
        assert np.array_equal(Y_next, psi)

    def test_half_step_on_single_gaussian(self):
        # y0 = 2 with Psi = 1 and eta = 1/2 lands exactly on 1.5.
        p = params(kernel=KernelSpec(sigma=1.0, lam=0.0), eta=0.5)
        Y_next, _, _ = msip_step(np.array([[2.0]]), STD_NORMAL, p)
        assert Y_next[0, 0] == pytest.approx(1.5, abs=1e-12)

    def test_bounds_clamp(self):
        p = params(kernel=KernelSpec(sigma=1.0, lam=0.0), eta=1.0,
                   bounds=(-0.1, 0.1))
        Y_next, _, _ = msip_step(np.array([[2.0]]), STD_NORMAL, p)
        assert Y_next[0, 0] == 0.1

    def test_bounds_clamp_is_clip_bit_for_bit(self):
        # Bounds taken from the unbounded step's own outputs, so that some
        # values sit exactly at a bound, some beyond it and some inside.
        target = make_benchmark("gmm", 2, seed=3)
        Y = np.random.default_rng(100).uniform(-2.0, 9.5, size=(40, 2))
        free, _, _ = msip_step(Y, target, params())
        values = np.sort(free, axis=None)
        for lo, hi in ((values[10], values[-10]), (values[0], values[-1]),
                       (-1e-3, 1e-3), (values[39], values[40])):
            clamped, _, _ = msip_step(Y, target, params(bounds=(lo, hi)))
            expected = np.clip(free, lo, hi)
            assert clamped.tobytes() == expected.tobytes()
            assert np.any(clamped == lo) and np.any(clamped == hi)

    def test_freeze_keeps_degenerate_particle_in_place(self):
        target = make_benchmark("gmm", 2, seed=3)
        near = reference_samples(target, 5, seed=95)
        far = np.array([[500.0, 500.0]])
        Y = np.vstack([near, far])
        p = params()
        Y_next, w, diag = msip_step(Y, target, p, degenerate="freeze")
        assert diag["frozen"] == [5]
        assert np.array_equal(Y_next[5], Y[5])
        assert not np.allclose(Y_next[:5], Y[:5])
        # the other rows are the damped map, with the weights it returns
        est = estimate_embeddings(target, Y, p.kernel.sigma, None,
                                  "analytic")
        w_ref, Z = solve(gram(Y, p.kernel), est.v0_hat, est.v1_hat)
        assert w.tobytes() == w_ref.tobytes()
        moved = (1.0 - p.eta) * Y[:5] + p.eta * (Z[:5] / w_ref[:5, None])
        assert Y_next[:5].tobytes() == moved.tobytes()

    def test_non_finite_map_names_particles_and_iteration(self):
        hot = TargetDensity(
            dim=1,
            base_log_density=lambda x: np.full(x.shape[0], 1.0e4),
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(
                    DivergedRunError,
                    match=r"particle\(s\) \[0, 1, 2\] at iteration 5$"):
                msip_step(np.array([[0.0], [1.0], [2.0]]), hot,
                          params(estimator="gf", Q=3), iteration=5)

    def test_degenerate_weight_names_iteration(self):
        target = make_benchmark("gmm", 2, seed=3)
        Y = np.vstack([reference_samples(target, 5, seed=93),
                       [[500.0, 500.0]]])
        with pytest.raises(DegenerateWeightError) as info:
            msip_step(Y, target, params(eta=1.0), iteration=7)
        assert info.value.particles == [5]
        assert info.value.iteration == 7
        assert str(info.value).endswith("particle(s) [5] at iteration 7")


def frozen_log(log):
    """A run callback appending each step's frozen indices to log."""
    return lambda it, Y, w, diag: log.append(diag["frozen"])


class TestIterate:
    def test_calls_step_then_callbacks_and_returns_last(self):
        calls = []

        def step(Y, it):
            calls.append(("step", it))
            return Y + 1.0, np.full(2, it), {"it": it}

        def cb(it, Y, w, diag):
            calls.append(("cb", it, Y[0, 0], w[0], diag["it"]))

        Y0 = np.zeros((2, 1))
        Y_T = iterate(step, Y0, 3, [cb])
        assert calls == [("step", 0), ("cb", 0, 0.0, 0, 0),
                         ("step", 1), ("cb", 1, 1.0, 1, 1),
                         ("step", 2), ("cb", 2, 2.0, 2, 2)]
        assert np.array_equal(Y_T, np.full((2, 1), 3.0))
        assert np.array_equal(Y0, np.zeros((2, 1)))

    def test_divergence_raised_after_callbacks(self):
        def step(Y, it):
            Y_next = Y.copy()
            if it == 2:
                Y_next[1, 0] = np.inf
                Y_next[3, 1] = np.nan
            return Y_next, None, {}

        seen = []
        with pytest.raises(DivergedRunError,
                           match=r"particle\(s\) \[1, 3\] at iteration 2"):
            iterate(step, np.zeros((4, 2)), 5,
                    [lambda it, Y, w, diag: seen.append(it)])
        assert seen == [0, 1, 2]

    def test_step_error_propagates_before_callbacks(self):
        def step(Y, it):
            if it == 1:
                raise DivergedRunError("from the step")
            return Y, None, {}

        seen = []
        with pytest.raises(DivergedRunError, match="from the step"):
            iterate(step, np.zeros((1, 1)), 3,
                    [lambda it, Y, w, diag: seen.append(it)])
        assert seen == [0]

    def test_rejects_non_finite_start(self):
        with pytest.raises(ValueError, match="finite"):
            iterate(lambda Y, it: (Y, None, {}), np.array([[np.inf]]), 1)


class TestRun:
    def test_deterministic_and_final_weights_consistent(self):
        target = make_benchmark("gmm", 2, seed=3)
        p = params(estimator="stein", Q=5, T=20, seed=11)
        Y0 = reference_samples(target, 8, seed=97)
        frozen = []
        final_a, _ = run_msip(target, p, Y0, callbacks=[frozen_log(frozen)])
        final_b, _ = run_msip(target, p, Y0)
        assert np.array_equal(final_a.Y, final_b.Y)
        assert np.array_equal(final_a.w, final_b.w)
        assert frozen == [[]] * p.T
        assert np.array_equal(
            final_a.w, msip_step(final_a.Y, target, p, iteration=p.T)[1]
        )

    @pytest.mark.parametrize("estimator", ["fredholm", "gf"])
    def test_final_weights_are_the_solve_of_v0_alone(self, estimator):
        # The final solve at Y_T stacks v1 beside v0; w keeps the bits of
        # the solve of v0 alone, with the inner rule of iteration T.
        target = make_benchmark("gmm", 2, seed=3)
        p = params(estimator=estimator, Q=5, T=6, seed=12)
        final, _ = run_msip(target, p, reference_samples(target, 8, seed=96))
        rule = None if estimator == "fredholm" \
            else mc_inner_quadrature(p.Q, 2, [p.seed, 1, p.T])
        v0 = estimate_embeddings(target, final.Y, p.kernel.sigma, rule,
                                 estimator).v0_hat
        assert final.w.tobytes() == solve(gram(final.Y, p.kernel),
                                          v0).tobytes()
        # and owns its memory, rather than viewing the stacked [w | Z]
        assert final.w.base is None

    def test_positions_and_callbacks(self):
        target = make_benchmark("gmm", 2, seed=3)
        p = params(T=4)
        Y0 = reference_samples(target, 5, seed=98)
        seen = []
        final, _ = run_msip(
            target, p, Y0,
            callbacks=[lambda it, Y, w, diag: seen.append((it, Y, w))],
        )
        # call it sees Y_it with the weights step it solved there
        assert [it for it, _, _ in seen] == [0, 1, 2, 3]
        assert np.array_equal(seen[0][1], Y0)
        for it, Y, w in seen:
            Y_next, w_it, _ = msip_step(Y, target, p, iteration=it,
                                        degenerate="freeze")
            assert np.array_equal(w, w_it)
            following = seen[it + 1][1] if it + 1 < p.T else final.Y
            assert np.array_equal(following, Y_next)

    def test_lent_workspace_keeps_every_bit(self):
        # Steps and the final solve in one lent workspace, stale from an
        # earlier use, give the bits of steps that allocate their own
        # Gram and factor; M = 130 spans three row blocks.
        target = make_benchmark("gmm", 3, seed=3)
        p = params(estimator="fredholm", T=4)
        Y0 = reference_samples(target, 130, seed=95)

        def run(**kw):
            seen = []
            final, _ = run_msip(
                target, p, Y0,
                callbacks=[lambda it, Y, w, diag: seen.append(w.copy())],
                **kw)
            return final, seen

        work = workspace(130)
        work[0].fill(np.nan)
        work[1].fill(np.nan)
        lent, lent_ws = run(work=work)
        own, own_ws = run()
        ref_ws = []
        Y = iterate(
            lambda Y, it: msip_step(Y, target, p, iteration=it,
                                    degenerate="freeze"),
            Y0, p.T,
            callbacks=[lambda it, Y, w, diag: ref_ws.append(w)])
        assert lent.Y.tobytes() == own.Y.tobytes() == Y.tobytes()
        assert lent.w.tobytes() == own.w.tobytes() \
            == msip_step(Y, target, p, iteration=p.T)[1].tobytes()
        for ws in (lent_ws, own_ws):
            assert [w.tobytes() for w in ws] == [w.tobytes() for w in ref_ws]
        # the final solve assembled its Gram matrix in the lent buffer
        assert work[0].tobytes() == gram(Y, p.kernel).tobytes()

    def test_degenerate_weights_freeze_and_flag_status(self):
        target = make_benchmark("gmm", 2, seed=3)
        Y0 = np.vstack([
            reference_samples(target, 5, seed=99),
            [[500.0, 500.0]],
        ])
        p = params(T=3)
        frozen = []
        final, _ = run_msip(target, p, Y0, callbacks=[frozen_log(frozen)])
        assert [5] in frozen
        assert np.array_equal(final.Y[5], Y0[5])

    def test_diverged_run_names_particles_and_iteration(self):
        # A wildly super-exponential density overflows the embeddings; the
        # resulting non-finite map must abort the run.
        hot = TargetDensity(
            dim=1,
            base_log_density=lambda x: np.full(
                np.atleast_2d(x).shape[0], 1.0e4
            ),
        )
        p = params(estimator="gf", Q=3, T=10)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergedRunError,
                               match=r"particle\(s\) \[.*\] at iteration 0"):
                run_msip(hot, p, np.zeros((4, 1)))

    def test_non_finite_density_names_particles_and_iteration(self):
        # The log-density turns NaN at the probes of particles 1 and 3 from
        # the fourth evaluation on, the one of iteration 3.
        calls = []

        def logp(x):
            calls.append(x.shape[0])
            out = -0.5 * x[:, 0] ** 2
            if len(calls) > 3:
                out[3:6] = np.nan
                out[9:] = np.nan
            return out

        sick = TargetDensity(dim=1, base_log_density=logp)
        p = params(estimator="gf", Q=3, T=10)
        seen = []
        with pytest.raises(NonFiniteDensityError) as info:
            run_msip(sick, p, np.linspace(-1.0, 1.0, 4)[:, None],
                     callbacks=[lambda it, Y, w, diag: seen.append(it)])
        assert info.value.iteration == 3
        assert info.value.particles == [1, 3]
        assert str(info.value).endswith("particle(s) [1, 3] at iteration 3")
        assert seen == [0, 1, 2]
        # outside a run the error names no iteration
        with pytest.raises(NonFiniteDensityError) as info:
            estimate_embeddings(sick, np.zeros((4, 1)), 0.5,
                                np.zeros((3, 1)), "gf")
        assert info.value.iteration is None
        assert str(info.value).endswith("particle(s) [1, 3]")

    def test_rejects_non_finite_start(self):
        with pytest.raises(ValueError, match="finite"):
            run_msip(STD_NORMAL, params(), np.array([[np.nan]]))

    def test_counts_evaluations(self):
        target = make_benchmark("gmm", 2, seed=3)
        p = params(estimator="stein", Q=4, T=3)
        steps = []
        _, after = run_msip(target, p, np.zeros((5, 2)),
                            callbacks=[lambda it, Y, w, d: steps.append(d)])
        # T steps plus the final re-solve, 5 particles x 4 nodes each
        for key in ("density_evals", "score_evals"):
            assert [d[key] for d in steps] == [20] * 3
            assert after[key] == 20

    @pytest.mark.parametrize("algorithm,points", [("msip-f", 6),
                                                  ("msip-gi", 6 * 10)])
    def test_one_mixture_pass_per_step(self, monkeypatch, algorithm, points):
        # The log-density and the score of every probe come from one
        # evaluation of the mixture.
        cfg = parse_config(json.dumps({
            "target": {"name": "gmm", "dim": 2},
            "algorithm": {"name": algorithm}, "particles": {"M": 6},
        }))
        p = build_params(cfg, seed=0)
        target = make_benchmark("gmm", 2)
        calls = []

        def counted(t, X, chols, score=False):
            calls.append(X.shape[0])
            return mixture(t, X, chols, score)

        mixture = msip.targets._mixture
        monkeypatch.setattr(msip.targets, "_mixture", counted)
        Y = np.random.default_rng(4).uniform(0.0, 7.5, size=(6, 2))
        _, _, diag = msip_step(Y, target, p)
        assert calls == [points]
        assert (diag["density_evals"], diag["score_evals"]) == (points,
                                                                points)


class TestObjective:
    def test_single_particle_value(self):
        # M = 1, lam = 0, y = 0 on the standard normal with sigma = 1:
        # F = (1/sqrt(3) - 1/2) / 2.
        p = params(kernel=KernelSpec(sigma=1.0, lam=0.0))
        val = objective(np.array([[0.0]]), STD_NORMAL, p)
        expected = 0.5 * (1.0 / math.sqrt(3.0) - 0.5)
        assert val == pytest.approx(expected, rel=1e-12)
        assert val == pytest.approx(0.0386751, abs=5e-8)

    def test_nonnegative_and_permutation_invariant(self):
        target = make_benchmark("gmm", 2, seed=3)
        p = params()
        rng = np.random.default_rng(101)
        for _ in range(10):
            Y = rng.uniform(0.0, 7.5, size=(12, 2))
            val = objective(Y, target, p)
            assert val >= -1e-12
            perm = rng.permutation(12)
            assert objective(Y[perm], target, p) == pytest.approx(
                val, rel=1e-10, abs=1e-14
            )

    def test_invariant_to_mixture_mass_and_offset(self):
        t = make_benchmark("gmm", 2, seed=3).analytic
        scaled = from_gmm(
            GmmTarget(weights=7.0 * t.weights, means=t.means, covs=t.covs)
        )
        base = from_gmm(t)
        Y = np.random.default_rng(102).uniform(0.0, 7.5, size=(6, 2))
        p = params()
        assert objective(Y, scaled, p) == pytest.approx(
            objective(Y, base, p), rel=1e-12
        )
        np.testing.assert_allclose(
            objective_gradient(Y, scaled, p),
            objective_gradient(Y, base, p),
            rtol=1e-12,
        )
        shifted = base.with_offset(40.0)
        assert objective(Y, shifted, p) == pytest.approx(
            objective(Y, base, p), rel=1e-12
        )

    def test_gradient_matches_finite_differences(self):
        target = make_benchmark("gmm", 2, seed=3)
        p = params()
        Y = reference_samples(target, 5, seed=103) \
            + 0.3 * np.random.default_rng(104).standard_normal((5, 2))
        G = objective_gradient(Y, target, p)
        h = 1e-5
        fd = np.empty_like(Y)
        for i in range(5):
            for j in range(2):
                Yp, Ym = Y.copy(), Y.copy()
                Yp[i, j] += h
                Ym[i, j] -= h
                fd[i, j] = (objective(Yp, target, p)
                            - objective(Ym, target, p)) / (2.0 * h)
        assert np.linalg.norm(G - fd) <= 1e-6 * max(np.linalg.norm(G),
                                                    1e-12)

    @settings(derandomize=True, database=None, deadline=None,
              max_examples=60)
    @given(name=st.sampled_from(sorted(GRADIENT_TARGETS)),
           M=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
    def test_map_is_a_preconditioned_gradient_step(self, name, M, seed):
        # grad F = sigma^-2 W K_lambda W (Y - Psi(Y)), with W = diag(w) the
        # weights of the unit-mass mixture; jittered target draws, as in
        # the acceptance gradient check, keep every weight far from 0
        target = GRADIENT_TARGETS[name]
        p = params(eta=1.0)
        Y = reference_samples(target, M, seed) + 0.5 * \
            np.random.default_rng(seed).standard_normal((M, target.dim))
        psi = msip_step(Y, target, p)[0]
        K = gram(Y, p.kernel)
        w = solve(K, gmm_v0(normalized(target.analytic), Y, p.kernel.sigma))
        lhs = w[:, None] * (K @ (w[:, None] * (Y - psi))) \
            / p.kernel.sigma**2
        G = objective_gradient(Y, target, p)
        assert np.linalg.norm(lhs - G) <= 1e-10 * np.linalg.norm(G)

    def test_gradient_small_at_long_run_limit(self):
        # moderate step size and bandwidth: aggressive settings (eta near
        # 1, sigma comparable to the particle spacing) oscillate or eject
        # particles instead of settling on the fixed point
        p = params(kernel=KernelSpec(sigma=0.5, lam=1e-6), eta=0.5, T=800)
        Y0 = np.linspace(-2.0, 2.0, 5)[:, None]
        frozen = []
        final, _ = run_msip(STD_NORMAL, p, Y0, callbacks=[frozen_log(frozen)])
        assert not any(frozen)
        g = objective_gradient(final.Y, STD_NORMAL, p)
        assert np.linalg.norm(g) <= 1e-8 * (1.0 + np.linalg.norm(final.Y))

    def test_requires_analytic_embeddings(self):
        funnel = make_benchmark("funnel", 2)
        p = params()
        with pytest.raises(AnalyticUnavailableError):
            objective(np.zeros((3, 2)), funnel, p)
        with pytest.raises(AnalyticUnavailableError):
            objective_gradient(np.zeros((3, 2)), funnel, p)
        with pytest.raises(AnalyticUnavailableError):
            msip_step(np.zeros((3, 2)), funnel, params(estimator="analytic"))


class TestDescentBehavior:
    def test_objective_almost_always_decreases(self):
        # Soft property: the damped iteration is not a literal descent
        # method, but across seeded runs the objective should decrease on
        # at least 95% of iterations (tolerance 1e-12 per step).
        target = make_benchmark("gmm", 2, seed=0)
        p = params(eta=0.5, T=150)
        total = 0
        violations = 0
        for run in range(20):
            Y = np.random.default_rng([105, run]).normal(
                3.75, 2.0, size=(25, 2)
            )
            prev = objective(Y, target, p)
            for it in range(p.T):
                Y, _, _ = msip_step(Y, target, p, iteration=it,
                                    degenerate="freeze")
                cur = objective(Y, target, p)
                total += 1
                if cur > prev + 1e-12 * (1.0 + abs(prev)):
                    violations += 1
                prev = cur
        assert violations <= 0.05 * total, (
            f"{violations}/{total} iterations increased the objective"
        )
