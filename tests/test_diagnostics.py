import numpy as np
import pytest

import semigrad as sg
from semigrad import TimeGrid
from semigrad.diagnostics import (constraint_violation, curvature_rho, evaluate_hp,
                                  exact_form_residuals,
                                  finite_difference_oracle,
                                  gronwall_gradient_bound, hp_report,
                                  martingale_mean_check, moment_bound_check,
                                  sobolev_norm_check, variation_moment)
from semigrad.errors import DimensionMismatch, InvalidConfig, UnsupportedModel, ZeroDirection
from semigrad.models import make_flat_model, with_fd_derivatives

from conftest import make_cubic_blowup_model, make_sine_noise_model

GRID = TimeGrid(1.0, 400)


class TestEvaluateHp:
    def test_bm_is_zero(self, bm1):
        for form in ("rn_ito", "manifold", "section2_H2", "section3_H2"):
            assert evaluate_hp(bm1, 2.0, [0.3], [1.0], form=form) == 0.0

    def test_unknown_form_rejected(self, bm1):
        with pytest.raises(InvalidConfig, match="bogus"):
            evaluate_hp(bm1, 2.0, [0.3], [1.0], form="bogus")

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    def test_ou_is_minus_two(self, ou, p):
        assert evaluate_hp(ou, p, [0.5], [1.0], form="rn_ito") == -2.0
        assert evaluate_hp(ou, p, [0.5], [1.0], form="manifold") == -2.0

    def test_section2_equals_p3(self):
        model = make_sine_noise_model()
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.standard_normal(1)
            v = rng.standard_normal(1)
            if abs(v[0]) < 1e-3:
                continue
            a = evaluate_hp(model, 3.0, x, v, form="rn_ito")
            b = evaluate_hp(model, 2.0, x, v, form="section2_H2")
            assert abs(a - b) < 1e-12

    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_sphere_closed_form(self, sphere, p):
        # on S^(n-1) both printed forms evaluate to p - n + 1
        rng = np.random.default_rng(3)
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        v = rng.standard_normal(3)
        v -= np.dot(v, x) * x
        for form in ("rn_ito", "manifold"):
            val = evaluate_hp(sphere, p, x, v, form=form)
            assert abs(val - (p - 2.0)) < 1e-12

    def test_so3_bi_invariant_balance(self, so3):
        # the curvature term -s^2/2 exactly cancels the frame-derivative term
        from semigrad.models import skew_from_axis

        rep = hp_report(so3, 2.0, form="manifold", n_samples=32, seed=1)
        assert abs(rep.sup_estimate) < 1e-12
        v = skew_from_axis(np.array([1.0, 0.0, 0.0])).reshape(-1)
        assert abs(evaluate_hp(so3, 4.0, np.eye(3).reshape(-1), v,
                               form="manifold")) < 1e-12

    def test_matches_fd_coefficients(self, sphere):
        # declared-derivative value vs finite-difference derivatives of X
        bare = make_flat_model(3, 3, X=sphere.X, Z=sphere.Z)
        fd = with_fd_derivatives(bare)
        rng = np.random.default_rng(4)
        x = rng.standard_normal(3)
        x /= np.linalg.norm(x)
        v = rng.standard_normal(3)
        a = evaluate_hp(sphere, 2.0, x, v, form="rn_ito")
        b = evaluate_hp(fd, 2.0, x, v, form="rn_ito")
        assert abs(a - b) < 1e-5

    @pytest.mark.parametrize("name,x,v", [("bm1", [0.0, 1.0], [1.0]), ("bm1", [0.0], [1.0, 2.0]),
                                          ("sphere", [1.0, 0.0], [0.0, 1.0, 0.0]),
                                          ("sphere", [1.0, 0.0, 0.0], [0.0, 1.0])])
    def test_wrong_dimension_rejected(self, request, name, x, v):
        # a point or direction of the wrong length is an error, not H_p = 0
        with pytest.raises(DimensionMismatch):
            evaluate_hp(request.getfixturevalue(name), 2.0, x, v)

    def test_zero_direction_rejected(self, bm1):
        with pytest.raises(ZeroDirection):
            evaluate_hp(bm1, 2.0, [0.0], [0.0])

    def test_report_needs_samples(self, sphere):
        # no sampled point would leave the supremum at -inf
        with pytest.raises(InvalidConfig, match="n_samples"):
            hp_report(sphere, 2.0, form="manifold", n_samples=0)

    def test_report_supremum(self, sphere):
        rep = hp_report(sphere, 2.0, form="manifold", n_samples=64, seed=0)
        assert len(rep.samples) == 64
        assert abs(rep.sup_estimate) < 1e-10  # p - n + 1 = 0 on S^2


class TestMomentBound:
    def test_ou_p2_equality(self, ou):
        rep = moment_bound_check(ou, GRID, [0.0], [1.0], p=2, n_paths=2000, seed=0)
        assert rep.passed
        assert abs(rep.claimed_bound - np.exp(-2)) < 1e-12
        assert rep.empirical <= rep.claimed_bound

    def test_bm_p4(self, bm1):
        rep = moment_bound_check(bm1, GRID, [0.0], [1.0], p=4, n_paths=2000, seed=1)
        assert rep.passed
        assert rep.claimed_bound == 1.0
        assert abs(rep.empirical - 1.0) < 1e-12

    def test_expanding_linear_drift(self):
        # dx = x dt + dB: H_2 = 2, bound e^2 met with equality up to dt
        model = make_flat_model(
            1, 1,
            X=lambda x: np.ones(x.shape + (1,)),
            Z=lambda x: x,
            DX=lambda x, v: np.zeros(x.shape + (1,)),
            D2X=lambda x, u, v: np.zeros(x.shape + (1,)),
            DZ=lambda x, v: v,
            D2Z=lambda x, u, v: np.zeros_like(u),
            domain=(-2.0, 2.0))
        rep = moment_bound_check(model, GRID, [0.0], [1.0], p=2,
                                 n_paths=2000, seed=2)
        assert rep.passed
        assert abs(rep.claimed_bound - np.exp(2)) < 1e-9
        assert rep.empirical <= rep.claimed_bound
        assert rep.empirical > 0.95 * rep.claimed_bound

    def test_circle_growth_rate(self, circle):
        # H_2 = 1 on the circle: E|v_t|^2 = e^t, met within Euler slack
        rep = moment_bound_check(circle, GRID, [1.0, 0.0], [0.0, 1.0], p=2,
                                 n_paths=20_000, seed=3)
        assert rep.passed
        assert abs(rep.claimed_bound - np.e) < 1e-9
        assert rep.empirical > 0.9 * np.e

    def test_sphere_constant_second_moment(self, sphere):
        rep = moment_bound_check(sphere, GRID, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0],
                                 p=2, n_paths=20_000, seed=4)
        assert rep.passed
        assert abs(rep.claimed_bound - 1.0) < 1e-9

    def test_passes_on_every_registered_scenario(self):
        import semigrad as sg
        from semigrad.models import skew_from_axis

        for sid in ("bm1d", "ou1d", "circle", "sphere3", "so3"):
            sc = sg.get_scenario(sid)
            model = sc.make()
            v0 = sc.v0
            if sid == "so3":
                v0 = skew_from_axis(sc.v0).reshape(-1)
            rep = moment_bound_check(model, TimeGrid(1.0, 300), sc.x0, v0,
                                     p=2, n_paths=8000, seed=5)
            assert rep.passed, f"{sid}: {rep.empirical} vs {rep.claimed_bound}"


class TestMartingaleCheck:
    def test_bm(self, bm1):
        rep = martingale_mean_check(bm1, GRID, [0.0], [1.0], n_paths=20_000, seed=5)
        assert rep.passed

    def test_ou_second_moment(self, ou):
        rep = martingale_mean_check(ou, GRID, [0.0], [1.0], n_paths=40_000, seed=6)
        assert rep.passed
        target = (1 - np.exp(-2)) / 2
        assert abs(rep.details["second_moment_integral"] - target) < 0.01 * target

    def test_blowup_model_warns(self):
        model = make_cubic_blowup_model()
        model.blow_up_radius = 1e4
        rep = martingale_mean_check(model, TimeGrid(1.0, 300), [1.4], [1.0],
                                    n_paths=2000, seed=7)
        assert rep.details["blowup_fraction"] > 0.01
        assert "warning" in rep.details


class TestFiniteDifferenceOracle:
    def test_bm_sin(self, bm1):
        obs = sg.get_scenario("bm1d").observables["sin"]
        r = finite_difference_oracle(bm1, obs, GRID, [0.0], [1.0],
                                     n_paths=30_000, seed=8)
        assert abs(r.mean - np.exp(-0.5)) < max(3 * r.std_error, 0.02)

    def test_constant_cancels_exactly(self, bm1):
        one = sg.get_scenario("bm1d").observables["one"]
        r = finite_difference_oracle(bm1, one, GRID, [0.0], [1.0],
                                     n_paths=500, seed=9)
        assert r.mean == 0.0 and r.std_error == 0.0

    def test_ou_linear_exact_cancellation(self, ou):
        obs = sg.get_scenario("ou1d").observables["x"]
        r = finite_difference_oracle(ou, obs, GRID, [0.0], [1.0],
                                     n_paths=500, seed=10)
        assert abs(r.mean - np.exp(-1)) < 2 * GRID.dt
        assert r.std_error < 1e-12

    @pytest.mark.parametrize("delta", [0.0, np.nan, np.inf, True, np.bool_(True)])
    def test_zero_or_nonfinite_delta_rejected(self, bm1, delta):
        obs = sg.get_scenario("bm1d").observables["sin"]
        with pytest.raises(InvalidConfig):
            finite_difference_oracle(bm1, obs, GRID, [0.0], [1.0], delta=delta,
                                     n_paths=256, seed=12)

    def test_negative_delta_is_the_same_difference(self, bm1):
        obs = sg.get_scenario("bm1d").observables["sin"]
        a, b = (finite_difference_oracle(bm1, obs, TimeGrid(1.0, 20), [0.0], [1.0],
                                         delta=d, n_paths=256, seed=12)
                for d in (1e-3, -1e-3))
        assert a.mean == b.mean

    def test_sphere_geodesic_perturbation(self, sphere):
        sc = sg.get_scenario("sphere3")
        r = finite_difference_oracle(sphere, sc.observables["height"], GRID,
                                     sc.x0, sc.v0, n_paths=30_000, seed=11)
        assert abs(r.mean - np.exp(-1)) < max(3 * r.std_error, 0.02)


class TestGronwallBound:
    def test_bm_t1(self, bm1):
        obs = sg.get_scenario("bm1d").observables["sin"]
        rep = gronwall_gradient_bound(bm1, obs, GRID, [0.0], [1.0],
                                      n_paths=20_000, seed=12)
        assert rep.passed
        # alpha -> 0 limit of the bound is 1 / sqrt(t) = 1 at t = 1
        assert abs(rep.claimed_bound - 1.0) < 1e-9

    def test_bm_short_time(self, bm1):
        obs = sg.get_scenario("bm1d").observables["sin"]
        rep = gronwall_gradient_bound(bm1, obs, TimeGrid(0.25, 100), [0.0], [1.0],
                                      n_paths=20_000, seed=13)
        assert rep.passed
        assert abs(rep.claimed_bound - 2.0) < 1e-9

    def test_constant_observable(self, bm1):
        one = sg.get_scenario("bm1d").observables["one"]
        rep = gronwall_gradient_bound(bm1, one, GRID, [0.0], [1.0],
                                      n_paths=5000, seed=14)
        assert rep.passed


class TestSobolevCheck:
    def test_circle_eigenfunction(self, circle):
        obs = sg.get_scenario("circle").observables["sin"]
        rep = sobolev_norm_check(circle, obs, TimeGrid(1.0, 200), p=2,
                                 n_grid=12, n_paths=4000, seed=15)
        assert rep.passed
        # ingredients are exact: |P_t f|_2 + |grad P_t f|_2 = 2 e^{-1/2} |sin|_2
        lhs_exact = 2 * np.exp(-0.5) * np.sqrt(0.5)
        assert abs(rep.empirical - lhs_exact) < 0.1 * lhs_exact

    def test_discontinuous_f_smoothed(self, circle):
        obs = sg.ScalarObservable(f=lambda x: np.sign(x[..., 1]), bound=1.0)
        rep = sobolev_norm_check(circle, obs, TimeGrid(1.0, 200), p=np.inf,
                                 n_grid=8, n_paths=4000, seed=16)
        assert np.isfinite(rep.empirical)
        assert rep.passed

    def test_grid_needs_points(self, circle):
        obs = sg.get_scenario("circle").observables["sin"]
        with pytest.raises(InvalidConfig, match="n_grid"):
            sobolev_norm_check(circle, obs, GRID, p=2, n_grid=0, n_paths=100, seed=0)

    def test_flat_model_rejected(self, bm1):
        obs = sg.get_scenario("bm1d").observables["sin"]
        with pytest.raises(UnsupportedModel):
            sobolev_norm_check(bm1, obs, GRID, p=2, n_paths=100, seed=0)


class TestPathwiseIdentity:
    def test_exact_form_residuals_circle(self, circle):
        obs = sg.get_scenario("circle").observables["sin"]
        grid = TimeGrid(1.0, 500)
        resid, scales = exact_form_residuals(
            circle, obs, lambda x: x[..., 1], grid, [1.0, 0.0],
            n_paths=1000, seed=17)
        tol = 5 * np.sqrt(grid.dt) * scales
        assert np.mean(resid <= tol) >= 0.99

    def test_constraint_violation_small(self, circle):
        worst = constraint_violation(circle, TimeGrid(1.0, 300), [1.0, 0.0],
                                     n_paths=10_000, seed=18)
        assert worst < 1e-9


class TestRhoHelpers:
    def test_curvature_rho_sphere(self, sphere):
        x = np.array([0.0, 0.0, 1.0])
        # Ric(v, v) = |v|^2 and the covariant drift derivative vanishes
        assert abs(curvature_rho(sphere, x) - 1.0) < 1e-9

    @pytest.mark.parametrize("s", [1.0, 2.0])
    def test_curvature_rho_so3(self, s):
        # Ric = s^2/2 in the model metric; an ambient unit vector read 0.25 at every s
        rho = curvature_rho(sg.make_so3_model(s), np.eye(3).reshape(-1))
        assert abs(rho - s * s / 2) < 1e-9

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, True])
    def test_sampled_diagnostics_reject_bad_seeds(self, bm1, sphere, seed):
        # the samplers key their generators like the noise: a typed error, not an overflow
        for model in (bm1, sphere):
            with pytest.raises(InvalidConfig, match="seed"):
                hp_report(model, 2.0, n_samples=4, seed=seed)
        with pytest.raises(InvalidConfig, match="seed"):
            curvature_rho(sphere, np.array([0.0, 0.0, 1.0]), seed=seed)

    def test_sampled_diagnostics_accept_the_top_seed(self, bm1, sphere):
        # no seed offset: the last seed draws its own points and directions
        top = 2 ** 64 - 1
        obs = sg.get_scenario("bm1d").observables["sin"]
        assert gronwall_gradient_bound(bm1, obs, TimeGrid(1.0, 10), [0.0], [1.0],
                                       n_paths=256, seed=top).passed
        rep = sobolev_norm_check(sphere, sg.get_scenario("sphere3").observables["sin"],
                                 TimeGrid(1.0, 10), p=2, n_grid=2, n_paths=256, seed=top)
        assert np.isfinite(rep.empirical)
        assert abs(curvature_rho(sphere, np.array([0.0, 0.0, 1.0]), seed=top) - 1.0) < 1e-9

    @pytest.mark.parametrize("n_dirs", [0, -1, 2.5])
    def test_curvature_rho_needs_directions(self, sphere, n_dirs):
        with pytest.raises(InvalidConfig, match="n_dirs"):
            curvature_rho(sphere, np.array([0.0, 0.0, 1.0]), n_dirs=n_dirs)

    def test_moment_helper_matches_exact(self, ou):
        res = variation_moment(ou, GRID, [0.0], [1.0], p=2, n_paths=200, seed=19)
        assert abs(res.mean - (1 - GRID.dt) ** (2 * GRID.n_steps)) < 1e-12
