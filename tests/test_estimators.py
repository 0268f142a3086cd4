import os

import numpy as np
import pytest

import semigrad as sg
from semigrad import ConditionalBinSpec, PotentialField, TimeGrid
from semigrad.errors import (AllPathsBlewUp, DimensionMismatch, EmptyBin,
                             InvalidConfig, MissingDerivative, NotLieGroup,
                             UnboundedPotential)
from semigrad.models import TimeDependentCoefficients, skew_from_axis
from semigrad.paths import noise_block, simulate, weight

from conftest import joint_tol, make_cubic_blowup_model, make_sine_noise_model

GRID = TimeGrid(1.0, 400)
N = 30_000

E_HALF = np.exp(-0.5)  # gradient of the heat-smoothed sine at the origin


def sin_obs():
    return sg.get_scenario("bm1d").observables["sin"]


class TestSemigroupValue:
    def test_bm_sin_odd_symmetry(self, bm1):
        r = sg.semigroup_value(bm1, sin_obs(), GRID, [0.0], n_paths=N, seed=0)
        assert abs(r.mean) < 3 * r.std_error

    def test_bm_sin_closed_form(self, bm1):
        r = sg.semigroup_value(bm1, sin_obs(), GRID, [np.pi / 2], n_paths=N, seed=1)
        assert abs(r.mean - E_HALF) < max(3 * r.std_error, 0.01 * E_HALF)

    def test_ou_second_moment(self, ou):
        sc = sg.get_scenario("ou1d")
        r = sg.semigroup_value(ou, sc.observables["x_sq"], GRID, [0.0],
                               n_paths=N, seed=2)
        target = (1 - np.exp(-2)) / 2
        assert abs(r.mean - target) < max(3 * r.std_error, 0.01 * target)

    def test_all_paths_blew_up(self):
        model = make_cubic_blowup_model()
        model.blow_up_radius = 10.0
        with pytest.raises(AllPathsBlewUp):
            sg.semigroup_value(model, lambda x: x[..., 0], TimeGrid(1.0, 200),
                               [5.0], n_paths=64, seed=0)


class TestPathwiseGradient:
    def test_bm_sin(self, bm1):
        r = sg.pathwise_gradient(bm1, sin_obs(), GRID, [0.0], [1.0],
                                 n_paths=N, seed=3)
        assert abs(r.mean - E_HALF) < max(3 * r.std_error, 0.01)

    def test_ou_linear_deterministic(self, ou):
        sc = sg.get_scenario("ou1d")
        r = sg.pathwise_gradient(ou, sc.observables["x"], GRID, [0.0], [1.0],
                                 n_paths=500, seed=4)
        assert abs(r.mean - np.exp(-1)) < 2 * GRID.dt
        assert r.std_error == 0.0

    def test_zero_direction(self, bm1):
        r = sg.pathwise_gradient(bm1, sin_obs(), GRID, [0.0], [0.0],
                                 n_paths=200, seed=5)
        assert r.mean == 0.0

    def test_needs_df(self, bm1):
        obs = sg.ScalarObservable(f=lambda x: x[..., 0])
        with pytest.raises(MissingDerivative):
            sg.pathwise_gradient(bm1, obs, GRID, [0.0], [1.0], n_paths=10, seed=0)


class TestBelGradient:
    def test_bm_sin_matches_pathwise(self, bm1):
        a = sg.bel_gradient(bm1, sin_obs(), GRID, [0.0], [1.0], n_paths=N, seed=6)
        b = sg.pathwise_gradient(bm1, sin_obs(), GRID, [0.0], [1.0], n_paths=N, seed=6)
        assert abs(a.mean - E_HALF) < max(3 * a.std_error, 0.01)
        assert abs(a.mean - b.mean) < joint_tol(a, b)

    def test_constant_observable_zero(self, bm1):
        one = sg.get_scenario("bm1d").observables["one"]
        r = sg.bel_gradient(bm1, one, GRID, [0.0], [1.0], n_paths=N, seed=7)
        assert abs(r.mean) < 3 * r.std_error

    def test_ou_linear(self, ou):
        sc = sg.get_scenario("ou1d")
        r = sg.bel_gradient(ou, sc.observables["x"], GRID, [0.0], [1.0],
                            n_paths=N, seed=8)
        assert abs(r.mean - np.exp(-1)) < max(3 * r.std_error, 0.01)

    def test_linearity_in_direction_bitwise(self, bm1):
        a = sg.bel_gradient(bm1, sin_obs(), GRID, [0.0], [1.0], n_paths=2000, seed=9)
        b = sg.bel_gradient(bm1, sin_obs(), GRID, [0.0], [2.0], n_paths=2000, seed=9)
        assert b.mean == 2.0 * a.mean

    def test_derivative_free(self, bm1):
        # point evaluation of f only: no df needed
        obs = sg.ScalarObservable(f=lambda x: np.sign(np.sin(x[..., 0])), bound=1.0)
        r = sg.bel_gradient(bm1, obs, GRID, [0.0], [1.0], n_paths=N, seed=10)
        assert np.isfinite(r.mean)


class TestBelHessian:
    def test_bm_sin_both_variants(self, bm1):
        for variant in ("weights", "nested"):
            r = sg.bel_hessian(bm1, sin_obs(), GRID, [np.pi / 2], [1.0], [1.0],
                               variant=variant, n_paths=N, seed=11)
            assert abs(r.mean + E_HALF) < max(3 * r.std_error, 0.02 * E_HALF), variant

    def test_linear_f_zero(self, bm1):
        sc = sg.get_scenario("bm1d")
        r = sg.bel_hessian(bm1, sc.observables["x"], GRID, [0.0], [1.0], [1.0],
                           variant="weights", n_paths=N, seed=12)
        assert abs(r.mean) < 3 * r.std_error

    def test_ou_quadratic(self, ou):
        sc = sg.get_scenario("ou1d")
        r = sg.bel_hessian(ou, sc.observables["x_sq"], GRID, [0.0], [1.0], [1.0],
                           variant="weights", n_paths=60_000, seed=13)
        target = 2 * np.exp(-2)
        assert abs(r.mean - target) < max(3 * r.std_error, 0.03 * target)

    def test_variants_agree_on_state_dependent_noise(self):
        # nonzero DX exercises the DY weight and the nested inner estimates
        model = make_sine_noise_model()
        grid = TimeGrid(0.5, 200)
        obs = sg.as_observable(lambda x: np.sin(x[..., 0]))
        a = sg.bel_hessian(model, obs, grid, [0.3], [1.0], [1.0],
                           variant="weights", n_paths=4000, seed=14)
        b = sg.bel_hessian(model, obs, grid, [0.3], [1.0], [1.0],
                           variant="nested", n_paths=4000, seed=14, n_inner=8)
        assert abs(a.mean - b.mean) < joint_tol(a, b)

    def test_variants_match_crn_difference_of_gradient(self):
        # on the sine-noise model w - DX(v)(Y u) is nonzero, so the correction and
        # the nested inner paths matter; the reference is the common-random-number
        # central difference in x0 of bel_gradient's per-path values, same seed.
        # A scan of seeds 16-25 gave |z| <= 2.67 (weights) and <= 3.16 (nested);
        # dropping the correction moves z to 9-13.
        model = make_sine_noise_model()
        grid = TimeGrid(0.5, 100)
        obs = sg.as_observable(lambda x: np.sin(x[..., 0]))
        n, seed, x0, h = 32_000, 16, 0.3, 0.05
        dWs = noise_block(grid, seed, 0, n, model.m)

        def gradient(x):
            xt, _, _, (wsum,) = simulate(model, grid, np.full((n, 1), x),
                                         dWs.transpose(1, 0, 2), vs=([1.0],),
                                         sums=[weight(model, 0)])
            return obs(xt) * wsum / grid.t_end

        plus = gradient(x0 + h)
        g = sg.bel_gradient(model, obs, grid, [x0 + h], [1.0], n_paths=n, seed=seed)
        assert np.isclose(plus.mean(), g.mean, rtol=1e-12, atol=0.0)
        diff = (plus - gradient(x0 - h)) / (2 * h)
        ref, ref_se = diff.mean(), diff.std(ddof=1) / np.sqrt(n)
        for variant in ("weights", "nested"):
            r = sg.bel_hessian(model, obs, grid, [x0], [1.0], [1.0], variant=variant,
                               n_paths=n, seed=seed, n_inner=8)
            assert abs(r.mean - ref) < 4 * np.hypot(r.std_error, ref_se), variant

    def test_nested_needs_inner_paths(self, bm1):
        with pytest.raises(InvalidConfig, match="n_inner"):
            sg.bel_hessian(bm1, sin_obs(), TimeGrid(1.0, 20), [0.0], [1.0], [1.0],
                           variant="nested", n_inner=0, n_paths=256, seed=0)

    def test_non_integer_inner_paths_rejected(self, bm1):
        with pytest.raises(InvalidConfig, match="n_inner"):
            sg.bel_hessian(bm1, sin_obs(), TimeGrid(1.0, 20), [0.0], [1.0], [1.0],
                           variant="nested", n_inner=2.5, n_paths=256, seed=0)

    def test_odd_steps_rejected(self, bm1):
        with pytest.raises(InvalidConfig):
            sg.bel_hessian(bm1, sin_obs(), TimeGrid(1.0, 401), [0.0], [1.0], [1.0],
                           n_paths=10, seed=0)

    def test_manifold_hessian_sphere(self, sphere):
        # covariant second derivative of the height eigenfunction at the pole:
        # Hess(x3)(v, v) = -x3 |v|^2, so the estimate is -e^{-t}
        sc = sg.get_scenario("sphere3")
        grid = TimeGrid(0.5, 300)
        e1 = np.array([1.0, 0.0, 0.0])
        r = sg.bel_hessian(sphere, sc.observables["height"], grid,
                           [0.0, 0.0, 1.0], e1, e1, variant="weights",
                           n_paths=40_000, seed=15)
        target = -np.exp(-0.5)
        assert abs(r.mean - target) < max(3 * r.std_error, 0.05 * abs(target))


class TestPotentialGradient:
    def test_zero_potential_reduces_bitwise(self, bm1):
        V0 = PotentialField(V=lambda t, x: np.zeros(x.shape[:-1]),
                            dV=lambda t, x: np.zeros_like(x), upper_bound=0.0)
        a = sg.potential_gradient(bm1, sin_obs(), V0, GRID, [0.0], [1.0],
                                  n_paths=5000, seed=16)
        b = sg.bel_gradient(bm1, sin_obs(), GRID, [0.0], [1.0],
                            n_paths=5000, seed=16)
        assert a.mean == b.mean

    def test_constant_potential_factorizes(self, bm1):
        Vc = PotentialField(V=lambda t, x: np.full(x.shape[:-1], 0.5),
                            dV=lambda t, x: np.zeros_like(x), upper_bound=0.5)
        r = sg.potential_gradient(bm1, sin_obs(), Vc, GRID, [0.0], [1.0],
                                  n_paths=N, seed=17)
        assert abs(r.mean - 1.0) < max(3 * r.std_error, 0.02)

    def test_constant_observable_zero(self, bm1):
        one = sg.get_scenario("bm1d").observables["one"]
        V0 = PotentialField(V=lambda t, x: np.zeros(x.shape[:-1]),
                            dV=lambda t, x: np.zeros_like(x), upper_bound=0.0)
        r = sg.potential_gradient(bm1, one, V0, GRID, [0.0], [1.0],
                                  n_paths=N, seed=18)
        assert abs(r.mean) < 3 * r.std_error

    def test_time_ramp_potential(self, bm1):
        # V_t = t integrates deterministically: weight e^{t^2/2} at t = 1
        Vr = PotentialField(V=lambda t, x: np.full(x.shape[:-1], t),
                            dV=lambda t, x: np.zeros_like(x), upper_bound=1.0)
        r = sg.potential_gradient(bm1, sin_obs(), Vr, GRID, [0.0], [1.0],
                                  n_paths=N, seed=19)
        target = np.exp(0.5) * E_HALF
        assert abs(r.mean - target) < max(3 * r.std_error, 0.02 * target)

    def test_time_dependent_coefficients(self, bm1):
        # reversed-time noise scale sigma(s) = sqrt(1 + s): total variance 3/2
        tc = TimeDependentCoefficients(
            X=lambda t, x: np.sqrt(1.0 + t) * np.ones(x.shape + (1,)),
            Z=lambda t, x: np.zeros_like(x),
            DX=lambda t, x, v: np.zeros(x.shape + (1,)),
            DZ=lambda t, x, v: np.zeros_like(v),
            Y=lambda t, x: np.ones(x.shape + (1,)) / np.sqrt(1.0 + t))
        V0 = PotentialField(V=lambda t, x: np.zeros(x.shape[:-1]),
                            dV=lambda t, x: np.zeros_like(x), upper_bound=0.0)
        r = sg.potential_gradient(bm1, sin_obs(), V0, GRID, [0.0], [1.0],
                                  n_paths=N, seed=20, time_coeffs=tc)
        target = np.exp(-0.75)
        assert abs(r.mean - target) < max(3 * r.std_error, 0.02 * target)

    def test_spatial_potential_derivative_term(self, ou):
        # V(x) = a x on the OU process, u0 = 1: int_0^t X_s ds is Gaussian with
        # mean x (1 - e^{-t}) and variance s2 = t - 2(1 - e^{-t}) + (1 - e^{-2t})/2,
        # so u_t(x) = exp(a x (1 - e^{-t}) + a^2 s2 / 2) and
        # Du_t(0)(1) = a (1 - e^{-t}) u_t(0).  Exercises the dV correction term.
        a = 0.5
        Va = PotentialField(V=lambda t, x: a * x[..., 0],
                            dV=lambda t, x: np.full_like(x, a),
                            upper_bound=np.inf)
        one = sg.get_scenario("ou1d").observables["one"]
        r = sg.potential_gradient(ou, one, Va, GRID, [0.0], [1.0],
                                  n_paths=60_000, seed=21)
        s2 = 1 - 2 * (1 - np.exp(-1)) + (1 - np.exp(-2)) / 2
        target = a * (1 - np.exp(-1)) * np.exp(a * a * s2 / 2)
        assert abs(r.mean - target) < max(3 * r.std_error, 0.02 * target)

    def test_unbounded_potential_raises(self, bm1):
        Vbad = PotentialField(V=lambda t, x: x[..., 0] ** 2,
                              dV=lambda t, x: 2 * x, upper_bound=0.1)
        with pytest.raises(UnboundedPotential):
            sg.potential_gradient(bm1, sin_obs(), Vbad, GRID, [0.0], [1.0],
                                  n_paths=500, seed=22)


class TestHessianFlowGradient:
    def test_flat_reduction_bitwise(self, bm1):
        a = sg.hessian_flow_gradient(bm1, sin_obs(), GRID, [0.0], [1.0],
                                     n_paths=5000, seed=23)
        b = sg.bel_gradient(bm1, sin_obs(), GRID, [0.0], [1.0],
                            n_paths=5000, seed=23)
        assert a.mean == b.mean

    def test_sphere_height_eigenfunction(self, sphere):
        sc = sg.get_scenario("sphere3")
        grid = TimeGrid(0.5, 300)
        r = sg.hessian_flow_gradient(sphere, sc.observables["height"], grid,
                                     sc.x0, sc.v0, n_paths=N, seed=24)
        assert abs(r.mean - E_HALF) < max(3 * r.std_error, 0.02 * E_HALF)

    def test_constant_zero(self, sphere):
        one = sg.get_scenario("sphere3").observables["one"]
        grid = TimeGrid(0.5, 200)
        r = sg.hessian_flow_gradient(sphere, one, grid, [1.0, 0.0, 0.0],
                                     [0.0, 0.0, 1.0], n_paths=N, seed=25)
        assert abs(r.mean) < 3 * r.std_error

    def test_works_for_measurable_f(self, sphere):
        obs = sg.ScalarObservable(f=lambda x: (x[..., 2] > 0).astype(float), bound=1.0)
        grid = TimeGrid(0.5, 200)
        r = sg.hessian_flow_gradient(sphere, obs, grid, [1.0, 0.0, 0.0],
                                     [0.0, 0.0, 1.0], n_paths=10_000, seed=26)
        assert np.isfinite(r.mean)


class TestScoreGradient:
    def test_bm_gaussian_score(self, bm1):
        bins = ConditionalBinSpec(target=np.array([1.0]), bandwidth=0.05)
        r = sg.score_gradient(bm1, GRID, [0.0], [1.0], bins, n_paths=100_000, seed=27)
        assert abs(r.mean - 1.0) < max(3 * r.std_error, 0.05)
        assert r.metadata["effective_count"] > 100

    def test_score_at_start_is_zero(self, bm1):
        bins = ConditionalBinSpec(target=np.array([0.0]), bandwidth=0.05)
        r = sg.score_gradient(bm1, GRID, [0.0], [1.0], bins, n_paths=60_000, seed=28)
        assert abs(r.mean) < 3 * r.std_error

    def test_orthogonal_component_2d(self, bm2):
        bins = ConditionalBinSpec(target=np.array([1.0, 0.0]), bandwidth=0.2)
        r = sg.score_gradient(bm2, GRID, [0.0, 0.0], [0.0, 1.0], bins,
                              n_paths=60_000, seed=29)
        assert abs(r.mean) < 3 * r.std_error

    def test_gaussian_kernel(self, bm1):
        bins = ConditionalBinSpec(target=np.array([1.0]), bandwidth=0.05,
                                  kernel="gaussian")
        r = sg.score_gradient(bm1, GRID, [0.0], [1.0], bins, n_paths=60_000, seed=30)
        assert abs(r.mean - 1.0) < max(3 * r.std_error, 0.05)

    def test_empty_bin(self, bm1):
        bins = ConditionalBinSpec(target=np.array([50.0]), bandwidth=1e-4)
        with pytest.raises(EmptyBin):
            sg.score_gradient(bm1, GRID, [0.0], [1.0], bins, n_paths=1000, seed=31)

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, np.inf, np.nan, True, np.bool_(True)])
    def test_bandwidth_must_be_positive_and_finite(self, bandwidth):
        # an infinite bandwidth would put every path in the bin
        with pytest.raises(InvalidConfig, match="bandwidth"):
            ConditionalBinSpec(target=np.array([1.0]), bandwidth=bandwidth)

    @pytest.mark.usefixtures("one_worker")
    def test_metadata_matches_other_estimators(self):
        # blow-up accounting and the finite-difference warning are shared
        from semigrad.models import make_flat_model, with_fd_derivatives

        exact = make_sine_noise_model()
        fd = with_fd_derivatives(make_flat_model(1, 1, X=exact.X, Z=exact.Z))
        fd.blow_up_radius = 1.5
        bins = ConditionalBinSpec(target=np.array([1.0]), bandwidth=0.5)
        grid = TimeGrid(1.0, 50)
        r = sg.score_gradient(fd, grid, [0.0], [1.0], bins, n_paths=1000, seed=32)
        assert r.n_rejected > 0
        assert r.metadata["blowup_fraction"] == r.n_rejected / r.n_paths
        assert r.metadata["invalid"]
        assert any("finite-difference" in w for w in r.metadata["warnings"])
        assert any("blow-up radius" in w for w in r.metadata["warnings"])

    @pytest.mark.usefixtures("one_worker")
    def test_dead_paths_leave_every_column(self):
        # the four kernel columns are reduced over the survivors, like any estimator's
        model = make_cubic_blowup_model()
        grid = TimeGrid(1.0, 100)
        bins = ConditionalBinSpec(target=np.array([0.5]), bandwidth=0.5)
        r = sg.score_gradient(model, grid, [1.0], [1.0], bins, n_paths=3000, seed=34)
        v = sg.semigroup_value(model, lambda x: x[..., 0], grid, [1.0], n_paths=3000, seed=34)
        assert r.n_rejected == v.n_rejected > 0
        assert len(r.columns) == 4
        assert all(c.n == r.n_paths - r.n_rejected for c in r.columns)
        assert r.metadata["in_bin_weight"] == r.columns[0].total

    @pytest.mark.usefixtures("one_worker")
    def test_metadata_without_rejections(self, bm1):
        bins = ConditionalBinSpec(target=np.array([1.0]), bandwidth=0.5)
        r = sg.score_gradient(bm1, GRID, [0.0], [1.0], bins, n_paths=1000, seed=33)
        assert r.metadata["blowup_fraction"] == 0.0
        assert r.valid and "warnings" not in r.metadata


class TestLieGroupGradient:
    def test_constant_zero(self, so3):
        one = sg.get_scenario("so3").observables["one"]
        grid = TimeGrid(0.5, 200)
        r = sg.lie_group_gradient(so3, one, grid, [1.0, 0.0, 0.0],
                                  n_paths=10_000, seed=32)
        assert abs(r.mean) < 3 * r.std_error

    def test_zero_direction(self, so3):
        obs = sg.get_scenario("so3").observables["trace"]
        grid = TimeGrid(0.5, 100)
        r = sg.lie_group_gradient(so3, obs, grid, [0.0, 0.0, 0.0],
                                  n_paths=500, seed=33)
        assert r.mean == 0.0

    def test_casimir_eigenfunction(self, so3):
        sc = sg.get_scenario("so3")
        grid = TimeGrid(0.5, 400)
        r = sg.lie_group_gradient(so3, sc.observables["trace_e1"], grid,
                                  [1.0, 0.0, 0.0], n_paths=N, seed=34)
        target = -2 * np.exp(-0.5)
        assert abs(r.mean - target) < max(3 * r.std_error, 0.02 * abs(target))

    def test_agrees_with_generic_manifold_weight(self, so3):
        sc = sg.get_scenario("so3")
        grid = TimeGrid(0.5, 400)
        v_alg = np.array([1.0, 0.0, 0.0])
        a = sg.lie_group_gradient(so3, sc.observables["trace_e1"], grid, v_alg,
                                  n_paths=20_000, seed=35)
        v_emb = skew_from_axis(v_alg).reshape(-1)
        b = sg.bel_gradient(so3, sc.observables["trace_e1"], grid,
                            np.eye(3).reshape(-1), v_emb, n_paths=20_000, seed=35)
        assert abs(a.mean - b.mean) < joint_tol(a, b)

    def test_rejects_non_group_model(self, bm1):
        with pytest.raises(NotLieGroup):
            sg.lie_group_gradient(bm1, sin_obs(), GRID, [1.0], n_paths=10, seed=0)


class TestResultContract:
    def test_reproducible_bitwise(self, bm1):
        a = sg.bel_gradient(bm1, sin_obs(), GRID, [0.0], [1.0], n_paths=4096, seed=40)
        b = sg.bel_gradient(bm1, sin_obs(), GRID, [0.0], [1.0], n_paths=4096, seed=40)
        assert a.mean == b.mean and a.std_error == b.std_error

    def test_worker_count_invariance(self, bm1):
        key = "SEMIGRAD_THREADS"
        old = os.environ.get(key)
        try:
            os.environ[key] = "1"
            a = sg.bel_gradient(bm1, sin_obs(), GRID, [0.0], [1.0],
                                n_paths=40_000, seed=41)
            os.environ[key] = "4"
            b = sg.bel_gradient(bm1, sin_obs(), GRID, [0.0], [1.0],
                                n_paths=40_000, seed=41)
        finally:
            if old is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = old
        assert a.mean == b.mean

    @pytest.mark.parametrize("name", ["score_gradient", "martingale_mean_check",
                                      "bel_hessian_weights", "bel_hessian_nested",
                                      "finite_difference_oracle"])
    def test_multi_column_worker_count_invariance(self, name, monkeypatch):
        # three blocks at 10 steps; the cubic model makes n_rejected non-zero
        grid = TimeGrid(1.0, 10)
        n = 2 * sg.engine.default_block_size(grid.n_steps, 1) + 1000
        cubic, sine = make_cubic_blowup_model(), make_sine_noise_model()
        bins = ConditionalBinSpec(target=np.array([1.0]), bandwidth=0.5)
        run = {
            "score_gradient": lambda: sg.score_gradient(
                cubic, grid, [1.0], [1.0], bins, n_paths=n, seed=45),
            "martingale_mean_check": lambda: sg.martingale_mean_check(
                cubic, grid, [1.0], [1.0], n_paths=n, seed=46),
            "bel_hessian_weights": lambda: sg.bel_hessian(
                sine, sin_obs(), grid, [0.3], [1.0], [1.0], n_paths=n, seed=47),
            "bel_hessian_nested": lambda: sg.bel_hessian(
                sine, sin_obs(), grid, [0.3], [1.0], [1.0], variant="nested", n_paths=n, seed=47),
            "finite_difference_oracle": lambda: sg.finite_difference_oracle(
                cubic, lambda x: np.tanh(x[..., 0]), grid, [1.0], [1.0], n_paths=n, seed=48),
        }[name]
        monkeypatch.setenv("SEMIGRAD_THREADS", "1")
        one = run()
        monkeypatch.setenv("SEMIGRAD_THREADS", "2")
        two = run()
        if name == "martingale_mean_check":
            assert one.details == two.details and one.empirical == two.empirical
            assert one.details["blowup_fraction"] > 0
        else:
            assert (one.mean, one.std_error, one.n_rejected) == (
                two.mean, two.std_error, two.n_rejected)
            assert one.columns == two.columns

    @pytest.mark.usefixtures("one_worker")
    def test_columns_hold_the_mean(self):
        model = make_cubic_blowup_model()
        r = sg.semigroup_value(model, lambda x: np.tanh(x[..., 0]), TimeGrid(1.0, 100), [1.0],
                               n_paths=3000, seed=49)
        n_ok = r.n_paths - r.n_rejected
        assert r.n_rejected > 0 and len(r.columns) == 1
        assert r.columns[0].n == n_ok
        assert r.columns[0].total / n_ok == r.mean

    def test_seed_outside_uint64_rejected(self, bm1):
        # a negative seed used to alias onto seed + 2**64
        for seed in (-1, 2 ** 64):
            with pytest.raises(InvalidConfig, match="seed"):
                sg.bel_gradient(bm1, sin_obs(), TimeGrid(1.0, 10), [0.0], [1.0], n_paths=10,
                                seed=seed)

    @pytest.mark.parametrize("name", ["semigroup_value", "bel_gradient"])
    def test_column_per_path_shape_enforced(self, bm1, name):
        # np.sin keeps (B, 1); times the (B,) weight it used to broadcast to (B, B), so
        # bel_gradient read 1.5e-05 against e^(-1/2) and counted 4096**2 paths
        estimator = getattr(sg, name)
        args = ([0.0], [1.0]) if name == "bel_gradient" else ([0.0],)
        with pytest.raises(DimensionMismatch, match="column"):
            estimator(bm1, np.sin, TimeGrid(1.0, 10), *args, n_paths=4096, seed=0)

    def test_rejected_paths_flagged(self):
        model = make_cubic_blowup_model()
        model.blow_up_radius = 1e4
        grid = TimeGrid(1.0, 300)
        r = sg.semigroup_value(model, lambda x: np.tanh(x[..., 0]), grid, [1.4],
                               n_paths=2000, seed=42)
        assert r.n_rejected > 0
        assert r.n_rejected + (r.n_paths - r.n_rejected) == r.n_paths
        if r.n_rejected / r.n_paths > 0.01:
            assert r.metadata["invalid"]

    def test_zero_paths_rejected(self, bm1):
        grid = TimeGrid(1.0, 20)
        bins = ConditionalBinSpec(target=np.array([0.0]), bandwidth=0.5)
        for run in (lambda: sg.semigroup_value(bm1, sin_obs(), grid, [0.0], n_paths=0),
                    lambda: sg.bel_gradient(bm1, sin_obs(), grid, [0.0], [1.0], n_paths=0),
                    lambda: sg.score_gradient(bm1, grid, [0.0], [1.0], bins, n_paths=0)):
            with pytest.raises(InvalidConfig, match="n_paths"):
                run()

    def test_non_integer_paths_rejected(self, bm1):
        with pytest.raises(InvalidConfig, match="n_paths"):
            sg.semigroup_value(bm1, sin_obs(), TimeGrid(1.0, 20), [0.0], n_paths=2.5)

    def test_std_error_definition(self, bm1):
        r = sg.semigroup_value(bm1, sin_obs(), GRID, [0.0], n_paths=5000, seed=43)
        assert r.std_error > 0
        assert r.n_paths == 5000 and r.n_rejected == 0

    def test_std_error_survives_offset(self, bm1):
        # three blocks: the spread is merged across blocks, not recovered from s2 - n mean^2
        grid = TimeGrid(1.0, 50)
        plain, shifted = (sg.semigroup_value(bm1, lambda x, c=c: np.sin(x[..., 0]) + c,
                                             grid, [0.0], n_paths=40_000, seed=3)
                          for c in (0.0, 1e8))
        assert shifted.std_error == pytest.approx(plain.std_error, rel=1e-6)

    def test_fd_coefficient_model_warns(self):
        from semigrad.models import make_flat_model, with_fd_derivatives

        exact = make_sine_noise_model()
        fd = with_fd_derivatives(make_flat_model(1, 1, X=exact.X, Z=exact.Z))
        grid = TimeGrid(0.5, 100)
        r = sg.bel_gradient(fd, sin_obs(), grid, [0.0], [1.0],
                            n_paths=1000, seed=44)
        assert any("finite-difference" in w for w in r.metadata["warnings"])
