import numpy as np
import pytest

import semigrad as sg
from semigrad import TimeGrid, generate_noise
from semigrad.errors import (DegreeMismatch, DimensionMismatch, MissingCodifferential, NotClosed,
                             NotGradientSystem, UnsupportedDegree)
from semigrad.forms import (FormField, angle_form_s1,
                            form_exterior_gradient, line_integral_step,
                            one_form_semigroup, q_form_semigroup,
                            tangent_frame, volume_form_s2,
                            zero_form_from_observable)
from semigrad.paths import integrate_block, noise_block

from conftest import joint_tol, one_path


def scaled_volume_form_s2(scalar, grad_scalar, name="f*vol_s2") -> FormField:
    """f * vol on S^2 with delta(f vol)(u) = <-x cross grad f, u>."""

    def ev(x, u, v):
        return scalar(x) * np.einsum("bn,bn->b", x, np.cross(u, v))

    def codiff(x, u):
        g = grad_scalar(x)
        return np.einsum("bn,bn->b", -np.cross(x, g), u)

    return FormField(degree=2, eval=ev, codiff=codiff, is_closed=True, name=name)


def _line_integral(model, x0, grid, noise, form, vs=()):
    """``one_path`` with the line integral of ``form`` on every field as its sum."""
    return one_path(model, x0, grid, noise, vs=vs,
                    sums=[line_integral_step(form, grid, range(form.degree - 1))])


def circle_sin_form(circle_scenario):
    return circle_scenario.forms["exact:sin"]


@pytest.fixture(scope="module")
def circle_sc():
    return sg.get_scenario("circle")


@pytest.fixture(scope="module")
def sphere_sc():
    return sg.get_scenario("sphere3")


class TestLineIntegral:
    def test_exact_form_telescopes(self, circle, circle_sc):
        # int df o dx = f(x_t) - f(x_0) up to the Euler truncation error
        grid = TimeGrid(1.0, 500)
        form = circle_sin_form(circle_sc)
        f = circle_sc.observables["sin"]
        for p in range(20):
            noise = generate_noise(grid, 51, p, 2)
            states, _, _, _, totals = _line_integral(circle, [1.0, 0.0], grid, noise, form)
            jump = f(states[0, -1][None])[0] - f(states[0, 0][None])[0]
            assert abs(totals[0][0] - jump) < 5 * np.sqrt(grid.dt)

    def test_zero_form_is_zero(self, circle):
        grid = TimeGrid(1.0, 100)
        zero = FormField(degree=1, eval=lambda x, v: np.zeros(x.shape[:-1]),
                         codiff=lambda x: np.zeros(x.shape[:-1]), is_closed=True)
        noise = generate_noise(grid, 0, 0, 2)
        _, _, _, _, totals = _line_integral(circle, [1.0, 0.0], grid, noise, zero)
        assert totals[0][0] == 0.0

    def test_winding_angle(self, circle):
        # int dtheta o dx equals the unwrapped angle increment along the path
        grid = TimeGrid(1.0, 2000)
        noise = generate_noise(grid, 52, 3, 2)
        states, _, _, _, totals = _line_integral(circle, [1.0, 0.0], grid, noise,
                                                 angle_form_s1())
        angles = np.unwrap(np.arctan2(states[0, :, 1], states[0, :, 0]))
        winding = angles[-1] - angles[0]
        assert abs(totals[0][0] - winding) < 5 * np.sqrt(grid.dt)

    @pytest.mark.usefixtures("one_worker")
    def test_missing_codifferential(self, circle, circle_sc):
        # the form semigroup, which sums the line integral, checks for delta^h first
        form = FormField(degree=1, eval=lambda x, v: v[..., 0], codiff=None, is_closed=True)
        with pytest.raises(MissingCodifferential):
            one_form_semigroup(circle, form, TimeGrid(1.0, 10), circle_sc.x0, circle_sc.v0,
                               n_paths=8, seed=0)


class TestQFormLineIntegral:
    def test_zero_q_form(self, sphere):
        grid = TimeGrid(0.5, 100)
        zero = FormField(degree=2, eval=lambda x, u, v: np.zeros(x.shape[:-1]),
                         codiff=lambda x, u: np.zeros(x.shape[:-1]), is_closed=True)
        noise = generate_noise(grid, 0, 0, 3)
        _, _, _, _, totals = _line_integral(sphere, [1.0, 0.0, 0.0], grid, noise, zero,
                                            vs=([0.0, 0.0, 1.0],))
        assert totals[0][0] == 0.0

    def test_volume_form_matches_frame_oracle(self, sphere):
        # independent re-computation in explicit orthonormal frame components
        grid = TimeGrid(0.5, 200)
        vol = volume_form_s2()
        noise = generate_noise(grid, 54, 2, 3)
        states, _, _, fields, totals = _line_integral(sphere, [1.0, 0.0, 0.0], grid, noise,
                                                      vol, vs=([0.0, 0.0, 1.0],))
        got = totals[0][0]

        oracle = 0.0
        for k in range(grid.n_steps):
            x = states[0, k]
            frame = tangent_frame(sphere, x)
            comps = np.array([[vol.eval(x[None], f_i[None], f_j[None])[0] for f_j in frame]
                              for f_i in frame])
            x_db = sphere.apply_X(x[None], noise[k][None])[0]
            coords_db = frame @ x_db
            coords_a = frame @ fields[0][0][k]
            oracle += 0.5 * coords_db @ comps @ coords_a
            # codifferential of the volume form vanishes, no ds term
        assert abs(got - oracle) < 1e-12

    @pytest.mark.parametrize("scenario,form_id", [("circle", "exact:sin"),
                                                  ("circle", "dtheta_s1"),
                                                  ("sphere3", "vol_s2")])
    def test_stored_path_equals_kernel_total(self, scenario, form_id):
        # one path's line integral is its row of the total over a block of paths
        sc = sg.get_scenario(scenario)
        model = sc.make()
        form = sc.form(form_id)
        grid = TimeGrid(0.5, 100)
        vs = () if form.degree == 1 else (sc.v0,)
        steps = noise_block(grid, 55, 0, 20, model.m).transpose(1, 0, 2)
        sums = [line_integral_step(form, grid, range(form.degree - 1))]
        _, _, _, _, (block,) = integrate_block(model, np.tile(sc.x0, (20, 1)), grid, steps,
                                               vs=vs, sums=sums)
        for p in range(20):
            noise = generate_noise(grid, 55, p, model.m)
            _, _, _, _, totals = _line_integral(model, sc.x0, grid, noise, form, vs)
            assert totals[0][0] == block[p]

    @pytest.mark.usefixtures("one_worker")
    def test_degree_mismatch(self, sphere, sphere_sc):
        with pytest.raises(DegreeMismatch):
            q_form_semigroup(sphere, volume_form_s2(), TimeGrid(0.5, 10), sphere_sc.x0,
                             (sphere_sc.u0,), n_paths=8, seed=0)


GRID = TimeGrid(1.0, 400)
N = 25_000


class TestOneFormSemigroup:
    def test_harmonic_form_fixed_point(self, circle, circle_sc):
        r = one_form_semigroup(circle, angle_form_s1(), GRID, circle_sc.x0,
                               circle_sc.v0, n_paths=N, seed=60)
        assert abs(r.mean - 1.0) < max(3 * r.std_error, 0.02)

    def test_eigenform_decay(self, circle, circle_sc):
        r = one_form_semigroup(circle, circle_sin_form(circle_sc), GRID,
                               circle_sc.x0, circle_sc.v0, n_paths=N, seed=61)
        assert abs(r.mean - np.exp(-0.5)) < max(3 * r.std_error, 0.02 * np.exp(-0.5))

    def test_eigenform_away_from_origin_angle(self, circle):
        theta0 = np.pi / 4
        x0 = np.array([np.cos(theta0), np.sin(theta0)])
        v0 = np.array([-np.sin(theta0), np.cos(theta0)])
        sc = sg.get_scenario("circle")
        r = one_form_semigroup(circle, circle_sin_form(sc), GRID, x0, v0,
                               n_paths=N, seed=62)
        target = np.exp(-0.5) * np.cos(theta0)
        assert abs(r.mean - target) < max(3 * r.std_error, 0.02 * target)

    def test_zero_form(self, circle, circle_sc):
        zero = FormField(degree=1, eval=lambda x, v: np.zeros(x.shape[:-1]),
                         codiff=lambda x: np.zeros(x.shape[:-1]), is_closed=True)
        r = one_form_semigroup(circle, zero, GRID, circle_sc.x0, circle_sc.v0,
                               n_paths=2000, seed=63)
        assert r.mean == 0.0

    def test_not_closed_rejected(self, circle, circle_sc):
        form = FormField(degree=1, eval=lambda x, v: v[..., 0],
                         codiff=lambda x: np.zeros(x.shape[:-1]), is_closed=False)
        with pytest.raises(NotClosed):
            one_form_semigroup(circle, form, GRID, circle_sc.x0, circle_sc.v0,
                               n_paths=10, seed=0)


class TestQFormSemigroup:
    def test_volume_form_fixed_point(self, sphere, sphere_sc):
        r = q_form_semigroup(sphere, volume_form_s2(), TimeGrid(0.5, 300),
                             sphere_sc.x0, (sphere_sc.u0, sphere_sc.v0),
                             n_paths=N, seed=64)
        target = float(np.dot(sphere_sc.x0, np.cross(sphere_sc.u0, sphere_sc.v0)))
        assert abs(target) == 1.0
        assert abs(r.mean - target) < max(3 * r.std_error, 0.03)

    def test_q1_reduction_bitwise(self, circle, circle_sc):
        a = q_form_semigroup(circle, angle_form_s1(), GRID, circle_sc.x0,
                             (circle_sc.v0,), n_paths=4000, seed=65)
        b = one_form_semigroup(circle, angle_form_s1(), GRID, circle_sc.x0,
                               circle_sc.v0, n_paths=4000, seed=65)
        assert a.mean == b.mean

    def test_antisymmetry_in_vectors(self, sphere, sphere_sc):
        grid = TimeGrid(0.5, 200)
        a = q_form_semigroup(sphere, volume_form_s2(), grid, sphere_sc.x0,
                             (sphere_sc.u0, sphere_sc.v0), n_paths=4000, seed=66)
        b = q_form_semigroup(sphere, volume_form_s2(), grid, sphere_sc.x0,
                             (sphere_sc.v0, sphere_sc.u0), n_paths=4000, seed=66)
        assert a.mean == -b.mean

    def test_flat_model_rejected(self, bm2):
        form = volume_form_s2()
        with pytest.raises(NotGradientSystem):
            q_form_semigroup(bm2, form, GRID, [0.0, 0.0],
                             (np.array([1.0, 0.0]), np.array([0.0, 1.0])),
                             n_paths=10, seed=0)

    def test_unsupported_degree(self, sphere, sphere_sc):
        form = FormField(degree=3, eval=lambda x, u, v, w: np.zeros(x.shape[:-1]),
                         codiff=lambda x, u, v: np.zeros(x.shape[:-1]),
                         is_closed=True)
        with pytest.raises(UnsupportedDegree):
            q_form_semigroup(sphere, form, GRID, sphere_sc.x0,
                             (sphere_sc.u0, sphere_sc.v0, sphere_sc.x0),
                             n_paths=10, seed=0)


class TestFormExteriorGradient:
    def test_degree0_reduces_to_bel_gradient(self, circle, circle_sc):
        obs = circle_sc.observables["sin"]
        zf = zero_form_from_observable(obs)
        a = form_exterior_gradient(circle, zf, GRID, circle_sc.x0,
                                   (circle_sc.v0,), n_paths=4000, seed=67)
        b = sg.bel_gradient(circle, obs, GRID, circle_sc.x0, circle_sc.v0,
                            n_paths=4000, seed=67)
        assert a.mean == b.mean

    def test_circle_eigenfunction(self, circle, circle_sc):
        zf = zero_form_from_observable(circle_sc.observables["sin"])
        r = form_exterior_gradient(circle, zf, GRID, circle_sc.x0,
                                   (circle_sc.v0,), n_paths=N, seed=68)
        assert abs(r.mean - np.exp(-0.5)) < max(3 * r.std_error, 0.02 * np.exp(-0.5))

    def test_zero_form_gives_zero(self, circle, circle_sc):
        zf = FormField(degree=0, eval=lambda x: np.zeros(x.shape[:-1]))
        r = form_exterior_gradient(circle, zf, GRID, circle_sc.x0,
                                   (circle_sc.v0,), n_paths=1000, seed=69)
        assert r.mean == 0.0

    def test_commutation_with_one_form_semigroup(self, circle, circle_sc):
        # d(P_t f) agrees with the 1-form semigroup applied to df, same seeds
        zf = zero_form_from_observable(circle_sc.observables["sin"])
        a = form_exterior_gradient(circle, zf, GRID, circle_sc.x0,
                                   (circle_sc.v0,), n_paths=N, seed=70)
        b = one_form_semigroup(circle, circle_sin_form(circle_sc), GRID,
                               circle_sc.x0, circle_sc.v0, n_paths=N, seed=70)
        assert abs(a.mean - b.mean) < joint_tol(a, b)

    def test_degree2_commutation_on_sphere(self, sphere, sphere_sc):
        # phi = x1 dx2 - x2 dx1 restricted to S^2 has d phi = 2 x3 vol
        phi = FormField(
            degree=1,
            eval=lambda x, v: x[..., 0] * v[..., 1] - x[..., 1] * v[..., 0],
            codiff=lambda x: np.zeros(x.shape[:-1]))
        dphi = scaled_volume_form_s2(
            scalar=lambda x: 2.0 * x[..., 2],
            grad_scalar=lambda x: 2.0 * np.broadcast_to(
                np.array([0.0, 0.0, 1.0]), x.shape),
            name="2*x3*vol")
        grid = TimeGrid(0.5, 300)
        a = form_exterior_gradient(sphere, phi, grid, sphere_sc.x0,
                                   (sphere_sc.u0, sphere_sc.v0),
                                   n_paths=40_000, seed=71)
        b = q_form_semigroup(sphere, dphi, grid, sphere_sc.x0,
                             (sphere_sc.u0, sphere_sc.v0), n_paths=40_000, seed=71)
        assert abs(a.mean - b.mean) < joint_tol(a, b)


class TestTangentFrame:
    @pytest.mark.parametrize("x", [[1.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
    def test_wrong_dimension_rejected(self, sphere, x):
        with pytest.raises(DimensionMismatch):
            tangent_frame(sphere, x)


class TestAlternatingAlgebra:
    def test_form_eval_alternating(self, sphere):
        vol = volume_form_s2()
        x = np.array([[0.0, 0.0, 1.0]])
        u = np.array([[1.0, 0.0, 0.0]])
        v = np.array([[0.0, 1.0, 0.0]])
        assert vol.eval(x, u, v)[0] == -vol.eval(x, v, u)[0]

    def test_tangent_frame_orthonormal(self, sphere):
        rng = np.random.default_rng(8)
        for _ in range(5):
            x = rng.standard_normal(3)
            x /= np.linalg.norm(x)
            frame = tangent_frame(sphere, x)
            assert frame.shape == (2, 3)
            assert np.allclose(frame @ frame.T, np.eye(2), atol=1e-12)
            assert np.allclose(frame @ x, 0.0, atol=1e-12)

    def test_wrong_arity_raises(self):
        vol = volume_form_s2()
        with pytest.raises(DegreeMismatch):
            vol(np.zeros((1, 3)), np.zeros((1, 3)))
